//! The garbage ledger across threads. A retirement is counted on the
//! retiring thread's own record and settled by whichever thread runs it;
//! `pending` sums the records. Threads that exit with their retirements
//! still in an open bag (epoch) or retire list (hazard) must leave the sum
//! exact, and the peak, sampled at seals and scans, must have seen them.
//!
//! The ledger is process-wide per backend, so both backends run inside one
//! `#[test]`, one after the other.

use std::sync::{Arc, Barrier};
use synq_reclaim::{Epoch, Hazard, Reclaimer, Shield, SCAN_THRESHOLD};

const THREADS: usize = 4;
/// Under the epoch bag size (64) and the hazard scan threshold, so nothing
/// is sealed or scanned before a thread exits.
const PER_THREAD: usize = SCAN_THRESHOLD / 2;

/// Collects until `pending` is back at `target` (or gives up); returns it.
fn drain_to<R: Reclaimer>(target: usize) -> usize {
    for _ in 0..64 {
        if R::pending() == target {
            break;
        }
        R::collect();
    }
    R::pending()
}

fn threads_exit_with_open_garbage<R: Reclaimer>() {
    let baseline = drain_to::<R>(0);
    R::reset_peak();

    let barrier = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    let guard = R::pin();
                    let addr = Box::into_raw(Box::new(0u64)) as usize;
                    // SAFETY: never shared; retired once; the closure only
                    // frees it.
                    unsafe {
                        guard.defer_retire(addr, move || drop(Box::from_raw(addr as *mut u64)))
                    };
                }
                let own = R::pending();
                barrier.wait();
                let all = R::pending();
                // Nobody exits (and seals or scans) before all have looked.
                barrier.wait();
                (own, all)
            })
        })
        .collect();
    let seen: Vec<(usize, usize)> = workers.into_iter().map(|h| h.join().unwrap()).collect();

    for &(own, all) in &seen {
        assert!(
            own >= PER_THREAD,
            "{}: own open items uncounted ({own})",
            R::NAME
        );
        assert!(
            all >= THREADS * PER_THREAD,
            "{}: other threads' open items uncounted ({all})",
            R::NAME
        );
    }
    let largest = seen.iter().map(|&(_, all)| all).max().unwrap();
    let peak = R::peak_pending();
    assert!(
        peak >= largest,
        "{}: peak {peak} below a pending count a thread saw ({largest})",
        R::NAME
    );
    assert_eq!(
        drain_to::<R>(baseline),
        baseline,
        "{}: pending did not return to its baseline",
        R::NAME
    );
}

#[test]
fn exited_threads_leave_the_ledger_exact() {
    threads_exit_with_open_garbage::<Epoch>();
    threads_exit_with_open_garbage::<Hazard>();
}
