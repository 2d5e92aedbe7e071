//! The garbage ledger across threads. A retirement is counted on the
//! retiring thread's own record and settled by whichever thread runs it;
//! `pending` sums the records. Threads that exit with their retirements
//! still in an open bag must leave the sum exact, and the peak, sampled at
//! seals, must have seen them.
//!
//! The ledger is process-wide, so this binary holds one `#[test]`.

use std::sync::{Arc, Barrier};
use synq_reclaim::{Epoch, Reclaimer, Shield};

const THREADS: usize = 4;
/// Under the epoch bag size (64), so nothing is sealed before a thread
/// exits.
const PER_THREAD: usize = 32;

/// Collects until `pending` is back at `target` (or gives up); returns it.
fn drain_to(target: usize) -> usize {
    for _ in 0..64 {
        if Epoch::pending() == target {
            break;
        }
        Epoch::collect();
    }
    Epoch::pending()
}

#[test]
fn exited_threads_leave_the_ledger_exact() {
    let baseline = drain_to(0);
    Epoch::reset_peak();

    let barrier = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    let guard = Epoch::pin();
                    let addr = Box::into_raw(Box::new(0u64)) as usize;
                    // SAFETY: never shared; retired once; the closure only
                    // frees it.
                    unsafe {
                        guard.defer_retire(addr, move || drop(Box::from_raw(addr as *mut u64)))
                    };
                }
                let own = Epoch::pending();
                barrier.wait();
                let all = Epoch::pending();
                // Nobody exits (and seals) before all have looked.
                barrier.wait();
                (own, all)
            })
        })
        .collect();
    let seen: Vec<(usize, usize)> = workers.into_iter().map(|h| h.join().unwrap()).collect();

    for &(own, all) in &seen {
        assert!(own >= PER_THREAD, "own open items uncounted ({own})");
        assert!(
            all >= THREADS * PER_THREAD,
            "other threads' open items uncounted ({all})"
        );
    }
    let largest = seen.iter().map(|&(_, all)| all).max().unwrap();
    let peak = Epoch::peak_pending();
    assert!(
        peak >= largest,
        "peak {peak} below a pending count a thread saw ({largest})"
    );
    assert_eq!(
        drain_to(baseline),
        baseline,
        "pending did not return to its baseline"
    );
}
