//! The epoch collector's documented limit (DESIGN §4.12): while one thread
//! holds a pin, no grace period ends, so the unreclaimed-garbage
//! population grows with the retire count; once the pin drops it returns
//! to baseline.
//!
//! The garbage ledger is process-wide, so this binary holds one `#[test]`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use synq_reclaim::{Epoch, Reclaimer, Shield};

/// Retires `count` heap allocations, one short guard per retire (the
/// steady-state structure pattern: guards drop promptly, garbage is the
/// collector's to clean).
fn churn(count: usize) {
    for _ in 0..count {
        let guard = Epoch::pin();
        let addr = Box::into_raw(Box::new(0u64)) as usize;
        // SAFETY: the allocation is unlinked (never shared) and retired
        // exactly once; the closure only frees it.
        unsafe { guard.defer_retire(addr, move || drop(Box::from_raw(addr as *mut u64))) };
        drop(guard);
    }
}

#[test]
fn garbage_grows_under_a_held_pin_and_returns_to_baseline_after() {
    let count = 1280;
    for _ in 0..4 {
        Epoch::collect();
    }
    Epoch::reset_peak();

    // The injected stall: a second thread pinned for the whole churn.
    let stop = Arc::new(AtomicBool::new(false));
    let pinned = Arc::new(AtomicBool::new(false));
    let stalled = {
        let stop = Arc::clone(&stop);
        let pinned = Arc::clone(&pinned);
        std::thread::spawn(move || {
            let guard = Epoch::pin();
            pinned.store(true, Ordering::Release);
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            drop(guard);
        })
    };
    while !pinned.load(Ordering::Acquire) {
        std::thread::yield_now();
    }

    // Every retire after the stall pinned is stuck behind the frozen
    // grace period, so the peak tracks the retire count.
    churn(count);
    let peak = Epoch::peak_pending();
    assert!(
        peak >= count / 2,
        "peak {peak} did not grow with {count} retires under a held pin \
         — the stall injection is broken"
    );

    stop.store(true, Ordering::Relaxed);
    stalled.join().unwrap();
    for _ in 0..8 {
        Epoch::collect();
    }
    // Once the pin drops nothing may be left past the passes above.
    assert_eq!(Epoch::pending(), 0, "garbage leaked after the stall");
}
