//! The stalled-thread garbage-bound regression test (DESIGN §4.12): with
//! one reader parked mid-critical-section, the epoch backend's
//! unreclaimed-garbage population grows with the retire count (the global
//! grace period is frozen), while the hazard backend's peak stays bounded
//! by a small multiple of its per-thread scan threshold no matter how much
//! is retired.
//!
//! Both backends share a process-wide garbage ledger, so the two scenarios
//! run sequentially inside a single `#[test]` — do not split them into
//! separate functions, or the default parallel test runner interleaves
//! their ledger traffic.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use synq_reclaim::{Epoch, Hazard, Reclaimer, Shield, SCAN_THRESHOLD};

/// Retires `count` heap allocations, one short guard per retire (the
/// steady-state structure pattern: guards drop promptly, garbage is the
/// backend's to clean).
fn churn<R: Reclaimer>(count: usize) {
    for _ in 0..count {
        let guard = R::pin();
        let addr = Box::into_raw(Box::new(0u64)) as usize;
        // SAFETY: the allocation is unlinked (never shared) and retired
        // exactly once; the closure only frees it.
        unsafe { guard.defer_retire(addr, move || drop(Box::from_raw(addr as *mut u64))) };
        drop(guard);
    }
}

/// Churns `count` retires while a second thread is parked holding a pinned
/// guard with one published hazard — the injected stall. Returns the
/// ledger's peak pending population observed for the sweep.
fn peak_garbage_under_stall<R: Reclaimer>(count: usize) -> usize {
    for _ in 0..4 {
        R::collect();
    }
    R::reset_peak();

    let stop = Arc::new(AtomicBool::new(false));
    let pinned = Arc::new(AtomicBool::new(false));
    let stalled = {
        let stop = Arc::clone(&stop);
        let pinned = Arc::clone(&pinned);
        std::thread::spawn(move || {
            let target = Box::into_raw(Box::new(0u64)) as usize;
            let src = AtomicUsize::new(target);
            let guard = R::pin();
            let _ = guard.protect(&src, Ordering::Acquire);
            pinned.store(true, Ordering::Release);
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            drop(guard);
            // SAFETY: never shared beyond the local hazard slot.
            drop(unsafe { Box::from_raw(target as *mut u64) });
        })
    };
    while !pinned.load(Ordering::Acquire) {
        std::thread::yield_now();
    }

    churn::<R>(count);
    let peak = R::peak_pending();

    stop.store(true, Ordering::Relaxed);
    stalled.join().unwrap();
    for _ in 0..8 {
        R::collect();
    }
    peak
}

#[test]
fn hazard_garbage_bounded_while_epoch_grows_unbounded() {
    let count = 20 * SCAN_THRESHOLD;

    // Epoch: every retire after the stall pinned is stuck behind the
    // frozen grace period, so the peak tracks the retire count.
    let epoch_peak = peak_garbage_under_stall::<Epoch>(count);
    assert!(
        epoch_peak >= count / 2,
        "epoch peak {epoch_peak} did not grow with {count} retires under a stalled pin \
         — the stall injection is broken"
    );

    // Hazard: scans run at SCAN_THRESHOLD regardless of the stalled
    // reader, which protects exactly one (unrelated) allocation. The peak
    // must stay bounded by a small multiple of the threshold, independent
    // of the retire count.
    let hazard_peak = peak_garbage_under_stall::<Hazard>(count);
    assert!(
        hazard_peak <= 3 * SCAN_THRESHOLD,
        "hazard peak {hazard_peak} exceeded 3x SCAN_THRESHOLD ({}) over {count} retires \
         — stalled-reader garbage is supposed to be bounded",
        3 * SCAN_THRESHOLD
    );
    assert!(
        epoch_peak > hazard_peak,
        "epoch peak {epoch_peak} <= hazard peak {hazard_peak}: the backends are \
         indistinguishable under a stall, which contradicts the design claim"
    );

    // Once the stall releases, both backends must drain to (near) zero —
    // nothing may leak past the collect passes above.
    assert_eq!(Epoch::pending(), 0, "epoch garbage leaked after the stall");
    assert_eq!(
        Hazard::pending(),
        0,
        "hazard garbage leaked after the stall"
    );
}
