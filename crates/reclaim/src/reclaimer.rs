//! The reclamation vocabulary the structures and the benchmark call:
//! [`Reclaimer`], implemented by [`Epoch`], and [`Shield`], implemented by
//! [`Guard`]. Each trait has one implementation; they stay traits because
//! the benchmark imports them by these names (DESIGN §4.12).

use crate::deferred::Deferred;
use crate::guard::Guard;
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The epoch collector's entry points and its process-wide garbage ledger.
pub trait Reclaimer {
    /// Enters a critical section: loads made through the returned guard
    /// stay valid until the guard drops.
    fn pin() -> Guard;

    /// Returns a no-op guard that performs no protection and runs retired
    /// closures immediately.
    ///
    /// # Safety
    ///
    /// Callable only with exclusive access to every structure touched
    /// through it (`Drop`, `&mut self`, single-threaded construction).
    unsafe fn unprotected() -> Guard;

    /// Retired-but-not-yet-reclaimed closures currently outstanding across
    /// the process (the live garbage population). Exact, but it sums one
    /// counter per participating thread: a diagnostic, not something to
    /// call per operation.
    fn pending() -> usize;

    /// High-water mark of [`Reclaimer::pending`] since process start or the
    /// last [`Reclaimer::reset_peak`]. Sampled when a thread seals a bag
    /// and when it is read, so it may trail the true maximum by up to one
    /// open bag per thread.
    fn peak_pending() -> usize;

    /// Resets the [`Reclaimer::peak_pending`] high-water mark to the
    /// current pending count (benchmark bookkeeping).
    fn reset_peak();

    /// Best-effort reclamation pass on the calling thread: seals its bag
    /// and collects. Never blocks.
    fn collect();

    /// One small slice of the calling thread's reclamation work, for time
    /// it has no other use for (a waiter before it spins). True if it did
    /// some and more may be left; a caller loops while it has nothing
    /// better to do. Takes a collection a pin made due and runs one
    /// expired closure per call.
    fn reclaim_step() -> bool;
}

/// What a guard does with an unlinked allocation.
pub trait Shield {
    /// Defers `f` until no pinned thread can hold a reference to the
    /// allocation at `addr`, and counts it in [`Reclaimer::pending`] until
    /// it has run. The grace period covers every allocation at once, so
    /// `addr` only names the one `f` reclaims.
    ///
    /// # Safety
    ///
    /// `f` must be safe to run on any thread at any later time — in
    /// particular it must not capture references that could dangle by
    /// then (raw pointers whose targets outlive the deferral are the
    /// intended cargo) — and `addr` must be the address of the unlinked
    /// allocation `f` reclaims (it must not be retired twice). On an
    /// unprotected shield `f` runs immediately.
    unsafe fn defer_retire<F: FnOnce()>(&self, addr: usize, f: F);
}

// ------------------------------------------------------- garbage ledger --

/// The collector's retired/reclaimed ledger, kept off the retire path.
///
/// A retirement is counted on the retiring thread's own participant record
/// (its `Local`): [`GarbageLedger::retire`] is an owner-only load and
/// store, no read-modify-write on a shared word. The
/// thread that runs a sealed bag adds what it executed to the one shared
/// `reclaimed` word, once per bag. So:
///
/// * `pending` = Σ records − `reclaimed`, summed on demand (O(threads),
///   diagnostics only) and exact: it counts an item still in an open bag.
/// * `peak` is raised at each seal rather than at each retirement,
///   so between samples it can trail the true high-water mark by at most
///   one open bag per thread. Reading it folds in the current `pending`.
pub(crate) struct GarbageLedger {
    /// Retire closures executed so far.
    reclaimed: AtomicUsize,
    /// Highest `pending` seen at a seal or reset.
    peak: AtomicUsize,
}

impl GarbageLedger {
    pub(crate) const fn new() -> Self {
        GarbageLedger {
            reclaimed: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Counts one retirement on `record`, the calling thread's own
    /// counter. Only its owner writes it, so a load and a store do.
    #[inline]
    pub(crate) fn retire(record: &AtomicUsize) {
        synq_obs::probe!(ReclaimRetired);
        record.store(record.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Records `n` executed retire closures: one call per bag.
    pub(crate) fn reclaimed(&self, n: usize) {
        if n > 0 {
            synq_obs::probe!(ReclaimFreed, n);
            self.reclaimed.fetch_add(n, Ordering::Release);
        }
    }

    /// Retired minus reclaimed, the retired side summed over every record
    /// the collector ever registered.
    pub(crate) fn pending<'a>(&self, records: impl Iterator<Item = &'a AtomicUsize>) -> usize {
        // Acquire pairs with `reclaimed`'s Release: every retirement that
        // the add accounts for was counted on its record before the bag or
        // list reached the executing thread, so the loads below see it and
        // the difference cannot go negative.
        let reclaimed = self.reclaimed.load(Ordering::Acquire);
        let retired: usize = records.map(|r| r.load(Ordering::Relaxed)).sum();
        retired.saturating_sub(reclaimed)
    }

    /// Raises the high-water mark to `pending` (a seal's sample).
    pub(crate) fn raise_peak(&self, pending: usize) {
        if pending > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(pending, Ordering::Relaxed);
        }
    }

    /// The high-water mark, `pending` (the current population) included.
    pub(crate) fn peak(&self, pending: usize) -> usize {
        self.peak.load(Ordering::Relaxed).max(pending)
    }

    /// Snaps the high-water mark to `pending`.
    pub(crate) fn reset_peak(&self, pending: usize) {
        self.peak.store(pending, Ordering::Relaxed);
    }
}

// ------------------------------------------------------------- epoch --

/// The epoch collector: a pin covers every node reachable at pin time,
/// so a load is a plain atomic load. A pinned thread that stalls stops
/// every epoch advance, and garbage grows until it unpins (DESIGN §4.12).
pub struct Epoch;

impl Reclaimer for Epoch {
    #[inline]
    fn pin() -> Guard {
        crate::default::pin()
    }

    #[inline]
    unsafe fn unprotected() -> Guard {
        Guard { local: ptr::null() }
    }

    fn pending() -> usize {
        crate::default::global().pending()
    }

    fn peak_pending() -> usize {
        crate::default::global().peak_pending()
    }

    fn reset_peak() {
        crate::default::global().reset_peak()
    }

    fn collect() {
        crate::default::pin().flush();
    }

    #[inline]
    fn reclaim_step() -> bool {
        crate::default::reclaim_step()
    }
}

impl Shield for Guard {
    #[inline]
    unsafe fn defer_retire<F: FnOnce()>(&self, _addr: usize, f: F) {
        // SAFETY: a non-null local outlives its guards.
        match unsafe { self.local.as_ref() } {
            Some(local) => local.retire(Deferred::new(f)),
            None => {
                // Unprotected: retired and freed on the spot.
                synq_obs::probe!(ReclaimRetired);
                synq_obs::probe!(ReclaimFreed);
                f();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_pending_and_peak() {
        let ledger = GarbageLedger::new();
        // Two participant records, as two threads would own them.
        let records = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let pending = || ledger.pending(records.iter());
        assert_eq!(pending(), 0);
        GarbageLedger::retire(&records[0]);
        GarbageLedger::retire(&records[0]);
        GarbageLedger::retire(&records[1]);
        assert_eq!(pending(), 3, "retirements count before any seal");
        assert_eq!(ledger.peak(0), 0, "nothing sampled yet");
        assert_eq!(ledger.peak(pending()), 3, "a read folds in pending");

        // A seal samples the peak; a bag of two runs on some thread.
        ledger.raise_peak(pending());
        ledger.reclaimed(2);
        assert_eq!(pending(), 1);
        assert_eq!(ledger.peak(pending()), 3, "peak survives reclamation");
        ledger.raise_peak(pending());
        assert_eq!(ledger.peak(0), 3, "a lower sample does not lower it");

        ledger.reset_peak(pending());
        assert_eq!(ledger.peak(0), 1, "reset snaps peak to current pending");
        ledger.reclaimed(1);
        assert_eq!(pending(), 0);
        ledger.reclaimed(0);
        assert_eq!(pending(), 0, "an empty run settles nothing");
    }

    #[test]
    fn epoch_defer_retire_flows_through_ledger() {
        let before = Epoch::pending();
        {
            let g = Epoch::pin();
            // SAFETY: the closure owns nothing and can run any time.
            unsafe { g.defer_retire(0x1000, || {}) };
            assert!(Epoch::pending() > before, "retire counted while pending");
            g.flush();
        }
        for _ in 0..64 {
            Epoch::collect();
            if Epoch::pending() <= before {
                break;
            }
        }
        assert!(
            Epoch::pending() <= before,
            "closure ran and was decremented"
        );
        assert!(Epoch::peak_pending() > before);
    }

    #[test]
    fn unprotected_shield_runs_retire_immediately() {
        use std::sync::atomic::AtomicBool;
        let ran = AtomicBool::new(false);
        // SAFETY: nothing shared is touched.
        let g = unsafe { Epoch::unprotected() };
        unsafe { g.defer_retire(0, || ran.store(true, Ordering::SeqCst)) };
        assert!(ran.load(Ordering::SeqCst));
    }
}
