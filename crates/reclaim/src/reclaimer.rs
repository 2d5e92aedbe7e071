//! The backend-agnostic reclamation vocabulary: [`Reclaimer`] and
//! [`Shield`].
//!
//! Every lock-free structure in the workspace used to be hard-wired to this
//! crate's epoch collector. Brown's "Reclaiming memory for lock-free data
//! structures: there has to be a better way" (PAPERS.md) spells out why that
//! is a liability for long-running processes: one stalled thread holding a
//! pin blocks *every* epoch advance, so the retire lists of all other
//! threads grow without bound. Hazard pointers bound garbage per thread but
//! tax every pointer load with a store + fence. Neither dominates — so the
//! choice becomes a type parameter.
//!
//! The split mirrors the two roles of the epoch API:
//!
//! * [`Reclaimer`] is the *scheme* — a zero-sized marker type ([`Epoch`],
//!   [`crate::Hazard`]) with associated entry points (`pin`, `unprotected`)
//!   and a process-wide garbage ledger (`pending`, `peak_pending`) that the
//!   stalled-thread bench reads.
//! * [`Shield`] is the *critical-section witness* — what a concrete guard
//!   type implements so [`crate::Atomic::load`] can route pointer
//!   protection through it. For the epoch backend `protect` is a plain
//!   load (the pin already protects everything); for hazard pointers it is
//!   the publish-and-revalidate loop.
//!
//! # Ordering and validation contract
//!
//! `protect` guarantees: *at some instant during the call, `src` held the
//! returned word while the protection for that address was globally
//! visible*. For a `src` that is a **structure field** (a queue's
//! `head`/`tail`), that instant proves the pointee was not yet retired —
//! retirement always follows the CAS that unlinks it — so the result may be
//! dereferenced directly.
//!
//! For a `src` that is a **node field** (`node.next`), the instant proves
//! nothing by itself: the node chain beyond a retired-but-protected node is
//! frozen, so the re-read can succeed long after the successor was retired
//! and even freed. Callers must therefore re-validate a structure field
//! (re-load `head`/`tail` and compare, or succeed a CAS on it) *after* the
//! `protect` call and *before* dereferencing — exactly the Michael&Scott
//! consistency checks the synchronous-queue loops already perform. The
//! publish side of `protect` ends in a `SeqCst` fence and the hazard scan
//! begins with one, so the classic two-fence (Dekker) argument applies to
//! that later validating load as well.
//!
//! Values obtained *without* `protect` — `swap` results and
//! [`crate::CompareExchangeError::current`] — are never protected by a
//! hazard slot. Under the epoch backend the pin covers them; generic code
//! must treat them as compare-only (pointer equality, CAS operands) and
//! re-`load` before dereferencing.

use crate::deferred::Deferred;
use crate::guard::Guard;
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A memory-reclamation scheme, selectable per structure via a type
/// parameter (`SyncDualQueue<T, R>`); defaults to [`Epoch`] everywhere.
///
/// Implementations are zero-sized markers; all state lives in per-thread
/// records and process-wide registries owned by the backend.
pub trait Reclaimer: Sized + Send + Sync + 'static {
    /// The critical-section witness handed out by [`Reclaimer::pin`].
    type Guard: Shield;

    /// Short lowercase backend name (`"epoch"`, `"hazard"`) — used as the
    /// series label in `BENCH_reclaim.json`.
    const NAME: &'static str;

    /// Enters a critical section: loads made through the returned guard
    /// stay valid until the guard drops.
    fn pin() -> Self::Guard;

    /// Returns a no-op guard that performs no protection and runs retired
    /// closures immediately.
    ///
    /// # Safety
    ///
    /// Callable only with exclusive access to every structure touched
    /// through it (`Drop`, `&mut self`, single-threaded construction).
    unsafe fn unprotected() -> Self::Guard;

    /// Retired-but-not-yet-reclaimed closures currently outstanding across
    /// the process for this backend (the live garbage population). Exact,
    /// but it sums one counter per participating thread: a diagnostic, not
    /// something to call per operation.
    fn pending() -> usize;

    /// High-water mark of [`Reclaimer::pending`] since process start or the
    /// last [`Reclaimer::reset_peak`]. Sampled when a thread seals a bag
    /// (epoch) or scans its retire list (hazard) and when it is read, so it
    /// may trail the true maximum by up to one open bag or retire list per
    /// thread.
    fn peak_pending() -> usize;

    /// Resets the [`Reclaimer::peak_pending`] high-water mark to the
    /// current pending count (benchmark bookkeeping).
    fn reset_peak();

    /// Best-effort reclamation pass on the calling thread (seal + collect
    /// for epoch, a registry scan for hazard). Never blocks.
    fn collect();

    /// One small slice of the calling thread's reclamation work, for time
    /// it has no other use for (a waiter before it spins). True if it did
    /// some and more may be left; a caller loops while it has nothing
    /// better to do. The default does nothing (hazard); epoch takes a
    /// collection a pin made due and runs one expired closure per call.
    fn reclaim_step() -> bool {
        false
    }
}

/// A critical-section witness: the trait face of a backend's guard.
///
/// See the module docs for the `protect` validation contract that generic
/// structure code must uphold.
pub trait Shield {
    /// Loads the pointer word in `src` such that the allocation at that
    /// address cannot be reclaimed while this shield lives (or, for
    /// bounded-slot backends, until the protection is recycled — see
    /// [`SLOT_WINDOW`]).
    fn protect(&self, src: &AtomicUsize, ord: Ordering) -> usize;

    /// Defers `f` until no thread can hold a protected reference to the
    /// allocation at `addr`, and counts it in [`Reclaimer::pending`] until
    /// it has run. Epoch ignores `addr` (the grace period covers
    /// everything); hazard keys its scan on it.
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

    /// Hurries reclamation along (seal the bag / scan the registry).
    /// No-op on an unprotected shield.
    fn flush(&self);
}

/// The number of *subsequent* `protect` calls on the same thread for which
/// a previously protected pointer is guaranteed to stay protected under
/// bounded-slot backends (hazard). The epoch backend protects for the whole
/// guard lifetime regardless.
///
/// Structure loops re-load every pointer they touch on each iteration, so
/// their live window is 4–5 protections; this bound leaves headroom.
pub const SLOT_WINDOW: usize = 15;

// ------------------------------------------------------- garbage ledger --

/// One backend's retired/reclaimed ledger, kept off the retire path.
///
/// A retirement is counted on the retiring thread's own participant record
/// (epoch `Local` or hazard record): [`GarbageLedger::retire`] is an
/// owner-only load and store, no read-modify-write on a shared word. The
/// thread that runs a sealed bag or a hazard scan adds what it executed to
/// the one shared `reclaimed` word, once per bag or scan. So:
///
/// * `pending` = Σ records − `reclaimed`, summed on demand (O(threads),
///   diagnostics only) and exact: it counts an item still in an open bag.
/// * `peak` is raised at each seal or scan rather than at each retirement,
///   so between samples it can trail the true high-water mark by at most
///   one open bag (or retire list) per thread. Reading it folds in the
///   current `pending`.
pub(crate) struct GarbageLedger {
    /// Retire closures executed so far.
    reclaimed: AtomicUsize,
    /// Highest `pending` seen at a seal, scan or reset.
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

    /// Records `n` executed retire closures: one call per bag or scan.
    pub(crate) fn reclaimed(&self, n: usize) {
        if n > 0 {
            synq_obs::probe!(ReclaimFreed, n);
            self.reclaimed.fetch_add(n, Ordering::Release);
        }
    }

    /// Retired minus reclaimed, the retired side summed over every record
    /// the backend ever registered.
    pub(crate) fn pending<'a>(&self, records: impl Iterator<Item = &'a AtomicUsize>) -> usize {
        // Acquire pairs with `reclaimed`'s Release: every retirement that
        // the add accounts for was counted on its record before the bag or
        // list reached the executing thread, so the loads below see it and
        // the difference cannot go negative.
        let reclaimed = self.reclaimed.load(Ordering::Acquire);
        let retired: usize = records.map(|r| r.load(Ordering::Relaxed)).sum();
        retired.saturating_sub(reclaimed)
    }

    /// Raises the high-water mark to `pending` (a seal's or scan's sample).
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

// ------------------------------------------------------- epoch backend --

/// The epoch-based backend (this crate's original scheme): fastest loads
/// (`protect` is a plain atomic load), but a single stalled pinned thread
/// stops every epoch advance and lets garbage grow without bound.
pub struct Epoch;

impl Reclaimer for Epoch {
    type Guard = Guard;
    const NAME: &'static str = "epoch";

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
    fn protect(&self, src: &AtomicUsize, ord: Ordering) -> usize {
        // The pin already protects every reachable node; no per-pointer
        // publication is needed.
        src.load(ord)
    }

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

    #[inline]
    fn flush(&self) {
        Guard::flush(self)
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
    fn epoch_protect_matches_plain_load() {
        let word = AtomicUsize::new(0xbeef0);
        let g = Epoch::pin();
        assert_eq!(g.protect(&word, Ordering::Acquire), 0xbeef0);
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
