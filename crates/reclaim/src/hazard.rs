//! Hazard-pointer reclamation backend (Michael, *Hazard Pointers: Safe
//! Memory Reclamation for Lock-Free Objects*, 2004).
//!
//! Where the epoch scheme protects *everything a pinned thread might
//! reach*, hazard pointers protect *exactly the addresses a thread has
//! published in its slots*. The trade flips both ways:
//!
//! * every [`Shield::protect`] pays a slot publication (a `SeqCst`
//!   store-and-fence) plus a validation re-read, so loads are slower than
//!   the epoch backend's plain `load`;
//! * a stalled thread can pin at most [`SLOTS_PER_RECORD`] allocations
//!   forever, so the process-wide unreclaimed garbage stays **bounded** no
//!   matter how long a reader sleeps mid-critical-section — the property
//!   the epoch scheme fundamentally lacks and the stalled-thread bench
//!   (`BENCH_reclaim.json`) measures.
//!
//! # Structure
//!
//! * A process-wide, push-only registry of [`HazardRecord`]s, one per
//!   participating thread, each holding [`SLOTS_PER_RECORD`] hazard slots.
//!   Records of exited threads are marked free and recycled (same design as
//!   the epoch registry — never physically unlinked, so the registry never
//!   needs to reclaim itself).
//! * A per-thread retire list of `(address, closure)` pairs. When it
//!   reaches [`SCAN_THRESHOLD`] entries the thread **scans**: snapshot
//!   every slot in the registry, then run each retired closure whose
//!   address no slot holds. Survivors stay on the list.
//! * Threads that exit with a non-empty list push it onto a global orphan
//!   list; the next scan by any thread adopts it.
//!
//! Slots are a per-thread ring: each `protect` takes the next slot, so a
//! protection is retracted after [`crate::SLOT_WINDOW`] subsequent
//! `protect` calls (or when the outermost guard drops, whichever is
//! sooner). See the [`crate::reclaimer`] module docs for the validation
//! contract callers must uphold on top of this.

use crate::deferred::Deferred;
use crate::reclaimer::{GarbageLedger, Reclaimer, Shield, SLOT_WINDOW};
use std::cell::{Cell, RefCell};
use std::mem;
use std::ptr;
use std::sync::atomic::{fence, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Hazard slots per participating thread. One more than the public
/// [`SLOT_WINDOW`] guarantee: the (N+1)-th `protect` recycles the oldest.
pub const SLOTS_PER_RECORD: usize = SLOT_WINDOW + 1;

/// Retire-list length that triggers a scan. Per-thread garbage is bounded
/// by `SCAN_THRESHOLD + total hazard slots` between scans.
pub const SCAN_THRESHOLD: usize = 64;

/// `HazardRecord::state` values (mirrors the epoch registry).
const FREE: usize = 0;
const IN_USE: usize = 1;

/// Settled once per scan; the retired side lives in the records.
static HAZARD_LEDGER: GarbageLedger = GarbageLedger::new();

/// One thread's slots in the global registry. Cache-line aligned so a
/// thread's slot publications do not false-share with its neighbours'.
#[repr(align(128))]
struct HazardRecord {
    slots: [AtomicUsize; SLOTS_PER_RECORD],
    /// `FREE` / `IN_USE` — recycled, never unlinked.
    state: AtomicUsize,
    next: AtomicPtr<HazardRecord>,
    /// Retirements made through this record, ever: written only by its
    /// owner, summed by [`pending`].
    retired: AtomicUsize,
}

impl HazardRecord {
    fn new() -> Self {
        HazardRecord {
            slots: std::array::from_fn(|_| AtomicUsize::new(0)),
            state: AtomicUsize::new(IN_USE),
            next: AtomicPtr::new(ptr::null_mut()),
            retired: AtomicUsize::new(0),
        }
    }
}

/// Registry head. Records are heap-allocated once and reachable forever.
static REGISTRY: AtomicPtr<HazardRecord> = AtomicPtr::new(ptr::null_mut());

/// Every record ever registered (free ones included).
fn records() -> impl Iterator<Item = &'static HazardRecord> {
    let mut rec = REGISTRY.load(Ordering::Acquire);
    std::iter::from_fn(move || {
        // SAFETY: registry records are never freed.
        let r = unsafe { rec.as_ref() }?;
        rec = r.next.load(Ordering::Acquire);
        Some(r)
    })
}

/// Retired-but-unexecuted closures across the process (ledger docs).
fn pending() -> usize {
    HAZARD_LEDGER.pending(records().map(|r| &r.retired))
}

/// Retire lists abandoned by exited threads, adopted by the next scan.
static ORPHANS: Mutex<Vec<Retired>> = Mutex::new(Vec::new());

struct Retired {
    /// Untagged allocation address — the scan key.
    addr: usize,
    deferred: Deferred,
}

/// Claims a free record from the registry or pushes a new one.
fn register() -> *const HazardRecord {
    let free = records().find(|r| {
        r.state.load(Ordering::Relaxed) == FREE
            && r.state
                .compare_exchange(FREE, IN_USE, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    });
    if let Some(r) = free {
        return r;
    }
    let rec = Box::into_raw(Box::new(HazardRecord::new()));
    let mut head = REGISTRY.load(Ordering::Relaxed);
    loop {
        // SAFETY: `rec` is ours until the CAS publishes it.
        unsafe { (*rec).next.store(head, Ordering::Relaxed) };
        match REGISTRY.compare_exchange_weak(head, rec, Ordering::Release, Ordering::Relaxed) {
            Ok(_) => return rec,
            Err(h) => head = h,
        }
    }
}

/// Publishes `addr` in `slot` with the store globally ordered before any
/// subsequent load (the protect-side half of the Dekker handshake with the
/// scan's leading `SeqCst` fence). Same idiom as the epoch collector's
/// `publish_slow`: on x86 the `xchg` is itself a full barrier.
#[inline]
fn publish(slot: &AtomicUsize, addr: usize) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        slot.swap(addr, Ordering::SeqCst);
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        slot.store(addr, Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }
}

/// Per-thread participant state (slot cursor + retire list).
struct HazardLocal {
    record: *const HazardRecord,
    /// Nested-guard depth; slots are retracted when it returns to zero.
    guard_count: Cell<usize>,
    /// Next slot index in the per-thread ring.
    cursor: Cell<usize>,
    /// Re-entrancy latch: a retire closure may itself retire.
    scanning: Cell<bool>,
    /// A registration made during TLS teardown: it orphans its list at
    /// drop instead of scanning it.
    transient: bool,
    retired: RefCell<Vec<Retired>>,
}

impl HazardLocal {
    fn new(transient: bool) -> Self {
        HazardLocal {
            record: register(),
            guard_count: Cell::new(0),
            cursor: Cell::new(0),
            scanning: Cell::new(false),
            transient,
            retired: RefCell::new(Vec::new()),
        }
    }

    fn record(&self) -> &HazardRecord {
        // SAFETY: registry records are never freed.
        unsafe { &*self.record }
    }

    /// Takes the next slot in the ring.
    fn next_slot(&self) -> &AtomicUsize {
        let i = self.cursor.get();
        self.cursor.set((i + 1) % SLOTS_PER_RECORD);
        &self.record().slots[i]
    }

    fn retire(&self, entry: Retired) {
        GarbageLedger::retire(&self.record().retired);
        let len = {
            let mut retired = self.retired.borrow_mut();
            retired.push(entry);
            retired.len()
        };
        if len >= SCAN_THRESHOLD {
            self.scan();
        }
    }

    /// Snapshot every hazard slot; run retired closures nobody protects.
    fn scan(&self) {
        if self.scanning.get() {
            return; // re-entered from a retire closure
        }
        self.scanning.set(true);
        synq_obs::probe!(ReclaimHazardScans);
        let mut batch = self.retired.take();
        if let Ok(mut orphans) = ORPHANS.try_lock() {
            batch.append(&mut orphans);
        }
        if batch.is_empty() {
            self.scanning.set(false);
            return;
        }
        // The retire lists are at their longest now: sample the peak.
        HAZARD_LEDGER.raise_peak(pending());
        // Orders every earlier slot publication before our slot reads: a
        // protect whose publish was not yet visible here will, by the same
        // fence pair, observe the unlink that preceded this scan's retire
        // and re-validate (see the reclaimer module docs).
        fence(Ordering::SeqCst);
        let mut hazards: Vec<usize> = Vec::with_capacity(2 * SLOTS_PER_RECORD);
        for r in records() {
            // Slots of free records are zeroed before release, so reading
            // them unconditionally is merely conservative.
            for slot in &r.slots {
                let v = slot.load(Ordering::Acquire);
                if v != 0 {
                    hazards.push(v);
                }
            }
        }
        hazards.sort_unstable();
        let before = batch.len();
        let mut kept = Vec::new();
        for r in batch {
            if hazards.binary_search(&r.addr).is_ok() {
                synq_obs::probe!(ReclaimHazardHeld);
                kept.push(r);
            } else {
                // May re-enter `retire` (drop chains); the latch above
                // keeps that from recursing into another scan.
                r.deferred.call();
            }
        }
        if kept.len() == before {
            synq_obs::probe!(ReclaimStalls);
        }
        HAZARD_LEDGER.reclaimed(before - kept.len());
        self.retired.borrow_mut().extend(kept);
        self.scanning.set(false);
    }
}

impl Drop for HazardLocal {
    fn drop(&mut self) {
        let rec = self.record();
        for slot in &rec.slots {
            slot.store(0, Ordering::Release);
        }
        // One last scan with our own protections retracted; whatever other
        // threads still protect is orphaned for them to adopt. A transient
        // record does not scan: a closure it ran could retire again (a
        // wait node whose waiter is still inside does), through another
        // transient record whose drop would scan it again, without end.
        if !self.transient {
            self.scanning.set(false);
            self.scan();
        }
        let rest = self.retired.take();
        if !rest.is_empty() {
            ORPHANS
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(rest);
        }
        rec.state.store(FREE, Ordering::Release);
    }
}

thread_local! {
    static LOCAL: HazardLocal = HazardLocal::new(false);
}

/// The hazard-pointer backend marker. See the module docs.
pub struct Hazard;

/// Witness of hazard-pointer participation; see [`Hazard`] and the
/// [`crate::Shield`] contract.
pub struct HazardGuard {
    /// Null for unprotected guards.
    local: *const HazardLocal,
    /// Transient registration used when the thread-local is gone (TLS
    /// teardown); dropped with the guard, its retire list orphaned.
    _own: Option<Box<HazardLocal>>,
}

impl HazardGuard {
    #[inline]
    fn local(&self) -> Option<&HazardLocal> {
        // SAFETY: non-null `local` points either at the live thread-local
        // or into `_own`, both of which outlive the guard.
        unsafe { self.local.as_ref() }
    }
}

impl Reclaimer for Hazard {
    type Guard = HazardGuard;
    const NAME: &'static str = "hazard";

    fn pin() -> HazardGuard {
        match LOCAL.try_with(|l| {
            l.guard_count.set(l.guard_count.get() + 1);
            l as *const HazardLocal
        }) {
            Ok(local) => HazardGuard { local, _own: None },
            Err(_) => {
                // TLS destructor context: transient registration.
                let own = Box::new(HazardLocal::new(true));
                own.guard_count.set(1);
                let local = &*own as *const HazardLocal;
                HazardGuard {
                    local,
                    _own: Some(own),
                }
            }
        }
    }

    unsafe fn unprotected() -> HazardGuard {
        HazardGuard {
            local: ptr::null(),
            _own: None,
        }
    }

    fn pending() -> usize {
        pending()
    }

    fn peak_pending() -> usize {
        HAZARD_LEDGER.peak(pending())
    }

    fn reset_peak() {
        HAZARD_LEDGER.reset_peak(pending())
    }

    fn collect() {
        let _ = LOCAL.try_with(|l| l.scan());
    }
}

impl Shield for HazardGuard {
    fn protect<T>(&self, src: &AtomicUsize, ord: Ordering) -> usize {
        let Some(local) = self.local() else {
            return src.load(ord);
        };
        debug_assert!(local.guard_count.get() > 0, "protect outside a pin");
        let mask = mem::align_of::<T>() - 1;
        let slot = local.next_slot();
        let mut cur = src.load(ord);
        loop {
            let addr = cur & !mask;
            publish(slot, addr);
            if addr == 0 {
                return cur;
            }
            let again = src.load(ord);
            if again == cur {
                return cur;
            }
            cur = again;
        }
    }

    unsafe fn defer_retire<F: FnOnce()>(&self, addr: usize, f: F) {
        match self.local() {
            None => f(),
            Some(local) => {
                local.retire(Retired {
                    addr,
                    deferred: Deferred::new(f),
                });
            }
        }
    }

    fn flush(&self) {
        if let Some(local) = self.local() {
            local.scan();
        }
    }
}

impl Drop for HazardGuard {
    fn drop(&mut self) {
        let Some(local) = self.local() else { return };
        let n = local.guard_count.get() - 1;
        local.guard_count.set(n);
        if n == 0 {
            // Outermost unpin: retract every protection and rewind the ring.
            for slot in &local.record().slots {
                if slot.load(Ordering::Relaxed) != 0 {
                    slot.store(0, Ordering::Release);
                }
            }
            local.cursor.set(0);
        }
    }
}

impl std::fmt::Debug for HazardGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("HazardGuard { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Arc;

    /// Boxes a u64, returning (address, closure that frees and counts).
    fn tracked_alloc(drops: &Arc<AtomicUsize>) -> (usize, impl FnOnce() + Send + 'static) {
        let addr = Box::into_raw(Box::new(0u64)) as usize;
        let drops = Arc::clone(drops);
        (addr, move || {
            // SAFETY: freed exactly once by the retire machinery.
            drop(unsafe { Box::from_raw(addr as *mut u64) });
            drops.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn protect_blocks_reclaim_until_guard_drops() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (addr, free) = tracked_alloc(&drops);
        let src = AtomicUsize::new(addr);

        let g = Hazard::pin();
        let seen = g.protect::<u64>(&src, Ordering::Acquire);
        assert_eq!(seen, addr);

        // Retire the node from a nested guard and force scans: the slot
        // must keep it alive.
        unsafe { g.defer_retire(addr, free) };
        g.flush();
        g.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "slot must pin the node");
        assert!(Hazard::pending() >= 1);

        drop(g);
        Hazard::collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "freed after unpin");
    }

    /// Serializes the tests that retire in bulk: a scan settles the ledger
    /// once, at its end, so one test's in-flight retire lists show in
    /// another's `pending` for the length of a scan.
    fn bulk_retire_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn garbage_stays_bounded_without_active_hazards() {
        let _serial = bulk_retire_lock();
        let drops = Arc::new(AtomicUsize::new(0));
        const N: usize = 10 * SCAN_THRESHOLD;
        let g = Hazard::pin();
        for _ in 0..N {
            let (addr, free) = tracked_alloc(&drops);
            unsafe { g.defer_retire(addr, free) };
        }
        drop(g);
        Hazard::collect();
        assert_eq!(drops.load(Ordering::SeqCst), N, "all freed eventually");
        // The per-thread list can never exceed the scan trigger while no
        // slot is held (the ledger is global, so the single retirements of
        // other tests may add a few).
        assert!(
            Hazard::pending() < 2 * SCAN_THRESHOLD,
            "pending {} not bounded",
            Hazard::pending()
        );
    }

    #[test]
    fn slot_ring_recycles_after_window() {
        // Protecting more than SLOTS_PER_RECORD addresses reuses slots; the
        // most recent protection must still hold.
        let g = Hazard::pin();
        let words: Vec<AtomicUsize> = (0..2 * SLOTS_PER_RECORD)
            .map(|i| AtomicUsize::new((i + 1) << 3))
            .collect();
        for w in &words {
            let v = g.protect::<u64>(w, Ordering::Acquire);
            assert_eq!(v, w.load(Ordering::Relaxed));
        }
        drop(g);
    }

    #[test]
    fn orphaned_retires_adopted_by_other_thread() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (addr, free) = tracked_alloc(&drops);
        let src = AtomicUsize::new(addr);

        // Main thread protects the node...
        let g = Hazard::pin();
        assert_eq!(g.protect::<u64>(&src, Ordering::Acquire), addr);

        // ...a worker retires it and exits; its final scan cannot free it,
        // so the entry lands on the orphan list.
        let d2 = Arc::clone(&drops);
        std::thread::spawn(move || {
            let g = Hazard::pin();
            unsafe { g.defer_retire(addr, free) };
            g.flush();
            assert_eq!(d2.load(Ordering::SeqCst), 0);
        })
        .join()
        .unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "still protected");

        // Once we unpin, the next scan that holds the orphan frees it. The
        // orphan list is process-global, so that scan need not be ours: a
        // test running beside this one may have adopted the entry while we
        // still protected it (it then frees it at its own next scan, or
        // hands it back when its thread exits), or may hold the list's
        // lock at the instant we look. So collect until it is gone; the
        // count below still fails on a second free or on none at all.
        drop(g);
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while drops.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < give_up {
            Hazard::collect();
            std::thread::yield_now();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1, "freed exactly once");
    }

    /// Retires `addr` under a fresh pin with a closure that frees it once
    /// `done` is set and otherwise retires itself again, as a wait node
    /// whose waiter is still inside does.
    fn retire_until_done(addr: usize, done: Arc<AtomicBool>, drops: Arc<AtomicUsize>) {
        let g = Hazard::pin();
        let reap = move || {
            if done.load(Ordering::SeqCst) {
                // SAFETY: freed exactly once, by the last run.
                drop(unsafe { Box::from_raw(addr as *mut u64) });
                drops.fetch_add(1, Ordering::SeqCst);
            } else {
                retire_until_done(addr, done, drops);
            }
        };
        // SAFETY: nobody protects `addr`; the closure frees it once.
        unsafe { g.defer_retire(addr, reap) };
    }

    #[test]
    fn a_closure_that_retires_itself_at_thread_exit_is_orphaned() {
        let drops = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let addr = Box::into_raw(Box::new(0u64)) as usize;
        // The worker's last scan runs the closure, which retires itself
        // through a transient record (the thread-local is gone). That
        // record orphans it: were it to scan, it would run the closure
        // again, which would make another, and so on down the stack.
        let (d, f) = (Arc::clone(&drops), Arc::clone(&done));
        std::thread::spawn(move || retire_until_done(addr, f, d))
            .join()
            .unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "not done yet");
        done.store(true, Ordering::SeqCst);
        // As in the test above, any thread's scan may hold the orphan.
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while drops.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < give_up {
            Hazard::collect();
            std::thread::yield_now();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1, "freed exactly once");
    }

    #[test]
    fn unprotected_guard_runs_retires_immediately_and_loads_plainly() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (addr, free) = tracked_alloc(&drops);
        let src = AtomicUsize::new(addr);
        let g = unsafe { Hazard::unprotected() };
        assert_eq!(g.protect::<u64>(&src, Ordering::Acquire), addr);
        unsafe { g.defer_retire(addr, free) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        g.flush(); // no-op, must not crash
    }

    #[test]
    fn nested_guards_retract_slots_only_at_outermost_drop() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (addr, free) = tracked_alloc(&drops);
        let src = AtomicUsize::new(addr);

        let outer = Hazard::pin();
        let seen = outer.protect::<u64>(&src, Ordering::Acquire);
        assert_eq!(seen, addr);
        {
            let inner = Hazard::pin();
            unsafe { inner.defer_retire(addr, free) };
            drop(inner);
        }
        // Inner drop must not have retracted the outer protection.
        outer.flush();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(outer);
        Hazard::collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_protect_and_retire_stress() {
        use std::sync::atomic::AtomicBool;
        let _serial = bulk_retire_lock();
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(AtomicUsize::new(Box::into_raw(Box::new(0u64)) as usize));
        let mut handles = Vec::new();
        // Writers swap in fresh nodes and retire the old ones.
        for _ in 0..2 {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let fresh = Box::into_raw(Box::new(0u64)) as usize;
                    let old = shared.swap(fresh, Ordering::AcqRel);
                    let g = Hazard::pin();
                    unsafe {
                        g.defer_retire(old, move || {
                            drop(Box::from_raw(old as *mut u64));
                        })
                    };
                }
            }));
        }
        // Readers protect and dereference.
        for _ in 0..2 {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let g = Hazard::pin();
                    let addr = g.protect::<u64>(&shared, Ordering::Acquire);
                    // SAFETY: `shared` is a structure field (never retired
                    // while the test runs), so protect's validation
                    // suffices for the deref.
                    let v = unsafe { *(addr as *const u64) };
                    assert_eq!(v, 0);
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        let last = shared.load(Ordering::Acquire);
        drop(unsafe { Box::from_raw(last as *mut u64) });
        Hazard::collect();
    }
}
