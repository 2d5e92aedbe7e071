//! The collector's internals: global epoch, participant registry, garbage
//! stack, and per-thread participant records.
//!
//! # Design
//!
//! * **Global epoch** — a monotonically increasing (wrapping) counter.
//! * **Registry** — a push-only lock-free singly linked list of [`Local`]
//!   records. Records are never physically unlinked; a record whose thread
//!   has exited is marked `FREE` and recycled by the next thread that
//!   registers, so the registry's length is bounded by the maximum number of
//!   *concurrent* participants ever observed (documented trade-off vs.
//!   crossbeam's deferred unlinking — it avoids the bootstrapping problem of
//!   reclaiming the reclaimer's own nodes).
//! * **Garbage stack** — a Treiber-style stack of [`SealedBag`]s. Collection
//!   detaches the whole stack with one `swap`, moves the expired bags onto
//!   the collecting thread's private chain, and pushes the rest back;
//!   concurrent collectors therefore operate on disjoint chains and never
//!   contend beyond the two CAS words.
//! * **When** — every [`PINS_BETWEEN_COLLECT`]th pin makes a collection
//!   *due*. A waiter takes it in its idle time ([`Local::reclaim_step`]):
//!   one call detaches the expired bags, and each call runs one closure of
//!   the private chain, so the wait notices its match within one closure.
//!   The waits pace it to allocation: a blocking wait runs one step
//!   before it spins and the rest only when it is about to park, and a
//!   pending poll runs one, so a thread that finds its matches spinning
//!   frees about one closure per node it publishes instead of a bag in a
//!   burst. At the next mark the pin runs what the waits left of the
//!   chain, and takes the due collection itself if no wait did; `flush`
//!   and thread exit run the chain dry too.
//!   Running an expired bag needs no pin: expiry is two epoch advances
//!   past the seal, after which no thread can reach its objects. Bags are
//!   inline arrays and the stack's node skeletons are pooled
//!   ([`NODE_POOL_CAP`], filled when the collector is created), so a steady
//!   defer/collect load does not allocate (`tests/no_alloc.rs` counts).
//! * **Garbage ledger** — each record counts its own retirements (an
//!   owner-only store); whoever runs a sealed bag settles it on the
//!   collector's [`GarbageLedger`] once per bag. See that type.
//! * **Pinning** — the outermost pin publishes `(global << 2) | PINNED` in
//!   the thread's epoch slot, with a `SeqCst` fence that globally orders the
//!   publication against `try_advance`'s scan (that ordering is what makes
//!   the two-advance grace period sound). Unpinning is *lazy*: the slot
//!   keeps the epoch with a [`LAZY`] bit ORed in, so a re-pin that finds the
//!   global epoch unchanged can clear the bit with one relaxed CAS and skip
//!   the fence — the word was continuously published since the last fenced
//!   pin, so every scan in between already treated the thread as pinned.
//!   `try_advance` neutralizes stale lazy slots (CAS to 0); the CAS
//!   arbitrates against a concurrent fast-path re-pin, and whichever side
//!   loses falls back to its slow path.

use crate::bag::{Bag, SealedBag};
use crate::deferred::Deferred;
use crate::guard::Guard;
use crate::reclaimer::GarbageLedger;
use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{fence, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use synq_primitives::CachePadded;

/// `Local::state` values.
const FREE: usize = 0;
const IN_USE: usize = 1;

/// A collection falls due every `PINS_BETWEEN_COLLECT` pins.
const PINS_BETWEEN_COLLECT: usize = 128;

/// `Local::epoch` is `(global_epoch << EPOCH_SHIFT) | flags`, or `0` when
/// nothing is published.
const PINNED: usize = 1;
/// Set by `unpin`: the epoch is still published but no guard holds it.
const LAZY: usize = 2;
const EPOCH_SHIFT: u32 = 2;

/// Maximum number of dead [`GarbageNode`] skeletons kept for reuse. The
/// pool starts full: a skeleton holds a whole bag (2 KiB) and lives as long
/// as the collector, so allocating it the first time sealing outruns the
/// pool would leave it wherever the heap's top happened to be then, above
/// memory the application frees later, which malloc then cannot give back.
const NODE_POOL_CAP: usize = 32;

struct GarbageNode {
    sealed: SealedBag,
    next: *mut GarbageNode,
}

/// Shared collector state. One per [`crate::Collector`].
pub(crate) struct Global {
    /// The global epoch (raw counter; wraps). Padded: read on every pin and
    /// written by `try_advance` — it must not share a line with the
    /// registry or garbage heads below.
    epoch: CachePadded<AtomicUsize>,
    /// Head of the participant registry (push-only list of `Local`s).
    registry: CachePadded<AtomicPtr<Local>>,
    /// Head of the garbage stack.
    garbage: CachePadded<AtomicPtr<GarbageNode>>,
    /// Dead `GarbageNode` skeletons (their bags run) awaiting reuse
    /// by `push_sealed`. A `Mutex` rather than a Treiber stack because
    /// `push_sealed` may run unpinned, where a lock-free pop would be
    /// ABA-unsafe.
    node_pool: CachePadded<Mutex<Vec<*mut GarbageNode>>>,
    /// Settled once per executed bag; the retired side lives in the
    /// records.
    ledger: GarbageLedger,
}

// Layout: each of the four hot words above owns its cache line(s).
const _: () = assert!(std::mem::align_of::<Global>() >= 128);
const _: () = assert!(std::mem::size_of::<Global>() >= 4 * 128);

// SAFETY: all shared state is atomics (or mutex-guarded); `Local` cells are
// only touched by their owning thread while IN_USE. The pooled raw pointers
// are plain uninitialized allocations owned by the pool.
unsafe impl Send for Global {}
unsafe impl Sync for Global {}

impl Global {
    pub(crate) fn new() -> Self {
        Global {
            epoch: CachePadded::new(AtomicUsize::new(0)),
            registry: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            garbage: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            node_pool: CachePadded::new(Mutex::new(
                (0..NODE_POOL_CAP)
                    .map(|_| Box::into_raw(Box::new(MaybeUninit::<GarbageNode>::uninit())).cast())
                    .collect(),
            )),
            ledger: GarbageLedger::new(),
        }
    }

    /// Every record in the registry, FREE ones included.
    fn locals(&self) -> impl Iterator<Item = &Local> {
        let mut p = self.registry.load(Ordering::Acquire);
        std::iter::from_fn(move || {
            // SAFETY: registry nodes are never freed while the Global lives.
            let local = unsafe { p.as_ref() }?;
            p = local.next.load(Ordering::Acquire);
            Some(local)
        })
    }

    /// Retired-but-unexecuted `defer_retire` closures (ledger docs). FREE
    /// records count too: a retire count outlives the thread that made it.
    pub(crate) fn pending(&self) -> usize {
        self.ledger.pending(self.locals().map(|l| &l.retired))
    }

    pub(crate) fn peak_pending(&self) -> usize {
        self.ledger.peak(self.pending())
    }

    pub(crate) fn reset_peak(&self) {
        self.ledger.reset_peak(self.pending());
    }

    /// Registers the calling thread, recycling a FREE record if available.
    pub(crate) fn register(self: &Arc<Global>) -> *const Local {
        // Try to recycle a retired record first.
        for local in self.locals() {
            if local.state.load(Ordering::Relaxed) == FREE
                && local
                    .state
                    .compare_exchange(FREE, IN_USE, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                // SAFETY: the CAS gave us exclusive ownership of the cells.
                unsafe {
                    debug_assert!((*local.bag.get()).is_empty());
                    *local.global.get() = Some(Arc::clone(self));
                }
                debug_assert_eq!(local.epoch.load(Ordering::Relaxed), 0);
                debug_assert!(local.expired.get().is_null());
                local.guard_count.set(0);
                local.handle_count.set(1);
                local.pin_count.set(0);
                local.collect_due.set(false);
                return local;
            }
        }

        // No free record: allocate and push a new one.
        let local = Box::into_raw(Box::new(Local {
            epoch: AtomicUsize::new(0),
            state: AtomicUsize::new(IN_USE),
            next: AtomicPtr::new(ptr::null_mut()),
            retired: AtomicUsize::new(0),
            bag: UnsafeCell::new(Bag::new()),
            guard_count: Cell::new(0),
            handle_count: Cell::new(1),
            pin_count: Cell::new(0),
            collect_due: Cell::new(false),
            expired: Cell::new(ptr::null_mut()),
            global: UnsafeCell::new(Some(Arc::clone(self))),
        }));
        let mut head = self.registry.load(Ordering::Relaxed);
        loop {
            // SAFETY: `local` is ours until the push succeeds.
            unsafe { (*local).next.store(head, Ordering::Relaxed) };
            match self
                .registry
                .compare_exchange(head, local, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return local,
                Err(h) => head = h,
            }
        }
    }

    /// Current raw global epoch.
    pub(crate) fn epoch(&self) -> usize {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Attempts to advance the global epoch; returns the (possibly new)
    /// epoch. Fails harmlessly if some participant is pinned at an older
    /// epoch.
    pub(crate) fn try_advance(&self) -> usize {
        let global_epoch = self.epoch.load(Ordering::Relaxed);
        fence(Ordering::SeqCst);

        let current = (global_epoch << EPOCH_SHIFT) | PINNED;
        for local in self.locals() {
            if local.state.load(Ordering::Acquire) == IN_USE {
                let le = local.epoch.load(Ordering::Relaxed);
                // A slot published at the current epoch never blocks us,
                // lazy or not.
                if le & PINNED != 0 && le | LAZY != current | LAZY {
                    if le & LAZY == 0 {
                        // Genuinely pinned at a different epoch.
                        return global_epoch;
                    }
                    // Published but not held (lazy unpin at a stale epoch):
                    // neutralize the slot so it cannot block the advance.
                    // If the owner's fast-path re-pin races us, exactly one
                    // of the two CASes on the word succeeds.
                    if local
                        .epoch
                        .compare_exchange(le, 0, Ordering::AcqRel, Ordering::Relaxed)
                        .is_err()
                    {
                        // The owner won and is pinned at the stale epoch.
                        return global_epoch;
                    }
                }
            }
        }
        fence(Ordering::Acquire);

        if self
            .epoch
            .compare_exchange(
                global_epoch,
                global_epoch.wrapping_add(1),
                Ordering::Release,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            synq_obs::probe!(EpochAdvances);
        }
        self.epoch.load(Ordering::Relaxed)
    }

    /// Pushes a sealed bag onto the garbage stack, reusing a pooled node
    /// skeleton when one is available.
    pub(crate) fn push_sealed(&self, sealed: SealedBag) {
        let pooled = self.node_pool.lock().unwrap().pop();
        let node = match pooled {
            Some(p) => {
                // SAFETY: pooled skeletons are logically uninitialized
                // allocations we own exclusively.
                unsafe {
                    ptr::write(
                        p,
                        GarbageNode {
                            sealed,
                            next: ptr::null_mut(),
                        },
                    )
                };
                p
            }
            None => Box::into_raw(Box::new(GarbageNode {
                sealed,
                next: ptr::null_mut(),
            })),
        };
        self.push_node(node);
    }

    /// Treiber-push of an initialized node onto the garbage stack.
    fn push_node(&self, node: *mut GarbageNode) {
        let mut head = self.garbage.load(Ordering::Relaxed);
        loop {
            // SAFETY: node is ours until the push succeeds.
            unsafe { (*node).next = head };
            match self
                .garbage
                .compare_exchange(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Returns a dead node skeleton to the pool, or frees it if full.
    ///
    /// # Safety
    ///
    /// `node`'s bag must have been run (it holds nothing to drop) and
    /// `node` must be exclusively owned.
    unsafe fn retire_node_skeleton(&self, node: *mut GarbageNode) {
        let mut pool = self.node_pool.lock().unwrap();
        if pool.len() < NODE_POOL_CAP {
            pool.push(node);
        } else {
            drop(pool);
            // Free the raw allocation; the emptied bag needs no drop.
            drop(unsafe { Box::from_raw(node as *mut MaybeUninit<GarbageNode>) });
        }
    }

    /// Tries to advance the epoch, then moves every expired bag off the
    /// garbage stack onto the private chain at `chain`; unexpired bags go
    /// back on the stack.
    fn detach_expired(&self, chain: &Cell<*mut GarbageNode>) {
        synq_obs::probe!(EpochCollects);
        let global_epoch = self.try_advance();

        // Detach the whole garbage stack; we now own the chain.
        let mut p = self.garbage.swap(ptr::null_mut(), Ordering::AcqRel);
        while !p.is_null() {
            // SAFETY: detached chain is exclusively ours.
            let next = unsafe { (*p).next };
            if unsafe { (*p).sealed.is_expired(global_epoch) } {
                // SAFETY: as above; the private chain is the caller's.
                unsafe { (*p).next = chain.get() };
                chain.set(p);
            } else {
                // Unexpired: re-push the node as-is, no realloc.
                self.push_node(p);
            }
            p = next;
        }
    }
}

impl Drop for Global {
    fn drop(&mut self) {
        // No participant holds an Arc<Global> anymore, so every Local is
        // FREE and no thread can be pinned: run all remaining garbage and
        // free the registry.
        let mut g = *self.garbage.get_mut();
        while !g.is_null() {
            // SAFETY: exclusive access in Drop.
            let node = unsafe { Box::from_raw(g) };
            g = node.next;
            drop(node);
        }
        for p in self.node_pool.get_mut().unwrap().drain(..) {
            // SAFETY: pooled skeletons are logically uninitialized.
            drop(unsafe { Box::from_raw(p as *mut MaybeUninit<GarbageNode>) });
        }
        let mut p = *self.registry.get_mut();
        while !p.is_null() {
            // SAFETY: exclusive access in Drop; Locals hold no Arc (FREE).
            let local = unsafe { Box::from_raw(p) };
            debug_assert_eq!(local.state.load(Ordering::Relaxed), FREE);
            debug_assert!(local.expired.get().is_null(), "finalize drains");
            p = local.next.load(Ordering::Relaxed);
            drop(local);
        }
    }
}

/// Per-thread participant record. Cells are owner-thread-only while IN_USE.
///
/// Line-aligned so records of different threads never share a cache line:
/// `epoch` is scanned by every `try_advance` while the owning thread hammers
/// `guard_count`/`pin_count` on each pin.
#[repr(align(128))]
pub(crate) struct Local {
    /// `(global_epoch << 2) | PINNED [| LAZY]` while published; `0` when
    /// not. See the module docs for the lazy-unpin protocol.
    epoch: AtomicUsize,
    /// FREE / IN_USE.
    state: AtomicUsize,
    /// Registry link.
    next: AtomicPtr<Local>,
    /// `defer_retire` calls made through this record, ever: written only by
    /// its owner, summed by [`Global::pending`].
    retired: AtomicUsize,
    /// This thread's open bag of deferred closures.
    bag: UnsafeCell<Bag>,
    /// Number of live `Guard`s (re-entrant pinning).
    guard_count: Cell<usize>,
    /// Number of live `LocalHandle`s for this record.
    handle_count: Cell<usize>,
    /// Pins since registration; drives periodic collection.
    pin_count: Cell<usize>,
    /// A pin mark made a collection due, and nobody has taken it yet.
    collect_due: Cell<bool>,
    /// Expired bags this thread took off the garbage stack and has not
    /// finished running, linked through `next`: its private chain.
    expired: Cell<*mut GarbageNode>,
    /// Keeps the collector alive while registered.
    global: UnsafeCell<Option<Arc<Global>>>,
}

const _: () = assert!(std::mem::align_of::<Local>() >= 128);

impl Local {
    fn global(&self) -> &Arc<Global> {
        // SAFETY: `global` is Some for the whole IN_USE lifetime and only
        // the owner thread (us) takes it in `finalize`.
        unsafe { (*self.global.get()).as_ref().expect("local not registered") }
    }

    /// Pins the thread; returns a guard that unpins on drop.
    pub(crate) fn pin(&self) -> Guard {
        let guard = Guard {
            local: self as *const Local,
        };
        let count = self.guard_count.get();
        self.guard_count.set(count + 1);
        if count == 0 {
            self.publish();
        }
        guard
    }

    /// Publishes the epoch for an outermost guard.
    fn publish(&self) {
        let global = self.global();
        let ge = global.epoch.load(Ordering::Relaxed);
        let pinned = (ge << EPOCH_SHIFT) | PINNED;
        // Fast path: our slot is still published at the current global
        // epoch from a lazily-unpinned previous guard. Clearing the LAZY
        // bit with a relaxed CAS suffices: the word has been continuously
        // published since our last *fenced* publish, so every
        // `try_advance` scan since then already saw us pinned at `ge`, and
        // the CAS arbitrates the race with a concurrent neutralization
        // (exactly one of the two CASes on this word succeeds).
        let lazy = pinned | LAZY;
        let fast = self.epoch.load(Ordering::Relaxed) == lazy
            && self
                .epoch
                .compare_exchange(lazy, pinned, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok();
        synq_obs::probe!(EpochPins);
        if fast {
            synq_obs::probe!(EpochFastRepins);
        } else {
            Self::publish_slow(&self.epoch, pinned);
        }

        let pins = self.pin_count.get().wrapping_add(1);
        self.pin_count.set(pins);
        // A mark makes a collection due, for this thread's next wait to
        // take ([`Self::reclaim_step`]). If no wait took the last mark's,
        // it is taken here and this mark's stays due: a thread that never
        // waits still collects once per mark, one mark late. Whatever its
        // waits left of the private chain is run here too, so the chain
        // never holds more than one collection.
        if pins.is_multiple_of(PINS_BETWEEN_COLLECT) {
            if self.collect_due.replace(true) {
                global.detach_expired(&self.expired);
            }
            while self.run_one() {}
        }
    }

    /// Full fenced publication, globally ordered against `try_advance`.
    #[cold]
    fn publish_slow(epoch: &AtomicUsize, pinned: usize) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            // A SeqCst swap compiles to a single `xchg`, which is both the
            // store and the full barrier — one locked instruction instead
            // of a store followed by `mfence`.
            epoch.swap(pinned, Ordering::SeqCst);
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        {
            epoch.store(pinned, Ordering::Relaxed);
            fence(Ordering::SeqCst);
        }
    }

    /// True if a guard is currently alive on this thread.
    pub(crate) fn is_pinned(&self) -> bool {
        self.guard_count.get() > 0
    }

    /// Called by `Guard::drop`.
    pub(crate) fn unpin(&self) {
        let count = self.guard_count.get();
        debug_assert!(count > 0, "unpin without pin");
        self.guard_count.set(count - 1);
        if count == 1 {
            // Lazy unpin: keep the epoch published with the LAZY bit so an
            // immediate re-pin at the same global epoch can skip the full
            // fence. While genuinely pinned only we write this word, so
            // the plain read-modify-write below cannot race.
            let e = self.epoch.load(Ordering::Relaxed);
            self.epoch.store(e | LAZY, Ordering::Release);
            if self.handle_count.get() == 0 {
                self.finalize();
            }
        }
    }

    /// Adds a deferred closure to this thread's bag, sealing if full.
    pub(crate) fn defer(&self, deferred: Deferred) {
        self.push(deferred, false);
    }

    /// As `defer`, counted on this record's ledger counter.
    pub(crate) fn retire(&self, deferred: Deferred) {
        GarbageLedger::retire(&self.retired);
        self.push(deferred, true);
    }

    fn push(&self, deferred: Deferred, retired: bool) {
        synq_obs::probe!(EpochDefers);
        // SAFETY (both blocks): the bag is owner-thread-only, and neither
        // borrow outlives its statement, so `seal_bag` takes its own.
        if unsafe { (*self.bag.get()).is_full() } {
            self.seal_bag();
        }
        unsafe { (*self.bag.get()).push(deferred, retired) };
    }

    /// Seals the current bag into the global garbage stack and samples the
    /// ledger's peak.
    fn seal_bag(&self) {
        // SAFETY: bag is owner-thread-only.
        let bag = unsafe { &mut *self.bag.get() };
        if bag.is_empty() {
            return;
        }
        let global = self.global();
        // Globally order the seal-epoch read after every prior access to
        // the retired objects (crossbeam's `push_bag` carries the same
        // fence). Without it the read could return a stale, older epoch
        // and the bag would expire one grace period early.
        fence(Ordering::SeqCst);
        let epoch = global.epoch();
        global.push_sealed(SealedBag {
            epoch,
            bag: std::mem::replace(bag, Bag::new()),
        });
        global.ledger.raise_peak(global.pending());
    }

    /// Seals the bag and runs a collection cycle: takes one, then runs
    /// the private chain dry.
    pub(crate) fn flush(&self) {
        self.seal_bag();
        self.global().detach_expired(&self.expired);
        while self.run_one() {}
    }

    /// One slice of this thread's reclamation work, for a waiter's idle
    /// time: takes the due collection if there is one, then runs one
    /// closure of the private chain. False once there is nothing to run.
    pub(crate) fn reclaim_step(&self) -> bool {
        if self.collect_due.replace(false) {
            self.global().detach_expired(&self.expired);
        }
        let ran = self.run_one();
        if ran {
            synq_obs::probe!(EpochWaitSlices);
        }
        ran
    }

    /// Runs one closure of the private chain; false if it is empty.
    fn run_one(&self) -> bool {
        let p = self.expired.get();
        if p.is_null() {
            return false;
        }
        // Detach the node before running anything in it: the closure may
        // pin past a mark (an item's `Drop`, say) and drain the chain, and
        // that nested drain must not run or free this node.
        // SAFETY: chain nodes are this thread's alone, and detached from
        // the chain, `p` is out of every nested drain's reach.
        unsafe {
            self.expired.set((*p).next);
            let global = self.global();
            match (*p).sealed.bag.call_one() {
                Some(retired) => {
                    global.retire_node_skeleton(p);
                    global.ledger.reclaimed(retired);
                }
                None => {
                    (*p).next = self.expired.get();
                    self.expired.set(p);
                }
            }
        }
        true
    }

    /// Called by `LocalHandle::drop`.
    pub(crate) fn release_handle(&self) {
        let count = self.handle_count.get();
        debug_assert!(count > 0);
        self.handle_count.set(count - 1);
        if count == 1 && self.guard_count.get() == 0 {
            self.finalize();
        }
    }

    /// Retires this record: flush remaining garbage, drop the collector
    /// reference, and mark FREE for recycling.
    fn finalize(&self) {
        debug_assert_eq!(self.guard_count.get(), 0);
        debug_assert_eq!(self.handle_count.get(), 0);
        self.seal_bag();
        // Expired bags a wait left half run are this thread's to finish.
        while self.run_one() {}
        // Clear any lazily-published epoch: a recycled record must never
        // satisfy a later owner's fence-free fast path on the strength of
        // a publish this thread made.
        self.epoch.store(0, Ordering::Release);
        // SAFETY: owner-thread-only cell; after this we only touch `state`.
        let global = unsafe { (*self.global.get()).take().expect("double finalize") };
        self.state.store(FREE, Ordering::Release);
        // `global` (possibly the last Arc) drops here, after FREE is
        // published, so Global::drop can assume all records are FREE.
        drop(global);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::MAX_OBJECTS;
    use crate::collector::{Collector, LocalHandle};
    use std::sync::atomic::AtomicBool;
    use std::thread;

    /// Two bags' worth: one sealed when the first fills, one by hand.
    const N: usize = 2 * MAX_OBJECTS;

    fn local(h: &LocalHandle) -> &Local {
        // SAFETY: the record lives as long as its handle.
        unsafe { &*h.local }
    }

    /// Retires `closures` through the ledger, seals them, and advances the
    /// epoch twice, so the bags are expired but still on the garbage stack.
    fn retire_expired(h: &LocalHandle, closures: impl Iterator<Item = Deferred>) {
        let guard = h.pin();
        for d in closures {
            local(h).retire(d);
        }
        local(h).seal_bag();
        drop(guard);
        let global = local(h).global();
        let e = global.epoch();
        global.try_advance();
        global.try_advance();
        assert_eq!(
            global.epoch(),
            e.wrapping_add(2),
            "a lone unpinned thread advances"
        );
    }

    /// Pins up to the next mark, which makes a collection due.
    fn reach_a_mark(h: &LocalHandle) {
        assert!(!local(h).collect_due.get());
        while !local(h).collect_due.get() {
            drop(h.pin());
        }
    }

    struct DropCount(Arc<AtomicUsize>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn dropping(drops: &Arc<AtomicUsize>) -> Deferred {
        let d = DropCount(Arc::clone(drops));
        Deferred::new(move || drop(d))
    }

    #[test]
    fn a_due_collection_runs_one_closure_per_step_and_settles_each_bag_once() {
        let c = Collector::new();
        let h = c.register();
        let ran = Arc::new(AtomicUsize::new(0));
        retire_expired(&h, (0..N).map(|_| dropping(&ran)));
        reach_a_mark(&h);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "a mark collects nothing");
        assert_eq!(c.global.pending(), N);
        for step in 1..=N {
            assert!(h.reclaim_step());
            assert!(!local(&h).collect_due.get(), "the first step took it");
            assert_eq!(ran.load(Ordering::SeqCst), step, "one closure a step");
            let settled = step / MAX_OBJECTS * MAX_OBJECTS;
            assert_eq!(c.global.pending(), N - settled, "step {step}");
        }
        assert!(!h.reclaim_step(), "nothing left to run");
        assert_eq!(ran.load(Ordering::SeqCst), N);
    }

    #[test]
    fn the_next_mark_runs_what_the_steps_left() {
        let c = Collector::new();
        let h = c.register();
        let ran = Arc::new(AtomicUsize::new(0));
        retire_expired(&h, (0..N).map(|_| dropping(&ran)));
        reach_a_mark(&h);
        for _ in 0..N / 4 {
            assert!(h.reclaim_step());
        }
        for _ in 0..PINS_BETWEEN_COLLECT {
            assert_eq!(ran.load(Ordering::SeqCst), N / 4, "only a mark runs it");
            drop(h.pin());
        }
        assert_eq!(ran.load(Ordering::SeqCst), N, "the next mark ran it");
        assert!(
            local(&h).collect_due.get(),
            "the mark's own collection waits"
        );
        assert_eq!(c.global.pending(), 0);
        assert!(!h.reclaim_step(), "nothing left to run");
    }

    #[test]
    fn a_thread_that_exits_mid_chain_runs_the_rest_at_exit() {
        let c = Collector::new();
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let (c, drops) = (c.clone(), Arc::clone(&drops));
            thread::spawn(move || {
                let h = c.register();
                retire_expired(&h, (0..N).map(|_| dropping(&drops)));
                reach_a_mark(&h);
                for _ in 0..N / 4 {
                    assert!(h.reclaim_step());
                }
                assert_eq!(drops.load(Ordering::SeqCst), N / 4);
                // `h` drops here, the private chain half run.
            })
            .join()
            .unwrap();
        }
        assert_eq!(drops.load(Ordering::SeqCst), N);
        assert_eq!(c.global.pending(), 0);
    }

    #[test]
    fn a_closure_that_pins_past_a_mark_while_a_step_runs_it_runs_once() {
        let c = Collector::new();
        let h = c.register();
        let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..N).map(|_| AtomicUsize::new(0)).collect());
        let nested = Arc::new(AtomicBool::new(false));
        let record = h.local as usize;
        retire_expired(
            &h,
            (0..N).map(|i| {
                let (runs, nested) = (Arc::clone(&runs), Arc::clone(&nested));
                Deferred::new(move || {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    if !nested.swap(true, Ordering::SeqCst) {
                        // Up to the next mark, which drains the chain this
                        // closure is being run from.
                        // SAFETY: the test's handle keeps the record alive.
                        let local = unsafe { &*(record as *const Local) };
                        for _ in 0..PINS_BETWEEN_COLLECT {
                            drop(local.pin());
                        }
                    }
                })
            }),
        );
        reach_a_mark(&h);
        assert!(h.reclaim_step());
        assert!(nested.load(Ordering::SeqCst));
        let ran = || runs.iter().filter(|r| r.load(Ordering::SeqCst) > 0).count();
        assert_eq!(ran(), MAX_OBJECTS + 1, "the nested drain ran the other bag");
        while h.reclaim_step() {}
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        assert_eq!(c.global.pending(), 0);
    }
}
