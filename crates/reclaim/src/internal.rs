//! The collector's internals: global epoch, participant registry, garbage
//! stack, and per-thread participant records.
//!
//! # Design
//!
//! * **One collector** — the process has one [`Global`], created by the
//!   first thread that registers and never dropped; every record holds a
//!   plain `&'static` reference to it, which the pin path reads the epoch
//!   through.
//! * **Global epoch** — a monotonically increasing (wrapping) counter.
//! * **Registry** — a push-only lock-free singly linked list of [`Local`]
//!   records. Records are never physically unlinked or freed; a record
//!   whose thread has exited is marked `FREE` and recycled by the next
//!   thread that registers, so the registry's length is bounded by the
//!   maximum number of *concurrent* participants ever observed (documented
//!   trade-off vs. crossbeam's deferred unlinking — it avoids the
//!   bootstrapping problem of reclaiming the reclaimer's own nodes).
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
//! * **Garbage ledger** — every deferral is a retirement: each record
//!   counts its own (an owner-only store), and whoever runs a sealed bag
//!   settles it on the collector's [`GarbageLedger`] once per bag. See
//!   that type.
//! * **Pinning** — the outermost pin publishes `(global << 1) | PINNED` in
//!   the thread's epoch slot with one fenced store (an `xchg` on x86), which
//!   globally orders the publication against `try_advance`'s scan (that
//!   ordering is what makes the two-advance grace period sound); the last
//!   unpin stores 0. `try_advance` only reads the slots: one published at
//!   another epoch blocks the advance. This is crossbeam's and DEBRA's pin.

use crate::bag::{Bag, SealedBag};
use crate::deferred::Deferred;
use crate::guard::Guard;
use crate::reclaimer::GarbageLedger;
use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{fence, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;
use synq_primitives::CachePadded;

/// `Local::state` values.
const FREE: usize = 0;
const IN_USE: usize = 1;

/// A collection falls due every `PINS_BETWEEN_COLLECT` pins.
const PINS_BETWEEN_COLLECT: usize = 128;

/// `Local::epoch` is `(global_epoch << EPOCH_SHIFT) | PINNED` while a
/// guard is live, or `0` when nothing is published.
const PINNED: usize = 1;
const EPOCH_SHIFT: u32 = 1;

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

/// Shared collector state: the process has one (`default::global`).
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
            // SAFETY: registry nodes are never freed.
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
    /// The record is the thread's until it calls [`Local::release_handle`].
    pub(crate) fn register(&'static self) -> &'static Local {
        // Try to recycle a retired record first.
        for local in self.locals() {
            if local.state.load(Ordering::Relaxed) == FREE
                && local
                    .state
                    .compare_exchange(FREE, IN_USE, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                // SAFETY: the CAS gave us exclusive ownership of the cells.
                debug_assert!(unsafe { (*local.bag.get()).is_empty() });
                debug_assert_eq!(local.epoch.load(Ordering::Relaxed), 0);
                debug_assert!(local.expired.get().is_null());
                local.guard_count.set(0);
                local.has_handle.set(true);
                local.pin_count.set(0);
                local.collect_due.set(false);
                return local;
            }
        }

        // No free record: allocate and push a new one, never to be freed.
        let local: &'static Local = Box::leak(Box::new(Local {
            epoch: AtomicUsize::new(0),
            state: AtomicUsize::new(IN_USE),
            next: AtomicPtr::new(ptr::null_mut()),
            retired: AtomicUsize::new(0),
            bag: UnsafeCell::new(Bag::new()),
            guard_count: Cell::new(0),
            has_handle: Cell::new(true),
            pin_count: Cell::new(0),
            collect_due: Cell::new(false),
            expired: Cell::new(ptr::null_mut()),
            global: self,
        }));
        let raw = local as *const Local as *mut Local;
        let mut head = self.registry.load(Ordering::Relaxed);
        loop {
            local.next.store(head, Ordering::Relaxed);
            match self
                .registry
                .compare_exchange(head, raw, Ordering::Release, Ordering::Relaxed)
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
                if le & PINNED != 0 && le != current {
                    // Pinned at a different epoch.
                    return global_epoch;
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

/// Per-thread participant record. Cells are owner-thread-only while IN_USE.
///
/// Line-aligned so records of different threads never share a cache line:
/// `epoch` is scanned by every `try_advance` while the owning thread hammers
/// `guard_count`/`pin_count` on each pin.
#[repr(align(128))]
pub(crate) struct Local {
    /// `(global_epoch << 1) | PINNED` while a guard is live; `0` when not.
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
    /// The registering thread still holds the record: false once it
    /// exits, after which the last guard's drop frees the record.
    has_handle: Cell<bool>,
    /// Pins since registration; drives periodic collection.
    pin_count: Cell<usize>,
    /// A pin mark made a collection due, and nobody has taken it yet.
    collect_due: Cell<bool>,
    /// Expired bags this thread took off the garbage stack and has not
    /// finished running, linked through `next`: its private chain.
    expired: Cell<*mut GarbageNode>,
    /// The collector whose registry holds this record.
    global: &'static Global,
}

const _: () = assert!(std::mem::align_of::<Local>() >= 128);

impl Local {
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

    /// Publishes the epoch for an outermost guard, with a fence that
    /// globally orders it against `try_advance`'s scan.
    fn publish(&self) {
        let global = self.global;
        let pinned = (global.epoch.load(Ordering::Relaxed) << EPOCH_SHIFT) | PINNED;
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            // A SeqCst swap compiles to a single `xchg`, which is both the
            // store and the full barrier — one locked instruction instead
            // of a store followed by `mfence`.
            self.epoch.swap(pinned, Ordering::SeqCst);
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        {
            self.epoch.store(pinned, Ordering::Relaxed);
            fence(Ordering::SeqCst);
        }
        synq_obs::probe!(EpochPins);

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

    /// Called by `Guard::drop`.
    pub(crate) fn unpin(&self) {
        let count = self.guard_count.get();
        debug_assert!(count > 0, "unpin without pin");
        self.guard_count.set(count - 1);
        if count == 1 {
            self.epoch.store(0, Ordering::Release);
            if !self.has_handle.get() {
                self.finalize();
            }
        }
    }

    /// Adds a deferred closure to this thread's bag, sealing it if full,
    /// and counts it on this record's ledger counter.
    pub(crate) fn retire(&self, deferred: Deferred) {
        GarbageLedger::retire(&self.retired);
        synq_obs::probe!(EpochDefers);
        // SAFETY (both blocks): the bag is owner-thread-only, and neither
        // borrow outlives its statement, so `seal_bag` takes its own.
        if unsafe { (*self.bag.get()).is_full() } {
            self.seal_bag();
        }
        unsafe { (*self.bag.get()).push(deferred) };
    }

    /// Seals the current bag into the global garbage stack and samples the
    /// ledger's peak.
    fn seal_bag(&self) {
        // SAFETY: bag is owner-thread-only.
        let bag = unsafe { &mut *self.bag.get() };
        if bag.is_empty() {
            return;
        }
        let global = self.global;
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
        self.global.detach_expired(&self.expired);
        while self.run_one() {}
    }

    /// One slice of this thread's reclamation work, for a waiter's idle
    /// time: takes the due collection if there is one, then runs one
    /// closure of the private chain. False once there is nothing to run.
    pub(crate) fn reclaim_step(&self) -> bool {
        if self.collect_due.replace(false) {
            self.global.detach_expired(&self.expired);
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
            let global = self.global;
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

    /// The registering thread is done with the record (it is exiting):
    /// frees it now, or at the drop of its last guard.
    pub(crate) fn release_handle(&self) {
        debug_assert!(self.has_handle.get(), "released twice");
        self.has_handle.set(false);
        if self.guard_count.get() == 0 {
            self.finalize();
        }
    }

    /// Frees this record: seals its open bag onto the global garbage stack,
    /// runs its private chain dry, and marks it FREE for recycling.
    fn finalize(&self) {
        debug_assert_eq!(self.guard_count.get(), 0);
        debug_assert!(!self.has_handle.get());
        self.seal_bag();
        // Expired bags a wait left half run are this thread's to finish.
        while self.run_one() {}
        self.state.store(FREE, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::MAX_OBJECTS;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    /// Two bags' worth: one sealed when the first fills, one by hand.
    const N: usize = 2 * MAX_OBJECTS;

    /// A collector of the test's own, so that no other test's pins or
    /// garbage reach it. Never dropped, like the process-wide one; the
    /// list keeps it reachable, so leak checkers do not report it.
    fn isolated() -> &'static Global {
        static ISOLATED: Mutex<Vec<&'static Global>> = Mutex::new(Vec::new());
        let global = Box::leak(Box::new(Global::new()));
        ISOLATED.lock().unwrap().push(global);
        global
    }

    /// Retires `closures` through the ledger, seals them, and advances the
    /// epoch twice, so the bags are expired but still on the garbage stack.
    fn retire_expired(local: &Local, closures: impl Iterator<Item = Deferred>) {
        let guard = local.pin();
        for d in closures {
            local.retire(d);
        }
        local.seal_bag();
        drop(guard);
        let global = local.global;
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
    fn reach_a_mark(local: &Local) {
        assert!(!local.collect_due.get());
        while !local.collect_due.get() {
            drop(local.pin());
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
        let global = isolated();
        let local = global.register();
        let ran = Arc::new(AtomicUsize::new(0));
        retire_expired(local, (0..N).map(|_| dropping(&ran)));
        reach_a_mark(local);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "a mark collects nothing");
        assert_eq!(global.pending(), N);
        for step in 1..=N {
            assert!(local.reclaim_step());
            assert!(!local.collect_due.get(), "the first step took it");
            assert_eq!(ran.load(Ordering::SeqCst), step, "one closure a step");
            let settled = step / MAX_OBJECTS * MAX_OBJECTS;
            assert_eq!(global.pending(), N - settled, "step {step}");
        }
        assert!(!local.reclaim_step(), "nothing left to run");
        assert_eq!(ran.load(Ordering::SeqCst), N);
    }

    #[test]
    fn the_next_mark_runs_what_the_steps_left() {
        let global = isolated();
        let local = global.register();
        let ran = Arc::new(AtomicUsize::new(0));
        retire_expired(local, (0..N).map(|_| dropping(&ran)));
        reach_a_mark(local);
        for _ in 0..N / 4 {
            assert!(local.reclaim_step());
        }
        for _ in 0..PINS_BETWEEN_COLLECT {
            assert_eq!(ran.load(Ordering::SeqCst), N / 4, "only a mark runs it");
            drop(local.pin());
        }
        assert_eq!(ran.load(Ordering::SeqCst), N, "the next mark ran it");
        assert!(local.collect_due.get(), "the mark's own collection waits");
        assert_eq!(global.pending(), 0);
        assert!(!local.reclaim_step(), "nothing left to run");
    }

    #[test]
    fn a_thread_that_exits_mid_chain_runs_the_rest_at_exit() {
        let global = isolated();
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let drops = Arc::clone(&drops);
            thread::spawn(move || {
                let local = global.register();
                retire_expired(local, (0..N).map(|_| dropping(&drops)));
                reach_a_mark(local);
                for _ in 0..N / 4 {
                    assert!(local.reclaim_step());
                }
                assert_eq!(drops.load(Ordering::SeqCst), N / 4);
                // The thread exits here, the private chain half run.
                local.release_handle();
            })
            .join()
            .unwrap();
        }
        assert_eq!(drops.load(Ordering::SeqCst), N);
        assert_eq!(global.pending(), 0);
    }

    #[test]
    fn a_closure_that_pins_past_a_mark_while_a_step_runs_it_runs_once() {
        let global = isolated();
        let local = global.register();
        let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..N).map(|_| AtomicUsize::new(0)).collect());
        let nested = Arc::new(AtomicBool::new(false));
        retire_expired(
            local,
            (0..N).map(|i| {
                let (runs, nested) = (Arc::clone(&runs), Arc::clone(&nested));
                Deferred::new(move || {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    if !nested.swap(true, Ordering::SeqCst) {
                        // Up to the next mark, which drains the chain this
                        // closure is being run from.
                        for _ in 0..PINS_BETWEEN_COLLECT {
                            drop(local.pin());
                        }
                    }
                })
            }),
        );
        reach_a_mark(local);
        assert!(local.reclaim_step());
        assert!(nested.load(Ordering::SeqCst));
        let ran = || runs.iter().filter(|r| r.load(Ordering::SeqCst) > 0).count();
        assert_eq!(ran(), MAX_OBJECTS + 1, "the nested drain ran the other bag");
        while local.reclaim_step() {}
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        assert_eq!(global.pending(), 0);
    }

    #[test]
    fn a_thread_that_pinned_and_unpinned_never_blocks_an_advance() {
        const K: usize = 16;
        let global = isolated();
        let (idle_tx, idle_rx) = std::sync::mpsc::channel();
        let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
        let idle = thread::spawn(move || {
            let local = global.register();
            drop(local.pin());
            idle_tx.send(()).unwrap();
            exit_rx.recv().unwrap();
            local.release_handle();
        });
        idle_rx.recv().unwrap();
        let e = global.epoch();
        for k in 1..=K {
            assert_eq!(global.try_advance(), e.wrapping_add(k), "advance {k}");
        }
        // By contrast a live guard holds the epoch within one advance.
        let local = global.register();
        let guard = local.pin();
        let e = global.try_advance();
        assert_eq!(global.try_advance(), e, "blocked by the pinned slot");
        drop(guard);
        assert_eq!(global.try_advance(), e.wrapping_add(1));
        exit_tx.send(()).unwrap();
        idle.join().unwrap();
    }

    #[test]
    fn a_record_released_under_a_live_guard_is_freed_by_the_guard_and_reused() {
        let global = isolated();
        let local = global.register();
        let guard = local.pin();
        // The thread exits while a guard (made in a TLS destructor, say)
        // is still alive: the record must stay in use until it drops.
        local.release_handle();
        assert_eq!(local.state.load(Ordering::Relaxed), IN_USE);
        drop(guard);
        assert_eq!(local.state.load(Ordering::Relaxed), FREE);
        assert_eq!(local.epoch.load(Ordering::Relaxed), 0, "nothing published");
        assert!(
            ptr::eq(global.register(), local),
            "the freed record is reused"
        );
        assert_eq!(global.locals().count(), 1);
    }
}
