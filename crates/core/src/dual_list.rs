//! The dual-list kernel: the one wait node, its lifetime, and the
//! Michael & Scott linking under the fair synchronous queue (paper
//! Listing 5 / Figure 1) and the linked half of the TransferQueue (§5),
//! which are one structure: [`crate::SyncDualQueue`] is a
//! [`crate::transfer::TransferQueue`] without a ring. Its one arrival,
//! `TransferQueue::xfer`, keeps only the *policy* (who waits, what a match
//! moves) and calls the steps below in a straight line;
//! [`crate::SyncDualStack`] keeps its own Treiber linking and takes the
//! node and its lifetime from here. Both end a wait the same way, through
//! [`Leave`].
//!
//! # Layer 1: the wait node and its lifetime
//!
//! A [`WaitNode`] is a mode word, a [`WaitSlot`] (state machine, item cell,
//! waiter mailbox), a `next` link and an exit flag. Two parties use a
//! node: the *structure*, which matchers reach only under a guard, and the
//! *waiter* that published it, which holds no guard. The lifetime rule,
//! stated once:
//!
//! * The thread whose CAS unlinks the node **retires** it, once, and only
//!   through [`Shield::defer_retire`]: the retirement runs once no guard
//!   protects the node. In both structures one CAS has the only say (the
//!   queue's and the stack's `head` CAS each have one winner). The queue
//!   records the unlink in the node's `unlinked` flag, which its `leave`
//!   reads; the stack has no reader for it and retires without it.
//! * The **waiter exits** when its operation returns
//!   ([`WaitNode::release`]): one `Release` store of the exit flag after
//!   its last access. A waiter therefore holds no guard while it spins or
//!   parks (a sleeping thread never stalls reclamation) and touches only
//!   its own node; matchers touch a node only while guarded. A node nobody
//!   waits on (a queue's first dummy, an asynchronous put's node) is
//!   created exited.
//! * The retirement frees the node, an unconsumed item with it, if an
//!   `Acquire` load finds the flag set; otherwise it pins and defers itself
//!   again. The grace period rules out every guarded user and the flag the
//!   unguarded one, whichever of the two ends last.
//!
//! # Leaving: the one way a wait ends
//!
//! Each structure keeps its own arrival protocol, which ends in a
//! [`Start`]: resolved outright, or a published node its caller now waits
//! on. How that wait ends is the structure's [`Leave::leave`], and the two
//! ways of waiting are written once over it: a thread blocks in
//! [`Leave::wait`], and a task holds a [`NodePermit`]. A permit dropped
//! before it resolved follows one rule:
//!
//! * it wins the cancel CAS: it leaves as `Cancelled`, and a producer's
//!   unsent item is dropped with the outcome;
//! * it lost to a completed match: it leaves as that match, and drops
//!   whatever the match hands it (an item deposited for a consumer);
//! * it lost to a claim still in progress: it only exits, and the
//!   retirement that frees the node drops an item the claimer deposits.
//!
//! # Layer 2: the queue
//!
//! A singly linked list with `head` and `tail` and a permanent dummy at
//! the head. Behind the dummy the list holds *either* data nodes (waiting
//! producers) *or* requests (waiting consumers), never both. One arrival:
//!
//! 1. [`DualList::arrive`] absorbs leading cancelled nodes and snapshots
//!    both ends.
//! 2. Empty, or the tail is of the arrival's own mode: once
//!    [`Arrival::tail_settled`] (which helps a lagging tail), the caller
//!    decides whether it would wait and [`Arrival::try_append`]s its node.
//!    The request linearizes at that `next` CAS.
//! 3. Otherwise [`Arrival::front`] is a waiting counterpart: the caller
//!    claims its slot, moves the item, and [`Arrival::advance_past`] makes
//!    it the new dummy, claimed or not.
//! 4. A waiter whose own node reached a terminal state calls
//!    [`DualList::leave`]. A matched waiter helps advance the head past
//!    its node only if the matcher has not yet done so: a node that is
//!    already the dummy or already `unlinked` is left without a pin.
//!
//! A waiter gives up by CASing its slot `WAITING -> CANCELLED`; the same
//! CAS arbitrates against a concurrent match. Cancelled nodes are
//! *absorbed at the head*: every arrival, and the canceller itself,
//! advances the head past any leading cancelled nodes. Interior cancelled
//! nodes are not unspliced (Java's `cleanMe`): that is memory-safe only
//! under a tracing collector, because an unspliced node can stay reachable
//! through a chain of earlier unspliced predecessors.

use crate::pollable::PendingTransfer;
use crate::{Deadline, TransferOutcome};
use core::task::{Poll, Waker};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use synq_primitives::cancel::Registration;
use synq_primitives::{CachePadded, CancelToken, WaitOutcome, WaitSlot, WaitStrategy};
use synq_reclaim::{Atomic, Epoch, Guard, Owned, Reclaimer, Shared, Shield};

/// Mode word of a waiting consumer's node (a reservation).
pub const REQUEST: usize = 0;
/// Mode bit of a waiting producer's node.
pub const DATA: usize = 1;
/// Mode bit of a data node whose producer waits for its item to be given
/// a place, not for a consumer (a bounded `TransferQueue`'s put on a full
/// ring): a matcher may move such an item on and complete the node, where
/// a plain `DATA` node's item may only go to a consumer.
pub const MOVABLE: usize = 4;

/// The wait node shared by the dual queue, the dual stack and the
/// TransferQueue's linked half. See the [module docs](self).
pub struct WaitNode<T> {
    /// Immutable once published.
    pub(crate) mode: usize,
    /// A data node's item is written by its owner before publication; a
    /// request's, by the matcher while `CLAIMED`.
    pub slot: WaitSlot<T>,
    pub(crate) next: Atomic<WaitNode<T>>,
    /// Nonzero once the waiter has exited, after its last access; the
    /// retirement frees the node only then. A word, not a `bool`: the node
    /// keeps the size (80 bytes with the benchmark's item) and allocator
    /// size class it had with the count, and at 72 bytes `buffered_ring`'s
    /// set-up read 11-22 % slower (EXPERIMENTS P42).
    pub(crate) exited: AtomicUsize,
    /// Set by the queue's one retirement of the node. Its `leave` reads it
    /// to skip helping a node that is already off the list; the stack
    /// never sets or reads it.
    unlinked: AtomicBool,
}

impl<T> WaitNode<T> {
    fn new(mode: usize, exited: bool) -> Owned<Self> {
        Owned::new(WaitNode {
            mode,
            slot: WaitSlot::new(),
            next: Atomic::null(),
            exited: AtomicUsize::new(exited as usize),
            unlinked: AtomicBool::new(false),
        })
    }

    /// A node armed for publication, with an empty slot: `waited` on by
    /// the thread or task that publishes it, or exited from the start.
    pub fn alloc(mode: usize, waited: bool) -> Owned<Self> {
        // One per node allocated; there is no cache to hit.
        synq_obs::probe!(NodeCacheMisses);
        Self::new(mode, !waited)
    }

    /// Producer (`true`) or consumer (`false`) node.
    pub fn is_data(&self) -> bool {
        self.mode & DATA != 0
    }

    /// A [`MOVABLE`] producer node.
    pub fn is_movable(&self) -> bool {
        self.mode & MOVABLE != 0
    }

    /// The waiter's exit: its last access to the node is over. From here
    /// on the node is the retirement's to free, with any item nobody
    /// consumed.
    ///
    /// # Safety
    ///
    /// The caller is the node's waiter, exits once, and does not touch the
    /// node afterwards.
    pub unsafe fn release(ptr: *const Self) {
        // SAFETY: the node is not freed before this store.
        unsafe { &*ptr }.exited.store(1, Ordering::Release);
    }

    /// Hands the node at `raw` to the reclaimer, to be freed once no guard
    /// can reach it and its waiter has exited. A waiter still inside is not
    /// done with it: the deferred closure then defers itself again, under a
    /// pin of its own (the collector accepts a retirement from inside a
    /// running closure).
    ///
    /// # Safety
    ///
    /// Called once per node, by the winner of the one CAS that unlinked
    /// it (a queue's or a stack's `head` CAS). The node is protected by
    /// `guard` and off its structure.
    pub(crate) unsafe fn retire(raw: *const Self, guard: &Guard) {
        let reap = move || {
            // SAFETY: unlinked and past its grace period, so only the
            // waiter can still touch it, until its exit (Acquire pairs
            // with that Release store).
            if unsafe { &*raw }.exited.load(Ordering::Acquire) != 0 {
                drop(unsafe { Box::from_raw(raw.cast_mut()) });
            } else {
                synq_obs::probe!(NodeWaiterInside);
                // SAFETY: still unlinked, and retired only by this closure.
                unsafe { Self::retire(raw, &Epoch::pin()) };
            }
        };
        // SAFETY: the closure frees nothing a guard or a waiter can reach.
        unsafe { guard.defer_retire(raw as usize, reap) };
    }

    /// Frees the chain behind `first` outright (a structure's `Drop`).
    ///
    /// # Safety
    ///
    /// Exclusive access to the structure: every waiter has exited. A node
    /// whose waiter has not (a permit passed to `mem::forget` keeps its
    /// structure alive, so this cannot happen through the API) is leaked.
    pub(crate) unsafe fn drain_chain(first: &Atomic<Self>) {
        // SAFETY: exclusive access per the contract.
        let guard = unsafe { Epoch::unprotected() };
        let mut p = first.load(Ordering::Relaxed, &guard);
        // SAFETY: as above; the link is read before the node is freed.
        while let Some(node) = unsafe { p.as_ref() } {
            let next = node.next.load(Ordering::Relaxed, &guard);
            if node.exited.load(Ordering::Acquire) != 0 {
                drop(unsafe { Box::from_raw(p.as_raw() as *mut Self) });
            }
            p = next;
        }
    }
}

/// The lock-free phase of one arrival: `Break(outcome)` when it resolved
/// without waiting, `Continue(node)` when it published `node`, which the
/// caller now waits on and exits with [`Leave::leave`].
pub type Start<T> = ControlFlow<TransferOutcome<T>, *const WaitNode<T>>;

/// How a structure ends a waiter's wait on a node it published: the step
/// after the slot's terminal state, written once per structure and shared
/// by the blocking waiter ([`Self::wait`]) and the poll-mode one
/// ([`NodePermit`]). See the [module docs](self).
pub trait Leave<T> {
    /// Ends the wait on the caller's own published node, whose slot reached
    /// the terminal state `verdict` reports: unlinks or helps unlink the
    /// node, exits it ([`WaitNode::release`]), and resolves the transfer,
    /// carrying the item that is now the caller's.
    ///
    /// # Safety
    ///
    /// `node` was published by this structure's arrival (its [`Start`] was
    /// `Continue(node)`) and the caller is its waiter, not yet exited;
    /// `verdict` is what the slot's wait returned (or `TimedOut`/`Cancelled`
    /// after the caller won the cancel CAS itself, or `Matched` with the
    /// slot's [`WaitSlot::matched`] word). The node is not touched
    /// afterwards.
    unsafe fn leave(&self, node: *const WaitNode<T>, verdict: WaitOutcome) -> TransferOutcome<T>;

    /// The blocking waiter, the paper's `awaitFulfill`: pays for the node
    /// it published with one [`Reclaimer::reclaim_step`] of the thread's
    /// reclamation work, then spins and parks on the node with `strategy`,
    /// holding no reclaimer guard, then leaves. The rest of that work runs
    /// only once the spin is spent and the wait is about to park, one step
    /// per pass of the wait loop ([`WaitStrategy::before_park`]), so a
    /// thread frees at the rate it allocates while it finds its matches
    /// spinning, and in bulk only in time it would sleep through.
    ///
    /// # Safety
    ///
    /// As [`Self::leave`], without the verdict.
    unsafe fn wait<S: WaitStrategy + ?Sized>(
        &self,
        node: *const WaitNode<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
        strategy: &S,
    ) -> TransferOutcome<T> {
        // SAFETY: the node is not freed before its waiter exits.
        let slot = &unsafe { &*node }.slot;
        Epoch::reclaim_step();
        let strategy = Reclaiming(strategy);
        let verdict = slot.await_outcome(deadline, token, &strategy);
        // SAFETY: per the contract; `verdict` is the slot's terminal state.
        unsafe { self.leave(node, verdict) }
    }
}

/// A waiter's `strategy` with the thread's reclamation work as its pre-park
/// hook: one [`Reclaimer::reclaim_step`] per call, after whatever work the
/// strategy has of its own.
struct Reclaiming<'s, S: ?Sized>(&'s S);

impl<S: WaitStrategy + ?Sized> WaitStrategy for Reclaiming<'_, S> {
    #[inline]
    fn spin_budget(&self, timed: bool) -> u32 {
        self.0.spin_budget(timed)
    }

    #[inline]
    fn parks(&self) -> bool {
        self.0.parks()
    }

    #[inline]
    fn extend_spin(&self) -> bool {
        self.0.extend_spin()
    }

    #[inline]
    fn before_park(&self) -> bool {
        self.0.before_park() || Epoch::reclaim_step()
    }

    #[inline]
    fn observe(&self, timed: bool, spun: u64, parked: u64, matched: bool) {
        self.0.observe(timed, spun, parked, matched);
    }
}

/// A published, unresolved wait on a kernel node: the poll-mode stand-in
/// for a thread in [`Leave::wait`]. Polling drives the node's slot in poll
/// mode and leaves once it is terminal; dropping an unresolved permit
/// follows the one drop rule of the [module docs](self), so the futures
/// built on top are safe to drop at any point.
pub struct NodePermit<T, Q: Leave<T>> {
    owner: Arc<Q>,
    node: *const WaitNode<T>,
    /// Set when `poll_transfer` returned `Ready`: the waiter has exited
    /// and `node` must not be touched again.
    done: bool,
    /// The task's registration with the token it is polled with, so that
    /// cancelling the token wakes it; dropped when the permit resolves.
    registration: Option<Registration>,
}

// SAFETY: the permit is a waiter's handle on its own node, as a blocked
// thread is, and the owner is shared across threads anyway.
unsafe impl<T: Send, Q: Leave<T> + Send + Sync> Send for NodePermit<T, Q> {}

impl<T, Q: Leave<T>> NodePermit<T, Q> {
    /// A permit for `node`, just published by `owner`.
    ///
    /// # Safety
    ///
    /// `node` came from `owner`'s arrival as `Continue(node)`, and the
    /// permit becomes its waiter.
    pub unsafe fn new(owner: Arc<Q>, node: *const WaitNode<T>) -> Self {
        NodePermit {
            owner,
            node,
            done: false,
            registration: None,
        }
    }

    /// The structure the node belongs to.
    pub fn owner(&self) -> &Q {
        &self.owner
    }

    /// Re-arms a resolved permit on `node`, which the same owner published
    /// for the same waiter afterwards (a buffered put handed back and
    /// linked again), without another `Arc` clone.
    ///
    /// # Safety
    ///
    /// The permit resolved, and `node` is as in [`Self::new`].
    pub unsafe fn rearm(&mut self, node: *const WaitNode<T>) {
        debug_assert!(self.done, "re-armed an unresolved permit");
        self.node = node;
        self.done = false;
    }
}

impl<T: Send, Q: Leave<T> + Send + Sync> PendingTransfer<T> for NodePermit<T, Q> {
    fn poll_transfer(
        &mut self,
        waker: &Waker,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> Poll<TransferOutcome<T>> {
        assert!(!self.done, "NodePermit polled after completion");
        // SAFETY: `done` is false, so the waiter has not exited.
        let slot = unsafe { &(*self.node).slot };
        if let Some(token) = token {
            token.keep_registered(&mut self.registration, waker);
        }
        let Poll::Ready(verdict) = slot.poll_outcome(waker, deadline, token) else {
            // A task's idle time is its executor's, so a pending poll pays
            // only for the node it waits on: one step, as a blocking
            // waiter's first.
            Epoch::reclaim_step();
            return Poll::Pending;
        };
        self.done = true;
        self.registration = None;
        // SAFETY: our own node; `verdict` is its slot's terminal state.
        Poll::Ready(unsafe { self.owner.leave(self.node, verdict) })
    }
}

impl<T, Q: Leave<T>> Drop for NodePermit<T, Q> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // SAFETY: the waiter has not exited.
        let slot = unsafe { &(*self.node).slot };
        let verdict = if slot.try_cancel() {
            WaitOutcome::Cancelled
        } else if let Some(word) = slot.matched() {
            WaitOutcome::Matched(word)
        } else {
            // A claim in progress: the claimer may still be writing the
            // cell, so only exit; the retirement that frees the node drops
            // what the claimer deposits.
            // SAFETY: our own node, exited exactly once.
            unsafe { WaitNode::release(self.node) };
            return;
        };
        // A dropped future has no caller: what the outcome carries (an
        // unsent item, one a fulfiller deposited) is dropped here.
        // SAFETY: our own node, and `verdict` is its terminal state.
        drop(unsafe { self.owner.leave(self.node, verdict) });
    }
}

impl<T, Q: Leave<T>> std::fmt::Debug for NodePermit<T, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodePermit")
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

/// Counts the nodes on the chain behind `anchor` (a queue's `head`, whose
/// first node is the dummy and is skipped with `skip_anchor`; a stack's
/// `head`). Racy by nature: O(n), for diagnostics.
pub(crate) fn count_linked<T>(anchor: &Atomic<WaitNode<T>>, skip_anchor: bool) -> usize {
    let guard = Epoch::pin();
    let mut p = anchor.load(Ordering::Acquire, &guard);
    let mut skip = skip_anchor;
    let mut count = 0;
    // SAFETY: every node on the chain was linked behind the anchor at some
    // instant after the pin, so none is freed before the guard drops.
    while let Some(n) = unsafe { p.as_ref() } {
        if !std::mem::take(&mut skip) {
            count += 1;
        }
        p = n.next.load(Ordering::Acquire, &guard);
    }
    count
}

/// The M&S-skeleton dual list. See the [module docs](self).
pub struct DualList<T> {
    /// Matchers hammer `head`, appenders hammer `tail`; each owns its cache
    /// line(s) so the two ends never false-share.
    head: CachePadded<Atomic<WaitNode<T>>>,
    tail: CachePadded<Atomic<WaitNode<T>>>,
}

// Layout: padding must actually separate the two ends.
const _: () = assert!(std::mem::align_of::<DualList<u8>>() >= 128);
const _: () = assert!(std::mem::size_of::<DualList<u8>>() >= 2 * 128);

// SAFETY: nodes hand `T` values across threads; all shared mutation goes
// through atomics and the slot's claim/consume protocol.
unsafe impl<T: Send> Send for DualList<T> {}
unsafe impl<T: Send> Sync for DualList<T> {}

impl<T> Default for DualList<T> {
    fn default() -> Self {
        // Nobody waits on the first dummy.
        let dummy = WaitNode::new(REQUEST, true);
        // SAFETY: single-threaded construction.
        let guard = unsafe { Epoch::unprotected() };
        let dummy = dummy.into_shared(&guard);
        let head = Atomic::null();
        let tail = Atomic::null();
        head.store(dummy, Ordering::Relaxed);
        tail.store(dummy, Ordering::Relaxed);
        DualList {
            head: CachePadded::new(head),
            tail: CachePadded::new(tail),
        }
    }
}

impl<T> DualList<T> {
    /// Starts one arrival: absorbs leading cancelled nodes, then snapshots
    /// `head` and `tail`.
    pub fn arrive<'g>(&'g self, guard: &'g Guard) -> Arrival<'g, T> {
        self.absorb_cancelled(guard);
        Arrival {
            list: self,
            guard,
            head: self.head.load(Ordering::Acquire, guard),
            tail: self.tail.load(Ordering::Acquire, guard),
        }
    }

    /// Advances `head` from `h` to its successor `nh`, retiring the old
    /// dummy. Returns true if this thread's CAS won.
    fn advance_head<'g>(
        &self,
        h: Shared<'g, WaitNode<T>>,
        nh: Shared<'g, WaitNode<T>>,
        guard: &'g Guard,
    ) -> bool {
        if self
            .head
            .compare_exchange(h, nh, Ordering::AcqRel, Ordering::Acquire, guard)
            .is_err()
        {
            return false;
        }
        synq_obs::probe!(QueueHeadAdvances);
        // Help a lagging tail off `h` before retiring it, so `tail` never
        // references a retired node (Michael's rule): a thread pinned after
        // `h`'s grace period would otherwise load it from `tail` freed.
        // Tail moves only forward along the chain, so once past `h` it can
        // never return.
        let t = self.tail.load(Ordering::Acquire, guard);
        if t.ptr_eq(&h) {
            let _ = self
                .tail
                .compare_exchange(t, nh, Ordering::Release, Ordering::Relaxed, guard);
        }
        // SAFETY: `h` was unlinked by our CAS, which also proves it was
        // the live head the caller had protected, and only one CAS can move
        // `head` off `h`. `unlinked` records it for `leave`.
        let old = unsafe { h.deref() };
        debug_assert!(!old.unlinked.load(Ordering::Relaxed), "retired twice");
        old.unlinked.store(true, Ordering::Release);
        unsafe { WaitNode::retire(old, guard) };
        true
    }

    /// Absorbs leading cancelled nodes: the cleaning strategy (module
    /// docs), run by every arrival and by cancelling waiters.
    fn absorb_cancelled(&self, guard: &Guard) {
        let mut h = self.head.load(Ordering::Acquire, guard);
        loop {
            // SAFETY: head is never null (dummy invariant) and protected.
            let hn = unsafe { h.deref() }.next.load(Ordering::Acquire, guard);
            // SAFETY: `h` was the head under this pin, so its successor
            // cannot be unlinked, let alone freed, before the guard drops.
            // A stale `h` only fails the CAS below or ends the pass; the
            // next arrival starts again from the head.
            match unsafe { hn.as_ref() } {
                Some(n) if n.slot.is_cancelled() => {}
                _ => return,
            }
            // On success continue from `hn`, the head our CAS installed: a
            // competing absorber may already have moved `head` further,
            // and a stale re-read would just fail its next CAS anyway.
            h = if self.advance_head(h, hn, guard) {
                hn
            } else {
                self.head.load(Ordering::Acquire, guard)
            };
        }
    }

    /// Ends a wait on the caller's own published node, whose slot reached
    /// the terminal state `verdict` reports: helps unlink the node, exits
    /// it, and resolves the transfer, carrying the item that is now the
    /// caller's (what a matcher delivered to a request; a withdrawn
    /// producer's own item back).
    ///
    /// # Safety
    ///
    /// `node` came from [`Arrival::try_append`] on this list and the caller
    /// is its waiter, not yet exited; `verdict` is what the slot's wait
    /// returned (or `TimedOut`/`Cancelled` after the caller won the cancel
    /// CAS itself). The node is not touched afterwards.
    pub unsafe fn leave(
        &self,
        node: *const WaitNode<T>,
        verdict: WaitOutcome,
    ) -> TransferOutcome<T> {
        // SAFETY: the node is not freed before its waiter exits.
        let own = unsafe { &*node };
        let matched = matches!(verdict, WaitOutcome::Matched(_));
        if !matched {
            // The cancelled prefix now includes our node.
            self.absorb_cancelled(&Epoch::pin());
        } else if !self.is_dequeued(own) {
            // Help dequeue our own node if it is next in line (paper
            // Listing 5 lines 17-19). `hn` is only compared against our
            // own pointer, never dereferenced.
            let guard = Epoch::pin();
            let h = self.head.load(Ordering::Acquire, &guard);
            // SAFETY: head is never null, and protected.
            let hn = unsafe { h.deref() }.next.load(Ordering::Acquire, &guard);
            if hn.as_raw() == node {
                let _ = self.advance_head(h, hn, &guard);
            }
        }
        let item = (own.is_data() != matched && own.slot.has_item())
            // SAFETY: a matcher wrote a request's slot before MATCHED;
            // winning the cancel CAS wins a data node's item back.
            .then(|| unsafe { own.slot.take_item() });
        // SAFETY: our last access to the node is above.
        unsafe { WaitNode::release(node) };
        match verdict {
            WaitOutcome::Matched(_) => TransferOutcome::Transferred(item),
            WaitOutcome::Cancelled => TransferOutcome::Cancelled(item),
            WaitOutcome::TimedOut => TransferOutcome::Timeout(item),
        }
    }

    /// Has the head already reached `own`, a node whose wait is over? Then
    /// it is the dummy (`head == own`) or behind it (`unlinked`), and there
    /// is nothing for its waiter to help. Needs no pin: `head` is only
    /// compared with `own`, whose address cannot be reused before its
    /// waiter exits.
    fn is_dequeued(&self, own: &WaitNode<T>) -> bool {
        if own.unlinked.load(Ordering::Acquire) {
            return true;
        }
        // SAFETY: nothing loaded through this guard is dereferenced.
        let bare = unsafe { Epoch::unprotected() };
        std::ptr::eq(self.head.load(Ordering::Acquire, &bare).as_raw(), own)
    }

    /// Is `own`, a node its caller published here and still waits on, the
    /// node behind the dummy: next in line to be
    /// matched? Pins; `head.next` is only compared with `own`, as in
    /// `leave`. Once true it stays true until `own`'s wait is decided,
    /// because only a decided node lets the head move onto it.
    pub fn is_front(&self, own: *const WaitNode<T>) -> bool {
        let guard = Epoch::pin();
        let h = self.head.load(Ordering::Acquire, &guard);
        // SAFETY: head is never null, and protected.
        let hn = unsafe { h.deref() }.next.load(Ordering::Acquire, &guard);
        hn.as_raw() == own
    }

    /// Diagnostic: number of linked nodes, the dummy excluded.
    pub fn linked_nodes(&self) -> usize {
        count_linked(&self.head, true)
    }
}

impl<T> Drop for DualList<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self`; waiters borrow the owning structure, so all
        // have returned.
        unsafe { WaitNode::drain_chain(&self.head) };
    }
}

/// One arrival's snapshot of the list's two ends, bound to the list and
/// the guard that produced it.
pub struct Arrival<'g, T> {
    list: &'g DualList<T>,
    guard: &'g Guard,
    head: Shared<'g, WaitNode<T>>,
    tail: Shared<'g, WaitNode<T>>,
}

impl<'g, T> Arrival<'g, T> {
    fn tail_node(&self) -> &'g WaitNode<T> {
        // SAFETY: `tail` is never null and was loaded from the structure
        // field under `guard`; it never references a retired node.
        unsafe { self.tail.deref() }
    }

    /// No node was linked behind the dummy (or the tail lags: see
    /// [`Self::tail_settled`]).
    pub fn is_empty(&self) -> bool {
        self.head.ptr_eq(&self.tail)
    }

    /// Mode of the tail node, hence of every waiting node when the list
    /// is not empty.
    pub fn tail_is_data(&self) -> bool {
        self.tail_node().is_data()
    }

    /// True if the snapshot's tail is the list's last node, so an append
    /// may go ahead. Otherwise helps a lagging tail forward and returns
    /// false: the caller starts over.
    pub fn tail_settled(&self) -> bool {
        let list = self.list;
        let n = self.tail_node().next.load(Ordering::Acquire, self.guard);
        if !self
            .tail
            .ptr_eq(&list.tail.load(Ordering::Acquire, self.guard))
        {
            return false;
        }
        if n.is_null() {
            return true;
        }
        // `n` is compared and CASed, never dereferenced.
        let _ = list.tail.compare_exchange(
            self.tail,
            n,
            Ordering::Release,
            Ordering::Relaxed,
            self.guard,
        );
        false
    }

    /// Links `node` behind the snapshot's tail and swings `tail` to it.
    /// On success the node is published and the returned pointer is the
    /// caller's to wait on and exit; on a lost race the node comes back
    /// unpublished.
    pub fn try_append(
        &self,
        node: Owned<WaitNode<T>>,
    ) -> Result<*const WaitNode<T>, Owned<WaitNode<T>>> {
        match self.tail_node().next.compare_exchange(
            Shared::null(),
            node,
            Ordering::Release,
            Ordering::Acquire,
            self.guard,
        ) {
            Ok(published) => {
                synq_obs::probe!(QueueAppendCas);
                let _ = self.list.tail.compare_exchange(
                    self.tail,
                    published,
                    Ordering::Release,
                    Ordering::Relaxed,
                    self.guard,
                );
                Ok(published.as_raw())
            }
            Err(e) => {
                synq_obs::probe!(QueueAppendCasFail);
                Err(e.new)
            }
        }
    }

    /// The node at `head.next`, validated; `None` if the snapshot went
    /// stale (the caller starts over).
    pub fn front(&self) -> Option<Front<'g, T>> {
        let list = self.list;
        // SAFETY: head is never null, and protected.
        let node = unsafe { self.head.deref() }
            .next
            .load(Ordering::Acquire, self.guard);
        // Listing 5's consistency check (`t != tail || h != head`): with
        // both ends unchanged, `node` is still the front and the mode read
        // off the tail still describes it.
        let stale = !self
            .tail
            .ptr_eq(&list.tail.load(Ordering::Acquire, self.guard))
            || !self
                .head
                .ptr_eq(&list.head.load(Ordering::Acquire, self.guard));
        (!stale && !node.is_null()).then_some(Front { node })
    }

    /// Advances the head past `front` (paper Figure 1 step D), whether
    /// the caller's claim on it won or lost: a node that is matched,
    /// claimed by someone else or cancelled is the next dummy either way.
    pub fn advance_past(&self, front: Front<'g, T>) {
        let _ = self.list.advance_head(self.head, front.node, self.guard);
    }
}

/// A validated reference to the node at the front of the list.
pub struct Front<'g, T> {
    node: Shared<'g, WaitNode<T>>,
}

impl<T> std::ops::Deref for Front<'_, T> {
    type Target = WaitNode<T>;

    fn deref(&self) -> &WaitNode<T> {
        // SAFETY: non-null and validated by `Arrival::front`, protected by
        // its guard.
        unsafe { self.node.deref() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    type List<T> = DualList<T>;
    type Node<T> = *const WaitNode<T>;

    const PREFIX: usize = if cfg!(miri) { 8 } else { 64 };

    /// Every test here is single-threaded over its own list, which is what
    /// the unprotected guard asks for. Under it a retirement runs on the
    /// spot: it frees a node whose waiter has exited, and otherwise defers
    /// itself to the real collector, under a pin of its own.
    fn unprotected() -> Guard {
        unsafe { Epoch::unprotected() }
    }

    /// Payload that counts its drops.
    struct Counted<'a>(&'a AtomicUsize);

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn append<T>(list: &List<T>, item: Option<T>) -> Node<T> {
        let guard = unprotected();
        let at = list.arrive(&guard);
        assert!(at.tail_settled());
        let mode = if item.is_some() { DATA } else { REQUEST };
        let node = WaitNode::alloc(mode, true);
        if let Some(v) = item {
            unsafe { node.slot.put_item(v) };
        }
        at.try_append(node).ok().expect("nobody to race with")
    }

    /// Claims the request at the front, hands it `item`, advances past it.
    fn fulfill_front<T>(list: &List<T>, item: T) {
        let guard = unprotected();
        let at = list.arrive(&guard);
        let m = at.front().expect("a node is linked");
        assert!(m.slot.try_claim());
        unsafe { m.slot.put_item(item) };
        m.slot.complete();
        at.advance_past(m);
    }

    fn unlinked<T>(node: Node<T>) -> bool {
        unsafe { &*node }.unlinked.load(Ordering::SeqCst)
    }

    fn exited<T>(node: Node<T>) -> bool {
        unsafe { &*node }.exited.load(Ordering::SeqCst) != 0
    }

    /// Collects until `done` holds: the other tests in this binary pin the
    /// same collector, so a grace period can take more than one pass.
    fn collect_until(done: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < give_up, "never collected");
            Epoch::collect();
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_lagging_tail_is_helped_not_appended_to() {
        let list: List<u32> = DualList::default();
        let guard = unprotected();
        // Link a node by hand and leave `tail` on the dummy.
        let first = {
            let at = list.arrive(&guard);
            assert!(at.is_empty() && at.tail_settled());
            let node = WaitNode::alloc(REQUEST, true);
            at.tail_node()
                .next
                .compare_exchange(
                    Shared::null(),
                    node,
                    Ordering::Release,
                    Ordering::Acquire,
                    &guard,
                )
                .expect("nobody to race with")
        };
        assert_eq!(list.linked_nodes(), 1);

        // The next arrival still reads head == tail, must not append behind
        // the stale tail, and moves `tail` on instead.
        let at = list.arrive(&guard);
        assert!(at.is_empty());
        let spare = WaitNode::alloc(REQUEST, true);
        let spare = at.try_append(spare).expect_err("the tail has a successor");
        assert!(!at.tail_settled(), "a lagging tail is not settled");
        assert!(list.tail.load(Ordering::Acquire, &guard).ptr_eq(&first));

        // Settled now: the spare goes behind the first, in FIFO order.
        let at = list.arrive(&guard);
        assert!(!at.is_empty() && !at.tail_is_data() && at.tail_settled());
        let second = at.try_append(spare).ok().expect("settled tail");
        assert_eq!(list.linked_nodes(), 2);
        assert!(list.tail.load(Ordering::Acquire, &guard).as_raw() == second);
        let at = list.arrive(&guard);
        assert!(std::ptr::eq(&*at.front().unwrap(), first.as_raw()));

        for node in [first.as_raw(), second] {
            unsafe { WaitNode::release(node) };
        }
    }

    #[test]
    fn one_arrival_absorbs_a_whole_cancelled_prefix() {
        let list: List<u32> = DualList::default();
        let nodes: Vec<_> = (0..PREFIX).map(|_| append(&list, None)).collect();
        for &node in &nodes {
            assert!(unsafe { &*node }.slot.try_cancel());
        }
        assert_eq!(list.linked_nodes(), PREFIX);

        let guard = unprotected();
        assert!(list.arrive(&guard).is_empty());
        assert_eq!(list.linked_nodes(), 0);
        // All but the last (the dummy now) are retired, and their
        // retirements wait for waiters that have not exited.
        let (last, passed) = nodes.split_last().unwrap();
        assert!(passed.iter().all(|&n| unlinked(n) && !exited(n)));
        assert!(!unlinked(*last) && !exited(*last));
        for node in nodes {
            unsafe { WaitNode::release(node) };
        }
    }

    #[test]
    fn the_retirement_frees_a_node_only_after_its_waiter_exits() {
        // Static: a retirement deferred to the real collector may outlive
        // a failed assertion below.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        let drops = || DROPS.load(Ordering::SeqCst);
        for retired_first in [true, false] {
            DROPS.store(0, Ordering::SeqCst);
            let list: List<Counted<'_>> = DualList::default();
            // Two requests; each is handed an item its waiter never reads
            // (a permit dropped mid-claim). The second only serves to move
            // the head past the first, which retires the first: on the
            // spot, under the unprotected guard.
            let first = append(&list, None);
            let second = append(&list, None);
            fulfill_front(&list, Counted(&DROPS));
            assert!(!unlinked(first), "the dummy is not retired");
            if retired_first {
                let before = synq_obs::StatsSnapshot::take();
                fulfill_front(&list, Counted(&DROPS));
                assert!(unlinked(first) && !exited(first));
                // Its waiter is still inside, so every collection that runs
                // the retirement finds it so and defers it again.
                for _ in 0..8 {
                    Epoch::collect();
                }
                assert_eq!(drops(), 0, "the node and its item survive");
                let delta = synq_obs::StatsSnapshot::take().delta(&before);
                if synq_obs::ENABLED {
                    assert!(delta.get(synq_obs::Probe::NodeWaiterInside) > 0);
                }
                unsafe { WaitNode::release(first) };
                collect_until(|| drops() == 1);
            } else {
                unsafe { WaitNode::release(first) };
                assert_eq!(drops(), 0, "an exit frees nothing");
                fulfill_front(&list, Counted(&DROPS));
                // Nothing stands between this retirement and the free: no
                // second deferral, no free list, no `Drop` of the list.
                assert_eq!(drops(), 1, "first and its item");
            }
            unsafe { WaitNode::release(second) };
            assert_eq!(drops(), 1, "second is the dummy");
            drop(list);
            assert_eq!(drops(), 2, "second's item, at Drop");
        }
    }

    #[test]
    fn leave_hands_a_cancelled_producer_its_item_back() {
        let list: List<String> = DualList::default();
        let node = append(&list, Some("mine".to_string()));
        assert!(unsafe { &*node }.is_data() && list.is_front(node));
        assert!(unsafe { &*node }.slot.try_cancel());
        let back = unsafe { list.leave(node, WaitOutcome::TimedOut) };
        assert!(matches!(back, TransferOutcome::Timeout(Some(v)) if v == "mine"));
        assert_eq!(list.linked_nodes(), 0, "leave absorbed the cancelled node");
    }

    fn head_is<T>(list: &List<T>, node: Node<T>) -> bool {
        list.head.load(Ordering::Acquire, &unprotected()).as_raw() == node
    }

    const MATCHED: WaitOutcome = WaitOutcome::Matched(synq_primitives::wait_slot::MATCHED);

    #[test]
    fn leave_helps_a_matcher_that_stalled_before_advancing() {
        let list: List<u32> = DualList::default();
        let node = append(&list, None);
        {
            let guard = unprotected();
            let at = list.arrive(&guard);
            let m = at.front().expect("a node is linked");
            assert!(m.slot.try_claim());
            unsafe { m.slot.put_item(7) };
            m.slot.complete();
            // The matcher stalls here, before `advance_past`.
        }
        assert!(!head_is(&list, node) && list.linked_nodes() == 1);
        let out = unsafe { list.leave(node, MATCHED) };
        assert!(matches!(out, TransferOutcome::Transferred(Some(7))));
        assert!(head_is(&list, node), "the waiter advanced the head");
        assert_eq!(list.linked_nodes(), 0);
    }

    #[test]
    fn leave_does_not_move_the_head_for_a_dequeued_node() {
        let list: List<u32> = DualList::default();
        let [a, b, c] = [(); 3].map(|_| append(&list, None));
        fulfill_front(&list, 1);
        fulfill_front(&list, 2);
        // `a` is unlinked, `b` is the dummy, `c` still waits.
        assert!(unsafe { &*a }.unlinked.load(Ordering::SeqCst));
        assert!(head_is(&list, b));
        let out = unsafe { list.leave(a, MATCHED) };
        assert!(matches!(out, TransferOutcome::Transferred(Some(1))));
        assert!(head_is(&list, b), "an unlinked node leaves the head alone");
        let out = unsafe { list.leave(b, MATCHED) };
        assert!(matches!(out, TransferOutcome::Transferred(Some(2))));
        assert!(head_is(&list, b), "the dummy leaves the head alone");
        assert_eq!(list.linked_nodes(), 1);
        assert!(list.is_front(c), "c is untouched");
        assert!(unsafe { &*c }.slot.is_waiting());
        unsafe { WaitNode::release(c) };
    }

    #[test]
    fn the_front_is_the_node_behind_the_dummy_and_stays_it() {
        let list: List<u32> = DualList::default();
        let [a, b] = [(); 2].map(|_| append(&list, None));
        assert!(list.is_front(a) && !list.is_front(b));
        fulfill_front(&list, 1);
        // `a` is the dummy now: decided, so no longer in line.
        assert!(!list.is_front(a) && list.is_front(b));
        assert!(matches!(
            unsafe { list.leave(a, MATCHED) },
            TransferOutcome::Transferred(Some(1))
        ));
        assert!(list.is_front(b), "a leaving predecessor does not move it");
        assert!(unsafe { &*b }.slot.try_cancel());
        assert!(matches!(
            unsafe { list.leave(b, WaitOutcome::Cancelled) },
            TransferOutcome::Cancelled(None)
        ));
    }

    #[test]
    fn drop_frees_unmatched_data_nodes() {
        let drops = AtomicUsize::new(0);
        let list: List<Counted<'_>> = DualList::default();
        for _ in 0..3 {
            let node = append(&list, Some(Counted(&drops)));
            // As an asynchronous producer does: nobody waits on the node.
            unsafe { WaitNode::release(node) };
        }
        assert_eq!(list.linked_nodes(), 3);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(list);
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }
}
