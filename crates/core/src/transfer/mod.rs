//! TransferQueue — the paper's §5 extension, adopted into Java 7 as
//! `LinkedTransferQueue`.
//!
//! > "TransferQueues permit producers to enqueue data either synchronously
//! > or asynchronously. … The base synchronous support in TransferQueues
//! > mirrors our fair synchronous queue. The asynchronous additions differ
//! > only by releasing producers before items are taken."
//!
//! [`TransferQueue`] is a [`crate::dual_list`], the linked list under the
//! fair synchronous queue, with a buffer in front of it. The list's steps
//! (snapshot, append, front, advance, leave) and its node lifetime are the
//! kernel's; what is here is the policy over them: what a linked producer
//! waits for (a consumer, a ring slot, or nothing), the counts kept beside
//! the list, and the ring re-checks that keep one FIFO. A *synchronous*
//! `transfer` needs a wait-node (the
//! producer blocks on it until a consumer takes the item), and so does a
//! consumer that finds nothing to take (its reservation). A *buffered*
//! [`TransferQueue::put`] has no waiter, so it needs no node: it is one
//! push into a [`RingBuffer`] — a cycle-versioned circular array (DESIGN
//! §4.11) with no allocation, no epoch pin and no retirement per item.
//!
//! # One way to receive
//!
//! `take`/`poll` pop the ring first and look at the list only once the
//! ring is empty. A consumer that finds both empty publishes a linked
//! reservation and waits on it; whoever next pushes into the ring claims
//! the oldest reservation and hands it the ring's head, so a waiting
//! consumer is handed its item, not woken to race for it. That holds in
//! both modes, so [`TransferQueue::try_transfer`], the channel-trait
//! `offer`, [`TransferQueue::has_waiting_consumer`] and use as an executor
//! channel work on every `TransferQueue` as they do on the plain dual
//! queue. The modes differ on the put side only, in what a full ring
//! means.
//!
//! # A full ring means overflow or wait
//!
//! `put` pushes into the ring while the list holds no linked data and the
//! ring has room. Otherwise it links a data node behind what is queued,
//! exactly as the paper's asynchronous enqueue does, and the modes differ
//! only in what the producer does next:
//!
//! * [`TransferQueue::new`] keeps a small internal ring (about 32 KiB of
//!   slots, not configurable) and the producer returns at once
//!   (*overflow*), so the queue stays unbounded.
//! * [`TransferQueue::bounded`] sizes the ring explicitly and the producer
//!   *waits* on its node until its item has a place: whoever frees a slot
//!   or moves the list's front moves the oldest waiting put's item to the
//!   ring's tail and completes its node, as a push hands a waiting
//!   consumer the ring's head.
//!
//! Because nothing enters the ring while linked data is queued, ring items
//! are always older than linked data, and in both modes the queue is
//! **one FIFO** across `put`, `transfer` and the batch calls: a call is
//! received after every call the same producer issued before it. (So a
//! bounded `put` issued while a `transfer` waits waits too, until that
//! transfer is taken.) While nothing is linked, batches move with one
//! index CAS ([`TransferQueue::put_batch`] /
//! [`TransferQueue::take_batch`]). Use [`BufferedChannel`] for trait-level
//! buffered semantics.
//!
//! # Next in line spins
//!
//! A linked producer waits for a consumer to get through everything
//! ahead of it, and while that is the ring, it can watch the consumer
//! come: the ring's occupancy falls. So it does not park when its spin
//! budget runs out while it is the list's front and the occupancy keeps
//! falling; it spins on, one window at a time, until the ring is empty
//! and one window more, and parks only if the drain stalls. This is the
//! paper's "nodes next in line for fulfillment spin briefly", and it holds
//! whatever budget the queue's calibrated [`SpinPolicy`] has learnt: a
//! handoff caught this way is taught to the calibrator as the direct
//! handoff it was. Consumers spin and park by the policy alone.
//!
//! # The ringless mode: the synchronous queue
//!
//! [`crate::SyncDualQueue`] is this queue without a ring, in a private
//! mode that only its constructors set. Its producers and consumers arrive
//! through the same loop as a `transfer` and a `take` do here, and every
//! step that serves the ring is skipped: nothing is counted beside the
//! list, no ring is popped for a reservation or re-checked before a take,
//! and no async receiver is notified. What is left is the paper's Listing
//! 5, in one place for both queues.

mod ring;
mod waiters;

pub use ring::RingBuffer;

use crate::dual_list::{DualList, Leave, NodePermit, Start, WaitNode, DATA, MOVABLE, REQUEST};
use crate::{
    impl_sync_channel, CancelToken, Deadline, PendingTransfer, PollTransferer, SpinPolicy,
    StartTransfer, TimedSyncChannel, TransferOutcome,
};
use std::cell::Cell;
use std::ops::ControlFlow;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{ready, Poll, Waker};
use std::time::Duration;
use synq_obs::probe;
use synq_primitives::cancel::Registration;
use synq_primitives::{Backoff, CachePadded, WaitOutcome, WaitStrategy};
use synq_reclaim::{Epoch, Reclaimer};
use waiters::{Entry, WaiterQueue};

/// What a linked producer waits for. A buffered put links only when the
/// ring is full or linked data is already queued ahead (its *overflow*).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum PutMode {
    /// Nothing: link and return (an unbounded queue's overflow).
    Async,
    /// A ring slot: wait until `refill` moves the item into the ring (a
    /// bounded queue's overflow, a [`MOVABLE`] node).
    Wait,
    /// A counterpart: a `transfer` waits until a consumer takes its item.
    /// Every consumer arrives in this mode too, to wait for a producer.
    Sync,
}

/// What the linked list holds, counted beside it so the ring paths decide
/// without pinning: producers push into the ring only while `data` is 0,
/// look for a reservation after a push only while `reservations` is not,
/// and look for a waiting put after a pop only while `waiting_puts` is
/// not.
///
/// Neither count may ever read *lower* than what the list holds, not even
/// for an instant: a producer that read a 0 which hid a linked data node
/// would push a younger item into the ring, ahead of it, and one that
/// read a 0 which hid a parked consumer would not wake it. (A count that
/// reads too high only sends someone down a slower path for nothing.) So
/// neither is ever decremented ahead of its own increment, which rules
/// out "count after the link, uncount on the claim": a claim can land
/// before the publisher has counted.
#[derive(Default)]
struct LinkedCounts {
    /// Data nodes (synchronous transfers, overflow and waiting puts):
    /// counted by the producer *before* its publishing CAS (and uncounted
    /// if that CAS fails), uncounted by whoever wins the node, the claiming
    /// consumer or `refill` or the cancelling owner, all of which can only
    /// follow the link.
    data: AtomicUsize,
    /// The waiting puts among them, counted and uncounted with `data` by
    /// the same hands. Pops key on this and not on `data`: a linked
    /// `transfer` keeps `data` at 1 for as long as it waits, and every pop
    /// in that time would pin for nothing.
    waiting_puts: AtomicUsize,
    /// Consumers with a published reservation: counted by the consumer
    /// right *after* its publishing CAS (so that a producer that reads the
    /// count also sees the node) and uncounted by the same consumer when
    /// it stops waiting, however that came about. A fulfilled consumer
    /// that has not yet woken up is still counted.
    reservations: AtomicUsize,
}

/// Byte budget for the slots of the ring inside an *unbounded* queue. The
/// slot count is this divided by the slot size, clamped to
/// [`UNBOUNDED_RING_MIN_SLOTS`, `UNBOUNDED_RING_MAX_SLOTS`] and rounded
/// down to a power of two: sized in bytes so that a queue of large
/// payloads does not balloon.
const UNBOUNDED_RING_BYTES: usize = 32 * 1024;
const UNBOUNDED_RING_MIN_SLOTS: usize = 64;
const UNBOUNDED_RING_MAX_SLOTS: usize = 1024;

fn unbounded_ring_slots<T>() -> usize {
    let fit = (UNBOUNDED_RING_BYTES / RingBuffer::<T>::SLOT_BYTES)
        .clamp(UNBOUNDED_RING_MIN_SLOTS, UNBOUNDED_RING_MAX_SLOTS);
    1 << fit.ilog2()
}

/// A queue supporting both synchronous and asynchronous enqueue, buffered
/// through an array-backed ring (internal, overflowing to the linked list,
/// by default; explicit, its overflow producers waiting, with
/// [`Self::bounded`]).
///
/// # Examples
///
/// ```
/// use synq::transfer::TransferQueue;
///
/// let q = TransferQueue::new();
/// q.put(1);          // asynchronous: returns immediately
/// q.put(2);
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.take(), 1); // FIFO
/// assert_eq!(q.take(), 2);
/// ```
///
/// Bounded mode makes an overflowing `put` wait instead:
///
/// ```
/// use synq::transfer::TransferQueue;
///
/// let q = TransferQueue::bounded(4);
/// assert_eq!(q.capacity(), Some(4));
/// assert_eq!(q.try_put(1), Ok(()));
/// assert_eq!(q.try_put(2), Ok(()));
/// assert_eq!(q.poll(), Some(1));
/// assert_eq!(q.poll(), Some(2));
/// ```
pub struct TransferQueue<T> {
    /// Rendezvous (synchronous transfers, consumers' reservations) and
    /// overflow.
    pub(crate) list: DualList<T>,
    pub(crate) spin: SpinPolicy,
    /// The array fast path in front of the linked protocol.
    ring: RingBuffer<T>,
    /// What an overflow producer does once linked: wait for a ring slot
    /// (bounded) or return (unbounded). Read only to choose its
    /// [`PutMode`].
    bounded: bool,
    /// The synchronous queue's mode: the ring has no slots, so nothing is
    /// counted, popped, re-checked or notified for it (module docs).
    ringless: bool,
    counts: CachePadded<LinkedCounts>,
    /// Async receivers, in either mode, waiting for an item. They stay on
    /// a wait list because a dropped future cannot be trusted with one
    /// (see `waiters`); a thread that waits for an item is a reservation.
    item_waiters: WaiterQueue,
}

// Layout: the list's padded ends must survive embedding, so that linked
// producers and consumers never false-share.
const _: () = assert!(std::mem::align_of::<TransferQueue<u8>>() >= 128);
const _: () = assert!(std::mem::size_of::<TransferQueue<u8>>() >= 2 * 128);

impl<T: Send> Default for TransferQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> TransferQueue<T> {
    /// Creates an empty unbounded queue.
    pub fn new() -> Self {
        Self::with_spin(SpinPolicy::adaptive())
    }

    /// Creates an empty unbounded queue with an explicit spin policy.
    pub fn with_spin(spin: SpinPolicy) -> Self {
        Self::build(spin, RingBuffer::new(unbounded_ring_slots::<T>()), false)
    }

    /// Creates a bounded queue: buffered `put`/`poll` ride a
    /// [`RingBuffer`] of `capacity` slots (rounded up to a power of two,
    /// minimum 2), and a `put` that cannot go into it waits, linked, for a
    /// slot. `transfer` still rendezvouses through the linked protocol.
    pub fn bounded(capacity: usize) -> Self {
        Self::bounded_with_spin(capacity, SpinPolicy::adaptive())
    }

    /// [`Self::bounded`] with an explicit spin policy.
    pub fn bounded_with_spin(capacity: usize, spin: SpinPolicy) -> Self {
        Self::build(spin, RingBuffer::new(capacity), true)
    }

    /// The ringless mode, built only by [`crate::SyncDualQueue`].
    pub(crate) fn ringless(spin: SpinPolicy) -> Self {
        TransferQueue {
            ringless: true,
            ..Self::build(spin, RingBuffer::without_slots(), false)
        }
    }

    fn build(spin: SpinPolicy, ring: RingBuffer<T>, bounded: bool) -> Self {
        TransferQueue {
            list: DualList::default(),
            spin,
            ring,
            bounded,
            ringless: false,
            counts: CachePadded::new(LinkedCounts::default()),
            item_waiters: WaiterQueue::default(),
        }
    }

    /// Ring capacity in bounded mode, `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.bounded.then(|| self.ring.capacity())
    }

    // ------------------------------------------------------ producer API

    /// Asynchronous (buffered) enqueue: publishes into the ring, or links
    /// an overflow node when the ring is full or linked data is already
    /// queued. Unbounded, it returns either way; bounded, it waits on that
    /// node until the item has a ring slot.
    ///
    /// **Name-resolution note:** this inherent method shadows
    /// `SyncChannel::put` (which maps to the *synchronous* [`TransferQueue::transfer`])
    /// when called as `q.put(v)` on a concrete `TransferQueue`. Through a
    /// `dyn SyncChannel` or a generic bound, `put` is synchronous — the
    /// same put/transfer duality as Java's `LinkedTransferQueue`.
    pub fn put(&self, value: T) {
        match self.put_with(value, Deadline::Never, None) {
            TransferOutcome::Transferred(_) => {}
            _ => unreachable!("untimed put cannot fail"),
        }
    }

    /// Buffered enqueue only if it can complete immediately. Unbounded
    /// queues always accept; bounded queues refuse (returning the value)
    /// when the item cannot enter the ring now: the ring is full, or
    /// linked data (a waiting `transfer` or put) is queued ahead of it.
    pub fn try_put(&self, value: T) -> Result<(), T> {
        self.put_with(value, Deadline::Now, None).sent()
    }

    /// Buffered enqueue, waiting up to `patience` for ring space.
    pub fn put_timeout(&self, value: T, patience: Duration) -> Result<(), T> {
        self.put_with(value, Deadline::after(patience), None).sent()
    }

    /// Fully general buffered enqueue. The deadline/token only matter in
    /// bounded mode (an unbounded buffered put never waits).
    ///
    /// **Name-resolution note:** as with [`Self::put`], this inherent
    /// method shadows `TimedSyncChannel::put_with`, which is the
    /// *synchronous* [`Self::transfer_with`]. Called as `q.put_with(..)` on
    /// a concrete `TransferQueue` it buffers; through a
    /// `dyn TimedSyncChannel` or a generic bound it waits for a consumer.
    pub fn put_with(
        &self,
        value: T,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        // The first step stays out of the loop: a `value` carried round it
        // is copied to the stack on the ring's path too, which cost
        // `buffered_linked` a tenth of its throughput.
        let mut step = self.put_step(value, deadline, token);
        loop {
            let node = match step {
                ControlFlow::Continue(node) => node,
                ControlFlow::Break(outcome) => return outcome,
            };
            // SAFETY: our own published node, ours to wait on.
            step = match unsafe { self.wait(node, deadline, token, &DrainSpin::new(self, node)) } {
                // Handed back by a `refill` that lost the slot: again.
                TransferOutcome::Transferred(Some(back)) => self.put_step(back, deadline, token),
                outcome => return outcome,
            };
        }
    }

    /// Synchronous enqueue: waits until a consumer receives the item.
    pub fn transfer(&self, value: T) {
        match self.transfer_with(value, Deadline::Never, None) {
            TransferOutcome::Transferred(_) => {}
            _ => unreachable!("untimed transfer cannot fail"),
        }
    }

    /// Synchronous enqueue only if a consumer is already waiting: a thread
    /// blocked in [`Self::take`] (or a timed `poll`) on an empty queue, in
    /// either mode. Async receivers are woken by buffered sends and by
    /// linked data, never handed an item, so they do not count here.
    pub fn try_transfer(&self, value: T) -> Result<(), T> {
        self.transfer_with(value, Deadline::Now, None).sent()
    }

    /// Synchronous enqueue with patience.
    pub fn transfer_timeout(&self, value: T, patience: Duration) -> Result<(), T> {
        self.transfer_with(value, Deadline::after(patience), None)
            .sent()
    }

    /// Fully general synchronous enqueue.
    pub fn transfer_with(
        &self,
        value: T,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match self.xfer(Some(value), PutMode::Sync, deadline, token) {
            // SAFETY: our own published node, ours to wait on.
            ControlFlow::Continue(node) => unsafe {
                self.wait(node, deadline, token, &DrainSpin::new(self, node))
            },
            ControlFlow::Break(outcome) => outcome,
        }
    }

    // ------------------------------------------------------ consumer API

    /// Receives a value, waiting if necessary: as a linked reservation,
    /// which the next producer completes with the oldest item there is.
    /// Ring items are received before linked data, which is the queue's
    /// one FIFO order in both modes.
    pub fn take(&self) -> T {
        match self.take_with(Deadline::Never, None) {
            TransferOutcome::Transferred(Some(v)) => v,
            _ => unreachable!("untimed take cannot fail"),
        }
    }

    /// Receives a buffered or offered value without waiting. `None` means
    /// nothing was there to take (or that the ring's oldest item is still
    /// being written by its producer).
    pub fn poll(&self) -> Option<T> {
        self.take_with(Deadline::Now, None).into_inner()
    }

    /// `poll` with patience.
    pub fn poll_timeout(&self, patience: Duration) -> Option<T> {
        self.take_with(Deadline::after(patience), None).into_inner()
    }

    /// Fully general receive, the same in both modes: the ring first; the
    /// list (its data, else a reservation of our own) only once the ring's
    /// indices say it is empty.
    pub fn take_with(&self, deadline: Deadline, token: Option<&CancelToken>) -> TransferOutcome<T> {
        let backoff = Backoff::new();
        loop {
            if let Some(v) = self.ring_pop() {
                return TransferOutcome::Transferred(Some(v));
            }
            if !self.ring.is_empty() {
                // The head slot is claimed by a producer that has not
                // published it yet. Linked data is younger than that item,
                // so wait for it instead of looking at the list.
                if deadline.is_now() {
                    return TransferOutcome::Timeout(None);
                }
                backoff.snooze();
                continue;
            }
            if deadline.is_now() && self.linked_data() == 0 {
                return TransferOutcome::Timeout(None);
            }
            if let Some(outcome) = self.consumer(deadline, token) {
                return outcome;
            }
        }
    }

    // --------------------------------------------------------- batch API

    /// Transfers every item in `items` (buffered), in order, waiting as
    /// [`Self::put`] does; on return the vector is empty. While no linked
    /// data is queued, each run of items that fits the ring is published
    /// with a single tail update (see [`RingBuffer::try_push_batch`]).
    pub fn put_batch(&self, items: &mut Vec<T>) {
        self.put_all(items, Deadline::Never);
    }

    /// Transfers as many items from the front of `items` as can go without
    /// waiting, leaving the rest. Returns how many were sent. Unbounded
    /// queues accept everything.
    pub fn try_put_batch(&self, items: &mut Vec<T>) -> usize {
        self.put_all(items, Deadline::Now)
    }

    /// The batch puts: the ring while no linked data is queued, then a
    /// buffered put per leftover item, up to the first one refused.
    fn put_all(&self, items: &mut Vec<T>, deadline: Deadline) -> usize {
        let n = items.len();
        if self.linked_data() == 0 {
            self.ring_push_all(items);
        }
        // Reversed, the next leftover is the last element.
        items.reverse();
        while let Some(value) = items.pop() {
            if let Some(refused) = self.put_with(value, deadline, None).into_inner() {
                items.push(refused);
                break;
            }
        }
        items.reverse();
        n - items.len()
    }

    /// Receives up to `max` items into `out`, blocking until at least one
    /// is available (when `max > 0`). Returns how many arrived. Each
    /// available run of ring items is claimed with a single head update.
    pub fn take_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let got = self.try_take_batch(out, max);
        if got > 0 {
            return got;
        }
        match self.take_with(Deadline::Never, None) {
            TransferOutcome::Transferred(Some(v)) => out.push(v),
            _ => unreachable!("untimed take cannot fail"),
        }
        1 + self.try_take_batch(out, max - 1)
    }

    /// Receives up to `max` immediately-available items into `out` without
    /// blocking. Returns how many arrived. Ring items are drained first,
    /// then linked data (waiting synchronous transfers and overflow).
    pub fn try_take_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut got = 0;
        loop {
            let popped = self.ring_pop_batch(out, max - got);
            if popped == 0 {
                break;
            }
            got += popped;
        }
        while got < max && self.linked_data() > 0 {
            match self.consumer(Deadline::Now, None) {
                Some(TransferOutcome::Transferred(Some(v))) => {
                    out.push(v);
                    got += 1;
                }
                _ => break,
            }
        }
        got
    }

    // ------------------------------------------------------- inspection

    /// Number of buffered (unmatched, uncancelled) data items: ring
    /// occupancy plus linked data (published-but-unclaimed synchronous
    /// transfers, overflow and waiting puts: a consumer may take any of
    /// them now). O(1) and guard-free in both modes
    /// (three atomic loads); approximate under concurrency.
    pub fn len(&self) -> usize {
        self.ring.len() + self.linked_data()
    }

    /// True if no data is buffered (ring *and* linked chain — see
    /// [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if at least one consumer is blocked waiting for an element
    /// (mirrors `LinkedTransferQueue.hasWaitingConsumer`). Producers can
    /// use this to decide between `put` and `transfer`.
    pub fn has_waiting_consumer(&self) -> bool {
        self.waiting_consumer_count() > 0
    }

    /// Number of consumers waiting for an element (mirrors
    /// `LinkedTransferQueue.getWaitingConsumerCount`): linked reservations
    /// (blocked threads) plus the item wait list (pending async
    /// receivers). O(1); approximate under concurrency.
    pub fn waiting_consumer_count(&self) -> usize {
        self.reservations() + self.item_waiters.hint()
    }

    /// Linked data nodes not yet claimed or cancelled (see [`LinkedCounts`]).
    fn linked_data(&self) -> usize {
        self.counts.data.load(Ordering::SeqCst)
    }

    /// Consumers waiting on a linked reservation (see [`LinkedCounts`]).
    fn reservations(&self) -> usize {
        self.counts.reservations.load(Ordering::SeqCst)
    }

    // ---------------------------------------------------- the ring's door
    //
    // Every item enters and leaves the ring through these, which pair the
    // index move with its announcement: a push with `after_ring_push`, a
    // pop with `refill` (one load of a count that is 0 unless a put
    // waits, so always 0 on an unbounded queue). `refill` pushes through
    // the ring itself, and announces as `ring_push` does.

    fn ring_push(&self, value: T) -> Result<(), T> {
        self.ring.try_push(value)?;
        self.after_ring_push(1);
        Ok(())
    }

    /// Pushes run after run from the front of `items` until they are all
    /// in or the ring is full. Returns how many went in.
    fn ring_push_all(&self, items: &mut Vec<T>) -> usize {
        let mut sent = 0;
        loop {
            let pushed = self.ring.try_push_batch(items);
            self.after_ring_push(pushed);
            sent += pushed;
            if pushed == 0 || items.is_empty() {
                return sent;
            }
        }
    }

    fn ring_pop(&self) -> Option<T> {
        let value = self.ring.try_pop()?;
        self.refill();
        Some(value)
    }

    fn ring_pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let popped = self.ring.try_pop_batch(out, max);
        self.refill();
        popped
    }

    /// Hands the `pushed` items just published into the ring to whoever
    /// waits for them: linked reservations first (oldest first, each
    /// handed the ring's head), then a wakeup for async receivers on the
    /// item list.
    ///
    /// Lost-wakeup discipline, the same Dekker shape as `waiters`: the
    /// push is a SeqCst CAS on the ring's tail followed here by a SeqCst
    /// load of the reservation count; a consumer links its reservation,
    /// bumps that count (SeqCst) and then re-reads the ring's indices
    /// (SeqCst). One of the two sees the other, so no consumer parks
    /// beside a non-empty ring; and a producer that reads the bump also
    /// sees the node linked before it.
    #[inline]
    fn after_ring_push(&self, pushed: usize) {
        let mut unannounced = pushed;
        while unannounced > 0 && self.reservations() > 0 && self.serve_reservation() {
            unannounced -= 1;
        }
        self.item_waiters.notify(unannounced);
    }

    /// Claims the oldest linked reservation and hands it the ring's oldest
    /// item. Returns false when no reservation could be claimed.
    fn serve_reservation(&self) -> bool {
        loop {
            let guard = Epoch::pin();
            let at = self.list.arrive(&guard);
            if at.is_empty() || at.tail_is_data() {
                return false;
            }
            let Some(m) = at.front() else { continue };
            let claimed = self.fulfill_reservation(&m, &mut None);
            at.advance_past(m);
            if claimed {
                probe!(RingReservationWakes);
                return true;
            }
        }
    }

    /// Claims the reservation `m` and completes it with the oldest item
    /// there is: the ring's head if the ring holds anything, else the
    /// caller's `own` item (a linked producer's; taken only when
    /// delivered). Returns false if the claim was lost.
    ///
    /// This is what keeps data from overtaking data: a consumer receives
    /// an item only from the ring's head, or from a linked producer when
    /// the ring's indices say it is empty. A reservation completed with no
    /// item (the ring was drained by someone else, or its head slot is
    /// claimed but not yet published) makes its consumer retry.
    ///
    /// The pop is made on the consumer's behalf, so it goes through
    /// `ring_pop` like the consumer's own would: on a bounded queue it
    /// frees a slot a waiting put may be counted for.
    fn fulfill_reservation(&self, m: &WaitNode<T>, own: &mut Option<T>) -> bool {
        if !m.slot.try_claim() {
            probe!(QueueClaimCasFail);
            return false;
        }
        probe!(QueueClaimCas);
        let popped = if self.ringless { None } else { self.ring_pop() };
        let item = match popped {
            None if self.ringless || self.ring.is_empty() => own.take(),
            popped => popped,
        };
        if let Some(v) = item {
            // SAFETY: the claim grants slot write access.
            unsafe { m.slot.put_item(v) };
        }
        m.slot.complete();
        true
    }

    // ------------------------------------------------------- waiting puts

    /// Run by a thread that moved the list's front (it took linked data,
    /// or withdrew a data node): that move is no SeqCst access, so a fence
    /// orders it before `refill`'s load of the count.
    fn after_front_change(&self) {
        if !self.ringless {
            fence(Ordering::SeqCst);
            self.refill();
        }
    }

    /// Moves waiting puts into the ring, oldest first, while the list's
    /// front is one and the ring has room: claims the front node, moves
    /// its item to the ring's tail ([`Self::move_to_ring`]) and completes
    /// it. The mirror image of `after_ring_push` serving reservations. A
    /// synchronous `transfer` at the front stops it: that item may only go
    /// to a consumer, and nothing behind it may overtake it. Every thread
    /// that frees a ring slot runs it, at the cost of one load while no
    /// put waits.
    ///
    /// Lost-wakeup discipline (DESIGN §4.11 invariant 4). A waiting put is
    /// counted (SeqCst) before its link and runs this itself right after
    /// it; a popper pops (SeqCst CAS) and then loads the count here
    /// (SeqCst). If the popper reads 0, the count came later, so the
    /// producer's `is_full` in `refill_from_front` sees the pop. If it
    /// reads the count, both go on, and of the two fences there, the later
    /// one's thread sees both the pop and the link. A thread that moved
    /// the front fences before it reads the count (`after_front_change`),
    /// to the same effect.
    #[inline]
    fn refill(&self) {
        if self.counts.waiting_puts.load(Ordering::SeqCst) > 0 {
            self.refill_from_front();
        }
    }

    /// The body of [`Self::refill`], kept out of line so that a pop pays a
    /// load and a branch while no put waits.
    fn refill_from_front(&self) {
        fence(Ordering::SeqCst);
        loop {
            let guard = Epoch::pin();
            let at = self.list.arrive(&guard);
            if at.is_empty() || !at.tail_is_data() {
                return;
            }
            let Some(m) = at.front() else { continue };
            if !m.is_movable() || self.ring.is_full() {
                return;
            }
            let claimed = m.slot.try_claim();
            if claimed {
                probe!(QueueClaimCas);
            } else {
                probe!(QueueClaimCasFail);
            }
            let moved = claimed && self.move_to_ring(&m);
            at.advance_past(m);
            if claimed && !moved {
                return;
            }
            drop(guard);
            if moved {
                self.after_ring_push(1);
            }
        }
    }

    /// Moves the item of `m`, a waiting put this thread has claimed, to
    /// the ring's tail and completes `m`. Returns false if the ring was
    /// full after all: the push lost to a producer that read `data` as 0
    /// just before `m` was counted. `m` is then completed with its item
    /// still in it, and its owner retries ([`Leave::leave`]), as a
    /// reservation completed without an item does. A claim is never undone:
    /// the list's helping rule reads a lost claim as "decided, unlink it".
    fn move_to_ring(&self, m: &WaitNode<T>) -> bool {
        // SAFETY: the claim gives us the cell alone, as an unpublished
        // node's owner has it; a failed push puts the item back.
        let item = unsafe { m.slot.reclaim_item() };
        let pushed = match self.ring.try_push(item) {
            Ok(()) => true,
            // SAFETY: as above; `reclaim_item` left the cell empty.
            Err(back) => unsafe {
                m.slot.put_item(back);
                false
            },
        };
        self.uncount(true);
        m.slot.complete();
        pushed
    }

    // ---------------------------------------------------------- internals

    /// Counts a data node about to be linked (see [`LinkedCounts`]); the
    /// waiting-put count goes up last, the waiter's first access of the
    /// handshake in [`Self::refill`].
    fn count(&self, waiting_put: bool) {
        if !self.ringless {
            self.counts.data.fetch_add(1, Ordering::SeqCst);
            if waiting_put {
                self.counts.waiting_puts.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Uncounts a data node: the winner's part (see [`LinkedCounts`]).
    fn uncount(&self, waiting_put: bool) {
        if !self.ringless {
            if waiting_put {
                self.counts.waiting_puts.fetch_sub(1, Ordering::SeqCst);
            }
            self.counts.data.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// One pass of a buffered put that never waits: into the ring while
    /// no linked data is queued and the ring has room, else linked (see
    /// [`Self::xfer`]); a bounded queue's put is then to be waited on and
    /// settled.
    fn put_step(&self, mut value: T, deadline: Deadline, token: Option<&CancelToken>) -> Start<T> {
        if self.linked_data() == 0 {
            match self.ring_push(value) {
                Ok(()) => return ControlFlow::Break(TransferOutcome::Transferred(None)),
                Err(back) => value = back,
            }
        }
        let mode = if self.bounded {
            PutMode::Wait
        } else {
            PutMode::Async
        };
        // Refused before `xfer` pins: a `try_put` on a full ring stays as
        // pin-free as one that succeeds.
        if mode == PutMode::Wait && deadline.is_now() {
            return ControlFlow::Break(TransferOutcome::Timeout(Some(value)));
        }
        self.xfer(Some(value), mode, deadline, token)
    }

    /// The one arrival, the paper's Listing 5 with the ring's steps
    /// beside it: a producer (`item` is `Some`) or a consumer (`None`)
    /// links its node behind the nodes of its own mode, or takes the
    /// oldest node of the other mode. `mode` is what a linked producer
    /// waits for. Breaks when there is nothing to wait for:
    ///
    /// * a producer's item went to a reservation (which gets the oldest
    ///   item there is, see [`Self::fulfill_reservation`]) or onto an
    ///   async node;
    /// * a consumer took the front's item, or found the ring holding
    ///   items older than the front: `Transferred(None)`, go back to the
    ///   ring;
    /// * the deadline or token refused the wait before the link.
    ///
    /// Inlined: called out of line, it cost `SyncDualQueue`'s poll-mode
    /// handoff about 13 % over the loop it replaced (EXPERIMENTS P38).
    #[inline]
    pub(crate) fn xfer(
        &self,
        mut item: Option<T>,
        mode: PutMode,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> Start<T> {
        let is_data = item.is_some();
        let waiting_put = mode == PutMode::Wait;
        // Nobody waits on an async node: it is created exited.
        let waited = mode != PutMode::Async;
        let kind = match (is_data, waiting_put) {
            (false, _) => REQUEST,
            (true, false) => DATA,
            (true, true) => DATA | MOVABLE,
        };
        let mut node = None;
        let backoff = Backoff::new();
        loop {
            let guard = Epoch::pin();
            let at = self.list.arrive(&guard);

            if at.is_empty() || at.tail_is_data() == is_data {
                // Empty, or our own mode queued: append ours.
                if !at.tail_settled() {
                    continue;
                }
                if mode != PutMode::Async {
                    if deadline.is_now() {
                        if !is_data && self.linked_data() > 0 {
                            // A counted data node is an instant from being
                            // linked (or from being uncounted): `len()`
                            // already reports it, so do not report nothing.
                            drop(guard);
                            backoff.snooze();
                            continue;
                        }
                        return ControlFlow::Break(TransferOutcome::Timeout(item));
                    }
                    if token.is_some_and(|tk| tk.is_cancelled()) {
                        return ControlFlow::Break(TransferOutcome::Cancelled(item));
                    }
                }
                let owned = node.take().unwrap_or_else(|| WaitNode::alloc(kind, waited));
                if let Some(v) = item.take() {
                    // SAFETY: unpublished node, exclusively ours.
                    unsafe { owned.slot.put_item(v) };
                    // Counted before it is linked (see `LinkedCounts`).
                    self.count(waiting_put);
                }
                match at.try_append(owned) {
                    Ok(published) => {
                        drop(guard);
                        if is_data && !self.ringless {
                            // Wake an async receiver (they wait on the
                            // item list, not as reservations). The SeqCst
                            // increment in `count` and the hint load
                            // inside `notify` are the notifier half of the
                            // handshake in `waiters`; a pending receiver
                            // reads that count.
                            self.item_waiters.notify(1);
                            if mode == PutMode::Async {
                                probe!(RingOverflowPuts);
                                return ControlFlow::Break(TransferOutcome::Transferred(None));
                            }
                            if waiting_put {
                                probe!(RingFullWaits);
                                // Our own step: the waiter half of the
                                // handshake in `refill`.
                                self.refill();
                            }
                        }
                        return ControlFlow::Continue(published);
                    }
                    Err(owned) => {
                        if is_data {
                            self.uncount(waiting_put);
                            // SAFETY: unpublished; reclaim the item.
                            item = Some(unsafe { owned.slot.reclaim_item() });
                        }
                        node = Some(owned);
                        continue;
                    }
                }
            }

            let Some(m) = at.front() else { continue };
            if is_data {
                // Reservations at the front: fulfill the oldest. It gets
                // the ring's oldest item if there is one (then we go round
                // again with ours), else ours.
                let claimed = self.fulfill_reservation(&m, &mut item);
                at.advance_past(m);
                if claimed && item.is_none() {
                    return ControlFlow::Break(TransferOutcome::Transferred(None));
                }
                continue;
            }
            // Data at the front: take the oldest. Everything `m`'s
            // producer pushed into the ring before it linked `m` is
            // visible now that `m` is, so a ring that reads empty *here*
            // holds nothing older than `m` from that producer. (The
            // caller's own emptiness check came before `m` was read and
            // proves nothing about it.)
            if !self.ringless && !self.ring.is_empty() {
                return ControlFlow::Break(TransferOutcome::Transferred(None));
            }
            let mut taken = None;
            if m.slot.try_claim() {
                probe!(QueueClaimCas);
                // SAFETY: claim grants slot read access.
                taken = Some(unsafe { m.slot.take_item() });
                self.uncount(m.is_movable());
                m.slot.complete();
            } else {
                probe!(QueueClaimCasFail);
            }
            at.advance_past(m);
            if taken.is_some() {
                drop(guard);
                // A waiting put may be at the front now, with the ring
                // empty.
                self.after_front_change();
                return ControlFlow::Break(TransferOutcome::Transferred(taken));
            }
        }
    }

    /// The linked consumer: [`Self::xfer`]'s reservation, counted while
    /// it waits. `None`: the ring is no longer empty (its items are older
    /// than anything linked), or our reservation was completed without an
    /// item; the caller goes back to the ring.
    fn consumer(
        &self,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> Option<TransferOutcome<T>> {
        let published = match self.xfer(None, PutMode::Sync, deadline, token) {
            ControlFlow::Continue(published) => published,
            ControlFlow::Break(TransferOutcome::Transferred(None)) => return None,
            ControlFlow::Break(outcome) => return Some(outcome),
        };
        // The waiter half of the handshake in `after_ring_push`: count
        // ourselves (SeqCst), then re-read the ring's indices (SeqCst). A
        // push that missed the count is seen here, and we retract; losing
        // the cancel CAS means a producer is already completing us.
        self.counts.reservations.fetch_add(1, Ordering::SeqCst);
        // SAFETY: we are its waiter, not yet exited.
        let slot = unsafe { &(*published).slot };
        let outcome = if !self.ring.is_empty() && slot.try_cancel() {
            // SAFETY: our own node, and we won its cancel CAS.
            unsafe { self.list.leave(published, WaitOutcome::Cancelled) };
            None
        } else {
            probe!(RingEmptyWaits);
            // SAFETY: our own published node, ours to wait on.
            match unsafe { self.wait(published, deadline, token, &self.spin) } {
                TransferOutcome::Transferred(None) => None,
                outcome => Some(outcome),
            }
        };
        self.counts.reservations.fetch_sub(1, Ordering::SeqCst);
        outcome
    }
}

// The queue's settle step, how a linked producer or consumer stops
// waiting. Besides what the list's `leave` reports: a reservation
// completed without an item (see `fulfill_reservation`) reports
// `Transferred(None)`, which no consumer otherwise sees; a waiting put
// handed back with its item (see `move_to_ring`) reports
// `Transferred(Some(item))`, which no producer otherwise sees; a data node
// we withdraw is uncounted (see `LinkedCounts`), and its withdrawal may
// have moved the list's front. The ringless mode has none of the three: it
// is the list's `leave` alone.
impl<T: Send> Leave<T> for TransferQueue<T> {
    unsafe fn leave(&self, node: *const WaitNode<T>, verdict: WaitOutcome) -> TransferOutcome<T> {
        if self.ringless {
            // SAFETY: per the contract.
            return unsafe { self.list.leave(node, verdict) };
        }
        // SAFETY: the node is not freed before its waiter exits.
        let own = unsafe { &*node };
        let matched = matches!(verdict, WaitOutcome::Matched(_));
        let withdrew = !matched && own.is_data();
        if withdrew {
            self.uncount(own.is_movable());
        }
        let handed_back = (matched && own.is_movable() && own.slot.has_item())
            // SAFETY: the node is terminal, so its cell is its waiter's.
            .then(|| unsafe { own.slot.take_item() });
        // SAFETY: per the contract.
        let outcome = unsafe { self.list.leave(node, verdict) };
        if withdrew {
            self.after_front_change();
        }
        handed_back.map_or(outcome, |item| TransferOutcome::Transferred(Some(item)))
    }
}

/// How a linked producer (a `transfer`, or a bounded put waiting for a
/// slot) waits: the queue's [`SpinPolicy`], plus one more spin window each
/// time the budget runs out while the producer can see its consumer
/// coming, the paper's "nodes next in line for fulfillment spin briefly"
/// (DESIGN §4.15). It extends only while all three hold:
///
/// * the policy spins at all (not on a uniprocessor, not
///   `park_immediately`), whatever budget its calibrator holds now;
/// * the ring's occupancy fell since the previous ask (at the first ask:
///   the ring holds anything), so the window after it reaches 0, in which
///   the consumer gets from the ring to the list, is the last;
/// * the node is next in line, so at most one producer per queue spins.
///
/// Budget and feedback are the policy's: a handoff caught in an extension
/// is recorded as the direct handoff it was.
struct DrainSpin<'q, T> {
    queue: &'q TransferQueue<T>,
    node: *const WaitNode<T>,
    /// Ring occupancy at the previous ask; `None` before the first.
    occupancy: Cell<Option<usize>>,
    /// The node was seen next in line, which it then stays until its wait
    /// is decided (see [`DualList::is_front`]).
    next_in_line: Cell<bool>,
}

impl<'q, T: Send> DrainSpin<'q, T> {
    fn new(queue: &'q TransferQueue<T>, node: *const WaitNode<T>) -> Self {
        DrainSpin {
            queue,
            node,
            occupancy: Cell::new(None),
            next_in_line: Cell::new(false),
        }
    }

    /// The only data node still counted is ours (the count never reads
    /// low, see [`LinkedCounts`]), so whatever is ahead is decided: no pin.
    /// Otherwise ask the list, under a guard.
    fn is_next_in_line(&self) -> bool {
        if !self.next_in_line.get() {
            let queue = self.queue;
            self.next_in_line
                .set(queue.linked_data() == 1 || queue.list.is_front(self.node));
        }
        self.next_in_line.get()
    }
}

impl<T: Send> WaitStrategy for DrainSpin<'_, T> {
    #[inline]
    fn spin_budget(&self, timed: bool) -> u32 {
        self.queue.spin.spin_budget(timed)
    }

    fn extend_spin(&self) -> bool {
        if !self.queue.spin.spins() {
            return false;
        }
        let now = self.queue.ring.len();
        let draining = match self.occupancy.replace(Some(now)) {
            None => now > 0,
            Some(before) => now < before,
        };
        draining && self.is_next_in_line()
    }

    #[inline]
    fn observe(&self, timed: bool, spun: u64, parked: u64, matched: bool) {
        self.queue.spin.observe(timed, spun, parked, matched);
    }
}

/// A `TransferQueue` is itself a synchronous transfer point when driven
/// through the channel traits: the producer side maps to the *synchronous*
/// `transfer` (the paper: "the base synchronous support in TransferQueues
/// mirrors our fair synchronous queue"). This lets a `TransferQueue` slot
/// directly into anything built over the channel traits — including the
/// `ThreadPoolExecutor` — while still offering `put` for asynchronous use.
/// (For *buffered* channel-trait semantics, wrap in [`BufferedChannel`].)
impl<T: Send> TimedSyncChannel<T> for TransferQueue<T> {
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match item {
            Some(v) => self.transfer_with(v, deadline, token),
            None => self.take_with(deadline, token),
        }
    }
}

impl_sync_channel!(TransferQueue);

impl<T> std::fmt::Debug for TransferQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferQueue")
            .field("capacity", &self.bounded.then(|| self.ring.capacity()))
            .field("ring_items", &self.ring.len())
            .field("linked_data", &self.counts.data.load(Ordering::SeqCst))
            .field(
                "waiting_puts",
                &self.counts.waiting_puts.load(Ordering::SeqCst),
            )
            .field(
                "reservations",
                &self.counts.reservations.load(Ordering::SeqCst),
            )
            .finish_non_exhaustive()
    }
}

// ===================================================== buffered channel

/// Channel-trait adapter exposing a [`TransferQueue`]'s *buffered*
/// semantics: `put`/`offer` enqueue asynchronously (ride the ring)
/// instead of rendezvousing.
///
/// The raw `TransferQueue` channel impls keep the paper-faithful
/// synchronous mapping (`put` = `transfer`); this wrapper is what you hand
/// to generic drivers — and to `synq-async`, via its [`PollTransferer`]
/// impl — when you want queue semantics.
///
/// # Examples
///
/// ```
/// use synq::{SyncChannel, TimedSyncChannel};
/// use synq::transfer::BufferedChannel;
///
/// let ch = BufferedChannel::bounded(8);
/// ch.put(1); // buffered: returns immediately
/// assert_eq!(ch.offer(2), Ok(()));
/// let mut batch = vec![3, 4, 5];
/// ch.send_batch(&mut batch);
/// assert_eq!(SyncChannel::take(&ch), 1);
/// let mut out = Vec::new();
/// assert_eq!(ch.recv_batch(&mut out, 8), 4);
/// assert_eq!(out, vec![2, 3, 4, 5]);
/// ```
#[derive(Debug)]
pub struct BufferedChannel<T> {
    queue: TransferQueue<T>,
}

impl<T: Send> BufferedChannel<T> {
    /// A bounded buffered channel (see [`TransferQueue::bounded`]).
    pub fn bounded(capacity: usize) -> Self {
        BufferedChannel {
            queue: TransferQueue::bounded(capacity),
        }
    }

    /// An unbounded buffered channel.
    pub fn unbounded() -> Self {
        BufferedChannel {
            queue: TransferQueue::new(),
        }
    }

    /// Wraps an existing queue.
    pub fn from_queue(queue: TransferQueue<T>) -> Self {
        BufferedChannel { queue }
    }

    /// The underlying queue (for `transfer` and introspection).
    pub fn queue(&self) -> &TransferQueue<T> {
        &self.queue
    }
}

/// The buffered mapping: a put is the queue's buffered `put_with`, and the
/// batches are its ring batches.
impl<T: Send> TimedSyncChannel<T> for BufferedChannel<T> {
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match item {
            Some(v) => self.queue.put_with(v, deadline, token),
            None => self.queue.take_with(deadline, token),
        }
    }

    fn try_send_batch(&self, items: &mut Vec<T>) -> usize {
        self.queue.try_put_batch(items)
    }

    fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.queue.try_take_batch(out, max)
    }
}

impl_sync_channel!(BufferedChannel);

/// A buffered channel's linked puts are its queue's nodes, and end as the
/// queue's do.
impl<T: Send> Leave<T> for BufferedChannel<T> {
    unsafe fn leave(&self, node: *const WaitNode<T>, verdict: WaitOutcome) -> TransferOutcome<T> {
        // SAFETY: per the contract; the channel's nodes are its queue's.
        unsafe { self.queue.leave(node, verdict) }
    }
}

/// A published-but-unresolved buffered transfer: the poll-mode stand-in
/// for a thread blocked in [`TransferQueue::put`] (a bounded queue's
/// overflow) or [`TransferQueue::take`] (nothing buffered).
///
/// A sending permit is a [`NodePermit`] on a linked waiting put, as the
/// dual structures' permits are, and dropping it follows their one rule:
/// an unmoved item goes with the withdrawn node, a moved one stays in the
/// ring, and one handed back (its node completed with the item still in
/// it) is dropped with the permit. A receiving permit stands for an entry
/// on the queue's item wait list; it is woken to retry and never handed an
/// item, so dropping one loses nothing either: an unresolved permit's
/// entry is retracted, and a wakeup it had received but not acted on goes
/// to the next pending receiver.
#[derive(Debug)]
pub struct BufferedPermit<T: Send>(PermitState<T>);

#[derive(Debug)]
enum PermitState<T: Send> {
    /// A sender's linked waiting put.
    Linked(NodePermit<T, BufferedChannel<T>>),
    /// A receiver, its place on the item wait list, and its registration
    /// with the token it is polled with.
    Receiving(Arc<BufferedChannel<T>>, Entry, Option<Registration>),
}

impl<T: Send> PendingTransfer<T> for BufferedPermit<T> {
    fn poll_transfer(
        &mut self,
        waker: &Waker,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> Poll<TransferOutcome<T>> {
        match &mut self.0 {
            // A sender: poll the waiting put's node; a put handed back
            // links anew (or finds the ring open) and goes round again.
            PermitState::Linked(permit) => loop {
                let back = match ready!(permit.poll_transfer(waker, deadline, token)) {
                    TransferOutcome::Transferred(Some(back)) => back,
                    outcome => return Poll::Ready(outcome),
                };
                match permit.owner().queue.put_step(back, deadline, token) {
                    // SAFETY: the resolved permit's owner just published
                    // `fresh` for this same put.
                    ControlFlow::Continue(fresh) => unsafe { permit.rearm(fresh) },
                    ControlFlow::Break(outcome) => return Poll::Ready(outcome),
                }
            },
            // A receiver: retry the take, (re-)register on the item list,
            // and suspend only on an emptiness the SeqCst loads confirm
            // *after* the registration (the waiter half of the handshake
            // in `waiters`).
            PermitState::Receiving(channel, entry, registration) => loop {
                let queue = &channel.queue;
                let notified = WaiterQueue::notified(entry);
                if let Some(v) = queue.poll() {
                    queue.item_waiters.release(entry, notified);
                    *registration = None;
                    return Poll::Ready(TransferOutcome::Transferred(Some(v)));
                }
                if queue.item_waiters.arm(entry) {
                    continue;
                }
                // An index or count that has moved while the take still
                // fails is a moment to spin through, not to sleep in.
                if !(queue.ring.is_empty() && queue.linked_data() == 0) {
                    std::hint::spin_loop();
                    continue;
                }
                let slot = entry.as_ref().expect("armed above");
                if let Some(token) = token {
                    token.keep_registered(registration, waker);
                }
                match ready!(slot.poll_outcome(waker, deadline, token)) {
                    WaitOutcome::Matched(_) => {}
                    verdict => {
                        queue.item_waiters.release(entry, false);
                        *registration = None;
                        return Poll::Ready(match verdict {
                            WaitOutcome::TimedOut => TransferOutcome::Timeout(None),
                            _ => TransferOutcome::Cancelled(None),
                        });
                    }
                }
            },
        }
    }
}

impl<T: Send> Drop for BufferedPermit<T> {
    fn drop(&mut self) {
        // A wakeup this receiver holds was not used: it goes on. (A linked
        // put's permit ends itself; a resolved receiver's entry is gone.)
        if let PermitState::Receiving(channel, entry, _) = &mut self.0 {
            channel.queue.item_waiters.release(entry, false);
        }
    }
}

/// Poll-mode transfers over the buffered semantics: `Some(v)` buffers the
/// item (pending only when a bounded queue makes it wait), `None` receives
/// (pending when nothing is buffered). This is what `synq-async` builds
/// its buffered channel futures from.
impl<T: Send> PollTransferer<T> for BufferedChannel<T> {
    type Permit = BufferedPermit<T>;

    fn start_transfer(this: &Arc<Self>, item: Option<T>) -> StartTransfer<T, Self::Permit> {
        let state = match item {
            // The deadline and token arrive with the first poll, which
            // withdraws the put if they have already run out.
            Some(value) => match this.queue.put_step(value, Deadline::Never, None) {
                // SAFETY: the node the queue just published for this put;
                // the permit is its waiter.
                ControlFlow::Continue(node) => {
                    PermitState::Linked(unsafe { NodePermit::new(Arc::clone(this), node) })
                }
                ControlFlow::Break(outcome) => return StartTransfer::Complete(outcome),
            },
            None => match this.queue.poll() {
                Some(v) => return StartTransfer::Complete(TransferOutcome::Transferred(Some(v))),
                None => PermitState::Receiving(Arc::clone(this), None, None),
            },
        };
        StartTransfer::Pending(BufferedPermit(state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Instant;

    /// One queue of each mode, for what must hold in both: everything on
    /// the receive side, and the order of what is put.
    fn both_modes() -> [Arc<TransferQueue<u32>>; 2] {
        [
            Arc::new(TransferQueue::new()),
            Arc::new(TransferQueue::bounded(4)),
        ]
    }

    #[test]
    fn async_put_buffers_fifo() {
        let q = TransferQueue::new();
        assert!(q.is_empty());
        q.put(1);
        q.put(2);
        q.put(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.take(), 1);
        assert_eq!(q.take(), 2);
        assert_eq!(q.take(), 3);
        assert!(q.is_empty());
    }

    #[test]
    fn poll_on_empty_fails() {
        let q: TransferQueue<u8> = TransferQueue::new();
        assert_eq!(q.poll(), None);
    }

    #[test]
    fn transfer_blocks_until_taken() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let q = Arc::new(TransferQueue::new());
        let returned = Arc::new(AtomicBool::new(false));
        let q2 = Arc::clone(&q);
        let r2 = Arc::clone(&returned);
        let t = thread::spawn(move || {
            q2.transfer(9u32);
            r2.store(true, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(30));
        assert!(!returned.load(Ordering::SeqCst), "transfer returned early");
        assert_eq!(q.take(), 9);
        t.join().unwrap();
        assert!(returned.load(Ordering::SeqCst));
    }

    #[test]
    fn put_does_not_block() {
        let q: TransferQueue<u32> = TransferQueue::new();
        // No consumer exists; put must return.
        for i in 0..100 {
            q.put(i);
        }
        assert_eq!(q.len(), 100);
    }

    /// In bounded mode this replaces `bounded_try_transfer_always_fails`:
    /// a bounded consumer publishes a reservation like any other.
    #[test]
    fn try_transfer_needs_waiting_consumer() {
        for q in both_modes() {
            assert_eq!(q.try_transfer(1), Err(1));
            q.put(2); // buffered items are not consumers
            assert_eq!(q.try_transfer(3), Err(3));
            assert_eq!(q.poll(), Some(2));
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || q2.take());
            while !q.has_waiting_consumer() {
                thread::yield_now();
            }
            assert_eq!(q.try_transfer(5), Ok(()));
            assert_eq!(t.join().unwrap(), 5);
        }
    }

    #[test]
    fn transfer_timeout_returns_item() {
        let q: TransferQueue<String> = TransferQueue::new();
        let back = q
            .transfer_timeout("x".into(), Duration::from_millis(15))
            .unwrap_err();
        assert_eq!(back, "x");
        // The cancelled sync node must not count as buffered data.
        assert_eq!(q.poll(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn consumers_wake_for_async_puts() {
        let q = Arc::new(TransferQueue::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        thread::sleep(Duration::from_millis(20));
        q.put(77u32);
        assert_eq!(t.join().unwrap(), 77);
    }

    #[test]
    fn mixed_sync_async_ordering() {
        for q in both_modes() {
            q.put(1); // buffered
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || q2.transfer(2)); // waits behind it
            while q.len() < 2 {
                thread::yield_now();
            }
            assert_eq!(q.take(), 1);
            assert_eq!(q.take(), 2);
            t.join().unwrap();
        }
    }

    #[test]
    fn cancellation_of_waiting_transfer() {
        let q: Arc<TransferQueue<u32>> = Arc::new(TransferQueue::new());
        let token = CancelToken::new();
        let canceller = token.clone();
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.transfer_with(4, Deadline::Never, Some(&token)));
        thread::sleep(Duration::from_millis(20));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(Some(4)) => {}
            other => panic!("expected Cancelled(4), got {other:?}"),
        }
    }

    #[test]
    fn timeout_storm_absorbs_cancelled() {
        let q: TransferQueue<u32> = TransferQueue::new();
        for _ in 0..64 {
            assert!(q.poll_timeout(Duration::from_micros(1)).is_none());
        }
        // Cancelled reservations must not wedge the queue.
        q.put(9);
        assert_eq!(q.take(), 9);
        assert!(q.is_empty());
    }

    #[test]
    fn values_conserved_mixed_stress() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const PRODUCERS: usize = 4;
        const PER: usize = 400;
        let q = Arc::new(TransferQueue::new());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    let v = p * PER + i;
                    if i % 2 == 0 {
                        q.put(v);
                    } else {
                        q.transfer(v);
                    }
                }
            }));
        }
        let sum = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let sum = Arc::clone(&sum);
                thread::spawn(move || {
                    for _ in 0..PER {
                        sum.fetch_add(q.take(), Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), (0..PRODUCERS * PER).sum());
        assert!(q.is_empty());
    }

    #[test]
    fn waiting_consumer_introspection() {
        for q in both_modes() {
            assert!(!q.has_waiting_consumer());
            assert_eq!(q.waiting_consumer_count(), 0);
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || q2.take());
            while !q.has_waiting_consumer() {
                thread::yield_now();
            }
            assert_eq!(q.waiting_consumer_count(), 1);
            q.put(5);
            assert_eq!(t.join().unwrap(), 5);
            assert!(!q.has_waiting_consumer());
        }
    }

    #[test]
    fn transferer_impl_mirrors_fair_synchronous_queue() {
        use crate::{SyncChannel, TimedSyncChannel};
        for q in both_modes() {
            // Channel-trait view: offer fails with nobody waiting
            // (synchronous semantics), even though `put` (async) would
            // succeed, and succeeds once somebody is.
            assert_eq!(q.offer(1), Err(1));
            assert_eq!(TimedSyncChannel::poll(&*q), None);
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || SyncChannel::take(&*q2));
            while !q.has_waiting_consumer() {
                thread::yield_now();
            }
            assert_eq!(q.offer(8), Ok(()));
            assert_eq!(t.join().unwrap(), 8);
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || SyncChannel::take(&*q2));
            SyncChannel::put(&*q, 9); // trait put == synchronous transfer
            assert_eq!(t.join().unwrap(), 9);
        }
    }

    /// `put_with` has two meanings on one queue: the inherent method
    /// buffers, the channel trait's is the synchronous `transfer_with`.
    #[test]
    fn put_with_buffers_inherently_and_transfers_through_the_trait() {
        use crate::TimedSyncChannel;
        for q in both_modes() {
            assert_eq!(
                q.put_with(1, Deadline::Now, None),
                TransferOutcome::Transferred(None)
            );
            assert_eq!(
                TimedSyncChannel::put_with(&*q, 2, Deadline::Now, None),
                TransferOutcome::Timeout(Some(2))
            );
            assert_eq!(q.len(), 1);
            assert_eq!(q.poll(), Some(1));
        }
    }

    /// The ringless mode skips every step that serves the ring: with a
    /// producer waiting on a `SyncDualQueue`, then a consumer, and after
    /// each was matched, the counts and the ring's indices still read 0.
    #[test]
    fn a_ringless_queue_never_touches_its_counts_or_its_ring() {
        use crate::{SyncChannel, SyncDualQueue};
        let q: Arc<SyncDualQueue<u32>> = Arc::new(SyncDualQueue::new());
        let untouched = |when: &str| {
            let inner = &q.0;
            let words = [
                inner.counts.data.load(Ordering::SeqCst),
                inner.counts.waiting_puts.load(Ordering::SeqCst),
                inner.counts.reservations.load(Ordering::SeqCst),
                inner.ring.head.load(Ordering::SeqCst),
                inner.ring.tail.load(Ordering::SeqCst),
            ];
            assert_eq!(words, [0; 5], "{when}");
        };
        for producer_waits in [true, false] {
            let q2 = Arc::clone(&q);
            let waiter = thread::spawn(move || {
                if producer_waits {
                    q2.put(7);
                    7
                } else {
                    q2.take()
                }
            });
            // A node is counted, if at all, before it is linked.
            while q.linked_nodes() == 0 {
                thread::yield_now();
            }
            untouched("while a node waits");
            if producer_waits {
                assert_eq!(q.take(), 7);
            } else {
                q.put(7);
            }
            assert_eq!(waiter.join().unwrap(), 7);
            untouched("after the handoff");
        }
    }

    #[test]
    fn drop_frees_buffered_items() {
        static DROPS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        {
            let q = TransferQueue::new();
            for _ in 0..7 {
                q.put(D);
            }
            drop(q.take());
        }
        assert_eq!(DROPS.load(std::sync::atomic::Ordering::SeqCst), 7);
    }

    // --------------------------------------------- unbounded ring-first

    #[test]
    fn unbounded_ring_is_budgeted_in_bytes() {
        // Slot = payload + one sequence word; 32 KiB of them, rounded
        // down to a power of two, between 64 and 1,024 slots.
        assert_eq!(unbounded_ring_slots::<()>(), 1024);
        assert_eq!(unbounded_ring_slots::<u64>(), 1024);
        assert_eq!(unbounded_ring_slots::<[u64; 7]>(), 512);
        assert_eq!(unbounded_ring_slots::<[u64; 14]>(), 256);
        assert_eq!(unbounded_ring_slots::<[u8; 4096]>(), 64);
        let q: TransferQueue<[u64; 7]> = TransferQueue::new();
        assert_eq!(q.ring.capacity(), 512);
        assert_eq!(q.capacity(), None, "the internal ring is not a bound");
    }

    #[test]
    fn overflow_goes_linked_and_drains_back_to_the_ring() {
        let overflow_puts =
            || synq_obs::StatsSnapshot::take().get(synq_obs::Probe::RingOverflowPuts);
        let before = overflow_puts();
        let q: TransferQueue<[u64; 62]> = TransferQueue::new();
        let slots = q.ring.capacity();
        assert_eq!(slots, 64);
        for i in 0..slots {
            q.put([i as u64; 62]);
        }
        assert_eq!((q.ring.len(), q.linked_data()), (slots, 0));
        q.put([slots as u64; 62]); // ring full: linked
        assert_eq!((q.ring.len(), q.linked_data()), (slots, 1));
        assert_eq!(q.take()[0], 0);
        q.put([slots as u64 + 1; 62]); // room again, but linked data is queued: linked
        assert_eq!((q.ring.len(), q.linked_data()), (slots - 1, 2));
        for i in 1..slots + 2 {
            assert_eq!(q.take()[0], i as u64);
        }
        assert!(q.is_empty());
        q.put([7; 62]); // drained: the ring again
        assert_eq!((q.ring.len(), q.linked_data()), (1, 0));
        if synq_obs::ENABLED {
            // (Process-wide counter: tests running beside this one may add.)
            assert!(overflow_puts() - before >= 2);
        }
    }

    // ------------------------------------------------------ bounded mode

    #[test]
    fn bounded_put_poll_fifo() {
        let q = TransferQueue::bounded(4);
        assert_eq!(q.capacity(), Some(4));
        for i in 0..4 {
            assert_eq!(q.try_put(i), Ok(()));
        }
        assert_eq!(q.try_put(99), Err(99));
        for i in 0..4 {
            assert_eq!(q.poll(), Some(i));
        }
        assert_eq!(q.poll(), None);
    }

    #[test]
    fn bounded_put_blocks_until_space() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let q = Arc::new(TransferQueue::bounded(2));
        q.put(1u32);
        q.put(2);
        let entered = Arc::new(AtomicBool::new(false));
        let q2 = Arc::clone(&q);
        let e2 = Arc::clone(&entered);
        let t = thread::spawn(move || {
            e2.store(true, Ordering::SeqCst);
            q2.put(3); // ring full: must wait
        });
        while !entered.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "third put must wait");
        assert_eq!(q.ring.len(), 2, "third put must not have landed");
        assert_eq!(q.len(), 3, "its item is linked data, takeable");
        assert_eq!(q.take(), 1); // frees a slot; the third put gets it
        t.join().unwrap();
        assert_eq!(q.take(), 2);
        assert_eq!(q.take(), 3);
    }

    #[test]
    fn bounded_take_blocks_until_put() {
        let q: Arc<TransferQueue<u32>> = Arc::new(TransferQueue::bounded(4));
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        thread::sleep(Duration::from_millis(20));
        q.put(42);
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn bounded_put_timeout_returns_item() {
        let q = TransferQueue::bounded(2);
        q.put("a".to_string());
        q.put("b".to_string());
        let back = q
            .put_timeout("c".to_string(), Duration::from_millis(15))
            .unwrap_err();
        assert_eq!(back, "c");
        assert_eq!(q.len(), 2);
    }

    /// The trap in handing a bounded consumer its item was that the pop
    /// made on its behalf frees a slot, and must say so. A reservation and
    /// a waiting put are never linked at once, so the producer that finds
    /// the ring full meets the reservation in the list and makes that pop
    /// itself. Two items are pushed behind a reserved consumer, unannounced
    /// (ring full); a third producer's put must complete with no `take` by
    /// anyone, its item in the slot its own handoff freed.
    #[test]
    fn handoff_pop_announces_space_to_a_parked_producer() {
        let q: Arc<TransferQueue<u32>> = Arc::new(TransferQueue::bounded(2));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.take());
        while !q.has_waiting_consumer() {
            thread::yield_now();
        }
        assert_eq!(q.ring.try_push(1), Ok(()));
        assert_eq!(q.ring.try_push(2), Ok(()));
        let q3 = Arc::clone(&q);
        let (done, third) = std::sync::mpsc::channel();
        let producer = thread::spawn(move || {
            q3.put(3);
            done.send(()).unwrap();
        });
        third
            .recv_timeout(Duration::from_secs(20))
            .expect("producer waits beside the slot its handoff freed");
        producer.join().unwrap();
        assert_eq!(q.counts.waiting_puts.load(Ordering::SeqCst), 0);
        q.after_ring_push(2); // the late announcement finds nobody to serve
        assert_eq!(consumer.join().unwrap(), 1);
        assert_eq!((q.poll(), q.poll(), q.poll()), (Some(2), Some(3), None));
    }

    #[test]
    fn woken_producer_is_not_barged_and_wakes_promptly() {
        // Regression for the ~1 s buffered-mode wakeup tails the latency
        // histograms once showed: try_put thieves hammering a full ring while a
        // waiting put is handed its slot must never steal it, and the
        // handoff must complete well under the old tail. A waiting put is
        // counted linked data, and nothing enters the ring past that.
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let q = Arc::new(TransferQueue::bounded(2));
        q.put(0u32); // bounded(2) is the true minimum ring size
        q.put(5);
        let q2 = Arc::clone(&q);
        let waiter = thread::spawn(move || q2.put(1)); // full: links and waits
        while q.counts.waiting_puts.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stolen = Arc::new(AtomicUsize::new(0));
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                let stop = Arc::clone(&stop);
                let stolen = Arc::clone(&stolen);
                thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        if q.try_put(99).is_ok() {
                            stolen.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(10)); // let the storm build
        let start = Instant::now();
        assert_eq!(q.take(), 0); // frees a slot; the waiting put gets it
        waiter.join().unwrap();
        let wake = start.elapsed();
        stop.store(true, Ordering::SeqCst);
        for t in thieves {
            t.join().unwrap();
        }
        assert_eq!(
            stolen.load(Ordering::SeqCst),
            0,
            "try_put barged past a waiting put"
        );
        assert!(
            wake < Duration::from_millis(500),
            "buffered wakeup took {wake:?}, exceeding the regression bound"
        );
        assert_eq!(q.take(), 5);
        assert_eq!(q.take(), 1);
    }

    /// A payload that counts its drops.
    struct Counted(u32, Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Plays `refill` by hand on the front waiting put of a full ring up
    /// to its claim, then lets one slot go and fills it again behind the
    /// claim's back, as a producer that read `data` as 0 just before the
    /// put was counted would: `move_to_ring` must hand the put back.
    fn hand_back_front(q: &TransferQueue<Counted>, thief: Counted) -> Counted {
        while q.list.linked_nodes() == 0 {
            thread::yield_now();
        }
        let guard = Epoch::pin();
        let at = q.list.arrive(&guard);
        let m = at.front().expect("the waiting put");
        assert!(m.is_movable() && m.slot.try_claim());
        let popped = q.ring.try_pop().expect("a full ring");
        assert!(q.ring.try_push(thief).is_ok());
        assert!(!q.move_to_ring(&m), "the ring is full: handed back");
        at.advance_past(m);
        popped
    }

    /// The hand-back, forced: the item is delivered exactly once, after
    /// what filled the ring, because its owner goes round again.
    #[test]
    fn a_refill_that_loses_its_slot_hands_the_put_back() {
        let drops = Arc::new(AtomicUsize::new(0));
        let item = |v| Counted(v, Arc::clone(&drops));
        let q = Arc::new(TransferQueue::bounded(2));
        q.put(item(0));
        q.put(item(1));
        let q2 = Arc::clone(&q);
        let put = item(2);
        let producer = thread::spawn(move || q2.put(put));
        assert_eq!(hand_back_front(&q, item(9)).0, 0);
        let got: Vec<u32> = (0..3).map(|_| q.take().0).collect();
        producer.join().unwrap();
        assert_eq!(got, [1, 9, 2]);
        assert!(q.poll().is_none() && q.is_empty());
        assert_eq!(q.counts.waiting_puts.load(Ordering::SeqCst), 0);
        assert_eq!(drops.load(Ordering::SeqCst), 4, "each item dropped once");
    }

    /// A sending permit dropped with its put handed back and not yet
    /// re-polled: it leaves as the match it lost to, so the item handed
    /// back is dropped with it, once.
    #[test]
    fn dropping_a_handed_back_send_drops_its_item_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let item = |v| Counted(v, Arc::clone(&drops));
        let ch = Arc::new(BufferedChannel::bounded(2));
        ch.queue().put(item(0));
        ch.queue().put(item(1));
        let StartTransfer::Pending(mut permit) =
            BufferedChannel::start_transfer(&ch, Some(item(2)))
        else {
            panic!("full ring must pend the sender");
        };
        let (waker, _) = counting_waker();
        assert!(permit
            .poll_transfer(&waker, Deadline::Never, None)
            .is_pending());
        drop(hand_back_front(ch.queue(), item(9)));
        drop(permit);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            2,
            "the popped and the sent item"
        );
        assert_eq!(ch.queue().len(), 2, "1 and 9 stay queued");
        drop(ch);
        assert_eq!(drops.load(Ordering::SeqCst), 4, "each item dropped once");
    }

    /// A bounded put issued while a `transfer` waits is received after it,
    /// and waits until then; a waiting put whose predecessor withdraws
    /// completes with no `take`, the ring having room.
    #[test]
    fn a_waiting_put_keeps_its_place_behind_a_transfer() {
        let q: Arc<TransferQueue<u32>> = Arc::new(TransferQueue::bounded(4));
        let q2 = Arc::clone(&q);
        let transfer = thread::spawn(move || q2.transfer_timeout(1, Duration::from_millis(50)));
        while q.is_empty() {
            thread::yield_now();
        }
        assert_eq!(q.try_put(2), Err(2), "a transfer is queued ahead");
        q.put(3); // waits until the transfer is gone, then enters the ring
        assert_eq!(transfer.join().unwrap(), Err(1));
        assert_eq!((q.poll(), q.poll()), (Some(3), None));
    }

    #[test]
    fn bounded_transfer_rendezvouses_and_take_prefers_ring() {
        // Regression for the len/ordering contract: len counts ring items
        // AND waiting sync transfers; take drains the ring first.
        let q = Arc::new(TransferQueue::bounded(4));
        q.put(10u32);
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.transfer(20));
        while q.len() < 2 {
            thread::yield_now();
        }
        assert_eq!(q.len(), 2, "one ring item + one waiting transfer");
        assert_eq!(q.take(), 10, "ring items drain before sync transfers");
        assert_eq!(q.take(), 20);
        t.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_transfer_timeout_cleans_counter() {
        let q: TransferQueue<u32> = TransferQueue::bounded(2);
        assert!(q.transfer_timeout(7, Duration::from_millis(10)).is_err());
        assert_eq!(q.len(), 0, "cancelled transfer must not count");
        assert_eq!(q.poll(), None);
    }

    #[test]
    fn bounded_batch_partial_progress() {
        let q = TransferQueue::bounded(4);
        let mut items: Vec<u32> = (0..6).collect();
        assert_eq!(q.try_put_batch(&mut items), 4);
        assert_eq!(items, vec![4, 5], "overflow stays in the vector");
        let mut out = Vec::new();
        assert_eq!(q.try_take_batch(&mut out, 10), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(q.try_take_batch(&mut out, 10), 0);
    }

    #[test]
    fn bounded_take_batch_blocks_for_first_item() {
        let q: Arc<TransferQueue<u32>> = Arc::new(TransferQueue::bounded(8));
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || {
            let mut out = Vec::new();
            let n = q2.take_batch(&mut out, 4);
            (n, out)
        });
        thread::sleep(Duration::from_millis(20));
        let mut items = vec![1, 2, 3];
        q.put_batch(&mut items);
        let (n, out) = t.join().unwrap();
        assert!(n >= 1, "take_batch must deliver at least one item");
        assert_eq!(out[0], 1);
    }

    #[test]
    fn bounded_batch_drains_sync_transfers_too() {
        let q = Arc::new(TransferQueue::bounded(4));
        q.put(1u32);
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.transfer(2));
        while q.len() < 2 {
            thread::yield_now();
        }
        let mut out = Vec::new();
        assert_eq!(q.try_take_batch(&mut out, 8), 2);
        assert_eq!(out, vec![1, 2]);
        t.join().unwrap();
    }

    #[test]
    fn buffered_channel_trait_semantics() {
        use crate::{SyncChannel, TimedSyncChannel};
        let ch = BufferedChannel::bounded(4);
        // offer succeeds with no consumer: buffered, not synchronous.
        assert_eq!(ch.offer(1u32), Ok(()));
        ch.put(2);
        assert_eq!(TimedSyncChannel::poll(&ch), Some(1));
        assert_eq!(SyncChannel::take(&ch), 2);
        let mut batch = vec![3, 4, 5, 6];
        assert_eq!(ch.try_send_batch(&mut batch), 4);
        let mut out = Vec::new();
        assert_eq!(ch.recv_batch(&mut out, 2), 2);
        assert_eq!(out, vec![3, 4]);
        assert_eq!(ch.try_recv_batch(&mut out, 8), 2);
        assert_eq!(out, vec![3, 4, 5, 6]);
    }

    fn counting_waker() -> (Waker, Arc<AtomicUsize>) {
        struct W(Arc<AtomicUsize>);
        impl std::task::Wake for W {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let hits = Arc::new(AtomicUsize::new(0));
        (Waker::from(Arc::new(W(Arc::clone(&hits)))), hits)
    }

    #[test]
    fn buffered_permit_recv_wakes_on_put() {
        let ch: Arc<BufferedChannel<u32>> = Arc::new(BufferedChannel::bounded(4));
        let StartTransfer::Pending(mut permit) = BufferedChannel::start_transfer(&ch, None) else {
            panic!("empty channel must pend the receiver");
        };
        let (waker, hits) = counting_waker();
        assert!(permit
            .poll_transfer(&waker, Deadline::Never, None)
            .is_pending());
        ch.queue().put(5);
        assert!(hits.load(Ordering::SeqCst) >= 1, "put must wake the task");
        match permit.poll_transfer(&waker, Deadline::Never, None) {
            Poll::Ready(TransferOutcome::Transferred(Some(5))) => {}
            other => panic!("expected the item, got {other:?}"),
        }
    }

    #[test]
    fn buffered_permit_send_wakes_on_space() {
        let ch: Arc<BufferedChannel<u32>> = Arc::new(BufferedChannel::bounded(2));
        ch.queue().put(1);
        ch.queue().put(2);
        let StartTransfer::Pending(mut permit) = BufferedChannel::start_transfer(&ch, Some(3))
        else {
            panic!("full ring must pend the sender");
        };
        let (waker, hits) = counting_waker();
        assert!(permit
            .poll_transfer(&waker, Deadline::Never, None)
            .is_pending());
        assert_eq!(ch.queue().take(), 1);
        assert!(hits.load(Ordering::SeqCst) >= 1, "take must wake the task");
        match permit.poll_transfer(&waker, Deadline::Never, None) {
            Poll::Ready(TransferOutcome::Transferred(None)) => {}
            other => panic!("expected the send to land, got {other:?}"),
        }
        assert_eq!(ch.queue().take(), 2);
        assert_eq!(ch.queue().take(), 3);
    }

    #[test]
    fn buffered_permit_timeout_returns_item() {
        let ch: Arc<BufferedChannel<String>> = Arc::new(BufferedChannel::bounded(2));
        ch.queue().put("a".into());
        ch.queue().put("b".into());
        let StartTransfer::Pending(mut permit) =
            BufferedChannel::start_transfer(&ch, Some("c".to_string()))
        else {
            panic!("full ring must pend the sender");
        };
        let (waker, _) = counting_waker();
        match permit.poll_transfer(&waker, Deadline::Now, None) {
            Poll::Ready(TransferOutcome::Timeout(Some(s))) => assert_eq!(s, "c"),
            other => panic!("expected Timeout with the item back, got {other:?}"),
        }
        assert_eq!(ch.queue().len(), 2);
    }

    #[test]
    fn cancelling_the_token_wakes_a_pending_poll() {
        let ch: Arc<BufferedChannel<u32>> = Arc::new(BufferedChannel::bounded(4));
        let StartTransfer::Pending(mut permit) = BufferedChannel::start_transfer(&ch, None) else {
            panic!("empty channel must pend the receiver");
        };
        let (waker, hits) = counting_waker();
        let token = CancelToken::new();
        assert!(permit
            .poll_transfer(&waker, Deadline::Never, Some(&token))
            .is_pending());
        token.cancel();
        assert_eq!(hits.load(Ordering::SeqCst), 1, "the cancel wakes the task");
        match permit.poll_transfer(&waker, Deadline::Never, Some(&token)) {
            Poll::Ready(TransferOutcome::Cancelled(None)) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(ch.queue().waiting_consumer_count(), 0);
    }

    #[test]
    fn buffered_permit_drop_retracts_entry() {
        let ch: Arc<BufferedChannel<u32>> = Arc::new(BufferedChannel::bounded(4));
        let StartTransfer::Pending(mut permit) = BufferedChannel::start_transfer(&ch, None) else {
            panic!("empty channel must pend the receiver");
        };
        let (waker, _) = counting_waker();
        assert!(permit
            .poll_transfer(&waker, Deadline::Never, None)
            .is_pending());
        assert_eq!(ch.queue().waiting_consumer_count(), 1);
        drop(permit);
        assert_eq!(ch.queue().waiting_consumer_count(), 0);
    }

    #[test]
    fn bounded_values_conserved_mixed_stress() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const PRODUCERS: usize = 4;
        const PER: usize = 400;
        let q = Arc::new(TransferQueue::bounded(8));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    let v = p * PER + i;
                    if i % 4 == 0 {
                        q.transfer(v); // rendezvous path
                    } else {
                        q.put(v); // ring path (blocking on full)
                    }
                }
            }));
        }
        let sum = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let sum = Arc::clone(&sum);
                thread::spawn(move || {
                    for _ in 0..PER {
                        sum.fetch_add(q.take(), Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), (0..PRODUCERS * PER).sum());
        assert!(q.is_empty());
    }

    // ------------------------------------------------- next in line spins

    /// Links a `transfer` of `v` and returns its node, as a blocked
    /// `transfer` holds it.
    fn linked_transfer(q: &TransferQueue<u32>, v: u32) -> *const WaitNode<u32> {
        match q.xfer(Some(v), PutMode::Sync, Deadline::Never, None) {
            ControlFlow::Continue(node) => node,
            ControlFlow::Break(_) => panic!("nobody waits to take it"),
        }
    }

    /// Withdraws a linked `transfer`, as its timeout would.
    fn withdraw(q: &TransferQueue<u32>, node: *const WaitNode<u32>) -> u32 {
        assert!(unsafe { &*node }.slot.try_cancel());
        match unsafe { q.leave(node, WaitOutcome::Cancelled) } {
            TransferOutcome::Cancelled(Some(v)) => v,
            other => panic!("expected the item back, got {other:?}"),
        }
    }

    /// Each row: items popped from the ring before an ask, and the answer.
    fn asks(q: &TransferQueue<u32>, s: &DrainSpin<'_, u32>, rows: &[(usize, bool)]) {
        for (i, &(pops, extends)) in rows.iter().enumerate() {
            for _ in 0..pops {
                q.ring.try_pop().expect("a ring item");
            }
            assert_eq!(s.extend_spin(), extends, "row {i}: {rows:?}");
        }
    }

    /// The rule a linked producer's wait extends by, over a real ring.
    #[test]
    fn a_producer_extends_its_spin_only_while_the_ring_drains_toward_it() {
        let spinning = || TransferQueue::with_spin(SpinPolicy::fixed(1));

        // Started empty: nothing can drain toward it.
        let q = spinning();
        let node = linked_transfer(&q, 9);
        asks(&q, &DrainSpin::new(&q, node), &[(0, false), (0, false)]);
        assert_eq!(withdraw(&q, node), 9);

        // Falling, stalled, falling to 0, then the one window after 0.
        let q = spinning();
        for i in 0..4 {
            q.put(i);
        }
        let node = linked_transfer(&q, 9);
        let rows = [
            (0, true),  // the first ask: the ring holds items
            (1, true),  // falling
            (0, false), // stalled
            (1, true),  // falling again
            (2, true),  // reached 0: the window in which the consumer
            (0, false), // gets from the ring to the list, then no more
        ];
        asks(&q, &DrainSpin::new(&q, node), &rows);
        assert_eq!(withdraw(&q, node), 9);

        // Not the front: the second of two linked transfers never extends
        // (the count says two, the list says who is first); the first does.
        let q = spinning();
        for i in 0..4 {
            q.put(i);
        }
        let first = linked_transfer(&q, 8);
        let second = linked_transfer(&q, 9);
        let behind = DrainSpin::new(&q, second);
        let ahead = DrainSpin::new(&q, first);
        for _ in 0..2 {
            assert!(!behind.extend_spin() && ahead.extend_spin());
            q.ring.try_pop().expect("a ring item");
        }
        assert_eq!((withdraw(&q, first), withdraw(&q, second)), (8, 9));

        // A policy that does not spin does not spin longer either.
        let q = TransferQueue::with_spin(SpinPolicy::park_immediately());
        for i in 0..4 {
            q.put(i);
        }
        let node = linked_transfer(&q, 9);
        asks(
            &q,
            &DrainSpin::new(&q, node),
            &[(0, false), (1, false), (3, false)],
        );
        assert_eq!(withdraw(&q, node), 9);
    }
}
