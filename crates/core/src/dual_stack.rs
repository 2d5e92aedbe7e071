//! The synchronous dual stack — the paper's **unfair** algorithm
//! (Listing 6 / Figure 2), with time-out and cancellation support in the
//! style of the Java 6 production version (`TransferStack`), and one
//! deviation: a waiter is matched in place, not by a fulfilling node.
//!
//! # Algorithm
//!
//! The stack is a singly linked list with one `head` pointer (the Treiber
//! skeleton). Its waiting nodes are all of one mode, data nodes (waiting
//! producers) or request nodes (waiting consumers); nodes whose wait is
//! already decided (matched, claimed or cancelled) may lie among them
//! until they surface. One rule on arrival, applied to the top:
//!
//! 1. **Decided top** — pop it and look again. This is the helping step
//!    that makes the algorithm lock-free: a thread that stalls after
//!    deciding a node leaves nothing another must wait for, because any
//!    arrival can pop what it left.
//! 2. **Complementary waiting top** — match it in place, then pop it. A
//!    producer claims a consumer's slot, deposits its item and completes
//!    the match (`try_claim` → `put_item` → `complete`, as the
//!    [queue](crate::dual_queue) does). A consumer stores a token in a
//!    producer's slot with one CAS and then moves the producer's item out:
//!    the waiter never touches its item again once matched, so this is the
//!    only write to the waiter's line.
//! 3. **Empty, or a waiting top of our own mode** — push our node and wait
//!    for a counterpart to decide it (spin on our own node, then park).
//!
//! Every waiting node on the stack has the mode of every node above it
//! (a push goes only onto a waiting node of its own mode, or an empty
//! stack), so the top's mode is the mode of everything still waiting.
//! A request linearizes at the head CAS that pushes its node (case 3) or,
//! when it matches, at the head read that saw the top waiting (case 2):
//! that node stays `WAITING` until our CAS decides it, so nobody matched
//! or cancelled it in between, and it was the newest waiting node when we
//! read it. The follow-up linearizes at the match CAS (paper §3.3).
//!
//! # The deviation from Listing 6
//!
//! The paper matches by pushing a *fulfilling* node above the waiter and
//! popping the pair, and helpers complete a fulfiller's match for it. Here
//! the slot's own CAS, which already arbitrates match against cancel, is
//! the match, so a handoff costs one node, one push, one match CAS and
//! one retirement instead of two nodes, two pushes and two retirements.
//! Figure 2's protocol stays in the repo as `synq_classic::DualStack`, its
//! DISC 2004 ancestor. The JDK took the same step when it rebuilt
//! `SynchronousQueue` on `LinkedTransferQueue`'s nodes (JDK 21): an unfair
//! waiter there is also matched in place (cited from memory of the JDK
//! source, nothing from it is vendored here).
//!
//! # Cancellation and cleaning
//!
//! A waiter cancels by CASing its node's state word `WAITING → CANCELLED`,
//! the same word a matcher CASes, so match-vs-cancel is arbitrated by one
//! CAS as in the Java code. A cancelled node is a decided node: it is
//! popped when it surfaces, by the next arrival or by the canceller
//! itself, which pops decided tops before it leaves. As in the
//! [queue](crate::dual_queue), nodes are never unspliced from the middle
//! of the stack (memory-safe only under a tracing GC), so a decided node
//! buried under a newer waiter stays until that waiter is decided and
//! popped (experiment A4).
//!
//! # Memory lifetime
//!
//! The node and its lifetime rule (a deferred retirement that frees the
//! node once its waiter has exited) are [`crate::dual_list`]'s. The
//! stack's part of it is one rule: **a node leaves the stack only by a
//! head CAS**, which has one winner, so that winner retires the node
//! directly, with no `unlinked` flag to arbitrate. After a successful pop
//! the popper keeps popping decided tops, so a node decided while buried
//! is popped when it surfaces, and a stack at rest holds no decided node.
//!
//! A matcher reads and writes the node it matched only while its guard
//! protects the node, and the node is retired only after it is popped,
//! deferred past that guard. A matched waiter's [`Leave::leave`] reads
//! only its own slot: a consumer takes the item its producer deposited
//! there, a producer reads nothing. It takes no pin and never reads
//! `head`.

use crate::dual_list::{count_linked, Leave, NodePermit, Start, WaitNode, DATA, REQUEST};
use crate::pollable::{PollTransferer, StartTransfer};
use crate::{impl_sync_channel, Deadline, TimedSyncChannel, TransferOutcome};
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use synq_primitives::wait_slot::MIN_TOKEN;
use synq_primitives::{CachePadded, CancelToken, SpinPolicy, WaitOutcome};
use synq_reclaim::{Atomic, Epoch, Guard, Owned, Reclaimer, Shared};

/// The word a consumer stores in a waiting producer's slot to match it.
/// The producer's waiter only needs to see that it was matched; any word
/// the slot does not reserve for its control states would do.
const TAKEN: usize = MIN_TOKEN;

/// The unfair (LIFO) synchronous queue — "based on a LIFO stack".
///
/// # Examples
///
/// ```
/// use synq::{SyncDualStack, SyncChannel, TimedSyncChannel};
/// use std::sync::Arc;
/// use std::thread;
///
/// let q = Arc::new(SyncDualStack::new());
/// assert_eq!(q.poll(), None);
/// let q2 = Arc::clone(&q);
/// let t = thread::spawn(move || q2.take());
/// q.put(7u32);
/// assert_eq!(t.join().unwrap(), 7);
/// ```
pub struct SyncDualStack<T> {
    /// The single contended word of the structure: padded so the spin
    /// policy beside it never rides its cache line.
    head: CachePadded<Atomic<WaitNode<T>>>,
    spin: SpinPolicy,
}

// Layout: `head` must own its line(s).
const _: () = assert!(std::mem::align_of::<SyncDualStack<u8>>() >= 128);
const _: () = assert!(std::mem::size_of::<SyncDualStack<u8>>() >= 128);

// SAFETY: as for SyncDualQueue.
unsafe impl<T: Send> Send for SyncDualStack<T> {}
unsafe impl<T: Send> Sync for SyncDualStack<T> {}

impl<T: Send> Default for SyncDualStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> SyncDualStack<T> {
    /// Creates an empty stack with the adaptive spin policy.
    pub fn new() -> Self {
        Self::with_spin(SpinPolicy::adaptive())
    }

    /// Creates an empty stack with an explicit spin policy (ablation A1).
    pub fn with_spin(spin: SpinPolicy) -> Self {
        SyncDualStack {
            head: CachePadded::new(Atomic::null()),
            spin,
        }
    }

    /// Pops `h`, a decided top, if it is still the head. A node leaves the
    /// stack only this way, so the winning CAS is its one remover and
    /// retires its structure reference directly.
    fn pop_head<'g>(&self, h: Shared<'g, WaitNode<T>>, guard: &'g Guard) -> bool {
        // SAFETY: `h` was loaded from `head` under the guard. Its `next`
        // is fixed at the push and only becomes our CAS operand.
        let next = unsafe { h.deref() }.next.load(Ordering::Acquire, guard);
        if self
            .head
            .compare_exchange(h, next, Ordering::AcqRel, Ordering::Acquire, guard)
            .is_ok()
        {
            // SAFETY: our CAS unlinked `h`, which the guard protects, and
            // only one CAS can move `head` off it.
            unsafe { WaitNode::retire(h.as_raw(), guard) };
            true
        } else {
            false
        }
    }

    /// Pops decided tops (matched, claimed or cancelled) until the stack is
    /// empty or its top waits, and returns that head. `own` is the
    /// caller's own cancelled node, or null; popping any other node counts
    /// as helping.
    fn pop_decided<'g>(
        &self,
        own: *const WaitNode<T>,
        guard: &'g Guard,
    ) -> Shared<'g, WaitNode<T>> {
        loop {
            let h = self.head.load(Ordering::Acquire, guard);
            // SAFETY: loaded from `head` under the guard.
            match unsafe { h.as_ref() } {
                Some(top) if !top.slot.is_waiting() => {
                    if self.pop_head(h, guard) && h.as_raw() != own {
                        synq_obs::probe!(StackHelped);
                    }
                }
                _ => return h,
            }
        }
    }

    /// Pushes a node of `mode` on `h`: the node a lost race handed back in
    /// `node`, or a fresh one, armed with a producer's `item`. On a lost
    /// race both go back where they came from, for the retry.
    fn push<'g>(
        &self,
        h: Shared<'g, WaitNode<T>>,
        mode: usize,
        node: &mut Option<Owned<WaitNode<T>>>,
        item: &mut Option<T>,
        guard: &'g Guard,
    ) -> Option<Shared<'g, WaitNode<T>>> {
        let owned = node.take().unwrap_or_else(|| WaitNode::alloc(mode, true));
        if let Some(v) = item.take() {
            // SAFETY: we own the unpublished node, and its cell is empty.
            unsafe { owned.slot.put_item(v) };
        }
        owned.next.store(h, Ordering::Relaxed);
        match self
            .head
            .compare_exchange(h, owned, Ordering::Release, Ordering::Acquire, guard)
        {
            Ok(published) => {
                synq_obs::probe!(StackPushCas);
                Some(published)
            }
            Err(e) => {
                synq_obs::probe!(StackPushCasFail);
                let owned = e.new;
                if owned.is_data() {
                    // SAFETY: the node stays unpublished; reclaim the item.
                    *item = Some(unsafe { owned.slot.reclaim_item() });
                }
                *node = Some(owned);
                None
            }
        }
    }

    /// Matches `top`, a waiting node of the other mode, in place: a
    /// producer deposits its `item` in a consumer's slot, a consumer takes
    /// a producer's item into `item`. False if another thread decided
    /// `top` first; a producer's item is then back in `item`.
    fn match_in_place(top: &WaitNode<T>, item: &mut Option<T>) -> bool {
        let won = match item.take() {
            Some(v) => {
                let claimed = top.slot.try_claim();
                if claimed {
                    // SAFETY: the claim grants us the empty request cell.
                    unsafe { top.slot.put_item(v) };
                    top.slot.complete();
                } else {
                    *item = Some(v);
                }
                claimed
            }
            None => {
                let taken = top.slot.try_fulfill_token(TAKEN).is_ok();
                if taken {
                    // SAFETY: the match makes the producer's item ours, and
                    // its waiter never reads it again; the guard keeps the
                    // node alive until it is popped and retired.
                    *item = Some(unsafe { top.slot.take_item() });
                }
                taken
            }
        };
        if won {
            synq_obs::probe!(StackMatchCas);
        } else {
            synq_obs::probe!(StackMatchCasFail);
        }
        won
    }

    /// The lock-free phase of one transfer: match the waiting counterpart
    /// on top in place, or push a wait node, popping decided tops on the
    /// way. Never waits; `deadline`/`token` feed only the fail-fast checks
    /// before publication (pass [`Deadline::Never`] and `None` to always
    /// publish, as poll-mode callers do).
    fn start_impl(
        &self,
        mut item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> Start<T> {
        let mode = if item.is_some() { DATA } else { REQUEST };
        let mut node: Option<Owned<WaitNode<T>>> = None;

        loop {
            let guard = Epoch::pin();
            let h = self.pop_decided(std::ptr::null(), &guard);

            // SAFETY: `pop_decided` loaded `h` from `head` under the guard.
            match unsafe { h.as_ref() } {
                Some(top) if top.mode != mode => {
                    // Case 2: a complementary waiter on top.
                    if !Self::match_in_place(top, &mut item) {
                        // Decided by another: popped on the next pass.
                        continue;
                    }
                    // Pop what we matched, then whatever decided nodes
                    // surface beneath it. A failed pop means another
                    // arrival popped it, or a newer waiter buried it and
                    // whoever pops that waiter pops it too.
                    if self.pop_head(h, &guard) {
                        let _ = self.pop_decided(std::ptr::null(), &guard);
                    }
                    return ControlFlow::Break(TransferOutcome::Transferred(item));
                }
                _ => {
                    // Case 3: empty or our own mode — push and wait.
                    if deadline.is_now() {
                        return ControlFlow::Break(TransferOutcome::Timeout(item));
                    }
                    if token.is_some_and(|tk| tk.is_cancelled()) {
                        return ControlFlow::Break(TransferOutcome::Cancelled(item));
                    }
                    if let Some(published) = self.push(h, mode, &mut node, &mut item, &guard) {
                        return ControlFlow::Continue(published.as_raw());
                    }
                }
            }
        }
    }

    /// Diagnostic: number of linked nodes. O(n), test/ablation use only.
    pub fn linked_nodes(&self) -> usize {
        count_linked(&self.head, false)
    }
}

/// The stack's end of a wait, in blocking and poll mode alike: a matched
/// waiter reads only its own slot (a consumer takes the item its producer
/// deposited there) and leaves its node for whoever pops it. A waiter that
/// won the cancel CAS pops the decided tops, its own node among them if it
/// is on top, and takes a producer's item back.
impl<T: Send> Leave<T> for SyncDualStack<T> {
    unsafe fn leave(
        &self,
        node_raw: *const WaitNode<T>,
        verdict: WaitOutcome,
    ) -> TransferOutcome<T> {
        // SAFETY: the node is not freed before its waiter, us, exits.
        let node = unsafe { &*node_raw };
        let outcome = match verdict {
            WaitOutcome::Matched(_) => {
                // No pin and no look at `head`: the matcher pops the node.
                // SAFETY: a producer deposited a consumer's item before
                // completing the match.
                let item = (!node.is_data()).then(|| unsafe { node.slot.take_item() });
                TransferOutcome::Transferred(item)
            }
            verdict => {
                // We won the cancel CAS.
                let _ = self.pop_decided(node_raw, &Epoch::pin());
                // SAFETY: cancellation wins a producer's item back.
                let item = node.is_data().then(|| unsafe { node.slot.take_item() });
                if verdict == WaitOutcome::Cancelled {
                    TransferOutcome::Cancelled(item)
                } else {
                    TransferOutcome::Timeout(item)
                }
            }
        };
        // SAFETY: our last access to the node is above.
        unsafe { WaitNode::release(node_raw) };
        outcome
    }
}

impl<T: Send> TimedSyncChannel<T> for SyncDualStack<T> {
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match self.start_impl(item, deadline, token) {
            ControlFlow::Break(outcome) => outcome,
            // SAFETY: the node we just pushed, ours to wait on.
            ControlFlow::Continue(node) => unsafe { self.wait(node, deadline, token, &self.spin) },
        }
    }
}

impl_sync_channel!(SyncDualStack);

impl<T: Send> PollTransferer<T> for SyncDualStack<T> {
    type Permit = NodePermit<T, Self>;

    fn start_transfer(this: &Arc<Self>, item: Option<T>) -> StartTransfer<T, Self::Permit> {
        // Never/None: poll-mode callers apply deadline and cancellation on
        // each poll; the lock-free phase must always publish.
        match this.start_impl(item, Deadline::Never, None) {
            ControlFlow::Break(outcome) => StartTransfer::Complete(outcome),
            // SAFETY: the node we just pushed; the permit is its waiter.
            ControlFlow::Continue(node) => {
                StartTransfer::Pending(unsafe { NodePermit::new(Arc::clone(this), node) })
            }
        }
    }
}

impl<T> Drop for SyncDualStack<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self`; waiters borrow the stack, so all have
        // exited.
        unsafe { WaitNode::drain_chain(&self.head) };
    }
}

impl<T> std::fmt::Debug for SyncDualStack<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("SyncDualStack { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{SyncChannel, TimedSyncChannel};
    use crate::pollable::PendingTransfer;
    use std::sync::Arc;
    use std::task::Poll;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn poll_and_offer_on_empty_fail() {
        let s: SyncDualStack<u32> = SyncDualStack::new();
        assert_eq!(s.poll(), None);
        assert_eq!(s.offer(1), Err(1));
        assert_eq!(s.linked_nodes(), 0);
    }

    #[test]
    fn put_take_pair() {
        let s = Arc::new(SyncDualStack::new());
        let s2 = Arc::clone(&s);
        let t = thread::spawn(move || s2.take());
        s.put(31u32);
        assert_eq!(t.join().unwrap(), 31);
    }

    #[test]
    fn take_then_put() {
        let s = Arc::new(SyncDualStack::new());
        let s2 = Arc::clone(&s);
        let t = thread::spawn(move || s2.put("x"));
        assert_eq!(s.take(), "x");
        t.join().unwrap();
    }

    #[test]
    fn lifo_pairing_among_waiting_producers() {
        // With producers 0..4 stacked (0 pushed first), consumers must pair
        // with the most recent producer first.
        let s = Arc::new(SyncDualStack::new());
        let mut producers = Vec::new();
        for i in 0..4u32 {
            let s2 = Arc::clone(&s);
            producers.push(thread::spawn(move || s2.put(i)));
            while s.linked_nodes() < (i + 1) as usize {
                thread::yield_now();
            }
        }
        for expect in (0..4u32).rev() {
            assert_eq!(s.take(), expect);
        }
        for p in producers {
            p.join().unwrap();
        }
    }

    #[test]
    fn poll_timeout_expires_and_absorbs() {
        let s: SyncDualStack<u8> = SyncDualStack::new();
        let start = Instant::now();
        assert_eq!(s.poll_timeout(Duration::from_millis(25)), None);
        assert!(start.elapsed() >= Duration::from_millis(25));
        let _ = s.poll();
        assert_eq!(s.linked_nodes(), 0);
    }

    #[test]
    fn offer_timeout_returns_item() {
        let s: SyncDualStack<String> = SyncDualStack::new();
        let back = s
            .offer_timeout("v".to_string(), Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(back, "v");
    }

    #[test]
    fn timeout_storm_is_absorbed() {
        let s: SyncDualStack<u32> = SyncDualStack::new();
        for i in 0..200 {
            let _ = s.offer_timeout(i, Duration::from_micros(1));
        }
        let _ = s.poll();
        assert!(
            s.linked_nodes() <= 2,
            "cancelled nodes built up: {}",
            s.linked_nodes()
        );
    }

    #[test]
    fn cancellation_interrupts_waiting_take() {
        let s: Arc<SyncDualStack<u8>> = Arc::new(SyncDualStack::new());
        let token = CancelToken::new();
        let canceller = token.clone();
        let s2 = Arc::clone(&s);
        let t = thread::spawn(move || s2.take_with(Deadline::Never, Some(&token)));
        thread::sleep(Duration::from_millis(25));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(None) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn values_conserved_under_stress() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER: usize = 500;
        let s = Arc::new(SyncDualStack::new());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    s.put(p * PER + i);
                }
            }));
        }
        let sums: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let s = Arc::clone(&s);
                thread::spawn(move || {
                    let mut sum = 0usize;
                    for _ in 0..(PRODUCERS * PER / CONSUMERS) {
                        sum += s.take();
                    }
                    sum
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = sums.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (0..PRODUCERS * PER).sum::<usize>());
        assert_eq!(s.linked_nodes(), 0);
    }

    #[test]
    fn mixed_timed_and_untimed_under_contention() {
        // Producers use finite patience; consumers are patient. Every item
        // that a producer reports as transferred must be received exactly
        // once.
        use std::sync::atomic::AtomicUsize;
        const PRODUCERS: usize = 4;
        const PER: usize = 300;
        let s = Arc::new(SyncDualStack::new());
        let delivered = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..PRODUCERS {
            let s = Arc::clone(&s);
            let delivered = Arc::clone(&delivered);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    if s.offer_timeout(i, Duration::from_micros(200)).is_ok() {
                        delivered.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        let stop = Arc::new(AtomicUsize::new(0));
        let consumer = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut got = 0usize;
                loop {
                    if let Some(_v) = s.poll_timeout(Duration::from_millis(1)) {
                        got += 1;
                    } else if stop.load(Ordering::Relaxed) == 1 {
                        // Drain anything still in flight.
                        while s.poll_timeout(Duration::from_millis(5)).is_some() {
                            got += 1;
                        }
                        return got;
                    }
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        stop.store(1, Ordering::Relaxed);
        let got = consumer.join().unwrap();
        assert_eq!(got, delivered.load(Ordering::Relaxed));
    }

    /// Payload that counts its drops.
    struct Counted<'a>(&'a std::sync::atomic::AtomicUsize);

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A matcher whose pop lost to a newer push leaves its node decided
    /// beneath that waiter. It is popped once it surfaces, by the thread
    /// that popped the waiter above it, and retired then: the guard held
    /// throughout keeps that retirement pending, so the nodes stay
    /// readable and each one's exit shows.
    #[test]
    fn a_node_decided_under_a_newer_push_is_popped_when_it_surfaces() {
        let s: Arc<SyncDualStack<u32>> = Arc::new(SyncDualStack::new());
        let waker = std::task::Waker::noop();
        let _hold = Epoch::pin();
        let reserve = || {
            let ControlFlow::Continue(node) = s.start_impl(None, Deadline::Never, None) else {
                panic!("a consumer on an empty or request stack waits");
            };
            // SAFETY: the node just pushed; the permit is its waiter.
            (node, unsafe { NodePermit::new(Arc::clone(&s), node) })
        };
        let (buried, mut buried_permit) = reserve();
        let (newer, mut newer_permit) = reserve();
        assert_eq!(s.linked_nodes(), 2);
        // A producer that read `buried` on top matches it after `newer`
        // was pushed, and its pop fails.
        // SAFETY: the permit, its waiter, has not exited.
        let b = unsafe { &*buried };
        assert!(b.slot.try_claim());
        // SAFETY: the claim grants the empty request cell.
        unsafe { b.slot.put_item(1) };
        b.slot.complete();
        assert!(
            b.exited.load(Ordering::SeqCst) == 0,
            "still linked and waited on"
        );
        // The next producer matches `newer`, pops it and then `buried`.
        assert!(matches!(
            s.start_impl(Some(2), Deadline::Never, None),
            ControlFlow::Break(TransferOutcome::Transferred(None))
        ));
        assert_eq!(s.linked_nodes(), 0);
        for (node, permit, item) in [
            (buried, &mut buried_permit, 1),
            (newer, &mut newer_permit, 2),
        ] {
            // SAFETY: the held guard keeps the retirement pending.
            let waiting = unsafe { &*node }.exited.load(Ordering::SeqCst) == 0;
            assert!(waiting, "popped and retired, its waiter still inside");
            assert!(matches!(
                permit.poll_transfer(waker, Deadline::Never, None),
                Poll::Ready(TransferOutcome::Transferred(Some(got))) if got == item
            ));
            // SAFETY: the held guard keeps the retirement pending.
            let exited = unsafe { &*node }.exited.load(Ordering::SeqCst) != 0;
            assert!(exited, "resolving the permit is the waiter's exit");
        }
    }

    /// The drop rule's third case on the stack: a request permit dropped
    /// while a producer's claim is in progress only exits, and the item the
    /// producer then deposits goes with the node, dropped once when the
    /// retirement frees it.
    #[test]
    fn a_permit_dropped_mid_claim_leaves_the_item_to_the_node() {
        let drops = std::sync::atomic::AtomicUsize::new(0);
        let s: Arc<SyncDualStack<Counted<'_>>> = Arc::new(SyncDualStack::new());
        let StartTransfer::Pending(permit) = SyncDualStack::start_transfer(&s, None) else {
            panic!("an empty stack publishes the reservation");
        };
        // SAFETY: single-threaded; nothing is retired behind our back, and
        // the retirement runs on the spot.
        let guard = unsafe { Epoch::unprotected() };
        let h = s.head.load(Ordering::Acquire, &guard);
        // SAFETY: the reservation, still linked.
        let top = unsafe { h.deref() };
        assert!(top.slot.try_claim());
        drop(permit);
        // SAFETY: the claim grants the empty request cell.
        unsafe { top.slot.put_item(Counted(&drops)) };
        top.slot.complete();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "the node keeps it");
        assert!(s.pop_head(h, &guard));
        assert_eq!(drops.load(Ordering::SeqCst), 1, "freed at its retirement");
        assert_eq!(s.linked_nodes(), 0);
    }

    #[test]
    fn drop_frees_pending_data() {
        static DROPS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let s: SyncDualStack<D> = SyncDualStack::new();
            for _ in 0..3 {
                let r = s.offer_timeout(D, Duration::from_micros(1));
                drop(r);
            }
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }
}
