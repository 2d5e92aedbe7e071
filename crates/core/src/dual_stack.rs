//! The synchronous dual stack — the paper's **unfair** algorithm
//! (Listing 6 / Figure 2), with time-out and cancellation support in the
//! style of the Java 6 production version (`TransferStack`).
//!
//! # Algorithm
//!
//! The stack is a singly linked list with one `head` pointer (the Treiber
//! skeleton). It holds either data nodes (waiting producers) or request
//! nodes (waiting consumers) — plus, transiently, a single *fulfilling*
//! node of the opposite type on top. Three cases on arrival:
//!
//! 1. **Empty or same mode** — push our node and wait for a counterpart to
//!    set its `match` pointer (spin on our own node, then park).
//! 2. **Complementary mode on top** — push a node marked `FULFILLING`
//!    above it, then *annihilate*: CAS the reservation's `match` to our
//!    fulfilling node and pop both together (Figure 2 steps B–D).
//! 3. **Fulfilling node on top** — *help* the fulfiller complete its match
//!    and pop, then retry our own operation. Helping is what makes the
//!    algorithm lock-free: no thread can block another's progress.
//!
//! The request linearizes at the head-CAS that pushes our node (case 1) or
//! our fulfilling node (case 2); the follow-up linearizes at the `match`
//! CAS (paper §3.3).
//!
//! # Cancellation and cleaning
//!
//! A waiter cancels by CASing its node's state word `WAITING → CANCELLED`
//! — the same word a fulfiller CASes its own address into, so
//! match-vs-cancel is arbitrated by a single CAS exactly as in the Java
//! code (which CASes the `match` pointer to self; here the shared
//! [`synq_primitives::WaitSlot`] engine reserves the low state values and
//! uses the fulfiller's address as the match *token*). Cancelled nodes are
//! reclaimed when they surface at the top of the stack: every arriving operation (and the
//! canceller itself) first pops cancelled top nodes, and fulfillers skip
//! over cancelled nodes beneath them (`cas_next`), releasing them. As in
//! the [queue](crate::dual_queue), we do not unsplice cancelled nodes from
//! the *middle* of the stack from arbitrary positions — that is only
//! memory-safe under a tracing GC — but the skip-from-fulfiller path plus
//! top absorption bounds buildup the same way (experiment A4).
//!
//! # Memory lifetime
//!
//! The node and its lifetime rule (two references, the structure's
//! released by a deferred retirement, the owner's directly) are
//! [`crate::dual_list`]'s. One extra wrinkle (absent from the GC'd Java
//! version): a *consumer* waiter must read the fulfiller's item after
//! waking, possibly long after the fulfiller popped both nodes — so when
//! the matched node is a request, the thread whose CAS installs the match
//! first takes an extra reference on the fulfilling node *on the waiter's
//! behalf*; the stack's [`Leave::leave`] releases it after reading, in
//! blocking and poll mode alike (a dropped permit that lost to the match
//! leaves the same way). A producer waiter never reads the fulfilling
//! node, so its match takes no reference, and the waiter drops none.
//!
//! A fulfiller touches the matched waiter's node only while its match CAS
//! still holds the line: the slot's wake writes the mailbox only if a
//! waiter registered there, a consumer fulfiller takes the producer's item
//! at once, and the matched node's structure reference is retired without
//! the `unlinked` swap, because the fulfiller is its one remover.
//!
//! Unlike the queue, the stack removes nodes from *mid-chain* (a fulfiller
//! or helper skips cancelled nodes beneath the fulfilling top), so the
//! bounded-protection backends need stronger validation than the queue's
//! snapshot re-check:
//!
//! * **Skips rewrite the link before retiring its target**, so
//!   [`synq_reclaim::Shield::protect`]'s own source re-check (publish, re-read, loop)
//!   already rules out dereferencing a skip victim.
//! * **A matched reservation can be retired without its predecessor's
//!   `next` changing** (the dead fulfilling node still points at it).
//!   Two defenses: the *fulfiller* — the only thread that must read the
//!   matched node's item — is made the sole releaser of the matched
//!   node's structure reference (helpers leave it), so the node is
//!   refcount-live until the fulfiller is done with it; and *helpers*
//!   re-validate that the fulfilling node is still the head before
//!   dereferencing below it (a popped node is never re-pushed, and the
//!   protecting slot prevents its address from being recycled, so
//!   `head == h` is unambiguous).
//! * **A matched waiter does not help pop.** It takes no pin and never
//!   reads `head`: its fulfiller pops the pair right after the match, and
//!   if the fulfiller stalls first, the next arrival finds the fulfilling
//!   node on top and pops the pair for it (case 3).
//! * **The chain walk** (`linked_nodes`) is the kernel's head re-anchor:
//!   with the head stable, every link-validated node reached from it is
//!   unpopped (the stack pops only at the top) and unskipped, and nodes
//!   retired before the walk began are unreachable from the current head.

use crate::dual_list::{count_linked, Leave, NodePermit, Start, WaitNode, DATA, REQUEST};
use crate::pollable::{PollTransferer, StartTransfer};
use crate::transferer::{Deadline, TransferOutcome, Transferer};
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use synq_primitives::{CachePadded, CancelToken, SpinPolicy, WaitOutcome};
use synq_reclaim::{Atomic, Epoch, Owned, Reclaimer, Shared};

/// Mode bit: the node is actively fulfilling the node beneath it (ORed
/// with the kernel's `REQUEST`/`DATA`). The stack's fulfillers match a
/// reservation by storing their own node's address in its slot as the
/// match *token* (the Java `TransferStack` CASes a `match` pointer; the
/// slot's reserved control states play the null/self roles).
const FULFILLING: usize = 2;

fn is_fulfilling<T, R: Reclaimer>(node: &WaitNode<T, R>) -> bool {
    node.mode & FULFILLING != 0
}

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
///
/// A reclamation backend other than the default epoch collector is selected
/// with the second type parameter (see [`Reclaimer`]):
///
/// ```
/// use synq::{SyncDualStack, TimedSyncChannel};
/// use synq_reclaim::Hazard;
///
/// let s: SyncDualStack<u32, Hazard> = SyncDualStack::new_in();
/// assert_eq!(s.poll(), None);
/// ```
pub struct SyncDualStack<T, R: Reclaimer = Epoch> {
    /// The single contended word of the structure: padded so the spin
    /// policy beside it never rides its cache line.
    head: CachePadded<Atomic<WaitNode<T, R>, R>>,
    spin: SpinPolicy,
}

// Layout: `head` must own its line(s).
const _: () = assert!(std::mem::align_of::<SyncDualStack<u8>>() >= 128);
const _: () = assert!(std::mem::size_of::<SyncDualStack<u8>>() >= 128);

// SAFETY: as for SyncDualQueue.
unsafe impl<T: Send, R: Reclaimer> Send for SyncDualStack<T, R> {}
unsafe impl<T: Send, R: Reclaimer> Sync for SyncDualStack<T, R> {}

impl<T: Send, R: Reclaimer> Default for SyncDualStack<T, R> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl<T: Send> SyncDualStack<T> {
    /// Creates an empty stack with the adaptive spin policy and the
    /// default epoch reclaimer. (Kept non-generic so bare
    /// `SyncDualStack::new()` call sites infer the default backend; use
    /// [`SyncDualStack::new_in`] to pick another.)
    pub fn new() -> Self {
        Self::with_spin(SpinPolicy::adaptive())
    }

    /// Creates an empty stack with an explicit spin policy (ablation A1).
    pub fn with_spin(spin: SpinPolicy) -> Self {
        Self::with_spin_in(spin)
    }
}

impl<T: Send, R: Reclaimer> SyncDualStack<T, R> {
    /// Creates an empty stack with the adaptive spin policy under the
    /// reclamation backend `R`. The backend defaults to epoch, so the
    /// plain [`SyncDualStack::new`] is `new_in` with `R = Epoch`:
    ///
    /// ```
    /// use synq::{SyncChannel, SyncDualStack};
    /// use synq_reclaim::Hazard;
    ///
    /// let s: SyncDualStack<u32, Hazard> = SyncDualStack::new_in();
    /// std::thread::scope(|sc| {
    ///     sc.spawn(|| s.put(7));
    ///     sc.spawn(|| assert_eq!(s.take(), 7));
    /// });
    /// ```
    pub fn new_in() -> Self {
        Self::with_spin_in(SpinPolicy::adaptive())
    }

    /// Creates an empty stack with an explicit spin policy under the
    /// reclamation backend `R`.
    pub fn with_spin_in(spin: SpinPolicy) -> Self {
        SyncDualStack {
            head: CachePadded::new(Atomic::null()),
            spin,
        }
    }

    /// Pops `h`, releasing its structure reference, if it is still the
    /// head.
    fn pop_head<'g>(
        &self,
        h: Shared<'g, WaitNode<T, R>>,
        new_head: Shared<'g, WaitNode<T, R>>,
        guard: &'g R::Guard,
    ) -> bool {
        if self
            .head
            .compare_exchange(h, new_head, Ordering::AcqRel, Ordering::Acquire, guard)
            .is_ok()
        {
            // SAFETY: our CAS unlinked `h`, which the guard protects.
            unsafe { WaitNode::release_structure_ref(h, guard) };
            true
        } else {
            false
        }
    }

    /// Pushes a node of `mode` on `h`: the node a lost race handed back in
    /// `node`, or a fresh one, armed with a producer's `item`. On a lost
    /// race both go back where they came from, for the retry.
    fn push<'g>(
        &self,
        h: Shared<'g, WaitNode<T, R>>,
        mode: usize,
        node: &mut Option<Owned<WaitNode<T, R>>>,
        item: &mut Option<T>,
        guard: &'g R::Guard,
    ) -> Option<Shared<'g, WaitNode<T, R>>> {
        let mut owned = node.take().unwrap_or_else(|| WaitNode::alloc(mode));
        owned.mode = mode;
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

    /// Installs `f` as `m`'s match, waking `m`'s waiter. Returns true if
    /// `m` is matched to `f` (by us or a helper); false if `m` was
    /// cancelled. When `m` is a request, takes one reference on `f` on its
    /// waiter's behalf if our CAS wins: a consumer waiter reads `f`'s
    /// item, a producer waiter never touches `f`.
    fn try_match<'g>(
        &self,
        m: Shared<'g, WaitNode<T, R>>,
        f: Shared<'g, WaitNode<T, R>>,
        _guard: &'g R::Guard,
    ) -> bool {
        // SAFETY: both protected by the guard (callers validate `m`).
        let m_ref = unsafe { m.deref() };
        let f_ref = unsafe { f.deref() };
        // Speculative reference for a consumer waiter, taken before the
        // CAS lets it read `f`; revoked if the CAS fails.
        let for_waiter = !m_ref.is_data();
        if for_waiter {
            f_ref.add_ref();
        }
        match m_ref.slot.try_fulfill_token(f.as_raw() as usize) {
            Ok(()) => {
                synq_obs::probe!(StackMatchCas);
                true
            }
            Err(actual) => {
                synq_obs::probe!(StackMatchCasFail);
                if for_waiter {
                    // SAFETY: the reference taken above, dropped once.
                    unsafe { WaitNode::release(f.as_raw()) };
                }
                actual == f.as_raw() as usize
            }
        }
    }

    /// Pops cancelled nodes off the top. The stack-side cleaning strategy.
    fn pop_cancelled(&self, guard: &R::Guard) {
        loop {
            let h = self.head.load(Ordering::Acquire, guard);
            let Some(h_ref) = (unsafe { h.as_ref() }) else {
                return;
            };
            if !h_ref.slot.is_cancelled() {
                return;
            }
            // `next` is only installed as the new head, never dereferenced:
            // while `h` is still the head (the CAS below certifies it), a
            // node beneath a cancelled — non-fulfilling — top cannot be
            // removed, so its structure reference is intact.
            let next = h_ref.next.load(Ordering::Acquire, guard);
            let _ = self.pop_head(h, next, guard);
        }
    }

    /// The lock-free phase of one transfer: annihilate with a complementary
    /// waiter (helping any fulfiller in the way) or push a wait node. Never
    /// waits; `deadline`/`token` feed only the fail-fast checks before
    /// publication (pass [`Deadline::Never`] and `None` to always publish,
    /// as poll-mode callers do).
    fn start_impl(
        &self,
        mut item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> Start<T, R> {
        let is_data = item.is_some();
        let mode = if is_data { DATA } else { REQUEST };
        let mut node: Option<Owned<WaitNode<T, R>>> = None;

        loop {
            let guard = R::pin();
            self.pop_cancelled(&guard);

            let h = self.head.load(Ordering::Acquire, &guard);
            let h_ref = unsafe { h.as_ref() };

            if h_ref.is_none_or(|top| top.mode == mode) {
                // Case 1: empty or same mode — push and wait.
                if deadline.is_now() {
                    return ControlFlow::Break(TransferOutcome::Timeout(item));
                }
                if token.is_some_and(|tk| tk.is_cancelled()) {
                    return ControlFlow::Break(TransferOutcome::Cancelled(item));
                }
                match self.push(h, mode, &mut node, &mut item, &guard) {
                    Some(published) => return ControlFlow::Continue(published.as_raw()),
                    None => continue,
                }
            }

            let h_ref = h_ref.expect("non-empty in cases 2/3");
            if !is_fulfilling(h_ref) {
                // Case 2: complementary waiter on top — push a fulfilling
                // node above it and annihilate the pair.
                let Some(f) = self.push(h, mode | FULFILLING, &mut node, &mut item, &guard) else {
                    continue;
                };
                // SAFETY: f protected by the guard; we also hold its owner
                // reference.
                let f_ref = unsafe { f.deref() };
                loop {
                    // `m` is safe to dereference under every backend:
                    // `protect` re-checks `f.next` after publishing, so a
                    // skip victim (link rewritten before its retirement)
                    // is never returned; and a *matched* `m` can only be
                    // retired by us, below — its structure reference is
                    // the fulfiller's to release.
                    let m = f_ref.next.load(Ordering::Acquire, &guard);
                    let Some(m_ref) = (unsafe { m.as_ref() }) else {
                        // Everything beneath us was cancelled and skipped:
                        // back out, reclaim our item, retry from scratch.
                        let _ = self.pop_head(f, Shared::null(), &guard);
                        if is_data {
                            // SAFETY: no match happened (next never null
                            // after a successful match), so the item is
                            // still exclusively ours.
                            // (`consumed` stays true so the node's drop
                            // does not double-free the moved-out item.)
                            item = Some(unsafe { f_ref.slot.take_item() });
                        }
                        // SAFETY: our owner reference, dropped once.
                        unsafe { WaitNode::release(f.as_raw()) };
                        break;
                    };
                    let mn = m_ref.next.load(Ordering::Acquire, &guard);
                    if self.try_match(m, f, &guard) {
                        // A producer's item is read at once, while the
                        // match CAS still holds m's line.
                        // SAFETY: m matched to f grants us (f's owner)
                        // unique read access to m's item; m is
                        // refcount-live because its structure reference
                        // is released only below.
                        let got = (!is_data).then(|| unsafe { m_ref.slot.take_item() });
                        let _ = self.pop_head(f, mn, &guard);
                        // The matched node's structure reference is the
                        // fulfiller's alone to release (helpers pop the
                        // pair without touching it, and skips remove only
                        // cancelled nodes), so it is retired without the
                        // `unlinked` swap. That keeps `m` alive for the
                        // item read above even when a helper popped the
                        // pair first.
                        // SAFETY: `m` is off the chain, refcount-live, and
                        // we are its one remover.
                        unsafe { WaitNode::retire_structure_ref(m, &guard) };
                        // SAFETY: our owner reference on f, dropped once.
                        unsafe { WaitNode::release(f.as_raw()) };
                        return ControlFlow::Break(TransferOutcome::Transferred(got));
                    }
                    // m was cancelled: skip and release it.
                    if f_ref
                        .next
                        .compare_exchange(m, mn, Ordering::AcqRel, Ordering::Acquire, &guard)
                        .is_ok()
                    {
                        // SAFETY: our CAS unlinked `m`, which the guard
                        // protects.
                        unsafe { WaitNode::release_structure_ref(m, &guard) };
                    }
                }
                continue;
            }

            // Case 3: someone else's fulfilling node on top — help it.
            let m = h_ref.next.load(Ordering::Acquire, &guard);
            // Re-validate the root before touching `m`: if `h` was popped,
            // its fulfiller may retire the matched node without `h.next`
            // ever changing. Seeing `head == h` *after* the protecting
            // load above is conclusive — popped nodes are never re-pushed
            // and the slot keeps `h`'s address from being recycled — and
            // the fulfiller's release only happens once `h` is off the
            // head, so `m` is not yet retired and our protection holds.
            if !self.head.load(Ordering::Acquire, &guard).ptr_eq(&h) {
                continue;
            }
            match unsafe { m.as_ref() } {
                None => {
                    let _ = self.pop_head(h, Shared::null(), &guard);
                }
                Some(m_ref) => {
                    let mn = m_ref.next.load(Ordering::Acquire, &guard);
                    if self.try_match(m, h, &guard) {
                        synq_obs::probe!(StackHelped);
                        // Pop the pair; the matched node's structure
                        // reference is left for its fulfiller.
                        let _ = self.pop_head(h, mn, &guard);
                    } else if h_ref
                        .next
                        .compare_exchange(m, mn, Ordering::AcqRel, Ordering::Acquire, &guard)
                        .is_ok()
                    {
                        // SAFETY: our CAS unlinked `m`, which the guard
                        // protects.
                        unsafe { WaitNode::release_structure_ref(m, &guard) };
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
/// waiter leaves the pair to its fulfiller (or a helper) to pop; a
/// consumer takes its item from the fulfilling node (the match token) and
/// releases the reference the matcher took on that node on its behalf. A
/// waiter that won the cancel CAS pops the cancelled top and takes a
/// producer's item back.
impl<T: Send, R: Reclaimer> Leave<T> for SyncDualStack<T, R> {
    type Backend = R;

    unsafe fn leave(
        &self,
        node_raw: *const WaitNode<T, R>,
        verdict: WaitOutcome,
    ) -> TransferOutcome<T> {
        // SAFETY: we hold the owner reference.
        let node = unsafe { &*node_raw };
        let outcome = match verdict {
            WaitOutcome::Matched(m_token) => {
                // No pin and no look at `head`: the fulfiller pops the
                // pair, and it, not we, releases our node's structure
                // reference once it has read our item (or need not).
                // A producer's item is read by the fulfiller; a consumer
                // reads the fulfiller's.
                let item = (!node.is_data()).then(|| {
                    let m = m_token as *const WaitNode<T, R>;
                    // SAFETY: the match grants us unique read access to the
                    // fulfiller's item, and the reference the matcher took
                    // on `m` for us keeps it alive.
                    let item = unsafe { (*m).slot.take_item() };
                    // SAFETY: that reference, dropped once.
                    unsafe { WaitNode::release(m) };
                    item
                });
                TransferOutcome::Transferred(item)
            }
            verdict => {
                // We won the cancel CAS.
                self.pop_cancelled(&R::pin());
                // SAFETY: cancellation wins a producer's item back.
                let item = node.is_data().then(|| unsafe { node.slot.take_item() });
                if verdict == WaitOutcome::Cancelled {
                    TransferOutcome::Cancelled(item)
                } else {
                    TransferOutcome::Timeout(item)
                }
            }
        };
        // SAFETY: our owner reference, dropped once.
        unsafe { WaitNode::release(node_raw) };
        outcome
    }
}

impl<T: Send, R: Reclaimer> Transferer<T> for SyncDualStack<T, R> {
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match self.start_impl(item, deadline, token) {
            ControlFlow::Break(outcome) => outcome,
            // SAFETY: the node we just pushed, its owner reference ours.
            ControlFlow::Continue(node) => unsafe { self.wait(node, deadline, token, &self.spin) },
        }
    }
}

impl<T: Send, R: Reclaimer> PollTransferer<T> for SyncDualStack<T, R> {
    type Permit = NodePermit<T, Self>;

    fn start_transfer(this: &Arc<Self>, item: Option<T>) -> StartTransfer<T, Self::Permit> {
        // Never/None: poll-mode callers apply deadline and cancellation on
        // each poll; the lock-free phase must always publish.
        match this.start_impl(item, Deadline::Never, None) {
            ControlFlow::Break(outcome) => StartTransfer::Complete(outcome),
            // SAFETY: the node we just pushed; the permit takes its owner
            // reference.
            ControlFlow::Continue(node) => {
                StartTransfer::Pending(unsafe { NodePermit::new(Arc::clone(this), node) })
            }
        }
    }
}

impl<T, R: Reclaimer> Drop for SyncDualStack<T, R> {
    fn drop(&mut self) {
        // SAFETY: `&mut self`; waiters borrow the stack, so all have
        // returned and the remaining references are the structure's.
        unsafe { WaitNode::drain_chain(&self.head) };
    }
}

impl<T, R: Reclaimer> std::fmt::Debug for SyncDualStack<T, R> {
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
    fn hazard_backend_put_take_pair() {
        let s: Arc<SyncDualStack<u32, synq_reclaim::Hazard>> = Arc::new(SyncDualStack::new_in());
        let s2 = Arc::clone(&s);
        let t = thread::spawn(move || s2.take());
        s.put(47u32);
        assert_eq!(t.join().unwrap(), 47);
        assert_eq!(s.linked_nodes(), 0);
    }

    #[test]
    fn hazard_backend_timeout_storm_is_absorbed() {
        let s: SyncDualStack<u32, synq_reclaim::Hazard> = SyncDualStack::new_in();
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
        let canceller = token.canceller();
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
    fn hazard_backend_values_conserved_under_stress() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER: usize = 250;
        let s: Arc<SyncDualStack<usize, synq_reclaim::Hazard>> = Arc::new(SyncDualStack::new_in());
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

    /// Who holds the fulfilling node once a match lands, read off the
    /// waiter's match token: the structure's pending release, plus a
    /// consumer waiter's reference until it has read the fulfiller's item.
    /// A producer waiter never reads that node and holds nothing on it.
    /// The guard held throughout keeps every deferred release pending, so
    /// the counts are exact.
    #[test]
    fn only_a_consumer_waiter_holds_its_fulfilling_node() {
        let s: Arc<SyncDualStack<u32>> = Arc::new(SyncDualStack::new());
        let waker = std::task::Waker::noop();
        let _hold = Epoch::pin();
        for (waiting, matching) in [(Some(7), None), (None, Some(7))] {
            let ControlFlow::Continue(node) = s.start_impl(waiting, Deadline::Never, None) else {
                panic!("an empty stack must make the first arrival wait");
            };
            // SAFETY: the node just pushed; the permit takes its owner
            // reference.
            let mut permit = unsafe { NodePermit::new(Arc::clone(&s), node) };
            assert!(matches!(
                s.start_impl(matching, Deadline::Never, None),
                ControlFlow::Break(TransferOutcome::Transferred(got)) if got == waiting
            ));
            // SAFETY: the permit still holds the waiter's reference.
            let token = unsafe { &*node }.slot.matched().expect("matched");
            let f = token as *const WaitNode<u32, Epoch>;
            let consumer_waits = waiting.is_none();
            // SAFETY: the structure's release of `f` is deferred past the
            // held guard, so `f` is live while it is read here.
            let refs = || unsafe { &*f }.ref_count();
            assert_eq!(refs(), if consumer_waits { 2 } else { 1 });
            assert!(matches!(
                permit.poll_transfer(waker, Deadline::Never, None),
                Poll::Ready(TransferOutcome::Transferred(got)) if got == matching
            ));
            assert_eq!(refs(), 1, "only the structure's pending release");
        }
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
