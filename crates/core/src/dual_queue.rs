//! The synchronous dual queue — the paper's **fair** algorithm
//! (Listing 5 / Figure 1), with the time-out and cancellation support of
//! the Java 6 production version.
//!
//! It is the [`TransferQueue`] without a ring: the paper's §5 says the
//! TransferQueue's "base synchronous support … mirrors our fair
//! synchronous queue", and here it is that support and nothing else. Both
//! sides arrive through the transfer queue's one loop and wait there. An
//! arriving thread whose mode matches the list's contents (or finds it
//! empty) appends its node and waits for a counterpart to mark it
//! `MATCHED` (spin-then-park on its own node, no remote accesses while
//! waiting); an arriving thread of the opposite mode claims the node at
//! the front with a CAS on its state word, moves the item across and
//! unparks the waiter. The request linearizes at the `next` CAS that
//! appends the node, or at the state CAS that claims a waiting counterpart
//! (paper §3.3). The list itself is [`crate::dual_list`]; the ring's steps
//! that this queue skips are listed in the [`transfer`](crate::transfer)
//! module docs.

use crate::dual_list::{Leave, NodePermit, WaitNode};
use crate::pollable::{PollTransferer, StartTransfer};
use crate::transfer::{PutMode, TransferQueue};
use crate::{impl_sync_channel, Deadline, TimedSyncChannel, TransferOutcome};
use std::ops::ControlFlow;
use std::sync::Arc;
use synq_primitives::{CancelToken, SpinPolicy, WaitOutcome};

/// The fair (FIFO) synchronous queue.
///
/// See the [module docs](self) for the algorithm. Prefer the
/// [`crate::SynchronousQueue`] facade unless you need this concrete type.
///
/// # Examples
///
/// ```
/// use synq::{SyncDualQueue, SyncChannel, TimedSyncChannel};
/// use std::sync::Arc;
/// use std::thread;
///
/// let q = Arc::new(SyncDualQueue::new());
/// assert_eq!(q.poll(), None); // nobody waiting
/// let q2 = Arc::clone(&q);
/// let t = thread::spawn(move || q2.take());
/// q.put("hello");
/// assert_eq!(t.join().unwrap(), "hello");
/// ```
pub struct SyncDualQueue<T>(pub(crate) TransferQueue<T>);

// Layout: the list's padded ends must survive embedding.
const _: () = assert!(std::mem::align_of::<SyncDualQueue<u8>>() >= 128);
const _: () = assert!(std::mem::size_of::<SyncDualQueue<u8>>() >= 2 * 128);

impl<T: Send> Default for SyncDualQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> SyncDualQueue<T> {
    /// Creates an empty queue with the adaptive spin policy.
    pub fn new() -> Self {
        Self::with_spin(SpinPolicy::adaptive())
    }

    /// Creates an empty queue with an explicit spin policy (ablation A1).
    pub fn with_spin(spin: SpinPolicy) -> Self {
        SyncDualQueue(TransferQueue::ringless(spin))
    }

    /// Diagnostic: number of linked nodes (excluding the dummy). O(n); used
    /// by tests and the cleaning ablation, not by the algorithm.
    pub fn linked_nodes(&self) -> usize {
        self.0.list.linked_nodes()
    }
}

impl<T: Send> Leave<T> for SyncDualQueue<T> {
    unsafe fn leave(&self, node: *const WaitNode<T>, verdict: WaitOutcome) -> TransferOutcome<T> {
        // SAFETY: per the contract; this queue's nodes are its inner
        // queue's.
        unsafe { self.0.leave(node, verdict) }
    }
}

impl<T: Send> TimedSyncChannel<T> for SyncDualQueue<T> {
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match self.0.xfer(item, PutMode::Sync, deadline, token) {
            ControlFlow::Break(outcome) => outcome,
            // SAFETY: the node we just published, ours to wait on.
            ControlFlow::Continue(node) => unsafe {
                self.wait(node, deadline, token, &self.0.spin)
            },
        }
    }
}

impl_sync_channel!(SyncDualQueue);

impl<T: Send> PollTransferer<T> for SyncDualQueue<T> {
    type Permit = NodePermit<T, Self>;

    fn start_transfer(this: &Arc<Self>, item: Option<T>) -> StartTransfer<T, Self::Permit> {
        // Never/None: poll-mode callers apply deadline and cancellation on
        // each poll; the lock-free phase must always publish.
        match this.0.xfer(item, PutMode::Sync, Deadline::Never, None) {
            ControlFlow::Break(outcome) => StartTransfer::Complete(outcome),
            // SAFETY: the node we just published; the permit is its
            // waiter.
            ControlFlow::Continue(node) => {
                StartTransfer::Pending(unsafe { NodePermit::new(Arc::clone(this), node) })
            }
        }
    }
}

impl<T> std::fmt::Debug for SyncDualQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("SyncDualQueue { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{SyncChannel, TimedSyncChannel};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::{Duration, Instant};
    use synq_reclaim::{Epoch, Reclaimer};

    #[test]
    fn poll_and_offer_on_empty_fail() {
        let q: SyncDualQueue<u32> = SyncDualQueue::new();
        assert_eq!(q.poll(), None);
        assert_eq!(q.offer(7), Err(7));
        assert_eq!(q.linked_nodes(), 0);
    }

    #[test]
    fn put_take_pair() {
        let q = Arc::new(SyncDualQueue::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        q.put(99u32);
        assert_eq!(t.join().unwrap(), 99);
    }

    #[test]
    fn take_then_put() {
        let q = Arc::new(SyncDualQueue::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.put(5u64));
        assert_eq!(q.take(), 5);
        t.join().unwrap();
    }

    #[test]
    fn offer_succeeds_with_waiting_consumer() {
        let q = Arc::new(SyncDualQueue::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        // Wait until the consumer's reservation is linked.
        while q.linked_nodes() == 0 {
            thread::yield_now();
        }
        // A short retry loop: the reservation is linked, but may still be
        // settling; offer must succeed almost immediately.
        let mut v = 42u32;
        loop {
            match q.offer(v) {
                Ok(()) => break,
                Err(back) => {
                    v = back;
                    thread::yield_now();
                }
            }
        }
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn poll_timeout_expires_empty() {
        let q: SyncDualQueue<u8> = SyncDualQueue::new();
        let start = Instant::now();
        assert_eq!(q.poll_timeout(Duration::from_millis(30)), None);
        assert!(start.elapsed() >= Duration::from_millis(30));
        // The cancelled reservation must not linger once absorbed.
        let _ = q.poll(); // triggers absorption
        assert_eq!(q.linked_nodes(), 0);
    }

    #[test]
    fn offer_timeout_returns_item() {
        let q: SyncDualQueue<String> = SyncDualQueue::new();
        let item = "payload".to_string();
        let back = q
            .offer_timeout(item, Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(back, "payload");
    }

    #[test]
    fn fifo_order_among_waiting_producers() {
        let q = Arc::new(SyncDualQueue::new());
        let mut producers = Vec::new();
        for i in 0..5u32 {
            let q2 = Arc::clone(&q);
            producers.push(thread::spawn(move || q2.put(i)));
            // Ensure deterministic arrival order.
            while q.linked_nodes() < (i + 1) as usize {
                thread::yield_now();
            }
        }
        // Consume: must come out 0,1,2,3,4 (fairness).
        for expect in 0..5u32 {
            assert_eq!(q.take(), expect);
        }
        for p in producers {
            p.join().unwrap();
        }
    }

    #[test]
    fn cancellation_interrupts_waiting_take() {
        let q: Arc<SyncDualQueue<u8>> = Arc::new(SyncDualQueue::new());
        let token = CancelToken::new();
        let canceller = token.clone();
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take_with(Deadline::Never, Some(&token)));
        thread::sleep(Duration::from_millis(30));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(None) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_returns_item_to_producer() {
        let q: Arc<SyncDualQueue<Vec<u8>>> = Arc::new(SyncDualQueue::new());
        let token = CancelToken::new();
        let canceller = token.clone();
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.put_with(vec![1, 2, 3], Deadline::Never, Some(&token)));
        thread::sleep(Duration::from_millis(30));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(Some(v)) => assert_eq!(v, vec![1, 2, 3]),
            other => panic!("expected Cancelled(item), got {other:?}"),
        }
    }

    #[test]
    fn timeout_storm_is_absorbed() {
        // The paper's buildup scenario: high offer rate, tiny patience, no
        // consumers. Arrivals must absorb the cancelled prefix.
        let q: SyncDualQueue<u32> = SyncDualQueue::new();
        for i in 0..200 {
            let _ = q.offer_timeout(i, Duration::from_micros(1));
        }
        // After the storm at most a handful of nodes may remain linked
        // (the last arrivals, already cancelled but not yet absorbed).
        let _ = q.poll();
        assert!(
            q.linked_nodes() <= 2,
            "cancelled nodes built up: {}",
            q.linked_nodes()
        );
    }

    #[test]
    fn values_conserved_under_stress() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER: usize = 500;
        let q = Arc::new(SyncDualQueue::new());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    q.put(p * PER + i);
                }
            }));
        }
        let sums: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut sum = 0usize;
                    for _ in 0..(PRODUCERS * PER / CONSUMERS) {
                        sum += q.take();
                    }
                    sum
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = sums.into_iter().map(|h| h.join().unwrap()).sum();
        let expected: usize = (0..PRODUCERS * PER).sum();
        assert_eq!(total, expected);
        assert_eq!(q.linked_nodes(), 0);
    }

    #[test]
    fn drop_frees_unmatched_data_nodes() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let q: SyncDualQueue<D> = SyncDualQueue::new();
            // Timed-out offers leave cancelled nodes whose items were
            // reclaimed by the producer; the nodes themselves are freed on
            // drop at the latest.
            for _ in 0..5 {
                let r = q.offer_timeout(D, Duration::from_micros(1));
                drop(r); // drops the returned D
            }
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    /// The drop rule's third case: a permit dropped while a fulfiller's
    /// claim is in progress only exits, and the
    /// item the claimer then deposits goes with the node.
    #[test]
    fn a_permit_dropped_mid_claim_leaves_the_item_to_the_node() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let q: Arc<SyncDualQueue<D>> = Arc::new(SyncDualQueue::new());
        let StartTransfer::Pending(permit) = SyncDualQueue::start_transfer(&q, None) else {
            panic!("an empty queue publishes the reservation");
        };
        {
            // SAFETY: single-threaded; nothing is retired behind our back.
            let guard = unsafe { Epoch::unprotected() };
            let at = q.0.list.arrive(&guard);
            let m = at.front().expect("the reservation");
            assert!(m.slot.try_claim());
            drop(permit);
            unsafe { m.slot.put_item(D) };
            m.slot.complete();
            at.advance_past(m);
        }
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            0,
            "the node, now the dummy, keeps it"
        );
        drop(q);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }
}
