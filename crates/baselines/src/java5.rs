//! The Java SE 5.0 `SynchronousQueue` (paper Listing 4).
//!
//! One entry lock protects two wait lists — `waiting_producers` and
//! `waiting_consumers` — which are FIFO queues in fair mode and LIFO stacks
//! in unfair mode. An arriving thread that finds a counterpart waiting
//! performs a single synchronization operation (the entry lock); otherwise
//! it enqueues a node carrying its own little synchronizer and blocks on
//! it. Three synchronization events per transfer versus Hanson's six — but
//! the coarse-grained lock serializes *all* operations, which is the
//! scalability bottleneck the paper's lock-free structures remove.
//!
//! The per-waiter synchronizer is the shared
//! [`synq_primitives::WaitSlot`]: a fulfiller holding the entry lock
//! claims the node (`try_claim`), moves the item, and completes; the
//! waiter blocks in [`WaitSlot::await_outcome`]. The Listing 4 semantics
//! — park immediately, no spinning — are the default
//! [`SpinPolicy::park_immediately`] strategy, but [`Java5SQ::with_spin`]
//! exposes the same knob as the dual structures for uniform sweeps.
//!
//! In fair mode the entry lock itself is FIFO-fair
//! ([`crate::TicketLock`]), matching the Java implementation's
//! fair-mode `ReentrantLock`: "the fair-mode version uses a fair-mode entry
//! lock to ensure FIFO wait ordering. This causes pileups that block the
//! threads that will fulfill waiting threads" — the effect ablation A2
//! isolates.

use crate::TicketLock;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use synq::{impl_sync_channel, Deadline, TimedSyncChannel, TransferOutcome};
use synq_primitives::{CancelToken, SpinPolicy, WaitOutcome, WaitSlot};

/// Per-waiter synchronizer (the Listing 4 `Node` with its AQS replaced by
/// the shared wait-slot protocol). Producer nodes are armed with their item
/// before being enqueued; consumer nodes receive the item on fulfillment.
type Node<T> = WaitSlot<T>;

#[derive(Debug)]
struct Lists<T> {
    waiting_producers: VecDeque<Arc<Node<T>>>,
    waiting_consumers: VecDeque<Arc<Node<T>>>,
}

impl<T> Lists<T> {
    /// Pops per the configured discipline. The popped node may already be
    /// cancelled; the caller arbitrates with [`WaitSlot::try_claim`].
    fn pop(deque: &mut VecDeque<Arc<Node<T>>>, fair: bool) -> Option<Arc<Node<T>>> {
        if fair {
            deque.pop_front()
        } else {
            deque.pop_back()
        }
    }
}

/// The Listing 4 queue. `fair` selects FIFO wait lists + a FIFO entry
/// lock; unfair uses LIFO lists + an ordinary (barging) mutex.
///
/// Unlike [`crate::HansonSQ`], this design supports the full rich
/// interface, so it implements [`TimedSyncChannel`] and participates in the
/// `ThreadPoolExecutor` benchmark (Figure 6).
///
/// # Examples
///
/// ```
/// use synq_baselines::Java5SQ;
/// use synq::{SyncChannel, TimedSyncChannel};
/// use std::sync::Arc;
/// use std::thread;
///
/// let q = Arc::new(Java5SQ::fair());
/// let q2 = Arc::clone(&q);
/// let t = thread::spawn(move || q2.take());
/// q.put(3u32);
/// assert_eq!(t.join().unwrap(), 3);
/// assert_eq!(q.poll(), None);
/// ```
#[derive(Debug)]
pub struct Java5SQ<T> {
    /// Present in fair mode: the FIFO entry lock taken around every list
    /// operation, dominating the inner mutex (which is then uncontended).
    fair_entry: Option<TicketLock>,
    lists: Mutex<Lists<T>>,
    fair: bool,
    /// How waiters burn time before parking. Listing 4 parks immediately.
    spin: SpinPolicy,
}

impl<T: Send> Java5SQ<T> {
    /// Fair (queue-based) mode with a FIFO entry lock.
    pub fn fair() -> Self {
        Self::with_mode(true)
    }

    /// Unfair (stack-based) mode with an ordinary mutex.
    pub fn unfair() -> Self {
        Self::with_mode(false)
    }

    /// Explicit-mode constructor (used by ablation A2, which also pairs
    /// fair lists with an unfair lock via [`Java5SQ::fair_lists_unfair_lock`]).
    pub fn with_mode(fair: bool) -> Self {
        Self::with_spin(fair, SpinPolicy::park_immediately())
    }

    /// Explicit mode *and* spin policy — `with_spin` parity with the dual
    /// structures, for uniform wait-strategy sweeps. Listing 4 itself never
    /// spins ([`SpinPolicy::park_immediately`], the `with_mode` default).
    pub fn with_spin(fair: bool, spin: SpinPolicy) -> Self {
        Java5SQ {
            fair_entry: fair.then(TicketLock::new),
            lists: Mutex::new(Lists {
                waiting_producers: VecDeque::new(),
                waiting_consumers: VecDeque::new(),
            }),
            fair,
            spin,
        }
    }

    /// Ablation A2: FIFO wait lists but a barging entry lock — isolates
    /// how much of fair-mode's cost is the fair *lock* rather than FIFO
    /// pairing.
    pub fn fair_lists_unfair_lock() -> Self {
        Java5SQ {
            fair_entry: None,
            lists: Mutex::new(Lists {
                waiting_producers: VecDeque::new(),
                waiting_consumers: VecDeque::new(),
            }),
            fair: true,
            spin: SpinPolicy::park_immediately(),
        }
    }

    /// True if this queue pairs FIFO.
    pub fn is_fair(&self) -> bool {
        self.fair
    }

    fn with_lists<R>(&self, f: impl FnOnce(&mut Lists<T>) -> R) -> R {
        let _entry = self.fair_entry.as_ref().map(|l| l.lock());
        let mut lists = self.lists.lock().unwrap();
        f(&mut lists)
    }

    /// Blocks on `node` until fulfilled, timed out, or cancelled, through
    /// the shared wait loop. A cancelled node stays in its list; fulfillers
    /// discard it when their claim fails.
    fn await_node(
        &self,
        node: &Node<T>,
        is_producer: bool,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match node.await_outcome(deadline, token, &self.spin) {
            WaitOutcome::Matched(_) => {
                if is_producer {
                    TransferOutcome::Transferred(None)
                } else {
                    // SAFETY: the terminal state publishes the deposit.
                    TransferOutcome::Transferred(Some(unsafe { node.take_item() }))
                }
            }
            verdict => {
                // We won the cancel CAS: the item cell is ours again, and
                // no fulfiller will ever claim this node.
                let item = if is_producer {
                    // SAFETY: producer nodes were armed before enqueue and
                    // the won cancel race returns the cell to us.
                    Some(unsafe { node.take_item() })
                } else {
                    None
                };
                if matches!(verdict, WaitOutcome::Cancelled) {
                    TransferOutcome::Cancelled(item)
                } else {
                    TransferOutcome::Timeout(item)
                }
            }
        }
    }
}

/// Result of the single-lock pop-or-push step of `transfer`.
enum Step<T> {
    /// A counterpart was fulfilled while holding the entry lock; for
    /// consumers the payload is the received item.
    Done(Option<T>),
    /// We were enqueued and must wait on our node.
    MustWait(Arc<Node<T>>),
    /// No counterpart and waiting is not permitted; the item is handed
    /// back to the caller.
    FailFast(Option<T>),
}

impl<T: Send> TimedSyncChannel<T> for Java5SQ<T> {
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        let is_producer = item.is_some();
        let cancelled_on_entry = token.is_some_and(|tk| tk.is_cancelled());
        let mut give = item;
        // Listing 4 lines 18–22 / 33–37: the pop-of-the-counterpart-list
        // and the push-onto-our-own-list happen under ONE hold of the
        // entry lock. (Doing them as two separate acquisitions admits a
        // race where a producer and a consumer each observe "empty" and
        // both enqueue, stranding the pair forever.)
        let step = self.with_lists(|lists| {
            let counterpart = if is_producer {
                &mut lists.waiting_consumers
            } else {
                &mut lists.waiting_producers
            };
            while let Some(node) = Lists::pop(counterpart, self.fair) {
                if !node.try_claim() {
                    continue; // cancelled node: discard, try the next waiter
                }
                let received = if is_producer {
                    // SAFETY: the claim grants the item cell to us.
                    unsafe { node.put_item(give.take().expect("producer holds an item")) };
                    None
                } else {
                    // SAFETY: producer nodes are armed before enqueue and
                    // the claim grants the cell to us.
                    Some(unsafe { node.take_item() })
                };
                node.complete();
                synq_obs::probe!(Java5Transfers);
                return Step::Done(received);
            }
            if deadline.is_now() || cancelled_on_entry {
                return Step::FailFast(give.take());
            }
            let node = Arc::new(match give.take() {
                Some(v) => WaitSlot::with_item(v),
                None => WaitSlot::new(),
            });
            let own = if is_producer {
                &mut lists.waiting_producers
            } else {
                &mut lists.waiting_consumers
            };
            own.push_back(Arc::clone(&node));
            Step::MustWait(node)
        });
        match step {
            Step::Done(v) => TransferOutcome::Transferred(v),
            Step::FailFast(v) => {
                if cancelled_on_entry {
                    TransferOutcome::Cancelled(v)
                } else {
                    TransferOutcome::Timeout(v)
                }
            }
            Step::MustWait(node) => self.await_node(&node, is_producer, deadline, token),
        }
    }
}

impl_sync_channel!(Java5SQ);

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::{Duration, Instant};
    use synq::{SyncChannel, TimedSyncChannel};

    fn both_modes() -> Vec<Java5SQ<u32>> {
        vec![
            Java5SQ::fair(),
            Java5SQ::unfair(),
            Java5SQ::fair_lists_unfair_lock(),
        ]
    }

    #[test]
    fn put_take_pair_all_modes() {
        for q in both_modes() {
            let q = Arc::new(q);
            let q2 = Arc::clone(&q);
            let t = thread::spawn(move || q2.take());
            q.put(77);
            assert_eq!(t.join().unwrap(), 77);
        }
    }

    #[test]
    fn poll_offer_fail_on_empty() {
        for q in both_modes() {
            assert_eq!(q.poll(), None);
            assert_eq!(q.offer(1), Err(1));
        }
    }

    #[test]
    fn offer_succeeds_with_waiting_consumer() {
        let q = Arc::new(Java5SQ::fair());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        // Wait for the consumer node to be enqueued.
        loop {
            match q.offer(13) {
                Ok(()) => break,
                Err(_) => thread::yield_now(),
            }
        }
        assert_eq!(t.join().unwrap(), 13);
    }

    #[test]
    fn timed_poll_expires() {
        let q: Java5SQ<u32> = Java5SQ::unfair();
        let start = Instant::now();
        assert_eq!(q.poll_timeout(Duration::from_millis(25)), None);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn timed_offer_returns_item() {
        let q: Java5SQ<u32> = Java5SQ::fair();
        assert_eq!(q.offer_timeout(5, Duration::from_millis(10)), Err(5));
    }

    #[test]
    fn spinning_variant_pairs_correctly() {
        // with_spin parity: the baseline accepts any strategy the dual
        // structures accept, and the protocol is unchanged by spinning.
        let q = Arc::new(Java5SQ::with_spin(false, SpinPolicy::fixed(64)));
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        q.put(5u32);
        assert_eq!(t.join().unwrap(), 5);
        assert_eq!(q.poll(), None);
    }

    #[test]
    fn fair_mode_pairs_fifo() {
        let q = Arc::new(Java5SQ::fair());
        let mut producers = Vec::new();
        for i in 0..5 {
            let q2 = Arc::clone(&q);
            producers.push(thread::spawn(move || q2.put(i)));
            // Ensure arrival order: wait until producer i is queued.
            loop {
                let len = q.lists.lock().unwrap().waiting_producers.len();
                if len >= (i + 1) as usize {
                    break;
                }
                thread::yield_now();
            }
        }
        for expect in 0..5 {
            assert_eq!(q.take(), expect);
        }
        for p in producers {
            p.join().unwrap();
        }
    }

    #[test]
    fn unfair_mode_pairs_lifo() {
        let q = Arc::new(Java5SQ::unfair());
        let mut producers = Vec::new();
        for i in 0..4 {
            let q2 = Arc::clone(&q);
            producers.push(thread::spawn(move || q2.put(i)));
            loop {
                let len = q.lists.lock().unwrap().waiting_producers.len();
                if len >= (i + 1) as usize {
                    break;
                }
                thread::yield_now();
            }
        }
        for expect in (0..4).rev() {
            assert_eq!(q.take(), expect);
        }
        for p in producers {
            p.join().unwrap();
        }
    }

    #[test]
    fn cancellation_interrupts_take() {
        let q: Arc<Java5SQ<u32>> = Arc::new(Java5SQ::fair());
        let token = CancelToken::new();
        let canceller = token.clone();
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take_with(Deadline::Never, Some(&token)));
        thread::sleep(Duration::from_millis(20));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(None) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_nodes_are_skipped_by_fulfillers() {
        let q: Arc<Java5SQ<u32>> = Arc::new(Java5SQ::fair());
        // A consumer times out, leaving a cancelled node in the list.
        assert_eq!(q.poll_timeout(Duration::from_millis(5)), None);
        // A fresh consumer then a producer: the producer must skip the
        // cancelled node and fulfill the live one.
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        loop {
            match q.offer(21) {
                Ok(()) => break,
                Err(_) => thread::yield_now(),
            }
        }
        assert_eq!(t.join().unwrap(), 21);
    }

    #[test]
    fn abandoned_producer_item_is_dropped_with_queue() {
        // A producer that times out reclaims its item; a producer whose
        // node is still armed when the queue drops must not leak it.
        let payload = Arc::new(());
        let q: Java5SQ<Arc<()>> = Java5SQ::unfair();
        assert!(q
            .offer_timeout(Arc::clone(&payload), Duration::from_millis(5))
            .is_err());
        drop(q);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn stress_conserves_values() {
        const N: usize = 4;
        const PER: usize = 300;
        for q in [Java5SQ::fair(), Java5SQ::unfair()] {
            let q = Arc::new(q);
            let mut handles = Vec::new();
            for p in 0..N {
                let q = Arc::clone(&q);
                handles.push(thread::spawn(move || {
                    for i in 0..PER {
                        q.put((p * PER + i) as u32);
                    }
                }));
            }
            let consumers: Vec<_> = (0..N)
                .map(|_| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || (0..PER).map(|_| q.take() as usize).sum::<usize>())
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            assert_eq!(total, (0..N * PER).sum::<usize>());
        }
    }
}
