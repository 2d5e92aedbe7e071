//! Poll-mode (two-phase) transfer entry points.
//!
//! The blocking [`Transferer`](crate::Transferer) interface folds the whole
//! rendezvous — reserve, wait, resolve — into one call, because a thread
//! can simply park in the middle. An async task cannot: it must *return*
//! while waiting and be re-polled later. This module splits the protocol at
//! exactly the seam the paper's algorithms already have:
//!
//! 1. [`PollTransferer::start_transfer`] runs the lock-free part — match a
//!    waiting counterpart (done, no suspension) or publish a node — and
//!    returns either the finished outcome or a [`PendingTransfer`] *permit*
//!    standing for the published node.
//! 2. [`PendingTransfer::poll_transfer`] drives the published node's
//!    [`WaitSlot`](synq_primitives::WaitSlot) through its poll-mode wait
//!    loop: it registers the task's `Waker` and reports `Pending`, or
//!    resolves the terminal state into a
//!    [`TransferOutcome`] exactly as the blocking
//!    `awaitFulfill` epilogue would.
//!
//! # Cancel safety
//!
//! Dropping a permit whose transfer has not resolved runs the *same*
//! `try_cancel` CAS a timed-out thread waiter runs, and settles an
//! in-flight item exactly once: a producer's unsent item when the cancel
//! won, a fulfiller's deposited item the dropped consumer will never read
//! when it lost. For every kernel node that is one permit,
//! [`crate::dual_list::NodePermit`], and one drop rule (see
//! [`crate::dual_list`]). This is what makes `synq-async`'s futures safe
//! to drop at every protocol state; the permit, not the future, owns the
//! obligation.

use crate::transferer::{Deadline, TransferOutcome};
use core::task::{Poll, Waker};
use std::sync::Arc;
use synq_primitives::CancelToken;

/// First phase of a poll-mode transfer: finished outright, or pending on a
/// published node.
#[derive(Debug)]
pub enum StartTransfer<T, P> {
    /// The transfer resolved without waiting (a counterpart was already
    /// there). Same payload convention as
    /// [`TransferOutcome`].
    Complete(TransferOutcome<T>),
    /// A node was published; drive the permit to resolution (or drop it to
    /// cancel).
    Pending(P),
}

/// A published, not-yet-resolved transfer: the poll-mode stand-in for a
/// thread parked in `awaitFulfill`.
///
/// A permit must be either polled to `Ready` or dropped; both paths settle
/// item ownership exactly once (see the [module docs](self)).
///
/// `Unpin` is a supertrait by design: a permit only *points at* its node
/// (which never moves), so moving the permit itself is always fine — and
/// it lets the futures built on top be `Unpin` without pin projection.
pub trait PendingTransfer<T: Send>: Send + Unpin {
    /// Makes one pass of the wait protocol. Registers `waker` and returns
    /// `Pending`, or resolves: `Transferred` when matched, and
    /// `Timeout`/`Cancelled` — with a producer's item handed back — only
    /// after winning the cancel CAS against any racing fulfiller. With a
    /// `token`, the task is registered with it too, so cancelling the
    /// token wakes a pending poll; the registration ends when the permit
    /// resolves or is dropped.
    ///
    /// `Pending` with an unexpired [`Deadline::At`] relies on the caller to
    /// arrange a wake at the deadline (there is no timer down here).
    ///
    /// # Panics
    ///
    /// May panic if called again after returning `Ready` (the future
    /// contract: a resolved future is never re-polled).
    fn poll_transfer(
        &mut self,
        waker: &Waker,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> Poll<TransferOutcome<T>>;
}

/// A synchronous transfer point that can start transfers without suspending
/// the calling thread — the capability `synq-async` builds futures from.
///
/// Implemented by [`SyncDualQueue`](crate::SyncDualQueue) (fair) and
/// [`SyncDualStack`](crate::SyncDualStack) (unfair), both with a
/// [`NodePermit`](crate::dual_list::NodePermit); and by
/// [`BufferedChannel`](crate::transfer::BufferedChannel), whose permit is a `NodePermit` for a
/// waiting send and a wait-list entry for a receiver. (`TransferQueue`
/// itself is polled through that adapter.) The receiver is an `Arc`
/// because the returned permit keeps the structure alive for as long as
/// its node may be reachable.
pub trait PollTransferer<T: Send>: Send + Sync + Sized {
    /// The permit type standing for this structure's published nodes.
    type Permit: PendingTransfer<T>;

    /// Runs the lock-free phase of one transfer: `Some(v)` acts as a
    /// producer, `None` as a consumer. Never blocks and never waits —
    /// when no counterpart is available it publishes a wait node and
    /// returns [`StartTransfer::Pending`].
    fn start_transfer(this: &Arc<Self>, item: Option<T>) -> StartTransfer<T, Self::Permit>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::TimedSyncChannel;
    use crate::{SyncDualQueue, SyncDualStack};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::Waker;

    fn counting_waker(hits: Arc<AtomicUsize>) -> Waker {
        struct W(Arc<AtomicUsize>);
        impl std::task::Wake for W {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        Waker::from(Arc::new(W(hits)))
    }

    /// Exercises the full poll-mode rendezvous generically: pending
    /// consumer, fulfilling producer, wakeup, Ready with the item.
    fn pending_consumer_is_woken_and_resolves<Q: PollTransferer<u32>>(q: Arc<Q>) {
        let StartTransfer::Pending(mut permit) = Q::start_transfer(&q, None) else {
            panic!("empty structure must publish a reservation");
        };
        let hits = Arc::new(AtomicUsize::new(0));
        let waker = counting_waker(Arc::clone(&hits));
        assert!(permit
            .poll_transfer(&waker, Deadline::Never, None)
            .is_pending());
        // Fulfill from this same thread (never blocks: a reservation waits).
        match Q::start_transfer(&q, Some(77)) {
            StartTransfer::Complete(TransferOutcome::Transferred(None)) => {}
            StartTransfer::Complete(other) => {
                panic!("producer must complete against the reservation: {other:?}")
            }
            StartTransfer::Pending(_) => panic!("producer must not publish a second node"),
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1, "exactly one wakeup");
        match permit.poll_transfer(&waker, Deadline::Never, None) {
            Poll::Ready(TransferOutcome::Transferred(Some(77))) => {}
            other => panic!("expected the item, got {other:?}"),
        }
    }

    #[test]
    fn queue_pending_consumer_is_woken_and_resolves() {
        pending_consumer_is_woken_and_resolves(Arc::new(SyncDualQueue::new()));
    }

    #[test]
    fn stack_pending_consumer_is_woken_and_resolves() {
        pending_consumer_is_woken_and_resolves(Arc::new(SyncDualStack::new()));
    }

    /// A permit polled with a token registers its task with it: the
    /// cancel wakes the task, and the next poll resolves.
    fn cancelling_the_token_wakes_a_pending_poll<Q: PollTransferer<u32>>(q: Arc<Q>) {
        let StartTransfer::Pending(mut permit) = Q::start_transfer(&q, None) else {
            panic!("empty structure must publish a reservation");
        };
        let hits = Arc::new(AtomicUsize::new(0));
        let waker = counting_waker(Arc::clone(&hits));
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
    }

    #[test]
    fn queue_cancelling_the_token_wakes_a_pending_poll() {
        cancelling_the_token_wakes_a_pending_poll(Arc::new(SyncDualQueue::new()));
    }

    #[test]
    fn stack_cancelling_the_token_wakes_a_pending_poll() {
        cancelling_the_token_wakes_a_pending_poll(Arc::new(SyncDualStack::new()));
    }

    #[test]
    fn queue_dropping_pending_permit_cancels_reservation() {
        let q: Arc<SyncDualQueue<u32>> = Arc::new(SyncDualQueue::new());
        let StartTransfer::Pending(permit) = SyncDualQueue::start_transfer(&q, None) else {
            panic!("expected a pending reservation");
        };
        drop(permit);
        // The reservation is gone: an offer finds nobody.
        assert_eq!(q.offer(1), Err(1));
        assert_eq!(q.linked_nodes(), 0);
    }

    #[test]
    fn stack_dropping_pending_permit_cancels_reservation() {
        let s: Arc<SyncDualStack<u32>> = Arc::new(SyncDualStack::new());
        let StartTransfer::Pending(permit) = SyncDualStack::start_transfer(&s, None) else {
            panic!("expected a pending reservation");
        };
        drop(permit);
        assert_eq!(s.offer(1), Err(1));
        assert_eq!(s.linked_nodes(), 0);
    }

    #[test]
    fn queue_producer_permit_poll_deadline_times_out_with_item() {
        let q: Arc<SyncDualQueue<String>> = Arc::new(SyncDualQueue::new());
        let StartTransfer::Pending(mut permit) =
            SyncDualQueue::start_transfer(&q, Some("v".to_string()))
        else {
            panic!("expected a pending publication");
        };
        let waker = counting_waker(Arc::new(AtomicUsize::new(0)));
        match permit.poll_transfer(&waker, Deadline::Now, None) {
            Poll::Ready(TransferOutcome::Timeout(Some(s))) => assert_eq!(s, "v"),
            other => panic!("expected Timeout with the item back, got {other:?}"),
        }
    }

    #[test]
    fn stack_producer_permit_poll_cancel_token_returns_item() {
        let s: Arc<SyncDualStack<String>> = Arc::new(SyncDualStack::new());
        let StartTransfer::Pending(mut permit) =
            SyncDualStack::start_transfer(&s, Some("w".to_string()))
        else {
            panic!("expected a pending publication");
        };
        let token = CancelToken::new();
        token.canceller().cancel();
        let waker = counting_waker(Arc::new(AtomicUsize::new(0)));
        match permit.poll_transfer(&waker, Deadline::Never, Some(&token)) {
            Poll::Ready(TransferOutcome::Cancelled(Some(s))) => assert_eq!(s, "w"),
            other => panic!("expected Cancelled with the item back, got {other:?}"),
        }
    }
}
