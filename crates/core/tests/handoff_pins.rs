//! What one fair-queue handoff costs in epoch pins (`--features stats`).
//! A matched waiter whose node the matcher has already dequeued leaves
//! without pinning, so a single-thread poll-mode handoff takes exactly two
//! pins: the waiter's arrival and the matcher's.
//!
//! Probe counters are process-wide, so this binary holds a single test.

#![cfg(feature = "stats")]

use std::sync::Arc;
use std::task::{Poll, Wake, Waker};
use synq::{
    Deadline, PendingTransfer, PollTransferer, StartTransfer, SyncDualQueue, TransferOutcome,
};
use synq_obs::{Probe, StatsSnapshot};

struct Noop;

impl Wake for Noop {
    fn wake(self: Arc<Self>) {}
}

/// A receiver publishes and waits, a sender matches it, the receiver's
/// permit resolves: all on this thread.
fn handoff(q: &Arc<SyncDualQueue<u32>>, waker: &Waker) {
    let StartTransfer::Pending(mut permit) = SyncDualQueue::start_transfer(q, None) else {
        panic!("an empty queue must make the receiver wait");
    };
    assert!(matches!(
        SyncDualQueue::start_transfer(q, Some(7)),
        StartTransfer::Complete(TransferOutcome::Transferred(None))
    ));
    assert!(matches!(
        permit.poll_transfer(waker, Deadline::Never, None),
        Poll::Ready(TransferOutcome::Transferred(Some(7)))
    ));
}

#[test]
fn a_poll_mode_handoff_pins_twice() {
    let q = Arc::new(SyncDualQueue::new());
    let waker = Waker::from(Arc::new(Noop));
    // The first pin registers this thread with the collector.
    handoff(&q, &waker);
    for _ in 0..3 {
        let before = StatsSnapshot::take();
        handoff(&q, &waker);
        let delta = StatsSnapshot::take().delta(&before);
        assert_eq!(delta.get(Probe::EpochPins), 2, "pins per handoff");
        assert_eq!(delta.get(Probe::ReclaimRetired), 1, "one node dequeued");
    }
}
