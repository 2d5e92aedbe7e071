//! Where a waiter spends its thread's reclamation work (`--features stats`):
//! a blocking wait runs one closure of the thread's private chain of
//! expired bags before it spins, and the rest only when it is about to
//! park; a pending poll runs one. Counted on the closures this test
//! retires itself and on `epoch.wait_slices`.
//!
//! Probe counters and the collector are process-wide, so this binary holds
//! a single test.

#![cfg(feature = "stats")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Poll, Wake, Waker};
use std::thread;
use std::time::Duration;
use synq::{
    Deadline, PendingTransfer, PollTransferer, SpinPolicy, StartTransfer, SyncDualStack,
    TimedSyncChannel, TransferOutcome,
};
use synq_obs::{Probe, StatsSnapshot};
use synq_reclaim::{Epoch, Reclaimer, Shield};

/// Closures on the chain: more than the slices each phase runs.
const K: usize = 16;
/// How long a wait gives the test before it fails instead of hanging.
const PATIENCE: Duration = Duration::from_secs(10);

/// How many of the test's closures have run.
static RAN: AtomicUsize = AtomicUsize::new(0);

struct Noop;

impl Wake for Noop {
    fn wake(self: Arc<Self>) {}
}

/// Pins one at a time until a mark has run a bag this thread retired: that
/// mark left a collection due and the chain empty, and the next one is a
/// full 128 pins away.
fn reach_a_draining_mark() {
    static MARKER: AtomicBool = AtomicBool::new(false);
    MARKER.store(false, Ordering::SeqCst);
    let guard = synq_reclaim::pin();
    // SAFETY: the closure touches only a static.
    unsafe { guard.defer_retire(0, || MARKER.store(true, Ordering::SeqCst)) };
    guard.flush();
    drop(guard);
    for _ in 0..10_000 {
        drop(synq_reclaim::pin());
        if MARKER.load(Ordering::SeqCst) {
            return;
        }
    }
    panic!("no mark ran the marker");
}

/// Puts `K` closures on a bag that the next collection this thread takes
/// finds expired, with that collection due and no mark ahead of it.
fn load_the_chain() {
    reach_a_draining_mark();
    RAN.store(0, Ordering::SeqCst);
    let guard = synq_reclaim::pin();
    for _ in 0..K {
        // SAFETY: the closure touches only a static.
        unsafe {
            guard.defer_retire(0, || {
                RAN.fetch_add(1, Ordering::SeqCst);
            })
        };
    }
    // Seals the bag and advances the epoch once; the next collection's
    // advance expires it.
    guard.flush();
}

fn slices(before: &StatsSnapshot) -> u64 {
    StatsSnapshot::take()
        .delta(before)
        .get(Probe::EpochWaitSlices)
}

/// A consumer that takes from `stack` once `ran` of the closures have run.
fn take_after(stack: &Arc<SyncDualStack<u32>>, ran: usize) -> thread::JoinHandle<Option<u32>> {
    let stack = Arc::clone(stack);
    thread::spawn(move || {
        while RAN.load(Ordering::SeqCst) < ran {
            thread::yield_now();
        }
        stack.poll_timeout(PATIENCE)
    })
}

#[test]
fn a_waiter_runs_one_slice_per_node_and_the_rest_before_it_parks() {
    // A blocking wait matched while it spins: one slice, before the spin.
    let spinning = Arc::new(SyncDualStack::with_spin(SpinPolicy::fixed(1 << 30)));
    load_the_chain();
    let before = StatsSnapshot::take();
    let taker = take_after(&spinning, 1);
    assert_eq!(spinning.offer_timeout(1, PATIENCE), Ok(()));
    assert_eq!(taker.join().unwrap(), Some(1));
    assert_eq!(RAN.load(Ordering::SeqCst), 1, "closures run by the wait");
    assert_eq!(slices(&before), 1);

    // A wait that would park: its first slice, then the rest of the chain
    // before the park. The taker comes only once the chain is empty, so
    // the wait ran it all (that it ran it before parking is
    // `wait_slot`'s unit tests).
    let parking = Arc::new(SyncDualStack::with_spin(SpinPolicy::park_immediately()));
    let before = StatsSnapshot::take();
    let taker = take_after(&parking, K);
    assert_eq!(parking.offer_timeout(2, PATIENCE), Ok(()));
    assert_eq!(taker.join().unwrap(), Some(2));
    let delta = StatsSnapshot::take().delta(&before);
    assert_eq!(RAN.load(Ordering::SeqCst), K);
    assert_eq!(delta.get(Probe::EpochWaitSlices), (K - 1) as u64);
    assert!(delta.get(Probe::WaitParks) <= 1);

    // Poll mode: one slice per pending poll, none on the ready one.
    let polled = Arc::new(SyncDualStack::new());
    let waker = Waker::from(Arc::new(Noop));
    load_the_chain();
    let before = StatsSnapshot::take();
    let StartTransfer::Pending(mut permit) = SyncDualStack::start_transfer(&polled, None) else {
        panic!("an empty stack must make the receiver wait");
    };
    for polls in 1..=3 {
        assert!(permit
            .poll_transfer(&waker, Deadline::Never, None)
            .is_pending());
        assert_eq!(RAN.load(Ordering::SeqCst), polls, "one slice per poll");
    }
    assert!(matches!(
        SyncDualStack::start_transfer(&polled, Some(7)),
        StartTransfer::Complete(TransferOutcome::Transferred(None))
    ));
    assert!(matches!(
        permit.poll_transfer(&waker, Deadline::Never, None),
        Poll::Ready(TransferOutcome::Transferred(Some(7)))
    ));
    assert_eq!(RAN.load(Ordering::SeqCst), 3, "the ready poll ran none");
    assert_eq!(slices(&before), 3);
    while Epoch::reclaim_step() {}
    assert_eq!(RAN.load(Ordering::SeqCst), K);
}
