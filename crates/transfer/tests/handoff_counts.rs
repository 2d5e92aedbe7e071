//! What one handoff over a linked dual list costs (`--features stats`):
//! appends, front claims, node allocations, retirements and epoch pins.
//!
//! | handoff                                   | append | claim | alloc | retired | pins   |
//! |-------------------------------------------|-------:|------:|------:|--------:|--------|
//! | `SyncDualQueue`, poll mode, one thread    |      1 |     1 |     1 |       1 | 2      |
//! | `TransferQueue`, `take` then `transfer`   |      1 |     1 |     1 |       1 | 2 or 3 |
//! | `TransferQueue`, `transfer` then `take`   |      1 |     1 |     1 |       1 | 2 or 3 |
//! | refused `offer`/`poll`/tripped token      |      0 |     - |     0 |       - | -      |
//!
//! The two-thread handoffs take a third pin when the waiter's node is
//! still linked as it leaves. The refused calls run on both structures.
//!
//! Probe counters are process-wide, so this binary holds a single test.

#![cfg(feature = "stats")]

use std::sync::mpsc;
use std::sync::Arc;
use std::task::{Poll, Waker};
use std::thread;
use synq::{
    CancelToken, Deadline, PendingTransfer, PollTransferer, StartTransfer, SyncDualQueue,
    TransferOutcome, Transferer,
};
use synq_obs::{Probe, StatsSnapshot};
use synq_transfer::TransferQueue;

const SAMPLES: usize = 150;
const REFUSED_ROUNDS: usize = 100;

/// The counts of one handoff.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    append: u64,
    claim: u64,
    alloc: u64,
    retired: u64,
    pins: u64,
}

fn counts_since(before: &StatsSnapshot) -> Counts {
    let d = StatsSnapshot::take().delta(before);
    Counts {
        append: d.get(Probe::QueueAppendCas),
        claim: d.get(Probe::QueueClaimCas),
        alloc: d.get(Probe::NodeCacheMisses),
        retired: d.get(Probe::ReclaimRetired),
        pins: d.get(Probe::EpochPins),
    }
}

/// A receiver publishes and waits, a sender matches it, the receiver's
/// permit resolves: all on this thread.
fn poll_mode_handoff(q: &Arc<SyncDualQueue<u32>>, waker: &Waker) {
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

/// Waits until the other thread's node is linked.
fn await_append(before: &StatsSnapshot) {
    while counts_since(before).append == 0 {
        thread::yield_now();
    }
}

/// One offer, poll, tripped-token put and tripped-token take, each of
/// which must be refused, its item handed back.
fn refused_round<Q: Transferer<u32>>(q: &Q, tripped: &CancelToken) {
    let now = (Deadline::Now, None);
    let cancelled = (Deadline::Never, Some(tripped));
    for (item, (deadline, token)) in [
        (Some(1), now),
        (None, now),
        (Some(2), cancelled),
        (None, cancelled),
    ] {
        match q.transfer(item, deadline, token) {
            TransferOutcome::Transferred(_) => panic!("a refused call transferred"),
            out => assert_eq!(out.into_inner(), item),
        }
    }
}

#[test]
fn handoffs_over_the_linked_lists_count_as_tabled() {
    let one = Counts {
        append: 1,
        claim: 1,
        alloc: 1,
        retired: 1,
        pins: 2,
    };

    // The fair queue in poll mode. The first pin registers this thread
    // with the collector.
    let q = Arc::new(SyncDualQueue::new());
    let waker = Waker::noop();
    poll_mode_handoff(&q, waker);
    for _ in 0..SAMPLES {
        let before = StatsSnapshot::take();
        poll_mode_handoff(&q, waker);
        assert_eq!(counts_since(&before), one, "poll-mode fair handoff");
    }

    // The TransferQueue across two threads, in both arrival orders. The
    // helper thread lives for the whole test, so no sample pays for its
    // registration.
    let tq = Arc::new(TransferQueue::new());
    let (to_helper, orders) = mpsc::channel::<bool>();
    let (done, from_helper) = mpsc::channel::<()>();
    let helper = {
        let tq = Arc::clone(&tq);
        thread::spawn(move || {
            for take in orders {
                if take {
                    assert_eq!(tq.take(), 7);
                } else {
                    tq.transfer(7);
                }
                done.send(()).unwrap();
            }
        })
    };
    for round in 0..=SAMPLES {
        for helper_takes in [true, false] {
            let before = StatsSnapshot::take();
            to_helper.send(helper_takes).unwrap();
            await_append(&before);
            if helper_takes {
                tq.transfer(7);
            } else {
                assert_eq!(tq.take(), 7);
            }
            from_helper.recv().unwrap();
            let got = counts_since(&before);
            // Round 0 warms both threads up.
            let order = ["transfer then take", "take then transfer"][usize::from(helper_takes)];
            if round > 0 {
                assert!(matches!(got.pins, 2 | 3), "{order}: {got:?}");
                assert_eq!(Counts { pins: 2, ..got }, one, "{order}");
            }
        }
    }
    drop(to_helper);
    helper.join().unwrap();

    // Refused calls allocate nothing and link nothing.
    let tripped = CancelToken::new();
    tripped.canceller().cancel();
    let before = StatsSnapshot::take();
    for _ in 0..REFUSED_ROUNDS {
        refused_round(&*q, &tripped);
        refused_round(&*tq, &tripped);
    }
    let got = counts_since(&before);
    assert_eq!((got.alloc, got.append), (0, 0), "refused calls: {got:?}");
}
