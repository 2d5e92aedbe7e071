//! What one handoff over a linked dual list, the dual stack or the
//! `TransferQueue`'s ring costs (`--features stats`): list appends and
//! front claims, stack pushes and match CASes, node allocations,
//! retirements and epoch pins.
//!
//! | handoff                                     | append | claim | push | match | alloc | retired | pins   |
//! |---------------------------------------------|-------:|------:|-----:|------:|------:|--------:|--------|
//! | `SyncDualQueue`, poll mode, one thread      |      1 |     1 |    0 |     0 |     1 |       1 | 2      |
//! | `SyncDualQueue`, `take` then `put`          |      1 |     1 |    0 |     0 |     1 |       1 | 2 or 3 |
//! | `SyncDualQueue`, `put` then `take`          |      1 |     1 |    0 |     0 |     1 |       1 | 2 or 3 |
//! | `TransferQueue`, `take` then `transfer`     |      1 |     1 |    0 |     0 |     1 |       1 | 2 or 3 |
//! | `TransferQueue`, `transfer` then `take`     |      1 |     1 |    0 |     0 |     1 |       1 | 2 or 3 |
//! | `SyncDualStack`, poll mode, receiver waits  |      0 |     0 |    1 |     1 |     1 |       1 | 2      |
//! | `SyncDualStack`, poll mode, sender waits    |      0 |     0 |    1 |     1 |     1 |       1 | 2      |
//! | `TransferQueue`, buffered `put` then `take` |      0 |     0 |    0 |     0 |     0 |       0 | 0      |
//! | refused `offer`/`poll`/tripped token        |      0 |     - |    0 |     - |     0 |       - | -      |
//!
//! The `SyncDualQueue` is the `TransferQueue` without a ring, so the two
//! count the same: its two-thread rows are the `TransferQueue`'s, with
//! `put` for `transfer`. The two-thread handoffs take a third pin when
//! the waiter's node is still linked as it leaves. A stack handoff pushes
//! one node, the waiter's, which the matcher matches in place (a claim
//! when the receiver waits, a token CAS when the sender does) and pops;
//! its two pins are the two arrivals', since a matched stack waiter leaves
//! its node to the matcher and takes none. The buffered row runs on an
//! unbounded and a bounded queue: the item goes through the ring and the
//! list is never looked at. The refused calls are `offer`, `poll`, and
//! `put_with`/`take_with` with a tripped token, as callers make them
//! through `TimedSyncChannel`; they run on all three structures and on
//! both modes of the `SynchronousQueue` facade.
//!
//! Probe counters are process-wide, so this binary holds a single test.

#![cfg(feature = "stats")]

use std::sync::mpsc;
use std::sync::Arc;
use std::task::{Poll, Waker};
use std::thread;
use synq::{
    CancelToken, Deadline, PendingTransfer, PollTransferer, StartTransfer, SyncChannel,
    SyncDualQueue, SyncDualStack, SynchronousQueue, TimedSyncChannel, TransferOutcome,
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
    push: u64,
    matched: u64,
    alloc: u64,
    retired: u64,
    pins: u64,
}

fn counts_since(before: &StatsSnapshot) -> Counts {
    let d = StatsSnapshot::take().delta(before);
    Counts {
        append: d.get(Probe::QueueAppendCas),
        claim: d.get(Probe::QueueClaimCas),
        push: d.get(Probe::StackPushCas),
        matched: d.get(Probe::StackMatchCas),
        alloc: d.get(Probe::NodeCacheMisses),
        retired: d.get(Probe::ReclaimRetired),
        pins: d.get(Probe::EpochPins),
    }
}

/// One side publishes and waits, the other matches it, the waiter's
/// permit resolves: all on this thread. The receiver waits, or the sender.
fn poll_mode_handoff<Q: PollTransferer<u32>>(q: &Arc<Q>, waker: &Waker, receiver_waits: bool) {
    let (waiting, matching) = if receiver_waits {
        (None, Some(7))
    } else {
        (Some(7), None)
    };
    let StartTransfer::Pending(mut permit) = Q::start_transfer(q, waiting) else {
        panic!("an empty structure must make the first arrival wait");
    };
    assert!(matches!(
        Q::start_transfer(q, matching),
        StartTransfer::Complete(TransferOutcome::Transferred(got)) if got == waiting
    ));
    assert!(matches!(
        permit.poll_transfer(waker, Deadline::Never, None),
        Poll::Ready(TransferOutcome::Transferred(got)) if got == matching
    ));
}

/// Waits until the other thread's node is linked.
fn await_append(before: &StatsSnapshot) {
    while counts_since(before).append == 0 {
        thread::yield_now();
    }
}

/// Hands 7 from one thread to another `SAMPLES` times in each arrival
/// order, and checks each handoff counts as `one` does, give or take the
/// third pin. The helper thread lives for the whole run, so no sample
/// pays for its registration; round 0 warms both threads up. Through
/// `SyncChannel`, `put` is the `TransferQueue`'s synchronous `transfer`.
fn two_thread_rows<Q>(q: &Arc<Q>, name: &str, one: &Counts)
where
    Q: SyncChannel<u32> + Send + Sync + 'static,
{
    let (to_helper, orders) = mpsc::channel::<bool>();
    let (done, from_helper) = mpsc::channel::<()>();
    let helper = {
        let q = Arc::clone(q);
        thread::spawn(move || {
            for take in orders {
                if take {
                    assert_eq!(q.take(), 7);
                } else {
                    q.put(7);
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
                q.put(7);
            } else {
                assert_eq!(q.take(), 7);
            }
            from_helper.recv().unwrap();
            let got = counts_since(&before);
            let order = ["put then take", "take then put"][usize::from(helper_takes)];
            if round > 0 {
                assert!(matches!(got.pins, 2 | 3), "{name}, {order}: {got:?}");
                assert_eq!(Counts { pins: 2, ..got }, *one, "{name}, {order}");
            }
        }
    }
    drop(to_helper);
    helper.join().unwrap();
}

/// One `offer`, `poll`, tripped-token `put_with` and tripped-token
/// `take_with`, each of which must be refused, its item handed back.
fn refused_round<Q: TimedSyncChannel<u32>>(q: &Q, tripped: &CancelToken) {
    assert_eq!(q.offer(1), Err(1));
    assert_eq!(q.poll(), None);
    assert_eq!(
        q.put_with(2, Deadline::Never, Some(tripped)),
        TransferOutcome::Cancelled(Some(2))
    );
    assert_eq!(
        q.take_with(Deadline::Never, Some(tripped)),
        TransferOutcome::Cancelled(None)
    );
}

#[test]
fn handoffs_count_as_tabled() {
    let one = Counts {
        append: 1,
        claim: 1,
        push: 0,
        matched: 0,
        alloc: 1,
        retired: 1,
        pins: 2,
    };

    // The fair queue in poll mode. The first pin registers this thread
    // with the collector.
    let q = Arc::new(SyncDualQueue::new());
    let waker = Waker::noop();
    poll_mode_handoff(&q, waker, true);
    for _ in 0..SAMPLES {
        let before = StatsSnapshot::take();
        poll_mode_handoff(&q, waker, true);
        assert_eq!(counts_since(&before), one, "poll-mode fair handoff");
    }

    // The unfair stack in poll mode, in both orders.
    let st = Arc::new(SyncDualStack::new());
    let pair = Counts {
        append: 0,
        claim: 0,
        push: 1,
        matched: 1,
        alloc: 1,
        retired: 1,
        pins: 2,
    };
    for _ in 0..SAMPLES {
        for receiver_waits in [true, false] {
            let before = StatsSnapshot::take();
            poll_mode_handoff(&st, waker, receiver_waits);
            let got = counts_since(&before);
            assert_eq!(
                got, pair,
                "poll-mode stack handoff, receiver waits: {receiver_waits}"
            );
        }
    }

    // Both fair queues across two threads, in both arrival orders.
    two_thread_rows(&q, "SyncDualQueue", &one);
    let tq = Arc::new(TransferQueue::new());
    two_thread_rows(&tq, "TransferQueue", &one);

    // The ring path, in both modes: nothing linked, allocated, retired or
    // pinned.
    let none = Counts {
        append: 0,
        claim: 0,
        push: 0,
        matched: 0,
        alloc: 0,
        retired: 0,
        pins: 0,
    };
    for ring in [TransferQueue::new(), TransferQueue::bounded(8)] {
        for _ in 0..SAMPLES {
            let before = StatsSnapshot::take();
            ring.put(7);
            assert_eq!(ring.take(), 7);
            assert_eq!(counts_since(&before), none, "buffered put then take");
        }
    }

    // Refused calls allocate nothing and link nothing.
    let tripped = CancelToken::new();
    tripped.cancel();
    let (fair, unfair) = (SynchronousQueue::fair(), SynchronousQueue::unfair());
    let before = StatsSnapshot::take();
    for _ in 0..REFUSED_ROUNDS {
        refused_round(&*q, &tripped);
        refused_round(&*tq, &tripped);
        refused_round(&*st, &tripped);
        refused_round(&fair, &tripped);
        refused_round(&unfair, &tripped);
    }
    let got = counts_since(&before);
    assert_eq!(
        (got.alloc, got.append, got.push),
        (0, 0, 0),
        "refused calls: {got:?}"
    );
}
