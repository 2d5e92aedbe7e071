//! Reclaimer feature-matrix conformance: the exactly-one-pairing and
//! drop-conservation contracts of the dual structures must hold under
//! every reclamation backend, not just the default epoch scheme. Runs the
//! same timed producer/consumer proptest battery against the three
//! clients of the `synq::dual_list` kernel, `SyncDualQueue`,
//! `SyncDualStack` and `TransferQueue`, each instantiated with both
//! `Epoch` and `Hazard`. A `TransferQueue` is driven twice: through its
//! `TimedSyncChannel` impl, timed *synchronous* transfers against timed
//! takes (its linked path, which the ring never touches), and, bounded at
//! two slots, through *buffered* timed puts against timed takes, where
//! every consumer that finds the ring empty publishes a reservation that
//! a push must find, claim and complete under the backend's validation.
//!
//! The last test counts live wait nodes through this binary's allocator:
//! a node is freed by whoever drops its last reference, so after the
//! structure is dropped and the backend has collected, none may be left.
//! Its spinning rows also show that a thread's own reclamation work, which
//! a wait starts on and a match cuts short, is finished when it exits.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use synq::dual_list::{WaitNode, REQUEST};
use synq::{
    CancelToken, Deadline, SpinPolicy, SyncDualQueue, SyncDualStack, TimedSyncChannel,
    TransferOutcome,
};
use synq_reclaim::{Epoch, Hazard, Reclaimer};
use synq_transfer::TransferQueue;

/// A payload that tracks its own liveness: exactly one decrement per
/// construction, however many times it is moved between threads.
struct Payload {
    id: usize,
    live: Arc<AtomicIsize>,
}

impl Payload {
    fn new(id: usize, live: &Arc<AtomicIsize>) -> Self {
        live.fetch_add(1, Ordering::Relaxed);
        Payload {
            id,
            live: Arc::clone(live),
        }
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The leak check's payload. Its 64-byte alignment gives the wait node
/// that carries it a layout nothing else in this binary allocates, so the
/// allocator below can count those nodes while the other tests run.
#[repr(align(64))]
struct Marked(Payload);

const MARKED_NODE: Layout = Layout::new::<WaitNode<Marked, Epoch>>();
const _: () = assert!(MARKED_NODE.align() == 64);

static LIVE_MARKED_NODES: AtomicIsize = AtomicIsize::new(0);

struct CountMarkedNodes;

// SAFETY: forwards to `System` unchanged.
unsafe impl GlobalAlloc for CountMarkedNodes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout == MARKED_NODE {
            LIVE_MARKED_NODES.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout == MARKED_NODE {
            LIVE_MARKED_NODES.fetch_sub(1, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountMarkedNodes = CountMarkedNodes;

/// A `TransferQueue` under any backend seen through its *buffered* put
/// (`BufferedChannel` is fixed to the default backend).
struct Buffered<T, R: Reclaimer>(TransferQueue<T, R>);

impl<T: Send, R: Reclaimer> TimedSyncChannel<T> for Buffered<T, R> {
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match item {
            Some(v) => self.0.put_with(v, deadline, token),
            None => self.0.take_with(deadline, token),
        }
    }
}

synq::impl_sync_channel!(Buffered<R: Reclaimer>);

/// Runs `producers`×`per` timed sends against `consumers` timed receivers
/// on `channel`, then checks the exactly-one-pairing contract: every id is
/// either received once or refused (timed out) back to its producer once,
/// never both, and every payload is dropped exactly once.
fn check_conservation(
    channel: Arc<dyn TimedSyncChannel<Payload>>,
    producers: usize,
    consumers: usize,
    per: usize,
) -> Result<(), TestCaseError> {
    let live = Arc::new(AtomicIsize::new(0));
    let stop = Arc::new(AtomicUsize::new(0));
    let received = Arc::new(Mutex::new(Vec::new()));
    let refused = Arc::new(Mutex::new(Vec::new()));

    let mut handles = Vec::new();
    for p in 0..producers {
        let channel = Arc::clone(&channel);
        let live = Arc::clone(&live);
        let refused = Arc::clone(&refused);
        handles.push(thread::spawn(move || {
            for i in 0..per {
                let payload = Payload::new(p * per + i, &live);
                if let Err(back) = channel.offer_timeout(payload, Duration::from_micros(200)) {
                    refused.lock().unwrap().push(back.id);
                }
            }
        }));
    }
    let mut takers = Vec::new();
    for _ in 0..consumers {
        let channel = Arc::clone(&channel);
        let stop = Arc::clone(&stop);
        let received = Arc::clone(&received);
        takers.push(thread::spawn(move || {
            while stop.load(Ordering::Relaxed) == 0 {
                if let Some(p) = channel.poll_timeout(Duration::from_micros(100)) {
                    received.lock().unwrap().push(p.id);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(1, Ordering::Relaxed);
    for t in takers {
        t.join().unwrap();
    }
    // A producer may have matched at the buzzer, after every consumer
    // already left: drain the tail.
    while let Some(p) = channel.poll_timeout(Duration::from_millis(2)) {
        received.lock().unwrap().push(p.id);
    }

    let mut seen: Vec<usize> = received.lock().unwrap().clone();
    seen.extend(refused.lock().unwrap().iter().copied());
    seen.sort_unstable();
    let expected: Vec<usize> = (0..producers * per).collect();
    prop_assert_eq!(
        seen,
        expected,
        "every send must be received once xor refused once"
    );
    prop_assert_eq!(live.load(Ordering::Relaxed), 0, "payload drop conservation");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Dual queue under the default epoch backend (the matrix baseline).
    #[test]
    fn queue_epoch_pairs_exactly_once(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let q: Arc<SyncDualQueue<Payload, Epoch>> = Arc::new(SyncDualQueue::new_in());
        check_conservation(q, producers, consumers, per)?;
    }

    /// Dual queue under the hazard-pointer backend.
    #[test]
    fn queue_hazard_pairs_exactly_once(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let q: Arc<SyncDualQueue<Payload, Hazard>> = Arc::new(SyncDualQueue::new_in());
        check_conservation(q, producers, consumers, per)?;
    }

    /// Dual stack under the default epoch backend.
    #[test]
    fn stack_epoch_pairs_exactly_once(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let s: Arc<SyncDualStack<Payload, Epoch>> = Arc::new(SyncDualStack::new_in());
        check_conservation(s, producers, consumers, per)?;
    }

    /// Dual stack under the hazard-pointer backend.
    #[test]
    fn stack_hazard_pairs_exactly_once(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let s: Arc<SyncDualStack<Payload, Hazard>> = Arc::new(SyncDualStack::new_in());
        check_conservation(s, producers, consumers, per)?;
    }

    /// Transfer queue (linked half) under the default epoch backend.
    #[test]
    fn transfer_epoch_pairs_exactly_once(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let q: Arc<TransferQueue<Payload, Epoch>> = Arc::new(TransferQueue::new_in());
        check_conservation(q, producers, consumers, per)?;
    }

    /// Transfer queue (linked half) under the hazard-pointer backend.
    #[test]
    fn transfer_hazard_pairs_exactly_once(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let q: Arc<TransferQueue<Payload, Hazard>> = Arc::new(TransferQueue::new_in());
        check_conservation(q, producers, consumers, per)?;
    }

    /// Bounded transfer queue, buffered put/take, default epoch backend.
    #[test]
    fn transfer_bounded_epoch_buffers_exactly_once(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let q = Arc::new(Buffered(TransferQueue::<Payload, Epoch>::bounded_in(2)));
        check_conservation(q, producers, consumers, per)?;
    }

    /// Bounded transfer queue, buffered put/take, hazard-pointer backend.
    #[test]
    fn transfer_bounded_hazard_buffers_exactly_once(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let q = Arc::new(Buffered(TransferQueue::<Payload, Hazard>::bounded_in(2)));
        check_conservation(q, producers, consumers, per)?;
    }
}

const HANDOFFS: usize = 10_000;

/// The live wait-node count before a row, once the allocator is shown to
/// see `R`'s nodes.
fn marked_baseline<R: Reclaimer>() -> isize {
    assert_eq!(Layout::new::<WaitNode<Marked, R>>(), MARKED_NODE);
    let baseline = LIVE_MARKED_NODES.load(Ordering::SeqCst);
    let probe = WaitNode::<Marked, R>::alloc(REQUEST);
    assert_eq!(
        LIVE_MARKED_NODES.load(Ordering::SeqCst),
        baseline + 1,
        "the allocator does not see this structure's nodes"
    );
    drop(probe);
    baseline
}

/// Collects under `R` until the live wait nodes are back to `baseline`,
/// then checks that no payload is left either.
fn await_baseline<R: Reclaimer>(name: &str, baseline: isize, live: &AtomicIsize) {
    // A pass frees only what no other thread's guard can still reach, and
    // the tests running beside this one pin the same backends.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        R::collect();
        if LIVE_MARKED_NODES.load(Ordering::SeqCst) == baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{name}: {} wait nodes leaked",
            LIVE_MARKED_NODES.load(Ordering::SeqCst) - baseline
        );
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(live.load(Ordering::SeqCst), 0, "{name}: payloads leaked");
}

/// 10 k handoffs, then a storm of timed sends and timed receives that all
/// lapse, on a structure built by `make` over backend `R`. Once the
/// structure is dropped and `R` has collected, no wait node and no payload
/// may be left.
fn check_nodes_return_to_baseline<R: Reclaimer>(
    name: &str,
    make: impl FnOnce() -> Arc<dyn TimedSyncChannel<Marked>>,
) {
    const LAPSES: usize = 300;
    let baseline = marked_baseline::<R>();
    let live = Arc::new(AtomicIsize::new(0));
    let channel = make();

    thread::scope(|s| {
        s.spawn(|| {
            for id in 0..HANDOFFS {
                channel.put(Marked(Payload::new(id, &live)));
            }
        });
        for id in 0..HANDOFFS {
            assert_eq!(channel.take().0.id, id, "{name}: one producer, in order");
        }
    });
    // Senders with nobody to receive, then receivers with nobody to send:
    // every node leaves through the cancelled state, a sender's with its
    // item taken back.
    thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for id in 0..LAPSES {
                    let payload = Marked(Payload::new(id, &live));
                    assert!(channel
                        .offer_timeout(payload, Duration::from_micros(20))
                        .is_err());
                }
            });
        }
    });
    thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..LAPSES {
                    assert!(channel.poll_timeout(Duration::from_micros(20)).is_none());
                }
            });
        }
    });
    drop(channel);
    await_baseline::<R>(name, baseline, &live);
}

/// Spin budget of the spinning rows: long enough that neither side parks.
const SPIN_ONLY: u32 = 100_000;

/// 10 k blocking handoffs between a producer thread and a consumer thread
/// that both spin instead of parking, on a structure built by `make` over
/// backend `R`. Each wait starts on its thread's reclamation steps, and a
/// match often cuts them short; the rest is run when the thread exits.
/// Once both have been joined, the structure is dropped and `R` has
/// collected, no wait node and no payload may be left.
fn check_spinning_pair_returns_to_baseline<R: Reclaimer>(
    name: &str,
    make: impl FnOnce() -> Arc<dyn TimedSyncChannel<Marked>>,
) {
    let baseline = marked_baseline::<R>();
    let live = Arc::new(AtomicIsize::new(0));
    let channel = make();
    thread::scope(|s| {
        let producer = s.spawn(|| {
            for id in 0..HANDOFFS {
                channel.put(Marked(Payload::new(id, &live)));
            }
        });
        let consumer = s.spawn(|| {
            for id in 0..HANDOFFS {
                assert_eq!(channel.take().0.id, id, "{name}: one producer, in order");
            }
        });
        // A handle's `join`, unlike the scope's, waits for the thread's
        // exit, its thread-local destructors included.
        producer.join().unwrap();
        consumer.join().unwrap();
    });
    drop(channel);
    await_baseline::<R>(name, baseline, &live);
}

/// One test for all ten rows: they share the allocator's one counter.
#[test]
fn live_nodes_return_to_baseline_under_both_backends() {
    check_nodes_return_to_baseline::<Epoch>("queue/epoch", || {
        Arc::new(SyncDualQueue::<Marked, Epoch>::new_in())
    });
    check_nodes_return_to_baseline::<Hazard>("queue/hazard", || {
        Arc::new(SyncDualQueue::<Marked, Hazard>::new_in())
    });
    check_nodes_return_to_baseline::<Epoch>("stack/epoch", || {
        Arc::new(SyncDualStack::<Marked, Epoch>::new_in())
    });
    check_nodes_return_to_baseline::<Hazard>("stack/hazard", || {
        Arc::new(SyncDualStack::<Marked, Hazard>::new_in())
    });
    check_nodes_return_to_baseline::<Epoch>("transfer/epoch", || {
        Arc::new(TransferQueue::<Marked, Epoch>::new_in())
    });
    check_nodes_return_to_baseline::<Hazard>("transfer/hazard", || {
        Arc::new(TransferQueue::<Marked, Hazard>::new_in())
    });
    let spin = || SpinPolicy::fixed(SPIN_ONLY);
    check_spinning_pair_returns_to_baseline::<Epoch>("spinning queue/epoch", || {
        Arc::new(SyncDualQueue::<Marked, Epoch>::with_spin_in(spin()))
    });
    check_spinning_pair_returns_to_baseline::<Hazard>("spinning queue/hazard", || {
        Arc::new(SyncDualQueue::<Marked, Hazard>::with_spin_in(spin()))
    });
    check_spinning_pair_returns_to_baseline::<Epoch>("spinning stack/epoch", || {
        Arc::new(SyncDualStack::<Marked, Epoch>::with_spin_in(spin()))
    });
    check_spinning_pair_returns_to_baseline::<Hazard>("spinning stack/hazard", || {
        Arc::new(SyncDualStack::<Marked, Hazard>::with_spin_in(spin()))
    });
}
