//! Node-lifetime conformance of the three clients of the
//! `synq::dual_list` kernel, `SyncDualQueue`, `SyncDualStack` and
//! `TransferQueue`: the exactly-one-pairing and drop-conservation
//! contracts under a timed producer/consumer proptest battery. A
//! `TransferQueue` is driven twice: through its `TimedSyncChannel` impl,
//! timed *synchronous* transfers against timed takes (its linked path,
//! which the ring never touches), and, bounded at two slots behind a
//! `BufferedChannel`, through *buffered* timed puts against timed takes,
//! where every consumer that finds the ring empty publishes a reservation
//! that a push must find, claim and complete.
//!
//! The last two tests count live wait nodes through this binary's
//! allocator. A node is freed by its retirement once its waiter has
//! exited, so after the structure is dropped and the collector has run,
//! none may be left; its spinning rows also show that a thread's own
//! reclamation work, which a wait starts on and a match cuts short, is
//! finished when it exits. And a node retired while its waiter, an
//! unpolled permit, is still inside survives every collection until that
//! permit resolves or is dropped, and for good if it never is.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::task::{Poll, Waker};
use std::thread;
use std::time::{Duration, Instant};
use synq::dual_list::{WaitNode, REQUEST};
use synq::transfer::BufferedChannel;
use synq::{
    Deadline, PendingTransfer, PollTransferer, SpinPolicy, StartTransfer, SyncDualQueue,
    SyncDualStack, TimedSyncChannel, TransferOutcome,
};
use synq_reclaim::{Epoch, Reclaimer};
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

const MARKED_NODE: Layout = Layout::new::<WaitNode<Marked>>();
const _: () = assert!(MARKED_NODE.align() == 64);

static LIVE_MARKED_NODES: AtomicIsize = AtomicIsize::new(0);

/// The lifetime test's payload, counting its drops. Its 256-byte alignment
/// gives its wait node a layout of its own, counted apart from `Marked`'s.
#[repr(align(256))]
struct Tagged(Arc<AtomicUsize>);

impl Drop for Tagged {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

const TAGGED_NODE: Layout = Layout::new::<WaitNode<Tagged>>();
const _: () = assert!(TAGGED_NODE.align() == 256);

static LIVE_TAGGED_NODES: AtomicIsize = AtomicIsize::new(0);

struct CountMarkedNodes;

impl CountMarkedNodes {
    fn counter(layout: Layout) -> Option<&'static AtomicIsize> {
        if layout == MARKED_NODE {
            Some(&LIVE_MARKED_NODES)
        } else if layout == TAGGED_NODE {
            Some(&LIVE_TAGGED_NODES)
        } else {
            None
        }
    }
}

// SAFETY: forwards to `System` unchanged.
unsafe impl GlobalAlloc for CountMarkedNodes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if let Some(live) = Self::counter(layout) {
            live.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if let Some(live) = Self::counter(layout) {
            live.fetch_sub(1, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Every test here shares it; the lifetime test, which reads the
/// collector's process-wide `pending` count, takes it alone.
static EXCLUSIVE: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    EXCLUSIVE.read().unwrap_or_else(PoisonError::into_inner)
}

#[global_allocator]
static ALLOCATOR: CountMarkedNodes = CountMarkedNodes;

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
    let _shared = shared();
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

    /// Dual queue.
    #[test]
    fn queue_epoch_pairs_exactly_once(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let q: Arc<SyncDualQueue<Payload>> = Arc::new(SyncDualQueue::new());
        check_conservation(q, producers, consumers, per)?;
    }

    /// Dual stack.
    #[test]
    fn stack_epoch_pairs_exactly_once(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let s: Arc<SyncDualStack<Payload>> = Arc::new(SyncDualStack::new());
        check_conservation(s, producers, consumers, per)?;
    }

    /// Transfer queue (linked half).
    #[test]
    fn transfer_epoch_pairs_exactly_once(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let q: Arc<TransferQueue<Payload>> = Arc::new(TransferQueue::new());
        check_conservation(q, producers, consumers, per)?;
    }

    /// Bounded transfer queue, buffered put/take.
    #[test]
    fn transfer_bounded_epoch_buffers_exactly_once(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let q = Arc::new(BufferedChannel::<Payload>::bounded(2));
        check_conservation(q, producers, consumers, per)?;
    }
}

const HANDOFFS: usize = 10_000;

/// The live wait-node count before a row, once the allocator is shown to
/// see the structures' nodes.
fn marked_baseline() -> isize {
    let baseline = LIVE_MARKED_NODES.load(Ordering::SeqCst);
    let probe = WaitNode::<Marked>::alloc(REQUEST, true);
    assert_eq!(
        LIVE_MARKED_NODES.load(Ordering::SeqCst),
        baseline + 1,
        "the allocator does not see this structure's nodes"
    );
    drop(probe);
    baseline
}

/// Collects until the live wait nodes are back to `baseline`, then checks
/// that no payload is left either.
fn await_baseline(name: &str, baseline: isize, live: &AtomicIsize) {
    // A pass frees only what no other thread's guard can still reach, and
    // the tests running beside this one pin the same collector.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        Epoch::collect();
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
/// lapse, on a structure built by `make`. Once the structure is dropped
/// and the collector has run, no wait node and no payload may be left.
fn check_nodes_return_to_baseline(
    name: &str,
    make: impl FnOnce() -> Arc<dyn TimedSyncChannel<Marked>>,
) {
    const LAPSES: usize = 300;
    let baseline = marked_baseline();
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
    await_baseline(name, baseline, &live);
}

/// Spin budget of the spinning rows: long enough that neither side parks.
const SPIN_ONLY: u32 = 100_000;

/// 10 k blocking handoffs between a producer thread and a consumer thread
/// that both spin instead of parking, on a structure built by `make`. Each
/// wait starts on its thread's reclamation steps, and a match often cuts
/// them short; the rest is run when the thread exits. Once both have been
/// joined, the structure is dropped and the collector has run, no wait
/// node and no payload may be left.
fn check_spinning_pair_returns_to_baseline(
    name: &str,
    make: impl FnOnce() -> Arc<dyn TimedSyncChannel<Marked>>,
) {
    let baseline = marked_baseline();
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
    await_baseline(name, baseline, &live);
}

/// One test for all five rows: they share the allocator's one counter.
#[test]
fn live_nodes_return_to_baseline() {
    let _shared = shared();
    check_nodes_return_to_baseline("queue", || Arc::new(SyncDualQueue::<Marked>::new()));
    check_nodes_return_to_baseline("stack", || Arc::new(SyncDualStack::<Marked>::new()));
    check_nodes_return_to_baseline("transfer", || Arc::new(TransferQueue::<Marked>::new()));
    let spin = || SpinPolicy::fixed(SPIN_ONLY);
    check_spinning_pair_returns_to_baseline("spinning queue", || {
        Arc::new(SyncDualQueue::<Marked>::with_spin(spin()))
    });
    check_spinning_pair_returns_to_baseline("spinning stack", || {
        Arc::new(SyncDualStack::<Marked>::with_spin(spin()))
    });
}

/// Permits that are never dropped, as `mem::forget` leaves one, but kept
/// reachable so that a leak checker does not report them.
static NEVER_DROPPED: Mutex<Vec<Box<dyn Send>>> = Mutex::new(Vec::new());

/// Collections enough for any retirement pending before them to have run:
/// the collector frees a bag two advances after it is sealed, one advance
/// per collection.
fn settle() {
    for _ in 0..4 {
        Epoch::collect();
    }
}

/// Collects until `done` holds, or fails after ten seconds.
fn collect_until(what: &str, done: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < give_up, "{what}");
        Epoch::collect();
        thread::yield_now();
    }
}

/// A request permit on `s`, published on a stack or queue with nobody to
/// match it yet.
fn request<S: PollTransferer<Tagged>>(s: &Arc<S>) -> S::Permit {
    match S::start_transfer(s, None) {
        StartTransfer::Pending(permit) => permit,
        StartTransfer::Complete(_) => panic!("nobody sends yet"),
    }
}

/// Publishes a request, matches it with an item counted on `drops` and
/// retires its node, and returns its still unpolled permit. A stack pops
/// the node it matches; a queue's matched node becomes the dummy, so a
/// second handoff moves the head past it.
fn retired_unpolled_request<S>(s: &Arc<S>, drops: &Arc<AtomicUsize>) -> S::Permit
where
    S: PollTransferer<Tagged> + TimedSyncChannel<Tagged>,
{
    let permit = request(s);
    assert!(
        s.offer(Tagged(Arc::clone(drops))).is_ok(),
        "a request waits"
    );
    let mut second = request(s);
    let spare = Arc::new(AtomicUsize::new(0));
    assert!(
        s.offer(Tagged(Arc::clone(&spare))).is_ok(),
        "a request waits"
    );
    assert!(matches!(
        second.poll_transfer(Waker::noop(), Deadline::Never, None),
        Poll::Ready(TransferOutcome::Transferred(Some(_)))
    ));
    assert_eq!(spare.load(Ordering::SeqCst), 1, "the second item, dropped");
    permit
}

/// The node of a matched request, retired while its permit is unpolled,
/// keeps its item through every collection; once the permit resolves (or
/// is dropped), the collections that free any retirement made then free
/// it, and its item is dropped once. A permit never dropped keeps its node
/// for good, one retirement that stays pending, while everything else
/// drains; the structure it keeps alive holds `dummies` nodes of its own.
fn check_unpolled_permit_keeps_its_node<S>(name: &str, dummies: isize, make: impl Fn() -> S)
where
    S: PollTransferer<Tagged> + TimedSyncChannel<Tagged>,
    S::Permit: 'static,
{
    let live = || LIVE_TAGGED_NODES.load(Ordering::SeqCst);
    for resolve in [true, false] {
        let s = Arc::new(make());
        let drops = Arc::new(AtomicUsize::new(0));
        let mut permit = retired_unpolled_request(&s, &drops);
        for _ in 0..4 {
            settle();
            assert_eq!(drops.load(Ordering::SeqCst), 0, "{name}: item intact");
        }
        let before = live();
        if resolve {
            let Poll::Ready(TransferOutcome::Transferred(Some(item))) =
                permit.poll_transfer(Waker::noop(), Deadline::Never, None)
            else {
                panic!("{name}: the request was matched");
            };
            drop(item);
        } else {
            drop(permit);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1, "{name}: the item, once");
        assert_eq!(live(), before, "{name}: resolving frees nothing itself");
        settle();
        assert_eq!(live(), before - 1, "{name}: the next collections free it");
        drop(s);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "{name}: dropped once");
    }

    settle();
    let (nodes, pending) = (live(), Epoch::pending());
    let s = Arc::new(make());
    let drops = Arc::new(AtomicUsize::new(0));
    let forgotten = retired_unpolled_request(&s, &drops);
    NEVER_DROPPED
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Box::new(forgotten));
    // More nodes retired after it, each exited: they drain around it.
    for _ in 0..64 {
        let _ = retired_unpolled_request(&s, &Arc::new(AtomicUsize::new(0)));
    }
    drop(s);
    collect_until(&format!("{name}: retired nodes drain"), || {
        live() == nodes + 1 + dummies && Epoch::pending() == pending + 1
    });
    for _ in 0..4 {
        settle();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "{name}: kept for good");
        assert_eq!(
            Epoch::pending(),
            pending + 1,
            "{name}: one retirement stays"
        );
    }
}

/// Both structures. It reads the collector's process-wide `pending`
/// count, so no other test of this file runs beside it.
#[test]
fn an_unpolled_permit_keeps_its_retired_node() {
    let _alone = EXCLUSIVE.write().unwrap_or_else(PoisonError::into_inner);
    check_unpolled_permit_keeps_its_node("queue", 1, SyncDualQueue::<Tagged>::new);
    check_unpolled_permit_keeps_its_node("stack", 0, SyncDualStack::<Tagged>::new);
}
