//! The unbounded `TransferQueue` buffers through an internal ring and
//! keeps the linked list for rendezvous and overflow (DESIGN §4.11).
//! These tests hold it to the contract that must survive that split:
//! one FIFO per producer across `put` / `transfer` / `put_batch`,
//! exactly-once delivery, a backlog larger than the ring, no consumer
//! left parked beside a buffered item, and nothing leaked or dropped
//! twice. This file is also a leg of the CI miri job.

use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::task::{Context, Poll, Wake, Waker};
use std::thread;
use std::time::Duration;
use synq_async::AsyncTransferQueue;
use synq_suite::core::{Deadline, TransferOutcome};
use synq_suite::transfer::TransferQueue;

/// How long a wakeup may take before the test calls it lost.
const WAKE_PATIENCE: Duration = Duration::from_secs(20);

/// A message that knows where it came from. `PAD` sizes the payload and
/// through it the queue's internal ring, which is budgeted in bytes: at
/// `PAD = 62` a message is 512 bytes and the ring has its minimum of 64
/// slots, so a modest backlog overflows it.
#[derive(Debug)]
struct Msg<const PAD: usize> {
    producer: usize,
    seq: usize,
    pad: [u64; PAD],
}

impl<const PAD: usize> Msg<PAD> {
    fn new(producer: usize, seq: usize) -> Self {
        Msg {
            producer,
            seq,
            pad: [seq as u64; PAD],
        }
    }

    fn check(&self) {
        assert!(
            self.pad.iter().all(|&w| w == self.seq as u64),
            "payload of {}/{} torn",
            self.producer,
            self.seq
        );
    }
}

/// 4 producers × 4 consumers. Producer `p` sends `0..per` in order,
/// rotating between `put`, `transfer` and `put_batch`; every consumer
/// must see each producer's messages in increasing order, and together
/// they must see every message exactly once.
fn mixed_traffic_is_fifo_and_exactly_once<const PAD: usize>(per: usize) {
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 4;
    assert_eq!(per * PRODUCERS % CONSUMERS, 0);
    let q: Arc<TransferQueue<Msg<PAD>>> = Arc::new(TransferQueue::new());
    let start = Arc::new(Barrier::new(PRODUCERS + CONSUMERS));

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = Arc::clone(&q);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                let mut seq = 0;
                let mut round = p; // desynchronise the producers' rotations
                while seq < per {
                    match round % 3 {
                        0 => {
                            q.put(Msg::new(p, seq));
                            seq += 1;
                        }
                        1 => {
                            q.transfer(Msg::new(p, seq));
                            seq += 1;
                        }
                        _ => {
                            let n = (per - seq).min(1 + round % 7);
                            let mut batch: Vec<_> =
                                (seq..seq + n).map(|s| Msg::new(p, s)).collect();
                            q.put_batch(&mut batch);
                            assert!(batch.is_empty());
                            seq += n;
                        }
                    }
                    round += 1;
                }
            })
        })
        .collect();

    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let q = Arc::clone(&q);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                let mut last = [None::<usize>; PRODUCERS];
                let mut seen = Vec::new();
                for _ in 0..per * PRODUCERS / CONSUMERS {
                    let m = q.take();
                    m.check();
                    assert!(
                        last[m.producer].is_none_or(|prev| prev < m.seq),
                        "producer {}: {} received after {:?}",
                        m.producer,
                        m.seq,
                        last[m.producer]
                    );
                    last[m.producer] = Some(m.seq);
                    seen.push((m.producer, m.seq));
                }
                seen
            })
        })
        .collect();

    for h in producers {
        h.join().unwrap();
    }
    let mut all: Vec<_> = consumers
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    let expected: Vec<_> = (0..PRODUCERS)
        .flat_map(|p| (0..per).map(move |s| (p, s)))
        .collect();
    assert_eq!(all, expected, "a message was lost or delivered twice");
    assert!(q.is_empty());
    assert!(!q.has_waiting_consumer());
}

#[test]
fn mixed_put_transfer_batch_fifo_exactly_once() {
    let per = if cfg!(miri) { 24 } else { 3_000 };
    // A 1,024-slot ring that the traffic rarely fills ...
    mixed_traffic_is_fifo_and_exactly_once::<0>(per);
    // ... and a 64-slot ring that it overflows again and again.
    mixed_traffic_is_fifo_and_exactly_once::<62>(per);
}

#[test]
fn backlog_overflows_the_ring_and_drains_back_to_it() {
    // 64 slots at this payload size; the backlog is several rings' worth.
    let backlog = if cfg!(miri) { 200 } else { 1_000 };
    let q: TransferQueue<Msg<62>> = TransferQueue::new();
    for s in 0..backlog {
        q.put(Msg::new(0, s));
    }
    assert_eq!(q.len(), backlog, "an unbounded put never refuses or blocks");
    // While the backlog stands, new arrivals of every kind queue behind it.
    let mut batch: Vec<_> = (backlog..backlog + 5).map(|s| Msg::new(0, s)).collect();
    assert_eq!(q.try_put_batch(&mut batch), 5);
    assert_eq!(q.len(), backlog + 5);
    for s in 0..backlog + 5 {
        let m = q.poll().expect("backlog item");
        m.check();
        assert_eq!(m.seq, s, "overflow reordered the backlog");
    }
    assert!(q.is_empty());
    assert!(q.poll().is_none());
    // Drained: the next burst is buffered and ordered as the first was,
    // whether it is taken one at a time or in batches.
    for s in 0..100 {
        q.put(Msg::new(1, s));
    }
    assert_eq!(q.len(), 100);
    let mut out = Vec::new();
    assert_eq!(q.try_take_batch(&mut out, 30), 30);
    while let Some(m) = q.poll() {
        out.push(m);
    }
    let seqs: Vec<_> = out.iter().map(|m| m.seq).collect();
    assert_eq!(seqs, (0..100).collect::<Vec<_>>());
}

/// One consumer blocked in `take` on an empty queue, one `put`: the item
/// must arrive within `WAKE_PATIENCE`, every time. Odd rounds wait until
/// the consumer's reservation is visible (the put meets a waiting, soon
/// parked, consumer); even rounds put at once, so that the push races the
/// consumer's publish-then-recheck. A lost wakeup in either is a hang.
#[test]
fn park_vs_push_never_loses_a_wakeup() {
    let rounds = if cfg!(miri) { 40 } else { 20_000 };
    let q: Arc<TransferQueue<usize>> = Arc::new(TransferQueue::new());
    let (ack, acks) = mpsc::channel();
    let consumer = {
        let q = Arc::clone(&q);
        thread::spawn(move || {
            for _ in 0..rounds {
                ack.send(q.take()).unwrap();
            }
        })
    };
    for round in 0..rounds {
        if round % 2 == 1 {
            while !q.has_waiting_consumer() {
                thread::yield_now();
            }
        }
        q.put(round);
        match acks.recv_timeout(WAKE_PATIENCE) {
            Ok(got) => assert_eq!(got, round),
            Err(_) => panic!("round {round}: consumer still blocked beside a buffered item: {q:?}"),
        }
    }
    consumer.join().unwrap();
    assert!(q.is_empty());
    assert!(!q.has_waiting_consumer());
}

#[test]
fn one_batch_wakes_every_blocked_consumer() {
    const CONSUMERS: usize = 3;
    const STOP: usize = usize::MAX;
    let rounds = if cfg!(miri) { 10 } else { 2_000 };
    let q: Arc<TransferQueue<usize>> = Arc::new(TransferQueue::new());
    let (ack, acks) = mpsc::channel();
    // A quick consumer may take two items of one batch, so the consumers
    // run until told to stop rather than for a fixed share of the items.
    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let q = Arc::clone(&q);
            let ack = ack.clone();
            thread::spawn(move || loop {
                match q.take() {
                    STOP => break,
                    item => ack.send(item).unwrap(),
                }
            })
        })
        .collect();
    for round in 0..rounds {
        if round % 2 == 1 {
            while q.waiting_consumer_count() < CONSUMERS {
                thread::yield_now();
            }
        }
        let want: Vec<_> = (0..CONSUMERS).map(|i| round * CONSUMERS + i).collect();
        q.put_batch(&mut want.clone());
        let mut got: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                acks.recv_timeout(WAKE_PATIENCE)
                    .unwrap_or_else(|_| panic!("round {round}: a consumer slept through: {q:?}"))
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, want);
    }
    q.put_batch(&mut vec![STOP; CONSUMERS]);
    for c in consumers {
        c.join().unwrap();
    }
}

#[test]
fn try_transfer_hands_over_only_to_a_waiting_consumer() {
    // Reservations stay linked in unbounded mode, so the rendezvous-only
    // entry points keep working with the ring in front.
    let q: Arc<TransferQueue<u32>> = Arc::new(TransferQueue::new());
    assert_eq!(q.try_transfer(1), Err(1));
    q.put(2); // buffered items are not consumers
    assert_eq!(q.try_transfer(3), Err(3));
    assert_eq!(q.poll(), Some(2));
    let consumer = {
        let q = Arc::clone(&q);
        thread::spawn(move || q.take())
    };
    while !q.has_waiting_consumer() {
        thread::yield_now();
    }
    assert_eq!(q.try_transfer(4), Ok(()));
    assert_eq!(consumer.join().unwrap(), 4);
}

#[test]
fn async_unbounded_recv_pends_then_send_wakes_it() {
    struct CountingWaker(AtomicUsize);
    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let wakes = Arc::new(CountingWaker(AtomicUsize::new(0)));
    let waker = Waker::from(Arc::clone(&wakes));
    let mut cx = Context::from_waker(&waker);

    let q: AsyncTransferQueue<u32> = AsyncTransferQueue::unbounded();
    let mut recv = pin!(q.recv());
    assert!(recv.as_mut().poll(&mut cx).is_pending());
    assert_eq!(wakes.0.load(Ordering::SeqCst), 0);
    assert_eq!(q.try_send(5), Ok(()));
    assert!(
        wakes.0.load(Ordering::SeqCst) >= 1,
        "a buffered send must wake the pending receiver"
    );
    assert_eq!(recv.as_mut().poll(&mut cx), Poll::Ready(5));

    // The same through the overflow path: with a synchronous transfer
    // linked ahead of it, the send is linked too, and still wakes.
    let mut recv = pin!(q.recv());
    assert!(recv.as_mut().poll(&mut cx).is_pending());
    let before = wakes.0.load(Ordering::SeqCst);
    let sync = {
        let q = q.clone();
        thread::spawn(move || q.inner().queue().transfer(6))
    };
    while wakes.0.load(Ordering::SeqCst) == before {
        thread::yield_now();
    }
    assert_eq!(q.try_send(7), Ok(()));
    assert_eq!(recv.as_mut().poll(&mut cx), Poll::Ready(6));
    sync.join().unwrap();
    assert_eq!(q.try_recv(), Some(7));
}

/// Counts itself alive from construction to drop.
struct Tracked {
    live: Arc<AtomicIsize>,
    /// Sizes the payload so that the queue's ring has 64 slots.
    _pad: [u64; 62],
}

impl Tracked {
    fn new(live: &Arc<AtomicIsize>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Tracked {
            live: Arc::clone(live),
            _pad: [0; 62],
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn drop_releases_ring_overflow_and_cancelled_transfer_exactly_once() {
    let live = Arc::new(AtomicIsize::new(0));
    {
        let q: TransferQueue<Tracked> = TransferQueue::new();
        // 64 ring slots at this payload size, so 150 items sit partly in
        // the ring and partly in overflow nodes ...
        for _ in 0..150 {
            q.put(Tracked::new(&live));
        }
        // ... a timed-out transfer leaves a cancelled node behind them and
        // hands its item back ...
        let back = q
            .transfer_timeout(Tracked::new(&live), Duration::from_millis(1))
            .unwrap_err();
        assert_eq!(q.len(), 150, "a cancelled transfer is not buffered data");
        // ... and a few leave through the front, so the ring is mid-cycle.
        for _ in 0..10 {
            drop(q.take());
        }
        assert_eq!(live.load(Ordering::SeqCst), 141);
        drop(back);
        assert_eq!(live.load(Ordering::SeqCst), 140);
        assert!(format!("{q:?}").contains("ring_items"));
    }
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "queue drop leaked (>0) or double-dropped (<0) payloads"
    );
}

// ------------------------------------------- a wait behind a draining ring
//
// A `transfer` linked behind buffered items is next in line once the ring
// drains toward it, and spins on that drain instead of parking (DESIGN
// §4.15). Whether it spins or parks, the contract is the same.

/// Counts its drops, so that every row also proves each item was dropped
/// exactly once.
#[derive(Debug)]
struct Counted {
    seq: usize,
    drops: Arc<AtomicUsize>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

fn counter(drops: &Arc<AtomicUsize>) -> impl Fn(usize) -> Counted + '_ {
    move |seq| Counted {
        seq,
        drops: Arc::clone(drops),
    }
}

/// `put`×`burst`, then a `transfer`, round after round, against a consumer
/// that takes everything: every item arrives exactly once, in order, and
/// each `transfer` returns only once its item is taken.
#[test]
fn a_transfer_behind_a_draining_ring_arrives_after_it_exactly_once() {
    let (burst, rounds) = if cfg!(miri) { (16, 4) } else { (256, 200) };
    let total = rounds * (burst + 1);
    let q: Arc<TransferQueue<Counted>> = Arc::new(TransferQueue::new());
    let drops = Arc::new(AtomicUsize::new(0));
    let taken = Arc::new(AtomicUsize::new(0));
    let consumer = {
        let (q, taken) = (Arc::clone(&q), Arc::clone(&taken));
        thread::spawn(move || {
            for expected in 0..total {
                assert_eq!(q.take().seq, expected, "out of order");
                taken.store(expected + 1, Ordering::SeqCst);
            }
        })
    };
    let item = counter(&drops);
    let mut seq = 0;
    for _ in 0..rounds {
        for _ in 0..burst {
            q.put(item(seq));
            seq += 1;
        }
        q.transfer(item(seq));
        // Its item was taken, so everything before it was too (the
        // consumer records a take once it returns).
        assert!(
            taken.load(Ordering::SeqCst) >= seq,
            "transfer returned early"
        );
        seq += 1;
    }
    consumer.join().unwrap();
    assert!(q.is_empty());
    assert_eq!(drops.load(Ordering::SeqCst), total);
}

/// A `transfer_timeout` behind a ring that drains more slowly than its
/// patience: it times out on time with its item back, and the consumer,
/// which drains the ring to the end, never receives that item. Odd rounds
/// drain fast enough for the transfer to spin up to its deadline, even
/// rounds slowly enough for it to park.
#[test]
fn a_transfer_that_times_out_mid_drain_takes_its_item_back() {
    let (burst, rounds) = if cfg!(miri) { (8, 2) } else { (256, 20) };
    let q: Arc<TransferQueue<Counted>> = Arc::new(TransferQueue::new());
    let drops = Arc::new(AtomicUsize::new(0));
    let (go, paces) = mpsc::channel::<Duration>();
    let (done, drained) = mpsc::channel();
    let consumer = {
        let q = Arc::clone(&q);
        thread::spawn(move || {
            let mut expected = 0;
            for pace in paces {
                for _ in 0..burst {
                    let started = std::time::Instant::now();
                    assert_eq!(q.take().seq, expected, "out of order");
                    expected += 1;
                    while started.elapsed() < pace {
                        std::hint::spin_loop();
                    }
                }
                done.send(()).unwrap();
            }
        })
    };
    let item = counter(&drops);
    let mut seq = 0;
    for round in 0..rounds {
        let patience = Duration::from_micros(if round % 2 == 1 { 50 } else { 2_000 });
        // The drain takes at least four times the transfer's patience.
        let pace = patience * 4 / burst as u32;
        for _ in 0..burst {
            q.put(item(seq));
            seq += 1;
        }
        go.send(pace).unwrap();
        let start = std::time::Instant::now();
        let outcome = q.transfer_with(item(usize::MAX), Deadline::after(patience), None);
        let waited = start.elapsed();
        match outcome {
            TransferOutcome::Timeout(Some(back)) => assert_eq!(back.seq, usize::MAX),
            other => panic!("round {round}: expected a timeout, got {other:?}"),
        }
        assert!(waited >= patience, "round {round}: woke early ({waited:?})");
        assert!(
            waited < patience + Duration::from_secs(1),
            "round {round}: overslept ({waited:?})"
        );
        drained
            .recv_timeout(WAKE_PATIENCE)
            .expect("the consumer drains");
        assert!(q.poll().is_none(), "the timed-out item was queued");
    }
    drop(go);
    consumer.join().unwrap();
    assert!(q.is_empty());
    assert_eq!(drops.load(Ordering::SeqCst), seq + rounds);
}

/// Two `transfer`s linked one behind the other behind one ring: the ring
/// drains first, then the two, in the order they were linked, and both
/// return.
#[test]
fn two_transfers_behind_one_ring_are_delivered_in_order() {
    let (burst, rounds) = if cfg!(miri) { (8, 2) } else { (256, 50) };
    let q: Arc<TransferQueue<Counted>> = Arc::new(TransferQueue::new());
    let drops = Arc::new(AtomicUsize::new(0));
    for _ in 0..rounds {
        let item = counter(&drops);
        for seq in 0..burst {
            q.put(item(seq));
        }
        let transfers: Vec<_> = (burst..burst + 2)
            .map(|seq| {
                let (sender, drops) = (Arc::clone(&q), Arc::clone(&drops));
                let t = thread::spawn(move || sender.transfer(counter(&drops)(seq)));
                // Linked before the next one starts.
                while q.len() < seq + 1 {
                    thread::yield_now();
                }
                t
            })
            .collect();
        for expected in 0..burst + 2 {
            assert_eq!(q.take().seq, expected, "out of order");
        }
        for t in transfers {
            t.join().unwrap();
        }
        assert!(q.is_empty());
    }
    assert_eq!(drops.load(Ordering::SeqCst), rounds * (burst + 2));
}
