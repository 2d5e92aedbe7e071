//! The contract of `TransferQueue::bounded`. It is the unbounded queue
//! with one difference (DESIGN §4.11): a `put` that cannot enter the ring
//! links a node as an unbounded overflow `put` does, and then waits on it
//! until whoever frees a slot or moves the list's front moves its item
//! into the ring. So the queue is one FIFO, as the unbounded one is: a
//! `put` issued after a waiting `transfer` is received after it. A
//! consumer that finds the ring empty waits as a linked reservation that
//! the next push completes with the ring's head, so everything built on
//! "is a consumer waiting?" works in both modes: `try_transfer`, the
//! channel-trait `offer`, `has_waiting_consumer`, the executor's work
//! channel. This file is also a leg of the CI miri job.

use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::task::{Context, Waker};
use std::thread;
use std::time::{Duration, Instant};
use synq_async::AsyncTransferQueue;
use synq_suite::core::TimedSyncChannel;
use synq_suite::executor::ThreadPool;
use synq_suite::transfer::TransferQueue;

/// How long a wakeup may take before the test calls it lost.
const WAKE_PATIENCE: Duration = Duration::from_secs(20);

/// A consumer thread blocked in `take`.
struct BlockedConsumer {
    thread: thread::JoinHandle<()>,
    taken: mpsc::Receiver<usize>,
}

impl BlockedConsumer {
    /// Spawns the consumer and returns once its reservation is visible.
    fn on(q: &Arc<TransferQueue<usize>>) -> Self {
        let taker = Arc::clone(q);
        let (send, taken) = mpsc::channel();
        let thread = thread::spawn(move || send.send(taker.take()).unwrap());
        while !q.has_waiting_consumer() {
            thread::yield_now();
        }
        BlockedConsumer { thread, taken }
    }

    /// What the consumer received; a consumer still blocked after
    /// `WAKE_PATIENCE` fails the test instead of hanging it.
    fn join(self, q: &TransferQueue<usize>) -> usize {
        let got = self
            .taken
            .recv_timeout(WAKE_PATIENCE)
            .unwrap_or_else(|_| panic!("consumer still blocked: {q:?}"));
        self.thread.join().unwrap();
        got
    }
}

/// (With `try_transfer_needs_waiting_consumer` in `synq-transfer`, which
/// now runs in both modes, this is what took the place of
/// `bounded_try_transfer_always_fails`.)
#[test]
fn try_transfer_and_offer_succeed_iff_a_consumer_waits() {
    let q: Arc<TransferQueue<usize>> = Arc::new(TransferQueue::bounded(4));
    assert_eq!(q.try_transfer(1), Err(1));
    assert_eq!(q.offer(1), Err(1));
    q.put(2); // buffered items are not consumers
    assert_eq!(q.try_transfer(3), Err(3));
    assert_eq!(q.poll(), Some(2));

    let consumer = BlockedConsumer::on(&q);
    assert_eq!(q.try_transfer(4), Ok(()));
    assert_eq!(consumer.join(&q), 4);
    assert!(!q.has_waiting_consumer());

    let consumer = BlockedConsumer::on(&q);
    assert_eq!(q.offer(5), Ok(()));
    assert_eq!(consumer.join(&q), 5);
    assert_eq!(q.offer(6), Err(6), "that consumer is gone");
}

#[test]
fn waiting_consumer_count_sees_a_thread_and_a_pending_future_alike() {
    let aq: AsyncTransferQueue<usize> = AsyncTransferQueue::bounded(4);
    let q = aq.inner().queue();
    let mut cx = Context::from_waker(Waker::noop());
    let mut recv = pin!(aq.recv());
    assert!(recv.as_mut().poll(&mut cx).is_pending());
    assert_eq!(q.waiting_consumer_count(), 1);

    let blocked = {
        let aq = aq.clone();
        thread::spawn(move || aq.inner().queue().take())
    };
    while q.waiting_consumer_count() < 2 {
        thread::yield_now();
    }
    // The thread's reservation is served first; the future that nobody
    // polls stays counted.
    q.put(8);
    assert_eq!(blocked.join().unwrap(), 8);
    assert_eq!(q.waiting_consumer_count(), 1);
    assert!(q.has_waiting_consumer());
}

/// A consumer reserved on the empty ring of capacity 2 and three
/// producers released together. Whichever way they interleave, all three
/// must complete with no `take` beyond the reserved one: when two have
/// pushed and the third finds the ring full, the handoff to the consumer
/// pops an item, and the third's item has to get that slot.
#[test]
fn handoff_to_a_reserved_consumer_frees_a_slot_for_a_parked_producer() {
    let rounds = if cfg!(miri) { 10 } else { 2_000 };
    let q: Arc<TransferQueue<usize>> = Arc::new(TransferQueue::bounded(2));
    for round in 0..rounds {
        let consumer = BlockedConsumer::on(&q);
        let start = Arc::new(Barrier::new(3));
        let (done, puts) = mpsc::channel();
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let (q, start, done) = (Arc::clone(&q), Arc::clone(&start), done.clone());
                thread::spawn(move || {
                    start.wait();
                    q.put(3 * round + p);
                    done.send(()).unwrap();
                })
            })
            .collect();
        for _ in 0..3 {
            puts.recv_timeout(WAKE_PATIENCE).unwrap_or_else(|_| {
                panic!("round {round}: a producer is parked beside a free slot: {q:?}")
            });
        }
        for p in producers {
            p.join().unwrap();
        }
        let mut got = vec![consumer.join(&q), q.poll().unwrap(), q.poll().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![3 * round, 3 * round + 1, 3 * round + 2]);
        assert!(q.is_empty());
    }
}

/// The consumer-side twin of the producer barging regression: thieves
/// hammer `poll` (putting back whatever they snatch between a push and
/// its handoff) while one consumer is reserved. The item must reach that
/// consumer all the same. (This is what took the place of
/// `poll_defers_to_registered_item_waiter` in `synq-transfer`: a blocked
/// consumer is handed its item, so there is no woken consumer left for a
/// fresh `poll` to defer to.)
#[test]
fn poll_storm_cannot_starve_a_reserved_consumer() {
    let rounds = if cfg!(miri) { 2 } else { 50 };
    let q: Arc<TransferQueue<usize>> = Arc::new(TransferQueue::bounded(2));
    let stop = Arc::new(AtomicBool::new(false));
    let thieves: Vec<_> = (0..2)
        .map(|_| {
            let (q, stop) = (Arc::clone(&q), Arc::clone(&stop));
            thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if let Some(mut v) = q.poll() {
                        while let Err(back) = q.try_put(v) {
                            v = back;
                        }
                    }
                }
            })
        })
        .collect();
    for round in 0..rounds {
        let consumer = BlockedConsumer::on(&q);
        q.put(round);
        assert_eq!(consumer.join(&q), round, "round {round}");
    }
    stop.store(true, Ordering::SeqCst);
    for t in thieves {
        t.join().unwrap();
    }
    assert!(q.is_empty());
}

#[test]
fn bounded_queue_is_an_executor_work_channel() {
    let jobs = if cfg!(miri) { 8 } else { 200 };
    let pool = ThreadPool::cached(Arc::new(TransferQueue::bounded(4)));
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..jobs {
        let ran = Arc::clone(&ran);
        pool.execute(move || {
            ran.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    }
    pool.shutdown();
    pool.join();
    assert_eq!(ran.load(Ordering::SeqCst), jobs);
}

// ------------------------------------------------------------- put side

/// One FIFO across `transfer` and `put`: a `put` issued while a
/// `transfer` waits is received after it, and waits until then (its item
/// may not enter the ring past the transfer's).
#[test]
fn a_put_issued_after_a_waiting_transfer_is_received_after_it() {
    let q: Arc<TransferQueue<usize>> = Arc::new(TransferQueue::bounded(4));
    let transfer = {
        let q = Arc::clone(&q);
        thread::spawn(move || q.transfer(1))
    };
    while q.is_empty() {
        thread::yield_now();
    }
    let (done, put) = mpsc::channel();
    let producer = {
        let q = Arc::clone(&q);
        thread::spawn(move || {
            q.put(2);
            done.send(()).unwrap();
        })
    };
    while q.len() < 2 {
        thread::yield_now();
    }
    assert!(put.try_recv().is_err(), "the put waits behind the transfer");
    assert_eq!(q.take(), 1);
    put.recv_timeout(WAKE_PATIENCE)
        .unwrap_or_else(|_| panic!("the put still waits with the ring empty: {q:?}"));
    assert_eq!(q.take(), 2);
    transfer.join().unwrap();
    producer.join().unwrap();
    assert!(q.is_empty());
}

/// A waiting put whose predecessor, a timed `transfer`, expires moves
/// into the ring and completes, with no `take` by anyone: the transfer's
/// withdrawal moved the list's front, and whoever moves the front moves
/// the waiting put behind it.
#[test]
fn a_waiting_put_completes_when_the_transfer_ahead_of_it_expires() {
    let patience = Duration::from_millis(if cfg!(miri) { 20 } else { 100 });
    let q: Arc<TransferQueue<usize>> = Arc::new(TransferQueue::bounded(4));
    let transfer = {
        let q = Arc::clone(&q);
        thread::spawn(move || q.transfer_timeout(1, patience))
    };
    while q.is_empty() {
        thread::yield_now();
    }
    let start = Instant::now();
    q.put(2); // links behind the transfer and waits
    assert_eq!(transfer.join().unwrap(), Err(1));
    assert!(start.elapsed() < WAKE_PATIENCE);
    assert_eq!((q.poll(), q.poll()), (Some(2), None));
}

/// Counts its drops, so that a stress run also proves no item was
/// dropped twice or leaked.
struct Msg {
    producer: usize,
    seq: usize,
    drops: Arc<AtomicUsize>,
}

impl Drop for Msg {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// Per-producer FIFO on the smallest ring: 3 producers, each rotating
/// between `put`, `transfer` and `put_batch`, against 2 consumers, on
/// `bounded(2)`, so that producers wait on the full ring all the time,
/// behind transfers and each other. Every consumer must see each
/// producer's messages in order, together exactly once, and each message
/// must be dropped once.
#[test]
fn per_producer_fifo_with_waiting_puts_on_a_full_ring() {
    const PRODUCERS: usize = 3;
    const CONSUMERS: usize = 2;
    let per = if cfg!(miri) { 12 } else { 2_000 };
    let q: Arc<TransferQueue<Msg>> = Arc::new(TransferQueue::bounded(2));
    let drops = Arc::new(AtomicUsize::new(0));
    let taken = Arc::new(AtomicUsize::new(0));
    let start = Arc::new(Barrier::new(PRODUCERS + CONSUMERS));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let (q, drops, start) = (Arc::clone(&q), Arc::clone(&drops), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                let msg = |seq| Msg {
                    producer: p,
                    seq,
                    drops: Arc::clone(&drops),
                };
                let (mut seq, mut round) = (0, p);
                while seq < per {
                    match round % 3 {
                        0 => q.put(msg(seq)),
                        1 => q.transfer(msg(seq)),
                        _ => {
                            let n = (per - seq).min(1 + round % 4);
                            let mut batch: Vec<_> = (seq..seq + n).map(msg).collect();
                            q.put_batch(&mut batch);
                            assert!(batch.is_empty());
                            seq += n - 1;
                        }
                    }
                    seq += 1;
                    round += 1;
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let (q, taken, start) = (Arc::clone(&q), Arc::clone(&taken), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                let mut last = [None::<usize>; PRODUCERS];
                let mut seen = Vec::new();
                while taken.fetch_add(1, Ordering::SeqCst) < per * PRODUCERS {
                    let m = q.take();
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
    for p in producers {
        p.join().unwrap();
    }
    let mut all: Vec<_> = consumers
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    all.sort_unstable();
    let expected: Vec<_> = (0..PRODUCERS)
        .flat_map(|p| (0..per).map(move |s| (p, s)))
        .collect();
    assert_eq!(all, expected, "a message was lost or delivered twice");
    assert!(q.is_empty(), "{q:?}");
    assert_eq!(drops.load(Ordering::SeqCst), per * PRODUCERS);
}

/// A bounded put that finds the ring full waits on a linked node, next in
/// line once the ring drains toward it (it spins on that drain where it
/// can, DESIGN §4.15). Round after round the producer fills the ring, lets
/// the consumer start, and puts one more; the consumer drains the lot. The
/// extra put is received after the ring's items, every item exactly once.
#[test]
fn a_waiting_put_behind_a_full_ring_that_a_consumer_drains() {
    let (cap, rounds) = if cfg!(miri) { (4, 3) } else { (64, 200) };
    let q: Arc<TransferQueue<Msg>> = Arc::new(TransferQueue::bounded(cap));
    let drops = Arc::new(AtomicUsize::new(0));
    let (go, turns) = mpsc::channel();
    let consumer = {
        let q = Arc::clone(&q);
        thread::spawn(move || {
            let mut expected = 0;
            for () in turns {
                for _ in 0..=cap {
                    let m = q.take();
                    assert_eq!((m.producer, m.seq), (0, expected), "out of order");
                    expected += 1;
                }
            }
        })
    };
    let msg = |seq| Msg {
        producer: 0,
        seq,
        drops: Arc::clone(&drops),
    };
    let mut seq = 0;
    for _ in 0..rounds {
        for _ in 0..cap {
            assert!(q.try_put(msg(seq)).is_ok(), "the ring has room");
            seq += 1;
        }
        go.send(()).unwrap();
        q.put(msg(seq)); // the ring is full, unless the drain has begun
        seq += 1;
        while !q.is_empty() {
            thread::yield_now();
        }
    }
    drop(go);
    consumer.join().unwrap();
    assert!(q.is_empty(), "{q:?}");
    assert_eq!(drops.load(Ordering::SeqCst), rounds * (cap + 1));
}
