//! The contract of `TransferQueue::bounded` on its receive side. A
//! consumer that finds a bounded ring empty waits exactly as it does on
//! an unbounded queue, as a linked reservation that the next push
//! completes with the ring's head (DESIGN §4.11), so everything built on
//! "is a consumer waiting?" works in both modes: `try_transfer`, the
//! channel-trait `offer`, `has_waiting_consumer`, the executor's work
//! channel. The one thing bounded mode adds is that the pop made on a
//! consumer's behalf frees a slot a parked producer may be waiting for.
//! This file is also a leg of the CI miri job.

use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::task::{Context, Waker};
use std::thread;
use std::time::Duration;
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
/// pushed and the third has parked on the full ring, the handoff to the
/// consumer pops an item, and that pop has to wake the third.
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

/// The consumer-side twin of the producer no-barge regression: thieves
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
