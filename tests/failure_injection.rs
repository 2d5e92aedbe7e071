//! Failure injection: random timeouts and asynchronous cancellations under
//! load, with drop-counting payloads to detect leaks and double-frees.

use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use synq_suite::core::{
    CancelToken, Deadline, SynchronousQueue, TimedSyncChannel, TransferOutcome,
};

/// Payload that counts creations and drops globally per test run.
struct Tracked {
    _payload: [u8; 24],
    live: Arc<AtomicUsize>,
}

impl Tracked {
    fn new(live: &Arc<AtomicUsize>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Tracked {
            _payload: [0xAB; 24],
            live: Arc::clone(live),
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

fn chaos_session(fair: bool) {
    const PRODUCERS: usize = 3;
    const CONSUMERS: usize = 3;
    const OPS: usize = 400;

    let live = Arc::new(AtomicUsize::new(0));
    let q: Arc<SynchronousQueue<Tracked>> = Arc::new(if fair {
        SynchronousQueue::fair()
    } else {
        SynchronousQueue::unfair()
    });
    let token = CancelToken::new();
    let canceller = token.clone();
    let received = Arc::new(AtomicUsize::new(0));
    let delivered = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for _ in 0..PRODUCERS {
        let q = Arc::clone(&q);
        let live = Arc::clone(&live);
        let token = token.clone();
        let delivered = Arc::clone(&delivered);
        handles.push(thread::spawn(move || {
            let mut rng = rand::thread_rng();
            for _ in 0..OPS {
                let item = Tracked::new(&live);
                let deadline = match rng.gen_range(0..3) {
                    0 => Deadline::Now,
                    1 => Deadline::after(Duration::from_micros(rng.gen_range(1..400))),
                    _ => Deadline::after(Duration::from_millis(5)),
                };
                match q.put_with(item, deadline, Some(&token)) {
                    TransferOutcome::Transferred(_) => {
                        delivered.fetch_add(1, Ordering::Relaxed);
                    }
                    TransferOutcome::Timeout(item) | TransferOutcome::Cancelled(item) => {
                        drop(item); // item returned to us; drop it here
                    }
                }
            }
        }));
    }
    for _ in 0..CONSUMERS {
        let q = Arc::clone(&q);
        let token = token.clone();
        let received = Arc::clone(&received);
        handles.push(thread::spawn(move || {
            let mut rng = rand::thread_rng();
            for _ in 0..OPS {
                let deadline = match rng.gen_range(0..3) {
                    0 => Deadline::Now,
                    1 => Deadline::after(Duration::from_micros(rng.gen_range(1..400))),
                    _ => Deadline::after(Duration::from_millis(5)),
                };
                if let TransferOutcome::Transferred(Some(item)) =
                    q.take_with(deadline, Some(&token))
                {
                    received.fetch_add(1, Ordering::Relaxed);
                    drop(item);
                }
            }
        }));
    }

    // Let chaos run briefly, then interrupt everyone mid-flight.
    thread::sleep(Duration::from_millis(60));
    canceller.cancel();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(
        delivered.load(Ordering::SeqCst),
        received.load(Ordering::SeqCst),
        "every successfully transferred item must be received exactly once"
    );

    // Leak check: drop the queue (frees any cancelled nodes still linked);
    // epoch-deferred frees may lag, so nudge the collector.
    drop(q);
    for _ in 0..64 {
        if live.load(Ordering::SeqCst) == 0 {
            break;
        }
        let g = synq_suite::reclaim::pin();
        g.flush();
        drop(g);
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "payloads leaked or double-freed (negative would have panicked the counter)"
    );
}

#[test]
fn chaos_fair() {
    chaos_session(true);
}

#[test]
fn chaos_unfair() {
    chaos_session(false);
}

#[test]
fn repeated_cancel_storms_leave_channel_usable() {
    let q: Arc<SynchronousQueue<u64>> = Arc::new(SynchronousQueue::fair());
    for round in 0..10 {
        let token = CancelToken::new();
        let canceller = token.clone();
        let mut waiters = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let token = token.clone();
            waiters.push(thread::spawn(move || {
                q.take_with(Deadline::Never, Some(&token))
            }));
        }
        thread::sleep(Duration::from_millis(10));
        canceller.cancel();
        for w in waiters {
            match w.join().unwrap() {
                TransferOutcome::Cancelled(None) => {}
                TransferOutcome::Transferred(_) => panic!("round {round}: spurious transfer"),
                other => panic!("round {round}: unexpected {other:?}"),
            }
        }
        // Channel still fully functional.
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        q.put(round);
        assert_eq!(t.join().unwrap(), round);
    }
}

#[test]
fn executor_survives_cancellation_mid_burst() {
    use synq_suite::executor::{PoolConfig, ThreadPool};
    let pool = ThreadPool::new(
        Arc::new(SynchronousQueue::unfair()),
        PoolConfig {
            core_pool_size: 0,
            max_pool_size: 16,
            keep_alive: Duration::from_millis(50),
        },
    );
    let done = Arc::new(AtomicUsize::new(0));
    let mut accepted = 0usize;
    for _ in 0..200 {
        let done = Arc::clone(&done);
        if pool
            .execute(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .is_ok()
        {
            accepted += 1;
        }
    }
    // Shut down while some tasks may still be in flight; join must not
    // hang and every accepted task must have run (shutdown only interrupts
    // *idle* workers).
    while done.load(Ordering::Relaxed) < accepted {
        thread::yield_now();
    }
    pool.shutdown();
    pool.join();
    assert_eq!(done.load(Ordering::Relaxed), accepted);
}

/// Address-reuse churn: every handoff frees its node to the allocator,
/// which hands the same addresses out again at once, with timed failures
/// mixed in so that nodes are also freed from the cancelled state carrying
/// an *unconsumed* item. Each payload must drop exactly once: a node freed
/// while someone can still reach it, or freed without its item, shows up
/// here as a double-free or a leak.
fn recycling_churn(fair: bool) {
    const OPS: usize = 3_000;
    let live = Arc::new(AtomicUsize::new(0));
    let q: Arc<SynchronousQueue<Tracked>> = Arc::new(if fair {
        SynchronousQueue::fair()
    } else {
        SynchronousQueue::unfair()
    });
    let delivered = Arc::new(AtomicUsize::new(0));

    let producer = {
        let q = Arc::clone(&q);
        let live = Arc::clone(&live);
        let delivered = Arc::clone(&delivered);
        thread::spawn(move || {
            for i in 0..OPS {
                let item = Tracked::new(&live);
                if i % 8 == 0 {
                    // Mostly-failing timed offer: leaves a cancelled node
                    // for the next arrival to absorb.
                    match q.offer_timeout(item, Duration::from_micros(1)) {
                        Ok(()) => {
                            delivered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(item) => drop(item),
                    }
                } else {
                    q.put(item);
                    delivered.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let drainer = {
        let q = Arc::clone(&q);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut got = 0usize;
            loop {
                match q.poll_timeout(Duration::from_micros(300)) {
                    Some(item) => {
                        got += 1;
                        drop(item);
                    }
                    None => {
                        if stop.load(Ordering::Acquire) {
                            return got;
                        }
                    }
                }
            }
        })
    };

    producer.join().unwrap();
    stop.store(true, Ordering::Release);
    let received = drainer.join().unwrap();
    assert_eq!(
        delivered.load(Ordering::SeqCst),
        received,
        "every delivered item must come out exactly once despite node reuse"
    );

    // Once the queue and all epoch-deferred releases are gone, every
    // payload has dropped.
    drop(q);
    for _ in 0..64 {
        if live.load(Ordering::SeqCst) == 0 {
            break;
        }
        let g = synq_suite::reclaim::pin();
        g.flush();
        drop(g);
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "payloads leaked with their nodes (double-frees would have underflowed)"
    );
}

#[test]
fn recycling_churn_fair() {
    recycling_churn(true);
}

#[test]
fn recycling_churn_unfair() {
    recycling_churn(false);
}
