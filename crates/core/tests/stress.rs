//! Heavier stress scenarios for the synchronous dual structures, including
//! the documented memory-retention edge cases of the head-absorption
//! cleaning strategy.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use synq::{SyncChannel, SyncDualQueue, SyncDualStack, TimedSyncChannel};

#[test]
fn queue_mode_flips_rapidly() {
    // Alternate which side runs ahead so the list flips between all-data
    // and all-request many times; the dual invariant must never produce a
    // wrong pairing or a lost value.
    const ROUNDS: usize = 200;
    let q = Arc::new(SyncDualQueue::new());
    let q2 = Arc::clone(&q);
    let peer = thread::spawn(move || {
        let mut sum = 0u64;
        for r in 0..ROUNDS {
            if r % 2 == 0 {
                sum += q2.take(); // we arrive first half the time
            } else {
                thread::sleep(Duration::from_micros(50));
                sum += q2.take();
            }
        }
        sum
    });
    let mut expect = 0u64;
    for r in 0..ROUNDS as u64 {
        if r % 2 == 1 {
            // we arrive first
            q.put(r);
        } else {
            thread::sleep(Duration::from_micros(50));
            q.put(r);
        }
        expect += r;
    }
    assert_eq!(peer.join().unwrap(), expect);
    assert_eq!(q.linked_nodes(), 0);
}

#[test]
fn stack_survives_fulfiller_backout_storms() {
    // Storm the decided-top path: consumers with tiny patience keep
    // leaving cancelled reservations on top, and producers with short
    // patience keep racing them, popping cancelled tops and matching or
    // losing to a cancel in place. Every delivered value must arrive, and
    // cancelled nodes must not pile up.
    let s: Arc<SyncDualStack<u64>> = Arc::new(SyncDualStack::new());
    let stop = Arc::new(AtomicUsize::new(0));
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut got = 0usize;
                while stop.load(Ordering::Relaxed) == 0 {
                    if s.poll_timeout(Duration::from_micros(30)).is_some() {
                        got += 1;
                    }
                }
                got
            })
        })
        .collect();
    let mut delivered = 0usize;
    let deadline = Instant::now() + Duration::from_millis(300);
    let mut v = 0u64;
    while Instant::now() < deadline {
        if s.offer_timeout(v, Duration::from_micros(30)).is_ok() {
            delivered += 1;
        }
        v += 1;
    }
    stop.store(1, Ordering::Relaxed);
    let received: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    // Drain anything still linked (a producer could have matched at the
    // buzzer).
    let mut drained = 0;
    while s.poll_timeout(Duration::from_millis(5)).is_some() {
        drained += 1;
    }
    assert_eq!(delivered, received + drained, "value conservation");
    let _ = s.poll();
    assert!(s.linked_nodes() <= 1, "cancelled nodes retained");
}

#[test]
fn known_retention_case_is_bounded_by_the_blocker() {
    // Documented edge case of head absorption: cancelled nodes *behind a
    // live waiter* stay linked until the waiter is matched. Verify (a) the
    // retention happens, (b) it is fully reclaimed once the blocker is
    // served — i.e. the bound really is the blocker's wait.
    let q: Arc<SyncDualQueue<u64>> = Arc::new(SyncDualQueue::new());
    let q2 = Arc::clone(&q);
    let blocker = thread::spawn(move || q2.take());
    while q.linked_nodes() < 1 {
        thread::yield_now();
    }
    // Timed-out consumers pile up behind the blocked one.
    for _ in 0..50 {
        let _ = q.poll_timeout(Duration::from_micros(1));
    }
    let with_blocker = q.linked_nodes();
    assert!(with_blocker >= 1, "expected retained cancelled nodes");
    // Serve the blocker; absorption then clears the prefix on the next op.
    q.put(7);
    assert_eq!(blocker.join().unwrap(), 7);
    let _ = q.poll();
    assert!(
        q.linked_nodes() <= 1,
        "retention not reclaimed after blocker served: {}",
        q.linked_nodes()
    );
}

#[test]
fn high_thread_count_oversubscription() {
    // 16 producers + 16 consumers on however few cores we have: heavy
    // preemption in every code path (paper §4 tests up to 64 threads).
    const SIDES: usize = 16;
    const PER: usize = 150;
    for fair in [true, false] {
        let q: Arc<synq::SynchronousQueue<usize>> = Arc::new(if fair {
            synq::SynchronousQueue::fair()
        } else {
            synq::SynchronousQueue::unfair()
        });
        let sum = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for p in 0..SIDES {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    q.put(p * PER + i);
                }
            }));
        }
        for _ in 0..SIDES {
            let q = Arc::clone(&q);
            let sum = Arc::clone(&sum);
            handles.push(thread::spawn(move || {
                for _ in 0..PER {
                    sum.fetch_add(q.take(), Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), (0..SIDES * PER).sum::<usize>());
        assert_eq!(q.linked_nodes(), 0);
    }
}

#[test]
fn rapid_timeout_matching_race() {
    // Producers offer with a patience comparable to the consumer's arrival
    // jitter, maximizing the WAITING→{CLAIMED,CANCELLED} race. Conservation
    // must hold whatever the interleaving.
    const ROUNDS: usize = 2_000;
    let q: Arc<SyncDualQueue<u64>> = Arc::new(SyncDualQueue::new());
    let delivered = Arc::new(AtomicUsize::new(0));
    let q2 = Arc::clone(&q);
    let d2 = Arc::clone(&delivered);
    let producer = thread::spawn(move || {
        for i in 0..ROUNDS {
            if q2
                .offer_timeout(i as u64, Duration::from_micros(20))
                .is_ok()
            {
                d2.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    let mut received = 0usize;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if q.poll_timeout(Duration::from_micros(20)).is_some() {
            received += 1;
        }
        if producer.is_finished() {
            while q.poll_timeout(Duration::from_millis(2)).is_some() {
                received += 1;
            }
            break;
        }
        assert!(Instant::now() < deadline, "test wedged");
    }
    producer.join().unwrap();
    assert_eq!(received, delivered.load(Ordering::Relaxed));
}
