//! Stress and conformance tests for the exchanger and the elimination stack.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use synq::{SyncChannel, TimedSyncChannel};
use synq_exchanger::{EliminationSyncStack, Exchanger};

#[test]
fn repeated_rounds_reuse_the_arena() {
    // The same two threads exchange many times; each round must pair the
    // round's own values (no stale values from prior rounds).
    const ROUNDS: usize = 500;
    let x = Arc::new(Exchanger::new());
    let x2 = Arc::clone(&x);
    let peer = thread::spawn(move || {
        let mut got = Vec::with_capacity(ROUNDS);
        for r in 0..ROUNDS {
            got.push(x2.exchange((1, r)));
        }
        got
    });
    let mut got = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS {
        got.push(x.exchange((0, r)));
    }
    let peer_got = peer.join().unwrap();
    for r in 0..ROUNDS {
        assert_eq!(
            got[r],
            (1, r),
            "main got a stale/foreign value in round {r}"
        );
        assert_eq!(
            peer_got[r],
            (0, r),
            "peer got a stale/foreign value in round {r}"
        );
    }
}

#[test]
fn odd_thread_out_times_out() {
    // Three threads, patience-bounded: exactly one must time out (pairs
    // are formed two at a time), and the paired values must be consistent.
    let x = Arc::new(Exchanger::<u32>::with_slots(2));
    let handles: Vec<_> = (0..3u32)
        .map(|i| {
            let x = Arc::clone(&x);
            thread::spawn(move || x.exchange_timeout(i, Duration::from_millis(300)))
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let timeouts = results.iter().filter(|r| r.is_err()).count();
    assert_eq!(
        timeouts, 1,
        "exactly one of three should time out: {results:?}"
    );
    // The two successes received each other's values.
    let received: HashSet<u32> = results
        .iter()
        .filter_map(|r| r.as_ref().ok().copied())
        .collect();
    let timed_out: u32 = results
        .iter()
        .filter_map(|r| r.as_ref().err().copied())
        .next()
        .unwrap();
    assert_eq!(received.len(), 2);
    assert!(
        !received.contains(&timed_out),
        "timed-out value was also delivered"
    );
}

#[test]
fn exchanger_values_conserved_many_threads() {
    // An even crowd: the multiset of received values equals the multiset
    // of offered values, and nobody receives its own offer.
    const N: usize = 10;
    let x = Arc::new(Exchanger::with_slots(4));
    let handles: Vec<_> = (0..N)
        .map(|i| {
            let x = Arc::clone(&x);
            thread::spawn(move || (i, x.exchange(i)))
        })
        .collect();
    let results: Vec<(usize, usize)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut received: Vec<usize> = results.iter().map(|&(_, got)| got).collect();
    received.sort_unstable();
    assert_eq!(received, (0..N).collect::<Vec<_>>());
    for &(mine, got) in &results {
        assert_ne!(mine, got, "thread {mine} paired with itself");
    }
}

#[test]
fn elimination_stack_conserves_under_timed_chaos() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const PRODUCERS: usize = 3;
    const PER: usize = 500;
    let q = Arc::new(EliminationSyncStack::new());
    let delivered = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for _ in 0..PRODUCERS {
        let q = Arc::clone(&q);
        let delivered = Arc::clone(&delivered);
        handles.push(thread::spawn(move || {
            for i in 0..PER {
                if q.offer_timeout(i as u64, Duration::from_micros(150))
                    .is_ok()
                {
                    delivered.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    let stop = Arc::new(AtomicUsize::new(0));
    let consumer = {
        let q = Arc::clone(&q);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut got = 0usize;
            loop {
                if q.poll_timeout(Duration::from_micros(300)).is_some() {
                    got += 1;
                } else if stop.load(Ordering::Relaxed) == 1 {
                    while q.poll_timeout(Duration::from_millis(5)).is_some() {
                        got += 1;
                    }
                    return got;
                }
            }
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    stop.store(1, Ordering::Relaxed);
    let got = consumer.join().unwrap();
    assert_eq!(got, delivered.load(Ordering::Relaxed));
}

#[test]
fn elimination_stack_blocking_api_equivalence() {
    // The elimination wrapper must be observationally equivalent to the
    // plain stack for the blocking API.
    let q = Arc::new(EliminationSyncStack::new());
    let q2 = Arc::clone(&q);
    let consumer = thread::spawn(move || (0..100).map(|_| q2.take()).sum::<u64>());
    for i in 0..100u64 {
        q.put(i);
    }
    assert_eq!(consumer.join().unwrap(), (0..100).sum::<u64>());
}
