//! Cross-algorithm conformance battery.
//!
//! Every synchronous queue implementation in the workspace — the paper's
//! two new algorithms, the three baselines, the elimination variant, and
//! the §5 `TransferQueue` through its synchronous `transfer`/`take` — is
//! driven through the same behavioural checks, using trait objects so
//! the test code is identical for all of them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use synq_suite::baselines::{HansonSQ, Java5SQ, NaiveSQ};
use synq_suite::core::{SyncChannel, SynchronousQueue, TimedSyncChannel};
use synq_suite::exchanger::EliminationSyncStack;
use synq_suite::transfer::TransferQueue;

type Blocking = Arc<dyn SyncChannel<u64>>;
type Timed = Arc<dyn TimedSyncChannel<u64>>;

fn blocking_channels() -> Vec<(&'static str, Blocking)> {
    vec![
        ("hanson", Arc::new(HansonSQ::new())),
        ("naive", Arc::new(NaiveSQ::new())),
        ("java5-fair", Arc::new(Java5SQ::fair())),
        ("java5-unfair", Arc::new(Java5SQ::unfair())),
        ("new-fair", Arc::new(SynchronousQueue::fair())),
        ("new-unfair", Arc::new(SynchronousQueue::unfair())),
        ("new-elim", Arc::new(EliminationSyncStack::new())),
        ("transfer", Arc::new(TransferQueue::new())),
        ("transfer-bounded", Arc::new(TransferQueue::bounded(8))),
    ]
}

fn timed_channels() -> Vec<(&'static str, Timed)> {
    vec![
        ("java5-fair", Arc::new(Java5SQ::fair())),
        ("java5-unfair", Arc::new(Java5SQ::unfair())),
        ("new-fair", Arc::new(SynchronousQueue::fair())),
        ("new-unfair", Arc::new(SynchronousQueue::unfair())),
        ("new-elim", Arc::new(EliminationSyncStack::new())),
        ("transfer", Arc::new(TransferQueue::new())),
        ("transfer-bounded", Arc::new(TransferQueue::bounded(8))),
    ]
}

#[test]
fn pairwise_delivery() {
    for (name, ch) in blocking_channels() {
        let ch2 = Arc::clone(&ch);
        let t = thread::spawn(move || ch2.take());
        ch.put(42);
        assert_eq!(t.join().unwrap(), 42, "{name}");
    }
}

#[test]
fn put_blocks_until_taken() {
    for (name, ch) in blocking_channels() {
        let returned = Arc::new(AtomicBool::new(false));
        let ch2 = Arc::clone(&ch);
        let r2 = Arc::clone(&returned);
        let producer = thread::spawn(move || {
            ch2.put(7);
            r2.store(true, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(25));
        assert!(
            !returned.load(Ordering::SeqCst),
            "{name}: put returned before take"
        );
        assert_eq!(ch.take(), 7, "{name}");
        producer.join().unwrap();
        assert!(returned.load(Ordering::SeqCst), "{name}");
    }
}

#[test]
fn take_blocks_until_put() {
    for (name, ch) in blocking_channels() {
        let got = Arc::new(AtomicUsize::new(usize::MAX));
        let ch2 = Arc::clone(&ch);
        let g2 = Arc::clone(&got);
        let consumer = thread::spawn(move || {
            g2.store(ch2.take() as usize, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(25));
        assert_eq!(
            got.load(Ordering::SeqCst),
            usize::MAX,
            "{name}: take returned before put"
        );
        ch.put(5);
        consumer.join().unwrap();
        assert_eq!(got.load(Ordering::SeqCst), 5, "{name}");
    }
}

#[test]
fn exactly_once_delivery_under_load() {
    const PRODUCERS: usize = 3;
    const CONSUMERS: usize = 3;
    const PER: usize = 400;
    for (name, ch) in blocking_channels() {
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let ch = Arc::clone(&ch);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    ch.put((p * PER + i) as u64);
                }
            }));
        }
        let seen = Arc::new(
            (0..PRODUCERS * PER)
                .map(|_| AtomicBool::new(false))
                .collect::<Vec<_>>(),
        );
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let ch = Arc::clone(&ch);
                let seen = Arc::clone(&seen);
                thread::spawn(move || {
                    for _ in 0..(PRODUCERS * PER / CONSUMERS) {
                        let v = ch.take() as usize;
                        assert!(
                            !seen[v].swap(true, Ordering::SeqCst),
                            "value {v} delivered twice"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert!(
            seen.iter().all(|b| b.load(Ordering::SeqCst)),
            "{name}: some value was lost"
        );
    }
}

#[test]
fn poll_and_offer_fail_fast_on_empty() {
    for (name, ch) in timed_channels() {
        let start = Instant::now();
        assert_eq!(ch.poll(), None, "{name}");
        assert_eq!(ch.offer(1), Err(1), "{name}");
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "{name}: non-blocking ops blocked for {:?}",
            start.elapsed()
        );
    }
}

#[test]
fn timed_ops_respect_patience_bounds() {
    for (name, ch) in timed_channels() {
        let start = Instant::now();
        assert_eq!(ch.poll_timeout(Duration::from_millis(40)), None, "{name}");
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(40), "{name}: woke early");
        assert!(
            waited < Duration::from_secs(5),
            "{name}: overslept ({waited:?})"
        );
        assert_eq!(
            ch.offer_timeout(9, Duration::from_millis(40)),
            Err(9),
            "{name}"
        );
    }
}

#[test]
fn offer_reaches_waiting_consumer() {
    for (name, ch) in timed_channels() {
        let ch2 = Arc::clone(&ch);
        let t = thread::spawn(move || ch2.take());
        let mut v = 11u64;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match ch.offer(v) {
                Ok(()) => break,
                Err(back) => {
                    v = back;
                    assert!(Instant::now() < deadline, "{name}: offer never succeeded");
                    thread::yield_now();
                }
            }
        }
        assert_eq!(t.join().unwrap(), 11, "{name}");
    }
}

#[test]
fn poll_receives_waiting_producer() {
    for (name, ch) in timed_channels() {
        let ch2 = Arc::clone(&ch);
        let t = thread::spawn(move || ch2.put(13));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match ch.poll() {
                Some(v) => {
                    assert_eq!(v, 13, "{name}");
                    break;
                }
                None => {
                    assert!(Instant::now() < deadline, "{name}: poll never succeeded");
                    thread::yield_now();
                }
            }
        }
        t.join().unwrap();
    }
}

#[test]
fn channel_usable_after_timeouts() {
    // Timed-out operations leave cancelled nodes behind; the channel must
    // keep working normally afterwards.
    for (name, ch) in timed_channels() {
        for i in 0..20 {
            let _ = ch.offer_timeout(i, Duration::from_micros(10));
            let _ = ch.poll_timeout(Duration::from_micros(10));
        }
        let ch2 = Arc::clone(&ch);
        let t = thread::spawn(move || ch2.take());
        ch.put(77);
        assert_eq!(t.join().unwrap(), 77, "{name}");
    }
}

#[test]
fn cancellation_interrupts_both_sides() {
    use synq_suite::core::{CancelToken, Deadline, TransferOutcome};
    for (name, ch) in timed_channels() {
        // Consumer side.
        let token = CancelToken::new();
        let canceller = token.clone();
        let ch2 = Arc::clone(&ch);
        let t = thread::spawn(move || ch2.take_with(Deadline::Never, Some(&token)));
        thread::sleep(Duration::from_millis(20));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(None) => {}
            other => panic!("{name}: expected Cancelled take, got {other:?}"),
        }
        // Producer side (gets the item back).
        let token = CancelToken::new();
        let canceller = token.clone();
        let ch2 = Arc::clone(&ch);
        let t = thread::spawn(move || ch2.put_with(55, Deadline::Never, Some(&token)));
        thread::sleep(Duration::from_millis(20));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(Some(55)) => {}
            other => panic!("{name}: expected Cancelled(55) put, got {other:?}"),
        }
    }
}

#[test]
fn no_stranded_pairs_under_exact_ticket_counts() {
    // Regression test: an early Java5SQ port popped the counterpart list
    // and pushed onto its own list under *separate* entry-lock
    // acquisitions, admitting a race where a producer and a consumer both
    // observe "empty" and both enqueue — stranding the final pair forever
    // once no further arrivals occur. With exact ticket counts (as in the
    // benchmark harness) the hang is reliably reachable. The fix performs
    // pop-or-push under one lock hold, as in the paper's Listing 4.
    const TRANSFERS: usize = 3_000;
    const SIDES: usize = 4;
    for (name, ch) in blocking_channels() {
        let put_tickets = Arc::new(AtomicUsize::new(0));
        let take_tickets = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..SIDES {
            let ch = Arc::clone(&ch);
            let tickets = Arc::clone(&put_tickets);
            handles.push(thread::spawn(move || loop {
                let i = tickets.fetch_add(1, Ordering::Relaxed);
                if i >= TRANSFERS {
                    break;
                }
                ch.put(i as u64);
            }));
        }
        for _ in 0..SIDES {
            let ch = Arc::clone(&ch);
            let tickets = Arc::clone(&take_tickets);
            handles.push(thread::spawn(move || loop {
                let i = tickets.fetch_add(1, Ordering::Relaxed);
                if i >= TRANSFERS {
                    break;
                }
                let _ = ch.take();
            }));
        }
        for h in handles {
            h.join().unwrap(); // a stranded pair hangs here
        }
        let _ = name;
    }
}
