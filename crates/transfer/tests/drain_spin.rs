//! A `transfer` linked behind a draining ring is next in line, and spins
//! on the drain instead of parking (`--features stats`; DESIGN §4.15).
//! Bursts of `put`×256 and one `transfer` against a consumer that drains
//! each burst when it is handed over: a producer that parked once per
//! burst, as it did before, fails here.
//!
//! Probe counters are process-wide, so this binary holds a single test.

#![cfg(feature = "stats")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use synq_obs::{Probe, StatsSnapshot};
use synq_primitives::SpinPolicy;
use synq_transfer::TransferQueue;

const BURSTS: u64 = 200;
const BURST: u64 = 256;
/// A drain the scheduler stalls for a whole run (both threads on one CPU,
/// say) rightly ends in parks; another run gets another placement.
const ATTEMPTS: usize = 3;

/// Runs the bursts on a fresh queue; returns (parks, direct handoffs).
fn bursts() -> (u64, u64) {
    // Start where a busy queue can end up: every recent handoff parked,
    // so the calibrated budget is 0, and a producer that waits only for
    // that budget parks on every burst.
    let spin = SpinPolicy::adaptive();
    let calibrator = spin.calibrator().expect("adaptive on a multiprocessor");
    for _ in 0..64 {
        calibrator.record_handoff(0, true);
    }
    assert_eq!(calibrator.budget(false), 0);
    let q: Arc<TransferQueue<u64>> = Arc::new(TransferQueue::with_spin(spin));
    // Items handed over so far: the consumer starts a burst only once it
    // is all in the ring, so it never waits in the library itself.
    let sent = Arc::new(AtomicU64::new(0));
    let consumer = {
        let (q, sent) = (Arc::clone(&q), Arc::clone(&sent));
        thread::spawn(move || {
            let mut next = 0;
            for _ in 0..BURSTS {
                while sent.load(Ordering::Acquire) < next + BURST {
                    std::hint::spin_loop();
                }
                for _ in 0..=BURST {
                    assert_eq!(q.take(), next);
                    next += 1;
                }
            }
        })
    };
    let before = StatsSnapshot::take();
    let mut seq = 0;
    for _ in 0..BURSTS {
        for _ in 0..BURST {
            q.put(seq);
            seq += 1;
        }
        sent.store(seq, Ordering::Release);
        q.transfer(seq);
        seq += 1;
    }
    consumer.join().unwrap();
    let delta = StatsSnapshot::take().delta(&before);
    assert!(q.is_empty());
    (
        delta.get(Probe::WaitParks),
        delta.get(Probe::WaitDirectHandoffs),
    )
}

#[test]
fn a_transfer_behind_a_draining_ring_rarely_parks() {
    if thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("skipped: one CPU, where a waiter never spins");
        return;
    }
    let mut runs = Vec::new();
    for _ in 0..ATTEMPTS {
        let (parks, direct) = bursts();
        if parks <= BURSTS / 4 {
            return;
        }
        runs.push(format!("{parks} parks, {direct} direct handoffs"));
    }
    panic!("{BURSTS} bursts, {ATTEMPTS} times: {runs:?}");
}
