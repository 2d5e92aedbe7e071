//! Property-based tests: the synchronous queues against simple models.
//!
//! Strategy: generate random schedules (operation mixes, patience values,
//! thread counts) and check the invariants that must hold on *every*
//! execution:
//!
//! * conservation — the multiset of received values equals the multiset of
//!   values whose producers reported success;
//! * no fabrication — nothing is ever received that was not sent;
//! * single delivery — no value is received twice;
//! * bounded emptiness — after all threads quiesce, `poll` finds nothing;
//! * drop conservation — every payload is dropped exactly once.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use synq_suite::core::{SyncDualQueue, SyncDualStack, SynchronousQueue, TimedSyncChannel};
use synq_suite::transfer::TransferQueue;

/// Runs `producers`×`per` timed offers against one drainer; checks
/// conservation between reported-delivered and actually-received.
fn run_timed_session(fair: bool, producers: usize, per: usize, patience_us: u64) -> (usize, usize) {
    let q = Arc::new(if fair {
        SynchronousQueue::fair()
    } else {
        SynchronousQueue::unfair()
    });
    let delivered = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let mut handles = Vec::new();
    for p in 0..producers {
        let q = Arc::clone(&q);
        let delivered = Arc::clone(&delivered);
        handles.push(thread::spawn(move || {
            for i in 0..per {
                let v = (p * per + i) as u64;
                if q.offer_timeout(v, Duration::from_micros(patience_us))
                    .is_ok()
                {
                    delivered.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }));
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let drainer = {
        let q = Arc::clone(&q);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match q.poll_timeout(Duration::from_micros(200)) {
                    Some(v) => got.push(v),
                    None => {
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            // Final drain of any in-flight producers.
                            while let Some(v) = q.poll_timeout(Duration::from_millis(10)) {
                                got.push(v);
                            }
                            return got;
                        }
                    }
                }
            }
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let got = drainer.join().unwrap();

    // Single delivery + no fabrication.
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for &v in &got {
        *counts.entry(v).or_default() += 1;
        assert!((v as usize) < producers * per, "fabricated value {v}");
    }
    assert!(
        counts.values().all(|&c| c == 1),
        "some value delivered twice"
    );
    (
        delivered.load(std::sync::atomic::Ordering::Relaxed),
        got.len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn conservation_under_random_timeouts(
        fair in any::<bool>(),
        producers in 1usize..4,
        per in 10usize..80,
        patience_us in 1u64..500,
    ) {
        let (delivered, received) = run_timed_session(fair, producers, per, patience_us);
        prop_assert_eq!(delivered, received, "reported vs received mismatch");
    }

    #[test]
    fn transfer_queue_is_a_fifo_queue_sequentially(
        ops in proptest::collection::vec(any::<Option<u8>>(), 0..200),
    ) {
        // Single-threaded: the TransferQueue with async puts must behave
        // exactly like a VecDeque (the model).
        use std::collections::VecDeque;
        let q: TransferQueue<u8> = TransferQueue::new();
        let mut model: VecDeque<u8> = VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    q.put(v);
                    model.push_back(v);
                }
                None => {
                    prop_assert_eq!(q.poll(), model.pop_front());
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        // Drain and compare the tails.
        while let Some(expect) = model.pop_front() {
            prop_assert_eq!(q.poll(), Some(expect));
        }
        prop_assert_eq!(q.poll(), None);
    }

    #[test]
    fn offers_and_polls_never_succeed_unpaired(
        fair in any::<bool>(),
        rounds in 1usize..120,
    ) {
        // Sequentially, with no counterpart ever present, every offer and
        // poll must fail and the queue must stay logically empty.
        let q: SynchronousQueue<u8> = if fair {
            SynchronousQueue::fair()
        } else {
            SynchronousQueue::unfair()
        };
        for i in 0..rounds {
            prop_assert_eq!(q.offer(i as u8), Err(i as u8));
            prop_assert_eq!(q.poll(), None);
        }
        prop_assert_eq!(q.linked_nodes(), 0);
    }
}

#[test]
fn parallel_session_with_shared_ledger() {
    // A heavier, deterministic-shape session: every successful put is
    // recorded in a ledger; every take must find its value in the ledger
    // exactly once.
    const PRODUCERS: usize = 4;
    const PER: usize = 250;
    let q = Arc::new(SynchronousQueue::unfair());
    let ledger = Arc::new(Mutex::new(HashMap::<u64, usize>::new()));
    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let q = Arc::clone(&q);
        let ledger = Arc::clone(&ledger);
        handles.push(thread::spawn(move || {
            for i in 0..PER {
                let v = (p * PER + i) as u64;
                q.put(v);
                *ledger.lock().unwrap().entry(v).or_default() += 1;
            }
        }));
    }
    let consumers: Vec<_> = (0..PRODUCERS)
        .map(|_| {
            let q = Arc::clone(&q);
            thread::spawn(move || (0..PER).map(|_| q.take()).collect::<Vec<_>>())
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut all: Vec<u64> = Vec::new();
    for c in consumers {
        all.extend(c.join().unwrap());
    }
    assert_eq!(all.len(), PRODUCERS * PER);
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), PRODUCERS * PER, "duplicate delivery detected");
    let ledger = ledger.lock().unwrap();
    assert_eq!(ledger.len(), PRODUCERS * PER);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Node address reuse must be invisible to the values: every transfer
    /// frees its node to the allocator, which hands the address straight
    /// back, and random-length ping-pong sessions still conserve the
    /// value multiset (checked via the sum).
    #[test]
    fn queue_node_recycling_is_value_transparent(n in 64usize..512) {
        use synq_suite::core::{SyncChannel, SyncDualQueue};
        let q = Arc::new(SyncDualQueue::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || {
            let mut sum = 0u64;
            for _ in 0..n {
                sum += q2.take();
            }
            sum
        });
        for i in 0..n as u64 {
            q.put(i);
        }
        prop_assert_eq!(t.join().unwrap(), (n as u64 * (n as u64 - 1)) / 2);
    }

    #[test]
    fn stack_node_recycling_is_value_transparent(n in 64usize..512) {
        use synq_suite::core::{SyncChannel, SyncDualStack};
        let s = Arc::new(SyncDualStack::new());
        let s2 = Arc::clone(&s);
        let t = thread::spawn(move || {
            let mut sum = 0u64;
            for _ in 0..n {
                sum += s2.take();
            }
            sum
        });
        for i in 0..n as u64 {
            s.put(i);
        }
        prop_assert_eq!(t.join().unwrap(), (n as u64 * (n as u64 - 1)) / 2);
    }
}

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
    #![proptest_config(ProptestConfig::with_cases(36))]

    /// Exactly-one-pairing and drop conservation on the fair queue, the
    /// unfair stack and the transfer queue (whose channel `offer_timeout`
    /// is a timed `transfer`).
    #[test]
    fn timed_pairs_conserve_every_payload(
        structure in 0usize..3,
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
    ) {
        let channel: Arc<dyn TimedSyncChannel<Payload>> = match structure {
            0 => Arc::new(SyncDualQueue::new()),
            1 => Arc::new(SyncDualStack::new()),
            _ => Arc::new(TransferQueue::new()),
        };
        check_conservation(channel, producers, consumers, per)?;
    }
}
