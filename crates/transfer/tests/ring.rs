//! Integration tests for the bounded ring fast path: batch
//! drop-conservation under arbitrary shapes (proptest), cycle wraparound
//! at minimal capacity, the ring-full → rendezvous-fallback mix, and a
//! miri-sized concurrent stress. This file is also the `synq-transfer`
//! leg of the CI miri job.

use proptest::prelude::*;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use synq::{SyncChannel, TimedSyncChannel};
use synq_transfer::{BufferedChannel, RingBuffer, TransferQueue};

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

/// Batch conservation: producers push batches with `try_send_batch`
/// (partial progress — refused items stay in the vector and are retried
/// or abandoned), consumers drain with `try_recv_batch`. Every id must be
/// delivered exactly once or still owned by its producer when it gives
/// up, and every payload must drop exactly once.
fn check_batch_conservation(
    channel: Arc<BufferedChannel<Payload>>,
    producers: usize,
    consumers: usize,
    per: usize,
    batch: usize,
) -> Result<(), TestCaseError> {
    let live = Arc::new(AtomicIsize::new(0));
    let stop = Arc::new(AtomicUsize::new(0));
    let received = Arc::new(Mutex::new(Vec::new()));
    let abandoned = Arc::new(Mutex::new(Vec::new()));

    let mut handles = Vec::new();
    for p in 0..producers {
        let channel = Arc::clone(&channel);
        let live = Arc::clone(&live);
        let abandoned = Arc::clone(&abandoned);
        handles.push(thread::spawn(move || {
            let mut pending: Vec<Payload> = Vec::new();
            let mut next = 0;
            let mut stalls = 0;
            while next < per || !pending.is_empty() {
                while next < per && pending.len() < batch {
                    pending.push(Payload::new(p * per + next, &live));
                    next += 1;
                }
                let sent = channel.try_send_batch(&mut pending);
                if sent == 0 {
                    stalls += 1;
                    if stalls > 500 {
                        // Give up: the leftovers stay ours, and so do
                        // the ids we never got round to constructing.
                        let mut ab = abandoned.lock().unwrap();
                        ab.extend(pending.drain(..).map(|pl| pl.id));
                        ab.extend((next..per).map(|i| p * per + i));
                        break;
                    }
                    thread::yield_now();
                } else {
                    stalls = 0;
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
            let mut out = Vec::new();
            loop {
                let got = channel.try_recv_batch(&mut out, batch);
                if got == 0 {
                    if stop.load(Ordering::Relaxed) == 1 {
                        break;
                    }
                    thread::yield_now();
                }
            }
            received
                .lock()
                .unwrap()
                .extend(out.drain(..).map(|pl| pl.id));
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(1, Ordering::Relaxed);
    for t in takers {
        t.join().unwrap();
    }
    // Consumers may all have exited between a producer's last publish and
    // the stop flag: drain the tail.
    let mut out = Vec::new();
    while channel.try_recv_batch(&mut out, batch) > 0 {}
    received
        .lock()
        .unwrap()
        .extend(out.drain(..).map(|pl| pl.id));

    let mut seen: Vec<usize> = received.lock().unwrap().clone();
    seen.extend(abandoned.lock().unwrap().iter().copied());
    seen.sort_unstable();
    seen.dedup();
    let expected: Vec<usize> = (0..producers * per).collect();
    prop_assert_eq!(
        seen,
        expected,
        "every item must be delivered once xor abandoned once"
    );
    prop_assert_eq!(live.load(Ordering::Relaxed), 0, "payload drop conservation");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(miri) { 4 } else { 12 }
    ))]

    /// Bounded channel: batch sends/receives conserve every payload
    /// across capacities, shapes, and batch sizes.
    #[test]
    fn bounded_batches_conserve_payloads(
        capacity in 2usize..=16,
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
        batch in 1usize..=9,
    ) {
        let ch = Arc::new(BufferedChannel::bounded(capacity));
        check_batch_conservation(ch, producers, consumers, per, batch)?;
    }

    /// The unbounded default impls satisfy the same contract (everything
    /// is accepted, so nothing is ever abandoned).
    #[test]
    fn unbounded_batches_conserve_payloads(
        producers in 1usize..=3,
        consumers in 1usize..=3,
        per in 1usize..=25,
        batch in 1usize..=9,
    ) {
        let ch = Arc::new(BufferedChannel::unbounded());
        check_batch_conservation(ch, producers, consumers, per, batch)?;
    }
}

/// Sequence-version reuse: capacity 2 rolls the cycle over every other
/// operation, so thousands of operations cross thousands of cycle
/// boundaries — any confusion between "filled this cycle" and "free next
/// cycle" shows up as a lost or duplicated item.
#[test]
fn cycle_wraparound_at_minimal_capacity() {
    let q = TransferQueue::bounded(2);
    assert_eq!(q.capacity(), Some(2));
    let rounds = if cfg!(miri) { 200u64 } else { 5_000 };
    for round in 0..rounds {
        assert_eq!(q.try_put(round), Ok(()));
        assert_eq!(q.try_put(round + 1), Ok(()));
        assert_eq!(q.try_put(round + 2), Err(round + 2), "round {round}: full");
        assert_eq!(q.poll(), Some(round));
        assert_eq!(q.poll(), Some(round + 1));
        assert_eq!(q.poll(), None, "round {round}: empty");
    }
    // Same reuse pressure through the batch entry points.
    for round in 0..rounds {
        let mut items = vec![round, round + 1, round + 2];
        assert_eq!(q.try_put_batch(&mut items), 2);
        assert_eq!(items, vec![round + 2]);
        let mut out = Vec::new();
        assert_eq!(q.try_take_batch(&mut out, 4), 2);
        assert_eq!(out, vec![round, round + 1]);
    }
}

/// Ring-full → rendezvous fallback: a mixed workload where buffered puts
/// overflow a tiny ring (producers block on space) while synchronous
/// transfers rendezvous through the linked path, and everything is
/// conserved.
#[test]
fn ring_full_fallback_mixed_with_rendezvous() {
    const PRODUCERS: usize = 3;
    let per: usize = if cfg!(miri) { 40 } else { 400 };
    let q = Arc::new(TransferQueue::bounded(2));
    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let q = Arc::clone(&q);
        handles.push(thread::spawn(move || {
            for i in 0..per {
                let v = p * per + i;
                if i % 3 == 0 {
                    q.transfer(v); // linked rendezvous
                } else {
                    q.put(v); // ring, blocking when full
                }
            }
        }));
    }
    let sum = Arc::new(AtomicUsize::new(0));
    let consumers: Vec<_> = (0..3)
        .map(|_| {
            let q = Arc::clone(&q);
            let sum = Arc::clone(&sum);
            thread::spawn(move || {
                for _ in 0..per {
                    sum.fetch_add(q.take(), Ordering::Relaxed);
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
    assert_eq!(sum.load(Ordering::Relaxed), (0..PRODUCERS * per).sum());
    assert!(q.is_empty());
    assert_eq!(q.len(), 0);
}

/// Regression (issue 6 satellite): `len`/`is_empty` must reflect ring
/// occupancy *and* waiting synchronous transfers, in both modes.
#[test]
fn len_counts_ring_and_waiting_transfers() {
    let q = Arc::new(TransferQueue::bounded(4));
    assert!(q.is_empty());
    q.put(1u32);
    q.put(2);
    assert_eq!(q.len(), 2, "ring occupancy");
    let q2 = Arc::clone(&q);
    let t = thread::spawn(move || q2.transfer(3));
    while q.len() < 3 {
        thread::yield_now();
    }
    assert_eq!(q.len(), 3, "ring + waiting sync transfer");
    assert!(!q.is_empty());
    assert_eq!(q.take(), 1);
    assert_eq!(q.take(), 2);
    assert_eq!(q.take(), 3);
    t.join().unwrap();
    assert!(q.is_empty());

    // A timed-out transfer must not linger in the count.
    assert!(q.transfer_timeout(9, Duration::from_millis(5)).is_err());
    assert_eq!(q.len(), 0);
}

/// Raw ring under concurrent mixed single/batch traffic (miri-sized).
#[test]
fn raw_ring_concurrent_batch_stress() {
    let iters: u64 = if cfg!(miri) { 100 } else { 10_000 };
    let ring = Arc::new(RingBuffer::new(8));
    let popped = Arc::new(AtomicUsize::new(0));
    let sum = Arc::new(AtomicUsize::new(0));
    let total = 2 * iters as usize;
    let mut handles = Vec::new();
    for p in 0..2u64 {
        let ring = Arc::clone(&ring);
        handles.push(thread::spawn(move || {
            let mut batch = Vec::new();
            let mut i = 0;
            while i < iters || !batch.is_empty() {
                while i < iters && batch.len() < 4 {
                    batch.push(p * iters + i);
                    i += 1;
                }
                if ring.try_push_batch(&mut batch) == 0 {
                    thread::yield_now();
                }
            }
        }));
    }
    for _ in 0..2 {
        let ring = Arc::clone(&ring);
        let popped = Arc::clone(&popped);
        let sum = Arc::clone(&sum);
        handles.push(thread::spawn(move || {
            let mut out = Vec::new();
            while popped.load(Ordering::SeqCst) < total {
                let got = ring.try_pop_batch(&mut out, 4);
                if got == 0 {
                    thread::yield_now();
                    continue;
                }
                popped.fetch_add(got, Ordering::SeqCst);
                for v in out.drain(..) {
                    sum.fetch_add(v as usize, Ordering::SeqCst);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        sum.load(Ordering::SeqCst),
        (0..2 * iters).sum::<u64>() as usize
    );
}

/// The look-ahead hint wraps. A push or pop prefetches the slot 256 bytes
/// past the one it claimed: two slots of 128 bytes, so on rings of 2, 4
/// and 8 slots the hinted index wraps onto slots the other thread is
/// using (on the ring of 2, onto the slot just claimed). One producer and
/// one consumer; every item arrives once, whole and in order.
#[test]
fn lookahead_wraps_onto_slots_in_use() {
    let items: u64 = if cfg!(miri) { 200 } else { 100_000 };
    for capacity in [2, 4, 8] {
        let ring = RingBuffer::<[u64; 15]>::new(capacity);
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..items {
                    let mut v = [i; 15];
                    while let Err(back) = ring.try_push(v) {
                        v = back;
                        thread::yield_now();
                    }
                }
            });
            for i in 0..items {
                let v = loop {
                    match ring.try_pop() {
                        Some(v) => break v,
                        None => thread::yield_now(),
                    }
                };
                assert_eq!(v, [i; 15], "capacity {capacity}");
            }
        });
        assert!(ring.is_empty(), "capacity {capacity}");
    }
}

/// The trait-default batch impls on a purely synchronous structure:
/// send_batch delivers one rendezvous per item.
#[test]
fn default_batch_impls_on_synchronous_queue() {
    let q: Arc<synq::SyncDualQueue<u32>> = Arc::new(synq::SyncDualQueue::new());
    let q2 = Arc::clone(&q);
    let t = thread::spawn(move || {
        let mut out = Vec::new();
        let mut got = 0;
        while got < 3 {
            got += q2.recv_batch(&mut out, 3 - got);
        }
        out
    });
    let mut items = vec![1, 2, 3];
    q.send_batch(&mut items);
    assert!(items.is_empty());
    assert_eq!(t.join().unwrap(), vec![1, 2, 3]);
    // Non-blocking batch on an empty synchronous queue: nothing moves.
    let mut items = vec![9];
    assert_eq!(q.try_send_batch(&mut items), 0);
    assert_eq!(items, vec![9]);
    let mut out: Vec<u32> = Vec::new();
    assert_eq!(q.try_recv_batch(&mut out, 4), 0);
}
