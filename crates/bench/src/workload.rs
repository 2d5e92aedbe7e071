//! Workload generators and measurement loops.

use crate::hist::Histogram;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use synq::{SyncChannel, TimedSyncChannel};
use synq_executor::{Job, PoolConfig, ThreadPool};
use synq_transfer::TransferQueue;

/// Producer:consumer shape of a handoff microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffShape {
    /// Number of producer threads.
    pub producers: usize,
    /// Number of consumer threads.
    pub consumers: usize,
}

impl HandoffShape {
    /// Figure 3: N producers, N consumers.
    pub fn pairs(n: usize) -> Self {
        HandoffShape {
            producers: n,
            consumers: n,
        }
    }
    /// Figure 4: one producer, N consumers.
    pub fn fan_out(consumers: usize) -> Self {
        HandoffShape {
            producers: 1,
            consumers,
        }
    }
    /// Figure 5: N producers, one consumer.
    pub fn fan_in(producers: usize) -> Self {
        HandoffShape {
            producers,
            consumers: 1,
        }
    }
}

/// Runs a saturation handoff benchmark: every thread produces/consumes "as
/// fast as it can" until exactly `transfers` handoffs have happened.
/// Returns nanoseconds per transfer.
///
/// Work is claimed from shared tickets so exactly `transfers` puts pair
/// with exactly `transfers` takes — no thread is left stranded in a
/// blocking operation at the end.
pub fn handoff_ns_per_transfer(
    channel: Arc<dyn SyncChannel<u64>>,
    shape: HandoffShape,
    transfers: usize,
) -> f64 {
    handoff_ns_per_transfer_recording(channel, shape, transfers, None)
}

/// [`handoff_ns_per_transfer`] with optional per-operation timing spans:
/// when `hist` is given, every individual `put` and `take` records its
/// wall-clock duration (two `Instant::now` reads around the call) into the
/// shared lock-free [`Histogram`], turning the run's mean into a full
/// distribution. The recording branch sits outside the measured
/// rendezvous; its cost is two clock reads per operation — under 3 % of
/// the cheapest handoff (DESIGN §4.14) — and zero when `hist` is `None`
/// (the mean-only entry point passes `None`).
pub fn handoff_ns_per_transfer_recording(
    channel: Arc<dyn SyncChannel<u64>>,
    shape: HandoffShape,
    transfers: usize,
    hist: Option<Arc<Histogram>>,
) -> f64 {
    let put_tickets = Arc::new(AtomicUsize::new(0));
    let take_tickets = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(shape.producers + shape.consumers + 1));

    let mut handles = Vec::with_capacity(shape.producers + shape.consumers);
    for _ in 0..shape.producers {
        let channel = Arc::clone(&channel);
        let tickets = Arc::clone(&put_tickets);
        let barrier = Arc::clone(&barrier);
        let hist = hist.clone();
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            loop {
                let i = tickets.fetch_add(1, Ordering::Relaxed);
                if i >= transfers {
                    break;
                }
                match &hist {
                    None => channel.put(i as u64),
                    Some(h) => {
                        let t0 = Instant::now();
                        channel.put(i as u64);
                        h.record(t0.elapsed().as_nanos() as u64);
                    }
                }
            }
        }));
    }
    for _ in 0..shape.consumers {
        let channel = Arc::clone(&channel);
        let tickets = Arc::clone(&take_tickets);
        let barrier = Arc::clone(&barrier);
        let hist = hist.clone();
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut check: u64 = 0;
            loop {
                let i = tickets.fetch_add(1, Ordering::Relaxed);
                if i >= transfers {
                    break;
                }
                let v = match &hist {
                    None => channel.take(),
                    Some(h) => {
                        let t0 = Instant::now();
                        let v = channel.take();
                        h.record(t0.elapsed().as_nanos() as u64);
                        v
                    }
                };
                check = check.wrapping_add(v);
            }
            std::hint::black_box(check);
        }));
    }

    // Start the clock *before* releasing the barrier: on an oversubscribed
    // machine the main thread may not be rescheduled until after the
    // workers finish, which would otherwise truncate the measurement. The
    // barrier-release cost this includes is negligible against the
    // thousands of transfers measured.
    let start = Instant::now();
    barrier.wait();
    for h in handles {
        h.join().expect("benchmark thread panicked");
    }
    let elapsed = start.elapsed();
    elapsed.as_nanos() as f64 / transfers as f64
}

/// Like [`handoff_ns_per_transfer`], but every thread moves items in
/// batches of up to `batch` through `send_batch`/`recv_batch`. Tickets are
/// claimed in whole chunks so the produced and consumed totals both equal
/// exactly `transfers` — `send_batch` blocks until its chunk is delivered,
/// `recv_batch` blocks for the first item of each chunk — and no thread is
/// stranded at the end. Returns nanoseconds per transfer (per item, not
/// per batch).
pub fn batched_handoff_ns_per_transfer(
    channel: Arc<dyn SyncChannel<u64>>,
    shape: HandoffShape,
    transfers: usize,
    batch: usize,
) -> f64 {
    assert!(batch >= 1);
    let put_tickets = Arc::new(AtomicUsize::new(0));
    let take_tickets = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(shape.producers + shape.consumers + 1));

    let mut handles = Vec::with_capacity(shape.producers + shape.consumers);
    for _ in 0..shape.producers {
        let channel = Arc::clone(&channel);
        let tickets = Arc::clone(&put_tickets);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut items = Vec::with_capacity(batch);
            loop {
                let first = tickets.fetch_add(batch, Ordering::Relaxed);
                if first >= transfers {
                    break;
                }
                let last = (first + batch).min(transfers);
                items.extend((first..last).map(|i| i as u64));
                channel.send_batch(&mut items);
                debug_assert!(items.is_empty());
            }
        }));
    }
    for _ in 0..shape.consumers {
        let channel = Arc::clone(&channel);
        let tickets = Arc::clone(&take_tickets);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut out = Vec::with_capacity(batch);
            let mut check: u64 = 0;
            loop {
                let first = tickets.fetch_add(batch, Ordering::Relaxed);
                if first >= transfers {
                    break;
                }
                let want = (first + batch).min(transfers) - first;
                let mut got = 0;
                while got < want {
                    got += channel.recv_batch(&mut out, want - got);
                }
                for v in out.drain(..) {
                    check = check.wrapping_add(v);
                }
            }
            std::hint::black_box(check);
        }));
    }

    let start = Instant::now();
    barrier.wait();
    for h in handles {
        h.join().expect("benchmark thread panicked");
    }
    let elapsed = start.elapsed();
    elapsed.as_nanos() as f64 / transfers as f64
}

/// Mixed buffered + synchronous workload on a [`TransferQueue`]: every
/// `sync_every`-th ticket rendezvouses through `transfer` (linked path)
/// while the rest ride the ring via `put`. A small bounded ring fills, so
/// the ring-full → waiter fallback executes alongside rendezvous traffic;
/// an unbounded queue overflows to the list whatever is put while a
/// transfer is linked. Consumers drain everything with `take`. Returns
/// nanoseconds per transfer.
pub fn mixed_handoff_ns_per_transfer(
    queue: Arc<TransferQueue<u64>>,
    shape: HandoffShape,
    transfers: usize,
    sync_every: usize,
) -> f64 {
    assert!(sync_every >= 1);
    let put_tickets = Arc::new(AtomicUsize::new(0));
    let take_tickets = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(shape.producers + shape.consumers + 1));

    let mut handles = Vec::with_capacity(shape.producers + shape.consumers);
    for _ in 0..shape.producers {
        let queue = Arc::clone(&queue);
        let tickets = Arc::clone(&put_tickets);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            loop {
                let i = tickets.fetch_add(1, Ordering::Relaxed);
                if i >= transfers {
                    break;
                }
                if i.is_multiple_of(sync_every) {
                    queue.transfer(i as u64);
                } else {
                    queue.put(i as u64);
                }
            }
        }));
    }
    for _ in 0..shape.consumers {
        let queue = Arc::clone(&queue);
        let tickets = Arc::clone(&take_tickets);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut check: u64 = 0;
            loop {
                let i = tickets.fetch_add(1, Ordering::Relaxed);
                if i >= transfers {
                    break;
                }
                check = check.wrapping_add(queue.take());
            }
            std::hint::black_box(check);
        }));
    }

    let start = Instant::now();
    barrier.wait();
    for h in handles {
        h.join().expect("benchmark thread panicked");
    }
    let elapsed = start.elapsed();
    elapsed.as_nanos() as f64 / transfers as f64
}

/// Runs the Figure 6 workload: `submitters` threads submit `tasks` trivial
/// tasks to a cached thread pool whose handoff channel is under test.
/// Returns nanoseconds per task.
pub fn executor_ns_per_task(
    channel: Arc<dyn TimedSyncChannel<Job>>,
    submitters: usize,
    tasks: usize,
) -> f64 {
    let pool = ThreadPool::new(
        channel,
        PoolConfig {
            core_pool_size: 0,
            max_pool_size: usize::MAX,
            keep_alive: std::time::Duration::from_millis(200),
        },
    );
    let tickets = Arc::new(AtomicUsize::new(0));
    let executed = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(submitters + 1));

    let mut handles = Vec::with_capacity(submitters);
    for _ in 0..submitters {
        let pool = pool.clone();
        let tickets = Arc::clone(&tickets);
        let executed = Arc::clone(&executed);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            loop {
                let i = tickets.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                let executed = Arc::clone(&executed);
                pool.execute(move || {
                    executed.fetch_add(1, Ordering::Relaxed);
                })
                .expect("pool rejected task");
            }
        }));
    }

    let start = Instant::now();
    barrier.wait();
    for h in handles {
        h.join().expect("submitter panicked");
    }
    // Wait for the tail of in-flight tasks.
    while executed.load(Ordering::Relaxed) < tasks {
        std::thread::yield_now();
    }
    let elapsed = start.elapsed();
    pool.shutdown();
    pool.join();
    assert_eq!(executed.load(Ordering::Relaxed), tasks);
    elapsed.as_nanos() as f64 / tasks as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::{make_blocking, make_timed_job, Algo};

    #[test]
    fn handoff_measurement_completes_for_pairs() {
        let ns = handoff_ns_per_transfer(
            make_blocking(Algo::NewUnfair),
            HandoffShape::pairs(2),
            2_000,
        );
        assert!(ns > 0.0);
    }

    #[test]
    fn handoff_measurement_completes_fan_out_and_in() {
        for shape in [HandoffShape::fan_out(3), HandoffShape::fan_in(3)] {
            let ns = handoff_ns_per_transfer(make_blocking(Algo::NewFair), shape, 1_500);
            assert!(ns > 0.0);
        }
    }

    #[test]
    fn recording_handoff_captures_every_operation() {
        let hist = Arc::new(Histogram::new());
        let transfers = 1_000;
        let ns = handoff_ns_per_transfer_recording(
            make_blocking(Algo::NewFair),
            HandoffShape::pairs(2),
            transfers,
            Some(Arc::clone(&hist)),
        );
        assert!(ns > 0.0);
        // One span per put plus one per take.
        assert_eq!(hist.count(), 2 * transfers as u64);
        assert!(hist.summary().unwrap().is_monotone());
    }

    #[test]
    fn handoff_works_for_every_algorithm() {
        for &algo in crate::BLOCKING_ALGOS {
            let ns = handoff_ns_per_transfer(make_blocking(algo), HandoffShape::pairs(2), 500);
            assert!(ns > 0.0, "algo {}", algo.name());
        }
    }

    #[test]
    fn batched_handoff_completes_bounded_and_unbounded() {
        for capacity in [None, Some(8)] {
            let channel: Arc<dyn SyncChannel<u64>> = match capacity {
                Some(c) => Arc::new(synq_transfer::BufferedChannel::bounded(c)),
                None => Arc::new(synq_transfer::BufferedChannel::unbounded()),
            };
            let ns = batched_handoff_ns_per_transfer(channel, HandoffShape::pairs(2), 2_000, 8);
            assert!(ns > 0.0, "capacity {capacity:?}");
        }
    }

    #[test]
    fn batched_handoff_handles_ragged_tail() {
        // transfers not a multiple of batch: the last chunk is short.
        let channel: Arc<dyn SyncChannel<u64>> =
            Arc::new(synq_transfer::BufferedChannel::bounded(4));
        let ns = batched_handoff_ns_per_transfer(channel, HandoffShape::pairs(1), 1_003, 8);
        assert!(ns > 0.0);
    }

    #[test]
    fn mixed_handoff_completes_on_tiny_ring() {
        let queue = Arc::new(TransferQueue::bounded(2));
        let ns = mixed_handoff_ns_per_transfer(queue, HandoffShape::pairs(2), 1_500, 3);
        assert!(ns > 0.0);
    }

    #[test]
    fn executor_measurement_completes() {
        let ch = make_timed_job(Algo::NewUnfair).unwrap();
        let ns = executor_ns_per_task(ch, 2, 500);
        assert!(ns > 0.0);
    }
}
