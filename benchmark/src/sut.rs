//! The system under test, as the seven workloads see it.
//!
//! Every call the workloads make into the workspace crates is in this file,
//! so the API surface later PRs must keep is readable in one place (the
//! layer probes, which reach deeper, are in `probes.rs`). The end-to-end
//! workloads use only: `new`, `with_spin`, `bounded`, `put`, `take`,
//! `transfer`, `send`, `recv`, `send_timed`, `submit`, `join`, plus pool
//! construction/shutdown and the `block_on`/`block_on_all` drivers.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use synq::{SpinPolicy, SyncChannel, SyncDualQueue, SyncDualStack, SynchronousQueue};
use synq_async::AsyncSyncQueue;
use synq_executor::{ExecuteError, PoolConfig, TaskHandle, ThreadPool};
use synq_reclaim::{Epoch, Reclaimer};
use synq_transfer::TransferQueue;

/// The payload every queue workload moves.
#[derive(Clone, Copy, Debug)]
pub struct Item {
    /// Position in its producer's stream; `STOP` ends the consumer.
    pub seq: u64,
    /// `seq ^ mask` with the mask drawn from the seed: a consumer that sees
    /// anything else received a corrupted or foreign item.
    pub check: u64,
    /// When the producer's call began (ns on the run clock); 0 unless this
    /// operation is sampled by a traced run.
    pub stamp_ns: u64,
}

impl Item {
    pub const STOP: Item = Item {
        seq: u64::MAX,
        check: 0,
        stamp_ns: 0,
    };
}

/// True in the traced build (`--features stats`), where the workspace's
/// probe sites count.
pub const COUNTERS_ON: bool = synq_obs::ENABLED;

/// Every non-zero `synq-obs` counter, by its dotted name. Metrics look
/// counters up by name, so a renamed or removed probe drops one metric
/// instead of breaking this build.
pub fn counters() -> Vec<(&'static str, u64)> {
    synq_obs::StatsSnapshot::take().nonzero()
}

/// Whether the library defines a counter called `name` at all (one that
/// never moved is defined but not listed by `counters`).
pub fn counter_exists(name: &str) -> bool {
    synq_obs::Probe::ALL.iter().any(|p| p.name() == name)
}

/// Garbage high-water mark of the epoch reclaimer since the last reset.
pub fn reclaim_peak_pending() -> usize {
    Epoch::peak_pending()
}

pub fn reclaim_reset_peak() {
    Epoch::reset_peak();
}

/// The library caches the CPU count it sees on first use and spins only if
/// that is above one. Ask from the unpinned main thread, before any pinned
/// thread can make it cache 1.
pub fn prime_cpu_count() {
    drop(SyncDualQueue::<u8>::new());
}

/// A blocking two-sided channel: what the four producer/consumer workloads
/// have in common.
pub trait Handoff: Send + Sync + 'static {
    fn put(&self, item: Item);
    fn take(&self) -> Item;
}

/// `handoff_fair`: the fair dual queue at its default (adaptive) policy.
pub struct FairQueue(SyncDualQueue<Item>);

impl FairQueue {
    pub fn new() -> Self {
        FairQueue(SyncDualQueue::new())
    }
}

impl Handoff for FairQueue {
    #[inline]
    fn put(&self, item: Item) {
        SyncChannel::put(&self.0, item)
    }
    #[inline]
    fn take(&self) -> Item {
        SyncChannel::take(&self.0)
    }
}

/// Spin budget of `handoff_unfair_spin`: long enough that nobody parks.
pub const UNFAIR_SPINS: u32 = 100_000;

/// `handoff_unfair_spin`: the unfair dual stack, spinning instead of parking.
pub struct SpinStack(SyncDualStack<Item>);

impl SpinStack {
    pub fn new() -> Self {
        SpinStack(SyncDualStack::with_spin(SpinPolicy::fixed(UNFAIR_SPINS)))
    }
}

impl Handoff for SpinStack {
    #[inline]
    fn put(&self, item: Item) {
        SyncChannel::put(&self.0, item)
    }
    #[inline]
    fn take(&self) -> Item {
        SyncChannel::take(&self.0)
    }
}

/// Ring capacity of `buffered_ring`.
pub const RING_CAPACITY: usize = 1024;
/// Items the producer of a buffered workload puts before the consumer takes
/// them: half a ring's worth.
pub const BURST: u64 = RING_CAPACITY as u64 / 2;

/// A counter on a cache line of its own.
#[repr(align(128))]
#[derive(Default)]
struct Padded(AtomicU64);

/// The two buffered workloads run in turns: the producer puts a burst, then
/// the consumer takes it. The turns are the benchmark's (counters beside the
/// queue), not the library's.
///
/// Free-running, producer and consumer are about equally fast and chase each
/// other through the queue; how close they run decides how many cache lines
/// they fight over and how often one finds the queue empty or full, and
/// throughput wandered with it: `buffered_ring` between 14M and 38M items/s
/// from one second to the next (ten runs: 22M-40M), `buffered_linked`
/// between 0.92M and 1.26M from run to run. In turns there is one way for
/// the work to interleave, and every item still crosses from one CPU's cache
/// to the other's.
#[derive(Default)]
struct Turns {
    /// Items the producer has handed over (published per burst).
    sent: Padded,
    /// The consumer's own count, so that it knows where a burst begins.
    taking: Padded,
}

impl Turns {
    /// Producer: everything up to item `upto` may be taken. After `STOP`
    /// whatever is queued is the last, short burst.
    fn hand_over(&self, last: Item) {
        let upto = if last.seq == Item::STOP.seq {
            u64::MAX
        } else {
            last.seq + 1
        };
        self.sent.0.store(upto, Ordering::Release);
    }

    /// Consumer, before each take: `Some(n)` when a burst begins at item `n`.
    fn burst_start(&self) -> Option<u64> {
        let n = self.taking.0.load(Ordering::Relaxed);
        self.taking.0.store(n + 1, Ordering::Relaxed);
        n.is_multiple_of(BURST).then_some(n)
    }

    /// Consumer: waits until the burst that begins at item `n` is handed over.
    fn await_burst(&self, n: u64) {
        while self.sent.0.load(Ordering::Acquire) < n + BURST {
            std::hint::spin_loop();
        }
    }
}

fn ends_burst(item: Item) -> bool {
    item.seq == Item::STOP.seq || (item.seq + 1).is_multiple_of(BURST)
}

/// `buffered_ring`: the bounded transfer queue (ring in front). The producer
/// waits for its next turn on a counter the consumer publishes.
pub struct Ring {
    queue: TransferQueue<Item>,
    turns: Turns,
    /// Items the consumer has taken (published per burst).
    taken: Padded,
}

impl Ring {
    pub fn new() -> Self {
        Ring {
            queue: TransferQueue::bounded(RING_CAPACITY),
            turns: Turns::default(),
            taken: Padded::default(),
        }
    }
}

impl Handoff for Ring {
    #[inline]
    fn put(&self, item: Item) {
        self.queue.put(item);
        if ends_burst(item) {
            self.turns.hand_over(item);
            while item.seq != Item::STOP.seq && self.taken.0.load(Ordering::Acquire) <= item.seq {
                std::hint::spin_loop();
            }
        }
    }

    #[inline]
    fn take(&self) -> Item {
        if let Some(n) = self.turns.burst_start() {
            self.taken.0.store(n, Ordering::Release);
            self.turns.await_burst(n);
        }
        self.queue.take()
    }
}

/// `buffered_linked`: the unbounded transfer queue. The last item of every
/// burst goes by synchronous `transfer`, which returns only when the consumer
/// has taken it and everything before it: the producer waits for its next
/// turn in the library (it parks), and the backlog is bounded by the burst.
pub struct Linked {
    queue: TransferQueue<Item>,
    turns: Turns,
}

impl Linked {
    pub fn new() -> Self {
        Linked {
            queue: TransferQueue::new(),
            turns: Turns::default(),
        }
    }
}

impl Handoff for Linked {
    #[inline]
    fn put(&self, item: Item) {
        if ends_burst(item) {
            self.turns.hand_over(item);
            self.queue.transfer(item)
        } else {
            self.queue.put(item)
        }
    }

    #[inline]
    fn take(&self) -> Item {
        if let Some(n) = self.turns.burst_start() {
            self.turns.await_burst(n);
        }
        self.queue.take()
    }
}

/// `coop_async`: the fair queue's async front-end, driven on one thread.
#[derive(Clone)]
pub struct Coop(AsyncSyncQueue<Item>);

impl Coop {
    pub fn new() -> Self {
        Coop(AsyncSyncQueue::new())
    }

    #[inline]
    pub async fn send(&self, item: Item) {
        self.0.send(item).await
    }

    #[inline]
    pub async fn recv(&self) -> Item {
        self.0.recv().await
    }
}

/// Runs `tasks` to completion on the calling thread.
pub fn run_tasks<'a>(tasks: Vec<Pin<Box<dyn Future<Output = ()> + 'a>>>) {
    synq_async::block_on_all(tasks);
}

/// A unit of work for the pools.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// `pool_roundtrip`: a cached pool that may grow to exactly one worker.
pub struct RoundtripPool(ThreadPool);

impl RoundtripPool {
    /// Call from a thread pinned to the worker's CPU: the worker is spawned
    /// by the first `submit` and inherits the caller's affinity mask.
    pub fn new() -> Self {
        RoundtripPool(ThreadPool::new(
            Arc::new(SynchronousQueue::fair()),
            PoolConfig {
                core_pool_size: 0,
                max_pool_size: 1,
                keep_alive: Duration::from_secs(60),
            },
        ))
    }

    /// `submit`; `None` when the pool refused because its one worker had not
    /// yet returned to `take` (the caller retries and counts it).
    #[inline]
    pub fn submit<F: FnOnce() -> u64 + Send + 'static>(&self, f: F) -> Option<Ticket> {
        match self.0.submit(f) {
            Ok(handle) => Some(Ticket(handle)),
            Err(ExecuteError::Saturated(_)) => None,
            Err(ExecuteError::Shutdown(_)) => panic!("pool shut down during the run"),
        }
    }

    pub fn largest_pool_size(&self) -> usize {
        self.0.largest_pool_size()
    }

    pub fn shutdown(&self) {
        self.0.shutdown();
        self.0.join();
    }
}

pub struct Ticket(TaskHandle<u64>);

impl Ticket {
    #[inline]
    pub fn join(self) -> u64 {
        self.0.join().expect("benchmark jobs do not panic")
    }
}

/// Patience on the served route of `dispatch_open`: long enough that a
/// stall of the host (a few ms now and then, 116 ms once in seventy runs
/// here) is a slow request and not a lapsed one.
pub const SERVED_PATIENCE: Duration = Duration::from_secs(1);
/// Patience on the route nobody serves.
pub const UNSERVED_PATIENCE: Duration = Duration::from_micros(500);

/// The future of one `dispatch_open` request; `Unpin`, so a connection slot
/// holds it inline.
pub type SendFut<'a> = synq_async::SendTimedFuture<'a, Job, SyncDualQueue<Job>>;

/// `dispatch_open`: two async rendezvous routes; a prestarted one-worker
/// pool takes jobs from the first, nobody takes from the second.
pub struct Dispatch {
    served: AsyncSyncQueue<Job>,
    unserved: AsyncSyncQueue<Job>,
    pool: ThreadPool,
}

impl Dispatch {
    /// Call from a thread pinned to the worker's CPU: the worker and the
    /// async timer thread started here inherit the caller's affinity mask,
    /// which keeps both off the generator's CPU.
    pub fn new() -> Self {
        let channel: Arc<SyncDualQueue<Job>> = Arc::new(SyncDualQueue::new());
        let pool = ThreadPool::new(
            channel.clone(),
            PoolConfig {
                core_pool_size: 1,
                max_pool_size: 1,
                keep_alive: Duration::from_secs(60),
            },
        );
        pool.prestart_core_workers();
        let unserved = AsyncSyncQueue::new();
        // One lapse now, so that the timer thread exists before the run.
        let lapsed = synq_async::block_on(
            unserved.send_timed(Box::new(|| ()) as Job, Duration::from_micros(50)),
        );
        assert!(lapsed.is_err(), "nobody serves this route");
        Dispatch {
            served: AsyncSyncQueue::from_arc(channel),
            unserved,
            pool,
        }
    }

    /// `send_timed` on the served route or on the route nobody serves, which
    /// must hand the job back when its patience runs out.
    #[inline]
    pub fn send(&self, served: bool, job: Job) -> SendFut<'_> {
        if served {
            self.served.send_timed(job, SERVED_PATIENCE)
        } else {
            self.unserved.send_timed(job, UNSERVED_PATIENCE)
        }
    }

    pub fn shutdown(&self) {
        self.pool.shutdown();
        self.pool.join();
    }
}
