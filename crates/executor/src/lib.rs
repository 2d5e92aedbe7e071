//! A cached thread-pool executor built around a synchronous handoff
//! channel — the Rust analogue of `java.util.concurrent.ThreadPoolExecutor`
//! with a `SynchronousQueue` work queue, "which in turn forms the backbone
//! of many Java-based server applications" (paper §4).
//!
//! The executor exercises the full rich interface of the underlying
//! channel, exactly as the paper describes:
//!
//! > "Producers deliver tasks to waiting worker threads if immediately
//! > available, but otherwise create new worker threads. Conversely, worker
//! > threads terminate themselves if no work appears within a given
//! > keep-alive period (or if the pool is shut down via an interrupt)."
//!
//! Concretely: [`ThreadPool::execute`] first `offer`s the task (succeeds
//! only if a worker is already parked in `poll`); on failure it spawns a
//! new worker up to `max_pool_size`. Idle workers block in a *timed* take
//! with the keep-alive patience and retire on timeout;
//! [`ThreadPool::shutdown`] interrupts them through a [`CancelToken`].
//! This is the workload of **Figure 6**, with the channel pluggable so
//! every algorithm from the evaluation can sit at the pool's core.
//!
//! [`ThreadPool::submit`]'s [`TaskHandle`] is woken the way a queue's
//! waiter is: a joiner, blocking or async, registers a `Waker` in the
//! task's [`WaiterCell`] under the result lock, and the completing worker
//! takes and wakes it. A blocking join parks at once on its own
//! [`Parker`], so a worker whose joiner has not parked makes no wake
//! syscall.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use synq::{CancelToken, Deadline, TimedSyncChannel, TransferOutcome};
use synq_primitives::{CachePadded, Parker, WaiterCell};

/// A unit of work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Error returned when the pool cannot accept a task.
pub enum ExecuteError {
    /// The pool has been shut down.
    Shutdown(Job),
    /// No worker was free and `max_pool_size` was reached.
    Saturated(Job),
}

impl std::fmt::Debug for ExecuteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecuteError::Shutdown(_) => f.pad("Shutdown(..)"),
            ExecuteError::Saturated(_) => f.pad("Saturated(..)"),
        }
    }
}

impl std::fmt::Display for ExecuteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecuteError::Shutdown(_) => f.pad("executor is shut down"),
            ExecuteError::Saturated(_) => f.pad("executor is saturated"),
        }
    }
}

impl std::error::Error for ExecuteError {}

impl ExecuteError {
    /// Recovers the rejected task (so callers can retry it elsewhere —
    /// Java's `RejectedExecutionHandler` pattern).
    pub fn into_job(self) -> Job {
        match self {
            ExecuteError::Shutdown(job) | ExecuteError::Saturated(job) => job,
        }
    }
}

/// Configuration for a [`ThreadPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Workers that never retire on keep-alive (Java's `corePoolSize`).
    /// The pool grows lazily; the first `core_pool_size` workers spawned
    /// simply ignore the keep-alive timeout.
    pub core_pool_size: usize,
    /// Upper bound on concurrently live workers.
    pub max_pool_size: usize,
    /// How long an idle non-core worker waits for work before retiring.
    pub keep_alive: Duration,
}

impl Default for PoolConfig {
    /// Java's `newCachedThreadPool`: no core workers, unbounded growth,
    /// 60 s keep-alive.
    fn default() -> Self {
        PoolConfig {
            core_pool_size: 0,
            max_pool_size: usize::MAX,
            keep_alive: Duration::from_secs(60),
        }
    }
}

struct PoolInner {
    channel: Arc<dyn TimedSyncChannel<Job>>,
    config: PoolConfig,
    /// Padded: bumped by every spawn/retire while `completed` (below) is
    /// bumped by every task — unpadded they'd share a line and every task
    /// completion would invalidate the spawn path's cached count.
    worker_count: CachePadded<AtomicUsize>,
    largest_pool_size: AtomicUsize,
    completed: CachePadded<AtomicUsize>,
    shutdown: AtomicBool,
    interrupt: CancelToken,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

const _: () = assert!(std::mem::align_of::<PoolInner>() >= 128);

/// The result side of [`ThreadPool::submit`]: a one-shot join handle.
///
/// [`TaskHandle::join`] blocks until the task has run and yields its return
/// value, or `Err(TaskPanicked)` if the task panicked (the worker survives
/// a panicking task, as in Java where the `Future` captures the exception).
///
/// The handle is also a [`std::future::Future`] resolving to the same
/// `Result`, so an async task can `handle.await` a pool-executed job. Both
/// joins wait the same way: the completing worker wakes the registered
/// waker through the same [`WaiterCell`] mailbox the synchronous
/// structures use.
pub struct TaskHandle<R> {
    shared: Arc<TaskShared<R>>,
}

struct TaskShared<R> {
    slot: Mutex<Option<std::thread::Result<R>>>,
    /// The joiner's waker: a polling task's, or a blocking joiner's
    /// parker's. Registered under `slot`'s lock (see the `Future` impl).
    waker: WaiterCell,
}

/// The submitted task panicked; the payload is the panic value.
pub struct TaskPanicked(pub Box<dyn std::any::Any + Send>);

impl std::fmt::Debug for TaskPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("TaskPanicked(..)")
    }
}

impl<R> TaskHandle<R> {
    /// Blocks until the task completes; returns its result.
    pub fn join(self) -> Result<R, TaskPanicked> {
        let mut parker = None;
        loop {
            let mut slot = self.shared.slot.lock().unwrap();
            if let Some(result) = slot.take() {
                return result.map_err(TaskPanicked);
            }
            // Registered under the lock, as in the `Future` impl.
            let parker = parker.get_or_insert_with(Parker::new);
            self.shared.waker.register(parker.waker());
            drop(slot);
            parker.park();
        }
    }

    /// Non-blocking probe: `Some` once the task has finished.
    pub fn try_join(&self) -> Option<Result<R, TaskPanicked>> {
        self.shared
            .slot
            .lock()
            .unwrap()
            .take()
            .map(|r| r.map_err(TaskPanicked))
    }

    /// True once the task has completed (result may already be taken).
    pub fn is_finished(&self) -> bool {
        // A taken slot means join/try_join already returned: finished.
        self.shared.slot.lock().unwrap().is_some() || Arc::strong_count(&self.shared) == 1
    }
}

impl<R> std::future::Future for TaskHandle<R> {
    type Output = Result<R, TaskPanicked>;

    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        let mut slot = self.shared.slot.lock().unwrap();
        if let Some(result) = slot.take() {
            return std::task::Poll::Ready(result.map_err(TaskPanicked));
        }
        // Register while holding the lock: the completing worker fills the
        // slot under this same lock before it wakes, so either it already
        // finished (seen above) or our waker is in place for its wake —
        // a wakeup can never fall between the check and the registration.
        self.shared.waker.register(cx.waker().clone());
        std::task::Poll::Pending
    }
}

/// The executor. Cheap to clone (all clones share the pool).
///
/// # Examples
///
/// ```
/// use synq_executor::{ThreadPool, PoolConfig};
/// use synq::SynchronousQueue;
/// use std::sync::Arc;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(Arc::new(SynchronousQueue::new()), PoolConfig::default());
/// let counter = Arc::new(AtomicUsize::new(0));
/// for _ in 0..10 {
///     let c = Arc::clone(&counter);
///     pool.execute(move || { c.fetch_add(1, Ordering::SeqCst); }).unwrap();
/// }
/// pool.shutdown();
/// pool.join();
/// assert_eq!(counter.load(Ordering::SeqCst), 10);
/// ```
#[derive(Clone)]
pub struct ThreadPool {
    inner: Arc<PoolInner>,
}

impl ThreadPool {
    /// Creates a pool handing work off through `channel`.
    pub fn new(channel: Arc<dyn TimedSyncChannel<Job>>, config: PoolConfig) -> Self {
        ThreadPool {
            inner: Arc::new(PoolInner {
                channel,
                config,
                worker_count: CachePadded::new(AtomicUsize::new(0)),
                largest_pool_size: AtomicUsize::new(0),
                completed: CachePadded::new(AtomicUsize::new(0)),
                shutdown: AtomicBool::new(false),
                interrupt: CancelToken::new(),
                handles: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Java's `newCachedThreadPool` over the given channel.
    pub fn cached(channel: Arc<dyn TimedSyncChannel<Job>>) -> Self {
        Self::new(channel, PoolConfig::default())
    }

    /// Submits a task: hand it to a waiting worker if one is parked in the
    /// channel, otherwise spawn a new worker (up to `max_pool_size`).
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), ExecuteError> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(ExecuteError::Shutdown(Box::new(job)));
        }
        // Fast path: a worker is already waiting in `poll`.
        let job: Job = Box::new(job);
        let job = match inner.channel.offer(job) {
            Ok(()) => return Ok(()),
            Err(job) => job,
        };
        // Slow path: grow the pool. Workers claiming one of the first
        // `core_pool_size` slots become permanent (Java's core workers).
        let slot = inner
            .worker_count
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < inner.config.max_pool_size).then_some(n + 1)
            });
        let slot = match slot {
            Ok(prev) => prev,
            Err(_) => return Err(ExecuteError::Saturated(job)),
        };
        let core = slot < inner.config.core_pool_size;
        inner
            .largest_pool_size
            .fetch_max(slot + 1, Ordering::AcqRel);
        let pool = Arc::clone(inner);
        let handle = std::thread::spawn(move || worker_loop(pool, Some(job), core));
        inner.handles.lock().unwrap().push(handle);
        Ok(())
    }

    /// Spawns the configured core workers up front, so work injected
    /// through the channel *directly* (e.g. async producers rendezvousing
    /// on the pool's channel instead of calling [`ThreadPool::execute`])
    /// finds takers parked in `take` immediately. Without this, a pool
    /// used purely as a set of channel consumers would never grow —
    /// growth normally happens on the `execute` slow path. Idempotent:
    /// workers already counted (spawned or live) are not duplicated.
    /// Returns the number of workers spawned by this call.
    pub fn prestart_core_workers(&self) -> usize {
        let inner = &self.inner;
        let mut spawned = 0;
        loop {
            if inner.shutdown.load(Ordering::Acquire) {
                break;
            }
            let limit = inner.config.core_pool_size.min(inner.config.max_pool_size);
            let slot = inner
                .worker_count
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    (n < limit).then_some(n + 1)
                });
            let Ok(prev) = slot else { break };
            inner
                .largest_pool_size
                .fetch_max(prev + 1, Ordering::AcqRel);
            let pool = Arc::clone(inner);
            // Every prestarted slot is below `core_pool_size`: a core
            // worker, waiting with `Deadline::Never`.
            let handle = std::thread::spawn(move || worker_loop(pool, None, true));
            inner.handles.lock().unwrap().push(handle);
            spawned += 1;
        }
        spawned
    }

    /// Stops accepting tasks and interrupts idle workers. Tasks already
    /// running (or already handed to a worker) complete normally.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.interrupt.cancel();
    }

    /// Waits for every worker to retire. Call after [`ThreadPool::shutdown`].
    pub fn join(&self) {
        loop {
            let handle = self.inner.handles.lock().unwrap().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }

    /// Submits a task whose result can be collected through the returned
    /// [`TaskHandle`] — the analogue of `ExecutorService.submit` returning a
    /// `Future`. A panic in the task is captured into the handle; the
    /// worker thread survives.
    pub fn submit<R, F>(&self, f: F) -> Result<TaskHandle<R>, ExecuteError>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let shared = Arc::new(TaskShared {
            slot: Mutex::new(None),
            waker: WaiterCell::new(),
        });
        let shared2 = Arc::clone(&shared);
        self.execute(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            *shared2.slot.lock().unwrap() = Some(result);
            // After the slot is visibly filled: wake the joiner, if one
            // registered (see the Future impl for the ordering).
            shared2.waker.wake();
        })?;
        Ok(TaskHandle { shared })
    }

    /// Number of tasks fully executed so far.
    pub fn completed_tasks(&self) -> usize {
        self.inner.completed.load(Ordering::Acquire)
    }

    /// High-water mark of concurrently live workers (Java's
    /// `getLargestPoolSize`).
    pub fn largest_pool_size(&self) -> usize {
        self.inner.largest_pool_size.load(Ordering::Acquire)
    }

    /// Number of currently live workers.
    pub fn worker_count(&self) -> usize {
        self.inner.worker_count.load(Ordering::Acquire)
    }
}

fn worker_loop(pool: Arc<PoolInner>, first_job: Option<Job>, core: bool) {
    if let Some(job) = first_job {
        job();
        pool.completed.fetch_add(1, Ordering::AcqRel);
    }
    loop {
        // Core workers wait indefinitely (only shutdown releases them);
        // cached workers retire after the keep-alive lapses.
        let deadline = if core {
            Deadline::Never
        } else {
            Deadline::after(pool.config.keep_alive)
        };
        match pool.channel.take_with(deadline, Some(&pool.interrupt)) {
            TransferOutcome::Transferred(Some(job)) => {
                job();
                pool.completed.fetch_add(1, Ordering::AcqRel);
            }
            // Keep-alive elapsed or the pool was shut down: retire.
            _ => break,
        }
    }
    pool.worker_count.fetch_sub(1, Ordering::AcqRel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use synq::SynchronousQueue;
    use synq_baselines::Java5SQ;

    fn run_pool_with(channel: Arc<dyn TimedSyncChannel<Job>>) {
        let pool = ThreadPool::cached(channel);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
        assert_eq!(pool.completed_tasks(), 50);
        assert_eq!(pool.worker_count(), 0);
    }

    #[test]
    fn executes_all_tasks_new_unfair() {
        run_pool_with(Arc::new(SynchronousQueue::unfair()));
    }

    #[test]
    fn executes_all_tasks_new_fair() {
        run_pool_with(Arc::new(SynchronousQueue::fair()));
    }

    #[test]
    fn executes_all_tasks_java5_fair() {
        run_pool_with(Arc::new(Java5SQ::fair()));
    }

    #[test]
    fn executes_all_tasks_java5_unfair() {
        run_pool_with(Arc::new(Java5SQ::unfair()));
    }

    #[test]
    fn workers_are_reused_when_idle() {
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        // Run tasks one at a time; workers should be reused via the offer
        // fast path rather than spawning one thread per task.
        for _ in 0..20 {
            let done = Arc::new(AtomicBool::new(false));
            let d = Arc::clone(&done);
            pool.execute(move || d.store(true, Ordering::SeqCst))
                .unwrap();
            while !done.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
        assert!(
            pool.worker_count() <= 3,
            "spawned {} workers for sequential tasks",
            pool.worker_count()
        );
        pool.shutdown();
        pool.join();
    }

    #[test]
    fn prestarted_core_workers_consume_direct_channel_puts() {
        let channel = Arc::new(SynchronousQueue::<Job>::fair());
        let pool = ThreadPool::new(
            Arc::clone(&channel) as Arc<dyn TimedSyncChannel<Job>>,
            PoolConfig {
                core_pool_size: 2,
                max_pool_size: 8,
                keep_alive: Duration::from_secs(60),
            },
        );
        assert_eq!(pool.prestart_core_workers(), 2);
        assert_eq!(pool.worker_count(), 2);
        // Prestarting ran no job; idempotent re-invocation spawns nothing.
        assert_eq!(pool.completed_tasks(), 0);
        assert_eq!(pool.prestart_core_workers(), 0);
        // Jobs injected straight through the channel — never via
        // `execute` — are taken by the prestarted workers.
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let d = Arc::clone(&done);
            channel.put(Box::new(move || {
                d.fetch_add(1, Ordering::SeqCst);
            }) as Job);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while done.load(Ordering::SeqCst) < 10 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(done.load(Ordering::SeqCst), 10);
        assert_eq!(pool.completed_tasks(), 10);
        assert_eq!(pool.worker_count(), 2, "no growth without execute");
        pool.shutdown();
        pool.join();
        assert_eq!(pool.worker_count(), 0);
    }

    #[test]
    fn prestart_after_shutdown_spawns_nothing() {
        let pool = ThreadPool::new(
            Arc::new(SynchronousQueue::<Job>::fair()),
            PoolConfig {
                core_pool_size: 4,
                max_pool_size: 8,
                keep_alive: Duration::from_secs(60),
            },
        );
        pool.shutdown();
        assert_eq!(pool.prestart_core_workers(), 0);
        pool.join();
    }

    #[test]
    fn keep_alive_retires_idle_workers() {
        let pool = ThreadPool::new(
            Arc::new(SynchronousQueue::<Job>::unfair()),
            PoolConfig {
                core_pool_size: 0,
                max_pool_size: usize::MAX,
                keep_alive: Duration::from_millis(30),
            },
        );
        pool.execute(|| {}).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.worker_count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.worker_count(), 0, "idle worker did not retire");
        pool.join();
    }

    #[test]
    fn rejected_job_is_recoverable() {
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        pool.shutdown();
        let ran = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&ran);
        let err = pool
            .execute(move || r.store(true, Ordering::SeqCst))
            .unwrap_err();
        // The caller can run the recovered job itself.
        (err.into_job())();
        assert!(ran.load(Ordering::SeqCst));
        pool.join();
    }

    #[test]
    fn shutdown_rejects_new_tasks() {
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        pool.shutdown();
        match pool.execute(|| {}) {
            Err(ExecuteError::Shutdown(_)) => {}
            other => panic!("expected Shutdown, got {other:?}"),
        }
        pool.join();
    }

    #[test]
    fn saturation_respects_max_pool_size() {
        let pool = ThreadPool::new(
            Arc::new(SynchronousQueue::<Job>::unfair()),
            PoolConfig {
                core_pool_size: 0,
                max_pool_size: 1,
                keep_alive: Duration::from_secs(60),
            },
        );
        // First task occupies the single worker slot.
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        pool.execute(move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        })
        .unwrap();
        // Second task: no waiting worker, and the pool cannot grow.
        match pool.execute(|| {}) {
            Err(ExecuteError::Saturated(_)) => {}
            other => panic!("expected Saturated, got {other:?}"),
        }
        gate.store(true, Ordering::SeqCst);
        pool.shutdown();
        pool.join();
    }

    #[test]
    fn shutdown_interrupts_parked_workers_quickly() {
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        pool.execute(|| {}).unwrap();
        // The worker parks in take_with(keep_alive=60s). Shutdown must not
        // take anywhere near 60s.
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        pool.shutdown();
        pool.join();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "shutdown took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn parallel_submission_stress() {
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut submitters = Vec::new();
        for _ in 0..4 {
            let pool = pool.clone();
            let counter = Arc::clone(&counter);
            submitters.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let c = Arc::clone(&counter);
                    pool.execute(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                    .unwrap();
                }
            }));
        }
        for s in submitters {
            s.join().unwrap();
        }
        pool.shutdown();
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 400);
    }
}

#[cfg(test)]
mod submit_tests {
    use super::*;
    use synq::SynchronousQueue;

    #[test]
    fn submit_returns_result() {
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        let handle = pool.submit(|| 2 + 2).unwrap();
        assert_eq!(handle.join().unwrap(), 4);
        pool.shutdown();
        pool.join();
    }

    #[test]
    fn submit_captures_panics_and_worker_survives() {
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        let bad = pool.submit(|| -> u32 { panic!("task exploded") }).unwrap();
        assert!(bad.join().is_err(), "panic must surface as TaskPanicked");
        // The pool keeps working after a panicking task.
        let ok = pool.submit(|| "still alive").unwrap();
        assert_eq!(ok.join().unwrap(), "still alive");
        pool.shutdown();
        pool.join();
    }

    #[test]
    fn many_submits_collect_in_any_order() {
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        let handles: Vec<_> = (0..20u64)
            .map(|i| pool.submit(move || i * i).unwrap())
            .collect();
        let sum: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(sum, (0..20u64).map(|i| i * i).sum::<u64>());
        pool.shutdown();
        pool.join();
    }

    /// Counts its drops; `id` is checked by whoever receives it.
    struct Counted {
        id: usize,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_join_racing_its_jobs_completion_returns_the_value_exactly_once() {
        const ROUNDS: usize = 10_000;
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        let drops = Arc::new(AtomicUsize::new(0));
        for id in 0..ROUNDS {
            let d = Arc::clone(&drops);
            let handle = pool
                .submit(move || {
                    // Vary which side arrives first: the joiner parks on
                    // some rounds and finds the result on others.
                    for _ in 0..id % 64 {
                        std::hint::spin_loop();
                    }
                    Counted { id, drops: d }
                })
                .unwrap();
            let got = handle.join().unwrap();
            assert_eq!(got.id, id);
            assert_eq!(drops.load(Ordering::SeqCst), id, "nothing dropped early");
        }
        assert_eq!(drops.load(Ordering::SeqCst), ROUNDS);
        pool.shutdown();
        pool.join();
    }

    #[test]
    fn a_handle_dropped_without_a_join_drops_its_result_exactly_once() {
        const N: usize = 200;
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        let drops = Arc::new(AtomicUsize::new(0));
        for id in 0..N {
            let d = Arc::clone(&drops);
            let handle = pool
                .submit(move || {
                    if id % 2 == 0 {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    Counted { id, drops: d }
                })
                .unwrap();
            // Dropped before or after the job completes, by turns.
            if id % 4 < 2 {
                while !handle.is_finished() {
                    std::thread::yield_now();
                }
            }
            drop(handle);
        }
        pool.shutdown();
        pool.join();
        assert_eq!(drops.load(Ordering::SeqCst), N);
    }

    #[test]
    fn task_handle_is_awaitable() {
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        let handle = pool.submit(|| 6 * 7).unwrap();
        assert_eq!(synq_async::block_on(handle).unwrap(), 42);
        // A panicking task surfaces through await just like through join.
        let bad = pool.submit(|| -> u32 { panic!("boom") }).unwrap();
        assert!(synq_async::block_on(bad).is_err());
        pool.shutdown();
        pool.join();
    }

    #[test]
    fn task_handles_await_concurrently() {
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        let handles: Vec<_> = (0..16u64)
            .map(|i| {
                pool.submit(move || {
                    std::thread::sleep(Duration::from_millis(2));
                    i * i
                })
                .unwrap()
            })
            .collect();
        let sum: u64 = synq_async::block_on(async {
            let mut sum = 0;
            for h in handles {
                sum += h.await.unwrap();
            }
            sum
        });
        assert_eq!(sum, (0..16u64).map(|i| i * i).sum::<u64>());
        pool.shutdown();
        pool.join();
    }

    #[test]
    fn execute_error_is_std_error() {
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        pool.shutdown();
        let err = pool.execute(|| {}).unwrap_err();
        // Must compose with the std error ecosystem.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert_eq!(boxed.to_string(), "executor is shut down");
        assert!(boxed.source().is_none());
        pool.join();
    }

    #[test]
    fn core_workers_survive_keep_alive() {
        let pool = ThreadPool::new(
            Arc::new(SynchronousQueue::<Job>::unfair()),
            PoolConfig {
                core_pool_size: 1,
                max_pool_size: 8,
                keep_alive: Duration::from_millis(20),
            },
        );
        pool.execute(|| {}).unwrap();
        // Well past the keep-alive, the core worker must still be alive.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(pool.worker_count(), 1, "core worker retired");
        // And still serving.
        let h = pool.submit(|| 7u8).unwrap();
        assert_eq!(h.join().unwrap(), 7);
        pool.shutdown();
        pool.join();
        assert_eq!(pool.worker_count(), 0);
    }

    #[test]
    fn largest_pool_size_tracks_high_water() {
        use std::sync::atomic::AtomicBool;
        let pool = ThreadPool::cached(Arc::new(SynchronousQueue::<Job>::unfair()));
        assert_eq!(pool.largest_pool_size(), 0);
        let gate = Arc::new(AtomicBool::new(false));
        // Two long-running tasks force two workers.
        for _ in 0..2 {
            let g = Arc::clone(&gate);
            pool.execute(move || {
                while !g.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            })
            .unwrap();
        }
        assert!(pool.largest_pool_size() >= 2);
        gate.store(true, Ordering::SeqCst);
        pool.shutdown();
        pool.join();
        assert!(
            pool.largest_pool_size() >= 2,
            "high-water mark must persist"
        );
    }
}
