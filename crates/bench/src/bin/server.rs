//! The dispatch-server scenario: thousands of async connections
//! (`synq-async`) dispatching jobs through a rendezvous channel into a
//! prestarted executor pool (`synq-executor`) — the "millions of users"
//! shape the ROADMAP aims at, where service claims live in the tail, not
//! the mean. Four phases run per queue variant:
//!
//! 1. **steady** — every connection issues timed sends with generous
//!    patience; the baseline distribution.
//! 2. **burst** — back-to-back `try_send`s; a request that finds no worker
//!    parked in `poll` (or no ring space, for the buffered variant) is
//!    *dropped*, not queued — `server.burst_drops` counts the loss.
//! 3. **timeout storm** — timed sends with patience far below the drain
//!    rate, so most dispatches lapse; `server.timeouts` counts them.
//! 4. **cancellation wave** — sends wrapped in [`Cancelled`] on one
//!    [`CancelToken`]; mid-phase the token is cancelled and every in-flight
//!    dispatch is dropped, exercising the futures' cancel-safety
//!    retraction at scale; `server.cancels`.
//!
//! Variants: the global-FIFO dual queue (`new-fair`) and the bounded
//! buffered channel (`transfer-bounded64`). A trade between them is *only*
//! visible as a latency distribution — so every series carries a schema
//! rev 3 `latency` block
//! (client-side dispatch spans: from issuing the send to a worker taking
//! the job) and **p999 is the headline number**. Per-phase values are mean
//! ns/request; awaited dispatches (steady/storm/wave completions) feed the
//! histogram, while burst `try_send`s are counted but not timed — an
//! offer's latency is clock noise either way.
//!
//! Emits `target/figures/server.json` and the repo-root
//! `BENCH_server.json` (overridable with `SYNQ_SERVER_PATH`).
//!
//! With `SYNQ_SERVER_ASSERT=1` the binary exits nonzero unless the
//! timeout storm recorded at least one `server.timeouts` event — the CI
//! guard that the storm actually stormed. The counters are bin-local and
//! always on, so the guard holds in stats and non-stats builds alike.
//!
//! A `stats` build also prints, per phase, the async timer thread's
//! wake-ups per second and wakers fired per wake-up (`timer.wakes`,
//! `timer.fired`): how many deadlines one wake-up serves.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synq::{CancelToken, Deadline, PollTransferer, SyncDualQueue, TimedSyncChannel};
use synq_async::{block_on_all, future, Cancelled};
use synq_bench::hist::Histogram;
use synq_bench::report::{counter_deltas_since, write_bench_server, FigureReport};
use synq_bench::{bench_cores, quick_mode};
use synq_executor::{Job, PoolConfig, ThreadPool};
use synq_obs::{probe, Probe, StatsSnapshot};
use synq_transfer::BufferedChannel;

/// Ring capacity for the buffered variant: small enough that bursts
/// overflow it, large enough to absorb more than the rendezvous variants.
const BUFFER_CAP: usize = 64;

/// Scenario scale, derived from quick mode.
struct Config {
    connections: usize,
    drivers: usize,
    workers: usize,
    steady_reqs: usize,
    burst_reqs: usize,
    storm_reqs: usize,
    wave_reqs: usize,
    steady_patience: Duration,
    storm_patience: Duration,
    wave_delay: Duration,
    /// `spin_loop` iterations per job: keeps service time well above the
    /// storm patience so the storm is a storm on any host.
    job_spin: u32,
}

impl Config {
    fn from_env() -> Config {
        if quick_mode() {
            Config {
                connections: 120,
                drivers: 2,
                workers: 2,
                steady_reqs: 6,
                burst_reqs: 12,
                storm_reqs: 4,
                wave_reqs: 4,
                steady_patience: Duration::from_secs(5),
                storm_patience: Duration::from_micros(50),
                wave_delay: Duration::from_millis(5),
                job_spin: 4_000,
            }
        } else {
            Config {
                connections: 2_000,
                drivers: 4,
                workers: bench_cores().max(4),
                steady_reqs: 10,
                burst_reqs: 16,
                storm_reqs: 6,
                wave_reqs: 6,
                steady_patience: Duration::from_secs(10),
                storm_patience: Duration::from_micros(50),
                wave_delay: Duration::from_millis(30),
                job_spin: 4_000,
            }
        }
    }
}

/// The four phases, in sweep order. The report's x-axis levels are the
/// 1-based phase numbers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Steady,
    Burst,
    Storm,
    Wave,
}

impl Phase {
    const ALL: [Phase; 4] = [Phase::Steady, Phase::Burst, Phase::Storm, Phase::Wave];

    fn name(self) -> &'static str {
        match self {
            Phase::Steady => "steady",
            Phase::Burst => "burst",
            Phase::Storm => "storm",
            Phase::Wave => "wave",
        }
    }

    fn requests_per_connection(self, cfg: &Config) -> usize {
        match self {
            Phase::Steady => cfg.steady_reqs,
            Phase::Burst => cfg.burst_reqs,
            Phase::Storm => cfg.storm_reqs,
            Phase::Wave => cfg.wave_reqs,
        }
    }
}

/// Per-variant shared state: the latency histogram plus the always-on
/// scenario counters (bin-local so the CI assert works without stats).
struct Shared {
    hist: Histogram,
    /// Storm-phase spans only, *including* lapsed dispatches — its tail is
    /// how late past the 50 µs patience the timeout path actually fired,
    /// the wakeup-lateness figure the timer wheel is accountable for.
    /// Exported as `server.storm_*` counters (the all-phase `latency`
    /// block keeps its PR 9 meaning).
    storm_hist: Histogram,
    requests: AtomicU64,
    timeouts: AtomicU64,
    cancels: AtomicU64,
    burst_drops: AtomicU64,
    processed: AtomicU64,
    steady_patience: Duration,
    storm_patience: Duration,
    job_spin: u32,
}

impl Shared {
    fn new(cfg: &Config) -> Shared {
        Shared {
            hist: Histogram::new(),
            storm_hist: Histogram::new(),
            requests: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            cancels: AtomicU64::new(0),
            burst_drops: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            steady_patience: cfg.steady_patience,
            storm_patience: cfg.storm_patience,
            job_spin: cfg.job_spin,
        }
    }

    /// A fresh job: fixed spin work plus the processed tally.
    fn make_job(self: &Arc<Shared>) -> Job {
        let shared = Arc::clone(self);
        Box::new(move || {
            for _ in 0..shared.job_spin {
                std::hint::spin_loop();
            }
            shared.processed.fetch_add(1, Ordering::Relaxed);
        })
    }
}

/// One connection's life within one phase: `reqs` sequential requests.
async fn connection_n<Q>(
    phase: Phase,
    queue: Arc<Q>,
    shared: Arc<Shared>,
    token: CancelToken,
    reqs: usize,
) where
    Q: PollTransferer<Job> + TimedSyncChannel<Job> + Send + Sync + 'static,
{
    for i in 0..reqs {
        match phase {
            Phase::Steady => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                probe!(ServerRequests);
                let t0 = Instant::now();
                let send = future::send_timed(
                    &queue,
                    shared.make_job(),
                    Deadline::after(shared.steady_patience),
                );
                match send.await {
                    Ok(()) => shared.hist.record(t0.elapsed().as_nanos() as u64),
                    Err(_) => {
                        shared.timeouts.fetch_add(1, Ordering::Relaxed);
                        probe!(ServerTimeouts);
                    }
                }
            }
            Phase::Burst => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                probe!(ServerRequests);
                if queue.offer(shared.make_job()).is_err() {
                    shared.burst_drops.fetch_add(1, Ordering::Relaxed);
                    probe!(ServerBurstDrops);
                }
                // One scheduler tick per *connection*, after its burst:
                // the offers within a burst land back-to-back (that is
                // what makes it a burst), but without any tick a host with
                // fewer cores than driver threads starves the pool workers
                // for the whole phase and every variant drops 100 % — the
                // phase would measure the scheduler, not the queue.
                if i + 1 == reqs {
                    std::thread::yield_now();
                }
            }
            Phase::Storm => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                probe!(ServerRequests);
                let t0 = Instant::now();
                let send = future::send_timed(
                    &queue,
                    shared.make_job(),
                    Deadline::after(shared.storm_patience),
                );
                let outcome = send.await;
                shared.storm_hist.record(t0.elapsed().as_nanos() as u64);
                match outcome {
                    Ok(()) => shared.hist.record(t0.elapsed().as_nanos() as u64),
                    Err(_) => {
                        shared.timeouts.fetch_add(1, Ordering::Relaxed);
                        probe!(ServerTimeouts);
                    }
                }
            }
            Phase::Wave => {
                // A fired wave ends the connection; requests it never
                // issued are neither requests nor cancels.
                if token.is_cancelled() {
                    break;
                }
                shared.requests.fetch_add(1, Ordering::Relaxed);
                probe!(ServerRequests);
                let t0 = Instant::now();
                let send = future::send_timed(
                    &queue,
                    shared.make_job(),
                    Deadline::after(shared.steady_patience),
                );
                match Cancelled::new(&token, send).await {
                    Some(Ok(())) => shared.hist.record(t0.elapsed().as_nanos() as u64),
                    Some(Err(_)) => {
                        shared.timeouts.fetch_add(1, Ordering::Relaxed);
                        probe!(ServerTimeouts);
                    }
                    None => {
                        shared.cancels.fetch_add(1, Ordering::Relaxed);
                        probe!(ServerCancels);
                    }
                }
            }
        }
    }
}

/// Runs one phase for every connection, split across the driver threads.
/// Returns mean ns/request over the requests the phase actually issued.
fn drive_phase<Q>(phase: Phase, queue: &Arc<Q>, cfg: &Config, shared: &Arc<Shared>) -> f64
where
    Q: PollTransferer<Job> + TimedSyncChannel<Job> + Send + Sync + 'static,
{
    let token = CancelToken::new();
    let reqs = phase.requests_per_connection(cfg);
    let per_driver = cfg.connections.div_ceil(cfg.drivers);
    let issued_before = shared.requests.load(Ordering::Relaxed);
    let start = Instant::now();
    let mut drivers = Vec::with_capacity(cfg.drivers);
    for d in 0..cfg.drivers {
        let conns = per_driver.min(cfg.connections.saturating_sub(d * per_driver));
        if conns == 0 {
            break;
        }
        let queue = Arc::clone(queue);
        let shared = Arc::clone(shared);
        let token = token.clone();
        drivers.push(std::thread::spawn(move || {
            let futures: Vec<_> = (0..conns)
                .map(|_| {
                    connection_n(
                        phase,
                        Arc::clone(&queue),
                        Arc::clone(&shared),
                        token.clone(),
                        reqs,
                    )
                })
                .collect();
            block_on_all(futures);
        }));
    }
    if phase == Phase::Wave {
        std::thread::sleep(cfg.wave_delay);
        token.cancel();
    }
    for d in drivers {
        d.join().expect("driver thread panicked");
    }
    let elapsed = start.elapsed();
    let issued = (shared.requests.load(Ordering::Relaxed) - issued_before).max(1);
    elapsed.as_nanos() as f64 / issued as f64
}

/// Whole-run scenario totals for one variant.
struct Totals {
    requests: u64,
    timeouts: u64,
    cancels: u64,
    burst_drops: u64,
}

/// Runs the four-phase scenario over one queue variant: a worker pool
/// consuming from `queue`, connections dispatching into it.
fn run_variant<Q>(name: &str, queue: Arc<Q>, cfg: &Config, report: &mut FigureReport) -> Totals
where
    Q: PollTransferer<Job> + TimedSyncChannel<Job> + Send + Sync + 'static,
{
    let before = StatsSnapshot::take();
    let shared = Arc::new(Shared::new(cfg));
    let pool = ThreadPool::new(
        Arc::clone(&queue) as Arc<dyn TimedSyncChannel<Job>>,
        PoolConfig {
            core_pool_size: cfg.workers,
            max_pool_size: cfg.workers,
            keep_alive: Duration::from_secs(60),
        },
    );
    // Jobs arrive through the channel, never through `execute` — the pool
    // must have its takers parked before the first dispatch.
    assert_eq!(pool.prestart_core_workers(), cfg.workers);

    let mut values = Vec::with_capacity(Phase::ALL.len());
    for phase in Phase::ALL {
        let (start, timer_before) = (Instant::now(), StatsSnapshot::take());
        let ns = drive_phase(phase, &queue, cfg, &shared);
        eprintln!(
            "  server {name:>20} {:>6} -> {ns:>12.0} ns/request",
            phase.name()
        );
        if synq_obs::ENABLED {
            let secs = start.elapsed().as_secs_f64();
            let timer = StatsSnapshot::take().delta(&timer_before);
            let (wakes, fired) = (timer.get(Probe::TimerWakes), timer.get(Probe::TimerFired));
            eprintln!(
                "  server {name:>20} {:>6} -> timer {:.0} wakes/s, {:.2} fired/wake \
                 ({wakes} wakes, {fired} fired in {secs:.3} s)",
                phase.name(),
                wakes as f64 / secs,
                fired as f64 / wakes.max(1) as f64
            );
        }
        values.push(ns);
    }
    pool.shutdown();
    pool.join();

    let totals = Totals {
        requests: shared.requests.load(Ordering::Relaxed),
        timeouts: shared.timeouts.load(Ordering::Relaxed),
        cancels: shared.cancels.load(Ordering::Relaxed),
        burst_drops: shared.burst_drops.load(Ordering::Relaxed),
    };
    // The always-on totals go in explicitly; drop same-named probe deltas
    // from a stats build so each key appears once.
    let mut counters = counter_deltas_since(&before);
    counters.retain(|(k, _)| !k.starts_with("server."));
    counters.push(("server.requests".into(), totals.requests));
    counters.push(("server.timeouts".into(), totals.timeouts));
    counters.push(("server.cancels".into(), totals.cancels));
    counters.push(("server.burst_drops".into(), totals.burst_drops));
    // The storm-phase distribution rides along as counters: every storm
    // dispatch (lapsed or not) is in it, so `storm_p999_ns` is the phase's
    // tail with timeout lateness included — the number the acceptance gate
    // compares across PRs.
    if let Some(storm) = shared.storm_hist.summary() {
        eprintln!(
            "  server {name:>20} storm  -> p50={} p99={} p999={} max={} ns ({} spans)",
            storm.p50, storm.p99, storm.p999, storm.max, storm.count
        );
        counters.push(("server.storm_spans".into(), storm.count));
        counters.push(("server.storm_p50_ns".into(), storm.p50));
        counters.push(("server.storm_p99_ns".into(), storm.p99));
        counters.push(("server.storm_p999_ns".into(), storm.p999));
        counters.push(("server.storm_max_ns".into(), storm.max));
    }
    let latency = shared.hist.summary();
    if let Some(lat) = &latency {
        eprintln!(
            "  server {name:>20} tails  -> p50={} p99={} p999={} max={} ns \
             ({} spans; {} timeouts, {} cancels, {} drops)",
            lat.p50,
            lat.p99,
            lat.p999,
            lat.max,
            lat.count,
            totals.timeouts,
            totals.cancels,
            totals.burst_drops
        );
    }
    report.push_series_full(name.to_string(), values, counters, latency);
    totals
}

fn main() -> ExitCode {
    let cfg = Config::from_env();
    eprintln!(
        "server bench: {} connections on {} drivers -> {} workers ({} cores); \
         phases: steady/burst/storm/wave",
        cfg.connections,
        cfg.drivers,
        cfg.workers,
        bench_cores()
    );
    let mut report = FigureReport::new(
        "server",
        "Dispatch server: async connections through a rendezvous channel into the pool",
        "phase",
        "ns/request",
        vec![1, 2, 3, 4],
    );

    let mut storm_timeouts = 0u64;
    let fair: Arc<SyncDualQueue<Job>> = Arc::new(SyncDualQueue::new());
    storm_timeouts += run_variant("new-fair", fair, &cfg, &mut report).timeouts;
    let buffered: Arc<BufferedChannel<Job>> = Arc::new(BufferedChannel::bounded(BUFFER_CAP));
    storm_timeouts += run_variant(
        &format!("transfer-bounded{BUFFER_CAP}"),
        buffered,
        &cfg,
        &mut report,
    )
    .timeouts;

    println!("{}", report.to_table());
    match report.write_json() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write JSON: {e}"),
    }
    match write_bench_server(&report) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_server.json: {e}"),
    }

    let assert_storm = std::env::var("SYNQ_SERVER_ASSERT").map(|v| v != "0") == Ok(true);
    if assert_storm && storm_timeouts == 0 {
        eprintln!(
            "error: the timeout storm recorded zero server.timeouts across every \
             variant (SYNQ_SERVER_ASSERT=1) — the storm patience no longer \
             undershoots the drain rate"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
