//! Ring fast-path sweep: capacity × batch size × pair count under the
//! **contended** preset (threads ≫ cores). Runs the unbounded
//! `TransferQueue` first (ring-first since PR 12: its buffered puts ride
//! an internal ring and go to the linked list only as overflow, so this
//! series is no longer a "linked" baseline — free-running producers do
//! outrun the consumers here, and how much of the traffic overflowed is
//! in its `ring.overflow_puts` counter), then the bounded ring at a ladder
//! of capacities and batch sizes, plus two mixed buffered+synchronous
//! series: a tiny bounded ring, so that producers wait on linked nodes
//! under load, and the unbounded queue, where every put issued while a
//! synchronous transfer is linked must overflow behind it.
//!
//! The schema rev 2 per-series `counters` section carries the `ring.*`
//! probe deltas plus explicitly recorded `epoch.pins` / `node_cache.*`
//! values. A consumer that finds the ring empty waits as a linked
//! reservation, and a producer that finds it full waits on a linked
//! waiting put; either pins and takes a node. So what the pure *bounded*
//! buffered series prove is this: a series in which nobody waited
//! (`ring.empty_waits` = `ring.full_waits` = 0) recorded **zero** pins
//! and zero node allocations (`node_cache.misses` counts them;
//! `node_cache.hits` is never fired), i.e. buffered `put`/`poll`
//! themselves never pin an epoch or allocate a linked node. `nonzero()`
//! would drop those zeros, so this binary writes them back in before
//! recording the series. The `polling` series (producers spin on
//! `offer`, consumers on `poll`, nobody ever waits in the library) is
//! there so that one series always qualifies; for the blocking ones the
//! binary prints pins per wait. (The unbounded series also pins whenever
//! a put overflows, so it carries no such proof.)
//!
//! Emits `target/figures/ring.json` and the repo-root `BENCH_ring.json`
//! (overridable with `SYNQ_RING_PATH`).
//!
//! With `SYNQ_RING_ASSERT=1` (requires a `--features stats` build) the
//! binary exits nonzero unless every pure bounded series with neither an
//! empty nor a full wait recorded zero `epoch.pins` and zero
//! `node_cache.*` counts, the polling series is one of them, every
//! batch ≥ 8 series
//! amortized its tail/head updates to at most one per two items, the
//! unbounded series buffered through the ring, the bounded mixed series
//! exercised both the ring and the linked rendezvous path, and the
//! unbounded mixed series exercised the ring, the rendezvous path and
//! the overflow path.

use std::process::ExitCode;
use std::sync::Arc;
use synq::{SyncChannel, TimedSyncChannel};
use synq_bench::report::{counter_deltas_since, write_bench_ring, FigureReport};
use synq_bench::workload::{
    batched_handoff_ns_per_transfer, handoff_ns_per_transfer, mixed_handoff_ns_per_transfer,
    HandoffShape,
};
use synq_bench::{contended_pairs, quick_mode, transfers_for};
use synq_transfer::{BufferedChannel, TransferQueue};

/// Counters whose *zero* value is the acceptance evidence for a pure
/// buffered series in which nobody waited.
/// `StatsSnapshot::nonzero()` filters zeros out, so they are appended
/// explicitly (stats builds only).
const PROOF_COUNTERS: &[&str] = &["epoch.pins", "node_cache.hits", "node_cache.misses"];

/// One sweep series: how each level's transfers move through the queue.
#[derive(Clone, Copy)]
enum Mode {
    /// Unbounded (ring-first) queue, single-item `put`/`take`.
    UnboundedSingle,
    /// Bounded ring, single-item `put`/`take`.
    RingSingle { capacity: usize },
    /// Bounded ring, producers spinning on `offer` and consumers on
    /// `poll`: the buffered path with no wait in the library at all.
    RingPolling { capacity: usize },
    /// Bounded ring, `send_batch`/`recv_batch` in chunks of `batch`.
    RingBatch { capacity: usize, batch: usize },
    /// Bounded ring, every `sync_every`-th item rendezvouses via `transfer`.
    RingMixed { capacity: usize, sync_every: usize },
    /// Unbounded queue, every `sync_every`-th item rendezvouses via
    /// `transfer`; puts issued while one is linked overflow behind it.
    UnboundedMixed { sync_every: usize },
}

impl Mode {
    /// Pure bounded series touch the linked path only to wait on an
    /// empty or a full ring: with no such wait, their `epoch.pins` /
    /// `node_cache.*` deltas must be exactly zero.
    fn pure_buffered(self) -> bool {
        matches!(
            self,
            Mode::RingSingle { .. } | Mode::RingPolling { .. } | Mode::RingBatch { .. }
        )
    }

    fn batch(self) -> usize {
        match self {
            Mode::RingBatch { batch, .. } => batch,
            _ => 1,
        }
    }
}

/// A buffered channel whose blocking calls never wait in the library:
/// `put` spins on `offer`, `take` on `poll`.
struct Polling(BufferedChannel<u64>);

impl SyncChannel<u64> for Polling {
    fn put(&self, mut value: u64) {
        while let Err(back) = self.0.offer(value) {
            value = back;
            std::thread::yield_now();
        }
    }

    fn take(&self) -> u64 {
        loop {
            match self.0.poll() {
                Some(value) => return value,
                None => std::thread::yield_now(),
            }
        }
    }
}

/// Runs one series across `levels`, recording values plus counter deltas
/// (with the zero-valued proof counters written back in for the pure
/// buffered modes). Returns the recorded counters for the self-checks.
fn run_series(
    label: &str,
    mode: Mode,
    levels: &[usize],
    quick: bool,
    report: &mut FigureReport,
) -> Vec<(String, u64)> {
    let before = synq_obs::StatsSnapshot::take();
    let mut values = Vec::with_capacity(levels.len());
    for &level in levels {
        let shape = HandoffShape::pairs(level);
        let transfers = transfers_for(shape.producers + shape.consumers, quick);
        let ns = match mode {
            Mode::UnboundedSingle => {
                // `BufferedChannel`, not the raw `TransferQueue` channel
                // impl (whose `put` is a synchronous rendezvous): the
                // series is the *buffered* unbounded path.
                let channel: Arc<dyn SyncChannel<u64>> = Arc::new(BufferedChannel::unbounded());
                handoff_ns_per_transfer(channel, shape, transfers)
            }
            Mode::RingSingle { capacity } => {
                let channel: Arc<dyn SyncChannel<u64>> =
                    Arc::new(BufferedChannel::bounded(capacity));
                handoff_ns_per_transfer(channel, shape, transfers)
            }
            Mode::RingPolling { capacity } => {
                let channel: Arc<dyn SyncChannel<u64>> =
                    Arc::new(Polling(BufferedChannel::bounded(capacity)));
                handoff_ns_per_transfer(channel, shape, transfers)
            }
            Mode::RingBatch { capacity, batch } => {
                let channel: Arc<dyn SyncChannel<u64>> =
                    Arc::new(BufferedChannel::bounded(capacity));
                batched_handoff_ns_per_transfer(channel, shape, transfers, batch)
            }
            Mode::RingMixed {
                capacity,
                sync_every,
            } => {
                let queue = Arc::new(TransferQueue::bounded(capacity));
                mixed_handoff_ns_per_transfer(queue, shape, transfers, sync_every)
            }
            Mode::UnboundedMixed { sync_every } => {
                let queue = Arc::new(TransferQueue::new());
                mixed_handoff_ns_per_transfer(queue, shape, transfers, sync_every)
            }
        };
        eprintln!(
            "  ring {label:>20} pairs={level:<3} -> {ns:>12.0} ns/transfer ({transfers} transfers)"
        );
        values.push(ns);
    }
    let mut counters = counter_deltas_since(&before);
    if synq_obs::ENABLED && mode.pure_buffered() {
        for &name in PROOF_COUNTERS {
            if !counters.iter().any(|(k, _)| k == name) {
                counters.push((name.to_owned(), 0));
            }
        }
        counters.sort();
    }
    report.push_series_with_counters(label.to_owned(), values, counters.clone());
    counters
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(k, _)| k == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

/// Self-checks one series' counters; pushes a message per violation.
fn check_series(label: &str, mode: Mode, counters: &[(String, u64)], errors: &mut Vec<String>) {
    let pushed = counter(counters, "ring.push_items");
    match mode {
        Mode::UnboundedSingle => {
            if pushed == 0 {
                errors.push(format!(
                    "{label}: unbounded buffered puts never rode the internal ring"
                ));
            }
            return;
        }
        Mode::RingMixed { .. } | Mode::UnboundedMixed { .. } => {
            if pushed == 0 {
                errors.push(format!("{label}: mixed series never used the ring"));
            }
            if counter(counters, "epoch.pins") == 0 {
                errors.push(format!(
                    "{label}: mixed series never exercised the linked rendezvous path"
                ));
            }
            if matches!(mode, Mode::UnboundedMixed { .. })
                && counter(counters, "ring.overflow_puts") == 0
            {
                errors.push(format!(
                    "{label}: no put overflowed to the list behind a linked transfer"
                ));
            }
            return;
        }
        Mode::RingSingle { .. } | Mode::RingPolling { .. } | Mode::RingBatch { .. } => {}
    }
    if pushed == 0 {
        errors.push(format!("{label}: buffered series never pushed to the ring"));
    }
    let empty_waits = counter(counters, "ring.empty_waits");
    let full_waits = counter(counters, "ring.full_waits");
    let waits = empty_waits + full_waits;
    if waits == 0 {
        for &name in PROOF_COUNTERS {
            let v = counter(counters, name);
            if v != 0 {
                errors.push(format!(
                    "{label}: pure buffered series with no wait recorded {name}={v} \
                     (expected 0 — the buffered path must be epoch-free and allocation-free)"
                ));
            }
        }
    } else {
        let pins = counter(counters, "epoch.pins");
        eprintln!(
            "  ring {label:>20} {pins} epoch pins over {empty_waits} empty and \
             {full_waits} full waits ({:.2} per wait)",
            pins as f64 / waits as f64
        );
    }
    if matches!(mode, Mode::RingPolling { .. }) && waits != 0 {
        errors.push(format!(
            "{label}: {waits} waits in the series that is there to have none"
        ));
    }
    // Batch ≥ 8 must amortize the contended index updates: at least two
    // items moved per tail/head CAS on average.
    if mode.batch() >= 8 {
        let tail = counter(counters, "ring.tail_updates");
        let head = counter(counters, "ring.head_updates");
        let popped = counter(counters, "ring.pop_items");
        if tail * 2 > pushed {
            errors.push(format!(
                "{label}: batch={} but {tail} tail updates for {pushed} pushed items \
                 (wanted ≤ 1 update per 2 items)",
                mode.batch()
            ));
        }
        if head * 2 > popped {
            errors.push(format!(
                "{label}: batch={} but {head} head updates for {popped} popped items \
                 (wanted ≤ 1 update per 2 items)",
                mode.batch()
            ));
        }
    }
}

fn main() -> ExitCode {
    let quick = quick_mode();
    let levels = contended_pairs(quick);
    let mut report = FigureReport::new(
        "ring",
        "Ring fast path: capacity x batch under the contended preset",
        "pairs",
        "ns/transfer",
        levels.clone(),
    );

    let series: &[(&str, Mode)] = &[
        ("unbounded-ring-first", Mode::UnboundedSingle),
        ("ring-cap256-batch1", Mode::RingSingle { capacity: 256 }),
        ("ring-cap256-polling", Mode::RingPolling { capacity: 256 }),
        (
            "ring-cap256-batch8",
            Mode::RingBatch {
                capacity: 256,
                batch: 8,
            },
        ),
        (
            "ring-cap256-batch32",
            Mode::RingBatch {
                capacity: 256,
                batch: 32,
            },
        ),
        (
            "ring-cap64-batch8",
            Mode::RingBatch {
                capacity: 64,
                batch: 8,
            },
        ),
        (
            "ring-cap1024-batch8",
            Mode::RingBatch {
                capacity: 1024,
                batch: 8,
            },
        ),
        (
            "ring-cap64-mixed",
            Mode::RingMixed {
                capacity: 64,
                sync_every: 3,
            },
        ),
        ("unbounded-mixed", Mode::UnboundedMixed { sync_every: 3 }),
    ];

    let mut errors = Vec::new();
    for &(label, mode) in series {
        let counters = run_series(label, mode, &levels, quick, &mut report);
        if synq_obs::ENABLED {
            check_series(label, mode, &counters, &mut errors);
        }
    }

    println!("{}", report.to_table());
    match report.write_json() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write JSON: {e}"),
    }
    match write_bench_ring(&report) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_ring.json: {e}"),
    }

    let assert_ring = std::env::var("SYNQ_RING_ASSERT").map(|v| v != "0") == Ok(true);
    if assert_ring {
        if !synq_obs::ENABLED {
            eprintln!(
                "error: SYNQ_RING_ASSERT=1 requires a `--features stats` build \
                 (counters are compiled out, nothing can be proven)"
            );
            return ExitCode::FAILURE;
        }
        if !errors.is_empty() {
            for e in &errors {
                eprintln!("error: {e}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!(
            "ring self-checks passed: bounded series epoch-free/allocation-free where nobody waited, \
             batch >= 8 amortized index updates, unbounded series rode the ring, \
             mixed series hit every path (ring, rendezvous, overflow)"
        );
    }
    ExitCode::SUCCESS
}
