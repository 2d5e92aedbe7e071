//! Flat-combining rendezvous under **scheduler subversion**: the contended
//! preset (threads ≫ cores, so most waiters are asleep at any instant) run
//! over the three rendezvous families — the delegation-based combiner, the
//! classic dual queue, and the java5-fair lock baseline. This is the
//! scenario combining exists for: one running thread batch-pairs on behalf
//! of the parked majority instead of every handoff paying its own wakeup
//! chain and CAS storm.
//!
//! The combiner series records the structure's always-on sweep counters —
//! `combiner.sweeps`, `combiner.requests` (requests claimed across all
//! sweeps) and the derived `combiner.requests_per_sweep` (floored mean
//! batch size) — in the schema rev 2 per-series `counters` section, so the
//! batching claim is checkable from the JSON without a stats build.
//!
//! Emits `target/figures/combiner.json` and the repo-root
//! `BENCH_combiner.json` (overridable with `SYNQ_COMBINER_PATH`).
//!
//! With `SYNQ_COMBINER_ASSERT=1` the binary exits nonzero unless the
//! combiner actually combined: at least one sweep ran and the mean batch
//! exceeded one request per sweep under the contended preset — the CI
//! guard that delegation is exercised, not silently degenerated into
//! self-service-only operation.

use std::process::ExitCode;
use std::sync::Arc;
use synq::{CombinerSyncQueue, CombinerSyncStack, SyncChannel};
use synq_bench::algos::{make_blocking, Algo};
use synq_bench::report::{counter_deltas_since, write_bench_combiner, FigureReport};
use synq_bench::workload::{handoff_ns_per_transfer, HandoffShape};
use synq_bench::{contended_pairs, oversub_factors, quick_mode, transfers_for};

/// Totals of the combiner's always-on counters across one series.
struct SweepTotals {
    sweeps: u64,
    requests: u64,
}

impl SweepTotals {
    fn requests_per_sweep(&self) -> u64 {
        self.requests.checked_div(self.sweeps).unwrap_or(0)
    }
}

/// Runs the flat-combining series (queue or stack) across `levels`,
/// pushing values plus the sweep-batch counters into `report`.
fn combiner_series(
    label: &str,
    lifo: bool,
    levels: &[usize],
    quick: bool,
    report: &mut FigureReport,
) -> SweepTotals {
    let before = synq_obs::StatsSnapshot::take();
    let mut values = Vec::with_capacity(levels.len());
    let mut totals = SweepTotals {
        sweeps: 0,
        requests: 0,
    };
    for &level in levels {
        let shape = HandoffShape::pairs(level);
        let transfers = transfers_for(shape.producers + shape.consumers, quick);
        // Keep the concrete handle: the always-on counters live on it.
        let (ns, sweeps, requests) = if lifo {
            let s: Arc<CombinerSyncStack<u64>> = Arc::new(CombinerSyncStack::new());
            let channel: Arc<dyn SyncChannel<u64>> = Arc::clone(&s) as _;
            let ns = handoff_ns_per_transfer(channel, shape, transfers);
            (ns, s.sweeps(), s.swept_requests())
        } else {
            let q: Arc<CombinerSyncQueue<u64>> = Arc::new(CombinerSyncQueue::new());
            let channel: Arc<dyn SyncChannel<u64>> = Arc::clone(&q) as _;
            let ns = handoff_ns_per_transfer(channel, shape, transfers);
            (ns, q.sweeps(), q.swept_requests())
        };
        totals.sweeps += sweeps;
        totals.requests += requests;
        let batch = requests.checked_div(sweeps).unwrap_or(0);
        eprintln!(
            "  combiner {label:>20} pairs={level:<3} -> {ns:>12.0} ns/transfer \
             ({transfers} transfers, {sweeps} sweeps, ~{batch} requests/sweep)"
        );
        values.push(ns);
    }
    // The always-on totals go in explicitly; drop any same-named probe
    // deltas from a stats build so each key appears once.
    let mut counters = counter_deltas_since(&before);
    counters.retain(|(k, _)| k != "combiner.sweeps" && k != "combiner.requests");
    counters.push(("combiner.sweeps".into(), totals.sweeps));
    counters.push(("combiner.requests".into(), totals.requests));
    counters.push((
        "combiner.requests_per_sweep".into(),
        totals.requests_per_sweep(),
    ));
    report.push_series_with_counters(label.to_string(), values, counters);
    totals
}

/// Runs one comparator series (classic / java5) across `levels`.
fn comparator_series(algo: Algo, levels: &[usize], quick: bool, report: &mut FigureReport) {
    let before = synq_obs::StatsSnapshot::take();
    let mut values = Vec::with_capacity(levels.len());
    for &level in levels {
        let shape = HandoffShape::pairs(level);
        let transfers = transfers_for(shape.producers + shape.consumers, quick);
        let ns = handoff_ns_per_transfer(make_blocking(algo), shape, transfers);
        eprintln!(
            "  combiner {:>20} pairs={level:<3} -> {ns:>12.0} ns/transfer ({transfers} transfers)",
            algo.name()
        );
        values.push(ns);
    }
    report.push_series_with_counters(algo.name(), values, counter_deltas_since(&before));
}

fn main() -> ExitCode {
    let quick = quick_mode();
    let levels = contended_pairs(quick);
    eprintln!(
        "combiner bench: contended preset, oversubscription factors {:?} ({} cores)",
        oversub_factors(quick),
        synq_bench::bench_cores()
    );
    let mut report = FigureReport::new(
        "combiner",
        "Flat combining under scheduler subversion (threads >> cores)",
        "pairs",
        "ns/transfer",
        levels.clone(),
    );

    let totals = combiner_series("new-combiner", false, &levels, quick, &mut report);
    combiner_series("new-combiner-stack", true, &levels, quick, &mut report);
    comparator_series(Algo::NewFair, &levels, quick, &mut report);
    comparator_series(Algo::Java5Fair, &levels, quick, &mut report);

    println!("{}", report.to_table());
    eprintln!(
        "combiner totals: {} sweeps, {} requests claimed, ~{} requests/sweep",
        totals.sweeps,
        totals.requests,
        totals.requests_per_sweep()
    );
    match report.write_json() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write JSON: {e}"),
    }
    match write_bench_combiner(&report) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_combiner.json: {e}"),
    }

    let assert_batching = std::env::var("SYNQ_COMBINER_ASSERT").map(|v| v != "0") == Ok(true);
    if assert_batching && (totals.sweeps == 0 || totals.requests <= totals.sweeps) {
        eprintln!(
            "error: the combiner queue averaged <= 1 request per sweep under the \
             contended preset ({} requests / {} sweeps; SYNQ_COMBINER_ASSERT=1)",
            totals.requests, totals.sweeps
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
