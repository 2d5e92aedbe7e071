//! Shared drivers for the figure binaries.

use crate::algos::{make_blocking, make_timed_job, Algo};
use crate::hist::Histogram;
use crate::report::{counter_deltas_since, FigureReport};
use crate::workload::{executor_ns_per_task, handoff_ns_per_transfer_recording, HandoffShape};
use crate::{latency_enabled, quick_mode, sweep, transfers_for};
use std::sync::Arc;
use synq_obs::{Probe, StatsSnapshot};

/// Runs a handoff figure (Figures 3–5) over `algos` and prints progress to
/// stderr. With `SYNQ_BENCH_LATENCY=1` every series additionally records
/// its per-operation latency distribution across the whole sweep and
/// carries the schema rev 3 `latency` block. In a `--features stats` build
/// the probe counters are snapshotted around each cell: each cell's line
/// is followed by its own nonzero counts, and a series' `counters` are the
/// sum of its cells'.
pub fn run_handoff_figure(
    id: &str,
    title: &str,
    x_label: &str,
    levels: &[usize],
    algos: &[Algo],
    shape: impl Fn(usize) -> HandoffShape,
) -> FigureReport {
    let quick = quick_mode();
    let record_latency = latency_enabled();
    let levels = sweep(levels, quick);
    let mut report = FigureReport::new(id, title, x_label, "ns/transfer", levels.clone());
    for &algo in algos {
        let hist = record_latency.then(|| Arc::new(Histogram::new()));
        let mut values = Vec::with_capacity(levels.len());
        let mut cells = Vec::with_capacity(levels.len());
        for &level in &levels {
            let s = shape(level);
            let transfers = transfers_for(s.producers + s.consumers, quick);
            let before = StatsSnapshot::take();
            let ns =
                handoff_ns_per_transfer_recording(make_blocking(algo), s, transfers, hist.clone());
            let cell = StatsSnapshot::take().delta(&before);
            eprintln!(
                "  {id} {:>14} {x_label}={level:<3} -> {ns:>12.0} ns/transfer ({transfers} transfers)",
                algo.name()
            );
            if !cell.is_zero() {
                let counts: Vec<String> = cell
                    .nonzero()
                    .into_iter()
                    .map(|(name, n)| format!("{name}={n}"))
                    .collect();
                eprintln!("      counters: {}", counts.join(" "));
            }
            values.push(ns);
            cells.push(cell);
        }
        let counters = Probe::ALL
            .iter()
            .map(|&p| (p.name().to_owned(), cells.iter().map(|c| c.get(p)).sum()))
            .filter(|&(_, n)| n > 0)
            .collect();
        let latency = hist.and_then(|h| h.summary());
        report.push_series_full(algo.name(), values, counters, latency);
    }
    report
}

/// Runs the executor figure (Figure 6) over `algos`.
pub fn run_executor_figure(
    id: &str,
    title: &str,
    levels: &[usize],
    algos: &[Algo],
) -> FigureReport {
    let quick = quick_mode();
    let levels = sweep(levels, quick);
    let mut report = FigureReport::new(id, title, "threads", "ns/task", levels.clone());
    for &algo in algos {
        let Some(_) = make_timed_job(algo) else {
            continue;
        };
        let before = StatsSnapshot::take();
        let mut values = Vec::with_capacity(levels.len());
        for &level in &levels {
            let tasks = transfers_for(level, quick);
            let channel = make_timed_job(algo).expect("timed algo");
            let ns = executor_ns_per_task(channel, level, tasks);
            eprintln!(
                "  {id} {:>14} threads={level:<3} -> {ns:>12.0} ns/task ({tasks} tasks)",
                algo.name()
            );
            values.push(ns);
        }
        report.push_series_with_counters(algo.name(), values, counter_deltas_since(&before));
    }
    report
}

/// Prints the table, writes the JSON, and reports the path.
pub fn finish(report: FigureReport) {
    println!("{}", report.to_table());
    match report.write_json() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write JSON: {e}"),
    }
}
