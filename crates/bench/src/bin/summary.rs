//! Prints markdown tables for every figure JSON found under
//! `target/figures/` (or `SYNQ_FIGURE_DIR`) — the source material for
//! EXPERIMENTS.md. Run the figure binaries first. Also refreshes the
//! repo-root `BENCH_headline.json` from the freshest handoff figure.
//!
//! With `--check`, instead validates the repo-root `BENCH_*.json` files
//! (presence + schema revision) and exits nonzero with a clear message on
//! the first problem — the guard CI and the perf-regression driver run
//! before trusting the recorded baselines.
//!
//! Every failure path prints a one-line diagnosis and exits with status 1;
//! nothing in this binary panics on bad input.

use std::process::ExitCode;
use synq_bench::json::Json;
use synq_bench::report::{
    async_path, check_bench_schema, headline_path, park_path, read_bench_file, reclaim_path,
    ring_path, server_path, wait_strategy_path, write_bench_async, write_bench_headline,
    write_bench_park, write_bench_reclaim, write_bench_ring, write_bench_server,
    write_bench_wait_strategy, FigureReport,
};

/// The repo-root perf-trajectory files: (resolved path, schema family).
fn bench_files() -> [(std::path::PathBuf, &'static str); 7] {
    [
        (headline_path(), "headline"),
        (wait_strategy_path(), "wait-strategy"),
        (async_path(), "async"),
        (ring_path(), "ring"),
        (reclaim_path(), "reclaim"),
        (server_path(), "server"),
        (park_path(), "park"),
    ]
}

/// Keys under which a BENCH file may embed a figure report.
const FIGURE_KEYS: [&str; 3] = ["sweep", "handoff", "executor"];

/// Validates every schema rev 3 `latency` block embedded in `doc`: the
/// percentiles of each must be monotone (p50 ≤ p90 ≤ p99 ≤ p999 ≤ max) —
/// the invariant a histogram walk cannot violate, so a violation means a
/// corrupt or hand-edited file. Returns how many series carried a block.
fn check_latency_blocks(doc: &Json, path: &std::path::Path) -> Result<usize, String> {
    let mut with_latency = 0;
    for key in FIGURE_KEYS {
        let Some(fig) = doc.get(key) else { continue };
        let report = FigureReport::from_json(fig)
            .map_err(|e| format!("{}: `{key}` figure: {e}", path.display()))?;
        for s in &report.series {
            let Some(lat) = &s.latency else { continue };
            if !lat.is_monotone() {
                return Err(format!(
                    "{}: `{key}` series `{}`: latency percentiles not monotone \
                     (p50={} p90={} p99={} p999={} max={})",
                    path.display(),
                    s.name,
                    lat.p50,
                    lat.p90,
                    lat.p99,
                    lat.p999,
                    lat.max
                ));
            }
            with_latency += 1;
        }
    }
    Ok(with_latency)
}

/// `--check`: every BENCH file must exist, parse, and carry a known schema;
/// any recorded latency block must have monotone percentiles; and the
/// server file — whose whole point is the tail — must carry distributions
/// for at least three queue variants.
fn check_bench() -> ExitCode {
    let mut ok = true;
    for (path, family) in bench_files() {
        let verdict = read_bench_file(&path, family).and_then(|doc| {
            let n = check_latency_blocks(&doc, &path)?;
            if family == "server" && n < 3 {
                return Err(format!(
                    "{}: server file has {n} latency series, need ≥ 3 queue variants",
                    path.display()
                ));
            }
            Ok(n)
        });
        match verdict {
            Ok(0) => eprintln!("ok: {}", path.display()),
            Ok(n) => eprintln!("ok: {} ({n} latency series)", path.display()),
            Err(e) => {
                eprintln!("error: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Refuses to clobber an existing BENCH file whose schema this binary does
/// not understand (a newer revision, or not a synq-bench file at all).
fn guard_overwrite(path: &std::path::Path, family: &str) -> Result<(), String> {
    let Ok(data) = std::fs::read_to_string(path) else {
        return Ok(()); // absent: we are creating it
    };
    let doc = Json::parse(&data).map_err(|e| {
        format!(
            "{}: invalid JSON: {e} — refusing to overwrite",
            path.display()
        )
    })?;
    check_bench_schema(&doc, family)
        .map(|_| ())
        .map_err(|e| format!("{}: {e} — refusing to overwrite", path.display()))
}

fn print_markdown(report: &FigureReport) {
    println!("## {} — {} ({})\n", report.id, report.title, report.unit);
    print!("| {} |", report.x_label);
    for s in &report.series {
        print!(" {} |", s.name);
    }
    println!();
    print!("|---:|");
    for _ in &report.series {
        print!("---:|");
    }
    println!();
    for (row, level) in report.levels.iter().enumerate() {
        print!("| {level} |");
        for s in &report.series {
            print!(" {:.0} |", s.values[row]);
        }
        println!();
    }
    println!();
    // Probe-counter deltas (stats builds only): one row per algorithm,
    // whole-sweep totals.
    if report.series.iter().any(|s| !s.counters.is_empty()) {
        println!("### {} — probe counters (whole sweep)\n", report.id);
        for s in &report.series {
            if s.counters.is_empty() {
                continue;
            }
            let cells: Vec<String> = s.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("- **{}**: {}", s.name, cells.join(", "));
        }
        println!();
    }
}

fn run() -> Result<(), String> {
    let dir = std::env::var("SYNQ_FIGURE_DIR").unwrap_or_else(|_| "target/figures".into());
    let entries = std::fs::read_dir(&dir).map_err(|e| {
        format!("cannot read figure directory {dir}: {e}; run the figure binaries first")
    })?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("no figure JSON in {dir}; run the figure binaries first");
        return Ok(());
    }
    let mut reports = Vec::new();
    for path in paths {
        let data = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let report = match Json::parse(&data).and_then(|j| FigureReport::from_json(&j)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("skipping {}: {e}", path.display());
                continue;
            }
        };
        print_markdown(&report);
        reports.push(report);
    }
    // Refresh the repo-root perf-trajectory file from the best available
    // handoff/executor figures (headline-* preferred, figure3/6 fallback).
    let pick = |ids: [&str; 2]| {
        ids.iter()
            .find_map(|id| reports.iter().find(|r| r.id == *id))
    };
    if let Some(handoff) = pick(["headline-handoff", "figure3"]) {
        let pool = pick(["headline-pool", "figure6"]);
        guard_overwrite(&headline_path(), "headline")?;
        let path = write_bench_headline(handoff, pool)
            .map_err(|e| format!("failed to write BENCH_headline.json: {e}"))?;
        eprintln!("wrote {}", path.display());
    }
    // The sweep files follow the same refresh-if-present rule.
    if let Some(sweep) = reports.iter().find(|r| r.id == "wait_strategy") {
        guard_overwrite(&wait_strategy_path(), "wait-strategy")?;
        let path = write_bench_wait_strategy(sweep)
            .map_err(|e| format!("failed to write BENCH_wait_strategy.json: {e}"))?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(sweep) = reports.iter().find(|r| r.id == "async_handoff") {
        guard_overwrite(&async_path(), "async")?;
        let path = write_bench_async(sweep)
            .map_err(|e| format!("failed to write BENCH_async.json: {e}"))?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(sweep) = reports.iter().find(|r| r.id == "ring") {
        guard_overwrite(&ring_path(), "ring")?;
        let path =
            write_bench_ring(sweep).map_err(|e| format!("failed to write BENCH_ring.json: {e}"))?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(sweep) = reports.iter().find(|r| r.id == "reclaim") {
        guard_overwrite(&reclaim_path(), "reclaim")?;
        let path = write_bench_reclaim(sweep)
            .map_err(|e| format!("failed to write BENCH_reclaim.json: {e}"))?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(sweep) = reports.iter().find(|r| r.id == "server") {
        guard_overwrite(&server_path(), "server")?;
        let path = write_bench_server(sweep)
            .map_err(|e| format!("failed to write BENCH_server.json: {e}"))?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(sweep) = reports.iter().find(|r| r.id == "park") {
        guard_overwrite(&park_path(), "park")?;
        let path =
            write_bench_park(sweep).map_err(|e| format!("failed to write BENCH_park.json: {e}"))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--check") {
        return check_bench();
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
