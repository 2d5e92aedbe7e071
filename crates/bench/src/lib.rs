//! Benchmark harness regenerating every figure of the PPoPP 2006
//! evaluation (§4).
//!
//! The paper's microbenchmarks "employ threads that produce and consume as
//! fast as they can; this represents the limiting case of
//! producer-consumer applications as the cost to process elements
//! approaches zero", at producer:consumer ratios N:N (Figure 3), 1:N
//! (Figure 4) and N:1 (Figure 5); the "real-world" scenario (Figure 6)
//! runs trivial tasks through a cached `ThreadPoolExecutor` whose core is
//! the synchronous queue under test.
//!
//! One binary per figure/ablation (see `src/bin/`); each prints the
//! figure's table and writes machine-readable JSON under
//! `target/figures/` for EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod algos;
pub mod hist;
pub mod json;
pub mod report;
pub mod runner;
pub mod workload;

pub use algos::{make_blocking, make_timed_job, Algo, BLOCKING_ALGOS, TIMED_ALGOS};
pub use hist::{Histogram, LatencySummary};
pub use report::{FigureReport, Series};
pub use workload::{
    batched_handoff_ns_per_transfer, executor_ns_per_task, handoff_ns_per_transfer,
    handoff_ns_per_transfer_recording, mixed_handoff_ns_per_transfer, HandoffShape,
};

/// Concurrency levels of Figures 3 and 6 (pairs / threads).
pub const PAIR_LEVELS: &[usize] = &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];

/// Concurrency levels of Figures 4 and 5 (consumers / producers).
pub const FAN_LEVELS: &[usize] = &[1, 2, 3, 5, 8, 12, 18, 27, 41, 62];

/// Core count the oversubscription presets are computed against.
pub fn bench_cores() -> usize {
    synq_primitives::backoff::ncpus().max(1)
}

/// Explicit oversubscription factors `k` for the contended preset: each
/// level fields `k × cores` *pairs* (so `2k × cores` threads). Recorded in
/// every BENCH JSON's `config` block so a reader can reconstruct the
/// thread counts from the host's core count instead of guessing.
///
/// Overridable with `SYNQ_BENCH_OVERSUB` (comma-separated factors, e.g.
/// `SYNQ_BENCH_OVERSUB=4,32`); factors below 2 are dropped — the preset's
/// contract is that every level oversubscribes — and the list is sorted
/// and deduplicated. An override that leaves nothing falls back to the
/// defaults.
pub fn oversub_factors(quick: bool) -> Vec<usize> {
    if let Ok(raw) = std::env::var("SYNQ_BENCH_OVERSUB") {
        let mut ks: Vec<usize> = raw
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&k| k >= 2)
            .collect();
        ks.sort_unstable();
        ks.dedup();
        if !ks.is_empty() {
            return ks;
        }
        eprintln!("SYNQ_BENCH_OVERSUB={raw:?} has no usable factors >= 2; using defaults");
    }
    if quick {
        vec![2, 4, 8]
    } else {
        vec![2, 4, 8, 16]
    }
}

/// The **contended** preset: pair counts chosen to oversubscribe the host
/// (threads ≫ cores), so transfers pile onto the structures faster than
/// they drain and the CAS-retry paths actually execute. The plain
/// [`PAIR_LEVELS`] sweep starts at one pair, where quick-mode runs on
/// small machines never fail a CAS and the stats counters read zero
/// (EXPERIMENTS.md P4's blind spot); every level here is already past the
/// core count, even in quick mode. Levels are `k × cores` for each
/// [`oversub_factors`] entry `k`.
pub fn contended_pairs(quick: bool) -> Vec<usize> {
    let cores = bench_cores();
    oversub_factors(quick).iter().map(|&k| cores * k).collect()
}

/// Reads the harness scale from the environment: `SYNQ_BENCH_QUICK=1`
/// shrinks transfer counts and sweeps so CI stays fast.
pub fn quick_mode() -> bool {
    std::env::var("SYNQ_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// `SYNQ_BENCH_LATENCY=1` makes the figure runners record a per-operation
/// latency [`Histogram`] for each series and emit the schema rev 3
/// `latency` block (two extra `Instant::now` calls per transfer — under
/// 3 % of the cheapest handoff; see DESIGN §4.14). Off by default so the
/// headline means stay directly comparable with earlier revisions. The
/// `server` bin records distributions unconditionally — tails are its
/// entire point.
pub fn latency_enabled() -> bool {
    std::env::var("SYNQ_BENCH_LATENCY")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// Transfer count for a concurrency level: enough work to dominate thread
/// startup, scaled down as oversubscription grows.
pub fn transfers_for(threads: usize, quick: bool) -> usize {
    let base = if quick { 4_000 } else { 40_000 };
    (base / threads.max(1)).clamp(if quick { 400 } else { 2_000 }, base)
}

/// Concurrency sweep, truncated in quick mode.
pub fn sweep(levels: &[usize], quick: bool) -> Vec<usize> {
    if quick {
        levels.iter().copied().filter(|&l| l <= 8).collect()
    } else {
        levels.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_counts_scale_down_with_threads() {
        assert_eq!(transfers_for(1, false), 40_000);
        assert!(transfers_for(64, false) >= 2_000);
        assert!(transfers_for(64, false) <= transfers_for(8, false));
        assert_eq!(transfers_for(1, true), 4_000);
        assert!(transfers_for(128, true) >= 400);
    }

    #[test]
    fn quick_sweep_truncates_levels() {
        let full = sweep(PAIR_LEVELS, false);
        assert_eq!(full, PAIR_LEVELS.to_vec());
        let quick = sweep(PAIR_LEVELS, true);
        assert!(quick.iter().all(|&l| l <= 8));
        assert!(!quick.is_empty());
    }

    #[test]
    fn oversub_factors_all_oversubscribe() {
        for quick in [false, true] {
            let ks = oversub_factors(quick);
            assert!(!ks.is_empty());
            assert!(ks.iter().all(|&k| k >= 2), "factors {ks:?}");
            assert!(ks.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(oversub_factors(true).len() <= oversub_factors(false).len());
    }

    #[test]
    fn contended_levels_are_factor_times_cores() {
        let cores = bench_cores();
        for quick in [false, true] {
            assert_eq!(
                contended_pairs(quick),
                oversub_factors(quick)
                    .iter()
                    .map(|&k| k * cores)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn contended_levels_oversubscribe_the_host() {
        let cores = bench_cores();
        for quick in [false, true] {
            let levels = contended_pairs(quick);
            assert!(!levels.is_empty());
            // Every level fields at least twice as many pairs as cores —
            // each pair is two threads, so the CAS paths stay hot.
            assert!(
                levels.iter().all(|&l| l >= 2 * cores),
                "levels {levels:?} vs {cores} cores"
            );
            assert!(levels.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(contended_pairs(true).len() <= contended_pairs(false).len());
    }

    #[test]
    fn levels_match_the_paper() {
        // Figures 3/6 x-axis ticks.
        assert_eq!(PAIR_LEVELS, &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]);
        // Figures 4/5 x-axis ticks.
        assert_eq!(FAN_LEVELS, &[1, 2, 3, 5, 8, 12, 18, 27, 41, 62]);
    }
}
