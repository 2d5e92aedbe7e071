//! Reclamation-backend sweep under **stalled-thread injection**: for each
//! backend (epoch, hazard) run producer/consumer pairs through a
//! `SyncDualQueue<usize, R>` while one extra reader is parked
//! *mid-critical-section* — guard pinned, one live hazard published — for
//! the whole measured window. Records transfers/sec per pair count and,
//! in each series' `counters` section, the backend's peak and end-of-run
//! unreclaimed-garbage population (`reclaim.peak_pending` /
//! `reclaim.end_pending`, from the process-wide garbage ledger).
//!
//! This is the experiment behind DESIGN §4.12's trade-off table: a single
//! stalled epoch pin freezes the global grace period, so epoch garbage
//! grows with the transfer count, while the hazard backend keeps freeing
//! everything except the handful of slot-protected nodes — its peak stays
//! bounded by a per-thread constant independent of how long the stall
//! lasts.
//!
//! Emits `target/figures/reclaim.json` and the repo-root
//! `BENCH_reclaim.json` (overridable with `SYNQ_RECLAIM_PATH`).
//!
//! With `SYNQ_RECLAIM_ASSERT=1` the binary exits nonzero unless the
//! hazard peak stayed under its slot-derived bound **and** the epoch peak
//! actually exceeded that bound (i.e. the stall demonstrably mattered).
//! The ledger is always compiled in, so the assertions need no
//! `--features stats` build; stats builds additionally record the
//! `reclaim.*` probe deltas per series.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use synq::{SyncChannel, SyncDualQueue};
use synq_bench::report::{counter_deltas_since, write_bench_reclaim, FigureReport};
use synq_bench::{quick_mode, transfers_for};
use synq_reclaim::{Epoch, Hazard, Reclaimer, Shield, SCAN_THRESHOLD};

/// One backend's sweep outcome.
struct BackendRun {
    /// transfers/sec at each pair level.
    throughput: Vec<f64>,
    /// Ledger high-water mark across the whole sweep.
    peak_pending: usize,
    /// Ledger population after the stall released and collection ran.
    end_pending: usize,
    /// Probe-counter deltas over the sweep (stats builds; else empty).
    counters: Vec<(String, u64)>,
}

/// Upper bound on the hazard backend's garbage population with `threads`
/// retiring threads: each thread's retire batch flushes at
/// [`SCAN_THRESHOLD`], a scan can miss at most the slot-protected handful,
/// and the stalled reader protects exactly one allocation. Doubled for
/// scheduling slack (a preempted thread mid-scan re-retires its batch).
fn hazard_bound(threads: usize) -> usize {
    2 * (threads + 1) * SCAN_THRESHOLD
}

/// Runs one pair level under backend `R` with the stalled reader parked.
fn stalled_level<R: Reclaimer>(pairs: usize, transfers_per_pair: usize) -> f64 {
    let q: Arc<SyncDualQueue<usize, R>> = Arc::new(SyncDualQueue::new_in());
    let stop = Arc::new(AtomicBool::new(false));

    // The injected stall: pin a guard and publish one live hazard, then
    // park until the measured window closes. Under epoch this freezes the
    // global grace period; under hazard it protects exactly one address.
    let stalled = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let target = Box::into_raw(Box::new(0u64)) as usize;
            let src = AtomicUsize::new(target);
            let guard = R::pin();
            let _ = guard.protect(&src, Ordering::Acquire);
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            drop(guard);
            // SAFETY: the leaked target was never shared with anyone.
            drop(unsafe { Box::from_raw(target as *mut u64) });
        })
    };

    let start = Instant::now();
    let mut producers = Vec::with_capacity(pairs);
    let mut consumers = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let qp = Arc::clone(&q);
        producers.push(std::thread::spawn(move || {
            for i in 0..transfers_per_pair {
                qp.put(i);
            }
        }));
        let q = Arc::clone(&q);
        consumers.push(std::thread::spawn(move || {
            for _ in 0..transfers_per_pair {
                let _ = q.take();
            }
        }));
    }
    for h in producers.into_iter().chain(consumers) {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();

    stop.store(true, Ordering::Relaxed);
    stalled.join().unwrap();

    (pairs * transfers_per_pair) as f64 / elapsed.max(1e-9)
}

/// Sweeps every level under backend `R`, stalled reader injected at each.
fn run_backend<R: Reclaimer>(levels: &[usize], quick: bool) -> BackendRun {
    // Drain garbage left behind by earlier series, then zero the watermark
    // so the peak is attributable to this sweep alone.
    for _ in 0..4 {
        R::collect();
    }
    R::reset_peak();
    let before = synq_obs::StatsSnapshot::take();

    let mut throughput = Vec::with_capacity(levels.len());
    for &pairs in levels {
        let per = transfers_for(pairs * 2, quick);
        let tps = stalled_level::<R>(pairs, per);
        eprintln!(
            "  reclaim {:>6} pairs={pairs:<2} -> {tps:>12.0} transfers/sec \
             (pending {} peak {})",
            R::NAME,
            R::pending(),
            R::peak_pending(),
        );
        throughput.push(tps);
    }

    let peak_pending = R::peak_pending();
    // The stall is over everywhere: reclamation must be able to catch up.
    for _ in 0..8 {
        R::collect();
    }
    let mut counters = counter_deltas_since(&before);
    counters.push(("reclaim.peak_pending".into(), peak_pending as u64));
    counters.push(("reclaim.end_pending".into(), R::pending() as u64));
    counters.sort();
    BackendRun {
        throughput,
        peak_pending,
        end_pending: R::pending(),
        counters,
    }
}

fn main() -> ExitCode {
    let quick = quick_mode();
    let levels: Vec<usize> = if quick { vec![1, 2] } else { vec![1, 2, 4, 8] };
    let mut report = FigureReport::new(
        "reclaim",
        "Reclamation backends under stalled-thread injection",
        "pairs",
        "transfers/sec",
        levels.clone(),
    );

    let epoch = run_backend::<Epoch>(&levels, quick);
    let hazard = run_backend::<Hazard>(&levels, quick);
    report.push_series_with_counters("epoch".into(), epoch.throughput.clone(), epoch.counters);
    report.push_series_with_counters("hazard".into(), hazard.throughput.clone(), hazard.counters);

    println!("{}", report.to_table());
    eprintln!(
        "peak unreclaimed garbage: epoch={} hazard={} (end: epoch={} hazard={})",
        epoch.peak_pending, hazard.peak_pending, epoch.end_pending, hazard.end_pending
    );
    match report.write_json() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write JSON: {e}"),
    }
    match write_bench_reclaim(&report) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_reclaim.json: {e}"),
    }

    let assert_reclaim = std::env::var("SYNQ_RECLAIM_ASSERT").map(|v| v != "0") == Ok(true);
    if assert_reclaim {
        let max_threads = 2 * levels.iter().copied().max().unwrap_or(1) + 1;
        let bound = hazard_bound(max_threads);
        let mut failed = false;
        if hazard.peak_pending > bound {
            eprintln!(
                "error: hazard peak garbage {} exceeded its slot-derived bound {} \
                 ({max_threads} threads x SCAN_THRESHOLD {SCAN_THRESHOLD})",
                hazard.peak_pending, bound
            );
            failed = true;
        }
        if epoch.peak_pending <= bound {
            eprintln!(
                "error: epoch peak garbage {} never exceeded the hazard bound {} — \
                 the stalled pin did not accumulate garbage, so the run proves nothing",
                epoch.peak_pending, bound
            );
            failed = true;
        }
        if failed {
            return ExitCode::FAILURE;
        }
        eprintln!(
            "reclaim self-checks passed: hazard peak {} <= bound {}, epoch peak {} > bound \
             (stall demonstrably unbounded under epoch, bounded under hazard)",
            hazard.peak_pending, bound, epoch.peak_pending
        );
    }
    ExitCode::SUCCESS
}
