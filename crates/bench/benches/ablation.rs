//! Criterion versions of the design-choice ablations (A1–A3):
//! spin budget, Java5 entry-lock fairness, and the elimination arena.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use synq_bench::{handoff_ns_per_transfer, make_blocking, Algo, HandoffShape};

fn run(c: &mut Criterion, group: &str, algos: &[Algo], pairs: usize) {
    let mut g = c.benchmark_group(group);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for &algo in algos {
        g.bench_with_input(BenchmarkId::new(algo.name(), pairs), &pairs, |b, &p| {
            b.iter_custom(|iters| {
                let transfers = (iters as usize).max(200);
                let ns =
                    handoff_ns_per_transfer(make_blocking(algo), HandoffShape::pairs(p), transfers);
                Duration::from_nanos((ns * iters as f64) as u64)
            })
        });
    }
    g.finish();
}

fn benches(c: &mut Criterion) {
    run(
        c,
        "a1_spin",
        &[
            Algo::NewUnfairSpin(0),
            Algo::NewUnfair,
            Algo::NewUnfairSpin(320),
        ],
        4,
    );
    run(
        c,
        "a2_fair_lock",
        &[
            Algo::Java5Fair,
            Algo::Java5FairListsUnfairLock,
            Algo::Java5Unfair,
        ],
        4,
    );
    run(c, "a3_elimination", &[Algo::NewUnfair, Algo::NewElim], 4);
}

criterion_group!(ablation, benches);
criterion_main!(ablation);
