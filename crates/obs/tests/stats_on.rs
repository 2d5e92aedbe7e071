//! Behavioral tests for the instrumented (`--features stats`) build:
//! shard aggregation under concurrency.
//!
//! Counters are process-global, so every test here uses its own disjoint
//! set of [`Probe`]s and measures with snapshot deltas.

#![cfg(feature = "stats")]

use synq_obs::{probe, Probe, StatsSnapshot};

#[test]
fn enabled_reports_table() {
    const { assert!(synq_obs::ENABLED) };
    const { assert!(synq_obs::TABLE_BYTES > 0) };
}

#[test]
fn single_thread_counts_exact() {
    let before = StatsSnapshot::take();
    probe!(HansonTransfers);
    probe!(HansonTransfers, 9);
    let delta = StatsSnapshot::take().delta(&before);
    assert_eq!(delta.get(Probe::HansonTransfers), 10);
    assert!(delta
        .nonzero()
        .contains(&(Probe::HansonTransfers.name(), 10)));
}

/// The tentpole invariant: the snapshot total equals the sum of per-thread
/// increments, regardless of how threads landed on shards. Thread counts
/// deliberately exceed the shard count so multiple threads share shards.
#[test]
fn concurrent_shard_aggregation_sums() {
    // Deterministic sweep plus randomized schedules via proptest below;
    // this one stresses more threads than proptest can afford per case.
    let before = StatsSnapshot::take();
    let threads = 24;
    let per_thread: u64 = 10_000;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..per_thread {
                    probe!(NaiveTransfers);
                }
            });
        }
    });
    let delta = StatsSnapshot::take().delta(&before);
    assert_eq!(delta.get(Probe::NaiveTransfers), threads * per_thread);
}

mod shard_aggregation {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Randomized thread/increment schedules: the snapshot delta must
        /// equal the sum of per-thread increments for every shard layout.
        #[test]
        fn proptest_shard_aggregation(
            increment_counts in proptest::collection::vec(1u64..500, 1..8),
        ) {
            let before = StatsSnapshot::take();
            std::thread::scope(|s| {
                for &n in &increment_counts {
                    s.spawn(move || {
                        for _ in 0..n {
                            probe!(Java5Transfers);
                        }
                    });
                }
            });
            let delta = StatsSnapshot::take().delta(&before);
            prop_assert_eq!(
                delta.get(Probe::Java5Transfers),
                increment_counts.iter().sum::<u64>()
            );
        }
    }
}
