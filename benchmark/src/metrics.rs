//! The names this benchmark defines. `BENCHMARK.json` at the root of the
//! repository declares the same lists (a test holds the two together); later
//! issues refer to metrics and workloads by these names.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports every one. The
/// bounds are the contract's maximum: ten runs of the same code on the host
/// the benchmark was defined on differ by quartile spreads of 1-13 % (see
/// README, "Evidence"), and a bound is meant to be three times the spread.
/// `setup_s` is the exception: its spread reaches its bound, it is unresolved
/// at 0.25, and only its median over ten runs is judged (README, "setup_s";
/// `suite::UNRESOLVED`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("op_p50_ns", "ns", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Single-layer metrics (traced run). The prefix is the layer: a workspace
/// crate, `ledger` (the per-operation attribution) or `bench` (the harness
/// itself, and end-to-end candidates that only one workload can report).
/// A metric with no samples on a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // reclaim
    layer("reclaim.epoch_pin_ns", "ns", Lower),
    layer("reclaim.epoch_retire_ns", "ns", Lower),
    layer("reclaim.pins_per_op", "count", Lower),
    layer("reclaim.retired_per_op", "count", Lower),
    layer("reclaim.fast_repin_share", "share", Higher),
    layer("reclaim.pending_peak", "count", Lower),
    // primitives
    layer("primitives.park_roundtrip_ns", "ns", Lower),
    layer("primitives.unpark_call_ns", "ns", Lower),
    layer("primitives.park_timeout_overshoot_us", "us", Lower),
    layer("primitives.park_cycle_cpu_ns", "ns", Lower),
    layer("primitives.spin_iter_ns", "ns", Lower),
    layer("primitives.parks_per_op", "count", Lower),
    layer("primitives.parked_handoff_share", "share", Lower),
    layer("primitives.spins_per_op", "count", Lower),
    layer("primitives.futex_wakes_per_op", "count", Lower),
    layer("primitives.vol_ctxsw_per_op", "count", Lower),
    // core
    layer("core.queue_pair_1t_ns", "ns", Lower),
    layer("core.stack_pair_1t_ns", "ns", Lower),
    layer("core.queue_cancel_1t_ns", "ns", Lower),
    layer("core.stack_cancel_1t_ns", "ns", Lower),
    layer("core.offer_miss_ns", "ns", Lower),
    layer("core.cas_per_op", "count", Lower),
    layer("core.cas_fail_share", "share", Lower),
    layer("core.helped_per_op", "count", Lower),
    layer("core.node_cache_hit_share", "share", Higher),
    layer("core.put_call_p50_ns", "ns", Lower),
    layer("core.put_call_p99_ns", "ns", Lower),
    layer("core.take_call_p50_ns", "ns", Lower),
    layer("core.take_call_p99_ns", "ns", Lower),
    layer("core.item_latency_p50_ns", "ns", Lower),
    // transfer
    layer("transfer.ring_push_pop_ns", "ns", Lower),
    layer("transfer.ring_batch8_item_ns", "ns", Lower),
    layer("transfer.bounded_put_poll_1t_ns", "ns", Lower),
    layer("transfer.linked_put_poll_1t_ns", "ns", Lower),
    layer("transfer.full_empty_wait_roundtrip_ns", "ns", Lower),
    layer("transfer.ring_items_per_index_cas", "count", Higher),
    layer("transfer.ring_fallback_share", "share", Lower),
    // asynq
    layer("asynq.pair_1t_ns", "ns", Lower),
    layer("asynq.wheel_insert_ns", "ns", Lower),
    layer("asynq.wheel_advance_fire_ns", "ns", Lower),
    layer("asynq.timer_lateness_p50_us", "us", Lower),
    layer("asynq.timer_lateness_p99_us", "us", Lower),
    layer("asynq.polls_per_op", "count", Lower),
    layer("asynq.pending_share", "share", Lower),
    layer("asynq.poll_self_p50_ns", "ns", Lower),
    layer("asynq.wake_to_repoll_p50_ns", "ns", Lower),
    // executor
    layer("executor.execute_call_ns", "ns", Lower),
    layer("executor.submit_to_start_p50_ns", "ns", Lower),
    layer("executor.finish_to_join_p50_ns", "ns", Lower),
    layer("executor.largest_pool_size", "count", Lower),
    layer("executor.submit_retry_share", "share", Lower),
    // baselines
    layer("baselines.java5_fair_ops_per_s", "1/s", Higher),
    // ledger
    layer("ledger.protocol_share", "share", Lower),
    layer("ledger.reclaim_share", "share", Lower),
    layer("ledger.wait_share", "share", Lower),
    layer("ledger.surface_share", "share", Lower),
    layer("ledger.consumer_share", "share", Lower),
    layer("ledger.residual_share", "share", Lower),
    // bench
    layer("bench.setup_library_us", "us", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.sched_lag_p99_us", "us", Lower),
    layer("bench.rep_spread_share", "share", Lower),
    layer("bench.invol_ctxsw_per_s", "1/s", Lower),
    layer("bench.clock_read_ns", "ns", Lower),
    layer("bench.timeout_lateness_p50_us", "us", Lower),
    layer("bench.timeout_lateness_p99_us", "us", Lower),
    layer("bench.op_p99_ns", "ns", Lower),
    layer("bench.op_samples", "count", Higher),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::Workload;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_obj()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect()
    }

    /// `BENCHMARK.json` and the registry declare the same names, units,
    /// directions and bounds, in the same order.
    #[test]
    fn benchmark_json_declares_the_registry() {
        let b = benchmark_json();
        assert_eq!(
            keys(&b),
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let check = |key: &str, defs: &[MetricDef], with_bound: bool| {
            let listed = b.get(key).and_then(Value::as_arr).expect("a list");
            assert_eq!(listed.len(), defs.len(), "{key}: count");
            for (entry, def) in listed.iter().zip(defs) {
                let expect_keys: &[&str] = if with_bound {
                    &["better", "bound", "name", "unit"]
                } else {
                    &["better", "name", "unit"]
                };
                assert_eq!(keys(entry), expect_keys, "{}", def.name);
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Value::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                if with_bound {
                    let bound = entry.get("bound").and_then(Value::as_f64).expect("a bound");
                    assert_eq!(bound, def.bound, "{}", def.name);
                    assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
                }
            }
        };
        check("end_to_end", END_TO_END, true);
        check("per_layer", PER_LAYER, false);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        let workloads = b.get("workloads").and_then(Value::as_arr).expect("a list");
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("a name"))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        for w in workloads {
            assert_eq!(keys(w), ["name", "why"]);
            let why = w.get("why").and_then(Value::as_str).expect("a why");
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let paths = b.get("paths").and_then(Value::as_arr).expect("a list");
        assert_eq!(paths, [Value::Str("benchmark".into())]);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let workloads = Workload::ALL.map(Workload::name);
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(workloads)
        {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(
                name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name}"
            );
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(def.unit.len() <= 16, "{}", def.unit);
            assert!(
                def.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                def.unit
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
