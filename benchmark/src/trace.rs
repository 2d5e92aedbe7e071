//! The per-layer metrics of a traced run: counter deltas per operation,
//! span statistics, the layer probes' unit costs, and the ledger that puts
//! them together.

use std::collections::BTreeMap;

use crate::probes::UnitCounts;
use crate::report::{ops_per_rep, Values};
use crate::spans::{Name, Span, SpanSet};
use crate::stats::percentile;
use crate::workloads::{RunOutput, Workload};

/// Counter deltas over the measured window, by `synq-obs` name.
pub struct Counters {
    delta: BTreeMap<&'static str, u64>,
    /// Names asked for that the traced build does not have (a probe was
    /// renamed or removed): the metrics built on them are dropped.
    pub missing: Vec<&'static str>,
}

impl Counters {
    pub fn between(before: &[(&'static str, u64)], after: &[(&'static str, u64)]) -> Counters {
        let before: BTreeMap<_, _> = before.iter().copied().collect();
        Counters {
            delta: after
                .iter()
                .map(|&(name, n)| (name, n - before.get(name).copied().unwrap_or(0)))
                .collect(),
            missing: Vec::new(),
        }
    }

    /// The delta of `name`. A counter that never moved is not listed by the
    /// library (`nonzero()`), so absence reads 0; a name the library does
    /// not define at all is noted in `missing`.
    fn get(&mut self, name: &'static str) -> f64 {
        if !crate::sut::counter_exists(name) && !self.missing.contains(&name) {
            self.missing.push(name);
        }
        self.delta.get(name).copied().unwrap_or(0) as f64
    }

    /// Every counter that moved, with its delta.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.delta.iter().map(|(&name, &n)| (name, n))
    }

    fn sum(&mut self, names: &[&'static str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p(samples: &[u64], pct: f64) -> f64 {
    percentile(&mut samples.to_vec(), pct).unwrap_or(0) as f64
}

const QUEUE_CAS: [&str; 2] = ["queue.append_cas", "queue.claim_cas"];
const QUEUE_CAS_FAIL: [&str; 2] = ["queue.append_cas_fail", "queue.claim_cas_fail"];
const STACK_CAS: [&str; 2] = ["stack.push_cas", "stack.match_cas"];
const STACK_CAS_FAIL: [&str; 2] = ["stack.push_cas_fail", "stack.match_cas_fail"];

/// Threads whose time one operation of `w` consumes: the generator threads
/// plus the pool worker where there is one. On `buffered_ring` the two
/// threads work in turns, and the one whose turn it is not spins in the
/// benchmark's own gate, so one thread's time is the library's at any moment.
fn threads_per_op(w: Workload) -> f64 {
    match w {
        Workload::CoopAsync | Workload::BufferedRing => 1.0,
        _ => 2.0,
    }
}

/// Everything `--trace 1` reports except what comes from the untraced run
/// (`bench.*` other than the clock read).
pub fn per_layer(
    w: Workload,
    out: &RunOutput,
    counters: &mut Counters,
    probes: &Values,
    units: &UnitCounts,
) -> Values {
    let mut v = probes.clone();
    let ops: f64 = ops_per_rep(out).iter().sum();
    let window_s = (out.window_ns.1 - out.window_ns.0) as f64 / 1e9;
    let per_op = |n: f64| ratio(n, ops);
    let spans = &out.data.spans;

    // reclaim
    let pins = counters.get("epoch.pins");
    let retired = counters.get("reclaim.retired");
    v.insert("reclaim.pins_per_op", per_op(pins));
    v.insert("reclaim.retired_per_op", per_op(retired));
    v.insert(
        "reclaim.fast_repin_share",
        ratio(counters.get("epoch.fast_repins"), pins),
    );
    v.insert("reclaim.pending_peak", out.reclaim_peak as f64);

    // primitives
    let parks = counters.get("wait.parks");
    let spins = counters.get("wait.spins");
    let parked = counters.get("wait.parked_handoffs");
    let direct = counters.get("wait.direct_handoffs");
    let usage = (out.usage.first(), out.usage.last());
    let (vol, cpu_ns) = match usage {
        (Some(a), Some(b)) => (
            (b.vol_ctxsw - a.vol_ctxsw) as f64,
            (b.cpu_ns - a.cpu_ns) as f64,
        ),
        _ => (0.0, 0.0),
    };
    v.insert("primitives.parks_per_op", per_op(parks));
    v.insert(
        "primitives.parked_handoff_share",
        ratio(parked, parked + direct),
    );
    v.insert("primitives.spins_per_op", per_op(spins));
    v.insert(
        "primitives.futex_wakes_per_op",
        per_op(counters.get("park.futex_wakes")),
    );
    v.insert("primitives.vol_ctxsw_per_op", per_op(vol));

    // core
    let q_cas = counters.sum(&QUEUE_CAS);
    let q_fail = counters.sum(&QUEUE_CAS_FAIL);
    let s_cas = counters.sum(&STACK_CAS);
    let s_fail = counters.sum(&STACK_CAS_FAIL);
    let cas_all = q_cas + q_fail + s_cas + s_fail;
    let (hits, misses) = (
        counters.get("node_cache.hits"),
        counters.get("node_cache.misses"),
    );
    v.insert("core.cas_per_op", per_op(cas_all));
    v.insert("core.cas_fail_share", ratio(q_fail + s_fail, cas_all));
    v.insert("core.helped_per_op", per_op(counters.get("stack.helped")));
    v.insert("core.node_cache_hit_share", ratio(hits, hits + misses));
    let put = spans.durations(Name::Put);
    let take = spans.durations(Name::Take);
    v.insert("core.put_call_p50_ns", p(&put, 50.0));
    v.insert("core.put_call_p99_ns", p(&put, 99.0));
    v.insert("core.take_call_p50_ns", p(&take, 50.0));
    v.insert("core.take_call_p99_ns", p(&take, 99.0));
    v.insert(
        "core.item_latency_p50_ns",
        p(&spans.durations(Name::Item), 50.0),
    );

    // transfer
    let ring_items = counters.sum(&["ring.push_items", "ring.pop_items"]);
    let ring_updates = counters.sum(&["ring.tail_updates", "ring.head_updates"]);
    v.insert(
        "transfer.ring_items_per_index_cas",
        ratio(ring_items, ring_updates),
    );

    // asynq
    let polls = counters.get("async.polls");
    v.insert("asynq.polls_per_op", per_op(polls));
    v.insert(
        "asynq.pending_share",
        ratio(counters.get("async.pendings"), polls),
    );
    v.insert(
        "asynq.poll_self_p50_ns",
        p(&spans.durations(Name::Poll), 50.0),
    );
    v.insert(
        "asynq.wake_to_repoll_p50_ns",
        p(&spans.durations(Name::WakeToRepoll), 50.0),
    );

    // executor
    let submit_to_start = spans.gaps(Name::Submit, Name::Job, |submit: &Span, job: &Span| {
        job.start_ns as i64 - submit.start_ns as i64
    });
    let finish_to_join = spans.gaps(Name::Job, Name::Join, |job: &Span, join: &Span| {
        join.end_ns as i64 - job.end_ns as i64
    });
    v.insert(
        "executor.execute_call_ns",
        p(&spans.durations(Name::Submit), 50.0),
    );
    v.insert("executor.submit_to_start_p50_ns", p(&submit_to_start, 50.0));
    v.insert("executor.finish_to_join_p50_ns", p(&finish_to_join, 50.0));
    v.insert(
        "executor.largest_pool_size",
        out.data.largest_pool_size as f64,
    );
    v.insert(
        "executor.submit_retry_share",
        ratio(out.data.submit_retries as f64, out.data.attempted as f64),
    );

    // ledger: thread-time per operation, attributed
    let probe = |name: &str| probes.get(name).copied().unwrap_or(0.0);
    let thread_ns = threads_per_op(w) * ratio(window_s * 1e9, ops);
    let (u_pin, u_retire) = (
        probe("reclaim.epoch_pin_ns"),
        probe("reclaim.epoch_retire_ns"),
    );
    // What one probe iteration costs once its own pins and retires are
    // taken out, and per which count of CASes.
    let protocol_unit = |pair_ns: f64, counts: &BTreeMap<&'static str, f64>, cas: &[&str]| {
        let count = |n: &str| counts.get(n).copied().unwrap_or(0.0);
        let reclaim = count("epoch.pins") * u_pin + count("reclaim.retired") * u_retire;
        let events: f64 = cas.iter().map(|n| count(n)).sum();
        ((pair_ns - reclaim).max(0.0), events)
    };
    let (q_ns, q_events) = protocol_unit(
        probe("core.queue_pair_1t_ns"),
        &units.queue_pair,
        &QUEUE_CAS,
    );
    let (s_ns, s_events) = protocol_unit(
        probe("core.stack_pair_1t_ns"),
        &units.stack_pair,
        &STACK_CAS,
    );
    let (linked_ns, _) = protocol_unit(
        probe("transfer.linked_put_poll_1t_ns"),
        &units.linked_pair,
        &[],
    );
    let (aq_ns, _) = protocol_unit(probe("asynq.pair_1t_ns"), &units.asynq_pair, &[]);
    let ring_pair = probe("transfer.ring_push_pop_ns");
    let protocol_ns = per_op(q_cas + q_fail) * ratio(q_ns, q_events)
        + per_op(s_cas + s_fail) * ratio(s_ns, s_events)
        + per_op(ring_items) / 2.0 * ring_pair
        + if w == Workload::BufferedLinked {
            linked_ns
        } else {
            0.0
        };
    let reclaim_ns = per_op(pins) * u_pin + per_op(retired) * u_retire;
    let blocked_ns = (thread_ns - per_op(cpu_ns)).max(0.0);
    let wait_ns = blocked_ns
        + per_op(parks) * probe("primitives.park_cycle_cpu_ns")
        + per_op(spins) * probe("primitives.spin_iter_ns");
    // The async surface: what a send/recv pair costs through the futures
    // beyond the queue protocol beneath them, per poll; the bounded queue's
    // wrapper around its ring; one wheel insert per pending timed poll.
    let polls_in_pair = units.asynq_pair.get("async.polls").copied().unwrap_or(3.0);
    let surface_ns = per_op(polls) * ratio((aq_ns - q_ns).max(0.0), polls_in_pair)
        + per_op(ring_items) / 2.0
            * (probe("transfer.bounded_put_poll_1t_ns") - ring_pair).max(0.0)
        + if w == Workload::DispatchOpen {
            per_op(counters.get("async.pendings")) * probe("asynq.wheel_insert_ns")
        } else {
            0.0
        };
    // The consumer: job bodies, the pool's own call, and its result slot,
    // which blocks the joiner on a condvar of its own: every voluntary
    // context switch that is not a park of the library's is one of those,
    // priced like a park cycle.
    let own_blocks = (per_op(vol) - per_op(parks)).max(0.0);
    let jobs = spans.durations(Name::Job);
    let job_share = ratio(
        jobs.len() as f64,
        spans.durations(Name::Request).len().max(1) as f64,
    );
    let consumer_ns = match w {
        // `submit` minus the wake of the worker inside it, which the park
        // cycle already accounts for.
        Workload::PoolRoundtrip => {
            let submit = p(&spans.durations(Name::Submit), 50.0);
            p(&jobs, 50.0)
                + (submit - probe("primitives.unpark_call_ns")).max(0.0)
                + own_blocks * probe("primitives.park_cycle_cpu_ns")
        }
        Workload::DispatchOpen => p(&jobs, 50.0) * job_share,
        _ => 0.0,
    };
    let parts = [protocol_ns, reclaim_ns, wait_ns, surface_ns, consumer_ns];
    let residual_ns = (thread_ns - parts.iter().sum::<f64>()).max(0.0);
    for (name, ns) in [
        ("ledger.protocol_share", protocol_ns),
        ("ledger.reclaim_share", reclaim_ns),
        ("ledger.wait_share", wait_ns),
        ("ledger.surface_share", surface_ns),
        ("ledger.consumer_share", consumer_ns),
        ("ledger.residual_share", residual_ns),
    ] {
        v.insert(name, ratio(ns, thread_ns));
    }
    v
}

/// One line per span name: how many, the median duration, and for names
/// that have children the median self time.
pub fn span_summary(spans: &SpanSet) -> Vec<String> {
    const NAMES: [Name; 11] = [
        Name::Item,
        Name::Put,
        Name::Take,
        Name::Roundtrip,
        Name::Submit,
        Name::Join,
        Name::Job,
        Name::Request,
        Name::SchedLag,
        Name::Poll,
        Name::WakeToRepoll,
    ];
    NAMES
        .iter()
        .filter_map(|&name| {
            let durations = spans.durations(name);
            if durations.is_empty() {
                return None;
            }
            let mut line = format!(
                "span {:<15} n={:<7} p50 {:>9.0} ns",
                name.as_str(),
                durations.len(),
                p(&durations, 50.0)
            );
            if NAMES.iter().any(|c| c.parent() == Some(name)) {
                line += &format!("  self p50 {:>9.0} ns", p(&spans.self_times(name), 50.0));
            }
            Some(line)
        })
        .collect()
}
