//! From what a run recorded to the named metrics: a value per rep
//! (percentiles are taken per rep), then one value over the reps.
//!
//! The value over the reps is not the median but the **quiet half**: the
//! mean of the better half of the reps (the 13 lowest of 25 where lower is
//! better, the 13 highest where higher is). Interference from the host only ever slows a rep down
//! (a vCPU descheduled, a wake-up delayed), and on this host it comes in
//! bursts that can cover most of a run; the reps it spared are the ones that
//! measured the code. A change to the code moves every rep, the quiet ones
//! included, so the estimate loses no sensitivity to the library; what it
//! does not see is a slowdown that hits fewer than half of the reps; the
//! tail *inside* each rep (`bench.op_p99_ns`) is there for that.
//!
//! Why the half and not the best rep or the best fifth: two workloads have a
//! rare *fast* mode of their own (`handoff_unfair_spin` can lock into 2.7M/s
//! for seconds, 3.5 times its usual rate), and an estimate made of a run's
//! few best reps reports that mode whenever it shows up at all.

use std::collections::BTreeMap;

use crate::metrics::Better;
use crate::stats::{iqr_share, percentile};
use crate::workloads::{Plan, RunOutput, Setup};

/// Metric values by registry name.
pub type Values = BTreeMap<&'static str, f64>;

/// `value` for a table: four decimals, or four significant digits where
/// those would hide it (a set-up lasts 0.1-1 ms and is reported in s).
pub fn show(value: f64) -> String {
    if value != 0.0 && value.abs() < 0.01 {
        format!("{value:.3e}")
    } else {
        format!("{value:.4}")
    }
}

/// Operations that completed in each rep.
pub fn ops_per_rep(out: &RunOutput) -> Vec<f64> {
    out.data
        .samples
        .iter()
        .zip(&out.data.lateness)
        .map(|(s, l)| (s.len() as u64 * out.data.block_ops as u64 + l.len() as u64) as f64)
        .collect()
}

/// The quiet half of `per_rep` (see the module docs): the mean of the better
/// half of the reps that have a value (rounded up); 0 when none has one.
pub fn quiet_half(per_rep: impl Iterator<Item = Option<f64>>, better: Better) -> f64 {
    let mut values: Vec<f64> = per_rep.flatten().filter(|v| !v.is_nan()).collect();
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered out"));
    if better == Better::Higher {
        values.reverse();
    }
    let quiet = &values[..values.len().div_ceil(2)];
    quiet.iter().sum::<f64>() / quiet.len() as f64
}

/// One value per rep of everything the end-to-end metrics are made of.
/// `None`: the rep saw no operation.
#[derive(Debug, Default)]
pub struct PerRep {
    pub ops_per_s: Vec<Option<f64>>,
    pub cpu_us_per_op: Vec<Option<f64>>,
    pub op_p50_ns: Vec<Option<f64>>,
    pub op_p99_ns: Vec<Option<f64>>,
}

/// The `p`-th percentile of each rep's samples.
pub fn percentile_per_rep(per_rep: &mut [Vec<u32>], p: f64) -> Vec<Option<f64>> {
    per_rep
        .iter_mut()
        .map(|s| percentile(s, p).map(f64::from))
        .collect()
}

/// The quiet half over reps of the `p`-th percentile of each rep's samples
/// (times: lower is better).
pub fn percentile_over_reps(per_rep: &mut [Vec<u32>], p: f64) -> f64 {
    quiet_half(percentile_per_rep(per_rep, p).into_iter(), Better::Lower)
}

/// The `p`-th percentile of the samples of all reps taken together: what the
/// noise guards read, so that reps the host disturbed count in full.
pub fn percentile_pooled(per_rep: &[Vec<u32>], p: f64) -> f64 {
    let mut all: Vec<u32> = per_rep.iter().flatten().copied().collect();
    percentile(&mut all, p).map_or(0.0, f64::from)
}

pub fn per_rep(plan: &Plan, out: &mut RunOutput) -> PerRep {
    let ops = ops_per_rep(out);
    // A closed loop's samples lie back to back, so their sum is the time the
    // rep's operations took, to the nanosecond; an open loop's overlap, and
    // its reps are as long as the schedule says.
    let closed_loop = out.data.lateness.iter().all(Vec::is_empty);
    let block = out.data.block_ops as f64;
    let per_op = |v: Vec<Option<f64>>| v.into_iter().map(|x| x.map(|ns| ns / block)).collect();
    PerRep {
        ops_per_s: ops
            .iter()
            .zip(&out.data.samples)
            .map(|(&n, samples)| {
                let ns = if closed_loop {
                    samples.iter().map(|&s| s as u64).sum::<u64>()
                } else {
                    plan.rep_ns
                };
                (n > 0.0).then(|| n / (ns as f64 / 1e9))
            })
            .collect(),
        cpu_us_per_op: out
            .usage
            .windows(2)
            .zip(&ops)
            .map(|(u, &n)| (n > 0.0).then(|| (u[1].cpu_ns - u[0].cpu_ns) as f64 / 1e3 / n))
            .collect(),
        op_p50_ns: per_op(percentile_per_rep(&mut out.data.samples, 50.0)),
        op_p99_ns: per_op(percentile_per_rep(&mut out.data.samples, 99.0)),
    }
}

/// The quiet half over a run's set-ups of the part of a set-up `part` picks,
/// in seconds.
pub fn setup_s(out: &RunOutput, part: impl Fn(&Setup) -> u64) -> f64 {
    let seconds = out.setups.iter().map(|s| Some(part(s) as f64 / 1e9));
    quiet_half(seconds, Better::Lower)
}

/// The end-to-end metrics of one run, plus how far its reps disagree (the
/// quartile spread of their rates as a share of the median rate).
pub fn end_to_end(reps: &PerRep, out: &RunOutput) -> (Values, f64) {
    let over = |per_rep: &[Option<f64>], better| quiet_half(per_rep.iter().copied(), better);
    let mut v = Values::new();
    v.insert("setup_s", setup_s(out, |s| s.total_ns));
    v.insert("ops_per_s", over(&reps.ops_per_s, Better::Higher));
    v.insert("cpu_us_per_op", over(&reps.cpu_us_per_op, Better::Lower));
    v.insert("op_p50_ns", over(&reps.op_p50_ns, Better::Lower));
    v.insert("peak_rss_mb", out.peak_rss_mb);
    let rates: Vec<f64> = reps.ops_per_s.iter().flatten().copied().collect();
    (v, iqr_share(&rates).unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_half_takes_the_better_end_and_skips_empty_reps() {
        let reps = |v: &[f64]| v.iter().map(|&x| Some(x)).collect::<Vec<_>>();
        let ten = reps(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!(quiet_half(ten.iter().copied(), Better::Lower), 3.0);
        assert_eq!(quiet_half(ten.iter().copied(), Better::Higher), 8.0);
        let sparse = [None, Some(5.0), None];
        assert_eq!(quiet_half(sparse.into_iter(), Better::Lower), 5.0);
        assert_eq!(quiet_half(std::iter::empty(), Better::Higher), 0.0);
        let mut samples = vec![vec![1, 2, 3, 4], vec![], vec![10, 20, 30, 40]];
        assert_eq!(percentile_over_reps(&mut samples, 50.0), 2.0);
        // Pooled, the disturbed rep counts: 4 of the 8 samples are at or below 4.
        assert_eq!(percentile_pooled(&samples, 50.0), 4.0);
        assert_eq!(percentile_pooled(&samples, 99.0), 40.0);
        assert_eq!(percentile_pooled(&[], 99.0), 0.0);
        let five = reps(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(quiet_half(five.iter().copied(), Better::Lower), 2.0);
    }
}
