//! Order statistics for the harness: per-rep percentiles, medians over
//! reps, and the quartile spread the acceptance rule is stated in.

/// The `p`-th percentile (0 < p <= 100) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `p` % of the samples at or below
/// it. Reorders `samples`; returns `None` when it is empty.
pub fn percentile<T: Ord + Copy>(samples: &mut [T], p: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    Some(*samples.select_nth_unstable(idx).1)
}

/// Median of `values` (mean of the two middle ones for an even count).
/// `None` when empty or when any value is NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so that `repeat` prints the spread the acceptance rule is stated in.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
    let (ld, n) = (v.len(), 4usize);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// (Q3 - Q1) / median over `values`: the spread of one metric over sets.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Rng;

    #[test]
    fn percentile_matches_sorted_oracle() {
        let mut rng = Rng::new(7);
        for len in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let data: Vec<u32> = (0..len).map(|_| (rng.next_u64() % 500) as u32).collect();
            let mut sorted = data.clone();
            sorted.sort_unstable();
            for p in [0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let rank = ((p / 100.0 * len as f64).ceil() as usize).clamp(1, len);
                let mut scratch = data.clone();
                assert_eq!(
                    percentile(&mut scratch, p),
                    Some(sorted[rank - 1]),
                    "len {len} p {p}"
                );
            }
        }
        assert_eq!(percentile::<u32>(&mut [], 50.0), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(iqr_share(&v), Some(1.0));
    }
}
