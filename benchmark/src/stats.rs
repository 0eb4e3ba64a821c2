//! Order statistics the harness reports: medians, the tail-percentile
//! rule, and the quartile spread the acceptance check uses.

/// Sorted copy (NaNs are a harness bug: timings and counts never are).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in measurements"));
    v
}

/// Median; 0.0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `p` (0..100) of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a sample of `n` — the tail a run of this length
/// can support. `None` below n = 20 (not even the median qualifies).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per mille, so the count beyond is exact integer arithmetic
    // (10 000 × (1 − 0.999) is 9.99… in floating point).
    const LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];
    LADDER
        .into_iter()
        .find(|pm| n * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them — the acceptance check
/// is stated in those terms, so `--compare` must agree with it digit for
/// digit. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4).enumerate() {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[slot] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the benchmark's bounds are judged against.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_even_odd_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        // n ≈ 160, the service workload: 16 samples beyond p90, 8 beyond p95.
        assert_eq!(tail_percentile(160), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-15);
    }
}
