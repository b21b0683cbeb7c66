//! The arithmetic every reported number goes through: medians, quartile
//! spread, the tail-percentile rule and the geometric mean.

use snb_driver::percentile_sorted;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one measurement.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default exclusive method) — the driver that judges this
/// benchmark computes spread that way, so `compare` must agree with it.
/// `None` below two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4, clamped so both neighbours exist.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median; 0 for a single value.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

/// The highest percentile of the ladder p99 / p95 / p90 that still has at
/// least ten of `n` samples beyond it; the median when even p90 has not.
pub fn tail_percentile(n: usize) -> f64 {
    for p in [0.99, 0.95, 0.90] {
        let rank = (p * n as f64).ceil() as usize;
        if n >= rank + 10 {
            return p;
        }
    }
    0.50
}

/// Median and tail (see [`tail_percentile`]) of one kind's latency samples,
/// in the samples' unit, plus the percentile the tail was read at. Sorts in
/// place.
pub fn p50_and_tail(samples: &mut [u64]) -> (u64, u64, f64) {
    samples.sort_unstable();
    let p = tail_percentile(samples.len());
    (percentile_sorted(samples, 0.50), percentile_sorted(samples, p), p)
}

/// Geometric mean; every value weighs the same whatever its magnitude, so a
/// 10 % change to a 20 µs query moves it as much as one to a 4 ms query.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(199), 0.90);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(99), 0.50);
        assert_eq!(tail_percentile(0), 0.50);
    }

    #[test]
    fn p50_and_tail_read_nearest_rank() {
        let mut samples: Vec<u64> = (1..=1_000).rev().collect();
        assert_eq!(p50_and_tail(&mut samples), (500, 990, 0.99));
        let mut few: Vec<u64> = vec![9, 1, 5];
        assert_eq!(p50_and_tail(&mut few), (5, 5, 0.50));
    }

    #[test]
    fn geomean_weighs_ratios_not_magnitudes() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
        // Halving the small value moves it as much as halving the large one.
        let a = geomean(&[10.0, 1_000.0]);
        assert!((geomean(&[5.0, 1_000.0]) / a - geomean(&[10.0, 500.0]) / a).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
