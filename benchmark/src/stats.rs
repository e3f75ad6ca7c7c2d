//! Order statistics used by every reported number.

/// 1-based nearest-rank of quantile `q` among `n` samples:
/// `ceil(q·n)` clamped to `[1, n]` (the rule `tgnn_serve::LatencySummary`
/// uses, so the benchmark's percentiles line up with the server's own).
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "nearest_rank: no samples");
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Whether quantile `q` of `n` samples has [`MIN_SAMPLES_BEYOND`] samples
/// strictly above its rank — below that the "percentile" is a handful of
/// outliers and does not repeat between runs.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && n - nearest_rank(n, q) >= MIN_SAMPLES_BEYOND
}

/// Sorts in place and returns the median (mean of the two middle values for
/// an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median: no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the rule the acceptance driver applies to a set of runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles: need two samples");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_servers_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        // n = 10: p50 → rank 5, p99 → rank 10.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 5.0);
        assert_eq!(percentile_sorted(&v, 0.99), 10.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(20, 0.50));
        assert!(!tail_supported(19, 0.50));
        assert!(!tail_supported(0, 0.50));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
