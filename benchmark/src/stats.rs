//! Medians, quartiles and the percentile rule.

/// Median of the values (mean of the two middle ones for an even count).
///
/// # Panics
/// On an empty slice: every caller has at least one trial.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), because that is what the driver
/// computes the spread with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = 4usize;
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the driver's spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50/p90/p99 that still has at least ten samples beyond
/// it. A tail read off fewer samples is one slow request, not a
/// percentile. Nothing above p99 is reported, so that a longer run does
/// not silently change which percentile a metric names.
pub fn tail_percentile(n_samples: usize) -> f64 {
    [99.0, 90.0]
        .into_iter()
        .find(|p| n_samples as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(1_000_000), 99.0);
    }
}
