//! Order statistics shared by the run and compare modes.

/// 1-based nearest rank of the `p`th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of all samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples ranked beyond the nearest-rank `p`th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support reporting the `p`th percentile: at least
/// ten samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// The median (mean of the middle pair for an even count), as Python's
/// `statistics.median` gives it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of no values");
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method). A single value is
/// its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    assert!(!s.is_empty(), "quartiles of no values");
    if s.len() == 1 {
        return (s[0], s[0]);
    }
    let n = s.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Ascending copy (NaN-free inputs; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 51.0), 3.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(beyond(64, 99.0), 0);
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
