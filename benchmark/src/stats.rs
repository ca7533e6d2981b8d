//! Order statistics used by every reported number.
//!
//! One quantile rule for the whole benchmark — the nearest-rank pick on a
//! sorted copy — so `latency_p95_ms` means the same thing in the run, in
//! `compare`, and in `summarize`. Nearest rank returns a value that was
//! actually measured (no interpolation between two windows that never
//! happened), and for p95 over ≥200 windows leaves ≥10 samples beyond it.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by nearest rank: the sample at
/// 1-based rank `ceil(q·n)`, clamped to `1..=n`.
///
/// # Panics
/// Panics on an empty slice or a NaN sample — both are benchmark bugs.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: mean of the two middle samples for even counts, so a set of
/// run medians reads the way `statistics.median` does in the driver.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = sorted.len();
    if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 }
}

/// First and third quartile by the *exclusive* method — what Python's
/// `statistics.quantiles(values, n=4)` returns and therefore what the
/// acceptance check computes. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = sorted.len();
    // Python's rule verbatim: j = i·(n+1) div 4 clamped to 1..n-1, and the
    // remainder taken *after* clamping, so tiny samples extrapolate the
    // same way the driver's do.
    let m = n as i64;
    let cut = |i: i64| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1) - j * 4) as f64;
        (sorted[j as usize - 1] * (4.0 - delta) + sorted[j as usize] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the spread the
/// acceptance check holds against each metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_picks_nearest_rank_samples() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 100.0);
        assert_eq!(quantile(&v, 0.95), 190.0, "ten samples lie beyond p95 of 200");
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 200.0);
        // Order of the input does not matter, and the pick is a sample.
        assert_eq!(quantile(&[9.0, 1.0, 5.0], 0.5), 5.0);
        assert_eq!(quantile(&[3.5], 0.95), 3.5);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
