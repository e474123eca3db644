//! Order statistics and the bound comparison the benchmark gates on.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method) because that is what the driver computes
//! from the ten per-seed values of a metric; using the same definition
//! here makes `run --aa` print the spreads the driver will see.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; the mean of the two middle values for an even
/// count. Panics on an empty slice (a metric with no samples is a bug in
/// the caller, not a value to report).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(p25, p50, p75)` as `statistics.quantiles(values, n=4)` gives them.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // `delta` may exceed 4 or go negative at the clamped ends, where
        // Python extrapolates; keep its arithmetic exactly.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The `q`-quantile (0..=1) by linear interpolation between closest
/// ranks; used for the microbenchmarks' p90.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let v = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Inter-quartile range as a share of the median — the spread the driver
/// compares against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (p25, p50, p75) = quartiles(values);
    if p50 == 0.0 {
        return 0.0;
    }
    (p75 - p25) / p50.abs()
}

/// By what share of `first` the `second` value is *worse* (negative when
/// it is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// Whether `second` is no worse than `first` by more than `bound`.
pub fn within_bound(first: f64, second: f64, better: Better, bound: f64) -> bool {
    worsening(first, second, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 0.9), 46.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // Lower is better: 10% slower is within a 10% bound, 11% is not.
        assert!(within_bound(100.0, 110.0, Better::Lower, 0.10));
        assert!(!within_bound(100.0, 111.0, Better::Lower, 0.10));
        assert!(within_bound(100.0, 50.0, Better::Lower, 0.0));
        // Higher is better: a drop counts, a rise never does.
        assert!(within_bound(100.0, 90.0, Better::Higher, 0.10));
        assert!(!within_bound(100.0, 89.0, Better::Higher, 0.10));
        assert!(within_bound(100.0, 500.0, Better::Higher, 0.0));
        assert!((worsening(200.0, 150.0, Better::Higher) - 0.25).abs() < 1e-12);
        assert!((worsening(200.0, 150.0, Better::Lower) + 0.25).abs() < 1e-12);
    }
}
