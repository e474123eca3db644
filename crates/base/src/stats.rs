//! Running statistics used by the experiment harnesses.
//!
//! The paper reports means with 95% confidence intervals (Section 6:
//! "Confidence intervals in the following figures are calculated with 95%
//! confidence level"), so [`OnlineStats`] exposes exactly that via
//! Welford's algorithm. Distributions (latency tails, run lengths) are
//! histogrammed by `uat_metrics::LogHistogram`, not here.

use crate::json::{FromJson, Json, JsonError, ToJson};
use serde::{Deserialize, Serialize};

/// Numerically stable single-pass mean/variance accumulator (Welford).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    /// Same as [`OnlineStats::new`]. (A derived all-zero default would
    /// seed `min` at 0.0 and drag every minimum down to it.)
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator); 0 for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; NaN when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation; NaN when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Half-width of the 95% confidence interval of the mean
    /// (normal approximation; the paper's figures use the same).
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        1.96 * self.stddev() / (self.n as f64).sqrt()
    }

    /// Snapshot summary.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count(),
            mean: self.mean(),
            stddev: self.stddev(),
            ci95: self.ci95(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// Immutable snapshot of an [`OnlineStats`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Half-width of the 95% confidence interval.
    pub ci95: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1} ± {:.1} (n={}, min={:.1}, max={:.1})",
            self.mean, self.ci95, self.count, self.min, self.max
        )
    }
}

impl ToJson for OnlineStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::UInt(self.n)),
            ("mean", Json::Num(self.mean)),
            ("m2", Json::Num(self.m2)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
        ])
    }
}

impl FromJson for OnlineStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let n = v.field("n")?.as_u64()?;
        // An empty accumulator writes ±infinity min/max, which JSON
        // spells as null; re-seed them so the round trip is lossless.
        let (min, max) = if n == 0 {
            (f64::INFINITY, f64::NEG_INFINITY)
        } else {
            (v.field("min")?.as_f64()?, v.field("max")?.as_f64()?)
        };
        Ok(OnlineStats {
            n,
            mean: v.field("mean")?.as_f64()?,
            m2: v.field("m2")?.as_f64()?,
            min,
            max,
        })
    }
}

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("mean", Json::Num(self.mean)),
            ("stddev", Json::Num(self.stddev)),
            ("ci95", Json::Num(self.ci95)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
        ])
    }
}

impl FromJson for Summary {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Summary {
            count: v.field("count")?.as_u64()?,
            mean: v.field("mean")?.as_f64()?,
            stddev: v.field("stddev")?.as_f64()?,
            ci95: v.field("ci95")?.as_f64()?,
            min: v.field("min")?.as_f64()?,
            max: v.field("max")?.as_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
        assert_eq!(s.ci95(), 0.0);
    }

    #[test]
    fn known_values() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance with n-1 denominator: 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        let mut r = crate::SplitMix64::new(1);
        for i in 0..10_000 {
            let x = r.next_f64();
            if i < 100 {
                small.push(x);
            }
            large.push(x);
        }
        assert!(large.ci95() < small.ci95());
    }

    #[test]
    fn stats_json_round_trip() {
        use crate::json::{FromJson, Json, ToJson};

        let mut s = OnlineStats::new();
        for x in [1.0, 2.5, -3.0, 42.0] {
            s.push(x);
        }
        let back = OnlineStats::from_json(&Json::parse(&s.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.count(), s.count());
        assert_eq!(back.mean(), s.mean());
        assert_eq!(back.variance(), s.variance());
        assert_eq!(back.min(), s.min());
        assert_eq!(back.max(), s.max());

        let empty = OnlineStats::from_json(
            &Json::parse(&OnlineStats::new().to_json().to_string()).unwrap(),
        )
        .unwrap();
        assert_eq!(empty.count(), 0);
        assert!(empty.min().is_nan());
    }
}
