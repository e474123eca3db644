//! HDR-style log-bucketed histogram: the workspace's one histogram.
//!
//! Every power-of-two range is split into `2^`[`SUB_BITS`] *linear*
//! sub-buckets (the HdrHistogram trick), bounding any quantile's
//! relative error by `1/2^SUB_BITS` (≤ 3.2% at the default of 5) while
//! still covering the whole `u64` range in a fixed [`NUM_BUCKETS`]-slot
//! array.
//!
//! The live [`LogHistogram`] records with relaxed atomics (any thread
//! may record; the runtime shards hot histograms per worker anyway);
//! [`HistSnapshot`] is the plain-array form that answers quantile
//! queries. A single-threaded owner
//! (the simulator's engine) records into a `HistSnapshot` directly and
//! [`absorb`](LogHistogram::absorb)s it into a registry's histogram
//! once, at the end of a run.

use std::sync::atomic::{AtomicU64, Ordering};
use uat_base::json::{Json, ToJson};

/// Sub-bucket resolution: each power-of-two range gets `2^SUB_BITS`
/// linear sub-buckets, so relative quantile error is ≤ `1/2^SUB_BITS`.
pub const SUB_BITS: u32 = 5;

const SUB: usize = 1 << SUB_BITS;

/// Total bucket count covering all of `u64`:
/// one exact region for values `< 2^SUB_BITS` plus one `2^SUB_BITS`-wide
/// region per remaining binary order of magnitude.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Bucket index holding `v`. Values below `2^SUB_BITS` map exactly
/// (bucket width 1); above, the top `SUB_BITS + 1` significant bits
/// select the bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let h = 63 - v.leading_zeros(); // 2^h <= v, h >= SUB_BITS
    let sub = (v >> (h - SUB_BITS)) as usize - SUB;
    (((h - SUB_BITS + 1) as usize) << SUB_BITS) + sub
}

/// Smallest value mapping to bucket `i`.
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    let r = i >> SUB_BITS;
    let sub = (i & (SUB - 1)) as u64;
    if r == 0 {
        sub
    } else {
        (SUB as u64 + sub) << (r - 1)
    }
}

/// Largest value mapping to bucket `i`.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(i + 1) - 1
    }
}

/// A concurrently recordable log-bucketed histogram.
///
/// ~15 KiB of relaxed atomics; `record` is two `fetch_add`s (bucket +
/// running sum). Reads go through [`LogHistogram::snapshot`].
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Add every sample of `snap` (bucket counts and sum), as if each
    /// had been [`record`](Self::record)ed here.
    pub fn absorb(&self, snap: &HistSnapshot) {
        for (b, &c) in self.buckets.iter().zip(&snap.buckets) {
            if c > 0 {
                b.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
    }

    /// Freeze the current contents. Concurrent `record`s may or may not
    /// be included (racy read), but each included sample is counted
    /// exactly once.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A plain histogram: frozen from a [`LogHistogram`], or recorded
/// into directly by a single owner. Mergeable and subtractable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total recorded samples.
    count: u64,
    /// Sum of all recorded values.
    sum: u64,
    /// Per-bucket sample counts (dense, [`NUM_BUCKETS`] long).
    buckets: Vec<u64>,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }

    /// Build directly from samples (test/offline convenience).
    pub fn of_samples(samples: impl IntoIterator<Item = u64>) -> Self {
        let mut s = Self::empty();
        for v in samples {
            s.record(v);
        }
        s
    }

    /// Record one sample (the single-owner counterpart of
    /// [`LogHistogram::record`]).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        // Wrapping, to match the live histogram's atomic adds.
        self.sum = self.sum.wrapping_add(v);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts (dense).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The upper bound of the bucket holding the `ceil(q·count)`-th
    /// smallest sample — i.e. at most one sub-bucket's width above the
    /// exact q-quantile (relative error ≤ `1/2^`[`SUB_BITS`]).
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(NUM_BUCKETS - 1)
    }

    /// Upper bound of the highest populated bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_upper)
    }

    /// The standard quantile digest: count, p50/p90/p99/p999, max.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }
}

/// Quantile digest of a [`HistSnapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Upper bound of the highest populated bucket.
    pub max: u64,
}

impl ToJson for HistSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("p50", Json::UInt(self.p50)),
            ("p90", Json::UInt(self.p90)),
            ("p99", Json::UInt(self.p99)),
            ("p999", Json::UInt(self.p999)),
            ("max", Json::UInt(self.max)),
        ])
    }
}

impl ToJson for HistSnapshot {
    /// Sparse encoding: only populated buckets, as
    /// `[[index, upper_bound, count], ...]`, plus the digest.
    fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                Json::Arr(vec![
                    Json::UInt(i as u64),
                    Json::UInt(bucket_upper(i)),
                    Json::UInt(c),
                ])
            })
            .collect();
        Json::obj([
            ("summary", self.summary().to_json()),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_u64() {
        // Every bucket's range starts where the previous one ended.
        for i in 1..NUM_BUCKETS {
            assert_eq!(
                bucket_lower(i),
                bucket_upper(i - 1) + 1,
                "gap or overlap at bucket {i}"
            );
        }
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_index_inverts_bounds() {
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i, "lower bound of {i}");
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper bound of {i}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB as u64 {
            let s = HistSnapshot::of_samples([v]);
            assert_eq!(s.quantile(0.5), v);
            assert_eq!(s.max(), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for shift in 0..58 {
            let v = 1_234_567u64.rotate_left(shift) | 1;
            let i = bucket_index(v);
            let width = bucket_upper(i) - bucket_lower(i) + 1;
            if v >= SUB as u64 {
                assert!(
                    width <= v / SUB as u64 + 1,
                    "bucket width {width} too wide for value {v}"
                );
            }
        }
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        // 1..=1000: p50 lands in the bucket holding 500, p999 in 1000's.
        let s = HistSnapshot::of_samples(1..=1000);
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        let within = |q: f64, exact: u64| {
            let got = s.quantile(q);
            assert!(got >= exact, "q{q}: {got} < exact {exact}");
            assert!(
                got - exact <= exact / SUB as u64,
                "q{q}: {got} more than one sub-bucket above {exact}"
            );
        };
        within(0.5, 500);
        within(0.9, 900);
        within(0.99, 990);
        within(0.999, 999);
        within(1.0, 1000);
    }

    #[test]
    fn json_round_trip_preserves_buckets() {
        let s = HistSnapshot::of_samples([0u64, 1, 31, 32, 1000, u64::MAX]);
        let v = Json::parse(&s.to_json().to_string()).unwrap();
        let populated: Vec<(usize, u64)> = (s.buckets().iter().enumerate())
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        let entries = v.field("buckets").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), populated.len());
        for (e, &(i, c)) in entries.iter().zip(&populated) {
            let e: Vec<u64> = e
                .as_arr()
                .unwrap()
                .iter()
                .map(|x| x.as_u64().unwrap())
                .collect();
            assert_eq!(e, [i as u64, bucket_upper(i), c]);
        }
        // The digest's own fields are read by `summary_json_round_trip`.
        let summary = v.field("summary").unwrap().to_string();
        assert_eq!(summary, s.summary().to_json().to_string());
    }

    #[test]
    fn absorb_equals_recording_each_sample() {
        let samples = [0u64, 5, 31, 32, 4_096, 1 << 40];
        let live = LogHistogram::new();
        live.record(77);
        live.absorb(&HistSnapshot::of_samples(samples));
        let mut want = HistSnapshot::of_samples(samples);
        want.record(77);
        assert_eq!(live.snapshot(), want);
    }

    #[test]
    fn summary_json_round_trip() {
        let s = HistSnapshot::of_samples((1..=1000).map(|v| v * 3)).summary();
        let v = Json::parse(&s.to_json().to_string()).unwrap();
        let u = |name| v.field(name).unwrap().as_u64().unwrap();
        assert_eq!(u("count"), s.count);
        assert_eq!(u("sum"), s.sum);
        assert_eq!(u("p50"), s.p50);
        assert_eq!(u("p90"), s.p90);
        assert_eq!(u("p99"), s.p99);
        assert_eq!(u("p999"), s.p999);
        assert_eq!(u("max"), s.max);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.summary(), HistSummary::default());
    }
}
