//! Online metrics for the uni-address runtime.
//!
//! The trace layer (`uat-trace`) reconstructs a run *after* it finished;
//! this crate is the *during* view: counters an exporter can read while
//! workers are still running. Everything is
//! built from three primitives:
//!
//! - [`Counter`] / [`Gauge`]: per-worker shards, one cache line each, so
//!   a worker's hot-path increment is a relaxed load + store on a line
//!   no other core writes (shards are single-writer — no `lock` prefix
//!   needed). Aggregation happens on the (rare) read side.
//! - [`LogHistogram`]: an HDR-style log-bucketed histogram — each
//!   power-of-two range is split into `2^`[`SUB_BITS`] linear
//!   sub-buckets, bounding the relative error of any quantile by one
//!   sub-bucket width (≤ 1/2^[`SUB_BITS`] of the value). Snapshots are
//!   plain arrays, queryable for p50/p90/p99/p999 without touching the
//!   live atomics again.
//! - [`Registry`]: a named collection of the above that freezes into a
//!   [`Snapshot`], with two exporters — Prometheus text
//!   ([`Snapshot::prometheus_text`]) and `uat_base::json`
//!   ([`uat_base::json::ToJson`] on [`Snapshot`]).
//!
//! [`EventRing`] is the odd one out: a tiny flight-recorder ring
//! (single writer, racy reader) that no runtime in the workspace
//! records into; only the benchmark's micro layer writes one, to time
//! its push.
//!
//! The crate is dependency-free beyond `uat-base` (for the JSON model)
//! and contains no `unsafe`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod hist;
pub mod names;
mod registry;
mod ring;
pub mod shm;

pub use hist::{
    bucket_index, bucket_lower, bucket_upper, HistSnapshot, HistSummary, LogHistogram, NUM_BUCKETS,
    SUB_BITS,
};
pub use registry::{MetricSnapshot, Registry, Snapshot, ValueSnapshot};
pub use ring::{EventRing, FlightEvent};

use std::sync::atomic::{AtomicU64, Ordering};

/// Pads (and aligns) a value to a cache line so per-worker shards never
/// share one — the whole point of sharding is that a worker's relaxed
/// `fetch_add` stays local to a line no other core writes.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

/// A monotonically increasing counter, sharded per worker.
///
/// Each shard is **single-writer**: only worker `w` increments shard
/// `w`, so `add` is a relaxed load + store (no `lock` prefix) on a line
/// no other core writes — concurrent `add`s to the *same* shard may lose
/// increments. `total` and `per_worker` aggregate on read; readers see a
/// racy-but-coherent view (each shard monotone, no tearing within a
/// shard), which is all a snapshot needs.
#[derive(Debug)]
pub struct Counter {
    shards: Box<[CachePadded<AtomicU64>]>,
}

impl Counter {
    /// A counter with one shard per worker.
    pub fn new(workers: usize) -> Self {
        Counter {
            shards: (0..workers.max(1))
                .map(|_| CachePadded::default())
                .collect(),
        }
    }

    /// Number of shards (workers) this counter was built for.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Add 1 to `worker`'s shard.
    #[inline]
    pub fn inc(&self, worker: usize) {
        self.add(worker, 1);
    }

    /// Add `n` to `worker`'s shard. Single-writer: the shard's owning
    /// worker only (a racing second writer can lose increments).
    #[inline]
    pub fn add(&self, worker: usize, n: u64) {
        let shard = &self.shards[worker].0;
        shard.store(
            shard.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// Current value of one shard.
    pub fn get(&self, worker: usize) -> u64 {
        self.shards[worker].0.load(Ordering::Relaxed)
    }

    /// Sum over all shards.
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// All shard values, indexed by worker.
    pub fn per_worker(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .collect()
    }
}

/// A last-written-value gauge, sharded per worker (e.g. current deque
/// depth). `total` sums the shards, which is the natural reading for
/// additive gauges like queue depths.
#[derive(Debug)]
pub struct Gauge {
    shards: Box<[CachePadded<AtomicU64>]>,
}

impl Gauge {
    /// A gauge with one shard per worker.
    pub fn new(workers: usize) -> Self {
        Gauge {
            shards: (0..workers.max(1))
                .map(|_| CachePadded::default())
                .collect(),
        }
    }

    /// Number of shards (workers) this gauge was built for.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Overwrite `worker`'s shard.
    #[inline]
    pub fn set(&self, worker: usize, value: u64) {
        self.shards[worker].0.store(value, Ordering::Relaxed);
    }

    /// Current value of one shard.
    pub fn get(&self, worker: usize) -> u64 {
        self.shards[worker].0.load(Ordering::Relaxed)
    }

    /// Sum over all shards.
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// All shard values, indexed by worker.
    pub fn per_worker(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shards_are_cache_line_sized() {
        assert_eq!(std::mem::size_of::<CachePadded<AtomicU64>>(), 64);
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 64);
    }

    #[test]
    fn counter_aggregates_across_shards() {
        let c = Counter::new(4);
        c.inc(0);
        c.add(1, 10);
        c.add(3, 5);
        c.inc(3);
        assert_eq!(c.total(), 17);
        assert_eq!(c.per_worker(), vec![1, 10, 0, 6]);
        assert_eq!(c.get(3), 6);
    }

    #[test]
    fn gauge_overwrites_and_sums() {
        let g = Gauge::new(3);
        g.set(0, 7);
        g.set(0, 2);
        g.set(2, 40);
        assert_eq!(g.total(), 42);
        assert_eq!(g.per_worker(), vec![2, 0, 40]);
    }

    #[test]
    fn zero_worker_count_still_has_one_shard() {
        let c = Counter::new(0);
        c.inc(0);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        use std::sync::Arc;
        let c = Arc::new(Counter::new(4));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc(w);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.total(), 40_000);
    }
}
