//! Shared-memory metrics segment: the layout contract between the
//! multiprocess runtime and the parent-side exporter.
//!
//! The multiprocess backend cannot hand a [`Registry`](crate::Registry)
//! across `fork` — its shards are heap cells of one address space. It
//! instead reserves a *segment* of the shared uni-address region as a
//! bank of per-worker `u64` counter cells, laid out by
//! [`SegmentLayout`]. Workers bump their own cells with process-shared
//! atomics (single-writer, like registry shards); the parent reads the
//! cells — through its RDMA-window abstraction
//! (`uat_rdma::OneSidedFabric`), no RPC, no pipes — and rebuilds an
//! ordinary [`Snapshot`](crate::Snapshot) with
//! [`SegmentLayout::snapshot`], so every downstream exporter
//! (Prometheus text, JSON, deltas) works on multiprocess runs
//! unchanged.
//!
//! This module is pure layout arithmetic and snapshot assembly — it
//! never touches the mapping itself (this crate forbids `unsafe`; the
//! mapped-memory side lives with the runtime in `uat-fiber`).

use crate::names;
use crate::registry::{MetricSnapshot, Snapshot, ValueSnapshot};

/// Cell of [`names::HEARTBEATS`] within a worker's row.
pub const HEARTBEATS: usize = 0;
/// Cell of [`names::STEALS_COMPLETED`] within a worker's row.
pub const STEALS_COMPLETED: usize = 1;
/// Cell of [`names::STEALS_FAILED`] within a worker's row.
pub const STEALS_FAILED: usize = 2;
/// Cell of [`names::PARKS`] within a worker's row.
pub const PARKS: usize = 3;
/// Cell of [`names::UNPARKS`] within a worker's row.
pub const UNPARKS: usize = 4;
/// Cell of [`names::TASKS`] within a worker's row, the last named one;
/// cells past it, up to [`ROW_STRIDE`], are the runtime's own.
pub const TASKS: usize = 5;

/// The per-worker counters the multiprocess runtime publishes, indexed
/// by cell: the runtime bumps the cells above and the exporter names
/// them from this table, so the two cannot disagree.
pub const SEGMENT_COUNTERS: [(&str, &str); TASKS + 1] = {
    let mut t = [("", ""); TASKS + 1];
    t[HEARTBEATS] = (
        names::HEARTBEATS,
        "Scheduler loop iterations per worker (heartbeat epochs)",
    );
    t[STEALS_COMPLETED] = (
        names::STEALS_COMPLETED,
        "Steal attempts that took an entry and resumed the stolen thread",
    );
    t[STEALS_FAILED] = (
        names::STEALS_FAILED,
        "Steal attempts that aborted (victim empty, lock busy, or raced)",
    );
    t[PARKS] = (
        names::PARKS,
        "Workers that crossed the idle spin threshold into a sleep cycle",
    );
    t[UNPARKS] = (
        names::UNPARKS,
        "Parked workers that subsequently found work",
    );
    t[TASKS] = (names::TASKS, "Tasks run to completion");
    t
};

/// Cells per worker row, padded so each worker's row is its own
/// 64-byte cache line (single-writer rows must not false-share).
pub const ROW_STRIDE: usize = 8;

const _: () = assert!(SEGMENT_COUNTERS.len() <= ROW_STRIDE);

/// Shape of one run's shared metrics segment: `workers` rows of
/// [`ROW_STRIDE`] `u64` cells, worker-major (worker `w`'s cells are the
/// contiguous row starting at word `w * ROW_STRIDE`), counters within a
/// row ordered as [`SEGMENT_COUNTERS`].
#[derive(Clone, Copy, Debug)]
pub struct SegmentLayout {
    workers: usize,
}

impl SegmentLayout {
    /// Layout for a run with `workers` worker processes.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "segment needs at least one worker");
        SegmentLayout { workers }
    }

    /// Worker rows in the segment.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total `u64` cells in the segment.
    pub fn words(&self) -> usize {
        self.workers * ROW_STRIDE
    }

    /// Total bytes of the segment.
    pub fn bytes(&self) -> usize {
        self.words() * 8
    }

    /// Byte offset of worker `w`'s row within the segment (the window a
    /// parent-side fabric registers per worker).
    pub fn row_offset(&self, w: usize) -> usize {
        assert!(w < self.workers);
        w * ROW_STRIDE * 8
    }

    /// Bytes of one worker row.
    pub const fn row_bytes() -> usize {
        ROW_STRIDE * 8
    }

    /// Word index of counter `c` (a [`SEGMENT_COUNTERS`] index) for
    /// worker `w`.
    pub fn cell(&self, w: usize, c: usize) -> usize {
        assert!(w < self.workers);
        assert!(c < SEGMENT_COUNTERS.len());
        w * ROW_STRIDE + c
    }

    /// Assemble an ordinary registry [`Snapshot`] from the segment's
    /// cell values (`words` must be the whole segment, [`words`] long,
    /// as read by the parent). Cell order and naming come from
    /// [`SEGMENT_COUNTERS`], so exporters cannot tell a multiprocess
    /// snapshot from an in-process one.
    ///
    /// [`words`]: Self::words
    pub fn snapshot(&self, words: &[u64]) -> Snapshot {
        assert_eq!(
            words.len(),
            self.words(),
            "segment snapshot needs the whole cell bank"
        );
        let metrics = SEGMENT_COUNTERS
            .iter()
            .enumerate()
            .map(|(c, (name, help))| MetricSnapshot {
                name: (*name).into(),
                help: (*help).into(),
                value: ValueSnapshot::Counter {
                    per_worker: (0..self.workers).map(|w| words[self.cell(w, c)]).collect(),
                },
            })
            .collect();
        Snapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_worker_major_and_padded() {
        let l = SegmentLayout::new(3);
        assert_eq!(l.words(), 24);
        assert_eq!(l.bytes(), 192);
        assert_eq!(l.row_offset(2), 128);
        assert_eq!(l.cell(0, 0), 0);
        assert_eq!(l.cell(1, 0), ROW_STRIDE);
        assert_eq!(l.cell(2, 5), 2 * ROW_STRIDE + 5);
    }

    #[test]
    fn snapshot_round_trips_cells() {
        let l = SegmentLayout::new(2);
        let mut words = vec![0u64; l.words()];
        // worker 0: 7 tasks; worker 1: 5 tasks, 2 steals.
        words[l.cell(0, TASKS)] = 7;
        words[l.cell(1, TASKS)] = 5;
        words[l.cell(1, STEALS_COMPLETED)] = 2;
        let snap = l.snapshot(&words);
        assert_eq!(snap.total(names::TASKS), 12);
        assert_eq!(snap.per_worker(names::TASKS).unwrap(), &[7, 5]);
        assert_eq!(snap.total(names::STEALS_COMPLETED), 2);
        assert_eq!(snap.per_worker(names::STEALS_COMPLETED).unwrap(), &[0, 2]);
        // The snapshot is a plain registry snapshot: exporters work.
        let text = snap.prometheus_text();
        assert!(text.contains(names::TASKS));
    }

    #[test]
    #[should_panic(expected = "whole cell bank")]
    fn short_bank_rejected() {
        let l = SegmentLayout::new(2);
        l.snapshot(&[0u64; 3]);
    }
}
