//! The per-worker counter rows both real runtimes keep, and the layout
//! contract between the multiprocess runtime and the parent-side
//! exporter.
//!
//! Every worker of a real run owns one [`Row`]: [`ROW_STRIDE`] `u64`
//! cells on a cache line of its own, bumped by the worker body itself
//! with single-writer stores — heartbeats, steal outcomes, parks,
//! unparks, and the two termination cells, tasks completed and tasks
//! spawned. The thread runtime keeps its rows on the heap; the
//! multiprocess runtime cannot hand a heap across `fork`, so it reserves
//! a *segment* of the shared uni-address region as the bank of rows,
//! laid out by [`SegmentLayout`], and the parent reads the cells back
//! through its RDMA-window abstraction (`uat_rdma::OneSidedFabric`), no
//! RPC, no pipes. Either way the rows become an ordinary
//! [`Snapshot`](crate::Snapshot) through [`SegmentLayout::snapshot`], so
//! every downstream exporter (Prometheus text, JSON, deltas) sees the
//! same counters, in the same order, on both backends.
//!
//! This module is layout arithmetic, the row type and snapshot assembly
//! — it never touches a mapping itself (this crate forbids `unsafe`;
//! placing rows in mapped memory is the runtime's business, in
//! `uat-fiber`).

use crate::names;
use crate::registry::{MetricSnapshot, Snapshot, ValueSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

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
/// Cell of [`names::TASKS`] within a worker's row: the tasks that
/// *finished* on the worker, its termination scan's `completed` cell.
pub const TASKS: usize = 5;
/// Cell of [`names::SPAWNED`] within a worker's row: the spawns made on
/// the worker, its termination scan's `spawned` cell. The last one.
pub const SPAWNED: usize = 6;

/// The per-worker counters a row holds, indexed by cell: the runtimes
/// bump the cells above and the exporter names them from this table, so
/// the two cannot disagree.
pub const SEGMENT_COUNTERS: [(&str, &str); SPAWNED + 1] = {
    let mut t = [("", ""); SPAWNED + 1];
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
    t[SPAWNED] = (names::SPAWNED, "Tasks spawned (every task but the root)");
    t
};

/// Cells per worker row, padded so each worker's row is its own
/// 64-byte cache line (single-writer rows must not false-share).
pub const ROW_STRIDE: usize = 8;

const _: () = assert!(SEGMENT_COUNTERS.len() <= ROW_STRIDE);

/// One worker's row: [`ROW_STRIDE`] counter cells, indexed by the cell
/// constants above, on a cache line only that worker writes. All zeroes
/// is the empty row, so a row may sit in zero-filled shared memory as it
/// is.
#[derive(Debug, Default)]
#[repr(C, align(64))]
pub struct Row([AtomicU64; ROW_STRIDE]);

const _: () = assert!(std::mem::size_of::<Row>() == ROW_STRIDE * 8);

impl Row {
    /// The row's cells as they are now.
    pub fn words(&self) -> [u64; ROW_STRIDE] {
        std::array::from_fn(|c| self.0[c].load(Ordering::Relaxed))
    }
}

impl std::ops::Index<usize> for Row {
    type Output = AtomicU64;

    #[inline]
    fn index(&self, c: usize) -> &AtomicU64 {
        &self.0[c]
    }
}

/// Shape of one run's bank of rows: `workers` rows of [`ROW_STRIDE`]
/// `u64` cells, worker-major (worker `w`'s cells are the contiguous row
/// starting at word `w * ROW_STRIDE`), counters within a row ordered as
/// [`SEGMENT_COUNTERS`].
#[derive(Clone, Copy, Debug)]
pub struct SegmentLayout {
    workers: usize,
}

impl SegmentLayout {
    /// Layout for a run with `workers` workers.
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
    /// cell values (`words` must be the whole segment, [`words`] long:
    /// as read by the parent, or as [`Row::words`] reads a bank of
    /// rows). Cell order and naming come from [`SEGMENT_COUNTERS`], so
    /// exporters cannot tell one backend's snapshot from the other's.
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
        assert_eq!(std::mem::size_of::<Row>(), SegmentLayout::row_bytes());
        assert_eq!(std::mem::align_of::<Row>(), 64);
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
    fn rows_snapshot_like_a_segment() {
        let rows: Vec<Row> = (0..2).map(|_| Row::default()).collect();
        rows[1][SPAWNED].store(4, Ordering::Relaxed);
        rows[0][HEARTBEATS].store(9, Ordering::Relaxed);
        let words: Vec<u64> = rows.iter().flat_map(Row::words).collect();
        let snap = SegmentLayout::new(2).snapshot(&words);
        assert_eq!(snap.per_worker(names::SPAWNED).unwrap(), &[0, 4]);
        assert_eq!(snap.per_worker(names::HEARTBEATS).unwrap(), &[9, 0]);
        let order: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        let table: Vec<&str> = SEGMENT_COUNTERS.iter().map(|(n, _)| *n).collect();
        assert_eq!(order, table);
    }

    #[test]
    #[should_panic(expected = "whole cell bank")]
    fn short_bank_rejected() {
        let l = SegmentLayout::new(2);
        l.snapshot(&[0u64; 3]);
    }
}
