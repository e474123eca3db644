//! The uni-address region address discipline (Figure 3).
//!
//! The region is `[S, E)`. A pointer `p` divides it: `[p, E)` is used,
//! `[S, p)` is free; stacks grow downwards. Each live thread owns one
//! contiguous *segment* of the used part; the running thread's segment is
//! the lowest (Section 5.2's invariant). A stolen thread's segment stays
//! where it is — the bytes were copied to the thief, but `p` moves only
//! at the bottom — until the worker's pop finds its queue empty: then
//! every segment left is a stolen ancestor's, and the region drains at
//! once ([`UniRegion::drain_all_dead`]).

use serde::{Deserialize, Serialize};
use std::fmt;

/// One thread's stack frames in the region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Owning task.
    pub task: u64,
    /// Lowest address of the frames.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

impl Segment {
    /// One past the highest address.
    pub fn end(&self) -> u64 {
        self.base + self.size
    }
}

/// Errors from region operations; each is an invariant violation that a
/// correct scheduler never triggers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegionError {
    /// Allocation would run below `S` (stack overflow: the region is
    /// sized for the deepest lineage, like the paper's 1 MiB default).
    Overflow {
        /// Bytes requested.
        requested: u64,
        /// Bytes free below `p`.
        free: u64,
    },
    /// Operation on a task that owns no (live) segment.
    NoSuchSegment {
        /// The offending task id.
        task: u64,
    },
    /// Operation requires the task to own the *bottom* segment.
    NotBottom {
        /// The offending task id.
        task: u64,
    },
    /// Install requires an empty region (the Section 5.2 steal rule).
    NotEmpty,
    /// Install address range is outside `[S, E)`.
    OutOfRange {
        /// Requested base.
        base: u64,
        /// Requested size.
        size: u64,
    },
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::Overflow { requested, free } => write!(
                f,
                "uni-address region overflow: need {requested} bytes, {free} free (grow CoreConfig::uni_region_size)"
            ),
            RegionError::NoSuchSegment { task } => write!(f, "task {task} owns no segment"),
            RegionError::NotBottom { task } => {
                write!(f, "task {task} does not own the bottom segment")
            }
            RegionError::NotEmpty => write!(f, "install requires an empty region"),
            RegionError::OutOfRange { base, size } => {
                write!(f, "install [{base:#x}, +{size:#x}) outside the region")
            }
        }
    }
}

impl std::error::Error for RegionError {}

/// The per-worker uni-address region state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UniRegion {
    /// `S`: lowest address of the region.
    start: u64,
    /// `E`: one past the highest address.
    end: u64,
    /// Next free address; `[p, end)` is used.
    p: u64,
    /// Segments ordered top (highest address, index 0) to bottom.
    segments: Vec<Segment>,
    /// Peak of `end - p` — the Table 4 "stack usage" metric.
    peak_usage: u64,
    /// Total bytes ever allocated (diagnostic).
    total_allocated: u64,
}

impl UniRegion {
    /// A region `[start, start+size)`.
    pub fn new(start: u64, size: u64) -> Self {
        assert!(size > 0, "empty region");
        UniRegion {
            start,
            end: start + size,
            p: start + size,
            segments: Vec::new(),
            peak_usage: 0,
            total_allocated: 0,
        }
    }

    /// `S`.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// `E`.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The free/used boundary `p`.
    pub fn p(&self) -> u64 {
        self.p
    }

    /// Bytes currently used (`E - p`).
    pub fn usage(&self) -> u64 {
        self.end - self.p
    }

    /// Peak bytes used — Table 4's per-benchmark "stack usage".
    pub fn peak_usage(&self) -> u64 {
        self.peak_usage
    }

    /// Whether any segment occupies the region.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The segments, top (high address) first.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The bottom (running thread's) segment.
    pub fn bottom(&self) -> Option<&Segment> {
        self.segments.last()
    }

    /// The segment owned by `task`.
    pub fn segment_of(&self, task: u64) -> Option<&Segment> {
        self.segments.iter().find(|s| s.task == task)
    }

    /// Allocate a new thread's stack of `size` bytes just below `p`
    /// (Figure 3 step 3 / Figure 4's child start). Returns the base.
    pub fn alloc(&mut self, task: u64, size: u64) -> Result<u64, RegionError> {
        assert!(size > 0, "zero-size stack");
        let free = self.p - self.start;
        if size > free {
            return Err(RegionError::Overflow {
                requested: size,
                free,
            });
        }
        let base = self.p - size;
        self.p = base;
        self.segments.push(Segment { task, base, size });
        self.total_allocated += size;
        self.peak_usage = self.peak_usage.max(self.usage());
        self.check_invariants();
        Ok(base)
    }

    /// Remove the bottom segment, which must belong to `task` (thread exit
    /// or swap-out). `p` rises past it — to `E` once the region is empty,
    /// even if the segment was installed below the top. Returns the
    /// removed segment.
    pub fn release_bottom(&mut self, task: u64) -> Result<Segment, RegionError> {
        let bottom = *self
            .segments
            .last()
            .ok_or(RegionError::NoSuchSegment { task })?;
        if bottom.task != task {
            return Err(RegionError::NotBottom { task });
        }
        self.segments.pop();
        self.p = if self.segments.is_empty() {
            self.end
        } else {
            bottom.end()
        };
        self.check_invariants();
        Ok(bottom)
    }

    /// Drain the region. Used when a pop returns Empty — every ancestor
    /// was stolen, so all remaining frames here are dead copies (Section
    /// 5.2 step 5's precondition).
    pub fn drain_all_dead(&mut self) {
        self.segments.clear();
        self.p = self.end;
        self.check_invariants();
    }

    /// Install a migrated thread's frames at their original address.
    /// Requires the region to be empty — guaranteed because a worker only
    /// steals (or re-admits a waiting thread) with an empty region.
    pub fn install(&mut self, task: u64, base: u64, size: u64) -> Result<(), RegionError> {
        if !self.segments.is_empty() {
            return Err(RegionError::NotEmpty);
        }
        if base < self.start || base + size > self.end {
            return Err(RegionError::OutOfRange { base, size });
        }
        self.segments.push(Segment { task, base, size });
        self.p = base;
        self.peak_usage = self.peak_usage.max(self.usage());
        self.check_invariants();
        Ok(())
    }

    /// Invariants of Figure 3: segments are contiguous from `E` down to
    /// `p` (after an install, from the installed base), ordered, and the
    /// bottom segment is the running thread's.
    fn check_invariants(&self) {
        debug_assert!(self.p >= self.start && self.p <= self.end);
        let mut cursor = None::<u64>;
        for s in &self.segments {
            debug_assert!(s.size > 0);
            if let Some(c) = cursor {
                debug_assert_eq!(s.end(), c, "segments must be contiguous");
            }
            cursor = Some(s.base);
        }
        if let Some(bottom) = self.segments.last() {
            debug_assert_eq!(bottom.base, self.p, "p must sit at the bottom segment");
        } else {
            debug_assert_eq!(self.p, self.end, "empty region has p == E");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const S: u64 = 0x1000;
    const SIZE: u64 = 0x10000;

    fn region() -> UniRegion {
        UniRegion::new(S, SIZE)
    }

    #[test]
    fn alloc_packs_downward() {
        let mut r = region();
        let a = r.alloc(1, 100).unwrap();
        let b = r.alloc(2, 200).unwrap();
        assert_eq!(a, S + SIZE - 100);
        assert_eq!(b, a - 200);
        assert_eq!(r.usage(), 300);
        assert_eq!(r.bottom().unwrap().task, 2);
    }

    #[test]
    fn release_bottom_resumes_the_one_above() {
        let mut r = region();
        r.alloc(1, 100).unwrap();
        r.alloc(2, 200).unwrap();
        let seg = r.release_bottom(2).unwrap();
        assert_eq!(seg.size, 200);
        assert_eq!(
            r.bottom().unwrap().task,
            1,
            "thread just above is now bottom"
        );
        assert_eq!(r.usage(), 100);
        r.release_bottom(1).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.p(), S + SIZE);
    }

    #[test]
    fn release_checks_owner() {
        let mut r = region();
        r.alloc(1, 100).unwrap();
        r.alloc(2, 100).unwrap();
        assert_eq!(r.release_bottom(1), Err(RegionError::NotBottom { task: 1 }));
        let mut empty = region();
        assert_eq!(
            empty.release_bottom(9),
            Err(RegionError::NoSuchSegment { task: 9 })
        );
    }

    #[test]
    fn overflow_detected() {
        let mut r = region();
        r.alloc(1, SIZE - 16).unwrap();
        let err = r.alloc(2, 32).unwrap_err();
        assert_eq!(
            err,
            RegionError::Overflow {
                requested: 32,
                free: 16
            }
        );
    }

    #[test]
    fn drain_all_dead_empties() {
        let mut r = region();
        r.alloc(1, 100).unwrap();
        r.alloc(2, 100).unwrap();
        r.drain_all_dead();
        assert!(r.is_empty());
        assert_eq!(r.usage(), 0);
    }

    #[test]
    fn install_requires_empty() {
        let mut r = region();
        r.alloc(1, 100).unwrap();
        assert_eq!(r.install(5, S + 0x800, 256), Err(RegionError::NotEmpty));
        r.release_bottom(1).unwrap();
        r.install(5, S + 0x800, 256).unwrap();
        assert_eq!(r.bottom().unwrap().task, 5);
        assert_eq!(r.p(), S + 0x800);
        // Subsequent children pack below the installed base.
        let c = r.alloc(6, 64).unwrap();
        assert_eq!(c, S + 0x800 - 64);
        // Emptied, the region is whole again: `p` is back at `E`.
        r.release_bottom(6).unwrap();
        r.release_bottom(5).unwrap();
        assert_eq!(r.p(), S + SIZE);
    }

    #[test]
    fn install_range_checked() {
        let mut r = region();
        assert!(matches!(
            r.install(5, S - 0x100, 64),
            Err(RegionError::OutOfRange { .. })
        ));
        assert!(matches!(
            r.install(5, S + SIZE - 8, 64),
            Err(RegionError::OutOfRange { .. })
        ));
    }

    #[test]
    fn peak_usage_tracks_table4_metric() {
        let mut r = region();
        r.alloc(1, 1000).unwrap();
        r.alloc(2, 2000).unwrap();
        r.release_bottom(2).unwrap();
        r.alloc(3, 500).unwrap();
        assert_eq!(r.peak_usage(), 3000);
        assert_eq!(r.usage(), 1500);
    }

    proptest! {
        /// Random spawn/complete sequences keep the region coherent:
        /// usage equals the sum of segment sizes, and the region always
        /// drains to empty.
        #[test]
        fn random_lineage_drains_clean(ops in proptest::collection::vec((any::<bool>(), 16u64..512), 1..300)) {
            let mut r = UniRegion::new(0x1000, 1 << 20);
            let mut next_task = 0u64;
            let mut lineage: Vec<u64> = Vec::new(); // live tasks, oldest first
            for (spawn, size) in ops {
                if spawn {
                    // spawn a child below the current bottom
                    if r.alloc(next_task, size).is_ok() {
                        lineage.push(next_task);
                        next_task += 1;
                    }
                } else if let Some(t) = lineage.pop() {
                    // the running task completes
                    r.release_bottom(t).unwrap();
                }
                let used: u64 = r.segments().iter().map(|s| s.size).sum();
                prop_assert_eq!(r.usage(), used);
            }
            while let Some(t) = lineage.pop() {
                r.release_bottom(t).unwrap();
            }
            prop_assert!(r.is_empty());
            prop_assert_eq!(r.usage(), 0);
        }
    }
}
