//! The backend-neutral task-program model: what a task does between
//! migration points, independent of *which runtime executes it*.
//!
//! The paper's task model (Section 3) is fork-join: a task computes,
//! spawns children (child-first: the child runs immediately and the
//! parent's continuation becomes stealable), and waits for children at
//! join points. A [`Workload`] maps a task descriptor to its straight-line
//! [`Action`] program; a backend interprets it under a real scheduler.
//!
//! Two backends ship in this workspace:
//!
//! - the discrete-event simulator (`uat-cluster::Engine`), which times
//!   every migration point against the FX10 cost model, and
//! - the native fiber interpreter (`uat-fiber::NativeRunner`), which runs
//!   the *same* program on real x86-64 lightweight threads with real
//!   work stealing.
//!
//! Because both consume the identical `Workload`, their accounting can be
//! compared task-for-task — see [`sequential_profile`] for the sequential
//! ground truth and [`join_tree_fingerprint`] for a schedule-independent
//! shape digest both backends reproduce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One step of a task's program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action<D> {
    /// Compute for this many cycles (no migration point inside).
    Work(u64),
    /// Spawn a child task. Under child-first scheduling the child starts
    /// immediately and the continuation after this action is pushed on
    /// the work-stealing queue (Figure 4).
    Spawn(D),
    /// Wait until every child spawned so far has completed (the `sync` /
    /// `join` of Figure 1; a migration point).
    JoinAll,
}

/// A benchmark: how task descriptors expand into programs.
pub trait Workload {
    /// Task descriptor — everything a task needs to know what to do.
    type Desc: Clone + Send + Sync + std::fmt::Debug;

    /// The root task's descriptor.
    fn root(&self) -> Self::Desc;

    /// Emit the program of the task described by `d` into `out`
    /// (`out` arrives empty; reuse avoids per-task allocation churn).
    fn program(&self, d: &Self::Desc, out: &mut Vec<Action<Self::Desc>>);

    /// Stack bytes the task's frames occupy — drives the Table 4
    /// uni-address-region usage numbers.
    fn frame_size(&self, d: &Self::Desc) -> u64;

    /// How many *reported units* this task contributes to throughput.
    /// BTC counts every task (1); UTS counts tree nodes but not the
    /// binary loop-splitting helper tasks (0); NQueens likewise.
    fn units(&self, _d: &Self::Desc) -> u64 {
        1
    }

    /// Display name for reports.
    fn name(&self) -> String;
}

/// Blanket impl so `&W` and boxed workloads work where `W` is expected.
impl<W: Workload + ?Sized> Workload for &W {
    type Desc = W::Desc;
    fn root(&self) -> Self::Desc {
        (**self).root()
    }
    fn program(&self, d: &Self::Desc, out: &mut Vec<Action<Self::Desc>>) {
        (**self).program(d, out)
    }
    fn frame_size(&self, d: &Self::Desc) -> u64 {
        (**self).frame_size(d)
    }
    fn units(&self, d: &Self::Desc) -> u64 {
        (**self).units(d)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

/// Count tasks and total work of a workload by sequential traversal —
/// the ground truth the parallel runs are checked against in tests.
pub fn sequential_profile<W: Workload>(w: &W) -> SeqProfile {
    // Each entry carries the summed frame sizes of the task's ancestors.
    let mut stack = vec![(w.root(), 0u64)];
    let mut prog = Vec::new();
    let mut p = SeqProfile::default();
    while let Some((d, above)) = stack.pop() {
        let (frame, units) = (w.frame_size(&d), w.units(&d));
        let chain = above + frame;
        p.tasks += 1;
        p.units += units;
        p.frame_bytes_total += frame;
        p.peak_chain_frame_bytes = p.peak_chain_frame_bytes.max(chain);
        prog.clear();
        w.program(&d, &mut prog);
        let mut children = 0u64;
        for a in prog.drain(..) {
            match a {
                Action::Work(c) => p.work_cycles += c,
                Action::Spawn(child) => {
                    children += 1;
                    stack.push((child, chain));
                }
                Action::JoinAll => p.joins += 1,
            }
        }
        p.spawns += children;
        p.join_fingerprint = p
            .join_fingerprint
            .wrapping_add(task_shape_hash(children, units, frame));
    }
    p
}

/// Result of [`sequential_profile`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeqProfile {
    /// Total tasks in the tree (including the root).
    pub tasks: u64,
    /// Total reported units (see [`Workload::units`]).
    pub units: u64,
    /// Total `Work` cycles.
    pub work_cycles: u64,
    /// Total join points.
    pub joins: u64,
    /// Total `Spawn` actions (= `tasks - 1`).
    pub spawns: u64,
    /// Sum of all frame sizes.
    pub frame_bytes_total: u64,
    /// Deepest frame chain: the maximum over tasks of the summed
    /// `frame_size` on the root→task path. Schedule-independent, so the
    /// real backends' `peak_frame_bytes` must equal it exactly.
    pub peak_chain_frame_bytes: u64,
    /// Schedule-independent join-tree digest; see
    /// [`join_tree_fingerprint`].
    pub join_fingerprint: u64,
}

/// Per-task contribution to the join-tree fingerprint: a SplitMix64-style
/// hash of the task's child count, reported units, and frame size.
///
/// Every backend that executes a workload must combine these per-task
/// values with *wrapping addition* (commutative, so the digest is
/// independent of execution order and of which worker ran each task) —
/// that is what lets a parallel native run be compared bit-for-bit
/// against the sequential traversal.
pub fn task_shape_hash(children: u64, units: u64, frame_size: u64) -> u64 {
    let mut z = children
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(units.rotate_left(17))
        .wrapping_add(frame_size.rotate_left(41))
        .wrapping_add(0x243F_6A88_85A3_08D3);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Schedule-independent digest of a workload's join-tree shape: the
/// wrapping sum of [`task_shape_hash`] over every task in the tree.
///
/// Two executions agree on this digest iff they expanded the same
/// multiset of `(child count, units, frame size)` tasks — a much
/// stronger check than comparing task totals alone, yet computable
/// online by any backend without cross-task coordination.
pub fn join_tree_fingerprint<W: Workload>(w: &W) -> u64 {
    sequential_profile(w).join_fingerprint
}

pub mod testutil {
    //! Synthetic workloads for backend tests (shared by the simulator's
    //! and the native interpreter's suites).

    use super::*;

    /// A tiny synthetic fork-join tree for engine tests: a perfect binary
    /// tree of `depth` levels with `work` cycles per task.
    #[derive(Clone, Debug)]
    pub struct BinTree {
        /// Levels below the root.
        pub depth: u32,
        /// `Work` cycles per task.
        pub work: u64,
        /// Frame bytes per task.
        pub frame: u64,
    }

    impl Workload for BinTree {
        type Desc = u32; // remaining depth

        fn root(&self) -> u32 {
            self.depth
        }

        fn program(&self, d: &u32, out: &mut Vec<Action<u32>>) {
            out.push(Action::Work(self.work));
            if *d > 0 {
                out.push(Action::Spawn(*d - 1));
                out.push(Action::Spawn(*d - 1));
                out.push(Action::JoinAll);
            }
        }

        fn frame_size(&self, _d: &u32) -> u64 {
            self.frame
        }

        fn name(&self) -> String {
            format!("bintree(depth={})", self.depth)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::BinTree;
    use super::*;

    #[test]
    fn sequential_profile_counts_binary_tree() {
        let w = BinTree {
            depth: 4,
            work: 10,
            frame: 100,
        };
        let p = sequential_profile(&w);
        assert_eq!(p.tasks, 31, "2^5 - 1 nodes");
        assert_eq!(p.work_cycles, 310);
        assert_eq!(p.joins, 15, "every internal node joins once");
        assert_eq!(p.spawns, 30, "every task but the root was spawned");
        assert_eq!(p.frame_bytes_total, 3100);
        assert_eq!(p.peak_chain_frame_bytes, 500, "five levels of 100 bytes");
    }

    #[test]
    fn workload_by_reference() {
        let w = BinTree {
            depth: 2,
            work: 1,
            frame: 64,
        };
        let r = &w;
        assert_eq!(sequential_profile(&r).tasks, 7);
        assert!(r.name().contains("bintree"));
    }

    #[test]
    fn fingerprint_distinguishes_shapes() {
        let a = join_tree_fingerprint(&BinTree {
            depth: 3,
            work: 1,
            frame: 64,
        });
        let b = join_tree_fingerprint(&BinTree {
            depth: 4,
            work: 1,
            frame: 64,
        });
        let c = join_tree_fingerprint(&BinTree {
            depth: 3,
            work: 1,
            frame: 65,
        });
        assert_ne!(a, b, "different depths differ");
        assert_ne!(a, c, "different frame sizes differ");
        // Work cycles deliberately do NOT enter the shape hash: the two
        // backends time work differently but expand the same tree.
        let d = join_tree_fingerprint(&BinTree {
            depth: 3,
            work: 99,
            frame: 64,
        });
        assert_eq!(a, d);
    }

    #[test]
    fn fingerprint_matches_manual_sum() {
        let w = BinTree {
            depth: 1,
            work: 0,
            frame: 8,
        };
        // Root has 2 children; the two leaves have 0.
        let expect =
            task_shape_hash(2, 1, 8).wrapping_add(task_shape_hash(0, 1, 8).wrapping_mul(2));
        assert_eq!(join_tree_fingerprint(&w), expect);
    }
}
