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
//!
//! The sequential profile is the profile of the *serial* execution, but
//! it is computed on every core: the tree's subtrees are independent, so
//! [`sequential_profile`] splits the tree breadth-first near the root and
//! walks the pending subtrees on scoped threads, then merges their
//! partial profiles. Every field merges exactly (sums, a maximum, a
//! wrapping sum), so the result does not depend on the thread count or
//! on which thread walked which subtree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

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
///
/// A workload is `Sync`: [`sequential_profile`] expands one shared
/// workload on several threads, and so do both real runtimes.
pub trait Workload: Sync {
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

/// Count tasks and total work of a workload: the profile of its serial
/// execution, the ground truth the parallel runs are checked against.
///
/// The tree is walked on every core
/// ([`std::thread::available_parallelism`]): the calling thread expands
/// it breadth-first until about 64 subtrees per thread are pending, then
/// it and `n - 1` scoped helpers each claim the next pending subtree and
/// walk it depth-first into a profile of their own. A tree that ends
/// before the split does starts no thread. The result is exact and the
/// same for any thread count: every field is a per-task count, a sum, a
/// maximum over tasks, or a wrapping sum, and each task is counted once
/// with the frame bytes of its own root→task chain, whichever thread
/// walked it (see [`SeqProfile`]'s merge).
pub fn sequential_profile<W: Workload>(w: &W) -> SeqProfile {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    profile_on(w, threads)
}

/// Pending subtrees per thread at which the breadth-first split stops:
/// enough that the threads' last claims end close together on a
/// lopsided tree such as UTS.
const SUBTREES_PER_THREAD: usize = 64;

/// [`sequential_profile`] on `threads` threads (the caller included).
fn profile_on<W: Workload>(w: &W, threads: usize) -> SeqProfile {
    let mut head = SeqProfile::default();
    let mut prog = Vec::new();
    // Each pending entry carries the summed frame sizes of the task's
    // ancestors.
    let mut queue = VecDeque::from([(w.root(), 0u64)]);
    while queue.len() < SUBTREES_PER_THREAD * threads {
        let Some((d, above)) = queue.pop_front() else {
            return head;
        };
        let chain = head.count(w, &d, above, &mut prog);
        queue.extend(spawned(&prog).map(|c| (c.clone(), chain)));
    }
    // The split's buffer goes back to the allocator for the walks to
    // reuse: a wide program makes it large (a 4 000-spawn one, 128 KiB),
    // and every live buffer adds to the set-up's peak resident memory.
    drop(prog);
    let pending = Vec::from(queue);
    let next = AtomicUsize::new(0);
    let walk = || {
        let mut part = SeqProfile::default();
        let mut levels = Vec::new();
        // Claims only divide the work; the subtrees are read-only and
        // the scope's join orders every result, so `Relaxed` suffices.
        while let Some((d, above)) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
            part.walk(w, (d.clone(), *above), &mut levels);
        }
        part
    };
    head.merge(on_threads(threads, &walk))
}

/// Run `walk` on the calling thread and `threads - 1` scoped helpers and
/// merge what they count. Not generic, so the thread machinery is
/// compiled once, not once per workload.
fn on_threads(threads: usize, walk: &(dyn Fn() -> SeqProfile + Sync)) -> SeqProfile {
    std::thread::scope(|s| {
        // A helper the OS refuses is only a lost core: the threads that
        // did start claim every subtree between them.
        let helpers: Vec<_> = (1..threads)
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, walk).ok())
            .collect();
        helpers.into_iter().fold(walk(), |p, h| {
            p.merge(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
        })
    })
}

/// The children a program spawns, in order.
fn spawned<D>(prog: &[Action<D>]) -> impl Iterator<Item = &D> {
    prog.iter().filter_map(|a| match a {
        Action::Spawn(c) => Some(c),
        _ => None,
    })
}

/// One level of a depth-first walk: the program of the task open at
/// this depth, the index of its next unvisited action, and the `above`
/// of its children. A walk keeps each level's buffer for the next task
/// at that depth, so it holds the programs on one root→task path, not
/// a copy of every pending child.
struct Level<D> {
    prog: Vec<Action<D>>,
    next: usize,
    chain: u64,
}

impl<D: Clone> Level<D> {
    /// The next child of this level's task not yet walked, with its
    /// `above`.
    fn next_child(&mut self) -> Option<(D, u64)> {
        while let Some(a) = self.prog.get(self.next) {
            self.next += 1;
            if let Action::Spawn(c) = a {
                return Some((c.clone(), self.chain));
            }
        }
        None
    }
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

impl SeqProfile {
    /// Count one task, `d`, whose ancestors' frames sum to `above`, and
    /// leave its program in `prog`. Returns the `above` of its children.
    fn count<W: Workload>(
        &mut self,
        w: &W,
        d: &W::Desc,
        above: u64,
        prog: &mut Vec<Action<W::Desc>>,
    ) -> u64 {
        let (frame, units) = (w.frame_size(d), w.units(d));
        let chain = above + frame;
        self.tasks += 1;
        self.units += units;
        self.frame_bytes_total += frame;
        self.peak_chain_frame_bytes = self.peak_chain_frame_bytes.max(chain);
        prog.clear();
        w.program(d, prog);
        let mut children = 0u64;
        for a in prog.iter() {
            match a {
                Action::Work(c) => self.work_cycles += c,
                Action::Spawn(_) => children += 1,
                Action::JoinAll => self.joins += 1,
            }
        }
        self.spawns += children;
        self.join_fingerprint = self
            .join_fingerprint
            .wrapping_add(task_shape_hash(children, units, frame));
        chain
    }

    /// Count every task of the subtree rooted at `root`, depth-first in
    /// program order, on `levels` (one per depth, grown as needed).
    fn walk<W: Workload>(&mut self, w: &W, root: (W::Desc, u64), levels: &mut Vec<Level<W::Desc>>) {
        // `levels[..open]` hold the tasks on the path to the next one.
        let mut open = 0;
        let mut task = Some(root);
        loop {
            if let Some((d, above)) = task.take() {
                if levels.len() == open {
                    levels.push(Level {
                        prog: Vec::new(),
                        next: 0,
                        chain: 0,
                    });
                }
                let level = &mut levels[open];
                level.chain = self.count(w, &d, above, &mut level.prog);
                level.next = 0;
                open += 1;
            }
            let Some(top) = open.checked_sub(1) else {
                return;
            };
            task = levels[top].next_child();
            if task.is_none() {
                open = top;
            }
        }
    }

    /// The profile of two disjoint sets of tasks: sums, a maximum and a
    /// wrapping sum, so the order of merging does not matter.
    fn merge(self, o: SeqProfile) -> SeqProfile {
        SeqProfile {
            tasks: self.tasks + o.tasks,
            units: self.units + o.units,
            work_cycles: self.work_cycles + o.work_cycles,
            joins: self.joins + o.joins,
            spawns: self.spawns + o.spawns,
            frame_bytes_total: self.frame_bytes_total + o.frame_bytes_total,
            peak_chain_frame_bytes: self.peak_chain_frame_bytes.max(o.peak_chain_frame_bytes),
            join_fingerprint: self.join_fingerprint.wrapping_add(o.join_fingerprint),
        }
    }
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

    /// A seeded random tree: 0-4 children per task above `depth`, and
    /// per-task work, units and frame size drawn from the task's key.
    struct RandTree {
        seed: u64,
        depth: u32,
    }

    impl RandTree {
        fn mix(key: u64) -> u64 {
            task_shape_hash(key, 0, 0)
        }
    }

    impl Workload for RandTree {
        type Desc = (u64, u32);

        fn root(&self) -> (u64, u32) {
            (self.seed, 0)
        }

        fn program(&self, &(key, depth): &(u64, u32), out: &mut Vec<Action<(u64, u32)>>) {
            let h = Self::mix(key);
            out.push(Action::Work(h % 100));
            let kids = if depth < self.depth { (h >> 60) & 7 } else { 0 };
            for i in 0..kids.min(4) {
                out.push(Action::Spawn((Self::mix(key ^ ((i + 1) << 32)), depth + 1)));
                if i == 1 {
                    out.push(Action::JoinAll);
                }
            }
            if kids > 0 {
                out.push(Action::JoinAll);
            }
        }

        fn frame_size(&self, &(key, _): &(u64, u32)) -> u64 {
            64 + (Self::mix(key) >> 20) % 512
        }

        fn units(&self, &(key, _): &(u64, u32)) -> u64 {
            key & 1
        }

        fn name(&self) -> String {
            format!("randtree(seed={})", self.seed)
        }
    }

    #[test]
    fn profile_is_the_same_on_any_thread_count() {
        fn check<W: Workload>(w: &W) -> SeqProfile {
            let one = profile_on(w, 1);
            for threads in [2, 3, 8] {
                assert_eq!(
                    profile_on(w, threads),
                    one,
                    "{} on {threads} threads",
                    w.name()
                );
            }
            one
        }
        for depth in [0, 4, 12] {
            let p = check(&BinTree {
                depth,
                work: 3,
                frame: 100,
            });
            assert_eq!(p.tasks, (2 << depth) - 1);
            assert_eq!(p.peak_chain_frame_bytes, 100 * (depth as u64 + 1));
        }
        let mut big = 0;
        for seed in 0..16 {
            let p = check(&RandTree { seed, depth: 9 });
            assert_eq!(p.spawns, p.tasks - 1);
            big += (p.tasks > 8 * 64) as u32;
        }
        assert!(big >= 4, "too few random trees reach the parallel walk");
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
