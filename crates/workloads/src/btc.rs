//! Binary Task Creation (BTC).
//!
//! "BTC generates tasks recursively. It has two parameters depth and
//! iter. Depth means the depth of a generated task tree, and each task
//! repeats, iter times, spawning two child tasks and waiting for their
//! completions. When iter ≥ 2, parallelism rapidly grows and shrinks
//! during execution; therefore, it requires high load balancing
//! performance." (Section 6.1)
//!
//! Tasks carry no work — the benchmark measures pure task-management
//! throughput, which is why the paper's 16.7 G tasks/s on 3840 cores
//! works out to ≈ 425 cycles/task ≈ the 413-cycle creation cost of
//! Table 2.
//!
//! The frame size is calibrated to Table 4: consecutive depths differ by
//! 1,120 bytes (43,568 → 44,688 for depths 38 → 39; 22,288 → 23,408 for
//! 19 → 20), i.e. ≈1,120 bytes of frames per tree level.

use uat_model::{Action, Workload};

/// Frame bytes per BTC task (Table 4's per-level stack growth).
pub const BTC_FRAME: u64 = 1_120;

/// The BTC workload.
#[derive(Clone, Debug)]
pub struct Btc {
    /// Depth of the task tree.
    pub depth: u32,
    /// Spawn-two-join rounds per task.
    pub iter: u32,
    /// Extra compute per task in cycles (0 in the paper).
    pub work: u64,
}

impl Btc {
    /// BTC with the paper's pure-overhead setting (no per-task work).
    pub fn new(depth: u32, iter: u32) -> Self {
        assert!(iter >= 1, "iter must be at least 1");
        Btc {
            depth,
            iter,
            work: 0,
        }
    }

    /// Exact task count: every non-leaf spawns `2·iter` children.
    pub fn expected_tasks(&self) -> u64 {
        // sum_{l=0}^{depth} (2·iter)^l
        let b = 2 * self.iter as u64;
        let mut total = 0u64;
        let mut level = 1u64;
        for _ in 0..=self.depth {
            total = total.saturating_add(level);
            level = level.saturating_mul(b);
        }
        total
    }
}

impl Workload for Btc {
    type Desc = u32; // remaining depth

    fn root(&self) -> u32 {
        self.depth
    }

    // Inlined into the real backends' task body, so that expanding a
    // task's program makes no call.
    #[inline]
    fn program(&self, d: &u32, out: &mut Vec<Action<u32>>) {
        if self.work > 0 {
            out.push(Action::Work(self.work));
        }
        if *d > 0 {
            for _ in 0..self.iter {
                out.extend([
                    Action::Spawn(*d - 1),
                    Action::Spawn(*d - 1),
                    Action::JoinAll,
                ]);
            }
        }
    }

    fn frame_size(&self, _d: &u32) -> u64 {
        BTC_FRAME
    }

    fn name(&self) -> String {
        format!("BTC(iter={}, depth={})", self.iter, self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uat_model::sequential_profile;

    #[test]
    fn iter1_is_a_binary_tree() {
        let w = Btc::new(4, 1);
        let p = sequential_profile(&w);
        assert_eq!(p.tasks, 31);
        assert_eq!(p.tasks, w.expected_tasks());
        assert_eq!(p.joins, 15);
    }

    #[test]
    fn iter2_branches_by_four() {
        let w = Btc::new(3, 2);
        let p = sequential_profile(&w);
        // 1 + 4 + 16 + 64
        assert_eq!(p.tasks, 85);
        assert_eq!(p.tasks, w.expected_tasks());
        // Two join points per internal task.
        assert_eq!(p.joins, 2 * (1 + 4 + 16));
    }

    #[test]
    fn paper_scale_task_counts() {
        // Table 4: depth=38 → 550 billion, depth=39 → 1,099 billion.
        let d38 = Btc::new(38, 1).expected_tasks() as f64;
        assert!((d38 / 5.5e11 - 1.0).abs() < 0.01, "{d38}");
        // iter=2, depth=19 → 367 billion.
        let d19 = Btc::new(19, 2).expected_tasks() as f64;
        assert!((d19 / 3.67e11 - 1.0).abs() < 0.01, "{d19}");
    }

    #[test]
    fn paper_scale_stack_usage() {
        // Table 4: ~43.6 KB of uni-address region at depth 38. Lineage
        // depth is depth+1 tasks.
        let usage = 39 * BTC_FRAME;
        assert!((usage as f64 / 43_568.0 - 1.0).abs() < 0.02, "{usage}");
    }

    #[test]
    fn leaves_spawn_nothing() {
        let w = Btc::new(3, 2);
        let mut prog = Vec::new();
        w.program(&0, &mut prog);
        assert!(prog.is_empty(), "leaf with work=0 has an empty program");
    }
}
