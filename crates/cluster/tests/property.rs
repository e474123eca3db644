//! Property-based tests: the engine must execute *any* fork-join task
//! tree correctly — exact task/work conservation, byte-verified stack
//! copies, deterministic replay — across machine shapes and both
//! thread-management schemes, with every engine invariant audited after
//! every event.

use proptest::prelude::*;
use uat_cluster::workload::sequential_profile;
use uat_cluster::{Action, Engine, SimConfig, Workload};
use uat_core::SchemeKind;

/// A randomized fork-join workload: the tree shape, per-task work, and
/// frame sizes are all derived deterministically from a seed, so the
/// sequential profile is the ground truth for any parallel run.
#[derive(Clone, Debug)]
struct RandomTree {
    seed: u64,
    max_depth: u32,
    max_children: u32,
}

/// Descriptor: (depth, path-hash).
type Desc = (u32, u64);

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

impl Workload for RandomTree {
    type Desc = Desc;

    fn root(&self) -> Desc {
        (0, self.seed)
    }

    fn program(&self, &(depth, h): &Desc, out: &mut Vec<Action<Desc>>) {
        // Work: 0..2000 cycles, from the hash.
        let work = mix(h, 1) % 2_000;
        if work > 0 {
            out.push(Action::Work(work));
        }
        if depth >= self.max_depth {
            return;
        }
        // Children: 0..=max_children; sometimes multiple join phases.
        let n = (mix(h, 2) % (self.max_children as u64 + 1)) as u32;
        let phases = 1 + (mix(h, 3) % 2) as u32;
        let mut spawned = 0;
        for p in 0..phases {
            let in_phase = if p + 1 == phases { n - spawned } else { n / 2 };
            for i in 0..in_phase {
                out.push(Action::Spawn((
                    depth + 1,
                    mix(h, 100 + u64::from(spawned + i)),
                )));
            }
            spawned += in_phase;
            if in_phase > 0 {
                out.push(Action::JoinAll);
            }
        }
    }

    fn frame_size(&self, &(_, h): &Desc) -> u64 {
        64 + mix(h, 4) % 3_000
    }

    fn name(&self) -> String {
        format!("random-tree({:#x})", self.seed)
    }
}

fn cfg(workers: u32, scheme: SchemeKind, seed: u64) -> SimConfig {
    let mut c = SimConfig::tiny(workers).with_scheme(scheme).with_seed(seed);
    c.core.verify_stack_bytes = true;
    c.core.iso_stacks_per_worker = 2048;
    c.core.iso_stack_size = 4096;
    c.max_events = 200_000_000;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random tree on any small machine under either scheme executes
    /// exactly the sequential task set, with every frame byte verified.
    #[test]
    fn conservation_everywhere(
        seed in any::<u64>(),
        workers in 1u32..9,
        scheme_iso in any::<bool>(),
        sim_seed in any::<u64>(),
    ) {
        let tree = RandomTree { seed, max_depth: 7, max_children: 3 };
        let profile = sequential_profile(&tree);
        prop_assume!(profile.tasks < 40_000);
        let scheme = if scheme_iso { SchemeKind::Iso } else { SchemeKind::Uni };
        let stats = Engine::new(cfg(workers, scheme, sim_seed), tree).audited().run();
        prop_assert_eq!(stats.total_tasks, profile.tasks);
        prop_assert_eq!(stats.total_work_cycles, profile.work_cycles);
        prop_assert_eq!(stats.total_units, profile.units);
        // Makespan is bounded below by the critical path's work and above
        // by everything run serially plus overheads.
        prop_assert!(stats.makespan.get() >= profile.work_cycles / (stats.workers as u64).max(1) / 4);
    }

    /// Replaying the identical configuration is bit-identical.
    #[test]
    fn deterministic_replay(seed in any::<u64>(), workers in 2u32..6) {
        let tree = RandomTree { seed, max_depth: 6, max_children: 3 };
        prop_assume!(sequential_profile(&tree).tasks < 20_000);
        let a = Engine::new(cfg(workers, SchemeKind::Uni, 7), tree.clone()).audited().run();
        let b = Engine::new(cfg(workers, SchemeKind::Uni, 7), tree).audited().run();
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.steals_completed, b.steals_completed);
        prop_assert_eq!(a.peak_stack_usage, b.peak_stack_usage);
        prop_assert_eq!(a.fabric.reads, b.fabric.reads);
    }

    /// More workers never changes the result, only the schedule; and the
    /// peak region usage respects the lineage bound (sum of the deepest
    /// chain's frames, which the random generator caps).
    #[test]
    fn stack_usage_bounded_by_lineage(seed in any::<u64>()) {
        let tree = RandomTree { seed, max_depth: 6, max_children: 3 };
        prop_assume!(sequential_profile(&tree).tasks < 20_000);
        let stats = Engine::new(cfg(4, SchemeKind::Uni, 1), tree).audited().run();
        // Max frame 3064, depth ≤ 7 levels → worst lineage < 7 * 3064.
        prop_assert!(stats.peak_stack_usage <= 7 * 3_064);
    }
}
