//! Differential harness: every backend executes the one task model.
//!
//! The workspace has three executors for `uat-model` `Action` programs —
//! the deterministic FX10 cluster simulation (`uat-cluster::Engine`),
//! the native x86-64 fiber runtime (`uat-fiber::NativeRunner`), and the
//! process-per-worker uni-address backend
//! (`uat-fiber::MultiProcessRunner`) — plus the sequential ground truth
//! (`sequential_profile`). For any workload, all of them must expand the
//! *identical* task tree: same task count, same units, same work cycles,
//! and (parallel runtimes vs. model) the same schedule-independent
//! join-tree fingerprint. A divergence means one backend dropped,
//! duplicated, or mis-joined a task.
//!
//! The multiprocess leg runs at two worker counts and is skipped (with
//! the kernel's reason, printed once) only where `memfd_create` +
//! `MAP_FIXED_NOREPLACE` are unavailable.

use proptest::prelude::*;
use uni_address_threads::cluster::{Engine, SimConfig};
use uni_address_threads::fiber::{MultiProcessRunner, NativeRunner};
use uni_address_threads::model::{join_tree_fingerprint, sequential_profile, Action, Workload};
use uni_address_threads::workloads::{Btc, Chain, Fib, NQueens, Uts};

/// Native runner tuned for differential checks: accounting is exact, but
/// the calibrated `Work` spinning is divided down so a run takes
/// microseconds, not the workload's simulated cycle budget.
fn native(workers: usize) -> NativeRunner {
    NativeRunner::new(workers).with_work_divisor(1 << 20)
}

/// Multiprocess runner with the same tuning as [`native`].
fn multiprocess(workers: usize) -> MultiProcessRunner {
    MultiProcessRunner::new(workers).with_work_divisor(1 << 20)
}

/// Once-probed backend support; the skip reason is printed exactly once.
fn mp_supported() -> bool {
    static SUPPORT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SUPPORT.get_or_init(|| match MultiProcessRunner::probe_support() {
        Ok(()) => true,
        Err(e) => {
            eprintln!("skipping multiprocess differential leg: {e}");
            false
        }
    })
}

fn sim_cfg(workers: u32) -> SimConfig {
    let mut cfg = SimConfig::tiny(workers);
    cfg.core.verify_stack_bytes = true;
    cfg.core.iso_stacks_per_worker = 512;
    cfg.max_events = 100_000_000;
    cfg
}

/// Run `w` through the simulator, the native runtime, and the sequential
/// profiler, and require full agreement on every backend-invariant
/// quantity.
fn assert_backends_agree<W>(w: W)
where
    W: Workload + Clone + Send + 'static,
    W::Desc: Copy + 'static,
{
    let name = w.name();
    let p = sequential_profile(&w);

    // Audited: every engine invariant is re-checked after every event.
    let sim = Engine::new(sim_cfg(4), w.clone()).audited().run();
    assert_eq!(sim.total_tasks, p.tasks, "sim tasks diverge: {name}");
    assert_eq!(sim.total_units, p.units, "sim units diverge: {name}");
    assert_eq!(
        sim.total_work_cycles, p.work_cycles,
        "sim work diverges: {name}"
    );

    let nat = native(2).run(w.clone());
    assert_eq!(nat.total_tasks, p.tasks, "native tasks diverge: {name}");
    assert_eq!(nat.total_units, p.units, "native units diverge: {name}");
    assert_eq!(
        nat.total_work_cycles, p.work_cycles,
        "native work diverges: {name}"
    );
    assert_eq!(nat.joins, p.joins, "native joins diverge: {name}");
    assert_eq!(nat.spawns, p.spawns, "native spawns diverge: {name}");
    assert_eq!(
        nat.frame_bytes_total, p.frame_bytes_total,
        "native frame bytes diverge: {name}"
    );
    assert_eq!(
        nat.join_fingerprint,
        join_tree_fingerprint(&w),
        "native join-tree shape diverges: {name}"
    );
    assert_eq!(
        nat.peak_frame_bytes, p.peak_chain_frame_bytes,
        "native peak frame chain diverges: {name}"
    );

    // Transitivity spot-check: the two parallel backends agree directly.
    assert_eq!(sim.total_tasks, nat.total_tasks, "{name}");
    assert_eq!(sim.total_units, nat.total_units, "{name}");

    // Third backend: the same tree across *address spaces*, at two
    // worker-process counts.
    if mp_supported() {
        for workers in [2usize, 4] {
            let mp = multiprocess(workers).run(w.clone());
            let tag = format!("{name} (mp workers={workers})");
            assert_eq!(mp.total_tasks, p.tasks, "mp tasks diverge: {tag}");
            assert_eq!(mp.total_units, p.units, "mp units diverge: {tag}");
            assert_eq!(
                mp.total_work_cycles, p.work_cycles,
                "mp work diverges: {tag}"
            );
            assert_eq!(mp.joins, p.joins, "mp joins diverge: {tag}");
            assert_eq!(mp.spawns, p.spawns, "mp spawns diverge: {tag}");
            assert_eq!(
                mp.frame_bytes_total, p.frame_bytes_total,
                "mp frame bytes diverge: {tag}"
            );
            assert_eq!(
                mp.join_fingerprint,
                join_tree_fingerprint(&w),
                "mp join-tree shape diverges: {tag}"
            );
            assert_eq!(
                mp.join_fingerprint, nat.join_fingerprint,
                "native vs multiprocess fingerprints diverge: {tag}"
            );
            assert_eq!(
                mp.peak_frame_bytes, p.peak_chain_frame_bytes,
                "mp peak frame chain diverges: {tag}"
            );
            assert_eq!(sim.total_tasks, mp.total_tasks, "{tag}");
        }
    }
}

// ---- fixed cases: every paper workload, both backends ----------------

#[test]
fn fib_backends_agree() {
    assert_backends_agree(Fib::new(12));
}

#[test]
fn btc_backends_agree() {
    assert_backends_agree(Btc::new(8, 1));
}

#[test]
fn uts_backends_agree() {
    assert_backends_agree(Uts::geometric(5));
}

#[test]
fn nqueens_backends_agree() {
    assert_backends_agree(NQueens::new(6));
}

#[test]
fn chain_backends_agree() {
    assert_backends_agree(Chain::fig10(50));
}

// ---- the peak is a checked quantity -----------------------------------

/// `peak_frame_bytes` is the deepest root→task frame chain, so — unlike
/// a machine-wide high-water of live frames — it does not depend on the
/// schedule: both real backends must report the sequential profile's
/// value at every worker count.
fn assert_peak_is_the_deepest_chain<W>(w: W)
where
    W: Workload + Clone + Send + 'static,
    W::Desc: Copy + 'static,
{
    let name = w.name();
    let want = sequential_profile(&w).peak_chain_frame_bytes;
    for workers in [1usize, 2, 4] {
        let nat = native(workers).run(w.clone());
        assert_eq!(nat.peak_frame_bytes, want, "{name} native w={workers}");
        if mp_supported() {
            let mp = multiprocess(workers).run(w.clone());
            assert_eq!(mp.peak_frame_bytes, want, "{name} mp w={workers}");
        }
    }
}

#[test]
fn peak_frame_bytes_is_schedule_independent() {
    assert_peak_is_the_deepest_chain(Fib::new(12));
    assert_peak_is_the_deepest_chain(Btc::new(8, 1));
    assert_peak_is_the_deepest_chain(Uts::geometric(5));
    assert_peak_is_the_deepest_chain(NQueens::new(6));
    assert_peak_is_the_deepest_chain(Chain::fig10(50));
    // Frames that differ from task to task, so the deepest chain is not
    // simply the deepest path.
    assert_peak_is_the_deepest_chain(RandomTree {
        seed: 0x5eed,
        max_depth: 6,
        max_children: 3,
    });
}

// ---- randomized cases ------------------------------------------------

/// The same randomized fork-join generator the cluster property tests
/// use: tree shape, work, and frames all derive from a seed, so the
/// sequential profile is ground truth for any backend.
#[derive(Clone, Debug)]
struct RandomTree {
    seed: u64,
    max_depth: u32,
    max_children: u32,
}

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
        let work = mix(h, 1) % 2_000;
        if work > 0 {
            out.push(Action::Work(work));
        }
        if depth >= self.max_depth {
            return;
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any random fork-join tree expands identically on both backends.
    #[test]
    fn random_trees_agree(seed in any::<u64>()) {
        let tree = RandomTree { seed, max_depth: 6, max_children: 3 };
        prop_assume!(sequential_profile(&tree).tasks < 10_000);
        assert_backends_agree(tree);
    }

    /// Small parameterized paper workloads agree for random sizes.
    #[test]
    fn random_small_workloads_agree(
        fib_n in 5u32..13,
        queens in 4u32..7,
        rounds in 1u32..40,
    ) {
        assert_backends_agree(Fib::new(fib_n));
        assert_backends_agree(NQueens::new(queens));
        assert_backends_agree(Chain::fig10(rounds));
    }
}
