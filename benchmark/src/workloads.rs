//! The seven workloads: their inputs, the executors that run them, and
//! the correctness check every repetition passes through.
//!
//! Load is sized for the 2-core host this benchmark was defined on:
//! `W = 2` workers, one generator (this process), `work_divisor = 1`,
//! closed loop — the programs are fork-join, so the next repetition
//! starts when the previous one returns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use uat_cluster::{Engine, RunStats, SimConfig};
use uat_fiber::{MultiProcessRunner, NativeRunStats, NativeRunner};
use uat_model::{Action, SeqProfile, Workload};
use uat_workloads::{Btc, Uts};

/// Worker count of the parallel runs (`nproc` of the defining host).
pub const W: usize = 2;

/// Default `--seed` of `run --all`.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Task descriptor of [`SegChain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegDesc {
    Root,
    Segment,
    Leaf,
}

/// Figure 10's ping-pong, long enough to time: the root runs `segments`
/// chain segments one after the other, each a `uat_workloads::Chain`-
/// shaped `rounds`-round spawn/join of one leaf. With two workers every
/// round is a steal of the segment's continuation, a join-park and a
/// cross-worker resume.
///
/// It is segmented because a task's whole program must fit the
/// multiprocess slot's program area (`PROG_BYTES` = 128 KiB in
/// `uat_fiber::mpruntime`): 4000 rounds are 8000 16-byte actions, just
/// under it; a single 20 000-round chain panics in `exec_mp`.
#[derive(Clone, Debug)]
pub struct SegChain {
    pub segments: u32,
    pub rounds: u32,
    pub frame: u64,
    pub leaf_work: u64,
}

impl SegChain {
    pub fn standard() -> Self {
        SegChain {
            segments: 64,
            rounds: 4_000,
            frame: 3_055,
            leaf_work: 5_000,
        }
    }
}

impl Workload for SegChain {
    type Desc = SegDesc;

    fn root(&self) -> SegDesc {
        SegDesc::Root
    }

    fn program(&self, d: &SegDesc, out: &mut Vec<Action<SegDesc>>) {
        match d {
            SegDesc::Root => {
                for _ in 0..self.segments {
                    out.push(Action::Spawn(SegDesc::Segment));
                    out.push(Action::JoinAll);
                }
            }
            SegDesc::Segment => {
                for _ in 0..self.rounds {
                    out.push(Action::Spawn(SegDesc::Leaf));
                    out.push(Action::JoinAll);
                }
            }
            SegDesc::Leaf => out.push(Action::Work(self.leaf_work)),
        }
    }

    fn frame_size(&self, d: &SegDesc) -> u64 {
        match d {
            SegDesc::Root | SegDesc::Leaf => 256,
            SegDesc::Segment => self.frame,
        }
    }

    fn units(&self, d: &SegDesc) -> u64 {
        u64::from(*d == SegDesc::Leaf)
    }

    fn name(&self) -> String {
        format!("segchain({}x{} rounds)", self.segments, self.rounds)
    }
}

/// Which real executor a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Native,
    Mp,
}

impl Backend {
    /// Layer name prefix of this executor's per-layer metrics.
    pub fn layer(self) -> &'static str {
        match self {
            Backend::Native => "fiber.runtime",
            Backend::Mp => "fiber.mpruntime",
        }
    }
}

/// One timed repetition, reduced to what the end-to-end metrics need.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    pub tasks: u64,
    /// The run window `tasks_per_s` divides by: host seconds on the
    /// real backends, *simulated* seconds on the simulator.
    pub window_s: f64,
    /// Host seconds the repetition took.
    pub host_s: f64,
    pub ok: bool,
}

impl Rep {
    pub fn tasks_per_s(&self) -> f64 {
        self.tasks as f64 / self.window_s
    }
}

/// Run `f`, turning a panic (a dead multiprocess worker, a panicked
/// worker thread) into `None` so the repetition counts as failed instead
/// of taking the benchmark down before it reports.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Every real-backend run must have expanded exactly the tree the
/// sequential traversal does.
pub fn verify_real(stats: &NativeRunStats, truth: &SeqProfile) -> bool {
    stats.total_tasks == truth.tasks
        && stats.total_units == truth.units
        && stats.join_fingerprint == truth.join_fingerprint
}

/// Run `program` on `backend` with `workers` workers.
pub fn run_on<P>(backend: Backend, workers: usize, program: P) -> NativeRunStats
where
    P: Workload + Send + Sync + 'static,
    P::Desc: Copy + 'static,
{
    match backend {
        Backend::Native => NativeRunner::new(workers).run(program),
        Backend::Mp => MultiProcessRunner::new(workers).run(program),
    }
}

/// A workload on one of the two real executors.
pub struct RealCase<P> {
    pub backend: Backend,
    pub program: P,
    /// Same shape at about a fifth of the size, run once per set-up.
    pub warm: P,
}

impl<P> RealCase<P>
where
    P: Workload + Clone + Send + Sync + 'static,
    P::Desc: Copy + 'static,
{
    pub fn run(&self, workers: usize, program: &P) -> NativeRunStats {
        run_on(self.backend, workers, program.clone())
    }

    /// The workload at `W` workers through the executor's metered entry
    /// point: the run's stats plus its metrics snapshot.
    pub fn run_metered(&self) -> (NativeRunStats, uat_metrics::Snapshot) {
        let p = self.program.clone();
        match self.backend {
            Backend::Native => NativeRunner::new(W).run_metered(p),
            Backend::Mp => MultiProcessRunner::new(W).run_metered(p),
        }
    }

    /// Whether the host can run this executor at all.
    pub fn probe(&self) -> Result<(), String> {
        match self.backend {
            Backend::Native => Ok(()),
            Backend::Mp => MultiProcessRunner::probe_support(),
        }
    }

    pub fn rep(&self, workers: usize, truth: &SeqProfile) -> Option<(Rep, NativeRunStats)> {
        let stats = guarded(|| self.run(workers, &self.program))?;
        let wall_s = stats.wall.as_secs_f64();
        let rep = Rep {
            tasks: stats.total_tasks,
            window_s: wall_s,
            host_s: wall_s,
            ok: verify_real(&stats, truth),
        };
        Some((rep, stats))
    }
}

/// A workload on the discrete-event simulator.
pub struct SimCase<P> {
    pub nodes: u32,
    pub seed: u64,
    pub program: P,
    /// The `run --quick` stand-in for `program`.
    pub small: P,
}

/// The simulated statistics that must repeat exactly for one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimExact {
    pub events: u64,
    pub makespan: u64,
    pub steals_completed: u64,
    pub peak_stack_usage: u64,
}

impl SimExact {
    pub fn of(s: &RunStats) -> Self {
        SimExact {
            events: s.events,
            makespan: s.makespan.get(),
            steals_completed: s.steals_completed,
            peak_stack_usage: s.peak_stack_usage,
        }
    }
}

impl<P: Workload + Clone> SimCase<P> {
    pub fn config(&self) -> SimConfig {
        SimConfig::fx10(self.nodes).with_seed(self.seed)
    }

    pub fn engine(&self, program: &P) -> Engine<P> {
        Engine::new(self.config(), program.clone())
    }

    /// One run; the host time is that of `Engine::run` alone.
    pub fn run(&self, program: &P) -> (RunStats, f64) {
        let engine = self.engine(program);
        let t0 = Instant::now();
        let stats = engine.run();
        (stats, t0.elapsed().as_secs_f64())
    }

    /// A sim repetition is correct when it ran the sequential traversal's
    /// task count and reproduced the first repetition's exact statistics.
    pub fn rep(&self, truth: &SeqProfile, first: &mut Option<SimExact>) -> Option<(Rep, RunStats)> {
        let (stats, host_s) = guarded(|| self.run(&self.program))?;
        let exact = SimExact::of(&stats);
        let ok = stats.total_tasks == truth.tasks && *first.get_or_insert(exact) == exact;
        let rep = Rep {
            tasks: stats.total_tasks,
            window_s: stats.seconds(),
            host_s,
            ok,
        };
        Some((rep, stats))
    }
}

/// Warm-ups have the workload's shape at roughly a fifth of its size:
/// long enough (~0.1-0.2 s) that set-up time is a steady number, short
/// enough to repeat five times per run.
pub fn btc_fine(backend: Backend) -> RealCase<Btc> {
    RealCase {
        backend,
        program: Btc::new(20, 1),
        warm: Btc::new(17, 1),
    }
}

pub fn btc_coarse(backend: Backend) -> RealCase<Btc> {
    let at_depth = |depth| Btc {
        depth,
        iter: 1,
        work: 20_000,
    };
    RealCase {
        backend,
        program: at_depth(16),
        warm: at_depth(13),
    }
}

pub fn chain(backend: Backend) -> RealCase<SegChain> {
    RealCase {
        backend,
        program: SegChain::standard(),
        warm: SegChain {
            segments: 12,
            ..SegChain::standard()
        },
    }
}

pub fn uts60(seed: u64) -> SimCase<Uts> {
    SimCase {
        nodes: 4,
        seed,
        program: Uts::geometric(11),
        small: Uts::geometric(8),
    }
}

pub fn btc120(seed: u64) -> SimCase<Btc> {
    SimCase {
        nodes: 8,
        seed,
        program: Btc::new(20, 1),
        small: Btc::new(16, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uat_model::sequential_profile;

    #[test]
    fn segchain_counts_and_fits_the_slot_program_area() {
        let w = SegChain {
            segments: 3,
            rounds: 5,
            frame: 3_055,
            leaf_work: 10,
        };
        let p = sequential_profile(&w);
        assert_eq!(p.tasks, 1 + 3 + 15);
        assert_eq!(p.units, 15);
        assert_eq!(p.joins, 3 + 15);
        assert_eq!(p.work_cycles, 150);
        // The standard segment's program must fit PROG_BYTES (128 KiB)
        // minus the slot header.
        let std = SegChain::standard();
        let mut prog = Vec::new();
        std.program(&SegDesc::Segment, &mut prog);
        let bytes = prog.len() * std::mem::size_of::<Action<SegDesc>>();
        assert!(bytes + 256 <= 128 << 10, "{bytes} bytes of program");
        assert_eq!(sequential_profile(&std).units, 256_000);
    }

    #[test]
    fn real_verify_rejects_a_wrong_tree() {
        let case = RealCase {
            backend: Backend::Native,
            program: Btc::new(6, 1),
            warm: Btc::new(2, 1),
        };
        let good = sequential_profile(&case.program);
        let (rep, stats) = case.rep(1, &good).expect("runs");
        assert!(rep.ok && rep.tasks == 127);
        let other = sequential_profile(&Btc::new(5, 1));
        assert!(!verify_real(&stats, &other));
    }

    #[test]
    fn sim_rep_checks_exact_repeat() {
        let case = SimCase {
            nodes: 1,
            seed: 7,
            program: Btc::new(8, 1),
            small: Btc::new(2, 1),
        };
        let t = sequential_profile(&case.program);
        let mut first = None;
        let (a, _) = case.rep(&t, &mut first).unwrap();
        let (b, _) = case.rep(&t, &mut first).unwrap();
        assert!(a.ok && b.ok);
        // A first repetition that differs makes the next one fail.
        let mut tampered = first.map(|mut e| {
            e.makespan += 1;
            e
        });
        let (c, _) = case.rep(&t, &mut tampered).unwrap();
        assert!(!c.ok);
    }

    #[test]
    fn guarded_turns_a_panic_into_none() {
        assert_eq!(guarded(|| 3), Some(3));
        assert!(guarded(|| -> u32 { panic!("dead worker") }).is_none());
    }
}
