//! Ground-truth validation of the causal profiler's what-if analysis.
//!
//! The simulator makes the expensive half of Coz-style causal profiling
//! cheap: instead of trusting the frozen-schedule DAG replay, these
//! tests *actually re-run* the engine with the hypothetical cost model
//! ([`CostClass::apply`]) and compare. The frozen replay cannot know
//! that the scheduler would make different steal decisions under the
//! new costs, so agreement is only expected where that divergence is
//! second-order: work-dominated runs and moderate factors (DESIGN.md §8
//! spells out the caveats; the steal-dominated regime is exercised with
//! a looser bound below).

use proptest::prelude::*;
use uat_base::Topology;
use uat_bench::compact_config;
use uat_cluster::{Engine, SimConfig};
use uat_model::Workload;
use uat_trace::profile::predict;
use uat_trace::{critical_path, CostClass, Dag};
use uat_workloads::{Fib, NQueens};

/// A 2-node × 8-worker machine: small enough for debug-mode tests,
/// big enough that steals cross nodes.
fn small_config(seed: u64) -> SimConfig {
    let mut cfg = compact_config(2);
    cfg.topo = Topology::new(2, 8);
    cfg.with_seed(seed)
}

/// Percentage error of the frozen-schedule prediction for `class` ×
/// `factor` against a ground-truth engine re-run with the scaled cost
/// model. Also cross-checks the critical-path invariant on the base
/// run.
fn prediction_error<W: Workload>(
    cfg: &SimConfig,
    make: impl Fn() -> W,
    class: CostClass,
    factor: f64,
) -> f64 {
    let (stats, trace) = Engine::new(cfg.clone(), make())
        .with_tracing(1 << 18)
        .run_traced();
    let dag = Dag::build(&trace).expect("ring must hold the whole run");
    let cp = critical_path(&dag);
    assert_eq!(
        cp.total, stats.makespan,
        "critical path must tile the makespan"
    );
    let predicted = predict(&dag, class, factor);
    let mut scaled = cfg.clone();
    class.apply(&mut scaled.cost, factor);
    let truth = Engine::new(scaled, make()).run().makespan;
    100.0 * (predicted.get() as f64 / truth.get() as f64 - 1.0)
}

/// A work-heavy fib: enough cycles per task that the schedule under a
/// scaled cost model stays close to the recorded one. (Fine-grained
/// trees — small `n`, small `work` — are schedule-chaotic: a 10% cost
/// change flips steal ordering and the frozen replay drifts past 1%.)
fn fib() -> Fib {
    Fib {
        n: 20,
        work: 20_000,
        frame: 320,
    }
}

/// Every cost class at a 25% slowdown on NQueens(10): the prediction
/// must land within 1% of the ground-truth re-run.
#[test]
fn what_if_matches_ground_truth_on_nqueens() {
    let cfg = small_config(7);
    for class in CostClass::ALL {
        let err = prediction_error(&cfg, || NQueens::new(10), class, 1.25);
        assert!(
            err.abs() < 1.0,
            "{} ×1.25 prediction off by {err:.2}% on nqueens",
            class.name()
        );
    }
}

proptest! {
    // Each case is two full engine runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random (seed, class, factor) on the two fine-grained benchmarks:
    /// the prediction stays within 1% of ground truth.
    #[test]
    fn prediction_within_one_percent(
        seed in 1u64..64,
        class_i in 0usize..3,
        factor_i in 0usize..3,
        which in 0usize..2,
    ) {
        let class = CostClass::ALL[class_i];
        let factor = [1.05, 1.1, 1.15][factor_i];
        let cfg = small_config(seed);
        let err = if which == 0 {
            prediction_error(&cfg, || NQueens::new(10), class, factor)
        } else {
            prediction_error(&cfg, fib, class, factor)
        };
        prop_assert!(
            err.abs() < 1.0,
            "{} ×{factor} prediction off by {err:.2}% (seed {seed}, {})",
            class.name(),
            if which == 0 { "nqueens" } else { "fib" }
        );
    }
}
