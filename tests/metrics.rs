//! The metrics layer from the root package: the histogram's quantile
//! error bound the exported latency tails rely on (every runtime build
//! links it, so `cargo test` at the top checks it, as `tests/deque.rs`
//! does for the THE deque), and the simulator's registry against the
//! `RunStats` of the same run.

#[path = "../crates/metrics/tests/hist_prop.rs"]
mod hist_prop;

use std::sync::Arc;
use uat_cluster::{Engine, SimConfig};
use uat_metrics::{names, Registry};
use uat_workloads::Uts;

/// The engine counts each fact once, in one row per worker, and fills
/// an attached registry from those rows and its two histograms when the
/// run ends: the registry, `RunStats`' totals and digests, and the
/// per-worker rows must all tell the same story.
#[test]
fn task_counters_match_run_stats() {
    let cfg = SimConfig::fx10(1);
    let workers = cfg.topo.total_workers() as usize;
    let registry = Arc::new(Registry::new(workers));
    let stats = Engine::new(cfg, Uts::geometric(9))
        .with_metrics(&registry)
        .run();
    let snap = registry.snapshot();

    // Task and steal totals.
    assert_eq!(snap.total(names::TASKS), stats.total_tasks);
    let completed = snap.total(names::STEALS_COMPLETED);
    let failed = snap.total(names::STEALS_FAILED);
    assert!(completed > 0, "16 workers on uts9 must steal");
    assert_eq!(completed, stats.steals_completed);
    let b = &stats.breakdown;
    assert_eq!(completed, b.completed);
    assert_eq!(failed, b.aborted_empty + b.aborted_lock + b.aborted_raced);
    // Attempts still in flight when the root finishes never resolve.
    assert!(completed + failed <= stats.steal_attempts);

    // The two digests: one sample per resolved attempt, one per task.
    let digest = |name| snap.histogram(name).expect("registered").summary();
    assert_eq!(digest(names::STEAL_LATENCY), stats.steal_latency);
    assert_eq!(digest(names::TASK_RUN), stats.task_run_length);
    assert_eq!(stats.steal_latency.count, completed + failed);
    assert_eq!(stats.task_run_length.count, stats.total_tasks);
    assert!(stats.task_run_length.p50 > 0, "tasks take simulated time");

    // The per-worker rows sum to the totals, and the registry's
    // completed-steal shards are those rows.
    let rows = &stats.per_worker;
    assert_eq!(rows.len(), workers);
    let attempts: u64 = rows.iter().map(|w| w.steal_attempts).sum();
    let stolen: Vec<u64> = rows.iter().map(|w| w.steals_completed).collect();
    let tasks_run: u64 = rows.iter().map(|w| w.tasks_run).sum();
    assert_eq!(attempts, stats.steal_attempts);
    assert_eq!(stolen.iter().sum::<u64>(), stats.steals_completed);
    assert_eq!(snap.per_worker(names::STEALS_COMPLETED), Some(&stolen[..]));
    // Activations: every spawned child (the root is installed, not
    // spawned) plus every stolen continuation.
    assert_eq!(tasks_run, stats.total_tasks - 1 + stats.steals_completed);
}
