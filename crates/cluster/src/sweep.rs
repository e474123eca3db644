//! Scaling sweeps — the Figure 11 harness.

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::metrics::RunStats;
use uat_base::Topology;
use uat_model::Workload;

/// One point of a scaling curve.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Compute workers at this point.
    pub workers: u32,
    /// Full run measurements.
    pub stats: RunStats,
    /// Parallel efficiency relative to the sweep's first (smallest)
    /// point, as the paper reports efficiency relative to 480 cores.
    pub efficiency: f64,
}

/// Run `workload` at each node count (FX10 shape: 15 workers/node) and
/// report throughput + efficiency relative to the first point.
///
/// Points run concurrently on the harness pool sized by
/// [`sweep_threads`](crate::parallel::sweep_threads). Each run is an
/// independent simulation seeded from its own config, so the returned
/// points are bit-identical at any thread count; see [`crate::parallel`]
/// for the argument and `tests/determinism.rs` for the proof.
pub fn sweep<W, F>(base: &SimConfig, node_counts: &[u32], make_workload: F) -> Vec<ScalePoint>
where
    W: Workload + Send,
    F: Fn() -> W + Sync,
{
    sweep_with_threads(
        base,
        node_counts,
        crate::parallel::sweep_threads(),
        make_workload,
    )
}

/// [`sweep`] with an explicit harness thread count (1 = serial on the
/// calling thread).
pub fn sweep_with_threads<W, F>(
    base: &SimConfig,
    node_counts: &[u32],
    threads: usize,
    make_workload: F,
) -> Vec<ScalePoint>
where
    W: Workload + Send,
    F: Fn() -> W + Sync,
{
    let runs = crate::parallel::run_indexed(node_counts.len(), threads, |i| {
        let mut cfg = base.clone();
        cfg.topo = Topology::new(node_counts[i], base.topo.workers_per_node);
        Engine::new(cfg, make_workload()).run()
    });
    let mut points: Vec<ScalePoint> = Vec::with_capacity(runs.len());
    for stats in runs {
        let efficiency = match points.first() {
            Some(first) => stats.efficiency_vs(&first.stats),
            None => 1.0,
        };
        points.push(ScalePoint {
            workers: stats.workers,
            stats,
            efficiency,
        });
    }
    points
}

/// Render a sweep as the throughput table the Figure 11 harness prints.
pub fn render(points: &[ScalePoint], unit: &str) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "{:>8} {:>16} {:>12} {:>10} {:>10}",
        "cores",
        format!("{unit}/s"),
        "time(s)",
        "steals",
        "efficiency"
    )
    .unwrap();
    for p in points {
        writeln!(
            s,
            "{:>8} {:>16.3e} {:>12.4} {:>10} {:>9.1}%",
            p.workers,
            p.stats.throughput(),
            p.stats.seconds(),
            p.stats.steals_completed,
            100.0 * p.efficiency
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use uat_model::testutil::BinTree;

    #[test]
    fn sweep_reports_relative_efficiency() {
        let mut base = SimConfig::fx10(1);
        base.topo = Topology::new(1, 4);
        base.core.verify_stack_bytes = false;
        let points = sweep(&base, &[1, 2], || BinTree {
            depth: 12,
            work: 1_500,
            frame: 256,
        });
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].workers, 4);
        assert_eq!(points[1].workers, 8);
        assert!((points[0].efficiency - 1.0).abs() < 1e-12);
        // A 4095-task tree with real work scales decently to 8 workers.
        assert!(
            points[1].efficiency > 0.7,
            "efficiency {}",
            points[1].efficiency
        );
        let table = render(&points, "tasks");
        assert!(table.contains("efficiency"));
        assert!(table.lines().count() >= 3);
    }
}
