//! Registry wiring vs. ground truth: the engine fills a
//! `uat_metrics::Registry` at the end of a run from the same samples it
//! emits as exact `StealResult` trace events. The log-bucketed histogram
//! must agree with the exact latency distribution to within its
//! documented bucket resolution — the acceptance bar for the sim side of
//! the live-metrics layer, checked at the paper's 64-worker UTS point.
//! (The registry-vs-`RunStats` cross-check runs in the root package's
//! `tests/metrics.rs`, so tier-1 covers it.)

use std::sync::Arc;
use uat_base::Topology;
use uat_cluster::{Engine, SimConfig};
use uat_metrics::{bucket_index, bucket_upper, names, Registry};
use uat_trace::EventKind;
use uat_workloads::Uts;

#[test]
fn steal_latency_quantiles_match_exact_trace_within_one_bucket() {
    let cfg = SimConfig {
        topo: Topology::new(4, 16), // 64 workers across 4 nodes
        ..SimConfig::fx10(4)
    };
    let workers = cfg.topo.total_workers() as usize;
    assert_eq!(workers, 64);
    let registry = Arc::new(Registry::new(workers));
    let (stats, data) = Engine::new(cfg, Uts::geometric(11))
        .with_metrics(&registry)
        .with_tracing(1 << 20) // rings big enough that nothing drops
        .run_traced();

    // Ground truth: the exact latency of every steal attempt, from the
    // structured trace. Rings must not have dropped events, or the
    // "same sample set" premise below is void.
    for (w, ring) in data.workers.iter().enumerate() {
        assert_eq!(ring.dropped(), 0, "worker {w} ring dropped events");
    }
    let mut exact: Vec<u64> = data
        .events()
        .filter_map(|e| match e.kind {
            EventKind::StealResult { latency, .. } => Some(latency.get()),
            _ => None,
        })
        .collect();
    exact.sort_unstable();
    assert!(
        exact.len() as u64 >= stats.steals_completed,
        "trace saw fewer steal results than completed steals"
    );
    assert!(!exact.is_empty(), "64-worker uts11 run must steal");

    let snap = registry.snapshot();
    let hist = snap
        .histogram(names::STEAL_LATENCY)
        .expect("steal-latency histogram registered");
    assert_eq!(
        hist.count(),
        exact.len() as u64,
        "one histogram sample per StealResult event"
    );
    let completed = snap.total(names::STEALS_COMPLETED);
    let failed = snap.total(names::STEALS_FAILED);
    assert_eq!(completed, stats.steals_completed);
    assert_eq!(completed + failed, exact.len() as u64);

    for q in [0.50, 0.90, 0.99, 0.999] {
        // The histogram reports the upper bound of the bucket holding
        // the ceil(q*n)-th smallest sample; with identical sample sets
        // that is exactly the bucket of the exact quantile. Allow one
        // bucket of slack per the acceptance criterion.
        let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        let exact_q = exact[rank - 1];
        let hist_q = hist.quantile(q);
        let eb = bucket_index(exact_q);
        let hb = bucket_index(hist_q);
        assert!(
            eb.abs_diff(hb) <= 1,
            "q={q}: exact {exact_q} (bucket {eb}) vs histogram {hist_q} (bucket {hb})"
        );
        // And the reported value really is that bucket's upper bound.
        assert_eq!(hist_q, bucket_upper(hb));
        assert!(
            hist_q >= exact_q,
            "upper bound must dominate the exact value"
        );
    }
}
