//! Native live-metrics acceptance: one uts11 run on real fibers with
//! the registry *and* the tracer attached, then every exported total is
//! checked against the ground truth the structured trace recorded. The
//! trace and the timed tier share the clock — each worker's observer
//! stamps an event once and gives both tiers that stamp, so their
//! histogram sums equal the trace's sums exactly — but
//! the counts still come from independent sources: the always-on
//! counter rows the worker body bumps, the histograms' sample counts,
//! and the trace's events. Agreement here means the counters and
//! histograms report the same run the offline trace proves happened.

#![cfg(target_arch = "x86_64")]

use std::sync::Arc;
use uni_address_threads::fiber::NativeRunner;
use uni_address_threads::metrics::{names, Registry};
use uni_address_threads::trace::{EventKind, StealOutcome};
use uni_address_threads::workloads::Uts;

#[test]
fn exported_totals_match_trace_ground_truth() {
    let workers = 2;
    let registry = Arc::new(Registry::new(workers));
    // Rings big enough that nothing drops: a dropped event would void
    // the "same run" premise of every equality below (asserted first).
    // The run emits ~16.0M events in all and how they split between the
    // two workers is up to the schedule, so each ring is bounded to hold
    // every one of them; a ring grows as it fills, so the bound itself
    // costs no memory.
    let (stats, trace) = NativeRunner::new(workers)
        .with_metrics(Arc::clone(&registry))
        .with_tracing(1 << 25)
        .run_traced(Uts::geometric(11));
    assert_eq!(stats.trace_dropped, 0, "rings dropped events");
    let snap = registry.snapshot();

    // Task counts: scheduler accounting, metrics counter, task-run
    // histogram, and trace TaskEnd events must all agree exactly.
    let task_ends = trace
        .data
        .events()
        .filter(|e| matches!(e.kind, EventKind::TaskEnd { .. }))
        .count() as u64;
    assert_eq!(snap.total(names::TASKS), stats.total_tasks);
    assert_eq!(task_ends, stats.total_tasks);
    let run_hist = snap
        .histogram(names::TASK_RUN)
        .expect("task-run histogram registered");
    assert_eq!(run_hist.count(), stats.total_tasks);

    // Steal counts: every attempt in a traced+metered run takes the
    // phase-stamped path, so StealResult events partition exactly into
    // the completed/failed counters and each one fed the latency
    // histogram.
    let (mut ok, mut failed, mut latency) = (0u64, 0u64, 0u64);
    for e in trace.data.events() {
        if let EventKind::StealResult {
            outcome,
            latency: l,
            ..
        } = e.kind
        {
            latency += l.get();
            match outcome {
                StealOutcome::Completed => ok += 1,
                _ => failed += 1,
            }
        }
    }
    assert_eq!(snap.total(names::STEALS_COMPLETED), ok);
    assert_eq!(snap.total(names::STEALS_FAILED), failed);
    assert_eq!(ok, stats.steals);
    let steal_hist = snap
        .histogram(names::STEAL_LATENCY)
        .expect("steal-latency histogram registered");
    assert_eq!(steal_hist.count(), ok + failed);

    // Durations: one stamp per event, shared by both tiers, so the
    // histograms' sums are the trace's sums to the cycle.
    let run: u64 = trace
        .data
        .events()
        .filter_map(|e| match e.kind {
            EventKind::TaskEnd { run, .. } => Some(run.get()),
            _ => None,
        })
        .sum();
    assert_eq!(run_hist.sum(), run, "task-run sum vs trace TaskEnd.run");
    assert_eq!(
        steal_hist.sum(),
        latency,
        "steal-latency sum vs trace StealResult.latency"
    );

    assert!(snap.total(names::HEARTBEATS) > 0, "no scheduler heartbeats");
    assert_eq!(snap.total(names::TRACE_DROPPED), 0);
}
