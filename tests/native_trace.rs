//! Native-tracing invariants, run through the shared task model on the
//! real fiber runtime (the observability counterpart of
//! `native_runtime.rs`).
//!
//! For each paper workload, a traced native run must satisfy:
//!
//! 1. **Tiling** — every worker's bucket account sums to exactly the
//!    run makespan when no ring dropped events (the trace is a
//!    partition of wall-cycles, not a sample of them).
//! 2. **Monotonicity** — per worker, instant-event timestamps are
//!    non-decreasing in ring order (each worker stamps its own ring
//!    from one monotone clock).
//! 3. **Profilability** — `profile::Dag` accepts the trace and the
//!    happens-before graph is acyclic, so critical-path and what-if
//!    analysis work on native traces exactly as on simulated ones.
//!
//! A deliberately tiny ring additionally checks the degraded mode:
//! `Dag::build` refuses lossy traces, while the online accounts stay
//! within epsilon of the makespan.

#![cfg(target_arch = "x86_64")]

use uni_address_threads::fiber::NativeRunner;
use uni_address_threads::model::Workload;
use uni_address_threads::trace::{critical_path, Dag, ProfileError};
use uni_address_threads::workloads::{Btc, Chain, Fib, NQueens, Uts};

/// Run `w` traced on `workers` workers and check invariants 1–3.
fn check_traced<W>(w: W, workers: usize)
where
    W: Workload + Send + 'static,
    W::Desc: 'static,
{
    let name = w.name();
    let (stats, trace) = NativeRunner::new(workers)
        .with_work_divisor(8)
        .run_traced(w);
    assert_eq!(
        stats.trace_dropped, 0,
        "{name}: rings must not drop at default capacity"
    );
    let makespan = trace.data.makespan.get();
    assert!(makespan > 0, "{name}: zero makespan");
    assert!(
        trace.data.workers.iter().any(|r| !r.is_empty()),
        "{name}: all event rings empty"
    );

    // 1. Buckets tile wall-cycles exactly in the drop-free case.
    assert_eq!(trace.accounts.len(), workers, "{name}: account per worker");
    for (i, acc) in trace.accounts.iter().enumerate() {
        assert_eq!(
            acc.total().get(),
            makespan,
            "{name}: worker {i} buckets do not tile the makespan"
        );
    }

    // 2. Instant timestamps are monotone per worker in ring order.
    // (Spans are excluded: finalize() appends each worker's idle
    // padding after the events it covers.)
    for (i, ring) in trace.data.workers.iter().enumerate() {
        let mut prev = 0u64;
        for ev in ring.iter().filter(|ev| ev.dur.get() == 0) {
            assert!(
                ev.at.get() >= prev,
                "{name}: worker {i} instant at {} after one at {prev}",
                ev.at.get()
            );
            prev = ev.at.get();
        }
    }

    // 3. The happens-before DAG accepts the trace, is acyclic, and its
    // critical path tiles the makespan (construction invariant).
    let dag = Dag::build(&trace.data)
        .unwrap_or_else(|e| panic!("{name}: Dag::build rejected a drop-free native trace: {e}"));
    dag.check_acyclic()
        .unwrap_or_else(|e| panic!("{name}: cycle in native happens-before graph: {e}"));
    let cp = critical_path(&dag);
    assert_eq!(
        cp.total.get(),
        makespan,
        "{name}: critical path does not span the makespan"
    );
}

#[test]
fn fib_traced_invariants() {
    check_traced(Fib::new(12), 2);
}

#[test]
fn btc_traced_invariants() {
    check_traced(Btc::new(8, 1), 2);
}

#[test]
fn uts_traced_invariants() {
    check_traced(Uts::geometric(5), 3);
}

#[test]
fn nqueens_traced_invariants() {
    check_traced(NQueens::new(6), 3);
}

#[test]
fn chain_traced_invariants() {
    check_traced(Chain::fig10(50), 2);
}

#[test]
fn lossy_ring_degrades_honestly() {
    // A 512-event ring cannot hold NQueens(6): events must be dropped,
    // the DAG must refuse the trace, and the online accounts must still
    // land within epsilon of the (surviving-event) makespan. The ring
    // is small enough to guarantee eviction but large enough that the
    // final task completions survive — the ring keeps the newest
    // events, so only a tiny ring (tens of slots) could lose every
    // `TaskEnd` to the post-completion scheduler tail and with it the
    // makespan.
    let (stats, trace) = NativeRunner::new(2)
        .with_work_divisor(8)
        .with_tracing(512)
        .run_traced(NQueens::new(6));
    assert!(
        stats.trace_dropped > 0,
        "expected drops from a 64-event ring"
    );
    assert_eq!(
        stats.trace_dropped,
        trace.data.dropped(),
        "stats and trace disagree on drop count"
    );

    match Dag::build(&trace.data) {
        Err(ProfileError::DroppedEvents { dropped, .. }) => {
            assert!(dropped > 0, "DroppedEvents with a zero count")
        }
        Ok(_) => panic!("Dag::build accepted a lossy trace"),
        Err(e) => panic!("expected DroppedEvents, got {e}"),
    }

    // Makespan is computed from surviving TaskEnd events, so the online
    // accounts (complete despite drops) may overshoot it slightly; they
    // must not be wildly off.
    let makespan = trace.data.makespan.get();
    assert!(makespan > 0, "lossy trace lost the makespan entirely");
    for (i, acc) in trace.accounts.iter().enumerate() {
        let total = acc.total().get();
        let eps = makespan / 10;
        assert!(
            total.abs_diff(makespan) <= eps,
            "worker {i}: account total {total} vs makespan {makespan} (eps {eps})"
        );
    }
}
