//! The traced run: per-layer numbers for one workload, measured from
//! outside — by timing calls into the layers' public functions and by
//! reading the stats / trace / metrics objects those calls return.
//!
//! End-to-end numbers never come from here. Each workload measures the
//! layers it loads and leaves the rest at 0; the microbenchmarks it runs
//! are listed in `micro::for_workload`.

use crate::host;
use crate::micro;
use crate::run::Ctx;
use crate::stats::median;
use crate::workloads::{
    guarded, run_on, verify_real, Backend, RealCase, Rep, SimCase, SimExact, W,
};
use std::time::Instant;
use uat_core::StealPhase;
use uat_fiber::{NativeRunStats, NativeRunner};
use uat_metrics::names;
use uat_model::{SeqProfile, Workload};
use uat_trace::{Bucket, TimeAccount};
use uat_workloads::Btc;

fn pct_over(base: f64, other: f64) -> f64 {
    (other - base) / base * 100.0
}

fn share(account: &TimeAccount, bucket: Bucket) -> f64 {
    let total = account.total().get();
    if total == 0 {
        return 0.0;
    }
    account.get(bucket).get() as f64 / total as f64
}

fn merged(accounts: impl IntoIterator<Item = TimeAccount>) -> TimeAccount {
    let mut all = TimeAccount::new();
    for a in accounts {
        all.merge(&a);
    }
    all
}

/// Count `stats` as one verified operation.
fn verified(ctx: &mut Ctx, stats: Option<&NativeRunStats>, truth: &SeqProfile) -> bool {
    let rep = stats.map(|s| Rep {
        tasks: s.total_tasks,
        window_s: s.wall.as_secs_f64(),
        host_s: s.wall.as_secs_f64(),
        ok: verify_real(s, truth),
    });
    ctx.count(rep.as_ref())
}

/// Per-layer numbers of a real-backend workload.
pub fn real<P>(ctx: &mut Ctx, case: &RealCase<P>, truth: &SeqProfile)
where
    P: Workload + Clone + Send + Sync + 'static,
    P::Desc: Copy + 'static,
{
    let layer = case.backend.layer();
    let name = ctx.opts.workload.clone();
    let reps = if ctx.opts.quick { 1 } else { 2 };

    // Work overhead (one worker) and scaling (W workers), alternating so
    // drift hits both sides alike.
    let mut wall_1 = Vec::new();
    let mut wall_w = Vec::new();
    for _ in 0..reps {
        for workers in [1, W] {
            let span = format!("runner.run.w{workers}");
            let rep = ctx.rec.scope(&span, |_| case.rep(workers, truth));
            if !ctx.count(rep.as_ref().map(|r| &r.0)) {
                return;
            }
            let wall = rep.expect("counted ok").0.host_s;
            if workers == 1 {
                wall_1.push(wall);
            } else {
                wall_w.push(wall);
            }
        }
    }
    let tasks = truth.tasks as f64;
    let (wall_1, wall_w) = (median(&wall_1), median(&wall_w));
    ctx.set(format!("{layer}.tasks_per_s_w1"), tasks / wall_1);
    ctx.set(format!("{layer}.scaling_eff"), wall_1 / (W as f64 * wall_w));
    if truth.work_cycles == 0 {
        // With no Work in the program, time per task *is* spawn + join.
        ctx.set(format!("{layer}.spawn_join_ns"), wall_1 / tasks * 1e9);
        ctx.set(
            format!("{layer}.spawn_join_w2_ns"),
            W as f64 * wall_w / tasks * 1e9,
        );
    }

    // Scheduler counters, from the metered entry point.
    let metered = ctx
        .rec
        .scope("traced.run.metered", |_| guarded(|| case.run_metered()));
    if !verified(ctx, metered.as_ref().map(|m| &m.0), truth) {
        return;
    }
    let (mstats, snap) = metered.expect("counted ok");
    let ok = snap.total(names::STEALS_COMPLETED) as f64;
    let failed = snap.total(names::STEALS_FAILED) as f64;
    ctx.set(format!("{layer}.steals"), ok);
    ctx.set(format!("{layer}.steals_failed"), failed);
    if ok + failed > 0.0 {
        ctx.set(format!("{layer}.steal_success_ratio"), ok / (ok + failed));
    }
    ctx.set(format!("{layer}.parks"), snap.total(names::PARKS) as f64);
    ctx.set(
        format!("{layer}.unparks"),
        snap.total(names::UNPARKS) as f64,
    );
    if name.starts_with("chain") {
        // One round = one leaf (the program's only unit-bearing task).
        let rounds = truth.units as f64;
        let leaf_s = truth.work_cycles as f64 / rounds / host::tsc_hz();
        ctx.set(
            format!("{layer}.handoff_us"),
            (wall_w / rounds - leaf_s) * 1e6,
        );
        ctx.set(format!("{layer}.steals_per_round"), ok / rounds);
    }

    if case.backend == Backend::Native {
        // The multiprocess counters are always on, so only the thread
        // runtime has a metered-vs-plain difference to report.
        ctx.set(
            "fiber.nmetrics.overhead_pct",
            pct_over(wall_w, mstats.wall.as_secs_f64()),
        );
        let traced = ctx.rec.scope("traced.run", |_| {
            guarded(|| NativeRunner::new(W).run_traced(case.program.clone()))
        });
        if !verified(ctx, traced.as_ref().map(|t| &t.0), truth) {
            return;
        }
        let (tstats, trace) = traced.expect("counted ok");
        ctx.set(
            "fiber.ntrace.overhead_pct",
            pct_over(wall_w, tstats.wall.as_secs_f64()),
        );
        let all = merged(trace.accounts);
        ctx.set("fiber.ntrace.share.work", share(&all, Bucket::Work));
        ctx.set("fiber.ntrace.share.spawn", share(&all, Bucket::Spawn));
        ctx.set("fiber.ntrace.share.steal", all.steal_fraction());
        ctx.set("fiber.ntrace.share.idle", all.idle_fraction());
        ctx.detail
            .insert("fiber.ntrace.dropped".into(), tstats.trace_dropped as f64);
    }

    // Executor start-up: a one-task program is all thread spawn/join
    // (native) or map/mprotect/fork/reap (multiprocess).
    let starts = if ctx.opts.quick { 2 } else { 15 };
    let backend = case.backend;
    let startup_ms: Vec<f64> = ctx.rec.scope("micro.startup", |_| {
        (0..starts)
            .map(|_| {
                let t0 = Instant::now();
                run_on(backend, W, Btc::new(0, 1));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    });
    ctx.set(format!("{layer}.startup_ms"), median(&startup_ms));

    micro::for_workload(ctx, &name);
}

/// Per-layer numbers of a simulator workload.
pub fn sim<P: Workload + Clone>(ctx: &mut Ctx, case: &SimCase<P>, truth: &SeqProfile) {
    let name = ctx.opts.workload.clone();
    let reps = if ctx.opts.quick { 1 } else { 2 };
    let mut first = None;
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let rep = ctx.rec.scope("runner.run", |_| case.rep(truth, &mut first));
        if !ctx.count(rep.as_ref().map(|r| &r.0)) {
            return;
        }
        let (rep, stats) = rep.expect("counted ok");
        walls.push(rep.host_s);
        last = Some(stats);
    }
    let stats = last.expect("at least one repetition");
    let wall = median(&walls);
    let events = stats.events as f64;

    ctx.set(
        "cluster.engine.makespan_cycles",
        stats.makespan.get() as f64,
    );
    ctx.set(
        "cluster.engine.peak_stack_bytes",
        stats.peak_stack_usage as f64,
    );
    ctx.set("cluster.engine.events", events);
    ctx.set(
        "cluster.engine.host_tasks_per_s",
        stats.total_tasks as f64 / wall,
    );
    ctx.set("cluster.engine.ns_per_event", wall / events * 1e9);
    ctx.set(
        "cluster.engine.events_per_task",
        events / stats.total_tasks as f64,
    );
    ctx.set("deque.sim.steal_attempts", stats.steal_attempts as f64);
    ctx.set("deque.sim.steals_completed", stats.steals_completed as f64);
    ctx.set("deque.sim.steal_success_ratio", stats.steal_success_rate());
    let f = &stats.fabric;
    ctx.set("rdma.fabric.reads", f.reads as f64);
    ctx.set("rdma.fabric.writes", f.writes as f64);
    ctx.set("rdma.fabric.faas", f.faas as f64);
    ctx.set("rdma.fabric.read_bytes", f.read_bytes as f64);
    ctx.set("rdma.fabric.write_bytes", f.write_bytes as f64);
    ctx.set("rdma.fabric.faa_queue_cycles", f.faa_queue_cycles as f64);
    ctx.set("vmem.page_faults", stats.page_faults as f64);
    ctx.set("vmem.committed_bytes", stats.committed_total as f64);
    ctx.set(
        "vmem.reserved_va_per_worker",
        stats.reserved_va_per_worker as f64,
    );
    ctx.set("vmem.pinned_per_worker", stats.pinned_per_worker as f64);
    let b = &stats.breakdown;
    for (key, phase) in [
        ("empty", StealPhase::EmptyCheck),
        ("lock", StealPhase::Lock),
        ("entry", StealPhase::Steal),
        ("transfer", StealPhase::StackTransfer),
        ("unlock", StealPhase::Unlock),
    ] {
        ctx.set(
            format!("cluster.engine.steal_cycles.{key}"),
            b.phase(phase).mean,
        );
    }
    ctx.set("cluster.engine.steal_cycles.total", b.total_mean());

    // The traced run: same engine through `run_traced`, for the time
    // shares, the critical path and the cost of tracing itself.
    let traced = ctx.rec.scope("traced.run", |_| {
        guarded(|| {
            let engine = case.engine(&case.program).with_tracing(1 << 20);
            let t0 = Instant::now();
            let (stats, trace) = engine.run_traced();
            (stats, trace, t0.elapsed().as_secs_f64())
        })
    });
    let rep = traced.as_ref().map(|(s, _, host_s)| Rep {
        tasks: s.total_tasks,
        window_s: s.seconds(),
        host_s: *host_s,
        // Tracing must not change what is simulated.
        ok: Some(SimExact::of(s)) == first,
    });
    if !ctx.count(rep.as_ref()) {
        return;
    }
    let (tstats, trace, twall) = traced.expect("counted ok");
    ctx.set("cluster.engine.trace_overhead_pct", pct_over(wall, twall));
    let all = merged(tstats.per_worker.iter().map(|w| w.account.clone()));
    ctx.set("cluster.engine.share.work", share(&all, Bucket::Work));
    ctx.set("cluster.engine.share.spawn", share(&all, Bucket::Spawn));
    ctx.set(
        "cluster.engine.share.suspend_resume",
        share(&all, Bucket::SuspendResume),
    );
    ctx.set("cluster.engine.share.steal", all.steal_fraction());
    ctx.set("cluster.engine.share.idle", all.idle_fraction());
    let path = ctx.rec.scope("traced.critical_path", |_| {
        uat_trace::Dag::build(&trace).map(|dag| uat_trace::critical_path(&dag))
    });
    match path {
        Ok(cp) => {
            ctx.set(
                "cluster.engine.critical_path.total_cycles",
                cp.total.get() as f64,
            );
            ctx.set(
                "cluster.engine.critical_path.work_share",
                share(&cp.account, Bucket::Work),
            );
            ctx.set(
                "cluster.engine.critical_path.steal_share",
                cp.account.steal_fraction(),
            );
            ctx.set(
                "cluster.engine.critical_path.steal_edges",
                cp.steal_edges as f64,
            );
            ctx.set(
                "cluster.engine.critical_path.join_edges",
                cp.join_edges as f64,
            );
        }
        // A ring that dropped events cannot be profiled; the counts
        // above still stand, the path metrics stay 0.
        Err(e) => eprintln!("{name}: no critical path: {e}"),
    }

    micro::for_workload(ctx, &name);
}
