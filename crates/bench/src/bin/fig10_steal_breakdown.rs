//! Figure 10 / Table 3: breakdown of work-stealing time.
//!
//! The paper's experiment: "two workers steal a single thread from each
//! other ... The size of the stolen stack frame is 3055 bytes." The
//! [`Chain`] workload reproduces it: on two workers, every link of the
//! chain leaves the joining parent suspended on one worker while the
//! other worker steals it — a steady ping-pong of one 3,055-byte thread.
//!
//! `--backend native|multiprocess` runs the same ping-pong on a real
//! executor instead (two OS threads, or two worker *processes* stealing
//! the suspended thread through the shared uni-address region) and
//! reports steal counts and throughput; the cycle breakdown by phase is
//! a simulator-only view (real steals aren't phase-instrumented).

use uat_base::json::ToJson;
use uat_base::{CostModel, Cycles, Topology};
use uat_bench::{deviation, kcycles, paper, write_chrome_trace, write_output, OutFlags};
use uat_cluster::{Engine, SimConfig};
use uat_core::StealPhase;
use uat_workloads::Chain;

fn main() {
    let flags = OutFlags::parse();
    let backend = uat_bench::backend_flag(&flags.rest)
        .and_then(|(b, _)| uat_bench::check_output_flags(&flags, b).map(|()| b));
    let backend = match backend {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if backend != uat_bench::Backend::Sim {
        // The paper's two-worker ping-pong on a real executor: every
        // link's suspended parent migrates to the other worker.
        println!(
            "# Figure 10 setup on the {} backend — 2 workers, Chain::fig10(2000)",
            backend.name()
        );
        if let Some(stats) = uat_bench::run_real_backend(backend, 2, 1, Chain::fig10(2_000), &flags)
        {
            println!(
                "steal-driven links: {} steals over {} joins (phase breakdown is sim-only)",
                stats.steals, stats.joins
            );
        }
        return;
    }
    // The paper's setup: *inter-node* work stealing, one worker per node.
    let mut cfg = SimConfig::fx10(2);
    cfg.topo = Topology::new(2, 1);
    cfg.core.verify_stack_bytes = true;
    let links = 2_000;
    let registry = uat_bench::wants_metrics(&flags).then(|| {
        std::sync::Arc::new(uat_metrics::Registry::new(cfg.topo.total_workers() as usize))
    });
    let engine = Engine::new(cfg, Chain::fig10(links));
    let engine = match &registry {
        Some(r) => engine.with_metrics(r),
        None => engine,
    };

    let (stats, trace) = if flags.trace.is_some() {
        // A ring deep enough to hold the whole run, so exported
        // steal-phase sums match the breakdown exactly.
        let (stats, trace) = engine.with_tracing(1 << 20).run_traced();
        (stats, Some(trace))
    } else {
        (engine.run(), None)
    };

    println!("# Figure 10 — breakdown of inter-node work stealing (3,055-byte stack)\n");
    println!(
        "steals completed: {} (attempts: {})\n",
        stats.breakdown.completed, stats.steal_attempts
    );
    println!(
        "{:<16} {:>12} {:>9}   (Table 3 operation)",
        "phase", "mean cycles", "share"
    );
    let total = stats.breakdown.total_mean();
    let table3 = [
        "1 RDMA READ",
        "remote fetch-and-add",
        "2 RDMA READ + 1 RDMA WRITE",
        "suspend running thread",
        "1 RDMA READ (stack frames)",
        "1 RDMA WRITE",
        "resume stolen thread",
    ];
    for (p, op) in StealPhase::ALL.iter().zip(table3) {
        let m = stats.breakdown.phase(*p).mean;
        println!(
            "{:<16} {:>12.0} {:>8.1}%   {}",
            p.name(),
            m,
            100.0 * m / total,
            op
        );
    }
    println!("{:<16} {:>12.0}", "total", total);

    // In this reproduction's Figure 7 flow the ping-pong thief is idle
    // when it steals (the blocked joiner resumed in place), so the
    // in-protocol suspend bar is ~0; the suspend/resume pair of a
    // 3,055-byte thread is the uni-address scheme's own overhead and is
    // measured directly from the cost model, as §6.3 reports it.
    let cost = CostModel::fx10();
    let suspend_pair = (cost.suspend_cost(3_055) + cost.resume_cost(3_055)).get() as f64;
    let adj_total = total
        - stats.breakdown.phase(StealPhase::Suspend).mean
        - stats.breakdown.phase(StealPhase::Resume).mean
        + suspend_pair;

    println!("\n# Paper comparison");
    println!(
        "{:<44} {:>10} {:>10} {:>10}",
        "quantity", "measured", "paper", "deviation"
    );
    println!(
        "{:<44} {:>10} {:>10} {:>10}",
        "total steal time incl. suspend/resume pair",
        kcycles(adj_total),
        kcycles(paper::STEAL_TOTAL),
        deviation(adj_total, paper::STEAL_TOTAL)
    );
    println!(
        "{:<44} {:>10} {:>10} {:>10}",
        "suspend + resume of 3,055-byte thread",
        kcycles(suspend_pair),
        kcycles(paper::STEAL_SUSPEND_RESUME),
        deviation(suspend_pair, paper::STEAL_SUSPEND_RESUME)
    );
    let sr = suspend_pair / adj_total;
    println!(
        "{:<44} {:>9.1}% {:>10} {:>10}",
        "suspend + resume share",
        100.0 * sr,
        "7.7%",
        deviation(sr, 0.077)
    );
    println!(
        "{:<44} {:>10} {:>10} {:>10}",
        "lock (software FAA) phase (cycles)",
        kcycles(stats.breakdown.phase(StealPhase::Lock).mean),
        kcycles(paper::FAA_CYCLES),
        deviation(
            stats.breakdown.phase(StealPhase::Lock).mean,
            paper::FAA_CYCLES
        )
    );
    println!(
        "\nstolen stack bytes per transfer: {} (paper: 3055); makespan {}",
        3_055,
        Cycles(stats.makespan.get())
    );

    if let (Some(path), Some(trace)) = (&flags.trace, &trace) {
        if trace.dropped() > 0 {
            eprintln!(
                "warning: ring overflow dropped {} events; enlarge the ring \
                 for exact phase sums",
                trace.dropped()
            );
        }
        write_chrome_trace(path, trace, "Chrome trace");
    }
    if let Some(path) = &flags.json {
        write_output(path, &uat_trace::jsonl([stats.to_json()]), "JSONL results");
    }
    if let Some(r) = &registry {
        uat_bench::emit_metrics(&flags, &[("sim", r.snapshot())]);
    }
}
