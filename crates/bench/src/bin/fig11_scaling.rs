//! Figure 11: parallel throughput of BTC (iter=1, iter=2), UTS and
//! NQueens across core counts, with efficiency relative to the smallest
//! point (the paper reports efficiency relative to 480 cores).
//!
//! Usage: `fig11_scaling [btc1|btc2|uts|nqueens|all] [--big]
//! [--json <path>] [--trace <path>] [--metrics] [--metrics-json <path>]`
//!
//! `--json` writes one JSONL line per sweep point (benchmark, problem
//! size, worker count, efficiency, full `RunStats`). `--trace` writes a
//! Chrome trace of one representative run — the first selected
//! benchmark at its small size on the smallest machine of the sweep —
//! openable at `ui.perfetto.dev`. `--metrics`/`--metrics-json` export
//! the final registry snapshot of a representative run chosen the same
//! way (Prometheus text to stderr, JSON to the given path).
//!
//! Like the paper's figures, each benchmark is run at **two problem
//! sizes**: efficiency at the top of the sweep improves with problem
//! size ("all benchmarks scale well in large problems", §6.4). Problem
//! sizes are scaled to the simulator — the paper's runs execute 10^11+
//! tasks; the shape (flat per-core throughput for the larger size) is
//! the reproduction target.
//!
//! Default sweep: 60→960 cores. `--big`: 480→3,840 cores (the paper's
//! range) with larger trees; minutes per curve.
//!
//! `--backend native|multiprocess` sweeps the same benchmarks on a real
//! executor instead (1→4 OS threads or worker processes on this
//! machine, problem sizes scaled down to wall-clock budgets), reporting
//! measured tasks/s per worker count — the single-node analogue of the
//! figure's throughput axis.

use uat_base::json::{Json, ToJson};
use uat_bench::{compact_config, write_chrome_trace, write_output, OutFlags};
use uat_cluster::sweep::{render, sweep};
use uat_model::Workload;
use uat_workloads::{Btc, NQueens, Uts};

fn run_pair<W: Workload + Send, F: Fn(u32) -> W + Sync>(
    title: &str,
    unit: &str,
    nodes: &[u32],
    sizes: (u32, u32),
    make: F,
    lines: &mut Vec<Json>,
) {
    let base = compact_config(nodes[0]);
    for size in [sizes.0, sizes.1] {
        let w = make(size);
        println!("## {title} — {} (throughput = {unit}/s)", w.name());
        let pts = sweep(&base, nodes, || make(size));
        print!("{}", render(&pts, unit));
        println!();
        for p in &pts {
            lines.push(Json::obj([
                ("figure", Json::str(title)),
                ("benchmark", Json::str(w.name())),
                ("size", Json::UInt(size as u64)),
                ("workers", Json::UInt(p.workers as u64)),
                ("efficiency", Json::Num(p.efficiency)),
                ("stats", p.stats.to_json()),
            ]));
        }
    }
}

/// One metered run of the sweep's smallest machine; its final registry
/// snapshot is what `--metrics`/`--metrics-json` export.
fn metered_run<W: Workload>(flags: &OutFlags, nodes: u32, w: W) {
    let cfg = compact_config(nodes);
    let registry =
        std::sync::Arc::new(uat_metrics::Registry::new(cfg.topo.total_workers() as usize));
    uat_cluster::Engine::new(cfg, w)
        .with_metrics(&registry)
        .run();
    uat_bench::emit_metrics(flags, &[("sim", registry.snapshot())]);
}

/// One traced run of the sweep's smallest machine, exported for
/// Perfetto.
fn write_trace<W: Workload>(path: &std::path::Path, nodes: u32, w: W) {
    // A bounded ring per worker: big sweeps run millions of tasks, so
    // keep the newest window of events (the ring drops oldest first)
    // rather than an export too large to open in Perfetto.
    let (_, trace) = uat_cluster::Engine::new(compact_config(nodes), w)
        .with_tracing(1 << 14)
        .run_traced();
    write_chrome_trace(path, &trace, "Chrome trace");
}

/// `--backend native|multiprocess`: the single-node real-executor sweep.
fn real_sweep(backend: uat_bench::Backend, which: &str, flags: &OutFlags) {
    println!(
        "# Figure 11 on the {} backend — worker sweep on this machine (measured tasks/s)",
        backend.name()
    );
    // Problem sizes scaled to wall-clock budgets (the sim sizes are
    // cycle-budget sized); Work cycles are spun faithfully (divisor 1).
    for workers in [1usize, 2, 4] {
        println!("## {workers} worker(s)");
        if which == "btc1" || which == "all" {
            uat_bench::run_real_backend(backend, workers, 1, Btc::new(16, 1), flags);
        }
        if which == "btc2" || which == "all" {
            uat_bench::run_real_backend(backend, workers, 1, Btc::new(9, 2), flags);
        }
        if which == "uts" || which == "all" {
            uat_bench::run_real_backend(backend, workers, 1, Uts::geometric(11), flags);
        }
        if which == "nqueens" || which == "all" {
            uat_bench::run_real_backend(backend, workers, 1, NQueens::new(8), flags);
        }
    }
}

fn main() {
    let flags = OutFlags::parse();
    let parsed = uat_bench::backend_flag(&flags.rest).and_then(|(b, rest)| {
        uat_bench::check_output_flags(&flags, b)?;
        Ok((b, rest))
    });
    let (backend, rest) = match parsed {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let which = rest
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".into());
    let big = rest.iter().any(|a| a == "--big");
    if backend != uat_bench::Backend::Sim {
        real_sweep(backend, &which, &flags);
        return;
    }

    let nodes: Vec<u32> = if big {
        vec![32, 64, 128, 256] // 480 .. 3840 cores, the paper's range
    } else {
        vec![4, 8, 16, 32, 64] // 60 .. 960 cores
    };

    // (small, large) problem sizes per benchmark.
    let btc1 = if big { (24, 26) } else { (22, 24) };
    let btc2 = if big { (13, 14) } else { (11, 13) };
    let uts = if big { (14, 15) } else { (13, 14) };
    let nq = if big { (13, 14) } else { (12, 13) };

    let mut lines = Vec::new();
    if which == "btc1" || which == "all" {
        run_pair(
            "Figure 11(a)",
            "tasks",
            &nodes,
            btc1,
            |d| Btc::new(d, 1),
            &mut lines,
        );
    }
    if which == "btc2" || which == "all" {
        run_pair(
            "Figure 11(b)",
            "tasks",
            &nodes,
            btc2,
            |d| Btc::new(d, 2),
            &mut lines,
        );
    }
    if which == "uts" || which == "all" {
        run_pair(
            "Figure 11(c)",
            "nodes",
            &nodes,
            uts,
            Uts::geometric,
            &mut lines,
        );
    }
    if which == "nqueens" || which == "all" {
        run_pair(
            "Figure 11(d)",
            "nodes",
            &nodes,
            nq,
            NQueens::new,
            &mut lines,
        );
    }
    println!(
        "Reproduction target: per-core throughput flattens (efficiency rises\n\
         toward ~95%+) as the problem grows, matching the paper's Figure 11."
    );

    if let Some(path) = &flags.json {
        write_output(path, &uat_trace::jsonl(lines), "JSONL sweep points");
    }
    if let Some(path) = &flags.trace {
        match which.as_str() {
            "btc2" => write_trace(path, nodes[0], Btc::new(btc2.0, 2)),
            "uts" => write_trace(path, nodes[0], Uts::geometric(uts.0)),
            "nqueens" => write_trace(path, nodes[0], NQueens::new(nq.0)),
            _ => write_trace(path, nodes[0], Btc::new(btc1.0, 1)),
        }
    }
    if uat_bench::wants_metrics(&flags) {
        match which.as_str() {
            "btc2" => metered_run(&flags, nodes[0], Btc::new(btc2.0, 2)),
            "uts" => metered_run(&flags, nodes[0], Uts::geometric(uts.0)),
            "nqueens" => metered_run(&flags, nodes[0], NQueens::new(nq.0)),
            _ => metered_run(&flags, nodes[0], Btc::new(btc1.0, 1)),
        }
    }
}
