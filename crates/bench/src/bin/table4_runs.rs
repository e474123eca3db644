//! Table 4: total tasks/nodes, execution time, and uni-address-region
//! stack usage for the three benchmarks on a 3,840-core simulated FX10.
//!
//! Problem sizes are scaled down (the paper's runs execute 10^11–10^12
//! tasks; the simulator executes every task), so *time* is not
//! comparable; the reproduction targets are the task counts (exact
//! formulas), the stack-usage-per-level calibration, and the abstract's
//! "< 144KB virtual memory for thread migration" bound. For each
//! benchmark the harness also projects the stack usage at the paper's
//! depth from the measured per-level growth.

use std::sync::Mutex;
use uat_base::json::{Json, ToJson};
use uat_bench::{compact_config, paper, peak_rss_mib, write_chrome_trace, write_output, OutFlags};
use uat_cluster::{run_indexed, sweep_threads, Engine, RunStats};
use uat_model::Workload;
use uat_trace::TraceData;
use uat_workloads::{btc::BTC_FRAME, nqueens, uts, Btc, NQueens, Uts};

/// Run one row's pre-built engine; when a capture slot is passed (the
/// first row, under `--trace`), keep the trace for export. The slot is
/// a `Mutex` only because rows run concurrently on the harness pool;
/// exactly one row ever writes it. Also returns the host bytes resident
/// behind the machine's registered memory at the end of the run (`None`
/// for the traced row: `run_traced` keeps the trace instead).
fn run<W: Workload>(
    engine: Engine<W>,
    capture: Option<&Mutex<Option<TraceData>>>,
) -> (RunStats, Option<u64>) {
    match capture {
        Some(slot) => {
            // A bounded ring per worker: Table 4 runs execute millions
            // of tasks, so keep the newest window of events (the ring
            // drops oldest first) rather than an export too large to
            // open in Perfetto.
            let (stats, trace) = engine.with_tracing(1 << 14).run_traced();
            *slot.lock().expect("trace slot poisoned") = Some(trace);
            (stats, None)
        }
        None => {
            let (stats, resident) = engine.run_with_resident_bytes();
            (stats, Some(resident))
        }
    }
}

fn main() {
    let flags = OutFlags::parse();
    let nodes: u32 = flags
        .rest
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256); // 256 nodes × 15 = 3840 cores
    let cfg = compact_config(nodes);
    println!(
        "# Table 4 — benchmarks on {} simulated cores ({} nodes x 15)\n",
        cfg.topo.total_workers(),
        nodes
    );
    println!(
        "{:<22} {:>14} {:>14} {:>10} {:>12} {:>14} {:>16}",
        "benchmark", "tasks", "units", "time (s)", "steals", "stack (B)", "projected (B)"
    );

    // (label, run, measured depth/levels, paper depth, per-level bytes, paper bytes)
    struct Row {
        label: &'static str,
        stats: RunStats,
        levels: u64,
        paper_levels: u64,
        per_level: u64,
        paper_bytes: u64,
    }

    // Under `--trace` the first row (BTC iter=1) is the traced run, and
    // under `--metrics` it is also the row that fills the registry.
    // All four rows are independent simulations, so they run
    // concurrently on the harness pool; each row's stats are a pure
    // function of its own config, so the table is identical at any
    // thread count.
    let captured: Mutex<Option<TraceData>> = Mutex::new(None);
    let capture = flags.trace.is_some().then_some(&captured);
    let registry = uat_bench::wants_metrics(&flags).then(|| {
        std::sync::Arc::new(uat_metrics::Registry::new(cfg.topo.total_workers() as usize))
    });
    let results = run_indexed(4, sweep_threads(), |i| match i {
        0 => {
            let engine = Engine::new(cfg.clone(), Btc::new(22, 1));
            let engine = match &registry {
                Some(r) => engine.with_metrics(r),
                None => engine,
            };
            run(engine, capture)
        }
        1 => run(Engine::new(cfg.clone(), Btc::new(11, 2)), None),
        2 => run(Engine::new(cfg.clone(), Uts::geometric(12)), None),
        3 => run(Engine::new(cfg.clone(), NQueens::new(12)), None),
        _ => unreachable!(),
    });
    let resident = results.iter().filter_map(|(_, resident)| *resident).max();
    let mut row_stats = results.into_iter().map(|(stats, _)| stats);
    let mut next_stats = || row_stats.next().expect("one result per row");
    let rows = vec![
        Row {
            label: "BTC iter=1 depth=22",
            stats: next_stats(),
            levels: 23,
            paper_levels: 39,
            per_level: BTC_FRAME,
            paper_bytes: paper::STACK_USAGE[0].2,
        },
        Row {
            label: "BTC iter=2 depth=11",
            stats: next_stats(),
            levels: 12,
            paper_levels: 20,
            per_level: BTC_FRAME,
            paper_bytes: paper::STACK_USAGE[2].2,
        },
        Row {
            label: "UTS geo depth=12",
            stats: next_stats(),
            levels: 13,
            paper_levels: 18,
            per_level: uts::UTS_NODE_FRAME + 2 * uts::UTS_SPLIT_FRAME,
            paper_bytes: paper::STACK_USAGE[4].2,
        },
        Row {
            label: "NQueens N=12",
            stats: next_stats(),
            levels: 13,
            paper_levels: 18,
            per_level: nqueens::NQ_NODE_FRAME + 3 * nqueens::NQ_SPLIT_FRAME,
            paper_bytes: paper::STACK_USAGE[7].2,
        },
    ];
    let captured = captured.into_inner().expect("trace slot poisoned");

    for r in &rows {
        let projected = r.per_level * r.paper_levels;
        println!(
            "{:<22} {:>14} {:>14} {:>10.4} {:>12} {:>14} {:>16}",
            r.label,
            r.stats.total_tasks,
            r.stats.total_units,
            r.stats.seconds(),
            r.stats.steals_completed,
            r.stats.peak_stack_usage,
            projected,
        );
        assert!(
            r.stats.peak_stack_usage < paper::STACK_BOUND,
            "{}: stack usage exceeds the paper's 144 KiB bound",
            r.label
        );
        let _ = r.levels;
        let _ = r.paper_bytes;
    }

    println!("\n# Stack usage vs paper (projected at the paper's depth)");
    println!(
        "{:<22} {:>14} {:>14} {:>10}",
        "benchmark", "projected (B)", "paper (B)", "deviation"
    );
    for r in &rows {
        let projected = (r.per_level * r.paper_levels) as f64;
        println!(
            "{:<22} {:>14.0} {:>14} {:>10}",
            r.label,
            projected,
            r.paper_bytes,
            uat_bench::deviation(projected, r.paper_bytes as f64)
        );
    }
    println!(
        "\nAll runs stayed under the paper's 144 KiB uni-address-region bound \
         (max region reserved per worker: {} KiB; reserved VA per worker: {} KiB).",
        cfg.core.uni_region_size >> 10,
        rows[0].stats.reserved_va_per_worker >> 10,
    );
    // Rows differ in which pages they write, not in what they pin; the
    // most any of them left resident bounds the host's cost of a row.
    if let Some(resident) = resident {
        println!(
            "Per worker: pinned {} KiB (simulated), host-resident {:.1} KiB \
             (pages of it this process materialised); process VmHWM {}.",
            rows[0].stats.pinned_per_worker >> 10,
            resident as f64 / f64::from(cfg.topo.total_workers()) / 1024.0,
            peak_rss_mib(),
        );
    }

    if let Some(path) = &flags.json {
        let lines = rows.iter().map(|r| {
            Json::obj([
                ("benchmark", Json::str(r.label)),
                ("stats", r.stats.to_json()),
            ])
        });
        write_output(path, &uat_trace::jsonl(lines), "JSONL results");
    }
    if let (Some(path), Some(trace)) = (&flags.trace, &captured) {
        write_chrome_trace(path, trace, "Chrome trace");
    }
    if let Some(r) = &registry {
        uat_bench::emit_metrics(&flags, &[("sim", r.snapshot())]);
    }
}
