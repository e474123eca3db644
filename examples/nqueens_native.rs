//! NQueens on the *native* fiber runtime, through the shared task model.
//!
//! This runs the exact `uat-workloads` NQueens workload the cluster
//! simulator runs — the same `Action` program, expanded by the native
//! interpreter into real spawn/join lightweight threads (the paper's
//! Figure 2 API) with real calibrated `Work` spinning — and cross-checks
//! the expansion against the sequential ground truth. One workload
//! definition, two backends.
//!
//! Run: `cargo run --release --example nqueens_native -- [N] [workers]
//! [--trace <path>]`. `--trace` re-runs with per-worker event rings on
//! and writes the flow-annotated Chrome/Perfetto trace (steal arrows
//! across worker tracks) — open it at `ui.perfetto.dev`.

use uni_address_threads::fiber::NativeRunner;
use uni_address_threads::model::sequential_profile;
use uni_address_threads::workloads::NQueens;

fn main() {
    let mut positional = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            trace_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("error: --trace requires a path");
                std::process::exit(2);
            }));
        } else {
            positional.push(arg);
        }
    }
    let n: u32 = positional.first().and_then(|a| a.parse().ok()).unwrap_or(9);
    let workers: usize = positional.get(1).and_then(|a| a.parse().ok()).unwrap_or(4);

    let w = NQueens::new(n);
    let runner = NativeRunner::new(workers);
    let stats = match &trace_path {
        None => runner.run(w.clone()),
        Some(path) => run_traced(&runner, &w, path),
    };
    println!("{}", stats.summary_line());

    // The native expansion must match the sequential ground truth —
    // the same invariant the simulator is held to.
    let p = sequential_profile(&w);
    assert_eq!(stats.total_tasks, p.tasks, "task count diverged");
    assert_eq!(stats.total_units, p.units, "unit count diverged");
    assert_eq!(
        stats.join_fingerprint, p.join_fingerprint,
        "join-tree shape diverged"
    );
    println!(
        "verified against the sequential profile: {} tasks, {} units \
         (legal positions), join tree intact.",
        p.tasks, p.units
    );
}

fn run_traced(
    runner: &NativeRunner,
    w: &NQueens,
    path: &str,
) -> uni_address_threads::fiber::NativeRunStats {
    use uni_address_threads::trace::chrome_trace_json;

    let (stats, trace) = runner.run_traced(w.clone());
    assert!(
        trace.data.workers.iter().any(|r| !r.is_empty()),
        "traced run produced empty event rings"
    );
    std::fs::write(path, chrome_trace_json(&trace.data)).unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!(
        "wrote Chrome trace to {path} ({} clock @ {:.3e} Hz, makespan {} cycles)",
        trace.data.clock_source.name(),
        trace.data.clock_hz,
        trace.data.makespan.get()
    );
    stats
}
