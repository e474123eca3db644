//! Causal profiler: critical path and what-if analysis of one run.
//!
//! Usage: `uat_profile [btc1|btc2|uts|nqueens] [--size S] [--nodes N]
//! [--wpn W] [--seed X] [--ring CAP] [--what-if class=factor]...
//! [--validate] [--trace <path>] [--json <path>]`
//!
//! Runs one fig11-style point with full event tracing, reconstructs the
//! happens-before DAG (program order, spawn, steal, join, FAA-queue
//! edges — see DESIGN.md §8), and reports:
//!
//! - the **critical path**: the chain of segments that gated the
//!   makespan, with its cycles attributed to the [`Bucket`](uat_trace::Bucket) taxonomy.
//!   The path total equals the makespan *exactly* (checked; non-zero
//!   exit on violation — CI relies on this).
//! - **what-if predictions**: the makespan if one cost class (`rdma-read`,
//!   `faa`, `suspend`) were scaled by a factor, from a frozen-schedule
//!   replay of the DAG. `--validate` re-runs the engine with the
//!   correspondingly scaled [`CostModel`](uat_base::CostModel) and
//!   reports the prediction error against that ground truth.
//!
//! Defaults: 4 nodes × 16 workers = the 64-worker configuration;
//! per-benchmark sizes small enough to profile in seconds (the fig11
//! sweep sizes work too, with a bigger `--ring`). `--trace` writes the
//! flow-annotated Chrome trace (steal arrows across worker tracks);
//! `--json` a machine-readable JSONL summary.

use uat_base::json::{Json, ToJson};
use uat_base::Topology;
use uat_bench::{compact_config, write_output, OutFlags};
use uat_cluster::{SimConfig, Workload};
use uat_workloads::{Btc, NQueens, Uts};

struct Args {
    bench: String,
    size: Option<u32>,
    nodes: u32,
    wpn: u32,
    seed: Option<u64>,
    ring: usize,
    what_if: Vec<(uat_trace::CostClass, f64)>,
    validate: bool,
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut a = Args {
        bench: "btc1".into(),
        size: None,
        nodes: 4,
        wpn: 16,
        seed: None,
        ring: 1 << 20,
        what_if: Vec::new(),
        validate: false,
    };
    let mut bench_set = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires an argument"))
        };
        match arg.as_str() {
            "--size" => a.size = Some(parse_num(&value("--size")?)?),
            "--nodes" => a.nodes = parse_num(&value("--nodes")?)?,
            "--wpn" => a.wpn = parse_num(&value("--wpn")?)?,
            "--seed" => a.seed = Some(parse_num(&value("--seed")?)?),
            "--ring" => a.ring = parse_num(&value("--ring")?)?,
            "--validate" => a.validate = true,
            "--what-if" => a.what_if.push(parse_what_if(&value("--what-if")?)?),
            other if !other.starts_with("--") && !bench_set => {
                bench_set = true;
                a.bench = other.into();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.what_if.is_empty() {
        // Default question: which cost class, doubled, hurts the most?
        a.what_if = uat_trace::CostClass::ALL
            .iter()
            .map(|&c| (c, 2.0))
            .collect();
    }
    Ok(a)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("not a number: `{s}`"))
}

fn parse_what_if(s: &str) -> Result<(uat_trace::CostClass, f64), String> {
    let (name, factor) = s
        .split_once('=')
        .ok_or_else(|| format!("--what-if wants class=factor, got `{s}`"))?;
    let class = uat_trace::CostClass::parse(name).ok_or_else(|| {
        let names: Vec<_> = uat_trace::CostClass::ALL.iter().map(|c| c.name()).collect();
        format!("unknown cost class `{name}` (one of {})", names.join(", "))
    })?;
    Ok((class, parse_num(factor)?))
}

fn config(a: &Args) -> SimConfig {
    let mut cfg = compact_config(a.nodes);
    cfg.topo = Topology::new(a.nodes, a.wpn);
    if let Some(seed) = a.seed {
        cfg = cfg.with_seed(seed);
    }
    cfg
}

fn main() {
    let flags = OutFlags::parse();
    let a = match parse_args(&flags.rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match a.bench.as_str() {
        "btc1" => profile(&a, |s| Btc::new(s, 1), a.size.unwrap_or(16), &flags),
        "btc2" => profile(&a, |s| Btc::new(s, 2), a.size.unwrap_or(9), &flags),
        "uts" => profile(&a, Uts::geometric, a.size.unwrap_or(12), &flags),
        "nqueens" => profile(&a, NQueens::new, a.size.unwrap_or(11), &flags),
        other => {
            eprintln!("error: unknown benchmark `{other}` (btc1|btc2|uts|nqueens)");
            std::process::exit(2);
        }
    }
}

fn profile<W: Workload, F: Fn(u32) -> W>(a: &Args, make: F, size: u32, flags: &OutFlags) {
    use uat_trace::profile::EdgeKind;

    let cfg = config(a);
    let workers = cfg.topo.total_workers();
    let w = make(size);
    let name = w.name().to_string();
    println!(
        "# uat_profile — {name} size={size}, {} nodes × {} workers = {workers}, seed {}",
        a.nodes, a.wpn, cfg.seed
    );
    let (stats, trace) = uat_cluster::Engine::new(cfg.clone(), w)
        .with_tracing(a.ring)
        .run_traced();
    println!(
        "makespan = {} cycles over {} events; {} tasks, {} steals completed",
        stats.makespan.get(),
        stats.events,
        stats.total_tasks,
        stats.steals_completed
    );

    // --- happens-before DAG + critical path ---
    let dag = match uat_trace::Dag::build(&trace) {
        Ok(dag) => dag,
        Err(e @ uat_trace::ProfileError::DroppedEvents { .. }) => {
            eprintln!(
                "error: {e}\nhint: re-run with a larger --ring (current: {})",
                a.ring
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: cannot build the happens-before DAG: {e}");
            std::process::exit(1);
        }
    };
    let cp = uat_trace::critical_path(&dag);
    println!(
        "\n# critical path  ({} nodes, {} steal edges, {} join edges in the DAG)",
        dag.nodes().len(),
        dag.edge_count(EdgeKind::Steal),
        dag.edge_count(EdgeKind::Join),
    );
    println!(
        "total = {} cycles in {} segments (jumped {} steal + {} join edges), ends on worker {}",
        cp.total.get(),
        cp.segments.len(),
        cp.steal_edges,
        cp.join_edges,
        cp.end_worker
    );
    if cp.total != stats.makespan || cp.account.total() != cp.total {
        eprintln!(
            "error: critical path ({} cycles, attribution {}) does not equal the makespan ({})",
            cp.total.get(),
            cp.account.total().get(),
            stats.makespan.get()
        );
        std::process::exit(1);
    }
    println!("on-path attribution (sums to the makespan exactly):");
    for &b in uat_trace::Bucket::ALL.iter() {
        let c = cp.account.get(b);
        if c > uat_base::Cycles::ZERO {
            println!(
                "  {:<14} {:>14}  ({:>5.1}%)",
                b.name(),
                c.get(),
                100.0 * c.get() as f64 / cp.total.get() as f64
            );
        }
    }

    // --- what-if ---
    println!("\n# what-if (frozen-schedule DAG replay)");
    let mut rows = Vec::new();
    for &(class, factor) in &a.what_if {
        let predicted = uat_trace::profile::predict(&dag, class, factor);
        let delta = 100.0 * (predicted.get() as f64 / stats.makespan.get() as f64 - 1.0);
        let truth = a.validate.then(|| {
            let mut cfg = cfg.clone();
            class.apply(&mut cfg.cost, factor);
            uat_cluster::Engine::new(cfg, make(size)).run().makespan
        });
        match truth {
            Some(t) => {
                let err = 100.0 * (predicted.get() as f64 / t.get() as f64 - 1.0);
                println!(
                    "  {:<10} ×{factor:<5} predicted {:>14} ({delta:+6.1}%)  ground truth {:>14}  error {err:+.2}%",
                    class.name(),
                    predicted.get(),
                    t.get()
                );
            }
            None => println!(
                "  {:<10} ×{factor:<5} predicted {:>14} ({delta:+6.1}%)",
                class.name(),
                predicted.get()
            ),
        }
        let mut row = vec![
            ("class".to_string(), Json::str(class.name())),
            ("factor".to_string(), Json::Num(factor)),
            (
                "predicted_makespan".to_string(),
                Json::UInt(predicted.get()),
            ),
        ];
        if let Some(t) = truth {
            row.push(("ground_truth_makespan".to_string(), Json::UInt(t.get())));
        }
        rows.push(Json::Obj(row));
    }

    // --- artifacts ---
    if let Some(path) = &flags.json {
        let line = Json::obj([
            ("benchmark", Json::str(&name)),
            ("size", Json::UInt(size as u64)),
            ("workers", Json::UInt(workers as u64)),
            ("seed", Json::UInt(cfg.seed)),
            ("makespan", Json::UInt(stats.makespan.get())),
            ("critical_path", cp.summary().to_json()),
            ("what_if", Json::Arr(rows)),
        ]);
        write_output(path, &uat_trace::jsonl(vec![line]), "JSONL profile");
    }
    if let Some(path) = &flags.trace {
        write_output(path, &uat_trace::chrome_trace_json(&trace), "Chrome trace");
    }
}
