//! Differential profile: one paper workload, both backends, side by side.
//!
//! Usage: `differential_profile [fib|btc1|btc2|uts|nqueens|chain]
//! [--backend sim|native|multiprocess] [--size S] [--workers W]
//! [--ring CAP] [--divisor D]
//! [--trace <path>] [--json <path>] [--metrics] [--metrics-json <path>]`
//!
//! Without `--backend`, the classic side-by-side profile below runs
//! (sim + native, traced). With `--backend B`, exactly one executor
//! runs the workload, untraced, and reports its stats verified against
//! the sequential ground truth — `multiprocess` selects the
//! process-per-worker uni-address backend, whose `--metrics` snapshot
//! is read back from the shared-memory segment (skipped with a reason
//! on kernels that cannot map it). That mode honours `--metrics` and
//! `--metrics-json`, and refuses `--trace`, `--json` and `--ring` by
//! name (exit 2).
//!
//! Runs the same backend-neutral `Workload` through the deterministic
//! simulator (`uat-cluster`, 1 node × W workers, simulated cycles) and
//! the native fiber runtime (`uat-fiber`, W OS threads, TSC cycles),
//! with full event tracing on both, and reports:
//!
//! - **per-bucket cycle shares**, aggregated over workers, side by side.
//!   The two columns live in different clock domains (cost-model cycles
//!   vs calibrated TSC cycles), so compare *shares*, not magnitudes.
//!   The native buckets tile the native wall-cycles exactly in the
//!   drop-free case (checked; non-zero exit on violation — CI relies
//!   on this).
//! - **both critical paths**, from the same happens-before DAG
//!   construction (`uat_trace::profile`) run on each trace. Each path
//!   total must equal its backend's makespan exactly (checked).
//! - **what-if predictions** (frozen-schedule DAG replay) on both DAGs,
//!   one row per cost class. The native DAG has no fabric-cost edges,
//!   so RDMA classes predict ≈0% there — the contrast with the sim
//!   column is the point.
//!
//! `--divisor D` divides native `Work(c)` spin cycles by `D` (the sim
//! always charges the full `c`); the default 1 is the faithful setting.
//! `--trace` writes the *native* flow-annotated Chrome trace (steal
//! arrows across worker tracks); `--json` a machine-readable JSONL
//! summary of both profiles. `--metrics`/`--metrics-json` attach one
//! registry to each backend (same metric names, different clock
//! domains) and export both final snapshots side by side.

use uat_base::json::{Json, ToJson};
use uat_bench::{write_chrome_trace, write_output, OutFlags};
use uat_cluster::SimConfig;
use uat_model::Workload;
use uat_trace::TimeAccount;
use uat_workloads::{Btc, Chain, Fib, NQueens, Uts};

struct Args {
    bench: String,
    size: Option<u32>,
    workers: u32,
    /// Sim ring capacity; the native ring defaults smaller (per-worker
    /// preallocation) unless `--ring` overrides both.
    ring: Option<usize>,
    divisor: u64,
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut a = Args {
        bench: "nqueens".into(),
        size: None,
        workers: 4,
        ring: None,
        divisor: 1,
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
            "--workers" => a.workers = parse_num(&value("--workers")?)?,
            "--ring" => a.ring = Some(parse_num(&value("--ring")?)?),
            "--divisor" => a.divisor = parse_num(&value("--divisor")?)?,
            other if !other.starts_with("--") && !bench_set => {
                bench_set = true;
                a.bench = other.into();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if a.divisor == 0 {
        return Err("--divisor must be at least 1".into());
    }
    Ok(a)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("not a number: `{s}`"))
}

fn main() {
    let flags = OutFlags::parse();
    let backend_given = flags
        .rest
        .iter()
        .any(|r| r == "--backend" || r.starts_with("--backend="));
    let (backend, rest) = match uat_bench::backend_flag(&flags.rest) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mode = backend_given.then_some(backend);
    let checked = parse_args(&rest).and_then(|a| match mode {
        Some(b) => uat_bench::check_single_backend_flags(&flags, a.ring.is_some(), b).map(|()| a),
        None => Ok(a),
    });
    let a = match checked {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match a.bench.as_str() {
        "fib" => diff(&a, Fib::new, a.size.unwrap_or(14), &flags, mode),
        "btc1" => diff(&a, |s| Btc::new(s, 1), a.size.unwrap_or(10), &flags, mode),
        "btc2" => diff(&a, |s| Btc::new(s, 2), a.size.unwrap_or(7), &flags, mode),
        "uts" => diff(&a, Uts::geometric, a.size.unwrap_or(6), &flags, mode),
        "nqueens" => diff(&a, NQueens::new, a.size.unwrap_or(7), &flags, mode),
        "chain" => diff(&a, Chain::fig10, a.size.unwrap_or(100), &flags, mode),
        other => {
            eprintln!("error: unknown benchmark `{other}` (fib|btc1|btc2|uts|nqueens|chain)");
            std::process::exit(2);
        }
    }
}

/// `--backend B` mode: run exactly one executor and report its stats
/// against the sequential ground truth.
fn single_backend<W>(a: &Args, backend: uat_bench::Backend, w: W, size: u32, flags: &OutFlags)
where
    W: Workload + Clone + Send + 'static,
    W::Desc: Copy + 'static,
{
    use uat_bench::Backend;
    let name = w.name().to_string();
    println!(
        "# differential_profile — {name} size={size}: backend {} × {} workers",
        backend.name(),
        a.workers
    );
    match backend {
        Backend::Sim => {
            let p = uat_model::sequential_profile(&w);
            let mut cfg = SimConfig::tiny(a.workers);
            cfg.core.iso_stacks_per_worker = 512;
            cfg.max_events = 100_000_000;
            let engine = uat_cluster::Engine::new(cfg, w);
            let registry = uat_bench::wants_metrics(flags)
                .then(|| std::sync::Arc::new(uat_metrics::Registry::new(a.workers as usize)));
            let stats = match &registry {
                Some(r) => engine.with_metrics(r).run(),
                None => engine.run(),
            };
            assert_eq!(stats.total_tasks, p.tasks, "sim dropped tasks: {name}");
            println!(
                "sim: makespan {} cycles  tasks={} steals={}",
                stats.makespan.get(),
                stats.total_tasks,
                stats.steals_completed
            );
            if let Some(r) = &registry {
                uat_bench::emit_metrics(flags, &[("sim", r.snapshot())]);
            }
        }
        Backend::Native | Backend::Multiprocess => {
            uat_bench::run_real_backend(backend, a.workers as usize, a.divisor, w, flags);
        }
    }
}

/// One backend's profile, reduced to what the comparison needs.
struct Profiled {
    makespan: uat_base::Cycles,
    /// Aggregate over per-worker accounts (total = makespan × workers
    /// for the native backend in the drop-free case).
    buckets: TimeAccount,
    cp: uat_trace::CriticalPath,
    dag: uat_trace::Dag,
}

/// Build the DAG + critical path for one backend's trace, enforcing the
/// invariant the profiler promises: path total == makespan exactly.
fn profile_one(
    label: &str,
    trace: &uat_trace::TraceData,
    buckets: TimeAccount,
    ring_hint: usize,
) -> Profiled {
    let dag = match uat_trace::Dag::build(trace) {
        Ok(dag) => dag,
        Err(e @ uat_trace::ProfileError::DroppedEvents { .. }) => {
            eprintln!(
                "error [{label}]: {e}\nhint: re-run with a larger --ring (current: {ring_hint})"
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error [{label}]: cannot build the happens-before DAG: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = dag.check_acyclic() {
        eprintln!("error [{label}]: happens-before DAG has a cycle: {e}");
        std::process::exit(1);
    }
    let cp = uat_trace::critical_path(&dag);
    if cp.total != trace.makespan || cp.account.total() != cp.total {
        eprintln!(
            "error [{label}]: critical path ({} cycles, attribution {}) != makespan ({})",
            cp.total.get(),
            cp.account.total().get(),
            trace.makespan.get()
        );
        std::process::exit(1);
    }
    Profiled {
        makespan: trace.makespan,
        buckets,
        cp,
        dag,
    }
}

fn share(c: uat_base::Cycles, total: uat_base::Cycles) -> f64 {
    100.0 * c.get() as f64 / total.get().max(1) as f64
}

fn diff<W, F>(a: &Args, make: F, size: u32, flags: &OutFlags, mode: Option<uat_bench::Backend>)
where
    W: Workload + Clone + Send + 'static,
    W::Desc: Copy + 'static,
    F: Fn(u32) -> W,
{
    let w = make(size);
    if let Some(backend) = mode {
        return single_backend(a, backend, w, size, flags);
    }
    let name = w.name().to_string();
    println!(
        "# differential_profile — {name} size={size}: sim 1 node × {w} workers vs native {w} OS threads",
        w = a.workers
    );

    // One registry per backend: the metric names are shared, so merging
    // them into one registry would conflate the two clock domains.
    let (sim_reg, nat_reg) = {
        let mk = || std::sync::Arc::new(uat_metrics::Registry::new(a.workers as usize));
        match uat_bench::wants_metrics(flags) {
            true => (Some(mk()), Some(mk())),
            false => (None, None),
        }
    };

    // --- simulator run ---
    let sim_ring = a.ring.unwrap_or(1 << 20);
    let mut cfg = SimConfig::tiny(a.workers);
    cfg.core.iso_stacks_per_worker = 512;
    cfg.max_events = 100_000_000;
    let sim_engine = uat_cluster::Engine::new(cfg, w.clone());
    let sim_engine = match &sim_reg {
        Some(r) => sim_engine.with_metrics(r),
        None => sim_engine,
    };
    let (sim_stats, sim_trace) = sim_engine.with_tracing(sim_ring).run_traced();
    println!(
        "sim    : makespan {:>14} cycles ({} @ {:.3e} Hz)  tasks={} steals={}",
        sim_stats.makespan.get(),
        sim_trace.clock_source.name(),
        sim_trace.clock_hz,
        sim_stats.total_tasks,
        sim_stats.steals_completed,
    );

    // --- native run ---
    let native_ring = a.ring.unwrap_or(uat_trace::DEFAULT_RING_CAPACITY);
    let runner = uat_fiber::NativeRunner::new(a.workers as usize)
        .with_work_divisor(a.divisor)
        .with_tracing(native_ring);
    let runner = match &nat_reg {
        Some(r) => runner.with_metrics(std::sync::Arc::clone(r)),
        None => runner,
    };
    let (nat_stats, nat_trace) = runner.run_traced(w);
    println!(
        "native : makespan {:>14} cycles ({} @ {:.3e} Hz)  tasks={} steals={} parks={} drop={}",
        nat_trace.data.makespan.get(),
        nat_trace.data.clock_source.name(),
        nat_trace.data.clock_hz,
        nat_stats.total_tasks,
        nat_stats.steals,
        nat_stats.parks,
        nat_stats.trace_dropped,
    );

    // Both backends interpreted the same program: the task count is the
    // differential invariant everything else rests on.
    if sim_stats.total_tasks != nat_stats.total_tasks {
        eprintln!(
            "error: backends disagree on task count (sim {} vs native {})",
            sim_stats.total_tasks, nat_stats.total_tasks
        );
        std::process::exit(1);
    }

    // Native accounting must tile the wall-cycles: every worker's bucket
    // ledger sums to the makespan exactly when no ring dropped events.
    if nat_stats.trace_dropped == 0 {
        for (i, acc) in nat_trace.accounts.iter().enumerate() {
            if acc.total() != nat_trace.data.makespan {
                eprintln!(
                    "error: native worker {i} buckets sum to {} but the makespan is {}",
                    acc.total().get(),
                    nat_trace.data.makespan.get()
                );
                std::process::exit(1);
            }
        }
    }

    let mut sim_buckets = TimeAccount::new();
    for ws in &sim_stats.per_worker {
        sim_buckets.merge(&ws.account);
    }
    let mut nat_buckets = TimeAccount::new();
    for acc in &nat_trace.accounts {
        nat_buckets.merge(acc);
    }

    let sim = profile_one("sim", &sim_trace, sim_buckets, sim_ring);
    let nat = profile_one("native", &nat_trace.data, nat_buckets, native_ring);

    // --- side-by-side bucket shares ---
    println!(
        "\n# bucket shares (aggregate over workers; different clock domains — compare shares)"
    );
    println!(
        "{:<14} {:>16} {:>7}   {:>16} {:>7}",
        "bucket", "sim cycles", "share", "native cycles", "share"
    );
    let (st, nt) = (sim.buckets.total(), nat.buckets.total());
    for &b in uat_trace::Bucket::ALL.iter() {
        let (sc, nc) = (sim.buckets.get(b), nat.buckets.get(b));
        if sc == uat_base::Cycles::ZERO && nc == uat_base::Cycles::ZERO {
            continue;
        }
        println!(
            "{:<14} {:>16} {:>6.1}%   {:>16} {:>6.1}%",
            b.name(),
            sc.get(),
            share(sc, st),
            nc.get(),
            share(nc, nt),
        );
    }
    println!(
        "{:<14} {:>16} {:>6.1}%   {:>16} {:>6.1}%",
        "total",
        st.get(),
        100.0,
        nt.get(),
        100.0
    );

    // --- both critical paths ---
    for (label, p) in [("sim", &sim), ("native", &nat)] {
        println!(
            "\n# critical path — {label}: total {} cycles in {} segments (jumped {} steal + {} join edges), ends on worker {}",
            p.cp.total.get(),
            p.cp.segments.len(),
            p.cp.steal_edges,
            p.cp.join_edges,
            p.cp.end_worker
        );
        for &b in uat_trace::Bucket::ALL.iter() {
            let c = p.cp.account.get(b);
            if c > uat_base::Cycles::ZERO {
                println!(
                    "  {:<14} {:>14}  ({:>5.1}%)",
                    b.name(),
                    c.get(),
                    share(c, p.cp.total)
                );
            }
        }
    }

    // --- what-if, side by side ---
    println!("\n# what-if ×2.0 (frozen-schedule replay on each backend's DAG)");
    println!(
        "{:<12} {:>16}   {:>16}",
        "class", "sim Δmakespan", "native Δmakespan"
    );
    let mut rows = Vec::new();
    for &class in uat_trace::CostClass::ALL.iter() {
        let deltas: Vec<f64> = [&sim, &nat]
            .iter()
            .map(|p| {
                let predicted = uat_trace::profile::predict(&p.dag, class, 2.0);
                100.0 * (predicted.get() as f64 / p.makespan.get().max(1) as f64 - 1.0)
            })
            .collect();
        println!(
            "{:<12} {:>15.1}%   {:>15.1}%",
            class.name(),
            deltas[0],
            deltas[1]
        );
        rows.push(Json::obj([
            ("class", Json::str(class.name())),
            ("factor", Json::Num(2.0)),
            ("sim_delta_pct", Json::Num(deltas[0])),
            ("native_delta_pct", Json::Num(deltas[1])),
        ]));
    }

    // --- artifacts ---
    if let Some(path) = &flags.json {
        let backend = |p: &Profiled, clock: &uat_trace::TraceData, extra: Vec<(String, Json)>| {
            let mut obj = vec![
                ("makespan".to_string(), Json::UInt(p.makespan.get())),
                (
                    "clock_source".to_string(),
                    Json::str(clock.clock_source.name()),
                ),
                ("clock_hz".to_string(), Json::Num(clock.clock_hz)),
                ("buckets".to_string(), p.buckets.to_json()),
                ("critical_path".to_string(), p.cp.summary().to_json()),
            ];
            obj.extend(extra);
            Json::Obj(obj)
        };
        let line = Json::obj([
            ("benchmark", Json::str(&name)),
            ("size", Json::UInt(size as u64)),
            ("workers", Json::UInt(a.workers as u64)),
            ("tasks", Json::UInt(sim_stats.total_tasks)),
            ("sim", backend(&sim, &sim_trace, vec![])),
            (
                "native",
                backend(
                    &nat,
                    &nat_trace.data,
                    vec![
                        (
                            "trace_dropped".to_string(),
                            Json::UInt(nat_stats.trace_dropped),
                        ),
                        ("parks".to_string(), Json::UInt(nat_stats.parks)),
                        ("work_divisor".to_string(), Json::UInt(a.divisor)),
                    ],
                ),
            ),
            ("what_if", Json::Arr(rows)),
        ]);
        write_output(
            path,
            &uat_trace::jsonl(vec![line]),
            "JSONL differential profile",
        );
    }
    if let Some(path) = &flags.trace {
        write_chrome_trace(path, &nat_trace.data, "native Chrome trace");
    }
    if let (Some(s), Some(n)) = (&sim_reg, &nat_reg) {
        uat_bench::emit_metrics(flags, &[("sim", s.snapshot()), ("native", n.snapshot())]);
    }
}
