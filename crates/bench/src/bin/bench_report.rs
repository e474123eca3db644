//! Benchmark-trajectory report: pinned engine micro-benchmarks plus the
//! Figure 11 mini-sweep, appended to committed baseline files.
//!
//! Usage: `bench_report [--quick] [--label <name>] [--check <baseline>]
//! [--out-dir <dir>]`
//!
//! Two artifacts, each a stable append-only schema (one labelled entry
//! per invocation, newest last), so the repository accumulates a
//! measured performance trajectory across PRs instead of anecdotes in
//! commit messages:
//!
//! - `BENCH_engine.json` (`uat-bench/engine/v1`): events/sec of the
//!   simulation engine on pinned `(config, workload)` cases — best of N
//!   runs, so the number is a property of the code, not of scheduler
//!   noise.
//! - `BENCH_fig11.json` (`uat-bench/fig11/v1`): wall-clock of the
//!   Figure 11 mini-sweep run serially and on the parallel harness,
//!   with the two results verified **bit-identical** before anything is
//!   written (the speedup must come from the harness, never from
//!   changing the simulation).
//!
//! `--quick` runs one iteration per case and a smaller sweep — the CI
//! smoke shape. `--check <baseline>` compares events/sec against the
//! matching cases of the baseline's last entry and exits non-zero on a
//! >20% regression.

use std::path::{Path, PathBuf};
use std::time::Instant;
use uat_base::json::{Json, ToJson};
use uat_bench::compact_config;
use uat_cluster::{sweep_threads, sweep_with_threads, Engine, SimConfig};
use uat_fiber::NativeRunner;
use uat_model::{sequential_profile, Workload};
use uat_workloads::{Btc, Chain, Fib, NQueens, Uts};

/// Fraction of the baseline events/sec below which `--check` fails.
const REGRESSION_FLOOR: f64 = 0.8;

struct CaseResult {
    name: &'static str,
    events: u64,
    best_wall_s: f64,
}

impl CaseResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.best_wall_s
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("events", Json::UInt(self.events)),
            ("best_wall_s", Json::Num(self.best_wall_s)),
            ("events_per_sec", Json::Num(self.events_per_sec())),
        ])
    }
}

fn time_case<W: Workload>(
    name: &'static str,
    iters: u32,
    mk: impl Fn() -> (SimConfig, W),
) -> CaseResult {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..iters {
        let (cfg, w) = mk();
        let t0 = Instant::now();
        let stats = Engine::new(cfg, w).run();
        best = best.min(t0.elapsed().as_secs_f64());
        events = stats.events;
    }
    CaseResult {
        name,
        events,
        best_wall_s: best,
    }
}

/// Critical-path profile of one pinned traced case (uts11 on the
/// 60-worker machine), so the trajectory records *where* the makespan
/// goes, not just how fast the simulator replays it.
fn critical_path_entry() -> Json {
    let (stats, trace) = Engine::new(SimConfig::fx10(4), Uts::geometric(11))
        .with_tracing(1 << 20)
        .run_traced();
    let dag = match uat_trace::Dag::build(&trace) {
        Ok(dag) => dag,
        Err(e) => {
            eprintln!("error: cannot profile the pinned case: {e}");
            std::process::exit(1);
        }
    };
    let cp = uat_trace::critical_path(&dag);
    assert_eq!(
        cp.total, stats.makespan,
        "critical path must tile the makespan"
    );
    Json::obj([
        ("case", Json::str("uts11_60w")),
        ("makespan", Json::UInt(stats.makespan.get())),
        ("summary", cp.summary().to_json()),
    ])
}

/// Run one pinned workload on the native fiber backend, cross-check its
/// expansion against the sequential ground truth (the differential
/// invariant — a benchmark that executed the wrong tree must not report
/// a number), and record wall-clock throughput.
fn native_case<W>(name: &'static str, workers: usize, w: W) -> Json
where
    W: Workload + Send + 'static,
    W::Desc: 'static,
{
    let p = sequential_profile(&w);
    let s = NativeRunner::new(workers).run(w);
    assert_eq!(s.total_tasks, p.tasks, "native expansion diverged: {name}");
    assert_eq!(s.total_units, p.units, "native units diverged: {name}");
    assert_eq!(
        s.join_fingerprint, p.join_fingerprint,
        "native join-tree shape diverged: {name}"
    );
    println!("{}", s.summary_line());
    Json::obj([
        ("name", Json::str(name)),
        ("workload", Json::str(s.workload.as_str())),
        ("workers", Json::UInt(u64::from(s.workers))),
        ("tasks", Json::UInt(s.total_tasks)),
        ("units", Json::UInt(s.total_units)),
        ("wall_s", Json::Num(s.wall.as_secs_f64())),
        ("units_per_sec", Json::Num(s.throughput())),
        ("steals", Json::UInt(s.steals)),
        ("peak_frame_bytes", Json::UInt(s.peak_frame_bytes)),
    ])
}

/// One pinned workload on the multiprocess backend (forked worker
/// processes, one shared uni-address region), with the same
/// ground-truth cross-check as [`native_case`].
fn multiprocess_case<W>(name: &'static str, workers: usize, w: W) -> Json
where
    W: Workload + Send + 'static,
    W::Desc: Copy + 'static,
{
    let p = sequential_profile(&w);
    let s = uat_fiber::MultiProcessRunner::new(workers).run(w);
    assert_eq!(s.total_tasks, p.tasks, "mp expansion diverged: {name}");
    assert_eq!(
        s.join_fingerprint, p.join_fingerprint,
        "mp join-tree shape diverged: {name}"
    );
    println!("{}", s.summary_line());
    Json::obj([
        ("name", Json::str(name)),
        ("workload", Json::str(s.workload.as_str())),
        ("workers", Json::UInt(u64::from(s.workers))),
        ("tasks", Json::UInt(s.total_tasks)),
        ("wall_s", Json::Num(s.wall.as_secs_f64())),
        (
            "tasks_per_sec",
            Json::Num(s.total_tasks as f64 / s.wall.as_secs_f64()),
        ),
        ("steals", Json::UInt(s.steals)),
        ("peak_frame_bytes", Json::UInt(s.peak_frame_bytes)),
    ])
}

/// The multiprocess-backend section of the engine artifact. Skipped
/// (with the kernel probe's reason recorded in the artifact) where
/// `memfd_create` + `MAP_FIXED_NOREPLACE` are unavailable.
fn multiprocess_section(quick: bool) -> Json {
    if let Err(reason) = uat_fiber::MultiProcessRunner::probe_support() {
        println!("\n# multiprocess backend: skipped ({reason})");
        return Json::obj([("skipped", Json::str(reason.as_str()))]);
    }
    let fib = if quick { 16 } else { 20 };
    let rounds = if quick { 50 } else { 200 };
    println!("\n# multiprocess uni-address backend (worker processes)");
    Json::obj([(
        "cases",
        Json::Arr(vec![
            multiprocess_case("fib_mp_2w", 2, Fib::new(fib)),
            multiprocess_case("fib_mp_4w", 4, Fib::new(fib)),
            multiprocess_case("chain_mp_2w", 2, Chain::fig10(rounds)),
        ]),
    )])
}

/// Best-of rates and the robust overhead estimate of an instrumented
/// configuration over its baseline.
struct Paired {
    base_best: f64,
    with_best: f64,
    overhead_pct: f64,
}

/// Measure `with`'s throughput cost over `base` (both return a rate) in
/// a way that survives the host-speed drift and scheduling spikes of
/// small shared hosts, where sequential batches drift apart by more
/// than the effect being measured. Each rep runs base-with-with-base —
/// each side once per half, symmetric around the rep's midpoint, so
/// drift within the rep cancels instead of always penalizing whichever
/// side runs second — and compares each side's better run (spike
/// rejection); the reported overhead is the median rep ratio (quiet- or
/// loud-window rejection). Comparing global best-of rates instead
/// proved bimodal: whichever configuration caught the one quiet window
/// "won" by several percent.
fn paired_overhead(
    reps: usize,
    mut base: impl FnMut() -> f64,
    mut with: impl FnMut() -> f64,
) -> Paired {
    let mut base_best = f64::MIN;
    let mut with_best = f64::MIN;
    let mut ratios = Vec::new();
    for _ in 0..reps {
        let b1 = base();
        let w1 = with();
        let w2 = with();
        let b2 = base();
        base_best = base_best.max(b1.max(b2));
        with_best = with_best.max(w1.max(w2));
        ratios.push(100.0 * (b1.max(b2) / w1.max(w2) - 1.0));
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    Paired {
        base_best,
        with_best,
        overhead_pct: ratios[ratios.len() / 2],
    }
}

/// Traced-vs-untraced native throughput on one pinned case, single
/// worker for determinism (no steal races in the comparison). The
/// untraced side still compiles the hooks but installs no sink, so it
/// measures the dormant-hook path against the traced one. Gated:
/// installing the sink may cost at most 5% tasks/sec (pairwise median
/// over N reps). A trip is reported to `main`, which still writes the
/// artifacts — the measurement is the evidence — before exiting
/// non-zero.
fn hook_overhead_entry(quick: bool) -> (Json, Option<String>) {
    let reps = if quick { 5 } else { 9 };
    // Size the ring to the case: nqueens7 on one worker is a ~12ms run
    // emitting a few thousand events, and first-touching the default
    // multi-megabyte ring inside that window would charge the allocator,
    // not the hooks, several percent. Drop-freedom is still asserted.
    let runner = NativeRunner::new(1).with_tracing(1 << 14);
    let rate = |tasks: u64, wall: std::time::Duration| tasks as f64 / wall.as_secs_f64();
    let p = paired_overhead(
        reps,
        || {
            let s = runner.run(NQueens::new(7));
            rate(s.total_tasks, s.wall)
        },
        || {
            let (s, t) = runner.run_traced(NQueens::new(7));
            assert_eq!(s.trace_dropped, 0, "overhead case must not drop events");
            assert!(
                t.data.makespan.get() > 0,
                "traced overhead case produced an empty trace"
            );
            rate(s.total_tasks, s.wall)
        },
    );
    let overhead_pct = p.overhead_pct;
    println!(
        "hook_overhead: nqueens7 w=1 untraced={:.0}/s traced={:.0}/s overhead={overhead_pct:+.2}%",
        p.base_best, p.with_best
    );
    let fail = (overhead_pct > 5.0).then(|| {
        format!("installing the trace sink costs {overhead_pct:.2}% tasks/sec (budget 5%)")
    });
    let entry = Json::obj([
        ("case", Json::str("nqueens7_w1")),
        ("untraced_tasks_per_sec", Json::Num(p.base_best)),
        ("traced_tasks_per_sec", Json::Num(p.with_best)),
        ("overhead_pct", Json::Num(overhead_pct)),
    ]);
    (entry, fail)
}

/// Metered-vs-plain throughput with the live-metrics layer on, both
/// backends: the native runner with the timed tier on (uts11, one
/// worker — deterministic, no steal races), and the sim engine running
/// the pinned `uts11_60w` case with a registry attached.
/// Configurations interleave within each rep so host-speed drift
/// cancels instead of biasing whichever batch ran last; the gate
/// compares the pairwise-median ratio, like `hook_overhead`. Gated: the
/// native timed tier may cost at most 5% tasks/sec. The sim side is
/// recorded but ungated — the simulator's single-threaded event loop is
/// ~2x noisier than its metrics cost.
fn metrics_overhead_entry(quick: bool) -> (Json, Option<String>) {
    let reps = if quick { 3 } else { 5 };
    let rate = |n: u64, wall_s: f64| n as f64 / wall_s;
    let native = paired_overhead(
        reps,
        || {
            let s = NativeRunner::new(1).run(Uts::geometric(11));
            rate(s.total_tasks, s.wall.as_secs_f64())
        },
        || {
            let (s, snap) = NativeRunner::new(1).run_metered(Uts::geometric(11));
            assert_eq!(
                snap.total(uat_metrics::names::TASKS),
                s.total_tasks,
                "metered native run lost task counts"
            );
            rate(s.total_tasks, s.wall.as_secs_f64())
        },
    );
    let sim = paired_overhead(
        reps,
        || {
            let t0 = Instant::now();
            let stats = Engine::new(SimConfig::fx10(4), Uts::geometric(11)).run();
            rate(stats.events, t0.elapsed().as_secs_f64())
        },
        || {
            let cfg = SimConfig::fx10(4);
            let registry =
                std::sync::Arc::new(uat_metrics::Registry::new(cfg.topo.total_workers() as usize));
            let t0 = Instant::now();
            let stats = Engine::new(cfg, Uts::geometric(11))
                .with_metrics(&registry)
                .run();
            let wall = t0.elapsed().as_secs_f64();
            assert_eq!(
                registry.snapshot().total(uat_metrics::names::TASKS),
                stats.total_tasks,
                "sim registry lost task counts"
            );
            rate(stats.events, wall)
        },
    );
    let native_pct = native.overhead_pct;
    let sim_pct = sim.overhead_pct;
    println!(
        "metrics_overhead: uts11 w=1 plain={:.0}/s metered={:.0}/s \
         overhead={native_pct:+.2}%",
        native.base_best, native.with_best
    );
    println!(
        "metrics_overhead: uts11_60w sim plain={:.0}ev/s metered={:.0}ev/s \
         overhead={sim_pct:+.2}%",
        sim.base_best, sim.with_best
    );
    let fail = (native_pct > 5.0)
        .then(|| format!("the native metrics tier costs {native_pct:.2}% tasks/sec (budget 5%)"));
    let entry = Json::obj([
        ("native_case", Json::str("uts11_w1")),
        ("plain_tasks_per_sec", Json::Num(native.base_best)),
        ("metered_tasks_per_sec", Json::Num(native.with_best)),
        ("overhead_pct", Json::Num(native_pct)),
        ("sim_case", Json::str("uts11_60w")),
        ("sim_plain_events_per_sec", Json::Num(sim.base_best)),
        ("sim_metered_events_per_sec", Json::Num(sim.with_best)),
        ("sim_overhead_pct", Json::Num(sim_pct)),
    ]);
    (entry, fail)
}

/// The native-backend section of the engine artifact: the same `Action`
/// programs the simulator times, executed for real on fibers;
/// `hook_overhead` gates the cost of installing a trace sink.
fn native_section(quick: bool, host_threads: usize, gates: &mut Vec<String>) -> Json {
    // Steal dynamics need >1 worker even on single-CPU hosts.
    let workers = host_threads.clamp(2, 4);
    let fib = if quick { 16 } else { 20 };
    let rounds = if quick { 50 } else { 200 };
    println!("\n# native fiber backend (workers={workers})");
    let cases = Json::Arr(vec![
        native_case("fib_native", workers, Fib::new(fib)),
        native_case("nqueens7_native", workers, NQueens::new(7)),
        native_case("chain_native", workers, Chain::fig10(rounds)),
    ]);
    let (hook_overhead, fail) = hook_overhead_entry(quick);
    gates.extend(fail);
    Json::obj([("cases", cases), ("hook_overhead", hook_overhead)])
}

/// Load an artifact, returning its entries (empty on first run).
fn load_entries(path: &Path, schema: &str) -> Vec<Json> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: {} is not valid JSON: {e}", path.display());
            std::process::exit(1);
        }
    };
    match (doc.field("schema"), doc.field("entries")) {
        (Ok(s), Ok(Json::Arr(entries))) if s.as_str() == Ok(schema) => entries.clone(),
        _ => {
            eprintln!("error: {} does not have schema {schema}", path.display());
            std::process::exit(1);
        }
    }
}

fn write_artifact(path: &Path, schema: &str, mut entries: Vec<Json>, entry: Json) {
    entries.push(entry);
    let doc = Json::obj([
        ("schema", Json::str(schema)),
        ("entries", Json::Arr(entries)),
    ]);
    if let Err(e) = std::fs::write(path, doc.pretty()) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

/// Compare measured cases against the last entry of `baseline`; report
/// and return how many regressed past [`REGRESSION_FLOOR`].
fn check_regressions(baseline: &Path, cases: &[CaseResult]) -> usize {
    let entries = load_entries(baseline, "uat-bench/engine/v1");
    let Some(last) = entries.last() else {
        eprintln!(
            "check: {} has no entries; nothing to compare",
            baseline.display()
        );
        return 0;
    };
    let label = last
        .field("label")
        .and_then(|l| l.as_str().map(str::to_string))
        .unwrap_or_else(|_| "?".into());
    let mut regressed = 0;
    for case in cases {
        let base_rate = last.field("cases").and_then(|cs| {
            cs.as_arr()?
                .iter()
                .find(|c| c.field("name").and_then(|n| n.as_str()) == Ok(case.name))
                .ok_or_else(|| uat_base::json::JsonError {
                    msg: format!("case {} not in baseline", case.name),
                })?
                .field("events_per_sec")?
                .as_f64()
        });
        match base_rate {
            Ok(base) => {
                let ratio = case.events_per_sec() / base;
                let verdict = if ratio < REGRESSION_FLOOR {
                    regressed += 1;
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "check {:<12} {:>12.0} ev/s vs {:>12.0} ({label}) = {:>5.2}x  {verdict}",
                    case.name,
                    case.events_per_sec(),
                    base,
                    ratio,
                );
            }
            Err(e) => println!("check {:<12} skipped: {e}", case.name),
        }
    }
    regressed
}

fn main() {
    let mut quick = false;
    let mut label = String::from("dev");
    let mut check: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires an argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--label" => label = value("--label"),
            "--check" => check = Some(PathBuf::from(value("--check"))),
            "--out-dir" => out_dir = PathBuf::from(value("--out-dir")),
            other => {
                eprintln!("error: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    // Short cases are exposed to host scheduling noise; more iterations
    // make best-of robust without hurting the long cases much.
    let iters = if quick { 1 } else { 5 };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- engine micro-benchmarks (pinned cases) ---
    println!("# engine events/sec (best of {iters})");
    let cases = vec![
        time_case("btc16_120w", iters, || {
            (SimConfig::fx10(8), Btc::new(16, 1))
        }),
        time_case("uts11_60w", iters, || {
            (SimConfig::fx10(4), Uts::geometric(11))
        }),
    ];
    for c in &cases {
        println!(
            "{:<12} events={:>9} best_wall_s={:.4} events_per_sec={:.0}",
            c.name,
            c.events,
            c.best_wall_s,
            c.events_per_sec()
        );
    }

    // --- Figure 11 mini-sweep: serial vs parallel harness ---
    let depth = if quick { 14 } else { 16 };
    let nodes = [2u32, 4, 8, 16];
    let base = compact_config(2);
    let threads = sweep_threads();
    // Warm up allocator + page cache once so the serial-vs-parallel
    // comparison measures the harness, not which run went first.
    let _ = sweep_with_threads(&base, &nodes[..1], 1, || Btc::new(depth, 1));
    let t0 = Instant::now();
    let serial = sweep_with_threads(&base, &nodes, 1, || Btc::new(depth, 1));
    let serial_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = sweep_with_threads(&base, &nodes, threads, || Btc::new(depth, 1));
    let parallel_wall = t0.elapsed().as_secs_f64();
    // The harness must never change the simulation: compare the full
    // serialized stats of every point before writing anything.
    let bit_identical = serial.len() == parallel.len()
        && serial
            .iter()
            .zip(&parallel)
            .all(|(a, b)| a.stats.to_json().to_string() == b.stats.to_json().to_string());
    assert!(
        bit_identical,
        "parallel sweep diverged from the serial baseline"
    );
    let makespan_sum: u64 = serial.iter().map(|p| p.stats.makespan.get()).sum();
    println!("\n# fig11 mini-sweep (Btc depth={depth}, nodes {nodes:?})");
    println!(
        "serial_wall_s={serial_wall:.4} parallel_wall_s={parallel_wall:.4} \
         threads={threads} speedup={:.2}x makespan_sum={makespan_sum} bit_identical={bit_identical}",
        serial_wall / parallel_wall
    );

    // --- native fiber backend ---
    // Overhead gates report failures here instead of exiting on the
    // spot: the artifacts are the evidence for diagnosing a trip, so
    // they are always written before the process exits non-zero.
    let mut gates = Vec::new();
    let native = native_section(quick, host_threads, &mut gates);
    let multiprocess = multiprocess_section(quick);
    let (metrics_overhead, fail) = metrics_overhead_entry(quick);
    gates.extend(fail);

    // --- artifacts ---
    let engine_path = out_dir.join("BENCH_engine.json");
    let engine_entry = Json::obj([
        ("label", Json::str(label.as_str())),
        ("quick", Json::Bool(quick)),
        ("host_threads", Json::UInt(host_threads as u64)),
        (
            "cases",
            Json::Arr(cases.iter().map(CaseResult::to_json).collect()),
        ),
        ("native", native),
        ("multiprocess", multiprocess),
        ("metrics_overhead", metrics_overhead),
        ("critical_path", critical_path_entry()),
    ]);
    let fig11_path = out_dir.join("BENCH_fig11.json");
    let fig11_entry = Json::obj([
        ("label", Json::str(label.as_str())),
        ("quick", Json::Bool(quick)),
        ("depth", Json::UInt(depth as u64)),
        (
            "nodes",
            Json::Arr(nodes.iter().map(|&n| Json::UInt(n as u64)).collect()),
        ),
        ("threads", Json::UInt(threads as u64)),
        ("serial_wall_s", Json::Num(serial_wall)),
        ("parallel_wall_s", Json::Num(parallel_wall)),
        ("speedup", Json::Num(serial_wall / parallel_wall)),
        ("makespan_sum", Json::UInt(makespan_sum)),
        ("bit_identical", Json::Bool(bit_identical)),
    ]);

    // Regression check runs against the baseline as committed, before
    // this invocation's entry is appended.
    let regressed = check
        .as_deref()
        .map_or(0, |path| check_regressions(path, &cases));

    write_artifact(
        &engine_path,
        "uat-bench/engine/v1",
        load_entries(&engine_path, "uat-bench/engine/v1"),
        engine_entry,
    );
    write_artifact(
        &fig11_path,
        "uat-bench/fig11/v1",
        load_entries(&fig11_path, "uat-bench/fig11/v1"),
        fig11_entry,
    );

    for g in &gates {
        eprintln!("error: {g}");
    }
    if regressed > 0 {
        eprintln!("error: {regressed} case(s) regressed >20% vs baseline");
    }
    if !gates.is_empty() || regressed > 0 {
        std::process::exit(1);
    }
}
