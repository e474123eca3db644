//! Experiment harnesses: one binary per table/figure of the paper.
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig9_rdma_latency` | Figure 9: RDMA READ/WRITE latency vs size |
//! | `table2_creation` | Table 2: task creation overhead (native + modelled) |
//! | `fig10_steal_breakdown` | Figure 10/Table 3: steal-time breakdown |
//! | `table4_runs` | Table 4: tasks, time, stack usage per benchmark |
//! | `fig11_scaling` | Figure 11(a-d): throughput scaling + efficiency |
//! | `iso_vs_uni` | §4 memory analysis + §6.3 steal-time estimate |
//! | `ablation_faa` | software comm-server FAA vs hypothetical hardware FAA |
//! | `ablation_crude` | §5.1 crude scheme vs Figure 4 optimized creation |
//! | `ablation_shared_as` | §5.1 multi-worker-per-address-space placement loss |
//!
//! Run everything: `for b in fig9_rdma_latency table2_creation ...; do
//! cargo run --release -p uat-bench --bin $b; done` — or see
//! EXPERIMENTS.md, which records one full set of outputs against the
//! paper's numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use uat_cluster::SimConfig;

/// Output flags shared by the experiment binaries.
///
/// `--trace <path>` writes a Chrome trace-event file (open it at
/// `ui.perfetto.dev`); `--json <path>` writes machine-readable JSONL
/// results. `--metrics` prints a final metrics-registry snapshot in
/// Prometheus text format to stderr and `--metrics-json <path>` writes
/// the same snapshot as JSON. Path flags accept `--flag path` and
/// `--flag=path` spellings; unrecognized arguments pass through in
/// [`OutFlags::rest`] for the binary's own parsing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OutFlags {
    /// Destination for the Chrome trace, when `--trace` was given.
    pub trace: Option<PathBuf>,
    /// Destination for JSONL results, when `--json` was given.
    pub json: Option<PathBuf>,
    /// Print the final registry snapshot as Prometheus text to stderr
    /// (`--metrics`).
    pub metrics: bool,
    /// Destination for the final registry snapshot as JSON, when
    /// `--metrics-json` was given.
    pub metrics_json: Option<PathBuf>,
    /// Every argument that was not an output flag, in order.
    pub rest: Vec<String>,
}

impl OutFlags {
    /// Parse the process arguments; print the error and exit(2) on a
    /// malformed flag.
    pub fn parse() -> OutFlags {
        match Self::try_from_args(std::env::args().skip(1)) {
            Ok(flags) => flags,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit argument list (testable core of
    /// [`OutFlags::parse`]).
    pub fn try_from_args<I>(args: I) -> Result<OutFlags, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut flags = OutFlags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--trace" || arg == "--json" || arg == "--metrics-json" {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{arg} requires a path argument"))?;
                let slot = match arg.as_str() {
                    "--trace" => &mut flags.trace,
                    "--json" => &mut flags.json,
                    _ => &mut flags.metrics_json,
                };
                *slot = Some(PathBuf::from(value));
            } else if arg == "--metrics" {
                flags.metrics = true;
            } else if let Some(v) = arg.strip_prefix("--trace=") {
                flags.trace = Some(PathBuf::from(v));
            } else if let Some(v) = arg.strip_prefix("--json=") {
                flags.json = Some(PathBuf::from(v));
            } else if let Some(v) = arg.strip_prefix("--metrics-json=") {
                flags.metrics_json = Some(PathBuf::from(v));
            } else {
                flags.rest.push(arg);
            }
        }
        Ok(flags)
    }
}

/// Exit with a clear error if `--trace` was requested but the binary
/// was built without the `trace` feature (`--no-default-features`).
pub fn require_trace_feature(flags: &OutFlags) {
    if cfg!(not(feature = "trace")) && flags.trace.is_some() {
        eprintln!(
            "error: --trace requires the `trace` feature; rebuild without \
             `--no-default-features`"
        );
        std::process::exit(2);
    }
}

/// True when the user asked for any end-of-run metrics output.
pub fn wants_metrics(flags: &OutFlags) -> bool {
    flags.metrics || flags.metrics_json.is_some()
}

/// Exit with a clear error if `--metrics`/`--metrics-json` was
/// requested but the binary was built without the `metrics` feature.
pub fn require_metrics_feature(flags: &OutFlags) {
    if cfg!(not(feature = "metrics")) && wants_metrics(flags) {
        eprintln!(
            "error: --metrics/--metrics-json require the `metrics` feature; \
             rebuild without `--no-default-features`"
        );
        std::process::exit(2);
    }
}

/// Emit the end-of-run registry snapshots that `--metrics` /
/// `--metrics-json` asked for: Prometheus text to stderr (one comment
/// header per backend, so sim and native snapshots stay tellable
/// apart) and, to the given path, one JSON object keyed by backend
/// name.
#[cfg(feature = "metrics")]
pub fn emit_metrics(flags: &OutFlags, snapshots: &[(&str, uat_metrics::Snapshot)]) {
    use uat_base::json::{Json, ToJson};
    if flags.metrics {
        for (backend, snap) in snapshots {
            eprintln!("# == metrics: {backend} ==");
            eprint!("{}", snap.prometheus_text());
        }
    }
    if let Some(path) = &flags.metrics_json {
        let obj = Json::Obj(
            snapshots
                .iter()
                .map(|(backend, snap)| (backend.to_string(), snap.to_json()))
                .collect(),
        );
        write_output(path, &obj.pretty(), "metrics snapshot JSON");
    }
}

/// Write an output artifact, reporting the destination on stderr so it
/// does not mix with the table on stdout; exit(1) on I/O failure.
pub fn write_output(path: &Path, text: &str, what: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: cannot write {what} to {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {what} to {}", path.display());
}

/// Reference values from the paper, for side-by-side output.
pub mod paper {
    /// Table 2, SPARC64IXfx column (cycles).
    pub const CREATION_SPARC: [(&str, f64); 3] = [
        ("Uni-address threads", 413.0),
        ("MassiveThreads", 658.0),
        ("Cilk", 47.0),
    ];
    /// Table 2, Xeon E5-2660 column (cycles).
    pub const CREATION_XEON: [(&str, f64); 3] = [
        ("Uni-address threads", 100.0),
        ("MassiveThreads", 110.0),
        ("Cilk", 59.0),
    ];
    /// §6.3: total steal ≈ 42K cycles on FX10.
    pub const STEAL_TOTAL: f64 = 42_000.0;
    /// §6.3: suspend + resume = 3.5K cycles (7.7% of the steal).
    pub const STEAL_SUSPEND_RESUME: f64 = 3_500.0;
    /// §6: software remote fetch-and-add, 9.8K cycles.
    pub const FAA_CYCLES: f64 = 9_800.0;
    /// §6.3: uni-address steal ≈ 71% of the iso-address steal estimate.
    pub const UNI_OVER_ISO_STEAL: f64 = 0.71;
    /// Table 4 stack usage (bytes): (benchmark, params, bytes).
    pub const STACK_USAGE: [(&str, &str, u64); 8] = [
        ("BTC iter=1", "depth=38", 43_568),
        ("BTC iter=1", "depth=39", 44_688),
        ("BTC iter=2", "depth=19", 22_288),
        ("BTC iter=2", "depth=20", 23_408),
        ("UTS", "depth=17", 139_536),
        ("UTS", "depth=18", 147_392),
        ("NQueens", "N=17", 74_272),
        ("NQueens", "N=18", 79_120),
    ];
    /// Abstract: every benchmark under 144 KiB of uni-address region.
    pub const STACK_BOUND: u64 = 144 * 1024;
}

/// The simulation config of the *large*-machine experiments: same
/// protocol, compact per-worker regions — the sizes `results_*.txt` and
/// the BENCH baselines were recorded with. Host memory does not depend on
/// them: the fabric backs only the pages a run writes.
pub fn compact_config(nodes: u32) -> SimConfig {
    let mut cfg = SimConfig::fx10(nodes);
    cfg.core.uni_region_size = 192 << 10; // > the 144 KiB Table 4 bound
    cfg.core.rdma_heap_size = 768 << 10;
    cfg.core.deque_capacity = 1024;
    cfg.core.iso_stacks_per_worker = 128;
    cfg
}

/// Format a cycle count like the paper's prose (e.g. "42.1K").
pub fn kcycles(c: f64) -> String {
    if c >= 1_000.0 {
        format!("{:.1}K", c / 1_000.0)
    } else {
        format!("{c:.0}")
    }
}

/// Percentage deviation of `measured` from `reference`.
pub fn deviation(measured: f64, reference: f64) -> String {
    if reference == 0.0 {
        return "-".into();
    }
    format!("{:+.1}%", 100.0 * (measured - reference) / reference)
}

/// Executor selected by a binary's `--backend` flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic FX10 cluster simulation (`uat-cluster`).
    #[default]
    Sim,
    /// The native fiber runtime, one OS thread per worker (`uat-fiber`).
    Native,
    /// The multiprocess uni-address backend, one process per worker
    /// (`uat-fiber::mpruntime`).
    Multiprocess,
}

impl Backend {
    /// The flag spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Native => "native",
            Backend::Multiprocess => "multiprocess",
        }
    }
}

/// Extract `--backend {sim,native,multiprocess}` (either `--backend B`
/// or `--backend=B` spelling) from pass-through arguments, returning
/// the selection (default [`Backend::Sim`]) and the remaining
/// arguments in order.
pub fn backend_flag(rest: &[String]) -> Result<(Backend, Vec<String>), String> {
    fn parse(v: &str) -> Result<Backend, String> {
        match v {
            "sim" => Ok(Backend::Sim),
            "native" => Ok(Backend::Native),
            "multiprocess" | "mp" => Ok(Backend::Multiprocess),
            other => Err(format!(
                "unknown backend `{other}` (sim|native|multiprocess)"
            )),
        }
    }
    let mut backend = Backend::Sim;
    let mut out = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if let Some(v) = a.strip_prefix("--backend=") {
            backend = parse(v)?;
        } else if a == "--backend" {
            let v = it.next().ok_or("--backend requires a value")?;
            backend = parse(v)?;
        } else {
            out.push(a.clone());
        }
    }
    Ok((backend, out))
}

/// Run `w` on one of the *real* executors (`native` threads or
/// `multiprocess` worker processes), verify its accounting against the
/// sequential ground truth, and print a throughput summary. Returns
/// `None` — after printing the reason — when the host cannot run the
/// multiprocess backend (treat as "skip", like the ipc probes).
///
/// # Panics
/// On accounting divergence (a backend bug), or if called with
/// [`Backend::Sim`] (the simulator has its own drivers).
pub fn run_real_backend<W>(
    backend: Backend,
    workers: usize,
    divisor: u64,
    w: W,
) -> Option<uat_fiber::NativeRunStats>
where
    W: uat_model::Workload + Clone + Send + Sync + 'static,
    W::Desc: Copy + 'static,
{
    let p = uat_model::sequential_profile(&w);
    let stats = match backend {
        Backend::Sim => panic!("run_real_backend drives native/multiprocess only"),
        Backend::Native => uat_fiber::NativeRunner::new(workers)
            .with_work_divisor(divisor)
            .run(w),
        Backend::Multiprocess => {
            let runner = uat_fiber::MultiProcessRunner::new(workers).with_work_divisor(divisor);
            match runner.try_run(w) {
                Ok(report) => report.stats,
                Err(e) => {
                    eprintln!("multiprocess backend unavailable here: {e}");
                    return None;
                }
            }
        }
    };
    assert_eq!(
        stats.total_tasks,
        p.tasks,
        "{}: {} backend dropped or duplicated tasks",
        stats.workload,
        backend.name()
    );
    assert_eq!(
        stats.join_fingerprint,
        p.join_fingerprint,
        "{}: {} backend join-tree fingerprint diverges from the model",
        stats.workload,
        backend.name()
    );
    println!(
        "{}",
        stats.summary_line_as(match backend {
            Backend::Multiprocess => "MultiProc",
            _ => "Native",
        })
    );
    println!(
        "  throughput: {:.0} tasks/s on {} workers ({} steals, {} parks)",
        stats.throughput(),
        stats.workers,
        stats.steals,
        stats.parks
    );
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_config_fits_table4_bound() {
        let c = compact_config(4);
        assert!(c.core.uni_region_size > paper::STACK_BOUND);
    }

    #[test]
    fn formatting() {
        assert_eq!(kcycles(42_100.0), "42.1K");
        assert_eq!(kcycles(413.0), "413");
        assert_eq!(deviation(110.0, 100.0), "+10.0%");
        assert_eq!(deviation(0.0, 0.0), "-");
    }

    fn parse(args: &[&str]) -> Result<OutFlags, String> {
        OutFlags::try_from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn out_flags_parse_both_spellings() {
        let f = parse(&["--trace", "/tmp/t.json", "--json=/tmp/r.jsonl"]).unwrap();
        assert_eq!(f.trace.as_deref(), Some(Path::new("/tmp/t.json")));
        assert_eq!(f.json.as_deref(), Some(Path::new("/tmp/r.jsonl")));
        assert!(f.rest.is_empty());
    }

    #[test]
    fn out_flags_pass_other_args_through_in_order() {
        let f = parse(&["btc1", "--trace=t", "--big"]).unwrap();
        assert_eq!(f.rest, ["btc1", "--big"]);
        assert_eq!(f.trace.as_deref(), Some(Path::new("t")));
        assert_eq!(f.json, None);
    }

    #[test]
    fn out_flags_missing_value_is_an_error() {
        let e = parse(&["--json"]).unwrap_err();
        assert!(e.contains("--json"), "{e}");
        assert!(parse(&[]).unwrap().trace.is_none());
    }

    #[test]
    fn backend_flag_parses_and_strips() {
        let rest: Vec<String> = ["fib", "--backend", "multiprocess", "--big"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (b, out) = backend_flag(&rest).unwrap();
        assert_eq!(b, Backend::Multiprocess);
        assert_eq!(out, ["fib", "--big"]);
        let (b, out) = backend_flag(&["--backend=native".to_string()]).unwrap();
        assert_eq!(b, Backend::Native);
        assert!(out.is_empty());
        assert_eq!(backend_flag(&[]).unwrap().0, Backend::Sim);
        assert!(backend_flag(&["--backend".to_string()]).is_err());
        assert!(backend_flag(&["--backend=bogus".to_string()]).is_err());
    }

    #[test]
    fn metrics_flags_parse_both_spellings() {
        let f = parse(&["--metrics", "--metrics-json", "/tmp/m.json"]).unwrap();
        assert!(f.metrics);
        assert_eq!(f.metrics_json.as_deref(), Some(Path::new("/tmp/m.json")));
        assert!(f.rest.is_empty());
        assert!(wants_metrics(&f));

        let f = parse(&["--metrics-json=/tmp/m.json"]).unwrap();
        assert!(!f.metrics);
        assert_eq!(f.metrics_json.as_deref(), Some(Path::new("/tmp/m.json")));
        assert!(wants_metrics(&f));

        assert!(!wants_metrics(&parse(&["--trace=t"]).unwrap()));
        let e = parse(&["--metrics-json"]).unwrap_err();
        assert!(e.contains("--metrics-json"), "{e}");
    }
}
