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

use std::fs::File;
use std::io::{self, BufWriter, Write};
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

/// True when the user asked for any end-of-run metrics output.
pub fn wants_metrics(flags: &OutFlags) -> bool {
    flags.metrics || flags.metrics_json.is_some()
}

/// Emit the end-of-run registry snapshots that `--metrics` /
/// `--metrics-json` asked for: Prometheus text to stderr (one comment
/// header per backend, so sim and native snapshots stay tellable
/// apart) and, to the given path, one JSON object keyed by backend
/// name.
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
    stream_output(path, what, |out| out.write_all(text.as_bytes()));
}

/// [`write_output`] for an artifact that `write` streams to the file
/// through a buffer.
fn stream_output(
    path: &Path,
    what: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) {
    let written = File::create(path).and_then(|f| {
        let mut out = BufWriter::new(f);
        write(&mut out)?;
        out.flush()
    });
    if let Err(e) = written {
        eprintln!("error: cannot write {what} to {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {what} to {}", path.display());
}

/// Stream a traced run's Chrome trace to `path` through a buffer,
/// reporting as [`write_output`] does.
pub fn write_chrome_trace(path: &Path, data: &uat_trace::TraceData, what: &str) {
    stream_output(path, what, |out| uat_trace::write_chrome_trace(data, out));
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

/// This process's peak resident set, `VmHWM` from `/proc/self/status`,
/// in MiB ("unknown" where that file has no such line). Printed next to
/// the fabric's "host-resident" count, it shows what the host held
/// against what the simulated memory backed.
pub fn peak_rss_mib() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<u64>().ok());
    kib.map_or_else(
        || "unknown".into(),
        |k| format!("{:.1} MiB", k as f64 / 1024.0),
    )
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

/// Refuse, by name, every flag of `given` that was set: the error lists
/// them in order, then says `why`.
fn refuse(given: &[(&str, bool)], why: &str) -> Result<(), String> {
    let set: Vec<&str> = given
        .iter()
        .filter_map(|&(name, on)| on.then_some(name))
        .collect();
    if set.is_empty() {
        return Ok(());
    }
    Err(format!("{} {why}", set.join(", ")))
}

/// Refuse the output flags a figure binary cannot honour on `backend`.
///
/// The figure binaries export traces, JSONL and metrics from the
/// simulator only; their `native` and `multiprocess` paths print a
/// summary and nothing else. Rather than drop such a flag silently, the
/// error names every one given.
pub fn check_output_flags(flags: &OutFlags, backend: Backend) -> Result<(), String> {
    if backend == Backend::Sim {
        return Ok(());
    }
    refuse(
        &[
            ("--trace", flags.trace.is_some()),
            ("--json", flags.json.is_some()),
            ("--metrics", flags.metrics),
            ("--metrics-json", flags.metrics_json.is_some()),
        ],
        &format!(
            "not supported with --backend {}: this binary exports from the sim backend only",
            backend.name()
        ),
    )
}

/// Refuse the flags `differential_profile --backend B` cannot honour,
/// on every backend, `sim` included: that mode runs one executor
/// untraced, so it has no trace to write (`--trace`), no profile to
/// summarise (`--json`) and no ring to size (`--ring`, given as
/// `ring`). It does honour `--metrics` and `--metrics-json`.
pub fn check_single_backend_flags(
    flags: &OutFlags,
    ring: bool,
    backend: Backend,
) -> Result<(), String> {
    refuse(
        &[
            ("--trace", flags.trace.is_some()),
            ("--json", flags.json.is_some()),
            ("--ring", ring),
        ],
        &format!(
            "not supported with --backend {}: it runs one executor untraced \
             (drop --backend for the traced side-by-side profile)",
            backend.name()
        ),
    )
}

/// A real-backend run's throughput line: tasks per wall-clock second,
/// the rate its label names. (`NativeRunStats::throughput` is *units*
/// per second, which is what `summary_line`'s `thr=` reports.)
pub fn throughput_line(stats: &uat_fiber::NativeRunStats) -> String {
    let secs = stats.wall.as_secs_f64();
    let tasks_per_s = if secs > 0.0 {
        stats.total_tasks as f64 / secs
    } else {
        0.0
    };
    format!(
        "  throughput: {tasks_per_s:.0} tasks/s on {} workers ({} steals, {} parks)",
        stats.workers, stats.steals, stats.parks
    )
}

/// Run `w` on one of the *real* executors (`native` threads or
/// `multiprocess` worker processes), verify its accounting against the
/// sequential ground truth, print its summary and throughput, and emit
/// the metrics snapshot `flags` ask for (`--metrics`, `--metrics-json`,
/// keyed by [`Backend::name`]) from a metered run. Returns `None` —
/// after printing the reason — when the host cannot run the
/// multiprocess backend (treat as "skip").
///
/// # Panics
/// On accounting divergence (a backend bug), or if called with
/// [`Backend::Sim`] (the simulator has its own drivers).
pub fn run_real_backend<W>(
    backend: Backend,
    workers: usize,
    divisor: u64,
    w: W,
    flags: &OutFlags,
) -> Option<uat_fiber::NativeRunStats>
where
    W: uat_model::Workload + Clone + Send + 'static,
    W::Desc: Copy + 'static,
{
    assert!(
        backend != Backend::Sim,
        "run_real_backend drives native/multiprocess only"
    );
    if backend == Backend::Multiprocess {
        if let Err(e) = uat_fiber::MultiProcessRunner::probe_support() {
            eprintln!("multiprocess backend unavailable here: {e}");
            return None;
        }
    }
    let p = uat_model::sequential_profile(&w);
    let native = || uat_fiber::NativeRunner::new(workers).with_work_divisor(divisor);
    let mp = || uat_fiber::MultiProcessRunner::new(workers).with_work_divisor(divisor);
    let (stats, snapshot) = match (backend == Backend::Native, wants_metrics(flags)) {
        (true, false) => (native().run(w), None),
        (false, false) => (mp().run(w), None),
        (true, true) => {
            let (stats, snapshot) = native().run_metered(w);
            (stats, Some(snapshot))
        }
        (false, true) => {
            let (stats, snapshot) = mp().run_metered(w);
            (stats, Some(snapshot))
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
    println!("{}", stats.summary_line());
    println!("{}", throughput_line(&stats));
    if let Some(snapshot) = snapshot {
        emit_metrics(flags, &[(backend.name(), snapshot)]);
    }
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

    #[test]
    fn peak_rss_reads_proc_status() {
        let peak = peak_rss_mib();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak.ends_with(" MiB"), "{peak}");
        } else {
            assert_eq!(peak, "unknown");
        }
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
    fn real_backends_refuse_output_flags_by_name() {
        let all = parse(&["--trace=t", "--json=j", "--metrics", "--metrics-json=m"]).unwrap();
        assert_eq!(check_output_flags(&all, Backend::Sim), Ok(()));
        for backend in [Backend::Native, Backend::Multiprocess] {
            let e = check_output_flags(&all, backend).unwrap_err();
            assert!(
                e.starts_with("--trace, --json, --metrics, --metrics-json not supported"),
                "{e}"
            );
            assert!(e.contains(backend.name()), "{e}");
            let e = check_output_flags(&parse(&["--json=j"]).unwrap(), backend).unwrap_err();
            assert!(e.starts_with("--json not supported"), "{e}");
            let plain = parse(&["btc1"]).unwrap();
            assert_eq!(check_output_flags(&plain, backend), Ok(()));
        }
    }

    #[test]
    fn single_backend_mode_refuses_trace_json_and_ring_by_name() {
        let all = parse(&["--trace=t", "--json=j", "--metrics", "--metrics-json=m"]).unwrap();
        for backend in [Backend::Sim, Backend::Native, Backend::Multiprocess] {
            let e = check_single_backend_flags(&all, true, backend).unwrap_err();
            assert!(
                e.starts_with("--trace, --json, --ring not supported"),
                "{e}"
            );
            assert!(e.contains(backend.name()), "{e}");
            let e = check_single_backend_flags(&all, false, backend).unwrap_err();
            assert!(e.starts_with("--trace, --json not supported"), "{e}");
            let plain = parse(&["btc1"]).unwrap();
            let e = check_single_backend_flags(&plain, true, backend).unwrap_err();
            assert!(e.starts_with("--ring not supported"), "{e}");
            // The mode honours the metrics flags.
            let metrics = parse(&["--metrics", "--metrics-json=m"]).unwrap();
            assert_eq!(check_single_backend_flags(&metrics, false, backend), Ok(()));
        }
    }

    #[test]
    fn throughput_line_reports_tasks_not_units() {
        // `differential_profile uts --size 6 --workers 2`: 6 274 tasks
        // reporting 2 626 units in 6.8 ms.
        let stats = uat_fiber::NativeRunStats {
            workers: 2,
            total_tasks: 6_274,
            total_units: 2_626,
            wall: std::time::Duration::from_micros(6_800),
            ..Default::default()
        };
        let line = throughput_line(&stats);
        assert!(line.contains(" 922647 tasks/s on 2 workers"), "{line}");
        assert_eq!(stats.throughput().round(), 386_176.0, "units/s");
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
