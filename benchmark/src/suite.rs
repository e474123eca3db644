//! `run --all | --quick | --aa`: the whole benchmark from one command.
//!
//! Every workload runs in a fresh child process (this same binary in
//! its single-run form), once untraced for the end-to-end metrics and
//! once traced for the per-layer ones, so no workload inherits another's
//! heap, page cache state or mapped regions.

use crate::host;
use crate::schema::{self, RunResult, END_TO_END, WORKLOADS};
use crate::stats::{median, spread, within_bound, worsening, Better};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use uat_base::json::Json;

pub struct SuiteOpts {
    pub seed: u64,
    pub seconds: f64,
    pub out: PathBuf,
    pub quick: bool,
    /// `--aa`: runs per workload in each of the two sets.
    pub aa_runs: usize,
}

/// One child run: the contract's result line plus the run's detail
/// file (`<out>/<workload>.run<trace>.json`).
struct ChildRun {
    result: RunResult,
    detail: BTreeMap<String, f64>,
    exit_ok: bool,
}

fn child(workload: &str, seed: u64, trace: bool, opts: &SuiteOpts) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out);
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: child printed no result"))?;
    let result = Json::parse(line)
        .and_then(|j| RunResult::from_json(&j))
        .map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let detail_path = crate::detail_path(&opts.out, workload, trace);
    let detail = std::fs::read_to_string(&detail_path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|j| match j.get("detail") {
            Some(Json::Obj(members)) => Some(
                members
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64().ok()?)))
                    .collect(),
            ),
            _ => None,
        })
        .unwrap_or_default();
    Ok(ChildRun {
        result,
        detail,
        exit_ok: output.status.success(),
    })
}

/// `workload metric value unit (median, p25 .., p75 .., n ..)`.
fn print_metric(workload: &str, name: &str, value: f64, unit: &str, d: &BTreeMap<String, f64>) {
    let stat = |suffix: &str| d.get(&format!("{name}.{suffix}")).copied();
    let extra = match (stat("p25"), stat("p75"), stat("n")) {
        (Some(p25), Some(p75), Some(n)) => format!("(median, p25 {p25:.6}, p75 {p75:.6}, n {n})"),
        _ => match (stat("p90"), stat("batches")) {
            (Some(p90), Some(b)) => format!("(median, p90 {p90:.6}, n {b})"),
            _ => "(n 1)".to_string(),
        },
    };
    println!("{workload} {name} {value:.6} {unit} {extra}");
}

/// What `results.json` says about the benchmark itself, beyond the six
/// keys `BENCHMARK.json` may carry.
fn definition_json(opts: &SuiteOpts) -> Json {
    let mut doc = vec![
        ("seed".to_string(), Json::UInt(opts.seed)),
        ("seconds".to_string(), Json::Num(opts.seconds)),
        ("quick".to_string(), Json::Bool(opts.quick)),
    ];
    doc.extend(schema::tables(true).map(|(k, v)| (k.to_string(), v)));
    Json::Obj(doc)
}

/// Write `doc` as `<out>/<name>`, pretty-printed.
fn write_doc(out: &Path, name: &str, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(out.join(name), doc.pretty()))
        .map_err(|e| format!("cannot write {}: {e}", out.join(name).display()))
}

/// `run --all` / `run --quick`. Returns the process exit code.
pub fn run_all(opts: &SuiteOpts) -> i32 {
    let t0 = Instant::now();
    let mut runs = Vec::new();
    let mut failed_ops = 0;
    let mut broken = Vec::new();
    for w in WORKLOADS {
        let mut entry = vec![("workload".to_string(), Json::str(w.name))];
        let (mut attempted, mut failed) = (0, 0);
        for trace in [false, true] {
            match child(w.name, opts.seed, trace, opts) {
                Ok(c) => {
                    for (name, value, unit) in &c.result.metrics {
                        // A layer the workload does not load reads 0;
                        // printing 90 zero rows per workload hides the
                        // ones that were measured.
                        if !trace || *value != 0.0 {
                            print_metric(w.name, name, *value, unit, &c.detail);
                        }
                    }
                    attempted += c.result.attempted;
                    failed += c.result.failed;
                    if !c.exit_ok && c.result.failed == 0 {
                        broken.push(format!("{}: child exited non-zero", w.name));
                    }
                    let key = if trace { "per_layer" } else { "end_to_end" };
                    entry.push((key.to_string(), c.result.metrics_json()));
                    entry.push((format!("{key}_detail"), schema::numbers_json(&c.detail)));
                }
                Err(e) => {
                    eprintln!("{e}");
                    broken.push(e);
                }
            }
        }
        println!("{} ops_attempted {attempted} count (n 1)", w.name);
        println!("{} ops_failed {failed} count (n 1)", w.name);
        failed_ops += failed;
        entry.push(("ops_attempted".to_string(), Json::UInt(attempted)));
        entry.push(("ops_failed".to_string(), Json::UInt(failed)));
        runs.push(Json::Obj(entry));
    }
    let doc = Json::obj([
        ("definition", definition_json(opts)),
        ("host", host::facts()),
        ("runs", Json::Arr(runs)),
        ("suite_wall_s", Json::Num(t0.elapsed().as_secs_f64())),
    ]);
    if let Err(e) = write_doc(&opts.out, "results.json", &doc) {
        eprintln!("{e}");
        broken.push(e);
    }
    println!(
        "suite: {} workloads in {:.1} s, {failed_ops} failed ops, results in {}",
        WORKLOADS.len(),
        t0.elapsed().as_secs_f64(),
        opts.out.join("results.json").display()
    );
    i32::from(failed_ops > 0 || !broken.is_empty())
}

/// One A/A set: `aa_runs` untraced runs of every workload, each with
/// its own seed. Returns values per (workload, metric).
fn aa_set(
    opts: &SuiteOpts,
    seed_base: u64,
) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for w in WORKLOADS {
        for i in 0..opts.aa_runs {
            let c = child(w.name, seed_base + i as u64, false, opts)?;
            if !c.result.correct {
                return Err(format!("{}: {} failed ops", w.name, c.result.failed));
            }
            for (name, value, _) in &c.result.metrics {
                values
                    .entry((w.name.to_string(), name.clone()))
                    .or_default()
                    .push(*value);
            }
        }
    }
    Ok(values)
}

/// One (workload, metric) row of the A/A report.
pub struct AaRow {
    pub first: (f64, f64),
    pub second: (f64, f64),
    pub worsening: f64,
    pub agrees: bool,
}

/// Compare two sets of one metric's values the way the driver does: the
/// second median may not be worse than the first by more than `bound`.
/// Each side is `(median, iqr/median)`.
pub fn aa_row(first: &[f64], second: &[f64], better: Better, bound: f64) -> AaRow {
    let (a, b) = (median(first), median(second));
    AaRow {
        first: (a, spread(first)),
        second: (b, spread(second)),
        worsening: worsening(a, b, better),
        agrees: within_bound(a, b, better, bound),
    }
}

/// `run --aa`: the suite's untraced runs twice, back to back, on the
/// same build. Exit code 1 if any (workload, metric) pair disagrees by
/// more than the metric's bound.
pub fn run_aa(opts: &SuiteOpts) -> i32 {
    let sets = match (aa_set(opts, opts.seed), aa_set(opts, opts.seed + 1000)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let mut disagreements = 0;
    let mut rows = Vec::new();
    println!("workload metric median_1 iqr_1 median_2 iqr_2 worsening bound verdict");
    for w in WORKLOADS {
        for m in END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let row = aa_row(&sets.0[&key], &sets.1[&key], m.better, m.bound);
            // The spread is informative for every metric and binding for
            // all but setup_s, exactly as the driver treats it.
            let steady = m.name == "setup_s" || row.first.1.max(row.second.1) <= m.bound;
            let verdict = match (row.agrees, steady) {
                (true, true) => "agree",
                (true, false) => "agree-but-spread-exceeds-bound",
                (false, _) => "DISAGREE",
            };
            if verdict != "agree" {
                disagreements += 1;
            }
            println!(
                "{} {} {:.6} {:.2}% {:.6} {:.2}% {:+.2}% {:.0}% {verdict}",
                w.name,
                m.name,
                row.first.0,
                row.first.1 * 100.0,
                row.second.0,
                row.second.1 * 100.0,
                row.worsening * 100.0,
                m.bound * 100.0
            );
            rows.push(Json::obj([
                ("workload", Json::str(w.name)),
                ("metric", Json::str(m.name)),
                ("median_1", Json::Num(row.first.0)),
                ("iqr_share_1", Json::Num(row.first.1)),
                ("median_2", Json::Num(row.second.0)),
                ("iqr_share_2", Json::Num(row.second.1)),
                ("worsening", Json::Num(row.worsening)),
                ("bound", Json::Num(m.bound)),
                ("verdict", Json::str(verdict)),
            ]));
        }
    }
    let doc = Json::obj([
        ("mode", Json::str("aa")),
        ("runs_per_set", Json::UInt(opts.aa_runs as u64)),
        ("seconds", Json::Num(opts.seconds)),
        ("host", host::facts()),
        ("rows", Json::Arr(rows)),
    ]);
    if let Err(e) = write_doc(&opts.out, "aa.json", &doc) {
        eprintln!("{e}");
    }
    println!(
        "aa: {disagreements} of {} pairs disagree",
        WORKLOADS.len() * END_TO_END.len()
    );
    i32::from(disagreements > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aa_rows_agree_within_bound_and_disagree_beyond_it() {
        let first = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 99.8, 100.0, 100.4, 99.6];
        let slower = [88.0, 89.0, 87.0, 88.5, 87.5];
        let ok = aa_row(&first, &same, Better::Higher, 0.10);
        assert!(ok.agrees && ok.worsening.abs() < 0.01);
        assert!(ok.first.1 < 0.02 && ok.second.1 < 0.02);
        let bad = aa_row(&first, &slower, Better::Higher, 0.10);
        assert!(!bad.agrees && bad.worsening > 0.10);
        // The same drop is fine when lower is better.
        assert!(aa_row(&first, &slower, Better::Lower, 0.10).agrees);
    }
}
