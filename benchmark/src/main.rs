//! The repository benchmark. Two forms:
//!
//! - the driver's single run,
//!   `uat-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`,
//!   which prints one JSON result object as its last line of stdout;
//! - the whole suite, `uat-benchmark run --all | --quick | --aa`, which
//!   runs every workload in child processes of the first form.
//!
//! `uat-benchmark definition` prints `BENCHMARK.json`. See README.md.

mod host;
mod layers;
mod micro;
mod run;
mod schema;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;
use uat_base::json::Json;

const USAGE: &str = "usage:
  uat-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--quick]
  uat-benchmark run (--all | --quick | --aa) [--seed <n>] [--seconds <s>] [--runs <k>] [--out <dir>]
  uat-benchmark definition";

const DEFAULT_OUT: &str = "benchmark/out";

/// Where a single run leaves its detail file for the suite to pick up.
pub fn detail_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("{workload}.run{}.json", u8::from(trace)))
}

/// Parsed command line: flags with values, bare flags, positionals.
struct Args {
    values: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

const VALUE_FLAGS: &[&str] = &[
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--out",
    "--runs",
];
const BARE_FLAGS: &[&str] = &["--all", "--quick", "--aa"];

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            values: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if VALUE_FLAGS.contains(&arg.as_str()) {
                let v = raw.next().ok_or_else(|| format!("{arg} needs a value"))?;
                a.values.push((arg, v));
            } else if BARE_FLAGS.contains(&arg.as_str()) {
                a.flags.push(arg);
            } else if arg.starts_with('-') {
                return Err(format!("unknown option {arg}"));
            } else {
                a.positional.push(arg);
            }
        }
        Ok(a)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == flag)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    fn seed(&self) -> Result<u64, String> {
        match self.value("--seed") {
            None => Ok(workloads::DEFAULT_SEED),
            Some(s) => parse_seed(s),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        match self.value("--seconds") {
            None => Ok(schema::RUN_SECONDS as f64),
            Some(s) => s
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && (0.0..=3600.0).contains(v))
                .ok_or_else(|| format!("--seconds {s}: expected 0..=3600")),
        }
    }

    fn out(&self) -> PathBuf {
        PathBuf::from(self.value("--out").unwrap_or(DEFAULT_OUT))
    }
}

/// Decimal or `0x` hexadecimal.
fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("--seed {s}: expected an unsigned integer"))
}

/// Set in the environment of the child `fresh_process` starts.
const RESPAWNED: &str = "UAT_BENCHMARK_RESPAWNED";

/// `cargo run` builds, reaps its `rustc` children and then *execs* the
/// benchmark, which inherits their peak RSS (hundreds of MiB) as its own
/// children's. `peak_rss_mb` would report the compiler. When that has
/// happened, run the same command line in a child process, whose
/// counter starts at zero, and pass its exit code on. Returns `None`
/// when this process is clean and should do the run itself.
fn fresh_process() -> Option<Result<i32, String>> {
    if host::children_maxrss_kib() == 0 || std::env::var_os(RESPAWNED).is_some() {
        return None;
    }
    let run = std::env::current_exe()
        .and_then(|exe| {
            std::process::Command::new(exe)
                .args(std::env::args_os().skip(1))
                .env(RESPAWNED, "1")
                .status()
        })
        .map(|status| status.code().unwrap_or(1))
        .map_err(|e| format!("cannot re-run in a fresh process: {e}"));
    Some(run)
}

fn single(args: &Args, epoch: Instant) -> Result<i32, String> {
    if let Some(outcome) = fresh_process() {
        return outcome;
    }
    let workload = args
        .value("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !schema::WORKLOADS.iter().any(|w| w.name == workload) {
        let known: Vec<&str> = schema::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{workload}`; one of {}",
            known.join(", ")
        ));
    }
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let opts = run::Opts {
        workload: workload.clone(),
        seed: args.seed()?,
        seconds: args.seconds()?,
        trace,
        quick: args.flag("--quick"),
    };
    let seed = opts.seed;
    let seconds = opts.seconds;
    let ctx = run::run(opts, epoch)?;
    let result = ctx.result();

    // Artifacts: the harness spans as a Chrome trace, and the run's
    // detail (quartiles, p90s, exact counts) for `run --all` to collect.
    let out = args.out();
    let spans_name = if trace {
        format!("{workload}.traced.spans.json")
    } else {
        format!("{workload}.spans.json")
    };
    let detail = Json::obj([
        ("workload", Json::str(workload.as_str())),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("host", host::facts()),
        ("result", result.to_json()),
        ("detail", schema::numbers_json(&ctx.detail)),
    ]);
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join(spans_name), ctx.rec.chrome_trace().to_string()))
        .and_then(|()| std::fs::write(detail_path(&out, &workload, trace), detail.pretty()));
    if let Err(e) = written {
        eprintln!("cannot write artifacts under {}: {e}", out.display());
    }

    println!("{}", result.to_json());
    Ok(i32::from(!result.correct))
}

fn suite_cmd(args: &Args) -> Result<i32, String> {
    let modes = ["--all", "--quick", "--aa"]
        .iter()
        .filter(|m| args.flag(m))
        .count();
    if modes != 1 {
        return Err("run needs exactly one of --all, --quick, --aa".into());
    }
    let aa_runs = match args.value("--runs") {
        None => 3,
        Some(s) => s
            .parse::<usize>()
            .ok()
            .filter(|k| (1..=100).contains(k))
            .ok_or_else(|| format!("--runs {s}: expected 1..=100"))?,
    };
    let opts = suite::SuiteOpts {
        seed: args.seed()?,
        seconds: args.seconds()?,
        out: args.out(),
        quick: args.flag("--quick"),
        aa_runs,
    };
    Ok(if args.flag("--aa") {
        suite::run_aa(&opts)
    } else {
        suite::run_all(&opts)
    })
}

fn main() {
    let epoch = Instant::now();
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            None if args.value("--workload").is_some() => single(&args, epoch),
            Some("run") if args.positional.len() == 1 => suite_cmd(&args),
            Some("definition") if args.positional.len() == 1 => {
                print!("{}", schema::definition().pretty());
                Ok(0)
            }
            _ => Err("no command".into()),
        }
    });
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload sim.uts60 --seed 17 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.value("--workload"), Some("sim.uts60"));
        assert_eq!(a.seed().unwrap(), 17);
        assert_eq!(a.seconds().unwrap(), 10.0);
        assert_eq!(a.value("--trace"), Some("1"));
        assert!(a.positional.is_empty());
    }

    #[test]
    fn bad_input_is_rejected_where_it_enters() {
        assert!(parse("--workload").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(parse("--seed x").unwrap().seed().is_err());
        assert!(parse("--seconds -1").unwrap().seconds().is_err());
        assert!(parse("--seconds nan").unwrap().seconds().is_err());
        assert_eq!(parse_seed("0x5EED").unwrap(), 0x5EED);
        assert_eq!(
            parse("run --all").unwrap().seed().unwrap(),
            workloads::DEFAULT_SEED
        );
    }
}
