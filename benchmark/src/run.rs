//! One workload run, the unit the driver invokes:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! An untraced run sets up (five times or more, for a steady `setup_s`),
//! repeats the workload for `seconds`, verifies every repetition and
//! reports the end-to-end metrics. A traced run sets up once and spends
//! its time on the per-layer numbers instead (see `layers.rs`).

use crate::host;
use crate::layers;
use crate::schema::RunResult;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{
    btc120, btc_coarse, btc_fine, chain, guarded, uts60, Backend, RealCase, Rep, SimCase, W,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use uat_model::{sequential_profile, SeqProfile, Workload};

/// How one run was asked to behave.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `run --quick`: two repetitions, one set-up, one micro batch.
    pub quick: bool,
}

/// Everything a run accumulates.
pub struct Ctx {
    pub opts: Opts,
    pub rec: Recorder,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
    /// Exact counts and secondary statistics for `results.json` that
    /// are not contract metrics (p25/p75/n of the repetitions, …).
    pub detail: BTreeMap<String, f64>,
}

impl Ctx {
    pub fn new(opts: Opts, epoch: Instant) -> Self {
        let rec = Recorder::new(&opts.workload, epoch);
        Ctx {
            opts,
            rec,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            detail: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Count one repetition; `None` (the executor panicked) and a failed
    /// verification both count as failed, never as skipped.
    pub fn count(&mut self, rep: Option<&Rep>) -> bool {
        self.attempted += 1;
        let ok = rep.is_some_and(|r| r.ok);
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Whether another set-up should run: one for quick and traced runs;
    /// otherwise at least five, and more (up to a hundred) while they
    /// have taken under a second, so that a 15 ms set-up is the median of
    /// dozens of samples spread past the process's first, slower
    /// milliseconds rather than of five taken inside them.
    fn wants_setup(&self, done: usize, spent_s: f64) -> bool {
        if self.opts.quick || self.opts.trace {
            return done < 1;
        }
        done < 5 || (done < 100 && spent_s < 1.0)
    }

    fn min_reps(&self) -> usize {
        if self.opts.quick {
            2
        } else {
            3
        }
    }

    fn window(&self) -> Duration {
        if self.opts.quick {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(self.opts.seconds)
        }
    }
}

/// Repeat set-up and report the median duration as `setup_s`.
fn setup_loop(ctx: &mut Ctx, mut one: impl FnMut(&mut Recorder) -> SeqProfile) -> SeqProfile {
    let mut durations: Vec<f64> = Vec::new();
    let mut truth = SeqProfile::default();
    while ctx.wants_setup(durations.len(), durations.iter().sum()) {
        let (t, secs) = ctx.rec.timed("setup", &mut one);
        truth = t;
        durations.push(secs);
    }
    let (p25, p50, p75) = crate::stats::quartiles(&durations);
    ctx.set("setup_s", p50);
    ctx.detail.insert("setup_s.p25".into(), p25);
    ctx.detail.insert("setup_s.p75".into(), p75);
    ctx.detail
        .insert("setup_s.n".into(), durations.len() as f64);
    truth
}

/// The timed window: repeat `one` until `seconds` have passed (and at
/// least the minimum repetition count is in), then report the medians.
fn timed_loop(ctx: &mut Ctx, mut one: impl FnMut() -> Option<Rep>) {
    let deadline = Instant::now() + ctx.window();
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    loop {
        let rep = ctx.rec.scope("rep", |_| one());
        let ok = ctx.count(rep.as_ref());
        match rep {
            Some(r) if ok => {
                rates.push(r.tasks_per_s());
                walls.push(r.host_s);
            }
            // A panicked executor may have left its region mapped or its
            // threads wedged; further repetitions would only repeat it.
            None => break,
            Some(_) => {}
        }
        if Instant::now() >= deadline && ctx.attempted as usize >= ctx.min_reps() {
            break;
        }
    }
    if !rates.is_empty() {
        let (p25, p50, p75) = crate::stats::quartiles(&rates);
        ctx.set("tasks_per_s", p50);
        ctx.detail.insert("tasks_per_s.p25".into(), p25);
        ctx.detail.insert("tasks_per_s.p75".into(), p75);
        ctx.detail
            .insert("tasks_per_s.n".into(), rates.len() as f64);
        ctx.detail.insert("rep_s.median".into(), median(&walls));
        for (i, r) in rates.iter().enumerate() {
            ctx.detail.insert(format!("tasks_per_s.rep{i:02}"), *r);
        }
    }
}

fn run_real<P>(ctx: &mut Ctx, mut case: RealCase<P>)
where
    P: Workload + Clone + Send + Sync + 'static,
    P::Desc: Copy + 'static,
{
    if ctx.opts.quick {
        // A smoke run proves every path works; the warm-up-sized program
        // keeps it under half a minute for the whole suite.
        case.program = case.warm.clone();
    }
    let case = &case;
    let mut supported = Ok(());
    let truth = setup_loop(ctx, |rec| {
        let t = rec.scope("verify.sequential_profile", |_| {
            sequential_profile(&case.program)
        });
        supported = rec.scope("probe_support", |_| case.probe());
        if supported.is_ok() {
            rec.scope("warmup", |_| {
                guarded(|| case.run(W, &case.warm));
            });
        }
        t
    });
    if let Err(why) = supported {
        eprintln!("{}: executor unavailable: {why}", ctx.opts.workload);
        ctx.count(None);
        return;
    }
    if ctx.opts.trace {
        layers::real(ctx, case, &truth);
    } else {
        timed_loop(ctx, || case.rep(W, &truth).map(|(rep, _)| rep));
    }
}

fn run_sim<P: Workload + Clone>(ctx: &mut Ctx, mut case: SimCase<P>) {
    if ctx.opts.quick {
        case.program = case.small.clone();
    }
    let case = &case;
    // The simulator needs no warm-up: set-up is the ground truth alone.
    // (An engine warm-up would memset the machine's ~0.5-1 GiB of
    // registered memory, and memory-bound work swings by 40 % between
    // this host's quiet and noisy minutes; see README "Measured spread".)
    let truth = setup_loop(ctx, |rec| {
        rec.scope("verify.sequential_profile", |_| {
            sequential_profile(&case.program)
        })
    });
    if ctx.opts.trace {
        layers::sim(ctx, case, &truth);
    } else {
        let mut first = None;
        timed_loop(ctx, || case.rep(&truth, &mut first).map(|(rep, _)| rep));
    }
}

/// Run one workload and return what it measured. The caller prints the
/// result line and writes the artifacts.
pub fn run(opts: Opts, epoch: Instant) -> Result<Ctx, String> {
    let mut ctx = Ctx::new(opts, epoch);
    let seed = ctx.opts.seed;
    match ctx.opts.workload.as_str() {
        "btc_fine.native" => run_real(&mut ctx, btc_fine(Backend::Native)),
        "btc_fine.mp" => run_real(&mut ctx, btc_fine(Backend::Mp)),
        "btc_coarse.mp" => run_real(&mut ctx, btc_coarse(Backend::Mp)),
        "chain.native" => run_real(&mut ctx, chain(Backend::Native)),
        "chain.mp" => run_real(&mut ctx, chain(Backend::Mp)),
        "sim.uts60" => run_sim(&mut ctx, uts60(seed)),
        "sim.btc120" => run_sim(&mut ctx, btc120(seed)),
        other => return Err(format!("unknown workload `{other}`")),
    }
    if !ctx.opts.trace {
        ctx.set("peak_rss_mb", host::peak_rss_mb());
    }
    Ok(ctx)
}

impl Ctx {
    /// The contract's result line for this run. A run whose repetitions
    /// all failed has no throughput to report; it prints zeros with
    /// `correct: false`.
    pub fn result(&self) -> RunResult {
        let mut values = self.values.clone();
        if !self.opts.trace {
            values.entry("tasks_per_s".into()).or_insert(0.0);
        }
        RunResult::from_values(self.opts.trace, self.attempted, self.failed, &values)
    }
}
