//! Native interpreter for the backend-neutral task model: run any
//! `uat-model` [`Workload`] on real fibers — one `exec`, on both real
//! backends: the thread runtime ([`NativeRunner`]) and the
//! multiprocess one ([`MultiProcessRunner`](crate::MultiProcessRunner)),
//! through the worker body they share.
//!
//! The *same* `Action` programs the discrete-event simulator in
//! `uat-cluster` times against the FX10 cost model execute here on real
//! x86-64 lightweight threads with real work stealing —
//!
//! - [`Action::Work`]`(c)` is calibrated spinning of `c` timestamp-counter
//!   ticks ([`tsc::spin_cycles`]), optionally scaled down for tests;
//! - [`Action::Spawn`]`(d)` is a child-first fiber creation (the
//!   runtime's spawn primitive): the child's interpreter starts
//!   immediately on a fresh stack while the parent's continuation is
//!   pushed on its worker's THE deque, stealable by any idle worker;
//! - [`Action::JoinAll`] joins every child spawned so far on the task's
//!   one join block — one pending-count load on the fast path, else one
//!   Figure 7 suspend, resumed by the last child, while the worker
//!   finds other work;
//! - [`Workload::frame_size`] is honored where the paper honors it, at
//!   creation: the spawner evaluates it once and the child's body starts
//!   that many bytes below the task's record at the top of its stack —
//!   one subtraction, bound-checked against the stack (a frame that does
//!   not fit is refused by name), so stack-depth behaviour (and
//!   guard-page faults on deeper overflow) are genuine.
//!
//! The run reports [`NativeRunStats`] with the same unit accounting as
//! the simulator's `RunStats` (`total_units`, `total_tasks`,
//! `total_work_cycles`), plus a schedule-independent
//! [join-tree fingerprint](uat_model::join_tree_fingerprint) — the basis
//! of the differential sim-vs-native harness in the root package's
//! `tests/differential.rs`.

use crate::join::JoinBlock;
use crate::runtime::{Runtime, Threads};
use crate::sched::{bump, current, join_all, spawn_on, Place};
use crate::tsc;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uat_model::{task_shape_hash, Action, Workload};

/// One worker's run accounting: exactly one cache line that only its
/// owner writes [I17], summed over workers once the run is over. All
/// zeroes is the valid initial state, so the multiprocess backend
/// places its rows in the (zero-filled) shared region as they are.
#[derive(Default)]
#[repr(C, align(64))]
pub(crate) struct AcctRow {
    tasks: AtomicU64,
    units: AtomicU64,
    work_cycles: AtomicU64,
    joins: AtomicU64,
    spawns: AtomicU64,
    frame_bytes_total: AtomicU64,
    join_fingerprint: AtomicU64,
    /// Deepest root→task frame chain among the tasks that started here.
    peak_chain: AtomicU64,
}

const _: () = assert!(std::mem::size_of::<AcctRow>() == 64);

impl AcctRow {
    /// Record, owner-only, the whole contribution of a task of `w`
    /// starting with `prog`, whose spawner claimed `frame` for it and
    /// whose frame chain (its own frame included) is `chain` bytes deep —
    /// in one go, on one worker, ahead of its first migration point.
    #[inline]
    fn record<W: Workload>(
        &self,
        w: &W,
        d: &W::Desc,
        frame: u64,
        prog: &[Action<W::Desc>],
        chain: u64,
    ) {
        let (mut work, mut spawns, mut joins) = (0, 0, 0);
        for step in prog {
            match step {
                Action::Work(c) => work += c,
                Action::Spawn(_) => spawns += 1,
                Action::JoinAll => joins += 1,
            }
        }
        let units = w.units(d);
        bump(&self.tasks, 1, Ordering::Relaxed);
        bump(&self.units, units, Ordering::Relaxed);
        bump(&self.work_cycles, work, Ordering::Relaxed);
        bump(&self.joins, joins, Ordering::Relaxed);
        bump(&self.spawns, spawns, Ordering::Relaxed);
        bump(&self.frame_bytes_total, frame, Ordering::Relaxed);
        let shape = task_shape_hash(spawns, units, frame);
        bump(&self.join_fingerprint, shape, Ordering::Relaxed);
        if chain > self.peak_chain.load(Ordering::Relaxed) {
            self.peak_chain.store(chain, Ordering::Relaxed);
        }
    }

    /// Add the workers' rows to a run's stats. The caller has
    /// synchronised with every writer (joined the worker threads /
    /// reaped the worker processes), so Relaxed loads read final values.
    pub(crate) fn totals<'a>(
        rows: impl IntoIterator<Item = &'a AcctRow>,
        mut stats: NativeRunStats,
    ) -> NativeRunStats {
        for r in rows {
            let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
            stats.total_tasks += get(&r.tasks);
            stats.total_units += get(&r.units);
            stats.total_work_cycles += get(&r.work_cycles);
            stats.joins += get(&r.joins);
            stats.spawns += get(&r.spawns);
            stats.frame_bytes_total += get(&r.frame_bytes_total);
            stats.join_fingerprint = stats
                .join_fingerprint
                .wrapping_add(get(&r.join_fingerprint));
            stats.peak_frame_bytes = stats.peak_frame_bytes.max(get(&r.peak_chain));
        }
        stats
    }
}

/// One worker's free list of program buffers, on a line of its own.
/// Single-writer like a `StackPool`: a task takes a buffer from the
/// worker it starts on and returns it to the worker it ends on — or,
/// where the program waits in a [`Place::program_area`], right away.
#[repr(align(64))]
struct BufList<D>(UnsafeCell<Vec<Vec<Action<D>>>>);

// SAFETY: [I7] entry `i` of `Env::bufs` is only ever borrowed by worker
// `i`, one short borrow at a time (`exec`); the buffers move between
// workers with the tasks that hold them, hence `D: Send`.
unsafe impl<D: Send> Sync for BufList<D> {}

/// What every task of one run reads: the workload, one program-buffer
/// free list per worker, and the work divisor — plus, under threads,
/// the workers' accounting rows. Tasks reach it through an [`EnvRef`].
/// The multiprocess coordinator builds it before `fork`, so it sits,
/// copy-on-write, at the same address in every worker process.
pub(crate) struct Env<W: Workload> {
    pub(crate) w: W,
    /// The workers' accounting rows, under threads; a multiprocess run
    /// records into the shared region's instead.
    rows: Box<[AcctRow]>,
    bufs: Box<[BufList<W::Desc>]>,
    work_divisor: u64,
}

impl<W: Workload> Env<W> {
    /// The environment of a `workers`-worker run that keeps `rows`.
    pub(crate) fn new(w: W, rows: Box<[AcctRow]>, workers: usize, work_divisor: u64) -> Self {
        Env {
            w,
            rows,
            bufs: (0..workers)
                .map(|_| BufList(UnsafeCell::new(Vec::new())))
                .collect(),
            work_divisor,
        }
    }
}

/// `Copy` pointers to the run's [`Env`] and to worker 0's accounting
/// row (the others follow it), captured by every task closure. Not an
/// `Arc`: a clone per spawn is an atomic read-modify-write on a
/// refcount line all workers share [I17].
pub(crate) struct EnvRef<W: Workload> {
    pub(crate) env: *const Env<W>,
    pub(crate) rows: *const AcctRow,
}

impl<W: Workload> Clone for EnvRef<W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W: Workload> Copy for EnvRef<W> {}

// SAFETY: [I7][I8] an EnvRef is only ever dereferenced to a shared
// `&Env`, whose fields are `W` (required `Sync` below), the rows and a
// plain integer, and the buffer lists, each touched only by its own
// worker — as is each row; both pointees outlive every task (see
// `NativeRunner::run_with` and `MultiProcessRunner::run_mapped`).
unsafe impl<W: Workload + Sync> Send for EnvRef<W> {}

/// Interpret one task: expand its program and execute it on this fiber.
/// `frame` is the task's own `frame_size`, already claimed below its
/// record by whoever spawned it; `chain_above` is the summed
/// `frame_size` of its ancestors.
// Always inlined into the task entry, which reaches it from two
// closures (the root's and every child's): a task's whole body is then
// one function, which across processes calls nothing out of line but
// the slot pool's slow paths and a parking join.
#[inline(always)]
pub(crate) fn exec<P: Place, W: Workload>(
    env: EnvRef<W>,
    d: &W::Desc,
    frame: u64,
    chain_above: u64,
) {
    // SAFETY: [I8] the runner keeps the Env and the rows alive until
    // every task — this one included — has completed.
    let e = unsafe { &*env.env };
    // The worker is looked up once, before the first migration point.
    let w = current::<P>();
    // SAFETY: [I7] one immutable field of the worker we run on.
    let me = unsafe { (*w).id };
    // A recycled buffer (empty, capacity kept): no allocation per task
    // once the lists are warm.
    // SAFETY: [I7] we run on `me`; the borrow ends with the statement.
    let mut prog = unsafe { &mut *e.bufs[me].0.get() }
        .pop()
        .unwrap_or_default();
    e.w.program(d, &mut prog);
    let chain = chain_above + frame;
    // SAFETY: [I7][I17] `me`'s row, written only by `me`, alive as `e`.
    unsafe { &*env.rows.add(me) }.record(&e.w, d, frame, &prog, chain);

    // Where the program waits across the spawns and joins below: in
    // the buffer itself, which travels with the task, or copied into
    // the place's area, the buffer handed back before any migration
    // point — no private-heap pointer may ride a stack that migrates
    // between processes [I16].
    let n = prog.len();
    // Each action is moved out once, below or into the area.
    // SAFETY: [I16] the buffer keeps them, unowned, until then.
    unsafe { prog.set_len(0) };
    // SAFETY: [I7] as above.
    let (at, keep) = match unsafe { (*w).place.program_area::<W::Desc>(n) } {
        Some(area) => {
            for i in 0..n {
                // SAFETY: [I16] `program_area` vouched for `n` actions,
                // and the buffer holds `n`.
                unsafe { area.add(i).write(prog.as_ptr().add(i).read()) };
            }
            // SAFETY: [I7] still on `me`: nothing since `pop` migrates.
            unsafe { &mut *e.bufs[me].0.get() }.push(prog);
            (area.cast_const(), None)
        }
        None => (prog.as_ptr(), Some(prog)),
    };

    // The task's one join block, a local of this frame: every child
    // counts on it, every `JoinAll` waits on it.
    let jb = JoinBlock::new();
    for i in 0..n {
        // SAFETY: [I16] the i-th action placed above, read exactly once.
        let a = unsafe { at.add(i).read() };
        match a {
            Action::Work(cycles) => tsc::spin_cycles(cycles / e.work_divisor),
            // Child-first: `exec(child)` starts right now on a fresh
            // stack, its frame claimed below its record; our
            // continuation (the rest of this loop) becomes stealable.
            Action::Spawn(child) => {
                let claim = e.w.frame_size(&child);
                let body = move || exec::<P, W>(env, &child, claim, chain);
                // SAFETY: [I16] `jb` is joined below before this frame
                // ends; `env` outlives every task.
                unsafe { spawn_on::<P, _, _>(&jb, claim, body) };
            }
            Action::JoinAll => join_all::<P>(&jb),
        }
    }
    // Fork-join programs end with every child joined (the simulator
    // asserts as much); join stragglers anyway so a malformed workload
    // cannot leak running tasks past its own completion.
    join_all::<P>(&jb);
    if let Some(prog) = keep {
        // SAFETY: [I7] on the worker this task *ends* on.
        unsafe { &mut *e.bufs[(*current::<P>()).id].0.get() }.push(prog);
    }
}

/// Result of one native run — the fiber backend's counterpart of the
/// simulator's `RunStats`, restricted to the quantities that are
/// *backend-invariant* (task expansion, frame-chain peak) or
/// native-measurable (wall clock, steals).
#[derive(Clone, Debug, Default)]
pub struct NativeRunStats {
    /// Workload name.
    pub workload: String,
    /// Worker OS threads.
    pub workers: u32,
    /// Tasks executed (= the sim's `total_tasks`).
    pub total_tasks: u64,
    /// Reported workload units (= the sim's `total_units`).
    pub total_units: u64,
    /// Cycles of `Work` actions *accounted* (= the sim's
    /// `total_work_cycles`; the cycles actually spun are these divided
    /// by the configured work divisor).
    pub total_work_cycles: u64,
    /// `JoinAll` actions executed.
    pub joins: u64,
    /// `Spawn` actions executed (= `total_tasks - 1`).
    pub spawns: u64,
    /// Sum of every task's `frame_size`.
    pub frame_bytes_total: u64,
    /// Deepest frame chain: the maximum over tasks of the summed
    /// `frame_size` on the root→task path — the stack depth one lineage
    /// reaches, whichever workers ran it. Schedule-independent; equals
    /// [`uat_model::SeqProfile::peak_chain_frame_bytes`].
    pub peak_frame_bytes: u64,
    /// Schedule-independent join-tree digest; must equal
    /// [`uat_model::join_tree_fingerprint`] of the same workload.
    pub join_fingerprint: u64,
    /// Successful steals of a started thread between workers.
    pub steals: u64,
    /// Workers that crossed the idle spin threshold into a sleep cycle.
    pub parks: u64,
    /// Parked workers that subsequently found work.
    pub unparks: u64,
    /// Trace events evicted from full rings (0 for untraced runs and
    /// for traced runs whose rings sufficed — the accounts stay exact).
    pub trace_dropped: u64,
    /// Real elapsed time.
    pub wall: std::time::Duration,
}

impl NativeRunStats {
    /// Units per wall-clock second (the native Figure 11 axis).
    pub fn throughput(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s == 0.0 {
            return 0.0;
        }
        self.total_units as f64 / s
    }

    /// One-line summary for harness output.
    pub fn summary_line(&self) -> String {
        self.summary_line_as("Native")
    }

    /// [`summary_line`](Self::summary_line) with an explicit backend
    /// label — the same stats type serves both real executors (native
    /// threads and multiprocess workers).
    pub fn summary_line_as(&self, backend: &str) -> String {
        format!(
            "{:<24} {backend} w={:<3} tasks={:<10} units={:<10} wall={:>9.4}s thr={:>12.0}/s steals={} parks={} unparks={} drop={} peak_frames={}B",
            self.workload,
            self.workers,
            self.total_tasks,
            self.total_units,
            self.wall.as_secs_f64(),
            self.throughput(),
            self.steals,
            self.parks,
            self.unparks,
            self.trace_dropped,
            self.peak_frame_bytes,
        )
    }
}

/// Driver that runs any [`Workload`] on the native fiber runtime.
#[derive(Clone, Debug)]
pub struct NativeRunner {
    /// The runtime each run is driven on.
    rt: Runtime,
    work_divisor: u64,
    /// Per-worker event-ring capacity for [`run_traced`]
    /// (`None` = the runtime default).
    ///
    /// [`run_traced`]: Self::run_traced
    #[cfg(feature = "trace")]
    ring_capacity: Option<usize>,
}

impl NativeRunner {
    /// A runner with `workers` OS-thread workers.
    pub fn new(workers: usize) -> Self {
        NativeRunner {
            rt: Runtime::new(workers),
            work_divisor: 1,
            #[cfg(feature = "trace")]
            ring_capacity: None,
        }
    }

    /// Override the per-worker event-ring capacity used by
    /// [`run_traced`](Self::run_traced).
    #[cfg(feature = "trace")]
    pub fn with_tracing(mut self, ring_capacity: usize) -> Self {
        self.ring_capacity = Some(ring_capacity);
        self
    }

    /// Record runs into `registry` (built for at least `workers`
    /// shards) with the timed metrics tier on; snapshot it afterwards.
    /// Composes with any run method, [`run_traced`](Self::run_traced)
    /// included.
    #[cfg(feature = "metrics")]
    pub fn with_metrics(mut self, registry: Arc<uat_metrics::Registry>) -> Self {
        self.rt = self.rt.with_metrics(registry);
        self
    }

    /// Start a deque-depth sampler thread on every run, ticking each
    /// `interval`. Implies the timed metrics tier.
    #[cfg(feature = "metrics")]
    pub fn with_sampler(mut self, interval: std::time::Duration) -> Self {
        self.rt = self.rt.with_sampler(interval);
        self
    }

    /// Arm the heartbeat stall watchdog on every run (implies a sampler
    /// at the default interval unless one is configured).
    #[cfg(feature = "metrics")]
    pub fn with_watchdog(mut self, cfg: crate::nmetrics::WatchdogCfg) -> Self {
        self.rt = self.rt.with_watchdog(cfg);
        self
    }

    /// Override the per-task stack size (default 128 KiB). Must exceed
    /// the workload's largest `frame_size` (a run panics, naming both,
    /// if it does not) with room for the interpreter's own frames.
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.rt = self.rt.with_stack_size(bytes);
        self
    }

    /// Divide every `Work(c)` spin by `div` (accounting still records
    /// the full `c`). Differential tests compare task expansion, not
    /// timing, so they use a large divisor to skip the spinning.
    pub fn with_work_divisor(mut self, div: u64) -> Self {
        assert!(div >= 1, "work divisor must be at least 1");
        self.work_divisor = div;
        self
    }

    /// Run `w` to completion on real fibers and report its accounting.
    pub fn run<W>(&self, w: W) -> NativeRunStats
    where
        W: Workload + Send + Sync + 'static,
        W::Desc: 'static,
    {
        self.run_with(w, |rt, root| (rt.run_counted(root).1, ())).0
    }

    /// Like [`run`](Self::run) with the timed metrics tier forced on,
    /// additionally returning the run's metrics snapshot (sharded
    /// scheduler counters plus steal-latency / task-run /
    /// park-duration histograms).
    #[cfg(feature = "metrics")]
    pub fn run_metered<W>(&self, w: W) -> (NativeRunStats, uat_metrics::Snapshot)
    where
        W: Workload + Send + Sync + 'static,
        W::Desc: 'static,
    {
        self.run_with(w, |rt, root| {
            let ((), sched, snapshot) = rt.run_metered(root);
            (sched, snapshot)
        })
    }

    /// Like [`run`](Self::run) with per-worker event tracing on,
    /// additionally returning the finalized [`NativeTrace`]
    /// (exportable `TraceData` + per-worker bucket accounts).
    ///
    /// [`NativeTrace`]: crate::ntrace::NativeTrace
    #[cfg(feature = "trace")]
    pub fn run_traced<W>(&self, w: W) -> (NativeRunStats, crate::ntrace::NativeTrace)
    where
        W: Workload + Send + Sync + 'static,
        W::Desc: 'static,
    {
        let ring_capacity = self.ring_capacity;
        self.run_with(w, |mut rt, root| {
            if let Some(cap) = ring_capacity {
                rt = rt.with_tracing(cap);
            }
            let ((), sched, trace) = rt.run_traced(root);
            let trace_dropped = trace.data.workers.iter().map(|r| r.dropped()).sum();
            (
                NativeRunStats {
                    trace_dropped,
                    ..sched
                },
                trace,
            )
        })
    }

    /// Run `w`'s root task through `drive` (one of the runtime's run
    /// entry points, which reports the run's scheduler fields and its
    /// own extra output) and add the workers' accounting rows.
    fn run_with<W, X>(
        &self,
        w: W,
        drive: impl FnOnce(Runtime, Box<dyn FnOnce() + Send>) -> (NativeRunStats, X),
    ) -> (NativeRunStats, X)
    where
        W: Workload + Send + Sync + 'static,
        W::Desc: 'static,
    {
        let workload = w.name();
        let workers = self.rt.nworkers;
        let rows = (0..workers).map(|_| AcctRow::default()).collect();
        let env = Arc::new(Env::new(w, rows, workers, self.work_divisor));
        let root = env.w.root();
        let root_frame = env.w.frame_size(&root);
        // The root task's closure owns the one other handle on the Env.
        // Every task joins its children before it returns, so that
        // closure — dropped when the root's body ends — outlives every
        // `EnvRef` dereference, whatever happens to this frame.
        let held = Arc::clone(&env);
        let root = Box::new(move || {
            let env = EnvRef {
                env: &*held,
                rows: held.rows.as_ptr(),
            };
            exec::<Threads, W>(env, &root, root_frame, 0);
        });
        let (sched, extra) = drive(self.rt.clone().with_root_frame(root_frame), root);
        let stats = AcctRow::totals(env.rows.iter(), NativeRunStats { workload, ..sched });
        (stats, extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uat_model::testutil::BinTree;
    use uat_model::{join_tree_fingerprint, sequential_profile};

    fn runner(workers: usize) -> NativeRunner {
        NativeRunner::new(workers).with_work_divisor(u64::MAX)
    }

    #[test]
    fn bintree_counts_match_sequential_profile() {
        let w = BinTree {
            depth: 6,
            work: 1_000,
            frame: 512,
        };
        let p = sequential_profile(&w);
        for workers in [1usize, 3] {
            let s = runner(workers).run(w.clone());
            assert_eq!(s.total_tasks, p.tasks, "workers={workers}");
            assert_eq!(s.total_units, p.units);
            assert_eq!(s.total_work_cycles, p.work_cycles);
            assert_eq!(s.joins, p.joins);
            assert_eq!(s.spawns, p.spawns);
            assert_eq!(s.frame_bytes_total, p.frame_bytes_total);
            assert_eq!(s.peak_frame_bytes, p.peak_chain_frame_bytes);
            assert_eq!(s.join_fingerprint, p.join_fingerprint);
            assert_eq!(s.join_fingerprint, join_tree_fingerprint(&w));
        }
    }

    /// [I21] on the interpreter's path (`spawn_on` + `join_all` on a
    /// frame-local block): one worker, so nothing is stolen, and no
    /// task's block sees a read-modify-write.
    #[test]
    fn an_unstolen_task_never_touches_its_join_block() {
        let w = BinTree {
            depth: 10,
            work: 0,
            frame: 64,
        };
        let root = w.root();
        let env = Arc::new(Env::new(w, Box::new([AcctRow::default()]), 1, 1));
        let held = Arc::clone(&env);
        let rmws = Runtime::new(1).run(move || {
            let t0 = crate::join::rmws();
            let env = EnvRef {
                env: &*held,
                rows: held.rows.as_ptr(),
            };
            exec::<Threads, _>(env, &root, 0, 0);
            crate::join::rmws() - t0
        });
        assert_eq!(rmws, 0, "join-block RMWs across a 2 047-task tree");
        let s = AcctRow::totals(env.rows.iter(), NativeRunStats::default());
        assert_eq!(s.total_tasks, (1 << 11) - 1);
    }

    #[test]
    fn work_is_accounted_undivided() {
        let w = BinTree {
            depth: 2,
            work: 10_000,
            frame: 64,
        };
        let s = runner(2).run(w);
        assert_eq!(s.total_work_cycles, 7 * 10_000);
    }

    #[test]
    fn frames_really_occupy_stack() {
        // Frames of several pages each are claimed on their tasks'
        // stacks, and the peak is the two-level frame chain.
        let w = BinTree {
            depth: 1,
            work: 0,
            frame: 16 << 10,
        };
        let s = runner(1).run(w.clone());
        assert_eq!(s.peak_frame_bytes, 2 * (16 << 10));
        assert_eq!(s.total_tasks, 3);
        // The same frames on stacks that cannot hold them are refused
        // by name: `frame_size` reaches the claim's bound check.
        let err = std::panic::catch_unwind(|| runner(1).with_stack_size(16 << 10).run(w))
            .expect_err("a 16 KiB frame cannot fit a 16 KiB stack");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("a task frame of 16384 bytes"), "{msg}");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn traced_run_tiles_the_makespan() {
        let w = BinTree {
            depth: 5,
            work: 2_000,
            frame: 256,
        };
        let (s, t) = NativeRunner::new(2)
            .with_work_divisor(8)
            .run_traced(w.clone());
        assert_eq!(s.total_tasks, 63);
        assert_eq!(s.trace_dropped, 0);
        let mk = t.data.makespan.get();
        assert!(mk > 0, "traced run has a zero makespan");
        assert_eq!(t.accounts.len(), 2);
        for (i, acc) in t.accounts.iter().enumerate() {
            assert_eq!(
                acc.total().get(),
                mk,
                "worker {i} buckets do not tile the makespan"
            );
        }
        // Counts must agree with the untraced accounting.
        let p = sequential_profile(&w);
        assert_eq!(s.total_tasks, p.tasks);
        assert_eq!(s.join_fingerprint, p.join_fingerprint);
    }

    #[test]
    fn multi_worker_runs_steal() {
        // On a single-CPU host a thief only runs when the OS preempts
        // the busy worker, so each run must span several scheduling
        // quanta (~70ms of spinning here); allow a few attempts and
        // require at least one observed steal overall.
        let mut stole = 0;
        for _ in 0..3 {
            let w = BinTree {
                depth: 10,
                work: 100_000,
                frame: 256,
            };
            let s = NativeRunner::new(4).run(w);
            assert_eq!(s.total_tasks, (1 << 11) - 1);
            stole += s.steals;
            if stole > 0 {
                break;
            }
        }
        assert!(stole > 0, "no steals across 3 runs on 4 workers");
    }
}
