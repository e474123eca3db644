//! The thread runner: the one worker body (`sched.rs`) with workers as
//! OS threads of one address space, every thread (task) on its own
//! pooled stack, and heap deques.
//!
//! This is the shared-memory degenerate case of the paper's runtime
//! (Section 2: "In shared memory environment, migrating a task in the
//! middle of its execution can be done simply by passing the address of
//! the stack"): the same-stack Figure 4 layout is only sound across
//! *separate* address spaces, which is exactly the paper's observation,
//! so a steal is a `resume_context` of somebody else's saved parent on
//! its pooled stack. The scheduler — child-first spawn, FIFO stealing,
//! the Figure 7 join — is the body the multiprocess backend runs too;
//! what is this backend's own is its `Place` (`Threads`: a
//! `StackPool`, the run's `NativeDeque`s and counter rows, and, on an
//! observed run, the worker's observer), how its workers come to exist
//! (`thread::spawn`), and the public API on top: [`spawn`],
//! [`JoinHandle`] and [`Runtime`].
//!
//! A task costs here what it costs on the multiprocess backend: its
//! counters are its worker's `uat_metrics::shm::Row`, bumped by the
//! worker body; a worker reaches any worker's row and deque by an add
//! from bases it resolved when it started, as `RegionLayout` does; and
//! its observer (`ntrace::Observer`: the tracer and the timed metrics
//! tier, one stamp per event) sits behind one flag on the place
//! (`Threads::observe`). A run neither traced nor metered builds no
//! observer, clock, timed tier or registry, and never tests more than
//! that flag.
//!
//! Nobody polls for the end of a run: the first worker whose
//! termination scan passes raises the shutdown word, and the thread that
//! called [`Runtime::run`] sleeps in the workers' `join`s from the
//! moment it has spawned them (`idle.rs`); each worker's thread hands
//! back its closed timeline, on a traced run, as it ends. That is the
//! one run path (`Runtime::launch`): [`Runtime::run`] starts it with its
//! closure's body, `NativeRunner` with an `interp::Child` root, like
//! every task it spawns, telling it what to trace or meter.

use crate::frame::FrameTooLarge;
use crate::interp::{AcctRow, NativeRunStats};
use crate::join::JoinBlock;
use crate::nmetrics::MetricsShared;
use crate::ntrace::{NativeTrace, Observer, TraceShared};
use crate::sched::{
    current, join_all, place_record, report_panic, spawn_on, worker_loop, Body, Event, Place,
    TaskHeader, Worker,
};
use crate::stack::{Stack, StackPool};
use crate::tsc::RunClock;
use std::any::Any;
use std::borrow::Borrow;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::Arc;
use uat_deque::native::Owned;
use uat_deque::NativeDeque;
use uat_metrics::shm::Row;

/// What a public [`spawn`] shares between the child and its handle —
/// the one allocation such a spawn makes.
struct JoinCell<T> {
    block: JoinBlock,
    /// Written once by the child before it completes, taken once by the
    /// joiner after `block.is_done()`.
    result: UnsafeCell<Option<T>>,
}

// SAFETY: [I8] `block` is atomics; `result`'s one write happens-before
// its one read through the block's Release/Acquire if the spawner was
// stolen, and program order on one worker if the child resumed it
// [I21]. `T: Send`: the value changes threads.
unsafe impl<T: Send> Sync for JoinCell<T> {}

impl<T> JoinCell<T> {
    /// The body of a task that reports to `cell`: store what `f`
    /// returns and hand the cell back as the task's keep-alive [I18].
    /// `f` is the public API's, which hands no worker on: the worker the
    /// task ends on is looked up after it.
    fn task<F: FnOnce() -> T>(
        cell: Arc<Self>,
        f: F,
    ) -> impl FnOnce(*mut Worker<Threads>) -> (*mut Worker<Threads>, Arc<Self>) {
        move |_| {
            let out = f();
            // SAFETY: [I8] the slot's only write (see `Sync` above).
            unsafe { *cell.result.get() = Some(out) };
            (current::<Threads>(), cell)
        }
    }
}

/// Handle to a spawned thread; [`join`](JoinHandle::join) returns its
/// result (the `task<T>`/`join` API of Figure 2). Dropping the handle
/// detaches the thread; [`Runtime::run`] still waits for it. Join it
/// from the task that spawned it: a task that would block joining any
/// other thread aborts the run, naming the mistake.
pub struct JoinHandle<T> {
    cell: Arc<JoinCell<T>>,
}

struct Shared {
    deques: Box<[NativeDeque<u64>]>,
    /// One counter row per worker, on a line only that worker writes
    /// [I17]; the termination scan sums their `TASKS` and `SPAWNED`.
    rows: Box<[Row]>,
    /// Raised by the first idle worker whose termination scan passes;
    /// every worker loop, and the sampler, leaves when it reads it.
    shutdown: AtomicU32,
    /// The root's task record, started (once) by worker 0; from then on
    /// only an address.
    seed_task: AtomicPtr<TaskHeader<Stack>>,
}

/// The thread backend's [`Place`]: one worker thread's stack pool, its
/// way into the run's rows and deques, and its observer.
pub(crate) struct Threads {
    /// Worker 0's row and deque, resolved once at worker start: worker
    /// `w`'s are `w` further on.
    rows: *const Row,
    deques: *const NativeDeque<u64>,
    pool: StackPool,
    /// The worker's observer, on an observed run: the one flag every
    /// per-task hook tests.
    observe: Option<Box<Observer>>,
    /// Keeps the rows, the deques and the shutdown word alive.
    shared: Arc<Shared>,
}

impl Threads {
    fn new(shared: Arc<Shared>, stack_size: usize, observe: Option<Box<Observer>>) -> Self {
        Threads {
            rows: shared.rows.as_ptr(),
            deques: shared.deques.as_ptr(),
            pool: StackPool::new(stack_size),
            observe,
            shared,
        }
    }
}

impl Place for Threads {
    const KIND: u8 = 1;
    type Stack = Stack;
    type Store = Owned<u64>;

    #[inline]
    fn take_stack(&mut self) -> (Stack, (usize, usize)) {
        let s = self.pool.take();
        let span = (s.top() as usize, s.limit() as usize);
        (s, span)
    }

    #[inline]
    fn retire_stack(&mut self, s: Stack) {
        self.pool.put(s);
    }

    #[inline]
    fn deque(&self, w: usize) -> impl Borrow<NativeDeque<u64>> + '_ {
        debug_assert!(w < self.shared.deques.len());
        // SAFETY: [I7] the worker body passes only `w < n` — its own id,
        // a victim `rng.below(n - 1)` shifted past itself, or a scan
        // index — and `launch` builds both banks, and every `Worker`'s
        // `n`, from `nworkers`; `shared` keeps the bank alive.
        unsafe { &*self.deques.add(w) }
    }

    #[inline]
    fn row(&self, w: usize) -> &Row {
        debug_assert!(w < self.shared.rows.len());
        // SAFETY: [I7] `w < n`, the bank's length, as in `deque`.
        unsafe { &*self.rows.add(w) }
    }

    fn shutdown(&self) -> &AtomicU32 {
        &self.shared.shutdown
    }

    /// By name: catchable for the root, an abort after the message in a
    /// task.
    fn refuse_frame(e: FrameTooLarge, s: Stack) -> ! {
        panic!(
            "uat-fiber: {e} ({}-byte task stack); raise `with_stack_size`",
            s.usable()
        )
    }

    fn task_panicked(payload: &(dyn Any + Send)) -> ! {
        // Mirror the paper's C++ runtime and die loudly.
        report_panic("uat-fiber: task panicked; aborting", payload);
        std::process::abort()
    }

    #[inline]
    fn record<'a>(&mut self, e: impl FnOnce() -> Event<'a>) {
        if let Some(o) = &mut self.observe {
            o.record(e());
        }
    }

    /// Observed runs take the phase-stamped steal so lock and entry time
    /// land in the right trace buckets and the latency histogram.
    fn clock(&self) -> Option<RunClock> {
        self.observe.as_ref().map(|o| o.clock())
    }

    #[inline]
    fn on_spawn(&mut self) -> u64 {
        match &mut self.observe {
            Some(o) => o.on_spawn(),
            None => 0,
        }
    }

    #[inline]
    fn on_task_begin(&mut self, task: u64, _stack: &Stack) -> u64 {
        match &mut self.observe {
            Some(o) => o.on_task_begin(task),
            None => 0,
        }
    }
}

/// The id (0-based, `< nworkers`) of the worker executing the calling
/// fiber *right now*.
///
/// Routed through the never-inlined worker lookup, so the answer is
/// re-derived from TLS on whichever OS thread is actually executing —
/// calling this before and after a suspension point (`join`) observes
/// real fiber migration. The `tls_rederivation` regression test pins
/// exactly that; if this accessor ever returns a cached pre-suspension
/// worker, that test (and `uat-lint`'s tls rules) catch the regression.
///
/// Panics outside a worker thread.
pub fn current_worker_id() -> usize {
    // SAFETY: [I7] `current()` checked that this thread runs a thread
    // worker; the read of one immutable field ends before any switch.
    unsafe { (*current::<Threads>()).id }
}

/// Spawn a thread running `f`, child-first: `f` starts immediately on a
/// fresh stack and the *caller's* continuation becomes stealable
/// (Figure 4's semantics under the stack-pool strategy).
///
/// Must be called from inside [`Runtime::run`]. Panics if `f`'s captures
/// do not fit a quarter of the runtime's task stack size. Claims no
/// frame: the body starts right at the task's record.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let cell = Arc::new(JoinCell {
        block: JoinBlock::new(),
        result: UnsafeCell::new(None),
    });
    let task = JoinCell::task(Arc::clone(&cell), f);
    // SAFETY: [I8] the block lives in the `Arc` cell, and the child
    // returns its own reference to the cell as the keep-alive.
    unsafe { spawn_on::<Threads, _>(current::<Threads>(), &cell.block, 0, task) };
    JoinHandle { cell }
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to exit and take its result.
    pub fn join(self) -> T {
        join_all::<Threads>(current::<Threads>(), &self.cell.block);
        // SAFETY: [I8] `join_all` acquired the child's write, and
        // `join` consumes the only handle: no other reader.
        unsafe { (*self.cell.result.get()).take() }
            .expect("task stored its result before completing")
    }

    /// Whether the thread has exited (non-blocking `try_join`).
    pub fn is_done(&self) -> bool {
        self.cell.block.is_done()
    }
}

/// Entries in each worker's deque, on both runners.
pub(crate) const DEQUE_CAPACITY: usize = 8192;

/// Usable bytes of a task's stack on every runner not told otherwise
/// (`with_stack_size`): 128 KiB.
pub const DEFAULT_STACK_SIZE: usize = 128 << 10;

/// The multi-worker runtime.
#[derive(Clone, Debug)]
pub struct Runtime {
    pub(crate) nworkers: usize,
    stack_size: usize,
    /// Caller-supplied registry to record into; `None` = per-run owned.
    registry: Option<Arc<uat_metrics::Registry>>,
    /// Whether the timed metrics tier (histograms, flight rings) is on.
    metered: bool,
    /// Sampler tick; `None` with a watchdog set falls back to the
    /// default interval.
    sampler: Option<std::time::Duration>,
    watchdog: Option<crate::nmetrics::WatchdogCfg>,
    /// Watchdog-test sabotage: this worker never heartbeats.
    sabotage: Option<usize>,
}

/// What one run observes beyond its counter rows and the runtime's own
/// metrics configuration: the runner that starts the run says.
#[derive(Clone, Copy, Default)]
pub(crate) struct Observe {
    /// Trace the run, with rings of this many events per worker.
    pub(crate) trace: Option<usize>,
    /// Turn the timed metrics tier on, and snapshot the registry after.
    pub(crate) metrics: bool,
}

/// What an observed run hands back: each part [`Observe`] asked for.
pub(crate) struct Observed {
    pub(crate) trace: Option<NativeTrace>,
    pub(crate) metrics: Option<uat_metrics::Snapshot>,
}

impl Runtime {
    /// A runtime with `nworkers` OS-thread workers.
    pub fn new(nworkers: usize) -> Self {
        assert!(nworkers >= 1);
        Runtime {
            nworkers,
            stack_size: DEFAULT_STACK_SIZE,
            registry: None,
            metered: false,
            sampler: None,
            watchdog: None,
            sabotage: None,
        }
    }

    /// Override the per-task stack size (default [`DEFAULT_STACK_SIZE`]).
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Record subsequent runs into `registry` (built for at least this
    /// runtime's worker count) and turn on the timed metrics tier:
    /// steal-latency / task-run / park-duration histograms and the
    /// per-worker flight rings. Snapshot the registry after the run.
    pub fn with_metrics(mut self, registry: Arc<uat_metrics::Registry>) -> Self {
        self.registry = Some(registry);
        self.metered = true;
        self
    }

    /// Start a sampler thread on subsequent runs: every `interval` it
    /// samples each worker's deque depth into the registry (and drives
    /// the watchdog, if one is configured). Implies the timed tier.
    pub fn with_sampler(mut self, interval: std::time::Duration) -> Self {
        self.sampler = Some(interval);
        self.metered = true;
        self
    }

    /// Arm the stall watchdog on subsequent runs: if one worker's
    /// heartbeat epoch freezes for `cfg.stall_after` while the other
    /// workers keep advancing, dump a metrics snapshot plus every
    /// worker's flight ring and apply `cfg.action` (abort by default).
    /// Implies a sampler (at the default interval unless
    /// [`with_sampler`](Self::with_sampler) set one) and the timed tier.
    pub fn with_watchdog(mut self, cfg: crate::nmetrics::WatchdogCfg) -> Self {
        self.watchdog = Some(cfg);
        self.metered = true;
        self
    }

    /// Deliberately wedge worker `id` (it parks forever without
    /// heartbeating) so watchdog tests can exercise a stall on demand.
    /// Worker 0 seeds the root task and must stay live.
    #[doc(hidden)]
    pub fn with_stalled_worker(mut self, id: usize) -> Self {
        assert!(id != 0, "worker 0 seeds the root task; cannot stall it");
        assert!(id < self.nworkers);
        self.sabotage = Some(id);
        self
    }

    /// Run `root` to completion (including everything it spawned and
    /// joined) and return its result.
    pub fn run<T, F>(&self, root: F) -> T
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        // The result goes into a local of this frame: the launch returns
        // only once every task has ended.
        let (mut out, block) = (None, JoinBlock::new());
        let slot = &mut out;
        let body = move |_| {
            *slot = Some(root());
            (current::<Threads>(), ())
        };
        self.launch(body, &block, 0, &[], Observe::default());
        out.expect("the root set its result")
    }

    /// The one run path: start the root task's `body`, which reports to
    /// `block`, `frame` bytes below its record as `spawn_on` starts every
    /// other task's, observing what `observe` asks, and report the run
    /// with the caller's accounting `rows`. Returns, or fails, only once
    /// every worker thread has left, so `body` may point into the
    /// caller's frame.
    pub(crate) fn launch<B: Body<Threads> + Send>(
        &self,
        body: B,
        block: &JoinBlock,
        frame: u64,
        rows: &[AcctRow],
        observe: Observe,
    ) -> (NativeRunStats, Observed) {
        // A run that observes nothing builds none of this: no clock, no
        // tracer, no timed tier and no registry.
        let trace = observe.trace.map(TraceShared::new);
        let metrics = (self.metered || observe.metrics)
            .then(|| Arc::new(MetricsShared::new(self.nworkers, self.registry.clone())));
        let clock = (trace.is_some() || metrics.is_some()).then(RunClock::start);
        // The root is an ordinary task record on an ordinary stack, with
        // no continuation to publish; it reports to the caller's block,
        // like a public `spawn` whose spawner was stolen — no exit pop
        // can resume a caller, so it is counted.
        block.announce();
        let root_task = trace.as_ref().map_or(0, |t| t.alloc_task());
        let stack = Stack::new(self.stack_size);
        let at = (stack.top() as usize, stack.limit() as usize);
        let seed = place_record::<Threads, _>(stack, at, block, root_task, frame, body)
            .unwrap_or_else(|(e, s)| Threads::refuse_frame(e, s));
        let shared = Arc::new(Shared {
            deques: (0..self.nworkers)
                .map(|_| NativeDeque::new(DEQUE_CAPACITY))
                .collect(),
            rows: (0..self.nworkers).map(|_| Row::default()).collect(),
            shutdown: AtomicU32::new(0),
            seed_task: AtomicPtr::new(seed),
        });
        let t0 = std::time::Instant::now();
        // Worker 0, which starts the root, first: without it no task
        // runs; without a later one, those running finish the run.
        let mut refused = None;
        let handles: Vec<_> = (0..self.nworkers)
            .map_while(|id| {
                let shared = Arc::clone(&shared);
                let (trace, metrics) = (trace.clone(), metrics.clone());
                let (workers, stack_size) = (self.nworkers, self.stack_size);
                let stalled = self.sabotage == Some(id);
                std::thread::Builder::new()
                    .name(format!("uat-worker-{id}"))
                    .spawn(move || {
                        let root = (id == 0).then(|| shared.seed_task.load(Ordering::Acquire));
                        let observe =
                            clock.map(|clock| Box::new(Observer::new(clock, id, trace, metrics)));
                        let place = Threads::new(shared, stack_size, observe);
                        let mut worker = Worker::new(id, workers, place);
                        if stalled {
                            // Watchdog-test sabotage: stay alive (so the
                            // run is otherwise healthy) but never enter
                            // the scheduler loop, so this worker's
                            // heartbeat stays frozen while the others
                            // advance.
                            let shutdown = &worker.place.shared.shutdown;
                            while shutdown.load(Ordering::Acquire) == 0 {
                                std::thread::sleep(std::time::Duration::from_millis(2));
                            }
                        } else {
                            // Worker 0 seeds the root task.
                            worker_loop(&mut worker, root);
                        }
                        // Close this worker's timeline, on a traced run,
                        // and hand it back.
                        worker.place.observe.and_then(|o| o.finish())
                    })
                    .map_err(|e| match id {
                        0 => panic!("spawn worker thread: {e}"),
                        _ => refused = Some(e),
                    })
                    .ok()
            })
            .collect();

        // Sampler/watchdog thread, when configured (either meters the
        // run): deque-depth samples every tick, heartbeat stall
        // detection when armed. Its stop flag is the run's shutdown
        // word: workers stop heartbeating once they see it, and the
        // watchdog must never mistake an orderly exit for a stall.
        let sampling = self.sampler.is_some() || self.watchdog.is_some();
        let sampler = metrics.as_ref().filter(|_| sampling).map(|metrics| {
            let (shared, metrics) = (Arc::clone(&shared), Arc::clone(metrics));
            let interval = self
                .sampler
                .unwrap_or(crate::nmetrics::DEFAULT_SAMPLE_INTERVAL);
            let watchdog = self.watchdog.clone();
            std::thread::Builder::new()
                .name("uat-sampler".into())
                .spawn(move || {
                    crate::nmetrics::sampler_loop(
                        &metrics,
                        &shared.deques,
                        &shared.rows,
                        &shared.shutdown,
                        interval,
                        watchdog.as_ref(),
                    );
                })
        });

        // Nothing to decide here: the workers leave once one of them
        // has seen the whole task tree complete (the root, everything
        // it joined and every detached straggler), and this thread
        // sleeps in `join` until they have — every one of them, before
        // any failure goes up.
        let ended: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        let wall = t0.elapsed();
        let sampled = sampler.map(|s| s.map(|h| h.join()));
        if let Some(e) = refused {
            panic!("spawn worker thread: {e}");
        }
        let timelines: Vec<_> = ended
            .into_iter()
            .filter_map(|t| t.expect("worker thread"))
            .collect();
        if let Some(s) = sampled {
            s.expect("spawn sampler thread").expect("sampler thread");
        }
        debug_assert!(block.is_done());
        // Every worker has left: the rows are final, and on a traced run
        // every timeline is closed. Report the rows in the registry, and
        // the trace's drop counts beside them.
        let trace = trace
            .and(clock)
            .map(|clock| crate::ntrace::finalize(clock, timelines));
        let trace_dropped = trace.as_ref().map_or(0, |t| {
            t.data.workers.iter().map(|ring| ring.dropped()).sum()
        });
        if let Some(m) = &metrics {
            m.deposit(&shared.rows);
            if let Some(t) = &trace {
                let dropped = m.registry.counter(
                    uat_metrics::names::TRACE_DROPPED,
                    "Trace events evicted from full per-worker rings",
                );
                for (i, ring) in t.data.workers.iter().enumerate() {
                    dropped.add(i, ring.dropped());
                }
            }
        }
        let count = |w: usize, c: usize| shared.rows[w][c].load(Ordering::Relaxed);
        let stats = NativeRunStats {
            backend: "Native",
            trace_dropped,
            wall,
            ..NativeRunStats::tally(self.nworkers, count, rows)
        };
        let observed = Observed {
            trace,
            metrics: metrics
                .filter(|_| observe.metrics)
                .map(|m| m.registry.snapshot()),
        };
        (stats, observed)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sched::TaskRecord;
    use std::cell::Cell;
    use std::sync::atomic::AtomicBool;

    thread_local!(static ENTERED: Cell<u64> = const { Cell::new(0) });

    /// [`Runtime::run`] on `rt`, the root's body started `frame` bytes
    /// below its record, observing what `observe` asks.
    fn run_as<T: Send>(
        rt: &Runtime,
        frame: u64,
        observe: Observe,
        root: impl FnOnce() -> T + Send,
    ) -> T {
        let (mut out, block) = (None, JoinBlock::new());
        let slot = &mut out;
        let body = move |_| {
            *slot = Some(root());
            (current::<Threads>(), ())
        };
        rt.launch(body, &block, frame, &[], observe);
        out.expect("the root set its result")
    }

    /// Count one entry into an observer past the place's flag.
    pub(crate) fn entered() {
        ENTERED.with(|n| n.set(n.get() + 1));
    }

    /// The observer entries this thread has made.
    #[inline(never)]
    pub(crate) fn hooks() -> u64 {
        ENTERED.with(Cell::get)
    }

    /// A run starts a clock only if it observes, and builds the timed
    /// tier only if it meters: a plain run builds neither. Both are
    /// built on the calling thread, which counts them.
    #[test]
    fn an_unobserved_run_builds_no_clock_and_no_timed_tier() {
        let registry = || Arc::new(uat_metrics::Registry::new(2));
        let built = || (crate::tsc::tests::clocks(), crate::nmetrics::tests::tiers());
        let traced = |metrics| Observe {
            trace: Some(64),
            metrics,
        };
        for (rt, observe, clocks_tiers) in [
            (Runtime::new(2), Observe::default(), (0, 0)),
            (Runtime::new(2), traced(false), (1, 0)),
            (Runtime::new(2), traced(true), (1, 1)),
            (
                Runtime::new(2).with_metrics(registry()),
                Observe::default(),
                (1, 1),
            ),
        ] {
            let before = built();
            assert_eq!(run_as(&rt, 0, observe, || fib(12)), 144);
            let after = built();
            assert_eq!((after.0 - before.0, after.1 - before.1), clocks_tiers);
        }
    }

    #[test]
    fn root_only() {
        let rt = Runtime::new(1);
        let out = rt.run(|| 40 + 2);
        assert_eq!(out, 42);
    }

    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let a = spawn(move || fib(n - 1));
        let b = fib(n - 2);
        a.join() + b
    }

    #[test]
    fn spawn_join_single_worker() {
        let rt = Runtime::new(1);
        let out = rt.run(|| {
            let a = spawn(|| 10);
            let b = spawn(|| 20);
            // Nobody stole the caller: each child returned into it done.
            assert!(a.is_done() && b.is_done());
            a.join() + b.join() + 12
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn nested_fib_single_worker() {
        let rt = Runtime::new(1);
        assert_eq!(rt.run(|| fib(15)), 610);
    }

    /// [I21]: a child nobody stole completes by returning — neither it
    /// nor its spawner touches the join block. Only the root is counted
    /// (no exit pop can resume its caller): its `announce` here, its
    /// `complete` on the worker, after the body measured below.
    #[test]
    fn an_unstolen_child_never_touches_a_join_block() {
        let before = crate::join::rmws();
        let (out, rmws) = Runtime::new(1).run(|| {
            let t0 = crate::join::rmws();
            (fib(15), crate::join::rmws() - t0)
        });
        assert_eq!(out, 610);
        assert_eq!(rmws, 0, "join-block RMWs across fib(15)'s 986 spawns");
        assert_eq!(crate::join::rmws() - before, 1, "the root's announce");
    }

    #[test]
    fn fib_multi_worker() {
        let rt = Runtime::new(3);
        assert_eq!(rt.run(|| fib(18)), 2584);
    }

    #[test]
    fn stealing_actually_happens() {
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let seen: Arc<StdMutex<HashSet<std::thread::ThreadId>>> =
            Arc::new(StdMutex::new(HashSet::new()));
        let seen2 = Arc::clone(&seen);
        let rt = Runtime::new(4);
        rt.run(move || {
            fn tree(d: u32, seen: &Arc<StdMutex<HashSet<std::thread::ThreadId>>>) {
                seen.lock().unwrap().insert(std::thread::current().id());
                if d == 0 {
                    // Enough work that thieves get a window. The yield
                    // matters on single-CPU hosts, where a thief can
                    // only run if the OS preempts or is handed the CPU.
                    let mut x = 0u64;
                    for i in 0..20_000u64 {
                        x = x.wrapping_add(std::hint::black_box(i));
                    }
                    std::hint::black_box(x);
                    std::thread::yield_now();
                    return;
                }
                let s1 = seen.clone();
                let a = spawn(move || tree(d - 1, &s1));
                tree(d - 1, seen);
                a.join();
            }
            tree(7, &seen2);
        });
        let n = seen.lock().unwrap().len();
        assert!(n >= 2, "work never spread beyond one worker (saw {n})");
    }

    #[test]
    fn join_returns_moved_values() {
        let rt = Runtime::new(2);
        let out = rt.run(|| {
            let h = spawn(|| vec![1u32, 2, 3]);
            let mut v = h.join();
            v.push(4);
            v
        });
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn run_waits_for_a_detached_child() {
        // The root drops its child's handle unjoined and returns; `run`
        // must neither return before the child's side effect nor hang
        // on a spawned/completed count that a dropped handle upset.
        // With several workers the child holds on until a thief has
        // resumed the root and the root is on its way out, so the root
        // really does finish first; with one worker child-first order
        // finishes the child first.
        for workers in [1usize, 3] {
            let root_leaving = Arc::new(AtomicBool::new(false));
            let child_done = Arc::new(AtomicBool::new(false));
            let (leaving, done) = (Arc::clone(&root_leaving), Arc::clone(&child_done));
            Runtime::new(workers).run(move || {
                let leaving2 = Arc::clone(&leaving);
                drop(spawn(move || {
                    if workers > 1 {
                        while !leaving2.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                    // Outlast many of the idle workers' scan-and-nap rounds.
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < std::time::Duration::from_millis(2) {
                        std::hint::spin_loop();
                    }
                    done.store(true, Ordering::Release);
                }));
                leaving.store(true, Ordering::Release);
            });
            assert!(
                child_done.load(Ordering::Acquire),
                "run returned before the detached child finished (workers={workers})"
            );
        }
    }

    #[test]
    fn oversized_closure_is_refused_naming_both_sizes() {
        // 32 KiB of captures cannot go on a 16 KiB stack. The root goes
        // through the same `place_record` as every spawn, and its check
        // runs on the calling thread, where a panic can be caught (in a
        // task it aborts the process, after the same message).
        let big = [7u8; 32 << 10];
        let err = std::panic::catch_unwind(move || {
            Runtime::new(1)
                .with_stack_size(16 << 10)
                .run(move || big.iter().map(|&b| b as u64).sum::<u64>())
        })
        .expect_err("a 32 KiB closure cannot fit a 16 KiB stack");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        let closure = std::mem::size_of::<[u8; 32 << 10]>() + std::mem::size_of::<usize>();
        assert!(msg.contains(&format!("{closure}-byte closure")), "{msg}");
        assert!(msg.contains("1/4 of the 16384-byte task stack"), "{msg}");
    }

    #[test]
    fn oversized_frame_is_refused_naming_frame_and_stack() {
        // The root's claim is checked by the same `place_record` as
        // every spawn's, on the calling thread (in a task the panic
        // aborts the process, after the same message).
        let rt = Runtime::new(1).with_stack_size(16 << 10);
        let run = |frame| run_as(&rt, frame, Observe::default(), || 7);
        assert_eq!(run(12 << 10), 7);
        let err = std::panic::catch_unwind(|| run(16 << 10))
            .expect_err("a 16 KiB frame cannot fit below the record on a 16 KiB stack");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("a task frame of 16384 bytes"), "{msg}");
        assert!(msg.contains("(16384-byte task stack)"), "{msg}");
    }

    /// Where `place_record` puts an `F` task's record on a stack whose
    /// top is `top`.
    fn record_at<F>(top: usize, _f: &F) -> usize {
        let align = std::mem::align_of::<TaskRecord<Stack, F>>().max(16);
        (top - std::mem::size_of::<TaskRecord<Stack, F>>()) & !(align - 1)
    }

    #[test]
    fn a_task_body_starts_below_its_frame_claim() {
        use std::sync::atomic::AtomicUsize;
        fn addr_of_a_local() -> usize {
            let local = 0u8;
            std::hint::black_box(&local) as *const u8 as usize
        }
        for frame in [0u64, 1, 1_120, 3 * 4096] {
            let root = move || {
                let root_local = addr_of_a_local();
                // One worker, a LIFO pool: the next spawn runs on the
                // stack put back last.
                // SAFETY: [I7] exclusive worker access; scoped borrow.
                let (top, root_rec) = unsafe {
                    let place = &mut (*current::<Threads>()).place;
                    let stack = place.pool.take();
                    let top = stack.top() as usize;
                    place.pool.put(stack);
                    (top, place.shared.seed_task.load(Ordering::Relaxed) as usize)
                };
                let jb = JoinBlock::new();
                let seen = AtomicUsize::new(0);
                let body = |w| (w, seen.store(addr_of_a_local(), Ordering::Relaxed));
                let rec = record_at(top, &body);
                // SAFETY: [I16] `jb` and `seen` are locals of this
                // frame, which joins the child before it ends.
                let w = unsafe { spawn_on::<Threads, _>(current(), &jb, frame, body) };
                join_all::<Threads>(w, &jb);
                (root_local, root_rec, seen.load(Ordering::Relaxed), rec)
            };
            let (root_local, root_rec, child_local, child_rec) =
                run_as(&Runtime::new(1), frame, Observe::default(), root);
            for (who, local, rec) in [
                ("root", root_local, root_rec),
                ("child", child_local, child_rec),
            ] {
                let below = rec - local;
                assert!(
                    below as u64 >= frame,
                    "{who}: a local {below} bytes below the record, frame {frame}"
                );
                // Claimed by arithmetic, not by the page: what is below
                // the frame is the body's own few call frames.
                assert!(
                    below as u64 <= frame + 4096,
                    "{who}: a local {below} bytes below the record, frame {frame}"
                );
            }
        }
    }

    #[test]
    fn closure_within_the_record_limit_runs() {
        // 2 KiB of captures is well under a quarter of a 64 KiB stack
        // (and leaves an unoptimised build room for its by-value moves).
        let rt = Runtime::new(2).with_stack_size(64 << 10);
        let big = [3u8; 2 << 10];
        let out = rt.run(move || {
            let h = spawn(move || big.iter().map(|&b| b as u64).sum::<u64>());
            h.join() + big[0] as u64
        });
        assert_eq!(out, 3 * (2 << 10) + 3);
    }

    #[test]
    fn zero_sized_closure_and_result() {
        let rt = Runtime::new(2);
        rt.run(|| {
            let handles: Vec<JoinHandle<()>> = (0..100).map(|_| spawn(|| ())).collect();
            for h in handles {
                h.join();
            }
            let h = spawn(|| ());
            while !h.is_done() {
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn many_sequential_spawns_recycle_stacks() {
        let rt = Runtime::new(1);
        let out = rt.run(|| {
            let mut acc = 0u64;
            for i in 0..2_000u64 {
                acc += spawn(move || i).join();
            }
            acc
        });
        assert_eq!(out, 1999 * 2000 / 2);
    }

    #[test]
    fn deep_spawn_chain() {
        // Each level spawns one child and joins it: exercises suspended
        // joins stacking up on the wait path.
        fn chain(d: u64) -> u64 {
            if d == 0 {
                return 0;
            }
            spawn(move || chain(d - 1)).join() + 1
        }
        let rt = Runtime::new(2);
        assert_eq!(rt.run(|| chain(500)), 500);
    }
}
