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
//! `StackPool`, the run's `NativeDeque`s and termination cells, and the
//! tracer and metrics hooks), how its workers come to exist
//! (`thread::spawn`), and the public API on top: [`spawn`],
//! [`JoinHandle`] and [`Runtime`].
//!
//! Nobody polls for the end of a run: the first worker whose
//! termination scan passes raises the shutdown word, and the thread that
//! called [`Runtime::run`] sleeps in the workers' `join`s from the
//! moment it has spawned them (`idle.rs`).

use crate::frame::FrameTooLarge;
use crate::interp::NativeRunStats;
use crate::join::JoinBlock;
use crate::nmetrics::{MetricsShared, WorkerMetrics};
use crate::ntrace::{TraceShared, WorkerTracer};
use crate::sched::{
    current, join_all, place_record, spawn_on, worker_loop, Event, Place, TaskHeader, Worker,
};
use crate::stack::{Stack, StackPool};
use crate::tsc::RunClock;
use std::borrow::Borrow;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use uat_deque::native::Owned;
use uat_deque::NativeDeque;

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
// stolen, program order on one worker if the child resumed it [I21],
// or the termination scan's, for the root. `T: Send`: the value
// changes threads.
unsafe impl<T: Send> Sync for JoinCell<T> {}

impl<T> JoinCell<T> {
    fn new() -> Arc<Self> {
        Arc::new(JoinCell {
            block: JoinBlock::new(),
            result: UnsafeCell::new(None),
        })
    }

    /// The body of a task that reports to `cell`: store what `f`
    /// returns and hand the cell back as the task's keep-alive [I18].
    fn task<F: FnOnce() -> T>(cell: Arc<Self>, f: F) -> impl FnOnce() -> Arc<Self> {
        move || {
            let out = f();
            // SAFETY: [I8] the slot's only write (see `Sync` above).
            unsafe { *cell.result.get() = Some(out) };
            cell
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

/// One worker's termination-detection cells, on a cache line only that
/// worker writes [I17]. Both are monotonic: `spawned` counts the
/// `spawn` calls made on this worker, `completed` the tasks that
/// *finished* here (a task may start on one worker and finish on
/// another). The root is spawned by nobody: it is the scan's `1 +`.
#[derive(Default)]
#[repr(align(64))]
struct Progress {
    spawned: AtomicU64,
    completed: AtomicU64,
}

struct Shared {
    deques: Vec<Arc<NativeDeque<u64>>>,
    /// Raised by the first idle worker whose termination scan passes;
    /// every worker loop, and the sampler, leaves when it reads it.
    shutdown: AtomicU32,
    progress: Box<[Progress]>,
    /// Run-wide metrics state: sharded scheduler counters (steals,
    /// parks, heartbeats, …), tail-latency histograms, and the flight
    /// rings. With the `metrics` feature off this degrades to the three
    /// plain atomics the run's stats need.
    metrics: Arc<MetricsShared>,
    /// The root's task record, started (once) by worker 0; from then on
    /// only an address.
    seed_task: AtomicPtr<TaskHeader<Stack>>,
    /// Run-wide trace state; `None` = untraced (hooks early-out).
    trace: Option<Arc<TraceShared>>,
}

/// The thread backend's [`Place`]: one worker thread's stack pool and
/// hooks, beside the run's shared state.
pub(crate) struct Threads {
    shared: Arc<Shared>,
    pool: StackPool,
    trace: WorkerTracer,
    metrics: WorkerMetrics,
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
        &*self.shared.deques[w]
    }

    #[inline]
    fn progress(&self, w: usize) -> (&AtomicU64, &AtomicU64) {
        let p = &self.shared.progress[w];
        (&p.spawned, &p.completed)
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

    fn task_panicked() -> ! {
        // Mirror the paper's C++ runtime and die loudly.
        eprintln!("uat-fiber: task panicked; aborting");
        std::process::abort()
    }

    #[inline]
    fn record(&mut self, e: Event<'_>) {
        let (t, m) = (&mut self.trace, &mut self.metrics);
        match e {
            Event::Loop => m.on_loop(),
            Event::Steal(victim, got, Some(ph)) => {
                t.on_steal_attempt(victim, got, &ph);
                m.on_steal_phased(victim, got.is_some(), &ph);
            }
            Event::Steal(_, got, None) => m.on_steal_untimed(got.is_some()),
            Event::Park => {
                t.on_park();
                m.on_park();
            }
            Event::Unpark => {
                t.on_unpark();
                m.on_unpark();
            }
            Event::TaskEnd { task, born } => {
                t.on_task_end(task, born[0]);
                m.on_task_end(born[1]);
            }
            // The rest only names trace events.
            _ if !t.enabled() => {}
            Event::Idle => t.on_idle(),
            // Registered *before* the push makes it stealable, so a
            // thief's commit always finds the publication; the current
            // task is still the parent.
            Event::Publish(ctx) => {
                let parent = t.cur_task();
                t.on_publish(ctx, parent);
            }
            Event::LocalPop(ctx) => t.on_local_pop(ctx),
            // The join edge: the waiter becomes the current task as if
            // it had been pushed and popped back.
            Event::JoinReady(jb, child, waiter) => {
                let parent = jb.waiter_task.load(Ordering::Relaxed);
                jb.enabler.store(child, Ordering::Relaxed);
                t.on_join_ready(parent);
                t.on_publish(waiter, parent);
                t.on_local_pop(waiter);
            }
            // Charged to the suspend bucket; who parks is recorded
            // *before* `park` can expose the slot to the last child,
            // which reads it to name `JoinReady`.
            Event::Suspend(jb) => {
                t.on_suspend();
                jb.waiter_task.store(t.cur_task(), Ordering::Relaxed);
            }
            // The resume edge, if the join parked (the enabling child
            // recorded itself; taken, so the block's next join starts
            // clean); otherwise the work slice just reopens.
            Event::Resumed(Some(jb)) => match jb.enabler.swap(0, Ordering::Relaxed) {
                0 => t.on_resumed(),
                child => t.on_join_resume(child),
            },
            Event::Resumed(None) => t.on_resumed(),
            // Deposit this worker's timeline.
            Event::Exit => t.finish(),
        }
    }

    /// Traced and metered runs take the phase-stamped steal so lock and
    /// entry time land in the right buckets and the latency histogram.
    fn clock(&self) -> Option<RunClock> {
        self.trace.clock().or_else(|| self.metrics.clock())
    }

    /// Close the parent's Work slice, open Spawn, allocate and announce
    /// the child id.
    #[inline]
    fn on_spawn(&mut self) -> u64 {
        self.trace.on_spawn()
    }

    /// The begin stamps are `Copy` locals of the task, so they survive
    /// its stack migrating between workers.
    #[inline]
    fn on_task_begin(&mut self, task: u64, _stack: &Stack) -> [u64; 2] {
        [self.trace.on_task_begin(task), self.metrics.on_task_begin()]
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
    let cell = JoinCell::new();
    let task = JoinCell::task(Arc::clone(&cell), f);
    // SAFETY: [I8] the block lives in the `Arc` cell, and the child
    // returns its own reference to the cell as the keep-alive.
    unsafe { spawn_on::<Threads, _, _>(&cell.block, 0, task) };
    JoinHandle { cell }
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to exit and take its result.
    pub fn join(self) -> T {
        join_all::<Threads>(&self.cell.block);
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

/// The multi-worker runtime.
#[derive(Clone, Debug)]
pub struct Runtime {
    pub(crate) nworkers: usize,
    stack_size: usize,
    /// The root task's frame claim (every other task's comes with its
    /// `spawn_on`).
    root_frame: u64,
    /// Per-worker event-ring capacity when tracing; `None` = untraced.
    trace_rings: Option<usize>,
    /// Caller-supplied registry to record into; `None` = per-run owned.
    #[cfg(feature = "metrics")]
    registry: Option<Arc<uat_metrics::Registry>>,
    /// Whether the timed metrics tier (histograms, flight rings) is on.
    #[cfg(feature = "metrics")]
    metered: bool,
    /// Sampler tick; `None` with a watchdog set falls back to the
    /// default interval.
    #[cfg(feature = "metrics")]
    sampler: Option<std::time::Duration>,
    #[cfg(feature = "metrics")]
    watchdog: Option<crate::nmetrics::WatchdogCfg>,
    /// Watchdog-test sabotage: this worker never heartbeats.
    #[cfg(feature = "metrics")]
    sabotage: Option<usize>,
}

impl Runtime {
    /// A runtime with `nworkers` OS-thread workers.
    pub fn new(nworkers: usize) -> Self {
        assert!(nworkers >= 1);
        Runtime {
            nworkers,
            stack_size: 128 << 10,
            root_frame: 0,
            trace_rings: None,
            #[cfg(feature = "metrics")]
            registry: None,
            #[cfg(feature = "metrics")]
            metered: false,
            #[cfg(feature = "metrics")]
            sampler: None,
            #[cfg(feature = "metrics")]
            watchdog: None,
            #[cfg(feature = "metrics")]
            sabotage: None,
        }
    }

    /// Override the per-task stack size (default 128 KiB).
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Start the root task of subsequent runs `bytes` below its record,
    /// as `spawn_on` does for every other task.
    pub(crate) fn with_root_frame(mut self, bytes: u64) -> Self {
        self.root_frame = bytes;
        self
    }

    /// Trace subsequent runs with `ring_capacity`-event per-worker
    /// rings; collect results with [`run_traced`](Self::run_traced).
    #[cfg(feature = "trace")]
    pub fn with_tracing(mut self, ring_capacity: usize) -> Self {
        self.trace_rings = Some(ring_capacity);
        self
    }

    /// Record subsequent runs into `registry` (built for at least this
    /// runtime's worker count) and turn on the timed metrics tier:
    /// steal-latency / task-run / park-duration histograms and the
    /// per-worker flight rings. Snapshot the registry after the run.
    #[cfg(feature = "metrics")]
    pub fn with_metrics(mut self, registry: Arc<uat_metrics::Registry>) -> Self {
        self.registry = Some(registry);
        self.metered = true;
        self
    }

    /// Start a sampler thread on subsequent runs: every `interval` it
    /// samples each worker's deque depth into the registry (and drives
    /// the watchdog, if one is configured). Implies the timed tier.
    #[cfg(feature = "metrics")]
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
    #[cfg(feature = "metrics")]
    pub fn with_watchdog(mut self, cfg: crate::nmetrics::WatchdogCfg) -> Self {
        self.watchdog = Some(cfg);
        self.metered = true;
        self
    }

    /// Deliberately wedge worker `id` (it parks forever without
    /// heartbeating) so watchdog tests can exercise a stall on demand.
    /// Worker 0 seeds the root task and must stay live.
    #[doc(hidden)]
    #[cfg(feature = "metrics")]
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
        self.run_counted(root).0
    }

    /// Like [`run`](Self::run), additionally reporting the run's
    /// scheduler fields — `workers`, `steals`, `parks`, `unparks` and
    /// `wall` — in a [`NativeRunStats`] (the native workload
    /// interpreter adds its accounting to them).
    pub fn run_counted<T, F>(&self, root: F) -> (T, NativeRunStats)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (out, sched, _shared) = self.run_core(root);
        (out, sched)
    }

    /// Like [`run_counted`](Self::run_counted) with tracing forced on
    /// (at the configured or default ring capacity), additionally
    /// returning the finalized per-worker trace.
    #[cfg(feature = "trace")]
    pub fn run_traced<T, F>(&self, root: F) -> (T, NativeRunStats, crate::ntrace::NativeTrace)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let mut rt = self.clone();
        rt.trace_rings = Some(
            self.trace_rings
                .unwrap_or(crate::ntrace::DEFAULT_RING_CAPACITY),
        );
        let (out, sched, shared) = rt.run_core(root);
        let trace = crate::ntrace::finalize(shared.trace.as_ref().expect("tracing enabled"));
        (out, sched, trace)
    }

    /// Like [`run_counted`](Self::run_counted) with the timed metrics
    /// tier forced on (into the configured registry, or a fresh one),
    /// additionally returning the run's metrics snapshot.
    #[cfg(feature = "metrics")]
    pub fn run_metered<T, F>(&self, root: F) -> (T, NativeRunStats, uat_metrics::Snapshot)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let mut rt = self.clone();
        rt.metered = true;
        if rt.registry.is_none() {
            rt.registry = Some(Arc::new(uat_metrics::Registry::new(self.nworkers)));
        }
        let (out, sched, shared) = rt.run_core(root);
        let snapshot = shared.metrics.registry.snapshot();
        (out, sched, snapshot)
    }

    fn run_core<T, F>(&self, root: F) -> (T, NativeRunStats, Arc<Shared>)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let trace = self
            .trace_rings
            .map(|cap| TraceShared::new(self.nworkers, cap));
        #[cfg(feature = "metrics")]
        let metrics = Arc::new(MetricsShared::new(
            self.nworkers,
            self.registry.clone(),
            self.metered,
            self.sabotage,
        ));
        #[cfg(not(feature = "metrics"))]
        let metrics = Arc::new(MetricsShared::new());
        // The root is an ordinary task record on an ordinary stack, with
        // no continuation to publish; it reports to a cell this frame
        // keeps a handle on, like a public `spawn` whose spawner was
        // stolen — no exit pop can resume a caller, so it is counted.
        let cell = JoinCell::new();
        cell.block.announce();
        let root_task = trace.as_ref().map_or(0, |t| t.alloc_task());
        let stack = Stack::new(self.stack_size);
        let at = (stack.top() as usize, stack.limit() as usize);
        let task = JoinCell::task(Arc::clone(&cell), root);
        let seed =
            place_record::<Threads, _, _>(stack, at, &cell.block, root_task, self.root_frame, task)
                .unwrap_or_else(|(e, s)| Threads::refuse_frame(e, s));
        let shared = Arc::new(Shared {
            deques: (0..self.nworkers)
                .map(|_| Arc::new(NativeDeque::new(8192)))
                .collect(),
            shutdown: AtomicU32::new(0),
            progress: (0..self.nworkers).map(|_| Progress::default()).collect(),
            metrics,
            seed_task: AtomicPtr::new(seed),
            trace,
        });
        let t0 = std::time::Instant::now();
        let handles: Vec<_> = (0..self.nworkers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                let (workers, stack_size) = (self.nworkers, self.stack_size);
                std::thread::Builder::new()
                    .name(format!("uat-worker-{id}"))
                    .spawn(move || {
                        let root = (id == 0).then(|| shared.seed_task.load(Ordering::Acquire));
                        let place = Threads {
                            pool: StackPool::new(stack_size),
                            trace: WorkerTracer::new(shared.trace.as_ref(), id),
                            metrics: WorkerMetrics::new(&shared.metrics, id),
                            shared,
                        };
                        let mut worker = Worker::new(id, workers, place);
                        // Watchdog-test sabotage: stay alive (so the run
                        // is otherwise healthy) but never enter the
                        // scheduler loop, so this worker's heartbeat
                        // epoch stays frozen while the others advance.
                        let shared = &worker.place.shared;
                        if shared.metrics.is_sabotaged(id) {
                            while shared.shutdown.load(Ordering::Acquire) == 0 {
                                std::thread::sleep(std::time::Duration::from_millis(2));
                            }
                            worker.place.record(Event::Exit);
                            return;
                        }
                        // Worker 0 seeds the root task.
                        worker_loop(&mut worker, root);
                    })
                    .expect("spawn worker thread")
            })
            .collect();

        // Sampler/watchdog thread, when configured: deque-depth samples
        // every tick, heartbeat stall detection when armed. Its stop
        // flag is the run's shutdown word: workers stop heartbeating
        // once they see it, and the watchdog must never mistake an
        // orderly exit for a stall.
        #[cfg(feature = "metrics")]
        let sampler = (self.sampler.is_some() || self.watchdog.is_some()).then(|| {
            let shared = Arc::clone(&shared);
            let interval = self
                .sampler
                .unwrap_or(crate::nmetrics::DEFAULT_SAMPLE_INTERVAL);
            let watchdog = self.watchdog.clone();
            std::thread::Builder::new()
                .name("uat-sampler".into())
                .spawn(move || {
                    crate::nmetrics::sampler_loop(
                        &shared.metrics,
                        &shared.deques,
                        &shared.shutdown,
                        interval,
                        watchdog.as_ref(),
                    );
                })
                .expect("spawn sampler thread")
        });

        // Nothing to decide here: the workers leave once one of them
        // has seen the whole task tree complete (the root, everything
        // it joined and every detached straggler), and this thread
        // sleeps in `join` until they have.
        for h in handles {
            h.join().expect("worker thread");
        }
        let wall = t0.elapsed();
        debug_assert!(cell.block.is_done());
        #[cfg(feature = "metrics")]
        if let Some(handle) = sampler {
            handle.join().expect("sampler thread");
        }
        // Every worker has deposited its ring; surface the drop counts
        // in the registry alongside the scheduler counters.
        #[cfg(all(feature = "trace", feature = "metrics"))]
        if let Some(t) = shared.trace.as_ref() {
            for (i, dropped) in t.dropped_per_worker().into_iter().enumerate() {
                if dropped > 0 {
                    shared.metrics.trace_dropped.add(i, dropped);
                }
            }
        }
        // The root dropped its reference before its completion tick, which
        // the scan that ended the run acquired, on a worker joined above:
        // ours is the last one.
        let out = Arc::into_inner(cell)
            .expect("the root task released its cell")
            .result
            .into_inner()
            .expect("root set its result");
        let stats = NativeRunStats {
            workers: self.nworkers as u32,
            steals: shared.metrics.steals_total(),
            parks: shared.metrics.parks_total(),
            unparks: shared.metrics.unparks_total(),
            wall,
            ..NativeRunStats::default()
        };
        (out, stats, shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::TaskRecord;
    use std::sync::atomic::AtomicBool;

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
        assert_eq!(rt.clone().with_root_frame(12 << 10).run(|| 7), 7);
        let err = std::panic::catch_unwind(move || rt.with_root_frame(16 << 10).run(|| 7))
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
            let rt = Runtime::new(1).with_root_frame(frame);
            let ((root_local, child_local, child_rec), _, shared) = rt.run_core(move || {
                let root_local = addr_of_a_local();
                // One worker, a LIFO pool: the next spawn runs on the
                // stack put back last.
                // SAFETY: [I7] exclusive worker access; scoped borrow.
                let top = unsafe {
                    let pool = &mut (*current::<Threads>()).place.pool;
                    let stack = pool.take();
                    let top = stack.top() as usize;
                    pool.put(stack);
                    top
                };
                let jb = JoinBlock::new();
                let seen = AtomicUsize::new(0);
                let body = || seen.store(addr_of_a_local(), Ordering::Relaxed);
                let rec = record_at(top, &body);
                // SAFETY: [I16] `jb` and `seen` are locals of this
                // frame, which joins the child before it ends.
                unsafe { spawn_on::<Threads, _, _>(&jb, frame, body) };
                join_all::<Threads>(&jb);
                (root_local, seen.load(Ordering::Relaxed), rec)
            });
            let root_rec = shared.seed_task.load(Ordering::Relaxed) as usize;
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
