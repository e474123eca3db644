//! A native work-stealing fiber runtime.
//!
//! This is the shared-memory degenerate case of the paper's runtime
//! (Section 2: "In shared memory environment, migrating a task in the
//! middle of its execution can be done simply by passing the address of
//! the stack"): workers are OS threads in one address space, every thread
//! (task) runs on its own pooled stack (the stack-pool strategy — the
//! same-stack Figure 4 layout is only sound across *separate* address
//! spaces, which is exactly the paper's observation), continuations are
//! [`Context`] records in the THE deques of `uat-deque`, and a steal is
//! a `resume_context` of somebody else's saved parent.
//!
//! The scheduler is the paper's: child-first on spawn, FIFO stealing,
//! the Figure 7 join loop (fast-path done-check, else suspend and find
//! other work).
//!
//! Control changes stacks in four places, through the two transfers of
//! [`ctx`](crate::ctx) — a spawn and the scheduler starting the root
//! (`switch_to_fresh`), a parking join and the scheduler resuming a
//! continuation (`switch_to`) — and a task leaves through an inlined
//! `resume_context`. Each transfer saves the caller's continuation into
//! a slot the caller names, so there is no code between the save and
//! the switch: a spawn nobody steals is one `call` and one `ret`.
//!
//! Nobody polls for the end of a run. A worker that has spun out and is
//! about to nap runs the termination scan over the per-worker
//! `spawned`/`completed` cells, and the first whose scan passes raises
//! the shutdown flag; the thread that called [`Runtime::run`] sleeps in
//! the workers' `join`s from the moment it has spawned them (the idle
//! policy, the scan and its proof: `idle.rs`, shared with the
//! multiprocess backend).
//!
//! # Safety model
//!
//! Control transfers never unwind (user closures are `catch_unwind`ed and
//! a panic aborts). A context is resumed exactly once: the deque hands an
//! entry to exactly one consumer (THE protocol), and a parked joiner is
//! claimed by exactly one side of the [`JoinBlock`] arbitration. A
//! task's stack is retired only
//! by its own completion and freed only after control has left it (the
//! `pending_retire` hand-off). A task's entry (`child_main`) diverges
//! with only `Copy` locals live, so no destructor is skipped.
//!
//! **Publication rule [I12]:** a saved continuation is made visible to
//! other workers (deque push or join park) only from a stack that
//! is *not* the continuation's own. The `Context` record lives on the
//! fiber's stack and a thief resumes it by setting `rsp = ctx` — from
//! that instant every frame below the record is dead memory the
//! resumed fiber will overwrite. So the saving routine writes the
//! continuation only to a private slot: a spawn's is the child's own
//! record, and the child publishes it from its fresh stack
//! (`child_main`); a parking join's is `pending_join`, and the
//! scheduler loop parks it from the worker's OS stack. Publishing
//! from the saving stack itself — the obvious Figure 4 reading — is a
//! stack-trample race that corrupts spilled locals under steal churn
//! (debug builds spill everything, making it a near-certain segfault).

use crate::ctx::{resume_context, switch_to, switch_to_fresh, Context};
use crate::frame;
use crate::idle::{self, Idle};
use crate::join::{JoinBlock, PendingJoin};
use crate::nmetrics::{MetricsShared, WorkerMetrics};
use crate::ntrace::{TraceShared, WorkerTracer};
use crate::stack::{Stack, StackPool};
use std::cell::{Cell, UnsafeCell};
use std::ffi::c_void;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;
use uat_base::SplitMix64;
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

/// Single-writer add on a per-worker cell: a plain load + store (no
/// `lock` prefix), sound because only the cell's owning worker ever
/// writes it — the idiom of `uat_metrics::Counter` [I17].
#[inline]
pub(crate) fn bump(cell: &AtomicU64, v: u64, order: Ordering) {
    cell.store(cell.load(Ordering::Relaxed).wrapping_add(v), order);
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
    /// Raised by the first idle worker whose termination scan passes
    /// ([`idle::quiescent`]); every worker loop, and the sampler, leaves
    /// when it reads it.
    shutdown: AtomicBool,
    progress: Box<[Progress]>,
    /// Run-wide metrics state: sharded scheduler counters (steals,
    /// parks, heartbeats, …), tail-latency histograms, and the flight
    /// rings. With the `metrics` feature off this degrades to the three
    /// plain atomics [`SchedStats`] needs.
    metrics: Arc<MetricsShared>,
    /// The root's task record, started (once) by worker 0; from then on
    /// only an address.
    seed_task: AtomicPtr<TaskHeader>,
    /// Run-wide trace state; `None` = untraced (hooks early-out).
    #[cfg(feature = "trace")]
    trace: Option<Arc<TraceShared>>,
}

impl Shared {
    #[inline]
    fn trace_shared(&self) -> Option<&Arc<TraceShared>> {
        #[cfg(feature = "trace")]
        {
            self.trace.as_ref()
        }
        #[cfg(not(feature = "trace"))]
        {
            None
        }
    }
}

struct Worker {
    id: usize,
    shared: Arc<Shared>,
    pool: StackPool,
    rng: SplitMix64,
    sched_ctx: *mut Context,
    pending_retire: Option<Stack>,
    /// A fiber that wants to park on a join hands it to its scheduler
    /// here; the scheduler calls `JoinBlock::park` from the OS stack per
    /// [I12].
    pending_join: PendingJoin,
    trace: WorkerTracer,
    metrics: WorkerMetrics,
}

thread_local! {
    static CURRENT: Cell<*mut Worker> = const { Cell::new(std::ptr::null_mut()) };
}

// `inline(never)` is load-bearing, not a perf tweak: fiber code calls
// `current()` on *both sides* of a context switch (e.g. before and after
// a task body that may suspend), and the resume can happen on a
// different OS thread. If both calls inline into one function, LLVM
// treats the thread-local's address as invariant across the opaque
// switch and CSEs the accesses, handing the resumed code the *previous*
// thread's Worker — stacks then retire into the wrong pool and the next
// resume jumps into reused memory. Keeping the TLS access inside a
// never-inlined callee forces a fresh lookup on the executing thread.
#[inline(never)]
fn current() -> *mut Worker {
    let w = CURRENT.with(|c| c.get());
    assert!(
        !w.is_null(),
        "fiber operation outside a uat-fiber worker thread"
    );
    w
}

/// The id (0-based, `< nworkers`) of the worker executing the calling
/// fiber *right now*.
///
/// Routed through the never-inlined [`current`] lookup above, so the
/// answer is re-derived from TLS on whichever OS thread is actually
/// executing — calling this before and after a suspension point
/// (`join`) observes real fiber migration. The
/// `tls_rederivation` regression test pins exactly that; if this
/// accessor ever returns a cached pre-suspension worker, that test (and
/// `uat-lint`'s tls rules) catch the regression.
///
/// Panics outside a worker thread.
pub fn current_worker_id() -> usize {
    let w = current();
    // SAFETY: [I7] `current()` returned non-null, so this thread is a
    // worker thread and `w` points at its live Worker; the shared borrow
    // reads one immutable field and ends before any switch.
    unsafe { (*w).id }
}

/// Free the stack retired by the previously completed thread, if any,
/// and return the worker control landed on. Must run at every point
/// control can land after a completion.
#[inline]
fn collect_retired() -> *mut Worker {
    let w = current();
    // SAFETY: [I7] only the owning OS thread touches its Worker, and no other
    // borrow is live across this call.
    let wr = unsafe { &mut *w };
    if let Some(s) = wr.pending_retire.take() {
        wr.pool.put(s);
    }
    w
}

/// A task's record may take at most 1/N of its stack.
const RECORD_STACK_DIVISOR: usize = 4;

/// The type-independent head of a task record [I18].
#[repr(C)]
struct TaskHeader {
    /// `child_main::<K, F>` for the record's own `F`: lets a spawner
    /// or the scheduler start a task without knowing its closure type.
    entry: unsafe extern "C" fn(*mut c_void) -> !,
    /// Where the body starts: the task's frame claim below this record,
    /// as [`frame::claim`] checked it against the stack [I19].
    sp: *mut u8,
    /// The spawner's saved continuation: the slot of the spawn's
    /// `switch_to_fresh`, written on the way into the child and
    /// published by `child_main` from the child's stack per [I12]. Null
    /// for the root.
    parent_ctx: *mut Context,
    /// The block the task reports its completion to.
    join: *const JoinBlock,
    /// Trace task id (0 when the run is untraced).
    task_id: u64,
    /// The stack this very record sits on; moved out only by the task's
    /// own completion, into `pending_retire`.
    stack: ManuallyDrop<Stack>,
}

/// Everything a task needs to start, written by its spawner at the top
/// of the task's own stack and read only by the task [I18].
#[repr(C)]
struct TaskRecord<F> {
    hdr: TaskHeader,
    f: ManuallyDrop<F>,
}

/// Write the record of a task running `f` at the top of `stack`; the
/// task starts with its stack pointer `frame` bytes below the record.
/// Panics, naming the sizes, if the record is over
/// `1/RECORD_STACK_DIVISOR` of the stack — the body would otherwise
/// start part-way to the guard page — or the frame does not fit the
/// rest of it.
fn place_record<K, F: FnOnce() -> K>(
    stack: Stack,
    join: *const JoinBlock,
    task_id: u64,
    frame: u64,
    f: F,
) -> *mut TaskHeader {
    let size = std::mem::size_of::<TaskRecord<F>>();
    let align = std::mem::align_of::<TaskRecord<F>>().max(16);
    assert!(
        size + align <= stack.usable() / RECORD_STACK_DIVISOR,
        "uat-fiber: a task record of {size} bytes ({}-byte closure + {}-byte header) exceeds \
         1/{RECORD_STACK_DIVISOR} of the {}-byte task stack; raise `with_stack_size` or box \
         the captured data",
        std::mem::size_of::<F>(),
        std::mem::size_of::<TaskHeader>(),
        stack.usable(),
    );
    let rec = ((stack.top() as usize - size) & !(align - 1)) as *mut TaskRecord<F>;
    let sp = frame::claim(rec as usize, stack.limit() as usize, frame).unwrap_or_else(|e| {
        panic!(
            "uat-fiber: {e} ({}-byte task stack); raise `with_stack_size`",
            stack.usable()
        )
    });
    // SAFETY: [I6][I18] `rec` is aligned and `[rec, rec + size)` is
    // inside the usable span (checked above) of a stack nothing runs on.
    unsafe {
        rec.write(TaskRecord {
            hdr: TaskHeader {
                entry: child_main::<K, F>,
                sp: sp as *mut u8,
                parent_ctx: std::ptr::null_mut(),
                join,
                task_id,
                stack: ManuallyDrop::new(stack),
            },
            f: ManuallyDrop::new(f),
        });
    }
    rec.cast()
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
    unsafe { spawn_on(&cell.block, 0, task) };
    JoinHandle { cell }
}

/// The one spawn primitive: start a child running `f` right now on a
/// fresh pooled stack, `frame` bytes of it claimed ahead of the body
/// (Figure 4's allocation "just below the parent", by arithmetic [I19]);
/// the caller's continuation becomes stealable and this returns once
/// somebody resumes it — the child, finished, or a thief, which counts
/// the child on `jb` [I21]. What `f` returns is the child's keep-alive,
/// dropped only after the child's last access to `jb`. No allocator
/// call in steady state.
///
/// # Safety
///
/// `jb` must stay valid until the child's `JoinBlock::complete` on it
/// has returned: it is in a frame that first passes [`join_all`] on it,
/// or is owned by what `f` returns. Likewise everything `f` borrows.
pub(crate) unsafe fn spawn_on<K, F>(jb: &JoinBlock, frame: u64, f: F)
where
    K: Send,
    F: FnOnce() -> K + Send,
{
    let w = current();
    // SAFETY: [I7] exclusive access by the owning thread; the borrow
    // ends before the context switch below.
    let rec = unsafe {
        let wr = &mut *w;
        let stack = wr.pool.take();
        // Trace: close the parent's Work slice, open Spawn, allocate
        // and announce the child id (0 when untraced).
        let task_id = wr.trace.on_spawn();
        // Announce the child before it can run: its `completed` tick
        // then happens-after this one, which the termination scan
        // relies on.
        bump(&wr.shared.progress[wr.id].spawned, 1, Ordering::Release);
        place_record(stack, jb, task_id, frame, f)
    };
    // [I12]: the continuation goes into the child's record, not into
    // the deque — this frame lives on the very stack it points into,
    // and a thief resuming it would overwrite the frame while it still
    // executes. `child_main` publishes it from the child's fresh stack.
    // SAFETY: [I5][I9][I18][I19] the record is exclusively the
    // spawner's until this switch hands it to the child; `sp` is
    // 16-byte aligned inside a fresh pooled stack, below the record,
    // with nothing live below it; `entry` diverges; the continuation
    // saved here is resumed exactly once (by the child's pop or by a
    // thief).
    unsafe {
        switch_to_fresh(
            &raw mut (*rec).parent_ctx,
            (*rec).sp,
            (*rec).entry,
            rec as *mut c_void,
        );
    }
    // Resumed. On this worker, by the child's exit pop: the child has
    // finished and was never counted. On another, by a thief: count the
    // child now, before anything here can look at `jb` [I21].
    let now = collect_retired();
    if now != w {
        jb.announce();
    }
    // SAFETY: [I7] exclusive worker access; scoped borrow.
    unsafe { (*now).trace.on_resumed() };
}

unsafe extern "C" fn child_main<K, F: FnOnce() -> K>(arg: *mut c_void) -> ! {
    let target = {
        let rec = arg as *mut TaskRecord<F>;
        // SAFETY: [I18] `arg` is the record `place_record::<K, F>` wrote
        // (its `entry` names this instantiation), now solely the
        // task's; `f` is moved out exactly once.
        let (parent_ctx, join, task, f) = unsafe {
            let hdr = &(*rec).hdr;
            (
                hdr.parent_ctx,
                hdr.join,
                hdr.task_id,
                ManuallyDrop::take(&mut (*rec).f),
            )
        };
        // SAFETY: [I5][I7] worker structures outlive all tasks;
        // exclusive access on the owning thread, borrow scoped.
        let (born, mborn) = unsafe {
            let wr = &mut *current();
            // Push the parent thread's continuation: stealable from now
            // on. Safe here per [I12] — we run on the child's fresh
            // stack, and every parent-stack frame below the record is
            // already dead.
            if !parent_ctx.is_null() {
                // Trace: register the continuation *before* the push
                // makes it stealable, so a thief's commit always finds
                // the publication. `cur_task` is still the parent's id:
                // `on_task_begin` below is what makes the child current.
                let parent = wr.trace.cur_task();
                wr.trace.on_publish(parent_ctx as u64, parent);
                wr.shared.deques[wr.id].push(parent_ctx as u64);
            }
            // Trace/metrics: the fiber body starts here; the begin
            // stamps are Copy locals so they survive any migration of
            // this stack between workers.
            (wr.trace.on_task_begin(task), wr.metrics.on_task_begin())
        };
        let Ok(keep) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) else {
            // Unwinding across a context switch is UB; mirror the paper's
            // C++ runtime and die loudly.
            eprintln!("uat-fiber: task panicked; aborting");
            std::process::abort();
        };
        let w = current();
        // Retire our own stack, freed once control is off it. Then,
        // Figure 4 lines 13-15, pop the parent continuation: what a pop
        // returns is our own parent, which never counted us [I21]; if it
        // was stolen, the thief did — count down the block, and resume
        // the joiner right here if it parked and we are the last child.
        // SAFETY: [I5][I6][I7][I16][I18][I21] exclusive worker access on
        // this thread, borrow scoped to this block; the stack is moved
        // out of the record exactly once, here; a popped context is live
        // and ours to resume; the block outlives `complete` (the joiner
        // cannot pass `join_all` before it, or `keep` owns it), and
        // handed the waiter, the parked continuation is ours and its
        // block stays put until we resume it.
        let target = unsafe {
            let wr = &mut *w;
            debug_assert!(wr.pending_retire.is_none());
            wr.pending_retire = Some(ManuallyDrop::take(&mut (*rec).hdr.stack));
            wr.trace.on_task_end(task, born);
            wr.metrics.on_task_end(mborn);
            match wr.shared.deques[wr.id].pop() {
                Some(c) => {
                    debug_assert_eq!(c, parent_ctx as u64, "[I21] popped another's parent");
                    wr.trace.on_local_pop(c);
                    c
                }
                None => match (*join).complete() {
                    Some(waiter) => {
                        // Trace: name the join edge; the waiter becomes
                        // the current task as if it had been pushed and
                        // popped back.
                        if wr.trace.enabled() {
                            let parent = (*join).waiter_task.load(Ordering::Relaxed);
                            (*join).enabler.store(task, Ordering::Relaxed);
                            wr.trace.on_join_ready(parent);
                            wr.trace.on_publish(waiter, parent);
                            wr.trace.on_local_pop(waiter);
                        }
                        waiter
                    }
                    None => wr.sched_ctx as u64,
                },
            }
        };
        // Only now, after the last access to the block [I18].
        drop(keep);
        // Last act of the task: everything it did (every `spawn` it
        // called included) happens-before this Release tick.
        // SAFETY: [I7][I8] w points at this worker's thread-local Worker, alive
        // for the whole worker loop.
        unsafe {
            let wr = &*w;
            bump(&wr.shared.progress[wr.id].completed, 1, Ordering::Release);
        }
        target as *mut Context
    };
    // Nothing with a destructor is live from here: we abandon this stack.
    // SAFETY: [I5] target is resumed exactly once; only Copy locals live here.
    unsafe { resume_context(target) }
}

/// Wait until every child announced on `jb` has completed (Figure 7's
/// `join`): the fast path is one load; otherwise the caller suspends
/// once — resumed by the last child — and the worker finds other work.
pub(crate) fn join_all(jb: &JoinBlock) {
    if jb.is_done() {
        return;
    }
    let w = current();
    // SAFETY: [I7][I8] exclusive worker access on this thread, the
    // borrow ends before the switch below; the block outlives the join.
    let (slot, sched) = unsafe {
        let wr = &mut *w;
        // [I21] holds only if nothing is left behind on this deque: a
        // task that joins its own children blocks with its spawners'
        // continuations all stolen. Anything else would strand one here.
        assert!(
            wr.shared.deques[wr.id].is_empty(),
            "uat-fiber: a task blocked joining a thread it did not spawn; \
             join a handle from the task that spawned it"
        );
        // Trace: charge the park attempt to the suspend bucket, and
        // record who is about to park *before* `park` can expose the
        // slot to the last child (which reads it to name `JoinReady`).
        wr.trace.on_suspend();
        if wr.trace.enabled() {
            jb.waiter_task.store(wr.trace.cur_task(), Ordering::Relaxed);
        }
        (wr.pending_join.hand_over(jb), wr.sched_ctx)
    };
    // [I12]: parking publishes the continuation — the last child can
    // resume it on another thread the next instant, overwriting
    // this very frame. So don't park here: hand it to the scheduler,
    // which runs on the worker's OS stack. Until the scheduler's `park`
    // the continuation is invisible to every other thread, so this
    // stack is still private.
    // SAFETY: [I5][I9] the slot is this worker's own, read only by the
    // scheduler this switches to; the scheduler context is parked in
    // its loop and resumed exactly once per lineage; the continuation
    // saved here is resumed exactly once, by the last child's worker or
    // inline by the scheduler.
    unsafe { switch_to(slot, sched) };
    let w = collect_retired();
    // Trace: name the resume edge if the join actually parked (the
    // enabling child recorded itself; taken, so the block's next join
    // starts clean); an inline resume just reopens the work slice.
    // SAFETY: [I7] exclusive worker access on this (possibly new)
    // thread.
    unsafe {
        let wr = &mut *w;
        if wr.trace.enabled() {
            match jb.enabler.swap(0, Ordering::Relaxed) {
                0 => wr.trace.on_resumed(),
                child => wr.trace.on_join_resume(child),
            }
        }
    }
    debug_assert!(jb.is_done());
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to exit and take its result.
    pub fn join(self) -> T {
        join_all(&self.cell.block);
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
#[derive(Clone)]
pub struct Runtime {
    nworkers: usize,
    stack_size: usize,
    /// The root task's frame claim (every other task's comes with its
    /// `spawn_on`).
    root_frame: u64,
    /// Per-worker event-ring capacity when tracing; `None` = untraced.
    #[cfg(feature = "trace")]
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
            #[cfg(feature = "trace")]
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

    /// Like [`run`](Self::run), additionally reporting scheduler-level
    /// counters for the run (used by the native workload interpreter's
    /// stats; mirrors the sim engine's `RunStats` steal accounting).
    pub fn run_counted<T, F>(&self, root: F) -> (T, SchedStats)
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
    pub fn run_traced<T, F>(&self, root: F) -> (T, SchedStats, crate::ntrace::NativeTrace)
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
    pub fn run_metered<T, F>(&self, root: F) -> (T, SchedStats, uat_metrics::Snapshot)
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

    fn run_core<T, F>(&self, root: F) -> (T, SchedStats, Arc<Shared>)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        #[cfg(feature = "trace")]
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
        let root_task = {
            #[cfg(feature = "trace")]
            {
                trace.as_ref().map_or(0, |t| t.alloc_task())
            }
            #[cfg(not(feature = "trace"))]
            {
                0
            }
        };
        let seed = place_record(
            Stack::new(self.stack_size),
            &cell.block,
            root_task,
            self.root_frame,
            JoinCell::task(Arc::clone(&cell), root),
        );
        let shared = Arc::new(Shared {
            deques: (0..self.nworkers)
                .map(|_| Arc::new(NativeDeque::new(8192)))
                .collect(),
            shutdown: AtomicBool::new(false),
            progress: (0..self.nworkers).map(|_| Progress::default()).collect(),
            metrics,
            seed_task: AtomicPtr::new(seed),
            #[cfg(feature = "trace")]
            trace,
        });
        let t0 = std::time::Instant::now();
        let handles: Vec<_> = (0..self.nworkers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                let stack_size = self.stack_size;
                std::thread::Builder::new()
                    .name(format!("uat-worker-{id}"))
                    .spawn(move || worker_loop(id, &shared, stack_size))
                    .expect("spawn worker thread")
            })
            .collect();

        // Sampler/watchdog thread, when configured: deque-depth samples
        // every tick, heartbeat stall detection when armed. Its stop
        // flag is the run's shutdown flag: workers stop heartbeating
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
        let sched = SchedStats {
            steals: shared.metrics.steals_total(),
            parks: shared.metrics.parks_total(),
            unparks: shared.metrics.unparks_total(),
            wall,
        };
        (out, sched, shared)
    }
}

/// Scheduler-level counters from one [`Runtime::run_counted`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Successful steals of a started thread by an idle worker.
    pub steals: u64,
    /// Workers that crossed the idle spin threshold into a sleep cycle.
    pub parks: u64,
    /// Parked workers that subsequently found work.
    pub unparks: u64,
    /// Elapsed time of the worker run itself — first worker thread
    /// spawned to last joined. Excludes trace-ring allocation before the
    /// run and trace finalization after it, so traced and untraced runs
    /// are compared on the scheduling work alone.
    pub wall: std::time::Duration,
}

fn worker_loop(id: usize, shared: &Arc<Shared>, stack_size: usize) {
    let mut worker = Worker {
        id,
        shared: Arc::clone(shared),
        pool: StackPool::new(stack_size),
        rng: SplitMix64::new(0x5EED ^ id as u64),
        sched_ctx: std::ptr::null_mut(),
        pending_retire: None,
        pending_join: PendingJoin::NONE,
        trace: WorkerTracer::new(shared.trace_shared(), id),
        metrics: WorkerMetrics::new(&shared.metrics, id),
    };
    let w: *mut Worker = &mut worker;
    CURRENT.with(|c| c.set(w));

    // Watchdog-test sabotage: stay alive (so the run is otherwise
    // healthy) but never enter the scheduler loop, so this worker's
    // heartbeat epoch stays frozen while every other worker advances.
    if shared.metrics.is_sabotaged(id) {
        while !shared.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // SAFETY: [I7] exclusive worker access on this thread.
        unsafe {
            (*w).trace.finish();
        }
        CURRENT.with(|c| c.set(std::ptr::null_mut()));
        return;
    }

    // Worker 0 seeds the root task.
    if id == 0 {
        run_fresh(shared.seed_task.load(Ordering::Acquire));
    }

    let n = shared.deques.len();
    let mut idle = Idle::default();
    loop {
        collect_retired();
        // SAFETY: [I7] exclusive worker access on this thread (each borrow
        // below is scoped to its statement).
        unsafe {
            // Heartbeat: one epoch per scheduler-loop iteration. Parked
            // workers iterate every sleep cycle, so only a wedged (or
            // task-monopolized) worker's epoch ever freezes.
            (*w).metrics.on_loop();
        }
        // Scheduler-side join park [I12]: a fiber that suspended on a
        // join handed it to us; park it from this OS stack. If every
        // child had completed first, the fiber never really parked —
        // continue it right away.
        // SAFETY: [I7][I8][I16] exclusive worker access, scoped borrow;
        // the suspended fiber's frame holds the block (or the
        // JoinHandle whose cell does) until its continuation is resumed.
        if let Some(ctx) = unsafe { (*w).pending_join.park() } {
            run_ctx(ctx);
            continue;
        }
        // SAFETY: [I7] as above.
        unsafe {
            (*w).trace.on_idle();
        }
        // Nothing of our own is left to run [I21]: a task ends or blocks
        // here only once its worker's deque is empty. Steal.
        debug_assert!(shared.deques[id].is_empty());
        let target = if n == 1 {
            None
        } else {
            // SAFETY: [I7] as above.
            let mut v = unsafe { (*w).rng.below(n as u64 - 1) as usize };
            if v >= id {
                v += 1;
            }
            // Traced and metered runs take the phase-stamped steal so
            // lock/entry time lands in the right buckets and the latency
            // histogram; plain runs keep the bare protocol with
            // counter-only accounting.
            // SAFETY: [I7] as above.
            let clk = unsafe { (*w).trace.clock().or_else(|| (*w).metrics.clock()) };
            match clk {
                Some(clk) => {
                    let (got, ph) = shared.deques[v].steal_phased(|| clk.now_cycles());
                    // SAFETY: [I7] as above.
                    unsafe {
                        (*w).trace.on_steal_attempt(v, got, &ph);
                        (*w).metrics.on_steal_phased(v, got.is_some(), &ph);
                    }
                    got
                }
                None => {
                    let got = shared.deques[v].steal();
                    // SAFETY: [I7] as above.
                    unsafe {
                        (*w).metrics.on_steal_untimed(got.is_some());
                    }
                    got
                }
            }
        };
        match target {
            Some(ctx) => {
                if idle.found() {
                    // SAFETY: [I7] as above.
                    unsafe {
                        (*w).trace.on_unpark();
                        (*w).metrics.on_unpark();
                    }
                }
                run_ctx(ctx as *mut Context);
            }
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let scan = || {
                    idle::quiescent(
                        shared.progress.iter().map(|p| &p.completed),
                        shared.progress.iter().map(|p| &p.spawned),
                    )
                };
                // SAFETY: [I7] as above.
                let on_park = || unsafe {
                    (*w).trace.on_park();
                    (*w).metrics.on_park();
                };
                // Nothing to run and about to nap: the party that pays
                // for termination detection. A pass means every task
                // has completed, so nobody is left to tell but the
                // other idle loops.
                if idle.missed(scan, on_park) {
                    shared.shutdown.store(true, Ordering::Release);
                    break;
                }
            }
        }
    }
    // Deposit this worker's timeline (no-op when untraced).
    // SAFETY: [I7] as above.
    unsafe {
        (*w).trace.finish();
    }
    CURRENT.with(|c| c.set(std::ptr::null_mut()));
}

/// Run a ready continuation, saving the scheduler's own context so tasks
/// can bail back to this loop.
fn run_ctx(target: *mut Context) {
    let w = current();
    // SAFETY: [I5][I7][I9] the slot is this worker's own, on a stack
    // that never migrates; `target` is a live continuation handed to us
    // by the deque; the saved scheduler context is resumed exactly once
    // (by whichever task runs out of local work on this worker).
    unsafe { switch_to(&raw mut (*w).sched_ctx, target) };
    collect_retired();
}

/// Start a brand-new thread (no saved context yet) from the scheduler.
fn run_fresh(rec: *mut TaskHeader) {
    let w = current();
    // SAFETY: [I5][I7][I9][I18][I19] scheduler context saved as in
    // `run_ctx`; the record is ours until this switch hands it to the
    // task, its `sp` 16-byte aligned above a fresh stack and below the
    // record; `entry` diverges.
    unsafe {
        switch_to_fresh(
            &raw mut (*w).sched_ctx,
            (*rec).sp,
            (*rec).entry,
            rec as *mut c_void,
        );
    }
    collect_retired();
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let align = std::mem::align_of::<TaskRecord<F>>().max(16);
        (top - std::mem::size_of::<TaskRecord<F>>()) & !(align - 1)
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
                    let wr = &mut *current();
                    let stack = wr.pool.take();
                    let top = stack.top() as usize;
                    wr.pool.put(stack);
                    top
                };
                let jb = JoinBlock::new();
                let seen = AtomicUsize::new(0);
                let body = || seen.store(addr_of_a_local(), Ordering::Relaxed);
                let rec = record_at(top, &body);
                // SAFETY: [I16] `jb` and `seen` are locals of this
                // frame, which joins the child before it ends.
                unsafe { spawn_on(&jb, frame, body) };
                join_all(&jb);
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
