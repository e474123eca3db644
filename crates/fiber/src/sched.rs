//! The one worker body both real backends run (DESIGN.md §9.2, §13.3):
//! child-first spawn, the random-victim steal, the Figure 7 join and
//! the scheduler loop around them, written once and monomorphised over
//! a [`Place`] — the thread runtime's pooled stacks and heap deques
//! (`runtime.rs`), or the multiprocess region's slots and placed deques
//! (`mpruntime.rs`). The place names only what the two backends do
//! differently; the rest is shared: this body, the join protocol
//! (`join.rs`), the frame claim (`frame.rs`), the idle policy and
//! termination scan (`idle.rs`), the two transfers (`ctx.rs`), the deque
//! body (`uat_deque::TheDeque`) and the accounting row (`interp.rs`).
//!
//! Control changes stacks in four places, through the two transfers of
//! [`ctx`](crate::ctx) — a spawn and the scheduler starting the root
//! (`switch_to_fresh`), a parking join and the scheduler resuming a
//! continuation (`switch_to`) — and a task leaves through an inlined
//! `resume_context`. Each transfer saves the caller's continuation into
//! a slot the caller names, so there is no code between the save and
//! the switch: a spawn nobody steals is one `call` and one `ret`.
//!
//! # Safety model
//!
//! Control transfers never unwind (a task body is `catch_unwind`ed and
//! a panic gives the worker up, [`Place::task_panicked`]). A context is
//! resumed exactly once: the deque hands an entry to exactly one
//! consumer (THE protocol), and a parked joiner is claimed by exactly
//! one side of the [`JoinBlock`] arbitration. A task's stack is retired
//! only by its own completion and freed only after control has left it
//! (the `pending_retire` hand-off). A task's entry (`child_main`)
//! diverges with only `Copy` locals live, so no destructor is skipped.
//!
//! **Publication rule [I12]:** a saved continuation is made visible to
//! other workers (deque push or join park) only from a stack that is
//! *not* the continuation's own. The `Context` record lives on the
//! fiber's stack and a thief resumes it by setting `rsp = ctx` — from
//! that instant every frame below the record is dead memory the resumed
//! fiber will overwrite. So the saving routine writes the continuation
//! only to a private slot: a spawn's is the child's own record, and the
//! child publishes it from its fresh stack (`child_main`); a parking
//! join's is `pending_join`, and the scheduler loop parks it from the
//! worker's OS stack.
//!
//! # Finding the worker
//!
//! Every fiber operation finds its worker through [`current`], the one
//! `#[inline(never)]` accessor of one `thread_local!`, on both backends:
//! a worker process has exactly one thread, `fork` copies the forking
//! thread's TLS block, and a `const`-initialised `Cell` has no
//! destructor, so setting it in a fresh child allocates nothing and
//! takes no lock ([I15]). The indirection is load-bearing: fiber code
//! calls `current()` on both sides of a context switch, and the resume
//! can happen on another thread — or in another process, where the
//! worker state sits at the same address with other contents. Inlined
//! into one body, LLVM would treat the thread-local's address (and what
//! it loaded through it) as invariant across the opaque switch and hand
//! the resumed code the previous worker. Keeping the access inside a
//! never-inlined callee forces a fresh lookup wherever the fiber now
//! runs; `uat-lint`'s rule A checks that every suspending function
//! keeps to it.

use crate::ctx::{resume_context, switch_to, switch_to_fresh, Context};
use crate::frame::{self, FrameTooLarge};
use crate::idle::{self, Idle};
use crate::join::{JoinBlock, PendingJoin};
use crate::tsc::RunClock;
use std::borrow::Borrow;
use std::cell::Cell;
use std::ffi::c_void;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use uat_base::SplitMix64;
use uat_deque::{StealPhases, Storage, TheDeque};
use uat_model::Action;

/// Single-writer add on a per-worker cell: a plain load + store (no
/// `lock` prefix), sound because only the cell's owning worker ever
/// writes it — the idiom of `uat_metrics::Counter` [I17].
#[inline]
pub(crate) fn bump(cell: &AtomicU64, v: u64, order: Ordering) {
    cell.store(cell.load(Ordering::Relaxed).wrapping_add(v), order);
}

/// What the two real backends do differently — and nothing else: where
/// stacks come from, where the deques and the termination cells live,
/// where a task's program waits across its migration points, how a
/// worker gives up, and what it records on the way. How workers come to
/// exist, region mapping and the coordinator stay in the two runners.
///
/// One `Place` value is one worker's part of that state, owned by its
/// [`Worker`] and touched only by the worker's own thread ([I7]).
pub(crate) trait Place: Sized {
    /// Tags the worker [`current`] finds, so that an operation of one
    /// backend inside a worker of the other fails by name.
    const KIND: u8;
    /// A task's stack as this backend hands it out.
    type Stack;
    /// Where a deque's control words and entries live.
    type Store: Storage<Entry = u64>;

    /// A free stack for a task about to be spawned here, with its top
    /// — the task's record goes just below it — and its lowest usable
    /// address.
    fn take_stack(&mut self) -> (Self::Stack, (usize, usize));
    /// Take back the stack of a task that completed here; control has
    /// left it ([I6]).
    fn retire_stack(&mut self, s: Self::Stack);

    /// Worker `w`'s deque: one `TheDeque` body on both backends.
    fn deque(&self, w: usize) -> impl Borrow<TheDeque<Self::Store>> + '_;
    /// Worker `w`'s termination cells, `(spawned, completed)`, on a line
    /// only `w` writes ([I17]; `idle::quiescent` scans them).
    fn progress(&self, w: usize) -> (&AtomicU64, &AtomicU64);
    /// The run's shutdown word: raised once, by the first worker whose
    /// termination scan passes ([I20]).
    fn shutdown(&self) -> &AtomicU32;

    /// Where the task that started here last keeps its `actions`-long
    /// program across its migration points ([I16]): by default in the
    /// expansion buffer itself, which then travels with the task;
    /// otherwise in an area the caller copies it into before the first
    /// spawn, handing the buffer straight back.
    fn program_area<D>(&self, _actions: usize) -> Option<*mut Action<D>> {
        None
    }

    /// Give up on a spawn whose frame does not fit `s` (never returns).
    fn refuse_frame(e: FrameTooLarge, s: Self::Stack) -> !;
    /// Give up after a task body panicked: unwinding across a context
    /// switch is undefined behaviour, so the worker goes, loudly.
    fn task_panicked() -> !;

    /// Record `e`, if this backend observes it.
    fn record(&mut self, _e: Event<'_>) {}
    /// A clock for phase-stamped steals; `None` takes the bare steal.
    fn clock(&self) -> Option<RunClock> {
        None
    }
    /// A spawn is starting a child; returns its trace id (0: untraced).
    fn on_spawn(&mut self) -> u64 {
        0
    }
    /// Task `task` is about to run its body on `stack`; returns the
    /// stamps [`Event::TaskEnd`] carries back.
    fn on_task_begin(&mut self, _task: u64, _stack: &Self::Stack) -> [u64; 2] {
        [0; 2]
    }
}

/// The scheduler events a backend may record ([`Place::record`]).
pub(crate) enum Event<'a> {
    /// One scheduler-loop iteration.
    Loop,
    /// The scheduler is out of local work and about to steal.
    Idle,
    /// A steal attempt on victim `.0` ended with `.1`, with its phase
    /// stamps if it was timed.
    Steal(usize, Option<u64>, Option<StealPhases>),
    /// The worker spun out and naps from now on.
    Park,
    /// A napping worker found work.
    Unpark,
    /// A child is about to make its spawner's continuation stealable.
    Publish(u64),
    /// Task `task`'s body returned, here.
    TaskEnd { task: u64, born: [u64; 2] },
    /// A task's exit pop returned its own parent ([I21]).
    LocalPop(u64),
    /// Task `.1`'s completion handed it the block's parked waiter `.2`.
    JoinReady(&'a JoinBlock, u64, u64),
    /// The running task is about to park on the block.
    Suspend(&'a JoinBlock),
    /// A spawner runs again — or a task that blocked on the block.
    Resumed(Option<&'a JoinBlock>),
    /// The worker leaves its loop.
    Exit,
}

/// One worker: what the shared body keeps, plus its [`Place`].
pub(crate) struct Worker<P: Place> {
    pub(crate) id: usize,
    /// Workers in the run.
    n: usize,
    pub(crate) place: P,
    rng: SplitMix64,
    /// The scheduler loop's saved context, on the worker's OS stack.
    sched_ctx: *mut Context,
    /// The stack of the task that completed last, retired once control
    /// has left it ([I6]).
    pending_retire: Option<P::Stack>,
    /// A fiber that wants to park on a join hands it to its scheduler
    /// here; the scheduler parks it from the OS stack ([I12]).
    pending_join: PendingJoin,
}

impl<P: Place> Worker<P> {
    pub(crate) fn new(id: usize, n: usize, place: P) -> Self {
        Worker {
            id,
            n,
            place,
            rng: SplitMix64::new(0x5EED ^ id as u64),
            sched_ctx: std::ptr::null_mut(),
            pending_retire: None,
            pending_join: PendingJoin::NONE,
        }
    }
}

thread_local! {
    /// The worker this thread runs, and its place's `KIND` (0: none).
    static CURRENT: Cell<(*mut (), u8)> = const { Cell::new((std::ptr::null_mut(), 0)) };
}

/// Re-derive the worker executing the calling fiber *right now* (see
/// the module docs for why this must never be inlined).
#[inline(never)]
pub(crate) fn current<P: Place>() -> *mut Worker<P> {
    let (w, kind) = CURRENT.with(Cell::get);
    assert!(
        kind == P::KIND,
        "fiber operation outside a uat-fiber worker of its backend"
    );
    w.cast()
}

/// Retire the stack of the previously completed task, if any, and
/// return the worker control landed on. Must run at every point control
/// can land after a completion.
#[inline]
fn collect_retired<P: Place>() -> *mut Worker<P> {
    let w = current::<P>();
    // SAFETY: [I7] only the owning thread touches its Worker, and no
    // other borrow is live across this call.
    let wr = unsafe { &mut *w };
    if let Some(s) = wr.pending_retire.take() {
        wr.place.retire_stack(s);
    }
    w
}

/// A task's record may take at most 1/N of its stack.
const RECORD_STACK_DIVISOR: usize = 4;

/// The type-independent head of a task record [I18].
#[repr(C)]
pub(crate) struct TaskHeader<S> {
    /// `child_main::<P, K, F>` for the record's own `F`: lets a spawner
    /// or the scheduler start a task without knowing its closure type —
    /// and, the code being the same in every forked worker, in any
    /// process.
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
    stack: ManuallyDrop<S>,
}

/// Everything a task needs to start, written by its spawner at the top
/// of the task's own stack and read only by the task [I18].
#[repr(C)]
pub(crate) struct TaskRecord<S, F> {
    hdr: TaskHeader<S>,
    f: ManuallyDrop<F>,
}

/// Write the record of a task running `f` at the top of `stack`, whose
/// `(top, limit)` is `span`; the task reports to `join` and starts with
/// its stack pointer `frame` bytes below the record. Panics, naming the
/// sizes, if the record is over `1/RECORD_STACK_DIVISOR` of the stack —
/// the body would otherwise start part-way to the guard page. A frame
/// that does not fit the rest is refused, and the stack handed back.
pub(crate) fn place_record<P: Place, K, F: FnOnce() -> K>(
    stack: P::Stack,
    (top, limit): (usize, usize),
    join: *const JoinBlock,
    task_id: u64,
    frame: u64,
    f: F,
) -> Result<*mut TaskHeader<P::Stack>, (FrameTooLarge, P::Stack)> {
    let size = std::mem::size_of::<TaskRecord<P::Stack, F>>();
    let align = std::mem::align_of::<TaskRecord<P::Stack, F>>().max(16);
    assert!(
        size + align <= (top - limit) / RECORD_STACK_DIVISOR,
        "uat-fiber: a task record of {size} bytes ({}-byte closure + {}-byte header) exceeds \
         1/{RECORD_STACK_DIVISOR} of the {}-byte task stack; raise `with_stack_size` or box \
         the captured data",
        std::mem::size_of::<F>(),
        std::mem::size_of::<TaskHeader<P::Stack>>(),
        top - limit,
    );
    let rec = ((top - size) & !(align - 1)) as *mut TaskRecord<P::Stack, F>;
    let sp = match frame::claim(rec as usize, limit, frame) {
        Ok(sp) => sp,
        Err(e) => return Err((e, stack)),
    };
    // SAFETY: [I6][I18] `rec` is aligned and `[rec, rec + size)` is
    // inside the usable span (checked above) of a stack nothing runs on.
    unsafe {
        rec.write(TaskRecord {
            hdr: TaskHeader {
                entry: child_main::<P, K, F>,
                sp: sp as *mut u8,
                parent_ctx: std::ptr::null_mut(),
                join,
                task_id,
                stack: ManuallyDrop::new(stack),
            },
            f: ManuallyDrop::new(f),
        });
    }
    Ok(rec.cast())
}

/// The one spawn primitive: start a child running `f` right now on a
/// fresh stack, `frame` bytes of it claimed ahead of the body (Figure
/// 4's allocation "just below the parent", by arithmetic [I19]); the
/// caller's continuation becomes stealable and this returns once
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
// Always inlined: a spawn nobody steals makes no call but the switch's.
#[inline(always)]
pub(crate) unsafe fn spawn_on<P: Place, K, F: FnOnce() -> K>(jb: &JoinBlock, frame: u64, f: F) {
    let w = current::<P>();
    // SAFETY: [I7] exclusive access by the owning thread; the borrow
    // ends before the context switch below.
    let (me, rec) = unsafe {
        let wr = &mut *w;
        let (stack, span) = wr.place.take_stack();
        let task_id = wr.place.on_spawn();
        // Announce the child before it can run: its `completed` tick
        // then happens-after this one, which the termination scan
        // relies on.
        bump(wr.place.progress(wr.id).0, 1, Ordering::Release);
        let rec = place_record::<P, K, F>(stack, span, jb, task_id, frame, f)
            .unwrap_or_else(|(e, s)| P::refuse_frame(e, s));
        (wr.id, rec)
    };
    // [I12]: the continuation goes into the child's record, not into
    // the deque — this frame lives on the very stack it points into,
    // and a thief resuming it would overwrite the frame while it still
    // executes. `child_main` publishes it from the child's fresh stack.
    // SAFETY: [I5][I9][I18][I19] the record is exclusively the
    // spawner's until this switch hands it to the child; `sp` is
    // 16-byte aligned inside a fresh stack, below the record, with
    // nothing live below it; `entry` diverges; the continuation saved
    // here is resumed exactly once (by the child's pop or by a thief).
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
    // child now, before anything here can look at `jb` [I21]. (By id:
    // every forked worker keeps its state at the same address.)
    let now = collect_retired::<P>();
    // SAFETY: [I7] exclusive worker access; scoped borrow.
    unsafe {
        if (*now).id != me {
            jb.announce();
        }
        (*now).place.record(Event::Resumed(None));
    }
}

unsafe extern "C" fn child_main<P: Place, K, F: FnOnce() -> K>(arg: *mut c_void) -> ! {
    let target = {
        let rec = arg as *mut TaskRecord<P::Stack, F>;
        // SAFETY: [I18] `arg` is the record `place_record::<P, K, F>`
        // wrote (its `entry` names this instantiation), now solely the
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
        // exclusive access on the owning thread, borrow scoped; the
        // record's stack stays put until this task completes.
        let born = unsafe {
            let wr = &mut *current::<P>();
            // Push the parent thread's continuation: stealable from now
            // on. Safe here per [I12] — we run on the child's fresh
            // stack, and every parent-stack frame below the record is
            // already dead.
            if !parent_ctx.is_null() {
                wr.place.record(Event::Publish(parent_ctx as u64));
                wr.place.deque(wr.id).borrow().push(parent_ctx as u64);
            }
            wr.place.on_task_begin(task, &(*rec).hdr.stack)
        };
        let Ok(keep) = catch_unwind(AssertUnwindSafe(f)) else {
            P::task_panicked()
        };
        let w = current::<P>();
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
            wr.place.record(Event::TaskEnd { task, born });
            let popped = wr.place.deque(wr.id).borrow().pop();
            match popped {
                Some(c) => {
                    debug_assert_eq!(c, parent_ctx as u64, "[I21] popped another's parent");
                    wr.place.record(Event::LocalPop(c));
                    c
                }
                None => match (*join).complete() {
                    Some(waiter) => {
                        wr.place.record(Event::JoinReady(&*join, task, waiter));
                        waiter
                    }
                    None => wr.sched_ctx as u64,
                },
            }
        };
        // Only now, after the last access to the block [I18].
        drop(keep);
        // Last act of the task: everything it did (every spawn it made
        // included) happens-before this Release tick.
        // SAFETY: [I7][I8] `w` is this worker's, alive for its loop.
        unsafe {
            let wr = &*w;
            bump(wr.place.progress(wr.id).1, 1, Ordering::Release);
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
#[inline]
pub(crate) fn join_all<P: Place>(jb: &JoinBlock) {
    if jb.is_done() {
        return;
    }
    let w = current::<P>();
    // SAFETY: [I7][I8] exclusive worker access on this thread, the
    // borrow ends before the switch below; the block outlives the join.
    let (slot, sched) = unsafe {
        let wr = &mut *w;
        // [I21] holds only if nothing is left behind on this deque: a
        // task that joins its own children blocks with its spawners'
        // continuations all stolen. Anything else would strand one here.
        assert!(
            wr.place.deque(wr.id).borrow().is_empty(),
            "uat-fiber: a task blocked joining a thread it did not spawn; \
             join a handle from the task that spawned it"
        );
        wr.place.record(Event::Suspend(jb));
        (wr.pending_join.hand_over(jb), wr.sched_ctx)
    };
    // [I12]: parking publishes the continuation — the last child can
    // resume it elsewhere the next instant, overwriting this very frame.
    // So don't park here: hand it to the scheduler, which runs on the
    // worker's OS stack. Until the scheduler's `park` the continuation
    // is invisible to every other worker, so this stack is still private.
    // SAFETY: [I5][I9] the slot is this worker's own, read only by the
    // scheduler this switches to; the scheduler context is parked in
    // its loop and resumed exactly once per lineage; the continuation
    // saved here is resumed exactly once, by the last child's worker or
    // inline by the scheduler.
    unsafe { switch_to(slot, sched) };
    let w = collect_retired::<P>();
    // SAFETY: [I7] exclusive worker access on this (possibly new) worker.
    unsafe { (*w).place.record(Event::Resumed(Some(jb))) };
    debug_assert!(jb.is_done());
}

/// The scheduler loop of `worker`: start `root` (one worker does), then
/// steal from random victims until the run is over — seen raised on the
/// shutdown word, or raised here, by the first termination scan to pass.
pub(crate) fn worker_loop<P: Place>(
    worker: &mut Worker<P>,
    root: Option<*mut TaskHeader<P::Stack>>,
) {
    let w: *mut Worker<P> = worker;
    CURRENT.with(|c| c.set((w.cast(), P::KIND)));
    if let Some(rec) = root {
        run_fresh::<P>(rec);
    }
    let mut idle = Idle::default();
    loop {
        collect_retired::<P>();
        // SAFETY: [I7] exclusive worker access on this thread; the
        // borrow is dead at every context switch below.
        let wr = unsafe { &mut *w };
        let (id, n) = (wr.id, wr.n);
        // Heartbeat: once per iteration. Parked workers iterate every
        // nap, so only a wedged (or task-monopolised) worker's freezes.
        wr.place.record(Event::Loop);
        // Scheduler-side join park [I12]: a fiber that suspended on a
        // join handed it to us; park it from this OS stack. If every
        // child had completed first, the fiber never really parked —
        // continue it right away.
        // SAFETY: [I8][I16] the suspended fiber's frame holds the block
        // (or the handle whose cell does) until its continuation is
        // resumed.
        if let Some(ctx) = unsafe { wr.pending_join.park() } {
            run_ctx::<P>(ctx);
            continue;
        }
        // Nothing of our own is left to run [I21]: a task ends or blocks
        // here only once its worker's deque is empty. Steal.
        wr.place.record(Event::Idle);
        debug_assert!(wr.place.deque(id).borrow().is_empty());
        let target = if n == 1 {
            None
        } else {
            let mut victim = wr.rng.below(n as u64 - 1) as usize;
            if victim >= id {
                victim += 1;
            }
            // Timed steals stamp their phases for the tracer and the
            // latency histogram; untimed ones are the bare protocol.
            let p = &mut wr.place;
            let (got, phases) = match p.clock() {
                Some(clk) => {
                    let (got, ph) = p.deque(victim).borrow().steal_phased(|| clk.now_cycles());
                    (got, Some(ph))
                }
                None => (p.deque(victim).borrow().steal(), None),
            };
            p.record(Event::Steal(victim, got, phases));
            got
        };
        if let Some(ctx) = target {
            if idle.found() {
                wr.place.record(Event::Unpark);
            }
            run_ctx::<P>(ctx as *mut Context);
            continue;
        }
        if wr.place.shutdown().load(Ordering::Acquire) != 0 {
            break;
        }
        // Nothing to run and about to nap: the party that pays for
        // termination detection. A pass means every task has completed;
        // tell the other idle loops, and whoever sleeps on the word.
        let p: *mut P = &mut wr.place;
        // SAFETY: [I7] `missed` runs the scan, then maybe the park
        // hook: one borrow of the place at a time.
        let scan = || unsafe {
            idle::quiescent(
                (0..n).map(|v| (*p).progress(v).1),
                (0..n).map(|v| (*p).progress(v).0),
            )
        };
        // SAFETY: [I7] as above.
        if idle.missed(scan, || unsafe { (*p).record(Event::Park) }) {
            let shutdown = wr.place.shutdown();
            shutdown.store(1, Ordering::Release);
            idle::futex_wake(shutdown);
            break;
        }
    }
    // SAFETY: [I7] exclusive worker access on this thread.
    unsafe { (*w).place.record(Event::Exit) };
    CURRENT.with(|c| c.set((std::ptr::null_mut(), 0)));
}

/// Run a ready continuation, saving the scheduler's own context so tasks
/// can bail back to this loop.
fn run_ctx<P: Place>(target: *mut Context) {
    let w = current::<P>();
    // SAFETY: [I5][I7][I9] the slot is this worker's own, on a stack
    // that never migrates; `target` is a live continuation handed to us
    // by a deque or a join; the saved scheduler context is resumed
    // exactly once (by whichever task runs out of local work here).
    unsafe { switch_to(&raw mut (*w).sched_ctx, target) };
    collect_retired::<P>();
}

/// Start a brand-new task (no saved context yet) from the scheduler.
fn run_fresh<P: Place>(rec: *mut TaskHeader<P::Stack>) {
    let w = current::<P>();
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
    collect_retired::<P>();
}
