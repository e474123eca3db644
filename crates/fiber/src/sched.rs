//! The one worker body both real backends run (DESIGN.md §9.2, §13.3):
//! child-first spawn, the random-victim steal, the Figure 7 join and
//! the scheduler loop around them, written once and monomorphised over
//! a [`Place`] — the thread runtime's pooled stacks and heap deques
//! (`runtime.rs`), or the multiprocess region's slots and placed deques
//! (`mpruntime.rs`). The place names only what the two backends do
//! differently; the rest is shared: this body, the join protocol
//! (`join.rs`), the frame claim (`frame.rs`), the idle policy and
//! termination scan (`idle.rs`), the two transfers (`ctx.rs`), the deque
//! body (`uat_deque::TheDeque`), the accounting row (`interp.rs`) and the
//! counter row (`uat_metrics::shm::Row`), whose cells this body bumps
//! itself — heartbeats, steal outcomes, parks, unparks, and the tasks
//! and spawns the termination scan sums. What a place may add on top is
//! observation: the thread backend's one observer per worker (the tracer
//! and the timed metrics tier, fed one stamp per event), behind one flag
//! and built only for a run that observes.
//!
//! Control changes stacks in four places, through the two transfers of
//! [`ctx`](crate::ctx) — a spawn and the scheduler starting the root
//! (`switch_to_fresh`), a parking join and the scheduler resuming a
//! continuation (`switch_to`) — and a task leaves through an inlined
//! `resume_context`. Each transfer saves the caller's continuation into
//! a slot the caller names, so there is no code between the save and
//! the switch: a spawn nobody steals is one `call` and one `ret`. Each
//! one also hands the code it resumes the worker it now runs on (see
//! "Finding the worker" below).
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
//! A resume can land on another thread — or in another process, where
//! the worker state sits at the same address with other contents — so
//! code that suspended must learn its worker anew. It learns it from
//! the transfer itself: whoever resumes a continuation passes its own
//! worker, and the saving routine returns it ([`ctx`](crate::ctx), "What
//! a transfer hands over"). A spawn's child gets its spawner's worker as
//! its entry's second argument; [`spawn_on`] and [`join_all`] take the
//! worker they start on and return the one they were resumed on; a task
//! body takes its worker and returns the one it ends on. So the task
//! path reads no thread-local: a worker is a value carried in a
//! register, and the value after a switch is the switch's return, which
//! LLVM cannot mistake for the one before.
//!
//! The thread-local is read only where no transfer has handed a worker
//! over: [`worker_loop`]'s entry sets it, and the public API
//! (`runtime::{spawn, JoinHandle::join, current_worker_id}`, and the
//! tasks they start, when their closure returns) reads it through
//! [`current`], the one `#[inline(never)]` accessor of one
//! `thread_local!` on both backends: a worker process has exactly one
//! thread, `fork` copies the forking thread's TLS block, and a
//! `const`-initialised `Cell` has no destructor, so setting it in a
//! fresh child allocates nothing and takes no lock ([I15]). The
//! indirection is still load-bearing there: user code calls the API on
//! both sides of a join, and inlined into one body, LLVM would treat the
//! thread-local's address as invariant across the opaque switch and
//! hand the resumed code the previous worker. `uat-lint`'s rule A
//! checks that everything that suspends, directly or through a callee,
//! keeps to the accessor; in debug builds every resume cross-checks the
//! worker it was handed against the thread-local
//! ([`collect_retired`]).

use crate::ctx::{resume_context, switch_to, switch_to_fresh, Context, Entry};
use crate::frame::{self, FrameTooLarge};
use crate::idle::{self, Idle};
use crate::join::{JoinBlock, PendingJoin};
use crate::tsc::RunClock;
use std::any::Any;
use std::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0, _MM_HINT_T0};
use std::borrow::Borrow;
use std::cell::Cell;
use std::ffi::c_void;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use uat_base::SplitMix64;
use uat_deque::{StealPhases, Storage, TheDeque};
use uat_metrics::shm::{self, Row};
use uat_model::Action;

/// Single-writer add on a per-worker cell: a plain load + store (no
/// `lock` prefix), sound because only the cell's owning worker ever
/// writes it — the idiom of `uat_metrics::Counter` [I17].
#[inline]
pub(crate) fn bump(cell: &AtomicU64, v: u64, order: Ordering) {
    cell.store(cell.load(Ordering::Relaxed).wrapping_add(v), order);
}

/// Write `head` and the message of a `&str` or `String` panic `payload`
/// to fd 2 as one line, with one raw `write`: no lock, no allocation
/// (a forked worker may call it), and nothing a test harness captures
/// and the abort that follows would lose.
pub(crate) fn report_panic(head: &str, payload: &(dyn Any + Send)) {
    let msg = (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(not a string)");
    let (mut buf, mut n) = ([0u8; 512], 0);
    for part in [head, ": ", msg] {
        let k = part.len().min(buf.len() - 1 - n);
        buf[n..n + k].copy_from_slice(&part.as_bytes()[..k]);
        n += k;
    }
    buf[n] = b'\n';
    // SAFETY: [I10] a raw write of `n + 1` initialised bytes of `buf`.
    unsafe { libc::write(2, buf.as_ptr().cast(), n + 1) };
}

/// What the two real backends do differently — and nothing else: where
/// stacks come from, where the deques and the counter rows live, where a
/// task's program waits across its migration points, how a worker gives
/// up, and what it observes on the way. How workers come to exist,
/// region mapping and the coordinator stay in the two runners.
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
    /// Worker `w`'s counter row, a line only `w` writes ([I17]). This
    /// body bumps its cells; its `TASKS` and `SPAWNED` cells are the
    /// termination scan's (`idle::quiescent`).
    fn row(&self, w: usize) -> &Row;
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
    /// Give up after a task body panicked with `payload`: unwinding
    /// across a context switch is undefined behaviour, so the worker
    /// goes, loudly ([`report_panic`]).
    fn task_panicked(payload: &(dyn Any + Send)) -> !;

    /// Record the event `e` builds for this worker's observer, if the
    /// run observes (the counters are this body's own). Built only
    /// then: an unobserved run stores no event.
    fn record<'a>(&mut self, _e: impl FnOnce() -> Event<'a>) {}
    /// A clock for phase-stamped steals; `None` takes the bare steal.
    fn clock(&self) -> Option<RunClock> {
        None
    }
    /// A spawn is starting a child; returns its trace id (0: untraced).
    fn on_spawn(&mut self) -> u64 {
        0
    }
    /// Task `task` is about to run its body on `stack`; returns the one
    /// stamp [`Event::TaskEnd`] carries back (0: unobserved).
    fn on_task_begin(&mut self, _task: u64, _stack: &Self::Stack) -> u64 {
        0
    }
}

/// The scheduler events a backend may record ([`Place::record`]). Most
/// fields are for the tracer.
pub(crate) enum Event<'a> {
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
    /// Task `task`'s body returned, here; `born` is its begin stamp.
    TaskEnd { task: u64, born: u64 },
    /// A task's exit pop returned its own parent ([I21]).
    LocalPop(u64),
    /// Task `.1`'s completion handed it the block's parked waiter `.2`.
    JoinReady(&'a JoinBlock, u64, u64),
    /// The running task is about to park on the block.
    Suspend(&'a JoinBlock),
    /// A spawner runs again — or a task that blocked on the block.
    Resumed(Option<&'a JoinBlock>),
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

/// Re-derive the worker executing the calling code *right now*, for
/// the public API, which no transfer hands a worker (see the module
/// docs for why this must never be inlined).
#[inline(never)]
pub(crate) fn current<P: Place>() -> *mut Worker<P> {
    #[cfg(test)]
    tests::looked_up();
    let (w, kind) = CURRENT.with(Cell::get);
    assert!(
        kind == P::KIND,
        "fiber operation outside a uat-fiber worker of its backend"
    );
    w.cast()
}

/// Make `w` the worker this thread runs, as a place of kind `kind` (0
/// and null: none). Out of line, like every access to the thread-local:
/// the loop that sets it reaches a switch through its callees.
#[inline(never)]
fn set_current(w: *mut (), kind: u8) {
    CURRENT.with(|c| c.set((w, kind)));
}

/// Whether `w` is the worker this thread runs: the debug cross-check
/// of a transfer's hand-over. (On processes every worker sits at one
/// address, so there it checks that the value is a worker at all.)
#[inline(never)]
fn runs_here<P: Place>(w: *mut Worker<P>) -> bool {
    CURRENT.with(Cell::get) == (w.cast(), P::KIND)
}

/// Retire the stack of the previously completed task, if any, on `w`,
/// the worker control landed on, as its transfer handed it over; return
/// `w`. Must run at every point control can land after a completion.
#[inline]
fn collect_retired<P: Place>(w: *mut Worker<P>) -> *mut Worker<P> {
    debug_assert!(runs_here(w), "a transfer handed over another worker");
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

/// A task's body as its record holds it [I18]: the task's entry runs it
/// right there, where its spawner wrote it, so nothing copies it out —
/// every field is loaded at the width it was stored, and the
/// `catch_unwind` around the run captures two pointers, not the body.
/// A closure that takes the worker its task starts on and returns the
/// one it ends on, with the task's keep-alive, is a body (the public
/// `spawn`'s and the thread runtime's root, moved out to run); an
/// interpreted task's — every multiprocess task's, the root's too — is
/// `interp::Child`.
pub(crate) trait Body<P: Place> {
    /// What the task keeps alive until after its last access to its
    /// join block (see [`spawn_on`]).
    type Keep;

    /// Run the body at `this` on worker `w`, the worker the task starts
    /// on; return the one it ends on and the task's keep-alive. The run
    /// consumes the body: when it returns, the body is dropped.
    ///
    /// # Safety
    ///
    /// `this` is the body of a record [`place_record`] wrote, run once,
    /// by its task; the record stays put until the task completes.
    unsafe fn run(this: *mut Self, w: *mut Worker<P>) -> (*mut Worker<P>, Self::Keep);
}

impl<P: Place, K, F: FnOnce(*mut Worker<P>) -> (*mut Worker<P>, K)> Body<P> for F {
    type Keep = K;

    #[inline(always)]
    unsafe fn run(this: *mut Self, w: *mut Worker<P>) -> (*mut Worker<P>, K) {
        // SAFETY: [I18] run once: the closure is moved out exactly once.
        let f = unsafe { this.read() };
        f(w)
    }
}

/// The type-independent head of a task record [I18].
#[repr(C)]
pub(crate) struct TaskHeader<S> {
    /// `child_main::<P, B>` for the record's own body type `B`: lets a
    /// spawner or the scheduler start a task without knowing its body
    /// type — and, the code being the same in every forked worker, in
    /// any process.
    entry: Entry,
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
/// of the task's own stack and read only by the task [I18]. The body
/// runs in place, and the record stays put until the task completes.
#[repr(C)]
pub(crate) struct TaskRecord<S, B> {
    hdr: TaskHeader<S>,
    body: B,
}

/// Write the record of a task running `body` at the top of `stack`,
/// whose `(top, limit)` is `span`; the task reports to `join` and starts
/// with its stack pointer `frame` bytes below the record. Panics, naming
/// the sizes, if the record is over `1/RECORD_STACK_DIVISOR` of the
/// stack — the body would otherwise start part-way to the guard page. A
/// frame that does not fit the rest is refused, and the stack handed
/// back.
pub(crate) fn place_record<P: Place, B: Body<P>>(
    stack: P::Stack,
    (top, limit): (usize, usize),
    join: *const JoinBlock,
    task_id: u64,
    frame: u64,
    body: B,
) -> Result<*mut TaskHeader<P::Stack>, (FrameTooLarge, P::Stack)> {
    let size = std::mem::size_of::<TaskRecord<P::Stack, B>>();
    let align = std::mem::align_of::<TaskRecord<P::Stack, B>>().max(16);
    assert!(
        size + align <= (top - limit) / RECORD_STACK_DIVISOR,
        "uat-fiber: a task record of {size} bytes ({}-byte closure + {}-byte header) exceeds \
         1/{RECORD_STACK_DIVISOR} of the {}-byte task stack; raise `with_stack_size` or box \
         the captured data",
        std::mem::size_of::<B>(),
        std::mem::size_of::<TaskHeader<P::Stack>>(),
        top - limit,
    );
    let rec = ((top - size) & !(align - 1)) as *mut TaskRecord<P::Stack, B>;
    let sp = match frame::claim(rec as usize, limit, frame) {
        Ok(sp) => sp,
        Err(e) => return Err((e, stack)),
    };
    #[cfg(test)]
    tests::placed(rec as usize + std::mem::offset_of!(TaskRecord<P::Stack, B>, body));
    // SAFETY: [I6][I18] `rec` is aligned and `[rec, rec + size)` is
    // inside the usable span (checked above) of a stack nothing runs on.
    unsafe {
        rec.write(TaskRecord {
            hdr: TaskHeader {
                entry: child_main::<P, B>,
                sp: sp as *mut u8,
                parent_ctx: std::ptr::null_mut(),
                join,
                task_id,
                stack: ManuallyDrop::new(stack),
            },
            body,
        });
    }
    Ok(rec.cast())
}

/// The one spawn primitive: start a child running `body` right now on a
/// fresh stack of `w`, the worker the caller runs on, `frame` bytes of
/// it claimed ahead of the body (Figure 4's allocation "just below the
/// parent", by arithmetic [I19]); the caller's continuation becomes
/// stealable and this returns once somebody resumes it — the child,
/// finished, or a thief, which counts the child on `jb` [I21] — with
/// the worker the caller now runs on. The child's keep-alive, what its
/// body returns, is dropped only after the child's last access to `jb`.
/// No allocator call in steady state.
///
/// # Safety
///
/// `jb` must stay valid until the child's `JoinBlock::complete` on it
/// has returned: it is in a frame that first passes [`join_all`] on it,
/// or is owned by the keep-alive. Likewise everything `body` borrows.
// Always inlined: a spawn nobody steals makes no call but the switch's.
#[inline(always)]
pub(crate) unsafe fn spawn_on<P: Place, B: Body<P>>(
    w: *mut Worker<P>,
    jb: &JoinBlock,
    frame: u64,
    body: B,
) -> *mut Worker<P> {
    // SAFETY: [I7] exclusive access by the owning thread; the borrow
    // ends before the context switch below.
    let (me, rec) = unsafe {
        let wr = &mut *w;
        let (stack, span) = wr.place.take_stack();
        let task_id = wr.place.on_spawn();
        // Announce the child before it can run: its `TASKS` tick then
        // happens-after this one, which the termination scan relies on.
        bump(&wr.place.row(wr.id)[shm::SPAWNED], 1, Ordering::Release);
        let rec = place_record::<P, B>(stack, span, jb, task_id, frame, body)
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
    let now = unsafe {
        switch_to_fresh(
            &raw mut (*rec).parent_ctx,
            (*rec).sp,
            (*rec).entry,
            rec as *mut c_void,
            w.cast(),
        )
    };
    // Resumed. On this worker, by the child's exit pop: the child has
    // finished and was never counted. On another, by a thief: count the
    // child now, before anything here can look at `jb` [I21]. (By id:
    // every forked worker keeps its state at the same address.)
    let now = collect_retired::<P>(now.cast());
    // SAFETY: [I7] exclusive worker access; scoped borrow.
    unsafe {
        if (*now).id != me {
            jb.announce();
        }
        (*now).place.record(|| Event::Resumed(None));
    }
    now
}

/// A task's entry, started on `arg`'s record by a spawner (or the
/// scheduler) running on worker `w`: publish the spawner's
/// continuation, run the body in place, and leave — to the spawner, if
/// nobody stole it, or else to a parked joiner or the scheduler. The
/// record stays put until the body has returned.
unsafe extern "C" fn child_main<P: Place, B: Body<P>>(arg: *mut c_void, w: *mut c_void) -> ! {
    let (target, w) = {
        let w: *mut Worker<P> = w.cast();
        let rec = arg as *mut TaskRecord<P::Stack, B>;
        // SAFETY: [I18] `arg` is the record `place_record::<P, B>` wrote
        // (its `entry` names this instantiation), now solely the task's.
        let (parent_ctx, join, body) = unsafe {
            let hdr = &(*rec).hdr;
            (hdr.parent_ctx, hdr.join, &raw mut (*rec).body)
        };
        // SAFETY: [I5][I7] worker structures outlive all tasks;
        // exclusive access on the owning thread, borrow scoped; the
        // record's stack stays put until this task completes.
        let born = unsafe {
            let wr = &mut *w;
            // Push the parent thread's continuation: stealable from now
            // on. Safe here per [I12] — we run on the child's fresh
            // stack, and every parent-stack frame below the record is
            // already dead.
            if !parent_ctx.is_null() {
                wr.place.record(|| Event::Publish(parent_ctx as u64));
                wr.place.deque(wr.id).borrow().push(parent_ctx as u64);
            }
            wr.place
                .on_task_begin((*rec).hdr.task_id, &(*rec).hdr.stack)
        };
        // SAFETY: [I18] the body of this task's record, run once, here;
        // the record stays put until the completion below.
        let (w, keep) = match catch_unwind(AssertUnwindSafe(|| unsafe { B::run(body, w) })) {
            Ok(r) => r,
            Err(payload) => P::task_panicked(&*payload),
        };
        // This function cannot unwind: its checks report the same way.
        if cfg!(debug_assertions) && !runs_here(w) {
            P::task_panicked(&"a task body handed back another worker");
        }
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
            // The slot is empty — whatever landed here last collected
            // it — so this drops nothing (and calls no destructor).
            let prev = wr
                .pending_retire
                .replace(ManuallyDrop::take(&mut (*rec).hdr.stack));
            if cfg!(debug_assertions) && prev.is_some() {
                P::task_panicked(&"a retired stack was left uncollected");
            }
            std::mem::forget(prev);
            // Read from the record, not kept live across the body: the
            // task path has no register to spare for it.
            let task = || (*rec).hdr.task_id;
            wr.place.record(|| Event::TaskEnd { task: task(), born });
            let popped = wr.place.deque(wr.id).borrow().pop();
            match popped {
                Some(c) => {
                    if cfg!(debug_assertions) && c != parent_ctx as u64 {
                        P::task_panicked(&"[I21] popped another's parent");
                    }
                    wr.place.record(|| Event::LocalPop(c));
                    c
                }
                None => {
                    // Stolen: the thief wrote the deque's ends, the block
                    // and the joiner's record last. Fetch the block and
                    // the record now, in the pop's shadow, not one after
                    // the other (DESIGN.md §13.3, "The hand-off").
                    prefetch_handoff(join, (*rec).hdr.parent_ctx);
                    match (*join).complete() {
                        Some(waiter) => {
                            wr.place.record(|| Event::JoinReady(&*join, task(), waiter));
                            waiter
                        }
                        None => wr.sched_ctx as u64,
                    }
                }
            }
        };
        // Only now, after the last access to the block [I18].
        drop(keep);
        // Last act of the task: everything it did (every spawn it made
        // included) happens-before this Release tick.
        // SAFETY: [I7][I8] `w` is this worker's, alive for its loop.
        unsafe {
            let wr = &*w;
            bump(&wr.place.row(wr.id)[shm::TASKS], 1, Ordering::Release);
        }
        (target as *mut Context, w)
    };
    // Nothing with a destructor is live from here: we abandon this stack.
    // SAFETY: [I5] target is resumed exactly once, here on `w`; only
    // Copy locals live here.
    unsafe { resume_context(target, w.cast()) }
}

/// Prefetch what a child whose parent was stolen touches next: `join`,
/// which its `complete` decrements, with write intent (`_MM_HINT_ET0`:
/// `prefetchw` where the build enables `prfchw`, `prefetcht0` in a
/// baseline x86-64 build), and the joiner's record, which it may
/// resume. Only `parent_ctx` is known here, not the record, but a
/// stolen spawner that blocks saves that record from the frame its
/// spawn saved `parent_ctx` from — 0 bytes lower on threads and 16 on
/// processes in the benchmark's build (EXPERIMENTS.md) — so the lines
/// of `[parent_ctx - 64, parent_ctx + size_of::<Context>())` hold it.
/// A record is 8-byte aligned, so three lines cover that window. Where
/// codegen puts the record elsewhere, the prefetch is wasted, not
/// wrong.
#[inline(always)]
fn prefetch_handoff(join: *const JoinBlock, parent_ctx: *mut Context) {
    const _: () = assert!(std::mem::size_of::<Context>() <= 64 + 8);
    // SAFETY: [I11] a prefetch names an address but never accesses it:
    // it cannot fault, and changes nothing but this core's caches.
    unsafe {
        _mm_prefetch::<_MM_HINT_ET0>(join.cast());
        // The root's record has no parent, and no joiner waits on it.
        if !parent_ctx.is_null() {
            let p = parent_ctx as *const i8;
            _mm_prefetch::<_MM_HINT_T0>(p.wrapping_sub(64));
            _mm_prefetch::<_MM_HINT_T0>(p);
            _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(64));
        }
    }
}

/// Wait until every child announced on `jb` has completed (Figure 7's
/// `join`): the fast path is one load, inlined into every task body;
/// otherwise the caller suspends once — resumed by the last child — and
/// `w`, the worker it ran on, finds other work. Returns the worker the
/// caller now runs on.
#[inline(always)]
pub(crate) fn join_all<P: Place>(w: *mut Worker<P>, jb: &JoinBlock) -> *mut Worker<P> {
    if jb.is_done() {
        return w;
    }
    suspend_join(w, jb)
}

/// [`join_all`]'s slow path: park the caller on `jb` until its last
/// child completes.
#[inline]
fn suspend_join<P: Place>(w: *mut Worker<P>, jb: &JoinBlock) -> *mut Worker<P> {
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
        wr.place.record(|| Event::Suspend(jb));
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
    let now = unsafe { switch_to(slot, sched, w.cast()) };
    let now = collect_retired::<P>(now.cast());
    // SAFETY: [I7] exclusive worker access on this (possibly new) worker.
    unsafe { (*now).place.record(|| Event::Resumed(Some(jb))) };
    debug_assert!(jb.is_done());
    now
}

/// The scheduler loop of `worker`: start `root` (one worker does), then
/// steal from random victims until the run is over — seen raised on the
/// shutdown word, or raised here, by the first termination scan to pass.
pub(crate) fn worker_loop<P: Place>(
    worker: &mut Worker<P>,
    root: Option<*mut TaskHeader<P::Stack>>,
) {
    let w: *mut Worker<P> = worker;
    set_current(w.cast(), P::KIND);
    if let Some(rec) = root {
        run_fresh::<P>(w, rec);
    }
    let mut idle = Idle::default();
    loop {
        collect_retired::<P>(w);
        // SAFETY: [I7] exclusive worker access on this thread; the
        // borrow is dead at every context switch below.
        let wr = unsafe { &mut *w };
        let (id, n) = (wr.id, wr.n);
        // Heartbeat: once per iteration. Parked workers iterate every
        // nap, so only a wedged (or task-monopolised) worker's freezes.
        bump(&wr.place.row(id)[shm::HEARTBEATS], 1, Ordering::Relaxed);
        // Scheduler-side join park [I12]: a fiber that suspended on a
        // join handed it to us; park it from this OS stack. If every
        // child had completed first, the fiber never really parked —
        // continue it right away.
        // SAFETY: [I8][I16] the suspended fiber's frame holds the block
        // (or the handle whose cell does) until its continuation is
        // resumed.
        if let Some(ctx) = unsafe { wr.pending_join.park() } {
            run_ctx::<P>(w, ctx);
            continue;
        }
        // Nothing of our own is left to run [I21]: a task ends or blocks
        // here only once its worker's deque is empty. Steal.
        wr.place.record(|| Event::Idle);
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
            let c = match got {
                Some(_) => shm::STEALS_COMPLETED,
                None => shm::STEALS_FAILED,
            };
            bump(&p.row(id)[c], 1, Ordering::Relaxed);
            p.record(|| Event::Steal(victim, got, phases));
            got
        };
        if let Some(ctx) = target {
            if idle.found() {
                bump(&wr.place.row(id)[shm::UNPARKS], 1, Ordering::Relaxed);
                wr.place.record(|| Event::Unpark);
            }
            run_ctx::<P>(w, ctx as *mut Context);
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
                (0..n).map(|v| &(*p).row(v)[shm::TASKS]),
                (0..n).map(|v| &(*p).row(v)[shm::SPAWNED]),
            )
        };
        // SAFETY: [I7] as above.
        let park = || unsafe {
            bump(&(*p).row(id)[shm::PARKS], 1, Ordering::Relaxed);
            (*p).record(|| Event::Park);
        };
        if idle.missed(scan, park) {
            let shutdown = wr.place.shutdown();
            shutdown.store(1, Ordering::Release);
            idle::futex_wake(shutdown);
            break;
        }
    }
    set_current(std::ptr::null_mut(), 0);
}

/// Run a ready continuation on `w`, saving the scheduler's own context
/// so tasks can bail back to this loop — on `w` again: the scheduler
/// context of a worker is resumed only by a task running on it.
fn run_ctx<P: Place>(w: *mut Worker<P>, target: *mut Context) {
    // SAFETY: [I5][I7][I9] the slot is this worker's own, on a stack
    // that never migrates; `target` is a live continuation handed to us
    // by a deque or a join; the saved scheduler context is resumed
    // exactly once (by whichever task runs out of local work here).
    let back = unsafe { switch_to(&raw mut (*w).sched_ctx, target, w.cast()) };
    collect_retired::<P>(back.cast());
}

/// Start a brand-new task (no saved context yet) from the scheduler.
fn run_fresh<P: Place>(w: *mut Worker<P>, rec: *mut TaskHeader<P::Stack>) {
    // SAFETY: [I5][I7][I9][I18][I19] scheduler context saved as in
    // `run_ctx`; the record is ours until this switch hands it to the
    // task, its `sp` 16-byte aligned above a fresh stack and below the
    // record; `entry` diverges.
    let back = unsafe {
        switch_to_fresh(
            &raw mut (*w).sched_ctx,
            (*rec).sp,
            (*rec).entry,
            rec as *mut c_void,
            w.cast(),
        )
    };
    collect_retired::<P>(back.cast());
}

#[cfg(test)]
pub(crate) mod tests {
    use super::{current, join_all, spawn_on, Body, Worker};
    use crate::join::JoinBlock;
    use crate::runtime::{Runtime, Threads};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    thread_local!(static LOOKUPS: Cell<u64> = const { Cell::new(0) });
    thread_local!(static PLACED: Cell<usize> = const { Cell::new(0) });

    /// Count one call of [`current`](super::current) on this thread.
    pub(super) fn looked_up() {
        LOOKUPS.with(|n| n.set(n.get() + 1));
    }

    /// The worker lookups this thread has made.
    #[inline(never)]
    pub(crate) fn lookups() -> u64 {
        LOOKUPS.with(Cell::get)
    }

    /// Note `body`, the address of the body in the record
    /// [`place_record`](super::place_record) just wrote on this thread.
    pub(super) fn placed(body: usize) {
        PLACED.with(|p| p.set(body));
    }

    /// A body that notes the `this` it runs with and the body address of
    /// the last record placed on its thread — its own, which its spawner
    /// wrote on this thread just before the switch to it — and then, if
    /// given a flag, holds its worker until the flag is raised.
    struct Probe<'a> {
        seen: &'a [AtomicUsize; 2],
        hold: Option<&'a AtomicBool>,
    }

    impl Body<Threads> for Probe<'_> {
        type Keep = ();

        unsafe fn run(this: *mut Self, w: *mut Worker<Threads>) -> (*mut Worker<Threads>, ()) {
            // SAFETY: [I18] the body of the running task's record.
            let p = unsafe { &*this };
            p.seen[0].store(this as usize, Ordering::Relaxed);
            p.seen[1].store(PLACED.with(Cell::get), Ordering::Relaxed);
            while p.hold.is_some_and(|h| !h.load(Ordering::Acquire)) {
                std::thread::yield_now();
            }
            (w, ())
        }
    }

    /// [I18]: a child's body runs where its spawner wrote it, in the
    /// record `place_record` returned — whether the exit pop resumes
    /// the spawner (one worker) or a thief does, while the child holds
    /// its worker (two workers).
    #[test]
    fn a_child_runs_its_body_in_place() {
        for workers in [1usize, 2] {
            let (this, placed, stolen) = Runtime::new(workers).run(move || {
                let seen = [AtomicUsize::new(0), AtomicUsize::new(0)];
                let resumed = AtomicBool::new(false);
                let jb = JoinBlock::new();
                let w = current::<Threads>();
                // SAFETY: [I7] one immutable field of our worker.
                let me = unsafe { (*w).id };
                let hold = (workers > 1).then_some(&resumed);
                let probe = Probe { seen: &seen, hold };
                // SAFETY: [I16] `jb`, `seen` and `resumed` are locals of
                // this frame, which joins the child before it ends.
                let w = unsafe { spawn_on::<Threads, _>(w, &jb, 0, probe) };
                // SAFETY: [I7] as above, on the worker that resumed us.
                let stolen = unsafe { (*w).id } != me;
                resumed.store(true, Ordering::Release);
                join_all::<Threads>(w, &jb);
                let [this, placed] = seen.map(AtomicUsize::into_inner);
                (this, placed, stolen)
            });
            assert_eq!(stolen, workers > 1, "workers={workers}");
            assert_ne!(placed, 0, "workers={workers}: no record placed");
            assert_eq!(this, placed, "workers={workers}: the body ran elsewhere");
        }
    }
}
