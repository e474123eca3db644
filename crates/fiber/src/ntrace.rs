//! Native-runtime tracing: the `uat-trace` layers wired into real
//! fibers.
//!
//! The simulator charges every simulated cycle to a bucket as a side
//! effect of firing events; the native runtime has no central event
//! loop, so tracing is *distributed*: each worker OS thread owns a
//! `WorkerTracer` over its own [`Timeline`] — the same per-worker
//! ring, account and open slice the simulator records through — touched
//! only from that thread (lock-free on the hot path). The only shared
//! state is the run-wide `TraceShared`: the calibrated epoch clock,
//! the task/publication id allocators, and the continuation registry
//! that lets a thief name the task it stole (the registry is a mutex,
//! taken only on deque publish/consume — spawn and steal events, not
//! per-cycle).
//!
//! Timestamps are cycles since the run epoch ([`RunClock`]); raw TSC
//! readings can regress slightly across core migrations, so each tracer
//! clamps its own timeline monotone. At the end of the run
//! `finalize` takes the global makespan (the last task completion)
//! and has every timeline tile itself to it ([`Timeline::tile`]): tail
//! slices are clipped, short timelines are padded with idle, and in the
//! drop-free case every worker's buckets tile `[0, makespan)` exactly —
//! the invariant the profiler's DAG builder checks before accepting a
//! trace.
//!
//! A worker reaches its tracer only behind its place's observation flag
//! (`runtime::Threads::observe`), so the tracer itself keeps no "am I
//! on?" test: it exists only on a traced run.

use crate::sched::Event;
use crate::tsc::{ClockSource, RunClock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use uat_base::{Cycles, WorkerId};
use uat_deque::StealPhases;
use uat_trace::{Bucket, EventKind, StealPhase, TimeAccount, Timeline};

/// Run-wide trace state shared by all workers of one traced run.
pub(crate) struct TraceShared {
    /// The run's epoch clock.
    pub clock: RunClock,
    ring_capacity: usize,
    next_task: AtomicU64,
    next_seq: AtomicU64,
    /// Continuation registry: deque entry (a `*mut Context` as u64)
    /// → (task id of the parked continuation, publication seq).
    /// Inserted at publish, removed at the pop/steal that consumes
    /// the entry.
    ctx_map: Mutex<HashMap<u64, (u64, u64)>>,
    /// Each worker's closed timeline, deposited when its loop exits.
    deposits: Mutex<Vec<Option<Timeline>>>,
}

impl TraceShared {
    /// Trace state for `workers` workers with `ring_capacity`-event
    /// rings. Starts the run epoch.
    pub(crate) fn new(workers: usize, ring_capacity: usize) -> Arc<Self> {
        Arc::new(TraceShared {
            clock: RunClock::start(),
            ring_capacity: ring_capacity.max(1),
            next_task: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            ctx_map: Mutex::new(HashMap::new()),
            deposits: Mutex::new((0..workers).map(|_| None).collect()),
        })
    }

    /// Allocate a run-unique task id (ids start at 1; 0 means
    /// "untraced").
    pub(crate) fn alloc_task(&self) -> u64 {
        self.next_task.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// One traced worker's tracer, living in its place's observers and
/// touched only by its own thread: the monotone clock clamp and the
/// task running now, over the worker's timeline.
pub(crate) struct WorkerTracer {
    shared: Arc<TraceShared>,
    tl: Timeline,
    /// Monotone clamp over raw clock readings.
    latest: Cycles,
    /// Task id of the fiber currently running on this worker.
    cur_task: u64,
}

impl WorkerTracer {
    /// Tracer for worker `id` of the run `shared` traces.
    pub(crate) fn new(shared: &Arc<TraceShared>, id: usize) -> Self {
        let mut tl = Timeline::new(WorkerId(id as u32));
        tl.install_ring(shared.ring_capacity);
        WorkerTracer {
            shared: Arc::clone(shared),
            tl,
            latest: Cycles::ZERO,
            cur_task: 0,
        }
    }

    #[inline]
    fn now(&mut self) -> Cycles {
        self.latest = self.latest.max(Cycles(self.shared.clock.now_cycles()));
        self.latest
    }

    fn switch(&mut self, bucket: Bucket) {
        if bucket != self.tl.bucket() {
            let t = self.now();
            self.tl.switch(t, bucket);
        }
    }

    /// The run's epoch clock, for stamping steal phases inside the
    /// deque.
    pub(crate) fn clock(&self) -> RunClock {
        self.shared.clock
    }

    /// A fiber body is about to start: emit `TaskBegin`, make `task`
    /// current, open a `Work` slice. Returns the begin timestamp
    /// (the task-end event carries it back for the run length).
    pub(crate) fn on_task_begin(&mut self, task: u64) -> u64 {
        let at = self.now();
        self.tl.switch(at, Bucket::Work);
        self.cur_task = task;
        self.tl.instant(at, EventKind::TaskBegin { task });
        at.get()
    }

    /// `spawn()` entered on the parent fiber: charge the spawn path,
    /// allocate and announce the child. Returns the child task id.
    pub(crate) fn on_spawn(&mut self) -> u64 {
        let at = self.now();
        self.tl.switch(at, Bucket::Spawn);
        let child = self.shared.alloc_task();
        let parent = self.cur_task;
        self.tl.instant(at, EventKind::Spawn { parent, child });
        child
    }

    /// Trace one scheduler event (every kind but `Exit`, which is
    /// [`finish`](Self::finish)).
    pub(crate) fn record(&mut self, e: &Event<'_>) {
        match *e {
            Event::Steal(victim, got, Some(ref ph)) => self.steal_attempt(victim, got, ph),
            // A traced run stamps every steal.
            Event::Steal(_, _, None) | Event::Exit => {}
            Event::Idle => self.switch(Bucket::Idle),
            Event::Park => {
                let at = self.now();
                self.tl.instant(at, EventKind::Park);
            }
            Event::Unpark => {
                let at = self.now();
                self.tl.instant(at, EventKind::Unpark);
            }
            // Registered *before* the push makes it stealable, so a
            // thief's commit always finds the publication; the
            // current task is still the parent.
            Event::Publish(ctx) => self.publish(ctx, self.cur_task),
            // The body returned: fall into the suspend/resume bucket
            // for the completion epilogue.
            Event::TaskEnd { task, born } => {
                let at = self.now();
                self.tl.switch(at, Bucket::SuspendResume);
                let run = at.since(Cycles(born[0]));
                self.tl.instant(at, EventKind::TaskEnd { task, run });
            }
            Event::LocalPop(ctx) => self.local_pop(ctx),
            // The join edge: the waiter becomes the current task as
            // if it had been pushed and popped back.
            Event::JoinReady(jb, child, waiter) => {
                let parent = jb.waiter_task.load(Ordering::Relaxed);
                jb.enabler.store(child, Ordering::Relaxed);
                let at = self.now();
                let child = self.cur_task;
                self.tl.instant(at, EventKind::JoinReady { parent, child });
                self.publish(waiter, parent);
                self.local_pop(waiter);
            }
            // Charged to the suspend bucket; who parks is recorded
            // *before* `park` can expose the slot to the last child,
            // which reads it to name `JoinReady`.
            Event::Suspend(jb) => {
                let at = self.now();
                self.tl.switch(at, Bucket::SuspendResume);
                let task = self.cur_task;
                self.tl.instant(at, EventKind::Suspend { task });
                jb.waiter_task.store(task, Ordering::Relaxed);
            }
            // The resume edge, if the join parked (the enabling child
            // recorded itself; taken, so the block's next join
            // starts clean); otherwise the work slice just reopens.
            Event::Resumed(Some(jb)) => match jb.enabler.swap(0, Ordering::Relaxed) {
                0 => self.switch(Bucket::Work),
                child => {
                    let at = self.now();
                    let parent = self.cur_task;
                    self.tl.switch(at, Bucket::Work);
                    self.tl.instant(at, EventKind::JoinResume { parent, child });
                    self.tl.instant(at, EventKind::Resume { task: parent });
                }
            },
            Event::Resumed(None) => self.switch(Bucket::Work),
        }
    }

    /// A continuation belonging to `task` was pushed into this
    /// worker's deque (stealable from now on): register it and emit
    /// `DequePublish`.
    fn publish(&mut self, ctx: u64, task: u64) {
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        self.shared.ctx_map.lock().unwrap().insert(ctx, (task, seq));
        let at = self.now();
        self.tl.instant(at, EventKind::DequePublish { task, seq });
    }

    /// This worker popped `ctx` from its own deque, or was handed
    /// it by a join: unregister it and make its task current (no
    /// event — a local resume is not a steal).
    fn local_pop(&mut self, ctx: u64) {
        if let Some((task, _seq)) = self.shared.ctx_map.lock().unwrap().remove(&ctx) {
            self.cur_task = task;
        }
    }

    /// One phase-stamped steal attempt finished: emit the phase
    /// spans (charged to the matching steal buckets), the outcome,
    /// and — on success — the `StealCommit` naming the stolen task.
    fn steal_attempt(&mut self, victim: usize, ctx: Option<u64>, ph: &StealPhases) {
        let victim = WorkerId(victim as u32);
        // Clamp the deque's raw clock readings into this worker's
        // monotone timeline.
        let start = Cycles(ph.start).max(self.latest);
        let checked = Cycles(ph.checked).max(start);
        let locked = Cycles(ph.locked).max(checked);
        let end = Cycles(ph.end).max(locked);
        self.latest = end;
        // Close the open (idle) slice at the attempt start, then
        // tile the attempt with its phases.
        self.tl.charge(start);
        for (from, to, phase, bucket) in [
            (start, checked, StealPhase::EmptyCheck, Bucket::StealEmpty),
            (checked, locked, StealPhase::Lock, Bucket::StealLock),
            (locked, end, StealPhase::Steal, Bucket::StealEntry),
        ] {
            if to > from {
                let phase = EventKind::StealPhase { victim, phase };
                self.tl.span(from, to - from, phase);
                self.tl.set_bucket(bucket);
                self.tl.charge(to);
            }
        }
        self.tl.set_bucket(Bucket::Idle);
        let latency = end - start;
        self.tl.instant(
            end,
            EventKind::StealResult {
                victim,
                outcome: ph.outcome,
                latency,
            },
        );
        if let Some(ctx) = ctx {
            let hit = self.shared.ctx_map.lock().unwrap().remove(&ctx);
            if let Some((task, seq)) = hit {
                self.cur_task = task;
                self.tl.instant(end, EventKind::StealCommit { task, seq });
            }
        }
    }

    /// The worker loop exited: close the last slice and deposit this
    /// worker's timeline into the shared state.
    pub(crate) fn finish(mut self) {
        let end = self.now();
        self.tl.switch(end, Bucket::Idle);
        let idx = self.tl.worker().index();
        let mut deps = self.shared.deposits.lock().unwrap();
        if let Some(slot) = deps.get_mut(idx) {
            *slot = Some(self.tl);
        }
    }
}

/// A finalized native trace: exportable [`TraceData`](uat_trace::TraceData) plus the
/// per-worker accounts kept *outside* the rings (complete even when
/// rings dropped events).
pub struct NativeTrace {
    /// The trace, normalized so the profiler's DAG builder accepts
    /// it (slices tile `[0, makespan)`, last `TaskEnd` at the
    /// makespan).
    pub data: uat_trace::TraceData,
    /// Per-worker bucket accounts. Drop-free runs tile the makespan
    /// exactly; runs whose rings dropped events keep the running
    /// totals, idle-padded or idle-trimmed to the makespan, which may
    /// differ from it by the trim residue.
    pub accounts: Vec<TimeAccount>,
}

/// Tile the per-worker timelines into a [`NativeTrace`].
///
/// The makespan is the latest `TaskEnd` across workers (the root's
/// completion, modulo cross-core clock skew), and every timeline is
/// [tiled](Timeline::tile) to it: slices past it are clipped —
/// dropping post-makespan shutdown idling — and a timeline whose own
/// clock fell short is padded with idle. Instants are **never**
/// dropped: workers keep running the scheduler loop between the last
/// `TaskEnd` and the shutdown flag (raised by the first of them to spin
/// out and pass the termination scan; a napping peer sees it a nap
/// later), and the steal attempts made in that window are real — the
/// always-on metrics counters see them, so the trace must too or the
/// two disagree on every count (clipping only affects the time
/// *accounting*, which instants don't participate in).
pub(crate) fn finalize(shared: &Arc<TraceShared>) -> NativeTrace {
    let deposits = std::mem::take(&mut *shared.deposits.lock().unwrap());
    let timelines: Vec<Timeline> = deposits
        .into_iter()
        .map(|tl| tl.expect("every worker deposits its timeline on exit"))
        .collect();
    let makespan = timelines
        .iter()
        .flat_map(|tl| tl.ring().into_iter().flat_map(|r| r.iter()))
        .filter_map(|ev| match ev.kind {
            EventKind::TaskEnd { .. } => Some(ev.at),
            _ => None,
        })
        .max()
        .unwrap_or(Cycles::ZERO);
    let (mut rings, mut accounts) = (Vec::new(), Vec::new());
    for mut tl in timelines {
        tl.tile(makespan);
        let (ring, account) = tl.into_parts();
        rings.extend(ring);
        accounts.push(account);
    }
    let clock_source = match shared.clock.source() {
        ClockSource::Tsc => uat_trace::ClockSource::Tsc,
        ClockSource::Instant => uat_trace::ClockSource::Instant,
    };
    NativeTrace {
        data: uat_trace::TraceData {
            clock_hz: shared.clock.hz(),
            clock_source,
            workers: rings,
            fabric: Vec::new(),
            makespan,
        },
        accounts,
    }
}
