//! Native-runtime tracing: the `uat-trace` layers wired into real
//! fibers.
//!
//! The simulator charges every simulated cycle to a bucket as a side
//! effect of firing events; the native runtime has no central event
//! loop, so tracing is *distributed*: each worker OS thread owns a
//! [`WorkerTracer`] — a bounded event ring, a [`TimeAccount`], and the
//! open-slice cursor — touched only from that thread (lock-free on the
//! hot path). The only shared state is the run-wide [`TraceShared`]: the
//! calibrated epoch clock, the task/publication id allocators, and the
//! continuation registry that lets a thief name the task it stole (the
//! registry is a mutex, taken only on deque publish/consume — spawn and
//! steal events, not per-cycle).
//!
//! Timestamps are cycles since the run epoch ([`RunClock`]); raw TSC
//! readings can regress slightly across core migrations, so each tracer
//! clamps its own timeline monotone. At the end of the run
//! [`finalize`] normalizes the per-worker timelines against the global
//! makespan (the last task completion) exactly the way the simulator's
//! `TraceCtl::finalize` does: tail slices are clipped, short timelines
//! are padded with idle, and in the drop-free case every worker's
//! buckets tile `[0, makespan)` exactly — the invariant the profiler's
//! DAG builder checks before accepting a trace.
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
use uat_trace::{Bucket, EventKind, RingBuffer, StealPhase, TimeAccount, TraceEvent};

/// Default per-worker ring capacity for traced native runs.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// What one worker deposits when its loop exits.
pub struct WorkerDeposit {
    /// The worker's event ring.
    pub ring: RingBuffer,
    /// The worker's running bucket account (complete even if the
    /// ring dropped events).
    pub account: TimeAccount,
    /// The worker's final charge timestamp (cycles since epoch).
    pub end: u64,
}

/// Run-wide trace state shared by all workers of one traced run.
pub struct TraceShared {
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
    deposits: Mutex<Vec<Option<WorkerDeposit>>>,
}

impl TraceShared {
    /// Trace state for `workers` workers with `ring_capacity`-event
    /// rings. Starts the run epoch.
    pub fn new(workers: usize, ring_capacity: usize) -> Arc<Self> {
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
    pub fn alloc_task(&self) -> u64 {
        self.next_task.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Events evicted from each worker's ring, indexed by worker
    /// (workers that have not deposited yet read as 0). Meaningful
    /// once the worker loops have exited — i.e. after the runtime
    /// joined its threads, before or after [`finalize`].
    pub fn dropped_per_worker(&self) -> Vec<u64> {
        self.deposits
            .lock()
            .unwrap()
            .iter()
            .map(|s| s.as_ref().map_or(0, |d| d.ring.dropped()))
            .collect()
    }
}

/// One traced worker's tracer, living in its place's observers and
/// touched only by its own thread: the open slice, the monotone
/// clock clamp and the task running now, over a ring and an account.
pub struct WorkerTracer {
    shared: Arc<TraceShared>,
    worker: WorkerId,
    ring: RingBuffer,
    account: TimeAccount,
    /// Bucket of the open slice.
    bucket: Bucket,
    /// Start of the open slice.
    since: u64,
    /// Monotone clamp over raw clock readings.
    latest: u64,
    /// Task id of the fiber currently running on this worker.
    cur_task: u64,
}

impl WorkerTracer {
    /// Tracer for worker `id` of the run `shared` traces.
    pub(crate) fn new(shared: &Arc<TraceShared>, id: usize) -> Self {
        WorkerTracer {
            shared: Arc::clone(shared),
            worker: WorkerId(id as u32),
            ring: RingBuffer::new(shared.ring_capacity),
            account: TimeAccount::new(),
            bucket: Bucket::Idle,
            since: 0,
            latest: 0,
            cur_task: 0,
        }
    }

    #[inline]
    fn now(&mut self) -> u64 {
        let raw = self.shared.clock.now_cycles();
        if raw > self.latest {
            self.latest = raw;
        }
        self.latest
    }

    #[inline]
    fn instant(&mut self, at: u64, kind: EventKind) {
        self.ring
            .push(TraceEvent::instant(Cycles(at), self.worker, kind));
    }

    /// Close the open slice at `t` and open a new one in `bucket`.
    fn switch_at(&mut self, t: u64, bucket: Bucket) {
        if t > self.since {
            let dur = t - self.since;
            self.ring.push(TraceEvent::span(
                Cycles(self.since),
                Cycles(dur),
                self.worker,
                EventKind::Slice {
                    bucket: self.bucket,
                },
            ));
            self.account.charge(self.bucket, Cycles(dur));
            self.since = t;
        }
        self.bucket = bucket;
    }

    fn switch(&mut self, bucket: Bucket) {
        if bucket == self.bucket {
            return;
        }
        let t = self.now();
        self.switch_at(t, bucket);
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
        self.switch_at(at, Bucket::Work);
        self.cur_task = task;
        self.instant(at, EventKind::TaskBegin { task });
        at
    }

    /// `spawn()` entered on the parent fiber: charge the spawn path,
    /// allocate and announce the child. Returns the child task id.
    pub(crate) fn on_spawn(&mut self) -> u64 {
        let at = self.now();
        self.switch_at(at, Bucket::Spawn);
        let child = self.shared.alloc_task();
        let parent = self.cur_task;
        self.instant(at, EventKind::Spawn { parent, child });
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
                self.instant(at, EventKind::Park);
            }
            Event::Unpark => {
                let at = self.now();
                self.instant(at, EventKind::Unpark);
            }
            // Registered *before* the push makes it stealable, so a
            // thief's commit always finds the publication; the
            // current task is still the parent.
            Event::Publish(ctx) => self.publish(ctx, self.cur_task),
            // The body returned: fall into the suspend/resume bucket
            // for the completion epilogue.
            Event::TaskEnd { task, born } => {
                let at = self.now();
                self.switch_at(at, Bucket::SuspendResume);
                let run = Cycles(at.saturating_sub(born[0]));
                self.instant(at, EventKind::TaskEnd { task, run });
            }
            Event::LocalPop(ctx) => self.local_pop(ctx),
            // The join edge: the waiter becomes the current task as
            // if it had been pushed and popped back.
            Event::JoinReady(jb, child, waiter) => {
                let parent = jb.waiter_task.load(Ordering::Relaxed);
                jb.enabler.store(child, Ordering::Relaxed);
                let at = self.now();
                let child = self.cur_task;
                self.instant(at, EventKind::JoinReady { parent, child });
                self.publish(waiter, parent);
                self.local_pop(waiter);
            }
            // Charged to the suspend bucket; who parks is recorded
            // *before* `park` can expose the slot to the last child,
            // which reads it to name `JoinReady`.
            Event::Suspend(jb) => {
                let at = self.now();
                self.switch_at(at, Bucket::SuspendResume);
                let task = self.cur_task;
                self.instant(at, EventKind::Suspend { task });
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
                    self.switch_at(at, Bucket::Work);
                    self.instant(at, EventKind::JoinResume { parent, child });
                    self.instant(at, EventKind::Resume { task: parent });
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
        self.instant(at, EventKind::DequePublish { task, seq });
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
        let start = ph.start.clamp(self.latest, u64::MAX);
        let checked = ph.checked.clamp(start, u64::MAX);
        let locked = ph.locked.clamp(checked, u64::MAX);
        let end = ph.end.clamp(locked, u64::MAX);
        self.latest = end;
        // Close the open (idle) slice at the attempt start, then
        // tile the attempt with its phases.
        self.switch_at(start, Bucket::Idle);
        let worker = self.worker;
        let mut phase_span = |from: u64, to: u64, phase: StealPhase, bucket: Bucket| {
            if to > from {
                let dur = Cycles(to - from);
                let phase = EventKind::StealPhase { victim, phase };
                self.ring
                    .push(TraceEvent::span(Cycles(from), dur, worker, phase));
                let slice = EventKind::Slice { bucket };
                self.ring
                    .push(TraceEvent::span(Cycles(from), dur, worker, slice));
                self.account.charge(bucket, dur);
            }
        };
        phase_span(start, checked, StealPhase::EmptyCheck, Bucket::StealEmpty);
        phase_span(checked, locked, StealPhase::Lock, Bucket::StealLock);
        phase_span(locked, end, StealPhase::Steal, Bucket::StealEntry);
        self.since = end;
        self.bucket = Bucket::Idle;
        let latency = Cycles(end - start);
        self.instant(
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
                self.instant(end, EventKind::StealCommit { task, seq });
            }
        }
    }

    /// The worker loop exited: close the last slice and deposit this
    /// worker's timeline into the shared state.
    pub(crate) fn finish(mut self) {
        let end = self.now();
        self.switch_at(end, Bucket::Idle);
        let deposit = WorkerDeposit {
            ring: self.ring,
            account: self.account,
            end,
        };
        let idx = self.worker.index();
        let mut deps = self.shared.deposits.lock().unwrap();
        if let Some(slot) = deps.get_mut(idx) {
            *slot = Some(deposit);
        }
    }
}

/// A finalized native trace: exportable [`TraceData`] plus the
/// per-worker accounts kept *outside* the rings (complete even when
/// rings dropped events).
pub struct NativeTrace {
    /// The trace, normalized so the profiler's DAG builder accepts
    /// it (slices tile `[0, makespan)`, last `TaskEnd` at the
    /// makespan).
    pub data: uat_trace::TraceData,
    /// Per-worker bucket accounts. Drop-free runs tile the makespan
    /// exactly; runs whose rings dropped events keep the running
    /// totals (tail-trimmed), which may differ by the trim residue.
    pub accounts: Vec<TimeAccount>,
}

/// Normalize the per-worker deposits into a [`NativeTrace`].
///
/// The makespan is the latest `TaskEnd` across workers (the root's
/// completion, modulo cross-core clock skew). Each worker's *slices*
/// are clipped to `[0, makespan]` — dropping post-makespan shutdown
/// idling — and padded with a final idle slice if its own clock fell
/// short; drop-free accounts are rebuilt from the clipped slices so
/// they tile the makespan *exactly*. Instants are **never** dropped:
/// workers keep running the scheduler loop between the last `TaskEnd`
/// and the shutdown flag (raised by the first of them to spin out and
/// pass the termination scan; a napping peer sees it a nap later),
/// and the steal attempts made in that window are
/// real — the always-on metrics counters see them, so the trace must
/// too or the two disagree on every count (clipping only affects the
/// time *accounting*, which instants don't participate in).
pub fn finalize(shared: &Arc<TraceShared>) -> NativeTrace {
    let mut deps: Vec<WorkerDeposit> = {
        let mut slots = shared.deposits.lock().unwrap();
        slots
            .iter_mut()
            .map(|s| {
                s.take().unwrap_or(WorkerDeposit {
                    ring: RingBuffer::new(1),
                    account: TimeAccount::new(),
                    end: 0,
                })
            })
            .collect()
    };
    let makespan = deps
        .iter()
        .flat_map(|d| d.ring.iter())
        .filter_map(|ev| match ev.kind {
            EventKind::TaskEnd { .. } => Some(ev.at.get()),
            _ => None,
        })
        .max()
        .unwrap_or(0);

    let mut rings = Vec::with_capacity(deps.len());
    let mut accounts = Vec::with_capacity(deps.len());
    for d in deps.iter_mut() {
        let dropped = d.ring.dropped();
        let mut out = RingBuffer::new(d.ring.capacity().max(d.ring.len() + 2));
        let mut rebuilt = TimeAccount::new();
        let mut covered = 0u64;
        for ev in d.ring.iter() {
            let at = ev.at.get();
            if ev.dur.get() > 0 {
                if at >= makespan {
                    continue;
                }
                let end = (at + ev.dur.get()).min(makespan);
                let clipped = TraceEvent::span(ev.at, Cycles(end - at), ev.worker, ev.kind);
                out.push(clipped);
                if let EventKind::Slice { bucket } = ev.kind {
                    rebuilt.charge(bucket, Cycles(end - at));
                    covered = covered.max(end);
                }
            } else {
                // Instants: keep unconditionally (see doc above).
                out.push(*ev);
            }
        }
        if covered < makespan {
            out.push(TraceEvent::span(
                Cycles(covered),
                Cycles(makespan - covered),
                uat_base::WorkerId(rings.len() as u32),
                EventKind::Slice {
                    bucket: Bucket::Idle,
                },
            ));
            rebuilt.charge(Bucket::Idle, Cycles(makespan - covered));
        }
        let account = if dropped == 0 {
            rebuilt
        } else {
            out.note_dropped(dropped);
            // Keep the running account (complete despite the ring
            // drops) with the post-makespan idle tail trimmed off.
            let excess = d.end.saturating_sub(makespan);
            let mut trimmed = TimeAccount::new();
            for b in Bucket::ALL {
                let mut v = d.account.get(b).get();
                if b == Bucket::Idle {
                    v = v.saturating_sub(excess);
                }
                trimmed.charge(b, Cycles(v));
            }
            trimmed
        };
        rings.push(out);
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
            makespan: Cycles(makespan),
        },
        accounts,
    }
}
