//! Native-runtime observation: the `uat-trace` layers and the timed
//! metrics tier wired into real fibers, through one observer per worker.
//!
//! The simulator charges every simulated cycle to a bucket as a side
//! effect of firing events; the native runtime has no central event
//! loop, so observation is *distributed*: each worker OS thread of an
//! observed run owns one `Observer`, touched only from that thread
//! (lock-free on the hot path). It reads the run's one [`RunClock`],
//! clamped monotone on this worker — raw TSC readings can regress
//! slightly across core migrations — and stamps each event once: the
//! stamp feeds the worker's [`Timeline`] on a traced run (the same
//! per-worker ring, account and open slice the simulator records
//! through) and the timed tier (`nmetrics::MetricsShared`: histograms
//! and flight rings) on a metered one, so the two report the same
//! cycles. The only state the tracer shares is the run-wide
//! `TraceShared`: the task/publication id allocators and the
//! continuation registry that lets a thief name the task it stole (the
//! registry is a mutex, taken only on deque publish/consume — spawn and
//! steal events, not per-cycle).
//!
//! When its loop exits, each worker closes its timeline and hands it
//! back through its thread's `JoinHandle`. `finalize` takes the global
//! makespan (the last task completion) and has every timeline tile
//! itself to it ([`Timeline::tile`]): tail slices are clipped, short
//! timelines are padded with idle, and in the drop-free case every
//! worker's buckets tile `[0, makespan)` exactly — the invariant the
//! profiler's DAG builder checks before accepting a trace.
//!
//! A worker reaches its observer only behind its place's observation
//! flag (`runtime::Threads::observe`), so the observer keeps no "am I
//! on?" test of its own: it exists only on an observed run.

use crate::nmetrics::{flight_code, MetricsShared};
use crate::sched::Event;
use crate::tsc::RunClock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use uat_base::{Cycles, StealOutcome, WorkerId};
use uat_deque::StealPhases;
use uat_trace::{Bucket, EventKind, StealPhase, TimeAccount, Timeline};

/// Run-wide trace state shared by all workers of one traced run.
pub(crate) struct TraceShared {
    ring_capacity: usize,
    next_task: AtomicU64,
    next_seq: AtomicU64,
    /// Continuation registry: deque entry (a `*mut Context` as u64)
    /// → (task id of the parked continuation, publication seq).
    /// Inserted at publish, removed at the pop/steal that consumes
    /// the entry.
    ctx_map: Mutex<HashMap<u64, (u64, u64)>>,
}

impl TraceShared {
    /// Trace state with `ring_capacity`-event rings.
    pub(crate) fn new(ring_capacity: usize) -> Arc<Self> {
        Arc::new(TraceShared {
            ring_capacity: ring_capacity.max(1),
            next_task: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            ctx_map: Mutex::new(HashMap::new()),
        })
    }

    /// Allocate a run-unique task id (ids start at 1; 0 means
    /// "untraced").
    pub(crate) fn alloc_task(&self) -> u64 {
        self.next_task.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// The run's clock as one worker reads it: clamped monotone.
struct Stamps {
    clock: RunClock,
    latest: Cycles,
}

impl Stamps {
    #[inline]
    fn now(&mut self) -> Cycles {
        self.latest = self.latest.max(Cycles(self.clock.now_cycles()));
        self.latest
    }

    /// A steal attempt's phase stamps — raw readings the deque took —
    /// clamped into this worker's monotone order.
    fn steal(&mut self, ph: &StealPhases) -> [Cycles; 4] {
        let start = Cycles(ph.start).max(self.latest);
        let checked = Cycles(ph.checked).max(start);
        let locked = Cycles(ph.locked).max(checked);
        self.latest = Cycles(ph.end).max(locked);
        [start, checked, locked, self.latest]
    }
}

/// One observed worker's observer: its stamps of the run's clock, its
/// tracer on a traced run and the run's timed tier on a metered one.
pub(crate) struct Observer {
    id: usize,
    stamps: Stamps,
    trace: Option<WorkerTracer>,
    metrics: Option<Arc<MetricsShared>>,
    /// Stamp of the open park episode.
    park_started: Cycles,
}

impl Observer {
    /// Worker `id`'s observer of a run clocked by `clock`, traced into
    /// `trace` and metered into `metrics` where given.
    pub(crate) fn new(
        clock: RunClock,
        id: usize,
        trace: Option<Arc<TraceShared>>,
        metrics: Option<Arc<MetricsShared>>,
    ) -> Self {
        Observer {
            id,
            stamps: Stamps {
                clock,
                latest: Cycles::ZERO,
            },
            trace: trace.map(|t| WorkerTracer::new(t, id)),
            metrics,
            park_started: Cycles::ZERO,
        }
    }

    /// The run's clock, for stamping steal phases inside the deque.
    pub(crate) fn clock(&self) -> RunClock {
        self.stamps.clock
    }

    /// A fiber body is about to start. Returns the begin stamp the
    /// task-end event carries back; a `Copy` local, so it survives the
    /// task's stack migrating between workers.
    #[cold]
    #[inline(never)]
    pub(crate) fn on_task_begin(&mut self, task: u64) -> u64 {
        #[cfg(test)]
        crate::runtime::tests::entered();
        let at = self.stamps.now();
        if let Some(t) = &mut self.trace {
            t.tl.switch(at, Bucket::Work);
            t.cur_task = task;
            t.tl.instant(at, EventKind::TaskBegin { task });
        }
        self.flight(at, flight_code::TASK_BEGIN, 0);
        at.get()
    }

    /// `spawn()` entered on the parent fiber: charge the spawn path,
    /// allocate and announce the child. Returns the child's trace id (0:
    /// untraced).
    #[cold]
    #[inline(never)]
    pub(crate) fn on_spawn(&mut self) -> u64 {
        #[cfg(test)]
        crate::runtime::tests::entered();
        let Some(t) = &mut self.trace else { return 0 };
        let at = self.stamps.now();
        t.tl.switch(at, Bucket::Spawn);
        let (parent, child) = (t.cur_task, t.shared.alloc_task());
        t.tl.instant(at, EventKind::Spawn { parent, child });
        child
    }

    /// Observe one scheduler event. An event takes at most one stamp,
    /// which the tracer and the timed tier share.
    #[cold]
    #[inline(never)]
    pub(crate) fn record(&mut self, e: Event<'_>) {
        #[cfg(test)]
        crate::runtime::tests::entered();
        let Observer {
            stamps,
            trace,
            metrics,
            park_started,
            ..
        } = self;
        let (at, code, payload) = match e {
            Event::Steal(victim, got, Some(ph)) => {
                let at = stamps.steal(&ph);
                if let Some(t) = trace {
                    t.steal_attempt(victim, got, at, ph.outcome);
                }
                let [start, .., end] = at;
                if let Some(m) = metrics {
                    m.steal_latency.record(end.since(start).get());
                }
                let code = match got {
                    Some(_) => flight_code::STEAL_OK,
                    None => flight_code::STEAL_FAIL,
                };
                (end, code, victim as u64)
            }
            Event::Park => {
                let at = stamps.now();
                *park_started = at;
                if let Some(t) = trace {
                    t.tl.instant(at, EventKind::Park);
                }
                (at, flight_code::PARK, 0)
            }
            Event::Unpark => {
                let at = stamps.now();
                if let Some(m) = metrics {
                    m.park_duration.record(at.since(*park_started).get());
                }
                if let Some(t) = trace {
                    t.tl.instant(at, EventKind::Unpark);
                }
                (at, flight_code::UNPARK, 0)
            }
            // The body returned: fall into the suspend/resume bucket
            // for the completion epilogue.
            Event::TaskEnd { task, born } => {
                let at = stamps.now();
                let run = at.since(Cycles(born));
                if let Some(m) = metrics {
                    m.task_run.record(run.get());
                }
                if let Some(t) = trace {
                    t.tl.switch(at, Bucket::SuspendResume);
                    t.tl.instant(at, EventKind::TaskEnd { task, run });
                }
                (at, flight_code::TASK_END, 0)
            }
            e => {
                if let Some(t) = trace {
                    t.record(&e, stamps);
                }
                return;
            }
        };
        self.flight(at, code, payload);
    }

    /// Push one record onto this worker's flight ring, on a metered run.
    #[inline]
    fn flight(&self, at: Cycles, code: u8, payload: u64) {
        if let Some(m) = &self.metrics {
            m.flight[self.id].0.push(at.get(), code, payload);
        }
    }

    /// The worker loop exited: close the last slice and hand back this
    /// worker's timeline, on a traced run.
    pub(crate) fn finish(mut self) -> Option<Timeline> {
        let end = self.stamps.now();
        self.trace.map(|mut t| {
            t.tl.switch(end, Bucket::Idle);
            t.tl
        })
    }
}

/// One traced worker's tracer: the task running now, over the worker's
/// timeline. Its observer stamps it.
struct WorkerTracer {
    shared: Arc<TraceShared>,
    tl: Timeline,
    /// Task id of the fiber currently running on this worker.
    cur_task: u64,
}

impl WorkerTracer {
    /// Tracer for worker `id` of the run `shared` traces.
    fn new(shared: Arc<TraceShared>, id: usize) -> Self {
        let mut tl = Timeline::new(WorkerId(id as u32));
        tl.install_ring(shared.ring_capacity);
        WorkerTracer {
            shared,
            tl,
            cur_task: 0,
        }
    }

    fn switch(&mut self, stamps: &mut Stamps, bucket: Bucket) {
        if bucket != self.tl.bucket() {
            self.tl.switch(stamps.now(), bucket);
        }
    }

    /// Trace one of the scheduler events only the tracer sees, stamping
    /// it from `stamps` where it needs a time.
    fn record(&mut self, e: &Event<'_>, stamps: &mut Stamps) {
        match *e {
            Event::Idle => self.switch(stamps, Bucket::Idle),
            // Registered *before* the push makes it stealable, so a
            // thief's commit always finds the publication; the
            // current task is still the parent.
            Event::Publish(ctx) => self.publish(stamps.now(), ctx, self.cur_task),
            Event::LocalPop(ctx) => self.local_pop(ctx),
            // The join edge: the waiter becomes the current task as
            // if it had been pushed and popped back.
            Event::JoinReady(jb, child, waiter) => {
                let parent = jb.waiter_task.load(Ordering::Relaxed);
                jb.enabler.store(child, Ordering::Relaxed);
                let at = stamps.now();
                let child = self.cur_task;
                self.tl.instant(at, EventKind::JoinReady { parent, child });
                self.publish(at, waiter, parent);
                self.local_pop(waiter);
            }
            // Charged to the suspend bucket; who parks is recorded
            // *before* `park` can expose the slot to the last child,
            // which reads it to name `JoinReady`.
            Event::Suspend(jb) => {
                let at = stamps.now();
                self.tl.switch(at, Bucket::SuspendResume);
                let task = self.cur_task;
                self.tl.instant(at, EventKind::Suspend { task });
                jb.waiter_task.store(task, Ordering::Relaxed);
            }
            // The resume edge, if the join parked (the enabling child
            // recorded itself; taken, so the block's next join
            // starts clean); otherwise the work slice just reopens.
            Event::Resumed(Some(jb)) => match jb.enabler.swap(0, Ordering::Relaxed) {
                0 => self.switch(stamps, Bucket::Work),
                child => {
                    let at = stamps.now();
                    let parent = self.cur_task;
                    self.tl.switch(at, Bucket::Work);
                    self.tl.instant(at, EventKind::JoinResume { parent, child });
                    self.tl.instant(at, EventKind::Resume { task: parent });
                }
            },
            Event::Resumed(None) => self.switch(stamps, Bucket::Work),
            // The observer times the rest; a traced run stamps every
            // steal.
            Event::Steal(..) | Event::Park | Event::Unpark | Event::TaskEnd { .. } => {}
        }
    }

    /// A continuation belonging to `task` was pushed into this
    /// worker's deque at `at` (stealable from now on): register it and
    /// emit `DequePublish`.
    fn publish(&mut self, at: Cycles, ctx: u64, task: u64) {
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        self.shared.ctx_map.lock().unwrap().insert(ctx, (task, seq));
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

    /// One phase-stamped steal attempt on `victim` finished, at the
    /// clamped stamps `[start, checked, locked, end]`: emit the phase
    /// spans (charged to the matching steal buckets), the outcome,
    /// and — on success — the `StealCommit` naming the stolen task.
    fn steal_attempt(
        &mut self,
        victim: usize,
        ctx: Option<u64>,
        [start, checked, locked, end]: [Cycles; 4],
        outcome: StealOutcome,
    ) {
        let victim = WorkerId(victim as u32);
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
                outcome,
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

/// Tile the workers' closed `timelines`, in worker order, of a run
/// clocked by `clock` into a [`NativeTrace`].
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
pub(crate) fn finalize(clock: RunClock, timelines: Vec<Timeline>) -> NativeTrace {
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
    NativeTrace {
        data: uat_trace::TraceData {
            clock_hz: clock.hz(),
            clock_source: clock.source(),
            workers: rings,
            fabric: Vec::new(),
            makespan,
        },
        accounts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uat_metrics::names;

    /// One stamp per event feeds both tiers. Driven by hand on one
    /// thread, an observer's histograms sum to exactly what its timeline
    /// records — for a steal whose raw stamps the deque read before the
    /// worker's latest stamp too, which both see clamped — its flight
    /// ring holds one record per timed event, and the closed timeline
    /// tiles the makespan.
    #[test]
    fn one_stamp_feeds_the_timeline_and_the_timed_tier() {
        let clock = RunClock::start();
        let metrics = Arc::new(MetricsShared::new(1, None));
        let trace = Some(TraceShared::new(1 << 10));
        let mut o = Observer::new(clock, 0, trace, Some(Arc::clone(&metrics)));
        let phases = |start, end, outcome| StealPhases {
            start,
            checked: start,
            locked: end,
            end,
            outcome,
        };
        let stale = clock.now_cycles();
        o.record(Event::Idle);
        o.record(Event::Park);
        let fresh = clock.now_cycles();
        o.record(Event::Steal(
            1,
            None,
            Some(phases(stale, fresh, StealOutcome::AbortEmpty)),
        ));
        let (start, end) = (clock.now_cycles(), clock.now_cycles());
        o.record(Event::Steal(
            1,
            None,
            Some(phases(start, end, StealOutcome::AbortLock)),
        ));
        o.record(Event::Unpark);
        let born = o.on_task_begin(1);
        o.record(Event::TaskEnd { task: 1, born });
        let t = finalize(clock, vec![o.finish().expect("a traced observer")]);

        let (mut run, mut latency) = (Vec::new(), Vec::new());
        for e in t.data.events() {
            match e.kind {
                EventKind::TaskEnd { run: r, .. } => run.push(r.get()),
                EventKind::StealResult { latency: l, .. } => latency.push(l.get()),
                _ => {}
            }
        }
        let snap = metrics.registry.snapshot();
        let hist = |name| snap.histogram(name).expect("registered").clone();
        let (run_hist, steal_hist) = (hist(names::TASK_RUN), hist(names::STEAL_LATENCY));
        assert_eq!((run_hist.count(), steal_hist.count()), (1, 2));
        assert_eq!(run_hist.sum(), run.iter().sum::<u64>());
        assert_eq!(steal_hist.sum(), latency.iter().sum::<u64>());
        assert_eq!(hist(names::PARK_DURATION).count(), 1);
        assert_eq!(metrics.flight[0].0.snapshot().len(), 6);
        assert_eq!(t.accounts[0].total(), t.data.makespan);
    }
}
