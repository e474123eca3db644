//! The engine's one observer: everything a run records about itself.
//!
//! [`TraceCtl`] owns one [`Timeline`] per worker (its time account,
//! every simulated cycle charged to one [`Bucket`], and its event
//! ring), one counter row per worker, the Figure 10
//! [`StealBreakdown`], one machine-wide steal-latency and one
//! task-run-length histogram. Each engine site makes one call here, and
//! each fact is counted once, in its worker's row: `RunStats`' totals
//! and the breakdown's outcome counts are sums over the rows. The
//! accounts, rows and histograms are kept on every run; the rings, and
//! with them every structured event, are present only when
//! `Engine::with_tracing` (or the auditor's flight recorder) installed
//! them. A registry attached by `Engine::with_metrics` is
//! filled from the rows and histograms once, when the run finishes, so
//! the event loop itself does no atomics.
//!
//! Per-task state lives in the task's own record, not here: its birth
//! stamp, the sequence number of its latest deque publication, and the
//! child that made its join ready. The observer keeps nothing that
//! grows with the number of tasks.
//!
//! # Charging model
//!
//! The engine is a one-event-per-worker automaton: each handler performs
//! instantaneous protocol work and schedules exactly one completion via
//! `Engine::set`, which records the [`Bucket`] the upcoming span belongs
//! to. When the event fires, [`TraceCtl::charge`] has the worker's
//! timeline close the span `[last_fire, now)` — first to any *carry*
//! slots registered for costs embedded at the start of the span (FAA
//! queueing, parking a blocked joiner), then the remainder to the
//! pending bucket. [`TraceCtl::finalize`] charges the final partial
//! span up to the makespan, so each worker's bucket totals sum exactly
//! to the makespan.

use crate::metrics::WorkerSummary;
use crate::task::TaskId64;
use std::sync::Arc;
use uat_base::{Cycles, WorkerId};
use uat_core::StealBreakdown;
use uat_metrics::{names, shm, HistSnapshot, HistSummary, Registry};
use uat_trace::{Bucket, EventKind, RingBuffer, StealOutcome, StealPhase, Timeline};

/// One worker's counts, and the stamp its open steal attempt's latency
/// is measured from.
#[derive(Clone, Copy, Default)]
struct Row {
    /// Steal attempts issued.
    attempts: u64,
    /// Steal attempts resolved, indexed by [`StealOutcome`].
    outcomes: [u64; 4],
    /// Children begun here (the root is installed, not spawned).
    spawned: u64,
    /// Tasks that completed here.
    ended: u64,
    /// When the current steal attempt was issued.
    attempt_start: Cycles,
}

impl Row {
    fn completed(&self) -> u64 {
        self.outcomes[StealOutcome::Completed as usize]
    }

    fn failed(&self) -> u64 {
        self.outcomes.iter().sum::<u64>() - self.completed()
    }
}

/// What the observer hands `RunStats` when the run is over.
pub(crate) struct Observed {
    pub per_worker: Vec<WorkerSummary>,
    pub breakdown: StealBreakdown,
    pub steal_latency: HistSummary,
    pub task_run_length: HistSummary,
    /// Each worker's ring, on a traced run (empty otherwise).
    pub rings: Vec<RingBuffer>,
}

/// Observation state for one run.
pub(crate) struct TraceCtl {
    registry: Option<Arc<Registry>>,
    timelines: Vec<Timeline>,
    rows: Vec<Row>,
    breakdown: StealBreakdown,
    steal_latency: HistSnapshot,
    run_length: HistSnapshot,
    /// Last deque-publication sequence number handed out (unique per
    /// run; 0 means "never published").
    pub_next: u64,
}

impl TraceCtl {
    pub fn new(workers: usize) -> Self {
        TraceCtl {
            registry: None,
            timelines: (0..workers)
                .map(|w| Timeline::new(WorkerId(w as u32)))
                .collect(),
            rows: vec![Row::default(); workers],
            breakdown: StealBreakdown::new(),
            steal_latency: HistSnapshot::empty(),
            run_length: HistSnapshot::empty(),
            pub_next: 0,
        }
    }

    /// Publish this run's counts and histograms into `registry` when it
    /// finishes.
    pub fn attach_registry(&mut self, registry: &Arc<Registry>) {
        assert!(
            registry.workers() >= self.rows.len(),
            "registry built for {} workers, engine has {}",
            registry.workers(),
            self.rows.len()
        );
        self.registry = Some(Arc::clone(registry));
    }

    /// Record structured events from now on, `capacity` per worker.
    pub fn install_rings(&mut self, capacity: usize) {
        for tl in &mut self.timelines {
            tl.install_ring(capacity);
        }
    }

    pub fn is_traced(&self) -> bool {
        self.timelines[0].is_traced()
    }

    /// Hand over the rings recorded so far (the flight recorder's
    /// post-mortem).
    pub fn take_rings(&mut self) -> Vec<RingBuffer> {
        self.timelines
            .iter_mut()
            .filter_map(Timeline::take_ring)
            .collect()
    }

    #[inline]
    fn emit(&mut self, w: WorkerId, at: Cycles, kind: EventKind) {
        self.timelines[w.index()].instant(at, kind);
    }

    /// Record which bucket the span scheduled by `Engine::set` belongs to.
    #[inline]
    pub fn set_bucket(&mut self, w: WorkerId, bucket: Bucket) {
        self.timelines[w.index()].set_bucket(bucket);
    }

    /// Register a cost embedded at the *start* of the span being
    /// scheduled (e.g. FAA queue wait, parking the blocked joiner); it
    /// will be split out of the span when the event fires.
    #[inline]
    pub fn carry(&mut self, w: WorkerId, bucket: Bucket, span: Cycles) {
        self.timelines[w.index()].carry(bucket, span);
    }

    /// Attribute `[last_fire, t)`: carries first, then the pending
    /// bucket. Called at the top of every `Engine::fire`.
    #[inline]
    pub fn charge(&mut self, w: WorkerId, t: Cycles) {
        self.timelines[w.index()].charge(t);
    }

    /// Charge every worker's tail span up to the makespan, making each
    /// account total exactly the makespan.
    pub fn finalize(&mut self, makespan: Cycles) {
        for tl in &mut self.timelines {
            tl.charge(makespan);
            tl.tile(makespan);
        }
    }

    /// `task` began on `w` at `at`; `parent` is `None` for the root.
    pub fn task_begin(
        &mut self,
        w: WorkerId,
        task: TaskId64,
        at: Cycles,
        parent: Option<TaskId64>,
    ) {
        if let Some(parent) = parent {
            self.rows[w.index()].spawned += 1;
            self.emit(
                w,
                at,
                EventKind::Spawn {
                    parent,
                    child: task,
                },
            );
        }
        self.emit(w, at, EventKind::TaskBegin { task });
    }

    /// `task`, born at `born`, completed on `w` at `t`.
    pub fn task_end(&mut self, w: WorkerId, task: TaskId64, born: Cycles, t: Cycles) {
        let run = t.since(born);
        self.rows[w.index()].ended += 1;
        self.run_length.record(run.get());
        self.emit(w, t, EventKind::TaskEnd { task, run });
    }

    pub fn task_suspend(&mut self, w: WorkerId, task: TaskId64, t: Cycles) {
        self.emit(w, t, EventKind::Suspend { task });
    }

    /// `task` resumed on `w`. `joined` is the child whose completion
    /// made its join ready (the task's `join_enabler`, taken) when it
    /// resumes past that join — the parent side of a join edge.
    pub fn task_resume(
        &mut self,
        w: WorkerId,
        task: TaskId64,
        t: Cycles,
        joined: Option<TaskId64>,
    ) {
        self.emit(w, t, EventKind::Resume { task });
        if let Some(child) = joined {
            self.emit(
                w,
                t,
                EventKind::JoinResume {
                    parent: task,
                    child,
                },
            );
        }
    }

    /// A continuation entry for `task` was pushed into `w`'s own deque —
    /// the victim side of a potential steal edge. Stamps the
    /// publication's sequence number into `seq` (the task's `pub_seq`).
    pub fn deque_publish(&mut self, w: WorkerId, task: TaskId64, seq: &mut u64, t: Cycles) {
        // Causality bookkeeping is only consumed through the ring events.
        if !self.is_traced() {
            return;
        }
        self.pub_next += 1;
        *seq = self.pub_next;
        self.emit(
            w,
            t,
            EventKind::DequePublish {
                task,
                seq: self.pub_next,
            },
        );
    }

    /// The completion of `child` on `w` dropped `parent`'s outstanding
    /// count to zero; `enabler` is the parent's `join_enabler`.
    pub fn join_ready(
        &mut self,
        w: WorkerId,
        parent: TaskId64,
        child: TaskId64,
        t: Cycles,
        enabler: &mut Option<TaskId64>,
    ) {
        if !self.is_traced() {
            return;
        }
        *enabler = Some(child);
        self.emit(w, t, EventKind::JoinReady { parent, child });
    }

    /// `w` issued a steal attempt at `t`.
    pub fn steal_attempt(&mut self, w: WorkerId, t: Cycles) {
        let row = &mut self.rows[w.index()];
        row.attempts += 1;
        row.attempt_start = t;
    }

    /// One steal phase: its duration feeds the Figure 10 breakdown and
    /// the exported span alike, so the export-side sums match.
    pub fn steal_phase(
        &mut self,
        w: WorkerId,
        victim: WorkerId,
        phase: StealPhase,
        at: Cycles,
        dur: Cycles,
    ) {
        self.breakdown.record(phase, dur);
        self.timelines[w.index()].span(at, dur, EventKind::StealPhase { victim, phase });
    }

    /// `w`'s steal attempt on `victim` ended at `t` without an entry.
    pub fn steal_aborted(
        &mut self,
        w: WorkerId,
        victim: WorkerId,
        outcome: StealOutcome,
        t: Cycles,
    ) {
        let latency = t.since(self.rows[w.index()].attempt_start);
        self.steal_result(w, victim, outcome, t, latency);
    }

    /// `w`'s steal of `task` from `victim` unlocked at `t` and resumes
    /// the stolen thread, which takes `resume`. `seq` is the task's
    /// `pub_seq`: the thief side of the steal edge pairs with the
    /// victim's publication by it.
    pub fn steal_completed(
        &mut self,
        w: WorkerId,
        victim: WorkerId,
        task: TaskId64,
        seq: u64,
        t: Cycles,
        resume: Cycles,
    ) {
        self.steal_phase(w, victim, StealPhase::Resume, t, resume);
        let latency = t.since(self.rows[w.index()].attempt_start) + resume;
        self.steal_result(w, victim, StealOutcome::Completed, t, latency);
        self.task_resume(w, task, t, None);
        if seq != 0 {
            self.emit(w, t, EventKind::StealCommit { task, seq });
        }
    }

    fn steal_result(
        &mut self,
        w: WorkerId,
        victim: WorkerId,
        outcome: StealOutcome,
        t: Cycles,
        latency: Cycles,
    ) {
        self.rows[w.index()].outcomes[outcome as usize] += 1;
        self.steal_latency.record(latency.get());
        self.emit(
            w,
            t,
            EventKind::StealResult {
                victim,
                outcome,
                latency,
            },
        );
    }

    pub fn idle_poll(&mut self, w: WorkerId, t: Cycles) {
        self.emit(w, t, EventKind::IdlePoll);
    }

    /// The run is over: per-worker summaries, the breakdown with its
    /// outcome counts summed from the rows, and the two machine-wide
    /// digests. Publishes into the attached registry, if any.
    pub fn finish(self) -> Observed {
        if let Some(registry) = &self.registry {
            self.publish(registry);
        }
        let mut rings = Vec::new();
        let per_worker = self
            .rows
            .iter()
            .zip(self.timelines)
            .enumerate()
            .map(|(i, (row, tl))| {
                let dropped = tl.dropped();
                let (ring, account) = tl.into_parts();
                rings.extend(ring);
                WorkerSummary {
                    worker: i as u32,
                    tasks_run: row.spawned + row.completed(),
                    steal_attempts: row.attempts,
                    steals_completed: row.completed(),
                    dropped,
                    account,
                }
            })
            .collect();
        let mut breakdown = self.breakdown;
        for row in &self.rows {
            breakdown.completed += row.completed();
            breakdown.aborted_empty += row.outcomes[StealOutcome::AbortEmpty as usize];
            breakdown.aborted_lock += row.outcomes[StealOutcome::AbortLock as usize];
            breakdown.aborted_raced += row.outcomes[StealOutcome::AbortRaced as usize];
        }
        Observed {
            per_worker,
            breakdown,
            steal_latency: self.steal_latency.summary(),
            task_run_length: self.run_length.summary(),
            rings,
        }
    }

    /// Add this run's rows and histograms into `registry`, under the
    /// names the real backends export: the counters' names and help come
    /// from their table, [`shm::SEGMENT_COUNTERS`].
    fn publish(&self, registry: &Registry) {
        let counter = |cell: usize| {
            let (name, help) = shm::SEGMENT_COUNTERS[cell];
            registry.counter(name, help)
        };
        let completed = counter(shm::STEALS_COMPLETED);
        let failed = counter(shm::STEALS_FAILED);
        let tasks = counter(shm::TASKS);
        for (w, row) in self.rows.iter().enumerate() {
            completed.add(w, row.completed());
            failed.add(w, row.failed());
            tasks.add(w, row.ended);
        }
        registry
            .histogram(
                names::STEAL_LATENCY,
                "End-to-end steal-attempt latency in simulated cycles",
            )
            .absorb(&self.steal_latency);
        registry
            .histogram(
                names::TASK_RUN,
                "Task run length in simulated cycles, begin to completion",
            )
            .absorb(&self.run_length);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalize_tops_every_account_up_to_the_makespan() {
        let mut ctl = TraceCtl::new(2);
        ctl.set_bucket(WorkerId(0), Bucket::Work);
        ctl.charge(WorkerId(0), Cycles(400));
        ctl.set_bucket(WorkerId(0), Bucket::Idle);
        ctl.set_bucket(WorkerId(1), Bucket::StealEmpty);
        ctl.finalize(Cycles(1_000));
        let obs = ctl.finish();
        let (a, b) = (&obs.per_worker[0].account, &obs.per_worker[1].account);
        assert_eq!((a.total(), b.total()), (Cycles(1_000), Cycles(1_000)));
        assert_eq!(a.get(Bucket::Idle), Cycles(600));
        assert_eq!(b.get(Bucket::StealEmpty), Cycles(1_000));
    }

    #[test]
    fn task_lifecycle_feeds_run_length_histogram() {
        let mut ctl = TraceCtl::new(1);
        let w = WorkerId(0);
        ctl.install_rings(64);
        ctl.task_begin(w, 7, Cycles(100), None);
        ctl.task_begin(w, 8, Cycles(150), Some(7));
        ctl.task_end(w, 8, Cycles(150), Cycles(400));
        ctl.task_end(w, 7, Cycles(100), Cycles(900));
        // Spawn + 2×TaskBegin + 2×TaskEnd landed in the ring.
        assert_eq!(ctl.timelines[0].ring().unwrap().len(), 5);
        let obs = ctl.finish();
        assert_eq!(obs.per_worker.len(), 1);
        // The root is installed, not spawned: one activation.
        assert_eq!(obs.per_worker[0].tasks_run, 1);
        assert_eq!(obs.task_run_length.count, 2);
        assert_eq!(obs.task_run_length.sum, 250 + 800);
    }

    #[test]
    fn each_steal_result_is_counted_once_and_published_at_the_end() {
        let mut ctl = TraceCtl::new(2);
        let registry = Arc::new(Registry::new(2));
        ctl.attach_registry(&registry);
        let (w, v) = (WorkerId(1), WorkerId(0));
        ctl.steal_attempt(w, Cycles(10));
        ctl.steal_aborted(w, v, StealOutcome::AbortLock, Cycles(40));
        ctl.steal_attempt(w, Cycles(50));
        ctl.steal_completed(w, v, 3, 0, Cycles(150), Cycles(7));
        // In flight when the run ends: issued, never resolved.
        ctl.steal_attempt(w, Cycles(200));
        assert!(registry.snapshot().metrics.is_empty(), "nothing streamed");
        let obs = ctl.finish();
        let row = &obs.per_worker[1];
        assert_eq!((row.steal_attempts, row.steals_completed), (3, 1));
        assert_eq!(row.tasks_run, 1, "a completed steal is an activation");
        assert_eq!(
            (obs.breakdown.completed, obs.breakdown.aborted_lock),
            (1, 1)
        );
        assert_eq!(obs.steal_latency.count, 2);
        assert_eq!(obs.steal_latency.sum, 30 + 107);
        let snap = registry.snapshot();
        assert_eq!(snap.total(names::STEALS_COMPLETED), 1);
        assert_eq!(snap.total(names::STEALS_FAILED), 1);
        let hist = snap.histogram(names::STEAL_LATENCY).unwrap();
        assert_eq!(hist.summary(), obs.steal_latency);
    }
}
