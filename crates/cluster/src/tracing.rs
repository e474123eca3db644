//! Engine-side tracing state: the glue between the event loop and
//! `uat-trace`.
//!
//! [`TraceCtl`] owns everything tracing adds to a run: the per-worker
//! [`TimeAccount`]s (every simulated cycle charged to one [`Bucket`]),
//! the steal-latency and task-run-length histograms, and an optional
//! [`RingSink`] of structured events. The accounts and histograms are
//! kept on every run; the sink, and with it every structured event, is
//! present only when `Engine::with_tracing` installed one.
//!
//! # Charging model
//!
//! The engine is a one-event-per-worker automaton: each handler performs
//! instantaneous protocol work and schedules exactly one completion via
//! `Engine::set`, which records the [`Bucket`] the upcoming span belongs
//! to. When the event fires, [`TraceCtl::charge`] attributes the span
//! `[last_fire, now)` — first to any *carry* slots registered for costs
//! embedded at the start of the span (FAA queueing, parking a blocked
//! joiner), then the remainder to the pending bucket. The final partial
//! span up to the makespan is charged by [`TraceCtl::finalize`], so each
//! worker's bucket totals sum exactly to the makespan.

use crate::metrics::WorkerSummary;
use crate::task::TaskId64;
use uat_base::{Cycles, HistSummary, Histogram, WorkerId};
use uat_trace::{
    Bucket, EventKind, RingBuffer, RingSink, StealOutcome, StealPhase, TraceEvent, TraceSink,
};

/// Tracing state for one run.
pub(crate) struct TraceCtl {
    sink: Option<RingSink>,
    accounts: Vec<uat_trace::TimeAccount>,
    last_fire: Vec<Cycles>,
    pending: Vec<Bucket>,
    carry: Vec<Vec<(Bucket, Cycles)>>,
    steal_latency: Vec<Histogram>,
    run_length: Vec<Histogram>,
    attempts: Vec<u64>,
    completed: Vec<u64>,
    born: std::collections::HashMap<TaskId64, Cycles>,
    /// Next deque-publication sequence number (unique per run).
    pub_next: u64,
    /// Publication seq of each task currently sitting in a deque,
    /// consumed by the thief-side `steal_commit`.
    pub_seq: std::collections::HashMap<TaskId64, u64>,
    /// For each joining parent, the child whose completion last dropped
    /// its outstanding count to zero; consumed by `join_resume`.
    join_enabler: std::collections::HashMap<TaskId64, TaskId64>,
    /// Per-worker dropped-event counts snapshotted when the rings are
    /// taken (`collect_summaries` runs after `take_rings`).
    dropped: Vec<u64>,
}

impl TraceCtl {
    pub fn new(workers: usize) -> Self {
        TraceCtl {
            sink: None,
            accounts: vec![uat_trace::TimeAccount::new(); workers],
            last_fire: vec![Cycles::ZERO; workers],
            pending: vec![Bucket::Idle; workers],
            carry: vec![Vec::new(); workers],
            steal_latency: vec![Histogram::new(); workers],
            run_length: vec![Histogram::new(); workers],
            attempts: vec![0; workers],
            completed: vec![0; workers],
            born: std::collections::HashMap::new(),
            pub_next: 0,
            pub_seq: std::collections::HashMap::new(),
            join_enabler: std::collections::HashMap::new(),
            dropped: vec![0; workers],
        }
    }

    pub fn install_sink(&mut self, workers: usize, capacity: usize) {
        self.sink = Some(RingSink::new(workers, capacity));
    }

    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    pub fn take_rings(&mut self) -> Vec<RingBuffer> {
        let rings = self
            .sink
            .take()
            .map(RingSink::into_rings)
            .unwrap_or_default();
        for (i, ring) in rings.iter().enumerate() {
            if let Some(slot) = self.dropped.get_mut(i) {
                *slot = ring.dropped();
            }
        }
        rings
    }

    /// Events evicted from worker `i`'s ring: live from the sink while
    /// it is installed, from the `take_rings` snapshot afterwards.
    fn dropped_for(&self, i: usize) -> u64 {
        match &self.sink {
            Some(sink) => sink.rings().get(i).map_or(0, RingBuffer::dropped),
            None => self.dropped.get(i).copied().unwrap_or(0),
        }
    }

    fn emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = &mut self.sink {
            sink.record(ev);
        }
    }

    /// Record which bucket the span scheduled by `Engine::set` belongs to.
    pub fn set_bucket(&mut self, w: WorkerId, bucket: Bucket) {
        self.pending[w.index()] = bucket;
    }

    /// Register a cost embedded at the *start* of the span being
    /// scheduled (e.g. FAA queue wait, parking the blocked joiner); it
    /// will be split out of the span when the event fires.
    pub fn carry(&mut self, w: WorkerId, bucket: Bucket, span: Cycles) {
        if span.get() > 0 {
            self.carry[w.index()].push((bucket, span));
        }
    }

    /// Attribute `[last_fire, t)`: carries first, then the pending
    /// bucket. Called at the top of every `Engine::fire`.
    pub fn charge(&mut self, w: WorkerId, t: Cycles) {
        let i = w.index();
        let start = self.last_fire[i];
        debug_assert!(
            t >= start,
            "time went backwards for worker {w:?}: {start:?} -> {t:?}"
        );
        self.last_fire[i] = t;
        let mut span = t.since(start).get();
        let mut at = start;
        for (bucket, c) in std::mem::take(&mut self.carry[i]) {
            // Clamp: a carry can never exceed what actually elapsed.
            let c = c.get().min(span);
            if c == 0 {
                continue;
            }
            self.accounts[i].charge(bucket, Cycles(c));
            self.emit(TraceEvent::span(
                at,
                Cycles(c),
                w,
                EventKind::Slice { bucket },
            ));
            at += Cycles(c);
            span -= c;
        }
        if span > 0 {
            let bucket = self.pending[i];
            self.accounts[i].charge(bucket, Cycles(span));
            self.emit(TraceEvent::span(
                at,
                Cycles(span),
                w,
                EventKind::Slice { bucket },
            ));
        }
    }

    /// Charge every worker's tail span up to the makespan, making each
    /// account total exactly the makespan.
    pub fn finalize(&mut self, makespan: Cycles) {
        for i in 0..self.accounts.len() {
            self.charge(WorkerId(i as u32), makespan);
        }
    }

    pub fn task_begin(
        &mut self,
        w: WorkerId,
        task: TaskId64,
        at: Cycles,
        parent: Option<TaskId64>,
    ) {
        self.born.insert(task, at);
        if let Some(parent) = parent {
            self.emit(TraceEvent::instant(
                at,
                w,
                EventKind::Spawn {
                    parent,
                    child: task,
                },
            ));
        }
        self.emit(TraceEvent::instant(at, w, EventKind::TaskBegin { task }));
    }

    pub fn task_end(&mut self, w: WorkerId, task: TaskId64, t: Cycles) {
        let run = self
            .born
            .remove(&task)
            .map(|b| t.since(b))
            .unwrap_or(Cycles::ZERO);
        self.run_length[w.index()].record(run.get());
        self.emit(TraceEvent::instant(t, w, EventKind::TaskEnd { task, run }));
    }

    pub fn task_suspend(&mut self, w: WorkerId, task: TaskId64, t: Cycles) {
        self.emit(TraceEvent::instant(t, w, EventKind::Suspend { task }));
    }

    pub fn task_resume(&mut self, w: WorkerId, task: TaskId64, t: Cycles) {
        self.emit(TraceEvent::instant(t, w, EventKind::Resume { task }));
    }

    /// A continuation entry for `task` was pushed into `w`'s own deque —
    /// the victim side of a potential steal edge. Assigns the
    /// publication its sequence number.
    pub fn deque_publish(&mut self, w: WorkerId, task: TaskId64, t: Cycles) {
        // Causality bookkeeping is only consumed through the ring events;
        // skip the map traffic entirely when no rings are installed.
        if self.sink.is_none() {
            return;
        }
        self.pub_next += 1;
        let seq = self.pub_next;
        self.pub_seq.insert(task, seq);
        self.emit(TraceEvent::instant(
            t,
            w,
            EventKind::DequePublish { task, seq },
        ));
    }

    /// A stolen continuation resumed on thief `w`; pairs with the
    /// publication recorded by [`TraceCtl::deque_publish`]. (A task can
    /// only be in one deque at a time, so the latest publication is the
    /// one the thief took.)
    pub fn steal_commit(&mut self, w: WorkerId, task: TaskId64, t: Cycles) {
        if self.sink.is_none() {
            return;
        }
        if let Some(seq) = self.pub_seq.remove(&task) {
            self.emit(TraceEvent::instant(
                t,
                w,
                EventKind::StealCommit { task, seq },
            ));
        }
    }

    /// The completion of `child` on `w` dropped `parent`'s outstanding
    /// count to zero.
    pub fn join_ready(&mut self, w: WorkerId, parent: TaskId64, child: TaskId64, t: Cycles) {
        if self.sink.is_none() {
            return;
        }
        self.join_enabler.insert(parent, child);
        self.emit(TraceEvent::instant(
            t,
            w,
            EventKind::JoinReady { parent, child },
        ));
    }

    /// `parent` resumed past a join whose readiness was recorded by
    /// [`TraceCtl::join_ready`]. No-op if the parent never blocked on a
    /// recorded enabler (e.g. its children finished before it joined and
    /// the readiness was consumed by an earlier round).
    pub fn join_resume(&mut self, w: WorkerId, parent: TaskId64, t: Cycles) {
        if self.sink.is_none() {
            return;
        }
        if let Some(child) = self.join_enabler.remove(&parent) {
            self.emit(TraceEvent::instant(
                t,
                w,
                EventKind::JoinResume { parent, child },
            ));
        }
    }

    pub fn steal_attempt(&mut self, w: WorkerId) {
        self.attempts[w.index()] += 1;
    }

    /// One steal phase, with exactly the duration fed to the
    /// `StealBreakdown` accumulator — the export-side sums must match.
    pub fn steal_phase(
        &mut self,
        w: WorkerId,
        victim: WorkerId,
        phase: StealPhase,
        at: Cycles,
        dur: Cycles,
    ) {
        self.emit(TraceEvent::span(
            at,
            dur,
            w,
            EventKind::StealPhase { victim, phase },
        ));
    }

    pub fn steal_result(
        &mut self,
        w: WorkerId,
        victim: WorkerId,
        outcome: StealOutcome,
        t: Cycles,
        latency: Cycles,
    ) {
        if outcome == StealOutcome::Completed {
            self.completed[w.index()] += 1;
        }
        self.steal_latency[w.index()].record(latency.get());
        self.emit(TraceEvent::instant(
            t,
            w,
            EventKind::StealResult {
                victim,
                outcome,
                latency,
            },
        ));
    }

    pub fn idle_poll(&mut self, w: WorkerId, t: Cycles) {
        self.emit(TraceEvent::instant(t, w, EventKind::IdlePoll));
    }

    /// Per-worker summaries plus machine-wide latency / run-length
    /// digests, for `RunStats`.
    pub fn collect_summaries(
        &self,
        tasks_run: &[u64],
    ) -> (Vec<WorkerSummary>, HistSummary, HistSummary) {
        let mut all_latency = Histogram::new();
        let mut all_run = Histogram::new();
        let per = (0..self.accounts.len())
            .map(|i| {
                all_latency.merge(&self.steal_latency[i]);
                all_run.merge(&self.run_length[i]);
                WorkerSummary {
                    worker: i as u32,
                    tasks_run: tasks_run.get(i).copied().unwrap_or(0),
                    steal_attempts: self.attempts[i],
                    steals_completed: self.completed[i],
                    dropped: self.dropped_for(i),
                    account: self.accounts[i].clone(),
                    steal_latency: self.steal_latency[i].summary(),
                    run_length: self.run_length[i].summary(),
                }
            })
            .collect();
        (per, all_latency.summary(), all_run.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_splits_carries_then_pending() {
        let mut ctl = TraceCtl::new(1);
        let w = WorkerId(0);
        ctl.install_sink(1, 64);
        ctl.set_bucket(w, Bucket::StealLock);
        ctl.carry(w, Bucket::FaaQueue, Cycles(300));
        ctl.charge(w, Cycles(1_000));
        assert_eq!(ctl.accounts[0].get(Bucket::FaaQueue), Cycles(300));
        assert_eq!(ctl.accounts[0].get(Bucket::StealLock), Cycles(700));
        // Carries are consumed.
        ctl.set_bucket(w, Bucket::Work);
        ctl.charge(w, Cycles(1_500));
        assert_eq!(ctl.accounts[0].get(Bucket::Work), Cycles(500));
        assert_eq!(ctl.accounts[0].total(), Cycles(1_500));
    }

    #[test]
    fn oversized_carry_is_clamped_to_the_span() {
        let mut ctl = TraceCtl::new(1);
        let w = WorkerId(0);
        ctl.set_bucket(w, Bucket::Idle);
        ctl.carry(w, Bucket::SuspendResume, Cycles(10_000));
        ctl.charge(w, Cycles(100));
        assert_eq!(ctl.accounts[0].get(Bucket::SuspendResume), Cycles(100));
        assert_eq!(ctl.accounts[0].get(Bucket::Idle), Cycles::ZERO);
        assert_eq!(ctl.accounts[0].total(), Cycles(100));
    }

    #[test]
    fn finalize_tops_every_account_up_to_the_makespan() {
        let mut ctl = TraceCtl::new(2);
        ctl.set_bucket(WorkerId(0), Bucket::Work);
        ctl.charge(WorkerId(0), Cycles(400));
        ctl.set_bucket(WorkerId(0), Bucket::Idle);
        ctl.set_bucket(WorkerId(1), Bucket::StealEmpty);
        ctl.finalize(Cycles(1_000));
        assert_eq!(ctl.accounts[0].total(), Cycles(1_000));
        assert_eq!(ctl.accounts[1].total(), Cycles(1_000));
        assert_eq!(ctl.accounts[0].get(Bucket::Idle), Cycles(600));
        assert_eq!(ctl.accounts[1].get(Bucket::StealEmpty), Cycles(1_000));
    }

    #[test]
    fn task_lifecycle_feeds_run_length_histogram() {
        let mut ctl = TraceCtl::new(1);
        let w = WorkerId(0);
        ctl.install_sink(1, 64);
        ctl.task_begin(w, 7, Cycles(100), None);
        ctl.task_begin(w, 8, Cycles(150), Some(7));
        ctl.task_end(w, 8, Cycles(400));
        ctl.task_end(w, 7, Cycles(900));
        let (per, _, run) = ctl.collect_summaries(&[2]);
        assert_eq!(per.len(), 1);
        assert_eq!(per[0].tasks_run, 2);
        assert_eq!(run.count, 2);
        // Spawn + 2×TaskBegin + 2×TaskEnd landed in the ring.
        assert_eq!(ctl.sink.as_ref().unwrap().len(), 5);
    }
}
