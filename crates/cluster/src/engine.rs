//! The discrete-event engine: child-first work stealing over uni-address
//! (or iso-address) thread management, end to end.
//!
//! # How execution is modelled
//!
//! Each worker is a sequential automaton with exactly one outstanding
//! event. When its event fires, the worker performs protocol work
//! *instantaneously* (pushing deque entries, moving bytes, mutating task
//! records — all through the real `uat-core`/`uat-deque`/`uat-rdma` code)
//! and schedules the completion of exactly one *timed* operation: a
//! compute segment, a spawn, a suspend, one RDMA phase of a steal, or an
//! idle poll. One-sided operations linearize at their issue instant and
//! complete at the instant the fabric's cost model dictates, so thief
//! critical sections genuinely overlap victim activity across events —
//! which is what exercises the THE protocol's contended paths.
//!
//! # The scheduler being reproduced
//!
//! - **Spawn** (Figure 4): push the parent's continuation, run the child
//!   immediately on the stack just below (child-first).
//! - **Task exit** (Figure 4, lines 13-15): pop the own queue; on success
//!   resume the parent in place; on failure every ancestor was stolen —
//!   drain the region and go to the scheduler.
//! - **Join** (Figure 7): if the children are done, fall through; else
//!   suspend to the wait queue and run the scheduler loop: local pop →
//!   random steal → wait-queue resume → idle poll.
//! - **Steal** (Figure 6 / Table 3): empty check, lock (remote FAA),
//!   entry steal, stack transfer into the uni-address region at the same
//!   virtual address, unlock (after the transfer — that ordering is what
//!   keeps the victim out of the frames), resume.

use crate::config::SimConfig;
use crate::event_heap::EventHeap;
use crate::metrics::RunStats;
use crate::task::{TaskId64, TaskTable, TaskWhere};
use crate::tracing::TraceCtl;
use uat_base::{CostModel, Cycles, SplitMix64, WorkerId};
use uat_core::{transfer_stolen, StackMgr, StealPhase};
use uat_deque::{PopOutcome, TaskqEntry};
use uat_model::{Action, Workload};
use uat_rdma::Fabric;
use uat_trace::{Bucket, StealOutcome};

/// Extra idle delay, in cycles, after a failed steal, multiplied by the
/// consecutive failures up to [`IDLE_BACKOFF_CAP`]: a simulator
/// pragmatic so fully idle machines don't generate events at line rate
/// (the paper does not specify a retry policy).
const IDLE_BACKOFF: u64 = 2_000;
/// Cap on the backoff multiplier.
const IDLE_BACKOFF_CAP: u32 = 16;

/// What a worker's next event means.
#[derive(Clone, Copy, Debug)]
enum Pending {
    /// Run the scheduler loop from the top (local pop first).
    Sched,
    /// The current task's in-flight action completes.
    TaskStep(TaskId64),
    /// Retry the post-completion pop (the deque was contended).
    PostComplete,
    /// Steal phase completions.
    StealEmpty {
        victim: WorkerId,
        ok: bool,
    },
    StealLock {
        victim: WorkerId,
        ok: bool,
    },
    StealEntry {
        victim: WorkerId,
        entry: Option<TaskqEntry>,
    },
    /// Unlock after a raced-empty steal; then back to the scheduler.
    StealAbortUnlock,
    /// Stolen frames have arrived; unlock next.
    StealTransfer {
        victim: WorkerId,
        entry: TaskqEntry,
    },
    /// Unlock done; resume the stolen thread.
    StealUnlock {
        victim: WorkerId,
        entry: TaskqEntry,
    },
}

/// The scalar cycle costs the event loop touches on *every* event,
/// copied out of the [`CostModel`] once at [`Engine::new`]. The hot
/// handlers used to `clone()` the whole ~200-byte cost model (floats,
/// fabric parameters, ablation flags and all) per event just to read a
/// handful of `u64`s; this is the same data, one cache line, no copy.
#[derive(Clone, Copy)]
struct HotCosts {
    ctx_save: u64,
    deque_push: u64,
    deque_pop: u64,
    ctx_restore: u64,
    try_join: u64,
    idle_poll: u64,
    resume_base: u64,
    page_fault: u64,
    /// Call glue of the Figure 4 fast path (see [`CostModel::spawn_cost`]).
    call_glue: u64,
    /// Retry delay after losing a deque race to a mid-steal thief.
    contended_retry: u64,
}

impl HotCosts {
    fn new(cost: &CostModel) -> Self {
        HotCosts {
            ctx_save: cost.ctx_save,
            deque_push: cost.deque_push,
            deque_pop: cost.deque_pop,
            ctx_restore: cost.ctx_restore,
            try_join: cost.try_join,
            idle_poll: cost.idle_poll,
            resume_base: cost.resume_base,
            page_fault: cost.page_fault,
            call_glue: cost.call_glue,
            contended_retry: cost.contended_retry,
        }
    }
}

struct WorkerCtl {
    rng: SplitMix64,
    pending: Pending,
    current: Option<TaskId64>,
    /// Consecutive fruitless scheduler iterations (for idle backoff).
    fails: u32,
    /// When the current steal phase started.
    phase_start: Cycles,
    /// A task sitting in the region at an unsatisfied join (Figure 7's
    /// `while (!try_join)` loop keeps it in place; it is suspended — with
    /// the copy-out — only when the worker switches to other work).
    blocked: Option<TaskId64>,
}

/// The simulation engine for one run.
pub struct Engine<W: Workload> {
    cfg: SimConfig,
    workload: W,
    fabric: Fabric,
    mgrs: Vec<StackMgr>,
    tasks: TaskTable<W::Desc>,
    workers: Vec<WorkerCtl>,
    queue: EventHeap,
    hot: HotCosts,
    /// Recycled `program` vectors from completed tasks: a spawn reuses a
    /// freed allocation instead of hitting the allocator per task.
    program_pool: Vec<Vec<Action<W::Desc>>>,
    events: u64,
    finished_at: Option<Cycles>,
    root: Option<TaskId64>,
    // accumulators
    total_work: u64,
    total_units: u64,
    page_faults: u64,
    /// The run's one observer: accounts, counts, histograms, events.
    trace: TraceCtl,
    /// `Some` once [`Engine::audited`] has switched the every-event
    /// auditor on. The value is the event count after which
    /// [`Engine::seed_audit_violation`] corrupts one task record
    /// (`u64::MAX`: never).
    audit: Option<u64>,
}

impl<W: Workload> Engine<W> {
    /// Build a machine per `cfg` and place `workload`'s root task on
    /// worker 0.
    pub fn new(cfg: SimConfig, workload: W) -> Self {
        let topo = cfg.topo;
        let mut fabric = Fabric::new(topo, cfg.cost.clone());
        let total = topo.total_workers() as u64;
        let mgrs: Vec<StackMgr> = topo
            .workers()
            .map(|w| StackMgr::new(cfg.scheme, &mut fabric, w, &cfg.core, total))
            .collect();
        let root_rng = SplitMix64::new(cfg.seed);
        let workers = topo
            .workers()
            .map(|w| WorkerCtl {
                rng: root_rng.split(w.0 as u64),
                pending: Pending::Sched,
                current: None,
                fails: 0,
                phase_start: Cycles::ZERO,
                blocked: None,
            })
            .collect();
        let hot = HotCosts::new(&cfg.cost);
        Engine {
            cfg,
            workload,
            fabric,
            mgrs,
            tasks: TaskTable::new(),
            workers,
            queue: EventHeap::new(total as usize),
            hot,
            program_pool: Vec::new(),
            events: 0,
            finished_at: None,
            root: None,
            total_work: 0,
            total_units: 0,
            page_faults: 0,
            trace: TraceCtl::new(topo.total_workers() as usize),
            audit: None,
        }
    }

    /// Add this run's scheduler-health metrics (steal outcomes and
    /// latency, task counts and run lengths, in simulated cycles) into
    /// `registry`, under the same metric names ([`uat_metrics::names`])
    /// the native runtime exports. The registry is filled once, when the
    /// run finishes, from the same samples [`RunStats`] reports; nothing
    /// is streamed while it runs. It must be built for at least this
    /// machine's worker count; snapshot it after [`run`](Engine::run).
    pub fn with_metrics(mut self, registry: &std::sync::Arc<uat_metrics::Registry>) -> Self {
        self.trace.attach_registry(registry);
        self
    }

    /// Re-validate every global invariant after every event of this run
    /// (DESIGN.md §7.3 lists them). The first violation dumps the flight
    /// recording (to [`flight_path`]) and then panics with the
    /// violation's message. An audited run without rings records into a
    /// [`FLIGHT_RING_CAPACITY`](Self::FLIGHT_RING_CAPACITY)-event ring
    /// per worker, so the recording is there. The auditor is read-only:
    /// an audited run schedules exactly as the plain one, and its
    /// [`RunStats`] differ only in the rings' `dropped` counts.
    pub fn audited(mut self) -> Self {
        self.audit.get_or_insert(u64::MAX);
        self
    }

    /// Bytes of simulated memory the workers have registered (pinned)
    /// with the fabric.
    pub fn registered_bytes(&self) -> u64 {
        self.fabric.registered_bytes()
    }

    /// Host bytes this process holds behind
    /// [`registered_bytes`](Self::registered_bytes): only the pages the
    /// simulation has written are materialised, one host page each in
    /// the fabric's page arena ([`uat_rdma::Fabric::resident_bytes`];
    /// per worker, [`uat_rdma::ProcMem::resident_bytes`]).
    pub fn resident_bytes(&self) -> u64 {
        self.fabric.resident_bytes()
    }

    /// Run to completion of the root task; returns the measurements.
    pub fn run(mut self) -> RunStats {
        let makespan = self.run_loop();
        self.collect(makespan).0
    }

    /// [`run`](Self::run), plus the finished machine's
    /// [`resident_bytes`](Self::resident_bytes) — a cost of the host, not
    /// a simulated result, so it stays out of [`RunStats`].
    pub fn run_with_resident_bytes(mut self) -> (RunStats, u64) {
        let makespan = self.run_loop();
        let resident = self.resident_bytes();
        (self.collect(makespan).0, resident)
    }

    /// Drive the event loop until the root completes; returns the
    /// makespan with tracing accounts finalized against it.
    fn run_loop(&mut self) -> Cycles {
        // Flight recorder: an audited run keeps a bounded ring recording
        // so an invariant violation has a post-mortem to dump (runs that
        // already installed rings keep their capacity).
        if self.audit.is_some() && !self.trace.is_traced() {
            self.trace.install_rings(Self::FLIGHT_RING_CAPACITY);
            self.fabric.enable_trace(Self::FLIGHT_RING_CAPACITY);
        }
        // Materialize and start the root on worker 0.
        let w0 = WorkerId(0);
        let root = self.spawn_task(w0, &self.workload.root(), None, Cycles::ZERO);
        self.root = Some(root);
        self.workers[0].current = Some(root);
        self.workers[0].pending = Pending::TaskStep(root);
        self.trace.set_bucket(w0, Bucket::Work);
        self.schedule(w0, Cycles::ZERO);
        // Everyone else starts looking for work.
        for w in self.cfg.topo.workers().skip(1) {
            self.workers[w.index()].pending = Pending::Sched;
            self.trace.set_bucket(w, Bucket::Idle);
            self.schedule(w, Cycles::ZERO);
        }

        while let Some((t, w)) = self.queue.pop() {
            if self.finished_at.is_some() {
                break;
            }
            self.events += 1;
            if self.cfg.max_events > 0 && self.events > self.cfg.max_events {
                panic!(
                    "simulation exceeded max_events={} (possible livelock)",
                    self.cfg.max_events
                );
            }
            self.fire(WorkerId(w), Cycles(t));
            if self.audit.is_some() {
                self.audit_event(Cycles(t));
            }
        }

        let makespan = self
            .finished_at
            .expect("root task never completed — scheduler bug");
        self.trace.finalize(makespan);
        makespan
    }

    // ------------------------------------------------------------------
    // Event plumbing
    // ------------------------------------------------------------------

    fn schedule(&mut self, w: WorkerId, t: Cycles) {
        self.queue.push(w.0, t.get());
    }

    fn fire(&mut self, w: WorkerId, t: Cycles) {
        self.trace.charge(w, t);
        let pending = self.workers[w.index()].pending;
        match pending {
            Pending::Sched => self.sched_step(w, t),
            Pending::TaskStep(task) => self.advance_task(w, task, t),
            Pending::PostComplete => self.post_complete(w, t),
            Pending::StealEmpty { victim, ok } => self.steal_after_empty(w, victim, ok, t),
            Pending::StealLock { victim, ok } => self.steal_after_lock(w, victim, ok, t),
            Pending::StealEntry { victim, entry } => self.steal_after_entry(w, victim, entry, t),
            Pending::StealAbortUnlock => {
                // Lock released after a raced-empty steal.
                self.sched_wait_step(w, t)
            }
            Pending::StealTransfer { victim, entry } => {
                self.steal_after_transfer(w, victim, entry, t)
            }
            Pending::StealUnlock { victim, entry } => self.steal_after_unlock(w, victim, entry, t),
        }
    }

    /// Schedule `w`'s next event; `bucket` is where the span between now
    /// and that event will be charged in the worker's time account.
    fn set(&mut self, w: WorkerId, pending: Pending, at: Cycles, bucket: Bucket) {
        self.trace.set_bucket(w, bucket);
        self.workers[w.index()].pending = pending;
        self.schedule(w, at);
    }

    // ------------------------------------------------------------------
    // Task execution
    // ------------------------------------------------------------------

    /// Create a task record + stack frames for `desc` on worker `w`,
    /// born at `at`: the one place a task's birth is recorded. Returns
    /// the id. (Page-fault cost, nonzero only under iso, is returned
    /// through `self.page_faults` and the spawn path's timing.)
    fn spawn_task(
        &mut self,
        w: WorkerId,
        desc: &W::Desc,
        parent: Option<TaskId64>,
        at: Cycles,
    ) -> TaskId64 {
        let mut program = self.program_pool.pop().unwrap_or_default();
        self.workload.program(desc, &mut program);
        self.total_units += self.workload.units(desc);
        let frame = self.workload.frame_size(desc).max(16);
        let id = self
            .tasks
            .spawn(program, parent, TaskWhere::Running(w), frame, at);
        let (_base, faults) = self.mgrs[w.index()].spawn_frame(&mut self.fabric, id, frame);
        self.page_faults += faults;
        self.trace.task_begin(w, id, at, parent);
        id
    }

    /// Interpret the current task's program from `pc`, accumulating
    /// zero-event costs, until exactly one timed operation is scheduled.
    fn advance_task(&mut self, w: WorkerId, task: TaskId64, t: Cycles) {
        // Fire time of this event: zero-event costs accumulate into the
        // local `t` below, but state changes (e.g. the join-counter
        // decrement in `complete_task`) become visible to other workers
        // from this instant on.
        let now = t;
        let mut t = t;
        let cost = self.hot;
        loop {
            let (pc, len) = {
                let rec = self.tasks.get(task);
                (rec.pc as usize, rec.program.len())
            };
            if pc >= len {
                self.complete_task(w, task, t, now);
                return;
            }
            // Clone the action out to keep borrows simple; actions are
            // small (Desc is typically a few words).
            let action = self.tasks.get(task).program[pc].clone();
            match action {
                Action::Work(c) => {
                    self.tasks.get_mut(task).pc += 1;
                    self.total_work += c;
                    self.set(w, Pending::TaskStep(task), t + Cycles(c), Bucket::Work);
                    return;
                }
                Action::Spawn(desc) => {
                    // Figure 4: push the parent continuation (resume point
                    // = next action), then start the child immediately.
                    let (frame_base, frame_size) = {
                        let mgr = &self.mgrs[w.index()];
                        match mgr {
                            StackMgr::Uni(u) => {
                                let seg = u
                                    .region
                                    .segment_of(task)
                                    .expect("running task owns a segment");
                                (seg.base, seg.size)
                            }
                            StackMgr::Iso(_) => {
                                let rec = self.tasks.get(task);
                                (0, rec.frame_size) // iso carries no shared region address
                            }
                        }
                    };
                    let rec = self.tasks.get_mut(task);
                    rec.pc += 1;
                    rec.at = TaskWhere::InDeque(w);
                    rec.outstanding += 1;
                    // The parent's continuation is stealable from the
                    // push below, at `t`: the victim side of a potential
                    // steal edge.
                    self.trace.deque_publish(w, task, &mut rec.pub_seq, t);
                    let entry = TaskqEntry {
                        task,
                        ctx: rec.pc as u64,
                        frame_base,
                        frame_size,
                    };
                    self.mgrs[w.index()]
                        .deque()
                        .push_in(&mut self.fabric, entry);
                    let faults_before = self.page_faults;
                    let child = self.spawn_task(w, &desc, Some(task), t);
                    let fault_cost = Cycles((self.page_faults - faults_before) * cost.page_fault);
                    self.workers[w.index()].current = Some(child);
                    // Half of the Figure 4 creation overhead: the context
                    // save and queue push. The pop half is charged when
                    // the child returns (post_complete), so a full
                    // create/return cycle costs spawn_cost() total.
                    let mut create = Cycles(cost.ctx_save + cost.deque_push);
                    if self.cfg.crude_switch {
                        // Section 5.1's unoptimized scheme: swap the
                        // parent out now and back in when the child
                        // returns — two copies of the parent's frames
                        // plus the suspend/resume bookkeeping.
                        create += self.cfg.cost.suspend_cost(frame_size as usize)
                            + self.cfg.cost.resume_cost(frame_size as usize);
                    }
                    self.set(
                        w,
                        Pending::TaskStep(child),
                        t + create + fault_cost,
                        Bucket::Spawn,
                    );
                    return;
                }
                Action::JoinAll => {
                    t += Cycles(cost.try_join);
                    if self.tasks.get(task).outstanding == 0 {
                        self.tasks.get_mut(task).pc += 1;
                        continue;
                    }
                    // Children still running elsewhere. Figure 7: the
                    // joining thread stays in the region while the
                    // scheduler loop polls try_join around other work;
                    // the copy-out happens only if the worker actually
                    // switches (see `park_blocked`). `pc` stays AT the
                    // JoinAll so the check reruns on resume.
                    let ctl = &mut self.workers[w.index()];
                    ctl.current = None;
                    ctl.blocked = Some(task);
                    self.set(w, Pending::Sched, t, Bucket::Idle);
                    return;
                }
            }
        }
    }

    /// The running task's program ended (thread exit).
    /// `t` is the task's nominal end (fire time plus zero-event costs
    /// accumulated by `advance_task`); `noticed` is the fire time, from
    /// which the parent's decremented join counter is already observable
    /// by other workers — causality instants must carry that stamp, or a
    /// polling joiner could record its resume *before* the ready.
    fn complete_task(&mut self, w: WorkerId, task: TaskId64, t: Cycles, noticed: Cycles) {
        let mut rec = self.tasks.free(task);
        self.trace.task_end(w, task, rec.born, t);
        debug_assert!(
            rec.outstanding == 0,
            "a task cannot exit with live children"
        );
        let mut program = std::mem::take(&mut rec.program);
        program.clear();
        self.program_pool.push(program);
        if let Some((owner, slot)) = self.mgrs[w.index()].complete(task, &self.cfg.core) {
            self.mgrs[owner.index()].reclaim_slot(slot);
        }
        if let Some(parent) = rec.parent {
            // Completion notification: the done-flag write is a posted
            // one-sided RDMA WRITE when the parent is remote; it does not
            // block the child, so the decrement is applied immediately.
            let p = self.tasks.get_mut(parent);
            p.outstanding -= 1;
            if p.outstanding == 0 {
                // This completion made the parent's join ready — the
                // child side of a potential join edge. Stamped at the
                // fire time (`noticed`), not the nominal task end: the
                // decrement above is observable from this event on.
                self.trace
                    .join_ready(w, parent, task, noticed, &mut p.join_enabler);
            }
        } else {
            // The root finished: the program is done.
            self.finished_at = Some(t);
            return;
        }
        self.workers[w.index()].current = None;
        self.post_complete(w, t);
    }

    /// Figure 4 lines 13-15: pop the own queue; resume the parent in
    /// place, or conclude it was stolen.
    fn post_complete(&mut self, w: WorkerId, t: Cycles) {
        let cost = self.hot;
        let deque = self.mgrs[w.index()].deque();
        match deque.pop_in(&mut self.fabric) {
            PopOutcome::Entry(e) => {
                // The direct parent: resume it where it sits.
                let rec = self.tasks.get_mut(e.task);
                debug_assert_eq!(rec.at, TaskWhere::InDeque(w));
                rec.at = TaskWhere::Running(w);
                rec.pc = e.ctx as u32;
                self.workers[w.index()].current = Some(e.task);
                self.workers[w.index()].fails = 0;
                // The pop half of the Figure 4 fast path; the parent
                // continues by an ordinary return, not a context restore.
                self.set(
                    w,
                    Pending::TaskStep(e.task),
                    t + Cycles(cost.deque_pop + cost.call_glue),
                    Bucket::Spawn,
                );
            }
            PopOutcome::Empty => {
                // Every ancestor was stolen; the remaining frames here are
                // dead copies. Drain and go looking for work.
                self.mgrs[w.index()].on_pop_empty();
                self.set(w, Pending::Sched, t + Cycles(cost.deque_pop), Bucket::Idle);
            }
            PopOutcome::Contended => {
                // A thief holds our lock mid-transfer; retry shortly.
                self.set(
                    w,
                    Pending::PostComplete,
                    t + Cycles(cost.deque_pop + cost.contended_retry),
                    Bucket::Idle,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // The Figure 7 scheduler loop
    // ------------------------------------------------------------------

    /// Park the blocked (in-region, join-waiting) thread, if any: the
    /// Figure 8 suspend — copy the frames out to the RDMA region and
    /// queue the saved context on the wait queue. Returns the cost.
    fn park_blocked(&mut self, w: WorkerId, now: Cycles) -> Cycles {
        let Some(task) = self.workers[w.index()].blocked.take() else {
            return Cycles::ZERO;
        };
        self.trace.task_suspend(w, task, now);
        let pc = self.tasks.get(task).pc as u64;
        let (h, c) =
            self.mgrs[w.index()].suspend_current(&mut self.fabric, task, pc, &self.cfg.cost);
        self.mgrs[w.index()].wait_push(h);
        self.tasks.get_mut(task).at = TaskWhere::Waiting(w);
        c
    }

    /// Step 1 of Figure 7: poll try_join for the blocked thread, then try
    /// the local queue, else start a steal.
    fn sched_step(&mut self, w: WorkerId, t: Cycles) {
        let cost = self.hot;
        let t0 = t;
        // `while (!try_join)`: the blocked thread resumes in place — the
        // paper's "typical case" where join only confirms termination.
        if let Some(task) = self.workers[w.index()].blocked {
            let t = t + Cycles(cost.try_join);
            let rec = self.tasks.get_mut(task);
            if rec.outstanding == 0 {
                self.trace.task_resume(w, task, t, rec.join_enabler.take());
                let ctl = &mut self.workers[w.index()];
                ctl.blocked = None;
                ctl.current = Some(task);
                ctl.fails = 0;
                self.set(w, Pending::TaskStep(task), t, Bucket::SuspendResume);
                return;
            }
        }
        let deque = self.mgrs[w.index()].deque();
        match deque.pop_in(&mut self.fabric) {
            PopOutcome::Entry(e) => {
                // A ready ancestor. Vacate the blocked joiner below it
                // (Figure 7 line 22: suspend current, resume popped),
                // then resume the ancestor in place: it is the bottom
                // live segment now.
                let parked = self.park_blocked(w, t);
                let rec = self.tasks.get_mut(e.task);
                debug_assert_eq!(rec.at, TaskWhere::InDeque(w));
                rec.at = TaskWhere::Running(w);
                rec.pc = e.ctx as u32;
                self.workers[w.index()].current = Some(e.task);
                self.workers[w.index()].fails = 0;
                self.trace.task_resume(w, e.task, t + parked, None);
                self.trace.carry(w, Bucket::SuspendResume, parked);
                self.set(
                    w,
                    Pending::TaskStep(e.task),
                    t + parked + Cycles(cost.deque_pop + cost.ctx_restore),
                    Bucket::Spawn,
                );
                return;
            }
            PopOutcome::Empty => {
                if self.workers[w.index()].blocked.is_none() {
                    // Only dead (stolen) frames remain: drain so a steal
                    // can install at any address.
                    self.mgrs[w.index()].on_pop_empty();
                }
            }
            PopOutcome::Contended => {
                self.set(
                    w,
                    Pending::Sched,
                    t + Cycles(cost.deque_pop + cost.contended_retry),
                    Bucket::Idle,
                );
                return;
            }
        }
        let t = t + Cycles(cost.deque_pop);
        // Step 2: steal from a random victim (single-worker machines have
        // nobody to rob).
        let total = self.cfg.topo.total_workers();
        if total <= 1 {
            self.sched_wait_step(w, t);
            return;
        }
        let mut v = self.workers[w.index()].rng.below(total as u64 - 1) as u32;
        if v >= w.0 {
            v += 1;
        }
        let victim = WorkerId(v);
        self.trace.steal_attempt(w, t);
        // The local pop that came up empty is scheduler overhead, not
        // part of the empty-check phase.
        self.trace.carry(w, Bucket::Idle, t.since(t0));
        self.workers[w.index()].phase_start = t;
        let vdeque = self.mgrs[victim.index()].deque();
        let (ok, done) = vdeque.steal_check(&mut self.fabric, w, t);
        self.set(
            w,
            Pending::StealEmpty { victim, ok },
            done,
            Bucket::StealEmpty,
        );
    }

    /// Step 3: wait-queue resume, else idle poll with backoff.
    fn sched_wait_step(&mut self, w: WorkerId, t: Cycles) {
        // Resuming a waiter installs its frames at their original
        // address, which needs an empty region: park whatever is blocked
        // here first, then drain. The waiter's join may still be
        // unsatisfied — then it simply becomes the blocked thread and the
        // loop polls on (the paper's runtime pays the same copy to find
        // out; Figure 7 lines 28-30).
        if self.mgrs[w.index()].wait_len() > 0 {
            let parked = self.park_blocked(w, t);
            self.mgrs[w.index()].on_pop_empty();
            let h = self.mgrs[w.index()]
                .wait_pop()
                .expect("non-empty wait queue");
            let info = self.mgrs[w.index()].resume_saved(&mut self.fabric, h, &self.cfg.cost);
            let rec = self.tasks.get_mut(info.task);
            debug_assert_eq!(rec.at, TaskWhere::Waiting(w));
            rec.at = TaskWhere::Running(w);
            rec.pc = info.ctx as u32;
            // A waiter whose join is satisfied resumes past the JoinAll
            // rather than re-parking: that closes the join edge.
            let joined = if rec.outstanding == 0 {
                rec.join_enabler.take()
            } else {
                None
            };
            self.trace.task_resume(w, info.task, t + parked, joined);
            let ctl = &mut self.workers[w.index()];
            ctl.current = Some(info.task);
            ctl.fails = 0;
            // The resumed thread re-runs its JoinAll check; if its child
            // is still outstanding it becomes the blocked thread here
            // (polling, as the paper's join loop does).
            self.set(
                w,
                Pending::TaskStep(info.task),
                t + parked + info.cost,
                Bucket::SuspendResume,
            );
            return;
        }
        // Nothing to switch to. If this worker still has a blocked joiner
        // (or parked waiters) it polls hot, like the paper's Figure 7
        // loop — the join wake-up is on the critical path of shrinking
        // parallelism. Only a truly workless worker backs off, which
        // keeps fully idle machines from generating events at line rate.
        let has_poll_target =
            self.workers[w.index()].blocked.is_some() || self.mgrs[w.index()].wait_len() > 0;
        let ctl = &mut self.workers[w.index()];
        let backoff = if has_poll_target {
            ctl.fails = 0;
            0
        } else {
            ctl.fails = ctl.fails.saturating_add(1);
            IDLE_BACKOFF * (ctl.fails.min(IDLE_BACKOFF_CAP) as u64)
        };
        self.trace.idle_poll(w, t);
        self.set(
            w,
            Pending::Sched,
            t + Cycles(self.hot.idle_poll + backoff),
            Bucket::Idle,
        );
    }

    // ------------------------------------------------------------------
    // Steal phases (Figure 6)
    // ------------------------------------------------------------------

    /// `phase` of `w`'s steal from `victim` completed at `t`, where the
    /// next one starts.
    fn steal_phase_done(&mut self, w: WorkerId, victim: WorkerId, phase: StealPhase, t: Cycles) {
        let phase_start = self.workers[w.index()].phase_start;
        self.trace
            .steal_phase(w, victim, phase, phase_start, t.since(phase_start));
        self.workers[w.index()].phase_start = t;
    }

    fn steal_after_empty(&mut self, w: WorkerId, victim: WorkerId, ok: bool, t: Cycles) {
        if !ok {
            self.trace
                .steal_aborted(w, victim, StealOutcome::AbortEmpty, t);
            self.sched_wait_step(w, t);
            return;
        }
        self.steal_phase_done(w, victim, StealPhase::EmptyCheck, t);
        let faa_before = self.fabric.stats().faa_queue_cycles;
        let vdeque = self.mgrs[victim.index()].deque();
        let (ok, done) = vdeque.steal_lock(&mut self.fabric, w, t);
        // Queueing at the victim node's software FAA server happens at
        // the start of the lock span; split it out of the bucket.
        let wait = self.fabric.stats().faa_queue_cycles - faa_before;
        self.trace.carry(w, Bucket::FaaQueue, Cycles(wait));
        self.set(
            w,
            Pending::StealLock { victim, ok },
            done,
            Bucket::StealLock,
        );
    }

    fn steal_after_lock(&mut self, w: WorkerId, victim: WorkerId, ok: bool, t: Cycles) {
        if !ok {
            self.trace
                .steal_aborted(w, victim, StealOutcome::AbortLock, t);
            self.sched_wait_step(w, t);
            return;
        }
        self.steal_phase_done(w, victim, StealPhase::Lock, t);
        let vdeque = self.mgrs[victim.index()].deque();
        let (entry, done) = vdeque.steal_take(&mut self.fabric, w, t);
        if let Some(e) = entry {
            // The continuation is ours from this instant (top moved);
            // its frames stay on the victim until the transfer.
            self.tasks.get_mut(e.task).at = TaskWhere::InFlight;
        }
        self.set(
            w,
            Pending::StealEntry { victim, entry },
            done,
            Bucket::StealEntry,
        );
    }

    fn steal_after_entry(
        &mut self,
        w: WorkerId,
        victim: WorkerId,
        entry: Option<TaskqEntry>,
        t: Cycles,
    ) {
        let vdeque = self.mgrs[victim.index()].deque();
        let Some(e) = entry else {
            // Drained while we were locking; unlock and give up.
            self.trace
                .steal_aborted(w, victim, StealOutcome::AbortRaced, t);
            let done = vdeque.steal_unlock(&mut self.fabric, w, t);
            self.set(w, Pending::StealAbortUnlock, done, Bucket::StealUnlock);
            return;
        };
        self.steal_phase_done(w, victim, StealPhase::Steal, t);
        // Figure 6 line 19: suspend whatever this worker still holds
        // before bringing in the stolen frames.
        let parked = self.park_blocked(w, t);
        self.trace
            .steal_phase(w, victim, StealPhase::Suspend, t, parked);
        self.trace.carry(w, Bucket::SuspendResume, parked);
        self.mgrs[w.index()].on_pop_empty();
        let t = t + parked;
        self.workers[w.index()].phase_start = t;
        // Stack transfer: uni does a one-sided READ into the same VA;
        // iso is victim-assisted + destination page faults.
        let info = transfer_stolen(
            &mut self.fabric,
            t,
            &mut self.mgrs,
            w,
            victim,
            e.task,
            e.frame_base,
            e.frame_size,
        );
        self.page_faults += info.faults;
        self.set(
            w,
            Pending::StealTransfer { victim, entry: e },
            info.done,
            Bucket::StealTransfer,
        );
    }

    fn steal_after_transfer(
        &mut self,
        w: WorkerId,
        victim: WorkerId,
        entry: TaskqEntry,
        t: Cycles,
    ) {
        self.steal_phase_done(w, victim, StealPhase::StackTransfer, t);
        let vdeque = self.mgrs[victim.index()].deque();
        let done = vdeque.steal_unlock(&mut self.fabric, w, t);
        self.set(
            w,
            Pending::StealUnlock { victim, entry },
            done,
            Bucket::StealUnlock,
        );
    }

    fn steal_after_unlock(&mut self, w: WorkerId, victim: WorkerId, entry: TaskqEntry, t: Cycles) {
        let resume = Cycles(self.hot.resume_base);
        self.steal_phase_done(w, victim, StealPhase::Unlock, t);
        let rec = self.tasks.get_mut(entry.task);
        debug_assert_eq!(rec.at, TaskWhere::InFlight);
        rec.at = TaskWhere::Running(w);
        rec.pc = entry.ctx as u32;
        self.trace
            .steal_completed(w, victim, entry.task, rec.pub_seq, t, resume);
        let ctl = &mut self.workers[w.index()];
        ctl.current = Some(entry.task);
        ctl.fails = 0;
        self.set(
            w,
            Pending::TaskStep(entry.task),
            t + resume,
            Bucket::SuspendResume,
        );
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    fn collect(self, makespan: Cycles) -> (RunStats, Vec<uat_trace::RingBuffer>) {
        let peak_stack = self
            .mgrs
            .iter()
            .map(|m| m.peak_stack_usage())
            .max()
            .unwrap_or(0);
        let reserved = self
            .mgrs
            .iter()
            .map(|m| m.mem_stats().reserved)
            .max()
            .unwrap_or(0);
        let pinned = self
            .mgrs
            .iter()
            .map(|m| m.mem_stats().pinned)
            .max()
            .unwrap_or(0);
        let committed: u64 = self.mgrs.iter().map(|m| m.mem_stats().committed).sum();
        let obs = self.trace.finish();
        let stats = RunStats {
            workload: self.workload.name(),
            scheme: self.cfg.scheme,
            workers: self.cfg.topo.total_workers(),
            clock_hz: self.cfg.cost.clock_hz,
            makespan,
            total_tasks: self.tasks.total_spawned(),
            total_units: self.total_units,
            total_work_cycles: self.total_work,
            peak_live_tasks: self.tasks.peak_live(),
            steals_completed: obs.breakdown.completed,
            steal_attempts: obs.per_worker.iter().map(|w| w.steal_attempts).sum(),
            breakdown: obs.breakdown,
            peak_stack_usage: peak_stack,
            reserved_va_per_worker: reserved,
            pinned_per_worker: pinned,
            page_faults: self.page_faults,
            committed_total: committed,
            fabric: self.fabric.stats(),
            events: self.events,
            per_worker: obs.per_worker,
            steal_latency: obs.steal_latency,
            task_run_length: obs.task_run_length,
            critical_path: None,
        };
        (stats, obs.rings)
    }
}

/// Where the flight recorder writes the post-mortem for a violation
/// caught on a thread named `name` (tests run on a thread named after
/// the test): `<target>/flight/<sanitized name>.trace.json`.
pub fn flight_path(name: &str) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    let sanitized: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    target
        .join("flight")
        .join(format!("{sanitized}.trace.json"))
}

impl<W: Workload> Engine<W> {
    /// Per-worker ring capacity of the flight recorder an
    /// [`audited`](Self::audited) run installs: big enough to
    /// reconstruct the last few protocol rounds before a violation,
    /// small enough to cost nothing.
    pub const FLIGHT_RING_CAPACITY: usize = 4096;

    /// Audit this run (as [`audited`](Self::audited)) and arrange for a
    /// deliberate invariant violation once `after_events` events have
    /// fired: the first running task found after that point gets its
    /// task-table location mislabelled as `InFlight`, which the next
    /// audit pass reports as a location mismatch. This exists so tests
    /// (and curious users) can watch the flight recorder produce a
    /// post-mortem without waiting for a real scheduler bug.
    pub fn seed_audit_violation(&mut self, after_events: u64) {
        self.audit = Some(after_events);
    }

    /// An audited run's step after each event: the seeded corruption
    /// once it is due, then every invariant (skipped once the root has
    /// completed: in-flight state is abandoned wherever it stands). A
    /// violation first dumps the flight recording, then resumes the
    /// panic.
    #[cold]
    #[inline(never)]
    fn audit_event(&mut self, now: Cycles) {
        if self.audit.is_some_and(|n| self.events >= n) {
            if let Some(task) = self.workers.iter().find_map(|c| c.current) {
                self.audit = Some(u64::MAX);
                self.tasks.get_mut(task).at = TaskWhere::InFlight;
            }
        }
        if self.finished_at.is_some() {
            return;
        }
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.audit_invariants()));
        if let Err(payload) = caught {
            self.dump_flight_recording(now, payload.as_ref());
            std::panic::resume_unwind(payload);
        }
    }

    /// Re-validate the global invariants after one event (DESIGN.md
    /// §7.3).
    ///
    /// Panics on the first violation. The per-worker structural checks
    /// (region packing, RDMA-region bounds, deque index sanity) run
    /// inside [`StackMgr::audit`]; this method adds the facts only the
    /// engine can see:
    ///
    /// - **Lock holders**: a thief holds a victim's steal lock exactly
    ///   while its pending event is inside the locked critical section
    ///   (`StealLock{ok}`/`StealEntry`/`StealTransfer` — one-sided ops
    ///   linearize at issue, so the unlock preceding `StealUnlock` and
    ///   `StealAbortUnlock` has already landed). At most one holder per
    ///   deque, and the lock word is nonzero iff a holder exists.
    /// - **Task locations**: every task reachable from a structure has
    ///   the matching [`TaskWhere`] — worker `current`/`blocked` ⇒
    ///   `Running`, deque entries ⇒ `InDeque`, wait queues ⇒ `Waiting`,
    ///   mid-steal pendings ⇒ `InFlight` — and a worker running a task
    ///   has no blocked joiner (the joiner is parked before any switch).
    /// - **Conservation**: spawned = completed + queued + in-flight +
    ///   suspended, checked as: the tasks found above are pairwise
    ///   distinct and count exactly `tasks.live()`.
    fn audit_invariants(&self) {
        use std::collections::HashSet;
        let n = self.mgrs.len();
        let mut holder: Vec<Option<WorkerId>> = vec![None; n];
        let mut found: HashSet<TaskId64> = HashSet::new();
        let claim = |found: &mut HashSet<TaskId64>, task: TaskId64, what: &str, w: usize| {
            assert!(
                found.insert(task),
                "audit: task {task:#x} found in two places (second: {what} on worker {w})"
            );
        };
        for (wi, ctl) in self.workers.iter().enumerate() {
            let w = WorkerId(wi as u32);
            match ctl.pending {
                Pending::StealLock { victim, ok: true }
                | Pending::StealEntry { victim, .. }
                | Pending::StealTransfer { victim, .. } => {
                    assert!(
                        holder[victim.index()].replace(w).is_none(),
                        "audit: two thieves inside worker {victim}'s locked critical section"
                    );
                }
                _ => {}
            }
            let in_flight = match ctl.pending {
                Pending::StealEntry { entry: Some(e), .. }
                | Pending::StealTransfer { entry: e, .. }
                | Pending::StealUnlock { entry: e, .. } => Some(e.task),
                _ => None,
            };
            if let Some(task) = in_flight {
                claim(&mut found, task, "mid-steal pending", wi);
                assert_eq!(
                    self.tasks.get(task).at,
                    TaskWhere::InFlight,
                    "audit: task {task:#x} is mid-steal to worker {w} but not marked InFlight"
                );
            }
            if let Some(task) = ctl.current {
                assert!(
                    ctl.blocked.is_none(),
                    "audit: worker {w} runs task {task:#x} with a blocked joiner in the region"
                );
                claim(&mut found, task, "current", wi);
                assert_eq!(
                    self.tasks.get(task).at,
                    TaskWhere::Running(w),
                    "audit: worker {w}'s current task {task:#x} not marked Running here"
                );
            }
            if let Some(task) = ctl.blocked {
                claim(&mut found, task, "blocked joiner", wi);
                assert_eq!(
                    self.tasks.get(task).at,
                    TaskWhere::Running(w),
                    "audit: worker {w}'s blocked joiner {task:#x} not marked Running here"
                );
            }
        }
        for (wi, mgr) in self.mgrs.iter().enumerate() {
            let w = WorkerId(wi as u32);
            let facts = mgr.audit(&self.fabric);
            match holder[wi] {
                Some(thief) => assert!(
                    facts.lock != 0,
                    "audit: thief {thief} is inside worker {w}'s locked critical section but the lock word is 0"
                ),
                None => assert_eq!(
                    facts.lock, 0,
                    "audit: worker {w}'s lock word is {} with no thief inside a critical section",
                    facts.lock
                ),
            }
            for task in facts.deque_tasks {
                claim(&mut found, task, "deque entry", wi);
                assert_eq!(
                    self.tasks.get(task).at,
                    TaskWhere::InDeque(w),
                    "audit: task {task:#x} sits in worker {w}'s deque but is not marked InDeque there"
                );
            }
            for task in facts.wait_tasks {
                claim(&mut found, task, "wait queue", wi);
                assert_eq!(
                    self.tasks.get(task).at,
                    TaskWhere::Waiting(w),
                    "audit: task {task:#x} sits on worker {w}'s wait queue but is not marked Waiting there"
                );
            }
            // Uni: the region's bottom segment is the running thread's
            // (Section 5.2). The bottom may be a stale stolen segment
            // while the worker is between tasks, so compare only when a
            // task is actually in place.
            if mgr.kind() == uat_core::SchemeKind::Uni {
                let ctl = &self.workers[wi];
                if let Some(task) = ctl.current.or(ctl.blocked) {
                    assert_eq!(
                        facts.bottom_task,
                        Some(task),
                        "audit: worker {w} runs task {task:#x} but it does not own the bottom segment"
                    );
                }
            }
        }
        assert_eq!(
            found.len() as u64,
            self.tasks.live(),
            "audit: task conservation broken — {} tasks found in structures, {} live",
            found.len(),
            self.tasks.live()
        );
    }

    /// Write the flight recording for a violation that just unwound out
    /// of the auditor: the last events of every worker ring plus the
    /// fabric trace, as a Chrome trace with the violation message in
    /// `otherData`. Best-effort — a failed write must not mask the
    /// violation itself (the caller re-raises the panic either way).
    fn dump_flight_recording(&mut self, now: Cycles, payload: &(dyn std::any::Any + Send)) {
        let violation =
            uat_core::audit::panic_message(payload).unwrap_or("non-string panic payload");
        let data = uat_trace::TraceData {
            clock_hz: self.cfg.cost.clock_hz,
            clock_source: uat_trace::ClockSource::Simulated,
            workers: self.trace.take_rings(),
            fabric: self.fabric.take_trace(),
            makespan: now,
        };
        let text = uat_trace::flight_trace_json(&data, violation);
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| "run".into());
        let path = flight_path(&name);
        let written = path
            .parent()
            .map(std::fs::create_dir_all)
            .unwrap_or(Ok(()))
            .and_then(|()| std::fs::write(&path, text));
        match written {
            Ok(()) => eprintln!("audit: flight recording written to {}", path.display()),
            Err(e) => eprintln!(
                "audit: could not write flight recording to {}: {e}",
                path.display()
            ),
        }
    }
}

impl<W: Workload> Engine<W> {
    /// Record structured events (into one bounded ring of
    /// `ring_capacity` events per worker) and enable fabric-level RDMA
    /// tracing. Without this, a run still fills the per-worker time
    /// accounts and histograms but keeps no event log.
    pub fn with_tracing(mut self, ring_capacity: usize) -> Self {
        self.trace.install_rings(ring_capacity);
        self.fabric.enable_trace(ring_capacity);
        self
    }

    /// Run to completion, returning both the measurements and the full
    /// event trace (installing default-capacity rings if
    /// [`Engine::with_tracing`] was not called).
    pub fn run_traced(mut self) -> (RunStats, uat_trace::TraceData) {
        if !self.trace.is_traced() {
            self = self.with_tracing(uat_trace::DEFAULT_RING_CAPACITY);
        }
        let makespan = self.run_loop();
        let clock_hz = self.cfg.cost.clock_hz;
        let fabric = self.fabric.take_trace();
        let (stats, workers) = self.collect(makespan);
        (
            stats,
            uat_trace::TraceData {
                clock_hz,
                clock_source: uat_trace::ClockSource::Simulated,
                workers,
                fabric,
                makespan,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uat_core::SchemeKind;
    use uat_model::sequential_profile;
    use uat_model::testutil::BinTree;

    fn tree(depth: u32, work: u64) -> BinTree {
        BinTree {
            depth,
            work,
            frame: 512,
        }
    }

    fn run(workers: u32, scheme: SchemeKind, depth: u32, work: u64, seed: u64) -> RunStats {
        let mut cfg = SimConfig::tiny(workers).with_scheme(scheme).with_seed(seed);
        cfg.core.verify_stack_bytes = true;
        cfg.core.iso_stacks_per_worker = 256;
        cfg.max_events = 50_000_000;
        Engine::new(cfg, tree(depth, work)).audited().run()
    }

    #[test]
    fn single_worker_executes_whole_tree() {
        let s = run(1, SchemeKind::Uni, 6, 100, 1);
        let p = sequential_profile(&tree(6, 100));
        assert_eq!(s.total_tasks, p.tasks);
        assert_eq!(s.total_work_cycles, p.work_cycles);
        assert_eq!(s.steals_completed, 0, "nobody to steal from");
        // Peak region usage = depth of the lineage × frame size.
        assert_eq!(s.peak_stack_usage, 7 * 512);
        // Makespan at least the serial work.
        assert!(s.makespan.get() >= p.work_cycles);
    }

    #[test]
    fn two_workers_steal_and_finish() {
        let s = run(2, SchemeKind::Uni, 8, 2_000, 2);
        let p = sequential_profile(&tree(8, 2_000));
        assert_eq!(s.total_tasks, p.tasks);
        assert!(s.steals_completed > 0, "load balancing must kick in");
        // Two workers should beat one substantially on a 511-task tree.
        let s1 = run(1, SchemeKind::Uni, 8, 2_000, 2);
        let speedup = s1.makespan.get() as f64 / s.makespan.get() as f64;
        assert!(speedup > 1.4, "speedup {speedup}");
    }

    #[test]
    fn fifteen_workers_scale() {
        let s = run(15, SchemeKind::Uni, 13, 1_000, 3);
        let p = sequential_profile(&tree(13, 1_000));
        assert_eq!(s.total_tasks, p.tasks);
        let s1 = run(1, SchemeKind::Uni, 13, 1_000, 3);
        let speedup = s1.makespan.get() as f64 / s.makespan.get() as f64;
        assert!(speedup > 8.5, "speedup {speedup} on 15 workers");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(4, SchemeKind::Uni, 8, 500, 42);
        let b = run(4, SchemeKind::Uni, 8, 500, 42);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.steals_completed, b.steals_completed);
        assert_eq!(a.events, b.events);
        let c = run(4, SchemeKind::Uni, 8, 500, 43);
        // Different seed, different steal pattern (makespan may tie, the
        // event trace almost surely not).
        assert!(c.events != a.events || c.steals_completed != a.steals_completed);
    }

    #[test]
    fn iso_scheme_runs_and_faults() {
        let s = run(4, SchemeKind::Iso, 8, 1_000, 4);
        let p = sequential_profile(&tree(8, 1_000));
        assert_eq!(s.total_tasks, p.tasks);
        assert!(s.page_faults > 0, "iso takes first-touch faults");
        let uni = run(4, SchemeKind::Uni, 8, 1_000, 4);
        assert_eq!(uni.page_faults, 0, "uni pins everything up front");
        assert!(s.reserved_va_per_worker > uni.reserved_va_per_worker);
    }

    #[test]
    fn work_conservation_under_heavy_stealing() {
        // Fine-grained tasks force many steals; the count must still be
        // exact and every byte-pattern check passes (verify on).
        let s = run(8, SchemeKind::Uni, 10, 50, 5);
        assert_eq!(s.total_tasks, 2047);
        assert!(s.steals_completed > 0);
    }

    #[test]
    fn breakdown_phases_populate() {
        let s = run(4, SchemeKind::Uni, 10, 3_000, 6);
        assert!(s.breakdown.completed > 0);
        let total = s.breakdown.total_mean();
        // A steal costs tens of thousands of cycles under the FX10 model.
        assert!(total > 20_000.0 && total < 120_000.0, "total {total}");
    }

    #[test]
    fn zero_work_tree_is_spawn_bound() {
        // BTC-like: tasks with no Work; cycles/task ≈ spawn overhead.
        let s = run(1, SchemeKind::Uni, 10, 0, 7);
        let cpt = s.cycles_per_task();
        assert!(
            cpt > 300.0 && cpt < 1_500.0,
            "cycles per task {cpt} should be near the 413-cycle spawn cost"
        );
    }

    /// The `run` and `engine` helpers build audited engines, so every
    /// test here audits; these add contended schedules on both schemes
    /// and show that a violation trips the flight recorder.
    mod audit_checks {
        use super::*;

        #[test]
        fn auditor_passes_heavy_stealing_uni() {
            let s = run(8, SchemeKind::Uni, 10, 50, 21);
            assert!(
                s.steals_completed > 0,
                "need steals to exercise the auditor"
            );
        }

        #[test]
        fn auditor_passes_join_heavy_uni() {
            // Deep tree with enough work per task that joiners suspend to
            // the wait queue (exercises Waiting/heap checks).
            let s = run(4, SchemeKind::Uni, 9, 3_000, 22);
            assert!(s.steals_completed > 0);
        }

        #[test]
        fn auditor_passes_iso() {
            let s = run(4, SchemeKind::Iso, 8, 500, 23);
            assert!(s.steals_completed > 0);
        }

        /// Seed a deliberate task-table corruption mid-run and check the
        /// flight recorder leaves a Perfetto-openable trace carrying the
        /// violation message before the panic propagates.
        #[test]
        fn seeded_violation_dumps_flight_recording() {
            let mut cfg = SimConfig::tiny(4)
                .with_scheme(SchemeKind::Uni)
                .with_seed(24);
            cfg.core.verify_stack_bytes = true;
            cfg.max_events = 50_000_000;
            let mut e = Engine::new(cfg, tree(10, 500));
            e.seed_audit_violation(200);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.run()));
            let payload = outcome.expect_err("sabotaged run must trip the auditor");
            let msg = uat_core::audit::panic_message(payload.as_ref())
                .expect("audit panics carry a string message");
            assert!(msg.contains("audit"), "unexpected violation text: {msg}");

            let path = flight_path(std::thread::current().name().unwrap_or("run"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("flight trace {} unreadable: {e}", path.display()));
            let doc = uat_base::json::Json::parse(&text).expect("flight trace must be valid JSON");
            let violation = doc
                .field("otherData")
                .and_then(|o| o.field("audit_violation"))
                .and_then(|v| v.as_str())
                .expect("flight trace must carry the violation");
            assert!(violation.contains("audit"));
            assert!(
                doc.field("traceEvents").is_ok(),
                "flight trace must carry events"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Cross-checks between the tracing layer and the engine's own
    /// accumulators — the tentpole invariants of the trace subsystem.
    mod trace_checks {
        use super::*;
        use uat_trace::Bucket;

        fn engine(workers: u32, depth: u32, work: u64, seed: u64) -> Engine<BinTree> {
            let mut cfg = SimConfig::tiny(workers)
                .with_scheme(SchemeKind::Uni)
                .with_seed(seed);
            cfg.core.verify_stack_bytes = true;
            cfg.max_events = 50_000_000;
            Engine::new(cfg, tree(depth, work)).audited()
        }

        #[test]
        fn per_worker_accounts_sum_to_makespan() {
            // Holds with or without rings installed: run(), not
            // run_traced().
            let s = engine(4, 10, 800, 11).run();
            assert_eq!(s.per_worker.len(), 4);
            for ws in &s.per_worker {
                assert_eq!(
                    ws.account.total(),
                    s.makespan,
                    "worker {} account does not tile the makespan",
                    ws.worker
                );
            }
            let attempts: u64 = s.per_worker.iter().map(|w| w.steal_attempts).sum();
            let completed: u64 = s.per_worker.iter().map(|w| w.steals_completed).sum();
            let tasks: u64 = s.per_worker.iter().map(|w| w.tasks_run).sum();
            assert_eq!(attempts, s.steal_attempts);
            assert_eq!(completed, s.steals_completed);
            // `tasks_run` counts activations: every spawned child (the
            // root is installed, not spawned) plus every stolen
            // continuation resumed on the thief.
            assert_eq!(tasks, s.total_tasks - 1 + s.steals_completed);
            assert_eq!(s.task_run_length.count, s.total_tasks);
            // Attempts still in flight at the makespan never resolve, so
            // the latency digest can trail the attempt counter slightly.
            assert!(s.steal_latency.count <= s.steal_attempts);
            assert!(s.steal_latency.count >= s.steals_completed);
            assert!(s.idle_fraction() > 0.0 && s.idle_fraction() < 1.0);
        }

        #[test]
        fn trace_steal_phase_durations_match_breakdown() {
            let (s, trace) = engine(4, 10, 2_000, 12).with_tracing(1 << 20).run_traced();
            assert!(s.breakdown.completed > 0, "need steals to cross-check");
            assert_eq!(trace.dropped(), 0, "ring must hold the whole run");
            let totals = trace.steal_phase_totals();
            for (i, p) in StealPhase::ALL.iter().enumerate() {
                let expect = s.breakdown.phase_total(*p);
                let got = totals[i] as f64;
                assert!(
                    (got - expect).abs() <= expect.abs() * 1e-9 + 0.5,
                    "{}: trace total {got} vs breakdown {expect}",
                    p.name()
                );
            }
        }

        #[test]
        fn timeline_slices_tile_every_worker_exactly() {
            let (s, trace) = engine(2, 8, 1_000, 13).with_tracing(1 << 20).run_traced();
            assert_eq!(trace.dropped(), 0);
            let mut sums = vec![0u64; s.workers as usize];
            for b in Bucket::ALL {
                for (w, total) in trace.slice_totals(b).into_iter().enumerate() {
                    sums[w] += total;
                }
            }
            for (w, sum) in sums.into_iter().enumerate() {
                assert_eq!(sum, s.makespan.get(), "worker {w} slices do not tile");
            }
        }

        #[test]
        fn chrome_export_of_a_run_is_valid_json() {
            let (s, trace) = engine(2, 6, 500, 14).run_traced();
            let text = uat_trace::chrome_trace_json(&trace);
            let doc = uat_base::Json::parse(&text).expect("valid Chrome trace JSON");
            let events = doc.field("traceEvents").unwrap().as_arr().unwrap();
            // At least the metadata rows plus real events.
            assert!(events.len() > 1 + s.workers as usize);
            assert_eq!(
                doc.field("otherData")
                    .unwrap()
                    .field("makespan_cycles")
                    .unwrap()
                    .as_u64()
                    .unwrap(),
                s.makespan.get()
            );
        }

        #[test]
        fn untraced_and_traced_runs_agree_on_measurements() {
            let a = engine(4, 9, 700, 15).run();
            let (b, _) = engine(4, 9, 700, 15).run_traced();
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.events, b.events);
            assert_eq!(a.steals_completed, b.steals_completed);
        }

        #[test]
        fn happens_before_dag_of_a_real_run_checks_out() {
            let (s, trace) = engine(4, 10, 2_000, 12).with_tracing(1 << 20).run_traced();
            assert!(s.steals_completed > 0, "need steals for the edge checks");
            let dag = uat_trace::Dag::build(&trace).expect("traced run must yield a DAG");
            dag.check_acyclic().unwrap();
            // Every completed steal contributes exactly one steal edge;
            // joins that parked a parent contribute join edges.
            assert_eq!(
                dag.edge_count(uat_trace::profile::EdgeKind::Steal) as u64,
                s.steals_completed
            );
            assert!(dag.edge_count(uat_trace::profile::EdgeKind::Join) > 0);
            let cp = uat_trace::critical_path(&dag);
            // The tentpole invariant: the path tiles [0, makespan], so
            // its total and its bucket attribution equal the makespan
            // exactly — no residue, no double counting.
            assert_eq!(cp.total, s.makespan);
            assert_eq!(cp.account.total(), s.makespan);
            assert!(
                cp.steal_edges + cp.join_edges > 0,
                "4 workers must interact"
            );
            // A do-nothing what-if reproduces the schedule exactly.
            for class in uat_trace::CostClass::ALL {
                assert_eq!(uat_trace::profile::predict(&dag, class, 1.0), s.makespan);
            }
        }

        #[test]
        fn dag_refuses_a_truncated_ring() {
            let (_, trace) = engine(4, 10, 1_000, 16).with_tracing(64).run_traced();
            assert!(trace.dropped() > 0, "tiny ring must overflow");
            match uat_trace::Dag::build(&trace) {
                Err(uat_trace::ProfileError::DroppedEvents { .. }) => {}
                other => panic!(
                    "expected DroppedEvents refusal, got {:?}",
                    other.map(|_| ())
                ),
            }
        }
    }
}
