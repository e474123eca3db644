//! Differential replay: drive the real THE body — `TheDeque`, the one all
//! three executors run — placed in a real `Fabric` ([`FabricDeque`]),
//! with schedules the explorer proved reachable, in lockstep with the
//! model, and fail on any divergence in outcome or final shared state.
//!
//! This closes the model-fidelity gap: the [`crate::model`] machines
//! claim to mirror the simulator's phase semantics; replay makes the
//! simulator's deque itself vouch for that claim on every explored
//! interleaving (up to the schedule cap). Only [`Family::SimPhase`]
//! scenarios replay — a schedule at phase atomicity maps 1:1 onto the
//! body's pop, push and four steal phases.

use crate::model::{Family, OpEvent, OwnerOp, Scenario, Sys};
use uat_base::{CostModel, Cycles, Topology, WorkerId};
use uat_deque::{FabricDeque, PopOutcome, TaskqEntry};
use uat_rdma::Fabric;

const BASE: u64 = 0x10_000;
const OWNER: WorkerId = WorkerId(0);

fn entry_for(v: u64) -> TaskqEntry {
    TaskqEntry {
        task: v,
        ctx: v,
        frame_base: 0x9_0000 + v * 64,
        frame_size: 64,
    }
}

/// Replay `schedules` against a fresh fabric-resident deque each, in
/// lockstep with the model. Returns the number of schedules replayed, or
/// a description of the first divergence.
pub fn replay_schedules(sc: &Scenario, schedules: &[Vec<usize>]) -> Result<u64, String> {
    assert_eq!(
        sc.family,
        Family::SimPhase,
        "only phase-granularity schedules map onto the body's phases"
    );
    for (si, sched) in schedules.iter().enumerate() {
        replay_one(sc, sched).map_err(|e| format!("schedule {si}: {e}"))?;
    }
    Ok(schedules.len() as u64)
}

fn replay_one(sc: &Scenario, sched: &[usize]) -> Result<(), String> {
    let workers = 1 + sc.thieves.len();
    let mut fabric = Fabric::new(Topology::new(workers as u32, 1), CostModel::fx10());
    let deque = FabricDeque::init(&mut fabric, OWNER, BASE, sc.capacity)
        .map_err(|e| format!("init: {e:?}"))?;

    // Prologue: the model applied it serially; do the same for real.
    for &op in &sc.prologue {
        match op {
            OwnerOp::Push(v) => deque.push_in(&mut fabric, entry_for(v)),
            OwnerOp::Pop => {
                let r = deque.pop_in(&mut fabric);
                if !matches!(r, PopOutcome::Entry(_)) {
                    return Err(format!("prologue pop expected an entry, got {r:?}"));
                }
            }
        }
    }

    let mut sys = Sys::initial(sc);
    // Any monotone clock works: the fabric linearizes each one-sided op
    // at its issue instant, so widely spaced instants keep phases from
    // overlapping in the cost model without affecting semantics.
    let mut now = Cycles(0);
    for (i, &t) in sched.iter().enumerate() {
        if !sys.enabled(t, sc) {
            return Err(format!("step {i}: schedule picks disabled thread {t}"));
        }
        let out = sys.step(t, 0, sc);
        let thief = WorkerId(t as u32);
        let divergence = |got: &str| {
            Err(format!(
                "step {i} ({}): model did `{}` but the deque returned {got}",
                t, out.label
            ))
        };
        match &out.event {
            OpEvent::Micro => {
                return Err(format!(
                    "step {i}: micro-step in a phase-granularity schedule"
                ))
            }
            OpEvent::PushDone(v) => deque.push_in(&mut fabric, entry_for(*v)),
            OpEvent::PopDone(expect) => {
                let r = deque.pop_in(&mut fabric);
                match (expect, r) {
                    (Some(v), PopOutcome::Entry(e)) if e.task == *v => {}
                    (None, PopOutcome::Empty) => {}
                    (_, got) => return divergence(&format!("{got:?}")),
                }
            }
            OpEvent::EmptyCheck { empty } => {
                let (nonempty, t) = deque.steal_check(&mut fabric, thief, now);
                if nonempty == *empty {
                    return divergence(&format!("non-empty = {nonempty}"));
                }
                now = t;
            }
            OpEvent::LockTry { acquired } => {
                let (won, t) = deque.steal_lock(&mut fabric, thief, now);
                if won != *acquired {
                    return divergence(&format!("lock won = {won}"));
                }
                now = t;
            }
            OpEvent::StealPhase(expect) => {
                let (got, t) = deque.steal_take(&mut fabric, thief, now);
                if got.map(|e| e.task) != *expect {
                    return divergence(&format!("{got:?}"));
                }
                now = t;
            }
            OpEvent::Unlock => now = deque.steal_unlock(&mut fabric, thief, now),
        }
    }

    // Final shared state must agree word for word.
    let snap = deque.snapshot(&fabric);
    if (snap.lock, snap.top, snap.bottom) != (sys.lock(), sys.top(), sys.bottom()) {
        return Err(format!(
            "final state diverged: deque (lock={} top={} bottom={}) vs model (lock={} top={} bottom={})",
            snap.lock, snap.top, snap.bottom, sys.lock(), sys.top(), sys.bottom()
        ));
    }
    let real: Vec<u64> = snap.entries.iter().map(|e| e.task).collect();
    let model: Vec<u64> = (sys.top()..sys.bottom())
        .map(|p| sys.slot((p % sc.capacity) as usize))
        .collect();
    if real != model {
        return Err(format!(
            "final entries diverged: deque {real:?} vs model {model:?}"
        ));
    }
    Ok(())
}
