//! Unified interface over the two thread-management schemes.
//!
//! The cluster's scheduler is scheme-agnostic: it drives a [`StackMgr`],
//! which dispatches to [`UniMgr`] (the paper's contribution) or
//! [`IsoMgr`] (the Section 4 baseline). This is what makes the
//! `iso_vs_uni` comparison an ablation rather than two codebases.

use crate::config::CoreConfig;
use crate::heap::SavedHandle;
use crate::iso::IsoMgr;
use crate::uni::UniMgr;
use uat_base::{CostModel, Cycles, WorkerId};
use uat_deque::FabricDeque;
use uat_rdma::Fabric;
use uat_vmem::MemStats;

/// Which thread-management scheme a simulation runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SchemeKind {
    /// The paper's uni-address scheme.
    Uni,
    /// The iso-address baseline.
    Iso,
}

impl uat_base::ToJson for SchemeKind {
    fn to_json(&self) -> uat_base::Json {
        uat_base::Json::str(match self {
            SchemeKind::Uni => "uni",
            SchemeKind::Iso => "iso",
        })
    }
}

impl uat_base::FromJson for SchemeKind {
    fn from_json(v: &uat_base::Json) -> Result<Self, uat_base::JsonError> {
        match v.as_str()? {
            "uni" => Ok(SchemeKind::Uni),
            "iso" => Ok(SchemeKind::Iso),
            other => Err(uat_base::JsonError {
                msg: format!("unknown scheme `{other}`"),
            }),
        }
    }
}

/// What resuming a suspended thread yields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumeInfo {
    /// The resumed task.
    pub task: u64,
    /// Its saved resume point.
    pub ctx: u64,
    /// Cost of the resume (copy-in for uni; register restore for iso).
    pub cost: Cycles,
}

/// Result of a stolen-stack migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferInfo {
    /// Instant the stolen thread is runnable on the thief.
    pub done: Cycles,
    /// Page faults taken (iso only; always 0 for uni).
    pub faults: u64,
}

/// Per-worker thread manager, one of the two schemes.
#[derive(Debug)]
pub enum StackMgr {
    /// Uni-address (Section 5).
    Uni(UniMgr),
    /// Iso-address (Section 4).
    Iso(IsoMgr),
}

impl StackMgr {
    /// Build a manager of `kind` for worker `id`.
    pub fn new(
        kind: SchemeKind,
        fabric: &mut Fabric,
        id: WorkerId,
        cfg: &CoreConfig,
        total_workers: u64,
    ) -> Self {
        match kind {
            SchemeKind::Uni => StackMgr::Uni(UniMgr::new(fabric, id, cfg)),
            SchemeKind::Iso => StackMgr::Iso(IsoMgr::new(fabric, id, cfg, total_workers)),
        }
    }

    /// Which scheme this is.
    pub fn kind(&self) -> SchemeKind {
        match self {
            StackMgr::Uni(_) => SchemeKind::Uni,
            StackMgr::Iso(_) => SchemeKind::Iso,
        }
    }

    /// The worker's work-stealing queue handle.
    pub fn deque(&self) -> FabricDeque {
        match self {
            StackMgr::Uni(m) => m.deque,
            StackMgr::Iso(m) => m.deque,
        }
    }

    /// Allocate the frames of a newly spawned task. Returns
    /// `(frame_base, page_faults)` — faults are nonzero only for iso.
    pub fn spawn_frame(&mut self, fabric: &mut Fabric, task: u64, size: u64) -> (u64, u64) {
        match self {
            StackMgr::Uni(m) => (m.spawn_frame(fabric, task, size), 0),
            StackMgr::Iso(m) => m.spawn_frame(task, size),
        }
    }

    /// The running task exits. For iso, returns the stack slot to recycle
    /// as `(slab_owner, slot_base)`; the cluster routes it home.
    pub fn complete(&mut self, task: u64, cfg: &CoreConfig) -> Option<(WorkerId, u64)> {
        match self {
            StackMgr::Uni(m) => {
                m.complete_bottom(task);
                None
            }
            StackMgr::Iso(m) => {
                let slab = cfg.iso_stacks_per_worker * cfg.iso_stack_size;
                Some(m.complete(task, slab))
            }
        }
    }

    /// Return a recycled iso slot to this worker (no-op for uni).
    pub fn reclaim_slot(&mut self, base: u64) {
        if let StackMgr::Iso(m) = self {
            m.reclaim_slot(base);
        }
    }

    /// Suspend the running task, yielding a handle and the cost.
    pub fn suspend_current(
        &mut self,
        fabric: &mut Fabric,
        task: u64,
        ctx: u64,
        cost: &CostModel,
    ) -> (SavedHandle, Cycles) {
        match self {
            StackMgr::Uni(m) => m.suspend_bottom(fabric, task, ctx, cost),
            StackMgr::Iso(m) => m.suspend(task, ctx, cost),
        }
    }

    /// Resume a suspended thread by handle.
    pub fn resume_saved(
        &mut self,
        fabric: &mut Fabric,
        h: SavedHandle,
        cost: &CostModel,
    ) -> ResumeInfo {
        match self {
            StackMgr::Uni(m) => {
                let (sctx, c) = m.resume_saved(fabric, h, cost);
                ResumeInfo {
                    task: sctx.task,
                    ctx: sctx.ctx,
                    cost: c,
                }
            }
            StackMgr::Iso(m) => {
                let (task, ctx, c) = m.resume_saved(h, cost);
                ResumeInfo { task, ctx, cost: c }
            }
        }
    }

    /// A local pop found the queue empty (all ancestors stolen).
    pub fn on_pop_empty(&mut self) {
        match self {
            StackMgr::Uni(m) => m.on_pop_empty(),
            StackMgr::Iso(m) => m.on_pop_empty(),
        }
    }

    /// Wait-queue push (Figure 7's `WAIT_QUEUE_PUSH`).
    pub fn wait_push(&mut self, h: SavedHandle) {
        match self {
            StackMgr::Uni(m) => m.wait_push(h),
            StackMgr::Iso(m) => m.wait_push(h),
        }
    }

    /// Wait-queue pop.
    pub fn wait_pop(&mut self) -> Option<SavedHandle> {
        match self {
            StackMgr::Uni(m) => m.wait_pop(),
            StackMgr::Iso(m) => m.wait_pop(),
        }
    }

    /// Wait-queue length.
    pub fn wait_len(&self) -> usize {
        match self {
            StackMgr::Uni(m) => m.wait_len(),
            StackMgr::Iso(m) => m.wait_len(),
        }
    }

    /// Peak stack bytes resident at once (Table 4's metric).
    pub fn peak_stack_usage(&self) -> u64 {
        match self {
            StackMgr::Uni(m) => m.peak_stack_usage(),
            StackMgr::Iso(m) => m.peak_stack_usage(),
        }
    }

    /// Virtual-memory accounting.
    pub fn mem_stats(&self) -> MemStats {
        match self {
            StackMgr::Uni(m) => m.mem_stats(),
            StackMgr::Iso(m) => m.mem_stats(),
        }
    }

    /// Re-validate this worker's structural invariants and report the
    /// engine-facing audit facts (`audit` feature).
    #[cfg(feature = "audit")]
    pub fn audit(&self, fabric: &Fabric) -> crate::audit::WorkerAudit {
        match self {
            StackMgr::Uni(m) => m.audit(fabric),
            StackMgr::Iso(m) => m.audit(fabric),
        }
    }
}

/// Migrate a stolen continuation's stack from `victim` to `thief`.
///
/// Uni: one-sided RDMA READ from the victim's uni-address region into the
/// thief's, same virtual address (Figure 6). Iso: victim-assisted copy
/// plus destination page faults (Section 4).
///
/// `mgrs` is the per-worker manager array; `thief != victim`.
#[allow(clippy::too_many_arguments)] // the steal protocol's natural arity
pub fn transfer_stolen(
    fabric: &mut Fabric,
    now: Cycles,
    mgrs: &mut [StackMgr],
    thief: WorkerId,
    victim: WorkerId,
    task: u64,
    frame_base: u64,
    frame_size: u64,
) -> TransferInfo {
    assert_ne!(thief, victim, "a worker cannot steal from itself");
    let (ti, vi) = (thief.index(), victim.index());
    // Split the slice so we can hold both managers mutably.
    let (a, b) = if ti < vi {
        let (lo, hi) = mgrs.split_at_mut(vi);
        (&mut lo[ti], &mut hi[0])
    } else {
        let (lo, hi) = mgrs.split_at_mut(ti);
        (&mut hi[0], &mut lo[vi])
    };
    match (a, b) {
        (StackMgr::Uni(t), StackMgr::Uni(_)) => {
            let done = t.transfer_stolen_in(fabric, now, victim, task, frame_base, frame_size);
            TransferInfo { done, faults: 0 }
        }
        (StackMgr::Iso(t), StackMgr::Iso(v)) => {
            let (done, faults) = t.transfer_stolen_in(fabric, now, v, task);
            TransferInfo { done, faults }
        }
        _ => panic!("mixed uni/iso machines are not a thing"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uat_base::Topology;

    fn machine(kind: SchemeKind) -> (Fabric, Vec<StackMgr>, CoreConfig) {
        let topo = Topology::new(2, 2);
        let mut f = Fabric::new(topo, CostModel::fx10());
        let cfg = CoreConfig {
            iso_stacks_per_worker: 64,
            verify_stack_bytes: true,
            ..CoreConfig::default()
        };
        let mgrs = topo
            .workers()
            .map(|w| StackMgr::new(kind, &mut f, w, &cfg, topo.total_workers() as u64))
            .collect();
        (f, mgrs, cfg)
    }

    fn lifecycle(kind: SchemeKind) {
        let (mut f, mut mgrs, cfg) = machine(kind);
        let cost = CostModel::fx10();
        // Worker 0: parent 1 spawns child 2 (child-first).
        let (p_base, _) = mgrs[0].spawn_frame(&mut f, 1, 3000);
        mgrs[0].spawn_frame(&mut f, 2, 800);
        // Worker 3 steals parent 1.
        let info = transfer_stolen(
            &mut f,
            Cycles(0),
            &mut mgrs,
            WorkerId(3),
            WorkerId(0),
            1,
            p_base,
            3000,
        );
        assert!(info.done > Cycles(0));
        match kind {
            SchemeKind::Uni => assert_eq!(info.faults, 0, "one-sided, pinned: no faults"),
            SchemeKind::Iso => assert!(info.faults > 0, "destination faults"),
        }
        // Victim: child finishes, pop is empty, region drains.
        if let Some((owner, slot)) = mgrs[0].complete(2, &cfg) {
            assert_eq!(owner, WorkerId(0));
            mgrs[0].reclaim_slot(slot);
        }
        mgrs[0].on_pop_empty();
        // Thief: parent suspends at a join, then resumes, then finishes.
        let (h, _) = mgrs[3].suspend_current(&mut f, 1, 17, &cost);
        mgrs[3].wait_push(h);
        let h = mgrs[3].wait_pop().unwrap();
        let r = mgrs[3].resume_saved(&mut f, h, &cost);
        assert_eq!((r.task, r.ctx), (1, 17));
        if let Some((owner, slot)) = mgrs[3].complete(1, &cfg) {
            // The slot belongs to worker 0's slab.
            assert_eq!(owner, WorkerId(0));
            mgrs[0].reclaim_slot(slot);
        }
        assert!(mgrs[3].peak_stack_usage() >= 3000);
    }

    #[test]
    fn full_lifecycle_uni() {
        lifecycle(SchemeKind::Uni);
    }

    #[test]
    fn full_lifecycle_iso() {
        lifecycle(SchemeKind::Iso);
    }

    #[test]
    fn uni_reserves_constant_va_iso_reserves_the_world() {
        // Per-worker reserved VA: constant for uni, linear in machine
        // size for iso (Section 4's scalability argument).
        let (_, uni, _) = machine(SchemeKind::Uni);
        let uni_va = uni[0].mem_stats().reserved;

        let cfg = CoreConfig {
            iso_stacks_per_worker: 64,
            ..CoreConfig::default()
        };
        let mut iso_va = Vec::new();
        for total in [4u64, 4096] {
            let mut f = Fabric::new(Topology::new(1, 1), CostModel::fx10());
            let m = StackMgr::new(SchemeKind::Iso, &mut f, WorkerId(0), &cfg, total);
            iso_va.push(m.mem_stats().reserved);
        }
        assert!(
            iso_va[1] >= iso_va[0] * 500,
            "iso VA grows with the machine"
        );
        assert!(iso_va[1] > uni_va * 100);
        assert!(iso_va[0] >= cfg.iso_global_range(4));
        // Uni would be unchanged at any machine size: nothing in UniMgr
        // takes the worker count.
    }

    #[test]
    #[should_panic(expected = "cannot steal from itself")]
    fn self_steal_rejected() {
        let (mut f, mut mgrs, _) = machine(SchemeKind::Uni);
        transfer_stolen(
            &mut f,
            Cycles(0),
            &mut mgrs,
            WorkerId(0),
            WorkerId(0),
            1,
            0,
            64,
        );
    }
}
