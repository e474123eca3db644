//! The per-worker uni-address scheme (Section 5).

use crate::config::CoreConfig;
use crate::heap::{RdmaHeap, SavedContext, SavedHandle};
use crate::region::UniRegion;
use std::collections::VecDeque;
use uat_base::{Cycles, SplitMix64, WorkerId};
use uat_deque::SimDeque;
use uat_rdma::Fabric;
use uat_vmem::{AddressSpace, MemStats};

/// Per-worker state of the uni-address scheme: the uni-address region,
/// the RDMA region (suspended stacks + wait queue), the work-stealing
/// queue, and the worker's simulated address space for memory accounting.
#[derive(Debug)]
pub struct UniMgr {
    id: WorkerId,
    /// Simulated process address space (virtual-memory accounting).
    pub space: AddressSpace,
    /// The uni-address region discipline.
    pub region: UniRegion,
    /// Pinned heap for suspended stacks.
    pub heap: RdmaHeap,
    /// This worker's work-stealing queue (in registered memory).
    pub deque: SimDeque,
    /// Wait queue of suspended threads (Figure 7), FIFO.
    wait_queue: VecDeque<SavedHandle>,
    verify: bool,
    /// Reusable buffer for frame bytes: spawn's pattern, a steal's
    /// transfer, verification's read-back (spawn is the hot path).
    scratch: Vec<u8>,
}

impl UniMgr {
    /// Set up a worker: reserve + pin + register the uni-address region
    /// (at `cfg.uni_base`, the *same* address on every worker), the RDMA
    /// region, and the task queue.
    pub fn new(fabric: &mut Fabric, id: WorkerId, cfg: &CoreConfig) -> Self {
        let mut space = AddressSpace::new();

        // The uni-address region: fixed address, pinned, registered.
        let uni = space
            .reserve_at(cfg.uni_base, cfg.uni_region_size)
            .expect("uni-address region placement");
        space.pin(uni.base, uni.len).expect("pin uni region");
        fabric
            .register(id, uni.base, uni.len as usize)
            .expect("register uni region");

        // The RDMA region: anywhere ("their addresses do not matter").
        let heap_r = space.reserve(cfg.rdma_heap_size).expect("rdma region");
        space.pin(heap_r.base, heap_r.len).expect("pin rdma region");
        fabric
            .register(id, heap_r.base, heap_r.len as usize)
            .expect("register rdma region");

        // The work-stealing queue.
        let dq_bytes = SimDeque::footprint(cfg.deque_capacity);
        let dq_r = space.reserve(dq_bytes).expect("deque region");
        space.pin(dq_r.base, dq_r.len).expect("pin deque");
        fabric
            .register(id, dq_r.base, dq_bytes as usize)
            .expect("register deque");
        let deque = SimDeque::init(fabric, id, dq_r.base, cfg.deque_capacity).expect("init deque");

        UniMgr {
            id,
            space,
            region: UniRegion::new(cfg.uni_base, cfg.uni_region_size),
            heap: RdmaHeap::new(id, heap_r.base, heap_r.len),
            deque,
            wait_queue: VecDeque::new(),
            verify: cfg.verify_stack_bytes,
            scratch: Vec::new(),
        }
    }

    /// The worker this manager belongs to.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Spawn: allocate the child's stack just below the parent's
    /// (Figure 4) and fill it with the task's byte pattern.
    pub fn spawn_frame(&mut self, fabric: &mut Fabric, task: u64, size: u64) -> u64 {
        let base = self
            .region
            .alloc(task, size)
            .unwrap_or_else(|e| panic!("worker {}: {e}", self.id));
        // The frames are real bytes in registered memory; write the
        // task's pattern so copies are checkable end to end.
        let mut bytes = std::mem::take(&mut self.scratch);
        pattern_into(task, size as usize, &mut bytes);
        fabric
            .mem_mut(self.id)
            .write_local(base, &bytes)
            .expect("uni region registered");
        self.scratch = bytes;
        base
    }

    /// The running thread (bottom segment) exits.
    pub fn complete_bottom(&mut self, task: u64) {
        self.region
            .release_bottom(task)
            .unwrap_or_else(|e| panic!("worker {}: {e}", self.id));
    }

    /// Suspend the running thread (Figure 8): verify + copy its frames to
    /// the RDMA region, release its segment, park the context. Returns
    /// the handle and the modelled cost.
    pub fn suspend_bottom(
        &mut self,
        fabric: &mut Fabric,
        task: u64,
        ctx: u64,
        cost: &uat_base::CostModel,
    ) -> (SavedHandle, Cycles) {
        let seg = *self
            .region
            .bottom()
            .unwrap_or_else(|| panic!("worker {}: suspend with empty region", self.id));
        assert_eq!(seg.task, task, "suspend must target the running thread");
        if self.verify {
            self.verify_frames(fabric, task, seg.base, seg.size);
        }
        let h = self.heap.park(fabric, task, ctx, seg.base, seg.size);
        self.region
            .release_bottom(task)
            .expect("bottom segment just observed");
        (h, cost.suspend_cost(seg.size as usize))
    }

    /// Resume a parked thread: copy its frames back to their original
    /// uni-address-region address and reinstate the segment.
    pub fn resume_saved(
        &mut self,
        fabric: &mut Fabric,
        h: SavedHandle,
        cost: &uat_base::CostModel,
    ) -> (SavedContext, Cycles) {
        let sctx = self.heap.unpark(fabric, h);
        self.region
            .install(sctx.task, sctx.stack_top, sctx.stack_size)
            .unwrap_or_else(|e| panic!("worker {}: {e}", self.id));
        if self.verify {
            self.verify_frames(fabric, sctx.task, sctx.stack_top, sctx.stack_size);
        }
        (sctx, cost.resume_cost(sctx.stack_size as usize))
    }

    /// A local pop found the queue empty: every remaining segment's
    /// continuation was stolen; drain the region so this worker can steal.
    pub fn on_pop_empty(&mut self) {
        self.region.drain_all_dead();
    }

    /// Thief side of the migration (Figure 6's `resume_remote_context`):
    /// RDMA-READ the stolen thread's frames from the victim's uni-address
    /// region into our own, *at the same virtual address*. Returns the
    /// completion instant of the transfer.
    ///
    /// Precondition (Section 5.2 step 5): our region is empty.
    pub fn transfer_stolen_in(
        &mut self,
        fabric: &mut Fabric,
        now: Cycles,
        victim: WorkerId,
        task: u64,
        frame_base: u64,
        frame_size: u64,
    ) -> Cycles {
        self.scratch.resize(frame_size as usize, 0);
        let done = fabric
            .read(now, self.id, victim, frame_base, &mut self.scratch)
            .expect("victim frames are in its registered uni region");
        self.region
            .install(task, frame_base, frame_size)
            .unwrap_or_else(|e| panic!("worker {}: steal install: {e}", self.id));
        fabric
            .mem_mut(self.id)
            .write_local(frame_base, &self.scratch)
            .expect("own uni region registered");
        if self.verify {
            self.verify_frames(fabric, task, frame_base, frame_size);
        }
        done
    }

    /// Push a suspended thread on the wait queue (`WAIT_QUEUE_PUSH`).
    pub fn wait_push(&mut self, h: SavedHandle) {
        self.wait_queue.push_back(h);
    }

    /// Pop the oldest waiting thread (`WAIT_QUEUE_POP`).
    pub fn wait_pop(&mut self) -> Option<SavedHandle> {
        self.wait_queue.pop_front()
    }

    /// Number of threads parked on the wait queue.
    pub fn wait_len(&self) -> usize {
        self.wait_queue.len()
    }

    /// Peak bytes ever used in the uni-address region (Table 4's metric).
    pub fn peak_stack_usage(&self) -> u64 {
        self.region.peak_usage()
    }

    /// Virtual-memory accounting for this worker.
    pub fn mem_stats(&self) -> MemStats {
        self.space.stats()
    }

    fn verify_frames(&mut self, fabric: &Fabric, task: u64, base: u64, size: u64) {
        self.scratch.resize(size as usize, 0);
        fabric
            .mem(self.id)
            .read_local(base, &mut self.scratch)
            .expect("frames readable");
        assert_eq!(
            self.scratch,
            pattern(task, size as usize),
            "worker {}: task {task} frame bytes corrupted",
            self.id
        );
    }
}

#[cfg(feature = "audit")]
impl UniMgr {
    /// Re-validate this worker's structural invariants and report the
    /// facts the engine-level auditor cross-references (`audit` feature;
    /// DESIGN.md §7). Panics on the first violation.
    pub fn audit(&self, fabric: &Fabric) -> crate::audit::WorkerAudit {
        let r = &self.region;
        // Uni-address packing (Figure 3), as hard checks: `p` inside the
        // region, segments contiguous top-down, the bottom segment's base
        // at `p`, and an empty region fully reclaimed.
        assert!(
            r.p() >= r.start() && r.p() <= r.end(),
            "worker {}: p {:#x} outside the region [{:#x}, {:#x})",
            self.id,
            r.p(),
            r.start(),
            r.end()
        );
        let segs = r.segments();
        for s in segs {
            assert!(
                s.size > 0,
                "worker {}: empty segment for task {}",
                self.id,
                s.task
            );
        }
        for pair in segs.windows(2) {
            assert_eq!(
                pair[1].end(),
                pair[0].base,
                "worker {}: segments of tasks {} and {} are not contiguous",
                self.id,
                pair[0].task,
                pair[1].task
            );
        }
        match (segs.first(), segs.last()) {
            (Some(top), Some(bottom)) => {
                assert!(
                    top.end() <= r.end() && bottom.base >= r.start(),
                    "worker {}: segments escape the region",
                    self.id
                );
                assert_eq!(
                    bottom.base,
                    r.p(),
                    "worker {}: p {:#x} does not sit at the bottom segment (task {})",
                    self.id,
                    r.p(),
                    bottom.task
                );
            }
            _ => assert_eq!(
                r.p(),
                r.end(),
                "worker {}: empty region left p at {:#x}",
                self.id,
                r.p()
            ),
        }
        assert!(
            r.peak_usage() >= r.usage(),
            "worker {}: peak below current usage",
            self.id
        );

        // RDMA-region handles disjoint and in-bounds; every wait-queue
        // handle resolves to a live parked context, and nothing is parked
        // that is not on the wait queue (the engine always pairs
        // suspend with wait_push).
        self.heap.audit(r.start(), r.end());
        assert_eq!(
            self.heap.parked_count(),
            self.wait_queue.len(),
            "worker {}: {} parked contexts but {} wait-queue entries",
            self.id,
            self.heap.parked_count(),
            self.wait_queue.len()
        );
        let mut wait_tasks = Vec::with_capacity(self.wait_queue.len());
        for &h in &self.wait_queue {
            let sctx = self
                .heap
                .get(h)
                .unwrap_or_else(|| panic!("worker {}: wait-queue handle {h:?} dangles", self.id));
            wait_tasks.push(sctx.task);
        }

        // Deque shared words, and every live entry's frames present as a
        // matching region segment (the reverse need not hold: the running
        // task and stale stolen frames have no entry).
        let snap = self.deque.snapshot(fabric).expect("own deque snapshot");
        assert!(
            snap.top <= snap.bottom,
            "worker {}: deque indices inverted (top {} > bottom {})",
            self.id,
            snap.top,
            snap.bottom
        );
        assert!(
            snap.bottom - snap.top <= self.deque.capacity(),
            "worker {}: deque holds {} entries over capacity {}",
            self.id,
            snap.bottom - snap.top,
            self.deque.capacity()
        );
        let mut deque_tasks = Vec::with_capacity(snap.entries.len());
        for e in &snap.entries {
            let seg = r.segment_of(e.task).unwrap_or_else(|| {
                panic!(
                    "worker {}: deque entry for task {} has no region segment",
                    self.id, e.task
                )
            });
            assert_eq!(
                (seg.base, seg.size),
                (e.frame_base, e.frame_size),
                "worker {}: deque entry for task {} disagrees with its segment",
                self.id,
                e.task
            );
            deque_tasks.push(e.task);
        }
        crate::audit::WorkerAudit {
            lock: snap.lock,
            deque_tasks,
            wait_tasks,
            bottom_task: r.bottom().map(|s| s.task),
        }
    }
}

/// The deterministic byte pattern of a task's frames. Copies of frames
/// across suspend/resume/steal must preserve it bit for bit.
pub fn pattern(task: u64, size: usize) -> Vec<u8> {
    let mut v = Vec::new();
    pattern_into(task, size, &mut v);
    v
}

/// [`pattern`] into a caller-provided buffer, so hot paths can reuse one
/// allocation across tasks.
pub fn pattern_into(task: u64, size: usize, out: &mut Vec<u8>) {
    let mut r = SplitMix64::new(task ^ 0xF0A7_5EED);
    out.clear();
    out.reserve(size);
    while out.len() < size {
        out.extend_from_slice(&r.next_u64().to_le_bytes());
    }
    out.truncate(size);
}

#[cfg(test)]
mod tests {
    use super::*;
    use uat_base::{CostModel, Topology};

    fn setup() -> (Fabric, UniMgr, UniMgr) {
        let mut f = Fabric::new(Topology::new(2, 1), CostModel::fx10());
        let cfg = CoreConfig::verified();
        let a = UniMgr::new(&mut f, WorkerId(0), &cfg);
        let b = UniMgr::new(&mut f, WorkerId(1), &cfg);
        (f, a, b)
    }

    #[test]
    fn workers_share_the_uni_address() {
        let (_, a, b) = setup();
        assert_eq!(a.region.start(), b.region.start(), "same VA everywhere");
        assert_eq!(a.region.end(), b.region.end());
    }

    #[test]
    fn spawn_complete_lineage() {
        let (mut f, mut a, _) = setup();
        let p = a.spawn_frame(&mut f, 1, 1024);
        let c = a.spawn_frame(&mut f, 2, 512);
        assert_eq!(c, p - 512, "child packs directly below parent");
        a.complete_bottom(2);
        a.complete_bottom(1);
        assert!(a.region.is_empty());
        assert_eq!(a.peak_stack_usage(), 1536);
    }

    #[test]
    fn suspend_resume_roundtrip_preserves_pattern() {
        let (mut f, mut a, _) = setup();
        let cost = CostModel::fx10();
        a.spawn_frame(&mut f, 1, 2048);
        a.spawn_frame(&mut f, 2, 3055);
        let (h, c_susp) = a.suspend_bottom(&mut f, 2, 7, &cost);
        assert!(c_susp > Cycles(cost.suspend_base));
        // Thread 1 is now the bottom; it finishes and the region drains.
        a.complete_bottom(1);
        assert!(a.region.is_empty());
        // Resume thread 2 at its original address; pattern verified inside.
        let (sctx, _) = a.resume_saved(&mut f, h, &cost);
        assert_eq!(sctx.task, 2);
        assert_eq!(sctx.ctx, 7);
        assert_eq!(a.region.bottom().unwrap().task, 2);
        a.complete_bottom(2);
    }

    #[test]
    fn steal_transfer_preserves_bytes_and_address() {
        let (mut f, mut victim, mut thief) = setup();
        // Victim: parent 1 spawns child 2 (child-first: 2 runs, 1's
        // continuation is stealable).
        let p_base = victim.spawn_frame(&mut f, 1, 3055);
        victim.spawn_frame(&mut f, 2, 800);
        // Thief's region is empty; transfer task 1's frames.
        let done = thief.transfer_stolen_in(&mut f, Cycles(0), WorkerId(0), 1, p_base, 3055);
        assert!(done > Cycles(0));
        // Installed at the same virtual address (pattern checked inside).
        assert_eq!(thief.region.bottom().unwrap().base, p_base);
        // Victim continues: child 2 completes; pop would fail; drain.
        victim.complete_bottom(2);
        victim.on_pop_empty();
        assert!(victim.region.is_empty());
        // Thief can spawn below the stolen continuation.
        let c = thief.spawn_frame(&mut f, 3, 256);
        assert_eq!(c, p_base - 256);
    }

    #[test]
    fn wait_queue_is_fifo() {
        let (mut f, mut a, _) = setup();
        let cost = CostModel::fx10();
        a.spawn_frame(&mut f, 1, 128);
        let (h1, _) = a.suspend_bottom(&mut f, 1, 0, &cost);
        a.spawn_frame(&mut f, 2, 128);
        let (h2, _) = a.suspend_bottom(&mut f, 2, 0, &cost);
        a.wait_push(h1);
        a.wait_push(h2);
        assert_eq!(a.wait_len(), 2);
        assert_eq!(a.wait_pop(), Some(h1));
        assert_eq!(a.wait_pop(), Some(h2));
        assert_eq!(a.wait_pop(), None);
    }

    #[test]
    fn memory_accounting_shows_o1_virtual_memory() {
        let (_, a, _) = setup();
        let cfg = CoreConfig::default();
        let s = a.mem_stats();
        // Reserved VA ≈ uni region + rdma heap + deque, independent of
        // machine size — the scheme's headline property.
        let expect = cfg.uni_region_size
            + cfg.rdma_heap_size
            + uat_vmem::AddressSpace::page_align(SimDeque::footprint(cfg.deque_capacity));
        assert_eq!(s.reserved, expect);
        // Everything is pinned and pre-faulted: zero runtime page faults.
        assert_eq!(s.faults, 0);
        assert_eq!(s.pinned, s.committed);
    }

    #[test]
    fn pattern_is_deterministic_and_distinct() {
        assert_eq!(pattern(5, 100), pattern(5, 100));
        assert_ne!(pattern(5, 100), pattern(6, 100));
        assert_eq!(pattern(5, 0).len(), 0);
        assert_eq!(pattern(5, 13).len(), 13);
    }

    #[test]
    #[should_panic(expected = "uni-address region overflow")]
    fn region_overflow_is_loud() {
        let mut f = Fabric::new(Topology::new(1, 1), CostModel::fx10());
        let cfg = CoreConfig {
            uni_region_size: 8192,
            ..CoreConfig::default()
        };
        let mut a = UniMgr::new(&mut f, WorkerId(0), &cfg);
        a.spawn_frame(&mut f, 1, 5000);
        a.spawn_frame(&mut f, 2, 5000);
    }
}
