//! The iso-address baseline (Section 4).
//!
//! Iso-address [Antoniu, Bougé & Namyst, 1999] guarantees that a migrated
//! stack keeps its virtual address by making every stack's address
//! *globally unique* and reserving the union of all stacks' addresses in
//! **every** process. Migration is then a bitwise copy to the same
//! address. The costs, which this module reproduces so the `iso_vs_uni`
//! experiment can measure them:
//!
//! 1. virtual address space: every worker reserves
//!    `workers × stacks-per-worker × stack-size` bytes (2^49 in the
//!    paper's example — beyond x86-64);
//! 2. physical memory + page faults: the destination of a migration
//!    touches the incoming stack's pages for the first time in *its*
//!    address space (21K cycles each on SPARC64IXfx);
//! 3. no RDMA: the reservation cannot be pinned, so a stack transfer
//!    needs the victim node's assistance (modelled via the comm server,
//!    like the software fetch-and-add) instead of a one-sided READ.
//!
//! The task queue itself is kept identical to the uni-address runtime's
//! (small and pinnable); the paper's own Section 6.3 comparison varies
//! only the migration path, and so do we.

use crate::config::CoreConfig;
use crate::heap::SavedHandle;
use crate::uni::pattern;
use std::collections::{HashMap, VecDeque};
use uat_base::{CostModel, Cycles, WorkerId};
use uat_deque::FabricDeque;
use uat_rdma::Fabric;
use uat_vmem::{AddressSpace, MemStats, PAGE_SIZE};

/// Base virtual address of the global iso-address stack range.
pub const ISO_BASE: u64 = 0x4000_0000_0000;

/// One task's stack in the iso scheme: a globally-unique address plus the
/// live frame bytes (kept out of fabric memory — the range is unpinnable,
/// which is the point).
#[derive(Clone, Debug)]
pub struct IsoStack {
    /// Globally unique base address.
    pub base: u64,
    /// Live frame bytes.
    pub bytes: Vec<u8>,
}

#[derive(Clone, Copy, Debug)]
struct IsoSaved {
    task: u64,
    ctx: u64,
}

/// Per-worker state of the iso-address baseline.
#[derive(Debug)]
pub struct IsoMgr {
    id: WorkerId,
    /// Simulated process address space holding the full global
    /// reservation (memory accounting).
    pub space: AddressSpace,
    /// This worker's work-stealing queue.
    pub deque: FabricDeque,
    stack_size: u64,
    slab_base: u64,
    slab_end: u64,
    next_slot: u64,
    free_slots: Vec<u64>,
    /// Stacks currently resident on this worker, by task.
    stacks: HashMap<u64, IsoStack>,
    saved: Vec<Option<IsoSaved>>,
    free_saved: Vec<u64>,
    wait_queue: VecDeque<SavedHandle>,
    live_bytes: u64,
    peak_live_bytes: u64,
    verify: bool,
}

impl IsoMgr {
    /// Set up a worker for a machine of `total_workers` workers: reserve
    /// the entire global stack range (this is iso-address's defining
    /// cost), plus queue memory.
    ///
    /// Panics if the reservation exceeds the 2^48 x86-64 address space —
    /// exactly the failure mode of the paper's Section 4 example.
    pub fn new(fabric: &mut Fabric, id: WorkerId, cfg: &CoreConfig, total_workers: u64) -> Self {
        let mut space = AddressSpace::new();
        let global = cfg.iso_global_range(total_workers);
        space.reserve_at(ISO_BASE, global).unwrap_or_else(|e| {
            panic!(
                "iso-address global reservation of {global:#x} bytes failed: {e} \
                 (this is the scalability wall the paper describes)"
            )
        });
        let slab_size = cfg.iso_stacks_per_worker * cfg.iso_stack_size;
        let slab_base = ISO_BASE + id.0 as u64 * slab_size;

        let dq_r = space
            .reserve(FabricDeque::footprint(cfg.deque_capacity))
            .expect("deque region");
        space.pin(dq_r.base, dq_r.len).expect("pin deque");
        let deque =
            FabricDeque::init(fabric, id, dq_r.base, cfg.deque_capacity).expect("init deque");

        IsoMgr {
            id,
            space,
            deque,
            stack_size: cfg.iso_stack_size,
            slab_base,
            slab_end: slab_base + slab_size,
            next_slot: slab_base,
            free_slots: Vec::new(),
            stacks: HashMap::new(),
            saved: Vec::new(),
            free_saved: Vec::new(),
            wait_queue: VecDeque::new(),
            live_bytes: 0,
            peak_live_bytes: 0,
            verify: cfg.verify_stack_bytes,
        }
    }

    /// The worker this manager belongs to.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// Spawn: carve a globally-unique stack slot from this worker's slab
    /// and touch its pages (first-touch faults are real in iso-address —
    /// the range cannot be pre-faulted). Returns `(base, faults)`.
    pub fn spawn_frame(&mut self, task: u64, size: u64) -> (u64, u64) {
        assert!(
            size <= self.stack_size,
            "frame of {size} bytes exceeds the iso stack reservation of {} \
             (grow CoreConfig::iso_stack_size)",
            self.stack_size
        );
        let base = match self.free_slots.pop() {
            Some(b) => b,
            None => {
                assert!(
                    self.next_slot < self.slab_end,
                    "worker {} exhausted its iso-address slab; grow \
                     CoreConfig::iso_stacks_per_worker",
                    self.id
                );
                let b = self.next_slot;
                self.next_slot += self.stack_size;
                b
            }
        };
        let faults = self.space.touch(base, size).expect("slab is reserved");
        self.stacks.insert(
            task,
            IsoStack {
                base,
                bytes: pattern(task, size as usize),
            },
        );
        self.live_bytes += size;
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes);
        (base, faults)
    }

    /// The running task exits. Returns `(slab_owner, slot_base)` so the
    /// cluster can return the address to the worker whose slab it came
    /// from (after a migration that is a *different* worker — address
    /// recycling is inherently non-local in iso).
    pub fn complete(&mut self, task: u64, cfg_slab_size: u64) -> (WorkerId, u64) {
        let st = self
            .stacks
            .remove(&task)
            .unwrap_or_else(|| panic!("worker {}: task {task} has no stack", self.id));
        self.live_bytes -= st.bytes.len() as u64;
        let owner = WorkerId(((st.base - ISO_BASE) / cfg_slab_size) as u32);
        (owner, st.base)
    }

    /// Return a recycled slot to this worker's free list.
    pub fn reclaim_slot(&mut self, base: u64) {
        debug_assert!(base >= self.slab_base && base < self.slab_end);
        self.free_slots.push(base);
    }

    /// Suspend the running task. No copy: the stack already lives at its
    /// forever-address — iso's one advantage, reflected in the cost.
    pub fn suspend(&mut self, task: u64, ctx: u64, cost: &CostModel) -> (SavedHandle, Cycles) {
        debug_assert!(self.stacks.contains_key(&task));
        let rec = IsoSaved { task, ctx };
        let slot = match self.free_saved.pop() {
            Some(s) => {
                self.saved[s as usize] = Some(rec);
                s
            }
            None => {
                self.saved.push(Some(rec));
                (self.saved.len() - 1) as u64
            }
        };
        (SavedHandle(slot), Cycles(cost.suspend_base))
    }

    /// Resume a suspended task. Returns `(task, ctx, cost)`.
    pub fn resume_saved(&mut self, h: SavedHandle, cost: &CostModel) -> (u64, u64, Cycles) {
        let rec = self.saved[h.0 as usize]
            .take()
            .expect("resume of a live handle");
        self.free_saved.push(h.0);
        (rec.task, rec.ctx, Cycles(cost.resume_base))
    }

    /// Migrate a stolen task's stack from `victim` into this worker.
    ///
    /// Two-sided: the request is served by the victim node's comm server
    /// (same queueing machinery as the software fetch-and-add), then the
    /// stack bytes travel, then this address space takes first-touch page
    /// faults for every page it has never mapped — the 21K-cycle cost the
    /// paper's Section 6.3 estimate is built on. Returns
    /// `(completion, faults)`.
    pub fn transfer_stolen_in(
        &mut self,
        fabric: &mut Fabric,
        now: Cycles,
        victim: &mut IsoMgr,
        task: u64,
    ) -> (Cycles, u64) {
        let st = victim
            .stacks
            .remove(&task)
            .unwrap_or_else(|| panic!("victim {} lost task {task}'s stack", victim.id));
        victim.live_bytes -= st.bytes.len() as u64;
        let size = st.bytes.len() as u64;
        let cost = fabric.cost_model().clone();
        // Victim-assisted request through the victim node's comm server:
        // reuse the fabric's FAA path for its queueing semantics by
        // modelling request+service, then the payload at READ bandwidth.
        let assist = Cycles(cost.faa_notice_latency + cost.faa_service);
        let intra = fabric.topology().same_node(self.id, victim.id);
        let payload = cost.rdma_read(size as usize, intra);
        // Same address, new address space: first touches fault here.
        let faults = self
            .space
            .touch(st.base, size)
            .expect("global range reserved");
        let fault_cycles = Cycles(faults * cost.page_fault);
        if self.verify {
            assert_eq!(
                st.bytes,
                pattern(task, size as usize),
                "iso migration corrupted task {task}'s stack"
            );
        }
        self.stacks.insert(task, st);
        self.live_bytes += size;
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes);
        (now + assist + payload + fault_cycles, faults)
    }

    /// Iso has no shared region to drain; kept for interface symmetry.
    pub fn on_pop_empty(&mut self) {}

    /// Push a suspended thread on the wait queue.
    pub fn wait_push(&mut self, h: SavedHandle) {
        self.wait_queue.push_back(h);
    }

    /// Pop the oldest waiting thread.
    pub fn wait_pop(&mut self) -> Option<SavedHandle> {
        self.wait_queue.pop_front()
    }

    /// Number of threads on the wait queue.
    pub fn wait_len(&self) -> usize {
        self.wait_queue.len()
    }

    /// Peak bytes of live stacks resident at once (iso's analogue of the
    /// Table 4 stack-usage column).
    pub fn peak_stack_usage(&self) -> u64 {
        self.peak_live_bytes
    }

    /// Virtual-memory accounting; `reserved` shows the global range.
    pub fn mem_stats(&self) -> MemStats {
        self.space.stats()
    }

    /// Pages this address space has committed for stacks (the `(1+mr)`
    /// physical growth of Section 4, measurable per worker).
    pub fn committed_stack_pages(&self) -> u64 {
        // Committed = stacks (touched) + deque (pinned); subtract pinned.
        (self.space.stats().committed - self.space.stats().pinned) / PAGE_SIZE
    }
}

impl IsoMgr {
    /// Re-validate this worker's structural invariants and report the
    /// facts the engine-level auditor cross-references (DESIGN.md §7).
    /// Panics on the first violation.
    pub fn audit(&self, fabric: &Fabric) -> crate::audit::WorkerAudit {
        // Resident stacks: globally-unique addresses (pairwise distinct,
        // at or above the global base), each within its slot's size, and
        // the live-byte accounting exact.
        let mut bases = std::collections::HashSet::new();
        let mut live = 0u64;
        for (task, st) in &self.stacks {
            assert!(
                st.base >= ISO_BASE,
                "worker {}: task {task}'s stack at {:#x} below the global range",
                self.id,
                st.base
            );
            assert!(
                st.bytes.len() as u64 <= self.stack_size,
                "worker {}: task {task}'s stack outgrew its iso slot",
                self.id
            );
            assert!(
                bases.insert(st.base),
                "worker {}: two resident stacks share address {:#x}",
                self.id,
                st.base
            );
            live += st.bytes.len() as u64;
        }
        assert_eq!(
            live, self.live_bytes,
            "worker {}: live-byte accounting drifted",
            self.id
        );
        assert!(self.peak_live_bytes >= self.live_bytes);
        assert!(self.next_slot >= self.slab_base && self.next_slot <= self.slab_end);
        for &s in &self.free_slots {
            assert!(
                s >= self.slab_base && s < self.slab_end,
                "worker {}: foreign slot {s:#x} on the local free list",
                self.id
            );
        }

        // Wait queue: every handle resolves, and a suspended iso thread
        // keeps its stack resident (suspend copies nothing out).
        let mut wait_tasks = Vec::with_capacity(self.wait_queue.len());
        for &h in &self.wait_queue {
            let rec = self
                .saved
                .get(h.0 as usize)
                .and_then(|s| *s)
                .unwrap_or_else(|| panic!("worker {}: wait-queue handle {h:?} dangles", self.id));
            assert!(
                self.stacks.contains_key(&rec.task),
                "worker {}: suspended task {} lost its resident stack",
                self.id,
                rec.task
            );
            wait_tasks.push(rec.task);
        }

        // Deque shared words; every live entry's task has a resident stack.
        let snap = self.deque.snapshot(fabric);
        assert!(
            snap.top <= snap.bottom,
            "worker {}: deque indices inverted (top {} > bottom {})",
            self.id,
            snap.top,
            snap.bottom
        );
        assert!(
            snap.bottom - snap.top <= self.deque.capacity() as u64,
            "worker {}: deque holds {} entries over capacity {}",
            self.id,
            snap.bottom - snap.top,
            self.deque.capacity()
        );
        let mut deque_tasks = Vec::with_capacity(snap.entries.len());
        for e in &snap.entries {
            assert!(
                self.stacks.contains_key(&e.task),
                "worker {}: deque entry for task {} has no resident stack",
                self.id,
                e.task
            );
            deque_tasks.push(e.task);
        }
        crate::audit::WorkerAudit {
            lock: snap.lock,
            deque_tasks,
            wait_tasks,
            bottom_task: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uat_base::Topology;

    fn cfg() -> CoreConfig {
        CoreConfig {
            iso_stack_size: 16 << 10,
            iso_stacks_per_worker: 64,
            verify_stack_bytes: true,
            ..CoreConfig::default()
        }
    }

    fn setup() -> (Fabric, IsoMgr, IsoMgr, CoreConfig) {
        let mut f = Fabric::new(Topology::new(2, 1), CostModel::fx10());
        let c = cfg();
        let a = IsoMgr::new(&mut f, WorkerId(0), &c, 2);
        let b = IsoMgr::new(&mut f, WorkerId(1), &c, 2);
        (f, a, b, c)
    }

    #[test]
    fn every_worker_reserves_the_global_range() {
        let (_, a, b, c) = setup();
        let global = c.iso_global_range(2);
        assert!(a.mem_stats().reserved >= global);
        assert!(b.mem_stats().reserved >= global);
        // Compare with uni: each worker here reserves 2 workers' worth;
        // at 3840 workers this is what explodes.
        assert_eq!(global, 2 * 64 * (16 << 10));
    }

    #[test]
    fn stacks_get_globally_unique_addresses() {
        let (_, mut a, mut b, _) = setup();
        let (a1, _) = a.spawn_frame(1, 1000);
        let (a2, _) = a.spawn_frame(2, 1000);
        let (b1, _) = b.spawn_frame(3, 1000);
        assert_ne!(a1, a2);
        assert!(a1 < a.slab_end && a1 >= a.slab_base);
        assert!(b1 >= b.slab_base, "different worker, disjoint slab");
        assert_ne!(a1, b1);
    }

    #[test]
    fn first_touch_faults_then_silence() {
        let (_, mut a, _, _) = setup();
        let (_, f1) = a.spawn_frame(1, 5000);
        assert_eq!(f1, 2, "5000 bytes = 2 pages faulted");
        let slab = 64 * (16u64 << 10);
        let (owner, base) = a.complete(1, slab);
        assert_eq!(owner, WorkerId(0));
        a.reclaim_slot(base);
        // Reusing the slot faults nothing: pages stay committed.
        let (_, f2) = a.spawn_frame(2, 5000);
        assert_eq!(f2, 0);
    }

    #[test]
    fn migration_faults_on_the_destination() {
        let (mut fab, mut a, mut b, c) = setup();
        let (base, _) = a.spawn_frame(7, 3055);
        let (done, faults) = b.transfer_stolen_in(&mut fab, Cycles(0), &mut a, 7);
        assert_eq!(faults, 1, "3055 bytes on a fresh page = 1 fault");
        // Completion includes assist + payload + 21K-cycle fault.
        assert!(done.get() > 21_000);
        // The stack kept its address; a second migration back would fault
        // nothing new on A (its pages are already committed there).
        let (done2, faults2) = a.transfer_stolen_in(&mut fab, done, &mut b, 7);
        assert_eq!(faults2, 0);
        assert!(done2 > done);
        let slab = c.iso_stacks_per_worker * c.iso_stack_size;
        let (owner, slot) = a.complete(7, slab);
        assert_eq!(owner, WorkerId(0));
        assert_eq!(slot, base);
    }

    #[test]
    fn suspend_resume_without_copies() {
        let (_, mut a, _, _) = setup();
        let cost = CostModel::fx10();
        a.spawn_frame(1, 2000);
        let (h, c_susp) = a.suspend(1, 99, &cost);
        assert_eq!(
            c_susp,
            Cycles(cost.suspend_base),
            "no memcpy in iso suspend"
        );
        a.wait_push(h);
        let h2 = a.wait_pop().unwrap();
        let (task, ctx, _) = a.resume_saved(h2, &cost);
        assert_eq!((task, ctx), (1, 99));
    }

    #[test]
    fn slab_exhaustion_is_loud() {
        let mut fab = Fabric::new(Topology::new(4, 1), CostModel::fx10());
        let c = CoreConfig {
            iso_stacks_per_worker: 2,
            ..cfg()
        };
        let mut m = IsoMgr::new(&mut fab, WorkerId(2), &c, 4);
        m.spawn_frame(1, 100);
        m.spawn_frame(2, 100);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.spawn_frame(3, 100);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn peak_live_bytes_tracks() {
        let (_, mut a, _, c) = setup();
        let slab = c.iso_stacks_per_worker * c.iso_stack_size;
        a.spawn_frame(1, 1000);
        a.spawn_frame(2, 2000);
        let (_, s) = a.complete(2, slab);
        a.reclaim_slot(s);
        assert_eq!(a.peak_stack_usage(), 3000);
    }
}
