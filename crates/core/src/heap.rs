//! The RDMA region: pinned storage for suspended threads (Figure 8).
//!
//! `suspend()` packs the suspending thread — saved registers plus its
//! stack frames — into `pinned_malloc`ed memory so the uni-address region
//! can host whatever runs next. [`RdmaHeap`] owns that region: a
//! [`RegionAllocator`] over registered fabric memory plus the table of
//! [`SavedContext`]s. The bytes really move: a suspend copies the frames
//! out of the uni-address region's fabric memory into the heap's, and a
//! resume copies them back (`resume_saved_context_1`'s memcpy in
//! Figure 7).

use serde::{Deserialize, Serialize};
use uat_base::WorkerId;
use uat_rdma::Fabric;
use uat_vmem::RegionAllocator;

/// Handle to a saved (suspended) thread context on one worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SavedHandle(pub u64);

/// A packed suspended thread (`saved_context_t` in Figure 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SavedContext {
    /// The suspended task.
    pub task: u64,
    /// Opaque resume point (`ip`/`ctx` in the paper; the simulator stores
    /// the task program counter here).
    pub ctx: u64,
    /// Original lowest stack address in the uni-address region
    /// (`stack_top`); resume copies the frames back to exactly here.
    pub stack_top: u64,
    /// Size of the saved frames (`stack_size`).
    pub stack_size: u64,
    /// Where the frames were parked in the RDMA region (`stack_buf`).
    pub stack_buf: u64,
}

/// Per-worker RDMA region: allocator + saved-context table.
#[derive(Debug)]
pub struct RdmaHeap {
    owner: WorkerId,
    alloc: RegionAllocator,
    saved: Vec<Option<SavedContext>>,
    free_slots: Vec<u64>,
    /// Peak bytes parked at once (part of the pinned-memory accounting).
    peak_parked: u64,
    /// Reusable staging buffer for the park/unpark copies.
    scratch: Vec<u8>,
}

impl RdmaHeap {
    /// A heap over the registered region `[base, base+size)` of `owner`.
    pub fn new(owner: WorkerId, base: u64, size: u64) -> Self {
        RdmaHeap {
            owner,
            alloc: RegionAllocator::new(base, size, 16),
            saved: Vec::new(),
            free_slots: Vec::new(),
            peak_parked: 0,
            scratch: Vec::new(),
        }
    }

    /// Park a thread: copy `stack_size` bytes from `stack_top` (in the
    /// owner's uni-address region) into freshly allocated heap space, and
    /// record the context. The copy goes through fabric memory for real.
    pub fn park(
        &mut self,
        fabric: &mut Fabric,
        task: u64,
        ctx: u64,
        stack_top: u64,
        stack_size: u64,
    ) -> SavedHandle {
        let stack_buf = self
            .alloc
            .alloc(stack_size)
            .expect("RDMA region exhausted; grow CoreConfig::rdma_heap_size");
        // memcpy(sctx->stack_buf, stack_top, stack_size)
        self.scratch.resize(stack_size as usize, 0);
        fabric
            .mem(self.owner)
            .read_local(stack_top, &mut self.scratch)
            .expect("suspending frames must be in registered memory");
        fabric
            .mem_mut(self.owner)
            .write_local(stack_buf, &self.scratch)
            .expect("heap region is registered");
        self.peak_parked = self.peak_parked.max(self.alloc.used());
        let sctx = SavedContext {
            task,
            ctx,
            stack_top,
            stack_size,
            stack_buf,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.saved[s as usize] = Some(sctx);
                s
            }
            None => {
                self.saved.push(Some(sctx));
                (self.saved.len() - 1) as u64
            }
        };
        SavedHandle(slot)
    }

    /// Inspect a parked context.
    pub fn get(&self, h: SavedHandle) -> Option<&SavedContext> {
        self.saved.get(h.0 as usize)?.as_ref()
    }

    /// Unpark a thread: copy its frames back to their original address in
    /// the uni-address region and free the heap block. Returns the
    /// context (the caller reinstalls the region segment and resumes).
    pub fn unpark(&mut self, fabric: &mut Fabric, h: SavedHandle) -> SavedContext {
        let sctx = self.saved[h.0 as usize]
            .take()
            .expect("unpark of a live handle");
        self.free_slots.push(h.0);
        // memcpy(next_sctx->stack_top, sctx->stack_buf, stack_size)
        self.scratch.resize(sctx.stack_size as usize, 0);
        fabric
            .mem(self.owner)
            .read_local(sctx.stack_buf, &mut self.scratch)
            .expect("parked frames are in the heap region");
        fabric
            .mem_mut(self.owner)
            .write_local(sctx.stack_top, &self.scratch)
            .expect("uni-address region is registered");
        self.alloc.free(sctx.stack_buf);
        sctx
    }

    /// Peak bytes parked at once.
    pub fn peak_parked(&self) -> u64 {
        self.peak_parked
    }

    /// Number of currently parked threads.
    pub fn parked_count(&self) -> usize {
        self.saved.iter().filter(|s| s.is_some()).count()
    }
}

impl RdmaHeap {
    /// Hard-check the saved-context table for the auditor: allocator
    /// blocks disjoint and in-bounds, every parked stack buffer inside
    /// the heap region and backed by a live allocation of sufficient
    /// size, and every saved stack's home address inside the caller's
    /// uni-address region `[stack_lo, stack_hi)`.
    pub fn audit(&self, stack_lo: u64, stack_hi: u64) {
        self.alloc.check_invariants();
        let base = self.alloc.base();
        let end = base + self.alloc.capacity();
        let mut parked_sum = 0u64;
        for sctx in self.saved.iter().flatten() {
            assert!(
                sctx.stack_buf >= base && sctx.stack_buf + sctx.stack_size <= end,
                "worker {}: task {}'s parked frames [{:#x}, +{:#x}) escape the RDMA region [{base:#x}, {end:#x})",
                self.owner,
                sctx.task,
                sctx.stack_buf,
                sctx.stack_size
            );
            assert!(
                self.alloc
                    .size_of(sctx.stack_buf)
                    .is_some_and(|sz| sz >= sctx.stack_size),
                "worker {}: task {}'s parked frames at {:#x} have no backing allocation",
                self.owner,
                sctx.task,
                sctx.stack_buf
            );
            assert!(
                sctx.stack_top >= stack_lo && sctx.stack_top + sctx.stack_size <= stack_hi,
                "worker {}: task {}'s home address [{:#x}, +{:#x}) escapes the uni-address region",
                self.owner,
                sctx.task,
                sctx.stack_top,
                sctx.stack_size
            );
            parked_sum += sctx.stack_size;
        }
        assert!(
            self.alloc.used() >= parked_sum,
            "worker {}: allocator accounts {} bytes used but {} bytes are parked",
            self.owner,
            self.alloc.used(),
            parked_sum
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uat_base::{CostModel, Topology};

    const W: WorkerId = WorkerId(0);
    const UNI: u64 = 0x10_000;
    const HEAP: u64 = 0x100_000;

    fn setup() -> (Fabric, RdmaHeap) {
        let mut f = Fabric::new(Topology::new(1, 1), CostModel::fx10());
        f.register(W, UNI, 64 << 10).unwrap();
        f.register(W, HEAP, 64 << 10).unwrap();
        (f, RdmaHeap::new(W, HEAP, 64 << 10))
    }

    #[test]
    fn park_unpark_preserves_bytes() {
        let (mut f, mut h) = setup();
        let frames: Vec<u8> = (0..777u32).map(|i| (i % 251) as u8).collect();
        let top = UNI + 1024;
        f.mem_mut(W).write_local(top, &frames).unwrap();
        let handle = h.park(&mut f, 1, 42, top, frames.len() as u64);
        assert_eq!(h.parked_count(), 1);
        assert!(h.peak_parked() >= frames.len() as u64);
        // Clobber the original location (another thread runs there).
        f.mem_mut(W)
            .write_local(top, &vec![0xEE; frames.len()])
            .unwrap();
        let sctx = h.unpark(&mut f, handle);
        assert_eq!(sctx.task, 1);
        assert_eq!(sctx.ctx, 42);
        assert_eq!(sctx.stack_top, top);
        let mut back = vec![0u8; frames.len()];
        f.mem(W).read_local(top, &mut back).unwrap();
        assert_eq!(back, frames, "frames restored to the original address");
        assert_eq!(h.parked_count(), 0);
    }

    #[test]
    fn many_parked_threads_coexist() {
        let (mut f, mut h) = setup();
        let mut handles = Vec::new();
        for i in 0..10u64 {
            let top = UNI + i * 512;
            let data = vec![i as u8 + 1; 256];
            f.mem_mut(W).write_local(top, &data).unwrap();
            handles.push((h.park(&mut f, i, i, top, 256), i));
        }
        assert_eq!(h.parked_count(), 10);
        // Unpark out of order.
        for &(handle, i) in handles.iter().rev() {
            let sctx = h.unpark(&mut f, handle);
            assert_eq!(sctx.task, i);
            let mut b = vec![0u8; 256];
            f.mem(W).read_local(sctx.stack_top, &mut b).unwrap();
            assert_eq!(b, vec![i as u8 + 1; 256]);
        }
        assert_eq!(h.peak_parked(), 10 * 256);
    }

    #[test]
    fn slots_recycle() {
        let (mut f, mut h) = setup();
        f.mem_mut(W).write_local(UNI, &[1; 64]).unwrap();
        let a = h.park(&mut f, 1, 0, UNI, 64);
        h.unpark(&mut f, a);
        let b = h.park(&mut f, 2, 0, UNI, 64);
        assert_eq!(a, b, "slot reused");
        assert_eq!(h.get(b).unwrap().task, 2);
    }

    #[test]
    #[should_panic(expected = "unpark of a live handle")]
    fn double_unpark_panics() {
        let (mut f, mut h) = setup();
        f.mem_mut(W).write_local(UNI, &[1; 64]).unwrap();
        let a = h.park(&mut f, 1, 0, UNI, 64);
        h.unpark(&mut f, a);
        h.unpark(&mut f, a);
    }
}
