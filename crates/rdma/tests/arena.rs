//! The fabric backs the pages its processes write from one page arena,
//! not one allocation per page (DESIGN.md §5, "registered ≠ resident").
//!
//! A page-aligned block of its own costs the host two pages: the
//! allocator's bookkeeping in front of it touches the host page before
//! it. This test counts the page-aligned allocations a fabric makes with
//! a counting `#[global_allocator]`: one per 1 MiB chunk of 256 pages,
//! however the writes of its processes interleave.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uat_base::{CostModel, Cycles, Topology, WorkerId};
use uat_rdma::Fabric;
use uat_vmem::PAGE_SIZE;

/// Counts the calling thread's allocations aligned to a page or more;
/// per thread, so tests running beside this one in the same binary do
/// not count.
struct CountingAlloc;

thread_local! {
    static PAGE_ALIGNED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only, and a
// `const`-initialised `Cell<u64>` thread-local neither allocates nor
// registers a destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.align() >= PAGE_SIZE as usize {
            PAGE_ALIGNED.with(|n| n.set(n.get() + 1));
        }
        // SAFETY: same contract as ours, delegated.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from our `alloc`, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn written_pages_share_one_chunk_per_256() {
    // 60 processes, 50 pages each: 3 000 distinct pages.
    const PAGES_EACH: u64 = 50;
    const BASE: u64 = 0x7f00_0000_0000;
    let topo = Topology::new(4, 15);
    let mut f = Fabric::new(topo, CostModel::fx10());
    for w in topo.workers() {
        f.register(w, BASE, (PAGES_EACH * PAGE_SIZE) as usize)
            .unwrap();
    }
    let word = |w: WorkerId, page: u64| BASE + page * PAGE_SIZE + 8 * u64::from(w.0);

    let before = PAGE_ALIGNED.with(Cell::get);
    // Every process's first page, then every process's second, ...: each
    // process's pages are spread over the whole arena.
    for page in 0..PAGES_EACH {
        for w in topo.workers() {
            f.write_u64(Cycles::ZERO, WorkerId(0), w, word(w, page), page + 1)
                .unwrap();
        }
    }
    let allocs = PAGE_ALIGNED.with(Cell::get) - before;

    let pages = u64::from(topo.total_workers()) * PAGES_EACH;
    assert_eq!(f.resident_bytes(), pages * PAGE_SIZE);
    assert!(
        allocs <= pages / 256 + 1,
        "{allocs} page-aligned allocations behind {pages} written pages"
    );
    for w in topo.workers() {
        assert_eq!(f.mem(w).resident_bytes(), PAGES_EACH * PAGE_SIZE);
        for page in 0..PAGES_EACH {
            assert_eq!(f.mem(w).read_u64_local(word(w, page)).unwrap(), page + 1);
        }
    }
}
