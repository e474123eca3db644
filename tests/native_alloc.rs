//! Allocation regression test for the thread runtime's task path.
//!
//! A native task's record lives at the top of its own pooled stack, its
//! join block in its parent's frame, and its program in a recycled
//! per-worker buffer (DESIGN.md [I18]), so in steady state an
//! interpreted task makes **no** allocator call and a public
//! `spawn(..).join()` makes exactly one (the `Arc` cell the handle and
//! the child share). The interpreted cases are `BinTree`, `Btc` and UTS,
//! whose nodes hash their children's names with a SHA-1 that pads on
//! the stack. This test counts calls with a counting
//! `#[global_allocator]`, as `tests/mp_fork_safety.rs` does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use uni_address_threads::fiber::{self, NativeRunner, Runtime};
use uni_address_threads::model::testutil::BinTree;
use uni_address_threads::model::{sequential_profile, Workload};
use uni_address_threads::workloads::{Btc, Uts};

/// Counts every call that can obtain memory, from any thread.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as ours, delegated.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from our `alloc`, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as ours, delegated.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls a whole `NativeRunner` run of `w` makes — thread
/// start-up, pool warm-up and all.
fn run_allocs<W>(workers: usize, w: W) -> (u64, u64)
where
    W: Workload + Clone + Send + Sync + 'static,
    W::Desc: 'static,
{
    let tasks = sequential_profile(&w).tasks;
    let before = ALLOCS.load(Ordering::Relaxed);
    let stats = NativeRunner::new(workers)
        .with_work_divisor(u64::MAX)
        .run(w);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(stats.total_tasks, tasks);
    (allocs, tasks)
}

/// Two runs of the same tree shape at depths `shallow < deep` (at least
/// 16x apart in tasks): the deeper run may allocate more only for what
/// grows with depth — each worker warms a stack pool, a buffer list and
/// one program buffer per level of its deepest lineage — never per task.
fn assert_zero_allocs_per_task<W>(name: &str, shallow: (u32, W), deep: (u32, W))
where
    W: Workload + Clone + Send + Sync + 'static,
    W::Desc: 'static,
{
    for workers in [1usize, 2] {
        let (few_allocs, few_tasks) = run_allocs(workers, shallow.1.clone());
        let (many_allocs, many_tasks) = run_allocs(workers, deep.1.clone());
        assert!(many_tasks >= 16 * few_tasks, "{name}: depths too close");
        let extra_tasks = many_tasks - few_tasks;
        let extra_allocs = many_allocs.saturating_sub(few_allocs);
        // Per level and worker: a program buffer, plus the amortised
        // growth of the pool and list vectors that hold the level's
        // stack and buffer when they are free.
        let warm_up = 4 * (deep.0 - shallow.0) as u64 * workers as u64 + 16;
        assert!(
            extra_allocs <= warm_up,
            "{name}, {workers} workers: {extra_tasks} more tasks cost {extra_allocs} more \
             allocator calls ({few_allocs} -> {many_allocs}); the warm-up bound is {warm_up}"
        );
    }
}

fn interpreted_tasks_allocate_nothing_in_steady_state() {
    let bintree = |depth| BinTree {
        depth,
        work: 100,
        frame: 128,
    };
    assert_zero_allocs_per_task("BinTree", (8, bintree(8)), (13, bintree(13)));
    assert_zero_allocs_per_task("Btc", (8, Btc::new(8, 1)), (13, Btc::new(13, 1)));
    // A UTS node names its children by SHA-1, so this case holds only
    // while the hash allocates nothing. One tree level is up to three
    // task levels of a lineage: node, split, singleton split.
    let uts = |cutoff| (3 * cutoff, Uts::geometric(cutoff));
    assert_zero_allocs_per_task("Uts", uts(5), uts(8));
}

fn public_spawn_join_allocates_once() {
    const SPAWNS: u64 = 10_000;
    let allocs = Runtime::new(1).run(|| {
        // Warm the stack pool first.
        for i in 0..64u64 {
            assert_eq!(fiber::spawn(move || i).join(), i);
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        for i in 0..SPAWNS {
            assert_eq!(fiber::spawn(move || i).join(), i);
        }
        ALLOCS.load(Ordering::Relaxed) - before
    });
    assert!(
        allocs <= SPAWNS,
        "{SPAWNS} spawn+join pairs made {allocs} allocator calls; the budget is one each"
    );
}

/// One `#[test]`, so nothing else in this process — another test, or the
/// harness reporting one — allocates while a case is counting.
#[test]
fn native_task_path_allocation_budget() {
    interpreted_tasks_allocate_nothing_in_steady_state();
    public_spawn_join_allocates_once();
}
