//! Fork-safety regression test for the multiprocess backend.
//!
//! A worker child of the (multithreaded) test harness may not allocate
//! or take any lock between `fork` and its worker-loop entry — another
//! thread could hold the allocator lock at fork time, deadlocking the
//! child (invariant [I15] in DESIGN.md §7.6). This test enforces the
//! *allocation* half dynamically: a counting `#[global_allocator]`
//! feeds the runtime's bootstrap probe, each worker samples it at both
//! ends of the window, and the per-worker deltas must all be zero.
//!
//! The *lock* half (and the allocation half, statically) is enforced by
//! `uat-lint`'s `fork-safety` rule, which scans `mp_bootstrap` and its
//! callees for alloc/lock constructs — a dynamic lock test can't see a
//! lock that happened not to be contended.
//!
//! The same probe, read at both ends of each worker's loop, shows that
//! a multiprocess task makes no allocator call in steady state either:
//! its record and program live in its stack slot, its join block in its
//! parent's frame, and programs expand through one recycled buffer per
//! process — the twin of `tests/native_alloc.rs`.
//!
//! Also here, because it is the coordinator's other duty to its forked
//! workers: it must sleep through the run, not poll them.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use uni_address_threads::fiber::{set_bootstrap_alloc_probe, MultiProcessRunner};
use uni_address_threads::model::testutil::BinTree;
use uni_address_threads::workloads::Btc;

/// Counts every allocation in this binary (and, after `fork`, in each
/// worker — the counter is plain process memory, so each child counts
/// its own allocations from its inherited baseline).
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
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn probe() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocator calls the workers of a 2-process run of a depth-`depth`
/// tree made inside their worker loops, and the tasks they ran.
fn worker_loop_allocs(depth: u32) -> (u64, u64) {
    let report = MultiProcessRunner::new(2)
        .with_work_divisor(u64::MAX)
        .try_run(BinTree {
            depth,
            work: 100,
            frame: 128,
        })
        .expect("probe passed; the run must complete");
    assert_eq!(report.bootstrap_allocs, vec![0u64; 2]);
    (report.run_allocs.iter().sum(), report.stats.total_tasks)
}

#[test]
fn tasks_allocate_nothing_in_steady_state() {
    if let Err(e) = MultiProcessRunner::probe_support() {
        eprintln!("skipping multiprocess allocation test: {e}");
        return;
    }
    set_bootstrap_alloc_probe(probe);
    let (few_allocs, few_tasks) = worker_loop_allocs(8);
    let (many_allocs, many_tasks) = worker_loop_allocs(13);
    assert_eq!(many_tasks, 32 * few_tasks + 31);
    // Each worker grows one program buffer to the largest program it
    // meets, whatever the tree's size.
    assert!(
        many_allocs <= few_allocs + 8,
        "{} more tasks cost {many_allocs} allocator calls against {few_allocs}: \
         the multiprocess task path allocates per task",
        many_tasks - few_tasks
    );
}

#[test]
fn bootstrap_window_performs_no_allocations() {
    if let Err(e) = MultiProcessRunner::probe_support() {
        eprintln!("skipping fork-safety test: {e}");
        return;
    }
    set_bootstrap_alloc_probe(probe);
    let report = MultiProcessRunner::new(4)
        .with_work_divisor(u64::MAX)
        .try_run(BinTree {
            depth: 6,
            work: 500,
            frame: 512,
        })
        .expect("probe passed; the run must complete");
    assert_eq!(report.stats.total_tasks, (1 << 7) - 1);
    assert_eq!(
        report.bootstrap_allocs,
        vec![0u64; 4],
        "a worker allocated between fork and worker-loop entry ([I15])"
    );
}

#[test]
fn the_coordinator_sleeps_through_a_run() {
    if let Err(e) = MultiProcessRunner::probe_support() {
        eprintln!("skipping the coordinator's context-switch bound: {e}");
        return;
    }
    let before = match common::voluntary_switches() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("skipping the coordinator's context-switch bound: {e}");
            return;
        }
    };
    let btc = Btc {
        depth: 14,
        iter: 1,
        work: 20_000,
    };
    let tasks = btc.expected_tasks();
    let t0 = std::time::Instant::now();
    let stats = MultiProcessRunner::new(2).run(btc);
    let elapsed = t0.elapsed().as_secs_f64();
    let switches = common::voluntary_switches().expect("readable a moment ago") - before;
    assert_eq!(stats.total_tasks, tasks);
    // One futex wait per 10 ms liveness sweep plus a handful around
    // fork, wake-up and reaping; the 50us poll made ~8 000 a second.
    let bound = 10.0 + 150.0 * elapsed;
    assert!(
        switches as f64 <= bound,
        "the coordinator blocked or slept {switches} times in {elapsed:.3} s (bound {bound:.0})"
    );
}
