//! Integration tests for the native fiber runtime: real context
//! switching, real stealing, results cross-checked against sequential
//! and simulated executions.

mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uni_address_threads::fiber::{self, NativeRunner, Runtime};
use uni_address_threads::model::{sequential_profile, Action, Workload};
use uni_address_threads::workloads::nqueens::Board;
use uni_address_threads::workloads::{Btc, Chain, NQueens};

fn fib_fiber(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let a = fiber::spawn(move || fib_fiber(n - 1));
    let b = fib_fiber(n - 2);
    a.join() + b
}

#[test]
fn fib_across_worker_counts() {
    for workers in [1usize, 2, 4] {
        let rt = Runtime::new(workers);
        assert_eq!(rt.run(|| fib_fiber(20)), 6_765, "workers={workers}");
    }
}

#[test]
fn nqueens_native_matches_sequential() {
    fn solve(board: Board, n: u32) -> u64 {
        if board.row == n {
            return 1;
        }
        let mut mask = board.safe_columns(n);
        if n - board.row <= 5 {
            let mut total = 0;
            while mask != 0 {
                let col = mask.trailing_zeros();
                mask &= mask - 1;
                total += solve(board.place(col), n);
            }
            return total;
        }
        let mut handles = Vec::new();
        while mask != 0 {
            let col = mask.trailing_zeros();
            mask &= mask - 1;
            let child = board.place(col);
            handles.push(fiber::spawn(move || solve(child, n)));
        }
        handles.into_iter().map(|h| h.join()).sum()
    }
    let rt = Runtime::new(3);
    let got = rt.run(|| solve(Board::empty(), 9));
    assert_eq!(got, NQueens::new(9).solutions());
}

#[test]
fn runtime_is_reusable() {
    let rt = Runtime::new(2);
    assert_eq!(rt.run(|| fib_fiber(10)), 55);
    assert_eq!(rt.run(|| fib_fiber(12)), 144);
}

#[test]
fn unbalanced_spawn_tree() {
    // UTS-like shape natively: skewed recursion where one side is much
    // deeper — the load balancer has to move work.
    fn skew(depth: u32, fat: bool) -> u64 {
        if depth == 0 {
            return 1;
        }
        let d2 = if fat {
            depth - 1
        } else {
            depth.saturating_sub(3)
        };
        let a = fiber::spawn(move || skew(depth - 1, fat));
        let b = if d2 == 0 { 1 } else { skew(d2, !fat) };
        a.join() + b
    }
    let rt = Runtime::new(4);
    let par = rt.run(|| skew(16, true));
    // Same computation sequentially.
    fn seq(depth: u32, fat: bool) -> u64 {
        if depth == 0 {
            return 1;
        }
        let d2 = if fat {
            depth - 1
        } else {
            depth.saturating_sub(3)
        };
        seq(depth - 1, fat) + if d2 == 0 { 1 } else { seq(d2, !fat) }
    }
    assert_eq!(par, seq(16, true));
}

#[test]
fn join_handles_can_outlive_spawning_order() {
    let rt = Runtime::new(2);
    let got = rt.run(|| {
        let handles: Vec<_> = (0..64u64).map(|i| fiber::spawn(move || i * i)).collect();
        // Join in reverse: forces the non-parent-pop paths. Each handle
        // must still return its own child's value.
        let mut got: Vec<u64> = handles.into_iter().rev().map(|h| h.join()).collect();
        got.reverse();
        got
    });
    assert_eq!(got, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
}

/// Counts its own drops, as a task result or a closure capture.
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Run `body` on `workers` workers, handing it one drop-counted value
/// for a child's closure to capture and one for the child to return;
/// whatever `body` does with the handle, by the time `run` returns each
/// must have been dropped exactly once.
fn assert_dropped_once(
    workers: usize,
    what: &str,
    body: impl FnOnce(Counted, Counted) + Send + 'static,
) {
    let (captures, results) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let (capture, result) = (Counted(captures.clone()), Counted(results.clone()));
    Runtime::new(workers).run(move || body(capture, result));
    assert_eq!(captures.load(Ordering::SeqCst), 1, "{what}: capture drops");
    assert_eq!(results.load(Ordering::SeqCst), 1, "{what}: result drops");
}

/// A child body that owns `capture` while it runs and returns `result`.
fn child_of(capture: Counted, result: Counted) -> impl FnOnce() -> Counted + Send + 'static {
    move || {
        let _held = capture;
        result
    }
}

#[test]
fn joined_handle_drops_capture_and_result_once() {
    for workers in [1usize, 3] {
        assert_dropped_once(workers, "joined", |capture, result| {
            let out = fiber::spawn(child_of(capture, result)).join();
            drop(out);
        });
    }
}

#[test]
fn handle_dropped_after_the_child_finished_drops_once() {
    // One worker: child-first order finishes the child inside `spawn`.
    assert_dropped_once(1, "dropped after completion", |capture, result| {
        let h = fiber::spawn(child_of(capture, result));
        assert!(h.is_done());
        drop(h);
    });
}

#[test]
fn handle_dropped_before_the_child_finishes_drops_once() {
    // The child holds on until the root — resumed by a thief while the
    // child still runs — has dropped the handle, so the child's is the
    // last reference to the shared cell.
    assert_dropped_once(3, "dropped before completion", |capture, result| {
        let dropped = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&dropped);
        let child = child_of(capture, result);
        let h = fiber::spawn(move || {
            while !seen.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            child()
        });
        assert!(!h.is_done());
        drop(h);
        dropped.store(true, Ordering::Release);
    });
}

#[test]
fn handle_joined_on_another_worker_drops_once() {
    // The child keeps its worker busy until the root's continuation has
    // been resumed — which, with the child still running, can only be
    // on a different worker than the one `spawn` was called on.
    assert_dropped_once(3, "joined elsewhere", |capture, result| {
        let resumed = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&resumed);
        let child = child_of(capture, result);
        let spawned_on = fiber::current_worker_id();
        let h = fiber::spawn(move || {
            while !seen.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            child()
        });
        assert_ne!(fiber::current_worker_id(), spawned_on);
        resumed.store(true, Ordering::Release);
        drop(h.join());
    });
}

/// A task that blocks joining its sibling while their spawner's
/// continuation still sits on its worker's deque would strand the
/// spawner there (DESIGN.md [I21]): the run aborts, naming the mistake.
/// The abort takes the process with it, so the scenario runs in a copy
/// of this test binary.
#[test]
fn blocking_on_a_sibling_with_the_spawner_unstolen_aborts_by_name() {
    const CHILD: &str = "UAT_TEST_JOIN_A_SIBLING";
    if std::env::var_os(CHILD).is_some() {
        Runtime::new(2).run(|| {
            let go = Arc::new(AtomicBool::new(false));
            let seen = Arc::clone(&go);
            let sibling = fiber::spawn(move || {
                while !seen.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                // Outlast the joiner's done-check by far.
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_millis(200) {
                    std::hint::spin_loop();
                }
            });
            // Only a thief gets here, the sibling holding the other
            // worker; this child pushes the root onto the thief's deque
            // and blocks on the sibling with it there.
            fiber::spawn(move || {
                go.store(true, Ordering::Release);
                sibling.join();
            })
            .join();
        });
        unreachable!("the blocking join must abort the run");
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "--exact",
            "blocking_on_a_sibling_with_the_spawner_unstolen_aborts_by_name",
            "--test-threads=1",
        ])
        .env(CHILD, "1")
        .output()
        .expect("re-run the test binary");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{err}");
    assert!(
        err.contains("a task blocked joining a thread it did not spawn"),
        "{err}"
    );
}

/// One spawn, whose leaf panics while it expands its program, inside
/// its interpreted task body.
struct PanickingLeaf;

impl Workload for PanickingLeaf {
    type Desc = bool; // is this the leaf?

    fn root(&self) -> bool {
        false
    }

    fn program(&self, leaf: &bool, out: &mut Vec<Action<bool>>) {
        assert!(!leaf, "the leaf panicked by design");
        out.extend([Action::Spawn(true), Action::JoinAll]);
    }

    fn frame_size(&self, _leaf: &bool) -> u64 {
        64
    }

    fn name(&self) -> String {
        "panicking leaf".into()
    }
}

/// A task body that panics, run in place in its record, gives its
/// worker up by name: the message on fd 2, then an abort. The abort
/// takes the process with it, so the run goes in a copy of this test
/// binary.
#[test]
fn an_interpreted_task_that_panics_aborts_by_name() {
    use std::os::unix::process::ExitStatusExt;
    const CHILD: &str = "UAT_TEST_PANICKING_LEAF";
    if std::env::var_os(CHILD).is_some() {
        NativeRunner::new(2).run(PanickingLeaf);
        unreachable!("a panicking task must abort the run");
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "--exact",
            "an_interpreted_task_that_panics_aborts_by_name",
            "--test-threads=1",
        ])
        .env(CHILD, "1")
        .output()
        .expect("re-run the test binary");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.signal(), Some(6), "not an abort: {err}");
    assert!(
        err.contains("uat-fiber: task panicked; aborting: the leaf panicked by design"),
        "{err}"
    );
}

#[test]
fn chain_at_full_leaf_work_hands_off_through_the_stolen_exit() {
    // Leaves long enough to outlast a steal, so nearly every round ends
    // in the child's stolen-exit arm: pop empty, complete the block,
    // resume the parked joiner. (The differential harness divides `Work`
    // down to nothing, so its chains rarely get there.)
    let w = Chain {
        rounds: 200,
        frame: 3_055,
        leaf_work: 50_000,
    };
    let p = sequential_profile(&w);
    // A run is a few milliseconds: on a loaded host the idle worker may
    // not get a CPU in one, so a run that stole nothing is repeated.
    let mut steals = 0;
    for _ in 0..10 {
        let s = NativeRunner::new(2).run(w.clone());
        assert_eq!(s.total_tasks, p.tasks);
        assert_eq!(s.total_units, p.units);
        assert_eq!(s.total_work_cycles, p.work_cycles);
        assert_eq!(s.join_fingerprint, p.join_fingerprint);
        steals = s.steals;
        if steals > 0 {
            break;
        }
    }
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        assert!(
            steals > 0,
            "two workers, ten runs of {} rounds, no steal",
            p.joins
        );
    }
}

#[test]
fn creation_strategies_all_work_under_load() {
    use uni_address_threads::fiber::{measure_creation, CreationStrategy};
    for s in [
        CreationStrategy::SeqCall,
        CreationStrategy::UniAddr,
        CreationStrategy::StackPool,
    ] {
        let cycles = measure_creation(s, 1_000, 5);
        assert!(cycles > 0.0 && cycles < 50_000.0, "{s:?} -> {cycles}");
    }
}

#[test]
fn the_caller_sleeps_through_a_run() {
    // Nobody polls: the workers decide the run is over, and the calling
    // thread blocks in their `join`s. A caller that slept and looked
    // every 50us gave up its CPU ~8 000 times a second — on a CPU a
    // worker was using.
    let before = match common::voluntary_switches() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("skipping the caller's context-switch bound: {e}");
            return;
        }
    };
    let btc = Btc {
        depth: 14,
        iter: 1,
        work: 20_000,
    };
    let tasks = btc.expected_tasks();
    let stats = NativeRunner::new(2).run(btc);
    let switches = common::voluntary_switches().expect("readable a moment ago") - before;
    assert_eq!(stats.total_tasks, tasks);
    assert!(
        stats.wall >= Duration::from_millis(20),
        "a {:?} run is too short to tell polling from blocking",
        stats.wall
    );
    assert!(
        switches <= 20,
        "the calling thread blocked or slept {switches} times in a {:?} run",
        stats.wall
    );
}

#[test]
fn an_empty_run_returns_promptly() {
    // Termination latency: the root's worker runs out of work, spins its
    // 64 rounds, scans, and raises shutdown; its napping peer leaves one
    // nap later. No poll interval stands between that and the caller.
    let rt = Runtime::new(2);
    let mut walls: Vec<Duration> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            rt.run(|| ());
            t0.elapsed()
        })
        .collect();
    walls.sort();
    let median = walls[walls.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "an empty run took {median:?} (median of 20; all: {walls:?})"
    );
}

#[test]
fn a_backtrace_from_inside_a_task_ends_at_the_task() {
    // A task is entered with a zero return address, the mark a stack
    // walk stops at: `child_main` is the walk's outermost frame, here
    // and in a panicking task's abort message. Entered by a `call`
    // from the stack-switch routine, the walk runs on through it into
    // a frame whose "return address" is read from above the task's
    // record.
    fn walk() -> String {
        std::backtrace::Backtrace::force_capture().to_string()
    }
    let (root, child) = Runtime::new(2).run(|| {
        let child = fiber::spawn(walk).join();
        (walk(), child)
    });
    for (who, walked) in [("root", root), ("child", child)] {
        // Frame lines are `  N: symbol` (an inlined symbol has no `N:`),
        // each optionally followed by an `at file:line` line.
        let outermost = walked
            .lines()
            .map(str::trim_start)
            .rfind(|l| !l.is_empty() && !l.starts_with("at "))
            .unwrap_or_default();
        assert!(
            outermost.contains("child_main"),
            "{who}: the walk ends in {outermost:?}, not in the task's entry:\n{walked}"
        );
    }
}
