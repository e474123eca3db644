//! The stall watchdog, exercised both ways: a run with a deliberately
//! wedged worker must trip (with a usable post-mortem dump), and a
//! healthy run under the same sampler must never trip — not mid-run,
//! and not while its workers, who end the run themselves, leave one
//! after another.
//!
//! The sabotage knob (`Runtime::with_stalled_worker`) wedges one worker
//! before it enters the scheduler loop: it stays alive (so the run
//! completes on the remaining workers) but never bumps its heartbeat
//! epoch — exactly the signature of the `fib_across_worker_counts`
//! segfault precursor the watchdog exists to catch.

#![cfg(feature = "metrics")]

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use uat_fiber::runtime::{spawn, Runtime};
use uat_fiber::{WatchdogAction, WatchdogCfg, WatchdogReport};
use uat_metrics::names;

/// A worker without a CPU is, to the watchdog, a worker that does not
/// advance — rightly. These tests each load every CPU, so they take
/// turns rather than starve one another's workers into a trip.
fn my_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn sabotaged_worker_trips_watchdog() {
    let _turn = my_turn();
    let report = Arc::new(WatchdogReport::default());
    let rt = Runtime::new(4)
        .with_stalled_worker(2)
        .with_sampler(Duration::from_millis(2))
        .with_watchdog(WatchdogCfg {
            stall_after: Duration::from_millis(100),
            action: WatchdogAction::Report(Arc::clone(&report)),
        });
    // Keep the machine busy with real fork-join work until the trip is
    // recorded (bounded, so a broken watchdog fails the assert instead
    // of hanging the suite).
    let r2 = Arc::clone(&report);
    rt.run(move || {
        let t0 = Instant::now();
        while !r2.tripped() && t0.elapsed() < Duration::from_secs(30) {
            let handles: Vec<_> = (0..8)
                .map(|i| spawn(move || std::hint::black_box(i)))
                .collect();
            for h in handles {
                h.join();
            }
        }
    });
    assert!(
        report.tripped(),
        "watchdog never tripped on a stalled worker"
    );
    let dump = report.take().expect("trip recorded a dump");
    assert_eq!(dump.worker, 2, "watchdog blamed the wrong worker");
    assert_eq!(dump.heartbeats.len(), 4);
    assert_eq!(dump.heartbeats[2], 0, "the wedged worker never heartbeats");
    assert!(
        dump.heartbeats[0] > 0,
        "healthy workers advanced while the wedged one stalled"
    );
    // The dump is a usable post-mortem: full metrics snapshot plus one
    // flight ring per worker, and it renders to JSON.
    assert_eq!(dump.flight.len(), 4);
    assert!(dump.snapshot.total(names::TASKS) > 0);
    assert!(dump.snapshot.get(names::HEARTBEATS).is_some());
    let doc = dump.to_json().pretty();
    assert!(doc.contains("stalled_worker"));
    uat_base::json::Json::parse(&doc).expect("dump JSON round-trips");
}

#[test]
fn clean_run_never_trips() {
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let a = spawn(move || fib(n - 1));
        let b = fib(n - 2);
        a.join() + b
    }
    let _turn = my_turn();
    let report = Arc::new(WatchdogReport::default());
    let rt = Runtime::new(4)
        .with_sampler(Duration::from_millis(2))
        .with_watchdog(WatchdogCfg {
            // Wide enough that OS scheduling jitter on an oversubscribed
            // CI host cannot fake a stall; the run below spans several
            // such windows, so a trigger-happy watchdog still fails.
            stall_after: Duration::from_millis(500),
            action: WatchdogAction::Report(Arc::clone(&report)),
        });
    let (out, _sched, snap) = rt.run_metered(|| {
        let t0 = Instant::now();
        let mut acc = 0u64;
        while t0.elapsed() < Duration::from_millis(1_500) {
            acc = acc.wrapping_add(fib(15));
        }
        acc
    });
    assert!(out > 0);
    assert!(!report.tripped(), "watchdog tripped on a healthy run");
    assert!(report.take().is_none());
    // The sampler ran: heartbeats advanced and deque depths were
    // sampled; the timed tier recorded task run lengths.
    assert!(snap.total(names::HEARTBEATS) > 0);
    assert!(snap.get(names::DEQUE_DEPTH).is_some());
    assert!(
        snap.histogram(names::TASK_RUN)
            .expect("task-run histogram")
            .count()
            > 0
    );
    assert!(snap.total(names::TASKS) > 0);
}

#[test]
fn orderly_exit_is_never_read_as_a_stall() {
    // The workers end the run: the first whose termination scan passes
    // raises shutdown and leaves at once, a napping peer a nap later, a
    // peer without a CPU later still — and none of them heartbeats
    // again. The watchdog shares that flag and must stand down on it,
    // however hair-triggered: the minimum tick and the shortest window
    // (two ticks), and more workers than this test needs CPUs.
    let _turn = my_turn();
    for round in 0..200u64 {
        let report = Arc::new(WatchdogReport::default());
        let rt = Runtime::new(3)
            .with_sampler(Duration::from_micros(100))
            .with_watchdog(WatchdogCfg {
                stall_after: Duration::ZERO,
                action: WatchdogAction::Report(Arc::clone(&report)),
            });
        let (out, _sched, snap) = rt.run_metered(move || {
            let handles: Vec<_> = (0..4).map(|i| spawn(move || round + i)).collect();
            handles.into_iter().map(|h| h.join()).sum::<u64>()
        });
        assert_eq!(out, 4 * round + 6);
        // A window this tight also catches a live worker that went two
        // ticks without a CPU (a thread the OS has yet to start, most
        // often) while its peers spun — rightly, and not this test's
        // business. That worker heartbeats again once it runs; one
        // blamed at the very epoch it finished the run with had left.
        if let Some(dump) = report.take() {
            let last = snap
                .per_worker(names::HEARTBEATS)
                .expect("heartbeat shards")[dump.worker];
            assert!(
                last > dump.heartbeats[dump.worker],
                "round {round}: worker {} was blamed at epoch {last}, the one it left with \
                 (epochs then: {:?})",
                dump.worker,
                dump.heartbeats
            );
        }
    }
}
