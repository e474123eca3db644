//! Loom harness for the THE deque, each scenario on both constructors
//! (`native::*` over `NativeDeque`, `shm::*` over a `ShmDeque` placed on
//! an owned zeroed block). Compiled and run only under
//! `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p uat-deque --test loom --release
//! ```
//!
//! With the registry `loom` these are exhaustive bounded explorations of
//! the real atomics under the C11 model. With the offline shim
//! (shims/loom) they are deterministic seeded-schedule stress — every
//! atomic access is a perturbation point — which reliably reproduces
//! known protocol breaks but proves nothing exhaustively; the exhaustive
//! story for this protocol lives in `uat-check` (SC and release/acquire
//! modes). The scenarios mirror the checker's suite so a real-loom
//! upgrade immediately re-verifies the same races on real code.

#![cfg(loom)]

// The lock-word hook serves `the.rs`'s held-lock case only.
#[allow(dead_code)]
#[macro_use]
mod fixture;

use fixture::Subject;
use loom::sync::Arc;
use loom::thread;

on_both!(
    last_entry_exactly_one_winner,
    publish_steal_conservation,
    two_thieves_drain,
    wraparound_reuse_race,
);

/// A thief thread running `steals` steals on `s`'s deque, returning what
/// it kept.
fn thief<D: Subject>(s: &Arc<D>, steals: usize) -> thread::JoinHandle<Vec<u64>> {
    let s = Arc::clone(s);
    thread::spawn(move || (0..steals).filter_map(|_| s.deque().steal()).collect())
}

/// The last-entry race: one entry, owner pop vs thief steal; exactly one
/// side may keep it (the race `uat-check` catches in 12 steps when the
/// owner's fast-path bound is relaxed to `t <= nb`).
fn last_entry_exactly_one_winner<D: Subject>() {
    loom::model(|| {
        let s = Arc::new(D::with_capacity(2));
        s.deque().push(7);
        let t = thief(&s, 1);
        let popped = s.deque().pop();
        let stolen = t.join().unwrap().pop();
        assert!(
            popped.is_some() != stolen.is_some(),
            "last entry claimed by both sides or lost: popped={popped:?} stolen={stolen:?}"
        );
        assert_eq!(popped.or(stolen), Some(7));
    });
}

/// The publication edge: a steal racing the pushes must only ever see
/// fully published entries, and conservation holds across pop + steal.
fn publish_steal_conservation<D: Subject>() {
    loom::model(|| {
        let s = Arc::new(D::with_capacity(3));
        let t = thief(&s, 2);
        let d = s.deque();
        d.push(1);
        d.push(2);
        let mut all = Vec::new();
        while let Some(v) = d.pop() {
            all.push(v);
        }
        all.extend(t.join().unwrap());
        all.sort_unstable();
        for v in &all {
            assert!((1..=2).contains(v), "phantom value {v} (stale slot read)");
        }
        assert_eq!(all, [1, 2], "value lost or duplicated: {all:?}");
    });
}

/// Two thieves contending on the lock while the owner drains: every
/// entry consumed exactly once, lock hand-off included.
fn two_thieves_drain<D: Subject>() {
    loom::model(|| {
        let s = Arc::new(D::with_capacity(3));
        s.deque().push(1);
        s.deque().push(2);
        let t1 = thief(&s, 1);
        let t2 = thief(&s, 1);
        let mut all: Vec<u64> = t1.join().unwrap();
        all.extend(t2.join().unwrap());
        all.extend(s.deque().pop());
        all.extend(s.deque().pop());
        all.sort_unstable();
        assert_eq!(all, [1, 2], "conservation violated: {all:?}");
    });
}

/// Wraparound slot reuse under racing steals: positions recycle through
/// a 2-slot buffer while a thief reads — the scenario where a premature
/// slot reuse (capacity-check bug) would hand the thief a new value at
/// an old position.
fn wraparound_reuse_race<D: Subject>() {
    loom::model(|| {
        let s = Arc::new(D::with_capacity(2));
        let t = thief(&s, 3);
        let d = s.deque();
        let mut all = Vec::new();
        for round in 0..3u64 {
            d.push(round + 1);
            all.extend(d.pop());
        }
        all.extend(t.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, [1, 2, 3], "conservation violated: {all:?}");
    });
}
