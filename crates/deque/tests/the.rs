//! The THE deque's behaviour and concurrency suite, written once and run
//! on both constructors (`native::*` over [`NativeDeque`], `shm::*` over
//! a [`ShmDeque`](uat_deque::ShmDeque) placed on a zeroed block) — the
//! one protocol body both runtimes use. The root package runs this file
//! too (`tests/deque.rs`), so `cargo test` at the top exercises it.
//!
//! [`NativeDeque`]: uat_deque::NativeDeque

#[macro_use]
mod fixture;

use fixture::Subject;
use std::sync::atomic::{AtomicBool, AtomicU64 as Counter, Ordering};
use uat_deque::StealAttemptOutcome;

/// Raises its flag when dropped — at the end of a scenario's owner side,
/// or while it unwinds — so the thieves stop and a broken protocol fails
/// its test instead of leaving `thread::scope` waiting forever.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

on_both!(
    fresh_deque_is_empty,
    lifo_for_owner,
    fifo_for_thief,
    owner_and_thief_take_opposite_ends,
    wraparound,
    #[should_panic(expected = "overflow")]
    overflow_panics,
    len_tracks,
    steal_phased_matches_steal_semantics,
    concurrent_conservation,
    last_entry_race_exactly_one_winner,
    thieves_only_race,
);

/// A new deque — for the placed one, a zeroed block — is a valid empty,
/// unlocked deque.
fn fresh_deque_is_empty<D: Subject>() {
    let s = D::with_capacity(4);
    let d = s.deque();
    assert!(d.is_empty());
    assert_eq!(d.pop(), None);
    assert_eq!(d.steal(), None);
    assert_eq!(d.capacity(), 4);
}

fn lifo_for_owner<D: Subject>() {
    let s = D::with_capacity(16);
    let d = s.deque();
    for i in 0..5u64 {
        d.push(i);
    }
    for i in (0..5).rev() {
        assert_eq!(d.pop(), Some(i));
    }
    assert_eq!(d.pop(), None);
}

fn fifo_for_thief<D: Subject>() {
    let s = D::with_capacity(16);
    let d = s.deque();
    for i in 0..5u64 {
        d.push(i);
    }
    for i in 0..5 {
        assert_eq!(d.steal(), Some(i));
    }
    assert_eq!(d.steal(), None);
}

fn owner_and_thief_take_opposite_ends<D: Subject>() {
    let s = D::with_capacity(16);
    let d = s.deque();
    for i in 0..6u64 {
        d.push(i);
    }
    assert_eq!(d.steal(), Some(0));
    assert_eq!(d.steal(), Some(1));
    assert_eq!(d.pop(), Some(5));
    assert_eq!(d.pop(), Some(4));
    assert_eq!(d.len(), 2);
}

fn wraparound<D: Subject>() {
    let s = D::with_capacity(3);
    let d = s.deque();
    for round in 0..10u64 {
        d.push(round * 2);
        d.push(round * 2 + 1);
        assert_eq!(d.steal(), Some(round * 2));
        assert_eq!(d.pop(), Some(round * 2 + 1));
    }
    assert!(d.is_empty());
}

fn overflow_panics<D: Subject>() {
    let s = D::with_capacity(2);
    let d = s.deque();
    d.push(1);
    d.push(2);
    d.push(3);
}

fn len_tracks<D: Subject>() {
    let s = D::with_capacity(8);
    let d = s.deque();
    assert!(d.is_empty());
    d.push(1);
    d.push(2);
    assert_eq!(d.len(), 2);
    d.pop();
    assert_eq!(d.len(), 1);
    assert_eq!(d.capacity(), 8);
}

/// `steal` is `steal_phased` with a constant clock; the phase stamps are
/// ordered by construction, and a held lock aborts instead of queuing.
fn steal_phased_matches_steal_semantics<D: Subject>() {
    let s = D::with_capacity(8);
    let d = s.deque();
    let mut clk = 0u64;
    let mut clock = || {
        clk += 1;
        clk
    };
    let (got, ph) = d.steal_phased(&mut clock);
    assert_eq!(got, None);
    assert_eq!(ph.outcome, StealAttemptOutcome::Empty);
    assert!(ph.start <= ph.checked && ph.checked == ph.end);

    d.push(7);
    d.push(8);
    let (got, ph) = d.steal_phased(&mut clock);
    assert_eq!(got, Some(7));
    assert_eq!(ph.outcome, StealAttemptOutcome::Taken);
    assert!(ph.start <= ph.checked && ph.checked <= ph.locked && ph.locked <= ph.end);
    assert_eq!(d.pop(), Some(8));

    // Play a thief that holds the lock.
    d.push(9);
    s.lock_word().store(1, Ordering::Release);
    let (got, ph) = d.steal_phased(&mut clock);
    assert_eq!(got, None);
    assert_eq!(ph.outcome, StealAttemptOutcome::LockBusy);
    assert_eq!(d.steal(), None);
    s.lock_word().store(0, Ordering::Release);
    assert_eq!(d.steal(), Some(9));
}

/// One owner and three thieves hammer the deque; every pushed value must
/// be consumed exactly once (conservation), which is the property the
/// THE proof guarantees.
fn concurrent_conservation<D: Subject>() {
    const PER_ROUND: u64 = 64;
    // Miri executes this orders of magnitude slower; a few rounds still
    // cross every protocol path under its race detector.
    const ROUNDS: u64 = if cfg!(miri) { 4 } else { 200 };
    const THIEVES: usize = 3;
    let s = D::with_capacity(PER_ROUND as usize + 1);
    let d = s.deque();
    let consumed = Counter::new(0);
    let sum = Counter::new(0);
    let done = AtomicBool::new(false);
    let keep = |v: u64| {
        consumed.fetch_add(1, Ordering::Relaxed);
        sum.fetch_add(v, Ordering::Relaxed);
    };

    std::thread::scope(|scope| {
        for _ in 0..THIEVES {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) || !d.is_empty() {
                    match d.steal() {
                        Some(v) => keep(v),
                        None => std::hint::spin_loop(),
                    }
                }
            });
        }
        let _done = RaiseOnDrop(&done);
        // Values are 1..=ROUNDS*PER_ROUND, so the expected sum is
        // closed-form.
        let mut next: u64 = 1;
        for _ in 0..ROUNDS {
            for _ in 0..PER_ROUND {
                d.push(next);
                next += 1;
            }
            // The owner pops about half back (LIFO), racing the thieves,
            // then drains the rest or lets the thieves take them.
            for _ in 0..PER_ROUND / 2 {
                if let Some(v) = d.pop() {
                    keep(v);
                }
            }
            while let Some(v) = d.pop() {
                keep(v);
            }
        }
    });

    let n = ROUNDS * PER_ROUND;
    assert_eq!(consumed.load(Ordering::Acquire), n);
    assert_eq!(sum.load(Ordering::Acquire), n * (n + 1) / 2);
    assert!(d.is_empty());
}

/// The last-entry race distilled: each round pushes one entry and the
/// owner's pop races a thief's steal for it; exactly one side may keep
/// it. The strict `t < nb` fast-path bound and the locked arbitration
/// are what make this hold — `t <= nb` lets both sides keep the entry
/// (see the op-granularity model in `uat-check`).
fn last_entry_race_exactly_one_winner<D: Subject>() {
    const ROUNDS: usize = if cfg!(miri) { 50 } else { 20_000 };
    let s = D::with_capacity(2);
    let d = s.deque();
    let claims: Vec<Counter> = (0..ROUNDS).map(|_| Counter::new(0)).collect();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if let Some(v) = d.steal() {
                    claims[v as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        let _done = RaiseOnDrop(&done);
        for r in 0..ROUNDS {
            d.push(r as u64);
            // An owner pop returning None means the thief resolved the
            // race in its favour and records the value itself.
            if let Some(v) = d.pop() {
                claims[v as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
    });

    assert!(d.is_empty());
    for (r, c) in claims.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::Acquire),
            1,
            "round {r} claimed twice or lost"
        );
    }
}

/// Two thieves only (owner quiescent): all entries stolen exactly once.
fn thieves_only_race<D: Subject>() {
    let n: u64 = if cfg!(miri) { 64 } else { 1000 };
    let s = D::with_capacity(1024);
    let d = s.deque();
    for i in 0..n {
        d.push(i);
    }
    let taken = Counter::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut local = 0u64;
                while !d.is_empty() {
                    if d.steal().is_some() {
                        local += 1;
                    }
                }
                taken.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(taken.load(Ordering::Acquire), n);
}
