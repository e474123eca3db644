//! The THE deque's behaviour and concurrency suite, written once and run
//! on its three placements — `native::*` over [`NativeDeque`], `shm::*`
//! over a [`ShmDeque`](uat_deque::ShmDeque) placed on a zeroed block, and
//! (the sequential scenarios, plus the simulator's own cases) `fabric::*`
//! over a [`FabricDeque`] in simulated registered memory — the one
//! protocol body all three executors use. The root package runs this
//! file too (`tests/deque.rs`), so `cargo test` at the top exercises it.
//!
//! [`NativeDeque`]: uat_deque::NativeDeque

#[macro_use]
mod fixture;

use fixture::{entry, FabricBlock, Subject, THIEF};
use std::sync::atomic::{AtomicBool, AtomicU64 as Counter, Ordering};
use uat_base::{CostModel, Cycles, StealOutcome};
use uat_deque::entry::ENTRY_BYTES;
use uat_deque::PopOutcome;

/// Raises its flag when dropped — at the end of a scenario's owner side,
/// or while it unwinds — so the thieves stop and a broken protocol fails
/// its test instead of leaving `thread::scope` waiting forever.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

on_all!(
    sequential: [
        fresh_deque_is_empty,
        lifo_for_owner,
        fifo_for_thief,
        owner_and_thief_take_opposite_ends,
        alternating_pop_and_steal_conserve_entries,
        wraparound,
        full_deque_across_wraparound,
        #[should_panic(expected = "overflow")]
        overflow_panics,
        len_tracks,
        steal_phased_matches_steal_semantics,
    ],
    threaded: [
        concurrent_conservation,
        last_entry_race_exactly_one_winner,
        thieves_only_race,
    ],
    fabric: [
        phase_costs_follow_table3,
        owner_wins_the_last_entry_against_a_locked_thief,
        owner_is_contended_while_a_thief_holds_its_last_entry,
        snapshot_reflects_shared_words,
    ],
);

/// A new deque — for the placed one, a zeroed block — is a valid empty,
/// unlocked deque.
fn fresh_deque_is_empty<D: Subject>() {
    let d = D::with_capacity(4);
    assert!(d.is_empty());
    assert_eq!(d.pop(), None);
    assert_eq!(d.steal(), None);
    assert_eq!(d.capacity(), 4);
}

fn lifo_for_owner<D: Subject>() {
    let d = D::with_capacity(16);
    for i in 0..5u64 {
        d.push(i);
    }
    for i in (0..5).rev() {
        assert_eq!(d.pop(), Some(i));
    }
    assert_eq!(d.pop(), None);
}

fn fifo_for_thief<D: Subject>() {
    let d = D::with_capacity(16);
    for i in 0..5u64 {
        d.push(i);
    }
    for i in 0..5 {
        assert_eq!(d.steal(), Some(i));
    }
    assert_eq!(d.steal(), None);
}

fn owner_and_thief_take_opposite_ends<D: Subject>() {
    let d = D::with_capacity(16);
    for i in 0..6u64 {
        d.push(i);
    }
    assert_eq!(d.steal(), Some(0));
    assert_eq!(d.steal(), Some(1));
    assert_eq!(d.pop(), Some(5));
    assert_eq!(d.pop(), Some(4));
    assert_eq!(d.len(), 2);
}

/// Pop and steal in turn until both come up empty: every entry is
/// taken exactly once.
fn alternating_pop_and_steal_conserve_entries<D: Subject>() {
    let d = D::with_capacity(64);
    for i in 0..10u64 {
        d.push(i);
    }
    let mut got = Vec::new();
    loop {
        let (popped, stolen) = (d.pop(), d.steal());
        if popped.is_none() && stolen.is_none() {
            break;
        }
        got.extend(popped.into_iter().chain(stolen));
    }
    got.sort_unstable();
    assert_eq!(got, (0..10).collect::<Vec<_>>());
}

fn wraparound<D: Subject>() {
    let d = D::with_capacity(3);
    for round in 0..10u64 {
        d.push(round * 2);
        d.push(round * 2 + 1);
        assert_eq!(d.steal(), Some(round * 2));
        assert_eq!(d.pop(), Some(round * 2 + 1));
    }
    assert!(d.is_empty());
}

/// A full deque whose positions have wrapped: every slot is live and
/// `position % capacity` has wrapped, and the thief still drains it in
/// exact FIFO order.
fn full_deque_across_wraparound<D: Subject>() {
    let d = D::with_capacity(3);
    for i in 0..5u64 {
        d.push(i);
        assert_eq!(d.pop(), Some(i));
    }
    for i in 10..13u64 {
        d.push(i);
    }
    assert_eq!(d.len(), 3, "deque is at capacity");
    for i in 10..13 {
        assert_eq!(d.steal(), Some(i), "FIFO across a full wrapped buffer");
    }
    assert!(d.is_empty());
}

fn overflow_panics<D: Subject>() {
    let d = D::with_capacity(2);
    d.push(1);
    d.push(2);
    d.push(3);
}

fn len_tracks<D: Subject>() {
    let d = D::with_capacity(8);
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
    let d = D::with_capacity(8);
    let mut clk = 0u64;
    let mut clock = || {
        clk += 1;
        clk
    };
    let (got, ph) = d.steal_phased(&mut clock);
    assert_eq!(got, None);
    assert_eq!(ph.outcome, StealOutcome::AbortEmpty);
    assert!(ph.start <= ph.checked && ph.checked == ph.end);

    d.push(7);
    d.push(8);
    let (got, ph) = d.steal_phased(&mut clock);
    assert_eq!(got, Some(7));
    assert_eq!(ph.outcome, StealOutcome::Completed);
    assert!(ph.start <= ph.checked && ph.checked <= ph.locked && ph.locked <= ph.end);
    assert_eq!(d.pop(), Some(8));

    // Play a thief that holds the lock.
    d.push(9);
    d.hold_lock(true);
    let (got, ph) = d.steal_phased(&mut clock);
    assert_eq!(got, None);
    assert_eq!(ph.outcome, StealOutcome::AbortLock);
    assert_eq!(d.steal(), None);
    d.hold_lock(false);
    assert_eq!(d.steal(), Some(9));
}

/// One owner and three thieves hammer the deque; every pushed value must
/// be consumed exactly once (conservation), which is the property the
/// THE proof guarantees.
fn concurrent_conservation<D: Subject + Sync>() {
    const PER_ROUND: u64 = 64;
    // Miri executes this orders of magnitude slower; a few rounds still
    // cross every protocol path under its race detector.
    const ROUNDS: u64 = if cfg!(miri) { 4 } else { 200 };
    const THIEVES: usize = 3;
    let d = D::with_capacity(PER_ROUND as usize + 1);
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
fn last_entry_race_exactly_one_winner<D: Subject + Sync>() {
    const ROUNDS: usize = if cfg!(miri) { 50 } else { 20_000 };
    let d = D::with_capacity(2);
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
fn thieves_only_race<D: Subject + Sync>() {
    let n: u64 = if cfg!(miri) { 64 } else { 1000 };
    let d = D::with_capacity(1024);
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

// ---------------------------------------------------------------------
// The fabric placement's own cases: the one-sided op inventory, and the
// owner that yields to a held lock and pops atomically. Each drives the
// body's phases one by one, as the simulator's engine does.
// ---------------------------------------------------------------------

/// Each phase's unloaded cost is its Table 3 op inventory: the check one
/// 16-byte READ; the lock one FAA (9.8K cycles); the take two READs and a
/// WRITE; the unlock one WRITE. An aborted check costs no FAA.
fn phase_costs_follow_table3() {
    let d = FabricBlock::with_capacity(8);
    let (q, f, c) = (&d.deque, &mut *d.fabric.borrow_mut(), CostModel::fx10());
    assert!(!q.steal_check(f, THIEF, Cycles(0)).0);
    assert_eq!(f.stats().faas, 0, "an aborted steal never touches the lock");
    q.push_in(f, entry(1));
    let t0 = Cycles(1_000_000);
    let (nonempty, t1) = q.steal_check(f, THIEF, t0);
    let (won, t2) = q.steal_lock(f, THIEF, t1);
    let (got, t3) = q.steal_take(f, THIEF, t2);
    let t4 = q.steal_unlock(f, THIEF, t3);
    assert!(nonempty && won && got == Some(entry(1)));
    assert_eq!(t1.since(t0), c.rdma_read(16, false));
    assert_eq!(t2.since(t1), Cycles(9_800));
    let take = c.rdma_read(16, false) + c.rdma_read(ENTRY_BYTES, false) + c.rdma_write(8, false);
    assert_eq!(t3.since(t2), take);
    assert_eq!(t4.since(t3), c.rdma_write(8, false));
}

/// THE's defining property at event atomicity: the owner's pop takes the
/// last entry lock-free, so a thief that passed the check and holds the
/// lock finds the deque drained. Its failed take keeps the lock: other
/// thieves bounce and an empty-deque owner pop is `Contended` until the
/// thief unlocks, after which both sides work again.
fn owner_wins_the_last_entry_against_a_locked_thief() {
    let d = FabricBlock::with_capacity(8);
    d.push(1);
    let pop = || d.deque.pop_in(&mut d.fabric.borrow_mut());
    let (nonempty, t) = d
        .deque
        .steal_check(&mut d.fabric.borrow_mut(), THIEF, Cycles(0));
    let (won, t) = d.deque.steal_lock(&mut d.fabric.borrow_mut(), THIEF, t);
    assert!(nonempty && won);
    assert_eq!(pop(), PopOutcome::Entry(entry(1)));
    let (got, t) = d.deque.steal_take(&mut d.fabric.borrow_mut(), THIEF, t);
    assert_eq!(got, None);
    d.push(2);
    assert_eq!(d.steal_phased(|| 0).1.outcome, StealOutcome::AbortLock);
    assert_eq!(pop(), PopOutcome::Entry(entry(2)));
    assert_eq!(pop(), PopOutcome::Contended);
    d.deque.steal_unlock(&mut d.fabric.borrow_mut(), THIEF, t);
    assert_eq!(pop(), PopOutcome::Empty);
    d.push(3);
    assert_eq!(d.steal(), Some(3));
}

/// The complement: the thief took the last entry and is between take and
/// unlock (its stack transfer). The owner's pop finds the deque empty
/// with the lock held and must see `Contended`, not `Empty` — concluding
/// "stolen" before the unlock would let it reuse frames the thief is
/// still reading.
fn owner_is_contended_while_a_thief_holds_its_last_entry() {
    let d = FabricBlock::with_capacity(8);
    d.push(7);
    let (q, f) = (&d.deque, &mut *d.fabric.borrow_mut());
    let (_, t) = q.steal_lock(f, THIEF, Cycles(0));
    let (got, t) = q.steal_take(f, THIEF, t);
    assert_eq!(got, Some(entry(7)));
    assert_eq!(q.pop_in(f), PopOutcome::Contended);
    q.steal_unlock(f, THIEF, t);
    assert_eq!(q.pop_in(f), PopOutcome::Empty);
}

/// The auditor's and the replay's view: lock word, indices, and the live
/// entries oldest first.
fn snapshot_reflects_shared_words() {
    let d = FabricBlock::with_capacity(4);
    for i in 0..3 {
        d.push(i);
    }
    assert_eq!(d.pop(), Some(2));
    let snap = || d.deque.snapshot(&d.fabric.borrow());
    let s = snap();
    assert_eq!((s.lock, s.top, s.bottom), (0, 0, 2));
    assert_eq!(s.entries, vec![entry(0), entry(1)]);
    d.hold_lock(true);
    assert_eq!(snap().lock, 1);
}
