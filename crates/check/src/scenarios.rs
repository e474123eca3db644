//! The standard scenario suite, the weak-memory (release/acquire)
//! suite, and the seeded-mutation demos.

use crate::memory::MemModel;
use crate::model::{Family, Mutation, OwnerOp, Scenario};

use OwnerOp::{Pop, Push};

fn sim(name: &'static str, capacity: u64, owner: Vec<OwnerOp>, thieves: Vec<u32>) -> Scenario {
    Scenario {
        name,
        family: Family::SimPhase,
        mem_model: MemModel::Sc,
        capacity,
        batch: 1,
        prologue: Vec::new(),
        owner,
        thieves,
        mutation: Mutation::None,
    }
}

fn native(name: &'static str, capacity: u64, owner: Vec<OwnerOp>, thieves: Vec<u32>) -> Scenario {
    Scenario {
        family: Family::NativeOp,
        ..sim(name, capacity, owner, thieves)
    }
}

/// `NativeOp` under the release/acquire memory model: every load
/// branches over the messages its declared ordering permits.
fn ra(name: &'static str, capacity: u64, owner: Vec<OwnerOp>, thieves: Vec<u32>) -> Scenario {
    Scenario {
        mem_model: MemModel::Ra,
        ..native(name, capacity, owner, thieves)
    }
}

/// Prologue that advances positions past `rounds` slots so the
/// interleaved part runs on wrapped slot indices. Leaves the deque empty.
fn wrap_prologue(rounds: u64) -> Vec<OwnerOp> {
    (0..rounds).flat_map(|i| [Push(900 + i), Pop]).collect()
}

/// The clean suite: every scenario must report zero violations. Sized so
/// exhaustive exploration verifies every reachable state in well under a
/// second each while the combined interleaving count runs to millions.
pub fn standard_suite() -> Vec<Scenario> {
    vec![
        // Owner pushes/pops interleaved with one remote thief's phases.
        sim(
            "sim/1v1-interleave",
            4,
            vec![Push(1), Push(2), Pop, Push(3), Pop, Pop],
            vec![2],
        ),
        // The last-entry race at phase granularity: Contended pops,
        // raced-empty phase 3, owner fast-path wins.
        sim("sim/last-entry", 2, vec![Push(1), Pop], vec![2]),
        // Two thieves contend on the FAA lock while the owner drains.
        sim(
            "sim/two-thieves",
            4,
            vec![Push(1), Push(2), Pop, Pop],
            vec![2, 2],
        ),
        // Same protocol but with slot indices already wrapped.
        Scenario {
            prologue: wrap_prologue(3),
            ..sim(
                "sim/wraparound",
                2,
                vec![Push(1), Push(2), Pop, Pop],
                vec![2],
            )
        },
        // Deep drain: three entries, three pops, a three-attempt thief.
        sim(
            "sim/drain-race",
            4,
            vec![Push(1), Push(2), Push(3), Pop, Pop, Pop],
            vec![3],
        ),
        // NativeDeque at per-atomic-access granularity: the Dekker
        // store-load handshake for the last entry is visible here.
        native("native/1v1", 2, vec![Push(1), Push(2), Pop, Pop], vec![2]),
        native("native/last-entry", 1, vec![Push(1), Pop], vec![2]),
        native(
            "native/two-thieves",
            2,
            vec![Push(1), Push(2), Pop],
            vec![1, 1],
        ),
        // Push immediately after a last-entry pop race: the fresh entry
        // reuses the slot a locked thief may be examining, and its
        // published bottom could resurrect a stale read — safe only
        // because the owner's strict fast-path bound keeps the whole
        // last-entry arbitration under the lock. (The scenario that
        // exposed the ABA hole in a bottom-validation variant of the
        // thief during development.)
        native(
            "native/push-race",
            2,
            vec![Push(1), Pop, Push(2), Pop],
            vec![2],
        ),
        // Wraparound safety: the locked slot read happens while
        // `top == t` still blocks slot reuse by the capacity check.
        Scenario {
            prologue: wrap_prologue(3),
            ..native(
                "native/wraparound",
                2,
                vec![Push(1), Push(2), Pop, Pop],
                vec![2],
            )
        },
        // Batched steal (transfer-k, ROADMAP item 3) modeled ahead of
        // its native implementation: a locked thief transfers up to two
        // entries per critical section and the owner's fast-path bound
        // widens to `top + 2 <= bottom - 1`. Still SC here; the RA suite
        // re-runs it under weak memory.
        Scenario {
            batch: 2,
            ..native(
                "native/batch2",
                3,
                vec![Push(1), Push(2), Push(3), Pop],
                vec![2],
            )
        },
    ]
}

/// The weak-memory clean suite: the same `NativeOp` protocol explored
/// under [`MemModel::Ra`], where every load branches over the messages
/// its declared ordering permits. Every scenario must still report zero
/// violations — together with the ordering-downgrade mutations this is
/// the machine-checked argument that `NativeDeque`'s orderings are
/// sufficient (see DESIGN.md §11).
pub fn weak_suite() -> Vec<Scenario> {
    vec![
        ra("ra/1v1", 2, vec![Push(1), Push(2), Pop, Pop], vec![2]),
        ra("ra/last-entry", 1, vec![Push(1), Pop], vec![2]),
        ra("ra/two-thieves", 2, vec![Push(1), Push(2), Pop], vec![1, 1]),
        ra("ra/push-race", 2, vec![Push(1), Pop, Push(2), Pop], vec![2]),
        // The publication edge (push Release -> steal Acquire) exercised
        // on wrapped, previously-occupied slots: a stale slot read here
        // would surface old prologue values as phantom tasks.
        Scenario {
            prologue: wrap_prologue(3),
            ..ra(
                "ra/wraparound",
                2,
                vec![Push(1), Push(2), Pop, Pop],
                vec![2],
            )
        },
        // Deep drain with repeated steals: exercises the Dekker pairs
        // (dip/locked-bottom and claim/re-read) across three claims.
        ra("ra/drain", 3, vec![Push(1), Push(2), Push(3), Pop], vec![3]),
        // Batched steal under weak memory.
        Scenario {
            batch: 2,
            ..ra(
                "ra/batch2",
                3,
                vec![Push(1), Push(2), Push(3), Pop],
                vec![2],
            )
        },
    ]
}

/// Scenario names whose full interleaving space is small enough to also
/// walk path-by-path (sleep-set mode + differential replay).
pub fn sleep_set_scenarios() -> &'static [&'static str] {
    &[
        "sim/1v1-interleave",
        "sim/last-entry",
        "sim/wraparound",
        "sim/drain-race",
    ]
}

/// Demo scenarios for one seeded mutation: small systems where the
/// checker must produce a counterexample trace — mostly the clean suites'
/// own. Ordering-downgrade mutations come with RA scenarios (they are
/// invisible under SC — the test suite checks both directions).
pub fn mutation_demos(m: Mutation) -> Vec<Scenario> {
    assert_ne!(m, Mutation::None);
    let suite = |name: &str| {
        standard_suite()
            .into_iter()
            .chain(weak_suite())
            .find(|sc| sc.name == name)
            .expect("a clean-suite scenario")
    };
    let mut demos = match m {
        // Deleting the owner's top re-check is only observable at atomic
        // granularity (at phase atomicity the conflict path is dead code,
        // which the SimPhase model asserts). The same two scenarios show
        // the latent bug found in the shipped `NativeDeque::pop`: the
        // owner takes the last entry lock-free whenever its top re-read
        // shows no published claim, racing a thief that is already
        // committed inside its locked critical section.
        Mutation::SkipOwnerTopRecheck | Mutation::LastEntryFastPath => {
            vec![suite("native/last-entry"), suite("native/1v1")]
        }
        Mutation::SkipUnlockOnRacedEmpty => {
            vec![suite("sim/last-entry"), suite("native/last-entry")]
        }
        // A push whose bottom bump no longer carries the entry write:
        // the thief's acquire pre-check synchronizes with nothing, so
        // its locked slot read may see the slot's previous contents.
        Mutation::PushPublishRelaxed => vec![ra("ra/publish", 2, vec![Push(1)], vec![1])],
        // Both directions of the pop/steal Dekker handshake on `bottom`:
        // the thief can read a pre-decrement bottom, walk past entries
        // the owner's fast path is draining, and double-claim on the
        // third attempt.
        Mutation::PopPublishRelease | Mutation::StealBottomRelaxed => vec![suite("ra/drain")],
        // The lock hand-off chain broken from either end: the next
        // holder's relaxed locked re-reads see a stale `top` and take an
        // entry the previous holder already kept.
        Mutation::UnlockRelaxed | Mutation::LockCasRelaxed => vec![
            ra("ra/last-entry", 1, vec![Push(1), Pop], vec![1]),
            suite("ra/1v1"),
        ],
        // A claim outside the SC order: the owner's SeqCst top re-read
        // can miss it and fast-path into the thief's committed range.
        Mutation::ClaimTopRelease => vec![ra("ra/claim", 3, vec![Push(1), Push(2), Pop], vec![2])],
        // Batched steal with the un-widened k=1 owner bound: caught even
        // under SC — the reason the bound must widen before native
        // batching ships. Two entries make the popped position fall
        // *inside* a locked thief's k=2 transfer range (with three, the
        // narrow and widened bounds happen to agree).
        Mutation::BatchNarrowOwnerBound => vec![Scenario {
            batch: 2,
            ..native(
                "native/batch2-narrow",
                3,
                vec![Push(1), Push(2), Pop],
                vec![1],
            )
        }],
        Mutation::None => unreachable!(),
    };
    for d in &mut demos {
        d.mutation = m;
    }
    demos
}
