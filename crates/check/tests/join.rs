//! The join-protocol model checking itself: the shipped protocol keeps
//! every invariant in every shape under either memory model, and is not
//! vacuous — joiners park and are handed out, and a stolen child's
//! decrement does wrap the count; each seeded mutation yields a readable
//! counterexample under the weakest model that shows it, and the two
//! ordering downgrades are invisible under SC.

use uat_check::join::{suite, JoinMutation, MUTATIONS};
use uat_check::MemModel;

#[test]
fn shipped_protocol_keeps_every_invariant() {
    for model in [MemModel::Sc, MemModel::Ra] {
        let reports: Vec<_> = suite(model, JoinMutation::None)
            .iter()
            .map(|sc| sc.explore())
            .collect();
        for r in &reports {
            assert!(r.violation.is_none(), "{}", r.violation.as_ref().unwrap());
            assert!(r.states > 0 && r.interleavings > 0, "{}: empty", r.scenario);
            assert!(r.passes > 0, "{}: no join ever passed", r.scenario);
            assert!(
                r.handed_out > 0,
                "{}: no parked joiner handed out",
                r.scenario
            );
            assert!(r.wraps > 0, "{}: the count never wrapped", r.scenario);
        }
    }
}

#[test]
fn ra_explores_more_than_sc() {
    for (sc, ra) in suite(MemModel::Sc, JoinMutation::None)
        .into_iter()
        .zip(suite(MemModel::Ra, JoinMutation::None))
    {
        assert!(ra.explore().interleavings > sc.explore().interleavings);
    }
}

/// The first counterexample any shape yields for `m` under `model`.
fn caught(m: JoinMutation, model: MemModel) -> Option<String> {
    suite(model, m).iter().find_map(|sc| sc.explore().violation)
}

#[test]
fn every_mutation_is_caught_by_name() {
    let expect = [
        (JoinMutation::SkipAnnounce, "after the joiner left"),
        (
            JoinMutation::InlineCompletes,
            "no child is left to resume it",
        ),
        (JoinMutation::ParkWeak, "which is not parked"),
        (JoinMutation::CompleteWeak, "which is not parked"),
        (JoinMutation::WaiterUnguarded, "after the joiner left"),
        (JoinMutation::KeepParked, "no child is left to resume it"),
    ];
    assert_eq!(expect.len(), MUTATIONS.len());
    for (m, what) in expect {
        let trace = caught(m, m.model()).unwrap_or_else(|| panic!("{} survived", m.name()));
        assert!(
            trace.contains("VIOLATION") && trace.contains(what),
            "{trace}"
        );
    }
}

#[test]
fn ordering_downgrades_are_caught_only_under_ra() {
    for m in [JoinMutation::ParkWeak, JoinMutation::CompleteWeak] {
        assert_eq!(m.model(), MemModel::Ra);
        assert!(
            caught(m, MemModel::Sc).is_none(),
            "{}: SC ignores orderings",
            m.name()
        );
        let trace = caught(m, MemModel::Ra).expect("caught under RA");
        // The last child read `waiter` stale: the park's store was not
        // published to it.
        assert!(
            trace.contains("reads waiter = 0 (Relaxed, stale)"),
            "{trace}"
        );
    }
    // The structural ones are visible under SC, so under RA too.
    for m in MUTATIONS.into_iter().filter(|m| m.model() == MemModel::Sc) {
        assert!(caught(m, MemModel::Ra).is_some(), "{}", m.name());
    }
}

#[test]
fn a_kept_parked_bit_strands_only_a_reused_block() {
    let [one, two, rounds] = suite(MemModel::Sc, JoinMutation::KeepParked);
    assert!(one.explore().violation.is_none());
    assert!(two.explore().violation.is_none());
    let trace = rounds
        .explore()
        .violation
        .expect("the second round parks forever");
    assert!(trace.contains("reads pending = PARKED|0"), "{trace}");
}

#[test]
fn mutation_names_are_stable_and_listed() {
    let names: Vec<_> = MUTATIONS.iter().map(|m| m.name()).collect();
    assert_eq!(
        names,
        [
            "join-skip-announce",
            "join-inline-completes",
            "join-park-weak",
            "join-complete-weak",
            "join-waiter-unguarded",
            "join-keep-parked",
        ]
    );
}
