//! The slot-supply mutations: each yields a readable counterexample under
//! the weakest model that shows it, and the two RA-only ones are
//! invisible under SC. That the shipped protocol keeps every invariant
//! and is not vacuous — fast paths complete, some find a raid on, and
//! raids take slots — is `golden.rs`'s.

use uat_check::slots::{suite, SlotMutation};
use uat_check::{MemModel, Protocol, Seeded};

#[path = "pinned/mod.rs"]
mod pinned;

#[test]
fn ra_explores_more_than_sc() {
    let sc = suite(MemModel::Sc, SlotMutation::None);
    pinned::assert_ra_explores_more(&sc, &suite(MemModel::Ra, SlotMutation::None));
}

/// The first counterexample either shape yields for `m` under `model`.
fn caught(m: SlotMutation, model: MemModel) -> Option<String> {
    suite(model, m)
        .iter()
        .find_map(|sc| sc.explore().violation)
        .map(|v| v.to_string())
}

#[test]
fn every_mutation_is_caught_by_name() {
    let expect = [
        (SlotMutation::SkipMembarrier, "places"),
        (SlotMutation::RaidBeforeBusy, "places"),
        (SlotMutation::NoBusyWait, "places"),
        (SlotMutation::BusyClearRelaxed, "places"),
        (SlotMutation::SkipPoolLock, "places"),
        (SlotMutation::RaidFloorHalf, "declared exhausted with slot"),
    ];
    assert_eq!(expect.len(), SlotMutation::seeded().count());
    for (m, what) in expect {
        let trace = caught(m, m.model()).unwrap_or_else(|| panic!("{} survived", m.name()));
        assert!(
            trace.contains("VIOLATION") && trace.contains(what),
            "{trace}"
        );
    }
}

#[test]
fn the_two_ordering_mutations_are_caught_only_under_ra() {
    for m in [SlotMutation::SkipMembarrier, SlotMutation::BusyClearRelaxed] {
        assert_eq!(m.model(), MemModel::Ra);
        assert!(
            caught(m, MemModel::Sc).is_none(),
            "{}: SC ignores orderings and has no store buffer",
            m.name()
        );
        let trace = caught(m, MemModel::Ra).expect("caught under RA");
        assert!(trace.contains(", stale)"), "{trace}");
    }
    // The structural ones are visible under SC, so under RA too.
    for m in SlotMutation::seeded().filter(|m| m.model() == MemModel::Sc) {
        assert!(caught(m, MemModel::Ra).is_some(), "{}", m.name());
    }
}

#[test]
fn mutation_names_are_stable_and_listed() {
    let names: Vec<_> = SlotMutation::seeded().map(|m| m.name()).collect();
    assert_eq!(
        names,
        [
            "slots-skip-membarrier",
            "slots-raid-before-busy",
            "slots-no-busy-wait",
            "slots-busy-clear-relaxed",
            "slots-skip-pool-lock",
            "slots-raid-floor-half",
        ]
    );
}
