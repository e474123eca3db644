//! The checker checking itself: the clean suite must verify every
//! reachable state with zero violations, the sleep-set mode must agree
//! with brute force, differential replay must conform against the real
//! THE body placed in fabric memory, and each seeded mutation must be
//! caught with a trace.

use uat_check::scenarios::{mutation_demos, sleep_set_scenarios, standard_suite};
use uat_check::{replay, Mutation, Protocol, Seeded, ViolationKind};

#[test]
fn clean_suite_has_zero_violations_and_broad_coverage() {
    let mut total_interleavings: u128 = 0;
    let mut total_states: u64 = 0;
    for sc in &standard_suite() {
        let report = sc.explore();
        if let Some(v) = &report.violation {
            panic!("{}: unexpected violation:\n{v}", sc.name);
        }
        assert!(
            report.states > 0 && report.interleavings > 0,
            "{}: empty exploration",
            sc.name
        );
        total_interleavings += report.interleavings;
        total_states += report.states;
    }
    // The acceptance bar is 10k distinct interleavings; the suite covers
    // orders of magnitude more.
    assert!(
        total_interleavings >= 10_000,
        "suite coverage too small: {total_interleavings} interleavings"
    );
    assert!(
        total_states >= 1_000,
        "suite coverage too small: {total_states} states"
    );
}

#[test]
fn sleep_set_exploration_agrees_with_brute_force() {
    for sc in &standard_suite() {
        if !sleep_set_scenarios().contains(&sc.name) {
            continue;
        }
        let exhaustive = sc.explore();
        let sleepy = sc.sleep_sets();
        assert!(
            sleepy.violation.is_none(),
            "{}: sleep-set violation",
            sc.name
        );
        assert_eq!(
            sleepy.finals, exhaustive.finals,
            "{}: sleep-set pruning missed quiescent states",
            sc.name
        );
        assert!(
            sleepy.interleavings <= exhaustive.interleavings,
            "{}: pruning explored more executions than exist",
            sc.name
        );
        assert!(sleepy.tally.pruned > 0, "{}: pruning never fired", sc.name);
    }
}

#[test]
fn sleep_set_schedules_replay_against_the_fabric_deque() {
    let suite = standard_suite();
    for name in sleep_set_scenarios() {
        let sc = suite.iter().find(|s| s.name == *name).unwrap();
        let found = sc.sleep_sets().tally;
        assert!(!found.schedules.is_empty(), "{name}: no schedules recorded");
        let replayed = replay::replay_schedules(sc, &found.schedules)
            .unwrap_or_else(|e| panic!("{name}: replay divergence: {e}"));
        assert_eq!(replayed, found.schedules.len() as u64);
    }
}

/// `m` is caught: its demos yield counterexamples, each a violation
/// `expected` accepts, in a readable trace that shows the mutated step.
fn assert_caught(m: Mutation, expected: fn(&ViolationKind) -> bool) {
    let demos = mutation_demos(m);
    let found: Vec<_> = demos
        .iter()
        .filter_map(|sc| sc.explore().violation)
        .collect();
    assert!(!found.is_empty(), "{} produced no counterexample", m.name());
    for v in found {
        let rendered = v.to_string();
        assert!(
            expected(&v.fault),
            "{}: unexpected violation:\n{rendered}",
            m.name()
        );
        assert!(
            rendered.contains("VIOLATION") && rendered.contains("MUTATED"),
            "{}: trace does not show the mutated step:\n{rendered}",
            m.name()
        );
    }
}

#[test]
fn mutation_owner_top_recheck_is_caught() {
    assert_caught(Mutation::SkipOwnerTopRecheck, |k| {
        matches!(k, ViolationKind::DoubleClaim { .. })
    });
}

#[test]
fn mutation_unlock_drop_is_caught() {
    assert_caught(Mutation::SkipUnlockOnRacedEmpty, |k| {
        matches!(k, ViolationKind::LockLeak { .. } | ViolationKind::Stuck)
    });
}

#[test]
fn mutation_last_entry_fast_path_is_caught() {
    // The latent bug the checker found in the shipped NativeDeque::pop:
    // taking the last entry lock-free double-claims against a thief
    // already inside its locked critical section.
    assert_caught(Mutation::LastEntryFastPath, |k| {
        matches!(k, ViolationKind::DoubleClaim { .. })
    });
}
