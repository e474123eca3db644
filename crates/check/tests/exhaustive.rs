//! The checker checking itself: the clean suite must verify every
//! reachable state with zero violations, the sleep-set mode must agree
//! with brute force, differential replay must conform against the real
//! THE body placed in fabric memory, and each seeded mutation must be
//! caught with a trace.

use uat_check::scenarios::{mutation_demos, sleep_set_scenarios, standard_suite};
use uat_check::{replay, Explorer, Mutation, ViolationKind};

#[test]
fn clean_suite_has_zero_violations_and_broad_coverage() {
    let mut total_interleavings: u128 = 0;
    let mut total_states: u64 = 0;
    for sc in &standard_suite() {
        let report = Explorer::new(sc, 0).run_exhaustive();
        assert!(
            report.violation.is_none(),
            "{}: unexpected violation:\n{}",
            sc.name,
            report.violation.as_ref().unwrap().render(sc.name)
        );
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
        let exhaustive = Explorer::new(sc, 0).run_exhaustive();
        let sleepy = Explorer::new(sc, 0).run_sleep_sets();
        assert!(
            sleepy.violation.is_none(),
            "{}: sleep-set violation",
            sc.name
        );
        assert_eq!(
            sleepy.final_states, exhaustive.final_states,
            "{}: sleep-set pruning missed quiescent states",
            sc.name
        );
        assert!(
            sleepy.interleavings <= exhaustive.interleavings,
            "{}: pruning explored more executions than exist",
            sc.name
        );
        assert!(sleepy.sleep_pruned > 0, "{}: pruning never fired", sc.name);
    }
}

#[test]
fn sleep_set_schedules_replay_against_the_fabric_deque() {
    let suite = standard_suite();
    for name in sleep_set_scenarios() {
        let sc = suite.iter().find(|s| s.name == *name).unwrap();
        let sleepy = Explorer::new(sc, 2000).run_sleep_sets();
        assert!(
            !sleepy.schedules.is_empty(),
            "{name}: no schedules recorded"
        );
        let replayed = replay::replay_schedules(sc, &sleepy.schedules)
            .unwrap_or_else(|e| panic!("{name}: replay divergence: {e}"));
        assert_eq!(replayed, sleepy.schedules.len() as u64);
    }
}

fn assert_mutation_caught(m: Mutation, want_double_claim: bool) {
    let mut caught = 0;
    for sc in &mutation_demos(m) {
        let report = Explorer::new(sc, 0).run_exhaustive();
        if let Some(v) = &report.violation {
            caught += 1;
            if want_double_claim {
                assert!(
                    matches!(v.kind, ViolationKind::DoubleClaim { .. }),
                    "{}: expected a double claim, got: {}",
                    sc.name,
                    v.kind.describe()
                );
            }
            // The rendered trace must be a readable interleaving.
            let rendered = v.render(sc.name);
            assert!(rendered.contains("VIOLATION"), "trace missing verdict");
            assert!(
                rendered.contains("MUTATED"),
                "trace does not show the mutated step"
            );
        }
    }
    assert!(
        caught > 0,
        "mutation {} produced no counterexample",
        m.name()
    );
}

#[test]
fn mutation_owner_top_recheck_is_caught() {
    assert_mutation_caught(Mutation::SkipOwnerTopRecheck, true);
}

#[test]
fn mutation_unlock_drop_is_caught() {
    let mut caught = 0;
    for sc in &mutation_demos(Mutation::SkipUnlockOnRacedEmpty) {
        let report = Explorer::new(sc, 0).run_exhaustive();
        if let Some(v) = &report.violation {
            caught += 1;
            assert!(
                matches!(
                    v.kind,
                    ViolationKind::LockLeak { .. } | ViolationKind::Stuck
                ),
                "{}: expected a lock leak or wedge, got: {}",
                sc.name,
                v.kind.describe()
            );
        }
    }
    assert!(caught > 0, "unlock-drop produced no counterexample");
}

#[test]
fn mutation_last_entry_fast_path_is_caught() {
    // The latent bug the checker found in the shipped NativeDeque::pop:
    // taking the last entry lock-free double-claims against a thief
    // already inside its locked critical section.
    assert_mutation_caught(Mutation::LastEntryFastPath, true);
}
