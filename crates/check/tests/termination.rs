//! The termination-scan mutations: each yields a readable counterexample
//! under the weakest model that shows it — and the ordering downgrade is
//! invisible under SC, which is what the RA machine is for. That the
//! shipped scan never passes early, wherever it runs and under either
//! memory model, is `golden.rs`'s.

use uat_check::termination::{suite, ScanMutation};
use uat_check::{MemModel, Protocol, Seeded};

#[path = "pinned/mod.rs"]
mod pinned;

#[test]
fn ra_explores_more_than_sc() {
    let sc = suite(MemModel::Sc, ScanMutation::None);
    pinned::assert_ra_explores_more(&sc, &suite(MemModel::Ra, ScanMutation::None));
}

#[test]
fn swapped_passes_terminate_early_even_under_sc() {
    for model in [MemModel::Sc, MemModel::Ra] {
        for sc in suite(model, ScanMutation::PassOrder) {
            let trace = sc
                .explore()
                .violation
                .expect("spawned-first must pass early")
                .to_string();
            assert!(trace.contains("VIOLATION"), "{trace}");
            let at = |what| trace.find(what).expect(what);
            assert!(
                at("scan reads spawned") < at("scan reads completed"),
                "{trace}"
            );
            assert!(trace.contains("and passes"), "{trace}");
        }
    }
}

#[test]
fn relaxed_pass_one_terminates_early_only_under_ra() {
    for sc in suite(MemModel::Sc, ScanMutation::CompletedWeak) {
        assert!(
            sc.explore().violation.is_none(),
            "{}: SC ignores orderings",
            sc.name
        );
    }
    // A worker's own spawn ticks are in its view whatever the ordering,
    // but its peer's are not: both placements read one stale.
    for sc in suite(MemModel::Ra, ScanMutation::CompletedWeak) {
        let trace = sc
            .explore()
            .violation
            .expect("a Relaxed pass 1 must pass early")
            .to_string();
        assert!(trace.contains("(Relaxed)"), "{trace}");
        assert!(trace.contains(", stale)"), "{trace}");
    }
}

#[test]
fn mutation_names_are_stable_and_listed() {
    let names: Vec<_> = ScanMutation::seeded().map(|m| m.name()).collect();
    assert_eq!(names, ["scan-pass-order", "scan-completed-weak"]);
}
