//! The termination-scan model checking itself: the shipped scan never
//! passes early, wherever it runs and under either memory model; each
//! seeded mutation yields a readable counterexample under the weakest
//! model that shows it — and the ordering downgrade is invisible under
//! SC, which is what the RA machine is for.

use uat_check::termination::{suite, ScanMutation, MUTATIONS};
use uat_check::MemModel;

#[test]
fn shipped_scan_never_passes_early() {
    for model in [MemModel::Sc, MemModel::Ra] {
        for sc in suite(model, ScanMutation::None) {
            let r = sc.explore();
            assert!(r.violation.is_none(), "{}", r.violation.unwrap());
            assert!(r.states > 0 && r.interleavings > 0, "{}: empty", sc.name);
            assert!(r.passes > 0, "{}: no scan ever passed (vacuous)", sc.name);
        }
    }
}

#[test]
fn ra_explores_more_than_sc() {
    for (sc, ra) in suite(MemModel::Sc, ScanMutation::None)
        .into_iter()
        .zip(suite(MemModel::Ra, ScanMutation::None))
    {
        assert!(ra.explore().interleavings > sc.explore().interleavings);
    }
}

#[test]
fn swapped_passes_terminate_early_even_under_sc() {
    for model in [MemModel::Sc, MemModel::Ra] {
        for sc in suite(model, ScanMutation::PassOrder) {
            let trace = sc
                .explore()
                .violation
                .expect("spawned-first must pass early");
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
            .expect("a Relaxed pass 1 must pass early");
        assert!(trace.contains("(Relaxed)"), "{trace}");
        assert!(trace.contains(", stale)"), "{trace}");
    }
}

#[test]
fn mutation_names_are_stable_and_listed() {
    let names: Vec<_> = MUTATIONS.iter().map(|m| m.name()).collect();
    assert_eq!(names, ["scan-pass-order", "scan-completed-weak"]);
}
