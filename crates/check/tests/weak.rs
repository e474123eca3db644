//! The weak-memory explorer checking itself: the release/acquire suite
//! must verify clean, every ordering-downgrade mutation must be caught
//! with a readable counterexample trace, and — the other direction —
//! those same downgrades must be *invisible* under SC, which is the
//! machine-checked argument that the RA mode sees something the PR 3
//! explorer could not.

use uat_check::scenarios::{mutation_demos, weak_suite};
use uat_check::{MemModel, Mutation, Protocol, Seeded, ViolationKind};

#[test]
fn weak_clean_suite_has_zero_violations() {
    let mut total_states = 0u64;
    for sc in &weak_suite() {
        let report = sc.explore();
        if let Some(v) = &report.violation {
            panic!("{}: unexpected violation under RA:\n{v}", sc.name);
        }
        assert!(
            report.states > 0 && report.interleavings > 0,
            "{}: empty exploration",
            sc.name
        );
        total_states += report.states;
    }
    assert!(
        total_states >= 1_000,
        "weak suite coverage too small: {total_states} states"
    );
}

/// RA explores strictly more behaviors than SC on the same scenario:
/// every SC execution is the all-fresh-choices RA execution.
#[test]
fn ra_explores_a_superset_of_sc() {
    for sc in &weak_suite() {
        let ra = sc.explore();
        let mut sc_version = sc.clone();
        sc_version.mem_model = MemModel::Sc;
        let sc_run = sc_version.explore();
        assert!(
            ra.interleavings >= sc_run.interleavings,
            "{}: RA found fewer executions ({}) than SC ({})",
            sc.name,
            ra.interleavings,
            sc_run.interleavings
        );
    }
}

/// `m` is caught: its demos yield counterexamples, each a violation
/// `expected` accepts, in a readable trace that shows the mutated access.
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
            "{}: trace does not show the mutated access:\n{rendered}",
            m.name()
        );
    }
}

#[test]
fn every_ordering_downgrade_is_caught_with_a_trace() {
    assert_eq!(Mutation::WEAK.len(), 6);
    for &m in Mutation::WEAK {
        assert_caught(m, |k| {
            matches!(
                k,
                ViolationKind::DoubleClaim { .. }
                    | ViolationKind::PhantomValue { .. }
                    | ViolationKind::LostValue { .. }
            )
        });
    }
}

/// The same downgrades are invisible under SC — orderings don't exist
/// there. This is the gap the RA mode closes.
#[test]
fn ordering_downgrades_are_invisible_under_sc() {
    for &m in Mutation::WEAK {
        for sc in &mutation_demos(m) {
            assert_eq!(sc.mem_model, MemModel::Ra);
            let mut sc_version = sc.clone();
            sc_version.mem_model = MemModel::Sc;
            if let Some(v) = sc_version.explore().violation {
                panic!(
                    "{} under SC unexpectedly caught {} — it is not an \
                     ordering bug after all:\n{v}",
                    sc.name,
                    m.name()
                );
            }
        }
    }
}

/// The batched-steal protocol bug (un-widened owner bound) is a
/// *protocol* regression: caught already under SC, before any native
/// batching ships (ROADMAP item 3).
#[test]
fn batch_narrow_owner_bound_is_caught_under_sc() {
    let m = Mutation::BatchNarrowOwnerBound;
    assert!(mutation_demos(m)
        .iter()
        .all(|sc| sc.mem_model == MemModel::Sc));
    assert_caught(m, |k| matches!(k, ViolationKind::DoubleClaim { .. }));
}

/// The push-publish audit (ISSUE 8 satellite): `Release` is the weakest
/// safe ordering for the publishing bottom store. The clean RA suite
/// (which runs `Release`, matching native.rs) passes — SeqCst is not
/// needed — while the `Relaxed` downgrade loses the entry-write edge
/// and is caught as a phantom/lost task.
#[test]
fn push_publish_release_is_proven_weakest_safe() {
    // Safe side: covered by weak_clean_suite_has_zero_violations (the
    // suite runs OrdSpec::native with push_publish = Release). Unsafe
    // side: Relaxed must produce a stale-slot counterexample.
    assert_caught(Mutation::PushPublishRelaxed, |k| {
        matches!(
            k,
            ViolationKind::PhantomValue { .. } | ViolationKind::LostValue { .. }
        )
    });
}
