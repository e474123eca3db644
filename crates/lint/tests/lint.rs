//! Integration tests: the lint suite flags the seeded-bad fixture and
//! passes the real tree (the CI contract, pinned here so a lint
//! regression in either direction fails `cargo test`).

use std::path::{Path, PathBuf};
use uat_lint::{lint_paths, lint_sources, Finding, Rule, RuleSet};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn real_tree() -> Vec<PathBuf> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    vec![
        crates.join("fiber").join("src"),
        crates.join("deque").join("src"),
        crates.join("rdma").join("src"),
    ]
}

#[test]
fn seeded_tls_fixture_is_flagged_by_both_tls_rules() {
    let findings = lint_paths(&[fixture("tls_across_switch.rs")], RuleSet::all()).unwrap();
    // The crossing function touches the thread-local directly.
    assert!(
        findings.iter().any(|f| f.rule == Rule::TlsInCrossingFn
            && f.message.contains("suspend_and_touch_tls")),
        "missing tls-in-crossing-fn for suspend_and_touch_tls: {findings:#?}"
    );
    // The inlinable helper is reachable from the crossing function.
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::TlsHelperInlinable && f.message.contains("current")),
        "missing tls-helper-inlinable for current(): {findings:#?}"
    );
    // The fixture's SAFETY comment is tagged, so rule C stays quiet —
    // every finding must be a TLS finding.
    assert!(
        findings
            .iter()
            .all(|f| matches!(f.rule, Rule::TlsInCrossingFn | Rule::TlsHelperInlinable)),
        "unexpected non-TLS findings: {findings:#?}"
    );
}

#[test]
fn seeded_tls_fixture_is_flagged_across_switch_to_and_switch_to_fresh() {
    let findings = lint_paths(&[fixture("tls_across_switch.rs")], RuleSet::all()).unwrap();
    // The runtimes cross through `switch_to` / `switch_to_fresh`, not
    // the paper's listing: a TLS read cached across either is flagged,
    // and the finding names the routine it matched.
    for (func, marker) in [
        ("park_and_touch_tls", "(calls switch_to)"),
        ("spawn_and_touch_tls", "(calls switch_to_fresh)"),
    ] {
        assert!(
            findings.iter().any(|f| f.rule == Rule::TlsInCrossingFn
                && f.message.contains(func)
                && f.message.contains(marker)),
            "missing tls-in-crossing-fn for {func} {marker}: {findings:#?}"
        );
    }
    // The shape the runtimes have — a never-inlined accessor, called
    // again after the switch — passes.
    assert!(
        !findings
            .iter()
            .any(|f| f.message.contains("park_and_rederive")
                || f.message.contains("current_fresh")),
        "the #[inline(never)] accessor pattern must pass: {findings:#?}"
    );
}

#[test]
fn seeded_ordering_fixture_is_flagged_through_the_words_accessor() {
    let findings = lint_paths(&[fixture("ordering_outside_allowlist.rs")], RuleSet::all()).unwrap();
    // Both downgrades are found through `self.store.words().field` and a
    // bound `w.field` alike — the shapes of the deque's one body — each
    // named by field, operation and ordering; the allowed accesses beside
    // them stay quiet.
    for (access, ord) in [("top.store", "Release"), ("bottom.load", "AcqRel")] {
        assert!(
            findings.iter().any(|f| f.rule == Rule::OrderingAllowlist
                && f.message
                    .contains(&format!("`{access}` with Ordering::{ord}"))),
            "missing ordering-allowlist finding for {access} {ord}: {findings:#?}"
        );
    }
    assert_eq!(findings.len(), 2, "{findings:#?}");
}

#[test]
fn real_fiber_and_deque_trees_are_clean() {
    let findings = lint_paths(&real_tree(), RuleSet::all()).unwrap();
    assert!(
        findings.is_empty(),
        "uat-fiber/uat-deque sources must lint clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Lint a copy of the real tree whose `fiber/src/<file>` went through
/// `seed` (which must change it).
fn real_tree_seeded(file: &str, seed: impl Fn(&str) -> String) -> Vec<Finding> {
    fn walk(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push((path.clone(), std::fs::read_to_string(&path).unwrap()));
            }
        }
    }
    let mut files = Vec::new();
    for root in real_tree() {
        walk(&root, &mut files);
    }
    let target = real_tree()[0].join(file);
    let (_, src) = files.iter_mut().find(|(p, _)| *p == target).unwrap();
    let seeded = seed(src);
    assert_ne!(&seeded, src, "the seed did not apply to {file}");
    *src = seeded;
    let refs: Vec<(&Path, &str)> = files
        .iter()
        .map(|(p, s)| (p.as_path(), s.as_str()))
        .collect();
    lint_sources(&refs, RuleSet::all())
}

#[test]
fn rule_a_flags_the_one_worker_accessor_losing_inline_never() {
    // Both backends find their worker through `sched::current`, called
    // with a turbofish from the generic suspending functions.
    let findings = real_tree_seeded("sched.rs", |src| {
        src.replace(
            "#[inline(never)]\npub(crate) fn current<",
            "pub(crate) fn current<",
        )
    });
    let hit = findings
        .iter()
        .find(|f| f.rule == Rule::TlsHelperInlinable && f.message.contains("`current`"))
        .unwrap_or_else(|| panic!("missing tls-helper-inlinable for current(): {findings:#?}"));
    for caller in ["spawn_on", "join_all", "run_ctx", "run_fresh"] {
        assert!(hit.message.contains(caller), "{caller}: {hit}");
    }
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn rule_a_flags_a_generic_crossing_function_reading_the_tls() {
    let findings = real_tree_seeded("sched.rs", |src| {
        format!(
            "{src}\nfn park_cached<P: Place>(slot: *mut *mut Context, to: *mut Context) {{\n    \
             let w = CURRENT.with(Cell::get);\n    \
             // SAFETY: [I9] seeded.\n    unsafe {{ switch_to(slot, to) }};\n    \
             let _ = w;\n}}\n"
        )
    });
    assert!(
        findings.len() == 1
            && findings[0].rule == Rule::TlsInCrossingFn
            && findings[0].message.contains("`park_cached`")
            && findings[0].message.contains("(calls switch_to)"),
        "{findings:#?}"
    );
}

#[test]
fn rule_d_scans_the_generic_worker_loop_from_the_bootstrap() {
    // `mp_bootstrap` enters the loop both backends run: the loop is in
    // the fork window, and an allocation seeded into it is flagged.
    let findings = real_tree_seeded("sched.rs", |src| {
        src.replace(
            "    let mut idle = Idle::default();\n",
            "    let mut idle = Idle::default();\n    let _seed: Vec<u8> = Vec::new();\n",
        )
    });
    assert!(
        findings.len() == 1
            && findings[0].rule == Rule::ForkSafety
            && findings[0]
                .message
                .contains("`worker_loop` is called from `mp_bootstrap`"),
        "{findings:#?}"
    );
}

#[test]
fn seeded_fork_fixture_is_flagged_in_root_and_callee() {
    let findings = lint_paths(&[fixture("fork_unsafe_bootstrap.rs")], RuleSet::all()).unwrap();
    assert!(
        findings.iter().all(|f| f.rule == Rule::ForkSafety),
        "only rule D should fire on this fixture: {findings:#?}"
    );
    // The root body: format! + .lock() + Mutex (in the signature's span
    // the type does not appear; the banned `Mutex` ident is in the
    // parameter list, outside the body — so expect format! and .lock()).
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`mp_bootstrap_bad`") && f.message.contains("format!")),
        "missing format! finding in the bootstrap root: {findings:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`mp_bootstrap_bad`") && f.message.contains(".lock()")),
        "missing .lock() finding in the bootstrap root: {findings:#?}"
    );
    // The one-level callee's allocation is attributed to the window.
    assert!(
        findings.iter().any(|f| f
            .message
            .contains("`alloc_helper` is called from `mp_bootstrap_bad`")
            && f.message.contains("Vec::with_capacity")),
        "missing callee allocation finding: {findings:#?}"
    );
    // `after_the_window` is unreachable from a bootstrap root: quiet.
    assert!(
        !findings
            .iter()
            .any(|f| f.message.contains("after_the_window")),
        "vec! outside the window must not fire: {findings:#?}"
    );
}

#[test]
fn rule_selection_flags_are_honored() {
    let only_safety = RuleSet {
        tls: false,
        ordering: false,
        safety: true,
        fork_safety: false,
    };
    let findings = lint_paths(&[fixture("tls_across_switch.rs")], only_safety).unwrap();
    assert!(
        findings.is_empty(),
        "TLS rules disabled, fixture's SAFETY comment is tagged: {findings:#?}"
    );
}
