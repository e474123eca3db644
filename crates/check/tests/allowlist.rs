//! The model, the code, and the lint share one ordering catalogue:
//! `uat_deque::layout::ORDERING_ALLOWLIST`. This test pins the model's
//! side of the contract — every ordering `OrdSpec::native()` assigns to
//! a control-word access must be listed in the allowlist for that
//! (field, operation). The lint (`uat-lint`, rule B) pins the code's
//! side by scanning `native.rs` against the same table; that file holds
//! the one protocol body both `NativeDeque` and the multiprocess
//! backend's `ShmDeque` run, so the model describes both.

use uat_check::{MemOrd, OrdSpec};
use uat_deque::layout::ORDERING_ALLOWLIST;

fn assert_allowed(field: &str, op: &str, ord: MemOrd) {
    let allowed = ORDERING_ALLOWLIST
        .iter()
        .find(|(f, o, _)| *f == field && *o == op)
        .unwrap_or_else(|| panic!("no allowlist entry for {field}.{op}"))
        .2;
    assert!(
        allowed.contains(&ord.name()),
        "{field}.{op} with {} is not in the allowlist {allowed:?}",
        ord.name()
    );
}

#[test]
fn native_ordspec_is_within_the_layout_allowlist() {
    let s = OrdSpec::native();
    // Owner push.
    assert_allowed("top", "load", s.push_read_top);
    assert_allowed("bottom", "store", s.push_publish);
    // Owner pop: advisory read, dip, re-read, restore, locked take.
    assert_allowed("top", "load", s.pop_read_top0);
    assert_allowed("bottom", "store", s.pop_dec_bottom);
    assert_allowed("top", "load", s.pop_reread_top);
    assert_allowed("bottom", "store", s.pop_restore_bottom);
    assert_allowed("top", "load", s.pop_locked_top);
    assert_allowed("bottom", "store", s.pop_take_bottom);
    // Lock hand-off.
    assert_allowed("lock", "compare_exchange", s.lock_cas);
    assert_allowed("lock", "store", s.unlock);
    // Thief: pre-check, locked re-reads, claim.
    assert_allowed("top", "load", s.pre_top);
    assert_allowed("bottom", "load", s.pre_bottom);
    assert_allowed("top", "load", s.locked_top);
    assert_allowed("bottom", "load", s.locked_bottom);
    assert_allowed("top", "store", s.claim_top);
    // (push_write_slot / slot_read address entries, not control words —
    // they are plain accesses in native.rs, ordered by the publication
    // edge, and have no allowlist row.)
}

/// The specific result of the push-publish audit (ISSUE 8 satellite):
/// the model runs `Release`, the weakest ordering the RA explorer proves
/// safe, and native.rs must agree — a SeqCst regression here would both
/// diverge from the proven spec and silently re-pessimize the hot path.
#[test]
fn push_publish_is_release_not_seqcst() {
    assert_eq!(OrdSpec::native().push_publish, MemOrd::Release);
}
