//! Every clean scenario of the four protocol models keeps every
//! invariant, is not vacuous, and explores to exactly the states,
//! transitions, interleavings and distinct final states pinned in
//! `pinned.rs`: a change to the explorer or to a model's steps that
//! alters what is explored changes a row.

use uat_check::join::{self, JoinMutation};
use uat_check::scenarios::{standard_suite, weak_suite};
use uat_check::slots::{self, SlotMutation};
use uat_check::termination::{self, ScanMutation};
use uat_check::{MemModel, Protocol};

use crate::pinned::{Row, RA, SC};

/// One clean scenario's counts, once it has kept every invariant and
/// explored something (a vacuous run would pin nothing).
fn row<P: Protocol>(p: &P) -> Row {
    let r = p.explore();
    let name = p.name();
    if let Some(v) = &r.violation {
        panic!("{name}: {v}");
    }
    assert!(r.states > 0 && r.interleavings > 0, "{name}: empty");
    assert_eq!(p.vacuous(&r.tally), None, "{name}");
    (
        name,
        r.states,
        r.transitions,
        r.interleavings,
        r.finals.len(),
    )
}

/// The clean suite under `model`, in `uat_check`'s order.
fn rows(model: MemModel) -> Vec<Row> {
    let deque = match model {
        MemModel::Sc => standard_suite(),
        MemModel::Ra => weak_suite(),
    };
    deque
        .iter()
        .map(row)
        .chain(
            termination::suite(model, ScanMutation::None)
                .iter()
                .map(row),
        )
        .chain(join::suite(model, JoinMutation::None).iter().map(row))
        .chain(slots::suite(model, SlotMutation::None).iter().map(row))
        .collect()
}

#[test]
fn sc_counts_are_pinned() {
    assert_eq!(rows(MemModel::Sc), SC);
}

#[test]
fn ra_counts_are_pinned() {
    assert_eq!(rows(MemModel::Ra), RA);
}
