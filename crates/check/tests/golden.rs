//! Every clean scenario of the four protocol models explores to exactly
//! the states, transitions, interleavings and distinct final states
//! pinned here: a change to the explorer or to a model's steps that
//! alters what is explored changes a row.

use uat_check::join::{self, JoinMutation};
use uat_check::scenarios::{standard_suite, weak_suite};
use uat_check::slots::{self, SlotMutation};
use uat_check::termination::{self, ScanMutation};
use uat_check::{MemModel, Protocol};

/// (scenario, states, transitions, interleavings, finals)
type Row = (&'static str, u64, u64, u128, usize);

const SC: [Row; 18] = [
    ("sim/1v1-interleave", 93, 143, 484, 4),
    ("sim/last-entry", 25, 32, 10, 2),
    ("sim/two-thieves", 728, 1552, 65006, 3),
    ("sim/wraparound", 59, 86, 87, 3),
    ("sim/drain-race", 156, 248, 1790, 4),
    ("native/1v1", 360, 630, 2544828, 3),
    ("native/last-entry", 166, 282, 24474, 2),
    ("native/two-thieves", 655, 1497, 80819912, 3),
    ("native/push-race", 443, 769, 5149410, 4),
    ("native/wraparound", 360, 630, 2544828, 3),
    ("native/batch2", 442, 777, 19297560, 4),
    ("term/third-thread", 288, 523, 6978, 17),
    ("term/worker-tail", 306, 483, 4611, 13),
    ("join/one-child", 28, 40, 51, 2),
    ("join/two-children", 82, 131, 1217, 2),
    ("join/two-rounds", 109, 170, 2601, 3),
    ("slots/raid", 5207, 13576, 34356709577983927, 1),
    ("slots/spill-refill", 4950, 13028, 46695759305473892, 1),
];

const RA: [Row; 14] = [
    ("ra/1v1", 1801, 3033, 17584775, 123),
    ("ra/last-entry", 354, 618, 70714, 22),
    ("ra/two-thieves", 4457, 9059, 336797504, 271),
    ("ra/push-race", 1934, 3509, 37291762, 111),
    ("ra/wraparound", 1801, 3033, 17584775, 123),
    ("ra/drain", 6499, 10532, 6979052709, 441),
    ("ra/batch2", 2138, 3517, 164408354, 132),
    ("ra/term-third-thread", 318, 675, 39507, 23),
    ("ra/term-worker-tail", 362, 665, 41876, 19),
    ("ra/join-one-child", 32, 42, 56, 5),
    ("ra/join-two-children", 131, 183, 1378, 17),
    ("ra/join-two-rounds", 187, 252, 3136, 25),
    ("ra/slots-raid", 50763, 124608, 192786158855171999, 233),
    ("ra/slots-spill-refill", 34862, 87896, 58638068115082675, 98),
];

fn row<P: Protocol>(p: &P) -> Row {
    let r = p.explore();
    let finals = r.finals.len();
    (p.name(), r.states, r.transitions, r.interleavings, finals)
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
