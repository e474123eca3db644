//! Every clean scenario's exploration counts: `golden.rs` checks each
//! row live, so the other tests can read them instead of exploring.

use uat_check::Protocol;

/// (scenario, states, transitions, interleavings, finals)
pub type Row = (&'static str, u64, u64, u128, usize);

pub const SC: [Row; 18] = [
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

pub const RA: [Row; 14] = [
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

/// Release/acquire lets loads read stale values, so each scenario of
/// `sc` has fewer pinned interleavings than its twin in `ra`.
#[allow(dead_code)] // `golden.rs` checks the rows themselves
pub fn assert_ra_explores_more(sc: &[impl Protocol], ra: &[impl Protocol]) {
    let interleavings = |name: &str| {
        let mut rows = SC.iter().chain(&RA);
        rows.find(|r| r.0 == name).expect(name).3
    };
    assert_eq!(sc.len(), ra.len());
    for (sc, ra) in sc.iter().zip(ra) {
        assert!(interleavings(ra.name()) > interleavings(sc.name()));
    }
}
