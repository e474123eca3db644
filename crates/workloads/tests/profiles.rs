//! The serial ground truth of two paper-sized trees, pinned field by
//! field. Every run of the simulator and of both real runtimes is checked
//! against `sequential_profile`, so a change to how it walks the tree
//! must leave every field of its result as it is. The root package runs
//! this file too (`tests/workloads.rs`).

use uat_model::{sequential_profile, SeqProfile};
use uat_workloads::{Btc, Uts};

#[test]
fn btc20_profile_is_pinned() {
    assert_eq!(
        sequential_profile(&Btc::new(20, 1)),
        SeqProfile {
            tasks: 2_097_151,
            units: 2_097_151,
            work_cycles: 0,
            joins: 1_048_575,
            spawns: 2_097_150,
            frame_bytes_total: 2_348_809_120,
            peak_chain_frame_bytes: 23_520,
            join_fingerprint: 11_025_057_917_489_489_968,
        }
    );
}

#[test]
fn uts_geometric11_profile_is_pinned() {
    assert_eq!(
        sequential_profile(&Uts::geometric(11)),
        SeqProfile {
            tasks: 1_999_575,
            units: 837_555,
            work_cycles: 2_512_665_000,
            joins: 1_418_564,
            spawns: 1_999_574,
            frame_bytes_total: 5_572_123_320,
            peak_chain_frame_bytes: 90_344,
            join_fingerprint: 17_725_205_760_832_552_102,
        }
    );
}
