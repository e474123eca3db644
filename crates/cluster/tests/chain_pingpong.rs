//! The Figure 10 ping-pong workload on the sim engine, audited. (Moved out of
//! `uat-workloads`, which is backend-neutral and no longer depends on
//! the simulator.)

use uat_cluster::{Engine, SimConfig};
use uat_workloads::Chain;

#[test]
fn two_workers_ping_pong() {
    let mut cfg = SimConfig::tiny(2);
    cfg.core.verify_stack_bytes = true;
    let rounds = 200;
    let s = Engine::new(cfg, Chain::fig10(rounds)).audited().run();
    // Nearly every round steals the root once.
    assert!(
        s.steals_completed as f64 > 0.8 * rounds as f64,
        "only {} steals in {rounds} rounds",
        s.steals_completed
    );
    // The region never holds more than the root + one leaf.
    assert!(s.peak_stack_usage <= 3_055 + 256 + 64);
}
