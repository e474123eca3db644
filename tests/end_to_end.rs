//! End-to-end integration: workloads → engine → core → deque → rdma →
//! vmem, all through the public facade.

use uni_address_threads::cluster::{Engine, SimConfig};
use uni_address_threads::core::SchemeKind;
use uni_address_threads::model::sequential_profile;
use uni_address_threads::workloads::{Btc, Chain, Fib, NQueens, Uts};

fn verified(workers: u32) -> SimConfig {
    let mut cfg = SimConfig::tiny(workers);
    cfg.core.verify_stack_bytes = true;
    cfg.core.iso_stacks_per_worker = 512;
    cfg.max_events = 100_000_000;
    cfg
}

#[test]
fn btc_exact_task_count_across_machine_sizes() {
    let w = Btc::new(10, 1);
    for workers in [1u32, 2, 7, 16] {
        let stats = Engine::new(verified(workers), w.clone()).run();
        assert_eq!(stats.total_tasks, w.expected_tasks(), "workers={workers}");
    }
}

#[test]
fn btc_iter2_parallelism_bursts() {
    let w = Btc::new(6, 2);
    let stats = Engine::new(verified(8), w.clone()).run();
    assert_eq!(stats.total_tasks, w.expected_tasks());
    assert!(stats.steals_completed > 0);
}

#[test]
fn uts_tree_shape_is_machine_independent() {
    // The tree the parallel machines traverse must be byte-identical to
    // the sequential one — that is the SHA-1 splittable-RNG property.
    let w = Uts::geometric(7);
    let seq = sequential_profile(&w);
    for workers in [1u32, 4, 12] {
        let stats = Engine::new(verified(workers), w.clone()).run();
        assert_eq!(stats.total_tasks, seq.tasks, "workers={workers}");
        assert_eq!(stats.total_units, seq.units);
        assert_eq!(stats.total_work_cycles, seq.work_cycles);
    }
}

#[test]
fn nqueens_counts_all_positions() {
    let w = NQueens::new(7);
    let seq = sequential_profile(&w);
    let stats = Engine::new(verified(6), w).run();
    assert_eq!(stats.total_units, seq.units);
}

#[test]
fn fib_matches_closed_form() {
    let w = Fib::new(16);
    let expected = w.expected_tasks();
    let stats = Engine::new(verified(4), w).run();
    assert_eq!(stats.total_tasks, expected);
}

#[test]
fn uni_and_iso_execute_identical_trees() {
    let w = Uts::geometric(6);
    let uni = Engine::new(verified(4).with_scheme(SchemeKind::Uni), w.clone()).run();
    let iso = Engine::new(verified(4).with_scheme(SchemeKind::Iso), w.clone()).run();
    assert_eq!(uni.total_tasks, iso.total_tasks);
    assert_eq!(uni.total_units, iso.total_units);
    // The schemes differ exactly where the paper says they do.
    assert_eq!(uni.page_faults, 0);
    assert!(iso.page_faults > 0);
    assert!(iso.reserved_va_per_worker > uni.reserved_va_per_worker);
}

#[test]
fn chain_ping_pong_is_steal_dominated() {
    let mut cfg = verified(2);
    cfg.topo = uni_address_threads::base::Topology::new(2, 1);
    let stats = Engine::new(cfg, Chain::fig10(100)).run();
    assert!(stats.steals_completed >= 80);
    // Every completed steal moved the 3,055-byte root.
    assert!(stats.fabric.read_bytes >= stats.steals_completed * 3_055);
}

#[test]
fn determinism_across_runs_and_schemes() {
    for scheme in [SchemeKind::Uni, SchemeKind::Iso] {
        let a = Engine::new(verified(6).with_scheme(scheme), Btc::new(9, 1)).run();
        let b = Engine::new(verified(6).with_scheme(scheme), Btc::new(9, 1)).run();
        assert_eq!(a.makespan, b.makespan, "{scheme:?}");
        assert_eq!(a.events, b.events);
        assert_eq!(a.steals_completed, b.steals_completed);
        assert_eq!(a.peak_stack_usage, b.peak_stack_usage);
    }
}

#[test]
fn stack_usage_scales_with_depth_not_machine() {
    // Table 4's property: the uni-address region usage tracks the task
    // tree depth, not the worker count.
    let d8 = Engine::new(verified(4), Btc::new(8, 1)).run();
    let d12 = Engine::new(verified(4), Btc::new(12, 1)).run();
    let d12_wide = Engine::new(verified(16), Btc::new(12, 1)).run();
    assert!(d12.peak_stack_usage > d8.peak_stack_usage);
    // Wider machines do not inflate the per-worker region usage.
    assert!(d12_wide.peak_stack_usage <= d12.peak_stack_usage + 2 * 1_120);
    // And everything respects the paper's 144 KiB bound.
    assert!(d12_wide.peak_stack_usage < 144 * 1024);
}

#[test]
fn steal_breakdown_phases_are_ordered_sanely() {
    use uni_address_threads::core::StealPhase;
    let mut cfg = verified(2);
    cfg.topo = uni_address_threads::base::Topology::new(2, 1);
    let stats = Engine::new(cfg, Chain::fig10(200)).run();
    let b = &stats.breakdown;
    // Lock (software FAA) is the most expensive protocol phase, as in
    // Figure 10.
    assert!(b.phase(StealPhase::Lock).mean >= 9_800.0 - 1.0);
    assert!(b.phase(StealPhase::Lock).mean > b.phase(StealPhase::EmptyCheck).mean);
    assert!(b.phase(StealPhase::Steal).mean > b.phase(StealPhase::Unlock).mean);
    // Stack transfer moves 3,055 bytes and beats the 8-byte unlock.
    assert!(b.phase(StealPhase::StackTransfer).mean > b.phase(StealPhase::Unlock).mean);
}

#[test]
fn work_cycles_conserved_under_iso() {
    let w = Btc {
        depth: 8,
        iter: 1,
        work: 777,
    };
    let seq = sequential_profile(&w);
    let stats = Engine::new(verified(5).with_scheme(SchemeKind::Iso), w).run();
    assert_eq!(stats.total_work_cycles, seq.work_cycles);
}
