//! The engine's ablation knobs behave directionally as the paper argues.
//! Every run is audited, so each ablated protocol keeps the engine's
//! invariants too.

use uat_base::Topology;
use uat_cluster::{Engine, SimConfig};
use uat_core::StealPhase;
use uat_workloads::{Btc, Chain};

#[test]
fn crude_scheme_is_slower() {
    // Section 5.2: the crude swap-on-every-switch scheme pays two stack
    // copies per spawn; BTC (pure creation) shows it directly.
    let mk = |crude: bool| {
        let mut cfg = SimConfig::tiny(4);
        cfg.crude_switch = crude;
        Engine::new(cfg, Btc::new(12, 1)).audited().run()
    };
    let optimized = mk(false);
    let crude = mk(true);
    assert_eq!(optimized.total_tasks, crude.total_tasks);
    let slowdown = crude.makespan.get() as f64 / optimized.makespan.get() as f64;
    assert!(
        slowdown > 1.4,
        "crude should be much slower, got {slowdown:.2}x"
    );
}

#[test]
fn hardware_faa_shrinks_the_lock_phase() {
    let mk = |hw: bool| {
        let mut cfg = SimConfig::fx10(2);
        cfg.topo = Topology::new(2, 1);
        cfg.cost.hardware_faa = hw;
        Engine::new(cfg, Chain::fig10(300)).audited().run()
    };
    let sw = mk(false);
    let hw = mk(true);
    assert!(sw.breakdown.phase(StealPhase::Lock).mean >= 9_799.0);
    assert!(hw.breakdown.phase(StealPhase::Lock).mean <= 3_001.0);
    // The whole steal gets cheaper by the lock difference. (The chain's
    // *makespan* is leaf-work-bound, so it is not asserted here.)
    assert!(
        hw.breakdown.total_mean() + 6_000.0 < sw.breakdown.total_mean(),
        "hw {:.0} vs sw {:.0}",
        hw.breakdown.total_mean(),
        sw.breakdown.total_mean()
    );
    // No software comm server -> no queueing.
    assert_eq!(hw.fabric.faa_queue_cycles, 0);
}

#[test]
fn intra_node_steals_are_cheaper_than_inter_node() {
    // Same two workers, same workload; co-located vs across nodes.
    let mk = |topo: Topology| {
        let mut cfg = SimConfig::fx10(2);
        cfg.topo = topo;
        Engine::new(cfg, Chain::fig10(300)).audited().run()
    };
    let intra = mk(Topology::new(1, 2));
    let inter = mk(Topology::new(2, 1));
    let t_intra = intra.breakdown.phase(StealPhase::StackTransfer).mean;
    let t_inter = inter.breakdown.phase(StealPhase::StackTransfer).mean;
    assert!(
        t_intra < t_inter,
        "intra {t_intra:.0} should beat inter {t_inter:.0}"
    );
}

#[test]
fn xeon_profile_runs_faster_per_task() {
    use uat_base::CostModel;
    let mk = |cost: CostModel| {
        let mut cfg = SimConfig::tiny(1);
        cfg.cost = cost;
        Engine::new(cfg, Btc::new(12, 1)).audited().run()
    };
    let sparc = mk(CostModel::fx10());
    let xeon = mk(CostModel::xeon());
    // Table 2: 413 vs ~100 cycles of creation dominate BTC.
    assert!(
        sparc.cycles_per_task() > 2.0 * xeon.cycles_per_task(),
        "sparc {:.0} vs xeon {:.0}",
        sparc.cycles_per_task(),
        xeon.cycles_per_task()
    );
}
