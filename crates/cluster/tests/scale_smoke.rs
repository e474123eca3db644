//! Release-mode smoke: a mid-size machine finishes quickly and scales.

use uat_cluster::{Engine, SimConfig};
use uat_workloads::Btc;

#[test]
fn btc_scales_to_120_workers() {
    let base = SimConfig::fx10(8); // 8 nodes x 15 = 120 workers
    let s = Engine::new(base, Btc::new(16, 1)).run();
    assert_eq!(s.total_tasks, Btc::new(16, 1).expected_tasks());
    assert!(s.steals_completed > 100);
    eprintln!(
        "120w BTC(16): tasks={} time={:.4}s thr={:.2e}/s events={} cpt={:.0}",
        s.total_tasks,
        s.seconds(),
        s.throughput(),
        s.events,
        s.cycles_per_task()
    );
}

#[test]
#[ignore] // calibration probe; run explicitly
fn btc_480_workers_probe() {
    let mut base = SimConfig::fx10(32); // 480 workers
    base.core.uni_region_size = 256 << 10;
    base.core.rdma_heap_size = 512 << 10;
    base.core.deque_capacity = 1024;
    let s = Engine::new(base, Btc::new(22, 1)).run();
    eprintln!(
        "480w BTC(22): tasks={} time={:.4}s thr={:.3e}/s events={} cpt={:.0} eff_vs_ideal={:.3}",
        s.total_tasks,
        s.seconds(),
        s.throughput(),
        s.events,
        s.cycles_per_task(),
        413.0 / s.cycles_per_task(),
    );
}

#[test]
#[ignore] // calibration probe
fn btc_relative_efficiency_probe() {
    let mut pts = Vec::new();
    for nodes in [32u32, 64, 128] {
        let mut base = SimConfig::fx10(nodes);
        base.core.uni_region_size = 256 << 10;
        base.core.rdma_heap_size = 512 << 10;
        base.core.deque_capacity = 1024;
        let s = Engine::new(base, Btc::new(23, 1)).run();
        eprintln!(
            "{}w: time={:.4}s cpt={:.0} steals={} events={}",
            s.workers,
            s.seconds(),
            s.cycles_per_task(),
            s.steals_completed,
            s.events
        );
        pts.push(s);
    }
    for p in &pts[1..] {
        eprintln!(
            "eff({} vs {}) = {:.3}",
            p.workers,
            pts[0].workers,
            p.efficiency_vs(&pts[0])
        );
    }
}
