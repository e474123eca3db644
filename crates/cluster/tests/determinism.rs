//! Determinism guarantees of the engine and the run harness.
//!
//! Two layers:
//!
//! 1. **Golden snapshots** — six pinned `(config, workload)` cases whose
//!    full counter set must never drift. Any change to event ordering,
//!    cost accounting, or RNG consumption shows up here as an exact-value
//!    failure. These were captured from the seed engine (global
//!    `BinaryHeap` scheduler) and must survive every scheduler and
//!    hot-path rewrite bit for bit. The four small ones are also run
//!    [`audited`](Engine::audited), to the same values. Two of them are
//!    also pinned traced: each worker's ring, drops and time account,
//!    and a fingerprint of the exported trace.
//! 2. **Harness independence** — the parallel sweep harness must produce
//!    results bit-identical to the serial loop at *any* thread count:
//!    every run is seeded deterministically from its own parameters, so
//!    execution order across runs cannot matter.

use uat_base::json::ToJson;
use uat_base::Topology;
use uat_cluster::{sweep_with_threads, Engine, RunStats, SimConfig};
use uat_core::SchemeKind;
use uat_model::Workload;
use uat_trace::{chrome_trace_json, Bucket};
use uat_workloads::{Btc, Chain, NQueens, Uts};

/// The counters a golden pins: every scheduler-visible effect of a run.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    makespan: u64,
    events: u64,
    tasks: u64,
    steals: u64,
    attempts: u64,
    faults: u64,
    reads: u64,
    writes: u64,
    faas: u64,
}

fn golden(s: &RunStats) -> Golden {
    Golden {
        makespan: s.makespan.get(),
        events: s.events,
        tasks: s.total_tasks,
        steals: s.steals_completed,
        attempts: s.steal_attempts,
        faults: s.page_faults,
        reads: s.fabric.reads,
        writes: s.fabric.writes,
        faas: s.fabric.faas,
    }
}

/// Pin one golden: the engine `$engine` builds must reproduce `$want`
/// both plain and [`audited`](Engine::audited) (the auditor is
/// read-only).
macro_rules! pin {
    ($name:ident, $engine:expr, $want:expr) => {
        #[test]
        fn $name() {
            assert_eq!(golden(&$engine.run()), $want, "golden snapshot drifted");
            assert_eq!(
                golden(&$engine.audited().run()),
                $want,
                "the auditor changed the run"
            );
        }
    };
}

pin!(
    golden_btc10_uni_4w,
    Engine::new(SimConfig::tiny(4).with_seed(42), Btc::new(10, 1)),
    Golden {
        makespan: 465_759,
        events: 4512,
        tasks: 2047,
        steals: 16,
        attempts: 87,
        faults: 0,
        reads: 138,
        writes: 35,
        faas: 29,
    }
);

/// This golden and `golden_uts9_fx10_2n` run plain: a full-machine
/// audit after each of their millions of events is O(workers x events).
#[test]
fn golden_btc10_iso_8w() {
    let cfg = SimConfig::tiny(8).with_scheme(SchemeKind::Iso).with_seed(4);
    let s = Engine::new(cfg, Btc::new(10, 2)).run();
    let want = Golden {
        makespan: 104_134_145,
        events: 2_895_579,
        tasks: 1_398_101,
        steals: 4279,
        attempts: 11_917,
        faults: 930,
        reads: 20_795,
        writes: 8878,
        faas: 6677,
    };
    assert_eq!(golden(&s), want, "golden snapshot drifted");
}

pin!(
    golden_btc14_fx10_4n,
    Engine::new(SimConfig::fx10(4), Btc::new(14, 1)),
    Golden {
        makespan: 1_019_346,
        events: 74_533,
        tasks: 32_767,
        steals: 225,
        attempts: 2857,
        faults: 0,
        reads: 3548,
        writes: 466,
        faas: 466,
    }
);

#[test]
fn golden_uts9_fx10_2n() {
    let s = Engine::new(SimConfig::fx10(2), Uts::geometric(9)).run();
    let want = Golden {
        makespan: 12_928_036,
        events: 497_678,
        tasks: 200_315,
        steals: 574,
        attempts: 3862,
        faults: 0,
        reads: 5600,
        writes: 1164,
        faas: 793,
    };
    assert_eq!(golden(&s), want, "golden snapshot drifted");
}

pin!(
    golden_nqueens8_uni_15w,
    Engine::new(SimConfig::tiny(15).with_seed(7), NQueens::new(8)),
    Golden {
        makespan: 5_895_554,
        events: 13_690,
        tasks: 3527,
        steals: 227,
        attempts: 1326,
        faults: 0,
        reads: 2011,
        writes: 458,
        faas: 324,
    }
);

pin!(
    golden_chain200_2n,
    {
        let mut cfg = SimConfig::fx10(2);
        cfg.topo = Topology::new(2, 1);
        Engine::new(cfg, Chain::fig10(200))
    },
    Golden {
        makespan: 24_415_500,
        events: 8602,
        tasks: 201,
        steals: 200,
        attempts: 3401,
        faults: 0,
        reads: 4001,
        writes: 400,
        faas: 200,
    }
);

/// Run `engine` traced. Per worker: the events its ring holds, the
/// events it dropped, and its account's cycles in [`Bucket::ALL`] order.
/// Then an FNV-1a hash of the Chrome export.
fn traced<W: Workload>(engine: Engine<W>) -> (Vec<String>, u64) {
    let (stats, data) = engine.with_tracing(1 << 16).run_traced();
    let rows = data.workers.iter().zip(&stats.per_worker);
    let rows = rows.map(|(ring, w)| {
        assert_eq!(ring.dropped(), w.dropped);
        let account = Bucket::ALL.map(|b| w.account.get(b).get());
        format!("{} {} {account:?}", ring.len(), w.dropped)
    });
    let fnv = chrome_trace_json(&data)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    (rows.collect(), fnv)
}

/// The traced twin of `golden_btc10_uni_4w`, whose steals queue at the
/// comm server: FAA-queue carries are charged.
#[test]
fn traced_golden_btc10_uni_4w() {
    let got = traced(Engine::new(
        SimConfig::tiny(4).with_seed(42),
        Btc::new(10, 1),
    ));
    let want = [
        "5525 0 [0, 325806, 2825, 50340, 39200, 16839, 6510, 4962, 1332, 17945]",
        "2072 0 [0, 108164, 76985, 83793, 107800, 38043, 16275, 9924, 0, 24775]",
        "4226 0 [0, 244161, 7405, 46244, 49000, 21204, 9765, 4962, 828, 82190]",
        "3362 0 [0, 189809, 21120, 48681, 88200, 45111, 19530, 11578, 0, 41730]",
    ];
    assert_eq!(
        got,
        (want.map(String::from).to_vec(), 7_187_222_464_707_860_351)
    );
}

/// The traced twin of `golden_chain200_2n`, whose every join parks:
/// suspend carries are charged.
#[test]
fn traced_golden_chain200_2n() {
    let mut cfg = SimConfig::fx10(2);
    cfg.topo = Topology::new(2, 1);
    let got = traced(Engine::new(cfg, Chain::fig10(200)));
    let want = [
        "10903 0 [12000000, 29975, 142525, 8343600, 980000, 1282800, 642700, 300400, 0, 693500]",
        "10902 0 [12000000, 30000, 142500, 8345505, 980000, 1282800, 642700, 300400, 0, 691595]",
    ];
    assert_eq!(
        got,
        (want.map(String::from).to_vec(), 186_311_435_992_887_361)
    );
}

/// Two identical invocations of the engine are bit-identical: nothing in
/// the process (allocator addresses, globals) leaks into the simulation.
/// Both are audited (an audited run's flight rings report their own
/// `dropped` counts, so it is compared with another audited run).
#[test]
fn rerun_in_same_process_is_identical() {
    let run = || {
        Engine::new(SimConfig::tiny(4).with_seed(42), Btc::new(10, 1))
            .audited()
            .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.to_json().to_string(), b.to_json().to_string());
}

/// The parallel harness must be a pure scheduling change: for every
/// thread count the per-point results are bit-identical to the serial
/// loop (compared via full serialized stats, not just the headline
/// numbers).
#[test]
fn sweep_is_bit_identical_at_any_thread_count() {
    let mut base = SimConfig::fx10(2);
    base.core.uni_region_size = 192 << 10;
    base.core.rdma_heap_size = 768 << 10;
    base.core.deque_capacity = 1024;
    base.core.iso_stacks_per_worker = 128;
    let nodes = [2u32, 4, 8];
    let serial = sweep_with_threads(&base, &nodes, 1, || Btc::new(12, 1));
    for threads in [2usize, 3, 8] {
        let parallel = sweep_with_threads(&base, &nodes, threads, || Btc::new(12, 1));
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.workers, b.workers);
            assert_eq!(a.efficiency, b.efficiency);
            assert_eq!(
                a.stats.to_json().to_string(),
                b.stats.to_json().to_string(),
                "sweep point workers={} diverged at {threads} harness threads",
                a.workers
            );
        }
    }
}
