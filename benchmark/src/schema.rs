//! The benchmark's definition as data: workloads, end-to-end metrics
//! and per-layer metrics. `BENCHMARK.json` at the repository root is
//! generated from these tables (`uat-benchmark definition`) and a test
//! keeps the two identical, so a metric cannot be printed under a name
//! or unit the definition does not carry.

use crate::stats::Better;
use std::collections::BTreeMap;
use uat_base::json::{Json, JsonError};

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadDef {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// The exact input, for the README and `results.json`.
    pub input: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "btc_fine.native",
        why: "2.1M empty tasks on the thread runtime: pure spawn+join+push/pop+stack pool, ~25 steals; exposes the 1-to-2 worker collapse",
        input: "Btc{depth:20, iter:1, work:0} (2 097 151 tasks) on NativeRunner, W=2",
    },
    WorkloadDef {
        name: "btc_fine.mp",
        why: "same tree on process-per-worker shared memory: ShmDeque, TTAS slot pool and shared Ctrl cells, the placement twin of the thread runtime",
        input: "Btc{depth:20, iter:1, work:0} (2 097 151 tasks) on MultiProcessRunner, W=2",
    },
    WorkloadDef {
        name: "btc_coarse.mp",
        why: "131K tasks of 20K spun cycles each: over 75% of time is Work, so a spawn- or steal-path change must leave it unchanged (the bypass workload)",
        input: "Btc{depth:16, iter:1, work:20_000} (131 071 tasks) on MultiProcessRunner, W=2",
    },
    WorkloadDef {
        name: "chain.native",
        why: "256K serial spawn/join rounds of a 5K-cycle leaf: every round is a steal, a join-park and a cross-worker resume; adversarial to eager stealing",
        input: "SegChain{segments:64, rounds:4000, frame:3055, leaf_work:5_000} (256 065 tasks) on NativeRunner, W=2",
    },
    WorkloadDef {
        name: "chain.mp",
        why: "the same ping-pong across processes: cross-process steal and resume plus the spin-64-then-sleep(20us) idle loop",
        input: "SegChain{segments:64, rounds:4000, frame:3055, leaf_work:5_000} on MultiProcessRunner, W=2",
    },
    WorkloadDef {
        name: "sim.uts60",
        why: "simulator, 60 workers, UTS depth 11: work-dominated with real steal traffic; loads the engine, fabric, SimDeque and SHA-1 expansion",
        input: "Engine::new(SimConfig::fx10(4).with_seed(seed), Uts::geometric(11)), ~4.9M events",
    },
    WorkloadDef {
        name: "sim.btc120",
        why: "simulator, 120 workers, 2.1M empty tasks: creation-dominated; loads the uni-address manager and the event heap where sim.uts60 loads work and steals",
        input: "Engine::new(SimConfig::fx10(8).with_seed(seed), Btc::new(20,1)), ~4.2M events",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "tasks per second of the run window, median over the timed repetitions; real backends: host seconds (stats.wall at W=2 workers); simulator: simulated seconds (makespan / clock_hz), exact per seed",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        what: "max of the process's VmHWM and ru_maxrss of its reaped worker processes",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "one set-up (sequential_profile ground truth; on the real backends also probe_support and a warm-up run), median of at least five set-ups per run",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric on which workload this should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher as Hi, Lower as Lo};

const FINE_N: &str = "tasks_per_s on btc_fine.native";
const FINE_M: &str = "tasks_per_s on btc_fine.mp";
const FINE: &str = "tasks_per_s on btc_fine.*";
const CHAIN_N: &str = "tasks_per_s on chain.native";
const CHAIN_M: &str = "tasks_per_s on chain.mp";
const SIM: &str = "cluster.engine.host_tasks_per_s on sim.*";
const UTS: &str = "cluster.engine.host_tasks_per_s on sim.uts60";
const BTC120: &str = "cluster.engine.host_tasks_per_s on sim.btc120";
const MAKESPAN: &str = "tasks_per_s (simulated) on sim.*";
const NONE: &str = "on no hot path today (baseline for ROADMAP item 4)";
const HOOKS: &str =
    "decides ROADMAP item 2(d); tasks_per_s on btc_fine.native if hooks go always-on";

/// Every per-layer metric, layer = crate/module name. A traced run
/// prints all of them; a workload that does not load a layer reports 0
/// for it (see README "Reading the per-layer numbers").
pub const PER_LAYER: &[PerLayer] = &[
    // uat-fiber
    pl("fiber.creation.uniaddr_cycles", "cycles", Lo, FINE),
    pl("fiber.creation.stack_pool_cycles", "cycles", Lo, FINE_N),
    pl(
        "fiber.creation.seq_call_cycles",
        "cycles",
        Lo,
        "reference only (Table 2)",
    ),
    pl("fiber.stack.pool_take_put_ns", "ns", Lo, FINE_N),
    pl(
        "fiber.stack.new_ns",
        "ns",
        Lo,
        "setup_s; tasks_per_s on btc_fine.native while pools fill",
    ),
    pl("fiber.runtime.spawn_join_ns", "ns", Lo, FINE_N),
    pl("fiber.runtime.spawn_join_w2_ns", "ns", Lo, FINE_N),
    pl(
        "fiber.runtime.tasks_per_s_w1",
        "1/s",
        Hi,
        "work overhead T1 of the workload's own program on the thread runtime",
    ),
    pl(
        "fiber.runtime.scaling_eff",
        "ratio",
        Hi,
        "tasks_per_s / (W x tasks_per_s_w1) on *.native",
    ),
    pl(
        "fiber.runtime.startup_ms",
        "ms",
        Lo,
        "setup_s; tasks_per_s on short runs",
    ),
    pl("fiber.runtime.steals", "count", Lo, CHAIN_N),
    pl("fiber.runtime.steals_failed", "count", Lo, CHAIN_N),
    pl("fiber.runtime.steal_success_ratio", "ratio", Hi, CHAIN_N),
    pl("fiber.runtime.parks", "count", Lo, CHAIN_N),
    pl("fiber.runtime.unparks", "count", Lo, CHAIN_N),
    pl("fiber.runtime.handoff_us", "us", Lo, CHAIN_N),
    pl("fiber.runtime.steals_per_round", "ratio", Lo, CHAIN_N),
    pl("fiber.mpruntime.spawn_join_ns", "ns", Lo, FINE_M),
    pl("fiber.mpruntime.spawn_join_w2_ns", "ns", Lo, FINE_M),
    pl(
        "fiber.mpruntime.tasks_per_s_w1",
        "1/s",
        Hi,
        "work overhead T1 of the workload's own program on the multiprocess runtime",
    ),
    pl(
        "fiber.mpruntime.scaling_eff",
        "ratio",
        Hi,
        "tasks_per_s / (W x tasks_per_s_w1) on *.mp",
    ),
    pl(
        "fiber.mpruntime.startup_ms",
        "ms",
        Lo,
        "setup_s; tasks_per_s on short runs",
    ),
    pl("fiber.mpruntime.steals", "count", Lo, CHAIN_M),
    pl("fiber.mpruntime.steals_failed", "count", Lo, CHAIN_M),
    pl("fiber.mpruntime.steal_success_ratio", "ratio", Hi, CHAIN_M),
    pl("fiber.mpruntime.parks", "count", Lo, CHAIN_M),
    pl("fiber.mpruntime.unparks", "count", Lo, CHAIN_M),
    pl("fiber.mpruntime.handoff_us", "us", Lo, CHAIN_M),
    pl("fiber.mpruntime.steals_per_round", "ratio", Lo, CHAIN_M),
    pl(
        "fiber.tsc.spin_error_pct",
        "%",
        Lo,
        "tasks_per_s on btc_coarse.mp",
    ),
    pl("fiber.ntrace.overhead_pct", "%", Lo, HOOKS),
    pl("fiber.nmetrics.overhead_pct", "%", Lo, HOOKS),
    pl("fiber.ntrace.share.work", "ratio", Hi, FINE_N),
    pl("fiber.ntrace.share.spawn", "ratio", Lo, FINE_N),
    pl("fiber.ntrace.share.steal", "ratio", Lo, CHAIN_N),
    pl("fiber.ntrace.share.idle", "ratio", Lo, CHAIN_N),
    // uat-deque
    pl("deque.native.push_pop_ns", "ns", Lo, FINE_N),
    pl("deque.native.steal_ns", "ns", Lo, CHAIN_N),
    pl("deque.native.steal_contended_ns", "ns", Lo, CHAIN_N),
    pl("deque.native.steal_check_ns", "ns", Lo, CHAIN_N),
    pl("deque.native.steal_lock_ns", "ns", Lo, CHAIN_N),
    pl("deque.native.steal_entry_ns", "ns", Lo, CHAIN_N),
    pl("deque.shm.push_pop_ns", "ns", Lo, FINE_M),
    pl("deque.shm.steal_ns", "ns", Lo, CHAIN_M),
    pl("deque.shm.steal_contended_ns", "ns", Lo, CHAIN_M),
    pl("deque.sim.steal_attempts", "count", Lo, MAKESPAN),
    pl("deque.sim.steals_completed", "count", Lo, MAKESPAN),
    pl("deque.sim.steal_success_ratio", "ratio", Hi, MAKESPAN),
    // uat-rdma
    pl("rdma.shm.read8_ns", "ns", Lo, NONE),
    pl("rdma.shm.write8_ns", "ns", Lo, NONE),
    pl("rdma.shm.faa_ns", "ns", Lo, NONE),
    pl("rdma.shm.read4k_ns", "ns", Lo, NONE),
    pl("rdma.fabric.read_u64_ns", "ns", Lo, SIM),
    pl("rdma.fabric.write_u64_ns", "ns", Lo, SIM),
    pl("rdma.fabric.faa_ns", "ns", Lo, SIM),
    pl("rdma.fabric.reads", "count", Lo, MAKESPAN),
    pl("rdma.fabric.writes", "count", Lo, MAKESPAN),
    pl("rdma.fabric.faas", "count", Lo, MAKESPAN),
    pl("rdma.fabric.read_bytes", "B", Lo, MAKESPAN),
    pl("rdma.fabric.write_bytes", "B", Lo, MAKESPAN),
    pl("rdma.fabric.faa_queue_cycles", "cycles", Lo, MAKESPAN),
    // uat-cluster
    pl(
        "cluster.engine.makespan_cycles",
        "cycles",
        Lo,
        "the simulated result itself (exact per seed)",
    ),
    pl(
        "cluster.engine.peak_stack_bytes",
        "B",
        Lo,
        "Table 4, the <144 KiB claim (exact per seed)",
    ),
    pl(
        "cluster.engine.host_tasks_per_s",
        "1/s",
        Hi,
        "the engine's host speed (not gated: memory-bound, +-30% on this host)",
    ),
    pl("cluster.engine.events", "count", Lo, SIM),
    pl("cluster.engine.ns_per_event", "ns", Lo, SIM),
    pl("cluster.engine.events_per_task", "ratio", Lo, SIM),
    pl(
        "cluster.engine.trace_overhead_pct",
        "%",
        Lo,
        "cost of Engine::run_traced over Engine::run",
    ),
    pl("cluster.event_heap.push_pop_ns_60w", "ns", Lo, UTS),
    pl("cluster.event_heap.push_pop_ns_960w", "ns", Lo, BTC120),
    pl("cluster.engine.steal_cycles.empty", "cycles", Lo, MAKESPAN),
    pl("cluster.engine.steal_cycles.lock", "cycles", Lo, MAKESPAN),
    pl("cluster.engine.steal_cycles.entry", "cycles", Lo, MAKESPAN),
    pl(
        "cluster.engine.steal_cycles.transfer",
        "cycles",
        Lo,
        MAKESPAN,
    ),
    pl("cluster.engine.steal_cycles.unlock", "cycles", Lo, MAKESPAN),
    pl("cluster.engine.steal_cycles.total", "cycles", Lo, MAKESPAN),
    pl("cluster.engine.share.work", "ratio", Hi, MAKESPAN),
    pl("cluster.engine.share.spawn", "ratio", Lo, MAKESPAN),
    pl("cluster.engine.share.suspend_resume", "ratio", Lo, MAKESPAN),
    pl("cluster.engine.share.steal", "ratio", Lo, MAKESPAN),
    pl("cluster.engine.share.idle", "ratio", Lo, MAKESPAN),
    pl(
        "cluster.engine.critical_path.total_cycles",
        "cycles",
        Lo,
        MAKESPAN,
    ),
    pl(
        "cluster.engine.critical_path.work_share",
        "ratio",
        Hi,
        MAKESPAN,
    ),
    pl(
        "cluster.engine.critical_path.steal_share",
        "ratio",
        Lo,
        MAKESPAN,
    ),
    pl(
        "cluster.engine.critical_path.steal_edges",
        "count",
        Lo,
        MAKESPAN,
    ),
    pl(
        "cluster.engine.critical_path.join_edges",
        "count",
        Lo,
        MAKESPAN,
    ),
    // uat-core / uat-vmem
    pl("core.uni.spawn_complete_ns", "ns", Lo, BTC120),
    pl("core.uni.suspend_resume_ns", "ns", Lo, UTS),
    pl(
        "vmem.page_faults",
        "count",
        Lo,
        "cluster.engine.peak_stack_bytes on sim.*",
    ),
    pl("vmem.committed_bytes", "B", Lo, "peak_rss_mb on sim.*"),
    pl(
        "vmem.reserved_va_per_worker",
        "B",
        Lo,
        "the O(1) virtual-memory claim",
    ),
    pl(
        "vmem.pinned_per_worker",
        "B",
        Lo,
        "the O(1) pinned-memory claim",
    ),
    pl("vmem.alloc.alloc_free_ns", "ns", Lo, BTC120),
    // uat-model / uat-workloads
    pl(
        "model.profile_ns_per_task.btc",
        "ns",
        Lo,
        "tasks_per_s on btc_fine.*; setup_s on btc_* and sim.btc120",
    ),
    pl(
        "model.profile_ns_per_task.uts",
        "ns",
        Lo,
        "setup_s on sim.uts60",
    ),
    pl("workloads.sha1_ns", "ns", Lo, UTS),
    // uat-trace / uat-metrics
    pl("trace.ring.push_ns", "ns", Lo, HOOKS),
    pl("metrics.counter.inc_ns", "ns", Lo, HOOKS),
    pl("metrics.hist.record_ns", "ns", Lo, HOOKS),
    pl("metrics.flight_ring.push_ns", "ns", Lo, HOOKS),
];

/// The three definition tables as JSON. With `explain`, each entry also
/// carries the field `BENCHMARK.json` has no key for (`input`, `what`,
/// `moves`); `results.json` records that form.
pub fn tables(explain: bool) -> [(&'static str, Json); 3] {
    fn entry(mut fields: Vec<(&'static str, Json)>, extra: Option<(&'static str, &str)>) -> Json {
        fields.extend(extra.map(|(k, v)| (k, Json::str(v))));
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ]
    };
    let workloads = WORKLOADS.iter().map(|w| {
        let fields = vec![("name", Json::str(w.name)), ("why", Json::str(w.why))];
        entry(fields, explain.then_some(("input", w.input)))
    });
    let end_to_end = END_TO_END.iter().map(|m| {
        let mut fields = metric(m.name, m.unit, m.better);
        fields.push(("bound", Json::Num(m.bound)));
        entry(fields, explain.then_some(("what", m.what)))
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        entry(
            metric(m.name, m.unit, m.better),
            explain.then_some(("moves", m.moves)),
        )
    });
    [
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ]
}

/// The exact `BENCHMARK.json` document (the driver's contract: exactly
/// these six keys).
pub fn definition() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let mut doc = vec![
        (
            "command".to_string(),
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths".to_string(), Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds".to_string(), Json::UInt(RUN_SECONDS)),
    ];
    doc.extend(tables(false).map(|(k, v)| (k.to_string(), v)));
    Json::Obj(doc)
}

/// A name → number map as a JSON object (run details, exact counts).
pub fn numbers_json(values: &BTreeMap<String, f64>) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

/// What one driver run prints as its last line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in definition order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// Lay `values` out as every end-to-end metric (`traced == false`) or
    /// every per-layer metric (`traced == true`), in definition order.
    /// A per-layer metric the workload did not measure is 0; a missing
    /// end-to-end metric is a bug.
    pub fn from_values(
        traced: bool,
        attempted: u64,
        failed: u64,
        values: &BTreeMap<String, f64>,
    ) -> RunResult {
        let metrics = if traced {
            PER_LAYER
                .iter()
                .map(|m| {
                    let v = values.get(m.name).copied().unwrap_or(0.0);
                    (m.name.to_string(), v, m.unit.to_string())
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = *values
                        .get(m.name)
                        .unwrap_or_else(|| panic!("end-to-end metric {} not measured", m.name));
                    (m.name.to_string(), v, m.unit.to_string())
                })
                .collect()
        };
        RunResult {
            correct: failed == 0 && attempted >= 1,
            attempted,
            failed,
            metrics,
        }
    }

    /// `{name: {"value": v, "unit": u}, …}` in definition order.
    pub fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(unit.as_str())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", self.metrics_json()),
        ])
    }

    pub fn from_json(v: &Json) -> Result<RunResult, JsonError> {
        let metrics = match v.field("metrics")? {
            Json::Obj(members) => members
                .iter()
                .map(|(name, m)| {
                    Ok((
                        name.clone(),
                        m.field("value")?.as_f64()?,
                        m.field("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect::<Result<Vec<_>, JsonError>>()?,
            other => {
                return Err(JsonError {
                    msg: format!("metrics must be an object, got {other}"),
                })
            }
        };
        Ok(RunResult {
            correct: v.field("correct")?.as_bool()?,
            attempted: v.field("attempted")?.as_u64()?,
            failed: v.field("failed")?.as_u64()?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn value(r: &RunResult, name: &str) -> Option<f64> {
        r.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn definition_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(
                name_ok(m.name) && unit_ok(m.unit),
                "{} [{}]",
                m.name,
                m.unit
            );
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let max = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, max, "setup_s takes the largest bound");
        assert!(definition().to_string().len() <= 64 << 10);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        // Not assert_eq!: a mismatch would dump both 12 KB documents.
        assert!(
            committed == Json::parse(&definition().to_string()).unwrap(),
            "BENCHMARK.json is stale: regenerate with `uat-benchmark definition > BENCHMARK.json`"
        );
        match &committed {
            Json::Obj(members) => {
                let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(
                    keys,
                    [
                        "command",
                        "paths",
                        "run_seconds",
                        "workloads",
                        "end_to_end",
                        "per_layer"
                    ]
                );
            }
            other => panic!("not an object: {other}"),
        }
    }

    #[test]
    fn result_line_round_trips_and_has_exactly_the_contract_keys() {
        let mut values = BTreeMap::new();
        values.insert("tasks_per_s".to_string(), 1234567.891);
        values.insert("peak_rss_mb".to_string(), 42.5);
        values.insert("setup_s".to_string(), 0.8127);
        let r = RunResult::from_values(false, 7, 0, &values);
        assert!(r.correct);
        let line = r.to_json().to_string();
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        match &back {
            Json::Obj(m) => {
                let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
            _ => unreachable!(),
        }
        assert_eq!(RunResult::from_json(&back).unwrap(), r);
        assert_eq!(value(&r, "setup_s"), Some(0.8127));
        let names: Vec<&str> = r.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let expect: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expect);
    }

    #[test]
    fn traced_result_carries_every_per_layer_metric_and_failures_are_incorrect() {
        let mut values = BTreeMap::new();
        values.insert("deque.native.push_pop_ns".to_string(), 9.5);
        let r = RunResult::from_values(true, 3, 1, &values);
        assert!(!r.correct);
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert_eq!(value(&r, "deque.native.push_pop_ns"), Some(9.5));
        assert_eq!(value(&r, "deque.shm.push_pop_ns"), Some(0.0));
    }
}
