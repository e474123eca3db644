//! Run-level metrics: what the paper's tables and figures are made of.

use serde::{Deserialize, Serialize};
use uat_base::json::{Json, ToJson};
use uat_base::Cycles;
use uat_core::{SchemeKind, StealBreakdown};
use uat_metrics::HistSummary;
use uat_rdma::FabricStats;
use uat_trace::{Bucket, CriticalPathSummary, TimeAccount};

/// One worker's row of a run: its counts and its time account. The
/// run's totals in [`RunStats`] are sums over these rows.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkerSummary {
    /// Worker id.
    pub worker: u32,
    /// Task activations on this worker: children it spawned and ran,
    /// plus continuations it stole and resumed.
    pub tasks_run: u64,
    /// Steal attempts this worker issued (including any still in flight
    /// when the root finished).
    pub steal_attempts: u64,
    /// Steal attempts that completed with a stolen thread resumed.
    pub steals_completed: u64,
    /// Events evicted from this worker's trace ring because it filled
    /// up (0 when no event sink was installed). A nonzero count means
    /// the exported trace is truncated — and the causal profiler will
    /// refuse to build a DAG from it.
    pub dropped: u64,
    /// Every simulated cycle of this worker, charged by bucket; totals
    /// the run's makespan exactly.
    pub account: TimeAccount,
}

impl ToJson for WorkerSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("worker", Json::UInt(self.worker as u64)),
            ("tasks_run", Json::UInt(self.tasks_run)),
            ("steal_attempts", Json::UInt(self.steal_attempts)),
            ("steals_completed", Json::UInt(self.steals_completed)),
            ("dropped", Json::UInt(self.dropped)),
            ("account", self.account.to_json()),
        ])
    }
}

/// Everything measured in one simulated run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunStats {
    /// Workload name.
    pub workload: String,
    /// Scheme under test.
    pub scheme: SchemeKind,
    /// Total compute workers.
    pub workers: u32,
    /// Clock frequency used for time conversions.
    pub clock_hz: f64,
    /// Simulated wall time from start to root completion.
    pub makespan: Cycles,
    /// Tasks executed (Table 4's "total tasks").
    pub total_tasks: u64,
    /// Reported workload units (= tasks for BTC; tree nodes for UTS and
    /// NQueens, whose loop-splitting helper tasks do not count).
    pub total_units: u64,
    /// Cycles of `Work` actions executed.
    pub total_work_cycles: u64,
    /// Peak simultaneous live tasks.
    pub peak_live_tasks: u64,
    /// Successful steals (`breakdown.completed`; the sum of the
    /// per-worker rows).
    pub steals_completed: u64,
    /// Steal attempts issued, including aborts and any still in flight
    /// when the root finished (the sum of the per-worker rows).
    pub steal_attempts: u64,
    /// Per-phase steal timing (Figure 10) and resolved attempts by
    /// outcome.
    pub breakdown: StealBreakdown,
    /// Max over workers of peak stack bytes (Table 4's "stack usage").
    pub peak_stack_usage: u64,
    /// Max over workers of reserved virtual address space.
    pub reserved_va_per_worker: u64,
    /// Max over workers of pinned bytes.
    pub pinned_per_worker: u64,
    /// Total page faults across all workers (iso's 21K-cycle events).
    pub page_faults: u64,
    /// Total bytes committed across all address spaces.
    pub committed_total: u64,
    /// Interconnect operation counters.
    pub fabric: FabricStats,
    /// Discrete events processed (simulator diagnostics).
    pub events: u64,
    /// Per-worker counts and timeline accounts.
    pub per_worker: Vec<WorkerSummary>,
    /// Machine-wide steal-attempt latency digest, issue to abort or
    /// resume, one sample per resolved attempt (quantiles within 3.2 %).
    pub steal_latency: HistSummary,
    /// Machine-wide task run-length digest, begin to completion, one
    /// sample per task (quantiles within 3.2 %).
    pub task_run_length: HistSummary,
    /// Critical-path digest from the causal profiler (`None` unless the
    /// run was profiled — the engine itself never fills this in; the
    /// `uat_profile` / bench tooling does, after building the
    /// happens-before DAG from the run's trace).
    pub critical_path: Option<CriticalPathSummary>,
}

impl RunStats {
    /// Simulated seconds.
    pub fn seconds(&self) -> f64 {
        self.makespan.as_secs(self.clock_hz)
    }

    /// Units per simulated second — the y-axis of Figure 11 (tasks/s for
    /// BTC, nodes/s for UTS and NQueens).
    pub fn throughput(&self) -> f64 {
        if self.makespan == Cycles::ZERO {
            return 0.0;
        }
        self.total_units as f64 / self.seconds()
    }

    /// Parallel efficiency of this run relative to a reference run of the
    /// same workload on fewer workers: ratio of per-worker throughputs
    /// (the paper's "efficiency relative to 480 cores").
    pub fn efficiency_vs(&self, reference: &RunStats) -> f64 {
        let here = self.throughput() / self.workers as f64;
        let there = reference.throughput() / reference.workers as f64;
        if there == 0.0 {
            0.0
        } else {
            here / there
        }
    }

    /// Cycles per task — BTC's figure of merit (≈ spawn overhead when
    /// tasks carry no work).
    pub fn cycles_per_task(&self) -> f64 {
        if self.total_tasks == 0 {
            return 0.0;
        }
        (self.makespan.get() as f64 * self.workers as f64) / self.total_tasks as f64
    }

    /// Fraction of steal attempts that completed with a stolen thread.
    pub fn steal_success_rate(&self) -> f64 {
        if self.steal_attempts == 0 {
            return 0.0;
        }
        self.steals_completed as f64 / self.steal_attempts as f64
    }

    /// Machine-wide fraction of worker time spent idle, from the
    /// per-worker accounts.
    pub fn idle_fraction(&self) -> f64 {
        let total: u64 = self
            .per_worker
            .iter()
            .map(|w| w.account.total().get())
            .sum();
        if total == 0 {
            return 0.0;
        }
        let idle: u64 = self
            .per_worker
            .iter()
            .map(|w| w.account.get(Bucket::Idle).get())
            .sum();
        idle as f64 / total as f64
    }

    /// Total events evicted from full trace rings across workers (0 when
    /// no event sink was installed): a nonzero value flags a truncated
    /// trace.
    pub fn dropped_events(&self) -> u64 {
        self.per_worker.iter().map(|w| w.dropped).sum()
    }

    /// One-line summary for harness output.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<24} {:?} w={:<5} tasks={:<12} time={:>10.4}s thr={:>12.0}/s steals={:<8} ok={:>5.1}% idle={:>5.1}% stack={}B drop={}",
            self.workload,
            self.scheme,
            self.workers,
            self.total_tasks,
            self.seconds(),
            self.throughput(),
            self.steals_completed,
            100.0 * self.steal_success_rate(),
            100.0 * self.idle_fraction(),
            self.peak_stack_usage,
            self.dropped_events(),
        )
    }
}

impl ToJson for RunStats {
    fn to_json(&self) -> Json {
        let mut doc = Json::obj([
            ("workload", Json::str(&self.workload)),
            ("scheme", self.scheme.to_json()),
            ("workers", Json::UInt(self.workers as u64)),
            ("clock_hz", Json::Num(self.clock_hz)),
            ("makespan_cycles", Json::UInt(self.makespan.get())),
            ("total_tasks", Json::UInt(self.total_tasks)),
            ("total_units", Json::UInt(self.total_units)),
            ("total_work_cycles", Json::UInt(self.total_work_cycles)),
            ("peak_live_tasks", Json::UInt(self.peak_live_tasks)),
            ("steals_completed", Json::UInt(self.steals_completed)),
            ("steal_attempts", Json::UInt(self.steal_attempts)),
            ("breakdown", self.breakdown.to_json()),
            ("peak_stack_usage", Json::UInt(self.peak_stack_usage)),
            (
                "reserved_va_per_worker",
                Json::UInt(self.reserved_va_per_worker),
            ),
            ("pinned_per_worker", Json::UInt(self.pinned_per_worker)),
            ("page_faults", Json::UInt(self.page_faults)),
            ("committed_total", Json::UInt(self.committed_total)),
            ("fabric", self.fabric.to_json()),
            ("events", Json::UInt(self.events)),
            ("per_worker", self.per_worker.to_json()),
            ("steal_latency", self.steal_latency.to_json()),
            ("task_run_length", self.task_run_length.to_json()),
        ]);
        // Omitted entirely for unprofiled runs, so pre-profiler
        // artifacts and fresh ones share a schema.
        if let (Json::Obj(members), Some(cp)) = (&mut doc, &self.critical_path) {
            members.push(("critical_path".into(), cp.to_json()));
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(workers: u32, tasks: u64, makespan: u64) -> RunStats {
        RunStats {
            workload: "t".into(),
            scheme: SchemeKind::Uni,
            workers,
            clock_hz: 1e9,
            makespan: Cycles(makespan),
            total_tasks: tasks,
            total_units: tasks,
            total_work_cycles: 0,
            peak_live_tasks: 0,
            steals_completed: 0,
            steal_attempts: 0,
            breakdown: StealBreakdown::new(),
            peak_stack_usage: 0,
            reserved_va_per_worker: 0,
            pinned_per_worker: 0,
            page_faults: 0,
            committed_total: 0,
            fabric: FabricStats::default(),
            events: 0,
            per_worker: Vec::new(),
            steal_latency: HistSummary::default(),
            task_run_length: HistSummary::default(),
            critical_path: None,
        }
    }

    #[test]
    fn throughput_and_seconds() {
        let s = stats(4, 1_000_000, 1_000_000_000);
        assert!((s.seconds() - 1.0).abs() < 1e-12);
        assert!((s.throughput() - 1e6).abs() < 1e-6);
    }

    #[test]
    fn perfect_scaling_is_efficiency_one() {
        let base = stats(4, 1_000_000, 1_000_000_000);
        let big = stats(8, 2_000_000, 1_000_000_000);
        assert!((big.efficiency_vs(&base) - 1.0).abs() < 1e-12);
        let worse = stats(8, 1_600_000, 1_000_000_000);
        assert!((worse.efficiency_vs(&base) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn cycles_per_task() {
        let s = stats(2, 1000, 500_000);
        assert!((s.cycles_per_task() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_makespan_is_safe() {
        let s = stats(1, 0, 0);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.cycles_per_task(), 0.0);
        assert_eq!(s.steal_success_rate(), 0.0);
        assert_eq!(s.idle_fraction(), 0.0);
    }

    fn worker_summary(worker: u32, work: u64, idle: u64) -> WorkerSummary {
        let mut account = TimeAccount::new();
        account.charge(Bucket::Work, Cycles(work));
        account.charge(Bucket::Idle, Cycles(idle));
        WorkerSummary {
            worker,
            tasks_run: 3,
            steal_attempts: 5,
            steals_completed: 2,
            dropped: 0,
            account,
        }
    }

    #[test]
    fn steal_success_and_idle_fraction() {
        let mut s = stats(2, 100, 1_000);
        s.steal_attempts = 10;
        s.steals_completed = 4;
        s.per_worker = vec![worker_summary(0, 900, 100), worker_summary(1, 500, 500)];
        assert!((s.steal_success_rate() - 0.4).abs() < 1e-12);
        assert!((s.idle_fraction() - 600.0 / 2_000.0).abs() < 1e-12);
    }

    /// Pins the exact `summary_line` layout: harness output is parsed by
    /// eye and by scripts, so a format change must be deliberate.
    /// (Deliberately re-pinned when the trailing `drop=` field was added
    /// to surface ring truncation.)
    #[test]
    fn summary_line_format_is_pinned() {
        let mut s = stats(4, 1_000_000, 1_000_000_000);
        s.steal_attempts = 10;
        s.steals_completed = 5;
        assert_eq!(
            s.summary_line(),
            "t                        Uni w=4     tasks=1000000      time=    1.0000s \
             thr=     1000000/s steals=5        ok= 50.0% idle=  0.0% stack=0B drop=0"
        );
        s.per_worker = vec![worker_summary(0, 1, 1)];
        s.per_worker[0].dropped = 17;
        assert!(s.summary_line().ends_with("drop=17"));
    }

    #[test]
    fn run_stats_json_round_trip() {
        let mut s = stats(2, 1_000, 500_000);
        s.steal_attempts = 7;
        s.steals_completed = 3;
        s.page_faults = 11;
        // Distinct values, so a field written under another's name shows.
        s.total_units = 1_001;
        s.total_work_cycles = 400_001;
        s.peak_live_tasks = 13;
        s.peak_stack_usage = 4_096;
        s.reserved_va_per_worker = 1 << 20;
        s.pinned_per_worker = 1 << 19;
        s.committed_total = 8_192;
        s.events = 99;
        s.per_worker = vec![
            worker_summary(0, 400_000, 100_000),
            worker_summary(1, 1, 499_999),
        ];
        s.steal_latency =
            uat_metrics::HistSnapshot::of_samples([9, 15, 15, 20, 31, 31, 40]).summary();
        s.task_run_length =
            uat_metrics::HistSnapshot::of_samples((0..1_000).map(|i| i * 4)).summary();
        let v = Json::parse(&s.to_json().to_string()).unwrap();
        let u = |name| v.field(name).unwrap().as_u64().unwrap();
        assert_eq!(v.field("workload").unwrap().as_str().unwrap(), s.workload);
        assert_eq!(v.field("scheme").unwrap().as_str().unwrap(), "uni");
        assert_eq!(u("workers"), s.workers as u64);
        assert_eq!(v.field("clock_hz").unwrap().as_f64().unwrap(), s.clock_hz);
        assert_eq!(u("makespan_cycles"), s.makespan.get());
        for (name, want) in [
            ("total_tasks", s.total_tasks),
            ("total_units", s.total_units),
            ("total_work_cycles", s.total_work_cycles),
            ("peak_live_tasks", s.peak_live_tasks),
            ("steals_completed", s.steals_completed),
            ("steal_attempts", s.steal_attempts),
            ("peak_stack_usage", s.peak_stack_usage),
            ("reserved_va_per_worker", s.reserved_va_per_worker),
            ("pinned_per_worker", s.pinned_per_worker),
            ("page_faults", s.page_faults),
            ("committed_total", s.committed_total),
            ("events", s.events),
        ] {
            assert_eq!(u(name), want, "{name}");
        }
        // Nested reports are the component's own `to_json`, whose fields
        // its own crate's test reads back.
        let nested = |name| v.field(name).unwrap().to_string();
        assert_eq!(nested("breakdown"), s.breakdown.to_json().to_string());
        assert_eq!(nested("fabric"), s.fabric.to_json().to_string());
        assert_eq!(
            nested("steal_latency"),
            s.steal_latency.to_json().to_string()
        );
        assert_eq!(
            nested("task_run_length"),
            s.task_run_length.to_json().to_string()
        );
        let rows = v.field("per_worker").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        for (row, w) in rows.iter().zip(&s.per_worker) {
            let u = |name| row.field(name).unwrap().as_u64().unwrap();
            assert_eq!(u("worker"), w.worker as u64);
            assert_eq!(u("tasks_run"), w.tasks_run);
            assert_eq!(u("steal_attempts"), w.steal_attempts);
            assert_eq!(u("steals_completed"), w.steals_completed);
            assert_eq!(u("dropped"), w.dropped);
            let account = row.field("account").unwrap().to_string();
            assert_eq!(account, w.account.to_json().to_string());
        }
        assert!(v.get("critical_path").is_none());

        // A profiled run carries its critical-path digest through JSON.
        let mut account = TimeAccount::new();
        account.charge(Bucket::Work, Cycles(400_000));
        account.charge(Bucket::StealTransfer, Cycles(100_000));
        s.critical_path = Some(CriticalPathSummary {
            total: Cycles(500_000),
            end_worker: 1,
            segments: 9,
            steal_edges: 4,
            join_edges: 4,
            account,
        });
        let v = Json::parse(&s.to_json().to_string()).unwrap();
        let cp = v.field("critical_path").unwrap().to_string();
        assert_eq!(cp, s.critical_path.unwrap().to_json().to_string());
    }
}
