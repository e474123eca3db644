//! Sim-engine registry wiring: the simulator's half of the live-metrics
//! layer.
//!
//! The engine already measures everything the paper's figures need
//! ([`RunStats`](crate::metrics::RunStats)); this module additionally
//! streams the scheduler-health subset into a caller-supplied
//! [`uat_metrics::Registry`] under the *same metric names the native
//! runtime uses* ([`uat_metrics::names`]), so one exporter / dashboard
//! reads both backends interchangeably and the differential harness can
//! compare them field by field.
//!
//! Recording sites are the engine's steal results (success/failure
//! counters plus the tail-latency histogram, in simulated cycles) and
//! task completions (task counter plus run-length histogram). Handles
//! into the registry are resolved once at attach time; per-event cost is
//! a relaxed add on a per-worker cache-line shard plus a histogram
//! bucket add (the sim engine is single-threaded anyway).

use std::sync::Arc;
use uat_base::Cycles;
use uat_metrics::{names, Counter, LogHistogram, Registry};

/// Pre-resolved registry handles for one engine run; inert (all
/// methods no-ops) when no registry was attached.
#[derive(Default)]
pub struct SimMetrics(Option<Box<Handles>>);

struct Handles {
    steals_completed: Arc<Counter>,
    steals_failed: Arc<Counter>,
    tasks: Arc<Counter>,
    steal_latency: Arc<LogHistogram>,
    task_run: Arc<LogHistogram>,
    /// Birth stamps of live tasks, for the run-length histogram.
    /// Indexed by the task id's slab slot (its
    /// low 32 bits): slots are dense and bounded by peak live tasks,
    /// and a slot's begin always precedes its end within one
    /// generation, so a plain `Vec` replaces a hash map on the
    /// per-task hot path.
    born: Vec<Cycles>,
}

impl SimMetrics {
    /// Attach `registry` (built for at least `workers` workers) and
    /// resolve the handles the hot path records through.
    pub fn attach(registry: &Arc<Registry>, workers: usize) -> Self {
        assert!(
            registry.workers() >= workers,
            "registry built for {} workers, engine has {}",
            registry.workers(),
            workers
        );
        SimMetrics(Some(Box::new(Handles {
            steals_completed: registry.counter(
                names::STEALS_COMPLETED,
                "Steal attempts that took an entry and resumed the stolen thread",
            ),
            steals_failed: registry.counter(
                names::STEALS_FAILED,
                "Steal attempts that aborted (victim empty, lock busy, or raced)",
            ),
            tasks: registry.counter(names::TASKS, "Tasks run to completion"),
            steal_latency: registry.histogram(
                names::STEAL_LATENCY,
                "End-to-end steal-attempt latency in simulated cycles",
            ),
            task_run: registry.histogram(
                names::TASK_RUN,
                "Task run length in simulated cycles, begin to completion",
            ),
            born: Vec::new(),
        })))
    }

    /// A steal attempt by worker `w` resolved: bump the outcome
    /// counter and record the end-to-end attempt latency.
    #[inline]
    pub fn on_steal_result(&self, w: usize, ok: bool, latency: Cycles) {
        let Some(h) = self.0.as_deref() else { return };
        if ok {
            h.steals_completed.inc(w);
        } else {
            h.steals_failed.inc(w);
        }
        h.steal_latency.record(latency.get());
    }

    /// Task `task` began at simulated time `t`.
    #[inline]
    pub fn on_task_begin(&mut self, task: u64, t: Cycles) {
        let Some(h) = self.0.as_deref_mut() else {
            return;
        };
        let slot = (task & u32::MAX as u64) as usize;
        if slot >= h.born.len() {
            h.born.resize(slot + 1, Cycles::ZERO);
        }
        h.born[slot] = t;
    }

    /// Task `task` finished on worker `w` at simulated time `t`.
    #[inline]
    pub fn on_task_end(&mut self, w: usize, task: u64, t: Cycles) {
        let Some(h) = self.0.as_deref_mut() else {
            return;
        };
        h.tasks.inc(w);
        let slot = (task & u32::MAX as u64) as usize;
        let born = h.born.get(slot).copied().unwrap_or(Cycles::ZERO);
        h.task_run.record(t.since(born).get());
    }
}
