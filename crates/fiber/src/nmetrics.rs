//! Native-runtime metrics: the timed tier of the thread runtime and
//! the registry its counters are reported in.
//!
//! The counters themselves are not here. Both real backends keep one
//! [`uat_metrics::shm::Row`] per worker — heartbeats, steals completed
//! and failed, parks, unparks, tasks and spawns — which the worker body
//! (`sched.rs`) bumps itself with single-writer stores; the thread
//! runtime keeps its rows on the heap, the multiprocess one in its
//! shared region. What this module adds, for the thread runtime:
//!
//! - **The timed tier**: TSC-stamped steal latency, task run length and
//!   park duration histograms. It is built only for a *metered* run
//!   (`with_metrics`, `NativeRunner::run_metered`), and fed by each
//!   worker's observer (`ntrace::Observer`) with the same clamped stamps
//!   it gives the tracer, behind the place's one observation flag: a
//!   run that observes nothing builds neither tier nor registry, and
//!   its tasks pay nothing.
//! - **The registry view**: at the end of a run
//!   `MetricsShared::deposit` adds the rows into the registry's
//!   counters, which `NativeRunner::run_metered` then snapshots, and so
//!   can a caller that passed its own registry to `with_metrics`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use uat_metrics::shm::{Row, SEGMENT_COUNTERS};
use uat_metrics::{names, LogHistogram, Registry};

/// Run-wide state of the thread runtime's timed tier and registry view,
/// built only for a metered run.
pub(crate) struct MetricsShared {
    /// The registry the instruments below are registered in
    /// (caller-supplied via `Runtime::with_metrics`, else owned), which
    /// also receives the rows' counts when the run ends.
    pub(crate) registry: Arc<Registry>,
    /// End-to-end steal-attempt latency (cycles).
    pub(crate) steal_latency: Arc<LogHistogram>,
    /// Task run length (cycles).
    pub(crate) task_run: Arc<LogHistogram>,
    /// Park episode duration (cycles).
    pub(crate) park_duration: Arc<LogHistogram>,
}

impl MetricsShared {
    /// The timed tier for `workers` workers. `registry` supplies an
    /// external registry (must be built for at least `workers` shards).
    pub(crate) fn new(workers: usize, registry: Option<Arc<Registry>>) -> Self {
        #[cfg(test)]
        tests::built();
        let registry = registry.unwrap_or_else(|| Arc::new(Registry::new(workers)));
        assert!(
            registry.workers() >= workers,
            "metrics registry built for {} shards but the runtime has {workers} workers",
            registry.workers(),
        );
        // The row counters first, in row order: a registry snapshot then
        // lists them as the multiprocess report does.
        for (name, help) in SEGMENT_COUNTERS {
            registry.counter(name, help);
        }
        MetricsShared {
            steal_latency: registry.histogram(
                names::STEAL_LATENCY,
                "End-to-end steal-attempt latency in TSC cycles",
            ),
            task_run: registry.histogram(
                names::TASK_RUN,
                "Task run length in TSC cycles, begin to completion",
            ),
            park_duration: registry
                .histogram(names::PARK_DURATION, "Park episode duration in TSC cycles"),
            registry,
        }
    }

    /// Add a finished run's `rows` into the registry's counters: the
    /// registry then reports the run (plus whatever earlier runs it
    /// recorded) to a caller that snapshots it directly.
    pub(crate) fn deposit(&self, rows: &[Row]) {
        for (c, (name, help)) in SEGMENT_COUNTERS.iter().enumerate() {
            let counter = self.registry.counter(name, help);
            for (w, row) in rows.iter().enumerate() {
                counter.add(w, row[c].load(Ordering::Relaxed));
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;

    thread_local!(static BUILT: Cell<u64> = const { Cell::new(0) });

    /// Count one timed tier built on this thread.
    pub(super) fn built() {
        BUILT.with(|n| n.set(n.get() + 1));
    }

    /// The timed tiers this thread has built.
    pub(crate) fn tiers() -> u64 {
        BUILT.with(Cell::get)
    }
}
