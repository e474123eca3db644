//! Canonical metric names shared by both backends.
//!
//! The simulator and the native fiber runtime register the *same*
//! scheduler metrics under these names, so exporters, the CI smoke
//! checks, and the sim-vs-native comparison scripts never have to map
//! between two vocabularies. Cycle-valued histograms count simulated
//! cycles on the sim backend and calibrated TSC cycles on the native
//! one — same shape, different clock.

/// Scheduler-loop iterations per worker.
pub const HEARTBEATS: &str = "uat_heartbeats_total";

/// Steal attempts that took an entry and resumed the stolen thread.
pub const STEALS_COMPLETED: &str = "uat_steals_completed_total";

/// Steal attempts that aborted (victim empty, lock busy, or raced).
pub const STEALS_FAILED: &str = "uat_steals_failed_total";

/// Workers that crossed the idle spin threshold into a sleep cycle.
pub const PARKS: &str = "uat_parks_total";

/// Parked workers that subsequently found work.
pub const UNPARKS: &str = "uat_unparks_total";

/// Tasks run to completion.
pub const TASKS: &str = "uat_tasks_total";

/// Tasks spawned (every task but the root).
pub const SPAWNED: &str = "uat_spawned_total";

/// Trace events evicted from full per-worker rings.
pub const TRACE_DROPPED: &str = "uat_trace_dropped_total";

/// End-to-end steal-attempt latency in cycles (first protocol phase
/// through the result, all outcomes).
pub const STEAL_LATENCY: &str = "uat_steal_latency_cycles";

/// Task run length in cycles, begin to completion.
pub const TASK_RUN: &str = "uat_task_run_cycles";

/// Duration of one park episode in cycles (sleep entry to the wake that
/// found work).
pub const PARK_DURATION: &str = "uat_park_duration_cycles";
