//! Discrete-event simulation of the distributed machine.
//!
//! This crate runs the paper's runtime end to end on a simulated FX10:
//! `nodes × workers-per-node` workers (one process per core, one comm
//! server per node), each executing the **actual** child-first work
//! stealing scheduler over the **actual** THE deques and uni-address (or
//! iso-address) stack managers from `uat-core`, against real task trees
//! supplied by a [`Workload`](uat_model::Workload).
//!
//! The simulation is at *migration-point* granularity: compute segments,
//! spawns, joins, suspend/resume, and each one-sided RDMA phase of a steal
//! are timed events; everything in between is protocol code executing for
//! real (bytes move, queues change, invariants assert). One event is
//! outstanding per worker, so the event queue stays small and runs are
//! deterministic given the seed.
//!
//! Entry points:
//! - [`SimConfig`] + [`Engine::run`] — one run, yielding [`RunStats`]
//!   (makespan, throughput, steal breakdown, stack peaks, memory).
//! - [`sweep()`](sweep::sweep) — the Figure 11 scaling harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod event_heap;
pub mod metrics;
pub mod parallel;
pub mod sweep;
pub mod task;
mod tracing;

pub use config::SimConfig;
pub use engine::Engine;
pub use event_heap::EventHeap;
pub use metrics::{RunStats, WorkerSummary};
pub use parallel::{run_indexed, sweep_threads};
pub use sweep::{sweep, sweep_with_threads, ScalePoint};
pub use task::{TaskId64, TaskTable};
