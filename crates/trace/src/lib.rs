//! Per-worker tracing for the uni-address work-stealing simulator.
//!
//! Three layers, usable separately:
//!
//! - **Events** ([`TraceEvent`] / [`EventKind`]): structured records of
//!   what each worker did — task begin/end/spawn/suspend/resume, the
//!   seven steal phases of the paper's Table 3 (with victim and
//!   outcome), FAA-queue waits at the software comm server, and idle
//!   polls — stamped with simulated [`Cycles`](uat_base::Cycles) and
//!   stored in bounded per-worker [`RingBuffer`]s behind a
//!   [`TraceSink`]. The default [`NullSink`] discards everything.
//! - **Accounting** ([`TimeAccount`] / [`Bucket`]): every simulated
//!   cycle of every worker charged to exactly one bucket (work, spawn,
//!   suspend/resume, the five steal phases, FAA queueing, idle), so a
//!   worker's buckets sum to the run's makespan.
//! - **Export** ([`export`]): Chrome trace-event JSON — open the file
//!   in [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`, one
//!   track per worker with flow arrows linking each deque publish to
//!   the thief that took it — and JSONL for machine-readable run
//!   summaries.
//! - **Profile** ([`profile`]): the causal layer — reconstructs the
//!   happens-before [`Dag`] of a run, extracts the
//!   critical path (with bucket attribution that sums to the makespan
//!   exactly), and answers what-if questions by replaying the DAG with
//!   one cost class scaled.
//!
//! This crate depends only on `uat-base`; the RDMA fabric, engine, and
//! experiment binaries layer their instrumentation on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account;
pub mod event;
pub mod export;
pub mod profile;
pub mod ring;
pub mod sink;

pub use account::{Bucket, TimeAccount};
pub use event::{EventKind, RdmaOpKind, TraceEvent};
pub use export::{
    chrome_trace, chrome_trace_json, flight_trace_json, jsonl, ClockSource, TraceData,
};
pub use profile::{critical_path, CostClass, CriticalPath, CriticalPathSummary, Dag, ProfileError};
pub use ring::RingBuffer;
pub use sink::{NullSink, RingSink, TraceSink};
pub use uat_base::{StealOutcome, StealPhase};
