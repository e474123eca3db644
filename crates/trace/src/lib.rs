//! Per-worker tracing for the uni-address work-stealing simulator and
//! thread runtime.
//!
//! The layers, usable separately:
//!
//! - **Events** ([`TraceEvent`] / [`EventKind`]): structured records of
//!   what each worker did — task begin/end/spawn/suspend/resume, the
//!   seven steal phases of the paper's Table 3 (with victim and
//!   outcome), FAA-queue waits at the software comm server, and idle
//!   polls — stamped in cycles ([`Cycles`](uat_base::Cycles): simulated
//!   ones, or calibrated TSC ones on the thread runtime) and stored in
//!   bounded per-worker [`RingBuffer`]s.
//! - **Accounting** ([`TimeAccount`] / [`Bucket`]): every cycle of
//!   every worker charged to exactly one bucket (work, spawn,
//!   suspend/resume, the five steal phases, FAA queueing, idle), so a
//!   worker's buckets sum to the run's makespan.
//! - **Timeline** ([`Timeline`]): what both tracers record through,
//!   one per worker — an optional ring, the account, and the open
//!   slice. It charges each span of time, carries first, as an
//!   accounted slice, and at the end of a run tiles the worker's time
//!   to the makespan.
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
pub mod timeline;

pub use account::{Bucket, TimeAccount};
pub use event::{EventKind, RdmaOpKind, TraceEvent};
pub use export::{
    chrome_trace_json, flight_trace_json, jsonl, write_chrome_trace, ClockSource, TraceData,
};
pub use profile::{critical_path, CostClass, CriticalPath, CriticalPathSummary, Dag, ProfileError};
pub use ring::RingBuffer;
pub use timeline::{Timeline, DEFAULT_RING_CAPACITY};
pub use uat_base::{StealOutcome, StealPhase};
