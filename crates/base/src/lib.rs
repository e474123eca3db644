//! Common foundation for the uni-address threads reproduction.
//!
//! This crate holds the vocabulary types shared by every other crate in the
//! workspace: simulated time in CPU [`Cycles`], worker/node identifiers,
//! the deterministic [`rng`] used throughout the simulator, running means
//! with confidence intervals ([`stats`]), the calibrated [`cost`] model
//! that maps protocol operations of the paper (RDMA ops, page faults,
//! context switches) to cycle costs, and the [`steal`] protocol's phase
//! and outcome names.
//!
//! Nothing in here knows about stacks, deques, or RDMA semantics; those
//! live in `uat-vmem`, `uat-deque`, `uat-rdma` and `uat-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod ids;
pub mod json;
pub mod rng;
pub mod stats;
pub mod steal;
pub mod time;

pub use cost::CostModel;
pub use ids::{NodeId, TaskId, Topology, WorkerId};
pub use json::{Json, JsonError, ToJson};
pub use rng::SplitMix64;
pub use stats::{OnlineStats, Summary};
pub use steal::{StealOutcome, StealPhase};
pub use time::Cycles;
