//! Simulated RDMA fabric.
//!
//! The paper's work stealing is *one-sided*: a thief manipulates the
//! victim's task queue and reads the victim's stack bytes with RDMA READ,
//! WRITE and fetch-and-add, never involving the victim's CPU (Section 5.3).
//! FX10's Tofu interconnect has no hardware fetch-and-add, so one core per
//! node runs a *communication server* and FAA requests travel as "RDMA
//! WRITE with remote notice" (Section 6, 9.8K cycles average).
//!
//! This crate reproduces that substrate in simulation:
//!
//! - Every simulated process registers pinned memory regions with the
//!   [`Fabric`]; remote operations address `(process, virtual address)`
//!   pairs and **actually move bytes** between backing buffers, so the
//!   protocols built on top (THE deque, stack transfer) are real code
//!   paths, not statistical stand-ins.
//! - Every operation returns the cycle instant at which it completes,
//!   computed from the calibrated [`CostModel`](uat_base::CostModel)
//!   (Figure 9 latency shape).
//! - Fetch-and-add goes through a per-node comm server with an explicit
//!   busy-until clock, so FAA *queueing delay under contention* emerges in
//!   the simulation exactly as it would on the FX10 comm-server core.
//! - Accessing unregistered (unpinned) memory is an error — the pinning
//!   requirement that dooms iso-address (Section 4, problem 3) is enforced,
//!   not just documented.

// `deny`, not `forbid`: the `backend` module's `ShmFabric` is the one
// place this crate touches raw memory (loads/stores/FAA on registered
// process-shared windows) and locally re-allows it with documented
// [I13] obligations; everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod fabric;
pub mod latency;

pub use backend::{OneSidedFabric, ShmFabric};
pub use fabric::{Fabric, FabricStats, ProcMem, ProcMemMut, RdmaError};
pub use latency::LatencyModel;
