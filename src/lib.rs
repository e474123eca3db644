//! # Uni-Address Threads
//!
//! A Rust reproduction of *"Uni-Address Threads: Scalable Thread
//! Management for RDMA-Based Work Stealing"* (Akiyama & Taura,
//! HPDC 2015): a thread-management scheme that migrates native threads —
//! register context plus stack frames — between distributed-memory nodes
//! with one-sided RDMA work stealing, in O(1) virtual memory per worker.
//!
//! This crate is a facade over the workspace:
//!
//! - [`model`] (`uat-model`) — the backend-neutral task model: `Action`
//!   programs, the `Workload` trait, and sequential ground-truth
//!   profiling. Both backends below execute this one model.
//! - [`core`] (`uat-core`) — the uni-address region discipline,
//!   suspend/resume, the RDMA steal protocol, and the iso-address
//!   baseline it is compared against.
//! - [`cluster`] (`uat-cluster`) — a deterministic discrete-event
//!   simulation of the FX10-style machine that runs the real protocol
//!   code end to end.
//! - [`workloads`] (`uat-workloads`) — the paper's benchmarks: Binary
//!   Task Creation, Unbalanced Tree Search (with a from-scratch SHA-1
//!   splittable RNG), NQueens, Fibonacci.
//! - [`fiber`] (`uat-fiber`) — a *native* x86-64 lightweight-thread
//!   runtime built on the paper's Appendix A context-switching assembly,
//!   with real multi-worker work stealing and an interpreter
//!   (`fiber::interp`) that runs any [`model`] workload on real fibers.
//! - [`metrics`] (`uat-metrics`) — the live-metrics
//!   layer: per-worker sharded counters, log-bucketed latency
//!   histograms, and Prometheus-text/JSON exporters that both backends
//!   stream into while running.
//! - [`rdma`], [`vmem`], [`deque`], [`base`] — the substrates: simulated
//!   fabric, simulated virtual memory, THE-protocol deques, and common
//!   types.
//!
//! ## Quickstart (native)
//!
//! ```
//! use uni_address_threads::fiber::{self, Runtime};
//!
//! fn fib(n: u64) -> u64 {
//!     if n < 2 {
//!         return n;
//!     }
//!     let a = fiber::spawn(move || fib(n - 1)); // child-first: runs now
//!     let b = fib(n - 2);
//!     a.join() + b
//! }
//!
//! let rt = Runtime::new(2);
//! assert_eq!(rt.run(|| fib(16)), 987);
//! ```
//!
//! ## Quickstart (simulated cluster)
//!
//! ```
//! use uni_address_threads::cluster::{Engine, SimConfig};
//! use uni_address_threads::workloads::Btc;
//!
//! // 2 nodes x 15 workers of simulated FX10 run Binary Task Creation.
//! let stats = Engine::new(SimConfig::fx10(2), Btc::new(12, 1)).run();
//! assert_eq!(stats.total_tasks, Btc::new(12, 1).expected_tasks());
//! assert!(stats.steals_completed > 0);
//! ```

pub use uat_base as base;
pub use uat_cluster as cluster;
pub use uat_core as core;
pub use uat_deque as deque;
pub use uat_fiber as fiber;
pub use uat_metrics as metrics;
pub use uat_model as model;
pub use uat_rdma as rdma;
pub use uat_trace as trace;
pub use uat_vmem as vmem;
pub use uat_workloads as workloads;
