//! The paper's benchmark workloads (Section 6.1).
//!
//! - [`Btc`] — Binary Task Creation: each task repeats `iter` times:
//!   spawn two children, join them. Pure task-management stress; the
//!   paper's Figure 11(a,b) and Table 4 rows 1-4.
//! - [`Uts`] — Unbalanced Tree Search: traversal of an unpredictable
//!   geometric tree whose node identities derive from the crate's own
//!   [`sha1`] (the UTS splittable RNG), compressed by the SHA extensions
//!   where CPUID reports them. Figure 11(c).
//! - [`NQueens`] — BOTS-style N-queens enumeration. Figure 11(d).
//! - [`Fib`] — the didactic Figure 1 example, used by the quickstart.
//!
//! UTS and NQueens use the binary divide-and-conquer loop splitting the
//! paper describes ("we modified them to an efficient divide-and-conquer
//! traversal over loops in which each task generates zero or two
//! subtasks", Section 6.1): tasks over a range of children split in two
//! until singletons. Helper (split) tasks report zero [`units`] so
//! throughput counts tree *nodes*, as the paper plots.
//!
//! Frame sizes are calibrated to Table 4's per-level stack growth (see
//! each type's docs); EXPERIMENTS.md records the paper-vs-measured
//! comparison.
//!
//! [`units`]: uat_model::Workload::units

// `deny`, not `forbid`: the SHA-1 module calls its `#[target_feature]`
// compression function after CPUID detection in one `unsafe` block,
// locally re-allowed with its documented [I23] obligation; everything
// else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod btc;
pub mod chain;
pub mod fib;
pub mod nqueens;
pub mod sha1;
pub mod uts;

pub use btc::Btc;
pub use chain::Chain;
pub use fib::Fib;
pub use nqueens::NQueens;
pub use uts::Uts;
