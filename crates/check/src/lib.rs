//! `uat-check` — exhaustive interleaving checker for the THE-protocol
//! steal path.
//!
//! The paper's correctness story (Figure 6, Table 3) rests on the THE
//! deque tolerating concurrent owner pops and one-sided remote steals.
//! This crate models both implementations the workspace carries —
//! `SimDeque` at simulator-event atomicity and `NativeDeque` at
//! per-atomic-access granularity — as explicit small-step state machines
//! over the shared words (lock, top, bottom, slots), and explores every
//! interleaving with DFS:
//!
//! - **exhaustive mode** visits every reachable state and transition
//!   (memoized; the state graph is finite and acyclic) and counts the
//!   exact number of distinct interleavings by dynamic programming;
//! - **sleep-set mode** walks concrete executions with Godefroid-style
//!   sleep sets plus stutter pruning, feeding the differential replay
//!   that re-runs explored schedules against the real `SimDeque` over a
//!   real `Fabric`;
//! - **weak-memory mode** ([`memory`], `--memory-model ra`) re-explores
//!   the `NativeOp` machine under C11 release/acquire semantics: each
//!   shared word keeps its full modification order, each thread a view
//!   (reads-from floor), and every load branches over the messages its
//!   declared `Ordering` permits — so the explorer covers the behaviors
//!   `NativeDeque`'s `Relaxed`/`Acquire`/`Release`/`SeqCst` annotations
//!   actually allow, not just SC interleavings, including the batched
//!   steal (transfer-k) extension modeled ahead of its native
//!   implementation.
//!
//! Checked on every reachable state: no task lost, no task stolen twice,
//! lock released on every path, `top <= bottom + 1`, owner-pop and
//! thief-steal never both claim the last entry (a double claim), and
//! capacity never exceeded. Seeded [`model::Mutation`]s prove the checker
//! bites: each must produce a human-readable counterexample trace.
//!
//! Beyond the deque, [`termination`] puts the runtime's two-pass
//! termination scan on the same memory machine (SC and RA), with its own
//! invariant — a scan that passes does so after every task's completion
//! tick — and its own two seeded mutations; [`join`] does the same for
//! the join protocol both real runtimes share (exactly-once resume,
//! results visible at every passed join, no touch after the joiner left,
//! no stranded park), with six; and [`slots`] for the multiprocess
//! runtime's free-slot supply (owner fast paths with no read-modify-write,
//! a pool lock, and a raid that closes them with one `membarrier`:
//! conservation, no double hand-out, no false exhaustion, no deadlock),
//! with six more.
//!
//! Run `cargo run -p uat-check --bin uat_check` for the suite, or
//! `--mutate <name>` for a counterexample demo; see the README for how
//! to read the traces.

#![forbid(unsafe_code)]

pub mod explore;
pub mod join;
pub mod memory;
pub mod model;
pub mod replay;
pub mod scenarios;
pub mod slots;
pub mod termination;

pub use explore::{Explorer, Report, StepRecord, Violation, ViolationKind};
pub use memory::{Mem, MemModel, MemOrd};
pub use model::{Access, Family, Mutation, OrdSpec, OwnerOp, Scenario, Sys};
