//! `uat-check` — exhaustive interleaving checker for the runtime's
//! cross-worker protocols.
//!
//! The paper's correctness story (Figure 6, Table 3) rests on the THE
//! deque tolerating concurrent owner pops and one-sided remote steals,
//! and the runtime adds three protocols of its own. Each is a small-step
//! model on one shared-memory machine ([`memory`]: sequential consistency,
//! or C11 release/acquire, where every load branches over the messages
//! its declared ordering permits):
//!
//! - [`model`] — the one THE body, `TheDeque`, at both granularities it
//!   runs at: simulator-event atomicity for the deque placed in fabric
//!   memory, per-atomic-access for the real-atomics placements, with the
//!   batched steal modelled ahead of its implementation. No task lost or
//!   stolen twice, the lock released on every path, index slack and
//!   capacity kept. Its sleep-set walk feeds [`replay`], which re-runs the
//!   explored schedules against the real body in a real `Fabric`;
//! - [`termination`] — the two-pass termination scan: no scan passes
//!   before every task's completion tick;
//! - [`join`] — the join protocol both real runtimes share: exactly-once
//!   resume, results visible at every passed join, no touch after the
//!   joiner left, no stranded park;
//! - [`slots`] — the multiprocess runtime's free-slot supply and its
//!   raid: conservation, no double hand-out, no false exhaustion, no
//!   deadlock.
//!
//! Each model is a [`Protocol`] — start state, actors, moves, step,
//! invariants — and one explorer ([`explore`]) walks them all: it visits
//! every reachable state and transition once, counts the distinct
//! interleavings exactly, and returns the first broken invariant as a
//! [`Counterexample`] trace. Each model's [`Seeded`] regressions prove
//! the checker bites: every one must produce a counterexample.
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

pub use explore::{Counterexample, Protocol, Report, Seeded};
pub use memory::{Mem, MemModel, MemOrd};
pub use model::{
    Access, Family, Mutation, OrdSpec, OwnerOp, Scenario, SleepSets, Sys, ViolationKind,
};
