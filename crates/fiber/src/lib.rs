//! Native lightweight threads on x86-64 — the "real" half of the
//! reproduction.
//!
//! The distributed experiments run in simulation (`uat-cluster`), but the
//! paper's Table 2 — task creation overhead in cycles — is a single-node
//! microbenchmark, and this crate measures it for real:
//!
//! - [`ctx`]: a faithful port of the paper's Appendix A
//!   `save_context_and_call` / `resume_context` x86-64 assembly, and the
//!   two transfers both runtimes make with the same record
//!   (`switch_to_fresh`, `switch_to`: one `call`, one `ret`).
//! - [`stack`]: `mmap`-backed task stacks with guard pages, pooled.
//! - [`creation`]: the three creation strategies Table 2 compares —
//!   `uniaddr` (Figure 4: save context, push queue entry, run the child
//!   on the same linear stack, pop), `stack_pool` (MassiveThreads-like,
//!   and what a spawn pays in both runtimes here: child on a fresh
//!   pooled stack, entered and left through the runtimes' own
//!   transfers), and
//!   `seq_call` (Cilk-like fast clone: push, plain call, pop) — each
//!   timed with `rdtsc`.
//! - `sched`: the one worker body both real backends run — child-first
//!   spawn, the steal loop, the Figure 7 join, the task entry — generic
//!   over a `Place` that names only what the backends do differently
//!   (stack supply, where the deques and termination cells live, where a
//!   task's program waits, how a worker gives up, what it records).
//! - [`runtime`]: that body on OS-thread workers (stack-pool strategy +
//!   the THE deque from `uat-deque`), demonstrating genuine
//!   steal-a-started-thread semantics in the shared-memory degenerate
//!   case the paper notes in Section 2 ("migrating a task ... can be
//!   done simply by passing the address of the stack").
//! - [`interp`]: the native backend of the backend-neutral task model —
//!   one interpreter, on both real backends, that runs any `uat-model`
//!   `Workload` (`Work` / `Spawn` / `JoinAll` programs) on real fibers,
//!   each task's frame claimed at its spawn, reporting the same unit
//!   accounting as the simulator.
//! - [`ntrace`]: native observability — per-worker TSC-stamped event
//!   rings, `TimeAccount` buckets, and steal-phase spans feeding the
//!   same `uat-trace` exporters and profiler the simulator uses
//!   (zero-cost stubs when the `trace` feature is off).
//! - [`nmetrics`]: online metrics and runtime health — sharded
//!   scheduler counters, HDR tail-latency histograms, per-worker
//!   flight-recorder rings, a deque-depth sampler thread, and the
//!   heartbeat stall watchdog (stubs when the `metrics` feature is
//!   off).
//! - `join`: the join protocol both real backends share — a per-joiner
//!   count of the children whose spawn was stolen plus one waiter slot,
//!   arbitrated on a single word.
//! - `frame`: the frame claim both real backends share — where below
//!   its record a task's body starts, bound-checked against the stack.
//! - `idle`: the idle path both real backends share — spin, then nap;
//!   the termination scan an idle worker runs before each nap; and the
//!   futex the multiprocess coordinator sleeps on meanwhile.
//! - [`ipc`]: the faithful **cross-address-space** demonstration —
//!   process-per-core via `fork`, the uni-address region at the same
//!   fixed virtual address in each process, shared-memory task-queue
//!   words, a one-sided `process_vm_readv` stack transfer, and
//!   `resume_context` of a started thread on the other process.
//! - [`mpruntime`]: the demonstration promoted to a full third backend —
//!   the same worker body in forked processes ([`MultiProcessRunner`])
//!   that maps
//!   deques, fiber stacks, join blocks, and the metrics segment into one
//!   `memfd` region at the same fixed address everywhere, so a
//!   cross-process steal is deque atomics plus `resume_context` and the
//!   parent exports per-worker metrics through `uat-rdma` fabric reads.
//!
//! # Safety
//!
//! This crate is the workspace's designated home for `unsafe` (plus
//! `uat-rdma`'s single registration boundary, which is
//! `#![deny(unsafe_code)]` with one documented allow); everything else
//! in the workspace is `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg(target_arch = "x86_64")]

pub mod creation;
pub mod ctx;
mod frame;
mod idle;
pub mod interp;
pub mod ipc;
mod join;
pub mod mpruntime;
pub mod nmetrics;
pub mod ntrace;
pub mod runtime;
mod sched;
pub mod stack;
pub mod tsc;

pub use creation::{measure_creation, CreationStrategy};
pub use interp::{NativeRunStats, NativeRunner};
pub use ipc::{
    probe_fixed_noreplace, probe_process_vm_readv, steal_between_processes, steal_with_retries,
};
pub use mpruntime::{set_bootstrap_alloc_probe, MpReport, MultiProcessRunner};
#[cfg(feature = "metrics")]
pub use nmetrics::{StallDump, WatchdogAction, WatchdogCfg, WatchdogReport};
#[cfg(feature = "trace")]
pub use ntrace::{NativeTrace, DEFAULT_RING_CAPACITY};
pub use runtime::{current_worker_id, spawn, JoinHandle, Runtime};
pub use stack::{Stack, StackPool};
pub use tsc::{ClockSource, RunClock};
