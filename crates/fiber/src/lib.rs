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
//!   (stack supply, where the deques and counter rows live, where a
//!   task's program waits, how a worker gives up, what it observes).
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
//! - [`ntrace`]: native observability — one observer per worker of an
//!   observed run, stamping each event once from the run's one clock:
//!   TSC-stamped event rings, `TimeAccount` buckets, and steal-phase
//!   spans feeding the same `uat-trace` exporters and profiler the
//!   simulator uses, and the timed metrics tier's samples.
//! - [`nmetrics`]: online metrics and runtime health — the registry view
//!   of the per-worker counter rows both backends keep, HDR tail-latency
//!   histograms, per-worker flight-recorder rings, a deque-depth sampler
//!   thread, and the heartbeat stall watchdog.
//! - `join`: the join protocol both real backends share — a per-joiner
//!   count of the children whose spawn was stolen plus one waiter slot,
//!   arbitrated on a single word.
//! - `frame`: the frame claim both real backends share — where below
//!   its record a task's body starts, bound-checked against the stack.
//! - `idle`: the idle path both real backends share — spin, then nap;
//!   the termination scan an idle worker runs before each nap; and the
//!   futex the multiprocess coordinator sleeps on meanwhile.
//! - [`mpruntime`]: the third backend — the same worker body in forked
//!   processes ([`MultiProcessRunner`]) that maps deques, fiber stacks,
//!   join blocks, and the metrics segment into one `memfd` region at the
//!   same fixed address everywhere, so a cross-process steal is deque
//!   atomics plus `resume_context` and the parent exports per-worker
//!   metrics through `uat-rdma` fabric reads. (The root package's
//!   `cross_process_steal` example shows the mechanism once with
//!   private regions: a started thread's frames copied to another
//!   process by `process_vm_readv` and resumed there.)
//!
//! Each runner has one run path. [`Runtime::run`] runs a closure;
//! [`NativeRunner`] runs a `uat-model` workload on it, as `run`,
//! `run_metered` or `run_traced`; [`MultiProcessRunner`] runs one as
//! `run` or `run_metered`, after [`MultiProcessRunner::probe_support`]
//! where a caller must skip on a host that cannot. Both workload
//! runners report in one [`NativeRunStats`], which names its runner.
//!
//! # Safety
//!
//! This crate is the workspace's designated home for `unsafe`, with
//! `uat-deque`; the others are `uat-rdma`'s single registration boundary
//! and `uat-workloads`' single entry into its hardware SHA-1, both
//! `#![deny(unsafe_code)]` with one documented allow. Everything else
//! in the workspace is `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg(target_arch = "x86_64")]

pub mod creation;
pub mod ctx;
mod frame;
mod idle;
pub mod interp;
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
pub use mpruntime::{set_bootstrap_alloc_probe, MultiProcessRunner};
pub use nmetrics::{StallDump, WatchdogAction, WatchdogCfg, WatchdogReport};
pub use ntrace::NativeTrace;
pub use runtime::{current_worker_id, spawn, JoinHandle, Runtime};
pub use stack::{Stack, StackPool};
pub use tsc::RunClock;
