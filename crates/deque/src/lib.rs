//! THE-protocol work-stealing deques.
//!
//! The paper implements Cilk-5's THE protocol [Frigo et al., PLDI'98] for
//! its task queues because "it eliminates locking from local accesses to a
//! task queue, it reduces tasking overhead and improves scalability of
//! work stealing" (Section 5.3). Two implementations live here:
//!
//! - [`sim`]: the deque's words (`lock`, `top`, `bottom`, entries) are
//!   little-endian u64s in the owner's *registered RDMA memory*
//!   ([`uat_rdma::Fabric`]). The owner pushes and pops with plain local
//!   accesses; a thief performs the exact one-sided sequence of Table 3 —
//!   empty-check (1 RDMA READ), lock (remote fetch-and-add), steal (2
//!   RDMA READs + 1 RDMA WRITE), unlock (1 RDMA WRITE) — each phase
//!   returning its completion instant so the cluster simulator can
//!   interleave other workers in between.
//! - [`native`]: the same protocol on real atomics, written once
//!   ([`TheDeque`]) with two constructors — [`NativeDeque`] owns its
//!   storage (the thread runtime's deques), [`ShmDeque`] is a `Copy`
//!   handle placed over a caller's block (entries inline at
//!   `OFF_ENTRIES`) inside a shared mapping, so the multiprocess
//!   backend's thieves operate on a peer process's deque with plain
//!   loads/stores/CAS at `base + OFF_*`.
//!
//! Both sides steal from the **top** (FIFO — oldest, typically
//! coarsest-grained task) while the owner works at the **bottom** (LIFO),
//! the Mohr/Kranz/Halstead discipline the paper adopts.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod entry;
pub mod layout;
pub mod native;
pub mod sim;

pub use entry::TaskqEntry;
pub use native::{NativeDeque, ShmDeque, StealAttemptOutcome, StealPhases, Storage, TheDeque};
pub use sim::{DequeSnapshot, PopOutcome, SimDeque, StealOutcome};
