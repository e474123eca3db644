//! THE-protocol work-stealing deques.
//!
//! The paper implements Cilk-5's THE protocol [Frigo et al., PLDI'98] for
//! its task queues because "it eliminates locking from local accesses to a
//! task queue, it reduces tasking overhead and improves scalability of
//! work stealing" (Section 5.3). It is written once here, in
//! [`TheDeque`], over a [`Placement`]: the word and slot operations the
//! body performs, each thief-side one returning its completion instant.
//! All three executors run that one body, each on its own placement:
//!
//! - [`FabricDeque`] (the simulator): the words (`lock`, `top`,
//!   `bottom`, entries) are little-endian u64s in the owner's *registered
//!   RDMA memory* ([`uat_rdma::Fabric`]). The owner pushes and pops with
//!   plain local accesses; a thief performs the exact one-sided sequence
//!   of Table 3 — empty check (1 RDMA READ), lock (remote fetch-and-add),
//!   take (2 RDMA READs + 1 RDMA WRITE), unlock (1 RDMA WRITE) — one phase
//!   per call, each returning its completion instant so the cluster
//!   simulator can interleave other workers in between.
//! - [`NativeDeque`] (the thread runtime) owns real atomics, and
//!   [`ShmDeque`] (the multiprocess runtime) is a `Copy` handle placed
//!   over a caller's block (entries inline at `OFF_ENTRIES`) inside a
//!   shared mapping, so thieves operate on a peer process's deque with
//!   plain loads/stores/CAS at `base + OFF_*`.
//!
//! What the placements really differ in is named on [`Placement`]: the
//! completion instants, the lock (remote FAA vs. CAS), what an owner does
//! on meeting a held lock, and whether a pop is atomic against steal
//! phases.
//!
//! Every thief steals from the **top** (FIFO — oldest, typically
//! coarsest-grained task) while the owner works at the **bottom** (LIFO),
//! the Mohr/Kranz/Halstead discipline the paper adopts.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod entry;
pub mod fabric;
pub mod layout;
pub mod native;

pub use entry::TaskqEntry;
pub use fabric::{DequeSnapshot, FabricDeque, InFabric};
pub use native::{
    NativeDeque, Placement, PopOutcome, ShmDeque, StealPhases, Storage, TheDeque, Word,
};
