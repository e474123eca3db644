//! Uni-address thread management (the paper's contribution) plus the
//! iso-address baseline it is evaluated against.
//!
//! # The uni-address scheme (Section 5)
//!
//! Every worker is a process that reserves **the uni-address region** — a
//! single stack region at the *same* virtual address in every address
//! space — plus a pinned **RDMA region** for the stacks of suspended
//! threads, plus its work-stealing queue. Running threads' stacks are
//! packed linearly in the uni-address region ([`UniRegion`], Figure 3):
//! a new thread's stack is allocated just below the pointer `p`, the
//! running thread always occupies the lowest used addresses, and a
//! suspended thread is copied out to the RDMA region so the thread just
//! above resumes in place. Because a worker only steals when its region is
//! empty, a stolen thread's frames can always be installed at *their
//! original virtual addresses* on the thief — so intra-stack pointers stay
//! valid with no compiler support, using O(region) virtual memory per
//! worker instead of iso-address's O(whole machine).
//!
//! # What lives where
//!
//! - [`UniRegion`]: the address discipline of Figure 3 (segments, `p`,
//!   the running-task-lowest invariant, peak usage for Table 4).
//! - [`RdmaHeap`]: `pinned_malloc` region hosting suspended stacks
//!   (Figure 8) and the wait queue's saved contexts.
//! - [`UniMgr`]: the per-worker uni-address scheme: spawn/complete frames,
//!   suspend/resume with real byte copies through fabric memory, and the
//!   one-sided stack transfer of Figure 6.
//! - [`IsoMgr`]: the iso-address baseline of Section 4: globally unique
//!   stack addresses, full-machine reservations in every address space,
//!   first-touch page faults on migration, victim-assisted transfer.
//! - [`StealBreakdown`]: the Figure 10 phase accounting.
//!
//! Scheduling (child-first execution, the Figure 7 join loop, victim
//! selection) lives in `uat-cluster`, which drives these managers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod breakdown;
pub mod config;
pub mod heap;
pub mod iso;
pub mod mgr;
pub mod region;
pub mod uni;

pub use breakdown::StealBreakdown;
pub use config::{CoreConfig, UNI_BASE};
pub use heap::{RdmaHeap, SavedContext, SavedHandle};
pub use iso::IsoMgr;
pub use mgr::{transfer_stolen, ResumeInfo, SchemeKind, StackMgr, TransferInfo};
pub use region::{RegionError, Segment, UniRegion};
pub use uat_base::StealPhase;
pub use uni::UniMgr;
