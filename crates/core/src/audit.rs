//! Worker-level invariant auditing, for the engine's every-event
//! auditor (`uat_cluster::Engine::audited`).
//!
//! [`UniMgr::audit`](crate::UniMgr::audit) and
//! [`IsoMgr::audit`](crate::IsoMgr::audit) hard-re-check the structural
//! invariants their modules normally only `debug_assert` — uni-address
//! packing contiguous from the region's high end, RDMA-region blocks
//! disjoint and in-bounds, wait-queue handles resolving to live saved
//! contexts — and then report a [`WorkerAudit`]: the set of tasks each
//! structure is holding. An audited engine run in `uat-cluster`
//! cross-references those facts against its task table after every
//! event, closing the loop on per-worker task conservation: every live
//! task must be found in exactly one place.
//!
//! See DESIGN.md §7 for the invariant catalogue this implements.

/// Best-effort extraction of the human-readable message from a caught
/// audit panic payload.
///
/// Every audit check in this crate and in the engine raises violations
/// via `assert!`-family macros, whose payloads are `String` (formatted)
/// or `&'static str` (literal). The engine's flight recorder catches
/// the unwind, calls this to recover the violation text for the trace
/// file's metadata, and re-raises.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())
}

/// Facts one worker's structures report to the engine-level auditor,
/// produced after the worker's own internal hard-checks pass.
#[derive(Clone, Debug)]
pub struct WorkerAudit {
    /// Deque lock word (0 = free; nonzero while a thief is inside its
    /// locked critical section, counting unreaped failed-FAA residue).
    pub lock: u64,
    /// Tasks with live entries in this worker's deque, oldest first.
    pub deque_tasks: Vec<u64>,
    /// Tasks parked on this worker's wait queue, FIFO order.
    pub wait_tasks: Vec<u64>,
    /// The task owning the region's bottom (running-position) segment.
    /// Uni only — `None` for iso or for an empty region. May name a
    /// *stale* segment (stolen, not yet drained) when the worker is
    /// between tasks; the engine compares it only against a live
    /// current/blocked task.
    pub bottom_task: Option<u64>,
}
