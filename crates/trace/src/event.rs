//! The structured trace event model.
//!
//! Every event carries the emitting worker, a start timestamp in
//! simulated [`Cycles`], and a duration (zero for instants). The
//! [`EventKind`] payload mirrors the protocol vocabulary of the paper:
//! task lifecycle, the seven steal phases of Table 3, FAA-queue waits at
//! the comm server, and idle polls.

use serde::{Deserialize, Serialize};
use uat_base::{Cycles, NodeId, StealOutcome, StealPhase, WorkerId};

/// One trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Start of the event, in simulated cycles since the run began.
    pub at: Cycles,
    /// Duration in cycles; zero marks an instantaneous event.
    pub dur: Cycles,
    /// Worker whose timeline this event belongs to.
    pub worker: WorkerId,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// An instantaneous event.
    pub fn instant(at: Cycles, worker: WorkerId, kind: EventKind) -> Self {
        TraceEvent {
            at,
            dur: Cycles::ZERO,
            worker,
            kind,
        }
    }

    /// An event spanning `[at, at + dur)`.
    pub fn span(at: Cycles, dur: Cycles, worker: WorkerId, kind: EventKind) -> Self {
        TraceEvent {
            at,
            dur,
            worker,
            kind,
        }
    }
}

/// What a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A task started running for the first time.
    TaskBegin {
        /// Packed task id.
        task: u64,
    },
    /// A task ran to completion.
    TaskEnd {
        /// Packed task id.
        task: u64,
        /// Wall-clock (simulated) span from spawn to completion.
        run: Cycles,
    },
    /// A task spawned a child (child-first: the child runs next).
    Spawn {
        /// Packed id of the spawning task.
        parent: u64,
        /// Packed id of the new task.
        child: u64,
    },
    /// The running task was suspended (blocked join or preempted by a thief).
    Suspend {
        /// Packed task id.
        task: u64,
    },
    /// A previously suspended task resumed.
    Resume {
        /// Packed task id.
        task: u64,
    },
    /// A timeline slice charged to one accounting bucket
    /// (see [`crate::Bucket`]); these tile each worker's timeline.
    Slice {
        /// The bucket the span was charged to.
        bucket: crate::Bucket,
    },
    /// One phase of a steal attempt, with the same duration fed to the
    /// `StealBreakdown` accumulator (Figure 10).
    StealPhase {
        /// The worker being robbed.
        victim: WorkerId,
        /// Which protocol phase.
        phase: StealPhase,
    },
    /// A steal attempt finished.
    StealResult {
        /// The worker that was targeted.
        victim: WorkerId,
        /// How the attempt ended.
        outcome: StealOutcome,
        /// End-to-end latency of the whole attempt, from its first
        /// protocol phase through this result (includes the resume for
        /// completed steals). Lets consumers rebuild exact steal-latency
        /// distributions from a full trace.
        latency: Cycles,
    },
    /// A continuation entry was pushed into this worker's own deque,
    /// where a thief may take it. `seq` uniquely identifies this
    /// publication; a later [`EventKind::StealCommit`] carrying the same
    /// `seq` marks the thief-side resume, and the pair induces the
    /// profiler's steal edge (and a Perfetto flow arrow).
    DequePublish {
        /// Packed id of the published (parent) task.
        task: u64,
        /// Publication sequence number, unique within a run.
        seq: u64,
    },
    /// A stolen continuation resumed on this (thief) worker. `seq` names
    /// the [`EventKind::DequePublish`] that made it stealable.
    StealCommit {
        /// Packed id of the stolen task.
        task: u64,
        /// Sequence number of the matching publication.
        seq: u64,
    },
    /// The completion of `child` on this worker dropped `parent`'s
    /// outstanding-children count to zero: the parent's join is now
    /// ready. The matching [`EventKind::JoinResume`] on the parent's
    /// worker closes the profiler's join edge.
    JoinReady {
        /// Packed id of the joining (parent) task.
        parent: u64,
        /// Packed id of the child whose completion enabled the join.
        child: u64,
    },
    /// `parent` resumed past its join; `child` is the completion that
    /// enabled it (recorded by the matching [`EventKind::JoinReady`]).
    JoinResume {
        /// Packed id of the resuming (parent) task.
        parent: u64,
        /// Packed id of the enabling child.
        child: u64,
    },
    /// Time an FAA request spent queued behind others at the victim
    /// node's software comm server.
    FaaQueueWait {
        /// Queueing delay excluded from the wire time.
        wait: Cycles,
        /// Node whose comm server the request queued at.
        server: NodeId,
    },
    /// An idle scheduler poll (nothing local, no steal issued).
    IdlePoll,
    /// The worker gave up spinning and went to sleep (native backend:
    /// the idle backoff crossed its spin threshold; the sim has no
    /// analogue because idle workers poll every round).
    Park,
    /// The worker woke from a park and found work again.
    Unpark,
    /// An RDMA operation issued by this worker (fabric-level view).
    RdmaOp {
        /// Operation type.
        op: RdmaOpKind,
        /// Node the operation targeted.
        target: NodeId,
        /// Payload size in bytes.
        bytes: u64,
    },
}

impl EventKind {
    /// Short display name (used as the Chrome trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TaskBegin { .. } => "task-begin",
            EventKind::TaskEnd { .. } => "task-end",
            EventKind::Spawn { .. } => "spawn",
            EventKind::Suspend { .. } => "suspend",
            EventKind::Resume { .. } => "resume",
            EventKind::Slice { bucket } => bucket.name(),
            EventKind::StealPhase { phase, .. } => phase.track(),
            EventKind::StealResult { .. } => "steal-result",
            EventKind::DequePublish { .. } => "deque-publish",
            EventKind::StealCommit { .. } => "steal-commit",
            EventKind::JoinReady { .. } => "join-ready",
            EventKind::JoinResume { .. } => "join-resume",
            EventKind::FaaQueueWait { .. } => "faa-queue-wait",
            EventKind::IdlePoll => "idle-poll",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::RdmaOp { op, .. } => op.name(),
        }
    }

    /// Chrome trace category, used by tooling to filter event families.
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::TaskBegin { .. }
            | EventKind::TaskEnd { .. }
            | EventKind::Spawn { .. }
            | EventKind::Suspend { .. }
            | EventKind::Resume { .. } => "task",
            EventKind::Slice { .. } => "timeline",
            EventKind::StealPhase { .. } => "steal",
            EventKind::DequePublish { .. } | EventKind::StealCommit { .. } => "steal-flow",
            EventKind::JoinReady { .. } | EventKind::JoinResume { .. } => "join-flow",
            EventKind::StealResult { .. } => "steal-result",
            EventKind::FaaQueueWait { .. } | EventKind::RdmaOp { .. } => "rdma",
            EventKind::IdlePoll | EventKind::Park | EventKind::Unpark => "sched",
        }
    }
}

/// RDMA verb, as the fabric layer classifies operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RdmaOpKind {
    /// One-sided remote read.
    Read,
    /// One-sided remote write.
    Write,
    /// Software-emulated fetch-and-add via the comm server.
    FetchAdd,
}

impl RdmaOpKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RdmaOpKind::Read => "rdma-read",
            RdmaOpKind::Write => "rdma-write",
            RdmaOpKind::FetchAdd => "rdma-faa",
        }
    }
}
