//! The steal protocol's vocabulary: Table 3's seven phases and the four
//! ways an attempt ends. The deque runs the phases, the trace layer
//! names them on its tracks, and the core accounts them (Figure 10), so
//! the one definition lives here, below all three.

use serde::{Deserialize, Serialize};

/// The seven phases of a work steal, in protocol order (Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StealPhase {
    /// RDMA READ of (top, bottom): is the victim's queue non-empty?
    EmptyCheck,
    /// Remote fetch-and-add acquiring the queue lock.
    Lock,
    /// Two RDMA READs + one RDMA WRITE taking the queue entry.
    Steal,
    /// Thief-side `suspend()` of whatever it was running.
    Suspend,
    /// RDMA READ of the stolen thread's frames into the thief's
    /// uni-address region.
    StackTransfer,
    /// RDMA WRITE of 0 releasing the queue lock.
    Unlock,
    /// `resume_context` of the stolen thread.
    Resume,
}

impl StealPhase {
    /// All phases in protocol order.
    pub const ALL: [StealPhase; 7] = [
        StealPhase::EmptyCheck,
        StealPhase::Lock,
        StealPhase::Steal,
        StealPhase::Suspend,
        StealPhase::StackTransfer,
        StealPhase::Unlock,
        StealPhase::Resume,
    ];

    /// Human-readable name matching the paper's Figure 10 legend.
    pub fn name(self) -> &'static str {
        self.track().trim_start_matches("steal-phase: ")
    }

    /// The name of the phase's trace track.
    pub fn track(self) -> &'static str {
        match self {
            StealPhase::EmptyCheck => "steal-phase: empty check",
            StealPhase::Lock => "steal-phase: lock",
            StealPhase::Steal => "steal-phase: steal",
            StealPhase::Suspend => "steal-phase: suspend",
            StealPhase::StackTransfer => "steal-phase: stack transfer",
            StealPhase::Unlock => "steal-phase: unlock",
            StealPhase::Resume => "steal-phase: resume",
        }
    }

    /// Position in [`ALL`](Self::ALL).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// How a steal attempt ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StealOutcome {
    /// The thief took an entry (and, in the simulator, resumed the
    /// stolen thread).
    Completed,
    /// Aborted: the victim's queue looked empty.
    AbortEmpty,
    /// Aborted: the victim's queue was locked by someone else.
    AbortLock,
    /// Aborted: locked successfully but the queue had drained (race).
    AbortRaced,
}

impl StealOutcome {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StealOutcome::Completed => "completed",
            StealOutcome::AbortEmpty => "abort-empty",
            StealOutcome::AbortLock => "abort-lock",
            StealOutcome::AbortRaced => "abort-raced",
        }
    }
}
