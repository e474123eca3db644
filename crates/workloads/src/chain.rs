//! The Figure 10 ping-pong: one thread stolen back and forth.
//!
//! Section 6.3's microbenchmark has "two workers steal a single thread
//! from each other", stolen stack = 3,055 bytes. [`Chain`] reproduces the
//! dynamics with one *iterating* root thread: each round it spawns a leaf
//! child (child-first: the leaf runs, the root's continuation becomes
//! stealable) whose work outlasts a steal, so the idle worker steals the
//! root, resumes it, hits the join and suspends it (the 3,055-byte
//! suspend of Figure 10). Steady state is exactly one steal and one
//! suspend/resume of a 3,055-byte thread per round.
//!
//! Who resumes the root differs by executor. The simulator (Figure 7's
//! runtime) parks it on the wait queue of the worker it suspended on,
//! which resumes it from there to start the next round, so the two
//! workers swap roles every round. The real backends (`uat-fiber`'s
//! shared worker body) hand the parked root to the worker whose leaf
//! completes last, which resumes it directly: the root's next leaf runs
//! on that same worker, so the victim stays the victim and the thief
//! stays the thief.

use uat_model::{Action, Workload};

/// Task descriptor: the iterating root or a leaf child.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainDesc {
    /// The single long-lived thread that gets stolen.
    Root,
    /// One round's child.
    Leaf,
}

/// The ping-pong workload.
#[derive(Clone, Debug)]
pub struct Chain {
    /// Rounds (≈ steals, once the ping-pong locks in).
    pub rounds: u32,
    /// Frame bytes of the stolen thread — 3,055 in the paper.
    pub frame: u64,
    /// Leaf work in cycles; must exceed a steal (~42K) so the thief
    /// always wins the root before the leaf finishes.
    pub leaf_work: u64,
}

impl Chain {
    /// The paper's Section 6.3 configuration.
    pub fn fig10(rounds: u32) -> Self {
        Chain {
            rounds,
            frame: 3_055,
            leaf_work: 120_000,
        }
    }
}

impl Workload for Chain {
    type Desc = ChainDesc;

    fn root(&self) -> ChainDesc {
        ChainDesc::Root
    }

    fn program(&self, d: &ChainDesc, out: &mut Vec<Action<ChainDesc>>) {
        match d {
            ChainDesc::Root => {
                for _ in 0..self.rounds {
                    out.push(Action::Spawn(ChainDesc::Leaf));
                    out.push(Action::JoinAll);
                }
            }
            ChainDesc::Leaf => out.push(Action::Work(self.leaf_work)),
        }
    }

    fn frame_size(&self, d: &ChainDesc) -> u64 {
        match d {
            ChainDesc::Root => self.frame,
            ChainDesc::Leaf => 256,
        }
    }

    fn units(&self, d: &ChainDesc) -> u64 {
        match d {
            ChainDesc::Root => 0,
            ChainDesc::Leaf => 1,
        }
    }

    fn name(&self) -> String {
        format!("chain({} rounds)", self.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uat_model::sequential_profile;

    #[test]
    fn chain_counts() {
        let p = sequential_profile(&Chain::fig10(10));
        assert_eq!(p.tasks, 11, "one root + one leaf per round");
        assert_eq!(p.joins, 10);
        assert_eq!(p.units, 10);
    }

    // The two-worker ping-pong test (which needs the simulator's Engine)
    // lives in `uat-cluster/tests/chain_pingpong.rs`: this crate is
    // backend-neutral and must not depend on the sim engine.
}
