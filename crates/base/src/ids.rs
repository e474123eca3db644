//! Identifiers for the simulated machine.
//!
//! The paper's machine model is `nodes × workers-per-node` where every
//! worker is a process pinned to one core (Section 5.1, "process-per-core").
//! [`WorkerId`] is the *global* worker index; [`NodeId`] the node index.
//! The mapping between the two lives in [`Topology`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Global index of a worker (one per simulated core running compute).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WorkerId(pub u32);

/// Index of a node (shared-memory domain with its own comm server).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of a task, unique for the lifetime of a simulation run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u64);

impl WorkerId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl NodeId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl TaskId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Shape of the simulated machine: how global worker indices map to nodes.
///
/// Mirrors the FX10 configuration in the paper: 16 cores per node, one of
/// which is reserved as the software fetch-and-add communication server, so
/// `workers_per_node` defaults to 15.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of nodes.
    pub nodes: u32,
    /// Compute workers per node (excludes the comm-server core).
    pub workers_per_node: u32,
}

impl Topology {
    /// A machine with `nodes` nodes of `workers_per_node` compute workers.
    pub fn new(nodes: u32, workers_per_node: u32) -> Self {
        assert!(nodes > 0, "a machine needs at least one node");
        assert!(workers_per_node > 0, "a node needs at least one worker");
        Topology {
            nodes,
            workers_per_node,
        }
    }

    /// FX10-like: `nodes` nodes × 15 compute workers (paper Section 6).
    pub fn fx10(nodes: u32) -> Self {
        Self::new(nodes, 15)
    }

    /// Total number of compute workers.
    #[inline]
    pub fn total_workers(&self) -> u32 {
        self.nodes * self.workers_per_node
    }

    /// The node hosting a worker.
    #[inline]
    pub fn node_of(&self, w: WorkerId) -> NodeId {
        debug_assert!(w.0 < self.total_workers());
        NodeId(w.0 / self.workers_per_node)
    }

    /// Iterate over all worker ids.
    pub fn workers(&self) -> impl Iterator<Item = WorkerId> {
        (0..self.total_workers()).map(WorkerId)
    }

    /// Whether two workers are on the same node (intra-node steal).
    #[inline]
    pub fn same_node(&self, a: WorkerId, b: WorkerId) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_mapping_roundtrips() {
        let t = Topology::new(4, 15);
        assert_eq!(t.total_workers(), 60);
        // Each node hosts a contiguous block of 15 worker ids.
        for w in t.workers() {
            assert_eq!(t.node_of(w), NodeId(w.0 / 15));
        }
        assert_eq!(t.node_of(WorkerId(59)), NodeId(3));
    }

    #[test]
    fn fx10_reserves_comm_core() {
        let t = Topology::fx10(256);
        assert_eq!(t.workers_per_node, 15);
        assert_eq!(t.total_workers(), 3840);
    }

    #[test]
    fn same_node_detection() {
        let t = Topology::new(2, 3);
        assert!(t.same_node(WorkerId(0), WorkerId(2)));
        assert!(!t.same_node(WorkerId(2), WorkerId(3)));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        Topology::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        Topology::new(1, 0);
    }
}
