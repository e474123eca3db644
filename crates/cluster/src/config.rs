//! Simulation configuration.

use serde::{Deserialize, Serialize};
use uat_base::{CostModel, Topology};
use uat_core::{CoreConfig, SchemeKind};

/// Everything a simulated run needs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Machine shape (nodes × workers per node).
    pub topo: Topology,
    /// Calibrated cycle costs.
    pub cost: CostModel,
    /// Per-worker memory layout.
    pub core: CoreConfig,
    /// Thread-management scheme under test.
    pub scheme: SchemeKind,
    /// Root RNG seed (victim selection; workloads carry their own seeds).
    pub seed: u64,
    /// Safety valve: abort if the event count exceeds this (0 = off).
    pub max_events: u64,
    /// Ablation: the crude scheme of Section 5.1 — every task switch
    /// swaps the previous task out of and the next task into the
    /// uni-address region (two stack copies per spawn/return cycle),
    /// instead of the Figure 4 optimized creation.
    pub crude_switch: bool,
}

impl SimConfig {
    /// FX10-profile machine of `nodes` nodes × 15 compute workers.
    pub fn fx10(nodes: u32) -> Self {
        SimConfig {
            topo: Topology::fx10(nodes),
            cost: CostModel::fx10(),
            core: CoreConfig::default(),
            scheme: SchemeKind::Uni,
            seed: 0x5EED,
            max_events: 0,
            crude_switch: false,
        }
    }

    /// A tiny machine for tests: `workers` workers on one node.
    pub fn tiny(workers: u32) -> Self {
        SimConfig {
            topo: Topology::new(1, workers),
            ..Self::fx10(1)
        }
    }

    /// Switch the thread-management scheme.
    pub fn with_scheme(mut self, scheme: SchemeKind) -> Self {
        self.scheme = scheme;
        self
    }

    /// Switch the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx10_shape() {
        let c = SimConfig::fx10(256);
        assert_eq!(c.topo.total_workers(), 3840);
        assert_eq!(c.scheme, SchemeKind::Uni);
    }

    #[test]
    fn builders() {
        let c = SimConfig::tiny(4)
            .with_scheme(SchemeKind::Iso)
            .with_seed(99);
        assert_eq!(c.topo.total_workers(), 4);
        assert_eq!(c.scheme, SchemeKind::Iso);
        assert_eq!(c.seed, 99);
    }
}
