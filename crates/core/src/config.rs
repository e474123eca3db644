//! Configuration of the per-worker memory layout.

use serde::{Deserialize, Serialize};

/// Virtual address of the uni-address region: the *same* in every
/// worker's address space; that equality is the scheme.
pub const UNI_BASE: u64 = 0x7f80_0000_0000;

/// Sizes and placement of the per-worker regions.
///
/// The defaults mirror the paper's setup: a uni-address region (at
/// [`UNI_BASE`]) comfortably above the ≤144 KiB the benchmarks ever use
/// (Table 4), an RDMA region for suspended stacks, and a deque deep
/// enough for any lineage the benchmarks produce.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Size of the uni-address region in bytes.
    pub uni_region_size: u64,
    /// Size of the pinned RDMA region for suspended stacks.
    pub rdma_heap_size: u64,
    /// Capacity of the work-stealing queue, in entries.
    pub deque_capacity: u64,
    /// Iso-address baseline: reserved bytes per stack (the paper's
    /// Section 4 example uses 16 KiB).
    pub iso_stack_size: u64,
    /// Iso-address baseline: stacks reserved per worker (the per-worker
    /// slab of the global range; ≈ max task-tree depth).
    pub iso_stacks_per_worker: u64,
    /// Fill stack frames with a per-task byte pattern and verify it after
    /// every copy (suspend/resume/steal). Costs CPU time in big runs;
    /// enabled in tests.
    pub verify_stack_bytes: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            uni_region_size: 1 << 20, // 1 MiB
            rdma_heap_size: 8 << 20,  // 8 MiB
            deque_capacity: 4096,
            iso_stack_size: 16 << 10,       // 16 KiB (paper's estimate)
            iso_stacks_per_worker: 1 << 13, // tree depth ~8K (paper's example)
            verify_stack_bytes: false,
        }
    }
}

impl CoreConfig {
    /// A configuration with byte-pattern verification on (for tests).
    pub fn verified() -> Self {
        CoreConfig {
            verify_stack_bytes: true,
            ..Default::default()
        }
    }

    /// Iso-address: bytes of the global stack range that *every* worker
    /// must reserve, for a machine of `total_workers` workers.
    pub fn iso_global_range(&self, total_workers: u64) -> u64 {
        total_workers * self.iso_stacks_per_worker * self.iso_stack_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CoreConfig::default();
        assert!(c.uni_region_size >= 144 * 1024, "must fit Table 4's peak");
        assert_eq!(UNI_BASE % 4096, 0);
    }

    #[test]
    fn iso_range_reproduces_section4_arithmetic() {
        // 2^22 workers × 2^13 stacks × 2^14 bytes = 2^49.
        let c = CoreConfig {
            iso_stack_size: 1 << 14,
            iso_stacks_per_worker: 1 << 13,
            ..Default::default()
        };
        assert_eq!(c.iso_global_range(1 << 22), 1 << 49);
    }
}
