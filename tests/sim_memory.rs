//! The simulator's host memory follows the pages a run writes, not the
//! bytes its workers register (DESIGN.md §5, "registered ≠ resident").
//!
//! Both tests build the paper's full machine — 256 nodes × 15 = 3 840
//! workers, each registering the default 1 MiB uni-address region, 8 MiB
//! RDMA heap and deque block: 34 GiB of simulated pinned memory. CI runs
//! this file under `ulimit -v 4194304`, so backing registrations eagerly
//! again fails here with an allocation error, not on a sweep as an OOM.

use uni_address_threads::base::json::ToJson;
use uni_address_threads::cluster::{Engine, SimConfig};
use uni_address_threads::deque::SimDeque;
use uni_address_threads::vmem::AddressSpace;
use uni_address_threads::workloads::Btc;

const WORKERS: u64 = 3_840;

#[test]
fn paper_scale_machine_registers_gigabytes_and_holds_megabytes() {
    let cfg = SimConfig::fx10(256);
    let core = cfg.core.clone();
    let deque = SimDeque::footprint(core.deque_capacity);
    let engine = Engine::new(cfg, Btc::new(10, 1));
    assert_eq!(
        engine.registered_bytes(),
        WORKERS * (core.uni_region_size + core.rdma_heap_size + deque)
    );
    assert!(engine.registered_bytes() > 32 << 30);

    let (stats, resident) = engine.run_with_resident_bytes();
    assert_eq!(u64::from(stats.workers), WORKERS);
    assert_eq!(stats.total_tasks, Btc::new(10, 1).expected_tasks());
    // What the simulated workers pinned is unchanged by how little of it
    // the host holds.
    assert_eq!(
        stats.pinned_per_worker,
        core.uni_region_size + core.rdma_heap_size + AddressSpace::page_align(deque)
    );
    assert_eq!(stats.committed_total, WORKERS * stats.pinned_per_worker);
    assert!(
        resident < 64 << 20,
        "{resident} host bytes resident behind the registered memory"
    );
}

/// A process's second engine is where eager backing hurt most: the
/// allocator hands the first engine's freed blocks back and `calloc` has
/// to zero them by hand. Nothing about a run may depend on which engine
/// of the process it is.
#[test]
fn back_to_back_engines_return_identical_stats() {
    let run = || {
        Engine::new(SimConfig::fx10(256), Btc::new(10, 1))
            .run()
            .to_json()
            .to_string()
    };
    assert_eq!(run(), run());
}
