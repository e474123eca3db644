//! The fabric and address-space property suites and the fabric's page
//! arena guard, run from the root package so `cargo test` at the top
//! cannot pass with a broken fabric or a broken demand-paged region:
//! every simulated steal reads and writes through them.

#[path = "../crates/rdma/tests/property.rs"]
mod rdma;

#[path = "../crates/rdma/tests/arena.rs"]
mod arena;

#[path = "../crates/vmem/tests/property.rs"]
mod vmem;
