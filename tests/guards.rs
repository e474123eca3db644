//! The guard page below every task stack, from the root package, so
//! `cargo test` at the top cannot pass with a stack that overflows
//! silently. Both real backends install that page through one primitive
//! in `frame.rs`: a page-table marker where the kernel takes one, and
//! `mprotect(PROT_NONE)` otherwise. Its unit tests fault a page guarded
//! by each mechanism, on private anonymous and on shared memfd memory,
//! from a forked child that must die of SIGSEGV, and print the mode
//! each case ran in (a kernel that refuses markers skips those cases by
//! name).

#[allow(dead_code)]
#[path = "../crates/fiber/src/frame.rs"]
mod frame;
