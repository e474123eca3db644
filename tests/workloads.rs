//! The SHA-1 suite, run from the root package so `cargo test` at the top
//! cannot pass with a wrong digest: every UTS tree, simulator golden and
//! differential fingerprint is shaped by that hash. The module itself
//! comes in too, for its unit test that holds the hardware compression
//! function to the scalar one. So do the pinned serial profiles of a BTC
//! and a UTS tree, the ground truth every run is checked against.

#[path = "../crates/workloads/tests/sha1.rs"]
mod sha1;

#[path = "../crates/workloads/tests/profiles.rs"]
mod profiles;

// Only its unit test is used here, not its public functions.
#[allow(dead_code)]
#[path = "../crates/workloads/src/sha1.rs"]
mod sha1_compress;
