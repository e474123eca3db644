//! The SHA-1 suite, run from the root package so `cargo test` at the top
//! cannot pass with a wrong digest: every UTS tree, simulator golden and
//! differential fingerprint is shaped by that hash.

#[path = "../crates/workloads/tests/sha1.rs"]
mod sha1;
