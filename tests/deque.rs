//! The THE deque's suite, run from the root package so `cargo test` at
//! the top cannot pass with a broken protocol: every scenario runs on
//! the placements of the one body all three executors share, and
//! the model checker explores the protocol itself — its clean suite
//! under sequential consistency (`exhaustive`) and release/acquire
//! (`weak`) with every seeded mutation caught, and the model's
//! orderings pinned to the code's allowlist (`allowlist`).

#[path = "../crates/check/tests/allowlist.rs"]
mod allowlist;
#[path = "../crates/check/tests/exhaustive.rs"]
mod exhaustive;
#[path = "../crates/deque/tests/the.rs"]
mod the;
#[path = "../crates/check/tests/weak.rs"]
mod weak;
