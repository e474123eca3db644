//! The THE deque's suite, run from the root package so `cargo test` at
//! the top cannot pass with a broken protocol: every scenario runs on
//! both constructors of the one body the two real runtimes share.

#[path = "../crates/deque/tests/the.rs"]
mod the;
