//! The metrics layer's histogram properties, from the root package:
//! every runtime build links it, so `cargo test` at the top checks the
//! quantile error bound the exported latency tails rely on, as
//! `tests/deque.rs` does for the THE deque.

#[path = "../crates/metrics/tests/hist_prop.rs"]
mod hist_prop;
