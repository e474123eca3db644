//! The protocols the one worker body runs, from the root package, so
//! `cargo test` at the top cannot pass with a broken join, idle policy,
//! termination scan or slot-cache raid. The model-checked suites explore
//! each protocol under sequential consistency and release/acquire and
//! require every seeded mutation to be caught, as `tests/deque.rs` does
//! for the THE deque; `golden` checks that every clean scenario, the
//! deque's included, keeps every invariant and pins its exploration
//! counts; the join block and the idle policy also
//! run their own unit suites on the code itself.

#[path = "../crates/check/tests/protocols/golden.rs"]
mod golden;
#[path = "../crates/check/tests/protocols/join.rs"]
mod join;
#[path = "../crates/check/tests/protocols/pinned.rs"]
mod pinned;
#[path = "../crates/check/tests/protocols/slots.rs"]
mod slots;
#[path = "../crates/check/tests/protocols/termination.rs"]
mod termination;

// The runtime's join block and idle policy, with their unit tests. The
// join block names `crate::ctx::Context`, here the public one.
#[allow(dead_code)]
#[path = "../crates/fiber/src/idle.rs"]
mod idle;
#[allow(dead_code, unused_imports)]
#[path = "../crates/fiber/src/join.rs"]
mod join_block;
mod ctx {
    pub use uni_address_threads::fiber::ctx::Context;
}
