//! The model-checked protocols the one worker body runs, from the root
//! package, so `cargo test` at the top cannot pass with a broken join,
//! termination scan or slot-cache raid: each suite explores the
//! protocol under sequential consistency and release/acquire and
//! requires every seeded mutation to be caught, as `tests/deque.rs`
//! does for the THE deque.

#[path = "../crates/check/tests/join.rs"]
mod join;
#[path = "../crates/check/tests/slots.rs"]
mod slots;
#[path = "../crates/check/tests/termination.rs"]
mod termination;
