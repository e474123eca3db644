//! The model-checked suites of the join, termination-scan and slot-cache
//! protocols, and the golden exploration counts of every clean scenario
//! (the deque's included). One test crate, so `pinned.rs`, the counts
//! the other suites read instead of exploring again, is loaded once; the
//! root package's `tests/protocols.rs` loads the same files the same way.

mod golden;
mod join;
mod pinned;
mod slots;
mod termination;
