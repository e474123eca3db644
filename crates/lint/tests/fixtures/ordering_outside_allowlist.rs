//! Seeded-bad fixture for rule B: the access shapes of the THE deque's
//! one protocol body — control words reached through the storage's
//! accessor, by chain or by binding — with two orderings outside the
//! layout allowlist among accesses inside it. Never compiled — scanned
//! by the lint integration tests.

use std::sync::atomic::Ordering;

impl<S: Storage> TheDeque<S> {
    fn claim(&self, t: u64) {
        // BAD: the thief's claim must stay SeqCst — it pairs with the
        // owner's SeqCst re-read of top.
        self.store.words().top.store(t + 1, Ordering::Release);
    }

    fn peek(&self) -> u64 {
        let w = self.store.words();
        let t = w.top.load(Ordering::Acquire);
        // BAD: AcqRel is no load ordering.
        w.bottom.load(Ordering::AcqRel).saturating_sub(t)
    }

    fn release_lock(&self) {
        self.store.words().lock.store(0, Ordering::Release);
    }
}
