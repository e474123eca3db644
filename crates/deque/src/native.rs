//! Native THE-protocol deque on real atomics.
//!
//! Used by the `uat-fiber` runtime for intra-process work stealing. The
//! protocol is the Cilk-5 THE protocol verbatim: the owner pushes/pops at
//! the bottom without locks; thieves steal at the top under a spin lock;
//! the owner takes the lock only when it races a thief for the last entry.
//!
//! # Safety
//!
//! This module (with its placement twin [`crate::shm`]) contains the
//! crate's only `unsafe` code: entries live in
//! `UnsafeCell<MaybeUninit<T>>` slots. The THE protocol is what makes the
//! accesses sound:
//!
//! - slot `i % cap` is written only by the owner in `push` at position
//!   `i = bottom`, while no reader can observe position `i` until the
//!   bottom store publishes it, and reuse of the slot (position
//!   `i + cap`) is blocked by the capacity check until `top > i`, i.e.
//!   until every reader of position `i` is done with the slot;
//! - a position is *read* by exactly one side: a thief only ever reads
//!   the position it loaded as `top` inside its locked critical section
//!   (where `top` cannot move under it), and the owner's pop takes the
//!   lock whenever the position it wants could be that one (`top ==
//!   bottom - 1` after the decrement). The arbitration for the last
//!   entry therefore always happens under the lock — the lock-free
//!   paths only ever touch positions provably nobody else targets.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

// Under `RUSTFLAGS="--cfg loom"` the control words become loom atomics
// (real loom: exhaustively explored; the offline shim: schedule-stress
// wrappers — see shims/loom). Both are `repr(transparent)` over the std
// atomic, so the layout contract below keeps holding.
#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-capacity THE-protocol work-stealing deque.
///
/// `T` must be `Copy`: entries are small continuation descriptors
/// (pointers + sizes), mirroring the 32-byte `taskq_entry`.
///
/// The three control words sit at the canonical [`crate::layout`]
/// offsets (`repr(C)`, asserted below), so a native deque's header is
/// byte-compatible with the simulated RDMA-resident one; only the
/// entries differ, living behind a pointer rather than inline (fine
/// intra-process, where no thief computes remote addresses).
///
/// The header is aligned to 128 bytes — a cache line and the adjacent
/// line x86 prefetches with it — so wherever the allocator puts a deque,
/// the words its owner writes on every push and pop share no line with
/// another deque's (or anything else's). Unaligned, two `Arc`ed deques
/// land 64 bytes apart whenever the allocator recycles small chunks, and
/// a run of the fiber runtime is then fast or half as fast by heap
/// placement alone (EXPERIMENTS.md, "Root cause").
#[repr(C, align(128))]
pub struct NativeDeque<T: Copy> {
    lock: AtomicU64,
    top: AtomicU64,
    bottom: AtomicU64,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// The layout contract: control words at `base + OFF_*`, exactly as the
// simulated deque lays them out in fabric memory.
const _: () = {
    assert!(std::mem::offset_of!(NativeDeque<u64>, lock) as u64 == crate::layout::OFF_LOCK);
    assert!(std::mem::offset_of!(NativeDeque<u64>, top) as u64 == crate::layout::OFF_TOP);
    assert!(std::mem::offset_of!(NativeDeque<u64>, bottom) as u64 == crate::layout::OFF_BOTTOM);
    // Its own line pair: the control words and the slot pointer fit the
    // first line, and the next deque starts two lines further on.
    assert!(std::mem::align_of::<NativeDeque<u64>>() == 128);
    assert!(std::mem::size_of::<NativeDeque<u64>>() == 128);
};

// SAFETY: [I1][I2][I3] all shared access to `slots` is mediated by the THE protocol as
// documented in the module header; T itself crosses threads by copy.
unsafe impl<T: Copy + Send> Sync for NativeDeque<T> {}
// SAFETY: [I3] same argument as `Sync`; the deque owns its slot storage, so
// moving it to another thread moves only `Send` data.
unsafe impl<T: Copy + Send> Send for NativeDeque<T> {}

impl<T: Copy> NativeDeque<T> {
    /// A deque with room for `capacity` simultaneous entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        NativeDeque {
            lock: AtomicU64::new(0),
            top: AtomicU64::new(0),
            bottom: AtomicU64::new(0),
            slots,
        }
    }

    #[inline]
    fn slot(&self, position: u64) -> *mut MaybeUninit<T> {
        self.slots[(position % self.slots.len() as u64) as usize].get()
    }

    #[inline]
    fn acquire_lock(&self) {
        // Test-and-test-and-set spin lock; critical sections are a handful
        // of loads/stores so spinning is appropriate.
        loop {
            if self.lock.load(Ordering::Relaxed) == 0
                && self
                    .lock
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            std::hint::spin_loop();
        }
    }

    #[inline]
    fn release_lock(&self) {
        self.lock.store(0, Ordering::Release);
    }

    /// Owner-only: push an entry at the bottom.
    ///
    /// Panics on overflow (the runtime sizes queues for the maximum task
    /// depth, as the paper does for the uni-address region).
    pub fn push(&self, value: T) {
        let b = self.bottom.load(Ordering::Relaxed);
        // `t <= b` whenever the owner is between ops: a thief only
        // advances top over an entry it may keep (t < bottom, and the
        // owner's last-entry pops go through the lock), and the owner's
        // own pops restore bottom before returning.
        let t = self.top.load(Ordering::Acquire);
        assert!(
            b - t < self.slots.len() as u64,
            "native task queue overflow (capacity {})",
            self.slots.len()
        );
        // SAFETY: [I1][I2] position `b` is not visible to thieves until the bottom
        // store below, and the capacity check guarantees the slot's
        // previous occupant was consumed: reuse of a slot a thief is
        // reading (position `t + cap`) would need the loaded top to
        // exceed `t`, which cannot happen while that thief's critical
        // section holds top static at `t`.
        unsafe { (*self.slot(b)).write(value) };
        // Publish: entry write happens-before the bottom bump. Release
        // (not SeqCst) suffices: the only reader that must see the slot
        // write is a thief whose Acquire `bottom` load (pre-check) or
        // SeqCst locked load pairs with this store, and push is not a
        // side of the pop/steal Dekker handshake (only pop's decrement
        // and the thief's locked bottom load need the SC order).
        // uat-check's RA mode proves both directions: the clean suite
        // passes with Release, and the `push-publish-weak` mutation
        // (Relaxed) yields a stale-slot counterexample. See DESIGN.md
        // section 11.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner-only: pop the youngest entry (THE protocol).
    pub fn pop(&self) -> Option<T> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        if t >= b {
            return None;
        }
        let nb = b - 1;
        // T--; fence; read H — SeqCst gives the store-load ordering the
        // protocol's proof needs.
        self.bottom.store(nb, Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        if t < nb {
            // Fast path — strictly more than one entry beyond top, so
            // position nb cannot be any thief's target: a thief in its
            // critical section steals exactly the position it loaded as
            // top, which is <= t < nb.
            //
            // The bound must be strict. With `t <= nb` (the original
            // code) the owner could take position nb == t lock-free
            // while a thief that had already read `top = t, bottom > t`
            // under the lock went on to steal the same entry — both
            // sides kept it. `uat-check`'s op-granularity model finds
            // that double claim in a 12-step interleaving (see
            // DESIGN.md section 7); the simulator's SimDeque keeps the
            // relaxed bound soundly only because engine events make the
            // whole pop atomic against whole steal phases.
            //
            // SAFETY: [I3] no thief can consume or claim position nb (above),
            // and slot reuse requires the position to be consumed first;
            // we own position nb exclusively.
            return Some(unsafe { (*self.slot(nb)).assume_init_read() });
        }
        // Last entry (t == nb) or a thief already overtook the
        // decrement: restore and arbitrate under the lock (victim
        // spins, exactly as Cilk's victim does).
        self.bottom.store(b, Ordering::SeqCst);
        self.acquire_lock();
        let t = self.top.load(Ordering::Relaxed);
        let result = if t >= b {
            // The thief won the last entry.
            None
        } else {
            self.bottom.store(b - 1, Ordering::Relaxed);
            // SAFETY: [I3][I4] under the lock with top < b, position b-1 is ours.
            Some(unsafe { (*self.slot(b - 1)).assume_init_read() })
        };
        self.release_lock();
        result
    }

    /// Thief: steal the oldest entry (FIFO end). Returns `None` if the
    /// deque is empty or another thief holds the lock (abort, as the
    /// paper's RDMA thieves do, rather than queue up).
    pub fn steal(&self) -> Option<T> {
        // Empty pre-check (the RDMA protocol's phase 1).
        let t = self.top.load(Ordering::Acquire);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return None;
        }
        if self
            .lock
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        let t = self.top.load(Ordering::Relaxed);
        // SeqCst pairs with the pop's bottom store.
        let b = self.bottom.load(Ordering::SeqCst);
        let result = if t >= b {
            None
        } else {
            // While we hold the lock, `top` is static at t: only thieves
            // write top, and they are locked out. The owner can
            // therefore never consume position t concurrently —
            // its fast-path pop requires `top < new_bottom`, i.e. it only
            // takes positions strictly above t, and its last-entry path
            // arbitrates under this same lock. Claiming after the read is
            // safe for exactly that reason; no Dekker validation of
            // bottom is needed (and validating on bottom would be
            // ABA-broken anyway: a pop + re-push during our critical
            // section restores bottom while recycling the slot).
            //
            // SAFETY: [I2][I3][I4] position t is live (t < b) and cannot be consumed
            // or its slot reused while top == t (push at position t+cap
            // fails the capacity check until top advances), so the read
            // observes a fully initialised entry that only we will keep.
            let v = unsafe { (*self.slot(t)).assume_init_read() };
            self.top.store(t + 1, Ordering::SeqCst);
            Some(v)
        };
        self.release_lock();
        result
    }

    /// [`steal`](Self::steal) with phase-boundary timestamps from
    /// `clock`, for tracing thieves: the returned [`StealPhases`] brackets
    /// the empty pre-check, the lock acquisition, and the entry take the
    /// same way the paper's Table 3 brackets the RDMA protocol's phases.
    /// The protocol itself is identical to the untimed path (which stays
    /// clock-free so untraced runs pay nothing).
    pub fn steal_phased<C: FnMut() -> u64>(&self, mut clock: C) -> (Option<T>, StealPhases) {
        let start = clock();
        // Empty pre-check (the RDMA protocol's phase 1).
        let t = self.top.load(Ordering::Acquire);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            let checked = clock();
            return (
                None,
                StealPhases {
                    start,
                    checked,
                    locked: checked,
                    end: checked,
                    outcome: StealAttemptOutcome::Empty,
                },
            );
        }
        let checked = clock();
        if self
            .lock
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            let locked = clock();
            return (
                None,
                StealPhases {
                    start,
                    checked,
                    locked,
                    end: locked,
                    outcome: StealAttemptOutcome::LockBusy,
                },
            );
        }
        let locked = clock();
        let t = self.top.load(Ordering::Relaxed);
        // SeqCst pairs with the pop's bottom store.
        let b = self.bottom.load(Ordering::SeqCst);
        let (result, outcome) = if t >= b {
            (None, StealAttemptOutcome::Raced)
        } else {
            // SAFETY: [I2][I3][I4] identical critical section to `steal` — position t
            // is live and held static by the lock we own (see the proof
            // comment there).
            let v = unsafe { (*self.slot(t)).assume_init_read() };
            self.top.store(t + 1, Ordering::SeqCst);
            (Some(v), StealAttemptOutcome::Taken)
        };
        self.release_lock();
        let end = clock();
        (
            result,
            StealPhases {
                start,
                checked,
                locked,
                end,
                outcome,
            },
        )
    }

    /// Entries currently in the deque (racy snapshot).
    pub fn len(&self) -> u64 {
        let t = self.top.load(Ordering::Acquire);
        let b = self.bottom.load(Ordering::Acquire);
        b.saturating_sub(t)
    }

    /// Whether the deque appears empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum simultaneous entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// How an instrumented steal attempt ended (the native analogue of the
/// trace layer's `StealOutcome`, kept local so `uat-deque` stays at the
/// bottom of the dependency graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealAttemptOutcome {
    /// An entry was taken.
    Taken,
    /// The pre-check saw an empty deque.
    Empty,
    /// Another thief held the lock; aborted without queuing.
    LockBusy,
    /// Locked successfully but the deque had drained (lost the race).
    Raced,
}

/// Clock readings bracketing the phases of one [`NativeDeque::steal_phased`]
/// attempt: `[start, checked)` is the empty pre-check, `[checked, locked)`
/// the lock acquisition, `[locked, end)` the entry take and unlock. On an
/// abort the later boundaries collapse onto the point the attempt ended.
#[derive(Clone, Copy, Debug)]
pub struct StealPhases {
    /// Clock at attempt start.
    pub start: u64,
    /// Clock after the empty pre-check.
    pub checked: u64,
    /// Clock after the lock CAS resolved.
    pub locked: u64,
    /// Clock after the entry was taken (or the attempt aborted) and the
    /// lock released.
    pub end: u64,
    /// How the attempt ended.
    pub outcome: StealAttemptOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;
    use std::sync::Arc;

    #[test]
    fn lifo_for_owner() {
        let d = NativeDeque::new(16);
        for i in 0..5u64 {
            d.push(i);
        }
        for i in (0..5).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn fifo_for_thief() {
        let d = NativeDeque::new(16);
        for i in 0..5u64 {
            d.push(i);
        }
        for i in 0..5 {
            assert_eq!(d.steal(), Some(i));
        }
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn wraparound() {
        let d = NativeDeque::new(3);
        for round in 0..10u64 {
            d.push(round * 2);
            d.push(round * 2 + 1);
            assert_eq!(d.steal(), Some(round * 2));
            assert_eq!(d.pop(), Some(round * 2 + 1));
        }
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let d = NativeDeque::new(2);
        d.push(1u64);
        d.push(2);
        d.push(3);
    }

    #[test]
    fn len_tracks() {
        let d = NativeDeque::new(8);
        assert!(d.is_empty());
        d.push(1u64);
        d.push(2);
        assert_eq!(d.len(), 2);
        d.pop();
        assert_eq!(d.len(), 1);
        assert_eq!(d.capacity(), 8);
    }

    /// One owner and several thieves hammer the deque; every pushed value
    /// must be consumed exactly once (conservation), which is the property
    /// the THE proof guarantees.
    #[test]
    fn concurrent_conservation() {
        const PER_ROUND: u64 = 64;
        // Miri executes this orders of magnitude slower; a few rounds
        // still cross every protocol path under its race detector.
        const ROUNDS: u64 = if cfg!(miri) { 4 } else { 200 };
        const THIEVES: usize = 3;
        let d = Arc::new(NativeDeque::new(PER_ROUND as usize + 1));
        let consumed = Arc::new(Counter::new(0));
        let sum = Arc::new(Counter::new(0));
        let done = Arc::new(Counter::new(0));

        let mut handles = Vec::new();
        for _ in 0..THIEVES {
            let d = Arc::clone(&d);
            let consumed = Arc::clone(&consumed);
            let sum = Arc::clone(&sum);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                while done.load(Ordering::Acquire) == 0 || !d.is_empty() {
                    if let Some(v) = d.steal() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(v, Ordering::Relaxed);
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }));
        }

        let mut expected_sum: u64 = 0;
        let mut next: u64 = 1;
        for _ in 0..ROUNDS {
            for _ in 0..PER_ROUND {
                d.push(next);
                expected_sum += next;
                next += 1;
            }
            // Owner pops about half back (LIFO), racing the thieves.
            for _ in 0..PER_ROUND / 2 {
                if let Some(v) = d.pop() {
                    consumed.fetch_add(1, Ordering::Relaxed);
                    sum.fetch_add(v, Ordering::Relaxed);
                }
            }
            // Drain the rest ourselves or let thieves take them.
            while let Some(v) = d.pop() {
                consumed.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(v, Ordering::Relaxed);
            }
        }
        done.store(1, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::Acquire), ROUNDS * PER_ROUND);
        assert_eq!(sum.load(Ordering::Acquire), expected_sum);
        assert!(d.is_empty());
    }

    /// The last-entry race distilled: each round pushes one entry and the
    /// owner's pop races a thief's steal for it; exactly one side may keep
    /// it. The speculative-read/claim/validate handshake in `steal` is
    /// what makes this hold — the earlier read-then-claim order let both
    /// sides keep the entry (see the op-granularity model in `uat-check`).
    #[test]
    fn last_entry_race_exactly_one_winner() {
        const ROUNDS: usize = if cfg!(miri) { 50 } else { 20_000 };
        let d = Arc::new(NativeDeque::new(2));
        let claims: Arc<Vec<Counter>> = Arc::new((0..ROUNDS).map(|_| Counter::new(0)).collect());
        let done = Arc::new(Counter::new(0));

        let thief = {
            let d = Arc::clone(&d);
            let claims = Arc::clone(&claims);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while done.load(Ordering::Acquire) == 0 {
                    if let Some(v) = d.steal() {
                        claims[v as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };

        for r in 0..ROUNDS {
            d.push(r as u64);
            // Owner pop returning None means the thief resolved the race
            // in its favour and records the value itself.
            if let Some(v) = d.pop() {
                claims[v as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
        done.store(1, Ordering::Release);
        thief.join().unwrap();

        assert!(d.is_empty());
        for (r, c) in claims.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Acquire),
                1,
                "round {r} claimed twice or lost"
            );
        }
    }

    /// The instrumented steal is protocol-identical to the plain one and
    /// its phase stamps are ordered by construction.
    #[test]
    fn steal_phased_matches_steal_semantics() {
        let d = NativeDeque::new(8);
        let mut clk = 0u64;
        let mut clock = || {
            clk += 1;
            clk
        };
        let (got, ph) = d.steal_phased(&mut clock);
        assert_eq!(got, None);
        assert_eq!(ph.outcome, StealAttemptOutcome::Empty);
        assert!(ph.start <= ph.checked && ph.checked == ph.end);

        d.push(7u64);
        d.push(8);
        let (got, ph) = d.steal_phased(&mut clock);
        assert_eq!(got, Some(7));
        assert_eq!(ph.outcome, StealAttemptOutcome::Taken);
        assert!(ph.start <= ph.checked && ph.checked <= ph.locked && ph.locked <= ph.end);
        assert_eq!(d.pop(), Some(8));

        // A held lock aborts instead of queuing.
        d.push(9);
        d.lock.store(1, Ordering::Release);
        let (got, ph) = d.steal_phased(&mut clock);
        assert_eq!(got, None);
        assert_eq!(ph.outcome, StealAttemptOutcome::LockBusy);
        d.lock.store(0, Ordering::Release);
        assert_eq!(d.steal(), Some(9));
    }

    /// Two thieves only (owner quiescent): all entries stolen exactly once.
    #[test]
    fn thieves_only_race() {
        let n: u64 = if cfg!(miri) { 64 } else { 1000 };
        let d = Arc::new(NativeDeque::new(1024));
        for i in 0..n {
            d.push(i);
        }
        let taken = Arc::new(Counter::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let d = Arc::clone(&d);
                let taken = Arc::clone(&taken);
                std::thread::spawn(move || {
                    let mut local = 0u64;
                    while !d.is_empty() {
                        if d.steal().is_some() {
                            local += 1;
                        }
                    }
                    taken.fetch_add(local, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(taken.load(Ordering::Acquire), n);
    }
}
