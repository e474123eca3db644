//! Process-shared THE-protocol deque placed in mapped memory.
//!
//! The multiprocess backend (`uat-fiber`'s `mpruntime`) maps one shared
//! region at the same virtual address in every worker *process* and
//! carves each worker's deque out of it. This module is the placement
//! construction path [`NativeDeque`](crate::NativeDeque) cannot offer:
//! instead of owning heap storage, a [`ShmDeque`] is a thin `Copy`
//! handle onto a caller-provided block laid out exactly as
//! [`crate::layout`] specifies — control words at `OFF_LOCK`/`OFF_TOP`/
//! `OFF_BOTTOM`, and (unlike the native deque, whose entries hide
//! behind a `Box` pointer) the entries **inline** at `OFF_ENTRIES`, so
//! a remote peer can compute every word's address from the block base
//! alone, the property the paper's one-sided thieves rely on.
//!
//! Entries are bare `u64`s: in the multiprocess runtime an entry is the
//! shared-region address of a suspended continuation, meaningful in
//! every process because the region is uni-address.
//!
//! # Protocol
//!
//! The protocol and its memory orderings are copied **verbatim** from
//! [`NativeDeque`](crate::NativeDeque) — same THE fast paths, same
//! strict `t < nb` pop bound, same locked last-entry arbitration, same
//! orderings at every access site (all within
//! [`crate::layout::ORDERING_ALLOWLIST`], which `uat-lint` checks for
//! this file exactly as it does for `native.rs`). Process-shared use
//! adds nothing to the protocol itself: an `AtomicU64` in a
//! `MAP_SHARED` mapping is lock-free on every supported target, so the
//! same atomics that arbitrate threads arbitrate processes.
//!
//! # Safety
//!
//! All `unsafe` here is the placement itself: dereferencing the block
//! the caller promised via [`ShmDeque::from_raw`] (invariant [I14] in
//! DESIGN.md §7.6). Slot access soundness is then the THE argument from
//! `native.rs`, unchanged: the lock-free paths only touch positions
//! provably nobody else targets, and last-entry arbitration is locked.

#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};

use crate::layout::{OFF_BOTTOM, OFF_ENTRIES, OFF_LOCK, OFF_TOP};

/// The three THE control words, at the canonical layout offsets.
#[repr(C)]
struct Hdr {
    lock: AtomicU64,
    top: AtomicU64,
    bottom: AtomicU64,
}

const _: () = {
    assert!(std::mem::offset_of!(Hdr, lock) as u64 == OFF_LOCK);
    assert!(std::mem::offset_of!(Hdr, top) as u64 == OFF_TOP);
    assert!(std::mem::offset_of!(Hdr, bottom) as u64 == OFF_BOTTOM);
    assert!(std::mem::size_of::<Hdr>() as u64 == OFF_ENTRIES);
};

/// A `Copy` handle onto a THE deque living in caller-provided memory.
///
/// The handle stores the block base and the entry capacity; the block
/// itself holds only the three control words plus the inline entries,
/// so blocks are position-independent data that any process mapping
/// the region at the same address can operate on. A **zeroed block is
/// a valid empty, unlocked deque** — freshly mapped `memfd` pages need
/// no initialisation, which is what keeps the multiprocess bootstrap
/// free of pre-fork ordering subtleties.
///
/// Owner/thief discipline is by convention, exactly as for
/// [`NativeDeque`](crate::NativeDeque): only the owning worker calls
/// [`push`](Self::push)/[`pop`](Self::pop); any process may call
/// [`steal`](Self::steal).
#[derive(Clone, Copy, Debug)]
pub struct ShmDeque {
    base: *mut u8,
    capacity: u64,
}

// SAFETY: [I14] the handle is two plain words; all shared access to the
// block it designates is mediated by the THE protocol (same argument as
// `NativeDeque`'s [I1][I2][I3]), and `from_raw`'s contract makes the
// block valid in every thread/process that maps the region.
unsafe impl Send for ShmDeque {}
// SAFETY: [I14] same argument as `Send`: `&ShmDeque` only hands out the
// base/capacity words; concurrent block access is protocol-mediated.
unsafe impl Sync for ShmDeque {}

impl ShmDeque {
    /// Bytes occupied by a block with room for `capacity` entries.
    pub const fn block_size(capacity: usize) -> usize {
        OFF_ENTRIES as usize + capacity * 8
    }

    /// Wrap a raw block.
    ///
    /// # Safety
    ///
    /// [I14] `base` must point to at least [`block_size`](Self::block_size)
    /// bytes, 8-byte aligned, zero-initialised (or left exactly as a
    /// previous `ShmDeque` over the same block left it), valid for reads
    /// and writes for the handle's whole lifetime, and — when shared
    /// across processes — mapped `MAP_SHARED` at this same virtual
    /// address in every participating process. No memory in the block
    /// may be accessed except through THE-protocol operations.
    #[inline]
    pub unsafe fn from_raw(base: *mut u8, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            (base as usize).is_multiple_of(8),
            "deque block must be 8-byte aligned"
        );
        ShmDeque {
            base,
            capacity: capacity as u64,
        }
    }

    #[inline]
    fn hdr(&self) -> &Hdr {
        // SAFETY: [I14] `from_raw` guarantees the block covers the
        // header, aligned and valid for the handle's lifetime; `Hdr` is
        // three atomics, so shared references race-freely by design.
        unsafe { &*(self.base as *const Hdr) }
    }

    #[inline]
    fn slot(&self, position: u64) -> *mut u64 {
        let off = OFF_ENTRIES + (position % self.capacity) * 8;
        // SAFETY: [I14] `position % capacity` keeps the offset inside the
        // block `from_raw` vouched for.
        unsafe { self.base.add(off as usize) as *mut u64 }
    }

    #[inline]
    fn acquire_lock(&self) {
        // Test-and-test-and-set spin lock, as in `NativeDeque`.
        let h = self.hdr();
        loop {
            if h.lock.load(Ordering::Relaxed) == 0
                && h.lock
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
        self.hdr().lock.store(0, Ordering::Release);
    }

    /// Owner-only: push an entry at the bottom.
    ///
    /// Panics on overflow (the runtime sizes queues for the maximum
    /// outstanding task count, as the paper sizes the uni-address
    /// region).
    #[inline]
    pub fn push(&self, value: u64) {
        let h = self.hdr();
        let b = h.bottom.load(Ordering::Relaxed);
        let t = h.top.load(Ordering::Acquire);
        assert!(
            b - t < self.capacity,
            "shared task queue overflow (capacity {})",
            self.capacity
        );
        // SAFETY: [I1][I2] position `b` is invisible to thieves until the
        // bottom store below publishes it, and the capacity check keeps
        // the slot's previous occupant consumed before reuse — the same
        // argument as `NativeDeque::push`, with a plain u64 slot in
        // place of the `UnsafeCell`.
        unsafe { self.slot(b).write(value) };
        // Publish: Release orders the slot write before the bump (see
        // the proof note in `NativeDeque::push`; uat-check's RA explorer
        // covers this site through the shared ordering table).
        h.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner-only: pop the youngest entry (THE protocol).
    #[inline]
    pub fn pop(&self) -> Option<u64> {
        let h = self.hdr();
        let b = h.bottom.load(Ordering::Relaxed);
        let t = h.top.load(Ordering::Relaxed);
        if t >= b {
            return None;
        }
        let nb = b - 1;
        // T--; fence; read H — the SeqCst store/load Dekker pair.
        h.bottom.store(nb, Ordering::SeqCst);
        let t = h.top.load(Ordering::SeqCst);
        if t < nb {
            // Fast path: strictly more than one entry beyond top, so no
            // thief targets position nb. The bound must be strict —
            // `t <= nb` reintroduces the double claim uat-check finds in
            // 12 steps (see `NativeDeque::pop`).
            //
            // SAFETY: [I3] position nb is exclusively ours (above), and
            // slot reuse requires consumption first.
            return Some(unsafe { self.slot(nb).read() });
        }
        // Last entry or an overtaking thief: restore and arbitrate
        // under the lock.
        h.bottom.store(b, Ordering::SeqCst);
        self.acquire_lock();
        let t = h.top.load(Ordering::Relaxed);
        let result = if t >= b {
            None
        } else {
            h.bottom.store(b - 1, Ordering::Relaxed);
            // SAFETY: [I3][I4] under the lock with top < b, position b-1
            // is ours.
            Some(unsafe { self.slot(b - 1).read() })
        };
        self.release_lock();
        result
    }

    /// Thief: steal the oldest entry. Returns `None` if the deque is
    /// empty or another thief holds the lock (abort rather than queue,
    /// as the paper's RDMA thieves do). Safe to call from any process
    /// mapping the region.
    pub fn steal(&self) -> Option<u64> {
        let h = self.hdr();
        // Empty pre-check (the RDMA protocol's phase 1).
        let t = h.top.load(Ordering::Acquire);
        let b = h.bottom.load(Ordering::Acquire);
        if t >= b {
            return None;
        }
        if h.lock
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        let t = h.top.load(Ordering::Relaxed);
        // SeqCst pairs with the pop's bottom store.
        let b = h.bottom.load(Ordering::SeqCst);
        let result = if t >= b {
            None
        } else {
            // SAFETY: [I2][I3][I4] while we hold the lock, top is static
            // at t, so position t is live and cannot be consumed or its
            // slot reused under us — the full proof is the comment in
            // `NativeDeque::steal` and applies verbatim.
            let v = unsafe { self.slot(t).read() };
            h.top.store(t + 1, Ordering::SeqCst);
            Some(v)
        };
        self.release_lock();
        result
    }

    /// Entries currently in the deque (racy snapshot).
    pub fn len(&self) -> u64 {
        let h = self.hdr();
        let t = h.top.load(Ordering::Acquire);
        let b = h.bottom.load(Ordering::Acquire);
        b.saturating_sub(t)
    }

    /// Whether the deque appears empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum simultaneous entries.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An owned, zeroed, 8-byte-aligned block for in-process tests.
    /// (Cross-process placement is exercised by `uat-fiber`'s
    /// multiprocess runtime tests; the protocol is address-space
    /// agnostic, so threads over one block cover the same interleavings.)
    struct Block(Box<[u64]>);

    impl Block {
        fn new(capacity: usize) -> Self {
            Block(vec![0u64; ShmDeque::block_size(capacity) / 8].into_boxed_slice())
        }

        fn deque(&self, capacity: usize) -> ShmDeque {
            // SAFETY: [I14] the boxed slice is 8-byte aligned, zeroed,
            // big enough by construction, and outlives every handle the
            // tests create from it.
            unsafe { ShmDeque::from_raw(self.0.as_ptr() as *mut u8, capacity) }
        }
    }

    #[test]
    fn zeroed_block_is_valid_and_empty() {
        let blk = Block::new(4);
        let d = blk.deque(4);
        assert!(d.is_empty());
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), None);
        assert_eq!(d.capacity(), 4);
    }

    #[test]
    fn lifo_for_owner_fifo_for_thief() {
        let blk = Block::new(16);
        let d = blk.deque(16);
        for i in 0..6u64 {
            d.push(i);
        }
        assert_eq!(d.steal(), Some(0));
        assert_eq!(d.steal(), Some(1));
        assert_eq!(d.pop(), Some(5));
        assert_eq!(d.pop(), Some(4));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn wraparound() {
        let blk = Block::new(3);
        let d = blk.deque(3);
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
        let blk = Block::new(2);
        let d = blk.deque(2);
        d.push(1);
        d.push(2);
        d.push(3);
    }

    /// Conservation under one owner and several thieves: every pushed
    /// value consumed exactly once. Same harness as the native deque's,
    /// over a placement block.
    #[test]
    fn concurrent_conservation() {
        use std::sync::atomic::{AtomicU64 as Counter, Ordering as O};
        const PER_ROUND: u64 = 64;
        const ROUNDS: u64 = if cfg!(miri) { 4 } else { 200 };
        const THIEVES: usize = 3;
        let blk = Block::new(PER_ROUND as usize + 1);
        let d = blk.deque(PER_ROUND as usize + 1);
        let consumed = Counter::new(0);
        let sum = Counter::new(0);
        let done = Counter::new(0);

        std::thread::scope(|s| {
            for _ in 0..THIEVES {
                s.spawn(|| {
                    while done.load(O::Acquire) == 0 || !d.is_empty() {
                        if let Some(v) = d.steal() {
                            consumed.fetch_add(1, O::Relaxed);
                            sum.fetch_add(v, O::Relaxed);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
            }

            // Values are 1..=ROUNDS*PER_ROUND, so the expected sum is
            // closed-form and checkable after the scope joins.
            let mut next: u64 = 1;
            for _ in 0..ROUNDS {
                for _ in 0..PER_ROUND {
                    d.push(next);
                    next += 1;
                }
                while let Some(v) = d.pop() {
                    consumed.fetch_add(1, O::Relaxed);
                    sum.fetch_add(v, O::Relaxed);
                }
            }
            done.store(1, O::Release);
        });

        let n = ROUNDS * PER_ROUND;
        assert_eq!(consumed.load(O::Acquire), n);
        assert_eq!(sum.load(O::Acquire), n * (n + 1) / 2);
        assert!(d.is_empty());
    }

    /// The last-entry race: owner pop vs thief steal for a single entry;
    /// exactly one side may keep each value.
    #[test]
    fn last_entry_race_exactly_one_winner() {
        use std::sync::atomic::{AtomicU64 as Counter, Ordering as O};
        const ROUNDS: usize = if cfg!(miri) { 50 } else { 20_000 };
        let blk = Block::new(2);
        let d = blk.deque(2);
        let claims: Vec<Counter> = (0..ROUNDS).map(|_| Counter::new(0)).collect();
        let done = Counter::new(0);

        std::thread::scope(|s| {
            s.spawn(|| {
                while done.load(O::Acquire) == 0 {
                    if let Some(v) = d.steal() {
                        claims[v as usize].fetch_add(1, O::Relaxed);
                    }
                }
            });
            for r in 0..ROUNDS {
                d.push(r as u64);
                if let Some(v) = d.pop() {
                    claims[v as usize].fetch_add(1, O::Relaxed);
                }
            }
            done.store(1, O::Release);
        });

        assert!(d.is_empty());
        for (r, c) in claims.iter().enumerate() {
            assert_eq!(c.load(O::Acquire), 1, "round {r} claimed twice or lost");
        }
    }
}
