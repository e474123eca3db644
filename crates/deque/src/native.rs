//! The THE-protocol deque on real atomics: one protocol body, two
//! constructors.
//!
//! The Cilk-5 THE protocol verbatim: the owner pushes/pops at the bottom
//! without locks; thieves steal at the top under a spin lock; the owner
//! takes the lock only when it races a thief for the last entry. It is
//! written once, in [`TheDeque`], generic over the [`Storage`] holding
//! the control words and entries:
//!
//! - [`NativeDeque<T>`] owns its storage ([`Owned`]) — the thread
//!   runtime's per-worker deque;
//! - [`ShmDeque`] is a `Copy` handle ([`Placed`]) onto a caller's block
//!   laid out as [`crate::layout`] specifies, so a peer computes every
//!   word's address from the block base alone — the multiprocess
//!   runtime's deque, in a `MAP_SHARED` mapping at one address in every
//!   worker process, where the same lock-free atomics arbitrate processes.
//!
//! `uat-check`'s `OrdSpec::native()`, the loom harness, Miri, TSan and
//! the `uat-lint` ordering allowlist therefore all verify the code both
//! runtimes run.
//!
//! # Safety
//!
//! This module holds the crate's only `unsafe` code: raw slot accesses,
//! and a placed deque's dereference of the block its caller vouched for
//! (`[I14]`). The THE protocol is what makes the slot accesses sound:
//!
//! - slot `i % cap` is written only by the owner's `push` at position
//!   `i = bottom`, unobservable until the bottom store publishes it, and
//!   its reuse (position `i + cap`) waits on the capacity check until
//!   `top > i`, i.e. until every reader of position `i` is done;
//! - a position is *read* by exactly one side: a thief reads only the
//!   `top` it loaded inside its locked critical section (where `top`
//!   cannot move), and the owner's pop takes the lock whenever it wants
//!   that position (`top == bottom - 1` after the decrement) — so the
//!   last entry is always arbitrated under the lock.

use crate::layout::{OFF_BOTTOM, OFF_ENTRIES, OFF_LOCK, OFF_TOP};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

// Under `RUSTFLAGS="--cfg loom"` the control words become loom atomics
// (see shims/loom), `repr(transparent)` over the std atomic, so the
// layout contract below keeps holding.
#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};

/// The three THE control words, at the canonical [`crate::layout`]
/// offsets (`repr(C)`, asserted below). All zero is an empty, unlocked
/// deque.
#[repr(C)]
#[derive(Default)]
pub struct Words {
    lock: AtomicU64,
    top: AtomicU64,
    bottom: AtomicU64,
}

const _: () = {
    assert!(std::mem::offset_of!(Words, lock) as u64 == OFF_LOCK);
    assert!(std::mem::offset_of!(Words, top) as u64 == OFF_TOP);
    assert!(std::mem::offset_of!(Words, bottom) as u64 == OFF_BOTTOM);
    assert!(std::mem::size_of::<Words>() as u64 == OFF_ENTRIES);
};

/// Where a deque's control words and entries live — the one thing its
/// two constructors differ in.
///
/// # Safety
///
/// `capacity()` is positive and never changes; `slot(p)` is valid for
/// reads and writes of one `Entry` for every `p`, equal for positions
/// congruent modulo `capacity()` and disjoint otherwise; and neither the
/// words nor the slots are touched except through [`TheDeque`]'s
/// operations.
pub unsafe trait Storage {
    /// What one entry is.
    type Entry: Copy;
    /// The control words.
    fn words(&self) -> &Words;
    /// Maximum simultaneous entries.
    fn capacity(&self) -> usize;
    /// The slot holding `position`.
    fn slot(&self, position: u64) -> *mut Self::Entry;
}

/// A fixed-capacity THE-protocol work-stealing deque over storage `S`.
///
/// Owner/thief discipline is by convention: only the owning worker calls
/// [`push`](Self::push)/[`pop`](Self::pop); any thread — or, for a
/// placed deque, any process mapping the block — may call
/// [`steal`](Self::steal).
#[repr(transparent)]
#[derive(Clone, Copy, Debug)]
pub struct TheDeque<S> {
    store: S,
}

/// The THE deque that owns its storage. `T` must be `Copy`: entries are
/// small continuation descriptors (pointers + sizes), mirroring the
/// 32-byte `taskq_entry`.
pub type NativeDeque<T> = TheDeque<Owned<T>>;

/// The THE deque placed over a caller's block. Entries are bare `u64`s:
/// in the multiprocess runtime, the shared-region address of a suspended
/// continuation, meaningful in every process of the uni-address region.
pub type ShmDeque = TheDeque<Placed>;

/// A [`NativeDeque`]'s storage: the control words in a header, the
/// entries behind a pointer (fine intra-process, where no thief computes
/// remote addresses).
///
/// The header is aligned to 128 bytes — a cache line and the adjacent
/// line x86 prefetches with it — so the words its owner writes on every
/// push and pop share no line with anything else. Unaligned, two `Arc`ed
/// deques land 64 bytes apart when the allocator recycles small chunks,
/// and a fiber-runtime run is fast or half as fast by heap placement
/// alone (EXPERIMENTS.md, "Root cause").
#[repr(C, align(128))]
pub struct Owned<T> {
    words: Words,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// The layout contract: control words at `base + OFF_*`, exactly as the
// simulated deque lays them out in fabric memory.
const _: () = {
    assert!(std::mem::offset_of!(NativeDeque<u64>, store.words.lock) as u64 == OFF_LOCK);
    assert!(std::mem::offset_of!(NativeDeque<u64>, store.words.top) as u64 == OFF_TOP);
    assert!(std::mem::offset_of!(NativeDeque<u64>, store.words.bottom) as u64 == OFF_BOTTOM);
    // Its own line pair: the control words and the slot pointer fit the
    // first line, and the next deque starts two lines further on.
    assert!(std::mem::align_of::<NativeDeque<u64>>() == 128);
    assert!(std::mem::size_of::<NativeDeque<u64>>() == 128);
};

// SAFETY: [I1][I2][I3] all shared access to `slots` is mediated by the THE
// protocol as documented in the module header; T crosses threads by copy.
unsafe impl<T: Copy + Send> Sync for Owned<T> {}

// SAFETY: [I1][I2] `slot` indexes the boxed slice modulo its length,
// which `new` makes positive; words and slots are private to the deque.
unsafe impl<T: Copy> Storage for Owned<T> {
    type Entry = T;

    #[inline]
    fn words(&self) -> &Words {
        &self.words
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot(&self, position: u64) -> *mut T {
        self.slots[(position % self.slots.len() as u64) as usize]
            .get()
            .cast()
    }
}

impl<T: Copy> NativeDeque<T> {
    /// A deque with room for `capacity` simultaneous entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        let words = Words::default();
        let store = Owned { words, slots };
        TheDeque { store }
    }
}

/// A [`ShmDeque`]'s storage: the base and capacity of a block holding
/// the three control words plus the inline entries — position-independent
/// data any process mapping it at the same address can operate on. A
/// **zeroed block is a valid empty, unlocked deque**, so freshly mapped
/// `memfd` pages need no initialisation before the multiprocess fork.
#[derive(Clone, Copy, Debug)]
pub struct Placed {
    base: *mut u8,
    capacity: u64,
}

// SAFETY: [I14] the handle is two plain words; all shared access to the
// block is mediated by the THE protocol ([I1][I2][I3], as for `Owned`),
// and `from_raw`'s contract makes it valid wherever the region is mapped.
unsafe impl Send for Placed {}
// SAFETY: [I14] same argument as `Send`: `&Placed` only hands out the
// base/capacity words; concurrent block access is protocol-mediated.
unsafe impl Sync for Placed {}

// SAFETY: [I14] `from_raw` vouched for `block_size(capacity)` bytes at
// `base` with a positive capacity; `position % capacity` keeps every slot
// inside them, past the words.
unsafe impl Storage for Placed {
    type Entry = u64;

    #[inline]
    fn words(&self) -> &Words {
        // SAFETY: [I14] `from_raw` guarantees the block covers the
        // words, aligned and valid for the handle's lifetime; `Words` is
        // three atomics, so shared references race-freely by design.
        unsafe { &*(self.base as *const Words) }
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.capacity as usize
    }

    #[inline]
    fn slot(&self, position: u64) -> *mut u64 {
        let off = OFF_ENTRIES + (position % self.capacity) * 8;
        // SAFETY: [I14] `position % capacity` keeps the offset inside the
        // block `from_raw` vouched for.
        unsafe { self.base.add(off as usize).cast() }
    }
}

impl ShmDeque {
    /// Bytes occupied by a block with room for `capacity` entries.
    pub const fn block_size(capacity: usize) -> usize {
        OFF_ENTRIES as usize + capacity * 8
    }

    /// Wrap a raw block.
    ///
    /// # Safety
    ///
    /// `[I14]` `base` must point to at least [`block_size`](Self::block_size)
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
        let store = Placed {
            base,
            capacity: capacity as u64,
        };
        TheDeque { store }
    }
}

impl<S: Storage> TheDeque<S> {
    #[inline]
    fn acquire_lock(&self) {
        // Test-and-test-and-set spin lock; critical sections are a handful
        // of loads/stores so spinning is appropriate.
        let w = self.store.words();
        loop {
            if w.lock.load(Ordering::Relaxed) == 0
                && w.lock
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
        self.store.words().lock.store(0, Ordering::Release);
    }

    /// Owner-only: push an entry at the bottom.
    ///
    /// Panics on overflow (the runtimes size queues for the maximum
    /// outstanding task count, as the paper sizes the uni-address region).
    #[inline]
    pub fn push(&self, value: S::Entry) {
        let w = self.store.words();
        let b = w.bottom.load(Ordering::Relaxed);
        // `t <= b` whenever the owner is between ops: a thief only
        // advances top over an entry it may keep (t < bottom, and the
        // owner's last-entry pops go through the lock), and the owner's
        // own pops restore bottom before returning.
        let t = w.top.load(Ordering::Acquire);
        assert!(
            b - t < self.capacity() as u64,
            "task queue overflow (capacity {})",
            self.capacity()
        );
        // SAFETY: [I1][I2] position `b` is not visible to thieves until the bottom
        // store below, and the capacity check guarantees the slot's
        // previous occupant was consumed: reuse of a slot a thief is
        // reading (position `t + cap`) would need the loaded top to
        // exceed `t`, which cannot happen while that thief's critical
        // section holds top static at `t`.
        unsafe { self.store.slot(b).write(value) };
        // Publish: Release (not SeqCst) orders the slot write before the
        // bump for the thief's Acquire pre-check or SeqCst locked load;
        // push is no side of the pop/steal Dekker handshake. uat-check's
        // RA mode passes with Release and catches `push-publish-weak`
        // (Relaxed) with a stale-slot counterexample (DESIGN.md §11).
        w.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner-only: pop the youngest entry (THE protocol). Always
    /// inlined: it is the last step of every task both runtimes run.
    #[inline(always)]
    pub fn pop(&self) -> Option<S::Entry> {
        let w = self.store.words();
        let b = w.bottom.load(Ordering::Relaxed);
        let t = w.top.load(Ordering::Relaxed);
        if t >= b {
            return None;
        }
        let nb = b - 1;
        // T--; fence; read H — SeqCst gives the store-load ordering the
        // protocol's proof needs.
        w.bottom.store(nb, Ordering::SeqCst);
        let t = w.top.load(Ordering::SeqCst);
        if t < nb {
            // Fast path — strictly more than one entry beyond top, so
            // position nb cannot be any thief's target: a thief in its
            // critical section steals exactly the position it loaded as
            // top, which is <= t < nb.
            //
            // The bound must be strict: with `t <= nb` the owner takes
            // nb == t lock-free while a thief that read `top = t,
            // bottom > t` under the lock steals it too — the 12-step
            // double claim `uat-check`'s op-granularity model finds
            // (DESIGN.md section 7). SimDeque keeps the relaxed bound
            // soundly only because its engine events make the whole pop
            // atomic against whole steal phases.
            //
            // SAFETY: [I3] no thief can consume or claim position nb (above),
            // and slot reuse requires the position to be consumed first;
            // we own position nb exclusively.
            return Some(unsafe { self.store.slot(nb).read() });
        }
        // Last entry (t == nb) or a thief already overtook the
        // decrement: restore and arbitrate under the lock (victim
        // spins, exactly as Cilk's victim does).
        w.bottom.store(b, Ordering::SeqCst);
        self.acquire_lock();
        let t = w.top.load(Ordering::Relaxed);
        let result = if t >= b {
            // The thief won the last entry.
            None
        } else {
            w.bottom.store(b - 1, Ordering::Relaxed);
            // SAFETY: [I3][I4] under the lock with top < b, position b-1 is ours.
            Some(unsafe { self.store.slot(b - 1).read() })
        };
        self.release_lock();
        result
    }

    /// Thief: steal the oldest entry (FIFO end). Returns `None` if the
    /// deque is empty or another thief holds the lock (abort, as the
    /// paper's RDMA thieves do, rather than queue up).
    #[inline]
    pub fn steal(&self) -> Option<S::Entry> {
        // A constant clock: inlined, the stamps are dead code.
        self.steal_phased(|| 0).0
    }

    /// [`steal`](Self::steal) with phase-boundary timestamps from
    /// `clock`, for tracing thieves: the returned [`StealPhases`] brackets
    /// the empty pre-check, the lock acquisition, and the entry take the
    /// same way the paper's Table 3 brackets the RDMA protocol's phases.
    #[inline]
    pub fn steal_phased<C: FnMut() -> u64>(&self, mut clock: C) -> (Option<S::Entry>, StealPhases) {
        let w = self.store.words();
        let start = clock();
        // Empty pre-check (the RDMA protocol's phase 1).
        let t = w.top.load(Ordering::Acquire);
        let b = w.bottom.load(Ordering::Acquire);
        let checked = clock();
        let phases = move |locked, end, outcome| StealPhases {
            start,
            checked,
            locked,
            end,
            outcome,
        };
        if t >= b {
            return (None, phases(checked, checked, StealAttemptOutcome::Empty));
        }
        let won = w
            .lock
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        let locked = clock();
        if !won {
            return (None, phases(locked, locked, StealAttemptOutcome::LockBusy));
        }
        let t = w.top.load(Ordering::Relaxed);
        // SeqCst pairs with the pop's bottom store.
        let b = w.bottom.load(Ordering::SeqCst);
        let (result, outcome) = if t >= b {
            (None, StealAttemptOutcome::Raced)
        } else {
            // Under the lock `top` is static at t (only locked thieves
            // write it), and the owner never consumes t concurrently: its
            // fast path takes only positions above t, its last-entry path
            // takes this lock. So claiming after the read needs no Dekker
            // validation of bottom (which a pop + re-push would ABA).
            //
            // SAFETY: [I2][I3][I4] position t is live (t < b) and cannot be consumed
            // or its slot reused while top == t (push at position t+cap
            // fails the capacity check until top advances), so the read
            // observes a fully initialised entry that only we will keep.
            let v = unsafe { self.store.slot(t).read() };
            w.top.store(t + 1, Ordering::SeqCst);
            (Some(v), StealAttemptOutcome::Taken)
        };
        self.release_lock();
        (result, phases(locked, clock(), outcome))
    }

    /// Entries currently in the deque (racy snapshot).
    pub fn len(&self) -> u64 {
        let w = self.store.words();
        let t = w.top.load(Ordering::Acquire);
        let b = w.bottom.load(Ordering::Acquire);
        b.saturating_sub(t)
    }

    /// Whether the deque appears empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum simultaneous entries.
    pub fn capacity(&self) -> usize {
        self.store.capacity()
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

/// Clock readings bracketing the phases of one [`TheDeque::steal_phased`]
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
