//! The THE protocol, written once ([`TheDeque`]), and its placements.
//!
//! The Cilk-5 THE protocol verbatim: the owner pushes/pops at the bottom
//! without locks; thieves steal at the top under a lock; the owner
//! takes the lock only when it races a thief for the last entry. The
//! body runs over a [`Placement`], the word and slot operations it
//! performs, and three placements run it:
//!
//! - [`NativeDeque<T>`] owns its storage ([`Owned`]) — the thread
//!   runtime's per-worker deque;
//! - [`ShmDeque`] is a `Copy` handle ([`Placed`]) onto a caller's block
//!   laid out as [`crate::layout`] specifies, so a peer computes every
//!   word's address from the block base alone — the multiprocess
//!   runtime's deque, in a `MAP_SHARED` mapping at one address in every
//!   worker process, where the same lock-free atomics arbitrate processes;
//! - [`FabricDeque`](crate::FabricDeque) places the same layout in a
//!   worker's simulated registered RDMA memory — the simulator's deque.
//!
//! `uat-check`'s `OrdSpec::native()`, the loom harness, Miri, TSan and the
//! `uat-lint` ordering allowlist verify the body on the first two, real
//! atomics ([`Storage`]); `uat-check`'s replay holds it, in fabric memory,
//! to the model's phase semantics.
//!
//! # Safety
//!
//! This module holds the crate's `unsafe` code: raw slot accesses, and a
//! placed deque's dereference of the block its caller vouched for
//! (`[I14]`). The THE protocol is what makes the slot accesses sound:
//!
//! - slot `i mod S` is written only by the owner's `push` at position
//!   `i = bottom`, unobservable until the bottom store publishes it, and
//!   its reuse (position `i + S`, where `S ≥ cap` is the slot count)
//!   waits on the capacity check until `top > i`, i.e. until every
//!   reader of position `i` is done;
//! - a position is *read* by exactly one side: a thief reads only the
//!   `top` it loaded inside its locked critical section (where `top`
//!   cannot move), and the owner's pop takes the lock whenever it wants
//!   that position (`top == bottom - 1` after the decrement) — so the
//!   last entry is always arbitrated under the lock.

use crate::layout::{OFF_BOTTOM, OFF_ENTRIES, OFF_LOCK, OFF_TOP};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use uat_base::StealOutcome;

// Under `RUSTFLAGS="--cfg loom"` the control words become loom atomics
// (see shims/loom), `repr(transparent)` over the std atomic, so the
// layout contract below keeps holding.
#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};

/// A THE control word, as the body names it; `word as u64` is its byte
/// offset in the [`crate::layout`].
#[repr(u64)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Word {
    /// The lock word.
    Lock = OFF_LOCK,
    /// `top`, the steal end.
    Top = OFF_TOP,
    /// `bottom`, the owner end.
    Bottom = OFF_BOTTOM,
}

/// Where a THE deque's words and entries live, as the operations the
/// body performs on them: owner-side ones are local accesses; thief-side
/// ones are one-sided, issued by a [`Thief`](Self::Thief) at an instant,
/// and return the instant they complete. The orderings are the body's; a
/// placement without a weak memory model ignores them. What the
/// placements really differ in is named by the items in bold.
///
/// # Safety
///
/// `capacity()` is positive and never changes; the slot operations at
/// position `p` address one slot, disjoint from the words and from the
/// slot of every position fewer than `capacity()` away (one per
/// `p % capacity()`, or per `p` modulo any larger slot count); and
/// neither the words nor the slots are touched except through
/// [`TheDeque`]'s operations.
pub unsafe trait Placement {
    /// What one entry is.
    type Entry: Copy;
    /// What every operation goes through: nothing natively, where the
    /// placement holds its words; the fabric whose memory holds them.
    type Mem;
    /// Who issues a thief's operations: nobody natively, a worker on the
    /// fabric.
    type Thief: Copy;
    /// **Completion instants.** When a thief's operation completes:
    /// nothing natively (a real access is done when it returns), the
    /// cost model's instant on the fabric (the op linearizes at issue).
    type Instant: Copy;
    /// **Pop atomicity.** Whether a whole owner pop is atomic against
    /// thief phases, so none can fall between its decrement and its
    /// re-read. Then the relaxed last-entry bound `t <= nb`, taken
    /// lock-free, is sound: a thief holding the lock has not read the
    /// indices yet and will find the deque drained. A simulated pop is
    /// one event; a native pop is not, and there the strict `t < nb` is
    /// required — with `t <= nb` the owner and a thief that already read
    /// `top = t, bottom > t` under the lock both keep entry `t`, the
    /// 12-step double claim `uat-check`'s op-granularity model finds
    /// (DESIGN.md section 7).
    const ATOMIC_POP: bool;
    /// **An owner that meets a held lock.** `true`: its pop gives up with
    /// [`PopOutcome::Contended`] and the caller retries later — also on
    /// an empty deque, because "my last entry was stolen" may be
    /// concluded only once the thief unlocks, after its stack transfer
    /// (Figure 6). `false`: the owner spins in
    /// [`owner_lock`](Self::owner_lock), and an empty deque is empty.
    const OWNER_YIELDS: bool;

    /// Maximum simultaneous entries.
    fn capacity(&self) -> usize;
    /// Owner: read `word`.
    fn load(&self, mem: &Self::Mem, word: Word, ord: Ordering) -> u64;
    /// Owner: write `word`.
    fn store(&self, mem: &mut Self::Mem, word: Word, value: u64, ord: Ordering);
    /// Owner: read the entry at `position`.
    ///
    /// # Safety
    ///
    /// The owner owns `position` under the protocol (`[I3]`).
    unsafe fn read(&self, mem: &Self::Mem, position: u64) -> Self::Entry;
    /// Owner: write the entry at `position`.
    ///
    /// # Safety
    ///
    /// `position` is unpublished and its slot free (`[I1][I2]`).
    unsafe fn write(&self, mem: &mut Self::Mem, position: u64, entry: Self::Entry);
    /// **The lock**, owner side, to arbitrate the last entry. Returns
    /// `false`, without it, only where [`OWNER_YIELDS`](Self::OWNER_YIELDS)
    /// and a thief holds it. The owner releases it with a Release store
    /// of 0, a thief with [`put`](Self::put).
    fn owner_lock(&self, mem: &mut Self::Mem) -> bool;
    /// **The lock**, thief side: one attempt, which never queues.
    /// Returns whether it was won.
    fn try_lock(
        &self,
        mem: &mut Self::Mem,
        by: Self::Thief,
        at: Self::Instant,
    ) -> (bool, Self::Instant);
    /// Thief: read `(top, bottom)`. By default, as in shared memory, a
    /// thief's op is the owner's and completes at once.
    #[inline(always)]
    fn fetch_ends(
        &self,
        mem: &mut Self::Mem,
        _: Self::Thief,
        at: Self::Instant,
        top: Ordering,
        bottom: Ordering,
    ) -> (u64, u64, Self::Instant) {
        (
            self.load(mem, Word::Top, top),
            self.load(mem, Word::Bottom, bottom),
            at,
        )
    }
    /// Thief: read the entry at `position`.
    ///
    /// # Safety
    ///
    /// The thief holds the lock and read `top == position < bottom`
    /// under it (`[I2][I3][I4]`).
    #[inline(always)]
    unsafe fn fetch(
        &self,
        mem: &mut Self::Mem,
        _: Self::Thief,
        at: Self::Instant,
        position: u64,
    ) -> (Self::Entry, Self::Instant) {
        // SAFETY: [I2][I3][I4] the caller's position is ours under the lock.
        (unsafe { self.read(mem, position) }, at)
    }
    /// Thief: write `word`.
    #[inline(always)]
    fn put(
        &self,
        mem: &mut Self::Mem,
        _: Self::Thief,
        at: Self::Instant,
        word: Word,
        value: u64,
        ord: Ordering,
    ) -> Self::Instant {
        self.store(mem, word, value, ord);
        at
    }
}

/// A fixed-capacity THE-protocol work-stealing deque over placement `S`.
///
/// Owner/thief discipline is by convention: only the owning worker
/// pushes and pops; any thread — or, for a placed deque, any process
/// mapping the block — may steal.
#[repr(transparent)]
#[derive(Clone, Copy, Debug)]
pub struct TheDeque<S> {
    pub(crate) store: S,
}

/// Result of an owner pop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopOutcome<E> {
    /// Got the youngest entry (the parent was not stolen).
    Entry(E),
    /// Deque empty — the parent was stolen (Figure 4 line 15 `!ok`).
    Empty,
    /// A thief holds the lock: retry after its critical section (only
    /// where [`Placement::OWNER_YIELDS`]).
    Contended,
}

impl<S: Placement> TheDeque<S> {
    /// Owner-only: push an entry at the bottom.
    ///
    /// Panics on overflow (the runtimes size queues for the maximum
    /// outstanding task count, as the paper sizes the uni-address region).
    #[inline]
    pub fn push_in(&self, mem: &mut S::Mem, value: S::Entry) {
        let s = &self.store;
        let b = s.load(mem, Word::Bottom, Ordering::Relaxed);
        // `t <= b` whenever the owner is between ops: a thief only
        // advances top over an entry it may keep (t < bottom, and the
        // owner's last-entry pops go through the lock), and the owner's
        // own pops restore bottom before returning.
        let t = s.load(mem, Word::Top, Ordering::Acquire);
        assert!(
            b - t < s.capacity() as u64,
            "task queue overflow (capacity {})",
            s.capacity()
        );
        // SAFETY: [I1][I2] position `b` is not visible to thieves until the bottom
        // store below, and the capacity check guarantees the slot's
        // previous occupant was consumed: reuse of a slot a thief is
        // reading (position `t + cap`) would need the loaded top to
        // exceed `t`, which cannot happen while that thief's critical
        // section holds top static at `t`.
        unsafe { s.write(mem, b, value) };
        // Publish: Release (not SeqCst) orders the slot write before the
        // bump for the thief's Acquire pre-check or SeqCst locked load;
        // push is no side of the pop/steal Dekker handshake. uat-check's
        // RA mode passes with Release and catches `push-publish-weak`
        // (Relaxed) with a stale-slot counterexample (DESIGN.md §11).
        s.store(mem, Word::Bottom, b + 1, Ordering::Release);
    }

    /// Owner-only: pop the youngest entry (THE protocol). Always
    /// inlined: it is the last step of every task the runtimes run.
    #[inline(always)]
    pub fn pop_in(&self, mem: &mut S::Mem) -> PopOutcome<S::Entry> {
        let s = &self.store;
        let b = s.load(mem, Word::Bottom, Ordering::Relaxed);
        let t = s.load(mem, Word::Top, Ordering::Relaxed);
        if t >= b {
            // A thief that took the last entry may still be reading its
            // frames until it unlocks.
            if S::OWNER_YIELDS && s.load(mem, Word::Lock, Ordering::Relaxed) != 0 {
                return PopOutcome::Contended;
            }
            return PopOutcome::Empty;
        }
        let nb = b - 1;
        // T--; fence; read H — SeqCst gives the store-load ordering the
        // protocol's proof needs.
        s.store(mem, Word::Bottom, nb, Ordering::SeqCst);
        let t = s.load(mem, Word::Top, Ordering::SeqCst);
        if t < nb || (S::ATOMIC_POP && t == nb) {
            // Fast path — position nb cannot be any thief's target: a
            // thief in its critical section steals exactly the position
            // it loaded as top, which is <= t < nb (or, with an atomic
            // pop, it has not loaded it yet; see `ATOMIC_POP`).
            //
            // SAFETY: [I3] no thief can consume or claim position nb (above),
            // and slot reuse requires the position to be consumed first;
            // we own position nb exclusively.
            return PopOutcome::Entry(unsafe { s.read(mem, nb) });
        }
        // Last entry (t == nb) or a thief already overtook the
        // decrement: restore and arbitrate under the lock (a native
        // victim spins, exactly as Cilk's victim does).
        s.store(mem, Word::Bottom, b, Ordering::SeqCst);
        if !s.owner_lock(mem) {
            return PopOutcome::Contended;
        }
        let t = s.load(mem, Word::Top, Ordering::Relaxed);
        let result = if t >= b {
            // The thief won the last entry.
            PopOutcome::Empty
        } else {
            s.store(mem, Word::Bottom, b - 1, Ordering::Relaxed);
            // SAFETY: [I3][I4] under the lock with top < b, position b-1 is ours.
            PopOutcome::Entry(unsafe { s.read(mem, b - 1) })
        };
        s.store(mem, Word::Lock, 0, Ordering::Release);
        result
    }

    /// Thief phase 1, the *empty check*: whether the deque holds an
    /// entry; if not, the steal aborts.
    #[inline(always)]
    pub fn steal_check(
        &self,
        mem: &mut S::Mem,
        by: S::Thief,
        at: S::Instant,
    ) -> (bool, S::Instant) {
        let (t, b, done) = self
            .store
            .fetch_ends(mem, by, at, Ordering::Acquire, Ordering::Acquire);
        (t < b, done)
    }

    /// Thief phase 2, the *lock*: if another thief holds it, the steal
    /// aborts rather than queue (Figure 6 lines 11-12).
    #[inline(always)]
    pub fn steal_lock(&self, mem: &mut S::Mem, by: S::Thief, at: S::Instant) -> (bool, S::Instant) {
        self.store.try_lock(mem, by, at)
    }

    /// Thief phase 3, the *take*: read the indices, the top entry, and
    /// advance `top`. `None`: the owner drained the deque since the
    /// check. Either way the lock stays held.
    #[inline(always)]
    pub fn steal_take(
        &self,
        mem: &mut S::Mem,
        by: S::Thief,
        at: S::Instant,
    ) -> (Option<S::Entry>, S::Instant) {
        let s = &self.store;
        // SeqCst on bottom pairs with the pop's decrement.
        let (t, b, read) = s.fetch_ends(mem, by, at, Ordering::Relaxed, Ordering::SeqCst);
        if t >= b {
            return (None, read);
        }
        // Under the lock `top` is static at t (only locked thieves write
        // it), and the owner never consumes t concurrently: its fast
        // path takes only positions above t, its last-entry path takes
        // this lock. So claiming after the read needs no Dekker
        // validation of bottom (which a pop + re-push would ABA).
        //
        // SAFETY: [I2][I3][I4] position t is live (t < b) and cannot be consumed
        // or its slot reused while top == t (push at position t+cap
        // fails the capacity check until top advances), so the read
        // observes a fully initialised entry that only we will keep.
        let (v, read) = unsafe { s.fetch(mem, by, read, t) };
        let done = s.put(mem, by, read, Word::Top, t + 1, Ordering::SeqCst);
        (Some(v), done)
    }

    /// Thief phase 4, the *unlock*: after the stack transfer in the
    /// simulator (Figure 6), right after the take natively.
    #[inline(always)]
    pub fn steal_unlock(&self, mem: &mut S::Mem, by: S::Thief, at: S::Instant) -> S::Instant {
        self.store
            .put(mem, by, at, Word::Lock, 0, Ordering::Release)
    }

    /// A whole steal: the four phases back to back, the take's lock
    /// release being the unlock phase, with phase-boundary timestamps
    /// from `clock`. The returned [`StealPhases`] brackets them the way
    /// the paper's Table 3 brackets the RDMA protocol's phases.
    #[inline]
    pub fn steal_phased_in<C: FnMut() -> u64>(
        &self,
        mem: &mut S::Mem,
        by: S::Thief,
        at: S::Instant,
        mut clock: C,
    ) -> (Option<S::Entry>, StealPhases) {
        let start = clock();
        let (nonempty, at) = self.steal_check(mem, by, at);
        let checked = clock();
        let phases = move |locked, end, outcome| StealPhases {
            start,
            checked,
            locked,
            end,
            outcome,
        };
        if !nonempty {
            return (None, phases(checked, checked, StealOutcome::AbortEmpty));
        }
        let (won, at) = self.steal_lock(mem, by, at);
        let locked = clock();
        if !won {
            return (None, phases(locked, locked, StealOutcome::AbortLock));
        }
        let (got, at) = self.steal_take(mem, by, at);
        let outcome = match got {
            Some(_) => StealOutcome::Completed,
            None => StealOutcome::AbortRaced,
        };
        self.steal_unlock(mem, by, at);
        (got, phases(locked, clock(), outcome))
    }

    /// Entries currently in the deque (racy snapshot).
    pub fn len_in(&self, mem: &S::Mem) -> u64 {
        let t = self.store.load(mem, Word::Top, Ordering::Acquire);
        let b = self.store.load(mem, Word::Bottom, Ordering::Acquire);
        b.saturating_sub(t)
    }

    /// Maximum simultaneous entries.
    pub fn capacity(&self) -> usize {
        self.store.capacity()
    }
}

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

impl Words {
    #[inline(always)]
    fn get(&self, word: Word) -> &AtomicU64 {
        match word {
            Word::Lock => &self.lock,
            Word::Top => &self.top,
            Word::Bottom => &self.bottom,
        }
    }
}

/// Real memory holding a deque's control words and entries: every
/// `Storage` is a [`Placement`] on real atomics.
///
/// # Safety
///
/// `capacity()` is positive and never changes; `slot(p)` is valid for
/// reads and writes of one `Entry` for every `p`, and disjoint for any
/// two positions fewer than `capacity()` apart; and neither the
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

// SAFETY: [I1][I2][I3][I4] `Storage`'s contract is `Placement`'s, over
// real memory; the ops below are single atomic accesses and raw slot
// accesses whose callers carry the protocol's obligations.
unsafe impl<S: Storage> Placement for S {
    type Entry = S::Entry;
    type Mem = ();
    type Thief = ();
    type Instant = ();
    const ATOMIC_POP: bool = false;
    const OWNER_YIELDS: bool = false;

    #[inline(always)]
    fn capacity(&self) -> usize {
        Storage::capacity(self)
    }

    #[inline(always)]
    fn load(&self, _: &(), word: Word, ord: Ordering) -> u64 {
        self.words().get(word).load(ord)
    }

    #[inline(always)]
    fn store(&self, _: &mut (), word: Word, value: u64, ord: Ordering) {
        self.words().get(word).store(value, ord)
    }

    #[inline(always)]
    unsafe fn read(&self, _: &(), position: u64) -> S::Entry {
        // SAFETY: [I3] the caller owns `position`.
        unsafe { self.slot(position).read() }
    }

    #[inline(always)]
    unsafe fn write(&self, _: &mut (), position: u64, entry: S::Entry) {
        // SAFETY: [I1][I2] the caller's position is unpublished and free.
        unsafe { self.slot(position).write(entry) }
    }

    /// A test-and-test-and-set spin: critical sections are a handful of
    /// loads and stores, so the victim spins, as Cilk's does.
    #[inline]
    fn owner_lock(&self, _: &mut ()) -> bool {
        let w = self.words();
        loop {
            if w.lock.load(Ordering::Relaxed) == 0
                && w.lock
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return true;
            }
            std::hint::spin_loop();
        }
    }

    /// A CAS 0 → 1: Acquire on success heads the hand-off chain from
    /// the previous holder's Release unlock.
    #[inline(always)]
    fn try_lock(&self, _: &mut (), _: (), _: ()) -> (bool, ()) {
        let won = self
            .words()
            .lock
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        (won, ())
    }
}

/// How each phase of one [`TheDeque::steal_phased`] attempt was
/// bracketed by clock readings: `[start, checked)` is the empty
/// pre-check, `[checked, locked)` the lock acquisition, `[locked, end)`
/// the entry take and unlock. On an abort the later boundaries collapse
/// onto the point the attempt ended.
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
    pub outcome: StealOutcome,
}

impl<S: Storage> TheDeque<S> {
    /// Owner-only: [`push_in`](Self::push_in).
    #[inline]
    pub fn push(&self, value: S::Entry) {
        self.push_in(&mut (), value)
    }

    /// Owner-only: pop the youngest entry; `None` once the deque is
    /// empty (a native owner never sees [`PopOutcome::Contended`]).
    #[inline(always)]
    pub fn pop(&self) -> Option<S::Entry> {
        match self.pop_in(&mut ()) {
            PopOutcome::Entry(v) => Some(v),
            PopOutcome::Empty | PopOutcome::Contended => None,
        }
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
    /// `clock`, for tracing thieves; see
    /// [`steal_phased_in`](Self::steal_phased_in).
    #[inline]
    pub fn steal_phased<C: FnMut() -> u64>(&self, clock: C) -> (Option<S::Entry>, StealPhases) {
        self.steal_phased_in(&mut (), (), (), clock)
    }

    /// Entries currently in the deque (racy snapshot).
    pub fn len(&self) -> u64 {
        self.len_in(&())
    }

    /// Whether the deque appears empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
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
///
/// Its slots are the capacity rounded up to a power of two, so a
/// position finds its slot by a mask, not a division on every push and
/// pop; the runtimes' capacities are powers of two already.
#[repr(C, align(128))]
pub struct Owned<T> {
    words: Words,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    capacity: usize,
}

// The layout contract: control words at `base + OFF_*`, exactly as the
// fabric placement lays them out in simulated registered memory.
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

// SAFETY: [I1][I2] `slot` indexes the boxed slice by a mask of its
// length, a power of two `new` makes at least the capacity; words and
// slots are private to the deque.
unsafe impl<T: Copy> Storage for Owned<T> {
    type Entry = T;

    #[inline]
    fn words(&self) -> &Words {
        &self.words
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn slot(&self, position: u64) -> *mut T {
        self.slots[position as usize & (self.slots.len() - 1)]
            .get()
            .cast()
    }
}

impl<T: Copy> NativeDeque<T> {
    /// A deque with room for `capacity` simultaneous entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let slots = (0..capacity.next_power_of_two())
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        let words = Words::default();
        let store = Owned {
            words,
            slots,
            capacity,
        };
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
    /// The slot count less one: the capacity rounded up to a power of
    /// two, as [`Owned`]'s.
    mask: u64,
}

// SAFETY: [I14] the handle is three plain words; all shared access to the
// block is mediated by the THE protocol ([I1][I2][I3], as for `Owned`),
// and `from_raw`'s contract makes it valid wherever the region is mapped.
unsafe impl Send for Placed {}
// SAFETY: [I14] same argument as `Send`: `&Placed` only hands out the
// base/capacity/mask words; concurrent block access is protocol-mediated.
unsafe impl Sync for Placed {}

// SAFETY: [I14] `from_raw` vouched for `block_size(capacity)` bytes at
// `base` with a positive capacity, room for `mask + 1` slots; `position
// & mask` keeps every slot inside them, past the words.
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
        let off = OFF_ENTRIES + (position & self.mask) * 8;
        // SAFETY: [I14] `position & mask` keeps the offset inside the
        // block `from_raw` vouched for.
        unsafe { self.base.add(off as usize).cast() }
    }
}

impl ShmDeque {
    /// Bytes occupied by a block with room for `capacity` entries: one
    /// slot per entry, rounded up to a power of two.
    pub const fn block_size(capacity: usize) -> usize {
        OFF_ENTRIES as usize + capacity.next_power_of_two() * 8
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
            mask: capacity.next_power_of_two() as u64 - 1,
        };
        TheDeque { store }
    }
}
