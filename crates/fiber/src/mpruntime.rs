//! The multiprocess uni-address backend: one **process** per worker,
//! the paper's actual deployment model, as a first-class runtime.
//!
//! [`ipc`](crate::ipc) demonstrates the mechanism once (fork + fixed
//! mapping + one steal); this module makes it a driver. The coordinator
//! (parent) creates a single `memfd` and maps it `MAP_SHARED` at
//! [`MP_BASE`] with `MAP_FIXED_NOREPLACE` **before forking**, so every
//! worker process inherits *the same physical pages at the same virtual
//! address* — the uni-address region. Everything the protocol touches
//! lives inside it:
//!
//! - the **THE deques**, one per worker, 128 bytes apart or more: the
//!   thread runtime's deque — the same protocol body — placed over a
//!   block at the canonical `uat_deque::layout` offsets
//!   ([`uat_deque::ShmDeque`]);
//! - every **fiber stack** (fixed slots with guard pages), so a
//!   continuation's frames are already present in the thief's address
//!   space — a cross-process steal is deque atomics plus
//!   `resume_context`, zero messages *and* zero copies (the shared
//!   mapping is the transfer; compare [`ipc`](crate::ipc), where
//!   private mappings force a real `process_vm_readv`);
//! - each task's **record**, at the top of its slot's stack, its
//!   **program area** just above, and its parent's **join block**, so
//!   no private-heap pointer is ever reachable from a migratable stack
//!   (invariant [I16]);
//! - the **metrics segment** ([`uat_metrics::shm`] layout), per-worker
//!   counter cells the parent reads back through
//!   [`uat_rdma::OneSidedFabric`] windows — per-worker metrics export
//!   with no RPC — whose rows also hold each worker's termination cells;
//! - the **stats bank** (one single-writer accounting row per worker)
//!   and the **slot pool** (a locked LIFO of free stack slots behind
//!   one small cache per worker, which only its owner touches but for
//!   a rare raid, [I22]);
//! - the **control block**: shutdown word, raid flag, the three give-up
//!   flags (slot pool exhausted, frame too large for a slot's stack,
//!   program too large for a slot's program area), the block the root
//!   reports to, and the allocation-probe readings — nothing a task
//!   writes on its fast path.
//!
//! The workers run the one worker body the thread runtime runs
//! (`sched.rs`); what is this backend's own is its `Place` (`Mp`):
//! slots from `alloc_slot` instead of a stack pool, `ShmDeque`s,
//! termination cells in the metrics rows, a program area per slot,
//! giving up by `Ctrl` flag and `_exit`, and segment ticks for
//! observability — and how its workers come to exist, by `fork`.
//!
//! The coordinator decides nothing and polls nothing. The first idle
//! worker whose termination scan passes (`idle.rs`, shared with the
//! thread runtime) raises the shutdown word and wakes the coordinator,
//! which has been asleep on that word as a futex since the last fork;
//! its 10 ms timeout exists only to sweep for a worker that died without
//! a word, which nobody else could ever notice.
//!
//! Creating, running and finishing a task that nobody steals writes
//! only lines its own worker owns ([I17]): the worker's deque, its
//! accounting and metrics rows, its slot cache, and the stacks of the
//! task and its parent — the slot cache with plain loads and stores, no
//! lock ([I22]).
//!
//! A steal is therefore exactly the paper's: one-sided loads/stores/CAS
//! on the victim's deque words, a one-sided `fetch_add` when a child
//! whose parent was stolen decrements that parent's join block — the
//! only children the block ever counts ([I21]) — and a direct resume of
//! the stolen thread at its original address.
//!
//! # Fork safety (invariant [I15])
//!
//! The test harness that forks us is multithreaded, so a child may not
//! allocate or take any lock between `fork` and its worker-loop entry
//! (another thread could hold the allocator lock at fork time; glibc's
//! `fork` re-initialises malloc, but the runtime does not rely on it
//! during the window). The bootstrap path (`mp_bootstrap`) builds its
//! worker on its own stack, touching only shared-region atomics, and
//! enters the shared `worker_loop`, which finds the worker through the
//! same thread-local the thread runtime uses: a worker process has one
//! thread, `fork` copied its TLS block, and setting a `const`-initialised
//! `Cell` allocates nothing. `uat-lint`'s `fork-safety` rule scans
//! `mp_bootstrap` and its callees (the worker loop included) for
//! alloc/lock constructs, and the `mp_fork_safety` integration test
//! counts allocations across the window with a probing global
//! allocator. After the worker loop is entered, allocation is
//! permitted, but the task path makes none in steady state: programs
//! expand through one recycled per-process buffer, handed back before
//! the task's first migration point ([I16]).

use crate::frame::{FrameTooLarge, PAGE};
use crate::idle;
use crate::interp::{self, AcctRow, Env, EnvRef, NativeRunStats};
use crate::join::JoinBlock;
use crate::sched::{bump, place_record, worker_loop, Event, Place, TaskHeader, Worker};
use std::borrow::Borrow;
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{compiler_fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use uat_base::WorkerId;
use uat_deque::native::Placed;
use uat_deque::ShmDeque;
use uat_model::{Action, Workload};
use uat_rdma::{OneSidedFabric, ShmFabric};

/// Fixed virtual address of the multiprocess uni-address region (same
/// in every worker process; distinct from [`crate::ipc::UNI_BASE`] so
/// the two demonstrations can coexist in one test binary).
pub const MP_BASE: usize = 0x7e00_0000_0000;

/// Entries per worker deque (matches the thread runtime's sizing).
const DEQ_CAP: usize = 8192;
/// Bytes from one worker's deque block to the next: the block rounded up
/// to a 128-byte line pair, so a worker's control words share no line —
/// nor the line x86 prefetches with it — with its neighbour's entry
/// slots (the rule `NativeDeque`'s `align(128)` header keeps).
const DEQ_STRIDE: usize = ShmDeque::block_size(DEQ_CAP).next_multiple_of(128);
/// Bytes above each slot's stack for the program area of the task on
/// it. One task's whole program must fit: with 16-byte actions that is
/// 8 192 of them, so a `Chain::fig10(n)` root (`2n` actions) runs up to
/// `n = 4 096` and `fig10(20000)` is refused by name. The mapping is
/// sparse, so unused program pages cost nothing.
const PROG_BYTES: usize = 128 << 10;
/// Hard cap on worker processes (sizes the control block).
pub const MAX_WORKERS: usize = 64;
/// Entries in a worker's free-slot cache. A fixed array in the shared
/// region, so the cache needs no allocation ([I15]); the bound a run
/// actually uses is `2 * RegionLayout::slot_batch`, at most this.
const SLOT_CACHE_MAX: usize = 64;

// Per-worker cells of the exported metrics segment. Indices MUST match
// `uat_metrics::shm::SEGMENT_COUNTERS` order (asserted by a test below)
// so the parent-side snapshot names each cell correctly.
const MC_HEARTBEATS: usize = 0;
const MC_STEALS_COMPLETED: usize = 1;
const MC_STEALS_FAILED: usize = 2;
const MC_PARKS: usize = 3;
const MC_UNPARKS: usize = 4;
const MC_TASKS: usize = 5;
const MC_STRIDE: usize = 8;
// Unnamed in the exported segment: spawns made by the worker — with
// `MC_TASKS` (completions), its termination cells.
const MC_SPAWNED: usize = 6;

/// How long the coordinator sleeps on `Ctrl::shutdown_flag` between
/// looks for a worker that died without raising it.
const LIVENESS_SWEEP: std::time::Duration = std::time::Duration::from_millis(10);

/// Shared control block, at the very start of the region. No task
/// writes it on its fast path ([I17]): an idle worker's loop reads
/// `shutdown_flag`, and the one whose termination scan passes raises
/// it; every slot-cache fast path reads `raid`, and only a raid writes
/// it.
#[repr(C)]
struct Ctrl {
    /// Terminating worker → every worker loop (exit) and the
    /// coordinator, which sleeps on this word as a futex ([I20]).
    shutdown_flag: AtomicU32,
    /// Non-zero while a worker raids the slot caches ([I22]): every
    /// cache fast path loads it, only a raid (under the pool lock)
    /// stores it.
    raid: AtomicU32,
    /// Set by a worker that found no free stack slot anywhere, just
    /// before it exits; read by the coordinator when it finds a worker
    /// dead, to name the failure.
    slots_exhausted: AtomicU64,
    /// Likewise, by a worker asked to spawn a task whose frame does not
    /// fit a slot's stack: that frame's size (never 0) — and, stored
    /// first, the room it did not fit.
    frame_too_large: AtomicU64,
    frame_room: AtomicU64,
    /// Likewise, by a worker whose task's program does not fit its
    /// slot's program area: the program's action count.
    program_too_large: AtomicU64,
    /// The block the root reports its completion to, announced by the
    /// coordinator before `fork`.
    root: JoinBlock,
    /// Per-worker allocation count observed across the fork-safety
    /// window, written once at worker-loop entry (0 when no probe is
    /// installed; see [`set_bootstrap_alloc_probe`]).
    bootstrap_allocs: [AtomicU64; MAX_WORKERS],
    /// Per-worker allocation count over the whole worker loop, written
    /// once at its exit (same probe).
    run_allocs: [AtomicU64; MAX_WORKERS],
}

const _: () = assert!(std::mem::size_of::<Ctrl>() <= PAGE);

/// The control block of the mapped region.
fn ctrl() -> &'static Ctrl {
    // SAFETY: [I16] the region's first page, inside the live mapping
    // (see `RegionLayout::metrics_cell`); zero-filled is a valid `Ctrl`,
    // made of atomics.
    unsafe { &*(MP_BASE as *const Ctrl) }
}

/// Byte map of the region: every address any process computes comes
/// from this (pure arithmetic on `MP_BASE`), which is what makes the
/// layout a uni-address contract rather than per-process bookkeeping.
#[derive(Clone, Copy, Debug)]
struct RegionLayout {
    workers: usize,
    slots: usize,
    /// Slots a worker's cache takes from / returns to the pool at a
    /// time; the cache holds at most twice that.
    slot_batch: usize,
    /// Whole slot: guard page + stack + program area.
    slot_size: usize,
    metrics_off: usize,
    stats_off: usize,
    pool_off: usize,
    deques_off: usize,
    slots_off: usize,
    total: usize,
}

fn round_page(b: usize) -> usize {
    b.div_ceil(PAGE) * PAGE
}

impl RegionLayout {
    fn new(workers: usize, slots: usize, stack_size: usize) -> RegionLayout {
        assert!((1..=MAX_WORKERS).contains(&workers));
        assert!(slots > workers, "need at least one slot per worker");
        let metrics_off = PAGE;
        let stats_off = metrics_off + round_page(workers * MC_STRIDE * 8);
        let pool_off = stats_off + round_page(workers * std::mem::size_of::<AcctRow>());
        let pool_bytes = SlotStack::block_size(slots) + workers * SlotStack::CACHE_BLOCK;
        let deques_off = pool_off + round_page(pool_bytes);
        let slots_off = deques_off + round_page(workers * DEQ_STRIDE);
        let slot_size = PAGE + round_page(stack_size) + PROG_BYTES;
        RegionLayout {
            workers,
            slots,
            // A quarter of a worker's even share per batch: the caches
            // together never park more than half the pool.
            slot_batch: (slots / (4 * workers)).clamp(1, SLOT_CACHE_MAX / 2),
            slot_size,
            metrics_off,
            stats_off,
            pool_off,
            deques_off,
            slots_off,
            total: slots_off + slots * slot_size,
        }
    }

    fn metrics_cell_addr(&self, w: usize, c: usize) -> usize {
        debug_assert!(w < self.workers && c < MC_STRIDE);
        MP_BASE + self.metrics_off + (w * MC_STRIDE + c) * 8
    }

    /// Worker `w`'s metrics-segment cell `c`, a process-shared atomic
    /// only `w` writes.
    #[inline]
    fn metrics_cell(&self, w: usize, c: usize) -> &'static AtomicU64 {
        let addr = self.metrics_cell_addr(w, c);
        // SAFETY: [I16] an 8-aligned cell inside the live mapping; the
        // region outlives every worker's use of it (the coordinator
        // unmaps only after reaping).
        unsafe { &*(addr as *const AtomicU64) }
    }

    /// Worker `w`'s accounting row in the stats bank.
    fn stats_row(&self, w: usize) -> &'static AcctRow {
        debug_assert!(w < self.workers);
        let addr = MP_BASE + self.stats_off + w * std::mem::size_of::<AcctRow>();
        // SAFETY: [I16] a 64-byte-aligned row inside the live mapping
        // (zero-filled = a valid empty row), made of atomics only; the
        // region outlives every use (see `metrics_cell`).
        unsafe { &*(addr as *const AcctRow) }
    }

    /// The machine-wide free-slot stack.
    #[inline]
    fn slot_pool(&self) -> SlotStack {
        // SAFETY: [I16] `pool_off` starts a block of
        // `block_size(slots)` bytes inside the live mapping.
        unsafe { SlotStack::at(MP_BASE + self.pool_off, self.slots) }
    }

    /// Worker `w`'s free-slot cache.
    #[inline]
    fn slot_cache(&self, w: usize) -> SlotStack {
        debug_assert!(w < self.workers);
        let base = MP_BASE
            + self.pool_off
            + SlotStack::block_size(self.slots)
            + w * SlotStack::CACHE_BLOCK;
        // SAFETY: [I16] the `w`-th `CACHE_BLOCK` after the pool's block,
        // inside the live mapping.
        unsafe { SlotStack::at(base, SLOT_CACHE_MAX) }
    }

    /// Worker `w`'s deque handle (any process may construct any
    /// worker's handle — thieves do).
    #[inline]
    fn deque(&self, w: usize) -> ShmDeque {
        debug_assert!(w < self.workers);
        let base = MP_BASE + self.deques_off + w * DEQ_STRIDE;
        debug_assert!(base.is_multiple_of(128));
        // SAFETY: [I14] the block is inside the zero-initialised shared
        // mapping (same virtual address in every process), 128-byte
        // aligned by construction, and only ever accessed through
        // THE-protocol operations.
        unsafe { ShmDeque::from_raw(base as *mut u8, DEQ_CAP) }
    }

    fn slot_base(&self, slot: usize) -> usize {
        debug_assert!(slot < self.slots);
        MP_BASE + self.slots_off + slot * self.slot_size
    }

    /// The slot's stack: its top — the base of the slot's program area,
    /// with the task's record just below — and its lowest usable
    /// address, just above its guard page.
    fn slot_span(&self, slot: usize) -> (usize, usize) {
        let base = self.slot_base(slot);
        (base + self.slot_size - PROG_BYTES, base + PAGE)
    }

    /// `Action<D>`s a slot's program area holds.
    fn prog_capacity<D>() -> usize {
        PROG_BYTES / std::mem::size_of::<Action<D>>()
    }
}

// ---------------------------------------------------------------------
// The worker body's place, per process.
// ---------------------------------------------------------------------

/// The multiprocess backend's [`Place`]: its worker's id and the
/// region's layout. Plain per-process memory on the worker's own stack;
/// every worker process is single-threaded, and the parent never
/// touches it.
struct Mp {
    me: usize,
    layout: RegionLayout,
    /// The slot of the task that started here last: whose program area
    /// `program_area` hands out.
    running: usize,
}

impl Place for Mp {
    const KIND: u8 = 2;
    type Stack = usize;
    type Store = Placed;

    #[inline]
    fn take_stack(&mut self) -> (usize, (usize, usize)) {
        let slot = alloc_slot(&self.layout, self.me);
        (slot, self.layout.slot_span(slot))
    }

    #[inline]
    fn retire_stack(&mut self, slot: usize) {
        free_slot(&self.layout, self.me, slot);
    }

    #[inline]
    fn deque(&self, w: usize) -> impl Borrow<ShmDeque> + '_ {
        self.layout.deque(w)
    }

    #[inline]
    fn progress(&self, w: usize) -> (&AtomicU64, &AtomicU64) {
        let at = |c| self.layout.metrics_cell(w, c);
        (at(MC_SPAWNED), at(MC_TASKS))
    }

    fn shutdown(&self) -> &AtomicU32 {
        &ctrl().shutdown_flag
    }

    /// The slot's own area, above its stack: the task's program is
    /// copied there so that it migrates with the slot, not with a
    /// process-private heap [I16].
    #[inline]
    fn program_area<D>(&self, actions: usize) -> Option<*mut Action<D>> {
        if actions > RegionLayout::prog_capacity::<D>() {
            let n = actions as u64;
            ctrl().program_too_large.store(n, Ordering::Release);
            die(b"uat-fiber(mp): program too large; worker exiting\n", 105)
        }
        Some(self.layout.slot_span(self.running).0 as *mut Action<D>)
    }

    fn refuse_frame(e: FrameTooLarge, _slot: usize) -> ! {
        let ctrl = ctrl();
        ctrl.frame_room.store(e.room as u64, Ordering::Relaxed);
        ctrl.frame_too_large.store(e.frame, Ordering::Release);
        die(b"uat-fiber(mp): frame too large; worker exiting\n", 104)
    }

    /// The coordinator turns the exit status into a run failure.
    fn task_panicked() -> ! {
        die(b"uat-fiber(mp): task panicked; worker exiting\n", 101)
    }

    /// Scheduler counts, into this worker's metrics-segment row.
    #[inline]
    fn record(&mut self, e: Event<'_>) {
        let c = match e {
            Event::Loop => MC_HEARTBEATS,
            Event::Steal(_, Some(_), _) => MC_STEALS_COMPLETED,
            Event::Steal(..) => MC_STEALS_FAILED,
            Event::Park => MC_PARKS,
            Event::Unpark => MC_UNPARKS,
            _ => return,
        };
        bump(self.layout.metrics_cell(self.me, c), 1, Ordering::Relaxed);
    }

    #[inline]
    fn on_task_begin(&mut self, _task: u64, slot: &usize) -> [u64; 2] {
        self.running = *slot;
        [0; 2]
    }
}

// ---------------------------------------------------------------------
// Slot pool: one locked LIFO of free slot indices for the machine, and in
// front of it one small LIFO per worker that only its owner touches — but
// for a raid ([I22]).
// ---------------------------------------------------------------------

/// `busy` and length of a [`SlotStack`], on a cache line of their own.
#[repr(C, align(64))]
struct SlotStackHdr {
    /// The pool's TTAS spinlock; a cache's "owner inside a fast path".
    busy: AtomicU64,
    len: AtomicU64,
}

/// A view of one LIFO of free slot indices in the shared region: a
/// [`SlotStackHdr`] line followed by the entries, oldest first. Zero
/// bytes are a valid empty stack.
///
/// The pool's entries and length are touched only under its lock. A
/// worker's cache is touched by its owner with plain loads and stores
/// inside [`owned`](Self::owned), and otherwise only under the pool
/// lock: by the owner's slow paths, and by a [`raid`], which first
/// closes every owner's fast path.
#[derive(Clone, Copy)]
struct SlotStack {
    hdr: &'static SlotStackHdr,
    entries: &'static [AtomicU32],
}

/// Spin until `ready`, giving the CPU away every 64 rounds: the party
/// waited for may be preempted (more workers than CPUs).
fn spin_until(ready: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !ready() {
        spins += 1;
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

impl SlotStack {
    /// Bytes a worker's cache occupies (whole cache lines, so no two
    /// workers' caches share one).
    const CACHE_BLOCK: usize = Self::block_size(SLOT_CACHE_MAX);

    /// Bytes a stack of `cap` entries occupies, rounded to cache lines.
    const fn block_size(cap: usize) -> usize {
        (std::mem::size_of::<SlotStackHdr>() + cap * 4).div_ceil(64) * 64
    }

    /// # Safety
    ///
    /// `base` must be 64-byte aligned and start `block_size(cap)` bytes
    /// of the live shared mapping that nothing but `SlotStack` views
    /// touch.
    #[inline]
    unsafe fn at(base: usize, cap: usize) -> SlotStack {
        debug_assert!(base.is_multiple_of(64));
        let entries = (base + std::mem::size_of::<SlotStackHdr>()) as *const AtomicU32;
        // SAFETY: [I16] the caller's contract; header and entries are
        // atomics, so shared references across processes are sound.
        unsafe {
            SlotStack {
                hdr: &*(base as *const SlotStackHdr),
                entries: std::slice::from_raw_parts(entries, cap),
            }
        }
    }

    /// Take the pool's lock — the only lock on any slot stack.
    fn acquire(&self) {
        #[cfg(test)]
        tests::POOL_LOCKS.with(|n| n.set(n.get() + 1));
        let busy = &self.hdr.busy;
        spin_until(|| {
            busy.load(Ordering::Relaxed) == 0
                && busy
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
        });
    }

    fn release(&self) {
        self.hdr.busy.store(0, Ordering::Release);
    }

    /// Run `op` on this cache as its owner, with plain loads and stores,
    /// unless a raid is on ([I22]): `busy` raised by a store, then — a
    /// compiler fence apart; the raider's `membarrier` is the hardware
    /// half — `raid` loaded. `None` if a raid was on or `op` declined.
    #[inline]
    fn owned<R>(&self, raid: &AtomicU32, op: impl FnOnce(&Self) -> Option<R>) -> Option<R> {
        self.hdr.busy.store(1, Ordering::Relaxed);
        compiler_fence(Ordering::SeqCst);
        // Acquire: on 0 from a finished raid, its moves out of this cache.
        let got = if raid.load(Ordering::Acquire) == 0 {
            op(self)
        } else {
            None
        };
        // Release: `op`'s writes, to a raider whose Acquire sees 0 here.
        self.hdr.busy.store(0, Ordering::Release);
        got
    }

    #[inline]
    fn len(&self) -> usize {
        self.hdr.len.load(Ordering::Relaxed) as usize
    }

    #[inline]
    fn push(&self, slot: usize) {
        let n = self.len();
        self.entries[n].store(slot as u32, Ordering::Relaxed);
        self.hdr.len.store(n as u64 + 1, Ordering::Relaxed);
    }

    #[inline]
    fn pop(&self) -> Option<usize> {
        let n = self.len().checked_sub(1)?;
        self.hdr.len.store(n as u64, Ordering::Relaxed);
        Some(self.entries[n].load(Ordering::Relaxed) as usize)
    }

    /// Move `n` entries onto the top of `dst` in their present order:
    /// the `oldest` (bottom) ones, closing the gap, or else the newest.
    fn move_to(&self, dst: &SlotStack, n: usize, oldest: bool) {
        let (have, at) = (self.len(), dst.len());
        let first = if oldest { 0 } else { have - n };
        for k in 0..n {
            let slot = self.entries[first + k].load(Ordering::Relaxed);
            dst.entries[at + k].store(slot, Ordering::Relaxed);
        }
        if oldest {
            for k in n..have {
                let slot = self.entries[k].load(Ordering::Relaxed);
                self.entries[k - n].store(slot, Ordering::Relaxed);
            }
        }
        self.hdr.len.store((have - n) as u64, Ordering::Relaxed);
        dst.hdr.len.store((at + n) as u64, Ordering::Relaxed);
    }
}

/// Take a free slot for a task spawned on worker `me`: the top of the
/// worker's own cache — the stack it freed last, still warm in its CPU
/// cache — with no `lock`-prefixed instruction ([I22]).
#[inline]
fn alloc_slot(layout: &RegionLayout, me: usize) -> usize {
    let cache = layout.slot_cache(me);
    cache
        .owned(&ctrl().raid, SlotStack::pop)
        .unwrap_or_else(|| alloc_slot_slow(layout, me))
}

/// Return a dead task's slot to worker `me`'s cache.
#[inline]
fn free_slot(layout: &RegionLayout, me: usize, slot: usize) {
    let cache = layout.slot_cache(me);
    let room = |c: &SlotStack| (c.len() < 2 * layout.slot_batch).then(|| c.push(slot));
    if cache.owned(&ctrl().raid, room).is_none() {
        free_slot_slow(layout, me, slot);
    }
}

/// The cache was empty, or a raid was on: under the pool lock, refill a
/// batch of the pool's newest — or, the pool empty too, [`raid`] a peer.
#[cold]
#[inline(never)]
fn alloc_slot_slow(layout: &RegionLayout, me: usize) -> usize {
    let (pool, mine) = (layout.slot_pool(), layout.slot_cache(me));
    pool.acquire();
    if mine.len() == 0 {
        if pool.len() > 0 {
            pool.move_to(&mine, pool.len().min(layout.slot_batch), false);
        } else {
            raid(layout, me);
        }
    }
    let got = mine.pop();
    pool.release();
    got.unwrap_or_else(|| {
        ctrl().slots_exhausted.store(1, Ordering::Release);
        die(b"uat-fiber(mp): slot pool exhausted; worker exiting\n", 103)
    })
}

/// The cache was full, or a raid was on: under the pool lock, spill the
/// batch the worker has left unused longest, then push.
#[cold]
#[inline(never)]
fn free_slot_slow(layout: &RegionLayout, me: usize, slot: usize) {
    let (pool, mine) = (layout.slot_pool(), layout.slot_cache(me));
    pool.acquire();
    if mine.len() == 2 * layout.slot_batch {
        mine.move_to(&pool, layout.slot_batch, true);
    }
    mine.push(slot);
    pool.release();
}

/// Worker `me`'s cache and the pool are empty and `me` holds the pool
/// lock: move the older half of the fullest other cache into `me`'s.
/// First every fast path is closed ([I22]) — `raid` raised, one
/// `membarrier`, every other `busy` seen clear — so the free-slot state
/// is frozen, and finding nothing means no slot was free anywhere.
fn raid(layout: &RegionLayout, me: usize) {
    let raid = &ctrl().raid;
    // Relaxed: the barrier publishes it, and drains every owner's store
    // of `busy` before the loads below.
    raid.store(1, Ordering::Relaxed);
    let barrier = membarrier(libc::MEMBARRIER_CMD_GLOBAL_EXPEDITED);
    assert_eq!(barrier, 0, "no barrier: the raid cannot exclude owners");
    let peers = || {
        (0..layout.workers)
            .filter(move |&w| w != me)
            .map(|w| layout.slot_cache(w))
    };
    for c in peers() {
        spin_until(|| c.hdr.busy.load(Ordering::Acquire) == 0);
    }
    if let Some(victim) = peers().max_by_key(|c| c.len()) {
        victim.move_to(&layout.slot_cache(me), victim.len().div_ceil(2), true);
    }
    // Release: the move, to the victim's next fast path.
    raid.store(0, Ordering::Release);
}

/// `membarrier(2)`: one raw syscall.
fn membarrier(cmd: i32) -> i64 {
    // SAFETY: [I22] the command takes no pointer; flags and cpu id 0.
    unsafe { libc::syscall(libc::SYS_membarrier, cmd, 0u32, 0i32) }
}

/// Give the run up from a worker, having told the coordinator why in
/// its flag of the control block: say so on stderr and exit with
/// `status`. No `panic!` — its hook takes the stderr lock and
/// allocates, and either may be held by a parent thread that did not
/// survive `fork`; a worker that hung here would hang the run.
fn die(msg: &[u8], status: i32) -> ! {
    // SAFETY: [I10] async-signal-safe raw write + process exit.
    unsafe {
        libc::write(2, msg.as_ptr() as *const c_void, msg.len());
        libc::_exit(status)
    }
}

// ---------------------------------------------------------------------
// Fork-safety probe (test hook).
// ---------------------------------------------------------------------

/// Probe function installed by [`set_bootstrap_alloc_probe`], as a raw
/// fn pointer (0 = none). Inherited by workers across `fork`.
static BOOTSTRAP_PROBE: AtomicU64 = AtomicU64::new(0);

/// Install an allocation-count probe (e.g. a counting global
/// allocator's counter read). Each worker samples it immediately after
/// `fork` and again at worker-loop entry; the difference — which must
/// be 0 — lands in the shared control block and is reported as
/// [`MpReport::bootstrap_allocs`]. The probe must itself be
/// allocation-free and async-fork-safe (a plain atomic read).
pub fn set_bootstrap_alloc_probe(probe: fn() -> u64) {
    BOOTSTRAP_PROBE.store(probe as usize as u64, Ordering::SeqCst);
}

fn probe_allocs() -> u64 {
    let p = BOOTSTRAP_PROBE.load(Ordering::SeqCst);
    if p == 0 {
        return 0;
    }
    // SAFETY: [I15] p was stored from a `fn() -> u64` pointer by
    // `set_bootstrap_alloc_probe` in the pre-fork parent; fn pointers
    // survive fork unchanged.
    let f: fn() -> u64 = unsafe { std::mem::transmute::<usize, fn() -> u64>(p as usize) };
    f()
}

// ---------------------------------------------------------------------
// The worker process.
// ---------------------------------------------------------------------

/// Worker bootstrap: everything between `fork` and the scheduler loop,
/// then the loop — worker 0 starts the root, whose record the
/// coordinator wrote — then `_exit`.
///
/// **Fork-safety window [I15]**: from entry until the probe delta is
/// recorded, this path must not allocate, take any lock, or call
/// anything that might (the parent is multithreaded; another thread may
/// hold the allocator lock at fork time). `uat-lint`'s `fork-safety`
/// rule enforces the discipline statically over this function and its
/// direct callees; the `mp_fork_safety` test enforces it dynamically.
fn mp_bootstrap(id: usize, layout: RegionLayout, root: *mut TaskHeader<usize>) -> ! {
    let before = probe_allocs();
    let place = Mp {
        me: id,
        layout,
        running: 0,
    };
    let mut worker = Worker::new(id, layout.workers, place);
    let ctrl = ctrl();
    ctrl.bootstrap_allocs[id].store(probe_allocs().wrapping_sub(before), Ordering::Release);
    // Window closed: from here on allocation is permitted again.
    let at_entry = probe_allocs();
    worker_loop(&mut worker, (id == 0).then_some(root));
    ctrl.run_allocs[id].store(probe_allocs().wrapping_sub(at_entry), Ordering::Release);
    // SAFETY: [I10] _exit skips atexit handlers and destructors — the
    // worker owns nothing outside the shared region worth destructing,
    // and must not run the parent's cloned cleanup.
    unsafe { libc::_exit(0) }
}

// ---------------------------------------------------------------------
// The coordinator-side driver.
// ---------------------------------------------------------------------

/// One multiprocess run's full report: the backend-invariant stats plus
/// the fork-safety probe readings and the raw metrics-segment cells the
/// parent read back through its fabric windows.
#[derive(Clone, Debug)]
pub struct MpReport {
    /// Same accounting as a [`NativeRunner`](crate::NativeRunner) run.
    pub stats: NativeRunStats,
    /// Allocations each worker observed between `fork` and worker-loop
    /// entry (all 0 unless a probe caught a fork-safety regression).
    pub bootstrap_allocs: Vec<u64>,
    /// Allocations each worker observed over its whole worker loop: a
    /// small constant (its program buffer's growth), not per task.
    pub run_allocs: Vec<u64>,
    /// The metrics segment's cells, worker-major with
    /// `uat_metrics::shm` layout, read via `uat_rdma::OneSidedFabric`.
    pub metric_words: Vec<u64>,
}

#[cfg(feature = "metrics")]
impl MpReport {
    /// The run's metrics as an ordinary registry snapshot.
    pub fn metrics_snapshot(&self) -> uat_metrics::Snapshot {
        uat_metrics::shm::SegmentLayout::new(self.stats.workers as usize)
            .snapshot(&self.metric_words)
    }
}

/// Serialises multiprocess runs within one OS process: the region lives
/// at a fixed virtual address, so two concurrent runs (e.g. parallel
/// `cargo test` threads) would collide on `MAP_FIXED_NOREPLACE`.
static MP_RUN_LOCK: Mutex<()> = Mutex::new(());

/// Driver that runs any [`Workload`] on the multiprocess uni-address
/// backend — same interface shape as [`NativeRunner`](crate::NativeRunner),
/// with `W::Desc: Copy` (descriptors cross process boundaries as plain
/// bytes in the shared region).
#[derive(Clone, Debug)]
pub struct MultiProcessRunner {
    workers: usize,
    stack_size: usize,
    work_divisor: u64,
    slots: usize,
}

impl MultiProcessRunner {
    /// A runner with `workers` worker processes.
    pub fn new(workers: usize) -> Self {
        assert!(
            (1..=MAX_WORKERS).contains(&workers),
            "1..={MAX_WORKERS} workers"
        );
        MultiProcessRunner {
            workers,
            stack_size: 128 << 10,
            work_divisor: 1,
            slots: 1024,
        }
    }

    /// Override the per-task usable stack bytes (default 128 KiB).
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Divide every `Work(c)` spin by `div` (accounting still records
    /// the full `c`), as the differential tests do.
    pub fn with_work_divisor(mut self, div: u64) -> Self {
        assert!(div >= 1);
        self.work_divisor = div;
        self
    }

    /// Override the stack-slot count (default 1024). Bounds the
    /// simultaneously live tasks, exactly as the paper's fixed-size
    /// uni-address region bounds them.
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Probe whether this host can run the multiprocess backend: a
    /// `memfd` + `MAP_FIXED_NOREPLACE` mapping at [`MP_BASE`] must
    /// succeed, and `membarrier` must offer the expedited global barrier
    /// the slot caches' raid relies on ([I22]). Returns the reason when it cannot (callers should treat
    /// that as "skip", mirroring the ipc probes).
    pub fn probe_support() -> Result<(), String> {
        // Serialize with live runs: the probe maps a page at MP_BASE,
        // so an unlocked probe can both fail spuriously against a
        // concurrent run's mapping (silently skipping tests) and make
        // that run's own MAP_FIXED_NOREPLACE fail.
        let _guard = MP_RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        map_region(PAGE).map(drop)
    }

    /// Run `w` to completion across worker processes; panics on
    /// unsupported hosts (use [`try_run`](Self::try_run) to skip).
    pub fn run<W>(&self, w: W) -> NativeRunStats
    where
        W: Workload,
        W::Desc: Copy,
    {
        self.try_run(w)
            .expect("multiprocess backend unavailable")
            .stats
    }

    /// Like [`run`](Self::run), additionally returning the run's
    /// metrics snapshot assembled from the shared segment.
    #[cfg(feature = "metrics")]
    pub fn run_metered<W>(&self, w: W) -> (NativeRunStats, uat_metrics::Snapshot)
    where
        W: Workload,
        W::Desc: Copy,
    {
        let report = self.try_run(w).expect("multiprocess backend unavailable");
        let snap = report.metrics_snapshot();
        (report.stats, snap)
    }

    /// Run `w`, reporting `Err` (instead of panicking) when the host
    /// cannot map the region — sandboxes without `memfd_create` or with
    /// the fixed address range occupied.
    pub fn try_run<W>(&self, w: W) -> Result<MpReport, String>
    where
        W: Workload,
        W::Desc: Copy,
    {
        // One multiprocess run at a time per OS process (fixed-address
        // region). A poisoned lock just means another test's run
        // panicked; the region was unmapped on that panic path is NOT
        // guaranteed, but the mapping attempt below will fail loudly
        // rather than corrupt anything (NOREPLACE).
        let _guard = MP_RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let layout = RegionLayout::new(self.workers, self.slots, self.stack_size);
        // Dropped (unmapped) on the way out of a panicking run too — a
        // dead worker, an exhausted slot pool — or the next run in this
        // process could not map the region.
        let _region = map_region(layout.total)?;
        Ok(self.run_mapped(&layout, w))
    }

    fn run_mapped<W>(&self, layout: &RegionLayout, w: W) -> MpReport
    where
        W: Workload,
        W::Desc: Copy,
    {
        let (workload, capacity) = (w.name(), RegionLayout::prog_capacity::<W::Desc>());
        // Guard pages: PROT_NONE at the low end of every slot,
        // established once before fork and inherited by every worker.
        for s in 0..layout.slots {
            // SAFETY: [I10] each guard page is inside our fresh mapping.
            let rc = unsafe {
                libc::mprotect(layout.slot_base(s) as *mut c_void, PAGE, libc::PROT_NONE)
            };
            assert_eq!(rc, 0, "mprotect(slot guard) failed");
        }
        let ctrl = ctrl();
        // Every slot but the root's (slot 0) starts in the pool, lowest
        // index on top; the workers' caches start empty. Pre-fork and
        // single-threaded, so the pool's lock is not needed.
        let pool = layout.slot_pool();
        for s in (1..layout.slots).rev() {
            pool.push(s);
        }
        // The run's environment, built before `fork`: copy-on-write, it
        // sits at the same address in every worker; the accounting rows
        // it points the tasks at are the region's.
        let env = Env::new(w, Box::new([]), layout.workers, self.work_divisor);
        let env_ref = EnvRef {
            env: &env,
            rows: layout.stats_row(0),
        };
        // The root is an ordinary record in slot 0, counted on a block
        // of its own; its frame is checked here, where a refusal can
        // still be an ordinary panic.
        let root = env.w.root();
        let frame = env.w.frame_size(&root);
        ctrl.root.announce();
        let body = move || interp::exec::<Mp, W>(env_ref, &root, frame, 0);
        let root = place_record::<Mp, (), _>(0, layout.slot_span(0), &ctrl.root, 0, frame, body)
            .unwrap_or_else(|(e, _)| panic!("multiprocess: {e} (the root's)"));

        // Flush inherited stdio buffers so workers cannot re-emit them.
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        let _ = std::io::stderr().flush();

        let t0 = std::time::Instant::now();
        let mut pids = Vec::with_capacity(layout.workers);
        for id in 0..layout.workers {
            // SAFETY: [I10][I15] fork; the child immediately enters the
            // alloc-free, lock-free bootstrap path and leaves via
            // _exit, never returning into this function's frame.
            let pid = unsafe { libc::fork() };
            assert!(pid >= 0, "fork failed");
            if pid == 0 {
                // ----- worker process -----
                let exit = catch_unwind(AssertUnwindSafe(|| mp_bootstrap(id, *layout, root)));
                // Reached only if bootstrap/scheduler panicked.
                let _ = exit;
                // SAFETY: [I10] async-signal-safe process exit.
                unsafe { libc::_exit(102) }
            }
            pids.push(pid);
        }

        // Coordinate: asleep on the shutdown word until the worker whose
        // scan passes raises it and wakes us. The timeout's only job is
        // the sweep for a worker that died without a word (a signal, a
        // panic's `_exit`), whose tasks would never complete; once the
        // run is over the same loop reaps, blocking.
        let mut live = pids;
        while !live.is_empty() {
            idle::futex_wait(&ctrl.shutdown_flag, 0, LIVENESS_SWEEP);
            let over = ctrl.shutdown_flag.load(Ordering::Acquire) != 0;
            let mut i = 0;
            while i < live.len() {
                let (pid, mut status) = (live[i], 0);
                let flags = if over { 0 } else { libc::WNOHANG };
                // SAFETY: [I10] status poll (a blocking reap once the
                // run is over) of our own child.
                let r = unsafe { libc::waitpid(pid, &mut status, flags) };
                if r == 0 {
                    i += 1;
                    continue;
                }
                assert_eq!(r, pid, "waitpid failed");
                live.swap_remove(i);
                // Status 0 is a worker that saw (or raised) shutdown,
                // even if our own look at the flag came just before.
                if !(libc::WIFEXITED(status) && libc::WEXITSTATUS(status) == 0) {
                    fail_run(ctrl, layout, capacity, &live, pid, status);
                }
            }
        }
        let wall = t0.elapsed();

        // Metrics export, the uni-address way: the parent registers
        // each worker's segment row as that worker's RDMA window and
        // READs the cells through the fabric — per-worker metrics with
        // no RPC and no pipes.
        let (mut fabric, parent) = (ShmFabric::new(), WorkerId(layout.workers as u32));
        let mut metric_words = Vec::with_capacity(layout.workers * MC_STRIDE);
        for wk in 0..layout.workers {
            let (row, id) = (layout.metrics_cell_addr(wk, 0) as u64, WorkerId(wk as u32));
            let mut buf = [0u8; MC_STRIDE * 8];
            // SAFETY: [I13] the row is inside the live mapping, shared
            // with worker `wk` at this same address; the workers have
            // exited, so no location is concurrently written.
            unsafe { fabric.register_region(id, row, buf.len()) }.expect("register metrics window");
            fabric.read(parent, id, row, &mut buf).expect("metrics row");
            for c in buf.chunks_exact(8) {
                metric_words.push(u64::from_le_bytes(c.try_into().unwrap()));
            }
        }
        let msum = |c: usize| -> u64 {
            (0..layout.workers)
                .map(|wk| metric_words[wk * MC_STRIDE + c])
                .sum()
        };
        let probed = |cells: &[AtomicU64]| -> Vec<u64> {
            cells[..layout.workers]
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .collect()
        };

        // The workers were reaped, so every row holds its final values.
        let stats = AcctRow::totals(
            (0..layout.workers).map(|wk| layout.stats_row(wk)),
            NativeRunStats {
                workload,
                workers: layout.workers as u32,
                steals: msum(MC_STEALS_COMPLETED),
                parks: msum(MC_PARKS),
                unparks: msum(MC_UNPARKS),
                wall,
                ..NativeRunStats::default()
            },
        );
        // What the termination scan summed must be what ran: every
        // task started exactly once, completed exactly once, and every
        // one but the root was spawned.
        assert_eq!(msum(MC_TASKS), stats.total_tasks, "completed != started");
        assert_eq!(
            msum(MC_SPAWNED) + 1,
            stats.total_tasks,
            "spawned != started"
        );
        debug_assert!(ctrl.root.is_done());
        MpReport {
            stats,
            bootstrap_allocs: probed(&ctrl.bootstrap_allocs),
            run_allocs: probed(&ctrl.run_allocs),
            metric_words,
        }
    }
}

/// A worker is gone with the run unfinished: kill and reap the
/// survivors — they would idle forever on tasks that can no longer
/// complete — and fail the run, by the dead worker's own word if it
/// left one in `ctrl` (`capacity`: the actions a program area holds).
fn fail_run(
    ctrl: &Ctrl,
    layout: &RegionLayout,
    capacity: usize,
    live: &[libc::pid_t],
    pid: libc::pid_t,
    status: i32,
) -> ! {
    for &p in live {
        // SAFETY: [I10] killing our own children.
        unsafe { libc::kill(p, libc::SIGKILL) };
    }
    for &p in live {
        // SAFETY: [I10] reaping our own children.
        unsafe { libc::waitpid(p, std::ptr::null_mut(), 0) };
    }
    if ctrl.slots_exhausted.load(Ordering::Acquire) != 0 {
        panic!(
            "multiprocess stack slot pool exhausted ({} slots)",
            layout.slots
        );
    }
    let frame = ctrl.frame_too_large.load(Ordering::Acquire);
    if frame != 0 {
        let room = ctrl.frame_room.load(Ordering::Relaxed) as usize;
        panic!("multiprocess: {}", FrameTooLarge { frame, room });
    }
    let actions = ctrl.program_too_large.load(Ordering::Acquire);
    if actions != 0 {
        panic!(
            "multiprocess: a task program of {actions} actions exceeds the \
             {capacity}-action program area of a stack slot"
        );
    }
    panic!("multiprocess worker {pid} died mid-run (status {status:#x})");
}

/// The mapping [`map_region`] made; dropping it unmaps.
struct Region {
    total: usize,
}

impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: [I10] unmapping exactly what map_region mapped; every
        // worker has been reaped or killed, so no other process holds
        // the pages via us (the memfd itself dies with its last
        // mapping).
        unsafe { libc::munmap(MP_BASE as *mut c_void, self.total) };
    }
}

/// Create the memfd-backed shared mapping at [`MP_BASE`], and register
/// this process for the raid's barrier, which every worker forked from
/// it inherits ([I22]). Errors (not panics) on hosts that cannot, so
/// callers can skip with a reason.
fn map_region(total: usize) -> Result<Region, String> {
    let cmds = membarrier(libc::MEMBARRIER_CMD_QUERY);
    if cmds < 0
        || cmds & libc::MEMBARRIER_CMD_GLOBAL_EXPEDITED as i64 == 0
        || membarrier(libc::MEMBARRIER_CMD_REGISTER_GLOBAL_EXPEDITED) != 0
    {
        return Err("membarrier(MEMBARRIER_CMD_GLOBAL_EXPEDITED) unavailable".into());
    }
    // SAFETY: [I10] memfd + MAP_SHARED|MAP_FIXED_NOREPLACE at an
    // address chosen to be free; NOREPLACE turns a collision into an
    // error instead of a clobber. Every result is checked.
    unsafe {
        let fd = libc::syscall(libc::SYS_memfd_create, c"uat-mp-region".as_ptr(), 0u32) as i32;
        if fd < 0 {
            return Err(format!(
                "memfd_create unavailable: {}",
                std::io::Error::last_os_error()
            ));
        }
        if libc::ftruncate(fd, total as libc::off_t) != 0 {
            let e = std::io::Error::last_os_error();
            libc::close(fd);
            return Err(format!("ftruncate({total}) failed: {e}"));
        }
        let p = libc::mmap(
            MP_BASE as *mut c_void,
            total,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_SHARED | libc::MAP_FIXED_NOREPLACE,
            fd,
            0,
        );
        let e = std::io::Error::last_os_error();
        libc::close(fd);
        if p == libc::MAP_FAILED {
            return Err(format!(
                "MAP_FIXED_NOREPLACE at {MP_BASE:#x} failed: {e} \
                 (kernel < 4.17, or the range is occupied)"
            ));
        }
        if p as usize != MP_BASE {
            libc::munmap(p, total);
            return Err("kernel ignored MAP_FIXED_NOREPLACE".into());
        }
    }
    Ok(Region { total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uat_model::testutil::BinTree;
    use uat_model::{join_tree_fingerprint, sequential_profile};
    use uat_workloads::chain::{Chain, ChainDesc};

    thread_local! {
        /// Slot-stack lock acquisitions made by this thread.
        pub(super) static POOL_LOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn runner(workers: usize) -> MultiProcessRunner {
        MultiProcessRunner::new(workers).with_work_divisor(u64::MAX)
    }

    fn supported() -> bool {
        match MultiProcessRunner::probe_support() {
            Ok(()) => true,
            Err(e) => {
                eprintln!("skipping multiprocess test: {e}");
                false
            }
        }
    }

    /// The metrics-cell indices hard-coded here must match the shared
    /// segment layout the exporter names cells by.
    #[cfg(feature = "metrics")]
    #[test]
    fn metrics_cell_indices_match_segment_layout() {
        use uat_metrics::{names, shm};
        assert_eq!(MC_STRIDE, shm::ROW_STRIDE);
        let expect = [
            (MC_HEARTBEATS, names::HEARTBEATS),
            (MC_STEALS_COMPLETED, names::STEALS_COMPLETED),
            (MC_STEALS_FAILED, names::STEALS_FAILED),
            (MC_PARKS, names::PARKS),
            (MC_UNPARKS, names::UNPARKS),
            (MC_TASKS, names::TASKS),
        ];
        assert_eq!(shm::SEGMENT_COUNTERS.len(), expect.len());
        for (idx, name) in expect {
            assert_eq!(shm::SEGMENT_COUNTERS[idx].0, name, "cell {idx}");
        }
    }

    #[test]
    fn bintree_counts_match_sequential_profile() {
        if !supported() {
            return;
        }
        let w = BinTree {
            depth: 6,
            work: 1_000,
            frame: 512,
        };
        let p = sequential_profile(&w);
        for workers in [1usize, 2, 4] {
            let s = runner(workers).run(w.clone());
            assert_eq!(s.total_tasks, p.tasks, "workers={workers}");
            assert_eq!(s.total_units, p.units);
            assert_eq!(s.total_work_cycles, p.work_cycles);
            assert_eq!(s.joins, p.joins);
            assert_eq!(s.spawns, p.spawns);
            assert_eq!(s.frame_bytes_total, p.frame_bytes_total);
            assert_eq!(s.join_fingerprint, p.join_fingerprint);
            assert_eq!(s.join_fingerprint, join_tree_fingerprint(&w));
        }
    }

    #[test]
    fn small_pool_runs_a_tree_that_fits() {
        if !supported() {
            return;
        }
        // 64 slots against up to 11 live tasks per lineage: enough, but
        // only if slots parked in one worker's cache stay reachable for
        // the others.
        let w = BinTree {
            depth: 10,
            work: 200,
            frame: 256,
        };
        let p = sequential_profile(&w);
        for workers in [2usize, 4] {
            let s = MultiProcessRunner::new(workers)
                .with_work_divisor(1)
                .with_slots(64)
                .run(w.clone());
            assert_eq!(s.total_tasks, p.tasks, "workers={workers}");
            assert_eq!(s.join_fingerprint, p.join_fingerprint);
        }
    }

    #[test]
    fn a_starved_pool_runs_exact_trees() {
        if !supported() {
            return;
        }
        // Four workers run at most four leaves of the live tree, which in
        // a depth-10 binary tree share at least its top two levels:
        // 1 + 2 + 4 + 4 × 8 = 39 live tasks, and one finished task per
        // other worker whose slot is not collected yet — 42 slots at
        // most, 44 here. Heavy leaves keep the thieves busy, so the live
        // tree comes within a few slots of that bound: on two CPUs the
        // same runs can exhaust a pool of 37.
        let w = BinTree {
            depth: 10,
            work: 20_000,
            frame: 256,
        };
        let p = sequential_profile(&w);
        for run in 0..20 {
            let s = MultiProcessRunner::new(4)
                .with_work_divisor(1)
                .with_slots(44)
                .run(w.clone());
            assert_eq!(s.total_tasks, p.tasks, "run {run}");
            assert_eq!(s.join_fingerprint, p.join_fingerprint, "run {run}");
        }
    }

    #[test]
    fn too_small_pool_fails_by_name() {
        if !supported() {
            return;
        }
        // A depth-10 lineage needs 11 slots at once; 8 cannot do.
        let w = BinTree {
            depth: 10,
            work: 0,
            frame: 64,
        };
        let err = catch_unwind(|| runner(2).with_slots(8).run(w))
            .expect_err("an 8-slot pool cannot hold an 11-deep lineage");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a message");
        assert!(msg.contains("slot pool exhausted (8 slots)"), "{msg}");
        // The failed run left nothing behind: the region maps again.
        assert_eq!(
            runner(2)
                .run(BinTree {
                    depth: 3,
                    work: 0,
                    frame: 64
                })
                .total_tasks,
            15
        );
    }

    /// A root with a 64-byte frame and one leaf child with `leaf_frame`,
    /// which can be told to take its worker down with it.
    #[derive(Clone)]
    struct OneLeaf {
        leaf_frame: u64,
        leaf_aborts: bool,
    }

    impl Workload for OneLeaf {
        type Desc = bool; // is this the leaf?

        fn root(&self) -> bool {
            false
        }

        fn program(&self, leaf: &bool, out: &mut Vec<Action<bool>>) {
            if !leaf {
                out.extend([Action::Spawn(true), Action::JoinAll]);
            } else if self.leaf_aborts {
                std::process::abort();
            }
        }

        fn frame_size(&self, leaf: &bool) -> u64 {
            if *leaf {
                self.leaf_frame
            } else {
                64
            }
        }

        fn name(&self) -> String {
            "one-leaf".into()
        }
    }

    #[test]
    fn too_large_frame_fails_by_name() {
        if !supported() {
            return;
        }
        const STACK: u64 = 64 << 10;
        let message = |err: Box<dyn std::any::Any + Send>| {
            err.downcast_ref::<String>()
                .expect("panic payload is a message")
                .clone()
        };
        let run = |leaf_frame| {
            catch_unwind(move || {
                runner(2).with_stack_size(STACK as usize).run(OneLeaf {
                    leaf_frame,
                    leaf_aborts: false,
                })
            })
        };
        // Three quarters of the stack is a frame like any other.
        let fits = run(STACK * 3 / 4).expect("a 48 KiB frame fits a 64 KiB stack");
        assert_eq!(
            (fits.total_tasks, fits.peak_frame_bytes),
            (2, 64 + 48 * 1024)
        );
        // A child's frame is refused in the worker about to spawn it,
        // which tells the coordinator and exits — with the room below
        // the child's record, which sits at the top of the stack.
        let msg = message(run(STACK + 1).expect_err("one byte over the stack"));
        assert!(msg.contains("a task frame of 65537 bytes"), "{msg}");
        let room: u64 = msg
            .split("does not fit the ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no room named: {msg}"));
        assert!((STACK - 256..STACK).contains(&room), "{msg}");
        // The root's is refused before any worker is forked.
        let fat_root = BinTree {
            depth: 1,
            work: 0,
            frame: 1 << 20,
        };
        let err = catch_unwind(|| runner(2).with_stack_size(STACK as usize).run(fat_root));
        let msg = message(err.expect_err("a 1 MiB root frame"));
        assert!(msg.contains("a task frame of 1048576 bytes"), "{msg}");
        assert!(msg.contains("(the root's)"), "{msg}");
        // The failed runs left nothing behind: the region maps again.
        assert_eq!(run(0).expect("an empty frame fits").total_tasks, 2);
    }

    #[test]
    fn too_large_program_fails_by_name_in_bounded_time() {
        if !supported() {
            return;
        }
        // The root's 10 000 actions are over what a slot's program area
        // holds: refused in the worker that starts it — by flag and
        // `_exit`, not by a panic, whose hook could hang a forked child
        // (see the next test) — and named by the coordinator.
        let chain = Chain {
            rounds: 5_000,
            frame: 64,
            leaf_work: 0,
        };
        let capacity = RegionLayout::prog_capacity::<ChainDesc>();
        assert!(capacity < 10_000);
        for workers in [1usize, 2] {
            let t0 = std::time::Instant::now();
            let err = catch_unwind(|| runner(workers).run(chain.clone()))
                .expect_err("a 10 000-action program cannot fit a program area");
            let took = t0.elapsed();
            let msg = err
                .downcast_ref::<String>()
                .expect("panic payload is a message");
            let want = format!(
                "a task program of 10000 actions exceeds the {capacity}-action program area"
            );
            assert!(msg.contains(&want), "workers={workers}: {msg}");
            assert!(
                took < std::time::Duration::from_secs(1),
                "workers={workers}: the refusal took {took:?}"
            );
        }
        // The failed runs left nothing behind: the region maps again.
        MultiProcessRunner::probe_support().expect("the region maps again");
    }

    #[test]
    fn a_worker_that_dies_without_a_word_fails_the_run_in_bounded_time() {
        if !supported() {
            return;
        }
        // SIGABRT in the worker that starts the leaf: no `Ctrl` flag
        // names the death, the leaf never completes, and the survivors
        // would idle forever on a scan that cannot pass. Only the
        // coordinator's liveness sweep ends this run.
        //
        // There is no panicking-leaf twin (`_exit(101)`). A panic runs
        // the process-wide hook before `catch_unwind` sees it — here
        // std's default behind libtest's wrapper, which writes under
        // the stderr lock, takes std's global backtrace lock and
        // allocates. Another harness thread (this binary has several
        // `catch_unwind` tests, any of them mid-panic) may hold one of
        // those at `fork` and does not exist in the child: the worker
        // would hang inside the hook, alive, and this test with it.
        // Swapping the hook out is process-wide too, and would race
        // every other test's output.
        for workers in [2usize, 4] {
            let t0 = std::time::Instant::now();
            let err = catch_unwind(|| {
                runner(workers).try_run(OneLeaf {
                    leaf_frame: 64,
                    leaf_aborts: true,
                })
            })
            .expect_err("a run whose leaf aborts cannot complete");
            let took = t0.elapsed();
            let msg = err
                .downcast_ref::<String>()
                .expect("panic payload is a message");
            assert!(msg.contains("died mid-run"), "workers={workers}: {msg}");
            assert!(
                took < std::time::Duration::from_secs(1),
                "workers={workers}: the death took {took:?} to notice"
            );
            // The survivors were killed and reaped — this thread forked
            // them, and has no child left (where the kernel lists them).
            if let Ok(children) = std::fs::read_to_string("/proc/thread-self/children") {
                assert_eq!(children.trim(), "", "workers={workers}: children left");
            }
            // And the failed run left nothing behind: the region maps
            // again.
            MultiProcessRunner::probe_support().expect("the region maps again");
        }
    }

    #[test]
    fn empty_cache_over_empty_pool_reclaims_from_a_peer() {
        if !supported() {
            return;
        }
        let _guard = MP_RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let layout = RegionLayout::new(2, 33, PAGE);
        assert_eq!(layout.slot_batch, 4);
        let _region = map_region(layout.total).expect("probe passed");
        let pool = layout.slot_pool();
        for s in (1..layout.slots).rev() {
            pool.push(s);
        }
        // Worker 1 takes every slot and gives six back: they sit in its
        // cache (under the spill bound of 8), the pool stays empty.
        let taken: Vec<usize> = (1..layout.slots).map(|_| alloc_slot(&layout, 1)).collect();
        assert_eq!(taken[0], 1, "lowest slot first");
        for &s in &taken[..6] {
            free_slot(&layout, 1, s);
        }
        assert_eq!((pool.len(), layout.slot_cache(1).len()), (0, 6));
        // Worker 0 has nothing of its own: it takes the older half of
        // worker 1's cache and hands out the newest of those.
        assert_eq!(alloc_slot(&layout, 0), taken[2]);
        assert_eq!(layout.slot_cache(0).len(), 2);
        assert_eq!(layout.slot_cache(1).len(), 3);
        // A full cache spills its oldest batch to the pool.
        for &s in &taken[6..12] {
            free_slot(&layout, 1, s);
        }
        assert_eq!((pool.len(), layout.slot_cache(1).len()), (4, 5));
    }

    /// A warm cache takes no lock ([I22]): 10 000 alloc/free pairs on
    /// one worker acquire no slot-stack lock — the pool's TTAS, counted
    /// here, is the only read-modify-write on any slot-stack header —
    /// where the per-cache lock this replaced was taken twice a pair.
    #[test]
    fn warm_pairs_take_no_lock() {
        if !supported() {
            return;
        }
        let _guard = MP_RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let layout = RegionLayout::new(2, 33, PAGE);
        let _region = map_region(layout.total).expect("probe passed");
        let pool = layout.slot_pool();
        for s in (1..layout.slots).rev() {
            pool.push(s);
        }
        // The first allocation refills the empty cache, under the lock.
        let warm = alloc_slot(&layout, 0);
        free_slot(&layout, 0, warm);
        let cache = layout.slot_cache(0);
        let locks = || POOL_LOCKS.with(|n| n.get());
        let before = (cache.len(), locks());
        assert_eq!(before.1, 1);
        for _ in 0..10_000 {
            let s = alloc_slot(&layout, 0);
            assert_eq!(s, warm, "LIFO: the stack freed last");
            free_slot(&layout, 0, s);
        }
        assert_eq!((cache.len(), locks()), before);
        assert_eq!(cache.hdr.busy.load(Ordering::Relaxed), 0);
    }

    /// An owner hammers its cache — fast paths, refills, spills — in a
    /// process of its own, forked like a worker, while this one raids it
    /// 20 000 times, each after a round of the owner's: no slot is handed
    /// out twice, and at the end every slot is in exactly one stack
    /// ([I22]).
    #[test]
    fn raids_conserve_slots_against_a_busy_owner() {
        if !supported() {
            return;
        }
        let _guard = MP_RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let layout = RegionLayout::new(2, 33, PAGE);
        let _region = map_region(layout.total).expect("probe passed");
        let pool = layout.slot_pool();
        for s in (1..layout.slots).rev() {
            pool.push(s);
        }
        let (done, rounds) = (&ctrl().shutdown_flag, layout.metrics_cell(1, 0));
        // SAFETY: [I10][I15] the child runs only the allocation- and
        // lock-free loop below and leaves by `_exit`.
        let pid = unsafe { libc::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            // Worker 1 holds at most 4 of the 32, so the pool it refills
            // from never runs dry and it never raids cache 0 itself.
            let mut held = [false; 33];
            while done.load(Ordering::Relaxed) == 0 {
                let got: [usize; 4] = std::array::from_fn(|_| alloc_slot(&layout, 1));
                for s in got {
                    if std::mem::replace(&mut held[s], true) {
                        // SAFETY: [I10] async-signal-safe exit.
                        unsafe { libc::_exit(1) }
                    }
                }
                for s in got {
                    held[s] = false;
                    free_slot(&layout, 1, s);
                }
                rounds.store(rounds.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            }
            // SAFETY: [I10] async-signal-safe exit.
            unsafe { libc::_exit(0) }
        }
        /// Stops and reaps the owner however this test ends.
        struct Reap(libc::pid_t, i32);
        impl Drop for Reap {
            fn drop(&mut self) {
                // SAFETY: [I10] killing and reaping our own child.
                unsafe {
                    libc::kill(self.0, libc::SIGKILL);
                    libc::waitpid(self.0, &mut self.1, 0);
                }
            }
        }
        let mut owner = Reap(pid, 0);
        // Worker 0 raids, and passes what it took on to the pool.
        let (mine, mut raided, mut seen) = (layout.slot_cache(0), 0, 0);
        for _ in 0..20_000 {
            while rounds.load(Ordering::Relaxed) == seen {
                // SAFETY: [I10] status poll of our own child.
                let gone = unsafe { libc::waitpid(pid, &mut owner.1, libc::WNOHANG) };
                assert_eq!(gone, 0, "the owner exited, status {:#x}", owner.1);
            }
            seen = rounds.load(Ordering::Relaxed);
            pool.acquire();
            raid(&layout, 0);
            raided += mine.len();
            mine.move_to(&pool, mine.len(), false);
            pool.release();
        }
        done.store(1, Ordering::Relaxed);
        // SAFETY: [I10] reaping our own child.
        assert_eq!(unsafe { libc::waitpid(pid, &mut owner.1, 0) }, pid);
        assert_eq!(owner.1, 0, "the owner saw a slot handed out twice");
        std::mem::forget(owner);
        assert!(raided > 0, "no raid found a slot");
        let mut seen = vec![0u32; layout.slots];
        for st in [pool, layout.slot_cache(0), layout.slot_cache(1)] {
            for e in &st.entries[..st.len()] {
                seen[e.load(Ordering::Relaxed) as usize] += 1;
            }
        }
        assert_eq!(seen[0], 0, "the root's slot is never free");
        assert!(seen[1..].iter().all(|&n| n == 1), "{seen:?}");
    }

    #[test]
    fn cross_process_steals_happen() {
        if !supported() {
            return;
        }
        // Real work (undivided) so sibling processes get a window to
        // steal; a few attempts for slow single-CPU hosts.
        let mut stole = 0;
        for _ in 0..3 {
            let w = BinTree {
                depth: 9,
                work: 60_000,
                frame: 256,
            };
            let s = MultiProcessRunner::new(4).run(w);
            assert_eq!(s.total_tasks, (1 << 10) - 1);
            stole += s.steals;
            if stole > 0 {
                break;
            }
        }
        assert!(stole > 0, "no cross-process steals across 3 runs");
    }

    #[test]
    fn report_carries_metrics_and_probe() {
        if !supported() {
            return;
        }
        let w = BinTree {
            depth: 5,
            work: 100,
            frame: 128,
        };
        let report = runner(2).try_run(w).unwrap();
        assert_eq!(report.bootstrap_allocs.len(), 2);
        assert!(report.bootstrap_allocs.iter().all(|&a| a == 0));
        // No probe installed: nothing observed over the worker loops.
        assert_eq!(report.run_allocs, vec![0, 0]);
        // Tasks exported through the fabric-read segment agree with the
        // stats bank.
        let tasks: u64 = (0..2)
            .map(|wk| report.metric_words[wk * MC_STRIDE + MC_TASKS])
            .sum();
        assert_eq!(tasks, report.stats.total_tasks);
        #[cfg(feature = "metrics")]
        {
            let snap = report.metrics_snapshot();
            assert_eq!(snap.total(uat_metrics::names::TASKS), tasks);
        }
    }
}
