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
//! - the **THE deques** ([`uat_deque::ShmDeque`] placement blocks at the
//!   canonical `uat_deque::layout` offsets, one per worker);
//! - every **fiber stack** (fixed slots with guard pages), so a
//!   continuation's frames are already present in the thief's address
//!   space — a cross-process steal is deque atomics plus
//!   `resume_context`, zero messages *and* zero copies (the shared
//!   mapping is the transfer; compare [`ipc`](crate::ipc), where
//!   private mappings force a real `process_vm_readv`);
//! - each task's **program area** and its parent's **join block**, so
//!   no private-heap pointer is ever reachable from a migratable stack
//!   (invariant [I16]);
//! - the **metrics segment** ([`uat_metrics::shm`] layout), per-worker
//!   counter cells the parent reads back through
//!   [`uat_rdma::OneSidedFabric`] windows — per-worker metrics export
//!   with no RPC;
//! - the **stats bank** (one single-writer accounting row per worker)
//!   and the **slot pool** (a locked LIFO of free stack slots behind
//!   one small cache per worker);
//! - the **control block**: shutdown flag, the two give-up flags (slot
//!   pool exhausted, frame too large for a slot's stack), and the
//!   allocation-probe readings — nothing a task ever writes.
//!
//! The coordinator decides nothing and polls nothing. The first idle
//! worker whose termination scan passes (`idle.rs`, shared
//! with the thread runtime) raises the shutdown flag and wakes the
//! coordinator, which has been asleep on that word as a futex since the
//! last fork; its 10 ms timeout exists only to sweep for a worker that
//! died without a word, which nobody else could ever notice.
//!
//! Creating, running and finishing a task that nobody steals writes
//! only lines its own worker owns ([I17]): the worker's deque, its
//! accounting and metrics rows, its slot cache, and the stacks of the
//! task and its parent.
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
//! during the window). The bootstrap path ([`mp_bootstrap`]) touches
//! only shared-region atomics and per-process statics; `uat-lint`'s
//! `fork-safety` rule scans it (and its callees) for alloc/lock
//! constructs, and the `mp_fork_safety` integration test counts
//! allocations across the window with a probing global allocator.
//! After the worker loop is entered, allocation is permitted, but the
//! task path makes none in steady state: programs expand through one
//! recycled per-process buffer, taken and handed back with no migration
//! point in between ([I16]).
//!
//! # Control transfers
//!
//! The thread runtime's, call for call: a spawn and the root's start
//! are `switch_to_fresh`, a parking join and the scheduler's resume are
//! `switch_to`, a task leaves through an inlined `resume_context`
//! ([`ctx`](crate::ctx)). Each names the slot its continuation is saved
//! to — the child's header, this process's `sched_ctx`, the ctx half of
//! `pending_join` — so nothing runs between the save and the switch.
//!
//! # Per-process state
//!
//! Worker identity, the scheduler context, and the retire/join hand-off
//! live in a per-process `static` behind the `#[inline(never)]`
//! accessor [`mp_proc`]. The indirection is load-bearing exactly like
//! the thread runtime's TLS accessor: a fiber migrates *between
//! processes* at every suspension point, and any value loaded before
//! the switch and kept in a callee-saved register is restored from the
//! context record with the *previous* process's value. Every access
//! after a potential migration re-derives through the opaque call.

use crate::ctx::{resume_context, switch_to, switch_to_fresh, Context};
use crate::frame::{self, FrameTooLarge, PAGE};
use crate::idle::{self, Idle};
use crate::interp::{AcctRow, NativeRunStats, TaskAcct};
use crate::join::{JoinBlock, PendingJoin};
use crate::runtime::bump;
use crate::tsc;
use std::ffi::c_void;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::addr_of_mut;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use uat_base::{SplitMix64, WorkerId};
use uat_deque::ShmDeque;
use uat_model::{Action, Workload};
use uat_rdma::{OneSidedFabric, ShmFabric};

/// Fixed virtual address of the multiprocess uni-address region (same
/// in every worker process; distinct from [`crate::ipc::UNI_BASE`] so
/// the two demonstrations can coexist in one test binary).
pub const MP_BASE: usize = 0x7e00_0000_0000;

/// Entries per worker deque (matches the thread runtime's sizing).
const DEQ_CAP: usize = 8192;
/// Bytes at the top of each slot for the task header + program area.
/// One task's whole program must fit: with 16-byte actions that is
/// about 8 190 of them, so a `Chain::fig10(n)` root (`2n` actions) runs
/// up to `n ≈ 4 000` and `fig10(20000)` does not — `exec_mp` asserts
/// the capacity. The mapping is sparse, so unused program pages cost
/// nothing.
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

/// How long the coordinator sleeps on `Ctrl::shutdown_flag` between
/// looks for a worker that died without raising it.
const LIVENESS_SWEEP: std::time::Duration = std::time::Duration::from_millis(10);

/// Shared control block, at the very start of the region. No task ever
/// writes it ([I17]): an idle worker's loop reads `shutdown_flag`, and
/// the one whose termination scan passes raises it.
#[repr(C)]
struct Ctrl {
    /// Terminating worker → every worker loop (exit) and the
    /// coordinator, which sleeps on this word as a futex ([I20]).
    shutdown_flag: AtomicU32,
    /// Set by a worker that found no free stack slot anywhere, just
    /// before it exits; read by the coordinator when it finds a worker
    /// dead, to name the failure.
    slots_exhausted: AtomicU64,
    /// Likewise, by a worker asked to spawn a task whose frame does not
    /// fit a slot's stack: that frame's size (never 0).
    frame_too_large: AtomicU64,
    /// Per-worker allocation count observed across the fork-safety
    /// window, written once at worker-loop entry (0 when no probe is
    /// installed; see [`set_bootstrap_alloc_probe`]).
    bootstrap_allocs: [AtomicU64; MAX_WORKERS],
    /// Per-worker allocation count over the whole worker loop, written
    /// once at its exit (same probe).
    run_allocs: [AtomicU64; MAX_WORKERS],
}

const _: () = assert!(std::mem::size_of::<Ctrl>() <= PAGE);

/// Per-task header at the top of its stack slot (just below the
/// program area). `repr(C)` plain-old-data: it lives in the shared
/// region and crosses process boundaries by address.
#[repr(C)]
struct MpHeader<D> {
    /// The parent's [`JoinBlock`] (`*const JoinBlock` as u64; 0 for the
    /// root), a local on the *parent's* shm stack — valid in every
    /// process per [I16]; the child's decrement of it is the protocol's
    /// one-sided remote fetch-and-add.
    join: u64,
    /// Summed `frame_size` of this task's ancestors — the frame chain
    /// its lineage has built so far, carried parent→child so the peak
    /// needs no machine-wide gauge.
    chain_above: u64,
    /// The spawner's saved continuation: the slot of the spawn's
    /// `switch_to_fresh`, written on the way into the child and
    /// published by the child per [I12]. Null for the root.
    parent_ctx: *mut Context,
    /// This slot's index (so code on the slot's stack can retire it).
    slot_idx: u64,
    /// The task's `frame_size`, evaluated once, by its spawner.
    frame: u64,
    /// Where the body starts: `frame` bytes below this header, as
    /// [`frame::claim`] checked it against the slot's stack [I19].
    sp: u64,
    /// The task descriptor (`Copy` plain data; [I16]).
    desc: MaybeUninit<D>,
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
    /// Whole slot: guard page + stack + header/program area.
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
        let deq_block = ShmDeque::block_size(DEQ_CAP);
        let slots_off = deques_off + round_page(workers * deq_block);
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

    fn ctrl(&self) -> *const Ctrl {
        MP_BASE as *const Ctrl
    }

    fn metrics_cell_addr(&self, w: usize, c: usize) -> usize {
        debug_assert!(w < self.workers && c < MC_STRIDE);
        MP_BASE + self.metrics_off + (w * MC_STRIDE + c) * 8
    }

    /// Add 1 to worker `w`'s metrics-segment cell `c`, from worker `w`:
    /// its row is single-writer, so a plain load + store.
    #[inline]
    fn tick(&self, w: usize, c: usize, order: Ordering) {
        bump(cell(self.metrics_cell_addr(w, c)), 1, order);
    }

    /// Worker `w`'s accounting row in the stats bank.
    fn stats_row(&self, w: usize) -> &'static AcctRow {
        debug_assert!(w < self.workers);
        let addr = MP_BASE + self.stats_off + w * std::mem::size_of::<AcctRow>();
        // SAFETY: [I16] a 64-byte-aligned row inside the live mapping
        // (zero-filled = a valid empty row), made of atomics only; the
        // region outlives every use (see `cell`).
        unsafe { &*(addr as *const AcctRow) }
    }

    /// The machine-wide free-slot stack.
    fn slot_pool(&self) -> SlotStack {
        // SAFETY: [I16] `pool_off` starts a block of
        // `block_size(slots)` bytes inside the live mapping.
        unsafe { SlotStack::at(MP_BASE + self.pool_off, self.slots) }
    }

    /// Worker `w`'s free-slot cache.
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
    fn deque(&self, w: usize) -> ShmDeque {
        debug_assert!(w < self.workers);
        let base = MP_BASE + self.deques_off + w * ShmDeque::block_size(DEQ_CAP);
        // SAFETY: [I14] the block is inside the zero-initialised shared
        // mapping (same virtual address in every process), 8-byte
        // aligned by construction, and only ever accessed through
        // THE-protocol operations.
        unsafe { ShmDeque::from_raw(base as *mut u8, DEQ_CAP) }
    }

    fn slot_base(&self, slot: usize) -> usize {
        debug_assert!(slot < self.slots);
        MP_BASE + self.slots_off + slot * self.slot_size
    }

    /// Top of the slot's stack == base of its header/program area.
    fn slot_stack_top(&self, slot: usize) -> usize {
        self.slot_base(slot) + self.slot_size - PROG_BYTES
    }

    /// Lowest usable address of the slot's stack (just above its guard
    /// page).
    fn slot_stack_limit(&self, slot: usize) -> usize {
        self.slot_base(slot) + PAGE
    }

    fn header<D>(&self, slot: usize) -> *mut MpHeader<D> {
        self.slot_stack_top(slot) as *mut MpHeader<D>
    }

    /// Write the header of a task about to start on the free slot
    /// `slot`, its frame claimed below it; refused if the slot's stack
    /// cannot hold the frame.
    fn place_header<D>(
        &self,
        slot: usize,
        join: u64,
        chain_above: u64,
        frame: u64,
        desc: D,
    ) -> Result<*mut MpHeader<D>, FrameTooLarge> {
        let hdr = self.header::<D>(slot);
        let sp = frame::claim(hdr as usize, self.slot_stack_limit(slot), frame)?;
        // SAFETY: [I16] a free slot's header is exclusively the
        // caller's until the task it starts publishes or retires it.
        unsafe {
            hdr.write(MpHeader {
                join,
                chain_above,
                parent_ctx: std::ptr::null_mut(),
                slot_idx: slot as u64,
                frame,
                sp: sp as u64,
                desc: MaybeUninit::new(desc),
            });
        }
        Ok(hdr)
    }

    /// First `Action<D>` of the slot's program area (just after the
    /// header, aligned).
    fn prog_ptr<D>(&self, slot: usize) -> *mut Action<D> {
        let a = std::mem::align_of::<Action<D>>();
        let off = std::mem::size_of::<MpHeader<D>>().div_ceil(a) * a;
        (self.slot_stack_top(slot) + off) as *mut Action<D>
    }

    /// `Action<D>`s the program area can hold.
    fn prog_capacity<D>(&self) -> usize {
        let a = std::mem::align_of::<Action<D>>();
        let off = std::mem::size_of::<MpHeader<D>>().div_ceil(a) * a;
        (PROG_BYTES - off) / std::mem::size_of::<Action<D>>()
    }
}

/// A cell of the region interpreted as a process-shared atomic.
#[inline]
fn cell(addr: usize) -> &'static AtomicU64 {
    debug_assert!(addr.is_multiple_of(8));
    // SAFETY: [I16] every `cell` call site passes an address computed by
    // `RegionLayout` inside the live mapping; the region outlives every
    // worker's use of it (the coordinator unmaps only after reaping).
    unsafe { &*(addr as *const AtomicU64) }
}

// ---------------------------------------------------------------------
// Per-process state.
// ---------------------------------------------------------------------

struct MpProc {
    worker: usize,
    layout: RegionLayout,
    /// This process's parked scheduler context (worker OS stack).
    sched_ctx: *mut Context,
    /// Slot retired by the previously completed task (+1; 0 = none).
    pending_retire: u64,
    /// Join park hand-off per [I12].
    pending_join: PendingJoin,
    rng: SplitMix64,
    divisor: u64,
    /// The workload, by pre-fork pointer (copy-on-write read-only data,
    /// same virtual address in every worker).
    env: u64,
    /// Raw parts (pointer, capacity) of this process's recycled program
    /// buffer, an empty `Vec<Action<W::Desc>>` between tasks; (0, 0)
    /// until the first task, so bootstrap allocates nothing [I15].
    prog_buf: (usize, usize),
}

/// The worker process's state. Plain per-process memory: every worker
/// process is single-threaded, and the parent never touches it.
static mut MP_PROC: Option<MpProc> = None;

/// Re-derive the per-process state. `inline(never)` is load-bearing for
/// the same reason as the thread runtime's TLS accessor (see the module
/// docs): fibers resume in *other processes*, where this static holds
/// different values, so no load may be CSE'd across a context switch.
#[inline(never)]
fn mp_proc() -> *mut MpProc {
    // SAFETY: [I15] MP_PROC is written once during single-threaded
    // bootstrap and only ever accessed from that process's only thread.
    match unsafe { &mut *addr_of_mut!(MP_PROC) } {
        Some(p) => p as *mut MpProc,
        None => panic!("multiprocess operation outside a worker process"),
    }
}

/// Free the slot retired by the previously completed task, if any, and
/// return the worker control landed on. Must run at every point control
/// can land after a completion (mirrors the thread runtime's
/// `collect_retired`).
#[inline]
fn mp_collect_retired() -> usize {
    // SAFETY: [I15] exclusive access by this process's only thread.
    let p = unsafe { &mut *mp_proc() };
    if p.pending_retire != 0 {
        let idx = (p.pending_retire - 1) as usize;
        p.pending_retire = 0;
        free_slot(&p.layout, p.worker, idx);
    }
    p.worker
}

// ---------------------------------------------------------------------
// Slot pool: one locked LIFO of free slot indices for the machine, one
// small one per worker in front of it.
// ---------------------------------------------------------------------

/// Lock and length of a [`SlotStack`], on a cache line of their own.
#[repr(C, align(64))]
struct SlotStackHdr {
    /// TTAS spinlock over `len` and the entries.
    busy: AtomicU64,
    len: AtomicU64,
}

/// A view of one locked LIFO of free slot indices in the shared region:
/// a [`SlotStackHdr`] line followed by the entries, oldest first. Zero
/// bytes are a valid empty stack.
///
/// Every method but [`acquire`](Self::acquire) requires the caller to
/// hold the lock. Lock order, wherever more than one is held: worker
/// caches by ascending worker id, then the pool.
///
/// A worker's cache is only ever locked by another worker on the
/// [`reclaim_slot`] path, so on the task fast path its header line stays
/// in the owner's cache and the lock is an uncontended local
/// operation ([I17]).
#[derive(Clone, Copy)]
struct SlotStack {
    hdr: &'static SlotStackHdr,
    entries: &'static [AtomicU32],
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

    fn acquire(&self) {
        let mut spins = 0u32;
        loop {
            if self.hdr.busy.load(Ordering::Relaxed) == 0
                && self
                    .hdr
                    .busy
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            // The holder may have been preempted (more workers than
            // CPUs): give it the CPU instead of burning the quantum.
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn release(&self) {
        self.hdr.busy.store(0, Ordering::Release);
    }

    fn len(&self) -> usize {
        self.hdr.len.load(Ordering::Relaxed) as usize
    }

    fn push(&self, slot: usize) {
        let n = self.len();
        self.entries[n].store(slot as u32, Ordering::Relaxed);
        self.hdr.len.store(n as u64 + 1, Ordering::Relaxed);
    }

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
/// cache — refilled a batch at a time from the pool.
fn alloc_slot(layout: &RegionLayout, me: usize) -> usize {
    let cache = layout.slot_cache(me);
    cache.acquire();
    if cache.len() == 0 {
        let pool = layout.slot_pool();
        pool.acquire();
        pool.move_to(&cache, pool.len().min(layout.slot_batch), false);
        pool.release();
    }
    let got = cache.pop();
    cache.release();
    got.unwrap_or_else(|| reclaim_slot(layout, me))
}

/// Return a dead task's slot to worker `me`'s cache, spilling the
/// batch the worker has left unused longest when the cache is full.
fn free_slot(layout: &RegionLayout, me: usize, slot: usize) {
    let cache = layout.slot_cache(me);
    cache.acquire();
    if cache.len() == 2 * layout.slot_batch {
        let pool = layout.slot_pool();
        pool.acquire();
        cache.move_to(&pool, layout.slot_batch, true);
        pool.release();
    }
    cache.push(slot);
    cache.release();
}

/// Worker `me`'s cache and the pool were both empty: before giving the
/// run up, look in the other workers' caches. Holding every lock at
/// once makes the verdict exact — if nothing turns up, no slot was free
/// anywhere at that instant and the pool really is exhausted.
fn reclaim_slot(layout: &RegionLayout, me: usize) -> usize {
    let caches = || (0..layout.workers).map(|w| layout.slot_cache(w));
    let pool = layout.slot_pool();
    let mine = layout.slot_cache(me);
    caches().for_each(|c| c.acquire());
    pool.acquire();
    // Our own cache or the pool may have been fed since we looked.
    if mine.len() == 0 {
        if pool.len() > 0 {
            pool.move_to(&mine, pool.len().min(layout.slot_batch), false);
        } else {
            // The fullest cache gives up its older half (nothing, if
            // every cache is as empty as ours).
            let victim = caches()
                .max_by_key(|c| c.len())
                .expect("at least one worker");
            victim.move_to(&mine, victim.len().div_ceil(2), true);
        }
    }
    let got = mine.pop();
    pool.release();
    caches().for_each(|c| c.release());
    got.unwrap_or_else(|| {
        // SAFETY: [I16] ctrl is the mapped control block.
        let ctrl = unsafe { &*layout.ctrl() };
        let msg = b"uat-fiber(mp): stack slot pool exhausted; worker exiting\n";
        die(&ctrl.slots_exhausted, 1, msg, 103)
    })
}

/// Give the run up from a worker: tell the coordinator why (`why`,
/// non-zero, into `flag` of the control block) and exit with `status`.
/// No `panic!` — its hook takes the stderr lock and allocates, and
/// either may be held by a parent thread that did not survive `fork`;
/// a worker that hung here would hang the run.
fn die(flag: &AtomicU64, why: u64, msg: &[u8], status: i32) -> ! {
    flag.store(why, Ordering::Release);
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
// The per-worker scheduler (runs in each worker process).
// ---------------------------------------------------------------------

/// Worker bootstrap: everything between `fork` and the scheduler loop.
///
/// **Fork-safety window [I15]**: from entry until `mp_worker_loop`
/// records the probe delta, this path must not allocate, take any lock,
/// or call anything that might (the parent is multithreaded; another
/// thread may hold the allocator lock at fork time). `uat-lint`'s
/// `fork-safety` rule enforces the discipline statically over this
/// function and its direct callees; the `mp_fork_safety` test enforces
/// it dynamically.
unsafe fn mp_bootstrap<W>(id: usize, layout: RegionLayout, env: *const W, divisor: u64) -> !
where
    W: Workload,
    W::Desc: Copy,
{
    let before = probe_allocs();
    // SAFETY: [I15] single-threaded fresh child; first and only
    // initialisation of this process's state. In-place write, no heap.
    unsafe {
        *addr_of_mut!(MP_PROC) = Some(MpProc {
            worker: id,
            layout,
            sched_ctx: std::ptr::null_mut(),
            pending_retire: 0,
            pending_join: PendingJoin::NONE,
            rng: SplitMix64::new(0x5EED ^ id as u64),
            divisor,
            env: env as u64,
            prog_buf: (0, 0),
        });
    }
    // SAFETY: [I16] ctrl is the mapped control block.
    let ctrl = unsafe { &*layout.ctrl() };
    ctrl.bootstrap_allocs[id].store(probe_allocs().wrapping_sub(before), Ordering::Release);
    // Window closed: from here on allocation is permitted again.
    // SAFETY: [I15] state initialised just above.
    unsafe { mp_worker_loop::<W>() }
}

/// The scheduler loop: seed the root (worker 0), then steal from random
/// victims until shutdown. Never returns — the worker process leaves
/// via `_exit(0)`.
unsafe fn mp_worker_loop<W>() -> !
where
    W: Workload,
    W::Desc: Copy,
{
    // SAFETY: [I15] our own per-process state.
    let (layout, id) = unsafe {
        let p = &*mp_proc();
        (p.layout, p.worker)
    };
    // SAFETY: [I16] mapped control block.
    let ctrl = unsafe { &*layout.ctrl() };
    let allocs_at_entry = probe_allocs();

    if id == 0 {
        // Seed the root task (its header was written pre-fork by the
        // coordinator into slot 0).
        let hdr = layout.header::<W::Desc>(0);
        // SAFETY: [I5][I9][I15][I19] the slot is this process's own;
        // [I16] the root's header was written pre-fork by the
        // coordinator, its `sp` inside the mapped, fresh slot stack
        // below the header; mp_child_main diverges; the scheduler
        // context saved here is resumed exactly once.
        unsafe {
            switch_to_fresh(
                &raw mut (*mp_proc()).sched_ctx,
                (*hdr).sp as *mut u8,
                mp_child_main::<W>,
                hdr as *mut c_void,
            );
        }
        mp_collect_retired();
    }

    let n = layout.workers;
    let mut idle = Idle::default();
    loop {
        mp_collect_retired();
        layout.tick(id, MC_HEARTBEATS, Ordering::Relaxed);

        // Scheduler-side join park [I12]: a fiber that suspended on a
        // join handed it to us; park it from this OS stack. If every
        // child already finished, resume it right away (exactly one
        // side ever owns the ctx: the last child's `complete` or this
        // `park`).
        // SAFETY: [I15][I16] exclusive per-process state; the block
        // lives on the parked parent's shm stack, which stays live
        // until the parent is resumed.
        if let Some(ctx) = unsafe { (*mp_proc()).pending_join.park() } {
            mp_run_ctx(ctx);
            continue;
        }

        // Nothing of our own is left to run [I21]: steal from a random
        // victim (one-sided: the victim process's CPU is not involved).
        debug_assert!(layout.deque(id).is_empty());
        let target = if n == 1 {
            None
        } else {
            // SAFETY: [I15] exclusive per-process rng.
            let mut v = unsafe { (*mp_proc()).rng.below(n as u64 - 1) as usize };
            if v >= id {
                v += 1;
            }
            let got = layout.deque(v).steal();
            layout.tick(
                id,
                if got.is_some() {
                    MC_STEALS_COMPLETED
                } else {
                    MC_STEALS_FAILED
                },
                Ordering::Relaxed,
            );
            got
        };
        match target {
            Some(ctx) => {
                if idle.found() {
                    layout.tick(id, MC_UNPARKS, Ordering::Relaxed);
                }
                mp_run_ctx(ctx as *mut Context);
            }
            None => {
                if ctrl.shutdown_flag.load(Ordering::Acquire) != 0 {
                    break;
                }
                // Nothing to run and about to nap: the party that pays
                // for termination detection. A pass means every task
                // has completed; tell the other idle loops, and wake the
                // coordinator.
                if idle.missed(
                    || mp_quiescent(&layout),
                    || layout.tick(id, MC_PARKS, Ordering::Relaxed),
                ) {
                    ctrl.shutdown_flag.store(1, Ordering::Release);
                    idle::futex_wake(&ctrl.shutdown_flag);
                    break;
                }
            }
        }
    }
    ctrl.run_allocs[id].store(
        probe_allocs().wrapping_sub(allocs_at_entry),
        Ordering::Release,
    );
    // SAFETY: [I10] _exit skips atexit handlers and destructors — the
    // worker owns nothing outside the shared region worth destructing,
    // and must not run the parent's cloned cleanup.
    unsafe { libc::_exit(0) }
}

/// Resume a ready continuation, saving this scheduler's own context so
/// fibers can bail back to the loop.
fn mp_run_ctx(ctx: *mut Context) {
    // SAFETY: [I5][I9][I15] the slot is this process's own, on a stack
    // that never migrates; `ctx` is a live continuation handed out by a
    // deque; the saved scheduler context is resumed exactly once (by
    // whichever fiber next runs out of local work in this process).
    unsafe { switch_to(&raw mut (*mp_proc()).sched_ctx, ctx) };
    mp_collect_retired();
}

// ---------------------------------------------------------------------
// Task execution on shm fiber stacks.
// ---------------------------------------------------------------------

unsafe extern "C" fn mp_child_main<W>(arg: *mut c_void) -> !
where
    W: Workload,
    W::Desc: Copy,
{
    // SAFETY: [I16] the header is this task's slot memory, ours until
    // retirement; reads of POD fields.
    let hdr = unsafe { &*(arg as *const MpHeader<W::Desc>) };
    let (slot, join, parent_ctx) = (hdr.slot_idx as usize, hdr.join, hdr.parent_ctx);
    if !parent_ctx.is_null() {
        // Publish the spawner's continuation: stealable (by any
        // process) from now on. Safe here per [I12] — we run on the
        // child's fresh stack; every parent-stack frame below the
        // record is already dead.
        // SAFETY: [I15] own process state for the deque handle.
        let (layout, id) = unsafe {
            let p = &*mp_proc();
            (p.layout, p.worker)
        };
        layout.deque(id).push(parent_ctx as u64);
    }
    if catch_unwind(AssertUnwindSafe(|| {
        // SAFETY: [I15][I16] slot header and env are live; exec_mp is
        // entered exactly once per task.
        unsafe { exec_mp::<W>(slot) }
    }))
    .is_err()
    {
        // Unwinding across a context switch is UB; mirror the thread
        // runtime (and the paper's C++ runtime) and die loudly. The
        // coordinator turns the exit status into a run failure.
        // eprintln! would take the stderr lock, which another parent
        // thread may have held at fork time — only async-signal-safe
        // calls are allowed here, so write(2) raw.
        let msg = b"uat-fiber(mp): task panicked; worker exiting\n";
        // SAFETY: [I10] async-signal-safe raw write + process exit.
        unsafe {
            libc::write(2, msg.as_ptr() as *const c_void, msg.len());
            libc::_exit(101)
        }
    }
    // Completion. Retire our own stack (freed once control left it).
    // SAFETY: [I15] exclusive per-process state (the worker this fiber
    // *ended* on, re-derived).
    let (layout, id, sched) = unsafe {
        let p = &mut *mp_proc();
        debug_assert_eq!(p.pending_retire, 0);
        p.pending_retire = slot as u64 + 1;
        (p.layout, p.worker, p.sched_ctx)
    };
    // Figure 4 lines 13-15: pop the parent continuation — our own
    // parent, which never counted us [I21]. If it was stolen, the thief
    // did: the one-sided join decrement on the (possibly remote)
    // parent, which, parked and waiting for us last, we resume here.
    let target = match layout.deque(id).pop() {
        Some(c) => {
            debug_assert_eq!(c, parent_ctx as u64, "[I21] popped another's parent");
            Some(c)
        }
        // SAFETY: [I16] the parent's join block outlives this call:
        // the parent cannot leave its JoinAll scope before our
        // decrement, and cannot run at all if we are handed its ctx.
        None if join != 0 => unsafe { &*(join as *const JoinBlock) }.complete(),
        None => None,
    };
    // The task's last act, on the worker it ended on: the Release tick
    // of this worker's `completed` cell (see `mp_quiescent`).
    layout.tick(id, MC_TASKS, Ordering::Release);
    // SAFETY: [I5] target is resumed exactly once; only Copy locals
    // live here.
    unsafe { resume_context(target.map_or(sched, |c| c as *mut Context)) }
}

/// Interpret one task on its shm fiber stack: expand the program into
/// the slot's program area, then execute it.
unsafe fn exec_mp<W>(slot: usize)
where
    W: Workload,
    W::Desc: Copy,
{
    // SAFETY: [I15] exclusive per-process state, scoped borrow: Copy
    // snapshots, and the recycled program buffer's parts, taken.
    let (layout, worker, divisor, env, buf) = unsafe {
        let p = &mut *mp_proc();
        let buf = std::mem::take(&mut p.prog_buf);
        (p.layout, p.worker, p.divisor, p.env, buf)
    };
    // SAFETY: [I16] the workload was constructed before fork and is
    // read-only for the whole run: the copy-on-write pages hold the
    // same bytes at the same address in every process.
    let w = unsafe { &*(env as *const W) };
    // SAFETY: [I16] the slot header is ours, written whole by the
    // spawner (or the coordinator, for the root).
    let (d, frame, chain_above) = unsafe {
        let hdr = &*layout.header::<W::Desc>(slot);
        (hdr.desc.assume_init(), hdr.frame, hdr.chain_above)
    };

    // Expand the program through this process's recycled buffer, then
    // copy it into the slot's program area and hand the buffer back —
    // no private-heap pointer may survive to the first migration point
    // below [I16].
    let mut prog: Vec<Action<W::Desc>> = match buf {
        (_, 0) => Vec::new(),
        // SAFETY: [I15] the parts of an empty `Vec<Action<W::Desc>>` put
        // back below by an earlier task of this process, which runs one
        // `W`; taken above, so a panicking `program` frees the buffer
        // exactly once.
        (ptr, cap) => unsafe { Vec::from_raw_parts(ptr as *mut Action<W::Desc>, 0, cap) },
    };
    w.program(&d, &mut prog);
    let n = prog.len();
    assert!(
        n <= layout.prog_capacity::<W::Desc>(),
        "task program ({n} actions) exceeds the slot program area \
         ({} actions of {} bytes)",
        layout.prog_capacity::<W::Desc>(),
        std::mem::size_of::<Action<W::Desc>>(),
    );
    // The task's whole accounting, recorded on the worker it starts on
    // before its first migration point.
    let chain = chain_above + frame;
    layout
        .stats_row(worker)
        .record(&TaskAcct::of(w, &d, frame, &prog), chain);
    let prog_ptr = layout.prog_ptr::<W::Desc>(slot);
    for (i, a) in prog.drain(..).enumerate() {
        // SAFETY: [I16] i < prog_capacity (asserted); the program area
        // is this slot's memory.
        unsafe { prog_ptr.add(i).write(a) };
    }
    let mut prog = ManuallyDrop::new(prog);
    // SAFETY: [I15] still the process the buffer was taken in: nothing
    // since then can migrate.
    unsafe { (*mp_proc()).prog_buf = (prog.as_mut_ptr() as usize, prog.capacity()) };

    // The join block is a local of this frame — on the shm stack, so a
    // child completing in another process reaches it at the same
    // address [I16]. It lives exactly as long as the task.
    let jb = JoinBlock::new();

    for i in 0..n {
        // SAFETY: [I16] reading back the i-th action we wrote above;
        // Desc is Copy so the read copy has no drop obligations.
        let a: Action<W::Desc> = unsafe { prog_ptr.add(i).read() };
        match a {
            Action::Work(cycles) => tsc::spin_cycles(cycles / divisor),
            Action::Spawn(child) => mp_spawn::<W>(child, w.frame_size(&child), &jb, chain),
            Action::JoinAll => mp_join(&jb),
        }
    }
    // Join stragglers so a malformed workload cannot leak running
    // tasks past its own completion (mirrors the thread interp).
    mp_join(&jb);
}

/// Spawn a child task, child-first: the child starts right now on a
/// fresh slot stack, `frame` bytes of it claimed ahead of the body, and
/// the caller's continuation becomes stealable by every process.
/// `chain` is the spawner's frame chain, its own frame included.
fn mp_spawn<W>(desc: W::Desc, frame: u64, jb: &JoinBlock, chain: u64)
where
    W: Workload,
    W::Desc: Copy,
{
    // SAFETY: [I15] per-process state snapshot (of the process this
    // fiber runs in *now*).
    let (layout, worker) = unsafe {
        let p = &*mp_proc();
        (p.layout, p.worker)
    };
    let slot = alloc_slot(&layout, worker);
    let hdr = layout
        .place_header(slot, jb as *const JoinBlock as u64, chain, frame, desc)
        .unwrap_or_else(|e| {
            // SAFETY: [I16] ctrl is the mapped control block.
            let ctrl = unsafe { &*layout.ctrl() };
            let msg = b"uat-fiber(mp): task frame exceeds the slot stack; worker exiting\n";
            die(&ctrl.frame_too_large, e.frame, msg, 104)
        });
    // [I12]: the continuation goes into the child's header, not into
    // the deque — this frame lives on the very stack it points into.
    // mp_child_main publishes it from the child's stack.
    // SAFETY: [I5][I9][I16][I19] the header is the child's slot,
    // exclusively ours until this switch hands it to mp_child_main,
    // which diverges; `sp` is inside the fresh slot stack below the
    // header; the continuation saved here is resumed exactly once (by
    // the child's pop or by a thief in any process).
    unsafe {
        switch_to_fresh(
            &raw mut (*hdr).parent_ctx,
            (*hdr).sp as *mut u8,
            mp_child_main::<W>,
            hdr as *mut c_void,
        );
    }
    // Resumed. In this process, by the child's exit pop: the child has
    // finished and was never counted. In another, by a thief: count the
    // child now, before anything here can look at `jb` [I21].
    if mp_collect_retired() != worker {
        jb.announce();
    }
}

/// Join every child spawned on `jb` so far: one pending-count load on
/// the fast path, else suspend and let this worker find other work
/// (Figure 7).
fn mp_join(jb: &JoinBlock) {
    if jb.is_done() {
        return;
    }
    // [I12]: publishing the continuation in the waiter slot from here
    // would let the last child resume it while this very frame still
    // runs on its stack. Hand the park to the scheduler on the worker's
    // OS stack.
    // SAFETY: [I15] exclusive per-process state; borrow ends before the
    // switch.
    let (slot, sched) = unsafe {
        let p = &mut *mp_proc();
        (p.pending_join.hand_over(jb), p.sched_ctx)
    };
    // SAFETY: [I5][I9] the slot is this process's own, read only by the
    // scheduler this switches to, which is parked in its loop and
    // resumed exactly once per lineage; the continuation saved here is
    // resumed exactly once, by the last child's worker or inline by
    // the scheduler.
    unsafe { switch_to(slot, sched) };
    // Resumed — possibly in a different process, with all children done.
    mp_collect_retired();
    debug_assert!(jb.is_done());
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
    /// succeed. Returns the reason when it cannot (callers should treat
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
        let workload = w.name();
        // Guard pages: PROT_NONE at the low end of every slot,
        // established once before fork and inherited by every worker.
        for s in 0..layout.slots {
            // SAFETY: [I10] each guard page is inside our fresh mapping.
            let rc = unsafe {
                libc::mprotect(layout.slot_base(s) as *mut c_void, PAGE, libc::PROT_NONE)
            };
            assert_eq!(rc, 0, "mprotect(slot guard) failed");
        }
        // SAFETY: [I16] freshly mapped (zeroed) control block.
        let ctrl = unsafe { &*layout.ctrl() };
        // Every slot but the root's (slot 0) starts in the pool, lowest
        // index on top; the workers' caches start empty. Pre-fork and
        // single-threaded, so the pool's lock is not needed.
        let pool = layout.slot_pool();
        for s in (1..layout.slots).rev() {
            pool.push(s);
        }
        // Root task header into slot 0: joined by nobody, its frame
        // checked here, where a refusal can still be an ordinary panic.
        let root = w.root();
        if let Err(e) = layout.place_header(0, 0, 0, w.frame_size(&root), root) {
            panic!("multiprocess: {e} (the root's)");
        }

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
                let exit = catch_unwind(AssertUnwindSafe(|| {
                    // SAFETY: [I15] fresh single-threaded child.
                    unsafe { mp_bootstrap::<W>(id, *layout, &w as *const W, self.work_divisor) }
                }));
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
                    fail_run(ctrl, layout, &live, pid, status);
                }
            }
        }
        let wall = t0.elapsed();

        // Metrics export, the uni-address way: the parent registers
        // each worker's segment row as that worker's RDMA window and
        // READs the cells through the fabric — per-worker metrics with
        // no RPC and no pipes.
        let mut fabric = ShmFabric::new();
        let mut metric_words = vec![0u64; layout.workers * MC_STRIDE];
        for wk in 0..layout.workers {
            let row = layout.metrics_cell_addr(wk, 0);
            // SAFETY: [I13] the row is inside the live mapping, shared
            // with worker `wk` at this same address; the workers have
            // exited, so no location is concurrently written.
            unsafe {
                fabric
                    .register_region(WorkerId(wk as u32), row as u64, MC_STRIDE * 8)
                    .expect("register metrics window");
            }
            let mut buf = [0u8; MC_STRIDE * 8];
            fabric
                .read(
                    WorkerId(layout.workers as u32),
                    WorkerId(wk as u32),
                    row as u64,
                    &mut buf,
                )
                .expect("fabric read of metrics row");
            for c in 0..MC_STRIDE {
                metric_words[wk * MC_STRIDE + c] =
                    u64::from_le_bytes(buf[c * 8..(c + 1) * 8].try_into().unwrap());
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
        // one but the root was announced by its parent.
        assert_eq!(msum(MC_TASKS), stats.total_tasks, "completed != started");
        assert_eq!(stats.spawns + 1, stats.total_tasks, "spawned != started");
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
/// left one in `ctrl`.
fn fail_run(
    ctrl: &Ctrl,
    layout: &RegionLayout,
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
        let room = layout.slot_stack_top(0) - layout.slot_stack_limit(0);
        panic!("multiprocess: {}", FrameTooLarge { frame, room });
    }
    panic!("multiprocess worker {pid} died mid-run (status {status:#x})");
}

/// Termination detection, [`idle::quiescent`] over this backend's cells:
/// worker `w`'s `completed` cell is its metrics-row `tasks` counter,
/// ticked (Release) as a task's last act on the worker it *ended* on;
/// its `spawned` cell is its accounting row's `spawns`, which a task
/// raises (Release) by its whole child count as it *starts* — earlier
/// than each `mp_spawn`, so still before any child runs and before the
/// task's own completion tick, which is all the proof there needs.
fn mp_quiescent(layout: &RegionLayout) -> bool {
    let completed = |w| cell(layout.metrics_cell_addr(w, MC_TASKS));
    let spawned = |w| &layout.stats_row(w).spawns;
    idle::quiescent(
        (0..layout.workers).map(completed),
        (0..layout.workers).map(spawned),
    )
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

/// Create the memfd-backed shared mapping at [`MP_BASE`]. Errors (not
/// panics) on hosts that cannot, so callers can skip with a reason.
fn map_region(total: usize) -> Result<Region, String> {
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
        // which tells the coordinator and exits.
        let msg = message(run(STACK + 1).expect_err("one byte over the stack"));
        assert!(msg.contains("a task frame of 65537 bytes"), "{msg}");
        assert!(msg.contains("does not fit the 65536 bytes"), "{msg}");
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
