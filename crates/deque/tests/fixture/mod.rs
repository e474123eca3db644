//! The THE deque's three placements as test subjects: a scenario written
//! once over [`Subject`] runs on each, through [`on_all!`].

use std::cell::RefCell;
use std::sync::atomic::AtomicU64;
use uat_base::{CostModel, Cycles, Topology, WorkerId};
use uat_deque::{FabricDeque, NativeDeque, ShmDeque, StealPhases, Storage, TaskqEntry, TheDeque};
use uat_rdma::Fabric;

/// A deque under test, with whatever keeps its storage alive, driven as
/// its owner and as a thief.
pub trait Subject: 'static {
    /// A fresh, empty deque with room for `capacity` entries.
    fn with_capacity(capacity: usize) -> Self;
    /// Owner push.
    fn push(&self, v: u64);
    /// Owner pop.
    fn pop(&self) -> Option<u64>;
    /// A whole steal, phase-stamped by `clock`.
    fn steal_phased(&self, clock: impl FnMut() -> u64) -> (Option<u64>, StealPhases);
    /// Entries in the deque.
    fn len(&self) -> u64;
    /// Maximum simultaneous entries.
    fn capacity(&self) -> usize;
    /// Play a thief that takes the lock (`true`, which must win) or
    /// releases it.
    fn hold_lock(&self, held: bool);

    /// A whole steal.
    fn steal(&self) -> Option<u64> {
        self.steal_phased(|| 0).0
    }

    /// Whether the deque is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A subject on real atomics.
pub trait Atomics: Send + Sync + 'static {
    /// Where the deque's words and entries live.
    type Store: Storage<Entry = u64> + Send + Sync;
    /// A fresh, empty deque with room for `capacity` entries.
    fn new(capacity: usize) -> Self;
    /// The deque.
    fn deque(&self) -> &TheDeque<Self::Store>;
}

impl<A: Atomics> Subject for A {
    fn with_capacity(capacity: usize) -> Self {
        A::new(capacity)
    }

    fn push(&self, v: u64) {
        self.deque().push(v)
    }

    fn pop(&self) -> Option<u64> {
        self.deque().pop()
    }

    fn steal_phased(&self, clock: impl FnMut() -> u64) -> (Option<u64>, StealPhases) {
        self.deque().steal_phased(clock)
    }

    fn len(&self) -> u64 {
        self.deque().len()
    }

    fn capacity(&self) -> usize {
        self.deque().capacity()
    }

    fn hold_lock(&self, held: bool) {
        match held {
            true => assert!(self.deque().steal_lock(&mut (), (), ()).0),
            false => self.deque().steal_unlock(&mut (), (), ()),
        }
    }
}

impl Atomics for NativeDeque<u64> {
    type Store = uat_deque::native::Owned<u64>;

    fn new(capacity: usize) -> Self {
        NativeDeque::new(capacity)
    }

    fn deque(&self) -> &Self {
        self
    }
}

/// A [`ShmDeque`] placed over an owned, zeroed, 8-byte-aligned block.
/// (Cross-process placement is exercised by `uat-fiber`'s multiprocess
/// runtime tests; the protocol is address-space agnostic, so threads
/// over one block cover the same interleavings.)
pub struct ShmBlock {
    _block: Vec<AtomicU64>,
    deque: ShmDeque,
}

impl Atomics for ShmBlock {
    type Store = uat_deque::native::Placed;

    fn new(capacity: usize) -> Self {
        let words = ShmDeque::block_size(capacity).div_ceil(8);
        let block: Vec<AtomicU64> = (0..words).map(|_| AtomicU64::new(0)).collect();
        // SAFETY: [I14] the block is zeroed, 8-byte aligned, big enough
        // by construction, private to this process, and dropped only
        // with the handle.
        let deque = unsafe { ShmDeque::from_raw(block.as_ptr() as *mut u8, capacity) };
        ShmBlock {
            _block: block,
            deque,
        }
    }

    fn deque(&self) -> &ShmDeque {
        &self.deque
    }
}

/// The fabric subject's thief.
pub const THIEF: WorkerId = WorkerId(1);

/// A [`FabricDeque`] in worker 0's registered memory on a two-worker
/// fabric, stolen from by [`THIEF`]. Value `v` travels as [`entry`]`(v)`.
pub struct FabricBlock {
    /// The fabric holding the deque.
    pub fabric: RefCell<Fabric>,
    /// The deque.
    pub deque: FabricDeque,
}

/// The entry a fabric subject stores for value `v`.
pub fn entry(v: u64) -> TaskqEntry {
    TaskqEntry {
        task: v,
        ctx: v * 10,
        frame_base: 0x7000 + v,
        frame_size: 100 + v,
    }
}

impl Subject for FabricBlock {
    fn with_capacity(capacity: usize) -> Self {
        let mut f = Fabric::new(Topology::new(2, 1), CostModel::fx10());
        let deque = FabricDeque::init(&mut f, WorkerId(0), 0x10_000, capacity as u64).unwrap();
        FabricBlock {
            fabric: RefCell::new(f),
            deque,
        }
    }

    fn push(&self, v: u64) {
        self.deque.push_in(&mut self.fabric.borrow_mut(), entry(v))
    }

    fn pop(&self) -> Option<u64> {
        match self.deque.pop_in(&mut self.fabric.borrow_mut()) {
            uat_deque::PopOutcome::Entry(e) => Some(e.task),
            uat_deque::PopOutcome::Empty => None,
            other => panic!("owner pop met a held lock: {other:?}"),
        }
    }

    fn steal_phased(&self, clock: impl FnMut() -> u64) -> (Option<u64>, StealPhases) {
        let mut f = self.fabric.borrow_mut();
        let (got, phases) = self.deque.steal_phased_in(&mut f, THIEF, Cycles(0), clock);
        (got.map(|e| e.task), phases)
    }

    fn len(&self) -> u64 {
        self.deque.len_in(&self.fabric.borrow())
    }

    fn capacity(&self) -> usize {
        self.deque.capacity()
    }

    fn hold_lock(&self, held: bool) {
        let f = &mut *self.fabric.borrow_mut();
        match held {
            true => assert!(self.deque.steal_lock(f, THIEF, Cycles(0)).0),
            false => _ = self.deque.steal_unlock(f, THIEF, Cycles(0)),
        }
    }
}

/// Instantiate each generic scenario `fn name<D: Subject>()` as a test
/// per placement: `native::name`, `shm::name` and `fabric::name` for the
/// sequential ones; `native::name` and `shm::name` for the `threaded`
/// ones (the simulator has no threads); and each `fn name()` listed under
/// `fabric` as `fabric::name`.
macro_rules! on_all {
    (
        sequential: [$($(#[$sattr:meta])* $seq:ident),* $(,)?],
        threaded: [$($(#[$tattr:meta])* $thr:ident),* $(,)?],
        fabric: [$($fab:ident),* $(,)?] $(,)?
    ) => {
        mod native {
            $(#[test] $(#[$sattr])* fn $seq() { super::$seq::<uat_deque::NativeDeque<u64>>() })*
            $(#[test] $(#[$tattr])* fn $thr() { super::$thr::<uat_deque::NativeDeque<u64>>() })*
        }
        mod shm {
            $(#[test] $(#[$sattr])* fn $seq() { super::$seq::<super::fixture::ShmBlock>() })*
            $(#[test] $(#[$tattr])* fn $thr() { super::$thr::<super::fixture::ShmBlock>() })*
        }
        mod fabric {
            $(#[test] $(#[$sattr])* fn $seq() { super::$seq::<super::fixture::FabricBlock>() })*
            $(#[test] fn $fab() { super::$fab() })*
        }
    };
}
