//! The THE deque placed in simulated registered RDMA memory.
//!
//! The words and entries sit in the owner's registered region at the
//! canonical [`crate::layout`] (little-endian u64s; entries are 32-byte
//! [`TaskqEntry`]s, slot = `position % capacity`). The owner's operations
//! are local memory accesses; a thief's are the one-sided ops of
//! Figure 6 / Table 3, each completing at the instant the fabric's cost
//! model gives — so the cluster simulator can interleave other workers
//! between a steal's phases:
//!
//! ```text
//! empty check   READ 16 B (top, bottom)
//! lock          fetch-and-add(+1) on the lock word, won when it was 0
//! take          READ 16 B (top, bottom), READ 32 B entry, WRITE 8 B top
//! unlock        WRITE 8 B of 0 to the lock word
//! ```

use crate::entry::{TaskqEntry, ENTRY_BYTES};
use crate::layout::{OFF_BOTTOM, OFF_ENTRIES, OFF_LOCK, OFF_TOP};
use crate::native::{Placement, TheDeque, Word};
use std::sync::atomic::Ordering;
use uat_base::{Cycles, WorkerId};
use uat_rdma::{Fabric, RdmaError};

/// The THE deque in a worker's simulated registered memory.
pub type FabricDeque = TheDeque<InFabric>;

/// A [`FabricDeque`]'s placement: which worker's memory, where, and how
/// many entries. It carries no deque state — everything lives in fabric
/// memory, which is what makes the thief's path genuinely one-sided.
#[derive(Clone, Copy, Debug)]
pub struct InFabric {
    owner: WorkerId,
    base: u64,
    capacity: u64,
}

const REGISTERED: &str = "deque block is registered fabric memory";

impl InFabric {
    fn addr(&self, word: Word) -> u64 {
        self.base + word as u64
    }

    fn slot(&self, position: u64) -> u64 {
        self.base + OFF_ENTRIES + (position % self.capacity) * ENTRY_BYTES as u64
    }

    fn entry(&self, f: &Fabric, position: u64) -> TaskqEntry {
        let mut b = [0u8; ENTRY_BYTES];
        f.mem(self.owner)
            .read_local(self.slot(position), &mut b)
            .expect(REGISTERED);
        TaskqEntry::from_bytes(&b)
    }
}

// SAFETY: [I1][I2] `init` bound the handle to `footprint(capacity)`
// registered bytes with a positive capacity, and `slot` keeps every
// position inside them, past the words. Fabric memory is plain bytes:
// no access here is unsound, only (if misused) wrong.
unsafe impl Placement for InFabric {
    type Entry = TaskqEntry;
    type Mem = Fabric;
    type Thief = WorkerId;
    type Instant = Cycles;
    /// A pop is one simulator event.
    const ATOMIC_POP: bool = true;
    /// The engine reschedules a contended owner.
    const OWNER_YIELDS: bool = true;

    fn capacity(&self) -> usize {
        self.capacity as usize
    }

    fn load(&self, f: &Fabric, word: Word, _: Ordering) -> u64 {
        f.mem(self.owner)
            .read_u64_local(self.addr(word))
            .expect(REGISTERED)
    }

    fn store(&self, f: &mut Fabric, word: Word, value: u64, _: Ordering) {
        f.mem_mut(self.owner)
            .write_u64_local(self.addr(word), value)
            .expect(REGISTERED)
    }

    unsafe fn read(&self, f: &Fabric, position: u64) -> TaskqEntry {
        self.entry(f, position)
    }

    unsafe fn write(&self, f: &mut Fabric, position: u64, entry: TaskqEntry) {
        f.mem_mut(self.owner)
            .write_local(self.slot(position), &entry.to_bytes())
            .expect(REGISTERED)
    }

    /// Taken locally (the owner's own memory) when free; a held lock
    /// makes the owner yield.
    fn owner_lock(&self, f: &mut Fabric) -> bool {
        let lock = self.base + OFF_LOCK;
        if f.mem(self.owner).read_u64_local(lock).expect(REGISTERED) != 0 {
            return false;
        }
        f.mem_mut(self.owner)
            .write_u64_local(lock, 1)
            .expect(REGISTERED);
        true
    }

    fn fetch_ends(
        &self,
        f: &mut Fabric,
        by: WorkerId,
        at: Cycles,
        _: Ordering,
        _: Ordering,
    ) -> (u64, u64, Cycles) {
        const _: () = assert!(OFF_BOTTOM == OFF_TOP + 8);
        let mut b = [0u8; 16];
        let done = f
            .read(at, by, self.owner, self.base + OFF_TOP, &mut b)
            .expect(REGISTERED);
        let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        (word(0), word(8), done)
    }

    unsafe fn fetch(
        &self,
        f: &mut Fabric,
        by: WorkerId,
        at: Cycles,
        position: u64,
    ) -> (TaskqEntry, Cycles) {
        let mut b = [0u8; ENTRY_BYTES];
        let done = f
            .read(at, by, self.owner, self.slot(position), &mut b)
            .expect(REGISTERED);
        (TaskqEntry::from_bytes(&b), done)
    }

    fn put(
        &self,
        f: &mut Fabric,
        by: WorkerId,
        at: Cycles,
        word: Word,
        value: u64,
        _: Ordering,
    ) -> Cycles {
        f.write_u64(at, by, self.owner, self.addr(word), value)
            .expect(REGISTERED)
    }

    /// A remote fetch-and-add(+1), won when the old value was 0. A lost
    /// attempt leaves its increment behind for the holder's unlock, a
    /// WRITE of 0, to erase.
    fn try_lock(&self, f: &mut Fabric, by: WorkerId, at: Cycles) -> (bool, Cycles) {
        let (old, done) = f
            .fetch_add_u64(at, by, self.owner, self.base + OFF_LOCK, 1)
            .expect(REGISTERED);
        (old == 0, done)
    }
}

impl FabricDeque {
    /// Bytes of registered memory a deque of `capacity` entries needs.
    pub fn footprint(capacity: u64) -> u64 {
        OFF_ENTRIES + capacity * ENTRY_BYTES as u64
    }

    /// Register [`footprint`](Self::footprint) bytes at `base` in
    /// `owner`'s memory and place an empty deque there.
    pub fn init(
        fabric: &mut Fabric,
        owner: WorkerId,
        base: u64,
        capacity: u64,
    ) -> Result<Self, RdmaError> {
        assert!(capacity > 0, "capacity must be positive");
        fabric.register(owner, base, Self::footprint(capacity) as usize)?;
        for off in [OFF_LOCK, OFF_TOP, OFF_BOTTOM] {
            fabric.mem_mut(owner).write_u64_local(base + off, 0)?;
        }
        let store = InFabric {
            owner,
            base,
            capacity,
        };
        Ok(TheDeque { store })
    }

    /// Diagnostic snapshot of the full shared state: lock word, indices,
    /// and the live entries in `[top, bottom)` oldest-first. Reads
    /// owner-side without cost accounting; used by the engine's `audit`
    /// feature and by `uat-check`'s differential replay.
    pub fn snapshot(&self, fabric: &Fabric) -> DequeSnapshot {
        let s = &self.store;
        let word = |w| s.load(fabric, w, Ordering::Relaxed);
        let (lock, top, bottom) = (word(Word::Lock), word(Word::Top), word(Word::Bottom));
        let entries = (top..bottom).map(|p| s.entry(fabric, p)).collect();
        DequeSnapshot {
            lock,
            top,
            bottom,
            entries,
        }
    }
}

/// Point-in-time view of a [`FabricDeque`]'s shared words, for invariant
/// auditing and model-checker replay (see [`FabricDeque::snapshot`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DequeSnapshot {
    /// Lock word (0 = free; >0 while a thief holds it, counting any
    /// failed fetch-and-add increments not yet erased by the unlock).
    pub lock: u64,
    /// Steal end (H): position of the oldest live entry.
    pub top: u64,
    /// Owner end (T): one past the youngest live entry.
    pub bottom: u64,
    /// Live entries in `[top, bottom)`, oldest first.
    pub entries: Vec<TaskqEntry>,
}
