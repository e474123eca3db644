//! The THE deque's two constructors as test subjects: a scenario written
//! once over [`Subject`] runs on both, through [`on_both!`].

use std::sync::atomic::AtomicU64;
use uat_deque::layout::{OFF_LOCK, WORD_BYTES};
use uat_deque::native::{Owned, Placed};
use uat_deque::{NativeDeque, ShmDeque, TheDeque};

/// A deque under test, with whatever keeps its storage alive.
pub trait Subject: Send + Sync + 'static {
    /// Where the deque's words and entries live.
    type Store: uat_deque::Storage<Entry = u64> + Send + Sync;
    /// A fresh, empty deque with room for `capacity` entries.
    fn with_capacity(capacity: usize) -> Self;
    /// The deque.
    fn deque(&self) -> &TheDeque<Self::Store>;
    /// The lock word, found where [`uat_deque::layout`] puts it.
    fn lock_word(&self) -> &AtomicU64;
}

impl Subject for NativeDeque<u64> {
    type Store = Owned<u64>;

    fn with_capacity(capacity: usize) -> Self {
        NativeDeque::new(capacity)
    }

    fn deque(&self) -> &Self {
        self
    }

    fn lock_word(&self) -> &AtomicU64 {
        let base = (self as *const Self).cast::<u8>();
        // SAFETY: [I14] the deque's header holds the control words at
        // `base + OFF_*` (asserted where `Owned` is defined), as atomics
        // that live as long as `self`.
        unsafe { &*base.add(OFF_LOCK as usize).cast::<AtomicU64>() }
    }
}

/// A [`ShmDeque`] placed over an owned, zeroed, 8-byte-aligned block.
/// (Cross-process placement is exercised by `uat-fiber`'s multiprocess
/// runtime tests; the protocol is address-space agnostic, so threads
/// over one block cover the same interleavings.)
pub struct ShmBlock {
    block: Vec<AtomicU64>,
    deque: ShmDeque,
}

impl Subject for ShmBlock {
    type Store = Placed;

    fn with_capacity(capacity: usize) -> Self {
        let words = ShmDeque::block_size(capacity).div_ceil(8);
        let block: Vec<AtomicU64> = (0..words).map(|_| AtomicU64::new(0)).collect();
        // SAFETY: [I14] the block is zeroed, 8-byte aligned, big enough
        // by construction, private to this process, and dropped only
        // with the handle; the lock-word test hook is the one access
        // that bypasses the protocol, and it plays a thief holding the
        // lock.
        let deque = unsafe { ShmDeque::from_raw(block.as_ptr() as *mut u8, capacity) };
        ShmBlock { block, deque }
    }

    fn deque(&self) -> &ShmDeque {
        &self.deque
    }

    fn lock_word(&self) -> &AtomicU64 {
        &self.block[(OFF_LOCK / WORD_BYTES) as usize]
    }
}

/// Instantiate each generic scenario `fn name<D: Subject>()` as a test
/// per constructor: `native::name` and `shm::name`.
macro_rules! on_both {
    ($($(#[$attr:meta])* $name:ident),* $(,)?) => {
        mod native {
            $(
                #[test]
                $(#[$attr])*
                fn $name() {
                    super::$name::<uat_deque::NativeDeque<u64>>()
                }
            )*
        }
        mod shm {
            $(
                #[test]
                $(#[$attr])*
                fn $name() {
                    super::$name::<super::fixture::ShmBlock>()
                }
            )*
        }
    };
}
