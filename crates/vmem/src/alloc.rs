//! `pinned_malloc`-style allocator for the RDMA region.
//!
//! Suspended stacks are copied "into any free address in the RDMA region"
//! (Section 5.1) via `pinned_malloc` (Figure 8). This is a first-fit
//! free-list allocator with coalescing over one contiguous, pre-pinned
//! range. It allocates *simulated* addresses only; the bytes live wherever
//! the caller keeps them.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Allocation failure: the region cannot satisfy the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfRegion {
    /// Bytes requested.
    pub requested: u64,
    /// Largest contiguous free block available.
    pub largest_free: u64,
}

impl std::fmt::Display for OutOfRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RDMA region exhausted: requested {} bytes, largest free block {}",
            self.requested, self.largest_free
        )
    }
}

impl std::error::Error for OutOfRegion {}

/// First-fit allocator over `[base, base+len)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegionAllocator {
    base: u64,
    len: u64,
    align: u64,
    /// Free blocks: base -> len. Invariant: non-empty blocks, no two
    /// adjacent (always coalesced), sorted by construction.
    free: BTreeMap<u64, u64>,
    /// Live allocations: base -> len.
    live: BTreeMap<u64, u64>,
    used: u64,
    peak_used: u64,
}

impl RegionAllocator {
    /// Allocator over `[base, base+len)` with allocation alignment `align`
    /// (power of two; 16 matches the ABI stack alignment the runtime needs).
    pub fn new(base: u64, len: u64, align: u64) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(len > 0, "empty region");
        assert_eq!(base % align, 0, "region base must be aligned");
        let mut free = BTreeMap::new();
        free.insert(base, len);
        RegionAllocator {
            base,
            len,
            align,
            free,
            live: BTreeMap::new(),
            used: 0,
            peak_used: 0,
        }
    }

    /// Allocate `size` bytes; returns the block's base address.
    pub fn alloc(&mut self, size: u64) -> Result<u64, OutOfRegion> {
        let size = self.round(size.max(1));
        let candidate = self
            .free
            .iter()
            .find(|(_, &flen)| flen >= size)
            .map(|(&fbase, &flen)| (fbase, flen));
        let (fbase, flen) = candidate.ok_or_else(|| OutOfRegion {
            requested: size,
            largest_free: self.free.values().copied().max().unwrap_or(0),
        })?;
        self.free.remove(&fbase);
        if flen > size {
            self.free.insert(fbase + size, flen - size);
        }
        self.live.insert(fbase, size);
        self.used += size;
        self.peak_used = self.peak_used.max(self.used);
        Ok(fbase)
    }

    /// Free a block previously returned by [`alloc`](Self::alloc).
    ///
    /// Panics on a double free or foreign pointer — in the real runtime
    /// that is heap corruption, and the simulator treats it as a bug.
    pub fn free(&mut self, addr: u64) {
        let len = self
            .live
            .remove(&addr)
            .unwrap_or_else(|| panic!("free of untracked block {addr:#x}"));
        self.used -= len;
        // Coalesce with the previous free block if adjacent.
        let mut base = addr;
        let mut size = len;
        if let Some((&pbase, &plen)) = self.free.range(..addr).next_back() {
            if pbase + plen == addr {
                self.free.remove(&pbase);
                base = pbase;
                size += plen;
            }
        }
        // Coalesce with the next free block if adjacent.
        if let Some(&nlen) = self.free.get(&(addr + len)) {
            self.free.remove(&(addr + len));
            size += nlen;
        }
        self.free.insert(base, size);
    }

    /// Size of the live block at `addr`, if any.
    pub fn size_of(&self, addr: u64) -> Option<u64> {
        self.live.get(&addr).copied()
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// High-water mark of allocated bytes.
    pub fn peak_used(&self) -> u64 {
        self.peak_used
    }

    /// Total region capacity.
    pub fn capacity(&self) -> u64 {
        self.len
    }

    /// Base address of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    #[inline]
    fn round(&self, size: u64) -> u64 {
        size.div_ceil(self.align) * self.align
    }

    /// Internal consistency check used by tests: free + live blocks tile
    /// the region exactly, with no overlaps and full coalescing.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut blocks: Vec<(u64, u64, bool)> = self
            .free
            .iter()
            .map(|(&b, &l)| (b, l, true))
            .chain(self.live.iter().map(|(&b, &l)| (b, l, false)))
            .collect();
        blocks.sort_by_key(|&(b, _, _)| b);
        let mut cursor = self.base;
        let mut prev_free = false;
        for (b, l, is_free) in blocks {
            assert_eq!(b, cursor, "gap or overlap at {cursor:#x}");
            assert!(l > 0);
            assert!(
                !(prev_free && is_free),
                "two adjacent free blocks were not coalesced at {b:#x}"
            );
            prev_free = is_free;
            cursor = b + l;
        }
        assert_eq!(cursor, self.base + self.len, "blocks must tile the region");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut a = RegionAllocator::new(0x1000, 4096, 16);
        let p = a.alloc(100).unwrap();
        assert_eq!(p % 16, 0);
        assert_eq!(a.size_of(p), Some(112)); // rounded to 16
        assert_eq!(a.used(), 112);
        a.free(p);
        assert_eq!(a.used(), 0);
        assert_eq!(a.peak_used(), 112);
        a.check_invariants();
    }

    #[test]
    fn exhaustion_reports_largest_block() {
        let mut a = RegionAllocator::new(0, 256, 16);
        let p1 = a.alloc(96).unwrap();
        let _p2 = a.alloc(96).unwrap();
        a.free(p1);
        // 96 free at front, 64 free at back, not adjacent.
        let err = a.alloc(128).unwrap_err();
        assert_eq!(err.largest_free, 96);
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut a = RegionAllocator::new(0, 4096, 16);
        let p1 = a.alloc(512).unwrap();
        let p2 = a.alloc(512).unwrap();
        let p3 = a.alloc(512).unwrap();
        a.free(p1);
        a.free(p3);
        a.check_invariants();
        // Freeing the middle block must fuse all three with the tail.
        a.free(p2);
        a.check_invariants();
        let p = a.alloc(4096).unwrap();
        assert_eq!(p, 0, "whole region available again");
    }

    #[test]
    #[should_panic(expected = "untracked block")]
    fn double_free_panics() {
        let mut a = RegionAllocator::new(0, 4096, 16);
        let p = a.alloc(64).unwrap();
        a.free(p);
        a.free(p);
    }

    #[test]
    fn zero_sized_alloc_gets_min_block() {
        let mut a = RegionAllocator::new(0, 4096, 16);
        let p = a.alloc(0).unwrap();
        assert_eq!(a.size_of(p), Some(16));
    }

    #[test]
    fn first_fit_reuses_earliest_hole() {
        let mut a = RegionAllocator::new(0, 4096, 16);
        let p1 = a.alloc(256).unwrap();
        let _p2 = a.alloc(256).unwrap();
        a.free(p1);
        let p3 = a.alloc(128).unwrap();
        assert_eq!(p3, p1, "first fit should fill the first hole");
        a.check_invariants();
    }

    proptest! {
        /// Random alloc/free interleavings keep the allocator consistent
        /// and never lose bytes.
        #[test]
        fn random_ops_preserve_invariants(ops in proptest::collection::vec((0u8..2, 1u64..2048), 1..200)) {
            let mut a = RegionAllocator::new(0x10000, 1 << 20, 16);
            let mut live: Vec<u64> = Vec::new();
            for (kind, arg) in ops {
                if kind == 0 {
                    if let Ok(p) = a.alloc(arg) {
                        live.push(p);
                    }
                } else if !live.is_empty() {
                    let idx = (arg as usize) % live.len();
                    a.free(live.swap_remove(idx));
                }
                a.check_invariants();
            }
            let total: u64 = live.iter().map(|&p| a.size_of(p).unwrap()).sum();
            prop_assert_eq!(total, a.used());
            for p in live { a.free(p); }
            prop_assert_eq!(a.used(), 0);
            a.check_invariants();
        }
    }
}
