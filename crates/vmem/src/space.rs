//! Per-process simulated address spaces.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Simulated page size in bytes. FX10's XTCOS uses 8 KiB base pages on
/// SPARC64IXfx, but the paper's arithmetic (and x86-64) uses 4 KiB; the
/// experiments that depend on it take the size from here.
pub const PAGE_SIZE: u64 = 4096;

/// Virtual-address-space size limit of current x86-64 processors (2^48),
/// the bound the paper's Section 4 example exceeds.
pub const X86_64_VA_LIMIT: u64 = 1 << 48;

/// Errors from address-space operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmemError {
    /// The requested range overlaps an existing reservation.
    Overlap {
        /// Requested base address.
        addr: u64,
        /// Requested length.
        len: u64,
    },
    /// An access or pin touched memory with no reservation behind it.
    Unmapped {
        /// Faulting address.
        addr: u64,
    },
    /// Reservation would exceed the address-space size limit.
    OutOfAddressSpace {
        /// Bytes requested.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// Zero-length reservation or access.
    ZeroLength,
}

impl fmt::Display for VmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmemError::Overlap { addr, len } => {
                write!(f, "reservation [{addr:#x}, +{len:#x}) overlaps an existing one")
            }
            VmemError::Unmapped { addr } => write!(f, "access to unmapped address {addr:#x}"),
            VmemError::OutOfAddressSpace {
                requested,
                available,
            } => write!(
                f,
                "out of virtual address space: requested {requested:#x} bytes, {available:#x} available"
            ),
            VmemError::ZeroLength => write!(f, "zero-length operation"),
        }
    }
}

impl std::error::Error for VmemError {}

/// A contiguous reserved range of virtual addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reservation {
    /// First address of the range (page aligned).
    pub base: u64,
    /// Length in bytes (page aligned).
    pub len: u64,
}

impl Reservation {
    /// One past the last address.
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.len
    }

    /// Whether `addr` falls inside the reservation.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Memory accounting snapshot for one address space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Bytes of virtual address space currently reserved.
    pub reserved: u64,
    /// Peak reserved bytes over the space's lifetime.
    pub peak_reserved: u64,
    /// Bytes of physical memory committed (touched or pinned pages).
    pub committed: u64,
    /// Peak committed bytes.
    pub peak_committed: u64,
    /// Bytes currently pinned (registered for RDMA).
    pub pinned: u64,
    /// Total page faults taken (first touches of reserved pages).
    pub faults: u64,
}

/// A set of pages held as maximal runs, `first page → one past the last`:
/// disjoint and never adjacent, so a contiguous range costs one entry
/// however many pages it spans.
#[derive(Clone, Debug, Default)]
struct Extents(BTreeMap<u64, u64>);

impl Extents {
    /// Add `[lo, hi)`, absorbing every run it overlaps or abuts. Returns
    /// the number of pages that were not in the set before.
    fn insert(&mut self, lo: u64, hi: u64) -> u64 {
        let (mut start, mut end, mut fresh) = (lo, hi, hi - lo);
        while let Some((&s, &e)) = self.0.range(..=end).next_back().filter(|r| *r.1 >= start) {
            fresh -= e.min(hi).saturating_sub(s.max(lo));
            (start, end) = (start.min(s), end.max(e));
            self.0.remove(&s);
        }
        self.0.insert(start, end);
        fresh
    }

    /// Remove `[lo, hi)`, splitting the runs that straddle its ends.
    /// Returns the number of pages that were in the set.
    fn remove(&mut self, lo: u64, hi: u64) -> u64 {
        let mut gone = 0;
        while let Some((&s, &e)) = self.0.range(..hi).next_back().filter(|r| *r.1 > lo) {
            self.0.remove(&s);
            if s < lo {
                self.0.insert(s, lo);
            }
            if e > hi {
                self.0.insert(hi, e);
            }
            gone += e.min(hi) - s.max(lo);
        }
        gone
    }

    /// Whether every page of `[lo, hi)` is in the set. Runs are maximal,
    /// so a covered range lies inside a single one.
    fn covers(&self, lo: u64, hi: u64) -> bool {
        self.0.range(..=lo).next_back().is_some_and(|r| *r.1 >= hi)
    }
}

/// A simulated process address space.
///
/// Tracks reservations exactly and committed/pinned state at page
/// granularity, *sparsely*, as runs of pages: a 2^49-byte iso-address
/// reservation costs a few words here, a pinned region one run, and
/// scattered first touches one run each — which is precisely the
/// asymmetry the paper exploits in its analysis.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    /// Reservations keyed by base address.
    reservations: BTreeMap<u64, Reservation>,
    /// Committed (physically backed) pages, by page index.
    committed: Extents,
    /// Pinned pages, by page index (subset of committed).
    pinned: Extents,
    /// Bump pointer for address assignment of non-fixed reservations.
    next_free: u64,
    /// Size limit of this address space.
    va_limit: u64,
    stats: MemStats,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Fresh address space with the x86-64 2^48 VA limit.
    pub fn new() -> Self {
        Self::with_limit(X86_64_VA_LIMIT)
    }

    /// Fresh address space with an explicit VA size limit (the Section 4
    /// experiment uses this to show iso-address exhausting 2^48).
    pub fn with_limit(va_limit: u64) -> Self {
        AddressSpace {
            reservations: BTreeMap::new(),
            committed: Extents::default(),
            pinned: Extents::default(),
            // Leave the low 64 MiB unused, like a real process image would
            // (scaled down for artificially small spaces).
            next_free: (0x0400_0000u64).min(va_limit / 4).max(PAGE_SIZE),
            va_limit,
            stats: MemStats::default(),
        }
    }

    /// Round `len` up to a whole number of pages.
    #[inline]
    pub fn page_align(len: u64) -> u64 {
        len.div_ceil(PAGE_SIZE) * PAGE_SIZE
    }

    /// Reserve `len` bytes at a system-chosen address.
    pub fn reserve(&mut self, len: u64) -> Result<Reservation, VmemError> {
        if len == 0 {
            return Err(VmemError::ZeroLength);
        }
        let len = Self::page_align(len);
        // First-fit from the bump pointer; skip over existing reservations.
        let mut base = self.next_free;
        loop {
            match self.conflicting(base, len) {
                None => break,
                Some(r) => base = r.end(),
            }
            if base.checked_add(len).is_none() {
                return Err(VmemError::OutOfAddressSpace {
                    requested: len,
                    available: 0,
                });
            }
        }
        let r = self.insert(base, len)?;
        self.next_free = r.end();
        Ok(r)
    }

    /// Reserve `[addr, addr+len)` exactly (like `mmap(MAP_FIXED_NOREPLACE)`).
    ///
    /// This is how every uni-address process maps *the* uni-address region
    /// at the same virtual address, and how iso-address reserves the global
    /// stack range on every node.
    pub fn reserve_at(&mut self, addr: u64, len: u64) -> Result<Reservation, VmemError> {
        if len == 0 {
            return Err(VmemError::ZeroLength);
        }
        assert_eq!(
            addr % PAGE_SIZE,
            0,
            "fixed reservations must be page aligned"
        );
        let len = Self::page_align(len);
        if self.conflicting(addr, len).is_some() {
            return Err(VmemError::Overlap { addr, len });
        }
        self.insert(addr, len)
    }

    fn insert(&mut self, base: u64, len: u64) -> Result<Reservation, VmemError> {
        let end = base.checked_add(len).ok_or(VmemError::OutOfAddressSpace {
            requested: len,
            available: 0,
        })?;
        if end > self.va_limit || self.stats.reserved.saturating_add(len) > self.va_limit {
            return Err(VmemError::OutOfAddressSpace {
                requested: len,
                available: self.va_limit.saturating_sub(self.stats.reserved),
            });
        }
        let r = Reservation { base, len };
        self.reservations.insert(base, r);
        self.stats.reserved += len;
        self.stats.peak_reserved = self.stats.peak_reserved.max(self.stats.reserved);
        Ok(r)
    }

    fn conflicting(&self, base: u64, len: u64) -> Option<Reservation> {
        let end = base.saturating_add(len);
        // Candidate: the last reservation starting at or before `end`.
        self.reservations
            .range(..end)
            .next_back()
            .map(|(_, r)| *r)
            .filter(|r| r.end() > base)
    }

    /// Release a reservation, decommitting and unpinning its pages.
    pub fn release(&mut self, r: Reservation) -> Result<(), VmemError> {
        match self.reservations.remove(&r.base) {
            Some(found) if found == r => {}
            Some(found) => {
                // Put it back; caller passed a stale handle.
                self.reservations.insert(found.base, found);
                return Err(VmemError::Unmapped { addr: r.base });
            }
            None => return Err(VmemError::Unmapped { addr: r.base }),
        }
        self.stats.reserved -= r.len;
        let (lo, hi) = page_range(r.base, r.len);
        self.stats.committed -= self.committed.remove(lo, hi) * PAGE_SIZE;
        self.stats.pinned -= self.pinned.remove(lo, hi) * PAGE_SIZE;
        Ok(())
    }

    /// Simulate an access to `[addr, addr+len)`.
    ///
    /// Returns the number of page faults taken (pages committed by this
    /// access); the caller converts that to cycles via the cost model.
    pub fn touch(&mut self, addr: u64, len: u64) -> Result<u64, VmemError> {
        if len == 0 {
            return Err(VmemError::ZeroLength);
        }
        self.check_mapped(addr, len)?;
        let (lo, hi) = page_range(addr, len);
        let faults = self.committed.insert(lo, hi);
        self.stats.committed += faults * PAGE_SIZE;
        self.stats.faults += faults;
        self.stats.peak_committed = self.stats.peak_committed.max(self.stats.committed);
        Ok(faults)
    }

    /// Pin `[addr, addr+len)` for RDMA: commits (without counting faults —
    /// registration pre-faults pages) and marks pages pinned.
    pub fn pin(&mut self, addr: u64, len: u64) -> Result<(), VmemError> {
        if len == 0 {
            return Err(VmemError::ZeroLength);
        }
        self.check_mapped(addr, len)?;
        let (lo, hi) = page_range(addr, len);
        self.stats.committed += self.committed.insert(lo, hi) * PAGE_SIZE;
        self.stats.pinned += self.pinned.insert(lo, hi) * PAGE_SIZE;
        self.stats.peak_committed = self.stats.peak_committed.max(self.stats.committed);
        Ok(())
    }

    /// Whether every page of `[addr, addr+len)` is pinned (an RDMA
    /// operation targeting the range is legal).
    pub fn is_pinned(&self, addr: u64, len: u64) -> bool {
        len > 0 && {
            let (lo, hi) = page_range(addr, len);
            self.pinned.covers(lo, hi)
        }
    }

    /// Whether a page has been committed (touched or pinned).
    pub fn is_committed(&self, addr: u64) -> bool {
        let page = addr / PAGE_SIZE;
        self.committed.covers(page, page + 1)
    }

    /// The reservation containing `addr`, if any.
    pub fn reservation_of(&self, addr: u64) -> Option<Reservation> {
        self.reservations
            .range(..=addr)
            .next_back()
            .map(|(_, r)| *r)
            .filter(|r| r.contains(addr))
    }

    fn check_mapped(&self, addr: u64, len: u64) -> Result<(), VmemError> {
        // The whole range must lie in one reservation (stacks never span
        // reservations in either scheme).
        match self.reservation_of(addr) {
            Some(r) if addr + len <= r.end() => Ok(()),
            Some(_) | None => Err(VmemError::Unmapped { addr }),
        }
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Remaining unreserved virtual address space.
    pub fn va_available(&self) -> u64 {
        self.va_limit - self.stats.reserved
    }
}

/// The pages `[addr, addr+len)` touches, as `(first, one past the last)`.
fn page_range(addr: u64, len: u64) -> (u64, u64) {
    (addr / PAGE_SIZE, (addr + len - 1) / PAGE_SIZE + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_assigns_distinct_ranges() {
        let mut a = AddressSpace::new();
        let r1 = a.reserve(10_000).unwrap();
        let r2 = a.reserve(10_000).unwrap();
        assert_eq!(r1.len % PAGE_SIZE, 0);
        assert!(r1.end() <= r2.base || r2.end() <= r1.base);
        assert_eq!(a.stats().reserved, r1.len + r2.len);
    }

    #[test]
    fn reserve_at_fixed_address() {
        let mut a = AddressSpace::new();
        let r = a.reserve_at(0x7000_0000, 4096).unwrap();
        assert_eq!(r.base, 0x7000_0000);
        assert!(a.reserve_at(0x7000_0000, 4096).is_err(), "overlap rejected");
    }

    #[test]
    fn overlap_detection_edges() {
        let mut a = AddressSpace::new();
        a.reserve_at(0x10000, 2 * PAGE_SIZE).unwrap();
        // Abutting on both sides is fine.
        a.reserve_at(0x10000 - PAGE_SIZE, PAGE_SIZE).unwrap();
        a.reserve_at(0x10000 + 2 * PAGE_SIZE, PAGE_SIZE).unwrap();
        // One byte of overlap (page-granular) is not.
        assert!(matches!(
            a.reserve_at(0x10000 + PAGE_SIZE, 2 * PAGE_SIZE),
            Err(VmemError::Overlap { .. })
        ));
    }

    #[test]
    fn touch_commits_once_per_page() {
        let mut a = AddressSpace::new();
        let r = a.reserve(8 * PAGE_SIZE).unwrap();
        let f1 = a.touch(r.base, 3 * PAGE_SIZE).unwrap();
        assert_eq!(f1, 3);
        let f2 = a.touch(r.base, 3 * PAGE_SIZE).unwrap();
        assert_eq!(f2, 0, "second touch faults nothing");
        let f3 = a.touch(r.base + 2 * PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
        assert_eq!(f3, 1, "only the new page faults");
        assert_eq!(a.stats().faults, 4);
        assert_eq!(a.stats().committed, 4 * PAGE_SIZE);
    }

    #[test]
    fn touch_subpage_ranges() {
        let mut a = AddressSpace::new();
        let r = a.reserve(4 * PAGE_SIZE).unwrap();
        // A 10-byte access straddling a page boundary faults two pages.
        let f = a.touch(r.base + PAGE_SIZE - 5, 10).unwrap();
        assert_eq!(f, 2);
    }

    #[test]
    fn touch_unmapped_is_error() {
        let mut a = AddressSpace::new();
        assert!(matches!(
            a.touch(0xdead_0000, 8),
            Err(VmemError::Unmapped { .. })
        ));
        let r = a.reserve(PAGE_SIZE).unwrap();
        // Runs off the end of the reservation.
        assert!(a.touch(r.base + PAGE_SIZE - 4, 8).is_err());
    }

    #[test]
    fn pin_commits_without_faults() {
        let mut a = AddressSpace::new();
        let r = a.reserve(4 * PAGE_SIZE).unwrap();
        a.pin(r.base, 2 * PAGE_SIZE).unwrap();
        assert_eq!(a.stats().faults, 0);
        assert_eq!(a.stats().pinned, 2 * PAGE_SIZE);
        assert!(a.is_pinned(r.base, 2 * PAGE_SIZE));
        assert!(!a.is_pinned(r.base, 3 * PAGE_SIZE));
        // Pinned pages never fault on touch.
        assert_eq!(a.touch(r.base, PAGE_SIZE).unwrap(), 0);
    }

    #[test]
    fn release_returns_memory() {
        let mut a = AddressSpace::new();
        let r = a.reserve(4 * PAGE_SIZE).unwrap();
        a.touch(r.base, 4 * PAGE_SIZE).unwrap();
        a.pin(r.base, PAGE_SIZE).unwrap();
        a.release(r).unwrap();
        let s = a.stats();
        assert_eq!(s.reserved, 0);
        assert_eq!(s.committed, 0);
        assert_eq!(s.pinned, 0);
        assert_eq!(s.peak_committed, 4 * PAGE_SIZE, "peak persists");
        assert!(a.release(r).is_err(), "double release rejected");
    }

    #[test]
    fn va_limit_enforced() {
        let mut a = AddressSpace::with_limit(1 << 20);
        assert!(a.reserve(1 << 21).is_err());
        let got = a.reserve(1 << 19).unwrap();
        assert_eq!(got.len, 1 << 19);
        // Section 4's point: many modest reservations exhaust the space.
        let err = a.reserve(1 << 20).unwrap_err();
        assert!(matches!(err, VmemError::OutOfAddressSpace { .. }));
    }

    #[test]
    fn iso_address_example_exceeds_x86_64() {
        // The paper's arithmetic: 2^22 workers x 2^13 depth x 2^14 bytes
        // = 2^49 > 2^48.
        let mut a = AddressSpace::new();
        let per_stack = 1u64 << 14;
        let stacks = (1u64 << 22) * (1u64 << 13);
        let total = stacks.checked_mul(per_stack).unwrap();
        assert_eq!(total, 1 << 49);
        assert!(a.reserve(total).is_err());
    }

    #[test]
    fn reservation_lookup() {
        let mut a = AddressSpace::new();
        let r = a.reserve_at(0x50000, 2 * PAGE_SIZE).unwrap();
        assert_eq!(a.reservation_of(0x50000), Some(r));
        assert_eq!(a.reservation_of(0x50000 + 2 * PAGE_SIZE - 1), Some(r));
        assert_eq!(a.reservation_of(0x50000 + 2 * PAGE_SIZE), None);
        assert_eq!(a.reservation_of(0x4ffff), None);
    }

    #[test]
    fn zero_length_rejected() {
        let mut a = AddressSpace::new();
        assert_eq!(a.reserve(0), Err(VmemError::ZeroLength));
        let r = a.reserve(PAGE_SIZE).unwrap();
        assert_eq!(a.touch(r.base, 0), Err(VmemError::ZeroLength));
        assert_eq!(a.pin(r.base, 0), Err(VmemError::ZeroLength));
    }

    #[test]
    fn pinning_a_reservation_is_one_run() {
        let mut a = AddressSpace::new();
        // Bump-allocated reservations abut, so their pinned pages merge.
        let r1 = a.reserve(2048 * PAGE_SIZE).unwrap();
        let r2 = a.reserve(256 * PAGE_SIZE).unwrap();
        a.pin(r1.base, r1.len).unwrap();
        a.pin(r2.base, r2.len).unwrap();
        assert_eq!(r1.end(), r2.base);
        assert_eq!((a.committed.0.len(), a.pinned.0.len()), (1, 1));
        assert!(a.is_pinned(r1.base, r1.len + r2.len));
        // Releasing one splits the run; the neighbour keeps its pages.
        a.release(r1).unwrap();
        assert_eq!(a.pinned.0, BTreeMap::from([page_range(r2.base, r2.len)]));
        assert_eq!(a.stats().pinned, r2.len);
        assert!(!a.is_committed(r1.end() - 1) && a.is_committed(r2.base));
    }

    proptest::proptest! {
        /// `Extents` against a plain set of pages: the counts `insert`
        /// and `remove` return, `covers`, and the representation itself —
        /// after every operation the runs are exactly the maximal runs of
        /// the reference (merged on insert, split on remove).
        #[test]
        fn extents_match_a_page_set(
            ops in proptest::collection::vec((0u8..3, 1u64..48, 1u64..12), 1..100)
        ) {
            let mut runs = Extents::default();
            let mut pages = std::collections::HashSet::new();
            for (kind, lo, n) in ops {
                let hi = lo + n;
                match kind {
                    0 => {
                        let fresh = (lo..hi).filter(|&p| pages.insert(p)).count() as u64;
                        assert_eq!(runs.insert(lo, hi), fresh);
                    }
                    1 => {
                        let gone = (lo..hi).filter(|p| pages.remove(p)).count() as u64;
                        assert_eq!(runs.remove(lo, hi), gone);
                    }
                    _ => assert_eq!(runs.covers(lo, hi), (lo..hi).all(|p| pages.contains(&p))),
                }
                let mut maximal = BTreeMap::new();
                for p in (1..64).filter(|p| pages.contains(p) && !pages.contains(&(p - 1))) {
                    let end = (p..).find(|q| !pages.contains(q)).expect("finite set");
                    maximal.insert(p, end);
                }
                assert_eq!(runs.0, maximal);
            }
        }
    }

    #[test]
    fn reserve_skips_fixed_reservations() {
        let mut a = AddressSpace::new();
        // Plant a fixed reservation right where the bump pointer starts.
        a.reserve_at(0x0400_0000, 16 * PAGE_SIZE).unwrap();
        let r = a.reserve(PAGE_SIZE).unwrap();
        assert!(r.base >= 0x0400_0000 + 16 * PAGE_SIZE);
    }
}
