//! Property tests: the simulated address space against a flat reference
//! model of page states.

use proptest::prelude::*;
use std::collections::HashSet;
use uat_vmem::{AddressSpace, VmemError, PAGE_SIZE};

/// Per-page reference: which pages are committed, and which of those are
/// pinned — the representation `AddressSpace` had before it held runs.
#[derive(Default)]
struct PageSets {
    committed: HashSet<u64>,
    pinned: HashSet<u64>,
    faults: u64,
}

impl PageSets {
    fn touch(&mut self, pages: std::ops::Range<u64>) -> u64 {
        let faults = pages.filter(|&p| self.committed.insert(p)).count() as u64;
        self.faults += faults;
        faults
    }

    fn pin(&mut self, pages: std::ops::Range<u64>) {
        for p in pages {
            self.committed.insert(p);
            self.pinned.insert(p);
        }
    }

    fn release(&mut self, pages: std::ops::Range<u64>) {
        for p in pages {
            self.committed.remove(&p);
            self.pinned.remove(&p);
        }
    }

    fn agrees_with(&self, space: &AddressSpace) {
        let s = space.stats();
        assert_eq!(s.committed, self.committed.len() as u64 * PAGE_SIZE);
        assert_eq!(s.pinned, self.pinned.len() as u64 * PAGE_SIZE);
        assert_eq!(s.faults, self.faults);
        assert!(s.peak_committed >= s.committed);
    }
}

proptest! {
    /// Random touch/pin/release sequences over four abutting reservations
    /// agree with the per-page reference on fault counts, accounting
    /// totals, `is_pinned` and `is_committed` — including ranges whose
    /// runs merge across a reservation boundary and are split again when
    /// one side is released.
    #[test]
    fn matches_reference_model(
        ops in proptest::collection::vec((0u8..8, 0u64..64, 1u64..20), 1..120)
    ) {
        const PAGES: u64 = 16;
        let mut space = AddressSpace::new();
        let mut held: Vec<_> = (0..4).map(|_| space.reserve(PAGES * PAGE_SIZE).unwrap()).collect();
        let first_page = held[0].base / PAGE_SIZE;
        prop_assert_eq!(held[3].end(), held[0].base + 64 * PAGE_SIZE);
        let mut model = PageSets::default();
        let mut peak = 0;

        for (kind, page, pages) in ops {
            // Every range stays inside the reservation its first page is in.
            let slot = (page / PAGES) as usize;
            let pages = pages.min(PAGES - page % PAGES);
            let addr = held[slot].base + (page % PAGES) * PAGE_SIZE;
            let len = pages * PAGE_SIZE;
            let range = first_page + page..first_page + page + pages;
            match kind {
                0..=2 => {
                    // Sub-page offsets and lengths touch the same pages.
                    let faults = space.touch(addr + 9, len - 9).unwrap();
                    prop_assert_eq!(faults, model.touch(range));
                }
                3 | 4 => {
                    space.pin(addr, len).unwrap();
                    model.pin(range);
                }
                5 => {
                    // Drop the reservation with everything in it, then
                    // take the same addresses back, untouched.
                    space.release(held[slot]).unwrap();
                    let lo = first_page + slot as u64 * PAGES;
                    model.release(lo..lo + PAGES);
                    held[slot] = space.reserve_at(held[slot].base, held[slot].len).unwrap();
                }
                _ => {
                    // A query may run across reservation boundaries.
                    let len = (len * 3).min(held[3].end() - addr);
                    let expect = (addr / PAGE_SIZE..(addr + len).div_ceil(PAGE_SIZE))
                        .all(|p| model.pinned.contains(&p));
                    prop_assert_eq!(space.is_pinned(addr, len), expect);
                }
            }
            model.agrees_with(&space);
            peak = peak.max(space.stats().committed);
            prop_assert_eq!(space.stats().peak_committed, peak);
            for p in first_page..first_page + 64 {
                prop_assert_eq!(space.is_committed(p * PAGE_SIZE), model.committed.contains(&p));
            }
        }
    }

    /// The iso-address pattern: one huge reservation, stacks touched a
    /// few pages at a time at slot-sized strides, slots revisited — every
    /// first touch faults exactly once, however the touched pages are
    /// scattered, and no touch disturbs the pinned deque block next door.
    #[test]
    fn iso_scattered_touches_fault_once_per_page(
        touches in proptest::collection::vec((0u64..512, 1u64..(16 << 10)), 1..200)
    ) {
        const SLOT: u64 = 16 << 10;
        let mut space = AddressSpace::new();
        let global = space.reserve_at(0x4000_0000_0000, 1 << 40).unwrap();
        let deque = space.reserve(24 * PAGE_SIZE).unwrap();
        space.pin(deque.base, deque.len).unwrap();
        let mut model = PageSets::default();
        model.pin(deque.base / PAGE_SIZE..deque.end() / PAGE_SIZE);
        for (slot, size) in touches {
            let base = global.base + slot * SLOT;
            let faults = space.touch(base, size).unwrap();
            let pages = base / PAGE_SIZE..(base + size).div_ceil(PAGE_SIZE);
            prop_assert_eq!(faults, model.touch(pages));
            model.agrees_with(&space);
        }
        prop_assert!(space.is_pinned(deque.base, deque.len));
        prop_assert!(!space.is_pinned(global.base, PAGE_SIZE));
    }

    /// Reservations never overlap and releases return every byte.
    #[test]
    fn reservations_partition_space(sizes in proptest::collection::vec(1u64..(1 << 20), 1..40)) {
        let mut space = AddressSpace::new();
        let mut held = Vec::new();
        for sz in &sizes {
            let r = space.reserve(*sz).unwrap();
            for other in &held {
                let o: &uat_vmem::Reservation = other;
                prop_assert!(r.end() <= o.base || o.end() <= r.base, "overlap");
            }
            held.push(r);
        }
        let total: u64 = held.iter().map(|r| r.len).sum();
        prop_assert_eq!(space.stats().reserved, total);
        for r in held {
            space.release(r).unwrap();
        }
        prop_assert_eq!(space.stats().reserved, 0);
        prop_assert_eq!(space.stats().committed, 0);
    }

    /// Touching unreserved space is always an error and changes nothing.
    #[test]
    fn unmapped_touch_rejected(addr in (1u64 << 40)..(1u64 << 41), len in 1u64..4096) {
        let mut space = AddressSpace::new();
        space.reserve(PAGE_SIZE).unwrap();
        let before = space.stats();
        let r = space.touch(addr, len);
        let unmapped = matches!(r, Err(VmemError::Unmapped { .. }));
        prop_assert!(unmapped);
        prop_assert_eq!(space.stats(), before);
    }
}
