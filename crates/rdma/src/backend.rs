//! Fabric backends: one one-sided interface, two transports.
//!
//! The steal protocol (and everything built on it) needs exactly three
//! remote primitives — READ, WRITE, fetch-and-add — addressed as
//! `(process, virtual address)` pairs. [`OneSidedFabric`] is that
//! interface with the *timing face removed*: the simulated [`Fabric`]
//! implements it by issuing the op at cycle zero and discarding the
//! completion instant (callers that care about simulated time keep
//! using the timed methods directly), and [`ShmFabric`] implements it
//! as real loads, stores and `AtomicU64::fetch_add` against memory the
//! caller has mapped at the *same virtual address in every process* —
//! the multiprocess backend's uni-address region.
//!
//! The split mirrors lamellar's lamellae abstraction (one trait, shmem
//! and network transports behind it) and keeps the pinned-region
//! contract explicit: both backends reject operations on unregistered
//! ranges, so an ODP-style backend (ROADMAP item 4) can later slot in
//! behind the same trait with a fault-and-retry policy instead of a
//! hard error.

use uat_base::{Cycles, WorkerId};

use crate::fabric::{Fabric, FabricStats, RdmaError};

/// The untimed one-sided operations every fabric backend provides.
///
/// `initiator` is who issues the op (used for stats/topology only);
/// `target` names the process whose registered memory is addressed.
/// All `u64` values cross the wire little-endian, matching the
/// simulated fabric.
pub trait OneSidedFabric {
    /// One-sided READ: copy `buf.len()` bytes from `(target, remote_addr)`.
    fn read(
        &mut self,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        buf: &mut [u8],
    ) -> Result<(), RdmaError>;

    /// One-sided WRITE: copy `data` to `(target, remote_addr)`.
    fn write(
        &mut self,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        data: &[u8],
    ) -> Result<(), RdmaError>;

    /// Remote fetch-and-add on an 8-byte-aligned u64; returns the
    /// previous value.
    fn fetch_add_u64(
        &mut self,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        delta: u64,
    ) -> Result<u64, RdmaError>;

    /// Convenience: remote read of a little-endian u64.
    fn read_u64(
        &mut self,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
    ) -> Result<u64, RdmaError> {
        let mut b = [0u8; 8];
        self.read(initiator, target, remote_addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Convenience: remote write of a little-endian u64.
    fn write_u64(
        &mut self,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        v: u64,
    ) -> Result<(), RdmaError> {
        self.write(initiator, target, remote_addr, &v.to_le_bytes())
    }

    /// Operation counters accumulated so far.
    fn stats(&self) -> FabricStats;
}

impl OneSidedFabric for Fabric {
    fn read(
        &mut self,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        buf: &mut [u8],
    ) -> Result<(), RdmaError> {
        Fabric::read(self, Cycles::ZERO, initiator, target, remote_addr, buf).map(|_| ())
    }

    fn write(
        &mut self,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        data: &[u8],
    ) -> Result<(), RdmaError> {
        Fabric::write(self, Cycles::ZERO, initiator, target, remote_addr, data).map(|_| ())
    }

    fn fetch_add_u64(
        &mut self,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        delta: u64,
    ) -> Result<u64, RdmaError> {
        Fabric::fetch_add_u64(self, Cycles::ZERO, initiator, target, remote_addr, delta)
            .map(|(old, _)| old)
    }

    fn stats(&self) -> FabricStats {
        Fabric::stats(self)
    }
}

/// One registered shared-memory window of one process.
#[derive(Clone, Copy, Debug)]
struct ShmRegion {
    proc: WorkerId,
    base: u64,
    len: u64,
}

impl ShmRegion {
    fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.base
            && addr
                .checked_add(len)
                .is_some_and(|end| end <= self.base + self.len)
    }
}

/// A fabric whose "remote" memory is process-shared memory mapped at
/// the same virtual address in every participating process.
///
/// READ/WRITE are plain `memcpy`s and FAA is a native
/// `AtomicU64::fetch_add` — the multiprocess backend's literal
/// implementation of the paper's one-sided steal primitives. The peer's
/// CPU is never involved, exactly like hardware RDMA against a pinned
/// region.
///
/// Registration is the safety boundary: [`ShmFabric::register_region`]
/// is `unsafe` because the fabric will dereference raw pointers into
/// the registered range from then on. Every operation validates its
/// address range against the registration table first, so a bad address
/// is an [`RdmaError`], never a wild access.
#[derive(Debug, Default)]
pub struct ShmFabric {
    regions: Vec<ShmRegion>,
    stats: FabricStats,
}

#[allow(unsafe_code)] // The one unsafe-using module of this crate; see [I13].
impl ShmFabric {
    /// An empty fabric with no registered windows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `[base, base+len)` as `proc`'s RDMA window.
    ///
    /// # Safety
    ///
    /// The caller guarantees the range is mapped, readable and writable
    /// in *this* process, stays mapped for the fabric's lifetime, and —
    /// for cross-process semantics to hold — is backed by memory shared
    /// with `proc` at this same virtual address (\[I13\]). All locations
    /// in the range that any party accesses concurrently must only be
    /// accessed through this fabric's FAA or via atomics on both sides.
    pub unsafe fn register_region(
        &mut self,
        proc: WorkerId,
        base: u64,
        len: usize,
    ) -> Result<(), RdmaError> {
        if len == 0 {
            return Err(RdmaError::ZeroLength);
        }
        let new = ShmRegion {
            proc,
            base,
            len: len as u64,
        };
        // Checked ends: near-u64::MAX registrations must be rejected,
        // not wrapped (a wrapped end can let a genuine overlap pass),
        // matching `contains`.
        let new_end = new
            .base
            .checked_add(new.len)
            .ok_or(RdmaError::AddressOverflow { proc, addr: base })?;
        let overlaps = self.regions.iter().any(|r| {
            r.proc == proc
                && r.base < new_end
                && r.base
                    .checked_add(r.len)
                    .is_none_or(|r_end| new.base < r_end)
        });
        if overlaps {
            return Err(RdmaError::OverlappingRegistration { proc, addr: base });
        }
        self.regions.push(new);
        Ok(())
    }

    /// Registered bytes across all processes.
    pub fn registered_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.len).sum()
    }

    fn check(&self, target: WorkerId, addr: u64, len: u64) -> Result<(), RdmaError> {
        let ok = self
            .regions
            .iter()
            .any(|r| r.proc == target && r.contains(addr, len));
        if ok {
            Ok(())
        } else {
            Err(RdmaError::NotRegistered { proc: target, addr })
        }
    }
}

#[allow(unsafe_code)]
impl OneSidedFabric for ShmFabric {
    fn read(
        &mut self,
        _initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        buf: &mut [u8],
    ) -> Result<(), RdmaError> {
        if buf.is_empty() {
            return Err(RdmaError::ZeroLength);
        }
        self.check(target, remote_addr, buf.len() as u64)?;
        // SAFETY: [I13] the range was validated against a registered
        // window, whose registration contract guarantees it is mapped
        // and readable at this address for the fabric's lifetime.
        unsafe {
            std::ptr::copy_nonoverlapping(remote_addr as *const u8, buf.as_mut_ptr(), buf.len());
        }
        self.stats.reads += 1;
        self.stats.read_bytes += buf.len() as u64;
        Ok(())
    }

    fn write(
        &mut self,
        _initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        data: &[u8],
    ) -> Result<(), RdmaError> {
        if data.is_empty() {
            return Err(RdmaError::ZeroLength);
        }
        self.check(target, remote_addr, data.len() as u64)?;
        // SAFETY: [I13] validated registered window; mapped and
        // writable per the registration contract, and the caller (not
        // the fabric) serializes plain-store ranges between processes.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), remote_addr as *mut u8, data.len());
        }
        self.stats.writes += 1;
        self.stats.write_bytes += data.len() as u64;
        Ok(())
    }

    fn fetch_add_u64(
        &mut self,
        _initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        delta: u64,
    ) -> Result<u64, RdmaError> {
        if !remote_addr.is_multiple_of(8) {
            return Err(RdmaError::Misaligned { addr: remote_addr });
        }
        self.check(target, remote_addr, 8)?;
        // SAFETY: [I13] validated, 8-byte-aligned location inside a
        // registered shared window; AtomicU64 makes the concurrent
        // cross-process RMW well-defined (process-shared atomics are
        // ordinary atomics on x86-64 shared mappings).
        let cell = unsafe { &*(remote_addr as *const std::sync::atomic::AtomicU64) };
        let old = cell.fetch_add(delta, std::sync::atomic::Ordering::AcqRel);
        self.stats.faas += 1;
        Ok(old)
    }

    fn stats(&self) -> FabricStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(unsafe_code)]
mod tests {
    use super::*;
    use uat_base::Topology;

    fn wid(i: u32) -> WorkerId {
        WorkerId(i)
    }

    /// A pinned heap buffer standing in for a shared mapping (the trait
    /// semantics are identical; cross-process behavior is exercised by
    /// the multiprocess runtime's own tests in `uat-fiber`).
    struct Window {
        buf: Box<[u8]>,
    }

    impl Window {
        fn new(len: usize) -> Self {
            Window {
                buf: vec![0u8; len].into_boxed_slice(),
            }
        }
        fn base(&self) -> u64 {
            self.buf.as_ptr() as u64
        }
    }

    #[test]
    fn shm_read_write_faa_roundtrip() {
        let w = Window::new(4096);
        let mut f = ShmFabric::new();
        // SAFETY: [I13] `w.buf` outlives `f` in this scope and is
        // exclusively owned by the test.
        unsafe { f.register_region(wid(1), w.base(), 4096).unwrap() };

        f.write(wid(0), wid(1), w.base() + 16, &[1, 2, 3, 4])
            .unwrap();
        let mut back = [0u8; 4];
        f.read(wid(0), wid(1), w.base() + 16, &mut back).unwrap();
        assert_eq!(back, [1, 2, 3, 4]);

        f.write_u64(wid(0), wid(1), w.base() + 64, 40).unwrap();
        assert_eq!(
            f.fetch_add_u64(wid(0), wid(1), w.base() + 64, 2).unwrap(),
            40
        );
        assert_eq!(f.read_u64(wid(0), wid(1), w.base() + 64).unwrap(), 42);

        let s = f.stats();
        assert_eq!((s.reads, s.writes, s.faas), (2, 2, 1));
        assert_eq!(s.write_bytes, 12);
    }

    #[test]
    fn shm_rejects_unregistered_misaligned_and_overlap() {
        let w = Window::new(256);
        let mut f = ShmFabric::new();
        // SAFETY: [I13] test-owned live buffer.
        unsafe { f.register_region(wid(0), w.base(), 256).unwrap() };
        // SAFETY: [I13] overlap is rejected before any access.
        let e = unsafe { f.register_region(wid(0), w.base() + 128, 256) };
        assert!(matches!(e, Err(RdmaError::OverlappingRegistration { .. })));
        // Same range on another proc id is a distinct window.
        // SAFETY: [I13] test-owned live buffer.
        unsafe { f.register_region(wid(1), w.base(), 256).unwrap() };

        let mut b = [0u8; 8];
        assert!(matches!(
            f.read(wid(0), wid(2), w.base(), &mut b),
            Err(RdmaError::NotRegistered { .. })
        ));
        // One byte past the window end.
        assert!(matches!(
            f.read(wid(0), wid(0), w.base() + 249, &mut b),
            Err(RdmaError::NotRegistered { .. })
        ));
        assert!(matches!(
            f.fetch_add_u64(wid(0), wid(0), w.base() + 3, 1),
            Err(RdmaError::Misaligned { .. })
        ));
        assert!(matches!(
            f.read(wid(0), wid(0), w.base(), &mut []),
            Err(RdmaError::ZeroLength)
        ));
    }

    #[test]
    fn sim_fabric_implements_the_untimed_trait() {
        let mut f = Fabric::new(Topology::new(1, 2), uat_base::CostModel::fx10());
        f.register(wid(1), 0x1000, 4096).unwrap();
        let g: &mut dyn OneSidedFabric = &mut f;
        g.write_u64(wid(0), wid(1), 0x1008, 7).unwrap();
        assert_eq!(g.fetch_add_u64(wid(0), wid(1), 0x1008, 5).unwrap(), 7);
        assert_eq!(g.read_u64(wid(0), wid(1), 0x1008).unwrap(), 12);
        assert_eq!(g.stats().faas, 1);
    }
}
