//! The fabric: registered memory + one-sided operations.

use serde::{Deserialize, Serialize};
use std::fmt;
use uat_base::json::{Json, ToJson};
use uat_base::{CostModel, Cycles, Topology, WorkerId};
use uat_trace::{EventKind, RdmaOpKind, RingBuffer, TraceEvent};

/// Errors from fabric operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RdmaError {
    /// The target range is not inside any registered (pinned) region.
    NotRegistered {
        /// Target process.
        proc: WorkerId,
        /// Faulting remote address.
        addr: u64,
    },
    /// A new registration overlaps an existing one.
    OverlappingRegistration {
        /// Process attempting the registration.
        proc: WorkerId,
        /// Base of the new region.
        addr: u64,
    },
    /// Atomic operations require 8-byte alignment.
    Misaligned {
        /// The unaligned address.
        addr: u64,
    },
    /// Zero-length transfer.
    ZeroLength,
    /// A registration's end (`base + len`) does not fit in the address
    /// space.
    AddressOverflow {
        /// Process attempting the registration.
        proc: WorkerId,
        /// Base of the rejected region.
        addr: u64,
    },
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::NotRegistered { proc, addr } => {
                write!(
                    f,
                    "address {addr:#x} on {proc} is not in a registered region"
                )
            }
            RdmaError::OverlappingRegistration { proc, addr } => {
                write!(
                    f,
                    "registration at {addr:#x} on {proc} overlaps an existing region"
                )
            }
            RdmaError::Misaligned { addr } => {
                write!(f, "atomic op on unaligned address {addr:#x}")
            }
            RdmaError::ZeroLength => write!(f, "zero-length transfer"),
            RdmaError::AddressOverflow { proc, addr } => {
                write!(
                    f,
                    "registration at {addr:#x} on {proc} overflows the address space"
                )
            }
        }
    }
}

impl std::error::Error for RdmaError {}

/// Bytes per lazily materialised page of a registered region.
const PAGE: usize = uat_vmem::PAGE_SIZE as usize;

/// Pages per arena chunk: 1 MiB.
const CHUNK_PAGES: usize = 256;

/// The page-table entry of a page no write has reached.
const UNWRITTEN: u32 = u32::MAX;

/// One materialised page, aligned like the host page it stands for:
/// 4 KiB blocks at the allocator's natural 16-byte alignment straddle two
/// host pages each, which measured +8 % on the engine's `ns_per_event`.
#[repr(align(4096))]
struct Page([u8; PAGE]);

const _: () = assert!(std::mem::align_of::<Page>() == PAGE);

/// Every page any process of a fabric has written, densely packed.
///
/// Each chunk is reserved (not touched) at [`CHUNK_PAGES`] pages when it
/// is started and only ever pushed to, so a page never moves and a
/// page-table entry is a 4-byte index. The host holds one host page per
/// written page, plus at most one per chunk: the allocator puts its
/// bookkeeping in front of every page-aligned block, touching the host
/// page before it — which is why a separately allocated page would cost
/// two.
#[derive(Default)]
struct Arena {
    chunks: Vec<Vec<Page>>,
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena").field("pages", &self.len()).finish()
    }
}

impl Arena {
    fn page(&self, p: u32) -> &[u8; PAGE] {
        let p = p as usize;
        &self.chunks[p / CHUNK_PAGES][p % CHUNK_PAGES].0
    }

    fn page_mut(&mut self, p: u32) -> &mut [u8; PAGE] {
        let p = p as usize;
        &mut self.chunks[p / CHUNK_PAGES][p % CHUNK_PAGES].0
    }

    /// Append an all-zero page and return its index. Out of line: inlined,
    /// the `[0; PAGE]` temporary gives `write_local` a page-sized stack
    /// frame and with it a stack probe on every call (measured: +10 %).
    #[inline(never)]
    fn push_zeroed(&mut self) -> u32 {
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK_PAGES) {
            self.chunks.push(Vec::with_capacity(CHUNK_PAGES));
        }
        let full = (self.chunks.len() - 1) * CHUNK_PAGES;
        let chunk = self.chunks.last_mut().expect("a chunk was just ensured");
        let p = full + chunk.len();
        chunk.push(Page([0; PAGE]));
        u32::try_from(p)
            .ok()
            .filter(|&p| p != UNWRITTEN)
            .expect("fewer than 2^32 - 1 pages written")
    }

    fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }
}

/// One registered region: `len` bytes at `base`, backed page by page.
#[derive(Debug)]
struct Region {
    base: u64,
    len: usize,
    /// Page table, indexed by `offset / PAGE` and grown only as far as
    /// the highest page written: an [`Arena`] index, or [`UNWRITTEN`]. A
    /// page that was never written holds no memory and reads as zeros —
    /// exactly what `register`'s zero-initialised contract promises for it.
    pages: Vec<u32>,
}

/// One process's registered regions; their pages live in the fabric's
/// [`Arena`].
#[derive(Debug)]
struct Regions {
    /// The process this memory belongs to (named in errors).
    owner: WorkerId,
    /// Registered regions, sorted by base address. A process registers a
    /// handful of fixed regions at startup (uni-address region, RDMA
    /// heap, deque block), so a sorted `Vec` beats a tree: `locate`
    /// resolves to an *index*, letting the byte access reuse it instead
    /// of paying a second map lookup.
    regions: Vec<Region>,
    /// Index of the region `locate` last hit. Deque pointer traffic
    /// revisits the same region almost every access; the hit is
    /// re-validated against the region's bounds, and `register` resets
    /// it, so it can never serve a stale answer.
    last_hit: std::cell::Cell<usize>,
}

impl Regions {
    fn new(owner: WorkerId) -> Self {
        Regions {
            owner,
            regions: Vec::new(),
            last_hit: std::cell::Cell::new(usize::MAX),
        }
    }

    /// The region holding all of `[addr, addr+len)` and the offset of
    /// `addr` in it.
    fn locate(&self, addr: u64, len: usize) -> Result<(usize, usize), RdmaError> {
        let fits = |r: &Region| {
            let off = usize::try_from(addr.checked_sub(r.base)?).ok()?;
            (off.checked_add(len)? <= r.len).then_some(off)
        };
        let hit = self.last_hit.get();
        if let Some(off) = self.regions.get(hit).and_then(fits) {
            return Ok((hit, off));
        }
        // The last region starting at or below `addr`.
        let i = self.regions.partition_point(|r| r.base <= addr);
        let off = i.checked_sub(1).and_then(|i| fits(&self.regions[i]));
        let off = off.ok_or(RdmaError::NotRegistered {
            proc: self.owner,
            addr,
        })?;
        self.last_hit.set(i - 1);
        Ok((i - 1, off))
    }

    fn register(&mut self, addr: u64, len: usize) -> Result<(), RdmaError> {
        let proc = self.owner;
        let end = u64::try_from(len)
            .ok()
            .and_then(|len| addr.checked_add(len))
            .ok_or(RdmaError::AddressOverflow { proc, addr })?;
        // Insertion point: first region with base >= addr.
        let idx = self.regions.partition_point(|r| r.base < addr);
        // Registered regions end inside the address space, so this sum
        // cannot wrap.
        let overlaps_prev = idx > 0 && {
            let prev = &self.regions[idx - 1];
            prev.base + prev.len as u64 > addr
        };
        let overlaps_next = self.regions.get(idx).is_some_and(|r| r.base < end);
        if overlaps_prev || overlaps_next {
            return Err(RdmaError::OverlappingRegistration { proc, addr });
        }
        let region = Region {
            base: addr,
            len,
            pages: Vec::new(),
        };
        self.regions.insert(idx, region);
        // Insertion shifts indices; drop the (now possibly wrong) hit.
        self.last_hit.set(usize::MAX);
        Ok(())
    }

    fn registered_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.len as u64).sum()
    }
}

/// Owner-side view of one simulated process's registered memory, from
/// [`Fabric::mem`]; writes go through [`ProcMemMut`].
///
/// Regions are identified by their (simulated) base virtual address.
/// *Registered is not resident*: registration records the range (and
/// implies the simulated pages are pinned; the caller, uat-core, keeps
/// the corresponding [`uat_vmem::AddressSpace`] in sync), while the host
/// backs only the pages that have been written, each one page of the
/// fabric's page arena — see [`registered_bytes`](Self::registered_bytes)
/// vs [`resident_bytes`](Self::resident_bytes) and DESIGN.md §5.
#[derive(Clone, Copy, Debug)]
pub struct ProcMem<'a> {
    regions: &'a Regions,
    arena: &'a Arena,
}

impl ProcMem<'_> {
    /// Read `buf.len()` bytes starting at `addr` (owner-side, zero cost).
    pub fn read_local(self, addr: u64, mut buf: &mut [u8]) -> Result<(), RdmaError> {
        let (i, mut off) = self.regions.locate(addr, buf.len())?;
        let pages = &self.regions.regions[i].pages;
        while !buf.is_empty() {
            let at = off % PAGE;
            let (span, rest) = buf.split_at_mut(buf.len().min(PAGE - at));
            match pages.get(off / PAGE) {
                Some(&p) if p != UNWRITTEN => {
                    span.copy_from_slice(&self.arena.page(p)[at..at + span.len()]);
                }
                _ => span.fill(0),
            }
            off += span.len();
            buf = rest;
        }
        Ok(())
    }

    /// Read a little-endian u64 (owner-side).
    pub fn read_u64_local(self, addr: u64) -> Result<u64, RdmaError> {
        let mut b = [0u8; 8];
        self.read_local(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Total registered bytes.
    pub fn registered_bytes(self) -> u64 {
        self.regions.registered_bytes()
    }

    /// Host bytes actually backing the registered regions: the pages
    /// written so far, one arena page each.
    pub fn resident_bytes(self) -> u64 {
        let pages = self.regions.regions.iter().flat_map(|r| &r.pages);
        (pages.filter(|&&p| p != UNWRITTEN).count() * PAGE) as u64
    }
}

/// Owner-side writes to one process's registered memory, from
/// [`Fabric::mem_mut`]; reads go through [`ProcMem`].
#[derive(Debug)]
pub struct ProcMemMut<'a> {
    regions: &'a mut Regions,
    arena: &'a mut Arena,
}

impl ProcMemMut<'_> {
    /// Write `data` starting at `addr` (owner-side, zero cost). The first
    /// write to a page takes the next page of the fabric's arena.
    pub fn write_local(self, addr: u64, mut data: &[u8]) -> Result<(), RdmaError> {
        let (i, mut off) = self.regions.locate(addr, data.len())?;
        let pages = &mut self.regions.regions[i].pages;
        while !data.is_empty() {
            let at = off % PAGE;
            let (span, rest) = data.split_at(data.len().min(PAGE - at));
            let idx = off / PAGE;
            if pages.len() <= idx {
                pages.resize(idx + 1, UNWRITTEN);
            }
            if pages[idx] == UNWRITTEN {
                pages[idx] = self.arena.push_zeroed();
            }
            self.arena.page_mut(pages[idx])[at..at + span.len()].copy_from_slice(span);
            off += span.len();
            data = rest;
        }
        Ok(())
    }

    /// Write a little-endian u64 (owner-side).
    pub fn write_u64_local(self, addr: u64, v: u64) -> Result<(), RdmaError> {
        self.write_local(addr, &v.to_le_bytes())
    }
}

/// Aggregate operation counters for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricStats {
    /// RDMA READ operations issued.
    pub reads: u64,
    /// RDMA WRITE operations issued.
    pub writes: u64,
    /// Remote fetch-and-add operations issued.
    pub faas: u64,
    /// Payload bytes moved by READs.
    pub read_bytes: u64,
    /// Payload bytes moved by WRITEs.
    pub write_bytes: u64,
    /// Cycles FAA requests spent queued behind a busy comm server
    /// (contention visible in the `ablation_faa` experiment).
    pub faa_queue_cycles: u64,
}

impl ToJson for FabricStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("reads", Json::UInt(self.reads)),
            ("writes", Json::UInt(self.writes)),
            ("faas", Json::UInt(self.faas)),
            ("read_bytes", Json::UInt(self.read_bytes)),
            ("write_bytes", Json::UInt(self.write_bytes)),
            ("faa_queue_cycles", Json::UInt(self.faa_queue_cycles)),
        ])
    }
}

/// Memoized distinct payload sizes before the cache falls back to direct
/// computation. The protocol moves a small closed set of sizes (8-byte
/// control words, taskq entries, stack frames), so this is generous.
const MAX_MEMO_SIZES: usize = 32;

/// Precomputed READ/WRITE latency tables.
///
/// `CostModel::rdma_read`/`rdma_write` price every op as
/// `discounted_base + payload(bytes)`, each involving float math. Both
/// factors are fixed for the life of a fabric: the base depends only on
/// the op and locality class (4 combinations), and the payload only on
/// the byte count, which the protocol draws from a handful of fixed
/// sizes. This cache computes the four bases once at construction and
/// memoizes payload cycles per distinct size, so the per-op hot path is
/// integer adds plus a short linear scan — bit-identical to the direct
/// computation by construction (same float expressions, evaluated once).
#[derive(Clone, Debug)]
struct LatencyCache {
    /// Discounted READ base, indexed by `intra_node as usize`.
    read_base: [u64; 2],
    /// Discounted WRITE base, indexed by `intra_node as usize`.
    write_base: [u64; 2],
    bytes_per_cycle: f64,
    /// `(bytes, payload_cycles)` pairs, insertion order.
    sizes: Vec<(usize, u64)>,
}

impl LatencyCache {
    fn new(cost: &CostModel) -> Self {
        let discount = |base: u64| (base as f64 * cost.intra_node_discount) as u64;
        LatencyCache {
            read_base: [cost.rdma_read_base, discount(cost.rdma_read_base)],
            write_base: [cost.rdma_write_base, discount(cost.rdma_write_base)],
            bytes_per_cycle: cost.rdma_bytes_per_cycle,
            sizes: Vec::with_capacity(MAX_MEMO_SIZES),
        }
    }

    #[inline]
    fn payload(&mut self, bytes: usize) -> u64 {
        if let Some(&(_, cycles)) = self.sizes.iter().find(|&&(s, _)| s == bytes) {
            return cycles;
        }
        let cycles = (bytes as f64 / self.bytes_per_cycle) as u64;
        if self.sizes.len() < MAX_MEMO_SIZES {
            self.sizes.push((bytes, cycles));
        }
        cycles
    }

    #[inline]
    fn read(&mut self, bytes: usize, intra_node: bool) -> Cycles {
        Cycles(self.read_base[intra_node as usize] + self.payload(bytes))
    }

    #[inline]
    fn write(&mut self, bytes: usize, intra_node: bool) -> Cycles {
        Cycles(self.write_base[intra_node as usize] + self.payload(bytes))
    }
}

/// The simulated interconnect plus every process's registered memory.
#[derive(Debug)]
pub struct Fabric {
    topo: Topology,
    cost: CostModel,
    lat: LatencyCache,
    procs: Vec<Regions>,
    /// The pages every process has written.
    arena: Arena,
    /// Per-node comm-server busy-until instant (software FAA).
    server_busy: Vec<Cycles>,
    stats: FabricStats,
    /// Op-level trace ring; `None` (the default) records nothing.
    trace: Option<RingBuffer>,
}

impl Fabric {
    /// A fabric connecting `topo.total_workers()` processes.
    pub fn new(topo: Topology, cost: CostModel) -> Self {
        Fabric {
            procs: topo.workers().map(Regions::new).collect(),
            arena: Arena::default(),
            server_busy: vec![Cycles::ZERO; topo.nodes as usize],
            topo,
            lat: LatencyCache::new(&cost),
            cost,
            stats: FabricStats::default(),
            trace: None,
        }
    }

    /// Start recording op-level trace events into a ring of `capacity`.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(RingBuffer::new(capacity));
    }

    /// Stop tracing and take the recorded events (oldest first).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace
            .take()
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Record one completed operation into the trace ring, if tracing.
    fn trace_op(
        &mut self,
        now: Cycles,
        done: Cycles,
        initiator: WorkerId,
        op: RdmaOpKind,
        target: WorkerId,
        bytes: u64,
    ) {
        if let Some(ring) = self.trace.as_mut() {
            let target = self.topo.node_of(target);
            ring.push(TraceEvent::span(
                now,
                done.since(now),
                initiator,
                EventKind::RdmaOp { op, target, bytes },
            ));
        }
    }

    /// The machine topology.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Register `[addr, addr+len)` on `proc` as pinned, RDMA-accessible
    /// memory, zero-initialized.
    pub fn register(&mut self, proc: WorkerId, addr: u64, len: usize) -> Result<(), RdmaError> {
        if len == 0 {
            return Err(RdmaError::ZeroLength);
        }
        self.procs[proc.index()].register(addr, len)
    }

    /// Owner-side view of a process's memory.
    pub fn mem(&self, proc: WorkerId) -> ProcMem<'_> {
        ProcMem {
            regions: &self.procs[proc.index()],
            arena: &self.arena,
        }
    }

    /// Owner-side mutable view of a process's memory.
    pub fn mem_mut(&mut self, proc: WorkerId) -> ProcMemMut<'_> {
        ProcMemMut {
            regions: &mut self.procs[proc.index()],
            arena: &mut self.arena,
        }
    }

    /// One-sided RDMA READ: copy `buf.len()` bytes from
    /// `(target, remote_addr)` into `buf`. Returns the completion instant.
    pub fn read(
        &mut self,
        now: Cycles,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        buf: &mut [u8],
    ) -> Result<Cycles, RdmaError> {
        if buf.is_empty() {
            return Err(RdmaError::ZeroLength);
        }
        self.mem(target).read_local(remote_addr, buf)?;
        self.stats.reads += 1;
        self.stats.read_bytes += buf.len() as u64;
        let intra = self.topo.same_node(initiator, target);
        let done = now + self.lat.read(buf.len(), intra);
        self.trace_op(
            now,
            done,
            initiator,
            RdmaOpKind::Read,
            target,
            buf.len() as u64,
        );
        Ok(done)
    }

    /// One-sided RDMA WRITE: copy `data` to `(target, remote_addr)`.
    /// Returns the instant the initiator observes completion.
    pub fn write(
        &mut self,
        now: Cycles,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        data: &[u8],
    ) -> Result<Cycles, RdmaError> {
        if data.is_empty() {
            return Err(RdmaError::ZeroLength);
        }
        self.mem_mut(target).write_local(remote_addr, data)?;
        self.stats.writes += 1;
        self.stats.write_bytes += data.len() as u64;
        let intra = self.topo.same_node(initiator, target);
        let done = now + self.lat.write(data.len(), intra);
        self.trace_op(
            now,
            done,
            initiator,
            RdmaOpKind::Write,
            target,
            data.len() as u64,
        );
        Ok(done)
    }

    /// Remote fetch-and-add on a little-endian u64.
    ///
    /// With the default (software) model the request is served by the
    /// *target node's* comm server: the request notice travels to the
    /// server, waits for the server to be free, is applied, and the reply
    /// notice travels back. Returns `(previous value, completion instant)`.
    /// The unloaded round trip is `2 × notice + service` = 9.8K cycles on
    /// the FX10 profile; queueing delay is added on top and recorded in
    /// [`FabricStats::faa_queue_cycles`].
    pub fn fetch_add_u64(
        &mut self,
        now: Cycles,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        delta: u64,
    ) -> Result<(u64, Cycles), RdmaError> {
        if !remote_addr.is_multiple_of(8) {
            return Err(RdmaError::Misaligned { addr: remote_addr });
        }
        let old = self.mem(target).read_u64_local(remote_addr)?;
        self.mem_mut(target)
            .write_u64_local(remote_addr, old.wrapping_add(delta))
            .expect("readable address is writable");
        self.stats.faas += 1;

        let done = if self.cost.hardware_faa {
            now + Cycles(self.cost.hardware_faa_latency)
        } else {
            let node = self.topo.node_of(target);
            let arrival = now + Cycles(self.cost.faa_notice_latency);
            let busy = &mut self.server_busy[node.index()];
            let start = arrival.max(*busy);
            let wait = start.since(arrival);
            self.stats.faa_queue_cycles += wait.get();
            let served = start + Cycles(self.cost.faa_service);
            *busy = served;
            if wait.get() > 0 {
                if let Some(ring) = self.trace.as_mut() {
                    ring.push(TraceEvent::span(
                        arrival,
                        wait,
                        initiator,
                        EventKind::FaaQueueWait { wait, server: node },
                    ));
                }
            }
            served + Cycles(self.cost.faa_notice_latency)
        };
        self.trace_op(now, done, initiator, RdmaOpKind::FetchAdd, target, 8);
        Ok((old, done))
    }

    /// Convenience: remote read of a little-endian u64.
    pub fn read_u64(
        &mut self,
        now: Cycles,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
    ) -> Result<(u64, Cycles), RdmaError> {
        let mut b = [0u8; 8];
        let done = self.read(now, initiator, target, remote_addr, &mut b)?;
        Ok((u64::from_le_bytes(b), done))
    }

    /// Convenience: remote write of a little-endian u64.
    pub fn write_u64(
        &mut self,
        now: Cycles,
        initiator: WorkerId,
        target: WorkerId,
        remote_addr: u64,
        v: u64,
    ) -> Result<Cycles, RdmaError> {
        self.write(now, initiator, target, remote_addr, &v.to_le_bytes())
    }

    /// Bytes registered across all processes.
    pub fn registered_bytes(&self) -> u64 {
        self.procs.iter().map(Regions::registered_bytes).sum()
    }

    /// Host bytes backing them: every page written, on any process (see
    /// [`ProcMem::resident_bytes`]).
    pub fn resident_bytes(&self) -> u64 {
        (self.arena.len() * PAGE) as u64
    }

    /// Operation counters.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric2() -> Fabric {
        // Two nodes, two workers each.
        Fabric::new(Topology::new(2, 2), CostModel::fx10())
    }

    const W0: WorkerId = WorkerId(0);
    const W1: WorkerId = WorkerId(1);
    const W2: WorkerId = WorkerId(2);

    #[test]
    fn read_write_roundtrip_moves_bytes() {
        let mut f = fabric2();
        f.register(W2, 0x1000, 256).unwrap();
        let data = [0xab; 64];
        let t1 = f.write(Cycles(100), W0, W2, 0x1040, &data).unwrap();
        assert!(t1 > Cycles(100));
        let mut buf = [0u8; 64];
        let t2 = f.read(t1, W0, W2, 0x1040, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert!(t2 > t1);
        // Untouched neighbours stay zero.
        let mut b2 = [0u8; 8];
        f.read(t2, W0, W2, 0x1000, &mut b2).unwrap();
        assert_eq!(b2, [0; 8]);
    }

    #[test]
    fn unregistered_access_fails() {
        let mut f = fabric2();
        let mut buf = [0u8; 8];
        assert!(matches!(
            f.read(Cycles::ZERO, W0, W1, 0x2000, &mut buf),
            Err(RdmaError::NotRegistered { .. })
        ));
        f.register(W1, 0x2000, 16).unwrap();
        // Straddling the end of the region fails too.
        assert!(f.read(Cycles::ZERO, W0, W1, 0x200c, &mut buf).is_err());
    }

    #[test]
    fn overlapping_registration_rejected() {
        let mut f = fabric2();
        f.register(W0, 0x1000, 4096).unwrap();
        assert!(matches!(
            f.register(W0, 0x1800, 16),
            Err(RdmaError::OverlappingRegistration { .. })
        ));
        assert!(f.register(W0, 0x1000 + 4096, 16).is_ok(), "abutting ok");
        // Same addresses on a different proc are independent.
        assert!(f.register(W1, 0x1000, 4096).is_ok());
    }

    #[test]
    fn faa_returns_previous_value() {
        let mut f = fabric2();
        f.register(W2, 0x3000, 64).unwrap();
        f.mem_mut(W2).write_u64_local(0x3008, 41).unwrap();
        let (old, done) = f.fetch_add_u64(Cycles(0), W0, W2, 0x3008, 1).unwrap();
        assert_eq!(old, 41);
        assert_eq!(f.mem(W2).read_u64_local(0x3008).unwrap(), 42);
        // Unloaded software FAA = 9.8K cycles.
        assert_eq!(done, Cycles(9_800));
    }

    #[test]
    fn faa_misaligned_rejected() {
        let mut f = fabric2();
        f.register(W2, 0x3000, 64).unwrap();
        assert!(matches!(
            f.fetch_add_u64(Cycles(0), W0, W2, 0x3004, 1),
            Err(RdmaError::Misaligned { .. })
        ));
    }

    #[test]
    fn faa_contention_queues_at_comm_server() {
        let mut f = fabric2();
        f.register(W2, 0x3000, 64).unwrap();
        // Two FAAs to the same node issued simultaneously: the second
        // waits for the server.
        let (_, d1) = f.fetch_add_u64(Cycles(0), W0, W2, 0x3000, 1).unwrap();
        let (_, d2) = f.fetch_add_u64(Cycles(0), W1, W2, 0x3000, 1).unwrap();
        assert_eq!(d1, Cycles(9_800));
        assert_eq!(d2, Cycles(9_800 + 1_400), "queued behind one service");
        assert_eq!(f.stats().faa_queue_cycles, 1_400);
        // A different node's server is independent.
        f.register(W0, 0x3000, 64).unwrap();
        let (_, d3) = f.fetch_add_u64(Cycles(0), W2, W0, 0x3000, 1).unwrap();
        assert_eq!(d3, Cycles(9_800));
    }

    #[test]
    fn hardware_faa_ablation() {
        let mut cost = CostModel::fx10();
        cost.hardware_faa = true;
        let mut f = Fabric::new(Topology::new(2, 2), cost);
        f.register(W2, 0x3000, 64).unwrap();
        let (_, d1) = f.fetch_add_u64(Cycles(0), W0, W2, 0x3000, 1).unwrap();
        let (_, d2) = f.fetch_add_u64(Cycles(0), W1, W2, 0x3000, 1).unwrap();
        assert_eq!(d1, Cycles(3_000));
        assert_eq!(d2, Cycles(3_000), "NIC-side FAA does not serialize");
    }

    #[test]
    fn intra_node_ops_are_faster() {
        let mut f = fabric2();
        f.register(W1, 0x1000, 64).unwrap();
        f.register(W2, 0x1000, 64).unwrap();
        let mut buf = [0u8; 32];
        let intra = f.read(Cycles(0), W0, W1, 0x1000, &mut buf).unwrap();
        let inter = f.read(Cycles(0), W0, W2, 0x1000, &mut buf).unwrap();
        assert!(intra < inter);
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fabric2();
        f.register(W1, 0x1000, 128).unwrap();
        let mut buf = [0u8; 100];
        f.read(Cycles(0), W0, W1, 0x1000, &mut buf).unwrap();
        f.write(Cycles(0), W0, W1, 0x1000, &buf[..50]).unwrap();
        f.fetch_add_u64(Cycles(0), W0, W1, 0x1000, 1).unwrap();
        let s = f.stats();
        assert_eq!((s.reads, s.writes, s.faas), (1, 1, 1));
        assert_eq!(s.read_bytes, 100);
        assert_eq!(s.write_bytes, 50);
    }

    #[test]
    fn fabric_stats_json_round_trip() {
        let mut f = fabric2();
        f.register(W1, 0x1000, 128).unwrap();
        let mut buf = [0u8; 64];
        f.read(Cycles(0), W0, W1, 0x1000, &mut buf).unwrap();
        f.write(Cycles(0), W0, W1, 0x1000, &buf[..16]).unwrap();
        f.fetch_add_u64(Cycles(0), W0, W1, 0x1000, 1).unwrap();
        f.fetch_add_u64(Cycles(0), W2, W1, 0x1000, 1).unwrap();
        let s = f.stats();
        assert!(s.faa_queue_cycles > 0, "second FAA must queue");
        let v = Json::parse(&s.to_json().to_string()).unwrap();
        let u = |name| v.field(name).unwrap().as_u64().unwrap();
        assert_eq!(u("reads"), s.reads);
        assert_eq!(u("writes"), s.writes);
        assert_eq!(u("faas"), s.faas);
        assert_eq!(u("read_bytes"), s.read_bytes);
        assert_eq!(u("write_bytes"), s.write_bytes);
        assert_eq!(u("faa_queue_cycles"), s.faa_queue_cycles);
    }

    #[test]
    fn tracing_records_ops_and_faa_queue_waits() {
        let mut f = fabric2();
        f.enable_trace(1024);
        f.register(W2, 0x1000, 128).unwrap();
        let mut buf = [0u8; 32];
        f.read(Cycles(0), W0, W2, 0x1000, &mut buf).unwrap();
        f.write(Cycles(10), W0, W2, 0x1000, &buf[..8]).unwrap();
        f.fetch_add_u64(Cycles(0), W0, W2, 0x1000, 1).unwrap();
        f.fetch_add_u64(Cycles(0), W1, W2, 0x1000, 1).unwrap();
        let events = f.take_trace();
        let ops: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::RdmaOp { op, bytes, .. } => Some((op, bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                (RdmaOpKind::Read, 32),
                (RdmaOpKind::Write, 8),
                (RdmaOpKind::FetchAdd, 8),
                (RdmaOpKind::FetchAdd, 8),
            ]
        );
        // The second FAA queued behind the first; its wait is traced and
        // matches the stats counter.
        let waits: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FaaQueueWait { wait, server } => Some((wait.get(), server)),
                _ => None,
            })
            .collect();
        assert_eq!(
            waits.iter().map(|(w, _)| w).sum::<u64>(),
            f.stats().faa_queue_cycles
        );
        assert_eq!(waits.len(), 1);
        // The wait queued at W2's node's comm server.
        assert_eq!(waits[0].1, f.topology().node_of(W2));
        // Tracing is one-shot: taking it disables further recording.
        f.read(Cycles(0), W0, W2, 0x1000, &mut buf).unwrap();
        assert!(f.take_trace().is_empty());
    }

    #[test]
    fn latency_cache_matches_cost_model() {
        // The cached fabric latencies must equal CostModel's direct
        // computation for every (op, locality, size) combination —
        // including sizes past the memoization cap, which fall back to
        // direct computation. Exercise well over MAX_MEMO_SIZES distinct
        // sizes, revisiting early (memoized) ones along the way.
        let cost = CostModel::fx10();
        let mut lat = LatencyCache::new(&cost);
        let sizes: Vec<usize> = (0..2 * MAX_MEMO_SIZES).map(|i| 8 + 13 * i).collect();
        for pass in 0..2 {
            for &sz in &sizes {
                for intra in [false, true] {
                    assert_eq!(
                        lat.read(sz, intra),
                        cost.rdma_read(sz, intra),
                        "read sz={sz} intra={intra} pass={pass}"
                    );
                    assert_eq!(
                        lat.write(sz, intra),
                        cost.rdma_write(sz, intra),
                        "write sz={sz} intra={intra} pass={pass}"
                    );
                }
            }
        }
        assert_eq!(lat.sizes.len(), MAX_MEMO_SIZES, "memo table is capped");
    }

    #[test]
    fn local_access_helpers() {
        let mut f = fabric2();
        f.register(W0, 0x5000, 64).unwrap();
        f.mem_mut(W0).write_u64_local(0x5010, 0xdead_beef).unwrap();
        assert_eq!(f.mem(W0).read_u64_local(0x5010).unwrap(), 0xdead_beef);
        assert!(f.mem(W0).read_u64_local(0x9000).is_err());
        assert_eq!(f.mem(W0).registered_bytes(), 64);
    }

    #[test]
    fn ranges_past_the_address_space_are_errors_not_wraparounds() {
        let mut f = fabric2();
        let top = u64::MAX - 63;
        assert_eq!(
            f.register(W1, top, 64),
            Err(RdmaError::AddressOverflow {
                proc: W1,
                addr: top
            })
        );
        // One byte lower fits, to its last byte and no further.
        f.register(W1, top - 1, 64).unwrap();
        assert!(f.mem(W1).read_local(u64::MAX - 8, &mut [0; 8]).is_ok());
        assert!(f.mem(W1).read_local(u64::MAX - 8, &mut [0; 9]).is_err());
        // `offset + len` past `usize::MAX` is out of range, not a wrap
        // back into it.
        f.register(W0, 0x1000, usize::MAX - 0x2000).unwrap();
        let w0 = &f.procs[W0.index()];
        assert!(w0.locate(0x3000, usize::MAX - 0x1000).is_err());
        assert!(w0.locate(0x3000, 16).is_ok());
    }

    #[test]
    fn owner_side_errors_name_the_worker() {
        let mut f = fabric2();
        f.register(W2, 0x1000, 64).unwrap();
        assert_eq!(
            f.mem(W2).read_u64_local(0x9000),
            Err(RdmaError::NotRegistered {
                proc: W2,
                addr: 0x9000
            })
        );
        let err = f.mem_mut(W2).write_u64_local(0x103c, 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "address 0x103c on w2 is not in a registered region"
        );
        assert_eq!(
            f.register(W2, 0x1020, 8),
            Err(RdmaError::OverlappingRegistration {
                proc: W2,
                addr: 0x1020
            })
        );
    }

    #[test]
    fn registered_is_not_resident() {
        let mut f = fabric2();
        // 1 MiB + a partial page, at a base that is not page aligned:
        // pages are offsets into the region, not address classes.
        const BASE: u64 = 0x7f00_0040;
        const LEN: usize = (1 << 20) + 100;
        f.register(W1, BASE, LEN).unwrap();
        assert_eq!(f.registered_bytes(), LEN as u64);
        assert_eq!(f.resident_bytes(), 0, "registration backs nothing");
        // Reads never materialise a page, wherever they land.
        let mut whole = vec![0xffu8; LEN];
        f.read(Cycles(0), W0, W1, BASE, &mut whole).unwrap();
        assert!(whole.iter().all(|&b| b == 0));
        assert_eq!(f.resident_bytes(), 0);
        // A write straddling a page boundary materialises both pages and
        // only those.
        let at = BASE + 3 * PAGE as u64 - 5;
        let data: Vec<u8> = (1..=10).collect();
        f.write(Cycles(0), W0, W1, at, &data).unwrap();
        assert_eq!(f.mem(W1).resident_bytes(), 2 * PAGE as u64);
        let mut back = [0xffu8; 14];
        f.mem(W1).read_local(at - 2, &mut back).unwrap();
        assert_eq!(back, [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 0]);
        // The last, partial page is addressable to its final byte.
        let last = BASE + LEN as u64 - 1;
        f.mem_mut(W1).write_local(last, &[7]).unwrap();
        assert!(f.mem_mut(W1).write_local(last, &[7, 7]).is_err());
        assert_eq!(f.resident_bytes(), 3 * PAGE as u64);
        // FAA on a never-written word starts from zero.
        let word = BASE + 9 * PAGE as u64;
        let (old, _) = f.fetch_add_u64(Cycles(0), W0, W1, word, 5).unwrap();
        assert_eq!((old, f.mem(W1).read_u64_local(word).unwrap()), (0, 5));
    }
}
