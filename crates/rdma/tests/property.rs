//! Property tests for the simulated fabric: registered memory behaves
//! like memory, latencies are monotone, FAA serializes per node.

use proptest::prelude::*;
use std::collections::HashSet;
use uat_base::{CostModel, Cycles, Topology, WorkerId};
use uat_rdma::Fabric;
use uat_vmem::PAGE_SIZE;

/// Processes whose regions share the arena in the multi-process suite.
const PROCS: u32 = 3;

proptest! {
    /// Demand-paged regions against flat `Vec<u8>`s, on several
    /// processes whose writes share the fabric's one page arena:
    /// transfers at random offsets and lengths (sub-page,
    /// page-straddling, several pages, the whole region), local and
    /// remote, in random process order, read back exactly what the
    /// writing process's flat model holds — zeros wherever nothing was
    /// written, whatever other processes wrote at the same addresses —
    /// and each process's host side backs exactly the distinct pages
    /// written to it.
    #[test]
    fn sparse_region_matches_flat_model(
        ops in proptest::collection::vec(
            (0u8..8, 0..PROCS, any::<u32>(), any::<u32>(), any::<u8>()),
            1..120,
        )
    ) {
        // Not page aligned, and not a whole number of pages; the same
        // range on every process.
        const BASE: u64 = 0x7f80_0000_0100;
        const LEN: usize = 6 * PAGE_SIZE as usize + 777;
        let mut f = Fabric::new(Topology::new(2, PROCS), CostModel::fx10());
        for w in 0..PROCS {
            f.register(WorkerId(w), BASE, LEN).unwrap();
        }
        let mut flat = vec![vec![0u8; LEN]; PROCS as usize];
        let mut written = vec![HashSet::new(); PROCS as usize];
        for (kind, w, off, len, byte) in ops {
            // Kinds 0-2 write, 3-7 read; one in four spans is long.
            let max = if len % 4 == 0 { LEN } else { 300 };
            let off = off as usize % LEN;
            let len = (1 + len as usize % max).min(LEN - off);
            let (off, len) = if kind == 7 { (0, LEN) } else { (off, len) };
            let (addr, flat, me) = (BASE + off as u64, &mut flat[w as usize], WorkerId(w));
            // Remote transfers come from a process on the other node.
            let peer = WorkerId(w + PROCS);
            if kind < 3 {
                let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
                if kind == 0 {
                    f.write(Cycles::ZERO, peer, me, addr, &data).unwrap();
                } else {
                    f.mem_mut(me).write_local(addr, &data).unwrap();
                }
                flat[off..off + len].copy_from_slice(&data);
                written[w as usize]
                    .extend(off / PAGE_SIZE as usize..=(off + len - 1) / PAGE_SIZE as usize);
            } else {
                let mut got = vec![0xa5u8; len];
                if kind == 3 {
                    f.read(Cycles::ZERO, peer, me, addr, &mut got).unwrap();
                } else {
                    f.mem(me).read_local(addr, &mut got).unwrap();
                }
                prop_assert_eq!(&got[..], &flat[off..off + len]);
            }
            for (w, pages) in written.iter().enumerate() {
                let resident = f.mem(WorkerId(w as u32)).resident_bytes();
                prop_assert_eq!(resident, pages.len() as u64 * PAGE_SIZE);
            }
            let pages: usize = written.iter().map(HashSet::len).sum();
            prop_assert_eq!(f.resident_bytes(), pages as u64 * PAGE_SIZE);
        }
        for (w, flat) in flat.iter().enumerate() {
            let mem = f.mem(WorkerId(w as u32));
            let mut whole = vec![0xa5u8; LEN];
            mem.read_local(BASE, &mut whole).unwrap();
            prop_assert_eq!(&whole, flat);
            prop_assert_eq!(mem.registered_bytes(), LEN as u64);
            // One byte past the end is out of the region, whatever is
            // resident.
            prop_assert!(mem.read_local(BASE + LEN as u64, &mut [0]).is_err());
        }
        // The other node's processes registered nothing and hold nothing.
        prop_assert!(f.mem(WorkerId(PROCS)).read_local(BASE, &mut [0]).is_err());
    }

    /// Random sequences of writes followed by reads observe exactly the
    /// last write to each byte (a tiny linearizability check against a
    /// flat reference array).
    #[test]
    fn reads_see_last_writes(
        ops in proptest::collection::vec((0u16..1000, 1u16..64, any::<u8>()), 1..60)
    ) {
        let mut f = Fabric::new(Topology::new(2, 1), CostModel::fx10());
        const BASE: u64 = 0x10_000;
        const LEN: usize = 2048;
        f.register(WorkerId(1), BASE, LEN).unwrap();
        let mut shadow = vec![0u8; LEN];
        let mut now = Cycles::ZERO;
        for (off, len, byte) in ops {
            let off = (off as usize) % (LEN - 64);
            let len = len as usize;
            let data = vec![byte; len];
            now = f.write(now, WorkerId(0), WorkerId(1), BASE + off as u64, &data).unwrap();
            shadow[off..off + len].copy_from_slice(&data);
        }
        let mut buf = vec![0u8; LEN];
        f.read(now, WorkerId(0), WorkerId(1), BASE, &mut buf).unwrap();
        prop_assert_eq!(buf, shadow);
    }

    /// FAA totals are exact no matter the interleaving of issuers, and
    /// completion times at one comm server never overlap service windows
    /// (monotone per node).
    #[test]
    fn faa_is_exact_and_serialized(deltas in proptest::collection::vec(1u64..100, 1..40)) {
        let mut f = Fabric::new(Topology::new(2, 2), CostModel::fx10());
        const A: u64 = 0x20_000;
        f.register(WorkerId(2), A, 64).unwrap();
        let mut dones = Vec::new();
        let mut now = Cycles::ZERO;
        for (i, &d) in deltas.iter().enumerate() {
            let issuer = WorkerId((i % 2) as u32);
            let (_, done) = f.fetch_add_u64(now, issuer, WorkerId(2), A, d).unwrap();
            dones.push(done);
            now += Cycles(137); // issue cadence faster than service
        }
        let total: u64 = deltas.iter().sum();
        prop_assert_eq!(f.mem(WorkerId(2)).read_u64_local(A).unwrap(), total);
        // Server serialization: completions are strictly increasing when
        // requests arrive faster than the service time.
        for w in dones.windows(2) {
            prop_assert!(w[1] > w[0], "comm server must serialize");
        }
    }

    /// Latency is monotone in payload size for both verbs at any size.
    #[test]
    fn latency_monotone(a in 1usize..100_000, b in 1usize..100_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let c = CostModel::fx10();
        prop_assert!(c.rdma_read(lo, false) <= c.rdma_read(hi, false));
        prop_assert!(c.rdma_write(lo, false) <= c.rdma_write(hi, false));
        prop_assert!(c.rdma_read(lo, true) <= c.rdma_read(hi, true));
    }
}
