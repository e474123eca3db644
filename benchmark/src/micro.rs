//! Microbenchmarks for the per-layer `*_ns` rows: each times calls into
//! one layer's public functions from outside.
//!
//! Every op runs in batches sized to at least 5 ms, 101 batches per op,
//! so a median and a p90 are reportable; results go through `black_box`;
//! at most `nproc` threads run (the contended-steal rows use exactly
//! two: an owner and one thief). A traced workload run calls only the
//! ops of the layers that workload loads (`for_workload`).

use crate::host;
use crate::run::Ctx;
use crate::stats::{median, quantile};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use uat_base::{CostModel, Cycles, Topology, WorkerId};
use uat_cluster::EventHeap;
use uat_core::{CoreConfig, UniMgr};
use uat_deque::{NativeDeque, ShmDeque};
use uat_fiber::{measure_creation, tsc, CreationStrategy, Stack, StackPool};
use uat_metrics::{Counter, EventRing, LogHistogram};
use uat_model::sequential_profile;
use uat_rdma::{Fabric, OneSidedFabric, ShmFabric};
use uat_trace::{EventKind, RingBuffer, TraceEvent};
use uat_vmem::RegionAllocator;
use uat_workloads::sha1::{uts_child, uts_root};
use uat_workloads::{Btc, Uts};

/// Batch sizing of one microbenchmark.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub batches: usize,
    pub batch_target: Duration,
}

impl Cfg {
    pub fn standard() -> Self {
        Cfg {
            batches: 101,
            batch_target: Duration::from_millis(5),
        }
    }

    /// `run --quick`: one short batch, enough to prove the op runs.
    pub fn quick() -> Self {
        Cfg {
            batches: 1,
            batch_target: Duration::from_millis(1),
        }
    }
}

/// Per-call time of one op over its batches.
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    pub median_ns: f64,
    pub p90_ns: f64,
    pub batches: usize,
    pub calls_per_batch: u64,
}

/// Time `chunk` (which performs `calls_per_chunk` calls of the op);
/// `prepare` runs before each chunk and is not timed (it refills a deque
/// the chunk drains, say). A batch is as many chunks as reach the
/// batch target; the statistic is over the batches' per-call means.
pub fn bench_chunked(
    cfg: Cfg,
    calls_per_chunk: u64,
    mut prepare: impl FnMut(),
    mut chunk: impl FnMut(),
) -> Stat {
    let timed_chunk = |prepare: &mut dyn FnMut(), chunk: &mut dyn FnMut()| {
        prepare();
        let t0 = Instant::now();
        chunk();
        t0.elapsed()
    };
    // Warm up for a millisecond and size the batch from that estimate.
    let (mut warm, mut warm_chunks) = (Duration::ZERO, 0u32);
    while warm < Duration::from_millis(1) {
        warm += timed_chunk(&mut prepare, &mut chunk);
        warm_chunks += 1;
    }
    let per_chunk = (warm / warm_chunks).max(Duration::from_nanos(50));
    let chunks = (cfg.batch_target.as_nanos() / per_chunk.as_nanos()).max(1) as u64 + 1;
    let mut per_call = Vec::with_capacity(cfg.batches);
    for _ in 0..cfg.batches {
        let mut spent = Duration::ZERO;
        for _ in 0..chunks {
            spent += timed_chunk(&mut prepare, &mut chunk);
        }
        per_call.push(spent.as_nanos() as f64 / (chunks * calls_per_chunk) as f64);
    }
    Stat {
        median_ns: median(&per_call),
        p90_ns: quantile(&per_call, 0.9),
        batches: cfg.batches,
        calls_per_batch: chunks * calls_per_chunk,
    }
}

/// Time one call of `op`, 256 calls to a chunk.
pub fn bench(cfg: Cfg, mut op: impl FnMut()) -> Stat {
    const CALLS: u64 = 256;
    bench_chunked(
        cfg,
        CALLS,
        || (),
        || {
            for _ in 0..CALLS {
                op();
            }
        },
    )
}

/// What the deque ops need from either placement of the THE deque.
trait The: Sync {
    fn push(&self, v: u64);
    fn pop(&self) -> Option<u64>;
    fn steal(&self) -> Option<u64>;
    fn len(&self) -> u64;
}

impl The for NativeDeque<u64> {
    fn push(&self, v: u64) {
        NativeDeque::push(self, v)
    }
    fn pop(&self) -> Option<u64> {
        NativeDeque::pop(self)
    }
    fn steal(&self) -> Option<u64> {
        NativeDeque::steal(self)
    }
    fn len(&self) -> u64 {
        NativeDeque::len(self)
    }
}

impl The for ShmDeque {
    fn push(&self, v: u64) {
        ShmDeque::push(self, v)
    }
    fn pop(&self) -> Option<u64> {
        ShmDeque::pop(self)
    }
    fn steal(&self) -> Option<u64> {
        ShmDeque::steal(self)
    }
    fn len(&self) -> u64 {
        ShmDeque::len(self)
    }
}

const DEQUE_CAP: usize = 8192;
const STEAL_CHUNK: u64 = 4096;

fn push_pop(cfg: Cfg, d: &dyn The) -> Stat {
    bench(cfg, || {
        d.push(black_box(7));
        black_box(d.pop());
    })
}

/// Uncontended steal: refill (untimed), then time a chunk of steals.
fn steal(cfg: Cfg, d: &dyn The) -> Stat {
    bench_chunked(
        cfg,
        STEAL_CHUNK,
        || {
            for i in 0..STEAL_CHUNK {
                d.push(i);
            }
        },
        || {
            for _ in 0..STEAL_CHUNK {
                black_box(d.steal());
            }
        },
    )
}

/// Contended steal: the owner→thief hand-off through the deque, the
/// regime `chain.*` lives in. An owner thread pushes one entry whenever
/// the deque is empty while this thread — the one thief — polls `steal`
/// until it gets it; the time is per successful steal, so it covers the
/// failed polls and both cache-line transfers. Exactly two threads.
fn steal_contended(cfg: Cfg, d: &dyn The) -> Stat {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let owner = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if d.len() == 0 {
                    d.push(1);
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let stat = bench(cfg, || loop {
            if let Some(v) = d.steal() {
                black_box(v);
                break;
            }
            std::hint::spin_loop();
        });
        stop.store(true, Ordering::Relaxed);
        owner.join().expect("owner thread");
        stat
    })
}

/// A benchmark-owned, zeroed block with a `ShmDeque` placed over it.
struct ShmBlock {
    /// Keeps the block alive (and 8-byte aligned) under `deque`.
    _words: Vec<u64>,
    deque: ShmDeque,
}

impl ShmBlock {
    fn new() -> Self {
        let mut words = vec![0u64; ShmDeque::block_size(DEQUE_CAP).div_ceil(8)];
        // SAFETY: [I14] the block is `block_size(DEQUE_CAP)` zeroed bytes,
        // 8-byte aligned (a `Vec<u64>`), owned by this struct for the
        // handle's whole lifetime and never touched except through the
        // handle; it is private to this process, so the same-address
        // mapping requirement is trivially met.
        let deque = unsafe { ShmDeque::from_raw(words.as_mut_ptr().cast::<u8>(), DEQUE_CAP) };
        ShmBlock {
            _words: words,
            deque,
        }
    }
}

/// `steal_phased` over prefilled chunks: mean ns of the empty check,
/// the lock acquisition, and the entry take + unlock, per steal.
fn native_steal_phases(cfg: Cfg) -> [f64; 3] {
    let d: NativeDeque<u64> = NativeDeque::new(DEQUE_CAP);
    let ns_per_tick = 1e9 / host::tsc_hz();
    let mut per_batch: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let chunks = if cfg.batches == 1 { 1 } else { 8 };
    for _ in 0..cfg.batches {
        let mut ticks = [0u64; 3];
        for _ in 0..chunks {
            for i in 0..STEAL_CHUNK {
                d.push(i);
            }
            for _ in 0..STEAL_CHUNK {
                let (got, ph) = d.steal_phased(tsc::now);
                black_box(got);
                ticks[0] += ph.checked.wrapping_sub(ph.start);
                ticks[1] += ph.locked.wrapping_sub(ph.checked);
                ticks[2] += ph.end.wrapping_sub(ph.locked);
            }
        }
        let steals = (chunks * STEAL_CHUNK) as f64;
        for (acc, t) in per_batch.iter_mut().zip(ticks) {
            acc.push(t as f64 * ns_per_tick / steals);
        }
    }
    [
        median(&per_batch[0]),
        median(&per_batch[1]),
        median(&per_batch[2]),
    ]
}

fn shm_fabric_ops(ctx: &mut Ctx, cfg: Cfg) {
    let mut mem = vec![0u64; 1024];
    let base = mem.as_mut_ptr() as u64;
    let mut f = ShmFabric::new();
    // SAFETY: [I13] `mem` is 8 KiB of live, writable, 8-byte-aligned
    // memory that outlives `f` (declared first, dropped last); this
    // process is the only party, and every access below goes through
    // the fabric.
    unsafe {
        f.register_region(WorkerId(1), base, 8192)
            .expect("fresh fabric accepts the window");
    }
    let (me, peer) = (WorkerId(0), WorkerId(1));
    let mut b8 = [0u8; 8];
    let mut b4k = vec![0u8; 4096];
    run(ctx, cfg, "rdma.shm.read8_ns", |cfg| {
        bench(cfg, || {
            f.read(me, peer, base, black_box(&mut b8))
                .expect("in window");
        })
    });
    run(ctx, cfg, "rdma.shm.write8_ns", |cfg| {
        bench(cfg, || {
            f.write(me, peer, base + 8, black_box(&b8))
                .expect("in window");
        })
    });
    run(ctx, cfg, "rdma.shm.faa_ns", |cfg| {
        bench(cfg, || {
            black_box(f.fetch_add_u64(me, peer, base + 16, 1).expect("in window"));
        })
    });
    run(ctx, cfg, "rdma.shm.read4k_ns", |cfg| {
        bench(cfg, || {
            f.read(me, peer, base, black_box(&mut b4k))
                .expect("in window");
        })
    });
    drop(f);
    black_box(&mem);
}

fn sim_fabric_ops(ctx: &mut Ctx, cfg: Cfg) {
    let mut f = Fabric::new(Topology::new(2, 1), CostModel::fx10());
    f.register(WorkerId(1), 0x10_000, 1 << 16)
        .expect("fresh fabric accepts the window");
    let (me, peer) = (WorkerId(0), WorkerId(1));
    run(ctx, cfg, "rdma.fabric.read_u64_ns", |cfg| {
        bench(cfg, || {
            black_box(
                f.read_u64(Cycles(0), me, peer, 0x10_000)
                    .expect("registered"),
            );
        })
    });
    run(ctx, cfg, "rdma.fabric.write_u64_ns", |cfg| {
        bench(cfg, || {
            black_box(
                f.write_u64(Cycles(0), me, peer, 0x10_008, black_box(42))
                    .expect("registered"),
            );
        })
    });
    run(ctx, cfg, "rdma.fabric.faa_ns", |cfg| {
        bench(cfg, || {
            black_box(
                f.fetch_add_u64(Cycles(0), me, peer, 0x10_010, 1)
                    .expect("registered"),
            );
        })
    });
}

/// Pop-then-reschedule on a full `workers`-slot heap: the engine loop's
/// steady-state pattern.
fn event_heap(cfg: Cfg, workers: u32) -> Stat {
    let mut h = EventHeap::new(workers as usize);
    for w in 0..workers {
        h.push(w, (u64::from(w) * 37) % 1024);
    }
    bench(cfg, || {
        let (t, w) = h.pop().expect("heap stays full");
        h.push(w, black_box(t + 211));
    })
}

fn uni_mgr() -> (Fabric, UniMgr) {
    let mut f = Fabric::new(Topology::new(1, 1), CostModel::fx10());
    let mgr = UniMgr::new(&mut f, WorkerId(0), &CoreConfig::default());
    (f, mgr)
}

/// `sequential_profile` of `w`, reported per task.
fn profile_per_task<P: uat_model::Workload>(cfg: Cfg, w: &P) -> Stat {
    let tasks = sequential_profile(w).tasks as f64;
    let s = bench_chunked(
        cfg,
        1,
        || (),
        || {
            black_box(sequential_profile(black_box(w)));
        },
    );
    Stat {
        median_ns: s.median_ns / tasks,
        p90_ns: s.p90_ns / tasks,
        ..s
    }
}

/// Run one op under a `micro.<metric>` span and record its median (and
/// p90, batch shape) under the metric's name.
fn run(ctx: &mut Ctx, cfg: Cfg, metric: &str, op: impl FnOnce(Cfg) -> Stat) {
    let span = format!("micro.{metric}");
    let stat = ctx.rec.scope(&span, |_| op(cfg));
    ctx.set(metric, stat.median_ns);
    ctx.detail.insert(format!("{metric}.p90"), stat.p90_ns);
    ctx.detail
        .insert(format!("{metric}.batches"), stat.batches as f64);
    ctx.detail.insert(
        format!("{metric}.calls_per_batch"),
        stat.calls_per_batch as f64,
    );
}

fn creation(ctx: &mut Ctx, cfg: Cfg, metric: &str, strategy: CreationStrategy) {
    // `measure_creation` batches and takes the minimum itself (Table 2's
    // method); one call with the harness's batch count is the sample.
    let span = format!("micro.{metric}");
    let cycles = ctx.rec.scope(&span, |_| {
        measure_creation(strategy, 4096, cfg.batches as u64)
    });
    ctx.set(metric, cycles);
}

fn model_btc(ctx: &mut Ctx, cfg: Cfg) {
    run(ctx, cfg, "model.profile_ns_per_task.btc", |cfg| {
        profile_per_task(cfg, &Btc::new(14, 1))
    });
}

/// The microbenchmarks of the layers `workload` loads.
pub fn for_workload(ctx: &mut Ctx, workload: &str) {
    let cfg = if ctx.opts.quick {
        Cfg::quick()
    } else {
        Cfg::standard()
    };
    match workload {
        "btc_fine.native" => {
            creation(
                ctx,
                cfg,
                "fiber.creation.uniaddr_cycles",
                CreationStrategy::UniAddr,
            );
            creation(
                ctx,
                cfg,
                "fiber.creation.stack_pool_cycles",
                CreationStrategy::StackPool,
            );
            creation(
                ctx,
                cfg,
                "fiber.creation.seq_call_cycles",
                CreationStrategy::SeqCall,
            );
            run(ctx, cfg, "fiber.stack.pool_take_put_ns", |cfg| {
                let mut pool = StackPool::new(128 << 10);
                bench(cfg, || {
                    let s = pool.take();
                    black_box(s.top());
                    pool.put(s);
                })
            });
            run(ctx, cfg, "fiber.stack.new_ns", |cfg| {
                bench_chunked(
                    cfg,
                    1,
                    || (),
                    || {
                        black_box(Stack::new(128 << 10).top());
                    },
                )
            });
            run(ctx, cfg, "deque.native.push_pop_ns", |cfg| {
                push_pop(cfg, &NativeDeque::<u64>::new(DEQUE_CAP))
            });
            model_btc(ctx, cfg);
            run(ctx, cfg, "trace.ring.push_ns", |cfg| {
                let mut ring = RingBuffer::new(1 << 16);
                let mut at = 0u64;
                bench(cfg, || {
                    at += 1;
                    ring.push(TraceEvent::instant(
                        Cycles(at),
                        WorkerId(0),
                        EventKind::TaskBegin { task: at },
                    ));
                })
            });
            run(ctx, cfg, "metrics.counter.inc_ns", |cfg| {
                let c = Counter::new(2);
                bench(cfg, || black_box(&c).inc(0))
            });
            run(ctx, cfg, "metrics.hist.record_ns", |cfg| {
                let h = LogHistogram::new();
                let mut v = 1u64;
                bench(cfg, || {
                    v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                    black_box(&h).record(v >> 40);
                })
            });
            run(ctx, cfg, "metrics.flight_ring.push_ns", |cfg| {
                let ring = EventRing::new(4096);
                let mut at = 0u64;
                bench(cfg, || {
                    at += 1;
                    black_box(&ring).push(at, 1, at);
                })
            });
        }
        "btc_fine.mp" => {
            creation(
                ctx,
                cfg,
                "fiber.creation.uniaddr_cycles",
                CreationStrategy::UniAddr,
            );
            run(ctx, cfg, "deque.shm.push_pop_ns", |cfg| {
                push_pop(cfg, &ShmBlock::new().deque)
            });
            shm_fabric_ops(ctx, cfg);
            model_btc(ctx, cfg);
        }
        "btc_coarse.mp" => {
            // How far a `Work(20_000)` spin overshoots 20 000 TSC ticks.
            let ideal_ns = 20_000.0 * 1e9 / host::tsc_hz();
            let span = "micro.fiber.tsc.spin_error_pct";
            let stat = ctx
                .rec
                .scope(span, |_| bench(cfg, || tsc::spin_cycles(black_box(20_000))));
            ctx.set(
                "fiber.tsc.spin_error_pct",
                (stat.median_ns - ideal_ns) / ideal_ns * 100.0,
            );
        }
        "chain.native" => {
            let d = NativeDeque::<u64>::new(DEQUE_CAP);
            run(ctx, cfg, "deque.native.steal_ns", |cfg| steal(cfg, &d));
            run(ctx, cfg, "deque.native.steal_contended_ns", |cfg| {
                steal_contended(cfg, &d)
            });
            let phases = ctx.rec.scope("micro.deque.native.steal_phased", |_| {
                native_steal_phases(cfg)
            });
            ctx.set("deque.native.steal_check_ns", phases[0]);
            ctx.set("deque.native.steal_lock_ns", phases[1]);
            ctx.set("deque.native.steal_entry_ns", phases[2]);
        }
        "chain.mp" => {
            let block = ShmBlock::new();
            run(ctx, cfg, "deque.shm.steal_ns", |cfg| {
                steal(cfg, &block.deque)
            });
            run(ctx, cfg, "deque.shm.steal_contended_ns", |cfg| {
                steal_contended(cfg, &block.deque)
            });
        }
        "sim.uts60" => {
            sim_fabric_ops(ctx, cfg);
            run(ctx, cfg, "cluster.event_heap.push_pop_ns_60w", |cfg| {
                event_heap(cfg, 60)
            });
            run(ctx, cfg, "core.uni.suspend_resume_ns", |cfg| {
                let (mut f, mut mgr) = uni_mgr();
                let cost = CostModel::fx10();
                mgr.spawn_frame(&mut f, 1, 1_120);
                bench(cfg, || {
                    let (h, _) = mgr.suspend_bottom(&mut f, 1, 7, &cost);
                    black_box(mgr.resume_saved(&mut f, h, &cost));
                })
            });
            run(ctx, cfg, "model.profile_ns_per_task.uts", |cfg| {
                profile_per_task(cfg, &Uts::geometric(7))
            });
            run(ctx, cfg, "workloads.sha1_ns", |cfg| {
                let mut d = uts_root(0);
                bench(cfg, || d = uts_child(black_box(&d), 1))
            });
        }
        "sim.btc120" => {
            run(ctx, cfg, "cluster.event_heap.push_pop_ns_960w", |cfg| {
                event_heap(cfg, 960)
            });
            run(ctx, cfg, "core.uni.spawn_complete_ns", |cfg| {
                let (mut f, mut mgr) = uni_mgr();
                let mut task = 0u64;
                bench(cfg, || {
                    task += 1;
                    black_box(mgr.spawn_frame(&mut f, task, 1_120));
                    mgr.complete_bottom(task);
                })
            });
            run(ctx, cfg, "vmem.alloc.alloc_free_ns", |cfg| {
                let mut a = RegionAllocator::new(0x10_0000, 1 << 20, 16);
                bench(cfg, || {
                    let addr = a.alloc(black_box(1_120)).expect("region has room");
                    a.free(addr);
                })
            });
            model_btc(ctx, cfg);
        }
        other => unreachable!("no microbenchmarks defined for workload {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_time_grows_with_the_work_per_call() {
        // black_box is only a hint: check the harness sees 10x the work
        // as clearly more time per call.
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = black_box(x.wrapping_add(i));
                }
                black_box(x);
            }
        };
        let cfg = Cfg {
            batches: 5,
            batch_target: Duration::from_millis(1),
        };
        let small = bench(cfg, spin(100));
        let large = bench(cfg, spin(1_000));
        assert!(
            large.median_ns > 3.0 * small.median_ns,
            "{small:?} vs {large:?}"
        );
        assert!(small.p90_ns >= small.median_ns);
        assert_eq!(small.batches, 5);
    }

    #[test]
    fn chunked_bench_does_not_time_the_refill() {
        let d = NativeDeque::<u64>::new(DEQUE_CAP);
        let s = steal(Cfg::quick(), &d);
        assert!(s.median_ns > 0.0 && s.median_ns < 10_000.0, "{s:?}");
        assert_eq!(The::len(&d), 0, "every chunk drains what it refilled");
    }

    #[test]
    fn shm_block_is_a_working_deque() {
        let b = ShmBlock::new();
        b.deque.push(5);
        b.deque.push(6);
        assert_eq!(b.deque.steal(), Some(5));
        assert_eq!(b.deque.pop(), Some(6));
        assert_eq!(b.deque.pop(), None);
    }
}
