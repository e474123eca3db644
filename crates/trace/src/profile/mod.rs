//! The causal profiler: happens-before DAG, critical path, what-if.
//!
//! A traced run (see [`TraceData`](crate::TraceData)) records *what*
//! every worker spent its cycles on; this module reconstructs *why* —
//! which of those cycles actually gated the makespan. Three layers:
//!
//! - [`Dag`]: the happens-before graph of the run. Nodes are atomic
//!   intervals of worker timelines (the accounting slices, cut at every
//!   causal instant); edges are intra-worker program order plus the
//!   cross-worker interactions of the protocol — spawn→child,
//!   victim deque-publish → thief resume (steal), child-end → joiner
//!   resume (join), and FIFO service order at each node's software FAA
//!   server. The graph is validated on construction: rings must not
//!   have dropped events, slices must tile `[0, makespan)` exactly on
//!   every worker, and the edge set must be acyclic.
//! - [`critical_path`]: walks the DAG backward from the root's
//!   completion, producing a chain of timeline segments that tiles
//!   `[0, makespan]` exactly — so its total *is* the makespan and its
//!   per-[`Bucket`](crate::Bucket) attribution says "X% of the makespan
//!   is steal-phase latency *on the critical path*".
//! - `whatif` ([`predict`]): scales one [`CostClass`]'s buckets by a factor and
//!   replays the whole DAG to predict the new makespan — the
//!   simulation analogue of Coz's virtual speedups. Predictions are
//!   validated against ground-truth re-runs of the engine with the
//!   scaled cost model (cheap, because this is a simulator).
//!
//! See DESIGN.md §8 for the edge catalogue, the algorithm, and the
//! validity caveats of what-if predictions.

mod critpath;
mod dag;
mod whatif;

pub use critpath::{critical_path, CriticalPath, CriticalPathSummary, PathSegment};
pub use dag::{Anchor, Dag, Edge, EdgeKind, Node, ProfileError};
pub use whatif::{predict, predict_scaled, CostClass};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bucket, EventKind, RingBuffer, TimeAccount, TraceData, TraceEvent};
    use uat_base::json::{FromJson, Json, ToJson};
    use uat_base::{Cycles, WorkerId};

    fn slice(w: u32, start: u64, end: u64, bucket: Bucket) -> TraceEvent {
        TraceEvent::span(
            Cycles(start),
            Cycles(end - start),
            WorkerId(w),
            EventKind::Slice { bucket },
        )
    }

    fn instant(w: u32, at: u64, kind: EventKind) -> TraceEvent {
        TraceEvent::instant(Cycles(at), WorkerId(w), kind)
    }

    fn data(workers: usize, makespan: u64, events: &[TraceEvent]) -> TraceData {
        TraceData {
            clock_hz: 1.848e9,
            clock_source: crate::ClockSource::Simulated,
            workers: crate::ring::per_worker(workers, 1024, events.iter().copied()),
            fabric: Vec::new(),
            makespan: Cycles(makespan),
        }
    }

    /// One worker, one Work slice: the whole timeline is the path.
    fn chain() -> TraceData {
        data(
            1,
            1_000,
            &[
                slice(0, 0, 1_000, Bucket::Work),
                instant(
                    0,
                    1_000,
                    EventKind::TaskEnd {
                        task: 1,
                        run: Cycles(1_000),
                    },
                ),
            ],
        )
    }

    /// Worker 1 steals at 500 (published at 200), finishes the child at
    /// 900; worker 0 joins on it and resumes at 950.
    fn steal_join() -> TraceData {
        data(
            2,
            1_000,
            &[
                slice(0, 0, 600, Bucket::Work),
                slice(0, 600, 950, Bucket::Idle),
                slice(0, 950, 1_000, Bucket::Work),
                instant(0, 200, EventKind::DequePublish { task: 1, seq: 1 }),
                instant(
                    0,
                    950,
                    EventKind::JoinResume {
                        parent: 1,
                        child: 5,
                    },
                ),
                instant(
                    0,
                    1_000,
                    EventKind::TaskEnd {
                        task: 1,
                        run: Cycles(1_000),
                    },
                ),
                slice(1, 0, 200, Bucket::Idle),
                slice(1, 200, 500, Bucket::StealTransfer),
                slice(1, 500, 900, Bucket::Work),
                slice(1, 900, 1_000, Bucket::Idle),
                instant(1, 500, EventKind::StealCommit { task: 1, seq: 1 }),
                instant(
                    1,
                    900,
                    EventKind::JoinReady {
                        parent: 1,
                        child: 5,
                    },
                ),
                instant(
                    1,
                    900,
                    EventKind::TaskEnd {
                        task: 5,
                        run: Cycles(400),
                    },
                ),
            ],
        )
    }

    /// Diamond: two children, the remote one (stolen at 300) finishes
    /// last and gates the parent's join.
    fn diamond() -> TraceData {
        data(
            2,
            1_000,
            &[
                slice(0, 0, 800, Bucket::Work),
                slice(0, 800, 900, Bucket::Idle),
                slice(0, 900, 1_000, Bucket::Work),
                instant(0, 250, EventKind::DequePublish { task: 1, seq: 7 }),
                instant(
                    0,
                    800,
                    EventKind::TaskEnd {
                        task: 2,
                        run: Cycles(550),
                    },
                ),
                instant(
                    0,
                    900,
                    EventKind::JoinResume {
                        parent: 1,
                        child: 3,
                    },
                ),
                instant(
                    0,
                    1_000,
                    EventKind::TaskEnd {
                        task: 1,
                        run: Cycles(1_000),
                    },
                ),
                slice(1, 0, 300, Bucket::Idle),
                slice(1, 300, 850, Bucket::Work),
                slice(1, 850, 1_000, Bucket::Idle),
                instant(1, 300, EventKind::StealCommit { task: 1, seq: 7 }),
                instant(
                    1,
                    850,
                    EventKind::JoinReady {
                        parent: 1,
                        child: 3,
                    },
                ),
                instant(
                    1,
                    850,
                    EventKind::TaskEnd {
                        task: 3,
                        run: Cycles(600),
                    },
                ),
            ],
        )
    }

    #[test]
    fn chain_path_is_all_work() {
        let dag = Dag::build(&chain()).unwrap();
        let cp = critical_path(&dag);
        assert_eq!(cp.total, Cycles(1_000));
        assert_eq!(cp.account.get(Bucket::Work), Cycles(1_000));
        assert_eq!(cp.segments.len(), 1);
        assert_eq!(cp.steal_edges + cp.join_edges, 0);
        assert_eq!(cp.end_worker, 0);
    }

    #[test]
    fn steal_join_path_attribution_is_exact() {
        let dag = Dag::build(&steal_join()).unwrap();
        assert_eq!(dag.edge_count(EdgeKind::Steal), 1);
        assert_eq!(dag.edge_count(EdgeKind::Join), 1);
        let cp = critical_path(&dag);
        assert_eq!(cp.total, dag.makespan());
        assert_eq!(cp.account.total(), dag.makespan());
        assert_eq!(cp.account.get(Bucket::Work), Cycles(650));
        assert_eq!(cp.account.get(Bucket::StealTransfer), Cycles(300));
        assert_eq!(cp.account.get(Bucket::Idle), Cycles(50));
        assert_eq!(cp.segments.len(), 3);
        assert_eq!(cp.steal_edges, 1);
        assert_eq!(cp.join_edges, 1);
        // The segments abut and span [0, makespan].
        assert_eq!(cp.segments[0].start, Cycles::ZERO);
        for pair in cp.segments.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(cp.segments.last().unwrap().end, dag.makespan());
    }

    #[test]
    fn diamond_path_follows_the_slower_child() {
        let dag = Dag::build(&diamond()).unwrap();
        let cp = critical_path(&dag);
        assert_eq!(cp.total, Cycles(1_000));
        // [0,250) w0 Work + [250,850) w1 Idle 50 / Work 550 + [850,1000) w0
        // Idle 50 / Work 100.
        assert_eq!(cp.account.get(Bucket::Work), Cycles(900));
        assert_eq!(cp.account.get(Bucket::Idle), Cycles(100));
        assert_eq!(cp.segments.len(), 3);
        assert_eq!(cp.steal_edges, 1);
        assert_eq!(cp.join_edges, 1);
    }

    #[test]
    fn built_dag_is_acyclic() {
        for d in [chain(), steal_join(), diamond()] {
            let dag = Dag::build(&d).unwrap();
            dag.check_acyclic().unwrap();
        }
    }

    #[test]
    fn whatif_factor_one_reproduces_makespan() {
        for d in [chain(), steal_join(), diamond()] {
            let dag = Dag::build(&d).unwrap();
            for class in CostClass::ALL {
                assert_eq!(predict(&dag, class, 1.0), dag.makespan());
            }
        }
    }

    #[test]
    fn whatif_replay_respects_dependencies() {
        let dag = Dag::build(&steal_join()).unwrap();
        // Doubling the transfer pushes the thief's child 300 later; the
        // parent's post-join tail (idle until the join at 1200, then 50
        // cycles of work) lands at 1250 — not 2x the whole transfer
        // appended to the old makespan.
        let p = predict_scaled(&dag, &[Bucket::StealTransfer], 2.0);
        assert_eq!(p, Cycles(1_250));
        // Doubling Work: the parent's pre-join work (650 -> 1300 plus
        // 350 idle = 1550) still gates its resume (the thief's chain
        // reaches the join at 1300), then the 50-cycle tail doubles.
        let p = predict_scaled(&dag, &[Bucket::Work], 2.0);
        assert_eq!(p, Cycles(1_650));
    }

    #[test]
    fn dropped_ring_is_refused() {
        let mut ring = RingBuffer::new(1);
        ring.push(slice(0, 0, 500, Bucket::Work));
        ring.push(slice(0, 500, 1_000, Bucket::Work));
        let d = TraceData {
            clock_hz: 1.848e9,
            clock_source: crate::ClockSource::Simulated,
            workers: vec![ring],
            fabric: Vec::new(),
            makespan: Cycles(1_000),
        };
        match Dag::build(&d) {
            Err(ProfileError::DroppedEvents {
                worker: 0,
                dropped: 1,
            }) => {}
            other => panic!("expected DroppedEvents, got {other:?}"),
        }
    }

    #[test]
    fn gapped_slices_are_refused() {
        let d = data(
            1,
            1_000,
            &[
                slice(0, 0, 400, Bucket::Work),
                slice(0, 500, 1_000, Bucket::Work),
                instant(
                    0,
                    1_000,
                    EventKind::TaskEnd {
                        task: 1,
                        run: Cycles(1_000),
                    },
                ),
            ],
        );
        assert!(matches!(
            Dag::build(&d),
            Err(ProfileError::SlicesDoNotTile {
                worker: 0,
                at: Cycles(400)
            })
        ));
    }

    #[test]
    fn summary_json_round_trips() {
        let dag = Dag::build(&steal_join()).unwrap();
        let summary = critical_path(&dag).summary();
        let text = summary.to_json().to_string();
        let back = CriticalPathSummary::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, summary);
        assert_eq!(back.account, summary.account);
        assert_eq!(TimeAccount::total(&back.account), Cycles(1_000));
    }
}
