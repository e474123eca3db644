//! Critical-path extraction.
//!
//! Walks the DAG backward from the root's completion. At `(w, t)` the
//! walk finds the latest steal/join arrival into `w` at or before `t`,
//! covers `w`'s timeline from that edge's *source instant* up to `t`,
//! then jumps to the source worker at the source instant. Each jump
//! strictly decreases the frontier time, and consecutive segments abut
//! in time, so the segments tile `[0, makespan]` — the path total is
//! the makespan *exactly*, by construction, and the per-bucket
//! attribution of the covered intervals answers "which costs gated the
//! run". FAA-queue edges stay out of the walk on purpose: server
//! serialization shows up as `FaaQueue` cycles on the waiter's own
//! timeline, which keeps the attribution story in one place.

use super::dag::{Dag, Edge, EdgeKind};
use crate::TimeAccount;
use uat_base::json::{Json, ToJson};
use uat_base::Cycles;

/// One covered interval of the critical path, on one worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathSegment {
    /// Worker whose timeline the segment covers.
    pub worker: u32,
    /// Inclusive start.
    pub start: Cycles,
    /// Exclusive end.
    pub end: Cycles,
}

/// The extracted critical path.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Covered segments in forward time order; they abut, starting at 0
    /// and ending at the makespan.
    pub segments: Vec<PathSegment>,
    /// Bucket attribution of the covered intervals; totals to the
    /// makespan.
    pub account: TimeAccount,
    /// Sum of segment lengths == makespan.
    pub total: Cycles,
    /// Steal edges the walk jumped through.
    pub steal_edges: u64,
    /// Join edges the walk jumped through.
    pub join_edges: u64,
    /// Worker whose root completion anchors the path.
    pub end_worker: u32,
}

impl CriticalPath {
    /// Condensed form for embedding in run statistics / JSON artifacts.
    pub fn summary(&self) -> CriticalPathSummary {
        CriticalPathSummary {
            total: self.total,
            end_worker: self.end_worker,
            segments: self.segments.len() as u64,
            steal_edges: self.steal_edges,
            join_edges: self.join_edges,
            account: self.account.clone(),
        }
    }
}

/// Serializable digest of a [`CriticalPath`] (what `RunStats` and the
/// bench artifacts carry).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPathSummary {
    /// Path length; equals the run's makespan.
    pub total: Cycles,
    /// Worker whose root completion anchors the path.
    pub end_worker: u32,
    /// Number of covered segments.
    pub segments: u64,
    /// Steal edges on the path.
    pub steal_edges: u64,
    /// Join edges on the path.
    pub join_edges: u64,
    /// Bucket attribution of on-path cycles (sums to `total`).
    pub account: TimeAccount,
}

impl ToJson for CriticalPathSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("total_cycles", Json::UInt(self.total.get())),
            ("end_worker", Json::UInt(self.end_worker as u64)),
            ("segments", Json::UInt(self.segments)),
            ("steal_edges", Json::UInt(self.steal_edges)),
            ("join_edges", Json::UInt(self.join_edges)),
            ("account", self.account.to_json()),
        ])
    }
}

/// Extract the critical path of a built [`Dag`].
pub fn critical_path(dag: &Dag) -> CriticalPath {
    // Incoming walkable edges per destination worker, sorted by
    // (arrival, source instant) so a backward scan picks the latest
    // arrival and breaks ties toward the latest source (the shortest
    // jump — deterministic either way).
    let n = dag.worker_count();
    let mut inc: Vec<Vec<&Edge>> = vec![Vec::new(); n];
    for e in dag.edges() {
        let walkable = matches!(e.kind, EdgeKind::Steal | EdgeKind::Join)
            && e.src.worker != e.dst.worker
            && e.src.at < e.dst.at;
        if walkable && (e.dst.worker as usize) < n {
            inc[e.dst.worker as usize].push(e);
        }
    }
    for list in &mut inc {
        list.sort_by_key(|e| (e.dst.at, e.src.at));
    }

    let mut w = dag.end_worker();
    let mut t_hi = dag.makespan();
    let mut segments: Vec<PathSegment> = Vec::new();
    let mut account = TimeAccount::new();
    let (mut steal_edges, mut join_edges) = (0u64, 0u64);
    while t_hi > Cycles::ZERO {
        let list = &inc[w as usize];
        // Latest arrival at or before the frontier. src.at < dst.at
        // guarantees the jump target is strictly earlier, so the loop
        // terminates.
        let i = list.partition_point(|e| e.dst.at <= t_hi);
        let pick = i.checked_sub(1).map(|i| list[i]);
        let (lo, next) = match pick {
            Some(e) => {
                match e.kind {
                    EdgeKind::Steal => steal_edges += 1,
                    EdgeKind::Join => join_edges += 1,
                    _ => unreachable!(),
                }
                (e.src.at, Some((e.src.worker, e.src.at)))
            }
            None => (Cycles::ZERO, None),
        };
        dag.attribute(w, lo, t_hi, &mut account);
        segments.push(PathSegment {
            worker: w,
            start: lo,
            end: t_hi,
        });
        match next {
            Some((nw, nt)) => {
                w = nw;
                t_hi = nt;
            }
            None => t_hi = Cycles::ZERO,
        }
    }
    segments.reverse();
    CriticalPath {
        segments,
        total: account.total(),
        account,
        steal_edges,
        join_edges,
        end_worker: dag.end_worker(),
    }
}
