//! Steal-time breakdown accounting (Figure 10 / Table 3).

use serde::{Deserialize, Serialize};
use uat_base::json::{Json, ToJson};
use uat_base::{Cycles, OnlineStats, StealPhase, Summary};

/// Accumulated per-phase timings over many successful steals, and the
/// resolved attempts by outcome. The simulator's observer records the
/// phases as they complete and fills the outcome counts from its
/// per-worker rows when the run ends.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StealBreakdown {
    phases: [OnlineStats; 7],
    /// Completed (successful) steals observed.
    pub completed: u64,
    /// Steal attempts aborted at the empty check.
    pub aborted_empty: u64,
    /// Steal attempts aborted at the lock.
    pub aborted_lock: u64,
    /// Steal attempts that locked but found the queue drained.
    pub aborted_raced: u64,
}

impl StealBreakdown {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one phase of one steal.
    pub fn record(&mut self, phase: StealPhase, elapsed: Cycles) {
        self.phases[phase.index()].push(elapsed.get() as f64);
    }

    /// Per-phase summary.
    pub fn phase(&self, phase: StealPhase) -> Summary {
        self.phases[phase.index()].summary()
    }

    /// Mean total cycles of a successful steal (sum of phase means).
    pub fn total_mean(&self) -> f64 {
        StealPhase::ALL.iter().map(|&p| self.phase(p).mean).sum()
    }

    /// Total cycles recorded for one phase across all observations
    /// (`mean × count`; exact for integer-cycle samples, which is what
    /// the engine feeds in — the tracing layer cross-checks against it).
    pub fn phase_total(&self, phase: StealPhase) -> f64 {
        let s = self.phase(phase);
        s.mean * s.count as f64
    }
}

impl ToJson for StealBreakdown {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "phases",
                Json::Obj(
                    StealPhase::ALL
                        .into_iter()
                        .map(|p| (p.name().to_string(), self.phases[p.index()].to_json()))
                        .collect(),
                ),
            ),
            ("completed", Json::UInt(self.completed)),
            ("aborted_empty", Json::UInt(self.aborted_empty)),
            ("aborted_lock", Json::UInt(self.aborted_lock)),
            ("aborted_raced", Json::UInt(self.aborted_raced)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut b = StealBreakdown::new();
        for _ in 0..3 {
            b.record(StealPhase::EmptyCheck, Cycles(4_900));
            b.record(StealPhase::Lock, Cycles(9_800));
            b.record(StealPhase::Steal, Cycles(12_000));
            b.record(StealPhase::Suspend, Cycles(1_700));
            b.record(StealPhase::StackTransfer, Cycles(6_400));
            b.record(StealPhase::Unlock, Cycles(3_000));
            b.record(StealPhase::Resume, Cycles(1_800));
            b.completed += 1;
        }
        assert_eq!(b.completed, 3);
        assert!((b.total_mean() - 39_600.0).abs() < 1.0);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = StealBreakdown::new();
        assert_eq!(b.total_mean(), 0.0);
    }

    #[test]
    fn phase_total_is_mean_times_count() {
        let mut b = StealBreakdown::new();
        b.record(StealPhase::Lock, Cycles(10_000));
        b.record(StealPhase::Lock, Cycles(4_000));
        assert!((b.phase_total(StealPhase::Lock) - 14_000.0).abs() < 1e-6);
        assert_eq!(b.phase_total(StealPhase::Resume), 0.0);
    }

    #[test]
    fn json_round_trip() {
        let mut b = StealBreakdown::new();
        b.record(StealPhase::EmptyCheck, Cycles(4_900));
        b.record(StealPhase::Lock, Cycles(9_800));
        b.record(StealPhase::Lock, Cycles(11_000));
        b.completed = 2;
        b.aborted_empty = 3;
        b.aborted_lock = 4;
        b.aborted_raced = 1;
        let v = Json::parse(&b.to_json().to_string()).unwrap();
        let u = |name| v.field(name).unwrap().as_u64().unwrap();
        assert_eq!(u("completed"), 2);
        assert_eq!(u("aborted_empty"), 3);
        assert_eq!(u("aborted_lock"), 4);
        assert_eq!(u("aborted_raced"), 1);
        let phases = v.field("phases").unwrap();
        for p in StealPhase::ALL {
            let (s, j) = (b.phase(p), phases.field(p.name()).unwrap());
            assert_eq!(
                j.field("n").unwrap().as_u64().unwrap(),
                s.count,
                "{}",
                p.name()
            );
            assert_eq!(
                j.field("mean").unwrap().as_f64().unwrap(),
                s.mean,
                "{}",
                p.name()
            );
        }
    }
}
