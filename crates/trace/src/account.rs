//! Cycle-exact timeline accounting.
//!
//! Every simulated cycle of every worker is charged to exactly one
//! [`Bucket`], so per-worker bucket totals sum to the run's makespan —
//! an invariant the test suite checks. This is the data behind
//! "where did the time go" reports: how much of the run was useful
//! work, how much was spent inside each steal phase, how much waiting
//! in the comm server's FAA queue, and how much idling.

use serde::{Deserialize, Serialize};
use uat_base::json::{Json, ToJson};
use uat_base::Cycles;

/// Where a span of simulated time went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Bucket {
    /// Executing task work.
    Work,
    /// Creating tasks (deque push, child setup) and popping local work.
    Spawn,
    /// Suspending or resuming continuations (the uni-address scheme's
    /// own overhead).
    SuspendResume,
    /// Steal phase: remote empty check.
    StealEmpty,
    /// Steal phase: acquiring the victim's queue lock.
    StealLock,
    /// Steal phase: taking the queue entry.
    StealEntry,
    /// Steal phase: transferring the stolen stack.
    StealTransfer,
    /// Steal phase: releasing the queue lock.
    StealUnlock,
    /// Waiting in line at a comm server's software-FAA queue.
    FaaQueue,
    /// Nothing to do: backoff, contention waits, scheduler polls.
    Idle,
}

impl Bucket {
    /// Every bucket, in report order.
    pub const ALL: [Bucket; 10] = [
        Bucket::Work,
        Bucket::Spawn,
        Bucket::SuspendResume,
        Bucket::StealEmpty,
        Bucket::StealLock,
        Bucket::StealEntry,
        Bucket::StealTransfer,
        Bucket::StealUnlock,
        Bucket::FaaQueue,
        Bucket::Idle,
    ];

    /// Number of buckets.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable display / serialization name.
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Work => "work",
            Bucket::Spawn => "spawn",
            Bucket::SuspendResume => "suspend-resume",
            Bucket::StealEmpty => "steal:empty",
            Bucket::StealLock => "steal:lock",
            Bucket::StealEntry => "steal:entry",
            Bucket::StealTransfer => "steal:transfer",
            Bucket::StealUnlock => "steal:unlock",
            Bucket::FaaQueue => "faa-queue",
            Bucket::Idle => "idle",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&b| b == self).unwrap()
    }
}

/// Per-worker ledger: simulated cycles by [`Bucket`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeAccount {
    cycles: [u64; Bucket::COUNT],
}

impl TimeAccount {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `span` to `bucket`.
    pub fn charge(&mut self, bucket: Bucket, span: Cycles) {
        self.cycles[bucket.index()] += span.get();
    }

    /// Cycles charged to one bucket.
    pub fn get(&self, bucket: Bucket) -> Cycles {
        Cycles(self.cycles[bucket.index()])
    }

    /// Sum over all buckets. For a finalized per-worker account this
    /// equals the run's makespan.
    pub fn total(&self) -> Cycles {
        Cycles(self.cycles.iter().sum())
    }

    /// Fraction of accounted time spent idle (0 when nothing charged).
    pub fn idle_fraction(&self) -> f64 {
        let total = self.total().get();
        if total == 0 {
            return 0.0;
        }
        self.get(Bucket::Idle).get() as f64 / total as f64
    }

    /// Fraction of accounted time spent in the five steal phases.
    pub fn steal_fraction(&self) -> f64 {
        let total = self.total().get();
        if total == 0 {
            return 0.0;
        }
        let steal: u64 = [
            Bucket::StealEmpty,
            Bucket::StealLock,
            Bucket::StealEntry,
            Bucket::StealTransfer,
            Bucket::StealUnlock,
        ]
        .into_iter()
        .map(|b| self.get(b).get())
        .sum();
        steal as f64 / total as f64
    }

    /// Add another ledger into this one.
    pub fn merge(&mut self, other: &TimeAccount) {
        for (dst, src) in self.cycles.iter_mut().zip(&other.cycles) {
            *dst += src;
        }
    }

    /// Take up to `span` back off `bucket`.
    pub(crate) fn trim(&mut self, bucket: Bucket, span: Cycles) {
        let c = &mut self.cycles[bucket.index()];
        *c = c.saturating_sub(span.get());
    }
}

impl ToJson for TimeAccount {
    fn to_json(&self) -> Json {
        Json::Obj(
            Bucket::ALL
                .into_iter()
                .map(|b| (b.name().to_string(), Json::UInt(self.get(b).get())))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_total() {
        let mut a = TimeAccount::new();
        a.charge(Bucket::Work, Cycles(100));
        a.charge(Bucket::Work, Cycles(50));
        a.charge(Bucket::Idle, Cycles(25));
        assert_eq!(a.get(Bucket::Work), Cycles(150));
        assert_eq!(a.total(), Cycles(175));
        assert!((a.idle_fraction() - 25.0 / 175.0).abs() < 1e-12);
    }

    #[test]
    fn steal_fraction_counts_only_steal_buckets() {
        let mut a = TimeAccount::new();
        a.charge(Bucket::StealLock, Cycles(30));
        a.charge(Bucket::StealTransfer, Cycles(20));
        a.charge(Bucket::Work, Cycles(50));
        assert!((a.steal_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = TimeAccount::new();
        a.charge(Bucket::Spawn, Cycles(10));
        let mut b = TimeAccount::new();
        b.charge(Bucket::Spawn, Cycles(5));
        b.charge(Bucket::FaaQueue, Cycles(7));
        a.merge(&b);
        assert_eq!(a.get(Bucket::Spawn), Cycles(15));
        assert_eq!(a.get(Bucket::FaaQueue), Cycles(7));
    }

    #[test]
    fn json_round_trip() {
        let mut a = TimeAccount::new();
        for (i, b) in Bucket::ALL.into_iter().enumerate() {
            a.charge(b, Cycles(i as u64 * 11 + 1));
        }
        let v = Json::parse(&a.to_json().to_string()).unwrap();
        for b in Bucket::ALL {
            assert_eq!(v.field(b.name()).unwrap().as_u64().unwrap(), a.get(b).get());
        }
    }

    #[test]
    fn empty_account_reports_zero_fractions() {
        let a = TimeAccount::new();
        assert_eq!(a.idle_fraction(), 0.0);
        assert_eq!(a.steal_fraction(), 0.0);
        assert_eq!(a.total(), Cycles::ZERO);
    }
}
