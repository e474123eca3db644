//! One worker's timeline, which both tracers record through, each on
//! its own clock: simulated cycles, or the thread runtime's TSC cycles.
//!
//! One slice is open at a time, with the [`Bucket`] its time goes to.
//! [`charge`](Timeline::charge) closes it — leading carries first —
//! charging each piece to the [`TimeAccount`] and emitting it as an
//! [`EventKind::Slice`], so every accounted cycle is a slice in the
//! ring. [`tile`](Timeline::tile) fits a finished timeline to the
//! makespan.

use crate::{Bucket, EventKind, RingBuffer, TimeAccount, TraceEvent};
use uat_base::{Cycles, WorkerId};

/// Per-worker ring capacity of a traced run that does not name one.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One worker's event ring (none on an untraced run), time account and
/// open slice.
#[derive(Clone, Debug)]
pub struct Timeline {
    worker: WorkerId,
    ring: Option<RingBuffer>,
    account: TimeAccount,
    /// Start of the open slice.
    since: Cycles,
    /// Where the open slice's time goes.
    bucket: Bucket,
    /// Costs embedded at the start of the open slice.
    carry: Vec<(Bucket, Cycles)>,
}

impl Timeline {
    /// Worker `worker`'s timeline: no ring, an idle slice open at 0.
    pub fn new(worker: WorkerId) -> Self {
        Timeline {
            worker,
            ring: None,
            account: TimeAccount::new(),
            since: Cycles::ZERO,
            bucket: Bucket::Idle,
            carry: Vec::new(),
        }
    }

    /// Record events from now on, into a ring of `capacity`.
    pub fn install_ring(&mut self, capacity: usize) {
        self.ring = Some(RingBuffer::new(capacity));
    }

    /// The worker this timeline belongs to.
    pub fn worker(&self) -> WorkerId {
        self.worker
    }

    /// Where the open slice's time goes.
    #[inline]
    pub fn bucket(&self) -> Bucket {
        self.bucket
    }

    /// Whether events are recorded.
    #[inline]
    pub fn is_traced(&self) -> bool {
        self.ring.is_some()
    }

    /// The ring, if any.
    pub fn ring(&self) -> Option<&RingBuffer> {
        self.ring.as_ref()
    }

    /// Stop recording, handing over the ring.
    pub fn take_ring(&mut self) -> Option<RingBuffer> {
        self.ring.take()
    }

    /// Events evicted from the ring (0 without one).
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, RingBuffer::dropped)
    }

    /// The ring (if any) and the account.
    pub fn into_parts(self) -> (Option<RingBuffer>, TimeAccount) {
        (self.ring, self.account)
    }

    /// Charge the open slice's time to `bucket`.
    #[inline]
    pub fn set_bucket(&mut self, bucket: Bucket) {
        self.bucket = bucket;
    }

    /// Register a cost embedded at the start of the open slice (an FAA
    /// queue wait, parking a blocked joiner), split out of it first.
    #[inline]
    pub fn carry(&mut self, bucket: Bucket, span: Cycles) {
        if span.get() > 0 {
            self.carry.push((bucket, span));
        }
    }

    /// Close the open slice at `t` and open the next there: `[since, t)`
    /// goes to the carries in order, each clamped to what is left, then
    /// the rest to the open bucket.
    #[inline]
    pub fn charge(&mut self, t: Cycles) {
        debug_assert!(t >= self.since, "{:?}: time went backwards", self.worker);
        let mut at = std::mem::replace(&mut self.since, t);
        if !self.carry.is_empty() {
            let mut carry = std::mem::take(&mut self.carry);
            for (bucket, c) in carry.drain(..) {
                let c = c.min(t.since(at));
                self.slice(at, c, bucket);
                at += c;
            }
            self.carry = carry;
        }
        self.slice(at, t.since(at), self.bucket);
    }

    /// [`charge`](Self::charge) to `t`, then open a slice in `bucket`.
    #[inline]
    pub fn switch(&mut self, t: Cycles, bucket: Bucket) {
        self.charge(t);
        self.bucket = bucket;
    }

    #[inline]
    fn slice(&mut self, at: Cycles, dur: Cycles, bucket: Bucket) {
        if dur.get() > 0 {
            self.account.charge(bucket, dur);
            self.emit(TraceEvent::span(
                at,
                dur,
                self.worker,
                EventKind::Slice { bucket },
            ));
        }
    }

    /// Record an instantaneous event.
    #[inline]
    pub fn instant(&mut self, at: Cycles, kind: EventKind) {
        self.emit(TraceEvent::instant(at, self.worker, kind));
    }

    /// Record an event spanning `[at, at + dur)`; only
    /// [`charge`](Self::charge) records slices.
    #[inline]
    pub fn span(&mut self, at: Cycles, dur: Cycles, kind: EventKind) {
        debug_assert!(!matches!(kind, EventKind::Slice { .. }));
        self.emit(TraceEvent::span(at, dur, self.worker, kind));
    }

    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(ring) = &mut self.ring {
            ring.push(ev);
        }
    }

    /// Fit this closed timeline to `[0, makespan)`. Short of it, pad
    /// with an idle slice that evicts no event. Past it, cut every span
    /// at the makespan (instants all stay), and rebuild a drop-free
    /// account from the slices left; a lossy one loses its idle tail.
    pub fn tile(&mut self, makespan: Cycles) {
        let end = self.since;
        if end <= makespan {
            if let Some(ring) = &mut self.ring {
                ring.reserve_one();
            }
            self.bucket = Bucket::Idle;
            self.charge(makespan);
            return;
        }
        self.since = makespan;
        if let Some(ring) = &mut self.ring {
            ring.clip_spans(makespan);
        }
        match &self.ring {
            Some(ring) if ring.dropped() == 0 => {
                self.account = TimeAccount::new();
                for ev in ring.iter() {
                    if let EventKind::Slice { bucket } = ev.kind {
                        self.account.charge(bucket, ev.dur);
                    }
                }
            }
            _ => self.account.trim(Bucket::Idle, end.since(makespan)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Bucket::*;

    fn traced(capacity: usize) -> Timeline {
        let mut tl = Timeline::new(WorkerId(0));
        tl.install_ring(capacity);
        tl
    }

    /// The ring's slices as `(start, length, bucket)`.
    fn slices(tl: &Timeline) -> Vec<(u64, u64, Bucket)> {
        let ring = tl.ring().unwrap().iter();
        ring.filter_map(|ev| match ev.kind {
            EventKind::Slice { bucket } => Some((ev.at.get(), ev.dur.get(), bucket)),
            _ => None,
        })
        .collect()
    }

    #[test]
    fn charge_splits_carries_then_the_open_bucket() {
        let mut tl = traced(64);
        tl.set_bucket(StealLock);
        tl.carry(FaaQueue, Cycles(300));
        tl.switch(Cycles(1_000), Work);
        // A carry is consumed, and clamped to what is left.
        tl.carry(SuspendResume, Cycles(10_000));
        tl.charge(Cycles(1_500));
        tl.charge(Cycles(1_600));
        let want = [
            (0, 300, FaaQueue),
            (300, 700, StealLock),
            (1_000, 500, SuspendResume),
        ];
        assert_eq!(slices(&tl)[..3], want);
        assert_eq!(slices(&tl)[3], (1_500, 100, Work));
        assert_eq!(tl.account.total(), Cycles(1_600));
    }

    #[test]
    fn tile_pads_a_short_timeline_without_evicting() {
        let mut tl = traced(2);
        tl.switch(Cycles(400), Work);
        tl.switch(Cycles(700), Spawn);
        tl.tile(Cycles(1_000));
        assert_eq!(tl.dropped(), 0);
        assert_eq!(
            slices(&tl),
            [(0, 400, Idle), (400, 300, Work), (700, 300, Idle)]
        );
        assert_eq!(tl.account.total(), Cycles(1_000));
    }

    #[test]
    fn tile_cuts_a_long_timeline_and_rebuilds_its_account() {
        let mut tl = traced(64);
        tl.switch(Cycles(600), Work);
        let phase = crate::StealPhase::Lock;
        tl.span(
            Cycles(900),
            Cycles(50),
            EventKind::StealPhase {
                victim: WorkerId(1),
                phase,
            },
        );
        tl.instant(Cycles(1_200), EventKind::IdlePoll);
        tl.switch(Cycles(1_500), Idle);
        tl.tile(Cycles(800));
        // The span past the makespan went; the instant stayed.
        assert_eq!(slices(&tl), [(0, 600, Idle), (600, 200, Work)]);
        assert_eq!(tl.ring().unwrap().len(), 3);
        assert_eq!(tl.account.get(Work), Cycles(200));
        assert_eq!(tl.account.total(), Cycles(800));
    }

    #[test]
    fn tile_trims_only_the_idle_tail_of_a_lossy_timeline() {
        let mut tl = traced(1);
        tl.switch(Cycles(600), Work);
        tl.switch(Cycles(900), Idle);
        tl.charge(Cycles(1_000));
        assert_eq!(tl.dropped(), 2);
        tl.tile(Cycles(800));
        assert_eq!(
            (tl.account.get(Work), tl.account.get(Idle)),
            (Cycles(300), Cycles(500))
        );
    }
}
