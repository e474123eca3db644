//! Bounded per-worker event storage.
//!
//! Tracing a long run can produce far more events than anyone wants to
//! keep; the ring holds the most recent `capacity` events and counts how
//! many it had to drop, so exporters can say "…and 1.2M earlier events
//! were discarded" instead of silently lying.

use crate::TraceEvent;
use std::collections::VecDeque;
use uat_base::Cycles;

/// Fixed-capacity FIFO of [`TraceEvent`]s that drops its oldest entry
/// when full.
#[derive(Clone, Debug)]
pub struct RingBuffer {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingBuffer {
    /// Ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBuffer {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Make room for one more event without evicting any.
    pub(crate) fn reserve_one(&mut self) {
        self.capacity = self.capacity.max(self.buf.len() + 1);
    }

    /// Cut every span to end by `end`: those starting at or after it
    /// go, those across it are clipped. Instants all stay.
    pub(crate) fn clip_spans(&mut self, end: Cycles) {
        self.buf.retain_mut(|ev| {
            if ev.dur.get() > 0 {
                if ev.at >= end {
                    return false;
                }
                ev.dur = ev.dur.min(end.since(ev.at));
            }
            true
        });
    }
}

/// One ring of `capacity` per worker, holding `events` by worker.
#[cfg(test)]
pub(crate) fn per_worker(
    workers: usize,
    capacity: usize,
    events: impl IntoIterator<Item = TraceEvent>,
) -> Vec<RingBuffer> {
    let mut rings = vec![RingBuffer::new(capacity); workers];
    for ev in events {
        rings[ev.worker.index()].push(ev);
    }
    rings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;
    use uat_base::WorkerId;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent::instant(Cycles(t), WorkerId(0), EventKind::IdlePoll)
    }

    #[test]
    fn keeps_most_recent_when_full() {
        let mut r = RingBuffer::new(3);
        for t in 0..5 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let times: Vec<u64> = r.iter().map(|e| e.at.get()).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = RingBuffer::new(0);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().at, Cycles(2));
    }
}
