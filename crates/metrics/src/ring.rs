//! Flight-recorder event ring: the last N events of one writer.
//!
//! A writer records compact `(timestamp, code, payload)` triples with
//! plain relaxed stores (single writer), and a reader takes a racy
//! read-only [`EventRing::snapshot`]. A torn read can at worst mispair
//! one slot's timestamp with the next event's code — acceptable for a
//! post-mortem, where the alternative is a lock on the writer's path.
//! No runtime in the workspace records into one; the benchmark's
//! micro layer times [`EventRing::push`].

use std::sync::atomic::{AtomicU64, Ordering};

/// One decoded flight-recorder entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Raw timestamp (TSC cycles on the native runtime).
    pub at: u64,
    /// Event code; the recording layer owns the code → name mapping.
    pub code: u8,
    /// Event-specific payload (victim id, task count, ...).
    pub payload: u64,
}

struct Slot {
    at: AtomicU64,
    /// `code` in the top byte, `payload` in the low 56 bits.
    packed: AtomicU64,
}

/// A fixed-capacity single-writer ring of [`FlightEvent`]s.
pub struct EventRing {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl EventRing {
    /// A ring holding the newest `capacity` events (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        EventRing {
            head: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| Slot {
                    at: AtomicU64::new(0),
                    packed: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Record one event, evicting the oldest when full. Intended for a
    /// single writer (the owning worker); `payload` is truncated to 56
    /// bits.
    #[inline]
    pub fn push(&self, at: u64, code: u8, payload: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & (self.slots.len() - 1)];
        slot.at.store(at, Ordering::Relaxed);
        slot.packed.store(
            ((code as u64) << 56) | (payload & ((1 << 56) - 1)),
            Ordering::Relaxed,
        );
        self.head.store(h + 1, Ordering::Relaxed);
    }

    /// Total events ever pushed (not just the retained window).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The retained window, oldest first. Racy against a concurrent
    /// writer by design (see module docs); with the writer quiesced the
    /// result is exact.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        (start..head)
            .map(|i| {
                let slot = &self.slots[(i as usize) & (self.slots.len() - 1)];
                let packed = slot.packed.load(Ordering::Relaxed);
                FlightEvent {
                    at: slot.at.load(Ordering::Relaxed),
                    code: (packed >> 56) as u8,
                    payload: packed & ((1 << 56) - 1),
                }
            })
            .collect()
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.slots.len())
            .field("pushed", &self.pushed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_window_in_order() {
        let r = EventRing::new(4);
        for i in 0..10u64 {
            r.push(i * 100, i as u8, i);
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(
            snap,
            (6..10u64)
                .map(|i| FlightEvent {
                    at: i * 100,
                    code: i as u8,
                    payload: i
                })
                .collect::<Vec<_>>()
        );
        assert_eq!(r.pushed(), 10);
    }

    #[test]
    fn partial_fill_returns_only_pushed_events() {
        let r = EventRing::new(8);
        r.push(1, 2, 3);
        assert_eq!(
            r.snapshot(),
            vec![FlightEvent {
                at: 1,
                code: 2,
                payload: 3
            }]
        );
    }

    #[test]
    fn payload_truncates_to_56_bits() {
        let r = EventRing::new(2);
        r.push(0, 0xAB, u64::MAX);
        let e = r.snapshot()[0];
        assert_eq!(e.code, 0xAB);
        assert_eq!(e.payload, (1 << 56) - 1);
    }
}
