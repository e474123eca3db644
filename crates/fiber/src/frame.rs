//! The frame claim, defined once for both real backends (DESIGN.md
//! [I19], §9.2).
//!
//! The paper allocates a child's frame "just below the parent" at
//! creation (Figure 4): a pointer subtraction. Here a task's record sits
//! at the top of the task's own stack — a pooled stack under threads, a
//! shared-region slot across processes — and the spawner, which is the
//! one place `Workload::frame_size` is evaluated, starts the body
//! `frame` bytes below the record. Nothing touches the claimed bytes.
//! The bound check in [`claim`] is what keeps the entry address inside
//! the mapping; the guard page below `limit` still catches whatever the
//! body itself overflows.

use std::fmt;

/// The page size both backends lay their stacks out by: the guard page
/// below every stack, and so every stack's limit.
pub(crate) const PAGE: usize = 4096;

/// A frame claim [`claim`] refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct FrameTooLarge {
    /// Bytes asked for.
    pub(crate) frame: u64,
    /// Bytes between the task's record and its stack's limit.
    pub(crate) room: usize,
}

impl fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a task frame of {} bytes does not fit the {} bytes between the task's record and \
             its stack's limit",
            self.frame, self.room
        )
    }
}

/// The stack pointer a task enters its body with: `frame` bytes below
/// its record at `record`, rounded down to the ABI's 16. Refused if that
/// is below `limit`, the stack's lowest usable address.
#[inline]
pub(crate) fn claim(record: usize, limit: usize, frame: u64) -> Result<usize, FrameTooLarge> {
    usize::try_from(frame)
        .ok()
        .and_then(|frame| record.checked_sub(frame))
        .map(|sp| sp & !15)
        .filter(|&sp| sp >= limit)
        .ok_or(FrameTooLarge {
            frame,
            room: record.saturating_sub(limit),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_is_aligned_below_the_record_and_bounded_by_the_limit() {
        let limit = 0x7000_0000_1000usize;
        // A record as `place_record` aligns it, and one only 8-aligned
        // (the helper, not its caller, owes the ABI its 16).
        for record in [limit + 64 * PAGE - 96, limit + 64 * PAGE - 8] {
            for frame in [0, 1, 255, 256, 1_120, 4_095, 4_096, 3 * PAGE as u64] {
                let sp = claim(record, limit, frame).expect("fits 64 pages");
                assert_eq!(sp % 16, 0, "frame {frame}");
                assert!(sp + frame as usize <= record, "frame {frame}");
                assert!(
                    record - sp < frame as usize + 16,
                    "frame {frame}: over-claimed"
                );
            }
        }
    }

    #[test]
    fn a_frame_that_exactly_fits_is_accepted_and_one_byte_more_refused() {
        let limit = 0x7000_0000_1000usize;
        let record = limit + 4 * PAGE - 96;
        let room = record - limit;
        assert_eq!(claim(record, limit, room as u64), Ok(limit));
        let refused = FrameTooLarge {
            frame: room as u64 + 1,
            room,
        };
        assert_eq!(claim(record, limit, room as u64 + 1), Err(refused));
        // Frames no address space holds are refused, not wrapped.
        for frame in [record as u64 + 1, u64::MAX] {
            assert_eq!(
                claim(record, limit, frame),
                Err(FrameTooLarge { frame, room })
            );
        }
        let msg = claim(record, limit, u64::MAX).unwrap_err().to_string();
        assert!(msg.contains(&format!("{} bytes", u64::MAX)), "{msg}");
        assert!(msg.contains(&format!("the {room} bytes")), "{msg}");
    }
}
