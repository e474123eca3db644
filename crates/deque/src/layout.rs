//! The canonical THE-deque memory layout, shared by every component
//! that addresses a deque's words.
//!
//! A deque occupies one contiguous block of the owner's memory:
//!
//! ```text
//! base + OFF_LOCK     lock     0 = free; acquired with fetch-and-add
//! base + OFF_TOP      top      steal end (H in the Cilk-5 THE paper)
//! base + OFF_BOTTOM   bottom   owner end (T); entries in [top, bottom)
//! base + OFF_ENTRIES  entries  capacity × 32-byte TaskqEntry
//! ```
//!
//! [`SimDeque`](crate::SimDeque) realises this layout in simulated
//! registered RDMA memory (every thief access is `base + OFF_*`); the
//! real-atomics [`TheDeque`](crate::TheDeque) realises the three control
//! words as `#[repr(C)]` atomics at the same offsets (asserted at compile
//! time) under both its constructors — [`ShmDeque`](crate::ShmDeque)
//! with `u64` entries inline at `OFF_ENTRIES`, the owning
//! [`NativeDeque`](crate::NativeDeque) with its entries behind a pointer
//! (fine intra-process, where nothing computes remote addresses); and
//! the `uat-check` interleaving model derives its location bit-masks
//! from these offsets via [`loc_bit`]. Change the layout here and every
//! consumer moves together — or fails to compile.

/// Byte offset of the lock word.
pub const OFF_LOCK: u64 = 0;
/// Byte offset of `top`, the steal end.
pub const OFF_TOP: u64 = 8;
/// Byte offset of `bottom`, the owner end.
pub const OFF_BOTTOM: u64 = 16;
/// Byte offset of the first task-queue entry.
pub const OFF_ENTRIES: u64 = 24;

/// Bytes per control word (all fields are little-endian u64).
pub const WORD_BYTES: u64 = 8;

/// Bit index identifying the control word at byte offset `off` in a
/// location bit-mask (as used by the `uat-check` interleaving checker):
/// one bit per word, in layout order.
pub const fn loc_bit(off: u64) -> u32 {
    (off / WORD_BYTES) as u32
}

/// Memory orderings permitted on each control word, per operation:
/// `(field, operation, allowed orderings)`.
///
/// This is the static face of the memory-model catalogue (DESIGN.md
/// §11): the union, over every access site in the one THE protocol body
/// ([`TheDeque`](crate::TheDeque), which both the owning and the placed
/// deque run), of the orderings the `uat-check` release/acquire explorer
/// proved sufficient (clean RA suite) and necessary (each seeded
/// downgrade outside this table produces a counterexample trace). The
/// `uat-lint` tool scans the deque, fiber and rdma sources and flags any
/// atomic access on a THE-layout word whose ordering is not listed here;
/// `uat-check` cross-checks its model's
/// `OrdSpec::native()` against the same table, so the model, the code,
/// and the lint cannot drift apart silently.
///
/// The table is per *(field, operation)*, not per call site: an ordering
/// listed here is allowed anywhere that operation appears. Site-level
/// sufficiency (e.g. that the *publishing* bottom store specifically
/// must be at least `Release`, even though the locked take may be
/// `Relaxed`) is the explorer's job, not the lint's.
///
/// `compare_exchange` lists both the success and failure orderings.
pub const ORDERING_ALLOWLIST: &[(&str, &str, &[&str])] = &[
    // TTAS spin probe only; the CAS carries the synchronization.
    ("lock", "load", &["Relaxed"]),
    // Acquire on success heads the lock hand-off chain (pairs with the
    // previous holder's Release unlock); failure needs nothing.
    ("lock", "compare_exchange", &["Acquire", "Relaxed"]),
    // Release unlock: makes the critical section's writes visible to
    // the next holder's Acquire CAS.
    ("lock", "store", &["Release"]),
    // Loads: Relaxed under the lock (writers locked out) and for the
    // owner's advisory first read; Acquire for the thief pre-check and
    // the owner's push capacity check; SeqCst for the owner's
    // post-decrement re-read (the claim/re-read Dekker pair).
    ("top", "load", &["Relaxed", "Acquire", "SeqCst"]),
    // The thief's claim is the only top store and must stay SeqCst: it
    // pairs with the owner's SeqCst re-read.
    ("top", "store", &["SeqCst"]),
    // Relaxed for the owner's own reads (single writer); Acquire for
    // thief pre-checks and `len`; SeqCst for the locked thief's re-read
    // (the dip/locked-bottom Dekker pair).
    ("bottom", "load", &["Relaxed", "Acquire", "SeqCst"]),
    // Relaxed for the locked take (lock orders it); Release for the
    // push publish (carries the slot write); SeqCst for the pop's dip
    // and restore (the dip side of the Dekker pair).
    ("bottom", "store", &["Relaxed", "Release", "SeqCst"]),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_dense_and_ordered() {
        assert_eq!(OFF_LOCK, 0);
        assert_eq!(OFF_TOP, OFF_LOCK + WORD_BYTES);
        assert_eq!(OFF_BOTTOM, OFF_TOP + WORD_BYTES);
        assert_eq!(OFF_ENTRIES, OFF_BOTTOM + WORD_BYTES);
        assert_eq!(loc_bit(OFF_LOCK), 0);
        assert_eq!(loc_bit(OFF_TOP), 1);
        assert_eq!(loc_bit(OFF_BOTTOM), 2);
    }

    #[test]
    fn allowlist_covers_exactly_the_control_words() {
        let fields: std::collections::BTreeSet<&str> =
            ORDERING_ALLOWLIST.iter().map(|(f, _, _)| *f).collect();
        assert_eq!(
            fields.into_iter().collect::<Vec<_>>(),
            ["bottom", "lock", "top"]
        );
        for (field, op, allowed) in ORDERING_ALLOWLIST {
            assert!(
                matches!(*op, "load" | "store" | "compare_exchange"),
                "{field}: unknown operation {op}"
            );
            assert!(!allowed.is_empty());
            for ord in *allowed {
                assert!(
                    matches!(
                        *ord,
                        "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
                    ),
                    "{field}.{op}: unknown ordering {ord}"
                );
            }
        }
    }
}
