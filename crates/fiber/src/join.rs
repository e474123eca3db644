//! The join protocol, defined once for both real backends (DESIGN.md
//! [I16], [I21], §13.3) and model-checked (`uat-check`'s `join.rs`).
//!
//! A [`JoinBlock`] counts a joiner's outstanding *stolen-from* children
//! and holds at most one parked continuation — the joiner's own. It
//! lives wherever the joiner keeps it alive: a local of the
//! interpreter's task frame (a pooled stack under threads, a
//! shared-region slot stack across processes) or the `Arc` cell behind
//! a [`JoinHandle`](crate::JoinHandle).
//!
//! Only a steal makes a child count. A child whose exit pop returns its
//! parent resumes it where it spawned, finished, and neither touches the
//! block ([I21]). A spawner resumed on another worker was stolen: it
//! [`announce`](JoinBlock::announce)s the child, which, its pop empty,
//! calls [`complete`](JoinBlock::complete). The joiner passes when
//! [`is_done`](JoinBlock::is_done); its scheduler calls
//! [`park`](JoinBlock::park) from the worker's own stack ([I12]).
//!
//! Who resumes a parked joiner is decided by the modification order of
//! `pending` alone: `park` adds [`PARKED`], children subtract 1, and
//! whichever read-modify-write comes second sees the other — the last
//! child reads `PARKED | 1`, the scheduler reads 0. (A child may
//! subtract before its thief announces it: the count wraps, unread — the
//! joiner cannot reach `is_done` or `park` before it has announced.) A
//! child not handed the waiter never touches the block after its
//! decrement, which is what lets the block live in the joiner's frame;
//! the two-word protocol this one replaced, which read `waiter` after
//! it, could not.

use crate::ctx::Context;
use std::sync::atomic::{AtomicU64, Ordering};

/// Set in `pending` while a continuation is registered in `waiter`.
/// Child counts stay far below it.
const PARKED: u64 = 1 << 63;

/// Outstanding-children count plus a single waiter slot.
#[repr(C)]
pub(crate) struct JoinBlock {
    /// Children announced and not yet completed, plus [`PARKED`].
    pending: Pending,
    /// The parked joiner's continuation (`*mut Context` as u64); only
    /// meaningful while `pending` carries [`PARKED`].
    waiter: AtomicU64,
    /// Traced runs only: task id of the parked joiner, written before it
    /// hands its continuation to the scheduler, read by the child that
    /// is handed the waiter to name the `JoinReady` edge.
    pub(crate) waiter_task: AtomicU64,
    /// Traced runs only: task id of the child whose completion unparked
    /// the joiner (0 = the join never blocked), taken by the resumed
    /// joiner to name the `JoinResume` edge.
    pub(crate) enabler: AtomicU64,
}

impl JoinBlock {
    pub(crate) const fn new() -> Self {
        JoinBlock {
            pending: Pending::new(0),
            waiter: AtomicU64::new(0),
            waiter_task: AtomicU64::new(0),
            enabler: AtomicU64::new(0),
        }
    }

    /// Joiner, resumed by a thief: the child it spawned last is
    /// outstanding. Relaxed: a decrement that child made first is not
    /// lost, and this RMW continues its release sequence, so the
    /// joiner's next Acquire load still synchronises with it.
    #[inline]
    pub(crate) fn announce(&self) {
        self.pending.fetch_add(1, Ordering::Relaxed);
    }

    /// Joiner: has every announced child completed? Acquire pairs with
    /// the Release half of the children's decrements (one release
    /// sequence), so what they wrote before completing is visible.
    #[inline]
    pub(crate) fn is_done(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }

    /// Announced child: this child is finished. Returns the parked
    /// joiner's continuation iff this was the last child *and* the
    /// joiner had parked; the caller then owns it and must resume it
    /// once.
    ///
    /// On `None` the decrement was the child's last access to the block
    /// — the joiner may already have left and reused the memory. On
    /// `Some` the joiner cannot run until the caller resumes it, so the
    /// block was still alive for the two accesses after the decrement.
    #[inline]
    pub(crate) fn complete(&self) -> Option<u64> {
        if self.pending.fetch_sub(1, Ordering::AcqRel) != PARKED | 1 {
            return None;
        }
        // Acquire above read `park`'s Release add (or a sibling's
        // decrement after it): `waiter` is the parked continuation.
        let waiter = self.waiter.load(Ordering::Relaxed);
        // Clean for the joiner's next round; published to it by
        // whatever resumes it.
        self.pending.store(0, Ordering::Relaxed);
        Some(waiter)
    }

    /// Scheduler: park the joiner's saved continuation `ctx`, from a
    /// stack other than `ctx`'s own ([I12]). True: parked — the last
    /// child's [`complete`](Self::complete) hands `ctx` out exactly
    /// once, possibly before this returns, so the caller must not touch
    /// `ctx` or the block again. False: every child had already
    /// completed; the caller still owns `ctx` and resumes it itself.
    #[inline]
    pub(crate) fn park(&self, ctx: u64) -> bool {
        self.waiter.store(ctx, Ordering::Relaxed);
        // Release publishes `waiter`; Acquire shows the children's
        // writes to the joiner we resume on the false path.
        if self.pending.fetch_add(PARKED, Ordering::AcqRel) != 0 {
            return true;
        }
        self.pending.store(0, Ordering::Relaxed);
        false
    }
}

/// A parking join on its way from the fiber to its worker's scheduler
/// ([I12]): the block, stored by the fiber, and the fiber's
/// continuation, written by the `switch_to` that leaves it — `ctx` is
/// that call's slot. One per worker; a null block is "nothing pending".
pub(crate) struct PendingJoin {
    block: *const JoinBlock,
    ctx: *mut Context,
}

impl PendingJoin {
    pub(crate) const NONE: Self = PendingJoin {
        block: std::ptr::null(),
        ctx: std::ptr::null_mut(),
    };

    /// Fiber: hand the join on `jb` over. Returns the slot its
    /// `switch_to` into the scheduler saves the continuation to.
    #[inline]
    pub(crate) fn hand_over(&mut self, jb: &JoinBlock) -> *mut *mut Context {
        debug_assert!(self.block.is_null());
        self.block = jb;
        &raw mut self.ctx
    }

    /// Scheduler, on the worker's own stack: [`park`](JoinBlock::park)
    /// what a fiber handed over, if anything. `Some(ctx)`: every child
    /// had already completed, so the fiber never really parked and
    /// `ctx` is still the caller's to resume.
    ///
    /// # Safety
    /// The block handed over is still alive: it is in the suspended
    /// fiber's frame (or in a `JoinHandle` that frame holds), and that
    /// frame stays suspended until its continuation is resumed — which
    /// only this park's outcome can cause.
    #[inline]
    pub(crate) unsafe fn park(&mut self) -> Option<*mut Context> {
        let jb = std::mem::replace(&mut self.block, std::ptr::null());
        // SAFETY: [I8][I16] alive per this function's contract.
        (!jb.is_null() && !unsafe { (*jb).park(self.ctx as u64) }).then_some(self.ctx)
    }
}

// `pending` is a plain atomic, or in test builds one that counts its
// read-modify-writes.
#[cfg(not(test))]
use std::sync::atomic::AtomicU64 as Pending;
#[cfg(test)]
pub(crate) use tests::{rmws, Pending};

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicBool;

    thread_local!(static RMWS: Cell<u64> = const { Cell::new(0) });

    /// The read-modify-writes this thread has made on any join block.
    #[inline(never)]
    pub(crate) fn rmws() -> u64 {
        RMWS.with(Cell::get)
    }

    /// `pending` in test builds: an `AtomicU64` that counts its
    /// read-modify-writes per thread — the measure of [I21]'s claim
    /// that a child nobody stole never touches its block.
    #[repr(transparent)]
    pub(crate) struct Pending(AtomicU64);

    impl Pending {
        pub(crate) const fn new(v: u64) -> Self {
            Pending(AtomicU64::new(v))
        }

        pub(crate) fn load(&self, order: Ordering) -> u64 {
            self.0.load(order)
        }

        pub(crate) fn store(&self, v: u64, order: Ordering) {
            self.0.store(v, order);
        }

        #[inline(never)]
        pub(crate) fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
            RMWS.with(|n| n.set(n.get() + 1));
            self.0.fetch_add(v, order)
        }

        #[inline(never)]
        pub(crate) fn fetch_sub(&self, v: u64, order: Ordering) -> u64 {
            RMWS.with(|n| n.set(n.get() + 1));
            self.0.fetch_sub(v, order)
        }
    }

    #[test]
    fn sequential_outcomes() {
        let jb = JoinBlock::new();
        assert!(jb.is_done());
        // Child finishes first: the fast path, nothing handed out.
        jb.announce();
        assert!(!jb.is_done());
        assert_eq!(jb.complete(), None);
        assert!(jb.is_done());
        // A stolen child completes before its thief announces it: the
        // count wraps, and the announce brings it back.
        assert_eq!(jb.complete(), None);
        jb.announce();
        assert!(jb.is_done());
        // Park after the children are gone: the scheduler keeps the ctx.
        jb.announce();
        assert_eq!(jb.complete(), None);
        assert!(!jb.park(0x1000));
        assert!(jb.is_done());
        // Park first: only the last of two children is handed the ctx,
        // and the block is reusable afterwards.
        jb.announce();
        jb.announce();
        assert!(jb.park(0x2000));
        assert!(!jb.is_done());
        assert_eq!(jb.complete(), None);
        assert_eq!(jb.complete(), Some(0x2000));
        assert!(jb.is_done());
    }

    /// Spin until `cond`, giving the CPU away so the test also finishes
    /// on a single-core host.
    fn wait_until(cond: impl Fn() -> bool) {
        let mut spins = 0u32;
        while !cond() {
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// When a round's joiner counts its children.
    #[derive(Clone, Copy, PartialEq)]
    enum Count {
        /// Never: each child popped the joiner back itself.
        Inline,
        /// Before letting the children thread complete them.
        Before,
        /// After they have completed, as a thief that resumes the
        /// spawner late does: the count wraps below zero first.
        After,
    }

    /// Drives the two racing halves of the protocol from two plain OS
    /// threads, with no fibers involved: a "joiner + its scheduler"
    /// thread (count, fast-path check, else `park`) against a
    /// "children" thread (`complete` once or twice per counted round),
    /// one block reused for every round as the interpreter reuses a
    /// task's block for every `JoinAll`. Each round's token must come
    /// back exactly once — from the last child if the park won, from
    /// `park` returning false if the children won — or not at all if
    /// the fast path saw them done.
    ///
    /// On the fast path the joiner immediately scribbles `POISON` over
    /// the waiter slot, standing in for a frame that has been left and
    /// reused: a child that still looked at the block after its final
    /// decrement (as the two-word Dekker protocol this replaces did)
    /// would hand the poison out.
    ///
    /// What a weaker ordering would break: the Release in `park` /
    /// Acquire in `complete` pair is what makes `waiter` readable, and
    /// on x86 every `lock`-prefixed RMW is a full fence, so the
    /// hardware will not expose a downgrade here — that is the point
    /// of arbitrating on one word (the Dekker version failed on TSO
    /// with anything below SeqCst). TSan checks the pairing instead;
    /// this module is in the CI TSan job's filter list, and the model
    /// checker explores every downgrade (`uat-check`'s `join.rs`).
    #[test]
    fn two_thread_stress_resumes_every_parked_token_exactly_once() {
        const ROUNDS: u64 = 1_000_000;
        const POISON: u64 = u64::MAX;
        static JB: JoinBlock = JoinBlock::new();
        // Round the children thread may run (joiner → children).
        static GO: AtomicU64 = AtomicU64::new(0);
        // Round the children thread has finished (children → joiner).
        static DONE: AtomicU64 = AtomicU64::new(0);
        // Token handed out by a last child (children → joiner); 0 = none.
        static HANDED: AtomicU64 = AtomicU64::new(0);
        static FAILED: AtomicBool = AtomicBool::new(false);
        let count =
            |round: u64| [Count::Inline, Count::Before, Count::After][(round / 2 % 3) as usize];
        let kids = move |round: u64| match count(round) {
            Count::Inline => 0,
            _ => 1 + (round & 1),
        };
        let token = |round: u64| round << 4;

        let children = std::thread::spawn(move || {
            let mut handed = 0u64;
            for round in 1..=ROUNDS {
                wait_until(|| GO.load(Ordering::Acquire) >= round);
                for _ in 0..kids(round) {
                    if let Some(tok) = JB.complete() {
                        handed += 1;
                        // The right round's token, and the joiner has
                        // consumed the previous one.
                        if tok != token(round) || HANDED.swap(tok, Ordering::AcqRel) != 0 {
                            FAILED.store(true, Ordering::Relaxed);
                        }
                    }
                }
                DONE.store(round, Ordering::Release);
            }
            handed
        });

        let (mut fast, mut inline, mut parked) = (0u64, 0u64, 0u64);
        for round in 1..=ROUNDS {
            let announce = || (0..kids(round)).for_each(|_| JB.announce());
            if count(round) == Count::Before {
                announce();
            }
            GO.store(round, Ordering::Release);
            if count(round) == Count::After {
                wait_until(|| DONE.load(Ordering::Acquire) >= round);
                let wrapped = JB.pending.load(Ordering::Relaxed);
                assert_eq!(wrapped, kids(round).wrapping_neg(), "round {round}");
                announce();
            }
            if JB.is_done() {
                fast += 1;
                JB.waiter.store(POISON, Ordering::Relaxed);
            } else if JB.park(token(round)) {
                parked += 1;
                wait_until(|| HANDED.load(Ordering::Acquire) == token(round));
                HANDED.store(0, Ordering::Release);
            } else {
                inline += 1;
            }
            assert!(JB.is_done(), "round {round}: resumed with children pending");
        }
        let handed = children.join().expect("children thread");
        assert!(
            !FAILED.load(Ordering::Relaxed),
            "a wrong or duplicate token was handed out"
        );
        assert_eq!(
            HANDED.load(Ordering::Relaxed),
            0,
            "a token was handed out twice"
        );
        assert_eq!(
            handed, parked,
            "every parked token is resumed by a last child"
        );
        assert_eq!(fast + inline + parked, ROUNDS);
        // The race must actually have been exercised both ways; which
        // way each round goes is up to the hardware.
        assert!(parked > 0 || inline > 0, "no round ever reached park()");
    }
}
