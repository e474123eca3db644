//! Small-step state machines for the THE-protocol steal path.
//!
//! The shared state is the deque's four memory regions — the lock word,
//! `top`, `bottom`, and the entry slots — exactly the words of the
//! canonical `uat_deque::layout` that the one THE body, `TheDeque`,
//! keeps in fabric memory and in atomics (the location bit-masks
//! below are derived from those offsets). Two thread kinds step over it:
//!
//! - the **owner**, running a fixed script of `push`/`pop` ops, and
//! - **thieves**, each running a fixed number of steal attempts
//!   (empty-check → lock → steal → unlock).
//!
//! Each model family fixes the *atomicity granularity*:
//!
//! - [`Family::SimPhase`] — one step per simulator event, mirroring how
//!   the discrete-event engine executes the protocol: owner `push`/`pop`
//!   are single atomic steps (they are plain local memory ops inside one
//!   engine event) and each thief RDMA phase (Figure 6 / Table 3) is a
//!   single atomic step, because `Fabric` linearizes every one-sided op
//!   at its issue instant.
//! - [`Family::NativeOp`] — one step per *shared memory access*,
//!   mirroring `NativeDeque`'s individual atomic loads/stores/RMWs. This
//!   is the granularity at which the last-entry arbitration can actually
//!   go wrong — an owner's pop and a locked thief's critical section
//!   overlap access-by-access — which phase-atomic models cannot see.
//!
//! Orthogonally, [`MemModel`] fixes the *memory semantics*: under
//! [`MemModel::Sc`] every access sees the single authoritative value
//! (the PR 3 behavior); under [`MemModel::Ra`] each access carries the
//! [`MemOrd`] declared at the matching `NativeDeque` site ([`OrdSpec`])
//! and loads branch over every message the C11 release/acquire rules let
//! them read — see [`crate::memory`]. `NativeOp` scenarios can also
//! model the **batched steal** extension ahead of its native
//! implementation: with [`Scenario::batch`] `= k`, a locked thief
//! transfers up to `k` entries per critical section and the owner's
//! lock-free pop bound widens from `top < bottom-1` to
//! `top + k <= bottom-1` (the shipped protocol is exactly the `k = 1`
//! case).
//!
//! [`Mutation`]s re-introduce specific protocol regressions so the
//! checker can demonstrate a counterexample trace for each (and so a
//! future refactor that reintroduces one is caught by the suite). The
//! ordering-downgrade mutations only weaken an [`OrdSpec`] entry: under
//! `Sc` they are invisible by construction, and the suite proves the
//! `Ra` explorer catches every one of them.

use crate::explore::{Explorer, Protocol, Report, Seeded};
use crate::memory::{LoadOut, Mem, MemModel, MemOrd};
use std::fmt;

/// Shared-memory location classes, used for the independence relation
/// behind sleep-set pruning. Slot indices are per-capacity (`pos % cap`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Bitmask of locations read (bit 0 = lock, 1 = top, 2 = bottom,
    /// 3+i = slot i).
    pub reads: u32,
    /// Bitmask of locations written.
    pub writes: u32,
}

use uat_deque::layout::{loc_bit, OFF_BOTTOM, OFF_ENTRIES, OFF_LOCK, OFF_TOP};

const LOC_LOCK: u32 = 1 << loc_bit(OFF_LOCK);
const LOC_TOP: u32 = 1 << loc_bit(OFF_TOP);
const LOC_BOTTOM: u32 = 1 << loc_bit(OFF_BOTTOM);
/// First slot bit: the word index where the entries begin.
const LOC_SLOT0: u32 = loc_bit(OFF_ENTRIES);

/// Location *indices* for the memory subsystem (same numbering as the
/// `Access` bits: the word index within the canonical layout).
const IDX_LOCK: usize = loc_bit(OFF_LOCK) as usize;
const IDX_TOP: usize = loc_bit(OFF_TOP) as usize;
const IDX_BOTTOM: usize = loc_bit(OFF_BOTTOM) as usize;
const IDX_SLOT0: usize = loc_bit(OFF_ENTRIES) as usize;

fn loc_slot(slot: u64) -> u32 {
    assert!(slot < 16, "model supports capacities up to 16");
    1 << (LOC_SLOT0 + slot as u32)
}

fn idx_slot(slot: u64) -> usize {
    IDX_SLOT0 + slot as usize
}

impl Access {
    fn r(mask: u32) -> Access {
        Access {
            reads: mask,
            writes: 0,
        }
    }

    fn rw(reads: u32, writes: u32) -> Access {
        Access { reads, writes }
    }

    /// Two steps are independent iff neither writes a location the other
    /// touches — disjoint read/write footprints commute and preserve each
    /// other's enabledness (enabledness conditions are included in the
    /// read sets).
    pub fn independent(self, other: Access) -> bool {
        self.writes & (other.reads | other.writes) == 0
            && other.writes & (self.reads | self.writes) == 0
    }
}

/// Atomicity granularity of a scenario (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Simulator-faithful: owner ops and thief RDMA phases are atomic.
    SimPhase,
    /// `NativeDeque`-faithful: one step per shared atomic access.
    NativeOp,
}

/// The per-access-site memory orderings of a `NativeOp` scenario,
/// mirroring the `Ordering` arguments at each `NativeDeque` call site
/// one-for-one (`crates/deque/src/native.rs`). [`OrdSpec::native`] is
/// the shipped deque; ordering-downgrade [`Mutation`]s weaken exactly
/// one entry. Under [`MemModel::Sc`] the spec is ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrdSpec {
    /// `push`: the `top` load feeding the capacity check.
    pub push_read_top: MemOrd,
    /// `push`: the entry write (plain store, modeled `Relaxed`).
    pub push_write_slot: MemOrd,
    /// `push`: the publishing `bottom` store.
    pub push_publish: MemOrd,
    /// `pop`: the initial `top` load.
    pub pop_read_top0: MemOrd,
    /// `pop`: the speculative `bottom` decrement (Dekker store side).
    pub pop_dec_bottom: MemOrd,
    /// `pop`: the `top` re-read after the decrement (Dekker load side).
    pub pop_reread_top: MemOrd,
    /// `pop`: the `bottom` restore before lock arbitration.
    pub pop_restore_bottom: MemOrd,
    /// `pop`: the locked `top` re-read.
    pub pop_locked_top: MemOrd,
    /// `pop`: the locked `bottom` store when the owner wins.
    pub pop_take_bottom: MemOrd,
    /// Lock CAS success ordering (owner TATAS and thief try-lock).
    pub lock_cas: MemOrd,
    /// Unlock store (owner and thief).
    pub unlock: MemOrd,
    /// `steal` pre-check: the `top` load.
    pub pre_top: MemOrd,
    /// `steal` pre-check: the `bottom` load (the publication edge
    /// pairing with `push_publish`).
    pub pre_bottom: MemOrd,
    /// `steal`: the locked `top` load.
    pub locked_top: MemOrd,
    /// `steal`: the locked `bottom` load (Dekker load side).
    pub locked_bottom: MemOrd,
    /// `steal`: the entry read (plain load, modeled `Relaxed`).
    pub slot_read: MemOrd,
    /// `steal`: the claim-publishing `top` store (Dekker store side
    /// pairing with `pop_reread_top`).
    pub claim_top: MemOrd,
}

impl OrdSpec {
    /// The orderings `NativeDeque` declares (see DESIGN.md §11 for the
    /// invariant each one protects).
    pub fn native() -> OrdSpec {
        OrdSpec {
            push_read_top: MemOrd::Acquire,
            push_write_slot: MemOrd::Relaxed,
            push_publish: MemOrd::Release,
            pop_read_top0: MemOrd::Relaxed,
            pop_dec_bottom: MemOrd::SeqCst,
            pop_reread_top: MemOrd::SeqCst,
            pop_restore_bottom: MemOrd::SeqCst,
            pop_locked_top: MemOrd::Relaxed,
            pop_take_bottom: MemOrd::Relaxed,
            lock_cas: MemOrd::Acquire,
            unlock: MemOrd::Release,
            pre_top: MemOrd::Acquire,
            pre_bottom: MemOrd::Acquire,
            locked_top: MemOrd::Relaxed,
            locked_bottom: MemOrd::SeqCst,
            slot_read: MemOrd::Relaxed,
            claim_top: MemOrd::SeqCst,
        }
    }
}

/// A seeded protocol regression for mutation smoke-checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Unmodified protocol — the checker must find zero violations.
    None,
    /// Delete the owner's top re-check after decrementing `bottom`: the
    /// pop always takes the fast path, so it can keep an entry a thief
    /// already stole (double claim).
    SkipOwnerTopRecheck,
    /// Drop phase 4 when phase 3 finds the deque drained: the lock word
    /// is never rewritten to 0 (lock leak, and the owner's contended pop
    /// wedges forever).
    SkipUnlockOnRacedEmpty,
    /// `NativeOp` only: the owner's original fast-path bound — take the
    /// last entry (`top == bottom - 1` after the decrement) lock-free
    /// whenever the top re-read shows no *published* claim, instead of
    /// arbitrating it under the lock. A thief already inside its locked
    /// critical section has loaded `top` and `bottom` but not yet
    /// advanced `top`, so the owner's re-read looks clean while both
    /// sides go on to keep the same entry. This is the latent bug
    /// `uat-check` found in the shipped `NativeDeque::pop`.
    LastEntryFastPath,
    /// Ordering downgrade (`Ra` only): `push`'s publishing `bottom`
    /// store `Release -> Relaxed`. The entry write no longer
    /// happens-before the bottom bump, so a thief whose pre-check
    /// acquires the new bottom can still read the slot's stale previous
    /// contents — it keeps a value that was never pushed (and the real
    /// entry is lost). This is the downgrade the push-publish audit
    /// (ISSUE 8 satellite) proves unsafe; the explorer passing the clean
    /// suite with `Release` proves `SeqCst` was not needed.
    PushPublishRelaxed,
    /// Ordering downgrade (`Ra` only): `pop`'s speculative `bottom`
    /// decrement `SeqCst -> Release`. The Dekker store side leaves the
    /// SC order, so a locked thief's `SeqCst` bottom load may still read
    /// the pre-decrement value and steal an entry the owner's fast path
    /// is simultaneously taking.
    PopPublishRelease,
    /// Ordering downgrade (`Ra` only): the thief's locked `bottom` load
    /// `SeqCst -> Relaxed` — the Dekker load side of the same handshake,
    /// broken from the other end.
    StealBottomRelaxed,
    /// Ordering downgrade (`Ra` only): the unlock store
    /// `Release -> Relaxed`. The critical-section writes no longer
    /// transfer to the next lock holder, whose locked `Relaxed` re-reads
    /// then see stale `top` and double-claim.
    UnlockRelaxed,
    /// Ordering downgrade (`Ra` only): the lock CAS success ordering
    /// `Acquire -> Relaxed` — the same chain broken on the acquiring
    /// side.
    LockCasRelaxed,
    /// Ordering downgrade (`Ra` only): the thief's claim-publishing
    /// `top` store `SeqCst -> Release`. The claim leaves the SC order,
    /// so the owner's `SeqCst` top re-read can miss it, conclude the
    /// fast-path bound holds, and take a position a thief is already
    /// committed to.
    ClaimTopRelease,
    /// Batched steal (`batch >= 2` only): keep the `k = 1` owner
    /// fast-path bound `top < bottom - 1` instead of widening it to
    /// `top + k <= bottom - 1`. A locked thief transferring `k` entries
    /// reaches positions the narrow bound wrongly treats as
    /// owner-exclusive — caught even under SC, which is why the bound
    /// must widen before native batching ships (ROADMAP item 3).
    BatchNarrowOwnerBound,
}

impl Seeded for Mutation {
    const SEEDED: &'static [(Self, &'static str)] = &[
        // Protocol mutations (visible under SC).
        (Mutation::SkipOwnerTopRecheck, "owner-top-recheck"),
        (Mutation::SkipUnlockOnRacedEmpty, "unlock-drop"),
        (Mutation::LastEntryFastPath, "last-entry-fast-path"),
        (Mutation::BatchNarrowOwnerBound, "batch-owner-bound"),
        // Ordering downgrades (visible only under the RA memory model).
        (Mutation::PushPublishRelaxed, "push-publish-weak"),
        (Mutation::PopPublishRelease, "pop-publish-weak"),
        (Mutation::StealBottomRelaxed, "steal-bottom-weak"),
        (Mutation::UnlockRelaxed, "unlock-weak"),
        (Mutation::LockCasRelaxed, "lock-cas-weak"),
        (Mutation::ClaimTopRelease, "claim-top-weak"),
    ];
    const WEAK: &'static [Self] = &[
        Mutation::PushPublishRelaxed,
        Mutation::PopPublishRelease,
        Mutation::StealBottomRelaxed,
        Mutation::UnlockRelaxed,
        Mutation::LockCasRelaxed,
        Mutation::ClaimTopRelease,
    ];
}

/// One owner-script operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OwnerOp {
    /// Push the value (values are unique per scenario; conservation is
    /// checked per value).
    Push(u64),
    /// Pop the youngest entry.
    Pop,
}

/// A closed system to check: owner script, thief attempt counts, deque
/// capacity, granularity, memory model, steal batch size, and an
/// optional seeded mutation.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Report name.
    pub name: &'static str,
    /// Atomicity granularity.
    pub family: Family,
    /// Memory semantics ([`MemModel::Ra`] requires `NativeOp`).
    pub mem_model: MemModel,
    /// Deque capacity (slots).
    pub capacity: u64,
    /// Max entries a locked thief transfers per critical section
    /// (`NativeOp`; 1 = the shipped protocol).
    pub batch: u64,
    /// Owner ops executed serially (at `SimPhase` atomicity) before the
    /// interleaved part, to advance positions past slot wraparound. Must
    /// leave the deque empty.
    pub prologue: Vec<OwnerOp>,
    /// Owner ops explored under full interleaving.
    pub owner: Vec<OwnerOp>,
    /// Steal attempts per thief (one entry per thief).
    pub thieves: Vec<u32>,
    /// Seeded regression, or `Mutation::None`.
    pub mutation: Mutation,
}

impl Scenario {
    /// The ordering spec this scenario runs under: the shipped native
    /// orderings with the mutation's single downgrade applied.
    pub fn ords(&self) -> OrdSpec {
        let mut o = OrdSpec::native();
        match self.mutation {
            Mutation::PushPublishRelaxed => o.push_publish = MemOrd::Relaxed,
            Mutation::PopPublishRelease => o.pop_dec_bottom = MemOrd::Release,
            Mutation::StealBottomRelaxed => o.locked_bottom = MemOrd::Relaxed,
            Mutation::UnlockRelaxed => o.unlock = MemOrd::Relaxed,
            Mutation::LockCasRelaxed => o.lock_cas = MemOrd::Relaxed,
            Mutation::ClaimTopRelease => o.claim_top = MemOrd::Release,
            _ => {}
        }
        o
    }
}

/// Program counter of the owner thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OwnerPc {
    /// Between ops (next script op not started).
    Ready,
    /// `NativeOp` push: indices read, capacity checked; next write slot.
    PushIdx { b: u64 },
    /// `NativeOp` push: slot written; next publish `bottom = b + 1`.
    PushWrote { b: u64 },
    /// `NativeOp` pop: `b, t` read, non-empty; next store `bottom = b-1`.
    PopDec { b: u64 },
    /// `NativeOp` pop: bottom stored; next the top re-check.
    PopRecheck { b: u64 },
    /// `NativeOp` pop conflict: next restore `bottom = b`.
    PopRestore { b: u64 },
    /// `NativeOp` pop conflict: bottom restored; next TAS the lock
    /// (enabled only while the lock is free — the TATAS spin is a
    /// stutter step the explorer elides).
    PopLock { b: u64 },
    /// `NativeOp` pop conflict: lock held; next locked top re-read.
    PopLocked { b: u64 },
    /// `NativeOp` pop conflict: thief lost; next take entry `b - 1`.
    PopTake { b: u64 },
    /// `NativeOp` pop: release the lock, completing the op.
    PopUnlock { took: bool },
}

/// Program counter of a thief thread, across one steal attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ThiefPc {
    /// Between attempts.
    Idle,
    /// `SimPhase`: empty check passed; next phase 2 (FAA).
    SimChecked,
    /// `SimPhase`: lock acquired; next phase 3.
    SimLocked,
    /// `SimPhase`: phase 3 done; next phase 4 (unlock). `stole` is the
    /// kept value, if any.
    SimUnlockPending { stole: bool },
    /// `NativeOp`: pre-check read `top`; next read `bottom`.
    NatPre { t: u64 },
    /// `NativeOp`: pre-check passed; next CAS the lock.
    NatCas,
    /// `NativeOp`: lock held; next locked read of `top`.
    NatL1,
    /// `NativeOp`: locked `top` read; next locked read of `bottom`.
    NatL2 { t: u64 },
    /// `NativeOp`: next locked read of slot `t + i` (of `k` being
    /// transferred this critical section). The value is *kept* at that
    /// read: the lock pins `top` at `t`, and the owner's fast-path bound
    /// (`top + batch <= bottom - 1`) keeps it away from positions
    /// `[t, t + k)`, so the entries are exclusively ours before we
    /// publish anything.
    NatReadSlot { t: u64, k: u64, i: u64 },
    /// `NativeOp`: `k` values kept; next publish the claim
    /// `top = t + k`.
    NatClaim { t: u64, k: u64 },
    /// `NativeOp`: next release the lock, ending the attempt.
    NatUnlock { stole: bool },
}

/// One thread's control state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ThreadState {
    /// The owner: index of the next script op plus an intra-op pc.
    Owner {
        /// Next op index in `Scenario::owner`.
        next: usize,
        /// Intra-op program counter.
        pc: OwnerPc,
    },
    /// A thief: remaining attempts plus an intra-attempt pc.
    Thief {
        /// Attempts not yet started.
        attempts_left: u32,
        /// Intra-attempt program counter.
        pc: ThiefPc,
    },
}

/// Full system state: the shared memory (single-valued under SC,
/// histories + views under RA — see [`crate::memory`]) plus every
/// thread's control state and the (sorted) multiset of values kept so
/// far. `consumed` is part of the state key so the memoized explorer
/// distinguishes runs that delivered different values.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Sys {
    /// The shared deque words.
    pub mem: Mem,
    /// All thread control states (owner first, then thieves).
    pub threads: Vec<ThreadState>,
    /// Values kept so far, sorted (for canonical hashing).
    pub consumed: Vec<u64>,
}

/// What a step did, for replay, tracing, and invariant checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpEvent {
    /// Internal micro-step; nothing protocol-visible completed.
    Micro,
    /// Owner push completed.
    PushDone(u64),
    /// Owner pop completed (`None` = empty).
    PopDone(Option<u64>),
    /// Thief phase 1 completed.
    EmptyCheck {
        /// Whether the check aborted the attempt.
        empty: bool,
    },
    /// Thief phase 2 completed.
    LockTry {
        /// Whether the FAA observed 0 (lock acquired).
        acquired: bool,
    },
    /// Thief phase 3 completed (`None` = raced empty; unlock still due).
    StealPhase(Option<u64>),
    /// Thief phase 4 completed.
    Unlock,
}

/// The result of executing one step.
#[derive(Clone, Debug)]
pub struct StepOut {
    /// Human-readable description ("thief 1: claim top=3"). Stale
    /// reads-from choices and mutated orderings are annotated inline.
    pub label: String,
    /// Read/write footprint (drives sleep-set independence).
    pub acc: Access,
    /// What keeping a value broke, if this step kept one: a double claim
    /// or a phantom.
    pub fault: Option<ViolationKind>,
    /// Protocol-visible completion, for differential replay.
    pub event: OpEvent,
}

/// Annotation appended to a step label when its ordering was downgraded
/// by the scenario's mutation.
fn ord_tag(actual: MemOrd, clean: MemOrd) -> String {
    if actual == clean {
        String::new()
    } else {
        format!(" [MUTATED: {} instead of {}]", actual.name(), clean.name())
    }
}

/// Annotation appended when a load took a stale reads-from choice.
fn stale_tag(l: LoadOut, what: &str, latest: u64) -> String {
    if l.stale {
        format!(" [STALE {what} read; latest is {latest}]")
    } else {
        String::new()
    }
}

impl Sys {
    /// Initial state for a scenario, with the prologue already applied
    /// (and, under `Ra`, fully synchronized: the runtime's deque
    /// construction happens-before any worker starting).
    pub fn initial(sc: &Scenario) -> Sys {
        assert!(
            sc.capacity >= 1 && sc.capacity <= 13,
            "capacity must fit the Access bitmask"
        );
        assert!(sc.batch >= 1, "batch size must be at least 1");
        if sc.batch > 1 {
            assert_eq!(
                sc.family,
                Family::NativeOp,
                "batched steals are modeled at NativeOp granularity"
            );
        }
        if sc.mem_model == MemModel::Ra {
            assert_eq!(
                sc.family,
                Family::NativeOp,
                "the RA model applies to per-access granularity only \
                 (SimPhase atomicity is the fabric's linearization)"
            );
            // The owner's capacity check reads `top` and a stale (older,
            // hence smaller) top makes the check strictly harder to
            // pass. Keep it satisfiable under the worst case (the
            // initial floor) so a legal weak behavior is never reported
            // as a model-internal overflow.
            let pushes = sc
                .owner
                .iter()
                .filter(|o| matches!(o, OwnerOp::Push(_)))
                .count() as u64;
            assert!(
                pushes <= sc.capacity,
                "RA scenarios need total pushes <= capacity (stale-top \
                 capacity check)"
            );
        }
        let mut threads = vec![ThreadState::Owner {
            next: 0,
            pc: OwnerPc::Ready,
        }];
        for &a in &sc.thieves {
            threads.push(ThreadState::Thief {
                attempts_left: a,
                pc: ThiefPc::Idle,
            });
        }
        // Apply the prologue on plain values, then seal them into the
        // memory model as the synchronized initial state.
        let mut vals = vec![0u64; IDX_SLOT0 + sc.capacity as usize];
        for (i, &op) in sc.prologue.iter().enumerate() {
            match op {
                OwnerOp::Push(v) => {
                    assert!(
                        vals[IDX_BOTTOM] - vals[IDX_TOP] < sc.capacity,
                        "prologue overflow at op {i}"
                    );
                    let slot = vals[IDX_BOTTOM] % sc.capacity;
                    vals[idx_slot(slot)] = v;
                    vals[IDX_BOTTOM] += 1;
                }
                OwnerOp::Pop => {
                    assert!(
                        vals[IDX_BOTTOM] > vals[IDX_TOP],
                        "prologue pop on empty deque at op {i}"
                    );
                    vals[IDX_BOTTOM] -= 1;
                }
            }
        }
        assert_eq!(
            vals[IDX_TOP], vals[IDX_BOTTOM],
            "prologue must leave the deque empty"
        );
        let nthreads = threads.len();
        Sys {
            mem: Mem::new(sc.mem_model, vals, nthreads),
            threads,
            consumed: Vec::new(),
        }
    }

    /// Latest lock word (modification order, not any thread's view).
    pub fn lock(&self) -> u64 {
        self.mem.latest(IDX_LOCK)
    }

    /// Latest `top`.
    pub fn top(&self) -> u64 {
        self.mem.latest(IDX_TOP)
    }

    /// Latest `bottom`.
    pub fn bottom(&self) -> u64 {
        self.mem.latest(IDX_BOTTOM)
    }

    /// Latest content of slot `idx`.
    pub fn slot(&self, idx: usize) -> u64 {
        self.mem.latest(IDX_SLOT0 + idx)
    }

    /// Slot count.
    pub fn capacity(&self) -> u64 {
        (self.mem.locs() - IDX_SLOT0) as u64
    }

    fn slot_of(&self, pos: u64) -> u64 {
        pos % self.capacity()
    }

    /// Whether thread `ti` has finished all its work.
    pub fn done(&self, ti: usize, sc: &Scenario) -> bool {
        match &self.threads[ti] {
            ThreadState::Owner { next, pc } => *pc == OwnerPc::Ready && *next >= sc.owner.len(),
            ThreadState::Thief { attempts_left, pc } => *pc == ThiefPc::Idle && *attempts_left == 0,
        }
    }

    /// Whether thread `ti` can take a step. Spin/retry situations — the
    /// simulator owner's `Contended` pop and the native owner's TATAS
    /// lock wait — are modeled as *disabled until the lock frees*, which
    /// is the stutter pruning: executing the retry would not change the
    /// state, so the explorer skips straight to the wake-up. Guards read
    /// the latest values (they model progress, not a thread's view).
    pub fn enabled(&self, ti: usize, sc: &Scenario) -> bool {
        if self.done(ti, sc) {
            return false;
        }
        match &self.threads[ti] {
            ThreadState::Owner { next, pc } => match (pc, sc.family) {
                (OwnerPc::Ready, Family::SimPhase) => {
                    // Stutter: Contended pop (empty deque, lock held)
                    // would re-schedule without effect.
                    !(matches!(sc.owner[*next], OwnerOp::Pop)
                        && self.bottom() == self.top()
                        && self.lock() != 0)
                }
                (OwnerPc::Ready, Family::NativeOp) => {
                    // Only reachable under a seeded mutation: a correct
                    // run never lets the owner start a push while
                    // `top > bottom` (a mutated double claim can leave
                    // the indices crossed for good). Real code would
                    // trip the capacity assertion; model it as blocked
                    // so such runs surface as `Stuck` instead of
                    // panicking the explorer.
                    !(matches!(sc.owner[*next], OwnerOp::Push(_)) && self.top() > self.bottom())
                }
                (OwnerPc::PopLock { .. }, _) => self.lock() == 0,
                _ => true,
            },
            ThreadState::Thief { .. } => true,
        }
    }

    /// The load whose reads-from choice thread `ti`'s next step branches
    /// on, if any. Owner reads of owner-written words (`bottom`, slots)
    /// always have exactly one readable message (the thread's own floor
    /// is the latest store), so they are not listed.
    fn pending_load(&self, ti: usize, sc: &Scenario) -> Option<(usize, MemOrd)> {
        if sc.family != Family::NativeOp {
            return None;
        }
        let o = sc.ords();
        match &self.threads[ti] {
            ThreadState::Owner { next, pc } => match pc {
                OwnerPc::Ready if *next < sc.owner.len() => Some(match sc.owner[*next] {
                    OwnerOp::Push(_) => (IDX_TOP, o.push_read_top),
                    OwnerOp::Pop => (IDX_TOP, o.pop_read_top0),
                }),
                OwnerPc::PopRecheck { .. } if sc.mutation != Mutation::SkipOwnerTopRecheck => {
                    Some((IDX_TOP, o.pop_reread_top))
                }
                OwnerPc::PopLocked { .. } => Some((IDX_TOP, o.pop_locked_top)),
                _ => None,
            },
            ThreadState::Thief { pc, .. } => match pc {
                ThiefPc::Idle => Some((IDX_TOP, o.pre_top)),
                ThiefPc::NatPre { .. } => Some((IDX_BOTTOM, o.pre_bottom)),
                ThiefPc::NatL1 => Some((IDX_TOP, o.locked_top)),
                ThiefPc::NatL2 { .. } => Some((IDX_BOTTOM, o.locked_bottom)),
                ThiefPc::NatReadSlot { t, i, .. } => {
                    Some((idx_slot(self.slot_of(t + i)), o.slot_read))
                }
                _ => None,
            },
        }
    }

    /// Execute thread `ti`'s next step with reads-from `choice` (one of
    /// its [`Protocol::moves`]). Panics on model-internal impossibilities
    /// (overflow under a well-sized scenario).
    pub fn step(&mut self, ti: usize, choice: u32, sc: &Scenario) -> StepOut {
        debug_assert!(self.enabled(ti, sc));
        match self.threads[ti].clone() {
            ThreadState::Owner { next, pc } => self.owner_step(ti, next, pc, choice, sc),
            ThreadState::Thief { attempts_left, pc } => {
                self.thief_step(ti, attempts_left, pc, choice, sc)
            }
        }
    }

    /// Keep value `v`, which must be new and pushed by the owner script.
    fn keep(&mut self, v: u64, sc: &Scenario) -> Option<ViolationKind> {
        let Err(i) = self.consumed.binary_search(&v) else {
            return Some(ViolationKind::DoubleClaim { value: v });
        };
        self.consumed.insert(i, v);
        (!sc.owner.contains(&OwnerOp::Push(v))).then_some(ViolationKind::PhantomValue { value: v })
    }

    fn out(label: String, acc: Access, event: OpEvent) -> StepOut {
        StepOut {
            label,
            acc,
            fault: None,
            event,
        }
    }

    /// Load from a word this thread is the only writer of: its floor is
    /// its own latest store, so there is exactly one readable message.
    fn own_load(&mut self, ti: usize, loc: usize, ord: MemOrd) -> u64 {
        debug_assert_eq!(self.mem.load_choices(ti, loc, ord), 1);
        self.mem.load(ti, loc, ord, 0).val
    }

    fn owner_step(
        &mut self,
        ti: usize,
        next: usize,
        pc: OwnerPc,
        choice: u32,
        sc: &Scenario,
    ) -> StepOut {
        let set = |s: &mut Sys, next, pc| s.threads[ti] = ThreadState::Owner { next, pc };
        let ords = sc.ords();
        let clean = OrdSpec::native();
        match (pc, sc.family) {
            (OwnerPc::Ready, Family::SimPhase) => match sc.owner[next] {
                OwnerOp::Push(v) => {
                    let (b, t) = (self.bottom(), self.top());
                    assert!(b - t < sc.capacity, "owner push overflow");
                    let slot = self.slot_of(b);
                    self.mem.store(ti, idx_slot(slot), MemOrd::Relaxed, v);
                    self.mem.store(ti, IDX_BOTTOM, MemOrd::Relaxed, b + 1);
                    set(self, next + 1, OwnerPc::Ready);
                    Self::out(
                        format!("owner: push v{v} at pos {b} (slot {slot})"),
                        Access::rw(LOC_TOP | LOC_BOTTOM, LOC_BOTTOM | loc_slot(slot)),
                        OpEvent::PushDone(v),
                    )
                }
                OwnerOp::Pop => {
                    // Mirrors `TheDeque::pop_in` in fabric memory, whose
                    // pop is atomic (`Placement::ATOMIC_POP`): the
                    // enabledness check already excluded Contended.
                    let (b, t) = (self.bottom(), self.top());
                    if b == t {
                        assert_eq!(self.lock(), 0);
                        set(self, next + 1, OwnerPc::Ready);
                        return Self::out(
                            "owner: pop -> empty".to_string(),
                            Access::r(LOC_TOP | LOC_BOTTOM | LOC_LOCK),
                            OpEvent::PopDone(None),
                        );
                    }
                    let nb = b - 1;
                    let conflict = t > nb && sc.mutation != Mutation::SkipOwnerTopRecheck;
                    assert!(
                        !conflict,
                        "the fabric pop's conflict path is unreachable at event atomicity \
                         (top cannot move inside an atomic pop)"
                    );
                    self.mem.store(ti, IDX_BOTTOM, MemOrd::Relaxed, nb);
                    let slot = self.slot_of(nb);
                    let v = self.mem.latest(idx_slot(slot));
                    let fault = self.keep(v, sc);
                    set(self, next + 1, OwnerPc::Ready);
                    StepOut {
                        label: format!("owner: pop -> keeps v{v} from pos {nb}"),
                        acc: Access::rw(
                            LOC_TOP | LOC_BOTTOM | LOC_LOCK | loc_slot(slot),
                            LOC_BOTTOM,
                        ),
                        fault,
                        event: OpEvent::PopDone(Some(v)),
                    }
                }
            },
            (OwnerPc::Ready, Family::NativeOp) => match sc.owner[next] {
                OwnerOp::Push(_) => {
                    // Read indices + capacity check. `bottom` is
                    // owner-owned, so folding its read in costs nothing.
                    // `t <= b` here is a protocol theorem the checker
                    // itself establishes (the enabledness guard blocks
                    // the mutated counterexamples that break it; a stale
                    // top read is older, hence smaller, and preserves it).
                    let b = self.own_load(ti, IDX_BOTTOM, MemOrd::Relaxed);
                    let l = self.mem.load(ti, IDX_TOP, ords.push_read_top, choice);
                    let t = l.val;
                    assert!(t <= b && b - t < sc.capacity, "owner push overflow");
                    set(self, next, OwnerPc::PushIdx { b });
                    Self::out(
                        format!(
                            "owner: push reads top={t}, bottom={b} (capacity ok){}",
                            stale_tag(l, "top", self.top())
                        ),
                        Access::r(LOC_TOP | LOC_BOTTOM),
                        OpEvent::Micro,
                    )
                }
                OwnerOp::Pop => {
                    let b = self.own_load(ti, IDX_BOTTOM, MemOrd::Relaxed);
                    let l = self.mem.load(ti, IDX_TOP, ords.pop_read_top0, choice);
                    let t = l.val;
                    let tag = stale_tag(l, "top", self.top());
                    if t >= b {
                        set(self, next + 1, OwnerPc::Ready);
                        return Self::out(
                            format!("owner: pop reads top={t} >= bottom={b} -> empty{tag}"),
                            Access::r(LOC_TOP | LOC_BOTTOM),
                            OpEvent::PopDone(None),
                        );
                    }
                    set(self, next, OwnerPc::PopDec { b });
                    Self::out(
                        format!("owner: pop reads top={t}, bottom={b}{tag}"),
                        Access::r(LOC_TOP | LOC_BOTTOM),
                        OpEvent::Micro,
                    )
                }
            },
            (OwnerPc::PushIdx { b }, _) => {
                let OwnerOp::Push(v) = sc.owner[next] else {
                    unreachable!()
                };
                let slot = self.slot_of(b);
                self.mem.store(ti, idx_slot(slot), ords.push_write_slot, v);
                set(self, next, OwnerPc::PushWrote { b });
                Self::out(
                    format!("owner: push writes v{v} to slot {slot}"),
                    Access::rw(0, loc_slot(slot)),
                    OpEvent::Micro,
                )
            }
            (OwnerPc::PushWrote { b }, _) => {
                let OwnerOp::Push(v) = sc.owner[next] else {
                    unreachable!()
                };
                self.mem.store(ti, IDX_BOTTOM, ords.push_publish, b + 1);
                set(self, next + 1, OwnerPc::Ready);
                Self::out(
                    format!(
                        "owner: push publishes bottom={} ({}){}",
                        b + 1,
                        ords.push_publish.name(),
                        ord_tag(ords.push_publish, clean.push_publish)
                    ),
                    Access::rw(0, LOC_BOTTOM),
                    OpEvent::PushDone(v),
                )
            }
            (OwnerPc::PopDec { b }, _) => {
                self.mem.store(ti, IDX_BOTTOM, ords.pop_dec_bottom, b - 1);
                set(self, next, OwnerPc::PopRecheck { b });
                Self::out(
                    format!(
                        "owner: pop stores bottom={} ({}){}",
                        b - 1,
                        ords.pop_dec_bottom.name(),
                        ord_tag(ords.pop_dec_bottom, clean.pop_dec_bottom)
                    ),
                    Access::rw(0, LOC_BOTTOM),
                    OpEvent::Micro,
                )
            }
            (OwnerPc::PopRecheck { b }, _) => {
                let nb = b - 1;
                if sc.mutation == Mutation::SkipOwnerTopRecheck {
                    // Mutation: the fast path no longer consults `top`.
                    let slot = self.slot_of(nb);
                    let v = self.own_load(ti, idx_slot(slot), ords.slot_read);
                    let fault = self.keep(v, sc);
                    set(self, next + 1, OwnerPc::Ready);
                    return StepOut {
                        label: format!(
                            "owner: pop [MUTATED: no top re-check] keeps v{v} from pos {nb}"
                        ),
                        acc: Access::r(loc_slot(slot)),
                        fault,
                        event: OpEvent::PopDone(Some(v)),
                    };
                }
                let l = self.mem.load(ti, IDX_TOP, ords.pop_reread_top, choice);
                let t = l.val;
                let tag = stale_tag(l, "top", self.top());
                // The sound bound leaves the whole thief target range
                // `[t, t + batch)` alone: position nb is taken lock-free
                // only when it provably is no thief's target. The shipped
                // k = 1 protocol is the strict `t < nb`.
                // `LastEntryFastPath` restores the original `t <= nb`,
                // which also takes the last entry while a locked thief
                // may already be committed to it; `BatchNarrowOwnerBound`
                // keeps the k = 1 bound under batching.
                let sound = t + sc.batch <= nb;
                let fast = match sc.mutation {
                    Mutation::LastEntryFastPath => t <= nb,
                    Mutation::BatchNarrowOwnerBound => t < nb,
                    _ => sound,
                };
                if fast {
                    let slot = self.slot_of(nb);
                    let v = self.own_load(ti, idx_slot(slot), ords.slot_read);
                    let fault = self.keep(v, sc);
                    let mutated = if !sound {
                        match sc.mutation {
                            Mutation::LastEntryFastPath => " [MUTATED: lock-free last entry]",
                            Mutation::BatchNarrowOwnerBound => {
                                " [MUTATED: k=1 owner bound under batching]"
                            }
                            _ => unreachable!("fast beyond the sound bound needs a mutation"),
                        }
                    } else {
                        ""
                    };
                    set(self, next + 1, OwnerPc::Ready);
                    StepOut {
                        label: format!(
                            "owner: pop re-reads top={t} -> keeps v{v} lock-free{tag}{mutated}"
                        ),
                        acc: Access::r(LOC_TOP | loc_slot(slot)),
                        fault,
                        event: OpEvent::PopDone(Some(v)),
                    }
                } else {
                    set(self, next, OwnerPc::PopRestore { b });
                    Self::out(
                        format!("owner: pop re-reads top={t} -> lock arbitration{tag}"),
                        Access::r(LOC_TOP),
                        OpEvent::Micro,
                    )
                }
            }
            (OwnerPc::PopRestore { b }, _) => {
                self.mem.store(ti, IDX_BOTTOM, ords.pop_restore_bottom, b);
                set(self, next, OwnerPc::PopLock { b });
                Self::out(
                    format!("owner: pop restores bottom={b}"),
                    Access::rw(0, LOC_BOTTOM),
                    OpEvent::Micro,
                )
            }
            (OwnerPc::PopLock { b }, _) => {
                let (old, ok) = self.mem.cas(ti, IDX_LOCK, 0, 1, ords.lock_cas);
                assert!(
                    ok && old == 0,
                    "PopLock is enabled only while the lock is free"
                );
                set(self, next, OwnerPc::PopLocked { b });
                Self::out(
                    format!(
                        "owner: pop TAS acquires lock ({}){}",
                        ords.lock_cas.name(),
                        ord_tag(ords.lock_cas, clean.lock_cas)
                    ),
                    Access::rw(LOC_LOCK, LOC_LOCK),
                    OpEvent::Micro,
                )
            }
            (OwnerPc::PopLocked { b }, _) => {
                let l = self.mem.load(ti, IDX_TOP, ords.pop_locked_top, choice);
                let t = l.val;
                let tag = stale_tag(l, "top", self.top());
                if t >= b {
                    set(self, next, OwnerPc::PopUnlock { took: false });
                    Self::out(
                        format!("owner: pop locked re-read top={t} >= {b} -> thief won{tag}"),
                        Access::r(LOC_TOP),
                        OpEvent::Micro,
                    )
                } else {
                    set(self, next, OwnerPc::PopTake { b });
                    Self::out(
                        format!("owner: pop locked re-read top={t} < {b} -> take{tag}"),
                        Access::r(LOC_TOP),
                        OpEvent::Micro,
                    )
                }
            }
            (OwnerPc::PopTake { b }, _) => {
                self.mem.store(ti, IDX_BOTTOM, ords.pop_take_bottom, b - 1);
                let slot = self.slot_of(b - 1);
                let v = self.own_load(ti, idx_slot(slot), ords.slot_read);
                let fault = self.keep(v, sc);
                set(self, next, OwnerPc::PopUnlock { took: true });
                StepOut {
                    label: format!("owner: pop keeps v{v} under lock"),
                    acc: Access::rw(loc_slot(slot), LOC_BOTTOM),
                    fault,
                    event: OpEvent::PopDone(Some(v)),
                }
            }
            (OwnerPc::PopUnlock { took }, _) => {
                self.mem.store(ti, IDX_LOCK, ords.unlock, 0);
                set(self, next + 1, OwnerPc::Ready);
                let event = if took {
                    OpEvent::Micro
                } else {
                    OpEvent::PopDone(None)
                };
                Self::out(
                    format!(
                        "owner: pop releases lock ({}){}",
                        ords.unlock.name(),
                        ord_tag(ords.unlock, clean.unlock)
                    ),
                    Access::rw(0, LOC_LOCK),
                    event,
                )
            }
        }
    }

    fn thief_step(
        &mut self,
        ti: usize,
        attempts: u32,
        pc: ThiefPc,
        choice: u32,
        sc: &Scenario,
    ) -> StepOut {
        let name = format!("thief {ti}");
        let set = |s: &mut Sys, attempts_left, pc| {
            s.threads[ti] = ThreadState::Thief { attempts_left, pc };
        };
        let ords = sc.ords();
        let clean = OrdSpec::native();
        match (pc, sc.family) {
            // ---- SimPhase: one step per RDMA phase --------------------
            (ThiefPc::Idle, Family::SimPhase) => {
                let (t, b) = (self.top(), self.bottom());
                let empty = t >= b;
                if empty {
                    set(self, attempts - 1, ThiefPc::Idle);
                } else {
                    set(self, attempts, ThiefPc::SimChecked);
                }
                Self::out(
                    format!(
                        "{name}: phase1 empty-check READ top={t}, bottom={b} -> {}",
                        if empty { "empty, abort" } else { "continue" }
                    ),
                    Access::r(LOC_TOP | LOC_BOTTOM),
                    OpEvent::EmptyCheck { empty },
                )
            }
            (ThiefPc::SimChecked, Family::SimPhase) => {
                let old = self.mem.faa(ti, IDX_LOCK, 1, MemOrd::Acquire);
                let acquired = old == 0;
                if acquired {
                    set(self, attempts, ThiefPc::SimLocked);
                } else {
                    set(self, attempts - 1, ThiefPc::Idle);
                }
                Self::out(
                    format!(
                        "{name}: phase2 FAA(lock,+1) old={old} -> {}",
                        if acquired { "acquired" } else { "busy, abort" }
                    ),
                    Access::rw(LOC_LOCK, LOC_LOCK),
                    OpEvent::LockTry { acquired },
                )
            }
            (ThiefPc::SimLocked, Family::SimPhase) => {
                let (t, b) = (self.top(), self.bottom());
                if t >= b {
                    if sc.mutation == Mutation::SkipUnlockOnRacedEmpty {
                        // Mutation: the thief forgets its unlock duty.
                        set(self, attempts - 1, ThiefPc::Idle);
                        return Self::out(
                            format!("{name}: phase3 raced empty [MUTATED: unlock dropped]"),
                            Access::r(LOC_TOP | LOC_BOTTOM),
                            OpEvent::StealPhase(None),
                        );
                    }
                    set(self, attempts, ThiefPc::SimUnlockPending { stole: false });
                    return Self::out(
                        format!("{name}: phase3 READ top={t} >= bottom={b} -> raced empty"),
                        Access::r(LOC_TOP | LOC_BOTTOM),
                        OpEvent::StealPhase(None),
                    );
                }
                let slot = self.slot_of(t);
                let v = self.mem.latest(idx_slot(slot));
                self.mem.store(ti, IDX_TOP, MemOrd::Relaxed, t + 1);
                let fault = self.keep(v, sc);
                set(self, attempts, ThiefPc::SimUnlockPending { stole: true });
                StepOut {
                    label: format!(
                        "{name}: phase3 READ entry v{v} at pos {t}, WRITE top={}",
                        t + 1
                    ),
                    acc: Access::rw(LOC_TOP | LOC_BOTTOM | loc_slot(slot), LOC_TOP),
                    fault,
                    event: OpEvent::StealPhase(Some(v)),
                }
            }
            (ThiefPc::SimUnlockPending { .. }, Family::SimPhase) => {
                self.mem.store(ti, IDX_LOCK, MemOrd::Relaxed, 0);
                set(self, attempts - 1, ThiefPc::Idle);
                Self::out(
                    format!("{name}: phase4 WRITE lock=0"),
                    Access::rw(0, LOC_LOCK),
                    OpEvent::Unlock,
                )
            }
            // ---- NativeOp: one step per atomic access -----------------
            (ThiefPc::Idle, Family::NativeOp) => {
                let l = self.mem.load(ti, IDX_TOP, ords.pre_top, choice);
                let t = l.val;
                let tag = stale_tag(l, "top", self.top());
                set(self, attempts, ThiefPc::NatPre { t });
                Self::out(
                    format!("{name}: pre-check loads top={t}{tag}"),
                    Access::r(LOC_TOP),
                    OpEvent::Micro,
                )
            }
            (ThiefPc::NatPre { t }, _) => {
                let l = self.mem.load(ti, IDX_BOTTOM, ords.pre_bottom, choice);
                let b = l.val;
                let tag = stale_tag(l, "bottom", self.bottom());
                if t >= b {
                    set(self, attempts - 1, ThiefPc::Idle);
                    Self::out(
                        format!("{name}: pre-check loads bottom={b} <= top -> abort{tag}"),
                        Access::r(LOC_BOTTOM),
                        OpEvent::StealPhase(None),
                    )
                } else {
                    set(self, attempts, ThiefPc::NatCas);
                    Self::out(
                        format!("{name}: pre-check loads bottom={b} -> continue{tag}"),
                        Access::r(LOC_BOTTOM),
                        OpEvent::Micro,
                    )
                }
            }
            (ThiefPc::NatCas, _) => {
                let (_, ok) = self.mem.cas(ti, IDX_LOCK, 0, 1, ords.lock_cas);
                if ok {
                    set(self, attempts, ThiefPc::NatL1);
                    Self::out(
                        format!(
                            "{name}: CAS(lock 0->1) acquired ({}){}",
                            ords.lock_cas.name(),
                            ord_tag(ords.lock_cas, clean.lock_cas)
                        ),
                        Access::rw(LOC_LOCK, LOC_LOCK),
                        OpEvent::LockTry { acquired: true },
                    )
                } else {
                    set(self, attempts - 1, ThiefPc::Idle);
                    Self::out(
                        format!("{name}: CAS(lock) failed -> abort"),
                        Access::rw(LOC_LOCK, 0),
                        OpEvent::LockTry { acquired: false },
                    )
                }
            }
            (ThiefPc::NatL1, _) => {
                let l = self.mem.load(ti, IDX_TOP, ords.locked_top, choice);
                let t = l.val;
                let tag = stale_tag(l, "top", self.top());
                set(self, attempts, ThiefPc::NatL2 { t });
                Self::out(
                    format!("{name}: locked load top={t}{tag}"),
                    Access::r(LOC_TOP),
                    OpEvent::Micro,
                )
            }
            (ThiefPc::NatL2 { t }, _) => {
                let l = self.mem.load(ti, IDX_BOTTOM, ords.locked_bottom, choice);
                let b = l.val;
                let tag = format!(
                    "{}{}",
                    stale_tag(l, "bottom", self.bottom()),
                    ord_tag(ords.locked_bottom, clean.locked_bottom)
                );
                if t >= b {
                    if sc.mutation == Mutation::SkipUnlockOnRacedEmpty {
                        set(self, attempts - 1, ThiefPc::Idle);
                        return Self::out(
                            format!("{name}: locked empty [MUTATED: unlock dropped]"),
                            Access::r(LOC_BOTTOM),
                            OpEvent::StealPhase(None),
                        );
                    }
                    set(self, attempts, ThiefPc::NatUnlock { stole: false });
                    Self::out(
                        format!("{name}: locked load bottom={b} <= top={t} -> empty{tag}"),
                        Access::r(LOC_BOTTOM),
                        OpEvent::Micro,
                    )
                } else {
                    let k = sc.batch.min(b - t);
                    set(self, attempts, ThiefPc::NatReadSlot { t, k, i: 0 });
                    let batched = if sc.batch > 1 {
                        format!(" (batch k={k})")
                    } else {
                        String::new()
                    };
                    Self::out(
                        format!("{name}: locked load bottom={b} -> entries at pos {t}..{}{batched}{tag}", t + k),
                        Access::r(LOC_BOTTOM),
                        OpEvent::Micro,
                    )
                }
            }
            (ThiefPc::NatReadSlot { t, k, i }, _) => {
                let pos = t + i;
                let slot = self.slot_of(pos);
                // The value is kept at the read: the lock pins `top`,
                // and the owner's fast-path bound leaves positions
                // `[t, t + batch)` alone (the checker verifies that
                // claim via the double-claim invariant).
                let l = self.mem.load(ti, idx_slot(slot), ords.slot_read, choice);
                let v = l.val;
                let tag = stale_tag(l, "slot", self.slot(slot as usize));
                let fault = self.keep(v, sc);
                let next_pc = if i + 1 < k {
                    ThiefPc::NatReadSlot { t, k, i: i + 1 }
                } else {
                    ThiefPc::NatClaim { t, k }
                };
                set(self, attempts, next_pc);
                StepOut {
                    label: format!(
                        "{name}: locked read slot {slot} (pos {pos}) -> keeps v{v}{tag}"
                    ),
                    acc: Access::r(loc_slot(slot)),
                    fault,
                    event: OpEvent::Micro,
                }
            }
            (ThiefPc::NatClaim { t, k }, _) => {
                self.mem.store(ti, IDX_TOP, ords.claim_top, t + k);
                set(self, attempts, ThiefPc::NatUnlock { stole: true });
                Self::out(
                    format!(
                        "{name}: publishes claim top={} ({}){}",
                        t + k,
                        ords.claim_top.name(),
                        ord_tag(ords.claim_top, clean.claim_top)
                    ),
                    Access::rw(0, LOC_TOP),
                    OpEvent::Micro,
                )
            }
            (ThiefPc::NatUnlock { stole }, _) => {
                self.mem.store(ti, IDX_LOCK, ords.unlock, 0);
                set(self, attempts - 1, ThiefPc::Idle);
                Self::out(
                    format!(
                        "{name}: releases lock (attempt {}, {}){}",
                        if stole { "stole" } else { "failed" },
                        ords.unlock.name(),
                        ord_tag(ords.unlock, clean.unlock)
                    ),
                    Access::rw(0, LOC_LOCK),
                    OpEvent::Unlock,
                )
            }
            (pc, fam) => unreachable!("thief pc {pc:?} invalid in family {fam:?}"),
        }
    }
}

/// A violated invariant of the deque. Checked on every reachable state
/// and transition:
///
/// 1. **No double claim** — a value is kept at most once (owner pop and
///    thief steal never both win an entry; two thieves never both win).
/// 2. **Slack bound** — `top <= bottom + 1` (the transient `bottom =
///    top - 1` dip inside a pop is the only allowed overshoot).
/// 3. **Capacity bound** — `bottom - top <= capacity`.
/// 4. **Lock discipline** — at quiescence the lock word is 0; a wedged
///    system (some thread not done, none enabled) is reported as stuck,
///    which is how a leaked lock manifests mid-run.
/// 5. **Conservation** — at quiescence every pushed value was either
///    kept exactly once or still sits in `[top, bottom)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A value was kept twice (pop/steal or steal/steal double claim).
    DoubleClaim {
        /// The twice-claimed value.
        value: u64,
    },
    /// A consumer kept a value that was never pushed in the explored
    /// window — a stale slot read that escaped (possible only when a
    /// publication edge is broken, e.g. the `push-publish-weak`
    /// mutation).
    PhantomValue {
        /// The never-pushed value that was kept.
        value: u64,
    },
    /// A pushed value was neither kept nor left in the deque.
    LostValue {
        /// The missing value.
        value: u64,
    },
    /// All threads finished but the lock word is nonzero.
    LockLeak {
        /// Final lock word.
        lock: u64,
    },
    /// `top > bottom + 1`.
    SlackExceeded {
        /// Observed top.
        top: u64,
        /// Observed bottom.
        bottom: u64,
    },
    /// `bottom - top > capacity`.
    OverCapacity {
        /// Observed live count.
        live: u64,
        /// Scenario capacity.
        capacity: u64,
    },
    /// Some thread still has work but no thread can step (e.g. the owner
    /// spinning on a lock nobody will ever release).
    Stuck,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::DoubleClaim { value } => {
                write!(f, "double claim: value v{value} was kept by two consumers")
            }
            ViolationKind::PhantomValue { value } => write!(
                f,
                "phantom task: a consumer kept v{value}, which was never pushed \
                 (stale slot read)"
            ),
            ViolationKind::LostValue { value } => {
                write!(f, "lost task: value v{value} was pushed but never delivered")
            }
            ViolationKind::LockLeak { lock } => {
                write!(f, "lock leak: all threads done but lock word = {lock}")
            }
            ViolationKind::SlackExceeded { top, bottom } => write!(
                f,
                "index slack violated: top={top}, bottom={bottom} exceed the family's transient bound"
            ),
            ViolationKind::OverCapacity { live, capacity } => write!(
                f,
                "capacity violated: {live} live entries in a {capacity}-slot deque"
            ),
            ViolationKind::Stuck => write!(
                f,
                "stuck: unfinished threads but no enabled step (wedged on the lock)"
            ),
        }
    }
}

impl Scenario {
    fn all_done(&self, sys: &Sys) -> bool {
        (0..sys.threads.len()).all(|t| sys.done(t, self))
    }

    /// A step's trace label: what it did, then the shared words after it.
    fn label(next: &Sys, out: &StepOut) -> String {
        format!(
            "{:<58} [lock={} top={} bottom={}]",
            out.label,
            next.lock(),
            next.top(),
            next.bottom()
        )
    }
}

impl Protocol for Scenario {
    type State = Sys;
    type Fault = ViolationKind;
    type Tally = SleepSets;

    fn name(&self) -> &'static str {
        self.name
    }

    fn start(&self) -> Sys {
        Sys::initial(self)
    }

    /// The owner, then each thief.
    fn actors(&self) -> usize {
        1 + self.thieves.len()
    }

    /// The reads-from choices of the thread's pending load (one under SC
    /// or for a store or RMW), if it is enabled.
    fn moves(&self, sys: &Sys, t: usize) -> Vec<u32> {
        if !sys.enabled(t, self) {
            return Vec::new();
        }
        let choices = sys
            .pending_load(t, self)
            .map_or(1, |(loc, ord)| sys.mem.load_choices(t, loc, ord));
        (0..choices).collect()
    }

    fn step(
        &self,
        sys: &mut Sys,
        t: usize,
        choice: u32,
        _: &mut SleepSets,
    ) -> (String, Option<ViolationKind>) {
        let out = sys.step(t, choice, self);
        (Self::label(sys, &out), out.fault)
    }

    fn check(&self, sys: &Sys) -> Option<ViolationKind> {
        // Tight per-family slack bounds, proved by the exploration
        // itself: at phase atomicity indices never cross (`top <=
        // bottom`); at per-access granularity a thief's claim published
        // against a pre-dip `bottom` can overlap the victim's
        // speculative bottom dip (-1, always restored), so `top <=
        // bottom + 1` transiently and anything beyond is a bug.
        let slack = match self.family {
            Family::SimPhase => 0,
            Family::NativeOp => 1,
        };
        let (top, bottom) = (sys.top(), sys.bottom());
        if top > bottom + slack {
            return Some(ViolationKind::SlackExceeded { top, bottom });
        }
        (bottom > top && bottom - top > self.capacity).then(|| ViolationKind::OverCapacity {
            live: bottom - top,
            capacity: self.capacity,
        })
    }

    fn terminal(&self, sys: &Sys) -> Option<ViolationKind> {
        if !self.all_done(sys) {
            return Some(ViolationKind::Stuck);
        }
        let (top, bottom) = (sys.top(), sys.bottom());
        if sys.lock() != 0 {
            return Some(ViolationKind::LockLeak { lock: sys.lock() });
        }
        // Transient overshoot must be rolled back by quiescence.
        if top > bottom {
            return Some(ViolationKind::SlackExceeded { top, bottom });
        }
        let remaining: Vec<u64> = (top..bottom)
            .map(|p| sys.slot((p % sys.capacity()) as usize))
            .collect();
        self.owner.iter().find_map(|op| match *op {
            OwnerOp::Push(value)
                if !sys.consumed.contains(&value) && !remaining.contains(&value) =>
            {
                Some(ViolationKind::LostValue { value })
            }
            _ => None,
        })
    }
}

/// What the sleep-set walk adds to the deque's [`Report`]; the exhaustive
/// walk leaves it empty.
#[derive(Debug, Default)]
pub struct SleepSets {
    /// Prefixes cut because every enabled step was asleep.
    pub pruned: u64,
    /// Every complete schedule walked (the thread of each step), for
    /// differential replay.
    pub schedules: Vec<Vec<usize>>,
}

impl Scenario {
    /// Stateless DFS with sleep sets (Godefroid) over the read/write
    /// footprints in [`Access`], plus the stutter pruning built into
    /// [`Sys::enabled`] (spin/retry steps are disabled until they can make
    /// progress). It walks concrete complete executions, which the
    /// differential replay consumes, and the suite cross-checks that it
    /// reaches exactly the quiescent states the exhaustive explorer does.
    /// SC only: a footprint is a step's, not a reads-from choice's.
    pub fn sleep_sets(&self) -> Report<Scenario> {
        assert_eq!(
            self.mem_model,
            MemModel::Sc,
            "sleep sets assume choice-free steps; RA scenarios are \
             explored exhaustively"
        );
        let mut ex = Explorer::new(self);
        ex.sleep_walk(&Sys::initial(self), &[], &mut Vec::new());
        ex.report
    }
}

impl Explorer<'_, Scenario> {
    fn sleep_walk(&mut self, sys: &Sys, sleep: &[(usize, Access)], sched: &mut Vec<usize>) {
        let sc = self.p;
        if self.report.violation.is_some() {
            return;
        }
        let enabled: Vec<usize> = (0..sc.actors()).filter(|&t| sys.enabled(t, sc)).collect();
        if enabled.is_empty() {
            if sc.all_done(sys) {
                self.report.interleavings += 1;
                self.report.tally.schedules.push(sched.clone());
            }
            self.end(sys);
            return;
        }
        let explore: Vec<usize> = enabled
            .into_iter()
            .filter(|t| !sleep.iter().any(|(u, _)| u == t))
            .collect();
        if explore.is_empty() {
            // Every enabled step is asleep: all continuations from here
            // are commutations of interleavings explored elsewhere.
            self.report.tally.pruned += 1;
            return;
        }
        let mut done_here: Vec<(usize, Access)> = Vec::new();
        for t in explore {
            if self.report.violation.is_some() {
                break;
            }
            let mut next = sys.clone();
            let out = next.step(t, 0, sc);
            self.record(&next, Scenario::label(&next, &out), out.fault);
            sched.push(t);
            if self.report.violation.is_none() {
                // A sleeping thread stays asleep only across steps that
                // are independent of it; its own footprint is unchanged
                // by such steps, so the recorded Access stays valid.
                let new_sleep: Vec<(usize, Access)> = sleep
                    .iter()
                    .chain(done_here.iter())
                    .filter(|(u, acc)| *u != t && acc.independent(out.acc))
                    .cloned()
                    .collect();
                self.sleep_walk(&next, &new_sleep, sched);
            }
            self.path.pop();
            sched.pop();
            done_here.push((t, out.acc));
        }
    }
}
