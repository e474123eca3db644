//! The join protocol (`uat_fiber`'s `join::JoinBlock` as both real
//! runtimes drive it, DESIGN.md \[I16\] and \[I21\]) on the [`Mem`] machine,
//! under SC and release/acquire.
//!
//! One joiner task owns one block — `pending` (a count plus the
//! `PARKED` bit) and `waiter` — and spawns children child-first, each on
//! the worker the joiner runs on. A child publishes the joiner's
//! continuation as one deque entry (a Release store, the deque's
//! publication edge), writes its result, and at exit claims that entry
//! back; an idle worker may claim it first. Exactly one claim wins — a
//! compare-and-swap on the entry word stands in for the THE
//! arbitration, which is the deque model's job. Then, as the runtimes do
//! it:
//!
//! - the child that claimed its parent resumes it on its own worker and
//!   touches nothing of the block; the joiner, back on the worker it
//!   spawned from, counts nothing;
//! - a joiner resumed by a thief — on another worker — `announce`s the
//!   child (Relaxed `fetch_add`); that child, its claim lost,
//!   `complete`s (`fetch_sub`, AcqRel) and, reading `PARKED | 1`, loads
//!   `waiter`, clears `pending` and resumes the joiner itself;
//! - at `JoinAll` the joiner passes on an Acquire `pending == 0`, or
//!   hands its continuation to its worker's scheduler, which stores
//!   `waiter` and `fetch_add`s `PARKED` (AcqRel) — reading 0, it clears
//!   `pending` and resumes the joiner inline.
//!
//! Invariants: every continuation is resumed exactly once; the joiner
//! passes a `JoinAll` only with every child's result visible to it;
//! nothing touches the block once the joiner has left the frame it lives
//! in; no terminal state has a parked joiner. [`JoinMutation`]s seed six
//! ways to break them.
//!
//! A [`Protocol`] of five actors: the joiner (with its worker's
//! scheduler), child 0, child 1, and an idle worker 0 or 1 stealing the
//! joiner's continuation.

use crate::explore::{Protocol, Seeded};
use crate::memory::{Mem, MemModel, MemOrd};

const PENDING: usize = 0;
const WAITER: usize = 1;
const ENTRY: [usize; 2] = [2, 3];
const RESULT: [usize; 2] = [4, 5];
const LOCS: usize = 6;
const WORKERS: usize = 2;

/// `pending`'s parked bit, as in the runtime.
const PARKED: u64 = 1 << 63;
/// An entry word: published by the child, then claimed by one side.
const PUSHED: u64 = 1;
const TAKEN: u64 = 2;

/// A seeded regression of the join protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinMutation {
    /// The protocol as shipped.
    None,
    /// A spawner resumed by a thief does not `announce` the child.
    SkipAnnounce,
    /// A child that claimed its parent back still `complete`s.
    InlineCompletes,
    /// The scheduler's `fetch_add(PARKED)` `AcqRel -> Relaxed`: the
    /// `waiter` store is no longer published to the last child. Visible
    /// only under RA.
    ParkWeak,
    /// `complete`'s `fetch_sub` `AcqRel -> Relaxed`: the child's result
    /// is no longer published to the joiner. Visible only under RA.
    CompleteWeak,
    /// `complete` reads `waiter` after its decrement whatever it saw —
    /// the use-after-scope of the two-word protocol this one replaced.
    WaiterUnguarded,
    /// The last child takes the waiter but leaves `PARKED` set.
    KeepParked,
}

impl Seeded for JoinMutation {
    const SEEDED: &'static [(Self, &'static str)] = &[
        (JoinMutation::SkipAnnounce, "join-skip-announce"),
        (JoinMutation::InlineCompletes, "join-inline-completes"),
        (JoinMutation::ParkWeak, "join-park-weak"),
        (JoinMutation::CompleteWeak, "join-complete-weak"),
        (JoinMutation::WaiterUnguarded, "join-waiter-unguarded"),
        (JoinMutation::KeepParked, "join-keep-parked"),
    ];
    const WEAK: &'static [Self] = &[JoinMutation::ParkWeak, JoinMutation::CompleteWeak];
}

/// One step of the joiner's own program.
#[derive(Clone, Copy, Debug)]
enum JOp {
    Spawn(usize),
    JoinAll,
}

/// What the joiner does with its block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Spawn one child, join it.
    OneChild,
    /// Spawn two, join both: when the first spawn is stolen, the second
    /// runs on the thief, so an inline child and a counted one can
    /// share the block — and the count can wrap below zero.
    TwoChildren,
    /// Spawn, join, spawn, join: one block reused for two rounds.
    TwoRounds,
}

impl Shape {
    fn program(self) -> &'static [JOp] {
        match self {
            Shape::OneChild => &[JOp::Spawn(0), JOp::JoinAll],
            Shape::TwoChildren => &[JOp::Spawn(0), JOp::Spawn(1), JOp::JoinAll],
            Shape::TwoRounds => &[JOp::Spawn(0), JOp::JoinAll, JOp::Spawn(1), JOp::JoinAll],
        }
    }
}

/// One closed system to explore.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Report name.
    pub name: &'static str,
    /// Memory semantics.
    pub mem_model: MemModel,
    /// The joiner's program.
    pub shape: Shape,
    /// Seeded regression, or [`JoinMutation::None`].
    pub mutation: JoinMutation,
}

/// The three shapes under `mem_model`, with `mutation` seeded.
pub fn suite(mem_model: MemModel, mutation: JoinMutation) -> [Scenario; 3] {
    let names = match mem_model {
        MemModel::Sc => ["join/one-child", "join/two-children", "join/two-rounds"],
        MemModel::Ra => [
            "ra/join-one-child",
            "ra/join-two-children",
            "ra/join-two-rounds",
        ],
    };
    let shapes = [Shape::OneChild, Shape::TwoChildren, Shape::TwoRounds];
    std::array::from_fn(|i| Scenario {
        name: names[i],
        mem_model,
        shape: shapes[i],
        mutation,
    })
}

/// What a clean scenario must show it did.
#[derive(Debug, Default)]
pub struct Tally {
    /// `JoinAll`s passed.
    pub passes: u64,
    /// Parked joiners resumed by the last child.
    pub handed_out: u64,
    /// Decrements that took `pending` below zero (a stolen child
    /// completing before its thief announced it).
    pub wraps: u64,
}

/// Where the joiner's continuation is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum At {
    /// Running on worker `w`.
    Running(usize),
    /// Resumed by a thief on worker `w`; its `announce` is next.
    Announcing(usize),
    /// Child `k`'s deque entry.
    InDeque(usize),
    /// Handed to worker `w`'s scheduler, whose `waiter` store is next.
    HandedOver(usize),
    /// `waiter` stored; the scheduler's `fetch_add(PARKED)` is next.
    Parking(usize),
    /// Every child had gone: the scheduler clears `pending` and resumes
    /// the joiner on `w`.
    Unparking(usize),
    /// Parked, `waiter` holding this token.
    Parked(u64),
    /// Left the frame the block lives in.
    Left,
}

/// What a live child does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum KStep {
    Write,
    Claim,
    /// `popped`: the child holds its parent's continuation.
    Complete {
        popped: bool,
    },
    ReadWaiter {
        handed: bool,
        popped: bool,
    },
    Clear {
        waiter: u64,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kid {
    Unborn,
    Live { on: usize, step: KStep },
    Done,
}

/// Memory, the joiner's program counter and continuation, and the
/// children.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Sys {
    mem: Mem,
    /// The joiner's next program step, and where its continuation is.
    pc: usize,
    at: At,
    kids: [Kid; 2],
}

/// Who takes a step.
#[derive(Clone, Copy)]
enum Actor {
    Joiner,
    Kid(usize),
    Thief(usize),
}

/// The actors, in the order the explorer numbers them.
const ACTORS: [Actor; 5] = [
    Actor::Joiner,
    Actor::Kid(0),
    Actor::Kid(1),
    Actor::Thief(0),
    Actor::Thief(1),
];

/// One actor's step in progress: the counters it bumps and the first
/// invariant it breaks.
struct Turn<'a> {
    sc: &'a Scenario,
    tally: &'a mut Tally,
    fault: Option<String>,
}

/// The worker the joiner occupies, if it is running (or its scheduler
/// is working for it).
fn joiner_on(at: At) -> Option<usize> {
    match at {
        At::Running(w)
        | At::Announcing(w)
        | At::HandedOver(w)
        | At::Parking(w)
        | At::Unparking(w) => Some(w),
        At::InDeque(_) | At::Parked(_) | At::Left => None,
    }
}

impl Scenario {
    fn ord(&self, shipped: MemOrd, weak: JoinMutation) -> MemOrd {
        if self.mutation == weak {
            MemOrd::Relaxed
        } else {
            shipped
        }
    }

    /// Whether the actor can step from `sys`.
    fn can_step(&self, sys: &Sys, actor: Actor) -> bool {
        match actor {
            Actor::Joiner => joiner_on(sys.at).is_some(),
            Actor::Kid(k) => matches!(sys.kids[k], Kid::Live { .. }),
            Actor::Thief(w) => match sys.at {
                At::InDeque(k) => {
                    sys.mem.latest(ENTRY[k]) == PUSHED
                        && !sys
                            .kids
                            .iter()
                            .any(|kid| matches!(kid, Kid::Live { on, .. } if *on == w))
                }
                _ => false,
            },
        }
    }

    /// The load the actor's next step performs, if it is one.
    fn load_of(&self, sys: &Sys, actor: Actor) -> Option<(usize, usize, MemOrd)> {
        match actor {
            Actor::Joiner => match (sys.at, self.shape.program().get(sys.pc)) {
                (At::Running(w), Some(JOp::JoinAll)) => Some((w, PENDING, MemOrd::Acquire)),
                _ => None,
            },
            Actor::Kid(k) => match sys.kids[k] {
                Kid::Live {
                    on,
                    step: KStep::ReadWaiter { .. },
                } => Some((on, WAITER, MemOrd::Relaxed)),
                _ => None,
            },
            Actor::Thief(_) => None,
        }
    }

    /// The joiner's continuation is resumed on `on`, where it last
    /// spawned from `from`: a thief's resume announces the child.
    fn resume(&self, sys: &mut Sys, on: usize, from: usize) {
        sys.at = if on != from && self.mutation != JoinMutation::SkipAnnounce {
            At::Announcing(on)
        } else {
            At::Running(on)
        };
    }

    /// Child `k`'s exit without a waiter: back to the parent it popped,
    /// or to its scheduler.
    fn finish(&self, sys: &mut Sys, k: usize, popped: bool) {
        let Kid::Live { on, .. } = sys.kids[k] else {
            unreachable!("only a live child finishes")
        };
        sys.kids[k] = Kid::Done;
        if popped {
            self.resume(sys, on, on);
        }
    }
}

impl Protocol for Scenario {
    type State = Sys;
    type Fault = String;
    type Tally = Tally;

    fn name(&self) -> &'static str {
        self.name
    }

    fn start(&self) -> Sys {
        Sys {
            mem: Mem::new(self.mem_model, vec![0; LOCS], WORKERS),
            pc: 0,
            at: At::Running(0),
            kids: [Kid::Unborn; 2],
        }
    }

    fn actors(&self) -> usize {
        ACTORS.len()
    }

    /// Under RA a load branches over every message its ordering permits;
    /// anything else, and any step under SC, has one outcome.
    fn moves(&self, sys: &Sys, a: usize) -> Vec<u32> {
        let actor = ACTORS[a];
        if !self.can_step(sys, actor) {
            return Vec::new();
        }
        let choices = self
            .load_of(sys, actor)
            .map_or(1, |(w, loc, ord)| sys.mem.load_choices(w, loc, ord));
        (0..choices).collect()
    }

    fn step(
        &self,
        sys: &mut Sys,
        a: usize,
        choice: u32,
        tally: &mut Tally,
    ) -> (String, Option<String>) {
        let mut turn = Turn {
            sc: self,
            tally,
            fault: None,
        };
        let label = match ACTORS[a] {
            Actor::Joiner => turn.joiner_step(sys, choice),
            Actor::Kid(k) => turn.kid_step(sys, k, choice),
            Actor::Thief(t) => {
                let At::InDeque(k) = sys.at else {
                    unreachable!("a thief steps only on a published entry")
                };
                let Kid::Live { on, .. } = sys.kids[k] else {
                    unreachable!("the entry's child is still running")
                };
                let (_, won) = sys.mem.cas(t, ENTRY[k], PUSHED, TAKEN, MemOrd::AcqRel);
                debug_assert!(won, "enabled only on a published entry");
                self.resume(sys, t, on);
                format!("worker {t}: steals the joiner's continuation from entry[{k}]")
            }
        };
        (label, turn.fault)
    }

    fn terminal(&self, sys: &Sys) -> Option<String> {
        match sys.at {
            At::Left => None,
            At::Parked(tok) => Some(format!(
                "the joiner is parked (waiter {tok}) and no child is left to resume it"
            )),
            at => Some(format!("no step is possible, joiner at {at:?}")),
        }
    }

    fn vacuous(&self, tally: &Tally) -> Option<&'static str> {
        if tally.passes == 0 {
            Some("no join ever passed")
        } else if tally.handed_out == 0 {
            Some("no parked joiner was handed out")
        } else if tally.wraps == 0 {
            Some("the count never wrapped")
        } else {
            None
        }
    }
}

impl Turn<'_> {
    /// Keep the step's first broken invariant.
    fn violate(&mut self, what: String) {
        self.fault.get_or_insert(what);
    }

    /// A child touches the block: only while the joiner's frame exists.
    fn touch(&mut self, sys: &Sys, k: usize) {
        if sys.at == At::Left {
            self.violate(format!(
                "child {k} touches the join block after the joiner left the frame it lives in"
            ));
        }
    }

    /// The joiner passes the `JoinAll` at `pc`, on worker `w`: every
    /// child spawned before it must have written its result, visibly.
    fn pass(&mut self, sys: &mut Sys, w: usize) {
        let spawned = self.sc.shape.program()[..sys.pc]
            .iter()
            .filter(|op| matches!(op, JOp::Spawn(_)))
            .count();
        for (k, &loc) in RESULT.iter().enumerate().take(spawned) {
            if sys.mem.latest(loc) != 1 || sys.mem.load_choices(w, loc, MemOrd::Relaxed) != 1 {
                self.violate(format!(
                    "the joiner passes a JoinAll on worker {w} without child {k}'s result \
                     visible to it (result[{k}] latest = {})",
                    sys.mem.latest(loc)
                ));
            }
        }
        self.tally.passes += 1;
        sys.pc += 1;
        sys.at = if sys.pc == self.sc.shape.program().len() {
            At::Left
        } else {
            At::Running(w)
        };
    }

    fn joiner_step(&mut self, sys: &mut Sys, choice: u32) -> String {
        let token = sys.pc as u64 + 1;
        match sys.at {
            At::Running(w) => match self.sc.shape.program()[sys.pc] {
                JOp::Spawn(k) => {
                    sys.mem.store(w, ENTRY[k], MemOrd::Release, PUSHED);
                    sys.kids[k] = Kid::Live {
                        on: w,
                        step: KStep::Write,
                    };
                    sys.at = At::InDeque(k);
                    sys.pc += 1;
                    format!(
                        "worker {w}: joiner spawns child {k}, which publishes the joiner \
                         (entry[{k}] := pushed, Release)"
                    )
                }
                JOp::JoinAll => {
                    let out = sys.mem.load(w, PENDING, MemOrd::Acquire, choice);
                    let stale = if out.stale { ", stale" } else { "" };
                    let label = format!(
                        "worker {w}: joiner's JoinAll reads pending = {} (Acquire{stale})",
                        show(out.val)
                    );
                    if out.val == 0 {
                        self.pass(sys, w);
                        return format!("{label} and passes");
                    }
                    sys.at = At::HandedOver(w);
                    format!("{label}, hands its continuation to the scheduler")
                }
            },
            At::Announcing(w) => {
                let old = sys.mem.faa(w, PENDING, 1, MemOrd::Relaxed);
                sys.at = At::Running(w);
                format!(
                    "worker {w}: joiner, resumed by a thief, announces: pending.fetch_add(1) \
                     reads {} (Relaxed)",
                    show(old)
                )
            }
            At::HandedOver(w) => {
                sys.mem.store(w, WAITER, MemOrd::Relaxed, token);
                sys.at = At::Parking(w);
                format!("worker {w}: scheduler stores waiter := {token} (Relaxed)")
            }
            At::Parking(w) => {
                let ord = self.sc.ord(MemOrd::AcqRel, JoinMutation::ParkWeak);
                let old = sys.mem.faa(w, PENDING, PARKED, ord);
                let label = format!(
                    "worker {w}: scheduler's pending.fetch_add(PARKED) reads {} ({})",
                    show(old),
                    ord.name()
                );
                if old != 0 {
                    sys.at = At::Parked(token);
                    return format!("{label}: parked");
                }
                sys.at = At::Unparking(w);
                format!("{label}: every child had gone")
            }
            At::Unparking(w) => {
                sys.mem.store(w, PENDING, MemOrd::Relaxed, 0);
                let label = format!(
                    "worker {w}: scheduler clears pending := 0 (Relaxed), resumes the joiner"
                );
                self.pass(sys, w);
                format!("{label}, which passes")
            }
            at => unreachable!("the joiner does not step at {at:?}"),
        }
    }

    fn kid_step(&mut self, sys: &mut Sys, k: usize, choice: u32) -> String {
        let Kid::Live { on: w, step } = sys.kids[k] else {
            unreachable!("only a live child steps")
        };
        let who = format!("worker {w}: child {k}");
        let next = |sys: &mut Sys, step| {
            sys.kids[k] = Kid::Live { on: w, step };
        };
        match step {
            KStep::Write => {
                sys.mem.store(w, RESULT[k], MemOrd::Relaxed, 1);
                next(sys, KStep::Claim);
                format!("{who} writes result[{k}] := 1 (Relaxed)")
            }
            KStep::Claim => {
                let (_, won) = sys.mem.cas(w, ENTRY[k], PUSHED, TAKEN, MemOrd::AcqRel);
                if !won {
                    next(sys, KStep::Complete { popped: false });
                    return format!("{who} exits; its pop finds entry[{k}] stolen");
                }
                let label = format!("{who} exits; its pop claims entry[{k}], its parent");
                if self.sc.mutation == JoinMutation::InlineCompletes {
                    next(sys, KStep::Complete { popped: true });
                    return label;
                }
                sys.kids[k] = Kid::Done;
                self.sc.resume(sys, w, w);
                format!("{label}, and resumes it")
            }
            KStep::Complete { popped } => {
                let ord = self.sc.ord(MemOrd::AcqRel, JoinMutation::CompleteWeak);
                let old = sys.mem.faa(w, PENDING, 1u64.wrapping_neg(), ord);
                let label = format!(
                    "{who} completes: pending.fetch_sub(1) reads {} ({})",
                    show(old),
                    ord.name()
                );
                self.touch(sys, k);
                if old & !PARKED == 0 {
                    self.tally.wraps += 1;
                }
                let handed = old == PARKED | 1;
                if handed || self.sc.mutation == JoinMutation::WaiterUnguarded {
                    next(sys, KStep::ReadWaiter { handed, popped });
                } else {
                    self.sc.finish(sys, k, popped);
                }
                label
            }
            KStep::ReadWaiter { handed, popped } => {
                let out = sys.mem.load(w, WAITER, MemOrd::Relaxed, choice);
                let stale = if out.stale { ", stale" } else { "" };
                let label = format!("{who} reads waiter = {} (Relaxed{stale})", out.val);
                self.touch(sys, k);
                if !handed {
                    self.sc.finish(sys, k, popped);
                } else if self.sc.mutation == JoinMutation::KeepParked {
                    return self.resume_waiter(sys, k, out.val, &label);
                } else {
                    next(sys, KStep::Clear { waiter: out.val });
                }
                label
            }
            KStep::Clear { waiter } => {
                sys.mem.store(w, PENDING, MemOrd::Relaxed, 0);
                let label = format!("{who} clears pending := 0 (Relaxed)");
                self.touch(sys, k);
                self.resume_waiter(sys, k, waiter, &label)
            }
        }
    }

    /// Child `k` resumes the continuation `waiter` names, on its worker
    /// (the step `label` describes so far): it must be the joiner, parked
    /// with exactly that token.
    fn resume_waiter(&mut self, sys: &mut Sys, k: usize, waiter: u64, label: &str) -> String {
        let Kid::Live { on, .. } = sys.kids[k] else {
            unreachable!("only a live child resumes")
        };
        sys.kids[k] = Kid::Done;
        let label = format!("{label}, resumes waiter {waiter}");
        if sys.at != At::Parked(waiter) {
            self.violate(format!(
                "child {k} resumes continuation {waiter}, which is not parked (joiner at {:?})",
                sys.at
            ));
            return label;
        }
        self.tally.handed_out += 1;
        self.pass(sys, on);
        format!("{label}: the joiner passes")
    }
}

/// `pending` as the small count it is, negative once wrapped, with the
/// parked bit named.
fn show(v: u64) -> String {
    let near = |base: u64| Some(v.wrapping_sub(base) as i64).filter(|d| d.unsigned_abs() < 8);
    match (near(0), near(PARKED)) {
        (Some(d), _) => d.to_string(),
        (_, Some(d)) if d >= 0 => format!("PARKED|{d}"),
        (_, Some(d)) => format!("PARKED{d}"),
        _ => format!("{v:#x}"),
    }
}
