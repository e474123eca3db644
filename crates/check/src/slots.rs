//! The free-slot supply of the multiprocess runtime (`uat_fiber`'s
//! `mpruntime`: the slot pool, one cache per worker in front of it, and
//! the raid — DESIGN.md [I22]) on the [`Mem`] machine, under SC and
//! release/acquire.
//!
//! Each worker allocates from and frees to its own cache on a fast path
//! with no read-modify-write: a Relaxed store raises the cache's `busy`,
//! only a compiler fence separates it from an Acquire load of the shared
//! `raid` word, and if no raid is on the cache is popped or pushed with
//! plain accesses and `busy` cleared with a Release store. A cache that is
//! empty (alloc) or full (free), or a raid seen, sends the worker to the
//! slow path: `busy` cleared, the pool's lock taken, the cache refilled
//! from the pool or spilled to it. A worker whose cache and the pool are
//! both empty raids, under the pool lock: it stores `raid = 1`, issues
//! one `membarrier` ([`Mem::membarrier`]), waits until every other
//! cache's `busy` reads 0, takes the older half of the fullest cache, and
//! stores `raid = 0` (Release). If it found nothing the pool is declared
//! exhausted. The asymmetric Dekker handshake — a store then a load on
//! each side, only the raider's side fenced — is what this model is for.
//!
//! The modelled system is three workers on one pool, every one running
//! the same code: each cache is one word holding its whole stack (slot
//! numbers packed four bits each, oldest lowest), so a stale read of the
//! word is a stale stack; the runtime keeps a length and an array, written
//! under the same exclusion. Two shapes: three slots with the pool empty,
//! so the third worker's allocation must raid, and a fullest cache of one
//! can make an exhaustion verdict false; and four slots with a full cache
//! that spills, so the pool is also refilled from.
//!
//! Invariants, checked on every transition: every slot is in exactly one
//! of the pool, a cache, or a worker's hands (conservation); no slot is
//! handed out while someone holds it; the pool is declared exhausted only
//! when every slot is held; and no state short of every worker finishing
//! is stuck (no deadlock). [`SlotMutation`]s seed six ways to break them.
//!
//! A [`Protocol`] whose actors are the three workers.

use crate::explore::{Protocol, Seeded};
use crate::memory::{Mem, MemModel, MemOrd};
use std::fmt;

const LOCK: usize = 0;
const POOL: usize = 1;
const RAID: usize = 2;
const BUSY: [usize; WORKERS] = [3, 4, 5];
const CACHE: [usize; WORKERS] = [6, 7, 8];
const LOC_NAMES: [&str; 9] = [
    "pool.busy",
    "pool",
    "raid",
    "busy[0]",
    "busy[1]",
    "busy[2]",
    "cache[0]",
    "cache[1]",
    "cache[2]",
];
const WORKERS: usize = 3;
/// Entries a cache holds at most: twice the batch, as in the runtime.
const CAP: usize = 2 * BATCH;
/// Slots a refill takes from the pool and a spill gives back.
const BATCH: usize = 1;

/// A seeded regression of the slot supply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotMutation {
    /// The protocol as shipped.
    None,
    /// The raider does not issue the `membarrier`: both sides of the
    /// handshake may read the other's flag stale. Visible only under RA.
    SkipMembarrier,
    /// The owner loads `raid` before it raises `busy`.
    RaidBeforeBusy,
    /// The raider does not wait for `busy == 0`.
    NoBusyWait,
    /// The owner clears `busy` Relaxed: a raider that reads it clear is
    /// not shown the cache the owner just wrote. Visible only under RA.
    BusyClearRelaxed,
    /// The slow path does not take the pool lock.
    SkipPoolLock,
    /// The raid takes `len / 2` instead of `len.div_ceil(2)`: a fullest
    /// cache of one gives nothing, and the pool is declared exhausted
    /// with a slot free.
    RaidFloorHalf,
}

impl Seeded for SlotMutation {
    const SEEDED: &'static [(Self, &'static str)] = &[
        (SlotMutation::SkipMembarrier, "slots-skip-membarrier"),
        (SlotMutation::RaidBeforeBusy, "slots-raid-before-busy"),
        (SlotMutation::NoBusyWait, "slots-no-busy-wait"),
        (SlotMutation::BusyClearRelaxed, "slots-busy-clear-relaxed"),
        (SlotMutation::SkipPoolLock, "slots-skip-pool-lock"),
        (SlotMutation::RaidFloorHalf, "slots-raid-floor-half"),
    ];
    const WEAK: &'static [Self] = &[SlotMutation::SkipMembarrier, SlotMutation::BusyClearRelaxed];
}

/// The slots and programs a scenario starts from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Slots 1–3: cache 0 holds `[1]`, cache 1 `[2, 3]`, the pool and
    /// cache 2 nothing; every worker allocates one slot and frees it.
    Raid,
    /// Slots 1–4: as [`Shape::Raid`], but worker 1 starts holding slot 4
    /// and frees it into its full cache before allocating — a spill, and
    /// so a pool that a later refill takes from.
    SpillRefill,
}

/// What a worker does next in its program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Op {
    Alloc,
    Free,
}

impl Shape {
    fn programs(self) -> [&'static [Op]; WORKERS] {
        const AF: &[Op] = &[Op::Alloc, Op::Free];
        match self {
            Shape::Raid => [AF, AF, AF],
            Shape::SpillRefill => [AF, &[Op::Free, Op::Alloc], AF],
        }
    }

    /// Initial (pool, caches, held) stacks.
    fn start(self) -> (Stack, [Stack; WORKERS], [Stack; WORKERS]) {
        let caches = [Stack::of(&[1]), Stack::of(&[2, 3]), Stack::EMPTY];
        let held = match self {
            Shape::Raid => Stack::EMPTY,
            Shape::SpillRefill => Stack::of(&[4]),
        };
        (Stack::EMPTY, caches, [Stack::EMPTY, held, Stack::EMPTY])
    }

    fn slots(self) -> u64 {
        match self {
            Shape::Raid => 3,
            Shape::SpillRefill => 4,
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
    /// Starting slots and programs.
    pub shape: Shape,
    /// Seeded regression, or [`SlotMutation::None`].
    pub mutation: SlotMutation,
}

/// Both shapes under `mem_model`, with `mutation` seeded.
pub fn suite(mem_model: MemModel, mutation: SlotMutation) -> [Scenario; 2] {
    let names = match mem_model {
        MemModel::Sc => ["slots/raid", "slots/spill-refill"],
        MemModel::Ra => ["ra/slots-raid", "ra/slots-spill-refill"],
    };
    let shapes = [Shape::Raid, Shape::SpillRefill];
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
    /// Operations completed on the fast path.
    pub fast: u64,
    /// Fast paths that found a raid on and left for the slow path.
    pub raided: u64,
    /// Raids that took at least one slot.
    pub raids: u64,
}

/// A LIFO of slot numbers (1..=15), four bits each, oldest in the low
/// bits: a whole cache or pool in one word.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Stack(u64);

impl Stack {
    const EMPTY: Stack = Stack(0);

    fn of(slots: &[u64]) -> Stack {
        slots.iter().fold(Stack::EMPTY, |s, &x| s.push(x))
    }

    fn len(self) -> usize {
        (0..16)
            .take_while(|i| (self.0 >> (4 * i)) & 0xF != 0)
            .count()
    }

    fn slots(self) -> impl Iterator<Item = u64> {
        (0..self.len()).map(move |i| (self.0 >> (4 * i)) & 0xF)
    }

    fn push(self, slot: u64) -> Stack {
        Stack(self.0 | slot << (4 * self.len()))
    }

    /// `(the rest, the newest)`.
    fn pop(self) -> Option<(Stack, u64)> {
        let n = self.len().checked_sub(1)?;
        Some((Stack(self.0 & !(0xF << (4 * n))), self.0 >> (4 * n)))
    }

    /// `(the rest, the n oldest)`.
    fn oldest(self, n: usize) -> (Stack, Stack) {
        let mask = (1u64 << (4 * n)) - 1;
        (Stack(self.0 >> (4 * n)), Stack(self.0 & mask))
    }

    /// `(the rest, the n newest)`.
    fn newest(self, n: usize) -> (Stack, Stack) {
        let keep = self.len() - n;
        let mask = (1u64 << (4 * keep)) - 1;
        (Stack(self.0 & mask), Stack(self.0 >> (4 * keep)))
    }

    /// `top` stacked on `self`, in its order.
    fn with(self, top: Stack) -> Stack {
        Stack(self.0 | top.0 << (4 * self.len()))
    }
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.slots()).finish()
    }
}

/// A worker's next step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Step {
    /// Fast path: `busy := 1` (Relaxed).
    Raise,
    /// Fast path: load `raid` (Acquire).
    LoadRaid,
    /// Fast path: load the own cache.
    LoadOwn,
    /// Fast path: store the own cache as `new` — `slot` popped from it
    /// (alloc) or pushed onto it (free).
    Update { new: Stack, slot: u64 },
    /// Fast path done: `busy := 0` (Release).
    Lower,
    /// Fast path abandoned: `busy := 0` (Release), then the slow path.
    Bail,
    /// Slow path: take the pool lock.
    Lock,
    /// Slow path: load the own cache.
    SlowLoad,
    /// Slow path: store the own cache, as [`Step::Update`].
    SlowUpdate { new: Stack, slot: u64 },
    /// A full cache: store it as `rest`; the worker carries its oldest
    /// `batch` to the pool.
    Spill { rest: Stack, batch: Stack },
    /// Load the pool, to refill from it or spill to it.
    LoadPool,
    /// Store the pool as `new`; the worker then carries `carry`.
    StorePool { new: Stack, carry: Stack },
    /// Store what the worker carries as its (empty) cache.
    Fill,
    /// Raid: `raid := 1` (Relaxed).
    RaidOn,
    /// Raid: the `membarrier`.
    Membarrier,
    /// Raid: spin until worker `v`'s `busy` reads 0 (Acquire).
    Wait(usize),
    /// Raid: load worker `v`'s cache.
    Peek(usize),
    /// Raid: store the fullest cache without its older half.
    Take,
    /// Raid over: `raid := 0` (Release).
    RaidOff,
    /// Release the pool lock; the operation is done.
    Unlock,
    /// Nothing found anywhere: release the lock, declare the pool
    /// exhausted and give the run up.
    GiveUp,
    /// The program is over, or the run given up.
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Worker {
    pc: usize,
    step: Step,
    /// The slots the worker has allocated, oldest first.
    held: Stack,
    /// Slots on their way between two stacks, in the worker's hands.
    carry: Stack,
    /// The fast path's read of `raid`, when it loads it before raising
    /// `busy` ([`SlotMutation::RaidBeforeBusy`]).
    raid: u64,
    /// The raid's fullest cache so far, and what it read there.
    fullest: Option<(usize, Stack)>,
}

/// Memory and the workers' control states.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Sys {
    mem: Mem,
    workers: [Worker; WORKERS],
}

/// One actor's step in progress: the counters it bumps and the first
/// invariant it breaks.
struct Turn<'a> {
    sc: &'a Scenario,
    tally: &'a mut Tally,
    fault: Option<String>,
}

/// The newest slot of a non-empty stack.
fn top(s: Stack) -> u64 {
    s.pop().expect("a free has a slot to free").1
}

/// The worker after `v` (or the first, for `None`) other than `w`.
fn peer_after(w: usize, v: Option<usize>) -> Option<usize> {
    (v.map_or(0, |v| v + 1)..WORKERS).find(|&p| p != w)
}

impl Scenario {
    fn mutated(&self, m: SlotMutation) -> bool {
        self.mutation == m
    }

    /// Start worker `w`'s next operation (or finish its program).
    fn begin(&self, sys: &mut Sys, w: usize) {
        let wk = &mut sys.workers[w];
        wk.raid = 0;
        wk.step = if wk.pc == self.shape.programs()[w].len() {
            Step::Done
        } else if self.mutated(SlotMutation::RaidBeforeBusy) {
            Step::LoadRaid
        } else {
            Step::Raise
        };
    }

    fn next_op(&self, sys: &mut Sys, w: usize) {
        sys.workers[w].pc += 1;
        self.begin(sys, w);
    }

    /// The slow path starts with the pool lock — unless mutated away.
    fn slow(&self) -> Step {
        if self.mutated(SlotMutation::SkipPoolLock) {
            Step::SlowLoad
        } else {
            Step::Lock
        }
    }

    /// A slow-path operation is done: release the lock it took.
    fn unlock(&self, sys: &mut Sys, w: usize) {
        if self.mutated(SlotMutation::SkipPoolLock) {
            self.next_op(sys, w);
        } else {
            sys.workers[w].step = Step::Unlock;
        }
    }

    /// The raid's first wait — or, mutated, its first look.
    fn first_wait(&self, w: usize) -> Step {
        let v = peer_after(w, None).expect("three workers");
        if self.mutated(SlotMutation::NoBusyWait) {
            Step::Peek(v)
        } else {
            Step::Wait(v)
        }
    }

    /// The load `w`'s next step performs, if it is one.
    fn load_of(&self, sys: &Sys, w: usize) -> Option<(usize, MemOrd)> {
        Some(match sys.workers[w].step {
            Step::LoadRaid => (RAID, MemOrd::Acquire),
            Step::LoadOwn | Step::SlowLoad => (CACHE[w], MemOrd::Relaxed),
            Step::LoadPool => (POOL, MemOrd::Relaxed),
            Step::Wait(v) => (BUSY[v], MemOrd::Acquire),
            Step::Peek(v) => (CACHE[v], MemOrd::Relaxed),
            _ => return None,
        })
    }

    /// Where each slot is not held: the pool, the caches, the workers'
    /// hands in transit.
    fn unheld(&self, sys: &Sys) -> Vec<(u64, String)> {
        let words = [POOL, CACHE[0], CACHE[1], CACHE[2]];
        let in_words = words.into_iter().flat_map(|loc| {
            Stack(sys.mem.latest(loc))
                .slots()
                .map(move |s| (s, LOC_NAMES[loc].to_string()))
        });
        let carried = sys.workers.iter().enumerate().flat_map(|(w, wk)| {
            wk.carry
                .slots()
                .map(move |s| (s, format!("worker {w}'s hands")))
        });
        in_words.chain(carried).collect()
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
        let (pool, caches, held) = self.shape.start();
        let mut init = vec![0; LOC_NAMES.len()];
        init[POOL] = pool.0;
        for w in 0..WORKERS {
            init[CACHE[w]] = caches[w].0;
        }
        let mut sys = Sys {
            mem: Mem::new(self.mem_model, init, WORKERS),
            workers: std::array::from_fn(|w| Worker {
                pc: 0,
                step: Step::Done,
                held: held[w],
                carry: Stack::EMPTY,
                raid: 0,
                fullest: None,
            }),
        };
        for w in 0..WORKERS {
            self.begin(&mut sys, w);
        }
        sys
    }

    fn actors(&self) -> usize {
        WORKERS
    }

    /// A load branches over every message its ordering permits; a wait
    /// is a spin, which only a read of 0 ends; the lock is a
    /// compare-and-swap on the latest value, which only 0 lets through.
    fn moves(&self, sys: &Sys, w: usize) -> Vec<u32> {
        let free = |loc: usize| sys.mem.latest(loc) == 0;
        match (sys.workers[w].step, self.load_of(sys, w)) {
            (Step::Done, _) => vec![],
            (Step::Lock, _) => {
                if free(LOCK) {
                    vec![0]
                } else {
                    vec![]
                }
            }
            (Step::Wait(_), Some((loc, ord))) => (0..sys.mem.load_choices(w, loc, ord))
                .filter(|&c| sys.mem.peek(w, loc, ord, c) == 0)
                .collect(),
            (_, Some((loc, ord))) => (0..sys.mem.load_choices(w, loc, ord)).collect(),
            (_, None) => vec![0],
        }
    }

    fn step(
        &self,
        sys: &mut Sys,
        w: usize,
        choice: u32,
        tally: &mut Tally,
    ) -> (String, Option<String>) {
        let mut turn = Turn {
            sc: self,
            tally,
            fault: None,
        };
        let label = turn.take(sys, w, choice);
        (label, turn.fault)
    }

    /// Conservation: every slot in exactly one of the pool, a cache, or
    /// a worker's hands.
    fn check(&self, sys: &Sys) -> Option<String> {
        let mut at: Vec<Vec<String>> = vec![Vec::new(); self.shape.slots() as usize + 1];
        for (s, place) in self.unheld(sys) {
            at[s as usize].push(place);
        }
        for (w, wk) in sys.workers.iter().enumerate() {
            for s in wk.held.slots() {
                at[s as usize].push(format!("held by worker {w}"));
            }
        }
        let (s, places) = at.iter().enumerate().skip(1).find(|(_, p)| p.len() != 1)?;
        Some(format!("slot {s} is in {} places {places:?}", places.len()))
    }

    /// No deadlock: a state where nobody can step has every worker done.
    fn terminal(&self, sys: &Sys) -> Option<String> {
        sys.workers.iter().any(|wk| wk.step != Step::Done).then(|| {
            let at = sys.workers.map(|wk| wk.step);
            format!("deadlock: no worker can step (at {at:?})")
        })
    }

    fn vacuous(&self, tally: &Tally) -> Option<&'static str> {
        if tally.raids == 0 || tally.raided == 0 {
            Some("no raid ever met a fast path")
        } else if tally.fast == 0 {
            Some("no fast path completed")
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

    /// The fast path has both raised `busy` and read `raid`.
    fn decide(&mut self, raid: u64) -> Step {
        if raid == 0 {
            return Step::LoadOwn;
        }
        self.tally.raided += 1;
        Step::Bail
    }

    /// Worker `w` allocates `slot`: nobody may be holding it.
    fn hand_out(&mut self, sys: &mut Sys, w: usize, slot: u64) {
        if let Some(o) = (0..WORKERS).find(|&o| sys.workers[o].held.slots().any(|s| s == slot)) {
            self.violate(format!(
                "slot {slot} is handed to worker {w} while worker {o} holds it"
            ));
        }
        sys.workers[w].held = sys.workers[w].held.push(slot);
    }

    /// Execute worker `w`'s next step (`choice` picks what a load reads)
    /// and describe it.
    fn take(&mut self, sys: &mut Sys, w: usize, choice: u32) -> String {
        let who = format!("worker {w}");
        let op = self.sc.shape.programs()[w][sys.workers[w].pc];
        let read = |sys: &mut Sys, loc: usize, ord: MemOrd| {
            let out = sys.mem.load(w, loc, ord, choice);
            let stale = if out.stale { ", stale" } else { "" };
            let val = out.val;
            (val, format!("{}{stale}", ord.name()))
        };
        let clear = if self.sc.mutated(SlotMutation::BusyClearRelaxed) {
            MemOrd::Relaxed
        } else {
            MemOrd::Release
        };
        let step = sys.workers[w].step;
        match step {
            Step::Raise => {
                sys.mem.store(w, BUSY[w], MemOrd::Relaxed, 1);
                sys.workers[w].step = if self.sc.mutated(SlotMutation::RaidBeforeBusy) {
                    self.decide(sys.workers[w].raid)
                } else {
                    Step::LoadRaid
                };
                format!("{who}: {op:?} fast path: busy[{w}] := 1 (Relaxed)")
            }
            Step::LoadRaid => {
                let (raid, how) = read(sys, RAID, MemOrd::Acquire);
                sys.workers[w].raid = raid;
                sys.workers[w].step = if self.sc.mutated(SlotMutation::RaidBeforeBusy) {
                    Step::Raise
                } else {
                    self.decide(raid)
                };
                format!("{who}: reads raid = {raid} ({how})")
            }
            Step::LoadOwn | Step::SlowLoad => {
                let (v, how) = read(sys, CACHE[w], MemOrd::Relaxed);
                let (v, wk) = (Stack(v), &mut sys.workers[w]);
                let fast = step == Step::LoadOwn;
                let update = |new, slot| {
                    if fast {
                        Step::Update { new, slot }
                    } else {
                        Step::SlowUpdate { new, slot }
                    }
                };
                wk.step = match (op, v.pop()) {
                    (Op::Alloc, Some((new, slot))) => update(new, slot),
                    (Op::Alloc, None) if fast => Step::Bail,
                    (Op::Alloc, None) => Step::LoadPool,
                    (Op::Free, _) if v.len() < CAP => update(v.push(top(wk.held)), top(wk.held)),
                    (Op::Free, _) if fast => Step::Bail,
                    (Op::Free, _) => {
                        let (rest, batch) = v.oldest(BATCH);
                        Step::Spill { rest, batch }
                    }
                };
                format!("{who}: reads cache[{w}] = {v:?} ({how})")
            }
            Step::Update { new, slot } | Step::SlowUpdate { new, slot } => {
                sys.mem.store(w, CACHE[w], MemOrd::Relaxed, new.0);
                let did = match op {
                    Op::Alloc => {
                        self.hand_out(sys, w, slot);
                        "takes"
                    }
                    Op::Free => {
                        let wk = &mut sys.workers[w];
                        wk.held = wk.held.pop().expect("a free has a slot to free").0;
                        "frees"
                    }
                };
                if let Step::Update { .. } = step {
                    sys.workers[w].step = Step::Lower;
                } else {
                    self.sc.unlock(sys, w);
                }
                format!("{who}: cache[{w}] := {new:?} (Relaxed): {did} slot {slot}")
            }
            Step::Lower | Step::Bail => {
                sys.mem.store(w, BUSY[w], clear, 0);
                let then = if step == Step::Lower {
                    self.tally.fast += 1;
                    self.sc.next_op(sys, w);
                    "fast path done"
                } else {
                    sys.workers[w].step = self.sc.slow();
                    "to the slow path"
                };
                format!("{who}: busy[{w}] := 0 ({}), {then}", clear.name())
            }
            Step::Lock => {
                let (_, won) = sys.mem.cas(w, LOCK, 0, 1, MemOrd::Acquire);
                debug_assert!(won, "enabled only while the lock is free");
                sys.workers[w].step = Step::SlowLoad;
                format!("{who}: takes the pool lock (Acquire)")
            }
            Step::Spill { rest, batch } => {
                sys.mem.store(w, CACHE[w], MemOrd::Relaxed, rest.0);
                sys.workers[w].carry = batch;
                sys.workers[w].step = Step::LoadPool;
                format!("{who}: cache[{w}] := {rest:?} (Relaxed): spills {batch:?}")
            }
            Step::LoadPool => {
                let (p, how) = read(sys, POOL, MemOrd::Relaxed);
                let (p, wk) = (Stack(p), &mut sys.workers[w]);
                wk.step = match op {
                    Op::Free => Step::StorePool {
                        new: p.with(wk.carry),
                        carry: Stack::EMPTY,
                    },
                    Op::Alloc if p.len() > 0 => {
                        let (new, carry) = p.newest(p.len().min(BATCH));
                        Step::StorePool { new, carry }
                    }
                    Op::Alloc => Step::RaidOn,
                };
                format!("{who}: reads pool = {p:?} ({how})")
            }
            Step::StorePool { new, carry } => {
                sys.mem.store(w, POOL, MemOrd::Relaxed, new.0);
                let wk = &mut sys.workers[w];
                wk.carry = carry;
                wk.step = match op {
                    Op::Free => Step::SlowLoad,
                    Op::Alloc => Step::Fill,
                };
                format!("{who}: pool := {new:?} (Relaxed)")
            }
            Step::Fill => {
                let wk = &mut sys.workers[w];
                let carry = std::mem::replace(&mut wk.carry, Stack::EMPTY);
                wk.step = Step::SlowLoad;
                sys.mem.store(w, CACHE[w], MemOrd::Relaxed, carry.0);
                format!("{who}: cache[{w}] := {carry:?} (Relaxed)")
            }
            Step::RaidOn => {
                sys.mem.store(w, RAID, MemOrd::Relaxed, 1);
                sys.workers[w].step = if self.sc.mutated(SlotMutation::SkipMembarrier) {
                    self.sc.first_wait(w)
                } else {
                    Step::Membarrier
                };
                format!("{who}: cache and pool empty, raids: raid := 1 (Relaxed)")
            }
            Step::Membarrier => {
                sys.mem.membarrier(w);
                sys.workers[w].step = self.sc.first_wait(w);
                format!("{who}: membarrier")
            }
            Step::Wait(v) => {
                let (busy, how) = read(sys, BUSY[v], MemOrd::Acquire);
                debug_assert_eq!(busy, 0, "a wait ends only on a read of 0");
                sys.workers[w].step = match peer_after(w, Some(v)) {
                    Some(next) => Step::Wait(next),
                    None => Step::Peek(peer_after(w, None).expect("three workers")),
                };
                format!("{who}: reads busy[{v}] = 0 ({how})")
            }
            Step::Peek(v) => {
                let (s, how) = read(sys, CACHE[v], MemOrd::Relaxed);
                let (s, wk) = (Stack(s), &mut sys.workers[w]);
                if wk.fullest.is_none_or(|(_, f)| s.len() >= f.len()) {
                    wk.fullest = Some((v, s));
                }
                wk.step = peer_after(w, Some(v)).map_or(Step::Take, Step::Peek);
                format!("{who}: reads cache[{v}] = {s:?} ({how})")
            }
            Step::Take => {
                let wk = &mut sys.workers[w];
                let (v, s) = wk.fullest.take().expect("a raid looked at a peer");
                wk.step = Step::RaidOff;
                let n = if self.sc.mutated(SlotMutation::RaidFloorHalf) {
                    s.len() / 2
                } else {
                    s.len().div_ceil(2)
                };
                if n == 0 {
                    return format!("{who}: the fullest cache, cache[{v}], gives nothing");
                }
                let (rest, taken) = s.oldest(n);
                wk.carry = taken;
                sys.mem.store(w, CACHE[v], MemOrd::Relaxed, rest.0);
                self.tally.raids += 1;
                format!("{who}: cache[{v}] := {rest:?} (Relaxed): takes {taken:?}")
            }
            Step::RaidOff => {
                sys.mem.store(w, RAID, MemOrd::Release, 0);
                let wk = &mut sys.workers[w];
                wk.step = if wk.carry.len() > 0 {
                    Step::Fill
                } else {
                    Step::GiveUp
                };
                format!("{who}: raid := 0 (Release)")
            }
            Step::Unlock => {
                sys.mem.store(w, LOCK, MemOrd::Release, 0);
                self.sc.next_op(sys, w);
                format!("{who}: releases the pool lock (Release)")
            }
            Step::GiveUp => {
                if !self.sc.mutated(SlotMutation::SkipPoolLock) {
                    sys.mem.store(w, LOCK, MemOrd::Release, 0);
                }
                sys.workers[w].step = Step::Done;
                let label = format!("{who}: declares the pool exhausted");
                if let Some((s, place)) = self.sc.unheld(sys).into_iter().next() {
                    self.violate(format!(
                        "the pool is declared exhausted with slot {s} free in {place}"
                    ));
                }
                label
            }
            Step::Done => unreachable!("a finished worker does not step"),
        }
    }
}
