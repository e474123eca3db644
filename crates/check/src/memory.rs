//! The shared-memory subsystem under the model: sequential consistency
//! or C11-style release/acquire ("ra") semantics, selectable per
//! scenario.
//!
//! PR 3's explorer interleaved *steps* but kept one authoritative value
//! per shared word — sequential consistency. `NativeDeque` actually runs
//! on `Relaxed`/`Acquire`/`Release`/`SeqCst` atomics, and the behaviors
//! those orderings permit beyond SC are exactly where the next
//! double-claim hides. This module closes that gap with an operational
//! *view-based* weak memory in the style of the promising/view machines
//! (Kang et al., POPL'17, minus promises — we never need speculative
//! stores for release/acquire):
//!
//! - every store appends a **message** `(value, view)` to its location's
//!   modification order (a per-location history);
//! - every thread carries a **view**: for each location, the lowest
//!   timestamp it is still allowed to read (its coherence floor);
//! - a **load** may read *any* message at or above the thread's floor —
//!   this reads-from choice is the extra nondeterminism the explorer
//!   branches on. Reading raises the floor to the message read.
//!   `Acquire` (and `SeqCst`) loads additionally join the message's view
//!   into the thread's view — the synchronizes-with edge;
//! - a `Release` (and `SeqCst`) store records the storing thread's whole
//!   view in its message; a `Relaxed` store records only its own
//!   timestamp, so reading it transfers nothing;
//! - an **RMW** is atomic in modification order: it always reads the
//!   *latest* message and appends immediately after it. Its message
//!   inherits the view of the message it read from (C11 release
//!   sequences: an acquire read of any RMW in the sequence synchronizes
//!   with the head), joined with the updating thread's view only when
//!   the success ordering has release semantics;
//! - `SeqCst` accesses additionally maintain a per-location **SC floor**:
//!   an SC store records its timestamp in `sc[loc]`, and an SC load may
//!   not read below it. This makes SC accesses to the *same* pair of
//!   locations pairwise sequentially consistent in execution order —
//!   the store-buffering/Dekker guarantee the THE protocol's
//!   store-`bottom`-then-load-`top` handshake relies on — while leaving
//!   everything weaker exactly as weak as release/acquire allows.
//!
//! Two deliberate modeling decisions, documented because they bound what
//! the explorer can conclude (see DESIGN.md §11):
//!
//! - **Modification order = store execution order.** A store always
//!   appends at the end of its location's history; the explorer's
//!   interleaving enumeration covers every arrival order, but a store
//!   can never be inserted *between* existing messages. For the THE
//!   words this loses nothing: `bottom` has a single writer (the owner),
//!   `top` writers are serialized by the lock, and the lock word is
//!   RMW-or-release-store only — all cases where C11's modification
//!   order coincides with some execution order the explorer already
//!   enumerates.
//! - **Plain (non-atomic) accesses are modeled as `Relaxed`.** The model
//!   checks *values*, not UB: a racy slot read shows up as a stale value
//!   (caught by the conservation/phantom invariants), not as undefined
//!   behavior. The UB side of the same hazard is covered by Miri and the
//!   ThreadSanitizer CI job.

/// Memory ordering of one access, mirroring `std::sync::atomic::Ordering`
/// at the sites `NativeDeque` actually uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemOrd {
    /// `Ordering::Relaxed`.
    Relaxed,
    /// `Ordering::Acquire` (loads / CAS success).
    Acquire,
    /// `Ordering::Release` (stores).
    Release,
    /// `Ordering::AcqRel` (read-modify-writes).
    AcqRel,
    /// `Ordering::SeqCst`.
    SeqCst,
}

impl MemOrd {
    fn acquires(self) -> bool {
        matches!(self, MemOrd::Acquire | MemOrd::AcqRel | MemOrd::SeqCst)
    }

    fn releases(self) -> bool {
        matches!(self, MemOrd::Release | MemOrd::AcqRel | MemOrd::SeqCst)
    }

    /// Stable name for traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            MemOrd::Relaxed => "Relaxed",
            MemOrd::Acquire => "Acquire",
            MemOrd::Release => "Release",
            MemOrd::AcqRel => "AcqRel",
            MemOrd::SeqCst => "SeqCst",
        }
    }
}

/// Which memory semantics a scenario explores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemModel {
    /// Sequential consistency: one authoritative value per word (the
    /// PR 3 semantics; orderings are ignored).
    Sc,
    /// Release/acquire + relaxed + per-location SC floors: loads branch
    /// over every message their ordering permits.
    Ra,
}

impl MemModel {
    /// Stable CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            MemModel::Sc => "sc",
            MemModel::Ra => "ra",
        }
    }
}

/// One store's record in a location's modification order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Msg {
    val: u64,
    /// The view this message transfers to acquire readers: at minimum
    /// its own `{loc: ts}`, the full storing-thread view for release
    /// stores, the read-from message's view for RMWs.
    view: Vec<u32>,
}

/// Result of one load.
#[derive(Clone, Copy, Debug)]
pub struct LoadOut {
    /// The value read.
    pub val: u64,
    /// True if a newer message existed (the read was stale) — used only
    /// to annotate counterexample traces.
    pub stale: bool,
}

fn join(dst: &mut [u32], src: &[u32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

/// Weak-memory state: per-location histories, per-thread views, and the
/// per-location SC floor.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WeakMem {
    /// `hist[loc]` is the modification order of location `loc`; index =
    /// timestamp. `hist[loc][0]` is the initial (pre-scenario) value.
    hist: Vec<Vec<Msg>>,
    /// `views[thread][loc]` = lowest timestamp the thread may read.
    views: Vec<Vec<u32>>,
    /// `sc[loc]` = timestamp of the latest `SeqCst` store to `loc`;
    /// an additional floor for `SeqCst` loads.
    sc: Vec<u32>,
}

/// The shared memory of one explored system.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Mem {
    /// Sequential consistency: latest value per location.
    Sc(Vec<u64>),
    /// Release/acquire view machine.
    Weak(WeakMem),
}

impl Mem {
    /// Fresh memory with `init` as every location's (already published)
    /// initial value. In `Ra` mode the initial state is fully
    /// synchronized: scenario prologues run before any thief attaches,
    /// exactly like the runtime's deque construction happens-before its
    /// worker threads starting.
    pub fn new(model: MemModel, init: Vec<u64>, threads: usize) -> Mem {
        match model {
            MemModel::Sc => Mem::Sc(init),
            MemModel::Ra => {
                let n = init.len();
                Mem::Weak(WeakMem {
                    hist: init
                        .into_iter()
                        .map(|v| {
                            vec![Msg {
                                val: v,
                                view: vec![0; n],
                            }]
                        })
                        .collect(),
                    views: vec![vec![0; n]; threads],
                    sc: vec![0; n],
                })
            }
        }
    }

    /// Number of locations.
    pub fn locs(&self) -> usize {
        match self {
            Mem::Sc(vals) => vals.len(),
            Mem::Weak(w) => w.hist.len(),
        }
    }

    /// Which model this memory runs.
    pub fn model(&self) -> MemModel {
        match self {
            Mem::Sc(_) => MemModel::Sc,
            Mem::Weak(_) => MemModel::Ra,
        }
    }

    /// The newest value of `loc` (the authoritative state for invariant
    /// checks, which are claims about modification order, not views).
    pub fn latest(&self, loc: usize) -> u64 {
        match self {
            Mem::Sc(vals) => vals[loc],
            Mem::Weak(w) => w.hist[loc].last().expect("nonempty history").val,
        }
    }

    fn floor(w: &WeakMem, th: usize, loc: usize, ord: MemOrd) -> u32 {
        let mut f = w.views[th][loc];
        if ord == MemOrd::SeqCst {
            f = f.max(w.sc[loc]);
        }
        f
    }

    /// How many distinct messages a load of `loc` by `th` at `ord` may
    /// read (1 under SC). The explorer branches over `0..choices`.
    pub fn load_choices(&self, th: usize, loc: usize, ord: MemOrd) -> u32 {
        match self {
            Mem::Sc(_) => 1,
            Mem::Weak(w) => w.hist[loc].len() as u32 - Self::floor(w, th, loc, ord),
        }
    }

    /// Perform the load, reading message `floor + choice` (so `choice`
    /// ranges over `0..load_choices(..)`; under SC it must be 0).
    pub fn load(&mut self, th: usize, loc: usize, ord: MemOrd, choice: u32) -> LoadOut {
        match self {
            Mem::Sc(vals) => {
                assert_eq!(choice, 0, "SC loads have exactly one choice");
                LoadOut {
                    val: vals[loc],
                    stale: false,
                }
            }
            Mem::Weak(w) => {
                let ts = Self::floor(w, th, loc, ord) + choice;
                let last = w.hist[loc].len() as u32 - 1;
                assert!(ts <= last, "load choice out of range");
                let msg = &w.hist[loc][ts as usize];
                let val = msg.val;
                if ord.acquires() {
                    let view = msg.view.clone();
                    join(&mut w.views[th], &view);
                }
                w.views[th][loc] = w.views[th][loc].max(ts);
                LoadOut {
                    val,
                    stale: ts < last,
                }
            }
        }
    }

    /// The value [`load`](Self::load) with these arguments would return,
    /// without performing it (a spin-wait's model asks which choices end
    /// the spin).
    pub fn peek(&self, th: usize, loc: usize, ord: MemOrd, choice: u32) -> u64 {
        match self {
            Mem::Sc(vals) => vals[loc],
            Mem::Weak(w) => w.hist[loc][(Self::floor(w, th, loc, ord) + choice) as usize].val,
        }
    }

    /// Append a store.
    pub fn store(&mut self, th: usize, loc: usize, ord: MemOrd, val: u64) {
        match self {
            Mem::Sc(vals) => vals[loc] = val,
            Mem::Weak(w) => {
                let ts = w.hist[loc].len() as u32;
                let view = if ord.releases() {
                    let mut v = w.views[th].clone();
                    v[loc] = ts;
                    v
                } else {
                    let mut v = vec![0; w.sc.len()];
                    v[loc] = ts;
                    v
                };
                w.hist[loc].push(Msg { val, view });
                w.views[th][loc] = ts;
                if ord == MemOrd::SeqCst {
                    w.sc[loc] = ts;
                }
            }
        }
    }

    /// Compare-and-swap: atomically reads the *latest* message (RMWs
    /// cannot read stale) and, if it equals `expect`, appends `new`
    /// immediately after it in modification order. Returns
    /// `(old, succeeded)`. `succ` is the success ordering (`Acquire` for
    /// the deque's lock; the failure ordering is `Relaxed`, which an
    /// RMW's mandatory latest-read already subsumes).
    pub fn cas(
        &mut self,
        th: usize,
        loc: usize,
        expect: u64,
        new: u64,
        succ: MemOrd,
    ) -> (u64, bool) {
        match self {
            Mem::Sc(vals) => {
                let old = vals[loc];
                if old == expect {
                    vals[loc] = new;
                }
                (old, old == expect)
            }
            Mem::Weak(w) => {
                let last = w.hist[loc].len() as u32 - 1;
                let old_msg = w.hist[loc][last as usize].clone();
                let old = old_msg.val;
                if old != expect {
                    // Failure: a relaxed load of the latest message.
                    w.views[th][loc] = w.views[th][loc].max(last);
                    return (old, false);
                }
                let ts = last + 1;
                // Release-sequence continuation: the new message carries
                // the view of the message it displaced, so an acquire
                // read of this (or any later RMW in the chain) still
                // synchronizes with the sequence head.
                let mut view = old_msg.view;
                view[loc] = ts;
                if succ.releases() {
                    let tv = w.views[th].clone();
                    join(&mut view, &tv);
                    view[loc] = ts;
                }
                if succ.acquires() {
                    let v = view.clone();
                    join(&mut w.views[th], &v);
                }
                w.hist[loc].push(Msg { val: new, view });
                w.views[th][loc] = ts;
                if succ == MemOrd::SeqCst {
                    w.sc[loc] = ts;
                }
                (old, true)
            }
        }
    }

    /// Wrapping fetch-and-add, same atomicity rules as
    /// [`cas`](Self::cas) (`add.wrapping_neg()` subtracts): the
    /// `SimPhase` machine's lock FAA (SC mode, linearized at its issue
    /// instant) and the join block's counter.
    pub fn faa(&mut self, th: usize, loc: usize, add: u64, ord: MemOrd) -> u64 {
        let old = self.latest(loc);
        let (got, ok) = self.cas(th, loc, old, old.wrapping_add(add), ord);
        debug_assert!(ok && got == old, "faa read the latest by construction");
        old
    }

    /// `membarrier(2)` issued by `th`: every other thread behaves as if it
    /// had executed a full fence at that instant. `th`'s view absorbs
    /// every thread's — whatever any of them stored or read before is
    /// visible to `th` from here on — and every thread's view absorbs
    /// `th`'s as it was at the call. The others do not absorb each other:
    /// the kernel's barriers land on their CPUs at different instants, so
    /// only the edges to and from the caller are promised. A no-op under
    /// SC, where every load already reads the latest store.
    pub fn membarrier(&mut self, th: usize) {
        if let Mem::Weak(w) = self {
            let before = w.views[th].clone();
            let mut all = before.clone();
            for v in w.views.iter_mut() {
                join(&mut all, v);
                join(v, &before);
            }
            w.views[th] = all;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: usize = 0; // flag-ish location
    const D: usize = 1; // data location

    fn ra(threads: usize) -> Mem {
        Mem::new(MemModel::Ra, vec![0, 0], threads)
    }

    /// Message passing with release/acquire works: after reading the
    /// flag=1 release store with acquire, the data read is pinned fresh.
    #[test]
    fn release_acquire_publishes() {
        let mut m = ra(2);
        m.store(0, D, MemOrd::Relaxed, 42);
        m.store(0, L, MemOrd::Release, 1);
        // Reader: acquire-load the flag, choosing the new message.
        assert_eq!(m.load_choices(1, L, MemOrd::Acquire), 2);
        let f = m.load(1, L, MemOrd::Acquire, 1);
        assert_eq!(f.val, 1);
        // The data floor rose with the join: only 42 is readable.
        assert_eq!(m.load_choices(1, D, MemOrd::Relaxed), 1);
        assert_eq!(m.load(1, D, MemOrd::Relaxed, 0).val, 42);
    }

    /// With a relaxed flag store, the reader may still read stale data —
    /// the weak behavior SC hides.
    #[test]
    fn relaxed_store_transfers_nothing() {
        let mut m = ra(2);
        m.store(0, D, MemOrd::Relaxed, 42);
        m.store(0, L, MemOrd::Relaxed, 1);
        let f = m.load(1, L, MemOrd::Acquire, 1);
        assert_eq!(f.val, 1);
        // Both the initial 0 and the 42 are readable: stale is possible.
        assert_eq!(m.load_choices(1, D, MemOrd::Relaxed), 2);
        let stale = m.load(1, D, MemOrd::Relaxed, 0);
        assert_eq!(stale.val, 0);
        assert!(stale.stale);
    }

    /// Store-buffering (Dekker): with SeqCst on all four accesses, at
    /// least one thread must see the other's store regardless of
    /// interleaving — here the second loader is forced fresh by the SC
    /// floor.
    #[test]
    fn seqcst_dekker_floor() {
        let mut m = ra(2);
        m.store(0, L, MemOrd::SeqCst, 1); // thread 0: L := 1
        m.store(1, D, MemOrd::SeqCst, 1); // thread 1: D := 1
                                          // Thread 0 loads D: the SC floor forces the fresh value.
        assert_eq!(m.load_choices(0, D, MemOrd::SeqCst), 1);
        assert_eq!(m.load(0, D, MemOrd::SeqCst, 0).val, 1);
        // Downgrade demo: a Relaxed load could still read stale.
        assert_eq!(m.load_choices(1, L, MemOrd::Relaxed), 2);
    }

    /// A release-headed sequence survives an interposed RMW: acquiring
    /// the lock after a relaxed unlock transfers nothing, after a release
    /// unlock everything.
    #[test]
    fn rmw_continues_release_sequence() {
        let mut m = ra(3);
        m.store(0, D, MemOrd::Relaxed, 7);
        m.store(0, L, MemOrd::Release, 0); // release unlock (head)
        let (old, ok) = m.cas(1, L, 0, 1, MemOrd::Acquire);
        assert!(ok && old == 0);
        // Thread 1 synchronized with the head: data floor is fresh.
        assert_eq!(m.load_choices(1, D, MemOrd::Relaxed), 1);
        // Thread 2 acquire-reads the RMW's message (choice 2: the newest
        // of {init, unlock, cas}): also synchronized (release sequence),
        // even though thread 1's CAS wasn't release.
        let f = m.load(2, L, MemOrd::Acquire, 2);
        assert_eq!(f.val, 1);
        assert_eq!(m.load_choices(2, D, MemOrd::Relaxed), 1);
    }

    /// An AcqRel RMW does both halves: it publishes what its thread
    /// wrote before it, and shows what the RMW it read published — and
    /// a wrapping subtract below zero is one more message.
    #[test]
    fn acqrel_rmw_acquires_and_releases() {
        let mut m = ra(3);
        m.store(0, D, MemOrd::Relaxed, 7);
        assert_eq!(m.faa(0, L, 1u64.wrapping_neg(), MemOrd::AcqRel), 0);
        // Thread 1's RMW reads thread 0's: the data floor is fresh.
        assert_eq!(m.faa(1, L, 1, MemOrd::AcqRel), u64::MAX);
        assert_eq!(m.load_choices(1, D, MemOrd::Relaxed), 1);
        // Thread 2 acquires thread 1's message: the chain carries
        // thread 0's data too.
        assert_eq!(m.load(2, L, MemOrd::Acquire, 2).val, 0);
        assert_eq!(m.load_choices(2, D, MemOrd::Relaxed), 1);
    }

    /// Store buffering with one side fenced by the compiler only — the
    /// slot cache's owner: `X := 1` Relaxed, then an Acquire load of `Y`
    /// — against `Y := 1` Relaxed, an optional `membarrier`, then an
    /// Acquire load of `X`. Every outcome `(r_owner, r_other)` over every
    /// interleaving and every reads-from choice.
    fn store_buffering(membarrier: bool) -> std::collections::BTreeSet<(u64, u64)> {
        #[derive(Clone, Copy)]
        enum Op {
            Store(usize),
            Membarrier,
            Load(usize),
        }
        let programs = [
            vec![Op::Store(L), Op::Load(D)],
            [
                Some(Op::Store(D)),
                membarrier.then_some(Op::Membarrier),
                Some(Op::Load(L)),
            ]
            .into_iter()
            .flatten()
            .collect::<Vec<_>>(),
        ];
        fn go(
            m: &Mem,
            pcs: [usize; 2],
            reads: [u64; 2],
            programs: &[Vec<Op>; 2],
            out: &mut std::collections::BTreeSet<(u64, u64)>,
        ) {
            if pcs[0] == programs[0].len() && pcs[1] == programs[1].len() {
                out.insert((reads[0], reads[1]));
            }
            for t in 0..2 {
                let Some(&op) = programs[t].get(pcs[t]) else {
                    continue;
                };
                let mut pcs = pcs;
                pcs[t] += 1;
                match op {
                    Op::Store(loc) => {
                        let mut m = m.clone();
                        m.store(t, loc, MemOrd::Relaxed, 1);
                        go(&m, pcs, reads, programs, out);
                    }
                    Op::Membarrier => {
                        let mut m = m.clone();
                        m.membarrier(t);
                        go(&m, pcs, reads, programs, out);
                    }
                    Op::Load(loc) => {
                        for choice in 0..m.load_choices(t, loc, MemOrd::Acquire) {
                            let mut m = m.clone();
                            let mut reads = reads;
                            reads[t] = m.load(t, loc, MemOrd::Acquire, choice).val;
                            go(&m, pcs, reads, programs, out);
                        }
                    }
                }
            }
        }
        let mut out = std::collections::BTreeSet::new();
        go(&ra(2), [0, 0], [0, 0], &programs, &mut out);
        out
    }

    /// Without the barrier RA lets both loads miss the other's store —
    /// the store-load reordering a compiler fence does not prevent; a
    /// `membarrier` on the other side forbids exactly that outcome.
    #[test]
    fn membarrier_forbids_store_buffering_against_a_compiler_fence() {
        assert!(store_buffering(false).contains(&(0, 0)));
        let fenced = store_buffering(true);
        assert!(!fenced.contains(&(0, 0)), "{fenced:?}");
        assert_eq!(fenced.len(), 3, "the other three outcomes stay: {fenced:?}");
    }

    /// SC mode is single-valued and choice-free.
    #[test]
    fn sc_mode_is_sc() {
        let mut m = Mem::new(MemModel::Sc, vec![0, 0], 2);
        m.store(0, D, MemOrd::Relaxed, 5);
        assert_eq!(m.load_choices(1, D, MemOrd::Relaxed), 1);
        assert_eq!(m.load(1, D, MemOrd::Relaxed, 0).val, 5);
        assert_eq!(m.latest(D), 5);
    }
}
