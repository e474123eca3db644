//! The two-pass termination scan (`uat_fiber`'s `idle::quiescent`,
//! DESIGN.md §11.5) on the [`Mem`] machine, under SC and
//! release/acquire.
//!
//! Both real backends decide "the run is over" from per-worker monotonic
//! cells: `spawned[w]` counts the spawns made on worker `w`,
//! `completed[w]` the tasks that finished there, every tick a Release
//! store by the cell's one writer. Both make exactly these ticks, from
//! the one worker body they share (`uat_fiber`'s `sched.rs`): every
//! `spawn_on` ticks its worker's `spawned` once, before the child runs,
//! and every completion its worker's `completed` as the task's last act
//! — the cells are the `SPAWNED` and `TASKS` cells of the worker's
//! counter row (`uat_metrics::shm::Row`), on the heap under threads and
//! in the metrics segment across processes. A scan Acquire-loads every
//! `completed` cell, *then* every `spawned` cell, and passes iff
//! `Σ completed == 1 + Σ spawned` (the root is spawned by nobody). Since
//! every idle worker runs the scan before each nap — not one
//! coordinator — the argument that a pass cannot come early is worth a
//! machine's opinion.
//!
//! The modelled run is the smallest one with every edge the proof
//! leans on: two workers; the root, on worker 0, spawns a child and —
//! detached, the adversarial case — completes without joining it; the
//! child is stolen by worker 1 (the deque's publication edge as one
//! Release/Acquire flag; a steal attempt that reads the flag early or
//! stale fails, and after [`STEAL_ATTEMPTS`] the worker gives up and the
//! tree never completes); on worker 1 the child spawns a grandchild,
//! which completes, then completes itself. The scan runs either on a
//! third thread or as the tail of each worker's own program, once, from
//! a view no earlier scan has refreshed.
//!
//! Invariant: **a scan that passes does so after every task's
//! completion tick has executed.** [`ScanMutation`]s seed the two ways
//! to break it: the passes swapped (caught under SC) and pass 1 loaded
//! `Relaxed` (caught only under RA).
//!
//! A [`Protocol`] of three actors — worker 0, worker 1 and the third
//! scanner, which has no moves when the workers scan.

use crate::explore::{Protocol, Seeded};
use crate::memory::{Mem, MemModel, MemOrd};

const SPAWNED: [usize; 2] = [0, 1];
const COMPLETED: [usize; 2] = [2, 3];
const PUBLISHED: usize = 4;
const LOC_NAMES: [&str; 5] = [
    "spawned[0]",
    "spawned[1]",
    "completed[0]",
    "completed[1]",
    "published",
];
/// What `completed` holds once the whole tree has run: the root on
/// worker 0; the grandchild, then the child, on worker 1.
const ALL_DONE: [u64; 2] = [1, 2];

/// Steal attempts worker 1 makes before it gives up.
pub const STEAL_ATTEMPTS: u8 = 2;

/// A seeded regression of the scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanMutation {
    /// The scan as shipped.
    None,
    /// `spawned` first, `completed` second: the scan can count a parent's
    /// spawn cell, miss the child it spawns next, then count that
    /// child's completion — equal sums mid-run. Visible under SC.
    PassOrder,
    /// Pass 1 `Acquire -> Relaxed`: reading a completion tick no longer
    /// brings the spawn ticks before it into view, so pass 2 may read a
    /// stale `spawned`. Visible only under RA.
    CompletedWeak,
}

impl Seeded for ScanMutation {
    const SEEDED: &'static [(Self, &'static str)] = &[
        (ScanMutation::PassOrder, "scan-pass-order"),
        (ScanMutation::CompletedWeak, "scan-completed-weak"),
    ];
    const WEAK: &'static [Self] = &[ScanMutation::CompletedWeak];
}

/// Who runs the scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scanner {
    /// A thread that does nothing else (the coordinator of old).
    ThirdThread,
    /// Each worker, once its own program has nothing left to do.
    WorkerTail,
}

/// One closed system to explore.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Report name.
    pub name: &'static str,
    /// Memory semantics.
    pub mem_model: MemModel,
    /// Who scans.
    pub scanner: Scanner,
    /// Seeded regression, or [`ScanMutation::None`].
    pub mutation: ScanMutation,
}

/// Both scanner placements under `mem_model`, with `mutation` seeded.
pub fn suite(mem_model: MemModel, mutation: ScanMutation) -> [Scenario; 2] {
    let (third, tail) = match mem_model {
        MemModel::Sc => ("term/third-thread", "term/worker-tail"),
        MemModel::Ra => ("ra/term-third-thread", "ra/term-worker-tail"),
    };
    [(third, Scanner::ThirdThread), (tail, Scanner::WorkerTail)].map(|(name, scanner)| Scenario {
        name,
        mem_model,
        scanner,
        mutation,
    })
}

/// One step of a thread.
#[derive(Clone, Copy)]
enum Op {
    /// A cell's single writer ticks it: a Release store of its next value.
    Tick(usize, u64, &'static str),
    /// Worker 1 tries to steal the child: an Acquire load of the flag.
    Steal,
    /// The `k`-th load of a scan (not in any program: a scanning
    /// thread's steps once its program has run out).
    ScanLoad(usize),
}

const PROGRAMS: [&[Op]; 2] = [
    &[
        Op::Tick(SPAWNED[0], 1, "root spawns the child"),
        Op::Tick(PUBLISHED, 1, "child becomes stealable"),
        Op::Tick(COMPLETED[0], 1, "root completes, joining nothing"),
    ],
    &[
        Op::Steal,
        Op::Tick(SPAWNED[1], 1, "child spawns the grandchild"),
        Op::Tick(COMPLETED[1], 1, "grandchild completes"),
        Op::Tick(COMPLETED[1], 2, "child completes"),
    ],
];

#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
struct Thread {
    /// Next op of the thread's program.
    pc: usize,
    /// Failed steal attempts (worker 1).
    tries: u8,
    /// Scan loads done, and the two sums so far.
    loads: usize,
    completed: u64,
    spawned: u64,
}

/// Memory and the three actors' control states.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Sys {
    mem: Mem,
    threads: Vec<Thread>,
}

impl Scenario {
    fn program(&self, t: usize) -> &'static [Op] {
        PROGRAMS.get(t).copied().unwrap_or(&[])
    }

    fn scans(&self, t: usize) -> bool {
        (self.scanner == Scanner::ThirdThread) == (t == 2)
    }

    /// The `k`-th load of a scan: its cell and ordering.
    fn scan_load(&self, k: usize) -> (usize, MemOrd) {
        let mut cells = [COMPLETED[0], COMPLETED[1], SPAWNED[0], SPAWNED[1]];
        if self.mutation == ScanMutation::PassOrder {
            cells.rotate_left(2);
        }
        let weak = self.mutation == ScanMutation::CompletedWeak && COMPLETED.contains(&cells[k]);
        (
            cells[k],
            if weak {
                MemOrd::Relaxed
            } else {
                MemOrd::Acquire
            },
        )
    }

    /// The thread's next step: the next op of its program, then — if it
    /// scans — the loads of its one scan; `None` once it is done.
    fn next(&self, sys: &Sys, t: usize) -> Option<Op> {
        let th = &sys.threads[t];
        let scan = || (self.scans(t) && th.loads < 4).then_some(Op::ScanLoad(th.loads));
        self.program(t).get(th.pc).copied().or_else(scan)
    }

    /// The cell and ordering of the load `op` performs, if it is one.
    fn load_of(&self, op: Op) -> Option<(usize, MemOrd)> {
        match op {
            Op::Tick(..) => None,
            Op::Steal => Some((PUBLISHED, MemOrd::Acquire)),
            Op::ScanLoad(k) => Some(self.scan_load(k)),
        }
    }
}

impl Protocol for Scenario {
    type State = Sys;
    type Fault = String;
    /// Scan verdicts that passed.
    type Tally = u64;

    fn name(&self) -> &'static str {
        self.name
    }

    fn start(&self) -> Sys {
        let threads = self.actors();
        Sys {
            mem: Mem::new(self.mem_model, vec![0; LOC_NAMES.len()], threads),
            threads: vec![Thread::default(); threads],
        }
    }

    fn actors(&self) -> usize {
        match self.scanner {
            Scanner::ThirdThread => 3,
            Scanner::WorkerTail => 2,
        }
    }

    /// Under RA a load branches over every message its ordering permits;
    /// a store, and any step under SC, has one outcome.
    fn moves(&self, sys: &Sys, t: usize) -> Vec<u32> {
        let Some(op) = self.next(sys, t) else {
            return Vec::new();
        };
        let choices = self
            .load_of(op)
            .map_or(1, |(loc, ord)| sys.mem.load_choices(t, loc, ord));
        (0..choices).collect()
    }

    /// Execute thread `t`'s next op; a scan's last load also delivers its
    /// verdict, checked against the invariant here.
    fn step(
        &self,
        sys: &mut Sys,
        t: usize,
        choice: u32,
        passes: &mut u64,
    ) -> (String, Option<String>) {
        let who = ["worker 0", "worker 1", "scanner"][t];
        let op = self.next(sys, t).expect("a thread with a move has an op");
        let Some((loc, ord)) = self.load_of(op) else {
            let Op::Tick(loc, val, what) = op else {
                unreachable!("every op but a tick loads")
            };
            sys.mem.store(t, loc, MemOrd::Release, val);
            sys.threads[t].pc += 1;
            return (
                format!("{who}: {what} ({} := {val}, Release)", LOC_NAMES[loc]),
                None,
            );
        };
        let out = sys.mem.load(t, loc, ord, choice);
        let stale = if out.stale { ", stale" } else { "" };
        let read = format!("{} = {} ({}{stale})", LOC_NAMES[loc], out.val, ord.name());
        let th = &mut sys.threads[t];
        if let Op::Steal = op {
            if out.val == 1 {
                th.pc += 1;
                return (format!("{who}: steals the child ({read})"), None);
            }
            th.tries += 1;
            if th.tries == STEAL_ATTEMPTS {
                th.pc = PROGRAMS[1].len();
            }
            return (
                format!("{who}: steal attempt {} fails ({read})", th.tries),
                None,
            );
        }
        if COMPLETED.contains(&loc) {
            th.completed += out.val;
        } else {
            th.spawned += out.val;
        }
        th.loads += 1;
        if th.loads < 4 || th.completed != 1 + th.spawned {
            return (format!("{who}: scan reads {read}"), None);
        }
        *passes += 1;
        let now = COMPLETED.map(|c| sys.mem.latest(c));
        let early = (now != ALL_DONE).then(|| {
            format!(
                "{who}'s scan passed ({} completed == 1 + {} spawned) with tasks still to \
                 complete (completed = {now:?}, whole tree = {ALL_DONE:?})",
                th.completed, th.spawned
            )
        });
        (format!("{who}: scan reads {read} and passes"), early)
    }

    fn vacuous(&self, passes: &u64) -> Option<&'static str> {
        (*passes == 0).then_some("no scan ever passed")
    }
}
