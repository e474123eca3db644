//! One exhaustive explorer for every protocol model.
//!
//! A model is a [`Protocol`]: a start state, a fixed set of actors, the
//! moves each actor may make from a state, the step that makes one, and
//! the invariants. The explorer owns everything else — the memo, the
//! path, the counts and the counterexample.
//!
//! [`Protocol::explore`] is a DFS memoized on the full system state. The
//! reachable state graph is finite and acyclic (every step advances some
//! actor's program), so memoization visits **every reachable state and
//! transition exactly once** while the number of *distinct interleavings*
//! (root-to-leaf paths) is counted exactly by dynamic programming — no
//! path enumeration needed. Under release/acquire a load is one move per
//! message its ordering lets it read ([`crate::Mem::load_choices`]), so
//! the count covers every reads-from choice as well.
//!
//! Invariants are checked on every transition (the step's own verdict,
//! then [`Protocol::check`] on the state it reached) and on every state
//! where no actor can move ([`Protocol::terminal`]: quiescence, a stuck
//! or deadlocked system, a stranded park). The first violation ends the
//! exploration with the interleaving that reached it.

use crate::memory::MemModel;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A closed system to explore: one scenario of one protocol model.
pub trait Protocol {
    /// Everything a step can change: shared memory and every actor's
    /// control state.
    type State: Clone + Eq + Hash;
    /// A broken invariant.
    type Fault: fmt::Display;
    /// Counters a step bumps, so a clean run can show it was not vacuous.
    type Tally: Default;

    /// Report name.
    fn name(&self) -> &'static str;

    /// The state exploration starts from.
    fn start(&self) -> Self::State;

    /// How many actors step; each is numbered `0..actors()`.
    fn actors(&self) -> usize;

    /// The outcomes actor `a`'s next step may have from `s` — the
    /// reads-from choices of a load, one for anything else. Empty: the
    /// actor cannot step now.
    fn moves(&self, s: &Self::State, a: usize) -> Vec<u32>;

    /// Take actor `a`'s next step with outcome `choice`: its label, and
    /// the invariant the step itself broke, if any.
    fn step(
        &self,
        s: &mut Self::State,
        a: usize,
        choice: u32,
        tally: &mut Self::Tally,
    ) -> (String, Option<Self::Fault>);

    /// Invariants of every state a transition reaches.
    fn check(&self, _s: &Self::State) -> Option<Self::Fault> {
        None
    }

    /// The verdict on a state where no actor can step.
    fn terminal(&self, _s: &Self::State) -> Option<Self::Fault> {
        None
    }

    /// Why a clean exploration with this tally proved nothing, if it did
    /// not.
    fn vacuous(&self, _tally: &Self::Tally) -> Option<&'static str> {
        None
    }

    /// Explore every interleaving and report.
    fn explore(&self) -> Report<Self>
    where
        Self: Sized,
    {
        Explorer::new(self).run()
    }
}

/// A protocol model's seeded regressions: each must make the explorer
/// produce a counterexample, which proves the checker bites.
pub trait Seeded: Copy + PartialEq + 'static {
    /// Every seeded regression, in `uat_check --list-mutations` order,
    /// with its stable CLI / report name.
    const SEEDED: &'static [(Self, &'static str)];
    /// The ones only release/acquire shows: ordering downgrades, which SC
    /// cannot see.
    const WEAK: &'static [Self];

    /// Every seeded regression.
    fn seeded() -> impl Iterator<Item = Self> {
        Self::SEEDED.iter().map(|s| s.0)
    }

    /// Stable CLI / report name (`none`: the protocol as shipped).
    fn name(self) -> &'static str {
        Self::SEEDED
            .iter()
            .find(|s| s.0 == self)
            .map_or("none", |s| s.1)
    }

    /// The weakest memory model that shows the regression.
    fn model(self) -> MemModel {
        if Self::WEAK.contains(&self) {
            MemModel::Ra
        } else {
            MemModel::Sc
        }
    }
}

/// A counterexample: the violated invariant plus the exact interleaving
/// that reached it from the start state. Its `Display` is the rendered
/// trace.
#[derive(Clone, Debug)]
pub struct Counterexample<F> {
    /// Scenario name.
    pub scenario: &'static str,
    /// Which invariant broke.
    pub fault: F,
    /// Step labels, oldest first.
    pub trace: Vec<String>,
}

impl<F: fmt::Display> fmt::Display for Counterexample<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample in scenario `{}`", self.scenario)?;
        writeln!(f, "  VIOLATION: {}", self.fault)?;
        writeln!(f, "  interleaving ({} steps):", self.trace.len())?;
        for (i, l) in self.trace.iter().enumerate() {
            writeln!(f, "    {:>3}. {l}", i + 1)?;
        }
        Ok(())
    }
}

/// Exploration statistics and outcome for one scenario.
pub struct Report<P: Protocol> {
    /// Distinct reachable states.
    pub states: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Distinct complete interleavings: exact, by dynamic programming, in
    /// the exhaustive walk (zero once a violation is found); executions
    /// walked, in the deque's sleep-set walk.
    pub interleavings: u128,
    /// Hashes of the distinct states reached where no actor could step.
    pub finals: HashSet<u64>,
    /// What the steps counted.
    pub tally: P::Tally,
    /// The first counterexample, if an invariant broke.
    pub violation: Option<Counterexample<P::Fault>>,
}

/// The DFS over one scenario; the deque's sleep-set walk reuses its
/// path, report and checks.
pub(crate) struct Explorer<'a, P: Protocol> {
    pub(crate) p: &'a P,
    pub(crate) report: Report<P>,
    pub(crate) path: Vec<String>,
    memo: HashMap<P::State, u128>,
}

impl<'a, P: Protocol> Explorer<'a, P> {
    /// A fresh explorer for `p`.
    pub(crate) fn new(p: &'a P) -> Self {
        Explorer {
            p,
            report: Report {
                states: 0,
                transitions: 0,
                interleavings: 0,
                finals: HashSet::new(),
                tally: P::Tally::default(),
                violation: None,
            },
            path: Vec::new(),
            memo: HashMap::new(),
        }
    }

    /// Exhaustive memoized DFS (see module docs).
    pub(crate) fn run(mut self) -> Report<P> {
        let n = self.visit(&self.p.start());
        if self.report.violation.is_none() {
            self.report.interleavings = n;
        }
        self.report
    }

    /// Count the complete interleavings from `s`, checking every
    /// invariant on the way.
    fn visit(&mut self, s: &P::State) -> u128 {
        if self.report.violation.is_some() {
            return 0;
        }
        if let Some(&n) = self.memo.get(s) {
            return n;
        }
        self.report.states += 1;
        let (mut n, mut stepped) = (0u128, false);
        'actors: for a in 0..self.p.actors() {
            for choice in self.p.moves(s, a) {
                if self.report.violation.is_some() {
                    break 'actors;
                }
                stepped = true;
                let mut next = s.clone();
                let (label, fault) = self.p.step(&mut next, a, choice, &mut self.report.tally);
                self.record(&next, label, fault);
                if self.report.violation.is_none() {
                    n += self.visit(&next);
                }
                self.path.pop();
            }
        }
        if !stepped {
            self.end(s);
            n = 1;
        }
        if self.report.violation.is_none() {
            self.memo.insert(s.clone(), n);
        }
        n
    }

    /// Count a transition to `next`, leave its `label` on the path, and
    /// check it.
    pub(crate) fn record(&mut self, next: &P::State, label: String, fault: Option<P::Fault>) {
        self.report.transitions += 1;
        self.path.push(label);
        if let Some(f) = fault.or_else(|| self.p.check(next)) {
            self.violate(f);
        }
    }

    /// A state where no actor can step: judge it and count it final.
    pub(crate) fn end(&mut self, s: &P::State) {
        if let Some(f) = self.p.terminal(s) {
            self.violate(f);
        }
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        self.report.finals.insert(h.finish());
    }

    /// Record the first counterexample: `fault`, after the current path.
    fn violate(&mut self, fault: P::Fault) {
        if self.report.violation.is_none() {
            self.report.violation = Some(Counterexample {
                scenario: self.p.name(),
                fault,
                trace: self.path.clone(),
            });
        }
    }
}
