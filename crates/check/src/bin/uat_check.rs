//! CLI for the interleaving checker: the THE-protocol steal path, the
//! runtime's termination scan, its join protocol and the multiprocess
//! runtime's free-slot supply.
//!
//! ```text
//! uat_check                        # clean suite under SC: zero violations
//! uat_check --memory-model ra      # clean suite under release/acquire
//! uat_check --mutate <name>        # seeded regression: must find a
//!                                  #   counterexample and print its trace
//! uat_check --list-mutations
//! uat_check --json stats.json      # machine-readable run statistics
//! uat_check --replay-cap 500       # bound differential-replay schedules
//! ```
//!
//! Exit code 0 means "the checker did its job": zero violations for the
//! clean suite, a counterexample trace for a seeded mutation. Anything
//! else exits 1, so both modes can gate CI directly.
//!
//! Every mutation carries its own demo scenarios under the weakest memory
//! model that shows it, so `--mutate push-publish-weak` needs no
//! `--memory-model` flag; the flag selects which *clean* suite runs.

use std::process::ExitCode;
use uat_check::join::{self, JoinMutation};
use uat_check::model::Family;
use uat_check::scenarios::{mutation_demos, sleep_set_scenarios, standard_suite, weak_suite};
use uat_check::slots::{self, SlotMutation};
use uat_check::termination::{self, ScanMutation};
use uat_check::{replay, MemModel, Protocol, Report, Seeded};

/// The scenarios explored so far, and the run's verdict.
#[derive(Default)]
struct Suite {
    /// A clean suite prints a table row per scenario and fails on any
    /// counterexample or vacuous scenario; a mutation demo prints the
    /// counterexample it must find.
    clean: bool,
    /// One `--json` object per scenario.
    rows: Vec<String>,
    states: u64,
    interleavings: u128,
    /// Scenarios that yielded a counterexample.
    caught: usize,
    failed: bool,
}

impl Suite {
    fn explore<P: Protocol>(&mut self, p: &P) -> Report<P> {
        let r = p.explore();
        if self.clean {
            println!(
                "{:<22} {:>10} {:>12} {:>16} {:>8}",
                p.name(),
                r.states,
                r.transitions,
                r.interleavings,
                r.finals.len()
            );
        }
        if let Some(v) = &r.violation {
            println!("{v}");
            self.caught += 1;
            self.failed |= self.clean;
        } else if !self.clean {
            println!(
                "{}: no violation found ({} interleavings) — mutation not observable here",
                p.name(),
                r.interleavings
            );
        } else if let Some(why) = p.vacuous(&r.tally) {
            println!("{}: {why} — the scenario is vacuous", p.name());
            self.failed = true;
        }
        self.states += r.states;
        self.interleavings += r.interleavings;
        // The JSON `violation` is the counterexample's `VIOLATION:` line.
        let violation = r.violation.as_ref().map(|v| json_str(&v.fault.to_string()));
        self.rows.push(format!(
            "{{\"name\": {}, \"states\": {}, \"transitions\": {}, \"interleavings\": {}, \"finals\": {}, \"violation\": {}}}",
            json_str(p.name()),
            r.states,
            r.transitions,
            r.interleavings,
            r.finals.len(),
            violation.as_deref().unwrap_or("null")
        ));
        r
    }

    /// Explore each of `scenarios`.
    fn explore_all<P: Protocol>(&mut self, scenarios: &[P]) {
        for p in scenarios {
            self.explore(p);
        }
    }

    /// Write the `--json` stats if asked (hand-rolled: the workspace
    /// carries no serde; CI dashboards and the lint's fixture tests read
    /// the schema), print the verdict, and exit 0 iff the checker did its
    /// job.
    fn finish(
        &self,
        json_path: Option<&str>,
        model: MemModel,
        mutation: Option<&str>,
        ok: bool,
        verdict: &str,
    ) -> ExitCode {
        if let Some(path) = json_path {
            let json = format!(
                "{{\n  \"memory_model\": {},\n  \"mutation\": {},\n  \"ok\": {ok},\n  \
                 \"total_states\": {},\n  \"total_interleavings\": {},\n  \
                 \"scenarios\": [\n    {}\n  ]\n}}\n",
                json_str(model.name()),
                mutation.map_or("null".to_string(), json_str),
                self.states,
                self.interleavings,
                self.rows.join(",\n    ")
            );
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("stats written to {path}");
        }
        println!("RESULT: {verdict}");
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// A seeded mutation: its name, the weakest memory model that shows it,
/// and its demo.
type Demo = (&'static str, MemModel, Box<dyn Fn(&mut Suite)>);

/// Each of `M`'s seeded mutations, demonstrated on `scenarios(m)`.
fn demos<M: Seeded, P: Protocol + 'static>(scenarios: fn(M) -> Vec<P>) -> Vec<Demo> {
    M::SEEDED
        .iter()
        .map(|&(m, name)| -> Demo {
            let scenarios = scenarios(m);
            (
                name,
                m.model(),
                Box::new(move |s| s.explore_all(&scenarios)),
            )
        })
        .collect()
}

/// Every seeded mutation of the four models, in `--list-mutations` order.
fn seeded() -> Vec<Demo> {
    let mut all = demos(mutation_demos);
    all.extend(demos(|m: ScanMutation| {
        termination::suite(m.model(), m).to_vec()
    }));
    all.extend(demos(|m: JoinMutation| join::suite(m.model(), m).to_vec()));
    all.extend(demos(|m: SlotMutation| slots::suite(m.model(), m).to_vec()));
    all
}

fn main() -> ExitCode {
    let mut mutate: Option<Demo> = None;
    let mut replay_cap: usize = 2000;
    let mut model = MemModel::Sc;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--mutate" => {
                let name = args.next().unwrap_or_default();
                mutate = seeded().into_iter().find(|(n, ..)| *n == name);
                if mutate.is_none() {
                    eprintln!("unknown mutation `{name}`; try --list-mutations");
                    return ExitCode::FAILURE;
                }
            }
            "--list-mutations" => {
                for (name, ..) in seeded() {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            "--memory-model" => match args.next().as_deref() {
                Some("sc") => model = MemModel::Sc,
                Some("ra") => model = MemModel::Ra,
                other => {
                    eprintln!(
                        "--memory-model takes `sc` or `ra`, got `{}`",
                        other.unwrap_or("")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--json" => {
                json_path = args.next();
                if json_path.is_none() {
                    eprintln!("--json takes an output path");
                    return ExitCode::FAILURE;
                }
            }
            "--replay-cap" => {
                replay_cap = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(replay_cap);
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    match mutate {
        Some(demo) => run_mutation_demo(&demo, json_path.as_deref()),
        None => run_clean_suite(model, replay_cap, json_path.as_deref()),
    }
}

fn run_clean_suite(model: MemModel, replay_cap: usize, json_path: Option<&str>) -> ExitCode {
    println!(
        "uat-check: the THE deque, termination scan, join protocol and slot supply, \
         exhaustive exploration ({} memory model)",
        match model {
            MemModel::Sc => "sequentially consistent",
            MemModel::Ra => "release/acquire",
        }
    );
    println!(
        "{:<22} {:>10} {:>12} {:>16} {:>8}",
        "scenario", "states", "transitions", "interleavings", "finals"
    );
    let mut s = Suite {
        clean: true,
        ..Suite::default()
    };
    let deque = match model {
        MemModel::Sc => standard_suite(),
        MemModel::Ra => weak_suite(),
    };
    let deque: Vec<_> = deque.iter().map(|sc| (sc, s.explore(sc))).collect();
    s.explore_all(&termination::suite(model, ScanMutation::None));
    s.explore_all(&join::suite(model, JoinMutation::None));
    s.explore_all(&slots::suite(model, SlotMutation::None));

    // Sleep-set cross-check + differential replay on the scenarios whose
    // path space is small enough to walk path-by-path (SC only: the
    // sleep-set prover and the fabric-deque replay target are SC artifacts).
    for (sc, exhaustive) in &deque {
        if !sleep_set_scenarios().contains(&sc.name) {
            continue;
        }
        let sleepy = sc.sleep_sets();
        if let Some(v) = &sleepy.violation {
            println!("{v}");
            s.failed = true;
            continue;
        }
        if sleepy.finals != exhaustive.finals {
            println!(
                "{}: sleep-set exploration reached {} quiescent states, exhaustive {} — pruning is unsound",
                sc.name,
                sleepy.finals.len(),
                exhaustive.finals.len()
            );
            s.failed = true;
        }
        assert_eq!(sc.family, Family::SimPhase);
        let schedules = &sleepy.tally.schedules;
        let replayed = &schedules[..schedules.len().min(replay_cap)];
        match replay::replay_schedules(sc, replayed) {
            Ok(n) => println!(
                "{:<22} sleep-sets: {} executions ({} pruned), replayed {} against the fabric deque: conform",
                sc.name, sleepy.interleavings, sleepy.tally.pruned, n
            ),
            Err(e) => {
                println!("{}: replay divergence: {e}", sc.name);
                s.failed = true;
            }
        }
    }

    println!(
        "total: {} states verified, {} distinct interleavings across {} scenarios",
        s.states,
        s.interleavings,
        s.rows.len()
    );
    let verdict = if s.failed {
        "VIOLATIONS FOUND"
    } else {
        "no invariant violations"
    };
    s.finish(json_path, model, None, !s.failed, verdict)
}

/// A seeded mutation: caught iff some demo scenario yields a
/// counterexample ("ok" in the JSON means that too).
fn run_mutation_demo((name, model, demo): &Demo, json_path: Option<&str>) -> ExitCode {
    println!("uat-check: seeded mutation `{name}`");
    let mut s = Suite::default();
    demo(&mut s);
    let verdict = if s.caught > 0 {
        "checker caught the mutation (exit 0)"
    } else {
        "checker FAILED to catch the mutation (exit 1)"
    };
    s.finish(json_path, *model, Some(name), s.caught > 0, verdict)
}

/// Minimal JSON escaping: the strings we emit are scenario names,
/// mutation names, and violation one-liners — ASCII with no exotic
/// control characters, but quotes and backslashes are handled anyway.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
