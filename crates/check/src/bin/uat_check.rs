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
//! Ordering-downgrade mutations (`*-weak`) carry their own RA demo
//! scenarios, so `--mutate push-publish-weak` needs no `--memory-model`
//! flag; the flag selects which *clean* suite runs.

use std::process::ExitCode;
use uat_check::join::{self, JoinMutation};
use uat_check::model::{Family, Mutation};
use uat_check::scenarios::{mutation_demos, sleep_set_scenarios, standard_suite, weak_suite};
use uat_check::slots::{self, SlotMutation};
use uat_check::termination::{self, ScanMutation};
use uat_check::{replay, Explorer, MemModel};

const MUTATIONS: [Mutation; 10] = [
    // Protocol mutations (visible under SC).
    Mutation::SkipOwnerTopRecheck,
    Mutation::SkipUnlockOnRacedEmpty,
    Mutation::LastEntryFastPath,
    Mutation::BatchNarrowOwnerBound,
    // Ordering downgrades (visible only under the RA memory model).
    Mutation::PushPublishRelaxed,
    Mutation::PopPublishRelease,
    Mutation::StealBottomRelaxed,
    Mutation::UnlockRelaxed,
    Mutation::LockCasRelaxed,
    Mutation::ClaimTopRelease,
];

/// Per-scenario statistics accumulated for `--json`.
struct ScenarioStat {
    name: &'static str,
    states: u64,
    transitions: u64,
    interleavings: u128,
    finals: usize,
    violation: Option<String>,
}

impl ScenarioStat {
    fn of_termination(r: &termination::Report) -> Self {
        ScenarioStat {
            name: r.scenario,
            states: r.states,
            transitions: r.transitions,
            interleavings: r.interleavings,
            finals: 0,
            violation: r.violation.as_ref().map(|_| {
                "early termination: a scan passed with tasks still to complete".to_string()
            }),
        }
    }

    fn of_join(r: &join::Report) -> Self {
        ScenarioStat {
            name: r.scenario,
            states: r.states,
            transitions: r.transitions,
            interleavings: r.interleavings,
            finals: 0,
            violation: r.violation.as_deref().map(violation_line),
        }
    }

    fn of_slots(r: &slots::Report) -> Self {
        ScenarioStat {
            name: r.scenario,
            states: r.states,
            transitions: r.transitions,
            interleavings: r.interleavings,
            finals: 0,
            violation: r.violation.as_deref().map(violation_line),
        }
    }
}

/// The one-line `VIOLATION:` of a rendered counterexample.
fn violation_line(v: &str) -> String {
    let what = v.lines().nth(1).unwrap_or_default();
    what.trim().trim_start_matches("VIOLATION: ").to_string()
}

/// A seeded regression, from whichever model carries it.
#[derive(Clone, Copy)]
enum Seeded {
    Deque(Mutation),
    Scan(ScanMutation),
    Join(JoinMutation),
    Slots(SlotMutation),
}

fn main() -> ExitCode {
    let mut mutate: Option<Seeded> = None;
    let mut replay_cap: usize = 2000;
    let mut model = MemModel::Sc;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--mutate" => {
                let name = args.next().unwrap_or_default();
                mutate = MUTATIONS
                    .iter()
                    .map(|&m| (m.name(), Seeded::Deque(m)))
                    .chain(
                        termination::MUTATIONS
                            .iter()
                            .map(|&m| (m.name(), Seeded::Scan(m))),
                    )
                    .chain(join::MUTATIONS.iter().map(|&m| (m.name(), Seeded::Join(m))))
                    .chain(
                        slots::MUTATIONS
                            .iter()
                            .map(|&m| (m.name(), Seeded::Slots(m))),
                    )
                    .find_map(|(n, m)| (n == name).then_some(m));
                if mutate.is_none() {
                    eprintln!("unknown mutation `{name}`; try --list-mutations");
                    return ExitCode::FAILURE;
                }
            }
            "--list-mutations" => {
                for m in MUTATIONS {
                    println!("{}", m.name());
                }
                for m in termination::MUTATIONS {
                    println!("{}", m.name());
                }
                for m in join::MUTATIONS {
                    println!("{}", m.name());
                }
                for m in slots::MUTATIONS {
                    println!("{}", m.name());
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
        Some(Seeded::Deque(m)) => run_mutation_demo(m, json_path.as_deref()),
        Some(Seeded::Scan(m)) => run_scan_mutation_demo(m, json_path.as_deref()),
        Some(Seeded::Join(m)) => run_join_mutation_demo(m, json_path.as_deref()),
        Some(Seeded::Slots(m)) => run_slots_mutation_demo(m, json_path.as_deref()),
        None => run_clean_suite(model, replay_cap, json_path.as_deref()),
    }
}

fn run_clean_suite(model: MemModel, replay_cap: usize, json_path: Option<&str>) -> ExitCode {
    let suite = match model {
        MemModel::Sc => standard_suite(),
        MemModel::Ra => weak_suite(),
    };
    let mut stats: Vec<ScenarioStat> = Vec::new();
    let mut total_interleavings: u128 = 0;
    let mut total_states: u64 = 0;
    let mut failed = false;
    println!(
        "uat-check: THE-protocol steal path, exhaustive exploration ({} memory model)",
        match model {
            MemModel::Sc => "sequentially consistent",
            MemModel::Ra => "release/acquire",
        }
    );
    println!(
        "{:<22} {:>10} {:>12} {:>16} {:>8}",
        "scenario", "states", "transitions", "interleavings", "finals"
    );
    for sc in &suite {
        let report = Explorer::new(sc, 0).run_exhaustive();
        println!(
            "{:<22} {:>10} {:>12} {:>16} {:>8}",
            report.scenario,
            report.states,
            report.transitions,
            report.interleavings,
            report.final_states.len()
        );
        total_interleavings += report.interleavings;
        total_states += report.states;
        let violation = report.violation.as_ref().map(|v| {
            println!("{}", v.render(sc.name));
            failed = true;
            v.kind.describe()
        });
        stats.push(ScenarioStat {
            name: sc.name,
            states: report.states,
            transitions: report.transitions,
            interleavings: report.interleavings,
            finals: report.final_states.len(),
            violation,
        });
    }

    // The termination scan, on the same memory machine.
    for sc in termination::suite(model, ScanMutation::None) {
        let report = sc.explore();
        println!(
            "{:<22} {:>10} {:>12} {:>16} {:>8}",
            report.scenario, report.states, report.transitions, report.interleavings, "-"
        );
        total_interleavings += report.interleavings;
        total_states += report.states;
        if let Some(v) = &report.violation {
            println!("{v}");
            failed = true;
        } else if report.passes == 0 {
            println!("{}: no scan ever passed — the scenario is vacuous", sc.name);
            failed = true;
        }
        stats.push(ScenarioStat::of_termination(&report));
    }

    // The join protocol, on the same memory machine.
    for sc in join::suite(model, JoinMutation::None) {
        let report = sc.explore();
        println!(
            "{:<22} {:>10} {:>12} {:>16} {:>8}",
            report.scenario, report.states, report.transitions, report.interleavings, "-"
        );
        total_interleavings += report.interleavings;
        total_states += report.states;
        if let Some(v) = &report.violation {
            println!("{v}");
            failed = true;
        } else if report.passes == 0 {
            println!("{}: no join ever passed — the scenario is vacuous", sc.name);
            failed = true;
        }
        stats.push(ScenarioStat::of_join(&report));
    }

    // The free-slot supply, on the same memory machine.
    for sc in slots::suite(model, SlotMutation::None) {
        let report = sc.explore();
        println!(
            "{:<22} {:>10} {:>12} {:>16} {:>8}",
            report.scenario, report.states, report.transitions, report.interleavings, "-"
        );
        total_interleavings += report.interleavings;
        total_states += report.states;
        if let Some(v) = &report.violation {
            println!("{v}");
            failed = true;
        } else if report.raids == 0 || report.raided == 0 {
            println!(
                "{}: no raid ever met a fast path — the scenario is vacuous",
                sc.name
            );
            failed = true;
        }
        stats.push(ScenarioStat::of_slots(&report));
    }

    // Sleep-set cross-check + differential replay on the scenarios whose
    // path space is small enough to walk path-by-path (SC only: the
    // sleep-set prover and the SimDeque replay target are SC artifacts).
    if model == MemModel::Sc {
        for sc in &suite {
            if !sleep_set_scenarios().contains(&sc.name) {
                continue;
            }
            let exhaustive = Explorer::new(sc, 0).run_exhaustive();
            let sleepy = Explorer::new(sc, replay_cap).run_sleep_sets();
            if let Some(v) = &sleepy.violation {
                println!("{}", v.render(sc.name));
                failed = true;
                continue;
            }
            let agree = sleepy.final_states == exhaustive.final_states;
            if !agree {
                println!(
                    "{}: sleep-set exploration reached {} quiescent states, exhaustive {} — pruning is unsound",
                    sc.name,
                    sleepy.final_states.len(),
                    exhaustive.final_states.len()
                );
                failed = true;
            }
            assert_eq!(sc.family, Family::SimPhase);
            match replay::replay_schedules(sc, &sleepy.schedules) {
                Ok(n) => println!(
                    "{:<22} sleep-sets: {} executions ({} pruned), replayed {} against SimDeque: conform",
                    sc.name, sleepy.interleavings, sleepy.sleep_pruned, n
                ),
                Err(e) => {
                    println!("{}: replay divergence: {e}", sc.name);
                    failed = true;
                }
            }
        }
    }

    println!(
        "total: {total_states} states verified, {total_interleavings} distinct interleavings across {} scenarios",
        stats.len()
    );
    if let Some(path) = json_path {
        if let Err(e) = write_json(path, model, None, &stats, !failed) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("stats written to {path}");
    }
    if failed {
        println!("RESULT: VIOLATIONS FOUND");
        ExitCode::FAILURE
    } else {
        println!("RESULT: no invariant violations");
        ExitCode::SUCCESS
    }
}

fn run_mutation_demo(m: Mutation, json_path: Option<&str>) -> ExitCode {
    let demos = mutation_demos(m);
    let mut stats: Vec<ScenarioStat> = Vec::new();
    println!("uat-check: seeded mutation `{}`", m.name());
    for sc in &demos {
        let report = Explorer::new(sc, 0).run_exhaustive();
        let violation = match &report.violation {
            Some(v) => {
                println!("{}", v.render(sc.name));
                Some(v.kind.describe())
            }
            None => {
                println!(
                    "{}: no violation found ({} interleavings) — mutation not observable here",
                    sc.name, report.interleavings
                );
                None
            }
        };
        stats.push(ScenarioStat {
            name: sc.name,
            states: report.states,
            transitions: report.transitions,
            interleavings: report.interleavings,
            finals: report.final_states.len(),
            violation,
        });
    }
    let model = demos.first().map(|sc| sc.mem_model).unwrap_or(MemModel::Sc);
    finish_mutation_demo(m.name(), model, &stats, json_path)
}

/// The verdict of a mutation run: the checker did its job iff some demo
/// scenario produced a counterexample ("ok" in the JSON means that too).
fn finish_mutation_demo(
    mutation: &str,
    model: MemModel,
    stats: &[ScenarioStat],
    json_path: Option<&str>,
) -> ExitCode {
    let bit = stats.iter().any(|s| s.violation.is_some());
    if let Some(path) = json_path {
        if let Err(e) = write_json(path, model, Some(mutation), stats, bit) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("stats written to {path}");
    }
    if bit {
        println!("RESULT: checker caught the mutation (exit 0)");
        ExitCode::SUCCESS
    } else {
        println!("RESULT: checker FAILED to catch the mutation (exit 1)");
        ExitCode::FAILURE
    }
}

/// A seeded scan mutation: caught if either scanner placement yields a
/// counterexample under the weakest model that shows it (SC for the
/// pass order, RA for the ordering downgrade).
fn run_scan_mutation_demo(m: ScanMutation, json_path: Option<&str>) -> ExitCode {
    let model = match m {
        ScanMutation::CompletedWeak => MemModel::Ra,
        _ => MemModel::Sc,
    };
    println!("uat-check: seeded mutation `{}`", m.name());
    let mut stats: Vec<ScenarioStat> = Vec::new();
    for sc in termination::suite(model, m) {
        let report = sc.explore();
        match &report.violation {
            Some(v) => println!("{v}"),
            None => println!(
                "{}: no violation found ({} interleavings) — mutation not observable here",
                sc.name, report.interleavings
            ),
        }
        stats.push(ScenarioStat::of_termination(&report));
    }
    finish_mutation_demo(m.name(), model, &stats, json_path)
}

/// A seeded join mutation: caught if any of the three shapes yields a
/// counterexample under the weakest model that shows it.
fn run_join_mutation_demo(m: JoinMutation, json_path: Option<&str>) -> ExitCode {
    println!("uat-check: seeded mutation `{}`", m.name());
    let mut stats: Vec<ScenarioStat> = Vec::new();
    for sc in join::suite(m.model(), m) {
        let report = sc.explore();
        match &report.violation {
            Some(v) => println!("{v}"),
            None => println!(
                "{}: no violation found ({} interleavings) — mutation not observable here",
                sc.name, report.interleavings
            ),
        }
        stats.push(ScenarioStat::of_join(&report));
    }
    finish_mutation_demo(m.name(), m.model(), &stats, json_path)
}

/// A seeded slot-supply mutation: caught if either shape yields a
/// counterexample under the weakest model that shows it.
fn run_slots_mutation_demo(m: SlotMutation, json_path: Option<&str>) -> ExitCode {
    println!("uat-check: seeded mutation `{}`", m.name());
    let mut stats: Vec<ScenarioStat> = Vec::new();
    for sc in slots::suite(m.model(), m) {
        let report = sc.explore();
        match &report.violation {
            Some(v) => println!("{v}"),
            None => println!(
                "{}: no violation found ({} interleavings) — mutation not observable here",
                sc.name, report.interleavings
            ),
        }
        stats.push(ScenarioStat::of_slots(&report));
    }
    finish_mutation_demo(m.name(), m.model(), &stats, json_path)
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

/// Hand-rolled writer (the workspace carries no serde); the schema is
/// consumed by CI dashboards and the lint's fixture tests.
fn write_json(
    path: &str,
    model: MemModel,
    mutation: Option<&str>,
    stats: &[ScenarioStat],
    ok: bool,
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"memory_model\": {},\n",
        json_str(model.name())
    ));
    s.push_str(&format!(
        "  \"mutation\": {},\n",
        mutation.map_or("null".to_string(), json_str)
    ));
    s.push_str(&format!("  \"ok\": {ok},\n"));
    s.push_str(&format!(
        "  \"total_states\": {},\n",
        stats.iter().map(|t| t.states).sum::<u64>()
    ));
    s.push_str(&format!(
        "  \"total_interleavings\": {},\n",
        stats.iter().map(|t| t.interleavings).sum::<u128>()
    ));
    s.push_str("  \"scenarios\": [\n");
    for (i, st) in stats.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"states\": {}, \"transitions\": {}, \"interleavings\": {}, \"finals\": {}, \"violation\": {}}}{}\n",
            json_str(st.name),
            st.states,
            st.transitions,
            st.interleavings,
            st.finals,
            st.violation
                .as_deref()
                .map_or("null".to_string(), json_str),
            if i + 1 == stats.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}
