//! Exporters: Chrome trace-event JSON (openable in Perfetto / `chrome://tracing`)
//! and JSONL.
//!
//! The Chrome format is the "JSON Array Format" with an object wrapper:
//! `{"traceEvents": [...]}`. One track (`tid`) per worker, all under
//! `pid` 0. Spans are `"ph":"X"` complete events; zero-duration records
//! become `"ph":"i"` instants. Timestamps are microseconds, converted
//! from simulated cycles with the run's clock; every event also carries
//! the exact cycle values in `args` so tooling (and the test suite) can
//! cross-check without float rounding.

use crate::{Bucket, EventKind, RingBuffer, TraceEvent};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use uat_base::json::Json;
use uat_base::Cycles;

/// Where a trace's timestamps came from. Exported in the trace
/// metadata so a consumer never has to guess whether "cycles" means
/// simulated cost-model cycles, hardware TSC ticks, or a calibrated
/// `Instant`-based fallback (satellite of the native-tracing work:
/// hosts without a usable TSC get honest metadata, not garbage).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClockSource {
    /// Hardware timestamp counter (`rdtsc`), calibrated against the OS
    /// monotonic clock and re-based to the run's epoch.
    Tsc,
    /// `std::time::Instant` deltas converted to cycles at the calibrated
    /// rate — the fallback when the TSC is unavailable or unusable.
    Instant,
    /// Deterministic simulator cycles from the cost model.
    Simulated,
}

impl ClockSource {
    /// Display name, used in exported metadata.
    pub fn name(self) -> &'static str {
        match self {
            ClockSource::Tsc => "tsc",
            ClockSource::Instant => "instant",
            ClockSource::Simulated => "simulated",
        }
    }
}

/// Everything a traced run produced, ready for export.
#[derive(Clone, Debug)]
pub struct TraceData {
    /// Core clock in Hz (simulated cost-model clock, or the calibrated
    /// native TSC rate), for cycle→µs conversion.
    pub clock_hz: f64,
    /// What physical (or simulated) clock stamped the events.
    pub clock_source: ClockSource,
    /// Per-worker engine-level events, indexed by worker id.
    pub workers: Vec<RingBuffer>,
    /// Fabric-level RDMA events (worker field = initiating worker).
    pub fabric: Vec<TraceEvent>,
    /// The run's makespan, exported as trace metadata.
    pub makespan: Cycles,
}

impl TraceData {
    /// Events evicted from full rings before export.
    pub fn dropped(&self) -> u64 {
        self.workers.iter().map(RingBuffer::dropped).sum()
    }

    /// Iterate over every exported event.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.workers
            .iter()
            .flat_map(RingBuffer::iter)
            .chain(self.fabric.iter())
    }

    /// Sum of `dur` over steal-phase events, by phase index
    /// (protocol order, as in `StealPhase::ALL`).
    pub fn steal_phase_totals(&self) -> [u64; 7] {
        let mut totals = [0u64; 7];
        for ev in self.events() {
            if let EventKind::StealPhase { phase, .. } = ev.kind {
                totals[phase.index()] += ev.dur.get();
            }
        }
        totals
    }

    /// Sum of `dur` over timeline slices charged to `bucket`, per worker.
    pub fn slice_totals(&self, bucket: Bucket) -> Vec<u64> {
        let mut totals = vec![0u64; self.workers.len()];
        for (w, ring) in self.workers.iter().enumerate() {
            for ev in ring.iter() {
                if let EventKind::Slice { bucket: b } = ev.kind {
                    if b == bucket {
                        totals[w] += ev.dur.get();
                    }
                }
            }
        }
        totals
    }
}

fn micros(c: Cycles, clock_hz: f64) -> Json {
    Json::Num(c.get() as f64 / clock_hz * 1e6)
}

fn event_args(ev: &TraceEvent) -> Vec<(String, Json)> {
    let mut args: Vec<(String, Json)> = vec![
        ("cycles".into(), Json::UInt(ev.at.get())),
        ("dur_cycles".into(), Json::UInt(ev.dur.get())),
    ];
    match ev.kind {
        EventKind::TaskBegin { task }
        | EventKind::Suspend { task }
        | EventKind::Resume { task } => {
            args.push(("task".into(), Json::UInt(task)));
        }
        EventKind::TaskEnd { task, run } => {
            args.push(("task".into(), Json::UInt(task)));
            args.push(("run_cycles".into(), Json::UInt(run.get())));
        }
        EventKind::Spawn { parent, child } => {
            args.push(("parent".into(), Json::UInt(parent)));
            args.push(("child".into(), Json::UInt(child)));
        }
        EventKind::Slice { .. } | EventKind::IdlePoll | EventKind::Park | EventKind::Unpark => {}
        EventKind::StealPhase { victim, .. } => {
            args.push(("victim".into(), Json::UInt(victim.0 as u64)));
        }
        EventKind::StealResult {
            victim,
            outcome,
            latency,
        } => {
            args.push(("victim".into(), Json::UInt(victim.0 as u64)));
            args.push(("outcome".into(), Json::str(outcome.name())));
            args.push(("latency_cycles".into(), Json::UInt(latency.get())));
        }
        EventKind::DequePublish { task, seq } | EventKind::StealCommit { task, seq } => {
            args.push(("task".into(), Json::UInt(task)));
            args.push(("seq".into(), Json::UInt(seq)));
        }
        EventKind::JoinReady { parent, child } | EventKind::JoinResume { parent, child } => {
            args.push(("parent".into(), Json::UInt(parent)));
            args.push(("child".into(), Json::UInt(child)));
        }
        EventKind::FaaQueueWait { wait, server } => {
            args.push(("wait_cycles".into(), Json::UInt(wait.get())));
            args.push(("server_node".into(), Json::UInt(server.0 as u64)));
        }
        EventKind::RdmaOp { target, bytes, .. } => {
            args.push(("target_node".into(), Json::UInt(target.0 as u64)));
            args.push(("bytes".into(), Json::UInt(bytes)));
        }
    }
    args
}

fn chrome_event(ev: &TraceEvent, clock_hz: f64) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("name".into(), Json::str(ev.kind.name())),
        ("cat".into(), Json::str(ev.kind.category())),
        ("pid".into(), Json::UInt(0)),
        ("tid".into(), Json::UInt(ev.worker.0 as u64)),
        ("ts".into(), micros(ev.at, clock_hz)),
    ];
    if ev.dur.get() > 0 {
        fields.insert(1, ("ph".into(), Json::str("X")));
        fields.push(("dur".into(), micros(ev.dur, clock_hz)));
    } else {
        fields.insert(1, ("ph".into(), Json::str("i")));
        // Instant scope: thread.
        fields.push(("s".into(), Json::str("t")));
    }
    fields.push(("args".into(), Json::Obj(event_args(ev))));
    Json::Obj(fields)
}

/// One endpoint of a Perfetto flow arrow (`ph` is `"s"` at the start,
/// `"f"` at the finish; the shared `id` links the pair).
fn flow_event(ph: &str, seq: u64, worker: u64, at: Cycles, clock_hz: f64) -> Json {
    let mut fields = vec![
        ("name".into(), Json::str("steal")),
        ("cat".into(), Json::str("steal-flow")),
        ("ph".into(), Json::str(ph)),
        ("id".into(), Json::UInt(seq)),
        ("pid".into(), Json::UInt(0)),
        ("tid".into(), Json::UInt(worker)),
        ("ts".into(), micros(at, clock_hz)),
    ];
    if ph == "f" {
        // Bind to the enclosing slice at the arrowhead, per the trace
        // event format spec.
        fields.push(("bp".into(), Json::str("e")));
    }
    Json::Obj(fields)
}

/// Flow-arrow pairs for every completed steal: an `"s"` event on the
/// victim's track at the deque publish and an `"f"` event on the
/// thief's track at the resume of the stolen thread. Perfetto renders
/// these as arrows, making each steal's provenance visible.
fn steal_flows(data: &TraceData, mut emit: impl FnMut(Json) -> io::Result<()>) -> io::Result<()> {
    let mut publishes: std::collections::HashMap<u64, (u64, Cycles)> =
        std::collections::HashMap::new();
    for ev in data.events() {
        if let EventKind::DequePublish { seq, .. } = ev.kind {
            publishes.insert(seq, (ev.worker.0 as u64, ev.at));
        }
    }
    for ev in data.events() {
        if let EventKind::StealCommit { seq, .. } = ev.kind {
            if let Some(&(victim, at)) = publishes.get(&seq) {
                emit(flow_event("s", seq, victim, at, data.clock_hz))?;
                emit(flow_event(
                    "f",
                    seq,
                    ev.worker.0 as u64,
                    ev.at,
                    data.clock_hz,
                ))?;
            }
        }
    }
    Ok(())
}

fn metadata(name: &str, tid: u64, value: &str) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("ph", Json::str("M")),
        ("pid", Json::UInt(0)),
        ("tid", Json::UInt(tid)),
        ("args", Json::obj([("name", Json::str(value))])),
    ])
}

/// Write the Chrome trace-event document for a traced run to `out`, one
/// event at a time, so a trace of millions of events never exists as
/// one value or string. Wrap a file in a `BufWriter`: each event is
/// several small writes.
pub fn write_chrome_trace(data: &TraceData, out: &mut impl Write) -> io::Result<()> {
    write_trace(data, None, out)
}

/// [`write_chrome_trace`], with `violation`, if any, added to
/// `otherData` as `audit_violation`.
fn write_trace(data: &TraceData, violation: Option<&str>, out: &mut impl Write) -> io::Result<()> {
    // The process row always comes first, so every later event is
    // written after a comma.
    write!(
        out,
        "{{\"traceEvents\":[{}",
        metadata("process_name", 0, "uni-address simulator")
    )?;
    for (w, ring) in data.workers.iter().enumerate() {
        let label = if ring.dropped() > 0 {
            format!("worker {w} ({} events dropped)", ring.dropped())
        } else {
            format!("worker {w}")
        };
        write!(out, ",{}", metadata("thread_name", w as u64, &label))?;
    }
    for ev in data.events() {
        write!(out, ",{}", chrome_event(ev, data.clock_hz))?;
    }
    steal_flows(data, |flow| write!(out, ",{flow}"))?;
    let mut other = vec![
        ("clock_hz".into(), Json::Num(data.clock_hz)),
        ("clock_source".into(), Json::str(data.clock_source.name())),
        ("makespan_cycles".into(), Json::UInt(data.makespan.get())),
        ("dropped_events".into(), Json::UInt(data.dropped())),
    ];
    if let Some(v) = violation {
        // Perfetto surfaces it in the trace-info dialog.
        other.push(("audit_violation".into(), Json::str(v)));
    }
    write!(out, "],\"otherData\":{}}}", Json::Obj(other))
}

/// [`write_trace`] into a string.
fn trace_string(data: &TraceData, violation: Option<&str>) -> String {
    let mut buf = Vec::new();
    write_trace(data, violation, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("the export is UTF-8")
}

/// Serialize a traced run as a Chrome trace-event JSON string (what
/// [`write_chrome_trace`] writes).
pub fn chrome_trace_json(data: &TraceData) -> String {
    trace_string(data, None)
}

/// Chrome trace for an audit flight recording: the regular export with
/// the violation message added to `otherData`, so the post-mortem file
/// is self-describing.
pub fn flight_trace_json(data: &TraceData, violation: &str) -> String {
    trace_string(data, Some(violation))
}

/// Render values as JSON Lines (one compact document per line).
pub fn jsonl<I: IntoIterator<Item = Json>>(lines: I) -> String {
    let mut out = String::new();
    for line in lines {
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::per_worker;
    use crate::StealPhase;
    use uat_base::{NodeId, WorkerId};

    fn sample_data() -> TraceData {
        let events = [
            TraceEvent::span(
                Cycles(0),
                Cycles(1_000),
                WorkerId(0),
                EventKind::Slice {
                    bucket: Bucket::Work,
                },
            ),
            TraceEvent::instant(
                Cycles(1_000),
                WorkerId(0),
                EventKind::Spawn {
                    parent: 1,
                    child: 2,
                },
            ),
            TraceEvent::span(
                Cycles(500),
                Cycles(300),
                WorkerId(1),
                EventKind::StealPhase {
                    victim: WorkerId(0),
                    phase: StealPhase::Lock,
                },
            ),
        ];
        TraceData {
            clock_hz: 1.848e9,
            clock_source: ClockSource::Simulated,
            workers: per_worker(2, 64, events),
            fabric: vec![TraceEvent::span(
                Cycles(600),
                Cycles(120),
                WorkerId(1),
                EventKind::RdmaOp {
                    op: crate::RdmaOpKind::FetchAdd,
                    target: NodeId(0),
                    bytes: 8,
                },
            )],
            makespan: Cycles(2_000),
        }
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_shape() {
        let data = sample_data();
        let text = chrome_trace_json(&data);
        let doc = Json::parse(&text).expect("exporter must emit valid JSON");
        let events = doc.field("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 2 thread_name + 4 events.
        assert_eq!(events.len(), 7);
        let phases: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("cat").map(|c| c.as_str().unwrap()) == Some("steal"))
            .collect();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].field("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(
            phases[0]
                .field("args")
                .unwrap()
                .field("dur_cycles")
                .unwrap()
                .as_u64()
                .unwrap(),
            300
        );
        assert_eq!(
            doc.field("otherData")
                .unwrap()
                .field("makespan_cycles")
                .unwrap()
                .as_u64()
                .unwrap(),
            2_000
        );
        assert_eq!(
            doc.field("otherData")
                .unwrap()
                .field("clock_source")
                .unwrap()
                .as_str()
                .unwrap(),
            "simulated"
        );
    }

    #[test]
    fn instants_use_instant_phase() {
        let data = sample_data();
        let doc = Json::parse(&chrome_trace_json(&data)).unwrap();
        let events = doc.field("traceEvents").unwrap().as_arr().unwrap();
        let spawn = events
            .iter()
            .find(|e| e.get("name").map(|n| n.as_str().unwrap()) == Some("spawn"))
            .unwrap();
        assert_eq!(spawn.field("ph").unwrap().as_str().unwrap(), "i");
        assert_eq!(spawn.field("s").unwrap().as_str().unwrap(), "t");
    }

    #[test]
    fn steal_phase_totals_sum_durations() {
        let data = sample_data();
        let totals = data.steal_phase_totals();
        assert_eq!(totals[StealPhase::Lock.index()], 300);
        assert_eq!(totals.iter().sum::<u64>(), 300);
    }

    #[test]
    fn completed_steals_get_flow_arrow_pairs() {
        let mut data = sample_data();
        data.workers = per_worker(
            2,
            64,
            [
                TraceEvent::instant(
                    Cycles(400),
                    WorkerId(0),
                    EventKind::DequePublish { task: 9, seq: 3 },
                ),
                TraceEvent::instant(
                    Cycles(900),
                    WorkerId(1),
                    EventKind::StealCommit { task: 9, seq: 3 },
                ),
                // An unmatched publication produces no dangling arrow.
                TraceEvent::instant(
                    Cycles(950),
                    WorkerId(0),
                    EventKind::DequePublish { task: 11, seq: 4 },
                ),
            ],
        );
        let doc = Json::parse(&chrome_trace_json(&data)).unwrap();
        let events = doc.field("traceEvents").unwrap().as_arr().unwrap();
        let flows: Vec<&Json> = events
            .iter()
            .filter(|e| {
                matches!(
                    e.get("ph").and_then(|p| p.as_str().ok()),
                    Some("s") | Some("f")
                )
            })
            .collect();
        assert_eq!(flows.len(), 2);
        let start = flows
            .iter()
            .find(|e| e.field("ph").unwrap().as_str().unwrap() == "s")
            .unwrap();
        let finish = flows
            .iter()
            .find(|e| e.field("ph").unwrap().as_str().unwrap() == "f")
            .unwrap();
        assert_eq!(start.field("id").unwrap().as_u64().unwrap(), 3);
        assert_eq!(finish.field("id").unwrap().as_u64().unwrap(), 3);
        assert_eq!(start.field("tid").unwrap().as_u64().unwrap(), 0);
        assert_eq!(finish.field("tid").unwrap().as_u64().unwrap(), 1);
        assert_eq!(finish.field("bp").unwrap().as_str().unwrap(), "e");
    }

    #[test]
    fn flight_export_carries_the_violation() {
        let data = sample_data();
        let doc = Json::parse(&flight_trace_json(&data, "audit: boom")).unwrap();
        assert_eq!(
            doc.field("otherData")
                .unwrap()
                .field("audit_violation")
                .unwrap()
                .as_str()
                .unwrap(),
            "audit: boom"
        );
        // Still a regular Chrome trace underneath.
        assert!(doc.field("traceEvents").unwrap().as_arr().unwrap().len() > 1);
    }

    #[test]
    fn jsonl_is_one_document_per_line() {
        let text = jsonl(vec![Json::UInt(1), Json::obj([("a", Json::Bool(true))])]);
        let mut lines = text.lines();
        assert_eq!(Json::parse(lines.next().unwrap()).unwrap(), Json::UInt(1));
        assert!(Json::parse(lines.next().unwrap()).is_ok());
        assert!(lines.next().is_none());
    }
}
