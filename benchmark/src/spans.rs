//! The harness's own spans: `name, start_ns, end_ns, parent`, recorded
//! around every call into a layer, kept in memory and written as a
//! Chrome trace when the run ends. Spans inside the program under test
//! are a later issue; this file only ever times calls from outside.

use std::time::Instant;
use uat_base::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder for one workload run (the workload name is
/// the id every span of the run shares).
pub struct Recorder {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str, epoch: Instant) -> Self {
        Recorder {
            workload: workload.to_string(),
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested under whichever span is
    /// open. Returns `f`'s result and the span's duration in seconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// [`timed`](Self::timed) without the duration.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.timed(name, f).0
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"X"`) event per span, ids and parents in `args`.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name.as_str())),
                    ("ph", Json::str("X")),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(1)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::UInt(i as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                            ),
                            ("workload", Json::str(self.workload.as_str())),
                            ("start_ns", Json::UInt(s.start_ns)),
                            ("end_ns", Json::UInt(s.end_ns)),
                            ("self_ns", Json::UInt(self.self_ns(i))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut r = Recorder::new("w", Instant::now());
        r.scope("outer", |r| {
            r.scope("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.scope("b", |_| ());
        });
        let s = &r.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let outer = s[0].end_ns - s[0].start_ns;
        let a = s[1].end_ns - s[1].start_ns;
        assert!(a >= 2_000_000);
        assert!(r.self_ns(0) <= outer - a);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut r = Recorder::new("sim.x", Instant::now());
        r.scope("setup", |r| r.scope("warmup", |_| ()));
        let text = r.chrome_trace().to_string();
        let back = Json::parse(&text).expect("round-trips");
        let ev = back.field("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].field("name").unwrap().as_str().unwrap(), "warmup");
        let args = ev[1].field("args").unwrap();
        assert_eq!(args.field("parent").unwrap().as_u64().unwrap(), 0);
        assert_eq!(args.field("workload").unwrap().as_str().unwrap(), "sim.x");
    }
}
