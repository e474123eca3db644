//! Prometheus text exposition for [`Snapshot`].
//!
//! Counters and gauges are emitted per worker (label `worker="N"`);
//! histograms use the standard cumulative `_bucket{le="..."}` series,
//! listing only populated buckets plus the mandatory `+Inf` rail, with
//! `_sum` and `_count`. The output parses under the Prometheus text
//! format v0.0.4 (one scrape's worth — this crate has no HTTP listener;
//! the bins print it to stderr).

use std::fmt::Write as _;

use crate::hist::bucket_upper;
use crate::registry::{Snapshot, ValueSnapshot};

impl Snapshot {
    /// Render the whole snapshot in Prometheus text format.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            if !m.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            }
            match &m.value {
                ValueSnapshot::Counter { per_worker } => {
                    let _ = writeln!(out, "# TYPE {} counter", m.name);
                    for (w, v) in per_worker.iter().enumerate() {
                        let _ = writeln!(out, "{}{{worker=\"{w}\"}} {v}", m.name);
                    }
                }
                ValueSnapshot::Gauge { per_worker } => {
                    let _ = writeln!(out, "# TYPE {} gauge", m.name);
                    for (w, v) in per_worker.iter().enumerate() {
                        let _ = writeln!(out, "{}{{worker=\"{w}\"}} {v}", m.name);
                    }
                }
                ValueSnapshot::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {} histogram", m.name);
                    let mut cumulative = 0u64;
                    for (i, &c) in h.buckets().iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {cumulative}",
                            m.name,
                            bucket_upper(i)
                        );
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", m.name, h.count());
                    let _ = writeln!(out, "{}_sum {}", m.name, h.sum());
                    let _ = writeln!(out, "{}_count {}", m.name, h.count());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn prometheus_text_shape() {
        let r = Registry::new(2);
        let c = r.counter("uat_steals_completed_total", "Completed steals.");
        c.add(0, 3);
        c.add(1, 4);
        let g = r.gauge("uat_deque_depth", "Entries in each worker's deque.");
        g.set(1, 9);
        let h = r.histogram("uat_steal_latency_cycles", "Steal latency.");
        h.record(10);
        h.record(10);
        h.record(5_000);

        let text = r.snapshot().prometheus_text();
        assert!(text.contains("# TYPE uat_steals_completed_total counter"));
        assert!(text.contains("uat_steals_completed_total{worker=\"0\"} 3"));
        assert!(text.contains("uat_steals_completed_total{worker=\"1\"} 4"));
        assert!(text.contains("# TYPE uat_deque_depth gauge"));
        assert!(text.contains("uat_deque_depth{worker=\"1\"} 9"));
        assert!(text.contains("# TYPE uat_steal_latency_cycles histogram"));
        assert!(text.contains("uat_steal_latency_cycles_bucket{le=\"10\"} 2"));
        assert!(text.contains("uat_steal_latency_cycles_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("uat_steal_latency_cycles_sum 5020"));
        assert!(text.contains("uat_steal_latency_cycles_count 3"));
        // Cumulative: the second populated bucket's value includes the first.
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("uat_steal_latency_cycles_bucket"))
            .collect();
        assert_eq!(lines.len(), 3); // two populated + +Inf
        assert!(lines[1].ends_with(" 3"));
    }
}
