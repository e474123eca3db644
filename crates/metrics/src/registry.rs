//! Named metric registry.
//!
//! A [`Registry`] is created once per run with the worker count; hot
//! paths hold `Arc`s to the individual [`Counter`]s / [`Gauge`]s /
//! [`LogHistogram`]s (no name lookup after registration), while
//! exporters call [`Registry::snapshot`] to freeze a coherent-enough
//! view at the end of a run.

use std::sync::{Arc, Mutex};

use crate::hist::HistSnapshot;
use crate::{Counter, Gauge, LogHistogram};
use uat_base::json::{Json, ToJson};

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LogHistogram>),
}

struct Entry {
    name: String,
    help: String,
    instrument: Instrument,
}

/// A named collection of metrics for one run.
pub struct Registry {
    workers: usize,
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// A registry whose sharded metrics get one shard per worker.
    pub fn new(workers: usize) -> Self {
        Registry {
            workers: workers.max(1),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Worker (shard) count this registry was built for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().expect("metrics registry poisoned")
    }

    /// Get or create the counter `name`. Panics if `name` is already
    /// registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut entries = self.lock();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match &e.instrument {
                Instrument::Counter(c) => return Arc::clone(c),
                _ => panic!("metric {name} already registered with a different kind"),
            }
        }
        let c = Arc::new(Counter::new(self.workers));
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            instrument: Instrument::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Get or create the gauge `name`. Panics on a kind mismatch.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut entries = self.lock();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match &e.instrument {
                Instrument::Gauge(g) => return Arc::clone(g),
                _ => panic!("metric {name} already registered with a different kind"),
            }
        }
        let g = Arc::new(Gauge::new(self.workers));
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            instrument: Instrument::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Get or create the histogram `name`. Panics on a kind mismatch.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<LogHistogram> {
        let mut entries = self.lock();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match &e.instrument {
                Instrument::Histogram(h) => return Arc::clone(h),
                _ => panic!("metric {name} already registered with a different kind"),
            }
        }
        let h = Arc::new(LogHistogram::new());
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            instrument: Instrument::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Freeze every registered metric. Concurrent updates land in this
    /// snapshot or the next — each shard read is atomic, so nothing
    /// tears and counters never go backwards across snapshots.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self
            .lock()
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                help: e.help.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => ValueSnapshot::Counter {
                        per_worker: c.per_worker(),
                    },
                    Instrument::Gauge(g) => ValueSnapshot::Gauge {
                        per_worker: g.per_worker(),
                    },
                    Instrument::Histogram(h) => ValueSnapshot::Histogram(h.snapshot()),
                },
            })
            .collect();
        Snapshot { metrics }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("workers", &self.workers)
            .field("metrics", &self.lock().len())
            .finish()
    }
}

/// One metric's frozen value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValueSnapshot {
    /// Monotone counter shards, indexed by worker.
    Counter {
        /// Shard values, indexed by worker.
        per_worker: Vec<u64>,
    },
    /// Gauge shards, indexed by worker.
    Gauge {
        /// Shard values, indexed by worker.
        per_worker: Vec<u64>,
    },
    /// A frozen histogram.
    Histogram(HistSnapshot),
}

impl ValueSnapshot {
    /// Aggregate value: shard sum for counters/gauges, sample count for
    /// histograms.
    pub fn total(&self) -> u64 {
        match self {
            ValueSnapshot::Counter { per_worker } | ValueSnapshot::Gauge { per_worker } => {
                per_worker.iter().sum()
            }
            ValueSnapshot::Histogram(h) => h.count(),
        }
    }
}

/// A named frozen metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// Metric name (Prometheus-style, e.g. `uat_steals_completed_total`).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// The frozen value.
    pub value: ValueSnapshot,
}

/// A frozen view of a whole [`Registry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Every registered metric, in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Look up one metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Aggregate value of `name` (see [`ValueSnapshot::total`]);
    /// 0 when absent.
    pub fn total(&self, name: &str) -> u64 {
        self.get(name).map_or(0, |m| m.value.total())
    }

    /// Per-worker shard values of a counter or gauge; `None` for
    /// histograms or absent names.
    pub fn per_worker(&self, name: &str) -> Option<&[u64]> {
        match &self.get(name)?.value {
            ValueSnapshot::Counter { per_worker } | ValueSnapshot::Gauge { per_worker } => {
                Some(per_worker)
            }
            ValueSnapshot::Histogram(_) => None,
        }
    }

    /// The frozen histogram registered as `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        match &self.get(name)?.value {
            ValueSnapshot::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

impl ToJson for Snapshot {
    fn to_json(&self) -> Json {
        let metrics: Vec<Json> = self
            .metrics
            .iter()
            .map(|m| {
                let (kind, value) = match &m.value {
                    ValueSnapshot::Counter { per_worker } => (
                        "counter",
                        Json::obj([
                            ("total", Json::UInt(per_worker.iter().sum())),
                            (
                                "per_worker",
                                Json::Arr(per_worker.iter().map(|&v| Json::UInt(v)).collect()),
                            ),
                        ]),
                    ),
                    ValueSnapshot::Gauge { per_worker } => (
                        "gauge",
                        Json::obj([
                            ("total", Json::UInt(per_worker.iter().sum())),
                            (
                                "per_worker",
                                Json::Arr(per_worker.iter().map(|&v| Json::UInt(v)).collect()),
                            ),
                        ]),
                    ),
                    ValueSnapshot::Histogram(h) => ("histogram", h.to_json()),
                };
                Json::obj([
                    ("name", Json::str(&m.name)),
                    ("help", Json::str(&m.help)),
                    ("kind", Json::str(kind)),
                    ("value", value),
                ])
            })
            .collect();
        Json::obj([("metrics", Json::Arr(metrics))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new(2);
        let a = r.counter("uat_steals_total", "steals");
        let b = r.counter("uat_steals_total", "steals");
        a.inc(0);
        b.inc(1);
        assert_eq!(r.snapshot().total("uat_steals_total"), 2);
        assert_eq!(r.snapshot().metrics.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new(2);
        r.counter("uat_x", "");
        r.gauge("uat_x", "");
    }

    #[test]
    fn json_export_names_every_metric() {
        let r = Registry::new(1);
        r.counter("uat_a_total", "a");
        r.histogram("uat_b_cycles", "b").record(42);
        let json = r.snapshot().to_json();
        let text = json.pretty();
        assert!(text.contains("uat_a_total"));
        assert!(text.contains("uat_b_cycles"));
        // Round-trips through the parser.
        uat_base::json::Json::parse(&text).unwrap();
    }
}
