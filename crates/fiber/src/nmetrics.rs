//! Native-runtime metrics: the timed tier of the thread runtime, the
//! registry its counters are reported in, and the stall watchdog.
//!
//! The counters themselves are not here. Both real backends keep one
//! [`uat_metrics::shm::Row`] per worker — heartbeats, steals completed
//! and failed, parks, unparks, tasks and spawns — which the worker body
//! (`sched.rs`) bumps itself with single-writer stores; the thread
//! runtime keeps its rows on the heap, the multiprocess one in its
//! shared region. What this module adds, for the thread runtime:
//!
//! - **The timed tier**: TSC-stamped steal latency, task run length,
//!   park duration, and one [`uat_metrics::EventRing`] flight-recorder
//!   ring per worker. It is built only for a *metered* run
//!   (`with_metrics`, `NativeRunner::run_metered`, a sampler or a
//!   watchdog), and fed by each worker's observer (`ntrace::Observer`)
//!   with the same clamped stamps it gives the tracer, behind the
//!   place's one observation flag: a run that observes nothing builds
//!   neither tier nor registry, and its tasks pay nothing.
//! - **The registry view**: `MetricsShared::snapshot` assembles the
//!   rows with `SegmentLayout::snapshot`, as
//!   [`crate::MultiProcessRunner::run_metered`] does, followed by the
//!   registry's own instruments; at the end of a run
//!   `MetricsShared::deposit` adds the rows into the registry's
//!   counters, which `NativeRunner::run_metered` then snapshots, and so
//!   can a caller that passed its own registry to `with_metrics`.
//!
//! The **watchdog** rides the sampler thread: every worker bumps its
//! heartbeat cell once per scheduler-loop iteration (parked workers
//! still iterate every nap, so a live worker's epoch always advances
//! between samples). A busy worker need not visit that loop — the last
//! child to finish is handed its parked parent, so a worker can inherit
//! parent after parent for as long as there is work — which is why a
//! completed task counts as a pulse too. If one worker shows neither for
//! the whole stall window while other workers keep advancing, the
//! watchdog dumps a metrics snapshot plus every worker's flight ring and
//! — by default — aborts the process. This targets precisely the
//! `fib_across_worker_counts` flake precursor: a worker wedged on a
//! resumed-into-garbage context stops heartbeating long before the
//! segfault, and the dump says who and what it was last doing.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use uat_base::json::{Json, ToJson};
use uat_deque::NativeDeque;
use uat_metrics::shm::{self, Row, SegmentLayout, SEGMENT_COUNTERS};
use uat_metrics::{names, CachePadded, EventRing, Gauge, LogHistogram, Registry, Snapshot};

/// Per-worker flight-ring capacity (entries; 16 bytes each).
pub const FLIGHT_CAPACITY: usize = 4096;

/// Default sampler tick when a sampler or watchdog is enabled
/// without an explicit interval.
pub const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_millis(10);

/// Default stall window before the watchdog trips. Generous enough
/// that an oversubscribed single-CPU CI host never false-positives:
/// a live worker bumps its heartbeat every scheduler iteration
/// (parked ones every nap, which asks for 20 µs and returns after
/// ≈ 85 µs under the default timer slack), so a full second of
/// silence while siblings advance means genuinely wedged.
pub const DEFAULT_STALL_AFTER: Duration = Duration::from_secs(1);

/// Flight-ring event codes (the ring stores `u8`).
pub mod flight_code {
    /// A task began running.
    pub const TASK_BEGIN: u8 = 1;
    /// A task ran to completion.
    pub const TASK_END: u8 = 2;
    /// A steal attempt completed (payload: victim).
    pub const STEAL_OK: u8 = 3;
    /// A steal attempt aborted (payload: victim).
    pub const STEAL_FAIL: u8 = 4;
    /// The worker crossed the spin threshold and went to sleep.
    pub const PARK: u8 = 5;
    /// The worker woke from a park and found work.
    pub const UNPARK: u8 = 6;

    /// Display name for a code (unknown codes included, so a torn
    /// racy read still renders).
    pub fn name(code: u8) -> &'static str {
        match code {
            TASK_BEGIN => "task-begin",
            TASK_END => "task-end",
            STEAL_OK => "steal-ok",
            STEAL_FAIL => "steal-fail",
            PARK => "park",
            UNPARK => "unpark",
            _ => "?",
        }
    }
}

/// Run-wide state of the thread runtime's timed tier and registry view,
/// built only for a metered run.
pub(crate) struct MetricsShared {
    /// The registry the instruments below are registered in
    /// (caller-supplied via `Runtime::with_metrics`, else owned), which
    /// also receives the rows' counts when the run ends.
    pub(crate) registry: Arc<Registry>,
    /// End-to-end steal-attempt latency (cycles).
    pub(crate) steal_latency: Arc<LogHistogram>,
    /// Task run length (cycles).
    pub(crate) task_run: Arc<LogHistogram>,
    /// Park episode duration (cycles).
    pub(crate) park_duration: Arc<LogHistogram>,
    /// Sampled deque depths.
    deque_depth: Arc<LogHistogram>,
    /// Last sampled deque depth per worker.
    deque_depth_now: Arc<Gauge>,
    /// Per-worker flight-recorder rings, each head on a line of its own.
    pub(crate) flight: Vec<CachePadded<EventRing>>,
}

impl MetricsShared {
    /// The timed tier for `workers` workers. `registry` supplies an
    /// external registry (must be built for at least `workers` shards).
    pub(crate) fn new(workers: usize, registry: Option<Arc<Registry>>) -> Self {
        #[cfg(test)]
        tests::built();
        let registry = registry.unwrap_or_else(|| Arc::new(Registry::new(workers)));
        assert!(
            registry.workers() >= workers,
            "metrics registry built for {} shards but the runtime has {workers} workers",
            registry.workers(),
        );
        // The row counters first, in row order: a registry snapshot then
        // lists them as the multiprocess report does.
        for (name, help) in SEGMENT_COUNTERS {
            registry.counter(name, help);
        }
        MetricsShared {
            steal_latency: registry.histogram(
                names::STEAL_LATENCY,
                "End-to-end steal-attempt latency in TSC cycles",
            ),
            task_run: registry.histogram(
                names::TASK_RUN,
                "Task run length in TSC cycles, begin to completion",
            ),
            park_duration: registry
                .histogram(names::PARK_DURATION, "Park episode duration in TSC cycles"),
            deque_depth: registry.histogram(names::DEQUE_DEPTH, "Sampled deque depth distribution"),
            deque_depth_now: registry
                .gauge(names::DEQUE_DEPTH_NOW, "Most recently sampled deque depth"),
            flight: (0..workers.max(1))
                .map(|_| CachePadded(EventRing::new(FLIGHT_CAPACITY)))
                .collect(),
            registry,
        }
    }

    /// The run's metrics as they are now: the workers' `rows`, assembled
    /// as the multiprocess runner assembles its segment, then the
    /// registry's own instruments (not its row counters, which the rows
    /// stand in for until [`deposit`](Self::deposit)).
    pub(crate) fn snapshot(&self, rows: &[Row]) -> Snapshot {
        let words: Vec<u64> = rows.iter().flat_map(Row::words).collect();
        let mut snap = SegmentLayout::new(rows.len()).snapshot(&words);
        let own = self.registry.snapshot().metrics.into_iter();
        snap.metrics
            .extend(own.filter(|m| SEGMENT_COUNTERS.iter().all(|(n, _)| *n != m.name)));
        snap
    }

    /// Add a finished run's `rows` into the registry's counters: the
    /// registry then reports the run (plus whatever earlier runs it
    /// recorded) to a caller that snapshots it directly.
    pub(crate) fn deposit(&self, rows: &[Row]) {
        for (c, (name, help)) in SEGMENT_COUNTERS.iter().enumerate() {
            let counter = self.registry.counter(name, help);
            for (w, row) in rows.iter().enumerate() {
                counter.add(w, row[c].load(Ordering::Relaxed));
            }
        }
    }
}

/// What the watchdog does after dumping a stall.
#[derive(Clone, Debug)]
pub enum WatchdogAction {
    /// Fail loudly: abort the process after writing the dump. The
    /// production default — a wedged worker precedes memory-unsafe
    /// failure modes, and a post-mortem beats a later segfault.
    Abort,
    /// Record the dump in the report and let the run continue
    /// (tests; the watchdog disarms after the first trip).
    Report(Arc<WatchdogReport>),
}

/// Watchdog configuration for [`crate::Runtime::with_watchdog`].
#[derive(Clone, Debug)]
pub struct WatchdogCfg {
    /// How long one worker's heartbeat may freeze — while the other
    /// workers keep advancing — before the watchdog trips.
    pub stall_after: Duration,
    /// What to do on a trip.
    pub action: WatchdogAction,
}

impl Default for WatchdogCfg {
    fn default() -> Self {
        WatchdogCfg {
            stall_after: DEFAULT_STALL_AFTER,
            action: WatchdogAction::Abort,
        }
    }
}

/// Where [`WatchdogAction::Report`] deposits the trip, if any.
#[derive(Debug, Default)]
pub struct WatchdogReport {
    tripped: AtomicBool,
    dump: Mutex<Option<StallDump>>,
}

impl WatchdogReport {
    /// Whether the watchdog tripped.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// Take the dump recorded by the trip.
    pub fn take(&self) -> Option<StallDump> {
        self.dump.lock().unwrap().take()
    }
}

/// Everything the watchdog knows at the moment of a trip.
#[derive(Debug)]
pub struct StallDump {
    /// The worker whose heartbeat froze.
    pub worker: usize,
    /// Heartbeat epochs per worker at trip time.
    pub heartbeats: Vec<u64>,
    /// Frozen view of the run's metrics: every worker's row counters,
    /// then the registry's instruments.
    pub snapshot: Snapshot,
    /// Per-worker flight rings, oldest event first.
    pub flight: Vec<Vec<uat_metrics::FlightEvent>>,
}

impl StallDump {
    /// The dump as one JSON document (what the watchdog writes to
    /// disk and what `--metrics-json`-style tooling can re-read).
    pub fn to_json(&self) -> Json {
        let flight: Vec<Json> = self
            .flight
            .iter()
            .map(|ring| {
                Json::Arr(
                    ring.iter()
                        .map(|ev| {
                            Json::obj([
                                ("at", Json::UInt(ev.at)),
                                ("event", Json::str(flight_code::name(ev.code))),
                                ("payload", Json::UInt(ev.payload)),
                            ])
                        })
                        .collect(),
                )
            })
            .collect();
        Json::obj([
            ("stalled_worker", Json::UInt(self.worker as u64)),
            (
                "heartbeats",
                Json::Arr(self.heartbeats.iter().map(|&h| Json::UInt(h)).collect()),
            ),
            ("metrics", self.snapshot.to_json()),
            ("flight", Json::Arr(flight)),
        ])
    }
}

/// The sampler thread body: every `interval`, sample each worker's
/// deque depth into the gauge + histogram and — when `watchdog` is
/// set — check the workers' `rows` for a stalled worker. Returns when
/// `stop` is raised. The runtime passes the run's shutdown flag, which
/// a worker raises and on which every worker stops heartbeating: the
/// watchdog stands down the moment it can see the flag, so an orderly
/// exit is never read as a stall.
pub(crate) fn sampler_loop(
    ms: &MetricsShared,
    deques: &[NativeDeque<u64>],
    rows: &[Row],
    stop: &AtomicU32,
    interval: Duration,
    watchdog: Option<&WatchdogCfg>,
) {
    let workers = deques.len();
    let interval = interval.max(Duration::from_micros(100));
    let ticks_needed = watchdog
        .map(|wd| wd.stall_after.div_duration_f64(interval).ceil() as u32)
        .unwrap_or(u32::MAX)
        .max(2);
    let mut prev = vec![0u64; workers];
    let mut stalled = vec![0u32; workers];
    let mut others = vec![0u32; workers];
    let mut armed = watchdog.is_some();
    let cell =
        |c: usize| -> Vec<u64> { rows.iter().map(|r| r[c].load(Ordering::Relaxed)).collect() };
    loop {
        // Sleep in bounded chunks so a raised stop flag is honored
        // within ~10ms even under second-scale intervals. The chunk
        // is deliberately no smaller: on a single-CPU host every
        // sampler wake preempts a worker, so wake frequency — not
        // the sampling work — dominates the sampler's overhead.
        let mut slept = Duration::ZERO;
        while slept < interval {
            if stop.load(Ordering::Acquire) != 0 {
                return;
            }
            let chunk = (interval - slept).min(Duration::from_millis(10));
            std::thread::sleep(chunk);
            slept += chunk;
        }
        if stop.load(Ordering::Acquire) != 0 {
            return;
        }
        for (i, d) in deques.iter().enumerate() {
            let depth = d.len();
            ms.deque_depth_now.set(i, depth);
            ms.deque_depth.record(depth);
        }
        let Some(wd) = watchdog else { continue };
        let epochs = cell(shm::HEARTBEATS);
        // A worker's pulse: scheduler-loop iterations plus tasks
        // completed (a busy worker may go long without the former).
        let tasks = cell(shm::TASKS);
        // Cells read after the flag went up may show workers that
        // have left: only ones read before it are evidence.
        if stop.load(Ordering::Acquire) != 0 {
            return;
        }
        let pulse: Vec<u64> = epochs.iter().zip(&tasks).map(|(e, t)| e + t).collect();
        if armed {
            let advanced: Vec<bool> = pulse.iter().zip(&prev).map(|(a, b)| a != b).collect();
            for i in 0..workers {
                if advanced[i] {
                    stalled[i] = 0;
                    others[i] = 0;
                    continue;
                }
                stalled[i] += 1;
                if advanced.iter().enumerate().any(|(j, &a)| j != i && a) {
                    others[i] += 1;
                }
                // Trip: `i` silent for the whole window, every one of
                // those ticks saw some *other* worker advance (so the
                // machine is running — `i` alone is wedged).
                if stalled[i] >= ticks_needed && others[i] >= ticks_needed {
                    trip(ms, rows, i, &epochs, wd);
                    armed = false;
                    break;
                }
            }
        }
        prev = pulse;
    }
}

/// Dump the post-mortem and apply the configured action.
fn trip(ms: &MetricsShared, rows: &[Row], worker: usize, epochs: &[u64], wd: &WatchdogCfg) {
    let dump = StallDump {
        worker,
        heartbeats: epochs.to_vec(),
        snapshot: ms.snapshot(rows),
        flight: ms.flight.iter().map(|r| r.0.snapshot()).collect(),
    };
    eprintln!(
        "uat-fiber watchdog: worker {worker} heartbeat stalled for {:?} \
         while other workers advanced (epochs: {epochs:?})",
        wd.stall_after
    );
    let path = std::env::temp_dir().join(format!(
        "uat-watchdog-{}-w{worker}.json",
        std::process::id()
    ));
    match std::fs::write(&path, dump.to_json().pretty()) {
        Ok(()) => eprintln!("uat-fiber watchdog: dump written to {}", path.display()),
        Err(e) => eprintln!("uat-fiber watchdog: could not write dump: {e}"),
    }
    eprintln!("{}", dump.snapshot.prometheus_text());
    match &wd.action {
        WatchdogAction::Abort => {
            eprintln!("uat-fiber watchdog: aborting");
            std::process::abort();
        }
        WatchdogAction::Report(report) => {
            *report.dump.lock().unwrap() = Some(dump);
            report.tripped.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;

    thread_local!(static BUILT: Cell<u64> = const { Cell::new(0) });

    /// Count one timed tier built on this thread.
    pub(super) fn built() {
        BUILT.with(|n| n.set(n.get() + 1));
    }

    /// The timed tiers this thread has built.
    pub(crate) fn tiers() -> u64 {
        BUILT.with(Cell::get)
    }
}
