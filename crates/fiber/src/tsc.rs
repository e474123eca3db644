//! Cycle counting with `rdtsc`/`rdtscp` — the unit of Table 2 — plus
//! the calibrated, per-run-epoch [`RunClock`] that stamps native trace
//! events.
//!
//! The raw counter readers below are x86-64 only (like the rest of the
//! crate); [`RunClock`] additionally degrades gracefully: if calibration
//! detects a broken counter, it falls back to `std::time::Instant`
//! deltas at a nominal rate and *says so* via its [`ClockSource`], which
//! the trace exporters surface as metadata — honest timestamps or honest
//! labels, never silent garbage.

use std::arch::x86_64::{__cpuid, __rdtscp, _rdtsc};
use std::sync::OnceLock;
use std::time::Instant;
pub use uat_trace::ClockSource;

/// Serialize, then read the timestamp counter (measurement start).
#[inline]
pub fn start() -> u64 {
    // SAFETY: [I11] cpuid and rdtsc are unprivileged and have no memory
    // operands; this crate only builds on x86_64.
    unsafe {
        // CPUID serializes the pipeline so earlier instructions cannot
        // leak into the measured region.
        let _ = __cpuid(0);
        _rdtsc()
    }
}

/// Read the timestamp counter with `rdtscp` (measurement end); the
/// instruction waits for earlier instructions to retire.
#[inline]
pub fn stop() -> u64 {
    // SAFETY: [I11] rdtscp writes only through the provided aux pointer, which
    // points at a local; cpuid has no memory operands.
    unsafe {
        let mut aux = 0u32;
        let t = __rdtscp(&mut aux as *mut u32);
        let _ = __cpuid(0);
        t
    }
}

/// Read the timestamp counter without serializing the pipeline — the
/// cheap read used inside calibrated spin loops, where the fences of
/// [`start`]/[`stop`] would dwarf the interval being produced.
#[inline]
pub fn now() -> u64 {
    // SAFETY: [I11] rdtsc is unprivileged and has no memory operands; this
    // crate only builds on x86_64.
    unsafe { _rdtsc() }
}

/// Busy-spin for (at least) `cycles` timestamp-counter ticks — the
/// native interpretation of the task model's `Work(c)` action. The loop
/// re-reads the counter rather than counting iterations, so the delay
/// is calibrated in the same unit Table 2 measures in.
#[inline]
pub fn spin_cycles(cycles: u64) {
    if cycles == 0 {
        return;
    }
    let t0 = now();
    while now().wrapping_sub(t0) < cycles {
        std::hint::spin_loop();
    }
}

/// Measure the mean cycles of one call to `f`, amortized over `batch`
/// back-to-back calls, taking the minimum of `reps` batches (minimum
/// filters scheduler noise, batching amortizes the fence overhead).
pub fn measure<F: FnMut()>(mut f: F, batch: u64, reps: u64) -> f64 {
    assert!(batch > 0 && reps > 0);
    // Warm up caches and branch predictors.
    for _ in 0..batch {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = start();
        for _ in 0..batch {
            f();
        }
        let t1 = stop();
        let per = (t1.wrapping_sub(t0)) as f64 / batch as f64;
        if per < best {
            best = per;
        }
    }
    best
}

/// The nominal rate of the `Instant` fallback ([`ClockSource::Instant`]):
/// one "cycle" per nanosecond.
pub const INSTANT_HZ: f64 = 1e9;

/// Calibrate the TSC against the OS monotonic clock, once per process:
/// read both clocks, spin ~2 ms, read both again, and require the
/// implied rate to land in a plausible range (100 MHz – 100 GHz) with a
/// forward-moving counter. `None` means "do not trust this TSC".
fn calibrated_tsc_hz() -> Option<f64> {
    static HZ: OnceLock<Option<f64>> = OnceLock::new();
    *HZ.get_or_init(|| {
        let i0 = Instant::now();
        let t0 = start();
        while i0.elapsed() < std::time::Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let t1 = stop();
        let secs = i0.elapsed().as_secs_f64();
        let ticks = t1.wrapping_sub(t0);
        if t1 <= t0 || secs <= 0.0 {
            return None;
        }
        let hz = ticks as f64 / secs;
        (1e8..=1e11).contains(&hz).then_some(hz)
    })
}

/// A monotonic cycle clock with a per-run epoch: every reading is
/// "cycles since [`RunClock::start`] was called", comparable across the
/// run's worker threads because they share the one epoch. Backed by the
/// calibrated TSC when trustworthy, else by `Instant` (see
/// [`ClockSource`]). Raw TSC readings are *not* guaranteed monotone
/// across cores — per-worker consumers clamp (see the runtime's
/// tracer), which this type deliberately leaves to them so a single
/// shared `RunClock` needs no interior mutability on the hot path.
#[derive(Clone, Copy, Debug)]
pub struct RunClock {
    source: ClockSource,
    hz: f64,
    epoch_tsc: u64,
    epoch: Instant,
}

impl RunClock {
    /// Establish the run epoch: calibrate (first call only), pick the
    /// clock source, and record "time zero".
    pub fn start() -> Self {
        #[cfg(test)]
        tests::started();
        match calibrated_tsc_hz() {
            Some(hz) => RunClock {
                source: ClockSource::Tsc,
                hz,
                epoch_tsc: now(),
                epoch: Instant::now(),
            },
            None => RunClock {
                source: ClockSource::Instant,
                hz: INSTANT_HZ,
                epoch_tsc: 0,
                epoch: Instant::now(),
            },
        }
    }

    /// Cycles since the epoch. Cheap (one `rdtsc` on the TSC path); may
    /// regress by small amounts across core migrations — clamp per
    /// consumer if monotonicity is required.
    #[inline]
    pub fn now_cycles(&self) -> u64 {
        match self.source {
            ClockSource::Instant => (self.epoch.elapsed().as_secs_f64() * self.hz) as u64,
            // A run clock is never `Simulated`.
            _ => now().wrapping_sub(self.epoch_tsc),
        }
    }

    /// The calibrated cycle rate in Hz.
    pub fn hz(&self) -> f64 {
        self.hz
    }

    /// Which physical clock backs this run's timestamps.
    pub fn source(&self) -> ClockSource {
        self.source
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local!(static STARTED: Cell<u64> = const { Cell::new(0) });

    /// Count one run clock started on this thread.
    pub(super) fn started() {
        STARTED.with(|n| n.set(n.get() + 1));
    }

    /// The run clocks this thread has started.
    pub(crate) fn clocks() -> u64 {
        STARTED.with(Cell::get)
    }

    #[test]
    fn counter_is_monotonic_enough() {
        let a = start();
        let b = stop();
        assert!(b >= a, "tsc went backwards: {a} -> {b}");
    }

    #[test]
    fn measure_scales_with_work() {
        let short = measure(
            || {
                std::hint::black_box(1 + 1);
            },
            1000,
            20,
        );
        let long = measure(
            || {
                let mut x = 0u64;
                for i in 0..100 {
                    x = x.wrapping_add(std::hint::black_box(i));
                }
                std::hint::black_box(x);
            },
            1000,
            20,
        );
        assert!(long > short, "short={short}, long={long}");
        assert!((0.0..1_000.0).contains(&short), "short={short}");
    }

    #[test]
    fn run_clock_advances_at_a_sane_rate() {
        let clk = RunClock::start();
        let a = clk.now_cycles();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let b = clk.now_cycles();
        assert!(b > a, "run clock did not advance: {a} -> {b}");
        // 5 ms at >= 100 MHz is >= 500k cycles; at <= 100 GHz it is
        // <= 500M plus generous scheduling slack.
        let d = b - a;
        assert!(
            (100_000..50_000_000_000).contains(&d),
            "implausible 5ms delta: {d} cycles (source {:?}, {} Hz)",
            clk.source(),
            clk.hz()
        );
    }

    #[test]
    fn run_clock_reports_its_source_and_rate() {
        let clk = RunClock::start();
        match clk.source() {
            ClockSource::Tsc => assert!((1e8..=1e11).contains(&clk.hz())),
            ClockSource::Instant => assert_eq!(clk.hz(), INSTANT_HZ),
            ClockSource::Simulated => panic!("a run clock is never simulated"),
        }
        // Two clocks share the process-wide calibration.
        let clk2 = RunClock::start();
        assert_eq!(clk.source(), clk2.source());
        assert_eq!(clk.hz(), clk2.hz());
    }
}
