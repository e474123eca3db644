//! Deterministic parallel run harness.
//!
//! Simulation runs are pure functions of their `(SimConfig, Workload)`
//! inputs — each [`Engine`](crate::engine::Engine) owns its RNG (seeded
//! from the config) and all of its state, so independent runs share
//! nothing. That makes a fleet of runs embarrassingly parallel *and*
//! trivially deterministic: results depend only on each run's inputs,
//! never on which OS thread executed it or in what order runs finished.
//!
//! [`run_indexed`] is the primitive: it executes `job(0..n)` on a scoped
//! thread pool and returns the results **in index order**. Callers hand
//! out per-run seeds/configs by index, so the output is bit-identical at
//! any thread count — including 1, which is the serial baseline the
//! determinism tests compare against.
//!
//! Thread-count policy lives in [`sweep_threads`]: the host's available
//! parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of harness threads to use:
/// [`std::thread::available_parallelism`], or 1 where it is unknown.
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `job(i)` for every `i in 0..n` on up to `threads` scoped threads
/// and return the results in index order.
///
/// Work is claimed from a shared atomic counter (dynamic scheduling, so
/// one long run does not straggle a whole stripe), but each result lands
/// in its own slot — the output `Vec` is a pure function of `job`, not of
/// the schedule. `threads <= 1` (or `n <= 1`) degrades to a plain serial
/// loop on the calling thread with no pool at all.
pub fn run_indexed<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = job(i);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let got = run_indexed(17, threads, |i| i * i);
            let want: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let got: Vec<u32> = run_indexed(0, 4, |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn oversubscribed_pool_is_clamped() {
        // More threads than jobs must not deadlock or drop results.
        let got = run_indexed(3, 64, |i| i + 1);
        assert_eq!(got, vec![1, 2, 3]);
    }
}
