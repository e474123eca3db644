//! The idle path, defined once for both real backends (DESIGN.md
//! §11.5, §13.4, [I20]): what a worker with nothing to run does, who
//! decides that the run is over, and how whoever waits for that sleeps.
//!
//! The paper gives service work a core of its own, and every protocol it
//! runs is one-sided: the party with nothing to do pays. Termination
//! follows the same rule here. No coordinator polls the workers; a
//! worker that is about to nap — and so has nothing better to do — runs
//! the termination scan ([`quiescent`]), and the first whose scan passes
//! raises the run's shutdown flag itself. The thread backend's caller
//! then only has its `JoinHandle::join`s to return from; the
//! multiprocess coordinator sleeps in [`futex_wait`] on the flag's word
//! and is woken by that worker's [`futex_wake`].
//!
//! The scan runs once before each nap, never per failed steal: a thief
//! that missed is about to try again, and a scan there would pull every
//! victim's per-task termination cells across the machine once a round
//! ([I17]).

use libc::{syscall, SYS_futex};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Rounds that find nothing before a worker stops yielding and naps.
const SPIN_LIMIT: u32 = 64;
/// The sleep a parked worker asks for between looks. The kernel's timer
/// slack stretches it: under the default 50 µs slack, 2 000 of these
/// sleeps on a 2-vCPU Xeon guest (Linux 6.18) returned after 77–85 µs
/// (p10–p90; median 78 µs), so a parked worker looks about every 80 µs.
const NAP: Duration = Duration::from_micros(20);

/// One worker's idle state: consecutive empty rounds, and whether they
/// have crossed [`SPIN_LIMIT`] (the worker is *parked*: it naps between
/// rounds until it finds work).
#[derive(Default)]
pub(crate) struct Idle {
    spins: u32,
    parked: bool,
}

impl Idle {
    /// This round found work. True iff that ends a park, for the
    /// caller's unpark accounting.
    #[inline]
    pub(crate) fn found(&mut self) -> bool {
        self.spins = 0;
        std::mem::take(&mut self.parked)
    }

    /// This round found nothing: yield, or past the spin limit nap —
    /// after one `scan`, whose passing means the run is over and is
    /// returned as true instead (the caller raises shutdown). `on_park`
    /// is the caller's accounting of the transition into a park, run
    /// before its first nap.
    #[inline]
    pub(crate) fn missed(&mut self, scan: impl FnOnce() -> bool, on_park: impl FnOnce()) -> bool {
        self.spins = self.spins.saturating_add(1);
        if self.spins <= SPIN_LIMIT {
            std::thread::yield_now();
            return false;
        }
        if scan() {
            return true;
        }
        if !self.parked {
            self.parked = true;
            on_park();
        }
        std::thread::sleep(NAP);
        false
    }
}

/// Termination detection over per-worker monotonic cells: read every
/// `completed` cell, *then* every `spawned` cell; the run is over iff
/// the sums are equal once the root — spawned by nobody — is counted.
/// Any thread may scan, a worker included (its own cells are two of the
/// cells).
///
/// Why a match cannot be a false quiescence. Let `D` be the tasks whose
/// completion tick pass 1 read. A task's spawn tick happens-before its
/// own first instruction, and every `spawn` a task calls happens-before
/// that task's completion tick. Completion ticks are Release stores and
/// pass 1 loads them with Acquire, so by the time pass 2 runs, the
/// spawn tick of every non-root task in `D` *and of every child of a
/// task in `D`* is visible to it (cells are monotonic, so a later value
/// only counts more). Hence `1 + spawned >= |D ∪ children(D) ∪ {root}|`,
/// and `1 + spawned == completed = |D|` forces `D` to contain the root
/// and be closed under children: `D` is the whole tree. The order of
/// the passes is the point — `spawned` first could count a parent, miss
/// the child it spawns next, and then count that child's completion.
/// (One live counter sharded into ±1 cells cannot be scanned soundly at
/// all: a sum can take a `+1` from before a spawn on one worker and the
/// `-1` of that task's completion on another, and read zero mid-run.)
/// `uat_check`'s `termination` scenarios explore exactly this, under SC
/// and release/acquire, with both mutations seeded.
pub(crate) fn quiescent<'a>(
    completed: impl Iterator<Item = &'a AtomicU64>,
    spawned: impl Iterator<Item = &'a AtomicU64>,
) -> bool {
    let completed: u64 = completed.map(|c| c.load(Ordering::Acquire)).sum();
    let spawned: u64 = spawned.map(|c| c.load(Ordering::Acquire)).sum();
    completed == 1 + spawned
}

// `FUTEX_WAIT` / `FUTEX_WAKE` without `FUTEX_PRIVATE_FLAG`: the
// multiprocess shutdown word lives in a `MAP_SHARED` region and is
// waited on in one process and woken from another.
const FUTEX_WAIT: i32 = 0;
const FUTEX_WAKE: i32 = 1;

/// Sleep until `word` is woken, is seen not to hold `expected`, or
/// `timeout` has passed — whichever comes first, or a signal; the
/// caller re-reads the word.
pub(crate) fn futex_wait(word: &AtomicU32, expected: u32, timeout: Duration) {
    // The kernel's `struct timespec` on x86-64: seconds, nanoseconds.
    let ts: [i64; 2] = [timeout.as_secs() as i64, timeout.subsec_nanos() as i64];
    // SAFETY: [I20] `word` and `ts` are live for the whole call and the
    // kernel only reads them; every outcome is a reason to re-check.
    unsafe { syscall(SYS_futex, word.as_ptr(), FUTEX_WAIT, expected, ts.as_ptr()) };
}

/// Wake every [`futex_wait`]er on `word`, in any process that maps it.
pub(crate) fn futex_wake(word: &AtomicU32) {
    // SAFETY: [I20] `word` is live; the kernel does not dereference it
    // for a wake, only keys its wait queue by it.
    unsafe { syscall(SYS_futex, word.as_ptr(), FUTEX_WAKE, i32::MAX) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn spins_to_the_limit_then_scans_once_before_every_nap() {
        let mut idle = Idle::default();
        let (mut scans, mut parks) = (0u32, 0u32);
        for round in 1..=SPIN_LIMIT + 3 {
            let over = idle.missed(
                || {
                    scans += 1;
                    false
                },
                || parks += 1,
            );
            assert!(!over);
            assert_eq!(scans, round.saturating_sub(SPIN_LIMIT), "round {round}");
        }
        assert_eq!(parks, 1, "one park per idle episode");
        // Finding work ends the park, once, and the spin count with it.
        assert!(idle.found());
        assert!(!idle.found());
        assert!(!idle.missed(|| unreachable!("spinning again"), || unreachable!()));
    }

    #[test]
    fn a_passing_scan_ends_the_run_without_counting_a_park() {
        let mut idle = Idle::default();
        for _ in 0..SPIN_LIMIT {
            assert!(!idle.missed(|| unreachable!("still spinning"), || unreachable!()));
        }
        assert!(idle.missed(|| true, || unreachable!("the run is over")));
    }

    #[test]
    fn scan_counts_the_root_and_reads_completed_first() {
        let cells = |v: &[u64]| v.iter().map(|&x| AtomicU64::new(x)).collect::<Vec<_>>();
        let (done, spawned) = (cells(&[3, 0, 4]), cells(&[2, 4, 0]));
        assert!(quiescent(done.iter(), spawned.iter()));
        spawned[1].store(5, Ordering::Relaxed);
        assert!(!quiescent(done.iter(), spawned.iter()));
        // Nothing has run yet: the root alone keeps the scan from passing.
        let zero = cells(&[0, 0]);
        assert!(!quiescent(zero.iter(), zero.iter()));
        // Pass order: every `completed` cell is read before any `spawned`.
        let order = std::cell::RefCell::new(Vec::new());
        let tagged = |tag: char| {
            let order = &order;
            done.iter().inspect(move |_| order.borrow_mut().push(tag))
        };
        quiescent(tagged('c'), tagged('s'));
        assert_eq!(order.into_inner(), ['c', 'c', 'c', 's', 's', 's']);
    }

    #[test]
    fn futex_wait_returns_on_wake_on_mismatch_and_on_timeout() {
        let word = Arc::new(AtomicU32::new(0));
        // Timeout: nobody wakes, the word keeps its value.
        let t0 = Instant::now();
        futex_wait(&word, 0, Duration::from_millis(5));
        assert!(t0.elapsed() >= Duration::from_millis(5));
        // Mismatch: returns at once however long the timeout.
        let t0 = Instant::now();
        futex_wait(&word, 1, Duration::from_secs(30));
        assert!(t0.elapsed() < Duration::from_secs(5));
        // Wake: the store is what the waiter re-reads; a wake that beats
        // the wait is caught by the value check instead.
        let w2 = Arc::clone(&word);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            w2.store(1, Ordering::Release);
            futex_wake(&w2);
        });
        let t0 = Instant::now();
        while word.load(Ordering::Acquire) == 0 {
            futex_wait(&word, 0, Duration::from_secs(30));
        }
        assert!(t0.elapsed() < Duration::from_secs(5));
        waker.join().expect("waker thread");
    }
}
