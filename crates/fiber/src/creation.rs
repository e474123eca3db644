//! The Table 2 microbenchmark: task creation overhead, in real cycles.
//!
//! The paper measures a spawn of a trivial child plus the return to the
//! parent — "the overhead of task creation consists of only save and
//! restoration of the parent thread and manipulations of the work
//! stealing queue" (Section 5.2) — on three systems:
//!
//! | strategy | models | mechanism |
//! |---|---|---|
//! | [`CreationStrategy::UniAddr`] | uni-address threads | Figure 4: `save_context_and_call`, push the parent entry, run the child on the same linear stack, pop |
//! | [`CreationStrategy::StackPool`] | MassiveThreads, and both real runtimes here | child gets a pooled stack: `switch_to_fresh` in, the child pushes the parent entry from its own stack, pops it, inline `resume_context` out — what a spawn pays in `runtime`/`mpruntime` |
//! | [`CreationStrategy::SeqCall`] | MIT Cilk's fast clone | push a queue entry, plain indirect call, pop — no context save |
//!
//! The ordering the paper reports (Cilk < uni-address ≈ MassiveThreads,
//! 100 vs 110 cycles) follows from the mechanisms; `table2_creation`
//! prints the measured numbers next to the paper's.

use crate::ctx::{resume_context, save_context_and_call, switch_to_fresh, Context};
use crate::stack::Stack;
use crate::tsc;
use std::ffi::c_void;
use uat_deque::NativeDeque;

/// Which creation mechanism to measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CreationStrategy {
    /// Figure 4: the uni-address creation path.
    UniAddr,
    /// MassiveThreads-like: child on a fresh pooled stack.
    StackPool,
    /// Cilk-like fast clone: push/call/pop, no context save.
    SeqCall,
}

impl CreationStrategy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CreationStrategy::UniAddr => "uni-address threads",
            CreationStrategy::StackPool => "MassiveThreads-like (stack pool)",
            CreationStrategy::SeqCall => "Cilk-like (seq call)",
        }
    }
}

/// The trivial child body. `#[inline(never)]` so every strategy pays one
/// real call, as the paper's benchmark child does.
#[inline(never)]
fn child_body(counter: &mut u64) {
    *counter = std::hint::black_box(*counter + 1);
}

struct UniArgs<'a> {
    deque: &'a NativeDeque<u64>,
    counter: &'a mut u64,
}

/// Figure 4's `do_create_thread`, specialized to the benchmark child.
unsafe extern "C" fn do_create_uniaddr(ctx: *mut Context, arg: *mut c_void) {
    // SAFETY: [I8] arg is the UniArgs the caller stack-allocated and it
    // outlives this call (save_context_and_call is synchronous here).
    let args = unsafe { &mut *(arg as *mut UniArgs<'_>) };
    // Push the parent thread (taskq entry = the context pointer).
    args.deque.push(ctx as u64);
    // Start the child thread on this same stack.
    child_body(args.counter);
    // Pop the parent thread. In the single-worker microbench it is
    // always still there (nobody steals), so we return normally and the
    // save_context_and_call epilogue restores the parent.
    let popped = args.deque.pop();
    debug_assert_eq!(popped, Some(ctx as u64));
}

struct PoolArgs<'a> {
    deque: &'a NativeDeque<u64>,
    counter: *mut u64,
    /// The parent's saved context: the slot of the `switch_to_fresh`.
    parent: *mut Context,
}

/// The runtimes' `child_main`, specialized to the benchmark child: push
/// the parent entry from the child's own stack, run, pop, resume.
unsafe extern "C" fn pool_child_main(arg: *mut c_void, _: *mut c_void) -> ! {
    // SAFETY: [I8] arg outlives the child (parent frame is suspended).
    let args = unsafe { &*(arg as *mut PoolArgs<'_>) };
    args.deque.push(args.parent as u64);
    // SAFETY: [I8] counter points at the measuring frame's live u64.
    child_body(unsafe { &mut *args.counter });
    let parent = args.deque.pop().expect("parent not stolen in microbench");
    // SAFETY: [I5] the parent context is intact on its own stack.
    unsafe { resume_context(parent as *mut Context, std::ptr::null_mut()) }
}

/// Measure mean creation cycles for `strategy` (min-of-batches, like the
/// paper's averaging of a hot loop).
pub fn measure_creation(strategy: CreationStrategy, batch: u64, reps: u64) -> f64 {
    let deque: NativeDeque<u64> = NativeDeque::new(64);
    let mut counter = 0u64;
    match strategy {
        CreationStrategy::SeqCall => tsc::measure(
            || {
                deque.push(0xC0FFEE);
                child_body(&mut counter);
                let popped = deque.pop();
                debug_assert_eq!(popped, Some(0xC0FFEE));
            },
            batch,
            reps,
        ),
        CreationStrategy::UniAddr => tsc::measure(
            || {
                let mut args = UniArgs {
                    deque: &deque,
                    counter: &mut counter,
                };
                // SAFETY: [I5][I8] do_create_uniaddr returns normally (single
                // worker, no theft) and args outlives the call.
                unsafe {
                    save_context_and_call(
                        std::ptr::null_mut(),
                        do_create_uniaddr,
                        &mut args as *mut UniArgs<'_> as *mut c_void,
                    );
                }
            },
            batch,
            reps,
        ),
        CreationStrategy::StackPool => {
            // One stack reused across iterations — the pool hit path,
            // which is what a steady-state MassiveThreads spawn pays.
            let stack = Stack::new(64 << 10);
            tsc::measure(
                || {
                    let mut args = PoolArgs {
                        deque: &deque,
                        counter: &mut counter,
                        parent: std::ptr::null_mut(),
                    };
                    // SAFETY: [I5][I6][I8][I9] the top of a live pooled
                    // stack is 16-byte aligned; pool_child_main diverges,
                    // back into the context saved here; args outlives
                    // the round trip.
                    unsafe {
                        switch_to_fresh(
                            &raw mut args.parent,
                            stack.top(),
                            pool_child_main,
                            &raw mut args as *mut c_void,
                            std::ptr::null_mut(),
                        );
                    }
                },
                batch,
                reps,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_run_the_child() {
        // Smoke: each strategy round-trips without corrupting the stack.
        for s in [
            CreationStrategy::SeqCall,
            CreationStrategy::UniAddr,
            CreationStrategy::StackPool,
        ] {
            let c = measure_creation(s, 100, 3);
            assert!(c > 0.0 && c < 100_000.0, "{s:?}: {c} cycles");
        }
    }

    #[test]
    fn ordering_matches_table2() {
        // Table 2's qualitative result: seq-call (Cilk) is the cheapest;
        // the context-saving strategies cost more. The gap is a handful
        // of cycles, so on a noisy/virtualized box a single measurement
        // can flip — require the ordering to hold on any of a few
        // attempts rather than exactly the first.
        let mut last = (0.0, 0.0);
        let ordered = (0..5).any(|_| {
            let seq = measure_creation(CreationStrategy::SeqCall, 2_000, 15);
            let uni = measure_creation(CreationStrategy::UniAddr, 2_000, 15);
            last = (seq, uni);
            seq < uni
        });
        assert!(
            ordered,
            "Cilk-like ({:.0}) should undercut uni-address ({:.0})",
            last.0, last.1
        );
        // And uni-address creation is still lightweight: the paper
        // measures 100 cycles on a Xeon; allow a wide band for
        // virtualized/noisy environments.
        assert!(
            last.1 < 2_000.0,
            "uni-address creation {:.0} cycles",
            last.1
        );
    }

    #[test]
    fn pooled_stack_creation_is_level_with_uni_address() {
        // Table 2's other result: MassiveThreads at 1.1x uni-address
        // (110 vs 100 cycles). Both rows save and restore one context
        // and push and pop one entry; the pooled-stack row adds a stack
        // switch, which is a register move. A dead `call` or an extra
        // `ret` on the way — a trampoline, an out-of-line
        // `resume_context` — puts the CPU's return predictor out of
        // step and shows here as 1.8-1.9x. Same any-of-a-few-attempts
        // form as above.
        let mut last = (0.0, 0.0);
        let level = (0..5).any(|_| {
            let uni = measure_creation(CreationStrategy::UniAddr, 2_000, 15);
            let pool = measure_creation(CreationStrategy::StackPool, 2_000, 15);
            last = (uni, pool);
            pool <= 1.35 * uni
        });
        assert!(
            level,
            "pooled-stack creation ({:.0}) should be within 1.35x of uni-address ({:.0})",
            last.1, last.0
        );
    }
}
