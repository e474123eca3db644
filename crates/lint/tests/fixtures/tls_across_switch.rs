//! Seeded-bad fixture for the TLS-across-suspension lint (rule A).
//!
//! This file reproduces the PR 6 bug class in miniature: a function
//! touches a thread-local on both sides of a suspension point
//! (`save_context_and_call`), and its TLS helper is inlinable. On a
//! resume that lands on a different OS thread, LLVM's CSE of the TLS
//! address hands the code the *previous* thread's state. The lint must
//! flag both the direct access (tls-in-crossing-fn) and the inlinable
//! helper (tls-helper-inlinable) — and the same for the two transfers
//! the runtimes make instead (`switch_to`, `switch_to_fresh`), while
//! the shape the runtimes actually have (an `#[inline(never)]`
//! accessor, re-called after the switch) passes.
//!
//! NOT compiled into the crate — parsed by tests/lint.rs only.

use std::cell::Cell;

thread_local! {
    static CURRENT_WORKER: Cell<*mut u8> = const { Cell::new(std::ptr::null_mut()) };
}

// BAD: no #[inline(never)] — the TLS access can be inlined into a
// frame that survives a context switch.
fn current() -> *mut u8 {
    CURRENT_WORKER.with(|c| c.get())
}

unsafe extern "C" {
    fn save_context_and_call(ctx: *mut u8, f: extern "C" fn(*mut u8), arg: *mut u8);
    fn switch_to(slot: *mut *mut u8, target: *mut u8);
    fn switch_to_fresh(
        slot: *mut *mut u8,
        sp: *mut u8,
        entry: extern "C" fn(*mut u8),
        arg: *mut u8,
    );
}

extern "C" fn tramp(_arg: *mut u8) {}

/// BAD twice over: reads the thread-local directly before and after the
/// suspension point, and also goes through the inlinable helper.
pub fn suspend_and_touch_tls() {
    let before = CURRENT_WORKER.with(|c| c.get());
    let mut ctx = 0u8;
    // SAFETY: [I5] fixture only; never executed.
    unsafe { save_context_and_call(&mut ctx, tramp, before) };
    // May run on a different OS thread now — both lookups below can be
    // CSE'd into the pre-switch address.
    let after = current();
    let direct = CURRENT_WORKER.with(|c| c.get());
    assert_eq!(after, direct);
}

/// BAD: a parking join that caches the worker across `switch_to` — the
/// runtime's `join_all` with the accessor inlined by hand.
pub fn park_and_touch_tls(sched: *mut u8) {
    let before = CURRENT_WORKER.with(|c| c.get());
    let mut slot = std::ptr::null_mut();
    // SAFETY: [I5] fixture only; never executed.
    unsafe { switch_to(&mut slot, sched) };
    assert_eq!(before, CURRENT_WORKER.with(|c| c.get()));
}

/// BAD: a spawn that does the same across `switch_to_fresh`.
pub fn spawn_and_touch_tls(sp: *mut u8) {
    let before = CURRENT_WORKER.with(|c| c.get());
    let mut slot = std::ptr::null_mut();
    // SAFETY: [I5] fixture only; never executed.
    unsafe { switch_to_fresh(&mut slot, sp, tramp, before) };
    assert_eq!(before, CURRENT_WORKER.with(|c| c.get()));
}

// GOOD: the TLS access is confined to a never-inlined accessor...
#[inline(never)]
fn current_fresh() -> *mut u8 {
    CURRENT_WORKER.with(|c| c.get())
}

/// ...which the crossing function calls again after the switch.
pub fn park_and_rederive(sched: *mut u8) {
    let before = current_fresh();
    let mut slot = std::ptr::null_mut();
    // SAFETY: [I5] fixture only; never executed.
    unsafe { switch_to(&mut slot, sched) };
    let _migrated = before != current_fresh();
}
