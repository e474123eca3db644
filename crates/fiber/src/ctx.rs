//! The context switch: the paper's Appendix A listing, and the two
//! transfers the runtimes make.
//!
//! **The paper's listing.** `save_context_and_call(parent, f, arg)`
//! pushes the parent-context pointer, the six callee-saved registers,
//! the stack pointer and a resume address onto the *current* stack —
//! that 72-byte record *is* the [`Context`] — then calls `f(ctx, arg)`
//! on the same stack. If `f` returns normally, the record is popped and
//! the function returns to its caller. Alternatively, any thread that
//! owns the record (possibly another worker, possibly after the
//! record's stack bytes were copied back into place) can jump into it
//! with `resume_context(ctx, _)`, which lands at the same epilogue.
//! `switch_stack_and_call` is Figure 7's `CALL_WITH_SAFE_SP`. The two
//! are kept instruction for instruction for what they are: Table 2's
//! Figure 4 row ([`creation`](crate::creation)) and the root package's
//! `cross_process_steal` example run them. This is the entire
//! machinery the paper needs from assembly ("The library is implemented
//! in C++ and a few assembly codes", Section 7).
//!
//! **The runtimes' two.** Both real backends run every task on a stack
//! of its own, and composing the listing for that — save, `call` a
//! trampoline, switch, `call` the entry, … `call resume_context`, `ret`,
//! `ret` — enters a child through four `call`s that never return and
//! comes back through two `ret`s that answer none of them. The CPU
//! predicts a `ret` from a stack of the `call`s it has seen; every dead
//! `call` leaves an entry no `ret` will match, and every extra `ret`
//! pops one that belonged to the spawner's callers, so the spawner's
//! whole call chain mispredicts its way back out. `switch_to_fresh` and
//! `switch_to` are the same record and the same epilogue with **no
//! `call` inside and no `ret` but the one that answers the caller's
//! `call`**; what used to be a trampoline's job — "put the context
//! somewhere private, then switch" — is the `slot` argument, and
//! [`resume_context`] is an inlined `mov`/`pop`/`jmp` that pushes
//! nothing. A spawn nobody steals is then one `call` and one `ret` with
//! everything the child did in between balanced, and predicts like a
//! function call. Measured in Table 2's pooled-stack loop on the
//! development host (no `perf` there, so differentially; EXPERIMENTS.md
//! "the residue after the frame was the return predictor"): the
//! composition 104 cycles; `resume_context` alone as `pop; jmp` 85; the
//! epilogue's `ret` as a jump too 57 — but that leaves four dead
//! entries per spawn for the spawner's own returns to trip over, and
//! gave `btc_fine.native` 1.18x where this shape, also 57 and level
//! with the uni-address row (55), gives 1.5x. A resume that really does
//! change context (a steal, a park, the scheduler) still mispredicts
//! the epilogue's one `ret`, as it always has.
//!
//! **What a transfer hands over.** Every resume passes one pointer in
//! `%rax`, and the epilogue leaves `%rax` alone, so the routine that
//! saved the record returns it: `switch_to_fresh` and `switch_to` return
//! what their resumer passed, and a fresh entry gets its starter's as
//! its second argument — Boost.Context's `transfer_t`, one register
//! wide. The runtimes pass the worker the resumed code now runs on
//! (`sched.rs`, "Finding the worker"), so no task looks it up; the
//! paper's listing has no use for the value, and its callers pass null.

use std::arch::{asm, global_asm};

/// The 72-byte on-stack context record (Appendix A's `context_t`).
///
/// Field order matches the push sequence in the assembly below — do not
/// reorder.
#[repr(C)]
#[derive(Debug)]
pub struct Context {
    /// Resume instruction pointer (the saving routine's epilogue).
    pub rip: u64,
    /// Saved stack pointer; always equals the address of this record.
    pub rsp: u64,
    /// Callee-saved registers.
    pub rbp: u64,
    /// Callee-saved.
    pub rbx: u64,
    /// Callee-saved.
    pub r12: u64,
    /// Callee-saved.
    pub r13: u64,
    /// Callee-saved.
    pub r14: u64,
    /// Callee-saved.
    pub r15: u64,
    /// The parent thread's context (Figure 4's bookkeeping); null in a
    /// record saved by `switch_to_fresh` or `switch_to`.
    pub parent: *mut Context,
}

/// `f(ctx, arg)` — the function `save_context_and_call` transfers to.
pub type ContextFn = unsafe extern "C" fn(*mut Context, *mut core::ffi::c_void);

unsafe extern "C" {
    /// Save the current continuation as a [`Context`] on this stack and
    /// call `f(ctx, arg)`.
    ///
    /// Returns when either `f` returns normally or someone calls
    /// [`resume_context`] on `ctx`.
    ///
    /// # Safety
    /// `f` must either return normally exactly once *or* never return
    /// (having transferred control elsewhere); `ctx` may be resumed at
    /// most once, and only while the 72 bytes at `ctx` hold the saved
    /// record (they may have been copied out and back in the meantime —
    /// that is the uni-address trick). No unwinding may cross this frame.
    pub fn save_context_and_call(parent: *mut Context, f: ContextFn, arg: *mut core::ffi::c_void);

    /// Move the stack pointer to `new_sp` (16-byte aligned, top of a
    /// fresh stack) and call `f(arg)` there. `f` must never return —
    /// the fresh stack has no frame to return to (this is the paper's
    /// `CALL_WITH_SAFE_SP`, Figure 7).
    ///
    /// # Safety
    /// `new_sp` must be the top of a mapped, writable stack; `f` must
    /// transfer control away (e.g. via [`resume_context`]) instead of
    /// returning.
    pub fn switch_stack_and_call(
        new_sp: *mut u8,
        f: unsafe extern "C" fn(*mut core::ffi::c_void) -> !,
        arg: *mut core::ffi::c_void,
    ) -> !;

    /// Save the current continuation as a [`Context`] on this stack,
    /// store its address at `*slot`, and start `entry(arg, pass)` at
    /// `sp` with a zero return address: the ABI's alignment for
    /// `entry`, and the mark a stack walk stops at.
    ///
    /// Returns when someone resumes `*slot`, with the value the resumer
    /// handed over ([`resume_context`]'s or [`switch_to`]'s `pass`).
    ///
    /// # Safety
    /// `slot` must be writable; `sp` must be 16-byte aligned with a
    /// mapped, writable stack below it that nothing else runs on;
    /// `entry` must transfer control away instead of returning. The
    /// record is resumed at most once, as for [`save_context_and_call`].
    pub(crate) fn switch_to_fresh(
        slot: *mut *mut Context,
        sp: *mut u8,
        entry: Entry,
        arg: *mut core::ffi::c_void,
        pass: *mut core::ffi::c_void,
    ) -> *mut core::ffi::c_void;

    /// Save the current continuation as a [`Context`] on this stack,
    /// store its address at `*slot`, and resume `target`, handing it
    /// `pass` as [`resume_context`] does.
    ///
    /// Returns when someone resumes `*slot`, with the value that
    /// resumer handed over.
    ///
    /// # Safety
    /// `slot` must be writable (it is written before `target` runs, so
    /// `target` may be what reads it); `target` as for
    /// [`resume_context`]. The record is resumed at most once.
    pub(crate) fn switch_to(
        slot: *mut *mut Context,
        target: *mut Context,
        pass: *mut core::ffi::c_void,
    ) -> *mut core::ffi::c_void;
}

/// `entry(arg, pass)` — what [`switch_to_fresh`] starts on a fresh stack:
/// its `arg`, and the value its caller hands over, as a resumer hands
/// one to the context it resumes.
pub(crate) type Entry = unsafe extern "C" fn(*mut core::ffi::c_void, *mut core::ffi::c_void) -> !;

/// Jump into a saved context: `rsp = ctx`, pop the resume address, jump
/// to it, with `pass` in `%rax`. Inlined, and a jump where the listing
/// has `ret`: leaving a task pushes nothing and pops no return
/// prediction. The epilogue every record resumes at leaves `%rax`
/// alone, so the saving routine returns `pass` — the runtimes hand the
/// resumed code its worker this way (Boost.Context's `transfer_t`); the
/// paper's listing ignores the value, and its callers pass null.
///
/// # Safety
/// `ctx` must be a live record produced by one of the saving routines
/// above whose stack memory above it is intact, and must not be resumed
/// twice. Never returns.
#[inline(always)]
pub unsafe fn resume_context(ctx: *mut Context, pass: *mut core::ffi::c_void) -> ! {
    // SAFETY: [I5] the caller hands over a live record; its first word
    // is the saving routine's epilogue, which restores the rest.
    unsafe {
        asm!(
            "mov {ctx}, %rsp",
            "pop %rcx",
            "jmp *%rcx",
            ctx = in(reg) ctx,
            in("rax") pass,
            options(att_syntax, noreturn)
        )
    }
}

// The Appendix A listing, in AT&T syntax as printed in the paper, and
// the runtimes' two transfers in the same hand. The record's push
// sequence and the epilogue every record resumes at are written once,
// as assembler macros, for the three routines that save. Each routine
// starts on a 64-byte line of its own, so where the linker puts the
// block moves no entry across a line boundary.
global_asm!(
    r#"
    .macro push_context parent /* leaves SP == ctx; clobbers %rax */
    push \parent           /* save parent context */
    push %r15              /* save callee-saved regs */
    push %r14
    push %r13
    push %r12
    push %rbx
    push %rbp
    lea  -16(%rsp), %rax   /* save current SP (== &ctx after 2 pushes) */
    push %rax
    lea  1f(%rip), %rax    /* save IP for resume: pop_context's 1: */
    push %rax
    .endm

    .macro pop_context     /* its ret answers the call that entered the routine */
1:  /* here, jumped from a resume, SP == ctx + 8, the value passed in %rax */
    add  $8, %rsp          /* pop SP */
    pop  %rbp              /* restore callee-saved regs */
    pop  %rbx
    pop  %r12
    pop  %r13
    pop  %r14
    pop  %r15
    add  $8, %rsp          /* pop parent context */
    ret
    .endm

    .text
    .p2align 6
    .globl save_context_and_call
    .type save_context_and_call, @function
save_context_and_call:
    .cfi_startproc
    push_context %rdi
    /* call a thread start function */
    mov  %rsi, %rax        /* function f */
    mov  %rsp, %rdi        /* argument ctx */
    mov  %rdx, %rsi        /* argument arg */
    call *%rax
    add  $8, %rsp          /* pop IP */
    pop_context
    .cfi_endproc
    .size save_context_and_call, . - save_context_and_call

    .p2align 6
    .globl switch_stack_and_call
    .type switch_stack_and_call, @function
switch_stack_and_call:
    .cfi_startproc
    mov  %rdi, %rsp        /* SP = top of the fresh stack (16-aligned) */
    mov  %rsi, %rax        /* f */
    mov  %rdx, %rdi        /* arg */
    call *%rax             /* f(arg); leaves SP ≡ 8 (mod 16) per ABI */
    ud2                    /* f must not return */
    .cfi_endproc
    .size switch_stack_and_call, . - switch_stack_and_call

    .p2align 6
    .globl switch_to_fresh
    .type switch_to_fresh, @function
switch_to_fresh:
    .cfi_startproc
    push_context $0
    mov  %rsp, (%rdi)      /* *slot = ctx */
    mov  %rsi, %rsp        /* SP = sp, on the fresh stack (16-aligned) */
    mov  %rcx, %rdi        /* argument arg */
    mov  %r8, %rsi         /* argument pass */
    push $0                /* return address 0: SP ≡ 8 (mod 16) as after a call */
    jmp  *%rdx             /* entry(arg, pass); must not return */
    pop_context            /* returns what the resumer left in %rax */
    .cfi_endproc
    .size switch_to_fresh, . - switch_to_fresh

    .p2align 6
    .globl switch_to
    .type switch_to, @function
switch_to:
    .cfi_startproc
    push_context $0
    mov  %rsp, (%rdi)      /* *slot = ctx */
    mov  %rsi, %rsp        /* restore SP (== target) */
    mov  %rdx, %rax        /* hand over pass, as resume_context does */
    pop  %rcx              /* pop IP and jump to it */
    jmp  *%rcx
    pop_context            /* returns what the resumer left in %rax */
    .cfi_endproc
    .size switch_to, . - switch_to
"#,
    options(att_syntax)
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Stack;
    use std::ffi::c_void;

    /// f returns normally: save_context_and_call behaves like a call.
    #[test]
    fn normal_return_path() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static HIT: AtomicU64 = AtomicU64::new(0);
        unsafe extern "C" fn f(ctx: *mut Context, arg: *mut c_void) {
            HIT.store(arg as u64, Ordering::Relaxed);
            // SAFETY: [I5] ctx points at the record save_context_and_call just
            // built on the caller's stack, live until f returns.
            unsafe {
                // The context records this very stack: rsp == ctx.
                assert_eq!((*ctx).rsp, ctx as u64);
                assert!((*ctx).rip != 0);
            }
        }
        // SAFETY: [I5] f returns normally, so this behaves as a plain call.
        unsafe {
            save_context_and_call(std::ptr::null_mut(), f, 42usize as *mut c_void);
        }
        assert_eq!(HIT.load(Ordering::Relaxed), 42);
        // Callee-saved state survived (the compiler checks this for us by
        // the test simply not crashing, but exercise some register
        // pressure to be sure).
        let vals: Vec<u64> = (0..64).collect();
        // SAFETY: [I5] as above; f returns normally.
        unsafe {
            save_context_and_call(std::ptr::null_mut(), f, 7 as *mut c_void);
        }
        assert_eq!(vals.iter().sum::<u64>(), 2016);
    }

    /// f never returns; instead the saved context is resumed explicitly —
    /// the runtime's suspend path in miniature.
    #[test]
    fn resume_path() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static STAGE: AtomicU64 = AtomicU64::new(0);
        unsafe extern "C" fn f(ctx: *mut Context, _arg: *mut c_void) {
            STAGE.store(1, Ordering::Relaxed);
            // SAFETY: [I5] ctx is the caller's live continuation, resumed
            // exactly once, with only Copy locals live in f.
            unsafe { resume_context(ctx, std::ptr::null_mut()) }
        }
        // SAFETY: [I5] f diverges into the saved context; control returns
        // here exactly once via that resume.
        unsafe {
            save_context_and_call(std::ptr::null_mut(), f, std::ptr::null_mut());
        }
        assert_eq!(
            STAGE.load(Ordering::Relaxed),
            1,
            "f ran, then jumped back here via resume"
        );
    }

    /// The parent pointer rides along in the record.
    #[test]
    fn parent_pointer_stored() {
        unsafe extern "C" fn f(ctx: *mut Context, arg: *mut c_void) {
            // SAFETY: [I5] ctx is the live record on the caller's stack; the
            // parent field is only compared, never dereferenced.
            unsafe {
                assert_eq!((*ctx).parent, arg as *mut Context);
            }
        }
        let fake_parent = 0x1234_5678usize as *mut Context;
        // SAFETY: [I5] f returns normally; the fake parent pointer is stored
        // in the record but never dereferenced.
        unsafe {
            save_context_and_call(fake_parent, f, fake_parent as *mut c_void);
        }
    }

    /// Nested saves: a context within a context, resumed inner-first.
    #[test]
    fn nested_contexts() {
        static mut TRACE: Vec<u32> = Vec::new();
        unsafe extern "C" fn inner(ctx: *mut Context, _arg: *mut c_void) {
            // SAFETY: [I5] single-threaded test, so the static TRACE has no
            // concurrent access; ctx is outer's live continuation,
            // resumed exactly once.
            unsafe {
                (*std::ptr::addr_of_mut!(TRACE)).push(2);
                resume_context(ctx, std::ptr::null_mut());
            }
        }
        unsafe extern "C" fn outer(ctx: *mut Context, _arg: *mut c_void) {
            // SAFETY: [I5] same single-threaded TRACE access; the nested save
            // returns here via inner's resume, then ctx (the test body's
            // continuation) is resumed exactly once.
            unsafe {
                (*std::ptr::addr_of_mut!(TRACE)).push(1);
                save_context_and_call(std::ptr::null_mut(), inner, std::ptr::null_mut());
                (*std::ptr::addr_of_mut!(TRACE)).push(3);
                resume_context(ctx, std::ptr::null_mut());
            }
        }
        // SAFETY: [I5] outer diverges into the saved context; TRACE is only
        // touched from this one thread.
        unsafe {
            save_context_and_call(std::ptr::null_mut(), outer, std::ptr::null_mut());
            (*std::ptr::addr_of_mut!(TRACE)).push(4);
            assert_eq!(&*std::ptr::addr_of!(TRACE), &vec![1, 2, 3, 4]);
        }
    }

    /// What a test fiber and the test body share: the two slots, and a
    /// log the fiber writes and the body checks (an assert on a fiber
    /// stack could only abort).
    struct Pair {
        main: *mut Context,
        fiber: *mut Context,
        log: Vec<u64>,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                main: std::ptr::null_mut(),
                fiber: std::ptr::null_mut(),
                log: Vec::new(),
            }
        }

        /// Start `entry(this, pass)` at `sp`, saving the body to `main`;
        /// returns what the body's resumer hands over. By raw pointer:
        /// the fiber and the body take turns with the Pair.
        ///
        /// # Safety
        /// `this` is live while the fiber runs; `sp` is 16-byte aligned
        /// inside a fresh stack; `entry` diverges, in the end into
        /// `main`.
        unsafe fn start_at(this: *mut Pair, sp: *mut u8, entry: Entry, pass: usize) -> usize {
            let pass = pass as *mut c_void;
            // SAFETY: [I5][I6][I9] per this function's contract.
            unsafe { switch_to_fresh(&raw mut (*this).main, sp, entry, this.cast(), pass) as usize }
        }
    }

    /// `*slot` holds the record by the time `entry` runs.
    #[test]
    fn fresh_writes_the_slot_before_entry_runs() {
        unsafe extern "C" fn entry(arg: *mut c_void, _pass: *mut c_void) -> ! {
            // SAFETY: [I5][I8] `arg` is the test body's Pair, live while
            // it is suspended; `main` is its continuation, resumed once.
            unsafe {
                let p = &mut *(arg as *mut Pair);
                p.log.push(p.main as u64);
                p.log.push((*p.main).rsp);
                resume_context(p.main, std::ptr::null_mut())
            }
        }
        let stack = Stack::new(64 << 10);
        let mut p = Pair::new();
        // SAFETY: [I5][I6][I9] the top of a fresh stack is 16-byte
        // aligned; entry diverges into the context saved here.
        unsafe { Pair::start_at(&raw mut p, stack.top(), entry, 0) };
        assert!(!p.main.is_null());
        assert_eq!(
            p.log,
            [p.main as u64, p.main as u64],
            "slot, then rsp == ctx"
        );
    }

    /// Twelve values live across the switch: more than the callee-saved
    /// set holds, so some ride in it and some are spilled around it.
    fn pressure(seed: u64) -> [u64; 12] {
        std::array::from_fn(|i| std::hint::black_box(seed + i as u64))
    }

    /// A `switch_to` in each direction — fiber to body, body back into
    /// the fiber — with both sides' registers full; every transfer hands
    /// the side it resumes a value of its own.
    #[test]
    fn switch_to_round_trip_under_register_pressure() {
        unsafe extern "C" fn entry(arg: *mut c_void, pass: *mut c_void) -> ! {
            let p = arg as *mut Pair;
            let vals = pressure(100);
            // SAFETY: [I5][I8][I9] the Pair outlives the fiber; `main`
            // was saved by the body's last switch and is resumed once
            // per save; the fiber's own slot is written before the body
            // reads it.
            unsafe {
                (*p).log.push(pass as u64);
                let back = switch_to(&raw mut (*p).fiber, (*p).main, 0x22 as *mut c_void);
                (*p).log.push(back as u64);
                (*p).log.push(vals.iter().sum());
                resume_context((*p).main, 0x44 as *mut c_void)
            }
        }
        let stack = Stack::new(64 << 10);
        let mut p = Pair::new();
        let vals = pressure(1);
        // SAFETY: [I5][I6][I9] fresh aligned stack, diverging entry; the
        // fiber's record is live (suspended in its `switch_to`) when the
        // second switch resumes it.
        let got = unsafe {
            let first = Pair::start_at(&raw mut p, stack.top(), entry, 0x11);
            assert_eq!(p.log, [0x11], "the fiber is suspended mid-body");
            let second = switch_to(&raw mut p.main, p.fiber, 0x33 as *mut c_void);
            [first, second as usize]
        };
        assert_eq!(
            got,
            [0x22, 0x44],
            "each resume returns what its resumer passed"
        );
        assert_eq!(p.log, [0x11, 0x33, (100..112).sum::<u64>()]);
        assert_eq!(vals.iter().sum::<u64>(), (1..13).sum::<u64>());
    }

    /// `entry` starts as if called: `rsp ≡ 8 (mod 16)`. Compilers assume
    /// it — an `f64` is formatted through `movaps` spills that fault on
    /// a misaligned frame.
    #[test]
    fn fresh_entry_sees_the_abi_stack_alignment() {
        #[repr(align(32))]
        struct A32(u64);
        unsafe extern "C" fn entry(arg: *mut c_void, _pass: *mut c_void) -> ! {
            let (a, b) = (std::hint::black_box(0u128), A32(0));
            let (a, b) = (std::hint::black_box(&a), std::hint::black_box(&b));
            let text = format!("{:.3}", std::hint::black_box(2.5f64));
            // SAFETY: [I5][I8] as in the tests above.
            unsafe {
                let p = &mut *(arg as *mut Pair);
                p.log.push(a as *const u128 as u64 % 16);
                p.log.push(b as *const A32 as u64 % 32 + b.0);
                p.log.push((text == "2.500") as u64);
                drop(text);
                resume_context(p.main, std::ptr::null_mut())
            }
        }
        // A frame claim moves the entry `sp` by multiples of 16 [I19].
        for below_top in [0, 16, 4096 + 48] {
            let stack = Stack::new(64 << 10);
            let mut p = Pair::new();
            // SAFETY: [I5][I6][I9] `sp` is 16-byte aligned inside the
            // fresh stack; entry diverges into the context saved here.
            unsafe {
                let sp = stack.top().sub(below_top);
                Pair::start_at(&raw mut p, sp, entry, 0);
            }
            assert_eq!(p.log, [0, 0, 1], "sp {below_top} bytes below the top");
        }
    }

    /// The runtime's spawn-in-spawn: a fresh fiber starts another, the
    /// inner one resumes the outer, the outer resumes the body.
    #[test]
    fn nested_fresh_contexts() {
        struct Nest {
            outer: Pair,
            inner_stack: Stack,
            /// The outer fiber's continuation while the inner one runs.
            inner_parent: *mut Context,
        }
        unsafe extern "C" fn inner(arg: *mut c_void, _pass: *mut c_void) -> ! {
            // SAFETY: [I5][I8] the Nest outlives both fibers; the outer
            // fiber's continuation is resumed exactly once.
            unsafe {
                let n = &mut *(arg as *mut Nest);
                n.outer.log.push(2);
                resume_context(n.inner_parent, std::ptr::null_mut())
            }
        }
        unsafe extern "C" fn outer(arg: *mut c_void, _pass: *mut c_void) -> ! {
            let n = arg as *mut Nest;
            // SAFETY: [I5][I6][I8][I9] a second fresh aligned stack and
            // a diverging entry; the body's continuation is resumed
            // exactly once, after the inner fiber has come back.
            unsafe {
                (*n).outer.log.push(1);
                switch_to_fresh(
                    &raw mut (*n).inner_parent,
                    (*n).inner_stack.top(),
                    inner,
                    arg,
                    std::ptr::null_mut(),
                );
                (*n).outer.log.push(3);
                resume_context((*n).outer.main, std::ptr::null_mut())
            }
        }
        let stack = Stack::new(64 << 10);
        let mut n = Nest {
            outer: Pair::new(),
            inner_stack: Stack::new(64 << 10),
            inner_parent: std::ptr::null_mut(),
        };
        // SAFETY: [I5][I6][I9] fresh aligned stack, diverging entry.
        unsafe {
            switch_to_fresh(
                &raw mut n.outer.main,
                stack.top(),
                outer,
                &raw mut n as *mut c_void,
                std::ptr::null_mut(),
            );
        }
        n.outer.log.push(4);
        assert_eq!(n.outer.log, [1, 2, 3, 4]);
    }

    /// The record layout matches the push order — of all three routines
    /// that save one.
    #[test]
    fn record_layout() {
        assert_eq!(std::mem::size_of::<Context>(), 72);
        assert_eq!(std::mem::offset_of!(Context, rip), 0);
        assert_eq!(std::mem::offset_of!(Context, rsp), 8);
        assert_eq!(std::mem::offset_of!(Context, rbp), 16);
        assert_eq!(std::mem::offset_of!(Context, parent), 64);

        /// The record's `rsp` and `parent` words.
        unsafe fn facts(ctx: *mut Context) -> [u64; 2] {
            // SAFETY: [I5] the caller passes a live record.
            unsafe { [(*ctx).rsp, (*ctx).parent as u64] }
        }
        unsafe extern "C" fn listing(ctx: *mut Context, arg: *mut c_void) {
            // SAFETY: [I5][I8] ctx is the record just built on the
            // caller's stack; arg is the test body's Pair.
            unsafe {
                let p = &mut *(arg as *mut Pair);
                p.main = ctx;
                p.log.extend(facts(ctx));
            }
        }
        unsafe extern "C" fn entry(arg: *mut c_void, _pass: *mut c_void) -> ! {
            let p = arg as *mut Pair;
            // SAFETY: [I5][I8][I9] as in the round-trip test: the body
            // inspects this fiber's record while it is suspended, then
            // resumes it.
            unsafe {
                (*p).log.extend(facts((*p).main));
                switch_to(&raw mut (*p).fiber, (*p).main, std::ptr::null_mut());
                resume_context((*p).main, std::ptr::null_mut())
            }
        }
        let fake_parent = 0x1234_5678u64;
        let mut p = Pair::new();
        // SAFETY: [I5] listing returns normally; the fake parent is
        // stored in the record but never dereferenced.
        unsafe {
            save_context_and_call(
                fake_parent as *mut Context,
                listing,
                &raw mut p as *mut c_void,
            );
        }
        assert_eq!(p.log, [p.main as u64, fake_parent]);
        p.log.clear();

        let stack = Stack::new(64 << 10);
        // SAFETY: [I5][I6][I9] fresh aligned stack, diverging entry; the
        // fiber's record is read, then resumed, while it is suspended.
        unsafe {
            Pair::start_at(&raw mut p, stack.top(), entry, 0);
            assert_eq!(p.log, [p.main as u64, 0]);
            assert_eq!(facts(p.fiber), [p.fiber as u64, 0]);
            switch_to(&raw mut p.main, p.fiber, std::ptr::null_mut());
        }
    }
}
