//! The paper's mechanism, for real, on this machine: steal a *started*
//! native thread from another process, across address spaces.
//!
//! - each side is a **process** (fork) with *the* uni-address region
//!   mapped at the same virtual address (`MAP_FIXED_NOREPLACE`, before
//!   the fork);
//! - the victim starts a thread on its region, builds pointer-bearing
//!   stack state and spawns a child; its continuation becomes stealable
//!   through a task-queue slot in **shared memory** (`memfd_create` +
//!   `MAP_SHARED`), the role the RDMA-accessible queue plays on FX10;
//! - this process locks the slot, copies the victim's live frames with
//!   **`process_vm_readv`** — one-sided: the kernel copies, the victim's
//!   code never participates, as in Figure 6's RDMA READ — and
//!   `resume_context`s the thread at its original addresses, where its
//!   **intra-stack pointers are still valid**.
//!
//! One parent/child steal on the public `uat_fiber::ctx` primitives
//! (the paper's Appendix A), not a runtime: `uat_fiber`'s
//! `MultiProcessRunner` is the mechanism as a driver, with one shared
//! region instead of copied frames. The root package's
//! `cross_process_steal` test runs it, skipping with the probes' reason
//! where the kernel cannot.
//!
//! Run: `cargo run --release --example cross_process_steal`
//!
//! After `fork` the child makes **no heap allocation and takes no lock**
//! (the test harness is multithreaded; another thread could hold the
//! allocator lock at fork time): it runs on the pre-mapped region,
//! touches only shared-memory atomics, and leaves via `_exit`.

use std::ffi::c_void;
use std::sync::atomic::{AtomicU64, Ordering};
use uni_address_threads::fiber::ctx::{
    resume_context, save_context_and_call, switch_stack_and_call, Context,
};

/// Virtual address of the uni-address region (same in every process).
pub const UNI_BASE: usize = 0x7f50_0000_0000;
/// Size of the uni-address region.
pub const UNI_SIZE: usize = 1 << 20;

/// Entry state machine in the shared queue slot (EMPTY is the zeroed
/// initial state of the mapping, so it needs no named constant writes).
const READY: u64 = 1;
const TAKEN_LOCAL: u64 = 2;
const STOLEN: u64 = 3;

/// The shared control block (lives in the `memfd` mapping; all fields
/// are process-shared atomics).
#[repr(C)]
struct Shared {
    /// Entry state: 0 (empty) → READY → (TAKEN_LOCAL | STOLEN).
    state: AtomicU64,
    /// Published continuation: lowest frame address (== ctx).
    frame_base: AtomicU64,
    /// Published continuation: bytes of live frames above `frame_base`.
    frame_size: AtomicU64,
    /// Set by the migrated thread after it resumes on the thief.
    result: AtomicU64,
    /// Victim child liveness handshake.
    child_up: AtomicU64,
    /// Thief tells the victim it may exit.
    done: AtomicU64,
}

/// Where `finish_thread` returns control in *this* process (the
/// scheduler context of whichever process is running the thread).
static RETURN_CTX: AtomicU64 = AtomicU64::new(0);

struct VictimArgs {
    shared: *const Shared,
}

/// Outcome of [`steal_between_processes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StealOutcome {
    /// Value computed by the thread *after* migrating: derived from
    /// stack locals (including a pointer into its own frames) written
    /// before migration on the victim.
    pub result: u64,
    /// Bytes of stack transferred.
    pub frames_bytes: u64,
    /// Wall time of the one-sided stack transfer (`process_vm_readv`).
    pub transfer: std::time::Duration,
    /// Wall time from locking the entry to the migrated thread's first
    /// instruction after resume (the native steal critical path).
    pub steal_to_resume: std::time::Duration,
}

/// The expected `result` for the demonstration's computation.
pub fn expected_result() -> u64 {
    // sum of i*i for i in 0..64, plus the sentinel the child adds.
    (0..64u64).map(|i| i * i).sum::<u64>() + 0xC0FFEE
}

// ----------------------------------------------------------------------
// The thread that migrates.
// ----------------------------------------------------------------------

/// Runs on the victim's uni-address region. Builds stack state (an
/// array + a pointer to it), publishes its continuation, and — once
/// resumed, *in whichever process* — computes from that stack state.
unsafe extern "C" fn migrating_thread(arg: *mut c_void) -> ! {
    // SAFETY: [I8] arg is the VictimArgs the victim entry passed through
    // switch_stack_and_call; the Shared block it points to is the
    // process-shared mapping, live for the whole run.
    let shared = unsafe { &*((*(arg as *mut VictimArgs)).shared) };

    // Stack state the continuation will read after migration. The
    // pointer `view` is an intra-stack pointer: it must remain valid on
    // the thief because the frames keep their virtual addresses.
    let mut data = [0u64; 64];
    for (i, d) in data.iter_mut().enumerate() {
        *d = (i * i) as u64;
    }
    let view: &[u64; 64] = &data;

    // "spawn": save the continuation and run the child part, which
    // publishes the parent for stealing (Figure 4's do_create_thread).
    // SAFETY: [I5] we are on the uni-address region's stack; the callee
    // either returns normally (not stolen) or never returns here.
    unsafe {
        save_context_and_call(
            std::ptr::null_mut(),
            publish_and_run_child,
            shared as *const Shared as *mut c_void,
        );
    }

    // ===== resumed here — possibly in a different process =====
    let sum: u64 = view.iter().sum::<u64>() + 0xC0FFEE;
    shared.result.store(sum, Ordering::Release);

    // Hand control back to this process's scheduler context.
    let ret = RETURN_CTX.load(Ordering::Acquire) as *mut Context;
    // SAFETY: [I5] RETURN_CTX was stored by whichever scheduler context
    // (victim_entry or thief_tramp) resumed us, and that context's stack
    // frame is still live — it is blocked inside save_context_and_call.
    unsafe { resume_context(ret, std::ptr::null_mut()) }
}

unsafe extern "C" fn publish_and_run_child(ctx: *mut Context, arg: *mut c_void) {
    // SAFETY: [I8] arg is the Shared pointer migrating_thread passed in; the
    // shared mapping outlives both processes' use of it.
    let shared = unsafe { &*(arg as *const Shared) };
    // Publish: frames = [ctx, top of region).
    let top = UNI_BASE + UNI_SIZE;
    shared.frame_base.store(ctx as u64, Ordering::Relaxed);
    shared
        .frame_size
        .store((top - ctx as usize) as u64, Ordering::Relaxed);
    shared.state.store(READY, Ordering::Release);

    // The "child task": busy work long enough for the thief to act.
    let mut x = 0u64;
    while shared.state.load(Ordering::Acquire) == READY {
        x = x.wrapping_add(1);
        std::hint::spin_loop();
        if x > 2_000_000_000 {
            // The thief never came; take the entry back ourselves.
            if shared
                .state
                .compare_exchange(READY, TAKEN_LOCAL, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
    }

    match shared.state.load(Ordering::Acquire) {
        TAKEN_LOCAL => {
            // Not stolen: return normally; the epilogue resumes the
            // parent right here in this process.
        }
        STOLEN => {
            // The parent now lives in the thief's address space. This
            // lineage is finished here; wait for permission and leave
            // without touching the (dead) frames above.
            while shared.done.load(Ordering::Acquire) == 0 {
                std::hint::spin_loop();
            }
            // SAFETY: [I10] _exit is async-signal-safe; it skips atexit
            // handlers and destructors, which is exactly what a
            // post-fork child that must not touch the allocator wants.
            unsafe { libc::_exit(0) }
        }
        s => unreachable!("bad entry state {s}"),
    }
}

// ----------------------------------------------------------------------
// Host-side plumbing.
// ----------------------------------------------------------------------

fn map_shared() -> *const Shared {
    // SAFETY: [I10] fresh memfd + MAP_SHARED mapping, checked below.
    unsafe {
        let fd = libc::syscall(
            libc::SYS_memfd_create,
            c"uat-cross-process-steal".as_ptr(),
            0u32,
        ) as i32;
        assert!(fd >= 0, "memfd_create failed");
        assert_eq!(libc::ftruncate(fd, 4096), 0);
        let p = libc::mmap(
            std::ptr::null_mut(),
            4096,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_SHARED,
            fd,
            0,
        );
        assert!(p != libc::MAP_FAILED, "mmap(shared) failed");
        libc::close(fd);
        p as *const Shared
    }
}

fn map_uni_region() {
    // The region is never unmapped (it is the process's uni-address
    // range); map it once so retries and repeated calls are idempotent.
    // Mapped-flag semantics: only set *after* the mmap succeeds — a
    // swap-before-map latch would record a failed first attempt as
    // success and later callers would fault on an unmapped UNI_BASE.
    // A failed attempt instead poisons the mutex, so later callers
    // panic with a report rather than touching the region.
    static UNI_MAPPED: std::sync::Mutex<bool> = std::sync::Mutex::new(false);
    let mut mapped = UNI_MAPPED.lock().unwrap();
    if *mapped {
        return;
    }
    // SAFETY: [I10] fixed mapping at an address chosen to be free; NOREPLACE
    // makes a collision an error instead of a clobber.
    unsafe {
        let p = libc::mmap(
            UNI_BASE as *mut c_void,
            UNI_SIZE,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_FIXED_NOREPLACE,
            -1,
            0,
        );
        assert_eq!(
            p as usize, UNI_BASE,
            "could not map the uni-address region at its fixed address"
        );
    }
    *mapped = true;
}

/// Can this kernel/sandbox do a one-sided `process_vm_readv`? Probed by
/// reading this process's own memory (always permitted when the syscall
/// exists and seccomp allows it). Returns the reason when it cannot, so
/// CI can print *why* the steal demonstration was skipped.
pub fn probe_process_vm_readv() -> Result<(), String> {
    let src: u64 = 0xABAD_1DEA;
    let mut dst: u64 = 0;
    // SAFETY: [I10] both iovecs cover live 8-byte locals of this frame;
    // the target pid is our own process.
    let copied = unsafe {
        let local = libc::iovec {
            iov_base: &mut dst as *mut u64 as *mut c_void,
            iov_len: 8,
        };
        let remote = libc::iovec {
            iov_base: &src as *const u64 as *mut c_void,
            iov_len: 8,
        };
        libc::process_vm_readv(std::process::id() as libc::pid_t, &local, 1, &remote, 1, 0)
    };
    if copied != 8 || dst != src {
        return Err(format!(
            "process_vm_readv unavailable (seccomp/YAMA or pre-3.2 kernel): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Does this kernel honour `MAP_FIXED_NOREPLACE` (Linux ≥ 4.17)? Older
/// kernels silently *ignore* unknown mmap flags, which would turn the
/// collision check into a clobber — probed by mapping a page and then
/// asking for the same address with NOREPLACE, which must fail.
pub fn probe_fixed_noreplace() -> Result<(), String> {
    // SAFETY: [I10] a scratch anonymous page, remapped at its own
    // address with NOREPLACE (must fail), then unmapped; every result
    // is checked.
    unsafe {
        let p = libc::mmap(
            std::ptr::null_mut(),
            4096,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        );
        if p == libc::MAP_FAILED {
            return Err("mmap(anonymous probe page) failed".into());
        }
        let q = libc::mmap(
            p,
            4096,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_FIXED_NOREPLACE,
            -1,
            0,
        );
        if q != libc::MAP_FAILED {
            // The kernel ignored NOREPLACE and clobbered (or moved) —
            // fixed-address mapping cannot be done safely here.
            libc::munmap(q, 4096);
            if q != p {
                libc::munmap(p, 4096);
            }
            return Err("kernel ignores MAP_FIXED_NOREPLACE (pre-4.17)".into());
        }
        libc::munmap(p, 4096);
    }
    Ok(())
}

/// [`steal_between_processes`] with retries on its one benign race: the
/// victim reclaiming the entry just before the thief's CAS (the THE
/// abort path). Hard errors (missing kernel support) are returned
/// immediately — retrying cannot fix those.
pub fn steal_with_retries(attempts: usize) -> Result<StealOutcome, String> {
    let mut last = String::new();
    for _ in 0..attempts.max(1) {
        match steal_between_processes() {
            Ok(out) => return Ok(out),
            Err(e) if e.contains("reclaimed") => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(format!("all {attempts} attempts raced: {last}"))
}

unsafe extern "C" fn thief_tramp(sched: *mut Context, arg: *mut c_void) {
    RETURN_CTX.store(sched as u64, Ordering::Release);
    // SAFETY: [I5] arg is the stolen thread's context, freshly installed at
    // its original address.
    unsafe { resume_context(arg as *mut Context, std::ptr::null_mut()) }
}

unsafe extern "C" fn victim_entry(sched: *mut Context, arg: *mut c_void) {
    RETURN_CTX.store(sched as u64, Ordering::Release);
    let top = (UNI_BASE + UNI_SIZE) as *mut u8;
    // SAFETY: [I6][I9] the uni region is mapped; migrating_thread diverges.
    unsafe { switch_stack_and_call(top, migrating_thread, arg) }
}

/// Fork a victim process, let it start a thread on its uni-address
/// region, then steal that thread mid-execution: lock the shared queue
/// slot, `process_vm_readv` its frames into *this* process's region at
/// the same addresses, and resume it here. Returns the value the
/// migrated thread computed from its (pointer-bearing) stack state.
///
/// # Errors
/// Returns `Err` if `process_vm_readv` is not permitted (some seccomp /
/// YAMA configurations); callers should treat that as "skip".
pub fn steal_between_processes() -> Result<StealOutcome, String> {
    // One steal demonstration at a time per OS process: the uni-address
    // region and RETURN_CTX are process-global.
    static IPC_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = IPC_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    map_uni_region();
    let shared_ptr = map_shared();
    // SAFETY: [I8][I10] the mapping is zeroed; Shared is all atomics (valid at 0).
    let shared = unsafe { &*shared_ptr };

    // SAFETY: [I10] fork; the child touches no allocator/locks (see module
    // docs) and exits via _exit.
    let child = unsafe { libc::fork() };
    assert!(child >= 0, "fork failed");
    if child == 0 {
        // ----- victim process -----
        shared.child_up.store(1, Ordering::Release);
        let mut args = VictimArgs { shared: shared_ptr };
        // SAFETY: [I5] victim_entry diverges into the migrating thread.
        unsafe {
            save_context_and_call(
                std::ptr::null_mut(),
                victim_entry,
                &mut args as *mut VictimArgs as *mut c_void,
            );
        }
        // Reached only on the TAKEN_LOCAL (never-stolen) path, where the
        // thread finishes in-process and resumes our scheduler context.
        // SAFETY: [I10] _exit is async-signal-safe and touches no allocator
        // state — required in a post-fork child of a threaded process.
        unsafe { libc::_exit(0) }
    }

    // ----- thief process (this one) -----
    while shared.child_up.load(Ordering::Acquire) == 0 {
        std::hint::spin_loop();
    }
    // Phase 1+2: wait for a stealable entry and lock it by CAS (the
    // shared-memory stand-in for the FAA lock + entry read).
    loop {
        match shared
            .state
            .compare_exchange(READY, STOLEN, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => break,
            Err(TAKEN_LOCAL) => {
                return Err("victim reclaimed the entry before we could steal".into())
            }
            Err(_) => std::hint::spin_loop(),
        }
    }
    let t_lock = std::time::Instant::now();
    let frame_base = shared.frame_base.load(Ordering::Relaxed) as usize;
    let frame_size = shared.frame_size.load(Ordering::Relaxed) as usize;
    assert!(frame_base >= UNI_BASE && frame_base + frame_size <= UNI_BASE + UNI_SIZE);

    // Phase 3: one-sided stack transfer into the same virtual address.
    let t_xfer = std::time::Instant::now();
    // SAFETY: [I10] both iovecs cover mapped memory — [frame_base,
    // frame_base+frame_size) is inside the uni region in both address
    // spaces (asserted above) — and the victim's code is not involved
    // (the kernel performs the copy).
    let copied = unsafe {
        let local = libc::iovec {
            iov_base: frame_base as *mut c_void,
            iov_len: frame_size,
        };
        let remote = libc::iovec {
            iov_base: frame_base as *mut c_void,
            iov_len: frame_size,
        };
        libc::process_vm_readv(child, &local, 1, &remote, 1, 0)
    };
    if copied < 0 {
        let err = std::io::Error::last_os_error();
        // Let the victim exit, reap it, and report.
        shared.done.store(1, Ordering::Release);
        // SAFETY: [I10] reaping our own child; a null status pointer is
        // explicitly allowed by waitpid.
        unsafe { libc::waitpid(child, std::ptr::null_mut(), 0) };
        return Err(format!("process_vm_readv not permitted here: {err}"));
    }
    let transfer = t_xfer.elapsed();
    assert_eq!(copied as usize, frame_size, "short stack transfer");

    // Phase 4: resume the stolen thread at its original address.
    // SAFETY: [I5] the frames (including the Context record at frame_base)
    // are installed; thief_tramp stores our return context first.
    unsafe {
        save_context_and_call(std::ptr::null_mut(), thief_tramp, frame_base as *mut c_void);
    }
    let steal_to_resume = t_lock.elapsed();
    // The migrated thread ran to completion here and resumed us.
    let result = shared.result.load(Ordering::Acquire);

    shared.done.store(1, Ordering::Release);
    let mut status = 0;
    // SAFETY: [I10] reaping our own child.
    unsafe { libc::waitpid(child, &mut status, 0) };

    Ok(StealOutcome {
        result,
        frames_bytes: frame_size as u64,
        transfer,
        steal_to_resume,
    })
}

fn main() {
    for probe in [probe_process_vm_readv, probe_fixed_noreplace] {
        if let Err(e) = probe() {
            eprintln!("environment does not permit the demonstration: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "uni-address region: {UNI_BASE:#x} (+{} KiB), same VA in both processes",
        UNI_SIZE >> 10
    );
    let out = match steal_with_retries(5) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("the steal failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "stole a running thread: transferred {} bytes of live frames \
         via process_vm_readv, resumed it here",
        out.frames_bytes
    );
    println!(
        "migrated thread computed {} from its pre-migration stack state \
         (expected {})",
        out.result,
        expected_result()
    );
    assert_eq!(out.result, expected_result());
    println!(
        "native timings: transfer {:?}, lock-to-resumed {:?}",
        out.transfer, out.steal_to_resume
    );
    println!("intra-stack pointers survived the migration. QED.");
}
