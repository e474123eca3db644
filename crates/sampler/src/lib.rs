//! A SIGPROF sampler to `LD_PRELOAD` into any x86-64 Linux binary, the
//! frozen benchmark's included: no dependency, nothing to link, one
//! shared object.
//!
//! Loaded, it arms `ITIMER_PROF` (one tick per millisecond of process
//! CPU time), and every `SIGPROF` records the interrupted instruction
//! pointer. A forked child re-arms
//! its timer and starts with no samples (`pthread_atfork`): timers are
//! not inherited, and its parent's samples are its parent's. Each
//! process writes its samples once, at `exit` or at `_exit` (which this
//! object interposes, so a forked worker that leaves by `_exit` is
//! counted too), to `<UAT_SAMPLER_OUT>.<pid>.samples` (default prefix
//! `sampler`):
//!
//! ```text
//! # uat-sampler pid 4242 interval_us 1000 samples 7726 dropped 0
//! map 55d0c2a00000-55d0c2a4b000 r--p 00000000 00:2d 123 /path/to/binary
//! map 55d0c2a4b000-55d0c2b4f000 r-xp 0004a000 00:2d 123 /path/to/binary
//! 55d0c2a9f3b1
//! ...
//! ```
//!
//! — a header, the executable's mappings from `/proc/self/maps`, and
//! one interrupted address per line, in hex. `dropped` counts samples
//! past the buffer's 2^20.
//!
//! # From samples to source lines
//!
//! A sample's address in the executable's ELF is the sample less the
//! start of the mapping whose file offset is 0 (the load bias of a
//! position-independent executable). Symbolize those addresses with
//! inlined frames, innermost first, and count the innermost frame's
//! `file:line`:
//!
//! ```text
//! cargo build --release -p uat-sampler
//! UAT_SAMPLER_OUT=prof/btc LD_PRELOAD=$PWD/target/release/libuat_sampler.so \
//!     ./uat-benchmark --workload btc_fine.mp --seed 1 --seconds 20 --trace 0
//! python3 crates/sampler/symbolize.py ./uat-benchmark prof/btc.*.samples
//! ```
//!
//! `symbolize.py` does exactly that with `llvm-symbolizer --inlining`
//! (`addr2line -f -i -C -e <binary>` reads the same addresses) and
//! prints one row per source line and one per function. The binary
//! needs line tables (`debug = "line-tables-only"` is enough).

use std::cell::UnsafeCell;
use std::ffi::{c_char, c_int, c_long, c_void};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

const ITIMER_PROF: c_int = 2;
const SIGPROF: c_int = 27;
const SA_SIGINFO: c_int = 4;
const SA_RESTART: c_int = 0x1000_0000;
const O_RDONLY: c_int = 0;
const O_WRONLY_CREAT_TRUNC: c_int = 0o1 | 0o100 | 0o1000;
const O_CLOEXEC: c_int = 0o2000000;
const SYS_EXIT_GROUP: c_long = 231;
/// Where `ucontext_t` keeps the interrupted `rip` on x86-64 Linux:
/// `uc_flags`, `uc_link` and the 24-byte `uc_stack` come first, then
/// `gregs`, of which `rip` is entry `REG_RIP` = 16.
const RIP_AT: usize = 8 + 8 + 24 + 16 * 8;
/// Samples a process keeps.
const CAP: usize = 1 << 20;
/// Process CPU time between two samples.
const INTERVAL_US: u64 = 1000;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
struct Itimerval {
    interval: Timeval,
    value: Timeval,
}

/// glibc's `struct sigaction` on x86-64.
#[repr(C)]
struct SigAction {
    handler: extern "C" fn(c_int, *mut c_void, *mut c_void),
    mask: [u64; 16],
    flags: c_int,
    restorer: usize,
}

extern "C" {
    fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
    fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
    fn pthread_atfork(
        prepare: Option<extern "C" fn()>,
        parent: Option<extern "C" fn()>,
        child: Option<extern "C" fn()>,
    ) -> c_int;
    fn atexit(f: extern "C" fn()) -> c_int;
    fn getpid() -> c_int;
    fn open(path: *const c_char, flags: c_int, ...) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, n: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, n: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn readlink(path: *const c_char, buf: *mut c_char, n: usize) -> isize;
    fn syscall(n: c_long, ...) -> c_long;
}

/// Where the sample files go (`UAT_SAMPLER_OUT`), read once when the
/// object loads.
static PREFIX: OnceLock<Vec<u8>> = OnceLock::new();

/// A static buffer: the samples, each slot written once by the handler
/// that claimed it, or `/proc/self/maps`, read by the one dumping call.
struct Scratch<T>(UnsafeCell<T>);

// SAFETY: a sample slot has one writer (`TAKEN` hands each out once)
// and is read only by `dump`, after its write; `dump` runs once per
// process (`DUMPED`), so the maps buffer has one user.
unsafe impl<T> Sync for Scratch<T> {}

static SAMPLES: Scratch<[u64; CAP]> = Scratch(UnsafeCell::new([0; CAP]));
static MAPS: Scratch<[u8; 1 << 16]> = Scratch(UnsafeCell::new([0; 1 << 16]));
/// Samples taken (past `CAP`: dropped).
static TAKEN: AtomicUsize = AtomicUsize::new(0);
static DUMPED: AtomicBool = AtomicBool::new(false);

#[used]
#[link_section = ".init_array"]
static INIT: extern "C" fn() = init;

extern "C" fn init() {
    let prefix =
        std::env::var_os("UAT_SAMPLER_OUT").map_or(b"sampler".to_vec(), |p| p.into_encoded_bytes());
    let _ = PREFIX.set(prefix);
    let act = SigAction {
        handler: on_prof,
        mask: [0; 16],
        flags: SA_SIGINFO | SA_RESTART,
        restorer: 0,
    };
    // SAFETY: a handler that only stores to atomics and a static
    // buffer, and two process-exit hooks; the pointers are valid for
    // the calls.
    unsafe {
        sigaction(SIGPROF, &act, std::ptr::null_mut());
        pthread_atfork(None, None, Some(in_child));
        atexit(at_exit);
    }
    arm();
}

/// Start (or restart) this process's profiling timer.
fn arm() {
    let tick = || Timeval {
        sec: (INTERVAL_US / 1_000_000) as c_long,
        usec: (INTERVAL_US % 1_000_000) as c_long,
    };
    let it = Itimerval {
        interval: tick(),
        value: tick(),
    };
    // SAFETY: `it` is a valid `itimerval`; the old value is not asked for.
    unsafe { setitimer(ITIMER_PROF, &it, std::ptr::null_mut()) };
}

extern "C" fn on_prof(_sig: c_int, _info: *mut c_void, uc: *mut c_void) {
    // SAFETY: the kernel hands a `SA_SIGINFO` handler the interrupted
    // context, whose `rip` sits `RIP_AT` bytes in.
    let rip = unsafe { uc.cast::<u8>().add(RIP_AT).cast::<u64>().read_unaligned() };
    let i = TAKEN.fetch_add(1, Ordering::Relaxed);
    if i < CAP {
        // SAFETY: slot `i` is this sample's alone (`fetch_add`), inside
        // the buffer, and `dump` reads only slots below the count it
        // loaded.
        unsafe { SAMPLES.0.get().cast::<u64>().add(i).write(rip) };
    }
}

extern "C" fn in_child() {
    TAKEN.store(0, Ordering::Relaxed);
    DUMPED.store(false, Ordering::Relaxed);
    arm();
}

extern "C" fn at_exit() {
    dump();
}

/// The object's `_exit`: write this process's samples, then leave as
/// libc's would.
#[no_mangle]
pub extern "C" fn _exit(status: c_int) -> ! {
    dump();
    // SAFETY: `exit_group` ends the process; nothing runs after it.
    unsafe { syscall(SYS_EXIT_GROUP, status as c_long) };
    std::process::abort()
}

/// A buffered writer on a raw file descriptor: no allocation, no lock.
struct Out {
    fd: c_int,
    buf: [u8; 4096],
    len: usize,
}

impl Out {
    fn new(fd: c_int) -> Self {
        Out {
            fd,
            buf: [0; 4096],
            len: 0,
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(self.buf.len()) {
            if self.len + chunk.len() > self.buf.len() {
                self.flush();
            }
            self.buf[self.len..self.len + chunk.len()].copy_from_slice(chunk);
            self.len += chunk.len();
        }
    }

    fn num(&mut self, mut v: u64, radix: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b"0123456789abcdef"[(v % radix) as usize];
            v /= radix;
            if v == 0 {
                break;
            }
        }
        self.put(&digits[i..]);
    }

    fn flush(&mut self) {
        let mut done = 0;
        while done < self.len {
            let rest = &self.buf[done..self.len];
            // SAFETY: `rest` is initialised bytes of `buf`.
            let n = unsafe { write(self.fd, rest.as_ptr().cast(), rest.len()) };
            if n <= 0 {
                break;
            }
            done += n as usize;
        }
        self.len = 0;
    }
}

/// Write this process's samples, once.
fn dump() {
    if DUMPED.swap(true, Ordering::Relaxed) {
        return;
    }
    let Some(prefix) = PREFIX.get() else { return };
    let stop = Itimerval {
        interval: Timeval { sec: 0, usec: 0 },
        value: Timeval { sec: 0, usec: 0 },
    };
    // SAFETY: a valid `itimerval`; disarms this process's timer.
    unsafe { setitimer(ITIMER_PROF, &stop, std::ptr::null_mut()) };
    // SAFETY: `getpid` cannot fail.
    let pid = unsafe { getpid() } as u64;
    // The path, composed in a buffer that is never flushed: at most
    // 3 000 bytes of prefix and 30 more fit its 4 KiB.
    let mut path = Out::new(-1);
    path.put(&prefix[..prefix.len().min(3000)]);
    path.put(b".");
    path.num(pid, 10);
    path.put(b".samples\0");
    // SAFETY: a NUL-terminated path.
    let fd = unsafe {
        open(
            path.buf.as_ptr().cast(),
            O_WRONLY_CREAT_TRUNC | O_CLOEXEC,
            0o644 as c_int,
        )
    };
    if fd < 0 {
        let msg = b"uat-sampler: cannot create the sample file\n";
        // SAFETY: a static message.
        unsafe { write(2, msg.as_ptr().cast(), msg.len()) };
        return;
    }
    let taken = TAKEN.load(Ordering::Relaxed);
    let n = taken.min(CAP);
    let mut out = Out::new(fd);
    out.put(b"# uat-sampler pid ");
    out.num(pid, 10);
    out.put(b" interval_us ");
    out.num(INTERVAL_US, 10);
    out.put(b" samples ");
    out.num(n as u64, 10);
    out.put(b" dropped ");
    out.num((taken - n) as u64, 10);
    out.put(b"\n");
    put_exe_mappings(&mut out);
    for i in 0..n {
        // SAFETY: slots below `n` were written before `TAKEN` passed them
        // (on this thread, or by a handler that has returned: the timer
        // is disarmed, and a late sample lands past `n`).
        let rip = unsafe { SAMPLES.0.get().cast::<u64>().add(i).read() };
        out.num(rip, 16);
        out.put(b"\n");
    }
    out.flush();
    // SAFETY: our own descriptor.
    unsafe { close(fd) };
}

/// Write the lines of `/proc/self/maps` that map the executable, each
/// as `map <line>`.
fn put_exe_mappings(out: &mut Out) {
    let mut exe = [0u8; 4096];
    // SAFETY: a NUL-terminated path and a buffer of the length given.
    let len = unsafe {
        readlink(
            c"/proc/self/exe".as_ptr(),
            exe.as_mut_ptr().cast(),
            exe.len(),
        )
    };
    if len <= 0 {
        return;
    }
    let exe = &exe[..len as usize];
    // SAFETY: the one dumping call of this process owns the buffer.
    let maps = unsafe { &mut *MAPS.0.get() };
    let mut got = 0;
    // SAFETY: a NUL-terminated path.
    let fd = unsafe { open(c"/proc/self/maps".as_ptr(), O_RDONLY | O_CLOEXEC) };
    while fd >= 0 && got < maps.len() {
        // SAFETY: reads into the unfilled tail of the buffer.
        let r = unsafe { read(fd, maps[got..].as_mut_ptr().cast(), maps.len() - got) };
        if r <= 0 {
            break;
        }
        got += r as usize;
    }
    if fd >= 0 {
        // SAFETY: our own descriptor.
        unsafe { close(fd) };
    }
    for line in maps[..got].split(|&b| b == b'\n') {
        if line.ends_with(exe) {
            out.put(b"map ");
            out.put(line);
            out.put(b"\n");
        }
    }
}
