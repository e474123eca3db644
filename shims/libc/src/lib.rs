//! Offline stand-in for the `libc` crate, declaring only what `uat-fiber`
//! uses: anonymous/stack/shared mappings, page protection, fork/waitpid,
//! `memfd_create` and `futex` via `syscall`, and `process_vm_readv`. Values are the
//! x86-64 Linux ABI constants (the only target `uat-fiber` supports —
//! its context switch is x86-64 assembly).

#![allow(non_camel_case_types, non_upper_case_globals, non_snake_case)]
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

pub use std::ffi::c_void;

/// C `int`.
pub type c_int = i32;
/// C `unsigned int`.
pub type c_uint = u32;
/// C `long`.
pub type c_long = i64;
/// C `unsigned long`.
pub type c_ulong = u64;
/// C `size_t`.
pub type size_t = usize;
/// C `ssize_t`.
pub type ssize_t = isize;
/// POSIX process id.
pub type pid_t = i32;
/// POSIX file offset.
pub type off_t = i64;

/// Scatter/gather element for `process_vm_readv`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct iovec {
    /// Base address of the buffer.
    pub iov_base: *mut c_void,
    /// Length of the buffer in bytes.
    pub iov_len: size_t,
}

/// Pages may not be accessed.
pub const PROT_NONE: c_int = 0;
/// Pages may be read.
pub const PROT_READ: c_int = 1;
/// Pages may be written.
pub const PROT_WRITE: c_int = 2;

/// Share the mapping with other processes.
pub const MAP_SHARED: c_int = 0x01;
/// Private copy-on-write mapping.
pub const MAP_PRIVATE: c_int = 0x02;
/// Place exactly at the hint or fail (never clobber an existing mapping).
pub const MAP_FIXED_NOREPLACE: c_int = 0x100000;
/// Not backed by a file.
pub const MAP_ANONYMOUS: c_int = 0x20;
/// Mapping used as a thread stack.
pub const MAP_STACK: c_int = 0x20000;
/// `mmap` failure sentinel.
pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// `memfd_create` syscall number (x86-64).
pub const SYS_memfd_create: c_long = 319;
/// `futex` syscall number (x86-64).
pub const SYS_futex: c_long = 202;

/// `waitpid`: return immediately when no child has changed state.
pub const WNOHANG: c_int = 1;
/// Uncatchable termination signal.
pub const SIGKILL: c_int = 9;

/// Did the child terminate normally (via `exit`/`_exit`)?
pub fn WIFEXITED(status: c_int) -> bool {
    (status & 0x7f) == 0
}

/// The child's exit status (meaningful only when [`WIFEXITED`]).
pub fn WEXITSTATUS(status: c_int) -> c_int {
    (status >> 8) & 0xff
}

extern "C" {
    /// Map pages into the address space.
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    /// Unmap pages.
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    /// Change page protection.
    pub fn mprotect(addr: *mut c_void, len: size_t, prot: c_int) -> c_int;
    /// Close a file descriptor.
    pub fn close(fd: c_int) -> c_int;
    /// Create a child process.
    pub fn fork() -> pid_t;
    /// Wait for a child process.
    pub fn waitpid(pid: pid_t, status: *mut c_int, options: c_int) -> pid_t;
    /// Send a signal to a process.
    pub fn kill(pid: pid_t, sig: c_int) -> c_int;
    /// Set a file's length.
    pub fn ftruncate(fd: c_int, length: off_t) -> c_int;
    /// Write bytes to a file descriptor (async-signal-safe).
    pub fn write(fd: c_int, buf: *const c_void, count: size_t) -> ssize_t;
    /// Terminate immediately without running atexit handlers.
    pub fn _exit(status: c_int) -> !;
    /// Raw syscall entry (used for `memfd_create` and `futex`).
    pub fn syscall(num: c_long, ...) -> c_long;
    /// Read another process's memory (one-sided, like an RDMA READ).
    pub fn process_vm_readv(
        pid: pid_t,
        local_iov: *const iovec,
        liovcnt: c_ulong,
        remote_iov: *const iovec,
        riovcnt: c_ulong,
        flags: c_ulong,
    ) -> ssize_t;
}
