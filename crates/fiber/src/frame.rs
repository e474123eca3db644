//! The frame claim, defined once for both real backends (DESIGN.md
//! [I19], §9.2).
//!
//! The paper allocates a child's frame "just below the parent" at
//! creation (Figure 4): a pointer subtraction. Here a task's record sits
//! at the top of the task's own stack — a pooled stack under threads, a
//! shared-region slot across processes — and the spawner, which is the
//! one place `Workload::frame_size` is evaluated, starts the body
//! `frame` bytes below the record. Nothing touches the claimed bytes.
//! The bound check in [`claim`] is what keeps the entry address inside
//! the mapping; the guard page below `limit` still catches whatever the
//! body itself overflows. Both backends install that page through
//! [`guard_page`] and [`Guard::install`].

use std::fmt;

/// The page size both backends lay their stacks out by: the guard page
/// below every stack, and so every stack's limit.
pub(crate) const PAGE: usize = 4096;

/// The `madvise` advice that installs guard markers (Linux uapi),
/// declared here because not every `libc` 0.2 release exports it.
const MADV_GUARD_INSTALL: libc::c_int = 102;

/// How a guard page is made to fault on any access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Guard {
    /// A page-table marker, `madvise(MADV_GUARD_INSTALL)`: the mapping
    /// stays one mapping, and the marker lives in the page tables of the
    /// process that installed it. Linux takes markers on private
    /// anonymous memory since 6.13, and on shared file memory since 6.15.
    Marker,
    /// `mprotect(PROT_NONE)`: the kernel splits the mapping around the
    /// page, and every `fork` and `munmap` copies or tears down each
    /// piece.
    Protect,
}

impl Guard {
    /// Make the page at `page`, in a mapping the caller owns, fault on
    /// any access by this mechanism; `false` if the kernel refused, with
    /// the reason in `errno`. One syscall, no allocation and no lock, so
    /// a forked worker may call it inside its fork-safety window ([I15]).
    pub(crate) fn install(self, page: usize) -> bool {
        debug_assert!(page.is_multiple_of(PAGE));
        let page = page as *mut libc::c_void;
        // SAFETY: [I10] one page of the caller's own mapping; neither
        // call touches memory outside it, and the result is checked.
        let rc = unsafe {
            match self {
                Guard::Marker => libc::madvise(page, PAGE, MADV_GUARD_INSTALL),
                Guard::Protect => libc::mprotect(page, PAGE, libc::PROT_NONE),
            }
        };
        rc == 0
    }
}

/// Guard the page at `page` with a marker where the kernel accepts one
/// on this mapping, by `mprotect` otherwise, and say which it used.
pub(crate) fn guard_page(page: usize) -> Guard {
    if Guard::Marker.install(page) {
        return Guard::Marker;
    }
    assert!(
        Guard::Protect.install(page),
        "mprotect(guard page) failed: {}",
        std::io::Error::last_os_error()
    );
    Guard::Protect
}

/// A frame claim [`claim`] refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct FrameTooLarge {
    /// Bytes asked for.
    pub(crate) frame: u64,
    /// Bytes between the task's record and its stack's limit.
    pub(crate) room: usize,
}

impl fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a task frame of {} bytes does not fit the {} bytes between the task's record and \
             its stack's limit",
            self.frame, self.room
        )
    }
}

/// The stack pointer a task enters its body with: `frame` bytes below
/// its record at `record`, rounded down to a cache line (the ABI asks
/// for 16), so the body's first frames start on a line whatever size
/// the record above is. Refused if that is below `limit`, the stack's
/// lowest usable address.
#[inline]
pub(crate) fn claim(record: usize, limit: usize, frame: u64) -> Result<usize, FrameTooLarge> {
    usize::try_from(frame)
        .ok()
        .and_then(|frame| record.checked_sub(frame))
        .map(|sp| sp & !63)
        .filter(|&sp| sp >= limit)
        .ok_or(FrameTooLarge {
            frame,
            room: record.saturating_sub(limit),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::c_void;

    /// Two read-write pages, private anonymous or shared over a fresh
    /// memfd (as the multiprocess region is), unmapped on drop.
    struct Pages {
        base: usize,
        kind: &'static str,
    }

    impl Pages {
        fn map(shared: bool) -> Pages {
            let (fd, flags, kind) = if shared {
                // SAFETY: [I10] a fresh memfd, checked, sized to the
                // mapping below and closed once mapped.
                let fd = unsafe {
                    let fd = libc::syscall(libc::SYS_memfd_create, c"uat-guard".as_ptr(), 0u32);
                    assert!(fd >= 0, "memfd_create failed");
                    assert_eq!(libc::ftruncate(fd as i32, 2 * PAGE as libc::off_t), 0);
                    fd as i32
                };
                (fd, libc::MAP_SHARED, "shared memfd")
            } else {
                let flags = libc::MAP_PRIVATE | libc::MAP_ANONYMOUS;
                (-1, flags, "private anonymous")
            };
            let prot = libc::PROT_READ | libc::PROT_WRITE;
            // SAFETY: [I10] a fresh mapping anywhere; checked.
            let base = unsafe { libc::mmap(std::ptr::null_mut(), 2 * PAGE, prot, flags, fd, 0) };
            if fd >= 0 {
                // SAFETY: [I10] our own descriptor; the mapping keeps
                // the memfd alive.
                unsafe { libc::close(fd) };
            }
            assert!(base != libc::MAP_FAILED, "mmap failed");
            Pages {
                base: base as usize,
                kind,
            }
        }

        /// Mappings of this process over the two pages.
        fn mappings(&self) -> usize {
            let maps = std::fs::read_to_string("/proc/self/maps").expect("maps");
            maps.lines()
                .filter_map(|l| l.split(' ').next()?.split_once('-'))
                .filter_map(|(a, b)| {
                    let a = usize::from_str_radix(a, 16).ok()?;
                    Some((a, usize::from_str_radix(b, 16).ok()?))
                })
                .filter(|&(a, b)| a < self.base + 2 * PAGE && self.base < b)
                .count()
        }

        /// How a forked child that reads `page`, with core dumps off,
        /// ended: the signal that killed it, or `None` if it read the
        /// page and exited.
        fn child_reading(&self, page: usize) -> Option<i32> {
            // SAFETY: [I10] the child makes two syscalls and one read,
            // all async-signal-safe, and leaves by `_exit`.
            let pid = unsafe { libc::fork() };
            assert!(pid >= 0, "fork failed");
            if pid == 0 {
                // SAFETY: [I10] as above; `page` is in our mapping,
                // which the child inherited.
                unsafe {
                    libc::prctl(libc::PR_SET_DUMPABLE, 0);
                    std::ptr::read_volatile(page as *const u8);
                    libc::_exit(0)
                }
            }
            let mut status = 0;
            // SAFETY: [I10] reaping our own child.
            assert_eq!(unsafe { libc::waitpid(pid, &mut status, 0) }, pid);
            libc::WIFSIGNALED(status).then(|| libc::WTERMSIG(status))
        }
    }

    impl Drop for Pages {
        fn drop(&mut self) {
            // SAFETY: [I10] unmapping exactly what `map` mapped.
            unsafe { libc::munmap(self.base as *mut c_void, 2 * PAGE) };
        }
    }

    /// `guard` on the lower page of each kind of mapping: a read of it
    /// kills a forked child by SIGSEGV, the page above still reads, and
    /// the pages make `mappings` mappings. `false` (with the reason
    /// printed) where the kernel refused `guard` on a kind.
    fn guard_faults(guard: Guard, mappings: usize) -> bool {
        let mut all = true;
        for shared in [false, true] {
            let pages = Pages::map(shared);
            if !guard.install(pages.base) {
                let e = std::io::Error::last_os_error();
                eprintln!("skipping {guard:?} guard on {}: {e}", pages.kind);
                all = false;
                continue;
            }
            eprintln!("guard mode {guard:?} on {}", pages.kind);
            assert_eq!(
                pages.child_reading(pages.base),
                Some(libc::SIGSEGV),
                "{guard:?} on {}",
                pages.kind
            );
            assert_eq!(pages.child_reading(pages.base + PAGE), None);
            assert_eq!(pages.mappings(), mappings, "{guard:?} on {}", pages.kind);
        }
        all
    }

    #[test]
    fn a_marker_guard_faults_and_keeps_one_mapping() {
        guard_faults(Guard::Marker, 1);
    }

    #[test]
    fn a_protect_guard_faults_and_splits_the_mapping() {
        assert!(guard_faults(Guard::Protect, 2), "mprotect must guard");
    }

    #[test]
    fn guard_page_takes_a_marker_where_the_kernel_does() {
        for shared in [false, true] {
            let pages = Pages::map(shared);
            let used = guard_page(pages.base);
            eprintln!("guard_page chose {used:?} on {}", pages.kind);
            let want = if Guard::Marker.install(Pages::map(shared).base) {
                Guard::Marker
            } else {
                Guard::Protect
            };
            assert_eq!(used, want, "{}", pages.kind);
            assert_eq!(pages.child_reading(pages.base), Some(libc::SIGSEGV));
        }
    }

    #[test]
    fn claim_is_aligned_below_the_record_and_bounded_by_the_limit() {
        let limit = 0x7000_0000_1000usize;
        // A record as `place_record` aligns it, and one only 8-aligned
        // (the helper, not its caller, owes the body its line).
        for record in [limit + 64 * PAGE - 96, limit + 64 * PAGE - 8] {
            for frame in [0, 1, 255, 256, 1_120, 4_095, 4_096, 3 * PAGE as u64] {
                let sp = claim(record, limit, frame).expect("fits 64 pages");
                assert_eq!(sp % 64, 0, "frame {frame}");
                assert!(sp + frame as usize <= record, "frame {frame}");
                assert!(
                    record - sp < frame as usize + 64,
                    "frame {frame}: over-claimed"
                );
            }
        }
    }

    #[test]
    fn a_frame_that_exactly_fits_is_accepted_and_one_byte_more_refused() {
        let limit = 0x7000_0000_1000usize;
        let record = limit + 4 * PAGE - 96;
        let room = record - limit;
        assert_eq!(claim(record, limit, room as u64), Ok(limit));
        let refused = FrameTooLarge {
            frame: room as u64 + 1,
            room,
        };
        assert_eq!(claim(record, limit, room as u64 + 1), Err(refused));
        // Frames no address space holds are refused, not wrapped.
        for frame in [record as u64 + 1, u64::MAX] {
            assert_eq!(
                claim(record, limit, frame),
                Err(FrameTooLarge { frame, room })
            );
        }
        let msg = claim(record, limit, u64::MAX).unwrap_err().to_string();
        assert!(msg.contains(&format!("{} bytes", u64::MAX)), "{msg}");
        assert!(msg.contains(&format!("the {room} bytes")), "{msg}");
    }
}
