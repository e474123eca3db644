//! Task stacks: `mmap`-backed, guard-paged, pooled.
//!
//! The stack-pool creation strategy (and the runtime) give every thread
//! its own stack, as MassiveThreads does. Stacks come from `mmap` with a
//! guard page at the low end so overflow faults instead of corrupting a
//! neighbour — a page-table marker where the kernel takes one, so a stack
//! stays one mapping, `PROT_NONE` otherwise (`frame::guard_page`) — and
//! are recycled through a free list because `mmap`/`munmap` per spawn
//! would dwarf the 100-cycle budget.

use crate::frame::{guard_page, PAGE};
use std::ptr::NonNull;

/// One task stack.
#[derive(Debug)]
pub struct Stack {
    /// Base of the whole mapping (guard page included).
    base: NonNull<u8>,
    /// Total mapping length (guard page included).
    len: usize,
}

// SAFETY: [I6] a Stack is just an owned memory range; moving it between
// threads is fine (the runtime hands stacks to whichever worker runs the
// task).
unsafe impl Send for Stack {}

impl Stack {
    /// Map a stack with `usable` usable bytes plus one guard page.
    pub fn new(usable: usize) -> Stack {
        let len = usable.div_ceil(PAGE) * PAGE + PAGE;
        // SAFETY: [I10] plain anonymous private mapping; we check the result.
        let base = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_STACK,
                -1,
                0,
            )
        };
        assert!(base != libc::MAP_FAILED, "mmap failed for a task stack");
        // Guard page at the low end (stacks grow down).
        guard_page(base as usize);
        Stack {
            base: NonNull::new(base as *mut u8).expect("mmap returned null"),
            len,
        }
    }

    /// Highest usable address, 16-byte aligned — the initial stack
    /// pointer for a fresh thread (minus the ABI's red-zone etiquette,
    /// handled by the switch shim).
    pub fn top(&self) -> *mut u8 {
        let top = self.base.as_ptr() as usize + self.len;
        (top & !15) as *mut u8
    }

    /// Lowest usable address (just above the guard page).
    pub fn limit(&self) -> *mut u8 {
        (self.base.as_ptr() as usize + PAGE) as *mut u8
    }

    /// Usable bytes.
    pub fn usable(&self) -> usize {
        self.len - PAGE
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: [I6][I10] unmapping exactly what we mapped.
        unsafe {
            libc::munmap(self.base.as_ptr() as *mut libc::c_void, self.len);
        }
    }
}

/// A simple free-list pool of equally sized stacks.
#[derive(Debug)]
pub struct StackPool {
    size: usize,
    free: Vec<Stack>,
    /// Total stacks ever created (diagnostics).
    pub created: usize,
}

impl StackPool {
    /// A pool of `size`-byte stacks.
    pub fn new(size: usize) -> StackPool {
        StackPool {
            size,
            free: Vec::new(),
            created: 0,
        }
    }

    /// Take a stack (reuse or map a fresh one).
    #[inline]
    pub fn take(&mut self) -> Stack {
        self.free.pop().unwrap_or_else(|| self.map_one())
    }

    /// The pool is dry: map a fresh stack, out of the spawn path.
    #[cold]
    #[inline(never)]
    fn map_one(&mut self) -> Stack {
        self.created += 1;
        Stack::new(self.size)
    }

    /// Return a stack for reuse.
    #[inline]
    pub fn put(&mut self, s: Stack) {
        self.free.push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_is_writable_and_aligned() {
        let s = Stack::new(64 << 10);
        assert!(s.usable() >= 64 << 10);
        assert_eq!(s.top() as usize % 16, 0);
        // Write across the usable range.
        let limit = s.limit();
        // SAFETY: [I6] [limit, top) is our mapping's RW span.
        unsafe {
            std::ptr::write_bytes(limit, 0xAB, s.usable());
            assert_eq!(*limit, 0xAB);
            assert_eq!(*s.top().sub(1), 0xAB);
        }
    }

    #[test]
    fn pool_recycles() {
        let mut p = StackPool::new(16 << 10);
        let a = p.take();
        let a_top = a.top() as usize;
        p.put(a);
        let b = p.take();
        assert_eq!(b.top() as usize, a_top, "same stack handed back");
        assert_eq!(p.created, 1);
        let _c = p.take();
        assert_eq!(p.created, 2);
    }

    #[test]
    fn sizes_round_to_pages() {
        let s = Stack::new(1);
        assert_eq!(s.usable(), 4096);
    }
}
