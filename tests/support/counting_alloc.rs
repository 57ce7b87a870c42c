//! A counting allocator for tests that pin "this path does not
//! allocate": the system allocator plus a per-thread count of allocator
//! calls, so tests running in parallel on other threads do not disturb a
//! measurement. The test binary installs it itself:
//!
//! ```ignore
//! #[path = "support/counting_alloc.rs"]
//! mod counting_alloc;
//! #[global_allocator]
//! static ALLOC: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc` made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

pub struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain per-thread statistic that needs no
// allocation itself (const-initialised, no destructor).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` is a fresh trip to the allocator: count it.
        note();
        // SAFETY: `ptr`/`layout` describe a live block from this allocator
        // (which is `System`), per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns its result with the number of allocator calls the
/// calling thread made meanwhile.
pub fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}
