//! A counting global allocator for allocation-budget assertions.
//!
//! Installed once, in the test binary's root —
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: common::counting_alloc::CountingAlloc =
//!     common::counting_alloc::CountingAlloc;
//! ```
//!
//! — then bracket the code under measurement with [`start`]/[`stop`].
//! Counting is per thread and off by default: a test sees only the
//! allocations its own thread makes between its own `start` and `stop`,
//! so the harness's parallel test threads (and its set-up) cannot land in
//! another test's measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A `#[global_allocator]` that counts `alloc`/`realloc` calls, and the
/// bytes they request, on threads armed via [`start`], delegating all
/// actual work to [`System`].
pub struct CountingAlloc;

thread_local! {
    // `const` initialisers and `Cell<Copy>` payloads: no lazy
    // initialisation and no destructor, so touching these from inside the
    // allocator never allocates or re-enters it.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// One call asking for `bytes` new bytes.
fn count(bytes: usize) {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
        BYTES.set(BYTES.get() + bytes as u64);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown block is charged its growth, a shrunk one nothing.
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Zero this thread's counters and start counting its allocations.
pub fn start() {
    ALLOCS.set(0);
    BYTES.set(0);
    COUNTING.set(true);
}

/// Stop counting and return the number of `alloc`/`realloc` calls this
/// thread made since [`start`].
pub fn stop() -> u64 {
    COUNTING.set(false);
    ALLOCS.get()
}

/// Bytes this thread requested between the last [`start`] and [`stop`]
/// (`alloc` sizes plus `realloc` growth; frees are not subtracted, so this
/// is allocation traffic, not a high-water mark).
pub fn bytes() -> u64 {
    BYTES.get()
}
