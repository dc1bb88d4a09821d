//! A counting global allocator for the `*_allocs_per_doc` layer metrics.
//!
//! It wraps the system allocator and counts calls only while a
//! [`count_allocs`] window is open, which only the traced run does; outside
//! such a window it adds one relaxed load per allocation. Allocation counts
//! are exact and repeat from run to run, which timings do not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The allocator the benchmark binary installs.
pub struct CountingAllocator;

// Statistics only: neither value publishes other data, so `Relaxed` suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `layout` obligations pass through unchanged to
    // `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    // SAFETY: the caller passes a `(ptr, layout)` pair this allocator
    // returned, which came from `System`; both go back to it unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: the caller's `layout` obligations pass through unchanged to
    // `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from `System` via this allocator with `layout`, and
    // the caller guarantees `new_size` is valid for it; all three pass
    // through unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

fn count_one() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f` and returns its result with the number of heap allocations
/// (including reallocations) made meanwhile, on any thread.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}
