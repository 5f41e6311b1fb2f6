//! The gated benches' heap meter: a counting wrapper around the system
//! allocator. A bench binary installs it with
//! `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;`.
//!
//! `current` tracks live bytes and `peak` their high-water mark. The peak
//! is the benches' RSS proxy: it moves with the same data structures
//! (event queue, worker table, task ledger) that drive resident memory,
//! without depending on the platform's RSS accounting.

// `GlobalAlloc` is an unsafe trait; the workspace otherwise denies
// unsafe code.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// Live-byte and high-water counter around [`System`].
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(true);
// Signed: a block allocated while counting was off and freed while it is
// on takes its size off the count.
static CURRENT: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            let size = layout.size() as i64;
            let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            CURRENT.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Count allocations (the default) or not. Counting costs two shared
/// atomic updates per allocation, which threads that allocate at once
/// contend for, so a bench times its multi-threaded runs with counting
/// off and measures peaks on a separate run with it on.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Reset the high-water mark to the current live size (call between
/// sweep points so each point reports its own peak).
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The high-water mark of counted live heap bytes since the last
/// [`reset_peak`]. Zero unless the binary installed [`CountingAlloc`].
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// The counted live heap bytes now.
pub fn current() -> u64 {
    CURRENT.load(Ordering::Relaxed).max(0) as u64
}
