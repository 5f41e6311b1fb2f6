//! The gated benches' heap meter: a counting wrapper around the system
//! allocator. A bench binary installs it with
//! `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;`.
//!
//! It tracks live bytes and their high-water mark; [`measure`] reads a
//! closure's peak from them. The peak is the benches' RSS proxy: it moves with the same data structures
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

/// Run `f` with counting on and return its result with its peak heap:
/// the most it allocated and still held at once, as growth over the live
/// heap at its start, so what the caller already holds (earlier points'
/// results, a baseline) is in no peak. Counting is left as it was found.
/// Zero unless the binary installed [`CountingAlloc`].
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let was = COUNTING.swap(true, Ordering::Relaxed);
    let start = CURRENT.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    let peak = (PEAK.load(Ordering::Relaxed) - start).max(0) as u64;
    COUNTING.store(was, Ordering::Relaxed);
    (out, peak)
}
