//! Heap footprint of the Lobster DB's task ledger.
//!
//! The db keeps one row per task ever created, so at 20k cores its
//! id-indexed columns are the largest thing the master holds. This binary
//! counts every heap byte with its own global allocator, drives 2^17
//! six-tasklet tasks through create, running and done in an in-memory db,
//! and bounds the live bytes per task. It is its own test binary because
//! a global allocator is per process.
//!
//! Per task the columns are a 24-byte task row, a 24-byte output row, an
//! 8-byte finish-order entry and an 8-byte merge state: 64 bytes. A row
//! that held its tasklets as a heap list, a 32-byte output row repeating
//! its own index and a parallel finish-order seq column took 144.

// The counting allocator must implement `GlobalAlloc`, which is an unsafe
// trait; the workspace otherwise denies unsafe code.
#![allow(unsafe_code)]

use lobster::db::LobsterDb;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live-byte counter around the system allocator (as in `bench_scale`).
struct CountingAlloc;

static CURRENT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CURRENT.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Tasks driven through the db: a power of two, so every column's
/// capacity ends exactly full and the bound measures rows, not slack.
const TASKS: u64 = 1 << 17;
const TASKLETS_PER_TASK: u32 = 6;
/// Live heap bytes per task the ledger may hold: the 64 bytes of columns
/// plus room for the workflow entry and allocator rounding, well under
/// the 144 of the list-per-row layout.
const MAX_BYTES_PER_TASK: u64 = 72;

#[test]
fn ledger_holds_at_most_72_bytes_per_task() {
    let before = CURRENT.load(Ordering::Relaxed);
    let mut db = LobsterDb::in_memory();
    db.register_workflow("wf", TASKS * u64::from(TASKLETS_PER_TASK));
    for _ in 0..TASKS {
        let id = db.create_task("wf", TASKLETS_PER_TASK).unwrap();
        db.mark_running(id).unwrap();
        db.mark_done(id, 1_000).unwrap();
    }
    let live = CURRENT.load(Ordering::Relaxed).saturating_sub(before);
    assert!(db.all_done());
    assert_eq!(db.task_count() as u64, TASKS);
    let per_task = live as f64 / TASKS as f64;
    eprintln!("db ledger: {live} live heap bytes, {per_task:.1} per task");
    assert!(
        live <= MAX_BYTES_PER_TASK * TASKS,
        "{per_task:.1} bytes per task (bound {MAX_BYTES_PER_TASK})"
    );
    drop(db);
}
