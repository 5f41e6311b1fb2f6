//! Heap footprint of the Lobster DB's task ledger.
//!
//! The db keeps one row per task ever created, so at 20k cores its
//! id-indexed columns are the largest thing the master holds. This binary
//! counts every heap byte with its own global allocator and drives
//! six-tasklet tasks through create, running and done in an in-memory db.
//! It bounds the live bytes per task after 2^17 tasks, and the peak bytes
//! per task while the ledger grows to a real campaign's 166,667 tasks. It
//! is its own test binary because a global allocator is per process.
//!
//! Per task the columns are a 24-byte task row, a 16-byte output row, an
//! 8-byte finish-order entry and an 8-byte merge state: 56 bytes. Each
//! column grows by fixed pages of 4096 rows, never by doubling, so the
//! peak is the rows plus at most one partly filled page per column: 56.5
//! bytes per task at 166,667 tasks, where doubling columns peaked at 107.
//! A row that held its tasklets as a heap list, a 32-byte output row
//! repeating its own index and a parallel finish-order seq column took
//! 144 bytes per task.

// The counting allocator must implement `GlobalAlloc`, which is an unsafe
// trait; the workspace otherwise denies unsafe code.
#![allow(unsafe_code)]

use lobster::db::LobsterDb;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live-byte counter around the system allocator (as in `bench_scale`).
struct CountingAlloc;

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let size = layout.size() as u64;
            let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
            PEAK.fetch_max(now, Ordering::Relaxed);
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

/// Tasks driven through the db for the row check: a power of two, so a
/// column that doubled would end exactly full and the bound measures
/// rows, not slack.
const TASKS: u64 = 1 << 17;
const TASKLETS_PER_TASK: u32 = 6;
/// Live heap bytes per task the ledger may hold: the 56 bytes of columns
/// plus room for the workflow entry and allocator rounding, well under
/// the 144 of the list-per-row layout.
const MAX_BYTES_PER_TASK: u64 = 72;
/// Tasks of `perfbench`'s `scale-20k` campaign: 1M tasklets in six-tasklet
/// tasks. Not a power of two, so slack in the columns shows.
const CAMPAIGN_TASKS: u64 = 166_667;
/// Peak live heap bytes per task while the ledger grows to
/// `CAMPAIGN_TASKS`: the 56 bytes of rows, the partly filled last page of
/// each column, the page tables, and the one page a growth allocates.
/// Columns that doubled read over 100 here.
const MAX_PEAK_BYTES_PER_TASK: u64 = 64;

/// Drive `tasks` six-tasklet tasks through create, running and done in a
/// fresh in-memory db.
fn drive(tasks: u64) -> LobsterDb {
    let mut db = LobsterDb::in_memory();
    db.register_workflow("wf", tasks * u64::from(TASKLETS_PER_TASK));
    for _ in 0..tasks {
        let id = db.create_task("wf", TASKLETS_PER_TASK).unwrap();
        db.mark_running(id).unwrap();
        db.mark_done(id, 1_000).unwrap();
    }
    assert!(db.all_done());
    assert_eq!(db.task_count() as u64, tasks);
    db
}

// One test function: the counters are per process, and the test harness
// runs test functions on parallel threads.
#[test]
fn ledger_holds_at_most_72_bytes_per_task() {
    let before = CURRENT.load(Ordering::Relaxed);
    let db = drive(TASKS);
    let live = CURRENT.load(Ordering::Relaxed).saturating_sub(before);
    let per_task = live as f64 / TASKS as f64;
    eprintln!("db ledger: {live} live heap bytes, {per_task:.1} per task");
    assert!(
        live <= MAX_BYTES_PER_TASK * TASKS,
        "{per_task:.1} bytes per task (bound {MAX_BYTES_PER_TASK})"
    );
    drop(db);

    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let db = drive(CAMPAIGN_TASKS);
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);
    let per_task = peak as f64 / CAMPAIGN_TASKS as f64;
    eprintln!("campaign ledger: {peak} peak heap bytes, {per_task:.1} per task");
    assert!(
        peak <= MAX_PEAK_BYTES_PER_TASK * CAMPAIGN_TASKS,
        "{per_task:.1} peak bytes per task (bound {MAX_PEAK_BYTES_PER_TASK})"
    );
    drop(db);
}
