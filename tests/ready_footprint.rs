//! Heap footprint of a master's queued tasks.
//!
//! Lobster keeps "a buffer of 400 tasks ... to be assigned as workers
//! become available" (§4.1). A multi-tenant master with a small campaign
//! creates its whole workflow into that buffer at start-up: 2000
//! tasklets in tasks of six are 334 tasks, fewer than 400. This binary counts
//! every heap byte with its own global allocator, builds such a master
//! (64 cores, 2000 simulation tasklets, as each of `perfbench`'s
//! `tenants-100` masters), delivers its start event, and bounds the heap
//! it grew per created task. It is its own test binary because a global
//! allocator is per process.
//!
//! A queued task is its id and a 48-byte ready entry in the dispatch
//! buffer's ring, plus a 24-byte db row. Both containers grow by doubling,
//! to 512 slots for 334 tasks, so the start grows 123 heap bytes per task.
//! Queuing each task as a boxed 248-byte in-flight record, with its id in
//! the buffer and a pointer in an id-indexed slab, took 264 bytes per
//! task for the driver's record alone, and the start grew 297.

// The counting allocator must implement `GlobalAlloc`, which is an unsafe
// trait; the workspace otherwise denies unsafe code.
#![allow(unsafe_code)]

use lobster::config::{LobsterConfig, WorkflowConfig};
use lobster::driver::{ClusterSim, SimParams};
use lobster::session::Session;
use lobster::workflow::Workflow;
use simkit::time::SimTime;
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

const TASKLETS: u64 = 2_000;
/// Heap bytes the start event may grow per task it creates: the 123 of
/// the ready entries and db rows with their rings' slack, and some room,
/// well under the 264 the boxed in-flight record alone took.
const MAX_BYTES_PER_TASK: u64 = 160;

// One test function: the counter is per process, and the test harness
// runs test functions on parallel threads.
#[test]
fn start_queues_at_most_160_bytes_per_task() {
    let mut cfg = LobsterConfig::default();
    cfg.workflows = vec![WorkflowConfig::simulation("mt-gen")];
    cfg.workers.target_cores = 64;
    cfg.workers.cores_per_worker = 4;
    let wf = Workflow::simulation(&cfg.workflows[0], TASKLETS, 0);
    let tasks = TASKLETS.div_ceil(u64::from(cfg.workflows[0].tasklets_per_task));
    assert!(tasks < 400, "the whole campaign fits the dispatch buffer");
    let mut session = Session::start(ClusterSim::new(cfg, SimParams::default(), vec![wf]));

    let before = CURRENT.load(Ordering::Relaxed);
    session.advance(SimTime::ZERO, 1);
    let grown = CURRENT.load(Ordering::Relaxed).saturating_sub(before);
    assert_eq!(session.delivered(), 1, "only the start event ran");
    assert_eq!(
        session.sim().work_remaining(),
        TASKLETS,
        "nothing ran, nothing was lost"
    );

    let per_task = grown as f64 / tasks as f64;
    eprintln!("start: {grown} heap bytes for {tasks} queued tasks, {per_task:.1} per task");
    assert!(
        grown <= MAX_BYTES_PER_TASK * tasks,
        "{per_task:.1} bytes per queued task (bound {MAX_BYTES_PER_TASK})"
    );
}
