//! Property-based tests for Work Queue bookkeeping and the real executor.

use proptest::prelude::*;
use simkit::time::SimTime;
use wqueue::sim::{DispatchBuffer, WorkerTable};
use wqueue::task::TaskId;

proptest! {
    /// WorkerTable slot accounting: under any interleaving of connect /
    /// claim / release / disconnect, busy ≤ cores and the free index
    /// agrees with per-worker state.
    #[test]
    fn worker_table_slot_accounting(ops in prop::collection::vec(0u8..4, 1..300)) {
        let mut t = WorkerTable::new();
        let mut claimed: Vec<u64> = Vec::new();
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for op in ops {
            match op {
                0 => {
                    t.connect(1 + (next() % 8) as u32, 0, SimTime::ZERO);
                }
                1 => {
                    if let Some(w) = t.claim_slot() {
                        claimed.push(w);
                    }
                }
                2 => {
                    if !claimed.is_empty() {
                        let idx = (next() as usize) % claimed.len();
                        let w = claimed.swap_remove(idx);
                        t.release_slot(w);
                    }
                }
                _ => {
                    if !claimed.is_empty() {
                        let idx = (next() as usize) % claimed.len();
                        let w = claimed[idx];
                        t.disconnect(w);
                        claimed.retain(|&x| x != w);
                    }
                }
            }
            // Invariants after every step.
            prop_assert!(t.busy_slots() + t.free_slots() == t.total_cores());
            for w in t.iter() {
                prop_assert!(w.busy <= w.cores);
            }
            let live_claims =
                claimed.iter().filter(|w| t.get(**w).is_some()).count() as u64;
            prop_assert_eq!(t.busy_slots(), live_claims);
        }
    }

    /// The driver's slot-hold protocol: a dispatched task either finishes
    /// (slot released at collection), fails EnvInit (slot *held* until a
    /// deferred SlotFree fires), or dies with its evicted worker. Under
    /// any interleaving, busy never exceeds capacity, busy always equals
    /// live-running + live-holds, and draining the system leaks nothing.
    #[test]
    fn slot_hold_protocol_leaks_nothing(ops in prop::collection::vec(0u8..7, 1..400)) {
        let mut t = WorkerTable::new();
        // Tasks occupying a claimed slot right now, by worker.
        let mut running: Vec<u64> = Vec::new();
        // EnvInit failures: the slot stays busy until SlotFree fires.
        let mut holds: Vec<u64> = Vec::new();
        let mut rng = 0xD1B54A32D192ED03u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for op in ops {
            match op {
                0 => {
                    t.connect(1 + (next() % 4) as u32, 0, SimTime::ZERO);
                }
                // Dispatch: claim a slot and run a task on it.
                1 | 2 => {
                    if let Some(w) = t.claim_slot() {
                        running.push(w);
                    }
                }
                // Collection: the task finishes and frees its slot.
                3 => {
                    if !running.is_empty() {
                        let idx = (next() as usize) % running.len();
                        let w = running.swap_remove(idx);
                        t.release_slot(w);
                    }
                }
                // EnvInit failure: the task leaves but the slot is held
                // back (the driver schedules SlotFree later instead of
                // releasing immediately).
                4 => {
                    if !running.is_empty() {
                        let idx = (next() as usize) % running.len();
                        holds.push(running.swap_remove(idx));
                    }
                }
                // SlotFree fires for one pending hold. The worker may be
                // gone by now — release must be a no-op then.
                5 => {
                    if !holds.is_empty() {
                        let idx = (next() as usize) % holds.len();
                        let w = holds.swap_remove(idx);
                        t.release_slot(w);
                    }
                }
                // Eviction: a worker with busy slots disconnects, taking
                // its running tasks and any held slots with it (their
                // later SlotFree events become no-ops).
                _ => {
                    let busy: Vec<u64> =
                        running.iter().chain(holds.iter()).copied().collect();
                    if !busy.is_empty() {
                        let w = busy[(next() as usize) % busy.len()];
                        t.disconnect(w);
                        running.retain(|&x| x != w);
                        // Keep the worker's holds: the driver's already
                        // scheduled SlotFree events still fire against
                        // the disconnected id and must be no-ops.
                    }
                }
            }
            prop_assert!(t.busy_slots() <= t.total_cores());
            prop_assert_eq!(t.busy_slots() + t.free_slots(), t.total_cores());
            let live = running
                .iter()
                .chain(holds.iter())
                .filter(|w| t.get(**w).is_some())
                .count() as u64;
            prop_assert_eq!(t.busy_slots(), live);
        }
        // Quiescence: finish every running task and fire every pending
        // SlotFree — no slot may stay busy afterwards.
        for w in running.drain(..).chain(holds.drain(..)) {
            t.release_slot(w);
        }
        prop_assert_eq!(t.busy_slots(), 0, "leaked slots after drain");
        prop_assert_eq!(t.free_slots(), t.total_cores());
        for w in t.iter() {
            prop_assert_eq!(w.busy, 0);
        }
    }

    /// The `free_hot`/`free_cold` indexes vs a naive model: after every
    /// connect / claim / release / evict / cache-heat operation, the
    /// maintained index sets are *exactly* the sets a full recomputed
    /// scan of the worker table produces, and a claim returns the
    /// smallest free worker (hot first). The churn ops connect whole
    /// words of workers, drain every free slot and hand them all back,
    /// so the lowest-word hint moves past emptied words and back down.
    #[test]
    fn free_index_matches_naive_scan(ops in prop::collection::vec(0u8..8, 1..400)) {
        use std::collections::BTreeSet;
        let mut t = WorkerTable::new();
        let mut claimed: Vec<u64> = Vec::new();
        let mut known: Vec<u64> = Vec::new();
        let mut rng = 0xA0761D6478BD642Fu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for op in ops {
            match op {
                0 => {
                    known.push(t.connect(1 + (next() % 4) as u32, 0, SimTime::ZERO));
                }
                1 => {
                    // The claim must pick the smallest worker the scan
                    // says has room, hot ones first.
                    let scan_free: BTreeSet<u64> =
                        t.iter().filter(|w| w.free() > 0).map(|w| w.id).collect();
                    let smallest = t
                        .iter()
                        .filter(|w| w.free() > 0)
                        .min_by_key(|w| (!w.cache_hot, w.id))
                        .map(|w| w.id);
                    let got = t.claim_slot();
                    prop_assert_eq!(got, smallest, "claim skipped the smallest free worker");
                    if let Some(w) = got {
                        prop_assert!(
                            scan_free.contains(&w),
                            "claimed {} which had zero free slots", w
                        );
                        claimed.push(w);
                    } else {
                        prop_assert!(scan_free.is_empty(), "claim refused free capacity");
                    }
                }
                2 => {
                    if !claimed.is_empty() {
                        let idx = (next() as usize) % claimed.len();
                        t.release_slot(claimed.swap_remove(idx));
                    }
                }
                3 => {
                    if !known.is_empty() {
                        let w = known[(next() as usize) % known.len()];
                        t.set_cache_hot(w); // may target an evicted id: no-op
                    }
                }
                4 => {
                    if !known.is_empty() {
                        let idx = (next() as usize) % known.len();
                        let w = known.swap_remove(idx);
                        t.disconnect(w);
                        claimed.retain(|&x| x != w);
                    }
                }
                5 => {
                    // A word's worth of single-core workers at once.
                    for _ in 0..64 {
                        known.push(t.connect(1, 0, SimTime::ZERO));
                    }
                }
                6 => {
                    // Drain: every free slot is claimed, so every word
                    // of both indexes empties, lowest first.
                    while let Some(w) = t.claim_slot() {
                        claimed.push(w);
                    }
                    prop_assert_eq!(t.free_slots(), 0);
                }
                _ => {
                    // Refill: hand back every claimed slot, lowest words
                    // included, so the hint has to move back down.
                    for w in claimed.drain(..) {
                        t.release_slot(w);
                    }
                    prop_assert_eq!(t.busy_slots(), 0);
                }
            }
            // Recompute both index sets from scratch and require exact
            // equality — not mere consistency — with the maintained ones.
            let scan_hot: BTreeSet<u64> = t
                .iter()
                .filter(|w| w.cache_hot && w.free() > 0)
                .map(|w| w.id)
                .collect();
            let scan_cold: BTreeSet<u64> = t
                .iter()
                .filter(|w| !w.cache_hot && w.free() > 0)
                .map(|w| w.id)
                .collect();
            let idx_hot: BTreeSet<u64> = t.free_hot_ids().collect();
            let idx_cold: BTreeSet<u64> = t.free_cold_ids().collect();
            prop_assert_eq!(&idx_hot, &scan_hot, "free_hot diverged from scan");
            prop_assert_eq!(&idx_cold, &scan_cold, "free_cold diverged from scan");
            prop_assert!(idx_hot.is_disjoint(&idx_cold), "a worker in both indexes");
        }
    }

    /// Hot workers are always preferred over cold ones by claim_slot.
    #[test]
    fn hot_preference(n_cold in 1usize..20, n_hot in 1usize..20) {
        let mut t = WorkerTable::new();
        let mut hot_ids = std::collections::HashSet::new();
        for _ in 0..n_cold {
            t.connect(1, 0, SimTime::ZERO);
        }
        for _ in 0..n_hot {
            let id = t.connect(1, 0, SimTime::ZERO);
            t.set_cache_hot(id);
            hot_ids.insert(id);
        }
        for i in 0..(n_cold + n_hot) {
            let got = t.claim_slot().expect("slots remain");
            if i < n_hot {
                prop_assert!(hot_ids.contains(&got), "hot slots must go first");
            } else {
                prop_assert!(!hot_ids.contains(&got));
            }
        }
        prop_assert!(t.claim_slot().is_none());
    }

    /// DispatchBuffer is FIFO and its deficit tracks the target exactly.
    #[test]
    fn dispatch_buffer_fifo(pushes in prop::collection::vec(any::<u64>(), 0..100), target in 1usize..500) {
        let mut b = DispatchBuffer::with_target(target);
        for &p in &pushes {
            b.push(TaskId(p));
        }
        prop_assert_eq!(b.len(), pushes.len());
        prop_assert_eq!(b.deficit(), target.saturating_sub(pushes.len()));
        let drained: Vec<u64> = std::iter::from_fn(|| b.pop()).map(|t| t.0).collect();
        prop_assert_eq!(drained, pushes);
        prop_assert!(b.is_empty());
    }
}

/// The real executor completes arbitrary task batches exactly once each
/// (smaller cases than the unit tests, but randomised shapes).
#[test]
fn local_master_completes_every_task() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use wqueue::local::{payload, LocalMaster};
    use wqueue::task::TaskSpec;

    for (workers, cores, tasks) in [(1u32, 1u32, 7u64), (2, 3, 25), (4, 2, 40)] {
        let mut m = LocalMaster::new();
        for _ in 0..workers {
            m.attach_worker(cores);
        }
        let runs = Arc::new(AtomicU64::new(0));
        for i in 0..tasks {
            let runs = Arc::clone(&runs);
            m.submit(
                TaskSpec::new(TaskId(i), format!("t{i}")),
                payload(move |_| {
                    runs.fetch_add(1, Ordering::SeqCst);
                    Ok(vec![])
                }),
            );
        }
        let results = m.wait_all(std::time::Duration::from_secs(30));
        assert_eq!(results.len() as u64, tasks);
        assert_eq!(
            runs.load(Ordering::SeqCst),
            tasks,
            "each task ran exactly once"
        );
        let mut ids: Vec<u64> = results.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..tasks).collect::<Vec<_>>());
        m.shutdown();
    }
}
