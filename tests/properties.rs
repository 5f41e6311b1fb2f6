//! Property-based tests (proptest) on the core data structures and
//! invariants that the whole reproduction leans on.

use lobster::db::{LobsterDb, TaskState};
use lobster::merge::MergePlanner;
use proptest::prelude::*;
use simkit::queue::Server;
use simkit::rng::SimRng;
use simkit::stats::{binomial_ci, Histogram, Summary};
use simkit::time::{SimDuration, SimTime};
use simnet::link::FairLink;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use wqueue::task::{Category, DeadLetter, FailureCode, TaskId};

/// One workflow's tasklet ledger with every claim kept as a plain list:
/// the model the db's run-and-side-table layout must agree with.
struct LedgerModel {
    total: u64,
    /// Next never-claimed tasklet.
    cursor: u64,
    /// Tasklets returned by lost tasks, claimed again lowest first.
    returned: BTreeSet<u64>,
    /// Claim and state of task `i`.
    claims: Vec<Vec<u64>>,
    states: Vec<TaskState>,
    /// Ready or running task ids.
    live: Vec<usize>,
    done: u64,
    dead: u64,
}

impl LedgerModel {
    fn new(total: u64) -> Self {
        LedgerModel {
            total,
            cursor: 0,
            returned: BTreeSet::new(),
            claims: Vec::new(),
            states: Vec::new(),
            live: Vec::new(),
            done: 0,
            dead: 0,
        }
    }

    /// Claim up to `n` tasklets, returned ones first.
    fn create(&mut self, n: u32) -> Option<usize> {
        let mut claim = Vec::new();
        while claim.len() < n as usize {
            if let Some(t) = self.returned.pop_first() {
                claim.push(t);
            } else if self.cursor < self.total {
                claim.push(self.cursor);
                self.cursor += 1;
            } else {
                break;
            }
        }
        if claim.is_empty() {
            return None;
        }
        self.claims.push(claim);
        self.states.push(TaskState::Ready);
        self.live.push(self.claims.len() - 1);
        Some(self.claims.len() - 1)
    }

    /// Take live task number `pick` (mod the live count) out of `live`.
    fn take_live(&mut self, pick: u64) -> Option<usize> {
        if self.live.is_empty() {
            return None;
        }
        let at = (pick % self.live.len() as u64) as usize;
        Some(self.live.swap_remove(at))
    }

    /// True once some claim is not one contiguous run.
    fn has_scattered_claim(&self) -> bool {
        self.claims
            .iter()
            .any(|c| c.windows(2).any(|w| w[1] != w[0] + 1))
    }
}

/// Why `db` disagrees with the model, if it does.
fn ledger_mismatch(db: &LobsterDb, m: &LedgerModel) -> Result<(), String> {
    prop_assert_eq!(db.task_count(), m.claims.len());
    for (i, claim) in m.claims.iter().enumerate() {
        let id = TaskId(i as u64);
        prop_assert_eq!(db.task_tasklets(id), Some(claim.clone()), "claim of {}", id);
        prop_assert_eq!(db.task_tasklet_count(id), Some(claim.len()));
        prop_assert_eq!(db.task_state(id), Some(m.states[i]), "state of {}", id);
    }
    let unassigned = m.total - m.cursor + m.returned.len() as u64;
    prop_assert_eq!(db.unassigned_tasklets("wf"), unassigned);
    prop_assert_eq!(db.done_tasklets("wf"), m.done);
    prop_assert_eq!(db.dead_tasklets("wf"), m.dead);
    Ok(())
}

/// Apply one `(op, pick, size)` step to the db and the model alike.
fn ledger_step(db: &mut LobsterDb, m: &mut LedgerModel, (op, pick, size): (u8, u64, u32)) {
    match op {
        // Create, and dispatch unless `op` leaves it ready.
        0 | 1 => {
            let id = db.create_task("wf", size);
            assert_eq!(id.map(|t| t.0 as usize), m.create(size), "created id");
            if let (Some(id), 0) = (id, op) {
                db.mark_running(id).unwrap();
                m.states[id.0 as usize] = TaskState::Running;
            }
        }
        // Lose: the claim goes back to the pool.
        2 => {
            if let Some(i) = m.take_live(pick) {
                db.mark_lost(TaskId(i as u64)).unwrap();
                m.returned.extend(m.claims[i].iter().copied());
                m.states[i] = TaskState::Lost;
            }
        }
        // Finish (dispatching a ready task first).
        3 => {
            if let Some(i) = m.take_live(pick) {
                let id = TaskId(i as u64);
                if m.states[i] == TaskState::Ready {
                    db.mark_running(id).unwrap();
                }
                db.mark_done(id, 10).unwrap();
                m.done += m.claims[i].len() as u64;
                m.states[i] = TaskState::Done;
            }
        }
        // Dead-letter: withdrawn, never returned.
        _ => {
            if let Some(i) = m.take_live(pick) {
                let units = m.claims[i].len() as u64;
                db.record_dead_letter(DeadLetter {
                    task: TaskId(i as u64),
                    category: Category::Analysis,
                    code: FailureCode::Evicted,
                    attempts: 3,
                    units,
                    at: SimTime::ZERO,
                });
                m.dead += units;
                m.states[i] = TaskState::Withdrawn;
            }
        }
    }
}

/// A fresh journal directory for one property case.
fn ledger_journal() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("lobster-prop-ledger-{}-{case}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The model against the live db and against a cold replay of `path`.
fn ledger_mismatch_live_and_replayed(
    db: &LobsterDb,
    m: &LedgerModel,
    path: &Path,
    when: &str,
) -> Result<(), String> {
    ledger_mismatch(db, m).map_err(|e| format!("live, {when}: {e}"))?;
    let replayed = LobsterDb::recover(path).map_err(|e| e.to_string())?;
    ledger_mismatch(&replayed, m).map_err(|e| format!("replayed, {when}: {e}"))
}

proptest! {
    /// The merge planner covers every output exactly once, never creates
    /// an empty group, and every group except possibly the last reaches
    /// the target.
    #[test]
    fn merge_planner_partitions_outputs(
        sizes in prop::collection::vec(1u64..500_000_000, 0..200),
        target in 1u64..2_000_000_000,
    ) {
        let outputs: Vec<(TaskId, u64)> =
            sizes.iter().enumerate().map(|(i, &s)| (TaskId(i as u64), s)).collect();
        let groups = MergePlanner::new(target).plan_full(&outputs);
        let covered: usize = groups.iter().map(|g| g.len()).sum();
        prop_assert_eq!(covered, outputs.len());
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            prop_assert!(!g.is_empty());
            for (id, _) in &g.inputs {
                prop_assert!(seen.insert(*id), "output merged twice");
            }
        }
        for g in groups.iter().rev().skip(1) {
            prop_assert!(g.bytes() >= target, "non-final group below target");
        }
        let total_in: u64 = sizes.iter().sum();
        let total_out: u64 = groups.iter().map(|g| g.bytes()).sum();
        prop_assert_eq!(total_in, total_out, "byte conservation");

        // The simulator's path: push one output at a time, take every
        // full group past the gate, then flush at end of processing. It
        // must cut exactly the partition `plan_full` does.
        let mut planner = MergePlanner::new(target);
        let mut incremental = Vec::new();
        for &(id, bytes) in &outputs {
            planner.push(id, bytes);
            while let Some(g) = planner.next_group(1.0, false) {
                prop_assert!(g.bytes() >= target, "unflushed group below target");
                incremental.push(g);
            }
        }
        incremental.extend(std::iter::from_fn(|| planner.next_group(1.0, true)));
        prop_assert_eq!(incremental, groups);
    }

    /// FairLink conserves bytes: whatever is admitted is either delivered
    /// by completions or returned as partial progress by aborts.
    #[test]
    fn fair_link_conserves_bytes(
        flows in prop::collection::vec((1u64..10_000, 1u64..100), 1..40),
        capacity in 10.0f64..10_000.0,
    ) {
        let mut link = FairLink::new(capacity);
        let mut ids = Vec::new();
        let mut t = SimTime::ZERO;
        for (bytes, gap) in &flows {
            t += SimDuration::from_millis(*gap);
            ids.push((link.admit_flow(t, *bytes), *bytes));
        }
        // Abort every third flow a moment later; run the rest down.
        let mut aborted = 0u64;
        let abort_time = t + SimDuration::from_millis(1);
        for (i, (id, _)) in ids.iter().enumerate() {
            if i % 3 == 0 {
                if let Some(served) = link.abort(abort_time, *id) {
                    aborted += served;
                }
            }
        }
        let mut completed_flows = 0usize;
        while let Some((when, _)) = link.next_completion() {
            completed_flows += link.completions(when).len();
        }
        let expected_completed = ids.len() - ids.len().div_ceil(3);
        prop_assert_eq!(completed_flows, expected_completed);
        prop_assert_eq!(link.flows_aborted() as usize, ids.len().div_ceil(3));
        // All completed flows' bytes were fully delivered.
        let completed_bytes: u64 = ids
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, (_, b))| *b)
            .sum();
        let delivered = link.bytes_delivered(SimTime::MAX);
        // Delivered covers completed + aborted partials (float accounting).
        prop_assert!(delivered + 1.0 >= completed_bytes as f64 + aborted as f64 * 0.0);
    }

    /// Server (multi-slot FIFO): completions never precede starts, starts
    /// never precede offers, and with c slots at most c jobs overlap.
    #[test]
    fn server_fifo_invariants(
        jobs in prop::collection::vec((0u64..1_000, 1u64..500), 1..60),
        slots in 1usize..8,
    ) {
        let mut s = Server::new(slots);
        let mut offers: Vec<(SimTime, SimDuration)> = jobs
            .iter()
            .map(|(at, dur)| (SimTime::from_secs(*at), SimDuration::from_secs(*dur)))
            .collect();
        offers.sort_by_key(|o| o.0);
        let mut grants = Vec::new();
        for (at, dur) in &offers {
            let g = s.offer(*at, *dur);
            prop_assert!(g.start >= *at);
            prop_assert_eq!(g.done, g.start + *dur);
            grants.push(g);
        }
        // Overlap check: count concurrent jobs at each start instant.
        for g in &grants {
            let overlapping = grants
                .iter()
                .filter(|o| o.start <= g.start && g.start < o.done)
                .count();
            prop_assert!(overlapping <= slots, "{overlapping} > {slots} slots");
        }
    }

    /// Histogram totals are conserved and fractions sum to one.
    #[test]
    fn histogram_conservation(samples in prop::collection::vec(-10.0f64..110.0, 1..500)) {
        let mut h = Histogram::new(0.0, 100.0, 20);
        for &x in &samples {
            h.record(x);
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
        let binned: u64 = h.counts().iter().sum::<u64>() + h.underflow() + h.overflow();
        prop_assert_eq!(binned, samples.len() as u64);
        let in_range = samples.iter().filter(|&&x| (0.0..100.0).contains(&x)).count();
        if in_range > 0 {
            let frac_sum: f64 = (0..h.nbins()).map(|i| h.fraction(i)).sum();
            prop_assert!((frac_sum - 1.0).abs() < 1e-9);
        }
    }

    /// Welford summary matches naive two-pass statistics.
    #[test]
    fn summary_matches_naive(samples in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s = Summary::new();
        for &x in &samples {
            s.record(x);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-6 * var.max(1.0));
    }

    /// Wilson intervals always bracket the point estimate and stay in [0,1].
    #[test]
    fn binomial_ci_brackets(successes in 0u64..1000, extra in 0u64..1000, z in 0.1f64..4.0) {
        let trials = successes + extra;
        let e = binomial_ci(successes, trials, z);
        prop_assert!(e.lo >= 0.0 && e.hi <= 1.0);
        if trials > 0 {
            prop_assert!(e.lo <= e.p + 1e-12);
            prop_assert!(e.hi >= e.p - 1e-12);
        }
    }

    /// The Lobster DB never loses or duplicates a tasklet across an
    /// arbitrary interleaving of create/lose/complete operations.
    #[test]
    fn db_tasklet_conservation(ops in prop::collection::vec(0u8..3, 1..120), total in 1u64..200) {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", total);
        let mut live: Vec<TaskId> = Vec::new();
        let mut rng = SimRng::new(42);
        for op in ops {
            match op {
                0 => {
                    if let Some(t) = db.create_task("wf", 1 + (rng.below(7) as u32)) {
                        db.mark_running(t).unwrap();
                        live.push(t);
                    }
                }
                1 => {
                    if !live.is_empty() {
                        let t = live.swap_remove(rng.below_usize(live.len()));
                        db.mark_lost(t).unwrap();
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let t = live.swap_remove(rng.below_usize(live.len()));
                        db.mark_done(t, 10).unwrap();
                    }
                }
            }
            // Invariant: done + unassigned + in-flight coverage == total.
            let in_flight: u64 = live
                .iter()
                .map(|t| db.task_tasklet_count(*t).unwrap() as u64)
                .sum();
            prop_assert_eq!(
                db.done_tasklets("wf") + db.unassigned_tasklets("wf") + in_flight,
                total
            );
        }
        // Drain to completion: everything can still finish exactly once.
        for t in live.drain(..) {
            db.mark_done(t, 10).unwrap();
        }
        while let Some(t) = db.create_task("wf", 5) {
            db.mark_running(t).unwrap();
            db.mark_done(t, 10).unwrap();
        }
        prop_assert!(db.all_done());
        prop_assert_eq!(db.done_tasklets("wf"), total);
    }

    /// Tasks of mixed sizes, lost and re-claimed, split the returned
    /// tasklets across claims, so some claims are not one run and the db
    /// keeps their lists aside. Every claim, the unassigned count and the
    /// done and dead counts match a model that keeps every claim as a
    /// list: live, after a full replay of the journal, after compaction,
    /// after recovery from the snapshot, and after more traffic on the
    /// reopened db.
    #[test]
    fn db_scattered_claims_match_list_model(
        ops in prop::collection::vec((0u8..5, any::<u64>(), 1u32..8), 1..120),
        total in 1u64..150,
    ) {
        let path = ledger_journal();
        let mut m = LedgerModel::new(total);
        let (before, after) = ops.split_at(ops.len() / 2);
        let mut db = LobsterDb::open(&path).unwrap();
        db.register_workflow("wf", total);
        for &op in before {
            ledger_step(&mut db, &mut m, op);
        }
        ledger_mismatch_live_and_replayed(&db, &m, &path, "full journal")?;
        db.compact().unwrap();
        ledger_mismatch_live_and_replayed(&db, &m, &path, "compacted")?;
        drop(db);
        let mut db = LobsterDb::open(&path).unwrap();
        ledger_mismatch(&db, &m).map_err(|e| format!("reopened from the snapshot: {e}"))?;
        for &op in after {
            ledger_step(&mut db, &mut m, op);
        }
        ledger_mismatch_live_and_replayed(&db, &m, &path, "snapshot and tail")?;
        db.compact().unwrap();
        ledger_mismatch_live_and_replayed(&db, &m, &path, "compacted again")?;
        drop(db);
        std::fs::remove_dir_all(&path).ok();
    }
}

/// The property above only means something if its cases reach scattered
/// claims: count the cases that do, with the same inputs it draws.
#[test]
fn db_scattered_claims_cases_reach_scattered_claims() {
    let ops = prop::collection::vec((0u8..5, any::<u64>(), 1u32..8), 1..120);
    let total = 1u64..150;
    let cases = proptest::cases();
    let scattered = (0..cases)
        .filter(|&case| {
            let mut rng = proptest::TestRng::for_case(case);
            let ops = ops.sample(&mut rng);
            let mut m = LedgerModel::new(total.sample(&mut rng));
            let mut db = LobsterDb::in_memory();
            db.register_workflow("wf", m.total);
            for op in ops {
                ledger_step(&mut db, &mut m, op);
            }
            m.has_scattered_claim()
        })
        .count() as u64;
    assert!(
        scattered * 4 >= cases,
        "only {scattered} of {cases} cases claim a scattered list"
    );
}
