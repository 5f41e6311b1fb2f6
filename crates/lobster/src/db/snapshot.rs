//! Snapshot records encoded straight from the live rows.
//!
//! A compaction rewrites one shard file as a single
//! [`Record::ShardSnapshot`](super::Record) (or `master.wal` as a
//! `MasterSnapshot`). The bytes are exactly what [`codec`] would write for
//! a `ShardSnap`/`MasterSnap` cloned out of the db, but nothing is cloned:
//! the encoders here walk the rows in place.
//!
//! # Frozen rows
//!
//! Task rows are never removed, `Done`/`Lost`/`Withdrawn` rows never change
//! again (the one exception, dead-lettering a finished row, thaws the
//! cache; see [`LobsterDb::thaw_row`]), and an output row is written once
//! when its task finishes. So the id-prefix of a shard's rows that is
//! terminal has a final encoding, for the task list and the output list
//! alike. [`FrozenRows`] keeps that encoded prefix per shard, and a
//! compaction only encodes the rows past it — about the tasks in flight,
//! not the whole history of the workflow.
//!
//! The cache is derived state: it starts empty on every db, including one
//! rebuilt by replay, and `apply` never touches it.

use super::codec::{self, tag};
use super::journal::snapshot_buffer;
use super::{LobsterDb, MergeState, OutputFile, TaskRow, TaskState, MASTER_TAG};
use crate::paged::Paged;
use std::collections::BTreeMap;
use wqueue::task::TaskId;

/// The encoded terminal id-prefix of one shard's task and output lists.
#[derive(Clone, Debug, Default)]
pub(super) struct FrozenRows {
    /// Slab index of the first row not folded in. Every row of this shard
    /// below it is terminal; rows of other shards are skipped.
    frontier: usize,
    /// Task entries in `task_bytes`.
    tasks: u64,
    task_bytes: Vec<u8>,
    /// Output entries in `output_bytes`.
    outputs: u64,
    output_bytes: Vec<u8>,
}

/// A row whose snapshot encoding can no longer change.
fn is_final(state: TaskState) -> bool {
    match state {
        TaskState::Done | TaskState::Lost | TaskState::Withdrawn => true,
        TaskState::Ready | TaskState::Running => false,
    }
}

/// The db columns a row's snapshot entries are encoded from.
#[derive(Clone, Copy)]
struct Rows<'a> {
    tasks: &'a Paged<Option<TaskRow>>,
    scattered: &'a BTreeMap<TaskId, Vec<u64>>,
    outputs: &'a Paged<Option<OutputFile>>,
}

impl Rows<'_> {
    /// Append the snapshot entries of slab row `ix` (a row of the shard
    /// being encoded) and its output, if any, to the two lists. A run
    /// claim is written straight from the row, with the bytes of the
    /// tasklet list it stands for.
    fn put_row(
        self,
        ix: usize,
        t: &TaskRow,
        tasks_buf: &mut Vec<u8>,
        outputs_buf: &mut Vec<u8>,
    ) -> u64 {
        let id = TaskId(ix as u64);
        let tasklets = t.tasklets(id, self.scattered);
        codec::put_task_entry(tasks_buf, id, tasklets, t.state, t.attempts);
        match self.outputs.get(ix).and_then(Option::as_ref) {
            Some(o) => {
                codec::put_output_entry(outputs_buf, id, o.bytes, o.done_seq());
                1
            }
            None => 0,
        }
    }
}

impl FrozenRows {
    /// Fold the terminal rows of shard `wf` that follow the frontier into
    /// the cache, stopping at the first live row of the shard or at an
    /// empty slot.
    fn advance(&mut self, wf: u32, rows: Rows<'_>) {
        while let Some(Some(t)) = rows.tasks.get(self.frontier) {
            if t.wf == wf {
                if !is_final(t.state) {
                    break;
                }
                self.tasks += 1;
                self.outputs += rows.put_row(
                    self.frontier,
                    t,
                    &mut self.task_bytes,
                    &mut self.output_bytes,
                );
            }
            self.frontier += 1;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Every snapshot record written on this thread while an audit is
    /// open, next to the oracle encoding of the same state.
    static AUDIT: std::cell::RefCell<Option<Vec<SnapshotAudit>>> =
        const { std::cell::RefCell::new(None) };
}

/// One compaction seen by the snapshot audit.
#[cfg(test)]
#[derive(Debug)]
pub(super) struct SnapshotAudit {
    pub tag: u32,
    /// The snapshot record as written.
    pub written: Vec<u8>,
    /// `encode_record` of `shard_snap()`/`master_snap()` at the same
    /// moment.
    pub oracle: Vec<u8>,
    /// Task entries in the shard's frozen prefix after this compaction.
    pub frozen_tasks: u64,
}

/// Start recording compactions on this thread (tests only).
#[cfg(test)]
pub(super) fn start_audit() {
    AUDIT.with(|a| *a.borrow_mut() = Some(Vec::new()));
}

/// Take the compactions recorded since [`start_audit`] and stop
/// recording (tests only).
#[cfg(test)]
pub(super) fn take_audit() -> Vec<SnapshotAudit> {
    AUDIT.with(|a| a.borrow_mut().take()).unwrap_or_default()
}

impl LobsterDb {
    /// The compacted-file image of shard `wf`: its snapshot record in a
    /// [`snapshot_buffer`]. Advances the shard's frozen prefix first.
    pub(super) fn shard_snapshot_file(&mut self, wf: u32) -> Vec<u8> {
        let ix = wf as usize;
        if self.frozen.len() <= ix {
            self.frozen.resize_with(ix + 1, FrozenRows::default);
        }
        let rows = Rows {
            tasks: &self.tasks,
            scattered: &self.scattered,
            outputs: &self.outputs,
        };
        self.frozen[ix].advance(wf, rows);
        let frozen = &self.frozen[ix];

        let mut live_tasks = Vec::new();
        let mut live_outputs = Vec::new();
        let mut n_live_tasks = 0u64;
        let mut n_live_outputs = 0u64;
        for (row_ix, slot) in (frozen.frontier..).zip(self.tasks.iter_from(frozen.frontier)) {
            if let Some(t) = slot.as_ref().filter(|t| t.wf == wf) {
                n_live_tasks += 1;
                n_live_outputs += rows.put_row(row_ix, t, &mut live_tasks, &mut live_outputs);
            }
        }

        let entry = &self.workflows[ix];
        let w = &entry.state;
        let mut file = snapshot_buffer(
            64 + entry.name.len()
                + 2 * w.returned.len()
                + frozen.task_bytes.len()
                + frozen.output_bytes.len()
                + live_tasks.len()
                + live_outputs.len(),
        );
        file.push(tag::SHARD_SNAPSHOT);
        codec::put_u32(&mut file, wf);
        codec::put_str(&mut file, &entry.name);
        codec::put_u64(&mut file, w.total_tasklets);
        codec::put_u64(&mut file, w.cursor);
        codec::put_tasklets(&mut file, w.returned.iter().copied());
        codec::put_u64(&mut file, w.done);
        codec::put_u64(&mut file, w.dead);
        codec::put_u64(&mut file, frozen.tasks + n_live_tasks);
        file.extend_from_slice(&frozen.task_bytes);
        file.extend_from_slice(&live_tasks);
        codec::put_u64(&mut file, frozen.outputs + n_live_outputs);
        file.extend_from_slice(&frozen.output_bytes);
        file.extend_from_slice(&live_outputs);
        self.put_ledger(&mut file, wf);
        file
    }

    /// The compacted-file image of `master.wal`: its snapshot record in a
    /// [`snapshot_buffer`].
    pub(super) fn master_snapshot_file(&self) -> Vec<u8> {
        let mut file = snapshot_buffer(64 + 8 * self.n_merged);
        file.push(tag::MASTER_SNAPSHOT);
        codec::put_u64(&mut file, self.merged_files.len() as u64);
        // A merged output names its file by the rank of the file's name,
        // which is not its creation order (`merged_h10` < `merged_h2`).
        let mut rank = vec![0u32; self.merged_files.len()];
        for (i, (name, f)) in self.merged_files.iter().enumerate() {
            codec::put_str(&mut file, name);
            codec::put_u64(&mut file, f.bytes);
            rank[f.id as usize] = i as u32;
        }
        codec::put_u64(&mut file, self.merge_groups.len() as u64);
        for (id, inputs) in &self.merge_groups {
            codec::put_u64(&mut file, id.0);
            codec::put_inputs(&mut file, inputs);
        }
        // One walk of the merge-state column in id order writes the merged
        // list and collects the (rare) withdrawn ids.
        codec::put_u64(&mut file, self.n_merged as u64);
        let mut withdrawn = Vec::new();
        for (task, state) in (0u64..).zip(&self.merge_state) {
            match state {
                MergeState::Merged(id) => {
                    codec::put_task(&mut file, TaskId(task));
                    codec::put_u32(&mut file, rank[*id as usize]);
                }
                MergeState::Withdrawn => withdrawn.push(task),
                MergeState::Free | MergeState::Grouped => {}
            }
        }
        codec::put_tasklets(&mut file, withdrawn.into_iter());
        codec::put_u64(&mut file, self.next_merge);
        self.put_ledger(&mut file, MASTER_TAG);
        codec::put_accounting(&mut file, &self.accounting);
        codec::put_u64(&mut file, self.counters.tasks_failed);
        codec::put_u64(&mut file, self.counters.evictions);
        codec::put_u64(&mut file, self.counters.merges_completed);
        file
    }

    /// The ledger entries that snapshot into file `tag`, count first.
    fn put_ledger(&self, buf: &mut Vec<u8>, tag: u32) {
        let mine = || {
            self.dead_letters
                .iter()
                .zip(&self.dead_letter_seqs)
                .filter(move |(l, _)| self.letter_shard(l) == tag)
        };
        codec::put_u64(buf, mine().count() as u64);
        for (l, seq) in mine() {
            codec::put_ledger_entry(buf, *seq, l);
        }
    }

    /// Forget the frozen prefix of `id`'s shard if it holds `id`: the row
    /// is about to change after all (a finished task dead-lettered).
    pub(super) fn thaw_row(&mut self, id: TaskId) {
        let Some(wf) = self.task_row(id).map(|t| t.wf as usize) else {
            return;
        };
        if let Some(frozen) = self.frozen.get_mut(wf) {
            if (id.0 as usize) < frozen.frontier {
                *frozen = FrozenRows::default();
            }
        }
    }

    /// Debug builds compare every snapshot record written with the
    /// oracle: `encode_record` of the cloned `ShardSnap`/`MasterSnap`.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn audit_snapshot(&self, tag: u32, written: &[u8]) {
        let rec = if tag == MASTER_TAG {
            super::Record::MasterSnapshot {
                state: Box::new(self.master_snap()),
            }
        } else {
            super::Record::ShardSnapshot {
                state: Box::new(self.shard_snap(tag)),
            }
        };
        let mut oracle = Vec::new();
        codec::encode_record(&mut oracle, &rec);
        #[cfg(test)]
        AUDIT.with(|a| {
            if let Some(log) = a.borrow_mut().as_mut() {
                log.push(SnapshotAudit {
                    tag,
                    written: written.to_vec(),
                    oracle: oracle.clone(),
                    frozen_tasks: self.frozen.get(tag as usize).map_or(0, |f| f.tasks),
                });
            }
        });
        debug_assert!(
            written == oracle.as_slice(),
            "snapshot of file {tag:#x} differs from the oracle encoding"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::codec::{decode_record, Reader};
    use super::super::{Record, ShardSnap};
    use super::*;
    use crate::config::{Backoff, JournalPolicy, LobsterConfig, WorkflowConfig};
    use crate::driver::{ClusterSim, SimParams};
    use crate::fault::{Fault, FaultPlan, FaultTarget};
    use crate::merge::MergeMode;
    use crate::session::{Session, Stop};
    use crate::workflow::Workflow;
    use batchsim::availability::AvailabilityModel;
    use batchsim::pool::PoolConfig;
    use gridstore::dbs::{DatasetSpec, Dbs};
    use simkit::fault::CrashSite;
    use simkit::time::{SimDuration, SimTime};
    use simnet::outage::{Outage, OutageSchedule};
    use std::path::PathBuf;
    use wqueue::task::{Category, DeadLetter, FailureCode};

    fn journal_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lobster-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{tag}-{}.wal", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn mins(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(m)
    }

    /// Two analysis workflows under a journal that compacts every 16
    /// records. A short federation blackout and a long Chirp blackout
    /// fail analysis attempts: the unbounded policy turns them into `Lost`
    /// rows whose tasklets come back as new tasks (so the two shards'
    /// rows interleave in the slab), a bounded budget into `Withdrawn`
    /// rows.
    fn campaign(
        merge: MergeMode,
        max_attempts: Option<u32>,
        n_files: usize,
    ) -> (LobsterConfig, SimParams, Vec<Workflow>) {
        let mut cfg = LobsterConfig::default();
        cfg.merge = merge;
        cfg.workers.target_cores = 16;
        cfg.workers.cores_per_worker = 4;
        cfg.merge_target_bytes = 150_000_000;
        cfg.seed = 17;
        cfg.workflows = vec![
            WorkflowConfig::analysis("wf-a", "/DS/A"),
            WorkflowConfig::analysis("wf-b", "/DS/B"),
        ];
        cfg.workflows[0].tasklets_per_task = 2;
        cfg.workflows[1].tasklets_per_task = 3;
        cfg.retry.max_attempts = max_attempts;
        cfg.retry.requeue = Backoff::fixed(SimDuration::from_mins(10));
        cfg.journal = JournalPolicy {
            snapshot_every_records: Some(16),
            ..JournalPolicy::default()
        };
        let spec = DatasetSpec {
            n_files,
            mean_file_bytes: 500_000_000,
            events_per_lumi: 100,
            lumis_per_file: 50,
        };
        let mut dbs = Dbs::new();
        dbs.generate("/DS/A", spec, 7);
        dbs.generate("/DS/B", spec, 8);
        let wfs = vec![
            Workflow::from_dataset(&cfg.workflows[0], dbs.query("/DS/A").unwrap()),
            Workflow::from_dataset(&cfg.workflows[1], dbs.query("/DS/B").unwrap()),
        ];
        let params = SimParams {
            availability: AvailabilityModel::Dedicated,
            pool: PoolConfig {
                total_cores: 200,
                owner_mean: 20.0,
                reversion: 0.1,
                noise: 0.0,
                tick: SimDuration::from_mins(5),
            },
            faults: FaultPlan::new(vec![
                Fault::new(
                    FaultTarget::Federation,
                    OutageSchedule::new(vec![Outage::blackout(mins(30), mins(45))]),
                ),
                Fault::new(
                    FaultTarget::Chirp,
                    OutageSchedule::new(vec![Outage::blackout(mins(60), mins(600))]),
                ),
            ]),
            horizon: SimDuration::from_hours(200),
            ..SimParams::default()
        };
        (cfg, params, wfs)
    }

    fn decode(bytes: &[u8]) -> Record {
        let mut r = Reader::new(bytes);
        let rec = decode_record(&mut r).unwrap();
        assert!(r.is_empty(), "trailing bytes after the snapshot record");
        rec
    }

    fn shard(a: &SnapshotAudit) -> Option<ShardSnap> {
        match decode(&a.written) {
            Record::ShardSnapshot { state } => Some(*state),
            _ => None,
        }
    }

    /// The frozen prefix of a shard audit, decoded.
    fn frozen_prefix(a: &SnapshotAudit) -> Vec<(u64, TaskState)> {
        shard(a).map_or_else(Vec::new, |s| {
            s.tasks[..a.frozen_tasks as usize]
                .iter()
                .map(|t| (t.id.0, t.state))
                .collect()
        })
    }

    fn assert_matches_oracle(log: &[SnapshotAudit], label: &str) {
        assert!(!log.is_empty(), "{label}: no compaction ran");
        for (i, a) in log.iter().enumerate() {
            assert!(
                a.written == a.oracle,
                "{label}: compaction {i} of file {:#x} differs from the oracle",
                a.tag
            );
        }
    }

    /// True when some shard compaction froze a row in `state` and a later
    /// compaction of the same shard reused it from the cache.
    fn reused_frozen(log: &[SnapshotAudit], state: TaskState) -> bool {
        log.iter().enumerate().any(|(i, a)| {
            a.tag != MASTER_TAG
                && frozen_prefix(a).iter().any(|(_, s)| *s == state)
                && log[i + 1..].iter().any(|b| b.tag == a.tag)
        })
    }

    /// The unbounded policy over two workflows, killed mid-run and
    /// resumed. Failed tasks end `Lost` and their tasklets come back as
    /// new tasks, so the two shards' rows interleave in the slab. Every
    /// snapshot written before and after the crash equals the oracle,
    /// including the first one after resume, built from a cold cache.
    #[test]
    fn snapshots_match_oracle_across_crash_and_resume() {
        let mk = || campaign(MergeMode::Interleaved, None, 30);
        let (cfg, params, wfs) = mk();
        let whole = ClusterSim::run(cfg, params, wfs);
        assert!(whole.finished_at.is_some(), "{whole:?}");
        let path = journal_path("crash-resume");

        start_audit();
        let (cfg, params, wfs) = mk();
        let mut session = Session::start(ClusterSim::durable(cfg, params, wfs, &path).unwrap());
        let stop = session.advance(session.horizon(), whole.events_delivered / 2);
        assert_eq!(stop, Stop::Budget, "the crash lands mid-run");
        session.crash(CrashSite::CommitBoundary);
        let before = take_audit();

        start_audit();
        let (cfg, params, wfs) = mk();
        let mut session = Session::start(ClusterSim::resume(cfg, params, wfs, &path).unwrap());
        session.advance(session.horizon(), u64::MAX);
        let resumed = session.finish();
        let after = take_audit();
        assert!(resumed.finished_at.is_some(), "{resumed:?}");
        std::fs::remove_dir_all(&path).ok();

        assert_matches_oracle(&before, "before the crash");
        assert_matches_oracle(&after, "after resume");
        for log in [&before, &after] {
            assert!(
                reused_frozen(log, TaskState::Lost),
                "a frozen lost row is reused"
            );
            assert!(
                log.iter().any(|a| a.tag == 1
                    && frozen_prefix(a).windows(2).any(|w| w[1].0 > w[0].0 + 1)),
                "a frozen prefix skips the other shard's rows"
            );
        }
        // The resumed db starts with no frozen rows: its first compaction
        // of a shard encodes the whole terminal prefix from cold.
        let first = after.iter().find(|a| a.tag != MASTER_TAG).unwrap();
        assert!(first.frozen_tasks > 0, "{:?}", frozen_prefix(first));
    }

    /// A bounded retry budget withdraws tasks: their rows end
    /// `Withdrawn`, freeze and are reused, and the shard's half of the
    /// dead-letter ledger rides along.
    #[test]
    fn snapshots_match_oracle_with_dead_letters() {
        let path = journal_path("dead-letters");
        start_audit();
        let (cfg, params, wfs) = campaign(MergeMode::Interleaved, Some(3), 40);
        let mut session = Session::start(ClusterSim::durable(cfg, params, wfs, &path).unwrap());
        session.advance(session.horizon(), u64::MAX);
        let report = session.finish();
        let log = take_audit();
        std::fs::remove_dir_all(&path).ok();
        assert!(report.finished_at.is_some(), "{report:?}");
        assert!(!report.dead_letters.is_empty(), "{report:?}");
        assert_matches_oracle(&log, "bounded");
        assert!(
            reused_frozen(&log, TaskState::Withdrawn),
            "a frozen withdrawn row is reused"
        );
        assert!(
            log.iter()
                .any(|a| shard(a).is_some_and(|s| !s.dead_letters.is_empty())),
            "a shard snapshot carries ledger entries"
        );
    }

    /// Direct db traffic for two cases the campaigns rarely reach: a
    /// dead-lettered merge (the master's half of the ledger), and a
    /// finished row dead-lettered after it froze, which must thaw the
    /// shard's cache.
    #[test]
    fn snapshots_match_oracle_for_master_ledger_and_thawed_rows() {
        let letter = |task, category| DeadLetter {
            task,
            category,
            code: FailureCode::StageIn,
            attempts: 3,
            units: 2,
            at: SimTime::ZERO,
        };
        let path = journal_path("direct");
        start_audit();
        let mut db = LobsterDb::open_with_policy(&path, &JournalPolicy::default()).unwrap();
        db.register_workflow("a", 20);
        db.register_workflow("b", 20);
        let mut ids = Vec::new();
        for i in 0..6 {
            let id = db.create_task(["a", "b"][i % 2], 2).unwrap();
            db.mark_running(id).unwrap();
            db.mark_done(id, 100).unwrap();
            ids.push(id);
        }
        let group = db
            .create_merge_group(&[(ids[0], 100), (ids[2], 100)])
            .unwrap();
        db.record_dead_letter(letter(group, Category::Merge));
        db.compact().unwrap();
        db.record_dead_letter(letter(ids[1], Category::Analysis));
        db.compact().unwrap();
        let log = take_audit();
        drop(db);
        std::fs::remove_dir_all(&path).ok();

        assert_matches_oracle(&log, "direct");
        let shard_b: Vec<&SnapshotAudit> = log.iter().filter(|a| a.tag == 1).collect();
        assert_eq!(shard_b.len(), 2);
        assert_eq!(frozen_prefix(shard_b[0])[0], (ids[1].0, TaskState::Done));
        assert_eq!(
            frozen_prefix(shard_b[1])[0],
            (ids[1].0, TaskState::Withdrawn)
        );
        assert!(log.iter().any(|a| match decode(&a.written) {
            Record::MasterSnapshot { state } => state.dead_letters.len() == 1,
            _ => false,
        }));
    }

    /// Hadoop merges name files `merged_h0`, `merged_h1`, … so past ten
    /// files the name order (which snapshots index by) is not the
    /// creation order.
    #[test]
    fn snapshots_match_oracle_with_hadoop_names() {
        let path = journal_path("hadoop");
        start_audit();
        let (mut cfg, params, wfs) = campaign(MergeMode::Hadoop, None, 40);
        cfg.merge_target_bytes = 50_000_000;
        let mut session = Session::start(ClusterSim::durable(cfg, params, wfs, &path).unwrap());
        session.advance(session.horizon(), u64::MAX);
        let report = session.finish();
        let log = take_audit();
        std::fs::remove_dir_all(&path).ok();
        assert!(report.finished_at.is_some(), "{report:?}");
        assert_matches_oracle(&log, "hadoop");
        assert!(
            log.iter().any(|a| match decode(&a.written) {
                Record::MasterSnapshot { state } => {
                    let names: Vec<&str> =
                        state.merged_files.iter().map(|(n, _)| n.as_str()).collect();
                    names.contains(&"merged_h10.root")
                        && names.contains(&"merged_h2.root")
                        && !state.merged_outputs.is_empty()
                }
                _ => false,
            }),
            "a master snapshot indexes Hadoop files out of creation order"
        );
    }
}
