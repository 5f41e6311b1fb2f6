//! The Lobster DB.
//!
//! "The main Lobster process creates a local SQLite database (Lobster DB)
//! which persistently records the mapping from tasklets to tasks" (§3).
//! Footnote 1 adds the requirement that matters: "the system state is
//! quickly and automatically recovered if the scheduler node should crash
//! and reboot".
//!
//! Here the DB is an embedded store with an append-only journal: every
//! state transition is one journal record, and [`LobsterDb::recover`]
//! replays the journal to rebuild the exact in-memory state — same
//! durability contract, no external database.
//!
//! # Journal format v3
//!
//! The journal path is a *directory*: one `shard-NNNN.wal` per registered
//! workflow plus `master.wal` for cross-workflow state (merges, attempt
//! accounting, backoffs, the merge side of the dead-letter ledger). Each
//! file is a 16-byte `LBSTRWAL` header (magic, `u32` LE version 3, `u32`
//! LE shard tag) followed by `u32` LE length + `u32` LE CRC-32 frames; a
//! frame payload is a *batch*: a record-count varint followed by that
//! many binary-coded records ([`codec`]). Group commit, the causal flush
//! order and the torn-tail rule live in [`journal`]. Compaction is
//! per-file: a shard compacts into one [`Record::ShardSnapshot`] frame,
//! `master.wal` into one [`Record::MasterSnapshot`] frame ([`snapshot`]).
//!
//! Recovery is total. A missing path is an empty journal and a directory
//! is replayed; anything else, a regular file of any earlier or unknown
//! format included, is [`io::ErrorKind::InvalidData`]. So is a CRC-valid
//! record that contradicts the state replayed before it. See
//! `docs/recovery.md`.
//!
//! # The task ledger in memory
//!
//! The id-indexed columns are the largest thing a master holds (about
//! 64 bytes per task ever created; `tests/db_footprint.rs` bounds it):
//! - a task row is 24 bytes and stores its claim as a run, `first` and a
//!   count ([`claim`]). A task claims returned tasklets first, then the
//!   cursor's, so a claim is one run unless a lost task's tasklets split
//!   across claims of another size. Such a scattered claim keeps its list
//!   once, in a side table keyed by task id;
//! - an output row is 16 bytes (24 with its `Option`): its index is the
//!   producing task, so it does not repeat it;
//! - the finish order is one `Vec<TaskId>`, sorted by the output rows'
//!   `done_seq`.
//!
//! None of this reaches the disk: `TaskCreated` records, shard snapshots
//! and the frozen snapshot prefix encode a run as the tasklet list it
//! stands for, byte for byte as before.

mod claim;
mod codec;
mod journal;
mod snapshot;

pub use journal::journal_bytes;

use crate::config::JournalPolicy;
use crate::monitor::Accounting;
use crate::wrapper::SegmentReport;
pub(crate) use claim::{Claim, Tasklets};
use journal::{GroupCommit, Journal, ScannedFile, MASTER_TAG};
use simkit::time::SimDuration;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use wqueue::task::{Category, DeadLetter, TaskId};

/// Journal magic bytes.
const MAGIC: &[u8; 8] = b"LBSTRWAL";
/// Journal format version written by this build.
pub const FORMAT_VERSION: u32 = journal::V3_VERSION;
/// Header: magic + version + shard tag.
const HEADER_LEN: usize = 16;
/// Frame header: payload length + CRC-32.
const FRAME_HEADER_LEN: usize = 8;
/// Upper bound on a single frame; larger lengths are corruption.
const MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

/// Merge tasks are numbered from this base so they never collide with
/// analysis task ids (which count up from zero).
pub const MERGE_ID_BASE: u64 = 1_000_000_000;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB8_8320`) slice-by-8 tables.
/// `CRC32_TABLES[0]` is the classic bytewise table; table `k` advances a
/// byte's contribution through `k` further zero bytes, so eight input
/// bytes fold into the register with eight independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `data`, eight bytes per step (slice-by-8), the remainder
/// bytewise. Frame writers and the replay scan both call this.
fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Lifecycle of a task in the DB.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// Created, not yet dispatched.
    Ready,
    /// Dispatched to a worker.
    Running,
    /// Finished successfully.
    Done,
    /// Lost (eviction/failure); its tasklets were returned to the pool.
    Lost,
    /// Dead-lettered: retry budget exhausted, withdrawn from the run.
    Withdrawn,
}

/// A produced output file, stored at its producing task's id in
/// [`LobsterDb::outputs`] (the index is the producer, so the row does not
/// repeat it). Merge state (grouped, merged-into, withdrawn) lives in the
/// master-side [`MergeState`] column, not on the row: the row is shard
/// state, and the two slices must stay disjoint for sharded replay.
#[derive(Clone, Copy, Debug)]
struct OutputFile {
    /// Size in bytes.
    bytes: u64,
    /// Global finish-order sequence of the producing task's completion;
    /// also the sort key of [`LobsterDb::done_order`].
    done_seq: u64,
}

// An output row is 16 bytes, 24 with its `Option`: a field that grows
// the column fails the build here.
const _: () = assert!(std::mem::size_of::<Option<OutputFile>>() <= 24);

/// A merged output file.
#[derive(Clone, Copy, Debug)]
struct MergedFile {
    /// Size in bytes.
    bytes: u64,
    /// Dense creation index, the payload of [`MergeState::Merged`].
    /// Snapshots index files by the rank of the name instead.
    id: u32,
}

/// Where one output stands in merge planning: one entry of the master's
/// merge-state column, indexed by producing task id. The states are
/// exclusive: an output is grouped by at most one open merge, and a
/// merged or withdrawn output never returns to planning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum MergeState {
    /// Unclaimed: a done output is free for the merge planner (an id with
    /// no output row is `Free` too).
    #[default]
    Free,
    /// Claimed by an open merge group.
    Grouped,
    /// Merged into the file with this [`MergedFile::id`].
    Merged(u32),
    /// Withdrawn with a dead-lettered merge group: never merged.
    Withdrawn,
}

impl MergeState {
    /// Free or grouped: not yet inside a merged file, not withdrawn.
    fn mergeable(self) -> bool {
        matches!(self, MergeState::Free | MergeState::Grouped)
    }
}

/// The `(producer, bytes)` inputs of one planned merge group.
pub type MergeInputs = Vec<(TaskId, u64)>;

/// A transition request that was rejected because the task was not in a
/// legal source state (or did not exist). The DB state is unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejectedTransition {
    /// The task the transition targeted.
    pub task: TaskId,
    /// Its state at rejection time (`None` — unknown task).
    pub from: Option<TaskState>,
    /// The attempted operation.
    pub action: &'static str,
}

impl fmt::Display for RejectedTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.from {
            Some(s) => write!(f, "{}: illegal {} from {s:?}", self.task, self.action),
            None => write!(f, "{}: {} on unknown task", self.task, self.action),
        }
    }
}

impl std::error::Error for RejectedTransition {}

/// Monotonic run counters, journaled so a resumed run continues them.
///
/// `tasks_completed` is derived (one per done output) rather than
/// snapshotted: the master snapshot carries only the master-slice
/// counters, completions belong to the shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Analysis tasks that finished successfully.
    pub tasks_completed: u64,
    /// Failed attempts (any category).
    pub tasks_failed: u64,
    /// Attempts lost to worker eviction.
    pub evictions: u64,
    /// Merge files produced.
    pub merges_completed: u64,
    /// Transition requests rejected as illegal (diagnostic; not journaled,
    /// so it counts rejections since open, not since the run began).
    pub rejected_transitions: u64,
}

/// Journal records — one per state transition, binary-coded by [`codec`].
///
/// Task-lifecycle records carry the workflow-interned `wf` index (not the
/// name) and route to that workflow's shard file; everything else routes
/// to `master.wal`. `TaskDone` and `DeadLettered` carry a global sequence
/// number so sharded replay can reconstruct cross-shard finish/ledger
/// order.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Record {
    Workflow {
        wf: u32,
        name: String,
        tasklets: u64,
    },
    TaskCreated {
        id: TaskId,
        wf: u32,
        tasklets: Claim,
    },
    TaskRunning {
        id: TaskId,
    },
    TaskDone {
        id: TaskId,
        output_bytes: u64,
        done_seq: u64,
    },
    TaskLost {
        id: TaskId,
    },
    MergeCreated {
        id: TaskId,
        inputs: MergeInputs,
    },
    Merged {
        task: Option<TaskId>,
        outputs: Vec<TaskId>,
        into: String,
        bytes: u64,
    },
    Attempt {
        report: Box<SegmentReport>,
    },
    Backoff {
        wait: SimDuration,
    },
    DeadLettered {
        letter: Box<DeadLetter>,
        seq: u64,
    },
    ShardSnapshot {
        state: Box<ShardSnap>,
    },
    MasterSnapshot {
        state: Box<MasterSnap>,
    },
}

/// Snapshot image of one task row.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct TaskSnap {
    pub id: TaskId,
    pub tasklets: Claim,
    pub state: TaskState,
    pub attempts: u32,
}

/// Snapshot image of one output row.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct OutputSnap {
    pub task: TaskId,
    pub bytes: u64,
    pub done_seq: u64,
}

/// Per-workflow snapshot frame: the shard slice of the DB — workflow
/// decomposition state, this workflow's task and output rows, and its
/// side of the dead-letter ledger.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ShardSnap {
    pub wf: u32,
    pub name: String,
    pub total: u64,
    pub cursor: u64,
    pub returned: Vec<u64>,
    pub done: u64,
    pub dead: u64,
    pub tasks: Vec<TaskSnap>,
    pub outputs: Vec<OutputSnap>,
    pub dead_letters: Vec<(u64, DeadLetter)>,
}

/// `master.wal` snapshot frame: the cross-workflow slice — merge state,
/// accounting, and the master-side counters.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(test, derive(Default))]
pub(crate) struct MasterSnap {
    pub merged_files: Vec<(String, u64)>,
    pub merge_groups: Vec<(TaskId, MergeInputs)>,
    /// `(producer, index into merged_files)` for every merged output.
    pub merged_outputs: Vec<(TaskId, u32)>,
    /// Producer ids of outputs withdrawn with a dead-lettered merge.
    pub withdrawn_outputs: Vec<u64>,
    pub next_merge: u64,
    pub dead_letters: Vec<(u64, DeadLetter)>,
    pub accounting: Accounting,
    pub tasks_failed: u64,
    pub evictions: u64,
    pub merges_completed: u64,
}

#[derive(Clone, Debug, Default)]
struct WorkflowState {
    total_tasklets: u64,
    /// Next never-assigned tasklet index.
    cursor: u64,
    /// Tasklets returned by lost tasks, re-assigned first.
    returned: BTreeSet<u64>,
    /// Tasklets finished.
    done: u64,
    /// Tasklets withdrawn with dead-lettered tasks.
    dead: u64,
}

/// One registered workflow: interned name plus decomposition state.
/// Stored in registration order; task rows refer to workflows by index,
/// and workflow `i` journals to `shard-000i.wal`.
#[derive(Clone, Debug)]
struct WorkflowEntry {
    name: String,
    state: WorkflowState,
}

/// One task row, 24 bytes. The claim is a run, `first..first + n`, held
/// in the row itself; a scattered claim ([`Claim::List`]) keeps its list
/// once in [`LobsterDb::scattered`] and sets `scattered` here instead.
/// Snapshots encode either form as the plain tasklet list, the bytes a
/// row that held a list wrote.
#[derive(Clone, Copy, Debug)]
struct TaskRow {
    /// First tasklet of the claim's run (0 for a scattered claim).
    first: u64,
    /// Tasklets in the run (0 for a scattered claim).
    n: u32,
    /// Index into `workflows` (names are interned — a row carries no
    /// `String`).
    wf: u32,
    attempts: u32,
    state: TaskState,
    /// The claim is not a run: its list is in [`LobsterDb::scattered`].
    scattered: bool,
}

// The task column holds one of these per task ever created: a field that
// grows it past 24 bytes fails the build here.
const _: () = assert!(std::mem::size_of::<Option<TaskRow>>() <= 24);

impl TaskRow {
    /// The row's tasklets in claim order; a scattered row (task `id`)
    /// reads its list from `scattered`.
    fn tasklets<'a>(&self, id: TaskId, scattered: &'a BTreeMap<TaskId, Vec<u64>>) -> Tasklets<'a> {
        if self.scattered {
            Tasklets::List(scattered.get(&id).map_or(&[][..], Vec::as_slice).iter())
        } else {
            Tasklets::Run {
                next: self.first,
                left: self.n,
            }
        }
    }
}

/// The bookkeeping store.
#[derive(Debug)]
pub struct LobsterDb {
    workflows: Vec<WorkflowEntry>,
    /// Task rows indexed by analysis task id. Analysis ids are handed out
    /// densely from zero, so the table is a `Vec`, not a tree: the
    /// per-completion hot path does O(1) state transitions no matter how
    /// many tasks the campaign has retired. Merge ids
    /// (>= [`MERGE_ID_BASE`]) fall outside the dense range and resolve to
    /// `None`, like a missing map key. A row is 24 bytes and holds its
    /// claim as a run ([`TaskRow`]).
    tasks: Vec<Option<TaskRow>>,
    /// `Some` rows in `tasks`.
    n_tasks: usize,
    /// The lists of scattered claims, keyed by task id: a task that
    /// claimed returned tasklets which do not form one run with the rest
    /// of its claim. Only lost tasks return tasklets, so this stays empty
    /// in most runs.
    scattered: BTreeMap<TaskId, Vec<u64>>,
    /// Output files indexed by producing task id (same dense id space).
    outputs: Vec<Option<OutputFile>>,
    /// Done tasks in finish order (drives merge planning on resume),
    /// ascending by their output rows' `done_seq`. A live completion's
    /// seq is past every entry's, so it appends; sharded replay delivers
    /// completions shard by shard, and a sorted insert by seq restores
    /// the global finish order.
    done_order: Vec<TaskId>,
    merged_files: BTreeMap<String, MergedFile>,
    /// Planned merges not yet completed, keyed by merge task id.
    merge_groups: BTreeMap<TaskId, MergeInputs>,
    /// Merge state of each output, indexed by producing task id: master
    /// state kept beside the shard-owned `outputs` and sized with it, so
    /// only ids replay accepted as output rows ever size it. Snapshots
    /// read it in id order, the order the trees it replaced iterated in.
    merge_state: Vec<MergeState>,
    /// `Merged` entries in `merge_state` (the snapshot's list length).
    n_merged: usize,
    /// Output rows whose state is `Free` or `Grouped` (a row-less id is
    /// always `Free`): the merge backlog, `unmerged_outputs().len()`
    /// without the scan.
    n_unmerged: usize,
    /// The ledger in dead-letter order (sequence-sorted on replay).
    dead_letters: Vec<DeadLetter>,
    /// `seq` of each ledger entry — parallel, ascending.
    dead_letter_seqs: Vec<u64>,
    accounting: Accounting,
    counters: Counters,
    next_task: u64,
    next_merge: u64,
    journal: Option<Journal>,
    /// Compact a shard file after this many appended records (`None` —
    /// never).
    snapshot_every: Option<u64>,
    /// Attempt reports replayed since the last snapshot, for the driver
    /// to rebuild monitor state on resume.
    replayed_attempts: Vec<SegmentReport>,
    /// Per shard, the encoded terminal prefix of its rows — derived
    /// compaction state, never journaled ([`snapshot`]).
    frozen: Vec<snapshot::FrozenRows>,
}

impl LobsterDb {
    /// In-memory DB (no persistence) — used by simulations where the
    /// journal volume would be millions of records.
    pub fn in_memory() -> Self {
        LobsterDb {
            workflows: Vec::new(),
            tasks: Vec::new(),
            n_tasks: 0,
            scattered: BTreeMap::new(),
            outputs: Vec::new(),
            done_order: Vec::new(),
            merged_files: BTreeMap::new(),
            merge_groups: BTreeMap::new(),
            merge_state: Vec::new(),
            n_merged: 0,
            n_unmerged: 0,
            dead_letters: Vec::new(),
            dead_letter_seqs: Vec::new(),
            accounting: Accounting::default(),
            counters: Counters::default(),
            next_task: 0,
            next_merge: 0,
            journal: None,
            snapshot_every: None,
            replayed_attempts: Vec::new(),
            frozen: Vec::new(),
        }
    }

    /// DB journaled at `path` (created or appended). Write-through (every
    /// record commits immediately), no auto-compaction — the
    /// byte-for-byte conservative policy.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with_policy(path, &JournalPolicy::never())
    }

    /// DB journaled at `path` under `policy`: group-commit record/byte
    /// thresholds plus optional per-file auto-compaction. `path` is a v3
    /// shard directory, created if missing. Any torn tail left by a crash
    /// is truncated (before the append handle opens) so the next commit
    /// starts at a frame boundary.
    pub fn open_with_policy(path: impl AsRef<Path>, policy: &JournalPolicy) -> io::Result<Self> {
        let path = path.as_ref();
        let group = GroupCommit {
            records: policy.group_commit_records.max(1),
            bytes: policy.group_commit_bytes.max(1),
        };
        let mut db = Self::in_memory();
        if journal_dir_exists(path)? {
            let scans = replay_scans(&mut db, path, journal::scan_dir(path)?)?;
            db.journal = Some(Journal::attach(path, &scans, group)?);
        } else {
            db.journal = Some(Journal::create(path, group)?);
        }
        db.snapshot_every = policy.snapshot_every_records;
        if let Some(n) = policy.snapshot_every_records {
            // A crash can land after the record that crosses the
            // snapshot threshold but before its compaction; finishing
            // the compaction at open keeps the boundary deterministic
            // across crash/resume.
            let tags = db.journal.as_ref().map(Journal::tags).unwrap_or_default();
            for tag in tags {
                if db
                    .journal
                    .as_ref()
                    .is_some_and(|j| j.tail_records(tag) >= n)
                {
                    db.compact_file(tag)?;
                }
            }
        }
        Ok(db)
    }

    /// Rebuild state by replaying the journal at `path` (missing →
    /// empty DB) — read-only: nothing is truncated or created. Use
    /// [`LobsterDb::open`] to attach.
    pub fn recover(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        let mut db = Self::in_memory();
        if journal_dir_exists(path)? {
            replay_scans(&mut db, path, journal::scan_dir(path)?)?;
        }
        Ok(db)
    }

    /// Whether this db journals to disk (opened at a path rather than
    /// [`LobsterDb::in_memory`]).
    pub fn is_journaled(&self) -> bool {
        self.journal.is_some()
    }

    /// Compact every shard file (and `master.wal`) into a single
    /// snapshot frame each. Bounds future replay cost. Returns once every
    /// file is rewritten on disk.
    pub fn compact(&mut self) -> io::Result<()> {
        let tags = match self.journal.as_ref() {
            Some(j) => j.tags(),
            None => return Ok(()), // in-memory: nothing to compact
        };
        for tag in tags {
            self.compact_file(tag)?;
        }
        match self.journal.as_mut() {
            Some(j) => j.flush(),
            None => Ok(()),
        }
    }

    /// Rewrite one shard file as header + one snapshot frame: the record
    /// is encoded here, the file is written off this thread
    /// ([`Journal::compact`]). Pending group-commit buffers are flushed
    /// first — a snapshot is a durability boundary.
    fn compact_file(&mut self, tag: u32) -> io::Result<()> {
        if self.journal.is_none() {
            return Ok(());
        }
        let file = if tag == MASTER_TAG {
            self.master_snapshot_file()
        } else {
            self.shard_snapshot_file(tag)
        };
        #[cfg(any(test, debug_assertions))]
        self.audit_snapshot(tag, &file[journal::SNAPSHOT_PREFIX_LEN..]);
        match self.journal.as_mut() {
            Some(j) => j.compact(tag, file),
            None => Ok(()),
        }
    }

    /// Commit all buffered journal records to disk and finish any
    /// compaction in flight — the explicit durability boundary (the
    /// driver calls this at crash points and before reporting).
    pub fn flush(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            // A failed WAL write is unrecoverable by design (footnote 1
            // of the paper requires crash-consistent recovery): crashing
            // preserves the durable prefix, whereas continuing would
            // fork memory from disk.
            // simlint::allow(no-panic-in-lib): WAL commit failure is fatal by design
            j.flush().expect("journal write");
        }
    }

    /// Simulated crash *inside* the group-commit window: buffered
    /// records are dropped without reaching disk, as a real crash would
    /// lose them. The files stay at the last commit boundary, with a
    /// compaction in flight finished as [`LobsterDb::flush`] would.
    pub fn crash(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.abandon();
        }
        self.flush();
    }

    /// Buffer one record for `tag`'s shard file (`encode` appends its
    /// bytes), committing the group when the policy thresholds are
    /// crossed.
    fn log_to(&mut self, tag: Option<u32>, encode: impl FnOnce(&mut Vec<u8>)) {
        let Some(tag) = tag else { return };
        if let Some(j) = self.journal.as_mut() {
            // See `flush` for why WAL failures are fatal.
            // simlint::allow(no-panic-in-lib): WAL append failure is fatal by design
            let full = j.append(tag, encode).expect("journal write");
            if full {
                // simlint::allow(no-panic-in-lib): WAL commit failure is fatal by design
                j.commit().expect("journal write");
            }
        }
    }

    /// Compact `tag`'s file once its replay tail reaches the policy's
    /// snapshot threshold.
    fn compact_if_due(&mut self, tag: Option<u32>) {
        if let (Some(n), Some(tag)) = (self.snapshot_every, tag) {
            if self
                .journal
                .as_ref()
                .is_some_and(|j| j.tail_records(tag) >= n)
            {
                // Compaction failure would strand an unbounded journal
                // while memory marches on; same fatal-by-design stance as
                // a failed append.
                // simlint::allow(no-panic-in-lib): WAL compaction failure is fatal by design
                self.compact_file(tag).expect("journal compaction");
            }
        }
    }

    /// The shard file a record belongs to: task-lifecycle records go to
    /// their workflow's shard, everything else to `master.wal`.
    fn route(&self, rec: &Record) -> u32 {
        match rec {
            Record::Workflow { wf, .. } | Record::TaskCreated { wf, .. } => *wf,
            Record::TaskRunning { id } | Record::TaskDone { id, .. } | Record::TaskLost { id } => {
                self.task_row(*id).map_or(MASTER_TAG, |t| t.wf)
            }
            Record::DeadLettered { letter, .. } if letter.category != Category::Merge => {
                self.task_row(letter.task).map_or(MASTER_TAG, |t| t.wf)
            }
            _ => MASTER_TAG,
        }
    }

    /// The shard a ledger entry snapshots into — must agree with
    /// [`LobsterDb::route`]'s apply-time decision (rows are never
    /// removed, so it does).
    fn letter_shard(&self, l: &DeadLetter) -> u32 {
        if l.category == Category::Merge {
            MASTER_TAG
        } else {
            self.task_row(l.task).map_or(MASTER_TAG, |t| t.wf)
        }
    }

    fn apply(&mut self, rec: Record) {
        match rec {
            Record::Workflow { name, tasklets, .. } => {
                // Indices are dense: `register_workflow` journals the next
                // one, and replay checks that every record does.
                let state = WorkflowState {
                    total_tasklets: tasklets,
                    ..WorkflowState::default()
                };
                self.workflows.push(WorkflowEntry { name, state });
            }
            Record::TaskCreated { id, wf, tasklets } => {
                let wfe = &mut self.workflows[wf as usize].state;
                for t in tasklets.iter() {
                    // Claim from the returned pool or advance the cursor.
                    if !wfe.returned.remove(&t) {
                        wfe.cursor = wfe.cursor.max(t + 1);
                    }
                }
                self.insert_task_row(id, wf, tasklets, TaskState::Ready, 0);
                self.next_task = self.next_task.max(id.0 + 1);
            }
            Record::TaskRunning { id } => {
                // simlint::allow(no-panic-in-lib): replay invariant — TaskCreated precedes
                let t = self.task_row_mut(id).expect("task exists");
                t.state = TaskState::Running;
                t.attempts += 1;
            }
            Record::TaskDone {
                id,
                output_bytes,
                done_seq,
            } => {
                // simlint::allow(no-panic-in-lib): replay invariant — TaskCreated precedes
                let t = self.task_row_mut(id).expect("task exists");
                t.state = TaskState::Done;
                let t = *t;
                let tasklets = t.tasklets(id, &self.scattered).len() as u64;
                self.workflows[t.wf as usize].state.done += tasklets;
                self.insert_output_row(
                    id,
                    OutputFile {
                        bytes: output_bytes,
                        done_seq,
                    },
                );
                self.insert_done(id);
            }
            Record::TaskLost { id } => {
                // simlint::allow(no-panic-in-lib): replay invariant — TaskCreated precedes
                let t = self.task_row_mut(id).expect("task exists");
                t.state = TaskState::Lost;
                let t = *t;
                let returned = &mut self.workflows[t.wf as usize].state.returned;
                returned.extend(t.tasklets(id, &self.scattered));
            }
            Record::MergeCreated { id, inputs } => {
                for (src, _) in &inputs {
                    self.set_merge_state(*src, MergeState::Grouped);
                }
                self.merge_groups.insert(id, inputs);
                self.next_merge = self.next_merge.max(id.0 - MERGE_ID_BASE + 1);
            }
            Record::Merged {
                task,
                outputs,
                into,
                bytes,
            } => {
                let file = self.insert_merged_file(into, bytes);
                for id in &outputs {
                    self.set_merge_state(*id, MergeState::Merged(file));
                }
                self.counters.merges_completed += 1;
                if let Some(t) = task {
                    self.merge_groups.remove(&t);
                }
            }
            Record::Attempt { report } => {
                self.apply_attempt(&report);
            }
            Record::Backoff { wait } => {
                self.accounting.record_backoff(wait);
            }
            Record::DeadLettered { letter, seq } => {
                let l = *letter;
                if l.category == Category::Merge {
                    // Withdraw the group: its inputs leave merge planning
                    // for good (they are neither merged nor re-groupable).
                    // An input merged by another merge stays merged.
                    if let Some(inputs) = self.merge_groups.remove(&l.task) {
                        for (src, _) in inputs {
                            if self.merge_state_of(src) == MergeState::Grouped {
                                self.set_merge_state(src, MergeState::Withdrawn);
                            }
                        }
                    }
                } else {
                    let wf_ix = match self.task_row_mut(l.task) {
                        Some(t) => {
                            t.state = TaskState::Withdrawn;
                            Some(t.wf as usize)
                        }
                        None => None,
                    };
                    if let Some(ix) = wf_ix {
                        self.workflows[ix].state.dead += l.units;
                    }
                }
                self.insert_dead_letter(seq, l);
            }
            Record::ShardSnapshot { state } => {
                self.install_shard(*state);
            }
            Record::MasterSnapshot { state } => {
                self.install_master(*state);
            }
        }
    }

    fn apply_attempt(&mut self, report: &SegmentReport) {
        self.accounting.record(report);
        if !report.is_success() {
            self.counters.tasks_failed += 1;
        }
        if report.evicted {
            self.counters.evictions += 1;
        }
    }

    /// Insert (or resize) merged file `name`; returns its id. Ids are
    /// dense in creation order.
    fn insert_merged_file(&mut self, name: String, bytes: u64) -> u32 {
        let next = self.merged_files.len() as u32;
        let file = self
            .merged_files
            .entry(name)
            .or_insert(MergedFile { bytes, id: next });
        file.bytes = bytes;
        file.id
    }

    /// Insert `id`, whose output row is in place, into the finish-order
    /// index by its `done_seq`. A live completion's seq is
    /// `done_order.len()`, past the last entry's, so it appends in O(1)
    /// without a search; only sharded replay inserts in the middle.
    fn insert_done(&mut self, id: TaskId) {
        let seq_of = |id: &TaskId| self.output_row(*id).map_or(0, |o| o.done_seq);
        let seq = seq_of(&id);
        let at = match self.done_order.last() {
            Some(last) if seq_of(last) >= seq => {
                self.done_order.partition_point(|d| seq_of(d) < seq)
            }
            _ => self.done_order.len(),
        };
        self.done_order.insert(at, id);
        self.counters.tasks_completed += 1;
    }

    /// Sorted insert into the dead-letter ledger. `dead_lettered` is
    /// derived from the ledger length rather than journaled separately:
    /// letters split across shard and master files, and a derived value
    /// cannot drift from the two halves.
    fn insert_dead_letter(&mut self, seq: u64, l: DeadLetter) {
        let at = self.dead_letter_seqs.partition_point(|&s| s < seq);
        self.dead_letters.insert(at, l);
        self.dead_letter_seqs.insert(at, seq);
        self.accounting.dead_lettered = self.dead_letters.len() as u64;
    }

    fn apply_and_log(&mut self, rec: Record) {
        let tag = if self.journal.is_some() {
            Some(self.route(&rec))
        } else {
            None
        };
        self.log_to(tag, |buf| codec::encode_record(buf, &rec));
        // The log-then-apply wrapper is the one sanctioned entry into
        // the replay path: the record is durable (or buffered toward the
        // next commit boundary) before the in-memory state changes.
        // simlint::allow(journal-coverage): sanctioned log-then-apply entry point
        self.apply(rec);
        self.compact_if_due(tag);
    }

    /// The shard slice of workflow `wf` as a snapshot frame — the test
    /// oracle for [`LobsterDb::shard_snapshot_file`].
    #[cfg(any(test, debug_assertions))]
    fn shard_snap(&self, wf: u32) -> ShardSnap {
        let entry = &self.workflows[wf as usize];
        ShardSnap {
            wf,
            name: entry.name.clone(),
            total: entry.state.total_tasklets,
            cursor: entry.state.cursor,
            returned: entry.state.returned.iter().copied().collect(),
            done: entry.state.done,
            dead: entry.state.dead,
            tasks: self
                .tasks
                .iter()
                .enumerate()
                .filter_map(|(ix, row)| {
                    let id = TaskId(ix as u64);
                    row.as_ref().filter(|t| t.wf == wf).map(|t| TaskSnap {
                        id,
                        tasklets: Claim::from(t.tasklets(id, &self.scattered).collect::<Vec<_>>()),
                        state: t.state,
                        attempts: t.attempts,
                    })
                })
                .collect(),
            outputs: (0u64..)
                .map(TaskId)
                .zip(&self.outputs)
                .filter(|(id, _)| self.task_row(*id).is_some_and(|t| t.wf == wf))
                .filter_map(|(task, o)| {
                    o.map(|o| OutputSnap {
                        task,
                        bytes: o.bytes,
                        done_seq: o.done_seq,
                    })
                })
                .collect(),
            dead_letters: self
                .dead_letters
                .iter()
                .zip(&self.dead_letter_seqs)
                .filter(|(l, _)| self.letter_shard(l) == wf)
                .map(|(l, seq)| (*seq, *l))
                .collect(),
        }
    }

    /// The master slice as a snapshot frame — the test oracle for
    /// [`LobsterDb::master_snapshot_file`].
    #[cfg(any(test, debug_assertions))]
    fn master_snap(&self) -> MasterSnap {
        // Merged outputs name their file by index into the (sorted)
        // merged-file list instead of repeating the string.
        let mut names = vec![""; self.merged_files.len()];
        for (name, f) in &self.merged_files {
            names[f.id as usize] = name;
        }
        let file_ix: BTreeMap<&str, u32> = self
            .merged_files
            .keys()
            .enumerate()
            .map(|(i, k)| (k.as_str(), i as u32))
            .collect();
        let states = || (0u64..).zip(&self.merge_state);
        MasterSnap {
            merged_files: self
                .merged_files
                .iter()
                .map(|(k, f)| (k.clone(), f.bytes))
                .collect(),
            merge_groups: self
                .merge_groups
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
            merged_outputs: states()
                .filter_map(|(task, s)| match s {
                    MergeState::Merged(id) => Some((TaskId(task), file_ix[names[*id as usize]])),
                    _ => None,
                })
                .collect(),
            withdrawn_outputs: states()
                .filter(|(_, s)| **s == MergeState::Withdrawn)
                .map(|(task, _)| task)
                .collect(),
            next_merge: self.next_merge,
            dead_letters: self
                .dead_letters
                .iter()
                .zip(&self.dead_letter_seqs)
                .filter(|(l, _)| self.letter_shard(l) == MASTER_TAG)
                .map(|(l, seq)| (*seq, *l))
                .collect(),
            accounting: self.accounting.clone(),
            tasks_failed: self.counters.tasks_failed,
            evictions: self.counters.evictions,
            merges_completed: self.counters.merges_completed,
        }
    }

    /// Install one shard snapshot — additive: shard files replay in
    /// ascending index order, each installing its own slice.
    fn install_shard(&mut self, s: ShardSnap) {
        let entry = WorkflowEntry {
            name: s.name,
            state: WorkflowState {
                total_tasklets: s.total,
                cursor: s.cursor,
                returned: s.returned.into_iter().collect(),
                done: s.done,
                dead: s.dead,
            },
        };
        self.workflows.push(entry);
        for t in s.tasks {
            self.next_task = self.next_task.max(t.id.0 + 1);
            self.insert_task_row(t.id, s.wf, t.tasklets, t.state, t.attempts);
        }
        for o in s.outputs {
            self.insert_output_row(
                o.task,
                OutputFile {
                    bytes: o.bytes,
                    done_seq: o.done_seq,
                },
            );
            self.insert_done(o.task);
        }
        for (seq, l) in s.dead_letters {
            self.insert_dead_letter(seq, l);
        }
    }

    /// Install the master snapshot. Replays *after* every shard file
    /// (master sorts last), so the shard slices are already in place.
    fn install_master(&mut self, m: MasterSnap) {
        self.merged_files.clear();
        let ids: Vec<u32> = m
            .merged_files
            .into_iter()
            .map(|(name, bytes)| self.insert_merged_file(name, bytes))
            .collect();
        self.merge_state.fill(MergeState::Free);
        self.n_merged = 0;
        self.n_unmerged = self.outputs.iter().flatten().count();
        for (src, _) in m.merge_groups.iter().flat_map(|(_, inputs)| inputs) {
            self.set_merge_state(*src, MergeState::Grouped);
        }
        self.merge_groups = m.merge_groups.into_iter().collect();
        for (task, ix) in m.merged_outputs {
            self.set_merge_state(task, MergeState::Merged(ids[ix as usize]));
        }
        for task in m.withdrawn_outputs {
            self.set_merge_state(TaskId(task), MergeState::Withdrawn);
        }
        self.next_merge = m.next_merge;
        for (seq, l) in m.dead_letters {
            self.insert_dead_letter(seq, l);
        }
        self.accounting = m.accounting;
        // Derived, not a master-slice scalar: the ledger spans both
        // slices and the shard halves installed first.
        self.accounting.dead_lettered = self.dead_letters.len() as u64;
        self.counters.tasks_failed = m.tasks_failed;
        self.counters.evictions = m.evictions;
        self.counters.merges_completed = m.merges_completed;
    }

    fn wf_index(&self, name: &str) -> Option<usize> {
        // Linear scan: a run has a handful of workflows, and the hot path
        // never resolves by name (rows carry the index).
        self.workflows.iter().position(|w| w.name == name)
    }

    /// Mirrors the old map indexing: an unknown workflow is a caller bug.
    fn wf_state(&self, name: &str) -> &WorkflowState {
        // simlint::allow(no-panic-in-lib): an unknown workflow is a caller bug
        &self.workflows[self.wf_index(name).expect("workflow registered")].state
    }

    fn task_row(&self, id: TaskId) -> Option<&TaskRow> {
        self.tasks.get(usize::try_from(id.0).ok()?)?.as_ref()
    }

    fn task_row_mut(&mut self, id: TaskId) -> Option<&mut TaskRow> {
        self.tasks.get_mut(usize::try_from(id.0).ok()?)?.as_mut()
    }

    /// Store task `id`'s row: a run in the row itself, a scattered list
    /// in the side table.
    fn insert_task_row(
        &mut self,
        id: TaskId,
        wf: u32,
        claim: Claim,
        state: TaskState,
        attempts: u32,
    ) {
        debug_assert!(id.0 < MERGE_ID_BASE, "merge tasks have no task row");
        let (first, n, scattered) = match claim {
            Claim::Run { first, n } => (first, n, false),
            Claim::List(list) => {
                self.scattered.insert(id, list);
                (0, 0, true)
            }
        };
        let row = TaskRow {
            first,
            n,
            wf,
            attempts,
            state,
            scattered,
        };
        let ix = id.0 as usize;
        if self.tasks.len() <= ix {
            self.tasks.resize(ix + 1, None);
        }
        if self.tasks[ix].replace(row).is_none() {
            self.n_tasks += 1;
        }
    }

    fn output_row(&self, id: TaskId) -> Option<&OutputFile> {
        self.outputs.get(usize::try_from(id.0).ok()?)?.as_ref()
    }

    fn insert_output_row(&mut self, id: TaskId, out: OutputFile) {
        let ix = id.0 as usize;
        if self.outputs.len() <= ix {
            self.outputs.resize(ix + 1, None);
            self.merge_state.resize(ix + 1, MergeState::Free);
        }
        // A new row's state is `Free`: states are only ever set on rows.
        if self.outputs[ix].replace(out).is_none() {
            self.n_unmerged += 1;
        }
    }

    /// Merge state of `id`'s output (`Free` past the column's end).
    fn merge_state_of(&self, id: TaskId) -> MergeState {
        usize::try_from(id.0)
            .ok()
            .and_then(|ix| self.merge_state.get(ix))
            .copied()
            .unwrap_or_default()
    }

    /// Move `id`'s output to `to`, keeping the merged and unmerged
    /// counts. The column is sized with the output rows, and `id` must
    /// have one (callers and replay checks guarantee it).
    fn set_merge_state(&mut self, id: TaskId, to: MergeState) {
        let from = std::mem::replace(&mut self.merge_state[id.0 as usize], to);
        let was_merged = matches!(from, MergeState::Merged(_));
        let is_merged = matches!(to, MergeState::Merged(_));
        self.n_merged = self.n_merged - usize::from(was_merged) + usize::from(is_merged);
        self.n_unmerged =
            self.n_unmerged - usize::from(from.mergeable()) + usize::from(to.mergeable());
    }

    /// True when `id`'s output exists and is still mergeable (free or
    /// grouped).
    fn output_mergeable(&self, id: TaskId) -> bool {
        self.output_row(id).is_some() && self.merge_state_of(id).mergeable()
    }

    /// True when `id`'s output exists and no merge has claimed it.
    fn output_free(&self, id: TaskId) -> bool {
        self.output_row(id).is_some() && self.merge_state_of(id) == MergeState::Free
    }

    fn reject(&mut self, task: TaskId, action: &'static str) -> RejectedTransition {
        // rejected_transitions is a diagnostic-only counter, deliberately
        // unjournaled (see the Counters docs): replay equality is defined
        // over task state, not over how many invalid transitions were
        // attempted against it.
        // simlint::allow(journal-coverage): diagnostic-only counter, deliberately unjournaled
        self.counters.rejected_transitions += 1;
        RejectedTransition {
            task,
            from: self.task_row(task).map(|t| t.state),
            action,
        }
    }

    /// Register a workflow of `tasklets` total tasklets.
    pub fn register_workflow(&mut self, name: &str, tasklets: u64) {
        assert!(
            self.wf_index(name).is_none(),
            "workflow {name} already registered"
        );
        let wf = self.workflows.len() as u32;
        self.apply_and_log(Record::Workflow {
            wf,
            name: name.to_string(),
            tasklets,
        });
    }

    /// Tasklets not yet assigned to any live task.
    pub fn unassigned_tasklets(&self, workflow: &str) -> u64 {
        let wf = self.wf_state(workflow);
        (wf.total_tasklets - wf.cursor) + wf.returned.len() as u64
    }

    /// Tasklets finished.
    pub fn done_tasklets(&self, workflow: &str) -> u64 {
        self.wf_state(workflow).done
    }

    /// Tasklets withdrawn with dead-lettered tasks.
    pub fn dead_tasklets(&self, workflow: &str) -> u64 {
        self.wf_state(workflow).dead
    }

    /// Total tasklets in the workflow.
    pub fn total_tasklets(&self, workflow: &str) -> u64 {
        self.wf_state(workflow).total_tasklets
    }

    /// Tasklets finished, summed over every registered workflow (an
    /// index walk, no name lookups — safe for per-completion call sites).
    pub fn total_done_tasklets(&self) -> u64 {
        self.workflows.iter().map(|w| w.state.done).sum()
    }

    /// Dead-lettered tasklets, summed over every registered workflow.
    pub fn total_dead_tasklets(&self) -> u64 {
        self.workflows.iter().map(|w| w.state.dead).sum()
    }

    /// True if the workflow is registered.
    pub fn has_workflow(&self, workflow: &str) -> bool {
        self.wf_index(workflow).is_some()
    }

    /// Number of registered workflows.
    pub fn workflow_count(&self) -> usize {
        self.workflows.len()
    }

    /// True once every tasklet of every workflow is done.
    pub fn all_done(&self) -> bool {
        self.workflows
            .iter()
            .all(|w| w.state.done == w.state.total_tasklets)
    }

    /// Create a task covering the next `n` unassigned tasklets (returned
    /// tasklets first, then fresh ones). Returns `None` when the workflow
    /// is exhausted; a short final task is created if fewer than `n`
    /// remain.
    pub fn create_task(&mut self, workflow: &str, n: u32) -> Option<TaskId> {
        assert!(n >= 1);
        // simlint::allow(no-panic-in-lib): an unknown workflow is a caller bug
        let wf_ix = self.wf_index(workflow).expect("workflow registered") as u32;
        // Peek the claim without mutating: `apply` is the single place
        // that mutates state, so journal replay is authoritative.
        let wf = &self.workflows[wf_ix as usize].state;
        // Exhausted: answer before allocating the claim. A drained
        // workflow is asked on every refill, so this is the common case
        // late in a run.
        if wf.returned.is_empty() && wf.cursor >= wf.total_tasklets {
            return None;
        }
        let mut claim = Claim::default();
        let mut returned = wf.returned.iter().copied();
        let mut cursor = wf.cursor;
        while claim.len() < n as usize {
            if let Some(t) = returned.next() {
                claim.push(t);
            } else if cursor < wf.total_tasklets {
                claim.push(cursor);
                cursor += 1;
            } else {
                break;
            }
        }
        let id = TaskId(self.next_task);
        self.apply_and_log(Record::TaskCreated {
            id,
            wf: wf_ix,
            tasklets: claim,
        });
        Some(id)
    }

    /// Plan a merge over `inputs` (each a done, unmerged, unclaimed
    /// output). Journals the group so a resumed run re-issues exactly
    /// this merge; returns the merge task id (numbered from
    /// [`MERGE_ID_BASE`]).
    pub fn create_merge_group(
        &mut self,
        inputs: &[(TaskId, u64)],
    ) -> Result<TaskId, RejectedTransition> {
        for (src, _) in inputs {
            if !self.output_free(*src) {
                return Err(self.reject(*src, "create_merge_group"));
            }
        }
        let id = TaskId(MERGE_ID_BASE + self.next_merge);
        self.apply_and_log(Record::MergeCreated {
            id,
            inputs: inputs.to_vec(),
        });
        Ok(id)
    }

    /// Mark a task dispatched. Legal from `Ready` or `Running` (a
    /// re-dispatch after a vanished worker).
    pub fn mark_running(&mut self, id: TaskId) -> Result<(), RejectedTransition> {
        match self.task_row(id).map(|t| t.state) {
            Some(TaskState::Ready | TaskState::Running) => {
                self.apply_and_log(Record::TaskRunning { id });
                Ok(())
            }
            _ => Err(self.reject(id, "mark_running")),
        }
    }

    /// Mark a task finished with `output_bytes` of output. Legal from
    /// `Running` only.
    pub fn mark_done(&mut self, id: TaskId, output_bytes: u64) -> Result<(), RejectedTransition> {
        match self.task_row(id).map(|t| t.state) {
            Some(TaskState::Running) => {
                // The global finish sequence: dense because `done_order`
                // only ever grows, deterministic because replay rebuilds
                // the identical order before the next assignment.
                let done_seq = self.done_order.len() as u64;
                self.apply_and_log(Record::TaskDone {
                    id,
                    output_bytes,
                    done_seq,
                });
                Ok(())
            }
            _ => Err(self.reject(id, "mark_done")),
        }
    }

    /// Mark a task lost; its tasklets return to the pool. Legal from
    /// `Ready` or `Running`.
    pub fn mark_lost(&mut self, id: TaskId) -> Result<(), RejectedTransition> {
        match self.task_row(id).map(|t| t.state) {
            Some(TaskState::Ready | TaskState::Running) => {
                self.apply_and_log(Record::TaskLost { id });
                Ok(())
            }
            _ => Err(self.reject(id, "mark_lost")),
        }
    }

    /// Record a merge of `outputs` into `into` totalling `bytes`. `task`
    /// is the planned merge group being completed (`None` for merges
    /// planned outside the DB, e.g. the Hadoop-style global plan). Every
    /// output must be done, unmerged and not withdrawn; the file name
    /// must be unused.
    pub fn mark_merged(
        &mut self,
        task: Option<TaskId>,
        outputs: &[TaskId],
        into: &str,
        bytes: u64,
    ) -> Result<(), RejectedTransition> {
        if let Some(t) = task {
            if !self.merge_groups.contains_key(&t) {
                return Err(self.reject(t, "mark_merged (unknown merge group)"));
            }
        }
        if self.merged_files.contains_key(into) {
            let id = task
                .or_else(|| outputs.first().copied())
                .unwrap_or(TaskId(0));
            return Err(self.reject(id, "mark_merged (duplicate merged file)"));
        }
        for id in outputs {
            if !self.output_mergeable(*id) {
                return Err(self.reject(*id, "mark_merged"));
            }
        }
        self.apply_and_log(Record::Merged {
            task,
            outputs: outputs.to_vec(),
            into: into.to_string(),
            bytes,
        });
        Ok(())
    }

    /// Journal one attempt report into the durable accounting.
    pub fn record_attempt(&mut self, report: &SegmentReport) {
        // `route` sends every `Record::Attempt` to `master.wal`. Encoding
        // from the borrow writes that record's bytes without the
        // per-attempt `Box` + clone building it would cost on the hot
        // path.
        let tag = self.journal.is_some().then_some(MASTER_TAG);
        self.log_to(tag, |buf| codec::encode_attempt(buf, report));
        // simlint::allow(journal-coverage): log-then-apply of Record::Attempt, logged just above
        self.apply_attempt(report);
        self.compact_if_due(tag);
    }

    /// Journal time spent in a backoff wait.
    pub fn record_backoff(&mut self, wait: SimDuration) {
        self.apply_and_log(Record::Backoff { wait });
    }

    /// Journal a task landing in the dead-letter ledger. For analysis
    /// tasks the task is withdrawn and its tasklets counted dead; for
    /// merges the group is dissolved and its inputs withdrawn.
    pub fn record_dead_letter(&mut self, letter: DeadLetter) {
        if letter.category != Category::Merge {
            self.thaw_row(letter.task);
        }
        let seq = self.dead_letters.len() as u64;
        self.apply_and_log(Record::DeadLettered {
            letter: Box::new(letter),
            seq,
        });
    }

    /// Task state lookup.
    pub fn task_state(&self, id: TaskId) -> Option<TaskState> {
        self.task_row(id).map(|t| t.state)
    }

    /// Dispatch attempts of a task.
    pub fn attempts(&self, id: TaskId) -> u32 {
        self.task_row(id).map_or(0, |t| t.attempts)
    }

    /// Tasklets covered by a task, in claim order.
    pub fn task_tasklets(&self, id: TaskId) -> Option<Vec<u64>> {
        self.task_row(id)
            .map(|t| t.tasklets(id, &self.scattered).collect())
    }

    /// How many tasklets a task covers: the length of
    /// [`LobsterDb::task_tasklets`], without building the list.
    pub fn task_tasklet_count(&self, id: TaskId) -> Option<usize> {
        self.task_row(id)
            .map(|t| t.tasklets(id, &self.scattered).len())
    }

    /// Workflow a task belongs to.
    pub fn task_workflow(&self, id: TaskId) -> Option<&str> {
        self.task_row(id)
            .map(|t| self.workflows[t.wf as usize].name.as_str())
    }

    /// Outputs not yet merged (nor withdrawn), as `(task, bytes)` sorted
    /// by task id.
    pub fn unmerged_outputs(&self) -> Vec<(TaskId, u64)> {
        (0u64..)
            .map(TaskId)
            .zip(&self.outputs)
            .filter_map(|(id, o)| o.map(|o| (id, o.bytes)))
            .filter(|(id, _)| self.merge_state_of(*id).mergeable())
            .collect()
    }

    /// How many outputs are neither merged nor withdrawn — the length of
    /// [`LobsterDb::unmerged_outputs`], kept as a count. It covers outputs
    /// in planned, queued and in-flight merges: it only drops when a merge
    /// completes or is dead-lettered.
    pub fn merge_backlog(&self) -> usize {
        self.n_unmerged
    }

    /// Unmerged, unwithdrawn outputs not claimed by any open merge group,
    /// in task *finish* order — the shape of the driver's pending-merge
    /// buffer at crash time.
    pub fn done_order_unmerged(&self) -> Vec<(TaskId, u64)> {
        self.done_order
            .iter()
            .filter(|id| self.output_free(**id))
            .filter_map(|id| self.output_row(*id).map(|o| (*id, o.bytes)))
            .collect()
    }

    /// Inputs of the open merge group `id` (`None` once it completed or
    /// was dead-lettered).
    pub fn merge_group(&self, id: TaskId) -> Option<&[(TaskId, u64)]> {
        self.merge_groups.get(&id).map(Vec::as_slice)
    }

    /// Open (planned, incomplete) merge groups as `(merge id, inputs)`.
    pub fn open_merge_groups(&self) -> Vec<(TaskId, MergeInputs)> {
        self.merge_groups
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Tasks currently in `Running` state (in-flight at crash time).
    pub fn running_tasks(&self) -> Vec<TaskId> {
        self.tasks_in_state(TaskState::Running)
    }

    /// Tasks still in `Ready` state: created (their tasklets are claimed
    /// off the workflow cursor) but never dispatched. A recovered master
    /// must re-dispatch these — nothing else will re-cover the tasklets.
    pub fn ready_tasks(&self) -> Vec<TaskId> {
        self.tasks_in_state(TaskState::Ready)
    }

    /// Live task ids in `state`, ascending.
    fn tasks_in_state(&self, state: TaskState) -> Vec<TaskId> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, row)| row.as_ref().is_some_and(|t| t.state == state))
            .map(|(ix, _)| TaskId(ix as u64))
            .collect()
    }

    /// Merged files as `(name, bytes)`.
    pub fn merged_files(&self) -> Vec<(String, u64)> {
        self.merged_files
            .iter()
            .map(|(k, f)| (k.clone(), f.bytes))
            .collect()
    }

    /// Number of merged files produced so far.
    pub fn merged_file_count(&self) -> usize {
        self.merged_files.len()
    }

    /// Number of tasks ever created.
    pub fn task_count(&self) -> usize {
        self.n_tasks
    }

    /// The dead-letter ledger, in dead-letter order.
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dead_letters
    }

    /// Durable run accounting (rebuilt on recovery).
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    /// Durable run counters (rebuilt on recovery).
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Records appended since the last snapshot, summed over every shard
    /// file (buffered records included). Derived from the journal itself
    /// — identical whether the DB reached this state live or by replay.
    pub fn records_since_snapshot(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::total_tail_records)
    }

    /// Attempt reports replayed from the journal tail during recovery
    /// (empties the buffer). The driver uses these to rebuild monitor
    /// timelines on resume.
    pub fn take_replayed_attempts(&mut self) -> Vec<SegmentReport> {
        std::mem::take(&mut self.replayed_attempts)
    }
}

impl Drop for LobsterDb {
    fn drop(&mut self) {
        // Best-effort final commit of the group-commit window; a failure
        // must not panic in drop (the process is already on its way out,
        // and the torn-tail rule makes a lost window recoverable).
        if let Some(j) = self.journal.as_mut() {
            let _ = j.commit();
        }
    }
}

/// Whether a journal exists at `path`: `false` when nothing is there,
/// `true` for a directory. Anything else (a regular file of any format
/// included) is `InvalidData`, and is left untouched.
fn journal_dir_exists(path: &Path) -> io::Result<bool> {
    match fs::metadata(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
        Ok(m) if m.is_dir() => Ok(true),
        Ok(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("journal path {path:?} is not a WAL v3 shard directory"),
        )),
    }
}

/// Task ids a journal may leave unused below its highest id, on top of
/// two per task row it holds. Ids are handed out densely, but a commit
/// torn between two shard files keeps the new tasks of the first and
/// loses those of the second, so each such crash can open a gap. The
/// bound stops a corrupt id from sizing the task table far past the
/// journal's own scale.
const TASK_ID_SLACK: u64 = 1 << 16;

/// Replay scanned v3 shard files into `db` — shards in ascending index
/// order, master last (the order [`journal::scan_dir`] returns). A free
/// function rather than a method: replay re-enters `apply` with already-
/// journaled records, deliberately outside the journaled-write call graph.
/// `apply` trusts its input, so each record is checked against the state
/// replayed before it ([`check_replayed`]); a CRC-valid record that
/// contradicts that state is `InvalidData`. Returns the scans (records
/// drained) for [`Journal::attach`].
fn replay_scans(
    db: &mut LobsterDb,
    path: &Path,
    mut scans: Vec<ScannedFile>,
) -> io::Result<Vec<ScannedFile>> {
    let rows: u64 = scans
        .iter()
        .flat_map(|scan| &scan.records)
        .map(|rec| match rec {
            Record::TaskCreated { .. } => 1,
            Record::ShardSnapshot { state } => state.tasks.len() as u64,
            _ => 0,
        })
        .sum();
    let id_bound = rows
        .saturating_mul(2)
        .saturating_add(TASK_ID_SLACK)
        .min(MERGE_ID_BASE);
    for scan in &mut scans {
        for (i, rec) in std::mem::take(&mut scan.records).into_iter().enumerate() {
            if let Err(why) = check_replayed(db, scan.tag, &rec, id_bound) {
                let file = path.join(journal::file_name(scan.tag));
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("record {i} of {file:?}: {why}"),
                ));
            }
            if matches!(rec, Record::MasterSnapshot { .. }) {
                // Attempts live in master.wal; everything before its
                // snapshot is folded in, not replayed.
                db.replayed_attempts.clear();
            }
            if let Record::Attempt { report } = &rec {
                db.replayed_attempts.push((**report).clone());
            }
            db.apply(rec);
        }
    }
    Ok(scans)
}

/// Why `rec`, read from shard file `tag`, contradicts the state replayed
/// before it. These are the invariants `apply` relies on: workflows
/// register in index order, every referenced workflow, task row and
/// output row exists, a transition starts from a state its writer allows,
/// a new task id is unused and inside the journal's range (`id_bound`), no
/// counter overflows, and the record sits in the file [`LobsterDb::route`]
/// sends it to.
fn check_replayed(db: &LobsterDb, tag: u32, rec: &Record, id_bound: u64) -> Result<(), String> {
    let workflow = |wf: u32| {
        db.workflows
            .get(wf as usize)
            .map(|w| &w.state)
            .ok_or_else(|| format!("unknown workflow index {wf}"))
    };
    let next_workflow = |wf: u32| {
        let next = db.workflows.len();
        if wf as usize == next {
            Ok(())
        } else {
            Err(format!(
                "workflow index {wf} registered where {next} is next"
            ))
        }
    };
    let row_in = |id: TaskId, from: &[TaskState]| match db.task_row(id) {
        Some(t) if from.contains(&t.state) => Ok(t),
        Some(t) => Err(format!("{id} cannot leave {:?} this way", t.state)),
        None => Err(format!("{id} has no task row")),
    };
    let new_row = |id: TaskId| {
        if id.0 >= id_bound {
            Err(format!(
                "task id {} outside the journal's range (< {id_bound})",
                id.0
            ))
        } else if db.task_row(id).is_some() {
            Err(format!("{id} created twice"))
        } else {
            Ok(())
        }
    };
    let room = |n: u64, by: u64, what: &str| match n.checked_add(by) {
        Some(_) => Ok(()),
        None => Err(format!("{what} overflows")),
    };
    // The commit protocol writes shards before `master.wal`, so a master
    // record only ever references outputs that are already durable.
    let causal = |gid: TaskId, inputs: &MergeInputs| match inputs
        .iter()
        .find(|(src, _)| db.output_row(*src).is_none())
    {
        None => Ok(()),
        Some((src, _)) => Err(format!(
            "journal causality violation: merge group {gid:?} references the \
             output of task {src:?}, but no shard holds its TaskDone — a shard \
             file has lost fsynced history"
        )),
    };
    let live = [TaskState::Ready, TaskState::Running];
    match rec {
        Record::Workflow { wf, .. } => next_workflow(*wf)?,
        Record::TaskCreated { id, wf, tasklets } => {
            let total = workflow(*wf)?.total_tasklets;
            new_row(*id)?;
            if let Some(t) = tasklets.iter().find(|&t| t >= total) {
                return Err(format!("tasklet {t} outside workflow {wf}'s {total}"));
            }
        }
        Record::TaskRunning { id } => {
            if row_in(*id, &live)?.attempts == u32::MAX {
                return Err(format!("{id} attempt count overflows"));
            }
        }
        Record::TaskDone { id, .. } => {
            let t = row_in(*id, &[TaskState::Running])?;
            let done = db.workflows[t.wf as usize].state.done;
            let n = t.tasklets(*id, &db.scattered).len() as u64;
            room(done, n, "done tasklet count")?;
        }
        Record::TaskLost { id } => {
            row_in(*id, &live)?;
        }
        Record::MergeCreated { id, inputs } => {
            if id.0 < MERGE_ID_BASE {
                return Err(format!("merge id {} below {MERGE_ID_BASE}", id.0));
            }
            causal(*id, inputs)?;
            let claimed = inputs
                .iter()
                .map(|(src, _)| *src)
                .find(|src| !db.output_free(*src));
            if let Some(src) = claimed {
                let state = db.merge_state_of(src);
                return Err(format!("merge group input {src} is already {state:?}"));
            }
        }
        Record::Merged { outputs, .. } => {
            room(db.counters.merges_completed, 1, "merge count")?;
            if let Some(o) = outputs.iter().find(|o| db.output_row(**o).is_none()) {
                return Err(format!("merged output of {o} has no output row"));
            }
            if let Some(o) = outputs.iter().find(|o| !db.output_mergeable(**o)) {
                let state = db.merge_state_of(*o);
                return Err(format!("merged output of {o} is already {state:?}"));
            }
        }
        Record::Attempt { .. } => {
            room(db.counters.tasks_failed, 1, "failure count")?;
            room(db.counters.evictions, 1, "eviction count")?;
            room(db.accounting.retries, 1, "retry count")?;
            room(db.accounting.watchdog_aborts, 1, "watchdog abort count")?;
        }
        Record::Backoff { .. } => {}
        Record::DeadLettered { letter, .. } => {
            if let Some(t) = db.task_row(letter.task) {
                if letter.category != Category::Merge {
                    let dead = db.workflows[t.wf as usize].state.dead;
                    room(dead, letter.units, "dead tasklet count")?;
                }
            }
        }
        Record::ShardSnapshot { state } => {
            next_workflow(state.wf)?;
            if state.cursor > state.total {
                return Err(format!(
                    "cursor {} past {} tasklets",
                    state.cursor, state.total
                ));
            }
            for t in &state.tasks {
                new_row(t.id)?;
            }
            // Both lists are in ascending id order: one forward walk.
            let mut ids = state.tasks.iter().map(|t| t.id);
            let orphan = state.outputs.iter().find(|o| !ids.any(|id| id == o.task));
            if let Some(o) = orphan {
                return Err(format!("output of {} has no task row", o.task));
            }
        }
        Record::MasterSnapshot { state } => {
            for (gid, inputs) in &state.merge_groups {
                causal(*gid, inputs)?;
            }
            check_snapshot_merge_states(db, state)?;
        }
    }
    let home = match rec {
        Record::ShardSnapshot { state } => state.wf,
        _ => db.route(rec),
    };
    if home != tag {
        return Err(format!("record belongs in {}", journal::file_name(home)));
    }
    Ok(())
}

/// Why the merge states a master snapshot assigns contradict the output
/// rows replayed before it: every id it names must have an output row,
/// and no output may be given two different states, with one exception.
/// `mark_merged` may merge an output that an open group still lists, so
/// a group input that is also merged is legal, and installs as merged,
/// as it stands in the live db. Same-state repeats install idempotently.
fn check_snapshot_merge_states(db: &LobsterDb, m: &MasterSnap) -> Result<(), String> {
    let grouped = m
        .merge_groups
        .iter()
        .flat_map(|(_, inputs)| inputs)
        .map(|(src, _)| (*src, MergeState::Grouped));
    let merged = m
        .merged_outputs
        .iter()
        .map(|(task, ix)| (*task, MergeState::Merged(*ix)));
    let withdrawn = m
        .withdrawn_outputs
        .iter()
        .map(|t| (TaskId(*t), MergeState::Withdrawn));
    let mut seen = vec![MergeState::Free; db.merge_state.len()];
    for (task, to) in grouped.chain(merged).chain(withdrawn) {
        if db.output_row(task).is_none() {
            return Err(format!("merge state of {task} has no output row"));
        }
        let slot = &mut seen[task.0 as usize];
        let merged_from_group = *slot == MergeState::Grouped && matches!(to, MergeState::Merged(_));
        if *slot != MergeState::Free && *slot != to && !merged_from_group {
            return Err(format!("{task}'s output is both {slot:?} and {to:?}"));
        }
        *slot = to;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::Segment;
    use simkit::time::SimTime;
    use std::path::PathBuf;
    use wqueue::task::{FailureCode, TaskTimes};

    /// A fresh journal directory path.
    fn tmp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lobster-db-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{tag}-{}.wal", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn cleanup(p: &Path) {
        std::fs::remove_dir_all(p).ok();
    }

    fn shard_file(p: &Path, wf: u32) -> PathBuf {
        p.join(format!("shard-{wf:04}.wal"))
    }

    fn master_file(p: &Path) -> PathBuf {
        p.join("master.wal")
    }

    fn v3_header(tag: u32) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[..8].copy_from_slice(MAGIC);
        h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        h[12..16].copy_from_slice(&tag.to_le_bytes());
        h
    }

    /// Policy with explicit group-commit thresholds, no auto-compaction.
    fn group_policy(records: u64, bytes: u64) -> JournalPolicy {
        JournalPolicy {
            snapshot_every_records: None,
            group_commit_records: records,
            group_commit_bytes: bytes,
        }
    }

    fn report(task: u64, ok: bool) -> SegmentReport {
        SegmentReport {
            task: TaskId(task),
            category: Category::Analysis,
            attempt: 0,
            worker: 1,
            times: TaskTimes {
                cpu: SimDuration::from_mins(10),
                ..TaskTimes::default()
            },
            failed_segment: if ok { None } else { Some(Segment::StageIn) },
            watchdog: false,
            evicted: false,
            dispatched_at: SimTime::ZERO,
            finished_at: SimTime::from_secs(600),
            output_bytes: if ok { 1000 } else { 0 },
        }
    }

    fn letter(task: u64, category: Category, units: u64) -> DeadLetter {
        DeadLetter {
            task: TaskId(task),
            category,
            code: FailureCode::StageIn,
            attempts: 3,
            units,
            at: SimTime::from_secs(900),
        }
    }

    /// CRC-32 one byte and one bit at a time, straight from the
    /// polynomial: the reference the table-driven `crc32` must match.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_reference() {
        // A seeded xorshift stream, so the large case is reproducible.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..(1 << 20) + 13)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        // Every short length at every alignment of the 8-byte steps.
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_reference(slice),
                    "start {start} len {len}"
                );
            }
        }
        assert_eq!(crc32(&bytes), crc32_reference(&bytes));
    }

    #[test]
    fn workflow_decomposition_bookkeeping() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 10);
        assert_eq!(db.unassigned_tasklets("wf"), 10);
        let t0 = db.create_task("wf", 4).unwrap();
        let t1 = db.create_task("wf", 4).unwrap();
        let t2 = db.create_task("wf", 4).unwrap(); // short final task
        assert!(db.create_task("wf", 4).is_none(), "exhausted");
        assert_eq!(db.task_tasklets(t0).unwrap(), [0, 1, 2, 3]);
        assert_eq!(db.task_tasklets(t2).unwrap(), [8, 9]);
        assert_eq!(db.unassigned_tasklets("wf"), 0);
        assert_eq!(db.task_count(), 3);
        let _ = t1;
    }

    #[test]
    fn lost_tasklets_are_reassigned_first() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 6);
        let t0 = db.create_task("wf", 3).unwrap();
        db.mark_running(t0).unwrap();
        db.mark_lost(t0).unwrap();
        assert_eq!(db.unassigned_tasklets("wf"), 6);
        let t1 = db.create_task("wf", 4).unwrap();
        // Returned tasklets 0..3 come first, then fresh tasklet 3.
        assert_eq!(db.task_tasklets(t1).unwrap(), [0, 1, 2, 3]);
        assert_eq!(db.task_state(t0), Some(TaskState::Lost));
    }

    #[test]
    fn done_accounting() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 4);
        let t = db.create_task("wf", 4).unwrap();
        db.mark_running(t).unwrap();
        assert!(!db.all_done());
        db.mark_done(t, 1000).unwrap();
        assert_eq!(db.done_tasklets("wf"), 4);
        assert!(db.all_done());
        assert_eq!(db.unmerged_outputs(), vec![(t, 1000)]);
        assert_eq!(db.counters().tasks_completed, 1);
    }

    #[test]
    fn attempts_count_redispatches() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_lost(t).unwrap();
        let t2 = db.create_task("wf", 2).unwrap();
        db.mark_running(t2).unwrap();
        db.mark_running(t2).unwrap(); // re-dispatch after a worker vanished
        assert_eq!(db.attempts(t2), 2);
    }

    #[test]
    fn merge_bookkeeping() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 4);
        let a = db.create_task("wf", 2).unwrap();
        let b = db.create_task("wf", 2).unwrap();
        db.mark_running(a).unwrap();
        db.mark_done(a, 100).unwrap();
        db.mark_running(b).unwrap();
        db.mark_done(b, 150).unwrap();
        let g = db.create_merge_group(&[(a, 100), (b, 150)]).unwrap();
        assert_eq!(g, TaskId(MERGE_ID_BASE));
        assert!(
            db.done_order_unmerged().is_empty(),
            "grouped outputs leave planning"
        );
        db.mark_merged(Some(g), &[a, b], "merged_0.root", 250)
            .unwrap();
        assert!(db.unmerged_outputs().is_empty());
        assert_eq!(db.merged_files(), vec![("merged_0.root".into(), 250)]);
        assert!(db.open_merge_groups().is_empty());
        assert_eq!(db.counters().merges_completed, 1);
    }

    #[test]
    fn journal_recovery_rebuilds_state() {
        let path = tmp_path("journal");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 8);
            let t0 = db.create_task("wf", 3).unwrap();
            let t1 = db.create_task("wf", 3).unwrap();
            db.mark_running(t0).unwrap();
            db.mark_done(t0, 500).unwrap();
            db.mark_running(t1).unwrap();
            db.mark_lost(t1).unwrap();
        } // crash
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.total_tasklets("wf"), 8);
        assert_eq!(db.done_tasklets("wf"), 3);
        // t1's 3 tasklets returned + 2 never assigned.
        assert_eq!(db.unassigned_tasklets("wf"), 5);
        assert_eq!(db.task_state(TaskId(0)), Some(TaskState::Done));
        assert_eq!(db.task_state(TaskId(1)), Some(TaskState::Lost));
        assert_eq!(db.unmerged_outputs().len(), 1);
        cleanup(&path);
    }

    #[test]
    fn recovered_db_continues_numbering() {
        let path = tmp_path("journal2");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 10);
            db.create_task("wf", 2).unwrap();
        }
        {
            let mut db = LobsterDb::open(&path).unwrap();
            let t = db.create_task("wf", 2).unwrap();
            assert_eq!(t, TaskId(1), "ids continue after recovery");
            assert_eq!(db.task_tasklets(t).unwrap(), [2, 3]);
        }
        cleanup(&path);
    }

    #[test]
    fn recover_missing_file_is_empty() {
        let db = LobsterDb::recover("/nonexistent/path/journal.wal").unwrap();
        assert!(db.all_done(), "no workflows → vacuously done");
        assert_eq!(db.task_count(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_workflow_rejected() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 1);
        db.register_workflow("wf", 1);
    }

    // ---- v3 framing & torn-tail tolerance ------------------------------

    /// Byte-truncate the final frame of a shard file at *every* offset:
    /// recovery must succeed and yield exactly the state without that
    /// frame.
    #[test]
    fn torn_tail_tolerated_at_every_offset() {
        let path = tmp_path("torn");
        let len_without_last;
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 6);
            let t0 = db.create_task("wf", 3).unwrap();
            db.mark_running(t0).unwrap();
            db.mark_done(t0, 500).unwrap();
            len_without_last = std::fs::metadata(shard_file(&path, 0)).unwrap().len();
            // The final record, to be torn:
            db.create_task("wf", 3).unwrap();
        }
        let full = std::fs::read(shard_file(&path, 0)).unwrap();
        assert!(full.len() as u64 > len_without_last);
        for cut in len_without_last..full.len() as u64 {
            std::fs::write(shard_file(&path, 0), &full[..cut as usize]).unwrap();
            let db = LobsterDb::recover(&path)
                .unwrap_or_else(|e| panic!("torn tail at {cut} must be tolerated: {e}"));
            assert_eq!(db.task_count(), 1, "cut at {cut}: last record discarded");
            assert_eq!(db.done_tasklets("wf"), 3);
            // Re-opening truncates the torn tail and continues cleanly.
            let mut db = LobsterDb::open(&path).unwrap();
            let t = db.create_task("wf", 3).unwrap();
            assert_eq!(t, TaskId(1));
        }
        cleanup(&path);
    }

    /// The satellite-1 regression: open a torn journal and append
    /// *immediately* — the torn bytes must be truncated before the
    /// append handle exists, so the rewritten stream is byte-for-byte
    /// what an untorn journal would hold.
    #[test]
    fn torn_tail_then_append_replays_byte_for_byte() {
        let path = tmp_path("torn-append");
        let len_after_workflow;
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 6);
            len_after_workflow = std::fs::metadata(shard_file(&path, 0)).unwrap().len();
            db.create_task("wf", 3).unwrap();
        }
        let full = std::fs::read(shard_file(&path, 0)).unwrap();
        // Tear into the TaskCreated frame.
        std::fs::write(shard_file(&path, 0), &full[..full.len() - 3]).unwrap();
        {
            // Open + append in one breath, no intermediate recover.
            let mut db = LobsterDb::open(&path).unwrap();
            let t = db.create_task("wf", 3).unwrap();
            assert_eq!(t, TaskId(0), "torn TaskCreated was discarded");
        }
        let rewritten = std::fs::read(shard_file(&path, 0)).unwrap();
        assert!(rewritten.len() as u64 > len_after_workflow);
        assert_eq!(
            rewritten, full,
            "truncate-then-append reproduces the identical byte stream"
        );
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.task_count(), 1);
        assert_eq!(db.task_tasklets(TaskId(0)).unwrap(), [0, 1, 2]);
        cleanup(&path);
    }

    #[test]
    fn corrupt_final_record_discarded() {
        let path = tmp_path("corrupt-final");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 4);
            db.create_task("wf", 2).unwrap();
        }
        let shard = shard_file(&path, 0);
        let mut bytes = std::fs::read(&shard).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // CRC now fails on the final frame
        std::fs::write(&shard, &bytes).unwrap();
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.task_count(), 0, "corrupt final record discarded");
        assert_eq!(db.total_tasklets("wf"), 4, "earlier records intact");
        cleanup(&path);
    }

    #[test]
    fn mid_file_corruption_is_hard_error() {
        let path = tmp_path("corrupt-mid");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 4);
            db.create_task("wf", 2).unwrap();
            db.create_task("wf", 2).unwrap();
        }
        let shard = shard_file(&path, 0);
        let mut bytes = std::fs::read(&shard).unwrap();
        // Flip a payload byte of the *first* frame (just past its header).
        let at = HEADER_LEN + FRAME_HEADER_LEN + 2;
        bytes[at] ^= 0xFF;
        std::fs::write(&shard, &bytes).unwrap();
        let err = LobsterDb::recover(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        cleanup(&path);
    }

    #[test]
    fn bad_header_rejected_torn_header_tolerated() {
        let path = tmp_path("header");
        drop(LobsterDb::open(&path).unwrap()); // fresh dir, master.wal only
        let master = master_file(&path);
        // Garbage that is not a prefix of the canonical header: hard error.
        std::fs::write(&master, b"NOTAWAL!").unwrap();
        assert_eq!(
            LobsterDb::recover(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Wrong version in an otherwise intact header: hard error.
        let mut h = v3_header(journal::MASTER_TAG);
        h[8] = 99;
        std::fs::write(&master, h).unwrap();
        assert_eq!(
            LobsterDb::recover(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A torn prefix of the canonical header (crash during the very
        // first write): tolerated as an empty journal.
        for cut in 1..HEADER_LEN {
            std::fs::write(&master, &v3_header(journal::MASTER_TAG)[..cut]).unwrap();
            let db = LobsterDb::recover(&path).unwrap();
            assert_eq!(db.task_count(), 0);
            // open() resets it to a fresh, usable journal.
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow(&format!("wf{cut}"), 1);
        }
        cleanup(&path);
    }

    /// A journal is a directory. A regular file at the journal path is
    /// `InvalidData` whatever it holds — a single-file v1 or v2 journal, an
    /// unknown version, a torn header, byte soup — and both calls leave
    /// its bytes alone.
    #[test]
    fn v1_single_file_version_rejected() {
        let path = tmp_path("single-file");
        let header = |version: u32| {
            let mut h = v3_header(0).to_vec();
            h[8..12].copy_from_slice(&version.to_le_bytes());
            h
        };
        let mut rng = proptest::TestRng::for_case(0);
        let soup: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
        let cases = [
            ("v1 header", header(1)),
            ("v2 header", header(2)),
            ("unknown version", header(99)),
            ("torn header", header(FORMAT_VERSION)[..5].to_vec()),
            ("byte soup", soup),
        ];
        for (what, bytes) in cases {
            std::fs::write(&path, &bytes).unwrap();
            for (call, res) in [
                ("recover", LobsterDb::recover(&path).map(drop)),
                ("open", LobsterDb::open(&path).map(drop)),
            ] {
                let err = res.expect_err(what);
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{call}: {what}");
                assert!(
                    err.to_string().contains(&format!("{path:?}")),
                    "{call}: {what}: {err}"
                );
            }
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{what} untouched");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_compaction_preserves_state_and_shrinks_journal() {
        let path = tmp_path("compact");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 8);
            let t0 = db.create_task("wf", 4).unwrap();
            db.mark_running(t0).unwrap();
            db.mark_done(t0, 700).unwrap();
            db.record_attempt(&report(t0.0, true));
            db.record_backoff(SimDuration::from_mins(5));
            for _ in 0..50 {
                let t = db.create_task("wf", 1).unwrap();
                db.mark_running(t).unwrap();
                db.mark_lost(t).unwrap();
            }
            let before = journal_bytes(&path).unwrap();
            db.compact().unwrap();
            assert_eq!(db.records_since_snapshot(), 0);
            assert!(
                journal_bytes(&path).unwrap() < before,
                "snapshot frames replace the record tail"
            );
            // Post-compaction appends land after the snapshot frame.
            let t = db.create_task("wf", 2).unwrap();
            db.mark_running(t).unwrap();
        }
        let mut db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.done_tasklets("wf"), 4);
        assert_eq!(db.counters().tasks_completed, 1);
        assert!(db.accounting().cpu > 0.0);
        assert!(db.accounting().backoff_hours > 0.0);
        assert_eq!(db.task_state(TaskId(51)), Some(TaskState::Running));
        // Attempts before the snapshot are folded into it, not replayed.
        assert!(db.take_replayed_attempts().is_empty());
        cleanup(&path);
    }

    #[test]
    fn auto_snapshot_policy_compacts() {
        let path = tmp_path("auto-compact");
        let policy = JournalPolicy {
            snapshot_every_records: Some(10),
            ..JournalPolicy::never()
        };
        {
            let mut db = LobsterDb::open_with_policy(&path, &policy).unwrap();
            db.register_workflow("wf", 64);
            for _ in 0..30 {
                let t = db.create_task("wf", 1).unwrap();
                db.mark_running(t).unwrap();
                db.mark_done(t, 10).unwrap();
            }
            assert!(
                db.records_since_snapshot() < 10,
                "policy keeps the tail short, got {}",
                db.records_since_snapshot()
            );
        }
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.done_tasklets("wf"), 30);
        assert_eq!(db.counters().tasks_completed, 30);
        assert_eq!(db.task_count(), 30);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_after_snapshot_tolerated() {
        let path = tmp_path("torn-after-snap");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 8);
            let t = db.create_task("wf", 4).unwrap();
            db.mark_running(t).unwrap();
            db.mark_done(t, 100).unwrap();
            db.compact().unwrap();
            db.create_task("wf", 4).unwrap(); // the record to tear
        }
        let shard = shard_file(&path, 0);
        let full = std::fs::read(&shard).unwrap();
        // Tear half of the final record.
        std::fs::write(&shard, &full[..full.len() - 5]).unwrap();
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.task_count(), 1, "post-snapshot torn record discarded");
        assert_eq!(db.done_tasklets("wf"), 4, "snapshot state intact");
        cleanup(&path);
    }

    // ---- explicit transitions ------------------------------------------

    #[test]
    fn illegal_mark_done_from_ready() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        let err = db.mark_done(t, 10).unwrap_err();
        assert_eq!(err.from, Some(TaskState::Ready));
        assert_eq!(db.task_state(t), Some(TaskState::Ready), "state unchanged");
        assert_eq!(db.done_tasklets("wf"), 0);
        assert_eq!(db.counters().rejected_transitions, 1);
    }

    #[test]
    fn illegal_mark_done_twice() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_done(t, 10).unwrap();
        let err = db.mark_done(t, 10).unwrap_err();
        assert_eq!(err.from, Some(TaskState::Done));
        assert_eq!(db.done_tasklets("wf"), 2, "not double counted");
    }

    #[test]
    fn illegal_mark_done_from_lost() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_lost(t).unwrap();
        let err = db.mark_done(t, 10).unwrap_err();
        assert_eq!(err.from, Some(TaskState::Lost));
        assert_eq!(db.unassigned_tasklets("wf"), 2, "tasklets stay returned");
    }

    #[test]
    fn illegal_mark_running_from_done() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_done(t, 10).unwrap();
        let err = db.mark_running(t).unwrap_err();
        assert_eq!(err.from, Some(TaskState::Done));
        assert_eq!(db.attempts(t), 1, "attempt count unchanged");
    }

    #[test]
    fn illegal_mark_running_from_lost() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_lost(t).unwrap();
        assert!(db.mark_running(t).is_err());
        assert_eq!(db.task_state(t), Some(TaskState::Lost));
    }

    #[test]
    fn illegal_mark_lost_from_done() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.mark_done(t, 10).unwrap();
        let err = db.mark_lost(t).unwrap_err();
        assert_eq!(err.from, Some(TaskState::Done));
        assert_eq!(
            db.unassigned_tasklets("wf"),
            0,
            "done tasklets not returned"
        );
    }

    #[test]
    fn transitions_on_unknown_task_rejected() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let ghost = TaskId(404);
        assert_eq!(db.mark_running(ghost).unwrap_err().from, None);
        assert_eq!(db.mark_done(ghost, 1).unwrap_err().from, None);
        assert_eq!(db.mark_lost(ghost).unwrap_err().from, None);
        assert_eq!(db.counters().rejected_transitions, 3);
    }

    #[test]
    fn illegal_transitions_on_withdrawn_task() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 2);
        let t = db.create_task("wf", 2).unwrap();
        db.mark_running(t).unwrap();
        db.record_dead_letter(letter(t.0, Category::Analysis, 2));
        assert_eq!(db.task_state(t), Some(TaskState::Withdrawn));
        assert!(db.mark_running(t).is_err());
        assert!(db.mark_done(t, 1).is_err());
        assert!(db.mark_lost(t).is_err());
    }

    #[test]
    fn merge_group_rejections() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 4);
        let a = db.create_task("wf", 2).unwrap();
        let b = db.create_task("wf", 2).unwrap();
        db.mark_running(a).unwrap();
        db.mark_done(a, 100).unwrap();
        // b not done yet: no output to group.
        assert!(db.create_merge_group(&[(b, 100)]).is_err());
        db.mark_running(b).unwrap();
        db.mark_done(b, 150).unwrap();
        let g = db.create_merge_group(&[(a, 100)]).unwrap();
        // a already claimed by g.
        let err = db.create_merge_group(&[(a, 100)]).unwrap_err();
        assert_eq!(err.task, a);
        // Completing an unknown group is rejected.
        assert!(db
            .mark_merged(Some(TaskId(MERGE_ID_BASE + 77)), &[b], "x.root", 1)
            .is_err());
        db.mark_merged(Some(g), &[a], "m0.root", 100).unwrap();
        // a now merged: cannot merge again, cannot regroup.
        assert!(db.mark_merged(None, &[a], "m1.root", 100).is_err());
        assert!(db.create_merge_group(&[(a, 100)]).is_err());
        // Duplicate merged-file name is rejected.
        assert!(db.mark_merged(None, &[b], "m0.root", 150).is_err());
        db.mark_merged(None, &[b], "m1.root", 150).unwrap();
        std::mem::drop(db);
    }

    // ---- dead letters, accounting, ordering ----------------------------

    #[test]
    fn dead_letter_analysis_withdraws_tasklets() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 6);
        let t = db.create_task("wf", 3).unwrap();
        db.mark_running(t).unwrap();
        db.record_dead_letter(letter(t.0, Category::Analysis, 3));
        assert_eq!(db.dead_tasklets("wf"), 3);
        assert_eq!(db.done_tasklets("wf"), 0);
        assert_eq!(db.dead_letters().len(), 1);
        assert_eq!(db.accounting().dead_lettered, 1);
        // Withdrawn tasklets are NOT returned to the pool.
        assert_eq!(db.unassigned_tasklets("wf"), 3);
    }

    #[test]
    fn dead_letter_merge_withdraws_inputs() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 4);
        let a = db.create_task("wf", 2).unwrap();
        let b = db.create_task("wf", 2).unwrap();
        for t in [a, b] {
            db.mark_running(t).unwrap();
            db.mark_done(t, 100).unwrap();
        }
        let g = db.create_merge_group(&[(a, 100), (b, 100)]).unwrap();
        db.record_dead_letter(DeadLetter {
            category: Category::Merge,
            units: 2,
            ..letter(g.0, Category::Merge, 2)
        });
        assert!(db.open_merge_groups().is_empty(), "group dissolved");
        assert!(db.unmerged_outputs().is_empty(), "inputs withdrawn");
        assert!(db.done_order_unmerged().is_empty());
        assert!(db.mark_merged(None, &[a], "m.root", 100).is_err());
    }

    #[test]
    fn accounting_and_ledger_survive_recovery() {
        let path = tmp_path("acct");
        let (acct_json, letters) = {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 8);
            let t = db.create_task("wf", 4).unwrap();
            db.mark_running(t).unwrap();
            db.record_attempt(&report(t.0, false));
            db.record_backoff(SimDuration::from_mins(15));
            db.mark_running(t).unwrap();
            db.record_attempt(&report(t.0, true));
            db.mark_done(t, 1000).unwrap();
            let u = db.create_task("wf", 4).unwrap();
            db.mark_running(u).unwrap();
            db.record_dead_letter(letter(u.0, Category::Analysis, 4));
            (
                serde_json::to_string(db.accounting()).unwrap(),
                db.dead_letters().to_vec(),
            )
        };
        let mut db = LobsterDb::recover(&path).unwrap();
        assert_eq!(serde_json::to_string(db.accounting()).unwrap(), acct_json);
        assert_eq!(db.dead_letters(), letters.as_slice());
        assert_eq!(db.counters().tasks_failed, 1);
        assert_eq!(db.dead_tasklets("wf"), 4);
        assert_eq!(db.take_replayed_attempts().len(), 2);
        cleanup(&path);
    }

    #[test]
    fn done_order_unmerged_is_finish_order() {
        let mut db = LobsterDb::in_memory();
        db.register_workflow("wf", 6);
        let a = db.create_task("wf", 2).unwrap();
        let b = db.create_task("wf", 2).unwrap();
        let c = db.create_task("wf", 2).unwrap();
        for t in [a, b, c] {
            db.mark_running(t).unwrap();
        }
        // Finish out of id order: c, a, b.
        db.mark_done(c, 30).unwrap();
        db.mark_done(a, 10).unwrap();
        db.mark_done(b, 20).unwrap();
        assert_eq!(db.done_order_unmerged(), vec![(c, 30), (a, 10), (b, 20)]);
        // unmerged_outputs stays id-sorted.
        assert_eq!(db.unmerged_outputs(), vec![(a, 10), (b, 20), (c, 30)]);
    }

    #[test]
    fn merge_numbering_continues_after_recovery() {
        let path = tmp_path("merge-num");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 4);
            let a = db.create_task("wf", 2).unwrap();
            db.mark_running(a).unwrap();
            db.mark_done(a, 100).unwrap();
            let g = db.create_merge_group(&[(a, 100)]).unwrap();
            assert_eq!(g, TaskId(MERGE_ID_BASE));
        }
        {
            let mut db = LobsterDb::open(&path).unwrap();
            // The open group survived the crash.
            assert_eq!(db.open_merge_groups().len(), 1);
            let b = db.create_task("wf", 2).unwrap();
            db.mark_running(b).unwrap();
            db.mark_done(b, 150).unwrap();
            let g2 = db.create_merge_group(&[(b, 150)]).unwrap();
            assert_eq!(g2, TaskId(MERGE_ID_BASE + 1), "merge ids continue");
        }
        cleanup(&path);
    }

    // ---- sharding -------------------------------------------------------

    #[test]
    fn journal_shards_per_workflow() {
        let path = tmp_path("shards");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("alpha", 4);
            db.register_workflow("beta", 4);
            let a = db.create_task("alpha", 2).unwrap();
            let b = db.create_task("beta", 2).unwrap();
            for t in [a, b] {
                db.mark_running(t).unwrap();
                db.mark_done(t, 100).unwrap();
            }
            db.mark_merged(None, &[a, b], "m.root", 200).unwrap();
        }
        // One file per workflow plus master.
        assert!(shard_file(&path, 0).is_file());
        assert!(shard_file(&path, 1).is_file());
        assert!(master_file(&path).is_file());
        let hdr = HEADER_LEN as u64;
        let size = |p: &Path| std::fs::metadata(p).unwrap().len();
        assert!(size(&shard_file(&path, 0)) > hdr, "alpha records routed");
        assert!(size(&shard_file(&path, 1)) > hdr, "beta records routed");
        assert!(size(&master_file(&path)) > hdr, "merge routed to master");
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.done_tasklets("alpha"), 2);
        assert_eq!(db.done_tasklets("beta"), 2);
        assert_eq!(db.merged_files(), vec![("m.root".into(), 200)]);
        cleanup(&path);
    }

    /// `done_seq` reconstructs the *global* finish order across shard
    /// files, which individually only know their own completions.
    #[test]
    fn cross_shard_finish_order_survives_recovery() {
        let path = tmp_path("cross-order");
        let live_order;
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("alpha", 4);
            db.register_workflow("beta", 4);
            let a0 = db.create_task("alpha", 2).unwrap();
            let b0 = db.create_task("beta", 2).unwrap();
            let a1 = db.create_task("alpha", 2).unwrap();
            let b1 = db.create_task("beta", 2).unwrap();
            for t in [a0, b0, a1, b1] {
                db.mark_running(t).unwrap();
            }
            // Interleave finishes across the two shards.
            db.mark_done(b0, 20).unwrap();
            db.mark_done(a1, 30).unwrap();
            db.mark_done(a0, 10).unwrap();
            db.mark_done(b1, 40).unwrap();
            live_order = db.done_order_unmerged();
            assert_eq!(live_order, vec![(b0, 20), (a1, 30), (a0, 10), (b1, 40)]);
        }
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.done_order_unmerged(), live_order);
        // And through a compacted journal (order now lives in the
        // per-shard snapshot `done_seq`s).
        let mut db = LobsterDb::open(&path).unwrap();
        db.compact().unwrap();
        drop(db);
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.done_order_unmerged(), live_order);
        cleanup(&path);
    }

    /// A master record depending on a shard record that no shard holds
    /// (here: a merge group whose input's `TaskDone` was torn away) is a
    /// causality violation no real crash can produce — the commit
    /// protocol writes shards before master. Recovery must fail hard.
    #[test]
    fn dangling_merge_reference_fails_hard() {
        let path = tmp_path("dangling");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 4);
            let t = db.create_task("wf", 2).unwrap();
            db.mark_running(t).unwrap();
            db.mark_done(t, 100).unwrap();
            db.create_merge_group(&[(t, 100)]).unwrap();
        }
        // Tear the shard's final frame (the TaskDone) — a legitimate
        // torn tail on its own, but master.wal still holds MergeCreated.
        let shard = shard_file(&path, 0);
        let len = std::fs::metadata(&shard).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&shard)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        for res in [LobsterDb::recover(&path), LobsterDb::open(&path)] {
            let err = res.expect_err("dangling reference must fail");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("causality"), "{err}");
        }
        cleanup(&path);
    }

    // ---- group commit ---------------------------------------------------

    #[test]
    fn group_commit_buffers_until_flush() {
        let path = tmp_path("gc-buffer");
        let mut db = LobsterDb::open_with_policy(&path, &group_policy(1000, u64::MAX)).unwrap();
        db.register_workflow("wf", 8);
        let t = db.create_task("wf", 4).unwrap();
        db.mark_running(t).unwrap();
        // Nothing committed yet: a reader sees an empty journal.
        let cold = LobsterDb::recover(&path).unwrap();
        assert_eq!(cold.workflow_count(), 0, "window not yet durable");
        db.flush();
        let cold = LobsterDb::recover(&path).unwrap();
        assert_eq!(cold.workflow_count(), 1);
        assert_eq!(cold.task_state(t), Some(TaskState::Running));
        drop(db);
        cleanup(&path);
    }

    #[test]
    fn record_threshold_commits_the_group() {
        let path = tmp_path("gc-records");
        let mut db = LobsterDb::open_with_policy(&path, &group_policy(4, u64::MAX)).unwrap();
        db.register_workflow("wf", 8); // 1
        let t0 = db.create_task("wf", 2).unwrap(); // 2
        let t1 = db.create_task("wf", 2).unwrap(); // 3
        db.mark_running(t0).unwrap(); // 4 → commit
        db.mark_running(t1).unwrap(); // 5, buffered
        let cold = LobsterDb::recover(&path).unwrap();
        assert_eq!(cold.task_state(t0), Some(TaskState::Running));
        assert_eq!(cold.task_state(t1), Some(TaskState::Ready), "5th buffered");
        drop(db); // Drop commits the open window best-effort.
        let cold = LobsterDb::recover(&path).unwrap();
        assert_eq!(cold.task_state(t1), Some(TaskState::Running));
        cleanup(&path);
    }

    #[test]
    fn byte_threshold_commits_the_group() {
        let path = tmp_path("gc-bytes");
        let mut db = LobsterDb::open_with_policy(&path, &group_policy(u64::MAX, 64)).unwrap();
        db.register_workflow("wf", 64);
        for _ in 0..20 {
            let t = db.create_task("wf", 1).unwrap();
            db.mark_running(t).unwrap();
            db.mark_done(t, 10).unwrap();
        }
        // 60 records at a 64-byte threshold: all but the last partial
        // window (< 64 bytes ≈ a handful of compact v3 records) must be
        // durable without an explicit flush.
        let cold = LobsterDb::recover(&path).unwrap();
        assert!(
            cold.counters().tasks_completed >= 12,
            "byte threshold fired (got {})",
            cold.counters().tasks_completed
        );
        drop(db);
        cleanup(&path);
    }

    #[test]
    fn crash_inside_commit_window_loses_only_the_window() {
        let path = tmp_path("gc-crash");
        let t0;
        {
            let mut db = LobsterDb::open_with_policy(&path, &group_policy(1000, u64::MAX)).unwrap();
            db.register_workflow("wf", 8);
            t0 = db.create_task("wf", 4).unwrap();
            db.mark_running(t0).unwrap();
            db.flush(); // durability boundary
            let t1 = db.create_task("wf", 4).unwrap();
            db.mark_running(t1).unwrap();
            db.mark_done(t1, 500).unwrap();
            db.crash(); // the open window dies with the process
        }
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(
            db.task_state(t0),
            Some(TaskState::Running),
            "flushed prefix"
        );
        assert_eq!(db.task_count(), 1, "window after flush lost as a group");
        assert_eq!(db.counters().tasks_completed, 0);
        // The journal is reusable: reopen and continue.
        let mut db = LobsterDb::open(&path).unwrap();
        let t1 = db.create_task("wf", 4).unwrap();
        assert_eq!(t1, TaskId(1));
        drop(db);
        cleanup(&path);
    }

    /// One commit group is one frame: tearing any byte off a committed
    /// batch drops the *whole* group, never a prefix of it.
    #[test]
    fn torn_batch_frame_drops_whole_group() {
        let path = tmp_path("gc-torn");
        {
            let mut db = LobsterDb::open_with_policy(&path, &group_policy(3, u64::MAX)).unwrap();
            db.register_workflow("wf", 8); // |
            let t = db.create_task("wf", 4).unwrap(); // | batch 1 (3 records)
            db.mark_running(t).unwrap(); // | → committed
            db.flush();
        }
        let shard = shard_file(&path, 0);
        let full = std::fs::read(&shard).unwrap();
        std::fs::write(&shard, &full[..full.len() - 1]).unwrap();
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.workflow_count(), 0, "whole commit group dropped");
        assert_eq!(db.task_count(), 0);
        cleanup(&path);
    }

    // ---- records_since_snapshot determinism (satellite 2) ---------------

    /// The compaction boundary must be a function of the journaled record
    /// stream alone: a master that crashed and resumed mid-run compacts
    /// at the identical record index as one that ran straight through.
    #[test]
    fn records_since_snapshot_deterministic_across_resume() {
        let straight_path = tmp_path("rss-straight");
        let resumed_path = tmp_path("rss-resumed");
        let policy = JournalPolicy {
            snapshot_every_records: Some(7),
            ..JournalPolicy::never()
        };
        let run = |db: &mut LobsterDb, from: u64, to: u64, trace: &mut Vec<u64>| {
            for _ in from..to {
                let t = db.create_task("wf", 1).unwrap();
                db.mark_running(t).unwrap();
                db.mark_done(t, 10).unwrap();
                trace.push(db.records_since_snapshot());
            }
        };
        let mut straight = Vec::new();
        {
            let mut db = LobsterDb::open_with_policy(&straight_path, &policy).unwrap();
            db.register_workflow("wf", 64);
            run(&mut db, 0, 12, &mut straight);
        }
        let mut resumed = Vec::new();
        {
            let mut db = LobsterDb::open_with_policy(&resumed_path, &policy).unwrap();
            db.register_workflow("wf", 64);
            run(&mut db, 0, 5, &mut resumed);
        } // crash
        {
            let mut db = LobsterDb::open_with_policy(&resumed_path, &policy).unwrap();
            assert_eq!(
                db.records_since_snapshot(),
                straight[4],
                "replay rebuilds the same tail length"
            );
            run(&mut db, 5, 12, &mut resumed);
        }
        assert_eq!(resumed, straight, "compaction boundaries identical");
        cleanup(&straight_path);
        cleanup(&resumed_path);
    }

    /// A crash can land after the record that crosses the snapshot
    /// threshold but before its compaction; reopening under the policy
    /// finishes the compaction so the tail never exceeds the threshold.
    #[test]
    fn open_finishes_overdue_compaction() {
        let path = tmp_path("rss-overdue");
        {
            // No auto-compaction: build a 3×12-record tail.
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 64);
            for _ in 0..12 {
                let t = db.create_task("wf", 1).unwrap();
                db.mark_running(t).unwrap();
                db.mark_done(t, 10).unwrap();
            }
            assert!(db.records_since_snapshot() >= 36);
        }
        let policy = JournalPolicy {
            snapshot_every_records: Some(5),
            ..JournalPolicy::never()
        };
        let db = LobsterDb::open_with_policy(&path, &policy).unwrap();
        assert_eq!(
            db.records_since_snapshot(),
            0,
            "overdue tails compacted at open"
        );
        drop(db);
        let db = LobsterDb::recover(&path).unwrap();
        assert_eq!(db.counters().tasks_completed, 12);
        cleanup(&path);
    }

    // ---- replay of CRC-valid contradictions -----------------------------

    /// `recs` as the one intact frame of file `file` in a fresh journal:
    /// CRC-valid and decodable, so every record reaches replay. Both
    /// `recover` and `open` must refuse it with `InvalidData` naming `why`.
    fn assert_replay_refuses(file: u32, recs: &[Record], why: &str) {
        let path = tmp_path("contradiction");
        std::fs::create_dir_all(&path).unwrap();
        let mut payload = Vec::new();
        codec::put_u64(&mut payload, recs.len() as u64);
        for rec in recs {
            codec::encode_record(&mut payload, rec);
        }
        let mut bytes = v3_header(file).to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(path.join(journal::file_name(file)), bytes).unwrap();
        for res in [LobsterDb::recover(&path), LobsterDb::open(&path)] {
            let err = res.expect_err(why);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}: {err}");
            assert!(err.to_string().contains(why), "{why}: {err}");
        }
        cleanup(&path);
    }

    /// Workflow 0's shard snapshot, 8 tasklets, task 0 running over
    /// tasklets 0 and 1, edited by `edit`.
    fn snap(edit: impl FnOnce(&mut ShardSnap)) -> Record {
        let task = TaskSnap {
            id: TaskId(0),
            tasklets: Claim::from(vec![0, 1]),
            state: TaskState::Running,
            attempts: 1,
        };
        let mut s = ShardSnap {
            wf: 0,
            name: "wf".into(),
            total: 8,
            cursor: 2,
            returned: vec![],
            done: 0,
            dead: 0,
            tasks: vec![task],
            outputs: vec![],
            dead_letters: vec![],
        };
        edit(&mut s);
        Record::ShardSnapshot { state: Box::new(s) }
    }

    /// An empty master snapshot, edited by `edit`.
    fn master_snap(edit: impl FnOnce(&mut MasterSnap)) -> Record {
        let mut m = MasterSnap::default();
        edit(&mut m);
        Record::MasterSnapshot { state: Box::new(m) }
    }

    /// Each journal holds one record that contradicts the state replayed
    /// before it. Replay refuses it instead of panicking in `apply`,
    /// wrapping a counter, or sizing the task table from a corrupt id.
    #[test]
    fn replay_refuses_contradicting_records() {
        use Record as R;
        let wf = |wf: u32| R::Workflow {
            wf,
            name: "wf".into(),
            tasklets: 8,
        };
        let new = |id: u64, wf: u32, t: u64| R::TaskCreated {
            id: TaskId(id),
            wf,
            tasklets: Claim::from(vec![t]),
        };
        let run = |id: u64| R::TaskRunning { id: TaskId(id) };
        let done = || R::TaskDone {
            id: TaskId(0),
            output_bytes: 1,
            done_seq: 0,
        };
        let merged = |outputs: Vec<TaskId>| R::Merged {
            task: None,
            outputs,
            into: "m.root".into(),
            bytes: 1,
        };
        let dead = R::DeadLettered {
            letter: Box::new(letter(0, Category::Analysis, 2)),
            seq: 0,
        };
        let attempt = R::Attempt {
            report: Box::new(report(0, false)),
        };
        let backoff = R::Backoff {
            wait: SimDuration::ZERO,
        };
        let merge = R::MergeCreated {
            id: TaskId(5),
            inputs: vec![],
        };
        let orphan = OutputSnap {
            task: TaskId(3),
            bytes: 1,
            done_seq: 0,
        };
        let orphaned = snap(|s| s.outputs.push(orphan));
        let group = (TaskId(MERGE_ID_BASE), vec![(TaskId(0), 1)]);
        let dangling = master_snap(|s| s.merge_groups.push(group));
        let max = u64::MAX;
        let all_done = snap(|s| s.done = max);
        let all_dead = snap(|s| s.dead = max);
        let tired = snap(|s| s.tasks[0].attempts = u32::MAX);
        let all_merged = master_snap(|s| s.merges_completed = max);
        let all_failed = master_snap(|s| s.tasks_failed = max);
        let m = MASTER_TAG;
        let cases = [
            (0, vec![run(5)], "task#5 has no task row"),
            (0, vec![new(0, 7, 0)], "unknown workflow index 7"),
            (0, vec![wf(1)], "index 1 registered where 0"),
            (0, vec![wf(0), new(0, 0, 0), done()], "leave Ready"),
            (0, vec![wf(0), new(0, 0, 0), new(0, 0, 1)], "twice"),
            (0, vec![wf(0), new(0, 0, 8)], "tasklet 8 outside"),
            (0, vec![wf(0), backoff], "belongs in master.wal"),
            (0, vec![snap(|s| s.cursor = 9)], "cursor 9 past 8"),
            (0, vec![orphaned], "output of task#3 has no task row"),
            (m, vec![merge], "merge id 5 below"),
            (m, vec![dangling], "causality"),
            (m, vec![merged(vec![TaskId(0)])], "task#0 has no output row"),
        ];
        for (file, recs, why) in cases {
            assert_replay_refuses(file, &recs, why);
        }
        let overflows = [
            (0, vec![all_done, done()], "done tasklet count"),
            (0, vec![all_dead, dead], "dead tasklet count"),
            (0, vec![tired, run(0)], "task#0 attempt count"),
            (m, vec![all_merged, merged(vec![])], "merge count"),
            (m, vec![all_failed, attempt], "failure count"),
        ];
        for (file, recs, what) in overflows {
            assert_replay_refuses(file, &recs, &format!("{what} overflows"));
        }
        // An id at or past the merge base, or far past the task rows the
        // journal holds (here one), would size the dense task table.
        for id in [max - 1, MERGE_ID_BASE, MERGE_ID_BASE - 1, TASK_ID_SLACK + 2] {
            let why = format!("task id {id} outside the journal's range");
            assert_replay_refuses(0, &[wf(0), new(id, 0, 0)], &why);
        }
    }

    /// A commit torn between two shard files keeps the first shard's new
    /// tasks and loses the second's, leaving a legitimate gap in the task
    /// ids. Replay accepts it, and the next task continues past the gap.
    #[test]
    fn torn_commit_between_shards_leaves_an_id_gap() {
        let path = tmp_path("id-gap");
        {
            let mut db = LobsterDb::open_with_policy(&path, &group_policy(1000, u64::MAX)).unwrap();
            db.register_workflow("alpha", 4);
            db.register_workflow("beta", 4);
            db.flush();
            for wf in ["alpha", "beta", "alpha"] {
                db.create_task(wf, 2).unwrap(); // ids 0, 1, 2 in one group
            }
        }
        let beta = shard_file(&path, 1);
        let len = std::fs::metadata(&beta).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&beta).unwrap();
        f.set_len(len - 1).unwrap(); // the group's beta frame is torn
        let mut db = LobsterDb::open(&path).unwrap();
        assert_eq!(db.ready_tasks(), vec![TaskId(0), TaskId(2)]);
        assert_eq!(db.create_task("beta", 2), Some(TaskId(3)));
        drop(db);
        cleanup(&path);
    }

    /// A small journal with every record kind, batch frames and snapshot
    /// frames, across two shards and `master.wal`.
    fn bit_flip_fixture(path: &Path) {
        let mut db = LobsterDb::open_with_policy(path, &group_policy(3, u64::MAX)).unwrap();
        db.register_workflow("alpha", 8);
        db.register_workflow("beta", 6);
        let mut done = Vec::new();
        for wf in ["alpha", "beta", "alpha", "beta"] {
            let t = db.create_task(wf, 2).unwrap();
            db.mark_running(t).unwrap();
            db.record_attempt(&report(t.0, true));
            db.mark_done(t, 100 + t.0).unwrap();
            done.push((t, 100 + t.0));
        }
        let g = db.create_merge_group(&done[..2]).unwrap();
        db.mark_merged(Some(g), &[done[0].0, done[1].0], "m0.root", 201)
            .unwrap();
        db.compact().unwrap();
        let lost = db.create_task("alpha", 2).unwrap();
        db.mark_running(lost).unwrap();
        db.record_attempt(&report(lost.0, false));
        db.mark_lost(lost).unwrap();
        db.record_backoff(SimDuration::from_mins(5));
        let dead = db.create_task("beta", 2).unwrap();
        db.mark_running(dead).unwrap();
        db.record_dead_letter(letter(dead.0, Category::Analysis, 2));
        let g = db.create_merge_group(&done[2..]).unwrap();
        db.record_dead_letter(letter(g.0, Category::Merge, 2));
        db.flush();
    }

    /// Flip one to three bits in one frame's payload of a real journal and
    /// reseal the frame's CRC, so the frame reaches the decoder and, when
    /// it decodes, replay. Recovery must return `Ok` or `InvalidData`,
    /// never panic. Deterministic: case `i` draws from the shim's
    /// generator for case `i`, over a fixed number of cases.
    #[test]
    fn bit_flips_in_crc_valid_frames_never_panic() {
        const CASES: u64 = 256;
        let path = tmp_path("flip");
        bit_flip_fixture(&path);
        let mut files: Vec<PathBuf> = std::fs::read_dir(&path)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert_eq!(files.len(), 3, "two shards and master.wal");
        let (mut ok, mut refused) = (0, 0);
        for case in 0..CASES {
            let mut rng = proptest::TestRng::for_case(case);
            let file = &files[rng.below(files.len() as u64) as usize];
            let intact = std::fs::read(file).unwrap();
            // `(payload start, payload end)` of every frame.
            let mut frames = Vec::new();
            let mut pos = HEADER_LEN;
            while pos < intact.len() {
                let len = u32::from_le_bytes(intact[pos..pos + 4].try_into().unwrap()) as usize;
                pos += FRAME_HEADER_LEN;
                frames.push((pos, pos + len));
                pos += len;
            }
            let (start, end) = frames[rng.below(frames.len() as u64) as usize];
            let mut bytes = intact.clone();
            for _ in 0..=rng.below(3) {
                let bit = rng.below(8 * (end - start) as u64);
                bytes[start + (bit / 8) as usize] ^= 1 << (bit % 8);
            }
            let crc = crc32(&bytes[start..end]);
            bytes[start - 4..start].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(file, bytes).unwrap();
            match LobsterDb::recover(&path) {
                Ok(_) => ok += 1,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "case {case}: {e}");
                    refused += 1;
                }
            }
            std::fs::write(file, intact).unwrap();
        }
        assert!(ok > 0 && refused > 0, "{ok} recovered, {refused} refused");
        cleanup(&path);
    }

    // ---- the merge-state column ------------------------------------------

    /// Everything the merge-state column feeds, read off one db.
    type MergeView = (
        Vec<(TaskId, u64)>,
        Vec<(TaskId, u64)>,
        Vec<(TaskId, MergeInputs)>,
        Vec<u8>,
    );

    fn merge_view(db: &LobsterDb) -> MergeView {
        (
            db.unmerged_outputs(),
            db.done_order_unmerged(),
            db.open_merge_groups(),
            db.master_snapshot_file(),
        )
    }

    /// Outputs in every merge state, across two shards, finished out of id
    /// order: free, grouped by an open merge, merged under Hadoop names
    /// that sort out of creation order (`merged_h10` < `merged_h2`),
    /// withdrawn with a dead-lettered merge, and grouped but merged by a
    /// later Hadoop merge while the group stays open. A full replay and a
    /// compact-then-recover both rebuild the same planning views and the
    /// same master snapshot bytes.
    #[test]
    fn merge_state_survives_compaction_and_recovery() {
        let path = tmp_path("merge-state");
        let mut db = LobsterDb::open(&path).unwrap();
        db.register_workflow("a", 64);
        db.register_workflow("b", 64);
        let ids: Vec<TaskId> = (0..24)
            .map(|i| db.create_task(["a", "b"][i % 2], 4).unwrap())
            .collect();
        for id in &ids {
            db.mark_running(*id).unwrap();
        }
        for id in ids.iter().rev() {
            db.mark_done(*id, 100 + id.0).unwrap();
        }
        let out = |i: usize| (ids[i], 100 + ids[i].0);
        // Grouped, open.
        db.create_merge_group(&[out(0), out(1)]).unwrap();
        // Merged under Hadoop names, twelve files.
        for (k, i) in (2..14).enumerate() {
            let name = format!("merged_h{k}.root");
            db.mark_merged(None, &[ids[i]], &name, out(i).1).unwrap();
        }
        // Merged by its own group.
        let g = db.create_merge_group(&[out(14), out(15)]).unwrap();
        db.mark_merged(Some(g), &[ids[14], ids[15]], "merged_g.root", 1)
            .unwrap();
        // Withdrawn.
        let g = db.create_merge_group(&[out(16), out(17)]).unwrap();
        db.record_dead_letter(letter(g.0, Category::Merge, 2));
        // Grouped, then merged outside the group, which stays open.
        db.create_merge_group(&[out(18), out(19)]).unwrap();
        db.mark_merged(None, &[ids[18]], "merged_h12.root", 1)
            .unwrap();
        // 20..24 stay free.
        db.flush();
        let live = merge_view(&db);
        assert_eq!(live.0.len(), 2 + 1 + 4, "grouped, half-merged group, free");
        assert_eq!(
            live.1.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![ids[23], ids[22], ids[21], ids[20]],
            "free outputs in finish order"
        );
        assert_eq!(live.2.len(), 2, "two groups stay open");
        assert_eq!(db.n_merged, 12 + 2 + 1);
        // The backlog count summarises exactly the unmerged outputs.
        let backlog = |db: &LobsterDb| (db.merge_backlog(), db.unmerged_outputs().len());
        assert_eq!(backlog(&db), (7, 7), "live");

        let replayed = LobsterDb::recover(&path).unwrap();
        assert!(merge_view(&replayed) == live, "full replay");
        assert_eq!(backlog(&replayed), (7, 7), "full replay");
        db.compact().unwrap();
        assert_eq!(backlog(&db), (7, 7), "after compaction");
        drop(db);
        let recovered = LobsterDb::recover(&path).unwrap();
        assert!(merge_view(&recovered) == live, "snapshot replay");
        assert_eq!(backlog(&recovered), (7, 7), "snapshot replay");
        // File ids are creation order live but name order after a
        // snapshot install, so the column itself is not compared.
        assert_eq!(recovered.n_merged, replayed.n_merged);
        cleanup(&path);
    }

    /// CRC-valid `master.wal` records whose merge states contradict the
    /// shard rows replayed before them: an output id far past every row
    /// (`1 << 40`), a second group claiming a grouped output, a second
    /// merge of a merged output, and snapshots that name an unknown
    /// output or give one output two states. Replay refuses each with
    /// `InvalidData` before `apply` can size the merge-state column from
    /// the id.
    #[test]
    fn replay_refuses_contradicting_merge_states() {
        let path = tmp_path("merge-refuse");
        {
            let mut db = LobsterDb::open(&path).unwrap();
            db.register_workflow("wf", 4);
            let t = db.create_task("wf", 4).unwrap();
            db.mark_running(t).unwrap();
            db.mark_done(t, 100).unwrap();
        }
        let far = TaskId(1 << 40);
        let group = |n: u64, src: TaskId| Record::MergeCreated {
            id: TaskId(MERGE_ID_BASE + n),
            inputs: vec![(src, 100)],
        };
        let merged = |src: TaskId, into: &str| Record::Merged {
            task: None,
            outputs: vec![src],
            into: into.into(),
            bytes: 100,
        };
        let file = || vec![("m.root".to_string(), 100)];
        let cases = [
            (vec![group(0, far)], "causality"),
            (
                vec![merged(far, "m.root")],
                "task#1099511627776 has no output row",
            ),
            (
                vec![group(0, TaskId(0)), group(1, TaskId(0))],
                "input task#0 is already Grouped",
            ),
            (
                vec![merged(TaskId(0), "m.root"), merged(TaskId(0), "n.root")],
                "task#0 is already Merged(0)",
            ),
            (
                vec![master_snap(|m| {
                    m.merged_files = file();
                    m.merged_outputs = vec![(far, 0)];
                })],
                "merge state of task#1099511627776 has no output row",
            ),
            (
                vec![master_snap(|m| m.withdrawn_outputs = vec![far.0])],
                "has no output row",
            ),
            (
                vec![master_snap(|m| {
                    m.merged_files = file();
                    m.merged_outputs = vec![(TaskId(0), 0)];
                    m.withdrawn_outputs = vec![0];
                })],
                "both Merged(0) and Withdrawn",
            ),
        ];
        let master = master_file(&path);
        let intact = std::fs::read(&master).unwrap();
        for (recs, why) in cases {
            let mut payload = Vec::new();
            codec::put_u64(&mut payload, recs.len() as u64);
            for rec in &recs {
                codec::encode_record(&mut payload, rec);
            }
            let mut bytes = v3_header(MASTER_TAG).to_vec();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            std::fs::write(&master, bytes).unwrap();
            let mut db = LobsterDb::in_memory();
            let scans = journal::scan_dir(&path).unwrap();
            let Err(err) = replay_scans(&mut db, &path, scans) else {
                panic!("{why}: replayed");
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}: {err}");
            assert!(err.to_string().contains(why), "{why}: {err}");
            assert_eq!(db.merge_state.len(), 1, "{why}: the column grew");
            let err = LobsterDb::recover(&path).expect_err(why);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}: {err}");
        }
        // The intact journal still replays.
        std::fs::write(&master, intact).unwrap();
        assert_eq!(
            LobsterDb::recover(&path).unwrap().unmerged_outputs().len(),
            1
        );
        cleanup(&path);
    }
}
