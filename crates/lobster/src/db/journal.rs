//! WAL v3 shard files and group commit.
//!
//! The directory layout and the byte format of a shard file are set out
//! in the [`super`] module docs. This module scans the files, attaches
//! the append handles, buffers commit groups and writes compactions.
//!
//! # Group commit
//!
//! Appends buffer in memory per file and reach disk together at a
//! *commit boundary*: when buffered records/bytes cross the
//! `JournalPolicy` thresholds, on snapshot compaction, at a simulated
//! crash point, and on drop. One batch is one frame, so a crash mid-commit
//! leaves at most a torn final frame in the file being written. Replay
//! drops that frame — the whole commit group on that file — and treats a
//! bad frame anywhere earlier as hard `InvalidData`.
//!
//! # Causal flush order
//!
//! A commit always writes shard files in ascending index order and
//! `master.wal` last. Master records (merge completions, accounting)
//! can depend on shard records (a task finishing); shard records never
//! depend on master records or on other shards. Flushing master last
//! means a crash that tears one file can only lose the *dependent* end
//! of the stream — replay never sees a merge of an output whose
//! `TaskDone` was lost.
//!
//! # Compaction off the simulation thread
//!
//! A compaction rewrites one file as header + one snapshot frame. Only
//! the state-dependent step runs on the simulation thread: encoding the
//! snapshot record from the db rows. [`Journal::compact`] then hands the
//! image to a writer thread that the `Journal` owns (spawned at the first
//! compaction, joined on drop). The writer seals the frame, writes and
//! fsyncs `<file>.waltmp`, and later closes the file handle the rename
//! replaced. It only ever touches bytes; nothing it does feeds the event
//! trace or the db state.
//!
//! Until the rename, commits to that file keep appending to the old file,
//! so every commit stays recoverable exactly as [`Journal::commit`]
//! promises, and the same frames are kept in memory. The rename step runs
//! on the simulation thread: it appends the kept frames to the
//! `.waltmp`, renames it over the live file and swaps the append handle.
//! It runs when the non-blocking poll at the head of every commit finds
//! the writer done, and, waiting for the writer if need be, at every
//! durability boundary: the next compaction, [`Journal::flush`] (a
//! simulated crash flushes after [`Journal::abandon`]) and drop. So the
//! files at each of those points are byte-identical to a synchronous
//! compaction's. A real process death mid-compaction leaves the old file
//! whole, with every committed frame, and at most a stray `.waltmp`,
//! which replay ignores and [`Journal::attach`] removes.

use super::codec::{self, Reader};
use super::{crc32, Record, FRAME_HEADER_LEN, HEADER_LEN, MAGIC, MAX_RECORD_LEN};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::{self, JoinHandle};

/// Format version the v3 writer stamps into every shard header.
pub const V3_VERSION: u32 = 3;

/// The shard tag of `master.wal` (real workflow indices are dense from
/// zero, so the all-ones tag can never collide — and it sorts *after*
/// every shard, which is exactly the flush order the causal contract
/// needs).
pub(crate) const MASTER_TAG: u32 = u32::MAX;

/// Group-commit thresholds (from `JournalPolicy`), in records and bytes
/// buffered across all shard files.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GroupCommit {
    pub records: u64,
    pub bytes: u64,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `master.wal` / `shard-0007.wal`.
pub(super) fn file_name(tag: u32) -> String {
    if tag == MASTER_TAG {
        "master.wal".to_string()
    } else {
        format!("shard-{tag:04}.wal")
    }
}

fn tag_of_name(name: &str) -> Option<u32> {
    if name == "master.wal" {
        return Some(MASTER_TAG);
    }
    let digits = name.strip_prefix("shard-")?.strip_suffix(".wal")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse::<u32>().ok().filter(|&t| t != MASTER_TAG)
}

fn header_bytes(tag: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&V3_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&tag.to_le_bytes());
    h
}

fn read_u32_le(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// Fill in the frame header at `at`: the length and CRC-32 of the
/// payload that runs from the end of the frame header to the end of
/// `buf`.
fn seal_frame(buf: &mut [u8], at: usize) {
    let payload_at = at + FRAME_HEADER_LEN;
    let len = (buf.len() - payload_at) as u32;
    let crc = crc32(&buf[payload_at..]);
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    buf[at + 4..payload_at].copy_from_slice(&crc.to_le_bytes());
}

/// Bytes of a compacted file that precede its snapshot record: the file
/// header, the frame header and the batch count (one record).
pub(crate) const SNAPSHOT_PREFIX_LEN: usize = HEADER_LEN + FRAME_HEADER_LEN + 1;

/// An empty compacted-file image for [`Journal::compact`]: room for the
/// file and frame headers, then the batch count of one. The caller
/// appends one encoded snapshot record; the writer thread fills in the
/// headers.
pub(crate) fn snapshot_buffer(record_capacity: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(SNAPSHOT_PREFIX_LEN + record_capacity);
    buf.resize(HEADER_LEN + FRAME_HEADER_LEN, 0);
    codec::put_u64(&mut buf, 1);
    debug_assert_eq!(buf.len(), SNAPSHOT_PREFIX_LEN);
    buf
}

/// One scanned shard file: its replayable records, the byte offset of
/// the end of the last intact frame, and how many non-snapshot records
/// follow the last snapshot frame (the replay tail length).
pub(crate) struct ScannedFile {
    pub tag: u32,
    pub records: Vec<Record>,
    pub valid_len: u64,
    pub tail_records: u64,
}

/// Scan every shard file of a v3 journal directory, shards in ascending
/// index order and master last — the replay order. Files that are not
/// shard files (including `.waltmp` compaction leftovers) are ignored.
pub(crate) fn scan_dir(dir: &Path) -> io::Result<Vec<ScannedFile>> {
    let mut tags = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(tag) = entry.file_name().to_str().and_then(tag_of_name) {
            tags.push(tag);
        }
    }
    tags.sort_unstable(); // MASTER_TAG = u32::MAX sorts last
    let mut out = Vec::with_capacity(tags.len());
    for tag in tags {
        out.push(scan_file(&dir.join(file_name(tag)), tag)?);
    }
    Ok(out)
}

/// Torn-tail frame walk of one shard file.
fn scan_file(path: &Path, tag: u32) -> io::Result<ScannedFile> {
    let buf = fs::read(path)?;
    let canonical = header_bytes(tag);
    let mut scanned = ScannedFile {
        tag,
        records: Vec::new(),
        valid_len: 0,
        tail_records: 0,
    };
    if buf.is_empty() {
        return Ok(scanned);
    }
    if buf.len() < HEADER_LEN {
        // A crash can tear even the initial header write.
        return if canonical.starts_with(&buf) {
            Ok(scanned)
        } else {
            Err(invalid(format!("unrecognised journal header in {path:?}")))
        };
    }
    if buf[..HEADER_LEN] != canonical {
        return Err(invalid(format!(
            "bad journal header in {path:?} (want magic {MAGIC:?} version {V3_VERSION} shard {tag:#x})"
        )));
    }
    let mut pos = HEADER_LEN;
    while pos < buf.len() {
        if buf.len() - pos < FRAME_HEADER_LEN {
            break; // torn frame header at EOF: interrupted commit
        }
        let len = read_u32_le(&buf, pos) as usize;
        let crc = read_u32_le(&buf, pos + 4);
        let frame_end = pos + FRAME_HEADER_LEN + len;
        if len > MAX_RECORD_LEN as usize {
            if frame_end >= buf.len() {
                break; // garbage length from a torn final frame
            }
            return Err(invalid(format!(
                "oversized journal frame ({len} bytes) in {path:?}"
            )));
        }
        if frame_end > buf.len() {
            break; // frame extends past EOF: interrupted commit
        }
        let payload = &buf[pos + FRAME_HEADER_LEN..frame_end];
        let is_final = frame_end == buf.len();
        if crc32(payload) != crc {
            if is_final {
                break; // corrupt final frame: interrupted commit
            }
            return Err(invalid(format!(
                "journal CRC mismatch at offset {pos} in {path:?}"
            )));
        }
        match decode_batch(payload) {
            Ok(batch) => {
                for rec in batch {
                    if matches!(
                        rec,
                        Record::ShardSnapshot { .. } | Record::MasterSnapshot { .. }
                    ) {
                        scanned.tail_records = 0;
                    } else {
                        scanned.tail_records += 1;
                    }
                    scanned.records.push(rec);
                }
            }
            Err(e) => {
                if is_final {
                    break; // undecodable final frame: interrupted commit
                }
                return Err(invalid(format!(
                    "undecodable journal frame at offset {pos} in {path:?}: {e}"
                )));
            }
        }
        pos = frame_end;
    }
    scanned.valid_len = pos as u64;
    Ok(scanned)
}

/// Decode one batch payload: record-count varint + records, no slack.
fn decode_batch(payload: &[u8]) -> io::Result<Vec<Record>> {
    let mut r = Reader::new(payload);
    let count = r.u64v()?;
    if count > payload.len() as u64 {
        return Err(invalid("batch record count exceeds payload".to_string()));
    }
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        out.push(codec::decode_record(&mut r)?);
    }
    if !r.is_empty() {
        return Err(invalid("trailing bytes after batch".to_string()));
    }
    Ok(out)
}

struct ShardFile {
    file: File,
    /// Encoded records buffered since the last commit.
    buf: Vec<u8>,
    buf_records: u64,
    /// Records appended since the last snapshot frame, buffered or not.
    tail_records: u64,
}

/// Work for the writer thread, done in the order sent.
enum Job {
    /// Seal `image` as `tag`'s compacted file, then write and fsync it at
    /// `tmp`. Answered on [`Writer::done`] with the open handle.
    Compact {
        tag: u32,
        tmp: PathBuf,
        image: Vec<u8>,
    },
    /// Close a handle the rename replaced: for a renamed-over file the
    /// last close is where the filesystem frees the old blocks.
    Close(File),
    /// Run a closure on the writer thread (tests pause, sync with or
    /// kill the writer through this).
    #[cfg(test)]
    Run(Box<dyn FnOnce() + Send>),
}

/// The writer thread and its two channels.
#[derive(Debug)]
struct Writer {
    jobs: Sender<Job>,
    done: Receiver<io::Result<File>>,
    thread: JoinHandle<()>,
}

impl Writer {
    fn spawn() -> io::Result<Writer> {
        let (jobs, todo) = mpsc::channel();
        let (report, done) = mpsc::channel();
        let thread = thread::Builder::new()
            .name("wal-writer".to_string())
            .spawn(move || run_writer(todo, report))?;
        Ok(Writer { jobs, done, thread })
    }
}

/// The writer thread's loop; it ends when the journal drops its sender.
fn run_writer(todo: Receiver<Job>, report: Sender<io::Result<File>>) {
    for job in todo {
        match job {
            Job::Compact {
                tag,
                tmp,
                mut image,
            } => {
                image[..HEADER_LEN].copy_from_slice(&header_bytes(tag));
                seal_frame(&mut image, HEADER_LEN);
                if report.send(write_synced(&tmp, &image)).is_err() {
                    return; // the journal is gone
                }
            }
            Job::Close(file) => drop(file),
            #[cfg(test)]
            Job::Run(f) => f(),
        }
    }
}

/// Create `path`, write `bytes` and fsync; returns the handle, positioned
/// at the end.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<File> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(f)
}

fn writer_gone() -> io::Error {
    io::Error::other("journal writer thread exited")
}

/// A compaction handed to the writer and not yet renamed into place.
struct InFlight {
    tag: u32,
    tmp: PathBuf,
    /// Frames committed to `tag` since the hand-off: already in the old
    /// file, and appended to the `.waltmp` before the rename.
    kept: Vec<u8>,
}

/// The open write side of a v3 journal directory.
#[derive(Debug)]
pub(crate) struct Journal {
    dir: PathBuf,
    files: BTreeMap<u32, ShardFile>,
    pending_records: u64,
    pending_bytes: u64,
    group: GroupCommit,
    /// Spawned at the first compaction.
    writer: Option<Writer>,
    in_flight: Option<InFlight>,
}

impl std::fmt::Debug for ShardFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardFile")
            .field("buf_records", &self.buf_records)
            .field("tail_records", &self.tail_records)
            .finish()
    }
}

impl std::fmt::Debug for InFlight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InFlight")
            .field("tag", &self.tag)
            .field("kept_bytes", &self.kept.len())
            .finish()
    }
}

impl Journal {
    /// Create a fresh journal directory (just `master.wal`; shard files
    /// appear when their workflow registers).
    pub fn create(dir: &Path, group: GroupCommit) -> io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let mut j = Journal {
            dir: dir.to_path_buf(),
            files: BTreeMap::new(),
            pending_records: 0,
            pending_bytes: 0,
            group,
            writer: None,
            in_flight: None,
        };
        j.create_file(MASTER_TAG)?;
        Ok(j)
    }

    /// Attach to an existing directory after [`scan_dir`]: truncate each
    /// torn tail *first* through a dedicated write handle, then open the
    /// append handle — the append side never observes (or re-extends
    /// over) torn bytes. Stray `.waltmp` compaction leftovers are
    /// removed.
    pub fn attach(dir: &Path, scans: &[ScannedFile], group: GroupCommit) -> io::Result<Journal> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if name.to_str().is_some_and(|n| n.ends_with(".waltmp")) {
                fs::remove_file(entry.path())?;
            }
        }
        let mut files = BTreeMap::new();
        for scan in scans {
            let path = dir.join(file_name(scan.tag));
            if scan.valid_len < HEADER_LEN as u64 {
                // Torn header: restart the file from a clean header.
                let mut f = File::create(&path)?;
                f.write_all(&header_bytes(scan.tag))?;
            } else {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.valid_len)?;
            }
            let file = OpenOptions::new().append(true).open(&path)?;
            files.insert(
                scan.tag,
                ShardFile {
                    file,
                    buf: Vec::new(),
                    buf_records: 0,
                    tail_records: scan.tail_records,
                },
            );
        }
        let mut j = Journal {
            dir: dir.to_path_buf(),
            files,
            pending_records: 0,
            pending_bytes: 0,
            group,
            writer: None,
            in_flight: None,
        };
        if !j.files.contains_key(&MASTER_TAG) {
            j.create_file(MASTER_TAG)?;
        }
        Ok(j)
    }

    fn create_file(&mut self, tag: u32) -> io::Result<()> {
        let path = self.dir.join(file_name(tag));
        let mut f = File::create(&path)?;
        f.write_all(&header_bytes(tag))?;
        drop(f);
        let file = OpenOptions::new().append(true).open(&path)?;
        self.files.insert(
            tag,
            ShardFile {
                file,
                buf: Vec::new(),
                buf_records: 0,
                tail_records: 0,
            },
        );
        Ok(())
    }

    /// Buffer one record for `tag` (`encode` appends its bytes), creating
    /// the shard file on first use. Returns `true` when the group-commit
    /// thresholds are crossed and the caller should [`Journal::commit`].
    pub fn append(&mut self, tag: u32, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<bool> {
        if !self.files.contains_key(&tag) {
            self.create_file(tag)?;
        }
        // simlint::allow(no-panic-in-lib): entry inserted just above
        let sf = self.files.get_mut(&tag).expect("shard file exists");
        let before = sf.buf.len();
        encode(&mut sf.buf);
        sf.buf_records += 1;
        sf.tail_records += 1;
        self.pending_records += 1;
        self.pending_bytes += (sf.buf.len() - before) as u64;
        Ok(self.pending_records >= self.group.records || self.pending_bytes >= self.group.bytes)
    }

    /// Flush every buffered batch — shards in ascending order, master
    /// last (the causal order; see the module docs). One batch is one
    /// frame. This is the durability boundary: records are recoverable
    /// after `commit` returns, and lost as a group before it. A finished
    /// compaction is renamed into place first.
    pub fn commit(&mut self) -> io::Result<()> {
        self.settle(false)?;
        for (&tag, sf) in self.files.iter_mut() {
            if sf.buf.is_empty() {
                continue;
            }
            // 10: the longest record-count varint.
            let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + 10 + sf.buf.len());
            frame.resize(FRAME_HEADER_LEN, 0);
            codec::put_u64(&mut frame, sf.buf_records);
            frame.extend_from_slice(&sf.buf);
            seal_frame(&mut frame, 0);
            sf.file.write_all(&frame)?;
            if let Some(flight) = self.in_flight.as_mut().filter(|f| f.tag == tag) {
                flight.kept.extend_from_slice(&frame);
            }
            sf.buf.clear();
            sf.buf_records = 0;
        }
        self.pending_records = 0;
        self.pending_bytes = 0;
        Ok(())
    }

    /// Commit, then finish any compaction in flight, waiting for the
    /// writer: afterwards the files hold exactly what a synchronous
    /// compaction would have left.
    pub fn flush(&mut self) -> io::Result<()> {
        self.commit()?;
        self.settle(true)
    }

    /// Drop every buffered record without writing — the simulated crash
    /// *inside* a group-commit window. The file contents stay exactly at
    /// the last commit boundary (a compaction in flight is finished by
    /// the [`Journal::flush`] that follows).
    pub fn abandon(&mut self) {
        for sf in self.files.values_mut() {
            sf.tail_records -= sf.buf_records;
            sf.buf.clear();
            sf.buf_records = 0;
        }
        self.pending_records = 0;
        self.pending_bytes = 0;
    }

    /// Rewrite one shard file as header + a single snapshot frame. `file`
    /// is a [`snapshot_buffer`] with one encoded snapshot record appended;
    /// the writer thread fills in the headers and writes and fsyncs it as
    /// a `.waltmp`, and a later commit or boundary renames it over the
    /// live file (see the module docs). Commits all pending buffers and
    /// finishes the previous compaction first: a snapshot is a durability
    /// boundary, and the master snapshot's state may depend on shard
    /// records that were still buffered.
    pub fn compact(&mut self, tag: u32, file: Vec<u8>) -> io::Result<()> {
        self.commit()?;
        self.settle(true)?;
        if !self.files.contains_key(&tag) {
            self.create_file(tag)?;
        }
        let tmp = self.dir.join(format!("{}.waltmp", file_name(tag)));
        self.send(Job::Compact {
            tag,
            tmp: tmp.clone(),
            image: file,
        })?;
        self.in_flight = Some(InFlight {
            tag,
            tmp,
            kept: Vec::new(),
        });
        // simlint::allow(no-panic-in-lib): entry ensured above
        let sf = self.files.get_mut(&tag).expect("shard file exists");
        sf.tail_records = 0;
        Ok(())
    }

    /// Hand `job` to the writer thread, spawning it on first use.
    fn send(&mut self, job: Job) -> io::Result<()> {
        let writer = match &mut self.writer {
            Some(w) => w,
            none => none.insert(Writer::spawn()?),
        };
        writer.jobs.send(job).map_err(|_| writer_gone())
    }

    /// The rename step of the compaction in flight, if any: once the
    /// writer has written the `.waltmp` (waiting for it when `block`,
    /// otherwise returning at once if it has not), append the kept frames,
    /// rename it over the live file and make it the append handle. The
    /// replaced handle goes back to the writer to close. A failed write
    /// surfaces here; the old file then stays live with every commit.
    fn settle(&mut self, block: bool) -> io::Result<()> {
        let (Some(flight), Some(writer)) = (self.in_flight.take(), &self.writer) else {
            return Ok(());
        };
        let written = if block {
            writer.done.recv().map_err(|_| writer_gone())
        } else {
            match writer.done.try_recv() {
                Ok(written) => Ok(written),
                Err(TryRecvError::Empty) => {
                    self.in_flight = Some(flight);
                    return Ok(());
                }
                Err(TryRecvError::Disconnected) => Err(writer_gone()),
            }
        };
        let mut file = written??;
        file.write_all(&flight.kept)?;
        fs::rename(&flight.tmp, self.dir.join(file_name(flight.tag)))?;
        let sf = self
            .files
            .get_mut(&flight.tag)
            .ok_or_else(|| io::Error::other("compacted file has no append handle"))?;
        let replaced = std::mem::replace(&mut sf.file, file);
        // Should the writer be gone, the handle just closes here.
        let _ = self.send(Job::Close(replaced));
        Ok(())
    }

    /// Records appended to `tag` since its last snapshot frame
    /// (including any still buffered).
    pub fn tail_records(&self, tag: u32) -> u64 {
        self.files.get(&tag).map_or(0, |sf| sf.tail_records)
    }

    /// Sum of per-file replay tails.
    pub fn total_tail_records(&self) -> u64 {
        self.files.values().map(|sf| sf.tail_records).sum()
    }

    /// Every shard tag with an open file, master included, in flush
    /// order.
    pub fn tags(&self) -> Vec<u32> {
        self.files.keys().copied().collect()
    }
}

impl Drop for Journal {
    /// Finish the compaction in flight, then stop and join the writer.
    /// Errors are ignored: the old file still holds every commit, and the
    /// next [`Journal::attach`] clears a stray `.waltmp`.
    fn drop(&mut self) {
        let _ = self.settle(true);
        if let Some(Writer { jobs, thread, .. }) = self.writer.take() {
            drop(jobs); // ends the writer's loop
            let _ = thread.join();
        }
    }
}

/// Total on-disk size of a journal: the sum of its shard files.
pub fn journal_bytes(path: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(path)? {
        let entry = entry?;
        if entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.ends_with(".wal"))
        {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// The window between a compaction's hand-off and its rename. The writer
/// is parked and released through [`Job::Run`], so each test pins the
/// interleaving it checks.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JournalPolicy;
    use crate::db::LobsterDb;
    use std::panic::{self, AssertUnwindSafe};
    use std::time::Duration;

    /// Long enough that only a hang reaches it.
    const PATIENCE: Duration = Duration::from_secs(60);

    /// A fresh journal directory path.
    fn tmp_dir(name: &str) -> PathBuf {
        let parent = std::env::temp_dir().join("lobster-journal-test");
        fs::create_dir_all(&parent).unwrap();
        let dir = parent.join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Every record commits at once; a file compacts every 8 records.
    fn policy() -> JournalPolicy {
        JournalPolicy {
            snapshot_every_records: Some(8),
            ..JournalPolicy::never()
        }
    }

    fn journal(db: &mut LobsterDb) -> &mut Journal {
        db.journal.as_mut().unwrap()
    }

    /// Park the writer until the returned sender drops; it then runs
    /// `then` and goes on with its queue.
    fn park_writer(db: &mut LobsterDb, then: fn()) -> Sender<()> {
        let (release, parked) = mpsc::channel::<()>();
        let park = move || {
            let _ = parked.recv_timeout(PATIENCE);
            then();
        };
        journal(db).send(Job::Run(Box::new(park))).unwrap();
        release
    }

    /// Wait until the writer has done every job sent so far.
    fn drain_writer(db: &mut LobsterDb) {
        let (tx, rx) = mpsc::channel();
        let ping = move || tx.send(()).unwrap();
        journal(db).send(Job::Run(Box::new(ping))).unwrap();
        rx.recv_timeout(PATIENCE).unwrap();
    }

    /// Create and start tasks until shard 0's compaction is handed off.
    fn run_to_compaction(db: &mut LobsterDb) {
        for _ in 0..8 {
            let t = db.create_task("wf", 1).unwrap();
            if journal(db).in_flight.is_some() {
                return;
            }
            db.mark_running(t).unwrap();
            if journal(db).in_flight.is_some() {
                return;
            }
        }
        panic!("no compaction after 16 records");
    }

    /// Commit two more tasks (four records) to shard 0.
    fn more_commits(db: &mut LobsterDb) {
        for _ in 0..2 {
            let t = db.create_task("wf", 1).unwrap();
            db.mark_running(t).unwrap();
        }
    }

    /// The whole db state, as its snapshot records.
    fn state(db: &mut LobsterDb) -> (Vec<u8>, Vec<u8>) {
        (db.shard_snapshot_file(0), db.master_snapshot_file())
    }

    fn copy_dir(from: &Path, to: &Path) {
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        }
    }

    /// Run `body` on its own thread; fail if it does not end in time.
    /// Returns the message it panicked with, if it did.
    fn without_hang(body: impl FnOnce() + Send + 'static) -> Option<String> {
        let (tx, rx) = mpsc::channel();
        let thread = thread::spawn(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(body));
            tx.send(outcome.err().map(panic_message)).unwrap();
        });
        let outcome = rx.recv_timeout(PATIENCE).expect("the run hung");
        thread.join().unwrap();
        outcome
    }

    /// A copy of the directory taken while a compaction is in flight,
    /// after further commits to the compacting file, recovers exactly
    /// the committed state: before the writer starts (no `.waltmp`) and
    /// after it wrote the `.waltmp` but before the rename (a stray).
    #[test]
    fn copy_mid_compaction_recovers_every_commit() {
        let dir = tmp_dir("in-flight-copy");
        let copies = [
            tmp_dir("in-flight-unwritten"),
            tmp_dir("in-flight-unrenamed"),
        ];
        let stray = |d: &Path| d.join("shard-0000.wal.waltmp");
        let mut db = LobsterDb::open_with_policy(&dir, &policy()).unwrap();
        db.register_workflow("wf", 64);
        let release = park_writer(&mut db, || {});
        run_to_compaction(&mut db);
        more_commits(&mut db);
        let flight = journal(&mut db).in_flight.as_ref().unwrap();
        assert_eq!(flight.tag, 0);
        assert!(!flight.kept.is_empty(), "commits landed mid-compaction");
        assert!(!stray(&dir).exists());
        copy_dir(&dir, &copies[0]);
        drop(release);
        drain_writer(&mut db);
        assert!(stray(&dir).exists(), "written, not yet renamed");
        assert!(journal(&mut db).in_flight.is_some());
        copy_dir(&dir, &copies[1]);

        let want = state(&mut db);
        for copy in &copies {
            let mut got = LobsterDb::recover(copy).unwrap();
            assert_eq!(state(&mut got), want, "{copy:?}");
            assert_eq!(got.records_since_snapshot(), 0, "recover attaches nothing");
            let mut reopened = LobsterDb::open_with_policy(copy, &policy()).unwrap();
            assert_eq!(state(&mut reopened), want, "{copy:?}");
            drop(reopened);
            assert!(!stray(copy).exists(), "reopen clears the stray");
            let _ = fs::remove_dir_all(copy);
        }
        drop(db);
        let _ = fs::remove_dir_all(&dir);
    }

    /// After `flush` the compacted file is the header, the snapshot frame
    /// of the state at the hand-off, then every frame committed since —
    /// the bytes a synchronous compaction leaves.
    #[test]
    fn flush_lands_snapshot_then_frames_committed_since() {
        let dir = tmp_dir("in-flight-flush");
        let shard = dir.join(file_name(0));
        let mut db = LobsterDb::open_with_policy(&dir, &policy()).unwrap();
        db.register_workflow("wf", 64);
        let release = park_writer(&mut db, || {});
        run_to_compaction(&mut db);
        let handed_off = fs::read(&shard).unwrap().len();
        let mut want = db.shard_snapshot_file(0);
        want[..HEADER_LEN].copy_from_slice(&header_bytes(0));
        seal_frame(&mut want, HEADER_LEN);
        more_commits(&mut db);
        let old = fs::read(&shard).unwrap();
        let since = &old[handed_off..];
        assert!(!since.is_empty());
        assert_eq!(journal(&mut db).in_flight.as_ref().unwrap().kept, since);
        drop(release);
        db.flush();
        want.extend_from_slice(since);
        assert_eq!(fs::read(&shard).unwrap(), want);
        assert!(journal(&mut db).in_flight.is_none());
        assert!(!dir.join("shard-0000.wal.waltmp").exists());
        // Later commits append to the renamed file (six records in its
        // tail: no second compaction).
        db.create_task("wf", 1).unwrap();
        drop(db);
        assert!(fs::read(&shard).unwrap().starts_with(&want));
        let _ = fs::remove_dir_all(&dir);
    }

    /// With the directory gone the writer cannot create the `.waltmp`.
    /// The error surfaces at the next boundary as the fatal journal
    /// error, and dropping the db afterwards does not hang.
    #[test]
    fn failed_compaction_write_is_fatal_at_the_next_boundary() {
        let dir = tmp_dir("in-flight-gone");
        let msg = without_hang(move || {
            let mut db = LobsterDb::open_with_policy(&dir, &policy()).unwrap();
            db.register_workflow("wf", 64);
            fs::remove_dir_all(&dir).unwrap();
            // Commits still land in the unlinked files.
            run_to_compaction(&mut db);
            db.flush();
        });
        let msg = msg.expect("the failed write is fatal");
        assert!(msg.starts_with("journal write"), "{msg}");
        assert!(msg.contains("NotFound"), "{msg}");
    }

    /// A writer that panics mid-compaction makes the next boundary fail
    /// with the fatal journal error instead of waiting forever, and the
    /// drop that follows joins the dead thread.
    #[test]
    fn writer_panic_is_fatal_not_a_hang() {
        let dir = tmp_dir("in-flight-panic");
        let cleanup = dir.clone();
        let msg = without_hang(move || {
            let mut db = LobsterDb::open_with_policy(&dir, &policy()).unwrap();
            db.register_workflow("wf", 64);
            let release = park_writer(&mut db, || panic!("writer thread dies"));
            run_to_compaction(&mut db);
            more_commits(&mut db);
            drop(release);
            db.flush();
        });
        let msg = msg.expect("the dead writer is fatal");
        assert!(msg.starts_with("journal write"), "{msg}");
        assert!(msg.contains("writer thread exited"), "{msg}");
        let _ = fs::remove_dir_all(&cleanup);
    }
}
