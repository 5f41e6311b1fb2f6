//! WAL v3 binary codec.
//!
//! Every record is self-describing — a one-byte tag selects the shape —
//! and encodes its fields as LEB128 varints, zigzag-delta tasklet
//! lists, single-byte closed enums, and raw LE bit patterns for `f64`.
//! Strings are length-prefixed UTF-8. The codec is purely in-memory:
//! framing (length + CRC), batching and torn-tail policy live in
//! [`super::journal`].
//!
//! Decoding is total: every malformed input returns
//! [`io::ErrorKind::InvalidData`], never a panic, so the journal reader
//! can classify a bad final frame as a torn append.

use super::{Claim, MasterSnap, MergeInputs, OutputSnap, Record, ShardSnap, TaskSnap, TaskState};
use crate::monitor::Accounting;
use crate::wrapper::{Segment, SegmentReport};
use simkit::time::{SimDuration, SimTime};
use std::io;
use wqueue::task::{Category, DeadLetter, FailureCode, TaskId, TaskTimes};

/// Record tags. A closed set: decoding an unknown tag is `InvalidData`.
pub(super) mod tag {
    pub const WORKFLOW: u8 = 1;
    pub const TASK_CREATED: u8 = 2;
    pub const TASK_RUNNING: u8 = 3;
    pub const TASK_DONE: u8 = 4;
    pub const TASK_LOST: u8 = 5;
    pub const MERGE_CREATED: u8 = 6;
    pub const MERGED: u8 = 7;
    pub const ATTEMPT: u8 = 8;
    pub const BACKOFF: u8 = 9;
    pub const DEAD_LETTERED: u8 = 10;
    pub const SHARD_SNAPSHOT: u8 = 11;
    pub const MASTER_SNAPSHOT: u8 = 12;
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

// ---- primitive writers -------------------------------------------------

/// LEB128 unsigned varint.
pub(crate) fn put_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

pub(super) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    put_u64(buf, u64::from(v));
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(super) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_time(buf: &mut Vec<u8>, t: SimTime) {
    put_u64(buf, t.as_micros());
}

fn put_dur(buf: &mut Vec<u8>, d: SimDuration) {
    put_u64(buf, d.as_micros());
}

/// Tasklet lists are claimed in ascending order, so consecutive deltas
/// are small non-negatives; zigzag keeps the encoding total for any
/// order all the same.
pub(super) fn put_tasklets(buf: &mut Vec<u8>, ts: impl ExactSizeIterator<Item = u64>) {
    put_u64(buf, ts.len() as u64);
    let mut prev = 0i64;
    for t in ts {
        let v = t as i64;
        put_u64(buf, zigzag(v.wrapping_sub(prev)));
        prev = v;
    }
}

pub(super) fn put_task(buf: &mut Vec<u8>, id: TaskId) {
    put_u64(buf, id.0);
}

// ---- primitive reader --------------------------------------------------

/// Bounds-checked cursor over one frame payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn u8(&mut self) -> io::Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| invalid("truncated record"))?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn u64v(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(invalid("varint overflow"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(invalid("varint too long"));
            }
        }
    }

    fn u32v(&mut self) -> io::Result<u32> {
        u32::try_from(self.u64v()?).map_err(|_| invalid("u32 varint overflow"))
    }

    fn f64(&mut self) -> io::Result<f64> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| invalid("truncated f64"))?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = usize::try_from(self.u64v()?).map_err(|_| invalid("string length"))?;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| invalid("truncated string"))?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| invalid("non-UTF-8 string"))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    fn time(&mut self) -> io::Result<SimTime> {
        Ok(SimTime::from_micros(self.u64v()?))
    }

    fn dur(&mut self) -> io::Result<SimDuration> {
        Ok(SimDuration::from_micros(self.u64v()?))
    }

    /// Decode a zigzag-delta tasklet list, handing each tasklet to `push`.
    fn tasklet_list(&mut self, mut push: impl FnMut(u64)) -> io::Result<()> {
        let n = self.len_of("tasklet list")?;
        let mut prev = 0i64;
        for _ in 0..n {
            prev = prev.wrapping_add(unzigzag(self.u64v()?));
            push(prev as u64);
        }
        Ok(())
    }

    fn tasklets(&mut self) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        self.tasklet_list(|t| out.push(t))?;
        Ok(out)
    }

    /// A tasklet list read straight into its [`Claim`] form, so a run is
    /// never materialised as a list.
    fn claim(&mut self) -> io::Result<Claim> {
        let mut claim = Claim::default();
        self.tasklet_list(|t| claim.push(t))?;
        Ok(claim)
    }

    fn task(&mut self) -> io::Result<TaskId> {
        Ok(TaskId(self.u64v()?))
    }

    /// A collection length, sanity-bounded by the bytes actually left
    /// (every element costs at least one byte) so a corrupt length can't
    /// trigger a huge allocation.
    fn len_of(&mut self, what: &str) -> io::Result<usize> {
        let n = self.u64v()?;
        let left = (self.buf.len() - self.pos) as u64;
        if n > left {
            return Err(invalid(&format!("oversized {what} length")));
        }
        Ok(n as usize)
    }
}

// ---- closed enums ------------------------------------------------------

fn put_state(buf: &mut Vec<u8>, s: TaskState) {
    buf.push(match s {
        TaskState::Ready => 0,
        TaskState::Running => 1,
        TaskState::Done => 2,
        TaskState::Lost => 3,
        TaskState::Withdrawn => 4,
    });
}

fn get_state(r: &mut Reader<'_>) -> io::Result<TaskState> {
    Ok(match r.u8()? {
        0 => TaskState::Ready,
        1 => TaskState::Running,
        2 => TaskState::Done,
        3 => TaskState::Lost,
        4 => TaskState::Withdrawn,
        _ => return Err(invalid("bad TaskState tag")),
    })
}

fn put_category(buf: &mut Vec<u8>, c: Category) {
    buf.push(match c {
        Category::Analysis => 0,
        Category::Merge => 1,
        Category::Simulation => 2,
    });
}

fn get_category(r: &mut Reader<'_>) -> io::Result<Category> {
    Ok(match r.u8()? {
        0 => Category::Analysis,
        1 => Category::Merge,
        2 => Category::Simulation,
        _ => return Err(invalid("bad Category tag")),
    })
}

fn put_segment(buf: &mut Vec<u8>, s: Segment) {
    buf.push(match s {
        Segment::Compatibility => 0,
        Segment::EnvInit => 1,
        Segment::StageIn => 2,
        Segment::Execute => 3,
        Segment::StageOut => 4,
    });
}

fn get_segment(r: &mut Reader<'_>) -> io::Result<Segment> {
    Ok(match r.u8()? {
        0 => Segment::Compatibility,
        1 => Segment::EnvInit,
        2 => Segment::StageIn,
        3 => Segment::Execute,
        4 => Segment::StageOut,
        _ => return Err(invalid("bad Segment tag")),
    })
}

fn put_code(buf: &mut Vec<u8>, c: FailureCode) {
    buf.push(match c {
        FailureCode::Incompatible => 0,
        FailureCode::EnvSetup => 1,
        FailureCode::StageIn => 2,
        FailureCode::AppError => 3,
        FailureCode::StageOut => 4,
        FailureCode::Evicted => 5,
        FailureCode::Cancelled => 6,
    });
}

fn get_code(r: &mut Reader<'_>) -> io::Result<FailureCode> {
    Ok(match r.u8()? {
        0 => FailureCode::Incompatible,
        1 => FailureCode::EnvSetup,
        2 => FailureCode::StageIn,
        3 => FailureCode::AppError,
        4 => FailureCode::StageOut,
        5 => FailureCode::Evicted,
        6 => FailureCode::Cancelled,
        _ => return Err(invalid("bad FailureCode tag")),
    })
}

// ---- composite payloads ------------------------------------------------

fn put_report(buf: &mut Vec<u8>, r: &SegmentReport) {
    put_task(buf, r.task);
    put_category(buf, r.category);
    put_u32(buf, r.attempt);
    put_u64(buf, r.worker);
    put_dur(buf, r.times.queued);
    put_dur(buf, r.times.wq_stage_in);
    put_dur(buf, r.times.env_setup);
    put_dur(buf, r.times.stage_in);
    put_dur(buf, r.times.cpu);
    put_dur(buf, r.times.io_wait);
    put_dur(buf, r.times.stage_out);
    put_dur(buf, r.times.wq_stage_out);
    let flags = u8::from(r.watchdog)
        | (u8::from(r.evicted) << 1)
        | (u8::from(r.failed_segment.is_some()) << 2);
    buf.push(flags);
    if let Some(s) = r.failed_segment {
        put_segment(buf, s);
    }
    put_time(buf, r.dispatched_at);
    put_time(buf, r.finished_at);
    put_u64(buf, r.output_bytes);
}

fn get_report(r: &mut Reader<'_>) -> io::Result<SegmentReport> {
    let task = r.task()?;
    let category = get_category(r)?;
    let attempt = r.u32v()?;
    let worker = r.u64v()?;
    let times = TaskTimes {
        queued: r.dur()?,
        wq_stage_in: r.dur()?,
        env_setup: r.dur()?,
        stage_in: r.dur()?,
        cpu: r.dur()?,
        io_wait: r.dur()?,
        stage_out: r.dur()?,
        wq_stage_out: r.dur()?,
    };
    let flags = r.u8()?;
    if flags & !0b111 != 0 {
        return Err(invalid("bad SegmentReport flags"));
    }
    let failed_segment = if flags & 0b100 != 0 {
        Some(get_segment(r)?)
    } else {
        None
    };
    Ok(SegmentReport {
        task,
        category,
        attempt,
        worker,
        times,
        failed_segment,
        watchdog: flags & 0b001 != 0,
        evicted: flags & 0b010 != 0,
        dispatched_at: r.time()?,
        finished_at: r.time()?,
        output_bytes: r.u64v()?,
    })
}

fn put_letter(buf: &mut Vec<u8>, l: &DeadLetter) {
    put_task(buf, l.task);
    put_category(buf, l.category);
    put_code(buf, l.code);
    put_u32(buf, l.attempts);
    put_u64(buf, l.units);
    put_time(buf, l.at);
}

fn get_letter(r: &mut Reader<'_>) -> io::Result<DeadLetter> {
    Ok(DeadLetter {
        task: r.task()?,
        category: get_category(r)?,
        code: get_code(r)?,
        attempts: r.u32v()?,
        units: r.u64v()?,
        at: r.time()?,
    })
}

pub(super) fn put_accounting(buf: &mut Vec<u8>, a: &Accounting) {
    put_f64(buf, a.cpu);
    put_f64(buf, a.io);
    put_f64(buf, a.failed);
    put_f64(buf, a.wq_stage_in);
    put_f64(buf, a.wq_stage_out);
    put_u64(buf, a.retries);
    put_u64(buf, a.watchdog_aborts);
    put_u64(buf, a.dead_lettered);
    put_f64(buf, a.backoff_hours);
}

fn get_accounting(r: &mut Reader<'_>) -> io::Result<Accounting> {
    Ok(Accounting {
        cpu: r.f64()?,
        io: r.f64()?,
        failed: r.f64()?,
        wq_stage_in: r.f64()?,
        wq_stage_out: r.f64()?,
        retries: r.u64v()?,
        watchdog_aborts: r.u64v()?,
        dead_lettered: r.u64v()?,
        backoff_hours: r.f64()?,
    })
}

pub(super) fn put_inputs(buf: &mut Vec<u8>, inputs: &MergeInputs) {
    put_u64(buf, inputs.len() as u64);
    for (src, bytes) in inputs {
        put_task(buf, *src);
        put_u64(buf, *bytes);
    }
}

fn get_inputs(r: &mut Reader<'_>) -> io::Result<MergeInputs> {
    let n = r.len_of("merge inputs")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.task()?, r.u64v()?));
    }
    Ok(out)
}

/// One task entry of a shard snapshot.
pub(super) fn put_task_entry(
    buf: &mut Vec<u8>,
    id: TaskId,
    tasklets: impl ExactSizeIterator<Item = u64>,
    state: TaskState,
    attempts: u32,
) {
    put_task(buf, id);
    put_tasklets(buf, tasklets);
    put_state(buf, state);
    put_u32(buf, attempts);
}

/// One output entry of a shard snapshot.
pub(super) fn put_output_entry(buf: &mut Vec<u8>, task: TaskId, bytes: u64, done_seq: u64) {
    put_task(buf, task);
    put_u64(buf, bytes);
    put_u64(buf, done_seq);
}

/// One dead-letter ledger entry of a shard or master snapshot.
pub(super) fn put_ledger_entry(buf: &mut Vec<u8>, seq: u64, l: &DeadLetter) {
    put_u64(buf, seq);
    put_letter(buf, l);
}

fn put_shard_snap(buf: &mut Vec<u8>, s: &ShardSnap) {
    put_u32(buf, s.wf);
    put_str(buf, &s.name);
    put_u64(buf, s.total);
    put_u64(buf, s.cursor);
    put_tasklets(buf, s.returned.iter().copied());
    put_u64(buf, s.done);
    put_u64(buf, s.dead);
    put_u64(buf, s.tasks.len() as u64);
    for t in &s.tasks {
        put_task_entry(buf, t.id, t.tasklets.iter(), t.state, t.attempts);
    }
    put_u64(buf, s.outputs.len() as u64);
    for o in &s.outputs {
        put_output_entry(buf, o.task, o.bytes, o.done_seq);
    }
    put_u64(buf, s.dead_letters.len() as u64);
    for (seq, l) in &s.dead_letters {
        put_ledger_entry(buf, *seq, l);
    }
}

fn get_shard_snap(r: &mut Reader<'_>) -> io::Result<ShardSnap> {
    let wf = r.u32v()?;
    let name = r.str()?;
    let total = r.u64v()?;
    let cursor = r.u64v()?;
    let returned = r.tasklets()?;
    let done = r.u64v()?;
    let dead = r.u64v()?;
    let n = r.len_of("shard task list")?;
    let mut tasks = Vec::with_capacity(n);
    for _ in 0..n {
        tasks.push(TaskSnap {
            id: r.task()?,
            tasklets: r.claim()?,
            state: get_state(r)?,
            attempts: r.u32v()?,
        });
    }
    let n = r.len_of("shard output list")?;
    let mut outputs = Vec::with_capacity(n);
    for _ in 0..n {
        outputs.push(OutputSnap {
            task: r.task()?,
            bytes: r.u64v()?,
            done_seq: r.u64v()?,
        });
    }
    let n = r.len_of("shard ledger")?;
    let mut dead_letters = Vec::with_capacity(n);
    for _ in 0..n {
        dead_letters.push((r.u64v()?, get_letter(r)?));
    }
    Ok(ShardSnap {
        wf,
        name,
        total,
        cursor,
        returned,
        done,
        dead,
        tasks,
        outputs,
        dead_letters,
    })
}

fn put_master_snap(buf: &mut Vec<u8>, m: &MasterSnap) {
    put_u64(buf, m.merged_files.len() as u64);
    for (name, bytes) in &m.merged_files {
        put_str(buf, name);
        put_u64(buf, *bytes);
    }
    put_u64(buf, m.merge_groups.len() as u64);
    for (id, inputs) in &m.merge_groups {
        put_u64(buf, id.0);
        put_inputs(buf, inputs);
    }
    // A merged output names its file by index into `merged_files`, not
    // by repeating the string.
    put_u64(buf, m.merged_outputs.len() as u64);
    for (task, file_ix) in &m.merged_outputs {
        put_task(buf, *task);
        put_u32(buf, *file_ix);
    }
    put_tasklets(buf, m.withdrawn_outputs.iter().copied());
    put_u64(buf, m.next_merge);
    put_u64(buf, m.dead_letters.len() as u64);
    for (seq, l) in &m.dead_letters {
        put_ledger_entry(buf, *seq, l);
    }
    put_accounting(buf, &m.accounting);
    put_u64(buf, m.tasks_failed);
    put_u64(buf, m.evictions);
    put_u64(buf, m.merges_completed);
}

fn get_master_snap(r: &mut Reader<'_>) -> io::Result<MasterSnap> {
    let n = r.len_of("merged file list")?;
    let mut merged_files = Vec::with_capacity(n);
    for _ in 0..n {
        merged_files.push((r.str()?, r.u64v()?));
    }
    let n = r.len_of("merge group list")?;
    let mut merge_groups = Vec::with_capacity(n);
    for _ in 0..n {
        merge_groups.push((TaskId(r.u64v()?), get_inputs(r)?));
    }
    let n = r.len_of("merged output list")?;
    let mut merged_outputs = Vec::with_capacity(n);
    for _ in 0..n {
        let task = r.task()?;
        let file_ix = r.u32v()?;
        if file_ix as usize >= merged_files.len() {
            return Err(invalid("merged output names an unknown file index"));
        }
        merged_outputs.push((task, file_ix));
    }
    let withdrawn_outputs = r.tasklets()?;
    let next_merge = r.u64v()?;
    let n = r.len_of("master ledger")?;
    let mut dead_letters = Vec::with_capacity(n);
    for _ in 0..n {
        dead_letters.push((r.u64v()?, get_letter(r)?));
    }
    Ok(MasterSnap {
        merged_files,
        merge_groups,
        merged_outputs,
        withdrawn_outputs,
        next_merge,
        dead_letters,
        accounting: get_accounting(r)?,
        tasks_failed: r.u64v()?,
        evictions: r.u64v()?,
        merges_completed: r.u64v()?,
    })
}

// ---- records -----------------------------------------------------------

/// Append the binary encoding of `rec` to `buf`.
pub(crate) fn encode_record(buf: &mut Vec<u8>, rec: &Record) {
    match rec {
        Record::Workflow { wf, name, tasklets } => {
            buf.push(tag::WORKFLOW);
            put_u32(buf, *wf);
            put_str(buf, name);
            put_u64(buf, *tasklets);
        }
        Record::TaskCreated { id, wf, tasklets } => {
            buf.push(tag::TASK_CREATED);
            put_task(buf, *id);
            put_u32(buf, *wf);
            put_tasklets(buf, tasklets.iter());
        }
        Record::TaskRunning { id } => {
            buf.push(tag::TASK_RUNNING);
            put_task(buf, *id);
        }
        Record::TaskDone {
            id,
            output_bytes,
            done_seq,
        } => {
            buf.push(tag::TASK_DONE);
            put_task(buf, *id);
            put_u64(buf, *output_bytes);
            put_u64(buf, *done_seq);
        }
        Record::TaskLost { id } => {
            buf.push(tag::TASK_LOST);
            put_task(buf, *id);
        }
        Record::MergeCreated { id, inputs } => {
            buf.push(tag::MERGE_CREATED);
            put_u64(buf, id.0);
            put_inputs(buf, inputs);
        }
        Record::Merged {
            task,
            outputs,
            into,
            bytes,
        } => {
            buf.push(tag::MERGED);
            match task {
                Some(t) => {
                    buf.push(1);
                    put_task(buf, *t);
                }
                None => buf.push(0),
            }
            put_u64(buf, outputs.len() as u64);
            for o in outputs {
                put_task(buf, *o);
            }
            put_str(buf, into);
            put_u64(buf, *bytes);
        }
        Record::Attempt { report } => encode_attempt(buf, report),
        Record::Backoff { wait } => {
            buf.push(tag::BACKOFF);
            put_dur(buf, *wait);
        }
        Record::DeadLettered { letter, seq } => {
            buf.push(tag::DEAD_LETTERED);
            put_letter(buf, letter);
            put_u64(buf, *seq);
        }
        Record::ShardSnapshot { state } => {
            buf.push(tag::SHARD_SNAPSHOT);
            put_shard_snap(buf, state);
        }
        Record::MasterSnapshot { state } => {
            buf.push(tag::MASTER_SNAPSHOT);
            put_master_snap(buf, state);
        }
    }
}

/// Append the encoding of `Record::Attempt { report }` without building
/// the record.
pub(crate) fn encode_attempt(buf: &mut Vec<u8>, report: &SegmentReport) {
    buf.push(tag::ATTEMPT);
    put_report(buf, report);
}

/// Decode one record at the reader's position.
pub(crate) fn decode_record(r: &mut Reader<'_>) -> io::Result<Record> {
    Ok(match r.u8()? {
        tag::WORKFLOW => Record::Workflow {
            wf: r.u32v()?,
            name: r.str()?,
            tasklets: r.u64v()?,
        },
        tag::TASK_CREATED => Record::TaskCreated {
            id: r.task()?,
            wf: r.u32v()?,
            tasklets: r.claim()?,
        },
        tag::TASK_RUNNING => Record::TaskRunning { id: r.task()? },
        tag::TASK_DONE => Record::TaskDone {
            id: r.task()?,
            output_bytes: r.u64v()?,
            done_seq: r.u64v()?,
        },
        tag::TASK_LOST => Record::TaskLost { id: r.task()? },
        tag::MERGE_CREATED => Record::MergeCreated {
            id: TaskId(r.u64v()?),
            inputs: get_inputs(r)?,
        },
        tag::MERGED => {
            let task = match r.u8()? {
                0 => None,
                1 => Some(r.task()?),
                _ => return Err(invalid("bad Option tag")),
            };
            let n = r.len_of("merged output list")?;
            let mut outputs = Vec::with_capacity(n);
            for _ in 0..n {
                outputs.push(r.task()?);
            }
            Record::Merged {
                task,
                outputs,
                into: r.str()?,
                bytes: r.u64v()?,
            }
        }
        tag::ATTEMPT => Record::Attempt {
            report: Box::new(get_report(r)?),
        },
        tag::BACKOFF => Record::Backoff { wait: r.dur()? },
        tag::DEAD_LETTERED => Record::DeadLettered {
            letter: Box::new(get_letter(r)?),
            seq: r.u64v()?,
        },
        tag::SHARD_SNAPSHOT => Record::ShardSnapshot {
            state: Box::new(get_shard_snap(r)?),
        },
        tag::MASTER_SNAPSHOT => Record::MasterSnapshot {
            state: Box::new(get_master_snap(r)?),
        },
        _ => return Err(invalid("unknown record tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(rec: &Record) -> Record {
        let mut buf = Vec::new();
        encode_record(&mut buf, rec);
        let mut r = Reader::new(&buf);
        let back = decode_record(&mut r).expect("decodes");
        assert!(r.is_empty(), "no trailing bytes");
        back
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.u64v().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    /// A claim is written as its plain tasklet list and read back in
    /// canonical form: a run decodes without a list, anything else as one.
    #[test]
    fn claims_encode_as_lists_and_decode_canonical() {
        for (list, claim) in [
            (vec![4, 5, 6], Claim::Run { first: 4, n: 3 }),
            (vec![], Claim::Run { first: 0, n: 0 }),
            (vec![3, 7, 8], Claim::List(vec![3, 7, 8])),
            (vec![9, 8], Claim::List(vec![9, 8])),
        ] {
            let mut from_list = Vec::new();
            put_tasklets(&mut from_list, list.iter().copied());
            let mut from_claim = Vec::new();
            put_tasklets(&mut from_claim, claim.iter());
            assert_eq!(from_claim, from_list, "{list:?}");
            let mut r = Reader::new(&from_list);
            assert_eq!(r.claim().unwrap(), claim);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        let mut r = Reader::new(&[0xFF; 11]);
        assert!(r.u64v().is_err());
    }

    #[test]
    fn truncated_record_is_invalid_data_not_panic() {
        let rec = Record::Workflow {
            wf: 0,
            name: "wf".into(),
            tasklets: 1000,
        };
        let mut buf = Vec::new();
        encode_record(&mut buf, &rec);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let err = decode_record(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut r = Reader::new(&[200, 0, 0]);
        assert_eq!(
            decode_record(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn corrupt_length_cannot_balloon_allocation() {
        // A tasklet list claiming u64::MAX entries with 2 bytes left.
        let mut buf = vec![tag::TASK_CREATED];
        put_u64(&mut buf, 7); // id
        put_u64(&mut buf, 0); // wf
        put_u64(&mut buf, u64::MAX); // claimed list length
        let mut r = Reader::new(&buf);
        assert_eq!(
            decode_record(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    // ---- generators -----------------------------------------------------
    //
    // The vendored proptest shim has no combinator macros (`prop_oneof!`,
    // `prop_compose!`, `.prop_map`), so record generators sample directly
    // from the deterministic rng behind a closure-to-Strategy adapter.

    use proptest::TestRng;

    struct SampleWith<F>(F);

    impl<T: std::fmt::Debug, F: Fn(&mut TestRng) -> T> Strategy for SampleWith<F> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    fn gen_name(rng: &mut TestRng) -> String {
        // Multi-byte chars included: string codecs must count bytes, not
        // chars.
        const ALPHABET: [char; 12] = ['a', 'Z', '0', '9', '_', '-', '.', ' ', 'λ', 'Ω', 'é', '中'];
        let n = rng.below(25) as usize;
        (0..n)
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn gen_times(rng: &mut TestRng) -> TaskTimes {
        let mut d = || SimDuration::from_micros(rng.below(10_000_000_000));
        TaskTimes {
            queued: d(),
            wq_stage_in: d(),
            env_setup: d(),
            stage_in: d(),
            cpu: d(),
            io_wait: d(),
            stage_out: d(),
            wq_stage_out: d(),
        }
    }

    fn gen_category(rng: &mut TestRng) -> Category {
        match rng.below(3) {
            0 => Category::Analysis,
            1 => Category::Merge,
            _ => Category::Simulation,
        }
    }

    fn gen_segment(rng: &mut TestRng) -> Segment {
        match rng.below(5) {
            0 => Segment::Compatibility,
            1 => Segment::EnvInit,
            2 => Segment::StageIn,
            3 => Segment::Execute,
            _ => Segment::StageOut,
        }
    }

    fn gen_code(rng: &mut TestRng) -> FailureCode {
        match rng.below(7) {
            0 => FailureCode::Incompatible,
            1 => FailureCode::EnvSetup,
            2 => FailureCode::StageIn,
            3 => FailureCode::AppError,
            4 => FailureCode::StageOut,
            5 => FailureCode::Evicted,
            _ => FailureCode::Cancelled,
        }
    }

    fn gen_report(rng: &mut TestRng) -> SegmentReport {
        let at = rng.below(u64::MAX / 4);
        SegmentReport {
            task: TaskId(rng.below(1_000_000)),
            category: gen_category(rng),
            attempt: rng.below(100) as u32,
            worker: rng.below(100_000),
            times: gen_times(rng),
            failed_segment: if rng.below(2) == 0 {
                Some(gen_segment(rng))
            } else {
                None
            },
            watchdog: rng.below(2) == 0,
            evicted: rng.below(2) == 0,
            dispatched_at: SimTime::from_micros(at),
            finished_at: SimTime::from_micros(at + 1),
            output_bytes: rng.next_u64(),
        }
    }

    fn gen_letter(rng: &mut TestRng) -> DeadLetter {
        DeadLetter {
            task: TaskId(rng.below(2_000_000_000)),
            category: gen_category(rng),
            code: gen_code(rng),
            attempts: rng.below(100) as u32,
            units: rng.next_u64(),
            at: SimTime::from_micros(rng.next_u64()),
        }
    }

    fn gen_inputs(rng: &mut TestRng) -> MergeInputs {
        let n = rng.below(8) as usize;
        (0..n)
            .map(|_| (TaskId(rng.below(1_000_000)), rng.next_u64()))
            .collect()
    }

    fn gen_record(rng: &mut TestRng) -> Record {
        match rng.below(10) {
            0 => Record::Workflow {
                wf: rng.below(8) as u32,
                name: gen_name(rng),
                tasklets: rng.next_u64(),
            },
            1 => Record::TaskCreated {
                id: TaskId(rng.below(1_000_000)),
                wf: rng.below(8) as u32,
                tasklets: {
                    let n = rng.below(64) as usize;
                    let list: Vec<u64> = (0..n).map(|_| rng.below(1_000_000_000)).collect();
                    Claim::from(list)
                },
            },
            2 => Record::TaskRunning {
                id: TaskId(rng.below(1_000_000)),
            },
            3 => Record::TaskDone {
                id: TaskId(rng.below(1_000_000)),
                output_bytes: rng.next_u64(),
                done_seq: rng.below(1_000_000),
            },
            4 => Record::TaskLost {
                id: TaskId(rng.below(1_000_000)),
            },
            5 => Record::MergeCreated {
                id: TaskId(1_000_000_000 + rng.below(100_000)),
                inputs: gen_inputs(rng),
            },
            6 => Record::Merged {
                task: if rng.below(2) == 0 {
                    Some(TaskId(1_000_000_000 + rng.below(100_000)))
                } else {
                    None
                },
                outputs: {
                    let n = rng.below(8) as usize;
                    (0..n).map(|_| TaskId(rng.below(1_000_000))).collect()
                },
                into: gen_name(rng),
                bytes: rng.next_u64(),
            },
            7 => Record::Attempt {
                report: Box::new(gen_report(rng)),
            },
            8 => Record::Backoff {
                wait: SimDuration::from_micros(rng.next_u64()),
            },
            _ => Record::DeadLettered {
                letter: Box::new(gen_letter(rng)),
                seq: rng.below(1_000_000),
            },
        }
    }

    fn arb_record() -> impl Strategy<Value = Record> {
        SampleWith(gen_record)
    }

    proptest! {
        /// Tentpole property: encode→decode identity over arbitrary
        /// record sequences packed into one buffer, the exact shape a
        /// group-commit frame payload has.
        #[test]
        fn record_sequences_round_trip(recs in proptest::collection::vec(arb_record(), 1..32)) {
            let mut buf = Vec::new();
            for rec in &recs {
                encode_record(&mut buf, rec);
            }
            let mut r = Reader::new(&buf);
            let mut back = Vec::with_capacity(recs.len());
            for _ in 0..recs.len() {
                back.push(decode_record(&mut r).expect("decodes"));
            }
            prop_assert!(r.is_empty());
            prop_assert_eq!(back, recs);
        }

        /// Truncating an encoded record anywhere yields `InvalidData`
        /// (or a short valid prefix decode), never a panic or a hang —
        /// the property the torn-tail classifier relies on.
        #[test]
        fn truncation_is_total(rec in arb_record(), frac in 0.0f64..1.0) {
            let mut buf = Vec::new();
            encode_record(&mut buf, &rec);
            let cut = ((buf.len() as f64) * frac) as usize;
            let mut r = Reader::new(&buf[..cut.min(buf.len().saturating_sub(1))]);
            let _ = decode_record(&mut r); // must return, never panic
        }
    }

    #[test]
    fn snapshot_records_round_trip() {
        let shard = Record::ShardSnapshot {
            state: Box::new(ShardSnap {
                wf: 3,
                name: "wf-3".into(),
                total: 1000,
                cursor: 400,
                returned: vec![7, 9, 33],
                done: 350,
                dead: 10,
                tasks: vec![
                    TaskSnap {
                        id: TaskId(0),
                        tasklets: Claim::from(vec![0, 1, 2]),
                        state: TaskState::Done,
                        attempts: 1,
                    },
                    TaskSnap {
                        id: TaskId(5),
                        tasklets: Claim::from(vec![90, 92]),
                        state: TaskState::Withdrawn,
                        attempts: 4,
                    },
                ],
                outputs: vec![OutputSnap {
                    task: TaskId(0),
                    bytes: 12_345,
                    done_seq: 17,
                }],
                dead_letters: vec![(
                    4,
                    DeadLetter {
                        task: TaskId(5),
                        category: Category::Analysis,
                        code: FailureCode::StageIn,
                        attempts: 4,
                        units: 2,
                        at: SimTime::from_secs(99),
                    },
                )],
            }),
        };
        assert_eq!(roundtrip(&shard), shard);

        let master = Record::MasterSnapshot {
            state: Box::new(MasterSnap {
                merged_files: vec![("m0.root".into(), 500), ("m1.root".into(), 700)],
                merge_groups: vec![(TaskId(1_000_000_002), vec![(TaskId(4), 100)])],
                merged_outputs: vec![(TaskId(0), 0), (TaskId(2), 1)],
                withdrawn_outputs: vec![3, 9],
                next_merge: 3,
                dead_letters: vec![(
                    6,
                    DeadLetter {
                        task: TaskId(1_000_000_001),
                        category: Category::Merge,
                        code: FailureCode::StageOut,
                        attempts: 3,
                        units: 4,
                        at: SimTime::from_secs(1234),
                    },
                )],
                accounting: Accounting {
                    cpu: 1.5,
                    io: 0.25,
                    failed: 0.125,
                    wq_stage_in: 0.5,
                    wq_stage_out: 0.75,
                    retries: 9,
                    watchdog_aborts: 2,
                    dead_lettered: 3,
                    backoff_hours: 0.0625,
                },
                tasks_failed: 11,
                evictions: 5,
                merges_completed: 2,
            }),
        };
        assert_eq!(roundtrip(&master), master);
    }

    /// The dominant record type at scale is one attempt report per
    /// completion. Its encoded size is pinned exactly, so any codec growth
    /// fails here first (`bench_recovery` gates whole-journal bytes).
    #[test]
    fn attempt_record_encoded_size_is_pinned() {
        let rec = Record::Attempt {
            report: Box::new(SegmentReport {
                task: TaskId(51_234),
                category: Category::Analysis,
                attempt: 1,
                worker: 8_765,
                times: TaskTimes {
                    queued: SimDuration::from_secs(40),
                    wq_stage_in: SimDuration::from_secs(12),
                    env_setup: SimDuration::from_secs(90),
                    stage_in: SimDuration::from_secs(30),
                    cpu: SimDuration::from_mins(25),
                    io_wait: SimDuration::from_secs(75),
                    stage_out: SimDuration::from_secs(20),
                    wq_stage_out: SimDuration::from_secs(8),
                },
                failed_segment: None,
                watchdog: false,
                evicted: false,
                dispatched_at: SimTime::from_secs(7_200),
                finished_at: SimTime::from_secs(9_100),
                output_bytes: 123_456_789,
            }),
        };
        let mut buf = Vec::new();
        encode_record(&mut buf, &rec);
        assert_eq!(buf.len(), 56, "attempt record encoding changed size");
    }
}
