//! Output merging (§4.4, Figure 7).
//!
//! Tuning task sizes for eviction tolerance leaves "significantly more and
//! smaller output files" (10–100 MB) than regular CMS workflows want;
//! Lobster merges them into 3–4 GB files. Three modes:
//!
//! * **Sequential** — after all analysis tasks finish, group outputs by
//!   size and run merge tasks through the same queue. Slowest; long tail.
//! * **Hadoop** — run the merge inside the storage cluster as a
//!   Map-Reduce job (map groups file names; reducers concatenate).
//! * **Interleaved** — once a workflow is >10 % processed, create merge
//!   tasks as soon as enough finished outputs exist to fill one target-
//!   size file. Outputs merge exactly once. Less resource-efficient but
//!   fastest to completion; the mode Lobster uses in production.
//!
//! All three group outputs with one stateful [`MergePlanner`]: the
//! simulator pushes each output as it finishes and pops groups (full ones
//! while processing runs, the remainder on the end-of-processing flush);
//! [`MergePlanner::plan_full`] is the same push-then-flush in one call.

use gridstore::hdfs::Hdfs;
use gridstore::mapreduce::MapReduce;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use wqueue::task::TaskId;

/// The three merging modes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MergeMode {
    /// Merge after all processing completes, via merge tasks.
    Sequential,
    /// Merge inside the Hadoop cluster via Map-Reduce.
    Hadoop,
    /// Merge concurrently with processing.
    Interleaved,
}

impl MergeMode {
    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            MergeMode::Sequential => "sequential",
            MergeMode::Hadoop => "hadoop",
            MergeMode::Interleaved => "interleaved",
        }
    }
}

/// A planned merge: which outputs combine into one file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergeGroup {
    /// Inputs as `(producing task, bytes)`.
    pub inputs: Vec<(TaskId, u64)>,
}

impl MergeGroup {
    /// Total bytes of the merged file.
    pub fn bytes(&self) -> u64 {
        self.inputs.iter().map(|i| i.1).sum()
    }

    /// Number of input files.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// A group always holds at least one input.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

/// The one merge-grouping algorithm. Finished outputs are pushed in
/// finish order; [`MergePlanner::next_group`] pops greedy target-size
/// groups off the front, so every output lands in exactly one group and
/// every group but a flushed remainder reaches the target.
#[derive(Clone, Debug)]
pub struct MergePlanner {
    target_bytes: u64,
    /// Outputs not yet claimed by any group, in finish order.
    pending: VecDeque<(TaskId, u64)>,
    /// Sum of `pending`'s bytes.
    pending_bytes: u64,
}

impl MergePlanner {
    /// Interleaved mode only merges once this fraction of the workflow
    /// has been processed (paper: 10 %).
    pub const PROGRESS_GATE: f64 = 0.10;

    /// Empty planner targeting `target_bytes` per merged file.
    pub fn new(target_bytes: u64) -> Self {
        assert!(target_bytes > 0);
        MergePlanner {
            target_bytes,
            pending: VecDeque::new(),
            pending_bytes: 0,
        }
    }

    /// Queue one finished output behind those already pending.
    pub fn push(&mut self, id: TaskId, bytes: u64) {
        self.pending.push_back((id, bytes));
        self.pending_bytes += bytes;
    }

    /// Pop the next group. Without `flush` only a *full* group (≥ target)
    /// comes out, and only once `progress` (the processed fraction of the
    /// workflow) has passed [`MergePlanner::PROGRESS_GATE`]; the partial
    /// remainder waits for more outputs. With `flush` (end of processing)
    /// the gate is ignored and the remainder comes out as the last group.
    pub fn next_group(&mut self, progress: f64, flush: bool) -> Option<MergeGroup> {
        if !flush && (progress < Self::PROGRESS_GATE || self.pending_bytes < self.target_bytes) {
            return None;
        }
        let mut inputs = Vec::new();
        let mut acc = 0u64;
        while acc < self.target_bytes {
            let Some((id, bytes)) = self.pending.pop_front() else {
                break;
            };
            acc += bytes;
            self.pending_bytes -= bytes;
            inputs.push((id, bytes));
        }
        (!inputs.is_empty()).then_some(MergeGroup { inputs })
    }

    /// Group *all* outputs (sequential / Hadoop, end of run): push every
    /// output behind any already pending, then flush.
    pub fn plan_full(mut self, outputs: &[(TaskId, u64)]) -> Vec<MergeGroup> {
        for &(id, bytes) in outputs {
            self.push(id, bytes);
        }
        std::iter::from_fn(|| self.next_group(1.0, true)).collect()
    }
}

/// Execute merges inside the storage cluster as a real Map-Reduce job
/// (the §4.4 Hadoop mode): inputs are HDFS file names; each reducer
/// concatenates its group's contents and writes the merged file back,
/// deleting the small inputs. Returns the merged file names.
pub fn merge_in_hadoop(
    hdfs: &Hdfs,
    engine: &MapReduce,
    groups: &[(String, Vec<String>)],
) -> Vec<String> {
    // Map: (target, input name) pairs; Reduce: concatenate in input order.
    let inputs: Vec<(String, String, usize)> = groups
        .iter()
        .flat_map(|(target, names)| {
            names
                .iter()
                .enumerate()
                .map(move |(i, n)| (target.clone(), n.clone(), i))
        })
        .collect();
    let merged = engine.run(
        inputs,
        |(target, name, order)| vec![(target, (order, name))],
        |_target, mut pieces: Vec<(usize, String)>| {
            pieces.sort_by_key(|p| p.0);
            let mut out = Vec::new();
            for (_, name) in &pieces {
                if let Some(data) = hdfs.read(name) {
                    out.extend_from_slice(&data);
                }
            }
            (out, pieces.into_iter().map(|p| p.1).collect::<Vec<_>>())
        },
    );
    let mut names = Vec::new();
    for (target, (data, consumed)) in merged {
        hdfs.put_bytes(&target, data);
        for name in consumed {
            hdfs.delete(&name);
        }
        names.push(target);
    }
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outputs(sizes: &[u64]) -> Vec<(TaskId, u64)> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (TaskId(i as u64), s))
            .collect()
    }

    #[test]
    fn plan_full_covers_everything_once() {
        let outs = outputs(&[40, 40, 40, 40, 25]);
        let groups = MergePlanner::new(100).plan_full(&outs);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].bytes(), 120);
        assert_eq!(groups[1].bytes(), 65, "trailing partial group kept");
        let total: usize = groups.iter().map(MergeGroup::len).sum();
        assert_eq!(total, 5);
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            for (id, _) in &g.inputs {
                assert!(seen.insert(*id));
            }
        }
    }

    #[test]
    fn plan_full_empty_input() {
        assert!(MergePlanner::new(100).plan_full(&[]).is_empty());
    }

    fn planner(sizes: &[u64]) -> MergePlanner {
        let mut p = MergePlanner::new(100);
        for (id, bytes) in outputs(sizes) {
            p.push(id, bytes);
        }
        p
    }

    #[test]
    fn interleaved_respects_progress_gate() {
        let mut p = planner(&[60, 60]);
        assert!(p.next_group(0.05, false).is_none(), "below 10% gate");
        let ready = p.next_group(0.20, false).expect("full group past the gate");
        assert_eq!(ready.bytes(), 120);
        assert!(p.next_group(0.20, false).is_none());
    }

    #[test]
    fn interleaved_holds_back_partial_groups() {
        let mut p = planner(&[60, 30]); // only 90 bytes — not a full file yet
        assert!(p.next_group(0.5, false).is_none());
        // final flush emits the remainder
        let flushed = p.next_group(0.5, true).expect("flushed remainder");
        assert_eq!(flushed.bytes(), 90);
        assert!(p.next_group(0.5, true).is_none());
    }

    #[test]
    fn final_flush_overrides_gate() {
        let mut p = planner(&[10]);
        assert_eq!(p.next_group(0.0, true).map(|g| g.len()), Some(1));
    }

    #[test]
    fn single_oversize_output_is_its_own_group() {
        let groups = MergePlanner::new(100).plan_full(&outputs(&[500]));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 1);
    }

    #[test]
    fn hadoop_merge_concatenates_and_cleans_up() {
        let hdfs = Hdfs::new(4, 2);
        for i in 0..6u8 {
            hdfs.put_bytes(&format!("/out/small_{i}.root"), vec![i; 10]);
        }
        let groups = vec![
            (
                "/out/merged_0.root".to_string(),
                (0..3).map(|i| format!("/out/small_{i}.root")).collect(),
            ),
            (
                "/out/merged_1.root".to_string(),
                (3..6).map(|i| format!("/out/small_{i}.root")).collect(),
            ),
        ];
        let merged = merge_in_hadoop(&hdfs, &MapReduce::new(4), &groups);
        assert_eq!(merged, vec!["/out/merged_0.root", "/out/merged_1.root"]);
        let m0 = hdfs.read("/out/merged_0.root").unwrap();
        assert_eq!(m0.len(), 30);
        assert_eq!(&m0[0..10], &[0; 10]);
        assert_eq!(&m0[10..20], &[1; 10]);
        // Small files deleted; only merged files remain.
        assert_eq!(hdfs.file_count(), 2);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(MergeMode::Sequential.label(), "sequential");
        assert_eq!(MergeMode::Hadoop.label(), "hadoop");
        assert_eq!(MergeMode::Interleaved.label(), "interleaved");
    }
}
