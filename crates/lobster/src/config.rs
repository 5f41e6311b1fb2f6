//! Lobster configuration: the master's in-memory run settings.
//!
//! "An execution begins with the main Lobster process that is invoked by
//! the user to initiate a workload. The user provides a configuration file
//! which describes the input data sources and the analysis code" (§3).
//!
//! In this reproduction that file is a scenario (the `scenario` crate's
//! JSON format, run by `lobster simulate`), which compiles into a
//! [`LobsterConfig`] plus the driver's `SimParams`. A `LobsterConfig` is
//! never read from or written to disk itself: every knob that the
//! evaluation sweeps (task size, data access mode, merging mode, worker
//! shape, infrastructure sizing) lives here with paper-calibrated
//! defaults, and the experiments set the ones they vary in code.

use crate::access::DataAccessMode;
use crate::merge::MergeMode;
use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use simkit::time::SimDuration;

/// Which kind of workload runs (affects the I/O profile, §6).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Data processing: streams large inputs over the WAN (Figure 10).
    DataProcessing,
    /// Simulation: negligible input, pile-up overlay via Chirp (Figure 11).
    Simulation,
}

/// One workflow to run.
#[derive(Clone, Debug)]
pub struct WorkflowConfig {
    /// Label used in bookkeeping and output names.
    pub name: String,
    /// DBS dataset path to process.
    pub dataset: String,
    /// Tasklets per task (the task-size knob of §4.1).
    pub tasklets_per_task: u32,
    /// Workload profile.
    pub kind: WorkloadKind,
    /// Mean CPU minutes per tasklet (paper: Gaussian μ=10).
    pub tasklet_mean_mins: f64,
    /// CPU-minute standard deviation per tasklet (paper: σ=5).
    pub tasklet_sigma_mins: f64,
    /// Output bytes per tasklet (analysis reduces data ≥ 10×, §4.2).
    pub output_bytes_per_tasklet: u64,
}

impl WorkflowConfig {
    /// A paper-shaped analysis workflow over `dataset`.
    pub fn analysis(name: impl Into<String>, dataset: impl Into<String>) -> Self {
        WorkflowConfig {
            name: name.into(),
            dataset: dataset.into(),
            tasklets_per_task: 6, // ≈1 h tasks at μ=10 min (the Fig. 3 optimum)
            kind: WorkloadKind::DataProcessing,
            tasklet_mean_mins: 10.0,
            tasklet_sigma_mins: 5.0,
            output_bytes_per_tasklet: 12_000_000, // ~12 MB → 10–100 MB files
        }
    }

    /// A simulation workflow (no input dataset streaming).
    pub fn simulation(name: impl Into<String>) -> Self {
        WorkflowConfig {
            name: name.into(),
            dataset: String::new(),
            tasklets_per_task: 6,
            kind: WorkloadKind::Simulation,
            tasklet_mean_mins: 10.0,
            tasklet_sigma_mins: 5.0,
            output_bytes_per_tasklet: 12_000_000,
        }
    }
}

/// Infrastructure sizing (proxies, stage-out, network).
#[derive(Clone, Debug)]
pub struct InfraConfig {
    /// Number of Squid proxies deployed.
    pub n_squids: u32,
    /// Number of foremen between master and workers (paper: 4).
    pub n_foremen: u32,
    /// Chirp maximum concurrent connections.
    pub chirp_connections: u32,
    /// Campus uplink bandwidth in Gbit/s (paper: 10).
    pub wan_gbits: f64,
    /// Use the Parrot alien cache (concurrent population, §4.3).
    pub alien_cache: bool,
}

impl Default for InfraConfig {
    fn default() -> Self {
        InfraConfig {
            n_squids: 2,
            n_foremen: 4,
            chirp_connections: 64,
            wan_gbits: 10.0,
            alien_cache: true,
        }
    }
}

/// Worker shape and provisioning targets.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Cores per worker (paper: 8).
    pub cores_per_worker: u32,
    /// Target simultaneously live cores.
    pub target_cores: u32,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            cores_per_worker: 8,
            target_cores: 10_000,
        }
    }
}

/// Exponential backoff schedule with deterministic jitter.
///
/// Delay for the `n`-th consecutive failure is
/// `base * factor^(n-1)`, capped at `max`, then jittered by a uniform
/// `±jitter` fraction drawn from the caller's [`SimRng`] — the only
/// randomness source permitted under the determinism lint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Backoff {
    /// Delay after the first failure. `ZERO` disables the wait entirely.
    pub base: SimDuration,
    /// Multiplier applied per additional consecutive failure (≥ 1).
    pub factor: f64,
    /// Ceiling on the un-jittered delay.
    pub max: SimDuration,
    /// Jitter fraction in `[0, 1]`: the delay is scaled by a uniform
    /// draw from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Backoff {
    /// A constant (non-growing, un-jittered) backoff.
    pub fn fixed(delay: SimDuration) -> Self {
        Backoff {
            base: delay,
            factor: 1.0,
            max: delay,
            jitter: 0.0,
        }
    }

    /// Delay before the next try after `failures` consecutive failures
    /// (`failures >= 1`; zero is treated as one).
    pub fn delay(&self, failures: u32, rng: &mut SimRng) -> SimDuration {
        if self.base.is_zero() {
            return SimDuration::ZERO;
        }
        let exp = failures.saturating_sub(1).min(1023);
        // Cap in f64-space *before* converting: factor^exp can reach
        // +inf, and from_secs_f64 clamps non-finite inputs to ZERO,
        // which would turn "wait very long" into "retry immediately".
        let secs =
            (self.base.as_secs_f64() * self.factor.powi(exp as i32)).min(self.max.as_secs_f64());
        let scale = 1.0 + self.jitter * (2.0 * rng.f64() - 1.0);
        SimDuration::from_secs_f64(secs * scale)
    }
}

/// Optional per-segment watchdog deadlines, measured from entry into the
/// segment. `None` leaves that segment unguarded (legacy behaviour).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SegmentDeadlines {
    /// Sandbox unpack + CVMFS environment population.
    pub env_setup: Option<SimDuration>,
    /// Input staging: WAN stream open/transfer or Chirp read.
    pub stage_in: Option<SimDuration>,
    /// CPU execution (for streaming tasks this spans the stream too).
    pub execute: Option<SimDuration>,
    /// Output upload through Chirp.
    pub stage_out: Option<SimDuration>,
}

/// Failure-handling policy: how long to watch each segment, how often to
/// retry, and how to back off (§5's troubleshooting loop, made explicit).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per task before it is dead-lettered. `None` retries
    /// forever (the legacy behaviour).
    pub max_attempts: Option<u32>,
    /// Backoff for the slot hold after an `EnvInit` failure, keyed by the
    /// worker's consecutive-failure streak (replaces the old hardcoded
    /// 15-minute hold).
    pub slot_hold: Backoff,
    /// Backoff before a failed task re-enters the dispatch queue, keyed
    /// by the task's attempt count.
    pub requeue: Backoff,
    /// Watchdog deadlines per segment.
    pub deadlines: SegmentDeadlines,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: None,
            // First EnvInit failure holds the slot 15 min (the paper's
            // squid-recovery pause), doubling per consecutive failure.
            slot_hold: Backoff {
                base: SimDuration::from_mins(15),
                factor: 2.0,
                max: SimDuration::from_hours(2),
                jitter: 0.1,
            },
            // Failed tasks historically re-queued immediately.
            requeue: Backoff::fixed(SimDuration::ZERO),
            deadlines: SegmentDeadlines::default(),
        }
    }
}

/// Durability policy for the Lobster DB journal (see `docs/recovery.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalPolicy {
    /// Compact a shard file into a snapshot frame after this many
    /// appended records, bounding replay cost after a crash. `None`
    /// never compacts (full-journal replay on recovery).
    pub snapshot_every_records: Option<u64>,
    /// Group-commit threshold in buffered records (across all shard
    /// files): appends buffer in memory and reach disk together when
    /// either threshold is crossed. `1` is write-through.
    pub group_commit_records: u64,
    /// Group-commit threshold in buffered bytes.
    pub group_commit_bytes: u64,
}

impl Default for JournalPolicy {
    fn default() -> Self {
        JournalPolicy {
            snapshot_every_records: Some(4096),
            group_commit_records: 64,
            group_commit_bytes: 128 * 1024,
        }
    }
}

impl JournalPolicy {
    /// Never compact, write through: every record commits immediately
    /// and recovery replays the whole journal. The byte-conservative
    /// policy (and what [`crate::db::LobsterDb::open`] uses).
    pub fn never() -> Self {
        JournalPolicy {
            snapshot_every_records: None,
            group_commit_records: 1,
            group_commit_bytes: u64::MAX,
        }
    }
}

/// The top-level Lobster configuration.
#[derive(Clone, Debug)]
pub struct LobsterConfig {
    /// Workflows to execute.
    pub workflows: Vec<WorkflowConfig>,
    /// How tasks obtain input data.
    pub access: DataAccessMode,
    /// How outputs are merged.
    pub merge: MergeMode,
    /// Target merged-file size in bytes (paper: 3–4 GB).
    pub merge_target_bytes: u64,
    /// Infrastructure sizing.
    pub infra: InfraConfig,
    /// Worker shape.
    pub workers: WorkerConfig,
    /// Failure handling: watchdog deadlines, retry budget, backoff.
    pub retry: RetryPolicy,
    /// Journal durability: snapshot/compaction cadence.
    pub journal: JournalPolicy,
    /// Master seed for all randomness.
    pub seed: u64,
}

impl Default for LobsterConfig {
    fn default() -> Self {
        LobsterConfig {
            workflows: vec![WorkflowConfig::analysis("ttbar", "/TTJets/Spring14/AOD")],
            access: DataAccessMode::Stream,
            merge: MergeMode::Interleaved,
            merge_target_bytes: 3_500_000_000,
            infra: InfraConfig::default(),
            workers: WorkerConfig::default(),
            retry: RetryPolicy::default(),
            journal: JournalPolicy::default(),
            seed: 0xC0FFEE,
        }
    }
}

impl LobsterConfig {
    /// Validate invariants; returns a list of problems (empty = ok).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.workflows.is_empty() {
            problems.push("no workflows configured".into());
        }
        for w in &self.workflows {
            if w.tasklets_per_task == 0 {
                problems.push(format!("workflow {}: tasklets_per_task is 0", w.name));
            }
            if w.kind == WorkloadKind::DataProcessing && w.dataset.is_empty() {
                problems.push(format!(
                    "workflow {}: data processing without dataset",
                    w.name
                ));
            }
            if w.tasklet_mean_mins <= 0.0 {
                problems.push(format!("workflow {}: non-positive tasklet mean", w.name));
            }
        }
        if self.workers.cores_per_worker == 0 {
            problems.push("cores_per_worker is 0".into());
        }
        if self.workers.target_cores == 0 {
            problems.push("target_cores is 0".into());
        }
        if self.infra.n_squids == 0 {
            problems.push("need at least one squid proxy".into());
        }
        if self.merge_target_bytes == 0 {
            problems.push("merge_target_bytes is 0".into());
        }
        if self.retry.max_attempts == Some(0) {
            problems.push("retry.max_attempts of 0 would dead-letter every task".into());
        }
        for (name, b) in [
            ("slot_hold", &self.retry.slot_hold),
            ("requeue", &self.retry.requeue),
        ] {
            if !b.factor.is_finite() || b.factor < 1.0 {
                problems.push(format!("retry.{name}: backoff factor must be >= 1"));
            }
            if !(0.0..=1.0).contains(&b.jitter) {
                problems.push(format!("retry.{name}: jitter must be in [0, 1]"));
            }
            if b.max < b.base {
                problems.push(format!("retry.{name}: max below base"));
            }
        }
        if self.journal.snapshot_every_records == Some(0) {
            problems
                .push("journal.snapshot_every_records of 0 would compact on every append".into());
        }
        if self.journal.group_commit_records == 0 {
            problems.push("journal.group_commit_records of 0 would never commit".into());
        }
        if self.journal.group_commit_bytes == 0 {
            problems.push("journal.group_commit_bytes of 0 would never commit".into());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(LobsterConfig::default().validate().is_empty());
    }

    #[test]
    fn validation_catches_problems() {
        let mut cfg = LobsterConfig::default();
        cfg.workflows[0].tasklets_per_task = 0;
        cfg.workflows[0].dataset.clear();
        cfg.workers.cores_per_worker = 0;
        let problems = cfg.validate();
        assert_eq!(problems.len(), 3, "{problems:?}");
    }

    #[test]
    fn journal_policy_roundtrip_and_validation() {
        let mut cfg = LobsterConfig::default();
        assert_eq!(cfg.journal.snapshot_every_records, Some(4096));
        assert_eq!(cfg.journal.group_commit_records, 64);
        cfg.journal = JournalPolicy::never();
        assert_eq!(
            cfg.journal.group_commit_records, 1,
            "never() is write-through"
        );
        // The scenario format embeds the policy, so it round-trips.
        let json = serde_json::to_string(&cfg.journal).unwrap();
        let back: JournalPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, JournalPolicy::never());
        cfg.journal.snapshot_every_records = Some(0);
        cfg.journal.group_commit_records = 0;
        cfg.journal.group_commit_bytes = 0;
        let problems = cfg.validate();
        assert_eq!(problems.len(), 3, "{problems:?}");
    }

    #[test]
    fn simulation_workflow_needs_no_dataset() {
        let mut cfg = LobsterConfig::default();
        cfg.workflows = vec![WorkflowConfig::simulation("gen")];
        assert!(cfg.validate().is_empty());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let b = Backoff {
            base: SimDuration::from_mins(15),
            factor: 2.0,
            max: SimDuration::from_hours(2),
            jitter: 0.0,
        };
        let mut rng = SimRng::new(7);
        assert_eq!(b.delay(1, &mut rng), SimDuration::from_mins(15));
        assert_eq!(b.delay(2, &mut rng), SimDuration::from_mins(30));
        assert_eq!(b.delay(3, &mut rng), SimDuration::from_mins(60));
        // 15 min * 2^3 = 120 min; further failures stay capped.
        assert_eq!(b.delay(4, &mut rng), SimDuration::from_hours(2));
        assert_eq!(b.delay(40, &mut rng), SimDuration::from_hours(2));
        // Astronomically many failures must not overflow to ZERO.
        assert_eq!(b.delay(u32::MAX, &mut rng), SimDuration::from_hours(2));
    }

    #[test]
    fn backoff_jitter_stays_in_band() {
        let b = Backoff {
            base: SimDuration::from_mins(10),
            factor: 1.0,
            max: SimDuration::from_mins(10),
            jitter: 0.2,
        };
        let mut rng = SimRng::new(11);
        for _ in 0..200 {
            let d = b.delay(1, &mut rng).as_mins_f64();
            assert!((8.0..=12.0).contains(&d), "jittered delay {d} min");
        }
    }

    #[test]
    fn zero_base_backoff_is_free() {
        let mut rng = SimRng::new(3);
        let b = Backoff::fixed(SimDuration::ZERO);
        assert_eq!(b.delay(5, &mut rng), SimDuration::ZERO);
    }

    #[test]
    fn validation_catches_bad_retry_policy() {
        let mut cfg = LobsterConfig::default();
        cfg.retry.max_attempts = Some(0);
        cfg.retry.slot_hold.factor = 0.5;
        cfg.retry.requeue.jitter = 2.0;
        cfg.retry.requeue.base = SimDuration::from_mins(10);
        cfg.retry.requeue.max = SimDuration::from_mins(1);
        let problems = cfg.validate();
        assert_eq!(problems.len(), 4, "{problems:?}");
    }
}
