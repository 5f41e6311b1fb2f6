//! The declarative scenario format.
//!
//! A [`Scenario`] is everything a run needs, as data: pool composition and
//! churn, workload mix and sizing, retry/journal policy, and fault windows
//! over [`FaultTarget`]s. Scenarios live as JSON files under `scenarios/`
//! at the repository root; [`Scenario::load`] + [`crate::compile()`] turn one
//! into a runnable `(LobsterConfig, SimParams, Vec<Workflow>)` triple.
//!
//! The vendored serde shim requires every field to be present in the JSON
//! (no defaults, no renames), which keeps scenario files self-documenting:
//! what you read is the complete configuration.

use lobster::config::JournalPolicy;
use lobster::fault::{Fault, FaultError, FaultTarget};
use lobster::merge::MergeMode;
use lobster::workflow::LUMIS_PER_TASKLET;
use serde::{Deserialize, Serialize};
use simkit::time::{SimDuration, SimTime};
use simnet::outage::{Outage, OutageError, OutageSchedule};
use std::fmt;
use std::io;
use std::path::Path;

/// The most tasklets one workload may declare: a simulation's `tasklets`,
/// or a dataset's lumi sections over [`LUMIS_PER_TASKLET`]. Analysis task
/// ids count up from 0, one per task created, and must stay well below
/// [`lobster::db::MERGE_ID_BASE`] (10^9), where merge ids begin.
pub const MAX_TASKLETS: u64 = 100_000_000;

/// The most files a dataset may declare: generating its catalogue
/// allocates an entry per file up front.
pub const MAX_FILES: u64 = 1_000_000;

/// Bytes per megabyte in the scenario's MB fields.
pub(crate) const MB: u64 = 1_000_000;

/// Why a scenario file cannot be run.
#[derive(Debug)]
pub enum ScenarioError {
    /// The file could not be read.
    Io(io::Error),
    /// The JSON did not parse into the scenario schema.
    Parse(String),
    /// Schema-level problems (empty workloads, zero horizon, ...), one
    /// message per offence.
    Invalid(Vec<String>),
    /// A fault entry failed construction-boundary validation (bad window
    /// values, overlap, squid index past the deployed set).
    Fault(FaultError),
    /// The WAN outage schedule is malformed.
    WanOutage(OutageError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io(e) => write!(f, "reading scenario: {e}"),
            ScenarioError::Parse(e) => write!(f, "parsing scenario: {e}"),
            ScenarioError::Invalid(problems) => {
                write!(f, "invalid scenario: {}", problems.join("; "))
            }
            ScenarioError::Fault(e) => write!(f, "invalid fault: {e}"),
            ScenarioError::WanOutage(e) => write!(f, "invalid wan outage: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<io::Error> for ScenarioError {
    fn from(e: io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

/// Worker availability (eviction) model, as data. Mirrors
/// `batchsim::availability::AvailabilityModel` with flattened parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum AvailabilitySpec {
    /// Workers are never evicted.
    Dedicated,
    /// Exponential survival (constant hazard).
    Exponential {
        /// Mean worker lifetime in hours.
        mean_hours: f64,
    },
    /// Weibull survival; shape < 1 evicts young workers hardest.
    Weibull {
        /// Scale parameter in hours.
        scale_hours: f64,
        /// Shape parameter.
        shape: f64,
    },
    /// Two-population mixture (scavenged desktops + idle batch nodes).
    Mixture {
        /// Probability of the short-lived component.
        short_frac: f64,
        /// Short-lived Weibull scale (hours).
        short_scale_hours: f64,
        /// Short-lived Weibull shape.
        short_shape: f64,
        /// Long-lived Weibull scale (hours).
        long_scale_hours: f64,
        /// Long-lived Weibull shape.
        long_shape: f64,
    },
    /// Resample observed availability intervals — eviction-trace replay.
    Trace {
        /// Observed worker lifetimes in hours.
        intervals_hours: Vec<f64>,
    },
}

/// Opportunistic pool behaviour.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PoolSpec {
    /// Cores the shared pool holds in total.
    pub total_cores: u32,
    /// Mean cores the resource owners keep for themselves.
    pub owner_mean: f64,
    /// Mean-reversion rate of owner demand.
    pub reversion: f64,
    /// Owner-demand noise amplitude.
    pub noise: f64,
    /// Owner-demand tick in minutes.
    pub tick_mins: u64,
}

/// Worker shape and provisioning target.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkerSpec {
    /// Cores per worker.
    pub cores_per_worker: u32,
    /// Target simultaneously live cores.
    pub target_cores: u32,
}

/// Infrastructure sizing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InfraSpec {
    /// Deployed squid proxies.
    pub n_squids: u32,
    /// Foremen between master and workers.
    pub n_foremen: u32,
    /// Chirp maximum concurrent connections.
    pub chirp_connections: u32,
    /// Campus uplink in Gbit/s.
    pub wan_gbits: f64,
    /// Use the Parrot alien cache.
    pub alien_cache: bool,
}

/// How input data reaches tasks.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum AccessSpec {
    /// Stream over the WAN via XrootD.
    Stream,
    /// Stage via the Work Queue master.
    StageWq,
    /// Stage via the user's Chirp server.
    StageChirp,
}

/// A synthetic DBS dataset to generate and process.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset path, e.g. `/TTJets/Spring14/AOD`.
    pub path: String,
    /// Number of logical files.
    pub n_files: u64,
    /// Mean file size in megabytes.
    pub mean_file_mb: u64,
    /// Events per lumi section.
    pub events_per_lumi: u32,
    /// Lumi sections per file.
    pub lumis_per_file: u32,
    /// Seed for the catalogue generator.
    pub seed: u64,
}

/// What a workload does.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WorkloadKindSpec {
    /// Monte-Carlo production: negligible input, pile-up overlay via Chirp.
    Simulation {
        /// Total tasklets to produce.
        tasklets: u64,
        /// Pile-up bytes per tasklet, in megabytes.
        pileup_mb_per_tasklet: u64,
    },
    /// Analysis over a generated dataset, streamed or staged per `access`.
    DataProcessing {
        /// The dataset to generate and process.
        dataset: DatasetSpec,
    },
}

/// One workflow in the scenario's mix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Bookkeeping label.
    pub name: String,
    /// Tasklets per task (the task-size knob).
    pub tasklets_per_task: u32,
    /// Mean CPU minutes per tasklet.
    pub tasklet_mean_mins: f64,
    /// CPU-minute standard deviation per tasklet.
    pub tasklet_sigma_mins: f64,
    /// Output megabytes per tasklet.
    pub output_mb_per_tasklet: u64,
    /// Workload profile.
    pub kind: WorkloadKindSpec,
}

/// Failure-handling policy, as data.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RetrySpec {
    /// Attempts per task before dead-lettering; `null` retries forever.
    pub max_attempts: Option<u32>,
    /// Requeue backoff base, minutes.
    pub requeue_base_mins: u64,
    /// Requeue backoff multiplier per consecutive failure.
    pub requeue_factor: f64,
    /// Requeue backoff ceiling, minutes.
    pub requeue_max_mins: u64,
    /// Slot-hold backoff base after an env-init failure, minutes.
    pub slot_hold_base_mins: u64,
    /// Slot-hold backoff ceiling, minutes.
    pub slot_hold_max_mins: u64,
    /// Watchdog deadline on environment setup, minutes (`null` = unguarded).
    pub env_setup_deadline_mins: Option<u64>,
    /// Watchdog deadline on input staging, minutes.
    pub stage_in_deadline_mins: Option<u64>,
    /// Watchdog deadline on execution, minutes.
    pub execute_deadline_mins: Option<u64>,
    /// Watchdog deadline on output upload, minutes.
    pub stage_out_deadline_mins: Option<u64>,
}

/// One degradation window, in scenario-friendly units.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WindowSpec {
    /// Window start, minutes from sim start (inclusive).
    pub start_mins: u64,
    /// Window end, minutes from sim start (exclusive).
    pub end_mins: u64,
    /// Remaining capacity factor in `[0, 1]`; 0 = full outage.
    pub capacity_factor: f64,
    /// Probability a request issued inside the window fails outright.
    pub failure_prob: f64,
}

impl WindowSpec {
    /// The equivalent `simnet` outage window.
    pub fn to_outage(self) -> Outage {
        Outage {
            start: SimTime::ZERO + SimDuration::from_mins(self.start_mins),
            end: SimTime::ZERO + SimDuration::from_mins(self.end_mins),
            capacity_factor: self.capacity_factor,
            failure_prob: self.failure_prob,
        }
    }
}

/// One component's fault schedule.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Component to degrade.
    pub target: FaultTarget,
    /// Degradation windows.
    pub windows: Vec<WindowSpec>,
}

impl FaultSpec {
    /// Compile into a validated [`Fault`].
    pub fn to_fault(&self) -> Result<Fault, FaultError> {
        Fault::try_new(
            self.target,
            self.windows.iter().map(|w| w.to_outage()).collect(),
        )
    }
}

/// One master in a multi-tenant scenario. An empty `tenants` list keeps
/// the classic single-master semantics; a non-empty list declares N
/// masters, each running its own copy of the scenario's workload mix
/// (re-seeded per tenant) over the one shared pool, arbitrated by
/// fair-share weights (see `crates/tenancy`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioTenant {
    /// Tenant label: journal directory suffix, dashboard consumer, and
    /// federated-metrics row key.
    pub name: String,
    /// Fair-share weight (finite, > 0).
    pub weight: f64,
    /// Master seed for this tenant's own randomness.
    pub seed: u64,
}

/// A complete, self-contained description of one simulated campaign.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario identifier (used in reports and journal paths).
    pub name: String,
    /// What failure episode or workload shape this reproduces.
    pub description: String,
    /// Master seed for all randomness in the run.
    pub seed: u64,
    /// Simulated horizon in hours — also the no-hang watchdog cap: a
    /// conforming run must drain strictly before it.
    pub horizon_hours: u64,
    /// Worker availability (eviction) model.
    pub availability: AvailabilitySpec,
    /// Opportunistic pool behaviour.
    pub pool: PoolSpec,
    /// Worker shape.
    pub workers: WorkerSpec,
    /// Infrastructure sizing.
    pub infra: InfraSpec,
    /// How tasks obtain input data.
    pub access: AccessSpec,
    /// How outputs are merged.
    pub merge: MergeMode,
    /// Target merged-file size in megabytes.
    pub merge_target_mb: u64,
    /// The workload mix.
    pub workloads: Vec<WorkloadSpec>,
    /// Failure handling.
    pub retry: RetrySpec,
    /// Journal durability policy.
    pub journal: JournalPolicy,
    /// Wide-area outage windows (the federation-independent WAN schedule).
    pub wan_outages: Vec<WindowSpec>,
    /// Injected component faults.
    pub faults: Vec<FaultSpec>,
    /// Multi-tenant roster; empty means one classic master.
    pub tenants: Vec<ScenarioTenant>,
}

impl Scenario {
    /// Parse from JSON text.
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(json).map_err(|e| ScenarioError::Parse(e.to_string()))
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> Result<String, ScenarioError> {
        serde_json::to_string_pretty(self).map_err(|e| ScenarioError::Parse(e.to_string()))
    }

    /// Load and validate a scenario file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)?;
        let sc = Self::from_json(&text)?;
        sc.validate()?;
        Ok(sc)
    }

    /// Check every invariant the compiler relies on. Fault and outage
    /// problems surface as their typed errors; schema-level problems are
    /// collected into one [`ScenarioError::Invalid`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let mut problems = Vec::new();
        if self.name.is_empty() {
            problems.push("name is empty".to_string());
        }
        if self.horizon_hours == 0 {
            problems.push("horizon_hours is 0".to_string());
        }
        if self.workloads.is_empty() {
            problems.push("no workloads".to_string());
        }
        for w in &self.workloads {
            if w.tasklets_per_task == 0 {
                problems.push(format!("workload {}: tasklets_per_task is 0", w.name));
            }
            if w.tasklet_mean_mins <= 0.0 || !w.tasklet_mean_mins.is_finite() {
                problems.push(format!("workload {}: bad tasklet mean", w.name));
            }
            if w.tasklet_sigma_mins < 0.0 || !w.tasklet_sigma_mins.is_finite() {
                problems.push(format!("workload {}: bad tasklet sigma", w.name));
            }
            match &w.kind {
                WorkloadKindSpec::Simulation { tasklets, .. } => {
                    if *tasklets == 0 {
                        problems.push(format!("workload {}: 0 tasklets", w.name));
                    }
                }
                WorkloadKindSpec::DataProcessing { dataset } => {
                    if dataset.path.is_empty() {
                        problems.push(format!("workload {}: empty dataset path", w.name));
                    }
                    if dataset.n_files == 0 {
                        problems.push(format!("workload {}: dataset has 0 files", w.name));
                    }
                    if dataset.lumis_per_file == 0 {
                        problems.push(format!("workload {}: 0 lumis per file", w.name));
                    }
                }
            }
        }
        if self.workers.cores_per_worker == 0 {
            problems.push("cores_per_worker is 0".to_string());
        }
        if self.workers.target_cores == 0 {
            problems.push("target_cores is 0".to_string());
        }
        if self.pool.total_cores == 0 {
            problems.push("pool.total_cores is 0".to_string());
        }
        if self.pool.tick_mins == 0 {
            problems.push("pool.tick_mins is 0".to_string());
        }
        if self.infra.n_squids == 0 {
            problems.push("infra.n_squids is 0".to_string());
        }
        if self.infra.chirp_connections == 0 {
            problems.push("infra.chirp_connections is 0".to_string());
        }
        if !self.infra.wan_gbits.is_finite() || self.infra.wan_gbits <= 0.0 {
            problems.push("infra.wan_gbits must be finite and > 0".to_string());
        }
        if self.merge_target_mb == 0 {
            problems.push("merge_target_mb is 0".to_string());
        }
        if self.retry.max_attempts == Some(0) {
            problems.push("retry.max_attempts of 0 dead-letters every task".to_string());
        }
        if !self.retry.requeue_factor.is_finite() || self.retry.requeue_factor < 1.0 {
            problems.push("retry.requeue_factor must be >= 1".to_string());
        }
        match &self.availability {
            AvailabilitySpec::Dedicated => {}
            AvailabilitySpec::Exponential { mean_hours } => {
                if !mean_hours.is_finite() || *mean_hours <= 0.0 {
                    problems.push("availability: non-positive exponential mean".to_string());
                }
            }
            AvailabilitySpec::Weibull { scale_hours, shape } => {
                if !(scale_hours.is_finite()
                    && *scale_hours > 0.0
                    && shape.is_finite()
                    && *shape > 0.0)
                {
                    problems.push("availability: bad weibull parameters".to_string());
                }
            }
            AvailabilitySpec::Mixture {
                short_frac,
                short_scale_hours,
                short_shape,
                long_scale_hours,
                long_shape,
            } => {
                if !(0.0..=1.0).contains(short_frac) || !short_frac.is_finite() {
                    problems.push("availability: mixture short_frac outside [0, 1]".to_string());
                }
                for (label, v) in [
                    ("short_scale_hours", short_scale_hours),
                    ("short_shape", short_shape),
                    ("long_scale_hours", long_scale_hours),
                    ("long_shape", long_shape),
                ] {
                    if !v.is_finite() || *v <= 0.0 {
                        problems.push(format!("availability: non-positive mixture {label}"));
                    }
                }
            }
            AvailabilitySpec::Trace { intervals_hours } => {
                if intervals_hours.is_empty() {
                    problems.push("availability: empty eviction trace".to_string());
                }
                if intervals_hours.iter().any(|h| !h.is_finite() || *h < 0.0) {
                    problems
                        .push("availability: negative or non-finite trace interval".to_string());
                }
            }
        }
        self.check_ranges(&mut problems);
        let mut seen_tenants = std::collections::BTreeSet::new();
        for t in &self.tenants {
            if t.name.is_empty()
                || !t
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                problems.push(format!(
                    "tenant {:?}: name must be non-empty [A-Za-z0-9_-]+",
                    t.name
                ));
            }
            if !seen_tenants.insert(t.name.as_str()) {
                problems.push(format!("tenant {:?}: duplicate name", t.name));
            }
            if !t.weight.is_finite() || t.weight <= 0.0 {
                problems.push(format!(
                    "tenant {:?}: weight must be finite and > 0",
                    t.name
                ));
            }
        }
        if !problems.is_empty() {
            return Err(ScenarioError::Invalid(problems));
        }
        // Typed construction-boundary checks: fault windows and squid
        // indices, then the WAN schedule.
        let mut faults = Vec::with_capacity(self.faults.len());
        for f in &self.faults {
            faults.push(f.to_fault().map_err(ScenarioError::Fault)?);
        }
        lobster::fault::FaultPlan::new(faults)
            .validate(self.infra.n_squids as usize)
            .map_err(ScenarioError::Fault)?;
        OutageSchedule::try_new(self.wan_outages.iter().map(|w| w.to_outage()).collect())
            .map_err(ScenarioError::WanOutage)?;
        Ok(())
    }

    /// Every number `compile` converts or decomposition allocates for
    /// must fit: hours and minutes in the microsecond clock, megabytes
    /// in byte counts (per task for the per-tasklet sizes, per dataset
    /// for file sizes), and tasklet and file counts under
    /// [`MAX_TASKLETS`] and [`MAX_FILES`].
    fn check_ranges(&self, problems: &mut Vec<String>) {
        let mut mins = |label: &str, m: u64| {
            if SimDuration::checked_from_mins(m).is_none() {
                problems.push(format!("{label} of {m} minutes overflows the clock"));
            }
        };
        mins("pool.tick_mins", self.pool.tick_mins);
        let r = &self.retry;
        mins("retry.requeue_base_mins", r.requeue_base_mins);
        mins("retry.requeue_max_mins", r.requeue_max_mins);
        mins("retry.slot_hold_base_mins", r.slot_hold_base_mins);
        mins("retry.slot_hold_max_mins", r.slot_hold_max_mins);
        for (label, m) in [
            ("retry.env_setup_deadline_mins", r.env_setup_deadline_mins),
            ("retry.stage_in_deadline_mins", r.stage_in_deadline_mins),
            ("retry.execute_deadline_mins", r.execute_deadline_mins),
            ("retry.stage_out_deadline_mins", r.stage_out_deadline_mins),
        ] {
            if let Some(m) = m {
                mins(label, m);
            }
        }
        let windows = self.faults.iter().flat_map(|f| &f.windows);
        for w in self.wan_outages.iter().chain(windows) {
            mins("window start_mins", w.start_mins);
            mins("window end_mins", w.end_mins);
        }
        if SimDuration::checked_from_hours(self.horizon_hours).is_none() {
            problems.push(format!(
                "horizon_hours of {} overflows the clock",
                self.horizon_hours
            ));
        }
        let fits = |mb: u64, times: u64| mb.checked_mul(MB).and_then(|b| b.checked_mul(times));
        if fits(self.merge_target_mb, 1).is_none() {
            problems.push("merge_target_mb overflows a byte count".to_string());
        }
        for w in &self.workloads {
            let per_task = u64::from(w.tasklets_per_task);
            if fits(w.output_mb_per_tasklet, per_task).is_none() {
                problems.push(format!(
                    "workload {}: output_mb_per_tasklet × tasklets_per_task overflows a byte count",
                    w.name
                ));
            }
            let tasklets = match &w.kind {
                WorkloadKindSpec::Simulation {
                    tasklets,
                    pileup_mb_per_tasklet,
                } => {
                    if fits(*pileup_mb_per_tasklet, per_task).is_none() {
                        problems.push(format!(
                            "workload {}: pileup_mb_per_tasklet × tasklets_per_task overflows a byte count",
                            w.name
                        ));
                    }
                    *tasklets
                }
                WorkloadKindSpec::DataProcessing { dataset } => {
                    if dataset.n_files > MAX_FILES {
                        problems.push(format!(
                            "workload {}: {} files is over the limit of {MAX_FILES}",
                            w.name, dataset.n_files
                        ));
                        continue;
                    }
                    // A file is at most 1.5 times the mean size.
                    if fits(dataset.mean_file_mb, 2 * dataset.n_files).is_none() {
                        problems.push(format!(
                            "workload {}: n_files × mean_file_mb overflows a byte count",
                            w.name
                        ));
                    }
                    // Lumi sections are numbered from 1 in a `u32`
                    // across the dataset, and the counter ends one past
                    // the last.
                    let lumis = dataset.n_files * u64::from(dataset.lumis_per_file);
                    if lumis >= u64::from(u32::MAX) {
                        problems.push(format!(
                            "workload {}: {lumis} lumi sections do not fit a u32 lumi number",
                            w.name
                        ));
                    }
                    lumis.div_ceil(u64::from(LUMIS_PER_TASKLET))
                }
            };
            if tasklets > MAX_TASKLETS {
                problems.push(format!(
                    "workload {}: {tasklets} tasklets is over the limit of {MAX_TASKLETS}",
                    w.name
                ));
            }
        }
    }
}
