//! The full-cluster discrete-event driver.
//!
//! This composes every substrate into the system of Figure 1 and runs the
//! production scenarios of §6: workers are provisioned through an
//! opportunistic batch pool and evicted per an availability model; tasks
//! flow master → foreman → worker; each attempt walks the wrapper
//! segments (sandbox stage-in, CVMFS-via-squid environment setup, data
//! stage-in/streaming, execution, Chirp stage-out, result collection);
//! and the monitor ingests every attempt.
//!
//! One [`ClusterSim`] run produces a [`RunReport`] holding the Figure 8
//! accounting, the Figure 10/11 time lines, the Figure 9 dashboard and
//! the Figure 2 eviction log — the benchmark binaries are thin wrappers
//! around this type.

use crate::access::{AccessTiming, DataAccessMode};
use crate::adaptive::{AdaptiveConfig, AdaptiveSizer};
use crate::config::{LobsterConfig, WorkloadKind};
use crate::db::LobsterDb;
use crate::fault::{FaultPlan, FaultTarget};
use crate::merge::{MergeGroup, MergeMode, MergePlanner};
use crate::monitor::{Accounting, AdvisorConfig, Monitor, SegmentHistograms, Timeline};
use crate::paged::Paged;
use crate::session::{Session, Stop};
use crate::workflow::Workflow;
use crate::wrapper::{ReportBuilder, Segment, SegmentReport};
use batchsim::availability::AvailabilityModel;
use batchsim::factory::{FactoryConfig, WorkerFactory};
use batchsim::log::{LeaveReason, WorkerLog};
use batchsim::pool::{OpportunisticPool, PoolConfig};
use cvmfssim::catalog::ReleaseFootprint;
use cvmfssim::squid::{Squid, SquidConfig, TimedOut};
use gridstore::chirp::{ChirpConfig, ChirpDown, ChirpServer};
use gridstore::xrootd::{Federation, FederationConfig};
use simkit::fault::CrashPoint;
use simkit::prelude::*;
use simkit::queue::Grant;
use simkit::stats::TimeSeries;
use simnet::link::FlowId;
use simnet::outage::OutageSchedule;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::Path;
use wqueue::sim::{DispatchBuffer, WorkerTable};
use wqueue::task::{Category, DeadLetter, FailureCode, TaskId};

/// Merge-task CPU per GB of merged data.
const MERGE_CPU_PER_GB: SimDuration = SimDuration::from_mins(1);
/// Hadoop merge: parallel reducers.
const HADOOP_REDUCERS: usize = 20;

/// Simulation-only parameters on top of [`LobsterConfig`].
#[derive(Clone, Debug)]
pub struct SimParams {
    /// Worker availability (eviction) model.
    pub availability: AvailabilityModel,
    /// Opportunistic pool behaviour (owner demand).
    pub pool: PoolConfig,
    /// Wide-area outage schedule.
    pub outages: OutageSchedule,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Sandbox transfer service time per dispatch (through a foreman).
    pub sandbox_service: SimDuration,
    /// Concurrent sandbox transfers per foreman.
    pub foreman_capacity: usize,
    /// Result-collection time per task.
    pub wq_collect: SimDuration,
    /// Timeline bin width.
    pub timeline_bin: SimDuration,
    /// Hadoop merge: per-reducer throughput (bytes/second).
    pub hadoop_rate: f64,
    /// Enable the §8 adaptive task sizing controller.
    pub adaptive: bool,
    /// Controller parameters (match `per_task_overhead` to the actual
    /// per-task overhead of the environment, or Young's formula will
    /// target the wrong task length).
    pub adaptive_cfg: AdaptiveConfig,
    /// Per-stream WAN cap (bytes/second).
    pub wan_stream_cap: f64,
    /// Squid proxy sizing.
    pub squid: SquidConfig,
    /// Injected infrastructure faults (squid / Chirp / federation
    /// degradation windows), applied on top of the outage schedule.
    pub faults: FaultPlan,
    /// Event-queue backend. `Calendar` is the production default;
    /// `ReferenceHeap` keeps the original binary-heap engine for the
    /// differential trace tests.
    pub engine: EngineKind,
    /// Federation consumer label for this master. Historically a single
    /// hard-coded constant ([`ClusterSim::CONSUMER`]) — a latent
    /// single-master assumption: with several tenants on one grid, every
    /// transfer dashboard row was credited to the same consumer. `None`
    /// keeps the classic label.
    pub tenant_label: Option<String>,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            availability: AvailabilityModel::notre_dame(),
            pool: PoolConfig::default(),
            outages: OutageSchedule::none(),
            horizon: SimDuration::from_hours(48),
            sandbox_service: SimDuration::from_secs(15),
            foreman_capacity: 50,
            wq_collect: SimDuration::from_secs(10),
            timeline_bin: SimDuration::from_mins(30),
            hadoop_rate: 100e6,
            adaptive: false,
            adaptive_cfg: AdaptiveConfig::default(),
            wan_stream_cap: 10e6,
            squid: SquidConfig::default(),
            faults: FaultPlan::none(),
            engine: EngineKind::default(),
            tenant_label: None,
        }
    }
}

/// Driver events.
#[derive(Debug)]
pub enum Ev {
    /// Kick-off: decompose workflows, start provisioning chains.
    Start,
    /// Owner-demand tick.
    PoolTick,
    /// Factory replenishment tick.
    Replenish,
    /// A submitted worker's provisioning delay elapsed.
    WorkerArrive,
    /// A worker's availability interval expired.
    WorkerEvict(u64),
    /// Try to assign buffered tasks to free slots.
    Dispatch,
    /// Sandbox transfer finished; begin environment setup. Carries the
    /// attempt number so events from superseded attempts are ignored.
    SandboxDone(TaskId, u32),
    /// Several sandbox transfers granted at the same instant by one
    /// dispatch round finish together: one event carries the whole batch
    /// (in grant order), instead of one event per task. Handling order is
    /// identical to consecutive [`Ev::SandboxDone`] events — the payloads
    /// were scheduled back-to-back, so nothing could interleave — and the
    /// drained Vec is recycled through the dispatch batch pool.
    SandboxBatch(Vec<(TaskId, u32)>),
    /// A squid may have finished serving flows.
    SquidWake(usize),
    /// The federation may have finished transfers.
    FedWake,
    /// An outage window starts or ends.
    OutageWake,
    /// An injected fault window starts or ends.
    FaultWake,
    /// A Chirp-staged input fully landed; execution starts.
    DataStaged(TaskId, u32),
    /// CPU (and streaming input) finished; begin stage-out.
    ExecDone(TaskId, u32),
    /// Chirp upload finished; begin result collection.
    StageOutDone(TaskId, u32),
    /// Result reached the master; the task is complete.
    CollectDone(TaskId, u32),
    /// One Hadoop merge group finished.
    HadoopGroupDone(usize),
    /// A slot held back after an environment-setup failure frees up.
    SlotFree(u64),
    /// A segment watchdog deadline expired (sequence guards staleness).
    Deadline(TaskId, u64),
    /// A backed-off retry re-enters the ready queue.
    Requeue(TaskId),
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Phase {
    Queued,
    Sandbox,
    EnvSetup,
    /// Staged input transfer in flight (blocks execution).
    Data,
    Exec,
    StageOut,
    Collect,
}

struct TaskInfo {
    wf: usize,
    category: Category,
    input_bytes: u64,
    output_bytes: u64,
    cpu: SimDuration,
    phase: Phase,
    worker: Option<u64>,
    builder: Option<ReportBuilder>,
    enqueued_at: SimTime,
    phase_started: SimTime,
    env_flow: Option<(usize, FlowId)>,
    data_flow: Option<FlowId>,
    attempt: u32,
    /// Armed segment watchdog: (sequence, guarded segment, deadline event).
    watchdog: Option<(u64, Segment, EventId)>,
}

impl TaskInfo {
    /// A task waiting for dispatch since `at`, with `attempt` dispatches
    /// behind it. A merge task's inputs stay in the db's open group.
    fn queued(
        wf: usize,
        category: Category,
        input_bytes: u64,
        output_bytes: u64,
        cpu: SimDuration,
        at: SimTime,
        attempt: u32,
    ) -> Self {
        TaskInfo {
            wf,
            category,
            input_bytes,
            output_bytes,
            cpu,
            phase: Phase::Queued,
            worker: None,
            builder: None,
            enqueued_at: at,
            phase_started: at,
            env_flow: None,
            data_flow: None,
            attempt,
            watchdog: None,
        }
    }
}

/// In-flight task ledger. Analysis ids are handed out densely from 0,
/// so they index a direct paged slab; merge ids (>=
/// [`crate::db::MERGE_ID_BASE`]) are sparse and few at a time, so they
/// stay in an ordered map. Rows are boxed so a vacant slot costs one
/// pointer, not a whole row.
struct TaskTable {
    analysis: Paged<Option<Box<TaskInfo>>>,
    merge: BTreeMap<TaskId, Box<TaskInfo>>,
    live: usize,
}

impl TaskTable {
    fn new() -> Self {
        TaskTable {
            analysis: Paged::new(),
            merge: BTreeMap::new(),
            live: 0,
        }
    }

    fn get(&self, id: TaskId) -> Option<&TaskInfo> {
        if id.0 < crate::db::MERGE_ID_BASE {
            self.analysis.get(usize::try_from(id.0).ok()?)?.as_deref()
        } else {
            self.merge.get(&id).map(|b| &**b)
        }
    }

    fn get_mut(&mut self, id: TaskId) -> Option<&mut TaskInfo> {
        if id.0 < crate::db::MERGE_ID_BASE {
            self.analysis
                .get_mut(usize::try_from(id.0).ok()?)?
                .as_deref_mut()
        } else {
            self.merge.get_mut(&id).map(|b| &mut **b)
        }
    }

    fn insert(&mut self, id: TaskId, t: TaskInfo) {
        let prev = if id.0 < crate::db::MERGE_ID_BASE {
            let ix = usize::try_from(id.0).expect("analysis id fits usize");
            if ix >= self.analysis.len() {
                self.analysis.resize_with(ix + 1, || None);
            }
            self.analysis[ix].replace(Box::new(t))
        } else {
            self.merge.insert(id, Box::new(t))
        };
        debug_assert!(prev.is_none(), "task {id:?} inserted while in flight");
        self.live += 1;
    }

    fn remove(&mut self, id: TaskId) -> Option<TaskInfo> {
        let t = if id.0 < crate::db::MERGE_ID_BASE {
            self.analysis.get_mut(usize::try_from(id.0).ok()?)?.take()
        } else {
            self.merge.remove(&id)
        };
        if t.is_some() {
            self.live -= 1;
        }
        t.map(|b| *b)
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// A run's outcome as of one instant: live from [`Session::status`],
/// final from [`Session::finish`].
#[derive(Debug)]
pub struct RunReport {
    /// Figure 8 accounting.
    pub accounting: Accounting,
    /// Figure 10/11 time lines (all tasks).
    pub timeline: Timeline,
    /// Analysis-task completions per bin (Figure 7 white bars).
    pub analysis_done: TimeSeries,
    /// Merge completions per bin (Figure 7 gray bars).
    pub merge_done: TimeSeries,
    /// §5 advisor diagnosis.
    pub advice: Vec<crate::monitor::Advice>,
    /// Advisor input signals: `(signal, mean minutes, samples)` where the
    /// denominator counts only attempts that measured the signal.
    pub advisor_signals: Vec<(&'static str, f64, u64)>,
    /// §5 per-segment duration histograms.
    pub segment_histograms: SegmentHistograms,
    /// Figure 9 dashboard rows (consumer, bytes).
    pub dashboard: Vec<(String, f64)>,
    /// Worker join/leave log (Figure 2 input).
    pub worker_log: WorkerLog,
    /// Successful analysis attempts.
    pub tasks_completed: u64,
    /// Failed attempts (all causes, incl. evictions).
    pub tasks_failed: u64,
    /// Attempts lost to eviction.
    pub evictions: u64,
    /// Merge tasks (or Hadoop groups) completed.
    pub merges_completed: u64,
    /// Merged files written, `(name, bytes)`.
    pub merged_files: Vec<(String, u64)>,
    /// Instant everything (processing + merging) finished, if it did.
    pub finished_at: Option<SimTime>,
    /// Simulated end of the run.
    pub ended_at: SimTime,
    /// Peak concurrent tasks observed.
    pub peak_concurrency: f64,
    /// Final task size chosen by the adaptive controller (if enabled).
    pub final_task_size: u32,
    /// Tasks withdrawn after exhausting their retry budget.
    pub dead_letters: Vec<DeadLetter>,
    /// Engine events delivered over the run (throughput diagnostics).
    pub events_delivered: u64,
}

/// The cluster simulation model.
pub struct ClusterSim {
    cfg: LobsterConfig,
    pub(crate) params: SimParams,
    rng: SimRng,
    pub(crate) db: LobsterDb,
    workflows: Vec<Workflow>,
    tasks: TaskTable,
    buffer: DispatchBuffer,
    /// Merge tasks awaiting dispatch (kept out of the analysis buffer so
    /// bookkeeping stays by category).
    merge_queue: VecDeque<TaskId>,
    table: WorkerTable,
    factory: WorkerFactory,
    pool: OpportunisticPool,
    pub(crate) log: WorkerLog,
    worker_evict_ev: BTreeMap<u64, EventId>,
    /// Tasks running per worker, indexed by dense worker id (push order;
    /// eviction sorts the survivors so processing stays id-ordered).
    running_on: Vec<Vec<TaskId>>,
    /// Total analysis tasklets across all workflows, fixed at start-up
    /// (the merge gate divides by it on every completion).
    analysis_units: u64,
    foremen: Vec<Server>,
    squids: Vec<Squid>,
    squid_wake: Vec<Option<EventId>>,
    squid_flows: Vec<BTreeMap<FlowId, TaskId>>,
    /// Per-squid: cold-fill flow → worker (alien-cache shared fills).
    squid_fill_flows: Vec<BTreeMap<FlowId, u64>>,
    /// Worker → (squid, fill flow, tasks waiting on the fill).
    env_fill: BTreeMap<u64, (usize, FlowId, Vec<TaskId>)>,
    fed: Federation,
    fed_wake: Option<EventId>,
    fed_flows: BTreeMap<FlowId, TaskId>,
    chirp: ChirpServer,
    catalog: ReleaseFootprint,
    /// Finished outputs not yet claimed by any merge group, in finish
    /// order (fed per completion — no rescan of the db).
    planner: MergePlanner,
    hadoop_groups: Vec<MergeGroup>,
    /// Sequential / Hadoop: the end-of-processing merge plan is made.
    end_planned: bool,
    /// The diagnostic sink. Accounting, run counters and the dead-letter
    /// ledger live in the db (journaled, so they survive a master crash).
    pub(crate) monitor: Monitor,
    finished_at: Option<SimTime>,
    /// One adaptive sizing controller per workflow.
    sizers: Vec<AdaptiveSizer>,
    /// Monotone sequence distinguishing watchdog armings.
    watchdog_seq: u64,
    /// Per-worker consecutive environment-setup failures (slot-hold
    /// backoff input; reset on the next env success there).
    env_fail_streak: BTreeMap<u64, u32>,
    /// Reused buffer for factory replenishment delays (one call per
    /// simulated minute; no per-tick Vec).
    scratch_delays: Vec<SimDuration>,
    /// Reused buffer for link-completion draining (squid and federation
    /// wakes run once per predicted completion; no per-wake Vec).
    scratch_flows: Vec<FlowId>,
    /// Recycled payload buffers for batched same-instant sandbox grants:
    /// a drained [`Ev::SandboxBatch`] returns its Vec here for the next
    /// dispatch round to refill.
    batch_pool: Vec<Vec<(TaskId, u32)>>,
    /// Federation consumer label (per-tenant under multi-tenancy).
    consumer: String,
    /// Shared-site cache warmth per dataset, in `[0, 1]`: the fraction of
    /// a stage-in that the shared squids / alien caches can serve without
    /// crossing the WAN, because *another* tenant already pulled it. Set
    /// by the multi-tenant coordinator between rounds; empty (the
    /// single-master default) leaves every transfer fully cold.
    dataset_warmth: BTreeMap<String, f64>,
    /// WAN bytes this master pulled per dataset (cold-side accounting the
    /// coordinator reads to advance the shared cache model).
    wan_by_dataset: BTreeMap<String, u64>,
}

impl ClusterSim {
    /// The consumer label used for federation accounting.
    pub const CONSUMER: &'static str = "T3_US_NotreDame (Lobster)";

    /// Build a simulation from a Lobster configuration, sim parameters and
    /// the workflows' decompositions (one per `cfg.workflows` entry,
    /// produced by [`Workflow::from_dataset`] / [`Workflow::simulation`]).
    /// State lives in an in-memory db — nothing survives the process.
    pub fn new(cfg: LobsterConfig, params: SimParams, workflows: Vec<Workflow>) -> Self {
        let mut db = LobsterDb::in_memory();
        for wf in &workflows {
            db.register_workflow(&wf.name, wf.n_tasklets());
        }
        Self::with_db(cfg, params, workflows, db)
    }

    /// Build a *fresh* simulation whose db journals every transition to
    /// `path`, compacting per `cfg.journal`. Fails with `AlreadyExists`
    /// when the journal already holds run state — use [`ClusterSim::resume`]
    /// to continue such a run.
    pub fn durable(
        cfg: LobsterConfig,
        params: SimParams,
        workflows: Vec<Workflow>,
        path: impl AsRef<Path>,
    ) -> io::Result<Self> {
        let mut db = LobsterDb::open_with_policy(path, &cfg.journal)?;
        if db.workflow_count() > 0 || db.task_count() > 0 {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "journal already holds run state; use ClusterSim::resume",
            ));
        }
        for wf in &workflows {
            db.register_workflow(&wf.name, wf.n_tasklets());
        }
        Ok(Self::with_db(cfg, params, workflows, db))
    }

    /// Restart a crashed run from its journal at `path`: replay the
    /// durable state, mark tasks that were in flight at the crash as
    /// lost (requeueing them through the retry policy), re-issue planned
    /// merges, and rebuild the merge planner's pending buffer so every
    /// output still lands in exactly one merged file.
    ///
    /// The simulated clock restarts at zero and the rng stream is
    /// re-seeded, so a resumed run's *timing* diverges from the
    /// uninterrupted run — but its accounting converges: the same
    /// tasklets get done, the same bytes get merged.
    ///
    /// Fails with `NotFound`, creating nothing, when `path` does not
    /// exist: a mistyped path must not start the campaign over. A
    /// directory with no committed record (a crash inside the first
    /// commit window leaves one) resumes as a fresh run.
    pub fn resume(
        cfg: LobsterConfig,
        params: SimParams,
        workflows: Vec<Workflow>,
        path: impl AsRef<Path>,
    ) -> io::Result<Self> {
        let path = path.as_ref();
        if !path.try_exists()? {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no journal at {path:?}; use ClusterSim::durable to start a run"),
            ));
        }
        let mut db = LobsterDb::open_with_policy(path, &cfg.journal)?;
        for wf in &workflows {
            if !db.has_workflow(&wf.name) {
                db.register_workflow(&wf.name, wf.n_tasklets());
            } else if db.total_tasklets(&wf.name) != wf.n_tasklets() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "workflow {} has {} tasklets in the journal but {} in the config",
                        wf.name,
                        db.total_tasklets(&wf.name),
                        wf.n_tasklets()
                    ),
                ));
            }
        }
        let mut sim = Self::with_db(cfg, params, workflows, db);
        sim.reconcile_recovered();
        Ok(sim)
    }

    /// Shared constructor over an already-populated db.
    fn with_db(
        cfg: LobsterConfig,
        params: SimParams,
        workflows: Vec<Workflow>,
        db: LobsterDb,
    ) -> Self {
        assert_eq!(
            cfg.workflows.len(),
            workflows.len(),
            "one decomposition per workflow"
        );
        assert!(
            cfg.validate().is_empty(),
            "invalid config: {:?}",
            cfg.validate()
        );
        let rng = SimRng::new(cfg.seed);
        let n_workers = (cfg.workers.target_cores / cfg.workers.cores_per_worker).max(1);
        let factory = WorkerFactory::new(FactoryConfig {
            target_workers: n_workers,
            cores_per_worker: cfg.workers.cores_per_worker,
            mean_submit_delay: SimDuration::from_mins(2),
            burst: 2_000,
        });
        let pool = OpportunisticPool::new(params.pool, rng.split(1));
        let n_squids = cfg.infra.n_squids as usize;
        if let Err(e) = params.faults.validate(n_squids) {
            // A squid fault aimed past the deployed set would otherwise be
            // silently inert for the whole run, so reject at construction.
            // simlint::allow(no-panic-in-lib): configuration error at sim construction
            panic!("invalid fault plan: {e}");
        }
        let squids: Vec<Squid> = (0..n_squids).map(|_| Squid::new(params.squid)).collect();
        let fed = Federation::new(FederationConfig {
            wan_bandwidth: simnet::units::gbit_per_s(cfg.infra.wan_gbits),
            per_stream_cap: params.wan_stream_cap,
            outages: params.outages.clone(),
        });
        let chirp = ChirpServer::new(ChirpConfig {
            max_connections: cfg.infra.chirp_connections as usize,
            ..ChirpConfig::default()
        });
        let foremen: Vec<Server> = (0..cfg.infra.n_foremen.max(1) as usize)
            .map(|_| Server::new(params.foreman_capacity))
            .collect();
        let planner = MergePlanner::new(cfg.merge_target_bytes);
        let monitor = Monitor::new(params.timeline_bin);
        // One controller per workflow, each seeded from its own task size
        // (workflows may mix very different tasklet densities).
        let sizers: Vec<AdaptiveSizer> = cfg
            .workflows
            .iter()
            .map(|w| AdaptiveSizer::new(params.adaptive_cfg, w.tasklets_per_task))
            .collect();
        let catalog = ReleaseFootprint::cmssw_default(cfg.seed ^ 0xCAFE);
        let analysis_units: u64 = workflows.iter().map(|w| w.n_tasklets()).sum();
        let consumer = params
            .tenant_label
            .clone()
            .unwrap_or_else(|| Self::CONSUMER.to_string());
        ClusterSim {
            rng: rng.split(0),
            cfg,
            params,
            db,
            workflows,
            tasks: TaskTable::new(),
            buffer: DispatchBuffer::new(),
            merge_queue: VecDeque::new(),
            table: WorkerTable::new(),
            factory,
            pool,
            log: WorkerLog::new(),
            worker_evict_ev: BTreeMap::new(),
            running_on: Vec::new(),
            analysis_units,
            foremen,
            squid_wake: vec![None; n_squids],
            squid_flows: (0..n_squids).map(|_| BTreeMap::new()).collect(),
            squid_fill_flows: (0..n_squids).map(|_| BTreeMap::new()).collect(),
            env_fill: BTreeMap::new(),
            squids,
            fed,
            fed_wake: None,
            fed_flows: BTreeMap::new(),
            chirp,
            catalog,
            planner,
            hadoop_groups: Vec::new(),
            end_planned: false,
            monitor,
            finished_at: None,
            sizers,
            watchdog_seq: 0,
            env_fail_streak: BTreeMap::new(),
            scratch_delays: Vec::new(),
            scratch_flows: Vec::new(),
            batch_pool: Vec::new(),
            consumer,
            dataset_warmth: BTreeMap::new(),
            wan_by_dataset: BTreeMap::new(),
        }
    }

    /// Bring the driver's in-memory scheduling state back in line with
    /// the recovered db after [`ClusterSim::resume`].
    fn reconcile_recovered(&mut self) {
        // Attempt reports replayed off the journal tail refill the
        // monitor (reports folded into a snapshot frame are gone from
        // the time lines; their accounting survives in the db).
        for report in self.db.take_replayed_attempts() {
            self.monitor.record(&report);
        }
        // Tasks created but never dispatched (the crash landed between
        // creation and dispatch) go straight back into the dispatch
        // buffer: their tasklets are already claimed off the workflow
        // cursor, so nothing else will re-cover them.
        for id in self.db.ready_tasks() {
            self.restore_analysis_task(id);
        }
        // Tasks in flight when the master died never reported back; the
        // restarted master treats them like evicted attempts.
        for id in self.db.running_tasks() {
            if self.cfg.retry.max_attempts.is_none() {
                // Unbounded policy: return the tasklets to the pool and
                // let fresh tasks re-cover them.
                if let Err(e) = self.db.mark_lost(id) {
                    debug_assert!(false, "recovered task not requeueable: {e}");
                }
                continue;
            }
            // Bounded budget: keep the task identity so the dispatch
            // count keeps charging against the budget.
            self.restore_analysis_task(id);
        }
        // Planned-but-incomplete merge groups are re-issued verbatim
        // (same id, same inputs) so merging stays exactly-once.
        for (id, inputs) in self.db.open_merge_groups() {
            let bytes = inputs.iter().map(|i| i.1).sum();
            self.queue_merge_task(id, bytes, SimTime::ZERO);
        }
        // Outputs not yet claimed by any group refill the planner in
        // their original finish order.
        for (id, bytes) in self.db.done_order_unmerged() {
            self.planner.push(id, bytes);
        }
    }

    /// Rebuild the in-memory [`TaskInfo`] for a recovered analysis task
    /// and return it to the dispatch buffer. The CPU draw is re-sampled
    /// from the restarted rng stream (attempt timing is not journaled),
    /// which perturbs timing but not coverage.
    fn restore_analysis_task(&mut self, id: TaskId) {
        let Some(wf_idx) = self
            .db
            .task_workflow(id)
            .and_then(|name| self.workflows.iter().position(|w| w.name == name))
        else {
            return;
        };
        self.queue_analysis_task(id, wf_idx, SimTime::ZERO, self.db.attempts(id));
    }

    /// Run a fresh in-memory simulation to the horizon.
    ///
    /// This and the next two entry points are one-call wrappers over a
    /// [`Session`]. They stay public because the benchmark's pin test
    /// (`perfbench/tests/drive.rs`) compares its own drive loop against
    /// them; they can go once perfbench drives a `Session` itself.
    pub fn run(cfg: LobsterConfig, params: SimParams, workflows: Vec<Workflow>) -> RunReport {
        let mut session = Session::start(Self::new(cfg, params, workflows));
        session.advance(session.horizon(), u64::MAX);
        session.finish()
    }

    /// Resume a crashed durable run from its journal and run it to the
    /// horizon.
    pub fn resume_run(
        cfg: LobsterConfig,
        params: SimParams,
        workflows: Vec<Workflow>,
        path: impl AsRef<Path>,
    ) -> io::Result<RunReport> {
        let mut session = Session::start(Self::resume(cfg, params, workflows, path)?);
        session.advance(session.horizon(), u64::MAX);
        Ok(session.finish())
    }

    /// Run a fresh durable simulation but kill the master at `crash`:
    /// after that many delivered events the session crashes at
    /// `crash.site` and `Ok(None)` is returned — only the journal
    /// survives, for [`ClusterSim::resume`]. When the run drains (or
    /// hits the horizon) before the crash point, the completed report is
    /// returned instead.
    pub fn run_durable_until_crash(
        cfg: LobsterConfig,
        params: SimParams,
        workflows: Vec<Workflow>,
        path: impl AsRef<Path>,
        crash: CrashPoint,
    ) -> io::Result<Option<RunReport>> {
        let mut session = Session::start(Self::durable(cfg, params, workflows, path)?);
        if session.advance(session.horizon(), crash.after_events) == Stop::Budget {
            session.crash(crash.site);
            return Ok(None);
        }
        Ok(Some(session.finish()))
    }

    /// Fold the final model state into a [`RunReport`] ([`Session::finish`]).
    /// Public for the one harness that still drives the [`Engine`]
    /// itself, the benchmark's (`perfbench`) instrumented loop.
    pub fn into_report(mut self, ended_at: SimTime, events_delivered: u64) -> RunReport {
        // A completed run is a durability boundary: drain any open
        // group-commit window before reporting.
        self.db.flush();
        let monitor = std::mem::replace(&mut self.monitor, Monitor::new(self.params.timeline_bin));
        let worker_log = std::mem::take(&mut self.log);
        self.report(monitor, worker_log, ended_at, events_delivered)
    }

    /// The run's report as of `ended_at`, the one constructor behind a
    /// finished run ([`ClusterSim::into_report`] moves the monitor and
    /// the worker log in) and a live one ([`Session::status`] passes
    /// copies).
    pub(crate) fn report(
        &self,
        monitor: Monitor,
        worker_log: WorkerLog,
        ended_at: SimTime,
        events_delivered: u64,
    ) -> RunReport {
        let concurrency = monitor.timeline.concurrency();
        let peak = concurrency.iter().copied().fold(0.0, f64::max);
        let counters = self.db.counters();
        RunReport {
            advice: monitor.advisor.diagnose(&AdvisorConfig::default()),
            advisor_signals: monitor.advisor.signal_means(),
            segment_histograms: monitor.segments,
            accounting: self.db.accounting().clone(),
            timeline: monitor.timeline,
            analysis_done: monitor.analysis_done,
            merge_done: monitor.merge_done,
            dashboard: self.fed.dashboard(),
            worker_log,
            tasks_completed: counters.tasks_completed,
            tasks_failed: counters.tasks_failed,
            evictions: counters.evictions,
            merges_completed: counters.merges_completed,
            merged_files: self.db.merged_files(),
            finished_at: self.finished_at,
            ended_at,
            peak_concurrency: peak,
            final_task_size: self.sizers[0].current(),
            dead_letters: self.db.dead_letters().to_vec(),
            events_delivered,
        }
    }

    // ----- multi-tenant coordination surface --------------------------------
    //
    // A multi-tenant coordinator steps several sessions over one
    // shared pool. Between rounds it reads demand and WAN accounting here,
    // and writes back the arbiter's core cap and the shared-cache warmth.

    /// Bound the cores this master's pool slice may hold (the arbiter's
    /// fair-share grant). Overage is preempted on the next pool tick.
    pub fn set_core_cap(&mut self, cap: u32) {
        self.pool.set_share_cap(Some(cap));
    }

    /// Tasklets not yet done or dead-lettered — the demand signal the
    /// fair-share arbiter sees. Derived purely from journaled state so a
    /// crash + resume reproduces the same value.
    pub fn work_remaining(&self) -> u64 {
        self.analysis_units
            .saturating_sub(self.db.total_done_tasklets())
            .saturating_sub(self.db.total_dead_tasklets())
    }

    /// Whether the whole campaign (including merges) has completed.
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Outputs not yet folded into a merged file — the merge-side demand
    /// signal. Covers planned, queued and in-flight merges (the count
    /// only drops when a merge *completes*), so an arbiter that would
    /// otherwise see zero analysis work left still grants the cores the
    /// merge tail needs.
    pub fn merge_backlog(&self) -> u64 {
        self.db.merge_backlog() as u64
    }

    /// Set the shared-site cache warmth for `dataset` in `[0, 1]`: the
    /// fraction of future stage-ins served without crossing the WAN.
    pub fn set_dataset_warmth(&mut self, dataset: &str, frac: f64) {
        self.dataset_warmth
            .insert(dataset.to_string(), frac.clamp(0.0, 1.0));
    }

    /// WAN bytes pulled so far, per dataset (cold-side accounting).
    pub fn wan_bytes_by_dataset(&self) -> &BTreeMap<String, u64> {
        &self.wan_by_dataset
    }

    /// Simulate a process crash for an externally-driven engine: drop the
    /// open group-commit window without flushing, abandoning the model —
    /// [`Session::crash`] inside the commit window, kept public for the
    /// benchmark's (`perfbench`) own drive loop.
    pub fn crash_now(mut self) {
        self.db.crash();
    }

    // ----- task creation ---------------------------------------------------

    fn task_size(&self, wf: usize) -> u32 {
        if self.params.adaptive {
            self.sizers[wf].current()
        } else {
            self.cfg.workflows[wf].tasklets_per_task
        }
    }

    fn refill_buffer(&mut self, now: SimTime) {
        while self.buffer.deficit() > 0 {
            let mut created = false;
            for wf_idx in 0..self.workflows.len() {
                let size = self.task_size(wf_idx);
                // Disjoint field borrows: no per-task clone of the name.
                let created_id = self.db.create_task(&self.workflows[wf_idx].name, size);
                if let Some(id) = created_id {
                    self.queue_analysis_task(id, wf_idx, now, 0);
                    created = true;
                    break;
                }
            }
            if !created {
                break;
            }
        }
    }

    /// Queue analysis task `id` of workflow `wf_idx` for dispatch, drawing
    /// its CPU time from the rng.
    fn queue_analysis_task(&mut self, id: TaskId, wf_idx: usize, at: SimTime, attempt: u32) {
        let n = self.db.task_tasklet_count(id).unwrap_or(0) as u32;
        let wf = &self.workflows[wf_idx];
        let cpu = wf.sample_task_cpu(n, &mut self.rng);
        let (input, output) = (wf.task_input_bytes(n), wf.task_output_bytes(n));
        let t = TaskInfo::queued(wf_idx, Category::Analysis, input, output, cpu, at, attempt);
        self.tasks.insert(id, t);
        self.buffer.push(id);
    }

    fn create_merge_task(&mut self, now: SimTime, group: &MergeGroup) {
        // Journal the group first: a crash between planning and
        // completion re-issues exactly this merge on resume.
        match self.db.create_merge_group(&group.inputs) {
            Ok(id) => self.queue_merge_task(id, group.bytes(), now),
            Err(e) => debug_assert!(false, "planner drained an unmergeable group: {e}"),
        }
    }

    /// Queue merge task `id` (a journaled group of `bytes`) for dispatch.
    fn queue_merge_task(&mut self, id: TaskId, bytes: u64, at: SimTime) {
        let cpu = MERGE_CPU_PER_GB.mul_f64(bytes as f64 / 1e9);
        let t = TaskInfo::queued(0, Category::Merge, bytes, bytes, cpu, at, 0);
        self.tasks.insert(id, t);
        self.merge_queue.push_back(id);
    }

    // ----- dispatch --------------------------------------------------------

    /// Flush a batch of same-instant sandbox grants as one event (or a
    /// plain [`Ev::SandboxDone`] when the batch holds a single task).
    fn flush_sandbox_batch(
        &mut self,
        done: SimTime,
        mut batch: Vec<(TaskId, u32)>,
        ctx: &mut Ctx<Ev>,
    ) {
        if batch.len() == 1 {
            let (id, attempt) = batch[0];
            ctx.schedule_at(done, Ev::SandboxDone(id, attempt));
            batch.clear();
            self.batch_pool.push(batch);
        } else {
            ctx.schedule_at(done, Ev::SandboxBatch(batch));
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        self.refill_buffer(now);
        // Consecutive grants that finish at the same instant coalesce
        // into one batched event (payload buffers recycled per round).
        let mut batch: Vec<(TaskId, u32)> = self.batch_pool.pop().unwrap_or_default();
        let mut batch_done = SimTime::ZERO;
        loop {
            // Merge tasks first (they unblock publication), then analysis.
            let (id, from_merge) = if let Some(&id) = self.merge_queue.front() {
                (id, true)
            } else if let Some(id) = self.buffer.pop() {
                (id, false)
            } else {
                break;
            };
            let Some(worker) = self.table.claim_slot() else {
                if !from_merge {
                    self.buffer.push_front(id);
                }
                break;
            };
            if from_merge {
                self.merge_queue.pop_front();
            }
            let foreman = self.table.get(worker).expect("claimed").foreman;
            let grant = self.foremen[foreman].offer(now, self.params.sandbox_service);
            let t = self.tasks.get_mut(id).expect("queued task");
            t.phase = Phase::Sandbox;
            t.worker = Some(worker);
            t.attempt += 1;
            t.phase_started = now;
            let attempt = t.attempt;
            let mut builder = ReportBuilder::new(id, t.category, t.attempt - 1, worker, now);
            builder.times_mut().queued = now - t.enqueued_at;
            builder.times_mut().wq_stage_in = grant.done - now;
            t.builder = Some(builder);
            let category = t.category;
            if category == Category::Analysis {
                if let Err(e) = self.db.mark_running(id) {
                    debug_assert!(false, "dispatched a task the db rejects: {e}");
                }
            }
            let rix = worker as usize;
            if rix >= self.running_on.len() {
                self.running_on.resize_with(rix + 1, Vec::new);
            }
            self.running_on[rix].push(id);
            if !batch.is_empty() && batch_done != grant.done {
                let full = std::mem::replace(&mut batch, self.batch_pool.pop().unwrap_or_default());
                self.flush_sandbox_batch(batch_done, full, ctx);
            }
            batch_done = grant.done;
            batch.push((id, attempt));
        }
        if batch.is_empty() {
            self.batch_pool.push(batch);
        } else {
            self.flush_sandbox_batch(batch_done, batch, ctx);
        }
    }

    // ----- wrapper segments -------------------------------------------------

    fn on_sandbox_done(&mut self, id: TaskId, attempt: u32, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        let worker = {
            let Some(t) = self.tasks.get_mut(id) else {
                return;
            };
            if t.phase != Phase::Sandbox || t.attempt != attempt {
                return; // stale (evicted or retried meanwhile)
            }
            t.phase = Phase::EnvSetup;
            t.phase_started = now;
            let Some(w) = t.worker else { return };
            w
        };
        self.arm_watchdog(id, Segment::EnvInit, None, ctx);
        let hot = self.table.get(worker).map(|w| w.cache_hot).unwrap_or(false);
        let squid_idx = (worker as usize) % self.squids.len();
        if hot {
            // Cheap re-validation + conditions payload, one per task.
            let bytes = self.catalog.hot_bytes();
            match self.squid_admit(squid_idx, now, bytes) {
                Ok(flow) => {
                    self.squid_flows[squid_idx].insert(flow, id);
                    if let Some(t) = self.tasks.get_mut(id) {
                        t.env_flow = Some((squid_idx, flow));
                    }
                    self.reschedule_squid(squid_idx, ctx);
                }
                Err(TimedOut) => self.fail_attempt(id, Segment::EnvInit, false, ctx),
            }
        } else if self.cfg.infra.alien_cache {
            // Alien cache (§4.3): one cold fill per worker; concurrent
            // tasks on the same worker *join* the in-flight fill instead
            // of issuing their own.
            if let Some((_, _, waiters)) = self.env_fill.get_mut(&worker) {
                waiters.push(id);
                return;
            }
            let bytes = self.catalog.total_bytes();
            match self.squid_admit(squid_idx, now, bytes) {
                Ok(flow) => {
                    self.squid_fill_flows[squid_idx].insert(flow, worker);
                    self.env_fill.insert(worker, (squid_idx, flow, vec![id]));
                    self.reschedule_squid(squid_idx, ctx);
                }
                Err(TimedOut) => self.fail_attempt(id, Segment::EnvInit, false, ctx),
            }
        } else {
            // No alien cache: every task pays the full cold fill into its
            // own cache directory (Figure 6(b) economics).
            let bytes = self.catalog.total_bytes();
            match self.squid_admit(squid_idx, now, bytes) {
                Ok(flow) => {
                    self.squid_flows[squid_idx].insert(flow, id);
                    if let Some(t) = self.tasks.get_mut(id) {
                        t.env_flow = Some((squid_idx, flow));
                    }
                    self.reschedule_squid(squid_idx, ctx);
                }
                Err(TimedOut) => self.fail_attempt(id, Segment::EnvInit, false, ctx),
            }
        }
    }

    /// Squid request with any injected failure probability applied first
    /// (the fault layer models proxies that drop connections outright).
    fn squid_admit(&mut self, idx: usize, now: SimTime, bytes: u64) -> Result<FlowId, TimedOut> {
        let p = self.squids[idx].fault().failure_prob();
        if p > 0.0 && self.rng.chance(p) {
            return Err(TimedOut);
        }
        self.squids[idx].request(now, bytes)
    }

    /// Chirp read with any injected failure probability applied first.
    fn chirp_admit_get(&mut self, now: SimTime, bytes: u64) -> Result<Grant, ChirpDown> {
        let p = self.chirp.fault().failure_prob();
        if p > 0.0 && self.rng.chance(p) {
            return Err(ChirpDown);
        }
        self.chirp.try_get(now, bytes)
    }

    /// Chirp write with any injected failure probability applied first.
    fn chirp_admit_put(&mut self, now: SimTime, bytes: u64) -> Result<Grant, ChirpDown> {
        let p = self.chirp.fault().failure_prob();
        if p > 0.0 && self.rng.chance(p) {
            return Err(ChirpDown);
        }
        self.chirp.try_put(now, bytes)
    }

    // ----- segment watchdogs -------------------------------------------------

    /// The configured deadline for `segment`, if any.
    fn segment_deadline(&self, segment: Segment) -> Option<SimDuration> {
        let d = &self.cfg.retry.deadlines;
        match segment {
            Segment::EnvInit => d.env_setup,
            Segment::StageIn => d.stage_in,
            Segment::Execute => d.execute,
            Segment::StageOut => d.stage_out,
            Segment::Compatibility => None,
        }
    }

    /// Arm (or re-arm) `id`'s watchdog for `segment`, expiring `deadline`
    /// after `from`. No-op when the segment has no configured deadline —
    /// any previously armed watchdog is still cancelled, so segments
    /// without deadlines never inherit a stale one.
    ///
    /// `completes` is the instant of the segment's completion event when
    /// that is already scheduled (a Chirp grant, an execute). A deadline
    /// no earlier than it cannot fire: the completion was scheduled
    /// first, so it is delivered first, wins a tie, and moves the task on.
    /// Such a watchdog is not scheduled, which spares the queue a slot
    /// and the tombstone its cancellation would leave.
    fn arm_watchdog_from(
        &mut self,
        id: TaskId,
        segment: Segment,
        from: SimTime,
        completes: Option<SimTime>,
        ctx: &mut Ctx<Ev>,
    ) {
        let deadline = self.segment_deadline(segment);
        let Some(t) = self.tasks.get_mut(id) else {
            return;
        };
        if let Some((_, _, ev)) = t.watchdog.take() {
            ctx.cancel(ev);
        }
        let Some(dl) = deadline else { return };
        if completes.is_some_and(|done| done <= from + dl) {
            return;
        }
        self.watchdog_seq += 1;
        let seq = self.watchdog_seq;
        let ev = ctx.schedule_at(from + dl, Ev::Deadline(id, seq));
        t.watchdog = Some((seq, segment, ev));
    }

    /// Arm `id`'s watchdog for `segment`, measured from now, ahead of a
    /// completion scheduled at `completes` if there is one.
    fn arm_watchdog(
        &mut self,
        id: TaskId,
        segment: Segment,
        completes: Option<SimTime>,
        ctx: &mut Ctx<Ev>,
    ) {
        self.arm_watchdog_from(id, segment, ctx.now(), completes, ctx);
    }

    /// Cancel `id`'s armed watchdog, if any.
    fn disarm_watchdog(&mut self, id: TaskId, ctx: &mut Ctx<Ev>) {
        if let Some(t) = self.tasks.get_mut(id) {
            if let Some((_, _, ev)) = t.watchdog.take() {
                ctx.cancel(ev);
            }
        }
    }

    fn on_deadline(&mut self, id: TaskId, seq: u64, ctx: &mut Ctx<Ev>) {
        let Some(t) = self.tasks.get_mut(id) else {
            return;
        };
        let Some((armed, segment, _)) = t.watchdog else {
            return;
        };
        if armed != seq {
            return; // stale: the watchdog was re-armed since
        }
        // This very event fired; clear without cancelling so the engine's
        // tombstone set stays clean.
        t.watchdog = None;
        self.fail_attempt(id, segment, true, ctx);
    }

    fn reschedule_squid(&mut self, idx: usize, ctx: &mut Ctx<Ev>) {
        if let Some(ev) = self.squid_wake[idx].take() {
            ctx.cancel(ev);
        }
        if let Some((when, _)) = self.squids[idx].next_completion() {
            self.squid_wake[idx] = Some(ctx.schedule_at(when, Ev::SquidWake(idx)));
        }
    }

    fn on_squid_wake(&mut self, idx: usize, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        self.squid_wake[idx] = None;
        // Drain into the reused scratch buffer — one squid wake fires per
        // predicted completion, so this path is allocation-free.
        let mut done = std::mem::take(&mut self.scratch_flows);
        self.squids[idx].completions_into(now, &mut done);
        for &flow in &done {
            if let Some(worker) = self.squid_fill_flows[idx].remove(&flow) {
                // A shared cold fill finished: the worker is hot and every
                // waiting task proceeds.
                self.table.set_cache_hot(worker);
                self.env_fail_streak.remove(&worker);
                let waiters = self
                    .env_fill
                    .remove(&worker)
                    .map(|(_, _, w)| w)
                    .unwrap_or_default();
                for id in waiters {
                    let Some(t) = self.tasks.get_mut(id) else {
                        continue;
                    };
                    if t.phase != Phase::EnvSetup || t.worker != Some(worker) {
                        continue;
                    }
                    if let Some(b) = t.builder.as_mut() {
                        b.times_mut().env_setup = now - t.phase_started;
                    }
                    self.begin_data_phase(id, ctx);
                }
                continue;
            }
            let Some(id) = self.squid_flows[idx].remove(&flow) else {
                continue;
            };
            let Some(t) = self.tasks.get_mut(id) else {
                continue;
            };
            if t.phase != Phase::EnvSetup {
                continue;
            }
            t.env_flow = None;
            if let Some(w) = t.worker {
                self.env_fail_streak.remove(&w);
            }
            if let Some(b) = t.builder.as_mut() {
                b.times_mut().env_setup = now - t.phase_started;
            }
            self.begin_data_phase(id, ctx);
        }
        self.scratch_flows = done;
        self.reschedule_squid(idx, ctx);
    }

    fn begin_data_phase(&mut self, id: TaskId, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        self.disarm_watchdog(id, ctx);
        let Some(t) = self.tasks.get_mut(id) else {
            return;
        };
        t.phase = Phase::Exec;
        t.phase_started = now;
        let (wf, kind, input, cpu, category, attempt) = (
            t.wf,
            self.workflows[t.wf].kind,
            t.input_bytes,
            t.cpu,
            t.category,
            t.attempt,
        );
        let streaming = kind == WorkloadKind::DataProcessing
            && self.cfg.access == DataAccessMode::Stream
            && category != Category::Merge;
        if input == 0 {
            // Pure generation: straight to execution.
            if let Some(b) = t.builder.as_mut() {
                b.times_mut().cpu = cpu;
            }
            ctx.schedule(cpu, Ev::ExecDone(id, attempt));
            self.arm_watchdog(id, Segment::Execute, Some(now + cpu), ctx);
        } else if kind == WorkloadKind::Simulation || category == Category::Merge {
            // Input staged from *local* storage via Chirp: the pile-up
            // overlay for simulation tasks (§6), and the already
            // staged-out analysis outputs for merge tasks (§4.4) — merge
            // inputs never cross the WAN.
            match self.chirp_admit_get(now, input) {
                Ok(grant) => {
                    let Some(t) = self.tasks.get_mut(id) else {
                        return;
                    };
                    t.phase = Phase::Data;
                    if let Some(b) = t.builder.as_mut() {
                        b.times_mut().stage_in = grant.done - now;
                    }
                    ctx.schedule_at(grant.done, Ev::DataStaged(id, attempt));
                    self.arm_watchdog(id, Segment::StageIn, Some(grant.done), ctx);
                }
                Err(ChirpDown) => self.fail_attempt(id, Segment::StageIn, false, ctx),
            }
        } else {
            // WAN-bound stage-in. Under multi-tenancy the shared squids /
            // alien caches may already hold a fraction of this dataset
            // because *another* tenant pulled it; only the cold remainder
            // crosses the WAN (cross-tenant cache economics). The warmth
            // map is empty for a solo master, leaving `wan_input == input`.
            let ds = &self.cfg.workflows[wf].dataset;
            let warm = self
                .dataset_warmth
                .get(ds)
                .copied()
                .unwrap_or(0.0)
                .clamp(0.0, 1.0);
            let warm_bytes = ((input as f64) * warm) as u64;
            let wan_input = input.saturating_sub(warm_bytes);
            if wan_input > 0 {
                *self.wan_by_dataset.entry(ds.clone()).or_insert(0) += wan_input;
            }
            if wan_input == 0 {
                // Fully warm: the shared cache serves the whole stage-in
                // locally — straight to execution, like pure generation.
                let Some(t) = self.tasks.get_mut(id) else {
                    return;
                };
                if let Some(b) = t.builder.as_mut() {
                    b.times_mut().cpu = cpu;
                }
                ctx.schedule(cpu, Ev::ExecDone(id, attempt));
                self.arm_watchdog(id, Segment::Execute, Some(now + cpu), ctx);
            } else if streaming {
                // XrootD stream: execution overlaps the WAN transfer.
                match self.fed.open(now, &self.consumer, wan_input, &mut self.rng) {
                    Ok(flow) => {
                        self.fed_flows.insert(flow, id);
                        let Some(t) = self.tasks.get_mut(id) else {
                            return;
                        };
                        t.data_flow = Some(flow);
                        if let Some(b) = t.builder.as_mut() {
                            b.times_mut().stage_in = AccessTiming::STREAM_OPEN;
                            b.times_mut().cpu = cpu;
                        }
                        self.reschedule_fed(ctx);
                        // The stage-in watchdog covers the whole stream: a
                        // blackout that freezes the WAN mid-transfer would
                        // otherwise pin this slot to the horizon.
                        self.arm_watchdog(id, Segment::StageIn, None, ctx);
                    }
                    Err(_) => self.fail_attempt(id, Segment::StageIn, false, ctx),
                }
            } else {
                // Staged remote input (Chirp or WQ transfer, §4.2): the data
                // crosses the same WAN, but the file must fully land before
                // execution starts — no compute/transfer overlap. This is the
                // penalty Figure 4 charges against staging.
                match self.fed.open(now, &self.consumer, wan_input, &mut self.rng) {
                    Ok(flow) => {
                        self.fed_flows.insert(flow, id);
                        let Some(t) = self.tasks.get_mut(id) else {
                            return;
                        };
                        t.data_flow = Some(flow);
                        t.phase = Phase::Data;
                        self.arm_watchdog(id, Segment::StageIn, None, ctx);
                    }
                    Err(_) => self.fail_attempt(id, Segment::StageIn, false, ctx),
                }
                self.reschedule_fed(ctx);
            }
        }
    }

    /// A Chirp-staged input landed: start the CPU clock.
    fn on_data_staged(&mut self, id: TaskId, attempt: u32, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        let Some(t) = self.tasks.get_mut(id) else {
            return;
        };
        if t.phase != Phase::Data || t.attempt != attempt {
            return;
        }
        t.phase = Phase::Exec;
        t.phase_started = now;
        let cpu = t.cpu;
        if let Some(b) = t.builder.as_mut() {
            b.times_mut().cpu = cpu;
        }
        ctx.schedule(cpu, Ev::ExecDone(id, attempt));
        self.arm_watchdog(id, Segment::Execute, Some(now + cpu), ctx);
    }

    fn reschedule_fed(&mut self, ctx: &mut Ctx<Ev>) {
        if let Some(ev) = self.fed_wake.take() {
            ctx.cancel(ev);
        }
        if let Some((when, _)) = self.fed.next_completion() {
            self.fed_wake = Some(ctx.schedule_at(when, Ev::FedWake));
        }
    }

    fn on_fed_wake(&mut self, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        self.fed_wake = None;
        let mut done = std::mem::take(&mut self.scratch_flows);
        self.fed.completions_into(now, &mut done);
        for &flow in &done {
            let Some(id) = self.fed_flows.remove(&flow) else {
                continue;
            };
            let Some(t) = self.tasks.get_mut(id) else {
                continue;
            };
            if t.data_flow != Some(flow) {
                continue;
            }
            match t.phase {
                Phase::Exec => {
                    t.data_flow = None;
                    // Streaming: CPU started when the stream opened; the
                    // task ends when both stream and CPU are done.
                    let cpu_end = t.phase_started + t.cpu;
                    let end = cpu_end.max(now);
                    if let Some(b) = t.builder.as_mut() {
                        b.times_mut().io_wait = now.since(cpu_end);
                    }
                    let (attempt, started) = (t.attempt, t.phase_started);
                    ctx.schedule_at(end, Ev::ExecDone(id, attempt));
                    // The stream survived its watchdog; hand over to the
                    // execute deadline, measured from the segment entry
                    // (stream open). Completion is scheduled first, so a
                    // deadline landing no later than it is not armed.
                    self.arm_watchdog_from(id, Segment::Execute, started, Some(end), ctx);
                }
                Phase::Data => {
                    t.data_flow = None;
                    // Staged: the file landed; execution starts now.
                    let stage_in = now - t.phase_started;
                    t.phase = Phase::Exec;
                    t.phase_started = now;
                    if let Some(b) = t.builder.as_mut() {
                        b.times_mut().stage_in = AccessTiming::STAGE_SETUP + stage_in;
                        b.times_mut().cpu = t.cpu;
                    }
                    let (attempt, cpu) = (t.attempt, t.cpu);
                    ctx.schedule_at(now + cpu, Ev::ExecDone(id, attempt));
                    self.arm_watchdog(id, Segment::Execute, Some(now + cpu), ctx);
                }
                _ => {}
            }
        }
        self.scratch_flows = done;
        self.reschedule_fed(ctx);
    }

    fn on_exec_done(&mut self, id: TaskId, attempt: u32, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        let output = {
            let Some(t) = self.tasks.get_mut(id) else {
                return;
            };
            if t.phase != Phase::Exec || t.attempt != attempt || t.data_flow.is_some() {
                return; // stale, or the input stream is still in flight
            }
            t.phase = Phase::StageOut;
            t.phase_started = now;
            t.output_bytes
        };
        match self.chirp_admit_put(now, output) {
            Ok(grant) => {
                let Some(t) = self.tasks.get_mut(id) else {
                    return;
                };
                if let Some(b) = t.builder.as_mut() {
                    b.times_mut().stage_out = grant.done - now;
                }
                ctx.schedule_at(grant.done, Ev::StageOutDone(id, attempt));
                self.arm_watchdog(id, Segment::StageOut, Some(grant.done), ctx);
            }
            Err(ChirpDown) => self.fail_attempt(id, Segment::StageOut, false, ctx),
        }
    }

    fn on_stage_out_done(&mut self, id: TaskId, attempt: u32, ctx: &mut Ctx<Ev>) {
        {
            let Some(t) = self.tasks.get_mut(id) else {
                return;
            };
            if t.phase != Phase::StageOut || t.attempt != attempt {
                return;
            }
            t.phase = Phase::Collect;
            if let Some(b) = t.builder.as_mut() {
                b.times_mut().wq_stage_out = self.params.wq_collect;
            }
        }
        ctx.schedule(self.params.wq_collect, Ev::CollectDone(id, attempt));
        self.disarm_watchdog(id, ctx);
    }

    fn on_collect_done(&mut self, id: TaskId, attempt: u32, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        match self.tasks.get(id) {
            Some(t) if t.phase == Phase::Collect && t.attempt == attempt => {}
            _ => return,
        }
        let Some(mut t) = self.tasks.remove(id) else {
            return;
        };
        if let Some((_, _, ev)) = t.watchdog.take() {
            ctx.cancel(ev);
        }
        let worker = t.worker.expect("running");
        let Some(report) = t.builder.take().map(|b| b.succeed(now, t.output_bytes)) else {
            return;
        };
        self.release_task_slot(worker, id);
        self.ingest(&report, t.wf);
        if t.category == Category::Merge {
            let inputs = self.db.merge_group(id).unwrap_or_default();
            let ids: Vec<TaskId> = inputs.iter().map(|i| i.0).collect();
            let bytes: u64 = inputs.iter().map(|i| i.1).sum();
            let name = format!("merged_{}.root", id.0);
            if let Err(e) = self.db.mark_merged(Some(id), &ids, &name, bytes) {
                debug_assert!(false, "completed merge the db rejects: {e}");
            }
        } else {
            if let Err(e) = self.db.mark_done(id, t.output_bytes) {
                debug_assert!(false, "completed task the db rejects: {e}");
            }
            self.planner.push(id, t.output_bytes);
            self.maybe_plan_merges(now, ctx);
        }
        self.check_finished(now);
        self.dispatch(ctx);
    }

    // ----- merging ----------------------------------------------------------

    fn analysis_progress(&self) -> f64 {
        if self.analysis_units == 0 {
            1.0
        } else {
            self.db.total_done_tasklets() as f64 / self.analysis_units as f64
        }
    }

    fn analysis_exhausted(&self) -> bool {
        // Dead-lettered tasklets count against the total: a withdrawn
        // task must not hold the merge flush (and the run) hostage.
        // Per-workflow done + dead never exceeds the workflow's total, so
        // the summed comparison is exact, not an approximation.
        self.db.total_done_tasklets() + self.db.total_dead_tasklets() >= self.analysis_units
    }

    fn maybe_plan_merges(&mut self, now: SimTime, ctx: &mut Ctx<Ev>) {
        let flush = self.analysis_exhausted();
        if self.cfg.merge != MergeMode::Interleaved {
            // Sequential and Hadoop plan once, at the end of processing.
            if !flush || self.end_planned {
                return;
            }
            self.end_planned = true;
            if self.cfg.merge == MergeMode::Hadoop {
                return self.plan_hadoop(now, ctx);
            }
        }
        // Interleaved: "Merge tasks will only be created when enough
        // processing tasks have finished to create a sufficiently large
        // merged output file", gated on workflow progress (§4.4).
        let progress = self.analysis_progress();
        while let Some(group) = self.planner.next_group(progress, flush) {
            self.create_merge_task(now, &group);
        }
    }

    /// LPT-assign merge groups to reducers; schedule per-group completions.
    fn plan_hadoop(&mut self, now: SimTime, ctx: &mut Ctx<Ev>) {
        let mut groups: Vec<MergeGroup> =
            std::iter::from_fn(|| self.planner.next_group(1.0, true)).collect();
        groups.sort_by_key(|g| std::cmp::Reverse(g.bytes()));
        let mut reducer_free = [SimDuration::ZERO; HADOOP_REDUCERS];
        for g in groups {
            let bytes = g.bytes();
            // The merge reads and writes the data once each, in-cluster.
            let dur = SimDuration::from_secs_f64(2.0 * bytes as f64 / self.params.hadoop_rate);
            let r = reducer_free
                .iter()
                .enumerate()
                .min_by_key(|(_, d)| **d)
                .map(|(i, _)| i)
                .expect("at least one reducer");
            let start = reducer_free[r];
            reducer_free[r] = start + dur;
            let gi = self.hadoop_groups.len();
            self.hadoop_groups.push(g);
            ctx.schedule_at(now + start + dur, Ev::HadoopGroupDone(gi));
        }
    }

    fn on_hadoop_group_done(&mut self, gi: usize, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        // Each group completes exactly once; take it instead of cloning.
        let group = std::mem::take(&mut self.hadoop_groups[gi]);
        let ids: Vec<TaskId> = group.inputs.iter().map(|i| i.0).collect();
        // Name by files produced, not group index: a resumed run replans
        // the outstanding groups from scratch, so indices shift but the
        // produced-file sequence stays collision-free.
        let name = format!("merged_h{}.root", self.db.merged_file_count());
        if let Err(e) = self.db.mark_merged(None, &ids, &name, group.bytes()) {
            debug_assert!(false, "completed hadoop merge the db rejects: {e}");
        }
        self.monitor.mark_merge(now);
        self.check_finished(now);
        let _ = ctx;
    }

    // ----- failure & eviction ------------------------------------------------

    /// Fail one attempt of `id` in `segment` — either rejected at
    /// admission (`by_watchdog == false`) or stuck mid-flight and killed
    /// by its segment watchdog. Releases or holds the slot, aborts any
    /// in-flight transfers, reports the failure, and routes the task
    /// through the retry policy.
    fn fail_attempt(&mut self, id: TaskId, segment: Segment, by_watchdog: bool, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        let Some(mut t) = self.tasks.remove(id) else {
            return;
        };
        if let Some((_, _, ev)) = t.watchdog.take() {
            ctx.cancel(ev);
        }
        let Some(worker) = t.worker else { return };
        // A task waiting on a shared alien-cache fill holds no flow of
        // its own; drop it from the fill's waiter list (killing the fill
        // when it was the last waiter).
        if t.phase == Phase::EnvSetup {
            self.scrub_env_fill(id, worker, now, ctx);
        }
        if segment == Segment::EnvInit {
            // The proxy tier is overloaded: hold the slot back instead of
            // immediately re-dispatching into the same congestion (the
            // client-side retry backoff of §6). The hold grows with the
            // worker's consecutive env failures, per the retry policy.
            if let Some(list) = self.running_on.get_mut(worker as usize) {
                if let Some(pos) = list.iter().position(|t| *t == id) {
                    list.swap_remove(pos);
                }
            }
            let streak = self.env_fail_streak.entry(worker).or_insert(0);
            *streak += 1;
            let failures = *streak;
            let hold = self.cfg.retry.slot_hold.delay(failures, &mut self.rng);
            self.db.record_backoff(hold);
            ctx.schedule(hold, Ev::SlotFree(worker));
        } else {
            self.release_task_slot(worker, id);
        }
        let squid_aborted = t.env_flow.map(|(idx, _)| idx);
        let fed_aborted = t.data_flow.is_some();
        self.abort_flows(&mut t, now);
        // A mid-flight abort re-times the component's remaining flows.
        if let Some(idx) = squid_aborted {
            self.reschedule_squid(idx, ctx);
        }
        if fed_aborted {
            self.reschedule_fed(ctx);
        }
        if let Some(b) = t.builder.take() {
            let report = if by_watchdog {
                b.abort_by_watchdog(segment, now)
            } else {
                b.fail(segment, now)
            };
            self.ingest(&report, t.wf);
        }
        self.retry_or_dead_letter(id, t, segment.failure_code(), now, ctx);
        self.check_finished(now);
        self.dispatch(ctx);
    }

    /// Remove `id` from its worker's shared cold-fill waiters; when it
    /// was the last waiter, abort the fill itself.
    fn scrub_env_fill(&mut self, id: TaskId, worker: u64, now: SimTime, ctx: &mut Ctx<Ev>) {
        let Some((idx, flow, waiters)) = self.env_fill.get_mut(&worker) else {
            return;
        };
        waiters.retain(|w| *w != id);
        if waiters.is_empty() {
            let (idx, flow) = (*idx, *flow);
            self.env_fill.remove(&worker);
            self.squids[idx].abort(now, flow);
            self.squid_fill_flows[idx].remove(&flow);
            self.reschedule_squid(idx, ctx);
        }
    }

    /// After a failed attempt: retry within the configured budget, or
    /// withdraw the task to the dead-letter ledger.
    fn retry_or_dead_letter(
        &mut self,
        id: TaskId,
        t: TaskInfo,
        code: FailureCode,
        now: SimTime,
        ctx: &mut Ctx<Ev>,
    ) {
        let Some(max) = self.cfg.retry.max_attempts else {
            // Unbounded legacy policy: merges re-enqueue whole, analysis
            // tasklets return to the pool for re-covering.
            self.requeue(id, t, now);
            return;
        };
        if t.attempt >= max {
            self.dead_letter(id, t, code, now, ctx);
            return;
        }
        // Bounded budget: the same task identity retries so the attempt
        // count carries across failures.
        let delay = self.cfg.retry.requeue.delay(t.attempt, &mut self.rng);
        let mut t = t;
        t.phase = Phase::Queued;
        t.worker = None;
        t.builder = None;
        t.env_flow = None;
        t.data_flow = None;
        t.watchdog = None;
        t.enqueued_at = now + delay;
        let category = t.category;
        self.tasks.insert(id, t);
        if delay.is_zero() {
            self.enqueue_retry(id, category);
        } else {
            self.db.record_backoff(delay);
            ctx.schedule(delay, Ev::Requeue(id));
        }
    }

    fn enqueue_retry(&mut self, id: TaskId, category: Category) {
        if category == Category::Merge {
            self.merge_queue.push_back(id);
        } else {
            self.buffer.push(id);
        }
    }

    /// Withdraw a task whose retry budget is spent. The work it covered
    /// is accounted as dead so the run can still quiesce.
    fn dead_letter(
        &mut self,
        id: TaskId,
        t: TaskInfo,
        code: FailureCode,
        now: SimTime,
        ctx: &mut Ctx<Ev>,
    ) {
        let units = match t.category {
            Category::Merge => self.db.merge_group(id).map_or(0, |g| g.len() as u64),
            _ => {
                // The tasklets stay assigned to the withdrawn task in the
                // db — never re-issued — and the db accounts them dead.
                self.db.task_tasklet_count(id).unwrap_or(0) as u64
            }
        };
        self.db.record_dead_letter(DeadLetter {
            task: id,
            category: t.category,
            code,
            attempts: t.attempt,
            units,
            at: now,
        });
        self.monitor.record_dead_letter(now);
        // Withdrawing work can complete the analysis phase, which in turn
        // unblocks the merge planner's flush conditions.
        self.maybe_plan_merges(now, ctx);
    }

    fn abort_flows(&mut self, t: &mut TaskInfo, now: SimTime) {
        if let Some((idx, flow)) = t.env_flow.take() {
            self.squids[idx].abort(now, flow);
            self.squid_flows[idx].remove(&flow);
        }
        if let Some(flow) = t.data_flow.take() {
            self.fed.abort(now, flow);
            self.fed_flows.remove(&flow);
        }
    }

    /// Return a task's work to the system after a failed attempt under
    /// the unbounded (legacy) retry policy.
    fn requeue(&mut self, id: TaskId, t: TaskInfo, now: SimTime) {
        if t.category == Category::Merge {
            // Re-enqueue the same merge group.
            let mut t = t;
            t.phase = Phase::Queued;
            t.worker = None;
            t.builder = None;
            t.enqueued_at = now;
            self.tasks.insert(id, t);
            self.merge_queue.push_back(id);
        } else {
            // Tasklets go back to the pool; fresh tasks re-cover them.
            if let Err(e) = self.db.mark_lost(id) {
                debug_assert!(false, "requeued a task the db rejects: {e}");
            }
        }
    }

    fn release_task_slot(&mut self, worker: u64, id: TaskId) {
        if let Some(list) = self.running_on.get_mut(worker as usize) {
            if let Some(pos) = list.iter().position(|t| *t == id) {
                list.swap_remove(pos);
                self.table.release_slot(worker);
            }
        }
    }

    fn evict_worker(&mut self, worker: u64, release_pool: bool, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        let Some(w) = self.table.disconnect(worker) else {
            return;
        };
        if let Some(ev) = self.worker_evict_ev.remove(&worker) {
            ctx.cancel(ev);
        }
        self.log.leave(worker, now, LeaveReason::Evicted);
        self.factory.on_exit();
        if release_pool {
            self.pool.release(w.cores);
        }
        // Abort the worker's shared cold fill, if one is in flight.
        if let Some((idx, flow, _)) = self.env_fill.remove(&worker) {
            self.squids[idx].abort(now, flow);
            self.squid_fill_flows[idx].remove(&flow);
            self.reschedule_squid(idx, ctx);
        }
        self.env_fail_streak.remove(&worker);
        let mut victims = match self.running_on.get_mut(worker as usize) {
            Some(list) => std::mem::take(list),
            None => Vec::new(),
        };
        // Per-worker lists are in dispatch order; process in id order so
        // eviction fallout is independent of that order.
        victims.sort_unstable();
        for id in victims {
            let Some(mut t) = self.tasks.remove(id) else {
                continue;
            };
            if let Some((_, _, ev)) = t.watchdog.take() {
                ctx.cancel(ev);
            }
            self.abort_flows(&mut t, now);
            if let Some(b) = t.builder.take() {
                let report = b.evict(now);
                self.ingest(&report, t.wf);
            }
            self.retry_or_dead_letter(id, t, FailureCode::Evicted, now, ctx);
        }
        self.check_finished(now);
        self.dispatch(ctx);
    }

    // ----- provisioning -------------------------------------------------------

    fn on_worker_arrive(&mut self, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        let cores = self.factory.config().cores_per_worker;
        let granted = self.pool.claim(cores);
        self.factory.on_start_attempt(granted);
        if !granted {
            return;
        }
        let foreman = (self.rng.next_u64() as usize) % self.foremen.len();
        let id = self.table.connect(cores, foreman, now);
        self.log.join(id, now);
        let survival = self.params.availability.sample(&mut self.rng);
        if survival < SimDuration::MAX {
            let ev = ctx.schedule(survival, Ev::WorkerEvict(id));
            self.worker_evict_ev.insert(id, ev);
        }
        self.dispatch(ctx);
    }

    // ----- monitoring -----------------------------------------------------------

    fn ingest(&mut self, report: &SegmentReport, wf: usize) {
        // The attempt is journaled: accounting and the failure/eviction
        // counters are rebuilt from these records on recovery.
        self.db.record_attempt(report);
        self.monitor.record(report);
        if self.params.adaptive {
            if let Some(sizer) = self.sizers.get_mut(wf) {
                sizer.record(report);
                if report.evicted || report.task.0.is_multiple_of(20) {
                    sizer.adjust();
                }
            }
        }
    }

    // ----- fault injection ---------------------------------------------------

    /// Apply the injected fault plan's state at `now` to every component,
    /// re-timing wakes for components whose in-flight flows changed, and
    /// schedule the next transition. Called at start-up and on every
    /// [`Ev::FaultWake`].
    fn apply_faults(&mut self, now: SimTime, ctx: &mut Ctx<Ev>) {
        if self.params.faults.is_empty() {
            return;
        }
        let plan = self.params.faults.clone();
        for idx in 0..self.squids.len() {
            let (cf, fp) = plan.state(FaultTarget::Squid { index: idx }, now);
            if self.squids[idx].set_fault(now, cf, fp) {
                self.reschedule_squid(idx, ctx);
            }
        }
        let (cf, fp) = plan.state(FaultTarget::Chirp, now);
        self.chirp.set_fault(cf, fp);
        let (cf, fp) = plan.state(FaultTarget::Federation, now);
        if self.fed.set_fault(now, cf, fp) {
            self.reschedule_fed(ctx);
        }
        if let Some(t) = plan.next_transition(now) {
            ctx.schedule_at(t, Ev::FaultWake);
        }
    }

    fn check_finished(&mut self, now: SimTime) {
        if self.finished_at.is_none()
            && self.analysis_exhausted()
            && self.db.merge_backlog() == 0
            && self.merge_queue.is_empty()
            && self.tasks.is_empty()
        {
            self.finished_at = Some(now);
        }
    }
}

impl Model for ClusterSim {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<Ev>) {
        match ev {
            Ev::Start => {
                self.refill_buffer(ctx.now());
                ctx.schedule(SimDuration::ZERO, Ev::Replenish);
                ctx.schedule(self.pool.tick_interval(), Ev::PoolTick);
                if let Some(t) = self.fed.next_outage_transition(ctx.now()) {
                    ctx.schedule_at(t, Ev::OutageWake);
                }
                self.apply_faults(ctx.now(), ctx);
                // A resumed run may already hold mergeable outputs — or
                // even be one merge short of done; re-enter the planner
                // so recovery does not depend on further completions.
                self.maybe_plan_merges(ctx.now(), ctx);
                self.check_finished(ctx.now());
            }
            Ev::Replenish => {
                if !self.is_finished() {
                    let mut delays = std::mem::take(&mut self.scratch_delays);
                    self.factory.replenish_into(&mut self.rng, &mut delays);
                    for &d in &delays {
                        ctx.schedule(d, Ev::WorkerArrive);
                    }
                    self.scratch_delays = delays;
                    ctx.schedule(SimDuration::from_mins(1), Ev::Replenish);
                }
            }
            Ev::PoolTick => {
                if !self.is_finished() {
                    let owed = self.pool.tick(ctx.now());
                    let mut evict_cores = owed;
                    let mut killed = 0u32;
                    while evict_cores > 0 {
                        // Reclaim youngest workers first (LIFO — the batch
                        // system preempts the newest scavengers).
                        let victim = self.table.iter().map(|w| w.id).max();
                        let Some(victim) = victim else { break };
                        let cores = self.table.get(victim).expect("present").cores;
                        self.evict_worker(victim, false, ctx);
                        killed += cores;
                        evict_cores = evict_cores.saturating_sub(cores);
                    }
                    // The pool already reclaimed `owed` cores, but whole
                    // workers die: hand back the difference or the pool's
                    // `ours` ledger drifts above what the table holds and —
                    // under a tight arbiter share cap — pins idle capacity
                    // at zero with no live workers (permanent starvation).
                    if killed > owed {
                        self.pool.release(killed - owed);
                    }
                    ctx.schedule(self.pool.tick_interval(), Ev::PoolTick);
                }
            }
            Ev::WorkerArrive => {
                if !self.is_finished() {
                    self.on_worker_arrive(ctx);
                }
            }
            Ev::WorkerEvict(w) => self.evict_worker(w, true, ctx),
            Ev::Dispatch => self.dispatch(ctx),
            Ev::SandboxDone(id, a) => self.on_sandbox_done(id, a, ctx),
            Ev::SandboxBatch(mut batch) => {
                for &(id, a) in &batch {
                    self.on_sandbox_done(id, a, ctx);
                }
                batch.clear();
                self.batch_pool.push(batch);
            }
            Ev::SquidWake(i) => self.on_squid_wake(i, ctx),
            Ev::FedWake => self.on_fed_wake(ctx),
            Ev::OutageWake => {
                let now = ctx.now();
                self.fed.apply_outage(now);
                self.reschedule_fed(ctx);
                if let Some(t) = self.fed.next_outage_transition(now) {
                    ctx.schedule_at(t, Ev::OutageWake);
                }
            }
            Ev::FaultWake => self.apply_faults(ctx.now(), ctx),
            Ev::DataStaged(id, a) => self.on_data_staged(id, a, ctx),
            Ev::ExecDone(id, a) => self.on_exec_done(id, a, ctx),
            Ev::StageOutDone(id, a) => self.on_stage_out_done(id, a, ctx),
            Ev::CollectDone(id, a) => self.on_collect_done(id, a, ctx),
            Ev::HadoopGroupDone(g) => self.on_hadoop_group_done(g, ctx),
            Ev::SlotFree(worker) => {
                self.table.release_slot(worker);
                self.dispatch(ctx);
            }
            Ev::Deadline(id, seq) => self.on_deadline(id, seq, ctx),
            Ev::Requeue(id) => {
                let ready = self
                    .tasks
                    .get(id)
                    .filter(|t| t.phase == Phase::Queued && t.worker.is_none())
                    .map(|t| t.category);
                if let Some(category) = ready {
                    self.enqueue_retry(id, category);
                    self.dispatch(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{Backoff, WorkflowConfig};
    use crate::fault::Fault;
    use gridstore::dbs::{DatasetSpec, Dbs};
    use simnet::outage::Outage;
    use std::collections::BTreeSet;

    fn mins(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(m)
    }

    /// WAN bytes the dashboard credits to the Lobster consumer.
    fn lobster_wan_bytes(report: &RunReport) -> f64 {
        report
            .dashboard
            .iter()
            .filter(|(s, _)| s.contains("Lobster"))
            .map(|(_, b)| *b)
            .sum()
    }

    pub(crate) fn small_setup(
        merge: MergeMode,
        availability: AvailabilityModel,
        outages: OutageSchedule,
        n_files: usize,
    ) -> (LobsterConfig, SimParams, Vec<Workflow>) {
        let mut cfg = LobsterConfig::default();
        cfg.merge = merge;
        cfg.workers.target_cores = 64;
        cfg.workers.cores_per_worker = 4;
        cfg.merge_target_bytes = 200_000_000;
        cfg.seed = 42;
        let mut dbs = Dbs::new();
        dbs.generate(
            "/TTJets/Spring14/AOD",
            DatasetSpec {
                n_files,
                mean_file_bytes: 500_000_000,
                events_per_lumi: 100,
                lumis_per_file: 50,
            },
            7,
        );
        let ds = dbs.query("/TTJets/Spring14/AOD").unwrap();
        let wf = Workflow::from_dataset(&cfg.workflows[0], ds);
        let params = SimParams {
            availability,
            outages,
            pool: PoolConfig {
                total_cores: 200,
                owner_mean: 20.0,
                reversion: 0.1,
                noise: 0.0,
                tick: SimDuration::from_mins(5),
            },
            horizon: SimDuration::from_hours(96),
            ..SimParams::default()
        };
        (cfg, params, vec![wf])
    }

    #[test]
    fn small_run_completes_interleaved() {
        let (cfg, params, wfs) = small_setup(
            MergeMode::Interleaved,
            AvailabilityModel::Dedicated,
            OutageSchedule::none(),
            20,
        );
        let total_tasklets = wfs[0].n_tasklets();
        let report = ClusterSim::run(cfg, params, wfs);
        assert!(
            report.finished_at.is_some(),
            "run should finish: {report:?}"
        );
        assert!(report.tasks_completed > 0);
        assert_eq!(report.tasks_failed, 0, "dedicated workers, no outage");
        assert!(report.merges_completed > 0);
        assert!(!report.merged_files.is_empty());
        // Every tasklet's output landed inside some merged file.
        let merged_bytes: u64 = report.merged_files.iter().map(|m| m.1).sum();
        assert_eq!(merged_bytes, total_tasklets * 12_000_000);
        assert!(report.peak_concurrency > 1.0);
        assert!(report.events_delivered > 0);
        assert!(report.dead_letters.is_empty(), "no retry budget configured");
    }

    #[test]
    fn sequential_merge_runs_after_processing() {
        let (cfg, params, wfs) = small_setup(
            MergeMode::Sequential,
            AvailabilityModel::Dedicated,
            OutageSchedule::none(),
            20,
        );
        let report = ClusterSim::run(cfg, params, wfs);
        assert!(report.finished_at.is_some());
        assert!(report.merges_completed > 0);
        // Sequential: no merge completes before the last analysis task.
        let analysis = report.analysis_done.sums();
        let merges = report.merge_done.sums();
        let last_analysis = analysis.iter().rposition(|&c| c > 0.0).unwrap();
        let first_merge = merges.iter().position(|&c| c > 0.0).unwrap();
        assert!(
            first_merge >= last_analysis,
            "first merge bin {first_merge} vs last analysis bin {last_analysis}"
        );
    }

    #[test]
    fn hadoop_merge_completes() {
        let (cfg, params, wfs) = small_setup(
            MergeMode::Hadoop,
            AvailabilityModel::Dedicated,
            OutageSchedule::none(),
            20,
        );
        let report = ClusterSim::run(cfg, params, wfs);
        assert!(report.finished_at.is_some());
        assert!(report.merges_completed > 0);
        assert!(report
            .merged_files
            .iter()
            .all(|(n, _)| n.starts_with("merged_h")));
    }

    #[test]
    fn interleaved_finishes_no_later_than_sequential() {
        let run = |mode| {
            let (cfg, params, wfs) = small_setup(
                mode,
                AvailabilityModel::Dedicated,
                OutageSchedule::none(),
                40,
            );
            ClusterSim::run(cfg, params, wfs).finished_at.unwrap()
        };
        let ts = run(MergeMode::Sequential);
        let ti = run(MergeMode::Interleaved);
        assert!(
            ti <= ts,
            "interleaved {ti:?} should not lose to sequential {ts:?}"
        );
    }

    #[test]
    fn evictions_cause_retries_but_work_completes() {
        let (cfg, params, wfs) = small_setup(
            MergeMode::Interleaved,
            AvailabilityModel::Exponential {
                mean: SimDuration::from_hours(3),
            },
            OutageSchedule::none(),
            20,
        );
        let report = ClusterSim::run(cfg, params, wfs);
        assert!(report.evictions > 0, "3h mean lifetime must evict someone");
        assert!(report.finished_at.is_some(), "work still completes");
        assert!(report
            .worker_log
            .spans()
            .iter()
            .any(|s| s.reason == LeaveReason::Evicted));
    }

    /// Regression for a latent single-pool assumption: share-cap
    /// preemption reclaims cores in arbitrary amounts, but whole workers
    /// die. Without handing the difference back, the pool's `ours`
    /// ledger drifts above what the worker table actually holds, and a
    /// tight cap then pins idle capacity at zero with no live workers —
    /// the tail of the workload starves forever. Oscillating the cap by
    /// non-worker-multiples and then clamping it near one worker's width
    /// reproduces the drift; the run must still finish.
    #[test]
    fn share_cap_preemption_keeps_pool_ledger_in_sync() {
        let mut cfg = LobsterConfig::default();
        cfg.workflows = vec![crate::config::WorkflowConfig::simulation("gen")];
        cfg.workers.target_cores = 48;
        cfg.workers.cores_per_worker = 4;
        cfg.seed = 9;
        let wf = Workflow::simulation(&cfg.workflows[0], 300, 0);
        let params = SimParams {
            pool: PoolConfig {
                total_cores: 96,
                owner_mean: 0.0,
                reversion: 1.0,
                noise: 0.0,
                tick: SimDuration::from_mins(5),
            },
            horizon: SimDuration::from_hours(48),
            ..SimParams::default()
        };
        let mut session = Session::start(ClusterSim::new(cfg, params, vec![wf]));
        let round = SimDuration::from_mins(5);
        let mut deadline = SimTime::ZERO;
        for i in 0..(48 * 12) {
            // A staircase of 2-core cuts against 4-core workers: each
            // step reclaims 2 cores from the pool ledger but kills a
            // whole worker, so without the hand-back the ledger drifts
            // 2 cores above the table per step. By the time the cap
            // floors at 12 the drift covers the whole cap: the pool
            // believes it is full while zero workers remain, no claim
            // ever succeeds again, and the workload starves.
            let cap = 48u32.saturating_sub(2 * i as u32).max(12);
            session.sim_mut().set_core_cap(cap);
            deadline += round;
            session.advance(deadline, u64::MAX);
            if session.sim().is_finished() {
                break;
            }
        }
        assert!(
            session.sim().is_finished(),
            "workload starved under an oscillating share cap"
        );
    }

    #[test]
    fn outage_produces_failure_burst() {
        let outage = OutageSchedule::new(vec![simnet::outage::Outage::blackout(
            SimTime::ZERO + SimDuration::from_mins(70),
            SimTime::ZERO + SimDuration::from_mins(130),
        )]);
        // Enough files that dispatches continue past the first task wave:
        // the second wave's stage-ins land inside the blackout window.
        // (Merge tasks no longer stream over the WAN, so the burst must
        // come from analysis staging.)
        let (cfg, params, wfs) = small_setup(
            MergeMode::Interleaved,
            AvailabilityModel::Dedicated,
            outage,
            360,
        );
        let report = ClusterSim::run(cfg, params, wfs);
        assert!(
            report.tasks_failed > 0,
            "blackout must fail stage-ins: {report:?}"
        );
        assert!(
            report.timeline.failure_events().any(|(t, code)| {
                code == wqueue::task::FailureCode::StageIn
                    && t.as_hours_f64() >= 70.0 / 60.0
                    && t.as_hours_f64() <= 135.0 / 60.0
            }),
            "failures should cluster in the outage window"
        );
        assert!(report.finished_at.is_some(), "recovers after the outage");
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let mk = || {
            small_setup(
                MergeMode::Interleaved,
                AvailabilityModel::notre_dame(),
                OutageSchedule::none(),
                20,
            )
        };
        let (c1, p1, w1) = mk();
        let (c2, p2, w2) = mk();
        let a = ClusterSim::run(c1, p1, w1);
        let b = ClusterSim::run(c2, p2, w2);
        assert_eq!(crate::ops::run_trace(&a), crate::ops::run_trace(&b));
    }

    #[test]
    fn accounting_dominated_by_cpu_when_healthy() {
        let (cfg, params, wfs) = small_setup(
            MergeMode::Interleaved,
            AvailabilityModel::Dedicated,
            OutageSchedule::none(),
            20,
        );
        let report = ClusterSim::run(cfg, params, wfs);
        let table = report.accounting.table();
        let cpu_frac = table[0].2;
        assert!(cpu_frac > 0.4, "cpu fraction {cpu_frac}");
        let total: f64 = table.iter().map(|r| r.1).sum();
        assert!((report.accounting.total() - total).abs() < 1e-9);
    }

    #[test]
    fn dashboard_credits_lobster() {
        let (cfg, params, wfs) = small_setup(
            MergeMode::Interleaved,
            AvailabilityModel::Dedicated,
            OutageSchedule::none(),
            20,
        );
        let report = ClusterSim::run(cfg, params, wfs);
        assert!(report
            .dashboard
            .iter()
            .any(|(site, bytes)| site.contains("Lobster") && *bytes > 0.0));
    }

    #[test]
    fn simulation_workload_uses_chirp_not_wan() {
        let mut cfg = LobsterConfig::default();
        cfg.workflows = vec![WorkflowConfig::simulation("gen")];
        cfg.workers.target_cores = 32;
        cfg.workers.cores_per_worker = 4;
        cfg.merge = MergeMode::Interleaved;
        cfg.merge_target_bytes = 100_000_000;
        let wf = Workflow::simulation(&cfg.workflows[0], 500, 5_000_000);
        let params = SimParams {
            availability: AvailabilityModel::Dedicated,
            horizon: SimDuration::from_hours(200),
            pool: PoolConfig {
                total_cores: 100,
                owner_mean: 0.0,
                reversion: 0.1,
                noise: 0.0,
                tick: SimDuration::from_mins(5),
            },
            ..SimParams::default()
        };
        let report = ClusterSim::run(cfg, params, vec![wf]);
        assert!(report.finished_at.is_some(), "{report:?}");
        // No WAN consumption: everything moved through Chirp.
        assert_eq!(lobster_wan_bytes(&report), 0.0);
    }

    #[test]
    fn adaptive_sizer_stays_in_bounds() {
        let (cfg, mut params, wfs) = small_setup(
            MergeMode::Interleaved,
            AvailabilityModel::Exponential {
                mean: SimDuration::from_hours(2),
            },
            OutageSchedule::none(),
            20,
        );
        params.adaptive = true;
        let report = ClusterSim::run(cfg, params, wfs);
        assert!(report.finished_at.is_some());
        assert!((1..=60).contains(&report.final_task_size));
    }

    /// A squid fault aimed past the deployed set is a configuration error,
    /// not a silently inert fault.
    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn squid_fault_index_out_of_range_is_rejected() {
        let (cfg, mut params, wfs) = small_setup(
            MergeMode::Interleaved,
            AvailabilityModel::Dedicated,
            OutageSchedule::none(),
            20,
        );
        let deployed = cfg.infra.n_squids as usize;
        params.faults = FaultPlan::new(vec![Fault::new(
            FaultTarget::Squid { index: deployed },
            OutageSchedule::new(vec![Outage::blackout(mins(10), mins(20))]),
        )]);
        ClusterSim::run(cfg, params, wfs);
    }

    /// A WAN blackout spanning the horizon pins every in-flight stream
    /// forever under the legacy (watchdog-free) policy: the run never
    /// finishes, yet nothing is ever *reported* failed.
    #[test]
    fn wan_blackout_without_watchdog_hangs_to_horizon() {
        let (cfg, mut params, wfs) = small_setup(
            MergeMode::Interleaved,
            AvailabilityModel::Dedicated,
            OutageSchedule::none(),
            120,
        );
        // ~1 MB/s per stream: a 1.5 GB task input takes ~25 min, so the
        // first wave's streams are mid-flight when the fault lands.
        params.wan_stream_cap = 1.0e6;
        params.faults = FaultPlan::new(vec![Fault::new(
            FaultTarget::Federation,
            OutageSchedule::new(vec![Outage::blackout(mins(30), mins(20 * 60))]),
        )]);
        params.horizon = SimDuration::from_hours(6);
        let report = ClusterSim::run(cfg, params, wfs);
        assert!(report.finished_at.is_none(), "stuck streams pin the run");
        assert_eq!(report.accounting.watchdog_aborts, 0);
        assert_eq!(report.tasks_failed, 0, "nothing even reports a failure");
    }

    /// A watchdog whose deadline is no earlier than its segment's
    /// already-scheduled completion (a Chirp grant, an execute) cannot
    /// fire, so it is never scheduled: deadlines longer than every grant
    /// leave the queue exactly as a run without deadlines does, event by
    /// event, tombstones included.
    #[test]
    fn deadlines_past_every_grant_never_reach_the_queue() {
        let run = |deadline: Option<SimDuration>| {
            let mut cfg = LobsterConfig::default();
            cfg.workflows = vec![WorkflowConfig::simulation("gen")];
            cfg.merge = MergeMode::Interleaved;
            cfg.workers.target_cores = 64;
            cfg.workers.cores_per_worker = 4;
            cfg.seed = 11;
            cfg.retry.deadlines.stage_in = deadline;
            cfg.retry.deadlines.execute = deadline;
            cfg.retry.deadlines.stage_out = deadline;
            let wf = Workflow::simulation(&cfg.workflows[0], 3_000, 50_000_000);
            let params = SimParams {
                availability: AvailabilityModel::notre_dame(),
                horizon: SimDuration::from_hours(48),
                ..SimParams::default()
            };
            let (until, kind) = (SimTime::ZERO + params.horizon, params.engine);
            let mut engine = Engine::with_kind(ClusterSim::new(cfg, params, vec![wf]), kind);
            engine.prime(SimDuration::ZERO, Ev::Start);
            let mut steps = Vec::new();
            while engine.ctx().peek_time().is_some_and(|t| t <= until) {
                engine.run_until_events(until, 1);
                steps.push((engine.ctx().tombstones(), engine.ctx().pending()));
            }
            let (now, delivered) = (engine.now(), engine.delivered());
            let report = engine.into_model().into_report(now, delivered);
            assert!(report.finished_at.is_some() && report.evictions > 0);
            assert!(report.merges_completed > 0);
            (crate::ops::run_trace(&report), steps)
        };
        let (plain, plain_steps) = run(None);
        let (armed, armed_steps) = run(Some(SimDuration::from_hours(1_000)));
        assert_eq!(armed, plain);
        assert_eq!(armed_steps.len(), plain_steps.len());
        let first_diff = armed_steps
            .iter()
            .zip(&plain_steps)
            .position(|(a, p)| a != p);
        assert_eq!(
            first_diff, None,
            "(tombstones, pending) differ at this event"
        );
    }

    /// Same blackout, but a StageIn watchdog deadline plus a retry budget
    /// kills the stuck streams, backs off through the window, and retries
    /// them to success once the WAN returns.
    #[test]
    fn stage_in_watchdog_rescues_streams_from_blackout() {
        let (mut cfg, mut params, wfs) = small_setup(
            MergeMode::Interleaved,
            AvailabilityModel::Dedicated,
            OutageSchedule::none(),
            120,
        );
        params.wan_stream_cap = 1.0e6;
        params.faults = FaultPlan::new(vec![Fault::new(
            FaultTarget::Federation,
            OutageSchedule::new(vec![Outage::blackout(mins(30), mins(120))]),
        )]);
        cfg.retry.max_attempts = Some(50);
        cfg.retry.deadlines.stage_in = Some(SimDuration::from_mins(30));
        cfg.retry.requeue = Backoff {
            base: SimDuration::from_mins(5),
            factor: 2.0,
            max: SimDuration::from_mins(30),
            jitter: 0.0,
        };
        let report = ClusterSim::run(cfg, params, wfs);
        assert!(report.finished_at.is_some(), "{report:?}");
        assert!(report.accounting.watchdog_aborts > 0, "{report:?}");
        assert!(report
            .timeline
            .watchdog_events()
            .any(|(_, s)| s == Segment::StageIn));
        assert!(report.accounting.retries > 0);
        assert!(report.accounting.backoff_hours > 0.0);
        assert!(report.dead_letters.is_empty(), "budget of 50 is plenty");
    }

    /// A WAN fault outliving the retry budget lands the unluckly tasks in
    /// the dead-letter ledger; the run still completes, merging what did
    /// finish, and the accounting totals reconcile with the ledger.
    #[test]
    fn exhausted_retry_budget_lands_in_dead_letter_ledger() {
        let (mut cfg, mut params, wfs) = small_setup(
            MergeMode::Interleaved,
            AvailabilityModel::Dedicated,
            OutageSchedule::none(),
            360,
        );
        let total_tasklets = wfs[0].n_tasklets();
        params.faults = FaultPlan::new(vec![Fault::new(
            FaultTarget::Federation,
            OutageSchedule::new(vec![Outage::blackout(mins(30), mins(20 * 60))]),
        )]);
        cfg.retry.max_attempts = Some(3);
        cfg.retry.requeue = Backoff::fixed(SimDuration::from_mins(10));
        let report = ClusterSim::run(cfg, params, wfs);
        assert!(report.finished_at.is_some(), "dead-lettering unblocks");
        assert!(!report.dead_letters.is_empty(), "{report:?}");
        for d in &report.dead_letters {
            assert_eq!(d.code, wqueue::task::FailureCode::StageIn);
            assert_eq!(d.attempts, 3);
        }
        assert_eq!(
            report.accounting.dead_lettered,
            report.dead_letters.len() as u64
        );
        // Every tasklet is either merged or accounted dead.
        let merged_bytes: u64 = report.merged_files.iter().map(|m| m.1).sum();
        let dead_units: u64 = report.dead_letters.iter().map(|d| d.units).sum();
        assert_eq!(merged_bytes / 12_000_000 + dead_units, total_tasklets);
        let ledgered: f64 = report.timeline.dead_letters().iter().sum();
        assert_eq!(ledgered as u64, report.accounting.dead_lettered);
    }

    /// Black-holed squids stall alien-cache fills mid-flight; the EnvInit
    /// watchdog reclaims the slots, the per-worker slot-hold backoff
    /// spaces the retries, and the run recovers when the proxies return.
    #[test]
    fn squid_blackhole_recovers_via_env_watchdog_and_slot_holds() {
        let (mut cfg, mut params, wfs) = small_setup(
            MergeMode::Interleaved,
            AvailabilityModel::Dedicated,
            OutageSchedule::none(),
            120,
        );
        let windows = || OutageSchedule::new(vec![Outage::blackout(mins(5), mins(60))]);
        params.faults = FaultPlan::new(vec![
            Fault::new(FaultTarget::Squid { index: 0 }, windows()),
            Fault::new(FaultTarget::Squid { index: 1 }, windows()),
        ]);
        // A healthy cold fill takes ~15-20 min; 45 min only trips when
        // the fill is actually stalled by the fault window. A bounded
        // budget keeps the same task identity across retries (the
        // unbounded policy re-covers tasklets with fresh tasks instead).
        cfg.retry.max_attempts = Some(20);
        cfg.retry.deadlines.env_setup = Some(SimDuration::from_mins(45));
        cfg.retry.slot_hold = Backoff {
            base: SimDuration::from_mins(5),
            factor: 2.0,
            max: SimDuration::from_mins(30),
            jitter: 0.0,
        };
        let report = ClusterSim::run(cfg, params, wfs);
        assert!(report.finished_at.is_some(), "{report:?}");
        assert!(report
            .timeline
            .watchdog_events()
            .any(|(_, s)| s == Segment::EnvInit));
        assert!(report
            .timeline
            .failure_events()
            .any(|(_, c)| c == wqueue::task::FailureCode::EnvSetup));
        assert!(report.accounting.retries > 0);
        assert!(report.accounting.backoff_hours > 0.0, "slot holds accrue");
    }

    /// A black-holed Chirp server fails both ends of a simulation task's
    /// I/O — pile-up stage-in and output stage-out — and the retry policy
    /// rides out the window without dead-lettering anything.
    #[test]
    fn chirp_blackhole_fails_stage_in_and_out_then_recovers() {
        let mut cfg = LobsterConfig::default();
        cfg.workflows = vec![WorkflowConfig::simulation("gen")];
        cfg.workers.target_cores = 32;
        cfg.workers.cores_per_worker = 4;
        cfg.merge = MergeMode::Interleaved;
        cfg.merge_target_bytes = 100_000_000;
        cfg.retry.max_attempts = Some(50);
        cfg.retry.requeue = Backoff::fixed(SimDuration::from_mins(5));
        let wf = Workflow::simulation(&cfg.workflows[0], 500, 5_000_000);
        let params = SimParams {
            availability: AvailabilityModel::Dedicated,
            horizon: SimDuration::from_hours(200),
            pool: PoolConfig {
                total_cores: 100,
                owner_mean: 0.0,
                reversion: 0.1,
                noise: 0.0,
                tick: SimDuration::from_mins(5),
            },
            faults: FaultPlan::new(vec![Fault::new(
                FaultTarget::Chirp,
                OutageSchedule::new(vec![Outage::blackout(mins(30), mins(150))]),
            )]),
            ..SimParams::default()
        };
        let report = ClusterSim::run(cfg, params, vec![wf]);
        assert!(report.finished_at.is_some(), "{report:?}");
        let codes: BTreeSet<wqueue::task::FailureCode> =
            report.timeline.failure_events().map(|(_, c)| c).collect();
        assert!(
            codes.contains(&wqueue::task::FailureCode::StageIn),
            "{codes:?}"
        );
        assert!(
            codes.contains(&wqueue::task::FailureCode::StageOut),
            "{codes:?}"
        );
        assert!(report.dead_letters.is_empty());
    }

    /// Regression (merge routing): merge inputs come off local storage
    /// via Chirp, so WAN consumption must not grow with the number of
    /// merges — only analysis staging touches the federation.
    #[test]
    fn merge_inputs_do_not_cross_the_wan() {
        let run = |merge_target_bytes: u64| {
            let (mut cfg, params, wfs) = small_setup(
                MergeMode::Interleaved,
                AvailabilityModel::Dedicated,
                OutageSchedule::none(),
                20,
            );
            cfg.merge_target_bytes = merge_target_bytes;
            ClusterSim::run(cfg, params, wfs)
        };
        let few_merges = run(400_000_000);
        let many_merges = run(100_000_000);
        assert!(many_merges.merges_completed > few_merges.merges_completed);
        let wan_few = lobster_wan_bytes(&few_merges);
        let wan_many = lobster_wan_bytes(&many_merges);
        assert!(wan_few > 0.0, "analysis streaming does use the WAN");
        assert_eq!(wan_few, wan_many, "merge count must not move WAN bytes");
    }

    /// Regression (multi-workflow sizing): each workflow is carved into
    /// tasks with *its own* `tasklets_per_task`, not workflow 0's.
    #[test]
    fn per_workflow_task_sizing() {
        let mut cfg = LobsterConfig::default();
        cfg.workers.target_cores = 64;
        cfg.workers.cores_per_worker = 4;
        cfg.merge = MergeMode::Interleaved;
        cfg.merge_target_bytes = 200_000_000;
        cfg.seed = 42;
        cfg.workflows = vec![
            WorkflowConfig::analysis("wf-small", "/DS/A"),
            WorkflowConfig::analysis("wf-large", "/DS/B"),
        ];
        cfg.workflows[0].tasklets_per_task = 4;
        cfg.workflows[1].tasklets_per_task = 10;
        let spec = DatasetSpec {
            n_files: 10,
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
        // 10 files x 50 lumis = 500 lumis = 20 tasklets per workflow.
        assert_eq!(wfs[0].n_tasklets(), 20);
        assert_eq!(wfs[1].n_tasklets(), 20);
        let params = SimParams {
            availability: AvailabilityModel::Dedicated,
            pool: PoolConfig {
                total_cores: 200,
                owner_mean: 20.0,
                reversion: 0.1,
                noise: 0.0,
                tick: SimDuration::from_mins(5),
            },
            horizon: SimDuration::from_hours(96),
            ..SimParams::default()
        };
        let report = ClusterSim::run(cfg, params, wfs);
        assert!(report.finished_at.is_some(), "{report:?}");
        // ceil(20/4) + ceil(20/10): sizing each workflow by workflow 0's
        // knob would instead yield 5 + 5 = 10 tasks.
        assert_eq!(report.tasks_completed, 5 + 2, "{report:?}");
        let merged_bytes: u64 = report.merged_files.iter().map(|m| m.1).sum();
        assert_eq!(merged_bytes, 40 * 12_000_000);
    }
}
