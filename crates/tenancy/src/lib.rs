//! # tenancy — N masters, one opportunistic pool
//!
//! Lobster is a *per-user* workload manager (§1: "an analysis workload
//! manager designed to harness non-dedicated resources"), and the paper's
//! grid hosts many such users at once: every master scavenges the same
//! opportunistic pool. This crate is that multi-tenant composition:
//!
//! * N independent [`lobster::ClusterSim`] masters — each with its own
//!   workflows, journal directory, monitors and retry policy — driven in
//!   round-lockstep over one shared [`batchsim::pool::OpportunisticPool`];
//! * a deterministic [`batchsim::arbiter::FairShareArbiter`] mediating the
//!   pool: configurable weights, decayed-usage accounting, and preemption
//!   (lowering a tenant's cap evicts its overage on the next pool tick)
//!   when a higher-deficit tenant is starved;
//! * cross-tenant cache economics: the shared squids and alien caches are
//!   warmed by whoever pulls a dataset first, so tenant B's stage-in of a
//!   dataset tenant A already processed costs fewer WAN bytes;
//! * per-tenant crash/resume: one master can be killed mid-round and
//!   resumed from its own journal while the arbitration its peers observe
//!   is unperturbed — every arbiter input (static weights, journaled
//!   work-remaining, allocation-charged usage) is crash-invariant.
//!
//! Determinism contract: the arbiter's decisions are a pure function of
//! the seed and the round sequence, so a same-seed multi-tenant run is
//! byte-identical across repeats and across the in-memory / durable
//! backends (the scenario conformance gate checks exactly this) — and
//! across worker counts: within a round the engines share nothing, so
//! busy rounds step them on parallel worker threads (see
//! [`MultiTenant::run`]) without changing a byte of output.

use batchsim::arbiter::{ArbiterConfig, FairShareArbiter};
use batchsim::pool::{OpportunisticPool, PoolConfig};
use lobster::config::{LobsterConfig, WorkloadKind};
use lobster::driver::{ClusterSim, RunReport, SimParams};
use lobster::workflow::Workflow;
use lobster::Session;
use opsplane::federate::{FederatedSnapshot, TenantMetrics};
use serde::Serialize;
use simkit::fault::CrashSite;
use simkit::prelude::*;
use simkit::rng::SimRng;
use simkit::trace::{fnv1a, Trace};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::Scope;

/// A round steps its engines on worker threads only if the round before
/// it delivered at least this many engine events, about 100 µs of
/// handler work; below that a channel round trip costs more than it
/// saves. Event counts are deterministic, so this rule is too.
const FANOUT_EVENTS: u64 = 256;

/// One tenant: a full Lobster master specification plus its fair share.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant (user) name. Also the journal-directory suffix and the
    /// federation consumer label, so it is restricted to
    /// `[A-Za-z0-9_-]+`.
    pub name: String,
    /// Fair-share weight (finite, positive).
    pub weight: f64,
    /// The tenant's Lobster configuration (workflows, retry, journal).
    pub cfg: LobsterConfig,
    /// The tenant's simulation parameters. The coordinator overrides the
    /// pool model (capacity comes from the arbiter), the horizon and the
    /// consumer label; everything else is honoured per tenant.
    pub params: SimParams,
    /// Decomposed workflows, one per `cfg.workflows` entry.
    pub workflows: Vec<Workflow>,
}

/// Coordinator-level configuration.
#[derive(Clone, Debug)]
pub struct TenancyConfig {
    /// The one physical pool every master scavenges: total cores and the
    /// owner-demand walk that eats into them.
    pub pool: PoolConfig,
    /// Arbitration round: cap recomputation and engine lockstep period.
    pub round: SimDuration,
    /// Fair-share arbiter parameters (usage decay, no-starvation floor).
    pub arbiter: ArbiterConfig,
    /// Per-tenant simulated horizon (no-hang cap).
    pub horizon: SimDuration,
    /// Seed of the shared owner-demand walk.
    pub seed: u64,
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            pool: PoolConfig::default(),
            round: SimDuration::from_mins(5),
            arbiter: ArbiterConfig::default(),
            horizon: SimDuration::from_hours(48),
            seed: 0x7E7A,
        }
    }
}

/// Coordination failure: a bad tenant roster or an I/O error from the
/// durable layer.
#[derive(Debug)]
pub enum TenancyError {
    /// The tenant roster or configuration is invalid.
    Invalid(String),
    /// Journal I/O failed.
    Io(io::Error),
}

impl fmt::Display for TenancyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenancyError::Invalid(msg) => write!(f, "invalid tenancy: {msg}"),
            TenancyError::Io(e) => write!(f, "tenancy journal i/o: {e}"),
        }
    }
}

impl std::error::Error for TenancyError {}

impl From<io::Error> for TenancyError {
    fn from(e: io::Error) -> Self {
        TenancyError::Io(e)
    }
}

/// The journal path of tenant `idx` named `name` under `root`.
pub fn journal_dir(root: &Path, idx: usize, name: &str) -> PathBuf {
    root.join(format!("tenant-{idx}-{name}"))
}

/// One tenant's outcome of a coordinated run.
#[derive(Debug)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// Fair-share weight the run used.
    pub weight: f64,
    /// The master's full run report.
    pub report: RunReport,
    /// FNV-1a digest of the tenant's serialised observable trace — the
    /// byte-identity handle for determinism and isolation checks.
    pub trace_digest: u64,
    /// The core cap the arbiter granted this tenant, per round.
    pub cap_history: Vec<u32>,
    /// Cumulative WAN bytes the tenant pulled, per dataset.
    pub wan_by_dataset: BTreeMap<String, u64>,
}

/// Outcome of a whole multi-tenant run.
#[derive(Debug)]
pub struct MultiTenantReport {
    /// Per-tenant outcomes, registration order.
    pub tenants: Vec<TenantOutcome>,
    /// Jain's fairness index over weight-normalised delivered CPU hours.
    pub jain_fairness: f64,
    /// Arbitration rounds driven.
    pub rounds: u64,
    /// The round in which the scheduled crash fired, if one did.
    pub crash_round: Option<u64>,
    /// The federated ops-plane snapshot (per-tenant labels, one file).
    pub federated: FederatedSnapshot,
    /// Rounds whose engines were stepped on worker threads. Depends on
    /// the host's core count, so it is a diagnostic only: nothing else
    /// in the report depends on it.
    pub fanned_out_rounds: u64,
}

/// A scheduled mid-run crash of one tenant's master.
#[derive(Clone, Copy, Debug)]
struct CrashPlan {
    /// Index of the tenant to kill.
    victim: usize,
    /// Engine events the victim may still deliver before the kill.
    budget: u64,
}

/// A tenant's session, boxed so handing it to a worker and back moves
/// one pointer.
type TenantSession = Box<Session>;

/// One tenant's session on its way to a worker and back, carrying the
/// round deadline and the events it may still deliver (unbounded but for
/// the crash victim).
struct Leg {
    tenant: usize,
    session: TenantSession,
    deadline: SimTime,
    budget: u64,
}

impl Leg {
    fn step(&mut self) {
        let before = self.session.delivered();
        self.session.advance(self.deadline, self.budget);
        self.budget -= self.session.delivered() - before;
    }
}

/// The worker threads of one [`MultiTenant::run`], spawned once and fed
/// one batch of jobs per round. Worker 0 is the calling thread itself;
/// each spawned worker has its own channel pair, so batches come back
/// worker by worker, never in completion order.
struct Workers<J> {
    lanes: Vec<Lane<J>>,
}

/// The coordinator's ends of one spawned worker's channels.
struct Lane<J> {
    jobs: Sender<Vec<J>>,
    done: Receiver<Vec<J>>,
}

impl<J: Send> Workers<J> {
    /// No spawned workers: the calling thread does every job.
    fn serial() -> Self {
        Workers { lanes: Vec::new() }
    }

    /// Spawn workers `1..count` on `scope`; each applies `step` to every
    /// job of each batch it receives and sends the batch back.
    fn spawn<'scope>(scope: &'scope Scope<'scope, '_>, count: usize, step: fn(&mut J)) -> Self
    where
        J: 'scope,
    {
        let lanes = (1..count)
            .map(|_| {
                let (jobs, inbox) = mpsc::channel::<Vec<J>>();
                let (outbox, done) = mpsc::channel();
                scope.spawn(move || {
                    for mut batch in inbox {
                        batch.iter_mut().for_each(step);
                        if outbox.send(batch).is_err() {
                            break;
                        }
                    }
                });
                Lane { jobs, done }
            })
            .collect();
        Workers { lanes }
    }

    /// Worker count, the calling thread included.
    fn count(&self) -> usize {
        self.lanes.len() + 1
    }

    /// Hand `batches[k]` to worker `k + 1`.
    fn send(&self, batches: Vec<Vec<J>>) -> Result<(), TenancyError> {
        for (lane, batch) in self.lanes.iter().zip(batches) {
            lane.jobs.send(batch).map_err(|_| worker_stopped())?;
        }
        Ok(())
    }

    /// Take every batch back, in worker order.
    fn collect(&self) -> Result<Vec<Vec<J>>, TenancyError> {
        self.lanes
            .iter()
            .map(|lane| lane.done.recv().map_err(|_| worker_stopped()))
            .collect()
    }
}

/// A worker drops its channel ends only by panicking. The error lets the
/// coordinator leave its `thread::scope`, which joins the worker and then
/// panics because it did, so `run()` panics rather than hangs.
fn worker_stopped() -> TenancyError {
    TenancyError::Invalid("a tenant worker thread stopped".to_string())
}

/// The multi-tenant coordinator: owns one [`Session`] per tenant, the
/// shared pool walk and the arbiter, and drives everything in
/// round-lockstep.
pub struct MultiTenant {
    cfg: TenancyConfig,
    specs: Vec<TenantSpec>,
    sessions: Vec<Option<TenantSession>>,
    arbiter: FairShareArbiter,
    shared: OpportunisticPool,
    /// Per-tenant engine deadline. A resumed tenant's clock restarts at
    /// zero, so deadlines are tracked per tenant, not globally.
    target: Vec<SimTime>,
    caps: Vec<Vec<u32>>,
    /// Monotone per-tenant WAN pull accounting. Kept coordinator-side so
    /// shared-cache warmth survives a tenant crash (the site caches do
    /// not forget what was already pulled when one master dies).
    pulled: Vec<BTreeMap<String, u64>>,
    root: Option<PathBuf>,
    crash: Option<CrashPlan>,
    clock: SimTime,
    rounds: u64,
    crash_round: Option<u64>,
    /// Worker count override; `None` means one per available core.
    workers: Option<usize>,
    /// The fan-out threshold: [`FANOUT_EVENTS`] outside tests.
    fanout_events: u64,
    fanned_out_rounds: u64,
}

impl MultiTenant {
    /// Build an in-memory coordinated run (nothing survives the process).
    pub fn new(cfg: TenancyConfig, tenants: Vec<TenantSpec>) -> Result<Self, TenancyError> {
        Self::build(cfg, tenants, None)
    }

    /// Build a durable coordinated run: each tenant journals to its own
    /// directory under `root` (see [`journal_dir`]).
    pub fn durable(
        cfg: TenancyConfig,
        tenants: Vec<TenantSpec>,
        root: &Path,
    ) -> Result<Self, TenancyError> {
        Self::build(cfg, tenants, Some(root))
    }

    fn validate(cfg: &TenancyConfig, tenants: &[TenantSpec]) -> Result<(), TenancyError> {
        let invalid = |msg: String| Err(TenancyError::Invalid(msg));
        if tenants.is_empty() {
            return invalid("no tenants".to_string());
        }
        if cfg.round <= SimDuration::ZERO {
            return invalid("round must be positive".to_string());
        }
        if cfg.pool.total_cores == 0 {
            return invalid("shared pool has zero cores".to_string());
        }
        for (i, t) in tenants.iter().enumerate() {
            if t.name.is_empty()
                || !t
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
            {
                return invalid(format!("tenant {i}: name {:?} not [A-Za-z0-9_-]+", t.name));
            }
            if tenants.iter().take(i).any(|p| p.name == t.name) {
                return invalid(format!("tenant {i}: duplicate name {:?}", t.name));
            }
            if !t.weight.is_finite() || t.weight <= 0.0 {
                return invalid(format!("tenant {}: bad weight {}", t.name, t.weight));
            }
            if t.cfg.workflows.len() != t.workflows.len() {
                return invalid(format!(
                    "tenant {}: {} workflow configs but {} decompositions",
                    t.name,
                    t.cfg.workflows.len(),
                    t.workflows.len()
                ));
            }
        }
        Ok(())
    }

    /// The per-tenant parameter overrides: the tenant's pool *slice* has
    /// no owner-demand walk of its own (owner pressure lives in the one
    /// shared walk), its capacity is governed purely by the arbiter cap,
    /// and its tick equals the arbitration round so preemption lands at
    /// round boundaries.
    fn tenant_params(cfg: &TenancyConfig, spec: &TenantSpec) -> SimParams {
        let mut p = spec.params.clone();
        p.pool = PoolConfig {
            total_cores: cfg.pool.total_cores,
            owner_mean: 0.0,
            reversion: 1.0,
            noise: 0.0,
            tick: cfg.round,
        };
        p.horizon = cfg.horizon;
        p.tenant_label = Some(spec.name.clone());
        p
    }

    fn build(
        cfg: TenancyConfig,
        mut tenants: Vec<TenantSpec>,
        root: Option<&Path>,
    ) -> Result<Self, TenancyError> {
        Self::validate(&cfg, &tenants)?;
        if let Some(r) = root {
            std::fs::create_dir_all(r)?;
        }
        let mut arbiter = FairShareArbiter::new(cfg.arbiter);
        let mut sessions = Vec::with_capacity(tenants.len());
        for (i, spec) in tenants.iter_mut().enumerate() {
            spec.params = Self::tenant_params(&cfg, spec);
            let sim = match root {
                None => ClusterSim::new(
                    spec.cfg.clone(),
                    spec.params.clone(),
                    spec.workflows.clone(),
                ),
                Some(r) => ClusterSim::durable(
                    spec.cfg.clone(),
                    spec.params.clone(),
                    spec.workflows.clone(),
                    journal_dir(r, i, &spec.name),
                )?,
            };
            arbiter.register(spec.weight);
            sessions.push(Some(Box::new(Session::start(sim))));
        }
        let n = tenants.len();
        let shared = OpportunisticPool::new(cfg.pool, SimRng::new(cfg.seed));
        Ok(MultiTenant {
            cfg,
            specs: tenants,
            sessions,
            arbiter,
            shared,
            target: vec![SimTime::ZERO; n],
            caps: vec![Vec::new(); n],
            pulled: vec![BTreeMap::new(); n],
            root: root.map(Path::to_path_buf),
            crash: None,
            clock: SimTime::ZERO,
            rounds: 0,
            crash_round: None,
            workers: None,
            fanout_events: FANOUT_EVENTS,
            fanned_out_rounds: 0,
        })
    }

    /// Test seam: step on exactly `workers` workers (the calling thread
    /// included) and fan out a round once the previous one delivered
    /// `fanout_events` events.
    #[cfg(test)]
    pub(crate) fn with_workers(mut self, workers: usize, fanout_events: u64) -> Self {
        self.workers = Some(workers);
        self.fanout_events = fanout_events;
        self
    }

    /// Schedule a crash: kill tenant `victim`'s master after it delivers
    /// `after_events` more engine events, then resume it from its journal
    /// within the same round. Durable runs only.
    pub fn crash_tenant(&mut self, victim: usize, after_events: u64) -> Result<(), TenancyError> {
        if self.root.is_none() {
            return Err(TenancyError::Invalid(
                "crash_tenant requires a durable run".to_string(),
            ));
        }
        if victim >= self.specs.len() {
            return Err(TenancyError::Invalid(format!(
                "crash victim {victim} out of range ({} tenants)",
                self.specs.len()
            )));
        }
        self.crash = Some(CrashPlan {
            victim,
            budget: after_events,
        });
        Ok(())
    }

    /// Active while unfinished and wall-clock time remains. The horizon
    /// is wall-clock, not per-tenant compute: a crashed master resumes
    /// with a fresh local clock but the coordination clock keeps
    /// marching, so the victim only gets the rounds the horizon still
    /// owes — and peers see the exact same round count with or without
    /// the crash.
    fn tenant_active(&self, i: usize) -> bool {
        match &self.sessions[i] {
            Some(s) => !s.sim().is_finished() && self.clock < SimTime::ZERO + self.cfg.horizon,
            None => false,
        }
    }

    fn any_active(&self) -> bool {
        (0..self.specs.len()).any(|i| self.tenant_active(i))
    }

    /// Demand signal for the arbiter: tasklets not yet done or withdrawn
    /// plus the merge backlog, rounded up to whole workers (a worker is
    /// the claim granularity — a 3-tasklet tail still needs one full
    /// worker) and clamped by the tenant's own target concurrency.
    /// Derived purely from journaled state so a crash + resume
    /// reproduces it.
    fn demands(&self) -> Vec<u32> {
        let n = self.specs.len();
        let mut d = vec![0u32; n];
        for (i, slot) in d.iter_mut().enumerate() {
            let Some(s) = &self.sessions[i] else {
                continue;
            };
            let m = s.sim();
            if m.is_finished() {
                continue;
            }
            let cpw = u64::from(self.specs[i].cfg.workers.cores_per_worker.max(1));
            let tc = u64::from(self.specs[i].cfg.workers.target_cores);
            let work = m.work_remaining().saturating_add(m.merge_backlog());
            let cores = work.div_ceil(cpw).saturating_mul(cpw).max(cpw);
            *slot = cores.min(tc) as u32;
        }
        d
    }

    /// Fold each engine's WAN accounting into the monotone coordinator
    /// ledger, then push the resulting warmth back into every tenant:
    /// tenant `i`'s warmth on dataset `d` is the fraction of `d` that
    /// *other* tenants already pulled (capped at 1). A solo tenant's
    /// warmth is always zero — its own pulls never warm its own future.
    fn exchange_cache_warmth(&mut self) {
        let n = self.specs.len();
        for i in 0..n {
            let Some(s) = &self.sessions[i] else {
                continue;
            };
            for (ds, &bytes) in s.sim().wan_bytes_by_dataset() {
                let slot = self.pulled[i].entry(ds.clone()).or_insert(0);
                *slot = (*slot).max(bytes);
            }
        }
        for i in 0..n {
            if self.sessions[i].is_none() {
                continue;
            }
            for w in 0..self.specs[i].workflows.len() {
                if self.specs[i].workflows[w].kind != WorkloadKind::DataProcessing {
                    continue;
                }
                let ds = self.specs[i].cfg.workflows[w].dataset.clone();
                let total = self.specs[i].workflows[w].n_tasklets()
                    * self.specs[i].workflows[w].task_input_bytes(1);
                if total == 0 {
                    continue;
                }
                let mut others = 0u64;
                for j in 0..n {
                    if j != i {
                        others =
                            others.saturating_add(self.pulled[j].get(&ds).copied().unwrap_or(0));
                    }
                }
                let warm = (others as f64 / total as f64).min(1.0);
                if let Some(s) = &mut self.sessions[i] {
                    s.sim_mut().set_dataset_warmth(&ds, warm);
                }
            }
        }
    }

    /// Kill the victim's master (dropping its open group-commit window,
    /// like a real process death) and resume it from its journal. The
    /// resumed session's clock restarts at zero; its arbitration deadline
    /// follows.
    fn crash_and_resume(&mut self, victim: usize) -> Result<(), TenancyError> {
        let Some(root) = &self.root else {
            let msg = "crash scheduled on an in-memory run".to_string();
            return Err(TenancyError::Invalid(msg));
        };
        if let Some(s) = self.sessions[victim].take() {
            s.crash(CrashSite::InsideCommitWindow);
        }
        let spec = &self.specs[victim];
        let sim = ClusterSim::resume(
            spec.cfg.clone(),
            spec.params.clone(),
            spec.workflows.clone(),
            journal_dir(root, victim, &spec.name),
        )?;
        self.sessions[victim] = Some(Box::new(Session::start(sim)));
        self.target[victim] = SimTime::ZERO;
        self.crash_round = Some(self.rounds);
        Ok(())
    }

    /// Engine events delivered so far, summed over live sessions.
    fn delivered(&self) -> u64 {
        self.sessions.iter().flatten().map(|s| s.delivered()).sum()
    }

    /// One arbitration round: advance the shared owner-demand walk,
    /// allocate caps from demand and decayed usage, exchange cache
    /// warmth, then step every session to the round deadline over
    /// `workers` and crash the victim if its budget ran out. Returns the
    /// engine events the round delivered.
    fn advance_round(&mut self, workers: &Workers<Leg>) -> Result<u64, TenancyError> {
        let n = self.specs.len();
        self.clock += self.cfg.round;
        self.rounds += 1;
        self.shared.tick(self.clock);
        let available = self
            .cfg
            .pool
            .total_cores
            .saturating_sub(self.shared.owner_cores());

        let demands = self.demands();
        let alloc = self.arbiter.allocate(available, &demands);
        self.exchange_cache_warmth();

        for i in 0..n {
            let cap = alloc.get(i).copied().unwrap_or(0);
            self.caps[i].push(cap);
            self.target[i] += self.cfg.round;
            if let Some(s) = &mut self.sessions[i] {
                s.sim_mut().set_core_cap(cap);
            }
        }
        if workers.count() > 1 {
            self.fanned_out_rounds += 1;
        }
        let before = self.delivered();
        let crash_now = self.step_sessions(workers)?;
        let events = self.delivered().saturating_sub(before);
        if let Some(victim) = crash_now {
            self.crash = None;
            self.crash_and_resume(victim)?;
        }
        Ok(events)
    }

    /// Step every session to its round deadline over `workers`: tenant
    /// `i` runs on worker `i % W`, where worker 0 is this thread, so with
    /// one worker this is the plain tenant-index loop. The crash victim's
    /// leg carries what is left of its event budget. Results land by
    /// tenant index. Returns the victim once its budget is used up.
    fn step_sessions(&mut self, workers: &Workers<Leg>) -> Result<Option<usize>, TenancyError> {
        let w = workers.count();
        let mut batches: Vec<Vec<Leg>> = (0..w).map(|_| Vec::new()).collect();
        for (i, slot) in self.sessions.iter_mut().enumerate() {
            if let Some(session) = slot.take() {
                let budget = match self.crash {
                    Some(c) if c.victim == i => c.budget,
                    _ => u64::MAX,
                };
                batches[i % w].push(Leg {
                    tenant: i,
                    session,
                    deadline: self.target[i],
                    budget,
                });
            }
        }
        let mut here = batches.remove(0);
        workers.send(batches)?;
        here.iter_mut().for_each(Leg::step);
        for leg in here
            .into_iter()
            .chain(workers.collect()?.into_iter().flatten())
        {
            if let Some(c) = self.crash.as_mut().filter(|c| c.victim == leg.tenant) {
                c.budget = leg.budget;
            }
            self.sessions[leg.tenant] = Some(leg.session);
        }
        Ok(self.crash.filter(|c| c.budget == 0).map(|c| c.victim))
    }

    /// Drive rounds until every tenant finishes or exhausts its horizon,
    /// then harvest per-tenant reports, fairness and the federated
    /// snapshot.
    ///
    /// A round whose predecessor delivered at least `FANOUT_EVENTS`
    /// engine events steps its sessions on `min(cores, tenants)` workers:
    /// threads spawned once, at the first such round, and kept for the
    /// rest of the run. Everything else — the coordinator phase,
    /// crash/resume and harvest — stays on this thread, and the output is
    /// byte-identical for any worker count.
    pub fn run(mut self) -> Result<MultiTenantReport, TenancyError> {
        let workers = self.workers.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
            cores.min(self.specs.len())
        });
        let serial = Workers::serial();
        let mut events = 0;
        while self.any_active() && (workers < 2 || events < self.fanout_events) {
            events = self.advance_round(&serial)?;
        }
        if self.any_active() {
            std::thread::scope(|scope| {
                let pool = Workers::spawn(scope, workers, Leg::step);
                while self.any_active() {
                    let fan_out = events >= self.fanout_events;
                    events = self.advance_round(if fan_out { &pool } else { &serial })?;
                }
                Ok::<_, TenancyError>(())
            })?;
        }
        let n = self.specs.len();
        let mut outcomes = Vec::with_capacity(n);
        let mut fed_tenants = Vec::with_capacity(n);
        for i in 0..n {
            let Some(s) = self.sessions[i].take() else {
                continue;
            };
            let report = s.finish();
            let spec = &self.specs[i];
            fed_tenants.push(TenantMetrics {
                tenant: spec.name.clone(),
                weight: spec.weight,
                snapshot: lobster::ops::snapshot_from_run(
                    &spec.name,
                    &spec.cfg,
                    &spec.params,
                    &report,
                ),
            });
            outcomes.push(TenantOutcome {
                name: spec.name.clone(),
                weight: spec.weight,
                trace_digest: trace_digest(&report),
                cap_history: std::mem::take(&mut self.caps[i]),
                wan_by_dataset: std::mem::take(&mut self.pulled[i]),
                report,
            });
        }
        let mut shares = Vec::with_capacity(outcomes.len());
        for o in &outcomes {
            shares.push(o.report.accounting.cpu / o.weight);
        }
        let jain_fairness = jain_index(&shares);
        Ok(MultiTenantReport {
            tenants: outcomes,
            jain_fairness,
            rounds: self.rounds,
            crash_round: self.crash_round,
            federated: FederatedSnapshot::build(fed_tenants, jain_fairness),
            fanned_out_rounds: self.fanned_out_rounds,
        })
    }
}

/// Jain's fairness index over per-tenant shares: `(Σx)² / (n·Σx²)`,
/// 1 when every share is equal, → 1/n under maximal skew. Degenerate
/// inputs (no tenants, all-zero shares) count as perfectly fair.
pub fn jain_index(shares: &[f64]) -> f64 {
    let n = shares.len();
    if n == 0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for &x in shares {
        sum += x;
        sum_sq += x * x;
    }
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Everything observable about one tenant's run that is cheap to
/// serialise — the isolation and determinism checks hash these bytes.
/// Mirrors the scenario conformance harness's trace record.
#[derive(Serialize)]
struct TenantTraceRecord {
    tasks_completed: u64,
    tasks_failed: u64,
    evictions: u64,
    merges_completed: u64,
    final_task_size: u32,
    peak_concurrency: f64,
    finished_at: Option<SimTime>,
    cpu_hours: f64,
    merged_files: Vec<(String, u64)>,
    dashboard: Vec<(String, f64)>,
    dead_letter_units: u64,
    concurrency: Vec<f64>,
    completions: Vec<f64>,
    failures: Vec<f64>,
}

/// FNV-1a over the serialised per-tenant trace.
fn trace_digest(report: &RunReport) -> u64 {
    let mut dead_letter_units = 0u64;
    for d in &report.dead_letters {
        dead_letter_units += d.units;
    }
    let record = TenantTraceRecord {
        tasks_completed: report.tasks_completed,
        tasks_failed: report.tasks_failed,
        evictions: report.evictions,
        merges_completed: report.merges_completed,
        final_task_size: report.final_task_size,
        peak_concurrency: report.peak_concurrency,
        finished_at: report.finished_at,
        cpu_hours: report.accounting.cpu,
        merged_files: report.merged_files.clone(),
        dashboard: report.dashboard.clone(),
        dead_letter_units,
        concurrency: report.timeline.concurrency(),
        completions: report.timeline.completions(),
        failures: report.timeline.failures(),
    };
    let mut trace = Trace::new();
    trace.push(report.ended_at, record);
    let mut buf = Vec::new();
    // Writing into a Vec cannot fail; an empty buffer would only arise
    // from a serialiser bug and then digests would still be consistent.
    let _ = trace.write_jsonl(&mut buf);
    fnv1a(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster::config::WorkflowConfig;

    fn sim_tenant(name: &str, weight: f64, tasklets: u64) -> TenantSpec {
        let mut cfg = LobsterConfig::default();
        cfg.workflows = vec![WorkflowConfig::simulation("gen")];
        cfg.workers.target_cores = 64;
        cfg.workers.cores_per_worker = 4;
        cfg.seed = 0xBEEF ^ fnv1a(name.as_bytes());
        let wf = Workflow::simulation(&cfg.workflows[0], tasklets, 0);
        TenantSpec {
            name: name.to_string(),
            weight,
            cfg,
            params: SimParams::default(),
            workflows: vec![wf],
        }
    }

    fn small_pool() -> TenancyConfig {
        TenancyConfig {
            pool: PoolConfig {
                total_cores: 96,
                owner_mean: 16.0,
                reversion: 0.3,
                noise: 4.0,
                tick: SimDuration::from_mins(5),
            },
            round: SimDuration::from_mins(5),
            arbiter: ArbiterConfig::default(),
            horizon: SimDuration::from_hours(48),
            seed: 11,
        }
    }

    #[test]
    fn two_equal_tenants_finish_and_split_fairly() {
        let tenants = vec![sim_tenant("alice", 1.0, 400), sim_tenant("bob", 1.0, 400)];
        let mt = MultiTenant::new(small_pool(), tenants).expect("valid");
        let rep = mt.run().expect("runs");
        assert_eq!(rep.tenants.len(), 2);
        for t in &rep.tenants {
            assert!(
                t.report.finished_at.is_some(),
                "tenant {} did not finish",
                t.name
            );
            assert!(t.report.tasks_completed > 0);
        }
        assert!(
            rep.jain_fairness > 0.9,
            "equal weights should split fairly, jain = {}",
            rep.jain_fairness
        );
        rep.federated.validate().expect("federated snapshot valid");
        assert_eq!(rep.federated.tenants.len(), 2);
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let mk = || {
            MultiTenant::new(
                small_pool(),
                vec![sim_tenant("alice", 1.0, 300), sim_tenant("bob", 2.0, 300)],
            )
            .expect("valid")
            .run()
            .expect("runs")
        };
        let a = mk();
        let b = mk();
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.trace_digest, y.trace_digest, "tenant {} diverged", x.name);
            assert_eq!(x.cap_history, y.cap_history);
        }
        assert_eq!(a.federated.to_json(), b.federated.to_json());
    }

    #[test]
    fn caps_never_exceed_available_pool() {
        let cfg = small_pool();
        let total = cfg.pool.total_cores;
        let mt = MultiTenant::new(
            cfg,
            vec![
                sim_tenant("a", 1.0, 200),
                sim_tenant("b", 1.0, 200),
                sim_tenant("c", 1.0, 200),
            ],
        )
        .expect("valid");
        let rep = mt.run().expect("runs");
        let rounds = rep.tenants[0].cap_history.len();
        for r in 0..rounds {
            let mut sum = 0u32;
            for t in &rep.tenants {
                sum += t.cap_history[r];
            }
            assert!(sum <= total, "round {r}: caps sum {sum} over pool {total}");
        }
    }

    #[test]
    fn tenant_labels_flow_to_dashboards() {
        let mt = MultiTenant::new(
            small_pool(),
            vec![sim_tenant("alice", 1.0, 50), sim_tenant("bob", 1.0, 50)],
        )
        .expect("valid");
        let rep = mt.run().expect("runs");
        // Simulation tenants move no WAN bytes, but the snapshot meta
        // still carries the per-tenant label.
        assert_eq!(rep.federated.tenants[0].snapshot.run.name, "alice");
        assert_eq!(rep.federated.tenants[1].snapshot.run.name, "bob");
    }

    #[test]
    fn roster_validation_rejects_bad_specs() {
        let cfg = small_pool();
        assert!(matches!(
            MultiTenant::new(cfg.clone(), vec![]),
            Err(TenancyError::Invalid(_))
        ));
        let mut bad = sim_tenant("x", 1.0, 10);
        bad.name = "no/slashes".to_string();
        assert!(MultiTenant::new(cfg.clone(), vec![bad]).is_err());
        let dup = vec![sim_tenant("x", 1.0, 10), sim_tenant("x", 1.0, 10)];
        assert!(MultiTenant::new(cfg.clone(), dup).is_err());
        let neg = vec![sim_tenant("x", -1.0, 10)];
        assert!(MultiTenant::new(cfg, neg).is_err());
    }

    const SHARED_DATASET: &str = "/Shared/TTJets/AOD";

    /// An analysis tenant over the one dataset every such tenant shares,
    /// so the warmth exchange feeds each one's stage-ins.
    fn data_tenant(name: &str, weight: f64, seed: u64) -> TenantSpec {
        let mut cfg = LobsterConfig::default();
        cfg.workflows = vec![WorkflowConfig::analysis("ana", SHARED_DATASET)];
        cfg.workers.target_cores = 16;
        cfg.workers.cores_per_worker = 4;
        cfg.seed = seed;
        let mut dbs = gridstore::dbs::Dbs::new();
        dbs.generate(
            SHARED_DATASET,
            gridstore::dbs::DatasetSpec {
                n_files: 120,
                mean_file_bytes: 50_000_000,
                events_per_lumi: 100,
                lumis_per_file: 50,
            },
            3,
        );
        let ds = dbs.query(SHARED_DATASET).expect("dataset").clone();
        let wf = Workflow::from_dataset(&cfg.workflows[0], &ds);
        TenantSpec {
            name: name.to_string(),
            weight,
            cfg,
            params: SimParams::default(),
            workflows: vec![wf],
        }
    }

    /// Mixed weights and workloads: two analysis tenants share a dataset
    /// (warmth exchange matters), two simulation tenants do not.
    fn mixed_roster() -> Vec<TenantSpec> {
        vec![
            data_tenant("alice", 2.0, 5),
            data_tenant("bob", 1.0, 7),
            sim_tenant("carol", 3.0, 300),
            sim_tenant("dave", 1.0, 500),
        ]
    }

    /// Ten simulation tenants over a 1024-core pool: busy enough that a
    /// round delivers more than `FANOUT_EVENTS` events. The horizon is
    /// `hours` hours plus two rounds.
    fn busy(hours: u64) -> MultiTenant {
        let mut cfg = small_pool();
        cfg.pool.total_cores = 1024;
        cfg.horizon = SimDuration::from_hours(hours) + cfg.round + cfg.round;
        let roster = (0..10)
            .map(|i| sim_tenant(&format!("t{i}"), 1.0, 2000))
            .collect();
        MultiTenant::new(cfg, roster).expect("valid")
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tenancy-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every file under `root`, by path relative to it.
    fn tree_bytes(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut out = BTreeMap::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).expect("readable dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let rel = path.strip_prefix(root).expect("under root").to_path_buf();
                    out.insert(rel, std::fs::read(&path).expect("readable file"));
                }
            }
        }
        out
    }

    /// Everything a run reports that the worker count must not change.
    fn assert_same_outcome(a: &MultiTenantReport, b: &MultiTenantReport, what: &str) {
        assert_eq!(a.rounds, b.rounds, "{what}: rounds");
        assert_eq!(a.crash_round, b.crash_round, "{what}: crash round");
        assert_eq!(
            a.jain_fairness.to_bits(),
            b.jain_fairness.to_bits(),
            "{what}: jain"
        );
        assert_eq!(a.tenants.len(), b.tenants.len(), "{what}: tenants");
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.trace_digest, y.trace_digest, "{what}: {} digest", x.name);
            assert_eq!(x.cap_history, y.cap_history, "{what}: {} caps", x.name);
            assert_eq!(x.wan_by_dataset, y.wan_by_dataset, "{what}: {} wan", x.name);
        }
        assert_eq!(
            a.federated.to_json(),
            b.federated.to_json(),
            "{what}: federated snapshot"
        );
    }

    /// The worker count changes nothing: with fan-out forced on every
    /// round, 1, 2, 3 and tenants+1 workers give byte-identical output.
    #[test]
    fn output_is_invariant_in_worker_count() {
        let n = mixed_roster().len();
        let run = |w: usize| {
            MultiTenant::new(small_pool(), mixed_roster())
                .expect("valid")
                .with_workers(w, 0)
                .run()
                .expect("runs")
        };
        let serial = run(1);
        assert_eq!(serial.fanned_out_rounds, 0);
        assert!(
            serial
                .tenants
                .iter()
                .any(|t| t.wan_by_dataset.values().any(|&b| b > 0)),
            "the analysis tenants must pull over the WAN"
        );
        for w in [2, 3, n + 1] {
            let fanned = run(w);
            assert_eq!(fanned.fanned_out_rounds, fanned.rounds, "{w} workers");
            assert_same_outcome(&serial, &fanned, &format!("{w} workers"));
        }
    }

    /// The same with a durable run whose crash victim steps on a spawned
    /// worker: journals, crash round and output are unchanged.
    #[test]
    fn durable_crash_is_invariant_in_worker_count() {
        let n = mixed_roster().len();
        let run = |w: usize| {
            let root = scratch(&format!("crash-w{w}"));
            let mut mt = MultiTenant::durable(small_pool(), mixed_roster(), &root)
                .expect("valid")
                .with_workers(w, 0);
            mt.crash_tenant(1, 150).expect("durable run");
            let rep = mt.run().expect("runs");
            let journals = tree_bytes(&root);
            let _ = std::fs::remove_dir_all(&root);
            (rep, journals)
        };
        let (serial, serial_journals) = run(1);
        assert!(serial.crash_round.is_some(), "the crash must fire");
        assert!(serial_journals.len() >= n, "one journal per tenant");
        for w in [2, 3, n + 1] {
            let (fanned, journals) = run(w);
            assert_same_outcome(&serial, &fanned, &format!("{w} workers"));
            assert!(
                journals == serial_journals,
                "{w} workers: journal directories differ"
            );
        }
    }

    /// Quiet rounds stay on the coordinator thread: this roster never
    /// delivers `FANOUT_EVENTS` events in a round.
    #[test]
    fn small_rosters_never_fan_out() {
        let rep = MultiTenant::new(
            small_pool(),
            vec![sim_tenant("alice", 1.0, 200), sim_tenant("bob", 1.0, 200)],
        )
        .expect("valid")
        .with_workers(2, FANOUT_EVENTS)
        .run()
        .expect("runs");
        assert!(rep.rounds > 0);
        assert_eq!(rep.fanned_out_rounds, 0);
    }

    /// A busy roster fans out from round 2 on (round 1 has no previous
    /// round to measure), one worker never does, and fanning out changes
    /// nothing.
    #[test]
    fn busy_rosters_fan_out_after_round_one() {
        let serial = busy(48).with_workers(1, 0).run().expect("runs");
        assert_eq!(serial.fanned_out_rounds, 0);
        let fanned = busy(48).with_workers(2, FANOUT_EVENTS).run().expect("runs");
        assert!(
            fanned.fanned_out_rounds > 0 && fanned.fanned_out_rounds < fanned.rounds,
            "{} of {} rounds fanned out",
            fanned.fanned_out_rounds,
            fanned.rounds
        );
        assert_same_outcome(&serial, &fanned, "busy roster");
        // Cut after two rounds: round 1 stays serial, round 2 fans out.
        let two = busy(0).with_workers(2, FANOUT_EVENTS).run().expect("runs");
        assert_eq!((two.rounds, two.fanned_out_rounds), (2, 1));
    }

    /// A panic on a spawned worker surfaces as a panic of the caller, not
    /// a hang, whichever worker it hits.
    #[test]
    fn worker_panic_reaches_the_caller() {
        fn step(x: &mut u64) {
            assert_ne!(*x, 3, "job 3 fails");
            *x *= 10;
        }
        let round = |count: usize| {
            std::thread::scope(|scope| {
                let workers = Workers::spawn(scope, count, step);
                let batches = (1..count).map(|k| vec![k as u64]).collect();
                workers.send(batches)?;
                workers.collect()
            })
        };
        assert_eq!(round(3).expect("no panic"), vec![vec![10], vec![20]]);
        for count in [4, 6] {
            let caught = std::panic::catch_unwind(|| round(count));
            assert!(caught.is_err(), "{count} workers: panic swallowed");
        }
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let skew = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12, "{skew}");
    }
}
