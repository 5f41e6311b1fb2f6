//! Scenario conformance: run a scenario and check the four global
//! robustness invariants.
//!
//! 1. **No hang** — the run drains strictly before the scenario's horizon
//!    (the sim-time watchdog cap).
//! 2. **Accounting conservation** — a cold journal replay accounts every
//!    tasklet exactly once: `done + dead-lettered == total`, with nothing
//!    left in flight.
//! 3. **Trace determinism** — the durable run and an independent in-memory
//!    run of the same scenario serialise to byte-identical traces (covering
//!    both same-seed determinism and journaling non-perturbation).
//! 4. **Crash/resume convergence** — killing the master halfway through the
//!    event stream and resuming from the journal converges to the
//!    uninterrupted run's accounting, via `lobster::Session::crash`.

use crate::compile::{compile, compile_multitenant, Compiled};
use crate::spec::{Scenario, ScenarioError};
use lobster::db::LobsterDb;
use lobster::driver::{ClusterSim, RunReport};
use lobster::monitor::Accounting;
use lobster::{Session, Stop};
use opsplane::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use simkit::fault::CrashSite;
use simkit::time::SimTime;
use simkit::trace::Trace;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Why a scenario failed conformance.
#[derive(Debug)]
pub enum ConformanceError {
    /// The scenario itself would not compile.
    Scenario(ScenarioError),
    /// Journal plumbing failed.
    Io(io::Error),
    /// One of the four invariants did not hold.
    Invariant {
        /// Which scenario.
        scenario: String,
        /// Which invariant (`no-hang`, `conservation`, `determinism`,
        /// `crash-resume`).
        invariant: &'static str,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::Scenario(e) => write!(f, "scenario error: {e}"),
            ConformanceError::Io(e) => write!(f, "io error: {e}"),
            ConformanceError::Invariant {
                scenario,
                invariant,
                detail,
            } => write!(f, "{scenario}: invariant {invariant} violated: {detail}"),
        }
    }
}

impl std::error::Error for ConformanceError {}

impl From<ScenarioError> for ConformanceError {
    fn from(e: ScenarioError) -> Self {
        ConformanceError::Scenario(e)
    }
}

impl From<io::Error> for ConformanceError {
    fn from(e: io::Error) -> Self {
        ConformanceError::Io(e)
    }
}

/// What a conforming run looked like — committed as the chaos-sweep
/// baseline so drift in any scenario's outcome is visible in review.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConformanceReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Tasklets across all workflows.
    pub total_tasklets: u64,
    /// Tasklets accounted done by the cold journal replay.
    pub done_tasklets: u64,
    /// Tasklets accounted dead-lettered by the cold journal replay.
    pub dead_tasklets: u64,
    /// Dead-letter ledger entries in the reference report.
    pub dead_letters: u64,
    /// Tasks completed in the reference run.
    pub tasks_completed: u64,
    /// Events the reference run delivered.
    pub events_delivered: u64,
    /// When the reference run drained, in sim microseconds.
    pub finished_at_us: u64,
    /// The horizon (no-hang cap), in sim microseconds.
    pub horizon_us: u64,
    /// FNV-1a digest of the serialised run trace, hex.
    pub trace_digest: String,
}

/// Everything observable about a run that is cheap to serialise — the
/// determinism invariant hashes this record's bytes.
#[derive(Serialize)]
struct RunTraceRecord {
    tasks_completed: u64,
    tasks_failed: u64,
    evictions: u64,
    merges_completed: u64,
    final_task_size: u32,
    peak_concurrency: f64,
    finished_at: Option<SimTime>,
    accounting: Accounting,
    merged_files: Vec<(String, u64)>,
    dashboard: Vec<(String, f64)>,
    dead_letter_units: u64,
    concurrency: Vec<f64>,
    completions: Vec<f64>,
    failures: Vec<f64>,
    efficiency: Vec<f64>,
}

/// FNV-1a over the serialised trace bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialise the observable run state and digest it.
fn trace_bytes(report: &RunReport) -> io::Result<(Vec<u8>, u64)> {
    let record = RunTraceRecord {
        tasks_completed: report.tasks_completed,
        tasks_failed: report.tasks_failed,
        evictions: report.evictions,
        merges_completed: report.merges_completed,
        final_task_size: report.final_task_size,
        peak_concurrency: report.peak_concurrency,
        finished_at: report.finished_at,
        accounting: report.accounting.clone(),
        merged_files: report.merged_files.clone(),
        dashboard: report.dashboard.clone(),
        dead_letter_units: report.dead_letters.iter().map(|d| d.units).sum(),
        concurrency: report.timeline.concurrency(),
        completions: report.timeline.completions(),
        failures: report.timeline.failures(),
        efficiency: report.timeline.efficiency(),
    };
    let mut trace = Trace::new();
    trace.push(report.ended_at, record);
    let mut buf = Vec::new();
    trace.write_jsonl(&mut buf)?;
    let digest = fnv1a(&buf);
    Ok((buf, digest))
}

/// Runs scenarios and checks the four invariants. Owns a scratch
/// directory for journals; every conformance run cleans up after itself.
pub struct ScenarioRunner {
    root: PathBuf,
}

fn cleanup(path: &Path) {
    std::fs::remove_dir_all(path).ok();
}

impl ScenarioRunner {
    /// A runner whose journals live under the system temp dir, namespaced
    /// by `tag` and the process id so concurrent test binaries don't
    /// collide.
    pub fn new(tag: &str) -> io::Result<Self> {
        let root = std::env::temp_dir()
            .join("lobster-scenarios")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(ScenarioRunner { root })
    }

    fn invariant<T>(
        sc: &Scenario,
        invariant: &'static str,
        detail: String,
    ) -> Result<T, ConformanceError> {
        Err(ConformanceError::Invariant {
            scenario: sc.name.clone(),
            invariant,
            detail,
        })
    }

    /// Run `sc` and check all four invariants, returning the conformance
    /// record of the reference run.
    pub fn conformance(&self, sc: &Scenario) -> Result<ConformanceReport, ConformanceError> {
        self.conformance_with_snapshot(sc).map(|(report, _)| report)
    }

    /// [`conformance`](Self::conformance), but also lower the reference
    /// run into a deterministic ops-plane metrics snapshot — so every
    /// conformance run can emit `metrics.json` / render the dashboard.
    pub fn conformance_with_snapshot(
        &self,
        sc: &Scenario,
    ) -> Result<(ConformanceReport, MetricsSnapshot), ConformanceError> {
        let Compiled {
            cfg,
            params,
            workflows,
        } = compile(sc)?;
        let (snap_cfg, snap_params) = (cfg.clone(), params.clone());
        let total_tasklets: u64 = workflows.iter().map(|w| w.n_tasklets()).sum();
        let horizon_us = params.horizon.as_micros();

        // Reference durable run: invariants 1 (no hang) and 2
        // (conservation, via a cold journal replay).
        let ref_path = self.root.join(format!("{}-ref", sc.name));
        cleanup(&ref_path);
        let mut session = Session::start(ClusterSim::durable(cfg, params, workflows, &ref_path)?);
        session.advance(session.horizon(), u64::MAX);
        let reference = session.finish();
        let finished_at = match reference.finished_at {
            Some(t) => t,
            None => {
                cleanup(&ref_path);
                return Self::invariant(
                    sc,
                    "no-hang",
                    format!(
                        "run did not drain within the {}h horizon \
                         ({} tasks completed, {} events)",
                        sc.horizon_hours, reference.tasks_completed, reference.events_delivered
                    ),
                );
            }
        };
        let db = LobsterDb::recover(&ref_path)?;
        let done_tasklets = db.total_done_tasklets();
        let dead_tasklets = db.total_dead_tasklets();
        if done_tasklets + dead_tasklets != total_tasklets {
            cleanup(&ref_path);
            return Self::invariant(
                sc,
                "conservation",
                format!("done {done_tasklets} + dead {dead_tasklets} != total {total_tasklets}"),
            );
        }
        if !db.running_tasks().is_empty() {
            cleanup(&ref_path);
            return Self::invariant(
                sc,
                "conservation",
                format!(
                    "{} task(s) left in flight after drain",
                    db.running_tasks().len()
                ),
            );
        }
        if reference.dead_letters.is_empty() && !db.unmerged_outputs().is_empty() {
            cleanup(&ref_path);
            return Self::invariant(
                sc,
                "conservation",
                format!(
                    "{} output(s) outside any merged file in a dead-letter-free run",
                    db.unmerged_outputs().len()
                ),
            );
        }
        drop(db);
        cleanup(&ref_path);

        // Invariant 3: an independent in-memory run serialises to the
        // byte-identical trace (same-seed determinism + journaling
        // non-perturbation in one comparison).
        let Compiled {
            cfg,
            params,
            workflows,
        } = compile(sc)?;
        let memory = ClusterSim::run(cfg, params, workflows);
        let (ref_bytes, ref_digest) = trace_bytes(&reference)?;
        let (mem_bytes, mem_digest) = trace_bytes(&memory)?;
        if ref_bytes != mem_bytes {
            return Self::invariant(
                sc,
                "determinism",
                format!("durable trace digest {ref_digest:016x} != in-memory {mem_digest:016x}"),
            );
        }

        // Invariant 4: crash halfway through the event stream, resume from
        // the journal, converge with the uninterrupted reference.
        let crash_path = self.root.join(format!("{}-crash", sc.name));
        cleanup(&crash_path);
        let budget = (reference.events_delivered / 2).max(1);
        let Compiled {
            cfg,
            params,
            workflows,
        } = compile(sc)?;
        let mut session = Session::start(ClusterSim::durable(cfg, params, workflows, &crash_path)?);
        let stop = session.advance(session.horizon(), budget);
        session.crash(CrashSite::CommitBoundary);
        if stop != Stop::Budget {
            cleanup(&crash_path);
            return Self::invariant(
                sc,
                "crash-resume",
                format!(
                    "crash budget {budget} of {} events did not land mid-run",
                    reference.events_delivered
                ),
            );
        }
        let Compiled {
            cfg,
            params,
            workflows,
        } = compile(sc)?;
        let mut session = Session::start(ClusterSim::resume(cfg, params, workflows, &crash_path)?);
        session.advance(session.horizon(), u64::MAX);
        let resumed = session.finish();
        if resumed.finished_at.is_none() {
            cleanup(&crash_path);
            return Self::invariant(sc, "crash-resume", "resumed run never finished".to_string());
        }
        // A resumed run's *timing* legitimately diverges (the clock restarts
        // and the rng stream is re-seeded), so under active faults a task
        // that succeeded in the reference may exhaust its retry budget after
        // resume. Byte-for-byte merged equality is therefore only required
        // when neither timeline dead-lettered anything; conservation (below)
        // is the invariant that always holds.
        let merged = |r: &RunReport| -> u64 { r.merged_files.iter().map(|m| m.1).sum() };
        if reference.dead_letters.is_empty()
            && resumed.dead_letters.is_empty()
            && merged(&resumed) != merged(&reference)
        {
            cleanup(&crash_path);
            return Self::invariant(
                sc,
                "crash-resume",
                format!(
                    "merged bytes diverged in a dead-letter-free run: \
                     resumed {} vs reference {}",
                    merged(&resumed),
                    merged(&reference)
                ),
            );
        }
        let db = LobsterDb::recover(&crash_path)?;
        let done = db.total_done_tasklets();
        let dead = db.total_dead_tasklets();
        let in_flight = db.running_tasks().len();
        drop(db);
        cleanup(&crash_path);
        if done + dead != total_tasklets || in_flight != 0 {
            return Self::invariant(
                sc,
                "crash-resume",
                format!(
                    "post-resume audit: done {done} + dead {dead} != total {total_tasklets}, \
                     or {in_flight} task(s) in flight"
                ),
            );
        }

        let snapshot =
            lobster::ops::snapshot_from_run(&sc.name, &snap_cfg, &snap_params, &reference);
        Ok((
            ConformanceReport {
                scenario: sc.name.clone(),
                seed: sc.seed,
                total_tasklets,
                done_tasklets,
                dead_tasklets,
                dead_letters: reference.dead_letters.len() as u64,
                tasks_completed: reference.tasks_completed,
                events_delivered: reference.events_delivered,
                finished_at_us: finished_at.as_micros(),
                horizon_us,
                trace_digest: format!("{ref_digest:016x}"),
            },
            snapshot,
        ))
    }

    /// The four invariants for a scenario that declares a tenant roster,
    /// adapted to the coordinated run:
    ///
    /// 1. **No hang** — every tenant drains before the wall-clock horizon.
    /// 2. **Conservation** — each tenant's cold journal replay accounts
    ///    every tasklet exactly once, nothing in flight.
    /// 3. **Determinism** — the durable coordinated run and an independent
    ///    in-memory run agree byte-for-byte: per-tenant trace digests,
    ///    arbiter cap sequences, and the federated snapshot JSON.
    /// 4. **Crash/resume** — crash tenant 0's master mid-run, resume from
    ///    its journal; the victim still drains and its ledger still
    ///    conserves, while the peers' traces match the uncrashed run.
    pub fn multi_conformance(
        &self,
        sc: &Scenario,
    ) -> Result<MultiTenantConformance, ConformanceError> {
        let (coord, roster) = compile_multitenant(sc)?;
        let per_tenant_tasklets: u64 = roster[0].workflows.iter().map(|w| w.n_tasklets()).sum();

        // Invariants 1 + 2 on the durable reference run.
        let ref_root = self.root.join(format!("{}-mt-ref", sc.name));
        cleanup(&ref_root);
        let reference = tenancy::MultiTenant::durable(coord, roster, &ref_root)
            .map_err(tenancy_err)?
            .run()
            .map_err(tenancy_err)?;
        for t in &reference.tenants {
            if t.report.finished_at.is_none() {
                cleanup(&ref_root);
                return Self::invariant(
                    sc,
                    "no-hang",
                    format!(
                        "tenant {} did not drain within the {}h horizon \
                         ({} tasks completed)",
                        t.name, sc.horizon_hours, t.report.tasks_completed
                    ),
                );
            }
        }
        for (i, t) in reference.tenants.iter().enumerate() {
            let dir = tenancy::journal_dir(&ref_root, i, &t.name);
            let db = LobsterDb::recover(&dir)?;
            let done = db.total_done_tasklets();
            let dead = db.total_dead_tasklets();
            let in_flight = db.running_tasks().len();
            if done + dead != per_tenant_tasklets || in_flight != 0 {
                cleanup(&ref_root);
                return Self::invariant(
                    sc,
                    "conservation",
                    format!(
                        "tenant {}: done {done} + dead {dead} != total \
                         {per_tenant_tasklets}, or {in_flight} in flight",
                        t.name
                    ),
                );
            }
        }
        cleanup(&ref_root);

        // Invariant 3: in-memory run, byte-identical observables.
        let (coord, roster) = compile_multitenant(sc)?;
        let memory = tenancy::MultiTenant::new(coord, roster)
            .map_err(tenancy_err)?
            .run()
            .map_err(tenancy_err)?;
        for (d, m) in reference.tenants.iter().zip(&memory.tenants) {
            if d.trace_digest != m.trace_digest || d.cap_history != m.cap_history {
                return Self::invariant(
                    sc,
                    "determinism",
                    format!(
                        "tenant {}: durable trace {:016x} / in-memory {:016x} \
                         (caps equal: {})",
                        d.name,
                        d.trace_digest,
                        m.trace_digest,
                        d.cap_history == m.cap_history
                    ),
                );
            }
        }
        if reference.federated.to_json() != memory.federated.to_json() {
            return Self::invariant(
                sc,
                "determinism",
                "federated snapshot JSON diverged between backends".to_string(),
            );
        }

        // Invariant 4: crash tenant 0 mid-run and resume from its journal.
        let crash_root = self.root.join(format!("{}-mt-crash", sc.name));
        cleanup(&crash_root);
        let budget = (reference.tenants[0].report.events_delivered / 2).max(1);
        let (coord, roster) = compile_multitenant(sc)?;
        let mut mt =
            tenancy::MultiTenant::durable(coord, roster, &crash_root).map_err(tenancy_err)?;
        mt.crash_tenant(0, budget).map_err(tenancy_err)?;
        let crashed = mt.run().map_err(tenancy_err)?;
        if crashed.crash_round.is_none() {
            cleanup(&crash_root);
            return Self::invariant(
                sc,
                "crash-resume",
                format!("crash budget {budget} events did not land mid-run"),
            );
        }
        let victim = &crashed.tenants[0];
        if victim.report.finished_at.is_none() {
            cleanup(&crash_root);
            return Self::invariant(
                sc,
                "crash-resume",
                "victim never drained after resume".to_string(),
            );
        }
        let dir = tenancy::journal_dir(&crash_root, 0, &victim.name);
        let db = LobsterDb::recover(&dir)?;
        let done = db.total_done_tasklets();
        let dead = db.total_dead_tasklets();
        let in_flight = db.running_tasks().len();
        drop(db);
        cleanup(&crash_root);
        if done + dead != per_tenant_tasklets || in_flight != 0 {
            return Self::invariant(
                sc,
                "crash-resume",
                format!(
                    "post-resume audit: done {done} + dead {dead} != total \
                     {per_tenant_tasklets}, or {in_flight} in flight"
                ),
            );
        }

        let tenants = reference
            .tenants
            .iter()
            .map(|t| TenantConformance {
                name: t.name.clone(),
                weight: t.weight,
                tasks_completed: t.report.tasks_completed,
                trace_digest: format!("{:016x}", t.trace_digest),
            })
            .collect();
        Ok(MultiTenantConformance {
            scenario: sc.name.clone(),
            seed: sc.seed,
            jain_fairness: reference.jain_fairness,
            rounds: reference.rounds,
            per_tenant_tasklets,
            tenants,
        })
    }
}

fn tenancy_err(e: tenancy::TenancyError) -> ConformanceError {
    match e {
        tenancy::TenancyError::Io(e) => ConformanceError::Io(e),
        other => ConformanceError::Scenario(ScenarioError::Invalid(vec![other.to_string()])),
    }
}

/// One tenant's row in a conforming multi-tenant run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantConformance {
    /// Tenant label.
    pub name: String,
    /// Fair-share weight.
    pub weight: f64,
    /// Tasks the tenant completed in the reference run.
    pub tasks_completed: u64,
    /// FNV-1a digest of the tenant's serialised trace, hex.
    pub trace_digest: String,
}

/// What a conforming multi-tenant run looked like.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MultiTenantConformance {
    /// Scenario name.
    pub scenario: String,
    /// Coordinator seed.
    pub seed: u64,
    /// Jain's fairness index over weight-normalised delivered CPU.
    pub jain_fairness: f64,
    /// Arbitration rounds the reference run took.
    pub rounds: u64,
    /// Tasklets per tenant (every tenant runs the same re-seeded mix).
    pub per_tenant_tasklets: u64,
    /// Per-tenant outcomes.
    pub tenants: Vec<TenantConformance>,
}
