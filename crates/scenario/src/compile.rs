//! Scenario → runnable simulation.
//!
//! [`compile`] turns a validated [`Scenario`] into the
//! `(LobsterConfig, SimParams, Vec<Workflow>)` triple the driver consumes.
//! Compilation is pure and deterministic: the same scenario always yields
//! the same decomposition (dataset catalogues are generated from the
//! scenario's own seeds), so a scenario file pins a run completely.

use crate::spec::{
    AccessSpec, AvailabilitySpec, Scenario, ScenarioError, WorkloadKindSpec, WorkloadSpec,
};
use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::access::DataAccessMode;
use lobster::config::{
    Backoff, InfraConfig, LobsterConfig, RetryPolicy, SegmentDeadlines, WorkerConfig,
    WorkflowConfig, WorkloadKind,
};
use lobster::driver::SimParams;
use lobster::fault::FaultPlan;
use lobster::workflow::Workflow;
use simkit::dist::Empirical;
use simkit::time::SimDuration;
use simnet::outage::OutageSchedule;

const MB: u64 = 1_000_000;

/// A scenario compiled down to driver inputs. `SimParams`/`LobsterConfig`
/// are consumed per run, so re-compile (cheap) for every fresh simulation.
pub struct Compiled {
    /// Lobster configuration (workflows, access, merge, retry, journal).
    pub cfg: LobsterConfig,
    /// Simulation-only parameters (pool, availability, faults, horizon).
    pub params: SimParams,
    /// Decomposed workflows, one per configured workload.
    pub workflows: Vec<Workflow>,
}

fn mins_opt(m: Option<u64>) -> Option<SimDuration> {
    m.map(SimDuration::from_mins)
}

fn availability(spec: &AvailabilitySpec) -> AvailabilityModel {
    match spec {
        AvailabilitySpec::Dedicated => AvailabilityModel::Dedicated,
        AvailabilitySpec::Exponential { mean_hours } => AvailabilityModel::Exponential {
            mean: SimDuration::from_hours_f64(*mean_hours),
        },
        AvailabilitySpec::Weibull { scale_hours, shape } => AvailabilityModel::Weibull {
            scale_hours: *scale_hours,
            shape: *shape,
        },
        AvailabilitySpec::Mixture {
            short_frac,
            short_scale_hours,
            short_shape,
            long_scale_hours,
            long_shape,
        } => AvailabilityModel::Mixture {
            short_frac: *short_frac,
            short: (*short_scale_hours, *short_shape),
            long: (*long_scale_hours, *long_shape),
        },
        AvailabilitySpec::Trace { intervals_hours } => {
            AvailabilityModel::Observed(Empirical::from_samples(intervals_hours))
        }
    }
}

fn workflow_config(w: &WorkloadSpec) -> WorkflowConfig {
    let (kind, dataset) = match &w.kind {
        WorkloadKindSpec::Simulation { .. } => (WorkloadKind::Simulation, String::new()),
        WorkloadKindSpec::DataProcessing { dataset } => {
            (WorkloadKind::DataProcessing, dataset.path.clone())
        }
    };
    WorkflowConfig {
        name: w.name.clone(),
        dataset,
        tasklets_per_task: w.tasklets_per_task,
        kind,
        tasklet_mean_mins: w.tasklet_mean_mins,
        tasklet_sigma_mins: w.tasklet_sigma_mins,
        output_bytes_per_tasklet: w.output_mb_per_tasklet * MB,
    }
}

/// Compile a scenario. Validates first, so a hand-mutated `Scenario`
/// value gets the same construction-boundary checks as a loaded file.
pub fn compile(sc: &Scenario) -> Result<Compiled, ScenarioError> {
    sc.validate()?;
    let workflow_cfgs: Vec<WorkflowConfig> = sc.workloads.iter().map(workflow_config).collect();
    let mut workflows = Vec::with_capacity(sc.workloads.len());
    for (w, wcfg) in sc.workloads.iter().zip(&workflow_cfgs) {
        match &w.kind {
            WorkloadKindSpec::Simulation {
                tasklets,
                pileup_mb_per_tasklet,
            } => {
                workflows.push(Workflow::simulation(
                    wcfg,
                    *tasklets,
                    pileup_mb_per_tasklet * MB,
                ));
            }
            WorkloadKindSpec::DataProcessing { dataset } => {
                let mut dbs = Dbs::new();
                dbs.generate(
                    dataset.path.clone(),
                    DatasetSpec {
                        n_files: dataset.n_files as usize,
                        mean_file_bytes: dataset.mean_file_mb * MB,
                        events_per_lumi: dataset.events_per_lumi,
                        lumis_per_file: dataset.lumis_per_file,
                    },
                    dataset.seed,
                );
                let ds = dbs.query(&dataset.path).ok_or_else(|| {
                    ScenarioError::Invalid(vec![format!(
                        "workload {}: generated dataset {} not found in catalogue",
                        w.name, dataset.path
                    )])
                })?;
                workflows.push(Workflow::from_dataset(wcfg, ds));
            }
        }
    }

    let cfg = LobsterConfig {
        workflows: workflow_cfgs,
        access: match sc.access {
            AccessSpec::Stream => DataAccessMode::Stream,
            AccessSpec::StageWq => DataAccessMode::StageWq,
            AccessSpec::StageChirp => DataAccessMode::StageChirp,
        },
        merge: sc.merge,
        merge_target_bytes: sc.merge_target_mb * MB,
        infra: InfraConfig {
            n_squids: sc.infra.n_squids,
            n_foremen: sc.infra.n_foremen,
            chirp_connections: sc.infra.chirp_connections,
            wan_gbits: sc.infra.wan_gbits,
            alien_cache: sc.infra.alien_cache,
        },
        workers: WorkerConfig {
            cores_per_worker: sc.workers.cores_per_worker,
            target_cores: sc.workers.target_cores,
        },
        retry: RetryPolicy {
            max_attempts: sc.retry.max_attempts,
            slot_hold: Backoff {
                base: SimDuration::from_mins(sc.retry.slot_hold_base_mins),
                factor: 2.0,
                max: SimDuration::from_mins(sc.retry.slot_hold_max_mins),
                jitter: 0.0,
            },
            requeue: Backoff {
                base: SimDuration::from_mins(sc.retry.requeue_base_mins),
                factor: sc.retry.requeue_factor,
                max: SimDuration::from_mins(sc.retry.requeue_max_mins),
                jitter: 0.0,
            },
            deadlines: SegmentDeadlines {
                env_setup: mins_opt(sc.retry.env_setup_deadline_mins),
                stage_in: mins_opt(sc.retry.stage_in_deadline_mins),
                execute: mins_opt(sc.retry.execute_deadline_mins),
                stage_out: mins_opt(sc.retry.stage_out_deadline_mins),
            },
        },
        journal: sc.journal,
        seed: sc.seed,
    };
    // The driver refuses an invalid config with a panic, so report what
    // the scenario checks above do not cover (backoff ceilings below
    // their base, a journal policy that never commits) as data errors.
    let problems = cfg.validate();
    if !problems.is_empty() {
        return Err(ScenarioError::Invalid(problems));
    }

    let mut faults = Vec::with_capacity(sc.faults.len());
    for f in &sc.faults {
        faults.push(f.to_fault().map_err(ScenarioError::Fault)?);
    }
    let params = SimParams {
        availability: availability(&sc.availability),
        pool: PoolConfig {
            total_cores: sc.pool.total_cores,
            owner_mean: sc.pool.owner_mean,
            reversion: sc.pool.reversion,
            noise: sc.pool.noise,
            tick: SimDuration::from_mins(sc.pool.tick_mins),
        },
        outages: OutageSchedule::try_new(sc.wan_outages.iter().map(|w| w.to_outage()).collect())
            .map_err(ScenarioError::WanOutage)?,
        horizon: SimDuration::from_hours(sc.horizon_hours),
        faults: FaultPlan::new(faults),
        ..SimParams::default()
    };

    Ok(Compiled {
        cfg,
        params,
        workflows,
    })
}

/// Lower a multi-tenant scenario into a tenancy roster: one
/// [`tenancy::TenantSpec`] per declared tenant, each running its own
/// re-seeded copy of the scenario's workload mix, plus the coordinator
/// configuration (shared pool, arbitration round = the pool tick,
/// wall-clock horizon). Errors if the scenario declares no tenants.
pub fn compile_multitenant(
    sc: &Scenario,
) -> Result<(tenancy::TenancyConfig, Vec<tenancy::TenantSpec>), ScenarioError> {
    if sc.tenants.is_empty() {
        return Err(ScenarioError::Invalid(vec![
            "compile_multitenant needs a non-empty tenants list".to_string(),
        ]));
    }
    let mut roster = Vec::with_capacity(sc.tenants.len());
    for t in &sc.tenants {
        let Compiled {
            mut cfg,
            params,
            workflows,
        } = compile(sc)?;
        // Each master rolls its own dice; the shared-pool walk and the
        // arbiter derive from the coordinator seed below.
        cfg.seed = t.seed;
        roster.push(tenancy::TenantSpec {
            name: t.name.clone(),
            weight: t.weight,
            cfg,
            params,
            workflows,
        });
    }
    let coord = tenancy::TenancyConfig {
        pool: PoolConfig {
            total_cores: sc.pool.total_cores,
            owner_mean: sc.pool.owner_mean,
            reversion: sc.pool.reversion,
            noise: sc.pool.noise,
            tick: SimDuration::from_mins(sc.pool.tick_mins),
        },
        round: SimDuration::from_mins(sc.pool.tick_mins),
        arbiter: batchsim::arbiter::ArbiterConfig::default(),
        horizon: SimDuration::from_hours(sc.horizon_hours),
        seed: sc.seed,
    };
    Ok((coord, roster))
}
