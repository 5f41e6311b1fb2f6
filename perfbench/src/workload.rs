//! The three workloads' inputs, built from the seed alone.
//!
//! Each input function takes a size so the benchmark's tests can run the
//! same shapes small; [`Workload::full`] fixes the sizes the benchmark
//! measures. Nothing here reads the environment (`LOBSTER_SCALE`
//! included).

use batchsim::arbiter::ArbiterConfig;
use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::{Backoff, LobsterConfig, WorkflowConfig};
use lobster::driver::SimParams;
use lobster::fault::{Fault, FaultPlan, FaultTarget};
use lobster::merge::MergeMode;
use lobster::workflow::Workflow;
use simkit::time::{SimDuration, SimTime};
use simnet::outage::{Outage, OutageSchedule};
use tenancy::{TenancyConfig, TenantSpec};

/// One master's inputs: configuration, simulation parameters and the
/// workflows' decompositions.
pub type Inputs = (LobsterConfig, SimParams, Vec<Workflow>);

/// A benchmark workload and its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// One in-memory master running a simulation campaign of 50 tasklets
    /// per core under Notre Dame churn, a squid blackout and a Chirp
    /// brownout.
    Scale { cores: u32 },
    /// The §6 data-processing campaign on a journaled master that is
    /// killed inside a group-commit window after `crash_after` events,
    /// then resumed from its journal until the run drains.
    DurableDataproc { cores: u32, crash_after: u64 },
    /// `tenants` equal-weight masters of `tasklets` simulation tasklets
    /// each, over one shared 1024-core pool.
    Tenants { tenants: usize, tasklets: u64 },
}

/// Workload names as the command line gives them.
pub const NAMES: [&str; 3] = ["scale-20k", "durable-dataproc", "tenants-100"];

impl Workload {
    /// The benchmark-size workload called `name`.
    pub fn full(name: &str) -> Option<Self> {
        match name {
            "scale-20k" => Some(Workload::Scale { cores: 20_000 }),
            // About 209k events drain this campaign; the crash lands near
            // the middle, so the journal holds a large tail to replay.
            "durable-dataproc" => Some(Workload::DurableDataproc {
                cores: 2_500,
                crash_after: 100_000,
            }),
            "tenants-100" => Some(Workload::Tenants {
                tenants: 100,
                tasklets: 2_000,
            }),
            _ => None,
        }
    }
}

/// Campaigns an untraced run cycles through: rep `i` runs campaign
/// `i % FAMILY`. A run's medians then cover several event streams, so the
/// spread between runs does not hang on one seed's eviction storms.
pub const FAMILY: u64 = 8;

/// Seed of campaign `k` of the family derived from `seed`; campaign 0 is
/// `seed` itself.
pub fn campaign_seed(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// `bench_scale`'s sweep point at `cores`, seeded by `seed`.
pub fn scale_inputs(seed: u64, cores: u32) -> Inputs {
    let mut cfg = LobsterConfig::default();
    cfg.seed = seed;
    cfg.merge = MergeMode::Interleaved;
    cfg.workers.cores_per_worker = 8;
    cfg.workers.target_cores = cores;
    cfg.infra.n_squids = (cores / 1_250).max(2);
    cfg.infra.n_foremen = 4;
    cfg.retry.max_attempts = Some(10);
    cfg.retry.deadlines.stage_in = Some(SimDuration::from_mins(30));
    cfg.retry.requeue = Backoff {
        base: SimDuration::from_mins(5),
        factor: 2.0,
        max: SimDuration::from_mins(30),
        jitter: 0.1,
    };
    cfg.workflows = vec![WorkflowConfig::simulation("scale-gen")];
    let wf = Workflow::simulation(&cfg.workflows[0], u64::from(cores) * 50, 5_000_000);

    let params = SimParams {
        availability: AvailabilityModel::notre_dame(),
        pool: PoolConfig {
            total_cores: cores + cores / 4,
            owner_mean: f64::from(cores) * 0.05,
            reversion: 0.1,
            noise: f64::from(cores) * 0.02,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(96),
        faults: FaultPlan::new(vec![
            Fault::new(
                FaultTarget::Squid { index: 0 },
                OutageSchedule::new(vec![Outage::blackout(mins(30), mins(90))]),
            ),
            Fault::new(
                FaultTarget::Chirp,
                OutageSchedule::new(vec![Outage {
                    start: mins(3 * 60),
                    end: mins(4 * 60),
                    capacity_factor: 0.25,
                    failure_prob: 0.0,
                }]),
            ),
        ]),
        ..SimParams::default()
    };
    (cfg, params, vec![wf])
}

/// The §6 data-processing scenario (`data_processing_setup` in the
/// figure harness) sized to `cores`: DBS files streamed over a WAN uplink
/// scaled with the fleet, the hour-17 XrootD brownout, interleaved merges
/// and the default journal policy.
pub fn dataproc_inputs(seed: u64, cores: u32) -> Inputs {
    let s = f64::from(cores) / 10_000.0;
    let mut cfg = LobsterConfig::default();
    cfg.seed = seed;
    cfg.merge = MergeMode::Interleaved;
    cfg.workers.cores_per_worker = 8;
    cfg.workers.target_cores = cores;
    cfg.infra.wan_gbits = 10.0 * s;
    cfg.workflows = vec![WorkflowConfig::analysis("ttbar", "/TTJets/Spring14/AOD")];

    let mut dbs = Dbs::new();
    dbs.generate(
        "/TTJets/Spring14/AOD",
        DatasetSpec {
            n_files: ((100_000.0 * s) as usize).max(200),
            mean_file_bytes: 1_250_000_000,
            events_per_lumi: 300,
            lumis_per_file: 250,
        },
        seed ^ 0xD5,
    );
    let ds = dbs
        .query("/TTJets/Spring14/AOD")
        .expect("dataset registered above");
    let wf = Workflow::from_dataset(&cfg.workflows[0], ds);

    let params = SimParams {
        availability: AvailabilityModel::notre_dame(),
        pool: PoolConfig {
            total_cores: ((24_000.0 * s) as u32).max(128),
            owner_mean: 6_000.0 * s,
            reversion: 0.1,
            noise: 800.0 * s,
            tick: SimDuration::from_mins(5),
        },
        outages: OutageSchedule::new(vec![Outage::brownout(
            SimTime::ZERO + SimDuration::from_hours(17),
            SimTime::ZERO + SimDuration::from_hours(19),
            0.15,
            0.85,
        )]),
        horizon: SimDuration::from_hours(48),
        timeline_bin: SimDuration::from_mins(30),
        sandbox_service: SimDuration::from_mins(5),
        wq_collect: SimDuration::from_mins(2),
        foreman_capacity: 300,
        ..SimParams::default()
    };
    (cfg, params, vec![wf])
}

/// `bench_multitenant`'s shared pool: 1024 cores with a mean-reverting
/// owner walk eating about 6% of them.
pub fn tenancy_config(seed: u64) -> TenancyConfig {
    TenancyConfig {
        pool: PoolConfig {
            total_cores: 1024,
            owner_mean: 64.0,
            reversion: 0.2,
            noise: 16.0,
            tick: SimDuration::from_mins(5),
        },
        round: SimDuration::from_mins(5),
        arbiter: ArbiterConfig::default(),
        horizon: SimDuration::from_hours(96),
        seed,
    }
}

/// Tenant `i`'s master: a simulation campaign of `tasklets` tasklets with
/// its own seed and weight 1. The horizon is the coordinator's, which the
/// coordinator would impose anyway.
pub fn tenant(seed: u64, i: usize, tasklets: u64) -> TenantSpec {
    let mut cfg = LobsterConfig::default();
    cfg.workflows = vec![WorkflowConfig::simulation("mt-gen")];
    cfg.workers.target_cores = 64;
    cfg.workers.cores_per_worker = 4;
    cfg.seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let wf = Workflow::simulation(&cfg.workflows[0], tasklets, 0);
    TenantSpec {
        name: format!("tenant-{i:03}"),
        weight: 1.0,
        cfg,
        params: SimParams {
            horizon: tenancy_config(seed).horizon,
            ..SimParams::default()
        },
        workflows: vec![wf],
    }
}

fn mins(m: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(m)
}
