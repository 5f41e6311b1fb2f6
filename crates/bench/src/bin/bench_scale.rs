//! Scale-campaign sweep — the `ci.sh` throughput regression gate.
//!
//! Sweeps the cluster driver from 2.5k to 20k cores (the paper's §6
//! operating point), each point a fixed-seed simulation-workflow campaign
//! of 50 tasklets per core — ≥1M tasklets at 20k cores — under the Notre
//! Dame availability mixture, opportunistic-owner pressure, and injected
//! squid/Chirp fault windows, so eviction storms and retry machinery are
//! part of the measured event stream.
//!
//! For every sweep point it records events/sec, wall time, and a peak-RSS
//! proxy from a counting global allocator ([`alloc::measure`]: the live
//! heap's growth over the point's start). Results go to
//! `target/bench/BENCH_scale.json`; the committed `BENCH_scale.json` is
//! the baseline, read back as a [`ScaleBench`] through
//! [`lobster_bench::gate`]. The run fails (exit 1) on any sweep point
//! whose events/sec falls more than 20% below the baseline's, or whose
//! peak heap is above the baseline's at all: the peak depends only on the seed, the
//! code and the toolchain, never on the host, so it needs no tolerance.

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use lobster::config::{Backoff, LobsterConfig, WorkflowConfig};
use lobster::driver::{ClusterSim, SimParams};
use lobster::fault::{Fault, FaultPlan, FaultTarget};
use lobster::merge::MergeMode;
use lobster::workflow::Workflow;
use lobster_bench::alloc::{self, CountingAlloc};
use lobster_bench::gate::{write_fresh_results, Gate};
use serde::{Deserialize, Serialize};
use simkit::time::{SimDuration, SimTime};
use simnet::outage::{Outage, OutageSchedule};

const SEED: u64 = 2025;
const TASKLETS_PER_CORE: u64 = 50;
const SWEEP_CORES: [u32; 4] = [2_500, 5_000, 10_000, 20_000];

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Serialize, Deserialize)]
struct SweepPoint {
    cores: u32,
    workers: u32,
    tasklets: u64,
    tasks_completed: u64,
    tasks_failed: u64,
    evictions: u64,
    dead_letters: u64,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    peak_alloc_bytes: u64,
}

#[derive(Serialize, Deserialize)]
struct ScaleBench {
    seed: u64,
    tasklets_per_core: u64,
    points: Vec<SweepPoint>,
}

/// One sweep point: a simulation campaign sized to `cores`, with the
/// availability churn and fault windows fixed across the sweep so points
/// differ only in scale.
fn setup(cores: u32) -> (LobsterConfig, SimParams, Vec<Workflow>) {
    let mut cfg = LobsterConfig::default();
    cfg.seed = SEED ^ u64::from(cores);
    cfg.merge = MergeMode::Interleaved;
    cfg.workers.cores_per_worker = 8;
    cfg.workers.target_cores = cores;
    // Proxy tier sized to the fleet (one squid per ~1250 cores) so the
    // cold-cache stampede is survivable at every point; the fault window
    // below still knocks one proxy out mid-fill.
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
    let tasklets = u64::from(cores) * TASKLETS_PER_CORE;
    let wf = Workflow::simulation(&cfg.workflows[0], tasklets, 5_000_000);

    let mins = |m: u64| SimTime::ZERO + SimDuration::from_mins(m);
    let params = SimParams {
        // Notre Dame churn: most slots are short-lived, so evictions come
        // in storms as cohorts age out together.
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
            // One proxy black-holed during the cold-fill stampede.
            Fault::new(
                FaultTarget::Squid { index: 0 },
                OutageSchedule::new(vec![Outage::blackout(mins(30), mins(90))]),
            ),
            // The stage-out server browns out mid-run.
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

fn main() {
    let mut points = Vec::new();
    for &cores in &SWEEP_CORES {
        let (cfg, params, wfs) = setup(cores);
        let workers = cfg.workers.target_cores / cfg.workers.cores_per_worker;
        let tasklets: u64 = wfs.iter().map(|w| w.n_tasklets()).sum();
        let started = std::time::Instant::now();
        let (report, peak_alloc_bytes) = alloc::measure(|| ClusterSim::run(cfg, params, wfs));
        let wall_secs = started.elapsed().as_secs_f64().max(1e-9);

        if report.finished_at.is_none() {
            eprintln!("bench_scale: {cores}-core sweep point did not finish: {report:?}");
            std::process::exit(1);
        }
        let point = SweepPoint {
            cores,
            workers,
            tasklets,
            tasks_completed: report.tasks_completed,
            tasks_failed: report.tasks_failed,
            evictions: report.evictions,
            dead_letters: report.dead_letters.len() as u64,
            events: report.events_delivered,
            wall_secs,
            events_per_sec: report.events_delivered as f64 / wall_secs,
            peak_alloc_bytes,
        };
        eprintln!(
            "[{cores:>6} cores] {:>9} events in {wall_secs:>7.3}s  ({:>10.0} ev/s, peak alloc {:.1} MiB, {} evictions)",
            point.events,
            point.events_per_sec,
            peak_alloc_bytes as f64 / (1024.0 * 1024.0),
            point.evictions,
        );
        points.push(point);
    }

    let result = ScaleBench {
        seed: SEED,
        tasklets_per_core: TASKLETS_PER_CORE,
        points,
    };
    let json = serde_json::to_string_pretty(&result).expect("serialises");
    let out_path = write_fresh_results("BENCH_scale.json", &json).expect("writable target/");
    println!("== bench_scale (seed {SEED}, {TASKLETS_PER_CORE} tasklets/core) ==");
    println!("{json}");
    println!("wrote {}", out_path.display());

    let mut gate = Gate::new("bench_scale");
    let baseline: Option<ScaleBench> = gate.baseline("BENCH_scale.json");
    for old in baseline.iter().flat_map(|b| &b.points) {
        let Some(new) = result.points.iter().find(|p| p.cores == old.cores) else {
            continue;
        };
        let at = old.cores;
        gate.at_most(
            &format!("peak heap (B) at {at} cores"),
            new.peak_alloc_bytes,
            old.peak_alloc_bytes,
        );
        gate.floor(
            &format!("events/s at {at} cores"),
            new.events_per_sec,
            old.events_per_sec,
        );
    }
    gate.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
        let baseline = lobster_bench::gate::read_baseline::<ScaleBench>(path.as_ref())
            .expect("BENCH_scale.json parses as a ScaleBench")
            .expect("BENCH_scale.json is committed");
        assert_eq!(baseline.points.len(), SWEEP_CORES.len());
    }
}
