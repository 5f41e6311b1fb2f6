//! Cluster-run smoke benchmark — the `ci.sh` performance gate.
//!
//! Runs one fixed-seed, fixed-size cluster simulation (including a retry
//! policy and an injected WAN fault window, so the failure-handling paths
//! are part of the measured work) and writes its throughput numbers to
//! `target/bench/BENCH_cluster.json`.
//!
//! The run also lowers into the ops-plane metrics snapshot, written to
//! `target/bench/METRICS_cluster.json`. The committed
//! `METRICS_cluster.json` is the baseline, read back as a
//! [`opsplane::MetricsSnapshot`] through [`lobster_bench::gate`] and
//! never rewritten by a run: *schema* drift (a structural name appearing
//! or vanishing) or a baseline that does not parse fails the gate;
//! *value* drift only prints a notice — mirroring how
//! `CONFORMANCE_chaos.json` treats trace digests.

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::{Backoff, LobsterConfig, WorkflowConfig};
use lobster::driver::{ClusterSim, SimParams};
use lobster::fault::{Fault, FaultPlan, FaultTarget};
use lobster::merge::MergeMode;
use lobster::workflow::Workflow;
use lobster_bench::gate::{write_fresh_results, Gate};
use opsplane::MetricsSnapshot;
use serde::Serialize;
use simkit::time::{SimDuration, SimTime};
use simnet::outage::{Outage, OutageSchedule};

const SEED: u64 = 2025;
const METRICS: &str = "METRICS_cluster.json";

#[derive(Serialize)]
struct BenchResult {
    seed: u64,
    tasks_completed: u64,
    merges_completed: u64,
    tasks_failed: u64,
    dead_letters: u64,
    events: u64,
    wall_secs: f64,
    tasks_per_sec: f64,
    events_per_sec: f64,
}

fn setup() -> (LobsterConfig, SimParams, Vec<Workflow>) {
    let mut cfg = LobsterConfig::default();
    cfg.seed = SEED;
    cfg.merge = MergeMode::Interleaved;
    // Several dispatch waves (960 tasks over 256 cores) so the fault
    // window below actually intersects in-flight stage-ins.
    cfg.workers.target_cores = 256;
    cfg.workers.cores_per_worker = 8;
    cfg.merge_target_bytes = 200_000_000;
    // Exercise the failure-policy machinery: bounded retries, a StageIn
    // watchdog, and exponential requeue backoff.
    cfg.retry.max_attempts = Some(10);
    cfg.retry.deadlines.stage_in = Some(SimDuration::from_mins(30));
    cfg.retry.requeue = Backoff {
        base: SimDuration::from_mins(5),
        factor: 2.0,
        max: SimDuration::from_mins(30),
        jitter: 0.1,
    };
    cfg.workflows = vec![WorkflowConfig::analysis("ttbar", "/TTJets/Bench/AOD")];

    let mut dbs = Dbs::new();
    dbs.generate(
        "/TTJets/Bench/AOD",
        DatasetSpec {
            n_files: 2880, // 5760 tasklets → ~960 six-tasklet tasks
            mean_file_bytes: 500_000_000,
            events_per_lumi: 100,
            lumis_per_file: 50,
        },
        SEED ^ 0xB5,
    );
    let ds = dbs.query("/TTJets/Bench/AOD").expect("generated");
    let wf = Workflow::from_dataset(&cfg.workflows[0], ds);

    let params = SimParams {
        availability: AvailabilityModel::Dedicated,
        pool: PoolConfig {
            total_cores: 2000,
            owner_mean: 20.0,
            reversion: 0.1,
            noise: 0.0,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(96),
        // A one-hour WAN blackout mid-run so watchdog aborts, retries and
        // backoff waits are part of the benchmarked event stream.
        faults: FaultPlan::new(vec![Fault::new(
            FaultTarget::Federation,
            OutageSchedule::new(vec![Outage::blackout(
                SimTime::ZERO + SimDuration::from_mins(60),
                SimTime::ZERO + SimDuration::from_mins(120),
            )]),
        )]),
        ..SimParams::default()
    };
    (cfg, params, vec![wf])
}

/// The structural names `fresh` removed from and added to the committed
/// snapshot's schema signature.
fn schema_drift(old: &[String], fresh: &[String]) -> Vec<String> {
    let removed = old.iter().filter(|n| !fresh.contains(n));
    let added = fresh.iter().filter(|n| !old.contains(n));
    removed
        .map(|n| format!("removed {n}"))
        .chain(added.map(|n| format!("added {n}")))
        .collect()
}

fn main() {
    let mut gate = Gate::new("bench_cluster");
    let baseline: Option<MetricsSnapshot> = gate.baseline(METRICS);
    let (cfg, params, wfs) = setup();
    let started = std::time::Instant::now();
    let report = ClusterSim::run(cfg.clone(), params.clone(), wfs);
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);

    if report.finished_at.is_none() {
        eprintln!("bench_cluster: run did not finish: {report:?}");
        std::process::exit(1);
    }

    let snap = lobster::ops::snapshot_from_run("bench_cluster", &cfg, &params, &report);
    if let Err(e) = snap.validate() {
        eprintln!("bench_cluster: snapshot failed validation: {e}");
        std::process::exit(1);
    }
    let metrics_path = write_fresh_results(METRICS, &snap.to_json()).expect("writable target/");

    let result = BenchResult {
        seed: SEED,
        tasks_completed: report.tasks_completed,
        merges_completed: report.merges_completed,
        tasks_failed: report.tasks_failed,
        dead_letters: report.dead_letters.len() as u64,
        events: report.events_delivered,
        wall_secs,
        tasks_per_sec: report.tasks_completed as f64 / wall_secs,
        events_per_sec: report.events_delivered as f64 / wall_secs,
    };
    let json = serde_json::to_string_pretty(&result).expect("serialises");
    let out_path = write_fresh_results("BENCH_cluster.json", &json).expect("writable target/");

    println!("== bench_cluster (seed {SEED}) ==");
    println!("{json}");
    println!(
        "wrote {} and {}",
        out_path.display(),
        metrics_path.display()
    );
    eprintln!("[wall-clock {wall_secs:.3}s]");

    if let Some(old) = baseline {
        let (old_sig, new_sig) = (old.schema_signature(), snap.schema_signature());
        gate.check(
            old_sig == new_sig,
            format_args!(
                "metrics schema drift vs committed {METRICS}: {} \
                 (bump opsplane::SCHEMA and copy {} over {METRICS} if intentional)",
                schema_drift(&old_sig, &new_sig).join(", "),
                metrics_path.display()
            ),
        );
        if old_sig == new_sig && old.to_json() != snap.to_json() {
            eprintln!(
                "bench_cluster: NOTICE metrics value drift vs committed {METRICS} \
                 (copy {} over it if intentional)",
                metrics_path.display()
            );
        }
    }
    gate.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS_cluster.json");
        let baseline = lobster_bench::gate::read_baseline::<MetricsSnapshot>(path.as_ref())
            .expect("METRICS_cluster.json parses as a MetricsSnapshot")
            .expect("METRICS_cluster.json is committed");
        baseline
            .validate()
            .expect("the committed snapshot is valid");
    }
}
