//! Cross-crate integration tests: the full Lobster pipeline exercised
//! end-to-end in both worlds — the real threaded Work Queue path and the
//! cluster-scale discrete-event path — plus consistency checks between
//! the analytical models and the simulated system.

use batchsim::availability::{AvailabilityModel, EvictionScenario};
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use gridstore::hdfs::Hdfs;
use gridstore::mapreduce::MapReduce;
use lobster::config::{LobsterConfig, WorkflowConfig};
use lobster::db::LobsterDb;
use lobster::driver::{ClusterSim, SimParams};
use lobster::local::{LocalConfig, LocalLobster, TaskletFn};
use lobster::merge::{merge_in_hadoop, MergeMode, MergePlanner};
use lobster::ops::run_trace;
use lobster::tasksize::{simulate, TaskSizeConfig};
use lobster::workflow::Workflow;
use simkit::time::SimDuration;
use simkit::trace::fnv1a;
use simnet::outage::OutageSchedule;
use std::sync::Arc;
use std::time::Duration;
use wqueue::task::TaskId;

fn small_dataset(seed: u64) -> gridstore::dbs::Dataset {
    let mut dbs = Dbs::new();
    dbs.generate(
        "/IT/Test/AOD",
        DatasetSpec {
            n_files: 40,
            mean_file_bytes: 400_000_000,
            events_per_lumi: 100,
            lumis_per_file: 50,
        },
        seed,
    );
    dbs.query("/IT/Test/AOD").unwrap().clone()
}

/// Real path: decomposition → threaded Work Queue → HDFS → Map-Reduce
/// merge, with a worker evicted mid-run.
#[test]
fn real_pipeline_with_eviction_survives() {
    let work: TaskletFn = Arc::new(|t, ctx| {
        if ctx.is_cancelled() {
            return Vec::new();
        }
        vec![(t % 256) as u8; 200]
    });
    let mut lob = LocalLobster::new(LocalConfig {
        workers: 3,
        cores_per_worker: 2,
        foremen: 1,
        tasklets_per_task: 5,
        merge_target_bytes: 4_000,
        timeout: Duration::from_secs(60),
    });
    // Kick one worker out from under the run shortly after it starts.
    let master = lob.master_mut();
    let victim = 0u64; // first attached worker id
    std::thread::sleep(Duration::from_millis(10));
    master.evict_worker(victim);

    let summary = lob.run_workflow("evicted-run", 50, work);
    assert_eq!(summary.tasks_completed, 10, "50 tasklets / 5 per task");
    assert_eq!(summary.tasks_failed, 0, "evicted attempts are retried");
    assert_eq!(summary.output_bytes, 50 * 200);
    assert!(!summary.merged.is_empty());
    let merged_total: u64 = summary.merged.iter().map(|m| m.1).sum();
    assert_eq!(merged_total, 50 * 200, "every byte lands in a merged file");
    lob.shutdown();
}

/// Sim path: dataset → tasklets → cluster driver → merged files, with
/// byte-level conservation end to end.
#[test]
fn sim_pipeline_conserves_output_bytes() {
    let mut cfg = LobsterConfig::default();
    cfg.workers.target_cores = 64;
    cfg.workers.cores_per_worker = 4;
    cfg.merge_target_bytes = 150_000_000;
    cfg.seed = 77;
    let ds = small_dataset(1);
    let wf = Workflow::from_dataset(&cfg.workflows[0], &ds);
    let expected_outputs = wf.n_tasklets() * cfg.workflows[0].output_bytes_per_tasklet;
    let params = SimParams {
        availability: AvailabilityModel::Exponential {
            mean: SimDuration::from_hours(6),
        },
        outages: OutageSchedule::none(),
        pool: PoolConfig {
            total_cores: 128,
            owner_mean: 10.0,
            reversion: 0.1,
            noise: 0.0,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(200),
        ..SimParams::default()
    };
    let report = ClusterSim::run(cfg, params, vec![wf]);
    assert!(report.finished_at.is_some());
    let merged: u64 = report.merged_files.iter().map(|m| m.1).sum();
    assert_eq!(
        merged, expected_outputs,
        "no output bytes lost or duplicated"
    );
}

/// Determinism end to end: two runs with the same seed and configuration
/// must serialise to byte-identical traces. This is stronger than the
/// driver's own `finished_at` check — it covers the accounting ledger,
/// the binned time evolution, the merged-file manifest, and the dashboard,
/// so any hidden source of nondeterminism (wall-clock reads, ambient RNG,
/// hash-order iteration) shows up as a digest mismatch.
#[test]
fn same_seed_runs_serialise_to_identical_traces() {
    let run_once = || {
        let mut cfg = LobsterConfig::default();
        cfg.workers.target_cores = 64;
        cfg.workers.cores_per_worker = 4;
        cfg.seed = 4242;
        let ds = small_dataset(11);
        let wf = Workflow::from_dataset(&cfg.workflows[0], &ds);
        let params = SimParams {
            // Stochastic evictions and pool noise on purpose: every random
            // draw must come from the seeded stream.
            availability: AvailabilityModel::Exponential {
                mean: SimDuration::from_hours(8),
            },
            outages: OutageSchedule::none(),
            pool: PoolConfig {
                total_cores: 128,
                owner_mean: 5.0,
                reversion: 0.1,
                noise: 0.25,
                tick: SimDuration::from_mins(5),
            },
            horizon: SimDuration::from_hours(250),
            ..SimParams::default()
        };
        let buf = run_trace(&ClusterSim::run(cfg, params, vec![wf]));
        let digest = fnv1a(&buf);
        (buf, digest)
    };

    let (bytes_a, digest_a) = run_once();
    let (bytes_b, digest_b) = run_once();
    assert!(!bytes_a.is_empty());
    assert_eq!(
        digest_a, digest_b,
        "trace digests diverged between same-seed runs"
    );
    assert_eq!(bytes_a, bytes_b, "serialised traces are not byte-identical");
}

/// The driver's measured efficiency must agree with the §4.1 analytical
/// model's ballpark for the same task length under no eviction: the model
/// predicts cpu/(cpu+overhead), and the driver's healthy-run CPU fraction
/// (excluding I/O saturation) should be in the same band.
#[test]
fn driver_and_tasksize_model_agree_on_overhead_economics() {
    // Model: 6-tasklet tasks, no eviction → efficiency = 60/(60+20) = 0.75.
    let model = simulate(
        &TaskSizeConfig {
            total_tasklets: 3_000,
            workers: 100,
            ..TaskSizeConfig::default()
        },
        &EvictionScenario::None,
        6,
        9,
    );
    assert!((model.efficiency - 0.75).abs() < 0.03);

    // Driver with matching per-task overhead (20 min sandbox), ample WAN
    // bandwidth, and a fat squid (so the cold fill — which the analytical
    // model books as *per-worker*, not per-task — is negligible): the CPU
    // fraction of task time should approach the same ceiling.
    let mut cfg = LobsterConfig::default();
    cfg.workers.target_cores = 64;
    cfg.workers.cores_per_worker = 4;
    cfg.infra.wan_gbits = 100.0; // no I/O throttling
    cfg.seed = 5;
    let ds = small_dataset(2);
    let wf = Workflow::from_dataset(&cfg.workflows[0], &ds);
    let params = SimParams {
        availability: AvailabilityModel::Dedicated,
        outages: OutageSchedule::none(),
        pool: PoolConfig {
            total_cores: 128,
            owner_mean: 0.0,
            reversion: 0.1,
            noise: 0.0,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(400),
        sandbox_service: SimDuration::from_mins(20),
        foreman_capacity: 500,
        squid: cvmfssim::squid::SquidConfig {
            bandwidth: simnet::units::gbit_per_s(100.0),
            per_client_cap: 500e6,
            timeout: SimDuration::from_hours(10),
        },
        ..SimParams::default()
    };
    let report = ClusterSim::run(cfg, params, vec![wf]);
    assert!(report.finished_at.is_some());
    let acc = &report.accounting;
    let cpu_frac = acc.cpu / acc.total();
    assert!(
        (cpu_frac - model.efficiency).abs() < 0.10,
        "driver cpu fraction {cpu_frac:.3} vs model {:.3}",
        model.efficiency
    );
}

/// Config round-trips through JSON and drives a run identically.
#[test]
fn config_json_roundtrip_drives_identical_run() {
    let mut cfg = LobsterConfig::default();
    cfg.workers.target_cores = 32;
    cfg.workers.cores_per_worker = 4;
    cfg.merge = MergeMode::Hadoop;
    cfg.seed = 123;
    let cfg2 = LobsterConfig::from_json(&cfg.to_json()).expect("round-trips");

    let run = |cfg: LobsterConfig| {
        let ds = small_dataset(3);
        let wf = Workflow::from_dataset(&cfg.workflows[0], &ds);
        let params = SimParams {
            availability: AvailabilityModel::notre_dame(),
            pool: PoolConfig {
                total_cores: 64,
                owner_mean: 0.0,
                reversion: 0.1,
                noise: 0.0,
                tick: SimDuration::from_mins(5),
            },
            horizon: SimDuration::from_hours(300),
            ..SimParams::default()
        };
        ClusterSim::run(cfg, params, vec![wf])
    };
    assert_eq!(run_trace(&run(cfg)), run_trace(&run(cfg2)));
}

/// The Lobster DB journal written during a (simulated) crash replays to
/// the same bookkeeping state, and Map-Reduce merging of the recovered
/// outputs produces complete files.
#[test]
fn db_recovery_then_real_merge() {
    let dir = std::env::temp_dir().join("lobster-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("journal-{}.wal", std::process::id()));
    std::fs::remove_dir_all(&path).ok();

    // Phase 1: process half the workflow, then "crash".
    {
        let mut db = LobsterDb::open(&path).unwrap();
        db.register_workflow("wf", 40);
        for _ in 0..4 {
            let t = db.create_task("wf", 5).unwrap();
            db.mark_running(t).unwrap();
            db.mark_done(t, 1_000).unwrap();
        }
    }
    // Phase 2: recover, finish, merge for real.
    let hdfs = Hdfs::new(2, 1);
    {
        let mut db = LobsterDb::open(&path).unwrap();
        assert_eq!(db.done_tasklets("wf"), 20);
        while let Some(t) = db.create_task("wf", 5) {
            db.mark_running(t).unwrap();
            db.mark_done(t, 1_000).unwrap();
        }
        assert!(db.all_done());
        let outputs: Vec<(TaskId, u64)> = db.unmerged_outputs();
        assert_eq!(outputs.len(), 8);
        for (id, bytes) in &outputs {
            hdfs.put_bytes(&format!("/out_{}.root", id.0), vec![1u8; *bytes as usize]);
        }
        let planner = MergePlanner::new(4_000);
        let groups = planner.plan_full(&outputs);
        let named: Vec<(String, Vec<String>)> = groups
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                (
                    format!("/merged_{gi}.root"),
                    g.inputs
                        .iter()
                        .map(|(id, _)| format!("/out_{}.root", id.0))
                        .collect(),
                )
            })
            .collect();
        let merged = merge_in_hadoop(&hdfs, &MapReduce::new(4), &named);
        assert_eq!(merged.len(), 2, "8 kB of outputs at 4 kB targets");
        let total: u64 = merged.iter().map(|m| hdfs.stat(m).unwrap().size).sum();
        assert_eq!(total, 8_000);
    }
    std::fs::remove_dir_all(&path).ok();
}

/// A simulation-kind workflow and a data-processing workflow run in the
/// same Lobster instance, sharing the fleet.
#[test]
fn mixed_workflows_share_the_fleet() {
    let mut cfg = LobsterConfig::default();
    cfg.workers.target_cores = 64;
    cfg.workers.cores_per_worker = 4;
    cfg.seed = 55;
    cfg.workflows = vec![
        WorkflowConfig::analysis("ttbar", "/IT/Test/AOD"),
        WorkflowConfig::simulation("gen"),
    ];
    let ds = small_dataset(4);
    let wfs = vec![
        Workflow::from_dataset(&cfg.workflows[0], &ds),
        Workflow::simulation(&cfg.workflows[1], 200, 5_000_000),
    ];
    let params = SimParams {
        availability: AvailabilityModel::Dedicated,
        pool: PoolConfig {
            total_cores: 128,
            owner_mean: 0.0,
            reversion: 0.1,
            noise: 0.0,
            tick: SimDuration::from_mins(5),
        },
        horizon: SimDuration::from_hours(400),
        ..SimParams::default()
    };
    let report = ClusterSim::run(cfg, params, wfs);
    assert!(report.finished_at.is_some(), "both workflows complete");
    assert!(report.tasks_completed > 0);
}

/// The §5 troubleshooting loop, end to end: an undersized squid tier
/// makes the advisor flag `AddSquidsOrShareCaches`; applying that advice
/// (more proxies) removes the diagnosis and improves the makespan.
#[test]
fn advisor_remediation_loop() {
    use cvmfssim::squid::SquidConfig;
    use lobster::monitor::Advice;

    let run = |n_squids: u32| {
        let mut cfg = LobsterConfig::default();
        cfg.workers.target_cores = 256;
        cfg.workers.cores_per_worker = 8;
        cfg.infra.n_squids = n_squids;
        cfg.infra.wan_gbits = 100.0;
        cfg.seed = 66;
        // ~8 rounds of tasks per slot: cold fills dominate the mean setup
        // only when the proxy tier is undersized.
        let mut dbs = Dbs::new();
        dbs.generate(
            "/IT/Advisor/AOD",
            DatasetSpec {
                n_files: 6_144,
                mean_file_bytes: 100_000_000,
                events_per_lumi: 100,
                lumis_per_file: 50,
            },
            9,
        );
        let ds = dbs.query("/IT/Advisor/AOD").unwrap().clone();
        let wf = Workflow::from_dataset(&cfg.workflows[0], &ds);
        let params = SimParams {
            availability: AvailabilityModel::Dedicated,
            outages: OutageSchedule::none(),
            pool: PoolConfig {
                total_cores: 512,
                owner_mean: 0.0,
                reversion: 0.1,
                noise: 0.0,
                tick: SimDuration::from_mins(5),
            },
            horizon: SimDuration::from_hours(300),
            // Starved proxies: one 25 Mbit/s squid shares ~0.1 MB/s per
            // cold fill (≈4 h setups); with eight proxies each fill runs
            // at the per-client cap and the hot majority pulls the mean
            // setup well under the advisor threshold.
            squid: SquidConfig {
                bandwidth: simnet::units::mbit_per_s(25.0),
                per_client_cap: 1.25e6,
                timeout: SimDuration::from_hours(20),
            },
            ..SimParams::default()
        };
        ClusterSim::run(cfg, params, vec![wf])
    };

    let sick = run(1);
    assert!(
        sick.advice.contains(&Advice::AddSquidsOrShareCaches),
        "one starved squid should trip the setup-time rule: {:?}",
        sick.advice
    );
    let healthy = run(8);
    assert!(
        !healthy.advice.contains(&Advice::AddSquidsOrShareCaches),
        "8 proxies should clear the diagnosis: {:?}",
        healthy.advice
    );
    assert!(
        healthy.finished_at.unwrap() < sick.finished_at.unwrap(),
        "remediation must shorten the run"
    );
    // The per-segment histograms show where the time went.
    let sick_setup = sick
        .segment_histograms
        .summary()
        .into_iter()
        .find(|r| r.0 == "env setup")
        .unwrap();
    let healthy_setup = healthy
        .segment_histograms
        .summary()
        .into_iter()
        .find(|r| r.0 == "env setup")
        .unwrap();
    // The sick run's cold fills (~4 h) overflow the 0–240 min histogram
    // range; the healthy run's stay inside it.
    assert!(
        sick_setup.2 > 0,
        "starved squid should push setups past the histogram range"
    );
    assert_eq!(healthy_setup.2, 0, "healthy setups stay in range");
    assert!(healthy_setup.1 < 240.0);
}

/// S4 determinism gate (ops plane): two runs with the same seed must
/// lower to byte-identical `metrics.json` snapshots. This sits alongside
/// the trace-digest check above — the snapshot covers the registry
/// exports, the Figure 8/10/11 panels, the advisor signals, and the
/// dead-letter ledger, so it catches nondeterminism in any of them.
#[test]
fn same_seed_runs_emit_byte_identical_metrics_snapshots() {
    let run_once = || {
        let mut cfg = LobsterConfig::default();
        cfg.workers.target_cores = 64;
        cfg.workers.cores_per_worker = 4;
        cfg.seed = 4242;
        let ds = small_dataset(11);
        let wf = Workflow::from_dataset(&cfg.workflows[0], &ds);
        let params = SimParams {
            // Same stochastic regime as the trace test: every draw must
            // come from the seeded stream for the bytes to agree.
            availability: AvailabilityModel::Exponential {
                mean: SimDuration::from_hours(8),
            },
            outages: OutageSchedule::none(),
            pool: PoolConfig {
                total_cores: 128,
                owner_mean: 5.0,
                reversion: 0.1,
                noise: 0.25,
                tick: SimDuration::from_mins(5),
            },
            horizon: SimDuration::from_hours(250),
            ..SimParams::default()
        };
        let report = ClusterSim::run(cfg.clone(), params.clone(), vec![wf]);
        lobster::ops::snapshot_from_run("integration", &cfg, &params, &report).to_json()
    };
    let a = run_once();
    let b = run_once();
    assert!(!a.is_empty());
    let parsed = opsplane::MetricsSnapshot::from_json(&a).expect("snapshot parses");
    parsed.validate().expect("snapshot is schema-valid");
    assert_eq!(
        a, b,
        "metrics.json is not byte-identical across same-seed runs"
    );
}

/// Ops-plane control surface: poll a durable session's status in event
/// slices, pause it mid-flight into a durable checkpoint, then resume
/// from the journal and converge to the same final accounting as an
/// uninterrupted run.
#[test]
fn ops_pause_checkpoint_resume_converges() {
    use lobster::{Session, Stop};

    let dir = std::env::temp_dir().join("lobster-ops-pause");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("pause-{}.wal", std::process::id()));
    std::fs::remove_dir_all(&path).ok();

    let mk = || {
        let mut cfg = LobsterConfig::default();
        cfg.workers.target_cores = 64;
        cfg.workers.cores_per_worker = 4;
        cfg.seed = 99;
        let ds = small_dataset(5);
        let wf = Workflow::from_dataset(&cfg.workflows[0], &ds);
        let params = SimParams {
            availability: AvailabilityModel::Dedicated,
            outages: OutageSchedule::none(),
            pool: PoolConfig {
                total_cores: 128,
                owner_mean: 10.0,
                reversion: 0.1,
                noise: 0.0,
                tick: SimDuration::from_mins(5),
            },
            horizon: SimDuration::from_hours(200),
            ..SimParams::default()
        };
        (cfg, params, vec![wf])
    };

    // Uninterrupted reference.
    let (cfg, params, wfs) = mk();
    let reference = ClusterSim::run(cfg, params, wfs);
    assert!(reference.finished_at.is_some(), "reference must finish");
    // Size the poll window so the third sample lands ~30% into the run.
    let poll_every = (reference.events_delivered / 10).max(1);

    let (cfg, params, wfs) = mk();
    let mut session = Session::start(ClusterSim::durable(cfg, params, wfs, &path).unwrap());
    for _ in 0..3 {
        let stop = session.advance(session.horizon(), poll_every);
        assert_eq!(stop, Stop::Budget, "run completed before the pause request");
    }
    let status = session.status();
    assert_eq!(
        status.events_delivered,
        3 * poll_every,
        "status carries progress"
    );
    session.pause().unwrap();
    // Mid-run: input already streams to tasks in flight (none has
    // completed yet at this point), and work is left.
    let pulled: f64 = status.dashboard.iter().map(|d| d.1).sum();
    assert!(
        pulled > 0.0
            && status.finished_at.is_none()
            && status.tasks_completed < reference.tasks_completed,
        "pause landed mid-run: {pulled} bytes pulled, {} of {} tasks completed",
        status.tasks_completed,
        reference.tasks_completed
    );

    // Resume from the checkpoint and run to the end.
    let (cfg, params, wfs) = mk();
    let mut session = Session::start(ClusterSim::resume(cfg, params, wfs, &path).unwrap());
    session.advance(session.horizon(), u64::MAX);
    let resumed = session.finish();
    assert!(resumed.finished_at.is_some(), "resumed run must finish");
    let merged = |r: &lobster::RunReport| -> u64 { r.merged_files.iter().map(|m| m.1).sum() };
    assert_eq!(
        merged(&resumed),
        merged(&reference),
        "pause/resume must conserve merged output bytes"
    );
    assert_eq!(
        resumed.dead_letters.len(),
        reference.dead_letters.len(),
        "dead-letter ledgers must agree"
    );
    std::fs::remove_dir_all(&path).ok();
}
