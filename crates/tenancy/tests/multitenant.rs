//! Multi-tenant integration battery (ISSUE 10): cross-tenant cache
//! economics, durable/in-memory byte identity, and end-to-end
//! weight-monotonicity under sustained contention.
//!
//! Byte identity across worker counts is tested in the crate's unit
//! tests (`src/lib.rs`), which can reach the crate-private seam that
//! sets the worker count and the fan-out threshold.

use batchsim::arbiter::ArbiterConfig;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::{LobsterConfig, WorkflowConfig};
use lobster::driver::SimParams;
use lobster::workflow::Workflow;
use simkit::time::SimDuration;
use std::path::PathBuf;
use tenancy::{MultiTenant, TenancyConfig, TenantSpec};

const SHARED_DATASET: &str = "/Shared/TTJets/AOD";

fn shared_dataset_tenant(name: &str, weight: f64, seed: u64) -> TenantSpec {
    let mut cfg = LobsterConfig::default();
    cfg.workflows = vec![WorkflowConfig::analysis("ana", SHARED_DATASET)];
    // Few enough cores that the ~67 tasks run in several waves: later
    // waves see the warmth earlier waves (and the peer tenant) built.
    cfg.workers.target_cores = 16;
    cfg.workers.cores_per_worker = 4;
    cfg.seed = seed;
    let mut dbs = Dbs::new();
    dbs.generate(
        SHARED_DATASET,
        DatasetSpec {
            n_files: 200,
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

fn sim_tenant(name: &str, weight: f64, tasklets: u64) -> TenantSpec {
    let mut cfg = LobsterConfig::default();
    cfg.workflows = vec![WorkflowConfig::simulation("gen")];
    cfg.workers.target_cores = 64;
    cfg.workers.cores_per_worker = 4;
    cfg.seed = 0xABCD ^ weight.to_bits() ^ tasklets;
    let wf = Workflow::simulation(&cfg.workflows[0], tasklets, 0);
    TenantSpec {
        name: name.to_string(),
        weight,
        cfg,
        params: SimParams::default(),
        workflows: vec![wf],
    }
}

fn coord(total_cores: u32, horizon_hours: u64) -> TenancyConfig {
    TenancyConfig {
        pool: PoolConfig {
            total_cores,
            owner_mean: total_cores as f64 / 6.0,
            reversion: 0.3,
            noise: total_cores as f64 / 25.0,
            tick: SimDuration::from_mins(5),
        },
        round: SimDuration::from_mins(5),
        arbiter: ArbiterConfig::default(),
        horizon: SimDuration::from_hours(horizon_hours),
        seed: 0x5EED,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tenancy-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Satellite: cross-tenant cache economics. Tenant B processing a
/// dataset that tenant A is also pulling through the shared site caches
/// must move strictly fewer WAN bytes than the same tenant B running
/// alone — tenant A's pulls warm the squids/alien cache for B.
#[test]
fn warm_peer_cuts_cold_start_wan_bytes() {
    let solo = MultiTenant::new(coord(96, 72), vec![shared_dataset_tenant("bob", 1.0, 7)])
        .expect("valid roster")
        .run()
        .expect("solo run");
    let duo = MultiTenant::new(
        coord(96, 72),
        vec![
            shared_dataset_tenant("alice", 1.0, 5),
            shared_dataset_tenant("bob", 1.0, 7),
        ],
    )
    .expect("valid roster")
    .run()
    .expect("duo run");

    let solo_bob = solo.tenants.iter().find(|t| t.name == "bob").unwrap();
    let duo_bob = duo.tenants.iter().find(|t| t.name == "bob").unwrap();
    let solo_wan = solo_bob
        .wan_by_dataset
        .get(SHARED_DATASET)
        .copied()
        .unwrap_or(0);
    let duo_wan = duo_bob
        .wan_by_dataset
        .get(SHARED_DATASET)
        .copied()
        .unwrap_or(0);
    assert!(solo_wan > 0, "solo run must pull the dataset over the WAN");
    assert!(
        duo_wan < solo_wan,
        "warm peer should cut tenant B's WAN bytes: duo {duo_wan} vs solo {solo_wan}"
    );
    // The economics must not break completion: both duo tenants finish.
    for t in &duo.tenants {
        assert!(
            t.report.finished_at.is_some(),
            "tenant {} did not finish",
            t.name
        );
    }
}

/// A solo tenant's own pulls never warm its own future stage-ins: its
/// WAN accounting equals a classic single-master run's dashboard total
/// for the dataset (within the double-counting-free contract, the
/// warmth map stays empty with no peers).
#[test]
fn solo_tenant_sees_no_self_warming() {
    let solo = MultiTenant::new(coord(96, 72), vec![shared_dataset_tenant("bob", 1.0, 7)])
        .expect("valid roster")
        .run()
        .expect("solo run");
    let bob = &solo.tenants[0];
    let wan = bob.wan_by_dataset.get(SHARED_DATASET).copied().unwrap_or(0);
    // Every byte the dashboard credits to bob crossed the WAN cold.
    let dashboard_bytes: f64 = bob.report.dashboard.iter().map(|(_, bytes)| *bytes).sum();
    assert!(
        (dashboard_bytes - wan as f64).abs() < 1.0,
        "solo WAN accounting {wan} should match dashboard {dashboard_bytes}"
    );
}

/// Determinism across backends: a same-seed multi-tenant run over the
/// durable journals is byte-identical (per-tenant trace digests, cap
/// sequences, federated snapshot) to the in-memory run.
#[test]
fn durable_and_memory_runs_are_byte_identical() {
    let tenants = || {
        vec![
            shared_dataset_tenant("alice", 2.0, 5),
            shared_dataset_tenant("bob", 1.0, 7),
        ]
    };
    let mem = MultiTenant::new(coord(96, 72), tenants())
        .expect("valid roster")
        .run()
        .expect("memory run");
    let root = scratch("durable-vs-mem");
    let dur = MultiTenant::durable(coord(96, 72), tenants(), &root)
        .expect("valid roster")
        .run()
        .expect("durable run");
    for (m, d) in mem.tenants.iter().zip(&dur.tenants) {
        assert_eq!(
            m.trace_digest, d.trace_digest,
            "tenant {} diverged across backends",
            m.name
        );
        assert_eq!(m.cap_history, d.cap_history);
        assert_eq!(m.wan_by_dataset, d.wan_by_dataset);
    }
    assert_eq!(mem.federated.to_json(), dur.federated.to_json());
    let _ = std::fs::remove_dir_all(&root);
}

/// End-to-end weight-monotonicity: under sustained contention (neither
/// tenant can finish inside the horizon) the heavier tenant completes
/// more work, and equal-weight tenants stay fair by Jain's index.
#[test]
fn sustained_contention_honours_weights() {
    let rep = MultiTenant::new(
        coord(64, 8),
        vec![
            sim_tenant("heavy", 4.0, 1_000_000),
            sim_tenant("light", 1.0, 1_000_000),
        ],
    )
    .expect("valid roster")
    .run()
    .expect("runs");
    let heavy = &rep.tenants[0];
    let light = &rep.tenants[1];
    assert!(
        heavy.report.finished_at.is_none(),
        "contention must persist"
    );
    assert!(
        light.report.finished_at.is_none(),
        "contention must persist"
    );
    assert!(
        heavy.report.tasks_completed > light.report.tasks_completed,
        "weight 4 tenant completed {} <= weight 1 tenant's {}",
        heavy.report.tasks_completed,
        light.report.tasks_completed
    );
    // Weight-normalised delivered CPU should be close to fair.
    assert!(
        rep.jain_fairness > 0.8,
        "weighted fairness collapsed: jain = {}",
        rep.jain_fairness
    );
}

/// The federated snapshot carries one labelled row per tenant and its
/// totals add up to the per-tenant counters.
#[test]
fn federated_snapshot_labels_and_totals() {
    let rep = MultiTenant::new(
        coord(96, 48),
        vec![sim_tenant("alice", 1.0, 200), sim_tenant("bob", 1.0, 200)],
    )
    .expect("valid roster")
    .run()
    .expect("runs");
    rep.federated.validate().expect("valid federated snapshot");
    let names: Vec<&str> = rep
        .federated
        .tenants
        .iter()
        .map(|t| t.tenant.as_str())
        .collect();
    assert_eq!(names, ["alice", "bob"]);
    let sum: u64 = rep
        .federated
        .tenants
        .iter()
        .map(|t| t.snapshot.counter("tasks_completed").unwrap_or(0))
        .sum();
    assert_eq!(rep.federated.totals.tasks_completed, sum);
    // Round-trip through the canonical bytes.
    let json = rep.federated.to_json();
    let back = opsplane::FederatedSnapshot::from_json(&json).expect("parses");
    assert_eq!(back.to_json(), json);
}
