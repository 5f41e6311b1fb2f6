//! Scenario conformance matrix: every shipped scenario file under
//! `scenarios/` must parse, validate, compile, and pass all four global
//! invariants (no hang, accounting conservation, trace determinism,
//! crash/resume convergence) — plus a sampled pair of randomized chaos
//! seeds, so the generator itself stays honest in tier-1. The full chaos
//! sweep runs in release via `bench_chaos` (see `ci.sh`).

use scenario::chaos::chaos_scenario;
use scenario::runner::ScenarioRunner;
use scenario::spec::{Scenario, ScenarioError, ScenarioTenant};
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn library() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 7,
        "scenario library holds at least the seven shipped scenarios, found {}",
        files.len()
    );
    files
}

/// Every library file parses, validates, and its name matches the file
/// stem — cheap schema conformance before the expensive runs.
#[test]
fn library_parses_and_validates() {
    for path in library() {
        let sc = Scenario::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let stem = path.file_stem().unwrap().to_string_lossy();
        assert_eq!(
            sc.name,
            stem,
            "{}: name must match file stem",
            path.display()
        );
        assert!(
            !sc.description.is_empty(),
            "{}: empty description",
            path.display()
        );
    }
}

/// The four invariants, on every shipped scenario — and every run must
/// also lower into a schema-valid ops-plane metrics snapshot. Scenarios
/// that declare a tenant roster go through the coordinated multi-tenant
/// gate instead (same four invariants over N masters and one pool).
#[test]
fn library_scenarios_conform() {
    let runner = ScenarioRunner::new("matrix").unwrap();
    for path in library() {
        let sc = Scenario::load(&path).unwrap();
        if !sc.tenants.is_empty() {
            let report = runner
                .multi_conformance(&sc)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                report.tenants.len(),
                sc.tenants.len(),
                "{}: one outcome per declared tenant",
                path.display()
            );
            assert!(
                report.jain_fairness > 0.0 && report.jain_fairness <= 1.0 + 1e-12,
                "{}: jain index {} out of range",
                path.display(),
                report.jain_fairness
            );
            continue;
        }
        let (report, snapshot) = runner
            .conformance_with_snapshot(&sc)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            report.done_tasklets + report.dead_tasklets,
            report.total_tasklets,
            "{}: conservation must hold in the report too",
            path.display()
        );
        assert!(
            report.finished_at_us < report.horizon_us,
            "{}: drained strictly before the horizon",
            path.display()
        );
        snapshot
            .validate()
            .unwrap_or_else(|e| panic!("{}: invalid metrics snapshot: {e}", path.display()));
        assert_eq!(snapshot.run.name, sc.name, "{}", path.display());
        assert_eq!(snapshot.run.seed, sc.seed, "{}", path.display());
        assert_eq!(
            snapshot.counter("tasks_completed"),
            Some(report.tasks_completed),
            "{}: snapshot counters mirror the conformance report",
            path.display()
        );
        // The snapshot must round-trip through its canonical JSON bytes.
        let json = snapshot.to_json();
        let back = opsplane::MetricsSnapshot::from_json(&json)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(back.to_json(), json, "{}", path.display());
    }
}

/// A sampled pair of chaos seeds: the generator must emit valid scenarios
/// that pass the same four invariants. The release sweep covers more.
#[test]
fn sampled_chaos_seeds_conform() {
    let runner = ScenarioRunner::new("chaos-sample").unwrap();
    for seed in [3, 11] {
        let sc = chaos_scenario(seed);
        sc.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        runner
            .conformance(&sc)
            .unwrap_or_else(|e| panic!("chaos seed {seed}: {e}"));
    }
}

/// Chaos generation is a pure function of the seed.
#[test]
fn chaos_scenarios_are_reproducible() {
    let a = chaos_scenario(99);
    let b = chaos_scenario(99);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "same seed, same scenario"
    );
    let c = chaos_scenario(100);
    assert_ne!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&c).unwrap(),
        "different seeds diverge"
    );
}

/// A value no conversion to microseconds or bytes survives.
const HUGE: u64 = 1 << 62;

/// An edit that puts one number of a valid scenario out of range.
type Edit = fn(&mut Scenario);

/// Edit the dataset of workload 0, a data-processing workload.
fn edit_dataset(sc: &mut Scenario, edit: fn(&mut scenario::spec::DatasetSpec)) {
    match &mut sc.workloads[0].kind {
        scenario::spec::WorkloadKindSpec::DataProcessing { dataset } => edit(dataset),
        scenario::spec::WorkloadKindSpec::Simulation { .. } => {
            panic!("chaos workloads process data")
        }
    }
}

/// Every number `compile` converts or decomposition allocates for is
/// bounded by `validate`: out of range is one typed `Invalid` message,
/// never an overflow panic (or a silent wrap in release).
#[test]
fn validation_bounds_every_converted_number() {
    use scenario::spec::{WindowSpec, MAX_FILES};
    let base = chaos_scenario(7);
    let cases: [(Edit, &str); 8] = [
        (|sc| sc.horizon_hours = HUGE, "horizon_hours of"),
        (
            |sc| sc.retry.execute_deadline_mins = Some(HUGE),
            "retry.execute_deadline_mins of",
        ),
        (
            |sc| sc.retry.requeue_max_mins = HUGE,
            "retry.requeue_max_mins of",
        ),
        (
            |sc| {
                sc.wan_outages = vec![WindowSpec {
                    start_mins: 10,
                    end_mins: HUGE,
                    capacity_factor: 0.0,
                    failure_prob: 0.0,
                }]
            },
            "window end_mins of",
        ),
        (|sc| sc.merge_target_mb = HUGE, "merge_target_mb overflows"),
        (
            |sc| edit_dataset(sc, |d| d.n_files = MAX_FILES + 1),
            "files is over the limit",
        ),
        (
            |sc| edit_dataset(sc, |d| d.mean_file_mb = HUGE),
            "n_files × mean_file_mb overflows",
        ),
        (
            |sc| edit_dataset(sc, |d| d.lumis_per_file = u32::MAX),
            "do not fit a u32 lumi number",
        ),
    ];
    for (edit, message) in cases {
        let mut sc = base.clone();
        edit(&mut sc);
        match sc.validate() {
            Err(ScenarioError::Invalid(p)) => {
                let p = p.join("; ");
                assert!(p.contains(message), "{message:?} not in {p:?}");
            }
            other => panic!("{message:?}: expected Invalid, got {other:?}"),
        }
    }

    // The largest values that convert are accepted.
    let mut sc = base.clone();
    sc.horizon_hours = u64::MAX / 3_600_000_000;
    sc.retry.execute_deadline_mins = Some(u64::MAX / 60_000_000);
    sc.validate()
        .expect("the largest convertible values are valid");
}

/// Validation rejects the failure modes the typed errors exist for.
#[test]
fn validation_rejects_bad_scenarios() {
    let base = chaos_scenario(7);

    let mut sc = base.clone();
    sc.workloads.clear();
    assert!(matches!(sc.validate(), Err(ScenarioError::Invalid(_))));

    let mut sc = base.clone();
    sc.faults = vec![scenario::spec::FaultSpec {
        target: lobster::fault::FaultTarget::Squid {
            index: sc.infra.n_squids as usize,
        },
        windows: vec![scenario::spec::WindowSpec {
            start_mins: 10,
            end_mins: 20,
            capacity_factor: 0.0,
            failure_prob: 1.0,
        }],
    }];
    assert!(
        matches!(sc.validate(), Err(ScenarioError::Fault(_))),
        "squid index past the deployed set is a typed fault error"
    );

    let mut sc = base.clone();
    sc.faults = vec![scenario::spec::FaultSpec {
        target: lobster::fault::FaultTarget::Chirp,
        windows: vec![scenario::spec::WindowSpec {
            start_mins: 20,
            end_mins: 20,
            capacity_factor: 0.0,
            failure_prob: 1.0,
        }],
    }];
    assert!(
        matches!(sc.validate(), Err(ScenarioError::Fault(_))),
        "zero-length fault window is rejected"
    );

    let mut sc = base.clone();
    sc.wan_outages = vec![
        scenario::spec::WindowSpec {
            start_mins: 10,
            end_mins: 40,
            capacity_factor: 0.0,
            failure_prob: 1.0,
        },
        scenario::spec::WindowSpec {
            start_mins: 30,
            end_mins: 50,
            capacity_factor: 0.0,
            failure_prob: 1.0,
        },
    ];
    assert!(
        matches!(sc.validate(), Err(ScenarioError::WanOutage(_))),
        "overlapping wan outage windows are rejected"
    );

    let mut sc = base.clone();
    sc.faults = vec![scenario::spec::FaultSpec {
        target: lobster::fault::FaultTarget::Federation,
        windows: vec![scenario::spec::WindowSpec {
            start_mins: 10,
            end_mins: 60,
            capacity_factor: 1.5,
            failure_prob: 0.5,
        }],
    }];
    assert!(
        matches!(sc.validate(), Err(ScenarioError::Fault(_))),
        "capacity factor above 1 is rejected"
    );

    let tenant = |name: &str, weight: f64| ScenarioTenant {
        name: name.to_string(),
        weight,
        seed: 1,
    };

    let mut sc = base.clone();
    sc.tenants = vec![tenant("alice", 1.0), tenant("alice", 2.0)];
    assert!(
        matches!(sc.validate(), Err(ScenarioError::Invalid(_))),
        "duplicate tenant names are rejected"
    );

    let mut sc = base.clone();
    sc.tenants = vec![tenant("no/slashes", 1.0)];
    assert!(
        matches!(sc.validate(), Err(ScenarioError::Invalid(_))),
        "tenant names outside [A-Za-z0-9_-]+ are rejected"
    );

    let mut sc = base;
    sc.tenants = vec![tenant("alice", 0.0)];
    assert!(
        matches!(sc.validate(), Err(ScenarioError::Invalid(_))),
        "non-positive tenant weights are rejected"
    );
}
