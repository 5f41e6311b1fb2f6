//! The `lobster` binary end to end: `simulate` writes the same snapshot
//! bytes as an in-memory run of the same scenario, every bad input file
//! is a clean exit 1 with a message (never a panic), and bad usage is
//! exit 2.

use lobster::driver::ClusterSim;
use lobster::ops::snapshot_from_run;
use lobster::Session;
use scenario::spec::WorkloadKindSpec;
use scenario::{compile, Compiled, Scenario};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lobster(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lobster"))
        .args(args)
        .output()
        .expect("the lobster binary starts")
}

fn library(name: &str) -> String {
    format!("{}/../../scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"))
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn simulate_metrics_equal_an_in_memory_session() {
    let path = library("squid_blackout");
    let metrics = scratch("simulate").join("metrics.json");
    let out = lobster(&["simulate", &path, "--metrics", metrics.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("scenario  : squid_blackout\n"),
        "{stdout}"
    );

    let sc = Scenario::load(&path).unwrap();
    let Compiled {
        cfg,
        params,
        workflows,
    } = compile(&sc).unwrap();
    let mut session = Session::start(ClusterSim::new(cfg.clone(), params.clone(), workflows));
    session.advance(session.horizon(), u64::MAX);
    let report = session.finish();
    assert!(report.finished_at.is_some(), "the scenario drains");
    let want = snapshot_from_run(&sc.name, &cfg, &params, &report).to_json();
    assert_eq!(std::fs::read_to_string(&metrics).unwrap(), want);
}

#[test]
fn validate_accepts_a_library_scenario() {
    let out = lobster(&["validate", &library("wan_brownout")]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains(": ok ("));
}

/// A library scenario with one value out of range, written to `dir`.
fn invalid(dir: &Path, tag: &str, break_it: impl FnOnce(&mut Scenario)) -> PathBuf {
    let mut sc = Scenario::load(library("squid_blackout")).unwrap();
    break_it(&mut sc);
    let path = dir.join(format!("{tag}.json"));
    std::fs::write(&path, sc.to_json().unwrap()).unwrap();
    path
}

#[test]
fn bad_scenario_files_exit_1_with_a_message() {
    let dir = scratch("bad-files");
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{not json").unwrap();
    let cases = [
        (dir.join("missing.json"), "reading scenario"),
        (garbage, "parsing scenario"),
        (
            invalid(&dir, "horizon", |sc| sc.horizon_hours = 0),
            "horizon_hours is 0",
        ),
        (
            invalid(&dir, "chirp", |sc| sc.infra.chirp_connections = 0),
            "chirp_connections is 0",
        ),
        (
            invalid(&dir, "wan", |sc| sc.infra.wan_gbits = -1.0),
            "wan_gbits must be finite and > 0",
        ),
        // Checked only by the compiled config's own validation.
        (
            invalid(&dir, "requeue", |sc| {
                sc.retry.requeue_base_mins = 10;
                sc.retry.requeue_max_mins = 1;
            }),
            "retry.requeue: max below base",
        ),
        (
            invalid(&dir, "journal", |sc| sc.journal.group_commit_records = 0),
            "group_commit_records of 0",
        ),
        (library("multitenant_contention").into(), "tenants"),
        // Numbers whose conversion overflows: a debug build used to
        // panic on these, a release build to wrap.
        (
            invalid(&dir, "horizon-huge", |sc| sc.horizon_hours = 1 << 62),
            "horizon_hours of 4611686018427387904 overflows the clock",
        ),
        (
            invalid(&dir, "tick-huge", |sc| sc.pool.tick_mins = 1 << 62),
            "pool.tick_mins of 4611686018427387904 minutes overflows the clock",
        ),
        (
            invalid(&dir, "output-huge", |sc| {
                sc.workloads[0].output_mb_per_tasklet = 1 << 62;
            }),
            "output_mb_per_tasklet × tasklets_per_task overflows a byte count",
        ),
        (
            invalid(&dir, "tasklets-huge", |sc| {
                sc.workloads[0].kind = WorkloadKindSpec::Simulation {
                    tasklets: 1 << 62,
                    pileup_mb_per_tasklet: 40,
                };
            }),
            "4611686018427387904 tasklets is over the limit of 100000000",
        ),
    ];
    for (path, message) in &cases {
        for cmd in ["simulate", "validate"] {
            let out = lobster(&[cmd, path.to_str().unwrap()]);
            let err = stderr(&out);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{cmd} {}: {err}",
                path.display()
            );
            assert!(
                err.starts_with("lobster: ") && err.contains(message),
                "{err}"
            );
        }
    }
}

#[test]
fn bad_usage_exits_2() {
    let path = library("squid_blackout");
    for args in [
        &[][..],
        &["init", "run.json"],
        &["tasksize"],
        &["simulate"],
        &["simulate", &path, "--cores", "2000"],
        &["simulate", &path, "--metrics"],
        &[
            "simulate",
            &path,
            "--metrics",
            "a.json",
            "--metrics",
            "b.json",
        ],
        &["validate", &path, "--metrics", "a.json"],
        &["dashboard", "--out", "a.html"],
    ] {
        let out = lobster(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).starts_with("usage:"), "{args:?}");
    }
}
