//! The benchmark's own checks, on small versions of its workloads:
//!
//! * its drive loop — plain and profiled — reaches the same outcome as
//!   the program's `ClusterSim::run` and `ClusterSim::run_durable_until_crash`
//!   + `resume_run`, so the copy cannot drift from the program;
//! * two traced reps of one seed give identical counts;
//! * `BENCHMARK.json` names exactly the metrics the benchmark prints.

use lobster::db::journal_bytes;
use lobster::driver::ClusterSim;
use perfbench::rep::{self, Digest, Rep};
use perfbench::workload::{dataproc_inputs, scale_inputs, Workload, NAMES};
use perfbench::{per_layer, END_TO_END};
use simkit::fault::CrashPoint;
use std::path::{Path, PathBuf};

const SEED: u64 = 7;
const SCALE: Workload = Workload::Scale { cores: 400 };
const TENANTS: Workload = Workload::Tenants {
    tenants: 4,
    tasklets: 200,
};
const DATAPROC_CORES: u32 = 200;

fn temp_dir(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&path).ok();
    path
}

fn rep_ok(workload: Workload, journal: &Path, traced: bool) -> Rep {
    let rep = rep::run(workload, SEED, journal, traced).expect("rep runs");
    assert!(rep.problems.is_empty(), "{:?}", rep.problems);
    rep
}

/// A durable-dataproc workload whose crash lands halfway through.
fn dataproc() -> Workload {
    let (cfg, params, wfs) = dataproc_inputs(SEED, DATAPROC_CORES);
    let events = ClusterSim::run(cfg, params, wfs).events_delivered;
    Workload::DurableDataproc {
        cores: DATAPROC_CORES,
        crash_after: events / 2,
    }
}

#[test]
fn drive_loop_matches_cluster_sim_run() {
    let Workload::Scale { cores } = SCALE else {
        unreachable!()
    };
    let (cfg, params, wfs) = scale_inputs(SEED, cores);
    let expected = Digest::of(&ClusterSim::run(cfg, params, wfs));
    let journal = temp_dir("scale-unused");
    for traced in [false, true] {
        assert_eq!(
            rep_ok(SCALE, &journal, traced).digest,
            expected,
            "traced={traced}"
        );
    }
}

#[test]
fn crash_leg_matches_run_durable_until_crash() {
    let workload = dataproc();
    let Workload::DurableDataproc { crash_after, .. } = workload else {
        unreachable!()
    };
    let lib = temp_dir("dataproc-lib");
    let (cfg, params, wfs) = dataproc_inputs(SEED, DATAPROC_CORES);
    let crashed = ClusterSim::run_durable_until_crash(
        cfg.clone(),
        params.clone(),
        wfs.clone(),
        &lib,
        CrashPoint::inside_commit_window(crash_after),
    )
    .expect("durable run");
    assert!(crashed.is_none(), "the crash lands mid-flight");
    let crash_mb = journal_bytes(&lib).expect("journal") as f64 / 1e6;
    let mut expected = Digest::of(&ClusterSim::resume_run(cfg, params, wfs, &lib).expect("resume"));
    expected.events += crash_after;

    let journal = temp_dir("dataproc-bench");
    for traced in [false, true] {
        let rep = rep_ok(workload, &journal, traced);
        assert_eq!(rep.digest, expected, "traced={traced}");
        assert_eq!(rep.values["journal_mb"], crash_mb, "traced={traced}");
    }
    std::fs::remove_dir_all(&lib).ok();
}

#[test]
fn traced_counts_repeat_exactly() {
    let journal = temp_dir("repeat");
    for workload in [SCALE, dataproc(), TENANTS] {
        let a = rep_ok(workload, &journal, true);
        let b = rep_ok(workload, &journal, true);
        assert_eq!(a.digest, b.digest);
        let mut compared = 0;
        for (name, unit) in per_layer() {
            if unit == "s" || unit == "ns" {
                continue;
            }
            assert_eq!(
                a.values.get(&name),
                b.values.get(&name),
                "{workload:?} {name}"
            );
            compared += a.values.contains_key(&name) as usize;
        }
        assert!(compared > 0, "{workload:?} reported no counts");
    }
}

#[test]
fn journal_is_written_only_by_the_durable_workload() {
    let journal = temp_dir("journal-only-durable");
    for workload in [SCALE, TENANTS] {
        let rep = rep_ok(workload, &journal, true);
        assert!(!journal.exists(), "{workload:?}");
        assert!(!rep.values.contains_key("db.journal_bytes"), "{workload:?}");
    }
    let rep = rep_ok(dataproc(), &journal, true);
    assert!(rep.values["db.journal_bytes"] > 0.0);
    assert!(rep.values["db.tail_records"] > 0.0);
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut names = 0;
    for (name, unit) in END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer())
    {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        names += 1;
    }
    for workload in NAMES {
        assert!(
            text.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
        assert!(Workload::full(workload).is_some());
        names += 1;
    }
    assert_eq!(text.matches("\"name\":").count(), names);
}
