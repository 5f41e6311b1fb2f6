//! Recovery benchmark: full-WAL replay vs snapshot+tail, and the journal
//! bytes of each.
//!
//! Runs the same fixed-seed cluster simulation twice behind two journal
//! policies — `JournalPolicy::never()` (write-through; every record since
//! the run began survives on disk) and the periodic-snapshot policy with
//! group commit (the operating configuration) — then times a cold
//! [`LobsterDb::recover`] of each journal *from disk only*: the recovery
//! legs never touch the in-memory state of the runs that wrote them.
//!
//! Reported sizes are honest on-disk journal bytes
//! ([`lobster::db::journal_bytes`] sums the shard directory). Gates:
//!
//! 1. snapshot+tail must beat full replay, and resume in < 100 ms;
//! 2. against the committed `BENCH_recovery.json`, read back as a
//!    [`BenchResult`] through [`lobster_bench::gate`]: a snapshot+tail
//!    resume more than 20% slower than the baseline's, or any growth of
//!    either leg's journal bytes, fails.
//!
//! Results go to `target/bench/BENCH_recovery.json`.
//!
//! The run is fully seeded, so both journals are byte-deterministic: the
//! full-replay leg pins the codec and batch framing, the snapshot+tail
//! leg adds snapshot compaction and group commit.

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::{Backoff, JournalPolicy, LobsterConfig, WorkflowConfig};
use lobster::db::{journal_bytes, LobsterDb};
use lobster::driver::{ClusterSim, SimParams};
use lobster::merge::MergeMode;
use lobster::workflow::Workflow;
use lobster::Session;
use lobster_bench::gate::{write_fresh_results, Gate};
use serde::{Deserialize, Serialize};
use simkit::time::SimDuration;
use std::path::PathBuf;

const SEED: u64 = 2025;
const SNAPSHOT_EVERY: u64 = 2048;
const RECOVER_REPS: u32 = 5;
/// Snapshot+tail resume must finish in under 100 ms.
const RESUME_BUDGET_SECS: f64 = 0.100;

#[derive(Serialize, Deserialize)]
struct RecoveryLeg {
    journal_bytes: u64,
    recover_secs: f64,
}

#[derive(Serialize, Deserialize)]
struct BenchResult {
    seed: u64,
    snapshot_every_records: u64,
    events: u64,
    tasks_completed: u64,
    merges_completed: u64,
    run_wall_secs: f64,
    full_replay: RecoveryLeg,
    snapshot_tail: RecoveryLeg,
    speedup: f64,
}

fn setup(journal: JournalPolicy) -> (LobsterConfig, SimParams, Vec<Workflow>) {
    let mut cfg = LobsterConfig::default();
    cfg.seed = SEED;
    cfg.merge = MergeMode::Interleaved;
    cfg.workers.target_cores = 256;
    cfg.workers.cores_per_worker = 8;
    cfg.merge_target_bytes = 200_000_000;
    cfg.retry.max_attempts = Some(10);
    cfg.retry.requeue = Backoff {
        base: SimDuration::from_mins(5),
        factor: 2.0,
        max: SimDuration::from_mins(30),
        jitter: 0.1,
    };
    cfg.journal = journal;
    cfg.workflows = vec![WorkflowConfig::analysis("ttbar", "/TTJets/Bench/AOD")];

    let mut dbs = Dbs::new();
    dbs.generate(
        "/TTJets/Bench/AOD",
        DatasetSpec {
            // ~12000 six-tasklet tasks — a run of roughly 100k events,
            // leaving a six-figure record count for the replay leg.
            n_files: 36_000,
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
        ..SimParams::default()
    };
    (cfg, params, vec![wf])
}

fn journal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lobster-bench-recovery");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}-{}.wal", std::process::id()));
    std::fs::remove_dir_all(&path).ok();
    path
}

fn cleanup(path: &PathBuf) {
    std::fs::remove_dir_all(path).ok();
}

/// Cold-recover `path` `RECOVER_REPS` times; return the fastest pass and
/// the last recovered db. Recovery reads only what is on disk — the
/// writing process's state is long dropped by the time this runs — so the
/// timing is an honest reopen-from-disk, with a warm page cache (the
/// steady-state restart case a master actually hits).
fn time_recover(path: &PathBuf) -> (f64, LobsterDb) {
    let mut best = f64::INFINITY;
    let mut db = None;
    for _ in 0..RECOVER_REPS {
        let started = std::time::Instant::now();
        let recovered = LobsterDb::recover(path).expect("journal recovers");
        best = best.min(started.elapsed().as_secs_f64());
        db = Some(recovered);
    }
    (best, db.expect("at least one rep"))
}

fn main() {
    let mut gate = Gate::new("bench_recovery");
    let baseline: Option<BenchResult> = gate.baseline("BENCH_recovery.json");
    let replay_path = journal_path("full-replay");
    let snap_path = journal_path("snapshot-tail");

    let (cfg, params, wfs) = setup(JournalPolicy::never());
    let started = std::time::Instant::now();
    let sim = ClusterSim::durable(cfg, params, wfs, &replay_path).expect("durable run");
    let mut session = Session::start(sim);
    session.advance(session.horizon(), u64::MAX);
    let full = session.finish();
    let run_wall_secs = started.elapsed().as_secs_f64();

    // The operating policy: periodic snapshots plus default group commit.
    let (cfg, params, wfs) = setup(JournalPolicy {
        snapshot_every_records: Some(SNAPSHOT_EVERY),
        ..JournalPolicy::default()
    });
    let sim = ClusterSim::durable(cfg, params, wfs, &snap_path).expect("durable run");
    let mut session = Session::start(sim);
    session.advance(session.horizon(), u64::MAX);
    let snap = session.finish();

    if full.finished_at.is_none() || snap.finished_at.is_none() {
        eprintln!("bench_recovery: a run did not finish (full {full:?})");
        std::process::exit(1);
    }
    // Journaling policy must not perturb the simulation itself.
    if full.tasks_completed != snap.tasks_completed
        || full.merges_completed != snap.merges_completed
        || full.events_delivered != snap.events_delivered
    {
        eprintln!("bench_recovery: journal policy perturbed the run");
        std::process::exit(1);
    }

    let (replay_secs, replay_db) = time_recover(&replay_path);
    let (snap_secs, snap_db) = time_recover(&snap_path);

    // Both journals must recover to the same terminal state.
    if !replay_db.all_done()
        || !snap_db.all_done()
        || replay_db.counters() != snap_db.counters()
        || replay_db.merged_files() != snap_db.merged_files()
    {
        eprintln!("bench_recovery: recovered states disagree");
        std::process::exit(1);
    }

    let replay_bytes = journal_bytes(&replay_path).expect("journal size");
    let snap_bytes = journal_bytes(&snap_path).expect("journal size");

    let result = BenchResult {
        seed: SEED,
        snapshot_every_records: SNAPSHOT_EVERY,
        events: full.events_delivered,
        tasks_completed: full.tasks_completed,
        merges_completed: full.merges_completed,
        run_wall_secs,
        full_replay: RecoveryLeg {
            journal_bytes: replay_bytes,
            recover_secs: replay_secs,
        },
        snapshot_tail: RecoveryLeg {
            journal_bytes: snap_bytes,
            recover_secs: snap_secs,
        },
        speedup: replay_secs / snap_secs.max(1e-9),
    };
    let json = serde_json::to_string_pretty(&result).expect("serialises");
    let out_path = write_fresh_results("BENCH_recovery.json", &json).expect("writable target/");

    println!("== bench_recovery (seed {SEED}) ==");
    println!("{json}");
    println!("wrote {}", out_path.display());

    gate.check(
        replay_secs > snap_secs,
        format_args!(
            "snapshot+tail ({snap_secs:.6}s) did not beat full replay ({replay_secs:.6}s)"
        ),
    );
    gate.check(
        snap_secs < RESUME_BUDGET_SECS,
        format_args!(
            "snapshot+tail resume {snap_secs:.6}s over the {RESUME_BUDGET_SECS:.3}s budget"
        ),
    );
    // The run is fully seeded, so the journals are byte-deterministic:
    // any size growth is a real format/policy change and fails, not just
    // a noisy measurement.
    if let Some(old) = baseline {
        gate.ceiling(
            "snapshot+tail resume (s)",
            snap_secs,
            old.snapshot_tail.recover_secs,
        );
        gate.at_most(
            "full_replay journal (B)",
            replay_bytes,
            old.full_replay.journal_bytes,
        );
        gate.at_most(
            "snapshot_tail journal (B)",
            snap_bytes,
            old.snapshot_tail.journal_bytes,
        );
    }
    cleanup(&replay_path);
    cleanup(&snap_path);
    gate.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
        let baseline = lobster_bench::gate::read_baseline::<BenchResult>(path.as_ref())
            .expect("BENCH_recovery.json parses as a BenchResult")
            .expect("BENCH_recovery.json is committed");
        assert_eq!(baseline.snapshot_every_records, SNAPSHOT_EVERY);
    }
}
