//! Crash-point injection matrix: kill the master at event boundaries
//! (and mid-WAL-append, via byte truncation of the journal), restart
//! from disk, and check that the resumed run converges to the same
//! final accounting as an uninterrupted run of the same seed.
//!
//! A resumed run's *timing* legitimately diverges — the clock restarts
//! and the rng stream is re-seeded — so the invariants checked here are
//! the crash-consistency ones: every tasklet done exactly once, every
//! output byte inside exactly one merged file, nothing lost and nothing
//! duplicated.

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::config::{Backoff, JournalPolicy, LobsterConfig};
use lobster::db::LobsterDb;
use lobster::driver::{ClusterSim, RunReport, SimParams};
use lobster::fault::{Fault, FaultPlan, FaultTarget};
use lobster::merge::MergeMode;
use lobster::ops::run_trace;
use lobster::workflow::Workflow;
use lobster::{Session, Stop};
use simkit::fault::CrashPoint;
use simkit::time::{SimDuration, SimTime};
use simnet::outage::{Outage, OutageSchedule};
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

const BYTES_PER_TASKLET: u64 = 12_000_000;

fn journal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lobster-crash-matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.wal", std::process::id()));
    cleanup(&path);
    path
}

fn cleanup(path: &PathBuf) {
    std::fs::remove_dir_all(path).ok();
}

/// The single-workflow crash workload journals task state to
/// `shard-0000.wal` and merge/accounting state to `master.wal`.
fn shard_file(path: &Path) -> PathBuf {
    path.join("shard-0000.wal")
}

fn master_file(path: &Path) -> PathBuf {
    path.join("master.wal")
}

/// A small but non-trivial workload: enough tasks that crashes land in
/// every phase (dispatch, merge planning, merge execution).
fn setup(merge: MergeMode, n_files: usize) -> (LobsterConfig, SimParams, Vec<Workflow>) {
    let mut cfg = LobsterConfig::default();
    cfg.merge = merge;
    cfg.workers.target_cores = 64;
    cfg.workers.cores_per_worker = 4;
    cfg.merge_target_bytes = 200_000_000;
    cfg.seed = 42;
    // Snapshot aggressively so crash points land both before and after
    // compactions (exercising snapshot + tail replay).
    cfg.journal = JournalPolicy {
        snapshot_every_records: Some(200),
        ..JournalPolicy::default()
    };
    let mut dbs = Dbs::new();
    dbs.generate(
        "/TTJets/Spring14/AOD",
        DatasetSpec {
            n_files,
            mean_file_bytes: 500_000_000,
            events_per_lumi: 100,
            lumis_per_file: 50,
        },
        7,
    );
    let ds = dbs.query("/TTJets/Spring14/AOD").unwrap();
    let wf = Workflow::from_dataset(&cfg.workflows[0], ds);
    let params = SimParams {
        availability: AvailabilityModel::Dedicated,
        outages: OutageSchedule::none(),
        pool: PoolConfig {
            total_cores: 200,
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

/// The invariants a recovered-and-finished run must satisfy against the
/// uninterrupted reference.
fn assert_converged(resumed: &RunReport, reference: &RunReport, path: &PathBuf, label: &str) {
    assert!(
        resumed.finished_at.is_some(),
        "{label}: resumed run must finish: {resumed:?}"
    );
    let merged = |r: &RunReport| -> u64 { r.merged_files.iter().map(|m| m.1).sum() };
    assert_eq!(
        merged(resumed),
        merged(reference),
        "{label}: merged bytes must match the uninterrupted run"
    );
    assert_eq!(
        resumed.dead_letters.len(),
        reference.dead_letters.len(),
        "{label}: dead-letter ledgers must agree"
    );
    // Post-hoc audit: replay the journal cold and check the final state.
    let db = LobsterDb::recover(path).unwrap();
    assert!(db.all_done(), "{label}: every tasklet accounted done");
    assert!(
        db.unmerged_outputs().is_empty(),
        "{label}: no output left outside a merged file"
    );
    assert_eq!(
        db.merge_backlog(),
        db.unmerged_outputs().len(),
        "{label}: the backlog count matches the merge states"
    );
    assert!(
        db.open_merge_groups().is_empty(),
        "{label}: no merge group left open"
    );
    assert!(
        db.running_tasks().is_empty(),
        "{label}: no task left in flight"
    );
}

type Setup<'a> = dyn Fn() -> (LobsterConfig, SimParams, Vec<Workflow>) + 'a;

/// A fresh durable session of `mk`'s workload journaling to `path`.
fn durable(mk: &Setup<'_>, path: &Path) -> Session {
    let (cfg, params, wfs) = mk();
    Session::start(ClusterSim::durable(cfg, params, wfs, path).unwrap())
}

/// A session of `mk`'s workload resumed from the journal at `path`.
fn resume(mk: &Setup<'_>, path: &Path) -> Session {
    let (cfg, params, wfs) = mk();
    Session::start(ClusterSim::resume(cfg, params, wfs, path).unwrap())
}

/// Run `session` to its horizon and harvest the report.
fn finish(mut session: Session) -> RunReport {
    session.advance(session.horizon(), u64::MAX);
    session.finish()
}

/// Kill `session` at `point`, which must land mid-run.
fn crash(mut session: Session, point: CrashPoint) {
    let stop = session.advance(session.horizon(), point.after_events);
    assert_eq!(stop, Stop::Budget, "{point:?} must land mid-run");
    session.crash(point.site);
}

/// One monitor record feeds the timeline and the completion series, live
/// and on replay, so outside Hadoop merging (whose groups finish without
/// an attempt) every completion is an analysis or a merge completion.
fn assert_sinks_agree(r: &RunReport, label: &str) {
    let sum = |bins: Vec<f64>| -> f64 { bins.iter().sum() };
    let series = sum(r.analysis_done.sums()) + sum(r.merge_done.sums());
    assert_eq!(sum(r.timeline.completions()), series, "{label}");
}

fn reference_run(mk: &Setup<'_>, tag: &str) -> (RunReport, PathBuf) {
    let path = journal_path(tag);
    let report = finish(durable(mk, &path));
    assert!(report.finished_at.is_some(), "reference must finish");
    (report, path)
}

/// Crash at a sampled set of event boundaries; resume; converge.
#[test]
fn crash_at_event_boundaries_resumes_to_same_accounting() {
    let mk = || setup(MergeMode::Interleaved, 10);
    let (reference, ref_path) = reference_run(&mk, "ref-boundaries");
    let n = reference.events_delivered;
    assert!(n > 100, "workload too small to be interesting: {n} events");
    cleanup(&ref_path);

    for crash_after in [1, n / 4, n / 2, 3 * n / 4, n - 1] {
        let path = journal_path(&format!("crash-{crash_after}"));
        crash(durable(&mk, &path), CrashPoint::after_events(crash_after));
        let resumed = finish(resume(&mk, &path));
        assert_converged(
            &resumed,
            &reference,
            &path,
            &format!("crash after {crash_after} events"),
        );
        cleanup(&path);
    }
}

/// Crash mid-WAL-append: stop at an event boundary, then tear the tail
/// of the journal by a few bytes — as if the process died inside
/// `write_all`. Recovery must drop the torn record and still converge.
#[test]
fn crash_mid_wal_append_resumes_to_same_accounting() {
    let mk = || setup(MergeMode::Interleaved, 10);
    let (reference, ref_path) = reference_run(&mk, "ref-torn");
    let n = reference.events_delivered;
    cleanup(&ref_path);

    // Tear the task shard and the master file in turn: either can be
    // the one the process died inside.
    for (which, torn_bytes) in [
        ("shard", 1u64),
        ("shard", 3),
        ("shard", 7),
        ("shard", 12),
        ("master", 5),
    ] {
        let path = journal_path(&format!("torn-{which}-{torn_bytes}"));
        crash(durable(&mk, &path), CrashPoint::after_events(n / 2));
        let victim = match which {
            "shard" => shard_file(&path),
            _ => master_file(&path),
        };
        let len = std::fs::metadata(&victim).unwrap().len();
        assert!(len > 16 + torn_bytes, "{which} long enough to tear");
        let f = OpenOptions::new().write(true).open(&victim).unwrap();
        f.set_len(len - torn_bytes).unwrap();
        drop(f);
        let resumed = finish(resume(&mk, &path));
        assert_converged(
            &resumed,
            &reference,
            &path,
            &format!("torn {which} append ({torn_bytes} bytes)"),
        );
        cleanup(&path);
    }
}

/// A crash budget larger than the whole run is no crash at all: the
/// durable run completes and reports exactly like an undisturbed one.
#[test]
fn crash_point_past_the_end_is_a_normal_run() {
    let mk = || setup(MergeMode::Interleaved, 10);
    let (reference, ref_path) = reference_run(&mk, "ref-past-end");
    cleanup(&ref_path);
    let path = journal_path("past-end");
    let mut session = durable(&mk, &path);
    let stop = session.advance(session.horizon(), reference.events_delivered + 1_000);
    assert_eq!(stop, Stop::Drained, "run drains before the crash budget");
    let report = session.finish();
    assert_eq!(run_trace(&report), run_trace(&reference));
    assert_eq!(report.events_delivered, reference.events_delivered);
    cleanup(&path);
}

/// Journaling must not perturb the simulation: an in-memory run and a
/// durable run of the same seed are byte-identical in everything the
/// report captures.
#[test]
fn durable_run_is_byte_identical_to_in_memory_run() {
    let mk = || setup(MergeMode::Interleaved, 10);
    let (cfg, params, wfs) = mk();
    let mem = ClusterSim::run(cfg, params, wfs);
    let path = journal_path("identical");
    let dur = finish(durable(&mk, &path));

    assert_eq!(run_trace(&mem), run_trace(&dur));
    assert_eq!(mem.events_delivered, dur.events_delivered);
    assert_eq!(mem.dead_letters, dur.dead_letters);
    assert_eq!(mem.analysis_done.sums(), dur.analysis_done.sums());
    cleanup(&path);
}

/// Crash-resume under injected faults and a bounded retry budget: the
/// dead-letter ledger survives the crash and the conservation law
/// (merged units + dead units == total tasklets) holds after resume.
#[test]
fn crash_with_dead_letters_conserves_tasklets() {
    let mins = |m: u64| SimTime::ZERO + SimDuration::from_mins(m);
    let mk = || {
        // 360 files: large enough that the federation blackout exhausts
        // retry budgets (the same workload shape the driver's own
        // dead-letter test uses).
        let (mut cfg, mut params, wfs) = setup(MergeMode::Interleaved, 360);
        params.faults = FaultPlan::new(vec![Fault::new(
            FaultTarget::Federation,
            OutageSchedule::new(vec![Outage::blackout(mins(30), mins(20 * 60))]),
        )]);
        cfg.retry.max_attempts = Some(3);
        cfg.retry.requeue = Backoff::fixed(SimDuration::from_mins(10));
        (cfg, params, wfs)
    };
    let (_, _, wfs) = mk();
    let total_tasklets: u64 = wfs.iter().map(|w| w.n_tasklets()).sum();
    let (reference, ref_path) = reference_run(&mk, "ref-dead");
    assert!(!reference.dead_letters.is_empty(), "{reference:?}");
    cleanup(&ref_path);

    let path = journal_path("dead-letters");
    crash(
        durable(&mk, &path),
        CrashPoint::after_events(reference.events_delivered / 2),
    );
    let resumed = finish(resume(&mk, &path));
    assert!(resumed.finished_at.is_some(), "{resumed:?}");
    let merged_bytes: u64 = resumed.merged_files.iter().map(|m| m.1).sum();
    let dead_units: u64 = resumed.dead_letters.iter().map(|d| d.units).sum();
    assert_eq!(
        merged_bytes / BYTES_PER_TASKLET + dead_units,
        total_tasklets,
        "every tasklet is merged or accounted dead: {resumed:?}"
    );
    cleanup(&path);
}

/// A journal already holding a run refuses `durable` (fresh) opens;
/// resume rejects a config whose workflow shape contradicts the journal,
/// and a path that does not exist, which it leaves uncreated. An empty
/// journal directory (a crash before the first commit) resumes as a
/// fresh run.
#[test]
fn durable_and_resume_guard_their_preconditions() {
    let path = journal_path("guards");
    let mk = || setup(MergeMode::Interleaved, 10);
    let (cfg, params, wfs) = mk();
    let err = match ClusterSim::resume(cfg, params, wfs, &path) {
        Err(e) => e,
        Ok(_) => panic!("resume of a missing journal must fail"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(!path.exists(), "a failed resume creates nothing");

    std::fs::create_dir_all(&path).unwrap();
    let fresh = finish(resume(&mk, &path));
    let (cfg, params, wfs) = mk();
    let reference = ClusterSim::run(cfg, params, wfs);
    assert_eq!(fresh.events_delivered, reference.events_delivered);
    assert_eq!(fresh.merged_files, reference.merged_files);
    cleanup(&path);

    // A 10-file run delivers well over 100 events (asserted by the
    // boundary test), so a 50-event budget always lands mid-run.
    crash(durable(&mk, &path), CrashPoint::after_events(50));

    let (cfg, params, wfs) = mk();
    let err = match ClusterSim::durable(cfg, params, wfs, &path) {
        Err(e) => e,
        Ok(_) => panic!("fresh open over live state must fail"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);

    let (cfg, params, _) = mk();
    // A different dataset decomposition contradicts the journal.
    let (_, _, wfs) = setup(MergeMode::Interleaved, 12);
    let err = match ClusterSim::resume(cfg, params, wfs, &path) {
        Err(e) => e,
        Ok(_) => panic!("mismatched decomposition must fail"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    cleanup(&path);
}

/// Corruption *before* the final frame is not a torn tail — it means the
/// fsynced history itself is damaged, and recovery must refuse to
/// silently drop acknowledged state. Flip one payload byte in an early
/// frame and in a mid-file frame; resume must fail hard with
/// `InvalidData`, never limp onward from a truncated prefix.
#[test]
fn mid_file_wal_corruption_fails_hard() {
    // Walk the v3 framing (16-byte header, then 8-byte frame headers of
    // `len: u32 LE | crc: u32 LE`) to find frame payload offsets without
    // reaching into db internals.
    fn frame_payloads(buf: &[u8]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut pos = 16usize;
        while pos + 8 <= buf.len() {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
            let end = pos + 8 + len;
            if end > buf.len() {
                break;
            }
            out.push((pos + 8, len));
            pos = end;
        }
        out
    }

    // No snapshot compaction and two-record commit groups: the shard
    // file accumulates several frames, all of them fsynced history
    // (only a handful of db records exist by the n/2-event mark — the
    // early event stream is dominated by non-db activity).
    let mk = || {
        let (mut cfg, params, wfs) = setup(MergeMode::Interleaved, 10);
        cfg.journal = JournalPolicy {
            snapshot_every_records: None,
            group_commit_records: 2,
            ..JournalPolicy::default()
        };
        (cfg, params, wfs)
    };
    let (reference, ref_path) = reference_run(&mk, "ref-corrupt");
    let n = reference.events_delivered;
    cleanup(&ref_path);
    for which in ["first", "middle"] {
        let path = journal_path(&format!("corrupt-{which}"));
        crash(durable(&mk, &path), CrashPoint::after_events(n / 2));

        // Corrupt the task shard: with group commit one frame is a whole
        // batch, so even a busy file holds only a handful of frames.
        let victim = shard_file(&path);
        let mut bytes = std::fs::read(&victim).unwrap();
        let frames = frame_payloads(&bytes);
        assert!(
            frames.len() >= 3,
            "need several intact frames to corrupt mid-file, got {}",
            frames.len()
        );
        // Pick a non-final frame: the first, or the one halfway through.
        let idx = match which {
            "first" => 0,
            _ => frames.len() / 2,
        };
        assert!(idx < frames.len() - 1, "must not touch the final frame");
        let (payload_at, len) = frames[idx];
        bytes[payload_at + len / 2] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();

        let (cfg, params, wfs) = mk();
        let err = match ClusterSim::resume(cfg, params, wfs, &path) {
            Err(e) => e,
            Ok(_) => panic!("{which}-frame corruption must refuse to resume"),
        };
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{which}-frame corruption: {err}"
        );
        cleanup(&path);
    }
}

/// Crash the master, resume, crash the *resumed* run, resume again: the
/// journal must stay replayable through stacked recoveries and the final
/// run must converge to the uninterrupted reference accounting.
#[test]
fn double_crash_resumes_twice_and_converges() {
    let mk = || setup(MergeMode::Interleaved, 10);
    let (reference, ref_path) = reference_run(&mk, "ref-double");
    let n = reference.events_delivered;
    cleanup(&ref_path);

    let path = journal_path("double-crash");
    crash(durable(&mk, &path), CrashPoint::after_events(n / 3));

    // The resumed run replays state, then crashes again after a modest
    // budget of *its own* events — inside the work the first crash left.
    crash(resume(&mk, &path), CrashPoint::after_events(n / 4));

    let resumed = finish(resume(&mk, &path));
    assert_converged(&resumed, &reference, &path, "double crash");
    cleanup(&path);
}

/// Crash *inside* an open group-commit window: the records buffered
/// since the last commit die with the process, so the journal
/// legitimately lags the dead master's memory by up to one window.
/// Resume must replay the committed prefix and still converge —
/// including through a second in-window crash of the resumed run.
#[test]
fn crash_inside_commit_window_resumes_to_same_accounting() {
    let mk = || setup(MergeMode::Interleaved, 10);
    let (reference, ref_path) = reference_run(&mk, "ref-window");
    let n = reference.events_delivered;
    cleanup(&ref_path);
    let (cfg, params, wfs) = mk();
    assert_sinks_agree(&ClusterSim::run(cfg, params, wfs), "in-memory run");

    for crash_after in [n / 4, n / 2, 3 * n / 4] {
        let path = journal_path(&format!("window-{crash_after}"));
        crash(
            durable(&mk, &path),
            CrashPoint::inside_commit_window(crash_after),
        );
        let resumed = finish(resume(&mk, &path));
        assert_converged(
            &resumed,
            &reference,
            &path,
            &format!("in-window crash after {crash_after} events"),
        );
        cleanup(&path);
    }

    // Stacked: boundary crash, resume, in-window crash, resume again.
    let path = journal_path("window-double");
    crash(durable(&mk, &path), CrashPoint::after_events(n / 3));
    crash(resume(&mk, &path), CrashPoint::inside_commit_window(n / 4));
    let resumed = finish(resume(&mk, &path));
    assert_converged(&resumed, &reference, &path, "in-window double crash");
    cleanup(&path);

    // The monitor's sinks agree on the replay path too. With small
    // commit groups an in-window crash leaves committed successes on
    // the journal tail, which the resumed master replays.
    let small_groups = || {
        let (mut cfg, params, wfs) = mk();
        cfg.journal.group_commit_records = 2;
        (cfg, params, wfs)
    };
    let path = journal_path("window-replay");
    crash(
        durable(&small_groups, &path),
        CrashPoint::inside_commit_window(3 * n / 4),
    );
    let replayed = LobsterDb::recover(&path).unwrap().take_replayed_attempts();
    assert!(replayed.iter().any(|r| r.is_success()), "a success replays");
    let resumed = finish(resume(&small_groups, &path));
    assert_converged(&resumed, &reference, &path, "small-group in-window crash");
    assert_sinks_agree(&resumed, "small-group in-window crash");
    cleanup(&path);
}

/// Crash mid-shard-compaction: the process dies after writing the
/// compacted replacement (`.waltmp`) but before the atomic rename. The
/// stray tmp file must be ignored on replay and cleared on reopen, and
/// the resumed run must converge.
#[test]
fn crash_mid_compaction_ignores_stray_tmp() {
    let mk = || setup(MergeMode::Interleaved, 10);
    let (reference, ref_path) = reference_run(&mk, "ref-compaction");
    let n = reference.events_delivered;
    cleanup(&ref_path);

    let path = journal_path("compaction");
    crash(durable(&mk, &path), CrashPoint::after_events(n / 2));
    // Simulate the torn compaction: a half-written replacement next to
    // the live shard file (any bytes — it was never fsync-renamed).
    let stray = path.join("shard-0000.wal.waltmp");
    std::fs::write(&stray, b"half-written compacted image").unwrap();
    let resumed = finish(resume(&mk, &path));
    assert_converged(&resumed, &reference, &path, "mid-compaction crash");
    assert!(!stray.exists(), "reopen clears the stray tmp file");
    cleanup(&path);
}

/// The full matrix: sweep crash points across the whole run (64 evenly
/// spaced boundaries, each with a torn-append variant). The tear lands
/// on `master.wal`: a commit writes shards first and master last, so
/// "died inside the final write of a commit" means a torn master tail —
/// tearing a *shard* after master was flushed would fabricate a
/// causality violation no real crash can produce (and which recovery
/// now rejects). The reference run is short, so the whole sweep stays
/// well under a second in a debug build.
#[test]
fn full_crash_matrix() {
    let mk = || setup(MergeMode::Interleaved, 10);
    let (reference, ref_path) = reference_run(&mk, "ref-full");
    let n = reference.events_delivered;
    cleanup(&ref_path);
    let points = 64u64;
    for i in 0..points {
        let crash_after = 1 + i * (n - 2) / (points - 1);
        for torn_bytes in [0u64, 5] {
            let path = journal_path(&format!("full-{i}-{torn_bytes}"));
            crash(durable(&mk, &path), CrashPoint::after_events(crash_after));
            if torn_bytes > 0 {
                let victim = master_file(&path);
                let len = std::fs::metadata(&victim).unwrap().len();
                let f = OpenOptions::new().write(true).open(&victim).unwrap();
                f.set_len(len.saturating_sub(torn_bytes).max(16)).unwrap();
            }
            let resumed = finish(resume(&mk, &path));
            assert_converged(
                &resumed,
                &reference,
                &path,
                &format!("matrix point {i} (torn {torn_bytes})"),
            );
            cleanup(&path);
        }
    }
}

// ----- multi-tenant crash isolation (ISSUE 10) -----------------------------
//
// Kill one tenant's master mid-run and resume it from its own journal
// while two peers keep arbitrating over the same pool. Because every
// arbiter input is crash-invariant (static weights, journaled
// work-remaining clamped at target concurrency, allocation-charged
// usage), the peers' cap sequences and observable traces must be
// byte-identical to a run where no one crashed.

fn mt_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("lobster-crash-matrix")
        .join(format!("mt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A simulation tenant whose workload cannot finish inside the horizon:
/// demand stays clamped at `target_cores`, which is what makes the
/// arbitration stream independent of the victim's recovery details.
fn mt_sim_tenant(name: &str, weight: f64, tasklets: u64) -> tenancy::TenantSpec {
    let mut cfg = LobsterConfig::default();
    cfg.workflows = vec![lobster::config::WorkflowConfig::simulation("gen")];
    cfg.workers.target_cores = 48;
    cfg.workers.cores_per_worker = 4;
    cfg.seed = 0x717E ^ tasklets ^ (name.len() as u64);
    let wf = Workflow::simulation(&cfg.workflows[0], tasklets, 0);
    tenancy::TenantSpec {
        name: name.to_string(),
        weight,
        cfg,
        params: SimParams::default(),
        workflows: vec![wf],
    }
}

fn mt_coord(horizon: SimDuration) -> tenancy::TenancyConfig {
    tenancy::TenancyConfig {
        pool: PoolConfig {
            total_cores: 96,
            owner_mean: 12.0,
            reversion: 0.3,
            noise: 3.0,
            tick: SimDuration::from_mins(5),
        },
        round: SimDuration::from_mins(5),
        arbiter: batchsim::arbiter::ArbiterConfig::default(),
        horizon,
        seed: 0xC4A5,
    }
}

#[test]
fn multitenant_crash_leaves_peer_arbitration_unperturbed() {
    let roster = || {
        vec![
            mt_sim_tenant("victim", 1.0, 2_000_000),
            mt_sim_tenant("peer-a", 2.0, 2_000_000),
            mt_sim_tenant("peer-b", 1.0, 2_000_000),
        ]
    };
    let horizon = SimDuration::from_hours(2);

    let base_root = mt_root("baseline");
    let baseline = tenancy::MultiTenant::durable(mt_coord(horizon), roster(), &base_root)
        .unwrap()
        .run()
        .unwrap();
    assert!(baseline.crash_round.is_none());

    let crash_root = mt_root("crashed");
    let mut mt = tenancy::MultiTenant::durable(mt_coord(horizon), roster(), &crash_root).unwrap();
    mt.crash_tenant(0, 300).unwrap();
    let crashed = mt.run().unwrap();
    assert!(
        crashed.crash_round.is_some(),
        "the scheduled crash must fire inside the run"
    );

    // Peers: byte-identical caps and observable traces.
    for i in [1usize, 2] {
        let b = &baseline.tenants[i];
        let c = &crashed.tenants[i];
        assert_eq!(
            b.cap_history, c.cap_history,
            "peer {} saw different arbitration because of the crash",
            b.name
        );
        assert_eq!(
            b.trace_digest, c.trace_digest,
            "peer {} trace perturbed by the crash",
            b.name
        );
    }
    // The victim itself recovered onto a cold-auditable journal.
    let victim_path = tenancy::journal_dir(&crash_root, 0, "victim");
    // (The workload is deliberately unfinishable, so tasks may still be
    // journaled as running at the horizon — the audit is that the journal
    // recovers and the victim's workflow survived the in-window crash.)
    let db = LobsterDb::recover(&victim_path).unwrap();
    assert!(db.task_count() > 0, "victim journal lost its tasks");
    std::fs::remove_dir_all(&base_root).ok();
    std::fs::remove_dir_all(&crash_root).ok();
}

#[test]
fn multitenant_crash_victim_converges_to_no_crash_accounting() {
    let roster = || {
        vec![
            mt_sim_tenant("victim", 1.0, 600),
            mt_sim_tenant("peer-a", 1.0, 600),
        ]
    };
    let horizon = SimDuration::from_hours(48);

    let base_root = mt_root("conv-baseline");
    let baseline = tenancy::MultiTenant::durable(mt_coord(horizon), roster(), &base_root)
        .unwrap()
        .run()
        .unwrap();

    let crash_root = mt_root("conv-crashed");
    let mut mt = tenancy::MultiTenant::durable(mt_coord(horizon), roster(), &crash_root).unwrap();
    mt.crash_tenant(0, 400).unwrap();
    let crashed = mt.run().unwrap();
    assert!(crashed.crash_round.is_some(), "crash must fire mid-run");

    let b = &baseline.tenants[0];
    let c = &crashed.tenants[0];
    assert!(
        c.report.finished_at.is_some(),
        "victim must finish after resume"
    );
    assert_eq!(
        c.report.tasks_completed + c.report.dead_letters.len() as u64,
        b.report.tasks_completed + b.report.dead_letters.len() as u64,
        "victim's completed work must converge"
    );
    // Cold audit of the victim's journal: everything done exactly once.
    let victim_path = tenancy::journal_dir(&crash_root, 0, "victim");
    let db = LobsterDb::recover(&victim_path).unwrap();
    assert!(
        db.all_done(),
        "victim journal: every tasklet accounted done"
    );
    std::fs::remove_dir_all(&base_root).ok();
    std::fs::remove_dir_all(&crash_root).ok();
}
