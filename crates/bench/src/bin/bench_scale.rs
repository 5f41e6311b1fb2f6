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
//! proxy from a counting global allocator. Results go to
//! `target/bench/BENCH_scale.json`. If the committed `BENCH_scale.json`
//! baseline is present, the run fails (exit 1) on any sweep point whose
//! events/sec regresses by more than 20% against it, or whose peak heap
//! is above it at all: the peak depends only on the seed, the code and
//! the toolchain, never on the host, so it needs no tolerance. The
//! baseline is never rewritten by a run (see
//! [`lobster_bench::write_fresh_results`]).

// The counting allocator below must implement `GlobalAlloc`, which is an
// unsafe trait; the workspace otherwise denies unsafe code.
#![allow(unsafe_code)]

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use lobster::config::{Backoff, LobsterConfig, WorkflowConfig};
use lobster::driver::{ClusterSim, SimParams};
use lobster::fault::{Fault, FaultPlan, FaultTarget};
use lobster::merge::MergeMode;
use lobster::workflow::Workflow;
use lobster_bench::write_fresh_results;
use serde::Serialize;
use simkit::time::{SimDuration, SimTime};
use simnet::outage::{Outage, OutageSchedule};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

const SEED: u64 = 2025;
const TASKLETS_PER_CORE: u64 = 50;
const SWEEP_CORES: [u32; 4] = [2_500, 5_000, 10_000, 20_000];
/// Fail the gate when a sweep point loses more than this fraction of its
/// baseline events/sec.
const MAX_REGRESSION: f64 = 0.20;

/// Allocation-counting wrapper around the system allocator: `current`
/// tracks live bytes, `peak` the high-water mark. The peak is the
/// benchmark's RSS proxy — it moves with the same data structures
/// (event queue, worker table, task ledger) that drive resident memory,
/// without depending on the platform's RSS accounting.
struct CountingAlloc;

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let now =
                CURRENT.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Reset the high-water mark to the current live size (call between
/// sweep points so each point reports its own peak).
fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[derive(Serialize)]
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

#[derive(Serialize)]
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

/// One sweep point of a committed BENCH_scale.json.
struct Baseline {
    cores: u32,
    events_per_sec: f64,
    peak_alloc_bytes: u64,
}

/// The sweep points of a committed BENCH_scale.json, if one exists and
/// parses.
fn read_baseline(path: &str) -> Vec<Baseline> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(v) = serde_json::from_str::<serde_json::Value>(&text) else {
        eprintln!("bench_scale: ignoring unparseable baseline {path}");
        return Vec::new();
    };
    use serde_json::Value;
    let num = |v: &Value| -> Option<f64> {
        match *v {
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            Value::F64(x) => Some(x),
            _ => None,
        }
    };
    let mut out = Vec::new();
    let points = v
        .as_object()
        .and_then(|fields| Value::get_field(fields, "points"))
        .and_then(|p| match p {
            Value::Array(items) => Some(items.as_slice()),
            _ => None,
        })
        .unwrap_or(&[]);
    for p in points {
        let Some(fields) = p.as_object() else {
            continue;
        };
        if let (Some(cores), Some(eps), Some(peak)) = (
            Value::get_field(fields, "cores").and_then(&num),
            Value::get_field(fields, "events_per_sec").and_then(&num),
            Value::get_field(fields, "peak_alloc_bytes").and_then(&num),
        ) {
            out.push(Baseline {
                cores: cores as u32,
                events_per_sec: eps,
                peak_alloc_bytes: peak as u64,
            });
        }
    }
    out
}

fn main() {
    let baseline = read_baseline("BENCH_scale.json");

    let mut points = Vec::new();
    for &cores in &SWEEP_CORES {
        let (cfg, params, wfs) = setup(cores);
        let workers = cfg.workers.target_cores / cfg.workers.cores_per_worker;
        let tasklets: u64 = wfs.iter().map(|w| w.n_tasklets()).sum();
        reset_peak();
        let started = std::time::Instant::now();
        let report = ClusterSim::run(cfg, params, wfs);
        let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
        let peak_alloc_bytes = PEAK.load(Ordering::Relaxed);

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

    // Regression gate: compare against the committed baseline.
    let mut failed = false;
    for old in &baseline {
        let Some(new) = result.points.iter().find(|p| p.cores == old.cores) else {
            continue;
        };
        let (cores, old_eps) = (old.cores, old.events_per_sec);
        if new.peak_alloc_bytes > old.peak_alloc_bytes {
            eprintln!(
                "bench_scale: REGRESSION at {cores} cores: peak heap {} B > baseline {} B",
                new.peak_alloc_bytes, old.peak_alloc_bytes
            );
            failed = true;
        }
        let floor = old_eps * (1.0 - MAX_REGRESSION);
        if new.events_per_sec < floor {
            eprintln!(
                "bench_scale: REGRESSION at {cores} cores: {:.0} ev/s < {:.0} ev/s \
                 (baseline {:.0} − {:.0}%)",
                new.events_per_sec,
                floor,
                old_eps,
                MAX_REGRESSION * 100.0
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
