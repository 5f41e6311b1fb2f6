//! Multi-tenant sweep — the `ci.sh` fairness and throughput gate.
//!
//! Sweeps the tenancy coordinator from 1 to 100 masters over one shared
//! opportunistic pool: every master runs the same fixed-seed simulation
//! campaign under equal fair-share weights, so Jain's index over
//! weight-normalised delivered CPU should stay near 1 at every point.
//!
//! Results go to `target/bench/BENCH_multitenant.json`; the committed
//! `BENCH_multitenant.json` is the baseline and no run rewrites it (see
//! [`lobster_bench::write_fresh_results`]). Two gates:
//!
//! * **Fairness** — any contended point (≥2 tenants) whose Jain index
//!   falls below 0.9 fails the run (exit 1).
//! * **Throughput** — if the committed baseline is present, any point
//!   whose aggregate events/sec regresses by more than 20% fails.
//! * **Heap** — any point whose peak live heap (`peak_alloc_bytes`, from
//!   a counting global allocator: the most the run allocated and still
//!   held at once) is above the baseline's fails, exactly, as in
//!   `bench_scale`. The peak is read from one more run of the point
//!   stepped on the calling thread alone: a fanned-out run's peak moves
//!   by a few hundred bytes with how the threads' allocations interleave,
//!   while a single-threaded one depends on the code and the seed only.
//!   The timed repeats run with counting off, because two threads
//!   updating the shared counters on every allocation slowed the
//!   fanned-out points.

use batchsim::arbiter::ArbiterConfig;
use batchsim::pool::PoolConfig;
use lobster::config::{LobsterConfig, WorkflowConfig};
use lobster::driver::SimParams;
use lobster::workflow::Workflow;
use lobster_bench::alloc::{self, CountingAlloc};
use lobster_bench::write_fresh_results;
use serde::Serialize;
use simkit::time::SimDuration;
use tenancy::{MultiTenant, TenancyConfig, TenantSpec};

const SEED: u64 = 4097;
const TASKLETS_PER_TENANT: u64 = 200;
const SWEEP_TENANTS: [usize; 7] = [1, 2, 5, 10, 25, 50, 100];
/// Runs per sweep point; the fastest wall time wins. Small points finish
/// in milliseconds, where single-shot timing noise would flap the
/// regression gate.
const REPEATS: u32 = 5;
/// Contended sweep points must keep Jain's index above this floor.
const JAIN_FLOOR: f64 = 0.9;
/// Fail the gate when a sweep point loses more than this fraction of its
/// baseline events/sec.
const MAX_REGRESSION: f64 = 0.20;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Serialize)]
struct SweepPoint {
    tenants: usize,
    tasklets_per_tenant: u64,
    rounds: u64,
    jain_fairness: f64,
    tasks_completed: u64,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    peak_alloc_bytes: u64,
}

#[derive(Serialize)]
struct MultiTenantBench {
    seed: u64,
    pool_cores: u32,
    points: Vec<SweepPoint>,
}

/// The one shared pool every sweep point contends for: 1024 cores with a
/// mean-reverting owner walk eating ~6% of them.
fn coordinator() -> TenancyConfig {
    TenancyConfig {
        pool: PoolConfig {
            total_cores: 1024,
            owner_mean: 64.0,
            reversion: 0.2,
            noise: 16.0,
            tick: SimDuration::from_mins(5),
        },
        round: SimDuration::from_mins(5),
        arbiter: ArbiterConfig::default(),
        horizon: SimDuration::from_hours(96),
        seed: SEED,
    }
}

/// One tenant's master: a fixed-size simulation campaign whose seed (and
/// therefore event stream) differs per tenant, with equal weights so the
/// arbiter's split should be even.
fn tenant(i: usize) -> TenantSpec {
    let mut cfg = LobsterConfig::default();
    cfg.workflows = vec![WorkflowConfig::simulation("mt-gen")];
    cfg.workers.target_cores = 64;
    cfg.workers.cores_per_worker = 4;
    cfg.seed = SEED ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let wf = Workflow::simulation(&cfg.workflows[0], TASKLETS_PER_TENANT, 0);
    TenantSpec {
        name: format!("tenant-{i:03}"),
        weight: 1.0,
        cfg,
        params: SimParams::default(),
        workflows: vec![wf],
    }
}

/// One sweep point of a committed BENCH_multitenant.json.
struct Baseline {
    tenants: usize,
    events_per_sec: f64,
    peak_alloc_bytes: u64,
}

/// The sweep points of a committed BENCH_multitenant.json, if one exists
/// and parses.
fn read_baseline(path: &str) -> Vec<Baseline> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(v) = serde_json::from_str::<serde_json::Value>(&text) else {
        eprintln!("bench_multitenant: ignoring unparseable baseline {path}");
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
        if let (Some(tenants), Some(eps), Some(peak)) = (
            Value::get_field(fields, "tenants").and_then(&num),
            Value::get_field(fields, "events_per_sec").and_then(&num),
            Value::get_field(fields, "peak_alloc_bytes").and_then(&num),
        ) {
            out.push(Baseline {
                tenants: tenants as usize,
                events_per_sec: eps,
                peak_alloc_bytes: peak as u64,
            });
        }
    }
    out
}

fn main() {
    alloc::set_counting(false);
    let baseline = read_baseline("BENCH_multitenant.json");

    let mut points = Vec::new();
    for &n in &SWEEP_TENANTS {
        let mut report = None;
        let mut wall_secs = f64::INFINITY;
        for _ in 0..REPEATS {
            let roster: Vec<TenantSpec> = (0..n).map(tenant).collect();
            let mt = MultiTenant::new(coordinator(), roster).expect("valid roster");
            let started = std::time::Instant::now();
            let rep = mt.run().expect("in-memory run cannot fail on i/o");
            let wall = started.elapsed().as_secs_f64().max(1e-9);
            if wall < wall_secs {
                wall_secs = wall;
                report = Some(rep);
            }
        }
        let report = report.expect("REPEATS >= 1");
        alloc::set_counting(true);
        alloc::reset_peak();
        let before = alloc::current();
        let roster: Vec<TenantSpec> = (0..n).map(tenant).collect();
        let single = MultiTenant::new(coordinator(), roster).expect("valid roster");
        drop(single.single_threaded().run().expect("in-memory run"));
        let peak_alloc_bytes = alloc::peak() - before;
        alloc::set_counting(false);

        for t in &report.tenants {
            if t.report.finished_at.is_none() {
                eprintln!(
                    "bench_multitenant: tenant {} of the {n}-tenant point did not finish",
                    t.name
                );
                std::process::exit(1);
            }
        }
        let events: u64 = report
            .tenants
            .iter()
            .map(|t| t.report.events_delivered)
            .sum();
        let tasks_completed: u64 = report
            .tenants
            .iter()
            .map(|t| t.report.tasks_completed)
            .sum();
        let point = SweepPoint {
            tenants: n,
            tasklets_per_tenant: TASKLETS_PER_TENANT,
            rounds: report.rounds,
            jain_fairness: report.jain_fairness,
            tasks_completed,
            events,
            wall_secs,
            events_per_sec: events as f64 / wall_secs,
            peak_alloc_bytes,
        };
        eprintln!(
            "[{n:>3} tenants] {:>8} events in {wall_secs:>7.3}s  ({:>9.0} ev/s, peak alloc {:.2} MiB, jain {:.4}, {} rounds, {} fanned out)",
            point.events,
            point.events_per_sec,
            peak_alloc_bytes as f64 / (1024.0 * 1024.0),
            point.jain_fairness,
            point.rounds,
            report.fanned_out_rounds,
        );
        points.push(point);
    }

    let result = MultiTenantBench {
        seed: SEED,
        pool_cores: coordinator().pool.total_cores,
        points,
    };
    let json = serde_json::to_string_pretty(&result).expect("serialises");
    let out_path = write_fresh_results("BENCH_multitenant.json", &json).expect("writable target/");
    println!("== bench_multitenant (seed {SEED}, {TASKLETS_PER_TENANT} tasklets/tenant) ==");
    println!("{json}");
    println!("wrote {}", out_path.display());

    // Fairness gate: equal weights must split the pool evenly wherever
    // there is actual contention.
    let mut failed = false;
    for p in &result.points {
        if p.tenants >= 2 && p.jain_fairness < JAIN_FLOOR {
            eprintln!(
                "bench_multitenant: UNFAIR at {} tenants: jain {:.4} < {JAIN_FLOOR}",
                p.tenants, p.jain_fairness
            );
            failed = true;
        }
    }

    // Regression gate: compare against the committed baseline.
    for old in &baseline {
        let Some(new) = result.points.iter().find(|p| p.tenants == old.tenants) else {
            continue;
        };
        let (tenants, old_eps) = (old.tenants, old.events_per_sec);
        if new.peak_alloc_bytes > old.peak_alloc_bytes {
            eprintln!(
                "bench_multitenant: REGRESSION at {tenants} tenants: peak heap {} B > baseline {} B",
                new.peak_alloc_bytes, old.peak_alloc_bytes
            );
            failed = true;
        }
        let floor = old_eps * (1.0 - MAX_REGRESSION);
        if new.events_per_sec < floor {
            eprintln!(
                "bench_multitenant: REGRESSION at {tenants} tenants: {:.0} ev/s < {:.0} ev/s \
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
