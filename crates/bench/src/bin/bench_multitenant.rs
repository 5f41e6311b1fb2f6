//! Multi-tenant sweep — the `ci.sh` fairness and throughput gate.
//!
//! Sweeps the tenancy coordinator from 1 to 100 masters over one shared
//! opportunistic pool: every master runs the same fixed-seed simulation
//! campaign under equal fair-share weights, so Jain's index over
//! weight-normalised delivered CPU should stay near 1 at every point.
//!
//! Results go to `target/bench/BENCH_multitenant.json`; the committed
//! `BENCH_multitenant.json` is the baseline, read back as a
//! [`MultiTenantBench`] through [`lobster_bench::gate`]. Three gates,
//! each failing the run (exit 1):
//!
//! * **Fairness** — any contended point (≥2 tenants) whose Jain index
//!   falls below 0.9.
//! * **Throughput** — any point whose aggregate events/sec falls more
//!   than 20% below the baseline's.
//! * **Heap** — any point whose peak live heap (`peak_alloc_bytes`, from
//!   a counting global allocator: the most the run allocated and still
//!   held at once) is above the baseline's, exactly, as in
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
use lobster_bench::gate::{write_fresh_results, Gate};
use serde::{Deserialize, Serialize};
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

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Serialize, Deserialize)]
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

#[derive(Serialize, Deserialize)]
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

fn main() {
    alloc::set_counting(false);
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
        let ((), peak_alloc_bytes) = alloc::measure(|| {
            let roster: Vec<TenantSpec> = (0..n).map(tenant).collect();
            let single = MultiTenant::new(coordinator(), roster).expect("valid roster");
            drop(single.single_threaded().run().expect("in-memory run"));
        });

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

    let mut gate = Gate::new("bench_multitenant");
    let baseline: Option<MultiTenantBench> = gate.baseline("BENCH_multitenant.json");

    // Fairness gate: equal weights must split the pool evenly wherever
    // there is actual contention.
    for p in &result.points {
        gate.check(
            p.tenants < 2 || p.jain_fairness >= JAIN_FLOOR,
            format_args!(
                "UNFAIR at {} tenants: jain {:.4} < {JAIN_FLOOR}",
                p.tenants, p.jain_fairness
            ),
        );
    }
    for old in baseline.iter().flat_map(|b| &b.points) {
        let Some(new) = result.points.iter().find(|p| p.tenants == old.tenants) else {
            continue;
        };
        let at = old.tenants;
        gate.at_most(
            &format!("peak heap (B) at {at} tenants"),
            new.peak_alloc_bytes,
            old.peak_alloc_bytes,
        );
        gate.floor(
            &format!("events/s at {at} tenants"),
            new.events_per_sec,
            old.events_per_sec,
        );
    }
    gate.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_multitenant.json");
        let baseline = lobster_bench::gate::read_baseline::<MultiTenantBench>(path.as_ref())
            .expect("BENCH_multitenant.json parses as a MultiTenantBench")
            .expect("BENCH_multitenant.json is committed");
        assert_eq!(baseline.points.len(), SWEEP_TENANTS.len());
    }
}
