//! Differential trace tests for the event-engine backends.
//!
//! The calendar queue (`EngineKind::Calendar`) replaced the original
//! `BinaryHeap` engine on the hot path; the heap survives as
//! `EngineKind::ReferenceHeap` precisely so this file can pin the two
//! against each other. Each test runs the *same* seeded cluster campaign
//! on both backends and demands byte-identical serialised traces plus
//! identical run reports. Any divergence — a different tie-break at equal
//! timestamps, a dropped cancellation, a cursor bug around bucket or
//! round boundaries — shows up as a digest mismatch naming the exact
//! (seed, faults, foremen) cell that broke.

use batchsim::availability::AvailabilityModel;
use batchsim::pool::PoolConfig;
use lobster::config::{LobsterConfig, WorkflowConfig};
use lobster::driver::{ClusterSim, SimParams};
use lobster::fault::{Fault, FaultPlan, FaultTarget};
use lobster::ops::run_trace;
use lobster::workflow::Workflow;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::fnv1a;
use simkit::EngineKind;
use simnet::outage::{Outage, OutageSchedule};

/// Key report fields compared directly (on top of the byte comparison) so
/// a failure names the first field that diverged.
#[derive(Debug, PartialEq)]
struct ReportFacts {
    tasks_completed: u64,
    tasks_failed: u64,
    evictions: u64,
    merges_completed: u64,
    finished_at: Option<SimTime>,
    events_delivered: u64,
}

/// Run one small seeded campaign on the requested engine backend and
/// return the serialised trace bytes plus the comparable report facts.
fn campaign(seed: u64, faults: bool, foremen: u32, engine: EngineKind) -> (Vec<u8>, ReportFacts) {
    let mut cfg = LobsterConfig::default();
    cfg.workers.target_cores = 32;
    cfg.workers.cores_per_worker = 4;
    cfg.infra.n_foremen = foremen;
    cfg.seed = seed;
    cfg.workflows = vec![WorkflowConfig::simulation("diff")];
    let wf = Workflow::simulation(&cfg.workflows[0], 48, 2_000_000);

    let mut params = SimParams {
        horizon: SimDuration::from_hours(200),
        engine,
        ..SimParams::default()
    };
    if faults {
        // Stochastic evictions, owner pressure, and a squid blackout
        // window: every cancellation path and retry timer gets exercised,
        // and every random draw must come from the seeded stream.
        params.availability = AvailabilityModel::Exponential {
            mean: SimDuration::from_hours(4),
        };
        params.pool = PoolConfig {
            total_cores: 64,
            owner_mean: 5.0,
            reversion: 0.1,
            noise: 0.25,
            tick: SimDuration::from_mins(5),
        };
        params.faults = FaultPlan::new(vec![Fault::new(
            FaultTarget::Squid { index: 0 },
            OutageSchedule::new(vec![Outage::blackout(
                SimTime::ZERO + SimDuration::from_mins(30),
                SimTime::ZERO + SimDuration::from_mins(90),
            )]),
        )]);
    } else {
        params.availability = AvailabilityModel::Dedicated;
        params.pool = PoolConfig {
            total_cores: 64,
            owner_mean: 0.0,
            reversion: 0.1,
            noise: 0.0,
            tick: SimDuration::from_mins(5),
        };
    }

    let report = ClusterSim::run(cfg, params, vec![wf]);
    let facts = ReportFacts {
        tasks_completed: report.tasks_completed,
        tasks_failed: report.tasks_failed,
        evictions: report.evictions,
        merges_completed: report.merges_completed,
        finished_at: report.finished_at,
        events_delivered: report.events_delivered,
    };
    (run_trace(&report), facts)
}

/// Compare one (seed, faults, foremen) cell across both backends.
fn assert_cell_identical(seed: u64, faults: bool, foremen: u32) {
    let (bytes_cal, facts_cal) = campaign(seed, faults, foremen, EngineKind::Calendar);
    let (bytes_heap, facts_heap) = campaign(seed, faults, foremen, EngineKind::ReferenceHeap);
    assert!(!bytes_cal.is_empty());
    assert!(
        facts_cal.tasks_completed > 0,
        "campaign (seed={seed}) did no work — the diff would be vacuous"
    );
    assert_eq!(
        facts_cal, facts_heap,
        "run reports diverged (seed={seed}, faults={faults}, foremen={foremen})"
    );
    assert_eq!(
        fnv1a(&bytes_cal),
        fnv1a(&bytes_heap),
        "trace digests diverged (seed={seed}, faults={faults}, foremen={foremen})"
    );
    assert_eq!(
        bytes_cal, bytes_heap,
        "traces not byte-identical (seed={seed}, faults={faults}, foremen={foremen})"
    );
}

const SEEDS: [u64; 8] = [1, 7, 42, 1337, 4242, 90210, 271828, 3141592];

/// Fault-free campaigns: the pure dispatch/merge event flow, across the
/// full seed set and all three foreman fan-outs.
#[test]
fn calendar_matches_heap_without_faults() {
    for &seed in &SEEDS {
        for foremen in [1u32, 4, 16] {
            assert_cell_identical(seed, false, foremen);
        }
    }
}

/// Faulted campaigns: evictions cancel in-flight timers, the squid
/// blackout trips retry/backoff scheduling, owner demand churns the pool.
/// This is where a tombstone or cancellation bug in either backend would
/// surface as divergent event order.
#[test]
fn calendar_matches_heap_with_faults() {
    for &seed in &SEEDS {
        for foremen in [1u32, 4, 16] {
            assert_cell_identical(seed, true, foremen);
        }
    }
}

/// The production default is the calendar queue; the differential tests
/// above would silently compare heap-vs-heap if the default regressed.
#[test]
fn default_engine_is_calendar() {
    assert_eq!(SimParams::default().engine, EngineKind::Calendar);
    assert_ne!(EngineKind::Calendar, EngineKind::ReferenceHeap);
}
