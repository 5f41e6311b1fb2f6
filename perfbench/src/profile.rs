//! The benchmark's drive loop and the per-`Ev` handler profiler.
//!
//! [`primed`], [`crash_leg`] and [`harvest`] are the benchmark's copy of
//! the driver's private `drive`/`drive_until_crash` loops, written over
//! the public `Engine` API so the benchmark can time each step and wrap
//! the model in [`Profiled`]. `tests/drive.rs` pins this copy to
//! `ClusterSim::run` and `ClusterSim::run_durable_until_crash`.

use lobster::driver::{ClusterSim, Ev, RunReport};
use simkit::engine::{Ctx, Engine, EngineKind, Model};
use simkit::time::{SimDuration, SimTime};
use std::time::Instant;

/// Names of the driver's event variants, indexed by [`ev_index`].
pub const EV_NAMES: [&str; 20] = [
    "Start",
    "PoolTick",
    "Replenish",
    "WorkerArrive",
    "WorkerEvict",
    "Dispatch",
    "SandboxDone",
    "SandboxBatch",
    "SquidWake",
    "FedWake",
    "OutageWake",
    "FaultWake",
    "DataStaged",
    "ExecDone",
    "StageOutDone",
    "CollectDone",
    "HadoopGroupDone",
    "SlotFree",
    "Deadline",
    "Requeue",
];

/// Position of `ev`'s variant in [`EV_NAMES`]. The match is exhaustive,
/// so a new driver event fails to compile here until it is named.
pub fn ev_index(ev: &Ev) -> usize {
    match ev {
        Ev::Start => 0,
        Ev::PoolTick => 1,
        Ev::Replenish => 2,
        Ev::WorkerArrive => 3,
        Ev::WorkerEvict(_) => 4,
        Ev::Dispatch => 5,
        Ev::SandboxDone(..) => 6,
        Ev::SandboxBatch(_) => 7,
        Ev::SquidWake(_) => 8,
        Ev::FedWake => 9,
        Ev::OutageWake => 10,
        Ev::FaultWake => 11,
        Ev::DataStaged(..) => 12,
        Ev::ExecDone(..) => 13,
        Ev::StageOutDone(..) => 14,
        Ev::CollectDone(..) => 15,
        Ev::HadoopGroupDone(_) => 16,
        Ev::SlotFree(_) => 17,
        Ev::Deadline(..) => 18,
        Ev::Requeue(_) => 19,
    }
}

/// Handler counts and summed handler wall time per event variant, plus
/// the event queue's high-water marks sampled after every event.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HandlerStats {
    pub n: [u64; EV_NAMES.len()],
    pub ns: [u64; EV_NAMES.len()],
    pub queue_hw: usize,
    pub tombstone_hw: usize,
}

impl HandlerStats {
    /// Events handled.
    pub fn events(&self) -> u64 {
        self.n.iter().sum()
    }

    /// Summed handler time in seconds.
    pub fn handler_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Fold another leg's stats into this one.
    pub fn merge(&mut self, other: &HandlerStats) {
        for k in 0..EV_NAMES.len() {
            self.n[k] += other.n[k];
            self.ns[k] += other.ns[k];
        }
        self.queue_hw = self.queue_hw.max(other.queue_hw);
        self.tombstone_hw = self.tombstone_hw.max(other.tombstone_hw);
    }
}

/// `ClusterSim` with each `handle` call timed per event variant. The
/// wall clock lives here, in the benchmark, never in the simulation
/// crates.
pub struct Profiled {
    sim: ClusterSim,
    stats: HandlerStats,
}

impl Model for Profiled {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<Ev>) {
        let k = ev_index(&ev);
        let started = Instant::now();
        self.sim.handle(ev, ctx);
        self.stats.ns[k] += started.elapsed().as_nanos() as u64;
        self.stats.n[k] += 1;
        self.stats.queue_hw = self.stats.queue_hw.max(ctx.pending());
        self.stats.tombstone_hw = self.stats.tombstone_hw.max(ctx.tombstones());
    }
}

/// The model a drive loop runs: the plain driver or the profiled one.
pub trait Driver: Model<Event = Ev> + Sized {
    fn wrap(sim: ClusterSim) -> Self;
    /// The driver back, with the stats gathered (empty when unprofiled).
    fn unwrap(self) -> (ClusterSim, HandlerStats);
}

impl Driver for ClusterSim {
    fn wrap(sim: ClusterSim) -> Self {
        sim
    }

    fn unwrap(self) -> (ClusterSim, HandlerStats) {
        (self, HandlerStats::default())
    }
}

impl Driver for Profiled {
    fn wrap(sim: ClusterSim) -> Self {
        Profiled {
            sim,
            stats: HandlerStats::default(),
        }
    }

    fn unwrap(self) -> (ClusterSim, HandlerStats) {
        (self.sim, self.stats)
    }
}

/// An engine over `sim` with the kick-off event queued.
pub fn primed<D: Driver>(sim: ClusterSim, kind: EngineKind) -> Engine<D> {
    let mut engine = Engine::with_kind(D::wrap(sim), kind);
    engine.prime(SimDuration::ZERO, Ev::Start);
    engine
}

/// What a crash leg did.
pub struct CrashLeg {
    /// The crash landed mid-flight; `false` when the run drained first
    /// (the driver is dropped all the same).
    pub mid_flight: bool,
    /// Events delivered before the crash.
    pub delivered: u64,
    pub stats: HandlerStats,
}

/// Run at most `after_events` more events, then kill the master inside
/// its open group-commit window.
pub fn crash_leg<D: Driver>(
    mut engine: Engine<D>,
    deadline: SimTime,
    after_events: u64,
) -> CrashLeg {
    engine.run_until_events(deadline, after_events);
    let mid_flight = engine.ctx().peek_time().is_some_and(|t| t <= deadline);
    let delivered = engine.ctx().delivered();
    let (sim, stats) = engine.into_model().unwrap();
    if mid_flight {
        sim.crash_now();
    }
    CrashLeg {
        mid_flight,
        delivered,
        stats,
    }
}

/// Harvest the report of an engine whose run ended at `ended_at`.
pub fn harvest<D: Driver>(mut engine: Engine<D>, ended_at: SimTime) -> (RunReport, HandlerStats) {
    let delivered = engine.ctx().delivered();
    let (sim, stats) = engine.into_model().unwrap();
    (sim.into_report(ended_at, delivered), stats)
}
