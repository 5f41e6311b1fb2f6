//! One running master: the only code that primes a [`ClusterSim`]
//! engine and decides how a run stopped.
//!
//! The paper's master is a long-lived process that is started, watched,
//! paused, killed and restarted from the Lobster DB (footnote 1, §5). A
//! [`Session`] is that process. Open it over a sim built by
//! [`ClusterSim::new`], [`ClusterSim::durable`] or [`ClusterSim::resume`],
//! step it with [`Session::advance`] as far as the caller likes — a
//! whole run, an ops poll window, a tenancy round, a crash budget — and
//! end it one of three ways: [`Session::finish`] harvests the report,
//! [`Session::pause`] takes a durable checkpoint, [`Session::crash`]
//! kills the master at a crash site. Slicing a run into any sequence of
//! `advance` calls delivers the same events in the same order as one
//! call, so the report is the same too.

use crate::driver::{ClusterSim, Ev, OpsStatus, RunReport};
use simkit::fault::CrashSite;
use simkit::prelude::*;
use std::io;

/// Why [`Session::advance`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// No event is left: the run is over.
    Drained,
    /// The next event fires after `until`.
    Horizon,
    /// The event budget ran out with an event still due by `until`.
    Budget,
}

/// A primed engine over one master.
pub struct Session {
    engine: Engine<ClusterSim>,
}

impl Session {
    /// Prime `sim`'s engine (on `sim.params.engine`) with its start event.
    pub fn start(sim: ClusterSim) -> Self {
        let kind = sim.params.engine;
        let mut engine = Engine::with_kind(sim, kind);
        engine.prime(SimDuration::ZERO, Ev::Start);
        Session { engine }
    }

    /// Deliver events due by `until`, at most `event_budget` of them,
    /// and say why delivery stopped. A budget spent on the very last
    /// event is [`Stop::Drained`], not [`Stop::Budget`].
    pub fn advance(&mut self, until: SimTime, event_budget: u64) -> Stop {
        self.engine.run_until_events(until, event_budget);
        match self.engine.ctx().peek_time() {
            None => Stop::Drained,
            Some(t) if t > until => Stop::Horizon,
            Some(_) => Stop::Budget,
        }
    }

    /// Time of the last delivered event.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Engine events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.engine.delivered()
    }

    /// The run's configured horizon, `SimTime::ZERO + params.horizon`.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.sim().params.horizon
    }

    /// The master.
    pub fn sim(&self) -> &ClusterSim {
        self.engine.model()
    }

    /// The master, for a coordinator's between-rounds writes (core cap,
    /// cache warmth).
    pub fn sim_mut(&mut self) -> &mut ClusterSim {
        self.engine.model_mut()
    }

    /// A live status sample for the ops plane.
    pub fn status(&self) -> OpsStatus {
        self.sim().ops_status(self.now(), self.delivered())
    }

    /// End the run here and harvest its report (a durability boundary:
    /// the open group-commit window is flushed).
    pub fn finish(self) -> RunReport {
        let (ended_at, delivered) = (self.now(), self.delivered());
        self.engine.into_model().into_report(ended_at, delivered)
    }

    /// End the run here with a durable checkpoint: every shard and
    /// `master.wal` is compacted into one snapshot frame, the WAL v3
    /// recovery fast path, so [`ClusterSim::resume`] continues from
    /// exactly this state. Fails with `InvalidInput` on an in-memory
    /// sim, which has nothing to resume from.
    pub fn pause(self) -> io::Result<()> {
        let mut sim = self.engine.into_model();
        if !sim.db.is_journaled() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "pause needs a journaled run (ClusterSim::durable or resume)",
            ));
        }
        sim.db.compact()
    }

    /// Kill the master here, dropping all in-memory state. How much of
    /// the open group-commit window survives is the site's call: a
    /// boundary crash flushes it, an in-window crash loses it.
    pub fn crash(self, site: CrashSite) {
        let mut sim = self.engine.into_model();
        match site {
            CrashSite::CommitBoundary => sim.db.flush(),
            CrashSite::InsideCommitWindow => sim.db.crash(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LobsterConfig;
    use crate::driver::tests::small_setup;
    use crate::driver::SimParams;
    use crate::merge::MergeMode;
    use crate::workflow::Workflow;
    use batchsim::availability::AvailabilityModel;
    use simnet::outage::OutageSchedule;

    /// One-file tasks under evictions: about 5k events, and the event
    /// queue drains well inside the horizon.
    fn setup() -> (LobsterConfig, SimParams, Vec<Workflow>) {
        let evicting = AvailabilityModel::notre_dame();
        let (mut cfg, params, wfs) = small_setup(
            MergeMode::Interleaved,
            evicting,
            OutageSchedule::none(),
            400,
        );
        cfg.workflows[0].tasklets_per_task = 1;
        (cfg, params, wfs)
    }

    fn session() -> Session {
        let (cfg, params, wfs) = setup();
        Session::start(ClusterSim::new(cfg, params, wfs))
    }

    /// The run's `metrics.json`: counters, accounting, time lines, dead
    /// letters, dashboard, end time and event count.
    fn trace(report: &RunReport) -> String {
        let (cfg, params, _) = setup();
        crate::ops::snapshot_from_run("session", &cfg, &params, report).to_json()
    }

    fn in_event_slices(events: u64) -> RunReport {
        let mut s = session();
        while s.advance(s.horizon(), events) == Stop::Budget {}
        s.finish()
    }

    fn in_time_slices(step: SimDuration) -> RunReport {
        let mut s = session();
        let mut until = SimTime::ZERO;
        while until <= s.horizon() && s.advance(until, u64::MAX) != Stop::Drained {
            until += step;
        }
        s.finish()
    }

    #[test]
    fn slicing_a_run_does_not_change_it() {
        let (cfg, params, wfs) = setup();
        let reference = ClusterSim::run(cfg, params, wfs);
        assert!(reference.finished_at.is_some(), "{reference:?}");
        assert!(
            reference.events_delivered > 4096,
            "the largest slice must cut the run"
        );
        let expected = trace(&reference);
        let mut whole = session();
        assert_eq!(whole.advance(whole.horizon(), u64::MAX), Stop::Drained);
        assert_eq!(trace(&whole.finish()), expected, "one advance");
        for events in [1, 7, 4096] {
            let report = in_event_slices(events);
            assert_eq!(trace(&report), expected, "{events}-event slices");
        }
        let report = in_time_slices(SimDuration::from_mins(5));
        assert_eq!(trace(&report), expected, "5-minute slices");
    }

    #[test]
    fn stop_reasons_at_the_boundaries() {
        let mut whole = session();
        whole.advance(whole.horizon(), u64::MAX);
        let n = whole.delivered();

        // A budget spent on the very last event still drained the run.
        let mut s = session();
        assert_eq!(s.advance(s.horizon(), n), Stop::Drained);
        assert_eq!(s.delivered(), n);

        // A zero budget delivers nothing, even with an event due.
        let mut s = session();
        assert_eq!(s.advance(s.horizon(), 0), Stop::Budget);
        assert_eq!(s.delivered(), 0);

        // Events exactly at `until` are delivered; the next one, later
        // than `until`, is a horizon stop.
        let mut s = session();
        assert_eq!(s.advance(s.horizon(), 100), Stop::Budget);
        let at = s.now();
        let mut t = session();
        assert_eq!(t.advance(at, u64::MAX), Stop::Horizon);
        assert_eq!(t.now(), at);
        assert!(t.delivered() >= 100, "{} events by {at:?}", t.delivered());
        assert_eq!(s.advance(at, u64::MAX), Stop::Horizon);
        assert_eq!(s.delivered(), t.delivered());
        assert_eq!(t.status().events_delivered, t.delivered());
    }

    #[test]
    fn pause_refuses_an_in_memory_run() {
        let mut s = session();
        s.advance(s.horizon(), 100);
        let err = s.pause().expect_err("nothing to resume from");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
