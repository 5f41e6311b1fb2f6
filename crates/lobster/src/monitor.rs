//! Monitoring, accounting and troubleshooting (§5).
//!
//! Every wrapper attempt produces a [`SegmentReport`]. [`Monitor`] is the
//! one diagnostic sink that ingests them, through one
//! [`Monitor::record`] on both the live path and the journal-replay
//! path. It owns:
//!
//! * [`Timeline`] — the per-time-bin series of Figures 10 and 11
//!   (concurrent tasks, completions, failures, CPU/wall efficiency,
//!   setup and stage-out times);
//! * [`Advisor`] — the §5 diagnosis rules, mapping metric pathologies to
//!   operator advice (task size too high → eviction losses; slow sandbox
//!   stage-in → more foremen; long setup → overloaded squid; long
//!   stage-in/out → overloaded chirp);
//! * [`SegmentHistograms`] — the §5 per-segment duration histograms;
//! * the analysis and merge completion series of Figure 7.
//!
//! The monitor is diagnostic state only: it is not journaled, and a
//! resumed master refills it from the attempts replayed off the journal
//! tail. What must survive a crash — the Figure 8 [`Accounting`], the run
//! counters and the dead-letter ledger — is journaled in the Lobster DB
//! ([`crate::db`]), which folds every attempt into its own [`Accounting`].

use crate::wrapper::{Segment, SegmentReport};
use serde::{Deserialize, Serialize};
use simkit::stats::{Histogram, TimeSeries};
use simkit::time::{SimDuration, SimTime};
use wqueue::task::{Category, FailureCode};

/// The run's one diagnostic sink: every attempt report goes through
/// [`Monitor::record`], and the two events that are not attempts (a
/// Hadoop merge group finishing, a task being dead-lettered) through
/// their point marks.
#[derive(Clone, Debug)]
pub struct Monitor {
    pub(crate) timeline: Timeline,
    pub(crate) advisor: Advisor,
    pub(crate) segments: SegmentHistograms,
    pub(crate) analysis_done: TimeSeries,
    pub(crate) merge_done: TimeSeries,
}

impl Monitor {
    /// Empty monitor whose time lines use bins of width `bin`.
    pub fn new(bin: SimDuration) -> Self {
        Monitor {
            timeline: Timeline::new(bin),
            advisor: Advisor::new(),
            segments: SegmentHistograms::new(),
            analysis_done: TimeSeries::new(bin),
            merge_done: TimeSeries::new(bin),
        }
    }

    /// Ingest one attempt. A successful attempt also marks the
    /// completion series of its category at its finish instant.
    pub fn record(&mut self, r: &SegmentReport) {
        self.timeline.record(r);
        self.advisor.record(r);
        self.segments.record(r);
        if r.is_success() {
            if r.category == Category::Merge {
                self.merge_done.mark(r.finished_at);
            } else {
                self.analysis_done.mark(r.finished_at);
            }
        }
    }

    /// Mark a merge that ran outside any attempt (a Hadoop merge group).
    pub fn mark_merge(&mut self, at: SimTime) {
        self.merge_done.mark(at);
    }

    /// Mark a task landing in the dead-letter ledger at `at`.
    pub fn record_dead_letter(&mut self, at: SimTime) {
        self.timeline.record_dead_letter(at);
    }
}

/// Figure 8: cumulative runtime by phase.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Accounting {
    /// CPU hours inside successful task attempts.
    pub cpu: f64,
    /// I/O hours inside successful attempts (env setup + stage-in +
    /// stream stalls + stage-out).
    pub io: f64,
    /// Hours consumed by failed or evicted attempts.
    pub failed: f64,
    /// Work Queue sandbox/input transfer hours.
    pub wq_stage_in: f64,
    /// Work Queue result collection hours.
    pub wq_stage_out: f64,
    /// Attempts that were retries (attempt number > 0).
    pub retries: u64,
    /// Attempts killed by a segment watchdog deadline.
    pub watchdog_aborts: u64,
    /// Tasks that exhausted their retry budget.
    pub dead_lettered: u64,
    /// Hours spent waiting in retry/slot-hold backoff.
    pub backoff_hours: f64,
}

impl Accounting {
    /// Ingest one attempt.
    pub fn record(&mut self, r: &SegmentReport) {
        let h = |d: SimDuration| d.as_hours_f64();
        if r.attempt > 0 {
            self.retries += 1;
        }
        if r.watchdog {
            self.watchdog_aborts += 1;
        }
        if r.is_success() {
            self.cpu += h(r.times.cpu);
            self.io += h(r.times.env_setup)
                + h(r.times.stage_in)
                + h(r.times.io_wait)
                + h(r.times.stage_out);
            self.wq_stage_in += h(r.times.wq_stage_in);
            self.wq_stage_out += h(r.times.wq_stage_out);
        } else {
            self.failed += h(r.wall());
        }
    }

    /// Record time spent in a backoff wait (slot hold or requeue delay).
    pub fn record_backoff(&mut self, d: SimDuration) {
        self.backoff_hours += d.as_hours_f64();
    }

    /// Record a task landing in the dead-letter ledger.
    pub fn record_dead_letter(&mut self) {
        self.dead_lettered += 1;
    }

    /// Total hours across all phases.
    pub fn total(&self) -> f64 {
        self.cpu + self.io + self.failed + self.wq_stage_in + self.wq_stage_out
    }

    /// The Figure 8 table: `(phase, hours, fraction)` rows in paper order.
    pub fn table(&self) -> Vec<(&'static str, f64, f64)> {
        let total = self.total().max(f64::MIN_POSITIVE);
        [
            ("Task CPU Time", self.cpu),
            ("Task I/O Time", self.io),
            ("Task Failed", self.failed),
            ("WQ Stage In", self.wq_stage_in),
            ("WQ Stage Out", self.wq_stage_out),
        ]
        .into_iter()
        .map(|(name, hours)| (name, hours, hours / total))
        .collect()
    }
}

/// Figures 10/11: the run's time evolution, binned.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// Task-seconds present per bin (concurrency = sum / bin width).
    occupancy: TimeSeries,
    /// CPU-seconds accrued per bin.
    cpu: TimeSeries,
    /// Completions per bin.
    completed: TimeSeries,
    /// Failures per bin.
    failed: TimeSeries,
    /// Environment setup minutes, recorded at attempt finish.
    setup_mins: TimeSeries,
    /// Stage-out minutes, recorded at attempt finish.
    stageout_mins: TimeSeries,
    /// Failure codes per bin, for the Figure 11 bottom panel.
    failures_by_code: Vec<(SimTime, FailureCode)>,
    /// Watchdog aborts with the segment whose deadline fired.
    watchdog_aborts: Vec<(SimTime, Segment)>,
    /// Dead-lettered tasks per bin.
    dead_lettered: TimeSeries,
}

impl Timeline {
    /// Timeline with the given bin width.
    pub fn new(bin: SimDuration) -> Self {
        Timeline {
            occupancy: TimeSeries::new(bin),
            cpu: TimeSeries::new(bin),
            completed: TimeSeries::new(bin),
            failed: TimeSeries::new(bin),
            setup_mins: TimeSeries::new(bin),
            stageout_mins: TimeSeries::new(bin),
            failures_by_code: Vec::new(),
            watchdog_aborts: Vec::new(),
            dead_lettered: TimeSeries::new(bin),
        }
    }

    /// Ingest one attempt.
    pub fn record(&mut self, r: &SegmentReport) {
        let (start, end) = (r.dispatched_at, r.finished_at.max(r.dispatched_at));
        let wall = (end - start).as_secs_f64();
        if wall > 0.0 {
            self.occupancy.record_spread(start, end, wall);
            // An evicted attempt reports its *planned* CPU; only the part
            // that fit inside the attempt's wall-clock actually ran.
            let cpu = r.times.cpu.as_secs_f64().min(wall);
            self.cpu.record_spread(start, end, cpu);
        }
        if r.is_success() {
            self.completed.mark(end);
            self.setup_mins.record(end, r.times.env_setup.as_mins_f64());
            self.stageout_mins
                .record(end, r.times.stage_out.as_mins_f64());
        } else {
            self.failed.mark(end);
            if let Some(code) = r.failure_code() {
                self.failures_by_code.push((end, code));
            }
            if let Some(seg) = r.failed_segment.filter(|_| r.watchdog) {
                self.watchdog_aborts.push((end, seg));
            }
        }
    }

    /// Record a task landing in the dead-letter ledger at `at`.
    pub fn record_dead_letter(&mut self, at: SimTime) {
        self.dead_lettered.mark(at);
    }

    /// Bin width.
    pub fn bin(&self) -> SimDuration {
        self.occupancy.width()
    }

    /// Mean concurrent tasks per bin (Fig. 10/11 top panel).
    pub fn concurrency(&self) -> Vec<f64> {
        let w = self.occupancy.width().as_secs_f64();
        self.occupancy.sums().iter().map(|s| s / w).collect()
    }

    /// Completions per bin.
    pub fn completions(&self) -> Vec<f64> {
        self.completed.sums()
    }

    /// Failures per bin.
    pub fn failures(&self) -> Vec<f64> {
        self.failed.sums()
    }

    /// CPU/wall efficiency per bin (Fig. 10 bottom panel).
    pub fn efficiency(&self) -> Vec<f64> {
        self.cpu
            .sums()
            .iter()
            .zip(self.occupancy.sums())
            .map(|(c, o)| if o > 0.0 { c / o } else { 0.0 })
            .collect()
    }

    /// Mean environment-setup minutes per bin (Fig. 11 second panel).
    pub fn setup_minutes(&self) -> Vec<f64> {
        self.setup_mins.means()
    }

    /// Mean stage-out minutes per bin (Fig. 11 third panel).
    pub fn stageout_minutes(&self) -> Vec<f64> {
        self.stageout_mins.means()
    }

    /// Failure events with codes (Fig. 11 bottom panel).
    pub fn failure_events(&self) -> &[(SimTime, FailureCode)] {
        &self.failures_by_code
    }

    /// Watchdog-abort events with the segment whose deadline fired.
    pub fn watchdog_events(&self) -> &[(SimTime, Segment)] {
        &self.watchdog_aborts
    }

    /// Dead-lettered tasks per bin.
    pub fn dead_letters(&self) -> Vec<f64> {
        self.dead_lettered.sums()
    }
}

/// Per-segment duration histograms (§5: "All of these records are stored
/// in the Lobster DB, so that it becomes easy to generate histograms and
/// time lines showing the distribution of behavior at each stage of the
/// execution").
#[derive(Clone, Debug)]
pub struct SegmentHistograms {
    /// Queueing delay before dispatch (minutes).
    pub queued: Histogram,
    /// Sandbox/input transfer (minutes).
    pub wq_stage_in: Histogram,
    /// Environment setup (minutes).
    pub env_setup: Histogram,
    /// Input stage-in (minutes).
    pub stage_in: Histogram,
    /// Application CPU time (minutes).
    pub cpu: Histogram,
    /// Streaming stalls (minutes).
    pub io_wait: Histogram,
    /// Output stage-out (minutes).
    pub stage_out: Histogram,
    /// Total attempt wall-clock (minutes).
    pub wall: Histogram,
}

impl Default for SegmentHistograms {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentHistograms {
    /// Histograms sized for typical HEP task attempts (0–4 h, 48 bins).
    pub fn new() -> Self {
        let mk = || Histogram::new(0.0, 240.0, 48);
        SegmentHistograms {
            queued: mk(),
            wq_stage_in: mk(),
            env_setup: mk(),
            stage_in: mk(),
            cpu: mk(),
            io_wait: mk(),
            stage_out: mk(),
            wall: mk(),
        }
    }

    /// Ingest one attempt.
    pub fn record(&mut self, r: &SegmentReport) {
        let t = &r.times;
        self.queued.record(t.queued.as_mins_f64());
        self.wq_stage_in.record(t.wq_stage_in.as_mins_f64());
        self.env_setup.record(t.env_setup.as_mins_f64());
        self.stage_in.record(t.stage_in.as_mins_f64());
        self.cpu.record(t.cpu.as_mins_f64());
        self.io_wait.record(t.io_wait.as_mins_f64());
        self.stage_out.record(t.stage_out.as_mins_f64());
        self.wall.record(r.wall().as_mins_f64());
    }

    /// `(segment, mean minutes, overflow count)` summary rows.
    pub fn summary(&self) -> Vec<(&'static str, f64, u64)> {
        let mean = |h: &Histogram| {
            let (mut sum, mut n) = (0.0, 0u64);
            for (center, count) in h.iter() {
                // simlint::allow(no-float-order): histogram buckets iterate in fixed index order
                sum += center * count as f64;
                n += count;
            }
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        };
        vec![
            ("queued", mean(&self.queued), self.queued.overflow()),
            (
                "wq stage-in",
                mean(&self.wq_stage_in),
                self.wq_stage_in.overflow(),
            ),
            (
                "env setup",
                mean(&self.env_setup),
                self.env_setup.overflow(),
            ),
            ("stage-in", mean(&self.stage_in), self.stage_in.overflow()),
            ("cpu", mean(&self.cpu), self.cpu.overflow()),
            ("io wait", mean(&self.io_wait), self.io_wait.overflow()),
            (
                "stage-out",
                mean(&self.stage_out),
                self.stage_out.overflow(),
            ),
            ("wall", mean(&self.wall), self.wall.overflow()),
        ]
    }
}

/// Thresholds for the §5 diagnosis rules.
#[derive(Clone, Copy, Debug)]
pub struct AdvisorConfig {
    /// Lost-runtime fraction above which task size is deemed too high.
    pub lost_runtime_frac: f64,
    /// Mean WQ stage-in minutes above which more foremen are suggested.
    pub wq_stage_in_mins: f64,
    /// Mean setup minutes above which the squid tier is deemed overloaded.
    pub setup_mins: f64,
    /// Mean stage-in/out minutes above which chirp is deemed overloaded.
    pub stage_mins: f64,
    /// Fraction of attempts aborted by one segment's watchdog above which
    /// that segment's deadline is deemed too tight.
    pub watchdog_abort_frac: f64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            lost_runtime_frac: 0.15,
            wq_stage_in_mins: 5.0,
            setup_mins: 20.0,
            stage_mins: 10.0,
            watchdog_abort_frac: 0.05,
        }
    }
}

/// A diagnosis produced by the advisor.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum Advice {
    /// "High values of lost runtime suggest that the target task size is
    /// too high."
    ReduceTaskSize,
    /// "Long sandbox stage-in times ... suggest the usage of more foremen."
    AddForemen,
    /// "Consistently long setup times hint at an overloaded squid proxy."
    AddSquidsOrShareCaches,
    /// "Increased stage-in and stage-out times suggest an overloaded
    /// Chirp server."
    TuneChirpConnections,
    /// A large share of attempts are killed by one segment's watchdog:
    /// the deadline is tighter than the infrastructure can serve.
    RaiseSegmentDeadline {
        /// The segment whose watchdog keeps firing.
        segment: Segment,
    },
}

impl std::fmt::Display for Advice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Advice::ReduceTaskSize => write!(f, "reduce task size (high lost runtime)"),
            Advice::AddForemen => write!(f, "add foremen (long sandbox stage-in)"),
            Advice::AddSquidsOrShareCaches => {
                write!(f, "add squids or share caches (long setup times)")
            }
            Advice::TuneChirpConnections => {
                write!(f, "tune chirp connections (long stage-in/out)")
            }
            Advice::RaiseSegmentDeadline { segment } => {
                write!(f, "raise {segment:?} watchdog deadline (frequent aborts)")
            }
        }
    }
}

/// Stable index for per-segment counters.
fn segment_index(s: Segment) -> usize {
    match s {
        Segment::Compatibility => 0,
        Segment::EnvInit => 1,
        Segment::StageIn => 2,
        Segment::Execute => 3,
        Segment::StageOut => 4,
    }
}

const SEGMENTS: [Segment; 5] = [
    Segment::Compatibility,
    Segment::EnvInit,
    Segment::StageIn,
    Segment::Execute,
    Segment::StageOut,
];

/// Online mean over only the attempts that produced a measurement —
/// the denominator is per-signal, not the total attempt count, so
/// failure storms that die early cannot dilute a downstream segment's
/// mean.
#[derive(Clone, Copy, Debug, Default)]
struct MeanAcc {
    sum: f64,
    n: u64,
}

impl MeanAcc {
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    fn exceeds(&self, threshold: f64) -> bool {
        self.n > 0 && self.mean() > threshold
    }
}

/// The troubleshooting advisor: aggregates attempt metrics and applies
/// the four §5 rules.
///
/// Two historical bugs shape the accumulator layout: stage-in and
/// stage-out used to be averaged into one signal (so a purely
/// one-directional Chirp overload had to reach 2× the threshold before
/// firing), and every mean used the total attempt count as denominator
/// (so early watchdog aborts diluted downstream-segment means). Each
/// signal now keeps its own [`MeanAcc`] fed only by attempts that
/// [`SegmentReport::measured`] the segment.
#[derive(Clone, Debug, Default)]
pub struct Advisor {
    wall: f64,
    lost: f64,
    n: u64,
    wq_stage_in: MeanAcc,
    setup: MeanAcc,
    stage_in: MeanAcc,
    stage_out: MeanAcc,
    watchdog_by_segment: [u64; 5],
}

impl Advisor {
    /// Fresh advisor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one attempt.
    pub fn record(&mut self, r: &SegmentReport) {
        self.n += 1;
        self.wall += r.wall().as_secs_f64();
        self.lost += r.lost_runtime().as_secs_f64();
        // Every dispatched attempt underwent WQ sandbox stage-in.
        self.wq_stage_in.add(r.times.wq_stage_in.as_mins_f64());
        if r.measured(Segment::EnvInit) {
            self.setup.add(r.times.env_setup.as_mins_f64());
        }
        if r.measured(Segment::StageIn) {
            self.stage_in.add(r.times.stage_in.as_mins_f64());
        }
        if r.measured(Segment::StageOut) {
            self.stage_out.add(r.times.stage_out.as_mins_f64());
        }
        if let Some(seg) = r.failed_segment.filter(|_| r.watchdog) {
            self.watchdog_by_segment[segment_index(seg)] += 1;
        }
    }

    /// Apply the diagnosis rules.
    pub fn diagnose(&self, cfg: &AdvisorConfig) -> Vec<Advice> {
        let mut advice = Vec::new();
        if self.n == 0 {
            return advice;
        }
        let n = self.n as f64;
        if self.wall > 0.0 && self.lost / self.wall > cfg.lost_runtime_frac {
            advice.push(Advice::ReduceTaskSize);
        }
        if self.wq_stage_in.exceeds(cfg.wq_stage_in_mins) {
            advice.push(Advice::AddForemen);
        }
        if self.setup.exceeds(cfg.setup_mins) {
            advice.push(Advice::AddSquidsOrShareCaches);
        }
        // Either direction alone exceeding the threshold means Chirp is
        // overloaded — the directions are independent signals.
        if self.stage_in.exceeds(cfg.stage_mins) || self.stage_out.exceeds(cfg.stage_mins) {
            advice.push(Advice::TuneChirpConnections);
        }
        for seg in SEGMENTS {
            let aborts = self.watchdog_by_segment[segment_index(seg)];
            if aborts as f64 / n > cfg.watchdog_abort_frac {
                advice.push(Advice::RaiseSegmentDeadline { segment: seg });
            }
        }
        advice
    }

    /// `(signal, mean minutes, samples)` rows for metrics export.
    pub fn signal_means(&self) -> Vec<(&'static str, f64, u64)> {
        vec![
            ("wq_stage_in", self.wq_stage_in.mean(), self.wq_stage_in.n),
            ("env_setup", self.setup.mean(), self.setup.n),
            ("stage_in", self.stage_in.mean(), self.stage_in.n),
            ("stage_out", self.stage_out.mean(), self.stage_out.n),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::{ReportBuilder, Segment};
    use wqueue::task::Category;

    fn report(cpu_mins: u64, io_mins: u64, fail: bool, start_s: u64, end_s: u64) -> SegmentReport {
        let mut b = ReportBuilder::new(
            wqueue::task::TaskId(1),
            Category::Analysis,
            0,
            7,
            SimTime::from_secs(start_s),
        );
        b.times_mut().cpu = SimDuration::from_mins(cpu_mins);
        b.times_mut().stage_in = SimDuration::from_mins(io_mins);
        if fail {
            b.fail(Segment::StageIn, SimTime::from_secs(end_s))
        } else {
            b.succeed(SimTime::from_secs(end_s), 100)
        }
    }

    #[test]
    fn accounting_splits_phases() {
        let mut acc = Accounting::default();
        acc.record(&report(60, 30, false, 0, 5400));
        acc.record(&report(0, 0, true, 0, 3600)); // 1 h failed
        assert!((acc.cpu - 1.0).abs() < 1e-9);
        assert!((acc.io - 0.5).abs() < 1e-9);
        assert!((acc.failed - 1.0).abs() < 1e-9);
        let table = acc.table();
        assert_eq!(table.len(), 5);
        assert_eq!(table[0].0, "Task CPU Time");
        let frac_sum: f64 = table.iter().map(|r| r.2).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_accounting_table_is_finite() {
        let acc = Accounting::default();
        for (_, hours, frac) in acc.table() {
            assert_eq!(hours, 0.0);
            assert!(frac.is_finite());
        }
    }

    #[test]
    fn timeline_concurrency_and_efficiency() {
        let mut tl = Timeline::new(SimDuration::from_secs(100));
        // Two tasks inside bin 0, each 90 s wall (finishing at 90 s keeps
        // the completion mark in bin 0 — bins are half-open).
        for _ in 0..2 {
            tl.record(&report(0, 0, false, 0, 90));
        }
        // record() used cpu=0; craft one with cpu via report(…)
        let mut tl2 = Timeline::new(SimDuration::from_secs(100));
        let mut b = ReportBuilder::new(
            wqueue::task::TaskId(2),
            Category::Analysis,
            0,
            7,
            SimTime::ZERO,
        );
        b.times_mut().cpu = SimDuration::from_secs(50);
        tl2.record(&b.succeed(SimTime::from_secs(100), 1));
        assert!(
            (tl.concurrency()[0] - 1.8).abs() < 1e-9,
            "2 tasks × 90s / 100s bin"
        );
        assert_eq!(tl.completions()[0], 2.0);
        assert!((tl2.efficiency()[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn timeline_failures_tracked_with_codes() {
        let mut tl = Timeline::new(SimDuration::from_secs(60));
        tl.record(&report(0, 0, true, 0, 30));
        assert_eq!(tl.failures()[0], 1.0);
        assert_eq!(tl.failure_events().len(), 1);
        assert_eq!(tl.failure_events()[0].1, FailureCode::StageIn);
        assert!(tl.completions().first().copied().unwrap_or(0.0) == 0.0);
    }

    #[test]
    fn advisor_quiet_on_healthy_run() {
        let mut adv = Advisor::new();
        for _ in 0..10 {
            adv.record(&report(60, 2, false, 0, 4000));
        }
        assert!(adv.diagnose(&AdvisorConfig::default()).is_empty());
    }

    #[test]
    fn advisor_flags_lost_runtime() {
        let mut adv = Advisor::new();
        adv.record(&report(60, 0, false, 0, 3600));
        adv.record(&report(0, 0, true, 0, 3600)); // 50% lost
        let advice = adv.diagnose(&AdvisorConfig::default());
        assert!(advice.contains(&Advice::ReduceTaskSize));
    }

    #[test]
    fn advisor_flags_overloaded_squid() {
        let mut adv = Advisor::new();
        let mut b = ReportBuilder::new(
            wqueue::task::TaskId(3),
            Category::Analysis,
            0,
            7,
            SimTime::ZERO,
        );
        b.times_mut().env_setup = SimDuration::from_mins(45);
        adv.record(&b.succeed(SimTime::from_secs(3600), 1));
        let advice = adv.diagnose(&AdvisorConfig::default());
        assert!(advice.contains(&Advice::AddSquidsOrShareCaches));
    }

    #[test]
    fn advisor_flags_foremen_and_chirp() {
        let mut adv = Advisor::new();
        let mut b = ReportBuilder::new(
            wqueue::task::TaskId(4),
            Category::Analysis,
            0,
            7,
            SimTime::ZERO,
        );
        b.times_mut().wq_stage_in = SimDuration::from_mins(12);
        b.times_mut().stage_in = SimDuration::from_mins(30);
        b.times_mut().stage_out = SimDuration::from_mins(30);
        adv.record(&b.succeed(SimTime::from_secs(7200), 1));
        let advice = adv.diagnose(&AdvisorConfig::default());
        assert!(advice.contains(&Advice::AddForemen));
        assert!(advice.contains(&Advice::TuneChirpConnections));
    }

    /// Regression (direction averaging): a purely one-directional Chirp
    /// overload — slow stage-out, instant stage-in — must fire the
    /// moment that direction's mean crosses the threshold. The pre-fix
    /// advisor averaged the two directions into one signal, so 15 min of
    /// stage-out read as (0 + 15)/2 = 7.5 < 10 and stayed silent until
    /// the overload reached 2× the configured threshold.
    #[test]
    fn advisor_flags_one_directional_chirp_overload() {
        let mut adv = Advisor::new();
        let mut b = ReportBuilder::new(
            wqueue::task::TaskId(5),
            Category::Analysis,
            0,
            7,
            SimTime::ZERO,
        );
        b.times_mut().stage_out = SimDuration::from_mins(15);
        adv.record(&b.succeed(SimTime::from_secs(3600), 1));
        let advice = adv.diagnose(&AdvisorConfig::default());
        assert!(
            advice.contains(&Advice::TuneChirpConnections),
            "one-directional overload must fire at 1× the threshold: {advice:?}"
        );
    }

    /// Regression (denominator dilution): attempts that died before ever
    /// reaching a segment must not drag that segment's mean down. Eight
    /// watchdog aborts stuck in EnvInit plus two genuinely slow 25-min
    /// stage-ins used to average to 2.5 min over all ten attempts —
    /// masking the Chirp overload during exactly the failure storm where
    /// the diagnosis matters.
    #[test]
    fn advisor_means_not_diluted_by_early_aborts() {
        let mut adv = Advisor::new();
        for i in 0..8u64 {
            adv.record(&watchdog_report(
                Segment::EnvInit,
                i * 1000,
                i * 1000 + 600,
                0,
            ));
        }
        for i in 0..2u64 {
            let mut b = ReportBuilder::new(
                wqueue::task::TaskId(6 + i),
                Category::Analysis,
                0,
                7,
                SimTime::from_secs(i * 5000),
            );
            b.times_mut().stage_in = SimDuration::from_mins(25);
            adv.record(&b.succeed(SimTime::from_secs(i * 5000 + 3600), 1));
        }
        let advice = adv.diagnose(&AdvisorConfig::default());
        assert!(
            advice.contains(&Advice::TuneChirpConnections),
            "25-min stage-ins must flag Chirp even amid early aborts: {advice:?}"
        );
        let means = adv.signal_means();
        let stage_in = means.iter().find(|m| m.0 == "stage_in").unwrap();
        assert_eq!(stage_in.2, 2, "only attempts that reached stage-in count");
        assert!((stage_in.1 - 25.0).abs() < 1e-9);
    }

    /// Same dilution bug, setup direction: early Compatibility aborts
    /// must not mask an overloaded squid tier.
    #[test]
    fn advisor_setup_mean_not_diluted_by_early_aborts() {
        let mut adv = Advisor::new();
        for i in 0..8u64 {
            adv.record(&watchdog_report(
                Segment::Compatibility,
                i * 1000,
                i * 1000 + 60,
                0,
            ));
        }
        for i in 0..2u64 {
            let mut b = ReportBuilder::new(
                wqueue::task::TaskId(16 + i),
                Category::Analysis,
                0,
                7,
                SimTime::from_secs(i * 5000),
            );
            b.times_mut().env_setup = SimDuration::from_mins(30);
            adv.record(&b.succeed(SimTime::from_secs(i * 5000 + 3600), 1));
        }
        let advice = adv.diagnose(&AdvisorConfig::default());
        assert!(
            advice.contains(&Advice::AddSquidsOrShareCaches),
            "30-min setups must flag the squid tier even amid early aborts: {advice:?}"
        );
    }

    #[test]
    fn advisor_empty_is_silent() {
        assert!(Advisor::new()
            .diagnose(&AdvisorConfig::default())
            .is_empty());
    }

    fn watchdog_report(seg: Segment, start_s: u64, end_s: u64, attempt: u32) -> SegmentReport {
        ReportBuilder::new(
            wqueue::task::TaskId(9),
            Category::Analysis,
            attempt,
            7,
            SimTime::from_secs(start_s),
        )
        .abort_by_watchdog(seg, SimTime::from_secs(end_s))
    }

    #[test]
    fn accounting_tracks_failure_policy_counters() {
        let mut acc = Accounting::default();
        acc.record(&watchdog_report(Segment::StageIn, 0, 600, 0));
        acc.record(&watchdog_report(Segment::StageIn, 700, 1300, 1));
        acc.record(&report(60, 0, false, 1400, 5000)); // healthy success
        acc.record_backoff(SimDuration::from_mins(30));
        acc.record_dead_letter();
        assert_eq!(acc.watchdog_aborts, 2);
        assert_eq!(acc.retries, 1, "only the attempt-1 report is a retry");
        assert_eq!(acc.dead_lettered, 1);
        assert!((acc.backoff_hours - 0.5).abs() < 1e-9);
        // The Figure 8 table shape is unchanged by the new counters.
        assert_eq!(acc.table().len(), 5);
        let frac_sum: f64 = acc.table().iter().map(|r| r.2).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_tracks_watchdog_and_dead_letters() {
        let mut tl = Timeline::new(SimDuration::from_secs(60));
        tl.record(&watchdog_report(Segment::StageIn, 0, 30, 0));
        tl.record(&report(0, 0, true, 0, 30)); // plain failure
        tl.record_dead_letter(SimTime::from_secs(45));
        assert_eq!(tl.watchdog_events().len(), 1);
        assert_eq!(tl.watchdog_events()[0].1, Segment::StageIn);
        assert_eq!(tl.failures()[0], 2.0, "watchdog aborts are failures too");
        assert_eq!(tl.dead_letters()[0], 1.0);
    }

    #[test]
    fn advisor_flags_tight_stage_in_deadline() {
        let mut adv = Advisor::new();
        for i in 0..10 {
            adv.record(&report(30, 1, false, i * 4000, i * 4000 + 2000));
        }
        adv.record(&watchdog_report(Segment::StageIn, 0, 600, 0));
        let advice = adv.diagnose(&AdvisorConfig::default());
        assert!(
            advice.contains(&Advice::RaiseSegmentDeadline {
                segment: Segment::StageIn
            }),
            "{advice:?}"
        );
        assert!(
            !advice.contains(&Advice::RaiseSegmentDeadline {
                segment: Segment::EnvInit
            }),
            "quiet segments stay quiet"
        );
    }

    #[test]
    fn segment_histograms_record_all_segments() {
        let mut h = SegmentHistograms::new();
        h.record(&report(60, 30, false, 0, 5400));
        h.record(&report(90, 10, false, 0, 6000));
        let rows = h.summary();
        assert_eq!(rows.len(), 8);
        let cpu = rows.iter().find(|r| r.0 == "cpu").unwrap();
        // Means are bin centers; 60 and 90 min land in 5-min bins.
        assert!((cpu.1 - 75.0).abs() < 5.0, "mean cpu {}", cpu.1);
        let wall = rows.iter().find(|r| r.0 == "wall").unwrap();
        assert!(wall.1 > 90.0, "wall mean {}", wall.1);
    }

    #[test]
    fn segment_histograms_track_overflow() {
        let mut h = SegmentHistograms::new();
        h.record(&report(500, 0, false, 0, 40_000)); // 500 min cpu > 240 range
        let rows = h.summary();
        let cpu = rows.iter().find(|r| r.0 == "cpu").unwrap();
        assert_eq!(cpu.2, 1, "over-range attempt counted as overflow");
    }
}
