//! Bridge from a run to the ops plane.
//!
//! [`snapshot_from_run`] lowers any [`RunReport`] — a live one from
//! [`crate::Session::status`] or a finished one from
//! [`crate::Session::finish`] — into an
//! [`opsplane::MetricsSnapshot`]: counters, gauges and the time lines
//! (as series keyed by the timeline bin width) are listed in name order,
//! the order [`MetricsSnapshot::validate`] requires, and the §5 diagnostic
//! tables (accounting, failures by code, watchdog aborts, segment
//! means, advisor signals and advice, dead letters, transfer dashboard)
//! are materialised row by row. Everything is derived from simulated
//! time and journaled state, so the same seed produces a byte-identical
//! snapshot. [`run_trace`] serialises the smaller record whose FNV-1a
//! digest the determinism checks compare.

use crate::config::LobsterConfig;
use crate::driver::{RunReport, SimParams};
use crate::monitor::Accounting;
use opsplane::{
    AccountingRow, CounterSample, DeadLetterRow, GaugeSample, LabelCount, MetricsSnapshot, RunMeta,
    SegmentRow, SeriesSample, SignalRow, TransferRow,
};
use serde::Serialize;
use simkit::time::SimTime;
use simkit::trace::Trace;
use std::collections::BTreeMap;

/// Everything observable about a run that is cheap to serialise. The
/// field set and order fix the bytes behind the committed conformance
/// digests.
#[derive(Serialize)]
struct RunTraceRecord<'a> {
    tasks_completed: u64,
    tasks_failed: u64,
    evictions: u64,
    merges_completed: u64,
    final_task_size: u32,
    peak_concurrency: f64,
    finished_at: Option<SimTime>,
    accounting: &'a Accounting,
    merged_files: &'a [(String, u64)],
    dashboard: &'a [(String, f64)],
    dead_letter_units: u64,
    concurrency: Vec<f64>,
    completions: Vec<f64>,
    failures: Vec<f64>,
    efficiency: Vec<f64>,
}

/// A run's trace: one JSON line (`simkit::trace` format, stamped with
/// `ended_at`) holding its counters, accounting, merged files, transfer
/// dashboard, dead-lettered units and the Figure 10 time lines. Same seed,
/// same bytes; digest them with [`simkit::trace::fnv1a`].
pub fn run_trace(report: &RunReport) -> Vec<u8> {
    let record = RunTraceRecord {
        tasks_completed: report.tasks_completed,
        tasks_failed: report.tasks_failed,
        evictions: report.evictions,
        merges_completed: report.merges_completed,
        final_task_size: report.final_task_size,
        peak_concurrency: report.peak_concurrency,
        finished_at: report.finished_at,
        accounting: &report.accounting,
        merged_files: &report.merged_files,
        dashboard: &report.dashboard,
        dead_letter_units: report.dead_letters.iter().map(|d| d.units).sum(),
        concurrency: report.timeline.concurrency(),
        completions: report.timeline.completions(),
        failures: report.timeline.failures(),
        efficiency: report.timeline.efficiency(),
    };
    let mut trace = Trace::new();
    trace.push(report.ended_at, record);
    let mut buf = Vec::new();
    trace
        .write_jsonl(&mut buf)
        // simlint::allow(no-panic-in-lib): writing into a Vec cannot fail
        .expect("writing to a Vec cannot fail");
    buf
}

/// Lower a run, live or finished, into a deterministic metrics snapshot.
///
/// `name` labels the run (scenario or bench name); `cfg` and `params`
/// supply the seed and horizon recorded in [`RunMeta`].
pub fn snapshot_from_run(
    name: &str,
    cfg: &LobsterConfig,
    params: &SimParams,
    report: &RunReport,
) -> MetricsSnapshot {
    let meta = RunMeta {
        name: name.to_string(),
        seed: cfg.seed,
        horizon_us: params.horizon.as_micros(),
        ended_us: report.ended_at.as_micros(),
        finished: report.finished_at.is_some(),
        finished_us: report.finished_at.map(|t| t.as_micros()).unwrap_or(0),
        events_delivered: report.events_delivered,
    };
    let mut snap = MetricsSnapshot::new(meta);

    // Counters, gauges and series, each listed in name order.
    let counter = |name: &str, value| CounterSample {
        name: name.to_string(),
        value,
    };
    snap.counters = vec![
        counter("dead_lettered", report.accounting.dead_lettered),
        counter("evictions", report.evictions),
        counter("merged_files", report.merged_files.len() as u64),
        counter("merges_completed", report.merges_completed),
        counter("retries", report.accounting.retries),
        counter("tasks_completed", report.tasks_completed),
        counter("tasks_failed", report.tasks_failed),
        counter("watchdog_aborts", report.accounting.watchdog_aborts),
    ];
    let gauge = |name: &str, value| GaugeSample {
        name: name.to_string(),
        value,
    };
    snap.gauges = vec![
        gauge("backoff_hours", report.accounting.backoff_hours),
        gauge("final_task_size", f64::from(report.final_task_size)),
        gauge("peak_concurrency", report.peak_concurrency),
    ];

    // Time lines (Figures 7, 10, 11) as series keyed by the bin width.
    let bin_secs = report.timeline.bin().as_secs_f64();
    let series = |name: &str, points| SeriesSample {
        name: name.to_string(),
        bin_secs,
        points,
    };
    let timeline = &report.timeline;
    snap.series = vec![
        series("analysis_done", report.analysis_done.sums()),
        series("completions", timeline.completions()),
        series("concurrency", timeline.concurrency()),
        series("dead_letters", timeline.dead_letters()),
        series("efficiency", timeline.efficiency()),
        series("failures", timeline.failures()),
        series("merge_done", report.merge_done.sums()),
        series("setup_minutes", timeline.setup_minutes()),
        series("stageout_minutes", timeline.stageout_minutes()),
    ];

    // Figure 8 accounting table.
    snap.accounting = report
        .accounting
        .table()
        .into_iter()
        .map(|(phase, hours, fraction)| AccountingRow {
            phase: phase.to_string(),
            hours,
            fraction,
        })
        .collect();

    // Figure 11 bottom panel: failure codes, label-sorted.
    let mut by_code: BTreeMap<String, u64> = BTreeMap::new();
    for (_, code) in report.timeline.failure_events() {
        *by_code.entry(code.to_string()).or_insert(0) += 1;
    }
    snap.failures_by_code = label_counts(by_code);

    // Watchdog aborts by the segment whose deadline fired.
    let mut by_seg: BTreeMap<String, u64> = BTreeMap::new();
    for (_, seg) in report.timeline.watchdog_events() {
        *by_seg.entry(format!("{seg:?}")).or_insert(0) += 1;
    }
    snap.watchdog_by_segment = label_counts(by_seg);

    // §5 per-segment duration means.
    snap.segments = report
        .segment_histograms
        .summary()
        .into_iter()
        .map(|(segment, mean_mins, overflow)| SegmentRow {
            segment: segment.to_string(),
            mean_mins,
            overflow,
        })
        .collect();

    // Advisor inputs and diagnosis.
    snap.advisor_signals = report
        .advisor_signals
        .iter()
        .map(|&(signal, mean_mins, samples)| SignalRow {
            signal: signal.to_string(),
            mean_mins,
            samples,
        })
        .collect();
    snap.advice = report.advice.iter().map(|a| a.to_string()).collect();

    // Dead-letter ledger, in withdrawal order.
    snap.dead_letters = report
        .dead_letters
        .iter()
        .map(|d| DeadLetterRow {
            task: d.task.0,
            category: d.category.to_string(),
            code: d.code.to_string(),
            attempts: d.attempts,
            units: d.units,
            at_us: d.at.as_micros(),
        })
        .collect();

    // Figure 9 transfer dashboard.
    snap.transfers = report
        .dashboard
        .iter()
        .map(|(consumer, bytes)| TransferRow {
            consumer: consumer.clone(),
            bytes: *bytes,
        })
        .collect();

    snap
}

fn label_counts(map: BTreeMap<String, u64>) -> Vec<LabelCount> {
    map.into_iter()
        .map(|(label, count)| LabelCount { label, count })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ClusterSim;
    use crate::workflow::Workflow;
    use gridstore::dbs::{DatasetSpec, Dbs};
    use simkit::time::SimDuration;

    fn small_run() -> (LobsterConfig, SimParams, RunReport) {
        let mut cfg = LobsterConfig::default();
        cfg.workers.target_cores = 32;
        cfg.workers.cores_per_worker = 4;
        cfg.seed = 11;
        let mut dbs = Dbs::new();
        dbs.generate(
            "/Ops/Unit/AOD",
            DatasetSpec {
                n_files: 12,
                mean_file_bytes: 200_000_000,
                events_per_lumi: 100,
                lumis_per_file: 40,
            },
            3,
        );
        let ds = dbs.query("/Ops/Unit/AOD").expect("dataset").clone();
        let wf = Workflow::from_dataset(&cfg.workflows[0], &ds);
        let params = SimParams {
            horizon: SimDuration::from_hours(60),
            ..SimParams::default()
        };
        let report = ClusterSim::run(cfg.clone(), params.clone(), vec![wf]);
        (cfg, params, report)
    }

    #[test]
    fn snapshot_from_run_is_schema_valid_and_populated() {
        let (cfg, params, report) = small_run();
        let snap = snapshot_from_run("unit", &cfg, &params, &report);
        snap.validate().expect("snapshot validates");
        assert_eq!(snap.run.name, "unit");
        assert_eq!(snap.run.seed, cfg.seed);
        assert_eq!(
            snap.counter("tasks_completed"),
            Some(report.tasks_completed)
        );
        assert_eq!(snap.accounting.len(), 5);
        assert!(snap.series.iter().any(|s| s.name == "concurrency"));
        assert!(snap.advisor_signals.iter().any(|s| s.signal == "stage_in"));
        // Round trip through JSON preserves the snapshot byte-for-byte.
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("parses");
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn same_seed_snapshots_are_byte_identical() {
        let (cfg, params, report_a) = small_run();
        let (_, _, report_b) = small_run();
        let a = snapshot_from_run("twin", &cfg, &params, &report_a);
        let b = snapshot_from_run("twin", &cfg, &params, &report_b);
        assert_eq!(a.to_json(), b.to_json());
    }
}
