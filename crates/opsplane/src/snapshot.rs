//! The `metrics.json` snapshot schema.
//!
//! One [`MetricsSnapshot`] is the complete observable state of a run:
//! named counters, gauges and series plus the §5 panels. Serialization
//! rules that make same-seed runs byte-identical:
//!
//! * field order is declaration order (the vendored serde preserves it);
//! * every list is either name-sorted (counters, gauges, series,
//!   failure/watchdog tallies) or in a simulation-determined order
//!   (accounting phases, dead letters by occurrence);
//! * timestamps are *simulated* microseconds — no wall-clock anywhere.
//!
//! Snapshots are therefore trace-adjacent artifacts: like the event
//! trace, they may be byte-compared across runs, committed as CI
//! baselines, and diffed to detect schema or behavior drift.

use serde::{Deserialize, Serialize};

/// Current schema identifier, bumped on breaking changes.
pub const SCHEMA: &str = "lobster-metrics/v1";

/// Run identity and global outcomes.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunMeta {
    /// Run label (bench name, scenario name, workflow name).
    pub name: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Simulation horizon in simulated microseconds.
    pub horizon_us: u64,
    /// Instant the run ended (drained or hit the horizon), simulated µs.
    pub ended_us: u64,
    /// True if all processing and merging finished inside the horizon.
    pub finished: bool,
    /// Instant everything finished (0 when `finished` is false).
    pub finished_us: u64,
    /// Engine events delivered over the run.
    pub events_delivered: u64,
}

/// One monotone counter sample.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: u64,
}

/// One instantaneous gauge sample.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
}

/// One time-binned series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SeriesSample {
    /// Series name.
    pub name: String,
    /// Bin width in seconds of simulated time.
    pub bin_secs: f64,
    /// Per-bin values (sums or means, per the series' definition).
    pub points: Vec<f64>,
}

/// One Figure 8 accounting row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AccountingRow {
    /// Phase name in paper order.
    pub phase: String,
    /// Hours attributed to the phase.
    pub hours: f64,
    /// Fraction of the total.
    pub fraction: f64,
}

/// A labelled tally (failure code, watchdog segment, …).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LabelCount {
    /// Label.
    pub label: String,
    /// Occurrences.
    pub count: u64,
}

/// One per-segment duration summary row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SegmentRow {
    /// Segment name.
    pub segment: String,
    /// Mean duration in minutes.
    pub mean_mins: f64,
    /// Attempts past the histogram range.
    pub overflow: u64,
}

/// One advisor input signal: the mean over only the attempts that
/// actually measured the signal's segment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SignalRow {
    /// Signal name.
    pub signal: String,
    /// Mean minutes over measured attempts.
    pub mean_mins: f64,
    /// Number of measured attempts (the denominator).
    pub samples: u64,
}

/// One dead-letter ledger row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeadLetterRow {
    /// Task id.
    pub task: u64,
    /// Work category.
    pub category: String,
    /// Final failure code.
    pub code: String,
    /// Attempts consumed before withdrawal.
    pub attempts: u32,
    /// Work units withdrawn with the task.
    pub units: u64,
    /// Withdrawal instant, simulated µs.
    pub at_us: u64,
}

/// One Figure 9 transfer-dashboard row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransferRow {
    /// Consumer name.
    pub consumer: String,
    /// Bytes moved.
    pub bytes: f64,
}

/// The complete `metrics.json` snapshot.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Run identity and outcomes.
    pub run: RunMeta,
    /// Named counters, name-sorted.
    pub counters: Vec<CounterSample>,
    /// Named gauges, name-sorted.
    pub gauges: Vec<GaugeSample>,
    /// Named series, name-sorted.
    pub series: Vec<SeriesSample>,
    /// Figure 8 accounting rows, paper order.
    pub accounting: Vec<AccountingRow>,
    /// Failure tallies by code, label-sorted.
    pub failures_by_code: Vec<LabelCount>,
    /// Watchdog-abort tallies by segment, label-sorted.
    pub watchdog_by_segment: Vec<LabelCount>,
    /// Per-segment duration summaries, execution order.
    pub segments: Vec<SegmentRow>,
    /// Advisor input signals.
    pub advisor_signals: Vec<SignalRow>,
    /// Advisor advice lines (empty on a healthy run).
    pub advice: Vec<String>,
    /// Dead-letter ledger, occurrence order.
    pub dead_letters: Vec<DeadLetterRow>,
    /// Figure 9 transfer dashboard rows.
    pub transfers: Vec<TransferRow>,
}

impl MetricsSnapshot {
    /// Empty snapshot carrying only the schema tag and run meta.
    pub fn new(run: RunMeta) -> Self {
        MetricsSnapshot {
            schema: SCHEMA.to_string(),
            run,
            counters: Vec::new(),
            gauges: Vec::new(),
            series: Vec::new(),
            accounting: Vec::new(),
            failures_by_code: Vec::new(),
            watchdog_by_segment: Vec::new(),
            segments: Vec::new(),
            advisor_signals: Vec::new(),
            advice: Vec::new(),
            dead_letters: Vec::new(),
            transfers: Vec::new(),
        }
    }

    /// Serialize to the canonical `metrics.json` byte form (pretty JSON
    /// plus trailing newline). Same snapshot ⇒ same bytes.
    pub fn to_json(&self) -> String {
        // Serializing a plain struct tree into the shim's Value model
        // cannot fail; defaulting keeps the signature panic-free.
        let mut s = serde_json::to_string_pretty(self).unwrap_or_default();
        s.push('\n');
        s
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Parse a snapshot back from `metrics.json` bytes.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("metrics snapshot: {e}"))
    }

    /// Structural validity: the schema tag matches, names are non-empty
    /// and canonically sorted where sortedness is the contract, every
    /// float is finite, and series bins are positive.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!(
                "schema mismatch: snapshot says {:?}, this build speaks {:?}",
                self.schema, SCHEMA
            ));
        }
        check_sorted("counters", self.counters.iter().map(|c| &*c.name))?;
        check_sorted("gauges", self.gauges.iter().map(|g| &*g.name))?;
        check_sorted("series", self.series.iter().map(|s| &*s.name))?;
        check_sorted(
            "failures_by_code",
            self.failures_by_code.iter().map(|f| &*f.label),
        )?;
        check_sorted(
            "watchdog_by_segment",
            self.watchdog_by_segment.iter().map(|w| &*w.label),
        )?;
        for g in &self.gauges {
            if !g.value.is_finite() {
                return Err(format!("gauge {} is not finite", g.name));
            }
        }
        for s in &self.series {
            if s.bin_secs <= 0.0 || s.bin_secs.is_nan() {
                return Err(format!("series {} has non-positive bin width", s.name));
            }
            if s.points.iter().any(|p| !p.is_finite()) {
                return Err(format!("series {} holds non-finite points", s.name));
            }
        }
        for row in &self.accounting {
            if !row.hours.is_finite() || !row.fraction.is_finite() {
                return Err(format!("accounting row {} is not finite", row.phase));
            }
        }
        for row in &self.advisor_signals {
            if !row.mean_mins.is_finite() {
                return Err(format!("advisor signal {} is not finite", row.signal));
            }
        }
        Ok(())
    }

    /// The schema signature: every structural name in the snapshot —
    /// metric names, accounting phases, segment and signal labels — in
    /// canonical order. Two snapshots with equal signatures have the
    /// same *shape*; differing values are behavior drift, a differing
    /// signature is schema drift.
    pub fn schema_signature(&self) -> Vec<String> {
        let mut sig = vec![format!("schema/{}", self.schema)];
        sig.extend(self.counters.iter().map(|c| format!("counter/{}", c.name)));
        sig.extend(self.gauges.iter().map(|g| format!("gauge/{}", g.name)));
        sig.extend(self.series.iter().map(|s| format!("series/{}", s.name)));
        sig.extend(
            self.accounting
                .iter()
                .map(|a| format!("accounting/{}", a.phase)),
        );
        sig.extend(
            self.segments
                .iter()
                .map(|s| format!("segment/{}", s.segment)),
        );
        sig.extend(
            self.advisor_signals
                .iter()
                .map(|s| format!("signal/{}", s.signal)),
        );
        sig
    }
}

fn check_sorted<'a>(what: &str, names: impl Iterator<Item = &'a str>) -> Result<(), String> {
    let mut prev: Option<&str> = None;
    for name in names {
        if name.is_empty() {
            return Err(format!("{what}: empty metric name"));
        }
        if let Some(p) = prev {
            if p >= name {
                return Err(format!("{what}: {p:?} and {name:?} out of sorted order"));
            }
        }
        prev = Some(name);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new(RunMeta {
            name: "sample".into(),
            seed: 7,
            horizon_us: 86_400_000_000,
            ended_us: 50_000_000_000,
            finished: true,
            finished_us: 50_000_000_000,
            events_delivered: 12345,
        });
        s.counters = vec![
            CounterSample {
                name: "tasks_completed".into(),
                value: 960,
            },
            CounterSample {
                name: "tasks_failed".into(),
                value: 12,
            },
        ];
        s.gauges = vec![GaugeSample {
            name: "peak_concurrency".into(),
            value: 512.0,
        }];
        s.series = vec![SeriesSample {
            name: "concurrency".into(),
            bin_secs: 600.0,
            points: vec![10.0, 400.0, 512.0],
        }];
        s.accounting.push(AccountingRow {
            phase: "Task CPU Time".into(),
            hours: 100.0,
            fraction: 0.8,
        });
        s.advice.push("ReduceTaskSize".into());
        s
    }

    #[test]
    fn roundtrip_preserves_bytes() {
        let s = sample();
        let json = s.to_json();
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json, "serialize∘parse is identity on bytes");
        back.validate().unwrap();
    }

    #[test]
    fn validate_rejects_unsorted_counters() {
        let mut s = sample();
        s.counters.reverse();
        assert!(s.validate().unwrap_err().contains("sorted"));
    }

    #[test]
    fn validate_rejects_schema_mismatch() {
        let mut s = sample();
        s.schema = "lobster-metrics/v0".into();
        assert!(s.validate().unwrap_err().contains("schema mismatch"));
    }

    #[test]
    fn validate_rejects_non_finite() {
        let mut s = sample();
        s.gauges[0].value = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn signature_tracks_shape_not_values() {
        let a = sample();
        let mut b = sample();
        b.counters[0].value = 1;
        b.gauges[0].value = 2.0;
        assert_eq!(a.schema_signature(), b.schema_signature());
        let mut c = sample();
        c.counters.push(CounterSample {
            name: "zz_new_metric".into(),
            value: 0,
        });
        assert_ne!(a.schema_signature(), c.schema_signature());
    }
}
