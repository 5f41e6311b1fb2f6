//! The gated benches' one baseline gate.
//!
//! A gated bench reads its committed baseline, `<name>` at the
//! repository root, back as the very type it writes, records its
//! verdicts against it in a [`Gate`], writes this run's results with
//! [`write_fresh_results`], and ends with [`Gate::finish`], which exits 1
//! if any verdict failed. The policy is the same for every bench:
//!
//! * no committed baseline means no baseline verdicts, and a notice says
//!   so; a baseline that does not parse as the bench's result type (a
//!   truncated file, a missing or renamed field) fails the run, so a
//!   stale baseline can never switch the gate off unnoticed;
//! * a quantity that depends only on the seed, the code and the
//!   toolchain (peak heap, journal bytes) gets an exact upper bound,
//!   [`Gate::at_most`];
//! * a wall-time quantity gets a [`TOLERANCE`] band against the
//!   baseline: [`Gate::floor`] for a throughput, [`Gate::ceiling`] for a
//!   latency;
//! * anything else is a named [`Gate::check`].

use serde::Deserialize;
use std::fmt::Display;
use std::path::{Path, PathBuf};

/// The share of its baseline a wall-time quantity may lose (a
/// throughput) or gain (a latency) before the gate fails.
pub const TOLERANCE: f64 = 0.20;

/// Write a gated bench's results for this run to `target/bench/<name>`
/// and return that path. The committed `<name>` at the repository root
/// is the baseline the gate reads, and no run rewrites it: a slow or
/// failed run cannot become the next baseline. Re-recording a baseline
/// is an explicit copy of this file over it, made at an unchanged parent
/// commit.
pub fn write_fresh_results(name: &str, json: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new("target").join("bench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Read the baseline at `path` as a `T`: `Ok(None)` if there is no such
/// file, an error if it cannot be read or does not parse as a `T`.
pub fn read_baseline<T: Deserialize>(path: &Path) -> Result<Option<T>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One bench's verdicts. Each failed verdict prints one line on stderr,
/// prefixed with the bench's name, as it is recorded.
pub struct Gate {
    bench: &'static str,
    failures: usize,
}

impl Gate {
    /// An empty gate for the bench named `bench`.
    pub fn new(bench: &'static str) -> Self {
        Gate { bench, failures: 0 }
    }

    /// The committed baseline at `path`, read as a `T`. An absent file
    /// prints a notice and gives `None`; one that does not parse fails
    /// the gate and gives `None`.
    pub fn baseline<T: Deserialize>(&mut self, path: impl AsRef<Path>) -> Option<T> {
        let path = path.as_ref();
        match read_baseline(path) {
            Ok(Some(baseline)) => Some(baseline),
            Ok(None) => {
                eprintln!(
                    "{}: NOTICE no committed {}; no baseline verdicts",
                    self.bench,
                    path.display()
                );
                None
            }
            Err(e) => {
                self.fail(format_args!("baseline does not parse: {e}"));
                None
            }
        }
    }

    /// Exact upper bound: `fresh` may not exceed `baseline`.
    pub fn at_most(&mut self, what: &str, fresh: u64, baseline: u64) {
        if fresh > baseline {
            self.record(
                "REGRESSION",
                format_args!("{what}: {fresh} > baseline {baseline}"),
            );
        }
    }

    /// Throughput floor: `fresh` may not fall below `baseline` less
    /// [`TOLERANCE`].
    pub fn floor(&mut self, what: &str, fresh: f64, baseline: f64) {
        let floor = baseline * (1.0 - TOLERANCE);
        if fresh < floor {
            self.record(
                "REGRESSION",
                format_args!(
                    "{what}: {} < {} (baseline {} − {:.0}%)",
                    num(fresh),
                    num(floor),
                    num(baseline),
                    TOLERANCE * 100.0
                ),
            );
        }
    }

    /// Latency ceiling: `fresh` may not rise above `baseline` plus
    /// [`TOLERANCE`].
    pub fn ceiling(&mut self, what: &str, fresh: f64, baseline: f64) {
        let ceiling = baseline * (1.0 + TOLERANCE);
        if fresh > ceiling {
            self.record(
                "REGRESSION",
                format_args!(
                    "{what}: {} > {} (baseline {} + {:.0}%)",
                    num(fresh),
                    num(ceiling),
                    num(baseline),
                    TOLERANCE * 100.0
                ),
            );
        }
    }

    /// A named check: fails the gate with `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        if !ok {
            self.fail(what);
        }
    }

    /// Fail the gate with `what`.
    pub fn fail(&mut self, what: impl Display) {
        self.record("FAIL", what);
    }

    fn record(&mut self, kind: &str, what: impl Display) {
        eprintln!("{}: {kind} {what}", self.bench);
        self.failures += 1;
    }

    /// Whether every verdict so far passed.
    fn passed(&self) -> bool {
        self.failures == 0
    }

    /// Exit 1 if any verdict failed; return if all passed.
    pub fn finish(self) {
        if !self.passed() {
            eprintln!(
                "{}: {} failed verdict(s) above — failing the gate",
                self.bench, self.failures
            );
            std::process::exit(1);
        }
    }
}

/// A verdict's number: whole units from 1000 up, six decimals below.
fn num(x: f64) -> String {
    if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Point {
        cores: u32,
        events_per_sec: f64,
    }

    fn scratch_file(tag: &str, contents: Option<&str>) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "lobster-bench-gate-{}-{tag}.json",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        if let Some(text) = contents {
            std::fs::write(&path, text).expect("temp dir is writable");
        }
        path
    }

    #[test]
    fn exact_bound_passes_when_equal_and_fails_one_above() {
        let mut gate = Gate::new("test");
        gate.at_most("peak heap (B)", 4096, 4096);
        assert!(gate.passed());
        gate.at_most("peak heap (B)", 4097, 4096);
        assert!(!gate.passed());
    }

    #[test]
    fn floor_passes_at_the_tolerance_and_fails_past_it() {
        let mut gate = Gate::new("test");
        gate.floor("events/s", 80.0, 100.0);
        gate.floor("events/s", 2_000_000.0, 2_500_000.0);
        assert!(gate.passed());
        gate.floor("events/s", 79.999, 100.0);
        assert!(!gate.passed());
    }

    #[test]
    fn ceiling_passes_at_the_tolerance_and_fails_past_it() {
        let mut gate = Gate::new("test");
        gate.ceiling("resume (s)", 0.012, 0.010);
        gate.ceiling("resume (s)", 120.0, 100.0);
        assert!(gate.passed());
        gate.ceiling("resume (s)", 120.001, 100.0);
        assert!(!gate.passed());
    }

    #[test]
    fn named_check_fails_only_when_false() {
        let mut gate = Gate::new("test");
        gate.check(true, "jain above the floor");
        assert!(gate.passed());
        gate.check(false, "jain below the floor");
        assert!(!gate.passed());
    }

    #[test]
    fn absent_baseline_gives_no_verdict() {
        let path = scratch_file("absent", None);
        let mut gate = Gate::new("test");
        assert_eq!(gate.baseline::<Point>(&path), None);
        assert!(gate.passed());
    }

    #[test]
    fn parsed_baseline_is_the_typed_result() {
        let want = Point {
            cores: 2500,
            events_per_sec: 3.5e6,
        };
        let json = serde_json::to_string_pretty(&want).expect("serialises");
        let path = scratch_file("parsed", Some(&json));
        let mut gate = Gate::new("test");
        assert_eq!(gate.baseline::<Point>(&path), Some(want));
        assert!(gate.passed());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unparseable_baseline_fails() {
        for (tag, text) in [
            ("truncated", r#"{"cores": 2500, "events_per"#),
            ("missing-field", r#"{"cores": 2500}"#),
            ("renamed-field", r#"{"cores": 2500, "events_per_s": 1.0}"#),
            ("wrong-type", r#"{"cores": "many", "events_per_sec": 1.0}"#),
        ] {
            let path = scratch_file(tag, Some(text));
            let mut gate = Gate::new("test");
            assert_eq!(gate.baseline::<Point>(&path), None, "{tag}");
            assert!(!gate.passed(), "{tag} must fail the gate");
            std::fs::remove_file(&path).ok();
        }
    }
}
