//! The Lobster paper's experiments and the gated benches' shared helpers.
//!
//! [`paper`] holds every figure and ablation of the paper's evaluation;
//! the `paper` binary prints them. The `bench_*` binaries are the gated
//! benches that `ci.sh` runs.

pub mod alloc;
pub mod paper;

use std::path::{Path, PathBuf};

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

/// Render a series of panel rows as `label: sparkline (max=…)`.
pub fn panel(label: &str, series: &[f64]) -> String {
    let max = series.iter().copied().fold(0.0_f64, f64::max);
    format!(
        "{label:<28} {} (max {max:.1})",
        simkit::plot::sparkline(series)
    )
}
