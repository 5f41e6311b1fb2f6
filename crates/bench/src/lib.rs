//! The Lobster paper's experiments and the gated benches' shared helpers.
//!
//! [`paper`] holds every figure and ablation of the paper's evaluation;
//! the `paper` binary prints them. The `bench_*` binaries are the gated
//! benches that `ci.sh` runs, each through the one baseline [`gate`].

pub mod alloc;
pub mod gate;
pub mod paper;

/// Render a series of panel rows as `label: sparkline (max=…)`.
pub fn panel(label: &str, series: &[f64]) -> String {
    let max = series.iter().copied().fold(0.0_f64, f64::max);
    format!(
        "{label:<28} {} (max {max:.1})",
        simkit::plot::sparkline(series)
    )
}
