//! Print the paper's figures and ablations.
//!
//! ```text
//! paper [NAME...]
//! ```
//!
//! Prints the named experiments in the fixed order below, or all of
//! them when no name is given; `docs/outputs/<name>.txt` is each one's
//! captured output. An unknown name prints the usage and exits 2.
//! `LOBSTER_SCALE` (default 1.0, the paper's scale) shrinks the two §6
//! production runs, e.g. `LOBSTER_SCALE=0.05` for a quick smoke run.
//! Each experiment's wall-clock time goes to stderr.

use lobster::RunReport;
use lobster_bench::paper::*;
use std::cell::OnceCell;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use wqueue::cache::WorkerCache;

/// The scale of the §6 runs, and the data-processing run behind Figures
/// 8, 9 and 10, made at most once.
struct Runs {
    scale: f64,
    dataproc: OnceCell<RunReport>,
}

impl Runs {
    fn dataproc(&self) -> &RunReport {
        self.dataproc
            .get_or_init(|| data_processing_run(self.scale))
    }
}

type Render = fn(&Runs) -> String;

/// Every experiment, in print order.
const EXPERIMENTS: [(&str, Render); 14] = [
    ("fig02_eviction", |_| fig02_eviction().to_string()),
    ("fig03_tasksize", |_| fig03_tasksize().to_string()),
    ("fig04_data_access", |_| fig04_data_access().to_string()),
    ("fig05_proxy_scaling", |_| fig05_proxy_scaling().to_string()),
    ("fig06_cache_modes", |_| {
        fig06_cache_modes(real_fetches()).to_string()
    }),
    ("fig07_merging", |_| fig07_merging().to_string()),
    ("fig08_runtime_table", |r| {
        fig08_runtime_table(r.dataproc()).to_string()
    }),
    ("fig09_data_volume", |r| {
        fig09_data_volume(r.dataproc()).to_string()
    }),
    ("fig10_processing_run", |r| {
        fig10_processing_run(r.dataproc()).to_string()
    }),
    ("fig11_simulation_run", |r| {
        fig11_simulation_run(r.scale).to_string()
    }),
    ("ablation_adaptive", |_| ablation_adaptive().to_string()),
    ("ablation_alien_cache", |_| {
        ablation_alien_cache().to_string()
    }),
    ("ablation_chirp", |_| ablation_chirp().to_string()),
    ("ablation_foremen", |_| ablation_foremen().to_string()),
];

/// Race 8 slot threads for one release on a real `WorkerCache` and
/// count the fetches: the alien cache's single-fetch guarantee behind
/// Figure 6's modes (d)/(e).
fn real_fetches() -> usize {
    let (cache, fetches) = (WorkerCache::new(), AtomicUsize::new(0));
    let fetch = || {
        fetches.fetch_add(1, Ordering::SeqCst);
        vec![0u8; 1 << 20]
    };
    std::thread::scope(|slots| {
        for _ in 0..8 {
            slots.spawn(|| cache.get_or_fetch("CMSSW_7_4_2", fetch));
        }
    });
    fetches.into_inner()
}

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known = |n: &String| EXPERIMENTS.iter().any(|(name, _)| name == n);
    if let Some(unknown) = names.iter().find(|n| !known(n)) {
        eprintln!("paper: unknown experiment `{unknown}`\nusage: paper [NAME...]\nnames:");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        return ExitCode::from(2);
    }
    let scale = std::env::var("LOBSTER_SCALE")
        .ok()
        .and_then(|s| s.parse().ok());
    let runs = Runs {
        scale: scale.unwrap_or(1.0),
        dataproc: OnceCell::new(),
    };
    for (name, render) in EXPERIMENTS {
        if names.is_empty() || names.iter().any(|n| n == name) {
            let started = Instant::now();
            print!("{}", render(&runs));
            eprintln!("[{name}: wall-clock {:.1?}]", started.elapsed());
        }
    }
    ExitCode::SUCCESS
}
