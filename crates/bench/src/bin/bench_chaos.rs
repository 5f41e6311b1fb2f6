//! Chaos-sweep conformance gate — the `ci.sh` robustness check.
//!
//! Runs every shipped scenario under `scenarios/` plus a seeded sweep of
//! randomized chaos scenarios through the four global invariants
//! (no hang, accounting conservation, trace determinism, crash/resume
//! convergence). Any invariant violation fails the run (exit 1).
//!
//! Results go to `target/bench/CONFORMANCE_chaos.json`; the committed
//! `CONFORMANCE_chaos.json` is only read, as the baseline, through
//! [`lobster_bench::gate`] (so a baseline that does not parse as a
//! [`ChaosBench`] fails the run too). A trace digest
//! (per scenario, and per tenant of a multi-tenant scenario) that changed
//! since the baseline prints a notice — digests legitimately move when
//! simulation behaviour changes on purpose, so drift is surfaced for
//! review rather than gated. Re-recording the baseline is a copy of the
//! fresh file over the committed one.

use lobster_bench::gate::{write_fresh_results, Gate};
use scenario::chaos::chaos_scenario;
use scenario::runner::{ConformanceReport, MultiTenantConformance, ScenarioRunner};
use scenario::spec::Scenario;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Fixed chaos sweep: ten seeds, disjoint from the tier-1 sampled pair so
/// the release gate widens coverage instead of repeating it.
const CHAOS_SEEDS: [u64; 10] = [1, 2, 4, 5, 6, 7, 8, 9, 10, 12];

#[derive(Serialize, Deserialize)]
struct ChaosBench {
    chaos_seeds: Vec<u64>,
    library: Vec<ConformanceReport>,
    /// Library scenarios with a tenant roster, run through the
    /// coordinated multi-tenant conformance gate instead.
    multitenant: Vec<MultiTenantConformance>,
    chaos: Vec<ConformanceReport>,
}

fn scenarios_dir() -> PathBuf {
    // ci.sh runs from the repo root; fall back to the source-relative path
    // so `cargo run -p lobster-bench --bin bench_chaos` works from anywhere.
    let local = PathBuf::from("scenarios");
    if local.is_dir() {
        local
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
    }
}

fn library_files() -> Vec<PathBuf> {
    let dir = scenarios_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

/// Every trace digest of a sweep, keyed by scenario name, or by
/// `scenario/tenant` for a multi-tenant scenario's per-tenant digests.
fn digests(bench: &ChaosBench) -> BTreeMap<String, &str> {
    let mut out = BTreeMap::new();
    for r in bench.library.iter().chain(&bench.chaos) {
        out.insert(r.scenario.clone(), r.trace_digest.as_str());
    }
    for m in &bench.multitenant {
        for t in &m.tenants {
            out.insert(
                format!("{}/{}", m.scenario, t.name),
                t.trace_digest.as_str(),
            );
        }
    }
    out
}

fn main() {
    let baseline_path = "CONFORMANCE_chaos.json";
    let mut gate = Gate::new("bench_chaos");
    let baseline: Option<ChaosBench> = gate.baseline(baseline_path);
    let runner = ScenarioRunner::new("bench-chaos").expect("temp dir is writable");

    let mut library = Vec::new();
    let mut multitenant = Vec::new();
    for path in library_files() {
        let sc = match Scenario::load(&path) {
            Ok(sc) => sc,
            Err(e) => {
                gate.fail(format_args!("{}: {e}", path.display()));
                continue;
            }
        };
        if !sc.tenants.is_empty() {
            match runner.multi_conformance(&sc) {
                Ok(report) => {
                    eprintln!(
                        "[library {:<18}] {:>2} tenants × {:>4} tasklets, jain {:.4}, {} rounds",
                        report.scenario,
                        report.tenants.len(),
                        report.per_tenant_tasklets,
                        report.jain_fairness,
                        report.rounds,
                    );
                    multitenant.push(report);
                }
                Err(e) => gate.fail(format_args!("{}: {e}", path.display())),
            }
            continue;
        }
        match runner.conformance(&sc) {
            Ok(report) => {
                eprintln!(
                    "[library {:<18}] {:>6} tasklets, {:>4} dead, drained at {:>6.1} h, digest {}",
                    report.scenario,
                    report.total_tasklets,
                    report.dead_tasklets,
                    report.finished_at_us as f64 / 3.6e9,
                    report.trace_digest,
                );
                library.push(report);
            }
            Err(e) => gate.fail(format_args!("{}: {e}", path.display())),
        }
    }

    let mut chaos = Vec::new();
    for seed in CHAOS_SEEDS {
        let sc = chaos_scenario(seed);
        match runner.conformance(&sc) {
            Ok(report) => {
                eprintln!(
                    "[chaos seed {seed:>3}     ] {:>6} tasklets, {:>4} dead, drained at {:>6.1} h, digest {}",
                    report.total_tasklets,
                    report.dead_tasklets,
                    report.finished_at_us as f64 / 3.6e9,
                    report.trace_digest,
                );
                chaos.push(report);
            }
            Err(e) => gate.fail(format_args!("chaos seed {seed}: {e}")),
        }
    }

    let result = ChaosBench {
        chaos_seeds: CHAOS_SEEDS.to_vec(),
        library,
        multitenant,
        chaos,
    };
    let json = serde_json::to_string_pretty(&result).expect("serialises");
    let out_path = write_fresh_results(baseline_path, &json).expect("target/bench is writable");
    println!(
        "== bench_chaos ({} library + {} multi-tenant scenarios, {} chaos seeds) ==",
        result.library.len(),
        result.multitenant.len(),
        result.chaos.len()
    );

    // Digest drift against the committed baseline is informational: the
    // invariants above are the gate, digests just make drift reviewable.
    let fresh = digests(&result);
    for (key, old_digest) in baseline.as_ref().map(digests).unwrap_or_default() {
        match fresh.get(&key) {
            Some(&new_digest) if new_digest != old_digest => {
                eprintln!(
                    "bench_chaos: NOTICE digest drift for {key}: {old_digest} -> {new_digest} \
                     (copy {} over {baseline_path} if intentional)",
                    out_path.display()
                );
            }
            None => {
                eprintln!("bench_chaos: NOTICE baseline digest {key} no longer in the sweep");
            }
            _ => {}
        }
    }
    gate.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../CONFORMANCE_chaos.json");
        let baseline = lobster_bench::gate::read_baseline::<ChaosBench>(path.as_ref())
            .expect("CONFORMANCE_chaos.json parses as a ChaosBench")
            .expect("CONFORMANCE_chaos.json is committed");
        assert_eq!(baseline.chaos_seeds, CHAOS_SEEDS);
    }
}
