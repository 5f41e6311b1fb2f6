//! The `lobster` command-line tool.
//!
//! "An execution begins with the main Lobster process that is invoked by
//! the user to initiate a workload. The user provides a configuration
//! file which describes the input data sources and the analysis code"
//! (§3). This binary is that entry point for the reproduction, and the
//! configuration file is a scenario (the format of [`scenario::spec`];
//! the shipped library lives under `scenarios/`):
//!
//! ```text
//! lobster simulate <scenario.json>    run the scenario to its horizon
//!     [--metrics metrics.json] [--dashboard out.html]
//! lobster validate <scenario.json>    check and compile a scenario
//! lobster dashboard <metrics.json>    render the ops dashboard from a
//!     [--out out.html] [--prom out.prom]   committed snapshot
//! ```
//!
//! Exit status: 0 on success, 1 when a file cannot be read, parsed,
//! validated or written, 2 on bad usage.

use lobster::driver::ClusterSim;
use lobster::Session;
use scenario::{compile, Compiled, Scenario};
use simkit::plot::sparkline;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lobster simulate <scenario.json> [--metrics metrics.json] \
         [--dashboard out.html]\n  lobster validate <scenario.json>\n  \
         lobster dashboard <metrics.json> [--out out.html] [--prom out.prom]"
    );
    ExitCode::from(2)
}

/// Split a subcommand's arguments into its one path and its
/// `--key value` options, each key from `allowed` and given once.
/// `None` is bad usage.
fn parse<'a>(
    args: &'a [String],
    allowed: &[&str],
) -> Option<(&'a str, BTreeMap<&'a str, &'a str>)> {
    let (path, rest) = args.split_first()?;
    if path.starts_with("--") {
        return None;
    }
    let mut opts = BTreeMap::new();
    for pair in rest.chunks(2) {
        match pair {
            [key, value]
                if allowed.contains(&key.as_str())
                    && opts.insert(key.as_str(), value.as_str()).is_none() => {}
            _ => return None,
        }
    }
    Some((path, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let allowed: &[&str] = match cmd.as_str() {
        "simulate" => &["--metrics", "--dashboard"],
        "validate" => &[],
        "dashboard" => &["--out", "--prom"],
        _ => return usage(),
    };
    let Some((path, opts)) = parse(rest, allowed) else {
        return usage();
    };
    let opt = |key: &str| opts.get(key).copied();
    let result = match cmd.as_str() {
        "simulate" => simulate(path, opt("--metrics"), opt("--dashboard")),
        "validate" => load(path).map(|(sc, compiled)| {
            let tasklets: u64 = compiled.workflows.iter().map(|w| w.n_tasklets()).sum();
            println!(
                "{path}: ok ({} workload(s), {tasklets} tasklets)",
                sc.workloads.len()
            );
        }),
        _ => dashboard(
            path,
            opt("--out").unwrap_or("dashboard.html"),
            opt("--prom"),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lobster: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Load, validate and compile a single-master scenario file.
fn load(path: &str) -> Result<(Scenario, Compiled), String> {
    let sc = Scenario::load(path).map_err(|e| format!("{path}: {e}"))?;
    if !sc.tenants.is_empty() {
        return Err(format!(
            "{path}: declares {} tenants; lobster runs one master, so it cannot run a tenant roster",
            sc.tenants.len()
        ));
    }
    let compiled = compile(&sc).map_err(|e| format!("{path}: {e}"))?;
    Ok((sc, compiled))
}

fn write(path: &str, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Run the scenario at `path` to its horizon and print what happened,
/// optionally emitting the ops-plane snapshot and dashboard.
fn simulate(
    path: &str,
    metrics_out: Option<&str>,
    dashboard_out: Option<&str>,
) -> Result<(), String> {
    let (sc, compiled) = load(path)?;
    let Compiled {
        cfg,
        params,
        workflows,
    } = compiled;
    println!("scenario  : {}", sc.name);
    println!("  {}", sc.description);
    println!(
        "workloads : {}",
        sc.workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("faults    : {}", sc.faults.len());
    let tasklets: u64 = workflows.iter().map(|w| w.n_tasklets()).sum();
    println!("tasklets  : {tasklets}");

    let mut session = Session::start(ClusterSim::new(cfg.clone(), params.clone(), workflows));
    session.advance(session.horizon(), u64::MAX);
    let report = session.finish();

    if metrics_out.is_some() || dashboard_out.is_some() {
        let snap = lobster::ops::snapshot_from_run(&sc.name, &cfg, &params, &report);
        if let Some(out) = metrics_out {
            write(out, snap.to_json())?;
            println!("wrote metrics snapshot to {out}");
        }
        if let Some(out) = dashboard_out {
            write(out, opsplane::dashboard::render(&snap))?;
            println!("wrote dashboard to {out}");
        }
    }

    println!(
        "\nconcurrent tasks  {}",
        sparkline(&report.timeline.concurrency())
    );
    println!(
        "completions/bin   {}",
        sparkline(&report.timeline.completions())
    );
    println!(
        "failures/bin      {}",
        sparkline(&report.timeline.failures())
    );
    println!(
        "efficiency        {}",
        sparkline(&report.timeline.efficiency())
    );
    println!("\npeak concurrency  {:.0}", report.peak_concurrency);
    println!("tasks completed   {}", report.tasks_completed);
    println!(
        "tasks failed      {} ({} lost to eviction)",
        report.tasks_failed, report.evictions
    );
    println!("merged files      {}", report.merged_files.len());
    println!(
        "finished at       {}",
        report
            .finished_at
            .map_or("ran out of horizon".to_string(), |t| t.to_string())
    );
    println!("\nruntime breakdown:");
    for (phase, h, frac) in report.accounting.table() {
        println!("  {phase:<14} {h:>10.0} h  {:>5.1}%", frac * 100.0);
    }
    if !report.advice.is_empty() {
        println!("\ntroubleshooting advisor:");
        for a in &report.advice {
            println!("  - {a:?}");
        }
    }
    Ok(())
}

/// Render the dashboard (and optionally the Prometheus text) of the
/// snapshot at `path`.
fn dashboard(path: &str, out: &str, prom_out: Option<&str>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let snap = opsplane::MetricsSnapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    snap.validate()
        .map_err(|e| format!("{path}: invalid snapshot: {e}"))?;
    write(out, opsplane::dashboard::render(&snap))?;
    println!("wrote dashboard for run {:?} to {out}", snap.run.name);
    if let Some(prom_out) = prom_out {
        write(prom_out, opsplane::prom::render(&snap))?;
        println!("wrote Prometheus text exposition to {prom_out}");
    }
    Ok(())
}
