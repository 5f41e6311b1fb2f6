//! Benchmark command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload until `--seconds` have passed (at least one rep),
//! checks every rep's outputs, prints each metric as `name value unit`,
//! and ends with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics`. Untraced runs cycle through the campaign family derived
//! from the seed and report the end-to-end metrics; traced runs alternate
//! untraced and traced reps of the seed's own campaign and report the
//! per-layer metrics. Exits 1 when any rep fails a check, 2 on a usage
//! error.

// The counting allocator must implement the unsafe `GlobalAlloc` trait.
#![allow(unsafe_code)]

use perfbench::rep::{self, Digest, Rep};
use perfbench::workload::{campaign_seed, Workload, FAMILY, NAMES};
use perfbench::{per_layer, END_TO_END};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator, counting live bytes and their high-water mark
/// (the same peak-heap proxy `bench_scale` uses).
struct CountingAlloc;

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let size = layout.size() as u64;
            let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Outcome digests recorded for some seeds: `<workload> <seed> <digest>`.
const RECORDED: &str = include_str!("../digests.txt");

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?.to_string();
    let workload = Workload::full(&name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {NAMES:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        name,
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One rep of campaign `seed` with the heap high-water mark over it, in
/// bytes above the live size at its start.
fn measured(
    args: &Args,
    seed: u64,
    journal: &std::path::Path,
    traced: bool,
) -> (Result<Rep, String>, f64) {
    let base = CURRENT.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let rep = rep::run(args.workload, seed, journal, traced);
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    (rep, peak as f64)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Journals live under the working directory, one per process.
    let work = PathBuf::from(".perfbench_tmp");
    let journal = work.join(format!("journal-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut plain: Vec<(Rep, f64)> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut digests: BTreeMap<u64, Digest> = BTreeMap::new();
    loop {
        let mut legs = vec![false];
        if args.trace {
            legs.push(true);
        }
        for is_traced in legs {
            // Traced runs stay on the given seed, so their counts repeat.
            let seed = if args.trace {
                args.seed
            } else {
                campaign_seed(args.seed, attempted % FAMILY)
            };
            attempted += 1;
            let (rep, peak) = measured(&args, seed, &journal, is_traced);
            let mut rep = match rep {
                Ok(r) => {
                    eprintln!(
                        "rep {attempted}{} seed {seed}: setup {:.6}s run {:.6}s peak {:.1}MB",
                        if is_traced { " traced" } else { "" },
                        r.setup_s,
                        r.run_s,
                        peak / 1e6
                    );
                    r
                }
                Err(e) => {
                    eprintln!("perfbench: rep failed: {e}");
                    failed += 1;
                    continue;
                }
            };
            match digests.get(&seed) {
                None => {
                    digests.insert(seed, rep.digest.clone());
                }
                Some(d) if *d != rep.digest => rep.problems.push(format!(
                    "outcome digest of seed {seed} changed between reps: {d} vs {}",
                    rep.digest
                )),
                Some(_) => {}
            }
            if !rep.problems.is_empty() {
                for p in &rep.problems {
                    eprintln!("perfbench: check failed: {p}");
                }
                failed += 1;
            }
            if is_traced {
                traced.push(rep);
            } else {
                plain.push((rep, peak));
            }
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    std::fs::remove_dir_all(&journal).ok();
    std::fs::remove_dir(&work).ok();

    if let Some(d) = digests.get(&args.seed) {
        report_digest(&args, d);
    }
    for (i, rep) in traced.iter().enumerate() {
        for span in &rep.spans {
            eprintln!(
                "span traced-rep={} {} start={:.6}s dur={:.6}s",
                i + 1,
                span.name,
                span.start_s,
                span.dur_s
            );
        }
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let plain_median = |f: &dyn Fn(&(Rep, f64)) -> f64| median(plain.iter().map(f).collect());
    if args.trace {
        let plain_run_s = plain_median(&|(r, _)| r.run_s);
        for (name, unit) in per_layer() {
            let value = if name == "trace.overhead_s" {
                median(traced.iter().map(|r| r.run_s).collect()) - plain_run_s
            } else if name == "trace.run_s" {
                median(traced.iter().map(|r| r.run_s).collect())
            } else {
                let xs: Vec<f64> = traced
                    .iter()
                    .map(|r| r.values.get(&name).copied().unwrap_or(0.0))
                    .collect();
                if unit == "s" || unit == "ns" {
                    median(xs)
                } else {
                    // Counts, sizes and ratios depend on the seed alone.
                    if xs.windows(2).any(|w| w[0] != w[1]) {
                        eprintln!("perfbench: check failed: {name} differs between reps: {xs:?}");
                        failed += 1;
                    }
                    xs.first().copied().unwrap_or(0.0)
                }
            };
            metrics.push((name, value, unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match name {
                "tasklets_per_s" => plain_median(&|(r, _)| r.tasklets as f64 / r.run_s),
                "setup_s" => plain_median(&|(r, _)| r.setup_s),
                "peak_alloc_mb" => plain_median(&|(_, peak)| peak / 1e6),
                _ => unreachable!("END_TO_END names are matched above"),
            };
            metrics.push((name.to_string(), value, unit));
        }
        // The workload's own outcomes, printed for reading (the traced
        // run reports them as per-layer metrics).
        for (name, unit) in [
            ("resume_s", "s"),
            ("journal_mb", "MB"),
            ("jain_fairness", "ratio"),
        ] {
            let xs: Vec<f64> = plain
                .iter()
                .filter_map(|(r, _)| r.values.get(name).copied())
                .collect();
            if !xs.is_empty() {
                println!("{name} {} {unit}", median(xs));
            }
        }
    }

    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Print the outcome digest, and a notice when it differs from the one
/// recorded for this workload and seed.
fn report_digest(args: &Args, digest: &Digest) {
    let line = format!("{} {} {digest}", args.name, args.seed);
    println!("digest {line}");
    let prefix = format!("{} {} ", args.name, args.seed);
    match RECORDED.lines().find(|l| l.starts_with(&prefix)) {
        None => eprintln!("perfbench: notice: no recorded digest for {}", prefix.trim_end()),
        Some(recorded) if recorded == line => {}
        Some(recorded) => eprintln!(
            "perfbench: notice: outcome digest drifted from the recorded one\n  recorded {recorded}\n  now      {line}"
        ),
    }
}
