//! One repetition of a workload: set up, run, harvest, check.
//!
//! A rep times the calls into the program's public functions and nothing
//! else. Traced reps run the driver under [`Profiled`] and add the
//! per-layer measurements; untraced reps run the plain driver.

use crate::profile::{crash_leg, harvest, primed, Driver, HandlerStats, Profiled, EV_NAMES};
use crate::workload::{dataproc_inputs, scale_inputs, tenancy_config, tenant, Workload};
use batchsim::arbiter::FairShareArbiter;
use lobster::config::JournalPolicy;
use lobster::db::{journal_bytes, LobsterDb};
use lobster::driver::{ClusterSim, RunReport};
use lobster::ops::snapshot_from_run;
use simkit::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tenancy::MultiTenant;

/// Outcome digest of a run: what the simulation did, independent of how
/// fast. The same seed must give the same digest on every rep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub events: u64,
    pub completions: u64,
    pub failures: u64,
    pub evictions: u64,
    pub merged_bytes: u64,
    pub dead_letters: u64,
}

impl Digest {
    pub fn of(r: &RunReport) -> Self {
        Digest {
            events: r.events_delivered,
            completions: r.tasks_completed,
            failures: r.tasks_failed,
            evictions: r.evictions,
            merged_bytes: r.merged_files.iter().map(|f| f.1).sum(),
            dead_letters: r.dead_letters.len() as u64,
        }
    }

    fn add(&mut self, o: &Digest) {
        self.events += o.events;
        self.completions += o.completions;
        self.failures += o.failures;
        self.evictions += o.evictions;
        self.merged_bytes += o.merged_bytes;
        self.dead_letters += o.dead_letters;
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events={} completions={} failures={} evictions={} merged_bytes={} dead_letters={}",
            self.events,
            self.completions,
            self.failures,
            self.evictions,
            self.merged_bytes,
            self.dead_letters
        )
    }
}

/// A coarse span of one rep: a call into the program, or a step of the
/// benchmark's own checks, with its start relative to the rep's start.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub dur_s: f64,
}

/// What one rep measured.
#[derive(Debug)]
pub struct Rep {
    /// Seconds to build the inputs and a primed engine or coordinator.
    pub setup_s: f64,
    /// Seconds from primed engine to harvested report.
    pub run_s: f64,
    /// Campaign tasklets.
    pub tasklets: u64,
    pub digest: Digest,
    /// Failed output checks; empty when the rep is correct.
    pub problems: Vec<String>,
    /// Further named measurements: the workload's own outcomes
    /// (`resume_s`, `journal_mb`, `jain_fairness`) on every rep, and the
    /// per-layer metrics on traced reps.
    pub values: BTreeMap<String, f64>,
    /// Coarse spans in start order, kept in memory until the run ends.
    pub spans: Vec<Span>,
    origin: Instant,
}

impl Rep {
    fn new() -> Self {
        Rep {
            setup_s: 0.0,
            run_s: 0.0,
            tasklets: 0,
            digest: Digest::default(),
            problems: Vec::new(),
            values: BTreeMap::new(),
            spans: Vec::new(),
            origin: Instant::now(),
        }
    }

    /// Close the span `name` that began at `started`; returns its seconds.
    fn span(&mut self, name: &'static str, started: Instant) -> f64 {
        let dur_s = started.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: (started - self.origin).as_secs_f64(),
            dur_s,
        });
        dur_s
    }

    fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Engine and driver metrics from a profiled run whose engine loops
    /// took `loop_s` seconds.
    fn set_handler_stats(&mut self, stats: &HandlerStats, loop_s: f64) {
        let events = stats.events();
        let handler_s = stats.handler_s();
        self.set("engine.events", events as f64);
        self.set("engine.self_s", loop_s - handler_s);
        self.set("engine.ns_per_event", loop_s * 1e9 / events.max(1) as f64);
        self.set("engine.queue_hw", stats.queue_hw as f64);
        self.set("engine.tombstone_hw", stats.tombstone_hw as f64);
        self.set("driver.handler_s", handler_s);
        for (k, name) in EV_NAMES.iter().enumerate() {
            let n = stats.n[k];
            self.set(&format!("driver.{name}.n"), n as f64);
            self.set(
                &format!("driver.{name}.ns"),
                stats.ns[k] as f64 / n.max(1) as f64,
            );
        }
    }

    fn set_snapshot(&mut self, name: &str, inputs: &crate::workload::Inputs, report: &RunReport) {
        let started = Instant::now();
        let json = snapshot_from_run(name, &inputs.0, &inputs.1, report).to_json();
        let snapshot_s = self.span("snapshot", started);
        self.set("ops.snapshot_s", snapshot_s);
        self.set("ops.snapshot_bytes", json.len() as f64);
    }
}

/// Run one rep of `workload`. `journal` is a temporary path the durable
/// workload may create and remove; `traced` selects the profiled driver
/// and the per-layer measurements.
pub fn run(workload: Workload, seed: u64, journal: &Path, traced: bool) -> Result<Rep, String> {
    match (workload, traced) {
        (Workload::Scale { cores }, false) => Ok(scale::<ClusterSim>(seed, cores, false)),
        (Workload::Scale { cores }, true) => Ok(scale::<Profiled>(seed, cores, true)),
        (Workload::DurableDataproc { cores, crash_after }, false) => {
            dataproc::<ClusterSim>(seed, cores, crash_after, journal, false)
        }
        (Workload::DurableDataproc { cores, crash_after }, true) => {
            dataproc::<Profiled>(seed, cores, crash_after, journal, true)
        }
        (Workload::Tenants { tenants, tasklets }, _) => {
            tenants_rep(seed, tenants, tasklets, traced).map_err(|e| e.to_string())
        }
    }
}

fn scale<D: Driver>(seed: u64, cores: u32, traced: bool) -> Rep {
    let mut rep = Rep::new();
    let t0 = Instant::now();
    let inputs = scale_inputs(seed, cores);
    let (cfg, params, wfs) = inputs.clone();
    let horizon = SimTime::ZERO + params.horizon;
    let kind = params.engine;
    rep.tasklets = wfs.iter().map(|w| w.n_tasklets()).sum();
    let mut engine = primed::<D>(ClusterSim::new(cfg, params, wfs), kind);
    rep.setup_s = rep.span("setup", t0);

    let t1 = Instant::now();
    let ended = engine.run_until(horizon);
    let loop_s = rep.span("run", t1);
    let t2 = Instant::now();
    let (report, stats) = harvest(engine, ended);
    let report_s = rep.span("harvest", t2);
    rep.run_s = loop_s + report_s;

    rep.digest = Digest::of(&report);
    rep.check(report.finished_at.is_some(), || {
        "scale campaign did not drain before the horizon".to_string()
    });
    if traced {
        rep.set_handler_stats(&stats, loop_s);
        rep.set("ops.report_s", report_s);
        rep.set_snapshot("scale-20k", &inputs, &report);
    }
    rep
}

fn dataproc<D: Driver>(
    seed: u64,
    cores: u32,
    crash_after: u64,
    journal: &Path,
    traced: bool,
) -> Result<Rep, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let mut rep = Rep::new();
    remove(journal);

    let t0 = Instant::now();
    let inputs = dataproc_inputs(seed, cores);
    let (cfg, params, wfs) = inputs.clone();
    let deadline = SimTime::ZERO + params.horizon;
    let kind = params.engine;
    rep.tasklets = wfs.iter().map(|w| w.n_tasklets()).sum();
    let sim = ClusterSim::durable(cfg, params, wfs, journal).map_err(|e| io("durable", e))?;
    let engine = primed::<D>(sim, kind);
    rep.setup_s = rep.span("setup", t0);

    // Crash leg: the master dies inside its group-commit window.
    let t1 = Instant::now();
    let leg1 = crash_leg(engine, deadline, crash_after);
    let crash_s = rep.span("crash_leg", t1);
    rep.check(leg1.mid_flight, || {
        format!("campaign drained before the crash point ({crash_after} events)")
    });
    let bytes = journal_bytes(journal).map_err(|e| io("journal size", e))?;
    rep.set("journal_mb", bytes as f64 / 1e6);
    if traced {
        rep.set("db.journal_bytes", bytes as f64);
        let started = Instant::now();
        drop(LobsterDb::recover(journal).map_err(|e| io("recover", e))?);
        let recover_s = rep.span("recover", started);
        rep.set("db.recover_s", recover_s);
        let started = Instant::now();
        let tail = tail_records(journal).map_err(|e| io("tail", e))?;
        rep.span("tail_scan", started);
        rep.set("db.tail_records", tail as f64);
    }

    // Restart: replay the journal and reconcile in-flight work.
    let (cfg, params, wfs) = inputs.clone();
    let t2 = Instant::now();
    let sim = ClusterSim::resume(cfg, params, wfs, journal).map_err(|e| io("resume", e))?;
    let mut engine = primed::<D>(sim, kind);
    let resume_s = rep.span("resume", t2);
    rep.set("resume_s", resume_s);

    // Second leg to the end of the campaign.
    let t3 = Instant::now();
    let ended = engine.run_until(deadline);
    let loop_s = rep.span("run", t3);
    let t4 = Instant::now();
    let (report, stats2) = harvest(engine, ended);
    let report_s = rep.span("harvest", t4);
    rep.run_s = crash_s + resume_s + loop_s + report_s;

    rep.digest = Digest::of(&report);
    rep.digest.events += leg1.delivered;
    rep.check(report.finished_at.is_some(), || {
        "resumed campaign did not drain before the horizon".to_string()
    });
    let t5 = Instant::now();
    let db = LobsterDb::recover(journal).map_err(|e| io("final recover", e))?;
    let total: u64 = inputs.2.iter().map(|w| db.total_tasklets(&w.name)).sum();
    let (done, dead) = (db.total_done_tasklets(), db.total_dead_tasklets());
    rep.check(done + dead == total && total == rep.tasklets, || {
        format!("cold recover: done {done} + dead {dead} != total {total}")
    });
    let running = db.running_tasks().len();
    rep.check(running == 0, || {
        format!("cold recover: {running} tasks still running")
    });
    drop(db);
    rep.span("check", t5);

    if traced {
        // The same first leg on an in-memory master: the event stream is
        // byte-identical, so the handler-time difference is the journal's.
        let started = Instant::now();
        let (cfg, params, wfs) = inputs.clone();
        let engine = primed::<Profiled>(ClusterSim::new(cfg, params, wfs), kind);
        let mem = crash_leg(engine, deadline, crash_after).stats;
        rep.span("in_memory_leg", started);
        let mut stats = leg1.stats;
        rep.check(mem.n == stats.n, || {
            "in-memory first leg delivered a different event stream".to_string()
        });
        rep.set("db.journal_s", stats.handler_s() - mem.handler_s());
        let recover_s = rep.values["db.recover_s"];
        rep.set("resume.reconcile_s", resume_s - recover_s);
        stats.merge(&stats2);
        rep.set_handler_stats(&stats, crash_s + loop_s);
        rep.set("ops.report_s", report_s);
        rep.set_snapshot("durable-dataproc", &inputs, &report);
    }
    remove(journal);
    Ok(rep)
}

fn tenants_rep(
    seed: u64,
    n: usize,
    tasklets: u64,
    traced: bool,
) -> Result<Rep, tenancy::TenancyError> {
    let mut rep = Rep::new();
    let t0 = Instant::now();
    let roster: Vec<_> = (0..n).map(|i| tenant(seed, i, tasklets)).collect();
    rep.tasklets = roster
        .iter()
        .flat_map(|t| &t.workflows)
        .map(|w| w.n_tasklets())
        .sum();
    let mt = MultiTenant::new(tenancy_config(seed), roster)?;
    rep.setup_s = rep.span("setup", t0);

    let t1 = Instant::now();
    let report = mt.run()?;
    rep.run_s = rep.span("run", t1);

    for t in &report.tenants {
        rep.digest.add(&Digest::of(&t.report));
        rep.check(t.report.finished_at.is_some(), || {
            format!("tenant {} did not drain before the horizon", t.name)
        });
    }
    rep.check(report.tenants.len() == n, || {
        format!("{} of {n} tenants reported", report.tenants.len())
    });
    rep.check(report.jain_fairness >= 0.9, || {
        format!("jain_fairness {} < 0.9", report.jain_fairness)
    });
    rep.set("jain_fairness", report.jain_fairness);

    if traced {
        let rounds = report.rounds;
        rep.set("tenancy.rounds", rounds as f64);
        rep.set("tenancy.events", rep.digest.events as f64);
        rep.set("tenancy.round_ns", rep.run_s * 1e9 / rounds.max(1) as f64);

        // The arbiter alone: the workload's round count of allocations
        // over n tenants that each want their full target.
        let cfg = tenancy_config(seed);
        let mut arbiter = FairShareArbiter::new(cfg.arbiter);
        let mut demands = Vec::with_capacity(n);
        for i in 0..n {
            arbiter.register(1.0);
            demands.push(tenant(seed, i, tasklets).cfg.workers.target_cores);
        }
        let available = cfg.pool.total_cores - cfg.pool.owner_mean as u32;
        let started = Instant::now();
        for _ in 0..rounds {
            black_box(arbiter.allocate(black_box(available), black_box(&demands)));
        }
        let allocate_s = rep.span("allocate", started);
        rep.set(
            "arbiter.allocate_ns",
            allocate_s * 1e9 / rounds.max(1) as f64,
        );

        // Snapshot lowering, as the coordinator does it for each tenant.
        let started = Instant::now();
        let mut bytes = 0;
        for (i, t) in report.tenants.iter().enumerate() {
            let spec = tenant(seed, i, tasklets);
            bytes += snapshot_from_run(&t.name, &spec.cfg, &spec.params, &t.report)
                .to_json()
                .len();
        }
        let snapshot_s = rep.span("snapshot", started);
        rep.set("ops.snapshot_s", snapshot_s);
        rep.set("ops.snapshot_bytes", bytes as f64);

        let started = Instant::now();
        let json = report.federated.to_json();
        let federate_s = rep.span("federate", started);
        rep.set("tenancy.federate_s", federate_s);
        rep.set("tenancy.federated_bytes", json.len() as f64);
    }
    Ok(rep)
}

/// Records a recovery must replay past the last snapshot. Read from a
/// copy opened without compaction, so the journal the resume replays is
/// left exactly as the crash left it.
fn tail_records(journal: &Path) -> std::io::Result<u64> {
    let copy = journal.with_extension("tail");
    remove(&copy);
    std::fs::create_dir_all(&copy)?;
    for entry in std::fs::read_dir(journal)? {
        let entry = entry?;
        std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
    }
    let records =
        LobsterDb::open_with_policy(&copy, &JournalPolicy::never())?.records_since_snapshot();
    remove(&copy);
    Ok(records)
}

fn remove(path: &Path) {
    std::fs::remove_dir_all(path).ok();
    std::fs::remove_file(path).ok();
}
