//! The paper's evaluation, one function per figure or ablation. Each
//! runs one seeded experiment and returns a typed result: the numbers
//! its report shows, with the paper's shape claims as named boolean
//! verdicts. `Display` renders the report that the `paper` binary prints
//! and `docs/outputs/<name>.txt` captures; `tests/paper.rs` asserts the
//! verdicts. Hours are simulated hours. The two §6 production runs take
//! a `scale` that shrinks the fleet, pool, dataset and uplink together
//! (1.0 is the paper's); Figures 8, 9 and 10 are three views of one
//! data-processing run ([`data_processing_run`]).

use crate::panel;
use batchsim::availability::{AvailabilityModel, EvictionScenario};
use batchsim::log::{EvictionProfile, LeaveReason, WorkerLog};
use cvmfssim::catalog::ReleaseCatalog;
use cvmfssim::parrot::{CacheMode, SetupPlan};
use cvmfssim::squid::{Squid, SquidConfig};
use gridstore::dbs::{DatasetSpec, Dbs};
use lobster::access::DataAccessMode;
use lobster::config::{LobsterConfig, WorkflowConfig};
use lobster::driver::SimParams;
use lobster::merge::MergeMode::{self, Hadoop, Interleaved, Sequential};
use lobster::tasksize::{sweep, TaskSizeConfig};
use lobster::{ClusterSim, RunReport, Session, Workflow};
use simkit::plot::bar_chart;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use simnet::outage::{Outage, OutageSchedule};
use simnet::units::fmt_bytes;
use std::fmt;
use wqueue::task::FailureCode::EnvSetup;

/// The analysis datasets.
const TTJETS: &str = "/TTJets/Spring14/AOD";
const SINGLEMU: &str = "/SingleMu/Run2012A/AOD";

/// Run a master to its horizon and harvest the report.
fn simulate(cfg: LobsterConfig, params: SimParams, workflows: Vec<Workflow>) -> RunReport {
    let mut session = Session::start(ClusterSim::new(cfg, params, workflows));
    session.advance(session.horizon(), u64::MAX);
    session.finish()
}

/// The default configuration with `seed` and `target_cores` on 8-core workers.
fn config(seed: u64, target_cores: u32) -> LobsterConfig {
    let mut cfg = LobsterConfig::default();
    cfg.seed = seed;
    cfg.workers.target_cores = target_cores;
    cfg.workers.cores_per_worker = 8;
    cfg
}

/// A dedicated pool of `total_cores` (no owner demand, no outages) and
/// a horizon of `horizon_h` hours.
fn dedicated(total_cores: u32, horizon_h: u64) -> SimParams {
    let mut params = SimParams::default();
    params.availability = AvailabilityModel::Dedicated;
    params.horizon = SimDuration::from_hours(horizon_h);
    params.pool.total_cores = total_cores;
    params.pool.owner_mean = 0.0;
    params.pool.noise = 0.0;
    params
}

/// Generate dataset `name` (`files` files of `bytes` on average, 250
/// lumis of 300 events each) and decompose it for `cfg`'s first
/// workflow: the catalogue publishes what it generates, so the lookup
/// yields exactly one workflow.
fn dataset(cfg: &LobsterConfig, name: &str, files: usize, bytes: u64, seed: u64) -> Vec<Workflow> {
    let mut spec = DatasetSpec::default();
    spec.n_files = files;
    spec.mean_file_bytes = bytes;
    let mut dbs = Dbs::new();
    dbs.generate(name, spec, seed);
    let decompose = |ds| Workflow::from_dataset(&cfg.workflows[0], ds);
    dbs.query(name).into_iter().map(decompose).collect()
}

/// Hours until `t`, or NaN for a run that never finished.
fn hours(t: Option<SimTime>) -> f64 {
    t.map_or(f64::NAN, SimTime::as_hours_f64)
}

/// Figure 2: the eviction profile in 2 h bins to 48 h. `first` (the first
/// bin with data) and `last` (the last with evictions) are `(hours,
/// P(evict), binomial error)`; `max_err` is the largest error of any bin.
pub struct Eviction {
    pub profile: EvictionProfile,
    pub first: (f64, f64, f64),
    pub last: (f64, f64, f64),
    pub max_err: f64,
    /// P(evict) falls from `first` to `last`.
    pub falls: bool,
    /// Errors grow as the long bins thin out: `max_err` exceeds `first`'s.
    pub errors_grow: bool,
}

/// Figure 2 — "Probability of worker eviction as a function of its
/// availability time, taken from physics analysis runs performed over
/// several months. Uncertainties are estimated using the binomial
/// model."
///
/// The pipeline is reproduced, not just the curve: about four months of
/// runs of widely varying length (hours to days) against the
/// opportunistic availability model. Workers join throughout a run as
/// the factory replaces evicted ones, and any worker still alive when
/// the run ends is *retired*, not evicted: the censoring that dilutes
/// the eviction probability and thins out the long bins. The estimator
/// then bins availability intervals and attaches binomial errors.
pub fn fig02_eviction() -> Eviction {
    let model = AvailabilityModel::notre_dame();
    let mut rng = SimRng::new(20150217);
    let mut log = WorkerLog::new();
    let mut worker_id = 0u64;
    for run in 0..120u64 {
        let run_len = SimDuration::from_hours(2 + rng.below(70));
        let t0 = SimTime::from_secs(run * 700_000);
        let run_end = t0 + run_len;
        for _ in 0..1_200 {
            let join = t0 + SimDuration::from_secs(rng.below(run_len.as_micros() / 1_000_000));
            let survival = model.sample(&mut rng);
            worker_id += 1;
            log.join(worker_id, join);
            if join + survival < run_end {
                log.leave(worker_id, join + survival, LeaveReason::Evicted);
            } else {
                log.leave(worker_id, run_end, LeaveReason::Retired);
            }
        }
    }
    let profile = log.eviction_profile(SimDuration::from_hours(2), SimDuration::from_hours(48));
    let rows = profile.rows();
    let first = rows.iter().find(|r| r.2 > 0.0 || r.1 > 0.0);
    let first = first.copied().unwrap_or_default();
    let last = rows.iter().rev().find(|r| r.1 > 0.0);
    let last = last.copied().unwrap_or_default();
    let max_err = rows.iter().map(|r| r.2).fold(0.0_f64, f64::max);
    let (falls, errors_grow) = (last.1 < first.1, max_err > first.2);
    Eviction {
        profile,
        first,
        last,
        max_err,
        falls,
        errors_grow,
    }
}

impl fmt::Display for Eviction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rows = String::new();
        for (center, est) in self.profile.bins.iter().filter(|(_, e)| e.trials > 0) {
            let (h, p, err, n) = (center.as_hours_f64(), est.p, est.std_err, est.trials);
            let bar = "#".repeat((p * 60.0).round() as usize);
            rows += &format!("{h:>12.1} {p:>10.3} {err:>10.3} {n:>8}  {bar}\n");
        }
        let ((h0, p0, err0), (h1, p1, err1)) = (self.first, self.last);
        let max_err = self.max_err;
        writeln!(
            f,
            "== Figure 2: worker eviction probability vs availability time ==

   avail (h)   P(evict)  ± (binom)  workers  
{rows}
-- shape check (paper: the eviction probability varies with availability
   time, and binomial errors grow where the long bins run out of workers) --
P(evict | ~{h0:.0}h) = {p0:.3} ± {err0:.3}
P(evict | ~{h1:.0}h) = {p1:.3} ± {err1:.3}
largest binomial error: {max_err:.3} (in a thin bin)"
        )
    }
}

/// Figure 3: efficiency against task length (`hours`) with no eviction,
/// a constant eviction hazard of 0.1/h, and the observed (Figure 2)
/// availability. Peaks are `(hours, efficiency)`; `max_gap` is the
/// largest gap between the two eviction curves.
pub struct TaskSize {
    pub hours: Vec<f64>,
    pub no_eviction: Vec<f64>,
    pub constant: Vec<f64>,
    pub observed: Vec<f64>,
    pub constant_peak: (f64, f64),
    pub observed_peak: (f64, f64),
    pub max_gap: f64,
}

/// Figure 3 — "Efficiency, calculated as the ratio of effective
/// processing time to total time, as a function of the average task
/// length for the simulated processing of 100,000 tasklets and assuming
/// a constant probability of eviction (dotted), a probability derived
/// from observation (dashed), or no eviction (solid)."
///
/// The paper's exact parameters: 8,000 workers, 5 min per-worker and
/// 20 min per-task overhead, tasklets ~ N(10, 5) min. Expected shape:
/// both eviction curves peak near 70 % around 1 h tasks, and the
/// no-eviction curve rises toward 1.
pub fn fig03_tasksize() -> TaskSize {
    let cfg = TaskSizeConfig::default();
    let hours = vec![0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0];
    let curve = |scenario| -> Vec<f64> {
        let points = sweep(&cfg, &scenario, &hours, 3);
        points.iter().map(|p| p.efficiency).collect()
    };
    let constant = curve(EvictionScenario::ConstantHazard { per_hour: 0.1 });
    let observed = curve(EvictionScenario::Observed(AvailabilityModel::notre_dame()));
    let peak = |curve: &[f64]| {
        let best = hours.iter().zip(curve).max_by(|a, b| a.1.total_cmp(b.1));
        best.map_or((0.0, 0.0), |(h, e)| (*h, *e))
    };
    let gaps = constant.iter().zip(&observed).map(|(c, o)| (c - o).abs());
    TaskSize {
        no_eviction: curve(EvictionScenario::None),
        constant_peak: peak(&constant),
        observed_peak: peak(&observed),
        max_gap: gaps.fold(0.0_f64, f64::max),
        hours,
        constant,
        observed,
    }
}

impl fmt::Display for TaskSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let row = |(i, h): (usize, &f64)| {
            let (n, c, o) = (self.no_eviction[i], self.constant[i], self.observed[i]);
            format!("{h:>10.2} {n:>14.3} {c:>14.3} {o:>14.3}\n")
        };
        let rows: String = self.hours.iter().enumerate().map(row).collect();
        let ((h_const, e_const), (h_obs, e_obs)) = (self.constant_peak, self.observed_peak);
        let at_10h = self.no_eviction.last().copied().unwrap_or_default();
        writeln!(
            f,
            "== Figure 3: efficiency vs task length (100k tasklets, 8k workers) ==

  task (h)    no eviction     constant p       observed
{rows}
-- shape check --
constant-p peak: {e_const:.3} at {h_const:.2} h   (paper: ≈0.70 at ≈1 h)
observed  peak: {e_obs:.3} at {h_obs:.2} h   (paper: ≈0.70 at ≈1 h)
no-eviction at 10 h: {at_10h:.3}              (paper: asymptotically → 1)"
        )
    }
}

/// Figure 5: mean task overhead against clients sharing one proxy, as
/// `(clients, cold minutes, hot minutes)` points. The theoretical knee is
/// the squid's bandwidth over its per-client cap; the observed one is the
/// first client count whose hot overhead exceeds 1.5× the first point's.
pub struct ProxyScaling {
    pub cold_bytes: u64,
    pub hot_bytes: u64,
    pub points: Vec<(usize, f64, f64)>,
    pub theoretical_knee: f64,
    pub observed_knee: Option<usize>,
}

/// Figure 5 — "Mean task overhead times as a function of number of
/// tasks sharing one proxy cache, for both cold and hot worker caches.
/// One proxy cache can support approximately 1000 hot worker caches."
///
/// N clients start their environment setup at once against one squid;
/// the mean completion time is the task overhead. Below the knee
/// (`bandwidth / per_client_cap` ≈ 1000) the per-client cap dominates
/// and overhead is flat; beyond it everyone slows down.
pub fn fig05_proxy_scaling() -> ProxyScaling {
    let catalog = ReleaseCatalog::cmssw_default(5);
    let (cold, hot) = (catalog.total_bytes(), catalog.hot_bytes());
    let sweep = [50usize, 100, 250, 500, 750, 1000, 1500, 2000, 3000, 4000];
    let points = sweep.map(|n| (n, overhead_mins(n, cold), overhead_mins(n, hot)));
    let observed_knee = points.iter().find(|p| p.2 > points[0].2 * 1.5).map(|p| p.0);
    ProxyScaling {
        cold_bytes: cold,
        hot_bytes: hot,
        points: points.to_vec(),
        theoretical_knee: Squid::default_sized().knee_clients(),
        observed_knee,
    }
}

/// Mean time for `n` simultaneous fetches of `bytes` through one squid,
/// over the fetches it accepts (its timeout accepts every one).
fn overhead_mins(n: usize, bytes: u64) -> f64 {
    let mut cfg = SquidConfig::default();
    cfg.timeout = SimDuration::from_hours(100); // measure, don't reject
    let mut squid = Squid::new(cfg);
    let accepted = (0..n).filter(|_| squid.request(SimTime::ZERO, bytes).is_ok());
    let accepted = accepted.count();
    let mut total_mins = 0.0;
    while let Some((when, _)) = squid.next_completion() {
        let done = squid.completions(when);
        total_mins += done.len() as f64 * when.as_secs_f64() / 60.0;
    }
    total_mins / accepted as f64
}

impl fmt::Display for ProxyScaling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (cold, hot) = (fmt_bytes(self.cold_bytes), fmt_bytes(self.hot_bytes));
        let rows: String = (self.points.iter())
            .map(|(n, cold, hot)| format!("{n:>10} {cold:>16.1} {hot:>16.2}\n"))
            .collect();
        let (theory, knee) = (self.theoretical_knee, self.observed_knee);
        let knee = knee.map_or("beyond sweep".into(), |n| n.to_string());
        writeln!(
            f,
            "== Figure 5: mean task overhead vs tasks sharing one proxy ==

cold working set: {cold} | hot revalidation: {hot}

   clients       cold (min)        hot (min)
{rows}
-- shape check --
theoretical knee: {theory:.0} clients (paper: ≈1000)
observed hot overhead departs from flat at: {knee} clients"
        )
    }
}

/// A node's cold-start plan for 8 tasks per worker and a working set of
/// `ws` bytes, with its wall clock at 1.25 MB/s per squid stream and
/// 12.5 MB/s per node.
fn cold_start(mode: CacheMode, workers_per_node: u32, ws: u64) -> (SetupPlan, f64) {
    let plan = SetupPlan::plan(mode, 8, workers_per_node, ws);
    let secs = plan.wall_clock_secs(1.25e6, 12.5e6);
    (plan, secs)
}

/// Figure 6: each cache sharing mode's node cold start. The shape check
/// compares one worker per node: cold-start seconds of the alien, locked
/// and per-task caches, and the per-task caches' bytes over the alien's.
/// `real_fetches` counts a real `WorkerCache`'s fetches of one release.
pub struct CacheModes {
    pub working_set: u64,
    pub real_fetches: usize,
    pub alien_s: f64,
    pub locked_s: f64,
    pub per_task_s: f64,
    pub per_task_bytes_ratio: u64,
    /// The alien cache starts faster than both pathologies.
    pub alien_fastest: bool,
    /// Per-task caches pull exactly 8× the alien cache's bytes.
    pub per_task_pulls_8x: bool,
}

/// Figure 6 — the five ways the Parrot/CVMFS cache can be shared on a
/// node: (a) one locked cache, (b) per-task caches, (c) per-condor-job
/// caches, (d) an alien cache per worker, (e) an alien cache per node.
/// This quantifies each mode's cold-start cost for the paper's
/// configuration (8-core workers, 1.5 GB working set). `real_fetches` is
/// the single-fetch guarantee behind modes (d)/(e) as measured on the
/// real concurrent cache; the caller races the threads.
pub fn fig06_cache_modes(real_fetches: usize) -> CacheModes {
    let ws = ReleaseCatalog::cmssw_default(6).total_bytes();
    let (alien, alien_s) = cold_start(CacheMode::AlienShared, 1, ws);
    let (per_task, per_task_s) = cold_start(CacheMode::PerTask, 1, ws);
    let locked_s = cold_start(CacheMode::SingleLocked, 1, ws).1;
    let (per_task_bytes, alien_bytes) = (per_task.total_bytes(), alien.total_bytes());
    CacheModes {
        working_set: ws,
        real_fetches,
        alien_s,
        locked_s,
        per_task_s,
        per_task_bytes_ratio: per_task_bytes / alien_bytes.max(1),
        alien_fastest: alien_s < locked_s && alien_s < per_task_s,
        per_task_pulls_8x: per_task_bytes == 8 * alien_bytes,
    }
}

impl fmt::Display for CacheModes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Figure 6: cache sharing modes — node cold-start cost ==
(8 tasks per worker; working set {})

                          mode    streams       copies   bytes pulled   cold (min)",
            fmt_bytes(self.working_set)
        )?;
        for per_node in [1, 2] {
            writeln!(f, "-- {per_node} worker(s) per node --")?;
            for mode in CacheMode::ALL {
                let (plan, secs) = cold_start(mode, per_node, self.working_set);
                let (l, s, c) = (mode.label(), plan.streams, plan.copies);
                let (b, m) = (fmt_bytes(plan.total_bytes()), secs / 60.0);
                writeln!(f, "{l:>30} {s:>10} {c:>12} {b:>14} {m:>12.1}")?;
            }
        }
        writeln!(
            f,
            "
real WorkerCache: 8 concurrent slots, release fetched {} time(s) (alien-cache guarantee: 1)

-- shape check (paper: the alien cache beats both pathologies — the
   write-lock serialisation of (a) and the N× duplicated pulls of (b)/(c)) --
alien {:.0}s vs locked {:.0}s vs per-task {:.0}s
alien fastest: {}
per-task pulls {}× the bytes of alien: {}",
            self.real_fetches,
            self.alien_s,
            self.locked_s,
            self.per_task_s,
            self.alien_fastest,
            self.per_task_bytes_ratio,
            self.per_task_pulls_8x
        )
    }
}

/// Figure 4: streaming (XrootD) against staging (Chirp).
pub struct AccessModes {
    pub streaming: RunReport,
    pub staging: RunReport,
    pub staging_slower: bool,
    pub staging_lower_util: bool,
}

/// A Figure 4 row: mean processing (CPU) and overhead (I/O and WQ
/// staging) hours per task, hours until all work was done, and the CPU
/// share of all task time.
fn access_row(run: &RunReport) -> [f64; 4] {
    let (acc, n) = (&run.accounting, run.tasks_completed as f64);
    let overhead = (acc.io + acc.wq_stage_in + acc.wq_stage_out) / n;
    let util = acc.cpu / (acc.cpu + acc.io + acc.wq_stage_in + acc.wq_stage_out);
    [acc.cpu / n, overhead, hours(run.finished_at), util]
}

/// Figure 4 — "The overall runtime for two different data access
/// methods split into data processing and general overhead. Staging of
/// files before and after execution results in less CPU utilization but
/// overall runtime longer than streaming the data into the task as it
/// runs."
///
/// Two identical small runs differ only in the access mode. The WAN is
/// scaled with the small fleet, as in the Figure 10 scenario.
pub fn fig04_data_access() -> AccessModes {
    let run = |access| {
        let mut cfg = config(404, 256);
        cfg.access = access;
        cfg.infra.wan_gbits = 0.256;
        let wfs = dataset(&cfg, TTJETS, 400, 1_400_000_000, 9);
        simulate(cfg, dedicated(512, 200), wfs)
    };
    let (streaming, staging) = (run(DataAccessMode::Stream), run(DataAccessMode::StageChirp));
    let ([_, _, stream_h, stream_util], [_, _, stage_h, stage_util]) =
        (access_row(&streaming), access_row(&staging));
    AccessModes {
        staging_slower: stage_h > stream_h,
        staging_lower_util: stage_util < stream_util,
        streaming,
        staging,
    }
}

impl fmt::Display for AccessModes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let row = |r| {
            let [p, o, t, u] = access_row(r);
            format!("{p:>16.3} {o:>16.3} {t:>14.2} {u:>10.3}")
        };
        let (stream, stage) = (row(&self.streaming), row(&self.staging));
        writeln!(
            f,
            "== Figure 4: data access methods compared ==

                  mode   processing (h)     overhead (h)    runtime (h)   cpu util
    streaming (xrootd) {stream}
       staging (chirp) {stage}

-- shape check (paper: staging has lower CPU utilisation and longer
   overall runtime than streaming) --
staging runtime  > streaming runtime : {}
staging cpu util < streaming cpu util: {}",
            self.staging_slower, self.staging_lower_util
        )
    }
}

/// Figure 7: one run per mode, sequential, Hadoop and interleaved.
pub struct Merging {
    pub runs: [(MergeMode, RunReport); 3],
    /// Interleaved finishes first, then Hadoop, then sequential.
    pub ordered: bool,
}

/// Figure 7 — "Number of finished analysis and merge tasks as a
/// function of time for the sequential, hadoop, and interleaved merging
/// modes. ... sequential merging takes the longest, and suffers from a
/// long-tail effect ... Merging via Hadoop is more efficient and has a
/// shorter tail. Interleaved merging is less efficient in use of
/// resources, but completes faster overall because it can be done
/// concurrently with analysis."
///
/// Merge-heavy outputs (40 MB per tasklet): 320 GB of small files make
/// the merging strategy visible in the completion timeline. Merge tasks
/// read their inputs from the local Chirp server, not over the WAN, so
/// sequential merging pays no WAN re-read penalty: its tail is only the
/// merges that wait for processing to end. As modelled, the three modes
/// finish within 0.2 h of each other and `ordered` is false:
/// EXPERIMENTS.md records the figure as not reproduced.
pub fn fig07_merging() -> Merging {
    let run = |mode: MergeMode| {
        let mut cfg = config(7, 512);
        cfg.merge = mode;
        cfg.infra.wan_gbits = 0.5;
        cfg.workflows[0].output_bytes_per_tasklet = 40_000_000;
        let wfs = dataset(&cfg, SINGLEMU, 800, 700_000_000, 11);
        let mut params = dedicated(1024, 400);
        params.hadoop_rate = 30e6; // in-cluster Hadoop merge bandwidth per reducer
        (mode, simulate(cfg, params, wfs))
    };
    let runs = [Sequential, Hadoop, Interleaved].map(run);
    let [seq, had, int] = runs.each_ref().map(|(_, r)| hours(r.finished_at));
    let ordered = int < had && had < seq;
    Merging { runs, ordered }
}

impl fmt::Display for Merging {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Figure 7: merging modes compared ==")?;
        writeln!(f, "(one column = 30 simulated minutes)\n")?;
        for (mode, r) in &self.runs {
            writeln!(
                f,
                "--- {} ---\n{}\n{}\nmerges: {}   merged files: {}   all work done at: {:.1} h\n",
                mode.label(),
                panel("analysis tasks / bin", &r.analysis_done.sums()),
                panel("merge tasks / bin", &r.merge_done.sums()),
                r.merges_completed,
                r.merged_files.len(),
                hours(r.finished_at)
            )?;
        }
        writeln!(
            f,
            "-- shape check (paper: sequential slowest with long tail; hadoop
   shorter tail; interleaved completes fastest overall) --"
        )?;
        for (mode, r) in &self.runs {
            writeln!(f, "{:>12}: {:.1} h", mode.label(), hours(r.finished_at))?;
        }
        writeln!(f, "interleaved < hadoop < sequential : {}", self.ordered)
    }
}

/// Ablation: static ~1 h tasks against the §8 controller, as `(mean
/// worker lifetime hours, static run, adaptive run)` for 2 h, then 6 h.
pub struct AdaptiveSizing {
    pub regimes: [(u64, RunReport, RunReport); 2],
    /// Under 2 h lifetimes the controller loses less work.
    pub hostile_wins: bool,
    /// Under 6 h lifetimes it loses within 0.05 of static sizing.
    pub benign_within_noise: bool,
}

/// The failed share of all task time: the work lost to evictions.
fn lost_frac(run: &RunReport) -> f64 {
    run.accounting.failed / run.accounting.total()
}

/// Ablation — adaptive task sizing under a shifting eviction regime.
///
/// §8 (future work): "automatic performance optimization through
/// dynamic adjustment of task size in the face of changing eviction
/// rates". A hostile pool (short worker lifetimes) is processed twice:
/// once with the paper's static ~1 h tasks, once with the §8 controller
/// enabled. The controller should shrink tasks, losing less work per
/// eviction.
pub fn ablation_adaptive() -> AdaptiveSizing {
    let run = |adaptive: bool, lifetime_h: u64| {
        let mut cfg = config(77, 1024);
        cfg.infra.wan_gbits = 1.0;
        let wfs = dataset(&cfg, TTJETS, 2_000, 1_000_000_000, 6);
        let mut params = dedicated(2048, 500);
        let mean = SimDuration::from_hours(lifetime_h);
        params.availability = AvailabilityModel::Exponential { mean };
        params.adaptive = adaptive;
        // Match the controller's overhead constant to this environment's
        // actual per-task overhead (sandbox + stream open + collection).
        params.adaptive_cfg.per_task_overhead = SimDuration::from_secs(90);
        simulate(cfg, params, wfs)
    };
    let regimes = [2, 6].map(|h| (h, run(false, h), run(true, h)));
    let [(_, fixed2, adapt2), (_, fixed6, adapt6)] = &regimes;
    AdaptiveSizing {
        hostile_wins: lost_frac(adapt2) < lost_frac(fixed2),
        benign_within_noise: (lost_frac(adapt6) - lost_frac(fixed6)).abs() <= 0.05,
        regimes,
    }
}

impl fmt::Display for AdaptiveSizing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rows = String::new();
        for (lifetime, fixed, adaptive) in &self.regimes {
            rows += &format!("-- mean worker lifetime {lifetime} h --\n");
            for (label, r) in [("static 6", fixed), ("adaptive", adaptive)] {
                let (m, l) = (hours(r.finished_at), lost_frac(r));
                let (e, s) = (r.evictions, r.final_task_size);
                rows += &format!("{label:>12} {m:>14.1} {e:>12} {l:>12.3} {s:>12}\n");
            }
        }
        let (_, fixed, adaptive) = &self.regimes[0];
        let (adaptive, fixed) = (lost_frac(adaptive), lost_frac(fixed));
        let (hostile, benign) = (self.hostile_wins, self.benign_within_noise);
        writeln!(
            f,
            "== Ablation: adaptive task sizing (§8) under heavy eviction ==

      sizing   makespan (h)    evictions    lost frac   final size
{rows}
-- shape check: adaptive sizing wins clearly when the static choice
   is wrong for the regime (2 h lifetimes), and stays within noise of
   a static size that is already near-optimal (6 h lifetimes) --
hostile regime: adaptive lost {adaptive:.3} < static {fixed:.3}: {hostile}
benign regime: |adaptive − static| lost ≤ 0.05: {benign}"
        )
    }
}

/// Ablation: the Parrot alien cache on, and off.
pub struct AlienCache {
    pub on: RunReport,
    pub off: RunReport,
    /// The alien cache shortens the run.
    pub faster: bool,
    /// The alien cache spends fewer task I/O hours, setup included.
    pub less_io: bool,
}

/// Ablation — Parrot alien cache on/off at scale.
///
/// §4.3: without the alien cache every task populates its own cache,
/// multiplying squid traffic by the tasks-per-worker factor; with it
/// the working set crosses the proxy once per worker and subsequent
/// tasks run hot. This compares total environment-setup cost and
/// makespan for the same workload behind one squid.
pub fn ablation_alien_cache() -> AlienCache {
    let run = |alien: bool| {
        let mut cfg = config(5, 1024);
        cfg.infra.alien_cache = alien;
        cfg.infra.n_squids = 1;
        cfg.infra.wan_gbits = 1.0;
        let wfs = dataset(&cfg, TTJETS, 2_000, 1_150_000_000, 4);
        simulate(cfg, dedicated(2048, 300), wfs)
    };
    let (on, off) = (run(true), run(false));
    AlienCache {
        faster: hours(on.finished_at) < hours(off.finished_at),
        less_io: on.accounting.io < off.accounting.io,
        on,
        off,
    }
}

impl fmt::Display for AlienCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let row = |r: &RunReport| (r.accounting.io, hours(r.finished_at), r.tasks_failed);
        let ((io0, m0, n0), (io1, m1, n1)) = (row(&self.on), row(&self.off));
        writeln!(
            f,
            "== Ablation: alien cache on/off (1024 cores, one squid) ==

   alien cache     task I/O (h)   makespan (h)   failures
            on {io0:>16.0} {m0:>14.2} {n0:>10}
           off {io1:>16.0} {m1:>14.2} {n1:>10}

-- shape check (paper: alien cache activated 'with good results') --
makespan(on) < makespan(off): {}
setup+I/O(on) < setup+I/O(off): {}",
            self.faster, self.less_io
        )
    }
}

/// Ablation: `(connections, mean per-task stage minutes, makespan
/// hours)` for Chirp connection limits 8, 16, 32, 64 and 128.
pub struct ChirpSweep {
    pub rows: Vec<(u32, f64, f64)>,
    /// 64 connections stage faster than 8.
    pub stage_relieved: bool,
    /// 64 connections finish sooner than 8.
    pub makespan_relieved: bool,
}

/// Ablation — Chirp connection-limit sweep.
///
/// §5: "Increased stage-in and stage-out times suggest an overloaded
/// Chirp server, which can be corrected by adjusting the number of
/// concurrent connections permitted." A simulation workload (all I/O
/// through Chirp) is run with increasing connection limits.
pub fn ablation_chirp() -> ChirpSweep {
    let run = |connections: u32| {
        let mut cfg = config(31, 1536);
        cfg.infra.chirp_connections = connections;
        cfg.workflows = vec![WorkflowConfig::simulation("gen")];
        let wf = Workflow::simulation(&cfg.workflows[0], 40_000, 25_000_000);
        let r = simulate(cfg, dedicated(3072, 400), vec![wf]);
        let stage_mins = (r.accounting.io * 60.0) / r.tasks_completed.max(1) as f64;
        (connections, stage_mins, hours(r.finished_at))
    };
    let rows = [8, 16, 32, 64, 128].map(run).to_vec();
    let (at8, at64) = (rows[0], rows[3]);
    let (stage_relieved, makespan_relieved) = (at8.1 > at64.1, at8.2 > at64.2);
    ChirpSweep {
        rows,
        stage_relieved,
        makespan_relieved,
    }
}

impl fmt::Display for ChirpSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: String = (self.rows.iter())
            .map(|(conns, stage, makespan)| format!("{conns:>14} {stage:>24.2} {makespan:>14.2}\n"))
            .collect();
        writeln!(
            f,
            "== Ablation: Chirp concurrent-connection limit ==

   connections    mean stage time (min)   makespan (h)
{rows}
-- shape check: raising the limit relieves the stage-time pathology,
   with diminishing returns once the server keeps up --
stage(8) > stage(64): {}   makespan(8) > makespan(64): {}",
            self.stage_relieved, self.makespan_relieved
        )
    }
}

/// Ablation: `(foremen, mean per-task WQ stage-in minutes, makespan
/// hours)` for 1, 2, 4 and 8 foremen.
pub struct ForemenSweep {
    pub rows: Vec<(u32, f64, f64)>,
    /// Four foremen stage sandboxes in faster than one.
    pub fan_out_helps: bool,
}

/// Ablation — foreman fan-out.
///
/// §5: "Long sandbox stage-in times or long wait times for finished task
/// collection suggest the usage of more foremen, to spread the load of
/// sending out the sandbox." This sweep varies the foreman rank under a
/// fixed fleet and reports the mean WQ stage-in time and makespan.
pub fn ablation_foremen() -> ForemenSweep {
    let run = |n_foremen: u32| {
        let mut cfg = config(99, 2048);
        cfg.infra.n_foremen = n_foremen;
        cfg.infra.wan_gbits = 2.0;
        let wfs = dataset(&cfg, TTJETS, 4_000, 1_150_000_000, 3);
        let mut params = dedicated(4096, 200);
        params.sandbox_service = SimDuration::from_mins(5);
        params.foreman_capacity = 60;
        let r = simulate(cfg, params, wfs);
        let stage_in = r.accounting.wq_stage_in * 60.0 / r.tasks_completed.max(1) as f64;
        (n_foremen, stage_in, hours(r.finished_at))
    };
    let rows = [1, 2, 4, 8].map(run).to_vec();
    let fan_out_helps = rows[0].1 > rows[2].1;
    ForemenSweep {
        rows,
        fan_out_helps,
    }
}

impl fmt::Display for ForemenSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: String = (self.rows.iter())
            .map(|(n, stage_in, makespan)| format!("{n:>10} {stage_in:>22.2} {makespan:>14.2}\n"))
            .collect();
        writeln!(
            f,
            "== Ablation: foreman fan-out (paper runs 1 rank of 4 foremen) ==

   foremen mean wq stage-in (min)   makespan (h)
{rows}
-- shape check: more foremen shorten sandbox stage-in --
stage-in(1 foreman) > stage-in(4 foremen): {}",
            self.fan_out_helps
        )
    }
}

/// The seed of both production runs.
const SEED: u64 = 2015;

/// The wide-area brownout of the data-processing run: `[start, end)` hours.
const OUTAGE_HOURS: (u64, u64) = (17, 19);

/// The §6 data-processing scenario: ~10k cores over two days on the
/// Notre Dame availability model, streaming input over a saturated
/// 10 Gbit/s uplink, with a transient wide-area outage mid-run (the
/// Figure 10 failure burst) and interleaved merging.
fn data_processing_setup(scale: f64) -> (LobsterConfig, SimParams, Vec<Workflow>) {
    let mut cfg = config(SEED, ((10_000.0 * scale) as u32).max(64));
    // Scale the uplink with the fleet so smoke runs keep the same
    // contention shape as the paper-scale run.
    cfg.infra.wan_gbits = 10.0 * scale;
    cfg.workflows = vec![WorkflowConfig::analysis("ttbar", TTJETS)];
    // ≈1 M tasklets × ~100 MB input each ⇒ ~100 TB dataset; 1 M × 10 CPU
    // minutes ≈ 170k CPU hours, the Figure 8 total. 1.25 GB per
    // 10-tasklet file ⇒ aggregate streaming demand ≈ 1.25× the uplink:
    // just past saturation, which is what caps efficiency near 70% and
    // puts I/O time at ~2/5 of CPU time, as in the paper's Figure 8.
    let n_files = ((100_000.0 * scale) as usize).max(200);
    let wfs = dataset(&cfg, TTJETS, n_files, 1_250_000_000, SEED ^ 0xD5);
    let at = |h| SimTime::ZERO + SimDuration::from_hours(h);
    let outage = Outage::brownout(at(OUTAGE_HOURS.0), at(OUTAGE_HOURS.1), 0.15, 0.85);
    let mut params = SimParams::default();
    params.pool.total_cores = ((24_000.0 * scale) as u32).max(128);
    params.pool.owner_mean = 6_000.0 * scale;
    params.pool.noise = 800.0 * scale;
    params.outages = OutageSchedule::new(vec![outage]);
    params.horizon = SimDuration::from_hours(48);
    // Sandbox distribution and result collection through the foreman
    // rank: sized so the WQ stage-in/out shares land near the paper's
    // 6.9 % / 2.8 % of total runtime.
    params.sandbox_service = SimDuration::from_mins(5);
    params.wq_collect = SimDuration::from_mins(2);
    params.foreman_capacity = 300;
    (cfg, params, wfs)
}

/// The §6 simulation scenario: ~20k cores over eight hours, negligible
/// input (pile-up via Chirp), a deliberately undersized squid tier (one
/// proxy) and a loaded Chirp server — Figure 11's pathologies.
fn simulation_setup(scale: f64) -> (LobsterConfig, SimParams, Vec<Workflow>) {
    let mut cfg = config(SEED, ((20_000.0 * scale) as u32).max(64));
    cfg.infra.n_squids = 1; // the paper's squid "had trouble serving"
    cfg.infra.chirp_connections = 48;
    cfg.workflows = vec![WorkflowConfig::simulation("minbias-gen")];
    let n_tasklets = ((400_000.0 * scale) as u64).max(2_000);
    // Pile-up overlay staged from local storage per task (§6) — sized so
    // the Chirp server sits right at its capacity and serves finishing
    // waves periodically.
    let wf = Workflow::simulation(&cfg.workflows[0], n_tasklets, 15_000_000);
    let mut params = SimParams::default();
    // An overnight burst on a quiet pool: long-lived slots, so task
    // failures are a trickle rather than an eviction storm.
    params.availability = AvailabilityModel::Mixture {
        short_frac: 0.25,
        short: (4.0, 1.0),
        long: (30.0, 1.2),
    };
    params.pool.total_cores = ((26_000.0 * scale) as u32).max(128);
    params.pool.owner_mean = 3_000.0 * scale;
    params.pool.noise = 500.0 * scale;
    params.horizon = SimDuration::from_hours(8);
    params.timeline_bin = SimDuration::from_mins(15);
    // One 2 Gbit/s squid for 20k cores: the cold-cache stampede of
    // ~2500 workers × 1.5 GB floors per-client bandwidth, pushing
    // setup times toward the paper's ~400-minute peak; requests
    // projected past the timeout fail with squid-related codes.
    params.squid.bandwidth = simnet::units::gbit_per_s(2.0);
    params.squid.timeout = SimDuration::from_mins(240);
    (cfg, params, vec![wf])
}

/// Run the §6 data-processing scenario at `scale`. Figures 8, 9 and 10
/// are cut from the one report.
pub fn data_processing_run(scale: f64) -> RunReport {
    let (cfg, params, wfs) = data_processing_setup(scale);
    simulate(cfg, params, wfs)
}

/// The paper's Figure 8 table, `(hours, percent)` per phase in the order
/// of `Accounting::table`: CPU, I/O, failed, WQ stage-in, WQ stage-out.
const PAPER_TABLE: [(f64, f64); 5] = [
    (171_036.0, 53.4),
    (65_356.0, 20.4),
    (44_830.0, 14.0),
    (22_056.0, 6.9),
    (8_954.0, 2.8),
];

/// Figure 8: where the run's task hours went, as `(phase, hours,
/// fraction)` rows in the paper's order, and the failed fraction.
pub struct RuntimeTable {
    pub rows: Vec<(&'static str, f64, f64)>,
    pub total: f64,
    pub failed_fraction: f64,
    /// The paper's ordering: CPU > I/O > WQ stage-in > WQ stage-out.
    pub phase_order: bool,
}

/// Figure 8 (table) — data processing runtime breakdown, from the
/// accounting of the data-processing run. Paper values for the two-day
/// ~10k-core run: CPU 53.4 %, I/O 20.4 %, failed 14.0 %, WQ stage-in
/// 6.9 %, WQ stage-out 2.8 % of 320,462 task hours.
pub fn fig08_runtime_table(run: &RunReport) -> RuntimeTable {
    let rows = run.accounting.table();
    let fr = |i: usize| rows.get(i).map_or(f64::NAN, |r| r.2);
    RuntimeTable {
        total: run.accounting.total(),
        failed_fraction: fr(2),
        phase_order: fr(0) > fr(1) && fr(1) > fr(3) && fr(3) > fr(4),
        rows,
    }
}

impl fmt::Display for RuntimeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let row = |((name, h, frac), (ph, pf)): (&(&str, f64, f64), _)| {
            let pct = frac * 100.0;
            format!("{name:>16} {h:>12.0} {pct:>10.1}   {ph:>12.0} {pf:>10.1}\n")
        };
        let rows: String = self.rows.iter().zip(PAPER_TABLE).map(row).collect();
        let (total, order, failed) = (self.total, self.phase_order, self.failed_fraction * 100.0);
        writeln!(
            f,
            "== Figure 8: data processing runtime breakdown ==

      Task Phase     ours (h)   ours (%)      paper (h)  paper (%)
{rows}           Total {total:>12.0}                    320462

-- shape check (paper: CPU dominates; I/O second; failures third;
   WQ staging small) --
cpu > io > wq_in > wq_out: {order}
failed fraction: {failed:.1}% (paper 14.0%)"
        )
    }
}

/// The other CMS consumers: (site, typical 4 h XrootD consumption in TB).
const BACKGROUND_SITES: [(&str, f64); 12] = [
    ("T2_US_Wisconsin", 9.0),
    ("T2_US_Nebraska", 8.0),
    ("T2_US_Purdue", 6.5),
    ("T2_DE_DESY", 6.0),
    ("T1_US_FNAL", 5.5),
    ("T2_US_UCSD", 5.0),
    ("T2_CH_CERN", 4.5),
    ("T2_IT_Legnaro", 3.5),
    ("T2_UK_London_IC", 3.0),
    ("T2_FR_IN2P3", 2.5),
    ("T3_US_Colorado", 1.5),
    ("T2_ES_CIEMAT", 1.2),
];

/// Figure 9: the top ten XrootD consumers over a 4 h window, as
/// `(site, TB)` rows, largest first.
pub struct DataVolume {
    pub rows: Vec<(String, f64)>,
    /// Lobster at Notre Dame is the biggest consumer.
    pub lobster_on_top: bool,
}

/// Figure 9 — "Volume of data transferred via XrootD for the top ten
/// consumers in the CMS collaboration during a 4 hour period on January
/// 17, 2015. During this time Lobster was running around 9000 tasks at
/// Notre Dame." Lobster tops the chart.
///
/// The run's own federation accounting gives the Notre Dame volume: the
/// run total scaled to a 4 h window of the time the run streamed. The
/// other CMS consumers come from a deterministic background model of
/// per-site analysis activity (the paper's dashboard aggregates sites a
/// simulation cannot observe).
pub fn fig09_data_volume(run: &RunReport) -> DataVolume {
    let lobster = run.dashboard.iter().filter(|(s, _)| s.contains("Lobster"));
    let lobster_total: f64 = lobster.map(|(_, b)| *b).sum();
    let lobster_4h_tb = lobster_total / 1e12 * (4.0 / run.ended_at.as_hours_f64()).min(1.0);
    let mut rng = SimRng::new(20150117);
    let mut rows: Vec<(String, f64)> = BACKGROUND_SITES
        .iter()
        .map(|(site, tb)| (site.to_string(), tb * rng.range_f64(0.8, 1.2)))
        .collect();
    rows.push(("T3_US_NotreDame (Lobster)".to_string(), lobster_4h_tb));
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.truncate(10);
    DataVolume {
        lobster_on_top: rows.first().is_some_and(|r| r.0.contains("Lobster")),
        rows,
    }
}

impl fmt::Display for DataVolume {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (site, tb) = self.rows.first().cloned().unwrap_or_default();
        writeln!(
            f,
            "== Figure 9: XrootD volume, top-10 CMS consumers, 4h window ==

{}
(values in TB transferred during the window)

-- shape check (paper: Lobster at Notre Dame is the biggest consumer) --
top consumer: {site}  ({tb:.1} TB)  → Lobster on top: {}",
            bar_chart(&self.rows, 50),
            self.lobster_on_top
        )
    }
}

/// Figure 10: the data-processing run's timeline in 30 min bins, its
/// best efficiency in a bin above half the peak concurrency, and the
/// bin with the most failures.
pub struct ProcessingRun<'a> {
    pub run: &'a RunReport,
    pub peak_steady_efficiency: f64,
    pub burst_bin: usize,
    /// The failure burst falls inside the wide-area outage.
    pub burst_in_outage: bool,
}

/// Figure 10 — "The time evolution of a data processing run on nearly
/// 10K cores over two days. The top graph shows the number of concurrent
/// tasks running, the middle show the number of tasks completed or
/// failed in each time unit, and the bottom graph shows the
/// (CPU-time/wall-clock) ratio in each time unit. Note that the maximum
/// possible ratio is approximately 70% ... The burst of failures midway
/// is due to a transient outage of the wide-area data handling system."
pub fn fig10_processing_run(run: &RunReport) -> ProcessingRun<'_> {
    let (concurrency, efficiency) = (run.timeline.concurrency(), run.timeline.efficiency());
    let steady = efficiency.iter().zip(&concurrency);
    let steady = steady.filter(|(_, &c)| c > run.peak_concurrency * 0.5);
    let failed = run.timeline.failures();
    let burst = failed.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1));
    let burst_bin = burst.map_or(0, |(i, _)| i);
    let outage = OUTAGE_HOURS.0 as f64..OUTAGE_HOURS.1 as f64;
    ProcessingRun {
        run,
        peak_steady_efficiency: steady.map(|(e, _)| *e).fold(0.0_f64, f64::max),
        burst_bin,
        burst_in_outage: outage.contains(&(burst_bin as f64 / 2.0)),
    }
}

impl fmt::Display for ProcessingRun<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (run, tl) = (self.run, &self.run.timeline);
        let finished = run.finished_at.map_or("horizon".into(), |t| t.to_string());
        writeln!(
            f,
            "== Figure 10: timeline of the data processing run ==
(one column = 30 simulated minutes)

{}
{}
{}
{}

-- summary --
peak concurrent tasks     {:>12.0}   (paper: ~9,000-10,000)
tasks completed           {:>12}
tasks failed              {:>12}   (burst at bin {} ≈ h{})
attempts lost to eviction {:>12}
peak steady efficiency    {:>12.2}   (paper: ≤ ~0.70)
merged files              {:>12}
finished at               {finished:>12}
advisor: {:?}",
            panel("concurrent tasks", &tl.concurrency()),
            panel("tasks completed / bin", &tl.completions()),
            panel("tasks failed / bin", &tl.failures()),
            panel("efficiency (cpu/wall)", &tl.efficiency()),
            run.peak_concurrency,
            run.tasks_completed,
            run.tasks_failed,
            self.burst_bin,
            self.burst_bin / 2,
            run.evictions,
            self.peak_steady_efficiency,
            run.merged_files.len(),
            run.advice
        )
    }
}

/// Figure 11: the simulation run's timeline in 15 min bins; the longest
/// mean setup time of any bin (min), the first bin at it, and the last
/// nonzero one; the stage-out waves (local maxima above 0.1 min); and
/// the squid-related (environment setup) failures, all and in the first
/// 3 h.
pub struct SimulationRun {
    pub run: RunReport,
    pub peak_setup: f64,
    pub peak_bin: usize,
    pub tail_setup: f64,
    pub waves: usize,
    pub squid_failures: usize,
    pub early_squid_failures: usize,
    /// Setup time falls below half its peak once the caches are hot.
    pub setup_drops: bool,
    /// Most squid-related failures come in the first 3 h.
    pub squid_failures_early: bool,
}

/// Figure 11 — "The time evolution of a simulation run on nearly 20K
/// cores over eight hours. From the top: number of concurrent tasks
/// running; time to setup the software release and initialize the
/// environment; time to stage-out data from local to permanent storage;
/// and exit code of failed tasks as a function of time. At the
/// beginning of the run, the release setup time peaks around 400
/// minutes as cold worker caches are filled simultaneously. ... After
/// most caches are filled, the release setup time drops, as does the
/// prevalence of tasks exiting with squid related failures." The Chirp
/// stage-out panel shows periodic waves from the overloaded server.
///
/// Setup time is recorded at attempt completion, so the cold-fill
/// cohort appears as one early hump that decays once caches are hot.
pub fn fig11_simulation_run(scale: f64) -> SimulationRun {
    let (cfg, params, wfs) = simulation_setup(scale);
    let run = simulate(cfg, params, wfs);
    let setup = run.timeline.setup_minutes();
    let peak_setup = setup.iter().copied().fold(0.0_f64, f64::max);
    let tail_setup = *setup.iter().rev().find(|v| **v > 0.0).unwrap_or(&0.0);
    let wave = |w: &[f64]| w[1] > w[0] && w[1] > w[2] && w[1] > 0.1;
    let stageout = run.timeline.stageout_minutes();
    let events = run.timeline.failure_events().iter();
    let squid: Vec<_> = events.filter(|(_, c)| *c == EnvSetup).collect();
    let early = squid.iter().filter(|(t, _)| t.as_hours_f64() < 3.0).count();
    SimulationRun {
        peak_bin: setup.iter().position(|&v| v == peak_setup).unwrap_or(0),
        waves: stageout.windows(3).filter(|w| wave(w)).count(),
        setup_drops: tail_setup < peak_setup / 2.0,
        squid_failures_early: 2 * early > squid.len(),
        squid_failures: squid.len(),
        early_squid_failures: early,
        peak_setup,
        tail_setup,
        run,
    }
}

impl fmt::Display for SimulationRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (peak, tail, bin) = (self.peak_setup, self.tail_setup, self.peak_bin);
        let tl = &self.run.timeline;
        writeln!(
            f,
            "== Figure 11: timeline of the simulation run (~20k cores, 8h) ==
(one column = 15 simulated minutes)

{}
{}
{}
{}

-- summary --
peak concurrent tasks   {:>12.0}   (paper: ~20,000)
peak setup time         {peak:>12.0} min (paper: ~400, cold stampede)
setup peak→tail         {peak:>7.0} → {tail:.0} min (peak at bin {bin}; paper: drops after caches fill)
stage-out wave count    {:>12}   (paper: periodic waves)
squid-related failures  {:>12}   ({} in the first 3h)
total failed attempts   {:>12}   (paper: small continuous trickle)",
            panel("concurrent tasks", &tl.concurrency()),
            panel("release setup (min)", &tl.setup_minutes()),
            panel("stage-out time (min)", &tl.stageout_minutes()),
            panel("failed tasks / bin", &tl.failures()),
            self.run.peak_concurrency,
            self.waves,
            self.squid_failures,
            self.early_squid_failures,
            self.run.tasks_failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_are_valid() {
        let (cfg, _, wfs) = data_processing_setup(0.01);
        assert!(cfg.validate().is_empty());
        assert!(wfs[0].n_tasklets() > 0);
        let (cfg2, _, wfs2) = simulation_setup(0.01);
        assert!(cfg2.validate().is_empty());
        assert!(wfs2[0].n_tasklets() > 0);
    }
}
