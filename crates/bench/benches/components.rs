//! Criterion micro-benchmarks for the substrate components.
//!
//! These quantify the costs that make whole-cluster simulation cheap:
//! event-queue throughput, O(log n) fair-link operations, queueing-station
//! offers, many small calendar queues stepped in rounds, the concurrent
//! worker cache, the Map-Reduce engine, one
//! point of the §4.1 task-size Monte Carlo, the Lobster DB's merge
//! bookkeeping and its journaled apply + group commit, and one
//! fair-share arbiter round.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use simkit::prelude::*;

/// Raw engine throughput: schedule/deliver a chain of N events.
fn bench_engine(c: &mut Criterion) {
    struct Chain {
        left: u64,
    }
    impl Model for Chain {
        type Event = ();
        fn handle(&mut self, _ev: (), ctx: &mut Ctx<()>) {
            if self.left > 0 {
                self.left -= 1;
                ctx.schedule(SimDuration::from_micros(1), ());
            }
        }
    }
    c.bench_function("engine/100k_event_chain", |b| {
        b.iter(|| {
            let mut eng = Engine::new(Chain { left: 100_000 });
            eng.prime(SimDuration::ZERO, ());
            black_box(eng.run());
        })
    });
}

/// The calendar queue's cursor bucket at its worst: 10k events land in
/// one wheel bucket (16.8 s), every delivery schedules a replacement behind the
/// cursor at a random instant of the same bucket (a sorted insert into
/// the run being drained), and every third delivery cancels a pending
/// event.
fn bench_engine_same_bucket(c: &mut Criterion) {
    use simkit::engine::BUCKET_US;
    struct SameBucket {
        rng: u64,
        left: u32,
        ids: Vec<EventId>,
    }
    impl SameBucket {
        /// A random instant in bucket 1, at or after `now`.
        fn instant(&mut self, now: SimTime) -> SimTime {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let at = SimTime::from_micros(BUCKET_US + self.rng % BUCKET_US);
            at.max(now)
        }
    }
    impl Model for SameBucket {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Ctx<u32>) {
            if self.left == 0 {
                return;
            }
            self.left -= 1;
            let at = self.instant(ctx.now());
            self.ids.push(ctx.schedule_at(at, ev));
            if ev.is_multiple_of(3) {
                let victim = self.ids[self.rng as usize % self.ids.len()];
                ctx.cancel(victim);
            }
        }
    }
    c.bench_function("engine/same_bucket_10k", |b| {
        b.iter(|| {
            let model = SameBucket {
                rng: 0x9E37_79B9_7F4A_7C15,
                left: 10_000,
                ids: Vec::with_capacity(20_000),
            };
            let mut eng = Engine::new(model);
            for i in 0..10_000u32 {
                let at = eng.model_mut().instant(SimTime::ZERO);
                let id = eng.ctx().schedule_at(at, i);
                eng.model_mut().ids.push(id);
            }
            black_box(eng.run());
            black_box(eng.ctx().delivered())
        })
    });
}

/// Many small queues, as in a multi-tenant grid: 100 engines, each with
/// a once-a-minute replenish that submits 8 worker arrivals at
/// exponential delays (mean 2 min, the factory default) for 10 hours,
/// stepped together in 5-minute rounds. 480k arrivals; each engine holds
/// about 17 pending events, so nearly every schedule and pop touches a
/// bucket no recent operation touched.
fn bench_engine_many_small_queues(c: &mut Criterion) {
    const ENGINES: u64 = 100;
    const REPLENISHES: u32 = 600;
    const ARRIVALS: u32 = 8;
    enum Ev {
        Replenish,
        Arrive,
    }
    struct Tenant {
        rng: SimRng,
        delay: Exponential,
        left: u32,
        arrived: u64,
    }
    impl Model for Tenant {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, ctx: &mut Ctx<Ev>) {
            match ev {
                Ev::Replenish => {
                    for _ in 0..ARRIVALS {
                        ctx.schedule(self.delay.sample_secs(&mut self.rng), Ev::Arrive);
                    }
                    self.left -= 1;
                    if self.left > 0 {
                        ctx.schedule(SimDuration::from_mins(1), Ev::Replenish);
                    }
                }
                Ev::Arrive => self.arrived += 1,
            }
        }
    }
    c.bench_function("engine/many_small_queues", |b| {
        b.iter(|| {
            let mut engines: Vec<Engine<Tenant>> = (0..ENGINES)
                .map(|i| {
                    let mut eng = Engine::new(Tenant {
                        rng: SimRng::new(0x5EED ^ i),
                        delay: Exponential::new(120.0),
                        left: REPLENISHES,
                        arrived: 0,
                    });
                    eng.prime(SimDuration::ZERO, Ev::Replenish);
                    eng
                })
                .collect();
            let round = SimDuration::from_mins(5);
            let mut until = SimTime::ZERO;
            let mut busy = true;
            while busy {
                until += round;
                busy = false;
                for eng in &mut engines {
                    eng.run_until(until);
                    busy |= eng.ctx().peek_time().is_some();
                }
            }
            black_box(engines.iter().map(|e| e.model().arrived).sum::<u64>())
        })
    });
}

/// Fair link: admit/complete churn with many concurrent flows.
fn bench_fair_link(c: &mut Criterion) {
    let mut group = c.benchmark_group("fair_link");
    for &flows in &[100usize, 1_000, 10_000] {
        group.bench_with_input(BenchmarkId::new("churn", flows), &flows, |b, &n| {
            b.iter(|| {
                let mut link = simnet::FairLink::new(1.25e9);
                for i in 0..n {
                    link.admit_flow(SimTime::ZERO, 1_000_000 + i as u64);
                }
                while let Some((when, _)) = link.next_completion() {
                    black_box(link.completions(when));
                }
            })
        });
    }
    group.finish();
}

/// Multi-server queueing station offers.
fn bench_server(c: &mut Criterion) {
    c.bench_function("server/10k_offers_64_slots", |b| {
        b.iter(|| {
            let mut s = Server::new(64);
            for i in 0..10_000u64 {
                black_box(s.offer(SimTime::from_secs(i / 10), SimDuration::from_secs(3)));
            }
        })
    });
}

/// Concurrent worker cache under contention.
fn bench_worker_cache(c: &mut Criterion) {
    use std::sync::Arc;
    c.bench_function("worker_cache/8_threads_mixed_keys", |b| {
        b.iter(|| {
            let cache = Arc::new(wqueue::WorkerCache::new());
            std::thread::scope(|scope| {
                for t in 0..8 {
                    let cache = Arc::clone(&cache);
                    scope.spawn(move || {
                        for i in 0..200 {
                            let key = format!("k{}", (i + t) % 32);
                            black_box(cache.get_or_fetch(&key, || vec![0u8; 256]));
                        }
                    });
                }
            });
        })
    });
}

/// The real Map-Reduce engine on a word-count-shaped job.
fn bench_mapreduce(c: &mut Criterion) {
    let inputs: Vec<u32> = (0..20_000).collect();
    c.bench_function("mapreduce/20k_inputs_8_workers", |b| {
        b.iter(|| {
            let mr = gridstore::MapReduce::new(8);
            black_box(mr.run(
                inputs.clone(),
                |x| vec![(x % 257, x as u64)],
                |_k, vs| vs.into_iter().sum::<u64>(),
            ))
        })
    });
}

/// One point of the Figure 3 Monte Carlo at reduced scale.
fn bench_tasksize(c: &mut Criterion) {
    use batchsim::availability::EvictionScenario;
    use lobster::tasksize::{simulate, TaskSizeConfig};
    let cfg = TaskSizeConfig {
        total_tasklets: 10_000,
        workers: 800,
        ..TaskSizeConfig::default()
    };
    c.bench_function("tasksize/10k_tasklets_constant_hazard", |b| {
        b.iter(|| {
            black_box(simulate(
                &cfg,
                &EvictionScenario::ConstantHazard { per_hour: 0.1 },
                6,
                42,
            ))
        })
    });
}

/// The db's merge bookkeeping on the completion path: 100k analysis
/// outputs finish, every 48 are grouped into a merge as they arrive, and
/// each group is marked merged four groups later, so a few stay open.
fn bench_db_merge_bookkeeping(c: &mut Criterion) {
    use lobster::db::LobsterDb;
    use std::collections::VecDeque;
    use wqueue::task::TaskId;
    const OUTPUTS: u64 = 100_000;
    const GROUP: usize = 48;
    c.bench_function("db/merge_bookkeeping_100k", |b| {
        b.iter(|| {
            let mut db = LobsterDb::in_memory();
            db.register_workflow("wf", OUTPUTS);
            let mut pending: Vec<(TaskId, u64)> = Vec::with_capacity(GROUP);
            let mut open: VecDeque<(TaskId, Vec<TaskId>)> = VecDeque::new();
            let merge = |db: &mut LobsterDb, (g, ids): (TaskId, Vec<TaskId>)| {
                let name = format!("merged_{}.root", g.0);
                db.mark_merged(Some(g), &ids, &name, 1).expect("merge");
            };
            while let Some(t) = db.create_task("wf", 1) {
                db.mark_running(t).expect("run");
                db.mark_done(t, 1_000 + t.0).expect("done");
                pending.push((t, 1_000 + t.0));
                if pending.len() == GROUP {
                    let g = db.create_merge_group(&pending).expect("group");
                    open.push_back((g, pending.drain(..).map(|(t, _)| t).collect()));
                    if open.len() > 4 {
                        merge(&mut db, open.pop_front().expect("open"));
                    }
                }
            }
            for group in open.drain(..) {
                merge(&mut db, group);
            }
            black_box(db.merged_file_count())
        })
    });
}

/// The journaled db on the collect path under the default
/// `JournalPolicy` (group commit every 64 records or 128 KiB, a snapshot
/// every 4096 records per file), in a temp directory: 10k tasks are
/// created, started and finished and their attempts recorded. That is
/// 40k records, seven compactions of the shard file and two of
/// `master.wal`.
fn bench_db_journaled_apply_commit(c: &mut Criterion) {
    use lobster::config::JournalPolicy;
    use lobster::db::LobsterDb;
    use lobster::wrapper::SegmentReport;
    use wqueue::task::{Category, TaskTimes};
    const TASKS: u64 = 10_000;
    let dir = std::env::temp_dir().join(format!("lobster-bench-journal-{}", std::process::id()));
    c.bench_function("db/journaled_apply_commit", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let mut db =
                LobsterDb::open_with_policy(&dir, &JournalPolicy::default()).expect("journal dir");
            db.register_workflow("wf", TASKS);
            while let Some(task) = db.create_task("wf", 1) {
                db.mark_running(task).expect("run");
                db.mark_done(task, 1_000).expect("done");
                db.record_attempt(&SegmentReport {
                    task,
                    category: Category::Analysis,
                    attempt: 0,
                    worker: task.0 % 64,
                    times: TaskTimes {
                        cpu: SimDuration::from_mins(10),
                        ..TaskTimes::default()
                    },
                    failed_segment: None,
                    watchdog: false,
                    evicted: false,
                    dispatched_at: SimTime::ZERO,
                    finished_at: SimTime::from_secs(600),
                    output_bytes: 1_000,
                });
            }
            db.flush();
            black_box(db.records_since_snapshot())
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// One fair-share round over 100 tenants of uneven weight and demand
/// for a 1024-core pool: the arbiter's per-round cost on the multi-tenant
/// path. Charged usage carries over between iterations, as it does
/// between rounds.
fn bench_arbiter_allocate(c: &mut Criterion) {
    use batchsim::arbiter::{ArbiterConfig, FairShareArbiter};
    const TENANTS: u32 = 100;
    let mut arbiter = FairShareArbiter::new(ArbiterConfig::default());
    for i in 0..TENANTS {
        arbiter.register(f64::from(1 + i % 4));
    }
    let demands: Vec<u32> = (0..TENANTS).map(|i| 8 + (i * 37) % 64).collect();
    c.bench_function("arbiter/allocate_100", |b| {
        b.iter(|| black_box(arbiter.allocate(black_box(1024), black_box(&demands))))
    });
}

/// A small end-to-end cluster simulation.
fn bench_cluster_sim(c: &mut Criterion) {
    use batchsim::availability::AvailabilityModel;
    use batchsim::pool::PoolConfig;
    use gridstore::dbs::{DatasetSpec, Dbs};
    use lobster::config::LobsterConfig;
    use lobster::driver::{ClusterSim, SimParams};
    use lobster::workflow::Workflow;
    c.bench_function("cluster_sim/64_cores_1000_lumi_files", |b| {
        b.iter(|| {
            let mut cfg = LobsterConfig::default();
            cfg.workers.target_cores = 64;
            cfg.workers.cores_per_worker = 4;
            cfg.merge_target_bytes = 200_000_000;
            let mut dbs = Dbs::new();
            dbs.generate(
                "/TTJets/Spring14/AOD",
                DatasetSpec {
                    n_files: 20,
                    mean_file_bytes: 500_000_000,
                    events_per_lumi: 100,
                    lumis_per_file: 50,
                },
                7,
            );
            let wf = Workflow::from_dataset(
                &cfg.workflows[0],
                dbs.query("/TTJets/Spring14/AOD").unwrap(),
            );
            let params = SimParams {
                availability: AvailabilityModel::Dedicated,
                pool: PoolConfig {
                    total_cores: 200,
                    owner_mean: 20.0,
                    reversion: 0.1,
                    noise: 0.0,
                    tick: SimDuration::from_mins(5),
                },
                horizon: SimDuration::from_hours(72),
                ..SimParams::default()
            };
            black_box(ClusterSim::run(cfg, params, vec![wf]))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine, bench_engine_same_bucket, bench_engine_many_small_queues,
              bench_fair_link, bench_server,
              bench_worker_cache, bench_mapreduce, bench_tasksize,
              bench_db_merge_bookkeeping, bench_db_journaled_apply_commit,
              bench_arbiter_allocate, bench_cluster_sim
}
criterion_main!(benches);
