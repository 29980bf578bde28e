//! The traced run: wall-time spans around the benchmark's calls into each
//! layer, microbenchmarks of each layer's public functions, and the
//! per-layer ledger (operation count x ns/op next to measured wall time).
//!
//! Everything here measures the layers from outside, through their public
//! functions. The sweep subsystems are timed through
//! [`WorkloadBenchmark::run_trial`] only, so the request-engine and
//! event-core rewrites the ROADMAP plans can land without touching this
//! file. Microbenchmark parameters come from the workloads' own `quick()`
//! configurations.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use harness::{grid, ExperimentId, RunConfig};
use kvstore::{Shard, Store, StoreConfig};
use platforms::PlatformId;
use relstore::Database;
use simcore::obs::{ObsConfig, Recorder, SpanKind};
use simcore::resource::CompletionTimer;
use simcore::{rng, Cdf, EventQueue, Nanos, SimRng};
use workloads::cluster::BASELINE_THETA;
use workloads::slots::{backend_profile, DEFAULT_SERVICE_SIGMA};
use workloads::{
    ClassConfig, ClusterBenchmark, LoadBackend, LoadgenBenchmark, OltpBenchmark, PipelineBenchmark,
    SlotPolicy, SlotPool, TenancyBenchmark, WorkloadBenchmark, YcsbBenchmark,
};

use crate::trace::{escape, Tracer};
use crate::{
    alloc_count, median, plan, result_json, run_pass, setup, Args, Metric, Oracle, Pass, Workload,
};

// Per-operation metrics; each also names a ledger row priced by it.
const BUILD_US: &str = "platforms.build_us";
const ZIPF_N2000: &str = "simcore.rng.zipf_ns.n2000";
const ZIPF_N16: &str = "simcore.rng.zipf_ns.n16";
const UNIFORM: &str = "simcore.rng.uniform_ns";
const LOG_NORMAL: &str = "simcore.dist.log_normal_ns";
const PUSH_POP: &str = "simcore.events.push_pop_ns";
const COMPLETION_TIMER: &str = "simcore.resource.completion_timer_ns";
const OFFER_FINISH: &str = "workloads.slots.offer_finish_ns";
const CDF: &str = "simcore.stats.cdf_ns_per_sample";
const SPAN: &str = "simcore.obs.span_ns";
const STORE_GET_V1000: &str = "kvstore.store.get_ns.v1000";
const STORE_SET_V1000: &str = "kvstore.store.set_ns.v1000";
const STORE_GET_V100: &str = "kvstore.store.get_ns.v100";
const STORE_SET_V100: &str = "kvstore.store.set_ns.v100";
const RELSTORE_TXN: &str = "relstore.txn_ns";
const SHARD_OP: &str = "kvstore.shard.op_ns";

/// Records and value size of the open-loop kvstore backend
/// (`workloads::slots::BackendState`), which its config does not expose.
const LOADGEN_RECORDS: usize = 4_096;
const LOADGEN_VALUE_BYTES: usize = 100;

/// Batches per microbenchmark; each reports the median batch.
const BATCHES: usize = 7;

/// The four sweep subsystems and the experiments each backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Subsystem {
    Loadgen,
    Tenancy,
    Pipeline,
    Cluster,
}

impl Subsystem {
    const ALL: [Subsystem; 4] = [
        Subsystem::Loadgen,
        Subsystem::Tenancy,
        Subsystem::Pipeline,
        Subsystem::Cluster,
    ];

    fn name(self) -> &'static str {
        match self {
            Subsystem::Loadgen => "loadgen",
            Subsystem::Tenancy => "tenancy",
            Subsystem::Pipeline => "pipeline",
            Subsystem::Cluster => "cluster",
        }
    }

    /// The subsystem's experiments, Memcached first.
    fn experiments(self) -> &'static [ExperimentId] {
        use ExperimentId::*;
        match self {
            Subsystem::Loadgen => &[LoadMemcached, LoadMysql],
            Subsystem::Tenancy => &[TenantIsolationMemcached, TenantIsolationMysql],
            Subsystem::Pipeline => &[PipelineMemcached, PipelineMysql],
            Subsystem::Cluster => &[
                ClusterMemcached,
                ClusterMysql,
                ClusterFailoverMemcached,
                ClusterFailoverMysql,
            ],
        }
    }
}

fn backend(experiment: ExperimentId) -> LoadBackend {
    if experiment.slug().ends_with("mysql") {
        LoadBackend::Mysql
    } else {
        LoadBackend::Memcached
    }
}

/// Layer operations behind one workload's pass, keyed by the metric that
/// prices one operation. Counts come from the workload configurations and
/// the sweep points' own counters; the multiplicities per request are
/// stated where they are added.
#[derive(Debug, Default)]
struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    fn add(&mut self, layer: &'static str, n: f64) {
        *self.0.entry(layer).or_default() += n;
    }

    /// Operations of the paper experiments and of every cell's platform
    /// build, from the pass's cell counts and the quick configurations.
    fn add_pass(&mut self, pass: &Pass, seed: u64) {
        for run in &pass.runs {
            let cells = run.cells as f64;
            self.add(BUILD_US, cells);
            match run.experiment {
                ExperimentId::Fig16Memcached => {
                    // Load phase: one set per record. Then per operation one
                    // Zipf draw, one uniform draw and a 50/50 get or set.
                    let ycsb = YcsbBenchmark::quick();
                    let ops = ycsb.operations as f64;
                    self.add(ZIPF_N2000, cells * ops);
                    self.add(UNIFORM, cells * ops);
                    self.add(STORE_GET_V1000, cells * ops / 2.0);
                    self.add(STORE_SET_V1000, cells * (ycsb.records as f64 + ops / 2.0));
                }
                ExperimentId::Fig17Mysql => {
                    let oltp = OltpBenchmark::quick();
                    let txns = (oltp.thread_counts.len() * oltp.sampled_transactions) as f64;
                    self.add(RELSTORE_TXN, cells * txns);
                }
                ExperimentId::Fig13BootContainers
                | ExperimentId::Fig14BootHypervisors
                | ExperimentId::Fig15BootOsv => {
                    let samples = RunConfig::quick(seed).startups as f64;
                    self.add(CDF, grid::entries(run.experiment).len() as f64 * samples);
                }
                _ => {}
            }
        }
    }

    /// One open-loop window: per request two uniform draws (the arrival gap
    /// and the connection), one slot offer and later finish, one arrival
    /// event; per completion one log-normal service draw, one completion
    /// timer entry, one wake event and one latency sample; one backend
    /// operation per `sample_every` admitted requests.
    fn add_open_loop(
        &mut self,
        requests: u64,
        completed: u64,
        sample_every: u64,
        backend: LoadBackend,
    ) {
        let (r, c) = (requests as f64, completed as f64);
        self.add(UNIFORM, 2.0 * r);
        self.add(OFFER_FINISH, r);
        self.add(PUSH_POP, r + c);
        self.add(LOG_NORMAL, c);
        self.add(COMPLETION_TIMER, c);
        self.add(CDF, c);
        let ops = c / sample_every.max(1) as f64;
        match backend {
            LoadBackend::Memcached => {
                self.add(STORE_GET_V100, ops / 2.0);
                self.add(STORE_SET_V100, ops / 2.0);
            }
            LoadBackend::Mysql => self.add(RELSTORE_TXN, ops),
        }
    }
}

/// What the benchmark saw of one subsystem's `run_trial` calls.
#[derive(Debug, Default)]
struct Probe {
    requests: u64,
    seconds: f64,
    cells: usize,
    failed_cells: usize,
}

impl Probe {
    fn req_per_s(&self) -> f64 {
        self.requests as f64 / self.seconds.max(f64::MIN_POSITIVE)
    }
}

/// Calls `run_trial` on the experiment's cells with the grid's own stream
/// derivation: every cell, or only the first entry's first trial. `tally`
/// returns each point's resolved requests and whether they add up to the
/// offered count; a cell fails when it panics, errors or breaks
/// conservation on any point.
#[allow(clippy::too_many_arguments)]
fn probe_cells<B: WorkloadBenchmark>(
    bench: &B,
    experiment: ExperimentId,
    seed: u64,
    every_cell: bool,
    layer: &str,
    tracer: &mut Tracer,
    probe: &mut Probe,
    mut tally: impl FnMut(usize, &B::Point) -> (u64, bool),
) {
    let entries = grid::entries(experiment);
    let (entries, trials) = if every_cell {
        (&entries[..], plan(experiment, seed).trials_for(experiment))
    } else {
        (&entries[..1], 1)
    };
    for entry in entries {
        for trial in 0..trials {
            let platform = entry.platform.build();
            let mut stream = rng::derive(seed, experiment.slug(), entry.label, trial as u64);
            let span = tracer.open(layer, experiment.slug());
            let start = Instant::now();
            let points = catch_unwind(AssertUnwindSafe(|| bench.run_trial(&platform, &mut stream)));
            probe.seconds += start.elapsed().as_secs_f64();
            tracer.close(span);
            probe.cells += 1;
            let mut ok = false;
            if let Ok(Ok(points)) = points {
                ok = true;
                for (i, point) in points.iter().enumerate() {
                    let (requests, conserved) = tally(i, point);
                    probe.requests += requests;
                    ok &= conserved;
                }
            }
            if !ok {
                probe.failed_cells += 1;
            }
        }
    }
}

/// Runs every sweep subsystem's `run_trial`: all of the workload's own
/// cells (counting their layer operations), and the first cell of each
/// subsystem the workload does not run, so `req_per_s` is always reported.
fn probe_sweeps(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Vec<(Subsystem, Probe)> {
    let mut probes = Vec::new();
    for sub in Subsystem::ALL {
        let own: Vec<ExperimentId> = sub
            .experiments()
            .iter()
            .copied()
            .filter(|e| workload.experiments().contains(e))
            .collect();
        let every = !own.is_empty();
        let targets = if every {
            own
        } else {
            vec![sub.experiments()[0]]
        };
        let layer = format!("workloads.{}.run_trial", sub.name());
        let mut probe = Probe::default();
        for experiment in targets {
            let backend = backend(experiment);
            match sub {
                Subsystem::Loadgen => {
                    let bench = LoadgenBenchmark::quick(backend);
                    let offered = bench.requests_per_point as u64;
                    probe_cells(
                        &bench,
                        experiment,
                        seed,
                        every,
                        &layer,
                        tracer,
                        &mut probe,
                        |_, p| {
                            let resolved = p.completed + p.dropped;
                            if every {
                                counts.add_open_loop(
                                    resolved,
                                    p.completed,
                                    bench.op_sample_every,
                                    backend,
                                );
                            }
                            (resolved, resolved == offered)
                        },
                    );
                }
                Subsystem::Tenancy => {
                    let bench = TenancyBenchmark::quick(backend);
                    probe_cells(
                        &bench,
                        experiment,
                        seed,
                        every,
                        &layer,
                        tracer,
                        &mut probe,
                        |i, p| {
                            let (v, a) = (&p.victim, &p.aggressor);
                            let conserved = v.issued == v.completed + v.dropped
                                && a.issued == a.completed + a.dropped;
                            // Each point replays both tenants under the weighted
                            // and the FIFO scheduler; the trial also runs the
                            // victim alone once.
                            let solo = if i == 0 {
                                bench.victim_requests as u64
                            } else {
                                0
                            };
                            let requests = 2 * (v.issued + a.issued) + solo;
                            if every {
                                let completed = 2 * (v.completed + a.completed) + solo;
                                counts.add_open_loop(
                                    requests,
                                    completed,
                                    bench.op_sample_every,
                                    backend,
                                );
                            }
                            (requests, conserved)
                        },
                    );
                }
                Subsystem::Pipeline => {
                    let bench = PipelineBenchmark::quick(backend);
                    let offered = bench.requests_per_point as u64;
                    probe_cells(
                        &bench,
                        experiment,
                        seed,
                        every,
                        &layer,
                        tracer,
                        &mut probe,
                        |_, p| {
                            let resolved = p.completed + p.short_circuited + p.dropped;
                            if every {
                                counts.add_open_loop(
                                    resolved,
                                    p.completed,
                                    bench.op_sample_every,
                                    backend,
                                );
                                // One log-normal stage cost per stage entered.
                                let entered = (p.completed + p.short_circuited) as f64;
                                counts.add(LOG_NORMAL, p.mean_depth * entered);
                            }
                            (resolved, resolved == offered)
                        },
                    );
                }
                Subsystem::Cluster => {
                    let bench = if matches!(
                        experiment,
                        ExperimentId::ClusterFailoverMemcached | ExperimentId::ClusterFailoverMysql
                    ) {
                        ClusterBenchmark::failover_quick(backend)
                    } else {
                        ClusterBenchmark::quick(backend)
                    };
                    let offered = bench.requests_per_point as u64;
                    probe_cells(
                        &bench,
                        experiment,
                        seed,
                        every,
                        &layer,
                        tracer,
                        &mut probe,
                        |_, p| {
                            let resolved = p.completed + p.dropped;
                            if every {
                                // Events are the point's own count. Per request
                                // three uniform draws (gap and two key draws), a
                                // hot-set Zipf draw for the hot fraction, one
                                // slot offer; per completion a log-normal
                                // service draw, a completion-timer entry and a
                                // latency sample; one shard-cache operation per
                                // `op_sample_every` dispatches.
                                let (r, c) = (resolved as f64, p.completed as f64);
                                counts.add(PUSH_POP, p.events as f64);
                                counts.add(UNIFORM, 3.0 * r);
                                counts.add(ZIPF_N16, bench.hot_fraction * r);
                                counts.add(OFFER_FINISH, r);
                                counts.add(LOG_NORMAL, c);
                                counts.add(COMPLETION_TIMER, c);
                                counts.add(CDF, c);
                                counts.add(SHARD_OP, c / bench.op_sample_every.max(1) as f64);
                            }
                            (resolved, resolved == offered)
                        },
                    );
                }
            }
        }
        probes.push((sub, probe));
    }
    probes
}

/// Median milliseconds of the closed-loop YCSB and OLTP trials on the
/// first platform of Figs. 16 and 17, over their natural trial counts.
fn closed_loop_trials(seed: u64, tracer: &mut Tracer) -> (f64, f64) {
    let mut time_trials = |experiment: ExperimentId, layer: &str, run: &dyn Fn(&mut SimRng)| {
        let entry = grid::entries(experiment)[0];
        let times = (0..plan(experiment, seed).trials_for(experiment))
            .map(|trial| {
                let mut stream = rng::derive(seed, experiment.slug(), entry.label, trial as u64);
                let span = tracer.open(layer, experiment.slug());
                let start = Instant::now();
                run(&mut stream);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                tracer.close(span);
                ms
            })
            .collect();
        median(times)
    };
    let platform = grid::entries(ExperimentId::Fig16Memcached)[0]
        .platform
        .build();
    let ycsb = YcsbBenchmark {
        runs: 1,
        ..YcsbBenchmark::quick()
    };
    let ycsb_ms = time_trials(
        ExperimentId::Fig16Memcached,
        "workloads.ycsb.run_trial",
        &|stream| {
            black_box(ycsb.run_trial(&platform, stream));
        },
    );
    let platform = grid::entries(ExperimentId::Fig17Mysql)[0].platform.build();
    let oltp = OltpBenchmark {
        runs: 1,
        ..OltpBenchmark::quick()
    };
    let oltp_ms = time_trials(
        ExperimentId::Fig17Mysql,
        "workloads.sysbench_oltp.run_trial",
        &|stream| {
            black_box(oltp.run_trial(&platform, stream));
        },
    );
    (ycsb_ms, oltp_ms)
}

/// Median over [`BATCHES`] of one batch's nanoseconds per operation;
/// `batch` runs one batch and returns how many operations it did.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    let times = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            let ops = batch();
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(times)
}

/// [`ns_per_op`] of `iters` calls of `op` per batch.
fn ns_per_call(iters: u64, mut op: impl FnMut()) -> f64 {
    ns_per_op(|| {
        for _ in 0..iters {
            op();
        }
        iters
    })
}

/// The pending depth the event core holds for the workload: the open-loop
/// client population, the largest cluster's shard count (one wake per
/// shard), and for the paper figures, which never use the event core, the
/// YCSB client count as a control.
fn pending_depth(workload: Workload) -> usize {
    match workload {
        Workload::PaperFigs => YcsbBenchmark::quick().client_threads,
        Workload::OpenLoop => LoadgenBenchmark::quick(LoadBackend::Memcached).clients,
        Workload::Cluster => ClusterBenchmark::quick(LoadBackend::Memcached)
            .sweep
            .iter()
            .map(|s| s.shards)
            .max()
            .unwrap_or(1),
    }
}

/// Latency samples per `Cdf` the workload builds: the boot CDFs' startup
/// count, or the sweep points' request count.
fn cdf_samples(workload: Workload, seed: u64) -> usize {
    match workload {
        Workload::PaperFigs => RunConfig::quick(seed).startups,
        Workload::OpenLoop => LoadgenBenchmark::quick(LoadBackend::Memcached).requests_per_point,
        Workload::Cluster => ClusterBenchmark::quick(LoadBackend::Memcached).requests_per_point,
    }
}

/// Times each layer's public functions in isolation.
fn microbenchmarks(workload: Workload, seed: u64, tracer: &mut Tracer) -> Vec<Metric> {
    let ycsb = YcsbBenchmark::quick();
    let load = LoadgenBenchmark::quick(LoadBackend::Memcached);
    let cluster = ClusterBenchmark::quick(LoadBackend::Memcached);
    let oltp = OltpBenchmark::quick();
    let mut rng = SimRng::seed_from(rng::derive_seed(seed, "perfbench", workload.name(), 0));
    let service = backend_profile(
        LoadBackend::Memcached,
        &PlatformId::Docker.build(),
        load.servers,
    )
    .expect("the quick loadgen pool is valid on docker")
    .with_sigma(DEFAULT_SERVICE_SIGMA)
    .service_distribution();
    let mut out = Vec::new();
    let mut measure = |tracer: &mut Tracer,
                       name: &'static str,
                       unit: &'static str,
                       f: &mut dyn FnMut() -> f64| {
        let span = tracer.open(name, "");
        let value = f();
        tracer.close(span);
        out.push(Metric::new(name, value, unit));
    };

    measure(tracer, BUILD_US, "us", &mut || {
        let ids = PlatformId::paper_set();
        let mut i = 0;
        ns_per_call(5 * ids.len() as u64, || {
            black_box(ids[i % ids.len()].build());
            i += 1;
        }) / 1e3
    });
    measure(tracer, ZIPF_N2000, "ns", &mut || {
        ns_per_call(300, || {
            black_box(rng.zipf(ycsb.records, ycsb.zipf_theta));
        })
    });
    measure(tracer, ZIPF_N16, "ns", &mut || {
        ns_per_call(20_000, || {
            black_box(rng.zipf(cluster.hot_keys, BASELINE_THETA));
        })
    });
    measure(tracer, UNIFORM, "ns", &mut || {
        ns_per_call(500_000, || {
            black_box(rng.uniform01());
        })
    });
    measure(tracer, LOG_NORMAL, "ns", &mut || {
        ns_per_call(200_000, || {
            black_box(service.sample(&mut rng));
        })
    });
    measure(tracer, PUSH_POP, "ns", &mut || {
        // Hold model: pop the earliest event, push one a random gap later,
        // keeping the workload's pending depth.
        let depth = pending_depth(workload);
        let horizon = 2_000 * depth;
        let mut queue = EventQueue::new();
        for i in 0..depth {
            queue.push(Nanos::from_nanos(rng.index(horizon) as u64), i);
        }
        ns_per_call(200_000, || {
            let (at, event) = queue.pop().expect("the hold model keeps the queue full");
            queue.push(at + Nanos::from_nanos(1 + rng.index(horizon) as u64), event);
        })
    });
    measure(tracer, COMPLETION_TIMER, "ns", &mut || {
        // One in-service request per slot: each drained completion
        // schedules the slot's next one, arming wakes per the protocol.
        let mut timer = CompletionTimer::new();
        let mut wakes = BinaryHeap::new();
        let mut due = Vec::new();
        for slot in 0..load.servers {
            let at = Nanos::from_nanos(1 + rng.index(20_000) as u64);
            if let Some(wake) = timer.schedule(at, slot) {
                wakes.push(Reverse(wake));
            }
        }
        ns_per_op(|| {
            let mut done = 0;
            while done < 100_000 {
                let Reverse(now) = wakes.pop().expect("an armed wake covers every completion");
                if let Some(wake) = timer.wake(now, &mut due) {
                    wakes.push(Reverse(wake));
                }
                for (_, slot) in due.drain(..) {
                    done += 1;
                    let at = now + Nanos::from_nanos(1 + rng.index(20_000) as u64);
                    if let Some(wake) = timer.schedule(at, slot) {
                        wakes.push(Reverse(wake));
                    }
                }
            }
            done
        })
    });
    measure(tracer, OFFER_FINISH, "ns", &mut || {
        // A saturated pool: every offer queues, every finish dispatches.
        let class = ClassConfig {
            weight: 1,
            queue_capacity: load.queue_capacity,
            mean_cost: Nanos::from_micros(1),
        };
        let mut pool = SlotPool::new(load.servers, SlotPolicy::FifoArrival, vec![class])
            .expect("the quick loadgen pool is valid");
        let mut t = 0u64;
        for _ in 0..2 * load.servers {
            pool.offer(0, Nanos::from_nanos(t), t);
            t += 1;
        }
        ns_per_call(200_000, || {
            pool.offer(0, Nanos::from_nanos(t), t);
            black_box(pool.finish(0));
            t += 1;
        })
    });
    measure(tracer, CDF, "ns", &mut || {
        let n = cdf_samples(workload, seed);
        let samples: Vec<f64> = (0..n).map(|_| service.sample(&mut rng)).collect();
        let builds = (200_000 / n).max(1);
        ns_per_op(|| {
            for _ in 0..builds {
                black_box(Cdf::from_samples(samples.clone()).expect("samples are finite"));
            }
            (builds * n) as u64
        })
    });
    measure(tracer, SPAN, "ns", &mut || {
        let mut recorder =
            Recorder::try_new(ObsConfig::new(seed, 1.0)).expect("rate 1 is a valid recorder");
        let lane = recorder.lane("perfbench");
        let mut request = 0u64;
        ns_per_call(200_000, || {
            let at = Nanos::from_nanos(request);
            recorder.span(
                SpanKind::SlotService,
                request,
                lane,
                at,
                at + Nanos::from_nanos(1),
            );
            request += 1;
        })
    });
    for (records, value_bytes, get, set) in [
        (
            ycsb.records,
            ycsb.value_size,
            STORE_GET_V1000,
            STORE_SET_V1000,
        ),
        (
            LOADGEN_RECORDS,
            LOADGEN_VALUE_BYTES,
            STORE_GET_V100,
            STORE_SET_V100,
        ),
    ] {
        let store = Store::new(StoreConfig::default());
        let keys: Vec<String> = (0..records).map(|i| format!("user{i:08}")).collect();
        for key in &keys {
            store.set(key.as_bytes(), vec![b'x'; value_bytes]);
        }
        measure(tracer, get, "ns", &mut || {
            ns_per_call(50_000, || {
                black_box(store.get(keys[rng.index(records)].as_bytes()));
            })
        });
        measure(tracer, set, "ns", &mut || {
            ns_per_call(50_000, || {
                store.set(keys[rng.index(records)].as_bytes(), vec![b'y'; value_bytes]);
            })
        });
    }
    measure(tracer, RELSTORE_TXN, "ns", &mut || {
        // The open-loop MySQL backend's transaction: select, update, commit.
        let db = Database::new();
        let table = db.populate_sysbench(1, oltp.rows_per_table).remove(0);
        let rows = oltp.rows_per_table as usize;
        ns_per_call(20_000, || {
            let target = 1 + rng.index(rows) as u64;
            let mut txn = db.begin();
            let done = txn
                .select(&table, target)
                .and_then(|_| txn.update(&table, target, rng.index(1_000) as u64));
            match done {
                Ok(_) => txn.commit(),
                Err(_) => txn.rollback(),
            }
        })
    });
    measure(tracer, SHARD_OP, "ns", &mut || {
        // The cluster's sampled operation: alternate set and get under the
        // shard's byte budget, with the same key formatting and value.
        let mut shard = Shard::new(cluster.cache_bytes_per_shard);
        let mut tick = 0u64;
        ns_per_call(50_000, || {
            tick += 1;
            let key = format!("k{:08}", rng.index(cluster.keys));
            if tick % 2 == 0 {
                black_box(shard.get(key.as_bytes(), tick));
            } else {
                shard.set(key.as_bytes(), vec![0u8; cluster.value_bytes], tick);
            }
        })
    });
    out
}

/// One priced row of the ledger.
struct Row {
    layer: &'static str,
    count: f64,
    ns_per_op: f64,
}

impl Row {
    fn seconds(&self) -> f64 {
        self.count * self.ns_per_op / 1e9
    }
}

/// Prices every counted operation with its microbenchmark.
fn ledger_rows(counts: &Counts, micro: &[Metric]) -> Vec<Row> {
    counts
        .0
        .iter()
        .map(|(&layer, &count)| {
            let metric = micro
                .iter()
                .find(|m| m.name == layer)
                .expect("every counted layer has a microbenchmark");
            let scale = if metric.unit == "us" { 1e3 } else { 1.0 };
            Row {
                layer,
                count,
                ns_per_op: metric.value * scale,
            }
        })
        .collect()
}

fn ledger_json(
    args: &Args,
    wall: f64,
    merge: f64,
    rows: &[Row],
    coverage: f64,
    tracer: &Tracer,
) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"layer\": \"{}\", \"count\": {}, \"ns_per_op\": {}, \"attributed_s\": {}}}",
                r.layer,
                r.count,
                r.ns_per_op,
                r.seconds()
            )
        })
        .collect();
    let self_times: Vec<String> = tracer
        .self_time_by_layer()
        .iter()
        .map(|(layer, t)| {
            format!(
                "    {{\"span\": \"{}\", \"self_s\": {}}}",
                escape(layer),
                t.as_secs_f64()
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"perfbench/ledger/v1\",\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \
         \"wall_s\": {wall},\n  \"merge_s\": {merge},\n  \"coverage\": {coverage},\n  \
         \"rows\": [\n{}\n  ],\n  \"span_self_time\": [\n{}\n  ]\n}}\n",
        args.workload.name(),
        args.seed,
        rows.join(",\n"),
        self_times.join(",\n")
    )
}

/// The traced run: set up, one untraced and one traced pass, the sweep
/// probes, the closed-loop trials and the microbenchmarks; then the
/// ledger, the Chrome trace and the per-layer metrics.
///
/// # Errors
///
/// Fails on a set-up error or when the output files cannot be written.
pub fn traced(args: &Args, process_start: Instant) -> Result<(), String> {
    let (workload, seed) = (args.workload, args.seed);
    let mut tracer = Tracer::on(process_start);
    setup(workload, seed, process_start, &mut tracer)?;
    let mut oracle = Oracle::new(seed);

    let untraced = run_pass(workload, seed, &mut Tracer::off(), None);
    let mut attempted = untraced.cells();
    let mut failed = oracle.failed_cells(&untraced);

    alloc_count::start();
    let span = tracer.open("pass", workload.name());
    let pass = run_pass(workload, seed, &mut tracer, None);
    tracer.close(span);
    let (allocs, alloc_bytes) = alloc_count::stop();
    attempted += pass.cells();
    failed += oracle.failed_cells(&pass);

    let mut counts = Counts::default();
    counts.add_pass(&pass, seed);
    let probes = probe_sweeps(workload, seed, &mut tracer, &mut counts);
    for (_, probe) in &probes {
        attempted += probe.cells;
        failed += probe.failed_cells;
    }
    let (ycsb_ms, oltp_ms) = closed_loop_trials(seed, &mut tracer);
    let micro = microbenchmarks(workload, seed, &mut tracer);

    let wall = pass.wall.as_secs_f64();
    let merge: Duration = pass.runs.iter().map(|run| run.merge).sum();
    let rows = ledger_rows(&counts, &micro);
    let attributed = rows.iter().map(Row::seconds).sum::<f64>() + merge.as_secs_f64();
    let coverage = attributed / wall;

    let mut metrics = vec![
        Metric::new("harness.grid.cells", pass.cells() as f64, "count"),
        Metric::new("harness.grid.merge_ms", merge.as_secs_f64() * 1e3, "ms"),
    ];
    for &experiment in ExperimentId::all() {
        let cell_s = pass
            .runs
            .iter()
            .find(|run| run.experiment == experiment)
            .map_or(0.0, |run| run.cell_time.as_secs_f64());
        metrics.push(Metric::new(
            format!("harness.grid.cell_s.{}", experiment.slug()),
            cell_s,
            "s",
        ));
    }
    metrics.extend(micro);
    for (sub, probe) in &probes {
        metrics.push(Metric::new(
            format!("workloads.{}.req_per_s", sub.name()),
            probe.req_per_s(),
            "1/s",
        ));
    }
    metrics.push(Metric::new("workloads.ycsb.trial_ms", ycsb_ms, "ms"));
    metrics.push(Metric::new(
        "workloads.sysbench_oltp.trial_ms",
        oltp_ms,
        "ms",
    ));
    metrics.push(Metric::new("alloc.count", allocs as f64, "count"));
    metrics.push(Metric::new("alloc.bytes", alloc_bytes as f64, "B"));
    metrics.push(Metric::new("ledger.wall_s", wall, "s"));
    metrics.push(Metric::new("ledger.attributed_s", attributed, "s"));
    metrics.push(Metric::new("ledger.coverage", coverage, "ratio"));
    metrics.push(Metric::new(
        "trace.overhead_frac",
        wall / untraced.wall.as_secs_f64() - 1.0,
        "ratio",
    ));

    let out_dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating .bench_out: {e}"))?;
    let trace_path = out_dir.join(format!("wall_trace_{}.json", workload.name()));
    std::fs::write(&trace_path, tracer.chrome_json())
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    let ledger_path = out_dir.join(format!("ledger_{}.json", workload.name()));
    std::fs::write(
        &ledger_path,
        ledger_json(args, wall, merge.as_secs_f64(), &rows, coverage, &tracer),
    )
    .map_err(|e| format!("writing {}: {e}", ledger_path.display()))?;

    println!(
        "perfbench-traced {} seed {}: ledger (traced pass {wall:.3} s, merge {:.3} ms)",
        workload.name(),
        seed,
        merge.as_secs_f64() * 1e3
    );
    for row in &rows {
        println!(
            "  {:<40} {:>14.0} x {:>10.1} ns = {:>8.4} s",
            row.layer,
            row.count,
            row.ns_per_op,
            row.seconds()
        );
    }
    println!(
        "  coverage {coverage:.3} of wall; trace {}, ledger {}",
        trace_path.display(),
        ledger_path.display()
    );
    for m in &metrics {
        println!("  {:<48} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(attempted, failed, &metrics));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sweep_experiment_has_one_subsystem() {
        let mut covered: Vec<ExperimentId> = Subsystem::ALL
            .iter()
            .flat_map(|s| s.experiments().iter().copied())
            .collect();
        covered.sort();
        let mut sweeps: Vec<ExperimentId> = Workload::OpenLoop
            .experiments()
            .iter()
            .chain(Workload::Cluster.experiments())
            .copied()
            .collect();
        sweeps.sort();
        assert_eq!(covered, sweeps);
    }

    #[test]
    fn the_ledger_prices_counts_in_nanoseconds() {
        let mut counts = Counts::default();
        counts.add(BUILD_US, 3.0);
        counts.add(UNIFORM, 4.0);
        let micro = [
            Metric::new(BUILD_US, 2.0, "us"),
            Metric::new(UNIFORM, 5.0, "ns"),
        ];
        let seconds: Vec<f64> = ledger_rows(&counts, &micro)
            .iter()
            .map(Row::seconds)
            .collect();
        assert_eq!(seconds, vec![6e-6, 20e-9]);
    }
}
