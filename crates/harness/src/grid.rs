//! The canonical experiment grid.
//!
//! Every figure of the evaluation decomposes into independent
//! `(experiment, platform entry, trial)` **cells**. Each cell derives its
//! own random stream statelessly via [`simcore::rng::derive`] from the
//! root seed, runs one trial of one platform's workload, and returns a
//! [`CellOutput`]. [`merge`] folds the per-cell outputs back into the
//! figure's series **in canonical order** (entry order × trial order), so
//! the resulting [`FigureData`] is bit-identical no matter how the cells
//! were scheduled — serially, sharded, or across any number of workers.
//!
//! [`crate::figures::run`] is the serial walk over this grid;
//! [`crate::executor::Executor`] fans the same cells out across threads.

use memsim::bandwidth::CopyMethod;
use platforms::subsystems::startup::StartupVariant;
use platforms::{Platform, PlatformId};
use simcore::rng;
use simcore::stats::{Cdf, RunningStats};
use simcore::SimRng;

use hap::HapSuite;
use workloads::bench::WorkloadBenchmark;
use workloads::cluster::{ClusterBenchmark, ClusterPoint};
use workloads::loadgen::{LoadBackend, LoadPoint, LoadgenBenchmark};
use workloads::pipeline::{PipelineBenchmark, PipelinePoint};
use workloads::tenancy::{ColocationPoint, TenancyBenchmark};
use workloads::{
    FfmpegBenchmark, FioBenchmark, IperfBenchmark, NetperfBenchmark, OltpBenchmark,
    StreamBenchmark, SysbenchCpuBenchmark, TinymembenchBenchmark, YcsbBenchmark,
};

use crate::config::RunConfig;
use crate::experiment::{DataPoint, ExperimentId, FigureData, Series};

/// One platform entry of an experiment's grid: a column of a bar figure,
/// one sweep series, or one boot-CDF series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The platform this entry runs on.
    pub platform: PlatformId,
    /// The start-up variant (only meaningful for the boot experiments).
    pub variant: StartupVariant,
    /// The entry's unique label within the experiment — the figure legend
    /// name, and the `platform` component of the cell's seed derivation.
    pub label: &'static str,
}

impl Entry {
    fn bar(platform: PlatformId) -> Entry {
        Entry {
            platform,
            variant: StartupVariant::Default,
            label: platform.label(),
        }
    }
}

/// The boot-CDF entry tables (Figs. 13–15), in figure-legend order.
const BOOT_CONTAINERS: &[(PlatformId, StartupVariant, &str)] = &[
    (PlatformId::Docker, StartupVariant::Default, "docker"),
    (PlatformId::Docker, StartupVariant::OciDirect, "runc (oci)"),
    (PlatformId::GvisorPtrace, StartupVariant::Default, "gvisor"),
    (
        PlatformId::GvisorPtrace,
        StartupVariant::OciDirect,
        "runsc (oci)",
    ),
    (PlatformId::Kata, StartupVariant::Default, "kata"),
    (PlatformId::Kata, StartupVariant::OciDirect, "kata (oci)"),
    (PlatformId::Lxc, StartupVariant::Default, "lxc"),
];

const BOOT_HYPERVISORS: &[(PlatformId, StartupVariant, &str)] = &[
    (
        PlatformId::CloudHypervisor,
        StartupVariant::Default,
        "cloud-hypervisor",
    ),
    (PlatformId::Qemu, StartupVariant::Default, "qemu"),
    (PlatformId::QemuQboot, StartupVariant::Default, "qemu-qboot"),
    (
        PlatformId::QemuMicrovm,
        StartupVariant::Default,
        "qemu-microvm",
    ),
    (
        PlatformId::Firecracker,
        StartupVariant::Default,
        "firecracker",
    ),
];

const BOOT_OSV: &[(PlatformId, StartupVariant, &str)] = &[
    (
        PlatformId::OsvFirecracker,
        StartupVariant::Default,
        "osv-fc (e2e)",
    ),
    (
        PlatformId::OsvFirecracker,
        StartupVariant::StdoutMethod,
        "osv-fc (stdout)",
    ),
    (
        PlatformId::OsvQemu,
        StartupVariant::Default,
        "osv-qemu (e2e)",
    ),
    (
        PlatformId::OsvQemu,
        StartupVariant::StdoutMethod,
        "osv-qemu (stdout)",
    ),
];

/// The platform set of the open-loop load-curve, multi-tenant
/// co-location, middleware-pipeline and sharded-cluster experiments: one
/// representative per family (baseline, container, hypervisor, microVM,
/// secure container ×2), in figure-legend order.
const LOAD_PLATFORMS: &[PlatformId] = &[
    PlatformId::Native,
    PlatformId::Docker,
    PlatformId::Qemu,
    PlatformId::Firecracker,
    PlatformId::Kata,
    PlatformId::GvisorPtrace,
];

fn boot_entries(table: &'static [(PlatformId, StartupVariant, &'static str)]) -> Vec<Entry> {
    table
        .iter()
        .map(|(platform, variant, label)| Entry {
            platform: *platform,
            variant: *variant,
            label,
        })
        .collect()
}

/// The canonical platform entries of one experiment, in figure order.
pub fn entries(experiment: ExperimentId) -> Vec<Entry> {
    use ExperimentId::*;
    match experiment {
        Fig10FioLatency => PlatformId::paper_set()
            .iter()
            .chain([PlatformId::KataVirtioFs].iter())
            .map(|id| Entry::bar(*id))
            .collect(),
        Fig13BootContainers => boot_entries(BOOT_CONTAINERS),
        Fig14BootHypervisors => boot_entries(BOOT_HYPERVISORS),
        Fig15BootOsv => boot_entries(BOOT_OSV),
        LoadMemcached
        | LoadMysql
        | TenantIsolationMemcached
        | TenantIsolationMysql
        | PipelineMemcached
        | PipelineMysql
        | ClusterMemcached
        | ClusterMysql
        | ClusterFailoverMemcached
        | ClusterFailoverMysql => LOAD_PLATFORMS.iter().map(|id| Entry::bar(*id)).collect(),
        _ => PlatformId::paper_set()
            .iter()
            .map(|id| Entry::bar(*id))
            .collect(),
    }
}

/// The natural trial count of one experiment under the given
/// configuration: the paper's repetition count for the repeated figures,
/// the startup count for the boot CDFs, one for the deterministic HAP
/// metric.
pub fn trials(experiment: ExperimentId, cfg: &RunConfig) -> usize {
    use ExperimentId::*;
    let natural = match experiment {
        // The figure reports the max/p90 over at least 5 runs.
        Fig11Iperf | Fig12Netperf => cfg.runs.max(5),
        Fig13BootContainers | Fig14BootHypervisors | Fig15BootOsv => cfg.startups,
        Fig16Memcached => ycsb_bench(cfg).runs,
        Fig17Mysql => oltp_bench(cfg).runs,
        Fig18Hap => 1,
        LoadMemcached | LoadMysql => load_bench(experiment, cfg).runs,
        TenantIsolationMemcached | TenantIsolationMysql => tenant_bench(experiment, cfg).runs,
        PipelineMemcached | PipelineMysql => pipeline_bench(experiment, cfg).runs,
        ClusterMemcached | ClusterMysql => cluster_bench(experiment, cfg).runs,
        ClusterFailoverMemcached | ClusterFailoverMysql => failover_bench(experiment, cfg).runs,
        _ => cfg.runs,
    };
    // A zero-run/zero-startup config still produces one trial per cell so
    // merging never sees an empty grid.
    natural.max(1)
}

/// One x position of a sweep cell's output.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// X-axis label.
    pub x: String,
    /// Numeric x value (buffer bytes, thread count, load fraction, or
    /// the setting's index in the sweep).
    pub x_value: f64,
    /// The sampled metrics at this x: one value for Figs. 6 and 17, one
    /// per [`metrics`] column for the sweep families.
    pub values: Vec<f64>,
}

/// The measurement one cell contributes to its figure.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutput {
    /// One sample per figure series (the bar figures; most experiments
    /// contribute to one series, fio throughput and tinymembench copy
    /// bandwidth to two).
    Scalars(Vec<f64>),
    /// One row per x position: the Fig. 6 buffer sweep, the Fig. 17
    /// thread sweep, and every load, tenancy, pipeline, cluster and
    /// failover sweep.
    Sweep(Vec<SweepPoint>),
    /// One boot time in milliseconds (the CDF figures).
    Boot(f64),
    /// The deterministic HAP metrics of one platform.
    Hap {
        /// Distinct host kernel functions invoked.
        distinct: f64,
        /// EPSS-weighted attack-surface score.
        weighted: f64,
    },
    /// The platform is excluded from this experiment.
    Skip,
}

fn fio_bench(cfg: &RunConfig) -> FioBenchmark {
    let mut bench = FioBenchmark::new(1);
    if cfg.quick {
        bench.guest_memory_bytes = 2 << 30;
    }
    bench
}

fn ycsb_bench(cfg: &RunConfig) -> YcsbBenchmark {
    if cfg.quick {
        YcsbBenchmark::quick()
    } else {
        YcsbBenchmark::default()
    }
}

fn oltp_bench(cfg: &RunConfig) -> OltpBenchmark {
    if cfg.quick {
        OltpBenchmark::quick()
    } else {
        OltpBenchmark::default()
    }
}

fn load_bench(experiment: ExperimentId, cfg: &RunConfig) -> LoadgenBenchmark {
    let backend = match experiment {
        ExperimentId::LoadMysql => LoadBackend::Mysql,
        _ => LoadBackend::Memcached,
    };
    if cfg.quick {
        LoadgenBenchmark::quick(backend)
    } else {
        LoadgenBenchmark::new(backend)
    }
}

fn tenant_bench(experiment: ExperimentId, cfg: &RunConfig) -> TenancyBenchmark {
    let backend = match experiment {
        ExperimentId::TenantIsolationMysql => LoadBackend::Mysql,
        _ => LoadBackend::Memcached,
    };
    if cfg.quick {
        TenancyBenchmark::quick(backend)
    } else {
        TenancyBenchmark::new(backend)
    }
}

fn pipeline_bench(experiment: ExperimentId, cfg: &RunConfig) -> PipelineBenchmark {
    let backend = match experiment {
        ExperimentId::PipelineMysql => LoadBackend::Mysql,
        _ => LoadBackend::Memcached,
    };
    if cfg.quick {
        PipelineBenchmark::quick(backend)
    } else {
        PipelineBenchmark::new(backend)
    }
}

fn cluster_bench(experiment: ExperimentId, cfg: &RunConfig) -> ClusterBenchmark {
    let backend = match experiment {
        ExperimentId::ClusterMysql => LoadBackend::Mysql,
        _ => LoadBackend::Memcached,
    };
    if cfg.quick {
        ClusterBenchmark::quick(backend)
    } else {
        ClusterBenchmark::new(backend)
    }
}

fn failover_bench(experiment: ExperimentId, cfg: &RunConfig) -> ClusterBenchmark {
    let backend = match experiment {
        ExperimentId::ClusterFailoverMysql => LoadBackend::Mysql,
        _ => LoadBackend::Memcached,
    };
    if cfg.quick {
        ClusterBenchmark::failover_quick(backend)
    } else {
        ClusterBenchmark::failover(backend)
    }
}

/// Runs one sweep-workload trial through the unified
/// [`WorkloadBenchmark`] surface and projects its points through the
/// family's metric table into [`CellOutput::Sweep`] rows — the single
/// dispatch point of the load-curve, tenancy, pipeline and cluster cells.
/// A new sweep workload reaches the grid by implementing the trait and
/// giving its point type a table here.
fn run_sweep_trial<B: WorkloadBenchmark>(
    bench: &B,
    table: &Table<B::Point>,
    platform: &Platform,
    rng: &mut SimRng,
) -> CellOutput {
    let points = bench
        .run_trial(platform, rng)
        .expect("paper platforms derate to valid sweep configurations");
    CellOutput::Sweep(
        points
            .iter()
            .enumerate()
            .map(|(index, point)| table.row(index, point))
            .collect(),
    )
}

/// Runs one cell: one trial of one platform entry of one experiment.
///
/// The cell's random stream is derived statelessly from
/// `(cfg.seed, experiment, entry label, trial)`, so the output depends
/// only on those four values — never on scheduling.
pub fn run_cell(
    experiment: ExperimentId,
    entry: &Entry,
    trial: usize,
    cfg: &RunConfig,
) -> CellOutput {
    let platform = entry.platform.build();
    let mut rng = rng::derive(cfg.seed, experiment.slug(), entry.label, trial as u64);
    use ExperimentId::*;
    match experiment {
        Fig05Ffmpeg => {
            let stats = FfmpegBenchmark::new(1).run_summary_ms(&platform, &mut rng);
            CellOutput::Scalars(vec![stats.mean()])
        }
        SysbenchPrime => {
            let stats = SysbenchCpuBenchmark::new(1).run_events_per_sec(&platform, &mut rng);
            CellOutput::Scalars(vec![stats.mean()])
        }
        Fig06MemLatency => {
            let points = TinymembenchBenchmark::new(1).run_latency(&platform, &mut rng);
            CellOutput::Sweep(
                points
                    .into_iter()
                    .map(|p| SweepPoint {
                        x: format!("2^{}", (p.buffer_bytes as f64).log2() as u32),
                        x_value: p.buffer_bytes as f64,
                        values: vec![p.latency_ns.mean()],
                    })
                    .collect(),
            )
        }
        Fig07MemBandwidth => {
            let bench = TinymembenchBenchmark::new(1);
            let regular = bench.run_bandwidth(&platform, CopyMethod::Regular, &mut rng);
            let sse2 = bench.run_bandwidth(&platform, CopyMethod::Sse2, &mut rng);
            CellOutput::Scalars(vec![regular.mean(), sse2.mean()])
        }
        Fig08Stream => {
            let stats = StreamBenchmark::new(1).run(&platform, &mut rng);
            CellOutput::Scalars(vec![stats.mean()])
        }
        Fig09FioThroughput => match fio_bench(cfg).run_throughput(&platform, &mut rng) {
            Some(out) => CellOutput::Scalars(vec![out.read_mib_s.mean(), out.write_mib_s.mean()]),
            None => CellOutput::Skip,
        },
        Fig10FioLatency => match fio_bench(cfg).run_randread_latency(&platform, &mut rng) {
            Some(stats) => CellOutput::Scalars(vec![stats.mean()]),
            None => CellOutput::Skip,
        },
        Fig11Iperf => {
            let stats = IperfBenchmark::new(1).run(&platform, &mut rng);
            CellOutput::Scalars(vec![stats.mean()])
        }
        Fig12Netperf => {
            let stats = NetperfBenchmark::new(1).run_p90_us(&platform, &mut rng);
            CellOutput::Scalars(vec![stats.mean()])
        }
        Fig13BootContainers | Fig14BootHypervisors | Fig15BootOsv => CellOutput::Boot(
            platform
                .startup()
                .sample(entry.variant, &mut rng)
                .as_millis_f64(),
        ),
        Fig16Memcached => {
            let mut bench = ycsb_bench(cfg);
            bench.runs = 1;
            CellOutput::Scalars(vec![bench.run_trial(&platform, &mut rng)])
        }
        Fig17Mysql => {
            let mut bench = oltp_bench(cfg);
            bench.runs = 1;
            CellOutput::Sweep(
                bench
                    .run_trial(&platform, &mut rng)
                    .into_iter()
                    .map(|(threads, tps)| SweepPoint {
                        x: format!("{}", threads as f64),
                        x_value: threads as f64,
                        values: vec![tps],
                    })
                    .collect(),
            )
        }
        Fig18Hap => {
            let suite = if cfg.quick {
                HapSuite::quick()
            } else {
                HapSuite::default()
            };
            let profile = suite.profile(&platform);
            CellOutput::Hap {
                distinct: profile.distinct_functions as f64,
                weighted: profile.weighted_score,
            }
        }
        LoadMemcached | LoadMysql => {
            run_sweep_trial(&load_bench(experiment, cfg), &LOAD, &platform, &mut rng)
        }
        TenantIsolationMemcached | TenantIsolationMysql => {
            run_sweep_trial(&tenant_bench(experiment, cfg), &TENANT, &platform, &mut rng)
        }
        PipelineMemcached | PipelineMysql => run_sweep_trial(
            &pipeline_bench(experiment, cfg),
            &PIPELINE,
            &platform,
            &mut rng,
        ),
        ClusterMemcached | ClusterMysql => run_sweep_trial(
            &cluster_bench(experiment, cfg),
            &CLUSTER,
            &platform,
            &mut rng,
        ),
        ClusterFailoverMemcached | ClusterFailoverMysql => run_sweep_trial(
            &failover_bench(experiment, cfg),
            &FAILOVER,
            &platform,
            &mut rng,
        ),
    }
}

/// The figure series labels of the bar and HAP experiments, in series
/// order (sweeps and boot CDFs name their series after the entries).
fn series_labels(experiment: ExperimentId) -> &'static [&'static str] {
    use ExperimentId::*;
    match experiment {
        Fig05Ffmpeg => &["re-encode time (ms)"],
        SysbenchPrime => &["events/s"],
        Fig07MemBandwidth => &["regular copy (MiB/s)", "sse2 copy (MiB/s)"],
        Fig08Stream => &["copy bandwidth (MiB/s)"],
        Fig09FioThroughput => &["read (MiB/s)", "write (MiB/s)"],
        Fig10FioLatency => &["randread latency (us)"],
        Fig11Iperf => &["throughput (Gbit/s)"],
        Fig12Netperf => &["p90 latency (us)"],
        Fig16Memcached => &["throughput (ops/s)"],
        Fig18Hap => &["distinct host kernel functions", "EPSS-weighted score"],
        _ => &[],
    }
}

/// The CDF percentiles the boot figures report.
const BOOT_PERCENTILES: [f64; 6] = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0];

/// Merges the outputs of every cell of one experiment — indexed
/// `outputs[entry][trial]` in canonical order — into the figure data.
///
/// Merging is a pure fold over the canonically ordered outputs, so two
/// runs that produced the same cells yield byte-identical figures
/// regardless of the order the cells actually completed in.
pub fn merge(experiment: ExperimentId, outputs: &[Vec<CellOutput>]) -> FigureData {
    use ExperimentId::*;
    match experiment {
        Fig06MemLatency | Fig17Mysql => merge_sweep(experiment, outputs, &[]),
        Fig13BootContainers | Fig14BootHypervisors | Fig15BootOsv => {
            merge_boot(experiment, outputs)
        }
        Fig18Hap => merge_hap(experiment, outputs),
        // Fig. 11 reports the maximum over the runs, everything else the mean.
        Fig11Iperf => merge_bars(experiment, outputs, true),
        _ => match layout(experiment) {
            Some(layout) => merge_sweep(experiment, outputs, &layout.metrics),
            None => merge_bars(experiment, outputs, false),
        },
    }
}

/// One metric column of a sweep family's table, without its reader: what
/// the merge and the bench report need to know about it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Metric {
    /// The series-label suffix: the figure names the column's series
    /// `"<platform> <label>"`.
    pub label: &'static str,
    /// The key the bench report writes the column's mean under.
    pub key: &'static str,
    /// The decimal places the bench report writes.
    pub decimals: usize,
}

/// The x axis of a sweep family's table.
enum Axis<P: 'static> {
    /// A load fraction read from the point: labelled to two decimals and
    /// reported as a number under the key.
    Fraction(&'static str, fn(&P) -> f64),
    /// A named sweep setting read from the point: valued by its index in
    /// the sweep and reported as a string under `"setting"`.
    Setting(fn(&P) -> &str),
}

/// A sweep family's metric table: its x axis and its metric columns in
/// series order. It is the only code that knows the family's metrics:
/// the cells project through it, and the merge and the bench report read
/// its [`Layout`].
struct Table<P: 'static> {
    axis: Axis<P>,
    columns: &'static [Column<P>],
}

/// One column of a [`Table`]: its [`Metric`] and the reader that takes
/// the column's value from a point.
type Column<P> = (Metric, fn(&P) -> f64);

const fn column<P>(
    label: &'static str,
    key: &'static str,
    decimals: usize,
    read: fn(&P) -> f64,
) -> Column<P> {
    (
        Metric {
            label,
            key,
            decimals,
        },
        read,
    )
}

impl<P> Table<P> {
    /// Projects the sweep's `index`-th point into its cell row.
    fn row(&self, index: usize, point: &P) -> SweepPoint {
        let (x, x_value) = match self.axis {
            Axis::Fraction(_, fraction) => {
                let fraction = fraction(point);
                (format!("{fraction:.2}"), fraction)
            }
            Axis::Setting(name) => (name(point).to_string(), index as f64),
        };
        SweepPoint {
            x,
            x_value,
            values: self.columns.iter().map(|(_, read)| read(point)).collect(),
        }
    }

    fn layout(&self) -> Layout {
        Layout {
            fraction_key: match self.axis {
                Axis::Fraction(key, _) => Some(key),
                Axis::Setting(_) => None,
            },
            metrics: self.columns.iter().map(|(metric, _)| *metric).collect(),
        }
    }
}

/// A sweep family's table without its readers.
#[derive(Debug)]
pub(crate) struct Layout {
    /// The report key of a load-fraction x axis; `None` for a named
    /// setting, which the report writes under `"setting"`.
    pub fraction_key: Option<&'static str>,
    /// The metric columns, in series order.
    pub metrics: Vec<Metric>,
}

/// The table layout of a load, tenancy, pipeline, cluster or failover
/// experiment; `None` for the paper's figures.
pub(crate) fn layout(experiment: ExperimentId) -> Option<Layout> {
    use ExperimentId::*;
    Some(match experiment {
        LoadMemcached | LoadMysql => LOAD.layout(),
        TenantIsolationMemcached | TenantIsolationMysql => TENANT.layout(),
        PipelineMemcached | PipelineMysql => PIPELINE.layout(),
        ClusterMemcached | ClusterMysql => CLUSTER.layout(),
        ClusterFailoverMemcached | ClusterFailoverMysql => FAILOVER.layout(),
        _ => return None,
    })
}

/// The per-platform metric series labels of a sweep experiment's figure,
/// in series order (empty for the paper's figures). Every series is
/// labelled `"<platform> <metric>"`.
pub fn metrics(experiment: ExperimentId) -> Vec<&'static str> {
    layout(experiment)
        .map(|layout| layout.metrics.iter().map(|metric| metric.label).collect())
        .unwrap_or_default()
}

/// Series-label suffix of the load figures' median sojourn time.
pub const LOAD_P50: &str = "p50 (us)";
/// Series-label suffix of the load figures' 95th-percentile sojourn time.
pub const LOAD_P95: &str = "p95 (us)";
/// Series-label suffix of the load figures' 99th-percentile sojourn time.
pub const LOAD_P99: &str = "p99 (us)";
/// Series-label suffix of the load figures' achieved throughput.
pub const LOAD_ACHIEVED: &str = "achieved (req/s)";

/// The load-curve table: per offered-load fraction, the sojourn-time
/// percentiles and the achieved throughput.
static LOAD: Table<LoadPoint> = Table {
    axis: Axis::Fraction("fraction", |p| p.offered_fraction),
    columns: &[
        column(LOAD_P50, "p50_us", 3, |p| p.p50_us),
        column(LOAD_P95, "p95_us", 3, |p| p.p95_us),
        column(LOAD_P99, "p99_us", 3, |p| p.p99_us),
        column(LOAD_ACHIEVED, "achieved_per_sec", 3, |p| p.achieved_per_sec),
    ],
};

/// Victim median sojourn time under the weighted scheduler.
pub const TENANT_VICTIM_P50: &str = "victim p50 (us)";
/// Victim 95th-percentile sojourn time under the weighted scheduler.
pub const TENANT_VICTIM_P95: &str = "victim p95 (us)";
/// Victim 99th-percentile sojourn time under the weighted scheduler.
pub const TENANT_VICTIM_P99: &str = "victim p99 (us)";
/// Victim achieved throughput under the weighted scheduler.
pub const TENANT_VICTIM_ACHIEVED: &str = "victim achieved (req/s)";
/// Victim drop rate (dropped / issued) under the weighted scheduler.
pub const TENANT_VICTIM_DROP_RATE: &str = "victim drop rate";
/// Fraction of victim completions slower than its p99 SLO target.
pub const TENANT_VICTIM_SLO_VIOLATION: &str = "victim slo violation";
/// Victim p99 running alone on the platform (same streams).
pub const TENANT_VICTIM_SOLO_P99: &str = "victim solo p99 (us)";
/// Victim p99 under unweighted global-FIFO sharing (same streams).
pub const TENANT_VICTIM_FIFO_P99: &str = "victim fifo p99 (us)";
/// Isolation index: co-located (weighted) victim p99 / solo victim p99.
pub const TENANT_ISOLATION_INDEX: &str = "victim isolation index";
/// Aggressor median sojourn time under the weighted scheduler.
pub const TENANT_AGGRESSOR_P50: &str = "aggressor p50 (us)";
/// Aggressor 95th-percentile sojourn time under the weighted scheduler.
pub const TENANT_AGGRESSOR_P95: &str = "aggressor p95 (us)";
/// Aggressor 99th-percentile sojourn time under the weighted scheduler.
pub const TENANT_AGGRESSOR_P99: &str = "aggressor p99 (us)";
/// Aggressor achieved throughput under the weighted scheduler.
pub const TENANT_AGGRESSOR_ACHIEVED: &str = "aggressor achieved (req/s)";
/// Aggressor drop rate (dropped / issued) under the weighted scheduler.
pub const TENANT_AGGRESSOR_DROP_RATE: &str = "aggressor drop rate";

/// The tenant-isolation table: per aggressor offered-load fraction, the
/// victim's percentiles, throughput, drop/SLO behaviour and isolation
/// diagnostics (solo baseline, FIFO comparison, isolation index), then
/// the aggressor's percentiles, throughput and drop rate.
static TENANT: Table<ColocationPoint> = Table {
    axis: Axis::Fraction("aggressor_fraction", |p| p.aggressor_fraction),
    columns: &[
        column(TENANT_VICTIM_P50, "victim_p50_us", 3, |p| p.victim.p50_us),
        column(TENANT_VICTIM_P95, "victim_p95_us", 3, |p| p.victim.p95_us),
        column(TENANT_VICTIM_P99, "victim_p99_us", 3, |p| p.victim.p99_us),
        column(TENANT_VICTIM_ACHIEVED, "victim_achieved_per_sec", 3, |p| {
            p.victim.achieved_per_sec
        }),
        column(TENANT_VICTIM_DROP_RATE, "victim_drop_rate", 6, |p| {
            p.victim.drop_rate
        }),
        column(
            TENANT_VICTIM_SLO_VIOLATION,
            "victim_slo_violation",
            6,
            |p| p.victim.slo_violation,
        ),
        column(TENANT_VICTIM_SOLO_P99, "victim_solo_p99_us", 3, |p| {
            p.victim_solo_p99_us
        }),
        column(TENANT_VICTIM_FIFO_P99, "victim_fifo_p99_us", 3, |p| {
            p.victim_fifo_p99_us
        }),
        column(TENANT_ISOLATION_INDEX, "isolation_index", 4, |p| {
            p.isolation_index
        }),
        column(TENANT_AGGRESSOR_P50, "aggressor_p50_us", 3, |p| {
            p.aggressor.p50_us
        }),
        column(TENANT_AGGRESSOR_P95, "aggressor_p95_us", 3, |p| {
            p.aggressor.p95_us
        }),
        column(TENANT_AGGRESSOR_P99, "aggressor_p99_us", 3, |p| {
            p.aggressor.p99_us
        }),
        column(
            TENANT_AGGRESSOR_ACHIEVED,
            "aggressor_achieved_per_sec",
            3,
            |p| p.aggressor.achieved_per_sec,
        ),
        column(TENANT_AGGRESSOR_DROP_RATE, "aggressor_drop_rate", 6, |p| {
            p.aggressor.drop_rate
        }),
    ],
};

/// Pipeline median sojourn time (queueing + chain + backend).
pub const PIPELINE_P50: &str = "p50 (us)";
/// Pipeline 99th-percentile sojourn time.
pub const PIPELINE_P99: &str = "p99 (us)";
/// Mean middleware cost charged per response (the per-stage latency tax
/// summed over the entered stages).
pub const PIPELINE_STAGE_TAX: &str = "stage tax (us)";
/// Fraction of responses short-circuited by a middleware stage.
pub const PIPELINE_SHORT_CIRCUIT: &str = "short-circuit fraction";
/// Auth-cache hit fraction over the point's accesses.
pub const PIPELINE_CACHE_HIT: &str = "cache hit fraction";
/// Dropped fraction of all issued requests.
pub const PIPELINE_DROP_RATE: &str = "drop fraction";

/// The middleware-pipeline table: per depth/hit-rate setting, the
/// sojourn percentiles, the per-request middleware tax, and the
/// short-circuit / cache-hit / drop fractions.
static PIPELINE: Table<PipelinePoint> = Table {
    axis: Axis::Setting(|p| &p.label),
    columns: &[
        column(PIPELINE_P50, "p50_us", 3, |p| p.p50_us),
        column(PIPELINE_P99, "p99_us", 3, |p| p.p99_us),
        column(PIPELINE_STAGE_TAX, "stage_tax_us", 3, |p| p.stage_tax_us),
        column(PIPELINE_SHORT_CIRCUIT, "short_circuit_fraction", 6, |p| {
            p.short_circuit_fraction
        }),
        column(PIPELINE_CACHE_HIT, "cache_hit_fraction", 6, |p| {
            p.cache_hit_fraction
        }),
        column(PIPELINE_DROP_RATE, "drop_fraction", 6, |p| p.drop_fraction),
    ],
};

/// Cluster-wide median sojourn time across all shards.
pub const CLUSTER_P50: &str = "p50 (us)";
/// Cluster-wide 99th-percentile sojourn time across all shards.
pub const CLUSTER_P99: &str = "p99 (us)";
/// 99th-percentile sojourn time on the hottest shard (by arrivals).
pub const CLUSTER_HOT_P99: &str = "hot shard p99 (us)";
/// Steady-phase load imbalance: hottest shard arrivals over the
/// per-shard mean (1.0 = perfectly balanced).
pub const CLUSTER_IMBALANCE: &str = "imbalance";
/// Completed cluster throughput.
pub const CLUSTER_ACHIEVED: &str = "achieved (req/s)";
/// Dropped fraction of all issued requests.
pub const CLUSTER_DROP_RATE: &str = "drop fraction";

/// The sharded-cluster table: per shard-count/skew/routing setting, the
/// cluster-wide sojourn percentiles, the hottest shard's tail, the
/// steady-phase load imbalance, and the achieved/drop behaviour.
static CLUSTER: Table<ClusterPoint> = Table {
    axis: Axis::Setting(|p| &p.label),
    columns: &[
        column(CLUSTER_P50, "p50_us", 3, |p| p.p50_us),
        column(CLUSTER_P99, "p99_us", 3, |p| p.p99_us),
        column(CLUSTER_HOT_P99, "hot_shard_p99_us", 3, |p| p.hot_p99_us),
        column(CLUSTER_IMBALANCE, "imbalance", 4, |p| p.imbalance),
        column(CLUSTER_ACHIEVED, "achieved_per_sec", 3, |p| {
            p.achieved_per_sec
        }),
        column(CLUSTER_DROP_RATE, "drop_fraction", 6, |p| p.drop_fraction),
    ],
};

/// 99th-percentile sojourn of the scatter-gather class (max over its K
/// partial queries).
pub const FAILOVER_SCATTER_P99: &str = "scatter p99 (us)";
/// Sub-requests the sloppy quorum handed off around a dead shard.
pub const FAILOVER_HANDOFFS: &str = "hand-offs";
/// Virtual-time instant of the shard kill (µs into the window); `-1` for
/// settings with no fault injected.
pub const FAILOVER_FAIL_AT: &str = "fail at (us)";
/// Drop rate over requests resolved before the failure instant.
pub const FAILOVER_PRE_DROP: &str = "pre-fail drop rate";
/// Drop rate over requests resolved inside the failure window.
pub const FAILOVER_WINDOW_DROP: &str = "fail-window drop rate";
/// Drop rate over requests resolved after the recovery instant.
pub const FAILOVER_POST_DROP: &str = "post-recover drop rate";

/// The replication/failover table: per quorum/fan-out/fault setting, the
/// cluster-wide sojourn percentiles, the scatter-gather tail, the drop
/// behaviour, the sloppy-quorum hand-off count and the failure-phase
/// drop rates.
static FAILOVER: Table<ClusterPoint> = Table {
    axis: Axis::Setting(|p| &p.label),
    columns: &[
        column(CLUSTER_P50, "p50_us", 3, |p| p.p50_us),
        column(CLUSTER_P99, "p99_us", 3, |p| p.p99_us),
        column(FAILOVER_SCATTER_P99, "scatter_p99_us", 3, |p| {
            p.scatter_p99_us
        }),
        column(CLUSTER_DROP_RATE, "drop_fraction", 6, |p| p.drop_fraction),
        column(FAILOVER_HANDOFFS, "handoffs", 3, |p| {
            p.failover_handoffs as f64
        }),
        column(FAILOVER_FAIL_AT, "fail_at_us", 3, |p| p.fail_at_us),
        column(FAILOVER_PRE_DROP, "pre_fail_drop_rate", 6, |p| {
            p.pre_fail_drop_rate
        }),
        column(FAILOVER_WINDOW_DROP, "fail_window_drop_rate", 6, |p| {
            p.fail_window_drop_rate
        }),
        column(FAILOVER_POST_DROP, "post_recover_drop_rate", 6, |p| {
            p.post_recover_drop_rate
        }),
    ],
};

/// The platform labels of a merged per-metric sweep figure (load,
/// tenancy, pipeline, cluster or failover), recovered in canonical entry
/// order by stripping one of the figure's [`metrics`] (e.g.
/// [`LOAD_P50`], [`TENANT_VICTIM_P99`], [`PIPELINE_STAGE_TAX`],
/// [`CLUSTER_HOT_P99`]) from its `"<platform> <metric>"` series labels.
/// Any metric the figure carries recovers the same list; the bench
/// report passes the table's first column.
pub fn platforms_of(fig: &FigureData, metric: &str) -> Vec<String> {
    let suffix = format!(" {metric}");
    fig.series
        .iter()
        .filter_map(|s| s.label.strip_suffix(suffix.as_str()))
        .map(str::to_string)
        .collect()
}

fn merge_bars(
    experiment: ExperimentId,
    outputs: &[Vec<CellOutput>],
    headline_max: bool,
) -> FigureData {
    let labels = series_labels(experiment);
    let mut fig = FigureData::new(experiment);
    let mut series: Vec<Series> = labels.iter().map(|l| Series::new(l)).collect();
    for (entry, trials) in entries(experiment).iter().zip(outputs) {
        let mut stats = vec![RunningStats::new(); labels.len()];
        let mut ran = false;
        for output in trials {
            match output {
                CellOutput::Scalars(values) => {
                    ran = true;
                    for (s, value) in stats.iter_mut().zip(values) {
                        s.record(*value);
                    }
                }
                CellOutput::Skip => {}
                other => unreachable!("{experiment:?} produced {other:?}, expected scalars"),
            }
        }
        if !ran {
            // Excluded platform (fio on Firecracker/OSv/gVisor): no point.
            continue;
        }
        for (s, stat) in series.iter_mut().zip(&stats) {
            let value = if headline_max {
                stat.max().unwrap_or(0.0)
            } else {
                stat.mean()
            };
            s.points
                .push(DataPoint::categorical(entry.label, value, stat.std_dev()));
        }
    }
    fig.series = series;
    fig
}

/// Merges a sweep experiment's rows: one series per entry and metric
/// column, labelled `"<platform> <metric>"`, or one per entry, labelled
/// by the entry alone, for the single-valued Figs. 6 and 17 (no
/// `metrics`). Each point is the mean and spread of its column over the
/// trials, at the first trial's x.
fn merge_sweep(
    experiment: ExperimentId,
    outputs: &[Vec<CellOutput>],
    metrics: &[Metric],
) -> FigureData {
    let mut fig = FigureData::new(experiment);
    for (entry, trials) in entries(experiment).iter().zip(outputs) {
        let sweeps: Vec<&[SweepPoint]> = trials
            .iter()
            .map(|output| match output {
                CellOutput::Sweep(points) => points.as_slice(),
                other => unreachable!("{experiment:?} produced {other:?}, expected a sweep"),
            })
            .collect();
        let first = sweeps.first().expect("every entry runs at least one trial");
        let labels: Vec<String> = if metrics.is_empty() {
            vec![entry.label.to_string()]
        } else {
            metrics
                .iter()
                .map(|metric| format!("{} {}", entry.label, metric.label))
                .collect()
        };
        for (column, label) in labels.iter().enumerate() {
            let mut series = Series::new(label);
            for (xi, sample) in first.iter().enumerate() {
                let stats: RunningStats = sweeps
                    .iter()
                    .map(|points| points[xi].values[column])
                    .collect();
                series.points.push(DataPoint {
                    x: sample.x.clone(),
                    x_value: sample.x_value,
                    mean: stats.mean(),
                    std_dev: stats.std_dev(),
                });
            }
            fig.series.push(series);
        }
    }
    fig
}

fn merge_boot(experiment: ExperimentId, outputs: &[Vec<CellOutput>]) -> FigureData {
    let mut fig = FigureData::new(experiment);
    for (entry, trials) in entries(experiment).iter().zip(outputs) {
        let samples: Vec<f64> = trials
            .iter()
            .map(|output| match output {
                CellOutput::Boot(ms) => *ms,
                other => unreachable!("{experiment:?} produced {other:?}, expected a boot time"),
            })
            .collect();
        let cdf = Cdf::from_samples(samples).expect("boot entries always produce samples");
        let mut series = Series::new(entry.label);
        for pct in BOOT_PERCENTILES {
            series
                .points
                .push(DataPoint::numeric(pct, cdf.percentile(pct), 0.0));
        }
        fig.series.push(series);
    }
    fig
}

fn merge_hap(experiment: ExperimentId, outputs: &[Vec<CellOutput>]) -> FigureData {
    let mut fig = FigureData::new(experiment);
    let labels = series_labels(experiment);
    let mut distinct_series = Series::new(labels[0]);
    let mut weighted_series = Series::new(labels[1]);
    for (entry, trials) in entries(experiment).iter().zip(outputs) {
        match trials.first() {
            Some(CellOutput::Hap { distinct, weighted }) => {
                distinct_series
                    .points
                    .push(DataPoint::categorical(entry.label, *distinct, 0.0));
                weighted_series
                    .points
                    .push(DataPoint::categorical(entry.label, *weighted, 0.0));
            }
            other => unreachable!("{experiment:?} produced {other:?}, expected a HAP profile"),
        }
    }
    fig.series.push(distinct_series);
    fig.series.push(weighted_series);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RunConfig {
        RunConfig::quick(7)
    }

    #[test]
    fn every_experiment_has_entries_and_trials() {
        for experiment in ExperimentId::all() {
            assert!(!entries(*experiment).is_empty(), "{experiment:?}");
            assert!(trials(*experiment, &cfg()) >= 1, "{experiment:?}");
        }
    }

    #[test]
    fn entry_labels_are_unique_within_each_experiment() {
        for experiment in ExperimentId::all() {
            let labels: std::collections::BTreeSet<_> = entries(*experiment)
                .iter()
                .map(|entry| entry.label)
                .collect();
            assert_eq!(
                labels.len(),
                entries(*experiment).len(),
                "{experiment:?} has duplicate entry labels"
            );
        }
    }

    #[test]
    fn cells_are_deterministic_and_trial_independent() {
        let experiment = ExperimentId::Fig08Stream;
        let entry = entries(experiment)[0];
        let a = run_cell(experiment, &entry, 3, &cfg());
        let b = run_cell(experiment, &entry, 3, &cfg());
        assert_eq!(a, b);
        let c = run_cell(experiment, &entry, 4, &cfg());
        assert_ne!(a, c, "different trials must sample different streams");
    }

    #[test]
    fn excluded_platforms_skip_their_fio_cells() {
        let experiment = ExperimentId::Fig09FioThroughput;
        let firecracker = entries(experiment)
            .into_iter()
            .find(|entry| entry.platform == PlatformId::Firecracker)
            .unwrap();
        assert_eq!(
            run_cell(experiment, &firecracker, 0, &cfg()),
            CellOutput::Skip
        );
    }

    #[test]
    fn load_experiments_cover_multiple_platform_families() {
        for experiment in [ExperimentId::LoadMemcached, ExperimentId::LoadMysql] {
            let entries = entries(experiment);
            assert!(entries.len() >= 3, "{experiment:?} needs >= 3 platforms");
            let families: std::collections::BTreeSet<_> = entries
                .iter()
                .map(|entry| entry.platform.family())
                .collect();
            assert!(families.len() >= 3, "{experiment:?} families {families:?}");
        }
    }

    #[test]
    fn sweep_cells_merge_one_series_per_platform_and_metric() {
        let sweeps: Vec<ExperimentId> = ExperimentId::all()
            .iter()
            .copied()
            .filter(|experiment| layout(*experiment).is_some())
            .collect();
        assert!(!sweeps.is_empty());
        for experiment in sweeps {
            let grid_entries = entries(experiment);
            assert!(grid_entries.len() >= 3, "{experiment:?}");
            let entry = &grid_entries[0];
            let outputs = [vec![run_cell(experiment, entry, 0, &cfg())]];
            let metrics = metrics(experiment);
            let rows = match &outputs[0][0] {
                CellOutput::Sweep(rows) => rows.len(),
                other => panic!("{experiment:?} produced {other:?}, expected a sweep"),
            };
            assert!(rows >= 5, "{experiment:?} sweeps only {rows} points");
            let fig = merge(experiment, &outputs);
            assert_eq!(fig.series.len(), metrics.len(), "{experiment:?}");
            for metric in &metrics {
                let series = fig
                    .series_named(&format!("{} {metric}", entry.label))
                    .unwrap_or_else(|| panic!("{experiment:?} lacks {} {metric}", entry.label));
                assert_eq!(series.points.len(), rows);
            }
            assert_eq!(
                platforms_of(&fig, metrics[0]),
                vec![entry.label.to_string()]
            );
        }
    }

    #[test]
    fn sweep_benchmarks_reach_their_stress_points() {
        fn trial<B: WorkloadBenchmark>(bench: B) -> Vec<B::Point> {
            bench.run_point(7, &PlatformId::Native.build()).unwrap()
        }
        use ExperimentId::*;
        let tenant = trial(tenant_bench(TenantIsolationMemcached, &cfg()));
        assert!(tenant.last().unwrap().aggressor_fraction > 1.0, "overload");
        let pipeline = trial(pipeline_bench(PipelineMemcached, &cfg()));
        assert!(pipeline.iter().any(|p| p.depth == 8), "8 stages");
        let storm = |p: &PipelinePoint| p.planned_hit_rate > p.hit_rate + 0.5;
        assert!(pipeline.iter().any(storm), "cache-miss storm");
        let cluster = trial(cluster_bench(ClusterMemcached, &cfg()));
        assert!(cluster.iter().any(|p| p.shards == 256), "256 shards");
        assert!(cluster.iter().any(|p| p.rebalanced), "resharding");
        let failover = trial(failover_bench(ClusterFailoverMemcached, &cfg()));
        assert!(failover.iter().any(|p| p.replicas == 3), "R=3");
        assert!(failover.iter().any(|p| p.fanout == 16), "K=16");
        let recovers = |p: &ClusterPoint| p.failed_shard >= 0 && p.recover_at_us > 0.0;
        assert!(failover.iter().any(recovers), "kill then recover");
    }

    #[test]
    fn merge_preserves_canonical_entry_order() {
        let experiment = ExperimentId::Fig05Ffmpeg;
        let grid_entries = entries(experiment);
        let outputs: Vec<Vec<CellOutput>> = grid_entries
            .iter()
            .map(|entry| {
                (0..2)
                    .map(|trial| run_cell(experiment, entry, trial, &cfg()))
                    .collect()
            })
            .collect();
        let fig = merge(experiment, &outputs);
        let xs: Vec<&str> = fig.series[0].points.iter().map(|p| p.x.as_str()).collect();
        let expected: Vec<&str> = grid_entries.iter().map(|entry| entry.label).collect();
        assert_eq!(xs, expected);
    }
}
