//! Experiment identifiers and the generic figure data model.

use serde::{Deserialize, Serialize};

/// One experiment of the paper's evaluation section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ExperimentId {
    /// Fig. 5 — ffmpeg CPU-bound re-encode.
    Fig05Ffmpeg,
    /// Section 3.1 — Sysbench CPU prime verification.
    SysbenchPrime,
    /// Fig. 6 — tinymembench random-access latency sweep.
    Fig06MemLatency,
    /// Fig. 7 — tinymembench copy bandwidth.
    Fig07MemBandwidth,
    /// Fig. 8 — STREAM COPY bandwidth.
    Fig08Stream,
    /// Fig. 9 — fio 128 KiB read/write throughput.
    Fig09FioThroughput,
    /// Fig. 10 — fio 4 KiB random-read latency.
    Fig10FioLatency,
    /// Fig. 11 — iperf3 throughput.
    Fig11Iperf,
    /// Fig. 12 — netperf p90 latency.
    Fig12Netperf,
    /// Fig. 13 — container boot-time CDF.
    Fig13BootContainers,
    /// Fig. 14 — hypervisor boot-time CDF.
    Fig14BootHypervisors,
    /// Fig. 15 — OSv boot-time CDF under different hypervisors.
    Fig15BootOsv,
    /// Fig. 16 — Memcached YCSB throughput.
    Fig16Memcached,
    /// Fig. 17 — MySQL Sysbench OLTP thread sweep.
    Fig17Mysql,
    /// Fig. 18 — extended HAP metric.
    Fig18Hap,
    /// Beyond the paper: open-loop Memcached throughput-vs-latency curves.
    LoadMemcached,
    /// Beyond the paper: open-loop MySQL throughput-vs-latency curves.
    LoadMysql,
    /// Beyond the paper: Memcached multi-tenant co-location — a
    /// latency-sensitive victim against a swept aggressor on shared
    /// weighted service slots.
    TenantIsolationMemcached,
    /// Beyond the paper: MySQL multi-tenant co-location.
    TenantIsolationMysql,
    /// Beyond the paper: Memcached behind a staged middleware pipeline —
    /// per-stage in/out costs, a warmable auth cache, and short-circuits
    /// — swept over chain depth and cache hit rate.
    PipelineMemcached,
    /// Beyond the paper: MySQL behind a staged middleware pipeline.
    PipelineMysql,
    /// Beyond the paper: a Memcached sharded cluster — a routing tier
    /// hashing Zipf-skewed keys over N backend shards, swept over
    /// shard count, skew and rebalancing policy.
    ClusterMemcached,
    /// Beyond the paper: a MySQL sharded cluster.
    ClusterMysql,
    /// Beyond the paper: the Memcached cluster's replication round —
    /// R-way quorum replication, scatter-gather fan-out and a
    /// mid-window shard kill/recover with sloppy-quorum failover.
    ClusterFailoverMemcached,
    /// Beyond the paper: the MySQL replication/failover cluster.
    ClusterFailoverMysql,
}

impl ExperimentId {
    /// Every experiment in the evaluation, in paper order.
    pub fn all() -> &'static [ExperimentId] {
        use ExperimentId::*;
        &[
            Fig05Ffmpeg,
            SysbenchPrime,
            Fig06MemLatency,
            Fig07MemBandwidth,
            Fig08Stream,
            Fig09FioThroughput,
            Fig10FioLatency,
            Fig11Iperf,
            Fig12Netperf,
            Fig13BootContainers,
            Fig14BootHypervisors,
            Fig15BootOsv,
            Fig16Memcached,
            Fig17Mysql,
            Fig18Hap,
            LoadMemcached,
            LoadMysql,
            TenantIsolationMemcached,
            TenantIsolationMysql,
            PipelineMemcached,
            PipelineMysql,
            ClusterMemcached,
            ClusterMysql,
            ClusterFailoverMemcached,
            ClusterFailoverMysql,
        ]
    }

    /// The figure/section title.
    pub fn title(self) -> &'static str {
        use ExperimentId::*;
        match self {
            Fig05Ffmpeg => "Fig. 5: ffmpeg H.264->H.265 re-encode time (ms)",
            SysbenchPrime => "Sec. 3.1: Sysbench CPU prime verification (events/s)",
            Fig06MemLatency => "Fig. 6: tinymembench random access latency (ns)",
            Fig07MemBandwidth => "Fig. 7: tinymembench copy bandwidth (MiB/s)",
            Fig08Stream => "Fig. 8: STREAM COPY bandwidth (MiB/s)",
            Fig09FioThroughput => "Fig. 9: fio 128KiB throughput (MiB/s)",
            Fig10FioLatency => "Fig. 10: fio 4KiB randread latency (us)",
            Fig11Iperf => "Fig. 11: iperf3 throughput (Gbit/s)",
            Fig12Netperf => "Fig. 12: netperf p90 latency (us)",
            Fig13BootContainers => "Fig. 13: container boot time CDF (ms)",
            Fig14BootHypervisors => "Fig. 14: hypervisor boot time CDF (ms)",
            Fig15BootOsv => "Fig. 15: OSv boot time CDF (ms)",
            Fig16Memcached => "Fig. 16: Memcached YCSB throughput (ops/s)",
            Fig17Mysql => "Fig. 17: MySQL sysbench oltp_read_write (tps)",
            Fig18Hap => "Fig. 18: extended HAP metric",
            LoadMemcached => "Load: Memcached open-loop latency vs offered load (us)",
            LoadMysql => "Load: MySQL open-loop latency vs offered load (us)",
            TenantIsolationMemcached => {
                "Tenancy: Memcached victim p99 vs co-located aggressor load (us)"
            }
            TenantIsolationMysql => "Tenancy: MySQL victim p99 vs co-located aggressor load (us)",
            PipelineMemcached => {
                "Pipeline: Memcached latency vs middleware depth and cache hit rate (us)"
            }
            PipelineMysql => "Pipeline: MySQL latency vs middleware depth and cache hit rate (us)",
            ClusterMemcached => "Cluster: Memcached latency vs shard count under Zipf skew (us)",
            ClusterMysql => "Cluster: MySQL latency vs shard count under Zipf skew (us)",
            ClusterFailoverMemcached => {
                "Failover: Memcached quorum replication, scatter-gather and shard-kill (us)"
            }
            ClusterFailoverMysql => {
                "Failover: MySQL quorum replication, scatter-gather and shard-kill (us)"
            }
        }
    }

    /// A short stable identifier (used for CSV filenames and bench names).
    pub fn slug(self) -> &'static str {
        use ExperimentId::*;
        match self {
            Fig05Ffmpeg => "fig05_ffmpeg",
            SysbenchPrime => "sysbench_prime",
            Fig06MemLatency => "fig06_mem_latency",
            Fig07MemBandwidth => "fig07_mem_bandwidth",
            Fig08Stream => "fig08_stream",
            Fig09FioThroughput => "fig09_fio_throughput",
            Fig10FioLatency => "fig10_fio_latency",
            Fig11Iperf => "fig11_iperf",
            Fig12Netperf => "fig12_netperf",
            Fig13BootContainers => "fig13_boot_containers",
            Fig14BootHypervisors => "fig14_boot_hypervisors",
            Fig15BootOsv => "fig15_boot_osv",
            Fig16Memcached => "fig16_memcached",
            Fig17Mysql => "fig17_mysql",
            Fig18Hap => "fig18_hap",
            LoadMemcached => "load_memcached",
            LoadMysql => "load_mysql",
            TenantIsolationMemcached => "tenant_isolation_memcached",
            TenantIsolationMysql => "tenant_isolation_mysql",
            PipelineMemcached => "pipeline_memcached",
            PipelineMysql => "pipeline_mysql",
            ClusterMemcached => "cluster_memcached",
            ClusterMysql => "cluster_mysql",
            ClusterFailoverMemcached => "cluster_failover_memcached",
            ClusterFailoverMysql => "cluster_failover_mysql",
        }
    }
}

/// One data point of a series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataPoint {
    /// X-axis label (platform name, buffer size, thread count, ...).
    pub x: String,
    /// Numeric x value where meaningful (buffer bytes, thread count,
    /// CDF percentile); zero for categorical axes.
    pub x_value: f64,
    /// Mean of the measured metric.
    pub mean: f64,
    /// Standard deviation (error bar) of the metric.
    pub std_dev: f64,
}

impl DataPoint {
    /// A categorical data point (platform on the x axis).
    pub fn categorical(x: &str, mean: f64, std_dev: f64) -> Self {
        DataPoint {
            x: x.to_string(),
            x_value: 0.0,
            mean,
            std_dev,
        }
    }

    /// A numeric data point.
    pub fn numeric(x_value: f64, mean: f64, std_dev: f64) -> Self {
        DataPoint {
            x: format!("{x_value}"),
            x_value,
            mean,
            std_dev,
        }
    }
}

/// A labelled series of data points (one platform, one variant, ...).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Series label as it would appear in the figure legend.
    pub label: String,
    /// The data points.
    pub points: Vec<DataPoint>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: &str) -> Self {
        Series {
            label: label.to_string(),
            points: Vec::new(),
        }
    }

    /// Returns the mean value of the point with the given x label.
    pub fn mean_of(&self, x: &str) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.mean)
    }
}

/// The regenerated data behind one figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureData {
    /// Which experiment this is.
    pub experiment: ExperimentId,
    /// Figure title.
    pub title: String,
    /// One or more data series.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Creates an empty figure.
    pub fn new(experiment: ExperimentId) -> Self {
        FigureData {
            experiment,
            title: experiment.title().to_string(),
            series: Vec::new(),
        }
    }

    /// Finds a series by label.
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_have_unique_slugs_and_titles() {
        let slugs: std::collections::BTreeSet<_> =
            ExperimentId::all().iter().map(|e| e.slug()).collect();
        assert_eq!(slugs.len(), ExperimentId::all().len());
        assert_eq!(ExperimentId::all().len(), 25);
    }

    #[test]
    fn every_variant_with_a_slug_is_in_all() {
        // `slug()` must match every variant, one `=> "<slug>",` arm each,
        // so a variant left out of `all()` leaves an arm over.
        let source = include_str!("experiment.rs");
        let (_, body) = source
            .split_once("pub fn slug(self)")
            .expect("slug() is defined here");
        let (body, _) = body.split_once("\n    }\n").expect("slug() ends");
        let arms = body
            .lines()
            .filter(|line| line.contains(" => \"") && line.ends_with("\","))
            .count();
        assert_eq!(
            arms,
            ExperimentId::all().len(),
            "slug() names a variant that all() leaves out"
        );
    }

    #[test]
    fn series_lookup_by_label_and_x() {
        let mut fig = FigureData::new(ExperimentId::Fig11Iperf);
        let mut s = Series::new("throughput");
        s.points.push(DataPoint::categorical("native", 37.3, 0.2));
        fig.series.push(s);
        assert_eq!(
            fig.series_named("throughput").unwrap().mean_of("native"),
            Some(37.3)
        );
        assert!(fig.series_named("missing").is_none());
    }
}
