//! Machine-checkable versions of the paper's key findings.
//!
//! Each check re-derives one of the paper's numbered findings (or
//! conclusions), or a headline claim of an extension beyond the paper,
//! from already-generated figure data. The tier-1 tests run every check
//! on the quick seed-2021 figures they compute, one experiment family
//! per test file, and `examples/full_evaluation.rs` runs them on its
//! executor run, so both show whether the reproduction still exhibits
//! the published behaviour.

use crate::experiment::{ExperimentId, FigureData};

/// The outcome of one finding check.
#[derive(Debug, Clone, PartialEq)]
pub struct FindingCheck {
    /// Identifier, e.g. "finding-01".
    pub id: &'static str,
    /// What the paper claims.
    pub claim: &'static str,
    /// Whether the regenerated data supports the claim.
    pub passed: bool,
    /// A short explanation with the relevant numbers.
    pub detail: String,
}

fn check(id: &'static str, claim: &'static str, passed: bool, detail: String) -> FindingCheck {
    FindingCheck {
        id,
        claim,
        passed,
        detail,
    }
}

/// Runs the finding checks against already-generated figure data — e.g.
/// an executor run's figures — without re-running any experiment. Checks
/// whose figures are absent from the slice are skipped.
pub fn check_findings_on(figures: &[FigureData]) -> Vec<FindingCheck> {
    let fig = |e: ExperimentId| figures.iter().find(|f| f.experiment == e);
    let mut out = Vec::new();

    // Finding 1 / 2: prime benchmark equal everywhere, ffmpeg penalises
    // custom schedulers.
    if let (Some(prime), Some(ffmpeg)) = (
        fig(ExperimentId::SysbenchPrime),
        fig(ExperimentId::Fig05Ffmpeg),
    ) {
        let s = &prime.series[0];
        let native = s.mean_of("native").unwrap_or(0.0);
        let spread = s
            .points
            .iter()
            .map(|p| (p.mean - native).abs() / native)
            .fold(0.0f64, f64::max);
        out.push(check(
            "finding-01",
            "basic CPU-bound work shows no overhead on any platform",
            spread < 0.1,
            format!("max deviation from native {:.1}%", spread * 100.0),
        ));
        let f = &ffmpeg.series[0];
        let native_ms = f.mean_of("native").unwrap_or(0.0);
        let osv_ms = f.mean_of("osv").unwrap_or(0.0);
        out.push(check(
            "finding-01b",
            "complex SIMD/thread-heavy encoding penalises custom schedulers (OSv)",
            osv_ms > native_ms * 1.4,
            format!("osv {osv_ms:.0} ms vs native {native_ms:.0} ms"),
        ));
    }

    // Finding 3/4: Kata memory not impaired; Firecracker is the outlier.
    if let Some(latency) = fig(ExperimentId::Fig06MemLatency) {
        let last = |label: &str| {
            latency
                .series_named(label)
                .and_then(|s| s.points.last())
                .map(|p| p.mean)
                .unwrap_or(0.0)
        };
        let native = last("native");
        out.push(check(
            "finding-03",
            "Kata (QEMU NVDIMM) memory latency is not significantly impaired",
            last("kata") < native * 1.15,
            format!("kata {:.0} ns vs native {:.0} ns", last("kata"), native),
        ));
        out.push(check(
            "finding-04",
            "Firecracker is the memory latency outlier, ahead of Cloud Hypervisor",
            last("firecracker") > last("cloud-hypervisor") && last("cloud-hypervisor") > native,
            format!(
                "fc {:.0} ns, chv {:.0} ns, native {:.0} ns",
                last("firecracker"),
                last("cloud-hypervisor"),
                native
            ),
        ));
    }

    // Findings 6/7: I/O of secure containers suffers; virtio-fs fixes Kata.
    if let Some(fio_lat) = fig(ExperimentId::Fig10FioLatency) {
        let s = &fio_lat.series[0];
        let kata = s.mean_of("kata").unwrap_or(0.0);
        let kata_vfs = s.mean_of("kata-virtiofs").unwrap_or(f64::MAX);
        let qemu = s.mean_of("qemu").unwrap_or(0.0);
        out.push(check(
            "finding-06",
            "Kata (9p) random-read latency is exceptionally poor",
            kata > qemu * 1.5,
            format!("kata {kata:.0} us vs qemu {qemu:.0} us"),
        ));
        out.push(check(
            "finding-07",
            "virtio-fs significantly outperforms 9p for Kata",
            kata_vfs < kata * 0.7,
            format!("kata-virtiofs {kata_vfs:.0} us vs kata {kata:.0} us"),
        ));
    }

    // Findings 10-12 / network: bridges ~10%, hypervisors ~25%, gVisor outlier.
    if let Some(iperf) = fig(ExperimentId::Fig11Iperf) {
        let s = &iperf.series[0];
        let native = s.mean_of("native").unwrap_or(0.0);
        let docker = s.mean_of("docker").unwrap_or(0.0);
        let qemu = s.mean_of("qemu").unwrap_or(0.0);
        let osv = s.mean_of("osv").unwrap_or(0.0);
        let gvisor = s.mean_of("gvisor").unwrap_or(0.0);
        out.push(check(
            "network-bridge",
            "bridge-based containers lose roughly 10% of native throughput",
            (0.05..0.15).contains(&(1.0 - docker / native)),
            format!("docker {docker:.1} vs native {native:.1} Gbit/s"),
        ));
        out.push(check(
            "network-hypervisor",
            "TAP+virtio hypervisors lose roughly 25%, while OSv under QEMU is ~25% above QEMU",
            (0.18..0.32).contains(&(1.0 - qemu / native)) && osv / qemu > 1.18,
            format!("qemu {qemu:.1}, osv {osv:.1}, native {native:.1} Gbit/s"),
        ));
        out.push(check(
            "finding-12",
            "gVisor is an extreme network outlier",
            gvisor < native * 0.25,
            format!("gvisor {gvisor:.1} vs native {native:.1} Gbit/s"),
        ));
    }

    // Findings 13-15: boot times.
    if let (Some(containers), Some(hypervisors), Some(osv_boot)) = (
        fig(ExperimentId::Fig13BootContainers),
        fig(ExperimentId::Fig14BootHypervisors),
        fig(ExperimentId::Fig15BootOsv),
    ) {
        let median = |fig: &crate::experiment::FigureData, label: &str| {
            fig.series_named(label)
                .and_then(|s| s.points.iter().find(|p| p.x_value == 50.0))
                .map(|p| p.mean)
                .unwrap_or(0.0)
        };
        let docker = median(containers, "runc (oci)");
        let kata = median(containers, "kata (oci)");
        let lxc = median(containers, "lxc");
        out.push(check(
            "finding-13",
            "containers boot fast except Kata and LXC (>600 ms)",
            docker < 200.0 && kata > 500.0 && lxc > 600.0,
            format!("docker {docker:.0} ms, kata {kata:.0} ms, lxc {lxc:.0} ms"),
        ));
        let fc = median(hypervisors, "firecracker");
        let chv = median(hypervisors, "cloud-hypervisor");
        let microvm = median(hypervisors, "qemu-microvm");
        out.push(check(
            "finding-14",
            "Firecracker boots slowest of the three hypervisors; Cloud Hypervisor fastest; QEMU-microvm slowest overall",
            chv < fc && fc < microvm,
            format!("chv {chv:.0} ms, fc {fc:.0} ms, microvm {microvm:.0} ms"),
        ));
        let osv_fc = median(osv_boot, "osv-fc (e2e)");
        let osv_qemu = median(osv_boot, "osv-qemu (e2e)");
        out.push(check(
            "finding-15",
            "OSv boots as fast as containers and its boot time depends on the hypervisor",
            osv_fc < 250.0 && osv_fc < osv_qemu,
            format!("osv-fc {osv_fc:.0} ms vs osv-qemu {osv_qemu:.0} ms"),
        ));
    }

    // Findings 24-27 / conclusions 8-9: the HAP ordering.
    if let Some(hap) = fig(ExperimentId::Fig18Hap) {
        let s = hap.series_named("distinct host kernel functions").unwrap();
        let get = |label: &str| s.mean_of(label).unwrap_or(0.0);
        let fc = get("firecracker");
        let max_other = s
            .points
            .iter()
            .filter(|p| p.x != "firecracker")
            .map(|p| p.mean)
            .fold(0.0f64, f64::max);
        out.push(check(
            "finding-24",
            "Firecracker calls into the host kernel most often of all platforms",
            fc > max_other,
            format!("firecracker {fc:.0} vs next {max_other:.0}"),
        ));
        out.push(check(
            "finding-25",
            "Cloud Hypervisor invokes far fewer host functions than the other hypervisors",
            get("cloud-hypervisor") < get("qemu") && get("cloud-hypervisor") < fc,
            format!(
                "chv {:.0}, qemu {:.0}, fc {fc:.0}",
                get("cloud-hypervisor"),
                get("qemu")
            ),
        ));
        out.push(check(
            "finding-26",
            "secure containers have higher HAP than regular containers",
            get("kata") > get("docker") && get("gvisor") > get("docker"),
            format!(
                "kata {:.0}, gvisor {:.0}, docker {:.0}",
                get("kata"),
                get("gvisor"),
                get("docker")
            ),
        ));
        out.push(check(
            "finding-27",
            "OSv executes the fewest host kernel functions",
            s.points
                .iter()
                .all(|p| p.x == "osv" || p.x == "osv-fc" || p.mean > get("osv")),
            format!("osv {:.0}", get("osv")),
        ));
    }

    // Beyond the paper: open-loop load behaviour. These curves are new
    // ground — the paper's closed-loop macro benchmarks cannot see them.
    if let Some(load) = fig(ExperimentId::LoadMemcached) {
        let p99_at = |platform: &str, fraction: &str| {
            load.series_named(&format!("{platform} {}", crate::grid::LOAD_P99))
                .and_then(|s| s.points.iter().find(|p| p.x == fraction))
                .map(|p| p.mean)
                .unwrap_or(0.0)
        };
        let native_low = p99_at("native", "0.20");
        let native_high = p99_at("native", "0.95");
        out.push(check(
            "load-01",
            "open-loop tail latency inflates as offered load approaches saturation",
            native_high > native_low,
            format!("native p99 {native_low:.1} us at 20% load vs {native_high:.1} us at 95%"),
        ));
        let gvisor_high = p99_at("gvisor", "0.95");
        out.push(check(
            "load-02",
            "at equal utilization, secure containers pay their per-request tax in absolute tail latency",
            gvisor_high > native_high,
            format!("gvisor p99 {gvisor_high:.1} us vs native {native_high:.1} us at 95% load"),
        ));
    }
    // Hockey-stick knee: the largest relative p99 jump of the derived
    // latency-vs-achieved-throughput curve must sit in the saturation
    // region (between the two highest offered loads) on every platform.
    if let Some(load) = fig(ExperimentId::LoadMemcached) {
        let mut knees = Vec::new();
        let mut all_at_the_end = true;
        for platform in crate::grid::platforms_of(load, crate::grid::LOAD_P50) {
            let series = load
                .series_named(&format!("{platform} {}", crate::grid::LOAD_P99))
                .expect("p99 series exists for every load platform");
            let jumps: Vec<f64> = series
                .points
                .windows(2)
                .map(|pair| pair[1].mean / pair[0].mean.max(f64::MIN_POSITIVE))
                .collect();
            // A knee needs at least two points to exist; a degenerate
            // single-point sweep fails the check instead of panicking.
            let Some((knee, _)) = jumps.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) else {
                all_at_the_end = false;
                knees.push(format!("{platform} sweep too short for a knee"));
                continue;
            };
            if knee + 1 != jumps.len() {
                all_at_the_end = false;
            }
            knees.push(format!(
                "{platform} knee at {}",
                series.points[knee + 1].x.as_str()
            ));
        }
        out.push(check(
            "load-04",
            "every platform's hockey-stick knee sits at the saturation end of the load sweep",
            all_at_the_end && !knees.is_empty(),
            knees.join(", "),
        ));
    }
    if let Some(load) = fig(ExperimentId::LoadMysql) {
        let achieved_at = |platform: &str, fraction: &str| {
            load.series_named(&format!("{platform} {}", crate::grid::LOAD_ACHIEVED))
                .and_then(|s| s.points.iter().find(|p| p.x == fraction))
                .map(|p| p.mean)
                .unwrap_or(0.0)
        };
        let native = achieved_at("native", "0.80");
        let gvisor = achieved_at("gvisor", "0.80");
        out.push(check(
            "load-03",
            "at the same utilization fraction, native sustains a far higher absolute MySQL request rate",
            native > gvisor * 1.5,
            format!("native {native:.0} req/s vs gvisor {gvisor:.0} req/s at 80% load"),
        ));
    }

    // Beyond the paper: multi-tenant co-location. A latency-sensitive
    // victim shares the platform's weighted service slots with a bursty
    // aggressor swept into overload.
    if let Some(tenancy) = fig(ExperimentId::TenantIsolationMemcached) {
        let platforms = crate::grid::platforms_of(tenancy, crate::grid::TENANT_VICTIM_P99);
        let last = |platform: &str, metric: &str| {
            tenancy
                .series_named(&format!("{platform} {metric}"))
                .and_then(|s| s.points.last())
                .map(|p| p.mean)
                .unwrap_or(0.0)
        };

        // tenant-01: co-location inflates every victim's p99, and the
        // platform tax ordering survives the interference — the secure
        // container's victim tail stays above the native victim's.
        let native_p99 = last("native", crate::grid::TENANT_VICTIM_P99);
        let gvisor_p99 = last("gvisor", crate::grid::TENANT_VICTIM_P99);
        let min_inflation = platforms
            .iter()
            .map(|p| last(p, crate::grid::TENANT_ISOLATION_INDEX))
            .fold(f64::MAX, f64::min);
        out.push(check(
            "tenant-01",
            "an overloading aggressor inflates the victim's p99 on every platform, and the per-platform tax ordering survives co-location",
            min_inflation > 1.0 && gvisor_p99 > native_p99 && !platforms.is_empty(),
            format!(
                "min isolation index {min_inflation:.2}; victim p99 gvisor {gvisor_p99:.0} us vs native {native_p99:.0} us"
            ),
        ));

        // tenant-02: weighted slots bound the aggressor's impact — at
        // overload the victim's p99 under DRR undercuts unweighted FIFO
        // sharing on every platform.
        let worst_ratio = platforms
            .iter()
            .map(|p| {
                last(p, crate::grid::TENANT_VICTIM_P99)
                    / last(p, crate::grid::TENANT_VICTIM_FIFO_P99).max(f64::MIN_POSITIVE)
            })
            .fold(0.0f64, f64::max);
        out.push(check(
            "tenant-02",
            "weighted service slots bound the aggressor's impact: victim p99 under DRR stays below unweighted FIFO sharing at overload",
            worst_ratio < 1.0 && !platforms.is_empty(),
            format!("worst drr/fifo victim p99 ratio {worst_ratio:.3}"),
        ));

        // tenant-03: the bounded per-tenant queues shed the aggressor's
        // overload progressively — its drop rate is monotone in offered
        // load and strictly positive once past saturation.
        let mut monotone = true;
        let mut top_drop = f64::MAX;
        for platform in &platforms {
            let series = tenancy
                .series_named(&format!(
                    "{platform} {}",
                    crate::grid::TENANT_AGGRESSOR_DROP_RATE
                ))
                .expect("drop-rate series exists for every platform");
            let mut prev = 0.0f64;
            for point in &series.points {
                if point.mean < prev - 1e-9 {
                    monotone = false;
                }
                prev = point.mean;
            }
            top_drop = top_drop.min(prev);
        }
        out.push(check(
            "tenant-03",
            "the aggressor's drop rate rises monotonically with its offered load and is positive in overload on every platform",
            monotone && top_drop > 0.0 && !platforms.is_empty(),
            format!("smallest overload drop rate {top_drop:.3}"),
        ));
    }

    // Beyond the paper: the staged middleware pipeline. Every request now
    // pays explicit per-stage costs on top of the backend, so chain depth,
    // cache health, and the platform tax interact in measurable ways.
    if let Some(pipeline) = fig(ExperimentId::PipelineMemcached) {
        let platforms = crate::grid::platforms_of(pipeline, crate::grid::PIPELINE_STAGE_TAX);
        let at = |platform: &str, metric: &str, label: &str| {
            pipeline
                .series_named(&format!("{platform} {metric}"))
                .and_then(|s| s.mean_of(label))
                .unwrap_or(0.0)
        };

        // pipeline-01: deeper chains charge a larger stage tax and a
        // higher median on every platform — and the tax itself scales
        // clearly super-linearly versus a single stage.
        let mut depth_holds = !platforms.is_empty();
        let mut min_tax_ratio = f64::MAX;
        for platform in &platforms {
            let p50_d1 = at(platform, crate::grid::PIPELINE_P50, "d1 h0.90");
            let p50_d8 = at(platform, crate::grid::PIPELINE_P50, "d8 h0.90");
            let tax_d1 = at(platform, crate::grid::PIPELINE_STAGE_TAX, "d1 h0.90");
            let tax_d8 = at(platform, crate::grid::PIPELINE_STAGE_TAX, "d8 h0.90");
            if !(p50_d8 > p50_d1 && tax_d8 > tax_d1) {
                depth_holds = false;
            }
            min_tax_ratio = min_tax_ratio.min(tax_d8 / tax_d1.max(f64::MIN_POSITIVE));
        }
        out.push(check(
            "pipeline-01",
            "deeper middleware chains raise both the per-request stage tax and the median latency on every platform",
            depth_holds && min_tax_ratio > 2.0,
            format!("smallest d8/d1 stage-tax ratio {min_tax_ratio:.2}"),
        ));

        // pipeline-02: a cache-miss storm at the same depth blows the tail
        // past the warm-cache operating point on every platform, because
        // the capacity plan assumed the warm hit rate.
        let mut storm_holds = !platforms.is_empty();
        let mut min_storm_ratio = f64::MAX;
        for platform in &platforms {
            let warm = at(platform, crate::grid::PIPELINE_P99, "d4 h0.90");
            let storm = at(platform, crate::grid::PIPELINE_P99, "d4 miss-storm");
            let ratio = storm / warm.max(f64::MIN_POSITIVE);
            if ratio <= 1.5 {
                storm_holds = false;
            }
            min_storm_ratio = min_storm_ratio.min(ratio);
        }
        out.push(check(
            "pipeline-02",
            "a cache-miss storm inflates p99 well past the warm-cache point at the same chain depth on every platform",
            storm_holds,
            format!("smallest storm/warm p99 ratio {min_storm_ratio:.2}"),
        ));

        // pipeline-03: the platform tax compounds through the chain — the
        // secure container pays a strictly larger absolute stage tax and
        // tail than native at the deepest sweep point.
        let native_p99 = at("native", crate::grid::PIPELINE_P99, "d8 h0.90");
        let gvisor_p99 = at("gvisor", crate::grid::PIPELINE_P99, "d8 h0.90");
        let native_tax = at("native", crate::grid::PIPELINE_STAGE_TAX, "d8 h0.90");
        let gvisor_tax = at("gvisor", crate::grid::PIPELINE_STAGE_TAX, "d8 h0.90");
        out.push(check(
            "pipeline-03",
            "the platform tax compounds through the chain: gVisor's deep-chain p99 and stage tax exceed native's",
            gvisor_p99 > native_p99 && gvisor_tax > native_tax,
            format!(
                "d8 p99 gvisor {gvisor_p99:.0} us vs native {native_p99:.0} us; stage tax gvisor {gvisor_tax:.1} us vs native {native_tax:.1} us"
            ),
        ));
    }

    // Beyond the paper: the sharded cluster. A routing tier spreads
    // Zipf-skewed keys over N backend shards, so placement skew,
    // fleet size, and resharding policy become measurable.
    if let Some(cluster) = fig(ExperimentId::ClusterMemcached) {
        let platforms = crate::grid::platforms_of(cluster, crate::grid::CLUSTER_HOT_P99);
        let at = |platform: &str, metric: &str, label: &str| {
            cluster
                .series_named(&format!("{platform} {metric}"))
                .and_then(|s| s.mean_of(label))
                .unwrap_or(0.0)
        };

        // cluster-01: key skew concentrates the tail on the hot shard —
        // at a fixed fleet size, raising the Zipf skew inflates both the
        // steady-phase load imbalance and the hottest shard's p99 on
        // every platform.
        let mut skew_holds = !platforms.is_empty();
        let mut min_imbalance_ratio = f64::MAX;
        for platform in &platforms {
            let balanced = at(platform, crate::grid::CLUSTER_IMBALANCE, "s16 z0.00");
            let skewed = at(platform, crate::grid::CLUSTER_IMBALANCE, "s16 z0.99");
            let hot_balanced = at(platform, crate::grid::CLUSTER_HOT_P99, "s16 z0.00");
            let hot_skewed = at(platform, crate::grid::CLUSTER_HOT_P99, "s16 z0.99");
            if !(skewed > balanced && hot_skewed > hot_balanced) {
                skew_holds = false;
            }
            min_imbalance_ratio = min_imbalance_ratio.min(skewed / balanced.max(f64::MIN_POSITIVE));
        }
        out.push(check(
            "cluster-01",
            "Zipf key skew concentrates load: at 16 shards, strong skew inflates the steady imbalance and the hot shard's p99 on every platform",
            skew_holds && min_imbalance_ratio > 1.3,
            format!("smallest z0.99/z0.00 imbalance ratio {min_imbalance_ratio:.2}"),
        ));

        // cluster-02: scale-out flattens the median but not the hot
        // tail — the cluster p50 falls 1→256 shards while the hottest
        // shard's p99 keeps growing, because the hottest key still lands
        // on exactly one shard whose load share does not shrink with N.
        let mut scale_holds = !platforms.is_empty();
        let mut min_hot_ratio = f64::MAX;
        for platform in &platforms {
            let p50_one = at(platform, crate::grid::CLUSTER_P50, "s1");
            let p50_many = at(platform, crate::grid::CLUSTER_P50, "s256");
            let hot_one = at(platform, crate::grid::CLUSTER_HOT_P99, "s1");
            let hot_many = at(platform, crate::grid::CLUSTER_HOT_P99, "s256");
            if !(p50_many < p50_one && hot_many > hot_one) {
                scale_holds = false;
            }
            min_hot_ratio = min_hot_ratio.min(hot_many / hot_one.max(f64::MIN_POSITIVE));
        }
        out.push(check(
            "cluster-02",
            "scale-out flattens the median but not the hot tail: 1→256 shards lowers cluster p50 while the hot shard's p99 grows on every platform",
            scale_holds && min_hot_ratio > 1.5,
            format!("smallest s256/s1 hot-shard p99 ratio {min_hot_ratio:.2}"),
        ));

        // cluster-03: resharding during churn restores balance — the
        // rebalanced point's steady-phase imbalance undercuts the stale
        // pinned placement by a wide margin and stays near the hashed
        // placement floor on every platform.
        let mut rebalance_holds = !platforms.is_empty();
        let mut max_rebal_ratio = 0.0f64;
        for platform in &platforms {
            let pinned = at(platform, crate::grid::CLUSTER_IMBALANCE, "s16 pinned");
            let rebal = at(platform, crate::grid::CLUSTER_IMBALANCE, "s16 rebal");
            let hashed = at(platform, crate::grid::CLUSTER_IMBALANCE, "s16");
            let ratio = rebal / pinned.max(f64::MIN_POSITIVE);
            if !(ratio < 0.75 && rebal < hashed * 1.5) {
                rebalance_holds = false;
            }
            max_rebal_ratio = max_rebal_ratio.max(ratio);
        }
        out.push(check(
            "cluster-03",
            "resharding during tenant churn restores balance: the rebalanced steady imbalance undercuts the stale pinned placement and lands near the hashed floor on every platform",
            rebalance_holds,
            format!("largest rebal/pinned imbalance ratio {max_rebal_ratio:.2}"),
        ));
    }

    // Beyond the paper: replication, failover and scatter-gather. The
    // quorum discipline (sojourn = max over the touched replicas) and a
    // seed-injected mid-window shard kill make tail-at-scale and
    // availability-under-failure measurable.
    if let Some(failover) = fig(ExperimentId::ClusterFailoverMemcached) {
        let platforms = crate::grid::platforms_of(failover, crate::grid::FAILOVER_SCATTER_P99);
        let at = |platform: &str, metric: &str, label: &str| {
            failover
                .series_named(&format!("{platform} {metric}"))
                .and_then(|s| s.mean_of(label))
                .unwrap_or(0.0)
        };

        // failover-01: the quorum max inflates the sojourn
        // distribution — a read-all shape at R=3 (W=1, reads wait for
        // all three replicas) lifts the cluster median past both
        // single-shard routing (R=1) and the narrow-read shape (W=R,
        // reads touch one replica) on every platform, even though
        // spreading each key over its replica set simultaneously
        // smooths the Zipf hot shard.
        let mut quorum_holds = !platforms.is_empty();
        let mut min_quorum_ratio = f64::MAX;
        for platform in &platforms {
            let single = at(platform, crate::grid::CLUSTER_P50, "r1");
            let read_all = at(platform, crate::grid::CLUSTER_P50, "r3 w1");
            let read_one = at(platform, crate::grid::CLUSTER_P50, "r3 w3");
            if !(read_one > single && read_all > read_one) {
                quorum_holds = false;
            }
            min_quorum_ratio = min_quorum_ratio.min(read_all / single.max(f64::MIN_POSITIVE));
        }
        out.push(check(
            "failover-01",
            "the quorum max inflates sojourn: R=3 read-all lifts the cluster median over both single-shard routing and the narrow-read quorum shape on every platform",
            quorum_holds && min_quorum_ratio > 1.1,
            format!("smallest read-all/single median ratio {min_quorum_ratio:.2}"),
        ));

        // failover-02: a mid-window shard kill spikes the drop rate
        // inside the failure window, the spike grows with the replica
        // exposure (read-all at R=3 touches the dead shard more often
        // than at R=2), the sloppy quorum hands traffic off around the
        // corpse, and after recovery the drop rate returns to the
        // pre-failure band on every platform.
        let mut spike_holds = !platforms.is_empty();
        let mut min_spike = f64::MAX;
        let mut max_residual = 0.0f64;
        for platform in &platforms {
            let pre = at(platform, crate::grid::FAILOVER_PRE_DROP, "r2 failrec");
            let window = at(platform, crate::grid::FAILOVER_WINDOW_DROP, "r2 failrec");
            let post = at(platform, crate::grid::FAILOVER_POST_DROP, "r2 failrec");
            let window_r3 = at(platform, crate::grid::FAILOVER_WINDOW_DROP, "r3 failrec");
            let handoffs = at(platform, crate::grid::FAILOVER_HANDOFFS, "r2 failrec");
            if !(window > pre && window_r3 > window && handoffs > 0.0) {
                spike_holds = false;
            }
            min_spike = min_spike.min(window - pre);
            max_residual = max_residual.max(post - pre);
        }
        out.push(check(
            "failover-02",
            "a mid-window shard kill spikes the failure-window drop rate, the spike grows with replica exposure (R=3 over R=2), and recovery returns drops to the pre-failure band on every platform",
            spike_holds && max_residual < 0.02,
            format!(
                "smallest window-pre spike {min_spike:.3}, largest post-pre residual {max_residual:.3}"
            ),
        ));

        // failover-03: scatter-gather pays max-of-K — even with the
        // per-shard query partitioned so total work is constant in the
        // fan-out, waiting for the slowest of K sub-queries lifts the
        // cluster median on every platform, and the scatter class's
        // p99 (averaged over platforms to tame small-sample tail
        // noise) grows monotonically K=1 → 4 → 16.
        let mut scatter_holds = !platforms.is_empty();
        let mut min_median_lift = f64::MAX;
        let (mut p99_k1, mut p99_k4, mut p99_k16) = (0.0f64, 0.0f64, 0.0f64);
        for platform in &platforms {
            let median_k1 = at(platform, crate::grid::CLUSTER_P50, "r3 w1");
            let median_k16 = at(platform, crate::grid::CLUSTER_P50, "r3 k16");
            if median_k16 <= median_k1 {
                scatter_holds = false;
            }
            min_median_lift = min_median_lift.min(median_k16 / median_k1.max(f64::MIN_POSITIVE));
            p99_k1 += at(platform, crate::grid::FAILOVER_SCATTER_P99, "r3 w1");
            p99_k4 += at(platform, crate::grid::FAILOVER_SCATTER_P99, "r3 k4");
            p99_k16 += at(platform, crate::grid::FAILOVER_SCATTER_P99, "r3 k16");
        }
        let p99_monotone = p99_k1 > 0.0 && p99_k1 <= p99_k4 && p99_k4 <= p99_k16;
        out.push(check(
            "failover-03",
            "scatter-gather pays max-of-K: fanning out lifts the cluster median on every platform and the platform-averaged scatter p99 grows monotonically in K",
            scatter_holds && p99_monotone && min_median_lift > 1.1,
            format!(
                "smallest k16/k1 median lift {min_median_lift:.2}, platform-mean scatter p99 {:.0}/{:.0}/{:.0} us at K=1/4/16",
                p99_k1 / platforms.len().max(1) as f64,
                p99_k4 / platforms.len().max(1) as f64,
                p99_k16 / platforms.len().max(1) as f64
            ),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::figures;

    #[test]
    fn checks_over_precomputed_figures_skip_what_is_missing() {
        assert!(check_findings_on(&[]).is_empty());
        let cfg = RunConfig::quick(2021);
        let hap_only = [figures::run(ExperimentId::Fig18Hap, &cfg)];
        let results = check_findings_on(&hap_only);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|c| c.id.starts_with("finding-2")));
    }
}
