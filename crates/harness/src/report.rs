//! Rendering figure data as markdown tables and CSV, plus the executor's
//! wall-clock summary table and the machine-readable full-grid bench
//! report (`BENCH_full_grid.json`).

use std::fmt::Write as _;

use crate::executor::RunReport;
use crate::experiment::FigureData;

/// Renders a figure as a GitHub-flavoured markdown table (one row per x
/// value, one mean/std column pair per series).
pub fn to_markdown(fig: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {}", fig.title);
    let _ = writeln!(out);
    let mut header = String::from("| x |");
    let mut rule = String::from("|---|");
    for s in &fig.series {
        let _ = write!(header, " {} (mean) | {} (std) |", s.label, s.label);
        rule.push_str("---|---|");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    let xs: Vec<String> = fig
        .series
        .first()
        .map(|s| s.points.iter().map(|p| p.x.clone()).collect())
        .unwrap_or_default();
    for x in xs {
        let mut row = format!("| {x} |");
        for s in &fig.series {
            match s.points.iter().find(|p| p.x == x) {
                Some(p) => {
                    let _ = write!(row, " {:.2} | {:.2} |", p.mean, p.std_dev);
                }
                None => row.push_str(" - | - |"),
            }
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Renders a figure as CSV (`series,x,x_value,mean,std_dev`).
pub fn to_csv(fig: &FigureData) -> String {
    let mut out = String::from("series,x,x_value,mean,std_dev\n");
    for s in &fig.series {
        for p in &s.points {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                s.label.replace(',', ";"),
                p.x.replace(',', ";"),
                p.x_value,
                p.mean,
                p.std_dev
            );
        }
    }
    out
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Renders an executor run's per-experiment wall-clock summary as a
/// markdown table.
///
/// `cell time` is the time spent inside the experiment's cells summed
/// across workers; `merge` is the single-threaded canonical fold of cell
/// outputs into figures; the headline total is the run's elapsed wall
/// clock.
pub fn timing_table(report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### Wall-clock summary ({} workers, {:.0} ms wall, {:.0} ms cell time, {:.2} ms merge)",
        report.workers,
        ms(report.wall),
        ms(report.total_cell_time()),
        ms(report.merge),
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "| experiment | cells | cell time (ms) |");
    let _ = writeln!(out, "|---|---|---|");
    for timing in &report.timings {
        let _ = writeln!(
            out,
            "| {} | {} | {:.1} |",
            timing.experiment.slug(),
            timing.cells,
            ms(timing.cell_time),
        );
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Opens a bench-report JSON object with the header fields every report
/// shares: schema identifier, mode, seed, worker counts and wall clocks.
fn json_report_header(
    schema: &str,
    mode: &str,
    seed: u64,
    serial: &RunReport,
    parallel: &RunReport,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{}\",", json_escape(schema));
    let _ = writeln!(out, "  \"mode\": \"{}\",", json_escape(mode));
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"serial_workers\": {},", serial.workers);
    let _ = writeln!(out, "  \"parallel_workers\": {},", parallel.workers);
    let _ = writeln!(out, "  \"serial_wall_ms\": {:.3},", ms(serial.wall));
    let _ = writeln!(out, "  \"parallel_wall_ms\": {:.3},", ms(parallel.wall));
    out
}

/// Renders the machine-readable full-grid bench report comparing a serial
/// (1-worker) run against an N-worker run of the same plan.
///
/// This is the payload of `BENCH_full_grid.json`: per-experiment cell
/// counts and wall-clock (cell-time) numbers plus run totals, emitted
/// without any serialization dependency so CI can parse and archive it.
pub fn full_grid_json(mode: &str, seed: u64, serial: &RunReport, parallel: &RunReport) -> String {
    let mut out = json_report_header("isolation-bench/full-grid/v1", mode, seed, serial, parallel);
    let _ = writeln!(out, "  \"serial_merge_ms\": {:.3},", ms(serial.merge));
    let _ = writeln!(out, "  \"parallel_merge_ms\": {:.3},", ms(parallel.merge));
    let speedup = if parallel.wall.as_secs_f64() > 0.0 {
        serial.wall.as_secs_f64() / parallel.wall.as_secs_f64()
    } else {
        0.0
    };
    let _ = writeln!(out, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(
        out,
        "  \"experiment_count\": {},",
        crate::experiment::ExperimentId::all().len()
    );
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, timing) in serial.timings.iter().enumerate() {
        let parallel_timing = parallel
            .timings
            .iter()
            .find(|t| t.experiment == timing.experiment);
        let points: usize = serial
            .figure(timing.experiment)
            .map(|fig| fig.series.iter().map(|s| s.points.len()).sum())
            .unwrap_or(0);
        let _ = write!(
            out,
            "    {{\"slug\": \"{}\", \"cells\": {}, \"points\": {}, \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}}}",
            json_escape(timing.experiment.slug()),
            timing.cells,
            points,
            ms(timing.cell_time),
            parallel_timing.map(|t| ms(t.cell_time)).unwrap_or(0.0),
        );
        let _ = writeln!(
            out,
            "{}",
            if i + 1 < serial.timings.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// Scans hand-rolled JSON for non-finite number tokens (`NaN`, `inf`,
/// `-inf`), which `{}`-formatted `f64`s produce and which are not valid
/// JSON. Returns the offending token when one is found.
///
/// The bench binaries gate their emitted reports on this, so CI fails
/// loudly the moment an experiment leaks a non-finite statistic.
pub fn find_non_finite(json: &str) -> Option<&'static str> {
    for token in ["NaN", "inf"] {
        // `inf` must match as a bare token, not as a substring of a quoted
        // label (e.g. "infra"); scan outside string literals only.
        let mut in_string = false;
        let mut escaped = false;
        let bytes = json.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == b'"' {
                    in_string = false;
                }
                continue;
            }
            if b == b'"' {
                in_string = true;
                continue;
            }
            if json[i..].starts_with(token) {
                return Some(token);
            }
        }
    }
    None
}

/// Derives the hockey-stick view of a load-curve figure: one series per
/// platform with **achieved throughput on the x axis** and the p99
/// sojourn time as the value, so the knee of the curve (where latency
/// departs from the near-flat region) is directly visible. The derived
/// figure renders through [`to_markdown`]/[`to_csv`] like any other.
pub fn hockey_stick(fig: &FigureData) -> FigureData {
    let platforms = crate::grid::platforms_of(fig, crate::grid::LOAD_P50);
    let mut out = FigureData::new(fig.experiment);
    out.title = format!("{} — p99 vs achieved throughput", fig.title);
    for platform in platforms {
        let achieved = fig
            .series_named(&format!("{platform} {}", crate::grid::LOAD_ACHIEVED))
            .expect("achieved series exists for every load platform");
        let p99 = fig
            .series_named(&format!("{platform} {}", crate::grid::LOAD_P99))
            .expect("p99 series exists for every load platform");
        let mut series = crate::experiment::Series::new(&format!("{platform} p99 (us)"));
        for (a, p) in achieved.points.iter().zip(&p99.points) {
            series.points.push(crate::experiment::DataPoint {
                x: format!("{:.0}", a.mean),
                x_value: a.mean,
                mean: p.mean,
                std_dev: p.std_dev,
            });
        }
        out.series.push(series);
    }
    out
}

/// The figure-level payload of one load-curve experiment: per-platform
/// offered-load sweeps with percentile latencies and achieved throughput,
/// reconstructed from the merged figure series.
fn load_experiment_json(out: &mut String, fig: &FigureData) {
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"slug\": \"{}\",", fig.experiment.slug());
    let platforms = crate::grid::platforms_of(fig, crate::grid::LOAD_P50);
    let _ = writeln!(out, "      \"platforms\": [");
    for (pi, platform) in platforms.iter().enumerate() {
        let series = |metric: &str| fig.series_named(&format!("{platform} {metric}"));
        let _ = writeln!(out, "        {{");
        let _ = writeln!(out, "          \"label\": \"{}\",", json_escape(platform));
        let _ = writeln!(out, "          \"points\": [");
        let p50 = series(crate::grid::LOAD_P50).expect("p50 series exists by construction");
        for (i, point) in p50.points.iter().enumerate() {
            // Panic (rather than emit a plausible 0.0) on a missing series
            // or point: a malformed figure must fail the bench run loudly.
            let metric_mean = |metric: &str| {
                series(metric)
                    .unwrap_or_else(|| panic!("{} series missing for {platform}", metric))
                    .points[i]
                    .mean
            };
            let _ = write!(
                out,
                "            {{\"fraction\": {:.2}, \"p50_us\": {:.3}, \"p95_us\": {:.3}, \"p99_us\": {:.3}, \"achieved_per_sec\": {:.3}}}",
                point.x_value,
                point.mean,
                metric_mean(crate::grid::LOAD_P95),
                metric_mean(crate::grid::LOAD_P99),
                metric_mean(crate::grid::LOAD_ACHIEVED),
            );
            let _ = writeln!(out, "{}", if i + 1 < p50.points.len() { "," } else { "" });
        }
        let _ = writeln!(out, "          ]");
        let _ = write!(out, "        }}");
        let _ = writeln!(out, "{}", if pi + 1 < platforms.len() { "," } else { "" });
    }
    let _ = writeln!(out, "      ]");
    let _ = write!(out, "    }}");
}

/// Renders the machine-readable load-curve bench report
/// (`BENCH_load_curves.json`): the open-loop throughput-vs-latency sweeps
/// of both backends, from a serial (1-worker) and an N-worker run of the
/// same plan, plus whether the two produced identical figure data.
pub fn load_curves_json(mode: &str, seed: u64, serial: &RunReport, parallel: &RunReport) -> String {
    let load_figs = |report: &RunReport| {
        [
            crate::experiment::ExperimentId::LoadMemcached,
            crate::experiment::ExperimentId::LoadMysql,
        ]
        .iter()
        .filter_map(|e| report.figure(*e).cloned())
        .collect::<Vec<_>>()
    };
    let serial_figs = load_figs(serial);
    let parallel_figs = load_figs(parallel);
    let identical = serial_figs == parallel_figs;

    let mut out = json_report_header(
        "isolation-bench/load-curves/v1",
        mode,
        seed,
        serial,
        parallel,
    );
    let _ = writeln!(out, "  \"identical\": {identical},");
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, fig) in serial_figs.iter().enumerate() {
        load_experiment_json(&mut out, fig);
        let _ = writeln!(out, "{}", if i + 1 < serial_figs.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// The figure-level payload of one tenant-isolation experiment:
/// per-platform aggressor sweeps with the victim's and aggressor's
/// percentile/SLO/drop series plus the isolation diagnostics,
/// reconstructed from the merged figure series.
fn tenant_experiment_json(out: &mut String, fig: &FigureData) {
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"slug\": \"{}\",", fig.experiment.slug());
    let platforms = crate::grid::platforms_of(fig, crate::grid::TENANT_VICTIM_P99);
    let _ = writeln!(out, "      \"platforms\": [");
    for (pi, platform) in platforms.iter().enumerate() {
        let series = |metric: &str| fig.series_named(&format!("{platform} {metric}"));
        let _ = writeln!(out, "        {{");
        let _ = writeln!(out, "          \"label\": \"{}\",", json_escape(platform));
        let _ = writeln!(out, "          \"points\": [");
        let anchor = series(crate::grid::TENANT_VICTIM_P99)
            .expect("victim p99 series exists by construction");
        for (i, point) in anchor.points.iter().enumerate() {
            // Panic (rather than emit a plausible 0.0) on a missing series
            // or point: a malformed figure must fail the bench run loudly.
            let metric_mean = |metric: &str| {
                series(metric)
                    .unwrap_or_else(|| panic!("{metric} series missing for {platform}"))
                    .points[i]
                    .mean
            };
            let _ = write!(
                out,
                "            {{\"aggressor_fraction\": {:.2}, \
                 \"victim_p50_us\": {:.3}, \"victim_p95_us\": {:.3}, \"victim_p99_us\": {:.3}, \
                 \"victim_achieved_per_sec\": {:.3}, \"victim_drop_rate\": {:.6}, \
                 \"victim_slo_violation\": {:.6}, \"victim_solo_p99_us\": {:.3}, \
                 \"victim_fifo_p99_us\": {:.3}, \"isolation_index\": {:.4}, \
                 \"aggressor_p50_us\": {:.3}, \"aggressor_p95_us\": {:.3}, \
                 \"aggressor_p99_us\": {:.3}, \"aggressor_achieved_per_sec\": {:.3}, \
                 \"aggressor_drop_rate\": {:.6}}}",
                point.x_value,
                metric_mean(crate::grid::TENANT_VICTIM_P50),
                metric_mean(crate::grid::TENANT_VICTIM_P95),
                point.mean,
                metric_mean(crate::grid::TENANT_VICTIM_ACHIEVED),
                metric_mean(crate::grid::TENANT_VICTIM_DROP_RATE),
                metric_mean(crate::grid::TENANT_VICTIM_SLO_VIOLATION),
                metric_mean(crate::grid::TENANT_VICTIM_SOLO_P99),
                metric_mean(crate::grid::TENANT_VICTIM_FIFO_P99),
                metric_mean(crate::grid::TENANT_ISOLATION_INDEX),
                metric_mean(crate::grid::TENANT_AGGRESSOR_P50),
                metric_mean(crate::grid::TENANT_AGGRESSOR_P95),
                metric_mean(crate::grid::TENANT_AGGRESSOR_P99),
                metric_mean(crate::grid::TENANT_AGGRESSOR_ACHIEVED),
                metric_mean(crate::grid::TENANT_AGGRESSOR_DROP_RATE),
            );
            let _ = writeln!(
                out,
                "{}",
                if i + 1 < anchor.points.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "          ]");
        let _ = write!(out, "        }}");
        let _ = writeln!(out, "{}", if pi + 1 < platforms.len() { "," } else { "" });
    }
    let _ = writeln!(out, "      ]");
    let _ = write!(out, "    }}");
}

/// Renders the machine-readable tenant-isolation bench report
/// (`BENCH_tenant_isolation.json`): the victim-vs-aggressor co-location
/// sweeps of both backends, from a serial (1-worker) and an N-worker run
/// of the same plan, plus whether the two produced identical figure data.
pub fn tenant_isolation_json(
    mode: &str,
    seed: u64,
    serial: &RunReport,
    parallel: &RunReport,
) -> String {
    let tenant_figs = |report: &RunReport| {
        [
            crate::experiment::ExperimentId::TenantIsolationMemcached,
            crate::experiment::ExperimentId::TenantIsolationMysql,
        ]
        .iter()
        .filter_map(|e| report.figure(*e).cloned())
        .collect::<Vec<_>>()
    };
    let serial_figs = tenant_figs(serial);
    let parallel_figs = tenant_figs(parallel);
    let identical = serial_figs == parallel_figs;

    let mut out = json_report_header(
        "isolation-bench/tenant-isolation/v1",
        mode,
        seed,
        serial,
        parallel,
    );
    let _ = writeln!(out, "  \"identical\": {identical},");
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, fig) in serial_figs.iter().enumerate() {
        tenant_experiment_json(&mut out, fig);
        let _ = writeln!(out, "{}", if i + 1 < serial_figs.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// The figure-level payload of one middleware-pipeline experiment:
/// per-platform sweep points (chain depth × cache hit rate) with sojourn
/// percentiles, the per-request stage tax, and the short-circuit /
/// cache-hit / drop fractions, reconstructed from the merged figure
/// series.
fn pipeline_experiment_json(out: &mut String, fig: &FigureData) {
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"slug\": \"{}\",", fig.experiment.slug());
    let platforms = crate::grid::platforms_of(fig, crate::grid::PIPELINE_STAGE_TAX);
    let _ = writeln!(out, "      \"platforms\": [");
    for (pi, platform) in platforms.iter().enumerate() {
        let series = |metric: &str| fig.series_named(&format!("{platform} {metric}"));
        let _ = writeln!(out, "        {{");
        let _ = writeln!(out, "          \"label\": \"{}\",", json_escape(platform));
        let _ = writeln!(out, "          \"points\": [");
        let anchor = series(crate::grid::PIPELINE_P50).expect("p50 series exists by construction");
        for (i, point) in anchor.points.iter().enumerate() {
            // Panic (rather than emit a plausible 0.0) on a missing series
            // or point: a malformed figure must fail the bench run loudly.
            let metric_mean = |metric: &str| {
                series(metric)
                    .unwrap_or_else(|| panic!("{metric} series missing for {platform}"))
                    .points[i]
                    .mean
            };
            let _ = write!(
                out,
                "            {{\"setting\": \"{}\", \"p50_us\": {:.3}, \"p99_us\": {:.3}, \
                 \"stage_tax_us\": {:.3}, \"short_circuit_fraction\": {:.6}, \
                 \"cache_hit_fraction\": {:.6}, \"drop_fraction\": {:.6}}}",
                json_escape(&point.x),
                point.mean,
                metric_mean(crate::grid::PIPELINE_P99),
                metric_mean(crate::grid::PIPELINE_STAGE_TAX),
                metric_mean(crate::grid::PIPELINE_SHORT_CIRCUIT),
                metric_mean(crate::grid::PIPELINE_CACHE_HIT),
                metric_mean(crate::grid::PIPELINE_DROP_RATE),
            );
            let _ = writeln!(
                out,
                "{}",
                if i + 1 < anchor.points.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "          ]");
        let _ = write!(out, "        }}");
        let _ = writeln!(out, "{}", if pi + 1 < platforms.len() { "," } else { "" });
    }
    let _ = writeln!(out, "      ]");
    let _ = write!(out, "    }}");
}

/// Renders the machine-readable middleware-pipeline bench report
/// (`BENCH_pipeline.json`): the depth × cache-hit-rate sweeps of both
/// backends, from a serial (1-worker) and an N-worker run of the same
/// plan, plus whether the two produced identical figure data.
pub fn pipeline_json(mode: &str, seed: u64, serial: &RunReport, parallel: &RunReport) -> String {
    let pipeline_figs = |report: &RunReport| {
        [
            crate::experiment::ExperimentId::PipelineMemcached,
            crate::experiment::ExperimentId::PipelineMysql,
        ]
        .iter()
        .filter_map(|e| report.figure(*e).cloned())
        .collect::<Vec<_>>()
    };
    let serial_figs = pipeline_figs(serial);
    let parallel_figs = pipeline_figs(parallel);
    let identical = serial_figs == parallel_figs;

    let mut out = json_report_header("isolation-bench/pipeline/v1", mode, seed, serial, parallel);
    let _ = writeln!(out, "  \"identical\": {identical},");
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, fig) in serial_figs.iter().enumerate() {
        pipeline_experiment_json(&mut out, fig);
        let _ = writeln!(out, "{}", if i + 1 < serial_figs.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// The figure-level payload of one sharded-cluster experiment:
/// per-platform sweep points (shard count × Zipf skew × routing policy)
/// with cluster-wide sojourn percentiles, the hottest shard's tail, the
/// steady-phase imbalance, and the achieved/drop behaviour,
/// reconstructed from the merged figure series.
fn cluster_experiment_json(out: &mut String, fig: &FigureData) {
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"slug\": \"{}\",", fig.experiment.slug());
    let platforms = crate::grid::platforms_of(fig, crate::grid::CLUSTER_HOT_P99);
    let _ = writeln!(out, "      \"platforms\": [");
    for (pi, platform) in platforms.iter().enumerate() {
        let series = |metric: &str| fig.series_named(&format!("{platform} {metric}"));
        let _ = writeln!(out, "        {{");
        let _ = writeln!(out, "          \"label\": \"{}\",", json_escape(platform));
        let _ = writeln!(out, "          \"points\": [");
        let anchor = series(crate::grid::CLUSTER_P50).expect("p50 series exists by construction");
        for (i, point) in anchor.points.iter().enumerate() {
            // Panic (rather than emit a plausible 0.0) on a missing series
            // or point: a malformed figure must fail the bench run loudly.
            let metric_mean = |metric: &str| {
                series(metric)
                    .unwrap_or_else(|| panic!("{metric} series missing for {platform}"))
                    .points[i]
                    .mean
            };
            let _ = write!(
                out,
                "            {{\"setting\": \"{}\", \"p50_us\": {:.3}, \"p99_us\": {:.3}, \
                 \"hot_shard_p99_us\": {:.3}, \"imbalance\": {:.4}, \
                 \"achieved_per_sec\": {:.3}, \"drop_fraction\": {:.6}}}",
                json_escape(&point.x),
                point.mean,
                metric_mean(crate::grid::CLUSTER_P99),
                metric_mean(crate::grid::CLUSTER_HOT_P99),
                metric_mean(crate::grid::CLUSTER_IMBALANCE),
                metric_mean(crate::grid::CLUSTER_ACHIEVED),
                metric_mean(crate::grid::CLUSTER_DROP_RATE),
            );
            let _ = writeln!(
                out,
                "{}",
                if i + 1 < anchor.points.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "          ]");
        let _ = write!(out, "        }}");
        let _ = writeln!(out, "{}", if pi + 1 < platforms.len() { "," } else { "" });
    }
    let _ = writeln!(out, "      ]");
    let _ = write!(out, "    }}");
}

/// The cluster bench's timed replay of one sweep: its wall clock and
/// event throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepThroughput {
    /// Wall clock of the sweep, in milliseconds.
    pub wall_ms: f64,
    /// Simulated events processed per wall-clock second.
    pub events_per_sec: f64,
}

/// Writes the `"sweep_throughput"` line of a cluster report.
fn sweep_throughput_json(out: &mut String, throughput: &SweepThroughput) {
    let _ = writeln!(
        out,
        "  \"sweep_throughput\": {{\"wall_ms\": {:.3}, \"events_per_sec\": {:.1}}},",
        throughput.wall_ms, throughput.events_per_sec,
    );
}

/// Renders the machine-readable sharded-cluster bench report
/// (`BENCH_cluster.json`): the shard-count × skew × routing sweeps of
/// both backends, from a serial (1-worker) and an N-worker run of the
/// same plan, whether the two produced identical figure data, and the
/// throughput of one timed sweep replay.
pub fn cluster_json(
    mode: &str,
    seed: u64,
    serial: &RunReport,
    parallel: &RunReport,
    throughput: &SweepThroughput,
) -> String {
    let cluster_figs = |report: &RunReport| {
        [
            crate::experiment::ExperimentId::ClusterMemcached,
            crate::experiment::ExperimentId::ClusterMysql,
        ]
        .iter()
        .filter_map(|e| report.figure(*e).cloned())
        .collect::<Vec<_>>()
    };
    let serial_figs = cluster_figs(serial);
    let parallel_figs = cluster_figs(parallel);
    let identical = serial_figs == parallel_figs;

    let mut out = json_report_header("isolation-bench/cluster/v2", mode, seed, serial, parallel);
    let _ = writeln!(out, "  \"identical\": {identical},");
    sweep_throughput_json(&mut out, throughput);
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, fig) in serial_figs.iter().enumerate() {
        cluster_experiment_json(&mut out, fig);
        let _ = writeln!(out, "{}", if i + 1 < serial_figs.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// The figure-level payload of one replication/failover experiment:
/// per-platform sweep points (replication factor × write quorum ×
/// scatter fan-out × fault scenario) with sojourn percentiles, the
/// scatter-gather tail, sloppy-quorum hand-offs, the failure instant and
/// the failure-phase drop rates, reconstructed from the merged figure
/// series.
fn failover_experiment_json(out: &mut String, fig: &FigureData) {
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"slug\": \"{}\",", fig.experiment.slug());
    let platforms = crate::grid::platforms_of(fig, crate::grid::FAILOVER_SCATTER_P99);
    let _ = writeln!(out, "      \"platforms\": [");
    for (pi, platform) in platforms.iter().enumerate() {
        let series = |metric: &str| fig.series_named(&format!("{platform} {metric}"));
        let _ = writeln!(out, "        {{");
        let _ = writeln!(out, "          \"label\": \"{}\",", json_escape(platform));
        let _ = writeln!(out, "          \"points\": [");
        let anchor = series(crate::grid::CLUSTER_P50).expect("p50 series exists by construction");
        for (i, point) in anchor.points.iter().enumerate() {
            // Panic (rather than emit a plausible 0.0) on a missing series
            // or point: a malformed figure must fail the bench run loudly.
            let metric_mean = |metric: &str| {
                series(metric)
                    .unwrap_or_else(|| panic!("{metric} series missing for {platform}"))
                    .points[i]
                    .mean
            };
            let _ = write!(
                out,
                "            {{\"setting\": \"{}\", \"p50_us\": {:.3}, \"p99_us\": {:.3}, \
                 \"scatter_p99_us\": {:.3}, \"drop_fraction\": {:.6}, \"handoffs\": {:.3}, \
                 \"fail_at_us\": {:.3}, \"pre_fail_drop_rate\": {:.6}, \
                 \"fail_window_drop_rate\": {:.6}, \"post_recover_drop_rate\": {:.6}}}",
                json_escape(&point.x),
                point.mean,
                metric_mean(crate::grid::CLUSTER_P99),
                metric_mean(crate::grid::FAILOVER_SCATTER_P99),
                metric_mean(crate::grid::CLUSTER_DROP_RATE),
                metric_mean(crate::grid::FAILOVER_HANDOFFS),
                metric_mean(crate::grid::FAILOVER_FAIL_AT),
                metric_mean(crate::grid::FAILOVER_PRE_DROP),
                metric_mean(crate::grid::FAILOVER_WINDOW_DROP),
                metric_mean(crate::grid::FAILOVER_POST_DROP),
            );
            let _ = writeln!(
                out,
                "{}",
                if i + 1 < anchor.points.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "          ]");
        let _ = write!(out, "        }}");
        let _ = writeln!(out, "{}", if pi + 1 < platforms.len() { "," } else { "" });
    }
    let _ = writeln!(out, "      ]");
    let _ = write!(out, "    }}");
}

/// The determinism and physics attestations the failover bench computes
/// before emitting `BENCH_cluster_failover.json`; each one also gates the
/// binary's exit status, so a `false` here can only appear in a report
/// from a run that failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverAttestation {
    /// The R=1 quorum sweep replayed PR 7's plain single-shard routing
    /// bit-for-bit.
    pub r1_matches_plain: bool,
    /// The platform-averaged scatter p99 was monotone non-decreasing in
    /// the fan-out K on every backend.
    pub scatter_p99_monotone: bool,
    /// Every kill-then-recover point's post-recovery drop rate returned
    /// to within the pre-failure band.
    pub spike_subsides: bool,
}

/// Renders the machine-readable replication/failover bench report
/// (`BENCH_cluster_failover.json`): the R/W-quorum × fan-out ×
/// fault-scenario sweeps of both backends, from a serial (1-worker) and
/// an N-worker run of the same plan, whether the two produced identical
/// figure data, the failover attestations, and the throughput of one
/// timed sweep replay.
pub fn cluster_failover_json(
    mode: &str,
    seed: u64,
    serial: &RunReport,
    parallel: &RunReport,
    throughput: &SweepThroughput,
    attest: &FailoverAttestation,
) -> String {
    let failover_figs = |report: &RunReport| {
        [
            crate::experiment::ExperimentId::ClusterFailoverMemcached,
            crate::experiment::ExperimentId::ClusterFailoverMysql,
        ]
        .iter()
        .filter_map(|e| report.figure(*e).cloned())
        .collect::<Vec<_>>()
    };
    let serial_figs = failover_figs(serial);
    let parallel_figs = failover_figs(parallel);
    let identical = serial_figs == parallel_figs;

    let mut out = json_report_header(
        "isolation-bench/cluster-failover/v2",
        mode,
        seed,
        serial,
        parallel,
    );
    let _ = writeln!(out, "  \"identical\": {identical},");
    let _ = writeln!(out, "  \"r1_matches_plain\": {},", attest.r1_matches_plain);
    let _ = writeln!(
        out,
        "  \"scatter_p99_monotone\": {},",
        attest.scatter_p99_monotone
    );
    let _ = writeln!(out, "  \"spike_subsides\": {},", attest.spike_subsides);
    sweep_throughput_json(&mut out, throughput);
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, fig) in serial_figs.iter().enumerate() {
        failover_experiment_json(&mut out, fig);
        let _ = writeln!(out, "{}", if i + 1 < serial_figs.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::executor::{Executor, RunPlan};
    use crate::experiment::{DataPoint, ExperimentId, Series};

    fn sample_fig() -> FigureData {
        let mut fig = FigureData::new(ExperimentId::Fig11Iperf);
        let mut s = Series::new("throughput");
        s.points.push(DataPoint::categorical("native", 37.28, 0.2));
        s.points.push(DataPoint::categorical("gvisor", 5.1, 0.4));
        fig.series.push(s);
        fig
    }

    #[test]
    fn markdown_contains_title_rows_and_values() {
        let md = to_markdown(&sample_fig());
        assert!(md.contains("### Fig. 11"));
        assert!(md.contains("| native | 37.28 | 0.20 |"));
        assert!(md.contains("| gvisor | 5.10 | 0.40 |"));
    }

    #[test]
    fn csv_has_header_and_one_line_per_point() {
        let csv = to_csv(&sample_fig());
        let lines: Vec<_> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("series,"));
        assert!(lines[1].contains("native"));
    }

    fn tiny_reports() -> (RunReport, RunReport) {
        let cfg = RunConfig {
            seed: 7,
            runs: 2,
            startups: 8,
            quick: true,
        };
        let serial = Executor::new(RunPlan::new(cfg).with_shard("fig08").with_workers(1)).run();
        let parallel = Executor::new(RunPlan::new(cfg).with_shard("fig08").with_workers(2)).run();
        (serial, parallel)
    }

    #[test]
    fn timing_table_lists_every_experiment() {
        let (serial, _) = tiny_reports();
        let table = timing_table(&serial);
        assert!(table.contains("### Wall-clock summary (1 workers"));
        assert!(table.contains("ms merge)"));
        assert!(table.contains("| fig08_stream | 20 |"));
    }

    #[test]
    fn full_grid_json_is_complete_and_escaped() {
        let (serial, parallel) = tiny_reports();
        let json = full_grid_json("quick", 7, &serial, &parallel);
        assert!(json.contains("\"schema\": \"isolation-bench/full-grid/v1\""));
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains("\"serial_merge_ms\": "));
        assert!(json.contains("\"parallel_merge_ms\": "));
        assert!(json.contains("\"slug\": \"fig08_stream\""));
        assert!(json.contains("\"cells\": 20"));
        assert!(json.contains("\"points\": 10"));
        assert_eq!(json.matches("\"slug\"").count(), serial.timings.len());
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn non_finite_detector_ignores_strings_but_catches_values() {
        assert_eq!(find_non_finite("{\"x\": 1.5}"), None);
        assert_eq!(find_non_finite("{\"label\": \"NaN-proof infra\"}"), None);
        assert_eq!(find_non_finite("{\"x\": NaN}"), Some("NaN"));
        assert_eq!(find_non_finite("{\"x\": inf}"), Some("inf"));
        assert_eq!(find_non_finite("{\"x\": -inf}"), Some("inf"));
        assert_eq!(
            find_non_finite(&format!("{{\"x\": {}}}", f64::NAN)),
            Some("NaN")
        );
    }

    #[test]
    fn load_curves_json_has_both_experiments_and_is_finite() {
        let cfg = RunConfig {
            seed: 7,
            runs: 2,
            startups: 8,
            quick: true,
        };
        let serial = Executor::new(RunPlan::new(cfg).with_shard("load_").with_workers(1)).run();
        let parallel = Executor::new(RunPlan::new(cfg).with_shard("load_").with_workers(2)).run();
        let json = load_curves_json("quick", 7, &serial, &parallel);
        assert!(json.contains("\"schema\": \"isolation-bench/load-curves/v1\""));
        assert!(json.contains("\"slug\": \"load_memcached\""));
        assert!(json.contains("\"slug\": \"load_mysql\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"label\": \"native\""));
        assert!(json.contains("\"p99_us\""));
        assert_eq!(find_non_finite(&json), None, "emitted JSON must be finite");
    }

    #[test]
    fn hockey_stick_puts_achieved_throughput_on_the_x_axis() {
        let cfg = RunConfig {
            seed: 7,
            runs: 1,
            startups: 8,
            quick: true,
        };
        let fig = crate::figures::run(ExperimentId::LoadMemcached, &cfg);
        let stick = hockey_stick(&fig);
        assert!(stick.title.contains("p99 vs achieved throughput"));
        assert_eq!(
            stick.series.len(),
            fig.series.len() / crate::grid::LOAD_METRICS.len(),
            "one hockey-stick series per platform"
        );
        for series in &stick.series {
            assert!(series.label.ends_with("p99 (us)"));
            let achieved = crate::experiment::FigureData {
                experiment: fig.experiment,
                title: String::new(),
                series: fig.series.clone(),
            };
            let platform = series.label.trim_end_matches(" p99 (us)");
            let source = achieved
                .series_named(&format!("{platform} {}", crate::grid::LOAD_ACHIEVED))
                .unwrap();
            for (point, src) in series.points.iter().zip(&source.points) {
                assert_eq!(point.x_value, src.mean, "x must be achieved throughput");
                assert!(point.mean > 0.0);
            }
            // The x axis (achieved throughput) grows along the sweep.
            for pair in series.points.windows(2) {
                assert!(pair[1].x_value > pair[0].x_value);
            }
        }
        // The derived figure exports through the standard CSV path.
        let csv = to_csv(&stick);
        assert!(csv.starts_with("series,x,x_value,mean,std_dev"));
        assert_eq!(
            csv.trim().lines().count(),
            1 + stick.series.len() * stick.series[0].points.len()
        );
    }

    #[test]
    fn tenant_isolation_json_has_both_experiments_and_is_finite() {
        let cfg = RunConfig {
            seed: 7,
            runs: 1,
            startups: 8,
            quick: true,
        };
        let serial = Executor::new(RunPlan::new(cfg).with_shard("tenant_").with_workers(1)).run();
        let parallel = Executor::new(RunPlan::new(cfg).with_shard("tenant_").with_workers(2)).run();
        let json = tenant_isolation_json("quick", 7, &serial, &parallel);
        assert!(json.contains("\"schema\": \"isolation-bench/tenant-isolation/v1\""));
        assert!(json.contains("\"slug\": \"tenant_isolation_memcached\""));
        assert!(json.contains("\"slug\": \"tenant_isolation_mysql\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"label\": \"native\""));
        assert!(json.contains("\"isolation_index\""));
        assert!(json.contains("\"victim_fifo_p99_us\""));
        assert!(json.contains("\"aggressor_drop_rate\""));
        assert_eq!(find_non_finite(&json), None, "emitted JSON must be finite");
    }

    #[test]
    fn pipeline_json_has_both_experiments_and_is_finite() {
        let cfg = RunConfig {
            seed: 7,
            runs: 1,
            startups: 8,
            quick: true,
        };
        let serial = Executor::new(RunPlan::new(cfg).with_shard("pipeline").with_workers(1)).run();
        let parallel =
            Executor::new(RunPlan::new(cfg).with_shard("pipeline").with_workers(2)).run();
        let json = pipeline_json("quick", 7, &serial, &parallel);
        assert!(json.contains("\"schema\": \"isolation-bench/pipeline/v1\""));
        assert!(json.contains("\"slug\": \"pipeline_memcached\""));
        assert!(json.contains("\"slug\": \"pipeline_mysql\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"label\": \"native\""));
        assert!(json.contains("\"setting\": \"d1 h0.90\""));
        assert!(json.contains("\"setting\": \"d4 miss-storm\""));
        assert!(json.contains("\"stage_tax_us\""));
        assert!(json.contains("\"short_circuit_fraction\""));
        assert_eq!(find_non_finite(&json), None, "emitted JSON must be finite");
    }

    #[test]
    fn cluster_json_has_both_experiments_and_is_finite() {
        let cfg = RunConfig {
            seed: 7,
            runs: 1,
            startups: 8,
            quick: true,
        };
        let serial = Executor::new(RunPlan::new(cfg).with_shard("cluster_m").with_workers(1)).run();
        let parallel =
            Executor::new(RunPlan::new(cfg).with_shard("cluster_m").with_workers(2)).run();
        let throughput = SweepThroughput {
            wall_ms: 9.5,
            events_per_sec: 1.1e6,
        };
        let json = cluster_json("quick", 7, &serial, &parallel, &throughput);
        assert!(json.contains("\"schema\": \"isolation-bench/cluster/v2\""));
        assert!(json.contains(
            "\"sweep_throughput\": {\"wall_ms\": 9.500, \"events_per_sec\": 1100000.0},"
        ));
        assert!(json.contains("\"slug\": \"cluster_memcached\""));
        assert!(json.contains("\"slug\": \"cluster_mysql\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"label\": \"native\""));
        assert!(json.contains("\"setting\": \"s256\""));
        assert!(json.contains("\"setting\": \"s16 rebal\""));
        assert!(json.contains("\"hot_shard_p99_us\""));
        assert!(json.contains("\"imbalance\""));
        assert_eq!(find_non_finite(&json), None, "emitted JSON must be finite");
    }

    #[test]
    fn cluster_failover_json_has_both_experiments_and_is_finite() {
        let cfg = RunConfig {
            seed: 7,
            runs: 1,
            startups: 8,
            quick: true,
        };
        let serial = Executor::new(
            RunPlan::new(cfg)
                .with_shard("cluster_failover")
                .with_workers(1),
        )
        .run();
        let parallel = Executor::new(
            RunPlan::new(cfg)
                .with_shard("cluster_failover")
                .with_workers(2),
        )
        .run();
        let throughput = SweepThroughput {
            wall_ms: 12.25,
            events_per_sec: 2e6,
        };
        let attest = FailoverAttestation {
            r1_matches_plain: true,
            scatter_p99_monotone: true,
            spike_subsides: true,
        };
        let json = cluster_failover_json("quick", 7, &serial, &parallel, &throughput, &attest);
        assert!(json.contains("\"schema\": \"isolation-bench/cluster-failover/v2\""));
        assert!(json.contains("\"slug\": \"cluster_failover_memcached\""));
        assert!(json.contains("\"slug\": \"cluster_failover_mysql\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"r1_matches_plain\": true"));
        assert!(json.contains("\"scatter_p99_monotone\": true"));
        assert!(json.contains("\"spike_subsides\": true"));
        assert!(json.contains(
            "\"sweep_throughput\": {\"wall_ms\": 12.250, \"events_per_sec\": 2000000.0},"
        ));
        assert!(json.contains("\"label\": \"native\""));
        assert!(json.contains("\"setting\": \"r1\""));
        assert!(json.contains("\"setting\": \"r3 k16\""));
        assert!(json.contains("\"setting\": \"r2 failrec\""));
        assert!(json.contains("\"scatter_p99_us\""));
        assert!(json.contains("\"handoffs\""));
        assert!(json.contains("\"fail_at_us\""));
        assert!(json.contains("\"post_recover_drop_rate\""));
        // Fault settings carry a real failure instant; fault-free ones the
        // -1 sentinel.
        assert!(json.contains("\"fail_at_us\": -1.000"));
        assert!(!json.contains("\"fail_at_us\": 0.000"));
        assert_eq!(find_non_finite(&json), None, "emitted JSON must be finite");
    }

    #[test]
    fn full_grid_json_reports_the_experiment_count() {
        let (serial, parallel) = tiny_reports();
        let json = full_grid_json("quick", 7, &serial, &parallel);
        assert!(json.contains(&format!(
            "\"experiment_count\": {}",
            ExperimentId::all().len()
        )));
    }

    #[test]
    fn experiment_missing_from_the_parallel_report_gets_zero_time() {
        let (serial, _) = tiny_reports();
        let cfg = RunConfig {
            seed: 7,
            runs: 2,
            startups: 8,
            quick: true,
        };
        let other = Executor::new(RunPlan::new(cfg).with_shard("fig05").with_workers(1)).run();
        let json = full_grid_json("quick", 7, &serial, &other);
        assert!(json.contains("\"parallel_ms\": 0.000"));
    }
}
