//! Rendering figure data as markdown tables and CSV, plus the executor's
//! wall-clock summary table and the machine-readable bench reports: the
//! full-grid report ([`full_grid_json`]) and one emitter for all five
//! sweep reports ([`sweep_json`]), which lays each experiment out by its
//! metric table in [`crate::grid`].

use std::fmt::Write as _;

use crate::executor::RunReport;
use crate::experiment::{ExperimentId, FigureData, Series};

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
        ExperimentId::all().len()
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

/// Renders the machine-readable report of a sweep bench bin
/// (`BENCH_load_curves.json`, `BENCH_tenant_isolation.json`,
/// `BENCH_pipeline.json`, `BENCH_cluster.json`,
/// `BENCH_cluster_failover.json`) from a serial (1-worker) and an
/// N-worker run of the same plan.
///
/// After the shared header it writes whether the two runs produced
/// identical figure data for `experiments`, then the `extra` header
/// fields in order, each value already rendered as JSON. Each experiment
/// the serial run holds then lists, per platform, one object per sweep
/// point, laid out by the experiment's metric table in [`crate::grid`]:
/// the x value first, then every metric column's mean under its key and
/// to its decimal places.
///
/// # Panics
///
/// Panics if an experiment has no metric table, or its figure lacks a
/// platform's series: a malformed figure must fail the bench run loudly
/// rather than emit a plausible 0.0.
pub fn sweep_json(
    schema: &str,
    mode: &str,
    seed: u64,
    serial: &RunReport,
    parallel: &RunReport,
    experiments: &[ExperimentId],
    extra: &[(&str, String)],
) -> String {
    let serial_figs: Vec<&FigureData> = experiments
        .iter()
        .filter_map(|e| serial.figure(*e))
        .collect();
    let parallel_figs: Vec<&FigureData> = experiments
        .iter()
        .filter_map(|e| parallel.figure(*e))
        .collect();
    let identical = serial_figs == parallel_figs;

    let mut out = json_report_header(schema, mode, seed, serial, parallel);
    let _ = writeln!(out, "  \"identical\": {identical},");
    for (key, value) in extra {
        let _ = writeln!(out, "  \"{key}\": {value},");
    }
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, fig) in serial_figs.iter().enumerate() {
        sweep_experiment_json(&mut out, fig);
        let _ = writeln!(out, "{}", if i + 1 < serial_figs.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// The figure-level payload of one sweep experiment: per platform, one
/// JSON object per sweep point, reconstructed from the merged figure
/// series.
fn sweep_experiment_json(out: &mut String, fig: &FigureData) {
    let layout = crate::grid::layout(fig.experiment)
        .unwrap_or_else(|| panic!("{:?} has no metric table", fig.experiment));
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"slug\": \"{}\",", fig.experiment.slug());
    let platforms = crate::grid::platforms_of(fig, layout.metrics[0].label);
    let _ = writeln!(out, "      \"platforms\": [");
    for (pi, platform) in platforms.iter().enumerate() {
        let columns: Vec<&Series> = layout
            .metrics
            .iter()
            .map(|metric| {
                fig.series_named(&format!("{platform} {}", metric.label))
                    .unwrap_or_else(|| panic!("{} series missing for {platform}", metric.label))
            })
            .collect();
        let _ = writeln!(out, "        {{");
        let _ = writeln!(out, "          \"label\": \"{}\",", json_escape(platform));
        let _ = writeln!(out, "          \"points\": [");
        let anchor = &columns[0].points;
        for (i, point) in anchor.iter().enumerate() {
            let _ = match layout.fraction_key {
                Some(key) => write!(out, "            {{\"{key}\": {:.2}", point.x_value),
                None => write!(
                    out,
                    "            {{\"setting\": \"{}\"",
                    json_escape(&point.x)
                ),
            };
            for (metric, series) in layout.metrics.iter().zip(&columns) {
                let _ = write!(
                    out,
                    ", \"{}\": {:.*}",
                    metric.key, metric.decimals, series.points[i].mean
                );
            }
            let _ = writeln!(out, "}}{}", if i + 1 < anchor.len() { "," } else { "" });
        }
        let _ = writeln!(out, "          ]");
        let _ = write!(out, "        }}");
        let _ = writeln!(out, "{}", if pi + 1 < platforms.len() { "," } else { "" });
    }
    let _ = writeln!(out, "      ]");
    let _ = write!(out, "    }}");
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
            fig.series.len() / crate::grid::metrics(ExperimentId::LoadMemcached).len(),
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

    /// A run report with one figure per `(experiment, x, x_value)`, each
    /// merged from one synthetic row per entry: every point sits at `x`,
    /// and column `c` reads `c + offset`.
    fn sweep_report(experiments: &[(ExperimentId, &str, f64)], offset: f64) -> RunReport {
        let figures = experiments.iter().map(|&(experiment, x, x_value)| {
            let values = (0..crate::grid::metrics(experiment).len()).map(|c| c as f64 + offset);
            let row = crate::grid::SweepPoint {
                x: x.to_string(),
                x_value,
                values: values.collect(),
            };
            let cells = vec![crate::grid::CellOutput::Sweep(vec![row])];
            let entries = crate::grid::entries(experiment).len();
            crate::grid::merge(experiment, &vec![cells; entries])
        });
        RunReport {
            figures: figures.collect(),
            timings: Vec::new(),
            workers: 1,
            wall: std::time::Duration::ZERO,
            merge: std::time::Duration::ZERO,
        }
    }

    #[test]
    fn sweep_json_writes_extra_header_fields_in_order_and_points_by_table() {
        let experiments = [ExperimentId::LoadMysql, ExperimentId::ClusterMemcached];
        let serial = sweep_report(
            &[
                (experiments[0], "0.50", 0.5),
                (experiments[1], "s1 \"a\"", 0.0),
            ],
            1.0,
        );
        let extra = [
            ("r1_matches_plain", "true".to_string()),
            ("sweep_throughput", "{\"wall_ms\": 9.500}".to_string()),
        ];
        let json = sweep_json(
            "demo/v1",
            "quick",
            7,
            &serial,
            &serial,
            &experiments,
            &extra,
        );
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines[1], "  \"schema\": \"demo/v1\",");
        assert_eq!(
            lines[8..12].join("\n"),
            "  \"identical\": true,\n  \"r1_matches_plain\": true,\n  \
             \"sweep_throughput\": {\"wall_ms\": 9.500},\n  \"experiments\": ["
        );
        assert!(json.contains(
            "{\"fraction\": 0.50, \"p50_us\": 1.000, \"p95_us\": 2.000, \"p99_us\": 3.000, \
             \"achieved_per_sec\": 4.000}"
        ));
        assert!(json.contains(
            "{\"setting\": \"s1 \\\"a\\\"\", \"p50_us\": 1.000, \"p99_us\": 2.000, \
             \"hot_shard_p99_us\": 3.000, \"imbalance\": 4.0000, \"achieved_per_sec\": 5.000, \
             \"drop_fraction\": 6.000000}"
        ));
        let platforms = crate::grid::entries(experiments[0]).len();
        assert_eq!(json.matches("\"label\": ").count(), 2 * platforms);
        assert!(json.ends_with("}\n          ]\n        }\n      ]\n    }\n  ]\n}\n"));

        let diverged = sweep_report(&[(experiments[0], "0.50", 0.5)], 1.0);
        let json = sweep_json("demo/v1", "quick", 7, &serial, &diverged, &experiments, &[]);
        assert!(json.contains("  \"identical\": false,\n  \"experiments\": [\n"));
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
