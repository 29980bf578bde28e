//! Fixture-based positive/negative coverage for every determinism rule.
//!
//! Each fixture is an in-memory source handed to the rule engine under a
//! chosen workspace-relative path (the path decides allowlists and rule
//! scope), so the battery needs no filesystem and stays byte-stable.

use simlint::rules::{lint_rust_source, lint_text_source, Finding, Suppressed};

/// Runs the Rust engine over one fixture.
fn lint(path: &str, src: &str) -> (Vec<Finding>, Vec<Suppressed>) {
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    lint_rust_source(path, src, &mut findings, &mut suppressed);
    (findings, suppressed)
}

/// Runs the shell/YAML engine over one fixture.
fn lint_text(path: &str, src: &str) -> (Vec<Finding>, Vec<Suppressed>) {
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    lint_text_source(path, src, &mut findings, &mut suppressed);
    (findings, suppressed)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- D001

#[test]
fn d001_fires_on_wall_clock_reads_in_simulation_code() {
    let src = r#"
        fn measure() {
            let start = Instant::now();
            let epoch = SystemTime::now();
        }
    "#;
    let (findings, _) = lint("crates/workloads/src/loadgen.rs", src);
    assert_eq!(rules_of(&findings), vec!["D001", "D001"]);
    assert_eq!(findings[0].line, 3);
    assert_eq!(findings[0].context, "Instant::now");
}

#[test]
fn d001_does_not_fire_in_the_timing_allowlist_or_on_virtual_time() {
    let wall = "fn t() { let s = Instant::now(); }";
    assert!(lint("crates/bench/src/bin/cluster.rs", wall).0.is_empty());
    assert!(lint("crates/harness/src/executor.rs", wall).0.is_empty());
    // Virtual time helpers named `now` on the simulation clock are fine.
    let sim =
        "fn t(clock: &VirtualClock) { let now = clock.now(); let i = Nanos::from_millis(4); }";
    assert!(lint("crates/simcore/src/events.rs", sim).0.is_empty());
}

// ---------------------------------------------------------------- D002

#[test]
fn d002_fires_on_hash_container_iteration() {
    let src = r#"
        use std::collections::{HashMap, HashSet};
        struct S { map: HashMap<Vec<u8>, u64>, tags: HashSet<String> }
        impl S {
            fn sum(&self) -> u64 { self.map.values().sum() }
            fn walk(&self) { for t in &self.tags { drop(t); } }
            fn local() {
                let mut seen = HashMap::new();
                seen.insert(1, 2);
                for (k, v) in seen.iter() { drop((k, v)); }
            }
        }
    "#;
    let (findings, _) = lint("crates/kvstore/src/shard.rs", src);
    assert_eq!(rules_of(&findings), vec!["D002", "D002", "D002"]);
    assert!(findings[0].context.contains("map.values"));
    assert!(findings[1].context.contains("tags"));
    assert!(findings[2].context.contains("seen.iter"));
}

#[test]
fn d002_ignores_ordered_containers_and_point_lookups() {
    let src = r#"
        use std::collections::{BTreeMap, HashMap};
        struct S { sorted: BTreeMap<u64, u64>, map: HashMap<u64, u64>, lru: Vec<u64> }
        impl S {
            fn ok(&mut self) -> u64 {
                let a: u64 = self.sorted.values().sum();
                let b = self.map.get(&1).copied().unwrap_or(0);
                self.map.insert(2, 3);
                self.map.remove(&4);
                let c = self.lru.iter().sum::<u64>();
                a + b + c
            }
        }
    "#;
    let (findings, _) = lint("crates/kvstore/src/shard.rs", src);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn d002_field_taint_stops_at_the_next_struct_field() {
    // `lru` sits right before a HashMap field: the type window must not
    // leak across the comma and taint the VecDeque.
    let src = r#"
        use std::collections::HashMap;
        struct S { lru: VecDeque<Vec<u8>>, counts: HashMap<Vec<u8>, u32> }
        impl S {
            fn scan(&self) -> bool { self.lru.iter().any(|k| k.is_empty()) }
        }
    "#;
    let (findings, _) = lint("crates/kvstore/src/shard.rs", src);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// ---------------------------------------------------------------- D003

#[test]
fn d003_fires_on_ambient_randomness() {
    let src = r#"
        fn entropy() {
            let mut rng = thread_rng();
            let r = rand::random::<u64>();
            let o = OsRng.next_u64();
        }
    "#;
    let (findings, _) = lint("crates/workloads/src/ycsb.rs", src);
    assert_eq!(rules_of(&findings), vec!["D003", "D003", "D003"]);
}

#[test]
fn d003_does_not_fire_on_derived_streams() {
    let src = r#"
        fn derived(cfg: &RunConfig) {
            let mut rng = simcore::rng::derive(cfg.seed, "fig11_iperf", "native", 0);
            let mut child = rng.split("arrivals");
            let x = child.next_u64();
        }
    "#;
    let (findings, _) = lint("crates/workloads/src/ycsb.rs", src);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// ---------------------------------------------------------------- D004

#[test]
fn d004_fires_on_thread_spawns_outside_the_executor() {
    let src = r#"
        fn fan_out() {
            let h = std::thread::spawn(|| 1);
            std::thread::scope(|s| { s.spawn(|| 2); });
        }
    "#;
    let (findings, _) = lint("crates/workloads/src/cluster.rs", src);
    assert_eq!(rules_of(&findings), vec!["D004", "D004"]);
    assert_eq!(findings[0].context, "thread::spawn");
}

#[test]
fn d004_does_not_fire_in_the_executor_or_bench() {
    let src = "fn f() { std::thread::scope(|s| { s.spawn(|| 1); }); }";
    assert!(lint("crates/harness/src/executor.rs", src).0.is_empty());
    assert!(lint("crates/bench/src/bin/event_loop.rs", src).0.is_empty());
}

// ---------------------------------------------------------------- D005

#[test]
fn d005_fires_on_hardcoded_experiment_counts_in_tests() {
    let src = r#"
        fn check(serial: &Report) {
            assert_eq!(serial.figures.len(), 23);
        }
    "#;
    let (findings, _) = lint("tests/event_loop.rs", src);
    assert_eq!(rules_of(&findings), vec!["D005"]);
    assert_eq!(findings[0].context, "23");

    let assert_style = "fn c(experiment_count: usize) { assert_eq!(experiment_count, 21); }";
    let (findings, _) = lint("tests/grid.rs", assert_style);
    assert_eq!(rules_of(&findings), vec!["D005"]);
}

#[test]
fn d005_does_not_fire_on_derived_counts_or_outside_tests() {
    let derived = r#"
        fn check(serial: &Report) {
            assert_eq!(serial.figures.len(), ExperimentId::all().len());
        }
    "#;
    assert!(lint("tests/event_loop.rs", derived).0.is_empty());
    // Small structural literals (platform counts, indices) are fine...
    let small = "fn c(fig: &Figure) { assert_eq!(fig.series.len(), 6); }";
    assert!(lint("tests/paper_shape.rs", small).0.is_empty());
    // ...seeds are fine...
    let seed = "fn c() { let cfg = RunConfig::quick(2021); let f = figures::run(E, &cfg); }";
    assert!(lint("tests/paper_shape.rs", seed).0.is_empty());
    // ...and the same hardcode outside tests/CI is out of scope.
    let src = "fn c(serial: &Report) { assert_eq!(serial.figures.len(), 23); }";
    assert!(lint("crates/harness/src/grid.rs", src).0.is_empty());
}

#[test]
fn d005_fires_in_shell_and_yaml_ci_configuration() {
    let sh = "MIN_SLUGS=23\nif [ \"$count\" -lt \"$MIN_SLUGS\" ]; then exit 1; fi\n";
    let (findings, _) = lint_text("ci/check_bench.sh", sh);
    assert_eq!(rules_of(&findings), vec!["D005"]);
    assert_eq!(findings[0].line, 1);

    let yml =
        "jobs:\n  check:\n    steps:\n      - run: test \"$(grep -c slug out.json)\" -eq 23\n";
    let (findings, _) = lint_text(".github/workflows/ci.yml", yml);
    assert_eq!(rules_of(&findings), vec!["D005"]);
}

#[test]
fn d005_text_scan_ignores_comments_versions_and_derived_floors() {
    let sh = concat!(
        "# the grid has 23 experiments today (comment only)\n",
        "MIN_SLUGS=\"$(grep -cE '=> \"[a-z0-9_]+\",$' \"$ROOT/crates/harness/src/experiment.rs\")\"\n",
        "uses: actions/checkout@v4\n",
        "echo \"covers $count of $declared experiments\"\n",
    );
    let (findings, _) = lint_text("ci/check_bench.sh", sh);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// ---------------------------------------------------- tricky lexing

#[test]
fn rule_tokens_inside_strings_comments_and_raw_strings_never_fire() {
    let src = r####"
        //! Docs may mention Instant::now, thread_rng and map.values().
        fn log() {
            // Instant::now() in a comment
            /* thread::spawn in a /* nested */ block */
            let a = "Instant::now() and SystemTime in a string";
            let b = r#"thread_rng() and rand::random in a raw string"#;
            let c = b"OsRng in a byte string";
            let d = "assert_eq!(figures.len(), 23) in a string";
            println!("{a}{b}{c:?}{d}");
        }
    "####;
    let (findings, suppressed) = lint("tests/fixture.rs", src);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert!(suppressed.is_empty());
}

// ---------------------------------------------------- suppressions

#[test]
fn a_reasoned_suppression_silences_the_next_line_and_is_recorded() {
    let src = r#"
        fn fan_out() {
            // simlint::allow(D004, reason = "bounded concurrency smoke test")
            let h = std::thread::spawn(|| 1);
        }
    "#;
    let (findings, suppressed) = lint("crates/kvstore/src/store.rs", src);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].finding.rule, "D004");
    assert_eq!(suppressed[0].reason, "bounded concurrency smoke test");
}

#[test]
fn suppression_requires_a_reason() {
    // No reason at all, and an empty reason: both are D000 and the
    // original finding still fires.
    for bad in [
        "// simlint::allow(D004)",
        "// simlint::allow(D004, reason = \"\")",
        "// simlint::allow(D004, reason = \"   \")",
    ] {
        let src = format!("fn f() {{\n{bad}\nlet h = std::thread::spawn(|| 1);\n}}\n");
        let (findings, suppressed) = lint("crates/kvstore/src/store.rs", &src);
        assert_eq!(
            rules_of(&findings),
            vec!["D000", "D004"],
            "directive {bad:?} must not suppress"
        );
        assert!(suppressed.is_empty());
    }
}

#[test]
fn suppression_is_per_rule_and_per_site() {
    // The wrong rule id does not silence, and the directive only covers
    // its own line plus the next one.
    let wrong_rule = r#"
        fn f() {
            // simlint::allow(D001, reason = "mismatched rule id")
            let h = std::thread::spawn(|| 1);
        }
    "#;
    let (findings, _) = lint("crates/kvstore/src/store.rs", wrong_rule);
    assert_eq!(rules_of(&findings), vec!["D004"]);

    let too_far = r#"
        fn f() {
            // simlint::allow(D004, reason = "two lines above the site")
            let x = 1;
            let h = std::thread::spawn(move || x);
        }
    "#;
    let (findings, _) = lint("crates/kvstore/src/store.rs", too_far);
    assert_eq!(rules_of(&findings), vec!["D004"]);
}

#[test]
fn unknown_rule_ids_in_directives_are_rejected() {
    let src = "// simlint::allow(D099, reason = \"no such rule\")\nfn f() {}\n";
    let (findings, _) = lint("crates/simcore/src/time.rs", src);
    assert_eq!(rules_of(&findings), vec!["D000"]);
}

#[test]
fn shell_suppressions_work_with_hash_comments() {
    let sh = concat!(
        "# simlint::allow(D005, reason = \"floor only guards under-declaring artifacts\")\n",
        "MIN_SLUGS=23\n",
    );
    let (findings, suppressed) = lint_text("ci/check_bench.sh", sh);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].finding.rule, "D005");
}
