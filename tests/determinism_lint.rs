//! Tier-1 gate: the determinism lint must pass on the tree under test.
//!
//! Bit-identical figures only hold if no simulation code reads wall
//! clocks, iterates hash containers, pulls ambient entropy, spawns
//! threads outside the executor, or hardcodes experiment counts.
//! `simlint` enforces those rules statically; this test makes a clean
//! report part of `cargo test` itself so a violation fails fast even
//! when the `lint-determinism` CI job is skipped, and pins the committed
//! `SIMLINT.json` to the report of the tree it ships with.

use simlint::Workspace;

#[test]
fn simlint_reports_a_clean_tree() {
    let root = env!("CARGO_MANIFEST_DIR");
    let report = Workspace::new(root).scan().expect("scan workspace");
    assert!(
        report.clean(),
        "determinism findings (fix or add a reasoned simlint::allow):\n{}",
        simlint::report::to_text(&report)
    );
    // The committed report is the tree's: a file added or removed, or a
    // suppression that moved, changes it.
    assert!(
        simlint::report::to_json(&report) == include_str!("../SIMLINT.json"),
        "the committed SIMLINT.json is stale; regenerate it with \
         `cargo run --release -p simlint -- --check --json SIMLINT.json`"
    );
}
