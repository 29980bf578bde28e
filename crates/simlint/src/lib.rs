//! # simlint
//!
//! A determinism static-analysis pass over the `isolation-bench`
//! workspace sources.
//!
//! Every figure this repository produces must be **byte-identical for any
//! worker count** — an invariant the replay tests can only check after
//! the fact, one divergence at a time.
//! `simlint` enforces it at the source level instead: a hand-rolled,
//! comment- and string-aware Rust lexer ([`lexer`]) feeds a small rule
//! engine ([`rules`]) that rejects the hazards which historically break
//! bit-identity — wall-clock reads, hasher-ordered iteration, ambient
//! randomness, stray thread spawns, and the stale hardcoded experiment
//! counts that bit two previous PRs.
//!
//! ```text
//! cargo run -p simlint -- --check            # exit non-zero on findings
//! cargo run -p simlint -- --json SIMLINT.json
//! ```
//!
//! Legitimate sites are suppressed in place, with a mandatory reason:
//!
//! ```text
//! // simlint::allow(D004, reason = "bounded smoke test of real-thread locking")
//! ```
//!
//! See [`rules`] for the rule table and [`Workspace::scan`] for the
//! entry point the CLI and the self-audit test share.

pub mod lexer;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{Finding, Suppressed};

/// Top-level directories scanned, relative to the workspace root.
/// `vendor/` (external stand-ins) and `target/` are deliberately out.
const SCAN_DIRS: &[&str] = &[
    "src", "crates", "tests", "examples", "benches", "ci", ".github",
];

/// The result of scanning a workspace tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a valid `simlint::allow(...)`, same order.
    pub suppressed: Vec<Suppressed>,
    /// Number of files lexed/scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the tree is free of unsuppressed findings.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// A workspace tree to lint.
#[derive(Debug)]
pub struct Workspace {
    root: PathBuf,
}

impl Workspace {
    /// Creates a scanner rooted at the workspace directory (the one
    /// holding the top-level `Cargo.toml`).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Workspace { root: root.into() }
    }

    /// Scans the tree and returns every finding, deterministically: the
    /// walk order is sorted, so two runs over the same tree produce the
    /// same report bytes.
    pub fn scan(&self) -> std::io::Result<Report> {
        let mut report = Report::default();
        for dir in SCAN_DIRS {
            let path = self.root.join(dir);
            if path.is_dir() {
                self.walk(&path, &mut report)?;
            }
        }
        report
            .findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        report.suppressed.sort_by(|a, b| {
            (&a.finding.file, a.finding.line, a.finding.rule).cmp(&(
                &b.finding.file,
                b.finding.line,
                b.finding.rule,
            ))
        });
        Ok(report)
    }

    fn walk(&self, dir: &Path, report: &mut Report) -> std::io::Result<()> {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            if entry.is_dir() {
                let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if matches!(name, "target" | "vendor" | ".git") {
                    continue;
                }
                self.walk(&entry, report)?;
                continue;
            }
            let Some(ext) = entry.extension().and_then(|e| e.to_str()) else {
                continue;
            };
            let rel = self.relative_label(&entry);
            match ext {
                "rs" => {
                    let source = fs::read_to_string(&entry)?;
                    rules::lint_rust_source(
                        &rel,
                        &source,
                        &mut report.findings,
                        &mut report.suppressed,
                    );
                    report.files_scanned += 1;
                }
                "sh" | "yml" | "yaml" => {
                    let source = fs::read_to_string(&entry)?;
                    rules::lint_text_source(
                        &rel,
                        &source,
                        &mut report.findings,
                        &mut report.suppressed,
                    );
                    report.files_scanned += 1;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Workspace-relative path with forward slashes, for stable reports.
    fn relative_label(&self, path: &Path) -> String {
        path.strip_prefix(&self.root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/")
    }
}
