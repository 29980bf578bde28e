//! Human-readable and machine-readable rendering of a lint [`Report`].
//!
//! The JSON is hand-rolled (like the harness's bench artifacts) so the
//! lint tool stays dependency-free. `--check` exits non-zero unless the
//! report is clean, and the facade's `tests/determinism_lint.rs` checks
//! that the committed `SIMLINT.json` equals the tree's report.

use crate::rules::{describe, Finding, RULE_IDS};
use crate::Report;

/// Schema tag stamped into the JSON artifact.
pub const SCHEMA: &str = "isolation-bench/simlint/v1";

/// Renders findings as `file:line: RULE: message [context]` lines plus a
/// one-line summary — the terminal output of `cargo run -p simlint`.
pub fn to_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: {}: {} [{}]\n",
            f.file, f.line, f.rule, f.message, f.context
        ));
    }
    out.push_str(&format!(
        "simlint: {} finding(s), {} suppressed, {} file(s) scanned\n",
        report.findings.len(),
        report.suppressed.len(),
        report.files_scanned
    ));
    out
}

/// Renders the machine-readable JSON artifact.
pub fn to_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {},\n", quote(SCHEMA)));
    out.push_str(&format!("  \"clean\": {},\n", report.clean()));
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str("  \"rules\": [");
    for (i, rule) in RULE_IDS.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"id\": {}, \"summary\": {}}}",
            quote(rule),
            quote(describe(rule))
        ));
    }
    out.push_str("],\n");
    out.push_str("  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(&finding_json(f, None));
        out.push_str(if i + 1 < report.findings.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"suppressed\": [\n");
    for (i, s) in report.suppressed.iter().enumerate() {
        out.push_str(&finding_json(&s.finding, Some(&s.reason)));
        out.push_str(if i + 1 < report.suppressed.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn finding_json(f: &Finding, reason: Option<&str>) -> String {
    let mut s = format!(
        "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"context\": {}, \"message\": {}",
        quote(f.rule),
        quote(&f.file),
        f.line,
        quote(&f.context),
        quote(&f.message)
    );
    if let Some(reason) = reason {
        s.push_str(&format!(", \"reason\": {}", quote(reason)));
    }
    s.push('}');
    s
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    #[test]
    fn json_escapes_quotes_and_reports_clean_verdict() {
        let mut report = Report {
            files_scanned: 1,
            ..Report::default()
        };
        assert!(to_json(&report).contains("\"clean\": true"));
        report.findings.push(Finding {
            rule: "D001",
            file: "a \"b\".rs".into(),
            line: 3,
            context: "Instant::now".into(),
            message: "msg".into(),
        });
        let json = to_json(&report);
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("a \\\"b\\\".rs"));
        assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
    }
}
