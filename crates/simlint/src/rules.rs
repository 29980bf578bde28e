//! The determinism rule set and the engine that applies it to one file.
//!
//! Every rule guards the workspace's core invariant: **figure bytes are
//! identical for any worker count**. The rules reject the source-level
//! hazards that historically break that invariant, before a replay test
//! ever has to catch the divergence:
//!
//! | Rule | Hazard |
//! |---|---|
//! | D001 | Wall-clock reads (`Instant::now`, `SystemTime`) outside the harness/bench timing allowlist |
//! | D002 | Order-sensitive iteration over `HashMap`/`HashSet` bindings |
//! | D003 | Ambient randomness (`thread_rng`, `OsRng`, entropy seeding) instead of `simcore::rng::derive` |
//! | D004 | `std::thread` spawns outside `harness::executor` and the bench crate |
//! | D005 | Hardcoded experiment counts in tests/CI instead of `ExperimentId::all().len()` / the artifact's `experiment_count` |
//! | D000 | Malformed suppression directives (missing or empty `reason`) |
//!
//! A finding at a site that is genuinely fine is suppressed per-site with
//! a mandatory reason:
//!
//! ```text
//! // simlint::allow(D004, reason = "bounded smoke test of the lock under real threads")
//! ```
//!
//! The directive covers its own line and the next source line. A
//! directive with no reason (or an unknown rule id) is itself a finding
//! (D000) and suppresses nothing.

use crate::lexer::{self, Comment, Token, TokenKind};

/// Identifiers treated as "experiment count" context for D005.
const D005_KEYWORDS: &[&str] = &["experiment", "slug", "figures"];

/// Integer literals below this are assumed structural (platform counts,
/// small indices); the experiment grid is far past it and only grows.
const D005_MIN_COUNT: u64 = 10;

/// `HashMap`/`HashSet` methods whose result order is the hasher's.
const D002_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Identifiers that reach ambient (non-derived) entropy.
const D003_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "from_entropy",
    "from_os_rng",
    "getrandom",
    "StdRng",
    "SmallRng",
    "RandomState",
];

/// All enforced rule ids, in report order.
pub const RULE_IDS: &[&str] = &["D000", "D001", "D002", "D003", "D004", "D005"];

/// Returns the one-line description of a rule id.
pub fn describe(rule: &str) -> &'static str {
    match rule {
        "D000" => "suppression directive is malformed (a non-empty reason is required)",
        "D001" => "wall-clock read outside the harness/bench timing allowlist",
        "D002" => "order-sensitive iteration over a HashMap/HashSet binding",
        "D003" => "randomness not derived through simcore::rng::derive",
        "D004" => "std::thread spawn outside harness::executor and the bench crate",
        "D005" => "hardcoded experiment count; derive it from ExperimentId::all() or the artifact's experiment_count",
        _ => "unknown rule",
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D001`...).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The offending token context (a short source-derived snippet).
    pub context: String,
    /// Human explanation of the hazard at this site.
    pub message: String,
}

/// A finding that was silenced by a valid `simlint::allow` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// The silenced finding.
    pub finding: Finding,
    /// The directive's mandatory reason.
    pub reason: String,
}

/// A parsed, well-formed `simlint::allow(D00x, reason = "...")` directive.
#[derive(Debug, Clone)]
struct Directive {
    rule: String,
    reason: String,
    line: u32,
}

/// Where a file sits in the workspace, which decides which rules apply.
#[derive(Debug, Clone, Copy)]
pub struct FilePolicy {
    /// D001 (wall clock) exempt: the executor's wall-clock timing table
    /// and the bench crate measure *host* time by design.
    pub timing_allowed: bool,
    /// D004 (thread spawn) exempt: the executor owns worker threads; the
    /// bench crate drives them.
    pub threads_allowed: bool,
    /// D005 applies only to tests and CI configuration.
    pub count_checked: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn policy_for(path: &str) -> FilePolicy {
    let timing_allowed =
        path.starts_with("crates/bench/") || path == "crates/harness/src/executor.rs";
    FilePolicy {
        timing_allowed,
        threads_allowed: timing_allowed,
        count_checked: path.starts_with("tests/")
            || path.contains("/tests/")
            || path.starts_with("ci/")
            || path.starts_with(".github/"),
    }
}

/// Lints one Rust source file; appends unsuppressed findings and
/// suppressed ones (with their reasons) to the two sinks.
pub fn lint_rust_source(
    path: &str,
    source: &str,
    findings: &mut Vec<Finding>,
    suppressed: &mut Vec<Suppressed>,
) {
    let policy = policy_for(path);
    let lexed = lexer::lex(source);
    let (directives, mut raw) = parse_directives(path, &lexed.comments);

    let toks = &lexed.tokens;
    if !policy.timing_allowed {
        d001_wall_clock(path, toks, &mut raw);
    }
    d002_hash_iteration(path, toks, &mut raw);
    d003_ambient_randomness(path, toks, &mut raw);
    if !policy.threads_allowed {
        d004_thread_spawn(path, toks, &mut raw);
    }
    if policy.count_checked {
        d005_hardcoded_count_rust(path, toks, &mut raw);
    }

    route(raw, &directives, findings, suppressed);
}

/// Lints one shell/YAML file (D005 only): a line that talks about
/// experiments/slugs and carries a standalone count literal is a
/// hardcode waiting to go stale.
pub fn lint_text_source(
    path: &str,
    source: &str,
    findings: &mut Vec<Finding>,
    suppressed: &mut Vec<Suppressed>,
) {
    let policy = policy_for(path);
    if !policy.count_checked {
        return;
    }
    let mut comments = Vec::new();
    let mut raw = Vec::new();
    for (idx, full_line) in source.lines().enumerate() {
        let line = idx as u32 + 1;
        let (code, comment) = match full_line.find('#') {
            Some(pos) => (&full_line[..pos], &full_line[pos + 1..]),
            None => (full_line, ""),
        };
        if !comment.is_empty() {
            comments.push(Comment {
                text: comment.to_string(),
                line,
            });
        }
        let lower = code.to_ascii_lowercase();
        if !D005_KEYWORDS.iter().any(|k| lower.contains(k)) {
            continue;
        }
        if let Some(count) = standalone_count(code) {
            raw.push(Finding {
                rule: "D005",
                file: path.to_string(),
                line,
                context: code.trim().chars().take(80).collect(),
                message: format!(
                    "hardcoded experiment count {count}; read it from the artifact's \
                     experiment_count (or derive it from the source of ExperimentId::all())"
                ),
            });
        }
    }
    let (directives, mut malformed) = parse_directives(path, &comments);
    raw.append(&mut malformed);
    route(raw, &directives, findings, suppressed);
}

/// Finds the first standalone decimal integer >= [`D005_MIN_COUNT`] in a
/// text line: a digit run not embedded in a word and not glued to `-`,
/// `.` or `/` (version tags, ranges, flags and paths are not counts).
fn standalone_count(code: &str) -> Option<u64> {
    let b = code.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            let before = if start == 0 { b' ' } else { b[start - 1] };
            let after = *b.get(i).unwrap_or(&b' ');
            let glued = |c: u8| is_word(c) || matches!(c, b'-' | b'.' | b'/');
            if !glued(before) && !glued(after) {
                if let Ok(v) = code[start..i].parse::<u64>() {
                    if v >= D005_MIN_COUNT {
                        return Some(v);
                    }
                }
            }
        } else {
            i += 1;
        }
    }
    None
}

fn is_word(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Applies directives: a matching directive on the finding's line or the
/// line above silences it (with its reason recorded); everything else is
/// reported. D000 findings are never suppressible.
fn route(
    raw: Vec<Finding>,
    directives: &[Directive],
    findings: &mut Vec<Finding>,
    suppressed: &mut Vec<Suppressed>,
) {
    for f in raw {
        let cover = directives.iter().find(|d| {
            f.rule != "D000" && d.rule == f.rule && (d.line == f.line || d.line + 1 == f.line)
        });
        match cover {
            Some(d) => suppressed.push(Suppressed {
                finding: f,
                reason: d.reason.clone(),
            }),
            None => findings.push(f),
        }
    }
}

/// Parses `simlint::allow(...)` directives out of the comment stream;
/// malformed ones come back as D000 findings.
fn parse_directives(path: &str, comments: &[Comment]) -> (Vec<Directive>, Vec<Finding>) {
    let mut directives = Vec::new();
    let mut malformed = Vec::new();
    for c in comments {
        // A directive must *start* the comment (after doc markers):
        // prose that merely mentions `simlint::allow(...)` is not one.
        let lead = c.text.trim_start_matches(['/', '!', ' ', '\t']);
        let Some(rest) = lead.strip_prefix("simlint::allow") else {
            continue;
        };
        match parse_allow_args(rest) {
            Ok((rule, reason)) => directives.push(Directive {
                rule,
                reason,
                line: c.line,
            }),
            Err(why) => malformed.push(Finding {
                rule: "D000",
                file: path.to_string(),
                line: c.line,
                context: c.text.trim().chars().take(80).collect(),
                message: format!(
                    "malformed simlint::allow directive ({why}); expected \
                     simlint::allow(D00x, reason = \"...\")"
                ),
            }),
        }
    }
    (directives, malformed)
}

/// Parses the `(D00x, reason = "...")` tail of a directive.
fn parse_allow_args(rest: &str) -> Result<(String, String), &'static str> {
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("missing `(`");
    };
    let Some(close) = rest.find(')') else {
        return Err("missing `)`");
    };
    let args = &rest[..close];
    let Some((rule, tail)) = args.split_once(',') else {
        return Err("missing mandatory `reason = \"...\"`");
    };
    let rule = rule.trim().to_string();
    if !RULE_IDS.contains(&rule.as_str()) || rule == "D000" {
        return Err("unknown rule id");
    }
    let tail = tail.trim();
    let Some(tail) = tail.strip_prefix("reason") else {
        return Err("missing mandatory `reason = \"...\"`");
    };
    let tail = tail.trim_start();
    let Some(tail) = tail.strip_prefix('=') else {
        return Err("missing `=` after reason");
    };
    let tail = tail.trim();
    let reason = tail
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or("reason must be a quoted string")?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty");
    }
    Ok((rule, reason.trim().to_string()))
}

fn ident_is(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == text
}

fn punct_is(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == text
}

/// D001: `Instant::now`, or any mention of `SystemTime`/`UNIX_EPOCH`.
fn d001_wall_clock(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let hit = if ident_is(t, "Instant") {
            matches!(
                (toks.get(i + 1), toks.get(i + 2)),
                (Some(sep), Some(now)) if punct_is(sep, "::") && ident_is(now, "now")
            )
            .then(|| "Instant::now".to_string())
        } else if t.kind == TokenKind::Ident && (t.text == "SystemTime" || t.text == "UNIX_EPOCH") {
            Some(t.text.clone())
        } else {
            None
        };
        if let Some(context) = hit {
            out.push(Finding {
                rule: "D001",
                file: path.to_string(),
                line: t.line,
                context,
                message: "wall-clock read in simulation code: virtual time must come from the \
                          event core (simcore::Nanos), never the host clock"
                    .to_string(),
            });
        }
    }
}

/// D002: iteration-order-sensitive calls on bindings declared with a
/// `HashMap`/`HashSet` type (annotation or constructor), including
/// `for _ in &binding` loops.
fn d002_hash_iteration(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    let tainted = hash_typed_bindings(toks);
    if tainted.is_empty() {
        return;
    }
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        // binding . method (
        if t.kind == TokenKind::Ident && tainted.contains(&t.text.as_str()) {
            if let (Some(dot), Some(m), Some(paren)) =
                (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
            {
                if punct_is(dot, ".")
                    && m.kind == TokenKind::Ident
                    && D002_METHODS.contains(&m.text.as_str())
                    && punct_is(paren, "(")
                {
                    out.push(d002_finding(path, m.line, &t.text, &m.text));
                    i += 4;
                    continue;
                }
            }
        }
        // for _ in [& [mut]] chain . binding {
        if ident_is(t, "in") {
            let mut j = i + 1;
            while toks.get(j).map(|t| punct_is(t, "&")).unwrap_or(false)
                || toks.get(j).map(|t| ident_is(t, "mut")).unwrap_or(false)
            {
                j += 1;
            }
            // Walk an ident (`.` ident)* chain; the final segment decides.
            let mut last: Option<&Token> = None;
            while let Some(seg) = toks.get(j) {
                if seg.kind != TokenKind::Ident {
                    break;
                }
                last = Some(seg);
                if toks.get(j + 1).map(|t| punct_is(t, ".")).unwrap_or(false)
                    && toks
                        .get(j + 2)
                        .map(|t| t.kind == TokenKind::Ident)
                        .unwrap_or(false)
                {
                    j += 2;
                } else {
                    j += 1;
                    break;
                }
            }
            if let (Some(seg), Some(next)) = (last, toks.get(j)) {
                if tainted.contains(&seg.text.as_str()) && punct_is(next, "{") {
                    out.push(d002_finding(path, seg.line, &seg.text, "for-in"));
                }
            }
        }
        i += 1;
    }
}

fn d002_finding(path: &str, line: u32, binding: &str, method: &str) -> Finding {
    Finding {
        rule: "D002",
        file: path.to_string(),
        line,
        context: format!("{binding}.{method}"),
        message: format!(
            "`{binding}` is HashMap/HashSet-typed: its iteration order follows the hasher, \
             not the data — fold through a sorted/BTree view instead, or sort before use"
        ),
    }
}

/// Collects names declared with a hash-container type in this file:
/// `name: ...HashMap<...>` / `name: ...HashSet<...>` annotations (struct
/// fields, params) and `let [mut] name = ...HashMap::...` constructors.
fn hash_typed_bindings(toks: &[Token]) -> Vec<&str> {
    let mut names: Vec<&str> = Vec::new();
    let is_hash = |t: &Token| ident_is(t, "HashMap") || ident_is(t, "HashSet");
    for (i, t) in toks.iter().enumerate() {
        // `let [mut] name = ... ;` with a hash constructor in the rhs.
        if ident_is(t, "let") {
            let mut j = i + 1;
            if toks.get(j).map(|t| ident_is(t, "mut")).unwrap_or(false) {
                j += 1;
            }
            let Some(name) = toks.get(j).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            let mut k = j + 1;
            while let Some(tk) = toks.get(k) {
                if punct_is(tk, ";") || punct_is(tk, "{") || k > j + 48 {
                    break;
                }
                if is_hash(tk) {
                    names.push(name.text.as_str());
                    break;
                }
                k += 1;
            }
            continue;
        }
        // `name : <type window mentioning HashMap/HashSet>`. The window
        // stops at the first separator, including `,`: the container in
        // a field/param type appears before any of its generic commas
        // (`map: HashMap<Vec<u8>, Entry>` taints, the *next* field after
        // a comma must not).
        if t.kind == TokenKind::Ident && toks.get(i + 1).map(|t| punct_is(t, ":")).unwrap_or(false)
        {
            for tk in toks.iter().take(i + 18).skip(i + 2) {
                if tk.kind == TokenKind::Punct
                    && matches!(tk.text.as_str(), ";" | "=" | "{" | "}" | "," | ")")
                {
                    break;
                }
                if is_hash(tk) {
                    names.push(t.text.as_str());
                    break;
                }
            }
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// D003: identifiers that reach ambient entropy, or a `rand::` path.
fn d003_ambient_randomness(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let hit = if t.kind == TokenKind::Ident && D003_IDENTS.contains(&t.text.as_str()) {
            Some(t.text.clone())
        } else if ident_is(t, "rand") && toks.get(i + 1).map(|n| punct_is(n, "::")).unwrap_or(false)
        {
            Some("rand::".to_string())
        } else {
            None
        };
        if let Some(context) = hit {
            out.push(Finding {
                rule: "D003",
                file: path.to_string(),
                line: t.line,
                context,
                message: "ambient randomness: every stochastic stream must be derived from the \
                          root seed via simcore::rng::derive so replays are bit-identical"
                    .to_string(),
            });
        }
    }
}

/// D004: `thread::spawn`, `thread::scope`, `thread::Builder`.
fn d004_thread_spawn(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if !ident_is(t, "thread") {
            continue;
        }
        let (Some(sep), Some(call)) = (toks.get(i + 1), toks.get(i + 2)) else {
            continue;
        };
        if punct_is(sep, "::")
            && (ident_is(call, "spawn") || ident_is(call, "scope") || ident_is(call, "Builder"))
        {
            out.push(Finding {
                rule: "D004",
                file: path.to_string(),
                line: t.line,
                context: format!("thread::{}", call.text),
                message: "thread spawn outside harness::executor: OS scheduling order is \
                          nondeterministic — run work through the executor's canonical-merge \
                          workers instead"
                    .to_string(),
            });
        }
    }
}

/// D005 (Rust): a `.len()` on an experiment/figures/slug chain compared
/// against a count literal, or a keyword binding assigned/compared to one.
fn d005_hardcoded_count_rust(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    let keyword = |t: &Token| {
        t.kind == TokenKind::Ident && {
            let lower = t.text.to_ascii_lowercase();
            D005_KEYWORDS.iter().any(|k| lower.contains(k))
        }
    };
    // Counts live in [10, 999]: below is structural (platform counts,
    // indices), above is a seed (the ubiquitous `quick(2021)`), and the
    // grid sits at 23 and grows slowly.
    let count_int = |t: &Token| {
        t.kind == TokenKind::Int && (D005_MIN_COUNT..1000).contains(&t.value.unwrap_or(0))
    };
    let comparator =
        |t: &Token| t.kind == TokenKind::Punct && matches!(t.text.as_str(), "=" | "<" | ">" | "!");
    let mut fired_lines: Vec<u32> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        // Pattern A: a `.len()` call with an experiment/figures/slug ident
        // shortly before it and a count literal nearby — the
        // `assert_eq!(x.figures.len(), 23)` shape in both operand orders.
        if ident_is(t, "len")
            && toks.get(i + 1).map(|t| punct_is(t, "(")).unwrap_or(false)
            && toks.get(i + 2).map(|t| punct_is(t, ")")).unwrap_or(false)
        {
            let back = i.saturating_sub(8);
            if toks[back..i].iter().any(keyword) {
                let window = &toks[back..(i + 8).min(toks.len())];
                if let Some(int) = window.iter().find(|t| count_int(t)) {
                    fire(path, int, out, &mut fired_lines);
                }
            }
        }
        // Pattern B: a keyword binding assigned or compared to a count
        // literal (`experiment_count == 23`, `const EXPERIMENTS: usize = 23`).
        if keyword(t) {
            let end = (i + 5).min(toks.len());
            let mut j = i + 1;
            while j < end && !comparator(&toks[j]) && !punct_is(&toks[j], ";") {
                j += 1;
            }
            if j < end && comparator(&toks[j]) {
                while j < toks.len() && comparator(&toks[j]) {
                    j += 1;
                }
                if let Some(int) = toks.get(j).filter(|t| count_int(t)) {
                    fire(path, int, out, &mut fired_lines);
                }
            }
        }
        // Pattern C: an equality assert whose argument window pairs a
        // keyword ident with a count literal (`assert_eq!(count, 23)`
        // where `count` talks about experiments).
        if ident_is(t, "assert_eq") || ident_is(t, "assert_ne") {
            let window = &toks[i..(i + 16).min(toks.len())];
            let end = window
                .iter()
                .position(|t| punct_is(t, ";"))
                .unwrap_or(window.len());
            let window = &window[..end];
            if window.iter().any(keyword) {
                if let Some(int) = window.iter().find(|t| count_int(t)) {
                    fire(path, int, out, &mut fired_lines);
                }
            }
        }
    }

    fn fire(path: &str, int: &Token, out: &mut Vec<Finding>, fired: &mut Vec<u32>) {
        if fired.contains(&int.line) {
            return;
        }
        fired.push(int.line);
        out.push(Finding {
            rule: "D005",
            file: path.to_string(),
            line: int.line,
            context: int.text.clone(),
            message: format!(
                "hardcoded experiment count {}; assert against ExperimentId::all().len() \
                 (or the artifact's experiment_count) so the expectation can never go stale",
                int.text
            ),
        });
    }
}
