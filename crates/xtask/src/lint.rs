//! The workspace invariant checker behind `cargo run -p xtask -- lint`.
//!
//! Every reproducibility claim in this repo — bit-identical replay, RNG-
//! neutral workload knobs, bounds-check-free CSR kernels, measured-not-
//! estimated wire bytes — rests on invariants that a single careless edit
//! can silently break. This pass turns those invariants into diagnostics.
//! It is deliberately **token-level**: after [`crate::lexer::scan`] strips
//! comments and literals, the rules match token patterns. That makes the
//! checker dependency-free (no syn, no rustc plumbing — this environment
//! has no crates.io access) at the cost of being a heuristic: it can miss
//! exotic constructions, and it can flag a site that is actually fine. The
//! first is acceptable for a tripwire; the second is what the escape hatch
//! is for:
//!
//! ```text
//! // lint: allow(hash-iter, reason = "aggregate sum, order-insensitive")
//! ```
//!
//! An allow suppresses exactly one rule on the line it trails (or, on its
//! own line, the next code line). A missing or empty `reason` is itself a
//! violation, and so is an allow that no longer suppresses anything — the
//! allowlist cannot rot silently.
//!
//! # Rule catalog
//!
//! | id | invariant |
//! |----|-----------|
//! | `hash-iter` | no iteration over `HashMap`/`HashSet` (order-sensitive paths must sort or use `BTreeMap`) |
//! | `wall-clock` | no `Instant`/`SystemTime` outside `crates/doctagger/src/timing.rs` and the real-socket boundary (`crates/peerd`, `vendor/reactor`) |
//! | `thread-spawn` | no `thread::spawn`/`mpsc` outside `vendor/parallel` (the deterministic substrate) and the real-socket boundary (`crates/peerd`, `vendor/reactor`) |
//! | `seedless-rng` | every RNG flows from an explicit seed — no `thread_rng`/`from_entropy`/`OsRng`/`getrandom` |
//! | `unsafe-safety` | every `unsafe` carries a `// SAFETY:` comment naming the proved invariant |
//! | `wire-discipline` | `p2pclassify` sends charge encoded/estimated byte values, never raw integer literals |
//! | `send-unchecked` | `p2pclassify` never discards a send `Result` — lost sends must be tracked, not ignored |
//!
//! Adding a rule: implement it over the token stream in [`lint_source`],
//! add its id + description to [`RULES`], a bad fixture under
//! `crates/xtask/fixtures/bad/`, an allowed fixture under `fixtures/ok/`,
//! and a row in DESIGN.md's rule table.

use crate::lexer::{self, ScannedFile};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// A lint rule's identity and the invariant it enforces.
pub struct Rule {
    /// Stable id used in diagnostics and `allow(...)` annotations.
    pub id: &'static str,
    /// One-line description of the invariant.
    pub description: &'static str,
}

/// The rule catalog (ids are what `allow(...)` must name).
pub const RULES: &[Rule] = &[
    Rule {
        id: "hash-iter",
        description: "no iteration over HashMap/HashSet: hash order is nondeterministic; \
                      sort first or use BTreeMap",
    },
    Rule {
        id: "wall-clock",
        description: "no Instant/SystemTime outside crates/doctagger/src/timing.rs and \
                      the audited real-socket boundary \
                      (crates/peerd, vendor/reactor): sim code runs on virtual time",
    },
    Rule {
        id: "thread-spawn",
        description: "no thread::spawn or std::sync::mpsc outside vendor/parallel and the \
                      audited real-socket boundary (crates/peerd, vendor/reactor): sim \
                      concurrency goes through the index-deterministic substrate",
    },
    Rule {
        id: "seedless-rng",
        description: "every RNG must be constructed from an explicit seed: no thread_rng, \
                      from_entropy, OsRng or getrandom",
    },
    Rule {
        id: "unsafe-safety",
        description: "every `unsafe` must carry a `// SAFETY:` comment naming the proved \
                      invariant",
    },
    Rule {
        id: "wire-discipline",
        description: "p2pclassify network sends must charge bytes from the frame layer, \
                      never a raw integer literal",
    },
    Rule {
        id: "send-unchecked",
        description: "p2pclassify must not discard a send Result (`let _ =` or a \
                      statement-level `.ok()`): every lost send must be tracked or \
                      explicitly allowed",
    },
    Rule {
        id: "allow-syntax",
        description: "lint allows must name a known rule and a non-empty reason",
    },
    Rule {
        id: "unused-allow",
        description: "a lint allow that suppresses nothing must be removed",
    },
];

/// Whether `id` names a rule in [`RULES`].
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One `unsafe` occurrence for the audit inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `unsafe` token.
    pub line: usize,
    /// Whether a `// SAFETY:` comment (or a reasoned allow) covers it.
    pub documented: bool,
    /// First line of the SAFETY comment (or the allow reason).
    pub summary: String,
}

/// Lint results for a whole tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All surviving (non-allowed) violations, in path/line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Every `unsafe` site found, documented or not.
    pub unsafe_sites: Vec<UnsafeSite>,
}

impl Report {
    /// `(documented, total)` unsafe coverage.
    pub fn unsafe_coverage(&self) -> (usize, usize) {
        let total = self.unsafe_sites.len();
        let documented = self.unsafe_sites.iter().filter(|s| s.documented).count();
        (documented, total)
    }
}

// ---------------------------------------------------------------------------
// Tokenization of the blanked code view.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokKind {
    Ident,
    Num,
    Punct,
}

#[derive(Debug, Clone)]
struct Tok {
    line: usize,
    kind: TokKind,
    text: String,
}

fn tokenize(code_lines: &[String]) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (li, line) in code_lines.iter().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    line: li + 1,
                    kind: TokKind::Ident,
                    text: chars[start..i].iter().collect(),
                });
            } else if c.is_ascii_digit() {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                // Fractional part: consume `.` only when a digit follows, so
                // ranges (`0..n`) and method calls (`1.max(x)`) survive.
                if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                toks.push(Tok {
                    line: li + 1,
                    kind: TokKind::Num,
                    text: chars[start..i].iter().collect(),
                });
            } else {
                toks.push(Tok {
                    line: li + 1,
                    kind: TokKind::Punct,
                    text: c.to_string(),
                });
                i += 1;
            }
        }
    }
    toks
}

// ---------------------------------------------------------------------------
// Allow annotations.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Allow {
    rule: String,
    reason: String,
    /// Line of the comment itself.
    comment_line: usize,
    /// Line of code this allow suppresses.
    attach: usize,
    used: bool,
}

/// Parses `lint: allow(rule, reason = "...")` annotations out of comments.
/// Malformed annotations become `allow-syntax` diagnostics immediately.
///
/// Only plain `//` comments whose content *starts* with `lint:` are
/// annotations — doc comments (`///`, `//!`) and prose that merely mentions
/// the syntax never parse, so documentation about the escape hatch cannot
/// accidentally become one.
fn parse_allows(file: &str, scanned: &ScannedFile, diags: &mut Vec<Diagnostic>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (line, text) in &scanned.comments {
        let content = text.trim_start();
        let Some(content) = content.strip_prefix("//") else {
            continue; // block comment: not an annotation position
        };
        if content.starts_with('/') || content.starts_with('!') {
            continue; // doc comment
        }
        let content = content.trim_start();
        if !content.starts_with("lint:") {
            continue;
        }
        let mut rest = content;
        while let Some(pos) = rest.find("lint:") {
            rest = &rest[pos + "lint:".len()..];
            let trimmed = rest.trim_start();
            let Some(inner) = trimmed.strip_prefix("allow(") else {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: *line,
                    rule: "allow-syntax",
                    message: "expected `lint: allow(<rule>, reason = \"...\")`".to_string(),
                });
                break;
            };
            let Some(close) = inner.rfind(')') else {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: *line,
                    rule: "allow-syntax",
                    message: "unclosed `lint: allow(`".to_string(),
                });
                break;
            };
            let body = &inner[..close];
            rest = &inner[close + 1..];
            let (rule, tail) = match body.split_once(',') {
                Some((r, t)) => (r.trim(), t.trim()),
                None => (body.trim(), ""),
            };
            if !is_known_rule(rule) {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: *line,
                    rule: "allow-syntax",
                    message: format!("unknown lint rule `{rule}` in allow"),
                });
                continue;
            }
            let reason = tail
                .strip_prefix("reason")
                .map(|t| t.trim_start())
                .and_then(|t| t.strip_prefix('='))
                .map(|t| t.trim())
                .and_then(|t| t.strip_prefix('"'))
                .and_then(|t| t.rfind('"').map(|q| t[..q].trim().to_string()))
                .unwrap_or_default();
            if reason.is_empty() {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: *line,
                    rule: "allow-syntax",
                    message: format!("allow({rule}) needs a non-empty reason = \"...\""),
                });
                continue;
            }
            // Attach to the trailing code line, else the next code line.
            let attach = if scanned.line_has_code(*line) {
                *line
            } else {
                (*line + 1..=scanned.code_lines.len())
                    .find(|&l| scanned.line_has_code(l))
                    .unwrap_or(*line)
            };
            allows.push(Allow {
                rule: rule.to_string(),
                reason,
                comment_line: *line,
                attach,
                used: false,
            });
        }
    }
    allows
}

// ---------------------------------------------------------------------------
// Per-file pass.
// ---------------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
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

const ENTROPY_TOKENS: &[&str] = &[
    "from_entropy",
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "EntropyRng",
    "getrandom",
    "from_os_rng",
];

/// The audited real-socket boundary: the peer daemon and its reactor shim
/// necessarily touch the wall clock (epoll timeouts, timer wheel) and spawn
/// one thread per peer. Simulation and protocol crates stay banned — the
/// fixtures pin that scoping.
fn socket_boundary(path: &str) -> bool {
    path.starts_with("crates/peerd/") || path.starts_with("vendor/reactor/")
}

fn wall_clock_allowed(path: &str) -> bool {
    path == "crates/doctagger/src/timing.rs" || socket_boundary(path)
}

fn thread_spawn_allowed(path: &str) -> bool {
    path.starts_with("vendor/parallel/") || socket_boundary(path)
}

fn wire_rule_applies(path: &str) -> bool {
    path.starts_with("crates/p2pclassify/")
}

/// Identifiers in this file bound to a `HashMap`/`HashSet` — fields, typed
/// locals/params (`name: HashMap<..>`) and constructed locals
/// (`name = HashMap::new()`). Per-file scope is the documented granularity
/// of the heuristic.
fn tracked_hash_idents(toks: &[Tok]) -> BTreeMap<String, &'static str> {
    const SKIP: &[&str] = &["std", "collections", "hash_map", "hash_set", "&", "mut"];
    let mut tracked = BTreeMap::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        let kind: &'static str = if t.text == "HashMap" {
            "HashMap"
        } else {
            "HashSet"
        };
        // Walk back over the path/reference prefix to the binding operator.
        // A `::` pair is a path separator to step over; a lone `:` is the
        // annotation operator we are looking for, so it terminates the walk.
        let mut j = i;
        while j > 0 {
            let prev = toks[j - 1].text.as_str();
            if prev == ":" {
                if j >= 2 && toks[j - 2].text == ":" {
                    j -= 2;
                    continue;
                }
                break;
            }
            if SKIP.contains(&prev) {
                j -= 1;
                continue;
            }
            break;
        }
        if j == 0 {
            continue;
        }
        let op = &toks[j - 1];
        if (op.text == ":" || op.text == "=") && j >= 2 && toks[j - 2].kind == TokKind::Ident {
            let name = toks[j - 2].text.clone();
            if name != "Item" && name != "Output" && name != "Self" {
                tracked.insert(name, kind);
            }
        }
    }
    tracked
}

/// Runs every rule over one file. `path` is the workspace-relative path
/// (it selects which path-scoped rules apply). Returns the surviving
/// diagnostics and the file's unsafe inventory.
pub fn lint_source(path: &str, source: &str) -> (Vec<Diagnostic>, Vec<UnsafeSite>) {
    let scanned = lexer::scan(source);
    let toks = tokenize(&scanned.code_lines);
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut syntax_diags: Vec<Diagnostic> = Vec::new();
    let mut allows = parse_allows(path, &scanned, &mut syntax_diags);
    let mut unsafe_sites: Vec<UnsafeSite> = Vec::new();

    let diag = |line: usize, rule: &'static str, message: String| Diagnostic {
        file: path.to_string(),
        line,
        rule,
        message,
    };

    // --- hash-iter -------------------------------------------------------
    let tracked = tracked_hash_idents(&toks);
    for i in 0..toks.len() {
        let t = &toks[i];
        // `name.iter()` / `self.name.keys()` …
        if t.kind == TokKind::Ident
            && ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && toks[i - 2].kind == TokKind::Ident
        {
            if let Some(kind) = tracked.get(&toks[i - 2].text) {
                raw.push(diag(
                    t.line,
                    "hash-iter",
                    format!(
                        "iteration (`.{}()`) over {kind} `{}`: hash order is \
                         nondeterministic — sort, use BTreeMap/BTreeSet, or allow \
                         with an order-insensitivity argument",
                        t.text,
                        toks[i - 2].text
                    ),
                ));
            }
        }
        // `for x in &name {` / `for x in name {` / `for x in &mut self.name {`
        if t.kind == TokKind::Ident && t.text == "in" {
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|n| n.text == "&" || n.text == "mut")
            {
                j += 1;
            }
            let (recv, brace) = if toks.get(j).is_some_and(|n| n.text == "self")
                && toks.get(j + 1).is_some_and(|n| n.text == ".")
            {
                (toks.get(j + 2), toks.get(j + 3))
            } else {
                (toks.get(j), toks.get(j + 1))
            };
            if let (Some(recv), Some(brace)) = (recv, brace) {
                if recv.kind == TokKind::Ident && brace.text == "{" {
                    if let Some(kind) = tracked.get(&recv.text) {
                        raw.push(diag(
                            recv.line,
                            "hash-iter",
                            format!(
                                "`for` loop over {kind} `{}`: hash order is \
                                 nondeterministic — sort or use BTreeMap/BTreeSet",
                                recv.text
                            ),
                        ));
                    }
                }
            }
        }
    }

    // --- wall-clock ------------------------------------------------------
    if !wall_clock_allowed(path) {
        for t in &toks {
            if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
                raw.push(diag(
                    t.line,
                    "wall-clock",
                    format!(
                        "`{}` outside the timing helper: simulation code runs on virtual \
                         time — route measurement through doctagger::timing",
                        t.text
                    ),
                ));
            }
        }
    }

    // --- thread-spawn ----------------------------------------------------
    if !thread_spawn_allowed(path) {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            if t.text == "spawn" && i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == ":") {
                raw.push(diag(
                    t.line,
                    "thread-spawn",
                    "thread spawn outside vendor/parallel: all concurrency must go \
                     through the index-deterministic substrate"
                        .to_string(),
                ));
            }
            if t.text == "mpsc" {
                raw.push(diag(
                    t.line,
                    "thread-spawn",
                    "std::sync::mpsc outside vendor/parallel: channel wakeup order is \
                     scheduler-dependent"
                        .to_string(),
                ));
            }
        }
    }

    // --- seedless-rng ----------------------------------------------------
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if ENTROPY_TOKENS.contains(&t.text.as_str()) {
            raw.push(diag(
                t.line,
                "seedless-rng",
                format!(
                    "`{}` draws from an entropy source: every RNG must flow from an \
                     explicit seed (seed_from_u64 / from_seed)",
                    t.text
                ),
            ));
        }
        // `rand::random` (free-function entropy path).
        if t.text == "random"
            && i >= 3
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && toks[i - 3].text == "rand"
        {
            raw.push(diag(
                t.line,
                "seedless-rng",
                "`rand::random` draws from an entropy source: seed explicitly".to_string(),
            ));
        }
    }

    // --- unsafe-safety ---------------------------------------------------
    for t in &toks {
        if !(t.kind == TokKind::Ident && t.text == "unsafe") {
            continue;
        }
        let mut summary = String::new();
        let mut documented = scanned.comments_on(t.line).any(|c| {
            let hit = c.contains("SAFETY:");
            if hit {
                summary = safety_summary(c);
            }
            hit
        });
        if !documented {
            // Walk upward through the contiguous comment/attribute/blank
            // block directly above the unsafe token.
            let mut l = t.line.saturating_sub(1);
            while l >= 1 && t.line - l <= 12 {
                if scanned.line_has_code(l) {
                    let code = scanned.code_lines[l - 1].trim().to_string();
                    if code.starts_with('#') {
                        l -= 1;
                        continue; // attribute, keep walking
                    }
                    break; // real code terminates the comment block
                }
                if let Some(c) = scanned.comments_on(l).find(|c| c.contains("SAFETY:")) {
                    documented = true;
                    summary = safety_summary(c);
                    break;
                }
                if l == 1 {
                    break;
                }
                l -= 1;
            }
        }
        if !documented {
            // A reasoned allow counts as documentation (the reason is the
            // audit trail), handled below via the normal suppression path.
            raw.push(diag(
                t.line,
                "unsafe-safety",
                "`unsafe` without a `// SAFETY:` comment naming the proved invariant".to_string(),
            ));
        }
        unsafe_sites.push(UnsafeSite {
            file: path.to_string(),
            line: t.line,
            documented,
            summary,
        });
    }

    // --- wire-discipline -------------------------------------------------
    if wire_rule_applies(path) {
        let mut i = 0;
        while i < toks.len() {
            let is_send_call = toks[i].text == "send"
                && toks[i].kind == TokKind::Ident
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(");
            if !is_send_call {
                i += 1;
                continue;
            }
            // Collect the top-level arguments of the call.
            let mut depth = 1usize;
            let mut j = i + 2;
            let mut args: Vec<Vec<&Tok>> = vec![Vec::new()];
            while j < toks.len() && depth > 0 {
                let t = &toks[j];
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 1 => {
                        args.push(Vec::new());
                        j += 1;
                        continue;
                    }
                    _ => {}
                }
                if depth > 0 {
                    args.last_mut().expect("args never empty").push(t);
                }
                j += 1;
            }
            if let Some(last) = args.last().filter(|a| !a.is_empty()) {
                let has_num = last.iter().any(|t| t.kind == TokKind::Num);
                let literal_only = last.iter().all(|t| {
                    t.kind == TokKind::Num
                        || (t.kind == TokKind::Punct && "+-*/()".contains(&t.text))
                });
                if has_num && literal_only {
                    raw.push(diag(
                        last[0].line,
                        "wire-discipline",
                        "network send charges a raw integer literal: byte costs must \
                         come from the frame layer (an encoded frame's length)"
                            .to_string(),
                    ));
                }
            }
            i = j;
        }
    }

    // --- send-unchecked --------------------------------------------------
    if wire_rule_applies(path) {
        const SEND_METHODS: &[&str] = &["send", "send_frame"];
        let is_send_at = |i: usize| -> bool {
            toks[i].kind == TokKind::Ident
                && SEND_METHODS.contains(&toks[i].text.as_str())
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
        };
        // `let _ = ... .send*( ... ) ... ;` — the wildcard binding throws the
        // Result away without the compiler's unused-must-use backstop.
        let mut i = 0;
        while i < toks.len() {
            let is_discard_let = toks[i].kind == TokKind::Ident
                && toks[i].text == "let"
                && toks.get(i + 1).is_some_and(|t| t.text == "_")
                && toks.get(i + 2).is_some_and(|t| t.text == "=");
            if !is_discard_let {
                i += 1;
                continue;
            }
            let let_line = toks[i].line;
            let mut depth = 0usize;
            let mut j = i + 3;
            let mut discards_send = false;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    ";" if depth == 0 => break,
                    _ => {}
                }
                if is_send_at(j) {
                    discards_send = true;
                }
                j += 1;
            }
            if discards_send {
                raw.push(diag(
                    let_line,
                    "send-unchecked",
                    "`let _ =` discards a send Result: track the loss (protocol \
                     counters / ReliableLink) or allow with a reason"
                        .to_string(),
                ));
            }
            i = j;
        }
        // `.send*(...).ok();` — the statement-level discard spelling.
        for i in 0..toks.len() {
            if !is_send_at(i) {
                continue;
            }
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let trailing_ok = toks.get(j).is_some_and(|t| t.text == ".")
                && toks.get(j + 1).is_some_and(|t| t.text == "ok")
                && toks.get(j + 2).is_some_and(|t| t.text == "(")
                && toks.get(j + 3).is_some_and(|t| t.text == ")")
                && toks.get(j + 4).is_some_and(|t| t.text == ";");
            // Only a *statement* discards: walk back over the receiver chain
            // (`self.link.` …) — if the expression starts a statement the
            // value is dead, while `let got = ….ok();` or an argument
            // position keeps it alive.
            let mut k = i - 1; // the `.` before the send ident
            while k > 0
                && (toks[k - 1].kind == TokKind::Ident
                    || toks[k - 1].text == "."
                    || toks[k - 1].text == "&"
                    || toks[k - 1].text == "mut")
            {
                k -= 1;
            }
            let starts_statement = k == 0 || matches!(toks[k - 1].text.as_str(), ";" | "{" | "}");
            if trailing_ok && starts_statement {
                raw.push(diag(
                    toks[i].line,
                    "send-unchecked",
                    "statement-level `.ok()` discards a send Result: track the loss \
                     (protocol counters / ReliableLink) or allow with a reason"
                        .to_string(),
                ));
            }
        }
    }

    // --- apply allows ----------------------------------------------------
    let mut diags = syntax_diags;
    for d in raw {
        let suppressed = allows
            .iter_mut()
            .find(|a| a.rule == d.rule && a.attach == d.line);
        match suppressed {
            Some(a) => {
                a.used = true;
                if d.rule == "unsafe-safety" {
                    if let Some(site) = unsafe_sites
                        .iter_mut()
                        .find(|s| s.line == d.line && !s.documented)
                    {
                        site.documented = true;
                        site.summary = format!("allowed: {}", a.reason);
                    }
                }
            }
            None => diags.push(d),
        }
    }
    for a in &allows {
        if !a.used {
            diags.push(Diagnostic {
                file: path.to_string(),
                line: a.comment_line,
                rule: "unused-allow",
                message: format!(
                    "allow({}) suppresses nothing on line {} — remove it",
                    a.rule, a.attach
                ),
            });
        }
    }
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (diags, unsafe_sites)
}

fn safety_summary(comment: &str) -> String {
    let after = comment
        .split_once("SAFETY:")
        .map(|(_, t)| t.trim())
        .unwrap_or("");
    after.trim_end_matches("*/").trim().to_string()
}

// ---------------------------------------------------------------------------
// Tree walk.
// ---------------------------------------------------------------------------

/// Directories never scanned (build output, VCS metadata, and the lint's own
/// deliberately-violating fixture corpus).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Lints every `.rs` file under `root` (skipping `target/`, dotdirs and the
/// fixture corpus) and aggregates the per-file results.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for path in collect_rs_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(&path)?;
        let (diags, sites) = lint_source(&rel, &source);
        report.files_scanned += 1;
        report.diagnostics.extend(diags);
        report.unsafe_sites.extend(sites);
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(path, src).0
    }

    #[test]
    fn tracked_idents_cover_fields_locals_and_params() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &HashSet<u64>) { let mut g = std::collections::HashMap::new(); }\n";
        let scanned = lexer::scan(src);
        let tracked = tracked_hash_idents(&tokenize(&scanned.code_lines));
        assert_eq!(tracked.get("m"), Some(&"HashMap"));
        assert_eq!(tracked.get("s"), Some(&"HashSet"));
        assert_eq!(tracked.get("g"), Some(&"HashMap"));
        // A Vec of maps is not itself a map.
        let src2 = "struct T { v: Vec<HashMap<u32, u32>> }\n";
        let scanned2 = lexer::scan(src2);
        let tracked2 = tracked_hash_idents(&tokenize(&scanned2.code_lines));
        assert!(tracked2.is_empty());
    }

    #[test]
    fn hash_iter_flags_methods_and_for_loops() {
        let src = "fn f(m: &HashMap<u32, u32>) -> u32 {\n\
                   \x20   let s: u32 = m.values().sum();\n\
                   \x20   for (k, v) in m {\n\
                   \x20   }\n\
                   \x20   s\n\
                   }\n";
        let d = diags("crates/ml/src/x.rs", src);
        assert_eq!(d.iter().filter(|d| d.rule == "hash-iter").count(), 2);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn hash_iter_ignores_untracked_receivers() {
        // `.values()` on a SparseVector is a plain accessor.
        let src = "fn f(v: &SparseVector) -> usize { v.values().len() }\n";
        assert!(diags("crates/ml/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_scoped_by_path() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(diags("crates/ml/src/x.rs", src).len(), 1);
        assert_eq!(diags("crates/bench/src/x.rs", src).len(), 1);
        assert!(diags("crates/doctagger/src/timing.rs", src).is_empty());
        assert_eq!(diags("vendor/criterion/src/lib.rs", src).len(), 1);
        // The real-socket boundary is audited; the sim crates stay banned.
        assert!(diags("crates/peerd/src/daemon.rs", src).is_empty());
        assert!(diags("vendor/reactor/src/timer.rs", src).is_empty());
        assert_eq!(diags("crates/p2psim/src/x.rs", src).len(), 1);
    }

    #[test]
    fn thread_and_rng_rules_fire() {
        let src =
            "fn f() { std::thread::spawn(|| ()); let (tx, rx) = std::sync::mpsc::channel(); }\n";
        let d = diags("crates/p2psim/src/x.rs", src);
        assert!(d.iter().filter(|d| d.rule == "thread-spawn").count() >= 2);
        assert!(diags("vendor/parallel/src/lib.rs", src).is_empty());
        assert!(diags("crates/peerd/src/loopback.rs", src).is_empty());
        assert!(diags("vendor/reactor/src/poll.rs", src).is_empty());
        let src = "fn f() { let r = StdRng::from_entropy(); let x: f64 = rand::random(); }\n";
        let d = diags("crates/ml/src/x.rs", src);
        assert_eq!(d.iter().filter(|d| d.rule == "seedless-rng").count(), 2);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let naked = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let (d, sites) = lint_source("crates/ml/src/x.rs", naked);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unsafe-safety");
        assert!(!sites[0].documented);

        let documented = "fn f(p: *const u8) -> u8 {\n\
                          \x20   // SAFETY: caller guarantees p is valid.\n\
                          \x20   unsafe { *p }\n\
                          }\n";
        let (d, sites) = lint_source("crates/ml/src/x.rs", documented);
        assert!(d.is_empty());
        assert!(sites[0].documented);
        assert!(sites[0].summary.contains("caller guarantees"));

        // An attribute between the comment and the unsafe token is fine.
        let with_attr = "// SAFETY: delegates to System.\n\
                         #[allow(clippy::x)]\n\
                         unsafe impl A for B {}\n";
        let (d, _) = lint_source("crates/ml/src/x.rs", with_attr);
        assert!(d.is_empty());
    }

    #[test]
    fn wire_discipline_flags_literal_costs_only_in_p2pclassify() {
        let bad = "fn f(net: &mut N) { net.send(a, b, MessageKind::Query, 1024).unwrap(); }\n";
        let d = diags("crates/p2pclassify/src/x.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "wire-discipline");
        // Arithmetic over literals is still a literal.
        let bad2 = "fn f(net: &mut N) { net.send(a, b, k, 64 * 1024); }\n";
        assert_eq!(diags("crates/p2pclassify/src/x.rs", bad2).len(), 1);
        // A computed value is fine; so is the same code outside p2pclassify.
        let good = "fn f(net: &mut N) { net.send(a, b, k, frame.len() as u64); }\n";
        assert!(diags("crates/p2pclassify/src/x.rs", good).is_empty());
        assert!(diags("crates/p2psim/src/x.rs", bad).is_empty());
    }

    #[test]
    fn send_unchecked_flags_discards_only_in_p2pclassify() {
        let wildcard = "fn f(net: &mut N) { let _ = net.send(a, b, k, frame.len()); }\n";
        let d = diags("crates/p2pclassify/src/x.rs", wildcard);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "send-unchecked");
        // The statement-level `.ok()` spelling.
        let okd = "fn f(net: &mut N) { net.send_frame(a, b, k, &frame).ok(); }\n";
        assert_eq!(diags("crates/p2pclassify/src/x.rs", okd).len(), 1);
        // Consuming the Result is fine: `?`, `.is_err()` in a branch, and
        // `.ok()` as an adapter all keep the outcome alive.
        let good = "fn f(net: &mut N) -> Result<(), E> {\n\
                    \x20   net.send(a, b, k, frame.len())?;\n\
                    \x20   if net.send_frame(a, b, k, &frame).is_err() { lost += 1; }\n\
                    \x20   let got = link.send_frame(net, a, b, k, &frame, accepts).ok();\n\
                    \x20   use_it(got);\n\
                    \x20   Ok(())\n\
                    }\n";
        assert!(diags("crates/p2pclassify/src/x.rs", good).is_empty());
        // `let _ =` over a non-send call is not this rule's business.
        let other = "fn f() { let _ = compute(); }\n";
        assert!(diags("crates/p2pclassify/src/x.rs", other).is_empty());
        // Path-scoped: the sim crate's own plumbing is exempt.
        assert!(diags("crates/p2psim/src/x.rs", wildcard).is_empty());
        // A reasoned allow suppresses.
        let allowed = "fn f(net: &mut N) {\n\
                       \x20   // lint: allow(send-unchecked, reason = \"best-effort hint\")\n\
                       \x20   let _ = net.send(a, b, k, frame.len());\n\
                       }\n";
        assert!(diags("crates/p2pclassify/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn allows_suppress_and_must_be_used_and_reasoned() {
        let allowed = "fn f(m: &HashMap<u32, u32>) -> u32 {\n\
                       \x20   // lint: allow(hash-iter, reason = \"sum is order-insensitive\")\n\
                       \x20   m.values().sum()\n\
                       }\n";
        assert!(diags("crates/ml/src/x.rs", allowed).is_empty());

        let trailing = "fn f(m: &HashMap<u32, u32>) -> u32 {\n\
                        \x20   m.values().sum() // lint: allow(hash-iter, reason = \"order-insensitive\")\n\
                        }\n";
        assert!(diags("crates/ml/src/x.rs", trailing).is_empty());

        let unreasoned = "fn f(m: &HashMap<u32, u32>) -> u32 {\n\
                          \x20   // lint: allow(hash-iter)\n\
                          \x20   m.values().sum()\n\
                          }\n";
        let d = diags("crates/ml/src/x.rs", unreasoned);
        assert!(d.iter().any(|d| d.rule == "allow-syntax"));
        assert!(d.iter().any(|d| d.rule == "hash-iter"));

        let unused = "// lint: allow(hash-iter, reason = \"stale\")\nfn f() {}\n";
        let d = diags("crates/ml/src/x.rs", unused);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unused-allow");

        let unknown = "// lint: allow(no-such-rule, reason = \"x\")\nfn f() {}\n";
        let d = diags("crates/ml/src/x.rs", unknown);
        assert!(d.iter().any(|d| d.rule == "allow-syntax"));
    }

    #[test]
    fn allowed_unsafe_counts_as_documented_with_audit_trail() {
        let src = "fn f(p: *const u8) -> u8 {\n\
                   \x20   // lint: allow(unsafe-safety, reason = \"ffi shim, invariant upstream\")\n\
                   \x20   unsafe { *p }\n\
                   }\n";
        let (d, sites) = lint_source("crates/ml/src/x.rs", src);
        assert!(d.is_empty());
        assert!(sites[0].documented);
        assert!(sites[0].summary.contains("ffi shim"));
    }

    #[test]
    fn tokens_in_strings_and_comments_do_not_fire() {
        let src = "// thread_rng and Instant::now discussed here\n\
                   fn f() -> &'static str { \"unsafe HashMap thread_rng Instant\" }\n";
        assert!(diags("crates/ml/src/x.rs", src).is_empty());
    }
}
