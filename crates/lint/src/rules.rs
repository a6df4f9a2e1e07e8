//! The project-specific rules and the token matchers they share.
//!
//! Each rule scans the blanked code view produced by [`crate::lexer`] and
//! emits [`Finding`]s. The matchers are deliberately
//! narrow: `unwrap` only fires as a method call (`.unwrap(`), `Instant`
//! only fires when followed by `::now`, so `unwrap_or_else`, a struct
//! field named `expect`, or an `Instant` stored in a struct never
//! match.

use crate::lexer::{Line, ScannedFile};
use crate::{FileKind, Finding};

/// Rule: `HashMap`/`HashSet` in result-affecting code.
pub const HASH_COLLECTION: &str = "hash-collection";
/// Rule: `Instant::now`/`SystemTime::now` in result-affecting code.
pub const WALL_CLOCK: &str = "wall-clock";
/// Rule: `.unwrap()`/`.expect()`/`panic!` in non-test library code.
pub const PANIC_HYGIENE: &str = "panic-hygiene";
/// Rule: `unsafe` outside the allowlist.
pub const UNSAFE_CODE: &str = "unsafe-code";
/// Rule: the `SimHooks` trait and its no-op/forwarding impls drifted.
pub const HOOK_SEAM: &str = "hook-seam";
/// Rule: thread creation (`spawn`/`channel`) in result-affecting or
/// thread-watched code without an audited allowance.
pub const THREAD_SEAM: &str = "thread-seam";
/// Rule: observability types (loggers, metrics registries, span sheets)
/// reached into the engine's decode/commit paths instead of going
/// through the hook seam.
pub const OBS_SEAM: &str = "obs-seam";
/// Rule: a waiver that no longer suppresses anything.
pub const STALE_WAIVER: &str = "stale-waiver";
/// Rule: a waiver missing its rule list or `reason = "..."`.
pub const MALFORMED_WAIVER: &str = "malformed-waiver";
/// Rule: `lint-baseline.json` carries an entry whose current finding
/// count is zero — the debt was paid but the allowance was not ratcheted.
pub const STALE_BASELINE: &str = "stale-baseline";

/// Every rule the engine knows, in diagnostic order.
pub const ALL_RULES: [&str; 10] = [
    HASH_COLLECTION,
    WALL_CLOCK,
    PANIC_HYGIENE,
    UNSAFE_CODE,
    HOOK_SEAM,
    THREAD_SEAM,
    OBS_SEAM,
    STALE_WAIVER,
    MALFORMED_WAIVER,
    STALE_BASELINE,
];

/// Identifier occurrences in a blanked code line: `(byte_offset, ident)`.
fn idents(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() {
                let c = bytes[i] as char;
                if c.is_ascii_alphanumeric() || c == '_' {
                    i += 1;
                } else {
                    break;
                }
            }
            // A leading digit or `.`-less context check happens at the
            // call sites; here we just need whole-word tokens.
            out.push((start, &code[start..i]));
        } else {
            i += 1;
        }
    }
    out
}

/// The first non-space char before `pos`, if any.
fn char_before(code: &str, pos: usize) -> Option<char> {
    code[..pos].chars().rev().find(|c| !c.is_whitespace())
}

/// The first non-space char at or after `pos`, if any.
fn char_after(code: &str, pos: usize) -> Option<char> {
    code[pos..].chars().find(|c| !c.is_whitespace())
}

/// Does `::now` follow the identifier ending at `end`?
fn followed_by_now(code: &str, end: usize) -> bool {
    let rest: String = code[end..].chars().filter(|c| !c.is_whitespace()).collect();
    rest.starts_with("::now")
}

/// Does a `::` path separator follow the identifier ending at `end`?
fn followed_by_path_sep(code: &str, end: usize) -> bool {
    let rest: String = code[end..].chars().filter(|c| !c.is_whitespace()).collect();
    rest.starts_with("::")
}

/// Runs the per-line rules over one scanned file.
///
/// `in_test_context` marks whole files that are test collateral
/// (`tests/`, `benches/`, `examples/`); `result_affecting` enables the
/// determinism rules; `unsafe_allowed` disables the unsafe audit for
/// allowlisted files.
pub fn scan_lines(file: &str, scanned: &ScannedFile, kind: &FileKind) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in scanned.lines.iter().enumerate() {
        let lineno = idx as u32 + 1;
        let in_test = kind.test_context || line.in_test;
        if kind.result_affecting && !in_test {
            determinism(file, lineno, line, &mut findings);
        }
        if (kind.result_affecting || kind.thread_watched) && !in_test && !kind.thread_allowed {
            thread_seam(file, lineno, line, kind.result_affecting, &mut findings);
        }
        if kind.obs_banned && !in_test {
            obs_seam(file, lineno, line, &mut findings);
        }
        if !in_test {
            panic_hygiene(file, lineno, line, &mut findings);
        }
        if !kind.unsafe_allowed {
            unsafe_audit(file, lineno, line, &mut findings);
        }
    }
    findings
}

fn determinism(file: &str, lineno: u32, line: &Line, findings: &mut Vec<Finding>) {
    for (pos, ident) in idents(&line.code) {
        match ident {
            "HashMap" | "HashSet" => findings.push(Finding::new(
                HASH_COLLECTION,
                file,
                lineno,
                format!(
                    "`{ident}` in result-affecting code{}: iteration order varies \
                     per process and can reach outputs; use `BTreeMap`/`BTreeSet` \
                     or drain into a sorted Vec",
                    at_item(line)
                ),
            )),
            "Instant" | "SystemTime" if followed_by_now(&line.code, pos + ident.len()) => {
                findings.push(Finding::new(
                    WALL_CLOCK,
                    file,
                    lineno,
                    format!(
                        "`{ident}::now` in result-affecting code{}: wall-clock time \
                         must never feed simulated results; thread timing through \
                         the caller instead",
                        at_item(line)
                    ),
                ));
            }
            _ => {}
        }
    }
}

fn panic_hygiene(file: &str, lineno: u32, line: &Line, findings: &mut Vec<Finding>) {
    for (pos, ident) in idents(&line.code) {
        let end = pos + ident.len();
        let hit = match ident {
            // Only method calls: a preceding `.` and an immediate `(`.
            "unwrap" | "expect" => {
                char_before(&line.code, pos) == Some('.')
                    && char_after(&line.code, end) == Some('(')
            }
            // Only the macro form.
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                char_after(&line.code, end) == Some('!')
            }
            _ => false,
        };
        if hit {
            let call = if matches!(ident, "unwrap" | "expect") {
                format!(".{ident}()")
            } else {
                format!("{ident}!")
            };
            findings.push(Finding::new(
                PANIC_HYGIENE,
                file,
                lineno,
                format!(
                    "`{call}` in library code{}: propagate a typed error instead, \
                     or waive with a reason if the invariant is locally provable",
                    at_item(line)
                ),
            ));
        }
    }
}

/// `thread-seam`: `spawn`/`channel`/`sync_channel` calls in
/// result-affecting or thread-watched code. The simulation engine is
/// single-threaded: every result-visible event is ordered by one commit
/// loop, and a thread created in a result-affecting path can reorder
/// such events with no test to catch it. Thread-watched paths
/// (the serve fleet) carry the same rule so new router/shard channels
/// land on the audit list deliberately. `Mutex`/`Condvar` are
/// deliberately not flagged — blocking primitives don't create
/// concurrency, threads do.
fn thread_seam(
    file: &str,
    lineno: u32,
    line: &Line,
    result_affecting: bool,
    findings: &mut Vec<Finding>,
) {
    for (pos, ident) in idents(&line.code) {
        let end = pos + ident.len();
        let hit = match ident {
            // Method or path calls only: `thread::spawn(`, `scope.spawn(`,
            // `Builder::new().spawn(` — never a local named `spawn`.
            "spawn" => {
                matches!(char_before(&line.code, pos), Some('.' | ':'))
                    && matches!(char_after(&line.code, end), Some('(' | ':'))
            }
            // Path calls, including the turbofish form
            // `mpsc::channel::<T>()`.
            "channel" | "sync_channel" => {
                char_before(&line.code, pos) == Some(':')
                    && matches!(char_after(&line.code, end), Some('(' | ':'))
            }
            _ => false,
        };
        if hit {
            let message = if result_affecting {
                format!(
                    "`{ident}` in result-affecting code{}: result-affecting \
                     code is single-threaded; move the work out of the \
                     result path, or add a `thread_allow` entry with its \
                     audit reason",
                    at_item(line)
                )
            } else {
                format!(
                    "`{ident}` on a thread-watched path{}: the fleet's thread \
                     topology is an audited surface; add a `thread_allow` entry \
                     with its audit reason",
                    at_item(line)
                )
            };
            findings.push(Finding::new(THREAD_SEAM, file, lineno, message));
        }
    }
}

/// `obs-seam`: observability types named inside the engine's
/// decode/commit paths. The engine stays loggable without being able to
/// *see* its observers: every logger, metrics registry, span sheet or
/// timeline reaches it only through the `SimHooks` seam (audited by
/// `hook-seam`), so instrumentation can never perturb — or depend on —
/// result-affecting state. A direct mention of an observability type in a
/// banned path is structural drift even when the call looks harmless.
fn obs_seam(file: &str, lineno: u32, line: &Line, findings: &mut Vec<Finding>) {
    for (pos, ident) in idents(&line.code) {
        let end = pos + ident.len();
        let hit = match ident {
            "ObsHooks" | "Logger" | "MetricsRegistry" | "SpanSheet" | "SpanGuard" | "Timeline" => {
                true
            }
            // Any path into the obs crate, e.g. `obs::log::event_line`.
            "obs" => followed_by_path_sep(&line.code, end),
            _ => false,
        };
        if hit {
            findings.push(Finding::new(
                OBS_SEAM,
                file,
                lineno,
                format!(
                    "`{ident}` inside the engine's decode/commit paths{}: \
                     observability may reach the engine only through the \
                     `SimHooks` seam; move the logging/timing into an observer \
                     (or the caller), or add an `obs_allow` entry with its \
                     audit reason",
                    at_item(line)
                ),
            ));
        }
    }
}

fn unsafe_audit(file: &str, lineno: u32, line: &Line, findings: &mut Vec<Finding>) {
    for (_, ident) in idents(&line.code) {
        if ident == "unsafe" {
            findings.push(Finding::new(
                UNSAFE_CODE,
                file,
                lineno,
                format!(
                    "`unsafe` outside the allowlist{}: the workspace is 100% safe \
                     Rust; add the file to `unsafe_allow` only with an audit note",
                    at_item(line)
                ),
            ));
        }
    }
}

fn at_item(line: &Line) -> String {
    if line.item_path.is_empty() {
        String::new()
    } else {
        format!(" (in `{}`)", line.item_path)
    }
}

// ---------------------------------------------------------------------------
// hook-seam: structural check of the SimHooks trait and its impls.
// ---------------------------------------------------------------------------

/// How an impl is expected to relate to the seam trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeamKind {
    /// May be empty only while every trait method has a default body;
    /// must otherwise spell out the defaultless methods.
    NoOp,
    /// Must override (forward) every trait method, or events are
    /// silently dropped for the methods it misses.
    Forwarding,
}

/// One impl the seam rule audits.
#[derive(Debug, Clone)]
pub struct SeamImpl {
    /// Workspace-relative file holding the impl.
    pub file: String,
    /// Substring that identifies the impl header line, e.g. `for NullHooks`.
    pub marker: String,
    /// Human name used in diagnostics, e.g. `NullHooks`.
    pub name: String,
    /// No-op or forwarding expectation.
    pub kind: SeamKind,
}

/// The seam contract: a trait plus the impls that must track it.
#[derive(Debug, Clone)]
pub struct SeamSpec {
    /// Workspace-relative file declaring the trait.
    pub trait_file: String,
    /// Trait name, e.g. `SimHooks`.
    pub trait_name: String,
    /// The audited impls.
    pub impls: Vec<SeamImpl>,
}

/// A trait method as parsed from source.
#[derive(Debug, Clone)]
pub struct TraitMethod {
    /// Method name.
    pub name: String,
    /// Whether the trait declares a default body for it.
    pub has_default: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// Extracts the brace-delimited region that starts at the first `{` at or
/// after (`start_line`, `start_col`), as `(text, first_line)` where lines
/// are joined with `\n`.
fn brace_region(lines: &[Line], start_line: usize, start_col: usize) -> Option<(String, usize)> {
    let mut depth = 0i32;
    let mut started = false;
    let mut text = String::new();
    for (li, line) in lines.iter().enumerate().skip(start_line) {
        let skip = if li == start_line { start_col } else { 0 };
        for c in line.code.chars().skip(skip) {
            if !started {
                if c == '{' {
                    started = true;
                    depth = 1;
                }
                continue;
            }
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((text, start_line));
                    }
                }
                _ => {}
            }
            text.push(c);
        }
        if started {
            text.push('\n');
        }
    }
    None
}

/// Parses the methods of `trait_name` from a scanned file.
pub fn parse_trait_methods(scanned: &ScannedFile, trait_name: &str) -> Option<Vec<TraitMethod>> {
    let decl = format!("trait {trait_name}");
    let (li, col) = find_marker(&scanned.lines, &decl)?;
    let (region, first_line) = brace_region(&scanned.lines, li, col)?;
    Some(methods_in_region(&region, first_line, true))
}

/// Parses the overridden method names of the impl identified by `marker`.
pub fn parse_impl_methods(
    scanned: &ScannedFile,
    trait_name: &str,
    marker: &str,
) -> Option<(Vec<String>, u32)> {
    for (mi, line) in scanned.lines.iter().enumerate() {
        if line.in_test || !line.code.contains(marker) {
            continue;
        }
        // The `impl` keyword may sit a couple of lines above the marker
        // when rustfmt wraps the header. Scan back for it and require the
        // trait name somewhere in the joined header.
        let start = (mi.saturating_sub(3)..=mi).rev().find(|&k| {
            idents(&scanned.lines[k].code)
                .iter()
                .any(|(_, id)| *id == "impl")
        });
        let Some(start) = start else { continue };
        let header: String = scanned.lines[start..=mi]
            .iter()
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        if !header.contains(trait_name) {
            continue;
        }
        let (region, first_line) = brace_region(&scanned.lines, start, 0)?;
        let methods = methods_in_region(&region, first_line, false)
            .into_iter()
            .map(|m| m.name)
            .collect();
        return Some((methods, start as u32 + 1));
    }
    None
}

/// Finds the first line containing `marker` outside test regions, as
/// `(line_index, column_after_marker)`.
fn find_marker(lines: &[Line], marker: &str) -> Option<(usize, usize)> {
    lines.iter().enumerate().find_map(|(li, line)| {
        if line.in_test {
            return None;
        }
        line.code.find(marker).map(|col| (li, col + marker.len()))
    })
}

/// Lists `fn` items at depth 0 of a brace region. With `want_defaults`,
/// also records whether each has a body (`{` before the terminating `;`).
fn methods_in_region(region: &str, first_line: usize, want_defaults: bool) -> Vec<TraitMethod> {
    let mut out: Vec<TraitMethod> = Vec::new();
    let mut depth = 0i32;
    let mut paren = 0i32;
    let mut prev_fn = false;
    // (line, char) walk so method lines are reportable.
    let mut lineno = first_line + 1; // 1-based; region starts on its line
    let chars: Vec<char> = region.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => lineno += 1,
            '(' => paren += 1,
            ')' => paren -= 1,
            '{' => {
                if depth == 0 && paren == 0 {
                    if let Some(last) = out.last_mut() {
                        if want_defaults && !last.has_default {
                            last.has_default = true;
                        }
                    }
                }
                depth += 1;
            }
            '}' => depth -= 1,
            _ if (c.is_alphabetic() || c == '_') && depth == 0 => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let ident: String = chars[start..i].iter().collect();
                if prev_fn {
                    out.push(TraitMethod {
                        name: ident.clone(),
                        has_default: false,
                        line: lineno as u32,
                    });
                }
                prev_fn = ident == "fn";
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Checks the seam contract against parsed trait methods and impls.
///
/// `lookup` resolves a workspace-relative file path to its scan; returning
/// `None` reports the file itself as a seam finding (the contract names a
/// file that no longer exists — config drift is drift too).
pub fn check_seam<'a>(
    spec: &SeamSpec,
    lookup: impl Fn(&str) -> Option<&'a ScannedFile>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(trait_file) = lookup(&spec.trait_file) else {
        findings.push(Finding::new(
            HOOK_SEAM,
            &spec.trait_file,
            1,
            format!(
                "seam trait file not found while checking `{}`",
                spec.trait_name
            ),
        ));
        return findings;
    };
    let Some(methods) = parse_trait_methods(trait_file, &spec.trait_name) else {
        findings.push(Finding::new(
            HOOK_SEAM,
            &spec.trait_file,
            1,
            format!("trait `{}` not found in its declared file", spec.trait_name),
        ));
        return findings;
    };

    for im in &spec.impls {
        let Some(scanned) = lookup(&im.file) else {
            findings.push(Finding::new(
                HOOK_SEAM,
                &im.file,
                1,
                format!("seam impl file for `{}` not found", im.name),
            ));
            continue;
        };
        let Some((overridden, impl_line)) =
            parse_impl_methods(scanned, &spec.trait_name, &im.marker)
        else {
            findings.push(Finding::new(
                HOOK_SEAM,
                &im.file,
                1,
                format!(
                    "`impl {} for {}` not found (marker `{}`)",
                    spec.trait_name, im.name, im.marker
                ),
            ));
            continue;
        };
        for m in &methods {
            let present = overridden.iter().any(|o| o == &m.name);
            let required = match im.kind {
                SeamKind::Forwarding => true,
                SeamKind::NoOp => !m.has_default,
            };
            if required && !present {
                let verb = match im.kind {
                    SeamKind::Forwarding => "does not forward",
                    SeamKind::NoOp => "has no no-op for defaultless method",
                };
                findings.push(Finding::new(
                    HOOK_SEAM,
                    &im.file,
                    impl_line,
                    format!(
                        "`{}` {verb} `{}::{}`; events for it would be silently \
                         dropped — add the method to the impl",
                        im.name, spec.trait_name, m.name
                    ),
                ));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn kinds() -> FileKind {
        FileKind {
            test_context: false,
            result_affecting: true,
            thread_watched: false,
            unsafe_allowed: false,
            thread_allowed: false,
            obs_banned: false,
        }
    }

    #[test]
    fn all_rules_lists_exactly_the_rules_the_engine_emits() {
        assert_eq!(
            ALL_RULES,
            [
                "hash-collection",
                "wall-clock",
                "panic-hygiene",
                "unsafe-code",
                "hook-seam",
                "thread-seam",
                "obs-seam",
                "stale-waiver",
                "malformed-waiver",
                "stale-baseline",
            ]
        );
    }

    #[test]
    fn unwrap_matches_only_method_calls() {
        let f = scan("let a = x.unwrap();\nlet b = x.unwrap_or(0);\nlet c = unwrap(x);\nlet d = x.expect(\"m\");\nlet e = expected;\n");
        let fs = scan_lines("f.rs", &f, &kinds());
        let panics: Vec<u32> = fs
            .iter()
            .filter(|f| f.rule == PANIC_HYGIENE)
            .map(|f| f.line)
            .collect();
        assert_eq!(panics, vec![1, 4]);
    }

    #[test]
    fn panic_macros_match() {
        let f = scan("panic!(\"boom\");\nunreachable!();\nlet panic_level = 3;\n");
        let fs = scan_lines("f.rs", &f, &kinds());
        let panics: Vec<u32> = fs
            .iter()
            .filter(|f| f.rule == PANIC_HYGIENE)
            .map(|f| f.line)
            .collect();
        assert_eq!(panics, vec![1, 2]);
    }

    #[test]
    fn wall_clock_requires_now() {
        let f = scan("let t = Instant::now();\nlet d: Instant = t;\nlet s = SystemTime::now();\n");
        let fs = scan_lines("f.rs", &f, &kinds());
        let clocks: Vec<u32> = fs
            .iter()
            .filter(|f| f.rule == WALL_CLOCK)
            .map(|f| f.line)
            .collect();
        assert_eq!(clocks, vec![1, 3]);
    }

    #[test]
    fn hash_rule_respects_result_affecting_flag() {
        let src = "use std::collections::HashMap;\n";
        let f = scan(src);
        let hit = scan_lines("f.rs", &f, &kinds());
        assert_eq!(hit.iter().filter(|f| f.rule == HASH_COLLECTION).count(), 1);
        let quiet_kind = FileKind {
            result_affecting: false,
            ..kinds()
        };
        let quiet = scan_lines("f.rs", &f, &quiet_kind);
        assert_eq!(
            quiet.iter().filter(|f| f.rule == HASH_COLLECTION).count(),
            0
        );
    }

    #[test]
    fn thread_seam_matches_calls_but_not_traps() {
        let f = scan(concat!(
            "let h = std::thread::spawn(|| 1);\n",         // 1: hit
            "scope.spawn(move || work());\n",              // 2: hit
            "let (tx, rx) = mpsc::channel::<u32>();\n",    // 3: hit (turbofish)
            "let (tx, rx) = mpsc::sync_channel(4);\n",     // 4: hit
            "let spawn = 3; let respawned = spawn + 1;\n", // 5: plain idents
            "let c = self.channel;\n",                     // 6: field access
            "// thread::spawn in a comment\n",             // 7: comment
            "let s = \"thread::spawn in a string\";\n",    // 8: string
        ));
        let fs = scan_lines("f.rs", &f, &kinds());
        let hits: Vec<u32> = fs
            .iter()
            .filter(|f| f.rule == THREAD_SEAM)
            .map(|f| f.line)
            .collect();
        assert_eq!(hits, vec![1, 2, 3, 4]);
    }

    #[test]
    fn thread_seam_respects_allowance_and_result_flag() {
        let f = scan("std::thread::spawn(|| 1);\n");
        let allowed = FileKind {
            thread_allowed: true,
            ..kinds()
        };
        assert!(scan_lines("f.rs", &f, &allowed)
            .iter()
            .all(|f| f.rule != THREAD_SEAM));
        let orchestration = FileKind {
            result_affecting: false,
            ..kinds()
        };
        assert!(scan_lines("f.rs", &f, &orchestration)
            .iter()
            .all(|f| f.rule != THREAD_SEAM));
    }

    #[test]
    fn thread_watch_fires_the_seam_rule_without_determinism_rules() {
        let f = scan(concat!(
            "use std::collections::HashMap;\n",
            "let t = Instant::now();\n",
            "let h = std::thread::spawn(|| 1);\n",
        ));
        let watched = FileKind {
            result_affecting: false,
            thread_watched: true,
            ..kinds()
        };
        let fs = scan_lines("f.rs", &f, &watched);
        let seams: Vec<u32> = fs
            .iter()
            .filter(|f| f.rule == THREAD_SEAM)
            .map(|f| f.line)
            .collect();
        assert_eq!(seams, vec![3], "only the spawn fires");
        assert!(
            fs.iter()
                .all(|f| f.rule != HASH_COLLECTION && f.rule != WALL_CLOCK),
            "watched paths keep their clocks and hash maps: {fs:?}"
        );
        assert!(
            fs.iter()
                .any(|f| f.rule == THREAD_SEAM && f.message.contains("thread-watched path")),
            "the steer names the watch, not result-affecting code"
        );
        let allowed = FileKind {
            thread_allowed: true,
            ..watched
        };
        assert!(
            scan_lines("f.rs", &f, &allowed)
                .iter()
                .all(|f| f.rule != THREAD_SEAM),
            "an audited allowance silences the watch"
        );
    }

    #[test]
    fn obs_seam_matches_types_and_crate_paths_only_when_banned() {
        let f = scan(concat!(
            "let sheet = SpanSheet::default();\n",         // 1: hit (type)
            "let line = obs::log::event_line(l, e, m);\n", // 2: hit (obs::)
            "let g = registry.observe(\"x\", 1);\n",       // 3: plain ident
            "let observer = 3;\n",                         // 4: prefix only
            "// a Logger mentioned in a comment\n",        // 5: comment
            "fn takes(r: &mut MetricsRegistry) {}\n",      // 6: hit (type)
        ));
        let banned = FileKind {
            obs_banned: true,
            ..kinds()
        };
        let hits: Vec<u32> = scan_lines("f.rs", &f, &banned)
            .iter()
            .filter(|f| f.rule == OBS_SEAM)
            .map(|f| f.line)
            .collect();
        assert_eq!(hits, vec![1, 2, 6]);
        assert!(
            scan_lines("f.rs", &f, &kinds())
                .iter()
                .all(|f| f.rule != OBS_SEAM),
            "without the ban the rule stays silent"
        );
    }

    #[test]
    fn trait_parse_sees_defaults() {
        let src = "pub trait Hooks {\n    fn a(&mut self) {}\n    fn b(&mut self);\n    fn c(&mut self, x: u32) { let _ = x; }\n}\n";
        let methods = parse_trait_methods(&scan(src), "Hooks").expect("trait found");
        let view: Vec<(&str, bool)> = methods
            .iter()
            .map(|m| (m.name.as_str(), m.has_default))
            .collect();
        assert_eq!(view, vec![("a", true), ("b", false), ("c", true)]);
    }

    #[test]
    fn impl_parse_lists_overrides() {
        let src = "impl Hooks for Null {}\nimpl<H: Hooks> Hooks for Option<H> {\n    fn a(&mut self) { if let Some(h) = self { h.a(); } }\n}\n";
        let scanned = scan(src);
        let (null_m, _) = parse_impl_methods(&scanned, "Hooks", "for Null").expect("impl");
        assert!(null_m.is_empty());
        let (opt_m, line) = parse_impl_methods(&scanned, "Hooks", "for Option<H>").expect("impl");
        assert_eq!(opt_m, vec!["a"]);
        assert_eq!(line, 2);
    }

    #[test]
    fn seam_catches_missing_forward_and_missing_noop() {
        let trait_src = "pub trait Hooks {\n    fn a(&mut self) {}\n    fn b(&mut self);\n}\nimpl Hooks for Null {}\nimpl Hooks for Fwd {\n    fn a(&mut self) {}\n}\n";
        let scanned = scan(trait_src);
        let spec = SeamSpec {
            trait_file: "hooks.rs".into(),
            trait_name: "Hooks".into(),
            impls: vec![
                SeamImpl {
                    file: "hooks.rs".into(),
                    marker: "for Null".into(),
                    name: "Null".into(),
                    kind: SeamKind::NoOp,
                },
                SeamImpl {
                    file: "hooks.rs".into(),
                    marker: "for Fwd".into(),
                    name: "Fwd".into(),
                    kind: SeamKind::Forwarding,
                },
            ],
        };
        let findings = check_seam(&spec, |f| (f == "hooks.rs").then_some(&scanned));
        // Null is missing defaultless `b`; Fwd is missing `b` too (forwards
        // must cover everything).
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == HOOK_SEAM));
        assert!(findings.iter().any(|f| f.message.contains("`Null`")));
        assert!(findings.iter().any(|f| f.message.contains("`Fwd`")));
    }
}
