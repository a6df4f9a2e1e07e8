//! `zatel-lint`: a dependency-free static-analysis pass for the Zatel
//! workspace.
//!
//! Zatel's headline results rest on bit-identical reproducibility: the
//! serial-vs-parallel identity tests, the FNV1a stage fingerprints and the
//! byte-identical warm-cache sweeps all silently break if a result-affecting
//! path iterates a `HashMap` or reads a wall clock. This crate machine-checks
//! those invariants, plus panic hygiene, the `SimHooks` observability seam
//! and an unsafe-code audit, without any external dependency (the build is
//! fully offline — no `syn`, no clippy plugins).
//!
//! The analysis is a line-oriented scan over a comment/string-blanked view
//! of each source file (see [`lexer`]), with project rules in [`rules`].
//! Findings can be suppressed three ways, each visible in review:
//!
//! * an inline waiver `// zatel-lint: allow(rule, reason = "...")` on the
//!   offending line or the line above — waivers that stop matching become
//!   `stale-waiver` findings themselves;
//! * the baseline file (`lint-baseline.json`), a per-(rule, file) count
//!   ratchet for pre-existing debt: up to the recorded count is tolerated,
//!   one more finding surfaces the whole group;
//! * for `unsafe-code` only, the config allowlist.
//!
//! ```
//! use zatel_lint::{lexer, rules, FileKind};
//!
//! let scanned = lexer::scan("fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
//! let kind = FileKind {
//!     test_context: false,
//!     result_affecting: false,
//!     thread_watched: false,
//!     unsafe_allowed: false,
//!     thread_allowed: false,
//!     obs_banned: false,
//! };
//! let findings = rules::scan_lines("f.rs", &scanned, &kind);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "panic-hygiene");
//! ```

#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use minijson::{Map, ToJson, Value};
use rules::{SeamImpl, SeamKind, SeamSpec};

/// How the engine treats a file, derived from its path and the config.
#[derive(Debug, Clone)]
pub struct FileKind {
    /// The whole file is test collateral (`tests/`, `benches/`,
    /// `examples/`): panic-hygiene and determinism rules are off.
    pub test_context: bool,
    /// The file is in a result-affecting path: determinism rules are on.
    pub result_affecting: bool,
    /// The file is on a thread-watched path: the `thread-seam` rule
    /// applies even though the determinism rules do not, so every thread
    /// or channel the file creates needs an audited `thread_allow` entry
    /// (or an inline waiver) naming why it cannot reorder result-visible
    /// events.
    pub thread_watched: bool,
    /// The file is on the unsafe allowlist.
    pub unsafe_allowed: bool,
    /// The file is on the thread allow-list: an audited seam that may
    /// create threads despite being result-affecting.
    pub thread_allowed: bool,
    /// Observability types (loggers, registries, span sheets) are banned
    /// in this file: it is an engine decode/commit path that may be
    /// observed only through the hook seam.
    pub obs_banned: bool,
}

/// One audited exception to the `thread-seam` rule: a result-affecting
/// file reviewed to create threads without being able to reorder
/// result-visible events, with the review reason on record.
#[derive(Debug, Clone)]
pub struct ThreadAllowance {
    /// Workspace-relative file path.
    pub path: String,
    /// Why the file may create threads — shown in config review, never
    /// empty.
    pub reason: String,
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `hash-collection`.
    pub rule: String,
    /// Workspace-relative file path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-oriented explanation with the steer.
    pub message: String,
}

impl Finding {
    /// Builds a finding; `rule` and `file` are borrowed for call-site
    /// brevity.
    pub fn new(rule: &str, file: &str, line: u32, message: impl Into<String>) -> Self {
        Finding {
            rule: rule.to_owned(),
            file: file.to_owned(),
            line,
            message: message.into(),
        }
    }

    /// `file:line: [rule] message` — the text diagnostic form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl ToJson for Finding {
    fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("rule".to_owned(), Value::from(self.rule.as_str()));
        m.insert("file".to_owned(), Value::from(self.file.as_str()));
        m.insert("line".to_owned(), Value::from(self.line));
        m.insert("message".to_owned(), Value::from(self.message.as_str()));
        Value::Object(m)
    }
}

/// Engine configuration. [`LintConfig::zatel_workspace`] builds the one
/// the workspace gate uses; fixtures build narrower ones.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root; all reported paths are relative to it.
    pub root: PathBuf,
    /// Directories under the root to scan (recursively).
    pub scan_dirs: Vec<String>,
    /// Path prefixes (files or directories) where the determinism rules
    /// apply.
    pub result_affecting: Vec<String>,
    /// Path prefixes where only the `thread-seam` rule applies: code
    /// that is not result-affecting but whose thread topology is an
    /// audited surface (e.g. the serve fleet's router/shard channels).
    /// Every seam there must carry a `thread_allow` entry or waiver.
    pub thread_watch: Vec<String>,
    /// Files allowed to contain `unsafe`.
    pub unsafe_allow: Vec<String>,
    /// Result-affecting files audited to create threads (the
    /// `thread-seam` rule), each with its review reason.
    pub thread_allow: Vec<ThreadAllowance>,
    /// Path prefixes where naming observability types is banned (the
    /// `obs-seam` rule): engine decode/commit paths that may be observed
    /// only through the hook seam.
    pub obs_ban: Vec<String>,
    /// Exact files exempt from `obs_ban` — the audited hook-seam bridge
    /// files themselves.
    pub obs_allow: Vec<String>,
    /// The observability-seam contract to audit, if any.
    pub seam: Option<SeamSpec>,
}

impl LintConfig {
    /// The gate configuration for this repository.
    ///
    /// Result-affecting paths are the crates whose behaviour reaches
    /// simulated statistics: all of `rtcore`, `gpusim` and `rtworkload`,
    /// plus the prediction-pipeline stages of `zatel` (heatmap →
    /// quantize → partition → select → stages → extrapolate and their
    /// shared metrics) and `sim_executor.rs`, the one file where the
    /// result path forks threads and reads a clock. `pipeline.rs`/`sweep.rs`
    /// orchestrate and time those stages — wall-clock use there is
    /// measurement, not results — so they carry only the panic-hygiene and
    /// unsafe rules.
    pub fn zatel_workspace(root: impl Into<PathBuf>) -> Self {
        let affect = |s: &str| s.to_owned();
        LintConfig {
            root: root.into(),
            scan_dirs: vec![
                "crates".to_owned(),
                "src".to_owned(),
                "tests".to_owned(),
                "examples".to_owned(),
            ],
            result_affecting: [
                "crates/rtcore/src",
                "crates/gpusim/src",
                "crates/rtworkload/src",
                "crates/zatel/src/heatmap.rs",
                "crates/zatel/src/quantize.rs",
                "crates/zatel/src/partition.rs",
                "crates/zatel/src/select.rs",
                "crates/zatel/src/stages.rs",
                "crates/zatel/src/extrapolate.rs",
                "crates/zatel/src/metrics.rs",
                "crates/zatel/src/sim_executor.rs",
            ]
            .iter()
            .map(|s| affect(s))
            .collect(),
            // The serve crate's signal handler registers itself through
            // the libc `signal()` already linked by std — the one unsafe
            // block the workspace accepts (audited in-file).
            unsafe_allow: vec!["crates/serve/src/signal.rs".to_owned()],
            // The whole engine crate is an obs-free zone: the decoder,
            // the commit loop and the cores may be observed only through
            // the SimHooks seam. hooks.rs is the seam itself.
            obs_ban: vec!["crates/gpusim/src".to_owned()],
            obs_allow: vec!["crates/gpusim/src/hooks.rs".to_owned()],
            // The serve crate is thread-watched rather than
            // result-affecting: wall clocks and hash maps there are
            // measurement, but its thread topology (routers, shard
            // workers) is the fleet's correctness surface, so every seam
            // must be on the audit list below.
            thread_watch: vec!["crates/serve/src".to_owned()],
            thread_allow: vec![
                ThreadAllowance {
                    path: "crates/serve/src/server.rs".to_owned(),
                    reason: "the fleet topology seam: the accept loop, router \
                             threads, admission-refusal writers and shard workers \
                             all live here; requests route by affinity fingerprint \
                             and execute on exactly one shard, so thread count \
                             never reaches a response's deterministic subset — \
                             pinned by the shard-count and dedup identity tests"
                        .to_owned(),
                },
                ThreadAllowance {
                    path: "crates/zatel/src/sim_executor.rs".to_owned(),
                    reason: "the `--jobs` pool: scoped workers claim disjoint \
                             job indices from one cursor and every result lands \
                             in its input slot before the scope joins, so worker \
                             count and claim order never reach the output — \
                             pinned by the serial/parallel and map/map_timed \
                             identity tests"
                        .to_owned(),
                },
            ],
            seam: Some(SeamSpec {
                trait_file: "crates/gpusim/src/hooks.rs".to_owned(),
                trait_name: "SimHooks".to_owned(),
                impls: vec![
                    SeamImpl {
                        file: "crates/gpusim/src/hooks.rs".to_owned(),
                        marker: "for NullHooks".to_owned(),
                        name: "NullHooks".to_owned(),
                        kind: SeamKind::NoOp,
                    },
                    SeamImpl {
                        file: "crates/gpusim/src/hooks.rs".to_owned(),
                        marker: "for Option<H>".to_owned(),
                        name: "Option<H>".to_owned(),
                        kind: SeamKind::Forwarding,
                    },
                    SeamImpl {
                        file: "crates/gpusim/src/hooks.rs".to_owned(),
                        marker: "for (A, B)".to_owned(),
                        name: "(A, B)".to_owned(),
                        kind: SeamKind::Forwarding,
                    },
                    SeamImpl {
                        file: "crates/obs/src/hooks.rs".to_owned(),
                        marker: "for ObsHooks".to_owned(),
                        name: "ObsHooks".to_owned(),
                        kind: SeamKind::Forwarding,
                    },
                ],
            }),
        }
    }

    /// Classifies one workspace-relative path.
    pub(crate) fn kind_of(&self, rel: &str) -> FileKind {
        let test_context = rel
            .split('/')
            .any(|c| matches!(c, "tests" | "benches" | "examples" | "fixtures"));
        let result_affecting = self
            .result_affecting
            .iter()
            .any(|p| rel == p || rel.starts_with(&format!("{p}/")));
        let thread_watched = self
            .thread_watch
            .iter()
            .any(|p| rel == p || rel.starts_with(&format!("{p}/")));
        let unsafe_allowed = self.unsafe_allow.iter().any(|p| p == rel);
        let thread_allowed = self
            .thread_allow
            .iter()
            .any(|a| a.path == rel && !a.reason.trim().is_empty());
        let obs_banned = self
            .obs_ban
            .iter()
            .any(|p| rel == p || rel.starts_with(&format!("{p}/")))
            && !self.obs_allow.iter().any(|p| p == rel);
        FileKind {
            test_context,
            result_affecting,
            thread_watched,
            unsafe_allowed,
            thread_allowed,
            obs_banned,
        }
    }
}

/// IO failure while linting. (The engine itself never fails.)
#[derive(Debug)]
pub struct LintError {
    /// The file or directory involved.
    pub path: PathBuf,
    /// The underlying IO error text.
    pub message: String,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for LintError {}

fn io_err(path: &Path, e: std::io::Error) -> LintError {
    LintError {
        path: path.to_owned(),
        message: e.to_string(),
    }
}

/// What one engine run produced.
#[derive(Debug)]
pub struct LintReport {
    /// Active findings after waivers and baseline, sorted by
    /// (file, line, rule).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by inline waivers.
    pub waived: usize,
    /// Findings suppressed by the baseline ratchet.
    pub baselined: usize,
}

impl LintReport {
    /// JSON diagnostics document (`zatel-lint-v1`).
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("format".to_owned(), Value::from("zatel-lint-v1"));
        m.insert(
            "findings".to_owned(),
            Value::Array(self.findings.iter().map(ToJson::to_json).collect()),
        );
        let mut s = Map::new();
        s.insert(
            "files_scanned".to_owned(),
            Value::from(self.files_scanned as u64),
        );
        s.insert(
            "findings".to_owned(),
            Value::from(self.findings.len() as u64),
        );
        s.insert("waived".to_owned(), Value::from(self.waived as u64));
        s.insert("baselined".to_owned(), Value::from(self.baselined as u64));
        m.insert("summary".to_owned(), Value::Object(s));
        Value::Object(m)
    }
}

/// The per-(rule, file) count ratchet for pre-existing debt.
///
/// A group with at most the recorded count is suppressed wholesale; one
/// finding over the count surfaces the entire group, so new debt can't
/// hide behind old debt and fixing sites naturally ratchets the allowance
/// down (via `--write-baseline`).
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    entries: BTreeMap<(String, String), u32>,
}

impl Baseline {
    /// Empty baseline: everything is active.
    pub fn empty() -> Self {
        Baseline::default()
    }

    /// Builds a baseline that exactly covers `findings`.
    pub fn from_findings(findings: &[Finding]) -> Self {
        let mut entries: BTreeMap<(String, String), u32> = BTreeMap::new();
        for f in findings {
            *entries.entry((f.rule.clone(), f.file.clone())).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Parses the `lint-baseline.json` document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        let entries_v = v
            .get("entries")
            .and_then(Value::as_array)
            .ok_or("baseline: missing `entries` array")?;
        let mut entries = BTreeMap::new();
        for e in entries_v {
            let rule = e
                .get("rule")
                .and_then(Value::as_str)
                .ok_or("baseline entry: missing `rule`")?;
            let file = e
                .get("file")
                .and_then(Value::as_str)
                .ok_or("baseline entry: missing `file`")?;
            let count = e
                .get("count")
                .and_then(Value::as_u64)
                .ok_or("baseline entry: missing `count`")?;
            entries.insert((rule.to_owned(), file.to_owned()), count as u32);
        }
        Ok(Baseline { entries })
    }

    /// Serializes back to the on-disk document.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("version".to_owned(), Value::from(1u64));
        let entries = self
            .entries
            .iter()
            .map(|((rule, file), count)| {
                let mut e = Map::new();
                e.insert("rule".to_owned(), Value::from(rule.as_str()));
                e.insert("file".to_owned(), Value::from(file.as_str()));
                e.insert("count".to_owned(), Value::from(u64::from(*count)));
                Value::Object(e)
            })
            .collect();
        m.insert("entries".to_owned(), Value::Array(entries));
        Value::Object(m)
    }

    /// Number of (rule, file) groups recorded.
    pub fn groups(&self) -> usize {
        self.entries.len()
    }

    /// The `(rule, file)` groups recorded here that no current finding
    /// matches — paid-down debt whose allowance should be deleted before
    /// new debt hides under it (the `stale-baseline` ratchet).
    pub fn stale_groups(&self, findings: &[Finding]) -> Vec<(String, String)> {
        self.entries
            .keys()
            .filter(|(rule, file)| !findings.iter().any(|f| &f.rule == rule && &f.file == file))
            .cloned()
            .collect()
    }

    /// Splits findings into (active, suppressed-count) under the ratchet.
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, usize) {
        let mut grouped: BTreeMap<(String, String), Vec<Finding>> = BTreeMap::new();
        for f in findings {
            grouped
                .entry((f.rule.clone(), f.file.clone()))
                .or_default()
                .push(f);
        }
        let mut active = Vec::new();
        let mut suppressed = 0usize;
        for (key, group) in grouped {
            let allowed = self.entries.get(&key).copied().unwrap_or(0) as usize;
            if group.len() <= allowed {
                suppressed += group.len();
            } else {
                active.extend(group);
            }
        }
        (active, suppressed)
    }
}

/// Recursively collects `.rs` files under `dir`, sorted, as
/// workspace-relative `/`-joined paths. Skips `target`, `vendor`, VCS
/// metadata and `fixtures` trees (fixtures contain deliberate
/// violations for the lint's own tests).
fn collect_rs_files(root: &Path, rel_dir: &str, out: &mut Vec<String>) -> Result<(), LintError> {
    let dir = root.join(rel_dir);
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| io_err(&dir, e))?
        .collect::<Result<_, _>>()
        .map_err(|e| io_err(&dir, e))?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = if rel_dir.is_empty() {
            name.to_string()
        } else {
            format!("{rel_dir}/{name}")
        };
        let path = entry.path();
        if path.is_dir() {
            if matches!(
                &*name,
                "target" | "vendor" | ".git" | "fixtures" | "node_modules"
            ) {
                continue;
            }
            collect_rs_files(root, &rel, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Runs the engine over the configured tree.
///
/// `baseline` is applied last, after inline waivers; pass
/// [`Baseline::empty`] to see everything.
pub fn run(config: &LintConfig, baseline: &Baseline) -> Result<LintReport, LintError> {
    let mut files = Vec::new();
    for dir in &config.scan_dirs {
        collect_rs_files(&config.root, dir, &mut files)?;
    }
    files.dedup();

    // Scan every file once; the seam check needs random access by path.
    let mut scanned: BTreeMap<String, lexer::ScannedFile> = BTreeMap::new();
    for rel in &files {
        let path = config.root.join(rel);
        let source = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        scanned.insert(rel.clone(), lexer::scan(&source));
    }

    let mut findings = Vec::new();
    for rel in &files {
        let kind = config.kind_of(rel);
        findings.extend(rules::scan_lines(rel, &scanned[rel], &kind));
    }
    if let Some(seam) = &config.seam {
        findings.extend(rules::check_seam(seam, |f| scanned.get(f)));
    }

    // Inline waivers: a well-formed waiver covers its own line and the
    // next, for the rules it names.
    let mut waived = 0usize;
    let mut kept = Vec::with_capacity(findings.len());
    let mut used: BTreeMap<(String, u32), bool> = BTreeMap::new();
    for (rel, file) in &scanned {
        for w in &file.waivers {
            used.insert((rel.clone(), w.line), false);
        }
    }
    for f in findings {
        let mut suppressed = false;
        if let Some(file) = scanned.get(&f.file) {
            for w in &file.waivers {
                let covers = f.line == w.line || f.line == w.line + 1;
                if covers && w.reason.is_some() && w.rules.iter().any(|r| r == &f.rule) {
                    used.insert((f.file.clone(), w.line), true);
                    suppressed = true;
                }
            }
        }
        if suppressed {
            waived += 1;
        } else {
            kept.push(f);
        }
    }
    let mut findings = kept;

    // Waiver hygiene: malformed waivers and stale waivers are findings.
    for (rel, file) in &scanned {
        for w in &file.waivers {
            if w.rules.is_empty() || w.reason.is_none() {
                findings.push(Finding::new(
                    rules::MALFORMED_WAIVER,
                    rel,
                    w.line,
                    "waiver must be `// zatel-lint: allow(<rule>, reason = \"...\")` \
                     with a non-empty rule and quoted reason",
                ));
            } else if !used[&(rel.clone(), w.line)] {
                findings.push(Finding::new(
                    rules::STALE_WAIVER,
                    rel,
                    w.line,
                    format!(
                        "waiver for `{}` suppresses nothing on this or the next \
                         line; remove it",
                        w.rules.join(", ")
                    ),
                ));
            }
        }
    }

    // Stale-baseline ratchet: an allowance group with zero live findings
    // is paid-down debt — surface it so the baseline shrinks with the
    // fixes (computed before `apply`, reported after it so no baseline
    // entry can suppress the ratchet itself).
    let stale = baseline.stale_groups(&findings);
    let (mut findings, baselined) = baseline.apply(findings);
    for (rule, file) in stale {
        findings.push(Finding::new(
            rules::STALE_BASELINE,
            "lint-baseline.json",
            1,
            format!(
                "baseline entry ({rule}, {file}) matches no current finding; \
                 the debt is paid — delete the entry (or regenerate with \
                 --write-baseline) so new findings cannot hide under it"
            ),
        ));
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });

    Ok(LintReport {
        findings,
        files_scanned: files.len(),
        waived,
        baselined,
    })
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`. Lets the binary run from any subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_owned());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrips_through_json() {
        let findings = vec![
            Finding::new("panic-hygiene", "a.rs", 3, "m"),
            Finding::new("panic-hygiene", "a.rs", 9, "m"),
            Finding::new("unsafe-code", "b.rs", 1, "m"),
        ];
        let b = Baseline::from_findings(&findings);
        let text = b.to_json().pretty();
        let b2 = Baseline::parse(&text).expect("parse back");
        assert_eq!(b2.groups(), 2);
        let (active, suppressed) = b2.apply(findings);
        assert!(active.is_empty());
        assert_eq!(suppressed, 3);
    }

    #[test]
    fn baseline_surfaces_whole_group_when_exceeded() {
        let old = vec![Finding::new("panic-hygiene", "a.rs", 3, "m")];
        let b = Baseline::from_findings(&old);
        let grown = vec![
            Finding::new("panic-hygiene", "a.rs", 3, "m"),
            Finding::new("panic-hygiene", "a.rs", 8, "new one"),
        ];
        let (active, suppressed) = b.apply(grown);
        assert_eq!(active.len(), 2, "old + new both surface");
        assert_eq!(suppressed, 0);
    }

    #[test]
    fn kind_of_matches_prefixes_and_exact_files() {
        let c = LintConfig::zatel_workspace("/does-not-matter");
        assert!(c.kind_of("crates/gpusim/src/engine/sm.rs").result_affecting);
        assert!(c.kind_of("crates/zatel/src/select.rs").result_affecting);
        let pool = c.kind_of("crates/zatel/src/sim_executor.rs");
        assert!(
            pool.result_affecting && pool.thread_allowed,
            "the job pool carries the determinism rules and the one audited spawn"
        );
        for orchestration in ["crates/zatel/src/pipeline.rs", "crates/zatel/src/sweep.rs"] {
            let kind = c.kind_of(orchestration);
            assert!(!kind.result_affecting && !kind.thread_allowed);
        }
        assert!(c.kind_of("crates/gpusim/tests/x.rs").test_context);
        assert!(c.kind_of("examples/quickstart.rs").test_context);
        assert!(!c.kind_of("crates/zatel/src/select.rs").test_context);
    }

    #[test]
    fn thread_watch_covers_serve_without_determinism_rules() {
        let c = LintConfig::zatel_workspace("/does-not-matter");
        let server = c.kind_of("crates/serve/src/server.rs");
        assert!(server.thread_watched);
        assert!(!server.result_affecting, "watched, not result-affecting");
        assert!(server.thread_allowed, "audited seam stays allowed");
        let shard = c.kind_of("crates/serve/src/shard.rs");
        assert!(shard.thread_watched);
        assert!(!shard.thread_allowed, "only listed files get allowances");
        assert!(!c.kind_of("crates/cli/src/main.rs").thread_watched);
        assert!(
            !c.kind_of("crates/gpusim/src/engine/core.rs").thread_watched,
            "result-affecting paths carry the rule already"
        );
    }

    #[test]
    fn obs_ban_covers_the_engine_except_the_hook_seam() {
        let c = LintConfig::zatel_workspace("/does-not-matter");
        assert!(c.kind_of("crates/gpusim/src/engine/core.rs").obs_banned);
        assert!(c.kind_of("crates/gpusim/src/engine/decode.rs").obs_banned);
        assert!(
            !c.kind_of("crates/gpusim/src/hooks.rs").obs_banned,
            "the hook seam itself is the audited bridge"
        );
        assert!(
            !c.kind_of("crates/zatel/src/stages.rs").obs_banned,
            "pipeline orchestration may hold span sheets"
        );
        assert!(!c.kind_of("crates/obs/src/log.rs").obs_banned);
    }

    #[test]
    fn thread_allowance_is_exact_and_needs_a_reason() {
        let mut c = LintConfig::zatel_workspace("/does-not-matter");
        let server = "crates/serve/src/server.rs";
        // The allow-list is the inventory of files that may spawn.
        let allowed: Vec<&str> = c.thread_allow.iter().map(|a| a.path.as_str()).collect();
        assert_eq!(allowed, [server, "crates/zatel/src/sim_executor.rs"]);
        assert!(c.thread_allow.iter().all(|a| !a.reason.trim().is_empty()));
        assert!(c.kind_of(server).thread_allowed);
        assert!(!c.kind_of("crates/serve/src/shard.rs").thread_allowed);
        // The engine is single-threaded: nothing the simulator is built
        // from may hold a thread allowance.
        for single_threaded in ["crates/gpusim", "crates/rtworkload", "crates/rtcore"] {
            assert!(
                !c.thread_allow
                    .iter()
                    .any(|a| a.path.starts_with(single_threaded)),
                "{single_threaded} must stay free of thread seams"
            );
        }
        c.thread_allow[0].reason = "  ".to_owned();
        assert!(
            !c.kind_of(server).thread_allowed,
            "a blank reason must not grant the allowance"
        );
    }

    #[test]
    fn finding_renders_with_span() {
        let f = Finding::new("wall-clock", "crates/x/src/lib.rs", 12, "msg");
        assert_eq!(f.render(), "crates/x/src/lib.rs:12: [wall-clock] msg");
    }
}
