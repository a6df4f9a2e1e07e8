//! Golden tests for the lint engine: a fixture workspace with one of every
//! violation (and every false-positive trap), pinned JSON diagnostics, the
//! seam-drift fixtures, and an end-to-end run of the real binary against a
//! seeded violation.

use std::path::{Path, PathBuf};
use std::process::Command;

use zatel_lint::rules::{check_seam, SeamImpl, SeamKind, SeamSpec};
use zatel_lint::{lexer, run, Baseline, LintConfig};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The fixture-workspace config: `src/core.rs` is result-affecting,
/// `src/watched.rs` is thread-watched, `src/audited.rs` may contain
/// `unsafe`, `src/obs_leak.rs` is an obs-banned engine path, no seam.
fn ws1_config() -> LintConfig {
    LintConfig {
        root: fixture_root("ws1"),
        scan_dirs: vec!["src".to_owned(), "tests".to_owned()],
        result_affecting: vec!["src/core.rs".to_owned()],
        thread_watch: vec!["src/watched.rs".to_owned()],
        unsafe_allow: vec!["src/audited.rs".to_owned()],
        thread_allow: vec![],
        obs_ban: vec!["src/obs_leak.rs".to_owned()],
        obs_allow: vec![],
        seam: None,
    }
}

#[test]
fn fixture_workspace_diagnostics_match_golden_json() {
    let report = run(&ws1_config(), &Baseline::empty()).expect("fixture lint run");
    let got = report.to_json().pretty() + "\n";
    let golden_path = fixture_root("ws1.expected.json");
    if std::env::var_os("ZATEL_LINT_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &got).expect("update golden");
        return;
    }
    let want = std::fs::read_to_string(&golden_path).expect("golden file");
    assert_eq!(
        got,
        want,
        "fixture diagnostics drifted; if intentional, update {}",
        golden_path.display()
    );
}

#[test]
fn fixture_violations_have_expected_spans() {
    let report = run(&ws1_config(), &Baseline::empty()).expect("fixture lint run");
    let spans: Vec<(String, String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.rule.clone(), f.line))
        .collect();
    let has = |file: &str, rule: &str, line: u32| {
        spans
            .iter()
            .any(|(f, r, l)| f == file && r == rule && *l == line)
    };
    assert!(has("src/core.rs", "hash-collection", 4), "use of HashMap");
    assert!(has("src/core.rs", "hash-collection", 8), "HashMap in body");
    assert!(has("src/core.rs", "wall-clock", 12), "Instant::now");
    assert!(has("src/core.rs", "panic-hygiene", 18), "bare unwrap");
    assert!(
        has("src/core.rs", "stale-waiver", 26),
        "waiver with no match"
    );
    assert!(has("src/core.rs", "malformed-waiver", 29), "missing reason");
    assert!(
        has("src/core.rs", "panic-hygiene", 31),
        "a malformed waiver must not suppress"
    );
    assert!(has("src/lib.rs", "unsafe-code", 15), "unsafe block");
    assert!(has("src/lib.rs", "panic-hygiene", 21), "panic! macro");
    assert!(has("src/core.rs", "thread-seam", 43), "thread::spawn");
    assert!(has("src/core.rs", "thread-seam", 44), "mpsc::channel");
    assert!(has("src/watched.rs", "thread-seam", 21), "watched spawn");
    assert!(has("src/watched.rs", "thread-seam", 22), "watched channel");
    assert!(has("src/obs_leak.rs", "obs-seam", 5), "obs:: path");
    assert!(
        has("src/obs_leak.rs", "obs-seam", 8),
        "MetricsRegistry param"
    );
    assert!(has("src/obs_leak.rs", "obs-seam", 9), "SpanGuard call");
    assert!(has("src/obs_leak.rs", "obs-seam", 13), "Timeline + Logger");

    // The traps: strings, comments, doc comments, unwrap_or, cfg(test),
    // test files, the allowlisted unsafe file and the waived unwrap must
    // all stay silent.
    assert!(!spans.iter().any(|(f, ..)| f == "src/audited.rs"));
    assert!(!spans.iter().any(|(f, ..)| f == "tests/integration.rs"));
    assert!(!has("src/core.rs", "panic-hygiene", 23), "waived unwrap");
    assert!(!spans
        .iter()
        .any(|(f, r, _)| f == "src/lib.rs" && r == "hash-collection"));
    let core_hashes = spans
        .iter()
        .filter(|(f, r, _)| f == "src/core.rs" && r == "hash-collection")
        .count();
    assert_eq!(
        core_hashes, 3,
        "use + two body mentions, nothing from traps"
    );
    let core_threads = spans
        .iter()
        .filter(|(f, r, _)| f == "src/core.rs" && r == "thread-seam")
        .count();
    assert_eq!(
        core_threads, 2,
        "spawn + channel, nothing from the thread traps"
    );
    // The watched file: exactly its two seams fire, and the
    // determinism rules stay off despite the HashMap and Instant::now.
    let watched: Vec<&String> = spans
        .iter()
        .filter(|(f, ..)| f == "src/watched.rs")
        .map(|(_, r, _)| r)
        .collect();
    assert_eq!(
        watched.len(),
        2,
        "two seams, no determinism rules: {spans:?}"
    );
    assert!(watched.iter().all(|r| *r == "thread-seam"));
    let obs_leaks = spans
        .iter()
        .filter(|(f, r, _)| f == "src/obs_leak.rs" && r == "obs-seam")
        .count();
    assert_eq!(
        obs_leaks, 6,
        "obs + SpanSheet, registry, guard, timeline + logger; traps silent"
    );
    assert!(
        !has("src/obs_leak.rs", "obs-seam", 18),
        "waived ObsHooks bridge"
    );
    assert!(
        !has("src/obs_leak.rs", "obs-seam", 26),
        "a bare `obs` binding without `::` stays silent"
    );
    assert_eq!(report.waived, 2);
}

#[test]
fn fixture_findings_vanish_under_their_own_baseline() {
    let cfg = ws1_config();
    let first = run(&cfg, &Baseline::empty()).expect("first run");
    assert!(!first.findings.is_empty());
    let baseline = Baseline::from_findings(&first.findings);
    let second = run(&cfg, &baseline).expect("second run");
    assert!(second.findings.is_empty(), "{:?}", second.findings);
    assert_eq!(second.baselined, first.findings.len());
}

fn seam_spec_for(file: &str) -> SeamSpec {
    SeamSpec {
        trait_file: file.to_owned(),
        trait_name: "Hooks".to_owned(),
        impls: vec![
            SeamImpl {
                file: file.to_owned(),
                marker: "for NullHooks".to_owned(),
                name: "NullHooks".to_owned(),
                kind: SeamKind::NoOp,
            },
            SeamImpl {
                file: file.to_owned(),
                marker: "for Fan<A, B>".to_owned(),
                name: "Fan".to_owned(),
                kind: SeamKind::Forwarding,
            },
        ],
    }
}

#[test]
fn seam_rule_is_quiet_on_healthy_seam() {
    let src = std::fs::read_to_string(fixture_root("seam/hooks_ok.rs")).expect("fixture");
    let scanned = lexer::scan(&src);
    let findings = check_seam(&seam_spec_for("hooks_ok.rs"), |f| {
        (f == "hooks_ok.rs").then_some(&scanned)
    });
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn seam_rule_catches_method_added_without_noop_and_missing_forward() {
    let src = std::fs::read_to_string(fixture_root("seam/hooks_drift.rs")).expect("fixture");
    let scanned = lexer::scan(&src);
    let findings = check_seam(&seam_spec_for("hooks_drift.rs"), |f| {
        (f == "hooks_drift.rs").then_some(&scanned)
    });
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`NullHooks`") && f.message.contains("`Hooks::on_b`")),
        "defaultless on_b needs a NullHooks no-op: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`Fan`") && f.message.contains("`Hooks::on_c`")),
        "Fan drops on_c events: {findings:?}"
    );
}

/// End-to-end acceptance check: seed a `HashMap` iteration into a fake
/// `select.rs`, a fresh `unwrap()` into a fake `pipeline.rs` and an
/// unwaived clock read plus a `HashMap` into a fake `sim_executor.rs` under
/// a throwaway root, and the real binary must exit non-zero with correct
/// file:line diagnostics.
#[test]
fn seeded_violations_fail_the_check_with_correct_spans() {
    let root = std::env::temp_dir().join(format!("zatel-lint-seeded-{}", std::process::id()));
    let zsrc = root.join("crates/zatel/src");
    std::fs::create_dir_all(&zsrc).expect("temp tree");
    std::fs::write(
        zsrc.join("select.rs"),
        "use std::collections::HashMap;\n\npub fn f(m: &HashMap<u32, u32>) -> u32 {\n    m.values().sum()\n}\n",
    )
    .expect("seed select.rs");
    std::fs::write(
        zsrc.join("pipeline.rs"),
        "pub fn g(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
    )
    .expect("seed pipeline.rs");
    std::fs::write(
        zsrc.join("sim_executor.rs"),
        "use std::collections::HashMap;\n\npub fn h() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    )
    .expect("seed sim_executor.rs");

    let out = Command::new(env!("CARGO_BIN_EXE_zatel-lint"))
        .args(["--root"])
        .arg(&root)
        .args(["--no-baseline", "--check", "--quiet", "--json", "-"])
        .output()
        .expect("run zatel-lint");
    std::fs::remove_dir_all(&root).ok();

    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded violations must fail --check"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 json");
    let doc = minijson::Value::parse(&stdout).expect("json diagnostics");
    let findings = doc
        .get("findings")
        .and_then(minijson::Value::as_array)
        .expect("findings array");
    let has = |file: &str, rule: &str, line: u64| {
        findings.iter().any(|f| {
            f.get("file").and_then(minijson::Value::as_str) == Some(file)
                && f.get("rule").and_then(minijson::Value::as_str) == Some(rule)
                && f.get("line").and_then(minijson::Value::as_u64) == Some(line)
        })
    };
    assert!(
        has("crates/zatel/src/select.rs", "hash-collection", 1),
        "seeded HashMap use: {stdout}"
    );
    assert!(
        has("crates/zatel/src/select.rs", "hash-collection", 3),
        "seeded HashMap iteration: {stdout}"
    );
    assert!(
        has("crates/zatel/src/pipeline.rs", "panic-hygiene", 2),
        "seeded unwrap: {stdout}"
    );
    assert!(
        has("crates/zatel/src/sim_executor.rs", "hash-collection", 1),
        "seeded HashMap in the job pool: {stdout}"
    );
    assert!(
        has("crates/zatel/src/sim_executor.rs", "wall-clock", 4),
        "seeded unwaived clock read in the job pool: {stdout}"
    );
}

/// The gate itself, as a test: the real workspace with its committed
/// baseline must be clean. Keeps `cargo test` and CI's `lint-gate` job in
/// agreement.
#[test]
fn real_workspace_is_clean_under_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_owned();
    let baseline_text =
        std::fs::read_to_string(root.join("lint-baseline.json")).expect("committed baseline");
    let baseline = Baseline::parse(&baseline_text).expect("baseline parses");
    let report = run(&LintConfig::zatel_workspace(&root), &baseline).expect("workspace run");
    assert!(
        report.findings.is_empty(),
        "workspace has unwaived findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
