//! The `clock-taint` rule: call-graph wall-clock taint.
//!
//! The per-line `wall-clock` rule only sees `Instant::now` written *in* a
//! result-affecting file. This rule closes the indirection hole: a
//! function is **tainted** when it reads a wall clock without an audited
//! waiver, or calls (transitively) a function that does — wherever that
//! function lives. A call site in a result-affecting, non-test function
//! whose callee is tainted is a finding, reported with the full witness
//! chain down to the clock read so the fix site is obvious.
//!
//! Audited `wall-clock` waivers are taint *stops*, not sources: a waived
//! telemetry read (the `sim_executor` job spans) has already been reviewed
//! as result-invisible, and propagating it anyway would make every waiver
//! useless. Direct unwaived reads inside result-affecting files are
//! *not* re-reported here — the per-line rule already owns that site;
//! this rule fires only on calls, which is exactly the granularity the
//! per-line rule cannot see.

use crate::graph::{ConcGraph, Event};
use crate::rules::CLOCK_TAINT;
use crate::{Finding, LintConfig};

/// Why a function is tainted: a direct clock read, or a call into a
/// tainted callee.
#[derive(Debug, Clone)]
enum Cause {
    Direct { line: u32, source: String },
    Call { line: u32, callee: usize },
}

/// Computes per-function taint causes by fixpoint over resolved calls.
fn taint_causes(graph: &ConcGraph) -> Vec<Option<Cause>> {
    let mut causes: Vec<Option<Cause>> = graph
        .functions
        .iter()
        .map(|f| {
            f.events.iter().find_map(|e| match e {
                Event::Clock {
                    line,
                    source,
                    waived: false,
                } => Some(Cause::Direct {
                    line: *line,
                    source: source.clone(),
                }),
                _ => None,
            })
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..graph.functions.len() {
            if causes[i].is_some() {
                continue;
            }
            let hit = graph.functions[i].events.iter().find_map(|e| match e {
                Event::Call { line, callee, .. } => graph
                    .resolve(i, callee)
                    .filter(|j| causes[*j].is_some())
                    .map(|j| Cause::Call {
                        line: *line,
                        callee: j,
                    }),
                _ => None,
            });
            if hit.is_some() {
                causes[i] = hit;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    causes
}

/// Renders the witness chain from tainted function `start` down to its
/// clock read: `` `a` (f.rs:3) → `b` (g.rs:7) → Instant::now (g.rs:9)``.
fn chain(graph: &ConcGraph, causes: &[Option<Cause>], start: usize) -> String {
    let mut parts = Vec::new();
    let mut at = start;
    // The graph is finite and causes are acyclic by construction (a
    // cause is recorded once, pointing at an already-tainted callee),
    // but cap the walk anyway.
    for _ in 0..64 {
        let f = &graph.functions[at];
        match &causes[at] {
            Some(Cause::Direct { line, source }) => {
                parts.push(format!(
                    "`{}` reads {}::now at {}:{}",
                    f.name, source, f.file, line
                ));
                break;
            }
            Some(Cause::Call { line, callee }) => {
                parts.push(format!("`{}` ({}:{})", f.name, f.file, line));
                at = *callee;
            }
            None => break,
        }
    }
    parts.join(" → ")
}

/// Runs the rule, producing `clock-taint` findings.
pub fn check(graph: &ConcGraph, config: &LintConfig) -> Vec<Finding> {
    let causes = taint_causes(graph);
    let mut findings = Vec::new();
    for (i, f) in graph.functions.iter().enumerate() {
        if f.in_test {
            continue;
        }
        if !config.kind_of(&f.file).result_affecting {
            continue;
        }
        for e in &f.events {
            let Event::Call { line, callee, .. } = e else {
                continue;
            };
            let Some(j) = graph.resolve(i, callee) else {
                continue;
            };
            if causes[j].is_none() {
                continue;
            }
            findings.push(Finding::new(
                CLOCK_TAINT,
                &f.file,
                *line,
                format!(
                    "`{}` is result-affecting but calls wall-clock-tainted \
                     `{}`: {} — results must not depend on wall time; route \
                     the timing out through the hook seam or waive the \
                     underlying read with an audit reason",
                    f.name,
                    graph.functions[j].name,
                    chain(graph, &causes, j),
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ConcGraph;
    use crate::lexer::scan;
    use std::collections::BTreeMap;

    fn config() -> LintConfig {
        LintConfig {
            root: std::path::PathBuf::from("/nonexistent"),
            scan_dirs: vec![],
            result_affecting: vec!["crates/a/src".to_owned()],
            thread_watch: vec![],
            unsafe_allow: vec![],
            thread_allow: vec![],
            obs_ban: vec![],
            obs_allow: vec![],
            atomics_allow: vec![],
            seam: None,
        }
    }

    fn findings_for(files: &[(&str, &str)]) -> Vec<Finding> {
        let c = config();
        let scanned: BTreeMap<String, crate::lexer::ScannedFile> = files
            .iter()
            .map(|(n, s)| ((*n).to_owned(), scan(s)))
            .collect();
        check(&ConcGraph::build(&c, &scanned), &c)
    }

    #[test]
    fn cross_file_taint_chain_is_found() {
        // The clock lives in a helper crate the per-line rule ignores;
        // the result-affecting caller reaches it through two hops.
        let util = "pub fn now_ms() -> u64 {\n\
                    \tstd::time::Instant::now().elapsed().as_millis() as u64\n\
                    }\n\
                    pub fn stamp() -> u64 {\n\
                    \tnow_ms()\n\
                    }\n";
        let hot = "pub fn select(xs: &[u64]) -> u64 {\n\
                   \txs[stamp() as usize % xs.len()]\n\
                   }\n";
        let f = findings_for(&[
            ("crates/util/src/lib.rs", util),
            ("crates/a/src/hot.rs", hot),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, CLOCK_TAINT);
        assert_eq!(f[0].file, "crates/a/src/hot.rs");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("Instant::now"), "{}", f[0].message);
        assert!(f[0].message.contains("now_ms"), "{}", f[0].message);
    }

    #[test]
    fn waived_clock_is_a_taint_stop() {
        let util = "pub fn span_ms() -> u64 {\n\
                    \t// zatel-lint: allow(wall-clock, reason = \"telemetry only, reviewed\")\n\
                    \tstd::time::Instant::now().elapsed().as_millis() as u64\n\
                    }\n";
        let hot = "pub fn select(xs: &[u64]) -> u64 {\n\
                   \txs[span_ms() as usize % xs.len()]\n\
                   }\n";
        assert!(findings_for(&[
            ("crates/util/src/lib.rs", util),
            ("crates/a/src/hot.rs", hot),
        ])
        .is_empty());
    }

    #[test]
    fn taint_into_non_result_affecting_caller_is_quiet() {
        let util = "pub fn now_ms() -> u64 {\n\
                    \tstd::time::Instant::now().elapsed().as_millis() as u64\n\
                    }\n";
        let cold = "pub fn report() -> u64 {\n\
                    \tnow_ms()\n\
                    }\n";
        assert!(findings_for(&[
            ("crates/util/src/lib.rs", util),
            ("crates/cli/src/report.rs", cold),
        ])
        .is_empty());
    }

    #[test]
    fn direct_reads_are_left_to_the_per_line_rule() {
        let hot = "pub fn select() -> u64 {\n\
                   \tstd::time::Instant::now().elapsed().as_millis() as u64\n\
                   }\n";
        assert!(findings_for(&[("crates/a/src/hot.rs", hot)]).is_empty());
    }

    #[test]
    fn test_functions_are_ignored() {
        let util = "pub fn now_ms() -> u64 {\n\
                    \tstd::time::Instant::now().elapsed().as_millis() as u64\n\
                    }\n";
        let hot = "#[cfg(test)]\nmod tests {\n\
                   \tfn bench_like() -> u64 {\n\
                   \t\tnow_ms()\n\
                   \t}\n\
                   }\n";
        assert!(findings_for(&[
            ("crates/util/src/lib.rs", util),
            ("crates/a/src/hot.rs", hot),
        ])
        .is_empty());
    }
}
