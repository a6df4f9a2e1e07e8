//! The `lock-order` rule: flag inconsistent pairwise lock orderings.
//!
//! For every function the rule *replays* its event stream keeping the
//! set of locks provably held — a `let`-bound guard is held until its
//! `drop()` or its block closes; an unbound guard is a statement
//! temporary and never held across the next event. Each acquisition made
//! while something is held records an ordered pair `(held → acquired)`,
//! and calls contribute too: a call to a guard-returning helper is an
//! acquisition of the helper's lock, and a call to anything else pairs
//! every held lock with the callee's *transitive* acquisition set. Two
//! lock classes observed in both orders anywhere in the workspace is a
//! potential deadlock, reported at every witness site of both directions
//! so either side can carry the fix (or an audited waiver).
//!
//! Per-instance locks that share a class (`Shard::queue` across serve
//! shards) never pair with themselves: same-name pairs are skipped, so a
//! sharded seam where each thread touches one instance stays silent.

use std::collections::BTreeMap;

use crate::graph::{ConcGraph, Event};
use crate::rules::LOCK_ORDER;
use crate::Finding;

/// One observed `first-held-then-second` acquisition, with its site.
#[derive(Debug, Clone)]
struct Witness {
    file: String,
    line: u32,
    function: String,
    /// The callee the second acquisition happened through, if indirect.
    via: Option<String>,
}

/// A guard provably held at a point of the replay.
struct Held {
    lock: String,
    binding: Option<String>,
    depth: u32,
}

/// Runs the rule over the graph, producing `lock-order` findings.
pub fn check(graph: &ConcGraph) -> Vec<Finding> {
    let acq = graph.transitive_acquires();
    let mut pairs: BTreeMap<(String, String), Vec<Witness>> = BTreeMap::new();

    for (i, f) in graph.functions.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let mut held: Vec<Held> = Vec::new();
        let record = |pairs: &mut BTreeMap<(String, String), Vec<Witness>>,
                      held: &[Held],
                      second: &str,
                      line: u32,
                      via: Option<&str>| {
            for h in held {
                if h.lock == second {
                    continue; // same class: sharded instances, re-entry is a
                              // different bug than inversion
                }
                pairs
                    .entry((h.lock.clone(), second.to_owned()))
                    .or_default()
                    .push(Witness {
                        file: f.file.clone(),
                        line,
                        function: f.name.clone(),
                        via: via.map(str::to_owned),
                    });
            }
        };
        for e in &f.events {
            match e {
                Event::Lock {
                    line,
                    lock,
                    binding,
                    depth,
                } => {
                    record(&mut pairs, &held, lock, *line, None);
                    if binding.is_some() {
                        held.push(Held {
                            lock: lock.clone(),
                            binding: binding.clone(),
                            depth: *depth,
                        });
                    }
                }
                Event::Call {
                    line,
                    callee,
                    binding,
                    depth,
                } => {
                    let Some(j) = graph.resolve(i, callee) else {
                        continue;
                    };
                    let g = &graph.functions[j];
                    if g.returns_guard {
                        if let Some(lock) = &g.guard_lock {
                            record(&mut pairs, &held, lock, *line, Some(&g.name));
                            if binding.is_some() {
                                held.push(Held {
                                    lock: lock.clone(),
                                    binding: binding.clone(),
                                    depth: *depth,
                                });
                            }
                        }
                    } else if !held.is_empty() {
                        for lock in &acq[j] {
                            record(&mut pairs, &held, lock, *line, Some(&g.name));
                        }
                    }
                }
                Event::DropVar { name } => {
                    held.retain(|h| h.binding.as_deref() != Some(name.as_str()));
                }
                Event::Close { depth } => {
                    held.retain(|h| h.depth <= *depth);
                }
                _ => {}
            }
        }
    }

    // Inversions: both (A, B) and (B, A) observed.
    let mut findings = Vec::new();
    for ((a, b), witnesses) in &pairs {
        let Some(reverse) = pairs.get(&(b.clone(), a.clone())) else {
            continue;
        };
        // Each (A, B)/(B, A) inversion visits this loop twice — once per
        // direction — so reporting only `witnesses` here covers both
        // directions' sites exactly once.
        let opposite = &reverse[0];
        for w in witnesses {
            let via = w
                .via
                .as_deref()
                .map(|v| format!(" (via `{v}`)"))
                .unwrap_or_default();
            findings.push(Finding::new(
                LOCK_ORDER,
                &w.file,
                w.line,
                format!(
                    "lock `{b}` is acquired{via} while `{a}` is held in `{}`, \
                     but the opposite order exists in `{}` at {}:{} — \
                     inconsistent pairwise lock order can deadlock; pick one \
                     order or waive with the audit reason",
                    w.function, opposite.function, opposite.file, opposite.line
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
    use std::collections::BTreeMap as Files;

    fn findings_for(files: &[(&str, &str)]) -> Vec<Finding> {
        let scanned: Files<String, crate::lexer::ScannedFile> = files
            .iter()
            .map(|(n, s)| ((*n).to_owned(), scan(s)))
            .collect();
        let config = crate::LintConfig {
            root: std::path::PathBuf::from("/nonexistent"),
            scan_dirs: vec![],
            result_affecting: vec![],
            thread_watch: vec![],
            unsafe_allow: vec![],
            thread_allow: vec![],
            obs_ban: vec![],
            obs_allow: vec![],
            atomics_allow: vec![],
            seam: None,
        };
        check(&ConcGraph::build(&config, &scanned))
    }

    #[test]
    fn direct_inversion_is_flagged_at_both_sites() {
        let src = "impl S {\n\
                   \tfn ab(&self) {\n\
                   \t\tlet a = self.alpha.lock().unwrap();\n\
                   \t\tlet b = self.beta.lock().unwrap();\n\
                   \t\tlet _ = (a, b);\n\
                   \t}\n\
                   \tfn ba(&self) {\n\
                   \t\tlet b = self.beta.lock().unwrap();\n\
                   \t\tlet a = self.alpha.lock().unwrap();\n\
                   \t\tlet _ = (a, b);\n\
                   \t}\n\
                   }\n";
        let f = findings_for(&[("s.rs", src)]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == LOCK_ORDER));
        assert!(f.iter().any(|x| x.line == 4));
        assert!(f.iter().any(|x| x.line == 9));
    }

    #[test]
    fn consistent_nesting_is_silent() {
        let src = "impl S {\n\
                   \tfn one(&self) {\n\
                   \t\tlet a = self.alpha.lock().unwrap();\n\
                   \t\tlet b = self.beta.lock().unwrap();\n\
                   \t\tlet _ = (a, b);\n\
                   \t}\n\
                   \tfn two(&self) {\n\
                   \t\tlet a = self.alpha.lock().unwrap();\n\
                   \t\tlet b = self.beta.lock().unwrap();\n\
                   \t\tlet _ = (a, b);\n\
                   \t}\n\
                   }\n";
        assert!(findings_for(&[("s.rs", src)]).is_empty());
    }

    #[test]
    fn dropped_guard_does_not_pair() {
        // `a` is dropped before `b` in one(), so two()'s b-then-a cannot
        // invert anything.
        let src = "impl S {\n\
                   \tfn one(&self) {\n\
                   \t\tlet a = self.alpha.lock().unwrap();\n\
                   \t\tdrop(a);\n\
                   \t\tlet b = self.beta.lock().unwrap();\n\
                   \t\tlet _ = b;\n\
                   \t}\n\
                   \tfn two(&self) {\n\
                   \t\tlet b = self.beta.lock().unwrap();\n\
                   \t\tlet a = self.alpha.lock().unwrap();\n\
                   \t\tlet _ = (a, b);\n\
                   \t}\n\
                   }\n";
        assert!(findings_for(&[("s.rs", src)]).is_empty());
    }

    #[test]
    fn block_scoped_guard_is_released_at_close() {
        let src = "impl S {\n\
                   \tfn one(&self) {\n\
                   \t\t{\n\
                   \t\t\tlet a = self.alpha.lock().unwrap();\n\
                   \t\t\tlet _ = a;\n\
                   \t\t}\n\
                   \t\tlet b = self.beta.lock().unwrap();\n\
                   \t\tlet _ = b;\n\
                   \t}\n\
                   \tfn two(&self) {\n\
                   \t\tlet b = self.beta.lock().unwrap();\n\
                   \t\tlet a = self.alpha.lock().unwrap();\n\
                   \t\tlet _ = (a, b);\n\
                   \t}\n\
                   }\n";
        assert!(findings_for(&[("s.rs", src)]).is_empty());
    }

    #[test]
    fn inversion_through_a_call_is_found() {
        let src = "impl S {\n\
                   \tfn takes_beta(&self) {\n\
                   \t\tlet b = self.beta.lock().unwrap();\n\
                   \t\tlet _ = b;\n\
                   \t}\n\
                   \tfn ab(&self) {\n\
                   \t\tlet a = self.alpha.lock().unwrap();\n\
                   \t\tself.takes_beta();\n\
                   \t\tlet _ = a;\n\
                   \t}\n\
                   \tfn ba(&self) {\n\
                   \t\tlet b = self.beta.lock().unwrap();\n\
                   \t\tlet a = self.alpha.lock().unwrap();\n\
                   \t\tlet _ = (a, b);\n\
                   \t}\n\
                   }\n";
        let f = findings_for(&[("s.rs", src)]);
        assert!(
            f.iter().any(|x| x.line == 8 && x.message.contains("via")),
            "{f:?}"
        );
    }

    #[test]
    fn same_class_pairs_are_skipped() {
        // Two instances of the same lock class (sharded seams).
        let src = "impl S {\n\
                   \tfn chain(&self, other: &S) {\n\
                   \t\tlet a = self.state.lock().unwrap();\n\
                   \t\tlet b = other.state.lock().unwrap();\n\
                   \t\tlet _ = (a, b);\n\
                   \t}\n\
                   }\n";
        assert!(findings_for(&[("s.rs", src)]).is_empty());
    }

    #[test]
    fn guard_returning_helper_counts_as_acquisition() {
        let src = "impl S {\n\
                   \tfn lock(&self) -> MutexGuard<'_, St> {\n\
                   \t\tself.state.lock().unwrap()\n\
                   \t}\n\
                   \tfn ab(&self) {\n\
                   \t\tlet s = self.lock();\n\
                   \t\tlet o = self.other.lock().unwrap();\n\
                   \t\tlet _ = (s, o);\n\
                   \t}\n\
                   \tfn ba(&self) {\n\
                   \t\tlet o = self.other.lock().unwrap();\n\
                   \t\tlet s = self.lock();\n\
                   \t\tlet _ = (s, o);\n\
                   \t}\n\
                   }\n";
        let f = findings_for(&[("s.rs", src)]);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn test_functions_are_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   \tfn ab() {\n\
                   \t\tlet a = A.lock().unwrap();\n\
                   \t\tlet b = B.lock().unwrap();\n\
                   \t\tlet _ = (a, b);\n\
                   \t}\n\
                   \tfn ba() {\n\
                   \t\tlet b = B.lock().unwrap();\n\
                   \t\tlet a = A.lock().unwrap();\n\
                   \t\tlet _ = (a, b);\n\
                   \t}\n\
                   }\n";
        assert!(findings_for(&[("s.rs", src)]).is_empty());
    }
}
