//! Property tests for the lint lexer on adversarial snippets: comment
//! markers inside strings, raw strings, nested and unterminated block
//! comments, char literals vs lifetimes, stray braces. The lexer must stay
//! total, line-preserving and deterministic — on *any* input, not just
//! well-formed Rust.

use proptest::prelude::*;
use zatel_lint::lexer;

/// Each fragment is one adversarial line; snippets are random stacks of
/// them. Several are deliberately malformed (unterminated string or
/// block comment, unbalanced braces).
const FRAGMENTS: &[&str] = &[
    "let s = \"// not a comment\";",
    "let s = \"/* still code */ {\";",
    "// plain comment naming Instant::now() and HashMap",
    "/* block with \" quote and { brace */",
    "let r = r#\"raw \"quoted\" // no comment { \"#;",
    "let c = '\"';",
    "let c = '{';",
    "let c = '\\'';",
    "fn f<'a>(x: &'a str) -> &'a str { x }",
    "#[cfg(test)]",
    "mod tests {",
    "fn lonely(",
    "struct S;",
    "{",
    "}",
    "let m = std::sync::Mutex::new(0u64);",
    "let g = m.lock();",
    "drop(g);",
    "let t = std::time::Instant::now();",
    "// zatel-lint: allow(wall-clock, reason = \"prop fixture\")",
    "counter.fetch_add(1, Ordering::Relaxed);",
    "impl Widget {",
    "pub fn poke(&self) -> u64 { *self.inner.lock().0 }",
    "let s = \"unterminated…",
    "/* unterminated block",
    "macro_rules! m { () => { \"// tricky\" }; }",
    "let unicode = \"日本語 // コメント {\";",
];

fn snippet() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..FRAGMENTS.len(), 0..40).prop_map(|picks| {
        picks
            .iter()
            .map(|&i| FRAGMENTS[i])
            .collect::<Vec<_>>()
            .join("\n")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scan_is_total_line_preserving_and_deterministic(src in snippet()) {
        let a = lexer::scan(&src);
        prop_assert_eq!(a.lines.len(), src.lines().count());

        let b = lexer::scan(&src);
        prop_assert_eq!(a.lines.len(), b.lines.len());
        for (la, lb) in a.lines.iter().zip(b.lines.iter()) {
            prop_assert_eq!(&la.code, &lb.code);
            prop_assert_eq!(&la.comment, &lb.comment);
            prop_assert_eq!(la.in_test, lb.in_test);
            prop_assert_eq!(&la.item_path, &lb.item_path);
        }

        // Every recorded waiver points at a real line, and stripped code
        // never retains a line comment marker.
        for w in &a.waivers {
            prop_assert!(w.line >= 1 && w.line as usize <= a.lines.len());
        }
        for line in &a.lines {
            prop_assert!(
                !line.code.contains("//"),
                "comment marker survived stripping: {:?}",
                line.code
            );
        }
    }

    #[test]
    fn brace_free_bodies_inside_cfg_test_are_test_lines(
        picks in proptest::collection::vec(0..FRAGMENTS.len(), 1..12)
    ) {
        // Only fragments without brace or attribute structure, so the
        // cfg(test) region provably spans the whole body.
        let body: Vec<&str> = picks
            .iter()
            .map(|&i| FRAGMENTS[i])
            .filter(|f| !f.contains('{') && !f.contains('}') && !f.starts_with("#["))
            .collect();
        prop_assume!(!body.is_empty());
        let src = format!("#[cfg(test)]\nmod tests {{\n{}\n}}\n", body.join("\n"));
        let scanned = lexer::scan(&src);
        for (i, line) in scanned.lines.iter().enumerate().skip(1) {
            prop_assert!(
                line.in_test || line.code.trim().is_empty(),
                "line {} escaped the cfg(test) region: {:?}",
                i + 1,
                line.code
            );
        }
    }
}
