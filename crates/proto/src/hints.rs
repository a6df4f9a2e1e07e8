//! Execution hints: the execution-only knobs of a request, grouped into
//! one DTO.
//!
//! Every field here changes *how* a request executes — today only the
//! queue deadline — and never *what* it computes. That invariant is what
//! lets the request fingerprints exclude the whole object: two requests
//! that differ only in their hints still produce byte-identical
//! deterministic subsets, so they share cached artifacts.
//!
//! `hints.deadline_ms` is the only deadline spelling: a top-level
//! `deadline_ms` (the field it replaced) is an unknown field now, ignored
//! like any other. So are the removed hints: the intra-simulation thread
//! knobs, the opt-out of request merging the server no longer does, and
//! `hints.jobs`, a second spelling of `options.jobs`.

#[cfg(test)]
use minijson::Value;

/// Execution-only knobs a `predict`/`sweep` request may carry. All
/// fields are optional; [`ExecutionHints::default`] hints nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecutionHints {
    /// Client deadline budget: a server answers `504` if the request is
    /// still queued when this elapses (execution is never preempted once
    /// started).
    pub deadline_ms: Option<u64>,
}

minijson::record! {
    ExecutionHints {
        "deadline_ms" => deadline_ms,
    }
}

/// `doc` with the removed hints (the intra-simulation thread knobs, the
/// dedup opt-out and `jobs`) injected into its `hints` and `options`
/// objects — the shape old clients still send. They are unknown fields
/// now, which every `zatel-api-v1` parser ignores.
#[cfg(test)]
pub(crate) fn with_legacy_hints(doc: &Value) -> Value {
    let text = doc
        .to_string()
        .replace(
            r#""hints":{"#,
            r#""hints":{"jobs":3,"sim_threads":4,"timing_threads":2,"no_dedup":true,"#,
        )
        .replace(r#""options":{"#, r#""options":{"sim_threads":4,"#);
    assert_eq!(text.matches("_threads").count(), 3, "{doc}");
    Value::parse(&text).expect("legacy doc")
}

/// `doc` with the removed top-level `deadline_ms` request field injected —
/// an unknown field now.
#[cfg(test)]
pub(crate) fn with_legacy_deadline(doc: &Value) -> Value {
    let mut doc = doc.clone();
    let Value::Object(m) = &mut doc else {
        panic!("request documents are objects");
    };
    m.insert("deadline_ms".into(), Value::from(0u64));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::{FromJson, ToJson};

    #[test]
    fn hints_round_trip_and_report_empty() {
        let set = ExecutionHints {
            deadline_ms: Some(5000),
        };
        for hints in [set, ExecutionHints::default()] {
            let back = ExecutionHints::from_json(&hints.to_json()).expect("round trip");
            assert_eq!(hints, back);
        }
    }

    #[test]
    fn hints_reject_malformed_fields() {
        for (field, bad) in [
            ("deadline_ms", "\"soon\""),
            ("deadline_ms", "-1"),
            ("deadline_ms", "2.5"),
            ("deadline_ms", "[]"),
        ] {
            let doc = format!(r#"{{"{field}":{bad}}}"#);
            let v = Value::parse(&doc).unwrap();
            assert!(
                ExecutionHints::from_json(&v).is_err(),
                "bad {field}={bad} accepted"
            );
        }
        assert!(ExecutionHints::from_json(&Value::parse("[]").unwrap()).is_err());
    }
}
