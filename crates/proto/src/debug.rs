//! `GET /v1/debug/slow` response DTOs: the serve slow-request ring.
//!
//! The server retains the most recent completed requests — span sheets,
//! cache outcomes and the exact `zatel-log-v1` line each one emitted —
//! in a bounded in-memory ring. This endpoint pages that ring back to an
//! operator chasing a slow or misbehaving request by its
//! `x-zatel-request-id`, with no log shipping required.
//!
//! Everything here is observational (wall-clock timings, queue waits):
//! none of it feeds the deterministic response subset.

use minijson::Value;
use obs::SpanRecord;
use zatel::StageCacheRecord;

use crate::API_SCHEMA;

/// One retained request in the serve debug ring, newest last.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowRequestEntry {
    /// The request's ID (caller-supplied `x-zatel-request-id` or
    /// server-generated).
    pub request_id: String,
    /// `METHOD /path`, e.g. `POST /v1/predict`.
    pub route: String,
    /// The HTTP status answered.
    pub status: u16,
    /// Milliseconds spent in the admission queue before a worker picked
    /// the request up.
    pub queue_wait_ms: u64,
    /// Milliseconds from worker pickup to response written.
    pub wall_ms: f64,
    /// Deadline budget remaining when execution started, when the request
    /// (or the server default) carried a deadline.
    pub deadline_slack_ms: Option<i64>,
    /// The run's span sheet (host wall-clock pipeline spans, request span
    /// first), when the route produced one.
    pub spans: Vec<SpanRecord>,
    /// Per-stage artifact-cache outcomes, when the route produced them.
    pub cache: Vec<StageCacheRecord>,
    /// The exact `zatel-log-v1` request line emitted for this request.
    pub log: Value,
}

minijson::record! {
    SlowRequestEntry {
        "request_id" => request_id,
        "route" => route,
        "status" => status,
        "queue_wait_ms" => queue_wait_ms,
        "wall_ms" => wall_ms,
        "deadline_slack_ms" => deadline_slack_ms,
        "spans" => spans: default,
        "cache" => cache: default,
        "log" => log: default,
    }
}

/// The `GET /v1/debug/slow` document: the retained ring, oldest first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DebugSlowResponse {
    /// Retained requests, oldest first (the ring evicts from the front).
    pub entries: Vec<SlowRequestEntry>,
}

minijson::record! {
    DebugSlowResponse schema(API_SCHEMA) {
        "entries" => entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::{FromJson, ToJson};

    fn sample() -> DebugSlowResponse {
        DebugSlowResponse {
            entries: vec![SlowRequestEntry {
                request_id: "ci-trace-42".into(),
                route: "POST /v1/predict".into(),
                status: 200,
                queue_wait_ms: 3,
                wall_ms: 128.5,
                deadline_slack_ms: Some(4997),
                spans: vec![SpanRecord {
                    name: "request ci-trace-42".into(),
                    track: 0,
                    start_us: 0,
                    dur_us: 0,
                }],
                cache: vec![StageCacheRecord {
                    stage: "heatmap".into(),
                    fingerprint: 0xfeed,
                    outcome: zatel::CacheOutcome::Miss,
                }],
                log: Value::parse(r#"{"schema":"zatel-log-v1","event":"request"}"#).unwrap(),
            }],
        }
    }

    #[test]
    fn round_trips() {
        let resp = sample();
        let back = DebugSlowResponse::from_json(&resp.to_json()).expect("round trip");
        assert_eq!(resp, back);
    }

    #[test]
    fn rejects_wrong_schema_and_tolerates_absent_slack() {
        let mut doc = sample().to_json();
        if let Value::Object(m) = &mut doc {
            m.insert("schema".into(), Value::from("zatel-api-v9"));
        }
        assert!(DebugSlowResponse::from_json(&doc).is_err());

        let minimal = Value::parse(
            r#"{"schema":"zatel-api-v1","entries":[{"request_id":"r","route":"GET /healthz",
                "status":200,"queue_wait_ms":0,"wall_ms":0.5}]}"#,
        )
        .unwrap();
        let resp = DebugSlowResponse::from_json(&minimal).expect("minimal entry");
        assert_eq!(resp.entries.len(), 1);
        assert!(resp.entries[0].deadline_slack_ms.is_none());
        assert!(resp.entries[0].spans.is_empty());
        assert_eq!(resp.entries[0].log, Value::Null);

        // Optional fields present with the wrong type are rejected, not
        // dropped.
        let text = minimal.to_string();
        for bad in [
            r#""deadline_slack_ms":"soon""#,
            r#""spans":{}"#,
            r#""cache":"none""#,
        ] {
            let doc =
                Value::parse(&text.replace(r#""wall_ms":0.5"#, &format!(r#""wall_ms":0.5,{bad}"#)));
            assert!(
                DebugSlowResponse::from_json(&doc.unwrap()).is_err(),
                "{bad} accepted"
            );
        }
    }
}
