//! Service-level envelopes: errors and the scene catalog.

use crate::API_SCHEMA;

/// Machine-readable classification of a service error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request document could not be parsed or failed validation
    /// (HTTP 400).
    BadRequest,
    /// The request parsed but the engine rejected it — unknown scene,
    /// invalid option combination (HTTP 422).
    Unprocessable,
    /// The server's bounded queue is full; retry later (HTTP 429).
    Overloaded,
    /// The request's deadline elapsed while it waited in the queue
    /// (HTTP 504).
    DeadlineExceeded,
    /// The pipeline failed while executing the request (HTTP 500).
    Internal,
}

minijson::record! {
    pub enum ErrorKind {
        BadRequest => "bad_request",
        Unprocessable => "unprocessable",
        Overloaded => "overloaded",
        DeadlineExceeded => "deadline_exceeded",
        Internal => "internal",
    }
}

impl ErrorKind {
    /// The HTTP status code a server responds with.
    pub fn http_status(self) -> u16 {
        match self {
            ErrorKind::BadRequest => 400,
            ErrorKind::Unprocessable => 422,
            ErrorKind::Overloaded => 429,
            ErrorKind::DeadlineExceeded => 504,
            ErrorKind::Internal => 500,
        }
    }
}

/// The `zatel-api-v1` error envelope every non-2xx response carries.
///
/// Refusals are machine-readable end to end: a 429 carries
/// [`ErrorResponse::retry_after_ms`] (the same estimate as the
/// `Retry-After` header, so clients need not parse headers) and a 504
/// carries [`ErrorResponse::deadline_slack_ms`] (how far past the budget
/// the request was when dropped — always negative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResponse {
    /// Classification (also determines the HTTP status).
    pub kind: ErrorKind,
    /// Human-readable description of what went wrong.
    pub error: String,
    /// How long a refused client should wait before retrying, in
    /// milliseconds. Set on [`ErrorKind::Overloaded`] refusals.
    pub retry_after_ms: Option<u64>,
    /// Deadline budget remaining when the request was answered, in
    /// milliseconds (negative when the budget had already elapsed). Set
    /// on [`ErrorKind::DeadlineExceeded`] refusals.
    pub deadline_slack_ms: Option<i64>,
}

impl ErrorResponse {
    /// An error of `kind` with message `error`.
    pub fn new(kind: ErrorKind, error: impl Into<String>) -> Self {
        ErrorResponse {
            kind,
            error: error.into(),
            retry_after_ms: None,
            deadline_slack_ms: None,
        }
    }

    /// Attaches the retry estimate of a 429 refusal.
    #[must_use]
    pub fn with_retry_after_ms(mut self, retry_after_ms: u64) -> Self {
        self.retry_after_ms = Some(retry_after_ms);
        self
    }

    /// Attaches the (negative) remaining deadline budget of a 504.
    #[must_use]
    pub fn with_deadline_slack_ms(mut self, deadline_slack_ms: i64) -> Self {
        self.deadline_slack_ms = Some(deadline_slack_ms);
        self
    }
}

minijson::record! {
    ErrorResponse schema(API_SCHEMA) {
        "kind" => kind,
        "error" => error,
        "retry_after_ms" => retry_after_ms: skip_none,
        "deadline_slack_ms" => deadline_slack_ms: skip_none,
    }
}

/// One entry of the `GET /v1/scenes` catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SceneInfo {
    /// The name `predict`/`sweep` requests use.
    pub name: String,
    /// One-line description.
    pub description: String,
}

minijson::record! {
    SceneInfo {
        "name" => name,
        "description" => description,
    }
}

/// The `GET /v1/scenes` response: every benchmark scene this server can
/// build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenesResponse {
    /// The catalog, in [`rtcore::scenes::all`] order.
    pub scenes: Vec<SceneInfo>,
}

impl ScenesResponse {
    /// The catalog of this build's scene registry.
    pub fn current() -> Self {
        ScenesResponse {
            scenes: rtcore::scenes::all()
                .iter()
                .map(|id| SceneInfo {
                    name: id.name().to_owned(),
                    description: id.description().to_owned(),
                })
                .collect(),
        }
    }
}

minijson::record! {
    ScenesResponse schema(API_SCHEMA) {
        "scenes" => scenes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::{FromJson, ToJson, Value};

    #[test]
    fn error_round_trips_every_kind() {
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::Unprocessable,
            ErrorKind::Overloaded,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Internal,
        ] {
            let e = ErrorResponse::new(kind, "boom");
            let back = ErrorResponse::from_json(&e.to_json()).expect("round trip");
            assert_eq!(e, back);
            assert_eq!(ErrorKind::from_json(&Value::from(kind.tag())), Ok(kind));
        }
    }

    #[test]
    fn error_refusal_fields_round_trip() {
        let refused =
            ErrorResponse::new(ErrorKind::Overloaded, "queue full").with_retry_after_ms(2000);
        let doc = refused.to_json();
        assert_eq!(
            doc.get("retry_after_ms").and_then(Value::as_u64),
            Some(2000)
        );
        assert!(doc.get("deadline_slack_ms").is_none());
        let back = ErrorResponse::from_json(&doc).expect("round trip");
        assert_eq!(refused, back);

        let expired = ErrorResponse::new(ErrorKind::DeadlineExceeded, "too late")
            .with_deadline_slack_ms(-350);
        let doc = expired.to_json();
        assert_eq!(
            doc.get("deadline_slack_ms").and_then(Value::as_i64),
            Some(-350)
        );
        let back = ErrorResponse::from_json(&doc).expect("round trip");
        assert_eq!(expired, back);
    }

    #[test]
    fn error_rejects_malformed_refusal_fields() {
        let v = Value::parse(
            r#"{"schema":"zatel-api-v1","kind":"overloaded","error":"x",
                "retry_after_ms":"soon"}"#,
        )
        .unwrap();
        assert!(ErrorResponse::from_json(&v).is_err());
        let v = Value::parse(
            r#"{"schema":"zatel-api-v1","kind":"deadline_exceeded","error":"x",
                "deadline_slack_ms":"past"}"#,
        )
        .unwrap();
        assert!(ErrorResponse::from_json(&v).is_err());
    }

    #[test]
    fn error_statuses_are_distinct_http_errors() {
        let kinds = [
            ErrorKind::BadRequest,
            ErrorKind::Unprocessable,
            ErrorKind::Overloaded,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Internal,
        ];
        let mut statuses: Vec<u16> = kinds.iter().map(|k| k.http_status()).collect();
        statuses.dedup();
        assert_eq!(statuses.len(), kinds.len());
        assert!(statuses.iter().all(|s| (400..=599).contains(s)));
    }

    #[test]
    fn error_rejects_malformed_documents() {
        let v = Value::parse(r#"{"schema":"zatel-api-v1","kind":"novel","error":"x"}"#).unwrap();
        let err = ErrorResponse::from_json(&v).unwrap_err();
        assert!(err.message.contains("novel"), "{err}");
        let v = Value::parse(r#"{"schema":"zatel-api-v1","error":"x"}"#).unwrap();
        assert!(ErrorResponse::from_json(&v).is_err());
        let v = Value::parse(r#"{"kind":"internal","error":"x"}"#).unwrap();
        assert!(ErrorResponse::from_json(&v).is_err());
    }

    #[test]
    fn scene_catalog_lists_all_scenes_and_round_trips() {
        let catalog = ScenesResponse::current();
        assert_eq!(catalog.scenes.len(), rtcore::scenes::all().len());
        assert!(catalog.scenes.iter().any(|s| s.name == "SPRNG"));
        assert!(catalog.scenes.iter().all(|s| !s.description.is_empty()));
        let back = ScenesResponse::from_json(&catalog.to_json()).expect("round trip");
        assert_eq!(catalog, back);
    }

    #[test]
    fn scene_catalog_rejects_malformed_documents() {
        let v = Value::parse(r#"{"schema":"zatel-api-v1","scenes":[{"name":"X"}]}"#).unwrap();
        assert!(ScenesResponse::from_json(&v).is_err());
        let v = Value::parse(r#"{"schema":"zatel-api-v1"}"#).unwrap();
        assert!(ScenesResponse::from_json(&v).is_err());
    }
}
