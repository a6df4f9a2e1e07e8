//! # zatel-serve — the long-running Zatel prediction service
//!
//! `zatel serve` keeps one process-lifetime [`zatel::ArtifactCache`] warm
//! behind a small threaded HTTP/1.1 JSON API, so repeated predictions for
//! the same scene/resolution skip heatmap profiling and quantization
//! entirely. Everything is plain `std` + the in-workspace `minijson` —
//! no async runtime, no external HTTP stack.
//!
//! ## Request lifecycle
//!
//! ```text
//! accept → admission gauge (429 + computed Retry-After when full)
//!        → router: parse → admin answered inline
//!        → predict/sweep → one job channel
//!        → worker pool: deadline check (504) → execute → respond
//! ```
//!
//! Every worker executes through the same cache: one memory tier over
//! an optional disk tier, so a warm artifact serves whichever worker
//! picks the next request, and the disk tier survives restarts. A
//! request whose execution panics answers `500 internal`; its worker
//! keeps serving.
//!
//! Endpoints (all speaking [`zatel_proto`]'s `zatel-api-v1` documents):
//!
//! * `POST /v1/predict` — one [`zatel_proto::PredictRequest`]
//! * `POST /v1/sweep` — one [`zatel_proto::SweepRequest`]
//! * `GET /v1/scenes` — the scene catalog
//! * `GET /metrics` — Prometheus text exposition
//! * `GET /v1/debug/slow` — the retained-request debug ring
//! * `GET /healthz` — liveness
//! * `POST /v1/shutdown` — begin a graceful drain
//!
//! ## Request tracing
//!
//! Every response carries an `x-zatel-request-id` header: the caller's
//! own value when supplied, a generated `req-...` ID otherwise. The same
//! ID appears in the `zatel-log-v1` JSONL request line the server emits
//! (see [`ServeConfig::log_out`]), in the run's span sheet (the request
//! span is first), and in the `GET /v1/debug/slow` ring — so one grep
//! follows a request end to end. All of it is observational: the
//! deterministic response subset never contains request IDs or timings.
//!
//! On SIGINT/SIGTERM (or `/v1/shutdown`) the server stops accepting,
//! drains every queued request to completion, joins its workers and
//! returns — zero in-flight requests are dropped.
//!
//! The [`service`] module is transport-free: the CLI's local `predict`
//! path calls the same [`service::execute_predict`] the server does,
//! which is what keeps `zatel predict` and `zatel predict --url` output
//! identical.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

pub mod client;
mod http;
pub mod server;
pub mod service;
pub mod signal;

pub use client::HttpClient;
pub use server::{ServeConfig, ServeReport, Server};
pub use service::{
    execute_predict, execute_predict_traced, execute_sweep, PredictOutput, ServiceError,
    SweepOutput,
};
