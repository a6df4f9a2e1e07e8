//! # zatel-proto — the `zatel-api-v1` wire protocol and its records
//!
//! Versioned request/response DTOs shared by every consumer that speaks
//! Zatel over a wire or a file: the `zatel` CLI (`predict --json`,
//! `predict --url`, `sweep --json`) and the long-running `zatel serve`
//! HTTP service. Both sides construct and parse these types instead of
//! assembling JSON field by field, so the wire format lives in exactly
//! one place.
//!
//! The persisted prediction records live here too, each one
//! `minijson::record!` declaration:
//!
//! * [`PointRecord`] (`zatel-sweep-v1`) — one prediction's metrics, MAE,
//!   speedup, walls and cache outcomes: every [`SweepResponse`] point,
//!   every `zatel sweep --runs-out` line and the line `zatel report --run`
//!   appends, read back by [`read_history`];
//! * [`RunRecord`] (`zatel-run-v2`) — the request, response and heatmap
//!   `zatel predict --run-out` persists for `zatel report --run`.
//!
//! ## Stability contract
//!
//! Every document carries `"schema": "zatel-api-v1"`. Within the `v1`
//! schema:
//!
//! * an existing field never changes meaning or type;
//! * new **optional** fields may be added at any time — parsers must
//!   ignore unknown fields (every DTO here is a `minijson::record!`
//!   declaration, and those do);
//! * a field may be removed: it then becomes an unknown field, so a
//!   document that still carries it decodes as if it were absent, and
//!   its name is never reused with another meaning;
//! * documents with a different `schema` value are rejected, never
//!   half-parsed.
//!
//! A breaking change requires a new `zatel-api-v2` schema served from new
//! `/v2/...` endpoints.
//!
//! ## Example
//!
//! ```
//! use minijson::{FromJson, ToJson, Value};
//! use zatel_proto::{ConfigRef, PredictRequest};
//!
//! let req = PredictRequest::new("SPRNG", ConfigRef::preset("mobile"));
//! let wire = req.to_json().to_string();
//! let back = PredictRequest::from_json(&Value::parse(&wire).unwrap()).unwrap();
//! assert_eq!(req, back);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod config;
mod debug;
mod hints;
mod predict;
mod run;
mod sweep;
mod wire;

pub use config::ConfigRef;
pub use debug::{DebugSlowResponse, SlowRequestEntry};
pub use hints::ExecutionHints;
pub use predict::{GroupReport, MetricValues, PredictRequest, PredictResponse, ReferenceReport};
pub use run::{RunRecord, RUN_SCHEMA};
pub use sweep::{read_history, PointRecord, SweepRequest, SweepResponse};
pub use wire::{ErrorKind, ErrorResponse, SceneInfo, ScenesResponse};

/// The protocol schema identifier every `zatel-api-v1` document carries.
pub const API_SCHEMA: &str = "zatel-api-v1";

/// The [`PointRecord`] schema: `zatel sweep --runs-out` history lines
/// (predates `zatel-api-v1` and is embedded unchanged in
/// [`SweepResponse`] points).
pub(crate) const SWEEP_RECORD_SCHEMA: &str = "zatel-sweep-v1";

/// The bounds a predict and a sweep request share: a named scene, `res`
/// and `spp` in range, and valid options.
fn validate_run(
    scene: &str,
    res: u32,
    spp: u32,
    options: Option<&zatel::ZatelOptions>,
) -> Result<(), String> {
    if scene.is_empty() {
        return Err("scene must not be empty".into());
    }
    if res == 0 || res > 4096 {
        return Err(format!("res must be in 1..=4096, got {res}"));
    }
    if spp == 0 || spp > 64 {
        return Err(format!("spp must be in 1..=64, got {spp}"));
    }
    if let Some(options) = options {
        options.validate().map_err(|e| e.to_string())?;
    }
    Ok(())
}
