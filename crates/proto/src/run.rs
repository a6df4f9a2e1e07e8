//! The `zatel-run-v2` run record `zatel predict --run-out` persists and
//! `zatel report --run` renders.

use zatel::heatmap::Heatmap;

use crate::{PredictRequest, PredictResponse};

/// The schema tag every run record carries.
pub const RUN_SCHEMA: &str = "zatel-run-v2";

/// One local prediction, persisted whole: the request that produced it,
/// its response (with the observed `metrics` registry) and the
/// execution-time heatmap it profiled.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The request as the CLI built it.
    pub request: PredictRequest,
    /// The response, exactly as `zatel predict --json` prints it.
    pub response: PredictResponse,
    /// The profiled execution-time heatmap, in its lossless JSON.
    pub heatmap: Heatmap,
}

minijson::record! {
    RunRecord schema(RUN_SCHEMA) {
        "request" => request,
        "response" => response,
        "heatmap" => heatmap,
    }
}
