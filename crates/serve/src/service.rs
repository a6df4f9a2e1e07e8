//! Transport-free request execution: the one place a
//! [`PredictRequest`]/[`SweepRequest`] turns into a pipeline run.
//!
//! Both front ends call into here — `zatel predict` locally and the
//! `zatel serve` worker threads — so a request produces the same
//! [`PredictResponse`] whichever path carried it. That shared seam is
//! what the protocol's byte-identity guarantee rests on.

use std::sync::Arc;

use gpusim::GpuConfig;
use obs::Timeline;
use rtcore::scene::Scene;
use rtcore::tracer::TraceConfig;
use zatel::{ArtifactCache, Prediction, RunContext, Zatel, ZatelError};
use zatel_proto::{
    ConfigRef, ErrorKind, PointRecord, PredictRequest, PredictResponse, SweepRequest, SweepResponse,
};

/// Ray bounce depth used by every service-issued trace (the CLI's
/// long-standing default).
pub const MAX_BOUNCES: u32 = 4;

/// Why a request could not be served.
#[derive(Debug)]
pub enum ServiceError {
    /// The request document failed validation (HTTP 400).
    BadRequest(String),
    /// The request parsed but names something the engine rejects —
    /// unknown scene, unresolvable config, invalid option combination
    /// (HTTP 422).
    Unprocessable(String),
    /// The pipeline itself failed (HTTP 500).
    Internal(String),
}

impl ServiceError {
    /// The matching wire-protocol error kind.
    pub(crate) fn kind(&self) -> ErrorKind {
        match self {
            ServiceError::BadRequest(_) => ErrorKind::BadRequest,
            ServiceError::Unprocessable(_) => ErrorKind::Unprocessable,
            ServiceError::Internal(_) => ErrorKind::Internal,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadRequest(msg)
            | ServiceError::Unprocessable(msg)
            | ServiceError::Internal(msg) => f.write_str(msg),
        }
    }
}

impl From<ZatelError> for ServiceError {
    fn from(e: ZatelError) -> Self {
        match e {
            // Bad factors, bad options and too small an image for K groups
            // are the client's input, not a server fault.
            ZatelError::Downscale(_)
            | ZatelError::InvalidOptions(_)
            | ZatelError::TooFewChunks { .. } => ServiceError::Unprocessable(e.to_string()),
        }
    }
}

/// Everything one predict execution produced. The wire answer is
/// [`PredictOutput::response`]; the rest lets in-process callers (the
/// CLI) render progress lines, Perfetto traces and run records without
/// re-running anything.
#[derive(Debug)]
pub struct PredictOutput {
    /// The wire response.
    pub response: PredictResponse,
    /// The raw prediction (observed groups carry their `ObsHooks`).
    pub prediction: Prediction,
    /// Per-group Perfetto timelines (empty unless observing with
    /// timelines enabled).
    pub timelines: Vec<Timeline>,
}

/// Names the valid scenes so the hint works from both the CLI and the
/// HTTP service (`zatel scenes` / `GET /v1/scenes` show the same list).
fn unknown_scene(name: &str) -> ServiceError {
    let known: Vec<&str> = rtcore::scenes::all().iter().map(|s| s.name()).collect();
    ServiceError::Unprocessable(format!(
        "unknown scene '{name}'; valid scenes: {}",
        known.join(", ")
    ))
}

/// The scene, GPU config and trace config a request names.
fn resolve(
    scene: &str,
    config: &ConfigRef,
    spp: u32,
    seed: u64,
) -> Result<(Scene, GpuConfig, TraceConfig), ServiceError> {
    let id = rtcore::scenes::by_name(scene).ok_or_else(|| unknown_scene(scene))?;
    let config = config.resolve().map_err(ServiceError::Unprocessable)?;
    let trace = TraceConfig {
        samples_per_pixel: spp,
        max_bounces: MAX_BOUNCES,
        seed,
    };
    Ok((id.build(seed), config, trace))
}

/// Executes one predict request through `cache`.
///
/// # Errors
///
/// Returns [`ServiceError`] classifying the failure for HTTP mapping.
pub fn execute_predict(
    request: &PredictRequest,
    cache: &ArtifactCache,
) -> Result<PredictOutput, ServiceError> {
    execute_predict_traced(request, cache, None)
}

/// [`execute_predict`] with a request ID threaded through the pipeline's
/// [`RunContext`]: the prediction (and therefore the response span sheet)
/// carries a `request <id>` span, and the run report echoes the ID. The
/// ID is purely observational — predicted values and the deterministic
/// response subset are byte-identical with or without it.
///
/// # Errors
///
/// Returns [`ServiceError`] classifying the failure for HTTP mapping.
pub fn execute_predict_traced(
    request: &PredictRequest,
    cache: &ArtifactCache,
    request_id: Option<&str>,
) -> Result<PredictOutput, ServiceError> {
    request.validate().map_err(ServiceError::BadRequest)?;
    let (scene, config, trace) =
        resolve(&request.scene, &request.config, request.spp, request.seed)?;
    let mut zatel = Zatel::new(&scene, config, request.res, request.res, trace);
    if let Some(options) = &request.options {
        zatel = zatel.with_options(options.clone());
    }

    let mut ctx = RunContext::new().with_cache(cache);
    if let Some(fractions) = request.regression {
        ctx = ctx.with_regression(fractions);
    }
    if let Some(id) = request_id {
        ctx = ctx.with_request_id(id);
    }
    let reference = request.reference.then_some(&zatel);
    let (mut predictions, mut references) =
        zatel::run_jobs(&[(&zatel, ctx)], reference.as_slice(), zatel.executor())?;
    let mut prediction = predictions.swap_remove(0);
    let reference = references.pop();

    // Fold per-group observability into one registry + one trace list, in
    // group order so repeat runs with the same seed are byte-identical.
    let metrics = prediction.observed_metrics();
    let timelines = prediction
        .groups
        .iter_mut()
        .filter_map(|g| g.obs.as_mut()?.take_timeline())
        .collect();
    let response = PredictResponse::new(
        request,
        scene.name(),
        &prediction,
        reference.as_ref(),
        metrics,
    );
    Ok(PredictOutput {
        response,
        prediction,
        timelines,
    })
}

/// Executes one sweep request through `cache` (shared with every other
/// request the process serves).
///
/// # Errors
///
/// Returns [`ServiceError`] classifying the failure for HTTP mapping.
pub fn execute_sweep(
    request: &SweepRequest,
    cache: &Arc<ArtifactCache>,
) -> Result<SweepResponse, ServiceError> {
    request.validate().map_err(ServiceError::BadRequest)?;
    let (scene, config, trace) =
        resolve(&request.scene, &request.config, request.spp, request.seed)?;
    let mut base = Zatel::new(&scene, config, request.res, request.res, trace);
    if let Some(options) = &request.options {
        base = base.with_options(options.clone());
    }
    let driver = zatel::SweepDriver::new(base).with_cache(Arc::clone(cache));
    let (outcomes, reference) = driver.run(&request.spec, request.reference)?;

    // Each point's record is read off the response a predict of it gives.
    let mut echo = PredictRequest::new(&request.scene, request.config.clone());
    (echo.res, echo.spp, echo.seed) = (request.res, request.spp, request.seed);
    let points = outcomes
        .into_iter()
        .map(|o| {
            let response =
                PredictResponse::new(&echo, scene.name(), &o.prediction, reference.as_ref(), None);
            PointRecord::new(o.point, &response)
        })
        .collect();
    Ok(SweepResponse {
        scene: scene.name().to_owned(),
        config: request.config.label().to_owned(),
        points,
        cache_stats: cache.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zatel_proto::{ConfigRef, MetricValues};

    fn tiny_request() -> PredictRequest {
        let mut req = PredictRequest::new("SPRNG", ConfigRef::preset("mobile"));
        req.res = 32;
        req.spp = 1;
        req.seed = 7;
        req
    }

    #[test]
    fn predict_matches_in_process_run() {
        let req = tiny_request();
        let cache = ArtifactCache::in_memory();
        let out = execute_predict(&req, &cache).expect("predict");

        let scene = rtcore::scenes::by_name("SPRNG").unwrap().build(7);
        let trace = TraceConfig {
            samples_per_pixel: 1,
            max_bounces: MAX_BOUNCES,
            seed: 7,
        };
        let direct = Zatel::new(&scene, gpusim::GpuConfig::mobile_soc(), 32, 32, trace)
            .run()
            .expect("direct run");
        assert_eq!(
            out.response.prediction,
            MetricValues::from_prediction(&direct),
            "service path and direct Zatel::run must agree bit-for-bit"
        );
        assert_eq!(out.response.k, direct.k);
        assert_eq!(out.response.groups.len(), direct.groups.len());
    }

    #[test]
    fn predict_is_deterministic_across_cache_temperature() {
        let req = tiny_request();
        let cache = ArtifactCache::in_memory();
        let cold = execute_predict(&req, &cache).expect("cold");
        let warm = execute_predict(&req, &cache).expect("warm");
        assert_eq!(
            cold.response.deterministic_json().to_string(),
            warm.response.deterministic_json().to_string()
        );
        assert!(
            warm.prediction.cache.iter().any(|r| r.outcome.is_hit()),
            "second execution must hit the shared cache"
        );
    }

    #[test]
    fn predict_classifies_client_errors() {
        let cache = ArtifactCache::in_memory();
        let mut unknown_scene = tiny_request();
        unknown_scene.scene = "NOPE".into();
        assert!(matches!(
            execute_predict(&unknown_scene, &cache),
            Err(ServiceError::Unprocessable(_))
        ));

        let mut bad_config = tiny_request();
        bad_config.config = ConfigRef::preset("quantum");
        assert!(matches!(
            execute_predict(&bad_config, &cache),
            Err(ServiceError::Unprocessable(_))
        ));

        let mut bad_res = tiny_request();
        bad_res.res = 0;
        assert!(matches!(
            execute_predict(&bad_res, &cache),
            Err(ServiceError::BadRequest(_))
        ));

        let mut bad_factor = tiny_request();
        let mut options = zatel::ZatelOptions::default();
        options.downscale = zatel::DownscaleMode::Factor(3);
        bad_factor.options = Some(options);
        let err = execute_predict(&bad_factor, &cache).expect_err("factor 3 must fail");
        assert!(matches!(err, ServiceError::Unprocessable(_)), "{err}");
    }

    #[test]
    fn traced_predict_is_tagged_but_deterministically_identical() {
        let req = tiny_request();
        let cache = ArtifactCache::in_memory();
        let plain = execute_predict(&req, &cache).expect("plain");
        let traced = execute_predict_traced(&req, &cache, Some("req-svc-1")).expect("traced");
        assert_eq!(traced.prediction.request_id.as_deref(), Some("req-svc-1"));
        assert_eq!(traced.response.spans[0].name, "request req-svc-1");
        assert!(plain.prediction.request_id.is_none());
        assert_eq!(
            plain.response.deterministic_json().to_string(),
            traced.response.deterministic_json().to_string(),
            "request tagging must never reach the deterministic subset"
        );
    }

    #[test]
    fn sweep_shares_the_process_cache() {
        let mut req = SweepRequest::new(
            "SPRNG",
            ConfigRef::preset("mobile"),
            zatel::SweepSpec::from_percents(&[0.2, 0.4]),
        );
        req.res = 32;
        req.spp = 1;
        let cache = Arc::new(ArtifactCache::in_memory());
        let response = execute_sweep(&req, &cache).expect("sweep");
        assert_eq!(response.points.len(), 2);
        let stats = cache.stats();
        assert!(
            stats.memory_hits > 0,
            "sweep points must reuse shared artifacts, got {stats:?}"
        );
    }
}
