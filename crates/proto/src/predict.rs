//! `POST /v1/predict` request and response DTOs.

use gpusim::Metric;
use minijson::{field, json, FromJson, JsonError, ToJson, Value};
use obs::{MetricsRegistry, SpanRecord};
use zatel::{Prediction, Reference, StageCacheRecord, ZatelOptions};

use crate::API_SCHEMA;

/// A `zatel-api-v1` prediction request: everything needed to reproduce
/// one [`zatel::Zatel`] run, with no reference to client-local files.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Benchmark scene name (see `GET /v1/scenes`).
    pub scene: String,
    /// Target GPU configuration.
    pub config: crate::ConfigRef,
    /// Square image resolution.
    pub res: u32,
    /// Samples per pixel.
    pub spp: u32,
    /// Master seed (scene build + tracing + selection).
    pub seed: u64,
    /// Pipeline options; `None` runs [`ZatelOptions::default`].
    pub options: Option<ZatelOptions>,
    /// When set, run the Section IV-F exponential-regression variant at
    /// these three traced fractions instead of linear extrapolation.
    pub regression: Option<[f64; 3]>,
    /// Also run the full reference simulation and report errors.
    pub reference: bool,
    /// Execution-only knobs (the queue deadline). Excluded from the
    /// affinity and dedup fingerprints: hints never change the computed
    /// result, so differently-hinted requests still share artifacts.
    pub hints: Option<crate::ExecutionHints>,
}

impl PredictRequest {
    /// A request with the CLI's defaults (128×128, 2 spp, seed 42,
    /// default options, no reference).
    pub fn new(scene: impl Into<String>, config: crate::ConfigRef) -> Self {
        PredictRequest {
            scene: scene.into(),
            config,
            res: 128,
            spp: 2,
            seed: 42,
            options: None,
            regression: None,
            reference: false,
            hints: None,
        }
    }

    /// Checks semantic invariants that JSON structure alone cannot
    /// express (positive resolution/spp, known option combinations).
    ///
    /// # Errors
    ///
    /// Returns a message describing the offending field.
    pub fn validate(&self) -> Result<(), String> {
        crate::validate_run(&self.scene, self.res, self.spp, self.options.as_ref())
    }

    /// The request's *affinity fingerprint*: a stable FNV-1a hash of the
    /// stage-graph prefix (scene, config, res, spp, seed) — exactly the
    /// inputs of the cacheable heatmap/quantize/divide stages. Requests
    /// with equal affinity fingerprints reuse each other's upstream
    /// artifacts. Never admission-order- or wall-clock-dependent. The
    /// server no longer reads it; the benchmark's `proto.fingerprint_us`
    /// probe still times it.
    pub fn affinity_fingerprint(&self) -> u64 {
        let mut h = rtcore::fingerprint::Fnv64::new();
        h.write_str("zatel-affinity-v1");
        h.write_str(&self.scene);
        h.write_str(&self.config.to_json().to_string());
        h.write_u32(self.res).write_u32(self.spp);
        h.write_u64(self.seed);
        h.finish()
    }

    /// The request's *dedup fingerprint*: a stable FNV-1a hash over every
    /// field except `hints` (execution-only knobs that never affect the
    /// computed result). Two requests with equal dedup fingerprints
    /// produce byte-identical deterministic subsets. Like
    /// [`PredictRequest::affinity_fingerprint`], only the benchmark still
    /// calls it.
    pub fn dedup_fingerprint(&self) -> u64 {
        let mut doc = self.to_json();
        if let Value::Object(m) = &mut doc {
            m.insert("hints".into(), Value::Null);
        }
        let mut h = rtcore::fingerprint::Fnv64::new();
        h.write_str("zatel-dedup-v1");
        h.write_str(&doc.to_string());
        h.finish()
    }
}

minijson::record! {
    PredictRequest schema(API_SCHEMA) {
        "scene" => scene,
        "config" => config,
        "res" => res,
        "spp" => spp,
        "seed" => seed,
        "options" => options,
        "regression" => regression,
        "reference" => reference: default,
        "hints" => hints,
    }
}

/// The seven predicted metric values, in [`Metric::ALL`] order.
/// Serializes as a `name → value` object keyed by [`Metric::name`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricValues(pub [f64; 7]);

impl MetricValues {
    /// The value of `metric`.
    pub fn value(&self, metric: Metric) -> f64 {
        self.0[metric.index()]
    }

    /// Collects a prediction's values.
    pub fn from_prediction(prediction: &zatel::Prediction) -> Self {
        MetricValues(Metric::ALL.map(|m| prediction.value(m)))
    }

    /// Collects a reference simulation's values.
    pub(crate) fn from_stats(stats: &gpusim::SimStats) -> Self {
        MetricValues(Metric::ALL.map(|m| m.value(stats)))
    }
}

/// Hand-written: the keys are the [`Metric::name`]s.
impl ToJson for MetricValues {
    fn to_json(&self) -> Value {
        let values = Metric::ALL.iter().zip(self.0);
        Value::Object(
            values
                .map(|(m, v)| (m.name().to_owned(), Value::from(v)))
                .collect(),
        )
    }
}

impl FromJson for MetricValues {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        minijson::object(value, "MetricValues")?;
        let mut values = [0.0; 7];
        for (slot, &metric) in values.iter_mut().zip(Metric::ALL.iter()) {
            *slot = field(value, "MetricValues", metric.name())?;
        }
        Ok(MetricValues(values))
    }
}

/// One group's outcome in a [`PredictResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupReport {
    /// Group index in `[0, K)`.
    pub index: u32,
    /// Pixels in the group.
    pub pixels: u64,
    /// Fraction of the group's pixels actually traced.
    pub traced_fraction: f64,
    /// The Eq. (1) target percentage used.
    pub target_percent: f64,
    /// Simulated cycles of the group.
    pub cycles: u64,
    /// Host wall-clock of the group's simulation, in milliseconds.
    pub wall_ms: f64,
}

impl GroupReport {
    /// Builds the report for one pipeline group outcome.
    pub(crate) fn from_outcome(outcome: &zatel::GroupOutcome) -> Self {
        GroupReport {
            index: outcome.index,
            pixels: outcome.pixels as u64,
            traced_fraction: outcome.traced_fraction,
            target_percent: outcome.target_percent,
            cycles: outcome.stats.cycles,
            wall_ms: outcome.wall.as_secs_f64() * 1000.0,
        }
    }
}

minijson::record! {
    GroupReport {
        "index" => index,
        "pixels" => pixels,
        "traced_fraction" => traced_fraction,
        "target_percent" => target_percent,
        "cycles" => cycles,
        "wall_ms" => wall_ms,
    }
}

/// The reference-simulation section of a [`PredictResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceReport {
    /// The reference's metric values.
    pub metrics: MetricValues,
    /// The reference CPI stack: `(component, share)` pairs summing to 1.
    pub cpi_stack: Vec<(String, f64)>,
}

impl ReferenceReport {
    /// Builds the report from a reference run's statistics.
    pub(crate) fn from_stats(stats: &gpusim::SimStats) -> Self {
        ReferenceReport {
            metrics: MetricValues::from_stats(stats),
            cpi_stack: stats
                .cpi_stack()
                .iter()
                .map(|(n, v)| ((*n).to_owned(), *v))
                .collect(),
        }
    }
}

/// Hand-written: the metric values render flat beside `cpi_stack`.
impl ToJson for ReferenceReport {
    fn to_json(&self) -> Value {
        let mut doc = self.metrics.to_json();
        let stack = self.cpi_stack.iter();
        let stack = stack.map(|(n, v)| json!({ "component": n.as_str(), "share": *v }));
        if let Value::Object(m) = &mut doc {
            m.insert("cpi_stack".into(), Value::Array(stack.collect()));
        }
        doc
    }
}

impl FromJson for ReferenceReport {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let metrics = MetricValues::from_json(value)?;
        let cpi_stack = field::<Option<Vec<Value>>>(value, "ReferenceReport", "cpi_stack")?
            .unwrap_or_default()
            .iter()
            .map(|e| {
                Ok((
                    field(e, "cpi_stack", "component")?,
                    field(e, "cpi_stack", "share")?,
                ))
            })
            .collect::<Result<_, JsonError>>()?;
        Ok(ReferenceReport { metrics, cpi_stack })
    }
}

/// A `zatel-api-v1` prediction response.
///
/// The request-determined sections (`scene` through `groups`, plus
/// `reference`/`mae`) are **deterministic**: for a given request they are
/// byte-identical whether served in-process, by a cold server or by a
/// warm one — [`PredictResponse::deterministic_json`] extracts exactly
/// that subset. Wall-clock timings, spans and cache outcomes vary run to
/// run and live outside it.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    /// Scene name (echo).
    pub scene: String,
    /// GPU config label (echo; preset name or inline config name).
    pub config: String,
    /// Square image resolution (echo).
    pub res: u32,
    /// Samples per pixel (echo).
    pub spp: u32,
    /// Master seed (echo).
    pub seed: u64,
    /// Downscale factor used.
    pub k: u32,
    /// The predicted metric values.
    pub prediction: MetricValues,
    /// Per-group outcomes, in group order.
    pub groups: Vec<GroupReport>,
    /// Reference simulation, when the request asked for one.
    pub reference: Option<ReferenceReport>,
    /// Mean absolute error vs the reference.
    pub mae: Option<f64>,
    /// One-core-per-group speedup vs the reference (wall-clock derived).
    pub speedup_concurrent: Option<f64>,
    /// Wall-clock of the group-simulation phase, in milliseconds.
    pub sim_wall_ms: f64,
    /// Wall-clock of the preprocessing this prediction did, in milliseconds
    /// ([`zatel::Prediction::preprocess_wall`]).
    pub preprocess_wall_ms: f64,
    /// Host wall-clock pipeline spans.
    pub spans: Vec<SpanRecord>,
    /// Artifact-cache outcomes: one row, for the heatmap stage (the only
    /// cached stage).
    pub cache: Vec<StageCacheRecord>,
    /// Folded observability registry, when the request enabled observing.
    pub metrics: Option<MetricsRegistry>,
}

impl PredictResponse {
    /// The response to `request` for a prediction of the scene named
    /// `scene`, its optional reference run and, when observed, its folded
    /// metrics: the one place a prediction's values, MAE, speedup, walls
    /// and cache outcomes become wire values ([`crate::PointRecord`]s are
    /// read off a response).
    pub fn new(
        request: &PredictRequest,
        scene: &str,
        prediction: &Prediction,
        reference: Option<&Reference>,
        metrics: Option<MetricsRegistry>,
    ) -> Self {
        let ms = |wall: std::time::Duration| wall.as_secs_f64() * 1000.0;
        PredictResponse {
            scene: scene.to_owned(),
            config: request.config.label().to_owned(),
            res: request.res,
            spp: request.spp,
            seed: request.seed,
            k: prediction.k,
            prediction: MetricValues::from_prediction(prediction),
            groups: prediction
                .groups
                .iter()
                .map(GroupReport::from_outcome)
                .collect(),
            reference: reference.map(|r| ReferenceReport::from_stats(&r.stats)),
            mae: reference.map(|r| prediction.mae_vs(&r.stats)),
            speedup_concurrent: reference.map(|r| prediction.speedup_concurrent(r)),
            sim_wall_ms: ms(prediction.sim_wall),
            preprocess_wall_ms: ms(prediction.preprocess_wall),
            spans: prediction.spans.clone(),
            cache: prediction.cache.clone(),
            metrics,
        }
    }

    /// The request ID the prediction was traced under: the name of its
    /// leading `request <id>` span, when it has one.
    pub fn request_id(&self) -> Option<&str> {
        self.spans.first()?.name.strip_prefix("request ")
    }

    /// The wall-clock-free subset of the response: byte-identical across
    /// transports, hosts and cache temperatures for the same request.
    pub fn deterministic_json(&self) -> Value {
        let mut stripped = self.clone();
        for group in &mut stripped.groups {
            group.wall_ms = 0.0;
        }
        let full = stripped.to_json();
        let keys = [
            "schema",
            "scene",
            "config",
            "res",
            "spp",
            "seed",
            "k",
            "prediction",
            "groups",
            "reference",
            "mae",
        ];
        let subset = keys.map(|k| Some((k.to_owned(), full.get(k)?.clone())));
        Value::Object(subset.into_iter().flatten().collect())
    }
}

minijson::record! {
    PredictResponse schema(API_SCHEMA) {
        "scene" => scene,
        "config" => config,
        "res" => res,
        "spp" => spp,
        "seed" => seed,
        "k" => k,
        "prediction" => prediction,
        "sim_wall_ms" => sim_wall_ms,
        "preprocess_wall_ms" => preprocess_wall_ms,
        "groups" => groups,
        "spans" => spans,
        "cache" => cache: default,
        "metrics" => metrics: skip_none,
        "reference" => reference: skip_none,
        "mae" => mae: skip_none,
        "speedup_concurrent" => speedup_concurrent: skip_none,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfigRef;

    fn sample_response() -> PredictResponse {
        PredictResponse {
            scene: "SPRNG".into(),
            config: "mobile".into(),
            res: 64,
            spp: 1,
            seed: 7,
            k: 4,
            prediction: MetricValues([1.5, 2e6, 0.25, 0.125, 0.9, 0.8, 0.4]),
            groups: vec![GroupReport {
                index: 0,
                pixels: 1024,
                traced_fraction: 0.5,
                target_percent: 0.5,
                cycles: 123_456,
                wall_ms: 12.5,
            }],
            reference: Some(ReferenceReport {
                metrics: MetricValues([1.4, 2.1e6, 0.26, 0.13, 0.88, 0.79, 0.41]),
                cpi_stack: vec![("base".into(), 0.5), ("mem".into(), 0.5)],
            }),
            mae: Some(0.05),
            speedup_concurrent: Some(9.5),
            sim_wall_ms: 100.0,
            preprocess_wall_ms: 25.0,
            spans: vec![SpanRecord {
                name: "heatmap".into(),
                track: 0,
                start_us: 0,
                dur_us: 42,
            }],
            cache: Vec::new(),
            metrics: None,
        }
    }

    #[test]
    fn request_round_trips() {
        let mut req = PredictRequest::new("PARK", ConfigRef::preset("mobile"));
        req.reference = true;
        req.regression = Some([0.2, 0.3, 0.4]);
        req.options = Some(ZatelOptions::default());
        req.hints = Some(crate::ExecutionHints {
            deadline_ms: Some(9000),
        });
        let back = PredictRequest::from_json(&req.to_json()).expect("round trip");
        assert_eq!(req, back);
    }

    #[test]
    fn hints_never_reach_the_fingerprints() {
        let plain = PredictRequest::new("PARK", ConfigRef::preset("mobile"));
        let mut hinted = plain.clone();
        hinted.hints = Some(crate::ExecutionHints {
            deadline_ms: Some(100),
        });
        assert_eq!(plain.affinity_fingerprint(), hinted.affinity_fingerprint());
        assert_eq!(plain.dedup_fingerprint(), hinted.dedup_fingerprint());
        assert_ne!(plain.to_json().to_string(), hinted.to_json().to_string());

        // Documents written for the removed hints (the intra-simulation
        // thread knobs, the dedup opt-out, `hints.jobs`) still parse, to
        // exactly the request without them.
        let mut plain = plain;
        plain.options = Some(ZatelOptions::default());
        plain.hints = Some(crate::ExecutionHints::default());
        let legacy = crate::hints::with_legacy_hints(&plain.to_json());
        let legacy = PredictRequest::from_json(&legacy).expect("legacy knobs are ignored");
        assert_eq!(legacy, plain);
        assert_eq!(legacy.dedup_fingerprint(), plain.dedup_fingerprint());

        // So does one carrying the removed top-level `deadline_ms`.
        let legacy = crate::hints::with_legacy_deadline(&plain.to_json());
        let legacy = PredictRequest::from_json(&legacy).expect("legacy deadline is ignored");
        assert_eq!(legacy, plain);
        assert_eq!(legacy.dedup_fingerprint(), plain.dedup_fingerprint());
    }

    #[test]
    fn request_defaults_optional_fields() {
        let v = Value::parse(
            r#"{"schema":"zatel-api-v1","scene":"PARK","config":"mobile",
                "res":32,"spp":1,"seed":9}"#,
        )
        .unwrap();
        let req = PredictRequest::from_json(&v).expect("minimal request");
        assert!(!req.reference);
        assert!(req.options.is_none() && req.regression.is_none());
        assert!(req.validate().is_ok());
    }

    #[test]
    fn request_rejects_wrong_or_missing_schema() {
        let missing = Value::parse(r#"{"scene":"PARK","config":"mobile"}"#).unwrap();
        let err = PredictRequest::from_json(&missing).unwrap_err();
        assert!(err.message.contains("schema"), "{err}");

        let wrong = Value::parse(
            r#"{"schema":"zatel-api-v9","scene":"PARK","config":"mobile",
                "res":32,"spp":1,"seed":9}"#,
        )
        .unwrap();
        let err = PredictRequest::from_json(&wrong).unwrap_err();
        assert!(err.message.contains("zatel-api-v9"), "{err}");
    }

    #[test]
    fn request_rejects_malformed_fields() {
        for (field, bad) in [
            ("scene", "42"),
            ("config", "[]"),
            ("res", "\"big\""),
            ("spp", "-1"),
            ("seed", "null"),
            ("regression", "[0.2, 0.3]"),
            ("regression", "[0.2, 0.3, \"x\"]"),
            ("reference", "\"yes\""),
            ("options", "{\"division\": 3}"),
            ("hints", "{\"deadline_ms\": \"soon\"}"),
            ("hints", "[]"),
        ] {
            let doc = format!(
                r#"{{"schema":"zatel-api-v1","scene":"PARK","config":"mobile",
                    "res":32,"spp":1,"seed":9,"{field}":{bad}}}"#
            );
            let v = Value::parse(&doc).unwrap();
            assert!(
                PredictRequest::from_json(&v).is_err(),
                "bad {field}={bad} accepted"
            );
        }
    }

    #[test]
    fn request_validate_bounds() {
        let mut req = PredictRequest::new("PARK", ConfigRef::preset("mobile"));
        assert!(req.validate().is_ok());
        req.res = 0;
        assert!(req.validate().unwrap_err().contains("res"));
        req.res = 64;
        req.spp = 0;
        assert!(req.validate().unwrap_err().contains("spp"));
        req.spp = 1;
        req.scene = String::new();
        assert!(req.validate().unwrap_err().contains("scene"));
    }

    #[test]
    fn response_round_trips() {
        let resp = sample_response();
        let back = PredictResponse::from_json(&resp.to_json()).expect("round trip");
        assert_eq!(resp, back);
    }

    #[test]
    fn response_rejects_malformed_documents() {
        // Wrong schema.
        let mut doc = sample_response().to_json();
        if let Value::Object(m) = &mut doc {
            m.insert("schema".into(), Value::from("zatel-api-v2"));
        }
        assert!(PredictResponse::from_json(&doc).is_err());

        // Missing prediction section.
        let v = Value::parse(r#"{"schema":"zatel-api-v1","scene":"X"}"#).unwrap();
        assert!(PredictResponse::from_json(&v).is_err());

        // Prediction section missing a metric, and optional sections
        // present with the wrong type.
        for (key, bad) in [
            ("prediction", "{}"),
            ("mae", "\"low\""),
            ("speedup_concurrent", "[]"),
            ("cache", "{}"),
            ("metrics", "3"),
        ] {
            let mut doc = sample_response().to_json();
            if let Value::Object(m) = &mut doc {
                m.insert(key.into(), Value::parse(bad).unwrap());
            }
            assert!(
                PredictResponse::from_json(&doc).is_err(),
                "bad {key}={bad} accepted"
            );
        }
    }

    #[test]
    fn deterministic_json_strips_wall_clock() {
        let mut a = sample_response();
        let mut b = sample_response();
        a.sim_wall_ms = 1.0;
        b.sim_wall_ms = 999.0;
        a.groups[0].wall_ms = 3.25;
        b.groups[0].wall_ms = 88.0;
        b.spans.clear();
        a.speedup_concurrent = Some(2.0);
        b.speedup_concurrent = Some(40.0);
        assert_eq!(
            a.deterministic_json().to_string(),
            b.deterministic_json().to_string(),
            "wall-clock differences must not reach the deterministic subset"
        );
        assert_ne!(a.to_json().to_string(), b.to_json().to_string());
    }

    #[test]
    fn metric_values_round_trip_and_reject_missing() {
        let mv = MetricValues([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let back = MetricValues::from_json(&mv.to_json()).unwrap();
        assert_eq!(mv, back);
        assert_eq!(mv.value(Metric::SimCycles), mv.0[1]);
        assert!(MetricValues::from_json(&Value::parse("{}").unwrap()).is_err());
    }
}
