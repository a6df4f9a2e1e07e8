//! `POST /v1/sweep` request and response DTOs.

use minijson::{field, JsonError, ToJson, Value};
use zatel::{SweepOutcome, SweepSpec, ZatelOptions};

use crate::{MetricValues, API_SCHEMA, SWEEP_RECORD_SCHEMA};

/// A `zatel-api-v1` sweep request: one base pipeline plus a
/// [`SweepSpec`] of per-point overrides, all served through a shared
/// artifact cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
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
    /// Base pipeline options; per-point overrides are applied on top.
    pub options: Option<ZatelOptions>,
    /// The points to run.
    pub spec: SweepSpec,
    /// Also run the full reference simulation and report per-point errors.
    pub reference: bool,
    /// Execution-only knobs, as in [`crate::PredictRequest::hints`].
    pub hints: Option<crate::ExecutionHints>,
}

impl SweepRequest {
    /// A sweep of `spec` with the CLI's defaults (128×128, 2 spp,
    /// seed 42, default options, no reference).
    pub fn new(scene: impl Into<String>, config: crate::ConfigRef, spec: SweepSpec) -> Self {
        SweepRequest {
            scene: scene.into(),
            config,
            res: 128,
            spp: 2,
            seed: 42,
            options: None,
            spec,
            reference: false,
            hints: None,
        }
    }

    /// Checks semantic invariants, mirroring
    /// [`crate::PredictRequest::validate`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the offending field.
    pub fn validate(&self) -> Result<(), String> {
        crate::validate_run(
            &self.scene,
            self.res,
            self.spp,
            self.options.as_ref(),
            self.hints.as_ref(),
        )?;
        if self.spec.points.is_empty() {
            return Err("sweep spec must contain at least one point".into());
        }
        if self.spec.points.len() > 256 {
            return Err(format!(
                "sweep spec must contain at most 256 points, got {}",
                self.spec.points.len()
            ));
        }
        Ok(())
    }
}

minijson::record! {
    SweepRequest schema(API_SCHEMA) {
        "scene" => scene,
        "config" => config,
        "res" => res,
        "spp" => spp,
        "seed" => seed,
        "options" => options,
        "spec" => spec,
        "reference" => reference: default,
        "hints" => hints,
    }
}

/// Builds one `zatel-sweep-v1` point record — the exact per-point shape
/// `zatel sweep --runs-out` has always appended to history files, now
/// shared by the CLI and the server so the two can never drift.
pub fn sweep_point_record(
    config_label: &str,
    scene_name: &str,
    res: u32,
    spp: u32,
    seed: u64,
    outcome: &SweepOutcome,
    reference: Option<&zatel::Reference>,
) -> Value {
    let pred = &outcome.prediction;
    let ms = |wall: std::time::Duration| Some((wall.as_secs_f64() * 1000.0).to_json());
    let entries = [
        ("schema", Some(SWEEP_RECORD_SCHEMA.to_json())),
        ("scene", Some(scene_name.to_json())),
        ("config", Some(config_label.to_json())),
        ("res", Some(res.to_json())),
        ("spp", Some(spp.to_json())),
        ("seed", Some(seed.to_json())),
        ("label", Some(outcome.point.label.to_json())),
        ("point", Some(outcome.point.to_json())),
        ("k", Some(pred.k.to_json())),
        (
            "prediction",
            Some(MetricValues::from_prediction(pred).to_json()),
        ),
        ("mae", reference.map(|r| pred.mae_vs(&r.stats).to_json())),
        (
            "speedup_concurrent",
            reference.map(|r| pred.speedup_concurrent(r).to_json()),
        ),
        ("sim_wall_ms", ms(pred.sim_wall)),
        ("preprocess_wall_ms", ms(pred.preprocess_wall)),
        ("cache", Some(pred.cache.to_json())),
    ];
    let present = entries
        .into_iter()
        .filter_map(|(k, v)| Some((k.to_owned(), v?)));
    Value::Object(present.collect())
}

/// A `zatel-api-v1` sweep response: per-point `zatel-sweep-v1` records
/// plus the shared cache's cumulative counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResponse {
    /// Scene name (echo).
    pub scene: String,
    /// GPU config label (echo).
    pub config: String,
    /// Per-point records (see [`sweep_point_record`]), in run order.
    pub points: Vec<Value>,
    /// Cumulative artifact-cache counters after the sweep
    /// (`memory_hits`/`disk_hits`/`misses`).
    pub cache_stats: Value,
}

minijson::record! {
    SweepResponse schema(API_SCHEMA) check(zatel_sweep_v1_points) {
        "scene" => scene,
        "config" => config,
        "points" => points,
        "cache_stats" => cache_stats,
    }
}

/// Every point must be a `zatel-sweep-v1` record.
fn zatel_sweep_v1_points(response: &SweepResponse) -> Result<(), JsonError> {
    for point in &response.points {
        let schema: String = field(point, "sweep point", "schema")?;
        if schema != SWEEP_RECORD_SCHEMA {
            return Err(JsonError::conversion(format!(
                "SweepResponse: point carries unsupported record schema '{schema}'"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfigRef;
    use minijson::FromJson;

    #[test]
    fn request_round_trips() {
        let mut req = SweepRequest::new(
            "PARK",
            ConfigRef::preset("mobile"),
            SweepSpec::from_percents(&[0.1, 0.3]),
        );
        req.reference = true;
        req.options = Some(ZatelOptions::default());
        req.hints = Some(crate::ExecutionHints {
            jobs: Some(2),
            ..crate::ExecutionHints::default()
        });
        let back = SweepRequest::from_json(&req.to_json()).expect("round trip");
        assert_eq!(req, back);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn removed_hints_parse_to_the_request_without_them() {
        // Documents written for the removed hints (the intra-simulation
        // thread knobs, the dedup opt-out) still parse, to exactly the
        // request without them.
        let mut plain = SweepRequest::new(
            "PARK",
            ConfigRef::preset("mobile"),
            SweepSpec::from_percents(&[0.1]),
        );
        plain.options = Some(ZatelOptions::default());
        plain.hints = Some(crate::ExecutionHints::default());
        let legacy = crate::hints::with_legacy_hints(&plain.to_json());
        let legacy = SweepRequest::from_json(&legacy).expect("legacy hints are ignored");
        assert_eq!(legacy, plain);
        // So does one carrying the removed top-level `deadline_ms`.
        let legacy = crate::hints::with_legacy_deadline(&plain.to_json());
        let legacy = SweepRequest::from_json(&legacy).expect("legacy deadline is ignored");
        assert_eq!(legacy, plain);
        assert!(SweepRequest::from_json(
            &Value::parse(
                r#"{"schema":"zatel-api-v1","scene":"PARK","config":"mobile",
                    "res":32,"spp":1,"seed":9,
                    "spec":{"points":[{"label":"a","percent":0.5}]},
                    "hints":{"jobs":"many"}}"#,
            )
            .unwrap()
        )
        .is_err());
    }

    #[test]
    fn request_rejects_malformed_documents() {
        // No schema at all.
        let v = Value::parse(r#"{"scene":"PARK"}"#).unwrap();
        assert!(SweepRequest::from_json(&v).is_err());
        // Missing spec.
        let v = Value::parse(
            r#"{"schema":"zatel-api-v1","scene":"PARK","config":"mobile",
                "res":32,"spp":1,"seed":9}"#,
        )
        .unwrap();
        let err = SweepRequest::from_json(&v).unwrap_err();
        assert!(err.message.contains("spec"), "{err}");
        // Spec of the wrong type.
        let v = Value::parse(
            r#"{"schema":"zatel-api-v1","scene":"PARK","config":"mobile",
                "res":32,"spp":1,"seed":9,"spec":"everything"}"#,
        )
        .unwrap();
        assert!(SweepRequest::from_json(&v).is_err());
    }

    #[test]
    fn request_validate_rejects_empty_and_oversized_specs() {
        let mut req = SweepRequest::new(
            "PARK",
            ConfigRef::preset("mobile"),
            SweepSpec { points: Vec::new() },
        );
        assert!(req.validate().unwrap_err().contains("at least one point"));
        req.spec = SweepSpec::from_percents(&vec![0.5; 257]);
        assert!(req.validate().unwrap_err().contains("at most 256"));
    }

    #[test]
    fn response_round_trips_and_pins_point_schema() {
        let point = Value::parse(r#"{"schema":"zatel-sweep-v1","label":"default"}"#).unwrap();
        let resp = SweepResponse {
            scene: "PARK".into(),
            config: "mobile".into(),
            points: vec![point],
            cache_stats: Value::parse(r#"{"memory_hits":3,"disk_hits":0,"misses":2}"#).unwrap(),
        };
        let back = SweepResponse::from_json(&resp.to_json()).expect("round trip");
        assert_eq!(resp, back);

        let mut doc = resp.to_json();
        if let Value::Object(m) = &mut doc {
            m.insert(
                "points".into(),
                Value::parse(r#"[{"schema":"zatel-sweep-v2"}]"#).unwrap(),
            );
        }
        let err = SweepResponse::from_json(&doc).unwrap_err();
        assert!(err.message.contains("zatel-sweep-v2"), "{err}");
    }

    #[test]
    fn point_record_matches_history_shape() {
        let scene = rtcore::scenes::SceneId::Park.build(42);
        let trace = rtcore::tracer::TraceConfig {
            samples_per_pixel: 1,
            max_bounces: 2,
            seed: 42,
        };
        let base = zatel::Zatel::new(&scene, gpusim::GpuConfig::mobile_soc(), 32, 32, trace);
        let driver = zatel::SweepDriver::new(base);
        let outcomes = driver
            .run(&SweepSpec::from_percents(&[0.3]))
            .expect("sweep runs");
        let rec = sweep_point_record("mobile", scene.name(), 32, 1, 42, &outcomes[0], None);
        for key in [
            "schema",
            "scene",
            "config",
            "res",
            "spp",
            "seed",
            "label",
            "point",
            "k",
            "prediction",
            "sim_wall_ms",
            "preprocess_wall_ms",
            "cache",
        ] {
            assert!(rec.get(key).is_some(), "missing history key {key}");
        }
        assert_eq!(
            rec.get("schema").and_then(Value::as_str),
            Some(SWEEP_RECORD_SCHEMA)
        );
        assert!(rec
            .get("prediction")
            .and_then(|p| p.get("GPU Sim Cycles"))
            .and_then(Value::as_f64)
            .is_some());
    }
}
