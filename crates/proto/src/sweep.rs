//! `POST /v1/sweep` request and response DTOs, and the point records
//! they carry.

use std::path::Path;

use minijson::{FromJson, Value};
use zatel::{CacheStats, StageCacheRecord, SweepPointSpec, SweepSpec, ZatelOptions};

use crate::{MetricValues, PredictResponse, API_SCHEMA, SWEEP_RECORD_SCHEMA};

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
        crate::validate_run(&self.scene, self.res, self.spp, self.options.as_ref())?;
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

/// One `zatel-sweep-v1` prediction record: the request echo, the point's
/// label and overrides, and what the prediction measured. It is every
/// [`SweepResponse`] point, every `zatel sweep --runs-out` line and the
/// line `zatel report --run` appends to the run history.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Scene name.
    pub scene: String,
    /// GPU config label.
    pub config: String,
    /// Square image resolution.
    pub res: u32,
    /// Samples per pixel.
    pub spp: u32,
    /// Master seed.
    pub seed: u64,
    /// The point's label (`predict` for a single prediction).
    pub label: String,
    /// The point's option overrides.
    pub point: SweepPointSpec,
    /// Downscale factor used.
    pub k: u32,
    /// The predicted metric values.
    pub prediction: MetricValues,
    /// Mean absolute error vs the reference, when there was one.
    pub mae: Option<f64>,
    /// One-core-per-group speedup vs the reference (wall-clock derived).
    pub speedup_concurrent: Option<f64>,
    /// Wall-clock of the group-simulation phase, in milliseconds.
    pub sim_wall_ms: f64,
    /// Wall-clock of the preprocessing this prediction did, in milliseconds
    /// ([`zatel::Prediction::preprocess_wall`]).
    pub preprocess_wall_ms: f64,
    /// Per-stage artifact-cache outcomes, in pipeline order.
    pub cache: Vec<StageCacheRecord>,
}

minijson::record! {
    PointRecord schema(SWEEP_RECORD_SCHEMA) {
        "scene" => scene,
        "config" => config,
        "res" => res,
        "spp" => spp,
        "seed" => seed,
        "label" => label,
        "point" => point,
        "k" => k,
        "prediction" => prediction,
        "mae" => mae: skip_none,
        "speedup_concurrent" => speedup_concurrent: skip_none,
        "sim_wall_ms" => sim_wall_ms,
        "preprocess_wall_ms" => preprocess_wall_ms,
        "cache" => cache,
    }
}

impl PointRecord {
    /// The record of `response`, labelled by the `point` that produced it
    /// ([`SweepPointSpec::named`]`("predict")` for a single prediction).
    pub fn new(point: SweepPointSpec, response: &PredictResponse) -> Self {
        PointRecord {
            scene: response.scene.clone(),
            config: response.config.clone(),
            res: response.res,
            spp: response.spp,
            seed: response.seed,
            label: point.label.clone(),
            point,
            k: response.k,
            prediction: response.prediction,
            mae: response.mae,
            speedup_concurrent: response.speedup_concurrent,
            sim_wall_ms: response.sim_wall_ms,
            preprocess_wall_ms: response.preprocess_wall_ms,
            cache: response.cache.clone(),
        }
    }
}

/// Reads a run-history file (`runs.jsonl`): one [`PointRecord`] per line,
/// blank lines ignored.
///
/// # Errors
///
/// Returns a message when the file cannot be read, holds no records, or a
/// line is not a record; each says how to record a run
/// (`zatel predict --run-out` + `zatel report --run`, or
/// `zatel sweep --runs-out`).
pub fn read_history(path: &Path) -> Result<Vec<PointRecord>, String> {
    let shown = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read run history '{shown}': {e}; record runs with \
             'zatel predict --run-out run.json' then 'zatel report --run run.json', \
             or 'zatel sweep --runs-out {shown}'"
        )
    })?;
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Value::parse(line)
            .and_then(|value| PointRecord::from_json(&value))
            .map_err(|e| format!("run history '{shown}' line {}: {e}", lineno + 1))?;
        records.push(record);
    }
    if records.is_empty() {
        return Err(format!(
            "run history '{shown}' holds no runs yet; record one with \
             'zatel report --run run.json' or 'zatel sweep --runs-out {shown}'"
        ));
    }
    Ok(records)
}

/// A `zatel-api-v1` sweep response: per-point records plus the shared
/// cache's cumulative counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResponse {
    /// Scene name (echo).
    pub scene: String,
    /// GPU config label (echo).
    pub config: String,
    /// Per-point records, in run order.
    pub points: Vec<PointRecord>,
    /// Cumulative artifact-cache counters after the sweep.
    pub cache_stats: CacheStats,
}

minijson::record! {
    SweepResponse schema(API_SCHEMA) {
        "scene" => scene,
        "config" => config,
        "points" => points,
        "cache_stats" => cache_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfigRef;
    use minijson::ToJson;

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
            deadline_ms: Some(2000),
        });
        let back = SweepRequest::from_json(&req.to_json()).expect("round trip");
        assert_eq!(req, back);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn removed_hints_parse_to_the_request_without_them() {
        // Documents written for the removed hints (the intra-simulation
        // thread knobs, the dedup opt-out, `hints.jobs`) still parse, to
        // exactly the request without them.
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
                    "hints":{"deadline_ms":"soon"}}"#,
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

    /// The record of SPRNG's one 30 % point at 32², 1 spp, seed 42.
    fn sample_point() -> PointRecord {
        let scene = rtcore::scenes::SceneId::Sprng.build(42);
        let trace = rtcore::tracer::TraceConfig {
            samples_per_pixel: 1,
            max_bounces: 2,
            seed: 42,
        };
        let base = zatel::Zatel::new(&scene, gpusim::GpuConfig::mobile_soc(), 32, 32, trace);
        let spec = SweepSpec::from_percents(&[0.3]);
        let (outcomes, _) = zatel::SweepDriver::new(base)
            .run(&spec, false)
            .expect("sweep runs");
        let mut request = crate::PredictRequest::new(scene.name(), ConfigRef::preset("mobile"));
        request.res = 32;
        request.spp = 1;
        let response =
            PredictResponse::new(&request, scene.name(), &outcomes[0].prediction, None, None);
        PointRecord::new(outcomes[0].point.clone(), &response)
    }

    #[test]
    fn response_round_trips_and_pins_point_schema() {
        let resp = SweepResponse {
            scene: "SPRNG".into(),
            config: "mobile".into(),
            points: vec![sample_point()],
            cache_stats: zatel::CacheStats {
                memory_hits: 3,
                misses: 2,
                ..zatel::CacheStats::default()
            },
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
        let record = sample_point();
        let rec = record.to_json();
        let keys = "schema scene config res spp seed label point k prediction sim_wall_ms \
                    preprocess_wall_ms cache";
        for key in keys.split_whitespace() {
            assert!(rec.get(key).is_some(), "missing history key {key}");
        }
        assert!(rec.get("mae").is_none(), "no reference, no MAE");
        assert_eq!(
            rec.get("schema").and_then(Value::as_str),
            Some(SWEEP_RECORD_SCHEMA)
        );
        assert_eq!(PointRecord::from_json(&rec).expect("round trip"), record);
    }

    #[test]
    fn load_history_reports_clear_errors() {
        let dir = std::env::temp_dir().join("zatel-sweep-history-test");
        std::fs::create_dir_all(&dir).unwrap();

        let missing = dir.join("missing.jsonl");
        let _ = std::fs::remove_file(&missing);
        let err = read_history(&missing).unwrap_err();
        assert!(err.contains("--run"), "hints at --run: {err}");

        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "\n\n").unwrap();
        let err = read_history(&empty).unwrap_err();
        assert!(err.contains("no runs"), "{err}");

        let point = sample_point().to_json().to_string();
        let malformed = dir.join("bad.jsonl");
        std::fs::write(&malformed, format!("{point}\nnot json\n")).unwrap();
        let err = read_history(&malformed).unwrap_err();
        assert!(err.contains("line 2"), "{err}");

        // A line that is JSON but not a point record is named too.
        std::fs::write(&malformed, format!("{point}\n{{\"scene\": \"PARK\"}}\n")).unwrap();
        let err = read_history(&malformed).unwrap_err();
        assert!(err.contains("line 2") && err.contains("schema"), "{err}");

        let good = dir.join("good.jsonl");
        let mut ship = sample_point();
        ship.scene = "SHIP".into();
        let ship = ship.to_json().to_string();
        std::fs::write(&good, format!("{point}\n\n{ship}\n")).unwrap();
        let records = read_history(&good).expect("valid history");
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].scene, "SHIP");
    }
}
