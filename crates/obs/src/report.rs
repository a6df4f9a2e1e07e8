//! Run reports: turning a persisted `zatel-run-v1` record back into
//! something a human can read.
//!
//! The `zatel predict --run-out run.json` flag persists one JSON record per
//! run; `zatel report --run run.json` feeds it through [`render`] (a plain
//! text report), [`summary_line`] (one compact JSON line for a
//! `runs.jsonl` history file) and optionally [`heatmap_pgm`] (the
//! execution-time heatmap as a binary PGM image).
//!
//! A `zatel-run-v1` record is an object with at least `schema`, `scene`
//! and `k`; the renderer degrades gracefully when optional sections
//! (`groups`, `spans`, `metrics`, `reference`, `heatmap`) are absent, so
//! records written by older or newer emitters still produce a report.

use std::fmt::Write as _;

use minijson::{Map, Value};

use crate::registry::{bucket_lower, bucket_upper};

/// The schema tag every run record must carry.
pub const RUN_SCHEMA: &str = "zatel-run-v1";

fn field<'v>(run: &'v Value, key: &str) -> Result<&'v Value, String> {
    run.get(key)
        .ok_or_else(|| format!("run record is missing '{key}'"))
}

fn check_schema(run: &Value) -> Result<(), String> {
    let schema = field(run, "schema")?
        .as_str()
        .ok_or("'schema' is not a string")?;
    if schema != RUN_SCHEMA {
        return Err(format!(
            "unsupported run schema '{schema}' (expected '{RUN_SCHEMA}')"
        ));
    }
    Ok(())
}

fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// Renders a full plain-text report of a `zatel-run-v1` record.
///
/// # Errors
///
/// Returns a message when the record is not a `zatel-run-v1` object.
pub fn render(run: &Value) -> Result<String, String> {
    check_schema(run)?;
    let mut out = String::new();
    let str_of = |key: &str| run.get(key).and_then(Value::as_str).unwrap_or("?");
    let u64_of = |key: &str| run.get(key).and_then(Value::as_u64).unwrap_or(0);
    let _ = writeln!(
        out,
        "zatel run: scene {} on {} at {}x{} (spp {}, seed {})",
        str_of("scene"),
        str_of("config"),
        u64_of("res"),
        u64_of("res"),
        u64_of("spp"),
        u64_of("seed"),
    );
    let _ = writeln!(
        out,
        "  K = {}, division {}, distribution {}",
        u64_of("k"),
        str_of("division"),
        str_of("dist"),
    );
    if let Some(id) = run.get("request_id").and_then(Value::as_str) {
        let _ = writeln!(out, "  request {id}");
    }

    if let Some(groups) = run.get("groups").and_then(Value::as_array) {
        let _ = writeln!(out, "\nper-group results:");
        let _ = writeln!(
            out,
            "  {:>5} {:>9} {:>8} {:>14} {:>10}",
            "group", "pixels", "traced", "cycles", "wall ms"
        );
        for g in groups {
            let _ = writeln!(
                out,
                "  {:>5} {:>9} {:>7.1}% {:>14} {:>10.2}",
                g.get("index").and_then(Value::as_u64).unwrap_or(0),
                g.get("pixels").and_then(Value::as_u64).unwrap_or(0),
                100.0 * g.get("traced_fraction").map(num).unwrap_or(f64::NAN),
                g.get("cycles").and_then(Value::as_u64).unwrap_or(0),
                g.get("wall_ms").map(num).unwrap_or(f64::NAN),
            );
        }
    }

    if let Some(spans) = run.get("spans").and_then(Value::as_array) {
        if !spans.is_empty() {
            let _ = writeln!(out, "\npipeline spans (host wall-clock):");
            let total: u64 = spans
                .iter()
                .filter(|s| s.get("track").and_then(Value::as_u64) == Some(0))
                .map(|s| s.get("dur_us").and_then(Value::as_u64).unwrap_or(0))
                .sum();
            for s in spans {
                let name = s.get("name").and_then(Value::as_str).unwrap_or("?");
                let track = s.get("track").and_then(Value::as_u64).unwrap_or(0);
                let dur = s.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
                let share = if total > 0 && track == 0 {
                    format!(" ({:.0}%)", 100.0 * dur as f64 / total as f64)
                } else {
                    String::new()
                };
                let indent = if track == 0 { "" } else { "  " };
                let _ = writeln!(
                    out,
                    "  {indent}{name:<24} {:>10.2} ms{share}",
                    dur as f64 / 1000.0
                );
            }
        }
    }

    if let Some(metrics) = run.get("metrics").and_then(Value::as_object) {
        let _ = writeln!(out, "\nsimulation metrics:");
        for (name, entry) in metrics.iter() {
            match entry.get("type").and_then(Value::as_str) {
                Some("counter") | Some("gauge") => {
                    let v = entry.get("value").map(num).unwrap_or(f64::NAN);
                    let _ = writeln!(out, "  {name:<28} {v}");
                }
                Some("histogram") => {
                    render_histogram(&mut out, name, entry);
                }
                _ => {}
            }
        }
    }

    if let Some(reference) = run.get("reference").and_then(Value::as_object) {
        let prediction = run.get("prediction").and_then(Value::as_object);
        let _ = writeln!(out, "\npredicted vs reference:");
        let _ = writeln!(
            out,
            "  {:<22} {:>14} {:>14} {:>8}",
            "metric", "Zatel", "reference", "error"
        );
        for (name, r) in reference.iter() {
            let r = num(r);
            let p = prediction
                .and_then(|p| p.get(name))
                .map(num)
                .unwrap_or(f64::NAN);
            let err = if r.abs() > 0.0 {
                100.0 * (p - r).abs() / r.abs()
            } else if p == r {
                0.0
            } else {
                f64::INFINITY
            };
            let _ = writeln!(out, "  {name:<22} {p:>14.4} {r:>14.4} {err:>7.1}%");
        }
        if let Some(mae) = run.get("mae") {
            let _ = writeln!(out, "  MAE = {:.1}%", 100.0 * num(mae));
        }
        if let Some(s) = run.get("speedup_concurrent") {
            let _ = writeln!(out, "  speedup (1 core/group) = {:.1}x", num(s));
        }
    } else if let Some(prediction) = run.get("prediction").and_then(Value::as_object) {
        let _ = writeln!(out, "\npredicted metrics:");
        for (name, v) in prediction.iter() {
            let _ = writeln!(out, "  {name:<22} {:>14.4}", num(v));
        }
    }

    Ok(out)
}

/// Width of the widest histogram bar in [`render`].
const BAR_WIDTH: usize = 40;

fn render_histogram(out: &mut String, name: &str, entry: &Value) {
    let count = entry.get("count").and_then(Value::as_u64).unwrap_or(0);
    let _ = writeln!(
        out,
        "  {name} (count {count}, min {}, max {}):",
        entry.get("min").and_then(Value::as_u64).unwrap_or(0),
        entry.get("max").and_then(Value::as_u64).unwrap_or(0),
    );
    let Some(buckets) = entry.get("buckets").and_then(Value::as_array) else {
        return;
    };
    let peak = buckets
        .iter()
        .filter_map(|b| b.get("count").and_then(Value::as_u64))
        .max()
        .unwrap_or(0)
        .max(1);
    for b in buckets {
        let le = b.get("le").and_then(Value::as_u64).unwrap_or(0);
        let c = b.get("count").and_then(Value::as_u64).unwrap_or(0);
        let idx = crate::registry::bucket_of(le);
        let label = if idx == 0 {
            "0".to_owned()
        } else {
            format!("{}–{}", bucket_lower(idx), bucket_upper(idx))
        };
        let bar = "#".repeat(((c as f64 / peak as f64) * BAR_WIDTH as f64).ceil() as usize);
        let _ = writeln!(out, "    {label:>21} |{bar:<BAR_WIDTH$}| {c}");
    }
}

/// Produces the one-line compact-JSON summary appended to `runs.jsonl`.
///
/// # Errors
///
/// Returns a message when the record is not a `zatel-run-v1` object.
pub fn summary_line(run: &Value) -> Result<String, String> {
    check_schema(run)?;
    let mut line = Map::new();
    for key in ["scene", "config", "division", "dist"] {
        if let Some(v) = run.get(key).and_then(Value::as_str) {
            line.insert(key.into(), Value::from(v));
        }
    }
    for key in ["res", "spp", "seed", "k"] {
        if let Some(v) = run.get(key).and_then(Value::as_u64) {
            line.insert(key.into(), Value::from(v));
        }
    }
    if let Some(groups) = run.get("groups").and_then(Value::as_array) {
        line.insert("groups".into(), Value::from(groups.len() as u64));
    }
    if let Some(cycles) = run
        .get("prediction")
        .and_then(|p| p.get("GPU Sim Cycles"))
        .map(num)
    {
        line.insert("cycles".into(), Value::from(cycles));
    }
    line.insert("mae".into(), run.get("mae").cloned().unwrap_or(Value::Null));
    if let Some(wall) = run.get("sim_wall_ms") {
        line.insert("sim_wall_ms".into(), wall.clone());
    }
    Ok(Value::Object(line).to_string())
}

/// Encodes the record's execution-time heatmap as a binary PGM (P5) image.
///
/// # Errors
///
/// Returns a message when the record carries no well-formed `heatmap`
/// section (`width`, `height`, and `width * height` byte `values`).
pub fn heatmap_pgm(run: &Value) -> Result<Vec<u8>, String> {
    check_schema(run)?;
    let heatmap = field(run, "heatmap")?;
    let width = heatmap
        .get("width")
        .and_then(Value::as_u64)
        .ok_or("heatmap is missing 'width'")?;
    let height = heatmap
        .get("height")
        .and_then(Value::as_u64)
        .ok_or("heatmap is missing 'height'")?;
    let values = heatmap
        .get("values")
        .and_then(Value::as_array)
        .ok_or("heatmap is missing 'values'")?;
    if values.len() as u64 != width * height {
        return Err(format!(
            "heatmap has {} values for {width}x{height} pixels",
            values.len()
        ));
    }
    let mut pgm = format!("P5\n{width} {height}\n255\n").into_bytes();
    for v in values {
        let v = v.as_u64().ok_or("heatmap value is not an integer")?;
        pgm.push(v.min(255) as u8);
    }
    Ok(pgm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use minijson::ToJson;

    fn sample_run() -> Value {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("l1_hits", 12);
        for v in [3u64, 3, 900] {
            reg.observe("mem_read_latency_cycles", v);
        }
        let text = format!(
            r#"{{
              "schema": "{RUN_SCHEMA}",
              "scene": "SPRNG", "config": "mobile",
              "res": 64, "spp": 1, "seed": 9, "k": 4,
              "division": "fine", "dist": "uniform",
              "prediction": {{"GPU Sim Cycles": 120000.0, "GPU IPC": 1.5}},
              "reference": {{"GPU Sim Cycles": 110000.0, "GPU IPC": 1.4}},
              "mae": 0.07,
              "speedup_concurrent": 9.5,
              "sim_wall_ms": 42.5,
              "groups": [
                {{"index": 0, "pixels": 1024, "traced_fraction": 0.25,
                  "cycles": 30000, "wall_ms": 10.0}},
                {{"index": 1, "pixels": 1024, "traced_fraction": 0.5,
                  "cycles": 32000, "wall_ms": 12.0}}
              ],
              "spans": [
                {{"name": "heatmap", "track": 0, "start_us": 0, "dur_us": 5000}},
                {{"name": "simulate-groups", "track": 0, "start_us": 5000, "dur_us": 20000}},
                {{"name": "group 0", "track": 1, "start_us": 5100, "dur_us": 9000}}
              ],
              "heatmap": {{"width": 2, "height": 2, "values": [0, 128, 255, 300]}},
              "metrics": {}
            }}"#,
            reg.to_json()
        );
        Value::parse(&text).expect("sample run parses")
    }

    #[test]
    fn render_covers_every_section() {
        let report = render(&sample_run()).unwrap();
        assert!(report.contains("scene SPRNG on mobile at 64x64"));
        assert!(report.contains("per-group results"));
        assert!(report.contains("pipeline spans"));
        assert!(report.contains("simulate-groups"));
        assert!(report.contains("mem_read_latency_cycles (count 3"));
        assert!(report.contains('#'), "histogram bars rendered");
        assert!(report.contains("predicted vs reference"));
        assert!(report.contains("MAE = 7.0%"));
        assert!(report.contains("speedup (1 core/group) = 9.5x"));
    }

    #[test]
    fn render_prints_request_id_and_ignores_a_legacy_concurrency_key() {
        let mut run = sample_run();
        if let Value::Object(m) = &mut run {
            m.insert("request_id".into(), Value::from("req-cafe-0001"));
            // Run records written before the engine became single-threaded
            // carry a `concurrency` registry snapshot; it is not rendered.
            let mut conc = MetricsRegistry::new();
            conc.counter_add("sim_commit_wall_us", 10000);
            m.insert("concurrency".into(), conc.to_json());
        }
        let report = render(&run).unwrap();
        assert!(report.contains("request req-cafe-0001"), "{report}");
        assert!(!report.contains("concurrency"), "{report}");
    }

    #[test]
    fn render_degrades_without_optional_sections() {
        let minimal = Value::parse(&format!(
            r#"{{"schema": "{RUN_SCHEMA}", "scene": "PARK", "k": 4}}"#
        ))
        .unwrap();
        let report = render(&minimal).unwrap();
        assert!(report.contains("scene PARK"));
        assert!(!report.contains("per-group results"));
    }

    #[test]
    fn render_rejects_wrong_schema() {
        let bad = Value::parse(r#"{"schema": "zatel-run-v0"}"#).unwrap();
        assert!(render(&bad).unwrap_err().contains("unsupported"));
        assert!(render(&Value::parse("{}").unwrap())
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn summary_line_is_single_line_json() {
        let line = summary_line(&sample_run()).unwrap();
        assert!(!line.contains('\n'));
        let parsed = Value::parse(&line).unwrap();
        assert_eq!(parsed.get("scene").and_then(Value::as_str), Some("SPRNG"));
        assert_eq!(parsed.get("groups").and_then(Value::as_u64), Some(2));
        assert_eq!(
            parsed.get("cycles").and_then(|v| v.as_f64()),
            Some(120000.0)
        );
        assert_eq!(parsed.get("mae").and_then(|v| v.as_f64()), Some(0.07));
    }

    #[test]
    fn summary_line_reports_null_mae_without_reference() {
        let mut run = sample_run();
        if let Value::Object(m) = &mut run {
            m.insert("mae".into(), Value::Null);
        }
        let line = summary_line(&run).unwrap();
        assert!(line.contains("\"mae\":null"), "line: {line}");
    }

    #[test]
    fn heatmap_pgm_emits_p5_with_clamping() {
        let pgm = heatmap_pgm(&sample_run()).unwrap();
        assert!(pgm.starts_with(b"P5\n2 2\n255\n"));
        assert_eq!(&pgm[pgm.len() - 4..], &[0u8, 128, 255, 255]);
    }

    #[test]
    fn heatmap_pgm_checks_dimensions() {
        let mut run = sample_run();
        if let Value::Object(m) = &mut run {
            m.insert(
                "heatmap".into(),
                Value::parse(r#"{"width": 3, "height": 2, "values": [1]}"#).unwrap(),
            );
        }
        assert!(heatmap_pgm(&run).unwrap_err().contains("1 values"));
    }
}
