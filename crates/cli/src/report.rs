//! Plain-text renderings of the typed prediction records: a predict
//! response ([`render_predict`]), a persisted `zatel-run-v2` record
//! ([`render_run`], plus its heatmap as a PGM image, [`heatmap_pgm`]) and a
//! list of point records — a sweep's points or the run history
//! ([`render_points`]).

use std::fmt::Write as _;

use gpusim::Metric;
use obs::registry::{bucket_lower, bucket_upper};
use obs::{Histogram, MetricKind, MetricsRegistry};
use zatel::heatmap::Heatmap;
use zatel::StageCacheRecord;
use zatel_proto::{MetricValues, PointRecord, PredictResponse, RunRecord};

/// The metric rows `zatel predict` and `zatel report --run` print, each
/// line prefixed by `indent`. Against a reference: a header, then one
/// predicted/reference/error row per metric. Without one: one predicted
/// row per metric, no header.
fn metric_table(
    out: &mut String,
    indent: &str,
    prediction: &MetricValues,
    reference: Option<&MetricValues>,
) {
    if let Some(reference) = reference {
        let _ = writeln!(
            out,
            "{indent}{:<22} {:>14} {:>14} {:>8}",
            "metric", "Zatel", "reference", "error"
        );
        for m in Metric::ALL {
            let (predicted, expected) = (prediction.value(m), reference.value(m));
            let _ = writeln!(
                out,
                "{indent}{:<22} {predicted:>14.4} {expected:>14.4} {:>7.1}%",
                m.name(),
                100.0 * zatel::metrics::abs_error(predicted, expected)
            );
        }
    } else {
        for m in Metric::ALL {
            let _ = writeln!(
                out,
                "{indent}{:<22} {:>14.4}",
                m.name(),
                prediction.value(m)
            );
        }
    }
}

/// The table `zatel predict` prints (locally and with `--url` alike).
pub fn render_predict(response: &PredictResponse) -> String {
    let mut out = String::new();
    let res = response.res;
    let traced: f64 = response.groups.iter().map(|g| g.traced_fraction).sum();
    let _ = writeln!(
        out,
        "{} at {res}x{res}, K = {}, {} groups, traced {:.0}% of pixels",
        response.scene,
        response.k,
        response.groups.len(),
        100.0 * traced / response.groups.len().max(1) as f64
    );
    let reference = response.reference.as_ref();
    if reference.is_none() {
        let _ = writeln!(out, "{:<22} {:>14}", "metric", "Zatel");
    }
    metric_table(
        &mut out,
        "",
        &response.prediction,
        reference.map(|r| &r.metrics),
    );
    match reference {
        Some(reference) => {
            let _ = writeln!(
                out,
                "MAE = {:.1}%   speedup (1 core/group) = {:.1}x",
                100.0 * response.mae.unwrap_or(f64::NAN),
                response.speedup_concurrent.unwrap_or(f64::NAN)
            );
            let stack = reference.cpi_stack.iter();
            let stack: Vec<String> = stack
                .map(|(n, v)| format!("{n} {:.0}%", 100.0 * v))
                .collect();
            let _ = writeln!(out, "reference CPI stack: {}", stack.join(", "));
        }
        None => {
            let _ = writeln!(
                out,
                "(add --reference to compare against the full simulation)"
            );
        }
    }
    out
}

/// A full plain-text report of a `zatel-run-v2` record.
pub fn render_run(run: &RunRecord) -> String {
    let mut out = String::new();
    let response = &run.response;
    let res = response.res;
    let options = run.request.options.clone().unwrap_or_default();
    let _ = writeln!(
        out,
        "zatel run: scene {} on {} at {res}x{res} (spp {}, seed {})",
        response.scene, response.config, response.spp, response.seed,
    );
    let _ = writeln!(
        out,
        "  K = {}, division {}, distribution {}",
        response.k,
        options.division.name(),
        options.selection.distribution.tag(),
    );
    if let Some(id) = response.request_id() {
        let _ = writeln!(out, "  request {id}");
    }

    let _ = writeln!(out, "\nper-group results:");
    let _ = writeln!(
        out,
        "  {:>5} {:>9} {:>8} {:>14} {:>10}",
        "group", "pixels", "traced", "cycles", "wall ms"
    );
    for g in &response.groups {
        let _ = writeln!(
            out,
            "  {:>5} {:>9} {:>7.1}% {:>14} {:>10.2}",
            g.index,
            g.pixels,
            100.0 * g.traced_fraction,
            g.cycles,
            g.wall_ms,
        );
    }

    if !response.spans.is_empty() {
        let _ = writeln!(out, "\npipeline spans (host wall-clock):");
        let top = response.spans.iter().filter(|s| s.track == 0);
        let total: u64 = top.map(|s| s.dur_us).sum();
        for s in &response.spans {
            let share = if total > 0 && s.track == 0 {
                format!(" ({:.0}%)", 100.0 * s.dur_us as f64 / total as f64)
            } else {
                String::new()
            };
            let indent = if s.track == 0 { "" } else { "  " };
            let _ = writeln!(
                out,
                "  {indent}{:<24} {:>10.2} ms{share}",
                s.name,
                s.dur_us as f64 / 1000.0
            );
        }
    }

    if let Some(metrics) = &response.metrics {
        render_metrics(&mut out, metrics);
    }

    match &response.reference {
        Some(reference) => {
            let _ = writeln!(out, "\npredicted vs reference:");
            metric_table(
                &mut out,
                "  ",
                &response.prediction,
                Some(&reference.metrics),
            );
            if let Some(mae) = response.mae {
                let _ = writeln!(out, "  MAE = {:.1}%", 100.0 * mae);
            }
            if let Some(s) = response.speedup_concurrent {
                let _ = writeln!(out, "  speedup (1 core/group) = {s:.1}x");
            }
        }
        None => {
            let _ = writeln!(out, "\npredicted metrics:");
            metric_table(&mut out, "  ", &response.prediction, None);
        }
    }
    out
}

/// Width of the widest histogram bar in [`render_run`].
const BAR_WIDTH: usize = 40;

fn render_metrics(out: &mut String, metrics: &MetricsRegistry) {
    let _ = writeln!(out, "\nsimulation metrics:");
    for (name, kind) in metrics.iter() {
        let _ = match kind {
            MetricKind::Counter(v) => writeln!(out, "  {name:<28} {v}"),
            MetricKind::Gauge(v) => writeln!(out, "  {name:<28} {v}"),
            MetricKind::Histogram(h) => render_histogram(out, name, h),
        };
    }
}

fn render_histogram(out: &mut String, name: &str, h: &Histogram) -> std::fmt::Result {
    let (count, min, max) = (h.count(), h.min(), h.max());
    writeln!(out, "  {name} (count {count}, min {min}, max {max}):")?;
    let buckets = h.buckets().iter().enumerate().filter(|(_, c)| **c > 0);
    let peak = buckets.clone().map(|(_, c)| *c).max().unwrap_or(0).max(1);
    for (idx, &c) in buckets {
        let label = if idx == 0 {
            "0".to_owned()
        } else {
            format!("{}–{}", bucket_lower(idx), bucket_upper(idx))
        };
        let bar = "#".repeat(((c as f64 / peak as f64) * BAR_WIDTH as f64).ceil() as usize);
        writeln!(out, "    {label:>21} |{bar:<BAR_WIDTH$}| {c}")?;
    }
    Ok(())
}

/// The execution-time heatmap as a binary PGM (P5) image, normalized so
/// the hottest pixel is 255.
pub fn heatmap_pgm(heatmap: &Heatmap) -> Vec<u8> {
    let (width, height) = (heatmap.width(), heatmap.height());
    let max = heatmap.values().iter().copied().fold(0.0f32, f32::max);
    let mut pgm = format!("P5\n{width} {height}\n255\n").into_bytes();
    pgm.extend(heatmap.values().iter().map(|&v| {
        if max > 0.0 {
            ((v / max) * 255.0).round().min(255.0) as u8
        } else {
            0
        }
    }));
    pgm
}

/// One table of point records: the points of `zatel sweep` and the
/// listing of `zatel report --history`. The MAE and speedup columns
/// appear when any point was measured against a reference.
pub fn render_points(points: &[PointRecord]) -> String {
    let mut out = String::new();
    let with_ref = points.iter().any(|p| p.mae.is_some());
    let _ = write!(
        out,
        "{:<8} {:<24} {:>4} {:>14} {:>10}",
        "scene", "point", "K", "cycles", "sim ms"
    );
    if with_ref {
        let _ = write!(out, " {:>8} {:>9}", "MAE", "speedup");
    }
    let _ = writeln!(out, " {:>18}", "cache");
    for p in points {
        let _ = write!(
            out,
            "{:<8} {:<24} {:>4} {:>14.0} {:>10.2}",
            p.scene,
            p.label,
            p.k,
            p.prediction.value(Metric::SimCycles),
            p.sim_wall_ms
        );
        if with_ref {
            let or_dash = |v: Option<f64>, f: fn(f64) -> String| v.map_or_else(|| "-".into(), f);
            let mae = or_dash(p.mae, |m| format!("{:.1}%", 100.0 * m));
            let speedup = or_dash(p.speedup_concurrent, |s| format!("{s:.1}x"));
            let _ = write!(out, " {mae:>8} {speedup:>9}");
        }
        let hits = StageCacheRecord::hits(&p.cache);
        let _ = writeln!(out, " {hits:>12} hits/{}", p.cache.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::{FromJson, ToJson, Value};
    use obs::ObserveOptions;
    use zatel::SweepPointSpec;
    use zatel_proto::{ConfigRef, PredictRequest, RUN_SCHEMA};

    /// An observed, referenced SPRNG prediction at 16², 1 spp, seed 9,
    /// traced as `req-cafe-0001`, with a 2×2 heatmap of 0, 1, 2 and 4.
    fn sample_run() -> RunRecord {
        let mut request = PredictRequest::new("SPRNG", ConfigRef::preset("mobile"));
        (request.res, request.spp, request.seed) = (16, 1, 9);
        request.reference = true;
        let mut options = zatel::ZatelOptions::default();
        options.observe = Some(ObserveOptions::default());
        request.options = Some(options);
        let cache = zatel::ArtifactCache::in_memory();
        let out = zatel_serve::execute_predict_traced(&request, &cache, Some("req-cafe-0001"))
            .expect("prediction runs");
        let heatmap = r#"{"width": 2, "height": 2, "values": [0, 1, 2, 4]}"#;
        RunRecord {
            request,
            response: out.response,
            heatmap: Heatmap::from_json(&Value::parse(heatmap).unwrap()).unwrap(),
        }
    }

    fn predict_line(response: &PredictResponse) -> String {
        let record = PointRecord::new(SweepPointSpec::named("predict"), response);
        record.to_json().to_string()
    }

    #[test]
    fn render_covers_every_section() {
        let run = sample_run();
        let report = render_run(&run);
        assert!(report.contains("scene SPRNG on mobile at 16x16"));
        assert!(report.contains("division fine, distribution uniform"));
        assert!(report.contains("per-group results"));
        assert!(report.contains("pipeline spans"));
        assert!(report.contains("simulate-groups"));
        assert!(report.contains("mem_read_latency_cycles (count "));
        assert!(report.contains('#'), "histogram bars rendered");
        assert!(report.contains("predicted vs reference"));
        let mae = run.response.mae.unwrap();
        assert!(report.contains(&format!("MAE = {:.1}%", 100.0 * mae)));
        assert!(report.contains("speedup (1 core/group) = "));
    }

    #[test]
    fn render_prints_request_id_and_ignores_a_legacy_concurrency_key() {
        let mut doc = sample_run().to_json();
        if let Value::Object(m) = &mut doc {
            // Run records written before the engine became single-threaded
            // carry a `concurrency` registry snapshot; it is not rendered.
            let mut conc = MetricsRegistry::new();
            conc.counter_add("sim_commit_wall_us", 10000);
            m.insert("concurrency".into(), conc.to_json());
        }
        let report = render_run(&RunRecord::from_json(&doc).unwrap());
        assert!(report.contains("  request req-cafe-0001\n"), "{report}");
        assert!(!report.contains("concurrency"), "{report}");
    }

    #[test]
    fn render_degrades_without_optional_sections() {
        let minimal = format!(r#"{{"schema": "{RUN_SCHEMA}", "scene": "PARK", "k": 4}}"#);
        let err = RunRecord::from_json(&Value::parse(&minimal).unwrap()).unwrap_err();
        assert!(err.message.contains("'request'"), "{err}");

        let mut run = sample_run();
        run.response.spans.clear();
        run.response.metrics = None;
        run.response.reference = None;
        let report = render_run(&run);
        assert!(report.contains("scene SPRNG"));
        assert!(!report.contains("pipeline spans"), "{report}");
        assert!(!report.contains("simulation metrics"), "{report}");
        assert!(report.contains("predicted metrics"), "{report}");
    }

    #[test]
    fn render_rejects_wrong_schema() {
        let bad = Value::parse(r#"{"schema": "zatel-run-v0"}"#).unwrap();
        let err = RunRecord::from_json(&bad).unwrap_err();
        assert!(err.message.contains("unsupported"), "{err}");
        let err = RunRecord::from_json(&Value::parse("{}").unwrap()).unwrap_err();
        assert!(err.message.contains("schema"), "{err}");
    }

    #[test]
    fn summary_line_is_single_line_json() {
        let run = sample_run();
        let line = predict_line(&run.response);
        assert!(!line.contains('\n'));
        let parsed = PointRecord::from_json(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed.scene, "SPRNG");
        assert_eq!(parsed.label, "predict");
        assert_eq!(parsed.prediction, run.response.prediction);
        assert_eq!(parsed.mae, run.response.mae);
    }

    #[test]
    fn summary_line_reports_null_mae_without_reference() {
        let referenced = sample_run().response;
        let mut plain = referenced.clone();
        (plain.reference, plain.mae, plain.speedup_concurrent) = (None, None, None);
        let line = predict_line(&plain);
        assert!(!line.contains("\"mae\""), "line: {line}");
        let parsed = PointRecord::from_json(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed.mae, None);
        let referenced = PointRecord::new(SweepPointSpec::named("ref"), &referenced);
        let table = render_points(&[parsed, referenced]);
        assert!(table.contains("       -         -"), "{table}");
    }

    #[test]
    fn heatmap_pgm_emits_p5_with_clamping() {
        let pgm = heatmap_pgm(&sample_run().heatmap);
        assert!(pgm.starts_with(b"P5\n2 2\n255\n"));
        // Normalized to the hottest pixel: 0, 1/4, 1/2 and 1 of 255.
        assert_eq!(&pgm[pgm.len() - 4..], &[0u8, 64, 128, 255]);
    }

    #[test]
    fn heatmap_pgm_checks_dimensions() {
        let mut doc = sample_run().to_json();
        if let Value::Object(m) = &mut doc {
            let bad = Value::parse(r#"{"width": 3, "height": 2, "values": [1]}"#).unwrap();
            m.insert("heatmap".into(), bad);
        }
        let err = RunRecord::from_json(&doc).unwrap_err();
        assert!(err.message.contains("one value per pixel"), "{err}");
    }
}
