//! # zatel-bench — shared harness for the paper-reproduction benchmarks
//!
//! Every table and figure of the paper has a `[[bench]]` target in this
//! crate (see DESIGN.md for the index). This library holds the pieces they
//! share: environment-tunable resolution, the evaluation trace config,
//! cached reference simulations and small table-printing helpers.
//!
//! ## Environment variables
//!
//! | Variable | Default | Meaning |
//! |----------|---------|---------|
//! | `ZATEL_RES` | 192 | Square image resolution for every experiment |
//! | `ZATEL_SPP` | 2 | Samples per pixel (the paper uses 2) |
//! | `ZATEL_SEED` | 42 | Master seed for scenes/tracing/selection |
//! | `ZATEL_JOBS` | host cores | `ZatelOptions::jobs` of the sweeps: worker threads for their group simulations |
//!
//! The paper evaluates at 512×512; the default of 192×192 keeps the full
//! suite within minutes while preserving every trend (all reported
//! quantities are ratios). Set `ZATEL_RES=512` to run at paper scale.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::BTreeMap;
use std::sync::Mutex;

use gpusim::{GpuConfig, Metric, SimStats};
use rtcore::scene::Scene;
use rtcore::scenes::SceneId;
use rtcore::tracer::TraceConfig;
use zatel::sim_executor::available_jobs;
use zatel::Reference;

/// Reads a `u64` environment variable with a default.
fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Experiment resolution (square), from `ZATEL_RES`.
pub fn resolution() -> u32 {
    env_u64("ZATEL_RES", 192) as u32
}

/// Master seed, from `ZATEL_SEED`.
pub fn seed() -> u64 {
    env_u64("ZATEL_SEED", 42)
}

/// The sweeps' `ZatelOptions::jobs`, from `ZATEL_JOBS` (defaults to the
/// host's available parallelism).
pub fn jobs() -> usize {
    env_u64("ZATEL_JOBS", available_jobs() as u64).max(1) as usize
}

/// The evaluation trace configuration (2 spp like the paper).
pub fn trace_config() -> TraceConfig {
    TraceConfig {
        samples_per_pixel: env_u64("ZATEL_SPP", 2) as u32,
        max_bounces: 4,
        seed: seed(),
    }
}

/// Builds a scene with the master seed.
pub fn build_scene(id: SceneId) -> Scene {
    id.build(seed())
}

/// The two evaluation GPU configurations of Table II.
pub fn eval_configs() -> [GpuConfig; 2] {
    [GpuConfig::mobile_soc(), GpuConfig::rtx_2060()]
}

/// A process-wide cache of full-resolution reference simulations, keyed by
/// `(scene, config name, resolution)` — several benches need the same
/// ground truth and it is the slowest thing we run.
static REF_CACHE: Mutex<BTreeMap<(String, String, u32), Reference>> = Mutex::new(BTreeMap::new());

/// Runs (or fetches) the full reference simulation for `scene` on `config`.
pub fn reference(scene: &Scene, config: &GpuConfig) -> Reference {
    let key = (scene.name().to_owned(), config.name.clone(), resolution());
    // Poison recovery: the cache is a plain insert-only map, so a holder
    // that panicked mid-bench cannot have left it torn.
    if let Some(r) = REF_CACHE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(&key)
    {
        return r.clone();
    }
    let res = resolution();
    let r = zatel::Zatel::new(scene, config.clone(), res, res, trace_config()).run_reference();
    REF_CACHE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(key, r.clone());
    r
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{:.1}%", 100.0 * x)
    }
}

/// Prints a figure/table banner.
pub fn banner(title: &str, detail: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{detail}");
    println!(
        "resolution {res}x{res}, {spp} spp, seed {seed}",
        res = resolution(),
        spp = trace_config().samples_per_pixel,
        seed = seed()
    );
    println!("{}", "=".repeat(78));
}

/// Prints one row of right-aligned cells after a left-aligned label.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<18}");
    for c in cells {
        print!(" {c:>12}");
    }
    println!();
}

/// Per-metric errors of a prediction against reference stats, in
/// [`Metric::ALL`] order.
pub fn metric_errors(pred: &zatel::Prediction, reference: &SimStats) -> Vec<f64> {
    pred.errors_vs(reference)
        .into_iter()
        .map(|(_, e)| e)
        .collect()
}

/// All seven metric names, short form, in [`Metric::ALL`] order.
pub fn metric_names() -> Vec<&'static str> {
    Metric::ALL.iter().map(|m| m.name()).collect()
}

/// One point of a traced-percentage sweep.
#[derive(Debug)]
pub struct SweepPoint {
    /// Traced-pixel fraction requested.
    pub percent: f64,
    /// The resulting prediction.
    pub prediction: zatel::Prediction,
}

/// Runs the pixel-sampling sweep of Figs. 13–16: the scene is traced at
/// each percentage *without GPU downscaling* (isolating the
/// representative-pixel optimization) and each prediction is returned.
/// The sweep drives through [`zatel::SweepDriver`] with [`jobs`] workers:
/// heatmap and quantization are computed once into the driver's artifact
/// cache, every percentage point reuses them, and all points' group
/// simulations run in one pass.
pub fn percent_sweep(
    scene: &Scene,
    config: &GpuConfig,
    percents: &[f64],
) -> Result<Vec<SweepPoint>, zatel::ZatelError> {
    let res = resolution();
    let mut base = zatel::Zatel::new(scene, config.clone(), res, res, trace_config());
    base.options_mut().downscale = zatel::DownscaleMode::NoDownscale;
    base.options_mut().jobs = Some(jobs());
    let driver = zatel::SweepDriver::new(base);
    driver
        .run(&zatel::SweepSpec::from_percents(percents))?
        .into_iter()
        .map(|outcome| {
            let percent = outcome.point.percent.ok_or_else(|| {
                zatel::ZatelError::InvalidOptions(
                    "percent sweep produced a point without a percent".to_owned(),
                )
            })?;
            Ok(SweepPoint {
                percent,
                prediction: outcome.prediction,
            })
        })
        .collect()
}

/// The standard sweep percentages of Fig. 13: 10 % … 90 %.
pub fn sweep_percents() -> Vec<f64> {
    (1..=9).map(|i| i as f64 / 10.0).collect()
}

/// Writes a JSON results file under `target/zatel-results/` so EXPERIMENTS.md
/// numbers can be regenerated mechanically.
pub fn save_json(name: &str, value: &minijson::Value) {
    let dir = std::path::Path::new("target/zatel-results");
    if std::fs::create_dir_all(dir).is_err() {
        return; // Results files are best-effort.
    }
    let path = dir.join(format!("{name}.json"));
    let _ = std::fs::write(path, value.pretty());
}

/// Writes a metrics snapshot under `target/zatel-results/{name}.prom` in
/// Prometheus text exposition format (best-effort, like [`save_json`]).
pub fn save_prometheus(name: &str, registry: &obs::MetricsRegistry) {
    let dir = std::path::Path::new("target/zatel-results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.prom"));
    let _ = std::fs::write(path, registry.to_prometheus("zatel"));
}

/// Prints the pipeline phase spans of a prediction as an indented tree —
/// benches call this after a run to show where the wall-clock went.
pub fn print_spans(prediction: &zatel::Prediction) {
    for s in &prediction.spans {
        let indent = if s.track == 0 { "  " } else { "    " };
        println!(
            "{indent}{:<24} {:>10.2} ms",
            s.name,
            s.dur_us as f64 / 1000.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        assert!(resolution() >= 32);
        assert!(trace_config().samples_per_pixel >= 1);
    }

    #[test]
    fn reference_cache_returns_same_stats() {
        std::env::set_var("ZATEL_RES", "32");
        let scene = build_scene(SceneId::Sprng);
        let cfg = GpuConfig::mobile_soc();
        let a = reference(&scene, &cfg);
        let b = reference(&scene, &cfg);
        assert_eq!(a.stats, b.stats);
        std::env::remove_var("ZATEL_RES");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.125), "12.5%");
        assert_eq!(pct(f64::INFINITY), "inf");
    }
}
