//! Sweeps: one scene and GPU at many option points (the CLI's `zatel
//! sweep` and serve's `/v1/sweep`).
//!
//! A sweep is a base [`Zatel`] predictor plus a [`SweepSpec`] — a list of
//! [`SweepPointSpec`]s, each overriding a handful of options (downscale
//! factor, traced percentage, Eq. (1) clamp bounds) on the base.
//! [`SweepDriver::run`] hands every point, and the base predictor's
//! full-frame reference when asked for, to one [`run_jobs`] list through
//! one shared [`ArtifactCache`]. None of the
//! overrides reaches the heatmap or its quantization, so the first point
//! profiles the heatmap (or finds it cached) and quantizes it, and every
//! later point takes the heatmap from the cache's memory and reuses the
//! quantization; points sharing a downscale factor share the division.
//! Then the reference and all points' group simulations run as one job
//! list on the base predictor's executor.
//!
//! Statistics are bit-identical to standalone runs, for every worker count
//! and between cold and warm caches — the cache and the executor only
//! remove redundant work, never change results. Every point's
//! [`Prediction::sim_wall`] and per-group walls are its own jobs' walls, so
//! wall-clock figures read them just as error figures read the values.

use std::sync::Arc;

use minijson::{field, FromJson, JsonError, Map, ToJson, Value};

use crate::error::ZatelError;
use crate::pipeline::{run_jobs, DownscaleMode, Prediction, Reference, RunContext, Zatel};
use crate::stages::ArtifactCache;

/// One point of a sweep: a label plus the options it overrides on the
/// driver's base predictor. `None` fields keep the base value.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPointSpec {
    /// Human-readable point name (row label in tables, JSON `label`).
    pub label: String,
    /// Override of [`crate::ZatelOptions::downscale`].
    pub downscale: Option<DownscaleMode>,
    /// Override of the traced-pixel fraction
    /// ([`crate::SelectionOptions::percent_override`]).
    pub percent: Option<f64>,
    /// Override of the Eq. (1) clamp bounds
    /// ([`crate::SelectionOptions::clamp`]).
    pub clamp: Option<(f64, f64)>,
}

impl SweepPointSpec {
    /// A point that runs the base options unchanged.
    pub fn named(label: impl Into<String>) -> Self {
        SweepPointSpec {
            label: label.into(),
            downscale: None,
            percent: None,
            clamp: None,
        }
    }

    /// The predictor `base` with this point's overrides merged in.
    pub(crate) fn apply<'s>(&self, base: &Zatel<'s>) -> Zatel<'s> {
        let mut zatel = base.clone();
        let options = &mut zatel.options;
        if let Some(d) = self.downscale {
            options.downscale = d;
        }
        if let Some(p) = self.percent {
            options.selection.percent_override = Some(p);
        }
        if let Some(c) = self.clamp {
            options.selection.clamp = c;
        }
        zatel
    }
}

/// Derives a point label from its overrides (`"K=4 p=30%"`; `"default"`
/// when nothing is overridden).
fn derive_label(
    downscale: Option<DownscaleMode>,
    percent: Option<f64>,
    clamp: Option<(f64, f64)>,
) -> String {
    let mut parts = Vec::new();
    if let Some(d) = downscale {
        parts.push(match d {
            DownscaleMode::Natural => "K=natural".to_owned(),
            DownscaleMode::NoDownscale => "K=1".to_owned(),
            DownscaleMode::Factor(k) => format!("K={k}"),
        });
    }
    if let Some(p) = percent {
        parts.push(format!("p={:.0}%", p * 100.0));
    }
    if let Some((lo, hi)) = clamp {
        parts.push(format!("clamp=[{lo},{hi}]"));
    }
    if parts.is_empty() {
        "default".to_owned()
    } else {
        parts.join(" ")
    }
}

/// Maps a numeric downscale factor to its mode: 1 (or 0) means "do not
/// downscale", anything larger is an explicit factor.
pub(crate) fn factor_mode(k: u32) -> DownscaleMode {
    if k <= 1 {
        DownscaleMode::NoDownscale
    } else {
        DownscaleMode::Factor(k)
    }
}

/// An ordered list of sweep points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepSpec {
    /// The points, in run order.
    pub points: Vec<SweepPointSpec>,
}

impl SweepSpec {
    /// A traced-percentage sweep (the Figs. 13–16 axis).
    pub fn from_percents(percents: &[f64]) -> Self {
        SweepSpec::matrix(&[], percents)
    }

    /// The cross product of downscale factors and traced percentages. An
    /// empty axis contributes a single "keep the base option" column, so
    /// `matrix(&[], &[0.3])` is a pure percentage sweep.
    pub fn matrix(factors: &[u32], percents: &[f64]) -> Self {
        let ks: Vec<Option<u32>> = if factors.is_empty() {
            vec![None]
        } else {
            factors.iter().copied().map(Some).collect()
        };
        let ps: Vec<Option<f64>> = if percents.is_empty() {
            vec![None]
        } else {
            percents.iter().copied().map(Some).collect()
        };
        let mut points = Vec::with_capacity(ks.len() * ps.len());
        for &k in &ks {
            for &p in &ps {
                let downscale = k.map(factor_mode);
                points.push(SweepPointSpec {
                    label: derive_label(downscale, p, None),
                    downscale,
                    percent: p,
                    clamp: None,
                });
            }
        }
        SweepSpec { points }
    }
}

minijson::record! {
    SweepPointSpec {
        label: with(write_label, read_label),
        "downscale" => downscale,
        "percent" => percent,
        "clamp" => clamp,
    }
}

fn write_label(label: &str, map: &mut Map) {
    map.insert("label".into(), label.to_json());
}

/// A point without a label gets one derived from its overrides.
fn read_label(value: &Value, ty: &str) -> Result<String, JsonError> {
    match field(value, ty, "label")? {
        Some(label) => Ok(label),
        None => Ok(derive_label(
            field(value, ty, "downscale")?,
            field(value, ty, "percent")?,
            field(value, ty, "clamp")?,
        )),
    }
}

minijson::record! {
    to_json SweepSpec {
        "points" => points,
    }
}

/// Hand-written: a bare array of points reads as a spec too.
impl FromJson for SweepSpec {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let points = match value {
            Value::Array(_) => Vec::from_json(value)?,
            _ => {
                minijson::object(value, "SweepSpec")?;
                field(value, "SweepSpec", "points")?
            }
        };
        Ok(SweepSpec { points })
    }
}

/// A completed sweep point: the spec that produced it plus its prediction.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The point that was run.
    pub point: SweepPointSpec,
    /// The resulting prediction.
    pub prediction: Prediction,
}

/// Runs a [`SweepSpec`] against a base [`Zatel`] predictor through one
/// shared [`ArtifactCache`].
///
/// # Examples
///
/// ```no_run
/// use gpusim::GpuConfig;
/// use rtcore::scenes::SceneId;
/// use rtcore::tracer::TraceConfig;
/// use zatel::{SweepDriver, SweepSpec, Zatel};
///
/// # fn main() -> Result<(), zatel::ZatelError> {
/// let scene = SceneId::Park.build(42);
/// let trace = TraceConfig { samples_per_pixel: 2, max_bounces: 4, seed: 1 };
/// let base = Zatel::new(&scene, GpuConfig::mobile_soc(), 128, 128, trace);
/// let driver = SweepDriver::new(base);
/// let (outcomes, _) = driver.run(&SweepSpec::from_percents(&[0.1, 0.3, 0.6]), false)?;
/// for o in &outcomes {
///     println!("{}: {:.0} cycles", o.point.label,
///              o.prediction.value(gpusim::Metric::SimCycles));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SweepDriver<'s> {
    base: Zatel<'s>,
    cache: Arc<ArtifactCache>,
}

impl<'s> SweepDriver<'s> {
    /// Creates a driver around `base` with a private in-memory cache.
    pub fn new(base: Zatel<'s>) -> Self {
        SweepDriver {
            base,
            cache: Arc::new(ArtifactCache::in_memory()),
        }
    }

    /// Replaces the artifact cache — share one `Arc` across drivers (e.g.
    /// across division methods or whole bench panels) to reuse the heatmap
    /// between sweeps.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The shared artifact cache.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// Runs every point of `spec` (its overrides merged into the base),
    /// and with `reference` the base predictor's full-frame reference, as
    /// one [`run_jobs`] list through the shared cache, on the base
    /// predictor's executor. Per-point statistics are bit-identical to running a
    /// standalone [`Zatel::run`] with the same merged options, and the
    /// reference's to [`Zatel::run_reference`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ZatelError`] a point's planning produced (e.g.
    /// a downscale factor that does not divide the configuration); no
    /// group is simulated then.
    pub fn run(
        &self,
        spec: &SweepSpec,
        reference: bool,
    ) -> Result<(Vec<SweepOutcome>, Option<Reference>), ZatelError> {
        let points: Vec<Zatel<'s>> = spec.points.iter().map(|p| p.apply(&self.base)).collect();
        let ctx = RunContext::new().with_cache(&self.cache);
        let jobs: Vec<_> = points.iter().map(|point| (point, ctx.clone())).collect();
        let reference = reference.then_some(&self.base);
        let (predictions, mut references) =
            run_jobs(&jobs, reference.as_slice(), self.base.executor())?;
        let outcomes = spec
            .points
            .iter()
            .zip(predictions)
            .map(|(point, prediction)| SweepOutcome {
                point: point.clone(),
                prediction,
            })
            .collect();
        Ok((outcomes, references.pop()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::CacheOutcome;
    use gpusim::{GpuConfig, Metric};
    use rtcore::scenes::SceneId;
    use rtcore::tracer::TraceConfig;

    fn trace() -> TraceConfig {
        TraceConfig {
            samples_per_pixel: 1,
            max_bounces: 2,
            seed: 9,
        }
    }

    fn base(scene: &rtcore::scene::Scene) -> Zatel<'_> {
        Zatel::new(scene, GpuConfig::mobile_soc(), 32, 32, trace())
    }

    #[test]
    fn matrix_builds_cross_product_with_labels() {
        let spec = SweepSpec::matrix(&[1, 4], &[0.3, 0.6]);
        assert_eq!(spec.points.len(), 4);
        assert_eq!(spec.points[0].label, "K=1 p=30%");
        assert_eq!(spec.points[0].downscale, Some(DownscaleMode::NoDownscale));
        assert_eq!(spec.points[3].label, "K=4 p=60%");
        assert_eq!(spec.points[3].downscale, Some(DownscaleMode::Factor(4)));
        assert_eq!(spec.points[3].percent, Some(0.6));

        let percents = SweepSpec::from_percents(&[0.1]);
        assert_eq!(percents.points.len(), 1);
        assert_eq!(percents.points[0].downscale, None);
        assert_eq!(percents.points[0].label, "p=10%");

        let factors = SweepSpec::matrix(&[2], &[]);
        assert_eq!(factors.points[0].percent, None);
        assert_eq!(factors.points[0].label, "K=2");
    }

    #[test]
    fn spec_accepts_bare_array_and_derives_labels() {
        let v = Value::parse(r#"[{"percent": 0.5}, {"downscale": "none"}]"#).unwrap();
        let spec = SweepSpec::from_json(&v).expect("bare array");
        assert_eq!(spec.points[0].label, "p=50%");
        assert_eq!(spec.points[1].label, "K=1");
        assert_eq!(spec.points[1].downscale, Some(DownscaleMode::NoDownscale));
    }

    #[test]
    fn driver_matches_standalone_runs_and_reuses_artifacts() {
        let scene = SceneId::Sprng.build(1);
        let spec = SweepSpec::from_percents(&[0.3, 0.6]);
        let driver = SweepDriver::new(base(&scene));
        let (outcomes, _) = driver.run(&spec, false).expect("sweep runs");
        assert_eq!(outcomes.len(), 2);

        // The shared preprocessing ran exactly once for the whole sweep: in
        // the first point's plan, and every later point reused it — the
        // heatmap from the cache, the quantization from the first plan.
        let stats = driver.cache().stats();
        assert_eq!((stats.misses, stats.memory_hits), (1, 1));
        let quantize_spans = outcomes
            .iter()
            .flat_map(|o| &o.prediction.spans)
            .filter(|s| s.name == "quantize")
            .count();
        assert_eq!(quantize_spans, 1, "one quantization per sweep");
        // Every point still lists every phase: a reused one at zero length.
        let later = &outcomes[1].prediction.spans;
        for phase in ["quantize (shared)", "divide (shared)"] {
            let span = later.iter().find(|s| s.name == phase);
            assert_eq!(span.map(|s| s.dur_us), Some(0), "{phase} in {later:?}");
        }
        let heatmap_outcomes: Vec<CacheOutcome> = outcomes
            .iter()
            .map(|outcome| {
                let record = outcome
                    .prediction
                    .cache
                    .iter()
                    .find(|r| r.stage == "heatmap");
                record.expect("heatmap stage recorded").outcome
            })
            .collect();
        assert_eq!(
            heatmap_outcomes,
            [CacheOutcome::Miss, CacheOutcome::MemoryHit]
        );

        // Bit-identical to standalone runs with the same merged options.
        for outcome in &outcomes {
            let mut z = base(&scene);
            z.options_mut().selection.percent_override = outcome.point.percent;
            let standalone = z.run().expect("standalone runs");
            for m in Metric::ALL {
                assert_eq!(
                    outcome.prediction.value(m),
                    standalone.value(m),
                    "{m} at {}",
                    outcome.point.label
                );
            }
        }
    }

    #[test]
    fn points_and_groups_parallelism_agree() {
        // Every point's groups join one job list; how many workers share it
        // must not reach any point's prediction.
        let scene = SceneId::Sprng.build(1);
        let spec = SweepSpec::matrix(&[1, 4], &[0.5]);
        let run_with = |jobs: usize| {
            let mut z = base(&scene);
            z.options_mut().jobs = Some(jobs);
            SweepDriver::new(z).run(&spec, false).unwrap().0
        };
        let serial = run_with(1);
        let parallel = run_with(3);
        assert_eq!(serial.len(), 2);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.point.label, b.point.label);
            assert_eq!(a.prediction.k, b.prediction.k);
            for m in Metric::ALL {
                assert_eq!(a.prediction.value(m), b.prediction.value(m), "{m}");
            }
        }
    }

    #[test]
    fn invalid_point_surfaces_the_error() {
        let scene = SceneId::Sprng.build(1);
        let spec = SweepSpec::matrix(&[3], &[]); // 3 divides neither 8 nor 4
        let err = SweepDriver::new(base(&scene)).run(&spec, true).unwrap_err();
        assert!(matches!(err, ZatelError::Downscale(_)));
    }

    #[test]
    fn empty_spec_is_a_no_op() {
        let scene = SceneId::Sprng.build(1);
        let driver = SweepDriver::new(base(&scene));
        assert!(driver
            .run(&SweepSpec::default(), false)
            .unwrap()
            .0
            .is_empty());
        assert_eq!(driver.cache().stats().misses, 0, "no artifacts computed");
    }
}
