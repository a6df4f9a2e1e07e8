//! The end-to-end Zatel pipeline (paper Fig. 3): heatmap → quantize →
//! downscale → divide → select → simulate per group → combine.
//!
//! [`Zatel::execute`] is the one path, in three steps. *Plan*: the heatmap
//! comes through an [`ArtifactCache`] ([`crate::stages`]), so callers that
//! share a cache across runs (the [`crate::sweep`] driver, the serve
//! workers) profile each scene shape once; quantize, divide and select are
//! plain calls. *Run*: every group simulation is one job of a single
//! [`SimExecutor::map_timed`] call. *Finish*: extrapolation.
//! The Section IV-F regression variant differs only in planning three
//! traced fractions and fitting through them; a sweep runs all its points'
//! jobs in the same one pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpusim::{GpuConfig, Metric, SimStats, Simulator};
use minijson::{FromJson, JsonError, ToJson, Value};
use obs::span::SpanSheet;
use obs::{MetricsRegistry, ObsHooks, ObserveOptions, SpanRecord};
use rtcore::scene::Scene;
use rtcore::tracer::TraceConfig;
use rtworkload::RtWorkload;

use crate::error::ZatelError;
use crate::extrapolate::{linear_to_full, regression_to_full};
use crate::heatmap::Heatmap;
use crate::metrics::abs_error;
use crate::partition::{chunk_count, divide, DivisionMethod, Group};
use crate::quantize::QuantizedHeatmap;
use crate::select::{select_pixels, Selection, SelectionOptions};
use crate::sim_executor::{available_jobs, JobTiming, SimExecutor};
use crate::stages::{ArtifactCache, HeatmapStage, Stage, StageCacheRecord};

/// How the target GPU is downscaled before group simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownscaleMode {
    /// Use `K = gcd(#SMs, #memory partitions)` — the paper's choice.
    Natural,
    /// Use an explicit factor (the Fig. 17–19 sweeps).
    Factor(u32),
    /// Do not downscale: one group on the full GPU. Isolates the
    /// representative-pixel optimization (the Figs. 13–16 sweeps).
    NoDownscale,
}

/// All tunable parameters of the pipeline.
///
/// The struct is `#[non_exhaustive]`: downstream crates start from
/// [`ZatelOptions::default`] and assign fields (checked by
/// [`ZatelOptions::validate`] when a run starts), so adding a pipeline
/// knob is never a breaking change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ZatelOptions {
    /// Image-plane division method (fine-grained 32×2 by default).
    pub division: DivisionMethod,
    /// Representative-pixel selection parameters.
    pub selection: SelectionOptions,
    /// Number of K-means colours for heatmap quantization.
    pub quant_colors: usize,
    /// GPU downscaling mode.
    pub downscale: DownscaleMode,
    /// Run group simulations on parallel host threads (the paper's
    /// "simulate each group simultaneously on different CPU cores").
    pub parallel: bool,
    /// Worker-thread cap for group simulation; `None` sizes the pool to
    /// the host's available parallelism. Ignored when [`parallel`] is
    /// false.
    ///
    /// [`parallel`]: ZatelOptions::parallel
    pub jobs: Option<usize>,
    /// When set, each group simulation runs with an [`ObsHooks`]
    /// observer (histograms, counters and optionally a Perfetto
    /// timeline), attached to the group's [`GroupOutcome::obs`].
    /// Observing never changes the simulated statistics — hooks observe
    /// only.
    pub observe: Option<ObserveOptions>,
}

impl ZatelOptions {
    /// Checks option invariants that would otherwise panic (or silently
    /// misbehave) deep inside the engine: an empty worker pool, a
    /// degenerate quantization or selection parameters outside their
    /// documented domains.
    ///
    /// # Errors
    ///
    /// Returns [`ZatelError::InvalidOptions`] describing the offending
    /// option.
    pub fn validate(&self) -> Result<(), ZatelError> {
        let invalid = |msg: String| Err(ZatelError::InvalidOptions(msg));
        if self.jobs == Some(0) {
            return invalid("jobs must be positive (use None to size to the host)".into());
        }
        if self.quant_colors == 0 {
            return invalid("quant_colors must be at least 1".into());
        }
        let sel = &self.selection;
        if sel.block_width == 0 || sel.block_height == 0 {
            return invalid(format!(
                "selection blocks must be non-empty, got {}x{}",
                sel.block_width, sel.block_height
            ));
        }
        for (name, percent) in [
            ("percent_override", sel.percent_override),
            ("percent_cap", sel.percent_cap),
        ] {
            if let Some(p) = percent {
                if !(p > 0.0 && p <= 1.0) {
                    return invalid(format!("selection {name} must be in (0, 1], got {p}"));
                }
            }
        }
        let (lo, hi) = sel.clamp;
        if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
            return invalid(format!(
                "selection clamp bounds must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})"
            ));
        }
        Ok(())
    }
}

impl Default for ZatelOptions {
    fn default() -> Self {
        ZatelOptions {
            division: DivisionMethod::default_fine(),
            selection: SelectionOptions::default(),
            quant_colors: 8,
            downscale: DownscaleMode::Natural,
            parallel: true,
            jobs: None,
            observe: None,
        }
    }
}

/// Per-group simulation outcome.
#[derive(Debug, Clone)]
pub struct GroupOutcome {
    /// Group index in `[0, K)`.
    pub index: u32,
    /// Pixels in the group.
    pub pixels: usize,
    /// Fraction of the group's pixels actually traced.
    pub traced_fraction: f64,
    /// The Eq. (1) target percentage used.
    pub target_percent: f64,
    /// Raw simulator output for the group.
    pub stats: SimStats,
    /// Host wall-clock time of this group's simulation.
    pub wall: Duration,
    /// Observability recording (histograms, counters, timeline) collected
    /// when [`ZatelOptions::observe`] is set.
    pub obs: Option<ObsHooks>,
}

/// A full-GPU, full-resolution reference simulation (what Vulkan-Sim alone
/// would produce).
#[derive(Debug, Clone)]
pub struct Reference {
    /// Simulator output.
    pub stats: SimStats,
    /// Host wall-clock time of the simulation.
    pub wall: Duration,
}

/// The final Zatel prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    values: [f64; 7],
    /// Per-group outcomes, in group order.
    pub groups: Vec<GroupOutcome>,
    /// Downscaling factor used.
    pub k: u32,
    /// Wall-clock time of preprocessing (heatmap profile + quantization).
    pub preprocess_wall: Duration,
    /// Host wall-clock time of the group simulations, summed over the
    /// prediction's jobs (every traced fraction's under regression): the
    /// serial cost, the same whichever number of workers ran them.
    pub sim_wall: Duration,
    /// Host wall-clock spans of the pipeline phases (heatmap, quantize,
    /// select, simulate-groups with one `group N` span per job, and
    /// extrapolate), sorted by start offset.
    pub spans: Vec<SpanRecord>,
    /// The execution-time heatmap profiled by [`Zatel::execute`].
    pub heatmap: Heatmap,
    /// How the heatmap, the one cached stage, was served: one record. A
    /// cold [`Zatel::run`] reports a miss; sweep points sharing a cache
    /// report hits for the reused heatmap.
    pub cache: Vec<StageCacheRecord>,
    /// The request ID this prediction was computed for
    /// ([`RunContext::with_request_id`]); `None` for untraced executions.
    pub request_id: Option<String>,
}

impl Prediction {
    /// Predicted value of `metric`.
    pub fn value(&self, metric: Metric) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "Metric::ALL enumerates every variant by construction; a Result here would make an infallible accessor fallible"
        )]
        let idx = Metric::ALL
            .iter()
            .position(|m| *m == metric)
            .expect("metric in ALL");
        self.values[idx]
    }

    /// Relative absolute error of every metric against a reference run.
    pub fn errors_vs(&self, reference: &SimStats) -> Vec<(Metric, f64)> {
        Metric::ALL
            .iter()
            .map(|&m| (m, abs_error(self.value(m), m.value(reference))))
            .collect()
    }

    /// Mean absolute error over all seven metrics against a reference run.
    pub fn mae_vs(&self, reference: &SimStats) -> f64 {
        let errors: Vec<f64> = self
            .errors_vs(reference)
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        crate::metrics::mae(&errors)
    }

    /// Serial simulation-time speedup over a reference run: the
    /// reference's wall-clock over [`Prediction::sim_wall`], counting only
    /// the simulation phase as the paper does. This is what one host core
    /// running the group simulations back to back delivers, whatever
    /// `jobs` this prediction ran with.
    pub fn speedup_vs(&self, reference: &Reference) -> f64 {
        let z = self.sim_wall.as_secs_f64().max(1e-9);
        reference.wall.as_secs_f64() / z
    }

    /// Simulation-time speedup with one host core per group — the paper's
    /// setup ("simulating each group simultaneously on different CPU
    /// cores"): the reference's wall-clock over the *slowest single
    /// group's* job wall-clock. Like [`Prediction::speedup_vs`] it is read
    /// from job timings, so it does not depend on how many workers this
    /// prediction ran with.
    pub fn speedup_concurrent(&self, reference: &Reference) -> f64 {
        let slowest = self
            .groups
            .iter()
            .map(|g| g.wall.as_secs_f64())
            .fold(0.0f64, f64::max)
            .max(1e-9);
        reference.wall.as_secs_f64() / slowest
    }

    /// Folds the groups' observability into one registry, in group order so
    /// fixed-seed snapshots are byte-identical, then sets the `k`, `groups`
    /// and `traced_fraction_mean` gauges. `None` when no group was observed
    /// ([`ZatelOptions::observe`] unset).
    pub fn observed_metrics(&self) -> Option<MetricsRegistry> {
        let mut registry = MetricsRegistry::new();
        let mut observed = false;
        for g in &self.groups {
            if let Some(o) = &g.obs {
                o.export(&g.stats, &mut registry);
                observed = true;
            }
        }
        if !observed {
            return None;
        }
        let traced: f64 = self.groups.iter().map(|g| g.traced_fraction).sum();
        registry.gauge_set("k", f64::from(self.k));
        registry.gauge_set("groups", self.groups.len() as f64);
        registry.gauge_set(
            "traced_fraction_mean",
            traced / self.groups.len().max(1) as f64,
        );
        Some(registry)
    }
}

/// How one [`Zatel::execute`] call should run: which artifact cache to
/// share, whether to use the Section IV-F regression variant, and which
/// request it serves.
///
/// # Examples
///
/// ```no_run
/// use gpusim::GpuConfig;
/// use rtcore::scenes::SceneId;
/// use rtcore::tracer::TraceConfig;
/// use zatel::{ArtifactCache, RunContext, Zatel};
///
/// # fn main() -> Result<(), zatel::ZatelError> {
/// let scene = SceneId::Park.build(42);
/// let trace = TraceConfig { samples_per_pixel: 2, max_bounces: 4, seed: 1 };
/// let zatel = Zatel::new(&scene, GpuConfig::mobile_soc(), 128, 128, trace);
/// let cache = ArtifactCache::in_memory();
/// // Stage artifacts land in `cache` and are served to later executions:
/// let prediction = zatel.execute(&RunContext::new().with_cache(&cache))?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunContext<'a> {
    pub(crate) cache: Option<&'a ArtifactCache>,
    pub(crate) regression: Option<[f64; 3]>,
    pub(crate) request_id: Option<String>,
}

impl<'a> RunContext<'a> {
    /// An empty context: private in-memory cache, linear extrapolation.
    pub fn new() -> Self {
        RunContext::default()
    }

    /// Shares `cache` across executions (see [`Zatel::execute`]).
    pub fn with_cache(mut self, cache: &'a ArtifactCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Switches to the Section IV-F exponential-regression variant at the
    /// given traced fractions (see [`Zatel::execute`]).
    pub fn with_regression(mut self, fractions: [f64; 3]) -> Self {
        self.regression = Some(fractions);
        self
    }

    /// Tags this execution with a request ID: the resulting
    /// [`Prediction::request_id`] carries it and a zero-width
    /// `request <id>` marker span is prepended to the span sheet, so every
    /// persisted artifact of the execution (run report, span sheet, serve
    /// debug ring) is correlatable back to the originating request. Purely
    /// observational — the prediction's values, fingerprints and cache
    /// interactions are unaffected.
    pub fn with_request_id(mut self, id: impl Into<String>) -> Self {
        self.request_id = Some(id.into());
        self
    }
}

/// The Zatel predictor: configure once, then [`Zatel::run`].
///
/// # Examples
///
/// ```no_run
/// use gpusim::{GpuConfig, Metric};
/// use rtcore::scenes::SceneId;
/// use rtcore::tracer::TraceConfig;
/// use zatel::Zatel;
///
/// # fn main() -> Result<(), zatel::ZatelError> {
/// let scene = SceneId::Park.build(42);
/// let trace = TraceConfig { samples_per_pixel: 2, max_bounces: 4, seed: 1 };
/// let zatel = Zatel::new(&scene, GpuConfig::mobile_soc(), 128, 128, trace);
/// let prediction = zatel.run()?;
/// println!("predicted cycles: {}", prediction.value(Metric::SimCycles));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Zatel<'s> {
    pub(crate) scene: &'s Scene,
    pub(crate) target: GpuConfig,
    pub(crate) width: u32,
    pub(crate) height: u32,
    pub(crate) trace: TraceConfig,
    pub(crate) options: ZatelOptions,
}

impl<'s> Zatel<'s> {
    /// Creates a predictor with default options (fine-grained 32×2
    /// division, uniform distribution, Eq. (1) pixel budget, natural
    /// downscale factor, parallel group simulation).
    ///
    /// # Panics
    ///
    /// Panics if the image is empty or the target configuration is invalid.
    pub fn new(
        scene: &'s Scene,
        target: GpuConfig,
        width: u32,
        height: u32,
        trace: TraceConfig,
    ) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` constructor contract; fallible construction goes through ZatelOptions validation instead"
        )]
        target.validate().expect("invalid target GPU configuration");
        Zatel {
            scene,
            target,
            width,
            height,
            trace,
            options: ZatelOptions::default(),
        }
    }

    /// Replaces the pipeline options.
    pub fn with_options(mut self, options: ZatelOptions) -> Self {
        self.options = options;
        self
    }

    /// Mutable access to the pipeline options.
    pub fn options_mut(&mut self) -> &mut ZatelOptions {
        &mut self.options
    }

    /// The options currently in force.
    pub fn options(&self) -> &ZatelOptions {
        &self.options
    }

    /// The target (full-size) GPU configuration.
    pub fn target(&self) -> &GpuConfig {
        &self.target
    }

    /// Resolves the downscale factor for the current options.
    ///
    /// # Errors
    ///
    /// Returns [`ZatelError::Downscale`] for factors that do not divide the
    /// configuration.
    pub fn resolve_factor(&self) -> Result<u32, ZatelError> {
        let k = match self.options.downscale {
            DownscaleMode::Natural => self.target.natural_downscale_factor(),
            DownscaleMode::Factor(f) => f,
            DownscaleMode::NoDownscale => 1,
        };
        // Validate by attempting the downscale.
        self.target.downscaled(k)?;
        Ok(k)
    }

    /// Runs the full prediction pipeline on a private in-memory artifact
    /// cache (every stage computes fresh). Thin wrapper over
    /// [`Zatel::execute`] with an empty [`RunContext`].
    ///
    /// # Errors
    ///
    /// Returns [`ZatelError`] if the configured downscale factor is
    /// invalid.
    pub fn run(&self) -> Result<Prediction, ZatelError> {
        self.execute(&RunContext::new())
    }

    /// Runs the pipeline as described by `ctx` — the single execution
    /// entry point; [`Zatel::run`] is its empty-context spelling.
    ///
    /// An execution is three steps: *plan* (validate, take the heatmap
    /// through the cache, then quantize, divide and select), *run* (every
    /// group simulation as one job list on [`Zatel::executor`]) and
    /// *finish* (extrapolate). A
    /// [`crate::SweepDriver`] plans each of its points the same way and
    /// runs all their jobs in one pass.
    ///
    /// * [`RunContext::with_cache`] shares the heatmap across runs: a
    ///   cached heatmap is served instead of profiled, its span carries a
    ///   `" (cached)"` suffix, and statistics stay bit-identical to a cold
    ///   run — the cache only removes redundant work.
    /// * [`RunContext::with_regression`] switches to the Section IV-F
    ///   exponential-regression variant: the same heatmap, quantization
    ///   and division, then one selection and one set of group
    ///   simulations per traced fraction, and an exponential fit per
    ///   metric in place of linear extrapolation. [`Prediction::groups`]
    ///   are the last fraction's.
    ///
    /// # Errors
    ///
    /// Returns [`ZatelError`] if the options fail validation, the
    /// configured downscale factor is invalid, or the regression fractions
    /// are not equally spaced ascending values in `(0, 1]`.
    pub fn execute(&self, ctx: &RunContext<'_>) -> Result<Prediction, ZatelError> {
        let plan = self.plan(ctx, None)?;
        Ok(run_plans(vec![plan], self.executor()).swap_remove(0))
    }

    /// Plans one execution: validates, looks the heatmap up in `ctx`'s
    /// cache, then quantizes, divides and selects once per traced fraction
    /// by plain calls, each under a span of its name. `quantized`, when
    /// given, is this predictor's quantized heatmap from an earlier plan (a
    /// sweep's first point) and replaces the quantize call. What is left
    /// are the group simulations and the extrapolation ([`run_plans`]).
    pub(crate) fn plan(
        &self,
        ctx: &RunContext<'_>,
        quantized: Option<&Arc<QuantizedHeatmap>>,
    ) -> Result<Plan<'_, 's>, ZatelError> {
        self.options.validate()?;
        if let Some(fractions @ [f1, f2, f3]) = ctx.regression {
            let spaced = (f2 - f1) > 0.0 && ((f3 - f2) - (f2 - f1)).abs() < 1e-9;
            if !(spaced && f1 > 0.0 && f3 <= 1.0) {
                return Err(ZatelError::InvalidOptions(format!(
                    "regression fractions must be equally spaced ascending in (0,1]: {fractions:?}"
                )));
            }
        }
        let private = ArtifactCache::in_memory();
        let cache = ctx.cache.unwrap_or(&private);
        let sheet = SpanSheet::new();

        #[expect(
            clippy::disallowed_methods,
            reason = "measurement around the heatmap and quantize steps, not inside them: feeds \
                      only Prediction::preprocess_wall, which no metric value or fingerprint reads"
        )]
        let pre_start = Instant::now();
        let start = sheet.elapsed();
        let stage = HeatmapStage {
            width: self.width,
            height: self.height,
            trace: self.trace,
        };
        let (heatmap, fingerprint, outcome) =
            cache.get_or_run(&stage, self.scene, self.scene.fingerprint());
        let span = if outcome.is_hit() {
            format!("{} (cached)", HeatmapStage::NAME)
        } else {
            HeatmapStage::NAME.to_owned()
        };
        sheet.record(&span, 0, start, sheet.elapsed().saturating_sub(start));
        let record = StageCacheRecord {
            stage: HeatmapStage::NAME.to_owned(),
            fingerprint,
            outcome,
        };
        let quantized = match quantized {
            Some(quantized) => Arc::clone(quantized),
            None => {
                let _span = sheet.span("quantize");
                Arc::new(QuantizedHeatmap::quantize(
                    &heatmap,
                    self.options.quant_colors,
                    self.trace.seed,
                ))
            }
        };
        let preprocess_wall = pre_start.elapsed();

        let k = self.resolve_factor()?;
        let down = self.target.downscaled(k)?;
        let span = sheet.span("divide");
        let groups = divide(self.width, self.height, k, self.options.division);
        span.finish();
        if groups.iter().any(|g| g.pixels.is_empty()) {
            return Err(ZatelError::TooFewChunks {
                width: self.width,
                height: self.height,
                k,
                chunks: chunk_count(self.width, self.height, k, self.options.division),
            });
        }

        // One selection per traced fraction: the configured one, or the
        // regression's three.
        let fractions: Vec<Option<f64>> = match ctx.regression {
            None => vec![None],
            Some(fractions) => fractions.map(Some).to_vec(),
        };
        let traced = fractions
            .into_iter()
            .map(|fraction| {
                let mut options = self.options.selection;
                let span = match fraction {
                    None => "simulate-groups".to_owned(),
                    Some(f) => {
                        options.percent_override = Some(f);
                        format!("simulate-groups {:.0}%", f * 100.0)
                    }
                };
                let _select = sheet.span("select");
                let selections = groups
                    .iter()
                    .map(|g| select_pixels(g, &quantized, &options))
                    .collect();
                (span, selections)
            })
            .collect();

        Ok(Plan {
            zatel: self,
            sheet,
            record,
            preprocess_wall,
            k,
            down,
            groups,
            heatmap,
            quantized,
            regression: ctx.regression,
            traced,
            request_id: ctx.request_id.clone(),
        })
    }

    /// Simulates one group under its selection on the downscaled GPU.
    /// The outcome's wall is filled in from the executor's timing.
    fn simulate_group(
        &self,
        down: &GpuConfig,
        group: &Group,
        selection: &Selection,
    ) -> GroupOutcome {
        let workload = RtWorkload::new(
            self.scene,
            self.width,
            self.height,
            self.trace,
            group.pixels.clone(),
        )
        .with_selection(selection.mask.clone());
        let traced_fraction = workload.traced_fraction();
        let simulator = Simulator::new(down.clone());
        let (stats, obs) = match &self.options.observe {
            // The uninstrumented path keeps the NullHooks monomorphization.
            None => (simulator.run(&workload), None),
            Some(o) => {
                let label = format!("group {}", group.index);
                let mut obs = ObsHooks::for_gpu(group.index, &label, down, o);
                (simulator.run_with_hooks(&workload, &mut obs), Some(obs))
            }
        };
        GroupOutcome {
            index: group.index,
            pixels: group.pixels.len(),
            traced_fraction,
            target_percent: selection.target_percent,
            stats,
            wall: Duration::ZERO,
            obs,
        }
    }

    /// The executor group simulation runs on: `jobs` workers (the host's
    /// available parallelism when unset), or one when `parallel` is off.
    pub fn executor(&self) -> SimExecutor {
        SimExecutor::new(match (self.options.parallel, self.options.jobs) {
            (false, _) => 1,
            (true, Some(n)) => n,
            (true, None) => available_jobs(),
        })
    }

    /// Simulates the full workload on the full-size GPU — the ground truth
    /// every prediction is evaluated against (and the denominator of the
    /// speedup).
    pub fn run_reference(&self) -> Reference {
        #[expect(
            clippy::disallowed_methods,
            reason = "measurement around the reference simulation: feeds only Reference::wall \
                      (the speedup numerator), never its SimStats"
        )]
        let start = Instant::now();
        let workload = RtWorkload::full_frame(self.scene, self.width, self.height, self.trace);
        let stats = Simulator::new(self.target.clone()).run(&workload);
        Reference {
            stats,
            wall: start.elapsed(),
        }
    }
}

/// An execution whose heatmap, quantization, division and selections are
/// done ([`Zatel::plan`]): what is left are its group simulations and the
/// extrapolation.
#[derive(Debug)]
pub(crate) struct Plan<'z, 's> {
    zatel: &'z Zatel<'s>,
    sheet: SpanSheet,
    record: StageCacheRecord,
    preprocess_wall: Duration,
    k: u32,
    down: GpuConfig,
    groups: Vec<Group>,
    heatmap: Arc<Heatmap>,
    /// The quantized heatmap the selections were made on; a sweep hands
    /// it to its later points' plans.
    pub(crate) quantized: Arc<QuantizedHeatmap>,
    regression: Option<[f64; 3]>,
    /// Per traced fraction: its span name and each group's selection.
    traced: Vec<(String, Vec<Selection>)>,
    request_id: Option<String>,
}

impl Plan<'_, '_> {
    /// The plan's group simulations, fraction by fraction.
    fn jobs(&self) -> impl Iterator<Item = (&Self, &Group, &Selection)> {
        self.traced.iter().flat_map(move |(_, selections)| {
            self.groups
                .iter()
                .zip(selections.iter())
                .map(move |(group, selection)| (self, group, selection))
        })
    }

    /// Takes the plan's jobs from `done`, in [`Plan::jobs`] order, records
    /// their spans relative to `pass_start` (the pass's start on the plan's
    /// sheet) and extrapolates the prediction.
    fn finish(
        self,
        pass_start: Duration,
        done: &mut impl Iterator<Item = (GroupOutcome, JobTiming)>,
    ) -> Prediction {
        let mut sim_wall = Duration::ZERO;
        let mut runs = Vec::with_capacity(self.traced.len());
        for (span, _) in &self.traced {
            let (mut first, mut last) = (Duration::MAX, Duration::ZERO);
            let mut outcomes = Vec::with_capacity(self.groups.len());
            for (mut outcome, timing) in done.by_ref().take(self.groups.len()) {
                let start = pass_start + timing.start;
                self.sheet.record(
                    &format!("group {}", outcome.index),
                    timing.worker as u32 + 1,
                    start,
                    timing.wall,
                );
                first = first.min(start);
                last = last.max(start + timing.wall);
                sim_wall += timing.wall;
                outcome.wall = timing.wall;
                outcomes.push(outcome);
            }
            self.sheet
                .record(span, 0, first, last.saturating_sub(first));
            runs.push(outcomes);
        }

        let extrapolate = self.sheet.span("extrapolate");
        let values = match self.regression {
            None => Metric::ALL.map(|m| {
                let measured = runs[0]
                    .iter()
                    .map(|o| (m.value(&o.stats), o.traced_fraction));
                linear_to_full(m, measured)
            }),
            // Raw (non-extrapolated) combined values per fraction feed the
            // fit; regression replaces linear extrapolation.
            Some(fractions) => Metric::ALL.map(|m| {
                regression_to_full(&std::array::from_fn(|i| {
                    let per_group: Vec<f64> = runs[i].iter().map(|o| m.value(&o.stats)).collect();
                    (fractions[i], m.combine(&per_group))
                }))
            }),
        };
        drop(extrapolate);

        let mut spans = self.sheet.snapshot();
        if let Some(id) = &self.request_id {
            spans.insert(
                0,
                SpanRecord {
                    name: format!("request {id}"),
                    track: 0,
                    start_us: 0,
                    dur_us: 0,
                },
            );
        }
        Prediction {
            values,
            groups: runs.pop().unwrap_or_default(),
            k: self.k,
            preprocess_wall: self.preprocess_wall,
            sim_wall,
            spans,
            heatmap: self.heatmap.as_ref().clone(),
            cache: vec![self.record],
            request_id: self.request_id,
        }
    }
}

/// Runs the group simulations of every plan as one job list on `executor`
/// — `(plan, traced fraction, group)` jobs, handed out in that order — and
/// finishes each plan into its prediction, in plan order.
pub(crate) fn run_plans(plans: Vec<Plan<'_, '_>>, executor: SimExecutor) -> Vec<Prediction> {
    let jobs: Vec<_> = plans.iter().flat_map(Plan::jobs).collect();
    let pass_starts: Vec<Duration> = plans.iter().map(|plan| plan.sheet.elapsed()).collect();
    let (outcomes, timings) = executor.map_timed(&jobs, |_, &(plan, group, selection)| {
        plan.zatel.simulate_group(&plan.down, group, selection)
    });
    let mut done = outcomes.into_iter().zip(timings);
    plans
        .into_iter()
        .zip(pass_starts)
        .map(|(plan, pass_start)| plan.finish(pass_start, &mut done))
        .collect()
}

/// Hand-written: a mode is a string or a bare factor.
impl ToJson for DownscaleMode {
    fn to_json(&self) -> Value {
        match self {
            DownscaleMode::Natural => Value::from("natural"),
            DownscaleMode::NoDownscale => Value::from("none"),
            DownscaleMode::Factor(k) => Value::from(*k),
        }
    }
}

impl FromJson for DownscaleMode {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        if let Some(k) = value.as_u64() {
            let k = u32::try_from(k)
                .map_err(|_| JsonError::conversion("downscale factor out of range"))?;
            return Ok(if k <= 1 {
                DownscaleMode::NoDownscale
            } else {
                DownscaleMode::Factor(k)
            });
        }
        const EXPECTED: &str = "downscale mode must be \"natural\", \"none\" or a factor";
        match value.as_str() {
            Some("natural") => Ok(DownscaleMode::Natural),
            Some("none") => Ok(DownscaleMode::NoDownscale),
            Some(_) => Err(JsonError::conversion(EXPECTED)),
            None => Err(JsonError::mistyped(EXPECTED)),
        }
    }
}

minijson::record! {
    ZatelOptions {
        "division" => division,
        "selection" => selection,
        "quant_colors" => quant_colors,
        "downscale" => downscale,
        "parallel" => parallel,
        "jobs" => jobs,
        "observe" => observe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::divide;
    use rtcore::scenes::SceneId;

    fn trace() -> TraceConfig {
        TraceConfig {
            samples_per_pixel: 1,
            max_bounces: 2,
            seed: 9,
        }
    }

    fn quick_zatel(scene: &Scene) -> Zatel<'_> {
        Zatel::new(scene, GpuConfig::mobile_soc(), 64, 64, trace())
    }

    #[test]
    fn options_validate_rejects_each_bad_field() {
        let mut options = ZatelOptions {
            downscale: DownscaleMode::Factor(2),
            quant_colors: 4,
            jobs: Some(2),
            ..ZatelOptions::default()
        };
        options.selection.percent_override = Some(0.25);
        options.selection.clamp = (0.1, 0.9);
        options.validate().expect("valid options");

        let broken: [fn(&mut ZatelOptions); 7] = [
            |o| o.jobs = Some(0),
            |o| o.quant_colors = 0,
            |o| o.selection.percent_override = Some(0.0),
            |o| o.selection.percent_override = Some(1.5),
            |o| o.selection.percent_cap = Some(-0.1),
            |o| o.selection.clamp = (0.6, 0.3),
            |o| o.selection.clamp = (-0.2, 0.5),
        ];
        for set in broken {
            let mut options = ZatelOptions::default();
            set(&mut options);
            let err = options.validate().expect_err("invalid options accepted");
            assert!(matches!(err, ZatelError::InvalidOptions(_)), "{err}");
        }
    }

    #[test]
    fn small_images_predict_or_report_too_few_chunks() {
        // Every preset and division at res 1..=16: an image too small to
        // give each group a pixel is a typed error naming the resolution, K
        // and the chunk count, and nothing panics.
        let scene = SceneId::Sprng.build(1);
        let mut rejected = Vec::new();
        for config in [GpuConfig::mobile_soc(), GpuConfig::rtx_2060()] {
            for division in [DivisionMethod::default_fine(), DivisionMethod::Coarse] {
                for res in 1..=16 {
                    let options = ZatelOptions {
                        division,
                        parallel: false,
                        ..ZatelOptions::default()
                    };
                    let z =
                        Zatel::new(&scene, config.clone(), res, res, trace()).with_options(options);
                    let k = z.resolve_factor().expect("preset factor");
                    let empty = divide(res, res, k, division)
                        .iter()
                        .any(|g| g.pixels.is_empty());
                    match z.run() {
                        Ok(prediction) => {
                            assert!(!empty, "res {res}: a group is empty");
                            assert_eq!(prediction.groups.len(), k as usize);
                        }
                        Err(err @ ZatelError::TooFewChunks { .. }) => {
                            assert!(empty, "res {res}: rejected, but no group is empty");
                            let chunks = chunk_count(res, res, k, division);
                            assert!(chunks < u64::from(k));
                            assert_eq!(
                                err,
                                ZatelError::TooFewChunks {
                                    width: res,
                                    height: res,
                                    k,
                                    chunks,
                                }
                            );
                            let text = err.to_string();
                            for part in [
                                format!("{res}x{res}"),
                                format!("K = {k}"),
                                format!("{chunks} chunk"),
                            ] {
                                assert!(text.contains(&part), "{text}");
                            }
                            rejected.push((k, matches!(division, DivisionMethod::Coarse), res));
                        }
                        Err(err) => panic!("res {res}: {err}"),
                    }
                }
            }
        }
        // Among the rejected: Mobile (K = 4) fine at res 6, RTX 2060
        // (K = 6) fine at res 10, coarse at res 1 on both and at res 2 on
        // the RTX 2060.
        for case in [
            (4, false, 6),
            (6, false, 10),
            (4, true, 1),
            (6, true, 1),
            (6, true, 2),
        ] {
            assert!(rejected.contains(&case), "{case:?} not rejected");
        }
    }

    #[test]
    fn execute_matches_run_wrappers() {
        let scene = SceneId::Sprng.build(1);
        let z = quick_zatel(&scene);
        let direct = z.run().expect("run");
        let via_execute = z.execute(&RunContext::new()).expect("execute");
        assert_eq!(
            direct.value(Metric::SimCycles),
            via_execute.value(Metric::SimCycles)
        );
        assert_eq!(direct.k, via_execute.k);

        let cache = ArtifactCache::in_memory();
        let warm = z
            .execute(&RunContext::new().with_cache(&cache))
            .expect("cached execute");
        assert_eq!(
            direct.value(Metric::SimCycles),
            warm.value(Metric::SimCycles)
        );
        let again = z
            .execute(&RunContext::new().with_cache(&cache))
            .expect("warm execute");
        assert!(
            again.cache.iter().any(|r| r.outcome.is_hit()),
            "second execution through a shared cache must hit"
        );
    }

    #[test]
    fn execute_regression_shares_the_stage_cache() {
        let scene = SceneId::Sprng.build(1);
        let z = quick_zatel(&scene);
        let fractions = [0.2, 0.3, 0.4];
        let cold = z
            .execute(&RunContext::new().with_regression(fractions))
            .expect("cold execute");
        let cache = ArtifactCache::in_memory();
        let ctx = RunContext::new()
            .with_cache(&cache)
            .with_regression(fractions);
        let first = z.execute(&ctx).expect("first shared execute");
        let second = z.execute(&ctx).expect("second shared execute");
        for m in Metric::ALL {
            assert_eq!(cold.value(m), first.value(m), "{m} cold vs shared cache");
            assert_eq!(cold.value(m), second.value(m), "{m} cold vs warm cache");
        }
        // The heatmap is the one cached stage; the three fractions share
        // one quantization and division and select once each.
        let stages: Vec<&str> = second.cache.iter().map(|r| r.stage.as_str()).collect();
        assert_eq!(stages, ["heatmap"]);
        assert!(first.cache.iter().all(|r| !r.outcome.is_hit()));
        assert!(second.cache.iter().all(|r| r.outcome.is_hit()));
        let spans = |name: &str| second.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(
            (spans("quantize"), spans("divide"), spans("select")),
            (1, 1, 3)
        );
    }

    #[test]
    fn request_id_tags_prediction_without_changing_values() {
        let scene = SceneId::Sprng.build(1);
        let z = quick_zatel(&scene);
        let tagged = z
            .execute(&RunContext::new().with_request_id("req-test-7"))
            .expect("tagged execute");
        assert_eq!(tagged.request_id.as_deref(), Some("req-test-7"));
        assert_eq!(tagged.spans[0].name, "request req-test-7");
        assert_eq!((tagged.spans[0].track, tagged.spans[0].dur_us), (0, 0));
        let plain = z.run().expect("plain run");
        assert!(plain.request_id.is_none());
        assert!(!plain.spans.iter().any(|s| s.name.starts_with("request ")));
        for m in Metric::ALL {
            assert_eq!(
                tagged.value(m),
                plain.value(m),
                "{m} must ignore request tagging"
            );
        }
    }

    #[test]
    fn natural_factor_resolution() {
        let scene = SceneId::Sprng.build(1);
        let z = quick_zatel(&scene);
        assert_eq!(z.resolve_factor().unwrap(), 4);
        let mut z = z;
        z.options_mut().downscale = DownscaleMode::Factor(2);
        assert_eq!(z.resolve_factor().unwrap(), 2);
        z.options_mut().downscale = DownscaleMode::Factor(3);
        assert!(z.resolve_factor().is_err());
        z.options_mut().downscale = DownscaleMode::NoDownscale;
        assert_eq!(z.resolve_factor().unwrap(), 1);
    }

    #[test]
    fn pipeline_produces_finite_prediction() {
        let scene = SceneId::Sprng.build(1);
        let pred = quick_zatel(&scene).run().expect("pipeline must run");
        assert_eq!(pred.k, 4);
        assert_eq!(pred.groups.len(), 4);
        for m in Metric::ALL {
            let v = pred.value(m);
            assert!(v.is_finite() && v >= 0.0, "{m}: {v}");
        }
        assert!(pred.value(Metric::SimCycles) > 0.0);
    }

    #[test]
    fn prediction_error_is_bounded_on_saturating_scene() {
        // BUNNY saturates the GPU; cycle prediction should land within 60%
        // even at this tiny test resolution.
        let scene = SceneId::Bunny.build(2);
        let z = quick_zatel(&scene);
        let pred = z.run().unwrap();
        let reference = z.run_reference();
        let err = crate::metrics::abs_error(
            pred.value(Metric::SimCycles),
            Metric::SimCycles.value(&reference.stats),
        );
        assert!(err < 0.6, "cycles error {err} too large");
    }

    #[test]
    fn higher_percentage_is_more_accurate_on_average() {
        let scene = SceneId::Chsnt.build(3);
        let mut z = quick_zatel(&scene);
        z.options_mut().downscale = DownscaleMode::NoDownscale;
        let reference = z.run_reference();
        let err_at = |p: f64, z: &Zatel<'_>| {
            let mut opts = z.options().clone();
            opts.selection.percent_override = Some(p);
            let z2 =
                Zatel::new(&scene, GpuConfig::mobile_soc(), 64, 64, trace()).with_options(opts);
            let pred = z2.run().unwrap();
            crate::metrics::abs_error(
                pred.value(Metric::SimCycles),
                Metric::SimCycles.value(&reference.stats),
            )
        };
        let low = err_at(0.1, &z);
        let high = err_at(0.9, &z);
        assert!(
            high <= low + 0.02,
            "90% trace (err {high}) should beat 10% trace (err {low})"
        );
    }

    #[test]
    fn no_downscale_single_group() {
        let scene = SceneId::Sprng.build(1);
        let mut z = quick_zatel(&scene);
        z.options_mut().downscale = DownscaleMode::NoDownscale;
        let pred = z.run().unwrap();
        assert_eq!(pred.k, 1);
        assert_eq!(pred.groups.len(), 1);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let scene = SceneId::Wknd.build(4);
        let mut z = quick_zatel(&scene);
        z.options_mut().parallel = true;
        let par = z.run().unwrap();
        z.options_mut().parallel = false;
        let ser = z.run().unwrap();
        for m in Metric::ALL {
            assert_eq!(
                par.value(m),
                ser.value(m),
                "{m} must not depend on host threading"
            );
        }
    }

    #[test]
    fn full_selection_with_no_downscale_matches_reference_exactly() {
        // 100% of pixels, no downscaling, single group → identical stats.
        let scene = SceneId::Sprng.build(1);
        let mut z = quick_zatel(&scene);
        z.options_mut().downscale = DownscaleMode::NoDownscale;
        z.options_mut().selection.percent_override = Some(1.0);
        let pred = z.run().unwrap();
        let reference = z.run_reference();
        for m in Metric::ALL {
            let (p, r) = (pred.value(m), m.value(&reference.stats));
            assert!(
                crate::metrics::abs_error(p, r) < 0.05,
                "{m}: predicted {p} vs reference {r}"
            );
        }
    }

    #[test]
    fn pipeline_records_phase_and_group_spans() {
        let scene = SceneId::Sprng.build(1);
        let pred = quick_zatel(&scene).run().unwrap();
        let names: Vec<&str> = pred.spans.iter().map(|s| s.name.as_str()).collect();
        for phase in [
            "heatmap",
            "quantize",
            "select",
            "simulate-groups",
            "extrapolate",
        ] {
            assert!(
                names.contains(&phase),
                "missing span '{phase}' in {names:?}"
            );
        }
        let group_spans = pred
            .spans
            .iter()
            .filter(|s| s.name.starts_with("group "))
            .count();
        assert_eq!(group_spans, pred.groups.len(), "one span per group job");
        assert!(
            pred.spans
                .iter()
                .all(|s| s.name.starts_with("group ") || s.track == 0),
            "phase spans live on track 0"
        );
        // Spans arrive sorted; group spans start inside simulate-groups.
        let sim = pred
            .spans
            .iter()
            .find(|s| s.name == "simulate-groups")
            .unwrap();
        for g in pred.spans.iter().filter(|s| s.name.starts_with("group ")) {
            assert!(g.start_us >= sim.start_us);
            assert!(g.start_us + g.dur_us <= sim.start_us + sim.dur_us + 1000);
        }
    }

    #[test]
    fn observing_does_not_change_prediction() {
        let scene = SceneId::Sprng.build(1);
        let mut z = quick_zatel(&scene);
        let plain = z.run().unwrap();
        assert!(plain.groups.iter().all(|g| g.obs.is_none()));
        z.options_mut().observe = Some(obs::ObserveOptions::default());
        z.options_mut().jobs = Some(2);
        let observed = z.run().unwrap();
        for m in Metric::ALL {
            assert_eq!(
                plain.value(m),
                observed.value(m),
                "{m} must ignore observation"
            );
        }
        for g in &observed.groups {
            let mut recorder = g.obs.clone().expect("obs attached");
            assert!(recorder.mem_read_latency().count() > 0);
            assert!(recorder.take_timeline().is_some(), "timeline on by default");
        }
    }

    #[test]
    fn regression_variant_runs() {
        let scene = SceneId::Sprng.build(1);
        let mut z = quick_zatel(&scene);
        z.options_mut().downscale = DownscaleMode::NoDownscale;
        let regress = |fractions| z.execute(&RunContext::new().with_regression(fractions));
        let pred = regress([0.2, 0.3, 0.4]).unwrap();
        assert!(pred.value(Metric::SimCycles).is_finite());
        assert!(regress([0.4, 0.3, 0.2]).is_err());
        assert!(regress([0.2, 0.35, 0.4]).is_err());
    }

    #[test]
    fn speedup_and_errors_api() {
        let scene = SceneId::Sprng.build(1);
        let z = quick_zatel(&scene);
        let pred = z.run().unwrap();
        let reference = z.run_reference();
        let errs = pred.errors_vs(&reference.stats);
        assert_eq!(errs.len(), 7);
        let mae = pred.mae_vs(&reference.stats);
        assert!(mae.is_finite() || mae.is_infinite()); // defined either way
        assert!(pred.speedup_vs(&reference) > 0.0);
    }
}
