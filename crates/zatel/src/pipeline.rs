//! The end-to-end Zatel pipeline (paper Fig. 3): heatmap → quantize →
//! downscale → divide → select → simulate per group → combine.
//!
//! [`run_jobs`] plans and schedules every simulation, in three steps.
//! *Plan*: each scene's BVH is built, then each heatmap comes through an
//! [`ArtifactCache`] ([`crate::stages`]), both on the calling worker and
//! its spare one when the list lends one; each distinct quantization and
//! division is made once per list. *Run*: every full-frame reference and every group's
//! selection and simulation is one job of a single
//! [`SimExecutor::map`] call, references first. *Finish*:
//! extrapolation. A predict ([`Zatel::execute`]), a Section IV-F regression
//! (three traced fractions fitted), a sweep and the figure plan are calls
//! to it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpusim::{GpuConfig, Metric, NullHooks, SimHooks, SimStats, Simulator, Workload};
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
use crate::select::{select_pixels, SelectionOptions};
use crate::sim_executor::{available_jobs, SimExecutor, Worker};
use crate::stages::{ArtifactCache, Fingerprint, HeatmapStage, Stage, StageCacheRecord};

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
    /// degenerate quantization, an empty division chunk or selection
    /// parameters outside their documented domains.
    ///
    /// # Errors
    ///
    /// Returns [`ZatelError::InvalidOptions`] describing the offending
    /// option.
    pub fn validate(&self) -> Result<(), ZatelError> {
        let invalid = |msg: String| Err(ZatelError::InvalidOptions(msg));
        if self.jobs == Some(0) {
            return invalid(
                "jobs (--jobs) must be at least 1; leave it unset to size to the host".into(),
            );
        }
        if self.quant_colors == 0 {
            return invalid("quant_colors must be at least 1".into());
        }
        if let DivisionMethod::Fine {
            chunk_width: w,
            chunk_height: h,
        } = self.division
        {
            if w == 0 || h == 0 {
                return invalid(format!("division chunks must be non-empty, got {w}x{h}"));
            }
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
    /// Wall-clock time of the preprocessing this prediction did: the
    /// heatmap profile (or its cache lookup) and the quantization, unless an
    /// earlier prediction of its job list made that quantization. Read off
    /// the span sheet, from the heatmap span's start to the quantize span's
    /// end.
    pub preprocess_wall: Duration,
    /// Host wall-clock time of the group simulations, summed over the
    /// prediction's jobs (every traced fraction's under regression): the
    /// serial cost, the same whichever number of workers ran them.
    pub sim_wall: Duration,
    /// Host wall-clock spans of the pipeline phases (bvh, heatmap,
    /// quantize, divide, select, simulate-groups with one `group N` span per
    /// job on track `1 + worker`, and extrapolate), sorted by start offset.
    /// `bvh` is there when the prediction's planning built its scene's BVH,
    /// which a scene's first planning in a list does unless something
    /// built it before. A
    /// heatmap served by the cache is `heatmap (cached)`; a quantization or
    /// division made by an earlier prediction of the job list is a
    /// zero-length `quantize (shared)` or `divide (shared)`. A traced
    /// execution ([`RunContext::with_request_id`]) opens with a zero-width
    /// `request <id>` span.
    pub spans: Vec<SpanRecord>,
    /// The execution-time heatmap the prediction was planned on, shared
    /// with every prediction of its job list that uses it.
    pub heatmap: Arc<Heatmap>,
    /// How the heatmap, the one cached stage, was served: one record. A
    /// cold [`Zatel::run`] reports a miss; sweep points sharing a cache
    /// report hits for the reused heatmap.
    pub cache: Vec<StageCacheRecord>,
}

impl Prediction {
    /// Predicted value of `metric`.
    pub fn value(&self, metric: Metric) -> f64 {
        self.values[metric.index()]
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

/// The traced fractions of the paper's Section IV-F regression runs (20,
/// 30 and 40 %), which `zatel predict --regression` and Fig. 20 fit.
pub const REGRESSION_FRACTIONS: [f64; 3] = [0.2, 0.3, 0.4];

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

    /// Tags this execution with a request ID: a zero-width `request <id>`
    /// marker span is prepended to [`Prediction::spans`], so every
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
#[derive(Debug, Clone)]
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

    /// Runs the pipeline as described by `ctx`: a job list ([`run_jobs`])
    /// of this one prediction, on [`Zatel::executor`]. [`Zatel::run`] is
    /// its empty-context spelling.
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
        let (mut predictions, _) = run_jobs(&[(self, ctx.clone())], &[], self.executor())?;
        Ok(predictions.swap_remove(0))
    }

    /// Plans one execution as the job of `worker`: validates, builds the
    /// scene's BVH unless built, takes the heatmap through `cache`, then
    /// quantizes and divides (unless an earlier plan of the list in
    /// `shared` already did), each under a span of its name. What is left
    /// are the group selections and simulations and the extrapolation
    /// ([`run_jobs`]).
    fn plan(
        &self,
        ctx: &RunContext<'_>,
        cache: &ArtifactCache,
        shared: &mut Shared,
        worker: Worker,
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
        let sheet = SpanSheet::new();
        if !self.scene.bvh_is_built() {
            let _span = sheet.span("bvh");
            self.scene.bvh_lent(|main, help| worker.join(main, help));
        }
        let start = sheet.elapsed();
        let stage = HeatmapStage {
            width: self.width,
            height: self.height,
            trace: self.trace,
        };
        let (heatmap, fingerprint, outcome) =
            cache.get_or_make(&stage, self.scene.fingerprint(), || {
                stage.run_on(self.scene, worker)
            });
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
        let (colors, seed) = (self.options.quant_colors, self.trace.seed);
        let key = (fingerprint, colors, seed);
        let quantized = memo(&mut shared.quantized, key, &sheet, "quantize", || {
            QuantizedHeatmap::quantize(&heatmap, colors, seed)
        });
        let preprocess_wall = sheet.elapsed().saturating_sub(start);

        let k = self.resolve_factor()?;
        let down = self.target.downscaled(k)?;
        let (width, height, method) = (self.width, self.height, self.options.division);
        let key = (width, height, k, method);
        let groups = memo(&mut shared.divisions, key, &sheet, "divide", || {
            divide(width, height, k, method)
        });
        if groups.iter().any(|g| g.pixels.is_empty()) {
            return Err(ZatelError::TooFewChunks {
                width,
                height,
                k,
                chunks: chunk_count(width, height, k, method),
            });
        }

        // One selection per traced fraction: the configured one, or the
        // regression's three.
        let fractions = ctx.regression.map_or(vec![None], |f| f.map(Some).to_vec());
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
                (span, options)
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

    /// The executor this predictor's job lists run on: `jobs` workers (the
    /// host's available parallelism when unset), or one when `parallel` is
    /// off.
    pub fn executor(&self) -> SimExecutor {
        SimExecutor::new(match (self.options.parallel, self.options.jobs) {
            (false, _) => 1,
            (true, Some(n)) => n,
            (true, None) => available_jobs(),
        })
    }

    /// Simulates the full workload on the full-size GPU — the ground truth
    /// every prediction is evaluated against (and the denominator of the
    /// speedup). [`run_jobs`] runs it as one job of a list; alone, it is a
    /// one-job list of this predictor's [`Zatel::executor`], so with two or
    /// more workers a spare one decodes ahead of it.
    pub fn run_reference(&self) -> Reference {
        self.executor().run_one(|worker| self.reference(worker))
    }

    /// [`Zatel::run_reference`] as the job of `worker`. The scene's BVH is
    /// built first, unless built, outside the reference's wall.
    fn reference(&self, worker: Worker) -> Reference {
        self.scene.bvh_lent(|main, help| worker.join(main, help));
        #[expect(
            clippy::disallowed_methods,
            reason = "measurement around the reference simulation: feeds only Reference::wall \
                      (the speedup numerator), never its SimStats"
        )]
        let start = Instant::now();
        let workload = RtWorkload::full_frame(self.scene, self.width, self.height, self.trace);
        let stats = simulate(&self.target, &workload, &mut NullHooks, worker);
        Reference {
            stats,
            wall: start.elapsed(),
        }
    }
}

/// What the plans of one job list share, made by the first plan that needs
/// it: each quantization (heatmap, colours, seed) and division (width,
/// height, K, method).
#[derive(Debug, Default)]
struct Shared {
    quantized: Memo<(Fingerprint, usize, u64), QuantizedHeatmap>,
    divisions: Memo<(u32, u32, u32, DivisionMethod), Vec<Group>>,
}

/// Values made once and shared, by key.
type Memo<K, V> = Vec<(K, Arc<V>)>;

/// The value kept under `key` in `memo`, made by `make` under a `name`
/// span on `sheet` on first use; a later use records a zero-length
/// `"{name} (shared)"` span instead.
fn memo<K: PartialEq, V>(
    memo: &mut Memo<K, V>,
    key: K,
    sheet: &SpanSheet,
    name: &str,
    make: impl FnOnce() -> V,
) -> Arc<V> {
    if let Some((_, value)) = memo.iter().find(|(k, _)| *k == key) {
        let shared = format!("{name} (shared)");
        sheet.record(&shared, 0, sheet.elapsed(), Duration::ZERO);
        return Arc::clone(value);
    }
    let value = {
        let _span = sheet.span(name);
        Arc::new(make())
    };
    memo.push((key, Arc::clone(&value)));
    value
}

/// An execution whose heatmap, quantization and division are done
/// ([`Zatel::plan`]): what is left are its group selections and
/// simulations and the extrapolation.
#[derive(Debug)]
struct Plan<'z, 's> {
    zatel: &'z Zatel<'s>,
    sheet: SpanSheet,
    record: StageCacheRecord,
    preprocess_wall: Duration,
    k: u32,
    down: GpuConfig,
    groups: Arc<Vec<Group>>,
    heatmap: Arc<Heatmap>,
    quantized: Arc<QuantizedHeatmap>,
    regression: Option<[f64; 3]>,
    /// Per traced fraction: its span name and selection options.
    traced: Vec<(String, SelectionOptions)>,
    request_id: Option<String>,
}

/// One job of a list: a full-frame reference, or one group of a plan under
/// one traced fraction's selection options.
enum Job<'p, 'z, 's> {
    Reference(&'z Zatel<'s>),
    Group(&'p Plan<'z, 's>, &'p SelectionOptions, &'p Group),
}

/// What a [`Job`] simulated; a group with the offsets on its plan's sheet
/// at which its selection began, its simulation began and ended.
enum Done {
    Reference(Reference),
    Group(Box<GroupOutcome>, [Duration; 3]),
}

impl<'z, 's> Plan<'z, 's> {
    /// The plan's group jobs, fraction by fraction.
    fn jobs<'p>(&'p self) -> impl Iterator<Item = Job<'p, 'z, 's>> {
        self.traced.iter().flat_map(move |(_, options)| {
            self.groups
                .iter()
                .map(move |group| Job::Group(self, options, group))
        })
    }

    /// Selects `group`'s pixels under `options` and simulates them on the
    /// downscaled GPU; the outcome's wall is the simulation's, recorded as
    /// its `group N` span on track `1 + worker`.
    fn run_group(&self, worker: Worker, options: &SelectionOptions, group: &Group) -> Done {
        let (zatel, down) = (self.zatel, &self.down);
        let selecting = self.sheet.elapsed();
        let selection = select_pixels(group, &self.quantized, options);
        let simulating = self.sheet.elapsed();
        let pixels = group.pixels.clone();
        let workload = RtWorkload::new(zatel.scene, zatel.width, zatel.height, zatel.trace, pixels)
            .with_selection(selection.mask);
        let (stats, obs) = match &zatel.options.observe {
            // The uninstrumented path keeps the NullHooks monomorphization.
            None => (simulate(down, &workload, &mut NullHooks, worker), None),
            Some(o) => {
                let label = format!("group {}", group.index);
                let mut obs = ObsHooks::for_gpu(group.index, &label, down, o);
                (simulate(down, &workload, &mut obs, worker), Some(obs))
            }
        };
        let end = self.sheet.elapsed();
        let wall = end.saturating_sub(simulating);
        let (name, track) = (format!("group {}", group.index), worker.index() as u32 + 1);
        self.sheet.record(&name, track, simulating, wall);
        let outcome = GroupOutcome {
            index: group.index,
            pixels: group.pixels.len(),
            traced_fraction: workload.traced_fraction(),
            target_percent: selection.target_percent,
            stats,
            wall,
            obs,
        };
        Done::Group(Box::new(outcome), [selecting, simulating, end])
    }

    /// Takes the plan's jobs from `done` (each with its [`Done::Group`]
    /// offsets), in [`Plan::jobs`] order, records the phase spans and
    /// extrapolates the prediction. Per fraction, the simulate span runs
    /// from the first simulation's start to the last one's end, and
    /// `select` starts at the first selection and lasts as long as the
    /// fraction's selections together, which ran between simulations.
    fn finish(self, done: &mut impl Iterator<Item = (GroupOutcome, [Duration; 3])>) -> Prediction {
        let mut sim_wall = Duration::ZERO;
        let mut runs = Vec::with_capacity(self.traced.len());
        for (span, _) in &self.traced {
            let mut select = (Duration::MAX, Duration::ZERO);
            let mut simulate = (Duration::MAX, Duration::ZERO);
            let mut outcomes = Vec::with_capacity(self.groups.len());
            for (outcome, [selecting, simulating, end]) in done.by_ref().take(self.groups.len()) {
                select.0 = select.0.min(selecting);
                select.1 += simulating.saturating_sub(selecting);
                simulate = (simulate.0.min(simulating), simulate.1.max(end));
                sim_wall += outcome.wall;
                outcomes.push(outcome);
            }
            self.sheet.record("select", 0, select.0, select.1);
            let (first, last) = simulate;
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
            heatmap: self.heatmap,
            cache: vec![self.record],
        }
    }
}

/// Simulates `workload` on `config` as the job of `worker`: helped by the
/// worker's spare one, when the pool lends it one, else on this thread
/// alone. The statistics and hook calls are the same either way.
fn simulate<H: SimHooks>(
    config: &GpuConfig,
    workload: &dyn Workload,
    hooks: &mut H,
    worker: Worker,
) -> SimStats {
    let simulator = Simulator::new(config.clone());
    if worker.has_spare() {
        simulator.run_helped(workload, hooks, |main, help| worker.join(main, help))
    } else {
        simulator.run_with_hooks(workload, hooks)
    }
}

/// Runs `predictions` (each a predictor with its own [`RunContext`]) and
/// full-frame `references` as one job list on `executor`; returns both in
/// input order.
///
/// The predictions are planned one after another on the calling thread,
/// which is lent the pool's spare worker when it has one
/// ([`SimExecutor::run_one`]): each scene's BVH is built by its first
/// plan, unless built before, and each heatmap comes through its context's
/// cache (a private one shared by contexts without one); each distinct
/// quantization and division is made once for the list. A reference whose
/// scene no plan built builds it in its job.
/// Then every reference and every `(prediction, traced fraction, group)`
/// selection and simulation is one job of a single
/// [`SimExecutor::map`] call, references first. Every job times itself on
/// its plan's span sheet, so no wall and no simulated value depends on how
/// many workers share the list.
///
/// # Errors
///
/// Returns the first [`ZatelError`] a prediction's planning produced (see
/// [`Zatel::execute`]); nothing is simulated then.
pub fn run_jobs<'z, 's>(
    predictions: &[(&'z Zatel<'s>, RunContext<'_>)],
    references: &[&'z Zatel<'s>],
    executor: SimExecutor,
) -> Result<(Vec<Prediction>, Vec<Reference>), ZatelError> {
    let private = ArtifactCache::in_memory();
    let mut shared = Shared::default();
    let plans = executor.run_one(|worker| {
        predictions
            .iter()
            .map(|(zatel, ctx)| {
                let cache = ctx.cache.unwrap_or(&private);
                zatel.plan(ctx, cache, &mut shared, worker)
            })
            .collect::<Result<Vec<_>, _>>()
    })?;

    let jobs: Vec<Job<'_, 'z, 's>> = references
        .iter()
        .map(|zatel| Job::Reference(zatel))
        .chain(plans.iter().flat_map(Plan::jobs))
        .collect();
    let outcomes = executor.map(&jobs, |worker, job| match *job {
        Job::Reference(zatel) => Done::Reference(zatel.reference(worker)),
        Job::Group(plan, options, group) => plan.run_group(worker, options, group),
    });
    let (mut simulated, mut groups) = (Vec::new(), Vec::new());
    for outcome in outcomes {
        match outcome {
            Done::Reference(reference) => simulated.push(reference),
            Done::Group(group, at) => groups.push((*group, at)),
        }
    }
    let mut groups = groups.into_iter();
    let predictions = plans
        .into_iter()
        .map(|plan| plan.finish(&mut groups))
        .collect();
    Ok((predictions, simulated))
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
            return Ok(crate::sweep::factor_mode(k));
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

        fn chunk(o: &mut ZatelOptions, chunk_width: u32, chunk_height: u32) {
            o.division = DivisionMethod::Fine {
                chunk_width,
                chunk_height,
            };
        }
        let broken: [fn(&mut ZatelOptions); 9] = [
            |o| o.jobs = Some(0),
            |o| o.quant_colors = 0,
            |o| chunk(o, 0, 2),
            |o| chunk(o, 32, 0),
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
        let fractions = REGRESSION_FRACTIONS;
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
        assert_eq!(tagged.spans[0].name, "request req-test-7");
        assert_eq!((tagged.spans[0].track, tagged.spans[0].dur_us), (0, 0));
        let plain = z.run().expect("plain run");
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
            let mut opts = z.options.clone();
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
        for jobs in [None, Some(2)] {
            let mut z = quick_zatel(&scene);
            z.options_mut().jobs = jobs;
            let workers = jobs.unwrap_or_else(available_jobs) as u32;
            let pred = z.run().unwrap();
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
            let (groups, phases): (Vec<&SpanRecord>, Vec<&SpanRecord>) = pred
                .spans
                .iter()
                .partition(|s| s.name.starts_with("group "));
            assert_eq!(groups.len(), pred.groups.len(), "one span per group job");
            assert!(
                phases.iter().all(|s| s.track == 0),
                "phase spans live on track 0"
            );
            // Each group span is its outcome's wall, on its worker's track.
            for outcome in &pred.groups {
                let name = format!("group {}", outcome.index);
                let span = groups.iter().find(|s| s.name == name).unwrap();
                assert!((1..=workers).contains(&span.track), "{span:?}");
                assert_eq!(span.dur_us, outcome.wall.as_micros() as u64, "{span:?}");
            }
            // The preprocessing wall covers the heatmap and quantize spans.
            let preprocess: u64 = phases
                .iter()
                .filter(|s| s.name == "heatmap" || s.name == "quantize")
                .map(|s| s.dur_us)
                .sum();
            assert!(pred.preprocess_wall.as_micros() as u64 >= preprocess);
            // Spans arrive sorted; group spans start inside simulate-groups.
            let sim = phases.iter().find(|s| s.name == "simulate-groups").unwrap();
            for g in &groups {
                assert!(g.start_us >= sim.start_us);
                assert!(g.start_us + g.dur_us <= sim.start_us + sim.dur_us + 1000);
            }
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
        let pred = regress(REGRESSION_FRACTIONS).unwrap();
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
