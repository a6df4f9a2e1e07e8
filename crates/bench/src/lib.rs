//! # zatel-bench — the paper's evaluation as one figure plan
//!
//! Every table and figure of the paper's evaluation (Table III, Figs.
//! 10–20; DESIGN.md has the index) is a [`Figure`] in [`FIGURES`]: the
//! predictions it reads, each with its full-GPU reference, and a renderer
//! that prints its table and returns its JSON document. A [`Plan`] keeps
//! one of each distinct prediction and reference of its figures, so a
//! sweep that four figures read is simulated once. [`Plan::run`] hands
//! them all to one [`zatel::run_jobs`] list through one [`ArtifactCache`]
//! (each scene's heatmap is profiled once, each distinct quantization and
//! division made once), then renders the figures in order into one
//! document keyed by figure name. The `figures` bench writes it to
//! `target/zatel-results/figures.json`, relative to the crate:
//!
//! ```text
//! cargo bench -p zatel-bench              # every figure
//! cargo bench -p zatel-bench -- fig13     # the figures whose name contains "fig13"
//! ```
//!
//! The `accuracy` bench writes the accuracy [`ledger`] — every scene on
//! both presets over several scene and selection seeds, with their spreads
//! — to the committed `BENCH_accuracy.json`; it runs only by name:
//!
//! ```text
//! ZATEL_RES=64 cargo bench -p zatel-bench --bench accuracy
//! ```
//!
//! [`Setup::from_env`] reads the environment once; a malformed or zero
//! value is an error naming the variable (a zero seed is a seed).
//!
//! | Variable | Default | Meaning |
//! |----------|---------|---------|
//! | `ZATEL_RES` | 192 | Square image resolution (the paper uses 512) |
//! | `ZATEL_SPP` | 2 | Samples per pixel (the paper uses 2) |
//! | `ZATEL_SEED` | 42 | Master seed for scenes/tracing/selection |
//! | `ZATEL_JOBS` | host cores | Worker threads of the job list |

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod accuracy;
mod figures;

use std::collections::BTreeMap;

use gpusim::GpuConfig;
use minijson::{Map, Value};
use rtcore::scenes::SceneId;
use rtcore::tracer::TraceConfig;
use zatel::sim_executor::available_jobs;
use zatel::{
    ArtifactCache, Prediction, Reference, RunContext, SimExecutor, Zatel, ZatelError, ZatelOptions,
};

pub use accuracy::ledger;
pub use figures::FIGURES;

/// The campaign's resolution, sampling, seed and worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Setup {
    /// Square image resolution (`ZATEL_RES`).
    pub res: u32,
    /// Samples per pixel (`ZATEL_SPP`).
    pub spp: u32,
    /// Master seed (`ZATEL_SEED`).
    pub seed: u64,
    /// Worker threads of the job list (`ZATEL_JOBS`).
    pub jobs: usize,
}

impl Setup {
    /// Reads the setup from the process environment: an unset variable
    /// takes its default; a set one must parse as an unsigned integer in its
    /// type's range, positive for all but the seed.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed variable.
    pub fn from_env() -> Result<Setup, String> {
        Setup::parse(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
    }

    /// Reads the setup through `lookup` (variable name to value, `None`
    /// when unset). An unset variable takes its default; a set one must
    /// parse as an unsigned integer in its type's range, positive for all
    /// but the seed.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed variable.
    pub(crate) fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Setup, String> {
        let var = |name: &str, default: u64, positive: bool| -> Result<u64, String> {
            let Some(text) = lookup(name) else {
                return Ok(default);
            };
            match text.parse::<u64>() {
                Ok(v) if v > 0 || !positive => Ok(v),
                _ if positive => Err(format!("{name}={text:?} is not a positive integer")),
                _ => Err(format!("{name}={text:?} is not an unsigned integer")),
            }
        };
        let count = |name: &str, default: u64| {
            let v = var(name, default, true)?;
            u32::try_from(v).map_err(|_| format!("{name}={v} is out of range"))
        };
        Ok(Setup {
            res: count("ZATEL_RES", 192)?,
            spp: count("ZATEL_SPP", 2)?,
            seed: var("ZATEL_SEED", 42, false)?,
            jobs: count("ZATEL_JOBS", available_jobs() as u64)? as usize,
        })
    }

    /// The evaluation trace configuration.
    pub(crate) fn trace(&self) -> TraceConfig {
        TraceConfig {
            samples_per_pixel: self.spp,
            seed: self.seed,
            ..TraceConfig::default()
        }
    }
}

/// A prediction a figure reads: the pipeline on one scene and GPU with the
/// given options. Equal predictions are simulated once. The plan's job list
/// runs on [`Setup::jobs`] workers, whatever [`ZatelOptions::jobs`] says.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Predict {
    /// The scene.
    pub(crate) scene: SceneId,
    /// The full-size target GPU.
    pub(crate) config: GpuConfig,
    /// Pipeline options.
    pub(crate) options: ZatelOptions,
    /// The Section IV-F regression fractions, if any.
    pub(crate) regression: Option<[f64; 3]>,
}

impl Predict {
    /// The default pipeline on `scene` and `config`.
    pub(crate) fn new(scene: SceneId, config: GpuConfig) -> Self {
        Predict {
            scene,
            config,
            options: ZatelOptions::default(),
            regression: None,
        }
    }

    /// The same prediction with `edit` applied to its options.
    pub(crate) fn with(mut self, edit: impl FnOnce(&mut ZatelOptions)) -> Self {
        edit(&mut self.options);
        self
    }
}

/// One point of a figure, simulated.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    /// The prediction asked for.
    pub(crate) point: &'a Predict,
    /// What it predicted.
    pub(crate) prediction: &'a Prediction,
    /// The reference simulation of its scene on its GPU.
    pub(crate) reference: &'a Reference,
}

impl Row<'_> {
    /// Relative absolute error of every metric against the reference, in
    /// [`gpusim::Metric::ALL`] order.
    pub(crate) fn errors(&self) -> Vec<f64> {
        let errors = self.prediction.errors_vs(&self.reference.stats);
        errors.into_iter().map(|(_, e)| e).collect()
    }
}

/// One table or figure of the paper.
#[derive(Debug)]
pub struct Figure {
    /// Name, the key of its results document.
    pub name: &'static str,
    /// The two banner lines above its table.
    banner: &'static str,
    /// The predictions it reads, in the order its renderer reads them.
    points: fn(&Setup) -> Vec<Predict>,
    /// Prints its table from its points' rows and returns its document.
    render: fn(&[Row]) -> Value,
}

/// The index of `item` in `list`, appending it if absent.
fn intern<T: PartialEq>(list: &mut Vec<T>, item: T) -> usize {
    list.iter().position(|x| *x == item).unwrap_or_else(|| {
        list.push(item);
        list.len() - 1
    })
}

/// The distinct simulations of some figures.
#[derive(Debug)]
pub struct Plan<'f> {
    setup: Setup,
    figures: Vec<&'f Figure>,
    /// Every distinct prediction, in first-named order.
    predictions: Vec<Predict>,
    /// Every distinct (scene, GPU) reference, in first-named order.
    references: Vec<(SceneId, GpuConfig)>,
    /// Per figure and point: the indices of its prediction and reference.
    rows: Vec<Vec<(usize, usize)>>,
}

impl<'f> Plan<'f> {
    /// Collects the points of `figures` and their references, keeping one
    /// of each distinct value.
    pub fn new(setup: &Setup, figures: &[&'f Figure]) -> Self {
        let (mut predictions, mut references) = (Vec::new(), Vec::new());
        let rows = figures
            .iter()
            .map(|f| {
                (f.points)(setup)
                    .into_iter()
                    .map(|p| {
                        let reference = intern(&mut references, (p.scene, p.config.clone()));
                        (intern(&mut predictions, p), reference)
                    })
                    .collect()
            })
            .collect();
        Plan {
            setup: *setup,
            figures: figures.to_vec(),
            predictions,
            references,
            rows,
        }
    }

    /// How many points the figures named, repeats included.
    fn named(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Simulates the plan, prints how much it simulated, then prints the
    /// figures in order and returns their documents keyed by name.
    ///
    /// # Errors
    ///
    /// The first failing prediction's [`ZatelError`].
    pub fn run(&self) -> Result<Value, ZatelError> {
        let (references, predictions, heatmaps) = self.simulate()?;
        let s = &self.setup;
        println!(
            "figure plan: {} predictions and {} references simulated, {heatmaps} heatmaps \
             profiled ({} points named by {} figures), on {} workers",
            predictions.len(),
            references.len(),
            self.named(),
            self.figures.len(),
            s.jobs
        );
        let mut doc = Map::new();
        for (figure, rows) in self.figures.iter().zip(&self.rows) {
            let rule = "=".repeat(78);
            println!("\n{rule}\n{}", figure.banner);
            println!(
                "resolution {0}x{0}, {1} spp, seed {2}\n{rule}",
                s.res, s.spp, s.seed
            );
            let rows: Vec<Row> = rows
                .iter()
                .map(|&(p, r)| Row {
                    point: &self.predictions[p],
                    prediction: &predictions[p],
                    reference: &references[r],
                })
                .collect();
            doc.insert(figure.name.into(), (figure.render)(&rows));
        }
        Ok(Value::Object(doc))
    }

    /// Simulates every reference and prediction once, as one
    /// [`zatel::run_jobs`] list on [`Setup::jobs`] workers. Also returns
    /// how many heatmaps were profiled.
    fn simulate(&self) -> Result<(Vec<Reference>, Vec<Prediction>, u64), ZatelError> {
        let (res, trace) = (self.setup.res, self.setup.trace());
        let mut scenes = BTreeMap::new();
        for &(id, _) in &self.references {
            scenes
                .entry(id)
                .or_insert_with(|| id.build(self.setup.seed));
        }
        let zatel = |id: &SceneId, config: &GpuConfig| {
            Zatel::new(&scenes[id], config.clone(), res, res, trace)
        };
        let references: Vec<Zatel> = self.references.iter().map(|(id, c)| zatel(id, c)).collect();
        let references: Vec<&Zatel> = references.iter().collect();
        let predictors: Vec<Zatel> = self
            .predictions
            .iter()
            .map(|p| zatel(&p.scene, &p.config).with_options(p.options.clone()))
            .collect();
        let cache = ArtifactCache::in_memory();
        let jobs: Vec<_> = predictors
            .iter()
            .zip(&self.predictions)
            .map(|(zatel, p)| {
                let mut ctx = RunContext::new().with_cache(&cache);
                if let Some(fractions) = p.regression {
                    ctx = ctx.with_regression(fractions);
                }
                (zatel, ctx)
            })
            .collect();
        let (predictions, references) =
            zatel::run_jobs(&jobs, &references, SimExecutor::new(self.setup.jobs))?;
        Ok((references, predictions, cache.stats().misses))
    }
}

/// Formats a fraction as a percentage string.
pub(crate) fn pct(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{:.1}%", 100.0 * x)
    }
}

/// Prints one table row: a left-aligned label, then right-aligned cells.
pub(crate) fn row(label: &str, cells: impl IntoIterator<Item = impl std::fmt::Display>) {
    print!("{label:<18}");
    for c in cells {
        print!(" {c:>12}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(vars: &[(&str, &str)]) -> Result<Setup, String> {
        Setup::parse(|name| {
            vars.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| (*v).to_owned())
        })
    }

    #[test]
    fn setup_defaults_and_overrides() {
        let s = setup(&[]).unwrap();
        assert_eq!((s.res, s.spp, s.seed), (192, 2, 42));
        assert!(s.jobs >= 1);
        let s = setup(&[
            ("ZATEL_RES", "32"),
            ("ZATEL_JOBS", "3"),
            ("ZATEL_SEED", "0"),
        ])
        .unwrap();
        assert_eq!((s.res, s.spp, s.seed, s.jobs), (32, 2, 0, 3));
    }

    #[test]
    fn setup_rejects_malformed_and_zero_values() {
        for (name, value) in [
            ("ZATEL_RES", "19x"),
            ("ZATEL_RES", "4294967296"),
            ("ZATEL_RES", "0"),
            ("ZATEL_SPP", ""),
            ("ZATEL_SPP", "0"),
            ("ZATEL_SEED", "-1"),
            ("ZATEL_JOBS", "0"),
            ("ZATEL_JOBS", "two"),
        ] {
            let err = setup(&[(name, value)]).unwrap_err();
            assert!(err.starts_with(name), "{name}={value}: {err}");
        }
    }

    #[test]
    fn the_plan_simulates_each_distinct_run_once() {
        let s = setup(&[]).unwrap();
        let plan = Plan::new(&s, &FIGURES.iter().collect::<Vec<_>>());
        assert_eq!(plan.named(), 634);
        assert_eq!((plan.predictions.len(), plan.references.len()), (344, 16));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.125), "12.5%");
        assert_eq!(pct(f64::INFINITY), "inf");
    }
}
