//! The accuracy ledger: the default pipeline's error on every scene and
//! both presets, with the spread that tells a model change from noise.
//!
//! A cell is one scene on one preset, 16 in all. Each cell predicts its
//! scene at [`SCENE_SEEDS`] scene seeds (scene geometry, tracing and
//! k-means: `ZATEL_SEED` and the ones after it) times [`SELECTION_SEEDS`]
//! selection seeds (the default one and the ones after it), each against
//! the full simulation of its scene seed. Every run is one job of one
//! [`zatel::run_jobs`] list. The document holds no wall-clock field, so
//! the same setup writes the same bytes at any worker count; the `accuracy`
//! bench commits it as `BENCH_accuracy.json` at 64².

use gpusim::{GpuConfig, Metric};
use minijson::{json, Map, Value};
use rtcore::scenes::SceneId;
use rtcore::tracer::TraceConfig;
use zatel::{ArtifactCache, RunContext, SimExecutor, Zatel, ZatelError, ZatelOptions};

use crate::{pct, row, Setup};

/// Scene seeds per cell.
const SCENE_SEEDS: u64 = 5;

/// Selection seeds per scene seed.
const SELECTION_SEEDS: u64 = 3;

/// `max − min` of `values`.
fn spread(values: impl IntoIterator<Item = f64>) -> f64 {
    let (lo, hi) = values
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
    hi - lo
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u32), |(sum, n), v| (sum + v, n + 1));
    sum / f64::from(n.max(1))
}

/// One cell's summary from its runs' MAEs, `maes[scene seed][selection
/// seed]`: the cell MAE, the scene-seed spread (max − min of the per-seed
/// MAEs, each averaged over the selection seeds) and the selection-seed
/// spread (max − min over the selection seeds, averaged over the scene
/// seeds).
fn summarize(maes: &[Vec<f64>]) -> [f64; 3] {
    let mae = mean(maes.iter().flatten().copied());
    let scene_spread = spread(maes.iter().map(|m| mean(m.iter().copied())));
    let selection_spread = mean(maes.iter().map(|m| spread(m.iter().copied())));
    [mae, scene_spread, selection_spread]
}

/// Simulates the ledger of `setup` (its resolution, spp, first scene seed
/// and worker count), prints one row per cell and returns the document.
///
/// # Errors
///
/// The first failing prediction's [`ZatelError`].
pub fn ledger(setup: &Setup) -> Result<Value, ZatelError> {
    let configs = [GpuConfig::mobile_soc(), GpuConfig::rtx_2060()];
    let scene_seeds: Vec<u64> = (0..SCENE_SEEDS).map(|i| setup.seed + i).collect();
    let selection_seeds: Vec<u64> = (0..SELECTION_SEEDS)
        .map(|i| ZatelOptions::default().selection.seed + i)
        .collect();
    let trace = |seed| TraceConfig {
        seed,
        ..setup.trace()
    };
    let res = setup.res;
    let scenes: Vec<Vec<_>> = SceneId::ALL
        .iter()
        .map(|id| scene_seeds.iter().map(|&s| id.build(s)).collect())
        .collect();

    // Cells in scene-major order; within a cell, scene seed-major.
    let mut references = Vec::new();
    let mut predictors = Vec::new();
    for seeded in &scenes {
        for config in &configs {
            for (scene, &seed) in seeded.iter().zip(&scene_seeds) {
                let zatel = Zatel::new(scene, config.clone(), res, res, trace(seed));
                for &selection in &selection_seeds {
                    let mut options = ZatelOptions::default();
                    options.selection.seed = selection;
                    predictors.push(zatel.clone().with_options(options));
                }
                references.push(zatel);
            }
        }
    }
    let cache = ArtifactCache::in_memory();
    let jobs: Vec<_> = predictors
        .iter()
        .map(|z| (z, RunContext::new().with_cache(&cache)))
        .collect();
    let (predictions, references) = zatel::run_jobs(
        &jobs,
        &references.iter().collect::<Vec<_>>(),
        SimExecutor::new(setup.jobs),
    )?;

    println!(
        "accuracy ledger: {} cells x {SCENE_SEEDS} scene seeds x {SELECTION_SEEDS} selection \
         seeds, on {} workers\nresolution {res}x{res}, {} spp, scene seeds {scene_seeds:?}, \
         selection seeds {selection_seeds:?}",
        SceneId::ALL.len() * configs.len(),
        setup.jobs,
        setup.spp,
    );
    row(
        "cell",
        ["MAE", "scene spread", "sel. spread"].map(str::to_owned),
    );
    let per_cell = scene_seeds.len() * selection_seeds.len();
    let mut cells = Vec::new();
    let mut summaries: Vec<[f64; 3]> = Vec::new();
    let runs = predictions
        .chunks(per_cell)
        .zip(references.chunks(scene_seeds.len()));
    let names = SceneId::ALL
        .iter()
        .flat_map(|id| configs.iter().map(move |c| (id.name(), c.name.as_str())));
    for ((scene, config), (predictions, references)) in names.zip(runs) {
        let by_seed = || predictions.chunks(selection_seeds.len()).zip(references);
        let maes: Vec<Vec<f64>> = by_seed()
            .map(|(ps, r)| ps.iter().map(|p| p.mae_vs(&r.stats)).collect())
            .collect();
        let summary @ [mae, scene_spread, selection_spread] = summarize(&maes);
        let mut metrics = Map::new();
        for metric in Metric::ALL {
            let runs = || by_seed().flat_map(|(ps, r)| ps.iter().map(move |p| (p, r)));
            let errors = runs().map(|(p, r)| p.errors_vs(&r.stats)[metric.index()].1);
            let entry = json!({
                "predicted": mean(runs().map(|(p, _)| p.value(metric))),
                "reference": mean(references.iter().map(|r| metric.value(&r.stats))),
                "error": mean(errors),
            });
            metrics.insert(metric.name().into(), entry);
        }
        row(&format!("{scene}/{config}"), summary.map(pct));
        summaries.push(summary);
        cells.push(json!({
            "scene": scene,
            "config": config,
            "mae": mae,
            "scene_seed_spread": scene_spread,
            "selection_seed_spread": selection_spread,
            "metrics": Value::Object(metrics),
        }));
    }
    let means: [f64; 3] = std::array::from_fn(|i| mean(summaries.iter().map(|s| s[i])));
    let [mean_mae, mean_scene, mean_selection] = means;
    row("mean", means.map(pct));
    Ok(json!({
        "setup": json!({
            "res": res,
            "spp": setup.spp,
            "max_bounces": setup.trace().max_bounces,
            "scene_seeds": scene_seeds,
            "selection_seeds": selection_seeds,
        }),
        "mean_mae": mean_mae,
        "mean_scene_seed_spread": mean_scene,
        "mean_selection_seed_spread": mean_selection,
        "cells": cells,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cell_summarizes_its_seeds() {
        let maes = vec![vec![0.1, 0.3, 0.2], vec![0.5, 0.5, 0.8]];
        let [mae, scene, selection] = summarize(&maes);
        assert!((mae - 2.4 / 6.0).abs() < 1e-12);
        assert!((scene - (0.6 - 0.2)).abs() < 1e-12);
        assert!((selection - (0.2 + 0.3) / 2.0).abs() < 1e-12);
    }
}
