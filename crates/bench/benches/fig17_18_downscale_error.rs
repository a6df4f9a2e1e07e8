//! Figs. 17 & 18 — per-metric error as a function of the GPU downscaling
//! factor, comparing fine- and coarse-grained division, on the
//! representative LumiBench subset (Fig. 17) and on all scenes (Fig. 18).
//! Each group traces *all* of its pixels (1/K of the frame), isolating the
//! downscaling optimization.
//!
//! Valid factors must divide both component counts: Mobile SoC (8 SMs,
//! 4 MCs) admits K ∈ {2, 4}; RTX 2060 (30 SMs, 12 MCs) admits K ∈ {2, 3, 6}
//! — spanning the paper's 2–6 sweep.

use std::sync::Arc;

use gpusim::Metric;
use rtcore::scenes::SceneId;
use zatel::{ArtifactCache, DivisionMethod, SweepDriver, SweepSpec, Zatel};
use zatel_bench as bench;

fn run_panel(
    title: &str,
    scenes: &[SceneId],
    cache: &Arc<ArtifactCache>,
    json: &mut minijson::Map,
) {
    println!("\n### {title} ###");
    let mut panel = minijson::Map::new();
    for (config, factors) in [
        (gpusim::GpuConfig::mobile_soc(), vec![2u32, 4]),
        (gpusim::GpuConfig::rtx_2060(), vec![2, 3, 6]),
    ] {
        for (division, div_name) in [
            (DivisionMethod::default_fine(), "fine"),
            (DivisionMethod::Coarse, "coarse"),
        ] {
            println!("\n--- {} / {div_name}-grained ---", config.name);
            let mut header: Vec<String> = factors.iter().map(|k| format!("K={k}")).collect();
            header.insert(0, "metric".into());
            bench::row(&header[0], &header[1..]);

            // errors[metric][factor] averaged over scenes.
            let mut sums = vec![vec![0.0f64; factors.len()]; Metric::ALL.len()];
            let mut maxima = vec![vec![0.0f64; factors.len()]; Metric::ALL.len()];
            let res = bench::resolution();
            for &scene_id in scenes {
                let scene = bench::build_scene(scene_id);
                let reference = bench::reference(&scene, &config);
                // The artifact cache is shared across configs, divisions
                // and panels: each scene's heatmap/quantization is
                // computed once for the whole figure.
                let mut base = Zatel::new(&scene, config.clone(), res, res, bench::trace_config());
                base.options_mut().division = division;
                base.options_mut().selection.percent_override = Some(1.0);
                base.options_mut().jobs = Some(bench::jobs());
                let driver = SweepDriver::new(base).with_cache(Arc::clone(cache));
                let errors: Vec<Vec<f64>> = driver
                    .run(&SweepSpec::from_factors(&factors))
                    .expect("pipeline runs")
                    .iter()
                    .map(|o| bench::metric_errors(&o.prediction, &reference.stats))
                    .collect();
                for (ki, errs) in errors.into_iter().enumerate() {
                    for (mi, err) in errs.into_iter().enumerate() {
                        if err.is_finite() {
                            sums[mi][ki] += err / scenes.len() as f64;
                            maxima[mi][ki] = maxima[mi][ki].max(err);
                        }
                    }
                }
            }
            let mut div_json = minijson::Map::new();
            for (mi, metric) in Metric::ALL.iter().enumerate() {
                bench::row(
                    metric.name(),
                    &sums[mi].iter().map(|&e| bench::pct(e)).collect::<Vec<_>>(),
                );
                div_json.insert(metric.name().into(), minijson::json!(sums[mi].clone()));
            }
            let cyc = Metric::ALL
                .iter()
                .position(|m| *m == Metric::SimCycles)
                .expect("cycles");
            println!(
                "max cycles error over scenes at largest K: {}",
                bench::pct(maxima[cyc][factors.len() - 1])
            );
            panel.insert(
                format!("{} {div_name}", config.name),
                minijson::Value::Object(div_json),
            );
        }
    }
    json.insert(title.into(), minijson::Value::Object(panel));
}

fn main() {
    bench::banner(
        "Figs. 17 & 18 — metric error per GPU downscaling factor, fine vs coarse division",
        "each group traces all of its pixels; errors averaged over the scene set",
    );
    let mut json = minijson::Map::new();
    // One artifact cache for the whole figure: the Fig. 18 panel reuses
    // every heatmap the Fig. 17 subset already profiled.
    let cache = Arc::new(ArtifactCache::in_memory());
    run_panel(
        "Fig. 17: representative LumiBench subset",
        &SceneId::REPRESENTATIVE,
        &cache,
        &mut json,
    );
    run_panel(
        "Fig. 18: all benchmark scenes",
        &SceneId::ALL,
        &cache,
        &mut json,
    );
    let stats = cache.stats();
    println!(
        "\nartifact cache: {} misses, {} memory hits across both panels",
        stats.misses, stats.memory_hits
    );
    println!("\n(paper: fine-grained keeps cycles/IPC error under 12% even at K=6 on the subset;");
    println!(
        " extending to all scenes raises errors — e.g. SPRNG does not stress the downscaled GPU;"
    );
    println!(" DRAM efficiency degrades with fewer partitions; fine beats coarse for stability)");
    bench::save_json("fig17_18_downscale_error", &minijson::Value::Object(json));
}
