//! Fig. 19 — simulation-time speedup gained from GPU downscaling alone
//! (groups trace all their pixels; groups run on parallel host threads).
//! The paper's finding: downscaling gives speedups similar to simply
//! tracing 1/K of the pixels — i.e. it adds parallelism, not much serial
//! advantage — which lets Eq. (4) predict it.

use std::sync::Arc;

use rtcore::scenes::SceneId;
use zatel::{ArtifactCache, SweepDriver, SweepSpec, Zatel};
use zatel_bench as bench;

fn main() {
    bench::banner(
        "Fig. 19 — speedup gained from GPU downscaling per factor K (RTX 2060)",
        "each group traces 100% of its pixels (1/K of the frame); groups simulated concurrently",
    );
    let config = gpusim::GpuConfig::rtx_2060();
    let factors = [2u32, 3, 6];
    let res = bench::resolution();

    let mut header: Vec<String> = factors.iter().map(|k| format!("K={k}")).collect();
    header.insert(0, "scene".into());
    bench::row(&header[0], &header[1..]);

    let mut json = minijson::Map::new();
    // Wall-clock figure: every group job is timed on its own, whichever
    // worker ran it; the shared cache profiles each scene's heatmap only
    // once across the factor axis.
    let cache = Arc::new(ArtifactCache::in_memory());
    for scene_id in SceneId::ALL {
        let scene = bench::build_scene(scene_id);
        let reference = bench::reference(&scene, &config);
        let mut base = Zatel::new(&scene, config.clone(), res, res, bench::trace_config());
        base.options_mut().selection.percent_override = Some(1.0);
        base.options_mut().jobs = Some(bench::jobs());
        let driver = SweepDriver::new(base).with_cache(Arc::clone(&cache));
        let outcomes = driver
            .run(&SweepSpec::from_factors(&factors))
            .expect("pipeline runs");
        let mut cells = Vec::new();
        let mut series = Vec::new();
        for outcome in &outcomes {
            let speedup = outcome.prediction.speedup_concurrent(&reference);
            cells.push(format!("{speedup:.2}x"));
            series.push(speedup);
        }
        bench::row(scene_id.name(), &cells);
        json.insert(scene_id.name().into(), minijson::json!(series));
    }
    println!("\n(paper: speedups similar to Fig. 15's same-fraction pixel reduction — downscaling");
    println!(" does not significantly reduce execution time beyond the 1/K workload split)");
    bench::save_json("fig19_downscale_speedup", &minijson::Value::Object(json));
}
