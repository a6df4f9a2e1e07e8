//! Fig. 14 — Zatel's simulation running time per scene as a function of the
//! percentage of pixels traced (RTX 2060, no downscaling), plus the rising
//! slope per scene. The paper's point: the longest-running scenes (BATH)
//! are exactly the ones with the lowest error bounds.

use rtcore::scenes::SceneId;
use zatel_bench as bench;

fn main() {
    bench::banner(
        "Fig. 14 — running time of Zatel per scene vs % of pixels traced (RTX 2060)",
        "host wall-clock seconds of the group-simulation phase",
    );
    let config = gpusim::GpuConfig::rtx_2060();
    let percents = bench::sweep_percents();

    let mut header: Vec<String> = percents
        .iter()
        .map(|p| format!("{:.0}%", p * 100.0))
        .collect();
    header.insert(0, "scene".into());
    header.push("slope s/%".into());
    bench::row(&header[0], &header[1..]);

    let mut json = minijson::Map::new();
    let mut slopes: Vec<(SceneId, f64)> = Vec::new();
    for scene_id in SceneId::ALL {
        let scene = bench::build_scene(scene_id);
        let points = bench::percent_sweep(&scene, &config, &percents).expect("sweep pipeline runs");
        let times: Vec<f64> = points
            .iter()
            .map(|pt| pt.prediction.sim_wall.as_secs_f64())
            .collect();
        // Least-squares slope of seconds per percentage point.
        let n = times.len() as f64;
        let sx: f64 = percents.iter().map(|p| p * 100.0).sum();
        let sy: f64 = times.iter().sum();
        let sxx: f64 = percents.iter().map(|p| (p * 100.0).powi(2)).sum();
        let sxy: f64 = percents
            .iter()
            .zip(&times)
            .map(|(p, t)| p * 100.0 * t)
            .sum();
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        let mut cells: Vec<String> = times.iter().map(|t| format!("{t:.2}s")).collect();
        cells.push(format!("{slope:.4}"));
        bench::row(scene_id.name(), &cells);
        slopes.push((scene_id, slope));
        json.insert(
            scene_id.name().into(),
            minijson::json!({ "seconds": times, "slope_per_pct": slope }),
        );
    }
    let longest = slopes
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite slopes"))
        .expect("scenes swept");
    println!(
        "\nlongest-running scene: {} at {:.4} s per percentage point (paper: BATH by a high margin)",
        longest.0.name(),
        longest.1
    );
    bench::save_json("fig14_runtime", &minijson::Value::Object(json));

    // One observed run so the results directory also carries a metrics
    // snapshot and a phase breakdown of where the wall-clock goes.
    println!("\nphase breakdown (SPRNG, Mobile SoC, observed run):");
    let scene = bench::build_scene(SceneId::Sprng);
    let res = bench::resolution();
    let mut zatel = zatel::Zatel::new(
        &scene,
        gpusim::GpuConfig::mobile_soc(),
        res,
        res,
        bench::trace_config(),
    );
    zatel.options_mut().observe = Some(obs::ObserveOptions {
        timeline: false,
        ..obs::ObserveOptions::default()
    });
    let prediction = zatel.run().expect("observed pipeline runs");
    bench::print_spans(&prediction);
    let registry = prediction.observed_metrics().unwrap_or_default();
    bench::save_prometheus("fig14_runtime", &registry);
}
