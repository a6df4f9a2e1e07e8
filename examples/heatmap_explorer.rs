//! Heatmap explorer: regenerates the paper's visual artifacts (Figs. 4, 7
//! and 8) as PPM images — the execution-time heatmap, its K-means-quantized
//! version, a fine-grained group's pixel view and a selection mask — plus
//! the rendered frame itself.
//!
//! ```text
//! cargo run --release --example heatmap_explorer [scene] [resolution] [out_dir]
//! ```

use std::env;
use std::path::PathBuf;

use rtcore::image::Image;
use rtcore::math::Vec3;
use rtcore::tracer::{profile_costs, render};
use zatel::heatmap::Heatmap;
use zatel::partition::{divide, DivisionMethod};
use zatel::quantize::QuantizedHeatmap;
use zatel::select::{select_pixels, SelectionOptions};
use zatel_suite::prelude::*;

fn main() -> std::io::Result<()> {
    let args: Vec<String> = env::args().collect();
    let scene_id = args
        .get(1)
        .map(|s| rtcore::scenes::by_name(s).expect("unknown scene name"))
        .unwrap_or(SceneId::Wknd);
    let res: u32 = args
        .get(2)
        .map(|s| s.parse().expect("bad resolution"))
        .unwrap_or(256);
    let out_dir = PathBuf::from(
        args.get(3)
            .cloned()
            .unwrap_or_else(|| "target/heatmaps".into()),
    );
    std::fs::create_dir_all(&out_dir)?;

    let scene = scene_id.build(42);
    let trace = TraceConfig {
        samples_per_pixel: 2,
        seed: 7,
        ..TraceConfig::default()
    };
    println!("Profiling {} at {res}x{res}...", scene.name());

    // The frame at every sample, then its profile (step 1 of Fig. 3): the
    // work of the first sample of one pixel of each vertical pair.
    render(&scene, res, res, &trace).save_ppm(out_dir.join("render.ppm"))?;
    let heatmap = Heatmap::from_costs(&profile_costs(&scene, res, res, &trace));
    heatmap.to_image().save_ppm(out_dir.join("heatmap.ppm"))?;
    println!("mean temperature: {:.3}", heatmap.mean_temperature());

    // Step 2: colour quantization (Fig. 4).
    let colours = ZatelOptions::default().quant_colors;
    let quantized = QuantizedHeatmap::quantize(&heatmap, colours, 7);
    quantized
        .to_image()
        .save_ppm(out_dir.join("heatmap_quantized.ppm"))?;
    println!("quantized into {} colours", quantized.cluster_count());
    for id in 0..quantized.cluster_count() as u16 {
        println!(
            "  cluster {id}: colour {} coolness {:.2}",
            quantized.cluster_color(id),
            quantized.cluster_coolness(id)
        );
    }

    // Step 4: fine-grained division — visualize group 0's pixels (Fig. 7).
    let groups = divide(res, res, 4, DivisionMethod::default_fine());
    let mut group_view = Image::new(res, res);
    for p in &groups[0].pixels {
        let c = heatmap.color(p.x, p.y);
        group_view.set(p.x, p.y, c.hadamard(c));
    }
    group_view.save_ppm(out_dir.join("group0_fine.ppm"))?;

    // Step 5: representative pixels of group 0 (Fig. 8).
    let selection = select_pixels(&groups[0], &quantized, &SelectionOptions::default());
    let mut sel_view = Image::new(res, res);
    for (p, &m) in groups[0].pixels.iter().zip(&selection.mask) {
        let c = if m {
            heatmap.color(p.x, p.y)
        } else {
            Vec3::splat(0.06)
        };
        sel_view.set(p.x, p.y, c.hadamard(c));
    }
    sel_view.save_ppm(out_dir.join("group0_selected.ppm"))?;
    println!(
        "group 0: Eq.(1) target {:.0}%, selected {:.0}% of its pixels",
        100.0 * selection.target_percent,
        100.0 * selection.fraction
    );

    println!("\nwrote render.ppm, heatmap.ppm, heatmap_quantized.ppm, group0_fine.ppm, group0_selected.ppm");
    println!("to {}", out_dir.display());
    Ok(())
}
