//! Quickstart: predict GPU performance on the PARK scene with Zatel and
//! compare against the full cycle-level simulation.
//!
//! ```text
//! cargo run --release --example quickstart [scene] [resolution]
//! ```

use std::env;

use zatel_suite::prelude::*;

fn main() -> Result<(), zatel::ZatelError> {
    let args: Vec<String> = env::args().collect();
    let scene_id = args
        .get(1)
        .map(|s| rtcore::scenes::by_name(s).expect("unknown scene name"))
        .unwrap_or(SceneId::Park);
    let res: u32 = args
        .get(2)
        .map(|s| s.parse().expect("resolution must be a number"))
        .unwrap_or(96);

    let scene = scene_id.build(42);
    let trace = TraceConfig {
        samples_per_pixel: 2,
        seed: 7,
        ..TraceConfig::default()
    };
    println!(
        "Scene {} at {res}x{res}, {} primitives, Mobile SoC target",
        scene.name(),
        scene.primitive_count()
    );

    let zatel = Zatel::new(&scene, GpuConfig::mobile_soc(), res, res, trace);

    println!(
        "\nRunning Zatel (K = {} groups, fine-grained 32x2 division)...",
        zatel.resolve_factor()?
    );
    let prediction = zatel.run()?;
    println!(
        "  preprocess {:.2}s, group sims {:.2}s",
        prediction.preprocess_wall.as_secs_f64(),
        prediction.sim_wall.as_secs_f64()
    );
    for g in &prediction.groups {
        println!(
            "  group {}: {} pixels, traced {:.0}% (target {:.0}%), {} cycles, {:.2}s",
            g.index,
            g.pixels,
            100.0 * g.traced_fraction,
            100.0 * g.target_percent,
            g.stats.cycles,
            g.wall.as_secs_f64()
        );
    }

    println!("\nRunning the full reference simulation (this is the slow part Zatel avoids)...");
    let reference = zatel.run_reference();
    println!("  reference took {:.2}s", reference.wall.as_secs_f64());

    println!(
        "\n{:<22} {:>14} {:>14} {:>8}",
        "Metric", "Zatel", "Reference", "Error"
    );
    for (metric, err) in prediction.errors_vs(&reference.stats) {
        println!(
            "{:<22} {:>14.4} {:>14.4} {:>7.1}%",
            metric.name(),
            prediction.value(metric),
            metric.value(&reference.stats),
            100.0 * err
        );
    }
    println!(
        "\nMAE = {:.1}%   measured speedup = {:.1}x   speedup with 1 core/group (paper setup) = {:.1}x",
        100.0 * prediction.mae_vs(&reference.stats),
        prediction.speedup_vs(&reference),
        prediction.speedup_concurrent(&reference)
    );
    Ok(())
}
