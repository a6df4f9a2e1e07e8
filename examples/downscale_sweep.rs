//! Downscale & sampling trade-off explorer: sweeps the two Zatel levers —
//! the downscaling factor K and the traced-pixel percentage — and prints
//! the error/speedup frontier, including an ablation of the Eq. (1) clamp
//! bounds against fixed percentages. All points run through one
//! [`zatel::SweepDriver`], so the scene is profiled and quantized exactly
//! once for the whole frontier.
//!
//! ```text
//! cargo run --release --example downscale_sweep [scene] [resolution]
//! ```

use std::env;

use zatel::sweep::factor_mode;
use zatel::{SweepDriver, SweepPointSpec, SweepSpec};
use zatel_suite::prelude::*;

fn main() -> Result<(), zatel::ZatelError> {
    let args: Vec<String> = env::args().collect();
    let scene_id = args
        .get(1)
        .map(|s| rtcore::scenes::by_name(s).expect("unknown scene name"))
        .unwrap_or(SceneId::Spnza);
    let res: u32 = args
        .get(2)
        .map(|s| s.parse().expect("bad resolution"))
        .unwrap_or(128);

    let scene = scene_id.build(42);
    let trace = TraceConfig {
        samples_per_pixel: 2,
        max_bounces: 4,
        seed: 7,
    };
    let config = GpuConfig::mobile_soc();
    println!(
        "Sweeping Zatel's levers on {} at {res}x{res} (Mobile SoC)\n",
        scene.name()
    );

    let base = Zatel::new(&scene, config.clone(), res, res, trace);
    let reference = base.run_reference();
    println!(
        "reference: {} cycles in {:.2}s\n",
        reference.stats.cycles,
        reference.wall.as_secs_f64()
    );

    // One spec covering both levers, the shipped default and the clamp
    // ablation; every point states only what it overrides on the base.
    let mut spec = SweepSpec::default();

    // Lever 1: downscaling factor (groups trace everything).
    for k in [1u32, 2, 4] {
        spec.points.push(SweepPointSpec {
            downscale: Some(factor_mode(k)),
            percent: Some(1.0),
            ..SweepPointSpec::named(format!("downscale only, K={k}"))
        });
    }

    // Lever 2: traced percentage (no downscaling).
    for p in [0.1, 0.3, 0.6, 0.9] {
        spec.points.push(SweepPointSpec {
            downscale: Some(DownscaleMode::NoDownscale),
            percent: Some(p),
            ..SweepPointSpec::named(format!("sampling only, {:.0}%", p * 100.0))
        });
    }

    // Both levers with the Eq. (1) budget — the shipped default.
    spec.points
        .push(SweepPointSpec::named("full Zatel, Eq.(1) [0.3,0.6]"));

    // Ablation: Eq. (1) clamp bounds.
    for clamp in [(0.1, 0.2), (0.3, 0.6), (0.6, 0.9)] {
        spec.points.push(SweepPointSpec {
            clamp: Some(clamp),
            ..SweepPointSpec::named(format!("Eq.(1) clamp [{},{}]", clamp.0, clamp.1))
        });
    }

    // Every point's groups run in one job list; `speedup_concurrent` reads
    // each point's own slowest group job.
    let driver = SweepDriver::new(base);
    let outcomes = driver.run(&spec)?;

    println!(
        "{:<28} {:>4} {:>12} {:>9} {:>9}",
        "setting", "K", "cycles err", "MAE", "speedup"
    );
    for outcome in &outcomes {
        let pred = &outcome.prediction;
        let cyc_err =
            zatel::metrics::abs_error(pred.value(Metric::SimCycles), reference.stats.cycles as f64);
        println!(
            "{:<28} {:>4} {:>11.1}% {:>8.1}% {:>8.1}x",
            outcome.point.label,
            pred.k,
            100.0 * cyc_err,
            100.0 * pred.mae_vs(&reference.stats),
            pred.speedup_concurrent(&reference)
        );
    }

    let stats = driver.cache().stats();
    println!(
        "\nartifact cache: {} misses, {} memory hits across {} points",
        stats.misses,
        stats.memory_hits,
        outcomes.len()
    );
    println!("\nreading: K buys wall-clock via host parallelism at small accuracy cost;");
    println!("the traced percentage trades accuracy for speed smoothly; Eq.(1)'s [0.3,0.6]");
    println!("clamp sits on the knee of that curve, as the paper argues.");
    Ok(())
}
