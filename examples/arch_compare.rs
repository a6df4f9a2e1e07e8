//! Architecture comparison: the paper's core use case — an architect wants
//! to know how a *new* GPU design performs on a big scene without waiting
//! for the full simulation. We compare Mobile SoC, RTX 2060 and a
//! hypothetical "RTX-wide" (double the RT throughput) using Zatel, then
//! validate the predicted ranking against full simulations.
//!
//! ```text
//! cargo run --release --example arch_compare [scene] [resolution]
//! ```

use std::env;

use zatel_suite::prelude::*;

fn configs() -> Vec<GpuConfig> {
    let mut wide = GpuConfig::rtx_2060();
    wide.name = "RTX-wide-RT".into();
    wide.rt_max_warps = 8;
    wide.rt_lanes_per_cycle = 8;
    vec![GpuConfig::mobile_soc(), GpuConfig::rtx_2060(), wide]
}

fn main() -> Result<(), zatel::ZatelError> {
    let args: Vec<String> = env::args().collect();
    let scene_id = args
        .get(1)
        .map(|s| rtcore::scenes::by_name(s).expect("unknown scene name"))
        .unwrap_or(SceneId::Chsnt);
    let res: u32 = args
        .get(2)
        .map(|s| s.parse().expect("bad resolution"))
        .unwrap_or(128);

    let scene = scene_id.build(42);
    let trace = TraceConfig {
        samples_per_pixel: 2,
        seed: 7,
        ..TraceConfig::default()
    };
    println!(
        "Comparing architectures on {} at {res}x{res}\n",
        scene.name()
    );

    let mut rows: Vec<(String, zatel::Prediction, zatel::Reference)> = Vec::new();
    for config in configs() {
        let zatel = Zatel::new(&scene, config.clone(), res, res, trace);
        let pred = zatel.run()?;
        let reference = zatel.run_reference();
        rows.push((config.name.clone(), pred, reference));
    }

    println!(
        "{:<14} {:>14} {:>14} {:>10} {:>10} {:>9}",
        "config", "Zatel cycles", "ref cycles", "Zatel IPC", "ref IPC", "speedup"
    );
    for (name, pred, reference) in &rows {
        println!(
            "{:<14} {:>14.0} {:>14} {:>10.2} {:>10.2} {:>8.1}x",
            name,
            pred.value(Metric::SimCycles),
            reference.stats.cycles,
            pred.value(Metric::Ipc),
            reference.stats.ipc(),
            pred.speedup_concurrent(reference),
        );
    }

    // Did Zatel rank the architectures the same way the full sim did?
    let rank = |keys: Vec<f64>| -> String {
        let mut idx: Vec<usize> = (0..rows.len()).collect();
        idx.sort_by(|&a, &b| keys[a].partial_cmp(&keys[b]).expect("finite"));
        idx.iter()
            .map(|&i| rows[i].0.as_str())
            .collect::<Vec<_>>()
            .join(" < ")
    };
    println!(
        "\npredicted performance order (fewer cycles = faster): {}",
        rank(rows.iter().map(|r| r.1.value(Metric::SimCycles)).collect())
    );
    println!(
        "reference performance order:                          {}",
        rank(rows.iter().map(|r| r.2.stats.cycles as f64).collect())
    );
    println!("\nZatel's job is exactly this: getting the *ranking and rough ratios* right at ~10x less simulation time.");
    Ok(())
}
