//! Integration tests of the timing simulator's architectural behaviour on
//! real ray-tracing workloads (rtcore scenes through rtworkload).

use minijson::{FromJson, ToJson, Value};
use zatel_suite::prelude::*;

fn trace() -> TraceConfig {
    TraceConfig {
        samples_per_pixel: 1,
        max_bounces: 2,
        seed: 31,
    }
}

#[test]
fn rtx_outperforms_mobile_on_heavy_scene() {
    let scene = SceneId::Park.build(1);
    let w = RtWorkload::full_frame(&scene, 96, 96, trace());
    let mobile = Simulator::new(GpuConfig::mobile_soc()).run(&w);
    let rtx = Simulator::new(GpuConfig::rtx_2060()).run(&w);
    assert!(
        rtx.cycles < mobile.cycles,
        "RTX ({}) should beat Mobile ({}) on PARK",
        rtx.cycles,
        mobile.cycles
    );
    assert!(
        rtx.ipc() > mobile.ipc(),
        "more SMs retire more instructions per cycle"
    );
    assert_eq!(
        rtx.instructions, mobile.instructions,
        "same workload, same instructions"
    );
}

#[test]
fn sprng_underutilizes_the_gpu() {
    // SPRNG's rays terminate early: the RTX 2060 barely outperforms the
    // Mobile SoC, unlike on PARK.
    let park = SceneId::Park.build(1);
    let sprng = SceneId::Sprng.build(1);
    let speedup = |scene: &rtcore::scene::Scene| {
        let w = RtWorkload::full_frame(scene, 96, 96, trace());
        let m = Simulator::new(GpuConfig::mobile_soc()).run(&w);
        let r = Simulator::new(GpuConfig::rtx_2060()).run(&w);
        m.cycles as f64 / r.cycles as f64
    };
    let park_speedup = speedup(&park);
    let sprng_speedup = speedup(&sprng);
    assert!(
        park_speedup > sprng_speedup,
        "PARK should benefit more from the bigger GPU ({park_speedup:.2} vs {sprng_speedup:.2})"
    );
}

#[test]
fn bandwidth_utilization_higher_on_heavier_scene() {
    // PARK streams a 12 MB scene through a 3 MB L2; WKND's working set is
    // a tenth of that. (SPRNG is excluded: its run is so short that
    // framebuffer write-back dominates its bandwidth.)
    let park = SceneId::Park.build(2);
    let wknd = SceneId::Wknd.build(2);
    let bw = |scene: &rtcore::scene::Scene| {
        let w = RtWorkload::full_frame(scene, 64, 64, trace());
        Simulator::new(GpuConfig::mobile_soc())
            .run(&w)
            .bandwidth_utilization()
    };
    assert!(
        bw(&park) > bw(&wknd),
        "PARK should press DRAM harder than WKND"
    );
}

#[test]
fn rt_efficiency_within_physical_bounds() {
    for id in [SceneId::Park, SceneId::Sprng, SceneId::Bath, SceneId::Ship] {
        let scene = id.build(3);
        let w = RtWorkload::full_frame(&scene, 64, 64, trace());
        let s = Simulator::new(GpuConfig::mobile_soc()).run(&w);
        let eff = s.rt_efficiency();
        assert!(
            eff > 0.0 && eff <= 32.0,
            "{id}: RT efficiency {eff} out of [0,32]"
        );
        assert!(s.l1_miss_rate() >= 0.0 && s.l1_miss_rate() <= 1.0);
        assert!(s.l2_miss_rate() >= 0.0 && s.l2_miss_rate() <= 1.0);
        assert!(s.dram_efficiency() >= 0.0 && s.dram_efficiency() <= 1.0);
        assert!(s.bandwidth_utilization() >= 0.0 && s.bandwidth_utilization() <= 1.0);
    }
}

#[test]
fn divergent_scene_has_lower_rt_efficiency_than_coherent() {
    // BUNNY's fractal geometry makes neighbouring rays terminate at wildly
    // different traversal depths, draining warps early; BATH's enclosed
    // flat walls keep neighbouring rays in lockstep. RT efficiency (active
    // rays per warp phase) must reflect that divergence gap.
    let bath = SceneId::Bath.build(4);
    let bunny = SceneId::Bunny.build(4);
    let eff = |scene: &rtcore::scene::Scene| {
        let w = RtWorkload::full_frame(scene, 64, 64, trace());
        Simulator::new(GpuConfig::mobile_soc())
            .run(&w)
            .rt_efficiency()
    };
    assert!(
        eff(&bath) > eff(&bunny),
        "coherent BATH ({:.1}) should keep warps fuller than fractal BUNNY ({:.1})",
        eff(&bath),
        eff(&bunny)
    );
}

#[test]
fn halving_resolution_roughly_quarters_work() {
    let scene = SceneId::Chsnt.build(5);
    let sim = Simulator::new(GpuConfig::mobile_soc());
    let big = sim.run(&RtWorkload::full_frame(&scene, 96, 96, trace()));
    let small = sim.run(&RtWorkload::full_frame(&scene, 48, 48, trace()));
    let ratio = big.instructions as f64 / small.instructions as f64;
    assert!(
        (2.5..6.0).contains(&ratio),
        "4x pixels should be ~4x instructions, got {ratio:.2}"
    );
}

#[test]
fn downscaled_config_preserves_miss_rate_better_than_cycles() {
    // Ratio metrics are more robust to downscaling than absolute ones —
    // the reason Zatel only extrapolates SimCycles.
    let scene = SceneId::Spnza.build(6);
    let w = RtWorkload::full_frame(&scene, 64, 64, trace());
    let full = Simulator::new(GpuConfig::mobile_soc()).run(&w);
    let down = Simulator::new(GpuConfig::mobile_soc().downscaled(4).unwrap()).run(&w);
    let l1_gap = (full.l1_miss_rate() - down.l1_miss_rate()).abs() / full.l1_miss_rate();
    let cyc_gap = (full.cycles as f64 - down.cycles as f64).abs() / full.cycles as f64;
    assert!(
        l1_gap < cyc_gap,
        "L1 miss rate gap ({l1_gap:.3}) should be smaller than cycles gap ({cyc_gap:.3})"
    );
}

/// Every number in `doc` with its dotted path (`l1d.bytes`), nested
/// objects included, in document order.
fn numeric_keys(doc: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
    for (key, value) in doc.as_object().expect("config JSON is an object").iter() {
        let path = format!("{prefix}{key}");
        match value {
            Value::Number(n) => out.push((path, n.as_f64())),
            Value::Object(_) => numeric_keys(value, &format!("{path}."), out),
            _ => {}
        }
    }
}

/// `doc` with the value at the dotted `path` replaced by `new`.
fn with_value(doc: &Value, path: &str, new: Value) -> Value {
    let mut map = doc.as_object().expect("config JSON is an object").clone();
    let (key, value) = match path.split_once('.') {
        Some((key, rest)) => (
            key,
            with_value(map.get(key).expect("nested key"), rest, new),
        ),
        None => (path, new),
    };
    map.insert(key.to_owned(), value);
    Value::Object(map)
}

#[test]
fn every_config_key_changes_the_simulation() {
    // A `GpuConfig` key that neither `validate()` nor the timing model
    // reads is a setting that silently simulates the same GPU. Walking the
    // preset's JSON covers every key, nested cache keys too, including
    // any added later. Each number goes to 1 (to 2 where it already is 1):
    // the copy must be rejected or simulate differently.
    let scene = SceneId::Park.build(1);
    let workload = RtWorkload::full_frame(&scene, 32, 32, trace());
    let preset = GpuConfig::mobile_soc();
    let baseline = Simulator::new(preset.clone()).run(&workload);
    let doc = preset.to_json();
    let mut keys = Vec::new();
    numeric_keys(&doc, "", &mut keys);
    assert!(keys.iter().any(|(k, _)| k == "l2.ways"), "{keys:?}");

    let mut inert = Vec::new();
    for (key, old) in &keys {
        let new = if *old == 1.0 { 2u64 } else { 1 };
        let config = GpuConfig::from_json(&with_value(&doc, key, Value::from(new)))
            .unwrap_or_else(|e| panic!("{key} = {new} does not decode: {e}"));
        if config.validate().is_ok() && Simulator::new(config).run(&workload) == baseline {
            inert.push(format!("{key}: {old} -> {new}"));
        }
    }
    assert!(
        inert.is_empty(),
        "these perturbations of the preset validate and simulate exactly like it: {inert:?}"
    );
}
