//! End-to-end integration tests: the full Zatel pipeline against the full
//! reference simulation, across crates.

use zatel_suite::prelude::*;

fn trace() -> TraceConfig {
    TraceConfig {
        samples_per_pixel: 1,
        max_bounces: 3,
        seed: 17,
    }
}

#[test]
fn zatel_beats_reference_on_simulated_work() {
    // Zatel's whole point: fewer simulated cycles of work per group.
    let scene = SceneId::Park.build(5);
    let z = Zatel::new(&scene, GpuConfig::mobile_soc(), 64, 64, trace());
    let pred = z.run().expect("pipeline runs");
    let reference = z.run_reference();
    // Each group simulates far less than the full frame.
    for g in &pred.groups {
        assert!(
            g.stats.cycles < reference.stats.cycles,
            "group {} simulated {} cycles, reference {}",
            g.index,
            g.stats.cycles,
            reference.stats.cycles
        );
        assert!(g.traced_fraction > 0.0 && g.traced_fraction <= 1.0);
    }
}

#[test]
fn prediction_is_deterministic_end_to_end() {
    let scene = SceneId::Wknd.build(6);
    let z = Zatel::new(&scene, GpuConfig::mobile_soc(), 64, 64, trace());
    let a = z.run().expect("first run");
    let b = z.run().expect("second run");
    for m in Metric::ALL {
        assert_eq!(a.value(m), b.value(m), "{m} must be reproducible");
    }
    // Group stats identical too.
    for (ga, gb) in a.groups.iter().zip(&b.groups) {
        assert_eq!(ga.stats, gb.stats);
    }
}

#[test]
fn bunny_cycles_error_within_paper_ballpark() {
    // BUNNY is the paper's best-case scene (uniformly warm). At small test
    // resolution we accept a loose bound; see EXPERIMENTS.md for the
    // at-scale numbers.
    let scene = SceneId::Bunny.build(7);
    let z = Zatel::new(&scene, GpuConfig::mobile_soc(), 96, 96, trace());
    let pred = z.run().expect("pipeline runs");
    let reference = z.run_reference();
    let err =
        zatel::metrics::abs_error(pred.value(Metric::SimCycles), reference.stats.cycles as f64);
    assert!(err < 0.5, "BUNNY cycles error {err} out of bounds");
}

#[test]
fn sprng_low_percentage_overestimates_cycles() {
    // The paper's Fig. 13 special case: SPRNG underutilizes the GPU, so
    // tracing 10% and linearly extrapolating grossly overestimates.
    let scene = SceneId::Sprng.build(8);
    let mut z = Zatel::new(&scene, GpuConfig::rtx_2060(), 96, 96, trace());
    z.options_mut().downscale = DownscaleMode::NoDownscale;
    z.options_mut().selection.percent_override = Some(0.1);
    let pred = z.run().expect("pipeline runs");
    let reference = z.run_reference();
    let predicted = pred.value(Metric::SimCycles);
    let actual = reference.stats.cycles as f64;
    assert!(
        predicted > actual * 1.5,
        "expected gross overestimate: predicted {predicted}, actual {actual}"
    );
}

#[test]
fn speedup_grows_as_fraction_shrinks() {
    let scene = SceneId::Chsnt.build(9);
    let mut z = Zatel::new(&scene, GpuConfig::mobile_soc(), 96, 96, trace());
    z.options_mut().downscale = DownscaleMode::NoDownscale;
    let mut walls = Vec::new();
    for p in [0.2, 0.8] {
        z.options_mut().selection.percent_override = Some(p);
        let pred = z.run().expect("pipeline runs");
        walls.push(pred.sim_wall);
    }
    assert!(
        walls[0] < walls[1],
        "20% trace ({:?}) must be faster than 80% ({:?})",
        walls[0],
        walls[1]
    );
}

#[test]
fn regression_and_linear_both_predict_same_order_of_magnitude() {
    let scene = SceneId::Wknd.build(10);
    let mut z = Zatel::new(&scene, GpuConfig::mobile_soc(), 64, 64, trace());
    z.options_mut().downscale = DownscaleMode::NoDownscale;
    let reg = z
        .execute(&RunContext::new().with_regression([0.2, 0.3, 0.4]))
        .expect("regression runs");
    z.options_mut().selection.percent_override = Some(0.4);
    let lin = z.run().expect("linear runs");
    let (r, l) = (reg.value(Metric::SimCycles), lin.value(Metric::SimCycles));
    assert!(r > 0.0 && l > 0.0);
    assert!(
        r / l < 10.0 && l / r < 10.0,
        "regression {r} vs linear {l} diverged"
    );
}

#[test]
fn all_scenes_run_through_the_pipeline() {
    for id in SceneId::ALL {
        let scene = id.build(11);
        let z = Zatel::new(&scene, GpuConfig::mobile_soc(), 64, 64, trace());
        let pred = z.run().unwrap_or_else(|e| panic!("{id}: {e}"));
        assert!(
            pred.value(Metric::SimCycles) > 0.0,
            "{id} predicts zero cycles"
        );
        assert!(pred.value(Metric::Ipc) > 0.0, "{id} predicts zero IPC");
    }
}
