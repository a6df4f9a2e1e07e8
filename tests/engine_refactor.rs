//! Integration tests guarding the componentized engine and the shared
//! executor layer (C-ENGINE):
//!
//! * group and reference simulations must produce **bit-identical**
//!   `SimStats` and predictions whether their job list — a predict's, a
//!   regression's, a sweep's (with or without the reference) or a
//!   two-scene batch's — runs serially or on any number of workers;
//! * the `SimHooks` seam must be observation-only: `NullHooks` and
//!   `ObsHooks` runs match a plain run exactly;
//! * a golden-stats table over all eight scenes anchors the engine's
//!   timing behaviour against silent drift in future refactors.

use std::time::Duration;

use zatel::{run_jobs, SweepDriver, SweepSpec};
use zatel_suite::prelude::*;

fn trace() -> TraceConfig {
    TraceConfig {
        samples_per_pixel: 1,
        max_bounces: 2,
        seed: 7,
    }
}

#[test]
fn serial_and_parallel_group_stats_are_bit_identical() {
    let scene = SceneId::Sprng.build(1);
    let run_with = |parallel: bool, jobs: Option<usize>| {
        let mut z = Zatel::new(&scene, GpuConfig::mobile_soc(), 64, 64, trace());
        z.options_mut().parallel = parallel;
        z.options_mut().jobs = jobs;
        z.run().expect("pipeline runs")
    };
    let serial = run_with(false, None);
    assert_eq!(serial.groups.len(), 4, "mobile SoC natural K");
    for variant in [
        run_with(true, None),
        run_with(true, Some(2)),
        run_with(true, Some(16)),
    ] {
        assert_eq!(serial.groups.len(), variant.groups.len());
        for (s, p) in serial.groups.iter().zip(&variant.groups) {
            assert_eq!(s.index, p.index);
            assert_eq!(
                s.stats, p.stats,
                "group {} SimStats must be bit-identical",
                s.index
            );
        }
        for m in Metric::ALL {
            assert_eq!(serial.value(m), variant.value(m));
        }
    }

    // Every shape that simulates — a predict, a regression and a sweep,
    // the first and the last also with the full-frame reference in their
    // list, and a two-scene batch — runs as one job list; the worker count
    // must not reach a result, and every job's wall is its own.
    let scenes = [SceneId::Park, SceneId::Bath].map(|id| id.build(1));
    let zatel = |scene, jobs: usize| {
        let mut z = Zatel::new(scene, GpuConfig::mobile_soc(), 32, 32, trace());
        z.options_mut().jobs = Some(jobs);
        z
    };
    let full_frames = scenes.each_ref().map(|s| zatel(s, 1).run_reference().stats);
    let regression = RunContext::new().with_regression([0.2, 0.3, 0.4]);
    let spec = SweepSpec::matrix(&[1, 2], &[0.3, 0.6]);
    let shapes = |jobs: usize| {
        let mut predictions = Vec::new();
        let mut references = Vec::new();
        for (scene, full_frame) in scenes.iter().zip(&full_frames) {
            let z = zatel(scene, jobs);
            let plain = z.run().expect("predict runs");
            assert_eq!(
                plain.sim_wall,
                plain.groups.iter().map(|g| g.wall).sum::<Duration>(),
                "sim_wall is the sum of the job walls"
            );
            predictions.push(plain);
            predictions.push(z.execute(&regression).expect("regression runs"));
            let sweep = |reference| {
                let (outcomes, listed) = SweepDriver::new(zatel(scene, jobs))
                    .run(&spec, reference)
                    .expect("sweep runs");
                assert_eq!(listed.is_some(), reference);
                let predictions = outcomes.into_iter().map(|o| o.prediction);
                (predictions, listed.map(|r| (r, *full_frame)))
            };
            let (points, _) = sweep(false);
            predictions.extend(points);
            let (with_reference, reference) =
                run_jobs(&[(&z, RunContext::new())], &[&z], z.executor())
                    .expect("predict with its reference runs");
            predictions.extend(with_reference);
            references.extend(reference.into_iter().map(|r| (r, *full_frame)));
            let (points, reference) = sweep(true);
            predictions.extend(points);
            references.extend(reference);
        }
        let [park, bath] = scenes.each_ref().map(|s| zatel(s, jobs));
        let batch = [(&park, RunContext::new()), (&bath, regression.clone())];
        let (batch, reference) = run_jobs(&batch, &[&park, &bath], SimExecutor::new(jobs))
            .expect("two-scene batch runs");
        predictions.extend(batch);
        references.extend(reference.into_iter().zip(full_frames));

        assert_eq!(references.len(), 6, "one reference per listed request");
        for (reference, full_frame) in &references {
            assert!(reference.wall > Duration::ZERO);
            assert_eq!(
                reference.stats, *full_frame,
                "a listed reference is run_reference()"
            );
        }
        predictions
            .into_iter()
            .map(|p| {
                assert!(p.groups.iter().all(|g| g.wall > Duration::ZERO));
                let values: Vec<u64> = Metric::ALL.iter().map(|&m| p.value(m).to_bits()).collect();
                let stats: Vec<SimStats> = p.groups.iter().map(|g| g.stats).collect();
                (values, stats)
            })
            .collect::<Vec<_>>()
    };
    let serial = shapes(1);
    // Per scene: predict, regression, 4 sweep points, the predict and the 4
    // points again with the reference listed; then the batch.
    let [park, bath] = [&serial[..11], &serial[11..22]];
    for scene in [park, bath] {
        assert_eq!(scene[6], scene[0], "a listed reference leaves the predict");
        assert_eq!(
            scene[7..],
            scene[2..6],
            "a listed reference leaves the sweep"
        );
    }
    assert_eq!(
        serial[22..],
        [park[0].clone(), bath[1].clone()],
        "the batch"
    );
    for jobs in [2, 3] {
        assert_eq!(shapes(jobs), serial, "{jobs} jobs");
    }
}

#[test]
fn null_hooks_run_matches_plain_run_exactly() {
    let scene = SceneId::Wknd.build(3);
    let workload = RtWorkload::full_frame(&scene, 32, 32, trace());
    let sim = Simulator::new(GpuConfig::mobile_soc());
    let plain = sim.run(&workload);
    let hooked = sim.run_with_hooks(&workload, &mut NullHooks);
    assert_eq!(
        plain, hooked,
        "NullHooks must add zero counters and zero perturbation"
    );
    let config = GpuConfig::mobile_soc();
    let mut obs = ObsHooks::for_gpu(0, "frame", &config, &ObserveOptions::default());
    let observed = sim.run_with_hooks(&workload, &mut obs);
    assert_eq!(plain, observed, "ObsHooks must observe without perturbing");
    assert_eq!(obs.phase_counts().iter().sum::<u64>(), plain.warp_issues);
}

/// Engine fingerprint of a scene: a cross-section of counters that any
/// change to scheduling, caching, DRAM or RT timing would move.
fn fingerprint(id: SceneId) -> [u64; 8] {
    let scene = id.build(1);
    let workload = RtWorkload::full_frame(&scene, 32, 32, trace());
    let s = Simulator::new(GpuConfig::mobile_soc()).run(&workload);
    [
        s.cycles,
        s.instructions,
        s.warp_issues,
        s.l1_accesses,
        s.l1_misses,
        s.l2_misses,
        s.dram_transactions,
        s.rt_active_rays,
    ]
}

include!("golden/engine_rows.rs");

#[test]
fn golden_stats_all_eight_scenes() {
    for (id, expected) in GOLDEN {
        let got = fingerprint(id);
        assert_eq!(
            got,
            expected,
            "{}: engine fingerprint drifted — if the timing model changed \
             intentionally, regenerate the goldens (see GOLDEN docs)",
            id.name()
        );
    }
}

#[test]
#[ignore = "golden regeneration helper; run with --ignored --nocapture"]
fn golden_stats_print() {
    for (id, _) in GOLDEN {
        println!("    (SceneId::{id:?}, {:?}),", fingerprint(id));
    }
}

/// The front end at one and two workers: with two, a predict's planning
/// builds the scene's BVH and profiles its heatmap on both, and
/// `run_reference` builds its BVH on both; the trees, heatmaps, references
/// and predictions must be the one-worker ones, bit for bit, at even and
/// odd frame sizes.
#[test]
fn the_front_end_is_bit_identical_at_one_and_two_jobs() {
    let tree = |scene: &rtcore::scene::Scene| minijson::ToJson::to_json(scene.bvh()).to_string();
    for (id, width, height) in [(SceneId::Park, 48, 48), (SceneId::Bath, 33, 35)] {
        let front_end = |jobs: usize| {
            let scene = id.build(3);
            let mut z = Zatel::new(&scene, GpuConfig::mobile_soc(), width, height, trace());
            z.options_mut().jobs = Some(jobs);
            assert!(!scene.bvh_is_built());
            let prediction = z.run().expect("predict runs");
            let spans: Vec<&str> = prediction.spans.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(spans[..2], ["bvh", "heatmap"], "{jobs} jobs: {spans:?}");
            let values: Vec<u64> = Metric::ALL
                .iter()
                .map(|&m| prediction.value(m).to_bits())
                .collect();
            let fresh = id.build(3);
            let mut alone = Zatel::new(&fresh, GpuConfig::mobile_soc(), width, height, trace());
            alone.options_mut().jobs = Some(jobs);
            let reference = alone.run_reference().stats;
            assert_eq!(
                tree(&fresh),
                tree(&scene),
                "{jobs} jobs: the reference's tree"
            );
            (tree(&scene), prediction.heatmap.clone(), values, reference)
        };
        let serial = front_end(1);
        let lent = front_end(2);
        assert!(serial.0 == lent.0, "{id}: the BVH");
        assert_eq!(serial.1, lent.1, "{id}: the heatmap");
        assert_eq!(serial.2, lent.2, "{id}: the prediction");
        assert_eq!(serial.3, lent.3, "{id}: the reference");
    }
}
