//! Integration tests guarding the componentized engine and the shared
//! executor layer (C-ENGINE):
//!
//! * group simulation must produce **bit-identical** `SimStats` and
//!   predictions whether its job list — a predict's, a regression's or a
//!   sweep's — runs serially or on any number of `sim_executor` workers;
//! * the `SimHooks` seam must be observation-only: `NullHooks` and
//!   `ObsHooks` runs match a plain run exactly;
//! * a golden-stats table over all eight scenes anchors the engine's
//!   timing behaviour against silent drift in future refactors.

use std::time::Duration;

use zatel::{SweepDriver, SweepSpec};
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

    // Every shape that simulates groups — a predict, a regression and a
    // sweep — runs them as one job list; the worker count must not reach a
    // result, and every job's wall is its own.
    for id in [SceneId::Park, SceneId::Bath] {
        let scene = id.build(1);
        let base = |jobs: usize| {
            let mut z = Zatel::new(&scene, GpuConfig::mobile_soc(), 32, 32, trace());
            z.options_mut().jobs = Some(jobs);
            z
        };
        let shapes = |jobs: usize| {
            let z = base(jobs);
            let plain = z.run().expect("predict runs");
            assert!(plain.groups.iter().all(|g| g.wall > Duration::ZERO));
            assert_eq!(
                plain.sim_wall,
                plain.groups.iter().map(|g| g.wall).sum::<Duration>(),
                "sim_wall is the sum of the job walls"
            );
            let regression = z
                .execute(&RunContext::new().with_regression([0.2, 0.3, 0.4]))
                .expect("regression runs");
            let sweep = SweepDriver::new(base(jobs))
                .run(&SweepSpec::matrix(&[1, 2], &[0.3, 0.6]))
                .expect("sweep runs");
            let predictions = [plain, regression]
                .into_iter()
                .chain(sweep.into_iter().map(|o| o.prediction));
            predictions
                .map(|p| {
                    assert!(p.groups.iter().all(|g| g.wall > Duration::ZERO));
                    let values: Vec<u64> =
                        Metric::ALL.iter().map(|&m| p.value(m).to_bits()).collect();
                    let stats: Vec<SimStats> = p.groups.iter().map(|g| g.stats).collect();
                    (values, stats)
                })
                .collect::<Vec<_>>()
        };
        let serial = shapes(1);
        for jobs in [2, 3] {
            assert_eq!(shapes(jobs), serial, "{} with {jobs} jobs", id.name());
        }
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

/// Golden engine fingerprints for all eight scenes (32×32, 1 spp,
/// 2 bounces, seed 7, Mobile SoC). Captured from the componentized engine;
/// regenerate with `cargo test -q golden_stats -- --ignored --nocapture`
/// after an *intentional* timing-model change.
const GOLDEN: [(SceneId, [u64; 8]); 8] = [
    (
        SceneId::Park,
        [77355, 508818, 10966, 124463, 36491, 10705, 11685, 156474],
    ),
    (
        SceneId::Ship,
        [16357, 136592, 2734, 12743, 1247, 585, 1012, 33382],
    ),
    (
        SceneId::Wknd,
        [68224, 300270, 8781, 64585, 9383, 3957, 4634, 89193],
    ),
    (
        SceneId::Bunny,
        [62313, 572887, 11515, 136356, 29046, 7938, 8944, 175693],
    ),
    (SceneId::Sprng, [898, 27765, 227, 136, 24, 3, 199, 1356]),
    (
        SceneId::Chsnt,
        [51891, 279164, 7795, 62584, 10940, 4263, 5033, 82009],
    ),
    (
        SceneId::Spnza,
        [55537, 574940, 10300, 121225, 13894, 3181, 4163, 172765],
    ),
    (
        SceneId::Bath,
        [25414, 544003, 7908, 84694, 4333, 1614, 2600, 158333],
    ),
];

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
