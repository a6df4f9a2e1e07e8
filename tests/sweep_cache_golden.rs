//! Golden test for the artifact cache: a sweep served from a warm cache
//! (memory or disk) must be *byte-identical* to cold per-point runs — the
//! cache may only change where artifacts come from, never what they are.

use std::sync::Arc;

use zatel::{ArtifactCache, SweepDriver, SweepSpec, Zatel};
use zatel_suite::prelude::*;

const SEED: u64 = 7;
const RES: u32 = 48;

fn base_zatel(scene: &rtcore::scene::Scene) -> Zatel<'_> {
    let trace = TraceConfig {
        samples_per_pixel: 1,
        max_bounces: 4,
        seed: SEED,
    };
    Zatel::new(scene, GpuConfig::mobile_soc(), RES, RES, trace)
}

fn spec() -> SweepSpec {
    SweepSpec::matrix(&[1, 2], &[0.3, 0.6])
}

/// The bit-exact signature of a prediction: every predicted metric (as raw
/// f64 bits) plus every group's full `SimStats`.
fn signature(pred: &zatel::Prediction) -> (Vec<u64>, Vec<gpusim::SimStats>) {
    let metrics = Metric::ALL
        .iter()
        .map(|&m| pred.value(m).to_bits())
        .collect();
    let stats = pred.groups.iter().map(|g| g.stats).collect();
    (metrics, stats)
}

#[test]
fn warm_memory_cache_matches_cold_per_point_runs() {
    let scene = SceneId::Sprng.build(SEED);

    // Cold baseline: each point is a standalone pipeline run with its own
    // private cache (every stage computed from scratch).
    let driver = SweepDriver::new(base_zatel(&scene));
    let cold: Vec<_> = driver
        .run(&spec(), false)
        .expect("cold sweep runs")
        .0
        .iter()
        .map(|o| signature(&o.prediction))
        .collect();

    // Warm run: same driver shape, but the cache was already filled by a
    // first pass.
    let cache = Arc::new(ArtifactCache::in_memory());
    let warm_driver = SweepDriver::new(base_zatel(&scene)).with_cache(Arc::clone(&cache));
    warm_driver.run(&spec(), false).expect("priming sweep runs");
    let (outcomes, _) = warm_driver.run(&spec(), false).expect("warm sweep runs");

    for (outcome, cold_sig) in outcomes.iter().zip(&cold) {
        assert_eq!(
            &signature(&outcome.prediction),
            cold_sig,
            "warm-cache point '{}' diverged from its cold run",
            outcome.point.label
        );
        // The warm pass recomputes no stage.
        for record in &outcome.prediction.cache {
            assert!(
                record.outcome.is_hit(),
                "stage '{}' recomputed on a warm cache",
                record.stage
            );
        }
    }
}

#[test]
fn disk_cache_round_trips_identically_across_processes() {
    let scene = SceneId::Sprng.build(SEED);
    let dir = std::env::temp_dir().join("zatel-sweep-cache-golden");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // First "process": cold, fills the on-disk layer.
    let first =
        SweepDriver::new(base_zatel(&scene)).with_cache(Arc::new(ArtifactCache::with_disk(&dir)));
    let cold: Vec<_> = first
        .run(&spec(), false)
        .expect("cold sweep runs")
        .0
        .iter()
        .map(|o| signature(&o.prediction))
        .collect();
    assert_eq!(first.cache().stats().disk_hits, 0, "first run is cold");

    // Second "process": a fresh cache object over the same directory —
    // nothing in memory, everything deserialized from disk.
    let second =
        SweepDriver::new(base_zatel(&scene)).with_cache(Arc::new(ArtifactCache::with_disk(&dir)));
    let (outcomes, _) = second.run(&spec(), false).expect("warm sweep runs");
    assert!(
        second.cache().stats().disk_hits > 0,
        "second run loads artifacts from disk: {:?}",
        second.cache().stats()
    );

    for (outcome, cold_sig) in outcomes.iter().zip(&cold) {
        assert_eq!(
            &signature(&outcome.prediction),
            cold_sig,
            "disk-cache point '{}' diverged after serialization round trip",
            outcome.point.label
        );
    }
}
