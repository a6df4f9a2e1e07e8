//! Golden table for the front end: the per-pixel cost map the functional
//! profiler produces (paper step 1) and the K-means quantization of its
//! heatmap (step 2), on real scenes.
//!
//! Every prediction, every cached artifact and every fingerprint downstream
//! is a function of these two results, so any change to BVH traversal, the
//! slab test or K-means that is meant to be exact must leave this table
//! untouched. Regenerate with
//! `cargo test -q --test heatmap_golden -- --ignored --nocapture` only after
//! an *intentional* change to what a ray visits or how colours cluster.

use rtcore::fingerprint::Fnv64;
use rtcore::scenes::SceneId;
use rtcore::tracer::{profile_costs, TraceConfig};
use zatel::heatmap::Heatmap;
use zatel::quantize::QuantizedHeatmap;

/// One profiled frame: scene, square resolution, samples per pixel,
/// bounces. The trace seed is always 7 and scenes are built with seed 1.
type Case = (SceneId, u32, u32, u32);

/// Clusters requested from K-means, as the pipeline's default does.
const K: usize = 8;
const SEED: u64 = 7;

/// Σ work, max work, FNV-1a of the cost values, quantized fingerprint.
fn front_end(case: Case) -> [u64; 4] {
    let (id, res, spp, bounces) = case;
    let scene = id.build(1);
    let trace = TraceConfig {
        samples_per_pixel: spp,
        max_bounces: bounces,
        seed: SEED,
    };
    let costs = profile_costs(&scene, res, res, &trace);
    let mut h = Fnv64::new();
    h.write_u32(costs.width()).write_u32(costs.height());
    for &w in costs.values() {
        h.write_u64(w);
    }
    let quantized = QuantizedHeatmap::quantize(&Heatmap::from_costs(&costs), K, SEED);
    [
        costs.values().iter().sum(),
        costs.max(),
        h.finish(),
        quantized.fingerprint(),
    ]
}

/// All eight scenes at the engine golden's setting (32², 1 spp, 2 bounces),
/// plus the two paper workhorses at 64², 2 spp, 4 bounces, of which the
/// profile traces each pixel's first sample.
const GOLDEN: [(Case, [u64; 4]); 10] = [
    (
        (SceneId::Park, 32, 1, 2),
        [415964, 1349, 0x952B50D367346CAE, 0x3EC2B7A482D210C2],
    ),
    (
        (SceneId::Ship, 32, 1, 2),
        [92949, 658, 0x3CE4CEFE442780B6, 0x60802A73F7AA4C50],
    ),
    (
        (SceneId::Wknd, 32, 1, 2),
        [236721, 1428, 0xEF3D31733111C6FC, 0x4E9113C86F6B453C],
    ),
    (
        (SceneId::Bunny, 32, 1, 2),
        [476536, 1238, 0xADE6DF6FF9A263BA, 0x9B47DF69F4159849],
    ),
    (
        (SceneId::Sprng, 32, 1, 2),
        [3468, 24, 0x8008D1AD4C60AD85, 0xD08AA1A6B10F61BD],
    ),
    (
        (SceneId::Chsnt, 32, 1, 2),
        [222135, 1062, 0xEF4A99A8A91F1F11, 0x635ACAD9FACB37BA],
    ),
    (
        (SceneId::Spnza, 32, 1, 2),
        [474618, 1207, 0xBB167356C7FAA845, 0x5DE72AE96BE76557],
    ),
    (
        (SceneId::Bath, 32, 1, 2),
        [415018, 830, 0x8E2EB89EC397A435, 0x7625D7A31431D99F],
    ),
    (
        (SceneId::Park, 64, 2, 4),
        [2134653, 1983, 0x4A7505EF8EE7E322, 0xB242794AB25AAF9B],
    ),
    (
        (SceneId::Wknd, 64, 2, 4),
        [1165261, 2870, 0x4760F554118F67BF, 0x0901A7051DD0A027],
    ),
];

#[test]
fn front_end_is_pinned_on_every_scene() {
    for (case, expected) in GOLDEN {
        assert_eq!(
            front_end(case),
            expected,
            "{} {}²: cost map or quantization drifted — if that is intended, \
             regenerate the goldens (see the module docs)",
            case.0.name(),
            case.1
        );
    }
}

#[test]
#[ignore = "golden regeneration helper; run with --ignored --nocapture"]
fn front_end_golden_print() {
    for (case, _) in GOLDEN {
        let (id, res, spp, bounces) = case;
        let [sum, max, hash, quantized] = front_end(case);
        println!(
            "    ((SceneId::{id:?}, {res}, {spp}, {bounces}), [{sum}, {max}, {hash:#018X}, {quantized:#018X}]),"
        );
    }
}
