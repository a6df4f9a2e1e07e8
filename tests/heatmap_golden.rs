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
/// profile traces the first sample of one pixel of each vertical pair.
const GOLDEN: [(Case, [u64; 4]); 10] = [
    (
        (SceneId::Park, 32, 1, 2),
        [421964, 1120, 0x0510D15F1A0A588D, 0xCC8CD336E253A333],
    ),
    (
        (SceneId::Ship, 32, 1, 2),
        [91438, 658, 0xD080CC80A5CFB5E1, 0xC7F524C2B414EA3D],
    ),
    (
        (SceneId::Wknd, 32, 1, 2),
        [237638, 1428, 0x24F822EE115828B9, 0xB2CC17C56C259E30],
    ),
    (
        (SceneId::Bunny, 32, 1, 2),
        [481264, 1122, 0x37EE6D9361B412B1, 0x9DB283432EB7128D],
    ),
    (
        (SceneId::Sprng, 32, 1, 2),
        [3458, 24, 0x2CE83EE3E1787045, 0xF59C98166703A3FA],
    ),
    (
        (SceneId::Chsnt, 32, 1, 2),
        [220534, 1062, 0x20B0ACA6C9BD9BB9, 0x180D67B970170A52],
    ),
    (
        (SceneId::Spnza, 32, 1, 2),
        [478854, 1075, 0xB128A95DD40CA949, 0x11EFF4CFE9B36015],
    ),
    (
        (SceneId::Bath, 32, 1, 2),
        [414706, 830, 0x361BC7B4C60E49F5, 0x020CE4EEAAE1A911],
    ),
    (
        (SceneId::Park, 64, 2, 4),
        [2160010, 1842, 0xA6217452EA96A5A9, 0xD110BEFC41E08D6F],
    ),
    (
        (SceneId::Wknd, 64, 2, 4),
        [1166008, 2870, 0xAC327E42FD824EA1, 0xC6B3B590D87807E1],
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
