//! Golden table for the functional render: the bits of every pixel colour
//! and every pixel's ray count, on real scenes.
//!
//! `heatmap_golden` pins what each pixel costs; this pins what it computes.
//! Any change to the path tracer's control flow — RNG draw order,
//! next-event estimation, bounce and throughput termination — that is meant
//! to be exact must leave this table untouched. Regenerate with
//! `cargo test -q --test render_golden -- --ignored --nocapture` only after
//! an *intentional* change to what a path computes.

use rtcore::fingerprint::Fnv64;
use rtcore::scenes::SceneId;
use rtcore::tracer::{render, trace_pixel, TraceConfig};

/// One rendered frame: scene, square resolution, samples per pixel,
/// bounces. The trace seed is always 7 and scenes are built with seed 1.
type Case = (SceneId, u32, u32, u32);

const SEED: u64 = 7;

/// Σ rays, and FNV-1a over every pixel's colour bits and ray count.
fn rendered(case: Case) -> [u64; 2] {
    let (id, res, spp, bounces) = case;
    let scene = id.build(1);
    let trace = TraceConfig {
        samples_per_pixel: spp,
        max_bounces: bounces,
        seed: SEED,
    };
    let image = render(&scene, res, res, &trace);
    let mut h = Fnv64::new();
    h.write_u32(image.width()).write_u32(image.height());
    let mut rays = 0u64;
    for y in 0..res {
        for x in 0..res {
            let c = image.get(x, y);
            for channel in [c.x, c.y, c.z] {
                h.write_u32(channel.to_bits());
            }
            let px = trace_pixel(&scene, x, y, res, res, &trace);
            h.write_u32(px.rays);
            rays += u64::from(px.rays);
        }
    }
    [rays, h.finish()]
}

/// All eight scenes at the engine golden's setting (32², 1 spp, 2 bounces),
/// plus the two paper workhorses at 64², 2 spp, 4 bounces.
const GOLDEN: [(Case, [u64; 2]); 10] = [
    ((SceneId::Park, 32, 1, 2), [3788, 0x24164E34500B5787]),
    ((SceneId::Ship, 32, 1, 2), [2308, 0x708D6702B207C5B0]),
    ((SceneId::Wknd, 32, 1, 2), [2780, 0x886422583742133A]),
    ((SceneId::Bunny, 32, 1, 2), [4078, 0x385ED0A77011F0BB]),
    ((SceneId::Sprng, 32, 1, 2), [1208, 0x43063D57B25E5F5A]),
    ((SceneId::Chsnt, 32, 1, 2), [2564, 0x61DB98A1A8F03374]),
    ((SceneId::Spnza, 32, 1, 2), [4413, 0x40ED3AD5767DD3B8]),
    ((SceneId::Bath, 32, 1, 2), [5217, 0x1D17230E00590C05]),
    ((SceneId::Park, 64, 2, 4), [37839, 0x9DA988F9022132C9]),
    ((SceneId::Wknd, 64, 2, 4), [24937, 0x6C9D175FCA6910A8]),
];

#[test]
fn render_is_pinned_on_every_scene() {
    for (case, expected) in GOLDEN {
        assert_eq!(
            rendered(case),
            expected,
            "{} {}²: colours or ray counts drifted — if that is intended, \
             regenerate the goldens (see the module docs)",
            case.0.name(),
            case.1
        );
    }
}

#[test]
#[ignore = "golden regeneration helper; run with --ignored --nocapture"]
fn render_golden_print() {
    for (case, _) in GOLDEN {
        let (id, res, spp, bounces) = case;
        let [rays, hash] = rendered(case);
        println!("    ((SceneId::{id:?}, {res}, {spp}, {bounces}), [{rays}, {hash:#018X}]),");
    }
}
