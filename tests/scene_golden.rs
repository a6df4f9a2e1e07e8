//! Golden table for scene construction: every benchmark scene's BVH and
//! content fingerprint, at three seeds.
//!
//! Every traversal, every op stream and every cache key downstream is a
//! function of the tree the builder lays out and of the scene fingerprint, so
//! a change to the BVH builder or to scene assembly that is meant to be exact
//! must leave this table untouched. The tree is pinned by an FNV-1a of its
//! `to_json` text, which spells every node box, child link, split axis and
//! the primitive order; minijson prints `-0` for a negative zero, so equal
//! text is equal bits. Regenerate with
//! `cargo test -q --test scene_golden -- --ignored --nocapture` only after an
//! *intentional* change to what the builder produces.

use minijson::ToJson;
use rtcore::fingerprint::Fnv64;
use rtcore::scenes::SceneId;

/// FNV-1a of the BVH's JSON text, node count, depth, scene fingerprint.
fn scene_facts(id: SceneId, seed: u64) -> [u64; 4] {
    let scene = id.build(seed);
    let bvh = scene.bvh();
    let mut h = Fnv64::new();
    h.write_bytes(bvh.to_json().to_string().as_bytes());
    [
        h.finish(),
        bvh.node_count() as u64,
        bvh.depth() as u64,
        scene.fingerprint(),
    ]
}

const SEEDS: [u64; 3] = [1, 42, 12345];

/// Per scene in [`SceneId::ALL`] order, one row per seed in [`SEEDS`] order.
const GOLDEN: [(SceneId, [[u64; 4]; 3]); 8] = [
    (
        SceneId::Park,
        [
            [0x06197D92E3E14D10, 64349, 24, 0x2C26C6A96C7DE1F8],
            [0xB64152929C8A8400, 64205, 25, 0x7E314E58B7033648],
            [0xF000CC5ACA3D5A7D, 64265, 25, 0xC57D8294E7F9D207],
        ],
    ),
    (
        SceneId::Ship,
        [
            [0x1E33626D3CAFD290, 2433, 18, 0x6AFA521ADB970E7D],
            [0x3DC725B332458CC4, 2455, 18, 0x465FBE5F3195B659],
            [0x9F558B55FA226537, 2457, 16, 0xC9EA80A451EEE7EB],
        ],
    ),
    (
        SceneId::Wknd,
        [
            [0x7FC7219B55D285FD, 14553, 24, 0xA6A70B66F4247C10],
            [0xE2889E0C7B081833, 14429, 23, 0x06E7A6DABC56FAA8],
            [0x8C938E407F3A827A, 14475, 22, 0x6C74C22940FF7ADD],
        ],
    ),
    (
        SceneId::Bunny,
        [
            [0x350BD42E31C1D11F, 30377, 25, 0xD39C7D35CB7BA663],
            [0x982FB7DA4F3346E3, 30303, 26, 0x4FE93747B89DE103],
            [0xFE55D228C23D15EB, 30249, 24, 0xEFB82A5A68004C13],
        ],
    ),
    (
        SceneId::Sprng,
        [
            [0x680727D1DC2EA41C, 1, 0, 0xB93BDBFF09E50703],
            [0x680727D1DC2EA41C, 1, 0, 0xB93BDBFF09E50703],
            [0x680727D1DC2EA41C, 1, 0, 0xB93BDBFF09E50703],
        ],
    ),
    (
        SceneId::Chsnt,
        [
            [0x497D4F20BEA21385, 24285, 26, 0xDF3FF4F326222AD9],
            [0xFCA676AFC71D43DF, 24245, 23, 0x810F059E717D010A],
            [0x967E0CA1EF4304D9, 24247, 24, 0xEE5AAF20376775F3],
        ],
    ),
    (
        SceneId::Spnza,
        [
            [0x043A112E56C6EA30, 6527, 23, 0xF6AF96ABEAD550B0],
            [0xCAF0DEBD28A57489, 6487, 23, 0xF9156FBB7A94B25B],
            [0xDFC40021CDB64C3B, 6501, 24, 0xB919E07A56A5C398],
        ],
    ),
    (
        SceneId::Bath,
        [
            [0x856C0097E703619F, 2077, 17, 0x01D2E86F3183CA5A],
            [0xCB37CC7982667938, 2095, 17, 0xC268CAF08E4A8962],
            [0xAA91976DAC83B56E, 2099, 18, 0x53AAE039CB913B53],
        ],
    ),
];

#[test]
fn every_scene_build_is_pinned() {
    for (id, rows) in GOLDEN {
        for (seed, expected) in SEEDS.into_iter().zip(rows) {
            assert_eq!(
                scene_facts(id, seed),
                expected,
                "{} seed {seed}: BVH or scene fingerprint drifted — if that is \
                 intended, regenerate the goldens (see the module docs)",
                id.name()
            );
        }
    }
}

#[test]
#[ignore = "golden regeneration helper; run with --ignored --nocapture"]
fn scene_golden_print() {
    for id in SceneId::ALL {
        println!("    (\n        SceneId::{id:?},\n        [");
        for seed in SEEDS {
            let [json, nodes, depth, fingerprint] = scene_facts(id, seed);
            println!("            [{json:#018X}, {nodes}, {depth}, {fingerprint:#018X}],");
        }
        println!("        ],\n    ),");
    }
}
