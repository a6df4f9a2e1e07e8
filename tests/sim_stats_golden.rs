//! Golden table for the cycle engine at the frozen benchmark's shapes: an
//! FNV-1a hash of the full `SimStats::to_json()` text — every counter, not a
//! cross-section — of
//!
//! * the three `full-sim` simulations (PARK and BATH on the Mobile SoC, PARK
//!   on the RTX 2060; 64², 2 spp, 4 bounces, one full-frame reference run
//!   each), and
//! * every group of one `predict-heavy`-shaped `Zatel::run` per config
//!   (BUNNY on the Mobile SoC, PARK on the RTX 2060; same frame, default
//!   options, serial).
//!
//! A change to decode, categorization or the commit loop that is meant to be
//! exact must leave this table untouched. Regenerate with
//! `cargo test -q --test sim_stats_golden -- --ignored --nocapture` only
//! after an *intentional* timing-model change.

use minijson::ToJson;
use rtcore::fingerprint::Fnv64;
use zatel_suite::prelude::*;

/// Scene build seed and trace seed of every case.
const SEED: u64 = 42;
const RES: u32 = 64;

fn trace() -> TraceConfig {
    TraceConfig {
        samples_per_pixel: 2,
        max_bounces: 4,
        seed: SEED,
    }
}

/// A config by its wire name.
fn gpu(config: &str) -> GpuConfig {
    match config {
        "mobile" => GpuConfig::mobile_soc(),
        "rtx2060" => GpuConfig::rtx_2060(),
        other => panic!("unknown config {other}"),
    }
}

fn digest(stats: &SimStats) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(stats.to_json().to_string().as_bytes());
    h.finish()
}

/// The digest of the full-frame reference simulation.
fn full_sim(id: SceneId, config: &str) -> u64 {
    let scene = id.build(SEED);
    let zatel = Zatel::new(&scene, gpu(config), RES, RES, trace());
    digest(&zatel.run_reference().stats)
}

/// The digest of every group's simulation, in group order.
fn groups(id: SceneId, config: &str) -> Vec<u64> {
    let scene = id.build(SEED);
    let mut zatel = Zatel::new(&scene, gpu(config), RES, RES, trace());
    zatel.options_mut().parallel = false;
    let prediction = zatel.run().expect("pipeline runs");
    prediction.groups.iter().map(|g| digest(&g.stats)).collect()
}

const FULL_SIM: [(SceneId, &str, u64); 3] = [
    (SceneId::Park, "mobile", 0xE7F58E42799F3502),
    (SceneId::Bath, "mobile", 0xB7E826285D76EE21),
    (SceneId::Park, "rtx2060", 0x781F93667409CA01),
];

const GROUPS: [(SceneId, &str, &[u64]); 2] = [
    (
        SceneId::Bunny,
        "mobile",
        &[
            0x5B4045B93105EE4F,
            0xB20137AC9F99B3E3,
            0xB79064531EF0EFB6,
            0x3BE54A25236CEC00,
        ],
    ),
    (
        SceneId::Park,
        "rtx2060",
        &[
            0x1F67A95ADBBA0AB5,
            0x47C665D0424CF765,
            0x2FEA9F4F1B0E14B2,
            0x6A151CE6B5AC5EF9,
            0xF80D8751EDDBC67C,
            0xEB7096BB969B5B60,
        ],
    ),
];

#[test]
fn full_sim_stats_are_pinned() {
    for (id, config, want) in FULL_SIM {
        assert_eq!(
            full_sim(id, config),
            want,
            "{id}/{config}: full-frame SimStats drifted"
        );
    }
}

#[test]
fn predict_group_stats_are_pinned() {
    for (id, config, want) in GROUPS {
        assert_eq!(
            groups(id, config),
            want,
            "{id}/{config}: group SimStats drifted"
        );
    }
}

#[test]
#[ignore = "golden regeneration helper; run with --ignored --nocapture"]
fn sim_stats_golden_print() {
    for (id, config, _) in FULL_SIM {
        println!(
            "    (SceneId::{id:?}, {config:?}, {:#018X}),",
            full_sim(id, config)
        );
    }
    for (id, config, _) in GROUPS {
        let hashes: Vec<String> = groups(id, config)
            .iter()
            .map(|h| format!("{h:#018X}"))
            .collect();
        println!(
            "    (SceneId::{id:?}, {config:?}, &[{}]),",
            hashes.join(", ")
        );
    }
}
