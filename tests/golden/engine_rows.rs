/// Golden engine fingerprints for all eight scenes (32×32, 1 spp,
/// 2 bounces, seed 7, Mobile SoC): `cycles`, `instructions`, `warp_issues`,
/// `l1_accesses`, `l1_misses`, `l2_misses`, `dram_transactions`,
/// `rt_active_rays`. Captured from the componentized engine; regenerate with
/// `cargo test -q --test engine_refactor golden_stats -- --ignored
/// --nocapture` after an *intentional* timing-model change. Included by
/// `tests/engine_refactor.rs` (all eight rows) and `tests/spec_oracles.rs`
/// (PARK and BATH).
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
