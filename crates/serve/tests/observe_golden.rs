//! Golden table for the observed predict path: the folded metrics registry
//! (JSON and Prometheus text) and the merged Perfetto trace of an observed
//! prediction, pinned byte for byte.
//!
//! Everything an `observe` request exports is a function of simulated time,
//! so a refactor of the observer or of the engine's hook calls that is meant
//! to be exact must leave this table untouched. Each text is pinned by its
//! FNV-1a and its byte length. Regenerate with
//! `cargo test -q -p zatel-serve --test observe_golden -- --ignored --nocapture`
//! only after an *intentional* change to what observing records.

use minijson::ToJson;
use obs::ObserveOptions;
use rtcore::fingerprint::Fnv64;
use zatel::ZatelOptions;
use zatel_proto::{ConfigRef, PredictRequest};

/// The observed shapes: scene × preset, each at 64², 1 spp, seed 7.
const SHAPES: [(&str, &str); 4] = [
    ("SPRNG", "mobile"),
    ("SPRNG", "rtx2060"),
    ("BATH", "mobile"),
    ("BATH", "rtx2060"),
];

/// `(FNV-1a, byte length)` of the registry JSON, its Prometheus text and
/// the merged trace, for one observed prediction.
fn observed_facts(scene: &str, preset: &str) -> [(u64, usize); 3] {
    let mut request = PredictRequest::new(scene, ConfigRef::preset(preset));
    request.res = 64;
    request.spp = 1;
    request.seed = 7;
    let mut options = ZatelOptions::default();
    options.observe = Some(ObserveOptions { timeline: true });
    request.options = Some(options);
    let cache = zatel::ArtifactCache::in_memory();
    let out =
        zatel_serve::execute_predict_traced(&request, &cache, None).expect("observed predict runs");
    let registry = out
        .response
        .metrics
        .expect("an observed predict carries its registry");
    let texts = [
        registry.to_json().to_string(),
        registry.to_prometheus("zatel"),
        obs::merge_trace(out.timelines).to_string(),
    ];
    texts.map(|text| {
        let mut h = Fnv64::new();
        h.write_bytes(text.as_bytes());
        (h.finish(), text.len())
    })
}

/// One row per entry of [`SHAPES`]: registry JSON, Prometheus, trace.
const GOLDEN: [[(u64, usize); 3]; 4] = [
    [
        (0x2189D2AE5BDEE4C2, 1148),
        (0xAC06A5721B0C3053, 1802),
        (0x45AF2EFA2C57235C, 78065),
    ],
    [
        (0xF97928A005A68CA1, 1136),
        (0x6427B3CE88B0BD41, 1765),
        (0x580877006F18F743, 84072),
    ],
    [
        (0x98B7EE8F42037DAE, 1285),
        (0x46F5E7606BE8CAA2, 2066),
        (0x4B2930F634566EDA, 4791750),
    ],
    [
        (0xBB60CBD0E807101D, 1256),
        (0xC561D9032C004DBE, 1983),
        (0x2774DFBAE5CF985B, 4802268),
    ],
];

#[test]
fn observed_exports_are_pinned() {
    for ((scene, preset), expected) in SHAPES.into_iter().zip(GOLDEN) {
        assert_eq!(
            observed_facts(scene, preset),
            expected,
            "{scene}/{preset}: observed registry or trace drifted — if that \
             is intended, regenerate the goldens (see the module docs)"
        );
    }
}

#[test]
#[ignore = "golden regeneration helper; run with --ignored --nocapture"]
fn observe_golden_print() {
    for (scene, preset) in SHAPES {
        let rows = observed_facts(scene, preset).map(|(h, n)| format!("({h:#018X}, {n})"));
        println!("    [{}],", rows.join(", "));
    }
}
