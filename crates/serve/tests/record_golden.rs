//! Golden table for the persisted prediction records: every point of a
//! sweep response, as `zatel sweep --json`, `--runs-out` and the HTTP
//! sweep route render it, and the whole response around them.
//!
//! A point carries the seven metrics, MAE against the reference, the
//! heatmap's cache outcome and the request echo. Only its wall-clock
//! fields vary run to run, so they are removed before pinning; everything
//! else is a function of the request. A refactor of how records are
//! declared or built must leave this table untouched. Each text is pinned
//! by its FNV-1a and its byte length. Regenerate with
//! `cargo test -q -p zatel-serve --test record_golden -- --ignored --nocapture`
//! only after an *intentional* change to a record's wire format.

use std::sync::Arc;

use minijson::{ToJson, Value};
use rtcore::fingerprint::Fnv64;
use zatel::{ArtifactCache, SweepSpec};
use zatel_proto::{ConfigRef, SweepRequest};

/// The wall-derived keys of a point record.
const WALL_KEYS: [&str; 3] = ["sim_wall_ms", "preprocess_wall_ms", "speedup_concurrent"];

/// `point` without its wall-derived keys.
fn without_walls(point: &Value) -> Value {
    let map = point.as_object().expect("a point is an object");
    let kept = map.iter().filter(|(k, _)| !WALL_KEYS.contains(&k.as_str()));
    Value::Object(kept.map(|(k, v)| (k.clone(), v.clone())).collect())
}

/// The sweep response of SPRNG at 16², 1 spp, seed 7, over K ∈ {1, 2} at
/// 50 % traced, against the reference, through a fresh in-memory cache —
/// with every point's wall-derived keys removed.
fn response_doc() -> Value {
    let mut request = SweepRequest::new(
        "SPRNG",
        ConfigRef::preset("mobile"),
        SweepSpec::matrix(&[1, 2], &[0.5]),
    );
    request.res = 16;
    request.spp = 1;
    request.seed = 7;
    request.reference = true;
    let cache = Arc::new(ArtifactCache::in_memory());
    let response = zatel_serve::execute_sweep(&request, &cache).expect("sweep runs");
    let doc = response.to_json();
    let map = doc.as_object().expect("a response is an object");
    let entries = map.iter().map(|(k, v)| {
        let v = match (k.as_str(), v.as_array()) {
            ("points", Some(points)) => Value::Array(points.iter().map(without_walls).collect()),
            _ => v.clone(),
        };
        (k.clone(), v)
    });
    Value::Object(entries.collect())
}

/// `(FNV-1a, byte length)` of each point's text, then of the whole
/// response's.
fn facts() -> Vec<(u64, usize)> {
    let doc = response_doc();
    let points = doc.get("points").and_then(Value::as_array).expect("points");
    let texts = points.iter().chain([&doc]).map(Value::to_string);
    texts
        .map(|text| {
            let mut h = Fnv64::new();
            h.write_bytes(text.as_bytes());
            (h.finish(), text.len())
        })
        .collect()
}

/// Point `K=1 p=50%`, point `K=2 p=50%`, then the whole response.
const GOLDEN: [(u64, usize); 3] = [
    (0x538049F4F8A66D37, 513),
    (0x7FC27D77A29D61C3, 510),
    (0xAEE1E45150461A1F, 1244),
];

#[test]
fn sweep_records_are_pinned() {
    assert_eq!(
        facts(),
        GOLDEN,
        "a sweep point record drifted — if that is intended, regenerate the \
         goldens (see the module docs)"
    );
}

#[test]
#[ignore = "golden regeneration helper; run with --ignored --nocapture"]
fn record_golden_print() {
    for (h, n) in facts() {
        println!("    ({h:#018X}, {n}),");
    }
}
