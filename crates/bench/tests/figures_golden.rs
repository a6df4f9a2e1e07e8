//! The whole figure plan at 32×32 (seed 42, 2 spp) against
//! `figures_golden.json`: the documents the ten per-figure benches wrote
//! before they became one plan, with every wall-clock-derived field
//! removed. Run with `cargo test --release -p zatel-bench -- --ignored`.

use minijson::{Map, Value};
use zatel::sim_executor::available_jobs;
use zatel_bench::{Plan, Setup, FIGURES};

/// `value` without the `keys` of any object inside it.
fn without(value: &Value, keys: &[&str]) -> Value {
    match value {
        Value::Object(map) => Value::Object(
            map.iter()
                .filter(|(k, _)| !keys.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), without(v, keys)))
                .collect(),
        ),
        other => other.clone(),
    }
}

#[test]
#[ignore = "simulates the whole plan: about 3 s in release, minutes in debug"]
fn figure_plan_matches_the_golden() {
    let setup = Setup {
        res: 32,
        spp: 2,
        seed: 42,
        jobs: available_jobs(),
    };
    let figures: Vec<_> = FIGURES.iter().collect();
    let doc = Plan::new(&setup, &figures).run().unwrap();
    let doc: Map = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(name, figure)| {
            let figure = match name.as_str() {
                "fig10_park_errors" => without(figure, &["speedup"]),
                "fig14_runtime" => without(figure, &["seconds", "slope_per_pct"]),
                "fig15_speedup" | "fig19_downscale_speedup" => Value::Object(Map::new()),
                _ => figure.clone(),
            };
            (name.clone(), figure)
        })
        .collect();
    // Through text, as the golden was written: non-finite numbers are null.
    let doc = Value::parse(&Value::Object(doc).pretty()).unwrap();
    let golden = Value::parse(include_str!("figures_golden.json")).unwrap();
    for (name, figure) in golden.as_object().unwrap().iter() {
        assert_eq!(
            doc.get(name),
            Some(figure),
            "{name} differs from the golden"
        );
    }
    assert_eq!(doc, golden);
}
