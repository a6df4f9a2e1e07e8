//! Result documents: writing them, reading them back, printing the metric
//! table, and comparing two of them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::calibrate::REFERENCE_S;
use crate::layers::{parse_json, Json};
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, spread, supported_percentile};
use crate::workloads::{WorkloadResult, WORKLOADS};

/// Where and how a result file was measured.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub nproc: usize,
    pub rustc: String,
    pub git_commit: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizing: &'static str,
}

/// A JSON string literal.
fn quoted(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits `f64` needs to round-trip; a
/// non-finite value (which a result must never hold) becomes `null`.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

/// `{"name":{"value":v,"unit":"u"},...}` for every metric of `table`, in
/// table order; a metric the run did not produce reads 0.
fn metrics_object(table: &[MetricDef], values: &BTreeMap<String, f64>) -> String {
    let entries: Vec<String> = table
        .iter()
        .map(|def| {
            let value = values.get(def.name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quoted(def.name),
                number(value),
                quoted(def.unit)
            )
        })
        .collect();
    format!("{{{}}}", entries.join(","))
}

/// The one-line document a workload's child process hands its parent, and
/// one element of a result file's `workloads` array.
pub fn workload_json(r: &WorkloadResult) -> String {
    let samples: Vec<String> = r
        .samples
        .iter()
        .map(|(name, values)| {
            let list: Vec<String> = values.iter().map(|v| number(*v)).collect();
            format!("{}:[{}]", quoted(name), list.join(","))
        })
        .collect();
    let strings = |list: &[String]| list.iter().map(|s| quoted(s)).collect::<Vec<_>>().join(",");
    let per_layer = if r.per_layer.is_empty() {
        "null".to_owned()
    } else {
        metrics_object(PER_LAYER, &r.per_layer)
    };
    format!(
        "{{\"workload\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"passes\":{},\
         \"operations\":{},\"end_to_end\":{},\"per_layer\":{},\
         \"samples\":{{{}}},\"notes\":[{}]}}",
        quoted(&r.workload),
        r.attempted,
        r.failed,
        strings(&r.failures),
        r.passes,
        r.operations,
        metrics_object(END_TO_END, &r.end_to_end),
        per_layer,
        samples.join(","),
        strings(&r.notes),
    )
}

/// `name → value` of a metrics object; empty for `null` (an untraced
/// run's `per_layer`).
fn values_of(object: Option<&Json>) -> BTreeMap<String, f64> {
    object
        .and_then(Json::as_object)
        .map(|map| {
            map.iter()
                .filter_map(|(name, entry)| Some((name.clone(), entry.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

fn strings_of(list: Option<&Json>) -> Vec<String> {
    list.and_then(Json::as_array)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default()
}

/// Reads one workload document ([`workload_json`]'s output).
///
/// # Errors
///
/// Returns a message naming the missing field.
pub fn parse_workload(doc: &Json) -> Result<WorkloadResult, String> {
    let count = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("workload result lacks `{key}`"))
    };
    let end_to_end = values_of(doc.get("end_to_end"));
    if end_to_end.is_empty() {
        return Err("workload result lacks `end_to_end`".to_owned());
    }
    let samples = doc
        .get("samples")
        .and_then(Json::as_object)
        .map(|map| {
            map.iter()
                .map(|(name, list)| {
                    let values = list
                        .as_array()
                        .map(|a| a.iter().filter_map(Json::as_f64).collect())
                        .unwrap_or_default();
                    (name.clone(), values)
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(WorkloadResult {
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("workload result lacks `workload`")?
            .to_owned(),
        attempted: count("attempted")?,
        failed: count("failed")?,
        failures: strings_of(doc.get("failures")),
        passes: count("passes")? as usize,
        operations: count("operations")? as usize,
        end_to_end,
        per_layer: values_of(doc.get("per_layer")),
        samples,
        notes: strings_of(doc.get("notes")),
    })
}

/// A whole result file.
pub fn run_json(stamp: &Stamp, workloads: &[WorkloadResult]) -> String {
    let list: Vec<String> = workloads.iter().map(workload_json).collect();
    format!(
        "{{\"schema\":\"zatel-benchmark-v1\",\"stamp\":{{\"nproc\":{},\"rustc\":{},\
         \"git_commit\":{},\"seed\":{},\"seconds\":{},\"traced\":{},\"sizing\":{}}},\
         \"workloads\":[\n{}\n]}}\n",
        stamp.nproc,
        quoted(&stamp.rustc),
        quoted(&stamp.git_commit),
        stamp.seed,
        number(stamp.seconds),
        stamp.traced,
        quoted(stamp.sizing),
        list.join(",\n"),
    )
}

/// Prints `workload metric value unit` for every metric of the run, then
/// its counts, notes and failures.
pub fn print_table(w: &WorkloadResult) {
    let name = &w.workload;
    println!(
        "# {name}: {} passes, {} operations (highest percentile with 10 samples beyond it: p{}), \
         {} attempted, {} failed",
        w.passes,
        w.operations,
        supported_percentile(w.operations),
        w.attempted,
        w.failed
    );
    if let Some(kernel) = w.samples.get("kernel_s").filter(|k| !k.is_empty()) {
        println!(
            "# {name}: times are calibrated; the host ran at {:.2}x the reference speed \
             (raw pass walls: samples.raw_wall_s in the result file)",
            REFERENCE_S / median(kernel)
        );
    }
    for def in END_TO_END {
        let value = w.end_to_end.get(def.name).copied().unwrap_or(0.0);
        println!("{name} {} {value:.4} {}", def.name, def.unit);
    }
    if !w.per_layer.is_empty() {
        for def in PER_LAYER {
            let value = w.per_layer.get(def.name).copied().unwrap_or(0.0);
            println!("{name} {} {value:.4} {}", def.name, def.unit);
        }
    }
    for note in &w.notes {
        println!("# {name}: NOTE {note}");
    }
    for failure in &w.failures {
        println!("# {name}: FAILED {failure}");
    }
}

/// The contract's result line for one workload: every end-to-end metric
/// of an untraced run, every per-layer metric of a traced one.
pub fn contract_line(w: &WorkloadResult, traced: bool) -> String {
    let (table, values) = if traced {
        (PER_LAYER, &w.per_layer)
    } else {
        (END_TO_END, &w.end_to_end)
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        w.failed == 0,
        w.attempted.max(1),
        w.failed,
        metrics_object(table, values)
    )
}

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, written from the catalogue so the file the driver
/// reads and the metrics the program prints cannot drift apart.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let metric = |def: &MetricDef| {
        let bound = def
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quoted(def.name),
            quoted(def.unit),
            quoted(def.better.as_str())
        )
    };
    let list = |table: &[MetricDef]| table.iter().map(metric).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(END_TO_END),
        list(PER_LAYER),
    )
}

/// Model counts that must repeat exactly between two runs of one seed.
const EXACT: &[&str] = &[
    "gpusim.sim_cycles",
    "gpusim.instructions",
    "gpusim.rt_warp_phases",
    "gpusim.ipc",
    "gpusim.l1_miss_rate",
    "gpusim.l2_miss_rate",
    "gpusim.dram_row_hit_rate",
    "gpusim.dram_efficiency",
    "gpusim.rt_efficiency",
    "gpusim.bound_issue_share",
    "gpusim.bound_compute_share",
    "gpusim.bound_memory_share",
    "gpusim.bound_rt_share",
    "rtworkload.ops",
    "rtcore.bvh_nodes",
    "rtcore.profile_work_units",
];

/// `compare`'s verdict on one (workload, end-to-end metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between passes is wider than the bound, so a change of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// it is better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

/// The verdict for one metric given both values and both runs' per-pass
/// samples.
pub fn verdict(def: &MetricDef, a: f64, b: f64, samples: [&[f64]; 2]) -> (Verdict, f64, f64) {
    let bound = def.bound.unwrap_or(0.0);
    let noise = samples
        .iter()
        .filter(|s| s.len() >= 2)
        .map(|s| spread(s))
        .fold(0.0, f64::max);
    let worse = worsening(def, a, b);
    let verdict = if noise > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse, noise)
}

fn read_run(path: &str) -> Result<(Json, Vec<WorkloadResult>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no `workloads` array"))?
        .iter()
        .map(parse_workload)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{path}: {e}"))?;
    Ok((doc, workloads))
}

/// Compares result file `b` (the change) against `a` (the parent): one
/// line per workload and end-to-end metric, then the exact counts when
/// both files are traced. Returns whether anything regressed.
///
/// # Errors
///
/// Returns a message when a file cannot be read.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (doc_a, run_a) = read_run(path_a)?;
    let (doc_b, run_b) = read_run(path_b)?;
    let seed = |doc: &Json| {
        doc.get("stamp")
            .and_then(|s| s.get("seed"))
            .and_then(Json::as_u64)
    };
    let same_seed = seed(&doc_a) == seed(&doc_b);
    let mut regressed = false;
    println!("workload metric A B worse_by bound spread verdict");
    for a in &run_a {
        let Some(b) = run_b.iter().find(|b| b.workload == a.workload) else {
            println!("{} missing from {path_b}", a.workload);
            continue;
        };
        for def in END_TO_END {
            let (Some(&va), Some(&vb)) = (a.end_to_end.get(def.name), b.end_to_end.get(def.name))
            else {
                continue;
            };
            let none: &[f64] = &[];
            let samples = [
                a.samples.get(def.name).map_or(none, Vec::as_slice),
                b.samples.get(def.name).map_or(none, Vec::as_slice),
            ];
            let (verdict, worse, noise) = verdict(def, va, vb, samples);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{} {} {va:.4} {vb:.4} {:+.1}% {:.0}% {:.1}% {}",
                a.workload,
                def.name,
                100.0 * worse,
                100.0 * def.bound.unwrap_or(0.0),
                100.0 * noise,
                verdict.as_str()
            );
        }
        if a.failed + b.failed > 0 {
            regressed |= b.failed > a.failed;
            println!(
                "{} failed_share {}/{} {}/{}",
                a.workload, a.failed, a.attempted, b.failed, b.attempted
            );
        }
        let (la, lb) = (&a.per_layer, &b.per_layer);
        if same_seed && !la.is_empty() && !lb.is_empty() {
            let differing: Vec<&str> = EXACT
                .iter()
                .copied()
                .filter(|name| {
                    la.get(*name).map(|v| v.to_bits()) != lb.get(*name).map(|v| v.to_bits())
                })
                .collect();
            if differing.is_empty() {
                println!("{} model-counts identical", a.workload);
            } else {
                println!(
                    "{} model-counts differ: {}",
                    a.workload,
                    differing.join(" ")
                );
            }
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn sample_result() -> WorkloadResult {
        let mut r = WorkloadResult {
            workload: "predict-heavy".into(),
            attempted: 20,
            failed: 1,
            failures: vec!["PARK-mobile: \"quoted\"\nline".into()],
            passes: 5,
            operations: 20,
            end_to_end: BTreeMap::from([("wall_s".into(), 1.25), ("setup_s".into(), 0.1 + 0.2)]),
            per_layer: BTreeMap::from([("gpusim.run_ms".into(), 900.5)]),
            notes: vec!["a note".into()],
            ..WorkloadResult::default()
        };
        r.samples.insert("wall_s".into(), vec![1.2, 1.25, 1.3]);
        r
    }

    #[test]
    fn workload_documents_round_trip() {
        let text = workload_json(&sample_result());
        assert!(!text.contains('\n'), "a child's result is one line");
        let parsed = parse_workload(&parse_json(&text).expect("valid JSON")).expect("parses");
        assert_eq!(parsed.workload, "predict-heavy");
        assert_eq!((parsed.attempted, parsed.failed, parsed.passes), (20, 1, 5));
        assert_eq!(parsed.failures, vec!["PARK-mobile: \"quoted\"\nline"]);
        assert_eq!(parsed.end_to_end["wall_s"], 1.25);
        // All digits survive: 0.1 + 0.2 is not 0.3.
        assert_eq!(
            parsed.end_to_end["setup_s"].to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        // Every metric of the catalogue is present; unmeasured ones read 0.
        assert_eq!(parsed.end_to_end.len(), END_TO_END.len());
        assert_eq!(parsed.per_layer.len(), PER_LAYER.len());
        assert_eq!(parsed.per_layer["gpusim.run_ms"], 900.5);
        assert_eq!(parsed.per_layer["serve.coalesced"], 0.0);
        // Written out again it is the same document.
        assert_eq!(workload_json(&parsed), text);
        assert_eq!(parsed.samples["wall_s"], vec![1.2, 1.25, 1.3]);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let text = workload_json(&sample_result());
        let parsed = parse_workload(&parse_json(&text).expect("valid JSON")).expect("parses");
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let line = contract_line(&parsed, traced);
            let doc = parse_json(&line).expect("valid JSON");
            let keys: Vec<&String> = doc
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k)
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
            let metrics = doc
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            assert_eq!(metrics.len(), table.len());
            for def in table {
                let entry = metrics.get(def.name).expect(def.name);
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                assert!(entry.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let wall = end_to_end("wall_s").expect("wall_s");
        let rate = end_to_end("req_per_s").expect("req_per_s");
        let quiet: &[f64] = &[1.0, 1.01, 0.99, 1.0, 1.0];
        let noisy: &[f64] = &[0.8, 1.0, 1.2, 0.7, 1.3];
        // 20 % slower: inside the 25 % bound.
        assert_eq!(verdict(wall, 1.0, 1.2, [quiet, quiet]).0, Verdict::Ok);
        // 30 % slower.
        assert_eq!(
            verdict(wall, 1.0, 1.3, [quiet, quiet]).0,
            Verdict::Regressed
        );
        // Faster is never a regression.
        assert_eq!(verdict(wall, 1.0, 0.5, [quiet, quiet]).0, Verdict::Ok);
        // Higher-is-better metrics regress downwards.
        assert_eq!(verdict(rate, 100.0, 70.0, [&[], &[]]).0, Verdict::Regressed);
        assert_eq!(verdict(rate, 100.0, 120.0, [&[], &[]]).0, Verdict::Ok);
        // A spread wider than the bound hides any verdict.
        assert_eq!(
            verdict(wall, 1.0, 1.5, [quiet, noisy]).0,
            Verdict::Unresolved
        );
    }
}
