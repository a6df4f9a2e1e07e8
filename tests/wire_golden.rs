//! Golden table for the JSON wire: the exact text every `ToJson` type
//! renders for one fixed sample, the two request fingerprints that hash
//! JSON text, and the on-disk heatmap document of the stage cache.
//!
//! The CLI, `zatel serve`, the run records and history and the disk cache exchange
//! these documents, and a disk cache written by one build must be read by
//! the next. So a change to how records are declared must leave this table
//! untouched. Short documents are pinned verbatim, long ones by FNV-1a of
//! their text. Regenerate with
//! `cargo test -q --test wire_golden -- --ignored --nocapture` only after
//! an *intentional* change to a wire format.

use gpusim::{CacheConfig, GpuConfig, Metric, SimStats};
use minijson::{FromJson, Map, ToJson, Value};
use obs::{Histogram, MetricsRegistry, ObserveOptions, SpanRecord, TraceEvent};
use rtcore::bvh::{FlatNode, TraversalStats};
use rtcore::fingerprint::Fnv64;
use rtcore::math::{Aabb, Vec3};
use rtcore::scenes::SceneId;
use rtcore::tracer::TraceConfig;
use zatel::heatmap::Heatmap;
use zatel::{
    CacheOutcome, CacheStats, Distribution, DivisionMethod, DownscaleMode, SelectionOptions,
    StageCacheRecord, SweepPointSpec, SweepSpec, ZatelOptions,
};
use zatel_proto::{
    ConfigRef, DebugSlowResponse, ErrorKind, ErrorResponse, ExecutionHints, GroupReport,
    MetricValues, PointRecord, PredictRequest, PredictResponse, ReferenceReport, RunRecord,
    SceneInfo, ScenesResponse, SlowRequestEntry, SweepRequest, SweepResponse,
};

const UNIT: Aabb = Aabb {
    min: Vec3::ZERO,
    max: Vec3::ONE,
};

/// Documents up to this many bytes are pinned verbatim.
const VERBATIM: usize = 160;

/// The pinned form of a rendered document.
fn pin(text: &str) -> String {
    if text.len() <= VERBATIM {
        text.to_owned()
    } else {
        let mut h = Fnv64::new();
        h.write_bytes(text.as_bytes());
        format!("fnv1a {:016x}, {} bytes", h.finish(), text.len())
    }
}

fn span() -> SpanRecord {
    SpanRecord {
        name: "heatmap".into(),
        track: 2,
        start_us: 40,
        dur_us: 1500,
    }
}

fn sim_stats() -> SimStats {
    SimStats {
        cycles: 1,
        instructions: 2,
        warp_issues: 3,
        l1_accesses: 4,
        l1_misses: 5,
        l2_accesses: 6,
        l2_misses: 7,
        rt_warp_phases: 8,
        rt_active_rays: 9,
        dram_busy_cycles: 10,
        dram_active_cycles: 11,
        dram_channels: 12,
        dram_transactions: 13,
        dram_row_hits: 14,
        icnt_transfers: 15,
        icnt_busy_cycles: 16,
        threads_launched: 17,
        threads_filtered: 18,
        bound_issue_cycles: 19,
        bound_compute_cycles: 20,
        bound_memory_cycles: 21,
        bound_rt_cycles: 22,
        read_latency_sum: 23,
        reads: 24,
    }
}

fn registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.counter_add("warps", 12);
    reg.gauge_set("occupancy", 0.625);
    for v in [3, 70, 900] {
        reg.observe("latency", v);
    }
    reg
}

fn histogram() -> Histogram {
    let mut h = Histogram::new();
    for v in [0, 5, 5, 4096] {
        h.observe(v);
    }
    h
}

fn selection() -> SelectionOptions {
    let mut s = SelectionOptions::default();
    s.distribution = Distribution::ExpTmp;
    s.clamp = (0.25, 0.75);
    s.percent_cap = Some(0.1);
    s
}

fn zatel_options() -> ZatelOptions {
    let mut o = ZatelOptions::default();
    o.selection = selection();
    o.downscale = DownscaleMode::Factor(2);
    o.jobs = Some(3);
    o.observe = Some(ObserveOptions::default());
    o
}

fn spec() -> SweepSpec {
    let mut spec = SweepSpec::matrix(&[1, 2], &[0.3]);
    spec.points.push(SweepPointSpec {
        clamp: Some((0.2, 0.7)),
        ..SweepPointSpec::named("clamped")
    });
    spec
}

fn hints() -> ExecutionHints {
    ExecutionHints {
        deadline_ms: Some(2000),
    }
}

fn inline_config() -> ConfigRef {
    let mut config = GpuConfig::mobile_soc();
    config.name = "Tiny".into();
    config.num_sms = 2;
    ConfigRef::inline(config)
}

fn predict_request() -> PredictRequest {
    let mut req = PredictRequest::new("PARK", ConfigRef::preset("rtx2060"));
    req.res = 64;
    req.spp = 1;
    req.seed = 9;
    req.options = Some(zatel_options());
    req.regression = Some([0.2, 0.3, 0.4]);
    req.reference = true;
    req.hints = Some(hints());
    req
}

fn group() -> GroupReport {
    GroupReport {
        index: 1,
        pixels: 1024,
        traced_fraction: 0.3125,
        target_percent: 0.3,
        cycles: 98_765,
        wall_ms: 12.5,
    }
}

fn metric_values() -> MetricValues {
    MetricValues([1.5, 2e6, 0.25, 0.125, 17.0, 0.8, 0.4])
}

fn reference() -> ReferenceReport {
    ReferenceReport {
        metrics: MetricValues([1.4, 2.1e6, 0.26, 0.13, 16.5, 0.79, 0.41]),
        cpi_stack: vec![("issue".into(), 0.25), ("rt".into(), 0.75)],
    }
}

fn stage_record() -> StageCacheRecord {
    StageCacheRecord {
        stage: "heatmap".into(),
        fingerprint: 0x0123_4567_89AB_CDEF,
        outcome: CacheOutcome::DiskHit,
    }
}

fn predict_response() -> PredictResponse {
    PredictResponse {
        scene: "PARK".into(),
        config: "rtx2060".into(),
        res: 64,
        spp: 1,
        seed: 9,
        k: 6,
        prediction: metric_values(),
        groups: vec![group(), group()],
        reference: Some(reference()),
        mae: Some(0.05),
        speedup_concurrent: Some(9.5),
        sim_wall_ms: 100.0,
        preprocess_wall_ms: 25.0,
        spans: vec![span()],
        cache: vec![stage_record()],
        metrics: Some(registry()),
    }
}

fn point_record() -> PointRecord {
    let point = spec().points[1].clone();
    PointRecord {
        scene: "WKND".into(),
        config: "Tiny".into(),
        res: 64,
        spp: 1,
        seed: 9,
        label: point.label.clone(),
        point,
        k: 2,
        prediction: metric_values(),
        mae: Some(0.05),
        speedup_concurrent: Some(9.5),
        sim_wall_ms: 100.0,
        preprocess_wall_ms: 25.0,
        cache: vec![stage_record()],
    }
}

fn slow_entry() -> SlowRequestEntry {
    SlowRequestEntry {
        request_id: "ci-7".into(),
        route: "POST /v1/predict".into(),
        status: 200,
        queue_wait_ms: 3,
        wall_ms: 128.5,
        deadline_slack_ms: Some(-20),
        spans: vec![span()],
        cache: vec![stage_record()],
        log: Value::parse(r#"{"schema":"zatel-log-v1","event":"request"}"#).unwrap(),
    }
}

/// SPRNG at 16², 1 spp: the heatmap, as the stage cache builds it.
fn sprng_heatmap() -> Heatmap {
    let scene = SceneId::Sprng.build(1);
    let trace = TraceConfig {
        samples_per_pixel: 1,
        max_bounces: 2,
        seed: 7,
    };
    Heatmap::profile(&scene, 16, 16, &trace)
}

/// Every pinned document: name and rendered text.
fn documents() -> Vec<(&'static str, String)> {
    let text = |v: Value| v.to_string();
    let heatmap = sprng_heatmap();
    let mut event_args = Map::new();
    event_args.insert("rays".into(), Value::from(31u32));
    let bvh = SceneId::Sprng.build(1);
    vec![
        ("Vec3", text(Vec3::new(1.5, -2.0, 0.25).to_json())),
        (
            "Aabb",
            text(
                Aabb {
                    min: Vec3::new(-1.0, 0.0, 2.0),
                    max: Vec3::new(3.0, 4.5, 6.0),
                }
                .to_json(),
            ),
        ),
        ("FlatNode leaf", text(FlatNode::leaf(UNIT, 7, 3).to_json())),
        (
            "FlatNode interior",
            text(FlatNode::interior(UNIT, 9, 2).to_json()),
        ),
        (
            "TraversalStats",
            text(
                TraversalStats {
                    nodes_visited: 11,
                    box_tests: 22,
                    prim_tests: 3,
                    leaf_visits: 4,
                }
                .to_json(),
            ),
        ),
        ("Bvh SPRNG", text(bvh.bvh().to_json())),
        (
            "TraceConfig",
            text(
                TraceConfig {
                    samples_per_pixel: 2,
                    max_bounces: 4,
                    seed: 0xDEAD_BEEF,
                }
                .to_json(),
            ),
        ),
        (
            "CacheConfig",
            text(
                CacheConfig {
                    bytes: 65_536,
                    ways: 0,
                    line_bytes: 128,
                    latency: 20,
                }
                .to_json(),
            ),
        ),
        ("GpuConfig mobile", text(GpuConfig::mobile_soc().to_json())),
        ("GpuConfig rtx2060", text(GpuConfig::rtx_2060().to_json())),
        ("SimStats", text(sim_stats().to_json())),
        (
            "Metric",
            text(Value::Array(
                Metric::ALL.iter().map(ToJson::to_json).collect(),
            )),
        ),
        ("ObserveOptions", text(ObserveOptions::default().to_json())),
        ("SpanRecord", text(span().to_json())),
        (
            "TraceEvent duration",
            text(
                TraceEvent {
                    name: "phase".into(),
                    cat: "sm",
                    ph: 'X',
                    ts: 10,
                    dur: Some(140),
                    pid: 1,
                    tid: 3,
                    args: None,
                }
                .to_json(),
            ),
        ),
        (
            "TraceEvent instant",
            text(
                TraceEvent {
                    name: "rt".into(),
                    cat: "rt",
                    ph: 'i',
                    ts: 150,
                    dur: None,
                    pid: 0,
                    tid: 1000,
                    args: Some(event_args),
                }
                .to_json(),
            ),
        ),
        ("Histogram", text(histogram().to_json())),
        ("MetricsRegistry", text(registry().to_json())),
        (
            "Distribution",
            text(Value::Array(vec![
                Distribution::Uniform.to_json(),
                Distribution::LinTmp.to_json(),
                Distribution::ExpTmp.to_json(),
            ])),
        ),
        (
            "DivisionMethod",
            text(Value::Array(vec![
                DivisionMethod::Coarse.to_json(),
                DivisionMethod::default_fine().to_json(),
            ])),
        ),
        (
            "DownscaleMode",
            text(Value::Array(vec![
                DownscaleMode::Natural.to_json(),
                DownscaleMode::NoDownscale.to_json(),
                DownscaleMode::Factor(4).to_json(),
            ])),
        ),
        ("SelectionOptions", text(selection().to_json())),
        (
            "ZatelOptions default",
            text(ZatelOptions::default().to_json()),
        ),
        ("ZatelOptions", text(zatel_options().to_json())),
        ("SweepPointSpec", text(spec().points[2].to_json())),
        ("SweepSpec", text(spec().to_json())),
        ("StageCacheRecord", text(stage_record().to_json())),
        (
            "CacheOutcome",
            text(Value::Array(vec![
                CacheOutcome::Miss.to_json(),
                CacheOutcome::MemoryHit.to_json(),
                CacheOutcome::DiskHit.to_json(),
            ])),
        ),
        (
            "CacheStats",
            text(
                CacheStats {
                    memory_hits: 1,
                    disk_hits: 2,
                    misses: 3,
                    disk_evictions: 4,
                    disk_corrupt: 5,
                    disk_write_failures: 8,
                    disk_bytes: 6,
                    disk_entries: 7,
                }
                .to_json(),
            ),
        ),
        (
            "ConfigRef preset",
            text(ConfigRef::preset("mobile").to_json()),
        ),
        ("ConfigRef inline", text(inline_config().to_json())),
        ("ExecutionHints", text(hints().to_json())),
        (
            "ExecutionHints empty",
            text(ExecutionHints::default().to_json()),
        ),
        (
            "PredictRequest minimal",
            text(PredictRequest::new("SPRNG", ConfigRef::preset("mobile")).to_json()),
        ),
        ("PredictRequest", text(predict_request().to_json())),
        ("MetricValues", text(metric_values().to_json())),
        ("GroupReport", text(group().to_json())),
        ("ReferenceReport", text(reference().to_json())),
        ("PredictResponse", text(predict_response().to_json())),
        (
            "PredictResponse deterministic",
            text(predict_response().deterministic_json()),
        ),
        ("SweepRequest", {
            let mut req = SweepRequest::new("WKND", inline_config(), spec());
            req.options = Some(ZatelOptions::default());
            req.hints = Some(hints());
            text(req.to_json())
        }),
        (
            "SweepResponse",
            text(
                SweepResponse {
                    scene: "WKND".into(),
                    config: "Tiny".into(),
                    points: vec![point_record()],
                    cache_stats: CacheStats::default(),
                }
                .to_json(),
            ),
        ),
        ("PointRecord", text(point_record().to_json())),
        (
            "ErrorResponse",
            text(ErrorResponse::new(ErrorKind::BadRequest, "bad \"res\"").to_json()),
        ),
        (
            "ErrorResponse refusals",
            text(
                ErrorResponse::new(ErrorKind::Overloaded, "queue full")
                    .with_retry_after_ms(2000)
                    .with_deadline_slack_ms(-350)
                    .to_json(),
            ),
        ),
        (
            "ErrorKind",
            text(Value::Array(
                [
                    ErrorKind::BadRequest,
                    ErrorKind::Unprocessable,
                    ErrorKind::Overloaded,
                    ErrorKind::DeadlineExceeded,
                    ErrorKind::Internal,
                ]
                .iter()
                .map(|k| Value::from(k.tag()))
                .collect(),
            )),
        ),
        (
            "SceneInfo",
            text(
                SceneInfo {
                    name: "SPRNG".into(),
                    description: "springs".into(),
                }
                .to_json(),
            ),
        ),
        ("ScenesResponse", text(ScenesResponse::current().to_json())),
        ("SlowRequestEntry", text(slow_entry().to_json())),
        (
            "DebugSlowResponse",
            text(
                DebugSlowResponse {
                    entries: vec![slow_entry()],
                }
                .to_json(),
            ),
        ),
        (
            "RunRecord",
            text(
                RunRecord {
                    request: predict_request(),
                    response: predict_response(),
                    heatmap: heatmap.clone(),
                }
                .to_json(),
            ),
        ),
        ("Heatmap disk SPRNG 16", text(heatmap.to_json())),
    ]
}

/// The affinity and dedup fingerprints of the minimal and the full request.
fn fingerprints() -> [u64; 4] {
    let minimal = PredictRequest::new("SPRNG", ConfigRef::preset("mobile"));
    let mut inline = predict_request();
    inline.config = inline_config();
    [
        minimal.affinity_fingerprint(),
        minimal.dedup_fingerprint(),
        inline.affinity_fingerprint(),
        inline.dedup_fingerprint(),
    ]
}

const GOLDEN: &[(&str, &str)] = &[
    ("Vec3", r#"{"x":1.5,"y":-2.0,"z":0.25}"#),
    (
        "Aabb",
        r#"{"min":{"x":-1.0,"y":0.0,"z":2.0},"max":{"x":3.0,"y":4.5,"z":6.0}}"#,
    ),
    (
        "FlatNode leaf",
        r#"{"bounds":{"min":{"x":0.0,"y":0.0,"z":0.0},"max":{"x":1.0,"y":1.0,"z":1.0}},"first_or_right":7,"count":3,"axis":0,"leaf":true}"#,
    ),
    (
        "FlatNode interior",
        r#"{"bounds":{"min":{"x":0.0,"y":0.0,"z":0.0},"max":{"x":1.0,"y":1.0,"z":1.0}},"first_or_right":9,"count":0,"axis":2,"leaf":false}"#,
    ),
    (
        "TraversalStats",
        r#"{"nodes_visited":11,"box_tests":22,"prim_tests":3,"leaf_visits":4}"#,
    ),
    ("Bvh SPRNG", r#"fnv1a 680727d1dc2ea41c, 217 bytes"#),
    (
        "TraceConfig",
        r#"{"samples_per_pixel":2,"max_bounces":4,"seed":3735928559}"#,
    ),
    (
        "CacheConfig",
        r#"{"bytes":65536,"ways":0,"line_bytes":128,"latency":20}"#,
    ),
    ("GpuConfig mobile", r#"fnv1a cf67540a56ade2f7, 366 bytes"#),
    ("GpuConfig rtx2060", r#"fnv1a 217b84e515b8419e, 366 bytes"#),
    ("SimStats", r#"fnv1a 0057758580bd83ae, 465 bytes"#),
    (
        "Metric",
        r#"["Ipc","SimCycles","L1MissRate","L2MissRate","RtEfficiency","DramEfficiency","BandwidthUtilization"]"#,
    ),
    ("ObserveOptions", r#"{"timeline":true}"#),
    (
        "SpanRecord",
        r#"{"name":"heatmap","track":2,"start_us":40,"dur_us":1500}"#,
    ),
    (
        "TraceEvent duration",
        r#"{"name":"phase","cat":"sm","ph":"X","ts":10,"dur":140,"pid":1,"tid":3}"#,
    ),
    (
        "TraceEvent instant",
        r#"{"name":"rt","cat":"rt","ph":"i","ts":150,"pid":0,"tid":1000,"args":{"rays":31}}"#,
    ),
    (
        "Histogram",
        r#"{"count":4,"sum":4106,"min":0,"max":4096,"buckets":[{"le":0,"count":1},{"le":7,"count":2},{"le":8191,"count":1}]}"#,
    ),
    ("MetricsRegistry", r#"fnv1a d0ca7f7f41356433, 225 bytes"#),
    ("Distribution", r#"["uniform","lintmp","exptmp"]"#),
    (
        "DivisionMethod",
        r#"[{"method":"coarse"},{"method":"fine","chunk_width":32,"chunk_height":2}]"#,
    ),
    ("DownscaleMode", r#"["natural","none",4]"#),
    (
        "SelectionOptions",
        r#"{"block_width":32,"block_height":2,"distribution":"exptmp","clamp_lo":0.25,"clamp_hi":0.75,"percent_override":null,"percent_cap":0.1,"seed":388807}"#,
    ),
    (
        "ZatelOptions default",
        r#"fnv1a dc1862c49e5c9f39, 306 bytes"#,
    ),
    ("ZatelOptions", r#"fnv1a b0c3371b35bcd4ac, 308 bytes"#),
    (
        "SweepPointSpec",
        r#"{"label":"clamped","downscale":null,"percent":null,"clamp":[0.2,0.7]}"#,
    ),
    ("SweepSpec", r#"fnv1a bdb4c50041aaa070, 213 bytes"#),
    (
        "StageCacheRecord",
        r#"{"stage":"heatmap","fingerprint":"0123456789abcdef","outcome":"disk"}"#,
    ),
    ("CacheOutcome", r#"["miss","memory","disk"]"#),
    (
        "CacheStats",
        r#"{"memory_hits":1,"disk_hits":2,"misses":3,"disk_evictions":4,"disk_corrupt":5,"disk_write_failures":8,"disk_bytes":6,"disk_entries":7}"#,
    ),
    ("ConfigRef preset", r#""mobile""#),
    ("ConfigRef inline", r#"fnv1a d983f8da0a123978, 360 bytes"#),
    ("ExecutionHints", r#"{"deadline_ms":2000}"#),
    ("ExecutionHints empty", r#"{"deadline_ms":null}"#),
    (
        "PredictRequest minimal",
        r#"{"schema":"zatel-api-v1","scene":"SPRNG","config":"mobile","res":128,"spp":2,"seed":42,"options":null,"regression":null,"reference":false,"hints":null}"#,
    ),
    ("PredictRequest", r#"fnv1a 5febaf82d6886098, 477 bytes"#),
    (
        "MetricValues",
        r#"{"GPU IPC":1.5,"GPU Sim Cycles":2000000.0,"L1D Miss Rate":0.25,"L2 Miss Rate":0.125,"RT Avg Efficiency":17.0,"DRAM Efficiency":0.8,"BW Utilization":0.4}"#,
    ),
    (
        "GroupReport",
        r#"{"index":1,"pixels":1024,"traced_fraction":0.3125,"target_percent":0.3,"cycles":98765,"wall_ms":12.5}"#,
    ),
    ("ReferenceReport", r#"fnv1a c43d454cd122e7a9, 234 bytes"#),
    ("PredictResponse", r#"fnv1a a8f20e284cc6dcb6, 1184 bytes"#),
    (
        "PredictResponse deterministic",
        r#"fnv1a 530ab02ae4effcd1, 728 bytes"#,
    ),
    ("SweepRequest", r#"fnv1a 7c131c3dda6f8fbe, 1023 bytes"#),
    ("SweepResponse", r#"fnv1a cd2a2ddd1688c6d2, 726 bytes"#),
    ("PointRecord", r#"fnv1a 71e5d6b9fa17f7b8, 509 bytes"#),
    (
        "ErrorResponse",
        r#"{"schema":"zatel-api-v1","kind":"bad_request","error":"bad \"res\""}"#,
    ),
    (
        "ErrorResponse refusals",
        r#"{"schema":"zatel-api-v1","kind":"overloaded","error":"queue full","retry_after_ms":2000,"deadline_slack_ms":-350}"#,
    ),
    (
        "ErrorKind",
        r#"["bad_request","unprocessable","overloaded","deadline_exceeded","internal"]"#,
    ),
    ("SceneInfo", r#"{"name":"SPRNG","description":"springs"}"#),
    ("ScenesResponse", r#"fnv1a 7b25b44c57b3a36c, 531 bytes"#),
    ("SlowRequestEntry", r#"fnv1a f2a97f6c66c87c32, 316 bytes"#),
    ("DebugSlowResponse", r#"fnv1a 6b35bb5bd5e8979c, 354 bytes"#),
    ("RunRecord", r#"fnv1a 2fc4f5db75dc4468, 5679 bytes"#),
    (
        "Heatmap disk SPRNG 16",
        r#"fnv1a 567b9ae76b48d998, 3959 bytes"#,
    ),
];

const FINGERPRINTS: [u64; 4] = [
    0x25B0D63A83AD30A2,
    0x3542EF0532C75674,
    0x0477399457066D87,
    0xE40B747A931F75F3,
];

#[test]
fn every_document_is_pinned() {
    let documents = documents();
    assert_eq!(documents.len(), GOLDEN.len(), "one golden row per document");
    for ((name, text), (golden_name, golden)) in documents.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(
            pin(text),
            *golden,
            "{name}: wire text drifted — if that is intended, regenerate the goldens \
             (see the module docs)"
        );
    }
}

#[test]
fn request_fingerprints_are_pinned() {
    assert_eq!(fingerprints(), FINGERPRINTS);
}

#[test]
fn disk_artifacts_read_back_exactly() {
    let heatmap = sprng_heatmap();
    let back = Heatmap::from_json(&heatmap.to_json()).expect("heatmap reads back");
    assert_eq!(back, heatmap);
}

#[test]
#[ignore = "golden regeneration helper; run with --ignored --nocapture"]
fn wire_golden_print() {
    println!("const GOLDEN: &[(&str, &str)] = &[");
    for (name, text) in documents() {
        println!("    ({name:?}, r#\"{}\"#),", pin(&text));
    }
    println!("];");
    let [a, b, c, d] = fingerprints();
    println!("const FINGERPRINTS: [u64; 4] = [{a:#018X}, {b:#018X}, {c:#018X}, {d:#018X}];");
}
