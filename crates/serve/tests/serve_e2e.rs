//! End-to-end service tests: boot a real server on an ephemeral port,
//! drive it over real sockets, and hold it to the `zatel-api-v1`
//! acceptance bar — byte-identical predictions vs the in-process
//! pipeline, cache hits on warm repeats, and a drain that loses nothing.

use std::sync::Arc;
use std::thread::JoinHandle;

use minijson::{FromJson, ToJson, Value};
use zatel_proto::{ConfigRef, PredictRequest, PredictResponse, ScenesResponse};
use zatel_serve::server::{ServeConfig, ServeReport, Server};
use zatel_serve::HttpClient;

/// Boots a server with `config` (addr forced to an ephemeral port),
/// returning a client for it, a drain handle and the join handle that
/// yields the final report.
fn boot(
    mut config: ServeConfig,
) -> (
    HttpClient,
    zatel_serve::server::ServeHandle,
    JoinHandle<Result<ServeReport, String>>,
) {
    config.addr = "127.0.0.1:0".into();
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let client = HttpClient::new(&format!("http://{addr}")).expect("client");
    (client, handle, join)
}

fn tiny_request() -> PredictRequest {
    let mut req = PredictRequest::new("SPRNG", ConfigRef::preset("mobile"));
    req.res = 32;
    req.spp = 1;
    req.seed = 7;
    req
}

/// The same prediction computed in-process, bypassing HTTP entirely.
fn in_process_response(req: &PredictRequest) -> PredictResponse {
    let cache = zatel::ArtifactCache::in_memory();
    zatel_serve::execute_predict(req, &cache)
        .expect("in-process predict")
        .response
}

/// `doc` with the removed intra-simulation thread knobs and job cap
/// injected into its `hints` (and, when present, `options`) object, the
/// removed engine trace slice width into `options` and the removed
/// timeline cap into `options.observe`, when present — unknown fields
/// now, which every `zatel-api-v1` parser ignores.
fn with_removed_knobs(doc: &Value) -> Value {
    let text = doc
        .to_string()
        .replace(
            r#""hints":{"#,
            r#""hints":{"jobs":2,"sim_threads":4,"timing_threads":2,"#,
        )
        .replace(
            r#""options":{"#,
            r#""options":{"sim_threads":4,"trace_slice_cycles":5000,"#,
        )
        .replace(r#""observe":{"#, r#""observe":{"max_timeline_events":64,"#);
    assert!(text.contains("timing_threads"), "no hints object in {doc}");
    Value::parse(&text).expect("legacy doc")
}

#[test]
fn service_round_trip_concurrent_and_cached() {
    let (client, handle, join) = boot(ServeConfig {
        workers: 3,
        queue: 16,
        ..ServeConfig::default()
    });

    // Liveness + catalog first.
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(
        health.json().unwrap().get("status").and_then(Value::as_str),
        Some("ok")
    );
    let scenes = client.get("/v1/scenes").expect("scenes");
    let catalog = ScenesResponse::from_json(&scenes.json().unwrap()).expect("catalog");
    assert!(catalog.scenes.iter().any(|s| s.name == "SPRNG"));

    // Concurrent predicts: every response must match the in-process
    // pipeline byte-for-byte on the deterministic subset.
    let req = tiny_request();
    let expected = in_process_response(&req).deterministic_json().to_string();
    let client = Arc::new(client);
    let mut predicts = Vec::new();
    for _ in 0..3 {
        let client = Arc::clone(&client);
        let body = req.to_json();
        predicts.push(std::thread::spawn(move || {
            let resp = client.post_json("/v1/predict", &body).expect("predict");
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            PredictResponse::from_json(&resp.json().unwrap())
                .expect("response parses")
                .deterministic_json()
                .to_string()
        }));
    }
    for predict in predicts {
        let got = predict.join().expect("predict thread");
        assert_eq!(
            got, expected,
            "served prediction must be byte-identical to Zatel::run"
        );
    }

    // Warm repeat: the process-lifetime cache must now report hits both
    // in the response's cache records and on /metrics.
    let warm = client
        .post_json("/v1/predict", &req.to_json())
        .expect("warm predict");
    let warm_doc = warm.json().unwrap();
    let outcomes: Vec<&str> = warm_doc
        .get("cache")
        .and_then(Value::as_array)
        .expect("cache records")
        .iter()
        .filter_map(|r| r.get("outcome").and_then(Value::as_str))
        .collect();
    assert!(
        outcomes.contains(&"memory"),
        "warm run should hit the artifact cache, got {outcomes:?}"
    );
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let hits_line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("zatel_serve_cache_memory_hits"))
        .expect("cache hit counter exposed");
    let hits: f64 = hits_line
        .rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("counter value");
    assert!(hits > 0.0, "metrics must report cache hits: {hits_line}");
    let depth_line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("zatel_serve_queue_depth"))
        .expect("queue depth gauge missing");
    let depth: f64 = depth_line
        .rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("gauge value");
    // The admit/drain counters race in opposite directions; the gauge
    // must never wrap below zero into a huge unsigned value.
    assert!(
        (0.0..=16.0).contains(&depth),
        "queue depth out of range: {depth_line}"
    );
    assert!(
        metrics
            .body
            .lines()
            .any(|l| l.starts_with("zatel_serve_predict_latency_ms_bucket")),
        "latency histogram missing"
    );

    // Error mapping: bad JSON → 400, unknown scene → 422, bad route → 400.
    let bad = client
        .post_json("/v1/predict", &Value::from("not a request"))
        .expect("bad body");
    assert_eq!(bad.status, 400);
    let mut unknown = tiny_request();
    unknown.scene = "NOPE".into();
    let unknown = client
        .post_json("/v1/predict", &unknown.to_json())
        .expect("unknown scene");
    assert_eq!(unknown.status, 422);
    let nowhere = client.get("/v1/nowhere").expect("bad route");
    assert_eq!(nowhere.status, 400);

    handle.shutdown();
    let report = join.join().expect("server thread").expect("clean run");
    assert!(report.admitted >= 8, "{report:?}");
}

#[test]
fn sweep_endpoint_serves_history_shaped_points() {
    let (client, handle, join) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut req = zatel_proto::SweepRequest::new(
        "SPRNG",
        ConfigRef::preset("mobile"),
        zatel::SweepSpec::from_percents(&[0.2, 0.4]),
    );
    req.res = 32;
    req.spp = 1;
    req.seed = 7;
    // The document still carries the removed thread hints.
    req.hints = Some(zatel_proto::ExecutionHints::default());
    let resp = client
        .post_json("/v1/sweep", &with_removed_knobs(&req.to_json()))
        .expect("sweep");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let doc = resp.json().unwrap();
    let points = doc.get("points").and_then(Value::as_array).expect("points");
    assert_eq!(points.len(), 2);
    for point in points {
        assert_eq!(
            point.get("schema").and_then(Value::as_str),
            Some("zatel-sweep-v1")
        );
        assert!(point
            .get("prediction")
            .and_then(|p| p.get("GPU Sim Cycles"))
            .is_some());
    }
    handle.shutdown();
    join.join().expect("server thread").expect("clean run");
}

#[test]
fn graceful_drain_loses_no_queued_requests() {
    // One worker and a deep queue: enqueue several predictions, trigger
    // the drain while they are still queued, and require every response
    // to still arrive complete.
    let (client, handle, join) = boot(ServeConfig {
        workers: 1,
        queue: 16,
        ..ServeConfig::default()
    });
    let client = Arc::new(client);
    let mut inflight = Vec::new();
    for seed in 0..4u64 {
        let client = Arc::clone(&client);
        let mut req = tiny_request();
        req.seed = seed + 1;
        inflight.push(std::thread::spawn(move || {
            let resp = client
                .post_json("/v1/predict", &req.to_json())
                .expect("predict during drain");
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            PredictResponse::from_json(&resp.json().unwrap()).expect("parses")
        }));
    }
    // Let the requests reach the queue, then drain.
    std::thread::sleep(std::time::Duration::from_millis(100));
    handle.shutdown();
    let report = join.join().expect("server thread").expect("clean run");
    for request in inflight {
        let resp = request.join().expect("request thread");
        assert_eq!(resp.scene, "SPRNG");
    }
    assert_eq!(report.refused, 0, "{report:?}");
    assert_eq!(report.admitted, 4, "{report:?}");
    // The report is self-contained: status classes and the queue's peak
    // are in it, no /metrics scrape needed after shutdown.
    assert_eq!(report.responses_2xx, 4, "{report:?}");
    assert_eq!(report.responses_5xx, 0, "{report:?}");
    // Every admission raises the depth to at least 1 before a worker
    // can drain it.
    assert!(report.peak_queue_depth >= 1, "{report:?}");
}

#[test]
fn deadline_expired_requests_get_504() {
    let (client, handle, join) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut req = tiny_request();
    req.hints = Some(zatel_proto::ExecutionHints {
        deadline_ms: Some(0),
    });
    // Any queue wait exceeds a 0 ms budget; the worker must refuse
    // rather than burn simulation time on a caller that gave up.
    std::thread::sleep(std::time::Duration::from_millis(10));
    let resp = client
        .post_json("/v1/predict", &req.to_json())
        .expect("deadline predict");
    assert_eq!(resp.status, 504, "body: {}", resp.body);
    let doc = resp.json().unwrap();
    assert_eq!(
        doc.get("kind").and_then(Value::as_str),
        Some("deadline_exceeded")
    );
    // The refusal is machine-readable: the envelope reports how far past
    // its budget the request was (always negative on a 504).
    let envelope = zatel_proto::ErrorResponse::from_json(&doc).expect("504 parses");
    let slack = envelope
        .deadline_slack_ms
        .expect("504 carries deadline_slack_ms");
    assert!(
        slack < 0,
        "an expired budget reports negative slack: {slack}"
    );

    // The removed top-level spelling of the same budget is an unknown
    // field: the request is served as if it carried no deadline.
    let mut legacy = tiny_request().to_json();
    if let Value::Object(m) = &mut legacy {
        m.insert("deadline_ms".into(), Value::from(0u64));
    }
    let resp = client
        .post_json("/v1/predict", &legacy)
        .expect("legacy deadline predict");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    handle.shutdown();
    join.join().expect("server thread").expect("clean run");
}

#[test]
fn request_id_is_traceable_end_to_end() {
    let log_path =
        std::env::temp_dir().join(format!("zatel-serve-e2e-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let (client, handle, join) = boot(ServeConfig {
        workers: 1,
        log_out: Some(log_path.to_str().expect("utf-8 temp path").to_owned()),
        ..ServeConfig::default()
    });

    // Caller-supplied ID: echoed in the response header and stamped on
    // the run's span sheet.
    let resp = client
        .post_json_with_headers(
            "/v1/predict",
            &tiny_request().to_json(),
            &[("x-zatel-request-id", "e2e-trace-1")],
        )
        .expect("traced predict");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.header("x-zatel-request-id"), Some("e2e-trace-1"));
    let doc = resp.json().unwrap();
    let first_span = doc
        .get("spans")
        .and_then(Value::as_array)
        .and_then(|spans| spans.first())
        .and_then(|s| s.get("name"))
        .and_then(Value::as_str)
        .expect("span sheet present");
    assert_eq!(first_span, "request e2e-trace-1");

    // No caller ID: the server mints a req-... one and still echoes it.
    let plain = client
        .post_json("/v1/predict", &tiny_request().to_json())
        .expect("plain predict");
    let minted = plain
        .header("x-zatel-request-id")
        .expect("generated id echoed");
    assert!(minted.starts_with("req-"), "{minted}");

    // The debug ring retains the traced request: same ID, route, span
    // sheet and the exact zatel-log-v1 line.
    let slow = client.get("/v1/debug/slow").expect("debug slow");
    assert_eq!(slow.status, 200);
    let ring = zatel_proto::DebugSlowResponse::from_json(&slow.json().unwrap()).expect("ring doc");
    let entry = ring
        .entries
        .iter()
        .find(|e| e.request_id == "e2e-trace-1")
        .expect("traced request retained in the ring");
    assert_eq!(entry.route, "POST /v1/predict");
    assert_eq!(entry.status, 200);
    assert_eq!(entry.spans[0].name, "request e2e-trace-1");
    assert_eq!(
        entry.log.get("request_id").and_then(Value::as_str),
        Some("e2e-trace-1")
    );
    assert_eq!(
        entry.log.get("event").and_then(Value::as_str),
        Some("request")
    );
    assert!(
        entry
            .log
            .get("cache_hits")
            .and_then(Value::as_u64)
            .is_some(),
        "predict request lines carry per-stage cache-hit counts: {}",
        entry.log
    );

    handle.shutdown();
    join.join().expect("server thread").expect("clean run");

    // The JSONL log file carries the same ID (one line per request plus
    // the drain summary), each line valid zatel-log-v1 JSON.
    let log_text = std::fs::read_to_string(&log_path).expect("log file written");
    let mut saw_traced = false;
    let mut saw_drained = false;
    for line in log_text.lines() {
        let parsed = Value::parse(line).expect("every log line is valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some("zatel-log-v1")
        );
        if parsed.get("request_id").and_then(Value::as_str) == Some("e2e-trace-1") {
            saw_traced = true;
        }
        if parsed.get("event").and_then(Value::as_str) == Some("serve_drained") {
            saw_drained = true;
            assert!(parsed
                .get("responses_2xx")
                .and_then(Value::as_u64)
                .is_some());
            assert!(parsed
                .get("peak_queue_depth")
                .and_then(Value::as_u64)
                .is_some());
        }
    }
    assert!(saw_traced, "traced request line missing from {log_text}");
    assert!(saw_drained, "drain summary line missing from {log_text}");
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn logging_and_legacy_thread_knobs_never_change_the_deterministic_subset() {
    // Satellite of the determinism contract: a server with JSONL logging
    // serves byte-identical deterministic subsets to the unlogged
    // in-process pipeline — also for a `zatel-api-v1` document that still
    // carries the removed intra-simulation thread knobs, `hints.jobs`,
    // the engine trace slice width and `observe.max_timeline_events`
    // (unknown fields now, ignored by the parsers).
    let log_path =
        std::env::temp_dir().join(format!("zatel-serve-det-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let req = tiny_request();
    let expected = in_process_response(&req).deterministic_json().to_string();
    let mut hinted = req.clone();
    let mut options = zatel::ZatelOptions::default();
    options.observe = Some(obs::ObserveOptions { timeline: true });
    hinted.options = Some(options);
    hinted.hints = Some(zatel_proto::ExecutionHints::default());
    let legacy = with_removed_knobs(&hinted.to_json());
    assert!(legacy.to_string().contains("max_timeline_events"));

    let (client, handle, join) = boot(ServeConfig {
        workers: 1,
        log_out: Some(log_path.to_str().expect("utf-8 temp path").to_owned()),
        ..ServeConfig::default()
    });
    for body in [req.to_json(), legacy] {
        let resp = client
            .post_json_with_headers("/v1/predict", &body, &[("x-zatel-request-id", "det-check")])
            .expect("predict");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let got = PredictResponse::from_json(&resp.json().unwrap())
            .expect("parses")
            .deterministic_json()
            .to_string();
        assert_eq!(
            got, expected,
            "{body} with logging must not perturb results"
        );
    }
    handle.shutdown();
    join.join().expect("server thread").expect("clean run");
    let _ = std::fs::remove_file(&log_path);
}
