//! Fleet-shape end-to-end tests: single-flight dedup, affinity-shard
//! identity and computed backpressure — all over real sockets against a
//! booted server.

use std::sync::Arc;
use std::thread::JoinHandle;

use minijson::{FromJson, ToJson, Value};
use zatel_proto::{ConfigRef, PredictRequest, PredictResponse};
use zatel_serve::server::{ServeConfig, ServeReport, Server};
use zatel_serve::HttpClient;

/// Boots a server with `config` (addr forced to an ephemeral port),
/// returning a client for it, a drain handle and the join handle that
/// yields the final report.
fn boot(
    mut config: ServeConfig,
) -> (
    HttpClient,
    String,
    zatel_serve::server::ServeHandle,
    JoinHandle<Result<ServeReport, String>>,
) {
    config.addr = "127.0.0.1:0".into();
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let url = format!("http://{addr}");
    let client = HttpClient::new(&url).expect("client");
    (client, url, handle, join)
}

fn tiny_request(seed: u64) -> PredictRequest {
    let mut req = PredictRequest::new("SPRNG", ConfigRef::preset("mobile"));
    req.res = 32;
    req.spp = 1;
    req.seed = seed;
    req
}

/// A request slow enough (~0.7 s optimized, several seconds unoptimized) to
/// pin the single shard worker while the test stacks jobs up behind it.
fn plug_request() -> PredictRequest {
    let mut req = PredictRequest::new("WKND", ConfigRef::preset("mobile"));
    req.res = 128;
    req.spp = 4;
    req.seed = 999;
    req
}

/// Reads one `zatel_serve_*` counter off a `/metrics` scrape.
fn scrape(client: &HttpClient, name: &str) -> u64 {
    let body = client.get("/metrics").expect("metrics").body;
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let rest = l.strip_prefix(name)?;
            rest.trim().parse::<f64>().ok()
        })
        .unwrap_or(0.0) as u64
}

#[test]
fn identical_concurrent_requests_coalesce_onto_one_execution() {
    // One shard: a slow plug pins the worker, then four identical
    // requests and two distinct ones stack up in its queue. The worker
    // must serve the identical four with a single execution and the
    // distinct two with one each.
    let (client, _url, handle, join) = boot(ServeConfig {
        workers: 1,
        queue: 16,
        ..ServeConfig::default()
    });
    let client = Arc::new(client);

    let plug = {
        let client = Arc::clone(&client);
        std::thread::spawn(move || {
            let resp = client
                .post_json("/v1/predict", &plug_request().to_json())
                .expect("plug");
            assert_eq!(resp.status, 200, "body: {}", resp.body);
        })
    };
    // Let the worker collect the plug before the batch arrives.
    std::thread::sleep(std::time::Duration::from_millis(200));

    let mut identical = Vec::new();
    for _ in 0..4 {
        let client = Arc::clone(&client);
        identical.push(std::thread::spawn(move || {
            let resp = client
                .post_json("/v1/predict", &tiny_request(9).to_json())
                .expect("identical predict");
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            (
                resp.body.clone(),
                resp.header("x-zatel-shard").map(str::to_owned),
            )
        }));
    }
    let mut distinct = Vec::new();
    for seed in [21, 22] {
        let client = Arc::clone(&client);
        distinct.push(std::thread::spawn(move || {
            let resp = client
                .post_json("/v1/predict", &tiny_request(seed).to_json())
                .expect("distinct predict");
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            resp.body.clone()
        }));
    }

    let bodies: Vec<(String, Option<String>)> = identical
        .into_iter()
        .map(|t| t.join().expect("identical thread"))
        .collect();
    let distinct_bodies: Vec<String> = distinct
        .into_iter()
        .map(|t| t.join().expect("distinct thread"))
        .collect();
    plug.join().expect("plug thread");

    // Coalesced responses are byte-identical — they ARE the leader's
    // bytes — and every one names the shard that answered it.
    for (body, shard) in &bodies {
        assert_eq!(body, &bodies[0].0, "coalesced bodies must be identical");
        assert_eq!(shard.as_deref(), Some("0"), "single-shard fleet");
    }
    assert_ne!(distinct_bodies[0], distinct_bodies[1]);

    // Execution accounting pins single-flight: 7 requests (plug + 4
    // identical + 2 distinct) but only 4 pipeline executions; the other
    // 3 rode the identical leader.
    assert_eq!(scrape(&client, "zatel_serve_predict_requests"), 4);
    assert_eq!(scrape(&client, "zatel_serve_coalesced_requests"), 3);
    assert_eq!(scrape(&client, "zatel_serve_shard0_coalesced"), 3);
    assert_eq!(scrape(&client, "zatel_serve_shard0_executed"), 4);

    handle.shutdown();
    let report = join.join().expect("server thread").expect("clean run");
    assert_eq!(report.coalesced, 3, "{report:?}");
    assert_eq!(report.refused, 0, "{report:?}");
    // 7 predicts + the 4 /metrics scrapes this test just made.
    assert_eq!(report.responses_2xx, 11, "{report:?}");
}

#[test]
fn shard_count_and_dedup_never_change_the_deterministic_subset() {
    // The same request served by a 1-shard fleet, a 4-shard fleet and a
    // 4-shard fleet it opts out of single-flight on must produce
    // byte-identical deterministic subsets — shard routing and
    // single-flight are pure execution topology.
    let mut subsets = Vec::new();
    for (workers, no_dedup) in [(1, false), (4, false), (4, true)] {
        let mut req = tiny_request(7);
        if no_dedup {
            req.hints = Some(zatel_proto::ExecutionHints {
                no_dedup: true,
                ..Default::default()
            });
        }
        let (client, _url, handle, join) = boot(ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        let resp = client
            .post_json("/v1/predict", &req.to_json())
            .expect("predict");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let parsed = PredictResponse::from_json(&resp.json().unwrap()).expect("parses");
        subsets.push(parsed.deterministic_json().to_string());
        handle.shutdown();
        let report = join.join().expect("server thread").expect("clean run");
        if no_dedup {
            assert_eq!(report.coalesced, 0, "{report:?}");
        }
    }
    assert_eq!(subsets[0], subsets[1], "1 vs 4 shards");
    assert_eq!(subsets[0], subsets[2], "dedup on vs off");
}

#[test]
fn saturated_queue_answers_429_with_computed_retry_after() {
    // Queue depth 1 and a pinned worker: concurrent requests beyond the
    // bound must see 429 with a Retry-After estimated from the backlog.
    let (client, _url, handle, join) = boot(ServeConfig {
        workers: 1,
        queue: 1,
        ..ServeConfig::default()
    });
    let client = Arc::new(client);
    let plug = {
        let client = Arc::clone(&client);
        std::thread::spawn(move || {
            let resp = client
                .post_json("/v1/predict", &plug_request().to_json())
                .expect("plug");
            assert_eq!(resp.status, 200, "body: {}", resp.body);
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(200));

    let mut floods = Vec::new();
    for seed in 0..6u64 {
        let client = Arc::clone(&client);
        floods.push(std::thread::spawn(move || {
            let resp = client
                .post_json("/v1/predict", &tiny_request(100 + seed).to_json())
                .expect("flood predict");
            let retry_after = resp.header("retry-after").map(str::to_owned);
            let body = resp.json().ok();
            (resp.status, retry_after, body)
        }));
    }
    let outcomes: Vec<(u16, Option<String>, Option<Value>)> = floods
        .into_iter()
        .map(|t| t.join().expect("flood thread"))
        .collect();
    plug.join().expect("plug thread");

    let refused: Vec<_> = outcomes
        .iter()
        .filter(|(status, ..)| *status == 429)
        .collect();
    assert!(
        !refused.is_empty(),
        "a 1-deep queue under 6 concurrent requests must refuse some: {outcomes:?}"
    );
    for (_, retry_after, body) in &refused {
        let secs: u64 = retry_after
            .as_deref()
            .expect("429 carries Retry-After")
            .parse()
            .expect("Retry-After is integral seconds");
        assert!((1..=60).contains(&secs), "Retry-After {secs} out of range");
        // The refusal envelope is machine-readable without header
        // parsing: the body carries the same estimate in milliseconds.
        let envelope = zatel_proto::ErrorResponse::from_json(
            body.as_ref().expect("429 body is a zatel-api-v1 document"),
        )
        .expect("429 body parses as ErrorResponse");
        assert_eq!(envelope.kind.tag(), "overloaded");
        assert_eq!(
            envelope.retry_after_ms,
            Some(secs * 1000),
            "body retry_after_ms must mirror the Retry-After header"
        );
    }

    handle.shutdown();
    let report = join.join().expect("server thread").expect("clean run");
    assert_eq!(report.refused, refused.len() as u64, "{report:?}");
    assert!(report.peak_queue_depth <= 1, "{report:?}");
}

#[test]
fn no_dedup_hint_opts_requests_out_of_single_flight() {
    // Same shape as the coalescing test, but every identical request
    // hints `no_dedup`: the worker must execute each one itself — zero
    // coalescing — while the responses stay byte-identical anyway on the
    // deterministic subset (the hint is execution-only).
    let (client, _url, handle, join) = boot(ServeConfig {
        workers: 1,
        queue: 16,
        ..ServeConfig::default()
    });
    let client = Arc::new(client);

    let plug = {
        let client = Arc::clone(&client);
        std::thread::spawn(move || {
            let resp = client
                .post_json("/v1/predict", &plug_request().to_json())
                .expect("plug");
            assert_eq!(resp.status, 200, "body: {}", resp.body);
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(200));

    let mut opted_out = Vec::new();
    for _ in 0..3 {
        let client = Arc::clone(&client);
        opted_out.push(std::thread::spawn(move || {
            let mut req = tiny_request(9);
            req.hints = Some(zatel_proto::ExecutionHints {
                no_dedup: true,
                ..Default::default()
            });
            let resp = client
                .post_json("/v1/predict", &req.to_json())
                .expect("no_dedup predict");
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            PredictResponse::from_json(&resp.json().unwrap())
                .expect("parses")
                .deterministic_json()
                .to_string()
        }));
    }
    let subsets: Vec<String> = opted_out
        .into_iter()
        .map(|t| t.join().expect("no_dedup thread"))
        .collect();
    plug.join().expect("plug thread");

    for subset in &subsets {
        assert_eq!(
            subset, &subsets[0],
            "no_dedup runs still agree on the deterministic subset"
        );
    }
    // 4 requests (plug + 3 opted out), 4 executions, nothing coalesced.
    assert_eq!(scrape(&client, "zatel_serve_predict_requests"), 4);
    assert_eq!(scrape(&client, "zatel_serve_coalesced_requests"), 0);
    assert_eq!(scrape(&client, "zatel_serve_shard0_executed"), 4);

    handle.shutdown();
    let report = join.join().expect("server thread").expect("clean run");
    assert_eq!(report.coalesced, 0, "{report:?}");
}
