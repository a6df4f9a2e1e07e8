//! Worker-pool end-to-end tests: worker-count identity, computed
//! backpressure, refusals that survive a drain and a worker that serves on
//! after an invalid request — all over real sockets against a booted
//! server.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
/// pin the single worker while the test stacks jobs up behind it.
fn plug_request() -> PredictRequest {
    let mut req = PredictRequest::new("WKND", ConfigRef::preset("mobile"));
    req.res = 128;
    req.spp = 4;
    req.seed = 999;
    req
}

/// The value of the series `name` in a `/metrics` body, if it has one.
fn sample(metrics: &str, name: &str) -> Option<u64> {
    metrics
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let rest = l.strip_prefix(name)?;
            rest.trim().parse::<f64>().ok()
        })
        .map(|v| v as u64)
}

/// Reads one `zatel_serve_*` counter off a `/metrics` scrape.
fn scrape(client: &HttpClient, name: &str) -> u64 {
    sample(&client.get("/metrics").expect("metrics").body, name).unwrap_or(0)
}

#[test]
fn worker_count_never_changes_the_deterministic_subset() {
    // The same request served by a 1-worker and a 4-worker server must
    // produce byte-identical deterministic subsets — the pool is pure
    // execution topology.
    let mut subsets = Vec::new();
    for workers in [1, 4] {
        let (client, _url, handle, join) = boot(ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        let resp = client
            .post_json("/v1/predict", &tiny_request(7).to_json())
            .expect("predict");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let parsed = PredictResponse::from_json(&resp.json().unwrap()).expect("parses");
        subsets.push(parsed.deterministic_json().to_string());
        handle.shutdown();
        join.join().expect("server thread").expect("clean run");
    }
    assert_eq!(subsets[0], subsets[1], "1 vs 4 workers");
}

#[test]
fn a_disk_budgeted_pool_shares_one_cache() {
    // Four workers over one memory tier and a size-budgeted disk tier:
    // seeds 7 8 7 8, so each repeat hits memory whichever worker serves it.
    let dir = std::env::temp_dir().join(format!("zatel-serve-pool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (client, _url, handle, join) = boot(ServeConfig {
        workers: 4,
        cache_dir: Some(dir.to_str().expect("utf-8 temp path").to_owned()),
        cache_budget_mb: Some(64),
        ..ServeConfig::default()
    });
    for seed in [7, 8, 7, 8] {
        let mut req = tiny_request(seed);
        req.res = 64;
        let resp = client
            .post_json("/v1/predict", &req.to_json())
            .expect("predict");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
    }
    let metrics = client.get("/metrics").expect("metrics").body;
    let series = |name| sample(&metrics, name);
    assert!(
        series("zatel_serve_cache_memory_hits") >= Some(1),
        "{metrics}"
    );
    assert!(series("zatel_serve_cache_disk_hits").is_some(), "{metrics}");
    assert!(
        series("zatel_serve_cache_disk_bytes").is_some(),
        "{metrics}"
    );
    assert!(
        series("zatel_serve_cache_disk_entries") >= Some(1),
        "{metrics}"
    );
    // The cache dir is writable: no artifact write failed.
    assert_eq!(
        series("zatel_serve_cache_disk_write_failures"),
        Some(0),
        "{metrics}"
    );

    handle.shutdown();
    join.join().expect("server thread").expect("clean run");
    let _ = std::fs::remove_dir_all(&dir);
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

/// Sends a bare `GET /healthz` on `stream`.
fn healthz(stream: &mut TcpStream) {
    let request = "GET /healthz HTTP/1.1\r\nHost: zatel\r\nContent-Length: 0\r\n\r\n";
    stream.write_all(request.as_bytes()).expect("send request");
}

/// The start of the answer on `stream`; on a nonblocking socket, what has
/// already arrived.
fn answer(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf)?;
    Ok(buf[..n].to_vec())
}

#[test]
fn drain_waits_for_a_refusal_still_being_written() {
    // A fills the one-deep queue by sending nothing, so B and C are refused
    // (accept is first come, first served). A refusal writer drains the
    // request before answering: C's 429 proves B's writer is running, and
    // B sends its request only 200 ms after connecting — after the drain
    // began. `run` must not return before the 429 is on B's socket.
    let (_client, url, handle, join) = boot(ServeConfig {
        workers: 1,
        queue: 1,
        ..ServeConfig::default()
    });
    let addr = url.trim_start_matches("http://");
    let holder = TcpStream::connect(addr).expect("connect A");
    let mut refused = TcpStream::connect(addr).expect("connect B");
    let sender = {
        let mut refused = refused.try_clone().expect("clone B");
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            healthz(&mut refused);
        })
    };
    let mut barrier = TcpStream::connect(addr).expect("connect C");
    healthz(&mut barrier);
    let c = answer(&mut barrier).expect("C's answer");
    assert!(c.starts_with(b"HTTP/1.1 429"), "C: {c:?}");
    handle.shutdown();
    // A never sends: closing it lets its router finish.
    drop(holder);
    let report = join.join().expect("server thread").expect("clean run");
    refused.set_nonblocking(true).expect("nonblocking");
    match answer(&mut refused) {
        Ok(b) => assert!(b.starts_with(b"HTTP/1.1 429"), "B: {b:?}"),
        Err(e) if e.kind() == ErrorKind::WouldBlock => {
            panic!("run returned before B's 429 was written")
        }
        Err(e) => panic!("reading B's answer: {e}"),
    }
    sender.join().expect("sender thread");
    assert_eq!(report.refused, 2, "{report:?}");
}

#[test]
fn image_too_small_for_k_groups_answers_422() {
    // `res: 2` passes `validate()`, but its one fine chunk cannot give each
    // of the Mobile SoC's K = 4 groups a pixel: the client's input, so a
    // typed 422 naming the numbers, and the worker goes on serving.
    let (client, _url, handle, join) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut small = tiny_request(7);
    small.res = 2;
    let resp = client
        .post_json("/v1/predict", &small.to_json())
        .expect("small predict is answered");
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    let envelope = zatel_proto::ErrorResponse::from_json(&resp.json().unwrap())
        .expect("422 body parses as ErrorResponse");
    assert_eq!(envelope.kind.tag(), "unprocessable");
    assert!(
        envelope
            .error
            .contains("a 2x2 image divides into 1 chunk(s)")
            && envelope.error.contains("K = 4"),
        "{}",
        envelope.error
    );

    let resp = client
        .post_json("/v1/predict", &tiny_request(7).to_json())
        .expect("predict after the refusal");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(scrape(&client, "zatel_serve_http_responses_500"), 0);

    handle.shutdown();
    let report = join.join().expect("server thread").expect("clean run");
    assert_eq!(report.responses_5xx, 0, "{report:?}");
}

#[test]
fn zero_sized_chunk_answers_400_and_its_worker_serves_on() {
    // A zero-width division chunk is invalid options: on a 1-worker
    // server it is answered 400 under the request's id, and the same
    // worker then serves a valid request.
    let (client, _url, handle, join) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut invalid = tiny_request(7);
    let mut options = zatel::ZatelOptions::default();
    options.division = zatel::DivisionMethod::Fine {
        chunk_width: 0,
        chunk_height: 2,
    };
    invalid.options = Some(options);
    let resp = client
        .post_json_with_headers(
            "/v1/predict",
            &invalid.to_json(),
            &[("x-zatel-request-id", "zero-chunk-1")],
        )
        .expect("invalid predict is answered");
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    assert_eq!(resp.header("x-zatel-request-id"), Some("zero-chunk-1"));
    let envelope = zatel_proto::ErrorResponse::from_json(&resp.json().unwrap())
        .expect("400 body parses as ErrorResponse");
    assert_eq!(envelope.kind.tag(), "bad_request");
    assert!(envelope.error.contains("chunk"), "{}", envelope.error);

    let resp = client
        .post_json("/v1/predict", &tiny_request(7).to_json())
        .expect("predict after the invalid one");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(scrape(&client, "zatel_serve_predict_errors"), 1);
    assert_eq!(scrape(&client, "zatel_serve_http_responses_500"), 0);

    handle.shutdown();
    let report = join.join().expect("server thread").expect("clean run");
    assert_eq!(report.responses_5xx, 0, "{report:?}");
}
