//! `serve-mix`: a closed loop of two clients against an in-process
//! `zatel serve`, four fifths memory-tier hits and one fifth misses.
//!
//! Closed, not open: the service's callers (`zatel predict --url`, sweeps)
//! each wait for their reply before sending again, so a slow server
//! receives less load. There is therefore no fixed-rate sweep.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::layers::{
    cache_probes, check_served, decompose_predict, full_sim, predict, proto_probes, start_server,
    Cache, Client, LiveServer, Request,
};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::workloads::{
    decomposition_layers, finish_trace, hot_literal, same, serve_literal, Layers, RunArgs, Sizing,
    TempDir, WorkloadResult, CLIENTS, HOT_SHAPES,
};

/// One answered request of the closed loop.
struct Served {
    hot: Option<u64>,
    request: Request,
    start_s: f64,
    end_s: f64,
    outcome: Result<(u16, String), String>,
}

/// How long the closed loop runs.
enum Until {
    Requests(u64),
    Seconds(f64),
}

/// [`CLIENTS`] threads, each sending its next request only after the
/// previous one was answered; requests come off one shared counter, so
/// the stream's order is the seed's. `first` offsets into the stream.
fn closed_loop(
    server: &LiveServer,
    seed: u64,
    sizing: &Sizing,
    first: u64,
    until: &Until,
    mut traces: Option<&mut Vec<Recorder>>,
) -> Result<Vec<Served>, String> {
    let next = AtomicU64::new(first);
    let epoch = Instant::now();
    let clients = (0..CLIENTS)
        .map(|_| server.client())
        .collect::<Result<Vec<Client>, _>>()?;
    let client_loop = |client: &Client, mut rec: Option<Recorder>| {
        let mut served = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let done = match until {
                Until::Requests(n) => index - first >= *n,
                Until::Seconds(s) => epoch.elapsed().as_secs_f64() >= *s,
            };
            if done {
                return (served, rec);
            }
            let (text, hot) = serve_literal(seed, index, sizing);
            let request = match Request::parse(&text) {
                Ok(request) => request,
                // The generator only emits valid literals; a parse error
                // here is a bug in it and fails the whole run below.
                Err(e) => panic!("generated an invalid request: {e}"),
            };
            let start_s = epoch.elapsed().as_secs_f64();
            let outcome = match rec.as_mut() {
                Some(rec) => rec.scope("serve.request", index as u32, |_| client.predict(&request)),
                None => client.predict(&request),
            };
            served.push(Served {
                hot,
                request,
                start_s,
                end_s: epoch.elapsed().as_secs_f64(),
                outcome,
            });
        }
    };
    let mut all = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|client| {
                let rec = traces.is_some().then(Recorder::new);
                scope.spawn(move || client_loop(client, rec))
            })
            .collect();
        for handle in handles {
            let (served, rec) = handle
                .join()
                .map_err(|_| "a client thread panicked".to_owned())?;
            all.extend(served);
            if let (Some(traces), Some(rec)) = (traces.as_deref_mut(), rec) {
                traces.push(rec);
            }
        }
        Ok::<(), String>(())
    })?;
    all.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    Ok(all)
}

/// What serve-mix's set-up leaves behind.
struct ServePrepared {
    dir: TempDir,
    server: LiveServer,
    /// Deterministic subset of each hot shape, computed in-process.
    expected: Vec<String>,
    hot_requests: Vec<Request>,
    mae: Vec<f64>,
}

/// One serve-mix set-up: compute each hot shape in-process (expected
/// answer and `mae_pct` reference), start the server on an empty cache
/// directory, and send the warm-up stream, which begins with every hot
/// shape so the memory tiers hold them.
fn prepare_serve(args: &RunArgs) -> Result<ServePrepared, String> {
    let sizing = &args.sizing;
    let mut expected = Vec::new();
    let mut hot_requests = Vec::new();
    let mut mae = Vec::new();
    for shape in 0..HOT_SHAPES {
        let request = Request::parse(&hot_literal(args.seed, shape, sizing))?;
        let predicted = predict(&request, &Cache::cold())?;
        predicted.check(&request)?;
        mae.push(predicted.mae_vs(&full_sim(&request)?));
        expected.push(predicted.deterministic());
        hot_requests.push(request);
    }
    let dir = TempDir::create(&args.out_dir, "serve")?;
    let server = start_server(&dir.0)?;
    let client = server.client()?;
    for (request, want) in hot_requests.iter().zip(&expected) {
        let (status, body) = client.predict(request)?;
        if status != 200 {
            return Err(format!("warm-up of {}: HTTP {status}", request.label));
        }
        let (got, _) = check_served(&body, request)?;
        same(&got, want, &request.label)?;
    }
    // Warm-up indices sit far above any index the timed loop reaches.
    let warm = closed_loop(
        &server,
        args.seed,
        sizing,
        1 << 40,
        &Until::Requests(sizing.serve_warmup),
        None,
    )?;
    if let Some(bad) = warm.iter().find(|s| !matches!(s.outcome, Ok((200, _)))) {
        return Err(format!("warm-up request failed: {:?}", bad.outcome));
    }
    Ok(ServePrepared {
        dir,
        server,
        expected,
        hot_requests,
        mae,
    })
}

/// Checks every answer of a loop and returns the simulated cycles of each.
fn check_loop(served: &[Served], expected: &[String], result: &mut WorkloadResult) -> Vec<u64> {
    served
        .iter()
        .map(|s| {
            result.attempted += 1;
            let verdict = match &s.outcome {
                Ok((200, body)) => {
                    check_served(body, &s.request).and_then(|(got, cycles)| match s.hot {
                        Some(shape) => {
                            same(&got, &expected[shape as usize], &s.request.label).map(|()| cycles)
                        }
                        None => Ok(cycles),
                    })
                }
                Ok((status, _)) => Err(format!("{}: HTTP {status}", s.request.label)),
                Err(e) => Err(format!("{}: {e}", s.request.label)),
            };
            verdict.unwrap_or_else(|e| {
                result.fail(e);
                0
            })
        })
        .collect()
}

fn latencies_ms(served: &[Served]) -> Vec<f64> {
    served.iter().map(|s| (s.end_s - s.start_s) * 1e3).collect()
}

pub(crate) fn run(args: &RunArgs) -> Result<WorkloadResult, String> {
    let sizing = &args.sizing;
    let mut result = WorkloadResult::default();
    let reps = if args.trace { 1 } else { sizing.setup_reps };
    let mut setup_s = Vec::with_capacity(reps);
    let mut prepared = None;
    for _ in 0..reps {
        // The previous repetition's server is drained and its directory
        // deleted before the next one starts, outside the timed set-up.
        if let Some(ServePrepared { server, dir, .. }) = prepared.take() {
            server.stop()?;
            drop(dir);
        }
        let start = Instant::now();
        prepared = Some(prepare_serve(args)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.ok_or("setup_reps must be at least 1")?;

    let until = match sizing.fixed {
        Some((_, requests)) => Until::Requests(requests),
        // A traced run splits its time between the two loops.
        None if args.trace => Until::Seconds(args.seconds / 3.0),
        None => Until::Seconds(args.seconds),
    };
    let served = closed_loop(&prepared.server, args.seed, sizing, 0, &until, None)?;
    let cycles = check_loop(&served, &prepared.expected, &mut result);
    let first_start = served
        .iter()
        .map(|s| s.start_s)
        .fold(f64::INFINITY, f64::min);
    let timed_wall = served.last().map_or(0.0, |s| s.end_s) - first_start;

    // A pass is a block of `serve_block` answers in completion order.
    let block = sizing.serve_block.min(served.len()).max(1);
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut block_start = first_start;
    for (answers, block_cycles) in served.chunks_exact(block).zip(cycles.chunks_exact(block)) {
        let end = answers[block - 1].end_s;
        walls.push(end - block_start);
        rates.push(block_cycles.iter().sum::<u64>() as f64 / (end - block_start) / 1e6);
        block_start = end;
    }
    if walls.is_empty() {
        return Err("serve-mix answered no request in the timed region".to_owned());
    }
    let latency = latencies_ms(&served);
    let ok = served.len() as u64 - result.failed;
    result.passes = walls.len();
    result.operations = served.len();
    result.end_to_end = BTreeMap::from([
        ("setup_s".to_owned(), median(&setup_s)),
        ("wall_s".to_owned(), median(&walls)),
        // Over the whole timed region: one block's cycles swing with its
        // mix of shapes.
        (
            "sim_mcycles_per_s".to_owned(),
            cycles.iter().sum::<u64>() as f64 / timed_wall / 1e6,
        ),
        (
            "mae_pct".to_owned(),
            100.0 * prepared.mae.iter().sum::<f64>() / prepared.mae.len() as f64,
        ),
        ("req_per_s".to_owned(), ok as f64 / timed_wall),
        ("req_p50_ms".to_owned(), median(&latency)),
        ("req_p95_ms".to_owned(), percentile(&latency, 95.0)),
    ]);
    result.samples.insert("setup_s".to_owned(), setup_s);
    result.samples.insert("wall_s".to_owned(), walls);
    result.samples.insert("sim_mcycles_per_s".to_owned(), rates);

    let ServePrepared {
        dir,
        server,
        expected,
        hot_requests,
        ..
    } = prepared;
    if args.trace {
        trace(
            args,
            &server,
            &expected,
            &hot_requests,
            &served,
            &dir,
            &mut result,
        )?;
    }
    let counts = server.stop()?;
    if args.trace {
        result.per_layer.extend([
            ("serve.refused_429".to_owned(), counts.refused_429 as f64),
            (
                "serve.queue_depth_peak".to_owned(),
                counts.queue_depth_peak as f64,
            ),
            ("serve.coalesced".to_owned(), counts.coalesced as f64),
        ]);
    }
    if counts.responses_other > 0 {
        result.fail(format!(
            "the server answered {} requests with a 4xx or 5xx status",
            counts.responses_other
        ));
    }
    Ok(result)
}

/// The value of `name` in a Prometheus text exposition.
fn prometheus_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (key, value) = l.split_once(' ')?;
            (key == name).then(|| value.trim().parse::<f64>().ok())?
        })
        .unwrap_or(0.0)
}

/// The traced part of serve-mix: a second closed loop with a span around
/// every request, the admin endpoints, the in-process floor, and the
/// layers a miss goes through re-performed step by step.
fn trace(
    args: &RunArgs,
    server: &LiveServer,
    expected: &[String],
    hot_requests: &[Request],
    untraced: &[Served],
    dir: &TempDir,
    result: &mut WorkloadResult,
) -> Result<(), String> {
    let sizing = &args.sizing;
    let mut layers = Layers::new();
    let until = match sizing.fixed {
        Some((_, requests)) => Until::Requests(requests),
        None => Until::Seconds(args.seconds / 3.0),
    };
    let mut traces = Vec::new();
    let traced = closed_loop(
        server,
        args.seed,
        sizing,
        untraced.len() as u64 + CLIENTS as u64,
        &until,
        Some(&mut traces),
    )?;
    check_loop(&traced, expected, result);
    let untraced_p50 = median(&latencies_ms(untraced));
    let overhead = 100.0 * (median(&latencies_ms(&traced)) - untraced_p50) / untraced_p50;

    let by_kind = |hot: bool| -> Vec<f64> {
        untraced
            .iter()
            .chain(&traced)
            .filter(|s| s.hot.is_some() == hot)
            .map(|s| (s.end_s - s.start_s) * 1e3)
            .collect()
    };
    let (hits, misses) = (by_kind(true), by_kind(false));
    layers.insert(
        "serve.hit_p50_ms",
        if hits.is_empty() { 0.0 } else { median(&hits) },
    );
    layers.insert(
        "serve.miss_p50_ms",
        if misses.is_empty() {
            0.0
        } else {
            median(&misses)
        },
    );

    // The in-process floor: the same hot request through a warm cache.
    let warm = Cache::cold();
    predict(&hot_requests[0], &warm)?;
    let floor: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            let outcome = predict(&hot_requests[0], &warm);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            outcome.map(|_| ms)
        })
        .collect::<Result<_, _>>()?;
    layers.insert("serve.execute_predict_hit_ms", median(&floor));
    layers.insert("serve.http_overhead_ms", untraced_p50 - median(&floor));

    let client = server.client()?;
    let rtt: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            let (status, _) = client.get("/healthz")?;
            if status == 200 {
                Ok(start.elapsed().as_secs_f64() * 1e6)
            } else {
                Err(format!("GET /healthz: HTTP {status}"))
            }
        })
        .collect::<Result<_, String>>()?;
    layers.insert("serve.healthz_rtt_us", median(&rtt));
    let (status, exposition) = client.get("/metrics")?;
    if status != 200 {
        return Err(format!("GET /metrics: HTTP {status}"));
    }
    let hit = prometheus_value(&exposition, "zatel_serve_cache_memory_hits")
        + prometheus_value(&exposition, "zatel_serve_cache_disk_hits");
    let miss = prometheus_value(&exposition, "zatel_serve_cache_misses");
    layers.insert("serve.cache_hit_ratio", hit / (hit + miss).max(1.0));
    layers.insert(
        "zatel.cache_disk_evictions",
        prometheus_value(&exposition, "zatel_serve_cache_disk_evictions"),
    );

    layers.extend(cache_probes(&hot_requests[0], &dir.0.join("probe"), 12)?);
    let predicted = predict(&hot_requests[0], &Cache::cold())?;
    layers.extend(proto_probes(&hot_requests[0], &predicted)?);

    // What a miss costs inside the worker, one hot shape of each scene.
    let mut rec = Recorder::new();
    let mut ops = Vec::new();
    for (op, request) in hot_requests.iter().take(2).enumerate() {
        let d = decompose_predict(request, op as u32, &mut rec)?;
        result.attempted += 1;
        let black_box = predict(request, &Cache::cold())?;
        let exact = black_box.deterministic() == expected[op]
            && d.values
                .iter()
                .zip(black_box.values())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !exact {
            result.fail(format!(
                "{}: the step-by-step run does not reproduce the black-box metric vector",
                request.label
            ));
        }
        ops.push(d);
    }
    decomposition_layers(&rec, &ops, &mut layers);

    let events: Vec<String> = traces
        .iter()
        .chain([&rec])
        .enumerate()
        .flat_map(|(tid, rec)| rec.chrome_events(tid as u32 + 1))
        .collect();
    finish_trace(args, &events, overhead, layers, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_lines_parse() {
        let text = "# HELP x\n# TYPE x counter\nzatel_serve_cache_misses 12\nzatel_serve_x 1.5\n";
        assert_eq!(prometheus_value(text, "zatel_serve_cache_misses"), 12.0);
        assert_eq!(prometheus_value(text, "zatel_serve_x"), 1.5);
        assert_eq!(prometheus_value(text, "absent"), 0.0);
    }
}
