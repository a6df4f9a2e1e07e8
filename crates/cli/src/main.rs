//! `zatel` — command-line front end for the Zatel prediction pipeline.
//! `zatel help` lists every command with its options, `zatel <command>
//! --help` one command's.
//!
//! All progress and diagnostic output goes to **stderr**; stdout carries
//! only the result (tables, or JSON with `--json`), so piping into tools
//! is always safe.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod args;

use std::process::ExitCode;

use args::{Args, Command, Opt};
use gpusim::GpuConfig;
use minijson::{json, FromJson, ToJson};
use obs::ObserveOptions;
use rtcore::tracer::TraceConfig;
use zatel::{
    Distribution, DivisionMethod, DownscaleMode, StageCacheRecord, SweepPointSpec, ZatelOptions,
};
use zatel_cli::report;
use zatel_proto::{
    ConfigRef, PointRecord, PredictRequest, PredictResponse, RunRecord, SweepRequest,
};
use zatel_serve::server::{ServeConfig, Server};
use zatel_serve::HttpClient;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || args::is_help(&argv[0]) {
        print_help();
        return ExitCode::SUCCESS;
    }
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let args = Args::parse(&COMMANDS, argv)?;
    if args.help {
        print!("{}", args.command.usage());
        return Ok(());
    }
    (args.command.run)(&args)
}

const SCENE: Opt = (
    "--scene NAME",
    "benchmark scene (default PARK; see 'zatel scenes')",
);
const SEED: Opt = ("--seed N", "master seed (default 42)");

/// The options `predict` and `sweep` share: the request [`run_request`]
/// reads.
#[rustfmt::skip]
const RUN: &[Opt] = &[
    SCENE,
    ("--config NAME|FILE", "mobile | rtx2060 | path to a GpuConfig JSON (default mobile)"),
    ("--res N", "square image resolution (default 128)"),
    ("--spp N", "samples per pixel (default 2)"),
    SEED,
    ("--percent F", "fixed traced fraction in (0,1] instead of Eq.(1)"),
    ("--cap F", "upper bound applied after Eq.(1)"),
    ("--k N", "explicit downscale factor (default: gcd rule)"),
    ("--no-downscale", "single group on the full GPU (not with --k)"),
    ("--division KIND", "fine | coarse (default fine)"),
    ("--dist KIND", "uniform | lintmp | exptmp (default uniform)"),
    ("--jobs N", "worker threads; a spare one builds the BVH, profiles and decodes ahead (default: host cores)"),
    ("--reference", "also run the full simulation and report errors"),
    ("--json", "emit machine-readable JSON instead of tables"),
];

/// Each subcommand with the options it reads, in `zatel help` order; its
/// usage lists them as written here.
#[rustfmt::skip]
static COMMANDS: [Command; 7] = [
    Command {
        name: "scenes",
        about: "list the benchmark scenes with their primitive counts",
        options: &[],
        run: cmd_scenes,
    },
    Command {
        name: "configs",
        about: "print the GPU configuration presets (mobile, rtx2060) as JSON",
        options: &[],
        run: cmd_configs,
    },
    Command {
        name: "predict",
        about: "predict one scene's metrics on a GPU configuration",
        options: &[RUN, &[
            ("--regression", "extrapolate via 20/30/40% exponential regression"),
            ("--progress", "per-group progress lines + phase counts by class (stderr)"),
            ("--trace-out FILE", "write a Perfetto/Chrome-trace JSON timeline of the run"),
            ("--run-out FILE", "persist a zatel-run-v2 record (request, response"),
            ("", "and heatmap) for 'zatel report --run'"),
            ("--request-id ID", "tag the run with a caller-chosen request ID"),
            ("", "(default: a generated req-... ID); with --url the"),
            ("", "ID travels as the x-zatel-request-id header"),
            ("--log-out DEST", "emit one zatel-log-v1 JSONL line for the run to"),
            ("", "DEST ('-' or 'stderr' for stderr, else a file)"),
            ("--url URL", "send the request to a 'zatel serve' instance at"),
            ("", "http://host:port instead of running locally; the"),
            ("", "output is identical to local mode"),
        ]],
        run: cmd_predict,
    },
    Command {
        name: "sweep",
        about: "predict a matrix of points through one artifact cache",
        options: &[RUN, &[
            ("--ks LIST", "comma-separated downscale factors, e.g. 1,2,4"),
            ("--percents LIST", "comma-separated traced fractions, e.g. 0.1,0.3,0.6"),
            ("--spec FILE", "sweep-spec JSON instead of the --ks/--percents matrix"),
            ("--cache-dir DIR", "keep profiled heatmaps on disk (warm reruns skip"),
            ("", "heatmap profiling)"),
            ("--runs-out FILE", "append one zatel-sweep-v1 JSON line per point"),
            ("--url URL", "run the sweep on a 'zatel serve' instance"),
        ]],
        run: cmd_sweep,
    },
    Command {
        name: "serve",
        about: "long-running prediction service (see DESIGN.md)",
        options: &[&[
            ("--addr HOST:PORT", "listen address (default 127.0.0.1:7878; port 0"),
            ("", "picks an ephemeral port, logged on stderr)"),
            ("--workers N", "worker threads pulling predictions and sweeps"),
            ("", "off one queue through one shared cache"),
            ("", "(default 2)"),
            ("--queue N", "admission queue depth; beyond it requests are"),
            ("", "refused with 429 + a computed Retry-After"),
            ("", "(default 64)"),
            ("--sim-jobs N", "per-request simulation thread cap, when the"),
            ("", "request does not set options.jobs itself"),
            ("--deadline-ms N", "default deadline for requests that carry none;"),
            ("", "requests queued past it answer 504"),
            ("--cache-dir DIR", "keep profiled heatmaps on disk across restarts"),
            ("", "(the disk tier under the shared memory tier)"),
            ("--cache-budget-mb N", "evict least-recently-used disk-tier entries"),
            ("", "once the cache dir outgrows N MiB"),
            ("--log-out DEST", "zatel-log-v1 JSONL event log destination: one"),
            ("", "line per request plus a drain summary (default"),
            ("", "stderr; '-'/'stderr' or a file path)"),
        ]],
        run: cmd_serve,
    },
    Command {
        name: "report",
        about: "render a run record, or summarize the recorded history",
        options: &[&[
            ("--run FILE", "run record written by 'zatel predict --run-out';"),
            ("", "without --run, summarizes the recorded history"),
            ("--history FILE", "append a one-line summary here (default runs.jsonl)"),
            ("--pgm FILE", "write the execution-time heatmap as a binary PGM"),
            ("--prom FILE", "write the metrics snapshot in Prometheus text format"),
        ]],
        run: cmd_report,
    },
    Command {
        name: "heatmap",
        about: "write heatmap/quantized PPM images\n(first sample of one pixel per row pair profiled)",
        options: &[&[
            SCENE,
            ("--res N", "square image resolution (default 256)"),
            SEED,
            ("--out DIR", "output directory (default target/heatmaps)"),
        ]],
        run: cmd_heatmap,
    },
];

fn print_help() {
    let names = COMMANDS.each_ref().map(|c| c.name).join("|");
    println!(
        "zatel — sample complexity-aware scale-model simulation for ray tracing\n\
         \n\
         USAGE:\n  zatel <{names}|help> [options]\n  \
         zatel <command> --help"
    );
    for command in &COMMANDS {
        print!("\n{}", command.usage());
    }
}

/// Lists each scene as a default request builds it.
fn cmd_scenes(_: &Args) -> Result<(), String> {
    let seed = default_request("").seed;
    println!("{:<8} {:>10}  characteristics", "scene", "primitives");
    for id in rtcore::scenes::all() {
        let scene = id.build(seed);
        println!(
            "{:<8} {:>10}  {}",
            id.name(),
            scene.primitive_count(),
            id.description()
        );
    }
    Ok(())
}

fn cmd_configs(_: &Args) -> Result<(), String> {
    for config in [GpuConfig::mobile_soc(), GpuConfig::rtx_2060()] {
        println!("{}", config.to_json().pretty());
    }
    Ok(())
}

/// Resolves `--config`: a name [`ConfigRef::resolve`] knows as a preset
/// stays a [`ConfigRef::Preset`] (so the wire request stays a short
/// label); anything else is read as a `GpuConfig` JSON file and inlined
/// into the request.
fn config_ref(spec: &str) -> Result<ConfigRef, String> {
    let preset = ConfigRef::preset(spec);
    if preset.resolve().is_ok() {
        return Ok(preset);
    }
    let text =
        std::fs::read_to_string(spec).map_err(|e| format!("reading config file '{spec}': {e}"))?;
    let value =
        minijson::Value::parse(&text).map_err(|e| format!("parsing config file '{spec}': {e}"))?;
    let config =
        GpuConfig::from_json(&value).map_err(|e| format!("parsing config file '{spec}': {e}"))?;
    config
        .validate()
        .map_err(|e| format!("config file '{spec}': {e}"))?;
    Ok(ConfigRef::inline(config))
}

/// A request for `scene` on the default config, every other field at
/// [`PredictRequest::new`]'s default.
fn default_request(scene: &str) -> PredictRequest {
    PredictRequest::new(scene, ConfigRef::preset("mobile"))
}

/// The default request for the scene `--scene` names, with its `--seed`.
fn scene_request(args: &Args) -> Result<PredictRequest, String> {
    let mut request = default_request(args.get("scene").unwrap_or("PARK"));
    request.seed = args.get_parsed("seed", request.seed)?;
    Ok(request)
}

/// The request `predict` and `sweep` read from the [`RUN`] options, over
/// [`PredictRequest::new`]'s and [`ZatelOptions::default`]'s defaults. The
/// option values are checked where they are used:
/// [`PredictRequest::validate`] on the local path, the server on `--url`.
fn run_request(args: &Args) -> Result<PredictRequest, String> {
    let mut request = scene_request(args)?;
    if let Some(spec) = args.get("config") {
        request.config = config_ref(spec)?;
    }
    request.res = args.get_parsed("res", request.res)?;
    request.spp = args.get_parsed("spp", request.spp)?;
    request.reference = args.flag("reference");

    let mut options = ZatelOptions::default();
    let k = args.parsed("k")?;
    if args.flag("no-downscale") {
        if k.is_some() {
            return Err("--no-downscale replaces --k; give one or the other".into());
        }
        options.downscale = DownscaleMode::NoDownscale;
    } else if let Some(k) = k {
        options.downscale = DownscaleMode::Factor(k);
    }
    if let Some(name) = args.get("division") {
        options.division = DivisionMethod::named(name)?;
    }
    if let Some(name) = args.get("dist") {
        options.selection.distribution =
            Distribution::from_json(&name.into()).map_err(|e| e.to_string())?;
    }
    options.selection.percent_override = args.parsed("percent")?;
    options.selection.percent_cap = args.parsed("cap")?;
    options.jobs = args.parsed("jobs")?;
    request.options = Some(options);
    Ok(request)
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    let mut request = run_request(args)?;
    if args.flag("regression") {
        request.regression = Some(zatel::REGRESSION_FRACTIONS);
    }
    let progress = args.flag("progress");
    let trace_out = args.get("trace-out");
    let run_out = args.get("run-out");
    // Every prediction is traceable: the caller's --request-id or a
    // generated req-... ID, threaded into the span sheet, the optional
    // --log-out line and the --run-out record.
    let request_id = args
        .get("request-id")
        .map(str::to_owned)
        .unwrap_or_else(obs::log::request_id);

    // `--url`: ship the request to a `zatel serve` instance. The server
    // runs the same `execute_predict` seam this process would, so the
    // rendered output is identical; the request ID travels as the
    // x-zatel-request-id header and comes back echoed.
    if let Some(url) = args.get("url") {
        if progress || trace_out.is_some() || run_out.is_some() {
            return Err(
                "--progress/--trace-out/--run-out observe the local pipeline; \
                 drop them when predicting against --url"
                    .into(),
            );
        }
        let started = std::time::Instant::now();
        let header = [("x-zatel-request-id", request_id.as_str())];
        let response: PredictResponse = post(url, "/v1/predict", &request.to_json(), &header)?;
        emit_predict_log_line(
            args,
            &request_id,
            &response,
            started.elapsed().as_secs_f64() * 1000.0,
        )?;
        return render(args, &response, report::render_predict);
    }

    let options = request.options.get_or_insert_with(Default::default);
    if progress || trace_out.is_some() || run_out.is_some() {
        options.observe = Some(ObserveOptions {
            timeline: trace_out.is_some(),
        });
    }
    let cache = zatel::ArtifactCache::in_memory();
    let started = std::time::Instant::now();
    let mut output = zatel_serve::execute_predict_traced(&request, &cache, Some(&request_id))
        .map_err(|e| e.to_string())?;
    emit_predict_log_line(
        args,
        &request_id,
        &output.response,
        started.elapsed().as_secs_f64() * 1000.0,
    )?;

    if progress {
        let prediction = &output.prediction;
        for g in &prediction.groups {
            eprint!(
                "  group {}/{}: {} px, traced {:>3.0}%, {} cycles, {:.3}s",
                g.index + 1,
                prediction.groups.len(),
                g.pixels,
                100.0 * g.traced_fraction,
                g.stats.cycles,
                g.wall.as_secs_f64(),
            );
            if let Some(obs) = &g.obs {
                let [compute, memory, rt] = obs.phase_counts();
                eprint!(
                    " | {} phases (compute/memory/rt {compute}/{memory}/{rt})",
                    compute + memory + rt,
                );
            }
            eprintln!();
        }
        eprintln!(
            "  simulation wall {:.3}s (summed over the group jobs)",
            prediction.sim_wall.as_secs_f64()
        );
    }

    if let Some(path) = trace_out {
        let trace = obs::merge_trace(std::mem::take(&mut output.timelines));
        let events = obs::validate_trace(&trace)
            .map_err(|e| format!("internal: generated trace is malformed: {e}"))?;
        std::fs::write(path, trace.to_string())
            .map_err(|e| format!("writing trace '{path}': {e}"))?;
        eprintln!("wrote {events} trace events to {path}");
    }
    if let Some(path) = run_out {
        let record = RunRecord {
            request,
            response: output.response.clone(),
            heatmap: output.prediction.heatmap.as_ref().clone(),
        };
        std::fs::write(path, record.to_json().pretty())
            .map_err(|e| format!("writing run record '{path}': {e}"))?;
        eprintln!("wrote run record to {path} (render with 'zatel report --run {path}')");
    }

    render(args, &output.response, report::render_predict)
}

/// POSTs `body` to `path` on the `zatel serve` instance at `url` and parses
/// its 200 answer as `T`.
fn post<T: FromJson>(
    url: &str,
    path: &str,
    body: &minijson::Value,
    headers: &[(&str, &str)],
) -> Result<T, String> {
    let reply = HttpClient::new(url)?.post_json_with_headers(path, body, headers)?;
    if reply.status != 200 {
        let body = reply.body.trim();
        return Err(format!("server answered {}: {body}", reply.status));
    }
    T::from_json(&reply.json()?).map_err(|e| format!("server response: {}", e.message))
}

/// When `--log-out` was given, appends one `zatel-log-v1` JSONL line
/// describing the completed prediction (observational wall-clock only —
/// the rendered result never depends on it).
fn emit_predict_log_line(
    args: &Args,
    request_id: &str,
    response: &PredictResponse,
    wall_ms: f64,
) -> Result<(), String> {
    let Some(dest) = args.get("log-out") else {
        return Ok(());
    };
    let logger = obs::Logger::for_destination(Some(dest))
        .map_err(|e| format!("opening --log-out '{dest}': {e}"))?;
    let fields = [
        ("request_id", json!(request_id)),
        ("scene", json!(response.scene.as_str())),
        ("res", json!(response.res)),
        ("spp", json!(response.spp)),
        ("seed", json!(response.seed)),
        ("wall_ms", json!(wall_ms)),
        ("cache_hits", json!(StageCacheRecord::hits(&response.cache))),
        ("cache_stages", json!(response.cache.len() as u64)),
    ];
    let fields = fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
    logger.log(obs::LogLevel::Info, "predict", fields);
    Ok(())
}

/// Prints a response as `--json` or as its text table — the one renderer
/// both the local path and `--url` mode go through, so their stdout is
/// identical.
fn render<T: ToJson>(args: &Args, response: &T, table: fn(&T) -> String) -> Result<(), String> {
    if args.flag("json") {
        println!("{}", response.to_json().pretty());
    } else {
        print!("{}", table(response));
    }
    Ok(())
}

/// Parses a comma-separated `--ks`/`--percents` list.
fn parse_list<T: std::str::FromStr>(key: &str, raw: Option<&str>) -> Result<Vec<T>, String> {
    let Some(raw) = raw else {
        return Ok(Vec::new());
    };
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| format!("--{key}: '{s}' is not a number"))
        })
        .collect()
}

/// The sweep matrix, from `--spec FILE` or the `--ks`/`--percents` axes.
fn sweep_spec(args: &Args) -> Result<zatel::SweepSpec, String> {
    if let Some(path) = args.get("spec") {
        if args.get("ks").is_some() || args.get("percents").is_some() {
            return Err("--spec replaces --ks/--percents; give one or the other".into());
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading sweep spec '{path}': {e}"))?;
        let value = minijson::Value::parse(&text)
            .map_err(|e| format!("parsing sweep spec '{path}': {e}"))?;
        return zatel::SweepSpec::from_json(&value)
            .map_err(|e| format!("parsing sweep spec '{path}': {e}"));
    }
    let ks: Vec<u32> = parse_list("ks", args.get("ks"))?;
    let percents: Vec<f64> = parse_list("percents", args.get("percents"))?;
    if ks.is_empty() && percents.is_empty() {
        return Err(
            "sweep needs its matrix: --ks 1,2,4 and/or --percents 0.1,0.3,0.6, \
             or a --spec spec.json"
                .into(),
        );
    }
    Ok(zatel::SweepSpec::matrix(&ks, &percents))
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let run = run_request(args)?;
    let request = SweepRequest {
        res: run.res,
        spp: run.spp,
        seed: run.seed,
        options: run.options,
        reference: run.reference,
        ..SweepRequest::new(run.scene, run.config, sweep_spec(args)?)
    };

    let response = if let Some(url) = args.get("url") {
        if args.get("cache-dir").is_some() {
            return Err(
                "--cache-dir configures the local pipeline; with --url the server \
                 owns its cache (see 'zatel serve --cache-dir')"
                    .into(),
            );
        }
        post(url, "/v1/sweep", &request.to_json(), &[])?
    } else {
        let cache = match args.get("cache-dir") {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating cache dir '{dir}': {e}"))?;
                std::sync::Arc::new(zatel::ArtifactCache::with_disk(dir))
            }
            None => std::sync::Arc::new(zatel::ArtifactCache::in_memory()),
        };
        zatel_serve::execute_sweep(&request, &cache).map_err(|e| e.to_string())?
    };

    let stats = &response.cache_stats;
    eprintln!(
        "{} points; artifact cache: {} misses, {} memory hits, {} disk hits, {} failed disk writes",
        response.points.len(),
        stats.misses,
        stats.memory_hits,
        stats.disk_hits,
        stats.disk_write_failures
    );

    if let Some(path) = args.get("runs-out") {
        append_history(path, &response.points)?;
        eprintln!(
            "appended {} sweep records to {path} (summarize with 'zatel report --history {path}')",
            response.points.len()
        );
    }

    render(args, &response, |r| report::render_points(&r.points))
}

/// `zatel serve` — boots the long-running prediction service and blocks
/// until a drain (SIGINT/SIGTERM or `POST /v1/shutdown`) completes.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut config = ServeConfig::default();
    if let Some(addr) = args.get("addr") {
        config.addr = addr.to_owned();
    }
    config.workers = args.get_parsed("workers", config.workers)?;
    config.queue = args.get_parsed("queue", config.queue)?;
    config.sim_jobs = args.parsed("sim-jobs")?;
    config.default_deadline_ms = args.parsed("deadline-ms")?;
    config.cache_dir = args.get("cache-dir").map(str::to_owned);
    config.cache_budget_mb = args.parsed("cache-budget-mb")?;
    config.log_out = args.get("log-out").map(str::to_owned);

    zatel_serve::signal::install();
    let server = Server::bind(config)?;
    eprintln!(
        "zatel serve: listening on http://{} (drain with SIGINT/SIGTERM or POST /v1/shutdown)",
        server.local_addr()?
    );
    let report = server.run()?;
    eprintln!(
        "zatel serve: drained; {} request(s) admitted, {} refused at the queue, \
         {} still in flight when the drain began; \
         responses {} 2xx / {} 4xx / {} 5xx, peak queue depth {}",
        report.admitted,
        report.refused,
        report.drained_in_flight,
        report.responses_2xx,
        report.responses_4xx,
        report.responses_5xx,
        report.peak_queue_depth
    );
    Ok(())
}

/// `zatel report`: renders a `--run` record and appends its summary to the
/// history, or without `--run` summarizes the history (`zatel report
/// --run` lines and `zatel sweep --runs-out` records share one file and
/// one record type).
fn cmd_report(args: &Args) -> Result<(), String> {
    let history = args.get("history").unwrap_or("runs.jsonl");
    let Some(path) = args.get("run") else {
        let runs = zatel_proto::read_history(std::path::Path::new(history))?;
        println!("{} recorded runs in {history}", runs.len());
        print!("{}", report::render_points(&runs));
        return Ok(());
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading run record '{path}': {e}"))?;
    let run = minijson::Value::parse(&text)
        .and_then(|value| RunRecord::from_json(&value))
        .map_err(|e| {
            format!(
                "run record '{path}': {e}; re-record it with \
                 'zatel predict ... --run-out {path}'"
            )
        })?;
    print!("{}", report::render_run(&run));

    let line = PointRecord::new(SweepPointSpec::named("predict"), &run.response);
    append_history(history, &[line])?;
    eprintln!("appended run summary to {history}");

    if let Some(pgm) = args.get("pgm") {
        std::fs::write(pgm, report::heatmap_pgm(&run.heatmap))
            .map_err(|e| format!("writing '{pgm}': {e}"))?;
        eprintln!("wrote execution-time heatmap to {pgm}");
    }
    if let Some(prom) = args.get("prom") {
        let registry = run
            .response
            .metrics
            .as_ref()
            .ok_or("--prom: run record has no 'metrics' section")?;
        std::fs::write(prom, registry.to_prometheus("zatel"))
            .map_err(|e| format!("writing '{prom}': {e}"))?;
        eprintln!("wrote Prometheus metrics to {prom}");
    }
    Ok(())
}

/// Appends one JSON line per record to the run-history file at `path`.
fn append_history(path: &str, records: &[PointRecord]) -> Result<(), String> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening history '{path}': {e}"))?;
    for record in records {
        writeln!(file, "{}", record.to_json())
            .map_err(|e| format!("appending to '{path}': {e}"))?;
    }
    Ok(())
}

fn cmd_heatmap(args: &Args) -> Result<(), String> {
    let PredictRequest { scene, seed, .. } = scene_request(args)?;
    let scene = rtcore::scenes::by_name(&scene)
        .ok_or_else(|| format!("unknown scene '{scene}'; see 'zatel scenes'"))?
        .build(seed);
    let res = args.get_parsed("res", 256u32)?;
    let out = std::path::PathBuf::from(args.get("out").unwrap_or("target/heatmaps"));
    std::fs::create_dir_all(&out).map_err(|e| format!("creating '{}': {e}", out.display()))?;
    let trace = TraceConfig {
        seed,
        ..TraceConfig::default()
    };
    let heatmap = zatel::heatmap::Heatmap::profile(&scene, res, res, &trace);
    let colours = ZatelOptions::default().quant_colors;
    let quantized = zatel::quantize::QuantizedHeatmap::quantize(&heatmap, colours, seed);
    heatmap
        .to_image()
        .save_ppm(out.join("heatmap.ppm"))
        .map_err(|e| e.to_string())?;
    quantized
        .to_image()
        .save_ppm(out.join("heatmap_quantized.ppm"))
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {}/heatmap.ppm and heatmap_quantized.ppm ({} colours, mean temperature {:.3})",
        out.display(),
        quantized.cluster_count(),
        heatmap.mean_temperature()
    );
    Ok(())
}
