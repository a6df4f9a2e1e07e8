//! `zatel` — command-line front end for the Zatel prediction pipeline.
//!
//! ```text
//! zatel scenes
//! zatel configs
//! zatel predict --scene PARK --config mobile --res 192 [--reference]
//!               [--percent 0.4] [--cap 0.1] [--k 4 | --no-downscale]
//!               [--division fine|coarse] [--dist uniform|lintmp|exptmp]
//!               [--regression] [--json] [--seed 42] [--spp 2]
//!               [--trace-out trace.json] [--run-out run.json]
//!               [--request-id ID] [--log-out FILE|-]
//! zatel sweep --scene PARK --config mobile --ks 1,2,4 --percents 0.1,0.3,0.6
//!             [--spec spec.json] [--cache-dir DIR] [--runs-out runs.jsonl]
//!             [--reference] [--json]
//! zatel serve [--addr 127.0.0.1:7878] [--workers 2] [--queue 64]
//!             [--sim-jobs N] [--deadline-ms N] [--cache-dir DIR]
//!             [--cache-budget-mb N] [--log-out FILE|-]
//! zatel predict --url http://host:7878 ...   # same output, computed remotely
//! zatel sweep --url http://host:7878 ...
//! zatel report --run run.json [--history runs.jsonl] [--pgm heatmap.pgm]
//!              [--prom metrics.prom]
//! zatel report [--history runs.jsonl]      # summarize recorded history
//! zatel heatmap --scene WKND --res 256 --out target/heatmaps
//! ```
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

use args::Args;
use gpusim::{GpuConfig, Metric};
use minijson::{FromJson, ToJson};
use obs::ObserveOptions;
use rtcore::scenes::SceneId;
use rtcore::tracer::TraceConfig;
use zatel::{Distribution, DivisionMethod, DownscaleMode, Prediction, Reference};
use zatel_proto::{
    ConfigRef, GroupReport, MetricValues, PredictRequest, PredictResponse, SweepRequest,
    SweepResponse,
};
use zatel_serve::server::{ServeConfig, Server};
use zatel_serve::HttpClient;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
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
    let args = Args::parse(argv).map_err(|e| e.to_string())?;
    match args.command.as_str() {
        "scenes" => cmd_scenes(),
        "configs" => cmd_configs(),
        "predict" => cmd_predict(&args),
        "sweep" => cmd_sweep(&args),
        "serve" => cmd_serve(&args),
        "report" => cmd_report(&args),
        "heatmap" => cmd_heatmap(&args),
        other => Err(format!("unknown subcommand '{other}'; try 'zatel help'")),
    }
}

fn print_help() {
    println!(
        "zatel — sample complexity-aware scale-model simulation for ray tracing\n\
         \n\
         USAGE:\n  zatel <scenes|configs|predict|sweep|serve|report|heatmap|help> [options]\n\
         \n\
         predict options:\n\
           --scene NAME        benchmark scene (default PARK; see 'zatel scenes')\n\
           --config NAME|FILE  mobile | rtx2060 | path to a GpuConfig JSON (default mobile)\n\
           --res N             square image resolution (default 128)\n\
           --spp N             samples per pixel (default 2)\n\
           --seed N            master seed (default 42)\n\
           --percent F         fixed traced fraction in (0,1] instead of Eq.(1)\n\
           --cap F             upper bound applied after Eq.(1)\n\
           --k N               explicit downscale factor (default: gcd rule)\n\
           --no-downscale      single group on the full GPU\n\
           --division KIND     fine | coarse (default fine)\n\
           --dist KIND         uniform | lintmp | exptmp (default uniform)\n\
           --regression        extrapolate via 20/30/40%% exponential regression\n\
           --reference         also run the full simulation and report errors\n\
           --json              emit machine-readable JSON instead of tables\n\
           --jobs N            worker threads for group simulation (default: host cores)\n\
           --progress          per-group progress lines + phase counts by class (stderr)\n\
           --trace-out FILE    write a Perfetto/Chrome-trace JSON timeline of the run\n\
           --run-out FILE      persist a zatel-run-v1 record for 'zatel report'\n\
           --request-id ID     tag the run with a caller-chosen request ID\n\
                               (default: a generated req-... ID); with --url the\n\
                               ID travels as the x-zatel-request-id header\n\
           --log-out DEST      emit one zatel-log-v1 JSONL line for the run to\n\
                               DEST ('-' or 'stderr' for stderr, else a file)\n\
           --url URL           send the request to a 'zatel serve' instance at\n\
                               http://host:port instead of running locally; the\n\
                               output is identical to local mode\n\
         \n\
         sweep options (scene/config/res/spp/seed/division/dist/jobs as for predict):\n\
           --ks LIST           comma-separated downscale factors, e.g. 1,2,4\n\
           --percents LIST     comma-separated traced fractions, e.g. 0.1,0.3,0.6\n\
           --spec FILE         sweep-spec JSON instead of the --ks/--percents matrix\n\
           --cache-dir DIR     persist stage artifacts on disk (warm reruns skip\n\
                               heatmap profiling and quantization)\n\
           --runs-out FILE     append one zatel-sweep-v1 JSON line per point\n\
           --reference         also run the full simulation and report errors\n\
           --json              emit machine-readable JSON instead of tables\n\
           --url URL           run the sweep on a 'zatel serve' instance\n\
         \n\
         serve options (long-running prediction service; see DESIGN.md):\n\
           --addr HOST:PORT    listen address (default 127.0.0.1:7878; port 0\n\
                               picks an ephemeral port, logged on stderr)\n\
           --workers N         worker threads pulling predictions and sweeps\n\
                               off one queue through one shared cache\n\
                               (default 2)\n\
           --queue N           admission queue depth; beyond it requests are\n\
                               refused with 429 + a computed Retry-After\n\
                               (default 64)\n\
           --sim-jobs N        per-request simulation thread cap, when the\n\
                               request does not set options.jobs itself\n\
           --deadline-ms N     default deadline for requests that carry none;\n\
                               requests queued past it answer 504\n\
           --cache-dir DIR     persist stage artifacts on disk across restarts\n\
                               (the disk tier under the shared memory tier)\n\
           --cache-budget-mb N evict least-recently-used disk-tier entries\n\
                               once the cache dir outgrows N MiB\n\
           --log-out DEST      zatel-log-v1 JSONL event log destination: one\n\
                               line per request plus a drain summary (default\n\
                               stderr; '-'/'stderr' or a file path)\n\
         \n\
         report options:\n\
           --run FILE          run record written by 'zatel predict --run-out';\n\
                               without --run, summarizes the recorded history\n\
           --history FILE      append a one-line summary here (default runs.jsonl)\n\
           --pgm FILE          write the execution-time heatmap as a binary PGM\n\
           --prom FILE         write the metrics snapshot in Prometheus text format\n\
         \n\
         heatmap options:\n\
           --scene NAME --res N --out DIR   write heatmap/quantized PPM images"
    );
}

fn cmd_scenes() -> Result<(), String> {
    println!("{:<8} {:>10}  characteristics", "scene", "primitives");
    for id in rtcore::scenes::all() {
        let scene = id.build(42);
        println!(
            "{:<8} {:>10}  {}",
            id.name(),
            scene.primitive_count(),
            id.description()
        );
    }
    Ok(())
}

fn cmd_configs() -> Result<(), String> {
    for config in [GpuConfig::mobile_soc(), GpuConfig::rtx_2060()] {
        println!("{}", config.to_json().pretty());
    }
    Ok(())
}

/// Resolves `--config`: preset names become a [`ConfigRef::Preset`] (so
/// the wire request stays a short label); anything else is read as a
/// `GpuConfig` JSON file and inlined into the request.
fn config_ref(spec: &str) -> Result<ConfigRef, String> {
    match spec.to_ascii_lowercase().as_str() {
        "mobile" | "mobile_soc" | "mobile-soc" | "rtx2060" | "rtx-2060" | "rtx_2060" | "turing" => {
            Ok(ConfigRef::preset(spec))
        }
        _ => {
            let text = std::fs::read_to_string(spec)
                .map_err(|e| format!("reading config file '{spec}': {e}"))?;
            let value = minijson::Value::parse(&text)
                .map_err(|e| format!("parsing config file '{spec}': {e}"))?;
            let config = GpuConfig::from_json(&value)
                .map_err(|e| format!("parsing config file '{spec}': {e}"))?;
            config
                .validate()
                .map_err(|e| format!("config file '{spec}': {e}"))?;
            Ok(ConfigRef::inline(config))
        }
    }
}

fn scene_from(args: &Args) -> Result<(SceneId, rtcore::scene::Scene, u64), String> {
    let seed = args.get_parsed("seed", 42u64).map_err(|e| e.to_string())?;
    let name = args.get("scene").unwrap_or("PARK");
    let id = rtcore::scenes::by_name(name)
        .ok_or_else(|| format!("unknown scene '{name}'; see 'zatel scenes'"))?;
    let scene = id.build(seed);
    Ok((id, scene, seed))
}

/// Applies the pipeline options shared by `predict` and `sweep`
/// (`--k`/`--no-downscale`, `--division`, `--dist`, `--percent`, `--cap`,
/// `--jobs`) onto `opts`.
fn apply_options(args: &Args, opts: &mut zatel::ZatelOptions) -> Result<(), String> {
    if args.flag("no-downscale") {
        opts.downscale = DownscaleMode::NoDownscale;
    } else if let Some(k) = args.get("k") {
        let k: u32 = k
            .parse()
            .map_err(|_| format!("--k value '{k}' is not a number"))?;
        opts.downscale = DownscaleMode::Factor(k);
    }
    match args.get("division").unwrap_or("fine") {
        "fine" => opts.division = DivisionMethod::default_fine(),
        "coarse" => opts.division = DivisionMethod::Coarse,
        other => return Err(format!("unknown division '{other}' (fine|coarse)")),
    }
    match args.get("dist").unwrap_or("uniform") {
        "uniform" => opts.selection.distribution = Distribution::Uniform,
        "lintmp" => opts.selection.distribution = Distribution::LinTmp,
        "exptmp" => opts.selection.distribution = Distribution::ExpTmp,
        other => {
            return Err(format!(
                "unknown distribution '{other}' (uniform|lintmp|exptmp)"
            ))
        }
    }
    if let Some(p) = args.get("percent") {
        let p: f64 = p
            .parse()
            .map_err(|_| format!("--percent '{p}' is not a number"))?;
        opts.selection.percent_override = Some(p);
    }
    if let Some(c) = args.get("cap") {
        let c: f64 = c
            .parse()
            .map_err(|_| format!("--cap '{c}' is not a number"))?;
        opts.selection.percent_cap = Some(c);
    }
    if let Some(j) = args.get("jobs") {
        let j: usize = j
            .parse()
            .map_err(|_| format!("--jobs value '{j}' is not a number"))?;
        if j == 0 {
            return Err("--jobs must be at least 1".into());
        }
        opts.jobs = Some(j);
    }
    Ok(())
}

/// Builds the wire request shared by local and `--url` prediction from
/// the command line.
fn predict_request(args: &Args) -> Result<PredictRequest, String> {
    let mut request = PredictRequest::new(
        args.get("scene").unwrap_or("PARK"),
        config_ref(args.get("config").unwrap_or("mobile"))?,
    );
    request.res = args.get_parsed("res", 128u32).map_err(|e| e.to_string())?;
    request.spp = args.get_parsed("spp", 2u32).map_err(|e| e.to_string())?;
    request.seed = args.get_parsed("seed", 42u64).map_err(|e| e.to_string())?;
    let mut options = zatel::ZatelOptions::default();
    apply_options(args, &mut options)?;
    request.options = Some(options);
    if args.flag("regression") {
        request.regression = Some([0.2, 0.3, 0.4]);
    }
    request.reference = args.flag("reference");
    Ok(request)
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    let mut request = predict_request(args)?;
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
        let reply = HttpClient::new(url)?.post_json_with_headers(
            "/v1/predict",
            &request.to_json(),
            &[("x-zatel-request-id", &request_id)],
        )?;
        if reply.status != 200 {
            return Err(format!(
                "server answered {}: {}",
                reply.status,
                reply.body.trim()
            ));
        }
        let response = PredictResponse::from_json(&reply.json()?)
            .map_err(|e| format!("server response: {}", e.message))?;
        emit_predict_log_line(
            args,
            &request_id,
            &response,
            started.elapsed().as_secs_f64() * 1000.0,
        )?;
        return render_predict(args, &response);
    }

    let options = request.options.get_or_insert_with(Default::default);
    if progress || trace_out.is_some() || run_out.is_some() {
        options.observe = Some(ObserveOptions {
            timeline: trace_out.is_some(),
            ..ObserveOptions::default()
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
        let record = run_record(
            args,
            &output.response.scene,
            request.res,
            request.spp,
            request.seed,
            &output.prediction,
            &output.reference,
            &output.registry,
        );
        std::fs::write(path, record.pretty())
            .map_err(|e| format!("writing run record '{path}': {e}"))?;
        eprintln!("wrote run record to {path} (render with 'zatel report --run {path}')");
    }

    render_predict(args, &output.response)
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
    let logger = obs::Logger::for_destination(Some(dest), obs::LogLevel::Info)
        .map_err(|e| format!("opening --log-out '{dest}': {e}"))?;
    let cache_hits = response
        .cache
        .iter()
        .filter(|record| {
            matches!(
                record.get("outcome").and_then(minijson::Value::as_str),
                Some("memory" | "disk")
            )
        })
        .count() as u64;
    let mut fields = minijson::Map::new();
    fields.insert("request_id".into(), minijson::json!(request_id));
    fields.insert("scene".into(), minijson::json!(response.scene.as_str()));
    fields.insert("res".into(), minijson::json!(response.res));
    fields.insert("spp".into(), minijson::json!(response.spp));
    fields.insert("seed".into(), minijson::json!(response.seed));
    fields.insert("wall_ms".into(), minijson::json!(wall_ms));
    fields.insert("cache_hits".into(), minijson::json!(cache_hits));
    fields.insert(
        "cache_stages".into(),
        minijson::json!(response.cache.len() as u64),
    );
    logger.log(obs::LogLevel::Info, "predict", fields);
    Ok(())
}

/// Renders a predict response — the one renderer both the local path and
/// `--url` mode go through, so their stdout is identical.
fn render_predict(args: &Args, response: &PredictResponse) -> Result<(), String> {
    if args.flag("json") {
        println!("{}", response.to_json().pretty());
        return Ok(());
    }

    let res = response.res;
    println!(
        "{} at {res}x{res}, K = {}, {} groups, traced {:.0}% of pixels",
        response.scene,
        response.k,
        response.groups.len(),
        100.0
            * response
                .groups
                .iter()
                .map(|g| g.traced_fraction)
                .sum::<f64>()
            / response.groups.len().max(1) as f64
    );
    match &response.reference {
        Some(reference) => {
            println!(
                "{:<22} {:>14} {:>14} {:>8}",
                "metric", "Zatel", "reference", "error"
            );
            for m in Metric::ALL {
                let predicted = response.prediction.value(m);
                let expected = reference.metrics.value(m);
                println!(
                    "{:<22} {:>14.4} {:>14.4} {:>7.1}%",
                    m.name(),
                    predicted,
                    expected,
                    100.0 * zatel::metrics::abs_error(predicted, expected)
                );
            }
            println!(
                "MAE = {:.1}%   speedup (1 core/group) = {:.1}x",
                100.0 * response.mae.unwrap_or(f64::NAN),
                response.speedup_concurrent.unwrap_or(f64::NAN)
            );
            println!(
                "reference CPI stack: {}",
                reference
                    .cpi_stack
                    .iter()
                    .map(|(n, v)| format!("{n} {:.0}%", 100.0 * v))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        None => {
            println!("{:<22} {:>14}", "metric", "Zatel");
            for m in Metric::ALL {
                println!("{:<22} {:>14.4}", m.name(), response.prediction.value(m));
            }
            println!("(add --reference to compare against the full simulation)");
        }
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

/// Builds the wire request shared by local and `--url` sweeps.
fn sweep_request(args: &Args) -> Result<SweepRequest, String> {
    let mut request = SweepRequest::new(
        args.get("scene").unwrap_or("PARK"),
        config_ref(args.get("config").unwrap_or("mobile"))?,
        sweep_spec(args)?,
    );
    request.res = args.get_parsed("res", 128u32).map_err(|e| e.to_string())?;
    request.spp = args.get_parsed("spp", 2u32).map_err(|e| e.to_string())?;
    request.seed = args.get_parsed("seed", 42u64).map_err(|e| e.to_string())?;
    let mut options = zatel::ZatelOptions::default();
    apply_options(args, &mut options)?;
    request.options = Some(options);
    request.reference = args.flag("reference");
    Ok(request)
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let request = sweep_request(args)?;

    let response = if let Some(url) = args.get("url") {
        if args.get("cache-dir").is_some() {
            return Err(
                "--cache-dir configures the local pipeline; with --url the server \
                 owns its cache (see 'zatel serve --cache-dir')"
                    .into(),
            );
        }
        let reply = HttpClient::new(url)?.post_json("/v1/sweep", &request.to_json())?;
        if reply.status != 200 {
            return Err(format!(
                "server answered {}: {}",
                reply.status,
                reply.body.trim()
            ));
        }
        SweepResponse::from_json(&reply.json()?)
            .map_err(|e| format!("server response: {}", e.message))?
    } else {
        let cache = match args.get("cache-dir") {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating cache dir '{dir}': {e}"))?;
                std::sync::Arc::new(zatel::ArtifactCache::with_disk(dir))
            }
            None => std::sync::Arc::new(zatel::ArtifactCache::in_memory()),
        };
        zatel_serve::execute_sweep(&request, &cache)
            .map_err(|e| e.to_string())?
            .response
    };

    let stat = |key: &str| {
        response
            .cache_stats
            .get(key)
            .and_then(minijson::Value::as_u64)
            .unwrap_or(0)
    };
    eprintln!(
        "{} points; artifact cache: {} misses, {} memory hits, {} disk hits",
        response.points.len(),
        stat("misses"),
        stat("memory_hits"),
        stat("disk_hits")
    );

    if let Some(path) = args.get("runs-out") {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening '{path}': {e}"))?;
        for record in &response.points {
            writeln!(file, "{record}").map_err(|e| format!("appending to '{path}': {e}"))?;
        }
        eprintln!(
            "appended {} sweep records to {path} (summarize with 'zatel report --history {path}')",
            response.points.len()
        );
    }

    render_sweep(args, &response)
}

/// Renders a sweep response — shared by the local path and `--url` mode.
fn render_sweep(args: &Args, response: &SweepResponse) -> Result<(), String> {
    if args.flag("json") {
        println!("{}", response.to_json().pretty());
        return Ok(());
    }

    let with_ref = response.points.iter().any(|p| p.get("mae").is_some());
    print!(
        "{:<24} {:>4} {:>14} {:>10}",
        "point", "K", "cycles", "sim ms"
    );
    if with_ref {
        print!(" {:>8} {:>9}", "MAE", "speedup");
    }
    println!(" {:>18}", "cache");
    for point in &response.points {
        let num = |key: &str| {
            point
                .get(key)
                .and_then(minijson::Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        let (hits, total) = point
            .get("cache")
            .and_then(minijson::Value::as_array)
            .map_or((0, 0), |records| {
                let hits = records
                    .iter()
                    .filter(|r| r.get("outcome").and_then(minijson::Value::as_str) != Some("miss"))
                    .count();
                (hits, records.len())
            });
        print!(
            "{:<24} {:>4} {:>14.0} {:>10.2}",
            point
                .get("label")
                .and_then(minijson::Value::as_str)
                .unwrap_or("?"),
            point
                .get("k")
                .and_then(minijson::Value::as_u64)
                .unwrap_or(0),
            point
                .get("prediction")
                .and_then(|p| p.get(Metric::SimCycles.name()))
                .and_then(minijson::Value::as_f64)
                .unwrap_or(f64::NAN),
            num("sim_wall_ms")
        );
        if with_ref {
            print!(
                " {:>7.1}% {:>8.1}x",
                100.0 * num("mae"),
                num("speedup_concurrent")
            );
        }
        println!(" {:>12} hits/{}", hits, total);
    }
    Ok(())
}

/// `zatel serve` — boots the long-running prediction service and blocks
/// until a drain (SIGINT/SIGTERM or `POST /v1/shutdown`) completes.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut config = ServeConfig::default();
    if let Some(addr) = args.get("addr") {
        config.addr = addr.to_owned();
    }
    config.workers = args
        .get_parsed("workers", config.workers)
        .map_err(|e| e.to_string())?;
    config.queue = args
        .get_parsed("queue", config.queue)
        .map_err(|e| e.to_string())?;
    if args.get("sim-jobs").is_some() {
        config.sim_jobs = Some(
            args.get_parsed("sim-jobs", 1usize)
                .map_err(|e| e.to_string())?,
        );
    }
    if args.get("deadline-ms").is_some() {
        config.default_deadline_ms = Some(
            args.get_parsed("deadline-ms", 0u64)
                .map_err(|e| e.to_string())?,
        );
    }
    if let Some(dir) = args.get("cache-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating cache dir '{dir}': {e}"))?;
        config.cache_dir = Some(dir.to_owned());
    }
    if args.get("cache-budget-mb").is_some() {
        let budget = args
            .get_parsed("cache-budget-mb", 0u64)
            .map_err(|e| e.to_string())?;
        if budget == 0 {
            return Err("--cache-budget-mb must be at least 1".into());
        }
        if config.cache_dir.is_none() {
            return Err("--cache-budget-mb needs --cache-dir".into());
        }
        config.cache_budget_mb = Some(budget);
    }
    if let Some(dest) = args.get("log-out") {
        config.log_out = Some(dest.to_owned());
    }

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

/// Builds the `zatel-run-v1` record persisted by `--run-out` and consumed
/// by `zatel report`. Wall-clock times live only in span/wall fields so
/// the `metrics` section stays byte-identical across repeat runs.
#[expect(
    clippy::too_many_arguments,
    reason = "one flat record of the run; every argument is a field of it"
)]
fn run_record(
    args: &Args,
    scene: &str,
    res: u32,
    spp: u32,
    seed: u64,
    prediction: &Prediction,
    reference: &Option<Reference>,
    registry: &obs::MetricsRegistry,
) -> minijson::Value {
    let mut rec = minijson::Map::new();
    rec.insert("schema".into(), minijson::json!(obs::RUN_SCHEMA));
    rec.insert("scene".into(), minijson::json!(scene));
    rec.insert(
        "config".into(),
        minijson::json!(args.get("config").unwrap_or("mobile")),
    );
    rec.insert("res".into(), minijson::json!(res));
    rec.insert("spp".into(), minijson::json!(spp));
    rec.insert("seed".into(), minijson::json!(seed));
    rec.insert("k".into(), minijson::json!(prediction.k));
    rec.insert(
        "division".into(),
        minijson::json!(args.get("division").unwrap_or("fine")),
    );
    rec.insert(
        "dist".into(),
        minijson::json!(args.get("dist").unwrap_or("uniform")),
    );
    rec.insert(
        "prediction".into(),
        MetricValues::from_prediction(prediction).to_json(),
    );
    // The served group shape.
    let groups = prediction.groups.iter().map(GroupReport::from_outcome);
    rec.insert("groups".into(), groups.collect::<Vec<_>>().to_json());
    rec.insert(
        "spans".into(),
        minijson::Value::Array(prediction.spans.iter().map(ToJson::to_json).collect()),
    );
    rec.insert("metrics".into(), registry.to_json());
    // Observational, deliberately separate from the deterministic
    // "metrics" registry: the request ID varies run to run.
    if let Some(id) = &prediction.request_id {
        rec.insert("request_id".into(), minijson::json!(id.as_str()));
    }
    rec.insert("heatmap".into(), heatmap_to_json(&prediction.heatmap));
    if let Some(reference) = reference {
        rec.insert(
            "reference".into(),
            MetricValues::from_stats(&reference.stats).to_json(),
        );
        rec.insert(
            "mae".into(),
            minijson::json!(prediction.mae_vs(&reference.stats)),
        );
        rec.insert(
            "speedup_concurrent".into(),
            minijson::json!(prediction.speedup_concurrent(reference)),
        );
    }
    rec.insert(
        "sim_wall_ms".into(),
        minijson::json!(prediction.sim_wall.as_secs_f64() * 1000.0),
    );
    rec.insert(
        "preprocess_wall_ms".into(),
        minijson::json!(prediction.preprocess_wall.as_secs_f64() * 1000.0),
    );
    minijson::Value::Object(rec)
}

/// Normalizes the execution-time heatmap to 0..=255 greyscale bytes for
/// the run record (and, downstream, the `zatel report --pgm` image).
fn heatmap_to_json(heatmap: &zatel::heatmap::Heatmap) -> minijson::Value {
    let max = heatmap.values().iter().copied().fold(0.0f32, f32::max);
    let values: Vec<minijson::Value> = heatmap
        .values()
        .iter()
        .map(|&v| {
            let byte = if max > 0.0 {
                ((v / max) * 255.0).round() as u64
            } else {
                0
            };
            minijson::json!(byte)
        })
        .collect();
    let mut m = minijson::Map::new();
    m.insert("width".into(), minijson::json!(heatmap.width()));
    m.insert("height".into(), minijson::json!(heatmap.height()));
    m.insert("values".into(), minijson::Value::Array(values));
    minijson::Value::Object(m)
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let Some(path) = args.get("run") else {
        return cmd_report_history(args);
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading run record '{path}': {e}"))?;
    let run =
        minijson::Value::parse(&text).map_err(|e| format!("parsing run record '{path}': {e}"))?;
    let report = obs::report::render(&run).map_err(|e| format!("run record '{path}': {e}"))?;
    print!("{report}");

    let history = args.get("history").unwrap_or("runs.jsonl");
    let line = obs::report::summary_line(&run)?;
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .map_err(|e| format!("opening history '{history}': {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("appending to '{history}': {e}"))?;
    eprintln!("appended run summary to {history}");

    if let Some(pgm) = args.get("pgm") {
        let bytes = obs::report::heatmap_pgm(&run).map_err(|e| format!("--pgm: {e}"))?;
        std::fs::write(pgm, bytes).map_err(|e| format!("writing '{pgm}': {e}"))?;
        eprintln!("wrote execution-time heatmap to {pgm}");
    }
    if let Some(prom) = args.get("prom") {
        let metrics = run
            .get("metrics")
            .ok_or("--prom: run record has no 'metrics' section")?;
        let registry = obs::MetricsRegistry::from_json(metrics)
            .map_err(|e| format!("--prom: run record metrics: {e}"))?;
        std::fs::write(prom, registry.to_prometheus("zatel"))
            .map_err(|e| format!("writing '{prom}': {e}"))?;
        eprintln!("wrote Prometheus metrics to {prom}");
    }
    Ok(())
}

/// `zatel report` without `--run`: summarize the recorded run history
/// (`zatel report --run` summary lines and `zatel sweep --runs-out`
/// records share one file).
fn cmd_report_history(args: &Args) -> Result<(), String> {
    let history = args.get("history").unwrap_or("runs.jsonl");
    let runs =
        zatel::sweep::load_history(std::path::Path::new(history)).map_err(|e| e.to_string())?;
    println!("{} recorded runs in {history}", runs.len());
    println!(
        "{:<8} {:<24} {:>4} {:>14} {:>8} {:>10}",
        "scene", "point", "K", "cycles", "MAE", "sim ms"
    );
    for run in &runs {
        let text = |key: &str, default: &str| -> String {
            run.get(key)
                .and_then(minijson::Value::as_str)
                .unwrap_or(default)
                .to_owned()
        };
        // Sweep records carry cycles under prediction.<metric>; predict
        // summary lines hoist them to a top-level "cycles".
        let cycles = run
            .get("prediction")
            .and_then(|p| p.get(Metric::SimCycles.name()))
            .or_else(|| run.get("cycles"))
            .and_then(minijson::Value::as_f64);
        let num = |v: Option<f64>, scale: f64, unit: &str| -> String {
            v.map_or_else(|| "-".into(), |v| format!("{:.1}{unit}", v * scale))
        };
        println!(
            "{:<8} {:<24} {:>4} {:>14} {:>8} {:>10}",
            text("scene", "?"),
            text("label", "predict"),
            run.get("k")
                .and_then(minijson::Value::as_u64)
                .map_or_else(|| "-".into(), |k| k.to_string()),
            num(cycles, 1.0, ""),
            num(run.get("mae").and_then(minijson::Value::as_f64), 100.0, "%"),
            num(
                run.get("sim_wall_ms").and_then(minijson::Value::as_f64),
                1.0,
                ""
            ),
        );
    }
    Ok(())
}

fn cmd_heatmap(args: &Args) -> Result<(), String> {
    let (_, scene, seed) = scene_from(args)?;
    let res = args.get_parsed("res", 256u32).map_err(|e| e.to_string())?;
    let spp = args.get_parsed("spp", 2u32).map_err(|e| e.to_string())?;
    let out = std::path::PathBuf::from(args.get("out").unwrap_or("target/heatmaps"));
    std::fs::create_dir_all(&out).map_err(|e| format!("creating '{}': {e}", out.display()))?;
    let trace = TraceConfig {
        samples_per_pixel: spp,
        max_bounces: 4,
        seed,
    };
    let heatmap = zatel::heatmap::Heatmap::profile(&scene, res, res, &trace);
    let quantized = zatel::quantize::QuantizedHeatmap::quantize(&heatmap, 8, seed);
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
