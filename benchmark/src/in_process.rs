//! The three in-process workloads: `predict-heavy`, `predict-light` and
//! `full-sim`. One pass runs the workload's operations once, each from a
//! cold cache; a run is set-up, then passes until `--seconds` have gone by.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use crate::calibrate::{calibrated, kernel_s};
use crate::layers::{
    decompose_full, decompose_predict, full_sim, predict, proto_probes, Cache, Decomposed,
    Predicted, Request,
};
use crate::spans::Recorder;
use crate::stats::{lower_quartile, median, percentile};
use crate::workloads::{
    decomposition_layers, finish_trace, pass_literals, same, steady_ms, Kind, Layers, RunArgs,
    Sizing, WorkloadResult, SERIAL,
};

/// What set-up leaves behind for the timed passes and the probes.
struct Prepared {
    requests: Vec<Request>,
    /// Per operation, the output every later run of it must reproduce
    /// byte for byte.
    baselines: Vec<String>,
    /// Per operation, the prediction's seven-metric MAE against the full
    /// simulation, as a ratio.
    mae: Vec<f64>,
    full_wall_s: Vec<f64>,
    predict_wall_s: Vec<f64>,
    slowest_group_s: Vec<f64>,
    predictions: Vec<Predicted>,
}

/// One set-up: parse the pass's requests, run the full simulation and the
/// prediction of each once. That is the reference `mae_pct` needs, the
/// warm-up pass, and the baseline of the byte-identity check, whichever of
/// the two the workload then times.
fn prepare(kind: Kind, seed: u64, sizing: &Sizing) -> Result<Prepared, String> {
    let mut p = Prepared {
        requests: Vec::new(),
        baselines: Vec::new(),
        mae: Vec::new(),
        full_wall_s: Vec::new(),
        predict_wall_s: Vec::new(),
        slowest_group_s: Vec::new(),
        predictions: Vec::new(),
    };
    for text in pass_literals(kind, seed, sizing, SERIAL) {
        let request = Request::parse(&text)?;
        let start = Instant::now();
        let full = full_sim(&request)?;
        p.full_wall_s.push(start.elapsed().as_secs_f64());
        full.check(&request)?;
        let start = Instant::now();
        let predicted = predict(&request, &Cache::cold())?;
        p.predict_wall_s.push(start.elapsed().as_secs_f64());
        predicted.check(&request)?;
        p.baselines.push(if kind == Kind::FullSim {
            full.digest()
        } else {
            predicted.deterministic()
        });
        p.mae.push(predicted.mae_vs(&full));
        p.slowest_group_s.push(predicted.slowest_group_s());
        p.predictions.push(predicted);
        p.requests.push(request);
    }
    Ok(p)
}

/// One black-box operation: wall in seconds, simulated cycles, and the
/// first failed check if any.
fn run_op(kind: Kind, request: &Request, baseline: &str) -> (f64, u64, Result<(), String>) {
    let start = Instant::now();
    let (wall, outcome) = if kind == Kind::FullSim {
        let full = full_sim(request);
        let wall = start.elapsed().as_secs_f64();
        (
            wall,
            full.map(|f| (f.check(request), f.digest(), f.sim_cycles())),
        )
    } else {
        let predicted = predict(request, &Cache::cold());
        let wall = start.elapsed().as_secs_f64();
        (
            wall,
            predicted.map(|p| (p.check(request), p.deterministic(), p.sim_cycles())),
        )
    };
    match outcome {
        Ok((checked, output, cycles)) => {
            let verdict = checked.and_then(|()| same(&output, baseline, &request.label));
            (wall, cycles, verdict)
        }
        Err(e) => (wall, 0, Err(e)),
    }
}

/// One timed pass over `requests`.
struct Pass {
    cycles: u64,
    /// Raw wall of each operation, in request order.
    raw_s: Vec<f64>,
    /// The same scaled to the reference host speed (`calibrate`).
    op_s: Vec<f64>,
    /// The kernel readings taken around the operations.
    kernel_s: Vec<f64>,
}

fn black_box_pass(
    kind: Kind,
    requests: &[Request],
    baselines: &[String],
    result: &mut WorkloadResult,
) -> Pass {
    let mut pass = Pass {
        cycles: 0,
        raw_s: Vec::with_capacity(requests.len()),
        op_s: Vec::with_capacity(requests.len()),
        kernel_s: vec![kernel_s()],
    };
    for (request, baseline) in requests.iter().zip(baselines) {
        let (wall, cycles, verdict) = run_op(kind, request, baseline);
        result.attempted += 1;
        if let Err(e) = verdict {
            result.fail(e);
        }
        // One reading serves as this operation's "after" and the next
        // one's "before".
        let before = pass.kernel_s[pass.kernel_s.len() - 1];
        let after = kernel_s();
        pass.kernel_s.push(after);
        pass.cycles += cycles;
        pass.raw_s.push(wall);
        pass.op_s.push(calibrated(wall, before, after));
    }
    pass
}

/// Each operation's wall summarised over the passes first (see
/// `lower_quartile`), so a slow spell during one operation of one pass does
/// not taint the whole pass; a pass is then the sum of its operations.
fn steady_ops(passes: &[Pass], wall_of: fn(&Pass) -> &[f64]) -> Vec<f64> {
    (0..wall_of(&passes[0]).len())
        .map(|i| lower_quartile(&passes.iter().map(|p| wall_of(p)[i]).collect::<Vec<_>>()))
        .collect()
}

fn timed_passes(
    kind: Kind,
    prepared: &Prepared,
    min_passes: usize,
    seconds: f64,
    fixed: Option<usize>,
    result: &mut WorkloadResult,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let enough = match fixed {
            Some(n) => passes.len() >= n,
            None => passes.len() >= min_passes && start.elapsed().as_secs_f64() >= seconds,
        };
        if enough {
            return passes;
        }
        passes.push(black_box_pass(
            kind,
            &prepared.requests,
            &prepared.baselines,
            result,
        ));
    }
}

pub(crate) fn run(kind: Kind, args: &RunArgs) -> Result<WorkloadResult, String> {
    let sizing = &args.sizing;
    let mut result = WorkloadResult::default();
    let min_passes = if kind == Kind::PredictLight {
        sizing.light_min_passes
    } else {
        sizing.min_passes
    };
    let fixed = sizing.fixed.map(|(passes, _)| passes);

    // The traced run reports no `setup_s`, so it sets up once.
    let reps = if args.trace { 1 } else { sizing.setup_reps };
    let mut setup_s = Vec::with_capacity(reps);
    let mut prepared = None;
    for _ in 0..reps {
        let before = kernel_s();
        let start = Instant::now();
        prepared = Some(prepare(kind, args.seed, sizing)?);
        let raw = start.elapsed().as_secs_f64();
        setup_s.push(calibrated(raw, before, kernel_s()));
    }
    let prepared = prepared.ok_or("setup_reps must be at least 1")?;

    let (passes, traced) = if args.trace {
        let (passes, rec, last) = interleaved_passes(kind, &prepared, fixed, &mut result)?;
        (passes, Some((rec, last)))
    } else {
        let passes = timed_passes(
            kind,
            &prepared,
            min_passes,
            args.seconds,
            fixed,
            &mut result,
        );
        (passes, None)
    };

    let op_s = steady_ops(&passes, |p| &p.op_s);
    let wall_s: f64 = op_s.iter().sum();
    // Simulated cycles repeat exactly from pass to pass.
    let cycles = passes[0].cycles as f64;
    let mae_pct = 100.0 * prepared.mae.iter().sum::<f64>() / prepared.mae.len() as f64;
    let op_ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
    result.passes = passes.len();
    result.operations = passes.len() * op_s.len();
    result.end_to_end = BTreeMap::from([
        ("setup_s".to_owned(), median(&setup_s)),
        ("wall_s".to_owned(), wall_s),
        ("sim_mcycles_per_s".to_owned(), cycles / wall_s / 1e6),
        ("mae_pct".to_owned(), mae_pct),
        ("req_per_s".to_owned(), op_s.len() as f64 / wall_s),
        // Over the mix of operation kinds: its median and its slowest.
        ("req_p50_ms".to_owned(), median(&op_ms)),
        ("req_p95_ms".to_owned(), percentile(&op_ms, 95.0)),
    ]);
    let walls: Vec<f64> = passes.iter().map(|p| p.op_s.iter().sum()).collect();
    result.samples.insert("setup_s".to_owned(), setup_s);
    result.samples.insert(
        "sim_mcycles_per_s".to_owned(),
        walls.iter().map(|w| cycles / w / 1e6).collect(),
    );
    result.samples.insert("wall_s".to_owned(), walls);
    // What the calibrated times were made from.
    result.samples.insert(
        "raw_wall_s".to_owned(),
        passes.iter().map(|p| p.raw_s.iter().sum()).collect(),
    );
    result.samples.insert(
        "kernel_s".to_owned(),
        passes
            .iter()
            .flat_map(|p| p.kernel_s.iter().copied())
            .collect(),
    );

    if let Some((rec, last)) = traced {
        // Spans are raw wall-clock, so they are compared with raw walls.
        let raw_wall_s = steady_ops(&passes, |p| &p.raw_s).iter().sum();
        trace(kind, args, &prepared, raw_wall_s, &rec, &last, &mut result)?;
    }
    Ok(result)
}

/// The passes of a traced run: black-box and step-by-step passes take
/// turns, so a slow spell of the host falls on both kinds and the two
/// walls stay comparable. A traced run spends its time on the probes, so
/// three of each is all it does.
fn interleaved_passes(
    kind: Kind,
    prepared: &Prepared,
    fixed: Option<usize>,
    result: &mut WorkloadResult,
) -> Result<(Vec<Pass>, Recorder, Vec<Decomposed>), String> {
    let mut passes = Vec::new();
    let mut rec = Recorder::new();
    let mut last = Vec::new();
    let mut op_id = 0u32;
    for _ in 0..fixed.unwrap_or(3) {
        passes.push(black_box_pass(
            kind,
            &prepared.requests,
            &prepared.baselines,
            result,
        ));
        last = decompose_pass(kind, prepared, &mut rec, &mut op_id, result)?;
    }
    Ok((passes, rec, last))
}

/// The traced part of a run: the per-layer metrics of the passes
/// re-performed step by step, then the probes that need no spans.
fn trace(
    kind: Kind,
    args: &RunArgs,
    prepared: &Prepared,
    untraced_wall_s: f64,
    rec: &Recorder,
    last: &[Decomposed],
    result: &mut WorkloadResult,
) -> Result<(), String> {
    let mut layers = Layers::new();
    decomposition_layers(rec, last, &mut layers);
    // Everything inside the `op` spans is a step, so their wall is both
    // the traced pass's wall and the sum of the steps.
    let traced_wall_ms = steady_ms(rec, "op", last.len());

    // Speedups of the paper: full simulation over prediction, host time.
    let full: f64 = prepared.full_wall_s.iter().sum();
    layers.insert(
        "zatel.speedup_serial",
        full / prepared.predict_wall_s.iter().sum::<f64>(),
    );
    layers.insert(
        "zatel.speedup_concurrent",
        full / prepared.slowest_group_s.iter().sum::<f64>(),
    );
    for (request, mae) in prepared.requests.iter().zip(&prepared.mae) {
        result
            .per_layer
            .insert(format!("zatel.mae_pct.{}", request.label), 100.0 * mae);
    }

    if kind != Kind::FullSim {
        // What the black box spends outside the steps re-performed here:
        // validation, cache bookkeeping, span sheets, response assembly.
        layers.insert(
            "zatel.execute_self_ms",
            untraced_wall_s * 1e3 - traced_wall_ms,
        );
        layers.extend(proto_probes(
            &prepared.requests[0],
            &prepared.predictions[0],
        )?);
        layers.insert(
            "zatel.jobs2_speedup",
            jobs2_speedup(kind, args, prepared, untraced_wall_s, result)?,
        );
    }
    if kind == Kind::PredictHeavy {
        layers.insert("obs.observe_overhead_pct", observe_overhead(args, result)?);
    }
    if matches!(kind, Kind::PredictHeavy | Kind::FullSim) {
        let serial = probe_child(args, None)?;
        for (metric, knob) in [
            ("gpusim.sim_threads2_speedup", "ZATEL_SIM_THREADS"),
            ("gpusim.timing_threads2_speedup", "ZATEL_TIMING_THREADS"),
        ] {
            let threaded = probe_child(args, Some(knob))?;
            result.attempted += 1;
            if threaded.1 == serial.1 {
                layers.insert(metric, serial.0 / threaded.0);
            } else {
                result.fail(format!("{knob}=2 changed the simulated statistics"));
            }
        }
    }

    let overhead = 100.0 * (traced_wall_ms / 1e3 - untraced_wall_s) / untraced_wall_s;
    finish_trace(args, &rec.chrome_events(1), overhead, layers, result)
}

/// Re-performs one pass step by step and checks every operation's metric
/// vector against the black box's.
fn decompose_pass(
    kind: Kind,
    prepared: &Prepared,
    rec: &mut Recorder,
    op_id: &mut u32,
    result: &mut WorkloadResult,
) -> Result<Vec<Decomposed>, String> {
    let mut out = Vec::with_capacity(prepared.requests.len());
    for (i, request) in prepared.requests.iter().enumerate() {
        let d = if kind == Kind::FullSim {
            decompose_full(request, *op_id, rec)?
        } else {
            decompose_predict(request, *op_id, rec)?
        };
        *op_id += 1;
        result.attempted += 1;
        let exact = if kind == Kind::FullSim {
            d.digest == prepared.baselines[i]
        } else {
            d.values
                .iter()
                .zip(prepared.predictions[i].values())
                .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        if !exact {
            result.fail(format!(
                "{}: the step-by-step run does not reproduce the black-box metric vector",
                request.label
            ));
        }
        out.push(d);
    }
    Ok(out)
}

/// One pass with `parallel:true, jobs:2` against the serial wall: what
/// the paper's own parallelism delivers on this host.
fn jobs2_speedup(
    kind: Kind,
    args: &RunArgs,
    prepared: &Prepared,
    serial_wall_s: f64,
    result: &mut WorkloadResult,
) -> Result<f64, String> {
    let requests = pass_literals(
        kind,
        args.seed,
        &args.sizing,
        "\"parallel\":true,\"jobs\":2",
    )
    .iter()
    .map(|text| Request::parse(text))
    .collect::<Result<Vec<_>, _>>()?;
    let pass = black_box_pass(kind, &requests, &prepared.baselines, result);
    Ok(serial_wall_s / pass.raw_s.iter().sum::<f64>())
}

/// PARK/mobile predicted with `observe` on against off, two runs each.
fn observe_overhead(args: &RunArgs, result: &mut WorkloadResult) -> Result<f64, String> {
    let kind = Kind::PredictHeavy;
    let plain = pass_literals(kind, args.seed, &args.sizing, SERIAL).swap_remove(0);
    let observed = pass_literals(
        kind,
        args.seed,
        &args.sizing,
        "\"parallel\":false,\"observe\":{\"timeline\":true,\"max_timeline_events\":1048576}",
    )
    .swap_remove(0);
    let (plain, observed) = (Request::parse(&plain)?, Request::parse(&observed)?);
    let baseline = predict(&plain, &Cache::cold())?.deterministic();
    let mut walls = [Vec::new(), Vec::new()];
    for _ in 0..2 {
        for (slot, request) in walls.iter_mut().zip([&plain, &observed]) {
            let (wall, _, verdict) = run_op(kind, request, &baseline);
            result.attempted += 1;
            if let Err(e) = verdict {
                result.fail(format!("observe probe: {e}"));
            }
            slot.push(wall);
        }
    }
    Ok(100.0 * (median(&walls[1]) - median(&walls[0])) / median(&walls[0]))
}

/// Runs one black-box pass in a child process with `knob=2` (or no knob)
/// in its environment; returns its wall and a digest of its outputs.
fn probe_child(args: &RunArgs, knob: Option<&str>) -> Result<(f64, String), String> {
    let mut command = Command::new(&args.exe);
    command
        .arg("probe-pass")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(&args.exe_args);
    if let Some(knob) = knob {
        command.env(knob, "2");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning the {knob:?} probe: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {knob:?} probe exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut fields = text.split_whitespace();
    let wall = fields.next().and_then(|w| w.parse::<f64>().ok());
    match (wall, fields.next()) {
        (Some(wall), Some(digest)) => Ok((wall, digest.to_owned())),
        _ => Err(format!("the {knob:?} probe printed '{}'", text.trim())),
    }
}

/// The body of a probe child: one untimed-set-up-free black-box pass.
/// Prints `<wall seconds> <digest of every operation's output>`.
///
/// # Errors
///
/// Returns a message when an operation fails.
pub fn probe_pass(workload: &str, seed: u64, sizing: &Sizing) -> Result<String, String> {
    let kind = Kind::from_name(workload)?;
    let mut wall = 0.0;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for text in pass_literals(kind, seed, sizing, SERIAL) {
        let request = Request::parse(&text)?;
        let start = Instant::now();
        let output = if kind == Kind::FullSim {
            full_sim(&request)?.digest()
        } else {
            predict(&request, &Cache::cold())?.deterministic()
        };
        wall += start.elapsed().as_secs_f64();
        for byte in output.bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(format!("{wall} {digest:016x}"))
}
