//! The four workloads: what they run, how their inputs come from the
//! seed, and how a run turns into metrics.
//!
//! A workload runs in a child process of its own (`main.rs` spawns it), so
//! `peak_rss_mb` is per workload. Everything here reaches the repository
//! through `layers.rs`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::layers::{mem_probes, Counts, Decomposed};
use crate::spans::{chrome_trace, Recorder};
use crate::stats::lower_quartile;
use crate::{in_process, serve_mix};

/// A workload's name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "predict-heavy",
        why: "cold predictions of warm scenes: most of the wall is cycle simulation of small filtered groups, the paper's core loop",
    },
    WorkloadDef {
        name: "predict-light",
        why: "cold predictions of cold scenes under a 10% cap: heatmap, k-means, selection and BVH build dominate and gpusim is the minority",
    },
    WorkloadDef {
        name: "full-sim",
        why: "full-frame simulation on the full-size GPU, unfiltered: the same engine in one long run, the denominator of the paper's speedup",
    },
    WorkloadDef {
        name: "serve-mix",
        why: "closed loop of 2 clients against an in-process server, 80% memory-tier hits and 20% misses: accept, route, queue, parse, cache, render",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    PredictHeavy,
    PredictLight,
    FullSim,
    ServeMix,
}

impl Kind {
    pub(crate) fn from_name(name: &str) -> Result<Kind, String> {
        match name {
            "predict-heavy" => Ok(Kind::PredictHeavy),
            "predict-light" => Ok(Kind::PredictLight),
            "full-sim" => Ok(Kind::FullSim),
            "serve-mix" => Ok(Kind::ServeMix),
            other => Err(format!(
                "unknown workload '{other}' (expected one of: {})",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        }
    }
}

/// How much work a run does. [`Sizing::FULL`] is what the committed
/// numbers come from; [`Sizing::SMOKE`] exists so the tests can drive all
/// four workloads and every check in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub(crate) heavy_res: u32,
    pub(crate) light_res: u32,
    pub(crate) full_res: u32,
    pub(crate) serve_res: u32,
    /// Timed passes a run never goes below, however short `--seconds` is.
    pub(crate) min_passes: usize,
    /// The same for `predict-light`, whose passes are short.
    pub(crate) light_min_passes: usize,
    /// Full set-ups per run; `setup_s` is their median.
    pub(crate) setup_reps: usize,
    /// Requests sent before the serve-mix clock starts.
    pub(crate) serve_warmup: u64,
    /// Requests per serve-mix pass.
    pub(crate) serve_block: usize,
    /// `Some((passes, requests))`: do exactly this much and ignore
    /// `--seconds`.
    pub(crate) fixed: Option<(usize, u64)>,
}

impl Sizing {
    /// The sizes the committed baseline was measured with. The issue's
    /// 128²/256² and 35 s of serving do not fit the contract's budget of
    /// 92 runs in 57 minutes, so passes were cut to the floor of five
    /// (nine for predict-light) and the resolutions then halved.
    pub const FULL: Sizing = Sizing {
        heavy_res: 64,
        light_res: 128,
        full_res: 64,
        serve_res: 32,
        min_passes: 5,
        light_min_passes: 9,
        setup_reps: 3,
        serve_warmup: 40,
        serve_block: 100,
        fixed: None,
    };

    /// 32², one pass, 40 requests.
    pub const SMOKE: Sizing = Sizing {
        heavy_res: 32,
        light_res: 32,
        full_res: 32,
        serve_res: 32,
        min_passes: 1,
        light_min_passes: 1,
        setup_reps: 1,
        serve_warmup: 8,
        serve_block: 20,
        fixed: Some((1, 40)),
    };
}

/// Hot request shapes of serve-mix.
pub(crate) const HOT_SHAPES: u64 = 16;
/// Share of serve-mix requests drawn from the hot shapes, in percent.
const HOT_PERCENT: u64 = 80;
/// Client threads of serve-mix; never more than the host's two cores.
pub(crate) const CLIENTS: usize = 2;

/// SplitMix64: the seed-to-input hash of every workload.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Request seed of input `index` of a workload; below 10⁶ so it can never
/// collide with a serve-mix miss seed.
fn input_seed(seed: u64, kind: Kind, index: u64) -> u64 {
    mix(mix(seed ^ ((kind as u64) << 56)) ^ index) % 1_000_000
}

/// The default pipeline options with `parallel:false` and an optional
/// selection cap. No thread knob is named: `jobs`, `sim_threads` and
/// `timing_threads` are optional in `zatel-api-v1` and left out.
fn options(percent_cap: Option<f64>, parallel: &str) -> String {
    let cap = percent_cap.map_or("null".to_owned(), |c| c.to_string());
    format!(
        "{{\"division\":{{\"method\":\"fine\",\"chunk_width\":32,\"chunk_height\":2}},\
         \"selection\":{{\"block_width\":32,\"block_height\":2,\"distribution\":\"uniform\",\
         \"clamp_lo\":0.3,\"clamp_hi\":0.6,\"percent_override\":null,\"percent_cap\":{cap},\
         \"seed\":388807}},\"quant_colors\":8,\"downscale\":\"natural\",{parallel}}}"
    )
}

pub(crate) const SERIAL: &str = "\"parallel\":false";

fn literal(scene: &str, config: &str, res: u32, spp: u32, seed: u64, options: &str) -> String {
    format!(
        "{{\"schema\":\"zatel-api-v1\",\"scene\":\"{scene}\",\"config\":\"{config}\",\
         \"res\":{res},\"spp\":{spp},\"seed\":{seed},\"options\":{options}}}"
    )
}

/// The request literals of one pass of an in-process workload.
pub(crate) fn pass_literals(kind: Kind, seed: u64, sizing: &Sizing, parallel: &str) -> Vec<String> {
    let (ops, res, cap): (&[(&str, &str)], u32, Option<f64>) = match kind {
        Kind::PredictHeavy => (
            &[
                ("PARK", "mobile"),
                ("BUNNY", "mobile"),
                ("BATH", "mobile"),
                ("PARK", "rtx2060"),
            ],
            sizing.heavy_res,
            None,
        ),
        Kind::PredictLight => (
            &[
                ("SHIP", "mobile"),
                ("SPRNG", "mobile"),
                ("CHSNT", "mobile"),
                ("WKND", "mobile"),
            ],
            sizing.light_res,
            Some(0.10),
        ),
        Kind::FullSim => (
            &[("PARK", "mobile"), ("BATH", "mobile"), ("PARK", "rtx2060")],
            sizing.full_res,
            None,
        ),
        Kind::ServeMix => (&[], sizing.serve_res, None),
    };
    ops.iter()
        .enumerate()
        .map(|(i, (scene, config))| {
            let seed = input_seed(seed, kind, i as u64);
            literal(scene, config, res, 2, seed, &options(cap, parallel))
        })
        .collect()
}

/// Request `index` of the serve-mix stream: with [`HOT_PERCENT`] % one of
/// the hot shapes, else a seed no earlier request used. Returns the
/// literal and whether it is a hot shape.
pub(crate) fn serve_literal(seed: u64, index: u64, sizing: &Sizing) -> (String, Option<u64>) {
    let h = mix(mix(seed ^ ((Kind::ServeMix as u64) << 56)) ^ mix(index));
    if h % 100 < HOT_PERCENT {
        let shape = (h / 100) % HOT_SHAPES;
        (hot_literal(seed, shape, sizing), Some(shape))
    } else {
        let scene = if (h >> 40) & 1 == 0 { "SPRNG" } else { "SHIP" };
        let miss_seed = 1_000_000 + (h >> 41) % 1_000_000_000;
        (
            literal(scene, "mobile", sizing.serve_res, 1, miss_seed, "null"),
            None,
        )
    }
}

pub(crate) fn hot_literal(seed: u64, shape: u64, sizing: &Sizing) -> String {
    let scene = if shape.is_multiple_of(2) {
        "SPRNG"
    } else {
        "SHIP"
    };
    let shape_seed = input_seed(seed, Kind::ServeMix, shape);
    literal(scene, "mobile", sizing.serve_res, 1, shape_seed, "null")
}

/// The first `count` request literals `workload` sends for `seed`: the
/// passes of an in-process workload back to back, or the serve-mix stream.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
#[cfg(test)]
pub fn request_list(
    workload: &str,
    seed: u64,
    sizing: &Sizing,
    count: usize,
) -> Result<Vec<String>, String> {
    let kind = Kind::from_name(workload)?;
    Ok(match kind {
        Kind::ServeMix => (0..count as u64)
            .map(|i| serve_literal(seed, i, sizing).0)
            .collect(),
        _ => pass_literals(kind, seed, sizing, SERIAL)
            .into_iter()
            .cycle()
            .take(count)
            .collect(),
    })
}

/// Everything a workload's child process needs to know.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizing: Sizing,
    /// `benchmark/out`: temp dirs and trace files go here.
    pub out_dir: PathBuf,
    /// The benchmark's own executable, for the thread-knob probes, which
    /// set `ZATEL_*` on a child process.
    pub exe: PathBuf,
    /// Extra arguments the probe children need to run the same sizes.
    pub exe_args: Vec<String>,
}

/// What one run of one workload measured.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Timed passes (blocks of requests for serve-mix).
    pub passes: usize,
    /// Timed operations: the sample count behind `req_p50_ms`/`req_p95_ms`.
    pub operations: usize,
    pub end_to_end: BTreeMap<String, f64>,
    /// Empty unless the run was traced.
    pub per_layer: BTreeMap<String, f64>,
    /// Per-pass values behind the medians, for `compare`'s spread.
    pub samples: BTreeMap<String, Vec<f64>>,
    pub notes: Vec<String>,
}

impl WorkloadResult {
    pub(crate) fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("reading VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// A directory under `out_dir` that is deleted when the value drops.
pub(crate) struct TempDir(pub(crate) PathBuf);

impl TempDir {
    pub(crate) fn create(out_dir: &Path, tag: &str) -> Result<TempDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir.join(format!(
            "tmp-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failed clean-up here; the
        // directory is under the git-ignored `out/`.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload and returns its metrics.
///
/// # Errors
///
/// Returns a message when set-up fails; failures of timed operations are
/// counted in the result instead.
pub fn run_workload(args: &RunArgs) -> Result<WorkloadResult, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let kind = Kind::from_name(&args.workload)?;
    let mut result = match kind {
        Kind::ServeMix => serve_mix::run(args)?,
        _ => in_process::run(kind, args)?,
    };
    result.workload = args.workload.clone();
    result
        .end_to_end
        .insert("peak_rss_mb".to_owned(), peak_rss_mb()?);
    Ok(result)
}

/// Fails unless `got` is byte for byte what the first run of the same
/// operation produced.
pub(crate) fn same(got: &str, want: &str, label: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{label}: the output differs from the first run of the same operation"
        ))
    }
}

// --- Shared by the traced runs ----------------------------------------------

/// Per-layer values collected while tracing; anything not inserted reads 0.
pub(crate) type Layers = BTreeMap<&'static str, f64>;

/// Milliseconds one pass spends in spans named `span`, summarised like the
/// untraced wall: each operation kind's total by its lower quartile over
/// the traced passes, then summed over the kinds. Operation ids count up
/// through the passes, so ids equal modulo `kinds` are one kind.
pub(crate) fn steady_ms(rec: &Recorder, span: &str, kinds: usize) -> f64 {
    let mut by_kind = vec![Vec::new(); kinds];
    for (id, durations) in rec.durations_by_op(span) {
        by_kind[id as usize % kinds].push(durations.iter().sum::<f64>());
    }
    by_kind
        .iter()
        .filter(|totals| !totals.is_empty())
        .map(|totals| lower_quartile(totals))
        .sum()
}

/// The per-layer metrics that come out of operations re-performed step by
/// step, whatever the workload: span time per pass, throughputs derived
/// from it, the model counts and the memory-model probes. `ops` is one
/// pass's operations; `rec` holds the spans of one or more such passes.
pub(crate) fn decomposition_layers(rec: &Recorder, ops: &[Decomposed], layers: &mut Layers) {
    let per_pass = |span: &str| steady_ms(rec, span, ops.len());
    for (metric, span) in [
        ("rtcore.scene_build_ms", "rtcore.scene_build"),
        ("rtcore.bvh_build_ms", "rtcore.bvh_build"),
        ("rtcore.profile_costs_ms", "rtcore.profile_costs"),
        ("zatel.heatmap_ms", "zatel.heatmap"),
        ("zatel.quantize_ms", "zatel.quantize"),
        ("zatel.divide_ms", "zatel.divide"),
        ("zatel.select_ms", "zatel.select"),
        ("zatel.group_sim_ms", "zatel.group_sim"),
        ("rtworkload.build_ms", "rtworkload.build"),
        ("rtworkload.decode_drain_ms", "rtworkload.decode_drain"),
        ("gpusim.run_ms", "gpusim.run"),
    ] {
        layers.insert(metric, per_pass(span));
    }
    layers.insert("zatel.extrapolate_us", per_pass("zatel.extrapolate") * 1e3);
    let sum = |field: fn(&Decomposed) -> u64| ops.iter().map(field).sum::<u64>() as f64;
    layers.insert("rtcore.bvh_nodes", sum(|d| d.bvh_nodes));
    layers.insert("rtcore.profile_work_units", sum(|d| d.work_units));

    // Only predictions profile a heatmap, select pixels and run groups.
    let profile_ms = per_pass("rtcore.profile_costs");
    if profile_ms > 0.0 {
        layers.insert(
            "rtcore.profile_mpix_per_s",
            sum(|d| d.threads) / 1e6 / (profile_ms / 1e3),
        );
        layers.insert(
            "zatel.traced_fraction",
            ops.iter().map(|d| d.traced_fraction).sum::<f64>() / ops.len() as f64,
        );
        layers.insert(
            "zatel.filtered_thread_share",
            sum(|d| d.filtered_threads) / sum(|d| d.threads),
        );
        // Slowest over mean group wall, averaged over the operations.
        let imbalance: Vec<f64> = rec
            .durations_by_op("zatel.group_sim")
            .values()
            .map(|g| {
                g.iter().copied().fold(0.0, f64::max) / (g.iter().sum::<f64>() / g.len() as f64)
            })
            .collect();
        layers.insert(
            "zatel.group_imbalance",
            imbalance.iter().sum::<f64>() / imbalance.len() as f64,
        );
    }

    let mut counts = Counts::default();
    for d in ops {
        counts.merge(&d.counts);
    }
    let run_ms = per_pass("gpusim.run");
    let drain_ms = per_pass("rtworkload.decode_drain");
    let decoded = sum(|d| d.decoded_ops);
    layers.insert("rtworkload.ops", decoded);
    layers.insert("rtworkload.mops_per_s", decoded / 1e6 / (drain_ms / 1e3));
    layers.insert("rtworkload.decode_share", drain_ms / run_ms);
    layers.insert(
        "gpusim.mcycles_per_s",
        counts.cycles() / 1e6 / (run_ms / 1e3),
    );
    layers.insert(
        "gpusim.us_per_phase",
        run_ms * 1e3 / counts.rt_warp_phases(),
    );
    // What `Simulator::run` spends beyond decoding thread programs: the
    // commit loop and the memory model.
    layers.insert("gpusim.commit_residual_ms", run_ms - drain_ms);
    layers.extend(counts.model_metrics());
    layers.extend(mem_probes(&ops[0].addresses));
}

/// Writes the trace file, files the overhead and flags the layer table
/// when tracing cost more than 5 %.
pub(crate) fn finish_trace(
    args: &RunArgs,
    events: &[String],
    overhead_pct: f64,
    mut layers: Layers,
    result: &mut WorkloadResult,
) -> Result<(), String> {
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, chrome_trace(events))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    layers.insert("bench.trace_overhead_pct", overhead_pct);
    if overhead_pct > 5.0 {
        result.notes.push(format!(
            "the traced pass took {overhead_pct:.1} % longer than the untraced one (> 5 %): \
             the layer table of this run is untrustworthy"
        ));
    }
    // The other direction is not overhead: the step-by-step pass is the
    // faster one when the black box does work no step re-performs.
    if overhead_pct < -5.0 {
        result.notes.push(format!(
            "the black box spends {:.1} % of its wall outside the steps re-performed here \
             (zatel.execute_self_ms): the layer table leaves that share unexplained",
            -overhead_pct
        ));
    }
    result.per_layer.extend(
        layers
            .into_iter()
            .map(|(name, value)| (name.to_owned(), value)),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Request;

    #[test]
    fn same_seed_gives_the_same_request_list() {
        for workload in WORKLOADS {
            let a = request_list(workload.name, 42, &Sizing::FULL, 64).expect("list");
            let b = request_list(workload.name, 42, &Sizing::FULL, 64).expect("list");
            let c = request_list(workload.name, 7, &Sizing::FULL, 64).expect("list");
            assert_eq!(a, b, "{}", workload.name);
            assert_ne!(a, c, "{}", workload.name);
            assert_eq!(a.len(), 64);
            for text in &a {
                Request::parse(text).expect("every generated literal is a valid request");
                assert!(
                    !text.contains("threads") && !text.contains("jobs"),
                    "{text}"
                );
            }
        }
    }

    #[test]
    fn serve_stream_is_four_fifths_hot() {
        let n = 4000;
        let hot = (0..n)
            .filter(|&i| serve_literal(42, i, &Sizing::FULL).1.is_some())
            .count();
        assert!((3000..3400).contains(&hot), "{hot} of {n} hot");
        // A miss never repeats a seed and never lands on a hot one.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..n {
            if let (text, None) = serve_literal(42, i, &Sizing::FULL) {
                assert!(seen.insert(text));
            }
        }
    }
}
