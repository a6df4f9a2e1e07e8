//! The one file that calls into the repository's crates.
//!
//! Everything the workloads and probes need from `rtcore`, `rtworkload`,
//! `gpusim`, `zatel`, `minijson`, `zatel-proto` and `zatel-serve` goes
//! through a function here, so a refactor of any layer breaks this file
//! and nothing else in the benchmark.
//!
//! End-to-end operations use only the versioned surface: a `zatel-api-v1`
//! request literal is parsed with `PredictRequest::from_json` and executed
//! with `zatel_serve::execute_predict`, `Zatel::run_reference` or an HTTP
//! `POST /v1/predict` against a [`LiveServer`]. The step-by-step functions
//! ([`decompose_predict`], [`decompose_full`]) re-perform the same
//! operation through the layers' public functions with a span around each
//! call; they feed the per-layer metrics only.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use gpusim::mem::{Cache as TagCache, DramChannel, MemoryHierarchy, Probe};
use gpusim::{GpuConfig, Metric, SimStats, Simulator, Workload};
use minijson::{FromJson, ToJson};
use rtcore::bvh::Bvh;
use rtcore::scene::Scene;
use rtcore::scenes::SceneId;
use rtcore::tracer::{profile_costs, TraceConfig};
use rtworkload::RtWorkload;
use zatel::heatmap::Heatmap;
use zatel::partition::divide;
use zatel::quantize::QuantizedHeatmap;
use zatel::select::select_pixels;
use zatel::stages::HeatmapStage;
use zatel::{ArtifactCache, CacheOutcome, DiskTier, DownscaleMode, TieredCache, Zatel};
use zatel_proto::{PredictRequest, PredictResponse};
use zatel_serve::server::ServeHandle;
use zatel_serve::service::MAX_BOUNCES;
use zatel_serve::{execute_predict, HttpClient, PredictOutput, ServeConfig, ServeReport, Server};

use crate::spans::Recorder;
use crate::stats::median;

/// JSON as the runner reads it back (child results, result files,
/// `BENCHMARK.json`): the repository's own `minijson` value.
pub type Json = minijson::Value;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns the parser's message.
pub fn parse_json(text: &str) -> Result<Json, String> {
    Json::parse(text).map_err(|e| e.to_string())
}

/// Milliseconds `f` took, and its result.
fn timed_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Median over `reps` calls of the microseconds one call of `f` takes.
fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (ms, out) = timed_ms(&mut f);
            black_box(out);
            ms * 1e3
        })
        .collect();
    median(&samples)
}

// --- Requests ---------------------------------------------------------------

/// A parsed `zatel-api-v1` predict request plus the literal it came from.
#[derive(Debug, Clone)]
pub struct Request {
    inner: PredictRequest,
    doc: Json,
    /// The literal the request was parsed from.
    pub literal: String,
    /// `SCENE-config`, as used in metric names.
    pub label: String,
}

impl Request {
    /// Parses and validates a request literal.
    ///
    /// # Errors
    ///
    /// Returns a message when the literal is not a valid request.
    pub fn parse(literal: &str) -> Result<Request, String> {
        let doc = parse_json(literal)?;
        let inner = PredictRequest::from_json(&doc).map_err(|e| e.to_string())?;
        inner.validate()?;
        let label = format!("{}-{}", inner.scene, inner.config.label());
        Ok(Request {
            inner,
            doc,
            literal: literal.to_owned(),
            label,
        })
    }

    /// Image pixels (`res²`).
    pub fn pixels(&self) -> u64 {
        u64::from(self.inner.res) * u64::from(self.inner.res)
    }

    fn scene_id(&self) -> Result<SceneId, String> {
        rtcore::scenes::by_name(&self.inner.scene)
            .ok_or_else(|| format!("unknown scene '{}'", self.inner.scene))
    }

    fn trace(&self) -> TraceConfig {
        TraceConfig {
            samples_per_pixel: self.inner.spp,
            max_bounces: MAX_BOUNCES,
            seed: self.inner.seed,
        }
    }

    fn gpu(&self) -> Result<GpuConfig, String> {
        self.inner.config.resolve()
    }
}

/// The artifact cache an in-process prediction runs through.
#[derive(Debug)]
pub struct Cache(ArtifactCache);

impl Cache {
    /// A fresh in-memory cache: every stage of the next prediction computes.
    pub fn cold() -> Cache {
        Cache(ArtifactCache::in_memory())
    }
}

// --- Black-box operations ---------------------------------------------------

/// The outcome of one `execute_predict` call.
#[derive(Debug)]
pub struct Predicted(PredictOutput);

/// Executes `request` through `cache`, exactly as `zatel predict` and a
/// `zatel serve` worker do.
///
/// # Errors
///
/// Returns the service error's message.
pub fn predict(request: &Request, cache: &Cache) -> Result<Predicted, String> {
    execute_predict(&request.inner, &cache.0)
        .map(Predicted)
        .map_err(|e| e.to_string())
}

impl Predicted {
    /// The wall-clock-free response subset, serialized.
    pub fn deterministic(&self) -> String {
        self.0.response.deterministic_json().to_string()
    }

    /// Simulated cycles summed over every group simulation.
    pub fn sim_cycles(&self) -> u64 {
        self.0.response.groups.iter().map(|g| g.cycles).sum()
    }

    /// The seven predicted metric values.
    pub fn values(&self) -> [f64; 7] {
        self.0.response.prediction.0
    }

    /// Wall of the slowest group simulation, in seconds.
    pub fn slowest_group_s(&self) -> f64 {
        self.0
            .response
            .groups
            .iter()
            .map(|g| g.wall_ms / 1e3)
            .fold(0.0, f64::max)
    }

    /// Seven-metric mean absolute error against `full`, as a ratio.
    pub fn mae_vs(&self, full: &FullSim) -> f64 {
        self.0.prediction.mae_vs(&full.stats)
    }

    /// The full wire response, rendered.
    pub fn render(&self) -> String {
        self.0.response.to_json().to_string()
    }

    /// Checks that do not need a reference: values finite and in range,
    /// `k` by the gcd rule, each group's traced share within one selection
    /// block of its target.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated condition.
    pub fn check(&self, request: &Request) -> Result<(), String> {
        check_response(&self.0.response, request)
    }
}

/// Every metric value finite and non-negative, cycles and IPC positive. A
/// miss rate of exactly 0 is a legitimate result of a small sampled run, so
/// only the two metrics that cannot be 0 are required to be positive.
fn check_values(values: [f64; 7], label: &str) -> Result<(), String> {
    for (metric, value) in Metric::ALL.iter().zip(values) {
        let positive = !matches!(metric, Metric::Ipc | Metric::SimCycles) || value > 0.0;
        if !(value.is_finite() && value >= 0.0 && positive) {
            return Err(format!(
                "{label}: {} = {value} is not a finite, non-negative value",
                metric.name()
            ));
        }
    }
    Ok(())
}

fn check_response(response: &PredictResponse, request: &Request) -> Result<(), String> {
    check_values(response.prediction.0, &request.label)?;
    let gpu = request.gpu()?;
    let options = request.inner.options.clone().unwrap_or_default();
    let expected_k = match options.downscale {
        DownscaleMode::Natural => gpusim::gcd(gpu.num_sms, gpu.num_mem_partitions),
        DownscaleMode::Factor(f) => f,
        DownscaleMode::NoDownscale => 1,
    };
    if response.k != expected_k {
        return Err(format!(
            "{}: k = {} but the gcd rule gives {expected_k}",
            request.label, response.k
        ));
    }
    if response.groups.len() != expected_k as usize {
        return Err(format!(
            "{}: {} groups for k = {expected_k}",
            request.label,
            response.groups.len()
        ));
    }
    let block =
        f64::from(options.selection.block_width) * f64::from(options.selection.block_height);
    for group in &response.groups {
        let off = (group.traced_fraction - group.target_percent).abs() * group.pixels as f64;
        if off > block {
            return Err(format!(
                "{}: group {} traces {:.4} of its pixels against a target of {:.4}",
                request.label, group.index, group.traced_fraction, group.target_percent
            ));
        }
    }
    Ok(())
}

/// Checks a served response body against the request it answers and
/// returns `(deterministic subset, simulated cycles)`.
///
/// # Errors
///
/// Returns a message when the body is not a valid response or fails
/// [`Predicted::check`]'s conditions.
pub fn check_served(body: &str, request: &Request) -> Result<(String, u64), String> {
    let doc = parse_json(body)?;
    let response = PredictResponse::from_json(&doc).map_err(|e| e.to_string())?;
    check_response(&response, request)?;
    let cycles = response.groups.iter().map(|g| g.cycles).sum();
    Ok((response.deterministic_json().to_string(), cycles))
}

/// The outcome of one full (unsampled, full-size GPU) simulation.
#[derive(Debug, Clone)]
pub struct FullSim {
    stats: SimStats,
}

/// Runs `Zatel::run_reference()` for the request's scene, config,
/// resolution and seed.
///
/// # Errors
///
/// Returns a message for an unknown scene or config.
pub fn full_sim(request: &Request) -> Result<FullSim, String> {
    let scene = request.scene_id()?.build(request.inner.seed);
    let res = request.inner.res;
    let zatel = Zatel::new(&scene, request.gpu()?, res, res, request.trace());
    Ok(FullSim {
        stats: zatel.run_reference().stats,
    })
}

impl FullSim {
    /// Simulated cycles.
    pub fn sim_cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Every raw counter, serialized: equal strings mean `SimStats ==`.
    pub fn digest(&self) -> String {
        self.stats.to_json().to_string()
    }

    /// One thread per pixel, all seven metrics finite and in range.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated condition.
    pub fn check(&self, request: &Request) -> Result<(), String> {
        if self.stats.threads_launched != request.pixels() {
            return Err(format!(
                "{}: full simulation launched {} threads for {} pixels",
                request.label,
                self.stats.threads_launched,
                request.pixels()
            ));
        }
        check_values(Metric::ALL.map(|m| m.value(&self.stats)), &request.label)
    }
}

// --- Step-by-step decomposition ---------------------------------------------

/// The raw counters of a set of simulations. They repeat exactly for a
/// seed, so two commits compare exactly on everything derived from them.
#[derive(Debug, Clone, Default)]
pub struct Counts(Vec<SimStats>);

impl Counts {
    fn sum(&self, field: impl Fn(&SimStats) -> u64) -> f64 {
        self.0.iter().map(field).sum::<u64>() as f64
    }

    /// Adds another set of simulations.
    pub fn merge(&mut self, other: &Counts) {
        self.0.extend_from_slice(&other.0);
    }

    /// Simulated cycles summed over the simulations.
    pub fn cycles(&self) -> f64 {
        self.sum(|s| s.cycles)
    }

    /// RT-unit warp phases summed over the simulations.
    pub fn rt_warp_phases(&self) -> f64 {
        self.sum(|s| s.rt_warp_phases)
    }

    /// The deterministic `gpusim.*` metrics, each a ratio of summed
    /// counters (or a plain sum).
    pub fn model_metrics(&self) -> Probed {
        let bound = self.sum(|s| {
            s.bound_issue_cycles
                + s.bound_compute_cycles
                + s.bound_memory_cycles
                + s.bound_rt_cycles
        });
        vec![
            ("gpusim.sim_cycles", self.cycles()),
            ("gpusim.instructions", self.sum(|s| s.instructions)),
            ("gpusim.rt_warp_phases", self.rt_warp_phases()),
            (
                "gpusim.ipc",
                ratio(self.sum(|s| s.instructions), self.cycles()),
            ),
            (
                "gpusim.l1_miss_rate",
                ratio(self.sum(|s| s.l1_misses), self.sum(|s| s.l1_accesses)),
            ),
            (
                "gpusim.l2_miss_rate",
                ratio(self.sum(|s| s.l2_misses), self.sum(|s| s.l2_accesses)),
            ),
            (
                "gpusim.dram_row_hit_rate",
                ratio(
                    self.sum(|s| s.dram_row_hits),
                    self.sum(|s| s.dram_transactions),
                ),
            ),
            (
                "gpusim.dram_efficiency",
                ratio(
                    self.sum(|s| s.dram_busy_cycles),
                    self.sum(|s| s.dram_active_cycles),
                ),
            ),
            (
                "gpusim.rt_efficiency",
                ratio(self.sum(|s| s.rt_active_rays), self.rt_warp_phases()),
            ),
            (
                "gpusim.bound_issue_share",
                ratio(self.sum(|s| s.bound_issue_cycles), bound),
            ),
            (
                "gpusim.bound_compute_share",
                ratio(self.sum(|s| s.bound_compute_cycles), bound),
            ),
            (
                "gpusim.bound_memory_share",
                ratio(self.sum(|s| s.bound_memory_cycles), bound),
            ),
            (
                "gpusim.bound_rt_share",
                ratio(self.sum(|s| s.bound_rt_cycles), bound),
            ),
        ]
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Memory accesses recorded while draining thread programs, with the GPU
/// configuration they were headed for: the input of [`mem_probes`].
#[derive(Debug, Clone)]
pub struct AddressStream {
    config: GpuConfig,
    accesses: Vec<(u64, u32)>,
}

/// Longest address stream kept; enough for stable per-access times.
const ADDRESS_STREAM_CAP: usize = 1 << 18;

/// What the step-by-step re-performance of one operation found. Times are
/// in the [`Recorder`] it was given.
#[derive(Debug)]
pub struct Decomposed {
    /// The metric vector, which must equal the black-box one exactly
    /// (simulated values for a full simulation).
    pub values: [f64; 7],
    /// Every raw counter of every simulation, serialized.
    pub digest: String,
    /// Counters summed over the operation's simulations.
    pub counts: Counts,
    /// Nodes of the scene's BVH.
    pub bvh_nodes: u64,
    /// Functional-tracer work units over the frame (0 for a full simulation).
    pub work_units: u64,
    /// Thread-program operations decoded.
    pub decoded_ops: u64,
    /// Mean share of group pixels traced (1 for a full simulation).
    pub traced_fraction: f64,
    /// Threads launched over the operation's simulations.
    pub threads: u64,
    /// Threads among them that run the filter-exit program. Counted from
    /// the selection masks: `SimStats::threads_filtered` is never written
    /// by the engine.
    pub filtered_threads: u64,
    /// Recorded memory accesses of the first simulation.
    pub addresses: AddressStream,
}

/// Drains every thread program of `workload`, returning the operation
/// count and recording memory accesses until `sample` is full.
fn drain(workload: &dyn Workload, sample: &mut Vec<(u64, u32)>) -> u64 {
    let mut ops = 0u64;
    for index in 0..workload.thread_count() {
        let mut thread = workload.create_thread(index);
        while let Some(op) = thread.next_op() {
            ops += 1;
            if sample.len() < ADDRESS_STREAM_CAP {
                if let Some((_, addr, bytes)) = op.memory_access() {
                    sample.push((addr, bytes));
                }
            }
            black_box(op);
        }
    }
    ops
}

/// Times a separate BVH build over the scene's primitives; the scene's
/// own build already happened inside `rtcore.scene_build`.
fn bvh_build(scene: &Scene, op: u32, rec: &mut Recorder) -> u64 {
    let bvh = rec.scope("rtcore.bvh_build", op, |_| Bvh::build(scene.primitives()));
    bvh.node_count() as u64
}

/// Re-performs the prediction `request` asks for, one public function of
/// one layer at a time, inside an `op` span. The separate BVH build and
/// the decode drain run after it, outside `op`.
///
/// # Errors
///
/// Returns a message for an unknown scene, config or downscale factor.
pub fn decompose_predict(
    request: &Request,
    op: u32,
    rec: &mut Recorder,
) -> Result<Decomposed, String> {
    let r = &request.inner;
    let scene_id = request.scene_id()?;
    let gpu = request.gpu()?;
    let trace = request.trace();
    let options = r.options.clone().unwrap_or_default();
    let k = match options.downscale {
        DownscaleMode::Natural => gpu.natural_downscale_factor(),
        DownscaleMode::Factor(f) => f,
        DownscaleMode::NoDownscale => 1,
    };
    let down = gpu.downscaled(k).map_err(|e| format!("{e:?}"))?;
    let res = r.res;

    let mut filtered = 0u64;
    let (scene, groups, selections, work_units, stats, fractions, values) =
        rec.scope("op", op, |rec| {
            let scene = rec.scope("rtcore.scene_build", op, |_| scene_id.build(r.seed));
            let (heatmap, work_units) = rec.scope("zatel.heatmap", op, |rec| {
                let costs = rec.scope("rtcore.profile_costs", op, |_| {
                    profile_costs(&scene, res, res, &trace)
                });
                let work: u64 = costs.values().iter().sum();
                (Heatmap::from_costs(&costs), work)
            });
            let quantized = rec.scope("zatel.quantize", op, |_| {
                QuantizedHeatmap::quantize(&heatmap, options.quant_colors, trace.seed)
            });
            let groups = rec.scope("zatel.divide", op, |_| {
                divide(res, res, k, options.division)
            });
            let selections: Vec<_> = rec.scope("zatel.select", op, |_| {
                groups
                    .iter()
                    .map(|g| select_pixels(g, &quantized, &options.selection))
                    .collect()
            });
            let mut stats = Vec::with_capacity(groups.len());
            let mut fractions = Vec::with_capacity(groups.len());
            for (group, selection) in groups.iter().zip(&selections) {
                rec.scope("zatel.group_sim", op, |rec| {
                    let workload = rec.scope("rtworkload.build", op, |_| {
                        RtWorkload::new(&scene, res, res, trace, group.pixels.clone())
                            .with_selection(selection.mask.clone())
                    });
                    fractions.push(workload.traced_fraction());
                    filtered += (group.pixels.len() - workload.traced_count()) as u64;
                    stats.push(rec.scope("gpusim.run", op, |_| {
                        Simulator::new(down.clone()).run(&workload)
                    }));
                });
            }
            let values = rec.scope("zatel.extrapolate", op, |_| {
                let mut values = [0.0f64; 7];
                for (slot, metric) in values.iter_mut().zip(Metric::ALL) {
                    let per_group: Vec<f64> = stats
                        .iter()
                        .zip(&fractions)
                        .map(|(s, &f)| metric.extrapolate(metric.value(s), f))
                        .collect();
                    *slot = metric.combine(&per_group);
                }
                values
            });
            (
                scene, groups, selections, work_units, stats, fractions, values,
            )
        });

    let bvh_nodes = bvh_build(&scene, op, rec);
    let mut accesses = Vec::with_capacity(ADDRESS_STREAM_CAP);
    let mut decoded_ops = 0;
    for (group, selection) in groups.iter().zip(&selections) {
        let workload = RtWorkload::new(&scene, res, res, trace, group.pixels.clone())
            .with_selection(selection.mask.clone());
        decoded_ops += rec.scope("rtworkload.decode_drain", op, |_| {
            drain(&workload, &mut accesses)
        });
    }

    let digest = stats.iter().map(|s| s.to_json().to_string()).collect();
    Ok(Decomposed {
        values,
        digest,
        counts: Counts(stats),
        bvh_nodes,
        work_units,
        decoded_ops,
        traced_fraction: fractions.iter().sum::<f64>() / fractions.len().max(1) as f64,
        threads: request.pixels(),
        filtered_threads: filtered,
        addresses: AddressStream {
            config: down,
            accesses,
        },
    })
}

/// Re-performs the full simulation `request` names step by step: scene
/// build, full-frame workload build, one `Simulator::run` on the full-size
/// GPU.
///
/// # Errors
///
/// Returns a message for an unknown scene or config.
pub fn decompose_full(
    request: &Request,
    op: u32,
    rec: &mut Recorder,
) -> Result<Decomposed, String> {
    let r = &request.inner;
    let scene_id = request.scene_id()?;
    let gpu = request.gpu()?;
    let trace = request.trace();
    let res = r.res;

    let (scene, stats) = rec.scope("op", op, |rec| {
        let scene = rec.scope("rtcore.scene_build", op, |_| scene_id.build(r.seed));
        let stats = {
            let workload = rec.scope("rtworkload.build", op, |_| {
                RtWorkload::full_frame(&scene, res, res, trace)
            });
            rec.scope("gpusim.run", op, |_| {
                Simulator::new(gpu.clone()).run(&workload)
            })
        };
        (scene, stats)
    });

    let bvh_nodes = bvh_build(&scene, op, rec);
    let mut accesses = Vec::with_capacity(ADDRESS_STREAM_CAP);
    let workload = RtWorkload::full_frame(&scene, res, res, trace);
    let decoded_ops = rec.scope("rtworkload.decode_drain", op, |_| {
        drain(&workload, &mut accesses)
    });

    let mut values = [0.0f64; 7];
    for (slot, metric) in values.iter_mut().zip(Metric::ALL) {
        *slot = metric.value(&stats);
    }
    Ok(Decomposed {
        values,
        digest: stats.to_json().to_string(),
        counts: Counts(vec![stats]),
        bvh_nodes,
        work_units: 0,
        decoded_ops,
        traced_fraction: 1.0,
        threads: request.pixels(),
        filtered_threads: 0,
        addresses: AddressStream {
            config: gpu,
            accesses,
        },
    })
}

// --- Micro probes -----------------------------------------------------------

/// What a probe measured: per-layer metric names and values.
pub type Probed = Vec<(&'static str, f64)>;

/// Replays a recorded address stream through the memory model's public
/// components and reports host nanoseconds per access: a
/// `MemoryHierarchy::read` from L1 to DRAM, a `Cache::probe` (plus `fill`
/// on a miss) of one L1-shaped tag array, a `DramChannel::service_at`.
pub fn mem_probes(stream: &AddressStream) -> Probed {
    let n = stream.accesses.len();
    if n == 0 {
        return Probed::new();
    }
    let config = &stream.config;
    let per_access = |ms: f64| ms * 1e6 / n as f64;

    let mut hierarchy = MemoryHierarchy::new(config);
    let sms = config.num_sms as usize;
    let (read_ms, _) = timed_ms(|| {
        let mut now = 0u64;
        for (i, &(addr, _)) in stream.accesses.iter().enumerate() {
            let line = hierarchy.line_of(addr);
            black_box(hierarchy.read(i % sms, line, now));
            now += 4;
        }
    });

    let mut tags = TagCache::new("L1D", config.l1d);
    let line_bytes = u64::from(config.l1d.line_bytes);
    let (probe_ms, _) = timed_ms(|| {
        for (now, &(addr, _)) in stream.accesses.iter().enumerate() {
            let line = addr / line_bytes;
            if tags.probe(line, now as u64) == Probe::Miss {
                tags.fill(line, now as u64 + 100);
            }
        }
        black_box(tags.misses());
    });

    let mut dram = DramChannel::new(config.dram_bytes_per_cycle, config.dram_latency);
    let (dram_ms, _) = timed_ms(|| {
        for (now, &(addr, bytes)) in stream.accesses.iter().enumerate() {
            black_box(dram.service_at(now as u64 * 4, addr, bytes));
        }
    });

    vec![
        ("gpusim.mem_read_ns", per_access(read_ms)),
        ("gpusim.cache_probe_ns", per_access(probe_ms)),
        ("gpusim.dram_service_ns", per_access(dram_ms)),
    ]
}

/// Costs of the DTO and JSON layer for one request and its response: times
/// request parsing, response rendering, the two fingerprints and
/// raw `minijson` parse and write throughput on the response text.
///
/// # Errors
///
/// Returns a message if the rendered response does not parse back.
pub fn proto_probes(request: &Request, predicted: &Predicted) -> Result<Probed, String> {
    const REPS: usize = 101;
    let request_parse_us = median_us(REPS, || Request::parse(&request.literal));
    let response_render_us = median_us(REPS, || predicted.render());
    let fingerprint_us = median_us(REPS, || {
        (
            request.inner.affinity_fingerprint(),
            request.inner.dedup_fingerprint(),
        )
    });
    let text = predicted.render();
    let doc = parse_json(&text)?;
    let mb = text.len() as f64 / 1e6;
    let parse_us = median_us(REPS, || Json::parse(&text).is_ok());
    let write_us = median_us(REPS, || doc.to_string());
    Ok(vec![
        ("proto.request_parse_us", request_parse_us),
        ("proto.response_render_us", response_render_us),
        ("proto.fingerprint_us", fingerprint_us),
        ("proto.response_bytes", text.len() as f64),
        ("minijson.parse_mb_per_s", mb / (parse_us / 1e6)),
        ("minijson.write_mb_per_s", mb / (write_us / 1e6)),
    ])
}

/// Costs of the cache tiers around one heatmap artifact. Runs `entries`
/// distinct heatmap artifacts of `request`'s scene through a fresh tiered
/// cache over `dir`, then through a second cache sharing only its disk
/// tier: a `get_or_run` served from memory, what a miss costs beyond
/// computing the stage (serialize and put into both tiers, the disk write
/// included), and a `get_or_run` served from disk by a cache with empty
/// memory.
///
/// # Errors
///
/// Returns a message when a lookup is not served the way the probe set
/// it up to be (for example a disk tier that cannot write to `dir`).
pub fn cache_probes(request: &Request, dir: &Path, entries: u64) -> Result<Probed, String> {
    let scene_id = request.scene_id()?;
    let res = request.inner.res;
    let disk = Arc::new(DiskTier::new(dir));
    let first = TieredCache::with_disk_tier(Arc::clone(&disk));
    let second = TieredCache::with_disk_tier(disk);
    let (mut puts, mut mem_hits, mut disk_hits) = (Vec::new(), Vec::new(), Vec::new());
    let expect = |got: CacheOutcome, want: CacheOutcome| {
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "cache probe: expected {want:?}, was served {got:?}"
            ))
        }
    };
    for i in 0..entries {
        let seed = request.inner.seed.wrapping_add(i);
        let scene = scene_id.build(seed);
        let stage = HeatmapStage {
            width: res,
            height: res,
            trace: TraceConfig {
                seed,
                ..request.trace()
            },
        };
        let fp = scene.fingerprint();
        let (direct_ms, direct) = timed_ms(|| zatel::stages::Stage::run(&stage, &scene));
        black_box(direct);
        let (miss_ms, (_, _, outcome)) = timed_ms(|| first.get_or_run(&stage, &scene, fp));
        expect(outcome, CacheOutcome::Miss)?;
        puts.push((miss_ms - direct_ms).max(0.0));
        let (hit_ms, (_, _, outcome)) = timed_ms(|| first.get_or_run(&stage, &scene, fp));
        expect(outcome, CacheOutcome::MemoryHit)?;
        mem_hits.push(hit_ms * 1e3);
        let (disk_ms, (_, _, outcome)) = timed_ms(|| second.get_or_run(&stage, &scene, fp));
        expect(outcome, CacheOutcome::DiskHit)?;
        disk_hits.push(disk_ms);
    }
    Ok(vec![
        ("zatel.cache_mem_hit_us", median(&mem_hits)),
        ("zatel.cache_miss_put_ms", median(&puts)),
        ("zatel.cache_disk_hit_ms", median(&disk_hits)),
    ])
}

// --- The served path --------------------------------------------------------

/// An in-process `zatel serve` instance on an ephemeral port.
pub struct LiveServer {
    url: String,
    handle: ServeHandle,
    thread: JoinHandle<Result<ServeReport, String>>,
}

/// Counters a drained server reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounts {
    pub refused_429: u64,
    pub queue_depth_peak: u64,
    pub coalesced: u64,
    /// Responses with a 4xx or 5xx status.
    pub responses_other: u64,
}

/// Starts a server shaped like the issue's `serve-mix`: two workers, one
/// simulation job per request, admission queue of 64, a disk tier under
/// `dir` with a 4 MiB budget, the request log in a file under `dir`.
///
/// # Errors
///
/// Returns the bind error.
pub fn start_server(dir: &Path) -> Result<LiveServer, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue: 64,
        sim_jobs: Some(1),
        cache_dir: Some(dir.join("cache").to_string_lossy().into_owned()),
        cache_budget_mb: Some(4),
        log_out: Some(dir.join("serve.log").to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let server = Server::bind(config)?;
    let url = format!("http://{}", server.local_addr()?);
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Ok(LiveServer {
        url,
        handle,
        thread,
    })
}

impl LiveServer {
    /// A client for this server; cheap, one per client thread.
    ///
    /// # Errors
    ///
    /// Returns a message if the server's own address does not parse.
    pub fn client(&self) -> Result<Client, String> {
        HttpClient::new(&self.url).map(Client)
    }

    /// Drains the server, joins it and returns what it counted.
    ///
    /// # Errors
    ///
    /// Returns a message when the server thread failed or panicked.
    pub fn stop(self) -> Result<ServerCounts, String> {
        self.handle.shutdown();
        let report = self
            .thread
            .join()
            .map_err(|_| "the server thread panicked".to_owned())??;
        Ok(ServerCounts {
            refused_429: report.refused,
            queue_depth_peak: report.peak_queue_depth,
            coalesced: report.coalesced,
            responses_other: report.responses_4xx + report.responses_5xx,
        })
    }
}

/// A blocking client that opens one connection per request, as
/// `zatel predict --url` does.
#[derive(Debug, Clone)]
pub struct Client(HttpClient);

impl Client {
    /// `POST /v1/predict`; returns status and body.
    ///
    /// # Errors
    ///
    /// Returns a message for connection or protocol failures.
    pub fn predict(&self, request: &Request) -> Result<(u16, String), String> {
        let response = self.0.post_json("/v1/predict", &request.doc)?;
        Ok((response.status, response.body))
    }

    /// `GET path`; returns status and body.
    ///
    /// # Errors
    ///
    /// Returns a message for connection or protocol failures.
    pub fn get(&self, path: &str) -> Result<(u16, String), String> {
        let response = self.0.get(path)?;
        Ok((response.status, response.body))
    }
}
