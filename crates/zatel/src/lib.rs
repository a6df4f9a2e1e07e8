//! # zatel — sample complexity-aware scale-model simulation for ray tracing
//!
//! A pure-Rust reproduction of **Zatel** (Grigoryan, Chou & Aamodt,
//! ISPASS 2024): a prediction methodology that estimates GPU performance
//! metrics on ray-tracing workloads an order of magnitude faster than full
//! cycle-level simulation, by
//!
//! 1. **dividing** — downscaling the GPU configuration by
//!    `K = gcd(#SMs, #memory partitions)` and splitting the image plane
//!    into `K` groups simulated concurrently, and
//! 2. **separating** — tracing only a representative subset of each
//!    group's pixels, chosen from a K-means-quantized execution-time
//!    heatmap, then extrapolating.
//!
//! ("Zatel" is Armenian for both *divide* and *separate*.)
//!
//! The pipeline (paper Fig. 3) maps to these modules:
//!
//! | Step | Module |
//! |------|--------|
//! | ① profile execution-time heatmap | [`heatmap`] |
//! | ② colour quantization (K-means) | [`quantize`] |
//! | ③ downscale the GPU by K | [`gpusim::GpuConfig::downscaled`] |
//! | ④ divide the image plane | [`partition`] |
//! | ⑤ select representative pixels | [`select`] |
//! | ⑥ simulate each group | [`pipeline`] (via `zatel-gpusim`) |
//! | ⑦ extrapolate & combine | [`extrapolate`], [`gpusim::Metric`] |
//!
//! ## Quick start
//!
//! ```no_run
//! use gpusim::{GpuConfig, Metric};
//! use rtcore::scenes::SceneId;
//! use rtcore::tracer::TraceConfig;
//! use zatel::Zatel;
//!
//! # fn main() -> Result<(), zatel::ZatelError> {
//! let scene = SceneId::Park.build(42);
//! let trace = TraceConfig { samples_per_pixel: 2, max_bounces: 4, seed: 7 };
//! let zatel = Zatel::new(&scene, GpuConfig::mobile_soc(), 512, 512, trace);
//!
//! let prediction = zatel.run()?;             // fast: downscaled + sampled
//! let reference = zatel.run_reference();     // slow: the full simulation
//!
//! println!("MAE      = {:.1}%", 100.0 * prediction.mae_vs(&reference.stats));
//! println!("speedup  = {:.1}x", prediction.speedup_vs(&reference));
//! println!("cycles   = {:.0} (ref {})",
//!          prediction.value(Metric::SimCycles), reference.stats.cycles);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod error;
pub mod extrapolate;
pub mod heatmap;
pub mod metrics;
pub mod partition;
pub mod pipeline;
pub mod quantize;
pub mod select;
pub mod sim_executor;
pub mod stages;
pub mod sweep;

pub use error::ZatelError;
pub use partition::{DivisionMethod, Group};
pub use pipeline::{
    run_jobs, DownscaleMode, GroupOutcome, Prediction, Reference, RunContext, Zatel, ZatelOptions,
};
pub use select::{Distribution, Selection, SelectionOptions};
pub use sim_executor::SimExecutor;
pub use stages::{
    ArtifactCache, CacheOutcome, CacheStats, DiskTier, StageCacheRecord, TieredCache,
};
pub use sweep::{SweepDriver, SweepOutcome, SweepPointSpec, SweepSpec};
