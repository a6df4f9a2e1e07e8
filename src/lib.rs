//! # zatel-suite — facade over the Zatel reproduction workspace
//!
//! Re-exports the four crates of the suite so examples and integration
//! tests can reach everything through one dependency:
//!
//! * [`rtcore`] — ray-tracing substrate (math, BVH, scenes, path tracer);
//! * [`gpusim`] — cycle-level GPU timing simulator (Vulkan-Sim substitute);
//! * [`rtworkload`] — pixels-as-threads bridge between the two;
//! * [`zatel`] — the prediction methodology itself;
//! * [`obs`] — observability: Perfetto timelines, metrics, spans, reports.
//!
//! See the repository README for the architecture overview and
//! EXPERIMENTS.md for the paper-reproduction results.
//!
//! ```no_run
//! use zatel_suite::prelude::*;
//!
//! # fn main() -> Result<(), zatel::ZatelError> {
//! let scene = SceneId::Park.build(42);
//! let trace = TraceConfig { samples_per_pixel: 2, max_bounces: 4, seed: 7 };
//! let z = Zatel::new(&scene, GpuConfig::mobile_soc(), 128, 128, trace);
//! let prediction = z.run()?;
//! println!("{:.0} predicted cycles", prediction.value(Metric::SimCycles));
//! # Ok(())
//! # }
//! ```

pub use gpusim;
pub use obs;
pub use rtcore;
pub use rtworkload;
pub use zatel;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use gpusim::{GpuConfig, Metric, NullHooks, SimHooks, SimStats, Simulator};
    pub use obs::{MetricsRegistry, ObsHooks, ObserveOptions, SpanSheet};
    pub use rtcore::scenes::SceneId;
    pub use rtcore::tracer::TraceConfig;
    pub use rtworkload::RtWorkload;
    pub use zatel::{
        Distribution, DivisionMethod, DownscaleMode, Prediction, RunContext, SimExecutor, Zatel,
        ZatelOptions,
    };
}
