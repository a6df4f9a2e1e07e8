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

#[cfg(test)]
mod tests {
    /// Pins the workspace's `unreachable_pub` lint, which keeps `pub` to what
    /// another crate names. An `#[expect(unreachable_pub)]` canary cannot pin
    /// it: the attribute turns the allow-by-default lint on in its own scope,
    /// so it stays fulfilled with the workspace entry deleted.
    #[test]
    fn the_workspace_warns_on_unreachable_pub() {
        let manifest = include_str!("../Cargo.toml");
        let rust_lints = manifest
            .split("[workspace.lints.rust]")
            .nth(1)
            .and_then(|rest| rest.split("\n[").next())
            .expect("the root manifest has a [workspace.lints.rust] table");
        assert!(
            rust_lints
                .lines()
                .any(|line| line.trim() == r#"unreachable_pub = "warn""#),
            "[workspace.lints.rust] must set unreachable_pub = \"warn\""
        );
    }
}
