//! # zatel-rtcore — ray-tracing substrate
//!
//! The geometric and functional foundation of the Zatel reproduction:
//! vector math, BVH construction and traversal, materials, a deterministic
//! functional path tracer and the eight procedural benchmark scenes that
//! stand in for LumiBench.
//!
//! The crate's central design point is one path tracer: a per-pixel state
//! machine ([`tracer::PixelPath`]) over the BVH's one traversal loop, generic
//! over what it reports to ([`tracer::PathSink`]). The profiler (this crate)
//! counts what a pixel's rays visit, and the cycle-level timing model
//! (`zatel-gpusim` via `zatel-rtworkload`) records each visit and shading
//! step as an op, so functional and timing simulation agree on exactly which
//! work every ray does.
//!
//! ## Quick start
//!
//! ```
//! use rtcore::scenes::SceneId;
//! use rtcore::tracer::{render, TraceConfig};
//!
//! let scene = SceneId::Sprng.build(42);
//! let cfg = TraceConfig { samples_per_pixel: 1, max_bounces: 2, seed: 1 };
//! let (image, costs) = render(&scene, 32, 32, &cfg);
//! assert!(image.mean_luminance() > 0.0);
//! assert!(costs.max() > 0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod bvh;
pub mod camera;
pub mod fingerprint;
pub mod geom;
pub mod image;
pub mod material;
pub mod math;
pub mod scene;
pub mod scenes;
pub mod tracer;
