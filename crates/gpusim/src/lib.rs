//! # zatel-gpusim — cycle-level GPU timing simulator
//!
//! A from-scratch Rust substitute for Vulkan-Sim (Saed et al., MICRO 2022),
//! the cycle-accurate GPU ray-tracing simulator the Zatel paper builds on.
//! It models the architecture of the paper's Fig. 2:
//!
//! * **SMs** with bounded warp slots, a greedy-then-oldest flavoured issue
//!   arbiter and per-SM L1D caches;
//! * **RT units** per SM with bounded warp occupancy and ray-test
//!   throughput;
//! * **memory partitions**, each an L2 slice plus a bandwidth-limited DRAM
//!   channel, reached over a fixed-latency interconnect with line-granular
//!   address interleaving;
//! * **SIMT warps** of 32 threads executing abstract op streams with
//!   warp-level memory coalescing.
//!
//! Timing is event-driven at warp-phase granularity with cycle-resolution
//! resource accounting (issue ports, RT slots, L2 pipelines, DRAM buses), a
//! standard fast-simulation compromise: latency, bandwidth and occupancy
//! effects — the mechanisms every Zatel result depends on — are modeled
//! explicitly, while instruction fetch/decode detail is abstracted into op
//! costs.
//!
//! The simulated configuration is fully parametric ([`GpuConfig`]), with
//! the paper's Table II presets ([`GpuConfig::mobile_soc`],
//! [`GpuConfig::rtx_2060`]) and the proportional downscaling Zatel needs
//! ([`GpuConfig::downscaled`]).
//!
//! ## Quick start
//!
//! ```
//! use gpusim::{GpuConfig, Simulator};
//! use gpusim::workload::{Op, ScriptedWorkload};
//!
//! // 4096 threads each load one value and do some math.
//! let workload = ScriptedWorkload::per_thread(4096, |i| vec![
//!     Op::Load { addr: i * 16, bytes: 16 },
//!     Op::Compute { cycles: 12, insts: 12 },
//! ]);
//! let stats = Simulator::new(GpuConfig::mobile_soc()).run(&workload);
//! println!("IPC = {:.2}, L1 miss rate = {:.2}", stats.ipc(), stats.l1_miss_rate());
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod config;
mod core;
mod engine;
mod gpu;
pub mod hooks;
pub mod mem;
pub mod stats;
pub mod workload;

pub use config::{gcd, CacheConfig, DownscaleError, GpuConfig};
pub use gpu::Simulator;
pub use hooks::{NullHooks, PhaseClass, SimHooks};
pub use stats::{CombineRule, Metric, SimStats};
pub use workload::{MemSpace, Op, PhaseMix, ThreadProgram, WarpProgram, Workload};

/// Pins the `disallowed-types` list: no live site uses a hash collection, so
/// without this a deleted `clippy.toml` entry would go unnoticed. With it the
/// expectation below is unfulfilled and the clippy step fails.
#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "canary: the one deliberate `HashMap` in result-affecting code"
)]
type _HashCollectionCanary = std::collections::HashMap<u8, u8>;
