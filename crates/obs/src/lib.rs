//! # zatel-obs — observability for the Zatel simulation suite
//!
//! Four pieces, each usable on its own and wired together by the CLI:
//!
//! * [`hooks::ObsHooks`] — a [`gpusim::SimHooks`] implementation recording
//!   latency/lifetime/traversal histograms, event counters and (optionally)
//!   a per-SM / RT-unit / memory-partition timeline while a simulation
//!   runs, without perturbing it;
//! * [`perfetto`] — Chrome-trace JSON export of those timelines, loadable
//!   in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! * [`registry::MetricsRegistry`] — counters, gauges and log2-bucket
//!   histograms, snapshotable as JSON and Prometheus text format;
//! * [`span`] — host wall-clock pipeline spans;
//! * [`log`] — the `zatel-log-v1` structured JSONL event log used by
//!   `zatel serve` and the CLI's `--log-out`.
//!
//! Everything derived from the simulation is a function of simulated time
//! only: fixed-seed runs export byte-identical traces and metric
//! snapshots regardless of host threading. Host wall-clock measurements
//! live exclusively in [`span`] records and are kept out of the metrics
//! snapshot.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod hooks;
pub mod log;
pub mod perfetto;
pub mod registry;
pub mod span;

pub use hooks::{ObsHooks, ObserveOptions};
pub use log::{LogLevel, Logger, LOG_SCHEMA};
pub use perfetto::{merge_trace, validate_trace, Timeline, TraceEvent};
pub use registry::{Histogram, MetricKind, MetricsRegistry};
pub use span::{SpanGuard, SpanRecord, SpanSheet};
