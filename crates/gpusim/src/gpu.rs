//! Public facade over the simulation engine.

use crate::config::GpuConfig;
use crate::engine::{Engine, EpochDriver, SerialSource};
use crate::hooks::{NullHooks, SimHooks};
use crate::stats::SimStats;
use crate::telemetry::SimTelemetry;
use crate::workload::Workload;

/// The cycle-level GPU simulator.
///
/// Construct with a [`GpuConfig`] and run a [`Workload`]; returns
/// [`SimStats`] containing all Table-I metrics. The engine internals live
/// in the crate-private `engine` module; to observe a run, pass a
/// [`SimHooks`] implementation to [`Simulator::run_with_hooks`].
///
/// # Examples
///
/// ```
/// use gpusim::{GpuConfig, Simulator};
/// use gpusim::workload::{Op, ScriptedWorkload};
///
/// let workload = ScriptedWorkload::uniform(1024, vec![
///     Op::Load { addr: 0, bytes: 4 },
///     Op::Compute { cycles: 8, insts: 8 },
/// ]);
/// let stats = Simulator::new(GpuConfig::mobile_soc()).run(&workload);
/// assert!(stats.cycles > 0);
/// assert!(stats.ipc() > 0.0);
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: GpuConfig,
}

impl Simulator {
    /// Creates a simulator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`GpuConfig::validate`].
    pub fn new(config: GpuConfig) -> Self {
        // zatel-lint: allow(panic-hygiene, reason = "documented `# Panics` constructor contract; callers validate via GpuConfig::validate for a Result")
        config.validate().expect("invalid GPU configuration");
        Simulator { config }
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Runs `workload` to completion and returns the collected statistics.
    ///
    /// Equivalent to [`Simulator::run_with_hooks`] with
    /// [`NullHooks`](crate::hooks::NullHooks).
    pub fn run(&self, workload: &dyn Workload) -> SimStats {
        self.run_with_hooks(workload, &mut NullHooks)
    }

    /// Runs `workload` while reporting engine events to `hooks`.
    ///
    /// Dispatch is static: the engine monomorphizes per hook type, so the
    /// observability seam costs nothing when `hooks` is
    /// [`NullHooks`](crate::hooks::NullHooks). Hooks observe only — the
    /// returned statistics are bit-identical for every hook implementation.
    ///
    /// When [`GpuConfig::sim_threads`] is greater than one, the run is
    /// executed by the sharded engine on that many OS threads. Results,
    /// hook event order and serialized output are bit-identical to the
    /// serial engine for every thread count; hooks still fire on the
    /// calling thread only.
    pub fn run_with_hooks<H: SimHooks>(&self, workload: &dyn Workload, hooks: &mut H) -> SimStats {
        self.run_instrumented(workload, hooks).0
    }

    /// Runs `workload` like [`Simulator::run_with_hooks`], additionally
    /// returning the run's concurrency telemetry when either sharded mode
    /// executed it (`sim_threads > 1` or `timing_threads > 1`); fully
    /// serial runs return `None`.
    ///
    /// The telemetry is an observational wall-clock side channel
    /// ([`SimTelemetry`]): collecting it never changes the returned
    /// statistics, the hook event order, or any serialized output — the
    /// stats are bit-identical to [`Simulator::run`] in every mode.
    pub fn run_instrumented<H: SimHooks>(
        &self,
        workload: &dyn Workload,
        hooks: &mut H,
    ) -> (SimStats, Option<SimTelemetry>) {
        let (mut stats, telemetry) = if self.config.sim_threads > 1 {
            let (stats, telemetry) = EpochDriver::new(&self.config, workload).run(hooks);
            (stats, Some(telemetry))
        } else {
            let mut source = SerialSource::new(
                workload,
                self.config.num_sms as usize,
                self.config.l1d.line_bytes,
            );
            let (stats, timing) =
                Engine::new(&self.config, hooks).run(workload.thread_count(), &mut source);
            let telemetry = timing.map(|t| SimTelemetry {
                runs: 1,
                timing: Some(t),
                ..SimTelemetry::default()
            });
            (stats, telemetry)
        };
        // Filtering is a property of the workload, not of any engine path.
        stats.threads_filtered = workload.filtered_threads();
        (stats, telemetry)
    }
}
