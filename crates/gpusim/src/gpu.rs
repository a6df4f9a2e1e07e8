//! Public facade over the simulation engine.

use crate::config::GpuConfig;
use crate::engine::Engine;
use crate::hooks::{NullHooks, SimHooks};
use crate::stats::SimStats;
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
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` constructor contract; callers validate via GpuConfig::validate for a Result"
        )]
        config.validate().expect("invalid GPU configuration");
        Simulator { config }
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
    pub fn run_with_hooks<H: SimHooks>(&self, workload: &dyn Workload, hooks: &mut H) -> SimStats {
        let mut stats = Engine::new(&self.config, workload, hooks).run();
        // Filtering is a property of the workload, not of the engine.
        stats.threads_filtered = workload.filtered_threads();
        stats
    }
}
