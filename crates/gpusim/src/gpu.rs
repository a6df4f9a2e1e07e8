//! Public facade over the simulation engine.

use crate::config::GpuConfig;
use crate::engine::{Engine, WarpSlots};
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
        self.simulate(workload, None, hooks)
    }

    /// [`Simulator::run_with_hooks`] with a second thread that decodes
    /// ahead of the commit loop: the same statistics and hook calls, bit
    /// for bit, in less wall time when decode is a large share of it.
    ///
    /// `lend(commit, help)` must call `commit(start)` — the commit loop,
    /// hooks included — on the calling thread, and return once it and any
    /// helper have returned; the slots the two share are built before. The
    /// commit loop calls `start()` at most once, after it has gathered 16
    /// phases alone per warp of the grid's first wave, so a short run never
    /// asks for a thread; `start` should then run `help` on another thread.
    /// A warp is then the commit loop's, gathered inline with no lock, or
    /// `help`'s, gathered ahead into its slot's bounded ring, until `commit`
    /// returns or unwinds: sharing hands `help` every resident warp, and
    /// each warp launched after. The commit loop reads a ring in place
    /// without a lock, or gathers inline when it is empty and takes the
    /// warp back when `help` falls behind, so it never waits for a phase,
    /// and a `start` that runs nothing only loses the speed.
    ///
    /// # Panics
    ///
    /// Panics if `lend` does not call `commit`. A thread program's panic
    /// unwinds the thread it ran on: a helper's reaches `lend`, and the
    /// commit loop then panics at the slot the helper left poisoned.
    pub fn run_helped<H: SimHooks>(
        &self,
        workload: &dyn Workload,
        hooks: &mut H,
        lend: impl FnOnce(&mut dyn FnMut(&dyn Fn()), &(dyn Fn() + Sync)),
    ) -> SimStats {
        let slots = WarpSlots::new(workload, &self.config);
        let mut stats = None;
        lend(
            &mut |start| {
                let _end = slots.end_on_drop();
                stats = Some(self.simulate(workload, Some((&slots, start)), hooks));
            },
            &|| slots.help(),
        );
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract: a lender that skips the commit loop is a caller bug"
        )]
        stats.expect("lend must call the commit loop")
    }

    /// The one call of the commit loop, helped or not.
    #[inline(never)]
    fn simulate<'w, H: SimHooks>(
        &self,
        workload: &'w dyn Workload,
        helper: Option<(&WarpSlots<'w>, &dyn Fn())>,
        hooks: &mut H,
    ) -> SimStats {
        let mut stats = Engine::new(&self.config, workload, helper, hooks).run();
        // Filtering is a property of the workload, not of the engine.
        stats.threads_filtered = workload.filtered_threads();
        stats
    }
}
