//! Observability seam for the simulation engine.
//!
//! The engine is generic over a [`SimHooks`] implementation and invokes it
//! at the architecturally interesting moments of a run: warp launch and
//! retirement, phase issue, memory reads, DRAM transfers and RT-unit
//! occupancy. Dispatch is static — the engine is monomorphized per hook
//! type — so with the default [`NullHooks`] every callback inlines to
//! nothing and the cycle path stays exactly as fast as before the seam
//! existed. Event totals the engine already counts (cache hits and misses,
//! DRAM transactions) live in [`SimStats`](crate::stats::SimStats), not
//! here; the recording observer is `obs::ObsHooks`.
//!
//! Hooks observe; they must not steer. Nothing a hook does can change the
//! timing of the run: a run with any observer must produce bit-identical
//! [`SimStats`](crate::stats::SimStats) to a run with [`NullHooks`].
//!
//! Every callback fires on the calling thread, from the engine's commit
//! loop, in event order — so `&mut H` needs no `Send`/`Sync` bound and
//! recorded traces are byte-identical from run to run.
//!
//! ```
//! use gpusim::{GpuConfig, PhaseClass, SimHooks, Simulator};
//! use gpusim::workload::{Op, ScriptedWorkload};
//!
//! /// Counts warp launches; ignores every other event.
//! #[derive(Default)]
//! struct Launches(u64);
//!
//! impl SimHooks for Launches {
//!     fn on_warp_launch(&mut self, _: usize, _: u64, _: u64) {
//!         self.0 += 1;
//!     }
//!     fn on_warp_retire(&mut self, _: usize, _: u64, _: u64) {}
//!     fn on_phase_issue(&mut self, _: usize, _: u64, _: PhaseClass, _: u64, _: u64) {}
//!     fn on_dram_transfer(&mut self, _: usize, _: u32, _: u64) {}
//!     fn on_mem_read(&mut self, _: usize, _: u64) {}
//!     fn on_rt_phase(&mut self, _: usize, _: u32, _: u32, _: u64, _: u64) {}
//! }
//!
//! let w = ScriptedWorkload::uniform(64, vec![
//!     Op::Load { addr: 0, bytes: 4 },
//!     Op::Compute { cycles: 8, insts: 8 },
//! ]);
//! let sim = Simulator::new(GpuConfig::mobile_soc());
//! let mut launches = Launches::default();
//! let stats = sim.run_with_hooks(&w, &mut launches);
//! assert_eq!(stats, sim.run(&w), "observing must not perturb timing");
//! assert_eq!(launches.0, 2);
//! ```

/// The component that formed the critical path of an issued warp phase —
/// the same attribution the CPI stack uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseClass {
    /// ALU latency dominated the phase.
    Compute,
    /// Load/store memory latency dominated the phase.
    Memory,
    /// RT-unit occupancy or RT data fetches dominated the phase.
    Rt,
}

impl PhaseClass {
    /// Stable lowercase tag, matching the CPI-stack component names.
    pub fn tag(self) -> &'static str {
        match self {
            PhaseClass::Compute => "compute",
            PhaseClass::Memory => "memory",
            PhaseClass::Rt => "rt",
        }
    }
}

/// Observer interface threaded through the engine's cycle path.
///
/// No method has a default body: an implementation that misses an event
/// fails to compile instead of silently dropping it. Implementations must be pure observers: the engine's timing
/// decisions never depend on hook state.
pub trait SimHooks {
    /// A warp became resident on `sm` and will first issue shortly after
    /// `time` (the launch latency is accounted by the engine).
    fn on_warp_launch(&mut self, sm: usize, warp_id: u64, time: u64);

    /// A warp ran out of work and released its slot at `time`.
    fn on_warp_retire(&mut self, sm: usize, warp_id: u64, time: u64);

    /// A warp phase was issued on `sm` at `start` and its results are ready
    /// at `ready`; `class` names the critical-path component.
    fn on_phase_issue(
        &mut self,
        sm: usize,
        warp_id: u64,
        class: PhaseClass,
        start: u64,
        ready: u64,
    );

    /// `bytes` of data were scheduled on DRAM `channel` (reads and
    /// write-back drain both count); the transfer completes at `time`.
    fn on_dram_transfer(&mut self, channel: usize, bytes: u32, time: u64);

    /// A read issued at some earlier cycle on `sm` completed with an
    /// end-to-end `latency` (issue to data-in-registers), whichever level
    /// of the hierarchy served it.
    fn on_mem_read(&mut self, sm: usize, latency: u64);

    /// An RT phase with `rays` active rays traversing `nodes` BVH lines
    /// occupied a tester slot on `sm` from `start` for `occupancy_cycles`.
    fn on_rt_phase(&mut self, sm: usize, rays: u32, nodes: u32, start: u64, occupancy_cycles: u64);
}

/// The no-op observer: every callback is empty and inlines away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHooks;

impl SimHooks for NullHooks {
    #[inline]
    fn on_warp_launch(&mut self, _: usize, _: u64, _: u64) {}
    #[inline]
    fn on_warp_retire(&mut self, _: usize, _: u64, _: u64) {}
    #[inline]
    fn on_phase_issue(&mut self, _: usize, _: u64, _: PhaseClass, _: u64, _: u64) {}
    #[inline]
    fn on_dram_transfer(&mut self, _: usize, _: u32, _: u64) {}
    #[inline]
    fn on_mem_read(&mut self, _: usize, _: u64) {}
    #[inline]
    fn on_rt_phase(&mut self, _: usize, _: u32, _: u32, _: u64, _: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_hooks_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NullHooks>(), 0);
    }

    #[test]
    fn phase_class_tags_match_cpi_stack_names() {
        assert_eq!(PhaseClass::Compute.tag(), "compute");
        assert_eq!(PhaseClass::Memory.tag(), "memory");
        assert_eq!(PhaseClass::Rt.tag(), "rt");
    }
}
