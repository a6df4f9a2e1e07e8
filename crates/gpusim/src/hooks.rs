//! Observability seam for the simulation engine.
//!
//! The engine is generic over a [`SimHooks`] implementation and invokes it
//! at the architecturally interesting moments of a run: warp launch and
//! retirement, phase issue, cache probes, DRAM transfers and RT-unit
//! occupancy. Dispatch is static — the engine is monomorphized per hook
//! type — so with the default [`NullHooks`] every callback inlines to
//! nothing and the cycle path stays exactly as fast as before the seam
//! existed.
//!
//! Hooks observe; they must not steer. Nothing a hook does can change the
//! timing of the run, which is what makes the "hooks are free" contract
//! testable: a run with [`TraceHooks`] must produce bit-identical
//! [`SimStats`](crate::stats::SimStats) to a run with [`NullHooks`].
//!
//! Every callback fires on the calling thread, from the engine's commit
//! loop, in event order — so `&mut H` needs no `Send`/`Sync` bound and
//! recorded traces are byte-identical from run to run.
//!
//! ```
//! use gpusim::{GpuConfig, Simulator, TraceHooks};
//! use gpusim::workload::{Op, ScriptedWorkload};
//! use minijson::ToJson;
//!
//! let w = ScriptedWorkload::uniform(64, vec![
//!     Op::Load { addr: 0, bytes: 4 },
//!     Op::Compute { cycles: 8, insts: 8 },
//! ]);
//! let sim = Simulator::new(GpuConfig::mobile_soc());
//! let mut trace = TraceHooks::new(1000);
//! let stats = sim.run_with_hooks(&w, &mut trace);
//! assert_eq!(stats, sim.run(&w), "tracing must not perturb timing");
//! assert_eq!(trace.counters().warps_launched, 2);
//! let json = trace.to_json(); // minijson Value, ready for --json output
//! assert!(json.get("counters").is_some());
//! ```

/// Which cache level a probe hit or missed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLevel {
    /// Per-SM L1 data cache.
    L1,
    /// Shared L2 slice (one per memory partition).
    L2,
}

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
/// No method has a default body: an implementation that misses an event —
/// in particular a forwarding one — fails to compile instead of silently
/// dropping it. Implementations must be pure observers: the engine's timing
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

    /// A cache probe at `level` resolved as a hit or a miss.
    fn on_cache_access(&mut self, level: CacheLevel, hit: bool);

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

/// Forwarding observer: `Some(hooks)` forwards every event, `None` behaves
/// as [`NullHooks`]. Lets callers decide at runtime whether to record
/// without paying for a second monomorphized engine.
impl<H: SimHooks> SimHooks for Option<H> {
    #[inline]
    fn on_warp_launch(&mut self, sm: usize, warp_id: u64, time: u64) {
        if let Some(h) = self {
            h.on_warp_launch(sm, warp_id, time);
        }
    }

    #[inline]
    fn on_warp_retire(&mut self, sm: usize, warp_id: u64, time: u64) {
        if let Some(h) = self {
            h.on_warp_retire(sm, warp_id, time);
        }
    }

    #[inline]
    fn on_phase_issue(
        &mut self,
        sm: usize,
        warp_id: u64,
        class: PhaseClass,
        start: u64,
        ready: u64,
    ) {
        if let Some(h) = self {
            h.on_phase_issue(sm, warp_id, class, start, ready);
        }
    }

    #[inline]
    fn on_cache_access(&mut self, level: CacheLevel, hit: bool) {
        if let Some(h) = self {
            h.on_cache_access(level, hit);
        }
    }

    #[inline]
    fn on_dram_transfer(&mut self, channel: usize, bytes: u32, time: u64) {
        if let Some(h) = self {
            h.on_dram_transfer(channel, bytes, time);
        }
    }

    #[inline]
    fn on_mem_read(&mut self, sm: usize, latency: u64) {
        if let Some(h) = self {
            h.on_mem_read(sm, latency);
        }
    }

    #[inline]
    fn on_rt_phase(&mut self, sm: usize, rays: u32, nodes: u32, start: u64, occupancy_cycles: u64) {
        if let Some(h) = self {
            h.on_rt_phase(sm, rays, nodes, start, occupancy_cycles);
        }
    }
}

/// Fan-out observer: every event goes to both members of the pair, in
/// order. Pairs nest, so any number of observers can share one run.
impl<A: SimHooks, B: SimHooks> SimHooks for (A, B) {
    #[inline]
    fn on_warp_launch(&mut self, sm: usize, warp_id: u64, time: u64) {
        self.0.on_warp_launch(sm, warp_id, time);
        self.1.on_warp_launch(sm, warp_id, time);
    }

    #[inline]
    fn on_warp_retire(&mut self, sm: usize, warp_id: u64, time: u64) {
        self.0.on_warp_retire(sm, warp_id, time);
        self.1.on_warp_retire(sm, warp_id, time);
    }

    #[inline]
    fn on_phase_issue(
        &mut self,
        sm: usize,
        warp_id: u64,
        class: PhaseClass,
        start: u64,
        ready: u64,
    ) {
        self.0.on_phase_issue(sm, warp_id, class, start, ready);
        self.1.on_phase_issue(sm, warp_id, class, start, ready);
    }

    #[inline]
    fn on_cache_access(&mut self, level: CacheLevel, hit: bool) {
        self.0.on_cache_access(level, hit);
        self.1.on_cache_access(level, hit);
    }

    #[inline]
    fn on_dram_transfer(&mut self, channel: usize, bytes: u32, time: u64) {
        self.0.on_dram_transfer(channel, bytes, time);
        self.1.on_dram_transfer(channel, bytes, time);
    }

    #[inline]
    fn on_mem_read(&mut self, sm: usize, latency: u64) {
        self.0.on_mem_read(sm, latency);
        self.1.on_mem_read(sm, latency);
    }

    #[inline]
    fn on_rt_phase(&mut self, sm: usize, rays: u32, nodes: u32, start: u64, occupancy_cycles: u64) {
        self.0.on_rt_phase(sm, rays, nodes, start, occupancy_cycles);
        self.1.on_rt_phase(sm, rays, nodes, start, occupancy_cycles);
    }
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
    fn on_cache_access(&mut self, _: CacheLevel, _: bool) {}
    #[inline]
    fn on_dram_transfer(&mut self, _: usize, _: u32, _: u64) {}
    #[inline]
    fn on_mem_read(&mut self, _: usize, _: u64) {}
    #[inline]
    fn on_rt_phase(&mut self, _: usize, _: u32, _: u32, _: u64, _: u64) {}
}

/// Monotonic per-component event counters collected by [`TraceHooks`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Warps that became resident (initial launch + backfill).
    pub warps_launched: u64,
    /// Warps that ran to completion.
    pub warps_retired: u64,
    /// Issued phases whose critical path was compute.
    pub compute_phases: u64,
    /// Issued phases whose critical path was memory.
    pub memory_phases: u64,
    /// Issued phases whose critical path was the RT unit.
    pub rt_phases: u64,
    /// L1D hits across all SMs.
    pub l1_hits: u64,
    /// L1D misses across all SMs.
    pub l1_misses: u64,
    /// L2 hits across all slices.
    pub l2_hits: u64,
    /// L2 misses across all slices.
    pub l2_misses: u64,
    /// DRAM transactions scheduled on any channel.
    pub dram_transfers: u64,
    /// Total bytes moved over all DRAM channels.
    pub dram_bytes: u64,
    /// Active rays summed over all RT phases.
    pub rt_active_rays: u64,
    /// Cycles RT tester slots were occupied.
    pub rt_occupancy_cycles: u64,
}

impl TraceCounters {
    /// Total issued phases across all classes.
    pub fn phases(&self) -> u64 {
        self.compute_phases + self.memory_phases + self.rt_phases
    }
}

minijson::record! {
    to_json TraceCounters {
        "warps_launched" => warps_launched,
        "warps_retired" => warps_retired,
        "compute_phases" => compute_phases,
        "memory_phases" => memory_phases,
        "rt_phases" => rt_phases,
        "l1_hits" => l1_hits,
        "l1_misses" => l1_misses,
        "l2_hits" => l2_hits,
        "l2_misses" => l2_misses,
        "dram_transfers" => dram_transfers,
        "dram_bytes" => dram_bytes,
        "rt_active_rays" => rt_active_rays,
        "rt_occupancy_cycles" => rt_occupancy_cycles,
    }
}

/// One cycle-slice of simulated time: how many phases issued in the slice
/// and how the exposed cycles split across the CPI-stack components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSlice {
    /// Phases issued whose start fell inside this slice.
    pub phases: u64,
    /// Exposed cycles attributed to compute.
    pub compute_cycles: u64,
    /// Exposed cycles attributed to memory.
    pub memory_cycles: u64,
    /// Exposed cycles attributed to the RT unit.
    pub rt_cycles: u64,
}

minijson::record! {
    to_json TraceSlice {
        "phases" => phases,
        "compute" => compute_cycles,
        "memory" => memory_cycles,
        "rt" => rt_cycles,
    }
}

/// Recording observer: per-component counters plus a CPI-stack sample per
/// fixed-width slice of simulated cycles.
///
/// The slice series doubles as a progress trace — the highest slice index
/// tells how far simulated time has advanced — and serializes to JSON via
/// [`ToJson`](minijson::ToJson) for the CLI's `--progress`/`--json` plumbing.
#[derive(Debug, Clone)]
pub struct TraceHooks {
    slice_cycles: u64,
    counters: TraceCounters,
    slices: Vec<TraceSlice>,
}

impl TraceHooks {
    /// Creates a recorder sampling one CPI-stack slice every
    /// `slice_cycles` simulated cycles.
    ///
    /// # Panics
    ///
    /// Panics if `slice_cycles` is zero.
    pub fn new(slice_cycles: u64) -> Self {
        assert!(slice_cycles > 0, "slice width must be positive");
        TraceHooks {
            slice_cycles,
            counters: TraceCounters::default(),
            slices: Vec::new(),
        }
    }

    /// The configured slice width in cycles.
    pub fn slice_cycles(&self) -> u64 {
        self.slice_cycles
    }

    /// The accumulated per-component counters.
    pub fn counters(&self) -> &TraceCounters {
        &self.counters
    }

    /// The CPI-stack samples, one per slice of simulated time.
    pub fn slices(&self) -> &[TraceSlice] {
        &self.slices
    }

    /// Resets all recorded state, keeping the slice width. Lets one
    /// allocation be reused across the per-group runs of a pipeline.
    pub fn reset(&mut self) {
        self.counters = TraceCounters::default();
        self.slices.clear();
    }

    fn slice_mut(&mut self, time: u64) -> &mut TraceSlice {
        let idx = (time / self.slice_cycles) as usize;
        if idx >= self.slices.len() {
            self.slices.resize(idx + 1, TraceSlice::default());
        }
        &mut self.slices[idx]
    }
}

minijson::record! {
    to_json TraceHooks {
        "slice_cycles" => slice_cycles,
        "counters" => counters,
        "slices" => slices,
    }
}

impl SimHooks for TraceHooks {
    fn on_warp_launch(&mut self, _sm: usize, _warp_id: u64, _time: u64) {
        self.counters.warps_launched += 1;
    }

    fn on_warp_retire(&mut self, _sm: usize, _warp_id: u64, _time: u64) {
        self.counters.warps_retired += 1;
    }

    fn on_phase_issue(
        &mut self,
        _sm: usize,
        _warp_id: u64,
        class: PhaseClass,
        start: u64,
        ready: u64,
    ) {
        let span = ready - start;
        match class {
            PhaseClass::Compute => self.counters.compute_phases += 1,
            PhaseClass::Memory => self.counters.memory_phases += 1,
            PhaseClass::Rt => self.counters.rt_phases += 1,
        }
        let slice = self.slice_mut(start);
        slice.phases += 1;
        match class {
            PhaseClass::Compute => slice.compute_cycles += span,
            PhaseClass::Memory => slice.memory_cycles += span,
            PhaseClass::Rt => slice.rt_cycles += span,
        }
    }

    fn on_cache_access(&mut self, level: CacheLevel, hit: bool) {
        let counter = match (level, hit) {
            (CacheLevel::L1, true) => &mut self.counters.l1_hits,
            (CacheLevel::L1, false) => &mut self.counters.l1_misses,
            (CacheLevel::L2, true) => &mut self.counters.l2_hits,
            (CacheLevel::L2, false) => &mut self.counters.l2_misses,
        };
        *counter += 1;
    }

    fn on_dram_transfer(&mut self, _channel: usize, bytes: u32, _time: u64) {
        self.counters.dram_transfers += 1;
        self.counters.dram_bytes += bytes as u64;
    }

    fn on_mem_read(&mut self, _sm: usize, _latency: u64) {}

    fn on_rt_phase(
        &mut self,
        _sm: usize,
        rays: u32,
        _nodes: u32,
        _start: u64,
        occupancy_cycles: u64,
    ) {
        self.counters.rt_active_rays += rays as u64;
        self.counters.rt_occupancy_cycles += occupancy_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_hooks_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NullHooks>(), 0);
    }

    #[test]
    fn trace_slices_bucket_by_start_cycle() {
        let mut t = TraceHooks::new(100);
        t.on_phase_issue(0, 0, PhaseClass::Compute, 10, 30);
        t.on_phase_issue(0, 1, PhaseClass::Memory, 250, 400);
        assert_eq!(t.slices().len(), 3);
        assert_eq!(t.slices()[0].compute_cycles, 20);
        assert_eq!(t.slices()[1], TraceSlice::default());
        assert_eq!(t.slices()[2].memory_cycles, 150);
        assert_eq!(t.counters().phases(), 2);
    }

    #[test]
    fn reset_clears_state() {
        let mut t = TraceHooks::new(10);
        t.on_warp_launch(0, 0, 0);
        t.on_phase_issue(0, 0, PhaseClass::Rt, 0, 5);
        t.reset();
        assert_eq!(*t.counters(), TraceCounters::default());
        assert!(t.slices().is_empty());
        assert_eq!(t.slice_cycles(), 10);
    }

    #[test]
    fn events_on_slice_boundaries_land_in_the_next_slice() {
        // Slices are half-open [k*w, (k+1)*w): a phase starting exactly at
        // the boundary belongs to the next slice, not the previous one.
        let mut t = TraceHooks::new(100);
        t.on_phase_issue(0, 0, PhaseClass::Compute, 99, 100);
        t.on_phase_issue(0, 1, PhaseClass::Compute, 100, 130);
        t.on_phase_issue(0, 2, PhaseClass::Compute, 200, 201);
        assert_eq!(t.slices().len(), 3);
        assert_eq!(t.slices()[0].phases, 1, "start 99 stays in slice 0");
        assert_eq!(t.slices()[1].phases, 1, "start 100 opens slice 1");
        assert_eq!(t.slices()[1].compute_cycles, 30);
        assert_eq!(t.slices()[2].phases, 1, "start 200 opens slice 2");
    }

    #[test]
    fn unit_slice_width_gives_one_slice_per_cycle() {
        let mut t = TraceHooks::new(1);
        t.on_phase_issue(0, 0, PhaseClass::Memory, 0, 3);
        t.on_phase_issue(0, 1, PhaseClass::Memory, 5, 6);
        assert_eq!(t.slices().len(), 6, "indices 0..=5");
        assert_eq!(t.slices()[0].memory_cycles, 3);
        assert_eq!(t.slices()[5].memory_cycles, 1);
        assert_eq!(
            t.slices()[1..5].iter().map(|s| s.phases).sum::<u64>(),
            0,
            "no phases start between the two issues"
        );
    }

    #[test]
    #[should_panic(expected = "slice width must be positive")]
    fn zero_slice_width_panics() {
        let _ = TraceHooks::new(0);
    }

    #[test]
    fn reset_clears_counters_and_slices_together() {
        let mut t = TraceHooks::new(100);
        t.on_warp_launch(0, 0, 0);
        t.on_dram_transfer(0, 128, 90);
        t.on_rt_phase(0, 16, 2, 0, 40);
        t.on_phase_issue(0, 0, PhaseClass::Rt, 350, 420);
        assert_ne!(*t.counters(), TraceCounters::default());
        assert_eq!(t.slices().len(), 4);
        t.reset();
        assert_eq!(*t.counters(), TraceCounters::default());
        assert!(t.slices().is_empty());
        // The recorder is reusable after reset: new events land in slice 0.
        t.on_phase_issue(0, 1, PhaseClass::Compute, 10, 20);
        assert_eq!(t.slices().len(), 1);
        assert_eq!(t.slices()[0].phases, 1);
    }

    /// Counts calls per callback, in trait order.
    #[derive(Debug, Default, PartialEq)]
    struct Counting([u32; 7]);

    impl SimHooks for Counting {
        fn on_warp_launch(&mut self, _: usize, _: u64, _: u64) {
            self.0[0] += 1;
        }
        fn on_warp_retire(&mut self, _: usize, _: u64, _: u64) {
            self.0[1] += 1;
        }
        fn on_phase_issue(&mut self, _: usize, _: u64, _: PhaseClass, _: u64, _: u64) {
            self.0[2] += 1;
        }
        fn on_cache_access(&mut self, _: CacheLevel, _: bool) {
            self.0[3] += 1;
        }
        fn on_dram_transfer(&mut self, _: usize, _: u32, _: u64) {
            self.0[4] += 1;
        }
        fn on_mem_read(&mut self, _: usize, _: u64) {
            self.0[5] += 1;
        }
        fn on_rt_phase(&mut self, _: usize, _: u32, _: u32, _: u64, _: u64) {
            self.0[6] += 1;
        }
    }

    /// Fires each of the seven callbacks exactly once.
    fn fire_all(h: &mut impl SimHooks) {
        h.on_warp_launch(0, 7, 0);
        h.on_warp_retire(0, 7, 90);
        h.on_phase_issue(0, 7, PhaseClass::Memory, 10, 30);
        h.on_cache_access(CacheLevel::L1, true);
        h.on_dram_transfer(2, 64, 300);
        h.on_mem_read(0, 42);
        h.on_rt_phase(1, 8, 3, 5, 12);
    }

    #[test]
    fn option_hooks_forward_only_when_some() {
        let mut none: Option<Counting> = None;
        fire_all(&mut none); // must not panic
        let mut some = Some(Counting::default());
        fire_all(&mut some);
        assert_eq!(some, Some(Counting([1; 7])));
    }

    #[test]
    fn pair_hooks_fan_out_to_both() {
        let mut pair = (Counting::default(), Counting::default());
        fire_all(&mut pair);
        assert_eq!(pair, (Counting([1; 7]), Counting([1; 7])));
    }

    #[test]
    fn phase_class_tags_match_cpi_stack_names() {
        assert_eq!(PhaseClass::Compute.tag(), "compute");
        assert_eq!(PhaseClass::Memory.tag(), "memory");
        assert_eq!(PhaseClass::Rt.tag(), "rt");
    }
}
