//! RT accelerator unit: bounded-occupancy traversal engine.

/// One ray-tracing accelerator (per SM).
///
/// Models the two resource limits of Table II: a bounded number of warps
/// resident in the unit (`rt_max_warps`) and a fixed ray-test throughput
/// (`lanes_per_cycle`). Node/primitive data fetches go through the regular
/// memory hierarchy; this unit only arbitrates occupancy and counts the
/// efficiency statistic (average active rays per warp phase).
#[derive(Debug, Clone)]
pub(crate) struct RtUnit {
    /// Completion time of the phase occupying each warp slot.
    slots: Vec<u64>,
    lanes_per_cycle: u32,
    phases: u64,
    active_rays: u64,
}

impl RtUnit {
    /// Creates an idle unit with `max_warps` warp slots.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub(crate) fn new(max_warps: u32, lanes_per_cycle: u32) -> Self {
        assert!(
            max_warps > 0 && lanes_per_cycle > 0,
            "RT unit limits must be positive"
        );
        RtUnit {
            slots: vec![0; max_warps as usize],
            lanes_per_cycle,
            phases: 0,
            active_rays: 0,
        }
    }

    /// Requests a warp slot at time `now`; returns `(slot, start)` where
    /// `start >= now` is when the warp may begin its RT phase.
    pub(crate) fn acquire(&mut self, now: u64) -> (usize, u64) {
        #[expect(
            clippy::expect_used,
            reason = "GpuConfig::validate rejects zero RT tester slots before a unit is built"
        )]
        let (slot, &free_at) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("unit has at least one slot");
        (slot, now.max(free_at))
    }

    /// Marks `slot` busy until `done` and records `active_rays` for the
    /// efficiency statistic.
    pub(crate) fn complete(&mut self, slot: usize, done: u64, active_rays: u32) {
        self.slots[slot] = self.slots[slot].max(done);
        self.phases += 1;
        self.active_rays += active_rays as u64;
    }

    /// Cycles the test pipeline needs for `rays` concurrent rays.
    pub(crate) fn occupancy_cycles(&self, rays: u32) -> u64 {
        (rays as u64).div_ceil(self.lanes_per_cycle as u64).max(1)
    }

    /// Total RT warp phases issued.
    pub(crate) fn phases(&self) -> u64 {
        self.phases
    }

    /// Sum of active rays over all phases.
    pub(crate) fn active_rays(&self) -> u64 {
        self.active_rays
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_prefers_free_slot() {
        let mut rt = RtUnit::new(2, 4);
        let (s0, t0) = rt.acquire(10);
        assert_eq!(t0, 10);
        rt.complete(s0, 100, 32);
        let (s1, t1) = rt.acquire(10);
        assert_ne!(s0, s1, "second slot is free");
        assert_eq!(t1, 10);
        rt.complete(s1, 200, 16);
        // Both busy: next acquire waits for the earliest completion.
        let (_, t2) = rt.acquire(10);
        assert_eq!(t2, 100);
    }

    #[test]
    fn occupancy_scales_with_rays() {
        let rt = RtUnit::new(4, 4);
        assert_eq!(rt.occupancy_cycles(1), 1);
        assert_eq!(rt.occupancy_cycles(4), 1);
        assert_eq!(rt.occupancy_cycles(5), 2);
        assert_eq!(rt.occupancy_cycles(32), 8);
        assert_eq!(rt.occupancy_cycles(0), 1, "floor of one cycle");
    }

    #[test]
    fn efficiency_counters_accumulate() {
        let mut rt = RtUnit::new(2, 4);
        let (s, _) = rt.acquire(0);
        rt.complete(s, 10, 32);
        let (s, _) = rt.acquire(0);
        rt.complete(s, 10, 8);
        assert_eq!(rt.phases(), 2);
        assert_eq!(rt.active_rays(), 40);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_slots_panics() {
        RtUnit::new(0, 4);
    }
}
