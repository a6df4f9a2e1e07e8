//! Per-SM scheduling state: pending warps, the issue port and the RT
//! accelerator.
//!
//! `SmState` holds only *timing* state. The warp programs themselves live
//! in the [`Decoder`](super::decode::Decoder), which also categorizes each
//! phase ([`PhaseMix`](crate::workload::PhaseMix)) independently of
//! [`MemoryHierarchy`](crate::mem::MemoryHierarchy) — it needs only the
//! line size, which is pure configuration.

use std::collections::VecDeque;

use crate::config::GpuConfig;
use crate::core::rtunit::RtUnit;

/// Per-SM scheduling state.
pub(crate) struct SmState {
    /// This SM's warps not yet resident, in launch order (a freed slot
    /// goes to the oldest pending warp).
    pub pending: VecDeque<(u64, u64, u32)>, // (warp id, first thread, lanes)
    /// Next cycle the issue port is free.
    pub issue_next_free: u64,
    /// The SM's RT accelerator.
    pub rt_unit: RtUnit,
    /// Number of warp slots currently occupied (slots are dense: a retired
    /// warp's slot is immediately backfilled, so this only grows).
    pub slots_used: usize,
}

impl SmState {
    /// Creates an idle SM for `config`.
    pub(crate) fn new(config: &GpuConfig) -> Self {
        SmState {
            pending: VecDeque::new(),
            issue_next_free: 0,
            rt_unit: RtUnit::new(config.rt_max_warps, config.rt_lanes_per_cycle),
            slots_used: 0,
        }
    }

    /// Arbitrates the issue port for a phase arriving at `time`.
    ///
    /// The port is occupied one cycle per LSU transaction (coalesced
    /// line), at least one cycle total; RT fetches are issued by the RT
    /// unit and do not consume LSU slots. Returns the issue cycle.
    pub(crate) fn issue_at(&mut self, time: u64, lsu_slots: u64) -> u64 {
        let start = time.max(self.issue_next_free);
        self.issue_next_free = start + lsu_slots.max(1);
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_port_serializes_lsu_slots() {
        let mut sm = SmState::new(&GpuConfig::mobile_soc());
        assert_eq!(sm.issue_at(10, 3), 10);
        assert_eq!(sm.issue_at(10, 1), 13, "port busy until 13");
        assert_eq!(
            sm.issue_at(100, 0),
            100,
            "zero slots still occupy one cycle"
        );
        assert_eq!(sm.issue_next_free, 101);
    }
}
