//! Warp state: a bundle of up to `warp_size` thread programs advancing in
//! SIMT phases.

use crate::workload::{Op, ThreadProgram, Workload};

/// A resident warp.
pub(crate) struct Warp<'w> {
    /// Global warp id (launch order; used for greedy-then-oldest arbitration).
    pub id: u64,
    /// The SM this warp is resident on.
    pub sm: usize,
    lanes: Vec<Option<Box<dyn ThreadProgram + 'w>>>,
    /// The current phase's gathered ops; reused from phase to phase.
    ops: Vec<Op>,
}

impl<'w> Warp<'w> {
    /// Instantiates the warp covering threads
    /// `[first_thread, first_thread + lane_count)`.
    pub fn new(
        workload: &'w (dyn Workload + 'w),
        id: u64,
        sm: usize,
        first_thread: u64,
        lane_count: u32,
    ) -> Self {
        let lanes = (0..lane_count as u64)
            .map(|l| Some(workload.create_thread(first_thread + l)))
            .collect();
        Warp {
            id,
            sm,
            lanes,
            ops: Vec::with_capacity(lane_count as usize),
        }
    }

    /// Advances every live lane by one operation and returns the gathered
    /// ops. An empty result means every lane has exited: the warp retires.
    pub fn gather_phase(&mut self) -> &[Op] {
        self.ops.clear();
        for lane in &mut self.lanes {
            if let Some(program) = lane {
                match program.next_op() {
                    Some(op) => self.ops.push(op),
                    None => *lane = None,
                }
            }
        }
        &self.ops
    }

    /// Number of lanes still running.
    pub fn live_lanes(&self) -> usize {
        self.lanes.iter().filter(|l| l.is_some()).count()
    }
}

impl std::fmt::Debug for Warp<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warp")
            .field("id", &self.id)
            .field("sm", &self.sm)
            .field("live_lanes", &self.live_lanes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ScriptedWorkload;

    #[test]
    fn gather_advances_all_lanes() {
        let w = ScriptedWorkload::per_thread(4, |i| {
            (0..=i)
                .map(|_| Op::Compute {
                    cycles: 1,
                    insts: 1,
                })
                .collect()
        });
        let mut warp = Warp::new(&w, 0, 0, 0, 4);
        assert_eq!(warp.live_lanes(), 4);
        // Phase 1: all four lanes have an op.
        assert_eq!(warp.gather_phase().len(), 4);
        // Phase 2: lane 0 (1 op) has exited.
        assert_eq!(warp.gather_phase().len(), 3);
        assert_eq!(warp.live_lanes(), 3);
        assert_eq!(warp.gather_phase().len(), 2);
        assert_eq!(warp.gather_phase().len(), 1);
        assert!(warp.gather_phase().is_empty(), "all lanes done → retire");
    }

    #[test]
    fn partial_warp_at_grid_edge() {
        let w = ScriptedWorkload::uniform(
            100,
            vec![Op::Compute {
                cycles: 1,
                insts: 1,
            }],
        );
        let warp = Warp::new(&w, 3, 1, 96, 4); // last warp: 4 threads of 100
        assert_eq!(warp.live_lanes(), 4);
    }
}
