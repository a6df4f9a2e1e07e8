//! Warp state: a bundle of up to `warp_size` thread programs advancing in
//! SIMT phases.

use crate::workload::{Op, WarpProgram, Workload};

/// A warp slot: the resident warp's program and its gather buffer, both
/// kept and reused when the slot is backfilled.
pub(crate) struct Warp<'w> {
    program: Box<dyn WarpProgram + 'w>,
    /// The current phase's gathered ops; reused from phase to phase.
    ops: Vec<Op>,
}

impl<'w> Warp<'w> {
    /// A slot for `workload`'s warps, holding none yet.
    pub fn new(workload: &'w (dyn Workload + 'w)) -> Self {
        Warp {
            program: workload.warp_program(),
            ops: Vec::new(),
        }
    }

    /// Instantiates the warp covering threads
    /// `[first_thread, first_thread + lane_count)` in this slot.
    pub fn launch(&mut self, first_thread: u64, lane_count: u32) {
        self.program.launch(first_thread, lane_count);
    }

    /// Advances every live lane by one operation and returns the gathered
    /// ops. An empty result means every lane has exited: the warp retires.
    pub fn gather_phase(&mut self) -> &[Op] {
        self.ops.clear();
        self.program.gather(&mut self.ops);
        &self.ops
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
        let mut warp = Warp::new(&w);
        warp.launch(0, 4);
        // Phase 1: all four lanes have an op.
        assert_eq!(warp.gather_phase().len(), 4);
        // Phase 2: lane 0 (1 op) has exited.
        assert_eq!(warp.gather_phase().len(), 3);
        assert_eq!(warp.gather_phase().len(), 2);
        assert_eq!(warp.gather_phase().len(), 1);
        assert!(warp.gather_phase().is_empty(), "all lanes done → retire");
        // A backfill reuses the slot: threads 2 and 3 run 3 and 4 ops.
        warp.launch(2, 2);
        let phases: Vec<usize> = (0..5).map(|_| warp.gather_phase().len()).collect();
        assert_eq!(phases, [2, 2, 2, 1, 0]);
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
        let mut warp = Warp::new(&w);
        warp.launch(96, 4); // last warp: 4 threads of 100
        assert_eq!(warp.gather_phase().len(), 4);
    }
}
