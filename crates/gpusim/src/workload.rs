//! Workload abstraction: what the simulated GPU executes.
//!
//! A [`Workload`] is a grid of threads (one per pixel for ray tracing); each
//! thread is a lazy [`ThreadProgram`] yielding abstract operations ([`Op`]).
//! The simulator groups threads into warps — one [`WarpProgram`] per
//! resident warp — executes ops in SIMT phases and charges their
//! latency/bandwidth to the modeled hardware.

/// Memory space an access belongs to; determines which units handle it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Regular global-memory traffic through the LSU.
    Global,
    /// BVH node / primitive fetches issued by the RT unit.
    RtData,
}

/// One abstract operation of a thread program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// ALU work taking `cycles` pipelined cycles and representing `insts`
    /// scalar instructions.
    Compute {
        /// Pipelined execution cycles.
        cycles: u32,
        /// Scalar instruction count for IPC accounting.
        insts: u32,
    },
    /// Global-memory load of `bytes` at `addr`.
    Load {
        /// Byte address.
        addr: u64,
        /// Access size in bytes.
        bytes: u32,
    },
    /// Global-memory store (fire-and-forget, consumes bandwidth only).
    Store {
        /// Byte address.
        addr: u64,
        /// Access size in bytes.
        bytes: u32,
    },
    /// RT-unit BVH node fetch plus child box tests.
    RtNode {
        /// Node address.
        addr: u64,
    },
    /// RT-unit primitive fetch plus intersection test.
    RtPrim {
        /// Primitive address.
        addr: u64,
    },
}

impl Op {
    /// Scalar instructions this op contributes to the IPC metric.
    pub fn instructions(&self) -> u64 {
        match self {
            Op::Compute { insts, .. } => *insts as u64,
            Op::Load { .. } | Op::Store { .. } => 1,
            // Node fetch + two box tests ≈ 3 accelerator micro-ops.
            Op::RtNode { .. } => 3,
            // Primitive fetch + intersection test.
            Op::RtPrim { .. } => 2,
        }
    }

    /// Returns `true` for operations the RT accelerator executes.
    pub fn is_rt(&self) -> bool {
        matches!(self, Op::RtNode { .. } | Op::RtPrim { .. })
    }

    /// Returns the memory access `(space, addr, bytes)` if the op touches
    /// memory.
    pub fn memory_access(&self) -> Option<(MemSpace, u64, u32)> {
        match *self {
            Op::Load { addr, bytes } | Op::Store { addr, bytes } => {
                Some((MemSpace::Global, addr, bytes))
            }
            Op::RtNode { addr } => Some((MemSpace::RtData, addr, 32)),
            Op::RtPrim { addr } => Some((MemSpace::RtData, addr, 64)),
            Op::Compute { .. } => None,
        }
    }
}

/// A lazily evaluated per-thread instruction stream.
pub trait ThreadProgram {
    /// Advances the thread and returns its next operation, or `None` once
    /// the thread has exited. Called by the repository's benchmark: the
    /// signature stays source-compatible.
    fn next_op(&mut self) -> Option<Op>;
}

/// A workload the simulator can launch: a fixed-size grid of threads.
///
/// Thread index order defines warp packing: threads `[i*warp_size,
/// (i+1)*warp_size)` form warp `i`.
pub trait Workload {
    /// Total number of threads in the grid.
    fn thread_count(&self) -> u64;

    /// Instantiates the program for thread `index`.
    ///
    /// Must be a pure function of `index`. The engine creates each program
    /// exactly once, when its warp launches.
    ///
    /// Called by the repository's benchmark: the boxed return type stays
    /// source-compatible.
    fn create_thread(&self, index: u64) -> Box<dyn ThreadProgram + '_>;

    /// An idle [`WarpProgram`] over this workload's threads: what the engine
    /// keeps in each warp slot. The default steps boxed
    /// [`Workload::create_thread`] programs; a workload whose thread state
    /// is a plain value overrides it to keep a warp's lanes in one
    /// allocation.
    fn warp_program(&self) -> Box<dyn WarpProgram + '_> {
        Box::new(ThreadLanes {
            workload: self,
            lanes: Vec::new(),
        })
    }

    /// How many of the grid's threads are launched only to exit at once
    /// (a pixel filter's deselected threads). Reported as
    /// [`SimStats::threads_filtered`](crate::SimStats); `0` unless the
    /// workload filters.
    fn filtered_threads(&self) -> u64 {
        0
    }
}

/// The thread programs of one warp slot, advanced a SIMT phase at a time.
pub trait WarpProgram {
    /// Points the slot at threads `[first_thread, first_thread + lanes)`,
    /// reusing the storage of whichever warp it held before.
    fn launch(&mut self, first_thread: u64, lanes: u32);

    /// Advances every live lane by one operation, appending the ops to
    /// `ops` in lane order. Appends nothing once every lane has exited.
    fn gather(&mut self, ops: &mut Vec<Op>);
}

/// [`Workload::warp_program`]'s default: one boxed program per live lane.
struct ThreadLanes<'w, W: Workload + ?Sized> {
    workload: &'w W,
    lanes: Vec<Box<dyn ThreadProgram + 'w>>,
}

impl<W: Workload + ?Sized> WarpProgram for ThreadLanes<'_, W> {
    fn launch(&mut self, first_thread: u64, lanes: u32) {
        let threads = first_thread..first_thread + lanes as u64;
        self.lanes.clear();
        self.lanes
            .extend(threads.map(|i| self.workload.create_thread(i)));
    }

    fn gather(&mut self, ops: &mut Vec<Op>) {
        // Exited lanes leave the vector, live ones stay in lane order.
        self.lanes
            .retain_mut(|lane| lane.next_op().map(|op| ops.push(op)).is_some());
    }
}

/// A scripted thread whose ops come from a pre-built list. The workhorse of
/// unit tests and micro-benchmarks.
#[derive(Debug, Clone)]
pub struct ScriptedThread {
    ops: std::vec::IntoIter<Op>,
}

impl ScriptedThread {
    /// Creates a thread that will yield `ops` in order.
    pub fn new(ops: Vec<Op>) -> Self {
        ScriptedThread {
            ops: ops.into_iter(),
        }
    }
}

impl ThreadProgram for ScriptedThread {
    fn next_op(&mut self) -> Option<Op> {
        self.ops.next()
    }
}

/// A test workload where every thread runs a copy of the same script, or a
/// per-thread script chosen by a closure.
pub struct ScriptedWorkload {
    threads: u64,
    script: Box<dyn Fn(u64) -> Vec<Op> + Sync>,
}

impl std::fmt::Debug for ScriptedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedWorkload")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ScriptedWorkload {
    /// All threads execute the same `ops`.
    pub fn uniform(threads: u64, ops: Vec<Op>) -> Self {
        ScriptedWorkload {
            threads,
            script: Box::new(move |_| ops.clone()),
        }
    }

    /// Thread `i` executes `f(i)`.
    pub fn per_thread<F: Fn(u64) -> Vec<Op> + Sync + 'static>(threads: u64, f: F) -> Self {
        ScriptedWorkload {
            threads,
            script: Box::new(f),
        }
    }
}

impl Workload for ScriptedWorkload {
    fn thread_count(&self) -> u64 {
        self.threads
    }

    fn create_thread(&self, index: u64) -> Box<dyn ThreadProgram + '_> {
        Box::new(ScriptedThread::new((self.script)(index)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_instruction_counts() {
        assert_eq!(
            Op::Compute {
                cycles: 10,
                insts: 7
            }
            .instructions(),
            7
        );
        assert_eq!(Op::Load { addr: 0, bytes: 4 }.instructions(), 1);
        assert_eq!(Op::RtNode { addr: 0 }.instructions(), 3);
        assert_eq!(Op::RtPrim { addr: 0 }.instructions(), 2);
    }

    #[test]
    fn op_classification() {
        assert!(Op::RtNode { addr: 0 }.is_rt());
        assert!(!Op::Load { addr: 0, bytes: 4 }.is_rt());
        assert_eq!(
            Op::RtNode { addr: 96 }.memory_access(),
            Some((MemSpace::RtData, 96, 32))
        );
        assert_eq!(
            Op::Compute {
                cycles: 1,
                insts: 1
            }
            .memory_access(),
            None
        );
        assert_eq!(
            Op::Store { addr: 4, bytes: 16 }.memory_access(),
            Some((MemSpace::Global, 4, 16))
        );
    }

    #[test]
    fn scripted_thread_yields_in_order() {
        let mut t = ScriptedThread::new(vec![
            Op::Compute {
                cycles: 1,
                insts: 1,
            },
            Op::Load { addr: 8, bytes: 4 },
        ]);
        assert!(matches!(t.next_op(), Some(Op::Compute { .. })));
        assert!(matches!(t.next_op(), Some(Op::Load { .. })));
        assert!(t.next_op().is_none());
        assert!(t.next_op().is_none(), "stays exhausted");
    }

    #[test]
    fn scripted_workload_per_thread() {
        let w = ScriptedWorkload::per_thread(4, |i| {
            vec![Op::Compute {
                cycles: i as u32 + 1,
                insts: 1,
            }]
        });
        assert_eq!(w.thread_count(), 4);
        let mut t3 = w.create_thread(3);
        assert_eq!(
            t3.next_op(),
            Some(Op::Compute {
                cycles: 4,
                insts: 1
            })
        );
    }
}
