//! Workload abstraction: what the simulated GPU executes.
//!
//! A [`Workload`] is a grid of threads (one per pixel for ray tracing); each
//! thread is a lazy [`ThreadProgram`] yielding abstract operations ([`Op`]).
//! The simulator groups threads into warps — one [`WarpProgram`] per
//! resident warp — gathers one op per live lane into a [`PhaseMix`] per SIMT
//! phase and charges the phase's latency/bandwidth to the modeled hardware.

use std::sync::atomic::{AtomicU32, Ordering};

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
    pub(crate) fn instructions(&self) -> u64 {
        match self {
            Op::Compute { insts, .. } => *insts as u64,
            Op::Load { .. } | Op::Store { .. } => 1,
            // Node fetch + two box tests ≈ 3 accelerator micro-ops.
            Op::RtNode { .. } => 3,
            // Primitive fetch + intersection test.
            Op::RtPrim { .. } => 2,
        }
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

/// One SIMT phase of a warp as the timing model sees it, categorized while
/// it is gathered: the longest ALU latency, the coalesced memory lines per
/// space and the RT ray count. [`WarpProgram::gather`] adds one op per live
/// lane; the engine reuses one mix, line buffers included, for every phase.
///
/// Each line list holds its phase's distinct lines in first-occurrence
/// order. A hash set of the lines seen so far merges duplicates, so adding
/// an op costs the same however many lines the phase already holds.
#[derive(Debug, Clone)]
pub struct PhaseMix {
    /// Cache-line size the accesses coalesce at.
    line_bytes: u32,
    /// `log2(line_bytes)` when that is a power of two: a line index is then
    /// a shift rather than a division.
    line_shift: Option<u32>,
    /// Ops gathered so far.
    ops: u32,
    /// Longest `Op::Compute` latency in the phase.
    pub(crate) compute_cycles: u64,
    /// Active rays (one per RT op).
    pub(crate) rt_rays: u32,
    /// Coalesced line addresses fetched by the RT unit.
    pub(crate) rt_lines: Vec<u64>,
    /// Coalesced line addresses read by the LSU.
    pub(crate) load_lines: Vec<u64>,
    /// Coalesced line addresses written by the LSU.
    pub(crate) store_lines: Vec<u64>,
    /// Dynamic instruction count of the phase.
    pub(crate) instructions: u64,
    /// The lines already in the three lists; no part of the phase.
    seen: LineSet,
}

/// Equal phases: the set of seen lines is working state and left out.
impl PartialEq for PhaseMix {
    fn eq(&self, other: &Self) -> bool {
        self.line_bytes == other.line_bytes
            && self.ops == other.ops
            && self.compute_cycles == other.compute_cycles
            && self.rt_rays == other.rt_rays
            && self.rt_lines == other.rt_lines
            && self.load_lines == other.load_lines
            && self.store_lines == other.store_lines
            && self.instructions == other.instructions
    }
}

impl Eq for PhaseMix {}

/// Which of a phase's line lists a line goes to, in the order a ring phase
/// stores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum LineList {
    #[default]
    Rt,
    Load,
    Store,
}

impl PhaseMix {
    /// An empty phase whose accesses coalesce at `line_bytes`, the
    /// cache-line size (L1 and L2 lines match by
    /// [`GpuConfig::validate`](crate::GpuConfig::validate)).
    pub fn new(line_bytes: u32) -> Self {
        PhaseMix {
            line_bytes,
            line_shift: line_bytes
                .is_power_of_two()
                .then(|| line_bytes.trailing_zeros()),
            ops: 0,
            compute_cycles: 0,
            rt_rays: 0,
            rt_lines: Vec::new(),
            load_lines: Vec::new(),
            store_lines: Vec::new(),
            instructions: 0,
            seen: LineSet::new(),
        }
    }

    /// Empties the phase for the next gather, keeping the line buffers'
    /// allocations.
    pub fn clear(&mut self) {
        self.ops = 0;
        self.compute_cycles = 0;
        self.rt_rays = 0;
        self.instructions = 0;
        self.rt_lines.clear();
        self.load_lines.clear();
        self.store_lines.clear();
        self.seen.clear();
    }

    /// Adds one lane's `op`, coalescing its memory access at line
    /// granularity with the phase's earlier ones.
    #[inline]
    pub fn push(&mut self, op: Op) {
        self.ops += 1;
        self.instructions += op.instructions();
        match op {
            Op::Compute { cycles, .. } => {
                self.compute_cycles = self.compute_cycles.max(cycles as u64);
            }
            Op::Load { addr, bytes } => self.push_lines(LineList::Load, addr, bytes),
            Op::Store { addr, bytes } => self.push_lines(LineList::Store, addr, bytes),
            Op::RtNode { .. } | Op::RtPrim { .. } => {
                self.rt_rays += 1;
                if let Some((_, addr, bytes)) = op.memory_access() {
                    self.push_lines(LineList::Rt, addr, bytes);
                }
            }
        }
    }

    /// Appends to `list` each cache line covered by `[addr, addr + bytes)`
    /// that the list does not hold yet (warp-level memory coalescing).
    #[inline]
    fn push_lines(&mut self, list: LineList, addr: u64, bytes: u32) {
        let lines = match list {
            LineList::Rt => &mut self.rt_lines,
            LineList::Load => &mut self.load_lines,
            LineList::Store => &mut self.store_lines,
        };
        let line_of = |addr: u64| match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.line_bytes as u64,
        };
        let (first, last) = (line_of(addr), line_of(addr + bytes.max(1) as u64 - 1));
        for line in first..=last {
            if self.seen.insert(list, line) {
                lines.push(line);
            }
        }
    }

    /// Ops gathered into the phase.
    pub fn len(&self) -> usize {
        self.ops as usize
    }

    /// `true` until an op is gathered; a gather that leaves it so means
    /// every lane has exited.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// Makes room for `lines` lines in each list without reallocating, so
    /// that a decode-ahead helper's gathers allocate nothing.
    pub(crate) fn reserve(&mut self, lines: usize) {
        for list in [
            &mut self.rt_lines,
            &mut self.load_lines,
            &mut self.store_lines,
        ] {
            list.reserve(lines);
        }
    }

    /// Writes the phase into `ring` from position `at` on, if it fits in
    /// `free` words as [`RingPhase`] reads it: seven header words (ops, RT
    /// rays, compute cycles, instructions, the three list lengths), then
    /// the three line lists, a word per line. Returns the words written, or
    /// `None` — with whatever it wrote left unpublished — for a phase that
    /// does not fit, or has a count or line that needs more than a word.
    pub(crate) fn put_words(&self, ring: &Ring, at: u32, free: u32) -> Option<u32> {
        let lists = [&self.rt_lines, &self.load_lines, &self.store_lines];
        let lines: usize = lists.iter().map(|list| list.len()).sum();
        let words = u32::try_from(RingPhase::HEADER + lines)
            .ok()
            .filter(|&words| words <= free)?;
        let header = [
            self.ops,
            self.rt_rays,
            u32::try_from(self.compute_cycles).ok()?,
            u32::try_from(self.instructions).ok()?,
            self.rt_lines.len() as u32,
            self.load_lines.len() as u32,
            self.store_lines.len() as u32,
        ];
        if header[0] == RingPhase::SPILLED {
            return None;
        }
        let put = |i: usize, word: u32| {
            ring[at.wrapping_add(i as u32) as usize % RING_WORDS].store(word, Ordering::Relaxed);
        };
        for (i, word) in header.into_iter().enumerate() {
            put(i, word);
        }
        for (i, &line) in lists.into_iter().flatten().enumerate() {
            put(RingPhase::HEADER + i, u32::try_from(line).ok()?);
        }
        Some(words)
    }
}

/// Words of one warp slot's ring of phases gathered ahead: a power of two,
/// so that a wrapping position indexes it by a mask.
pub(crate) const RING_WORDS: usize = 256;

/// A warp slot's ring of phases gathered ahead, as 32-bit words
/// ([`PhaseMix::put_words`]).
pub(crate) type Ring = [AtomicU32; RING_WORDS];

/// A phase as the commit loop reads it: gathered into a [`PhaseMix`], or
/// read in place from a ring ([`RingPhase`]). The engine's commit code is
/// generic over it, so an unhelped run's compiles to reads of a mix.
pub(crate) trait PhaseView {
    /// Dynamic instruction count of the phase.
    fn instructions(&self) -> u64;
    /// Longest `Op::Compute` latency in the phase.
    fn compute_cycles(&self) -> u64;
    /// Active rays (one per RT op).
    fn rt_rays(&self) -> u32;
    /// How many lines `list` holds.
    fn line_count(&self, list: LineList) -> usize;
    /// The coalesced lines of `list`, in first-occurrence order.
    fn lines(&self, list: LineList) -> impl Iterator<Item = u64> + '_;

    /// LSU transactions generated by the phase (loads + stores).
    fn lsu_slots(&self) -> u64 {
        (self.line_count(LineList::Load) + self.line_count(LineList::Store)) as u64
    }
}

impl PhaseView for PhaseMix {
    #[inline]
    fn instructions(&self) -> u64 {
        self.instructions
    }

    #[inline]
    fn compute_cycles(&self) -> u64 {
        self.compute_cycles
    }

    #[inline]
    fn rt_rays(&self) -> u32 {
        self.rt_rays
    }

    #[inline]
    fn line_count(&self, list: LineList) -> usize {
        self.list(list).len()
    }

    #[inline]
    fn lines(&self, list: LineList) -> impl Iterator<Item = u64> + '_ {
        self.list(list).iter().copied()
    }
}

impl PhaseMix {
    #[inline]
    fn list(&self, list: LineList) -> &[u64] {
        match list {
            LineList::Rt => &self.rt_lines,
            LineList::Load => &self.load_lines,
            LineList::Store => &self.store_lines,
        }
    }
}

/// A phase [`PhaseMix::put_words`] wrote into a ring, read where it lies:
/// its header is copied out, its lines are loaded from the ring as the
/// commit loop walks them.
pub(crate) struct RingPhase<'r> {
    ring: &'r Ring,
    /// Ops, RT rays, compute cycles, instructions, the three list lengths.
    header: [u32; RingPhase::HEADER],
    /// The position of the phase's first line.
    lines_at: u32,
}

impl<'r> RingPhase<'r> {
    /// Words before a phase's lines.
    pub(crate) const HEADER: usize = 7;
    /// A first word no phase starts with ([`PhaseMix::put_words`] refuses a
    /// phase of that many ops): the ring's user marks an entry with it.
    pub(crate) const SPILLED: u32 = u32::MAX;

    /// The phase at position `at` of `ring`, whose first word is not
    /// [`RingPhase::SPILLED`].
    pub(crate) fn read(ring: &'r Ring, at: u32) -> Self {
        RingPhase {
            ring,
            header: std::array::from_fn(|i| word(ring, at.wrapping_add(i as u32))),
            lines_at: at.wrapping_add(Self::HEADER as u32),
        }
    }

    /// The words the phase takes in its ring.
    pub(crate) fn words(&self) -> u32 {
        let [.., rt, load, store] = self.header;
        Self::HEADER as u32 + rt + load + store
    }
}

/// The word at wrapping position `at` of `ring`.
#[inline]
pub(crate) fn word(ring: &Ring, at: u32) -> u32 {
    ring[at as usize % RING_WORDS].load(Ordering::Relaxed)
}

#[cfg(test)]
impl RingPhase<'_> {
    /// The phase as a mix whose accesses coalesced at `line_bytes`, to
    /// compare with the one written.
    pub(crate) fn to_mix(&self, line_bytes: u32) -> PhaseMix {
        let mut mix = PhaseMix::new(line_bytes);
        mix.ops = self.header[0];
        mix.rt_rays = self.rt_rays();
        mix.compute_cycles = self.compute_cycles();
        mix.instructions = self.instructions();
        mix.rt_lines.extend(self.lines(LineList::Rt));
        mix.load_lines.extend(self.lines(LineList::Load));
        mix.store_lines.extend(self.lines(LineList::Store));
        mix
    }
}

impl PhaseView for RingPhase<'_> {
    #[inline]
    fn instructions(&self) -> u64 {
        self.header[3].into()
    }

    #[inline]
    fn compute_cycles(&self) -> u64 {
        self.header[2].into()
    }

    #[inline]
    fn rt_rays(&self) -> u32 {
        self.header[1]
    }

    #[inline]
    fn line_count(&self, list: LineList) -> usize {
        self.header[4 + list as usize] as usize
    }

    #[inline]
    fn lines(&self, list: LineList) -> impl Iterator<Item = u64> + '_ {
        let before: u32 = self.header[4..4 + list as usize].iter().sum();
        let first = self.lines_at.wrapping_add(before);
        (0..self.header[4 + list as usize])
            .map(move |i| word(self.ring, first.wrapping_add(i)).into())
    }
}

/// The two-pass categorization the engine ran before phases were
/// categorized while gathered — widen the phase to a `Vec<Op>`, then walk
/// it — kept as the oracle [`PhaseMix::push`] is held to.
#[cfg(test)]
impl PhaseMix {
    /// Overwrites this mix with the categorization of `ops`, coalescing
    /// memory accesses at line granularity and keeping the line buffers'
    /// allocations. `line_bytes` is the cache-line size (L1 and L2 lines
    /// match by [`GpuConfig::validate`](crate::GpuConfig::validate)).
    pub(crate) fn categorize(&mut self, ops: &[Op], line_bytes: u32) {
        self.line_bytes = line_bytes;
        self.ops = ops.len() as u32;
        self.compute_cycles = 0;
        self.rt_rays = 0;
        self.instructions = 0;
        self.rt_lines.clear();
        self.load_lines.clear();
        self.store_lines.clear();
        for op in ops {
            self.instructions += op.instructions();
            match op {
                Op::Compute { cycles, .. } => {
                    self.compute_cycles = self.compute_cycles.max(*cycles as u64);
                }
                Op::Store { addr, bytes } => {
                    push_lines(&mut self.store_lines, line_bytes, *addr, *bytes)
                }
                Op::Load { addr, bytes } => {
                    push_lines(&mut self.load_lines, line_bytes, *addr, *bytes)
                }
                Op::RtNode { .. } | Op::RtPrim { .. } => {
                    self.rt_rays += 1;
                    let (space, addr, bytes) = op.memory_access().expect("RT ops access memory");
                    debug_assert_eq!(space, MemSpace::RtData);
                    push_lines(&mut self.rt_lines, line_bytes, addr, bytes);
                }
            }
        }
    }
}

/// The line merging [`PhaseMix::push_lines`] replaced: adds the cache lines
/// covered by `[addr, addr + bytes)` to `lines`, coalescing duplicates
/// (warp-level memory coalescing) by a scan of the list.
#[cfg(test)]
fn push_lines(lines: &mut Vec<u64>, line_bytes: u32, addr: u64, bytes: u32) {
    let first = addr / line_bytes as u64;
    let last = (addr + bytes.max(1) as u64 - 1) / line_bytes as u64;
    for line in first..=last {
        if !lines.contains(&line) {
            lines.push(line);
        }
    }
}

/// A set of `(list, line)` pairs, open-addressed with linear probing. A slot
/// is occupied only if it carries the set's current generation, so
/// [`LineSet::clear`] is a counter bump rather than a sweep of the slots.
#[derive(Debug, Clone)]
struct LineSet {
    /// A power of two, at least twice the entries.
    slots: Vec<LineSlot>,
    /// Never 0, the generation of a slot no entry has written.
    generation: u32,
    len: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct LineSlot {
    line: u64,
    generation: u32,
    list: LineList,
}

impl LineSet {
    /// Room for a phase of 32 lanes whose accesses each span two lines;
    /// larger phases grow the set.
    const INITIAL_SLOTS: usize = 128;

    fn new() -> Self {
        LineSet {
            slots: vec![LineSlot::default(); Self::INITIAL_SLOTS],
            generation: 1,
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // A slot written 2^32 clears ago would read as occupied.
            self.slots.fill(LineSlot::default());
            self.generation = 1;
        }
    }

    /// Adds `line` to `list`'s lines; `true` if it was not there yet.
    #[inline]
    fn insert(&mut self, list: LineList, line: u64) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let hash = (line ^ ((list as u64) << 62)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut i = (hash >> 32) as usize & mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.generation != self.generation {
                *slot = LineSlot {
                    line,
                    generation: self.generation,
                    list,
                };
                self.len += 1;
                return true;
            }
            if slot.line == line && slot.list == list {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the slots, keeping the current generation's entries.
    #[cold]
    fn grow(&mut self) {
        let slots = vec![LineSlot::default(); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, slots);
        let generation = std::mem::replace(&mut self.generation, 1);
        self.len = 0;
        for slot in old.into_iter().filter(|s| s.generation == generation) {
            self.insert(slot.list, slot.line);
        }
    }
}

/// A lazily evaluated per-thread instruction stream.
///
/// `Send`, so that a warp's lanes may be gathered on a decode-ahead helper
/// thread ([`Simulator::run_helped`](crate::Simulator::run_helped)).
pub trait ThreadProgram: Send {
    /// Advances the thread and returns its next operation, or `None` once
    /// the thread has exited. Called by the repository's benchmark: the
    /// signature stays source-compatible.
    fn next_op(&mut self) -> Option<Op>;
}

/// A workload the simulator can launch: a fixed-size grid of threads.
///
/// Thread index order defines warp packing: threads `[i*warp_size,
/// (i+1)*warp_size)` form warp `i`.
///
/// `Sync`, since its programs borrow it from whichever thread gathers them.
pub trait Workload: Sync {
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
///
/// `Send`: a helped run gathers a slot on whichever of its two threads gets
/// to it first, one at a time.
pub trait WarpProgram: Send {
    /// Points the slot at threads `[first_thread, first_thread + lanes)`,
    /// reusing the storage of whichever warp it held before.
    fn launch(&mut self, first_thread: u64, lanes: u32);

    /// Advances every live lane by one operation, adding the ops to `phase`
    /// in lane order. Adds nothing once every lane has exited.
    fn gather(&mut self, phase: &mut PhaseMix);
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

    fn gather(&mut self, phase: &mut PhaseMix) {
        // Exited lanes leave the vector, live ones stay in lane order.
        self.lanes
            .retain_mut(|lane| lane.next_op().map(|op| phase.push(op)).is_some());
    }
}

/// A scripted thread whose ops come from a pre-built list. The workhorse of
/// unit tests and micro-benchmarks.
#[derive(Debug, Clone)]
pub(crate) struct ScriptedThread {
    ops: std::vec::IntoIter<Op>,
}

impl ScriptedThread {
    /// Creates a thread that will yield `ops` in order.
    pub(crate) fn new(ops: Vec<Op>) -> Self {
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
    use proptest::prelude::*;

    const LINE: u32 = 128;

    /// `ops` gathered one by one into a mix that held an earlier phase:
    /// nothing of that phase may survive.
    fn gathered(ops: &[Op]) -> PhaseMix {
        let mut mix = PhaseMix::new(LINE);
        for op in [
            Op::Compute {
                cycles: 99,
                insts: 999,
            },
            Op::RtNode { addr: 7 * 128 },
            Op::Load { addr: 8, bytes: 4 },
            Op::Store { addr: 9, bytes: 4 },
        ] {
            mix.push(op);
        }
        mix.clear();
        for &op in ops {
            mix.push(op);
        }
        mix
    }

    /// The phases of `program`, gathered until every lane has exited.
    fn phases(program: &mut dyn WarpProgram) -> Vec<usize> {
        let mut mix = PhaseMix::new(LINE);
        let mut lens = Vec::new();
        loop {
            mix.clear();
            program.gather(&mut mix);
            lens.push(mix.len());
            if mix.is_empty() {
                return lens;
            }
        }
    }

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
        let mut warp = w.warp_program();
        warp.launch(0, 4);
        // Lane i runs i + 1 ops; all done → an empty phase: retire.
        assert_eq!(phases(warp.as_mut()), [4, 3, 2, 1, 0]);
        // A backfill reuses the slot: threads 2 and 3 run 3 and 4 ops.
        warp.launch(2, 2);
        assert_eq!(phases(warp.as_mut()), [2, 2, 2, 1, 0]);
        // The last warp of a 100-thread grid: 4 threads.
        let w = ScriptedWorkload::uniform(100, vec![Op::Load { addr: 0, bytes: 4 }]);
        let mut warp = w.warp_program();
        warp.launch(96, 4);
        assert_eq!(phases(warp.as_mut()), [4, 0]);
    }

    #[test]
    fn gathering_coalesces_duplicate_lines() {
        let line = LINE as u64;
        let ops = vec![
            Op::Load { addr: 0, bytes: 4 },
            Op::Load { addr: 4, bytes: 4 },
            Op::Load {
                addr: line,
                bytes: 4,
            },
            Op::Compute {
                cycles: 5,
                insts: 5,
            },
            Op::Compute {
                cycles: 9,
                insts: 9,
            },
        ];
        let mix = gathered(&ops);
        assert_eq!(mix.load_lines, vec![0, 1], "two distinct lines");
        assert_eq!(mix.compute_cycles, 9, "max, not sum");
        assert_eq!(mix.lsu_slots(), 2);
        assert_eq!(mix.len(), 5);
    }

    #[test]
    fn gathering_splits_spaces() {
        let ops = vec![
            Op::RtNode { addr: 0 },
            Op::RtPrim { addr: 1 << 20 },
            Op::Store { addr: 64, bytes: 4 },
        ];
        let mix = gathered(&ops);
        assert_eq!(mix.rt_rays, 2);
        assert_eq!(mix.rt_lines.len(), 2);
        assert_eq!(mix.store_lines.len(), 1);
        assert_eq!(mix.lsu_slots(), 1, "RT fetches do not consume LSU slots");
        assert_eq!(mix.instructions, 3 + 2 + 1);
    }

    #[test]
    fn unaligned_access_spans_lines() {
        let ops = vec![Op::Load {
            addr: LINE as u64 - 2,
            bytes: 8,
        }];
        let mix = gathered(&ops);
        assert_eq!(mix.load_lines, vec![0, 1]);
    }

    #[test]
    fn categorization_matches_hierarchy_line_geometry() {
        // The decoupled categorizer must agree with the memory hierarchy's
        // own line mapping, which both use the L1 line size.
        let cfg = crate::GpuConfig::mobile_soc();
        let mem = crate::mem::MemoryHierarchy::new(&cfg);
        for addr in [0u64, 127, 128, 4096, 1 << 20] {
            assert_eq!(mem.line_of(addr), addr / cfg.l1d.line_bytes as u64);
        }
    }

    /// An op over a few lines, so phases repeat lines; up to 300 bytes, so
    /// accesses span up to four.
    fn op() -> impl Strategy<Value = Op> {
        let addr = 0u64..(6 * LINE as u64);
        prop_oneof![
            (0u32..50, 0u32..50).prop_map(|(cycles, insts)| Op::Compute { cycles, insts }),
            (addr.clone(), 0u32..300).prop_map(|(addr, bytes)| Op::Load { addr, bytes }),
            (addr.clone(), 0u32..300).prop_map(|(addr, bytes)| Op::Store { addr, bytes }),
            addr.clone().prop_map(|addr| Op::RtNode { addr }),
            addr.prop_map(|addr| Op::RtPrim { addr }),
        ]
    }

    /// An op anywhere in 4 096 lines, or one of [`op`]'s: a phase of these
    /// holds more distinct lines than the line set starts with room for,
    /// and still repeats some.
    fn wide_op() -> impl Strategy<Value = Op> {
        let addr = 0u64..(4096 * LINE as u64);
        prop_oneof![
            op(),
            (addr.clone(), 0u32..300).prop_map(|(addr, bytes)| Op::Load { addr, bytes }),
            (addr.clone(), 0u32..300).prop_map(|(addr, bytes)| Op::Store { addr, bytes }),
            addr.clone().prop_map(|addr| Op::RtNode { addr }),
            addr.prop_map(|addr| Op::RtPrim { addr }),
        ]
    }

    /// A phase of up to 40 ops over a few lines, or of up to 200 over many.
    fn phase() -> impl Strategy<Value = Vec<Op>> {
        prop_oneof![
            prop::collection::vec(op(), 0..40),
            prop::collection::vec(wide_op(), 0..200),
        ]
    }

    #[test]
    fn phases_come_back_from_words_as_they_went_in() {
        let ring: Ring = std::array::from_fn(|_| AtomicU32::new(0));
        // From near the end of the position space: the phases wrap around
        // the ring and the position around `u32`.
        let mut at = u32::MAX - 20;
        let mut phases = Vec::new();
        for base in [0, 12_345, 7 << 20] {
            let mut mix = PhaseMix::new(128);
            mix.push(Op::Compute {
                cycles: 7,
                insts: 3,
            });
            mix.push(Op::RtNode { addr: base });
            mix.push(Op::Load {
                addr: base + 4096,
                bytes: 200,
            });
            mix.push(Op::Store {
                addr: base + 64,
                bytes: 8,
            });
            let lines = mix.rt_lines.len() + mix.load_lines.len() + mix.store_lines.len();
            let words = mix.put_words(&ring, at, RING_WORDS as u32);
            assert_eq!(words, Some((RingPhase::HEADER + lines) as u32));
            phases.push((at, mix));
            at = at.wrapping_add(words.unwrap_or_default());
        }
        for (at, mix) in phases {
            let back = RingPhase::read(&ring, at);
            assert_eq!(back.to_mix(128), mix);
            assert_eq!(back.lsu_slots(), mix.lsu_slots());
        }
    }

    #[test]
    fn a_phase_that_does_not_fit_its_words_is_refused() {
        let ring: Ring = std::array::from_fn(|_| AtomicU32::new(0));
        let mut mix = PhaseMix::new(128);
        mix.push(Op::Load {
            addr: 0,
            bytes: 300,
        });
        let words = RingPhase::HEADER as u32 + 3;
        assert_eq!(
            mix.put_words(&ring, 0, words - 1),
            None,
            "too few free words"
        );
        assert_eq!(mix.put_words(&ring, 0, words), Some(words));
        // A line past 32 bits, and an instruction count past 32 bits.
        mix.push(Op::RtPrim { addr: 1 << 40 });
        assert_eq!(mix.put_words(&ring, 0, RING_WORDS as u32), None);
        let mut mix = PhaseMix::new(128);
        for _ in 0..2 {
            mix.push(Op::Compute {
                cycles: 1,
                insts: u32::MAX,
            });
        }
        assert_eq!(mix.put_words(&ring, 0, RING_WORDS as u32), None);
    }

    #[test]
    fn a_line_size_that_is_no_power_of_two_divides() {
        let ops = [
            Op::Load { addr: 95, bytes: 2 },
            Op::Store {
                addr: 200,
                bytes: 100,
            },
            Op::RtPrim { addr: 191 },
            Op::RtNode { addr: 96 },
        ];
        let mut mix = PhaseMix::new(96);
        for op in ops {
            mix.push(op);
        }
        let mut want = PhaseMix::new(96);
        want.categorize(&ops, 96);
        assert_eq!(mix, want);
        assert_eq!(mix.load_lines, [0, 1]);
        assert_eq!(mix.store_lines, [2, 3]);
        assert_eq!(mix.rt_lines, [1, 2]);
    }

    #[test]
    fn line_set_grows_past_its_initial_slots() {
        let ops: Vec<Op> = (0..LineSet::INITIAL_SLOTS as u64)
            .flat_map(|i| {
                let addr = (i * 7 % 128) * LINE as u64;
                [Op::Load { addr, bytes: 4 }, Op::RtNode { addr }]
            })
            .collect();
        let mix = gathered(&ops);
        assert!(mix.seen.slots.len() > LineSet::INITIAL_SLOTS);
        let lines: Vec<u64> = (0..128).map(|i| i * 7 % 128).collect();
        assert_eq!(mix.load_lines, lines, "first-occurrence order");
        assert_eq!(mix.rt_lines, lines);
    }

    #[test]
    fn line_set_forgets_every_line_across_the_generation_wrap() {
        let line = LINE as u64;
        let near = [
            Op::Load { addr: 0, bytes: 4 },
            Op::Load {
                addr: 4,
                bytes: 200,
            },
            Op::Store { addr: 0, bytes: 4 },
            Op::RtPrim { addr: 120 },
        ];
        let far = [Op::Load {
            addr: 1000 * line,
            bytes: 4,
        }];
        let mut mix = PhaseMix::new(LINE);
        let gather = |mix: &mut PhaseMix, ops: &[Op]| {
            mix.clear();
            for &op in ops {
                mix.push(op);
            }
            mix.seen.generation
        };
        // The near lines' slots keep this generation while the far phase
        // is gathered through the wrap, which comes back to it: they must
        // not read as seen.
        let stale = gather(&mut mix, &near);
        mix.seen.generation = u32::MAX - 1;
        assert_eq!(gather(&mut mix, &far), u32::MAX);
        assert_eq!(gather(&mut mix, &far), 1);
        assert_eq!(gather(&mut mix, &near), stale);
        assert_eq!(mix.load_lines, [0, 1]);
        assert_eq!(mix.store_lines, [0]);
        assert_eq!(mix.rt_lines, [0, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Categorizing op by op as a phase is gathered gives what the
        /// two-pass categorization of the whole phase gives — lines in the
        /// same order, duplicates coalesced, line-spanning accesses split —
        /// for empty phases too, and after the mix held a longer phase; and
        /// so does every later phase the same mix gathers.
        #[test]
        fn incremental_categorization_matches_two_pass(
            earlier in phase(),
            ops in phase(),
            later in prop::collection::vec(phase(), 0..6),
        ) {
            let mut want = PhaseMix::new(LINE);
            want.categorize(&ops, LINE);
            prop_assert_eq!(&gathered(&ops), &want);
            let mut mix = PhaseMix::new(LINE);
            for phase in [&earlier, &ops] {
                mix.clear();
                for &op in phase {
                    mix.push(op);
                }
            }
            prop_assert_eq!(&mix, &want);
            prop_assert_eq!(mix.is_empty(), ops.is_empty());
            for phase in &later {
                want.categorize(phase, LINE);
                mix.clear();
                for &op in phase {
                    mix.push(op);
                }
                prop_assert_eq!(&mix, &want);
            }
        }
    }
}
