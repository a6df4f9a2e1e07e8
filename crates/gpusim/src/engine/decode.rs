//! Decoding: where warp instruction streams turn into categorized phases,
//! independent of the timing model.
//!
//! The engine's event loop ([`Engine`](super::Engine)) asks its [`Decoder`]
//! for each phase. Decoding a phase — advancing every live lane of a warp
//! one op and categorizing each op into a [`PhaseMix`] as it is gathered —
//! is a pure function of the workload and the line size; it touches no
//! timing state. That is what lets a workload decode *ahead* of the commit
//! loop: a lane may record a whole ray's ops at once and hand them out one
//! phase at a time (`rtworkload` does), and no timing decision can tell.
//! Warps are instantiated at launch; a warp slot's [`WarpProgram`] outlives
//! the warp and is reused by the slot's backfill, or freed at once if there
//! is none.
//!
//! A helped run ([`Simulator::run_helped`](crate::Simulator::run_helped))
//! lends the slots ([`WarpSlots`]) to a second thread, the helper
//! ([`WarpSlots::help`]). The helper adopts started warps one at a time
//! while it keeps up, and gathers an adopted warp's phases ahead into its
//! slot's bounded ring. The commit loop pops a slot's ring, or gathers
//! inline, exactly as an unhelped run does, when the ring is empty: it never
//! waits for a phase, and each warp's phase stream is the same whichever
//! thread gathered which phase. A warp the commit loop had to gather
//! inline goes back to it, so the helper owns no more warps than it can
//! keep ahead of, and a warp's lanes stay in one core's cache.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

use crate::config::GpuConfig;
use crate::workload::{PhaseMix, WarpProgram, Workload};

/// Phases a slot's ring holds at most. The commit loop asks the helper for
/// more once it has taken half.
const RING_PHASES: u32 = 4;

/// Phases the commit loop gathers alone before it shares the slots and
/// starts the helper: a short run is over before a helper would pay for
/// its thread, the slots' locks and the cache misses of moving warps' lanes
/// to its core.
const ALONE_PHASES: u32 = 8192;

/// How often the commit loop tries a slot the helper holds before it
/// sleeps on it: the helper holds a slot for one gather.
const SPINS: u32 = 1 << 16;

/// One warp slot: the program of the warp resident in it, and in a helped
/// run the phases gathered ahead of the commit loop.
struct Slot<'w> {
    /// Outlives its warp: a backfill reuses the storage.
    program: Option<Box<dyn WarpProgram + 'w>>,
    /// Phases gathered ahead, oldest first, as [`PhaseMix::put_words`].
    /// Allocated by the helper, the one thread that adds to it.
    ring: VecDeque<u32>,
    /// Phases in `ring`.
    phases: u32,
    /// The commit loop has gathered the warp's first phase, so its lanes
    /// hold their storage: the helper allocates no lane state.
    started: bool,
    /// The helper has adopted the warp and gathers it ahead.
    adopted: bool,
    /// The slot waits in [`WarpSlots::wanted`].
    wanted: bool,
    /// The helper's last gather came back empty: every lane has exited.
    exhausted: bool,
}

/// The warp slots of one run, indexed `sm * slots_per_sm + slot`: shared by
/// its commit loop and, in a helped run, the helper.
pub(crate) struct WarpSlots<'w> {
    slots: Vec<Mutex<Slot<'w>>>,
    slots_per_sm: usize,
    line_bytes: u32,
    /// Adopted slots whose ring the commit loop has drained to half, in the
    /// order it did; the helper takes the whole list at once.
    wanted: Mutex<Vec<usize>>,
    /// Set when `wanted` gains a slot, so an idle helper polls a flag
    /// rather than the list's lock.
    ///
    /// The three hints below carry no data: the list and the slots they
    /// point at are read under their own locks, so the hints' orderings
    /// only decide how soon the helper looks.
    pending: AtomicBool,
    /// Counts the warps the commit loop has started or taken back: an idle
    /// helper looks for a warp to adopt only when it has moved.
    starts: AtomicU32,
    /// Set by the commit loop when it takes back an adopted warp whose ring
    /// ran dry: the helper, falling behind, skips its next adoption.
    taken_back: AtomicBool,
    /// Set, with `Release`, once the commit loop has returned or unwound;
    /// the helper stops at its next `Acquire` load.
    ended: AtomicBool,
}

impl<'w> WarpSlots<'w> {
    pub(crate) fn new(config: &GpuConfig) -> Self {
        let slots_per_sm = config.max_warps_per_sm as usize;
        let empty = || {
            Mutex::new(Slot {
                program: None,
                ring: VecDeque::new(),
                phases: 0,
                started: false,
                adopted: false,
                wanted: false,
                exhausted: false,
            })
        };
        WarpSlots {
            slots: (0..config.num_sms as usize * slots_per_sm)
                .map(|_| empty())
                .collect(),
            slots_per_sm,
            line_bytes: config.l1d.line_bytes,
            wanted: Mutex::new(Vec::new()),
            pending: AtomicBool::new(false),
            starts: AtomicU32::new(0),
            taken_back: AtomicBool::new(false),
            ended: AtomicBool::new(false),
        }
    }

    /// The commit loop's lock on a slot. The helper holds a slot for one
    /// gather at most, so the commit loop spins for it rather than sleep.
    fn lock(&self, sm: usize, slot: usize) -> MutexGuard<'_, Slot<'w>> {
        let slot = &self.slots[sm * self.slots_per_sm + slot];
        let mut spins = 0u32;
        let locked = loop {
            match slot.try_lock() {
                Err(TryLockError::WouldBlock) if spins < SPINS => {
                    spins += 1;
                    std::hint::spin_loop();
                }
                Err(TryLockError::WouldBlock) => break slot.lock(),
                Err(TryLockError::Poisoned(poisoned)) => break Err(poisoned),
                Ok(locked) => break Ok(locked),
            }
        };
        #[expect(
            clippy::expect_used,
            reason = "a poisoned slot means the helper panicked inside a gather; the run cannot go on, and the executor re-raises the helper's panic"
        )]
        locked.expect("the decode-ahead helper panicked")
    }

    /// The list of wanted slots. Only a push or a swap happens under its
    /// lock, so it is never poisoned.
    fn wanted(&self) -> MutexGuard<'_, Vec<usize>> {
        self.wanted.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks the run ended when dropped, also while the commit loop
    /// unwinds, so [`WarpSlots::help`] returns.
    pub(crate) fn end_on_drop(&self) -> RunEnd<'_, 'w> {
        RunEnd(self)
    }

    /// The helper's loop: [`WarpSlots::help_step`] until the run ends,
    /// yielding its core whenever there was nothing to do. An idle helper
    /// reads two flags and a counter, so it notices work and the end of the
    /// run at once without taking a lock the commit loop uses.
    pub(crate) fn help(&self) {
        let mut helper = Helper::new(self.line_bytes);
        while !self.ended.load(Ordering::Acquire) {
            if !self.help_step(&mut helper) {
                std::thread::yield_now();
            }
        }
    }

    /// One round of the helper: fills the rings of the wanted slots or,
    /// when none is wanted, adopts the next started warp in slot order and
    /// fills its ring. `false` if there was neither.
    fn help_step(&self, helper: &mut Helper) -> bool {
        // Polled with a load: a write per poll would pull the line the
        // commit loop reads the slot table through to this core.
        if self.pending.load(Ordering::Relaxed) && self.pending.swap(false, Ordering::Acquire) {
            std::mem::swap(&mut *self.wanted(), &mut helper.batch);
        }
        if helper.batch.is_empty() {
            let Some(index) = self.adopt(helper) else {
                return false;
            };
            helper.batch.push(index);
        }
        for index in helper.batch.drain(..) {
            self.fill(index, &mut helper.phase);
        }
        true
    }

    /// Adopts the first started warp the helper does not own, looking from
    /// the helper's cursor on and skipping slots the commit loop holds;
    /// returns its slot. Adopts none right after the commit loop took a warp
    /// back, nor while no warp has started or come back since a look that
    /// found none.
    fn adopt(&self, helper: &mut Helper) -> Option<usize> {
        let starts = self.starts.load(Ordering::Relaxed);
        if helper.scanned_at == Some(starts)
            || (self.taken_back.load(Ordering::Relaxed)
                && self.taken_back.swap(false, Ordering::Relaxed))
        {
            return None;
        }
        for _ in 0..self.slots.len() {
            let index = helper.cursor;
            helper.cursor = (index + 1) % self.slots.len();
            // Busy, or poisoned by a commit loop that panicked.
            let Ok(mut slot) = self.slots[index].try_lock() else {
                continue;
            };
            if slot.started && !slot.adopted && !slot.exhausted {
                slot.adopted = true;
                return Some(index);
            }
        }
        helper.scanned_at = Some(starts);
        None
    }

    /// Fills the ring of slot `index` while the helper owns its warp, one
    /// phase per lock, so that the commit loop waits at most one gather for
    /// the slot.
    fn fill(&self, index: usize, phase: &mut PhaseMix) {
        loop {
            // Poisoned by a commit loop that panicked: the run is ending.
            let Ok(mut slot) = self.slots[index].lock() else {
                return;
            };
            let slot = &mut *slot;
            slot.wanted = false;
            let Some(program) = slot.program.as_mut() else {
                return;
            };
            if !slot.adopted || slot.exhausted || slot.phases == RING_PHASES {
                return;
            }
            phase.clear();
            program.gather(phase);
            if phase.is_empty() {
                slot.exhausted = true;
            } else {
                phase.put_words(&mut slot.ring);
                slot.phases += 1;
            }
        }
    }
}

/// The helper's working state.
struct Helper {
    /// Where a phase is gathered before it goes into a ring.
    phase: PhaseMix,
    /// The wanted slots being filled.
    batch: Vec<usize>,
    /// The slot to look for a warp to adopt from.
    cursor: usize,
    /// [`WarpSlots::starts`] when a look for a warp to adopt found none.
    scanned_at: Option<u32>,
}

impl Helper {
    fn new(line_bytes: u32) -> Self {
        Helper {
            phase: PhaseMix::new(line_bytes),
            batch: Vec::new(),
            cursor: 0,
            scanned_at: None,
        }
    }
}

/// Ends a helped run when dropped ([`WarpSlots::end_on_drop`]).
pub(crate) struct RunEnd<'a, 'w>(&'a WarpSlots<'w>);

impl Drop for RunEnd<'_, '_> {
    fn drop(&mut self) {
        self.0.ended.store(true, Ordering::Release);
    }
}

/// The commit loop's hold on its run's warp slots.
pub(crate) enum Access<'a, 'w> {
    /// No other thread sees the slots: the warp programs, indexed
    /// `[sm][slot]`. Slots are dense and stable: a retired warp's slot,
    /// storage included, is reused by its backfill, and emptied by
    /// [`Decoder::on_vacate`] when none comes.
    Alone(Vec<Vec<Option<Box<dyn WarpProgram + 'w>>>>),
    /// Shared with the helper: each slot is locked while the commit loop
    /// uses it.
    Shared(&'a WarpSlots<'w>),
}

/// Supplies decoded phases to the engine's commit loop.
///
/// The engine drives it with the exact warp schedule it commits:
/// [`Decoder::on_launch`] when a warp enters a slot, then one
/// [`Decoder::next_phase`] per wake-up event until it returns `None`.
///
/// A run starts alone. In a helped run, once the commit loop has gathered
/// [`ALONE_PHASES`] phases, the programs move into the shared slots and the
/// helper starts; a shorter run never shares.
pub(crate) struct Decoder<'a, 'w> {
    workload: &'w dyn Workload,
    slots: Access<'a, 'w>,
    /// A helped run's shared slots and what starts its helper, until the
    /// run shares them.
    helper: Option<(&'a WarpSlots<'w>, &'a dyn Fn())>,
    /// Phases gathered alone in a helped run.
    alone: u32,
    /// The phase handed to the commit loop; its line buffers back every
    /// phase.
    phase: PhaseMix,
}

impl<'a, 'w> Decoder<'a, 'w> {
    /// A decoder for `num_sms` SMs; `helper` as in [`Decoder::helper`].
    pub(crate) fn new(
        workload: &'w dyn Workload,
        num_sms: usize,
        line_bytes: u32,
        helper: Option<(&'a WarpSlots<'w>, &'a dyn Fn())>,
    ) -> Self {
        Decoder {
            workload,
            slots: Access::Alone((0..num_sms).map(|_| Vec::new()).collect()),
            helper,
            alone: 0,
            phase: PhaseMix::new(line_bytes),
        }
    }

    /// The warp covering threads `[first_thread, first_thread + lanes)`
    /// was launched into `slot` on `sm`: a fresh slot, or one whose warp
    /// has retired.
    pub(crate) fn on_launch(&mut self, sm: usize, slot: usize, first_thread: u64, lanes: u32) {
        let program = match &mut self.slots {
            Access::Alone(warps) => {
                let slots = &mut warps[sm];
                if slot == slots.len() {
                    slots.push(None);
                }
                &mut slots[slot]
            }
            Access::Shared(slots) => {
                let mut slot = slots.lock(sm, slot);
                debug_assert_eq!(slot.phases, 0, "a retired warp's ring is drained");
                slot.started = false;
                slot.adopted = false;
                slot.wanted = false;
                slot.exhausted = false;
                let workload = self.workload;
                slot.program
                    .get_or_insert_with(|| workload.warp_program())
                    .launch(first_thread, lanes);
                return;
            }
        };
        program
            .get_or_insert_with(|| self.workload.warp_program())
            .launch(first_thread, lanes);
    }

    /// The warp in `(sm, slot)` has retired and no warp is left to backfill
    /// it: its storage goes back to the allocator now rather than at the end
    /// of the run, while the memory model's tables are still growing.
    pub(crate) fn on_vacate(&mut self, sm: usize, slot: usize) {
        match &mut self.slots {
            Access::Alone(warps) => warps[sm][slot] = None,
            Access::Shared(slots) => {
                let mut slot = slots.lock(sm, slot);
                slot.program = None;
                slot.ring = VecDeque::new();
                slot.started = false;
            }
        }
    }

    /// The next phase of the warp resident in `(sm, slot)`, gathered and
    /// categorized here — or, once the run shares its slots, taken from the
    /// slot's ring — or `None` once every lane has exited: the warp retires.
    /// Never called again for a warp after it returned `None`.
    pub(crate) fn next_phase(&mut self, sm: usize, slot: usize) -> Option<&PhaseMix> {
        let slots = match &mut self.slots {
            Access::Alone(warps) => {
                #[expect(
                    clippy::expect_used,
                    reason = "engine invariant: next_phase is only called for slots the engine launched into and never after retirement"
                )]
                let warp = warps[sm][slot]
                    .as_mut()
                    .expect("phase for a vacant warp slot");
                self.phase.clear();
                warp.gather(&mut self.phase);
                if self.helper.is_some() {
                    self.alone += 1;
                    if self.alone == ALONE_PHASES {
                        self.share();
                    }
                }
                return (!self.phase.is_empty()).then_some(&self.phase);
            }
            Access::Shared(slots) => *slots,
        };
        self.next_shared(slots, sm, slot)
    }

    /// Moves the warp programs into the shared slots and starts the helper.
    /// A moved warp is adoptable once the commit loop has gathered it again.
    #[cold]
    fn share(&mut self) {
        let Some((slots, start)) = self.helper.take() else {
            return;
        };
        let alone = std::mem::replace(&mut self.slots, Access::Shared(slots));
        if let Access::Alone(warps) = alone {
            for (sm, warps) in warps.into_iter().enumerate() {
                for (slot, program) in warps.into_iter().enumerate() {
                    slots.lock(sm, slot).program = program;
                }
            }
        }
        start();
    }

    /// [`Decoder::next_phase`] once the run shares its slots, out of line so
    /// that an unshared run's stays small.
    #[inline(never)]
    fn next_shared(&mut self, slots: &WarpSlots<'w>, sm: usize, slot: usize) -> Option<&PhaseMix> {
        let mut warp = slots.lock(sm, slot);
        if warp.phases > 0 {
            warp.phases -= 1;
            self.phase.take_words(&mut warp.ring);
        } else if warp.exhausted {
            return None;
        } else {
            // Gathered here: the warp is the commit loop's again.
            let taken_back = std::mem::take(&mut warp.adopted);
            if taken_back {
                slots.taken_back.store(true, Ordering::Relaxed);
            }
            if taken_back || !warp.started {
                slots.starts.fetch_add(1, Ordering::Relaxed);
            }
            warp.started = true;
            #[expect(
                clippy::expect_used,
                reason = "engine invariant: next_phase is only called for slots the engine launched into and never after retirement"
            )]
            let program = warp.program.as_mut().expect("phase for a vacant warp slot");
            self.phase.clear();
            program.gather(&mut self.phase);
            if self.phase.is_empty() {
                return None;
            }
        }
        // An adopted warp down to half its ring asks the helper for more.
        let low = warp.phases <= RING_PHASES / 2;
        if warp.adopted && low && !warp.wanted && !warp.exhausted {
            warp.wanted = true;
            slots.wanted().push(sm * slots.slots_per_sm + slot);
            slots.pending.store(true, Ordering::Release);
        }
        Some(&self.phase)
    }
}

/// A warp's launch geometry, as dealt to an SM by [`deal_warps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WarpDesc {
    /// Global warp id (launch order).
    pub id: u64,
    /// First covered thread index.
    pub first_thread: u64,
    /// Live lanes (partial for the grid's last warp).
    pub lanes: u32,
}

/// Deals the grid's warps to SMs with the fixed `warp % num_sms` stride,
/// mirroring how 2D thread-block rasterization deals consecutive image
/// tiles to different SMs: each SM ends up owning a spatially coherent
/// strided sample of the frame, which is what gives real GPUs their per-SM
/// L1 locality. Returns one launch list per SM, in launch order.
pub(crate) fn deal_warps(threads: u64, warp_size: u32, num_sms: usize) -> Vec<Vec<WarpDesc>> {
    let warp_size = warp_size as u64;
    let mut lists: Vec<Vec<WarpDesc>> = (0..num_sms).map(|_| Vec::new()).collect();
    let total_warps = threads.div_ceil(warp_size);
    for w in 0..total_warps {
        let first = w * warp_size;
        lists[(w % num_sms as u64) as usize].push(WarpDesc {
            id: w,
            first_thread: first,
            lanes: (threads - first).min(warp_size) as u32,
        });
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Op, ScriptedWorkload};

    /// One SM with two warp slots.
    fn one_sm() -> GpuConfig {
        let mut config = GpuConfig::mobile_soc();
        config.num_sms = 1;
        config.max_warps_per_sm = 2;
        config
    }

    /// Every phase the commit loop takes, per step, from a run of 7 warps
    /// of uneven length through 2 slots, with a helper pass after every
    /// `help_every`-th step (never when 0): the engine's drive — launch,
    /// phases, retire, backfill or vacate — in a fixed round-robin order.
    fn drive(help_every: usize) -> Vec<Option<PhaseMix>> {
        let w = ScriptedWorkload::per_thread(7 * 32 - 5, |i| {
            (0..i % 13 + i / 32)
                .map(|k| match k % 3 {
                    0 => Op::RtNode {
                        addr: (i * 7 + k) * 32,
                    },
                    1 => Op::Load {
                        addr: (i % 5) * 64,
                        bytes: 8,
                    },
                    _ => Op::Compute {
                        cycles: k as u32,
                        insts: 1,
                    },
                })
                .collect()
        });
        let slots = WarpSlots::new(&one_sm());
        let mut decoder = Decoder::new(&w, 1, 128, Some((&slots, &|| ())));
        if help_every > 0 {
            decoder.share();
        }
        let mut helper = Helper::new(128);
        let mut pending = deal_warps(w.thread_count(), 32, 1).remove(0).into_iter();
        let mut resident = [true; 2];
        for slot in 0..2 {
            let warp = pending.next().expect("7 warps");
            decoder.on_launch(0, slot, warp.first_thread, warp.lanes);
        }
        let mut taken = Vec::new();
        for step in 0.. {
            if help_every > 0 && step % help_every == 0 {
                slots.help_step(&mut helper);
            }
            let slot = step % 2;
            if !resident[slot] {
                if resident == [false; 2] {
                    break;
                }
                continue;
            }
            let phase = decoder.next_phase(0, slot).cloned();
            if phase.is_none() {
                match pending.next() {
                    Some(warp) => decoder.on_launch(0, slot, warp.first_thread, warp.lanes),
                    None => {
                        decoder.on_vacate(0, slot);
                        resident[slot] = false;
                    }
                }
            }
            taken.push(phase);
        }
        taken
    }

    #[test]
    fn a_helper_leaves_the_phase_stream_unchanged() {
        let unhelped = drive(0);
        assert!(unhelped.iter().filter(|p| p.is_none()).count() == 7);
        for help_every in [1, 2, 3, 5, 17] {
            assert_eq!(
                drive(help_every),
                unhelped,
                "a helper pass every {help_every} steps"
            );
        }
    }

    #[test]
    fn the_helper_owns_the_warps_it_keeps_ahead_of() {
        let w = ScriptedWorkload::uniform(
            64,
            vec![
                Op::Compute {
                    cycles: 1,
                    insts: 1
                };
                40
            ],
        );
        let slots = WarpSlots::new(&one_sm());
        let mut decoder = Decoder::new(&w, 1, 128, Some((&slots, &|| ())));
        decoder.share();
        let mut helper = Helper::new(128);
        decoder.on_launch(0, 0, 0, 32);
        decoder.on_launch(0, 1, 32, 32);
        assert!(!slots.help_step(&mut helper), "no warp has started");
        assert!(decoder.next_phase(0, 0).is_some());
        assert!(slots.help_step(&mut helper), "adopts slot 0");
        let ring = |slot: usize| slots.lock(0, slot).phases;
        assert_eq!((ring(0), ring(1)), (RING_PHASES, 0));
        assert!(!slots.help_step(&mut helper), "slot 1 has not started");
        // The commit loop takes half the ring, then asks for a refill.
        for taken in 1..=RING_PHASES / 2 {
            assert!(decoder.next_phase(0, 0).is_some());
            assert_eq!(ring(0), RING_PHASES - taken);
        }
        assert!(slots.help_step(&mut helper));
        assert_eq!(ring(0), RING_PHASES);
        // Unserved, the ring runs dry: the warp is gathered inline and is
        // the commit loop's again, until the helper adopts it anew.
        for _ in 0..=RING_PHASES {
            assert!(decoder.next_phase(0, 0).is_some());
        }
        assert!(!slots.lock(0, 0).adopted);
        std::mem::take(&mut *slots.wanted());
        slots.pending.store(false, Ordering::Relaxed);
        assert!(!slots.help_step(&mut helper), "no adoption right after");
        assert!(slots.help_step(&mut helper), "adopts slot 0 again");
        assert_eq!(ring(0), RING_PHASES);
        drop(slots.end_on_drop());
        slots.help();
    }

    #[test]
    fn decoder_decodes_until_retire() {
        let w = ScriptedWorkload::uniform(
            4,
            vec![
                Op::Compute {
                    cycles: 2,
                    insts: 2,
                },
                Op::Load { addr: 0, bytes: 4 },
            ],
        );
        let mut src = Decoder::new(&w, 1, 128, None);
        src.on_launch(0, 0, 0, 4);
        let mix = src.next_phase(0, 0).expect("a compute phase");
        assert_eq!(mix.compute_cycles, 2);
        assert_eq!(mix.instructions, 8, "4 lanes x 2 insts");
        let mix = src.next_phase(0, 0).expect("a load phase");
        assert_eq!(mix.load_lines, vec![0]);
        assert_eq!(mix.compute_cycles, 0, "nothing of the last phase survives");
        assert_eq!(src.next_phase(0, 0), None);
        // The slot is immediately reusable by a backfill, with its storage
        // or — once vacated — without.
        for _ in 0..2 {
            src.on_launch(0, 0, 0, 4);
            assert!(src.next_phase(0, 0).is_some());
            assert!(src.next_phase(0, 0).is_some());
            assert_eq!(src.next_phase(0, 0), None);
            src.on_vacate(0, 0);
        }
    }

    #[test]
    fn deal_warps_strides_and_splits_the_tail() {
        let lists = deal_warps(100, 32, 3);
        // 4 warps: ids 0..4, dealt round-robin over 3 SMs.
        assert_eq!(lists[0].len(), 2);
        assert_eq!(lists[1].len(), 1);
        assert_eq!(lists[2].len(), 1);
        assert_eq!(lists[0][0].id, 0);
        assert_eq!(lists[1][0].id, 1);
        assert_eq!(lists[2][0].id, 2);
        assert_eq!(lists[0][1].id, 3);
        assert_eq!(lists[0][1].first_thread, 96);
        assert_eq!(lists[0][1].lanes, 4, "100 threads: last warp is partial");
    }
}
