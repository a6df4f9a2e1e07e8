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
//! shares its warp slots ([`WarpSlots`]) with a second thread, the helper
//! ([`WarpSlots::help`]), which gathers each warp's phases ahead into its
//! slot's ring: a single-producer, single-consumer ring of 32-bit words
//! ([`PhaseMix::put_words`]) that the commit loop reads in place, without a
//! lock ([`RingPhase`]). The helper owns a warp from its launch: the commit
//! loop launches the lanes and queues the slot, and the helper fills its
//! ring, then refills it each time the commit loop queues the slot as
//! running low. The commit loop gathers inline, under the slot's lock, when
//! it finds the ring empty, and takes the warp back — to gather it with no
//! lock — when it finds it empty twice running after the helper served it;
//! it hands a warp back when the helper idles. It never waits for a phase, and each warp's phase
//! stream is the same whichever thread gathered which phase.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

use crate::config::GpuConfig;
use crate::workload::{word, PhaseMix, Ring, RingPhase, WarpProgram, Workload, RING_WORDS};

/// The helper gathers a slot's next phase only while its ring has this
/// many words free: more than the largest phase of a ray-traced warp takes
/// (about 40 words; 20 on average), so that a phase spills
/// ([`Shared::spilled`]) only if it is larger.
const FILL_FREE: u32 = 64;

/// The commit loop asks the helper to fill a slot's ring once it holds
/// this many unread words or fewer: about six phases of a ray-traced warp,
/// time enough for the helper to get to it.
const LOW_WORDS: u32 = RING_WORDS as u32 / 2;

/// The first word of a warp's last ring entry: every lane has exited. No
/// phase starts with it ([`PhaseMix::put_words`] writes only gathered ones).
const END: u32 = 0;

/// Phases a helped run gathers alone per warp of the grid's first wave,
/// before it shares its slots and starts the helper: a grid whose warps
/// average fewer phases is over before a helper would pay for its thread.
/// Measured against 8 192 phases and 32 or 64 per warp (DESIGN.md, "One
/// commit loop"): no cheap-to-decode frame it lets share reads slower than
/// a helped run that never shares, and a larger prefix only gives up gain.
const ALONE_PHASES_PER_WARP: u64 = 16;

/// How often the commit loop tries a slot the helper holds before it
/// sleeps on it: the helper publishes a phase as soon as it has gathered
/// it, so the commit loop usually reads that phase instead.
const SPINS: u32 = 1 << 16;

/// One warp slot as the helper sees it, locked while either thread uses it.
struct Warp<'w> {
    /// The program of a warp the helper owns: from its launch, until the
    /// commit loop takes it back from a ring the helper lets run dry, and
    /// again once the commit loop hands it back to an idle helper.
    program: Option<Box<dyn WarpProgram + 'w>>,
    /// A gather came back empty: every lane has exited, and nothing is
    /// gathered again until the slot's next launch.
    exhausted: bool,
}

/// What a helped run's commit loop shares with its helper: built in one
/// go by the commit loop when it shares its slots, for the slots the grid
/// fills, and indexed `sm * slots_per_sm + slot`.
struct Shared<'w> {
    warps: Box<[Mutex<Warp<'w>>]>,
    /// Each slot's ring, one bounded block.
    rings: Box<[Ring]>,
    /// Per ring, the position after the last word the helper published:
    /// stored with `Release` after the words it covers, loaded with
    /// `Acquire` by the commit loop before it reads them.
    tails: Box<[AtomicU32]>,
    /// Per ring, the position after the last word the commit loop has
    /// read: stored with `Release` once it has read them, loaded with
    /// `Acquire` by the helper before it overwrites them.
    heads: Box<[AtomicU32]>,
    /// Per slot, set while it waits in `requests`. The helper clears it
    /// with `Release` once it has read the slot's request word, before it
    /// fills the ring; the commit loop's `Acquire` swap that sees the clear
    /// may then reuse the word.
    wanted: Box<[AtomicBool]>,
    /// The slots the commit loop wants filled, in the order it asked, by
    /// wrapping position; a power of two at least the slot count long. It
    /// holds a slot at most once, so it never overflows.
    requests: Box<[AtomicU32]>,
    /// Requests queued: stored with `Release` after the request's word,
    /// loaded with `Acquire` by the helper before it reads it.
    requested: AtomicU32,
    /// Phases too large for their ring's free words, or with a count or
    /// line wider than a word, with their slot, oldest first.
    spilled: Mutex<Vec<(usize, PhaseMix)>>,
    /// The helper's working state, built with the rest on the commit
    /// loop's thread: the helper allocates only what its lanes' rays need.
    helper: Mutex<Helper>,
    /// Raised while the helper finds no ring to fill; the commit loop takes
    /// it down when it hands the helper the next warp it gathers. So a
    /// helper whose core is taken while it idles is handed one warp, not
    /// every warp the commit loop gathers meanwhile. A hint: the warp's
    /// lock orders the hand-over itself.
    idle: AtomicBool,
}

impl<'w> Shared<'w> {
    /// Takes over the programs of an unshared run, `[sm][slot]`, and a
    /// ring per slot.
    fn new(
        programs: Vec<Vec<Option<Box<dyn WarpProgram + 'w>>>>,
        rings: Box<[Ring]>,
        slots_per_sm: usize,
        config: &GpuConfig,
    ) -> Self {
        let warps: Box<[_]> = programs
            .into_iter()
            .flat_map(|list| {
                let vacant = slots_per_sm - list.len();
                list.into_iter()
                    .chain(std::iter::repeat_with(|| None).take(vacant))
            })
            .map(|program| {
                Mutex::new(Warp {
                    program,
                    exhausted: false,
                })
            })
            .collect();
        let slots = warps.len();
        let atomics = |len: usize| (0..len).map(|_| AtomicU32::new(0)).collect();
        let mut phase = PhaseMix::new(config.l1d.line_bytes);
        phase.reserve(2 * config.warp_size as usize);
        let helper = Helper {
            phase,
            heads: vec![0; slots],
            taken: 0,
        };
        debug_assert_eq!(rings.len(), slots);
        Shared {
            rings,
            tails: atomics(slots),
            heads: atomics(slots),
            wanted: (0..slots).map(|_| AtomicBool::new(false)).collect(),
            requests: atomics(slots.next_power_of_two()),
            requested: AtomicU32::new(0),
            spilled: Mutex::new(Vec::new()),
            helper: Mutex::new(helper),
            idle: AtomicBool::new(false),
            warps,
        }
    }

    /// The helper's loop: [`Shared::help_step`] until the run ends,
    /// yielding its core whenever there was nothing to do.
    fn help(&self, ended: &AtomicBool) {
        // Only this thread locks it.
        let mut helper = self.helper.lock().unwrap_or_else(PoisonError::into_inner);
        let mut idle = false;
        while !ended.load(Ordering::Acquire) {
            if self.help_step(&mut helper) {
                if std::mem::take(&mut idle) {
                    self.idle.store(false, Ordering::Relaxed);
                }
            } else {
                // Raised again after each hand-over takes it down.
                if !self.idle.load(Ordering::Relaxed) {
                    self.idle.store(true, Ordering::Relaxed);
                }
                idle = true;
                std::thread::yield_now();
            }
        }
    }

    /// Fills the ring of the oldest slot the commit loop has queued;
    /// `false` if it had queued none.
    fn help_step(&self, helper: &mut Helper) -> bool {
        let requested = self.requested.load(Ordering::Acquire);
        if requested == helper.taken {
            return false;
        }
        let at = helper.taken as usize & (self.requests.len() - 1);
        let slot = self.requests[at].load(Ordering::Relaxed) as usize;
        helper.taken = helper.taken.wrapping_add(1);
        // Cleared before the fill, so that a request made during it queues
        // the slot again rather than being lost: at worst a second fill
        // finds nothing to do.
        self.wanted[slot].store(false, Ordering::Release);
        self.fill(slot, &mut helper.phase, &mut helper.heads[slot]);
        true
    }

    /// Gathers the phases of the warp in `slot` into its ring while the
    /// helper owns the warp and the ring has [`FILL_FREE`] words free,
    /// under the warp's lock, publishing each phase as soon as it is
    /// written: consecutive phases of one warp, while its lanes are in
    /// this core's cache. `head` is the ring's head as last loaded.
    fn fill(&self, slot: usize, phase: &mut PhaseMix, head: &mut u32) {
        // Poisoned by a commit loop that panicked: the run is ending.
        let Ok(mut warp) = self.warps[slot].lock() else {
            return;
        };
        let warp = &mut *warp;
        let Some(program) = warp.program.as_mut() else {
            return;
        };
        let (ring, tail) = (&self.rings[slot], &self.tails[slot]);
        // Only this thread stores it.
        let mut at = tail.load(Ordering::Relaxed);
        while !warp.exhausted {
            // The free words up to the head as last loaded, or loaded anew
            // if they are too few.
            let mut free = RING_WORDS as u32 - at.wrapping_sub(*head);
            if free < FILL_FREE {
                *head = self.heads[slot].load(Ordering::Acquire);
                free = RING_WORDS as u32 - at.wrapping_sub(*head);
                if free < FILL_FREE {
                    return;
                }
            }
            phase.clear();
            program.gather(phase);
            let words = if phase.is_empty() {
                warp.exhausted = true;
                put(ring, at, END)
            } else if let Some(words) = phase.put_words(ring, at, free) {
                words
            } else {
                self.spilled
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((slot, phase.clone()));
                put(ring, at, RingPhase::SPILLED)
            };
            at = at.wrapping_add(words);
            tail.store(at, Ordering::Release);
        }
    }
}

/// Writes a one-word ring entry; returns its length.
fn put(ring: &Ring, at: u32, word: u32) -> u32 {
    ring[at as usize % RING_WORDS].store(word, Ordering::Relaxed);
    1
}

/// The warp slots of one helped run: shared by its commit loop and the
/// helper once the commit loop shares them.
pub(crate) struct WarpSlots<'w> {
    shared: OnceLock<Shared<'w>>,
    /// Set, with `Release`, once the commit loop has returned or unwound;
    /// the helper stops at its next `Acquire` load.
    ended: AtomicBool,
}

impl<'w> WarpSlots<'w> {
    pub(crate) fn new() -> Self {
        WarpSlots {
            shared: OnceLock::new(),
            ended: AtomicBool::new(false),
        }
    }

    /// Marks the run ended when dropped, also while the commit loop
    /// unwinds, so [`WarpSlots::help`] returns.
    pub(crate) fn end_on_drop(&self) -> RunEnd<'_, 'w> {
        RunEnd(self)
    }

    /// The helper: waits for the commit loop to share its slots, then fills
    /// the rings it asks for until the run ends. An idle helper reads a
    /// flag and a counter, so it notices work and the end of the run at
    /// once without taking a lock the commit loop uses.
    pub(crate) fn help(&self) {
        while !self.ended.load(Ordering::Acquire) {
            if let Some(shared) = self.shared.get() {
                return shared.help(&self.ended);
            }
            std::thread::yield_now();
        }
    }
}

/// The helper's working state.
struct Helper {
    /// Where a phase is gathered before it goes into a ring.
    phase: PhaseMix,
    /// Per ring, the head as last loaded: the words before it are free.
    heads: Vec<u32>,
    /// Requests read so far.
    taken: u32,
}

/// Ends a helped run when dropped ([`WarpSlots::end_on_drop`]).
pub(crate) struct RunEnd<'a, 'w>(&'a WarpSlots<'w>);

impl Drop for RunEnd<'_, '_> {
    fn drop(&mut self) {
        self.0.ended.store(true, Ordering::Release);
    }
}

/// The commit loop's side of shared slots.
struct Commit<'a, 'w> {
    shared: &'a Shared<'w>,
    /// Per slot, the program of a warp the commit loop has taken back from
    /// the helper, gathered here without a lock; or the storage a warp that
    /// retired here leaves to its backfill.
    mine: Vec<Option<Box<dyn WarpProgram + 'w>>>,
    /// Per slot, the commit loop has read a phase of the warp from its
    /// ring since the helper was given the warp.
    served: Vec<bool>,
    /// Per slot, the commit loop found the ring empty at the warp's last
    /// phase.
    dry: Vec<bool>,
    /// Per ring, the tail last loaded: the words up to it are readable.
    tails: Vec<u32>,
    /// Requests queued so far.
    requested: u32,
}

/// A decoded phase, as [`Decoder::next_phase`] hands it to the commit loop.
pub(crate) enum Phase<'p> {
    /// Gathered by the commit loop, or spilled by the helper.
    Mix(&'p PhaseMix),
    /// Read in place from its ring.
    Ring(Taken<'p>),
}

/// A phase in its ring: the words are the helper's again once it drops.
pub(crate) struct Taken<'p> {
    phase: RingPhase<'p>,
    head: &'p AtomicU32,
    /// The position after the phase.
    end: u32,
}

impl<'p> std::ops::Deref for Taken<'p> {
    type Target = RingPhase<'p>;

    fn deref(&self) -> &RingPhase<'p> {
        &self.phase
    }
}

impl Drop for Taken<'_> {
    fn drop(&mut self) {
        self.head.store(self.end, Ordering::Release);
    }
}

impl<'a, 'w> Commit<'a, 'w> {
    /// Whether `slot`'s ring holds a word at `head`; loads the helper's
    /// tail only once every word up to the last one loaded is read.
    #[inline]
    fn ready(&mut self, slot: usize, head: u32) -> bool {
        if self.tails[slot] == head {
            self.tails[slot] = self.shared.tails[slot].load(Ordering::Acquire);
        }
        self.tails[slot] != head
    }

    /// The lock on `slot`'s warp. The helper holds it for one fill at most,
    /// so the commit loop spins for it rather than sleep.
    fn lock(&self, slot: usize) -> MutexGuard<'a, Warp<'w>> {
        let warp = &self.shared.warps[slot];
        let mut spins = 0u32;
        let locked = loop {
            match warp.try_lock() {
                Err(TryLockError::WouldBlock) if spins < SPINS => {
                    spins += 1;
                    std::hint::spin_loop();
                }
                Err(TryLockError::WouldBlock) => break warp.lock(),
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

    /// The lock on `slot`'s warp once its ring is empty at `head` and the
    /// helper does not hold it; `None` as soon as the ring has a word.
    fn lock_if_dry(&mut self, slot: usize, head: u32) -> Option<MutexGuard<'a, Warp<'w>>> {
        let warp = &self.shared.warps[slot];
        let mut spins = 0u32;
        while spins < SPINS {
            if self.ready(slot, head) {
                return None;
            }
            match warp.try_lock() {
                Ok(locked) => return Some(locked),
                Err(TryLockError::WouldBlock) => {
                    spins += 1;
                    std::hint::spin_loop();
                }
                // Poisoned: `lock` panics.
                Err(TryLockError::Poisoned(_)) => break,
            }
        }
        Some(self.lock(slot))
    }

    /// Hands the warp the commit loop gathers in `slot` to the helper.
    #[cold]
    fn hand_over(&mut self, slot: usize) {
        let program = self.mine[slot].take();
        let mut warp = self.lock(slot);
        warp.program = program;
        warp.exhausted = false;
        drop(warp);
        self.served[slot] = false;
        self.want(slot);
    }

    /// Queues `slot` for the helper, unless it waits there already.
    fn want(&mut self, slot: usize) {
        let wanted = &self.shared.wanted[slot];
        if wanted.load(Ordering::Relaxed) || wanted.swap(true, Ordering::Acquire) {
            return;
        }
        let requests = &self.shared.requests;
        let at = self.requested as usize & (requests.len() - 1);
        requests[at].store(slot as u32, Ordering::Relaxed);
        self.requested = self.requested.wrapping_add(1);
        self.shared
            .requested
            .store(self.requested, Ordering::Release);
    }

    /// Queues `slot` once the commit loop has read its ring up to `head`
    /// and [`LOW_WORDS`] or fewer are left.
    #[inline]
    fn read_to(&mut self, slot: usize, head: u32) {
        if self.tails[slot].wrapping_sub(head) <= LOW_WORDS {
            self.tails[slot] = self.shared.tails[slot].load(Ordering::Acquire);
            if self.tails[slot].wrapping_sub(head) <= LOW_WORDS {
                self.want(slot);
            }
        }
    }

    /// [`Decoder::next_phase`] once the run shares its slots: the phase at
    /// the head of `slot`'s ring, or one gathered into `phase` when the
    /// ring is empty.
    fn next_phase<'p>(&'p mut self, slot: usize, phase: &'p mut PhaseMix) -> Option<Phase<'p>> {
        if let Some(program) = &mut self.mine[slot] {
            phase.clear();
            program.gather(phase);
            if phase.is_empty() {
                return None;
            }
            let idle = &self.shared.idle;
            if idle.load(Ordering::Relaxed) && idle.swap(false, Ordering::Relaxed) {
                self.hand_over(slot);
            }
            return Some(Phase::Mix(phase));
        }
        let shared = self.shared;
        // Only this thread stores it.
        let head = shared.heads[slot].load(Ordering::Relaxed);
        if let Some(mut warp) = self.lock_if_dry(slot, head) {
            // The helper publishes what it gathers before it lets go of the
            // warp, and gathers nothing while the commit loop holds it.
            if !self.ready(slot, head) {
                #[expect(
                    clippy::expect_used,
                    reason = "engine invariant: next_phase is only called for slots the engine launched into and never after retirement"
                )]
                let program = warp.program.as_mut().expect("phase for a vacant warp slot");
                phase.clear();
                program.gather(phase);
                if phase.is_empty() {
                    warp.exhausted = true;
                    return None;
                }
                // Dry twice running after the helper served it, the helper
                // has fallen behind: the warp is the commit loop's now, and
                // its lanes stay in this core's cache. Once is a hiccup, and
                // a warp the helper has not got to yet stays its own.
                if std::mem::replace(&mut self.dry[slot], true) && self.served[slot] {
                    self.mine[slot] = warp.program.take();
                    self.dry[slot] = false;
                }
                return Some(Phase::Mix(phase));
            }
        }
        self.dry[slot] = false;
        self.served[slot] = true;
        let ring = &shared.rings[slot];
        let first = word(ring, head);
        if first == END || first == RingPhase::SPILLED {
            let head = head.wrapping_add(1);
            shared.heads[slot].store(head, Ordering::Release);
            if first == END {
                return None;
            }
            let mut spilled = shared
                .spilled
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            #[expect(
                clippy::expect_used,
                reason = "the helper queues a spilled phase before it publishes the word that points at it"
            )]
            let at = spilled
                .iter()
                .position(|&(of, _)| of == slot)
                .expect("a spilled phase waits for its slot");
            *phase = spilled.remove(at).1;
            drop(spilled);
            self.read_to(slot, head);
            return Some(Phase::Mix(phase));
        }
        let read = RingPhase::read(ring, head);
        let end = head.wrapping_add(read.words());
        self.read_to(slot, end);
        Some(Phase::Ring(Taken {
            phase: read,
            head: &shared.heads[slot],
            end,
        }))
    }
}

/// Supplies decoded phases to the engine's commit loop.
///
/// The engine drives it with the exact warp schedule it commits:
/// [`Decoder::on_launch`] when a warp enters a slot, then one
/// [`Decoder::next_phase`] per wake-up event until it returns `None`.
///
/// A run starts alone. In a helped run, once the commit loop has gathered
/// [`ALONE_PHASES_PER_WARP`] phases per warp of the grid's first wave, the
/// programs move into the shared slots and the helper starts; a shorter run
/// never shares.
pub(crate) struct Decoder<'a, 'w> {
    workload: &'w dyn Workload,
    config: &'a GpuConfig,
    /// The warp programs while no other thread sees them, indexed
    /// `[sm][slot]`; emptied when the run shares its slots. Slots are dense
    /// and stable: a retired warp's slot, storage included, is reused by
    /// its backfill, and emptied by [`Decoder::on_vacate`] when none comes.
    warps: Vec<Vec<Option<Box<dyn WarpProgram + 'w>>>>,
    /// The shared slots, once the run has shared them.
    commit: Option<Commit<'a, 'w>>,
    /// A helped run's shared slots and what starts its helper, until the
    /// run shares them.
    helper: Option<(&'a WarpSlots<'w>, &'a dyn Fn())>,
    /// A helped run's rings, one per slot the grid fills, allocated with
    /// the engine rather than mid-run, once the memory model's tables have
    /// grown; they move into the shared slots.
    rings: Option<Box<[Ring]>>,
    /// Warp slots per SM the grid fills: the warps dealt to the first SM,
    /// or every slot.
    slots_per_sm: usize,
    /// Phases a helped run gathers alone before it shares its slots.
    alone: u64,
    /// The phase gathered on the commit loop's thread; its line buffers
    /// back every such phase.
    phase: PhaseMix,
}

impl<'a, 'w> Decoder<'a, 'w> {
    /// A decoder for `workload`'s grid on `config`; `helper` as in
    /// [`Decoder::helper`].
    pub(crate) fn new(
        workload: &'w dyn Workload,
        config: &'a GpuConfig,
        helper: Option<(&'a WarpSlots<'w>, &'a dyn Fn())>,
    ) -> Self {
        let num_sms = config.num_sms as usize;
        let warps = workload.thread_count().div_ceil(config.warp_size as u64);
        let slots_per_sm = warps
            .div_ceil(num_sms as u64)
            .min(config.max_warps_per_sm as u64) as usize;
        Decoder {
            workload,
            config,
            warps: (0..num_sms).map(|_| Vec::new()).collect(),
            commit: None,
            rings: helper.map(|_| {
                (0..num_sms * slots_per_sm)
                    .map(|_| std::array::from_fn(|_| AtomicU32::new(0)))
                    .collect()
            }),
            helper,
            slots_per_sm,
            alone: ALONE_PHASES_PER_WARP
                * warps.min(u64::from(config.num_sms * config.max_warps_per_sm)),
            phase: PhaseMix::new(config.l1d.line_bytes),
        }
    }

    /// The warp covering threads `[first_thread, first_thread + lanes)`
    /// was launched into `slot` on `sm`: a fresh slot, or one whose warp
    /// has retired. Its lanes are launched here, on the commit loop's
    /// thread; a shared slot is then queued for the helper.
    pub(crate) fn on_launch(&mut self, sm: usize, slot: usize, first_thread: u64, lanes: u32) {
        let workload = self.workload;
        if let Some(commit) = &mut self.commit {
            let slot = sm * self.slots_per_sm + slot;
            let mine = commit.mine[slot].take();
            commit.dry[slot] = false;
            commit.served[slot] = false;
            let mut warp = commit.lock(slot);
            debug_assert_eq!(
                commit.shared.tails[slot].load(Ordering::Relaxed),
                commit.shared.heads[slot].load(Ordering::Relaxed),
                "a retired warp's ring is read to its end"
            );
            warp.exhausted = false;
            warp.program
                .get_or_insert_with(|| mine.unwrap_or_else(|| workload.warp_program()))
                .launch(first_thread, lanes);
            drop(warp);
            return commit.want(slot);
        }
        let slots = &mut self.warps[sm];
        if slot == slots.len() {
            slots.push(None);
        }
        slots[slot]
            .get_or_insert_with(|| workload.warp_program())
            .launch(first_thread, lanes);
    }

    /// The warp in `(sm, slot)` has retired and no warp is left to backfill
    /// it: its storage goes back to the allocator now rather than at the end
    /// of the run, while the memory model's tables are still growing.
    pub(crate) fn on_vacate(&mut self, sm: usize, slot: usize) {
        match &mut self.commit {
            Some(commit) => {
                let slot = sm * self.slots_per_sm + slot;
                commit.mine[slot] = None;
                commit.lock(slot).program = None;
            }
            None => self.warps[sm][slot] = None,
        }
    }

    /// The next phase of the warp resident in `(sm, slot)`, gathered and
    /// categorized here — or, once the run shares its slots, read from the
    /// slot's ring — or `None` once every lane has exited: the warp retires.
    /// Never called again for a warp after it returned `None`.
    pub(crate) fn next_phase(&mut self, sm: usize, slot: usize) -> Option<Phase<'_>> {
        if self.commit.is_some() {
            return self.next_shared(sm * self.slots_per_sm + slot);
        }
        #[expect(
            clippy::expect_used,
            reason = "engine invariant: next_phase is only called for slots the engine launched into and never after retirement"
        )]
        let warp = self.warps[sm][slot]
            .as_mut()
            .expect("phase for a vacant warp slot");
        self.phase.clear();
        warp.gather(&mut self.phase);
        if self.phase.is_empty() {
            return None;
        }
        // Only a gathered phase counts: the warp of the gather that shares
        // the slots is live, and every other resident warp is too, as the
        // engine backfills or vacates a slot as soon as its warp retires.
        if self.helper.is_some() {
            self.alone -= 1;
            if self.alone == 0 {
                self.share();
            }
        }
        Some(Phase::Mix(&self.phase))
    }

    /// [`Decoder::next_phase`] once the run shares its slots, out of line so
    /// that an unshared run's stays small.
    #[inline(never)]
    fn next_shared(&mut self, slot: usize) -> Option<Phase<'_>> {
        let phase = &mut self.phase;
        self.commit
            .as_mut()
            .and_then(|commit| commit.next_phase(slot, phase))
    }

    /// Moves the warp programs into the shared slots, queues every resident
    /// warp for the helper and starts it.
    #[cold]
    fn share(&mut self) {
        let Some((slots, start)) = self.helper.take() else {
            return;
        };
        let programs = std::mem::take(&mut self.warps);
        let rings = self.rings.take().unwrap_or_default();
        let shared = slots
            .shared
            .get_or_init(|| Shared::new(programs, rings, self.slots_per_sm, self.config));
        let slots = shared.warps.len();
        let mut commit = Commit {
            shared,
            mine: (0..slots).map(|_| None).collect(),
            served: vec![false; slots],
            dry: vec![false; slots],
            tails: vec![0; slots],
            requested: 0,
        };
        for slot in 0..slots {
            if commit.lock(slot).program.is_some() {
                commit.want(slot);
            }
        }
        self.commit = Some(commit);
        start();
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

    /// The phase as a mix, wherever the commit loop read it from.
    fn owned(phase: Phase<'_>) -> PhaseMix {
        match phase {
            Phase::Mix(mix) => mix.clone(),
            Phase::Ring(taken) => taken.to_mix(128),
        }
    }

    /// 7 warps of uneven length, whose ops are `op(thread, k)`.
    fn uneven(op: fn(u64, u64) -> Op) -> ScriptedWorkload {
        ScriptedWorkload::per_thread(7 * 32 - 5, move |i| {
            (0..i % 13 + i / 32).map(|k| op(i, k)).collect()
        })
    }

    /// Ops of a few lines each.
    fn narrow(i: u64, k: u64) -> Op {
        match k % 3 {
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
        }
    }

    /// Every fourth op a load of many lines: its phases need more words
    /// than a ring holds, or are wider than a word per line.
    fn wide(i: u64, k: u64) -> Op {
        match k % 4 {
            0 => Op::Load {
                addr: (i * 13 + k) * 512,
                bytes: 64 * (k % 7) as u32 + 1,
            },
            1 => Op::RtPrim {
                addr: (1 << 40) * (k % 2) + i * 64,
            },
            _ => narrow(i, k),
        }
    }

    /// What [`drive`] saw.
    #[derive(Debug, Default)]
    struct Drive {
        /// Every phase the commit loop took, per step.
        phases: Vec<Option<PhaseMix>>,
        /// Phases read from a ring.
        ringed: usize,
        /// Helper steps that left a spilled phase waiting.
        spills: usize,
        /// Commit-loop gathers that handed their warp to the helper.
        hand_overs: usize,
    }

    /// Drives `w` through 2 slots in the engine's order — launch, phases,
    /// retire, backfill or vacate — with the slots shared from the start
    /// and a helper step before every `help_every`-th step (never shared
    /// when 0); the helper reads as idle before every `idle_every`-th.
    fn drive(w: &ScriptedWorkload, help_every: usize, idle_every: usize) -> Drive {
        let config = one_sm();
        let slots = WarpSlots::new();
        let start = || ();
        let mut decoder = Decoder::new(w, &config, Some((&slots, &start)));
        if help_every > 0 {
            decoder.share();
        }
        let shared = slots.shared.get();
        let mut pending = deal_warps(w.thread_count(), 32, 1).remove(0).into_iter();
        let mut resident = [true; 2];
        for slot in 0..2 {
            let warp = pending.next().expect("7 warps");
            decoder.on_launch(0, slot, warp.first_thread, warp.lanes);
        }
        let mut seen = Drive::default();
        for step in 0.. {
            if let Some(shared) = shared.filter(|_| step % help_every.max(1) == 0) {
                shared
                    .idle
                    .store(idle_every > 0 && step % idle_every == 0, Ordering::Relaxed);
                let mut helper = shared.helper.lock().expect("one helper");
                shared.help_step(&mut helper);
                seen.spills += usize::from(!shared.spilled.lock().expect("spills").is_empty());
            }
            let slot = step % 2;
            if !resident[slot] {
                if resident == [false; 2] {
                    break;
                }
                continue;
            }
            let mine = |d: &Decoder<'_, '_>| d.commit.as_ref().map(|c| c.mine[slot].is_some());
            let was_mine = mine(&decoder);
            let phase = decoder.next_phase(0, slot);
            seen.ringed += usize::from(matches!(phase, Some(Phase::Ring(_))));
            let phase = phase.map(owned);
            seen.hand_overs += usize::from(was_mine == Some(true) && mine(&decoder) == Some(false));
            if phase.is_none() {
                match pending.next() {
                    Some(warp) => decoder.on_launch(0, slot, warp.first_thread, warp.lanes),
                    None => {
                        decoder.on_vacate(0, slot);
                        resident[slot] = false;
                    }
                }
            }
            seen.phases.push(phase);
        }
        seen
    }

    #[test]
    fn a_helper_leaves_the_phase_stream_unchanged() {
        for (name, w) in [("narrow", uneven(narrow)), ("wide", uneven(wide))] {
            let unhelped = drive(&w, 0, 0).phases;
            assert!(unhelped.iter().filter(|p| p.is_none()).count() == 7);
            let mut hand_overs = 0;
            for (help_every, idle_every) in [
                (1, 0),
                (2, 0),
                (3, 0),
                (5, 0),
                (17, 0),
                (3, 2),
                (7, 1),
                (23, 1),
                (41, 1),
                (61, 1),
            ] {
                let helped = drive(&w, help_every, idle_every);
                let label = format!(
                    "{name}: a helper step every {help_every} steps, idle every {idle_every}"
                );
                assert!(helped.phases == unhelped, "{label}");
                assert!(helped.ringed > 0, "{label}: no phase came from a ring");
                if name == "wide" {
                    assert!(helped.spills > 0, "{label}: no phase spilled");
                }
                hand_overs += helped.hand_overs;
            }
            assert!(hand_overs > 0, "{name}: no warp was handed over");
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
                120
            ],
        );
        let config = one_sm();
        let slots = WarpSlots::new();
        let mut decoder = Decoder::new(&w, &config, Some((&slots, &|| ())));
        decoder.share();
        let shared = slots.shared.get().expect("shared");
        let mut helper = shared.helper.lock().expect("one helper");
        let words = |slot: usize| {
            let tail = shared.tails[slot].load(Ordering::Relaxed);
            tail.wrapping_sub(shared.heads[slot].load(Ordering::Relaxed))
        };
        let mine = |d: &Decoder<'_, '_>| d.commit.as_ref().is_some_and(|c| c.mine[0].is_some());
        assert!(!shared.help_step(&mut helper), "nothing launched");
        decoder.on_launch(0, 0, 0, 32);
        decoder.on_launch(0, 1, 32, 32);
        // Adopted at launch: the ring fills before the warp's first phase,
        // while it has room for the largest phase, a header per phase here.
        let header = RingPhase::HEADER as u32;
        let full = (RING_WORDS as u32 - FILL_FREE) / header * header + header;
        assert!(shared.help_step(&mut helper));
        assert_eq!((words(0), words(1)), (full, 0));
        assert!(shared.help_step(&mut helper));
        assert_eq!(words(1), full);
        assert!(!shared.help_step(&mut helper), "both rings are full");
        // The commit loop reads slot 0 to `LOW_WORDS`, and queues it.
        let mut read = 0;
        while words(0) > LOW_WORDS {
            assert!(matches!(decoder.next_phase(0, 0), Some(Phase::Ring(_))));
            read += 1;
        }
        assert!(read > 1);
        assert!(shared.help_step(&mut helper));
        assert_eq!(words(0), full);
        // Unserved, the ring runs dry: the commit loop gathers the warp
        // itself, and takes it back when the ring is dry twice running.
        while words(0) > 0 {
            assert!(matches!(decoder.next_phase(0, 0), Some(Phase::Ring(_))));
        }
        assert!(matches!(decoder.next_phase(0, 0), Some(Phase::Mix(_))));
        assert!(!mine(&decoder), "dry once");
        assert!(matches!(decoder.next_phase(0, 0), Some(Phase::Mix(_))));
        assert!(mine(&decoder), "dry twice");
        assert!(shared.warps[0].lock().expect("slot 0").program.is_none());
        // The helper reads the slot's last request and leaves it be.
        shared.help_step(&mut helper);
        assert_eq!(words(0), 0);
        assert!(matches!(decoder.next_phase(0, 0), Some(Phase::Mix(_))));
        // An idle helper is handed the warp at the next gather.
        shared.idle.store(true, Ordering::Relaxed);
        assert!(matches!(decoder.next_phase(0, 0), Some(Phase::Mix(_))));
        assert!(!mine(&decoder));
        assert!(shared.help_step(&mut helper));
        assert_eq!(words(0), full);
        drop(helper);
        drop(slots.end_on_drop());
        slots.help();
    }

    #[test]
    fn a_warps_last_empty_gather_does_not_share_the_slots() {
        // Two warps of three phases each through one slot.
        let w = ScriptedWorkload::uniform(64, vec![Op::Load { addr: 0, bytes: 4 }; 3]);
        let config = one_sm();
        let slots = WarpSlots::new();
        let mut decoder = Decoder::new(&w, &config, Some((&slots, &|| ())));
        let mut unshared = Decoder::new(&w, &config, None);
        // The empty gather that retires the first warp would be the last
        // one alone if it counted.
        decoder.alone = 4;
        let mut phases = Vec::new();
        for warp in 0..2 {
            for d in [&mut decoder, &mut unshared] {
                d.on_launch(0, 0, warp * 32, 32);
            }
            loop {
                let want = unshared.next_phase(0, 0).map(owned);
                let got = decoder.next_phase(0, 0).map(owned);
                assert_eq!(got, want, "warp {warp}, phase {}", phases.len());
                // A helper that is already waiting fills every queued ring
                // before the engine gets to its backfill.
                if let Some(shared) = slots.shared.get() {
                    let mut helper = shared.helper.lock().expect("one helper");
                    while shared.help_step(&mut helper) {}
                }
                let Some(phase) = got else { break };
                phases.push(phase);
            }
        }
        assert!(decoder.commit.is_some(), "the slots were shared");
        assert_eq!(phases.len(), 6);
    }

    #[test]
    fn phases_are_read_in_order_from_a_wrapping_ring() {
        let w = uneven(narrow);
        let config = one_sm();
        let slots = WarpSlots::new();
        let mut decoder = Decoder::new(&w, &config, Some((&slots, &|| ())));
        decoder.share();
        let mut unshared = Decoder::new(&w, &config, None);
        let shared = slots.shared.get().expect("shared");
        let mut helper = shared.helper.lock().expect("one helper");
        // The last warp, the longest: 34 to 46 ops a lane.
        for d in [&mut decoder, &mut unshared] {
            d.on_launch(0, 0, 6 * 32, 27);
        }
        loop {
            shared.help_step(&mut helper);
            let want = unshared.next_phase(0, 0).map(owned);
            assert_eq!(decoder.next_phase(0, 0).map(owned), want);
            if want.is_none() {
                break;
            }
            // Read one phase per fill: the ring's positions wrap.
            shared.wanted[0].store(false, Ordering::Relaxed);
            decoder.commit.as_mut().expect("shared").want(0);
        }
        assert!(shared.heads[0].load(Ordering::Relaxed) > RING_WORDS as u32);
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
        let config = GpuConfig::mobile_soc();
        let mut src = Decoder::new(&w, &config, None);
        src.on_launch(0, 0, 0, 4);
        let mix = owned(src.next_phase(0, 0).expect("a compute phase"));
        assert_eq!(mix.compute_cycles, 2);
        assert_eq!(mix.instructions, 8, "4 lanes x 2 insts");
        let mix = owned(src.next_phase(0, 0).expect("a load phase"));
        assert_eq!(mix.load_lines, vec![0]);
        assert_eq!(mix.compute_cycles, 0, "nothing of the last phase survives");
        assert!(src.next_phase(0, 0).is_none());
        // The slot is immediately reusable by a backfill, with its storage
        // or — once vacated — without.
        for _ in 0..2 {
            src.on_launch(0, 0, 0, 4);
            assert!(src.next_phase(0, 0).is_some());
            assert!(src.next_phase(0, 0).is_some());
            assert!(src.next_phase(0, 0).is_none());
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
