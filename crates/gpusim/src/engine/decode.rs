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
//! Here, warps are instantiated at launch and their phases gathered inline,
//! at the moment the commit loop asks; a warp slot's [`WarpProgram`]
//! outlives the warp and is reused by the slot's backfill, or freed at once
//! if there is none.

use crate::workload::{PhaseMix, WarpProgram, Workload};

/// Supplies decoded phases to the engine's commit loop.
///
/// The engine drives it with the exact warp schedule it commits:
/// [`Decoder::on_launch`] when a warp enters a slot, then one
/// [`Decoder::next_phase`] per wake-up event until it returns `None`.
pub(crate) struct Decoder<'w> {
    workload: &'w dyn Workload,
    /// Warp slots, indexed `[sm][slot]`. Slots are dense and stable: a
    /// retired warp's slot, storage included, is reused by its backfill,
    /// and emptied by [`Decoder::on_vacate`] when none comes.
    warps: Vec<Vec<Option<Box<dyn WarpProgram + 'w>>>>,
    /// The phase under construction; its line buffers back every phase.
    phase: PhaseMix,
}

impl<'w> Decoder<'w> {
    pub(crate) fn new(workload: &'w dyn Workload, num_sms: usize, line_bytes: u32) -> Self {
        Decoder {
            workload,
            warps: (0..num_sms).map(|_| Vec::new()).collect(),
            phase: PhaseMix::new(line_bytes),
        }
    }

    /// The warp covering threads `[first_thread, first_thread + lanes)`
    /// was launched into `slot` on `sm`: a fresh slot, or one whose warp
    /// has retired.
    pub(crate) fn on_launch(&mut self, sm: usize, slot: usize, first_thread: u64, lanes: u32) {
        let slots = &mut self.warps[sm];
        if slot == slots.len() {
            slots.push(None);
        }
        slots[slot]
            .get_or_insert_with(|| self.workload.warp_program())
            .launch(first_thread, lanes);
    }

    /// The warp in `(sm, slot)` has retired and no warp is left to backfill
    /// it: its storage goes back to the allocator now rather than at the end
    /// of the run, while the memory model's tables are still growing.
    pub(crate) fn on_vacate(&mut self, sm: usize, slot: usize) {
        self.warps[sm][slot] = None;
    }

    /// Gathers and categorizes the next phase of the warp resident in
    /// `(sm, slot)`, or returns `None` once every lane has exited: the warp
    /// retires. Never called again for a warp after it returned `None`.
    pub(crate) fn next_phase(&mut self, sm: usize, slot: usize) -> Option<&PhaseMix> {
        let slot = self.warps[sm][slot].as_mut();
        #[expect(
            clippy::expect_used,
            reason = "engine invariant: next_phase is only called for slots the engine launched into and never after retirement"
        )]
        let warp = slot.expect("phase for a vacant warp slot");
        self.phase.clear();
        warp.gather(&mut self.phase);
        (!self.phase.is_empty()).then_some(&self.phase)
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
        let mut src = Decoder::new(&w, 1, 128);
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
