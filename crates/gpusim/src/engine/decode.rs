//! The decode seam: where warp instruction streams turn into categorized
//! phases, independent of the timing model.
//!
//! The engine's event loop ([`Engine`](super::Engine)) consumes
//! [`DecodedPhase`]s through the [`PhaseSource`] trait. Decoding a phase —
//! advancing every live lane of a warp one op and categorizing the gather
//! into a [`PhaseMix`] — is a pure function of the workload and the line
//! size; it touches no shared timing state. That purity is what the sharded
//! engine exploits: decode runs ahead on shard threads while the single
//! commit loop replays phases in exact serial order.
//!
//! [`SerialSource`] is the `sim_threads = 1` implementation: it decodes
//! inline, at the moment the commit loop asks, reproducing the historical
//! monolithic engine's call order exactly.

use crate::core::warp::Warp;
use crate::workload::Workload;

use super::sm::PhaseMix;

/// One decoded warp phase as consumed by the commit loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DecodedPhase {
    /// A non-empty phase: the warp issues this categorized op mix.
    Mix(PhaseMix),
    /// Every lane has exited; the warp retires. Always the final phase of
    /// a warp's stream.
    Retire,
}

/// Supplies decoded phases to the engine's commit loop.
///
/// The engine drives the source with the exact warp schedule it commits:
/// [`PhaseSource::on_launch`] when a warp enters a slot, then one
/// [`PhaseSource::next_phase`] per wake-up event until the source returns
/// [`DecodedPhase::Retire`]. Implementations may decode eagerly (shards) or
/// lazily (serial), but the phases returned for a given warp must be the
/// warp's decode stream in order — that alone guarantees the commit loop's
/// results are independent of *when* decoding happened.
pub(crate) trait PhaseSource {
    /// Warp `warp_id`, covering threads `[first_thread, first_thread +
    /// lanes)`, was launched into `slot` on `sm`.
    fn on_launch(&mut self, sm: usize, slot: usize, warp_id: u64, first_thread: u64, lanes: u32);

    /// Returns the next decoded phase of warp `warp_id`, resident in
    /// `(sm, slot)`. Never called again for a warp after it returned
    /// [`DecodedPhase::Retire`].
    fn next_phase(&mut self, sm: usize, slot: usize, warp_id: u64) -> DecodedPhase;

    /// Takes back a mix the commit loop has finished with, so a source that
    /// decodes inline can reuse its line buffers. Purely an allocation
    /// hint: sources may drop it (the default) and callers may skip it.
    fn recycle(&mut self, _mix: PhaseMix) {}
}

/// The serial decode path: warps are instantiated at launch and decoded
/// inline when the commit loop asks — byte-for-byte the behavior of the
/// pre-shard monolithic engine.
pub(crate) struct SerialSource<'w> {
    workload: &'w dyn Workload,
    line_bytes: u32,
    /// Resident warps, indexed `[sm][slot]`. Slots are dense and stable:
    /// a retired warp's slot is reused by its backfill.
    warps: Vec<Vec<Option<Warp<'w>>>>,
    /// The last recycled mix; its line buffers back the next phase.
    spare: PhaseMix,
}

impl<'w> SerialSource<'w> {
    pub fn new(workload: &'w dyn Workload, num_sms: usize, line_bytes: u32) -> Self {
        SerialSource {
            workload,
            line_bytes,
            warps: (0..num_sms).map(|_| Vec::new()).collect(),
            spare: PhaseMix::default(),
        }
    }
}

impl PhaseSource for SerialSource<'_> {
    fn on_launch(&mut self, sm: usize, slot: usize, warp_id: u64, first_thread: u64, lanes: u32) {
        let warp = Warp::new(self.workload, warp_id, sm, first_thread, lanes);
        let slots = &mut self.warps[sm];
        if slot == slots.len() {
            slots.push(Some(warp));
        } else {
            slots[slot] = Some(warp);
        }
    }

    fn next_phase(&mut self, sm: usize, slot: usize, _warp_id: u64) -> DecodedPhase {
        let slot_ref = &mut self.warps[sm][slot];
        // zatel-lint: allow(panic-hygiene, reason = "engine invariant: next_phase is only called for slots the engine launched into and never after Retire")
        let warp = slot_ref.as_mut().expect("phase for a vacant warp slot");
        let phase = decode_one(warp, self.line_bytes, std::mem::take(&mut self.spare));
        if phase == DecodedPhase::Retire {
            *slot_ref = None;
        }
        phase
    }

    fn recycle(&mut self, mix: PhaseMix) {
        self.spare = mix;
    }
}

/// Decodes one phase of `warp`: gathers ops from every live lane and
/// categorizes them into `spare`'s buffers, or signals retirement (the
/// caller drops the warp). Shared by the serial and sharded paths so their
/// decode streams are identical by construction.
pub(crate) fn decode_one(
    warp: &mut Warp<'_>,
    line_bytes: u32,
    mut spare: PhaseMix,
) -> DecodedPhase {
    let ops = warp.gather_phase();
    if ops.is_empty() {
        DecodedPhase::Retire
    } else {
        spare.categorize(ops, line_bytes);
        DecodedPhase::Mix(spare)
    }
}

/// A warp's launch geometry, shared by the commit loop's `launch_grid` and
/// the decode shards (both must deal warps to SMs identically).
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
    fn serial_source_decodes_until_retire() {
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
        let mut src = SerialSource::new(&w, 1, 128);
        src.on_launch(0, 0, 0, 0, 4);
        match src.next_phase(0, 0, 0) {
            DecodedPhase::Mix(mix) => {
                assert_eq!(mix.compute_cycles, 2);
                assert_eq!(mix.instructions, 8, "4 lanes x 2 insts");
            }
            other => panic!("expected a compute phase, got {other:?}"),
        }
        match src.next_phase(0, 0, 0) {
            DecodedPhase::Mix(mix) => assert_eq!(mix.load_lines, vec![0]),
            other => panic!("expected a load phase, got {other:?}"),
        }
        assert_eq!(src.next_phase(0, 0, 0), DecodedPhase::Retire);
        // The slot is vacated and immediately reusable by a backfill.
        src.on_launch(0, 0, 1, 0, 4);
        assert!(matches!(src.next_phase(0, 0, 1), DecodedPhase::Mix(_)));
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
