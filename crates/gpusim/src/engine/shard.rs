//! A decode shard: one worker that owns a disjoint contiguous range of SMs
//! and decodes their warps' instruction streams ahead of the commit loop.
//!
//! A shard owns *decode* state only — warp programs and their launch lists.
//! All timing state (issue ports, RT units, caches, DRAM) stays with the
//! commit loop, which is what keeps the sharded engine bit-identical to the
//! serial one: a shard can run arbitrarily far ahead or behind without any
//! timing decision observing it. The shard's pace is bounded by the seam's
//! epoch protocol (see [`router`](super::router)): per-warp buffer windows
//! plus a residency-sized admission lookahead.

use std::collections::BTreeMap;

use crate::core::warp::Warp;
use crate::telemetry::ShardTelemetry;
use crate::workload::Workload;

use super::decode::{decode_one, DecodedPhase, WarpDesc};
use super::router::{AbortOnPanic, ShardRouter, MAX_BUFFERED};

/// Phases decoded per warp per round: amortizes seam locking while keeping
/// round-robin latency between a shard's warps low.
const CHUNK: usize = 32;

/// Static plan for one shard: which SMs it owns and their launch lists.
/// Plain data so it can be built on the driver thread and moved into the
/// shard's worker thread.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    /// Index of this shard's first SM (SM ranges are contiguous).
    pub first_sm: usize,
    /// Launch list per owned SM, in launch order — the same lists the
    /// commit loop's `launch_grid` deals from.
    pub launch_lists: Vec<Vec<WarpDesc>>,
    /// How many warps per SM the shard may decode beyond the commit loop's
    /// launch watermark (one residency window: `max_warps_per_sm`).
    pub lookahead: usize,
}

/// Runs one shard's decode loop to completion (or until the run aborts),
/// returning what the shard measured about itself. Called on the shard's
/// worker thread. The telemetry is observational only: nothing in it feeds
/// back into decode or admission decisions.
pub(crate) fn run_shard(
    router: &ShardRouter,
    shard: usize,
    workload: &dyn Workload,
    line_bytes: u32,
    plan: ShardPlan,
) -> ShardTelemetry {
    let _guard = AbortOnPanic(router);
    let mut telemetry = ShardTelemetry::default();
    // zatel-lint: allow(wall-clock, reason = "audited shard telemetry: wall-clock accumulates only into the ShardTelemetry side channel, never into decode or admission state")
    let run_start = std::time::Instant::now();
    // Decode programs of warps currently being decoded, plus how many
    // warps of each SM's list have started decoding.
    let mut warps: BTreeMap<u64, Warp<'_>> = BTreeMap::new();
    let mut active: Vec<u64> = Vec::new();
    let mut started = vec![0usize; plan.launch_lists.len()];
    loop {
        let adm = router.admission(shard);
        telemetry
            .admission_depth
            .observe(adm.buffered.values().map(|&n| n as u64).sum());
        // Admit warps up to the watermark: list position < launched +
        // lookahead. The commit loop raises `launched` as slots free up.
        for (i, list) in plan.launch_lists.iter().enumerate() {
            let limit = (adm.launched[i] as usize + plan.lookahead).min(list.len());
            while started[i] < limit {
                let desc = list[started[i]];
                let sm = plan.first_sm + i;
                warps.insert(
                    desc.id,
                    Warp::new(workload, desc.id, sm, desc.first_thread, desc.lanes),
                );
                active.push(desc.id);
                started[i] += 1;
            }
        }
        // One decode round: visit every active warp with seam window
        // space, decode up to a chunk, publish.
        let mut progressed = false;
        let mut retired: Vec<u64> = Vec::new();
        for &warp_id in &active {
            let space = MAX_BUFFERED.saturating_sub(adm.buffered_of(warp_id));
            if space == 0 {
                continue;
            }
            // zatel-lint: allow(panic-hygiene, reason = "shard invariant: every id in `active` was inserted into `warps` at admission and removed only on retire")
            let warp = warps.get_mut(&warp_id).expect("active warp has a program");
            let mut batch = Vec::with_capacity(space.min(CHUNK));
            while batch.len() < space.min(CHUNK) {
                let phase = decode_one(warp, line_bytes, Default::default());
                let is_retire = phase == DecodedPhase::Retire;
                batch.push(phase);
                if is_retire {
                    retired.push(warp_id);
                    break;
                }
            }
            telemetry.decoded_phases += batch.len() as u64;
            telemetry.publishes += 1;
            router.publish(shard, warp_id, batch);
            progressed = true;
        }
        for warp_id in &retired {
            warps.remove(warp_id);
        }
        active.retain(|id| !retired.contains(id));
        if active.is_empty()
            && started
                .iter()
                .zip(&plan.launch_lists)
                .all(|(&s, l)| s == l.len())
        {
            router.finish(shard);
            return finalize(telemetry, run_start);
        }
        // Nothing decodable: every active warp's window is full and no
        // warp is admissible. Sleep until the commit loop moves the epoch
        // (consumes or launches); the ticket makes the sleep race-free.
        if !progressed {
            telemetry.stall_waits += 1;
            // zatel-lint: allow(wall-clock, reason = "audited shard telemetry: stall wall-clock is recorded after the wait decision was already made, side channel only")
            let wait_start = std::time::Instant::now();
            let alive = router.wait_for_epoch(shard, adm.epoch);
            telemetry.stall_wall_us += wait_start.elapsed().as_micros() as u64;
            if !alive {
                return finalize(telemetry, run_start); // aborted
            }
        }
    }
}

/// Closes out a shard's telemetry: decode wall is the shard's total wall
/// minus the time it spent asleep on the epoch ticket.
fn finalize(mut telemetry: ShardTelemetry, run_start: std::time::Instant) -> ShardTelemetry {
    let total_us = run_start.elapsed().as_micros() as u64;
    telemetry.decode_wall_us = total_us.saturating_sub(telemetry.stall_wall_us);
    telemetry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::decode::deal_warps;
    use crate::workload::{Op, ScriptedWorkload};

    /// Drives one shard synchronously on the test thread and drains its
    /// seam, checking the full decode stream of every warp arrives in
    /// order and ends in Retire.
    #[test]
    fn shard_decodes_all_owned_warps_to_retirement() {
        let threads = 32 * 5; // 5 warps on 2 SMs: lists of 3 and 2
        let w = ScriptedWorkload::per_thread(threads, |i| {
            vec![
                Op::Compute {
                    cycles: (i % 3) as u32 + 1,
                    insts: 1,
                },
                Op::Load {
                    addr: i * 64,
                    bytes: 4,
                },
            ]
        });
        let lists = deal_warps(threads, 32, 2);
        let router = ShardRouter::new(&[2]);
        let plan = ShardPlan {
            first_sm: 0,
            launch_lists: lists,
            lookahead: 32,
        };
        run_shard(&router, 0, &w, 128, plan);
        for warp_id in 0..5u64 {
            let phases: Vec<DecodedPhase> = router.take_phases(0, warp_id).into();
            assert_eq!(phases.len(), 3, "2 op phases + Retire");
            assert!(matches!(phases[0], DecodedPhase::Mix(_)));
            assert!(matches!(phases[1], DecodedPhase::Mix(_)));
            assert_eq!(phases[2], DecodedPhase::Retire);
        }
    }

    /// With a tiny lookahead the shard must stop at the admission
    /// watermark instead of decoding the whole list.
    #[test]
    fn shard_respects_admission_watermark() {
        let threads = 32 * 8;
        let w = ScriptedWorkload::uniform(
            threads,
            vec![Op::Compute {
                cycles: 1,
                insts: 1,
            }],
        );
        let lists = deal_warps(threads, 32, 1);
        let router = ShardRouter::new(&[1]);
        let plan = ShardPlan {
            first_sm: 0,
            launch_lists: lists,
            lookahead: 2,
        };
        std::thread::scope(|s| {
            s.spawn(|| run_shard(&router, 0, &w, 128, plan));
            // Only warps 0 and 1 are admissible until launches are noted.
            let first = router.take_phases(0, 0);
            assert_eq!(first.len(), 2, "one phase + Retire");
            assert!(router.admission(0).buffered.keys().all(|&w| w < 2));
            // Raising the watermark admits the rest; the shard drains.
            for _ in 0..8 {
                router.note_launched(0, 0);
            }
            for warp_id in 1..8u64 {
                let q = router.take_phases(0, warp_id);
                assert_eq!(q.len(), 2);
            }
        });
    }
}
