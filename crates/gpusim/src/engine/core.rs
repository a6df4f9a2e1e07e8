//! The event-driven commit loop: launches the grid, steps warps through
//! their SIMT phases and collects the final statistics.
//!
//! The loop takes each phase from its [`Decoder`] — read from a ring a
//! helper gathered it into, or gathered inline — and charges it to the
//! timing state (issue ports, RT units, memory hierarchy) strictly in
//! [`EventQueue`] pop order. Every timing decision and every hook call
//! happens here, in that one deterministic order.

use crate::config::GpuConfig;
use crate::hooks::{PhaseClass, SimHooks};
use crate::mem::MemoryHierarchy;
use crate::stats::SimStats;
use crate::workload::{LineList, PhaseView, Workload};

use super::decode::{deal_warps, Decoder, Phase, WarpSlots};
use super::events::{Event, EventQueue};
use super::sm::SmState;

/// Cycles between a warp slot freeing and the replacement warp's first issue.
const WARP_LAUNCH_LATENCY: u64 = 4;

/// One simulation run in flight: the configuration, the decoder and the
/// timing state. Generic over the hook type so the cycle path
/// monomorphizes — [`NullHooks`](crate::hooks::NullHooks) compiles to
/// exactly the pre-seam engine.
pub(crate) struct Engine<'a, 'w, H: SimHooks> {
    config: &'a GpuConfig,
    threads: u64,
    decoder: Decoder<'a, 'w>,
    timing: Timing<'a, H>,
}

/// All mutable machine state and the observer: what a phase is charged to.
struct Timing<'a, H: SimHooks> {
    mem: MemoryHierarchy,
    sms: Vec<SmState>,
    events: EventQueue,
    stats: SimStats,
    max_time: u64,
    hooks: &'a mut H,
}

impl<'a, 'w, H: SimHooks> Engine<'a, 'w, H> {
    /// An engine; `helper` as in [`Decoder::new`].
    pub(crate) fn new(
        config: &'a GpuConfig,
        workload: &'w dyn Workload,
        helper: Option<(&'a WarpSlots<'w>, &'a dyn Fn())>,
        hooks: &'a mut H,
    ) -> Self {
        Engine {
            config,
            threads: workload.thread_count(),
            decoder: Decoder::new(workload, config, helper),
            timing: Timing {
                mem: MemoryHierarchy::new(config),
                sms: (0..config.num_sms).map(|_| SmState::new(config)).collect(),
                events: EventQueue::new(),
                stats: SimStats::default(),
                max_time: 0,
                hooks,
            },
        }
    }

    /// Runs the workload's grid to completion.
    pub(crate) fn run(mut self) -> SimStats {
        self.launch_grid();
        while let Some(ev) = self.timing.events.pop() {
            self.step_warp(ev);
        }
        let t = &mut self.timing;
        // The run ends when the last warp retires AND all write-back
        // traffic has drained from the DRAM channels.
        t.stats.cycles = t.max_time.max(t.mem.drain_time());
        t.stats.rt_warp_phases = t.sms.iter().map(|s| s.rt_unit.phases()).sum();
        t.stats.rt_active_rays = t.sms.iter().map(|s| s.rt_unit.active_rays()).sum();
        t.mem.export_stats(&mut t.stats);
        self.timing.stats
    }

    /// Deals warps to SMs (see [`deal_warps`]) and fills the initial warp
    /// slots.
    fn launch_grid(&mut self) {
        self.timing.stats.threads_launched = self.threads;
        let sms = self.timing.sms.len();
        let lists = deal_warps(self.threads, self.config.warp_size, sms);
        for (sm, list) in lists.into_iter().enumerate() {
            self.timing.sms[sm].pending = list
                .into_iter()
                .map(|w| (w.id, w.first_thread, w.lanes))
                .collect();
        }
        for sm in 0..sms {
            for _ in 0..self.config.max_warps_per_sm {
                if !self.try_launch(sm, 0) {
                    break;
                }
            }
        }
    }

    /// Launches the oldest warp pending on `sm` into a fresh slot at `t`.
    fn try_launch(&mut self, sm: usize, t: u64) -> bool {
        let t_sm = &mut self.timing.sms[sm];
        let Some((id, first, lanes)) = t_sm.pending.pop_front() else {
            return false;
        };
        let slot = t_sm.slots_used;
        t_sm.slots_used += 1;
        self.decoder.on_launch(sm, slot, first, lanes);
        self.timing.hooks.on_warp_launch(sm, id, t);
        self.timing.events.push(Event {
            time: t + WARP_LAUNCH_LATENCY,
            warp_id: id,
            sm,
            slot,
        });
        true
    }

    /// Executes one SIMT phase of a warp (or retires it).
    fn step_warp(&mut self, ev: Event) {
        let retired = match self.decoder.next_phase(ev.sm, ev.slot) {
            Some(Phase::Mix(mix)) => self.timing.commit(ev, mix),
            Some(Phase::Ring(phase)) => self.timing.commit(ev, &*phase),
            None => true,
        };
        if retired {
            self.retire(ev);
        }
    }

    /// The warp woken by `ev` has no phase left: backfill its slot with
    /// this SM's oldest pending warp. Slot indices must stay stable, so the
    /// replacement reuses the retired warp's position.
    fn retire(&mut self, ev: Event) {
        let t = &mut self.timing;
        t.max_time = t.max_time.max(ev.time);
        t.hooks.on_warp_retire(ev.sm, ev.warp_id, ev.time);
        if let Some((id, first, lanes)) = t.sms[ev.sm].pending.pop_front() {
            self.decoder.on_launch(ev.sm, ev.slot, first, lanes);
            t.hooks.on_warp_launch(ev.sm, id, ev.time);
            t.events.push(Event {
                time: ev.time + WARP_LAUNCH_LATENCY,
                warp_id: id,
                sm: ev.sm,
                slot: ev.slot,
            });
        } else {
            self.decoder.on_vacate(ev.sm, ev.slot);
        }
    }
}

impl<H: SimHooks> Timing<'_, H> {
    /// Charges one SIMT phase of the warp woken by `ev` to the timing state
    /// and schedules the warp's next wake-up; `false`, the warp lives on.
    #[inline]
    fn commit(&mut self, ev: Event, mix: &impl PhaseView) -> bool {
        self.stats.instructions += mix.instructions();
        self.stats.warp_issues += 1;

        // --- Issue arbitration --------------------------------------------
        let start = self.sms[ev.sm].issue_at(ev.time, mix.lsu_slots());

        // --- Timing of each category --------------------------------------
        self.stats.bound_issue_cycles += start - ev.time;
        let mut ready = start + 1;
        let compute_ready = start + mix.compute_cycles();
        ready = ready.max(compute_ready);
        let mut lsu_ready = start;
        for line in mix.lines(LineList::Load) {
            lsu_ready = lsu_ready.max(self.mem.read_with(ev.sm, line, start, self.hooks));
        }
        for line in mix.lines(LineList::Store) {
            lsu_ready = lsu_ready.max(self.mem.write_with(ev.sm, line, start, self.hooks));
        }
        ready = ready.max(lsu_ready);
        let mut rt_ready = start;
        let rt_rays = mix.rt_rays();
        if rt_rays > 0 {
            let sm_state = &mut self.sms[ev.sm];
            let (slot, rt_start) = sm_state.rt_unit.acquire(start);
            let occupancy = sm_state.rt_unit.occupancy_cycles(rt_rays);
            // The warp occupies a tester slot only while its rays are being
            // box/primitive-tested; node and primitive fetches then go out
            // without holding the slot (no bound on how many are in
            // flight), so other warps can use the testers during the
            // memory round trip. The warp itself still waits for its data
            // before the next phase.
            sm_state
                .rt_unit
                .complete(slot, rt_start + occupancy, rt_rays);
            self.hooks.on_rt_phase(
                ev.sm,
                rt_rays,
                mix.line_count(LineList::Rt) as u32,
                rt_start,
                occupancy,
            );
            let mut rt_done = rt_start + occupancy;
            for line in mix.lines(LineList::Rt) {
                rt_done = rt_done.max(self.mem.read_with(ev.sm, line, rt_start, self.hooks));
            }
            rt_ready = rt_done;
            ready = ready.max(rt_done);
        }

        // CPI-stack attribution: the phase's exposed time goes to whichever
        // component formed the critical path.
        let span = ready - start;
        let class = if rt_ready >= ready {
            self.stats.bound_rt_cycles += span;
            PhaseClass::Rt
        } else if lsu_ready >= ready {
            self.stats.bound_memory_cycles += span;
            PhaseClass::Memory
        } else {
            self.stats.bound_compute_cycles += span;
            PhaseClass::Compute
        };
        self.hooks
            .on_phase_issue(ev.sm, ev.warp_id, class, start, ready);

        self.max_time = self.max_time.max(ready);
        self.events.push(Event {
            time: ready,
            warp_id: ev.warp_id,
            sm: ev.sm,
            slot: ev.slot,
        });
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GpuConfig;
    use crate::gpu::Simulator;
    use crate::hooks::{PhaseClass, SimHooks};
    use crate::workload::{Op, ScriptedWorkload};

    fn mobile() -> Simulator {
        Simulator::new(GpuConfig::mobile_soc())
    }

    #[test]
    fn empty_workload_finishes_instantly() {
        let w = ScriptedWorkload::uniform(0, vec![]);
        let stats = mobile().run(&w);
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.instructions, 0);
    }

    #[test]
    fn single_warp_compute_only() {
        let w = ScriptedWorkload::uniform(
            32,
            vec![Op::Compute {
                cycles: 10,
                insts: 10,
            }],
        );
        let stats = mobile().run(&w);
        assert_eq!(stats.instructions, 320);
        assert!(stats.cycles >= 10);
        assert!(
            stats.cycles < 100,
            "one compute phase should be quick, got {}",
            stats.cycles
        );
        assert_eq!(stats.l1_accesses, 0);
    }

    #[test]
    fn coalesced_loads_generate_one_transaction() {
        // All 32 lanes load the same address: one line, one L1 access.
        let w = ScriptedWorkload::uniform(
            32,
            vec![Op::Load {
                addr: 4096,
                bytes: 4,
            }],
        );
        let stats = mobile().run(&w);
        assert_eq!(stats.l1_accesses, 1);
        assert_eq!(stats.l1_misses, 1);
        assert_eq!(stats.dram_transactions, 1);
    }

    #[test]
    fn divergent_loads_generate_many_transactions() {
        let w = ScriptedWorkload::per_thread(32, |i| {
            vec![Op::Load {
                addr: i * 4096,
                bytes: 4,
            }]
        });
        let stats = mobile().run(&w);
        assert_eq!(stats.l1_accesses, 32, "32 distinct lines");
    }

    #[test]
    fn more_work_takes_more_cycles() {
        let small = ScriptedWorkload::uniform(
            1024,
            vec![
                Op::Load { addr: 0, bytes: 4 },
                Op::Compute {
                    cycles: 4,
                    insts: 4,
                },
            ],
        );
        let big = ScriptedWorkload::per_thread(16384, |i| {
            vec![
                Op::Load {
                    addr: i * 128,
                    bytes: 4,
                },
                Op::Compute {
                    cycles: 4,
                    insts: 4,
                },
                Op::Load {
                    addr: (i + 7919) * 128,
                    bytes: 4,
                },
                Op::Compute {
                    cycles: 4,
                    insts: 4,
                },
            ]
        });
        let sim = mobile();
        let s_small = sim.run(&small);
        let s_big = sim.run(&big);
        assert!(
            s_big.cycles > s_small.cycles * 2,
            "16x threads with 2x ops must take much longer ({} vs {})",
            s_big.cycles,
            s_small.cycles
        );
    }

    #[test]
    fn rt_ops_drive_rt_efficiency() {
        let w = ScriptedWorkload::uniform(
            64,
            vec![
                Op::RtNode { addr: 0 },
                Op::RtNode { addr: 32 },
                Op::RtPrim { addr: 1 << 20 },
            ],
        );
        let stats = mobile().run(&w);
        assert_eq!(stats.rt_warp_phases, 6, "2 warps x 3 phases");
        assert!((stats.rt_efficiency() - 32.0).abs() < 1e-9, "full warps");
    }

    #[test]
    fn divergence_lowers_rt_efficiency() {
        // Lane i performs i+1 RT steps: later phases have fewer live lanes.
        let w = ScriptedWorkload::per_thread(32, |i| {
            (0..=i).map(|k| Op::RtNode { addr: k * 32 }).collect()
        });
        let stats = mobile().run(&w);
        assert!(stats.rt_efficiency() < 32.0);
        assert!(stats.rt_efficiency() > 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let w = ScriptedWorkload::per_thread(2048, |i| {
            vec![
                Op::RtNode {
                    addr: (i % 97) * 32,
                },
                Op::Load {
                    addr: i * 64,
                    bytes: 16,
                },
                Op::Compute {
                    cycles: (i % 7) as u32 + 1,
                    insts: 3,
                },
                Op::Store {
                    addr: i * 16,
                    bytes: 16,
                },
            ]
        });
        let sim = mobile();
        let a = sim.run(&w);
        let b = sim.run(&w);
        assert_eq!(a, b);
    }

    #[test]
    fn fewer_sms_take_longer_on_saturating_work() {
        let w = ScriptedWorkload::per_thread(8192, |i| {
            vec![
                Op::Load {
                    addr: i * 128,
                    bytes: 4,
                },
                Op::Compute {
                    cycles: 16,
                    insts: 16,
                },
                Op::Load {
                    addr: (i * 31 + 5) * 128,
                    bytes: 4,
                },
                Op::Compute {
                    cycles: 16,
                    insts: 16,
                },
            ]
        });
        let full = Simulator::new(GpuConfig::mobile_soc()).run(&w);
        let down = Simulator::new(GpuConfig::mobile_soc().downscaled(4).unwrap()).run(&w);
        assert!(
            down.cycles > full.cycles * 2,
            "quarter GPU must be much slower ({} vs {})",
            down.cycles,
            full.cycles
        );
    }

    #[test]
    fn latency_bound_work_does_not_scale_with_sms() {
        // One warp total: SM count is irrelevant.
        let w = ScriptedWorkload::uniform(
            32,
            (0..64)
                .map(|i| Op::Load {
                    addr: i * 128 * 5,
                    bytes: 4,
                })
                .collect(),
        );
        let full = Simulator::new(GpuConfig::mobile_soc()).run(&w);
        let down = Simulator::new(GpuConfig::mobile_soc().downscaled(4).unwrap()).run(&w);
        let ratio = down.cycles as f64 / full.cycles as f64;
        assert!(
            ratio < 1.5,
            "single-warp work should barely change: {ratio}"
        );
    }

    #[test]
    fn stores_count_bandwidth_but_do_not_stall() {
        let w = ScriptedWorkload::uniform(32, vec![Op::Store { addr: 0, bytes: 16 }]);
        let stats = mobile().run(&w);
        assert!(stats.dram_busy_cycles > 0);
        // The warp itself retires immediately (one issue phase); the run's
        // cycle count additionally covers the write-back drain.
        assert_eq!(stats.warp_issues, 1);
        assert!(
            stats.cycles < 150,
            "store + drain should be short, got {}",
            stats.cycles
        );
        assert!(stats.bandwidth_utilization() <= 1.0);
    }

    #[test]
    fn cpi_stack_attributes_compute_vs_rt() {
        let compute_only = ScriptedWorkload::uniform(
            256,
            vec![Op::Compute {
                cycles: 40,
                insts: 40,
            }],
        );
        let s = mobile().run(&compute_only);
        assert!(s.bound_compute_cycles > 0);
        assert_eq!(s.bound_rt_cycles, 0);
        let stack = s.cpi_stack();
        let compute_share = stack.iter().find(|(n, _)| *n == "compute").unwrap().1;
        assert!(
            compute_share > 0.5,
            "pure-ALU workload must be compute bound: {stack:?}"
        );

        let rt_only = ScriptedWorkload::per_thread(256, |i| {
            (0..8)
                .map(|k| Op::RtNode {
                    addr: (i * 8 + k) * 4096,
                })
                .collect()
        });
        let s = mobile().run(&rt_only);
        assert!(s.bound_rt_cycles > 0);
        let stack = s.cpi_stack();
        let rt_share = stack.iter().find(|(n, _)| *n == "rt").unwrap().1;
        assert!(
            rt_share > 0.5,
            "pure-RT workload must be RT bound: {stack:?}"
        );
    }

    #[test]
    fn warp_slots_limit_concurrency() {
        // 64 warps of pure long compute on 1 SM config.
        let mut cfg = GpuConfig::mobile_soc();
        cfg.num_sms = 1;
        cfg.num_mem_partitions = 1;
        cfg.l2.bytes /= 4;
        cfg.max_warps_per_sm = 2;
        let w = ScriptedWorkload::uniform(
            32 * 8,
            vec![Op::Compute {
                cycles: 100,
                insts: 1,
            }],
        );
        let stats = Simulator::new(cfg.clone()).run(&w);
        // 8 warps, 2 at a time → at least 4 serial rounds of ~100 cycles.
        assert!(stats.cycles >= 400, "got {}", stats.cycles);
        cfg.max_warps_per_sm = 8;
        let wide = Simulator::new(cfg).run(&w);
        assert!(wide.cycles < stats.cycles);
    }

    /// Tallies every hook event so a test can check it against `SimStats`.
    #[derive(Default)]
    struct Tally {
        launched: u64,
        retired: u64,
        phases: u64,
        dram_transfers: u64,
        rt_active_rays: u64,
    }

    impl SimHooks for Tally {
        fn on_warp_launch(&mut self, _: usize, _: u64, _: u64) {
            self.launched += 1;
        }
        fn on_warp_retire(&mut self, _: usize, _: u64, _: u64) {
            self.retired += 1;
        }
        fn on_phase_issue(&mut self, _: usize, _: u64, _: PhaseClass, start: u64, ready: u64) {
            assert!(ready >= start);
            self.phases += 1;
        }
        fn on_dram_transfer(&mut self, _: usize, _: u32, _: u64) {
            self.dram_transfers += 1;
        }
        fn on_mem_read(&mut self, _: usize, _: u64) {}
        fn on_rt_phase(&mut self, _: usize, rays: u32, _: u32, _: u64, _: u64) {
            self.rt_active_rays += rays as u64;
        }
    }

    #[test]
    fn trace_hooks_observe_without_perturbing() {
        let w = ScriptedWorkload::per_thread(1024, |i| {
            vec![
                Op::RtNode {
                    addr: (i % 53) * 32,
                },
                Op::Load {
                    addr: i * 64,
                    bytes: 8,
                },
                Op::Compute {
                    cycles: (i % 5) as u32 + 1,
                    insts: 2,
                },
                Op::Store {
                    addr: i * 16,
                    bytes: 4,
                },
            ]
        });
        let sim = mobile();
        let baseline = sim.run(&w);
        let mut tally = Tally::default();
        let traced = sim.run_with_hooks(&w, &mut tally);
        assert_eq!(baseline, traced, "hooks must not change timing");
        assert_eq!(tally.launched, 32, "1024 threads / 32 lanes");
        assert_eq!(tally.retired, 32);
        assert_eq!(tally.phases, traced.warp_issues);
        assert_eq!(tally.rt_active_rays, traced.rt_active_rays);
        assert_eq!(tally.dram_transfers, traced.dram_transactions);
    }
}
