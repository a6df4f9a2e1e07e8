//! [`ObsHooks`]: the observability `SimHooks` implementation.
//!
//! One `ObsHooks` instance observes one simulation run (one pixel group in
//! the Zatel pipeline). It feeds two sinks at once:
//!
//! * **histograms + counters** — memory read latency, RT traversal depth
//!   and warp lifetime distributions plus warp and phase-class counts,
//!   exported into a [`MetricsRegistry`] after the run together with the
//!   cache and DRAM totals of the run's [`SimStats`];
//! * **timeline** (optional) — per-SM / RT-unit / memory-partition events
//!   on a [`Timeline`], merged across groups into a Perfetto trace.
//!
//! Everything recorded is a function of simulated time only, so fixed-seed
//! runs export byte-identical snapshots.

use std::collections::HashMap;

use gpusim::{GpuConfig, PhaseClass, SimHooks, SimStats};
use minijson::{Map, Value};

use crate::perfetto::{lanes, Timeline, DEFAULT_MAX_EVENTS};
use crate::registry::{Histogram, MetricsRegistry};

/// What an [`ObsHooks`] instance should record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserveOptions {
    /// Record a Perfetto timeline (histograms/counters are always on),
    /// capped at 2^20 events per group.
    pub timeline: bool,
}

impl Default for ObserveOptions {
    fn default() -> Self {
        ObserveOptions { timeline: true }
    }
}

minijson::record! {
    ObserveOptions {
        "timeline" => timeline,
    }
}

/// Recording observer combining histograms, counters and an optional
/// Perfetto timeline. See the [module docs](self) for the data flow.
#[derive(Debug, Clone)]
pub struct ObsHooks {
    // Histograms (log2 buckets, simulated cycles / BVH lines).
    mem_read_latency: Histogram,
    warp_lifetime: Histogram,
    rt_traversal_depth: Histogram,
    // Flat counters.
    compute_phases: u64,
    memory_phases: u64,
    rt_phases: u64,
    warps_launched: u64,
    warps_retired: u64,
    /// Bytes per DRAM transfer (one cache line), for `dram_bytes`.
    line_bytes: u64,
    // Timeline plumbing.
    timeline: Option<Timeline>,
    launches: HashMap<u64, u64>,
}

impl ObsHooks {
    /// Creates an observer for one run. `pid` becomes the trace process id
    /// (the pixel-group index) and `label` its process name; thread lanes
    /// are registered per SM, RT unit and memory partition of `config`.
    pub fn for_gpu(pid: u32, label: &str, config: &GpuConfig, opts: &ObserveOptions) -> Self {
        let timeline = opts.timeline.then(|| {
            let mut t = Timeline::new(pid, label, DEFAULT_MAX_EVENTS);
            for sm in 0..config.num_sms {
                t.thread(sm, &format!("SM {sm}"));
                t.thread(lanes::RT_BASE + sm, &format!("RT {sm}"));
            }
            for part in 0..config.num_mem_partitions {
                t.thread(lanes::MEM_BASE + part, &format!("MEM {part}"));
            }
            t
        });
        ObsHooks {
            mem_read_latency: Histogram::new(),
            warp_lifetime: Histogram::new(),
            rt_traversal_depth: Histogram::new(),
            compute_phases: 0,
            memory_phases: 0,
            rt_phases: 0,
            warps_launched: 0,
            warps_retired: 0,
            line_bytes: u64::from(config.l1d.line_bytes),
            timeline,
            launches: HashMap::new(),
        }
    }

    /// Folds this run's histograms and counters into `registry`; the cache
    /// and DRAM counters come from the run's own `stats`.
    pub fn export(&self, stats: &SimStats, registry: &mut MetricsRegistry) {
        registry.counter_add("warps_launched", self.warps_launched);
        registry.counter_add("warps_retired", self.warps_retired);
        registry.counter_add("compute_phases", self.compute_phases);
        registry.counter_add("memory_phases", self.memory_phases);
        registry.counter_add("rt_phases", self.rt_phases);
        registry.counter_add("l1_hits", stats.l1_accesses - stats.l1_misses);
        registry.counter_add("l1_misses", stats.l1_misses);
        registry.counter_add("l2_hits", stats.l2_accesses - stats.l2_misses);
        registry.counter_add("l2_misses", stats.l2_misses);
        registry.counter_add("dram_transfers", stats.dram_transactions);
        registry.counter_add("dram_bytes", stats.dram_transactions * self.line_bytes);
        registry.histogram_merge("mem_read_latency_cycles", &self.mem_read_latency);
        registry.histogram_merge("warp_lifetime_cycles", &self.warp_lifetime);
        registry.histogram_merge("rt_traversal_depth_lines", &self.rt_traversal_depth);
    }

    /// Issued phases per critical-path class: compute, memory, RT.
    pub fn phase_counts(&self) -> [u64; 3] {
        [self.compute_phases, self.memory_phases, self.rt_phases]
    }

    /// Takes the recorded timeline, leaving `None` (call after the run).
    pub fn take_timeline(&mut self) -> Option<Timeline> {
        self.timeline.take()
    }

    /// The memory read latency distribution (simulated cycles).
    pub fn mem_read_latency(&self) -> &Histogram {
        &self.mem_read_latency
    }
}

impl SimHooks for ObsHooks {
    fn on_warp_launch(&mut self, _sm: usize, warp_id: u64, time: u64) {
        self.warps_launched += 1;
        self.launches.insert(warp_id, time);
    }

    fn on_warp_retire(&mut self, _sm: usize, warp_id: u64, time: u64) {
        self.warps_retired += 1;
        if let Some(launched) = self.launches.remove(&warp_id) {
            self.warp_lifetime.observe(time.saturating_sub(launched));
        }
    }

    fn on_phase_issue(
        &mut self,
        sm: usize,
        _warp_id: u64,
        class: PhaseClass,
        start: u64,
        ready: u64,
    ) {
        match class {
            PhaseClass::Compute => self.compute_phases += 1,
            PhaseClass::Memory => self.memory_phases += 1,
            PhaseClass::Rt => self.rt_phases += 1,
        }
        if let Some(t) = &mut self.timeline {
            t.duration("phase", class.tag(), sm as u32, start, ready - start);
        }
    }

    fn on_dram_transfer(&mut self, channel: usize, bytes: u32, time: u64) {
        if let Some(t) = &mut self.timeline {
            let mut args = Map::new();
            args.insert("bytes".into(), Value::from(bytes));
            t.instant(
                "dram",
                "transfer",
                lanes::MEM_BASE + channel as u32,
                time,
                Some(args),
            );
        }
    }

    fn on_mem_read(&mut self, _sm: usize, latency: u64) {
        self.mem_read_latency.observe(latency);
    }

    fn on_rt_phase(&mut self, sm: usize, rays: u32, nodes: u32, start: u64, occupancy_cycles: u64) {
        self.rt_traversal_depth.observe(nodes as u64);
        if let Some(t) = &mut self.timeline {
            let name = format!("trace {rays} rays");
            t.duration(
                "rt",
                &name,
                lanes::RT_BASE + sm as u32,
                start,
                occupancy_cycles,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfetto::{merge_trace, validate_trace};
    use crate::registry::MetricKind;
    use gpusim::workload::{Op, ScriptedWorkload};
    use gpusim::Simulator;
    use minijson::ToJson;

    fn workload() -> ScriptedWorkload {
        ScriptedWorkload::per_thread(256, |i| {
            vec![
                Op::RtNode {
                    addr: (i % 31) * 32,
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
        })
    }

    #[test]
    fn observing_does_not_perturb_timing() {
        let sim = Simulator::new(GpuConfig::mobile_soc());
        let w = workload();
        let baseline = sim.run(&w);
        let cfg = GpuConfig::mobile_soc();
        let mut obs = ObsHooks::for_gpu(0, "group 0", &cfg, &ObserveOptions::default());
        let observed = sim.run_with_hooks(&w, &mut obs);
        assert_eq!(baseline, observed, "hooks must not change timing");
    }

    /// The value of counter `name` in `registry`.
    fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
        match registry.get(name) {
            Some(MetricKind::Counter(v)) => *v,
            other => panic!("{name} is not a counter: {other:?}"),
        }
    }

    #[test]
    fn histograms_and_counters_match_stats() {
        let cfg = GpuConfig::mobile_soc();
        let sim = Simulator::new(cfg.clone());
        let w = workload();
        let mut obs = ObsHooks::for_gpu(0, "g", &cfg, &ObserveOptions::default());
        let stats = sim.run_with_hooks(&w, &mut obs);
        assert_eq!(obs.warps_launched, 8, "256 threads / 32 lanes");
        assert_eq!(obs.warps_retired, obs.warps_launched, "every warp retires");
        assert_eq!(obs.warp_lifetime.count(), 8, "one lifetime per warp");
        assert_eq!(
            obs.phase_counts().iter().sum::<u64>(),
            stats.warp_issues,
            "every issued phase has one critical-path class"
        );
        assert_eq!(obs.mem_read_latency().count(), stats.reads);
        assert_eq!(
            obs.mem_read_latency().sum(),
            stats.read_latency_sum,
            "histogram sum equals the engine's own latency accumulator"
        );
        assert!(obs.rt_traversal_depth.count() > 0);
        assert!(obs.warp_lifetime.min() > 0, "no warp retires instantly");

        let mut reg = MetricsRegistry::new();
        obs.export(&stats, &mut reg);
        assert_eq!(counter(&reg, "l1_misses"), stats.l1_misses);
        assert_eq!(
            counter(&reg, "l1_hits") + counter(&reg, "l1_misses"),
            stats.l1_accesses
        );
        assert_eq!(
            counter(&reg, "l2_hits") + counter(&reg, "l2_misses"),
            stats.l2_accesses
        );
        assert_eq!(counter(&reg, "dram_transfers"), stats.dram_transactions);
        assert_eq!(
            counter(&reg, "dram_bytes"),
            stats.dram_transactions * u64::from(cfg.l1d.line_bytes)
        );
    }

    #[test]
    fn dram_transfers_include_stores() {
        // One warp: a load that misses to DRAM, then a store to another line.
        let w = ScriptedWorkload::uniform(
            32,
            vec![
                Op::Load {
                    addr: 1 << 16,
                    bytes: 4,
                },
                Op::Store {
                    addr: 1 << 18,
                    bytes: 4,
                },
            ],
        );
        let cfg = GpuConfig::mobile_soc();
        let mut obs = ObsHooks::for_gpu(0, "g", &cfg, &ObserveOptions::default());
        let stats = Simulator::new(cfg.clone()).run_with_hooks(&w, &mut obs);
        assert_eq!(stats.dram_transactions, 2, "the read miss and the store");
        let events = obs.take_timeline().expect("timeline on").finish();
        let transfers = events.iter().filter(|e| e.cat == "dram").count() as u64;
        assert_eq!(transfers, stats.dram_transactions, "one hook call each");
    }

    #[test]
    fn timeline_produces_a_valid_trace() {
        let cfg = GpuConfig::mobile_soc();
        let sim = Simulator::new(cfg.clone());
        let mut obs = ObsHooks::for_gpu(2, "group 2", &cfg, &ObserveOptions::default());
        sim.run_with_hooks(&workload(), &mut obs);
        let timeline = obs.take_timeline().expect("timeline enabled by default");
        assert!(obs.take_timeline().is_none(), "take leaves None");
        let trace = merge_trace(vec![timeline]);
        let n = validate_trace(&trace).expect("well-formed Chrome trace");
        assert!(n > 8, "metadata + events, got {n}");
        let has_rt_lane = trace
            .as_array()
            .unwrap()
            .iter()
            .any(|e| e.get("tid").and_then(Value::as_u64) == Some(lanes::RT_BASE as u64));
        assert!(has_rt_lane, "RT-unit lane must carry events");
    }

    #[test]
    fn timeline_disabled_records_no_events() {
        let cfg = GpuConfig::mobile_soc();
        let sim = Simulator::new(cfg.clone());
        let opts = ObserveOptions { timeline: false };
        let mut obs = ObsHooks::for_gpu(0, "g", &cfg, &opts);
        sim.run_with_hooks(&workload(), &mut obs);
        assert!(obs.take_timeline().is_none());
        assert!(obs.mem_read_latency().count() > 0, "histograms still on");
    }

    #[test]
    fn export_snapshot_is_deterministic() {
        let run = || {
            let cfg = GpuConfig::mobile_soc();
            let sim = Simulator::new(cfg.clone());
            let mut obs = ObsHooks::for_gpu(0, "g", &cfg, &ObserveOptions::default());
            let stats = sim.run_with_hooks(&workload(), &mut obs);
            let mut reg = MetricsRegistry::new();
            obs.export(&stats, &mut reg);
            reg.to_json().to_string()
        };
        let snapshot = run();
        assert_eq!(snapshot, run(), "fixed workload, byte-identical snapshot");
        assert!(snapshot.contains("mem_read_latency_cycles"));
        assert!(snapshot.contains("rt_traversal_depth_lines"));
    }
}
