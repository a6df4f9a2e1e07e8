//! Simulation statistics: the raw counters and the seven derived metrics of
//! the paper's Table I.

/// Raw counters accumulated during a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimStats {
    /// Total simulated core-clock cycles (time of the last retiring warp).
    pub cycles: u64,
    /// Scalar thread instructions executed.
    pub instructions: u64,
    /// Warp-instruction issue slots consumed.
    pub warp_issues: u64,
    /// L1D accesses summed over all SM instances.
    pub l1_accesses: u64,
    /// L1D misses summed over all SM instances.
    pub l1_misses: u64,
    /// L2 accesses summed over all slices.
    pub l2_accesses: u64,
    /// L2 misses summed over all slices.
    pub l2_misses: u64,
    /// RT-unit warp phases issued (one per warp visit to the RT unit).
    pub rt_warp_phases: u64,
    /// Sum of active rays over all RT warp phases.
    pub rt_active_rays: u64,
    /// DRAM data-transfer busy cycles summed over channels.
    pub dram_busy_cycles: u64,
    /// DRAM cycles with at least one pending request, summed over channels.
    pub dram_active_cycles: u64,
    /// Number of DRAM channels (needed to normalize bandwidth utilization).
    pub dram_channels: u32,
    /// Total DRAM transactions serviced.
    pub dram_transactions: u64,
    /// DRAM transactions that hit an open row.
    pub dram_row_hits: u64,
    /// Packets crossed through the interconnect.
    pub icnt_transfers: u64,
    /// Interconnect port-occupancy cycles.
    pub icnt_busy_cycles: u64,
    /// Threads launched.
    pub threads_launched: u64,
    /// Threads that were filtered out (exited via the pixel filter).
    pub threads_filtered: u64,
    /// Warp-phase cycles spent waiting for the issue port.
    pub bound_issue_cycles: u64,
    /// Warp-phase cycles whose critical path was ALU execution.
    pub bound_compute_cycles: u64,
    /// Warp-phase cycles whose critical path was LSU memory access.
    pub bound_memory_cycles: u64,
    /// Warp-phase cycles whose critical path was the RT unit (tests or
    /// BVH-data fetches).
    pub bound_rt_cycles: u64,
    /// Sum of read latencies in cycles (diagnostic).
    pub read_latency_sum: u64,
    /// Number of reads issued (diagnostic).
    pub reads: u64,
}

impl SimStats {
    /// Instructions per cycle over the whole GPU.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Total L1D miss rate over all instances.
    pub fn l1_miss_rate(&self) -> f64 {
        ratio(self.l1_misses, self.l1_accesses)
    }

    /// Total L2 miss rate over all instances.
    pub fn l2_miss_rate(&self) -> f64 {
        ratio(self.l2_misses, self.l2_accesses)
    }

    /// Average number of active rays per warp over all RT units.
    pub fn rt_efficiency(&self) -> f64 {
        ratio(self.rt_active_rays, self.rt_warp_phases)
    }

    /// DRAM bandwidth utilization while requests are pending
    /// (busy / active).
    pub fn dram_efficiency(&self) -> f64 {
        ratio(self.dram_busy_cycles, self.dram_active_cycles)
    }

    /// A CPI-stack-style breakdown of where warp-phase time went, as
    /// fractions of the total attributed cycles: `(issue, compute, memory,
    /// rt)`. Returns zeros before any phase has run.
    ///
    /// Analytical models like GCoM stop at this stack; this simulator
    /// provides it *and* the Table-I metrics.
    pub fn cpi_stack(&self) -> [(&'static str, f64); 4] {
        let total = (self.bound_issue_cycles
            + self.bound_compute_cycles
            + self.bound_memory_cycles
            + self.bound_rt_cycles) as f64;
        let share = |v: u64| if total > 0.0 { v as f64 / total } else { 0.0 };
        [
            ("issue", share(self.bound_issue_cycles)),
            ("compute", share(self.bound_compute_cycles)),
            ("memory", share(self.bound_memory_cycles)),
            ("rt", share(self.bound_rt_cycles)),
        ]
    }

    /// DRAM bandwidth utilization over the whole run
    /// (busy / (cycles × channels)).
    pub fn bandwidth_utilization(&self) -> f64 {
        if self.cycles == 0 || self.dram_channels == 0 {
            0.0
        } else {
            self.dram_busy_cycles as f64 / (self.cycles as f64 * self.dram_channels as f64)
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// `dram_channels` renders last, after every `u64` counter.
minijson::record! {
    SimStats {
        "cycles" => cycles,
        "instructions" => instructions,
        "warp_issues" => warp_issues,
        "l1_accesses" => l1_accesses,
        "l1_misses" => l1_misses,
        "l2_accesses" => l2_accesses,
        "l2_misses" => l2_misses,
        "rt_warp_phases" => rt_warp_phases,
        "rt_active_rays" => rt_active_rays,
        "dram_busy_cycles" => dram_busy_cycles,
        "dram_active_cycles" => dram_active_cycles,
        "dram_transactions" => dram_transactions,
        "dram_row_hits" => dram_row_hits,
        "icnt_transfers" => icnt_transfers,
        "icnt_busy_cycles" => icnt_busy_cycles,
        "threads_launched" => threads_launched,
        "threads_filtered" => threads_filtered,
        "bound_issue_cycles" => bound_issue_cycles,
        "bound_compute_cycles" => bound_compute_cycles,
        "bound_memory_cycles" => bound_memory_cycles,
        "bound_rt_cycles" => bound_rt_cycles,
        "read_latency_sum" => read_latency_sum,
        "reads" => reads,
        "dram_channels" => dram_channels,
    }
}

/// How per-group predictions are merged into a whole-GPU prediction
/// (paper Section III-H).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineRule {
    /// Sum across groups (rates of concurrent sub-GPUs add up, e.g. IPC).
    Sum,
    /// Average across groups (encapsulated ratios, e.g. cache miss rates).
    Average,
}

/// The seven metrics evaluated in the paper (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    /// GPU instructions per cycle.
    Ipc,
    /// GPU simulation cycles.
    SimCycles,
    /// L1D total cache miss rate.
    L1MissRate,
    /// L2 total cache miss rate.
    L2MissRate,
    /// RT unit average efficiency (active rays per warp).
    RtEfficiency,
    /// DRAM efficiency (busy / active).
    DramEfficiency,
    /// Bandwidth utilization (busy / total).
    BandwidthUtilization,
}

impl Metric {
    /// All seven metrics, in Table I order.
    pub const ALL: [Metric; 7] = [
        Metric::Ipc,
        Metric::SimCycles,
        Metric::L1MissRate,
        Metric::L2MissRate,
        Metric::RtEfficiency,
        Metric::DramEfficiency,
        Metric::BandwidthUtilization,
    ];

    /// The metric's position in [`Metric::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Ipc => "GPU IPC",
            Metric::SimCycles => "GPU Sim Cycles",
            Metric::L1MissRate => "L1D Miss Rate",
            Metric::L2MissRate => "L2 Miss Rate",
            Metric::RtEfficiency => "RT Avg Efficiency",
            Metric::DramEfficiency => "DRAM Efficiency",
            Metric::BandwidthUtilization => "BW Utilization",
        }
    }

    /// Extracts the metric's value from raw counters.
    pub fn value(self, stats: &SimStats) -> f64 {
        match self {
            Metric::Ipc => stats.ipc(),
            Metric::SimCycles => stats.cycles as f64,
            Metric::L1MissRate => stats.l1_miss_rate(),
            Metric::L2MissRate => stats.l2_miss_rate(),
            Metric::RtEfficiency => stats.rt_efficiency(),
            Metric::DramEfficiency => stats.dram_efficiency(),
            Metric::BandwidthUtilization => stats.bandwidth_utilization(),
        }
    }

    /// How this metric combines across Zatel's simulation groups.
    ///
    /// IPC sums: in the same cycle each sub-GPU retires its own
    /// instructions (the paper's 20 + 50 = 70 IPC example). Everything else
    /// — cycles, miss rates, efficiencies — is a per-group-encapsulated
    /// quantity and averages.
    pub(crate) fn combine_rule(self) -> CombineRule {
        match self {
            Metric::Ipc => CombineRule::Sum,
            _ => CombineRule::Average,
        }
    }

    /// Whether the metric is an absolute quantity that must be linearly
    /// extrapolated by the traced-pixel fraction (paper Section III-G).
    pub(crate) fn is_absolute(self) -> bool {
        matches!(self, Metric::SimCycles)
    }

    /// Extrapolates a group's metric value measured while tracing
    /// `fraction` of that group's pixels to an estimate for the full group.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn extrapolate(self, value: f64, fraction: f64) -> f64 {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "traced fraction must be in (0,1], got {fraction}"
        );
        if self.is_absolute() {
            value / fraction
        } else {
            value
        }
    }

    /// Combines per-group (already extrapolated) values into the final
    /// whole-GPU prediction.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn combine(self, values: &[f64]) -> f64 {
        assert!(!values.is_empty(), "need at least one group value");
        let sum: f64 = values.iter().sum();
        match self.combine_rule() {
            CombineRule::Sum => sum,
            CombineRule::Average => sum / values.len() as f64,
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// JSON tags are the variant names, matching the previous
// externally-derived encoding.
minijson::record! {
    enum Metric {
        Ipc => "Ipc",
        SimCycles => "SimCycles",
        L1MissRate => "L1MissRate",
        L2MissRate => "L2MissRate",
        RtEfficiency => "RtEfficiency",
        DramEfficiency => "DramEfficiency",
        BandwidthUtilization => "BandwidthUtilization",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> SimStats {
        SimStats {
            cycles: 1000,
            instructions: 2500,
            warp_issues: 200,
            l1_accesses: 100,
            l1_misses: 30,
            l2_accesses: 30,
            l2_misses: 15,
            rt_warp_phases: 10,
            rt_active_rays: 250,
            dram_busy_cycles: 400,
            dram_active_cycles: 800,
            dram_channels: 2,
            dram_transactions: 50,
            dram_row_hits: 25,
            icnt_transfers: 0,
            icnt_busy_cycles: 0,
            bound_issue_cycles: 10,
            bound_compute_cycles: 20,
            bound_memory_cycles: 50,
            bound_rt_cycles: 20,
            threads_launched: 64,
            threads_filtered: 0,
            read_latency_sum: 0,
            reads: 0,
        }
    }

    #[test]
    fn derived_metrics() {
        let s = sample_stats();
        assert_eq!(s.ipc(), 2.5);
        assert_eq!(s.l1_miss_rate(), 0.3);
        assert_eq!(s.l2_miss_rate(), 0.5);
        assert_eq!(s.rt_efficiency(), 25.0);
        assert_eq!(s.dram_efficiency(), 0.5);
        assert_eq!(s.bandwidth_utilization(), 0.2);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let s = SimStats::default();
        for m in Metric::ALL {
            assert_eq!(m.value(&s), 0.0, "{m}");
        }
    }

    #[test]
    fn metric_values_match_fields() {
        let s = sample_stats();
        assert_eq!(Metric::SimCycles.value(&s), 1000.0);
        assert_eq!(Metric::Ipc.value(&s), s.ipc());
    }

    #[test]
    fn paper_ipc_combining_example() {
        // Two groups: 20 IPC @ 0.70 L1 miss rate and 50 IPC @ 0.60.
        assert_eq!(Metric::Ipc.combine(&[20.0, 50.0]), 70.0);
        let l1 = Metric::L1MissRate.combine(&[0.70, 0.60]);
        assert!((l1 - 0.65).abs() < 1e-12);
    }

    #[test]
    fn paper_linear_extrapolation_example() {
        // 100,000 cycles tracing 10% of pixels → 1,000,000 predicted.
        let v = Metric::SimCycles.extrapolate(100_000.0, 0.1);
        assert_eq!(v, 1_000_000.0);
        // Ratio metrics pass through unchanged.
        assert_eq!(Metric::L2MissRate.extrapolate(0.4, 0.1), 0.4);
    }

    #[test]
    #[should_panic(expected = "traced fraction")]
    fn extrapolate_rejects_zero_fraction() {
        Metric::SimCycles.extrapolate(1.0, 0.0);
    }

    #[test]
    fn cpi_stack_shares_sum_to_one() {
        let s = sample_stats();
        let stack = s.cpi_stack();
        let total: f64 = stack.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(stack[2], ("memory", 0.5));
        let empty = SimStats::default();
        assert!(empty.cpi_stack().iter().all(|(_, v)| *v == 0.0));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, metric) in Metric::ALL.into_iter().enumerate() {
            assert_eq!(metric.index(), i, "{metric:?}");
        }
    }
}
