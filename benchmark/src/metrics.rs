//! The metric catalogue: names, units, directions and regression bounds.
//!
//! `BENCHMARK.json` at the repository root mirrors these two tables; a
//! unit test keeps them equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression; end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// them; README.md says what an "operation" and a "pass" are on each.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("sim_mcycles_per_s", "Mcycle/s", Higher, 0.25),
    e2e("mae_pct", "%", Lower, 0.25),
    e2e("req_per_s", "1/s", Higher, 0.25),
    e2e("req_p50_ms", "ms", Lower, 0.25),
    e2e("req_p95_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Single-layer probes, reported by the traced run. A metric whose layer
/// a workload does not touch reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("rtcore.scene_build_ms", "ms", Lower),
    layer("rtcore.bvh_build_ms", "ms", Lower),
    layer("rtcore.bvh_nodes", "count", Lower),
    layer("rtcore.profile_costs_ms", "ms", Lower),
    layer("rtcore.profile_mpix_per_s", "Mpix/s", Higher),
    layer("rtcore.profile_work_units", "count", Lower),
    layer("zatel.heatmap_ms", "ms", Lower),
    layer("zatel.quantize_ms", "ms", Lower),
    layer("zatel.divide_ms", "ms", Lower),
    layer("zatel.select_ms", "ms", Lower),
    layer("zatel.extrapolate_us", "us", Lower),
    layer("zatel.traced_fraction", "ratio", Lower),
    layer("zatel.filtered_thread_share", "ratio", Higher),
    layer("zatel.group_sim_ms", "ms", Lower),
    layer("zatel.group_imbalance", "ratio", Lower),
    layer("zatel.execute_self_ms", "ms", Lower),
    layer("zatel.jobs2_speedup", "x", Higher),
    layer("zatel.speedup_serial", "x", Higher),
    layer("zatel.speedup_concurrent", "x", Higher),
    layer("zatel.mae_pct.PARK-mobile", "%", Lower),
    layer("zatel.mae_pct.BUNNY-mobile", "%", Lower),
    layer("zatel.mae_pct.BATH-mobile", "%", Lower),
    layer("zatel.mae_pct.PARK-rtx2060", "%", Lower),
    layer("zatel.mae_pct.SHIP-mobile", "%", Lower),
    layer("zatel.mae_pct.SPRNG-mobile", "%", Lower),
    layer("zatel.mae_pct.CHSNT-mobile", "%", Lower),
    layer("zatel.mae_pct.WKND-mobile", "%", Lower),
    layer("zatel.cache_mem_hit_us", "us", Lower),
    layer("zatel.cache_miss_put_ms", "ms", Lower),
    layer("zatel.cache_disk_hit_ms", "ms", Lower),
    layer("zatel.cache_disk_evictions", "count", Lower),
    layer("rtworkload.build_ms", "ms", Lower),
    layer("rtworkload.decode_drain_ms", "ms", Lower),
    layer("rtworkload.ops", "count", Lower),
    layer("rtworkload.mops_per_s", "Mop/s", Higher),
    layer("rtworkload.decode_share", "ratio", Lower),
    layer("gpusim.run_ms", "ms", Lower),
    layer("gpusim.mcycles_per_s", "Mcycle/s", Higher),
    layer("gpusim.us_per_phase", "us", Lower),
    layer("gpusim.commit_residual_ms", "ms", Lower),
    layer("gpusim.mem_read_ns", "ns", Lower),
    layer("gpusim.cache_probe_ns", "ns", Lower),
    layer("gpusim.dram_service_ns", "ns", Lower),
    layer("gpusim.sim_threads2_speedup", "x", Higher),
    layer("gpusim.timing_threads2_speedup", "x", Higher),
    layer("gpusim.sim_cycles", "count", Lower),
    layer("gpusim.instructions", "count", Lower),
    layer("gpusim.rt_warp_phases", "count", Lower),
    layer("gpusim.ipc", "ratio", Higher),
    layer("gpusim.l1_miss_rate", "ratio", Lower),
    layer("gpusim.l2_miss_rate", "ratio", Lower),
    layer("gpusim.dram_row_hit_rate", "ratio", Higher),
    layer("gpusim.dram_efficiency", "ratio", Higher),
    layer("gpusim.rt_efficiency", "ratio", Higher),
    layer("gpusim.bound_issue_share", "ratio", Lower),
    layer("gpusim.bound_compute_share", "ratio", Lower),
    layer("gpusim.bound_memory_share", "ratio", Lower),
    layer("gpusim.bound_rt_share", "ratio", Lower),
    layer("proto.request_parse_us", "us", Lower),
    layer("proto.response_render_us", "us", Lower),
    layer("proto.fingerprint_us", "us", Lower),
    layer("proto.response_bytes", "count", Lower),
    layer("minijson.parse_mb_per_s", "MB/s", Higher),
    layer("minijson.write_mb_per_s", "MB/s", Higher),
    layer("serve.execute_predict_hit_ms", "ms", Lower),
    layer("serve.http_overhead_ms", "ms", Lower),
    layer("serve.healthz_rtt_us", "us", Lower),
    layer("serve.hit_p50_ms", "ms", Lower),
    layer("serve.miss_p50_ms", "ms", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.refused_429", "count", Lower),
    layer("serve.queue_depth_peak", "count", Lower),
    layer("serve.coalesced", "count", Higher),
    layer("obs.observe_overhead_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// The end-to-end metric named `name`.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{parse_json, Json};
    use crate::workloads::WORKLOADS;

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("entry lacks string `{key}`"))
    }

    /// `BENCHMARK.json` must list exactly this catalogue and these
    /// workloads: it is what the driver reads, this is what the program
    /// prints.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .to_vec()
        };

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, def) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), def.name);
            assert_eq!(field(entry, "unit"), def.unit);
            assert_eq!(field(entry, "better"), def.better.as_str());
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, def) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), def.name);
            assert_eq!(field(entry, "unit"), def.unit);
            assert_eq!(field(entry, "better"), def.better.as_str());
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, def) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(entry, "name"), def.name);
            assert_eq!(field(entry, "why"), def.why);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
