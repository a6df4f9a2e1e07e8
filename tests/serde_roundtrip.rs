//! JSON round-trip tests for the data-structure types (C-SERDE): configs
//! and statistics survive JSON serialization unchanged, which the CLI's
//! custom-config files and the bench harness's result files rely on.
//!
//! Serialization goes through the workspace's `minijson` crate (the build
//! environment is offline, so serde/serde_json are unavailable); each
//! record declares its JSON once with `minijson::record!`.

use minijson::{FromJson, ToJson, Value};
use zatel_suite::prelude::*;

/// Serializes to a JSON string and parses back, like the old
/// `serde_json::from_str(&serde_json::to_string(..))` pattern.
fn roundtrip<T: ToJson + FromJson>(value: &T) -> T {
    let text = value.to_json().to_string();
    let parsed = Value::parse(&text).expect("printer emits valid JSON");
    T::from_json(&parsed).expect("deserialize")
}

#[test]
fn gpu_config_roundtrips() {
    for config in [GpuConfig::mobile_soc(), GpuConfig::rtx_2060()] {
        let back = roundtrip(&config);
        assert_eq!(config, back);
        back.validate().expect("still valid");
    }
}

#[test]
fn modified_config_roundtrips() {
    let mut config = GpuConfig::rtx_2060();
    config.name = "Custom".into();
    config.num_sms = 60;
    config.rt_lanes_per_cycle = 16;
    assert_eq!(config, roundtrip(&config));
}

#[test]
fn sim_stats_roundtrip() {
    let scene = SceneId::Sprng.build(1);
    let trace = TraceConfig {
        samples_per_pixel: 1,
        max_bounces: 2,
        seed: 3,
    };
    let stats =
        Simulator::new(GpuConfig::mobile_soc()).run(&RtWorkload::full_frame(&scene, 16, 16, trace));
    let back = roundtrip(&stats);
    assert_eq!(stats, back);
    assert_eq!(stats.ipc(), back.ipc());
}

#[test]
fn trace_config_roundtrip() {
    let t = TraceConfig {
        samples_per_pixel: 4,
        max_bounces: 7,
        seed: 0xDEADBEEF,
    };
    assert_eq!(t, roundtrip(&t));
}

#[test]
fn metric_enum_roundtrip() {
    for m in Metric::ALL {
        assert_eq!(m, roundtrip(&m));
    }
}

/// `zatel configs` output before Table II's unmodeled values (registers,
/// RT units per SM, RT-unit MSHR, issue width, both clocks) left
/// `GpuConfig`: config files written from it still carry those keys.
const CONFIGS_WITH_REMOVED_KEYS: [&str; 2] = [
    r#"{
  "name": "Mobile SoC",
  "num_sms": 8,
  "num_mem_partitions": 4,
  "max_warps_per_sm": 32,
  "warp_size": 32,
  "registers_per_sm": 32768,
  "rt_units_per_sm": 1,
  "rt_max_warps": 4,
  "rt_mshr_size": 64,
  "rt_lanes_per_cycle": 4,
  "l1d": {
    "bytes": 65536,
    "ways": 0,
    "line_bytes": 128,
    "latency": 20
  },
  "l2": {
    "bytes": 3145728,
    "ways": 16,
    "line_bytes": 128,
    "latency": 160
  },
  "interconnect_latency": 8,
  "interconnect_bytes_per_cycle": 32.0,
  "dram_latency": 100,
  "dram_bytes_per_cycle": 16.0,
  "issue_width": 1,
  "core_clock_mhz": 1365,
  "memory_clock_mhz": 3500
}"#,
    r#"{
  "name": "RTX 2060",
  "num_sms": 30,
  "num_mem_partitions": 12,
  "max_warps_per_sm": 32,
  "warp_size": 32,
  "registers_per_sm": 65536,
  "rt_units_per_sm": 1,
  "rt_max_warps": 4,
  "rt_mshr_size": 64,
  "rt_lanes_per_cycle": 4,
  "l1d": {
    "bytes": 65536,
    "ways": 0,
    "line_bytes": 128,
    "latency": 20
  },
  "l2": {
    "bytes": 3145728,
    "ways": 16,
    "line_bytes": 128,
    "latency": 160
  },
  "interconnect_latency": 8,
  "interconnect_bytes_per_cycle": 32.0,
  "dram_latency": 100,
  "dram_bytes_per_cycle": 16.0,
  "issue_width": 1,
  "core_clock_mhz": 1365,
  "memory_clock_mhz": 3500
}"#,
];

#[test]
fn pretty_printed_config_parses_too() {
    let config = GpuConfig::mobile_soc();
    let pretty = config.to_json().pretty();
    let parsed = Value::parse(&pretty).expect("pretty output is valid JSON");
    assert_eq!(GpuConfig::from_json(&parsed).unwrap(), config);

    // Removed keys are unknown fields now, which the decoder ignores.
    let presets = [GpuConfig::mobile_soc(), GpuConfig::rtx_2060()];
    for (text, preset) in CONFIGS_WITH_REMOVED_KEYS.iter().zip(presets) {
        assert!(text.contains("\"rt_mshr_size\": 64"), "{text}");
        let parsed = Value::parse(text).expect("valid JSON");
        assert_eq!(GpuConfig::from_json(&parsed).expect("decodes"), preset);
    }
}

#[test]
fn downscale_mode_roundtrips() {
    use zatel::DownscaleMode;
    for mode in [
        DownscaleMode::Natural,
        DownscaleMode::NoDownscale,
        DownscaleMode::Factor(4),
    ] {
        assert_eq!(mode, roundtrip(&mode));
    }
    // Factor(1) normalizes to NoDownscale on the way back in (they are
    // the same pipeline).
    assert_eq!(
        roundtrip(&DownscaleMode::Factor(1)),
        DownscaleMode::NoDownscale
    );
}

#[test]
fn division_and_distribution_roundtrip() {
    use zatel::{Distribution, DivisionMethod};
    for division in [
        DivisionMethod::Coarse,
        DivisionMethod::default_fine(),
        DivisionMethod::Fine {
            chunk_width: 16,
            chunk_height: 4,
        },
    ] {
        assert_eq!(division, roundtrip(&division));
    }
    for dist in [
        Distribution::Uniform,
        Distribution::LinTmp,
        Distribution::ExpTmp,
    ] {
        assert_eq!(dist, roundtrip(&dist));
    }
}

#[test]
fn selection_options_roundtrip() {
    use zatel::{Distribution, SelectionOptions};
    let mut opts = SelectionOptions::default();
    assert_eq!(opts, roundtrip(&opts));
    opts.distribution = Distribution::ExpTmp;
    opts.clamp = (0.15, 0.85);
    opts.percent_override = Some(0.4);
    opts.percent_cap = Some(0.9);
    opts.seed = 0xC0FFEE;
    assert_eq!(opts, roundtrip(&opts));
}

#[test]
fn zatel_options_roundtrip() {
    use zatel::{DivisionMethod, DownscaleMode, ZatelOptions};
    let mut opts = ZatelOptions::default();
    assert_eq!(opts, roundtrip(&opts));
    opts.division = DivisionMethod::Coarse;
    opts.quant_colors = 12;
    opts.downscale = DownscaleMode::Factor(3);
    opts.parallel = false;
    opts.jobs = Some(5);
    opts.observe = Some(obs::ObserveOptions { timeline: true });
    assert_eq!(opts, roundtrip(&opts));
}

#[test]
fn sweep_spec_roundtrip() {
    use zatel::{DownscaleMode, SweepPointSpec, SweepSpec};
    let mut spec = SweepSpec::matrix(&[1, 2, 4], &[0.1, 0.5]);
    spec.points.push(SweepPointSpec {
        downscale: Some(DownscaleMode::Natural),
        clamp: Some((0.2, 0.7)),
        ..SweepPointSpec::named("clamped natural")
    });
    assert_eq!(spec, roundtrip(&spec));

    // A bare array with no labels parses too; labels are derived.
    let parsed =
        SweepSpec::from_json(&Value::parse(r#"[{"percent": 0.3}, {"downscale": 2}]"#).unwrap())
            .expect("bare array spec");
    assert_eq!(parsed.points.len(), 2);
    assert_eq!(parsed.points[0].label, "p=30%");
    assert_eq!(parsed.points[1].label, "K=2");
}

#[test]
fn prediction_records_roundtrip() {
    use zatel_proto::{ConfigRef, PointRecord, PredictRequest, PredictResponse, RunRecord};
    let scene = SceneId::Sprng.build(1);
    let trace = TraceConfig {
        samples_per_pixel: 1,
        max_bounces: 4,
        seed: 3,
    };
    let mut request = PredictRequest::new("SPRNG", ConfigRef::preset("mobile"));
    request.res = 16;
    request.spp = 1;
    request.seed = 3;
    request.reference = true;
    let zatel = Zatel::new(&scene, GpuConfig::mobile_soc(), 16, 16, trace);
    let prediction = zatel.run().expect("prediction runs");
    let reference = zatel.run_reference();

    for record in &prediction.cache {
        assert_eq!(record, &roundtrip(record));
    }
    let response =
        PredictResponse::new(&request, scene.name(), &prediction, Some(&reference), None);
    let point = PointRecord::new(zatel::SweepPointSpec::named("predict"), &response);
    assert_eq!(point, roundtrip(&point));
    let run = RunRecord {
        request,
        response,
        heatmap: prediction.heatmap.as_ref().clone(),
    };
    assert_eq!(run, roundtrip(&run));
}
