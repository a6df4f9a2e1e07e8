//! End-to-end tests of the `zatel` binary: spawn the real executable and
//! check its output and exit codes.

use std::process::Command;

fn zatel(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_zatel"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(args: &[&str]) -> String {
    let out = zatel(args);
    assert!(
        out.status.success(),
        "zatel {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn help_lists_subcommands() {
    let text = stdout(&["help"]);
    for needle in [
        "predict",
        "report",
        "heatmap",
        "scenes",
        "configs",
        "--reference",
        "--trace-out",
        "--run-out",
    ] {
        assert!(text.contains(needle), "help missing '{needle}'");
    }
}

#[test]
fn scenes_lists_all_eight() {
    let text = stdout(&["scenes"]);
    for name in [
        "PARK", "SHIP", "WKND", "BUNNY", "SPRNG", "CHSNT", "SPNZA", "BATH",
    ] {
        assert!(text.contains(name), "scenes missing {name}");
    }
}

#[test]
fn configs_emit_valid_json() {
    let text = stdout(&["configs"]);
    assert!(text.contains("Mobile SoC"));
    assert!(text.contains("RTX 2060"));
    // Two pretty-printed JSON documents, one per preset.
    let chunks: Vec<&str> = text.split("}\n{").collect();
    assert_eq!(chunks.len(), 2, "two config documents");
}

#[test]
fn predict_prints_all_metrics() {
    let text = stdout(&["predict", "--scene", "SPRNG", "--res", "32", "--spp", "1"]);
    for metric in [
        "GPU IPC",
        "GPU Sim Cycles",
        "L1D Miss Rate",
        "L2 Miss Rate",
        "RT Avg Efficiency",
        "DRAM Efficiency",
        "BW Utilization",
    ] {
        assert!(text.contains(metric), "predict missing '{metric}'");
    }
    assert!(text.contains("K = 4"), "Mobile SoC natural factor");
}

#[test]
fn predict_json_is_parseable() {
    let text = stdout(&[
        "predict",
        "--scene",
        "SPRNG",
        "--res",
        "32",
        "--spp",
        "1",
        "--json",
        "--reference",
    ]);
    let v = minijson::Value::parse(&text).expect("valid JSON");
    assert_eq!(
        v.get("scene").and_then(minijson::Value::as_str),
        Some("SPRNG")
    );
    let metric = |section: &str| {
        v.get(section)
            .and_then(|s| s.get("GPU Sim Cycles"))
            .and_then(minijson::Value::as_f64)
            .unwrap()
    };
    assert!(metric("prediction") > 0.0);
    assert!(metric("reference") > 0.0);
    assert!(v.get("mae").and_then(minijson::Value::as_f64).is_some());
    assert!(
        v.get("speedup_concurrent")
            .and_then(minijson::Value::as_f64)
            .unwrap()
            > 0.0
    );
}

#[test]
fn predict_accepts_custom_config_file() {
    let dir = std::env::temp_dir().join("zatel-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.json");
    let mut config = gpusim::GpuConfig::mobile_soc();
    config.name = "Tiny".into();
    config.num_sms = 2;
    config.num_mem_partitions = 2;
    config.l2.bytes = 1024 * 1024;
    std::fs::write(&path, minijson::ToJson::to_json(&config).to_string()).unwrap();
    let text = stdout(&[
        "predict",
        "--scene",
        "SPRNG",
        "--res",
        "32",
        "--spp",
        "1",
        "--config",
        path.to_str().unwrap(),
    ]);
    assert!(
        text.contains("K = 2"),
        "gcd(2,2)=2 for the custom config: {text}"
    );
}

#[test]
fn predict_progress_prints_group_lines_on_stderr() {
    let out = zatel(&[
        "predict",
        "--scene",
        "SPRNG",
        "--res",
        "32",
        "--spp",
        "1",
        "--jobs",
        "2",
        "--progress",
    ]);
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(err.contains("group 1/"), "per-group progress line: {err}");
    assert!(
        err.contains("phases (compute/memory/rt "),
        "phase counts shown: {err}"
    );
    assert!(
        err.contains("simulation wall"),
        "total sim wall shown: {err}"
    );
    // Progress is diagnostic output: none of it may leak into stdout.
    let text = String::from_utf8(out.stdout).expect("utf8 stdout");
    for leaked in ["group 1/", "phases (compute", "simulation wall"] {
        assert!(!text.contains(leaked), "'{leaked}' leaked to stdout");
    }
}

#[test]
fn predict_json_with_progress_keeps_stdout_pure_json() {
    let out = zatel(&[
        "predict",
        "--scene",
        "SPRNG",
        "--res",
        "32",
        "--spp",
        "1",
        "--json",
        "--progress",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8 stdout");
    minijson::Value::parse(&text).expect("stdout is a single valid JSON document");
    assert!(String::from_utf8_lossy(&out.stderr).contains("group 1/"));
}

#[test]
fn predict_json_reports_group_wall_times() {
    let text = stdout(&[
        "predict",
        "--scene",
        "SPRNG",
        "--res",
        "32",
        "--spp",
        "1",
        "--json",
        "--progress",
    ]);
    let v = minijson::Value::parse(&text).expect("valid JSON");
    assert!(
        v.get("sim_wall_ms")
            .and_then(minijson::Value::as_f64)
            .unwrap()
            >= 0.0
    );
    let groups = v
        .get("groups")
        .and_then(minijson::Value::as_array)
        .expect("groups array");
    assert!(!groups.is_empty());
    for g in groups {
        assert!(g.get("wall_ms").and_then(minijson::Value::as_f64).unwrap() >= 0.0);
        assert!(g.get("cycles").and_then(minijson::Value::as_u64).unwrap() > 0);
    }
    let warps_launched = v
        .get("metrics")
        .and_then(|m| m.get("warps_launched"))
        .and_then(|c| c.get("value"))
        .and_then(minijson::Value::as_u64)
        .expect("--progress observes the run");
    assert!(warps_launched > 0);
}

#[test]
fn predict_rejects_zero_jobs() {
    let out = zatel(&["predict", "--scene", "SPRNG", "--res", "32", "--jobs", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
}

#[test]
fn predict_no_downscale_and_percent() {
    let text = stdout(&[
        "predict",
        "--scene",
        "SPRNG",
        "--res",
        "32",
        "--spp",
        "1",
        "--no-downscale",
        "--percent",
        "0.5",
    ]);
    assert!(text.contains("K = 1"));
    assert!(
        text.contains("traced 5") || text.contains("traced 4"),
        "≈50%: {text}"
    );
}

#[test]
fn no_downscale_and_k_are_refused_together() {
    let run = [
        "--scene",
        "SPRNG",
        "--res",
        "32",
        "--k",
        "2",
        "--no-downscale",
    ];
    for args in [&["predict"][..], &["sweep", "--percents", "0.5"]] {
        let out = zatel(&[args, &run[..]].concat());
        assert!(!out.status.success(), "{args:?} accepted both");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--no-downscale replaces --k"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn unknown_scene_fails_cleanly() {
    let out = zatel(&["predict", "--scene", "NOPE"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scene"), "stderr: {err}");
}

#[test]
fn unknown_options_are_rejected() {
    // A misspelt switch must not silently drop what it asked for.
    let out = zatel(&[
        "predict",
        "--scene",
        "SPRNG",
        "--res",
        "32",
        "--spp",
        "1",
        "--refrence",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option '--refrence'"), "stderr: {err}");
    assert!(out.stdout.is_empty(), "nothing ran");

    // Keys no command reads are unknown too.
    let out = zatel(&["predict", "--scene", "SPRNG", "--qps", "5"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option '--qps'"), "stderr: {err}");

    // So are the keys only another command reads: nothing runs, and no
    // cache directory appears.
    let dir = std::env::temp_dir().join(format!("zatel-cli-unread-{}", std::process::id()));
    let dir = dir.to_str().expect("utf8 temp dir");
    for argv in [
        &[
            "predict",
            "--scene",
            "SPRNG",
            "--res",
            "32",
            "--cache-dir",
            dir,
        ][..],
        &[
            "heatmap", "--scene", "SPRNG", "--res", "8", "--spp", "2", "--out", dir,
        ],
        &["scenes", "--res", "8"],
    ] {
        let out = zatel(argv);
        assert!(!out.status.success(), "{argv:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown option"), "{argv:?}: {err}");
        assert!(out.stdout.is_empty(), "{argv:?}: nothing ran");
    }
    assert!(!std::path::Path::new(dir).exists(), "no directory created");
}

#[test]
fn unknown_subcommand_fails_cleanly() {
    let out = zatel(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn every_command_prints_its_usage_on_help() {
    let commands = [
        "scenes", "configs", "predict", "sweep", "serve", "report", "heatmap",
    ];
    for command in commands {
        for help in ["--help", "-h"] {
            // Anywhere after the command, even after other options.
            let text = stdout(&[command, "--json", help]);
            assert!(
                text.starts_with(&format!("usage: zatel {command}")),
                "zatel {command} {help}: {text}"
            );
            for other in commands.iter().filter(|&&c| c != command) {
                assert!(
                    !text.contains(&format!("usage: zatel {other}")),
                    "zatel {command} {help} prints only its own usage: {text}"
                );
            }
        }
    }
    let usage = stdout(&["sweep", "--help"]);
    assert!(usage.contains("--cache-dir DIR"), "{usage}");
    let out = zatel(&["frobnicate", "--help"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn bad_config_file_fails_cleanly() {
    let out = zatel(&["predict", "--config", "/nonexistent/cfg.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("reading config file"));
}

/// Runs `predict` with `mobile_soc()` edited by `edit` as its config file
/// and asserts the one-line error the engine would otherwise panic on.
fn assert_config_refused(file: &str, edit: impl FnOnce(&mut gpusim::GpuConfig), message: &str) {
    let dir = std::env::temp_dir().join("zatel-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    let mut config = gpusim::GpuConfig::mobile_soc();
    edit(&mut config);
    std::fs::write(&path, minijson::ToJson::to_json(&config).to_string()).unwrap();
    let out = zatel(&[
        "predict",
        "--scene",
        "SPRNG",
        "--res",
        "32",
        "--spp",
        "1",
        "--config",
        path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{file} accepted");
    assert_ne!(out.status.code(), Some(101), "{file} panicked: {stderr}");
    assert!(stderr.contains(message), "{file}: {stderr}");
    assert_eq!(stderr.trim().lines().count(), 1, "{file}: {stderr}");
}

#[test]
fn config_the_engine_cannot_build_fails_cleanly() {
    assert_config_refused(
        "zero-line.json",
        |c| (c.l1d.line_bytes, c.l2.line_bytes) = (0, 0),
        "line_bytes must be positive",
    );
    assert_config_refused("zero-rt.json", |c| c.rt_max_warps = 0, "rt_max_warps");
}

#[test]
fn image_too_small_for_k_groups_fails_cleanly() {
    for (args, message) in [
        (&["--res", "6"][..], "a 6x6 image divides into 3 chunk(s)"),
        (&["--res", "10", "--config", "rtx2060"], "K = 6"),
        (&["--res", "10", "--config", "turing"], "K = 6"),
        (&["--res", "1", "--division", "coarse"], "1 chunk(s)"),
        (
            &["--res", "2", "--division", "coarse", "--config", "rtx2060"],
            "4 chunk(s)",
        ),
    ] {
        let mut argv = vec!["predict", "--scene", "SPRNG", "--spp", "1"];
        argv.extend_from_slice(args);
        let out = zatel(&argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} accepted");
        assert_ne!(out.status.code(), Some(101), "{args:?} panicked: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert_eq!(stderr.trim().lines().count(), 1, "{args:?}: {stderr}");
    }
}

#[test]
fn predict_json_includes_pipeline_spans() {
    let text = stdout(&[
        "predict", "--scene", "SPRNG", "--res", "32", "--spp", "1", "--json",
    ]);
    let v = minijson::Value::parse(&text).expect("valid JSON");
    let spans = v
        .get("spans")
        .and_then(minijson::Value::as_array)
        .expect("spans array");
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(minijson::Value::as_str))
        .collect();
    for phase in [
        "heatmap",
        "quantize",
        "select",
        "simulate-groups",
        "extrapolate",
    ] {
        assert!(names.contains(&phase), "missing span '{phase}': {names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("group ")),
        "per-job group spans recorded: {names:?}"
    );
}

#[test]
fn trace_out_is_deterministic_and_schema_valid() {
    let dir = std::env::temp_dir().join("zatel-cli-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |name: &str, threads_env: Option<&str>| {
        let path = dir.join(name);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_zatel"));
        cmd.args(["predict", "--scene", "SPRNG", "--res", "32", "--spp", "1"])
            .args(["--seed", "7", "--trace-out", path.to_str().unwrap()]);
        if let Some(n) = threads_env {
            cmd.env("ZATEL_SIM_THREADS", n)
                .env("ZATEL_TIMING_THREADS", n);
        }
        let out = cmd.output().expect("binary runs");
        assert!(out.status.success(), "predict failed: {out:?}");
        std::fs::read(&path).expect("trace written")
    };
    let a = run("a.json", None);
    // The second process also carries the environment variables of the
    // removed intra-simulation thread knobs: they are simply unread.
    let b = run("b.json", Some("4"));
    assert_eq!(a, b, "fixed-seed traces are byte-identical");

    // Chrome trace format: an array of objects, each with at least
    // name / ph / ts / pid / tid.
    let trace = minijson::Value::parse(std::str::from_utf8(&a).unwrap()).expect("valid JSON");
    let events = trace.as_array().expect("top-level array");
    assert!(!events.is_empty());
    for ev in events {
        assert!(ev.as_object().is_some(), "event is an object");
        assert!(ev.get("name").and_then(minijson::Value::as_str).is_some());
        let ph = ev.get("ph").and_then(minijson::Value::as_str).unwrap();
        assert_eq!(ph.chars().count(), 1, "ph is a single phase character");
        for key in ["ts", "pid", "tid"] {
            assert!(ev.get(key).and_then(|v| v.as_f64()).is_some(), "{key}");
        }
    }
    // At least one SM duration slice and one metadata record.
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(minijson::Value::as_str) == Some("X")));
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(minijson::Value::as_str) == Some("M")));
}

#[test]
fn run_out_metrics_are_deterministic() {
    let dir = std::env::temp_dir().join("zatel-cli-run-det");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |name: &str| {
        let path = dir.join(name);
        stdout(&[
            "predict",
            "--scene",
            "SPRNG",
            "--res",
            "32",
            "--spp",
            "1",
            "--seed",
            "7",
            "--run-out",
            path.to_str().unwrap(),
        ]);
        let text = std::fs::read_to_string(&path).expect("run record written");
        let run = minijson::Value::parse(&text).expect("valid JSON");
        let response = run.get("response").expect("response section");
        response
            .get("metrics")
            .expect("metrics section")
            .to_string()
    };
    assert_eq!(
        run("a.json"),
        run("b.json"),
        "fixed-seed metrics snapshots are byte-identical"
    );
}

#[test]
fn report_renders_run_record_and_appends_history() {
    let dir = std::env::temp_dir().join("zatel-cli-report");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run_path = dir.join("run.json");
    let history = dir.join("runs.jsonl");
    let pgm = dir.join("heatmap.pgm");
    let prom = dir.join("metrics.prom");
    stdout(&[
        "predict",
        "--scene",
        "SPRNG",
        "--res",
        "32",
        "--spp",
        "1",
        "--reference",
        "--run-out",
        run_path.to_str().unwrap(),
    ]);

    let report = |args: &[&str]| {
        stdout(
            &[
                &[
                    "report",
                    "--run",
                    run_path.to_str().unwrap(),
                    "--history",
                    history.to_str().unwrap(),
                ],
                args,
            ]
            .concat(),
        )
    };
    let text = report(&[
        "--pgm",
        pgm.to_str().unwrap(),
        "--prom",
        prom.to_str().unwrap(),
    ]);
    assert!(text.contains("zatel run: scene SPRNG"));
    assert!(text.contains("per-group results"));
    assert!(text.contains("pipeline spans"));
    assert!(text.contains("simulation metrics"));
    assert!(text.contains("mem_read_latency_cycles"));
    assert!(text.contains("predicted vs reference"));
    assert!(text.contains("MAE ="));

    // Each report invocation appends exactly one summary line.
    report(&[]);
    let lines: Vec<String> = std::fs::read_to_string(&history)
        .expect("history written")
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(lines.len(), 2);
    for line in &lines {
        let v = minijson::Value::parse(line).expect("history line is JSON");
        assert_eq!(
            v.get("scene").and_then(minijson::Value::as_str),
            Some("SPRNG")
        );
    }

    let pgm_bytes = std::fs::read(&pgm).expect("pgm written");
    assert!(
        pgm_bytes.starts_with(b"P5\n32 32\n255\n"),
        "full-res execution-time heatmap as PGM"
    );
    assert_eq!(pgm_bytes.len(), b"P5\n32 32\n255\n".len() + 32 * 32);

    let prom_text = std::fs::read_to_string(&prom).expect("prom written");
    assert!(prom_text.contains("# TYPE zatel_warps_launched counter"));
    assert!(prom_text.contains("zatel_mem_read_latency_cycles_count"));
}

#[test]
fn report_rejects_missing_and_malformed_records() {
    let out = zatel(&["report"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--run"));

    let dir = std::env::temp_dir().join("zatel-cli-report-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema\": \"not-a-run\"}").unwrap();
    let out = zatel(&["report", "--run", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unsupported schema 'not-a-run'"), "{err}");
    assert!(err.contains("--run-out"), "hints at re-recording: {err}");
}

#[test]
fn sweep_matrix_appends_runs_and_warm_cache_agrees() {
    let dir = std::env::temp_dir().join("zatel-cli-sweep");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache");
    let runs = dir.join("runs.jsonl");
    let sweep = || {
        stdout(&[
            "sweep",
            "--scene",
            "SPRNG",
            "--res",
            "32",
            "--spp",
            "1",
            "--seed",
            "7",
            "--ks",
            "1,2",
            "--percents",
            "0.5",
            "--json",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--runs-out",
            runs.to_str().unwrap(),
        ])
    };
    let cold = minijson::Value::parse(&sweep()).expect("valid JSON");
    let warm = minijson::Value::parse(&sweep()).expect("valid JSON");

    let points = |v: &minijson::Value| -> Vec<minijson::Value> {
        v.get("points")
            .and_then(minijson::Value::as_array)
            .expect("points array")
            .to_vec()
    };
    let (cold_pts, warm_pts) = (points(&cold), points(&warm));
    assert_eq!(cold_pts.len(), 2, "K=1,2 × p=0.5 matrix");
    for (c, w) in cold_pts.iter().zip(&warm_pts) {
        assert_eq!(
            c.get("schema").and_then(minijson::Value::as_str),
            Some("zatel-sweep-v1")
        );
        // The warm run serves preprocessing from the on-disk cache yet
        // predicts byte-identical statistics.
        assert_eq!(
            c.get("prediction").unwrap().to_string(),
            w.get("prediction").unwrap().to_string(),
            "warm-cache predictions identical"
        );
        assert_eq!(
            c.get("label").and_then(minijson::Value::as_str),
            w.get("label").and_then(minijson::Value::as_str)
        );
    }
    let heatmap_outcome = |v: &minijson::Value| -> String {
        v.get("cache")
            .and_then(minijson::Value::as_array)
            .expect("cache records")
            .iter()
            .find(|r| r.get("stage").and_then(minijson::Value::as_str) == Some("heatmap"))
            .and_then(|r| r.get("outcome").and_then(minijson::Value::as_str))
            .expect("heatmap outcome")
            .to_owned()
    };
    // Within a run the driver plans points in order, so only the first
    // point computes the heatmap and later points see memory hits; the
    // warm process never recomputes (its first point loads from disk).
    assert_eq!(heatmap_outcome(&cold_pts[0]), "miss");
    assert_eq!(heatmap_outcome(&cold_pts[1]), "memory");
    assert_eq!(heatmap_outcome(&warm_pts[0]), "disk");
    assert_eq!(heatmap_outcome(&warm_pts[1]), "memory");

    let lines: Vec<String> = std::fs::read_to_string(&runs)
        .expect("runs.jsonl written")
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(lines.len(), 4, "two sweeps × two points");
    for line in &lines {
        let v = minijson::Value::parse(line).expect("runs line is JSON");
        assert_eq!(
            v.get("scene").and_then(minijson::Value::as_str),
            Some("SPRNG")
        );
    }

    let history = stdout(&["report", "--history", runs.to_str().unwrap()]);
    assert!(history.contains("4 recorded runs"), "{history}");
    assert!(history.contains("K=1 p=50%"), "{history}");
}

#[test]
fn sweep_accepts_spec_file_and_rejects_missing_matrix() {
    let dir = std::env::temp_dir().join("zatel-cli-sweep-spec");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, r#"{"points": [{"label": "half", "percent": 0.5}]}"#).unwrap();
    let text = stdout(&[
        "sweep",
        "--scene",
        "SPRNG",
        "--res",
        "32",
        "--spp",
        "1",
        "--spec",
        spec.to_str().unwrap(),
        "--json",
    ]);
    let v = minijson::Value::parse(&text).expect("valid JSON");
    let points = v.get("points").and_then(minijson::Value::as_array).unwrap();
    assert_eq!(points.len(), 1);
    assert_eq!(
        points[0].get("label").and_then(minijson::Value::as_str),
        Some("half")
    );

    let out = zatel(&["sweep", "--scene", "SPRNG", "--res", "32"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--ks"), "stderr names the matrix flags: {err}");
}

/// Boots an in-process `zatel serve` on an ephemeral port and returns
/// the `--url` value plus a drain handle / join handle pair.
fn boot_server() -> (
    String,
    zatel_serve::server::ServeHandle,
    std::thread::JoinHandle<Result<zatel_serve::server::ServeReport, String>>,
) {
    let config = zatel_serve::server::ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..zatel_serve::server::ServeConfig::default()
    };
    let server = zatel_serve::server::Server::bind(config).expect("bind");
    let url = format!("http://{}", server.local_addr().expect("addr"));
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (url, handle, join)
}

#[test]
fn predict_url_output_is_identical_to_local() {
    let (url, handle, join) = boot_server();
    let base = [
        "predict", "--scene", "SPRNG", "--res", "32", "--spp", "1", "--seed", "7",
    ];
    // Without --reference the text table carries no wall-clock-derived
    // numbers, so local and served output must match to the byte.
    let local = stdout(&base);
    let remote = stdout(&[&base, &["--url", url.as_str()][..]].concat());
    assert_eq!(
        local, remote,
        "text output must be byte-identical between local and --url mode"
    );

    // JSON + --reference: compare the deterministic subset (wall clocks
    // and the speedup derived from them legitimately differ).
    let with_ref = [&base, &["--reference"][..]].concat();
    let local_json = stdout(&[&with_ref, &["--json"][..]].concat());
    let remote_json = stdout(&[&with_ref, &["--json", "--url", url.as_str()][..]].concat());
    let deterministic = |text: &str| {
        let v = minijson::Value::parse(text).expect("valid JSON");
        <zatel_proto::PredictResponse as minijson::FromJson>::from_json(&v)
            .expect("zatel-api-v1 response")
            .deterministic_json()
            .to_string()
    };
    assert_eq!(deterministic(&local_json), deterministic(&remote_json));

    handle.shutdown();
    join.join().expect("server thread").expect("clean run");
}

#[test]
fn sweep_url_matches_local_points() {
    let (url, handle, join) = boot_server();
    let base = [
        "sweep",
        "--scene",
        "SPRNG",
        "--res",
        "32",
        "--spp",
        "1",
        "--seed",
        "7",
        "--ks",
        "1,2",
        "--percents",
        "0.5",
        "--json",
    ];
    let prediction_of = |text: &str| -> Vec<String> {
        minijson::Value::parse(text)
            .expect("valid JSON")
            .get("points")
            .and_then(minijson::Value::as_array)
            .expect("points")
            .iter()
            .map(|p| p.get("prediction").expect("prediction").to_string())
            .collect()
    };
    let local = prediction_of(&stdout(&base));
    let remote = prediction_of(&stdout(&[&base, &["--url", url.as_str()][..]].concat()));
    assert_eq!(local, remote, "served sweep predictions match local ones");

    handle.shutdown();
    join.join().expect("server thread").expect("clean run");
}

#[test]
fn predict_url_rejects_local_only_flags_and_bad_urls() {
    let out = zatel(&[
        "predict",
        "--scene",
        "SPRNG",
        "--url",
        "http://127.0.0.1:1",
        "--progress",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--progress"));

    let out = zatel(&["predict", "--scene", "SPRNG", "--url", "ftp://nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("http://"));
}

#[test]
fn serve_rejects_zero_workers() {
    let out = zatel(&["serve", "--addr", "127.0.0.1:0", "--workers", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("worker"));
    // A zero job cap is refused at boot too, before any client could be
    // answered 400 for it.
    let out = zatel(&["serve", "--addr", "127.0.0.1:0", "--sim-jobs", "0"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--sim-jobs") && !err.contains("listening"),
        "{err}"
    );
}

#[test]
fn help_mentions_serve_and_url() {
    let text = stdout(&["help"]);
    for needle in ["serve", "--url", "--workers", "--queue", "--deadline-ms"] {
        assert!(text.contains(needle), "help missing '{needle}'");
    }
}

#[test]
fn heatmap_writes_ppm_files() {
    let dir = std::env::temp_dir().join("zatel-cli-heatmaps");
    let _ = std::fs::remove_dir_all(&dir);
    let text = stdout(&[
        "heatmap",
        "--scene",
        "SPRNG",
        "--res",
        "24",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(text.contains("wrote"));
    for f in ["heatmap.ppm", "heatmap_quantized.ppm"] {
        let p = dir.join(f);
        let bytes = std::fs::read(&p).unwrap_or_else(|_| panic!("{f} missing"));
        assert!(
            bytes.starts_with(b"P6\n24 24\n255\n"),
            "{f} has a valid PPM header"
        );
    }
}
