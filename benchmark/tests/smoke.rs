//! Drives the real binary over all four workloads at the smoke sizes
//! (32², one pass, 40 requests), untraced and traced, child processes and
//! thread-knob probes included, and checks the contract's result lines.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_zatel-benchmark");
const WORKLOADS: usize = 4;
const END_TO_END: usize = 8;
const PER_LAYER: usize = 75;

fn run(args: &[&str]) -> (bool, String) {
    let output = Command::new(EXE)
        .args(args)
        // A knob left in the caller's environment must be scrubbed, not obeyed.
        .env("ZATEL_SIM_THREADS", "2")
        .output()
        .expect("the benchmark binary starts");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// The last `WORKLOADS` lines are result lines: one JSON object each with
/// `correct`, `attempted`, `failed` and one entry per catalogue metric.
fn check_result_lines(stdout: &str, metrics: usize) {
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() > WORKLOADS, "{stdout}");
    for line in &lines[lines.len() - WORKLOADS..] {
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":"),
            "{line}"
        );
        assert!(line.contains(",\"failed\":0,\"metrics\":{"), "{line}");
        assert_eq!(line.matches("\"unit\":").count(), metrics, "{line}");
        assert!(!line.contains("null") && !line.contains("NaN"), "{line}");
    }
}

#[test]
fn smoke_runs_every_workload_and_check() {
    let started = std::time::Instant::now();
    let (ok, untraced) = run(&["run", "--smoke", "--seed", "42", "--trace", "0"]);
    assert!(ok, "{untraced}");
    check_result_lines(&untraced, END_TO_END);
    for name in ["predict-heavy", "predict-light", "full-sim", "serve-mix"] {
        assert!(untraced.contains(&format!("{name} wall_s ")), "{untraced}");
    }

    let (ok, traced) = run(&["run", "--smoke", "--seed", "7", "--traced"]);
    assert!(ok, "{traced}");
    check_result_lines(&traced, PER_LAYER);
    assert!(
        traced.contains("full-sim gpusim.sim_threads2_speedup "),
        "{traced}"
    );
    assert!(
        started.elapsed().as_secs() < 60,
        "the smoke pass must stay short"
    );

    // A run compared with itself regresses nowhere.
    let file = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/out/result-all-seed7-traced.json"
    );
    let (ok, verdicts) = run(&["compare", file, file]);
    assert!(ok, "{verdicts}");
    assert!(verdicts.contains("serve-mix req_per_s "), "{verdicts}");
    assert!(
        verdicts.contains("predict-heavy model-counts identical"),
        "{verdicts}"
    );
    assert!(!verdicts.contains("regressed"), "{verdicts}");

    let (ok, _) = run(&["run", "--workload", "no-such-workload", "--smoke"]);
    assert!(!ok, "an unknown workload must exit non-zero");
}
