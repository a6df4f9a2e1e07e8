//! `zatel-benchmark`: runs the repository's benchmark workloads, checks
//! their outputs and prints every metric. See `README.md` beside
//! `Cargo.toml` for what is measured and why.
//!
//! ```text
//! zatel-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]
//! zatel-benchmark compare A.json B.json
//! zatel-benchmark describe          # prints BENCHMARK.json from the catalogue
//! ```

mod calibrate;
mod in_process;
mod layers;
mod metrics;
mod report;
mod serve_mix;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::Stamp;
use workloads::{RunArgs, Sizing, WorkloadResult, WORKLOADS};

const USAGE: &str = "usage:
  zatel-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]
  zatel-benchmark compare A.json B.json
  zatel-benchmark describe
workloads: predict-heavy predict-light full-sim serve-mix (default: all four, in that order)";

/// `run`'s options, shared with the `child` and `probe-pass` subcommands
/// the runner invokes on itself.
#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            workload: None,
            seed: 42,
            seconds: f64::from(report::RUN_SECONDS),
            trace: false,
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
            };
            match flag.as_str() {
                "--workload" => options.workload = Some(value()?.clone()),
                "--seed" => {
                    options.seed = value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number".to_owned())?;
                }
                "--seconds" => {
                    options.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds takes a positive number")?;
                }
                "--trace" => {
                    options.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_owned()),
                    };
                }
                "--traced" => options.trace = true,
                "--smoke" => options.smoke = true,
                other => return Err(format!("unknown option '{other}'\n{USAGE}")),
            }
        }
        Ok(options)
    }

    fn sizing(&self) -> Sizing {
        if self.smoke {
            Sizing::SMOKE
        } else {
            Sizing::FULL
        }
    }

    /// The arguments that make a child run the same sizes.
    fn size_args(&self) -> Vec<String> {
        if self.smoke {
            vec!["--smoke".to_owned()]
        } else {
            Vec::new()
        }
    }
}

/// `benchmark/out`, beside this package's manifest: results, traces and
/// temporary cache directories all stay inside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// First line of `program args...`'s standard output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs one workload in a child process of this executable and reads its
/// one-line result back.
fn run_child(exe: &Path, workload: &str, options: &Options) -> Result<WorkloadResult, String> {
    let output = Command::new(exe)
        .arg("child")
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .args(options.size_args())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "the {workload} child exited with {}",
            output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("the {workload} child printed nothing"))?;
    report::parse_workload(&layers::parse_json(line)?)
}

fn run(options: &Options) -> Result<bool, String> {
    // Numbers from an unoptimised build would be committed as a baseline
    // by mistake sooner or later; the smoke sizes report none worth keeping.
    if cfg!(debug_assertions) && !options.smoke {
        return Err("refusing to measure a build with debug assertions; \
                    use `cargo run --release` (or `--smoke`)"
            .to_owned());
    }
    // Scrub before anything else runs, while this is the only thread: the
    // pipeline reads ZATEL_SIM_THREADS / ZATEL_TIMING_THREADS, and a value
    // left in the caller's shell must not reach a measured child.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ZATEL_") {
            std::env::remove_var(&key);
        }
    }
    let names: Vec<&str> = match &options.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut results = Vec::with_capacity(names.len());
    for name in names {
        let parsed = run_child(&exe, name, options)?;
        report::print_table(&parsed);
        results.push(parsed);
    }

    let stamp = Stamp {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        rustc: first_line("rustc", &["-V"]),
        git_commit: first_line("git", &["rev-parse", "HEAD"]),
        seed: options.seed,
        seconds: options.seconds,
        traced: options.trace,
        sizing: if options.smoke { "smoke" } else { "full" },
    };
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let file = out.join(format!(
        "result-{}-seed{}{}.json",
        options.workload.as_deref().unwrap_or("all"),
        options.seed,
        if options.trace { "-traced" } else { "" }
    ));
    std::fs::write(&file, report::run_json(&stamp, &results))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!("# result file: {}", file.display());

    for parsed in &results {
        println!("{}", report::contract_line(parsed, options.trace));
    }
    Ok(results.iter().all(|r| r.failed == 0))
}

fn child(options: &Options) -> Result<(), String> {
    let workload = options.workload.clone().ok_or("child needs --workload")?;
    let args = RunArgs {
        workload,
        seed: options.seed,
        seconds: options.seconds,
        trace: options.trace,
        sizing: options.sizing(),
        out_dir: out_dir(),
        exe: std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?,
        exe_args: options.size_args(),
    };
    let result = workloads::run_workload(&args)?;
    println!("{}", report::workload_json(&result));
    Ok(())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" => run(&Options::parse(rest)?),
        "child" => child(&Options::parse(rest)?).map(|()| true),
        "probe-pass" => {
            let options = Options::parse(rest)?;
            let workload = options
                .workload
                .as_deref()
                .ok_or("probe-pass needs --workload")?;
            println!(
                "{}",
                in_process::probe_pass(workload, options.seed, &options.sizing())?
            );
            Ok(true)
        }
        "describe" => {
            print!("{}", report::benchmark_json());
            Ok(true)
        }
        "compare" => match rest {
            [a, b] => report::compare(a, b).map(|regressed| !regressed),
            _ => Err(USAGE.to_owned()),
        },
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("zatel-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
