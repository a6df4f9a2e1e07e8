//! The `zatel-lint` command-line gate.
//!
//! ```text
//! cargo run -p zatel-lint -- --check            # CI gate: exit 1 on findings
//! cargo run -p zatel-lint -- --json out.json    # machine-readable diagnostics
//! cargo run -p zatel-lint -- --write-baseline   # record current debt
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use zatel_lint::{find_workspace_root, run, Baseline, LintConfig};

const USAGE: &str = "\
zatel-lint: determinism / panic-hygiene / thread-seam / obs-seam / hook-seam / unsafe-audit gate

USAGE:
    zatel-lint [OPTIONS]

OPTIONS:
    --root <DIR>        Workspace root (default: discovered from cwd)
    --check             Exit 1 when any active finding remains
    --json <PATH|->     Write zatel-lint-v1 JSON diagnostics (- for stdout)
    --baseline <PATH>   Baseline file (default: <root>/lint-baseline.json)
    --no-baseline       Ignore the baseline; show all findings
    --write-baseline    Snapshot current findings into the baseline and exit
    -q, --quiet         Suppress the per-finding text output
    -h, --help          Show this help
";

struct Opts {
    root: Option<PathBuf>,
    check: bool,
    json: Option<String>,
    baseline: Option<PathBuf>,
    no_baseline: bool,
    write_baseline: bool,
    quiet: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        root: None,
        check: false,
        json: None,
        baseline: None,
        no_baseline: false,
        write_baseline: false,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => o.root = Some(PathBuf::from(need(&mut it, "--root")?)),
            "--check" => o.check = true,
            "--json" => o.json = Some(need(&mut it, "--json")?),
            "--baseline" => o.baseline = Some(PathBuf::from(need(&mut it, "--baseline")?)),
            "--no-baseline" => o.no_baseline = true,
            "--write-baseline" => o.write_baseline = true,
            "-q" | "--quiet" => o.quiet = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

fn need(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprint!("{USAGE}");
            return if e.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    let root = match opts.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("error: could not locate a workspace root; pass --root");
            return ExitCode::from(2);
        }
    };

    let config = LintConfig::zatel_workspace(&root);

    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| root.join("lint-baseline.json"));

    let baseline = if opts.no_baseline || opts.write_baseline {
        Baseline::empty()
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match Baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: {}: {e}", baseline_path.display());
                    return ExitCode::from(2);
                }
            },
            Err(_) => Baseline::empty(),
        }
    };

    let report = match run(&config, &baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.write_baseline {
        let doc = Baseline::from_findings(&report.findings).to_json().pretty();
        if let Err(e) = std::fs::write(&baseline_path, doc + "\n") {
            eprintln!("error: {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "wrote {} ({} findings across {} files scanned)",
            baseline_path.display(),
            report.findings.len(),
            report.files_scanned
        );
        return ExitCode::SUCCESS;
    }

    if let Some(json) = &opts.json {
        let doc = report.to_json().pretty() + "\n";
        if json == "-" {
            print!("{doc}");
        } else if let Err(e) = std::fs::write(json, doc) {
            eprintln!("error: {json}: {e}");
            return ExitCode::from(2);
        }
    }

    if !opts.quiet {
        for f in &report.findings {
            println!("{}", f.render());
        }
    }
    eprintln!(
        "zatel-lint: {} finding(s), {} waived, {} baselined, {} files scanned",
        report.findings.len(),
        report.waived,
        report.baselined,
        report.files_scanned
    );

    if opts.check && !report.findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
