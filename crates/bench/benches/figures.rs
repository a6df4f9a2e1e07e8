//! Regenerates every table and figure of the paper's evaluation as one
//! plan (see the `zatel_bench` crate docs):
//!
//! ```text
//! cargo bench -p zatel-bench              # every figure
//! cargo bench -p zatel-bench -- fig13     # figures whose name contains "fig13"
//! ```
//!
//! Prints each figure's table and writes their documents, keyed by figure
//! name, to `target/zatel-results/figures.json`.

use std::process::ExitCode;

use zatel_bench::{Figure, Plan, Setup, FIGURES};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let setup = Setup::from_env()?;
    // `cargo bench` passes `--bench`; every other argument is a name filter.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let figures: Vec<&Figure> = FIGURES
        .iter()
        .filter(|f| filters.is_empty() || filters.iter().any(|n| f.name.contains(n.as_str())))
        .collect();
    if figures.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        return Err(format!(
            "no figure matches {filters:?}; figures: {}",
            names.join(", ")
        ));
    }
    let doc = Plan::new(&setup, &figures)
        .run()
        .map_err(|e| e.to_string())?;
    let dir = std::path::Path::new("target/zatel-results");
    let path = dir.join("figures.json");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nresults: {}", path.display());
    Ok(())
}
