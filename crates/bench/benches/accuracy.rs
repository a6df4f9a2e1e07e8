//! Writes the accuracy ledger (see `zatel_bench::ledger`) to
//! `BENCH_accuracy.json` at the repository root; the committed file is the
//! 64² run:
//!
//! ```text
//! ZATEL_RES=64 cargo bench -p zatel-bench --bench accuracy
//! ```

use std::path::Path;
use std::process::ExitCode;

use zatel_bench::{ledger, Setup};

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
    let doc = ledger(&setup).map_err(|e| e.to_string())?;
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_accuracy.json");
    std::fs::write(&path, doc.pretty() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nledger: BENCH_accuracy.json");
    Ok(())
}
