//! Experiment runner: regenerates every evaluation table of the reproduction.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin experiments            # run everything
//! cargo run --release -p bench --bin experiments -- e1 e4   # run a subset
//! cargo run --release -p bench --bin experiments -- --quick # smaller scale
//! cargo run --release -p bench --bin experiments -- --check crates/bench/golden/experiments.txt
//! ```
//!
//! `--check <file>` prints the run as usual, then compares it byte for byte
//! with `file` and exits with status 1 (after listing the differing lines on
//! stderr) when they differ. The run is seeded, so the committed golden
//! output changes only when a table does.

use bench::experiments as exp;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_at = args.iter().position(|a| a == "--check");
    let check = match check_at.map(|i| args.get(i + 1)) {
        None => None,
        Some(Some(path)) => Some(path.clone()),
        Some(None) => {
            eprintln!("experiments: --check needs a golden file");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && Some(i) != check_at.map(|c| c + 1))
        .map(|(_, a)| a.to_lowercase())
        .collect();
    let wants = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    // Tables are printed as soon as each experiment finishes so that partial
    // results survive an interrupted run.
    let mut run = String::new();
    exp::run_suite(quick, wants, |table| {
        let text = format!("{}\n", table.render());
        print!("{text}");
        run.push_str(&text);
    });

    let Some(path) = check else {
        return ExitCode::SUCCESS;
    };
    let golden = match std::fs::read_to_string(&path) {
        Ok(golden) => golden,
        Err(e) => {
            eprintln!("experiments: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match exp::golden_diff(&golden, &run) {
        None => {
            eprintln!("experiments: output matches {path}");
            ExitCode::SUCCESS
        }
        Some(report) => {
            eprintln!("experiments: output differs from {path}\n{report}");
            ExitCode::FAILURE
        }
    }
}
