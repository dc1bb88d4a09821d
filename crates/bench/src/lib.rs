//! Experiment harness for the P2PDocTagger reproduction.
//!
//! Every scenario the demonstration section (§3) varies — and every
//! quantitative claim of §1–2 — has a function here that builds the workload,
//! runs the protocols over the simulated P2P environment, and returns the rows
//! of the corresponding table. The `experiments` binary prints them; the
//! `scenarios` and `chaos` binaries run the regression matrices.
//! `DESIGN.md` (experiment index) maps experiment ids to paper anchors.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod experiments;
pub mod scenarios;
pub mod workload;

pub use experiments::*;
pub use workload::*;

/// The directory the benchmark binaries write their `BENCH_*.json` files to:
/// the workspace root (identified by `CHANGES.md`, walking up from
/// `CARGO_MANIFEST_DIR`), falling back to the current directory when run
/// outside the workspace.
pub fn workspace_root() -> std::path::PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .ok()
        .and_then(|d| {
            std::path::Path::new(&d)
                .ancestors()
                .find(|p| p.join("CHANGES.md").exists())
                .map(std::path::Path::to_path_buf)
        })
        .unwrap_or_else(|| std::path::PathBuf::from("."))
}
