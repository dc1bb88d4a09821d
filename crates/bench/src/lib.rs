//! Experiment harness for the P2PDocTagger reproduction.
//!
//! Every scenario the demonstration section (§3) varies — and every
//! quantitative claim of §1–2 — has a function here that builds the workload,
//! runs the protocols over the simulated P2P environment, and returns the rows
//! of the corresponding table. The `experiments` binary prints them, the
//! scenario (C1) and chaos (CH1) grids included.
//! `DESIGN.md` (experiment index) maps experiment ids to paper anchors.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod experiments;
pub mod scenarios;
pub mod workload;

pub use experiments::*;
pub use workload::*;
