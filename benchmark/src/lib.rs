//! The repository benchmark: four workloads, end-to-end metrics measured
//! with tracing off, and a traced run that probes each layer from outside.
//! See `README.md` for the catalogue and `../BENCHMARK.json` for the
//! contract.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod clock;
pub mod compare;
pub mod json;
pub mod probes;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;
pub mod report;
pub mod run;
