//! The repository's benchmark: four closed-loop workloads against
//! `uniform::ConcurrentDatabase`, three gated end-to-end metrics, and per-layer
//! probes recorded from outside the program. See `README.md` beside
//! this crate for the definition and `../BENCHMARK.json` for the
//! contract.

pub mod cli;
pub mod compare;
pub mod digest;
pub mod driver;
pub mod gen;
pub mod json;
pub mod ops;
pub mod report;
pub mod rng;
pub mod spans;
pub mod spec;
pub mod stats;
