//! # genasm-bench
//!
//! The benchmark of `BENCHMARK.json`: four workloads generated from a
//! seed, driven through the suite's public entry points (`run_pipeline`,
//! the `Backend` trait, a child `genasm serve`), with the outputs
//! checked and the time attributed to layers from outside — no span or
//! counter is added inside any other crate. See `README.md` for what
//! each workload and metric is for.

pub mod check;
pub mod json;
pub mod machine;
pub mod metrics;
pub mod oneshot;
pub mod replay;
pub mod report;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workload;
