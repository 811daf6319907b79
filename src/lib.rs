//! # genasm-suite
//!
//! The reproduction suite for *Algorithmic Improvement and GPU
//! Acceleration of the GenASM Algorithm* (Lindegger, Senol Cali, Alser,
//! Gómez-Luna, Mutlu — IPDPSW 2022, arXiv:2203.15561).
//!
//! This root crate ties the subsystem crates together:
//!
//! * [`workload`] — the evaluation workload (synthetic genome → PacBio
//!   CLR-style reads → minimap2-style all-chain candidates);
//! * [`experiments`] — one driver per number in the paper's Section II
//!   (E1–E9) plus extension experiments (A1–A3);
//! * [`report`] — the plain-text tables the `repro` harness prints.
//!
//! The individual systems live in their own crates and are re-exported
//! here for convenience: [`genasm_core`] (the paper's contribution),
//! [`genasm_cpu`] / [`genasm_gpu`] (parallel implementations),
//! [`gpu_sim`] (the SIMT substrate standing in for the A6000),
//! [`baselines`] (KSW2- and Edlib-style comparison aligners),
//! [`readsim`] and [`mapper`] (workload generation), and
//! [`align_core`] (shared types and DP oracles).
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release --bin repro -- all --scale small
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod workload;

pub use workload::{Scale, Workload};

pub use align_core;
pub use baselines;
pub use genasm_core;
pub use genasm_cpu;
pub use genasm_gpu;
pub use gpu_sim;
pub use mapper;
pub use readsim;
