//! # genasm-core
//!
//! The paper's primary contribution: the GenASM bitvector alignment
//! algorithm (Senol Cali et al., MICRO 2020) together with the three
//! algorithmic improvements of Lindegger et al. (IPDPSW 2022):
//!
//! 1. **entry compression** — store one word (the AND of the edge
//!    vectors) per DP entry instead of four;
//! 2. **early termination** — evaluate error rows in ascending order and
//!    stop at the first row that contains the full solution;
//! 3. **traceback-reachability pruning (DENT)** — never store DP entries
//!    the traceback provably cannot read.
//!
//! Every improvement is individually toggleable ([`Improvements`]) so
//! the ablation experiment can attribute footprint/traffic reductions.
//! All DP-table traffic is counted in [`MemStats`]; experiments E8/E9
//! (the 24× footprint and 12× access reductions) are ratios of these
//! counters between [`GenAsmConfig::baseline`] and
//! [`GenAsmConfig::improved`] runs.
//!
//! Every window runs at one edit budget, [`GenAsmConfig::k`]: early
//! termination stops its row sweep at `d*`, and for a caller that sets
//! `k < W` an infeasibility pre-flight abandons a window that cannot
//! fit the budget in O(1) (see [`engine`] for why the `d` dimension is
//! the sound place to cut, and [`MemStats`] for the
//! `band_cells_skipped` / `windows_early_terminated` /
//! `peak_band_rows` observability counters).
//!
//! The simulated GPU in the `genasm-gpu` crate runs the same code
//! wherever the device does not differ: the row recurrence
//! ([`bitvec`]), the window pipeline
//! ([`drive`] over a [`WindowEngine`]) and the traceback walk
//! ([`traceback`] over a [`TableRead`]). Only the schedule of one
//! window's sweep and the memory its table lives in are the device's
//! own, so CPU and (simulated) GPU results cannot drift apart.
//!
//! ## The allocation-free hot path
//!
//! All mutable per-alignment state — the sweep's boundary row, the
//! traceback table arena, the staged window inputs, the traceback op
//! buffer, and the instrumentation counters — lives in an
//! [`AlignWorkspace`]. Create one per worker, reuse it for every
//! alignment that worker runs, and the steady state performs **zero
//! heap allocations per window**: buffers are cleared and refilled
//! within their retained capacity. `genasm-cpu` wires this into its
//! Rayon batch driver with one workspace per worker thread
//! (`par_iter().map_init(..)`), and the property tests assert reused
//! workspaces are bit-identical to fresh ones.
//!
//! ## Quick start
//!
//! One-shot alignment:
//!
//! ```
//! use genasm_core::GenAsmAligner;
//! use align_core::{Seq, GlobalAligner};
//!
//! let aligner = GenAsmAligner::improved();
//! let query = Seq::from_ascii(b"ACGTACGTACGTACGT").unwrap();
//! let target = Seq::from_ascii(b"ACGTACCTACGTACGT").unwrap();
//! let aln = aligner.align(&query, &target).unwrap();
//! assert_eq!(aln.edit_distance, 1);
//! ```
//!
//! Batch-style alignment reusing one workspace (the hot path):
//!
//! ```
//! use genasm_core::{AlignWorkspace, GenAsmAligner};
//! use align_core::Seq;
//!
//! let aligner = GenAsmAligner::improved();
//! let mut ws = aligner.new_workspace();
//! let pairs = [
//!     (b"ACGTACGTACGTACGT".as_slice(), b"ACGTACCTACGTACGT".as_slice()),
//!     (b"TTTTACGTACGT".as_slice(), b"TTTTACGTACGT".as_slice()),
//! ];
//! for (q, t) in pairs {
//!     let q = Seq::from_ascii(q).unwrap();
//!     let t = Seq::from_ascii(t).unwrap();
//!     // Scratch rows, the traceback arena and all staging buffers are
//!     // reused across iterations; only the returned Alignment allocates.
//!     let aln = aligner.align_reusing(&mut ws, &q, &t).unwrap();
//!     aln.check(&q, &t).unwrap();
//! }
//! // ws.stats now holds instrumentation for both alignments.
//! assert!(ws.stats.windows >= 2);
//! ```

#![forbid(unsafe_code)]

pub mod aligner;
pub mod bitvec;
pub mod config;
pub mod engine;
pub mod filter;
pub mod stats;
pub mod table;
pub mod window;
pub mod workspace;

pub use aligner::GenAsmAligner;
pub use config::{GenAsmConfig, Improvements};
pub use engine::{align_window, align_window_fresh, traceback, WindowResult, WindowSummary};
pub use filter::{filter_occurrences, filter_occurrences_with, Occurrence};
pub use stats::MemStats;
pub use table::TableRead;
pub use window::{
    align_with_stats, align_with_workspace, align_with_workspace_hinted, drive, stage_window,
    WindowEngine, MIN_HINT_K,
};
pub use workspace::{AlignWorkspace, CapacitySignature};
