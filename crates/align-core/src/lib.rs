//! # align-core
//!
//! Shared substrate for the GenASM reproduction suite.
//!
//! This crate contains everything the aligners, simulators and the
//! workload pipeline have in common:
//!
//! * [`seq`] — 2-bit packed DNA sequences ([`Seq`]) and the base alphabet
//!   ([`Base`]).
//! * [`cigar`] — CIGAR strings ([`Cigar`], [`CigarOp`]) with validation
//!   and cost accounting.
//! * [`alignment`] — the [`Alignment`] record produced by every aligner
//!   in the suite.
//! * [`nw`] — quadratic dynamic-programming *oracles* (full and banded
//!   Needleman–Wunsch over unit edit costs) used as ground truth in tests
//!   and accuracy experiments.
//! * [`task`] — batch containers describing candidate (read, reference)
//!   pairs flowing from the mapper into the aligners.
//! * [`mod@reference`] — multi-contig references ([`Reference`]): named
//!   contigs with the global-coordinate layout the genome index uses.
//!
//! The crate is deliberately dependency-light; anything random or
//! parallel lives in the crates that need it.

#![forbid(unsafe_code)]

pub mod alignment;
pub mod cigar;
pub mod nw;
pub mod reference;
pub mod seq;
pub mod task;

pub use alignment::{Alignment, GlobalAligner};
pub use cigar::{Cigar, CigarOp};
pub use nw::{banded_nw_distance, doubling_nw_distance, nw_align, nw_distance};
pub use reference::{Contig, Reference};
pub use seq::{Base, Seq};
pub use task::{AlignTask, TaskBatch};

/// Errors produced by the alignment substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// A sequence contained a byte that is not one of `ACGTacgt`.
    BadBase(u8),
    /// A CIGAR failed validation against the sequence pair.
    InvalidCigar {
        /// Human-readable reason for the failure.
        reason: String,
    },
    /// An aligner was asked for more errors than it supports.
    BudgetExceeded {
        /// The requested edit budget.
        requested: usize,
        /// The maximum the aligner supports.
        max: usize,
    },
    /// The aligner could not find an alignment within its edit budget.
    NoAlignment,
    /// An empty sequence was passed to an aligner that requires content.
    EmptyInput,
}

impl core::fmt::Display for AlignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AlignError::BadBase(b) => write!(f, "invalid base byte 0x{b:02x}"),
            AlignError::InvalidCigar { reason } => write!(f, "invalid CIGAR: {reason}"),
            AlignError::BudgetExceeded { requested, max } => {
                write!(f, "edit budget {requested} exceeds supported maximum {max}")
            }
            AlignError::NoAlignment => write!(f, "no alignment found within the edit budget"),
            AlignError::EmptyInput => write!(f, "empty input sequence"),
        }
    }
}

impl std::error::Error for AlignError {}

/// Convenient result alias for fallible substrate operations.
pub type Result<T> = core::result::Result<T, AlignError>;
