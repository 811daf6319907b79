//! # baselines
//!
//! Reimplementations of the two state-of-the-art CPU aligners the paper
//! compares against:
//!
//! * [`MyersAligner`] — Edlib-style bit-parallel edit distance
//!   (Myers 1999; Šošić & Šikić 2017): multi-block words, Ukkonen
//!   banding, band doubling, full traceback.
//! * [`Ksw2Aligner`] — KSW2-style banded global alignment with affine
//!   gap penalties (Gotoh 1982; Suzuki & Kasahara 2018; Li 2018).
//!
//! Both implement [`align_core::GlobalAligner`], produce validated
//! CIGARs, and are tested against the quadratic NW oracle.

#![forbid(unsafe_code)]

pub mod ksw2;
pub mod myers;

pub use ksw2::{Ksw2Aligner, Scoring};
pub use myers::{ModeDistance, MyersAligner, MyersMode};
