//! # readsim
//!
//! Workload generation for the GenASM reproduction: a synthetic genome
//! generator ([`genome`]) and a PBSIM2-style long-read simulator
//! ([`reads`]).
//!
//! The paper simulates 500 PacBio reads of 10 kbp from the human genome
//! with PBSIM2 (Ono et al. 2020). We reproduce the workload *shape* —
//! GC-structured repetitive reference, CLR-profile bursty errors, fixed
//! 10 kbp read length, both strands — with deterministic seeds so every
//! experiment is reproducible bit-for-bit (the substitution argument
//! is in [`genome`]'s module docs).

#![forbid(unsafe_code)]

pub mod fastx;
pub mod genome;
pub mod reads;

pub use fastx::{
    read_fastx, read_multi_fastx, read_single_fastx, reads_to_records, write_fasta, write_fastq,
    FastxError, FastxReader, FastxRecord,
};
pub use genome::{contig_lengths, Genome, GenomeConfig, RepeatFamily};
pub use reads::{simulate_reads, ErrorModel, ReadConfig, SimRead};
