//! # mapper
//!
//! A minimap2-lite read mapper used as the paper's candidate-location
//! generator: minimizer seeding ([`index`]), gap-cost chaining
//! ([`chain`]) and candidate window extraction ([`candidates`]).
//!
//! The paper runs `minimap2 -P` to obtain **all** chains (138,929
//! candidate locations for 500 reads) and aligns every one of them.
//! This crate reproduces that pipeline shape: canonical `(w, k)`
//! minimizers, a chaining DP with minimap2's gap cost, no primary-chain
//! filtering, and flanked reference windows ready for global alignment.
//!
//! For genome-scale, multi-contig references, [`shard`] builds one
//! minimizer index over every contig at global positions and keeps the
//! contigs' packed bases for candidate windows; a read probes each of
//! its minimizers once (`&self`, so callers parallelize across reads),
//! and chains never span two contigs.

#![forbid(unsafe_code)]

pub mod candidates;
pub mod chain;
pub mod index;
pub mod shard;

pub use candidates::{candidates_for_read, chain_window, task_from_chain, CandidateParams};
pub use chain::{chain_anchors, collect_anchors, Anchor, Chain, ChainParams};
pub use index::{hash64, minimizers, Hit, Hits, Minimizer, MinimizerIndex};
pub use shard::{IndexMetrics, ReadMapStats, ReferenceTooLong, ShardedIndex, MAX_REFERENCE_BASES};
