//! Turning chains into alignment tasks.
//!
//! The paper aligns the (read, reference) pairs obtained from
//! minimap2's candidate locations. A chain tells us *where* on the
//! reference a read may map and on which strand; this module cuts the
//! corresponding reference window (with flanks, since chain ends are
//! anchor k-mer boundaries, not alignment boundaries), orients the read,
//! and emits an [`AlignTask`].

use align_core::{AlignTask, Seq};

use crate::chain::{chain_anchors, collect_anchors, Chain, ChainParams};
use crate::index::MinimizerIndex;

/// Candidate-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct CandidateParams {
    /// Chaining parameters.
    pub chain: ChainParams,
    /// Flank added on each side of the projected reference window.
    pub flank: usize,
    /// Hard cap on candidates per read (guards against degenerate
    /// repeat blowups; the paper's `-P` has no cap, so set this high).
    pub max_per_read: usize,
}

impl Default for CandidateParams {
    fn default() -> CandidateParams {
        CandidateParams {
            chain: ChainParams::default(),
            // Chain starts are anchor-precise; a small flank absorbs the
            // residual uncertainty. Large flanks would bury the window
            // pipeline's lock-on (GenASM aligns from the candidate
            // position, like the paper's pipeline).
            flank: 16,
            max_per_read: 10_000,
        }
    }
}

/// Map one read: produce all candidate alignment tasks (`-P` semantics).
///
/// The task's `query` is the read oriented to the mapping strand, so a
/// plain global alignment against the forward reference window follows.
pub fn candidates_for_read(
    read_id: u32,
    read: &Seq,
    reference: &Seq,
    index: &MinimizerIndex,
    params: &CandidateParams,
) -> Vec<AlignTask> {
    let anchors = collect_anchors(read, index);
    let chains = chain_anchors(&anchors, index.k, &params.chain);
    chains
        .iter()
        .take(params.max_per_read)
        .map(|c| task_from_chain(read_id, read, reference, c, params.flank))
        .collect()
}

/// Project a chain to its reference window `[start, end)`, clamped to
/// `[0, limit)` (the owning contig's length): extend the covered ref
/// interval by the uncovered read prefix/suffix on the proper sides.
///
/// The window start must be offset-free: GenASM's greedy window
/// pipeline (like the paper's) aligns from the candidate position,
/// and a leading pad creates many cost-equal garbage paths that can
/// derail its first-window lock-on. Anchors give the start exactly;
/// the flank goes on the trailing side only, where it merely costs
/// every aligner the same run of deletions.
pub fn chain_window(chain: &Chain, read_len: usize, limit: usize, flank: usize) -> (usize, usize) {
    let (pre, post) = if chain.reverse {
        (read_len - chain.read_end, chain.read_start)
    } else {
        (chain.read_start, read_len - chain.read_end)
    };
    let start = chain.ref_start.saturating_sub(pre);
    let end = (chain.ref_end + post + flank).min(limit);
    (start, end)
}

/// Project a chain to a reference window and build the task.
pub fn task_from_chain(
    read_id: u32,
    read: &Seq,
    reference: &Seq,
    chain: &Chain,
    flank: usize,
) -> AlignTask {
    let (start, end) = chain_window(chain, read.len(), reference.len(), flank);
    let target = reference.slice(start, end - start);
    let query = if chain.reverse {
        read.reverse_complement()
    } else {
        read.clone()
    };
    AlignTask::new(read_id, start, query, target).oriented(chain.reverse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use align_core::Base;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn random_seq(len: usize, seed: u64) -> Seq {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..len)
            .map(|_| Base::from_code(rng.gen_range(0..4)))
            .collect()
    }

    #[test]
    fn perfect_read_yields_true_location() {
        let reference = random_seq(100_000, 1);
        let index = MinimizerIndex::build(&reference);
        let read = reference.slice(40_000, 2_000);
        let tasks = candidates_for_read(7, &read, &reference, &index, &CandidateParams::default());
        assert!(!tasks.is_empty(), "perfect read must map");
        let best = &tasks[0];
        assert_eq!(best.read_id, 7);
        assert!(
            best.ref_pos <= 40_000 && 40_000 - best.ref_pos <= 200,
            "window start {} too far from truth 40000",
            best.ref_pos
        );
        assert!(best.target.len() >= 2_000);
        // The window must contain the true origin entirely.
        assert!(best.ref_pos + best.target.len() >= 42_000);
    }

    #[test]
    fn rc_read_is_oriented() {
        let reference = random_seq(80_000, 2);
        let index = MinimizerIndex::build(&reference);
        let read = reference.slice(30_000, 1_500).reverse_complement();
        let tasks = candidates_for_read(0, &read, &reference, &index, &CandidateParams::default());
        assert!(!tasks.is_empty(), "rc read must map");
        let best = &tasks[0];
        // Oriented query must align nearly perfectly to the window.
        let d = align_core::nw_distance(&best.query, &best.target);
        assert!(
            d <= 2 * 64 + 32,
            "oriented candidate distance {d} too large"
        );
    }

    #[test]
    fn duplicated_locus_yields_multiple_candidates() {
        // Plant the same 3 kbp segment at three loci.
        let mut bases: Vec<Base> = random_seq(120_000, 3).to_bases();
        let unit: Vec<Base> = random_seq(3_000, 4).to_bases();
        for &at in &[10_000usize, 50_000, 90_000] {
            bases[at..at + 3_000].copy_from_slice(&unit);
        }
        let reference: Seq = bases.into_iter().collect();
        let index = MinimizerIndex::build(&reference);
        let read: Seq = unit[500..2_500].iter().copied().collect();
        let tasks = candidates_for_read(0, &read, &reference, &index, &CandidateParams::default());
        assert!(
            tasks.len() >= 3,
            "read from triplicated locus produced only {} candidates",
            tasks.len()
        );
    }

    #[test]
    fn unmappable_read_yields_nothing() {
        let reference = random_seq(50_000, 5);
        let index = MinimizerIndex::build(&reference);
        let read = random_seq(2_000, 999); // unrelated sequence
        let tasks = candidates_for_read(0, &read, &reference, &index, &CandidateParams::default());
        assert!(
            tasks.len() <= 1,
            "unrelated read should rarely chain, got {}",
            tasks.len()
        );
    }
}
