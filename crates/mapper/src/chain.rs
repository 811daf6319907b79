//! Anchor chaining (minimap2's chaining DP, simplified).
//!
//! Matching read minimizers against the reference index yields
//! *anchors* `(read pos, ref pos, strand)`. Chaining finds collinear
//! runs of anchors with minimap2's gap-cost model; with `-P` semantics
//! we keep *every* chain above the score floor, not just the primary —
//! that is what produced the paper's 138,929 candidate locations from
//! 500 reads.

use std::sync::OnceLock;

use align_core::Seq;

use crate::index::{minimizers, MinimizerIndex};

/// One seed match between read and reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// k-mer start on the read (forward read coordinates).
    pub read_pos: u32,
    /// k-mer start on the reference.
    pub ref_pos: u32,
    /// True when the read k-mer matches the reference in reverse
    /// orientation.
    pub reverse: bool,
}

/// A chain of collinear anchors = one candidate mapping location.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// Chain score (minimap2-style).
    pub score: f64,
    /// Number of anchors in the chain.
    pub anchors: usize,
    /// Read interval covered (`[start, end)`, forward read coords).
    pub read_start: usize,
    /// End of the covered read interval.
    pub read_end: usize,
    /// Reference interval covered.
    pub ref_start: usize,
    /// End of the covered reference interval.
    pub ref_end: usize,
    /// Mapping strand.
    pub reverse: bool,
}

/// Chaining parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChainParams {
    /// Max predecessors examined per anchor (minimap2 `-z`-ish horizon).
    pub lookback: usize,
    /// Maximum gap between chained anchors on either sequence.
    pub max_gap: usize,
    /// Minimum chain score to report.
    pub min_score: f64,
    /// Minimum anchors per chain.
    pub min_anchors: usize,
}

impl Default for ChainParams {
    fn default() -> ChainParams {
        ChainParams {
            lookback: 50,
            max_gap: 5_000,
            min_score: 40.0,
            min_anchors: 3,
        }
    }
}

/// Collect anchors of `read` against the index.
pub fn collect_anchors(read: &Seq, index: &MinimizerIndex) -> Vec<Anchor> {
    let mut anchors = Vec::new();
    for m in minimizers(read, index.w, index.k) {
        for hit in index.lookup(m.hash) {
            anchors.push(Anchor {
                read_pos: m.pos,
                ref_pos: hit.pos(),
                // Opposite canonical orientations = reverse-strand match.
                reverse: m.flipped != hit.flipped(),
            });
        }
    }
    anchors
}

/// An anchor prepared for the chaining DP: `sort_pos` is the read
/// coordinate used for collinearity (flipped for reverse strand),
/// `orig_pos` the original read coordinate for reporting.
#[derive(Debug, Clone, Copy)]
struct DpAnchor {
    sort_pos: u32,
    orig_pos: u32,
    ref_pos: u32,
}

/// Chain anchors with the minimap2 gap cost; returns all chains with
/// `-P` semantics (every chain above the floor, best first).
pub fn chain_anchors(anchors: &[Anchor], k: usize, params: &ChainParams) -> Vec<Chain> {
    let mut chains = Vec::new();
    for strand in [false, true] {
        let strand_anchors: Vec<Anchor> = anchors
            .iter()
            .copied()
            .filter(|a| a.reverse == strand)
            .collect();
        if strand_anchors.is_empty() {
            continue;
        }
        // For reverse-strand chains, collinearity means read position
        // decreasing as ref position increases; flip read coords so the
        // same DP applies.
        let max_rp = strand_anchors.iter().map(|a| a.read_pos).max().unwrap();
        let mut subset: Vec<DpAnchor> = strand_anchors
            .iter()
            .map(|a| DpAnchor {
                sort_pos: if strand {
                    max_rp - a.read_pos
                } else {
                    a.read_pos
                },
                orig_pos: a.read_pos,
                ref_pos: a.ref_pos,
            })
            .collect();
        subset.sort_unstable_by_key(|a| (a.ref_pos, a.sort_pos));
        chains.extend(chain_one_strand(&subset, k, params, strand));
    }
    chains.sort_by(|a, b| b.score.total_cmp(&a.score));
    chains
}

/// Gap-cost score of extending the chain ending at `anchors[j]` with
/// `anchors[i]`, given that chain's score (`dr`, `dq` both positive
/// and within `max_gap`).
fn extend_score(prev: f64, dr: i64, dq: i64, k: usize) -> f64 {
    let dd = (dr - dq).unsigned_abs();
    let gain = (dq.min(dr) as f64).min(k as f64);
    let cost = 0.01 * k as f64 * dd as f64 + 0.5 * gap_log2(dd);
    prev + gain - cost
}

/// `log2(max(dd, 1))`. A gap difference is a small integer (below
/// `max_gap`), so the common ones are read from a table filled by the
/// same `f64::log2` that computes the rest: every score is the `f64`
/// the closed formula gives.
fn gap_log2(dd: u64) -> f64 {
    const TABLE: usize = 8192;
    static LOG2: OnceLock<Vec<f64>> = OnceLock::new();
    let log2 = |x: u64| (x.max(1) as f64).log2();
    let table = LOG2.get_or_init(|| (0..TABLE as u64).map(log2).collect());
    table.get(dd as usize).copied().unwrap_or_else(|| log2(dd))
}

/// The chaining DP: best score of a chain ending at each anchor and
/// its predecessor. `anchors` is sorted by `(ref_pos, sort_pos)`.
fn chain_dp(
    anchors: &[DpAnchor],
    k: usize,
    params: &ChainParams,
) -> (Vec<f64>, Vec<Option<usize>>) {
    let n = anchors.len();
    let mut score = vec![0f64; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        score[i] = k as f64;
        let lo = i.saturating_sub(params.lookback);
        for j in (lo..i).rev() {
            let dr = anchors[i].ref_pos as i64 - anchors[j].ref_pos as i64;
            // `ref_pos` ascends with the index and `j` walks down, so
            // `dr` only grows: once it passes the gap limit no earlier
            // predecessor can qualify.
            if dr as usize > params.max_gap {
                break;
            }
            let dq = anchors[i].sort_pos as i64 - anchors[j].sort_pos as i64;
            if dr <= 0 || dq <= 0 || dq as usize > params.max_gap {
                continue; // not collinear, or too far apart on the read
            }
            let s = extend_score(score[j], dr, dq, k);
            if s > score[i] {
                score[i] = s;
                pred[i] = Some(j);
            }
        }
    }
    (score, pred)
}

fn chain_one_strand(
    anchors: &[DpAnchor],
    k: usize,
    params: &ChainParams,
    strand: bool,
) -> Vec<Chain> {
    let n = anchors.len();
    let (score, pred) = chain_dp(anchors, k, params);
    // Peel chains best-first; each anchor belongs to at most one chain,
    // but every chain above the floor is reported (the -P behaviour).
    // Only ends above the floor start a chain; the stable sort visits
    // them in the order a sort of all `n` would.
    let mut order: Vec<usize> = (0..n).filter(|&i| score[i] >= params.min_score).collect();
    order.sort_by(|&a, &b| score[b].total_cmp(&score[a]));
    let mut used = vec![false; n];
    let mut out = Vec::new();
    for &end in &order {
        if used[end] {
            continue;
        }
        let mut members = Vec::new();
        let mut cur = Some(end);
        while let Some(i) = cur {
            if used[i] {
                break; // ran into an anchor claimed by a better chain
            }
            members.push(i);
            used[i] = true;
            cur = pred[i];
        }
        if members.len() < params.min_anchors {
            continue;
        }
        // Report original (unflipped) read coordinates.
        let (mut q_lo, mut q_hi) = (u32::MAX, 0u32);
        let (mut t_lo, mut t_hi) = (u32::MAX, 0u32);
        for &i in &members {
            let a = &anchors[i];
            t_lo = t_lo.min(a.ref_pos);
            t_hi = t_hi.max(a.ref_pos);
            q_lo = q_lo.min(a.orig_pos);
            q_hi = q_hi.max(a.orig_pos);
        }
        out.push(Chain {
            score: score[end],
            anchors: members.len(),
            read_start: q_lo as usize,
            read_end: q_hi as usize + k,
            ref_start: t_lo as usize,
            ref_end: t_hi as usize + k,
            reverse: strand,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The DP loop as it was before the `dr > max_gap` early exit:
    /// every predecessor in the lookback window is examined.
    fn chain_dp_reference(
        anchors: &[DpAnchor],
        k: usize,
        params: &ChainParams,
    ) -> (Vec<f64>, Vec<Option<usize>>) {
        let n = anchors.len();
        let mut score = vec![0f64; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        for i in 0..n {
            score[i] = k as f64;
            for j in (i.saturating_sub(params.lookback)..i).rev() {
                let dr = anchors[i].ref_pos as i64 - anchors[j].ref_pos as i64;
                let dq = anchors[i].sort_pos as i64 - anchors[j].sort_pos as i64;
                if dr <= 0 || dq <= 0 {
                    continue;
                }
                if dr as usize > params.max_gap || dq as usize > params.max_gap {
                    continue;
                }
                let s = extend_score(score[j], dr, dq, k);
                if s > score[i] {
                    score[i] = s;
                    pred[i] = Some(j);
                }
            }
        }
        (score, pred)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The early exit is exact: same scores, same predecessors, on
        /// random anchor clouds and on periodic (tandem-repeat-like)
        /// sets whose ref gaps straddle `max_gap`.
        #[test]
        fn early_exit_dp_equals_the_exhaustive_loop(
            cloud in prop::collection::vec((0u32..600, 0u32..4_000), 0..120),
            period in 1u32..400,
            copies in 1u32..12,
            max_gap in 1usize..1_500,
            lookback in 1usize..60,
        ) {
            let mut anchors: Vec<DpAnchor> = cloud
                .iter()
                .map(|&(q, r)| DpAnchor { sort_pos: q, orig_pos: q, ref_pos: r })
                .collect();
            // Periodic part: the same read positions recur every
            // `period` reference bases.
            for c in 0..copies {
                for q in (0..200).step_by(25) {
                    anchors.push(DpAnchor { sort_pos: q, orig_pos: q, ref_pos: c * period + q });
                }
            }
            anchors.sort_unstable_by_key(|a| (a.ref_pos, a.sort_pos));
            let params = ChainParams { lookback, max_gap, ..ChainParams::default() };
            prop_assert_eq!(
                chain_dp(&anchors, 15, &params),
                chain_dp_reference(&anchors, 15, &params)
            );
        }
    }

    /// The table changes where `log2` is computed, not what it
    /// returns: bit for bit the closed formula, on both sides of the
    /// table's end.
    #[test]
    fn extend_score_equals_the_closed_formula_bit_for_bit() {
        for k in [11usize, 15, 19, 28] {
            for dd in 0..=20_000i64 {
                let (prev, dq) = (37.25 + dd as f64 * 0.5, 1 + dd % 40);
                for (dr, dq) in [(dq + dd, dq), (dq, dq + dd)] {
                    let d = (dr - dq).unsigned_abs() as f64;
                    let closed = prev + (dq.min(dr) as f64).min(k as f64)
                        - (0.01 * k as f64 * d + 0.5 * (d.max(1.0)).log2());
                    let got = extend_score(prev, dr, dq, k);
                    assert_eq!(got.to_bits(), closed.to_bits(), "dd={dd} k={k}");
                }
            }
        }
    }

    fn mk(read_pos: u32, ref_pos: u32) -> Anchor {
        Anchor {
            read_pos,
            ref_pos,
            reverse: false,
        }
    }

    #[test]
    fn collinear_anchors_form_one_chain() {
        let anchors: Vec<Anchor> = (0..20).map(|i| mk(i * 20, 1000 + i * 20)).collect();
        let chains = chain_anchors(&anchors, 15, &ChainParams::default());
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!(c.anchors, 20);
        assert_eq!(c.read_start, 0);
        assert_eq!(c.ref_start, 1000);
        assert!(!c.reverse);
    }

    #[test]
    fn two_loci_form_two_chains() {
        let mut anchors: Vec<Anchor> = (0..10).map(|i| mk(i * 30, 500 + i * 30)).collect();
        anchors.extend((0..10).map(|i| mk(i * 30, 90_000 + i * 30)));
        let chains = chain_anchors(&anchors, 15, &ChainParams::default());
        assert_eq!(chains.len(), 2, "distant loci cannot be chained together");
    }

    #[test]
    fn indel_tolerant_chaining() {
        // 100-base deletion in the middle: still one chain.
        let mut anchors: Vec<Anchor> = (0..10).map(|i| mk(i * 25, 2000 + i * 25)).collect();
        anchors.extend((0..10).map(|i| mk(250 + i * 25, 2000 + 350 + i * 25)));
        let chains = chain_anchors(&anchors, 15, &ChainParams::default());
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].anchors, 20);
    }

    #[test]
    fn score_floor_filters_noise() {
        let anchors = vec![mk(0, 100), mk(5000, 90_000)];
        let chains = chain_anchors(&anchors, 15, &ChainParams::default());
        assert!(chains.is_empty(), "two stray anchors are not a chain");
    }

    #[test]
    fn reverse_strand_chain_recovered() {
        // Reverse-strand: read positions descend as ref ascends.
        let anchors: Vec<Anchor> = (0..12)
            .map(|i| Anchor {
                read_pos: (11 - i) * 40,
                ref_pos: 7000 + i * 40,
                reverse: true,
            })
            .collect();
        let chains = chain_anchors(&anchors, 15, &ChainParams::default());
        assert_eq!(chains.len(), 1);
        assert!(chains[0].reverse);
        assert_eq!(chains[0].ref_start, 7000);
        assert_eq!(chains[0].read_start, 0);
    }

    #[test]
    fn chains_sorted_by_score() {
        let mut anchors: Vec<Anchor> = (0..20).map(|i| mk(i * 20, 1000 + i * 20)).collect();
        anchors.extend((0..5).map(|i| mk(i * 20, 50_000 + i * 20)));
        let chains = chain_anchors(&anchors, 15, &ChainParams::default());
        assert_eq!(chains.len(), 2);
        assert!(chains[0].score >= chains[1].score);
        assert_eq!(chains[0].anchors, 20);
    }
}
