//! Anchor chaining (minimap2's chaining DP, simplified).
//!
//! Matching read minimizers against the reference index yields
//! *anchors* `(read pos, ref pos, strand)`. Chaining finds collinear
//! runs of anchors with minimap2's gap-cost model; with `-P` semantics
//! we keep *every* chain above the score floor, not just the primary —
//! that is what produced the paper's 138,929 candidate locations from
//! 500 reads.
//!
//! Each strand's anchors are packed one per word, `ref_pos << 32 |
//! read_pos` (read positions flipped on the reverse strand), and sorted
//! as integers. The DP visits up to `lookback` predecessors per anchor
//! but scores only those that could win: a predecessor adds at most
//! `k` to its chain's score and pays a cost of at least 0, so one whose
//! `score + k` does not beat the best found so far is skipped. The skip
//! is exact, not a heuristic — `f64` rounding is monotone, so the
//! computed extension never exceeds the computed `score + k` — and
//! every score, predecessor and chain is the one the full loop gives.
//!
//! One DP chains a whole genome, as minimap2 chains a multi-sequence
//! index: `chain_contigs` takes anchors at global positions and the
//! contigs' global starts, and the lookback of an anchor never reaches
//! before the first key of its contig. [`chain_anchors`] is its
//! one-contig case. The result is exactly that of chaining each contig
//! on its own and merging the chains stably by score:
//!
//! - Keys sort by reference position, so an anchor's same-contig
//!   predecessors are exactly the keys between its contig's first key
//!   and itself: the floored lookback visits the set a per-contig DP
//!   visits, in the same order.
//! - The reverse-strand flip `max_rp - pos` reverses order and keeps
//!   every `dq` whatever the constant, so a genome-wide `max_rp` changes
//!   no key order and no score.
//! - Predecessors never cross contigs, so neither do claims: the peel
//!   order (score descending, then index), restricted to one contig, is
//!   that contig's own peel order.
//! - Per-contig chaining ordered equal scores by contig, then strand,
//!   then peel rank. The chains are pushed in (strand, peel) order, so
//!   one stable sort by (score descending, contig) gives that order.

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

/// Collect anchors of `read` against the index, one probe per read
/// minimizer. They come out sorted by `(read_pos, ref_pos)`: read
/// minimizers ascend in position and every hit run in reference
/// position.
pub fn collect_anchors(read: &Seq, index: &MinimizerIndex) -> Vec<Anchor> {
    let mut anchors = Vec::new();
    for m in minimizers(read, index.w, index.k) {
        for hit in index.lookup(m.hash) {
            anchors.push(Anchor {
                read_pos: m.pos,
                ref_pos: hit.pos,
                // Opposite canonical orientations = reverse-strand match.
                reverse: m.flipped != hit.flipped,
            });
        }
    }
    anchors
}

/// The `pred` of an anchor that starts its chain.
const NO_PRED: u32 = u32::MAX;

/// Chain anchors with the minimap2 gap cost; returns all chains with
/// `-P` semantics (every chain above the floor, best first). The
/// one-contig case of `chain_contigs`.
pub fn chain_anchors(anchors: &[Anchor], k: usize, params: &ChainParams) -> Vec<Chain> {
    chain_contigs(anchors, &[0], k, params)
        .into_iter()
        .map(|(_, chain)| chain)
        .collect()
}

/// The contig that owns global position `pos`, given the contigs'
/// global starts in order: the last start at or before `pos`, so an
/// empty contig (whose start is the next one's) owns nothing.
pub(crate) fn contig_of(starts: &[u32], pos: u32) -> usize {
    starts.partition_point(|&s| s <= pos) - 1
}

/// Chain anchors at global positions over contigs that start at
/// `starts`; returns every chain as `(contig, chain)` in contig-local
/// coordinates, best score first, contig order breaking ties. A chain
/// never spans two contigs (see the module docs).
pub(crate) fn chain_contigs(
    anchors: &[Anchor],
    starts: &[u32],
    k: usize,
    params: &ChainParams,
) -> Vec<(u32, Chain)> {
    assert!(u32::try_from(anchors.len()).is_ok(), "2^32 anchors or more");
    let mut chains = Vec::new();
    let mut keys = Vec::with_capacity(anchors.len());
    for strand in [false, true] {
        let on_strand = anchors.iter().filter(|a| a.reverse == strand);
        let Some(max_rp) = on_strand.clone().map(|a| a.read_pos).max() else {
            continue;
        };
        // For reverse-strand chains, collinearity means read position
        // decreasing as ref position increases; flip read coords so the
        // same DP applies (the flip is its own inverse). One word per
        // anchor, `ref_pos << 32 | sort_pos`, sorts as the pair does,
        // and equal words are equal anchors.
        let flip = |pos: u32| if strand { max_rp - pos } else { pos };
        keys.clear();
        keys.extend(on_strand.map(|a| u64::from(a.ref_pos) << 32 | u64::from(flip(a.read_pos))));
        keys.sort_unstable();
        chain_one_strand(&keys, starts, k, params, strand, flip, &mut chains);
    }
    chains.sort_by(|a, b| b.1.score.total_cmp(&a.1.score).then(a.0.cmp(&b.0)));
    chains
}

/// The reference and (strand-flipped) read position of a packed key.
#[inline]
fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Gap-cost score of extending the chain ending at `anchors[j]` with
/// `anchors[i]`, given that chain's score (`dr`, `dq` both positive
/// and within `max_gap`). `log2` is [`log2_table`].
#[inline]
fn extend_score(prev: f64, dr: i64, dq: i64, k: usize, log2: &[f64]) -> f64 {
    let dd = (dr - dq).unsigned_abs();
    let gain = (dq.min(dr) as f64).min(k as f64);
    let cost = 0.01 * k as f64 * dd as f64 + 0.5 * gap_log2(log2, dd);
    prev + gain - cost
}

/// `log2(max(dd, 1))` for every `dd` below 8192, filled once by the
/// same `f64::log2` that [`gap_log2`] falls back to past its end.
fn log2_table() -> &'static [f64] {
    static LOG2: OnceLock<Vec<f64>> = OnceLock::new();
    LOG2.get_or_init(|| (0..8192).map(closed_log2).collect())
}

fn closed_log2(dd: u64) -> f64 {
    (dd.max(1) as f64).log2()
}

/// `log2(max(dd, 1))`. A gap difference is a small integer (below
/// `max_gap`), so the common ones are read from `table`; `max_gap` is
/// a parameter, so larger ones are computed: every score is the `f64`
/// the closed formula gives.
#[inline]
fn gap_log2(table: &[f64], dd: u64) -> f64 {
    match table.get(dd as usize) {
        Some(&v) => v,
        None => closed_log2(dd),
    }
}

/// The chaining DP: best score of a chain ending at each anchor and
/// its predecessor ([`NO_PRED`] for none). `keys` are packed anchors,
/// sorted, over contigs that start at `starts`; no predecessor comes
/// from another contig.
///
/// A predecessor `j` whose `score[j] + k` does not beat the best score
/// found so far is skipped unscored, and the skip is exact: its
/// extension adds a gain of at most `k` and subtracts a cost of at
/// least 0, and `f64` rounding is monotone, so the computed
/// `(score[j] + gain) - cost` is at most the computed `score[j] + k`
/// and cannot win the strict `>`.
fn chain_dp(
    keys: &[u64],
    starts: &[u32],
    k: usize,
    params: &ChainParams,
    log2: &[f64],
) -> (Vec<f64>, Vec<u32>) {
    let n = keys.len();
    let kf = k as f64;
    let mut score = vec![0f64; n];
    let mut pred = vec![NO_PRED; n];
    // `keys[floor]` is the first key of the current contig, and `next`
    // the global start of the contig after it.
    let (mut floor, mut next) = (0, 0u64);
    for i in 0..n {
        let (ri, qi) = unpack(keys[i]);
        if u64::from(ri) >= next {
            let c = contig_of(starts, ri);
            (floor, next) = (i, starts.get(c + 1).map_or(u64::MAX, |&s| s.into()));
        }
        let (mut best, mut best_j) = (kf, NO_PRED);
        let lo = i.saturating_sub(params.lookback).max(floor);
        for j in (lo..i).rev() {
            let (rj, qj) = unpack(keys[j]);
            let dr = i64::from(ri) - i64::from(rj);
            // `ref_pos` ascends with the index and `j` walks down, so
            // `dr` only grows: once it passes the gap limit no earlier
            // predecessor can qualify.
            if dr as usize > params.max_gap {
                break;
            }
            let dq = i64::from(qi) - i64::from(qj);
            if dr <= 0 || dq <= 0 || dq as usize > params.max_gap {
                continue; // not collinear, or too far apart on the read
            }
            if score[j] + kf <= best {
                continue; // cannot win, see above
            }
            let s = extend_score(score[j], dr, dq, k, log2);
            if s > best {
                (best, best_j) = (s, j as u32);
            }
        }
        score[i] = best;
        pred[i] = best_j;
    }
    (score, pred)
}

/// Chain one strand's sorted `keys`, pushing every chain onto `out`
/// with its contig, in contig-local coordinates. `orig_pos` maps a
/// key's read position back to forward read coordinates.
fn chain_one_strand(
    keys: &[u64],
    starts: &[u32],
    k: usize,
    params: &ChainParams,
    strand: bool,
    orig_pos: impl Fn(u32) -> u32,
    out: &mut Vec<(u32, Chain)>,
) {
    let (score, pred) = chain_dp(keys, starts, k, params, log2_table());
    // Peel chains best-first; each anchor belongs to at most one chain,
    // but every chain above the floor is reported (the -P behaviour).
    // Only ends above the floor start a chain; the stable sort visits
    // them in the order a sort of all `n` would.
    let mut order: Vec<u32> = (0..keys.len() as u32)
        .filter(|&i| score[i as usize] >= params.min_score)
        .collect();
    order.sort_by(|&a, &b| score[b as usize].total_cmp(&score[a as usize]));
    let mut used = vec![false; keys.len()];
    for &end in &order {
        if used[end as usize] {
            continue;
        }
        let (mut q_lo, mut q_hi) = (u32::MAX, 0u32);
        let (mut t_lo, mut t_hi) = (u32::MAX, 0u32);
        let mut members = 0;
        let mut cur = end;
        // Stop at a chain's start or at an anchor claimed by a better
        // chain.
        while cur != NO_PRED && !used[cur as usize] {
            used[cur as usize] = true;
            members += 1;
            let (r, q) = unpack(keys[cur as usize]);
            let q = orig_pos(q); // report original (unflipped) read coordinates
            (t_lo, t_hi) = (t_lo.min(r), t_hi.max(r));
            (q_lo, q_hi) = (q_lo.min(q), q_hi.max(q));
            cur = pred[cur as usize];
        }
        if members < params.min_anchors {
            continue;
        }
        let c = contig_of(starts, t_lo);
        let start = starts[c];
        out.push((
            c as u32,
            Chain {
                score: score[end as usize],
                anchors: members,
                read_start: q_lo as usize,
                read_end: q_hi as usize + k,
                ref_start: (t_lo - start) as usize,
                ref_end: (t_hi - start) as usize + k,
                reverse: strand,
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The chainer before packed keys and the skip, kept as its oracle:
    /// copied anchors under a tuple-key sort, a DP that scores every
    /// collinear predecessor, and a members `Vec` per peeled chain.
    mod oracle {
        use super::super::{closed_log2, Anchor, Chain, ChainParams};

        #[derive(Debug, Clone, Copy)]
        struct DpAnchor {
            sort_pos: u32,
            orig_pos: u32,
            ref_pos: u32,
        }

        pub(super) fn chain_anchors(
            anchors: &[Anchor],
            k: usize,
            params: &ChainParams,
        ) -> Vec<Chain> {
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

        pub(super) fn extend_score(prev: f64, dr: i64, dq: i64, k: usize) -> f64 {
            let dd = (dr - dq).unsigned_abs();
            let gain = (dq.min(dr) as f64).min(k as f64);
            prev + gain - (0.01 * k as f64 * dd as f64 + 0.5 * closed_log2(dd))
        }

        /// The DP with the `dr > max_gap` early exit and no skip.
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
                for j in (i.saturating_sub(params.lookback)..i).rev() {
                    let dr = anchors[i].ref_pos as i64 - anchors[j].ref_pos as i64;
                    if dr as usize > params.max_gap {
                        break;
                    }
                    let dq = anchors[i].sort_pos as i64 - anchors[j].sort_pos as i64;
                    if dr <= 0 || dq <= 0 || dq as usize > params.max_gap {
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

        fn chain_one_strand(
            anchors: &[DpAnchor],
            k: usize,
            params: &ChainParams,
            strand: bool,
        ) -> Vec<Chain> {
            let n = anchors.len();
            let (score, pred) = chain_dp(anchors, k, params);
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
                        break;
                    }
                    members.push(i);
                    used[i] = true;
                    cur = pred[i];
                }
                if members.len() < params.min_anchors {
                    continue;
                }
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
    }

    /// The DP loop before the `dr > max_gap` early exit and the skip:
    /// every predecessor in the lookback window is scored.
    fn chain_dp_exhaustive(
        keys: &[u64],
        k: usize,
        params: &ChainParams,
    ) -> (Vec<f64>, Vec<Option<usize>>) {
        let n = keys.len();
        let mut score = vec![0f64; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        for i in 0..n {
            score[i] = k as f64;
            for j in (i.saturating_sub(params.lookback)..i).rev() {
                let ((ri, qi), (rj, qj)) = (unpack(keys[i]), unpack(keys[j]));
                let dr = ri as i64 - rj as i64;
                let dq = qi as i64 - qj as i64;
                if dr <= 0 || dq <= 0 {
                    continue;
                }
                if dr as usize > params.max_gap || dq as usize > params.max_gap {
                    continue;
                }
                let s = oracle::extend_score(score[j], dr, dq, k);
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

        /// The early exit and the skip are exact: same scores (bit for
        /// bit), same predecessors, on random anchor clouds and on
        /// periodic (tandem-repeat-like) sets whose ref gaps straddle
        /// `max_gap`.
        #[test]
        fn early_exit_dp_equals_the_exhaustive_loop(
            cloud in prop::collection::vec((0u32..600, 0u32..4_000), 0..120),
            period in 1u32..400,
            copies in 1u32..12,
            max_gap in 1usize..1_500,
            lookback in 1usize..60,
        ) {
            let mut keys: Vec<u64> = cloud.iter().map(|&(q, r)| u64::from(r) << 32 | u64::from(q)).collect();
            // Periodic part: the same read positions recur every
            // `period` reference bases.
            for c in 0..copies {
                for q in (0..200).step_by(25) {
                    keys.push(u64::from(c * period + q) << 32 | u64::from(q));
                }
            }
            keys.sort_unstable();
            let params = ChainParams { lookback, max_gap, ..ChainParams::default() };
            let (score, pred) = chain_dp(&keys, &[0], 15, &params, log2_table());
            let (want_score, want_pred) = chain_dp_exhaustive(&keys, 15, &params);
            let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&score), bits(&want_score));
            let pred: Vec<Option<usize>> =
                pred.iter().map(|&p| (p != NO_PRED).then_some(p as usize)).collect();
            prop_assert_eq!(pred, want_pred);
        }
    }

    /// A chain as a comparable value, its score as bits.
    fn exact(chains: &[Chain]) -> Vec<(u64, usize, usize, usize, usize, usize, bool)> {
        chains
            .iter()
            .map(|c| {
                let ends = (c.read_start, c.read_end, c.ref_start, c.ref_end);
                (
                    c.score.to_bits(),
                    c.anchors,
                    ends.0,
                    ends.1,
                    ends.2,
                    ends.3,
                    c.reverse,
                )
            })
            .collect()
    }

    /// The chainer equals its oracle on one generated case: a random
    /// cloud on both strands, spread up to 250× on the reference so
    /// gap differences pass the 8192-entry log2 table, plus `copies`
    /// of one noisy diagonal `period` bases apart on one strand, where
    /// predecessors compete.
    #[allow(clippy::too_many_arguments)]
    fn chainer_matches_the_oracle(
        cloud: &[(u32, u32, bool)],
        spread: u32,
        walk: &[(u32, u32)],
        (period, copies): (u32, u32),
        repeat_strand: bool,
        k: usize,
        params: ChainParams,
    ) {
        let mut anchors: Vec<Anchor> = cloud
            .iter()
            .map(|&(read_pos, r, reverse)| Anchor {
                read_pos,
                ref_pos: r * spread,
                reverse,
            })
            .collect();
        for c in 0..copies {
            let (mut q, mut r) = (0u32, c * period);
            for &(step, jitter) in walk {
                q += step;
                r = (r + step + jitter).saturating_sub(6);
                let read_pos = if repeat_strand { 4_000 - q } else { q };
                anchors.push(Anchor {
                    read_pos,
                    ref_pos: r,
                    reverse: repeat_strand,
                });
            }
        }
        let got = chain_anchors(&anchors, k, &params);
        let want = oracle::chain_anchors(&anchors, k, &params);
        assert_eq!(exact(&got), exact(&want), "params {params:?}, k {k}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn chain_anchors_equals_the_tuple_sort_oracle(
            cloud in prop::collection::vec((0u32..2_000, 0u32..4_000, any::<bool>()), 0..160),
            spread in 1u32..250,
            walk in prop::collection::vec((1u32..40, 0u32..13), 0..80),
            repeats in (1u32..3_000, 1u32..12),
            repeat_strand in any::<bool>(),
            k in 5usize..28,
            (lookback, max_gap) in (1usize..60, 1usize..20_000),
            (min_score, min_anchors) in (0u32..80, 0usize..6),
        ) {
            let params = ChainParams { lookback, max_gap, min_score: min_score as f64, min_anchors };
            chainer_matches_the_oracle(&cloud, spread, &walk, repeats, repeat_strand, k, params);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_280))]

        #[test]
        #[ignore = "10x the cases of chain_anchors_equals_the_tuple_sort_oracle; CI runs it in the --ignored job"]
        fn chain_anchors_equals_the_tuple_sort_oracle_10x(
            cloud in prop::collection::vec((0u32..2_000, 0u32..4_000, any::<bool>()), 0..160),
            spread in 1u32..250,
            walk in prop::collection::vec((1u32..40, 0u32..13), 0..80),
            repeats in (1u32..3_000, 1u32..12),
            repeat_strand in any::<bool>(),
            k in 5usize..28,
            (lookback, max_gap) in (1usize..60, 1usize..20_000),
            (min_score, min_anchors) in (0u32..80, 0usize..6),
        ) {
            let params = ChainParams { lookback, max_gap, min_score: min_score as f64, min_anchors };
            chainer_matches_the_oracle(&cloud, spread, &walk, repeats, repeat_strand, k, params);
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
                    let got = extend_score(prev, dr, dq, k, log2_table());
                    assert_eq!(got.to_bits(), closed.to_bits(), "dd={dd} k={k}");
                }
            }
        }
    }

    /// Chain `anchors` over contigs that start at `starts`, and check
    /// the result against each contig chained on its own by the oracle
    /// chainer, in local coordinates, merged stably by score. A contig
    /// owns `[starts[c], starts[c + 1])`.
    fn chain_checked(anchors: &[Anchor], starts: &[u32]) -> Vec<(u32, Chain)> {
        let params = ChainParams::default();
        let mut want = Vec::new();
        for (c, &start) in starts.iter().enumerate() {
            let end = starts.get(c + 1).map_or(u32::MAX, |&e| e);
            let local: Vec<Anchor> = anchors
                .iter()
                .filter(|a| (start..end).contains(&a.ref_pos))
                .map(|a| Anchor {
                    ref_pos: a.ref_pos - start,
                    ..*a
                })
                .collect();
            let chains = oracle::chain_anchors(&local, 15, &params);
            want.extend(chains.into_iter().map(|chain| (c as u32, chain)));
        }
        want.sort_by(|a, b| b.1.score.total_cmp(&a.1.score));
        let got = chain_contigs(anchors, starts, 15, &params);
        let split = |v: &[(u32, Chain)]| -> (Vec<u32>, Vec<Chain>) { v.iter().cloned().unzip() };
        let ((got_c, got_ch), (want_c, want_ch)) = (split(&got), split(&want));
        assert_eq!(got_c, want_c, "contigs");
        assert_eq!(exact(&got_ch), exact(&want_ch), "chains");
        got
    }

    /// `(contig, strand, anchors, score)` of each chain, in order.
    fn shape(chains: &[(u32, Chain)]) -> Vec<(u32, bool, usize, f64)> {
        let key = |(c, ch): &(u32, Chain)| (*c, ch.reverse, ch.anchors, ch.score);
        chains.iter().map(key).collect()
    }

    /// Twenty anchors 20 bases apart on one diagonal from reference
    /// position `from`, on `strand`. Every step scores `k` = 15.
    fn diagonal(from: u32, strand: bool) -> Vec<Anchor> {
        let at = |i: u32| Anchor {
            read_pos: if strand { (19 - i) * 20 } else { i * 20 },
            ref_pos: from + i * 20,
            reverse: strand,
        };
        (0..20).map(at).collect()
    }

    /// A diagonal that crosses a contig start, its gaps far inside
    /// `max_gap`, chains into one on one contig and into two halves
    /// across the boundary, on either strand.
    #[test]
    fn collinear_anchors_across_a_contig_start_do_not_chain() {
        for strand in [false, true] {
            let anchors = diagonal(800, strand);
            assert_eq!(
                shape(&chain_checked(&anchors, &[0])),
                [(0, strand, 20, 300.0)]
            );
            let got = chain_checked(&anchors, &[0, 1_000]);
            assert_eq!(
                shape(&got),
                [(0, strand, 10, 150.0), (1, strand, 10, 150.0)]
            );
            assert_eq!((got[1].1.ref_start, got[1].1.ref_end), (0, 195));
        }
    }

    /// Empty contigs — first, between two others and last — own no
    /// anchor, and the contigs around them keep their indices.
    #[test]
    fn empty_contigs_first_between_and_last_own_nothing() {
        let starts = [0, 0, 1_000, 1_000, 2_000];
        let owners = [0, 999, 1_000, 1_999].map(|pos| contig_of(&starts, pos));
        assert_eq!(owners, [1, 1, 3, 3]);
        for strand in [false, true] {
            let got = chain_checked(&diagonal(800, strand), &starts);
            assert_eq!(
                shape(&got),
                [(1, strand, 10, 150.0), (3, strand, 10, 150.0)]
            );
        }
    }

    /// Chains of one score come out by contig, then strand: the
    /// forward chains, one on each side of a contig start that they
    /// would chain across, bracket a reverse chain of contig 0.
    #[test]
    fn equal_score_chains_on_two_contigs_come_out_in_contig_order() {
        let mut anchors = diagonal(800, false);
        anchors.extend(diagonal(100, true).into_iter().take(10));
        let got = chain_checked(&anchors, &[0, 1_000]);
        let want = [
            (0, false, 10, 150.0),
            (0, true, 10, 150.0),
            (1, false, 10, 150.0),
        ];
        assert_eq!(shape(&got), want);
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
