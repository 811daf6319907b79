//! Anchor chaining (minimap2's chaining DP, simplified).
//!
//! Matching read minimizers against the reference index yields
//! *anchors* `(read pos, ref pos, strand)`. Chaining finds collinear
//! runs of anchors with minimap2's gap-cost model; with `-P` semantics
//! we keep *every* chain above the score floor, not just the primary —
//! that is what produced the paper's 138,929 candidate locations from
//! 500 reads.
//!
//! One pass over the anchors splits them by strand, packed one per
//! word, `ref_pos << 32 | read_pos`, with read positions flipped to
//! `u32::MAX - read_pos` on the reverse strand. Each strand's words are
//! sorted as integers and split once into two `u32` arrays, `rs` and
//! `qs`, which the DP and the peel read.
//!
//! # The DP
//!
//! Each anchor `i` walks its predecessors `j` downwards, at most
//! `lookback` of them. Keys are sorted, so `dr = rs[i] - rs[j] >= 0`
//! always, and `dr` only grows as `j` walks down: past `max_gap` no
//! earlier predecessor qualifies, and the walk ends. A predecessor is
//! collinear when `dr != 0` and `1 <= dq <= max_gap`, with `dq = qs[i] -
//! qs[j]` tested as `qs[j] < qs[i]` before it is subtracted, so a
//! negative `dq` never wraps into range whatever `max_gap` is (it is
//! compared saturated to `u32::MAX`, which no `u32` difference
//! exceeds). Of the collinear ones only those that could win are
//! scored:
//!
//! - **The skip.** A predecessor `j` whose `score[j] + k` does not beat
//!   the best score found so far is skipped unscored. Its extension adds
//!   a gain of at most `k` and subtracts a cost of at least 0, and `f64`
//!   rounding is monotone, so the computed `(score[j] + gain) - cost` is
//!   at most the computed `score[j] + k` and cannot win the strict `>`.
//! - **The run-max walk end.** A *run* starts at the contig's first key
//!   and wherever `rs[j] - rs[j - 1] > max_gap`; `run_max[j]` is the
//!   largest score from the start of `j`'s run to `j`. The walk ends
//!   once `run_max[j] + k <= best`. That drops no scored predecessor:
//!   every predecessor from the run's start to `j` scores at most
//!   `run_max[j]`, so it fails the skip against this `best` and against
//!   every later one (`best` only grows); every predecessor before the
//!   run's start is in another contig, or more than `max_gap` away on
//!   the reference (`dr` is at least the gap that started the run), so
//!   the walk would have ended there anyway.
//!
//! So every score, predecessor and chain is the one the full loop
//! gives: the *scored* set is the loop's, and only unscored visits are
//! dropped. On the `accurate-short` benchmark's reads (seed 1, the first
//! 4 000) a read scores 972 predecessors, and the walk end takes its
//! visits, the one that ends a walk included, from 6 098 to 2 880.
//!
//! # The peel
//!
//! Chains are peeled best-first: an end starts a walk along `pred`
//! that claims anchors until it meets one a better chain claimed, and
//! every walk long enough is a chain. The order is score descending,
//! then index ascending (what a stable sort by score gives), over the
//! ends above the floor, with two exact reductions:
//!
//! - **Tips only.** An end `j` with a successor `i` (`pred[i] == j`)
//!   that scores strictly more is left out: `i` comes before `j` in the
//!   order, and by `i`'s turn `i` is claimed, by its own walk or by an
//!   earlier one; either walk goes on from `i` to `j`, so `j` is claimed
//!   before its turn, which would do nothing. (An equal score does not
//!   drop `j`: `j < i` puts `j` first.) On the `accurate-short` reads
//!   this takes the ends to sort from 256 to 31 per read.
//! - **One packed sort.** The kept ends sort by one `sort_unstable` on
//!   `!score.to_bits() << 32 | index`. Every score is finite and at
//!   least `+0.0` (the best starts at `k` and only a strictly larger
//!   score replaces it), and for such `f64`s the bits order as the
//!   values do; equal keys are equal ends, so the unstable sort gives
//!   the stable sort's order.
//!
//! # Over the genome
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
//! - The reverse-strand flip `c - pos` reverses order and keeps every
//!   `dq` whatever the constant `c`, so `u32::MAX` in place of a read's
//!   or the genome's largest read position changes no key order and no
//!   score.
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
    let (rs, qs, fwd) = split_strands(anchors);
    let mut chains = Vec::new();
    for (strand, range) in [(false, 0..fwd), (true, fwd..rs.len())] {
        let (rs, qs) = (&rs[range.clone()], &qs[range]);
        chain_one_strand(rs, qs, starts, k, params, strand, &mut chains);
    }
    chains.sort_by(|a, b| b.1.score.total_cmp(&a.1.score).then(a.0.cmp(&b.0)));
    chains
}

/// Split `anchors` by strand in one pass and sort each strand: returns
/// `(rs, qs, fwd)`, the reference and (strand-flipped) read positions,
/// forward strand in `..fwd` and reverse strand in `fwd..`.
fn split_strands(anchors: &[Anchor]) -> (Vec<u32>, Vec<u32>, usize) {
    let n = anchors.len();
    assert!(u32::try_from(n).is_ok(), "2^32 anchors or more");
    // Each anchor is packed into its strand's part of `keys`: the
    // forward strand from the front, the reverse strand from the back.
    // For reverse-strand chains, collinearity means read position
    // decreasing as ref position increases; the flip `!pos` (its own
    // inverse) lets the same DP apply. One word per anchor sorts as the
    // pair does, and equal words are equal anchors.
    let mut keys = vec![0u64; n];
    let (mut fwd, mut rev) = (0, n);
    for a in anchors {
        let (slot, q) = if a.reverse {
            rev -= 1;
            (rev, !a.read_pos)
        } else {
            fwd += 1;
            (fwd - 1, a.read_pos)
        };
        keys[slot] = u64::from(a.ref_pos) << 32 | u64::from(q);
    }
    let (fwd_keys, rev_keys) = keys.split_at_mut(fwd);
    fwd_keys.sort_unstable();
    rev_keys.sort_unstable();
    let rs = keys.iter().map(|&key| (key >> 32) as u32).collect();
    let qs = keys.iter().map(|&key| key as u32).collect();
    (rs, qs, fwd)
}

/// Gap-cost score of extending the chain ending at `anchors[j]` with
/// `anchors[i]`, given that chain's score (`dr`, `dq` both positive
/// and within `max_gap`). `log2` is [`log2_table`].
#[inline]
fn extend_score(prev: f64, dr: u32, dq: u32, k: usize, log2: &[f64]) -> f64 {
    let dd = dr.abs_diff(dq);
    let gain = f64::from(dq.min(dr)).min(k as f64);
    let cost = 0.01 * k as f64 * f64::from(dd) + 0.5 * gap_log2(log2, dd);
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
fn gap_log2(table: &[f64], dd: u32) -> f64 {
    match table.get(dd as usize) {
        Some(&v) => v,
        None => closed_log2(dd.into()),
    }
}

/// One strand's DP: the best score of a chain ending at each anchor,
/// its predecessor ([`NO_PRED`] for none), and the work done.
struct Dp {
    score: Vec<f64>,
    pred: Vec<u32>,
    /// Predecessors the walks visited, and of those the ones scored.
    visits: u64,
    scored: u64,
}

/// The chaining DP over one strand's sorted anchors `rs`/`qs` (see the
/// module docs: the skip and the run-max walk end are exact), over
/// contigs that start at `starts`; no predecessor comes from another
/// contig.
fn chain_dp(
    rs: &[u32],
    qs: &[u32],
    starts: &[u32],
    k: usize,
    params: &ChainParams,
    log2: &[f64],
) -> Dp {
    let n = rs.len();
    let (qs, kf) = (&qs[..n], k as f64);
    // Every `dr` and `dq` fits a `u32`, so no `u32` exceeds a larger gap.
    let gap = u32::try_from(params.max_gap).unwrap_or(u32::MAX);
    let mut dp = Dp {
        score: vec![0f64; n],
        pred: vec![NO_PRED; n],
        visits: 0,
        scored: 0,
    };
    let score = &mut dp.score;
    let mut run_max = vec![0f64; n];
    // `rs[floor]` is the first key of the current contig, and `next`
    // the global start of the contig after it.
    let (mut floor, mut next) = (0, 0u64);
    for i in 0..n {
        let (ri, qi) = (rs[i], qs[i]);
        if u64::from(ri) >= next {
            let c = contig_of(starts, ri);
            (floor, next) = (i, starts.get(c + 1).map_or(u64::MAX, |&s| s.into()));
        }
        let (mut best, mut best_j) = (kf, NO_PRED);
        let lo = i.saturating_sub(params.lookback).max(floor);
        for j in (lo..i).rev() {
            dp.visits += 1;
            let dr = ri - rs[j];
            if dr > gap || run_max[j] + kf <= best {
                break; // no predecessor from here down can win
            }
            let qj = qs[j];
            let collinear = (dr != 0) & (qj < qi) & (qi.wrapping_sub(qj) <= gap);
            if !collinear || score[j] + kf <= best {
                continue; // not collinear, or cannot win
            }
            dp.scored += 1;
            let s = extend_score(score[j], dr, qi - qj, k, log2);
            if s > best {
                (best, best_j) = (s, j as u32);
            }
        }
        score[i] = best;
        dp.pred[i] = best_j;
        run_max[i] = if i == floor || ri - rs[i - 1] > gap {
            best
        } else {
            run_max[i - 1].max(best)
        };
    }
    dp
}

/// Chain one strand's sorted anchors `rs`/`qs`, pushing every chain
/// onto `out` with its contig, in contig-local coordinates and forward
/// read coordinates.
fn chain_one_strand(
    rs: &[u32],
    qs: &[u32],
    starts: &[u32],
    k: usize,
    params: &ChainParams,
    strand: bool,
    out: &mut Vec<(u32, Chain)>,
) {
    let n = rs.len();
    let Dp { score, pred, .. } = chain_dp(rs, qs, starts, k, params, log2_table());
    // Peel chains best-first; each anchor belongs to at most one chain,
    // but every chain above the floor is reported (the -P behaviour).
    // Only tips above the floor start a walk, in the packed order (see
    // the module docs).
    let mut beaten = vec![false; n];
    for (i, &j) in pred.iter().enumerate() {
        if j != NO_PRED && score[i] > score[j as usize] {
            beaten[j as usize] = true;
        }
    }
    let mut order: Vec<u128> = (0..n)
        .filter(|&i| !beaten[i] && score[i] >= params.min_score)
        .map(|i| u128::from(!score[i].to_bits()) << 32 | i as u128)
        .collect();
    order.sort_unstable();
    let mut used = vec![false; n];
    for end in order.into_iter().map(|key| key as u32) {
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
            let (r, q) = (rs[cur as usize], qs[cur as usize]);
            let q = if strand { !q } else { q }; // report unflipped read coordinates
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

    /// The reference and (strand-flipped) read position of a packed key.
    fn unpack(key: u64) -> (u32, u32) {
        ((key >> 32) as u32, key as u32)
    }

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
            let (rs, qs): (Vec<u32>, Vec<u32>) = keys.iter().map(|&key| unpack(key)).unzip();
            let Dp { score, pred, .. } = chain_dp(&rs, &qs, &[0], 15, &params, log2_table());
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

    /// The DP equals the exhaustive loop on each strand (scores as
    /// bits, predecessors) and the chainer equals its oracle, at
    /// extreme parameters and positions: a random cloud on both strands
    /// plus one noisy diagonal on each, near 0 or up to `u32::MAX` on
    /// the reference and on the read.
    fn extremes_match_the_exhaustive_dp_and_the_oracle(
        cloud: &[(u32, u32, bool)],
        walk: &[(u32, u32)],
        (high_ref, high_read): (bool, bool),
        k: usize,
        params: ChainParams,
    ) {
        let base = |high: bool| if high { u32::MAX - 7_999 } else { 0 };
        let (ref_base, read_base) = (base(high_ref), base(high_read));
        let at = |q: u32, r: u32, reverse: bool| Anchor {
            read_pos: read_base + q,
            ref_pos: ref_base + r,
            reverse,
        };
        let mut anchors: Vec<Anchor> = cloud.iter().map(|&(q, r, rev)| at(q, r, rev)).collect();
        for (c, reverse) in [(0, false), (1, true)] {
            let (mut q, mut r) = (0u32, c * 600);
            for &(step, jitter) in walk {
                (q, r) = (q + step, r + step + jitter);
                anchors.push(at(if reverse { 3_000 - q } else { q }, r, reverse));
            }
        }
        let (rs, qs, fwd) = split_strands(&anchors);
        for range in [0..fwd, fwd..rs.len()] {
            let (rs, qs) = (&rs[range.clone()], &qs[range]);
            let Dp { score, pred, .. } = chain_dp(rs, qs, &[0], k, &params, log2_table());
            let keys: Vec<u64> = rs
                .iter()
                .zip(qs)
                .map(|(&r, &q)| u64::from(r) << 32 | u64::from(q))
                .collect();
            let (want_score, want_pred) = chain_dp_exhaustive(&keys, k, &params);
            let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&score), bits(&want_score), "params {params:?}, k {k}");
            let pred: Vec<Option<usize>> = pred
                .iter()
                .map(|&p| (p != NO_PRED).then_some(p as usize))
                .collect();
            assert_eq!(pred, want_pred, "params {params:?}, k {k}");
        }
        let got = chain_anchors(&anchors, k, &params);
        let want = oracle::chain_anchors(&anchors, k, &params);
        assert_eq!(exact(&got), exact(&want), "params {params:?}, k {k}");
    }

    /// `max_gap` at 0, around `u32::MAX` and at `usize::MAX` (and the
    /// default); `lookback` at 0, 1 and `usize::MAX` (and the default).
    fn extreme_params(
        (gap, look): (usize, usize),
        k: usize,
        (floor, min_anchors): (usize, usize),
    ) -> ChainParams {
        let max_gap = [
            0,
            u32::MAX as usize - 1,
            u32::MAX as usize,
            usize::MAX,
            5_000,
        ][gap];
        ChainParams {
            lookback: [0, 1, usize::MAX, 50][look],
            max_gap,
            min_score: floor.min(k - 1) as f64, // below `k`
            min_anchors,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn extreme_params_equal_the_exhaustive_dp_and_the_oracle(
            cloud in prop::collection::vec((0u32..3_000, 0u32..8_000, any::<bool>()), 0..120),
            walk in prop::collection::vec((1u32..40, 0u32..13), 0..60),
            high in (any::<bool>(), any::<bool>()),
            k in 5usize..28,
            choice in (0usize..5, 0usize..4),
            floors in (0usize..28, 0usize..4),
        ) {
            let params = extreme_params(choice, k, floors);
            extremes_match_the_exhaustive_dp_and_the_oracle(&cloud, &walk, high, k, params);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(640))]

        #[test]
        #[ignore = "10x the cases of extreme_params_equal_the_exhaustive_dp_and_the_oracle; CI runs it in the --ignored job"]
        fn extreme_params_equal_the_exhaustive_dp_and_the_oracle_10x(
            cloud in prop::collection::vec((0u32..3_000, 0u32..8_000, any::<bool>()), 0..120),
            walk in prop::collection::vec((1u32..40, 0u32..13), 0..60),
            high in (any::<bool>(), any::<bool>()),
            k in 5usize..28,
            choice in (0usize..5, 0usize..4),
            floors in (0usize..28, 0usize..4),
        ) {
            let params = extreme_params(choice, k, floors);
            extremes_match_the_exhaustive_dp_and_the_oracle(&cloud, &walk, high, k, params);
        }
    }

    /// Fixed inputs of the DP's work: each read's anchors against a
    /// seeded 100 kbp human-like genome (its repeat families planted),
    /// 30 × 300 bp reads at 0.5% error and 6 × 2 kbp reads at 10%, then
    /// a tandem-repeat set (12 copies of a 400 bp diagonal, 150 bases
    /// apart) on each strand as one more read.
    fn work_inputs() -> (Vec<Vec<Anchor>>, usize) {
        use readsim::{simulate_reads, ErrorModel, Genome, GenomeConfig, ReadConfig};
        let genome = Genome::generate(&GenomeConfig::human_like(100_000, 47));
        let index = MinimizerIndex::build(&genome.seq);
        let mut sets = Vec::new();
        for (count, length, error, seed) in [(30, 300, 0.005, 48), (6, 2_000, 0.10, 49)] {
            let cfg = ReadConfig {
                count,
                length,
                errors: ErrorModel::pacbio_clr(error),
                rc_fraction: 0.5,
                seed,
            };
            let reads = simulate_reads(&genome, &cfg);
            sets.extend(reads.iter().map(|r| collect_anchors(&r.seq, &index)));
        }
        let tandem = (0..12u32)
            .flat_map(|c| {
                (0..400u32).step_by(20).flat_map(move |q| {
                    let ref_pos = c * 150 + q + (7 * q + 3 * c) % 5;
                    let at = |read_pos, reverse| Anchor {
                        read_pos,
                        ref_pos,
                        reverse,
                    };
                    [at(q, false), at(400 - q, true)]
                })
            })
            .collect();
        sets.push(tandem);
        (sets, index.k)
    }

    /// The DP's work is pinned on fixed inputs, per strand, reads and
    /// tandem set apart: the scored predecessors are the full loop's
    /// (the counts of the chainer before the run-max walk end, which
    /// scored the same set), and the visits are the walk end's. A
    /// change to the scored set fails here, and so does losing the walk
    /// end (the visits rise) or the skip (the scored count rises).
    #[test]
    fn dp_work_is_pinned() {
        let (sets, k) = work_inputs();
        let params = ChainParams::default();
        // [reads forward, reads reverse, tandem forward, tandem reverse]
        let (mut scored, mut visits) = ([0u64; 4], [0u64; 4]);
        for (i, anchors) in sets.iter().enumerate() {
            let (rs, qs, fwd) = split_strands(anchors);
            for (strand, range) in [(0, 0..fwd), (1, fwd..rs.len())] {
                let (rs, qs) = (&rs[range.clone()], &qs[range]);
                let dp = chain_dp(rs, qs, &[0], k, &params, log2_table());
                let slot = strand + if i + 1 == sets.len() { 2 } else { 0 };
                scored[slot] += dp.scored;
                visits[slot] += dp.visits;
            }
        }
        assert_eq!(scored, [5_439, 2_666, 370, 370], "the scored set moved");
        // The full loop with the skip visited 53 227, 35 250, 10 725
        // and 10 725.
        assert_eq!(visits, [19_246, 4_474, 10_115, 10_115], "the visits moved");
    }

    /// An end whose successor only ties its score still starts its own
    /// walk, first (the lower index): with `k` = 25 the last anchor
    /// extends the diagonal's end by a gain of 1 at a cost of exactly 1.
    /// The diagonal is the chain, and the tie's walk of one anchor is
    /// too short; had the tie dropped the end from the order, one chain
    /// of 4 anchors would come out.
    #[test]
    fn an_end_tied_by_its_successor_starts_its_own_walk() {
        let anchors = [mk(0, 0), mk(30, 30), mk(60, 60), mk(61, 63)];
        let (rs, qs, _) = split_strands(&anchors);
        let params = ChainParams::default();
        let Dp { score, pred, .. } = chain_dp(&rs, &qs, &[0], 25, &params, log2_table());
        assert_eq!((score[3], pred[3]), (score[2], 2), "the tie");
        let got = chain_anchors(&anchors, 25, &params);
        assert_eq!(
            exact(&got),
            exact(&oracle::chain_anchors(&anchors, 25, &params))
        );
        assert_eq!((got.len(), got[0].anchors, got[0].score), (1, 3, 75.0));
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
                    let got = extend_score(prev, dr as u32, dq as u32, k, log2_table());
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
