//! Edlib-style aligner: Myers' bit-parallel edit-distance algorithm
//! (Myers, JACM 1999) with multi-block words, Ukkonen banding, and
//! iterative band doubling — the same algorithm family as Edlib
//! (Šošić & Šikić, Bioinformatics 2017), which the paper uses as its
//! strongest CPU baseline.
//!
//! Layout: the query runs vertically (one bit per row, 64 rows per
//! block), the text horizontally (one column per character). Per column
//! we keep, for every *active* block, the vertical-delta bitvectors
//! `Pv`/`Mv` and the running score at the block's bottom row. A block is
//! active when it intersects the Ukkonen band `|i - j| <= k`; blocks
//! activated late start from the exact-or-overestimating "phony" state
//! (`Pv = !0`, score above +height), which cannot disturb in-band values
//! (they only ever overestimate out-of-band cells, and min-cost paths of
//! cost ≤ k never leave the band).
//!
//! The traceback stores the per-column block states and reconstructs
//! arbitrary cell values with O(1) popcount queries from block-bottom
//! scores.

use align_core::{AlignError, Alignment, Cigar, CigarOp, GlobalAligner, Seq};

const INF: i64 = i64::MAX / 4;

/// Per-block pattern-match bitmasks: `peq[b][c]` bit `r` = 1 iff
/// `query[64*b + r] == c` (note: 1 = match here, the Myers convention,
/// opposite to GenASM's 0-active).
struct PatternBlocks {
    m: usize,
    nblocks: usize,
    w_last: usize,
    peq: Vec<[u64; 4]>,
}

impl PatternBlocks {
    fn new(query: &Seq) -> PatternBlocks {
        let m = query.len();
        let nblocks = m.div_ceil(64);
        let mut peq = vec![[0u64; 4]; nblocks];
        for i in 0..m {
            peq[i / 64][query.get_code(i) as usize] |= 1u64 << (i % 64);
        }
        let w_last = if m.is_multiple_of(64) { 64 } else { m % 64 };
        PatternBlocks {
            m,
            nblocks,
            w_last,
            peq,
        }
    }

    /// Bit index used for `hout` extraction / score tracking of block `b`.
    #[inline]
    fn out_bit(&self, b: usize) -> u32 {
        if b + 1 == self.nblocks {
            (self.w_last - 1) as u32
        } else {
            63
        }
    }

    /// 1-indexed bottom row of block `b`.
    #[inline]
    fn bottom_row(&self, b: usize) -> usize {
        (64 * (b + 1)).min(self.m)
    }
}

/// One Myers block step (Edlib's `calculateBlock`).
///
/// `hin` is the horizontal delta entering at the block's top row,
/// returns `(Pv', Mv', hout)` where `hout` is the horizontal delta
/// leaving at `out_bit`.
#[inline(always)]
fn advance_block(pv: u64, mv: u64, eq: u64, hin: i32, out_bit: u32) -> (u64, u64, i32) {
    let eq_in = eq | u64::from(hin < 0);
    let xv = eq | mv;
    let xh = (((eq_in & pv).wrapping_add(pv)) ^ pv) | eq_in;
    let ph = mv | !(xh | pv);
    let mh = pv & xh;
    let hout = if ph >> out_bit & 1 != 0 {
        1
    } else if mh >> out_bit & 1 != 0 {
        -1
    } else {
        0
    };
    let ph = (ph << 1) | u64::from(hin > 0);
    let mh = (mh << 1) | u64::from(hin < 0);
    let pv_out = mh | !(xv | ph);
    let mv_out = ph & xv;
    (pv_out, mv_out, hout)
}

/// Stored state of one active block in one column.
#[derive(Clone, Copy)]
struct BlockState {
    pv: u64,
    mv: u64,
    /// Score (edit distance) at the block's bottom row.
    score: i64,
}

/// Per-column snapshot kept for the traceback.
struct ColumnStore {
    b_lo: usize,
    blocks: Vec<BlockState>,
}

struct Store {
    columns: Vec<ColumnStore>,
}

/// Banded multi-block distance computation. Returns `Some(d)` iff the
/// band `k` certifies the result (`d <= k`). When `store` is provided,
/// per-column block states are recorded for the traceback.
fn compute(
    pb: &PatternBlocks,
    text: &Seq,
    k: usize,
    mut store: Option<&mut Store>,
) -> Option<usize> {
    let m = pb.m;
    let n = text.len();
    if m.abs_diff(n) > k {
        return None;
    }
    let mut pv = vec![!0u64; pb.nblocks];
    let mut mv = vec![0u64; pb.nblocks];
    let mut score: Vec<i64> = (0..pb.nblocks).map(|b| pb.bottom_row(b) as i64).collect();

    // Initially active blocks: rows 1 ..= min(m, 1 + k).
    let mut b_hi = (1 + k).min(m).div_ceil(64) - 1;
    if let Some(s) = store.as_deref_mut() {
        s.columns.clear();
        s.columns.reserve(n);
    }

    for j in 1..=n {
        let c = text.get_code(j - 1) as usize;
        let lo_row = j.saturating_sub(k).max(1);
        let hi_row = (j + k).min(m);
        debug_assert!(lo_row <= m, "band left the pattern, |m-n|>k was checked");
        let b_lo = (lo_row - 1) / 64;
        let nb_hi = (hi_row - 1) / 64;
        // Activate at most one new block per column (the band grows by
        // one row per column).
        while b_hi < nb_hi {
            b_hi += 1;
            pv[b_hi] = !0;
            mv[b_hi] = 0;
            score[b_hi] = score[b_hi - 1] + (pb.bottom_row(b_hi) - pb.bottom_row(b_hi - 1)) as i64;
        }
        // Top boundary: exact +1 for b_lo == 0 (NW first row), an
        // overestimate otherwise (sound within the band).
        let mut hin: i32 = 1;
        for b in b_lo..=b_hi {
            let (npv, nmv, hout) = advance_block(pv[b], mv[b], pb.peq[b][c], hin, pb.out_bit(b));
            pv[b] = npv;
            mv[b] = nmv;
            score[b] += i64::from(hout);
            hin = hout;
        }
        if let Some(s) = store.as_deref_mut() {
            s.columns.push(ColumnStore {
                b_lo,
                blocks: (b_lo..=b_hi)
                    .map(|b| BlockState {
                        pv: pv[b],
                        mv: mv[b],
                        score: score[b],
                    })
                    .collect(),
            });
        }
    }
    if b_hi + 1 != pb.nblocks {
        return None; // the last block never entered the band
    }
    let d = score[pb.nblocks - 1];
    if d >= 0 && (d as usize) <= k {
        Some(d as usize)
    } else {
        None
    }
}

/// Cell value `D[i][j]` (1-indexed) from the stored column states;
/// `INF` when the cell was outside the stored band.
fn value(pb: &PatternBlocks, store: &Store, i: usize, j: usize) -> i64 {
    if j == 0 {
        return i as i64;
    }
    if i == 0 {
        return j as i64;
    }
    let col = &store.columns[j - 1];
    let b = (i - 1) / 64;
    if b < col.b_lo || b >= col.b_lo + col.blocks.len() {
        return INF;
    }
    let st = &col.blocks[b - col.b_lo];
    let bottom = pb.bottom_row(b);
    // Sum of vertical deltas for rows i+1 ..= bottom of this block.
    let lo_bit = (i - 1) % 64 + 1; // bit of row i+1
    let hi_bit = (bottom - 1) % 64; // bit of the bottom row
    if lo_bit > hi_bit {
        return st.score; // i is the bottom row
    }
    let mask = (!0u64 << lo_bit) & (!0u64 >> (63 - hi_bit));
    let delta = (st.pv & mask).count_ones() as i64 - (st.mv & mask).count_ones() as i64;
    st.score - delta
}

/// Alignment modes, mirroring Edlib's `NW` / `SHW` / `HW`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MyersMode {
    /// Global: both sequences end-to-end (Edlib `NW`).
    Global,
    /// Prefix: the whole query against a *prefix* of the target
    /// (Edlib `SHW`, "semi-global with free target end").
    Prefix,
    /// Infix: the whole query against any *substring* of the target
    /// (Edlib `HW`, the mapping mode).
    Infix,
}

/// Result of a mode-aware distance computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeDistance {
    /// The edit distance under the mode's boundary conditions.
    pub distance: usize,
    /// Target position (exclusive) where the best alignment ends.
    pub end: usize,
}

/// The public Edlib-style aligner.
///
/// ```
/// use baselines::MyersAligner;
/// use align_core::{Seq, GlobalAligner};
/// let a = MyersAligner::new();
/// let q = Seq::from_ascii(b"ACGTACGT").unwrap();
/// let t = Seq::from_ascii(b"ACCTACGT").unwrap();
/// assert_eq!(a.align(&q, &t).unwrap().edit_distance, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MyersAligner {
    /// Initial band half-width for the doubling search (default 64).
    pub initial_k: usize,
}

impl MyersAligner {
    /// Aligner with the default doubling schedule.
    pub fn new() -> MyersAligner {
        MyersAligner { initial_k: 64 }
    }

    /// Distance under an Edlib-style mode (unbanded, distance-only).
    ///
    /// `Global` delegates to the banded [`MyersAligner::distance`];
    /// `Prefix` and `Infix` run a full multi-block pass per column and
    /// track the best bottom-row score, like Edlib's SHW/HW modes.
    pub fn distance_mode(&self, query: &Seq, target: &Seq, mode: MyersMode) -> ModeDistance {
        match mode {
            MyersMode::Global => ModeDistance {
                distance: self.distance(query, target),
                end: target.len(),
            },
            MyersMode::Prefix | MyersMode::Infix => {
                let m = query.len();
                let n = target.len();
                if m == 0 {
                    // Empty query: prefix mode may end anywhere at the
                    // cost of the consumed prefix; best is the empty one.
                    return ModeDistance {
                        distance: 0,
                        end: 0,
                    };
                }
                let pb = PatternBlocks::new(query);
                let mut pv = vec![!0u64; pb.nblocks];
                let mut mv = vec![0u64; pb.nblocks];
                let mut score = pb.m as i64;
                let mut best = ModeDistance {
                    distance: m, // align to the empty prefix/substring
                    end: 0,
                };
                let top_hin: i32 = match mode {
                    MyersMode::Prefix => 1, // D[0][j] = j (anchored start)
                    MyersMode::Infix => 0,  // D[0][j] = 0 (free start)
                    MyersMode::Global => unreachable!(),
                };
                for j in 1..=n {
                    let c = target.get_code(j - 1) as usize;
                    let mut hin = top_hin;
                    for b in 0..pb.nblocks {
                        let (npv, nmv, hout) =
                            advance_block(pv[b], mv[b], pb.peq[b][c], hin, pb.out_bit(b));
                        pv[b] = npv;
                        mv[b] = nmv;
                        if b + 1 == pb.nblocks {
                            score += i64::from(hout);
                        }
                        hin = hout;
                    }
                    if score >= 0 && (score as usize) < best.distance {
                        best = ModeDistance {
                            distance: score as usize,
                            end: j,
                        };
                    }
                }
                best
            }
        }
    }

    /// Edit distance only (no traceback storage).
    pub fn distance(&self, query: &Seq, target: &Seq) -> usize {
        if query.is_empty() {
            return target.len();
        }
        if target.is_empty() {
            return query.len();
        }
        let pb = PatternBlocks::new(query);
        let mut k = self
            .initial_k
            .max(1)
            .max(query.len().abs_diff(target.len()));
        loop {
            if let Some(d) = compute(&pb, target, k, None) {
                return d;
            }
            k = (k * 2).min(query.len() + target.len());
        }
    }
}

impl GlobalAligner for MyersAligner {
    fn align(&self, query: &Seq, target: &Seq) -> align_core::Result<Alignment> {
        let m = query.len();
        let n = target.len();
        if m == 0 || n == 0 {
            let mut c = Cigar::new();
            c.push_run(m as u32, CigarOp::Ins);
            c.push_run(n as u32, CigarOp::Del);
            return Ok(Alignment::from_cigar(c));
        }
        let d = self.distance(query, target);
        // Re-run with the smallest certifying band and store the states.
        let k_tb = d.max(m.abs_diff(n)).max(1);
        let pb = PatternBlocks::new(query);
        let mut store = Store {
            columns: Vec::new(),
        };
        let d2 = compute(&pb, target, k_tb, Some(&mut store)).ok_or(AlignError::NoAlignment)?;
        debug_assert_eq!(d, d2, "store pass must reproduce the distance");

        // Standard NW walk over value() queries.
        let mut rev: Vec<CigarOp> = Vec::with_capacity(m.max(n));
        let (mut i, mut j) = (m, n);
        let mut cur = d2 as i64;
        while i > 0 && j > 0 {
            let eq = query.get_code(i - 1) == target.get_code(j - 1);
            let diag = value(&pb, &store, i - 1, j - 1);
            if diag + i64::from(!eq) == cur {
                rev.push(if eq {
                    CigarOp::Match
                } else {
                    CigarOp::Mismatch
                });
                i -= 1;
                j -= 1;
                cur = diag;
                continue;
            }
            let left = value(&pb, &store, i, j - 1);
            if left + 1 == cur {
                rev.push(CigarOp::Del);
                j -= 1;
                cur = left;
                continue;
            }
            let up = value(&pb, &store, i - 1, j);
            assert_eq!(
                up + 1,
                cur,
                "Myers traceback stuck at ({i},{j}): diag={diag} left={left} up={up} cur={cur}"
            );
            rev.push(CigarOp::Ins);
            i -= 1;
            cur = up;
        }
        rev.extend(std::iter::repeat_n(CigarOp::Ins, i));
        rev.extend(std::iter::repeat_n(CigarOp::Del, j));
        rev.reverse();
        let aln = Alignment::from_cigar(Cigar::from_ops(rev));
        debug_assert_eq!(aln.edit_distance, d2);
        Ok(aln)
    }

    fn name(&self) -> &'static str {
        "edlib"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align_core::nw_distance;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn single_block_distances() {
        let a = MyersAligner::new();
        assert_eq!(a.distance(&seq("ACGT"), &seq("ACGT")), 0);
        assert_eq!(a.distance(&seq("ACGT"), &seq("ACCT")), 1);
        assert_eq!(a.distance(&seq("ACGT"), &seq("AGT")), 1);
        assert_eq!(a.distance(&seq("AGT"), &seq("ACGT")), 1);
        assert_eq!(a.distance(&seq("AAAA"), &seq("TTTT")), 4);
    }

    #[test]
    fn empty_inputs() {
        let a = MyersAligner::new();
        assert_eq!(a.distance(&Seq::new(), &seq("ACG")), 3);
        assert_eq!(a.distance(&seq("ACG"), &Seq::new()), 3);
        assert_eq!(a.distance(&Seq::new(), &Seq::new()), 0);
        let aln = a.align(&seq("ACG"), &Seq::new()).unwrap();
        aln.check(&seq("ACG"), &Seq::new()).unwrap();
    }

    #[test]
    fn multi_block_exact() {
        let a = MyersAligner::new();
        let q = seq(&"ACGTTGCA".repeat(40)); // 320 chars, 5 blocks
        assert_eq!(a.distance(&q, &q), 0);
    }

    #[test]
    fn multi_block_against_oracle() {
        let a = MyersAligner::new();
        let q = seq(&"ACGTTGCAGGATCCAT".repeat(12)); // 192
        let mut t_bases = q.to_ascii();
        t_bases[10] = b'T';
        t_bases.remove(77);
        t_bases.insert(150, b'G');
        let t = seq(std::str::from_utf8(&t_bases).unwrap());
        assert_eq!(a.distance(&q, &t), nw_distance(&q, &t));
    }

    #[test]
    fn partial_last_block_boundary() {
        let a = MyersAligner::new();
        // Lengths straddling the 64-bit block boundary.
        for len in [63, 64, 65, 127, 128, 129] {
            let q: Seq = (0..len)
                .map(|i| align_core::Base::from_code((i % 4) as u8))
                .collect();
            let mut t = q.to_ascii();
            t[len / 2] = if t[len / 2] == b'A' { b'C' } else { b'A' };
            let t = seq(std::str::from_utf8(&t).unwrap());
            assert_eq!(a.distance(&q, &t), 1, "len {len}");
            let aln = a.align(&q, &t).unwrap();
            aln.check(&q, &t).unwrap();
            assert_eq!(aln.edit_distance, 1, "len {len}");
        }
    }

    #[test]
    fn very_different_lengths() {
        let a = MyersAligner::new();
        let q = seq("ACGT");
        let t = seq(&"ACGT".repeat(50));
        assert_eq!(a.distance(&q, &t), 196);
        let aln = a.align(&q, &t).unwrap();
        aln.check(&q, &t).unwrap();
        assert_eq!(aln.edit_distance, 196);
    }

    #[test]
    fn alignment_matches_oracle_cost() {
        let a = MyersAligner::new();
        let cases = [
            ("ACGTACGTAC", "ACGAACGTAC"),
            ("ACACACACAC", "CACACACACA"),
            ("AAAATTTTGGGGCCCC", "AAATTTTGGGCCCCAA"),
        ];
        for (q, t) in cases {
            let (q, t) = (seq(q), seq(t));
            let aln = a.align(&q, &t).unwrap();
            aln.check(&q, &t).unwrap();
            assert_eq!(aln.edit_distance, nw_distance(&q, &t), "{q:?} vs {t:?}");
        }
    }

    /// Oracle for the prefix (SHW) mode: min over prefixes of the
    /// target of the global distance.
    fn oracle_prefix(q: &Seq, t: &Seq) -> usize {
        (0..=t.len())
            .map(|j| nw_distance(q, &t.slice(0, j)))
            .min()
            .unwrap()
    }

    /// Oracle for the infix (HW) mode: min over substrings.
    fn oracle_infix(q: &Seq, t: &Seq) -> usize {
        let mut best = q.len();
        for i in 0..=t.len() {
            for j in i..=t.len() {
                best = best.min(nw_distance(q, &t.slice(i, j - i)));
            }
        }
        best
    }

    #[test]
    fn prefix_mode_matches_oracle() {
        let a = MyersAligner::new();
        let cases = [
            ("ACGT", "ACGTTTTT"),
            ("ACGT", "ACCTGGGG"),
            ("ACGTACGT", "ACGT"),
            ("AAAA", "TTTT"),
        ];
        for (q, t) in cases {
            let (q, t) = (seq(q), seq(t));
            let r = a.distance_mode(&q, &t, MyersMode::Prefix);
            assert_eq!(r.distance, oracle_prefix(&q, &t), "{q:?} vs {t:?}");
            // The reported end must achieve the distance.
            assert_eq!(nw_distance(&q, &t.slice(0, r.end)), r.distance);
        }
    }

    #[test]
    fn infix_mode_matches_oracle() {
        let a = MyersAligner::new();
        let cases = [
            ("ACGT", "TTTTACGTTTTT"),
            ("ACGT", "TTTTAGGTTTTT"),
            ("GATTACA", "CCGATTTACAGG"),
            ("AAAA", "TTTT"),
            ("ACGT", ""),
        ];
        for (q, t) in cases {
            let (q, t) = (seq(q), seq(t));
            let r = a.distance_mode(&q, &t, MyersMode::Infix);
            assert_eq!(r.distance, oracle_infix(&q, &t), "{q:?} in {t:?}");
        }
    }

    #[test]
    fn infix_of_exact_occurrence_is_zero() {
        let a = MyersAligner::new();
        let q = seq(&"ACGTTGCA".repeat(10)); // 80 chars: 2 blocks
        let mut t = seq("TTTT").to_ascii();
        t.extend(q.to_ascii());
        t.extend(b"GGGG");
        let t = seq(std::str::from_utf8(&t).unwrap());
        let r = a.distance_mode(&q, &t, MyersMode::Infix);
        assert_eq!(r.distance, 0);
        assert_eq!(r.end, 84); // occurrence ends after the 4-char pad + 80
    }

    #[test]
    fn global_mode_consistent_with_distance() {
        let a = MyersAligner::new();
        let q = seq("ACGTACGT");
        let t = seq("ACCTACGG");
        let r = a.distance_mode(&q, &t, MyersMode::Global);
        assert_eq!(r.distance, a.distance(&q, &t));
        assert_eq!(r.end, t.len());
    }

    #[test]
    fn empty_query_mode_distances() {
        let a = MyersAligner::new();
        let t = seq("ACGT");
        assert_eq!(
            a.distance_mode(&Seq::new(), &t, MyersMode::Infix).distance,
            0
        );
        assert_eq!(
            a.distance_mode(&Seq::new(), &t, MyersMode::Prefix).distance,
            0
        );
    }

    #[test]
    fn doubling_handles_high_distance() {
        let a = MyersAligner { initial_k: 1 };
        let q = seq(&"A".repeat(100));
        let t = seq(&"T".repeat(100));
        assert_eq!(a.distance(&q, &t), 100);
    }
}
