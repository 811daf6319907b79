//! KSW2-style aligner: banded global alignment with affine gap costs
//! (Gotoh 1982), the scoring model and role of minimap2's KSW2 kernel
//! (`ksw2_gg`/`ksw2_extz`; Suzuki & Kasahara 2018, Li 2018).
//!
//! This is the paper's "exact scoring" CPU baseline. Like KSW2 it is
//! quadratic in the band area — which is exactly why GenASM beats it by
//! an order of magnitude on 10 kbp reads (experiments E1/E5).
//!
//! The implementation is a cache-friendly banded Gotoh with one rolling
//! row of `(H, E, F)` scores and one packed traceback byte per banded
//! cell (2 bits H-source + 1 bit E-extend + 1 bit F-extend), mirroring
//! KSW2's `p` matrix.

use align_core::{AlignError, Alignment, Cigar, CigarOp, GlobalAligner, Seq};

const NEG_INF: i32 = i32::MIN / 2;

/// Affine-gap scoring parameters (penalties are positive numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scoring {
    /// Score added per matching base (positive).
    pub match_score: i32,
    /// Penalty subtracted per mismatching base (positive).
    pub mismatch: i32,
    /// Gap-open penalty (positive); a gap of length `L` costs
    /// `gap_open + L * gap_ext`.
    pub gap_open: i32,
    /// Gap-extension penalty (positive).
    pub gap_ext: i32,
}

impl Scoring {
    /// minimap2's PacBio preset (`-x map-pb`): a=2, b=5, q=4, e=2.
    pub fn map_pb() -> Scoring {
        Scoring {
            match_score: 2,
            mismatch: 5,
            gap_open: 4,
            gap_ext: 2,
        }
    }

    /// Unit-cost edit distance encoded as scores (match 0, everything
    /// else -1): the optimal score is then `-edit_distance`. Used by
    /// tests to cross-check against the NW oracle.
    pub fn unit() -> Scoring {
        Scoring {
            match_score: 0,
            mismatch: 1,
            gap_open: 0,
            gap_ext: 1,
        }
    }

    #[inline]
    fn substitution(&self, eq: bool) -> i32 {
        if eq {
            self.match_score
        } else {
            -self.mismatch
        }
    }
}

// Traceback byte layout.
const SRC_MASK: u8 = 0b11;
const SRC_DIAG: u8 = 0;
const SRC_E: u8 = 1; // H came from E (gap in query, consumes target)
const SRC_F: u8 = 2; // H came from F (gap in target, consumes query)
const E_EXT: u8 = 0b0100;
const F_EXT: u8 = 0b1000;

/// Banded affine-gap global aligner.
#[derive(Debug, Clone)]
pub struct Ksw2Aligner {
    /// Scoring parameters.
    pub scoring: Scoring,
    /// Band half-width around the length-difference-adjusted diagonal.
    /// The result is optimal when the optimal path stays within the
    /// band (KSW2's `-w`); a too-narrow band yields a valid but
    /// possibly suboptimal alignment, exactly like KSW2.
    pub band: usize,
}

impl Ksw2Aligner {
    /// KSW2 with minimap2's PacBio scoring and a 751-wide band
    /// (minimap2's long-read default bandwidth is 500; we widen it a
    /// little because our evaluation uses raw candidate windows).
    pub fn new() -> Ksw2Aligner {
        Ksw2Aligner {
            scoring: Scoring::map_pb(),
            band: 751,
        }
    }

    /// Unbanded (full DP) variant — exact but O(nm); used by tests.
    pub fn exact(scoring: Scoring) -> Ksw2Aligner {
        Ksw2Aligner {
            scoring,
            band: usize::MAX,
        }
    }

    /// Align and also return the affine-gap score.
    pub fn align_scored(&self, query: &Seq, target: &Seq) -> align_core::Result<(Alignment, i32)> {
        let m = query.len();
        let n = target.len();
        if m == 0 || n == 0 {
            let mut c = Cigar::new();
            c.push_run(m as u32, CigarOp::Ins);
            c.push_run(n as u32, CigarOp::Del);
            let score = if m + n == 0 {
                0
            } else {
                -(self.scoring.gap_open + self.scoring.gap_ext * (m + n) as i32)
            };
            return Ok((Alignment::from_cigar(c), score));
        }

        // The banded window on row i spans diagonals
        // j - i in [dlo, dhi].
        let diff = n as i64 - m as i64;
        let band = self.band.min(m + n) as i64;
        let dlo = diff.min(0) - band;
        let dhi = diff.max(0) + band;
        let width = (dhi - dlo + 1) as usize;

        let col_lo = |i: usize| -> usize { (i as i64 + dlo).max(0) as usize };
        let col_hi = |i: usize| -> usize { ((i as i64 + dhi).min(n as i64)) as usize };

        // Rolling row of H; F is carried per column in `f_row`; E is a
        // running value within each row.
        let mut h_prev = vec![NEG_INF; n + 1];
        let mut h_cur = vec![NEG_INF; n + 1];
        let mut f_row = vec![NEG_INF; n + 1];

        // Traceback bytes, one per banded cell.
        let mut tb = vec![0u8; (m + 1) * width];
        let tb_idx = |i: usize, j: usize| -> usize {
            let off = (j as i64 - i as i64 - dlo) as usize;
            debug_assert!(off < width);
            i * width + off
        };

        let sc = self.scoring;
        // Row 0: leading deletions.
        for j in 0..=col_hi(0) {
            h_prev[j] = if j == 0 {
                0
            } else {
                -(sc.gap_open + sc.gap_ext * j as i32)
            };
            if j > 0 {
                tb[tb_idx(0, j)] = SRC_E | if j > 1 { E_EXT } else { 0 };
            }
        }

        for i in 1..=m {
            let lo = col_lo(i);
            let hi = col_hi(i);
            let qb = query.get_code(i - 1);
            // Left boundary of the band on this row.
            let mut e_here = NEG_INF; // E[i][lo-1 .. ] running value
            let mut h_left = NEG_INF;
            if lo == 0 {
                h_left = -(sc.gap_open + sc.gap_ext * i as i32);
                h_cur[0] = h_left;
                tb[tb_idx(i, 0)] = SRC_F | if i > 1 { F_EXT } else { 0 };
            }
            for j in lo.max(1)..=hi {
                // F[i][j]: gap in target (consume query), from row i-1.
                let f_open = h_prev[j].saturating_add(-(sc.gap_open + sc.gap_ext));
                let f_ext = f_row[j].saturating_add(-sc.gap_ext);
                let (f, f_from_ext) = if f_ext > f_open {
                    (f_ext, true)
                } else {
                    (f_open, false)
                };
                f_row[j] = f;

                // E[i][j]: gap in query (consume target), from the left.
                let e_open = h_left.saturating_add(-(sc.gap_open + sc.gap_ext));
                let e_ext = e_here.saturating_add(-sc.gap_ext);
                let (e, e_from_ext) = if e_ext > e_open {
                    (e_ext, true)
                } else {
                    (e_open, false)
                };
                e_here = e;

                // H[i][j].
                let eq = qb == target.get_code(j - 1);
                let diag = h_prev[j - 1].saturating_add(sc.substitution(eq));
                let (h, src) = if diag >= e && diag >= f {
                    (diag, SRC_DIAG)
                } else if e >= f {
                    (e, SRC_E)
                } else {
                    (f, SRC_F)
                };
                let mut byte = src;
                if e_from_ext {
                    byte |= E_EXT;
                }
                if f_from_ext {
                    byte |= F_EXT;
                }
                tb[tb_idx(i, j)] = byte;
                h_cur[j] = h;
                h_left = h;
            }
            // Guard cells just outside the band.
            if lo > 0 {
                h_cur[lo - 1] = NEG_INF;
            }
            if hi < n {
                h_cur[hi + 1] = NEG_INF;
                f_row[hi + 1] = NEG_INF;
            }
            std::mem::swap(&mut h_prev, &mut h_cur);
        }

        let score = h_prev[n];
        if score <= NEG_INF / 2 {
            return Err(AlignError::NoAlignment);
        }

        // Traceback.
        let mut rev: Vec<CigarOp> = Vec::with_capacity(m.max(n));
        let (mut i, mut j) = (m, n);
        #[derive(PartialEq)]
        enum St {
            H,
            E,
            F,
        }
        let mut st = St::H;
        while i > 0 || j > 0 {
            let byte = tb[tb_idx(i, j)];
            match st {
                St::H => {
                    if i == 0 {
                        st = St::E;
                        continue;
                    }
                    if j == 0 {
                        st = St::F;
                        continue;
                    }
                    match byte & SRC_MASK {
                        SRC_DIAG => {
                            let eq = query.get_code(i - 1) == target.get_code(j - 1);
                            rev.push(if eq {
                                CigarOp::Match
                            } else {
                                CigarOp::Mismatch
                            });
                            i -= 1;
                            j -= 1;
                        }
                        SRC_E => st = St::E,
                        _ => st = St::F,
                    }
                }
                St::E => {
                    debug_assert!(j > 0, "E state with no target left");
                    rev.push(CigarOp::Del);
                    let ext = byte & E_EXT != 0;
                    j -= 1;
                    if !ext {
                        st = St::H;
                    }
                }
                St::F => {
                    debug_assert!(i > 0, "F state with no query left");
                    rev.push(CigarOp::Ins);
                    let ext = byte & F_EXT != 0;
                    i -= 1;
                    if !ext {
                        st = St::H;
                    }
                }
            }
        }
        rev.reverse();
        let aln = Alignment::from_cigar(Cigar::from_ops(rev));
        Ok((aln, score))
    }
}

impl Default for Ksw2Aligner {
    fn default() -> Ksw2Aligner {
        Ksw2Aligner::new()
    }
}

impl GlobalAligner for Ksw2Aligner {
    fn align(&self, query: &Seq, target: &Seq) -> align_core::Result<Alignment> {
        self.align_scored(query, target).map(|(a, _)| a)
    }

    fn name(&self) -> &'static str {
        "ksw2"
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
    fn perfect_match_scores_match_points() {
        let a = Ksw2Aligner::exact(Scoring::map_pb());
        let q = seq("ACGTACGT");
        let (aln, score) = a.align_scored(&q, &q).unwrap();
        aln.check(&q, &q).unwrap();
        assert_eq!(aln.edit_distance, 0);
        assert_eq!(score, 16);
    }

    #[test]
    fn unit_scoring_equals_edit_distance() {
        let a = Ksw2Aligner::exact(Scoring::unit());
        let cases = [
            ("ACGT", "ACGT"),
            ("ACGT", "ACCT"),
            ("ACGT", "AGT"),
            ("AGT", "ACGT"),
            ("AAAA", "TTTT"),
            ("ACGTACGTAC", "CGTACGGTACA"),
        ];
        for (q, t) in cases {
            let (q, t) = (seq(q), seq(t));
            let (aln, score) = a.align_scored(&q, &t).unwrap();
            aln.check(&q, &t).unwrap();
            assert_eq!(-score as usize, nw_distance(&q, &t), "{q:?} vs {t:?}");
        }
    }

    #[test]
    fn affine_gap_prefers_single_long_gap() {
        // With affine costs one 3-gap beats three 1-gaps.
        let a = Ksw2Aligner::exact(Scoring::map_pb());
        let q = seq("AAACCCGGGTTT");
        let t = seq("AAAGGGTTT"); // CCC deleted from query
        let (aln, _) = a.align_scored(&q, &t).unwrap();
        aln.check(&q, &t).unwrap();
        let (_, _, ins, _) = aln.cigar.op_counts();
        assert_eq!(ins, 3);
        // All three insertions must be in one run.
        let ins_runs = aln
            .cigar
            .runs()
            .iter()
            .filter(|(_, op)| *op == CigarOp::Ins)
            .count();
        assert_eq!(ins_runs, 1);
    }

    #[test]
    fn empty_inputs() {
        let a = Ksw2Aligner::new();
        let (aln, score) = a.align_scored(&Seq::new(), &seq("ACG")).unwrap();
        aln.check(&Seq::new(), &seq("ACG")).unwrap();
        assert_eq!(score, -(4 + 2 * 3));
        let (aln, _) = a.align_scored(&seq("AC"), &Seq::new()).unwrap();
        aln.check(&seq("AC"), &Seq::new()).unwrap();
        let (_, score) = a.align_scored(&Seq::new(), &Seq::new()).unwrap();
        assert_eq!(score, 0);
    }

    #[test]
    fn banded_equals_exact_when_band_sufficient() {
        let exact = Ksw2Aligner::exact(Scoring::map_pb());
        let banded = Ksw2Aligner {
            scoring: Scoring::map_pb(),
            band: 8,
        };
        let q = seq(&"ACGTTGCA".repeat(10));
        let mut tb = q.to_ascii();
        tb[20] = b'T';
        tb.remove(50);
        let t = seq(std::str::from_utf8(&tb).unwrap());
        let (a1, s1) = exact.align_scored(&q, &t).unwrap();
        let (a2, s2) = banded.align_scored(&q, &t).unwrap();
        a1.check(&q, &t).unwrap();
        a2.check(&q, &t).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(a1.edit_distance, a2.edit_distance);
    }

    #[test]
    fn narrow_band_still_valid() {
        // A band of 0 around the shifted diagonal: valid CIGAR, maybe
        // suboptimal score — KSW2's contract with small -w.
        let a = Ksw2Aligner {
            scoring: Scoring::map_pb(),
            band: 0,
        };
        let q = seq("ACGTACGTACGT");
        let t = seq("ACGTACGAACGT");
        let (aln, _) = a.align_scored(&q, &t).unwrap();
        aln.check(&q, &t).unwrap();
    }

    #[test]
    fn length_difference_is_respected_by_band() {
        let a = Ksw2Aligner {
            scoring: Scoring::map_pb(),
            band: 2,
        };
        let q = seq("ACGT");
        let t = seq(&"ACGT".repeat(6)); // big length difference
        let (aln, _) = a.align_scored(&q, &t).unwrap();
        aln.check(&q, &t).unwrap();
    }
}
