//! The alignment record shared by every aligner in the suite.

use crate::cigar::Cigar;
use crate::seq::Seq;
use crate::AlignError;

/// Result of aligning one query against one target (global alignment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Unit edit cost of the alignment (`#X + #I + #D`).
    pub edit_distance: usize,
    /// The alignment path. Always covers the whole query and target.
    pub cigar: Cigar,
}

impl Alignment {
    /// Build an alignment record, deriving the distance from the CIGAR.
    pub fn from_cigar(cigar: Cigar) -> Alignment {
        Alignment {
            edit_distance: cigar.edit_cost(),
            cigar,
        }
    }

    /// Check internal consistency and validity against the sequence pair.
    ///
    /// This is the correctness contract every aligner in the suite must
    /// satisfy; tests call it on every produced alignment.
    pub fn check(&self, query: &Seq, target: &Seq) -> Result<(), AlignError> {
        if self.cigar.edit_cost() != self.edit_distance {
            return Err(AlignError::InvalidCigar {
                reason: format!(
                    "recorded distance {} != CIGAR cost {}",
                    self.edit_distance,
                    self.cigar.edit_cost()
                ),
            });
        }
        self.cigar.validate(query, target)
    }

    /// Identity over alignment columns = matches / (M + X + I + D), in
    /// `[0, 1]`. This is the identity reported in the PAF-like records
    /// (it needs no sequences, only the CIGAR); an empty alignment is
    /// defined as identity 1.
    pub fn column_identity(&self) -> f64 {
        let (m, x, i, d) = self.cigar.op_counts();
        let cols = m + x + i + d;
        if cols == 0 {
            return 1.0;
        }
        m as f64 / cols as f64
    }

    /// Identity = matches / max(query, target) length, in `[0, 1]`.
    pub fn identity(&self, query: &Seq, target: &Seq) -> f64 {
        let denom = query.len().max(target.len());
        if denom == 0 {
            return 1.0;
        }
        let (m, _, _, _) = self.cigar.op_counts();
        m as f64 / denom as f64
    }
}

/// The interface every global aligner in the suite implements, so the
/// harness and the examples can treat GenASM, the baselines and the GPU
/// path uniformly.
pub trait GlobalAligner {
    /// Align `query` against `target` end-to-end and return the alignment.
    fn align(&self, query: &Seq, target: &Seq) -> crate::Result<Alignment>;

    /// Short human-readable name used in reports (e.g. `"ksw2"`).
    fn name(&self) -> &'static str;
}

/// A pretty-printer producing the classic three-row alignment view,
/// useful in examples and debugging output.
pub fn format_alignment(query: &Seq, target: &Seq, aln: &Alignment, width: usize) -> String {
    let mut qrow = String::new();
    let mut mrow = String::new();
    let mut trow = String::new();
    let (mut qi, mut ti) = (0usize, 0usize);
    for op in aln.cigar.ops() {
        use crate::cigar::CigarOp::*;
        match op {
            Match | Mismatch => {
                qrow.push(query.get(qi).to_ascii() as char);
                trow.push(target.get(ti).to_ascii() as char);
                mrow.push(if op == Match { '|' } else { '*' });
                qi += 1;
                ti += 1;
            }
            Ins => {
                qrow.push(query.get(qi).to_ascii() as char);
                trow.push('-');
                mrow.push(' ');
                qi += 1;
            }
            Del => {
                qrow.push('-');
                trow.push(target.get(ti).to_ascii() as char);
                mrow.push(' ');
                ti += 1;
            }
        }
    }
    let mut out = String::new();
    let width = width.max(10);
    let total = qrow.len();
    let mut pos = 0;
    while pos < total {
        let end = (pos + width).min(total);
        out.push_str("Q: ");
        out.push_str(&qrow[pos..end]);
        out.push('\n');
        out.push_str("   ");
        out.push_str(&mrow[pos..end]);
        out.push('\n');
        out.push_str("T: ");
        out.push_str(&trow[pos..end]);
        out.push('\n');
        pos = end;
        if pos < total {
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cigar::CigarOp;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn from_cigar_derives_distance() {
        let c = Cigar::parse("2M1X1I").unwrap();
        let a = Alignment::from_cigar(c);
        assert_eq!(a.edit_distance, 2);
    }

    #[test]
    fn check_detects_distance_mismatch() {
        let mut a = Alignment::from_cigar(Cigar::parse("2M").unwrap());
        a.edit_distance = 5;
        assert!(a.check(&seq("AC"), &seq("AC")).is_err());
    }

    #[test]
    fn identity_of_perfect_match() {
        let a = Alignment::from_cigar(Cigar::from_ops(vec![CigarOp::Match; 4]));
        assert!((a.identity(&seq("ACGT"), &seq("ACGT")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_empty_pair_is_one() {
        let a = Alignment::from_cigar(Cigar::new());
        assert!((a.identity(&Seq::new(), &Seq::new()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pretty_print_shape() {
        let q = seq("ACGT");
        let t = seq("AGT");
        let a = Alignment::from_cigar(Cigar::parse("1M1I2M").unwrap());
        a.check(&q, &t).unwrap();
        let s = format_alignment(&q, &t, &a, 80);
        assert!(s.contains("Q: ACGT"));
        assert!(s.contains("T: A-GT"));
    }

    #[test]
    fn pretty_print_wraps() {
        let q = Seq::from_bases(&[crate::seq::Base::A; 25]);
        let t = q.clone();
        let a = Alignment::from_cigar(Cigar::from_ops(vec![CigarOp::Match; 25]));
        let s = format_alignment(&q, &t, &a, 10);
        // 25 columns at width 10 -> 3 blocks of 3 lines separated by blanks.
        assert_eq!(s.lines().filter(|l| l.starts_with("Q: ")).count(), 3);
    }
}
