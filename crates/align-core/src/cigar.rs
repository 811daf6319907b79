//! CIGAR strings: the alignment encoding shared by every aligner.
//!
//! Conventions (fixed for the whole suite):
//!
//! * the *query* is the read / pattern, the *target* is the reference /
//!   text;
//! * [`CigarOp::Match`] (`=`, printed `M`) and [`CigarOp::Mismatch`]
//!   (`X`) consume one base of each;
//! * [`CigarOp::Ins`] (`I`) consumes **query only** (a base present in
//!   the read but not the reference);
//! * [`CigarOp::Del`] (`D`) consumes **target only**.
//!
//! The unit-cost edit distance of an alignment is `#X + #I + #D`.

use crate::seq::Seq;
use crate::AlignError;

/// One alignment operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CigarOp {
    /// Query base equals target base; consumes both.
    Match,
    /// Query base differs from target base; consumes both. Cost 1.
    Mismatch,
    /// Base present in the query only. Cost 1.
    Ins,
    /// Base present in the target only. Cost 1.
    Del,
}

impl CigarOp {
    /// The character used in the textual representation.
    #[inline]
    pub fn symbol(self) -> char {
        match self {
            CigarOp::Match => 'M',
            CigarOp::Mismatch => 'X',
            CigarOp::Ins => 'I',
            CigarOp::Del => 'D',
        }
    }

    /// Unit edit cost of the operation.
    #[inline]
    pub fn cost(self) -> usize {
        match self {
            CigarOp::Match => 0,
            _ => 1,
        }
    }

    /// Number of query bases consumed.
    #[inline]
    pub fn query_len(self) -> usize {
        match self {
            CigarOp::Match | CigarOp::Mismatch | CigarOp::Ins => 1,
            CigarOp::Del => 0,
        }
    }

    /// Number of target bases consumed.
    #[inline]
    pub fn target_len(self) -> usize {
        match self {
            CigarOp::Match | CigarOp::Mismatch | CigarOp::Del => 1,
            CigarOp::Ins => 0,
        }
    }

    /// Parse from the symbol produced by [`CigarOp::symbol`]. `=` is
    /// accepted as an alias for `M`.
    pub fn from_symbol(c: char) -> Option<CigarOp> {
        match c {
            'M' | '=' => Some(CigarOp::Match),
            'X' => Some(CigarOp::Mismatch),
            'I' => Some(CigarOp::Ins),
            'D' => Some(CigarOp::Del),
            _ => None,
        }
    }
}

/// A run-length encoded CIGAR.
///
/// ```
/// use align_core::{Cigar, CigarOp};
/// let mut c = Cigar::new();
/// c.push(CigarOp::Match);
/// c.push(CigarOp::Match);
/// c.push(CigarOp::Ins);
/// assert_eq!(c.to_string(), "2M1I");
/// assert_eq!(c.edit_cost(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cigar {
    runs: Vec<(u32, CigarOp)>,
}

impl Cigar {
    /// An empty CIGAR.
    pub fn new() -> Cigar {
        Cigar::default()
    }

    /// Build from individual operations, run-length encoding as we go.
    pub fn from_ops<I: IntoIterator<Item = CigarOp>>(ops: I) -> Cigar {
        let mut c = Cigar::new();
        for op in ops {
            c.push(op);
        }
        c
    }

    /// Parse the textual form (e.g. `"12M1X3D"`).
    pub fn parse(s: &str) -> Result<Cigar, AlignError> {
        let mut c = Cigar::new();
        let mut count: u64 = 0;
        let mut saw_digit = false;
        for ch in s.chars() {
            if let Some(d) = ch.to_digit(10) {
                count = count * 10 + d as u64;
                saw_digit = true;
                if count > u32::MAX as u64 {
                    return Err(AlignError::InvalidCigar {
                        reason: format!("run length overflow in {s:?}"),
                    });
                }
            } else if let Some(op) = CigarOp::from_symbol(ch) {
                if !saw_digit || count == 0 {
                    return Err(AlignError::InvalidCigar {
                        reason: format!("operation {ch:?} without positive count"),
                    });
                }
                c.push_run(count as u32, op);
                count = 0;
                saw_digit = false;
            } else {
                return Err(AlignError::InvalidCigar {
                    reason: format!("unexpected character {ch:?}"),
                });
            }
        }
        if saw_digit {
            return Err(AlignError::InvalidCigar {
                reason: "trailing count without operation".to_string(),
            });
        }
        Ok(c)
    }

    /// Append one operation, merging with the final run when possible.
    #[inline]
    pub fn push(&mut self, op: CigarOp) {
        self.push_run(1, op);
    }

    /// Append `count` copies of `op`.
    pub fn push_run(&mut self, count: u32, op: CigarOp) {
        if count == 0 {
            return;
        }
        if let Some(last) = self.runs.last_mut() {
            if last.1 == op {
                last.0 += count;
                return;
            }
        }
        self.runs.push((count, op));
    }

    /// Append individual operations in order, merging runs as
    /// [`Cigar::push`] would, one run at a time instead of one op.
    pub fn extend_from_ops(&mut self, ops: &[CigarOp]) {
        for run in ops.chunk_by(|a, b| a == b) {
            self.push_run(run.len() as u32, run[0]);
        }
    }

    /// The run-length encoded form.
    pub fn runs(&self) -> &[(u32, CigarOp)] {
        &self.runs
    }

    /// Iterate over individual operations (expanding runs).
    pub fn ops(&self) -> impl Iterator<Item = CigarOp> + '_ {
        self.runs
            .iter()
            .flat_map(|&(n, op)| std::iter::repeat_n(op, n as usize))
    }

    /// True if there are no operations.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total number of operations (expanded).
    pub fn op_len(&self) -> usize {
        self.runs.iter().map(|&(n, _)| n as usize).sum()
    }

    /// Unit edit cost (`#X + #I + #D`).
    pub fn edit_cost(&self) -> usize {
        self.runs
            .iter()
            .map(|&(n, op)| n as usize * op.cost())
            .sum()
    }

    /// Query bases consumed.
    pub fn query_len(&self) -> usize {
        self.runs
            .iter()
            .map(|&(n, op)| n as usize * op.query_len())
            .sum()
    }

    /// Target bases consumed.
    pub fn target_len(&self) -> usize {
        self.runs
            .iter()
            .map(|&(n, op)| n as usize * op.target_len())
            .sum()
    }

    /// Append the textual form (e.g. `"12M1X3D"`) to `out`. This is
    /// the one CIGAR renderer: [`Display`](core::fmt::Display) and every
    /// record formatter call it. Each run is a digit loop and a symbol,
    /// not a trip through `core::fmt` — a 10 kb noisy read has thousands
    /// of runs.
    pub fn write_to(&self, out: &mut String) {
        out.reserve(4 * self.runs.len());
        let mut digits = [0u8; 10]; // u32::MAX has 10 digits
        for &(n, op) in &self.runs {
            let mut rest = n;
            let mut at = digits.len();
            loop {
                at -= 1;
                digits[at] = b'0' + (rest % 10) as u8;
                rest /= 10;
                if rest == 0 {
                    break;
                }
            }
            out.extend(digits[at..].iter().map(|&d| char::from(d)));
            out.push(op.symbol());
        }
    }

    /// Validate this CIGAR against a concrete sequence pair:
    ///
    /// * the query/target lengths consumed must equal the sequence
    ///   lengths exactly (global alignment);
    /// * every `M` must sit on equal bases and every `X` on unequal ones.
    pub fn validate(&self, query: &Seq, target: &Seq) -> Result<(), AlignError> {
        let (mut qi, mut ti) = (0usize, 0usize);
        for op in self.ops() {
            match op {
                CigarOp::Match | CigarOp::Mismatch => {
                    if qi >= query.len() || ti >= target.len() {
                        return Err(AlignError::InvalidCigar {
                            reason: format!(
                                "diagonal op at q={qi},t={ti} beyond sequence ends ({}x{})",
                                query.len(),
                                target.len()
                            ),
                        });
                    }
                    let equal = query.get_code(qi) == target.get_code(ti);
                    if equal != (op == CigarOp::Match) {
                        return Err(AlignError::InvalidCigar {
                            reason: format!(
                                "{} at q={qi},t={ti} but bases are {}equal",
                                op.symbol(),
                                if equal { "" } else { "not " }
                            ),
                        });
                    }
                    qi += 1;
                    ti += 1;
                }
                CigarOp::Ins => {
                    if qi >= query.len() {
                        return Err(AlignError::InvalidCigar {
                            reason: format!("I at q={qi} beyond query end {}", query.len()),
                        });
                    }
                    qi += 1;
                }
                CigarOp::Del => {
                    if ti >= target.len() {
                        return Err(AlignError::InvalidCigar {
                            reason: format!("D at t={ti} beyond target end {}", target.len()),
                        });
                    }
                    ti += 1;
                }
            }
        }
        if qi != query.len() || ti != target.len() {
            return Err(AlignError::InvalidCigar {
                reason: format!(
                    "consumed {qi}/{} query and {ti}/{} target bases",
                    query.len(),
                    target.len()
                ),
            });
        }
        Ok(())
    }

    /// Per-operation counts `(matches, mismatches, insertions, deletions)`.
    pub fn op_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for &(n, op) in &self.runs {
            let n = n as usize;
            match op {
                CigarOp::Match => c.0 += n,
                CigarOp::Mismatch => c.1 += n,
                CigarOp::Ins => c.2 += n,
                CigarOp::Del => c.3 += n,
            }
        }
        c
    }
}

impl core::fmt::Display for Cigar {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut text = String::new();
        self.write_to(&mut text);
        f.write_str(&text)
    }
}

impl FromIterator<CigarOp> for Cigar {
    fn from_iter<T: IntoIterator<Item = CigarOp>>(iter: T) -> Cigar {
        Cigar::from_ops(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn op_properties() {
        assert_eq!(CigarOp::Match.cost(), 0);
        assert_eq!(CigarOp::Mismatch.cost(), 1);
        assert_eq!(CigarOp::Ins.query_len(), 1);
        assert_eq!(CigarOp::Ins.target_len(), 0);
        assert_eq!(CigarOp::Del.query_len(), 0);
        assert_eq!(CigarOp::Del.target_len(), 1);
    }

    #[test]
    fn run_length_merging() {
        let c = Cigar::from_ops([
            CigarOp::Match,
            CigarOp::Match,
            CigarOp::Ins,
            CigarOp::Ins,
            CigarOp::Match,
        ]);
        assert_eq!(c.runs().len(), 3);
        assert_eq!(c.to_string(), "2M2I1M");
        assert_eq!(c.op_len(), 5);
    }

    #[test]
    fn extend_from_ops_merges_like_push() {
        use CigarOp::{Del, Ins, Match, Mismatch};
        let windows: [&[CigarOp]; 5] = [
            &[Match, Match, Ins],
            &[Ins, Ins, Match],
            &[],
            &[Match, Mismatch, Del, Del, Match],
            &[Match],
        ];
        let mut pushed = Cigar::new();
        let mut extended = Cigar::new();
        for ops in windows {
            ops.iter().for_each(|&op| pushed.push(op));
            extended.extend_from_ops(ops);
        }
        assert_eq!(extended, pushed);
        assert_eq!(extended.to_string(), "2M3I2M1X2D2M");
    }

    #[test]
    fn parse_roundtrip() {
        let c = Cigar::parse("12M1X3D2I").unwrap();
        assert_eq!(c.to_string(), "12M1X3D2I");
        assert_eq!(c.edit_cost(), 6);
        assert_eq!(c.query_len(), 15);
        assert_eq!(c.target_len(), 16);
    }

    #[test]
    fn digit_loop_renders_like_core_fmt() {
        let ops = [
            CigarOp::Match,
            CigarOp::Mismatch,
            CigarOp::Ins,
            CigarOp::Del,
        ];
        let mut c = Cigar::new();
        let mut expected = String::from("prefix:");
        for (i, n) in [1, 9, 10, 99, 100, 12_345, 1_000_000_000, u32::MAX]
            .into_iter()
            .enumerate()
        {
            let op = ops[i % ops.len()];
            c.push_run(n, op);
            expected.push_str(&format!("{n}{}", op.symbol()));
        }
        let mut got = String::from("prefix:");
        c.write_to(&mut got);
        assert_eq!(got, expected);
        assert_eq!(format!("prefix:{c}"), expected);
        assert_eq!(Cigar::new().to_string(), "");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Cigar::parse("M").is_err());
        assert!(Cigar::parse("3").is_err());
        assert!(Cigar::parse("0M").is_err());
        assert!(Cigar::parse("3Q").is_err());
        assert!(Cigar::parse("4294967296M").is_err());
    }

    #[test]
    fn parse_accepts_equals_alias() {
        let c = Cigar::parse("3=1X").unwrap();
        assert_eq!(c.to_string(), "3M1X");
    }

    #[test]
    fn validate_accepts_correct_alignment() {
        // query ACGT vs target AGGT: A=A, C!=G, G=G, T=T -> 1M1X2M
        let c = Cigar::parse("1M1X2M").unwrap();
        c.validate(&seq("ACGT"), &seq("AGGT")).unwrap();
    }

    #[test]
    fn validate_rejects_wrong_match() {
        let c = Cigar::parse("4M").unwrap();
        assert!(c.validate(&seq("ACGT"), &seq("AGGT")).is_err());
    }

    #[test]
    fn validate_rejects_wrong_lengths() {
        let c = Cigar::parse("3M").unwrap();
        assert!(c.validate(&seq("ACGT"), &seq("ACG")).is_err());
        let c = Cigar::parse("4M").unwrap();
        assert!(c.validate(&seq("ACGT"), &seq("ACG")).is_err());
    }

    #[test]
    fn validate_indels() {
        // query ACGT vs target AGT: delete query C -> 1M1I2M
        let c = Cigar::parse("1M1I2M").unwrap();
        c.validate(&seq("ACGT"), &seq("AGT")).unwrap();
        // query AGT vs target ACGT -> 1M1D2M
        let c = Cigar::parse("1M1D2M").unwrap();
        c.validate(&seq("AGT"), &seq("ACGT")).unwrap();
    }

    #[test]
    fn validate_overrun_is_rejected() {
        let c = Cigar::parse("1M1I").unwrap();
        assert!(c.validate(&seq("A"), &seq("A")).is_err());
        let c = Cigar::parse("1M1D").unwrap();
        assert!(c.validate(&seq("A"), &seq("A")).is_err());
    }

    #[test]
    fn op_counts() {
        let c = Cigar::parse("2M1X3I4D").unwrap();
        assert_eq!(c.op_counts(), (2, 1, 3, 4));
    }

    #[test]
    fn empty_cigar_validates_empty_pair() {
        Cigar::new().validate(&Seq::new(), &Seq::new()).unwrap();
        assert!(Cigar::new().validate(&seq("A"), &Seq::new()).is_err());
    }
}
