//! Multi-contig references.
//!
//! Real references are not one sequence: a genome assembly is a set of
//! named contigs (chromosomes, scaffolds), and mapping output reports
//! *contig names and contig-local coordinates*. [`Reference`] is that
//! set, plus the global-coordinate map the genome index uses
//! internally: contigs are laid out back to back in file order, contig
//! `i` occupying the global interval `[offset(i), offset(i) + len_i)`,
//! and [`Reference::locate`] inverts a global position back to
//! `(contig, local)`. No sequence ever spans two contigs — windows,
//! minimizers and chains are all clamped to contig boundaries by the
//! consumers of this type.

use std::sync::Arc;

use crate::seq::Seq;

/// One named reference sequence (a chromosome / scaffold / record of a
/// multi-FASTA file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contig {
    /// Record name (FASTA header up to the first whitespace). Shared
    /// (`Arc<str>`) because every alignment record of this contig
    /// carries it.
    pub name: Arc<str>,
    /// The contig sequence.
    pub seq: Seq,
}

impl Contig {
    /// Contig length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True when the contig holds no bases.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// A multi-contig reference: named contigs in file order plus their
/// global-coordinate layout.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Reference {
    contigs: Vec<Contig>,
    /// `offsets[i]` is the global start of contig `i`; one extra entry
    /// holds the total length so `offsets.windows(2)` spans every
    /// contig.
    offsets: Vec<usize>,
}

impl Reference {
    /// An empty reference (no contigs).
    pub fn new() -> Reference {
        Reference::default()
    }

    /// A single-contig reference — the shape every pre-multi-contig
    /// workload has.
    pub fn single(name: &str, seq: Seq) -> Reference {
        let mut r = Reference::new();
        r.push(name, seq);
        r
    }

    /// Append a contig. Names must be unique: loaders
    /// (`readsim::read_multi_fastx`) validate with a hashed check and
    /// report duplicates as typed errors with file context; this
    /// debug-assert only guards programmatic construction, and is not
    /// a linear scan per push in release builds (assemblies can have
    /// 100k+ scaffolds).
    pub fn push(&mut self, name: &str, seq: Seq) {
        debug_assert!(
            !self.contigs.iter().any(|c| &*c.name == name),
            "duplicate contig name {name:?}"
        );
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let total = *self.offsets.last().unwrap() + seq.len();
        self.offsets.push(total);
        self.contigs.push(Contig {
            name: Arc::from(name),
            seq,
        });
    }

    /// Number of contigs.
    pub fn num_contigs(&self) -> usize {
        self.contigs.len()
    }

    /// True when the reference has no contigs.
    pub fn is_empty(&self) -> bool {
        self.contigs.is_empty()
    }

    /// Total bases across all contigs.
    pub fn total_len(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// The contigs in file order.
    pub fn contigs(&self) -> &[Contig] {
        &self.contigs
    }

    /// Contig `i`.
    ///
    /// # Panics
    /// Panics if `i >= num_contigs()`.
    pub fn contig(&self, i: usize) -> &Contig {
        &self.contigs[i]
    }

    /// Global start of contig `i`.
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Map a global position to `(contig index, contig-local position)`.
    /// Positions on a boundary belong to the *following* contig (every
    /// contig owns `[offset, offset + len)`); empty contigs own no
    /// positions.
    ///
    /// # Panics
    /// Panics if `gpos >= total_len()`.
    pub fn locate(&self, gpos: usize) -> (usize, usize) {
        assert!(
            gpos < self.total_len(),
            "global position {gpos} out of range (total {})",
            self.total_len()
        );
        // partition_point: first contig whose *end* is past gpos.
        let i = self.offsets[1..].partition_point(|&end| end <= gpos);
        (i, gpos - self.offsets[i])
    }

    /// Consume the reference, yielding its contigs in file order. The
    /// genome index uses this to take ownership of the contig
    /// sequences, so they stay the only copy of the reference.
    pub fn into_contigs(self) -> Vec<Contig> {
        self.contigs
    }

    /// A short human-readable label for banners and status lines:
    /// the contig name for single-contig references, `name(+N)` for
    /// multi-contig ones.
    pub fn label(&self) -> String {
        match self.contigs.as_slice() {
            [] => "(empty)".to_string(),
            [one] => one.name.to_string(),
            [first, rest @ ..] => format!("{}(+{})", first.name, rest.len()),
        }
    }
}

impl FromIterator<(String, Seq)> for Reference {
    fn from_iter<T: IntoIterator<Item = (String, Seq)>>(iter: T) -> Reference {
        let mut r = Reference::new();
        for (name, seq) in iter {
            r.push(&name, seq);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn layout_and_locate_roundtrip() {
        let mut r = Reference::new();
        r.push("chr1", seq("ACGTACGT")); // [0, 8)
        r.push("chr2", seq("GG")); // [8, 10)
        r.push("chr3", seq("TTTTT")); // [10, 15)
        assert_eq!(r.num_contigs(), 3);
        assert_eq!(r.total_len(), 15);
        assert_eq!(r.offset(0), 0);
        assert_eq!(r.offset(1), 8);
        assert_eq!(r.offset(2), 10);
        assert_eq!(r.locate(0), (0, 0));
        assert_eq!(r.locate(7), (0, 7));
        assert_eq!(r.locate(8), (1, 0));
        assert_eq!(r.locate(9), (1, 1));
        assert_eq!(r.locate(10), (2, 0));
        assert_eq!(r.locate(14), (2, 4));
    }

    #[test]
    fn empty_contigs_own_no_positions() {
        let mut r = Reference::new();
        r.push("a", seq("ACGT")); // [0, 4)
        r.push("empty", Seq::new()); // [4, 4)
        r.push("b", seq("GG")); // [4, 6)
        assert_eq!(r.locate(3), (0, 3));
        // The boundary position belongs to the first contig that owns
        // bases there — the empty contig is skipped.
        assert_eq!(r.locate(4), (2, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_rejects_out_of_range() {
        Reference::single("c", seq("ACGT")).locate(4);
    }

    // debug_assert-backed: release builds skip the per-push scan
    // (loaders do the hashed duplicate check), so the panic only
    // exists with debug assertions on.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "duplicate contig name")]
    fn duplicate_names_rejected() {
        let mut r = Reference::single("chr1", seq("ACGT"));
        r.push("chr1", seq("GGGG"));
    }

    #[test]
    fn labels() {
        assert_eq!(Reference::new().label(), "(empty)");
        assert_eq!(Reference::single("chrM", seq("ACGT")).label(), "chrM");
        let mut r = Reference::single("chr1", seq("ACGT"));
        r.push("chr2", seq("GG"));
        r.push("chr3", seq("TT"));
        assert_eq!(r.label(), "chr1(+2)");
    }

    #[test]
    fn empty_reference_is_empty() {
        let r = Reference::new();
        assert!(r.is_empty());
        assert_eq!(r.total_len(), 0);
        assert_eq!(r.num_contigs(), 0);
    }

    #[test]
    fn from_iterator_collects_in_order() {
        let r: Reference = vec![
            ("a".to_string(), seq("ACGT")),
            ("b".to_string(), seq("GGCC")),
        ]
        .into_iter()
        .collect();
        assert_eq!(r.num_contigs(), 2);
        assert_eq!(&*r.contig(1).name, "b");
        assert_eq!(r.offset(1), 4);
    }
}
