//! DNA alphabet and 2-bit packed sequences.
//!
//! Every aligner in the suite operates on [`Seq`], a 2-bit packed DNA
//! sequence. Packing matters for two reasons: the workload generator
//! produces multi-megabase references, and the GPU kernels copy sequence
//! windows into (capacity-limited) simulated shared memory, so the byte
//! footprint is part of what the paper's experiments measure.

use crate::AlignError;

/// A DNA base. The discriminant is the 2-bit code used by [`Seq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine.
    A = 0,
    /// Cytosine.
    C = 1,
    /// Guanine.
    G = 2,
    /// Thymine.
    T = 3,
}

impl Base {
    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Decode a 2-bit code (`0..=3`). Values above 3 are masked.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code & 3 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            _ => Base::T,
        }
    }

    /// Parse an ASCII byte (`ACGTacgt`).
    #[inline]
    pub fn from_ascii(b: u8) -> Result<Base, AlignError> {
        match b {
            b'A' | b'a' => Ok(Base::A),
            b'C' | b'c' => Ok(Base::C),
            b'G' | b'g' => Ok(Base::G),
            b'T' | b't' => Ok(Base::T),
            other => Err(AlignError::BadBase(other)),
        }
    }

    /// The uppercase ASCII representation.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
        }
    }

    /// Watson–Crick complement.
    #[inline]
    pub fn complement(self) -> Base {
        // A<->T (0<->3), C<->G (1<->2): complement code = 3 - code.
        Base::from_code(3 - self as u8)
    }

    /// The 2-bit code.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }
}

impl core::fmt::Display for Base {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_ascii() as char)
    }
}

/// A 2-bit packed DNA sequence.
///
/// Bases are stored 4 per byte, little-endian within the byte (base `i`
/// lives at bits `2*(i%4)` of byte `i/4`).
///
/// ```
/// use align_core::{Seq, Base};
/// let s = Seq::from_ascii(b"ACGTAC").unwrap();
/// assert_eq!(s.len(), 6);
/// assert_eq!(s.get(2), Base::G);
/// assert_eq!(s.to_string(), "ACGTAC");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Seq {
    packed: Vec<u8>,
    len: usize,
}

impl Seq {
    /// Create an empty sequence.
    pub fn new() -> Seq {
        Seq::default()
    }

    /// Create an empty sequence with capacity for `n` bases.
    pub fn with_capacity(n: usize) -> Seq {
        Seq {
            packed: Vec::with_capacity(n.div_ceil(4)),
            len: 0,
        }
    }

    /// Parse from ASCII (`ACGTacgt`).
    pub fn from_ascii(bytes: &[u8]) -> Result<Seq, AlignError> {
        let mut s = Seq::with_capacity(bytes.len());
        for &b in bytes {
            s.push(Base::from_ascii(b)?);
        }
        Ok(s)
    }

    /// Build from a slice of bases.
    pub fn from_bases(bases: &[Base]) -> Seq {
        let mut s = Seq::with_capacity(bases.len());
        for &b in bases {
            s.push(b);
        }
        s
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the sequence holds no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bytes of packed storage.
    #[inline]
    pub fn packed_bytes(&self) -> usize {
        self.packed.len()
    }

    /// Append one base.
    #[inline]
    pub fn push(&mut self, base: Base) {
        let bit = (self.len % 4) * 2;
        if bit == 0 {
            self.packed.push(base as u8);
        } else {
            *self.packed.last_mut().expect("non-empty packed buffer") |= (base as u8) << bit;
        }
        self.len += 1;
    }

    /// Read base `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Base {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let byte = self.packed[i / 4];
        Base::from_code(byte >> ((i % 4) * 2))
    }

    /// Read base `i` without the bounds check being observable as a
    /// sequence-level panic message (still safe; plain slice indexing).
    #[inline]
    pub fn get_code(&self, i: usize) -> u8 {
        (self.packed[i / 4] >> ((i % 4) * 2)) & 3
    }

    /// Iterate over bases.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Copy out the sub-sequence `[start, start+len)`, clamped to the end.
    pub fn slice(&self, start: usize, len: usize) -> Seq {
        let end = (start + len).min(self.len);
        let n = end.saturating_sub(start);
        let mut out = Seq::with_capacity(n);
        out.extend_from(self, start, n);
        out
    }

    /// Append `other[start, start+len)` (clamped to `other`'s end) to
    /// this sequence, copying whole packed bytes instead of one base at
    /// a time. When the source range is misaligned relative to the
    /// destination, each output byte is assembled from the two source
    /// bytes that straddle it.
    pub fn extend_from(&mut self, other: &Seq, start: usize, len: usize) {
        let end = start.saturating_add(len).min(other.len);
        if start >= end {
            return;
        }
        let mut p = start;
        // Bring the destination to a byte boundary (at most 3 pushes).
        while p < end && !self.len.is_multiple_of(4) {
            self.push(other.get(p));
            p += 1;
        }
        // Bulk copy: one output byte per 4 source bases.
        let shift = (p % 4) * 2;
        if shift == 0 {
            let nbytes = (end - p) / 4;
            self.packed
                .extend_from_slice(&other.packed[p / 4..p / 4 + nbytes]);
            self.len += nbytes * 4;
            p += nbytes * 4;
        } else {
            while p + 4 <= end {
                let b = p / 4;
                // Bases p..p+4 span source bytes b and b+1; base p+3
                // lives in byte b+1 and p+3 < other.len, so b+1 is in
                // bounds. Overshifted high bits of byte b+1 drop out.
                self.packed
                    .push((other.packed[b] >> shift) | (other.packed[b + 1] << (8 - shift)));
                self.len += 4;
                p += 4;
            }
        }
        // Tail of fewer than 4 bases keeps the invariant that unused
        // high bits of the last byte are zero.
        while p < end {
            self.push(other.get(p));
            p += 1;
        }
    }

    /// Reverse complement.
    pub fn reverse_complement(&self) -> Seq {
        let mut out = Seq::with_capacity(self.len);
        for i in (0..self.len).rev() {
            out.push(self.get(i).complement());
        }
        out
    }

    /// Unpack into a `Vec<Base>`.
    pub fn to_bases(&self) -> Vec<Base> {
        self.iter().collect()
    }

    /// Unpack into ASCII bytes.
    pub fn to_ascii(&self) -> Vec<u8> {
        self.iter().map(Base::to_ascii).collect()
    }

    /// Hamming distance against another sequence of the same length.
    pub fn hamming(&self, other: &Seq) -> Option<usize> {
        if self.len != other.len {
            return None;
        }
        Some(
            (0..self.len)
                .filter(|&i| self.get_code(i) != other.get_code(i))
                .count(),
        )
    }

    /// Fraction of G/C bases, or 0 for an empty sequence.
    pub fn gc_content(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let gc = self
            .iter()
            .filter(|b| matches!(b, Base::C | Base::G))
            .count();
        gc as f64 / self.len as f64
    }
}

impl core::fmt::Display for Seq {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

// Debug shows a truncated sequence rather than the raw packed bytes; long
// references would otherwise flood test output.
impl core::fmt::Debug for Seq {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        const MAX: usize = 64;
        write!(f, "Seq(len={}, \"", self.len)?;
        for b in self.iter().take(MAX) {
            write!(f, "{b}")?;
        }
        if self.len > MAX {
            write!(f, "…")?;
        }
        write!(f, "\")")
    }
}

impl FromIterator<Base> for Seq {
    fn from_iter<T: IntoIterator<Item = Base>>(iter: T) -> Seq {
        let mut s = Seq::new();
        for b in iter {
            s.push(b);
        }
        s
    }
}

impl core::str::FromStr for Seq {
    type Err = AlignError;

    fn from_str(s: &str) -> Result<Seq, AlignError> {
        Seq::from_ascii(s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_roundtrip_ascii() {
        for b in Base::ALL {
            assert_eq!(Base::from_ascii(b.to_ascii()).unwrap(), b);
            assert_eq!(
                Base::from_ascii(b.to_ascii().to_ascii_lowercase()).unwrap(),
                b
            );
        }
    }

    #[test]
    fn base_rejects_garbage() {
        assert_eq!(Base::from_ascii(b'N'), Err(AlignError::BadBase(b'N')));
        assert_eq!(Base::from_ascii(b'x'), Err(AlignError::BadBase(b'x')));
    }

    #[test]
    fn complement_is_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
        }
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let text = b"ACGTACGTTTGGCCAA";
        let s = Seq::from_ascii(text).unwrap();
        assert_eq!(s.len(), 16);
        assert_eq!(s.to_ascii(), text.to_vec());
        // 16 bases fit in exactly 4 bytes.
        assert_eq!(s.packed_bytes(), 4);
    }

    #[test]
    fn pack_partial_byte() {
        let s = Seq::from_ascii(b"ACG").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.packed_bytes(), 1);
        assert_eq!(s.get(0), Base::A);
        assert_eq!(s.get(1), Base::C);
        assert_eq!(s.get(2), Base::G);
    }

    #[test]
    fn slice_and_reverse() {
        let s = Seq::from_ascii(b"ACGTAC").unwrap();
        assert_eq!(s.slice(1, 3).to_string(), "CGT");
        assert_eq!(s.slice(4, 100).to_string(), "AC");
        assert_eq!(s.reverse_complement().to_string(), "GTACGT");
    }

    #[test]
    fn hamming_distance() {
        let a = Seq::from_ascii(b"ACGT").unwrap();
        let b = Seq::from_ascii(b"AGGA").unwrap();
        assert_eq!(a.hamming(&b), Some(2));
        let c = Seq::from_ascii(b"ACG").unwrap();
        assert_eq!(a.hamming(&c), None);
    }

    #[test]
    fn gc_content() {
        let s = Seq::from_ascii(b"GGCC").unwrap();
        assert!((s.gc_content() - 1.0).abs() < 1e-12);
        let s = Seq::from_ascii(b"ATAT").unwrap();
        assert!(s.gc_content().abs() < 1e-12);
        let s = Seq::from_ascii(b"ACGT").unwrap();
        assert!((s.gc_content() - 0.5).abs() < 1e-12);
        assert!(Seq::new().gc_content().abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let s = Seq::from_ascii(b"AC").unwrap();
        let _ = s.get(2);
    }

    #[test]
    fn from_iterator_and_str() {
        let s: Seq = "ACGT".parse().unwrap();
        let t: Seq = s.iter().collect();
        assert_eq!(s, t);
    }

    #[test]
    fn debug_truncates() {
        let long = Seq::from_bases(&[Base::A; 100]);
        let dbg = format!("{long:?}");
        assert!(dbg.contains("len=100"));
        assert!(dbg.contains('…'));
    }

    /// Reference implementation: the per-base copy `slice` used to be.
    fn naive_slice(s: &Seq, start: usize, len: usize) -> Seq {
        let end = (start + len).min(s.len());
        let mut out = Seq::new();
        for i in start..end.max(start) {
            out.push(s.get(i));
        }
        out
    }

    #[test]
    fn packed_slice_matches_naive_at_every_phase() {
        // 37 bases: last packed byte is partial, exercising the tail.
        let text = b"ACGTACGTTTGGCCAATGCATGCATACGGTACATGCA";
        let s = Seq::from_ascii(text).unwrap();
        for start in 0..=s.len() {
            for len in 0..=s.len() + 2 {
                let fast = s.slice(start, len);
                let naive = naive_slice(&s, start, len);
                assert_eq!(fast, naive, "start={start} len={len}");
                assert_eq!(fast.to_ascii(), naive.to_ascii());
            }
        }
    }

    #[test]
    fn extend_from_appends_at_every_destination_phase() {
        let src = Seq::from_ascii(b"TGCATGCATGCAT").unwrap();
        for dst_len in 0..5 {
            for start in 0..src.len() {
                let mut dst = Seq::from_bases(&vec![Base::G; dst_len]);
                let mut expect = dst.clone();
                dst.extend_from(&src, start, src.len());
                for i in start..src.len() {
                    expect.push(src.get(i));
                }
                assert_eq!(dst, expect, "dst_len={dst_len} start={start}");
            }
        }
    }

    #[test]
    fn extend_from_pushes_compose_with_packed_copies() {
        // Interleave per-base pushes and bulk appends; the unused-high-
        // bits invariant of the last byte must survive each transition.
        let src = Seq::from_ascii(b"ACGTACGTACGTACGTACGT").unwrap();
        let mut s = Seq::new();
        s.push(Base::T);
        s.extend_from(&src, 3, 9);
        s.push(Base::A);
        s.extend_from(&src, 0, 20);
        assert_eq!(s.to_string(), format!("TTACGTACGTA{src}"));
    }

    #[test]
    fn extend_from_clamps_and_handles_empty_ranges() {
        let src = Seq::from_ascii(b"ACGT").unwrap();
        let mut s = Seq::new();
        s.extend_from(&src, 4, 10); // start at end: no-op
        s.extend_from(&src, 9, 1); // start past end: no-op
        s.extend_from(&src, 2, 0); // empty: no-op
        assert!(s.is_empty());
        s.extend_from(&src, 2, usize::MAX); // clamped, no overflow
        assert_eq!(s.to_string(), "GT");
    }
}

#[cfg(test)]
mod slice_properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_seq(max_len: usize) -> impl Strategy<Value = Seq> {
        proptest::collection::vec(0u8..4, 0..=max_len)
            .prop_map(|codes| codes.iter().map(|&c| Base::from_code(c)).collect())
    }

    proptest! {
        /// The packed-word `slice` is observationally identical to a
        /// per-base copy for every (start, len), including ranges that
        /// run past the end and start beyond the sequence.
        #[test]
        fn slice_equals_per_base_copy(s in arb_seq(300), start in 0usize..320, len in 0usize..320) {
            let end = (start + len).min(s.len());
            let mut naive = Seq::new();
            for i in start..end.max(start) {
                naive.push(s.get(i));
            }
            let fast = s.slice(start, len);
            prop_assert_eq!(&fast, &naive);
            prop_assert_eq!(fast.to_ascii(), naive.to_ascii());
            prop_assert_eq!(fast.packed_bytes(), naive.packed_bytes());
        }
    }
}
