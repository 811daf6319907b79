//! Minimizer extraction and reference indexing (minimap2-style).
//!
//! A *minimizer* is the k-mer with the smallest hash in every window of
//! `w` consecutive k-mers (Roberts et al. 2004). We use canonical
//! k-mers (the smaller of the k-mer and its reverse complement) so a
//! read and its reverse complement sample the same positions, and an
//! invertible 64-bit mix as the ordering hash, like minimap2.
//!
//! The index is flat, like minimap2's: every minimizer's `(pos,
//! flipped)` sits in one array sorted by `(hash, pos)`, and a key table
//! maps each hash to its run in that array — two allocations per index,
//! not one per distinct hash.

use align_core::Seq;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// One extracted minimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Minimizer {
    /// Start position of the k-mer in the sequence.
    pub pos: u32,
    /// Hash of the canonical k-mer.
    pub hash: u64,
    /// True when the canonical form is the reverse complement.
    pub flipped: bool,
}

/// Invertible 64-bit integer mix (Thomas Wang / minimap2's hash64).
#[inline]
pub fn hash64(key: u64, mask: u64) -> u64 {
    let mut k = key & mask;
    k = (!k).wrapping_add(k << 21) & mask;
    k ^= k >> 24;
    k = (k.wrapping_add(k << 3)).wrapping_add(k << 8) & mask;
    k ^= k >> 14;
    k = (k.wrapping_add(k << 2)).wrapping_add(k << 4) & mask;
    k ^= k >> 28;
    k = k.wrapping_add(k << 31) & mask;
    k
}

/// Extract the `(w, k)` minimizers of `seq`.
///
/// Ties within a window keep the rightmost k-mer (robust winnowing).
/// Sequences shorter than one full window still yield their global
/// minimum so short sequences stay indexable.
pub fn minimizers(seq: &Seq, w: usize, k: usize) -> Vec<Minimizer> {
    minimizers_impl(seq, w, k, true)
}

/// Like [`minimizers`], but only emits minimizers selected by *full*
/// windows of `w` k-mers — no short-sequence fallback.
///
/// Shard slices use this: every window of a slice is also a window of
/// the full reference and selects the same k-mer, so a slice's
/// full-window minimizers are exactly the reference minimizers whose
/// selecting window fits in the slice. The fallback would instead
/// invent minimizers from truncated windows that the unsharded index
/// does not have, breaking shard-count invariance.
pub fn minimizers_windowed(seq: &Seq, w: usize, k: usize) -> Vec<Minimizer> {
    minimizers_impl(seq, w, k, false)
}

fn minimizers_impl(seq: &Seq, w: usize, k: usize, short_fallback: bool) -> Vec<Minimizer> {
    assert!((1..=31).contains(&k), "k must be in 1..=31");
    assert!(w >= 1, "w must be positive");
    let n = seq.len();
    if n < k {
        return Vec::new();
    }
    let mask: u64 = (1u64 << (2 * k)) - 1;
    let shift = 2 * (k - 1) as u64;
    let mut fwd: u64 = 0;
    let mut rev: u64 = 0;
    // Winnowing with a monotone deque over windows of `w` k-mers, fed by
    // the rolling hash: a k-mer's hash lives only while it sits in the
    // deque, so extraction keeps at most `w` of them, not one per base.
    let mut out: Vec<Minimizer> = Vec::new();
    let mut deque: VecDeque<Minimizer> = VecDeque::with_capacity(w);
    let push_out = |out: &mut Vec<Minimizer>, m: Minimizer| {
        if out.last() != Some(&m) {
            out.push(m);
        }
    };
    for i in 0..n {
        let c = seq.get_code(i) as u64;
        fwd = ((fwd << 2) | c) & mask;
        rev = (rev >> 2) | ((3 - c) << shift);
        let Some(j) = (i + 1).checked_sub(k) else {
            continue;
        };
        let (canon, flipped) = if fwd <= rev {
            (fwd, false)
        } else {
            (rev, true)
        };
        let m = Minimizer {
            pos: j as u32,
            hash: hash64(canon, mask),
            flipped,
        };
        // `>=` keeps the rightmost minimum on ties.
        while deque.back().is_some_and(|b| b.hash >= m.hash) {
            deque.pop_back();
        }
        deque.push_back(m);
        if j + 1 >= w {
            while deque[0].pos as usize + w <= j {
                deque.pop_front();
            }
            push_out(&mut out, deque[0]);
        }
    }
    if n - k + 1 < w && short_fallback {
        // Sequence shorter than one full window: keep its global minimum
        // so short sequences are still indexable.
        push_out(&mut out, deque[0]);
    }
    out
}

/// The key table's hasher: one multiply by an odd 64-bit constant.
///
/// Keys are [`hash64`] outputs masked to `2k` bits, already well mixed
/// in their low bits but zero above bit `2k`. The identity would leave
/// the top bits — the ones the table's probe control bytes read — zero
/// for every key; one multiply spreads the key over all 64 bits, at a
/// fraction of SipHash's cost. SipHash's protection is not needed: the
/// table is filled once from the reference, and reads only probe it,
/// so a client cannot lengthen a probe chain.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ b as u64);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A set of minimizer hashes, hashed with [`MulHasher`].
pub(crate) type HashKeySet = HashSet<u64, BuildHasherDefault<MulHasher>>;

/// A minimizer index over a reference sequence.
#[derive(Debug)]
pub struct MinimizerIndex {
    /// Window length in k-mers.
    pub w: usize,
    /// k-mer length.
    pub k: usize,
    /// Reference length.
    pub ref_len: usize,
    /// Every minimizer's position/orientation, sorted by `(hash, pos)`:
    /// each hash owns one contiguous, position-ascending run.
    hits: Vec<(u32, bool)>,
    /// hash -> `(start, len)` of its run in `hits`.
    keys: HashMap<u64, (u32, u32), BuildHasherDefault<MulHasher>>,
    /// Occurrence cutoff: hashes hit more often than this are masked
    /// (minimap2's high-frequency filter, `-f`).
    pub max_occ: usize,
}

impl MinimizerIndex {
    /// Build an index with minimap2-ish long-read defaults
    /// (`w = 10`, `k = 15`).
    pub fn build(reference: &Seq) -> MinimizerIndex {
        MinimizerIndex::build_params(reference, 10, 15, 400)
    }

    /// Build with explicit parameters.
    pub fn build_params(reference: &Seq, w: usize, k: usize, max_occ: usize) -> MinimizerIndex {
        MinimizerIndex::from_minimizers(minimizers(reference, w, k), w, k, reference.len(), max_occ)
    }

    /// Build from a precomputed minimizer list (the sharded build path,
    /// where slices are extracted with [`minimizers_windowed`]).
    pub fn from_minimizers(
        mut ms: Vec<Minimizer>,
        w: usize,
        k: usize,
        ref_len: usize,
        max_occ: usize,
    ) -> MinimizerIndex {
        // Positions are unique, so the unstable sort is deterministic.
        ms.sort_unstable_by_key(|m| (m.hash, m.pos));
        let runs = || ms.chunk_by(|a, b| a.hash == b.hash);
        let mut keys = HashMap::with_capacity_and_hasher(runs().count(), Default::default());
        let mut start = 0u32;
        for run in runs() {
            let len = run.len() as u32;
            keys.insert(run[0].hash, (start, len));
            start += len;
        }
        let hits = ms.iter().map(|m| (m.pos, m.flipped)).collect();
        MinimizerIndex {
            w,
            k,
            ref_len,
            hits,
            keys,
            max_occ,
        }
    }

    /// Number of distinct indexed minimizer hashes.
    pub fn distinct_minimizers(&self) -> usize {
        self.keys.len()
    }

    /// Look up a hash; respects the occurrence cutoff.
    pub fn lookup(&self, hash: u64) -> &[(u32, bool)] {
        match self.occurrences(hash) {
            v if v.len() <= self.max_occ => v,
            _ => &[],
        }
    }

    /// Occurrence list for a hash, **ignoring** the cutoff. Positions
    /// are ascending (minimizers are extracted left to right). The
    /// sharded index uses this and applies its own *global* cutoff.
    pub fn occurrences(&self, hash: u64) -> &[(u32, bool)] {
        self.keys.get(&hash).map_or(&[], |&run| self.run(run))
    }

    /// Iterate every `(hash, occurrences)` bucket, ignoring the cutoff.
    /// Iteration order is unspecified (callers must not depend on it).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, &[(u32, bool)])> {
        self.keys.iter().map(|(&h, &run)| (h, self.run(run)))
    }

    fn run(&self, (start, len): (u32, u32)) -> &[(u32, bool)] {
        &self.hits[start as usize..(start + len) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn hash64_is_deterministic_and_masked() {
        let mask = (1u64 << 30) - 1;
        let h1 = hash64(12345, mask);
        assert_eq!(h1, hash64(12345, mask));
        assert!(h1 <= mask);
        assert_ne!(hash64(1, mask), hash64(2, mask));
    }

    #[test]
    fn minimizers_cover_sequence() {
        let s = seq(&"ACGTTGCAGGATCCATGGTACCAT".repeat(10));
        let ms = minimizers(&s, 5, 7);
        assert!(!ms.is_empty());
        // Winnowing guarantee: gap between consecutive minimizers < w + k.
        for pair in ms.windows(2) {
            assert!(
                (pair[1].pos - pair[0].pos) as usize <= 5 + 7,
                "winnowing gap violated"
            );
        }
    }

    #[test]
    fn short_sequence_still_yields_minimizer() {
        let s = seq("ACGTACGTAC"); // 10 bases, k=7 -> 4 k-mers < w=10
        let ms = minimizers(&s, 10, 7);
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn sequence_shorter_than_k_yields_nothing() {
        assert!(minimizers(&seq("ACG"), 5, 7).is_empty());
    }

    #[test]
    fn canonical_minimizers_shared_with_rc() {
        let s = seq(&"ACGTTGCAGGATCCATGGTACCATAAGGCCTT".repeat(8));
        let rc = s.reverse_complement();
        let mut h1: Vec<u64> = minimizers(&s, 5, 11).iter().map(|m| m.hash).collect();
        let mut h2: Vec<u64> = minimizers(&rc, 5, 11).iter().map(|m| m.hash).collect();
        h1.sort_unstable();
        h1.dedup();
        h2.sort_unstable();
        h2.dedup();
        // The hash *sets* must be identical (positions differ).
        assert_eq!(h1, h2);
    }

    #[test]
    fn index_lookup_roundtrip() {
        let s = seq(&"ACGTTGCAGGATCCAT".repeat(20));
        let idx = MinimizerIndex::build_params(&s, 5, 9, 1000);
        assert!(idx.distinct_minimizers() > 0);
        let ms = minimizers(&s, 5, 9);
        // Every extracted minimizer must be findable at its position.
        for m in &ms {
            let hits = idx.lookup(m.hash);
            assert!(hits.iter().any(|&(p, _)| p == m.pos));
        }
    }

    #[test]
    fn max_occ_masks_repetitive_hashes() {
        let s = seq(&"ACGTACGTACGTACGTACGTACGT".repeat(50));
        let idx = MinimizerIndex::build_params(&s, 4, 8, 2);
        // The dominant periodic minimizer occurs way more than twice.
        let over_cutoff = idx.buckets().filter(|(_, v)| v.len() > 2).count();
        assert!(over_cutoff > 0, "expected repetitive hashes in this input");
        for (h, v) in idx.buckets() {
            if v.len() > 2 {
                assert!(idx.lookup(h).is_empty());
            }
        }
    }
}
