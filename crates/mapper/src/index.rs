//! Minimizer extraction and reference indexing (minimap2-style).
//!
//! A *minimizer* is the k-mer with the smallest hash in every window of
//! `w` consecutive k-mers (Roberts et al. 2004). We use canonical
//! k-mers (the smaller of the k-mer and its reverse complement) so a
//! read and its reverse complement sample the same positions, and an
//! invertible 64-bit mix as the ordering hash, like minimap2.
//! Extraction keeps the last `w` keys in a ring (minimap2's circular
//! buffer) and rescans it only when the window's minimum leaves it, so
//! its scratch is `w` words whatever the sequence length, and a random
//! hash costs one compare, not a deque's unpredictable pops.
//!
//! The index is flat, like minimap2's, and has no hash table: every
//! minimizer's [`Hit`] (position and orientation in one `u32`) sits in
//! one array, in one run per hash; the distinct hashes and their run
//! starts sit in two more, and a directory over the hashes' low bits
//! narrows a lookup to one slot of two to four hashes. The directory
//! reads the *low* bits because a minimizer is the smallest hash of its
//! window: minimizer hashes crowd toward zero, so their top bits are far
//! from uniform, while their low bits are as uniform as [`hash64`]
//! makes every bit. That is 4 bytes per occurrence, 12 per distinct
//! hash and 1 to 2 per minimizer for the directory.

use align_core::Seq;

/// Bit 63 of a ring key: the canonical k-mer is the reverse complement.
/// Hashes use at most 62 bits, so the flag never reaches the order.
const FLIPPED: u64 = 1 << 63;

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
/// minimum so short sequences stay indexable. Besides the returned
/// `Vec`, extraction allocates one ring of `w` words.
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
    // Winnowing over a ring of the last `w` keys, fed by the rolling
    // hash (minimap2's circular buffer): k-mer `j` sits in slot
    // `j % w` as its hash with `flipped` in bit 63, so extraction keeps
    // `w` words of scratch, not one per base. `min_j` is the window's
    // minimum, the rightmost of equal hashes.
    let mut ring = vec![0u64; w];
    let (mut slot, mut min_j, mut min_hash) = (0usize, 0usize, u64::MAX);
    let mut out: Vec<Minimizer> = Vec::new();
    let emit = |out: &mut Vec<Minimizer>, ring: &[u64], j: usize| {
        let key = ring[j % w];
        out.push(Minimizer {
            pos: j as u32,
            hash: key & !FLIPPED,
            flipped: key & FLIPPED != 0,
        });
    };
    for i in 0..n {
        let c = seq.get_code(i) as u64;
        fwd = ((fwd << 2) | c) & mask;
        rev = (rev >> 2) | ((3 - c) << shift);
        let Some(j) = (i + 1).checked_sub(k) else {
            continue;
        };
        let hash = hash64(fwd.min(rev), mask);
        ring[slot] = hash | (u64::from(rev < fwd) << 63);
        let last_min = min_j;
        if hash <= min_hash {
            // `<=` keeps the rightmost minimum on ties.
            (min_j, min_hash) = (j, hash);
        } else if min_j + w <= j {
            // The minimum left the window: rescan it oldest to newest.
            min_hash = u64::MAX;
            for (t, &key) in ring[slot + 1..].iter().chain(&ring[..=slot]).enumerate() {
                if key & !FLIPPED <= min_hash {
                    (min_j, min_hash) = (j + 1 - w + t, key & !FLIPPED);
                }
            }
        }
        slot = if slot + 1 == w { 0 } else { slot + 1 };
        // The first full window emits its minimum; later ones emit only
        // a new one.
        if j + 1 == w || (j + 1 > w && min_j != last_min) {
            emit(&mut out, &ring, min_j);
        }
    }
    if n - k + 1 < w && short_fallback {
        // Sequence shorter than one full window: keep its global minimum
        // so short sequences are still indexable.
        emit(&mut out, &ring, min_j);
    }
    out
}

/// One indexed occurrence in one word: a reference position and
/// whether the canonical k-mer there is the reverse complement, packed
/// as `pos << 1 | flipped`. Positions must be below 2^31.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit(u32);

impl Hit {
    /// Pack `pos` and `flipped`.
    ///
    /// # Panics
    /// Panics if `pos >= 2^31`.
    pub(crate) fn new(pos: u32, flipped: bool) -> Hit {
        assert!(pos < 1 << 31, "position {pos} does not fit in 31 bits");
        Hit(pos << 1 | flipped as u32)
    }

    /// Start position of the k-mer in the indexed sequence.
    #[inline]
    pub fn pos(self) -> u32 {
        self.0 >> 1
    }

    /// True when the canonical form is the reverse complement.
    #[inline]
    pub fn flipped(self) -> bool {
        self.0 & 1 != 0
    }
}

/// A minimizer index over a reference sequence.
#[derive(Debug)]
pub struct MinimizerIndex {
    /// Window length in k-mers.
    pub w: usize,
    /// k-mer length.
    pub k: usize,
    /// Reference length.
    pub ref_len: usize,
    /// Every minimizer's position/orientation, grouped by directory
    /// slot and sorted by `(hash, pos)` within it: each hash owns one
    /// contiguous, position-ascending run.
    hits: Vec<Hit>,
    /// The distinct hashes, in the order of their runs in `hits`.
    keys: Vec<u64>,
    /// `keys.len() + 1` run starts: the hits of `keys[i]` are
    /// `hits[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    /// Directory over the hashes' low `bits` bits: the keys of slot `t`
    /// are `keys[dir[t]..dir[t + 1]]`.
    dir: Vec<u32>,
    /// Width of the directory in bits.
    bits: u32,
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
    ///
    /// # Panics
    /// Panics if `reference` is `2^31` bases or longer.
    pub fn build_params(reference: &Seq, w: usize, k: usize, max_occ: usize) -> MinimizerIndex {
        MinimizerIndex::from_minimizers(minimizers(reference, w, k), w, k, reference.len(), max_occ)
    }

    /// Build from a precomputed minimizer list (the sharded build path,
    /// where slices are extracted with [`minimizers_windowed`]).
    ///
    /// # Panics
    /// Panics if a position is `2^31` or more.
    pub fn from_minimizers(
        mut ms: Vec<Minimizer>,
        w: usize,
        k: usize,
        ref_len: usize,
        max_occ: usize,
    ) -> MinimizerIndex {
        assert!((1..=31).contains(&k), "k must be in 1..=31");
        assert!(u32::try_from(ms.len()).is_ok(), "more than 2^32 minimizers");
        // Two to four minimizers per slot, so at most two to four keys
        // to scan after the directory read; no more slots than the 4^k
        // possible hashes.
        let bits = (ms.len() / 2)
            .checked_ilog2()
            .unwrap_or(0)
            .min(2 * k as u32);
        // By slot, then hash, then position: rotating the slot bits to
        // the top orders by `(slot, hash)`. Positions are unique, so the
        // unstable sort is deterministic.
        ms.sort_unstable_by_key(|m| (m.hash.rotate_right(bits), m.pos));
        let hits: Vec<Hit> = ms.iter().map(|m| Hit::new(m.pos, m.flipped)).collect();
        let runs = || ms.chunk_by(|a, b| a.hash == b.hash);
        let distinct = runs().count();
        let mut keys = Vec::with_capacity(distinct);
        let mut starts = Vec::with_capacity(distinct + 1);
        let mut dir = vec![0u32; (1 << bits) + 1];
        let mut start = 0;
        for run in runs() {
            dir[(run[0].hash & ((1 << bits) - 1)) as usize + 1] += 1;
            keys.push(run[0].hash);
            starts.push(start);
            start += run.len() as u32;
        }
        starts.push(start);
        for t in 1..dir.len() {
            dir[t] += dir[t - 1];
        }
        MinimizerIndex {
            w,
            k,
            ref_len,
            hits,
            keys,
            starts,
            dir,
            bits,
            max_occ,
        }
    }

    /// Number of distinct indexed minimizer hashes.
    pub fn distinct_minimizers(&self) -> usize {
        self.keys.len()
    }

    /// Look up a hash; respects the occurrence cutoff.
    pub fn lookup(&self, hash: u64) -> &[Hit] {
        match self.occurrences(hash) {
            v if v.len() <= self.max_occ => v,
            _ => &[],
        }
    }

    /// Occurrence list for a hash, **ignoring** the cutoff. Positions
    /// are ascending (minimizers are extracted left to right). The
    /// sharded index uses this and applies its own *global* cutoff.
    pub fn occurrences(&self, hash: u64) -> &[Hit] {
        let t = (hash & ((1 << self.bits) - 1)) as usize;
        let (lo, hi) = (self.dir[t] as usize, self.dir[t + 1] as usize);
        match self.keys[lo..hi].iter().position(|&h| h == hash) {
            Some(i) => &self.hits[self.starts[lo + i] as usize..self.starts[lo + i + 1] as usize],
            None => &[],
        }
    }

    /// Iterate every `(hash, occurrences)` bucket, ignoring the cutoff.
    /// Iteration order is unspecified (callers must not depend on it).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, &[Hit])> {
        let runs = self.starts.windows(2);
        self.keys
            .iter()
            .zip(runs)
            .map(|(&h, s)| (h, &self.hits[s[0] as usize..s[1] as usize]))
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
            assert!(hits.iter().any(|h| h.pos() == m.pos));
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

    /// Pseudo-random but dependency-free test sequence.
    fn mixed_seq(len: usize, salt: u64) -> Seq {
        let mut state = salt | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                align_core::Base::from_code((state >> 33) as u8 & 3)
            })
            .collect()
    }

    /// Every minimizer of `ms` is found at its position, every run is
    /// position-ascending, and probes above the `2k`-bit mask find
    /// nothing.
    fn assert_index_holds(idx: &MinimizerIndex, ms: &[Minimizer]) {
        let mut distinct: Vec<u64> = ms.iter().map(|m| m.hash).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(idx.distinct_minimizers(), distinct.len());
        for &h in &distinct {
            let want: Vec<Hit> = ms
                .iter()
                .filter(|m| m.hash == h)
                .map(|m| Hit::new(m.pos, m.flipped))
                .collect();
            assert_eq!(idx.occurrences(h), want.as_slice(), "hash {h:#x}");
        }
        let mask = (1u64 << (2 * idx.k)) - 1;
        for probe in [mask + 1, u64::MAX] {
            assert!(idx.occurrences(probe).is_empty(), "probe {probe:#x}");
            assert!(idx.lookup(probe).is_empty(), "probe {probe:#x}");
        }
    }

    #[test]
    fn empty_index_answers_every_probe_with_nothing() {
        let idx = MinimizerIndex::build_params(&seq("ACG"), 5, 7, 10);
        assert_eq!(idx.distinct_minimizers(), 0);
        assert_eq!(idx.buckets().count(), 0);
        assert_eq!(idx.dir, [0, 0]);
        for probe in [0, 1, (1 << 14) - 1, 1 << 14, u64::MAX] {
            assert!(idx.occurrences(probe).is_empty());
        }
    }

    #[test]
    fn k_1_directory_covers_the_whole_key_space() {
        // ~100 hits would want a 5-bit directory; 2k = 2 caps it.
        let s = mixed_seq(300, 5);
        let idx = MinimizerIndex::build_params(&s, 3, 1, 1_000);
        assert_eq!(idx.bits, 2);
        assert_index_holds(&idx, &minimizers(&s, 3, 1));
    }

    #[test]
    fn k_31_keys_are_found_in_small_and_large_directories() {
        // 40 bases at k = 31 are 10 k-mers, short of one window of 20:
        // the fallback keeps one minimizer, in a one-slot directory.
        let s = mixed_seq(40, 9);
        let idx = MinimizerIndex::build_params(&s, 20, 31, 1_000);
        assert_eq!((idx.distinct_minimizers(), idx.bits), (1, 0));
        assert_index_holds(&idx, &minimizers(&s, 20, 31));

        let s = mixed_seq(3_000, 11);
        let idx = MinimizerIndex::build_params(&s, 5, 31, 1_000);
        assert!(idx.bits > 0);
        assert_index_holds(&idx, &minimizers(&s, 5, 31));
    }

    #[test]
    fn directory_slots_hold_two_to_four_keys_where_probes_land() {
        let s = mixed_seq(50_000, 3);
        let idx = MinimizerIndex::build(&s);
        let ms = minimizers(&s, 10, 15);
        let per_slot = idx.keys.len() as f64 / (idx.dir.len() - 1) as f64;
        assert!((2.0..4.0).contains(&per_slot), "{per_slot} keys per slot");
        // Weighted by where minimizers land, a slot over the low bits
        // holds 3.3 keys here, as uniform slots of mean 2.3 do.
        // Minimizers crowd toward small hashes, so a slot over the top
        // bits would hold 9.0.
        let seen = |slot: &dyn Fn(u64) -> usize| {
            let mut size = vec![0; idx.dir.len() - 1];
            for &h in &idx.keys {
                size[slot(h)] += 1;
            }
            ms.iter().map(|m| size[slot(m.hash)] as f64).sum::<f64>() / ms.len() as f64
        };
        let low = seen(&|h| (h & ((1 << idx.bits) - 1)) as usize);
        let top = seen(&|h| (h >> (30 - idx.bits)) as usize);
        assert!(low < 2.0 * per_slot, "{low} keys per probed slot");
        assert!(
            top > 2.0 * low,
            "{top} keys per probed slot over the top bits"
        );
        assert_index_holds(&idx, &ms);
    }

    #[test]
    fn a_repeat_run_is_one_key_in_its_slot() {
        let s = seq(&"ACGTTGCAG".repeat(300));
        let ms = minimizers(&s, 4, 8);
        let idx = MinimizerIndex::build_params(&s, 4, 8, 1_000);
        assert!(idx.buckets().any(|(_, hits)| hits.len() > 16));
        assert!(idx.dir.windows(2).all(|d| d[1] - d[0] <= 4));
        assert_index_holds(&idx, &ms);
    }

    #[test]
    fn hit_round_trips_the_largest_position() {
        for flipped in [false, true] {
            let hit = Hit::new((1 << 31) - 1, flipped);
            assert_eq!((hit.pos(), hit.flipped()), ((1 << 31) - 1, flipped));
        }
    }

    #[test]
    #[should_panic(expected = "does not fit in 31 bits")]
    fn a_position_of_2_pow_31_is_refused_at_build() {
        let m = Minimizer {
            pos: 1 << 31,
            hash: 0,
            flipped: false,
        };
        MinimizerIndex::from_minimizers(vec![m], 10, 15, 1 << 31, 400);
    }
}
