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
//! minimizer's position sits in one array, in one run per hash, with
//! its orientation in a parallel bitset and its key — the hash's bits
//! above the directory's — in a parallel `u32` array. A directory over
//! the hashes' low bits narrows a lookup to one slot, two to four
//! occurrences on average, which it scans for the hash's run; a slot
//! that a repeat's run makes long, it binary-searches. The directory
//! reads the *low* bits because a minimizer is the smallest hash of its
//! window: minimizer hashes crowd toward zero, so their top bits are
//! far from uniform, while their low bits are as uniform as [`hash64`]
//! makes every bit. That is 8 bytes and a bit per occurrence, 2 to 4
//! bytes per minimizer for the directory, and nothing per distinct
//! hash. A key wider than 32 bits (`2k > 32` plus the directory's
//! width; never at `k ≤ 16`) keeps its top in a third parallel array.
//!
//! One index covers every contig of a reference, laid end to end at
//! 32-bit global positions ([`MinimizerIndex::build_contigs`]); each
//! contig is sketched on its own, so no window spans two contigs. The
//! build never holds the genome's minimizers as one list: it sketches
//! the contigs once, counting the minimizers of each directory slot
//! and marking their positions in a bitset, then keys the k-mer at each
//! mark again and scatters it into its slot, and sorts each slot, a few
//! entries, by hash. The counts' prefix sums are the directory.

use std::ops::Range;

use align_core::Seq;

/// Bit 63 of a ring key, and of a slot entry the build sorts: the
/// canonical k-mer is the reverse complement. Hashes use at most 62
/// bits, so the flag never reaches the order.
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
    let mut out = Vec::new();
    sketch(seq, w, k, |m| out.push(m));
    out
}

/// Hand the minimizers of [`minimizers`] to `emit`, left to right,
/// without collecting them.
fn sketch(seq: &Seq, w: usize, k: usize, mut emit: impl FnMut(Minimizer)) {
    assert!((1..=31).contains(&k), "k must be in 1..=31");
    assert!(w >= 1, "w must be positive");
    let n = seq.len();
    if n < k {
        return;
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
    let at = |ring: &[u64], j: usize| {
        let key = ring[j % w];
        Minimizer {
            pos: j as u32,
            hash: key & !FLIPPED,
            flipped: key & FLIPPED != 0,
        }
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
            emit(at(&ring, min_j));
        }
    }
    if n - k + 1 < w {
        // Sequence shorter than one full window: keep its global minimum
        // so short sequences are still indexable.
        emit(at(&ring, min_j));
    }
}

/// The canonical k-mer at `pos` of `seq` keyed as the sketch keys it:
/// its hash, with `flipped` in bit 63.
fn key_at(seq: &Seq, pos: usize, k: usize) -> u64 {
    let mask: u64 = (1u64 << (2 * k)) - 1;
    let shift = 2 * (k - 1) as u64;
    let (mut fwd, mut rev) = (0u64, 0u64);
    for i in pos..pos + k {
        let c = seq.get_code(i) as u64;
        fwd = ((fwd << 2) | c) & mask;
        rev = (rev >> 2) | ((3 - c) << shift);
    }
    hash64(fwd.min(rev), mask) | (u64::from(rev < fwd) << 63)
}

/// Turn counts into running totals, in place.
fn prefix_sum(v: &mut [u32]) {
    for t in 1..v.len() {
        v[t] += v[t - 1];
    }
}

/// One indexed occurrence: a global reference position and whether the
/// canonical k-mer there is the reverse complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Start position of the k-mer in the indexed reference.
    pub pos: u32,
    /// True when the canonical form is the reverse complement.
    pub flipped: bool,
}

/// The occurrences of one hash, in ascending position: a run of the
/// index's position array read with the matching bits of its
/// orientation bitset. Iterating yields each [`Hit`].
#[derive(Debug, Clone)]
pub struct Hits<'a> {
    pos: &'a [u32],
    flips: &'a [u64],
    /// Index of `pos[0]` in the bitset.
    first: usize,
}

impl Hits<'_> {
    /// True when no occurrence is left.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }
}

impl Iterator for Hits<'_> {
    type Item = Hit;

    #[inline]
    fn next(&mut self) -> Option<Hit> {
        let (&pos, rest) = self.pos.split_first()?;
        let b = self.first;
        self.pos = rest;
        self.first += 1;
        Some(Hit {
            pos,
            flipped: self.flips[b / 64] >> (b % 64) & 1 != 0,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.pos.len(), Some(self.pos.len()))
    }
}

impl ExactSizeIterator for Hits<'_> {}

/// A minimizer index over a reference: one contig or many, at global
/// positions.
#[derive(Debug)]
pub struct MinimizerIndex {
    /// Window length in k-mers.
    pub w: usize,
    /// k-mer length.
    pub k: usize,
    /// Reference length, every contig included.
    pub ref_len: usize,
    /// Every minimizer's global position, grouped by directory slot and
    /// sorted by `(hash, pos)` within it: each hash owns one contiguous,
    /// position-ascending run.
    pos: Vec<u32>,
    /// Bit `i` is set when the canonical k-mer at `pos[i]` is the
    /// reverse complement.
    flips: Vec<u64>,
    /// `keys[i]` is the low 32 bits of the hash at `pos[i]` shifted
    /// right by `bits`: its slot holds the bits below.
    keys: Vec<u32>,
    /// The bits of the shifted hash above those 32, parallel to `keys`;
    /// empty unless a hash can have them (`2k > 32 + bits`).
    wide: Vec<u32>,
    /// Directory over the hashes' low `bits` bits: the occurrences of
    /// slot `t` are `pos[dir[t]..dir[t + 1]]`.
    dir: Vec<u32>,
    /// Width of the directory in bits.
    bits: u32,
    /// Number of distinct hashes.
    distinct: usize,
    /// Occurrence cutoff: hashes hit more often than this are masked
    /// (minimap2's high-frequency filter, `-f`).
    pub max_occ: usize,
}

/// Entry `i`'s hash shifted right by the directory's width: `wide[i]`
/// above `keys[i]`, or `keys[i]` alone while `wide` is empty.
fn key_of(keys: &[u32], wide: &[u32], i: usize) -> u64 {
    wide.get(i).map_or(0, |&top| u64::from(top) << 32) | u64::from(keys[i])
}

/// Longest slot that [`equal_range`] scans: 64 keys are four cache
/// lines, read in order, which beats a binary search's scattered
/// probes. On the `accurate-short` reference (one process, 2-vCPU VM)
/// `collect_anchors` took 1.16× the time of the layout with one key per
/// distinct hash when every slot was binary-searched, 1.01× when up to
/// 16 keys were scanned, and 0.98× with 64.
const SCAN: usize = 64;

/// The indices of `run` where the ascending `v` equals `x`: a scan
/// over a slot's few entries, a binary search where a repeat's run
/// makes them many.
fn equal_range(v: &[u32], run: Range<usize>, x: u32) -> Range<usize> {
    let v = &v[run.clone()];
    let (a, b) = if v.len() <= SCAN {
        let a = v.iter().take_while(|&&y| y < x).count();
        (a, a + v[a..].iter().take_while(|&&y| y == x).count())
    } else {
        (
            v.partition_point(|&y| y < x),
            v.partition_point(|&y| y <= x),
        )
    };
    run.start + a..run.start + b
}

impl MinimizerIndex {
    /// Build an index with minimap2-ish long-read defaults
    /// (`w = 10`, `k = 15`).
    pub fn build(reference: &Seq) -> MinimizerIndex {
        MinimizerIndex::build_params(reference, 10, 15, 400)
    }

    /// Build with explicit parameters: the one-contig case of
    /// [`MinimizerIndex::build_contigs`].
    pub fn build_params(reference: &Seq, w: usize, k: usize, max_occ: usize) -> MinimizerIndex {
        MinimizerIndex::build_contigs([reference], w, k, max_occ)
    }

    /// Build one index over `contigs` laid end to end: a contig's
    /// minimizers sit at its offset, the summed lengths of the contigs
    /// before it, plus their own position. Every contig is sketched on
    /// its own, so a contig shorter than one window keeps its minimum.
    ///
    /// Besides the finished index, the build holds a bit per base until
    /// the minimizers are placed and a sort buffer of 16 bytes per
    /// entry of the largest directory slot.
    ///
    /// # Panics
    /// Panics if the contigs hold more than `2^32 - 1` bases in all.
    pub fn build_contigs<'a, I>(contigs: I, w: usize, k: usize, max_occ: usize) -> MinimizerIndex
    where
        I: IntoIterator<Item = &'a Seq>,
        I::IntoIter: Clone,
    {
        assert!((1..=31).contains(&k), "k must be in 1..=31");
        let contigs = contigs.into_iter();
        let ref_len: usize = contigs.clone().map(Seq::len).sum();
        assert!(
            u32::try_from(ref_len).is_ok(),
            "reference of {ref_len} bases: positions are 32-bit"
        );
        // A sequence has about 2 / (w + 1) minimizers per base, so this
        // gives two to four per slot; no more slots than the 4^k
        // possible hashes. No lookup depends on the width.
        let bits = (ref_len / (w + 1))
            .checked_ilog2()
            .unwrap_or(0)
            .min(2 * k as u32);
        let slot_of = |hash: u64| (hash & ((1 << bits) - 1)) as usize;
        let slots = 1usize << bits;

        // Pass 1 sketches the contigs, counts each slot's minimizers
        // and marks their global positions in a bitset; the prefix sum
        // leaves `dir[t]` at the first entry of slot `t`.
        let mut dir = vec![0u32; slots + 1];
        let mut marks = vec![0u64; ref_len.div_ceil(64)];
        let mut offset = 0;
        for seq in contigs.clone() {
            sketch(seq, w, k, |m| {
                let gpos = offset + m.pos as usize;
                dir[slot_of(m.hash) + 1] += 1;
                marks[gpos / 64] |= 1 << (gpos % 64);
            });
            offset += seq.len();
        }
        prefix_sum(&mut dir);
        let n = dir[slots] as usize;
        // The sketch emits a position at most once, so a mark is a
        // minimizer.
        debug_assert_eq!(
            marks.iter().map(|b| b.count_ones() as usize).sum::<usize>(),
            n
        );

        // Pass 2 keys the k-mer at each mark again, in reference order,
        // and scatters its key, position and orientation bit to the
        // next free entry of its slot. So every slot's positions
        // ascend, and `dir[t]` ends at the end of slot `t`: shifted up
        // one slot, it is the occurrence directory.
        let mut keys = vec![0u32; n];
        let mut wide = vec![0u32; if 2 * k as u32 > 32 + bits { n } else { 0 }];
        let mut pos = vec![0u32; n];
        let mut flips = vec![0u64; n.div_ceil(64)];
        let mut spans = contigs.scan(0, |end: &mut usize, seq| {
            *end += seq.len();
            Some((*end, seq))
        });
        let (mut end, mut seq) = (0, &Seq::new());
        for (word, &set) in marks.iter().enumerate() {
            let mut set = set;
            while set != 0 {
                let gpos = word * 64 + set.trailing_zeros() as usize;
                set &= set - 1;
                while gpos >= end {
                    (end, seq) = spans.next().expect("a mark lies in a contig");
                }
                let key = key_at(seq, gpos + seq.len() - end, k);
                let next = &mut dir[slot_of(key)];
                let i = *next as usize;
                *next += 1;
                let shifted = (key & !FLIPPED) >> bits;
                keys[i] = shifted as u32;
                if let Some(top) = wide.get_mut(i) {
                    *top = (shifted >> 32) as u32;
                }
                pos[i] = gpos as u32;
                flips[i / 64] |= (key >> 63) << (i % 64);
            }
        }
        drop(marks);
        dir.copy_within(..slots, 1);
        dir[0] = 0;

        // Sort each slot by hash, moving each entry's key, position and
        // orientation (in bit 63 of the key) together. A slot's
        // positions ascend, so the order by `(hash, pos)` is the stable
        // one: each hash's run stays position-ascending. Count the runs
        // on the way.
        let mut distinct = 0;
        let mut slot: Vec<(u64, u32)> = Vec::new();
        for d in dir.windows(2) {
            let (lo, hi) = (d[0] as usize, d[1] as usize);
            slot.clear();
            slot.extend((lo..hi).map(|i| {
                let flip = flips[i / 64] >> (i % 64) << 63;
                (key_of(&keys, &wide, i) | flip, pos[i])
            }));
            slot.sort_unstable_by_key(|&(key, p)| (key & !FLIPPED, p));
            distinct += slot.chunk_by(|a, b| (a.0 ^ b.0) & !FLIPPED == 0).count();
            for (i, (key, p)) in (lo..hi).zip(slot.iter().copied()) {
                keys[i] = key as u32;
                if let Some(top) = wide.get_mut(i) {
                    *top = ((key & !FLIPPED) >> 32) as u32;
                }
                pos[i] = p;
                let word = &mut flips[i / 64];
                *word = *word & !(1 << (i % 64)) | (key >> 63) << (i % 64);
            }
        }

        MinimizerIndex {
            w,
            k,
            ref_len,
            pos,
            flips,
            keys,
            wide,
            dir,
            bits,
            distinct,
            max_occ,
        }
    }

    /// Number of distinct indexed minimizer hashes.
    pub fn distinct_minimizers(&self) -> usize {
        self.distinct
    }

    /// Heap bytes the index holds.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.pos.as_slice())
            + size_of_val(self.flips.as_slice())
            + size_of_val(self.keys.as_slice())
            + size_of_val(self.wide.as_slice())
            + size_of_val(self.dir.as_slice())
    }

    /// Look up a hash; respects the occurrence cutoff, which counts
    /// the hash's occurrences over the whole reference.
    pub fn lookup(&self, hash: u64) -> Hits<'_> {
        match self.occurrences(hash) {
            v if v.len() <= self.max_occ => v,
            _ => self.run(0..0),
        }
    }

    /// Occurrence list for a hash, **ignoring** the cutoff. Positions
    /// ascend.
    pub fn occurrences(&self, hash: u64) -> Hits<'_> {
        // The keys hold `2k`-bit hashes: a probe above them would alias.
        if hash >> (2 * self.k) != 0 {
            return self.run(0..0);
        }
        // The slot holds every occurrence of its hashes: find the run.
        let t = (hash & ((1 << self.bits) - 1)) as usize;
        let mut run = self.dir[t] as usize..self.dir[t + 1] as usize;
        let key = hash >> self.bits;
        if !self.wide.is_empty() {
            run = equal_range(&self.wide, run, (key >> 32) as u32);
        }
        self.run(equal_range(&self.keys, run, key as u32))
    }

    /// Iterate every `(hash, occurrences)` bucket, ignoring the cutoff.
    /// Iteration order is unspecified (callers must not depend on it).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, Hits<'_>)> {
        let key = move |i| key_of(&self.keys, &self.wide, i);
        let slots = self.dir.windows(2).enumerate();
        slots.flat_map(move |(t, d)| {
            let (mut i, end) = (d[0] as usize, d[1] as usize);
            std::iter::from_fn(move || {
                let (start, run) = (i, (i < end).then(|| key(i))?);
                while i < end && key(i) == run {
                    i += 1;
                }
                Some((run << self.bits | t as u64, self.run(start..i)))
            })
        })
    }

    /// The hits `run` of the position array.
    fn run(&self, run: Range<usize>) -> Hits<'_> {
        Hits {
            first: run.start,
            pos: &self.pos[run],
            flips: &self.flips,
        }
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
            assert!(idx.lookup(m.hash).any(|h| h.pos == m.pos));
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
                .map(|m| Hit {
                    pos: m.pos,
                    flipped: m.flipped,
                })
                .collect();
            assert_eq!(idx.occurrences(h).collect::<Vec<_>>(), want, "hash {h:#x}");
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

    /// The distinct hashes of each directory slot with their run
    /// lengths, read through [`MinimizerIndex::buckets`].
    fn slots(idx: &MinimizerIndex) -> Vec<Vec<(u64, usize)>> {
        let mut slots = vec![Vec::new(); idx.dir.len() - 1];
        for (h, hits) in idx.buckets() {
            slots[(h & ((1 << idx.bits) - 1)) as usize].push((h, hits.len()));
        }
        slots
    }

    #[test]
    fn directory_slots_hold_two_to_four_keys_where_probes_land() {
        let s = mixed_seq(50_000, 3);
        let idx = MinimizerIndex::build(&s);
        let ms = minimizers(&s, 10, 15);
        let hashes: Vec<u64> = slots(&idx).concat().iter().map(|&(h, _)| h).collect();
        let per_slot = hashes.len() as f64 / (idx.dir.len() - 1) as f64;
        assert!((2.0..4.0).contains(&per_slot), "{per_slot} keys per slot");
        // Weighted by where minimizers land, a slot over the low bits
        // holds 3.3 keys here, as uniform slots of mean 2.3 do.
        // Minimizers crowd toward small hashes, so a slot over the top
        // bits would hold 9.0.
        let seen = |slot: &dyn Fn(u64) -> usize| {
            let mut size = vec![0; idx.dir.len() - 1];
            for &h in &hashes {
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
        let repeat = seq(&"ACGTTGCAG".repeat(300));
        let idx = MinimizerIndex::build_params(&repeat, 4, 8, 1_000);
        assert!(idx.buckets().any(|(_, hits)| hits.len() > SCAN));
        assert!(slots(&idx).iter().all(|slot| slot.len() <= 4));
        assert_index_holds(&idx, &minimizers(&repeat, 4, 8));

        // Beside a random contig, the repeat's runs share their slots
        // with other hashes, too many to scan: the binary search finds
        // each run's bounds exactly, and the keys next to a slot's
        // hashes miss.
        let random = mixed_seq(4_000, 13);
        let idx = MinimizerIndex::build_contigs([&random, &repeat], 4, 8, 1_000);
        let shared: Vec<_> = (slots(&idx).into_iter())
            .filter(|slot| slot.len() > 1 && slot.iter().any(|&(_, n)| n > SCAN))
            .collect();
        assert!(!shared.is_empty(), "no long run shares its slot");
        let step = 1 << idx.bits;
        for slot in &shared {
            for &(h, n) in slot {
                assert_eq!(idx.occurrences(h).len(), n, "hash {h:#x}");
                for probe in [h.wrapping_sub(step), h + step] {
                    if slot.iter().all(|&(g, _)| g != probe) {
                        assert!(idx.occurrences(probe).is_empty(), "probe {probe:#x}");
                    }
                }
            }
        }
        let mut ms = minimizers(&random, 4, 8);
        ms.extend(minimizers(&repeat, 4, 8).into_iter().map(|m| Minimizer {
            pos: m.pos + 4_000,
            ..m
        }));
        assert_index_holds(&idx, &ms);
    }

    /// Two words and a bit per occurrence and a word per directory slot,
    /// and a third word per occurrence where a key needs its wide half:
    /// nothing is kept per distinct hash.
    #[test]
    fn the_index_holds_two_words_and_a_bit_per_occurrence() {
        let s = mixed_seq(20_000, 17);
        for (w, k, words) in [(10, 15, 2), (5, 31, 3)] {
            let idx = MinimizerIndex::build_params(&s, w, k, 1_000);
            let n = minimizers(&s, w, k).len();
            assert_eq!(idx.wide.is_empty(), words == 2, "k = {k}");
            assert_eq!(
                idx.heap_bytes(),
                4 * words * n + 8 * n.div_ceil(64) + 4 * ((1 << idx.bits) + 1),
                "k = {k}"
            );
        }
    }

    #[test]
    fn hit_round_trips_the_largest_position() {
        // A run that starts at bit 62 of the bitset and crosses into
        // the next word, ending on the largest 32-bit position.
        let pos = [5, 9, 12, u32::MAX];
        let flips = [0b10 << 62, 0b10];
        let hits = Hits {
            pos: &pos,
            flips: &flips,
            first: 62,
        };
        assert_eq!(hits.len(), 4);
        let got: Vec<(u32, bool)> = hits.map(|h| (h.pos, h.flipped)).collect();
        assert_eq!(got, [(5, false), (9, true), (12, false), (u32::MAX, true)]);
    }

    #[test]
    fn contigs_index_at_their_offsets_and_keep_their_own_minimizers() {
        // Contig `b` is shorter than one window and keeps its minimum;
        // the empty contig adds nothing and shifts nothing.
        let (a, b, c) = (
            mixed_seq(3_000, 21),
            mixed_seq(20, 22),
            mixed_seq(2_000, 23),
        );
        let empty = Seq::new();
        let idx = MinimizerIndex::build_contigs([&a, &empty, &b, &c], 10, 15, 1_000);
        assert_eq!(idx.ref_len, 5_020);
        let mut ms = Vec::new();
        for (s, offset) in [(&a, 0), (&b, 3_000), (&c, 3_020)] {
            ms.extend(minimizers(s, 10, 15).into_iter().map(|m| Minimizer {
                pos: m.pos + offset,
                ..m
            }));
        }
        assert_index_holds(&idx, &ms);
    }
}
