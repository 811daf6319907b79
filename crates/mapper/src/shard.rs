//! The genome index: one [`MinimizerIndex`] over every contig of a
//! reference, and the contigs' packed bases that candidate windows are
//! cut from.
//!
//! [`ShardedIndex`] lays the contigs end to end at 32-bit global
//! positions ([`MAX_REFERENCE_BASES`]), as minimap2 indexes every
//! sequence of a reference at once. A read probes each of its
//! minimizers once; the hits of a hash ascend in position, so the
//! anchors come out in `(read_pos, ref_pos)` order with nothing to
//! merge, and the occurrence cutoff (`max_occ`) counts a hash over the
//! whole genome. One chaining DP then runs over the genome's anchors,
//! and no predecessor comes from another contig, so a chain never spans
//! two (see [`crate::chain`]); chains come out best score first, contig
//! order breaking ties. Queries take `&self` and share nothing mutable, so
//! the way to use more cores is to map *different reads* on different
//! threads (the pipeline's map workers), never to split one read.
//!
//! The type keeps the name, and its builders the `shards` and `overlap`
//! arguments, of the tiled index it replaced: callers still pass them,
//! and they change nothing.

use std::sync::Arc;

use align_core::{AlignTask, Contig, Reference, Seq};

use crate::candidates::{chain_window, CandidateParams};
use crate::chain::{chain_contigs, collect_anchors, contig_of, Anchor, Chain, ChainParams};
use crate::index::MinimizerIndex;

/// Most bases in a reference, `2^32 - 1`: anchors and tasks carry
/// global positions as `u32`, and so does the end of the last contig.
pub const MAX_REFERENCE_BASES: usize = u32::MAX as usize;

/// A reference over [`MAX_REFERENCE_BASES`], whose global positions
/// would wrap around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceTooLong {
    /// The reference's total length, in bases.
    pub bases: usize,
}

impl core::fmt::Display for ReferenceTooLong {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "reference has {} bases; positions are 32-bit, so the limit is {} (2^32 - 1)",
            self.bases, MAX_REFERENCE_BASES
        )
    }
}

impl std::error::Error for ReferenceTooLong {}

/// What a [`ShardedIndex`] holds, for telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexMetrics {
    /// Number of reference contigs.
    pub contigs: usize,
    /// Distinct minimizer hashes, genome-wide.
    pub distinct_minimizers: usize,
    /// Heap bytes of the minimizer index.
    pub index_bytes: usize,
    /// Packed bytes of the contigs' bases.
    pub reference_bytes: usize,
}

/// Per-read funnel counts from one pass through the candidate stages
/// (anchors → chains → candidate tasks), reported by
/// [`ShardedIndex::candidates_for_read_stats`]. Each count is the size
/// of the corresponding intermediate, so `anchors == 0` implies
/// `chains == 0` implies `candidates == 0` — the read's first empty
/// stage is the reason it went unmapped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadMapStats {
    /// Anchors of the read's minimizers in the genome index.
    pub anchors: u64,
    /// Chains produced by the genome's chaining DP.
    pub chains: u64,
    /// Candidate tasks emitted (after the per-read cap).
    pub candidates: u64,
}

impl ReadMapStats {
    /// The funnel stage that emptied first, as the unmapped-reason
    /// suffix the provenance layer reports (`None` when the read
    /// produced at least one candidate).
    pub fn unmapped_reason(&self) -> Option<&'static str> {
        if self.candidates > 0 {
            None
        } else if self.anchors == 0 {
            Some("no_anchors")
        } else if self.chains == 0 {
            Some("no_chain")
        } else {
            Some("no_candidates")
        }
    }
}

/// One minimizer index over a multi-contig reference, which owns the
/// contigs' bases (see the module docs for the name).
#[derive(Debug)]
pub struct ShardedIndex {
    /// Window length in k-mers.
    pub w: usize,
    /// k-mer length.
    pub k: usize,
    /// Genome-wide occurrence cutoff (see [`MinimizerIndex::max_occ`]).
    pub max_occ: usize,
    contigs: Vec<Contig>,
    /// Each contig's global start, ascending.
    starts: Vec<u32>,
    index: MinimizerIndex,
}

impl ShardedIndex {
    /// Build with minimap2-ish long-read defaults (`w = 10`, `k = 15`,
    /// `max_occ = 400`), matching [`MinimizerIndex::build`]. `shards`
    /// and `overlap` are ignored.
    pub fn build(reference: Reference, shards: usize, overlap: usize) -> ShardedIndex {
        ShardedIndex::build_params(reference, shards, overlap, 10, 15, 400)
    }

    /// Whether a reference of `bases` bases fits the index's 32-bit
    /// global positions ([`MAX_REFERENCE_BASES`]). A loader checks this
    /// and reports the error; the build asserts it.
    pub fn check_len(bases: usize) -> Result<(), ReferenceTooLong> {
        if bases > MAX_REFERENCE_BASES {
            return Err(ReferenceTooLong { bases });
        }
        Ok(())
    }

    /// Build with explicit parameters, consuming the reference: its
    /// contigs' bases are the index's, and the only copy. `_shards`
    /// and `_overlap` are ignored.
    ///
    /// # Panics
    ///
    /// If the reference is over [`MAX_REFERENCE_BASES`]
    /// ([`ShardedIndex::check_len`]).
    pub fn build_params(
        reference: Reference,
        _shards: usize,
        _overlap: usize,
        w: usize,
        k: usize,
        max_occ: usize,
    ) -> ShardedIndex {
        if let Err(e) = ShardedIndex::check_len(reference.total_len()) {
            panic!("{e}");
        }
        let starts = (0..reference.num_contigs())
            .map(|c| reference.offset(c) as u32)
            .collect();
        let contigs = reference.into_contigs();
        let index = MinimizerIndex::build_contigs(contigs.iter().map(|c| &c.seq), w, k, max_occ);
        ShardedIndex {
            w,
            k,
            max_occ,
            contigs,
            starts,
            index,
        }
    }

    /// Number of reference contigs.
    pub fn num_contigs(&self) -> usize {
        self.contigs.len()
    }

    /// Name of contig `c`.
    pub fn contig_name(&self, c: u32) -> &str {
        &self.contigs[c as usize].name
    }

    /// Shared handle to contig `c`'s name (cheap to clone into
    /// per-task metadata).
    pub fn contig_name_shared(&self, c: u32) -> Arc<str> {
        Arc::clone(&self.contigs[c as usize].name)
    }

    /// Length of contig `c` in bases.
    pub fn contig_len(&self, c: u32) -> usize {
        self.contigs[c as usize].seq.len()
    }

    /// Global start of contig `c`.
    pub fn contig_offset(&self, c: u32) -> usize {
        self.starts[c as usize] as usize
    }

    /// Total reference length across all contigs.
    pub fn total_len(&self) -> usize {
        self.index.ref_len
    }

    /// Map a global position to `(contig, contig-local position)`.
    /// Empty contigs own no positions.
    ///
    /// # Panics
    /// Panics if `gpos >= total_len()`.
    pub fn locate(&self, gpos: usize) -> (u32, usize) {
        assert!(
            gpos < self.total_len(),
            "global position {gpos} out of range (total {})",
            self.total_len()
        );
        let c = contig_of(&self.starts, gpos as u32);
        (c as u32, gpos - self.starts[c] as usize)
    }

    /// Packed bytes of the contigs' bases — the only reference bases
    /// the index holds (the build consumed the [`Reference`]).
    pub fn resident_reference_bytes(&self) -> usize {
        self.contigs.iter().map(|c| c.seq.packed_bytes()).sum()
    }

    /// Copy the window `[start, end)` of contig `c`.
    ///
    /// # Panics
    /// Panics if `end` exceeds the contig length.
    pub fn window(&self, c: u32, start: usize, end: usize) -> Seq {
        let seq = &self.contigs[c as usize].seq;
        assert!(
            end <= seq.len(),
            "window end {end} exceeds contig length {}",
            seq.len()
        );
        seq.slice(start, end.saturating_sub(start))
    }

    /// Number of distinct indexed minimizer hashes, genome-wide
    /// (on a single contig this equals
    /// [`MinimizerIndex::distinct_minimizers`] of a [`MinimizerIndex`]
    /// over the same sequence).
    pub fn distinct_minimizers(&self) -> usize {
        self.index.distinct_minimizers()
    }

    /// Collect the anchors of `read` at global positions, sorted by
    /// `(read_pos, ref_pos)` ([`crate::collect_anchors`] against the
    /// genome index).
    pub fn collect_anchors(&self, read: &Seq) -> Vec<Anchor> {
        collect_anchors(read, &self.index)
    }

    /// Chain `read`'s anchors in one pass over the genome and return
    /// every chain as `(contig, chain)` with **contig-local**
    /// coordinates, best score first (contig order breaks score ties,
    /// stably). A chain never spans two contigs.
    pub fn chains_for_read(&self, read: &Seq, params: &ChainParams) -> Vec<(u32, Chain)> {
        chain_contigs(&self.collect_anchors(read), &self.starts, self.k, params)
    }

    /// Map one read: anchors, one chaining pass over the genome,
    /// candidate tasks in contig-local coordinates with targets cut
    /// from the contigs. On
    /// a single contig identical to [`crate::candidates_for_read`] on a
    /// [`MinimizerIndex`] of that contig.
    pub fn candidates_for_read(
        &self,
        read_id: u32,
        read: &Seq,
        params: &CandidateParams,
    ) -> Vec<AlignTask> {
        self.candidates_for_read_stats(read_id, read, params).0
    }

    /// [`ShardedIndex::candidates_for_read`] plus the per-read funnel
    /// counts the provenance layer records: how many anchors the read
    /// produced, how many chains survived the DP, and how many
    /// candidate tasks were emitted (after the per-read cap). The
    /// tasks are built by exactly the same code path, so they are
    /// identical to [`ShardedIndex::candidates_for_read`]'s — the
    /// counts are observations, never inputs.
    pub fn candidates_for_read_stats(
        &self,
        read_id: u32,
        read: &Seq,
        params: &CandidateParams,
    ) -> (Vec<AlignTask>, ReadMapStats) {
        let anchors = self.collect_anchors(read);
        let chains = chain_contigs(&anchors, &self.starts, self.k, &params.chain);
        // Built on the first reverse chain, cloned for the rest.
        let mut rc_read: Option<Seq> = None;
        let tasks: Vec<AlignTask> = chains
            .iter()
            .take(params.max_per_read)
            .map(|(ci, chain)| {
                let limit = self.contig_len(*ci);
                let (start, end) = chain_window(chain, read.len(), limit, params.flank);
                let target = self.window(*ci, start, end);
                let query = if chain.reverse {
                    rc_read
                        .get_or_insert_with(|| read.reverse_complement())
                        .clone()
                } else {
                    read.clone()
                };
                AlignTask::new(read_id, start, query, target)
                    .oriented(chain.reverse)
                    .in_contig(*ci)
            })
            .collect();
        let stats = ReadMapStats {
            anchors: anchors.len() as u64,
            chains: chains.len() as u64,
            candidates: tasks.len() as u64,
        };
        (tasks, stats)
    }

    /// What the index holds: contigs, distinct minimizers and resident
    /// bytes.
    pub fn metrics(&self) -> IndexMetrics {
        IndexMetrics {
            contigs: self.contigs.len(),
            distinct_minimizers: self.distinct_minimizers(),
            index_bytes: self.index.heap_bytes(),
            reference_bytes: self.resident_reference_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_anchors;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    /// Wrap a sequence as the single-contig reference the legacy tests
    /// exercise.
    fn single(s: &Seq) -> Reference {
        Reference::single("ref", s.clone())
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

    /// The last length whose positions fit 32 bits passes; one base
    /// more is refused with both the length and the limit in the
    /// message. (On the arithmetic: a 4 Gbp test input is out of reach.)
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_reference_over_2_pow_32_minus_1_bases_is_refused() {
        assert_eq!(ShardedIndex::check_len((1 << 32) - 1), Ok(()));
        assert_eq!(ShardedIndex::check_len(0), Ok(()));
        let err = ShardedIndex::check_len(1 << 32).unwrap_err();
        assert_eq!(err, ReferenceTooLong { bases: 1 << 32 });
        assert_eq!(
            err.to_string(),
            "reference has 4294967296 bases; positions are 32-bit, so the limit is \
             4294967295 (2^32 - 1)"
        );
    }

    #[test]
    fn distinct_minimizers_match_unsharded_index() {
        let s = mixed_seq(30_000, 3);
        let flat = MinimizerIndex::build_params(&s, 10, 15, 400);
        let idx = ShardedIndex::build_params(single(&s), 2, 256, 10, 15, 400);
        assert_eq!(idx.distinct_minimizers(), flat.distinct_minimizers());
    }

    #[test]
    fn anchors_equal_unsharded_for_every_shard_count() {
        let s = mixed_seq(20_000, 11);
        let read = s.slice(4_321, 1_200);
        let flat = MinimizerIndex::build_params(&s, 10, 15, 400);
        let expected = collect_anchors(&read, &flat);
        assert!(!expected.is_empty(), "exact read must anchor");
        let idx = ShardedIndex::build_params(single(&s), 8, 32, 10, 15, 400);
        assert_eq!(idx.collect_anchors(&read), expected);
    }

    #[test]
    fn global_occurrence_cutoff_matches_unsharded_masking() {
        // Periodic reference: the dominant minimizer occurs far more
        // often globally than in any single shard, so a *local* cutoff
        // would unmask what the unsharded index masks.
        let s = seq(&"ACGTACGTACGTACGTACGTACGT".repeat(50));
        let flat = MinimizerIndex::build_params(&s, 4, 8, 2);
        let read = s.slice(100, 300);
        let idx = ShardedIndex::build_params(single(&s), 2, 256, 4, 8, 2);
        assert_eq!(idx.collect_anchors(&read), collect_anchors(&read, &flat));
    }

    #[test]
    fn candidates_equal_unsharded_tasks() {
        let s = mixed_seq(40_000, 17);
        let read = s.slice(12_000, 1_500).reverse_complement();
        let flat = MinimizerIndex::build(&s);
        let params = CandidateParams::default();
        let expected = crate::candidates_for_read(3, &read, &s, &flat, &params);
        assert!(!expected.is_empty());
        let idx = ShardedIndex::build(single(&s), 2, 256);
        assert_eq!(idx.candidates_for_read(3, &read, &params), expected);
    }

    #[test]
    fn stats_variant_returns_identical_tasks_and_consistent_counts() {
        let s = mixed_seq(40_000, 23);
        let params = CandidateParams::default();
        let idx = ShardedIndex::build(single(&s), 2, 256);
        // Mappable read: counts populate every stage, tasks match the
        // plain path bit for bit.
        let read = s.slice(9_000, 1_200);
        let plain = idx.candidates_for_read(4, &read, &params);
        let (tasks, st) = idx.candidates_for_read_stats(4, &read, &params);
        assert_eq!(tasks, plain, "stats variant must not change tasks");
        assert!(!tasks.is_empty());
        assert_eq!(st.candidates, tasks.len() as u64);
        assert!(st.anchors >= st.chains && st.chains >= st.candidates);
        assert_eq!(st.unmapped_reason(), None);
        // Unrelated read: the funnel pinpoints the first empty stage.
        let junk = mixed_seq(500, 0xDEAD_BEEF);
        let (jt, js) = idx.candidates_for_read_stats(0, &junk, &params);
        if jt.is_empty() {
            let reason = js.unmapped_reason().expect("empty tasks need a reason");
            assert!(
                ["no_anchors", "no_chain", "no_candidates"].contains(&reason),
                "{reason}"
            );
        }
    }

    #[test]
    fn unmapped_reason_reflects_first_empty_stage() {
        let none = ReadMapStats::default();
        assert_eq!(none.unmapped_reason(), Some("no_anchors"));
        let anchored = ReadMapStats {
            anchors: 4,
            ..ReadMapStats::default()
        };
        assert_eq!(anchored.unmapped_reason(), Some("no_chain"));
        let chained = ReadMapStats {
            anchors: 4,
            chains: 1,
            ..ReadMapStats::default()
        };
        assert_eq!(chained.unmapped_reason(), Some("no_candidates"));
        let mapped = ReadMapStats {
            anchors: 4,
            chains: 1,
            candidates: 1,
        };
        assert_eq!(mapped.unmapped_reason(), None);
    }

    #[test]
    fn tiny_reference_survives_many_shards() {
        // Shorter than one winnowing window: the contig keeps its
        // fallback minimizer, whatever the shards argument says.
        let s = seq("ACGTACGTACGTACGTACG"); // 19 bases < w + k - 1
        let flat = MinimizerIndex::build_params(&s, 10, 15, 400);
        let read = s.clone();
        let expected = collect_anchors(&read, &flat);
        let idx = ShardedIndex::build_params(single(&s), 16, 64, 10, 15, 400);
        assert_eq!(idx.collect_anchors(&read), expected);
    }

    #[test]
    fn empty_reference_yields_no_shards_and_no_anchors() {
        let idx = ShardedIndex::build(Reference::new(), 4, 64);
        assert_eq!(idx.num_contigs(), 0);
        assert!(idx.collect_anchors(&mixed_seq(100, 1)).is_empty());
        assert_eq!(idx.distinct_minimizers(), 0);
        assert_eq!(idx.total_len(), 0);

        let empty_contig = ShardedIndex::build(Reference::single("ref", Seq::new()), 4, 64);
        let m = empty_contig.metrics();
        assert_eq!(
            (m.contigs, m.distinct_minimizers, m.reference_bytes),
            (1, 0, 0)
        );
        assert!(empty_contig.collect_anchors(&mixed_seq(100, 1)).is_empty());
    }

    // ---- multi-contig behaviour ----

    /// A 3-contig reference with deliberately unequal contig sizes.
    fn multi(salt: u64) -> Reference {
        let mut r = Reference::new();
        r.push("chrA", mixed_seq(12_000, salt));
        r.push("chrB", mixed_seq(30_000, salt ^ 0xBEEF));
        r.push("chrC", mixed_seq(5_000, salt ^ 0xCAFE));
        r
    }

    #[test]
    fn multi_contig_anchors_are_invariant_across_shard_counts() {
        let read = {
            let r = multi(33);
            // Straddle nothing: cut from the middle of chrB.
            r.contig(1).seq.slice(10_000, 1_200)
        };
        let idx = ShardedIndex::build(multi(33), 7, 64);
        let anchors = idx.collect_anchors(&read);
        assert!(!anchors.is_empty(), "exact read must anchor");
        for a in &anchors {
            assert_eq!(idx.locate(a.ref_pos as usize).0, 1, "{a:?} outside chrB");
        }
    }

    #[test]
    fn multi_contig_candidates_are_invariant_and_contig_correct() {
        let r = multi(55);
        let read = r.contig(2).seq.slice(1_000, 1_400).reverse_complement();
        let params = CandidateParams::default();
        let tasks = ShardedIndex::build(multi(55), 5, 64).candidates_for_read(5, &read, &params);
        assert!(!tasks.is_empty(), "read must map");
        assert_eq!(tasks[0].contig, 2, "best candidate on the wrong contig");
        assert!(
            tasks[0].ref_pos.abs_diff(1_000) <= 200,
            "contig-local window start {} far from truth 1000",
            tasks[0].ref_pos
        );
    }

    #[test]
    fn chains_never_span_contigs() {
        // Adversarial: chrA's tail and chrB's head are the *same*
        // sequence, so anchors land immediately on both sides of the
        // boundary — close enough in global coordinates that a
        // boundary-blind chaining DP (max_gap 5000) would fuse them.
        let shared = mixed_seq(3_000, 77);
        let mut r = Reference::new();
        let mut a = mixed_seq(9_000, 1).to_bases();
        a.extend(shared.iter());
        r.push("chrA", a.into_iter().collect());
        let mut b = shared.to_bases();
        b.extend(mixed_seq(9_000, 2).iter());
        r.push("chrB", b.into_iter().collect());

        // A read covering the shared block maps to both contigs.
        let read = shared.slice(500, 2_000);
        let idx = ShardedIndex::build(r, 2, 256);
        let chains = idx.chains_for_read(&read, &crate::ChainParams::default());
        assert!(chains.len() >= 2, "shared block must chain on both contigs");
        for (ci, c) in &chains {
            let len = idx.contig_len(*ci);
            assert!(
                c.ref_end <= len,
                "chain [{}, {}) leaks past contig {ci} length {len}",
                c.ref_start,
                c.ref_end
            );
        }
        // And the tasks cut from those chains stay inside their contig.
        for t in idx.candidates_for_read(0, &read, &CandidateParams::default()) {
            assert!(t.ref_pos + t.target.len() <= idx.contig_len(t.contig));
        }
    }

    #[test]
    fn window_stitches_across_shard_boundaries_exactly() {
        let r = multi(91);
        let originals: Vec<Seq> = r.contigs().iter().map(|c| c.seq.clone()).collect();
        let idx = ShardedIndex::build(r, 2, 256);
        for (ci, orig) in originals.iter().enumerate() {
            let len = orig.len();
            for (start, end) in [
                (0usize, len),
                (0, 1),
                (len - 1, len),
                (len / 3, 2 * len / 3),
                (0, len.min(37)),
            ] {
                assert_eq!(
                    idx.window(ci as u32, start, end),
                    orig.slice(start, end - start),
                    "window [{start}, {end}) of contig {ci} diverged"
                );
            }
        }
    }

    #[test]
    fn locate_inverts_the_global_layout() {
        let idx = ShardedIndex::build(multi(13), 2, 256);
        assert_eq!(idx.locate(0), (0, 0));
        assert_eq!(idx.locate(11_999), (0, 11_999));
        assert_eq!(idx.locate(12_000), (1, 0));
        assert_eq!(idx.locate(41_999), (1, 29_999));
        assert_eq!(idx.locate(42_000), (2, 0));
        assert_eq!(idx.locate(46_999), (2, 4_999));
        assert_eq!(idx.total_len(), 47_000);
        assert_eq!(idx.contig_name(1), "chrB");
    }

    #[test]
    fn concurrent_queries_on_one_index_get_the_serial_answers() {
        let s = mixed_seq(30_000, 5);
        let idx = ShardedIndex::build_params(single(&s), 2, 256, 10, 15, 400);
        let read_at = |t: usize, i: usize| s.slice((t * 7 + i) * 997 % 25_000, 900);
        let serial: Vec<Vec<Vec<Anchor>>> = (0..4)
            .map(|t| {
                (0..20)
                    .map(|i| idx.collect_anchors(&read_at(t, i)))
                    .collect()
            })
            .collect();
        assert!(serial.iter().flatten().all(|a| !a.is_empty()));
        std::thread::scope(|scope| {
            for (t, expected) in serial.iter().enumerate() {
                let (idx, read_at) = (&idx, &read_at);
                scope.spawn(move || {
                    for (i, want) in expected.iter().enumerate() {
                        assert_eq!(
                            &idx.collect_anchors(&read_at(t, i)),
                            want,
                            "thread {t} query {i} diverged"
                        );
                    }
                });
            }
        });
    }
}
