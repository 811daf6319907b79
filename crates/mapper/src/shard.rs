//! Contig-aware sharded reference index with shard-local sequence
//! storage.
//!
//! [`ShardedIndex`] splits a multi-contig [`Reference`] into
//! overlapping slices — **never straddling a contig boundary** —
//! builds one `MinimizerIndex` per slice, collects a read's anchors
//! shard by shard on the calling thread, and merges the per-shard hits
//! deterministically (global coordinate translation, stable sort,
//! overlap dedup) before the chaining DP runs per contig over the
//! merged set. Queries take `&self` and share nothing mutable but
//! relaxed telemetry counters, so the way to use more cores is to map
//! *different reads* on different threads (the pipeline's map
//! workers), never to split one read.
//!
//! **Shard-local residency.** Each shard owns the only copy of its
//! slice of the reference (`tile + overlap` bases). The build consumes
//! the [`Reference`] and drops every contig sequence after slicing it,
//! so no monolithic reference `Seq` survives the build — candidate
//! windows are stitched from shard-local storage
//! ([`ShardedIndex::window`]), and total resident reference bytes are
//! `Σ (tile + overlap)` ([`ShardedIndex::resident_reference_bytes`]).
//!
//! The load-bearing guarantee is **shard-count invariance**: for any
//! shard count and any overlap of at least one winnowing window
//! ([`ShardedIndex::min_overlap`] bases, enforced by the constructor),
//! the merged anchor stream — and therefore every chain, candidate
//! task, and output byte downstream — is *identical* for every shard
//! count (and, on a single contig, identical to the unsharded
//! [`MinimizerIndex`] path). Three properties make that hold:
//!
//! 1. **Slice minimizers are contig minimizers.** Every full winnowing
//!    window of a slice is a window of its contig and selects the same
//!    k-mer, so slices are extracted with [`minimizers_windowed`] (no
//!    short-sequence fallback, which would invent minimizers from
//!    truncated windows). With overlap ≥ one window span, every contig
//!    window fits inside the shard owning its start, so the union over
//!    shards is the exact per-contig set. A shard that covers its
//!    *whole* contig keeps the fallback so short contigs stay
//!    indexable — and such a contig is never split, so the rule is
//!    shard-count invariant.
//! 2. **The occurrence cutoff is global.** `max_occ` masking must see
//!    genome-wide occurrence counts across every contig, not per-shard
//!    counts (a repeat spread over shards or contigs could slip under
//!    a local cutoff). The build counts each distinct reference
//!    position once — overlap duplicates are detected against earlier
//!    shards — by sorting the hashes of the shards' own tables in one
//!    transient array, keeps the hashes over the cutoff as a sorted
//!    list, and lookups binary-search that list. No genome-wide hash
//!    map exists, not even during the build.
//! 3. **The merge is canonical.** Per-shard anchors are translated to
//!    global coordinates, concatenated in shard order, sorted by
//!    `(read_pos, ref_pos, strand)` and deduplicated, which reproduces
//!    the unsharded anchor order exactly (read minimizers ascend in
//!    position; bucket hits ascend in reference position). Chaining
//!    then runs per contig (a chain can never span two contigs) and
//!    chains merge by score with contig order as the stable tiebreak.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use align_core::{AlignTask, Reference, Seq};

use crate::candidates::{chain_window, CandidateParams};
use crate::chain::{chain_anchors, Anchor, Chain, ChainParams};
use crate::index::{minimizers, minimizers_windowed, MinimizerIndex};

/// One reference shard: a slice of a single contig with its own
/// minimizer index and the only copy of the slice's bases.
///
/// The shard *owns* the contig-local tile `[tile_start, tile_end)` and
/// *stores* `[tile_start, tile_start + slice.len())` — the tile plus
/// up to `overlap` trailing bases (clamped to the contig end).
#[derive(Debug)]
struct Shard {
    /// Index of the contig this shard slices.
    contig: u32,
    /// Global start of the stored slice.
    start: usize,
    /// Global end of the stored slice (exclusive; includes overlap).
    end: usize,
    /// Contig-local start of the ownership tile (== slice start).
    tile_start: usize,
    /// Contig-local end of the ownership tile (exclusive, no overlap).
    tile_end: usize,
    /// The shard-local reference bases (tile + overlap).
    slice: Seq,
    /// Minimizer index over the slice (positions local to the slice).
    index: MinimizerIndex,
    /// Busy time spent collecting anchors in this shard, nanoseconds.
    busy_ns: AtomicU64,
    /// Anchors this shard contributed (before overlap dedup).
    anchors_found: AtomicU64,
}

impl Shard {
    /// Does this shard's bucket for `hash` contain global position
    /// `gpos`? (Bucket positions are ascending, so binary search.)
    fn contains(&self, hash: u64, gpos: u32) -> bool {
        let Some(local) = (gpos as usize).checked_sub(self.start) else {
            return false;
        };
        self.index
            .occurrences(hash)
            .binary_search_by_key(&(local as u32), |h| h.pos())
            .is_ok()
    }
}

/// One shard's share of a query: scan the read's (already
/// mask-filtered) minimizers against the shard index, appending hits
/// translated to global coordinates.
fn shard_anchors(shard: &Shard, read_mins: &[crate::Minimizer], out: &mut Vec<Anchor>) {
    let t0 = Instant::now();
    let before = out.len();
    for m in read_mins {
        for hit in shard.index.occurrences(m.hash) {
            out.push(Anchor {
                read_pos: m.pos,
                ref_pos: (shard.start + hit.pos() as usize) as u32,
                reverse: m.flipped != hit.flipped(),
            });
        }
    }
    shard
        .anchors_found
        .fetch_add((out.len() - before) as u64, Ordering::Relaxed);
    shard
        .busy_ns
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Most bases in one shard slice: [`crate::Hit`] holds 31-bit
/// positions.
const MAX_SLICE: usize = 1 << 31;

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

/// The tile stride for `total` bases in a target of `shards` shards,
/// short enough that a tile plus `overlap` fits in [`MAX_SLICE`].
fn slice_stride(total: usize, shards: usize, overlap: usize) -> usize {
    total.div_ceil(shards.max(1)).clamp(1, MAX_SLICE - overlap)
}

/// One contig's identity inside the index: the sequence itself lives
/// only in the shard slices.
#[derive(Debug, Clone)]
struct ContigMeta {
    name: Arc<str>,
    offset: usize,
    len: usize,
}

/// Telemetry for one shard of a [`ShardedIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Index of the contig this shard slices.
    pub contig: u32,
    /// Global span of the shard's slice.
    pub start: usize,
    /// End of the span (exclusive).
    pub end: usize,
    /// Time spent collecting anchors in this shard.
    pub busy: Duration,
    /// Anchors contributed before the overlap dedup.
    pub anchors: u64,
}

/// Telemetry snapshot of a [`ShardedIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardIndexMetrics {
    /// Per-shard spans, busy time, and anchor counts.
    pub shards: Vec<ShardMetrics>,
    /// Number of reference contigs.
    pub contigs: usize,
    /// Duplicate anchors removed by the overlap merge.
    pub dup_anchors_merged: u64,
    /// Effective overlap in bases (after the exactness clamp).
    pub overlap: usize,
    /// Resident shard-local reference storage, in packed bytes
    /// (the monolithic reference is dropped at build).
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
    /// Merged, deduplicated anchors across all shards.
    pub anchors: u64,
    /// Chains produced by the per-contig chaining DP.
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

/// A minimizer index split into overlapping, contig-aware reference
/// shards that own their slice of the reference.
#[derive(Debug)]
pub struct ShardedIndex {
    /// Window length in k-mers.
    pub w: usize,
    /// k-mer length.
    pub k: usize,
    /// Global occurrence cutoff (see [`MinimizerIndex::max_occ`]).
    pub max_occ: usize,
    /// Effective overlap between consecutive shards, in bases.
    pub overlap: usize,
    contigs: Vec<ContigMeta>,
    /// `contig_shards[c]` is the range of shard indices slicing contig
    /// `c` (shards are laid out contig by contig, in order).
    contig_shards: Vec<std::ops::Range<usize>>,
    shards: Vec<Shard>,
    /// Hashes whose genome-wide occurrence count (overlap-deduplicated,
    /// across every contig) exceeds `max_occ`, ascending.
    masked: Vec<u64>,
    /// Number of distinct hashes, genome-wide.
    distinct: usize,
    /// Duplicate anchors removed by the merge, across all queries.
    dup_anchors: AtomicU64,
}

impl ShardedIndex {
    /// Build with minimap2-ish long-read defaults (`w = 10`, `k = 15`,
    /// `max_occ = 400`), matching [`MinimizerIndex::build`].
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

    /// Build with explicit parameters, consuming the reference:
    /// each contig sequence is dropped once its shards have copied
    /// their slices, so the only resident reference bytes after the
    /// build are shard-local.
    ///
    /// `shards` is a *target*: the slice stride is `⌈total/shards⌉`
    /// and every contig is tiled independently at that stride, so
    /// boundaries never straddle contigs and every non-empty contig
    /// gets at least one shard (a multi-contig reference can therefore
    /// have a few more shards than requested). `shards` is clamped to
    /// at least 1 and `overlap` to at least `w + k` bases (one
    /// winnowing window plus slack — below that, windows spanning a
    /// shard boundary would fit in no shard and anchors would be
    /// lost). A shard's index packs its positions into 31 bits
    /// ([`crate::Hit`]), so `overlap` is capped at 2^30 bases and the
    /// stride at 2^31 bases less the overlap: a longer contig gets more
    /// shards than requested.
    ///
    /// # Panics
    ///
    /// If the reference is over [`MAX_REFERENCE_BASES`]
    /// ([`ShardedIndex::check_len`]).
    pub fn build_params(
        reference: Reference,
        shards: usize,
        overlap: usize,
        w: usize,
        k: usize,
        max_occ: usize,
    ) -> ShardedIndex {
        if let Err(e) = ShardedIndex::check_len(reference.total_len()) {
            panic!("{e}");
        }
        let overlap = overlap.max(w + k).min(MAX_SLICE / 2);
        let slice_len = slice_stride(reference.total_len(), shards, overlap);

        let mut built: Vec<Shard> = Vec::new();
        let mut contigs: Vec<ContigMeta> = Vec::new();
        let mut contig_shards: Vec<std::ops::Range<usize>> = Vec::new();
        let mut offset = 0usize;
        for (ci, contig) in reference.into_contigs().into_iter().enumerate() {
            let len = contig.seq.len();
            let first = built.len();
            let mut tile_start = 0usize;
            while tile_start < len {
                let tile_end = (tile_start + slice_len).min(len);
                let slice_end = (tile_start + slice_len + overlap).min(len);
                let slice = contig.seq.slice(tile_start, slice_end - tile_start);
                // A shard covering its whole contig keeps the
                // short-sequence winnowing fallback so short contigs
                // (and `shards = 1` single-contig references) index
                // bit-identically to the unsharded path; every other
                // shard emits full-window minimizers only (see module
                // docs). A contig short enough to need the fallback is
                // never split, so this is shard-count invariant.
                let ms = if tile_start == 0 && slice_end == len {
                    minimizers(&slice, w, k)
                } else {
                    minimizers_windowed(&slice, w, k)
                };
                built.push(Shard {
                    contig: ci as u32,
                    start: offset + tile_start,
                    end: offset + slice_end,
                    tile_start,
                    tile_end,
                    index: MinimizerIndex::from_minimizers(ms, w, k, slice.len(), max_occ),
                    slice,
                    busy_ns: AtomicU64::new(0),
                    anchors_found: AtomicU64::new(0),
                });
                tile_start += slice_len;
            }
            contig_shards.push(first..built.len());
            contigs.push(ContigMeta {
                name: contig.name,
                offset,
                len,
            });
            offset += len;
            // `contig.seq` drops here: from this point on the only
            // copy of these bases is the shard slices above.
        }

        // The global cutoff and the distinct count, from the shards' own
        // tables: each distinct reference position puts its hash in a
        // transient array, which sorts into one run per hash. A position
        // inside an overlap appears in more than one shard; it is counted
        // by the first shard that holds it and skipped when a later shard
        // sees it again. (Shards of different contigs never overlap, so
        // the backward walk stops at the contig boundary by
        // construction.) The hashes go through in `PARTS` residue
        // classes, so the array holds about an eighth of the hits at a
        // time instead of adding 8 bytes per hit to the build's peak.
        const PARTS: u64 = 8;
        let mut masked = Vec::new();
        let mut distinct = 0;
        let mut hashes: Vec<u64> = Vec::new();
        for part in 0..PARTS {
            hashes.clear();
            for (si, shard) in built.iter().enumerate() {
                for (hash, hits) in shard.index.buckets() {
                    if hash % PARTS != part {
                        continue;
                    }
                    for hit in hits {
                        let gpos = (shard.start + hit.pos() as usize) as u32;
                        let dup = built[..si]
                            .iter()
                            .rev()
                            .take_while(|earlier| earlier.end > gpos as usize)
                            .any(|earlier| earlier.contains(hash, gpos));
                        if !dup {
                            hashes.push(hash);
                        }
                    }
                }
            }
            hashes.sort_unstable();
            for run in hashes.chunk_by(|a, b| a == b) {
                distinct += 1;
                if run.len() > max_occ {
                    masked.push(run[0]);
                }
            }
        }
        masked.sort_unstable();

        ShardedIndex {
            w,
            k,
            max_occ,
            overlap,
            contigs,
            contig_shards,
            shards: built,
            masked,
            distinct,
            dup_anchors: AtomicU64::new(0),
        }
    }

    /// Number of reference shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Global `[start, end)` span of each shard's stored slice.
    pub fn shard_spans(&self) -> Vec<(usize, usize)> {
        self.shards.iter().map(|s| (s.start, s.end)).collect()
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
        self.contigs[c as usize].len
    }

    /// Global start of contig `c`.
    pub fn contig_offset(&self, c: u32) -> usize {
        self.contigs[c as usize].offset
    }

    /// Total reference length across all contigs.
    pub fn total_len(&self) -> usize {
        self.contigs.last().map_or(0, |c| c.offset + c.len)
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
        let i = self.contigs.partition_point(|c| c.offset + c.len <= gpos);
        (i as u32, gpos - self.contigs[i].offset)
    }

    /// Packed bytes of shard-local reference storage currently
    /// resident — the *only* reference bases the index holds (the
    /// monolithic `Seq`s were consumed by the build).
    pub fn resident_reference_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.slice.packed_bytes()).sum()
    }

    /// Copy the window `[start, end)` of contig `c` out of shard-local
    /// storage. The ownership tiles of a contig's shards partition it,
    /// so any window — including one spanning several shards — is
    /// stitched exactly; bytes are identical to slicing the original
    /// contig.
    ///
    /// # Panics
    /// Panics if `end` exceeds the contig length.
    pub fn window(&self, c: u32, start: usize, end: usize) -> Seq {
        assert!(
            end <= self.contigs[c as usize].len,
            "window end {end} exceeds contig length {}",
            self.contigs[c as usize].len
        );
        let mut out = Seq::with_capacity(end.saturating_sub(start));
        for si in self.contig_shards[c as usize].clone() {
            let sh = &self.shards[si];
            if sh.tile_end <= start {
                continue;
            }
            if sh.tile_start >= end {
                break;
            }
            let lo = start.max(sh.tile_start);
            let hi = end.min(sh.tile_end);
            // Packed-word append: copies whole 2-bit-packed bytes with
            // boundary masking instead of one base at a time.
            out.extend_from(&sh.slice, lo - sh.tile_start, hi - lo);
        }
        out
    }

    /// Number of distinct indexed minimizer hashes, genome-wide
    /// (on a single contig this equals
    /// [`MinimizerIndex::distinct_minimizers`] of the unsharded index
    /// over the same sequence).
    pub fn distinct_minimizers(&self) -> usize {
        self.distinct
    }

    /// Is this hash masked by the **global** occurrence cutoff?
    pub fn is_masked(&self, hash: u64) -> bool {
        self.masked.binary_search(&hash).is_ok()
    }

    /// Collect the anchors of `read` against every shard and merge
    /// them into the canonical global anchor stream (on a single
    /// contig, identical to [`crate::collect_anchors`] against the
    /// unsharded index).
    ///
    /// The shards are scanned in order on the calling thread; the
    /// method is `&self` and safe to call from many threads at once.
    pub fn collect_anchors(&self, read: &Seq) -> Vec<Anchor> {
        // Apply the global occurrence mask once, up front, so the
        // per-shard scans don't repeat the mask lookups per minimizer.
        let mut read_mins = minimizers(read, self.w, self.k);
        read_mins.retain(|m| !self.is_masked(m.hash));
        let mut anchors = Vec::new();
        for shard in &self.shards {
            shard_anchors(shard, &read_mins, &mut anchors);
        }
        // Each shard's anchors come out sorted (read minimizers ascend
        // in position, bucket hits in reference position), so the
        // stable sort finds one run per shard and merges them in
        // linear time.
        anchors.sort_by_key(|a| (a.read_pos, a.ref_pos, a.reverse));
        let before = anchors.len();
        anchors.dedup();
        self.dup_anchors
            .fetch_add((before - anchors.len()) as u64, Ordering::Relaxed);
        anchors
    }

    /// Chain `read`'s merged anchors, per contig, and return every
    /// chain as `(contig, chain)` with **contig-local** coordinates,
    /// best score first (contig order breaks score ties, stably).
    /// A chain never spans two contigs.
    pub fn chains_for_read(&self, read: &Seq, params: &ChainParams) -> Vec<(u32, Chain)> {
        let anchors = self.collect_anchors(read);
        self.chains_from_anchors(&anchors, params)
    }

    /// Chain an already-merged anchor stream (the body of
    /// [`ShardedIndex::chains_for_read`], split out so the provenance
    /// path can observe the anchor count without re-collecting).
    fn chains_from_anchors(&self, anchors: &[Anchor], params: &ChainParams) -> Vec<(u32, Chain)> {
        let mut merged: Vec<(u32, Chain)> = Vec::new();
        if self.contigs.len() <= 1 {
            // Single contig: local == global; skip the partition.
            merged.extend(
                chain_anchors(anchors, self.k, params)
                    .into_iter()
                    .map(|c| (0u32, c)),
            );
            return merged; // chain_anchors already sorts by score
        }
        let mut per_contig: Vec<Vec<Anchor>> = vec![Vec::new(); self.contigs.len()];
        for a in anchors {
            let (ci, local) = self.locate(a.ref_pos as usize);
            per_contig[ci as usize].push(Anchor {
                ref_pos: local as u32,
                ..*a
            });
        }
        for (ci, list) in per_contig.iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            merged.extend(
                chain_anchors(list, self.k, params)
                    .into_iter()
                    .map(|c| (ci as u32, c)),
            );
        }
        // Stable: equal scores keep contig order, so the merged chain
        // list is deterministic and shard-count invariant.
        merged.sort_by(|a, b| b.1.score.total_cmp(&a.1.score));
        merged
    }

    /// Map one read against every shard: merged anchors,
    /// per-contig chaining, candidate tasks in contig-local
    /// coordinates with targets stitched from shard-local storage.
    /// Output is shard-count invariant, and on a single contig
    /// identical to [`crate::candidates_for_read`] on the unsharded
    /// index.
    pub fn candidates_for_read(
        &self,
        read_id: u32,
        read: &Seq,
        params: &CandidateParams,
    ) -> Vec<AlignTask> {
        self.candidates_for_read_stats(read_id, read, params).0
    }

    /// [`ShardedIndex::candidates_for_read`] plus the per-read funnel
    /// counts the provenance layer records: how many merged anchors
    /// the read produced, how many chains survived the DP, and how
    /// many candidate tasks were emitted (after the per-read cap).
    /// The tasks are built by exactly the same code path, so they are
    /// identical to [`ShardedIndex::candidates_for_read`]'s — the
    /// counts are observations, never inputs.
    pub fn candidates_for_read_stats(
        &self,
        read_id: u32,
        read: &Seq,
        params: &CandidateParams,
    ) -> (Vec<AlignTask>, ReadMapStats) {
        let anchors = self.collect_anchors(read);
        let chains = self.chains_from_anchors(&anchors, &params.chain);
        // Built on the first reverse chain, cloned for the rest.
        let mut rc_read: Option<Seq> = None;
        let tasks: Vec<AlignTask> = chains
            .iter()
            .take(params.max_per_read)
            .map(|(ci, chain)| {
                let limit = self.contigs[*ci as usize].len;
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

    /// Snapshot the per-shard telemetry accumulated so far.
    pub fn metrics(&self) -> ShardIndexMetrics {
        ShardIndexMetrics {
            shards: self
                .shards
                .iter()
                .map(|s| ShardMetrics {
                    contig: s.contig,
                    start: s.start,
                    end: s.end,
                    busy: Duration::from_nanos(s.busy_ns.load(Ordering::Relaxed)),
                    anchors: s.anchors_found.load(Ordering::Relaxed),
                })
                .collect(),
            contigs: self.contigs.len(),
            dup_anchors_merged: self.dup_anchors.load(Ordering::Relaxed),
            overlap: self.overlap,
            reference_bytes: self.resident_reference_bytes(),
        }
    }

    /// Smallest overlap in bases that preserves shard-count invariance
    /// for `(w, k)` winnowing parameters;
    /// [`ShardedIndex::build_params`] clamps to it.
    pub fn min_overlap(w: usize, k: usize) -> usize {
        w + k
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
    fn shard_spans_tile_the_reference_with_overlap() {
        let s = mixed_seq(10_000, 7);
        let idx = ShardedIndex::build_params(single(&s), 4, 100, 10, 15, 400);
        let spans = idx.shard_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].0, 0);
        assert_eq!(spans.last().unwrap().1, 10_000);
        for pair in spans.windows(2) {
            // Next shard starts before the previous ends (overlap) and
            // slices advance by a fixed stride.
            assert!(pair[1].0 < pair[0].1);
            assert_eq!(pair[1].0 - pair[0].0, 2_500);
        }
    }

    #[test]
    fn no_slice_outgrows_31_bit_positions() {
        // A 3.2 Gbp contig at `--shards 1`: the stride shrinks so
        // every slice, overlap included, stays within 2^31 bases.
        let stride = slice_stride(3 << 30, 1, 256);
        assert_eq!(stride + 256, MAX_SLICE);
        assert_eq!(slice_stride(3 << 30, 4, 256), 3 << 28);
        assert_eq!(slice_stride(0, 0, 256), 1);
    }

    #[test]
    fn overlap_is_clamped_to_exactness_floor() {
        let s = mixed_seq(5_000, 9);
        let idx = ShardedIndex::build_params(single(&s), 3, 0, 10, 15, 400);
        assert_eq!(idx.overlap, ShardedIndex::min_overlap(10, 15));
    }

    #[test]
    fn distinct_minimizers_match_unsharded_index() {
        let s = mixed_seq(30_000, 3);
        let flat = MinimizerIndex::build_params(&s, 10, 15, 400);
        for shards in [1, 2, 3, 5, 8] {
            let idx = ShardedIndex::build_params(single(&s), shards, 64, 10, 15, 400);
            assert_eq!(
                idx.distinct_minimizers(),
                flat.distinct_minimizers(),
                "distinct hash count diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn anchors_equal_unsharded_for_every_shard_count() {
        let s = mixed_seq(20_000, 11);
        let read = s.slice(4_321, 1_200);
        let flat = MinimizerIndex::build_params(&s, 10, 15, 400);
        let expected = collect_anchors(&read, &flat);
        assert!(!expected.is_empty(), "exact read must anchor");
        for shards in 1..=8 {
            let idx = ShardedIndex::build_params(single(&s), shards, 32, 10, 15, 400);
            assert_eq!(
                idx.collect_anchors(&read),
                expected,
                "anchor stream diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn overlap_duplicates_are_merged_and_counted() {
        let s = mixed_seq(20_000, 13);
        // A read straddling the shard boundary at 10_000 hits both
        // shards' overlap copies of the same positions.
        let read = s.slice(9_000, 2_000);
        let idx = ShardedIndex::build_params(single(&s), 2, 2_000, 10, 15, 400);
        let flat = MinimizerIndex::build_params(&s, 10, 15, 400);
        assert_eq!(idx.collect_anchors(&read), collect_anchors(&read, &flat));
        let m = idx.metrics();
        assert!(
            m.dup_anchors_merged > 0,
            "a 2 kb overlap straddle must produce duplicate hits"
        );
        assert_eq!(m.shards.len(), 2);
        assert_eq!(m.contigs, 1);
        assert!(m.shards.iter().all(|sm| sm.busy.as_nanos() > 0));
    }

    #[test]
    fn global_occurrence_cutoff_matches_unsharded_masking() {
        // Periodic reference: the dominant minimizer occurs far more
        // often globally than in any single shard, so a *local* cutoff
        // would unmask what the unsharded index masks.
        let s = seq(&"ACGTACGTACGTACGTACGTACGT".repeat(50));
        let flat = MinimizerIndex::build_params(&s, 4, 8, 2);
        let read = s.slice(100, 300);
        let expected = collect_anchors(&read, &flat);
        for shards in [2, 5] {
            let idx = ShardedIndex::build_params(single(&s), shards, 64, 4, 8, 2);
            assert_eq!(
                idx.collect_anchors(&read),
                expected,
                "masking diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn candidates_equal_unsharded_tasks() {
        let s = mixed_seq(40_000, 17);
        let read = s.slice(12_000, 1_500).reverse_complement();
        let flat = MinimizerIndex::build(&s);
        let params = CandidateParams::default();
        let expected = crate::candidates_for_read(3, &read, &s, &flat, &params);
        assert!(!expected.is_empty());
        for shards in [1, 3, 7] {
            let idx = ShardedIndex::build(single(&s), shards, 256);
            assert_eq!(
                idx.candidates_for_read(3, &read, &params),
                expected,
                "candidate tasks diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn stats_variant_returns_identical_tasks_and_consistent_counts() {
        let s = mixed_seq(40_000, 23);
        let params = CandidateParams::default();
        let idx = ShardedIndex::build(single(&s), 3, 256);
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
        // Shorter than one winnowing window: the whole-contig shard
        // keeps the fallback minimizer; extra shards must not add any.
        let s = seq("ACGTACGTACGTACGTACG"); // 19 bases < w + k - 1
        let flat = MinimizerIndex::build_params(&s, 10, 15, 400);
        let read = s.clone();
        let expected = collect_anchors(&read, &flat);
        for shards in [1, 4, 16] {
            let idx = ShardedIndex::build_params(single(&s), shards, 64, 10, 15, 400);
            assert_eq!(idx.collect_anchors(&read), expected, "{shards} shards");
        }
    }

    #[test]
    fn empty_reference_yields_no_shards_and_no_anchors() {
        let idx = ShardedIndex::build(Reference::new(), 4, 64);
        assert_eq!(idx.num_shards(), 0);
        assert!(idx.collect_anchors(&mixed_seq(100, 1)).is_empty());
        assert_eq!(idx.distinct_minimizers(), 0);
        assert_eq!(idx.total_len(), 0);

        let empty_contig = ShardedIndex::build(Reference::single("ref", Seq::new()), 4, 64);
        assert_eq!(empty_contig.num_shards(), 0);
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
    fn shards_never_straddle_contig_boundaries() {
        for shards in [1, 2, 4, 7, 13] {
            let idx = ShardedIndex::build(multi(21), shards, 128);
            assert_eq!(idx.num_contigs(), 3);
            // Every non-empty contig has at least one shard, and every
            // shard's stored span lies inside exactly one contig.
            let m = idx.metrics();
            let mut seen = [false; 3];
            for sm in &m.shards {
                let off = idx.contig_offset(sm.contig);
                let len = idx.contig_len(sm.contig);
                assert!(
                    sm.start >= off && sm.end <= off + len,
                    "shard [{}, {}) leaks outside contig {} [{off}, {})",
                    sm.start,
                    sm.end,
                    sm.contig,
                    off + len
                );
                seen[sm.contig as usize] = true;
            }
            assert_eq!(seen, [true; 3], "a contig got no shard at {shards}");
        }
    }

    #[test]
    fn multi_contig_anchors_are_invariant_across_shard_counts() {
        let read = {
            let r = multi(33);
            // Straddle nothing: cut from the middle of chrB.
            r.contig(1).seq.slice(10_000, 1_200)
        };
        let baseline = ShardedIndex::build(multi(33), 1, 64).collect_anchors(&read);
        assert!(!baseline.is_empty(), "exact read must anchor");
        for shards in [2, 3, 7, 12] {
            let idx = ShardedIndex::build(multi(33), shards, 64);
            assert_eq!(
                idx.collect_anchors(&read),
                baseline,
                "anchors diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn multi_contig_candidates_are_invariant_and_contig_correct() {
        let r = multi(55);
        let read = r.contig(2).seq.slice(1_000, 1_400).reverse_complement();
        let params = CandidateParams::default();
        let baseline = ShardedIndex::build(multi(55), 1, 64).candidates_for_read(5, &read, &params);
        assert!(!baseline.is_empty(), "read must map");
        assert_eq!(baseline[0].contig, 2, "best candidate on the wrong contig");
        assert!(
            baseline[0].ref_pos.abs_diff(1_000) <= 200,
            "contig-local window start {} far from truth 1000",
            baseline[0].ref_pos
        );
        for shards in [2, 5, 9] {
            let idx = ShardedIndex::build(multi(55), shards, 64);
            assert_eq!(
                idx.candidates_for_read(5, &read, &params),
                baseline,
                "tasks diverged at {shards} shards"
            );
        }
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
        let idx = ShardedIndex::build(r, 4, 64);
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
        let idx = ShardedIndex::build(r, 6, 64);
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
        let idx = ShardedIndex::build(multi(13), 3, 64);
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
        let idx = ShardedIndex::build_params(single(&s), 5, 64, 10, 15, 400);
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
