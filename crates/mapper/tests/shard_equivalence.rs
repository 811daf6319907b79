//! Property tests of the sharded index: for random references and
//! reads, the merged candidate stream from [`ShardedIndex`] must equal
//! the unsharded [`MinimizerIndex`] path — anchors, chains, and tasks —
//! for every shard count and every overlap at or above the exactness
//! floor. Multi-contig references must additionally be shard-count
//! invariant, equal to an independent per-contig oracle, and resident
//! only in shard-local storage after the build.
//!
//! The `#[ignore]`d tests at the bottom sweep the full shard-count ×
//! overlap grid on larger inputs; CI runs them in a dedicated
//! `cargo test -- --ignored` job.

use std::collections::HashMap;

use align_core::{Base, Reference, Seq};
use mapper::{collect_anchors, minimizers, CandidateParams, MinimizerIndex, ShardedIndex};
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn arb_seq(min: usize, max: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(0u8..4, min..=max)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

/// Wrap a single sequence as the one-contig reference the legacy
/// equivalence properties exercise.
fn single(s: &Seq) -> Reference {
    Reference::single("ref", s.clone())
}

/// Mutate `read` with substitutions/indels at `rate` — sharding must
/// be invariant for noisy reads, not just exact substrings.
fn mutate(read: &Seq, rate: f64, seed: u64) -> Seq {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out: Vec<Base> = Vec::with_capacity(read.len() + 16);
    for i in 0..read.len() {
        if rng.gen_bool(rate) {
            match rng.gen_range(0..3) {
                0 => out.push(Base::from_code(rng.gen_range(0..4))), // substitution
                1 => {
                    // insertion
                    out.push(Base::from_code(read.get_code(i)));
                    out.push(Base::from_code(rng.gen_range(0..4)));
                }
                _ => {} // deletion
            }
        } else {
            out.push(Base::from_code(read.get_code(i)));
        }
    }
    out.into_iter().collect()
}

/// Assert every sharded view of `reference` agrees with the flat index
/// for `read`: anchor stream and candidate tasks.
fn assert_equivalent(reference: &Seq, read: &Seq, shards: usize, overlap: usize) {
    let flat = MinimizerIndex::build(reference);
    let sharded = ShardedIndex::build(single(reference), shards, overlap);
    assert_eq!(
        sharded.collect_anchors(read),
        collect_anchors(read, &flat),
        "anchor stream diverged at shards={shards} overlap={overlap}"
    );
    let params = CandidateParams::default();
    assert_eq!(
        sharded.candidates_for_read(9, read, &params),
        mapper::candidates_for_read(9, read, reference, &flat, &params),
        "candidate tasks diverged at shards={shards} overlap={overlap}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_candidates_equal_unsharded(
        s in arb_seq(3_000, 8_000),
        shards in 1usize..=8,
        overlap in 0usize..400,
        off_frac in 0.0f64..0.6,
        rc in proptest::any::<bool>(),
    ) {
        let read_len = 700.min(s.len() / 2);
        let start = ((s.len() - read_len) as f64 * off_frac) as usize;
        let mut read = s.slice(start, read_len);
        if rc {
            read = read.reverse_complement();
        }
        assert_equivalent(&s, &read, shards, overlap);
    }

    #[test]
    fn sharded_candidates_equal_unsharded_for_noisy_reads(
        s in arb_seq(4_000, 9_000),
        shards in 2usize..=8,
        seed in 0u64..1_000,
    ) {
        let read = mutate(&s.slice(s.len() / 4, 900), 0.08, seed);
        assert_equivalent(&s, &read, shards, 64);
    }

    #[test]
    fn global_masking_matches_unsharded(
        period in 4usize..12,
        repeats in 40usize..120,
        shards in 2usize..=6,
    ) {
        // Periodic references push repeat hashes over the cutoff
        // globally while each shard's local count stays under it — the
        // failure mode a per-shard cutoff would exhibit.
        let unit: Vec<u8> = (0..period).map(|i| (i * 7 % 4) as u8).collect();
        let s: Seq = unit
            .iter()
            .cycle()
            .take(period * repeats)
            .map(|&c| Base::from_code(c))
            .collect();
        let flat = MinimizerIndex::build_params(&s, 4, 8, 3);
        let sharded = ShardedIndex::build_params(single(&s), shards, 64, 4, 8, 3);
        let read = s.slice(s.len() / 3, (s.len() / 2).min(400));
        prop_assert_eq!(
            sharded.collect_anchors(&read),
            collect_anchors(&read, &flat)
        );
        prop_assert_eq!(sharded.distinct_minimizers(), flat.distinct_minimizers());

        // The mask agrees with a genome-wide count per hash — the map
        // the sharded index used to keep — for every shard count, on a
        // worn copy of the repeat whose hash counts spread around the
        // cutoffs, so an overlap position counted twice would flip one.
        let worn = mutate(&s, 0.05, repeats as u64);
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for m in minimizers(&worn, 4, 8) {
            *counts.entry(m.hash).or_default() += 1;
        }
        let absent = minimizers(&mutate(&read, 0.3, period as u64), 4, 8);
        for shards in 1..=8 {
            for max_occ in [1, 2, 3, 5] {
                let sharded = ShardedIndex::build_params(single(&worn), shards, 64, 4, 8, max_occ);
                prop_assert_eq!(sharded.distinct_minimizers(), counts.len());
                for (&hash, &count) in &counts {
                    prop_assert_eq!(
                        sharded.is_masked(hash),
                        count > max_occ,
                        "shards={} max_occ={} count={}", shards, max_occ, count
                    );
                }
                for m in absent.iter().filter(|m| !counts.contains_key(&m.hash)) {
                    prop_assert!(!sharded.is_masked(m.hash));
                }
            }
        }
    }

    /// Multi-contig: the sharded result must be invariant in the shard
    /// count *and* agree with an independent per-contig oracle (each
    /// contig chained against its own flat index, chains merged by
    /// score with contig order as the stable tiebreak).
    #[test]
    fn multi_contig_candidates_equal_per_contig_oracle(
        a in arb_seq(2_000, 5_000),
        b in arb_seq(3_000, 7_000),
        c in arb_seq(1_000, 2_500),
        shards in 1usize..=7,
        from in 0usize..3,
        rc in proptest::any::<bool>(),
    ) {
        let contigs = [a, b, c];
        let src = &contigs[from];
        let read_len = 600.min(src.len() / 2);
        let mut read = src.slice(src.len() / 4, read_len);
        if rc {
            read = read.reverse_complement();
        }
        let mut reference = Reference::new();
        for (i, s) in contigs.iter().enumerate() {
            reference.push(&format!("c{i}"), s.clone());
        }
        let params = CandidateParams::default();
        let got = ShardedIndex::build(reference, shards, 64)
            .candidates_for_read(4, &read, &params);
        let want = per_contig_oracle(&contigs, &read, &params);
        prop_assert_eq!(got, want, "diverged at shards={}", shards);
    }
}

/// Independent multi-contig oracle built only from the *unsharded*
/// single-sequence primitives: per-contig anchors and chains, merged
/// by score (stable, contig order breaking ties), tasks cut from the
/// original contig sequences.
fn per_contig_oracle(
    contigs: &[Seq],
    read: &Seq,
    params: &CandidateParams,
) -> Vec<align_core::AlignTask> {
    let mut merged: Vec<(u32, mapper::Chain)> = Vec::new();
    for (ci, seq) in contigs.iter().enumerate() {
        let flat = MinimizerIndex::build(seq);
        let anchors = collect_anchors(read, &flat);
        for chain in mapper::chain_anchors(&anchors, flat.k, &params.chain) {
            merged.push((ci as u32, chain));
        }
    }
    merged.sort_by(|a, b| b.1.score.total_cmp(&a.1.score));
    merged
        .iter()
        .take(params.max_per_read)
        .map(|(ci, chain)| {
            mapper::task_from_chain(4, read, &contigs[*ci as usize], chain, params.flank)
                .in_contig(*ci)
        })
        .collect()
}

/// Contig-boundary-adversarial reference: neighbouring contigs share
/// sequence at the junction, contigs of wildly different sizes, one
/// contig shorter than a winnowing window, and one empty contig.
#[test]
fn boundary_adversarial_reference_is_shard_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0DA);
    let rand_seq = |rng: &mut ChaCha8Rng, n: usize| -> Seq {
        (0..n)
            .map(|_| Base::from_code(rng.gen_range(0..4)))
            .collect()
    };
    let shared = rand_seq(&mut rng, 2_000);
    let mut chr_a = rand_seq(&mut rng, 6_000).to_bases();
    chr_a.extend(shared.iter()); // chrA ends with the shared block
    let mut chr_b = shared.to_bases(); // chrB starts with it
    chr_b.extend(rand_seq(&mut rng, 11_000).iter());

    let build = |shards: usize| {
        let mut r = Reference::new();
        r.push("chrA", chr_a.iter().copied().collect());
        r.push("chrB", chr_b.iter().copied().collect());
        r.push("tiny", Seq::from_ascii(b"ACGTACGTACGTACG").unwrap()); // < w+k-1
        r.push("void", Seq::new());
        r.push("chrC", rand_seq(&mut ChaCha8Rng::seed_from_u64(9), 4_000));
        ShardedIndex::build(r, shards, 64)
    };

    let params = CandidateParams::default();
    // Reads: the shared junction block (maps to both contigs), a
    // boundary-straddling slice of chrA, a noisy chrB read, the tiny
    // contig itself.
    let reads: Vec<Seq> = vec![
        shared.slice(200, 1_500),
        chr_a.iter().copied().collect::<Seq>().slice(5_200, 2_000),
        mutate(
            &chr_b.iter().copied().collect::<Seq>().slice(4_000, 1_200),
            0.08,
            7,
        ),
        Seq::from_ascii(b"ACGTACGTACGTACG").unwrap(),
    ];
    let baseline_idx = build(1);
    for (ri, read) in reads.iter().enumerate() {
        let baseline = baseline_idx.candidates_for_read(ri as u32, read, &params);
        for shards in [2, 3, 5, 11] {
            let idx = build(shards);
            assert_eq!(
                idx.candidates_for_read(ri as u32, read, &params),
                baseline,
                "read {ri} diverged at {shards} shards"
            );
        }
    }
    // The junction read really does map to both flanking contigs, and
    // no task leaks past a contig boundary.
    let tasks = baseline_idx.candidates_for_read(0, &reads[0], &params);
    let contigs_hit: std::collections::HashSet<u32> = tasks.iter().map(|t| t.contig).collect();
    assert!(
        contigs_hit.contains(&0) && contigs_hit.contains(&1),
        "junction read must map to chrA and chrB, hit {contigs_hit:?}"
    );
    for t in &tasks {
        assert!(
            t.ref_pos + t.target.len() <= baseline_idx.contig_len(t.contig),
            "task leaks past its contig boundary"
        );
    }
}

/// Many contigs: 300 worn copies of one repeat, so most hashes recur
/// across contigs and shards. The global mask and the distinct count
/// must agree with a genome-wide count per hash (each contig's own
/// minimizers, summed) whether a contig is one shard or split in many.
#[test]
fn masking_counts_each_position_once_across_many_contigs() {
    let unit: Vec<u8> = (0..9).map(|i| (i * 7 % 4) as u8).collect();
    let repeat: Seq = unit
        .iter()
        .cycle()
        .take(180)
        .map(|&c| Base::from_code(c))
        .collect();
    let contigs: Vec<Seq> = (0..300).map(|i| mutate(&repeat, 0.05, i)).collect();
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for contig in &contigs {
        for m in minimizers(contig, 4, 8) {
            *counts.entry(m.hash).or_default() += 1;
        }
    }
    for shards in [1, 300, 1_000] {
        for max_occ in [1, 5, 40] {
            let mut reference = Reference::new();
            for (i, contig) in contigs.iter().enumerate() {
                reference.push(&format!("c{i}"), contig.clone());
            }
            let idx = ShardedIndex::build_params(reference, shards, 0, 4, 8, max_occ);
            assert_eq!(idx.distinct_minimizers(), counts.len(), "shards={shards}");
            for (&hash, &count) in &counts {
                assert_eq!(
                    idx.is_masked(hash),
                    count > max_occ,
                    "shards={shards} max_occ={max_occ} count={count}"
                );
            }
        }
    }
}

/// Residency: after the build, the only resident reference bytes are
/// the shard-local slices — each at most one tile + overlap — and the
/// total is the tiling sum, not a second full copy. Together with
/// `ShardedIndex::build` *consuming* the `Reference` (every contig
/// `Seq` is dropped inside the build), this proves the monolithic
/// reference no longer exists after index construction.
#[test]
fn reference_residency_is_shard_local_after_build() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x51DE);
    let lens = [23_000usize, 9_000, 41_000, 500];
    let mut reference = Reference::new();
    let mut total_packed = 0usize;
    for (i, &len) in lens.iter().enumerate() {
        let s: Seq = (0..len)
            .map(|_| Base::from_code(rng.gen_range(0..4)))
            .collect();
        total_packed += s.packed_bytes();
        reference.push(&format!("chr{i}"), s);
    }
    let total: usize = lens.iter().sum();
    let shards = 6;
    let overlap = 256;
    let idx = ShardedIndex::build(reference, shards, overlap);

    // Per-shard cap: every stored slice is at most one ownership tile
    // plus the overlap flank.
    let slice_len = total.div_ceil(shards);
    for (start, end) in idx.shard_spans() {
        assert!(
            end - start <= slice_len + overlap,
            "shard [{start}, {end}) stores more than tile + overlap"
        );
    }
    // Aggregate: the resident bytes are the tiling sum — the packed
    // reference plus at most one packed overlap per shard (+1 byte per
    // shard for 2-bit padding). A retained monolithic copy would
    // roughly double this.
    let resident = idx.resident_reference_bytes();
    let slack = idx.num_shards() * (overlap.div_ceil(4) + 1);
    assert!(
        resident <= total_packed + slack,
        "resident {resident} bytes exceeds shard-local bound {} — \
         a monolithic reference copy survived the build",
        total_packed + slack
    );
    assert!(
        resident >= total_packed,
        "shards must store at least every reference base once"
    );
    // The metrics snapshot reports the same number.
    assert_eq!(idx.metrics().reference_bytes, resident);
    // And candidate windows come out of that storage, byte-exact:
    // spot-check a window against a freshly regenerated contig.
    let mut rng = ChaCha8Rng::seed_from_u64(0x51DE);
    let chr0: Seq = (0..lens[0])
        .map(|_| Base::from_code(rng.gen_range(0..4)))
        .collect();
    assert_eq!(idx.window(0, 11_000, 14_000), chr0.slice(11_000, 3_000));
}

/// Exhaustive grid: shard counts 1..8 × overlaps from the exactness
/// floor up, over a larger reference and a panel of reads (exact,
/// reverse-complement, noisy, straddling every shard boundary). Slow;
/// run with `cargo test -- --ignored` (CI has a dedicated job).
#[test]
#[ignore = "slow exhaustive shard/overlap sweep; CI runs it in the --ignored job"]
fn exhaustive_shard_overlap_grid() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD15C);
    let reference: Seq = (0..120_000)
        .map(|_| Base::from_code(rng.gen_range(0..4)))
        .collect();
    let flat = MinimizerIndex::build(&reference);
    let params = CandidateParams::default();
    let floor = ShardedIndex::min_overlap(flat.w, flat.k);

    for shards in 1..=8 {
        for overlap in [floor, 64, 256, 2_048] {
            let sharded = ShardedIndex::build(single(&reference), shards, overlap);
            let spans = sharded.shard_spans();
            // Read panel: one exact read per shard boundary (straddling
            // it), plus an RC read and a noisy read per shard.
            let mut reads: Vec<Seq> = Vec::new();
            for span in &spans {
                if span.0 > 0 {
                    let start = span.0.saturating_sub(500);
                    reads.push(reference.slice(start, 1_000.min(reference.len() - start)));
                }
                let mid = span.0 + (span.1 - span.0) / 2;
                let len = 800.min(reference.len() - mid);
                if len > 100 {
                    reads.push(reference.slice(mid, len).reverse_complement());
                    reads.push(mutate(
                        &reference.slice(mid, len),
                        0.10,
                        (shards * 1_000 + overlap) as u64,
                    ));
                }
            }
            for (i, read) in reads.iter().enumerate() {
                assert_eq!(
                    sharded.collect_anchors(read),
                    collect_anchors(read, &flat),
                    "anchors diverged: shards={shards} overlap={overlap} read={i}"
                );
                assert_eq!(
                    sharded.candidates_for_read(i as u32, read, &params),
                    mapper::candidates_for_read(i as u32, read, &reference, &flat, &params),
                    "tasks diverged: shards={shards} overlap={overlap} read={i}"
                );
            }
        }
    }
}

/// Batch-level equivalence on a simulated multi-read workload, sharded
/// eight ways with the minimum exact overlap.
#[test]
#[ignore = "slow batch sweep; CI runs it in the --ignored job"]
fn batch_candidates_equal_unsharded_at_minimum_overlap() {
    let mut rng = ChaCha8Rng::seed_from_u64(7_431);
    let reference: Seq = (0..90_000)
        .map(|_| Base::from_code(rng.gen_range(0..4)))
        .collect();
    let flat = MinimizerIndex::build(&reference);
    let sharded = ShardedIndex::build(
        single(&reference),
        8,
        ShardedIndex::min_overlap(flat.w, flat.k),
    );
    let params = CandidateParams::default();
    for r in 0..40u32 {
        let start = rng.gen_range(0..reference.len() - 1_200);
        let mut read = mutate(&reference.slice(start, 1_200), 0.06, r as u64);
        if r % 2 == 1 {
            read = read.reverse_complement();
        }
        assert_eq!(
            sharded.candidates_for_read(r, &read, &params),
            mapper::candidates_for_read(r, &read, &reference, &flat, &params),
            "read {r} diverged"
        );
    }
}
