//! Property tests of the genome index: for random references and
//! reads, [`ShardedIndex`] — one minimizer index over every contig —
//! must equal the single-sequence [`MinimizerIndex`] path on one contig
//! (anchors, chains and tasks), and an independent per-contig oracle on
//! many; its occurrence cutoff must count a hash over every contig, and
//! the contigs' packed bases must be the only reference it keeps.
//! `ShardedIndex` keeps the name, and its builders the ignored shard
//! arguments, of the tiled index it replaced.
//!
//! The `#[ignore]`d tests at the bottom sweep larger multi-contig
//! references and read panels; CI runs them in a dedicated
//! `cargo test -- --ignored` job.

use std::collections::HashMap;

use align_core::{Base, Reference, Seq};
use mapper::{collect_anchors, minimizers, CandidateParams, Chain, MinimizerIndex, ShardedIndex};
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

/// Mutate `read` with substitutions/indels at `rate`: the equivalences
/// must hold for noisy reads, not just exact substrings.
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

/// Assert the genome index over `reference` agrees with the flat index
/// for `read`: anchor stream and candidate tasks.
fn assert_equivalent(reference: &Seq, read: &Seq) {
    let flat = MinimizerIndex::build(reference);
    let genome = ShardedIndex::build(single(reference), 2, 256);
    assert_eq!(
        genome.collect_anchors(read),
        collect_anchors(read, &flat),
        "anchor stream diverged"
    );
    let params = CandidateParams::default();
    assert_eq!(
        genome.candidates_for_read(9, read, &params),
        mapper::candidates_for_read(9, read, reference, &flat, &params),
        "candidate tasks diverged"
    );
}

/// Cut `s` into `parts` contigs of near-equal length.
fn cut(s: &Seq, parts: usize) -> Vec<Seq> {
    let bounds: Vec<usize> = (0..=parts).map(|i| s.len() * i / parts).collect();
    bounds
        .windows(2)
        .map(|b| s.slice(b[0], b[1] - b[0]))
        .collect()
}

/// Each hash's occurrence count over every contig of `contigs`.
fn genome_counts(contigs: &[Seq], w: usize, k: usize) -> HashMap<u64, usize> {
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for contig in contigs {
        for m in minimizers(contig, w, k) {
            *counts.entry(m.hash).or_default() += 1;
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_candidates_equal_unsharded(
        s in arb_seq(3_000, 8_000),
        off_frac in 0.0f64..0.6,
        rc in proptest::any::<bool>(),
    ) {
        let read_len = 700.min(s.len() / 2);
        let start = ((s.len() - read_len) as f64 * off_frac) as usize;
        let mut read = s.slice(start, read_len);
        if rc {
            read = read.reverse_complement();
        }
        assert_equivalent(&s, &read);
    }

    #[test]
    fn sharded_candidates_equal_unsharded_for_noisy_reads(
        s in arb_seq(4_000, 9_000),
        seed in 0u64..1_000,
    ) {
        let read = mutate(&s.slice(s.len() / 4, 900), 0.08, seed);
        assert_equivalent(&s, &read);
    }

    #[test]
    fn global_masking_matches_unsharded(
        period in 4usize..12,
        repeats in 40usize..120,
        parts in 1usize..=8,
    ) {
        // Periodic references push repeat hashes over the cutoff.
        let unit: Vec<u8> = (0..period).map(|i| (i * 7 % 4) as u8).collect();
        let s: Seq = unit
            .iter()
            .cycle()
            .take(period * repeats)
            .map(|&c| Base::from_code(c))
            .collect();
        let flat = MinimizerIndex::build_params(&s, 4, 8, 3);
        let genome = ShardedIndex::build_params(single(&s), 2, 256, 4, 8, 3);
        let read = s.slice(s.len() / 3, (s.len() / 2).min(400));
        prop_assert_eq!(
            genome.collect_anchors(&read),
            collect_anchors(&read, &flat)
        );
        prop_assert_eq!(genome.distinct_minimizers(), flat.distinct_minimizers());

        // A worn copy of the repeat, cut into `parts` contigs, spreads
        // its hash counts around the cutoffs: a hash is masked exactly
        // when its count over every contig exceeds `max_occ`, so a
        // count taken per contig would flip one.
        let contigs = cut(&mutate(&s, 0.05, repeats as u64), parts);
        let counts = genome_counts(&contigs, 4, 8);
        let absent = minimizers(&mutate(&read, 0.3, period as u64), 4, 8);
        for max_occ in [1, 2, 3, 5] {
            let idx = MinimizerIndex::build_contigs(&contigs, 4, 8, max_occ);
            prop_assert_eq!(idx.distinct_minimizers(), counts.len());
            for (&hash, &count) in &counts {
                prop_assert_eq!(idx.occurrences(hash).len(), count);
                prop_assert_eq!(
                    idx.lookup(hash).is_empty(),
                    count > max_occ,
                    "parts={} max_occ={} count={}", parts, max_occ, count
                );
            }
            for m in absent.iter().filter(|m| !counts.contains_key(&m.hash)) {
                prop_assert!(idx.occurrences(m.hash).is_empty());
            }
        }
    }

    /// Multi-contig: the genome index must agree with an independent
    /// per-contig oracle (each contig chained against its own flat
    /// index, chains merged by score with contig order as the stable
    /// tiebreak).
    #[test]
    fn multi_contig_candidates_equal_per_contig_oracle(
        a in arb_seq(2_000, 5_000),
        b in arb_seq(3_000, 7_000),
        c in arb_seq(1_000, 2_500),
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
        let got = ShardedIndex::build(reference, 2, 256).candidates_for_read(4, &read, &params);
        prop_assert_eq!(got, per_contig_oracle(&contigs, &read, &params, 4));
    }

    /// Multi-contig, at the chain level: the genome's chains equal each
    /// contig's flat `chain_anchors`, merged stably by score — the
    /// whole `(contig, chain)` list in order, scores as bits. One
    /// contig is empty, and two neighbours share the junction's
    /// sequence, so a read from there chains on both with equal
    /// scores and the order of ties is checked too.
    #[test]
    fn multi_contig_chains_equal_per_contig_oracle(
        mut contigs in prop::collection::vec(arb_seq(1_500, 4_000), 2..=4),
        junction in 0usize..3,
        empty in 0usize..5,
        from in 0usize..6,
        rc in proptest::any::<bool>(),
    ) {
        // Contig `j + 1` starts with contig `j`'s last 1 000 bases.
        let j = junction % (contigs.len() - 1);
        let shared = contigs[j].slice(contigs[j].len() - 1_000, 1_000);
        let mut head = shared.to_bases();
        head.extend(contigs[j + 1].iter());
        contigs[j + 1] = head.into_iter().collect();
        contigs.insert(empty % (contigs.len() + 1), Seq::new());

        // A read from one contig, or (past the last) from the junction.
        let src = contigs.iter().filter(|s| !s.is_empty()).nth(from);
        let mut read = match src {
            Some(s) => s.slice(s.len() / 3, 500),
            None => shared.slice(200, 600),
        };
        if rc {
            read = read.reverse_complement();
        }
        let mut reference = Reference::new();
        for (i, s) in contigs.iter().enumerate() {
            reference.push(&format!("c{i}"), s.clone());
        }
        let params = CandidateParams::default();
        let got = ShardedIndex::build(reference, 2, 256).chains_for_read(&read, &params.chain);
        let want = per_contig_chains(&contigs, &read, &params);
        let exact = |chains: &[(u32, Chain)]| -> Vec<_> {
            chains
                .iter()
                .map(|(ci, c)| {
                    let ends = (c.read_start, c.read_end, c.ref_start, c.ref_end);
                    (*ci, c.score.to_bits(), c.anchors, ends, c.reverse)
                })
                .collect()
        };
        prop_assert!(!want.is_empty(), "the read must chain");
        prop_assert_eq!(exact(&got), exact(&want));
    }
}

/// Each contig's anchors against its own flat index, chained by
/// `chain_anchors` and merged by score (stable, contig order breaking
/// ties).
fn per_contig_chains(contigs: &[Seq], read: &Seq, params: &CandidateParams) -> Vec<(u32, Chain)> {
    let mut merged: Vec<(u32, Chain)> = Vec::new();
    for (ci, seq) in contigs.iter().enumerate() {
        let flat = MinimizerIndex::build(seq);
        let anchors = collect_anchors(read, &flat);
        for chain in mapper::chain_anchors(&anchors, flat.k, &params.chain) {
            merged.push((ci as u32, chain));
        }
    }
    merged.sort_by(|a, b| b.1.score.total_cmp(&a.1.score));
    merged
}

/// Independent multi-contig oracle built only from the single-sequence
/// primitives: per-contig anchors and chains, merged by score (stable,
/// contig order breaking ties), tasks cut from the original contig
/// sequences.
fn per_contig_oracle(
    contigs: &[Seq],
    read: &Seq,
    params: &CandidateParams,
    read_id: u32,
) -> Vec<align_core::AlignTask> {
    per_contig_chains(contigs, read, params)
        .iter()
        .take(params.max_per_read)
        .map(|(ci, chain)| {
            mapper::task_from_chain(read_id, read, &contigs[*ci as usize], chain, params.flank)
                .in_contig(*ci)
        })
        .collect()
}

/// Contig-boundary-adversarial reference: neighbouring contigs share
/// sequence at the junction, contigs of wildly different sizes, one
/// contig shorter than a winnowing window, and one empty contig. Every
/// read's tasks equal the per-contig oracle's, whatever the ignored
/// shard arguments say.
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
    let contigs: Vec<Seq> = vec![
        chr_a.iter().copied().collect(),
        chr_b.iter().copied().collect(),
        Seq::from_ascii(b"ACGTACGTACGTACG").unwrap(), // < w+k-1
        Seq::new(),
        rand_seq(&mut ChaCha8Rng::seed_from_u64(9), 4_000),
    ];
    let build = |shards: usize| {
        let mut r = Reference::new();
        for (name, s) in ["chrA", "chrB", "tiny", "void", "chrC"]
            .iter()
            .zip(&contigs)
        {
            r.push(name, s.clone());
        }
        ShardedIndex::build(r, shards, 64)
    };

    let params = CandidateParams::default();
    // Reads: the shared junction block (maps to both contigs), a
    // boundary-straddling slice of chrA, a noisy chrB read, the tiny
    // contig itself.
    let reads: Vec<Seq> = vec![
        shared.slice(200, 1_500),
        contigs[0].slice(5_200, 2_000),
        mutate(&contigs[1].slice(4_000, 1_200), 0.08, 7),
        contigs[2].clone(),
    ];
    let idx = build(2);
    for (ri, read) in reads.iter().enumerate() {
        let want = per_contig_oracle(&contigs, read, &params, ri as u32);
        for shards in [1, 2, 11] {
            assert_eq!(
                build(shards).candidates_for_read(ri as u32, read, &params),
                want,
                "read {ri} diverged at {shards} shards"
            );
        }
    }
    // The junction read really does map to both flanking contigs, and
    // no task leaks past a contig boundary.
    let tasks = idx.candidates_for_read(0, &reads[0], &params);
    let contigs_hit: std::collections::HashSet<u32> = tasks.iter().map(|t| t.contig).collect();
    assert!(
        contigs_hit.contains(&0) && contigs_hit.contains(&1),
        "junction read must map to chrA and chrB, hit {contigs_hit:?}"
    );
    for t in &tasks {
        assert!(
            t.ref_pos + t.target.len() <= idx.contig_len(t.contig),
            "task leaks past its contig boundary"
        );
    }
}

/// Many contigs: 300 worn copies of one repeat, so most hashes recur
/// across contigs. A hash's `lookup` is empty exactly when its count
/// over every contig exceeds `max_occ`, and the distinct count is
/// genome-wide.
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
    let counts = genome_counts(&contigs, 4, 8);
    for max_occ in [1, 5, 40] {
        let idx = MinimizerIndex::build_contigs(&contigs, 4, 8, max_occ);
        assert_eq!(idx.distinct_minimizers(), counts.len());
        for (&hash, &count) in &counts {
            assert_eq!(
                idx.lookup(hash).is_empty(),
                count > max_occ,
                "max_occ={max_occ} count={count}"
            );
        }
        let mut reference = Reference::new();
        for (i, contig) in contigs.iter().enumerate() {
            reference.push(&format!("c{i}"), contig.clone());
        }
        let genome = ShardedIndex::build_params(reference, 2, 256, 4, 8, max_occ);
        assert_eq!(genome.distinct_minimizers(), counts.len());
    }
}

/// Residency: after the build, the only resident reference bytes are
/// the contigs' packed bases, once. Together with `ShardedIndex::build`
/// *consuming* the `Reference`, this proves no second copy of the
/// reference exists after index construction.
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
    let idx = ShardedIndex::build(reference, 2, 256);
    assert_eq!(idx.resident_reference_bytes(), total_packed);
    // The metrics snapshot reports the same number.
    assert_eq!(idx.metrics().reference_bytes, total_packed);
    // And candidate windows come out of that storage, byte-exact:
    // spot-check a window against a freshly regenerated contig.
    let mut rng = ChaCha8Rng::seed_from_u64(0x51DE);
    let chr0: Seq = (0..lens[0])
        .map(|_| Base::from_code(rng.gen_range(0..4)))
        .collect();
    assert_eq!(idx.window(0, 11_000, 14_000), chr0.slice(11_000, 3_000));
}

/// A larger multi-contig sweep against the per-contig oracle: eight
/// references of one to twelve contigs (some shorter than a window,
/// some empty, some sharing a junction block) and a panel of reads per
/// contig (exact, reverse-complement, noisy, straddling each contig
/// end). Slow; run with `cargo test -- --ignored` (CI has a dedicated
/// job).
#[test]
#[ignore = "slow multi-contig oracle sweep; CI runs it in the --ignored job"]
fn multi_contig_oracle_sweep() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD15C);
    let params = CandidateParams::default();
    let mut checked = 0;
    for round in 0..8u64 {
        let n_contigs = 1 + (round as usize * 5) % 12;
        let mut contigs: Vec<Seq> = Vec::new();
        for c in 0..n_contigs {
            let len = match (round + c as u64) % 5 {
                0 => 0,
                1 => rng.gen_range(1..40),
                _ => rng.gen_range(2_000..40_000),
            };
            let mut bases: Vec<Base> = (0..len)
                .map(|_| Base::from_code(rng.gen_range(0..4)))
                .collect();
            // Every third contig starts with the previous one's tail.
            if c % 3 == 2 && contigs[c - 1].len() > 1_500 {
                let prev = &contigs[c - 1];
                let mut shared = prev.slice(prev.len() - 1_500, 1_500).to_bases();
                shared.extend(bases);
                bases = shared;
            }
            contigs.push(bases.into_iter().collect());
        }
        let mut reference = Reference::new();
        for (i, s) in contigs.iter().enumerate() {
            reference.push(&format!("c{i}"), s.clone());
        }
        let idx = ShardedIndex::build(reference, 2, 256);

        let mut reads: Vec<Seq> = Vec::new();
        for s in contigs.iter().filter(|s| s.len() >= 2_000) {
            let mid = s.len() / 2;
            reads.push(s.slice(mid - 400, 800).reverse_complement());
            reads.push(mutate(&s.slice(mid - 500, 1_000), 0.10, round));
            reads.push(s.slice(s.len() - 700, 700));
            reads.push(s.slice(0, 700));
        }
        for (i, read) in reads.iter().enumerate() {
            assert_eq!(
                idx.candidates_for_read(i as u32, read, &params),
                per_contig_oracle(&contigs, read, &params, i as u32),
                "tasks diverged: round={round} read={i}"
            );
        }
        checked += reads.len();
    }
    assert!(checked >= 80, "only {checked} reads swept");
}

/// Batch-level equivalence on a simulated multi-read workload.
#[test]
#[ignore = "slow batch sweep; CI runs it in the --ignored job"]
fn batch_candidates_equal_the_flat_index() {
    let mut rng = ChaCha8Rng::seed_from_u64(7_431);
    let reference: Seq = (0..90_000)
        .map(|_| Base::from_code(rng.gen_range(0..4)))
        .collect();
    let flat = MinimizerIndex::build(&reference);
    let genome = ShardedIndex::build(single(&reference), 2, 256);
    let params = CandidateParams::default();
    for r in 0..40u32 {
        let start = rng.gen_range(0..reference.len() - 1_200);
        let mut read = mutate(&reference.slice(start, 1_200), 0.06, r as u64);
        if r % 2 == 1 {
            read = read.reverse_complement();
        }
        assert_eq!(
            genome.candidates_for_read(r, &read, &params),
            mapper::candidates_for_read(r, &read, &reference, &flat, &params),
            "read {r} diverged"
        );
    }
}
