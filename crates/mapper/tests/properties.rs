//! Property tests of the mapper: minimizer and chaining invariants on
//! random references.

use std::collections::HashMap;

use align_core::{Base, Seq};
use mapper::{
    chain_anchors, collect_anchors, hash64, minimizers, CandidateParams, ChainParams, Hits,
    Minimizer, MinimizerIndex,
};
use proptest::prelude::*;

fn arb_seq(min: usize, max: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(0u8..4, min..=max)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

/// The extraction the flat index replaced, kept as its oracle: hash
/// every k-mer into one vector first, then winnow over it.
fn collect_every_hash_minimizers(seq: &Seq, w: usize, k: usize) -> Vec<Minimizer> {
    let n = seq.len();
    if n < k {
        return Vec::new();
    }
    let mask: u64 = (1u64 << (2 * k)) - 1;
    let shift = 2 * (k - 1) as u64;
    let (mut fwd, mut rev) = (0u64, 0u64);
    let mut hashes: Vec<(u64, bool)> = Vec::new();
    for i in 0..n {
        let c = seq.get_code(i) as u64;
        fwd = ((fwd << 2) | c) & mask;
        rev = (rev >> 2) | ((3 - c) << shift);
        if i + 1 >= k {
            let (canon, flipped) = if fwd <= rev {
                (fwd, false)
            } else {
                (rev, true)
            };
            hashes.push((hash64(canon, mask), flipped));
        }
    }
    let nk = hashes.len();
    let mut out: Vec<Minimizer> = Vec::new();
    let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let push_out = |out: &mut Vec<Minimizer>, idx: usize| {
        let m = Minimizer {
            pos: idx as u32,
            hash: hashes[idx].0,
            flipped: hashes[idx].1,
        };
        if out.last() != Some(&m) {
            out.push(m);
        }
    };
    for i in 0..nk {
        while deque.back().is_some_and(|&b| hashes[b].0 >= hashes[i].0) {
            deque.pop_back();
        }
        deque.push_back(i);
        if i + 1 >= w {
            while deque[0] + w <= i {
                deque.pop_front();
            }
            push_out(&mut out, deque[0]);
        }
    }
    if nk < w {
        push_out(&mut out, deque[0]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The old index — one `Vec` per hash in a `HashMap` — is the flat
    /// index's oracle: same occurrence slice for every hash (order
    /// included, hits as `(pos, flipped)`), same cutoff, same distinct
    /// count, nothing for an absent hash. Half the sequences are tandem
    /// repeats of a short unit, whose minimizers pile up on a few hashes
    /// and cross any `max_occ`. The sequence is cut into contigs at
    /// `cuts`, some empty or shorter than one window: the index holds
    /// each contig's own minimizers at its offset, and a hash's run
    /// lists them in contig order.
    #[test]
    fn flat_index_equals_the_hashmap_of_vecs(
        random in arb_seq(0, 3_000),
        unit in prop::collection::vec(0u8..4, 1..=12),
        copies in 1usize..400,
        periodic in proptest::any::<bool>(),
        preset in 0usize..4,
        w in 1usize..16,
        k in 1usize..=31,
        max_occ in 0usize..40,
        mut cuts in prop::collection::vec(0usize..3_000, 0..5),
    ) {
        let s: Seq = if periodic {
            let period = unit.iter().map(|&c| Base::from_code(c));
            period.cycle().take(unit.len() * copies).collect()
        } else {
            random
        };
        let (w, k, max_occ) = [(10, 15, 400), (4, 8, 2), (5, 9, 1), (w, k, max_occ)][preset];
        prop_assert_eq!(minimizers(&s, w, k), collect_every_hash_minimizers(&s, w, k));

        cuts.iter_mut().for_each(|c| *c = (*c).min(s.len()));
        cuts.sort_unstable();
        let bounds: Vec<usize> = [0].into_iter().chain(cuts).chain([s.len()]).collect();
        let contigs: Vec<Seq> = bounds.windows(2).map(|b| s.slice(b[0], b[1] - b[0])).collect();
        let mut old: HashMap<u64, Vec<(u32, bool)>> = HashMap::new();
        for (contig, &offset) in contigs.iter().zip(&bounds) {
            for m in minimizers(contig, w, k) {
                old.entry(m.hash).or_default().push((offset as u32 + m.pos, m.flipped));
            }
        }
        let idx = MinimizerIndex::build_contigs(&contigs, w, k, max_occ);
        prop_assert_eq!(idx.ref_len, s.len());
        let unpack = |hits: Hits| -> Vec<(u32, bool)> {
            hits.map(|h| (h.pos, h.flipped)).collect()
        };
        prop_assert_eq!(idx.distinct_minimizers(), old.len());
        for (&hash, hits) in &old {
            prop_assert_eq!(unpack(idx.occurrences(hash)), hits.clone());
            let expected: &[(u32, bool)] = if hits.len() <= max_occ { hits } else { &[] };
            prop_assert_eq!(unpack(idx.lookup(hash)), expected);
        }
        let buckets: HashMap<u64, Vec<(u32, bool)>> =
            idx.buckets().map(|(h, hits)| (h, unpack(hits))).collect();
        prop_assert_eq!(&buckets, &old);
        // Absent hashes: a sample of the key space, plus the neighbours
        // of every present hash (past the mask or below zero, too). A
        // neighbour one bit apart at or above the directory's width
        // shares the hash's slot, so it reaches the key scan.
        let mask = (1u64 << (2 * k)) - 1;
        let sampled = (0..64).map(|x| hash64(x, mask));
        let neighbours = old.keys().flat_map(|&h| {
            let flips = (0..2 * k).map(move |j| h ^ (1 << j));
            [h.wrapping_add(1), h.wrapping_sub(1)].into_iter().chain(flips)
        });
        for absent in sampled.chain(neighbours).filter(|h| !old.contains_key(h)) {
            prop_assert!(idx.occurrences(absent).is_empty());
            prop_assert!(idx.lookup(absent).is_empty());
        }
    }
}

/// The sketch against its oracle on a sequence holding a one-letter run
/// longer than a window: every k-mer of the run has the same hash, so
/// each window's minimum is a tie that the rightmost k-mer must win.
fn one_letter_run_matches_the_oracle(
    prefix: &Seq,
    letter: u8,
    run: usize,
    suffix: &Seq,
    w: usize,
    k: usize,
) {
    let s: Seq = prefix
        .iter()
        .chain(std::iter::repeat_n(Base::from_code(letter), run + w + k))
        .chain(suffix.iter())
        .collect();
    assert_eq!(
        minimizers(&s, w, k),
        collect_every_hash_minimizers(&s, w, k)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_letter_runs_keep_the_rightmost_tie(
        prefix in arb_seq(0, 60),
        letter in 0u8..4,
        run in 0usize..200,
        suffix in arb_seq(0, 60),
        w in 1usize..24,
        k in 1usize..=31,
    ) {
        one_letter_run_matches_the_oracle(&prefix, letter, run, &suffix, w, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(960))]

    #[test]
    #[ignore = "10x the cases of one_letter_runs_keep_the_rightmost_tie; CI runs it in the --ignored job"]
    fn one_letter_runs_keep_the_rightmost_tie_10x(
        prefix in arb_seq(0, 60),
        letter in 0u8..4,
        run in 0usize..200,
        suffix in arb_seq(0, 60),
        w in 1usize..24,
        k in 1usize..=31,
    ) {
        one_letter_run_matches_the_oracle(&prefix, letter, run, &suffix, w, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn winnowing_density_guarantee(s in arb_seq(100, 2_000), w in 2usize..16, k in 5usize..20) {
        let ms = minimizers(&s, w, k);
        prop_assume!(s.len() >= k + w);
        // At least one minimizer per window of w k-mers, and positions
        // strictly increasing with bounded gaps.
        prop_assert!(!ms.is_empty());
        for pair in ms.windows(2) {
            prop_assert!(pair[1].pos > pair[0].pos);
            prop_assert!((pair[1].pos - pair[0].pos) as usize <= w + k);
        }
        // Every minimizer position is a valid k-mer start.
        for m in &ms {
            prop_assert!(m.pos as usize + k <= s.len());
        }
    }

    #[test]
    fn strand_symmetry_of_minimizer_sets(s in arb_seq(200, 800)) {
        let rc = s.reverse_complement();
        let mut a: Vec<u64> = minimizers(&s, 8, 13).iter().map(|m| m.hash).collect();
        let mut b: Vec<u64> = minimizers(&rc, 8, 13).iter().map(|m| m.hash).collect();
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn exact_substring_read_always_maps(s in arb_seq(3_000, 8_000), off_frac in 0.0f64..0.6) {
        let read_len = 800;
        let start = ((s.len() - read_len) as f64 * off_frac) as usize;
        let read = s.slice(start, read_len);
        let index = MinimizerIndex::build_params(&s, 10, 15, 1_000);
        let anchors = collect_anchors(&read, &index);
        prop_assert!(!anchors.is_empty(), "exact read produced no anchors");
        let chains = chain_anchors(&anchors, index.k, &ChainParams::default());
        prop_assert!(!chains.is_empty(), "exact read produced no chain");
        let best = &chains[0];
        // The best chain must sit on the true locus.
        prop_assert!(best.ref_start.abs_diff(start) < 400,
            "best chain at {} but truth at {start}", best.ref_start);
        prop_assert!(!best.reverse);
    }

    #[test]
    fn rc_read_maps_reverse(s in arb_seq(3_000, 6_000)) {
        let read = s.slice(1_000, 700).reverse_complement();
        let index = MinimizerIndex::build_params(&s, 10, 15, 1_000);
        let chains = chain_anchors(&collect_anchors(&read, &index), index.k,
                                   &ChainParams::default());
        prop_assert!(!chains.is_empty());
        prop_assert!(chains[0].reverse, "RC read must map to the reverse strand");
        prop_assert!(chains[0].ref_start.abs_diff(1_000) < 400);
    }

    #[test]
    fn chains_are_well_formed(s in arb_seq(2_000, 5_000), n_reads in 1usize..4) {
        let index = MinimizerIndex::build(&s);
        for r in 0..n_reads {
            let start = (r * 500) % (s.len() - 600);
            let read = s.slice(start, 600);
            let chains = chain_anchors(&collect_anchors(&read, &index), index.k,
                                       &ChainParams::default());
            for c in &chains {
                prop_assert!(c.read_start < c.read_end);
                prop_assert!(c.ref_start < c.ref_end);
                prop_assert!(c.read_end <= read.len());
                prop_assert!(c.ref_end <= s.len());
                prop_assert!(c.anchors >= ChainParams::default().min_anchors);
                prop_assert!(c.score >= ChainParams::default().min_score);
            }
            // Best-first ordering.
            for pair in chains.windows(2) {
                prop_assert!(pair[0].score >= pair[1].score);
            }
        }
    }

    #[test]
    fn candidate_tasks_are_alignable(s in arb_seq(4_000, 8_000)) {
        let read = s.slice(500, 1_000);
        let index = MinimizerIndex::build(&s);
        let tasks = mapper::candidates_for_read(0, &read, &s, &index,
                                                &CandidateParams::default());
        prop_assume!(!tasks.is_empty());
        let t = &tasks[0];
        // The primary candidate of an exact read must be near-exact.
        let d = align_core::doubling_nw_distance(&t.query, &t.target);
        prop_assert!(d <= CandidateParams::default().flank + 64,
            "primary candidate distance {d} too large");
    }
}
