//! Property-based tests of the GenASM engine against the NW oracle.
//!
//! Invariants checked on random inputs:
//!
//! 1. every produced CIGAR is *valid* (consumes exactly the sequences,
//!    M/X placed on equal/unequal bases) — `Alignment::check`;
//! 2. the GenASM cost is never below the optimal edit distance;
//! 3. on single-window inputs whose optimum consumes the whole text,
//!    the cost is exactly optimal;
//! 4. the improvements never change the output: all 8 improvement
//!    combinations produce identical CIGARs;
//! 5. instrumentation sanity: improved footprint ≤ baseline footprint.

use align_core::{nw_distance, Base, Seq};
use genasm_core::{AlignWorkspace, GenAsmConfig, Improvements, MemStats};
use proptest::prelude::*;

fn arb_seq(max_len: usize) -> impl Strategy<Value = Seq> {
    prop::collection::vec(0u8..4, 1..=max_len)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

/// A (query, target) pair where the target is a mutated copy of the
/// query — the realistic long-read case.
fn arb_mutated_pair(max_len: usize, max_edits: usize) -> impl Strategy<Value = (Seq, Seq)> {
    (
        arb_seq(max_len),
        prop::collection::vec((any::<u8>(), any::<u16>(), 0u8..4), 0..=max_edits),
    )
        .prop_map(|(q, edits)| {
            let mut t: Vec<Base> = q.iter().collect();
            for (kind, pos, code) in edits {
                if t.is_empty() {
                    break;
                }
                let pos = pos as usize % t.len();
                match kind % 3 {
                    0 => t[pos] = Base::from_code(code),
                    1 => t.insert(pos, Base::from_code(code)),
                    _ => {
                        t.remove(pos);
                    }
                }
            }
            if t.is_empty() {
                t.push(Base::A);
            }
            (q, t.into_iter().collect())
        })
}

fn align(q: &Seq, t: &Seq, cfg: &GenAsmConfig) -> (align_core::Alignment, MemStats) {
    let mut stats = MemStats::new();
    let a = genasm_core::align_with_stats(q, t, cfg, &mut stats).expect("k=W cannot fail");
    (a, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cigar_always_valid_and_cost_at_least_optimal((q, t) in arb_mutated_pair(300, 20)) {
        let cfg = GenAsmConfig::improved();
        let (a, _) = align(&q, &t, &cfg);
        a.check(&q, &t).unwrap();
        prop_assert!(a.edit_distance >= nw_distance(&q, &t));
    }

    #[test]
    fn all_improvement_combinations_agree((q, t) in arb_mutated_pair(200, 12)) {
        let mut reference = None;
        for improvements in Improvements::all_combinations() {
            let cfg = GenAsmConfig { improvements, ..GenAsmConfig::improved() };
            let (a, _) = align(&q, &t, &cfg);
            a.check(&q, &t).unwrap();
            match &reference {
                None => reference = Some(a),
                Some(r) => prop_assert_eq!(&a.cigar, &r.cigar,
                    "combination {} diverged", improvements.label()),
            }
        }
    }

    #[test]
    fn single_window_low_error_is_optimal((q, t) in arb_mutated_pair(64, 3)) {
        // Restrict to same-length-ish single-window pairs: bitap's free
        // text tail can otherwise legally charge the leftover.
        prop_assume!(q.len() <= 64 && t.len() <= 64);
        let cfg = GenAsmConfig::improved();
        let (a, _) = align(&q, &t, &cfg);
        let opt = nw_distance(&q, &t);
        // The greedy single window is optimal when the whole target is
        // consumed by the window alignment; with leftover the cost may
        // exceed the optimum but never by more than the leftover run.
        prop_assert!(a.edit_distance >= opt);
        prop_assert!(a.edit_distance <= opt + t.len());
    }

    #[test]
    fn improved_footprint_never_larger((q, t) in arb_mutated_pair(256, 16)) {
        let (_, imp) = align(&q, &t, &GenAsmConfig::improved());
        let (_, base) = align(&q, &t, &GenAsmConfig::baseline());
        prop_assert!(imp.table_words <= base.table_words);
        prop_assert!(imp.table_accesses() <= base.table_accesses());
        prop_assert_eq!(imp.windows, base.windows);
    }

    #[test]
    fn random_unrelated_pairs_still_valid(q in arb_seq(180), t in arb_seq(180)) {
        // Worst case: unrelated sequences (d* near k in every window).
        let cfg = GenAsmConfig::improved();
        let (a, _) = align(&q, &t, &cfg);
        a.check(&q, &t).unwrap();
        prop_assert!(a.edit_distance >= nw_distance(&q, &t));
        prop_assert!(a.edit_distance <= q.len() + t.len());
    }

    #[test]
    fn identity_pairs_have_zero_distance(q in arb_seq(500)) {
        let (a, stats) = align(&q, &q, &GenAsmConfig::improved());
        prop_assert_eq!(a.edit_distance, 0);
        // Early termination: identity windows compute exactly one row.
        prop_assert_eq!(stats.rows_computed, stats.windows);
    }

    #[test]
    fn window_geometries_all_valid((q, t) in arb_mutated_pair(150, 10),
                                   w in 4usize..=64, o_frac in 0.1f64..0.9) {
        let o = ((w as f64 * o_frac) as usize).min(w - 1);
        let cfg = GenAsmConfig { w, o, k: w, improvements: Improvements::ALL };
        let (a, _) = align(&q, &t, &cfg);
        a.check(&q, &t).unwrap();
    }

    #[test]
    fn reused_workspace_is_bit_identical_to_fresh(
        pairs in prop::collection::vec(arb_mutated_pair(250, 16), 1..6),
        improvements_idx in 0usize..8,
    ) {
        // One workspace reused across a stream of dissimilar alignments
        // must produce exactly the same Alignment and MemStats as a
        // fresh workspace per pair, under every improvement combination.
        let improvements = Improvements::all_combinations()[improvements_idx];
        let cfg = GenAsmConfig { improvements, ..GenAsmConfig::improved() };
        let mut ws = AlignWorkspace::new();
        for (q, t) in &pairs {
            let reused = genasm_core::align_with_workspace(q, t, &cfg, &mut ws).expect("k=W");
            let per_task = ws.take_stats();
            let (fresh, fresh_stats) = align(q, t, &cfg);
            prop_assert_eq!(&reused.cigar, &fresh.cigar,
                "reuse changed the alignment under {}", improvements.label());
            prop_assert_eq!(per_task, fresh_stats,
                "reuse changed the instrumentation under {}", improvements.label());
        }
    }

    #[test]
    fn hinted_driver_is_bit_identical_for_any_hint(
        (q, t) in arb_mutated_pair(250, 16),
        improvements_idx in 0usize..8,
        raw_bound in 0usize..96,
    ) {
        // There is one window pipeline and one budget: whatever bound
        // the compat entry point is handed (none for a quarter of the
        // cases, then 0 up to past `k`), it does exactly the unhinted
        // call's work, under every improvement combination.
        let improvements = Improvements::all_combinations()[improvements_idx];
        let cfg = GenAsmConfig { improvements, ..GenAsmConfig::improved() };
        let bound = raw_bound.checked_sub(24);
        let (reference, reference_stats) = align(&q, &t, &cfg);
        let mut ws = AlignWorkspace::new();
        let hinted = genasm_core::align_with_workspace_hinted(&q, &t, &cfg, bound, &mut ws)
            .expect("k=W cannot fail");
        prop_assert_eq!(hinted, reference,
            "bound {:?} changed the alignment under {}", bound, improvements.label());
        prop_assert_eq!(ws.stats, reference_stats,
            "bound {:?} changed the work done under {}", bound, improvements.label());
        prop_assert_eq!(ws.stats.windows_rescued, 0);
    }
}

/// Satellite acceptance test: a single workspace reused across 100+
/// randomized alignments stays bit-identical to fresh-workspace runs
/// (results *and* instrumentation), and — once warm — its buffer
/// capacities never change again, i.e. the steady state allocates
/// nothing per alignment, let alone per window.
#[test]
fn workspace_reuse_bit_identical_and_capacity_stable_over_100_alignments() {
    use proptest::test_runner::TestRng;
    use proptest::Strategy;

    let mut rng = TestRng::for_test("workspace_reuse_longrun");
    let configs: Vec<GenAsmConfig> = Improvements::all_combinations()
        .into_iter()
        .map(|improvements| GenAsmConfig {
            improvements,
            ..GenAsmConfig::improved()
        })
        .collect();
    let mut workspaces: Vec<AlignWorkspace> = configs
        .iter()
        .map(|cfg| AlignWorkspace::with_capacity(cfg.w))
        .collect();

    // Warm-up: adversarial pairs push every buffer to its high-water
    // mark (unrelated sequences maximize d* and table rows; the offset
    // pair maximizes the traceback op count). The remaining randomized
    // cases then must not grow any buffer: WARMUP_CASES below gives the
    // random stream slack to finish the job before stability is
    // asserted.
    let warm_pairs: Vec<(Seq, Seq)> = vec![
        (
            (0..400).map(|i| Base::from_code((i % 4) as u8)).collect(),
            (0..400)
                .map(|i| Base::from_code((3 - i % 4) as u8))
                .collect(),
        ),
        (
            (0..64).map(|_| Base::from_code(0)).collect(),
            (0..64)
                .map(|i| Base::from_code(if i < 32 { 1 } else { 0 }))
                .collect(),
        ),
    ];
    for (cfg, ws) in configs.iter().zip(&mut workspaces) {
        for (q, t) in &warm_pairs {
            genasm_core::align_with_workspace(q, t, cfg, ws).expect("k=W");
        }
        ws.take_stats();
    }

    const WARMUP_CASES: usize = 20;
    let mut warm_sigs: Vec<Option<genasm_core::CapacitySignature>> = vec![None; configs.len()];

    let pair_strategy = {
        // Mutated pairs (realistic) mixed with unrelated pairs (worst
        // case d*), all within the warm-up length.
        proptest::collection::vec(0u8..4, 1..=380)
            .prop_map(|codes| codes.into_iter().map(Base::from_code).collect::<Seq>())
    };
    for case in 0..120 {
        let q: Seq = pair_strategy.generate(&mut rng);
        let t: Seq = if case % 3 == 0 {
            pair_strategy.generate(&mut rng) // unrelated
        } else {
            // light mutation: flip a few bases of q
            let mut bases: Vec<Base> = q.iter().collect();
            let flips = 1 + case % 7;
            for f in 0..flips {
                let pos = (case * 31 + f * 17) % bases.len();
                bases[pos] = Base::from_code((bases[pos].code() + 1) % 4);
            }
            bases.into_iter().collect()
        };
        for ((cfg, ws), warm_sig) in configs.iter().zip(&mut workspaces).zip(&mut warm_sigs) {
            let reused = genasm_core::align_with_workspace(&q, &t, cfg, ws).expect("k=W");
            let per_task = ws.take_stats();
            let mut fresh_stats = MemStats::new();
            let fresh = genasm_core::align_with_stats(&q, &t, cfg, &mut fresh_stats).expect("k=W");
            assert_eq!(
                reused.cigar,
                fresh.cigar,
                "case {case}: reuse changed the alignment under {}",
                cfg.improvements.label()
            );
            assert_eq!(
                per_task,
                fresh_stats,
                "case {case}: reuse changed instrumentation under {}",
                cfg.improvements.label()
            );
            match warm_sig {
                None if case + 1 >= WARMUP_CASES => *warm_sig = Some(ws.capacity_signature()),
                None => {}
                Some(sig) => assert_eq!(
                    ws.capacity_signature(),
                    *sig,
                    "case {case}: a warm workspace re-allocated under {}",
                    cfg.improvements.label()
                ),
            }
        }
    }
}
