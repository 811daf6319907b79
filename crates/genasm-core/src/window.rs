//! The windowed long-read driver: GenASM's greedy window pipeline.
//!
//! Long sequences are aligned with overlapping `W × W` windows. Each
//! window is aligned by a [`WindowEngine`]; a non-final window commits
//! only its first `W - O` consumed characters (the rest overlaps the
//! next window and is recomputed there), then the window is re-anchored
//! at the committed position. The final window commits its whole
//! traceback and closes the alignment with explicit indels if one
//! sequence runs out before the other.
//!
//! The pipeline is written once, in [`drive_hinted`], and every engine
//! runs it: [`AlignWorkspace`] (the CPU's row-group sweep, via
//! [`crate::engine::align_window`]) and the simulated GPU's per-block
//! engine (`genasm-gpu`, anti-diagonal row groups) differ only in how
//! they sweep one window and where its table lives.
//!
//! ## Edit-bound hints and the rescue path
//!
//! [`drive_hinted`] accepts a per-alignment *edit bound hint* (derived
//! upstream from chain score / anchor coverage — see `mapper`). A hint
//! below the configured `k` runs the whole greedy window pipeline at a
//! tight budget `k' = clamp(hint, MIN_HINT_K, k)`: every window sweeps
//! at most `k' + 1` error rows instead of `k + 1`, and hopeless windows
//! are abandoned by the engine's pre-flight. Since `k` never enters a
//! bitvector value, a tight run that succeeds is **bit-identical** to
//! the full-budget run (same `d*` per window, same ops). If any window
//! exceeds the tight budget the driver *rescues*: it reruns the entire
//! alignment at the full `k`, which *is* the unbanded computation — so
//! accepted alignments are bit-identical to the unhinted engine by
//! construction, with no conservative-band correctness argument needed.
//! Instrumentation accumulates across both attempts; rescues are
//! counted in [`MemStats::windows_rescued`].

use align_core::{AlignError, Alignment, Cigar, CigarOp, Seq};

use crate::bitvec::PatternMask;
use crate::config::GenAsmConfig;
use crate::engine::{align_window, WindowSummary};
use crate::stats::MemStats;
use crate::workspace::AlignWorkspace;

/// Floor applied to edit-bound hints: running below this buys little
/// (row 0 always runs) and makes spurious rescues likelier on noisy
/// hint estimates.
pub const MIN_HINT_K: usize = 8;

/// What the window pipeline needs of an engine: align one staged window
/// within a budget, and hand back what it committed and counted.
pub trait WindowEngine {
    /// Why a window failed. [`WindowEngine::over_budget`] tells the
    /// one failure the driver answers (with a rescue) from the rest,
    /// which it passes through untouched.
    type Error;

    /// Stage the window `query[qpos..qpos+m]` vs `target[tpos..tpos+n]`.
    fn set_window(
        &mut self,
        query: &Seq,
        qpos: usize,
        m: usize,
        target: &Seq,
        tpos: usize,
        n: usize,
    );

    /// Align the staged window within `cfg.k` edits, committing at most
    /// `keep` characters of either sequence (everything, for a final
    /// window), and book it in [`WindowEngine::stats`].
    fn align_window(
        &mut self,
        cfg: &GenAsmConfig,
        keep: usize,
        final_window: bool,
    ) -> Result<WindowSummary, Self::Error>;

    /// Whether `err` says the window needs more than `cfg.k` edits.
    fn over_budget(err: &Self::Error) -> bool;

    /// Committed operations of the most recent window, forward order.
    fn window_ops(&self) -> &[CigarOp];

    /// The engine's counters; the driver adds hint savings and rescues.
    fn stats(&mut self) -> &mut MemStats;
}

/// Stage the window `query[qpos..qpos+m]` vs `target[tpos..tpos+n]` as
/// every engine sweeps it, both reversed: the pattern's bitmasks,
/// returned, and the text's 2-bit codes, into `text_rev`.
pub fn stage_window(
    query: &Seq,
    qpos: usize,
    m: usize,
    target: &Seq,
    tpos: usize,
    n: usize,
    text_rev: &mut Vec<u8>,
) -> PatternMask {
    text_rev.clear();
    text_rev.extend((0..n).rev().map(|i| target.get_code(tpos + i)));
    PatternMask::new_reversed_window(query, qpos, m)
}

impl WindowEngine for AlignWorkspace {
    type Error = AlignError;

    fn set_window(
        &mut self,
        query: &Seq,
        qpos: usize,
        m: usize,
        target: &Seq,
        tpos: usize,
        n: usize,
    ) {
        AlignWorkspace::set_window(self, query, qpos, m, target, tpos, n);
    }

    fn align_window(
        &mut self,
        cfg: &GenAsmConfig,
        keep: usize,
        final_window: bool,
    ) -> Result<WindowSummary, AlignError> {
        align_window(self, cfg, keep, final_window)
    }

    fn over_budget(err: &AlignError) -> bool {
        *err == AlignError::NoAlignment
    }

    fn window_ops(&self) -> &[CigarOp] {
        AlignWorkspace::window_ops(self)
    }

    fn stats(&mut self) -> &mut MemStats {
        &mut self.stats
    }
}

/// Align `query` against `target` end-to-end with the windowed GenASM
/// pipeline, borrowing all scratch state from `ws`.
///
/// Instrumentation accumulates into `ws.stats`. With a warm workspace
/// the only allocation this performs is the returned [`Alignment`]'s
/// own CIGAR storage — every window is heap-allocation-free.
pub fn align_with_workspace(
    query: &Seq,
    target: &Seq,
    cfg: &GenAsmConfig,
    ws: &mut AlignWorkspace,
) -> Result<Alignment, AlignError> {
    drive_hinted(ws, query, target, cfg, None)
}

/// [`align_with_workspace`] with an optional per-alignment edit bound
/// (see [`drive_hinted`]).
pub fn align_with_workspace_hinted(
    query: &Seq,
    target: &Seq,
    cfg: &GenAsmConfig,
    max_edits: Option<usize>,
    ws: &mut AlignWorkspace,
) -> Result<Alignment, AlignError> {
    drive_hinted(ws, query, target, cfg, max_edits)
}

/// The window pipeline with an optional per-alignment edit bound:
/// `max_edits` caps the per-window error-row sweep at
/// `clamp(max_edits, MIN_HINT_K, cfg.k)`. Too-tight hints are safe —
/// the driver falls back to a full-`k` rerun (the rescue path), so the
/// result is always bit-identical to the unhinted call; only the work
/// done (and the [`MemStats`] accounting of it) differs.
pub fn drive_hinted<E: WindowEngine>(
    engine: &mut E,
    query: &Seq,
    target: &Seq,
    cfg: &GenAsmConfig,
    max_edits: Option<usize>,
) -> Result<Alignment, E::Error> {
    if let Some(hint) = max_edits {
        let kt = hint.max(MIN_HINT_K).min(cfg.k);
        if kt < cfg.k {
            let tight = GenAsmConfig { k: kt, ..*cfg };
            match drive(engine, query, target, &tight, Some(cfg.k)) {
                Err(e) if E::over_budget(&e) => {
                    // The band came up empty somewhere mid-pipeline;
                    // rerun everything at the full budget. That rerun
                    // is exactly the unbanded computation.
                    engine.stats().windows_rescued += 1;
                }
                other => return other,
            }
        }
    }
    drive(engine, query, target, cfg, None)
}

/// The greedy window pipeline at one fixed budget. `full_k` is the
/// configured budget when `cfg.k` is a tightened hint (used only to
/// account the skipped rows); `None` when running unbanded.
fn drive<E: WindowEngine>(
    engine: &mut E,
    query: &Seq,
    target: &Seq,
    cfg: &GenAsmConfig,
    full_k: Option<usize>,
) -> Result<Alignment, E::Error> {
    cfg.validate();
    let mut cigar = Cigar::new();
    let mut qpos = 0usize;
    let mut tpos = 0usize;

    loop {
        let qrem = query.len() - qpos;
        let trem = target.len() - tpos;
        if qrem == 0 {
            cigar.push_run(trem as u32, CigarOp::Del);
            break;
        }
        if trem == 0 {
            cigar.push_run(qrem as u32, CigarOp::Ins);
            break;
        }
        let m = qrem.min(cfg.w);
        let n = trem.min(cfg.w);
        let final_window = m == qrem && n == trem;
        let keep = if final_window { m } else { cfg.keep() };

        engine.set_window(query, qpos, m, target, tpos, n);
        let res = engine.align_window(cfg, keep, final_window)?;
        if let Some(fk) = full_k {
            // Rows `cfg.k+1 ..= fk` of this window were never swept:
            // that is the hint's contribution on top of whatever the
            // engine skipped within the tight budget.
            engine.stats().rows_skipped(fk - cfg.k, n);
        }
        debug_assert!(
            res.q_consumed + res.t_consumed > 0,
            "window made no progress (W={}, O={})",
            cfg.w,
            cfg.o
        );
        cigar.extend_from_ops(engine.window_ops());
        qpos += res.q_consumed;
        tpos += res.t_consumed;

        if final_window {
            debug_assert_eq!(qpos, query.len(), "final window must consume the query");
            let leftover = target.len() - tpos;
            cigar.push_run(leftover as u32, CigarOp::Del);
            break;
        }
    }

    Ok(Alignment::from_cigar(cigar))
}

/// Align with a transient workspace, accumulating instrumentation into
/// `stats` — the original entry point, kept for one-shot callers. Batch
/// code should hold an [`AlignWorkspace`] and call
/// [`align_with_workspace`] so scratch buffers amortize across tasks.
pub fn align_with_stats(
    query: &Seq,
    target: &Seq,
    cfg: &GenAsmConfig,
    stats: &mut MemStats,
) -> Result<Alignment, AlignError> {
    let mut ws = AlignWorkspace::with_capacity(cfg.w);
    let result = align_with_workspace(query, target, cfg, &mut ws);
    stats.merge(&ws.stats);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    fn improved(w: usize, o: usize) -> GenAsmConfig {
        GenAsmConfig {
            w,
            o,
            k: w,
            improvements: crate::config::Improvements::ALL,
        }
    }

    #[test]
    fn empty_cases() {
        let mut s = MemStats::new();
        let cfg = GenAsmConfig::improved();
        let a = align_with_stats(&Seq::new(), &Seq::new(), &cfg, &mut s).unwrap();
        assert_eq!(a.edit_distance, 0);
        let a = align_with_stats(&seq("ACGT"), &Seq::new(), &cfg, &mut s).unwrap();
        a.check(&seq("ACGT"), &Seq::new()).unwrap();
        assert_eq!(a.edit_distance, 4);
        let a = align_with_stats(&Seq::new(), &seq("ACG"), &cfg, &mut s).unwrap();
        a.check(&Seq::new(), &seq("ACG")).unwrap();
        assert_eq!(a.edit_distance, 3);
    }

    #[test]
    fn single_window_exact() {
        let q = seq("ACGTACGTACGT");
        let mut s = MemStats::new();
        let a = align_with_stats(&q, &q, &GenAsmConfig::improved(), &mut s).unwrap();
        a.check(&q, &q).unwrap();
        assert_eq!(a.edit_distance, 0);
        assert_eq!(s.windows, 1);
    }

    #[test]
    fn multi_window_exact_match() {
        // 200 bases > W: exercises window stitching on the identity path.
        let bases = "ACGT".repeat(50);
        let q = seq(&bases);
        let mut s = MemStats::new();
        let a = align_with_stats(&q, &q, &GenAsmConfig::improved(), &mut s).unwrap();
        a.check(&q, &q).unwrap();
        assert_eq!(a.edit_distance, 0);
        assert!(
            s.windows >= 4,
            "expected several windows, got {}",
            s.windows
        );
    }

    #[test]
    fn multi_window_with_scattered_errors() {
        // Mutate a few positions of a 300-base sequence.
        let mut bases: Vec<u8> = "ACGTTGCA".repeat(38).into_bytes(); // 304
        bases[17] = b'A';
        bases[130] = b'C';
        bases[255] = b'G';
        let q = seq(std::str::from_utf8(&bases).unwrap());
        let t = seq(&"ACGTTGCA".repeat(38));
        let mut s = MemStats::new();
        let a = align_with_stats(&q, &t, &GenAsmConfig::improved(), &mut s).unwrap();
        a.check(&q, &t).unwrap();
        let oracle = align_core::nw_distance(&q, &t);
        assert!(a.edit_distance >= oracle);
        // Greedy windowing on low-error data should be optimal here.
        assert_eq!(a.edit_distance, oracle);
    }

    #[test]
    fn unequal_lengths_close() {
        let q = seq(&"ACGTTGCA".repeat(30)); // 240
        let t = seq(&"ACGTTGCA".repeat(28)); // 224
        let mut s = MemStats::new();
        let a = align_with_stats(&q, &t, &GenAsmConfig::improved(), &mut s).unwrap();
        a.check(&q, &t).unwrap();
        assert!(a.edit_distance >= 16);
    }

    #[test]
    fn baseline_and_improved_same_distance() {
        let mut bases: Vec<u8> = "TTAGGCAC".repeat(40).into_bytes();
        bases[33] = b'T';
        bases[200] = b'A';
        let q = seq(std::str::from_utf8(&bases).unwrap());
        let t = seq(&"TTAGGCAC".repeat(40));
        let mut s1 = MemStats::new();
        let mut s2 = MemStats::new();
        let a = align_with_stats(&q, &t, &GenAsmConfig::improved(), &mut s1).unwrap();
        let b = align_with_stats(&q, &t, &GenAsmConfig::baseline(), &mut s2).unwrap();
        assert_eq!(a.cigar, b.cigar, "improvements must not change output");
        assert!(s2.table_words > s1.table_words);
    }

    #[test]
    fn small_windows_still_correct() {
        let q = seq(&"ACGTTGCA".repeat(10));
        let t = q.clone();
        for (w, o) in [(8, 3), (16, 8), (32, 24), (5, 1)] {
            let mut s = MemStats::new();
            let a = align_with_stats(&q, &t, &improved(w, o), &mut s).unwrap();
            a.check(&q, &t).unwrap();
            assert_eq!(a.edit_distance, 0, "W={w} O={o}");
        }
    }

    #[test]
    fn budget_failure_propagates() {
        let q = seq(&"AAAAAAAA".repeat(10));
        let t = seq(&"TTTTTTTT".repeat(10));
        let mut cfg = GenAsmConfig::improved();
        cfg.k = 4;
        let mut s = MemStats::new();
        assert_eq!(
            align_with_stats(&q, &t, &cfg, &mut s).unwrap_err(),
            AlignError::NoAlignment
        );
    }

    #[test]
    fn tight_hint_is_bit_identical_and_skips_rows() {
        // A few scattered errors: a tight hint must reproduce the
        // unhinted CIGAR exactly while sweeping far fewer rows. Use the
        // baseline config (no early termination) so the row savings are
        // attributable to the hint alone.
        let mut bases: Vec<u8> = "ACGTTGCA".repeat(38).into_bytes();
        bases[17] = b'A';
        bases[130] = b'C';
        let q = seq(std::str::from_utf8(&bases).unwrap());
        let t = seq(&"ACGTTGCA".repeat(38));
        let cfg = GenAsmConfig::baseline();
        let mut ws1 = AlignWorkspace::new();
        let a = align_with_workspace(&q, &t, &cfg, &mut ws1).unwrap();
        let mut ws2 = AlignWorkspace::new();
        let b = align_with_workspace_hinted(&q, &t, &cfg, Some(4), &mut ws2).unwrap();
        assert_eq!(a.cigar, b.cigar, "hint must not change the output");
        assert_eq!(ws2.stats.windows_rescued, 0, "generous hint, no rescue");
        assert_eq!(ws1.stats.windows, ws2.stats.windows);
        // Hint 4 clamps to MIN_HINT_K = 8: 9 rows per window, not 65.
        assert_eq!(
            ws2.stats.rows_computed,
            9 * ws2.stats.windows,
            "tight budget must bound the row sweep"
        );
        assert!(ws2.stats.rows_computed < ws1.stats.rows_computed / 5);
        assert_eq!(
            ws2.stats.band_cells_skipped,
            ws1.stats.cells_computed - ws2.stats.cells_computed,
            "skipped cells must account exactly for the saved work"
        );
    }

    #[test]
    fn too_tight_hint_rescues_to_the_unhinted_result() {
        // All-mismatch input: every window needs ~W edits, far beyond
        // any clamped hint, so the tight attempt fails and the driver
        // must fall back to the full budget and still match unhinted.
        let q = seq(&"A".repeat(100));
        let t = seq(&"T".repeat(100));
        let cfg = GenAsmConfig::improved();
        let mut ws1 = AlignWorkspace::new();
        let a = align_with_workspace(&q, &t, &cfg, &mut ws1).unwrap();
        let mut ws2 = AlignWorkspace::new();
        let b = align_with_workspace_hinted(&q, &t, &cfg, Some(1), &mut ws2).unwrap();
        assert_eq!(a.cigar, b.cigar, "rescue must reproduce the unhinted run");
        assert_eq!(ws2.stats.windows_rescued, 1);
        assert!(
            ws2.stats.cells_computed > ws1.stats.cells_computed,
            "the failed tight attempt costs extra work on top of the rescue"
        );
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fail {
        Budget,
        Broken,
    }

    /// A scripted engine: every window commits matches only, except
    /// that the `fail_at`-th window aligned below the full budget fails
    /// with `failure`. Records the budget of every window it is asked
    /// to align.
    struct Scripted {
        fail_at: usize,
        failure: Fail,
        budgets: Vec<usize>,
        staged: (usize, usize),
        ops: Vec<CigarOp>,
        stats: MemStats,
    }

    const FULL_K: usize = 64;

    impl WindowEngine for Scripted {
        type Error = Fail;

        fn set_window(&mut self, _: &Seq, _: usize, m: usize, _: &Seq, _: usize, n: usize) {
            self.staged = (m, n);
        }

        fn align_window(
            &mut self,
            cfg: &GenAsmConfig,
            keep: usize,
            final_window: bool,
        ) -> Result<WindowSummary, Fail> {
            let tight_so_far = self.budgets.iter().filter(|&&k| k < FULL_K).count();
            self.budgets.push(cfg.k);
            if cfg.k < FULL_K && tight_so_far == self.fail_at {
                return Err(self.failure);
            }
            let (m, n) = self.staged;
            let len = if final_window { m.min(n) } else { keep };
            self.ops.clear();
            self.ops.resize(len, CigarOp::Match);
            self.stats.window_done(1, n, cfg.k);
            Ok(WindowSummary {
                d_star: 0,
                q_consumed: len,
                t_consumed: len,
            })
        }

        fn over_budget(err: &Fail) -> bool {
            *err == Fail::Budget
        }

        fn window_ops(&self) -> &[CigarOp] {
            &self.ops
        }

        fn stats(&mut self) -> &mut MemStats {
            &mut self.stats
        }
    }

    fn scripted(failure: Fail) -> Scripted {
        Scripted {
            fail_at: 2,
            failure,
            budgets: Vec::new(),
            staged: (0, 0),
            ops: Vec::new(),
            stats: MemStats::new(),
        }
    }

    #[test]
    fn over_budget_window_rescues_exactly_once() {
        // 200 bases in windows of 64 keeping 40: four non-final windows
        // and a final one. The third tight window runs over budget.
        let q = seq(&"ACGTTGCA".repeat(25));
        let cfg = GenAsmConfig::improved();
        let mut engine = scripted(Fail::Budget);
        let aln = drive_hinted(&mut engine, &q, &q, &cfg, Some(3)).unwrap();
        assert_eq!(aln.cigar.to_string(), "200M");
        assert_eq!(
            engine.budgets,
            [MIN_HINT_K, MIN_HINT_K, MIN_HINT_K, 64, 64, 64, 64, 64],
            "one abandoned tight attempt, then one full-budget run"
        );
        assert_eq!(engine.stats.windows_rescued, 1);
        assert_eq!(engine.stats.windows, 2 + 5);
        // The two tight windows that succeeded each skipped the rows
        // between the hint and the full budget on top of their own
        // early termination; the rescue's windows only the latter.
        assert_eq!(
            engine.stats.band_cells_skipped,
            2 * (MIN_HINT_K + 56) as u64 * 64 + 4 * 64 * 64 + 64 * 40
        );
    }

    #[test]
    fn engine_failure_other_than_budget_propagates_untouched() {
        let q = seq(&"ACGTTGCA".repeat(25));
        let cfg = GenAsmConfig::improved();
        let mut engine = scripted(Fail::Broken);
        let err = drive_hinted(&mut engine, &q, &q, &cfg, Some(3)).unwrap_err();
        assert_eq!(err, Fail::Broken);
        assert_eq!(engine.budgets, [MIN_HINT_K; 3], "no rescue attempted");
        assert_eq!(engine.stats.windows_rescued, 0);
    }

    #[test]
    fn hint_at_or_above_k_is_a_plain_run() {
        let q = seq(&"ACGTTGCA".repeat(20));
        let cfg = GenAsmConfig::improved();
        let mut ws1 = AlignWorkspace::new();
        let a = align_with_workspace(&q, &q, &cfg, &mut ws1).unwrap();
        let mut ws2 = AlignWorkspace::new();
        let b = align_with_workspace_hinted(&q, &q, &cfg, Some(cfg.k), &mut ws2).unwrap();
        assert_eq!(a.cigar, b.cigar);
        assert_eq!(ws1.stats, ws2.stats, "hint >= k must change nothing");
    }

    #[test]
    fn very_asymmetric_lengths() {
        // Query much shorter than target: the tail is closed with D runs.
        let q = seq("ACGTACGT");
        let t = seq(&"ACGTACGT".repeat(20));
        let mut s = MemStats::new();
        let a = align_with_stats(&q, &t, &GenAsmConfig::improved(), &mut s).unwrap();
        a.check(&q, &t).unwrap();
        // Query much longer than target.
        let a = align_with_stats(&t, &q, &GenAsmConfig::improved(), &mut s).unwrap();
        a.check(&t, &q).unwrap();
    }
}
