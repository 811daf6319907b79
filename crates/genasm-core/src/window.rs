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
//! The pipeline is written once, in [`drive`], and every engine runs
//! it: [`AlignWorkspace`] (the CPU's row-group sweep, via
//! [`crate::engine::align_window`]) and the simulated GPU's per-block
//! engine (`genasm-gpu`, 8-row groups charged as an anti-diagonal
//! wavefront) differ only in how they sweep one window, what they
//! charge for it and where its table lives. Every window runs
//! at the one budget `cfg.k`; a window that needs more edits fails the
//! alignment with the engine's own error.

use align_core::{AlignError, Alignment, Cigar, CigarOp, Seq};

use crate::bitvec::PatternMask;
use crate::config::GenAsmConfig;
use crate::engine::{align_window, WindowSummary};
use crate::stats::MemStats;
use crate::workspace::AlignWorkspace;

/// Kept for the frozen `genasm-bench`: the floor of the `cfg.k` its
/// `banded-*` window cases set directly.
pub const MIN_HINT_K: usize = 8;

/// What the window pipeline needs of an engine: align one staged window
/// within a budget, and hand back what it committed.
pub trait WindowEngine {
    /// Why a window failed; the driver passes it through untouched.
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
    /// window), and book it in the engine's [`MemStats`].
    fn align_window(
        &mut self,
        cfg: &GenAsmConfig,
        keep: usize,
        final_window: bool,
    ) -> Result<WindowSummary, Self::Error>;

    /// Committed operations of the most recent window, forward order.
    fn window_ops(&self) -> &[CigarOp];
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

    fn window_ops(&self) -> &[CigarOp] {
        AlignWorkspace::window_ops(self)
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
    drive(ws, query, target, cfg)
}

/// Kept for the frozen `genasm-bench`: an alias of
/// [`align_with_workspace`] that ignores `_max_edits`.
pub fn align_with_workspace_hinted(
    query: &Seq,
    target: &Seq,
    cfg: &GenAsmConfig,
    _max_edits: Option<usize>,
    ws: &mut AlignWorkspace,
) -> Result<Alignment, AlignError> {
    align_with_workspace(query, target, cfg, ws)
}

/// The greedy window pipeline over any [`WindowEngine`], every window
/// at the budget `cfg.k`.
pub fn drive<E: WindowEngine>(
    engine: &mut E,
    query: &Seq,
    target: &Seq,
    cfg: &GenAsmConfig,
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
