//! The per-window engine: GenASM-DC (distance calculation) and
//! GenASM-TB (traceback), with the paper's three improvements.
//!
//! A window aligns a reversed pattern slice (≤ 64 chars, one bit each)
//! against a reversed text slice. Reversal makes the backward traceback
//! emit operations in forward order (GenASM's trick).
//!
//! All mutable state — the boundary row, the traceback table, the staged
//! window inputs, the op buffer, and the instrumentation counters —
//! lives in a caller-provided [`AlignWorkspace`], so a warm workspace
//! aligns windows without a single heap allocation.
//!
//! ## Improvement mechanics
//!
//! * **Row groups + early termination.** Row `d` of column `i` depends
//!   only on row `d-1` (columns `i-1`, `i`) and row `d` (column `i-1`),
//!   so rows are computed in ascending order. Both table layouts sweep
//!   row 0 alone (matches only: all a clean window needs), then
//!   `GROUP = 4` rows at a time, column by column: per text column
//!   `PM[T[i]]` and the boundary row are loaded once, the group's rows
//!   step top to bottom in registers and their entries (the row's value,
//!   or its four edge vectors) go straight into the table, and the
//!   bottom row becomes the next group's boundary. A row waits on its
//!   own left neighbour, so one row at a time would run at that chain's
//!   latency; a group keeps `GROUP` chains in flight. The first row
//!   whose final column has the solution bit active is the minimal edit
//!   count `d*`; with early termination enabled, no further group is
//!   swept. **Overshoot** — the rows of the last group past `d*` or past
//!   the budget — is truncated from the table unread and is not booked:
//!   [`MemStats`] counts rows `0..=d*` (as the simulated GPU does for
//!   its 8-row groups), so every counter reads as if rows were swept one
//!   at a time.
//! * **Entry compression.** Only the combined vector `R[d][i]` is
//!   stored. The traceback re-derives edge existence from stored
//!   neighbours and the pattern mask (see [`traceback`]).
//! * **DENT.** The committed part of a non-final window's traceback
//!   consumes at most `keep = W - O` pattern chars *and* at most `keep`
//!   text chars (the walk stops at whichever bound is hit first). A walk
//!   positioned at text column `i` has consumed `n-1-i` text columns, so
//!   it can only visit columns `i >= n - keep`, and it reads neighbour
//!   columns `i-1 >= n - keep - 1`. Everything below
//!   `cut = max(0, n - keep - 1)` is therefore unreachable and is never
//!   stored. Final windows walk until the pattern is consumed, so their
//!   cut is 0.
//!
//! ## Where the band lives (and where it cannot)
//!
//! The engine's *sound* band is the **`d` (error) dimension**: `cfg.k`
//! only bounds the row loop — it never enters a bitvector value — so
//! a window produces bit-identical rows, the same `d*`, and the same
//! traceback under any `k >= d*`, and a clean
//! [`AlignError::NoAlignment`] otherwise. Early termination is that
//! band taken all the way: the sweep stops at `d*`, so no budget
//! between `d*` and `k` could save a further row. One cheap exit rides
//! along for callers that set `k < W`: the **infeasibility pre-flight**
//! (a window whose pattern outruns `n + k` can never fire the solution
//! bit, so it is abandoned before any row — hopeless windows cost
//! O(1)). It and the per-window accounting of
//! [`MemStats::band_cells_skipped`] / [`MemStats::peak_band_rows`] are
//! [`MemStats`] methods, so every engine books them the same way.
//!
//! Banding the *text-column* dimension, by contrast, is unsound here:
//! the single-word Bitap row has horizontal free propagation (the
//! shifted-in active bit 0 encodes the free text prefix), so column
//! activity reaches every column once `d >= m - n`, and dropping
//! conservatively-dead columns can still flip a traceback edge pick —
//! violating the same-ops invariant. That is why [`TbTable`] has
//! nothing to store per row: every row keeps the columns from the
//! uniform, provably safe DENT cut up.
//!
//! ## One sweep and one traceback for every engine
//!
//! The distance pass is [`sweep_row0`] and [`sweep_rows`], for either
//! entry width. The CPU runs them on 4-row groups; the simulated GPU
//! runs them on its own 8-row groups and charges the device for the
//! anti-diagonal wavefront it would run, in closed form per group; the
//! occurrence filter ([`crate::filter`]) runs them with no table.
//! Everything after the sweep is shared too: [`traceback`] reads the
//! table through the two-method [`TableRead`] seam, so the workspace's
//! counted arena and the device's shared/global table drive one walk
//! with one edge-priority order.

use align_core::{AlignError, CigarOp};

use crate::bitvec::{init_row, sweep_row0, sweep_rows, PatternMask};
use crate::config::GenAsmConfig;
use crate::stats::MemStats;
use crate::table::{slot, TableRead, TbTable};
use crate::workspace::AlignWorkspace;

/// Result of aligning one window; the committed operations are left in
/// [`AlignWorkspace::window_ops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSummary {
    /// Minimal edit count for the full pattern window against a prefix
    /// of the (un-reversed) text window.
    pub d_star: usize,
    /// Pattern characters consumed by the committed operations.
    pub q_consumed: usize,
    /// Text characters consumed by the committed operations.
    pub t_consumed: usize,
}

/// Result of [`align_window_fresh`]: a [`WindowSummary`] plus an owned
/// copy of the committed operations, for one-shot callers that don't
/// manage a workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowResult {
    /// Minimal edit count for the full pattern window.
    pub d_star: usize,
    /// Committed operations, in forward order.
    pub ops: Vec<CigarOp>,
    /// Pattern characters consumed by the committed operations.
    pub q_consumed: usize,
    /// Text characters consumed by the committed operations.
    pub t_consumed: usize,
}

/// Align the window staged in `ws` (see [`AlignWorkspace::set_window`]).
///
/// * `keep` — maximum pattern/text characters to commit (`W - O` for
///   non-final windows, `m` for final ones);
/// * `final_window` — final windows walk the full traceback and use a
///   cut of 0.
///
/// The committed operations are appended to a cleared
/// [`AlignWorkspace::window_ops`]; instrumentation accumulates into
/// `ws.stats`. A warm workspace makes this entirely allocation-free.
///
/// Returns [`AlignError::NoAlignment`] when the window needs more than
/// `cfg.k` edits (impossible when `cfg.k == cfg.w`).
pub fn align_window(
    ws: &mut AlignWorkspace,
    cfg: &GenAsmConfig,
    keep: usize,
    final_window: bool,
) -> Result<WindowSummary, AlignError> {
    let n = ws.text_rev.len();
    assert!(n >= 1, "empty text window");
    assert!(keep >= 1, "keep must be positive");
    if ws.stats.abandon_infeasible(ws.pm.len(), n, cfg.k) {
        return Err(AlignError::NoAlignment);
    }
    let wpe = cfg.words_per_entry();
    let cut = cfg.dent_cut(n, keep, final_window);
    ws.table.reset(wpe, n, cut);
    ws.ensure_scratch(n);

    // Disjoint borrows of the workspace fields for the DP loops.
    let AlignWorkspace {
        pm,
        text_rev,
        prev_row,
        table,
        ops,
        stats,
        ..
    } = ws;

    let prev_row = &mut prev_row[..n];
    let d_star = if wpe == 1 {
        sweep_grouped::<1>(pm, text_rev, prev_row, table, cfg, cut, stats)
    } else {
        sweep_grouped::<4>(pm, text_rev, prev_row, table, cfg, cut, stats)
    };
    // Booked in bulk with the totals of per-cell counting: every cell
    // stores once; rows d > 0 load `prev_row[i]` once per cell plus
    // `prev_row[i-1]` for each i > 0.
    let rows = table.rows();
    stats.cells_computed += (rows * n) as u64;
    stats.scratch_stores += (rows * n) as u64;
    stats.scratch_loads += ((rows - 1) * (2 * n - 1)) as u64;

    let d_star = d_star.ok_or(AlignError::NoAlignment)?;
    stats.window_done(rows, n, cfg.k);
    table.account_footprint(stats);

    let mut table = CountedTable { table, stats };
    let (q_consumed, t_consumed) =
        traceback(&mut table, pm, text_rev, d_star, keep, final_window, ops);
    Ok(WindowSummary {
        d_star,
        q_consumed,
        t_consumed,
    })
}

/// Error rows the CPU sweeps per text column: four
/// `cur_prev → shl → or → and` chains in flight fill the out-of-order
/// core, and more than that spills the registers they live in.
pub(crate) const GROUP: usize = 4;

/// Rows a window of budget `k` can sweep: row 0, then whole groups.
pub(crate) const fn swept_rows(k: usize) -> usize {
    1 + k.div_ceil(GROUP) * GROUP
}

/// GenASM-DC for a table of `W`-word entries: row 0 alone, then
/// [`GROUP`] rows at a time. Leaves the rows that count in `table` and
/// returns `d*`, if a row within the budget has it.
fn sweep_grouped<const W: usize>(
    pm: &PatternMask,
    text_rev: &[u8],
    prev_row: &mut [u64],
    table: &mut TbTable,
    cfg: &GenAsmConfig,
    cut: usize,
    stats: &mut MemStats,
) -> Option<usize> {
    let solution = pm.solution_bit();
    let early_term = cfg.improvements.early_term;
    let cols = text_rev.len() - cut;

    let row0 = table.grow_rows(1).as_chunks_mut().0;
    let last = sweep_row0::<W>(prev_row, pm, text_rev, cut, row0);
    let mut d_star = (last & solution == 0).then_some(0);

    let mut d0 = 1;
    while d0 <= cfg.k && !(early_term && d_star.is_some()) {
        let mut rows = table
            .grow_rows(GROUP)
            .as_chunks_mut::<W>()
            .0
            .chunks_exact_mut(cols);
        let stored: [_; GROUP] =
            std::array::from_fn(|_| rows.next().expect("GROUP rows were grown"));
        // `left[r]` is row `d0 - 1 + r`: the boundary row (`prev_row`)
        // first, then the group's own rows.
        let mut left: [u64; GROUP + 1] = std::array::from_fn(|r| init_row(d0 - 1 + r));
        sweep_rows(&mut left, prev_row, pm, text_rev, cut, stored);
        if d_star.is_none() {
            d_star = (d0..=cfg.k.min(d0 + GROUP - 1)).find(|d| left[d + 1 - d0] & solution == 0);
        }
        d0 += GROUP;
    }
    let rows = match d_star {
        Some(d) if early_term => d + 1,
        _ => cfg.k + 1,
    };
    table.keep_rows(rows, stats);
    d_star
}

/// One-shot convenience: align a single window from explicit inputs
/// with a transient workspace (tests, benchmarks, exploratory use).
/// Batch callers should hold an [`AlignWorkspace`] and call
/// [`align_window`] instead.
pub fn align_window_fresh(
    pm: &PatternMask,
    text_rev: &[u8],
    cfg: &GenAsmConfig,
    keep: usize,
    final_window: bool,
    stats: &mut MemStats,
) -> Result<WindowResult, AlignError> {
    let mut ws = AlignWorkspace::new();
    ws.set_window_raw(pm.clone(), text_rev);
    let result = align_window(&mut ws, cfg, keep, final_window);
    // Merge even on failure: abandoned windows report their pre-flight
    // and band counters too.
    stats.merge(&ws.stats);
    let summary = result?;
    Ok(WindowResult {
        d_star: summary.d_star,
        ops: ws.ops.clone(),
        q_consumed: summary.q_consumed,
        t_consumed: summary.t_consumed,
    })
}

/// The workspace's arena as the traceback reads it: every load is
/// counted in [`MemStats::table_loads`].
struct CountedTable<'a> {
    table: &'a TbTable,
    stats: &'a mut MemStats,
}

impl TableRead for CountedTable<'_> {
    #[inline]
    fn words_per_entry(&self) -> usize {
        self.table.words_per_entry()
    }

    #[inline]
    fn load(&mut self, d: usize, col: usize, slot: usize) -> u64 {
        self.table.load(d, col, slot, self.stats)
    }
}

/// Load `R[d][i]` for the compressed layout, folding in the virtual
/// init column `i == -1` (represented here by `i_plus_1 == 0`).
#[inline]
fn load_r<T: TableRead>(table: &mut T, d: usize, i_plus_1: usize) -> u64 {
    if i_plus_1 == 0 {
        init_row(d)
    } else {
        table.load(d, i_plus_1 - 1, 0)
    }
}

/// Whether bit `j` of `word` is active (0).
#[inline(always)]
fn active(word: u64, j: usize) -> bool {
    word & (1u64 << j) == 0
}

/// GenASM-TB: walk the stored table from the solution entry, emitting
/// operations in forward order (the inputs are reversed) into `ops`
/// (cleared first). Returns `(q_consumed, t_consumed)`.
///
/// The walk starts at `(i = n-1, d = d_star, j = m-1)` and stops when
/// the pattern is consumed (`j < 0`) or — for non-final windows — when
/// either `keep` pattern or `keep` text characters have been consumed.
///
/// Edge priority is match > substitution > deletion > insertion; any
/// active predecessor is cost-safe: an active bit of `R[d]` certifies
/// its prefix within `d` edits, so whichever active edge the walk
/// takes, the rest fits the budget that is left (how edges are
/// re-derived from the stored words: "Improvement mechanics" in the
/// module docs).
pub fn traceback<T: TableRead>(
    table: &mut T,
    pm: &PatternMask,
    text_rev: &[u8],
    d_star: usize,
    keep: usize,
    final_window: bool,
    ops: &mut Vec<CigarOp>,
) -> (usize, usize) {
    let m = pm.len();
    let n = text_rev.len();
    ops.clear();
    let mut d = d_star;
    // `i` is the current text column + 1 so that 0 encodes the virtual
    // init column; `j` is the current pattern bit + 1 likewise.
    let mut i = n;
    let mut j = m;
    let mut qc = 0usize; // pattern chars consumed
    let mut tc = 0usize; // text chars consumed

    while j > 0 && (final_window || (qc < keep && tc < keep)) {
        let op = if i == 0 {
            // Text exhausted: only pattern-consuming edits remain. The
            // init vectors certify them (bit j-1 active iff j <= d).
            debug_assert!(d > 0 && active(init_row(d), j - 1));
            CigarOp::Ins
        } else if table.words_per_entry() == 4 {
            pick_edge_stored(table, text_rev, pm, i, d, j)
        } else {
            pick_edge_derived(table, text_rev, pm, i, d, j)
        };
        match op {
            CigarOp::Match | CigarOp::Mismatch => {
                debug_assert!(i > 0, "diagonal op with no text left");
                ops.push(op);
                i -= 1;
                j -= 1;
                qc += 1;
                tc += 1;
                if op == CigarOp::Mismatch {
                    d -= 1;
                }
            }
            CigarOp::Del => {
                debug_assert!(i > 0, "deletion with no text left");
                ops.push(CigarOp::Del);
                i -= 1;
                tc += 1;
                d -= 1;
            }
            CigarOp::Ins => {
                ops.push(CigarOp::Ins);
                j -= 1;
                qc += 1;
                d -= 1;
            }
        }
    }
    if final_window {
        debug_assert_eq!(j, 0, "final window must consume the whole pattern");
        debug_assert_eq!(
            ops.iter().map(|o| o.cost()).sum::<usize>(),
            d_star,
            "final-window traceback cost must equal d*"
        );
    }
    (qc, tc)
}

/// Edge selection for the unimproved 4-word layout: read the stored edge
/// vectors of the current entry in priority order.
#[inline]
fn pick_edge_stored<T: TableRead>(
    table: &mut T,
    text_rev: &[u8],
    pm: &PatternMask,
    i: usize,
    d: usize,
    j: usize,
) -> CigarOp {
    debug_assert!(i > 0, "stored-edge traceback positioned at init column");
    let col = i - 1;
    let mword = table.load(d, col, slot::MATCH);
    if active(mword, j - 1) {
        // The match vector is (R<<1)|PM; an active bit means both a
        // pattern match here and an active diagonal predecessor.
        return CigarOp::Match;
    }
    if d > 0 {
        let sword = table.load(d, col, slot::SUBST);
        if active(sword, j - 1) {
            return CigarOp::Mismatch;
        }
        let dword = table.load(d, col, slot::DEL);
        if active(dword, j - 1) {
            return CigarOp::Del;
        }
        let iword = table.load(d, col, slot::INS);
        if active(iword, j - 1) {
            return CigarOp::Ins;
        }
    }
    unreachable!(
        "no active edge at (col={col}, d={d}, j={}) — DC/TB inconsistency; pm bit {}",
        j - 1,
        active(pm.get(text_rev[col]), j - 1)
    )
}

/// Edge selection for the compressed layout: re-derive the four edge
/// conditions from neighbouring stored entries and the pattern mask
/// (improvement 1 — this is what makes storing only the AND sufficient).
#[inline]
fn pick_edge_derived<T: TableRead>(
    table: &mut T,
    text_rev: &[u8],
    pm: &PatternMask,
    i: usize,
    d: usize,
    j: usize,
) -> CigarOp {
    // Match: needs a text column, a pattern match at (j-1), and an
    // active diagonal predecessor R[d][i-1] bit j-2 (or j == 1: the
    // shifted-in active bit).
    if i > 0 && active(pm.get(text_rev[i - 1]), j - 1) {
        let diag_ok = j == 1 || {
            let r = load_r(table, d, i - 1);
            active(r, j - 2)
        };
        if diag_ok {
            return CigarOp::Match;
        }
    }
    if d > 0 {
        if i > 0 {
            // Substitution and deletion both read R[d-1][i-1].
            let below_prev = load_r(table, d - 1, i - 1);
            if j == 1 || active(below_prev, j - 2) {
                return CigarOp::Mismatch;
            }
            if active(below_prev, j - 1) {
                return CigarOp::Del;
            }
        }
        // Insertion reads R[d-1][i] (same column, one error fewer).
        let below_cur = load_r(table, d - 1, i);
        if j == 1 || active(below_cur, j - 2) {
            return CigarOp::Ins;
        }
    }
    unreachable!(
        "no active edge at (i={}, d={d}, j={}) — DC/TB inconsistency",
        i as isize - 1,
        j - 1
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::{step_row0, step_row_edges};
    use align_core::Seq;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    fn rev_codes(s: &Seq) -> Vec<u8> {
        (0..s.len()).rev().map(|i| s.get_code(i)).collect()
    }

    /// Run a single *final* window over full short sequences.
    fn align_once(q: &str, t: &str, cfg: &GenAsmConfig) -> (WindowResult, MemStats) {
        let q = seq(q);
        let t = seq(t);
        let pm = PatternMask::new_reversed_window(&q, 0, q.len());
        let trev = rev_codes(&t);
        let mut stats = MemStats::new();
        let res = align_window_fresh(&pm, &trev, cfg, q.len(), true, &mut stats).unwrap();
        (res, stats)
    }

    fn cfg_improved() -> GenAsmConfig {
        GenAsmConfig::improved()
    }

    fn cfg_baseline() -> GenAsmConfig {
        GenAsmConfig::baseline()
    }

    #[test]
    fn exact_match_window() {
        for cfg in [cfg_improved(), cfg_baseline()] {
            let (res, _) = align_once("ACGTACGT", "ACGTACGT", &cfg);
            assert_eq!(res.d_star, 0, "{cfg:?}");
            assert_eq!(res.q_consumed, 8);
            assert_eq!(res.t_consumed, 8);
            assert!(res.ops.iter().all(|&o| o == CigarOp::Match));
        }
    }

    #[test]
    fn one_substitution() {
        for cfg in [cfg_improved(), cfg_baseline()] {
            let (res, _) = align_once("ACGT", "AGGT", &cfg);
            assert_eq!(res.d_star, 1);
            let cost: usize = res.ops.iter().map(|o| o.cost()).sum();
            assert_eq!(cost, 1);
            assert_eq!(res.ops.len(), 4);
        }
    }

    #[test]
    fn one_insertion_and_deletion() {
        for cfg in [cfg_improved(), cfg_baseline()] {
            // query has an extra char: expect one I
            let (res, _) = align_once("ACGT", "AGT", &cfg);
            assert_eq!(res.d_star, 1, "{cfg:?}");
            assert_eq!(res.q_consumed, 4);
            assert_eq!(res.t_consumed, 3);
            // target has an extra char: expect one D (or cost-1 equivalent)
            let (res, _) = align_once("AGT", "ACGT", &cfg);
            assert_eq!(res.d_star, 1);
            assert_eq!(res.q_consumed, 3);
        }
    }

    #[test]
    fn improved_and_baseline_agree_on_ops() {
        let cases = [
            ("ACGTACGTAC", "ACGTACGTAC"),
            ("ACGTACGTAC", "ACGAACGTAC"),
            ("ACGTACGTAC", "ACGTACG"),
            ("ACGTA", "TTTTTTT"),
            ("A", "T"),
            ("A", "A"),
        ];
        for (q, t) in cases {
            let (a, _) = align_once(q, t, &cfg_improved());
            let (b, _) = align_once(q, t, &cfg_baseline());
            assert_eq!(a.d_star, b.d_star, "{q} vs {t}");
            assert_eq!(a.ops, b.ops, "{q} vs {t}");
        }
    }

    #[test]
    fn d_star_matches_oracle_distance_for_prefix_semantics() {
        // For equal-length windows where the optimum consumes the whole
        // text, d* equals the NW distance.
        let cases = [("ACGTACGT", "ACCTACGT"), ("AAAA", "AATA"), ("ACGT", "TGCA")];
        for (q, t) in cases {
            let (res, _) = align_once(q, t, &cfg_improved());
            let d = align_core::nw_distance(&seq(q), &seq(t));
            // Bitap may consume less text (free original-text tail), so
            // d* <= NW distance; with leftover charged it can't be
            // cheaper than optimal.
            let leftover = t.len() - res.t_consumed;
            assert!(res.d_star <= d, "{q} vs {t}");
            assert!(res.d_star + leftover >= d, "{q} vs {t}");
        }
    }

    #[test]
    fn early_termination_reduces_rows() {
        let (_, s_imp) = align_once("ACGTACGTACGTACGT", "ACGTACGTACGTACGT", &cfg_improved());
        let (_, s_base) = align_once("ACGTACGTACGTACGT", "ACGTACGTACGTACGT", &cfg_baseline());
        assert_eq!(s_imp.rows_computed, 1); // exact match: only row 0
        assert_eq!(s_base.rows_computed, 65); // k+1 rows, always
        assert!(s_base.table_words > 24 * s_imp.table_words);
    }

    #[test]
    fn infeasible_window_is_abandoned_before_any_row() {
        // m = 16 > n + k = 3 + 4: no path can consume the pattern, so
        // the pre-flight must reject without computing a single cell.
        let q = seq("ACGTACGTACGTACGT");
        let t = seq("ACG");
        let pm = PatternMask::new_reversed_window(&q, 0, q.len());
        let trev = rev_codes(&t);
        let mut cfg = GenAsmConfig::improved();
        cfg.k = 4;
        let mut stats = MemStats::new();
        let err = align_window_fresh(&pm, &trev, &cfg, q.len(), true, &mut stats).unwrap_err();
        assert_eq!(err, AlignError::NoAlignment);
        assert_eq!(stats.cells_computed, 0, "pre-flight must skip all rows");
        assert_eq!(stats.rows_computed, 0);
        assert_eq!(stats.windows_early_terminated, 1);
        assert_eq!(stats.band_cells_skipped, 5 * 3);
    }

    #[test]
    fn band_counters_track_early_termination() {
        let (_, s_imp) = align_once("ACGTACGTACGTACGT", "ACGTACGTACGTACGT", &cfg_improved());
        // Exact match, k = 64: row 0 fires, 64 rows of 16 cells skipped.
        assert_eq!(s_imp.windows_early_terminated, 1);
        assert_eq!(s_imp.band_cells_skipped, 64 * 16);
        assert_eq!(s_imp.peak_band_rows, 1);
        let (_, s_base) = align_once("ACGTACGTACGTACGT", "ACGTACGTACGTACGT", &cfg_baseline());
        assert_eq!(s_base.windows_early_terminated, 0);
        assert_eq!(s_base.band_cells_skipped, 0);
        assert_eq!(s_base.peak_band_rows, 65);
    }

    #[test]
    fn no_alignment_when_budget_too_small() {
        let q = seq("AAAAAAAA");
        let t = seq("TTTTTTTT");
        let pm = PatternMask::new_reversed_window(&q, 0, q.len());
        let trev = rev_codes(&t);
        let mut cfg = GenAsmConfig::improved();
        cfg.k = 3;
        let mut stats = MemStats::new();
        let err = align_window_fresh(&pm, &trev, &cfg, q.len(), true, &mut stats).unwrap_err();
        assert_eq!(err, AlignError::NoAlignment);
    }

    #[test]
    fn cut_walk_respects_keep() {
        // Non-final window with keep=4 must not consume more than 4 of
        // either sequence.
        let q = seq("ACGTACGTACGT");
        let t = seq("ACGTACGTACGT");
        let pm = PatternMask::new_reversed_window(&q, 0, q.len());
        let trev = rev_codes(&t);
        let mut cfg = GenAsmConfig::improved();
        cfg.w = 12;
        cfg.o = 8;
        cfg.k = 12;
        let mut stats = MemStats::new();
        let res = align_window_fresh(&pm, &trev, &cfg, cfg.keep(), false, &mut stats).unwrap();
        assert_eq!(res.q_consumed, 4);
        assert_eq!(res.t_consumed, 4);
        assert_eq!(res.ops.len(), 4);
    }

    #[test]
    fn dent_prunes_columns_for_nonfinal_windows() {
        let q = seq("ACGTACGTACGTACGTACGTACGTACGTACGT"); // 32
        let t = q.clone();
        let pm = PatternMask::new_reversed_window(&q, 0, q.len());
        let trev = rev_codes(&t);
        let mut with_dent = GenAsmConfig::improved();
        with_dent.w = 32;
        with_dent.o = 24;
        with_dent.k = 32;
        let mut without = with_dent;
        without.improvements.dent = false;
        let mut s1 = MemStats::new();
        let mut s2 = MemStats::new();
        let r1 =
            align_window_fresh(&pm, &trev, &with_dent, with_dent.keep(), false, &mut s1).unwrap();
        let r2 = align_window_fresh(&pm, &trev, &without, without.keep(), false, &mut s2).unwrap();
        assert_eq!(r1.ops, r2.ops, "DENT must not change the result");
        // cut = n - keep - 1 = 32 - 8 - 1 = 23 -> 9 of 32 columns stored
        assert_eq!(s1.table_words, 9);
        assert_eq!(s2.table_words, 32);
    }

    #[test]
    fn final_window_cost_equals_d_star_plus_validity() {
        let (res, _) = align_once("ACGTTGCA", "ACGATGCA", &cfg_improved());
        let cost: usize = res.ops.iter().map(|o| o.cost()).sum();
        assert_eq!(cost, res.d_star);
    }

    /// A [`TableRead`] over a filled [`TbTable`] that records every
    /// `(d, col, slot)` it is asked for.
    struct Recording<'a> {
        table: &'a TbTable,
        log: Vec<(usize, usize, usize)>,
    }

    impl TableRead for Recording<'_> {
        fn words_per_entry(&self) -> usize {
            self.table.words_per_entry()
        }

        fn load(&mut self, d: usize, col: usize, slot: usize) -> u64 {
            self.log.push((d, col, slot));
            self.table.load(d, col, slot, &mut MemStats::new())
        }
    }

    /// The loads the documented edge priority (match > substitution >
    /// deletion > insertion) implies for a final-window walk that took
    /// `ops`: the 4-word layout reads the current entry's slots up to
    /// the one that is active; the compressed layout probes the
    /// diagonal `R[d][i-1]` when the pattern matches, then `R[d-1][i-1]`
    /// (substitution and deletion share it), then `R[d-1][i]`. The
    /// virtual init column is never a table load.
    fn expected_loads(
        ops: &[CigarOp],
        pm: &PatternMask,
        text_rev: &[u8],
        d_star: usize,
        wpe: usize,
    ) -> Vec<(usize, usize, usize)> {
        let (mut i, mut j, mut d) = (text_rev.len(), pm.len(), d_star);
        let mut log = Vec::new();
        for &op in ops {
            if i > 0 && wpe == 4 {
                let last = match op {
                    CigarOp::Match => slot::MATCH,
                    CigarOp::Mismatch => slot::SUBST,
                    CigarOp::Del => slot::DEL,
                    CigarOp::Ins => slot::INS,
                };
                log.extend((slot::MATCH..=last).map(|s| (d, i - 1, s)));
            } else if i > 0 {
                if active(pm.get(text_rev[i - 1]), j - 1) && j > 1 && i > 1 {
                    log.push((d, i - 2, 0));
                }
                if op != CigarOp::Match && i > 1 {
                    log.push((d - 1, i - 2, 0));
                }
                if op == CigarOp::Ins {
                    log.push((d - 1, i - 1, 0));
                }
            }
            match op {
                CigarOp::Match | CigarOp::Mismatch => (i, j) = (i - 1, j - 1),
                CigarOp::Del => i -= 1,
                CigarOp::Ins => j -= 1,
            }
            d -= op.cost();
        }
        log
    }

    #[test]
    fn traceback_loads_follow_the_documented_priority_order() {
        // One window whose walk takes every kind of edge.
        let q = seq("ACGTTGCAGGATCCATACGTAGCTAGGT");
        let t = seq("ACGTTGAAGGATCATACGTAGGCTAGGT");
        for cfg in [cfg_improved(), cfg_baseline()] {
            let mut ws = AlignWorkspace::new();
            ws.set_window(&q, 0, q.len(), &t, 0, t.len());
            let summary = align_window(&mut ws, &cfg, q.len(), true).unwrap();
            for kind in [
                CigarOp::Match,
                CigarOp::Mismatch,
                CigarOp::Del,
                CigarOp::Ins,
            ] {
                assert!(
                    ws.ops.contains(&kind),
                    "walk never took {kind:?}: {:?}",
                    ws.ops
                );
            }

            let mut table = Recording {
                table: &ws.table,
                log: Vec::new(),
            };
            let mut ops = Vec::new();
            let consumed = traceback(
                &mut table,
                &ws.pm,
                &ws.text_rev,
                summary.d_star,
                q.len(),
                true,
                &mut ops,
            );
            assert_eq!(consumed, (summary.q_consumed, summary.t_consumed));
            assert_eq!(ops, ws.ops, "{cfg:?}");
            assert_eq!(
                table.log.len() as u64,
                ws.stats.table_loads,
                "the seam sees every load the CPU path counts"
            );
            let wpe = cfg.words_per_entry();
            assert_eq!(
                table.log,
                expected_loads(&ops, &ws.pm, &ws.text_rev, summary.d_star, wpe),
                "{cfg:?}"
            );
        }
    }

    /// The sweep [`align_window`] ran before row groups, kept as the
    /// oracle: one row at a time through two rows of its own, every row
    /// stored as it completes, nothing computed past `d*`.
    fn align_window_rowwise(
        ws: &mut AlignWorkspace,
        cfg: &GenAsmConfig,
        keep: usize,
        final_window: bool,
    ) -> Result<WindowSummary, AlignError> {
        let n = ws.text_rev.len();
        if ws.stats.abandon_infeasible(ws.pm.len(), n, cfg.k) {
            return Err(AlignError::NoAlignment);
        }
        let wpe = cfg.words_per_entry();
        let cut = cfg.dent_cut(n, keep, final_window);
        ws.table.reset(wpe, n, cut);
        let AlignWorkspace {
            pm,
            text_rev,
            table,
            ops,
            stats,
            ..
        } = ws;
        let (mut prev_row, mut cur_row) = (vec![0; n], vec![0; n]);
        let mut d_star = None;
        for d in 0..=cfg.k {
            let row = table.grow_rows(1);
            for i in 0..n {
                let (below_prev, cur_prev) = match i {
                    0 => (init_row(d.saturating_sub(1)), init_row(d)),
                    _ => (prev_row[i - 1], cur_row[i - 1]),
                };
                let pmv = pm.get(text_rev[i]);
                let edges = match d {
                    0 => [step_row0(cur_prev, pmv), !0, !0, !0],
                    _ => step_row_edges(below_prev, prev_row[i], cur_prev, pmv),
                };
                cur_row[i] = edges.iter().fold(!0, |acc, e| acc & e);
                if i >= cut && wpe == 1 {
                    row[i - cut] = cur_row[i];
                } else if i >= cut {
                    row[(i - cut) * 4..][..4].copy_from_slice(&edges);
                }
            }
            stats.cells_computed += n as u64;
            stats.scratch_stores += n as u64;
            if d > 0 {
                stats.scratch_loads += (2 * n - 1) as u64;
            }
            std::mem::swap(&mut prev_row, &mut cur_row);
            if d_star.is_none() && prev_row[n - 1] & pm.solution_bit() == 0 {
                d_star = Some(d);
                if cfg.improvements.early_term {
                    break;
                }
            }
        }
        table.keep_rows(table.rows(), stats);
        let d_star = d_star.ok_or(AlignError::NoAlignment)?;
        stats.window_done(table.rows(), n, cfg.k);
        table.account_footprint(stats);
        let mut table = CountedTable { table, stats };
        let (q_consumed, t_consumed) =
            traceback(&mut table, pm, text_rev, d_star, keep, final_window, ops);
        Ok(WindowSummary {
            d_star,
            q_consumed,
            t_consumed,
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Grouped ≡ row-at-a-time: for every improvement set, budgets
        /// whose last group is full, partial or absent, final and
        /// non-final windows of every shape, the row-group sweep gives
        /// the oracle's `d*` (or its `NoAlignment`), its ops, its table
        /// word for word and its counters field by field.
        #[test]
        fn grouped_sweep_matches_the_row_at_a_time_oracle(
            pattern in proptest::collection::vec(0u8..4, 1..=64usize),
            text in proptest::collection::vec(0u8..4, 1..=64usize),
            keep in 1usize..=64,
            all_mismatch in proptest::prelude::any::<bool>(),
        ) {
            // An all-mismatch pair needs the deepest rows there are.
            let (pattern, text) = match all_mismatch {
                true => (vec![0; pattern.len()], vec![3; text.len()]),
                false => (pattern, text),
            };
            let q: Seq = pattern.into_iter().map(align_core::Base::from_code).collect();
            let pm = PatternMask::new_reversed_window(&q, 0, q.len());
            for improvements in crate::config::Improvements::all_combinations() {
                for k in [0, 1, 2, 3, 4, 5, 8, 63, 64] {
                    for final_window in [false, true] {
                        let cfg = GenAsmConfig { k, improvements, ..GenAsmConfig::improved() };
                        let keep = if final_window { q.len() } else { keep };
                        let mut grouped = AlignWorkspace::new();
                        let mut rowwise = AlignWorkspace::new();
                        grouped.set_window_raw(pm.clone(), &text);
                        rowwise.set_window_raw(pm.clone(), &text);
                        let got = align_window(&mut grouped, &cfg, keep, final_window);
                        let want = align_window_rowwise(&mut rowwise, &cfg, keep, final_window);
                        let case = format!("{cfg:?} keep={keep} final={final_window}");
                        proptest::prop_assert_eq!(got, want, "{}", case);
                        proptest::prop_assert_eq!(grouped.stats, rowwise.stats, "{}", case);
                        if got.is_err() {
                            continue;
                        }
                        proptest::prop_assert_eq!(&grouped.ops, &rowwise.ops, "{}", case);
                        let (a, b) = (&grouped.table, &rowwise.table);
                        proptest::prop_assert_eq!(a.rows(), b.rows(), "{}", case);
                        let mut uncounted = MemStats::new();
                        for d in 0..b.rows() {
                            for col in b.cut()..b.cols() {
                                for slot in 0..b.words_per_entry() {
                                    proptest::prop_assert_eq!(
                                        a.load(d, col, slot, &mut uncounted),
                                        b.load(d, col, slot, &mut uncounted),
                                        "{} at d={} col={} slot={}", case, d, col, slot
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_per_window() {
        // The same workspace driven across dissimilar windows must give
        // the same summaries and ops as fresh workspaces.
        let cases = [
            ("ACGTACGTAC", "ACGTACGTAC"),
            ("ACGTA", "TTTTTTT"),
            ("ACGTACGTAC", "ACGAACGTAC"),
            ("A", "T"),
            ("TTTTACGT", "ACGTTTTT"),
        ];
        let cfg = cfg_improved();
        let mut ws = AlignWorkspace::new();
        for (q, t) in cases {
            let (fresh, _) = align_once(q, t, &cfg);
            let q = seq(q);
            let t = seq(t);
            ws.set_window(&q, 0, q.len(), &t, 0, t.len());
            let reused = align_window(&mut ws, &cfg, q.len(), true).unwrap();
            assert_eq!(reused.d_star, fresh.d_star);
            assert_eq!(reused.q_consumed, fresh.q_consumed);
            assert_eq!(reused.t_consumed, fresh.t_consumed);
            assert_eq!(ws.window_ops(), &fresh.ops[..]);
        }
    }
}
