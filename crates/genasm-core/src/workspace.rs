//! Reusable per-alignment scratch state.
//!
//! The hot path of the suite is "align one window" — called once per
//! window of every task of every batch. Before this module existed,
//! each window heap-allocated its two scratch rows, a fresh traceback
//! table, and a reversed-text buffer, and each alignment allocated a
//! traceback op buffer; under batch load that dominated the runtime of
//! the improved algorithm (whose whole point is a tiny working set).
//!
//! [`AlignWorkspace`] owns all of that mutable state. Allocate one per
//! worker (or one per thread via `map_init` — see `genasm-cpu`), thread
//! it through [`crate::window::align_with_workspace`] /
//! [`crate::engine::align_window`], and steady-state alignment performs
//! **zero heap allocations per window**: every buffer is `clear()`ed
//! and refilled within its existing capacity. The property tests assert
//! both bit-identical results vs. fresh workspaces and capacity
//! stability across hundreds of alignments.

use align_core::CigarOp;

use crate::bitvec::PatternMask;
use crate::engine::swept_rows;
use crate::stats::MemStats;
use crate::table::TbTable;
use crate::window::stage_window;
use align_core::Seq;

/// Owns every buffer the aligner mutates, so the whole call chain can
/// borrow instead of allocate.
///
/// The workspace accumulates instrumentation in [`AlignWorkspace::stats`]
/// across every alignment run through it; callers that want per-task
/// counters take/reset it between tasks.
#[derive(Debug, Clone)]
pub struct AlignWorkspace {
    /// Bitmasks of the current (reversed) pattern window.
    pub(crate) pm: PatternMask,
    /// 2-bit codes of the current reversed text window (the occurrence
    /// filter stages its whole text here, forward).
    pub(crate) text_rev: Vec<u8>,
    /// The distance pass's boundary row: the bottom row of the last
    /// row group swept, column by column.
    pub(crate) prev_row: Vec<u64>,
    /// The materialized traceback table (flat arena, reused).
    pub(crate) table: TbTable,
    /// Committed operations of the most recent window, forward order.
    pub(crate) ops: Vec<CigarOp>,
    /// Scratch for the occurrence filter (`u32::MAX` = no hit yet).
    pub(crate) occ_best: Vec<u32>,
    /// Instrumentation accumulated by everything run through this
    /// workspace.
    pub stats: MemStats,
}

impl AlignWorkspace {
    /// An empty workspace; buffers grow on first use and are retained
    /// afterwards.
    pub fn new() -> AlignWorkspace {
        AlignWorkspace {
            pm: PatternMask::placeholder(),
            text_rev: Vec::new(),
            prev_row: Vec::new(),
            table: TbTable::new(1, 1, 0),
            ops: Vec::new(),
            occ_best: Vec::new(),
            stats: MemStats::new(),
        }
    }

    /// A workspace pre-sized for window geometry `w`: the staging,
    /// boundary-row and op buffers are allocated up front, and so is the
    /// traceback arena for the compressed layout's worst case — every
    /// row a budget of `w` can sweep, the last row group's overshoot
    /// included, so a warm arena never grows because a window's `d*`
    /// fell elsewhere in its group. The 4-word layout, four times that,
    /// grows the arena to its high-water mark over the first few
    /// windows.
    pub fn with_capacity(w: usize) -> AlignWorkspace {
        let mut ws = AlignWorkspace::new();
        ws.text_rev.reserve(w);
        ws.prev_row.resize(w, 0);
        ws.ops.reserve(2 * w);
        ws.table.reserve_words(swept_rows(w) * w);
        ws
    }

    /// Stage the window `query[qpos..qpos+m]` vs `target[tpos..tpos+n]`
    /// (both reversed, as the engine expects) into the workspace.
    pub fn set_window(
        &mut self,
        query: &Seq,
        qpos: usize,
        m: usize,
        target: &Seq,
        tpos: usize,
        n: usize,
    ) {
        self.pm = stage_window(query, qpos, m, target, tpos, n, &mut self.text_rev);
    }

    /// Stage an already-built pattern mask and reversed text window
    /// (used by window-level tests and benchmarks).
    pub fn set_window_raw(&mut self, pm: PatternMask, text_rev: &[u8]) {
        self.pm = pm;
        self.text_rev.clear();
        self.text_rev.extend_from_slice(text_rev);
    }

    /// Committed operations of the most recent window, forward order.
    pub fn window_ops(&self) -> &[CigarOp] {
        &self.ops
    }

    /// Grow the boundary row to at least `n` columns.
    #[inline]
    pub(crate) fn ensure_scratch(&mut self, n: usize) {
        if self.prev_row.len() < n {
            self.prev_row.resize(n, 0);
        }
    }

    /// Take the accumulated counters, leaving zeroed ones behind
    /// (per-task instrumentation under workspace reuse).
    pub fn take_stats(&mut self) -> MemStats {
        std::mem::take(&mut self.stats)
    }

    /// Capacities of every owned buffer, in one comparable value. Once
    /// the workspace is warm, this signature must not change no matter
    /// how many more alignments run through it — the reuse property
    /// tests assert exactly that.
    pub fn capacity_signature(&self) -> CapacitySignature {
        CapacitySignature {
            text_rev: self.text_rev.capacity(),
            rows: self.prev_row.capacity(),
            table_words: self.table.capacity_words(),
            ops: self.ops.capacity(),
            occ_best: self.occ_best.capacity(),
        }
    }
}

impl Default for AlignWorkspace {
    fn default() -> AlignWorkspace {
        AlignWorkspace::new()
    }
}

/// Snapshot of an [`AlignWorkspace`]'s buffer capacities (see
/// [`AlignWorkspace::capacity_signature`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacitySignature {
    /// Reversed-text staging capacity.
    pub text_rev: usize,
    /// Boundary-row capacity.
    pub rows: usize,
    /// Traceback arena capacity in words.
    pub table_words: usize,
    /// Traceback op buffer capacity.
    pub ops: usize,
    /// Occurrence-filter scratch capacity.
    pub occ_best: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_workspace_is_empty() {
        let ws = AlignWorkspace::new();
        assert_eq!(ws.stats, MemStats::new());
        assert_eq!(ws.window_ops().len(), 0);
    }

    #[test]
    fn with_capacity_presizes() {
        let ws = AlignWorkspace::with_capacity(64);
        let sig = ws.capacity_signature();
        assert!(sig.text_rev >= 64);
        assert!(sig.rows >= 64);
        assert!(sig.ops >= 128);
    }

    #[test]
    fn take_stats_resets() {
        let mut ws = AlignWorkspace::new();
        ws.stats.windows = 7;
        let taken = ws.take_stats();
        assert_eq!(taken.windows, 7);
        assert_eq!(ws.stats.windows, 0);
    }

    #[test]
    fn set_window_reverses_text() {
        let q = Seq::from_ascii(b"ACGT").unwrap();
        let t = Seq::from_ascii(b"AACG").unwrap();
        let mut ws = AlignWorkspace::new();
        ws.set_window(&q, 0, 4, &t, 1, 3);
        // target[1..4] = ACG reversed = GCA -> codes [2, 1, 0]
        assert_eq!(ws.text_rev, vec![2, 1, 0]);
    }
}
