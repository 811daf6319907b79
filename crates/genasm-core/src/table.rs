//! Storage for the traceback DP table.
//!
//! One [`TbTable`] holds the materialized bitvectors of a single window.
//! Its layout is where two of the paper's three improvements live:
//!
//! * **entry compression** — `words_per_entry == 1` stores only the
//!   combined `R` vector per `(row, column)` entry; `words_per_entry ==
//!   4` is the unimproved layout storing the four edge vectors
//!   `(match, subst, del, ins)`;
//! * **DENT** — every row stores only the columns `cut ..= n-1`; the
//!   traceback provably never reads columns below `cut` (see
//!   [`crate::engine`] for the derivation of `cut`).
//!
//! Early termination manifests simply as the table containing fewer rows.
//!
//! ## Uniform rows
//!
//! Every row stores the same columns, so entry `(d, i)` sits at
//! `d · stride + (i − cut) · words_per_entry` — the formula the
//! simulated GPU's table uses too — and there is nothing to keep per
//! row. The uniform DENT cut is the only column bound that is provably
//! traceback-safe for this single-word Bitap formulation: a
//! pure-insertion walk prefix can reach any row at column `n-2`, so
//! per-row *upper* bounds tighter than `n` are unsound, and column
//! activity cannot shrink the lower bound beyond the DENT argument
//! without risking a changed edge pick. [`TbTable::load`] checks both
//! bounds (an out-of-band read panics — that is a traceback bug, never
//! a data condition). The dimension that *is* sound to cut short is
//! `d`, which is what early termination does (see [`crate::engine`]).
//!
//! ## Arena layout and reuse
//!
//! Entries live in a single flat `Vec<u64>` arena, rows back to back —
//! no per-row `Vec`s, so a traceback step costs one multiply instead of
//! a double pointer chase, and the whole table can be **reused across
//! windows**: [`TbTable::reset`] reshapes the table for the next window
//! while keeping the arena's capacity, in O(1). After a few windows of
//! warm-up, filling the table performs no heap allocation (this is what
//! [`crate::workspace::AlignWorkspace`] relies on).
//!
//! Every word moved in or out of the table is counted in [`MemStats`],
//! because the table traffic is precisely what experiments E8/E9 ratio.

use crate::stats::MemStats;

/// Slot indices for uncompressed (4-word) entries.
pub mod slot {
    /// Match edge vector.
    pub const MATCH: usize = 0;
    /// Substitution edge vector.
    pub const SUBST: usize = 1;
    /// Text-consuming deletion edge vector.
    pub const DEL: usize = 2;
    /// Pattern-consuming insertion edge vector.
    pub const INS: usize = 3;
}

/// What [`crate::engine::traceback`] needs of a stored table. The
/// workspace's [`TbTable`] (every load counted in [`MemStats`]) and the
/// simulated GPU's shared/global table (every load charged to the
/// device) both implement it, so one walk serves both engines.
pub trait TableRead {
    /// Words stored per entry (1 = compressed, 4 = edge vectors).
    fn words_per_entry(&self) -> usize;

    /// Load one word of the entry at error row `d`, text column `col`;
    /// `slot` is 0 for compressed tables, or one of [`slot`].
    fn load(&mut self, d: usize, col: usize, slot: usize) -> u64;
}

/// The materialized DP table of one window.
#[derive(Debug, Clone)]
pub struct TbTable {
    words_per_entry: usize,
    n: usize,
    cut: usize,
    /// Words per row, `(n - cut) * words_per_entry`; set once per
    /// window so a load does not recompute it.
    stride: usize,
    /// Flat entry arena: rows are appended back to back.
    words: Vec<u64>,
}

impl TbTable {
    /// Create an empty table for `n` text columns whose rows store
    /// columns `cut..n`, at `words_per_entry` words per entry.
    pub fn new(words_per_entry: usize, n: usize, cut: usize) -> TbTable {
        let mut t = TbTable {
            words_per_entry: 1,
            n: 0,
            cut: 0,
            stride: 0,
            words: Vec::new(),
        };
        t.reset(words_per_entry, n, cut);
        t
    }

    /// Reshape for the next window, retaining the arena's capacity.
    /// Equivalent to `*self = TbTable::new(..)` without the allocation;
    /// costs O(1) regardless of how much the previous window stored.
    pub fn reset(&mut self, words_per_entry: usize, n: usize, cut: usize) {
        assert!(words_per_entry == 1 || words_per_entry == 4);
        assert!(
            cut < n || n == 0,
            "cut {cut} must leave at least one column of {n}"
        );
        self.words_per_entry = words_per_entry;
        self.n = n;
        self.cut = cut;
        self.stride = n.saturating_sub(cut) * words_per_entry;
        self.words.clear();
    }

    /// Words stored per entry (1 = compressed, 4 = edge vectors).
    pub fn words_per_entry(&self) -> usize {
        self.words_per_entry
    }

    /// Number of completely stored rows (`d* + 1` with early
    /// termination).
    pub fn rows(&self) -> usize {
        self.words.len().checked_div(self.stride).unwrap_or(0)
    }

    /// Number of text columns the window had.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// First stored column of every row (the DENT cut).
    pub fn cut(&self) -> usize {
        self.cut
    }

    /// Total stored words (the footprint experiment E8 measures).
    pub fn footprint_words(&self) -> u64 {
        self.words.len() as u64
    }

    /// Arena capacity in words (stable across windows once warmed up;
    /// the workspace-reuse tests assert on this).
    pub fn capacity_words(&self) -> usize {
        self.words.capacity()
    }

    /// Append `rows` zeroed rows and hand out their words, row after
    /// row (columns `cut..n`, `words_per_entry` words per entry), for
    /// the engine's sweep to fill in place. Their stores are booked by
    /// [`TbTable::keep_rows`], once the sweep knows how many of them
    /// count.
    #[inline]
    pub fn grow_rows(&mut self, rows: usize) -> &mut [u64] {
        let filled = self.words.len();
        self.words.resize(filled + rows * self.stride, 0);
        &mut self.words[filled..]
    }

    /// Drop every row past the first `rows` — the overshoot of the
    /// sweep's last group, never read — and book the stores of the
    /// rows that stay.
    pub fn keep_rows(&mut self, rows: usize, stats: &mut MemStats) {
        self.words.truncate(rows * self.stride);
        stats.table_stores += self.words.len() as u64;
    }

    /// Reserve arena capacity for `words` more words.
    pub(crate) fn reserve_words(&mut self, words: usize) {
        self.words.reserve(words);
    }

    /// Load one word of entry `(d, i)`. `slot` must be 0 for compressed
    /// tables, or one of [`slot`] for 4-word tables.
    ///
    /// # Panics
    /// Panics if the entry lies outside the stored columns or was never
    /// computed — both indicate a traceback bug, not a data condition.
    #[inline]
    pub fn load(&self, d: usize, i: usize, slot: usize, stats: &mut MemStats) -> u64 {
        debug_assert!(slot < self.words_per_entry);
        assert!(
            i >= self.cut,
            "traceback read column {i} below the stored band start {} of row {d} \
             (DENT unsoundness)",
            self.cut
        );
        assert!(
            i < self.n,
            "traceback read column {i} past the stored band end {} of row {d} \
             (band unsoundness)",
            self.n
        );
        stats.table_loads += 1;
        self.words[d * self.stride + (i - self.cut) * self.words_per_entry + slot]
    }

    /// Finalize: record the footprint high-water mark into `stats`.
    pub fn account_footprint(&self, stats: &mut MemStats) {
        stats.table_words += self.footprint_words();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressed_layout_roundtrip() {
        let mut stats = MemStats::new();
        let mut t = TbTable::new(1, 4, 1); // columns 1..4 stored
        t.grow_rows(1).copy_from_slice(&[10, 20, 30]);
        // A group of three rows of which only the first counts.
        t.grow_rows(3)
            .copy_from_slice(&[40, 50, 60, 70, 80, 90, 11, 12, 13]);
        assert_eq!(t.rows(), 4);
        t.keep_rows(2, &mut stats);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.footprint_words(), 6);
        assert_eq!(stats.table_stores, 6);
        assert_eq!(t.load(0, 1, 0, &mut stats), 10);
        assert_eq!(t.load(0, 3, 0, &mut stats), 30);
        assert_eq!(t.load(1, 2, 0, &mut stats), 50);
        assert_eq!(stats.table_loads, 3);
    }

    #[test]
    fn four_word_layout_roundtrip() {
        let mut stats = MemStats::new();
        let mut t = TbTable::new(4, 2, 0);
        t.grow_rows(1).copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        t.keep_rows(1, &mut stats);
        assert_eq!(t.rows(), 1);
        assert_eq!(t.footprint_words(), 8);
        assert_eq!(stats.table_stores, 8);
        assert_eq!(t.load(0, 1, slot::MATCH, &mut stats), 5);
        assert_eq!(t.load(0, 1, slot::SUBST, &mut stats), 6);
        assert_eq!(t.load(0, 1, slot::DEL, &mut stats), 7);
        assert_eq!(t.load(0, 1, slot::INS, &mut stats), 8);
    }

    #[test]
    #[should_panic(expected = "DENT unsoundness")]
    fn reading_pruned_column_panics() {
        let mut stats = MemStats::new();
        let mut t = TbTable::new(1, 4, 2);
        t.grow_rows(1).copy_from_slice(&[1, 2]);
        let _ = t.load(0, 1, 0, &mut stats);
    }

    #[test]
    fn footprint_accounting() {
        let mut stats = MemStats::new();
        let mut t = TbTable::new(1, 3, 0);
        t.grow_rows(1).copy_from_slice(&[1, 2, 3]);
        t.account_footprint(&mut stats);
        assert_eq!(stats.table_words, 3);
    }

    #[test]
    fn reset_reshapes_but_keeps_capacity() {
        let mut stats = MemStats::new();
        let mut t = TbTable::new(1, 8, 0);
        t.grow_rows(3);
        let cap = t.capacity_words();
        assert!(cap >= 24);
        t.reset(4, 5, 2);
        assert_eq!(t.rows(), 0);
        assert_eq!(t.footprint_words(), 0);
        assert_eq!(t.words_per_entry(), 4);
        assert_eq!(t.cols(), 5);
        assert_eq!(t.cut(), 2);
        assert_eq!(t.capacity_words(), cap, "reset must not shrink the arena");
        // Smaller refill stays within the warmed capacity.
        t.grow_rows(1)
            .copy_from_slice(&[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(t.load(0, 3, slot::SUBST, &mut stats), 1);
        assert_eq!(t.capacity_words(), cap);
    }
}
