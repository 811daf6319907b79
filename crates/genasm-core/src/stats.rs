//! Instrumentation counters for the paper's memory experiments (E8, E9).
//!
//! The paper's central quantitative claims are that the three
//! improvements reduce the DP table's **memory footprint by 24×** and
//! its **number of memory accesses by 12×**. We measure both directly:
//! every store to / load from the materialized traceback table is
//! counted in word units, and the footprint of each window's table is
//! recorded at its high-water mark.
//!
//! Scratch traffic (the two-row rolling state of the distance pass) is
//! counted separately: it is the part of the working set that stays in
//! registers/on-chip memory in both the baseline and the improved
//! algorithm, so the paper's ratios are about *table* traffic. Reports
//! show both so nothing is hidden.

/// Counters for one alignment (or one batch; they add).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Number of windows processed.
    pub windows: u64,
    /// Error rows computed, summed over windows (`d* + 1` with early
    /// termination, `k + 1` without).
    pub rows_computed: u64,
    /// DP cells (row × column intersections) evaluated.
    pub cells_computed: u64,
    /// High-water footprint of the materialized traceback tables, in
    /// 64-bit words, summed over windows.
    pub table_words: u64,
    /// Word stores into the traceback table.
    pub table_stores: u64,
    /// Word loads from the traceback table (traceback walk).
    pub table_loads: u64,
    /// Word stores to the rolling scratch rows of the distance pass.
    pub scratch_stores: u64,
    /// Word loads from the rolling scratch rows of the distance pass.
    pub scratch_loads: u64,
    /// DP cells *not* evaluated relative to the full `(k+1) × n` sweep
    /// of each window's edit budget: early termination's saving, plus
    /// whole windows the infeasibility pre-flight abandoned.
    pub band_cells_skipped: u64,
    /// Windows whose error-row loop stopped before the full budget:
    /// the solution bit fired early, or the pre-flight proved the
    /// window hopeless before any row was computed.
    pub windows_early_terminated: u64,
    /// Kept for the frozen `genasm-bench`: always 0, in no rendering.
    pub windows_rescued: u64,
    /// Widest error band actually computed for any single window, in
    /// rows of the `d` dimension. **Max-merged**, not summed.
    pub peak_band_rows: u64,
}

impl MemStats {
    /// Zeroed counters.
    pub fn new() -> MemStats {
        MemStats::default()
    }

    /// Total accesses (loads + stores) to the materialized table.
    pub fn table_accesses(&self) -> u64 {
        self.table_stores + self.table_loads
    }

    /// Total accesses including scratch traffic.
    pub fn total_accesses(&self) -> u64 {
        self.table_accesses() + self.scratch_stores + self.scratch_loads
    }

    /// Footprint in bytes.
    pub fn table_bytes(&self) -> u64 {
        self.table_words * 8
    }

    /// Mean footprint per window in bytes (0 when no windows ran).
    pub fn mean_table_bytes_per_window(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        self.table_bytes() as f64 / self.windows as f64
    }

    /// Mean rows computed per window.
    pub fn mean_rows_per_window(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        self.rows_computed as f64 / self.windows as f64
    }

    /// Infeasibility pre-flight of one window: a solution consumes
    /// every pattern char via a text-consuming diagonal step or a
    /// 1-edit insertion, so it needs `m <= n + d*`. When even the full
    /// budget `k` cannot bridge the length gap the window is hopeless;
    /// this returns `true` and books the whole `(k+1) × n` sweep as
    /// skipped, and the engine abandons the window before computing a
    /// single row (O(1), not O(k·n)). Only fires for a caller that
    /// sets `k < w`; `k = w >= m` windows always pass.
    pub fn abandon_infeasible(&mut self, m: usize, n: usize, k: usize) -> bool {
        let hopeless = m > n + k;
        if hopeless {
            self.stopped_early(k + 1, n);
        }
        hopeless
    }

    /// Book one solved window of `n` text columns that computed `rows`
    /// error rows of the `k + 1` its budget allows.
    pub fn window_done(&mut self, rows: usize, n: usize, k: usize) {
        self.windows += 1;
        self.rows_computed += rows as u64;
        self.peak_band_rows = self.peak_band_rows.max(rows as u64);
        if rows < k + 1 {
            self.stopped_early(k + 1 - rows, n);
        }
    }

    fn stopped_early(&mut self, rows_left: usize, n: usize) {
        self.windows_early_terminated += 1;
        self.band_cells_skipped += (rows_left * n) as u64;
    }

    /// Accumulate another counter set.
    pub fn merge(&mut self, other: &MemStats) {
        self.windows += other.windows;
        self.rows_computed += other.rows_computed;
        self.cells_computed += other.cells_computed;
        self.table_words += other.table_words;
        self.table_stores += other.table_stores;
        self.table_loads += other.table_loads;
        self.scratch_stores += other.scratch_stores;
        self.scratch_loads += other.scratch_loads;
        self.band_cells_skipped += other.band_cells_skipped;
        self.windows_early_terminated += other.windows_early_terminated;
        self.peak_band_rows = self.peak_band_rows.max(other.peak_band_rows);
    }

    /// Single-line JSON object with every counter an engine books
    /// (used by the pipeline's machine-readable metrics expositions).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"windows\":{},\"rows_computed\":{},\"cells_computed\":{},\
             \"table_words\":{},\"table_stores\":{},\"table_loads\":{},\
             \"scratch_stores\":{},\"scratch_loads\":{},\
             \"band_cells_skipped\":{},\"windows_early_terminated\":{},\
             \"peak_band_rows\":{}}}",
            self.windows,
            self.rows_computed,
            self.cells_computed,
            self.table_words,
            self.table_stores,
            self.table_loads,
            self.scratch_stores,
            self.scratch_loads,
            self.band_cells_skipped,
            self.windows_early_terminated,
            self.peak_band_rows
        )
    }

    /// Footprint reduction factor of `self` (baseline) over `improved`.
    pub fn footprint_reduction_vs(&self, improved: &MemStats) -> f64 {
        ratio(self.table_words as f64, improved.table_words as f64)
    }

    /// Access reduction factor of `self` (baseline) over `improved`.
    pub fn access_reduction_vs(&self, improved: &MemStats) -> f64 {
        ratio(
            self.table_accesses() as f64,
            improved.table_accesses() as f64,
        )
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        if a == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = MemStats {
            windows: 1,
            rows_computed: 5,
            cells_computed: 100,
            table_words: 40,
            table_stores: 40,
            table_loads: 10,
            scratch_stores: 64,
            scratch_loads: 64,
            ..MemStats::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.windows, 2);
        assert_eq!(a.table_words, 80);
        assert_eq!(a.table_accesses(), 100);
        assert_eq!(a.total_accesses(), 356);
    }

    #[test]
    fn merge_sums_band_counters_but_maxes_peak() {
        let mut a = MemStats {
            band_cells_skipped: 100,
            windows_early_terminated: 2,
            peak_band_rows: 5,
            ..MemStats::default()
        };
        let b = MemStats {
            band_cells_skipped: 50,
            windows_early_terminated: 3,
            peak_band_rows: 9,
            ..MemStats::default()
        };
        a.merge(&b);
        assert_eq!(a.band_cells_skipped, 150);
        assert_eq!(a.windows_early_terminated, 5);
        assert_eq!(a.peak_band_rows, 9, "peak is a high-water mark");
    }

    #[test]
    fn reductions() {
        let base = MemStats {
            table_words: 2400,
            table_stores: 2400,
            table_loads: 0,
            ..MemStats::default()
        };
        let imp = MemStats {
            table_words: 100,
            table_stores: 100,
            table_loads: 100,
            ..MemStats::default()
        };
        assert!((base.footprint_reduction_vs(&imp) - 24.0).abs() < 1e-9);
        assert!((base.access_reduction_vs(&imp) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn json_lists_all_counters() {
        let s = MemStats {
            windows: 3,
            band_cells_skipped: 12,
            peak_band_rows: 7,
            ..MemStats::default()
        };
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"windows\":3"), "{j}");
        assert!(j.contains("\"band_cells_skipped\":12"), "{j}");
        assert!(j.contains("\"peak_band_rows\":7"), "{j}");
    }

    #[test]
    fn zero_windows_means_zero_means() {
        let s = MemStats::new();
        assert_eq!(s.mean_table_bytes_per_window(), 0.0);
        assert_eq!(s.mean_rows_per_window(), 0.0);
        assert_eq!(s.footprint_reduction_vs(&s), 1.0);
    }
}
