//! Experiment A1 (extension): per-improvement ablation.
//!
//! The paper reports the three improvements' *collective* effect; this
//! ablation attributes the footprint/traffic reductions to each of the
//! 8 on/off combinations, which is the evidence the design choices in
//! `genasm_core::engine` ("Improvement mechanics") rest on.

use std::time::Instant;

use align_core::AlignTask;
use genasm_core::{GenAsmConfig, Improvements, MemStats};

use crate::report::{bytes, f, Table};

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Combination label (`baseline`, `+et`, `+compress+et+dent`, ...).
    pub label: String,
    /// Aggregated counters.
    pub stats: MemStats,
    /// Wall time, ms (single-threaded, same tasks).
    pub wall_ms: f64,
}

/// Run every improvement combination over the tasks.
pub fn run(tasks: &[AlignTask]) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for improvements in Improvements::all_combinations() {
        let cfg = GenAsmConfig {
            improvements,
            ..GenAsmConfig::improved()
        };
        let mut stats = MemStats::new();
        let start = Instant::now();
        for t in tasks {
            genasm_core::align_with_stats(&t.query, &t.target, &cfg, &mut stats)
                .expect("k=W cannot fail");
        }
        rows.push(AblationRow {
            label: improvements.label(),
            stats,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        });
    }
    // Baseline first, then by decreasing footprint.
    rows.sort_by_key(|r| std::cmp::Reverse(r.stats.table_words));
    rows
}

/// Render the ablation table; reductions are relative to the row with
/// no improvements.
pub fn report(rows: &[AblationRow]) -> String {
    let baseline = rows
        .iter()
        .find(|r| r.label == "baseline")
        .expect("baseline combination present");
    let mut t = Table::new(
        "A1: improvement ablation (reductions vs unimproved)",
        &[
            "combination",
            "table bytes/window",
            "footprint reduction",
            "access reduction",
            "wall ms",
        ],
    );
    for r in rows {
        t.row(&[
            r.label.clone(),
            bytes(r.stats.mean_table_bytes_per_window()),
            format!("{}x", f(baseline.stats.footprint_reduction_vs(&r.stats))),
            format!("{}x", f(baseline.stats.access_reduction_vs(&r.stats))),
            f(r.wall_ms),
        ]);
    }
    t.render()
}
