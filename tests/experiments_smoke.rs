//! Smoke tests of the experiment drivers: each must run on a small
//! task set and produce a report containing its paper row.

use genasm_suite::experiments::{ablation, accuracy, cpu, gpu, memory, sweep};
use genasm_suite::genasm_core::MemStats;
use genasm_suite::workload::mutated_tasks;

fn tasks(n: usize, len: usize) -> Vec<align_core::AlignTask> {
    mutated_tasks(n, len, 0.10, 77)
}

#[test]
fn cpu_experiment_reports_all_rows() {
    let res = cpu::run(&tasks(6, 800));
    assert!(res.vs_ksw2 > 0.0 && res.vs_edlib > 0.0 && res.vs_baseline > 0.0);
    let report = cpu::report(&res);
    for needle in [
        "E1",
        "E2",
        "E3",
        "ksw2",
        "edlib",
        "genasm-improved",
        "15.2x",
    ] {
        assert!(report.contains(needle), "missing {needle} in:\n{report}");
    }
}

#[test]
fn gpu_experiment_reports_all_rows() {
    let res = gpu::run(&tasks(4, 600));
    assert!(
        res.vs_gpu_baseline > 1.0,
        "improved kernel must beat baseline"
    );
    let report = gpu::report(&res);
    for needle in ["E4", "E5", "E6", "E7", "4.1x", "62x", "7.2x", "5.9x"] {
        assert!(report.contains(needle), "missing {needle} in:\n{report}");
    }
}

#[test]
fn memory_experiment_reports_reductions() {
    let all = tasks(6, 800);
    let res = memory::run(&all, &all[..3]);
    assert!(res.footprint_reduction > 8.0);
    assert!(res.access_reduction > 4.0);
    // E8/E9 are ratios of these counters, which depend on nothing but
    // the input: a change that moves one must say why.
    let counters = |s: &MemStats| (s.windows, s.table_words, s.table_accesses());
    let (base, imp) = &res.all;
    assert_eq!(
        counters(&base.stats),
        (120, 1_987_960, 1_993_922),
        "baseline()"
    );
    assert_eq!(counters(&imp.stats), (120, 39_503, 44_656), "improved()");
    let report = memory::report(&res);
    for needle in ["E8", "E9", "24x", "12x", "true locus"] {
        assert!(report.contains(needle), "missing {needle} in:\n{report}");
    }
}

#[test]
fn ablation_covers_all_combinations() {
    let rows = ablation::run(&tasks(3, 500));
    assert_eq!(rows.len(), 8);
    let report = ablation::report(&rows);
    for needle in ["baseline", "+compress+et+dent", "+et"] {
        assert!(report.contains(needle), "missing {needle} in:\n{report}");
    }
    // The fully-improved row must have the smallest footprint.
    let improved = rows
        .iter()
        .find(|r| r.label == "+compress+et+dent")
        .unwrap();
    assert!(rows
        .iter()
        .all(|r| improved.stats.table_words <= r.stats.table_words));
    // Pure counters of a fixed input, largest footprint first.
    let words: Vec<(&str, u64)> = rows
        .iter()
        .map(|r| (r.label.as_str(), r.stats.table_words))
        .collect();
    assert_eq!(
        words,
        [
            ("baseline", 626_080),
            ("+dent", 410_800),
            ("+compress", 156_520),
            ("+compress+dent", 102_700),
            ("+et", 73_592),
            ("+et+dent", 47_740),
            ("+compress+et", 18_398),
            ("+compress+et+dent", 11_935),
        ]
    );
}

#[test]
fn accuracy_experiment_bounds_hold() {
    let res = accuracy::run(&tasks(5, 700));
    assert_eq!(res.good.pairs + res.junk.pairs, 5);
    assert!(res.good.optimal <= res.good.pairs);
    assert!(res.good.mean_excess >= 0.0);
    let report = accuracy::report(&res);
    assert!(report.contains("true-locus-like"));
    assert!(report.contains("off-target"));
}

#[test]
fn sweeps_produce_monotone_rows_per_window() {
    let points = sweep::error_sweep(&[0.01, 0.10, 0.20], 6, 600, 3);
    assert_eq!(points.len(), 3);
    // More errors -> more rows computed per window (ET saves less).
    assert!(points[0].rows_per_window < points[2].rows_per_window);
    // More errors -> smaller footprint reduction.
    assert!(points[0].footprint_reduction > points[2].footprint_reduction);
    let geo = sweep::geometry_sweep(&[(64, 24), (32, 12)], 4, 600, 3);
    assert_eq!(geo.len(), 2);
    assert!(geo[1].windows_per_pair > geo[0].windows_per_pair);
    let report = sweep::report(&points, &geo);
    assert!(report.contains("A3a"));
    assert!(report.contains("A3b"));
}
