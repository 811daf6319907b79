//! # genasm-cpu
//!
//! The multi-threaded CPU batch aligner: the paper's "CPU
//! implementation of our improved GenASM algorithm" (and its unimproved
//! counterpart), parallelized over alignment tasks with Rayon — the
//! paper uses 48 threads on a dual-socket Xeon; we use every available
//! core.
//!
//! Besides GenASM this crate can drive *any* [`GlobalAligner`] over a
//! batch, which is how the benchmark harness times KSW2 and Edlib under
//! identical threading.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use align_core::{AlignTask, Alignment, GlobalAligner};
use genasm_core::{AlignWorkspace, GenAsmConfig, MemStats};
use rayon::prelude::*;

pub mod throughput;

pub use throughput::{aligned_bases_per_sec, BatchTiming};

/// Worker threads a batch runs on: the global Rayon pool size
/// (`--threads N`, else every available core). Exposed so stages in
/// front of the aligner can size themselves to the same setting.
pub fn worker_threads() -> usize {
    rayon::current_num_threads()
}

/// Outcome of one batch run.
#[derive(Debug)]
pub struct BatchResult {
    /// Alignments in task order; `None` for tasks the aligner rejected
    /// (e.g. edit budget exhausted under a small `k`).
    pub alignments: Vec<Option<Alignment>>,
    /// Wall-clock timing of the batch.
    pub timing: BatchTiming,
    /// Aggregated GenASM instrumentation (zeroed for foreign aligners).
    pub stats: MemStats,
    /// Number of rejected tasks.
    pub failures: usize,
}

/// Align a batch with the GenASM configuration `cfg`, in parallel.
///
/// Each Rayon worker creates **one** [`AlignWorkspace`] (`map_init`)
/// and reuses it for every task that worker claims, so scratch rows,
/// traceback arenas and staging buffers are allocated once per worker,
/// not once per task — the batch hot path is allocation-free in steady
/// state.
pub fn align_batch_genasm(tasks: &[AlignTask], cfg: &GenAsmConfig) -> BatchResult {
    cfg.validate();
    let start = Instant::now();
    let w = cfg.w;
    let results: Vec<(Option<Alignment>, MemStats)> = tasks
        .par_iter()
        .map_init(
            move || AlignWorkspace::with_capacity(w),
            |ws, t| {
                let a = genasm_core::align_with_workspace(&t.query, &t.target, cfg, ws).ok();
                (a, ws.take_stats())
            },
        )
        .collect();
    let elapsed = start.elapsed();

    let mut stats = MemStats::new();
    let mut failures = 0;
    let mut alignments = Vec::with_capacity(results.len());
    for (a, s) in results {
        stats.merge(&s);
        if a.is_none() {
            failures += 1;
        }
        alignments.push(a);
    }
    let timing = BatchTiming::new(tasks, elapsed);
    BatchResult {
        alignments,
        timing,
        stats,
        failures,
    }
}

/// Align a batch with an arbitrary aligner (used for the baselines).
pub fn align_batch_with<A: GlobalAligner + Sync>(tasks: &[AlignTask], aligner: &A) -> BatchResult {
    let start = Instant::now();
    let failures = AtomicU64::new(0);
    let alignments: Vec<Option<Alignment>> = tasks
        .par_iter()
        .map(|t| match aligner.align(&t.query, &t.target) {
            Ok(a) => Some(a),
            Err(_) => {
                failures.fetch_add(1, Ordering::Relaxed);
                None
            }
        })
        .collect();
    let elapsed = start.elapsed();
    BatchResult {
        timing: BatchTiming::new(tasks, elapsed),
        alignments,
        stats: MemStats::new(),
        failures: failures.load(Ordering::Relaxed) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align_core::{Seq, TaskBatch};

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    fn small_batch() -> TaskBatch {
        let mut b = TaskBatch::new();
        for i in 0..32u32 {
            let unit = ["ACGTTGCA", "TTAGGCAC", "GGATCCAT", "ACCACGTA"][i as usize % 4];
            let q = seq(&unit.repeat(20));
            let mut tb = q.to_ascii();
            tb[(i as usize * 3) % 120] = b'A';
            let t = seq(std::str::from_utf8(&tb).unwrap());
            b.push(AlignTask::new(i, 0, q, t));
        }
        b
    }

    #[test]
    fn batch_aligns_everything() {
        let batch = small_batch();
        let res = align_batch_genasm(&batch.tasks, &GenAsmConfig::improved());
        assert_eq!(res.failures, 0);
        assert_eq!(res.alignments.len(), 32);
        for (t, a) in batch.tasks.iter().zip(&res.alignments) {
            a.as_ref().unwrap().check(&t.query, &t.target).unwrap();
        }
        assert!(res.stats.windows >= 32);
        assert!(res.timing.wall.as_nanos() > 0);
    }

    #[test]
    fn improved_and_baseline_same_results_in_batch() {
        let batch = small_batch();
        let imp = align_batch_genasm(&batch.tasks, &GenAsmConfig::improved());
        let base = align_batch_genasm(&batch.tasks, &GenAsmConfig::baseline());
        for (a, b) in imp.alignments.iter().zip(&base.alignments) {
            assert_eq!(a.as_ref().unwrap().cigar, b.as_ref().unwrap().cigar);
        }
        assert!(base.stats.table_words > imp.stats.table_words);
    }

    #[test]
    fn foreign_aligner_batches() {
        let batch = small_batch();
        let res = align_batch_with(&batch.tasks, &baselines::MyersAligner::new());
        assert_eq!(res.failures, 0);
        for (t, a) in batch.tasks.iter().zip(&res.alignments) {
            a.as_ref().unwrap().check(&t.query, &t.target).unwrap();
        }
    }

    #[test]
    fn budget_failures_are_counted_not_fatal() {
        let mut cfg = GenAsmConfig::improved();
        cfg.k = 2;
        let mut batch = TaskBatch::new();
        batch.push(AlignTask::new(0, 0, seq("ACGTACGT"), seq("ACGTACGT")));
        batch.push(AlignTask::new(1, 0, seq("AAAAAAAA"), seq("TTTTTTTT")));
        let res = align_batch_genasm(&batch.tasks, &cfg);
        assert_eq!(res.failures, 1);
        assert!(res.alignments[0].is_some());
        assert!(res.alignments[1].is_none());
    }

    #[test]
    fn empty_batch() {
        let res = align_batch_genasm(&[], &GenAsmConfig::improved());
        assert_eq!(res.alignments.len(), 0);
        assert_eq!(res.failures, 0);
    }

    #[test]
    fn reusing_batch_matches_per_task_path() {
        // The map_init workspace-reuse path must be bit-identical to
        // aligning every task with a fresh workspace.
        let batch = small_batch();
        let reused = align_batch_genasm(&batch.tasks, &GenAsmConfig::improved());
        let mut fresh_stats = MemStats::new();
        for (t, a) in batch.tasks.iter().zip(&reused.alignments) {
            let mut s = MemStats::new();
            let fresh = genasm_core::align_with_stats(
                &t.query,
                &t.target,
                &GenAsmConfig::improved(),
                &mut s,
            )
            .unwrap();
            assert_eq!(a.as_ref().unwrap().cigar, fresh.cigar);
            fresh_stats.merge(&s);
        }
        assert_eq!(reused.stats, fresh_stats, "instrumentation must not drift");
    }
}
