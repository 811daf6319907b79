//! Fresh-vs-reused workspace throughput: the benchmark behind the
//! allocation-free hot path refactor.
//!
//! Three levels are compared on identical inputs:
//!
//! * **single/fresh vs single/reused** — one thread, one alignment at a
//!   time: isolates the pure allocation overhead per alignment;
//! * **batch/fresh vs batch/reused** — the Rayon batch driver with a
//!   workspace per task vs one workspace per worker (`map_init`): what
//!   production batch throughput actually gains;
//! * **reused ns/window** — per-window cost with everything amortized,
//!   the number the ROADMAP's "as fast as the hardware allows" tracks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genasm_core::{AlignWorkspace, GenAsmConfig, MemStats};

fn bench_workspace_reuse(c: &mut Criterion) {
    let cfg = GenAsmConfig::improved();
    let tasks = bench::task_batch(64, 2_000, 0.10, 42);
    let windows_per_batch: u64 = {
        let mut stats = MemStats::new();
        for t in &tasks {
            genasm_core::align_with_stats(&t.query, &t.target, &cfg, &mut stats).expect("k=W");
        }
        stats.windows
    };
    println!(
        "workspace_reuse: {} tasks, {windows_per_batch} windows per batch pass",
        tasks.len()
    );

    let mut group = c.benchmark_group("workspace_reuse");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_with_input(BenchmarkId::new("single", "fresh"), &tasks, |b, tasks| {
        b.iter(|| {
            let mut d = 0usize;
            for t in tasks {
                let mut stats = MemStats::new();
                d += genasm_core::align_with_stats(&t.query, &t.target, &cfg, &mut stats)
                    .expect("k=W")
                    .edit_distance;
            }
            d
        })
    });
    group.bench_with_input(BenchmarkId::new("single", "reused"), &tasks, |b, tasks| {
        let mut ws = AlignWorkspace::with_capacity(cfg.w);
        b.iter(|| {
            let mut d = 0usize;
            for t in tasks {
                d += genasm_core::align_with_workspace(&t.query, &t.target, &cfg, &mut ws)
                    .expect("k=W")
                    .edit_distance;
            }
            d
        })
    });

    group.bench_with_input(BenchmarkId::new("batch", "fresh"), &tasks, |b, tasks| {
        // The pre-refactor batch shape: a workspace per task.
        b.iter(|| {
            genasm_cpu::align_batch_with(tasks, &genasm_core::GenAsmAligner::improved()).failures
        })
    });
    group.bench_with_input(BenchmarkId::new("batch", "reused"), &tasks, |b, tasks| {
        // One workspace per Rayon worker via map_init.
        b.iter(|| genasm_cpu::align_batch_genasm(tasks, &cfg).failures)
    });
    group.finish();
}

criterion_group!(benches, bench_workspace_reuse);
criterion_main!(benches);
