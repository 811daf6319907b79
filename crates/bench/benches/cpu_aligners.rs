//! Bench for experiments E1–E3: per-alignment CPU time of improved
//! GenASM vs KSW2, Edlib and unimproved GenASM on paper-profile pairs
//! (10% CLR error). The `repro cpu` harness reports the same comparison
//! on the full mapped candidate set; this bench gives the
//! statistically-controlled per-pair numbers.

use align_core::GlobalAligner;
use baselines::{Ksw2Aligner, MyersAligner};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genasm_core::GenAsmAligner;

fn bench_cpu_aligners(c: &mut Criterion) {
    let mut group = c.benchmark_group("E1-E3_cpu_aligners");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    for &len in &[1_000usize, 4_000, 10_000] {
        let tasks = bench::task_batch(4, len, 0.10, 42);
        let contenders: Vec<(&str, Box<dyn GlobalAligner>)> = vec![
            ("genasm-improved", Box::new(GenAsmAligner::improved())),
            ("genasm-unimproved", Box::new(GenAsmAligner::baseline())),
            ("edlib", Box::new(MyersAligner::new())),
            ("ksw2", Box::new(Ksw2Aligner::new())),
        ];
        for (name, aligner) in contenders {
            group.bench_with_input(BenchmarkId::new(name, len), &tasks, |b, tasks| {
                b.iter(|| {
                    let mut total = 0usize;
                    for t in tasks {
                        total += aligner
                            .align(&t.query, &t.target)
                            .expect("alignment")
                            .edit_distance;
                    }
                    total
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cpu_aligners);
criterion_main!(benches);
