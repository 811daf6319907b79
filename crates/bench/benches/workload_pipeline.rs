//! Bench of the workload substrate: genome synthesis, read simulation,
//! minimizer indexing and chaining — the pipeline stages in front of
//! the aligners (the stages `repro workload` tabulates).

use criterion::{criterion_group, criterion_main, Criterion};
use mapper::{CandidateParams, MinimizerIndex};
use readsim::{simulate_reads, ErrorModel, Genome, GenomeConfig, ReadConfig};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_pipeline");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function("genome_200kb", |b| {
        b.iter(|| {
            Genome::generate(&GenomeConfig::human_like(200_000, 3))
                .seq
                .len()
        })
    });

    let genome = Genome::generate(&GenomeConfig::human_like(200_000, 3));
    group.bench_function("reads_10x2kb", |b| {
        b.iter(|| {
            simulate_reads(
                &genome,
                &ReadConfig {
                    count: 10,
                    length: 2_000,
                    errors: ErrorModel::pacbio_clr(0.10),
                    rc_fraction: 0.5,
                    seed: 5,
                },
            )
            .len()
        })
    });

    group.bench_function("index_200kb", |b| {
        b.iter(|| MinimizerIndex::build(&genome.seq).distinct_minimizers())
    });

    let index = MinimizerIndex::build(&genome.seq);
    let reads = simulate_reads(
        &genome,
        &ReadConfig {
            count: 5,
            length: 2_000,
            errors: ErrorModel::pacbio_clr(0.10),
            rc_fraction: 0.5,
            seed: 5,
        },
    );
    group.bench_function("map_5_reads", |b| {
        b.iter(|| {
            reads
                .iter()
                .map(|r| {
                    mapper::candidates_for_read(
                        r.id,
                        &r.seq,
                        &genome.seq,
                        &index,
                        &CandidateParams::default(),
                    )
                    .len()
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
