//! Streaming pipeline vs one-shot batch throughput.
//!
//! The streaming pipeline buys bounded memory and overlap between
//! candidate generation and alignment; this bench measures what that
//! costs (or gains) against the one-shot shape the paper's evaluation
//! uses: generate every candidate, then align everything in one Rayon
//! batch. Reported per-iteration times cover the identical workload,
//! so the ratio is the end-to-end streaming overhead. Two pipeline
//! geometries are timed: production-ish (64 KB batches, depth 8) and
//! deliberately tiny batches (4 KB, depth 1) to expose scheduling
//! overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genasm_pipeline::{run_pipeline, AlignRecord, CpuBackend, PipelineConfig, ReadInput};
use mapper::{CandidateParams, MinimizerIndex};
use readsim::{simulate_reads, ErrorModel, Genome, GenomeConfig, ReadConfig};

fn workload() -> (align_core::Seq, Vec<(String, align_core::Seq)>) {
    let genome = Genome::generate(&GenomeConfig::human_like(120_000, 7));
    let reads = simulate_reads(
        &genome,
        &ReadConfig {
            count: 24,
            length: 1_000,
            errors: ErrorModel::pacbio_clr(0.08),
            rc_fraction: 0.5,
            seed: 99,
        },
    );
    let named = reads
        .into_iter()
        .enumerate()
        .map(|(i, r)| (format!("read{i}"), r.seq))
        .collect();
    (genome.seq, named)
}

fn one_shot_records(
    reads: &[(String, align_core::Seq)],
    reference: &align_core::Seq,
    params: &CandidateParams,
) -> usize {
    use genasm_pipeline::Backend;
    let index = MinimizerIndex::build(reference);
    let backend = CpuBackend::improved();
    let mut tasks = Vec::new();
    let mut read_of_task = Vec::new();
    for (i, (_, seq)) in reads.iter().enumerate() {
        for t in mapper::candidates_for_read(i as u32, seq, reference, &index, params) {
            read_of_task.push(i);
            tasks.push(t);
        }
    }
    let alns = backend.align_batch(&tasks).unwrap();
    let mut rows: Vec<Vec<AlignRecord>> = reads.iter().map(|_| Vec::new()).collect();
    for ((&i, t), a) in read_of_task.iter().zip(&tasks).zip(&alns) {
        rows[i].push(AlignRecord::new(
            &reads[i].0,
            reads[i].1.len(),
            "ref",
            reference.len(),
            t.ref_pos,
            t.target.len(),
            t.reverse,
            a.as_ref().unwrap(),
        ));
    }
    let mut n = 0;
    for per_read in &mut rows {
        per_read.sort_by(AlignRecord::cmp_best_first);
        n += per_read.len();
    }
    n
}

fn streaming_records(
    reads: &[(String, align_core::Seq)],
    reference: &align_core::Seq,
    cfg: &PipelineConfig,
) -> usize {
    let backend = CpuBackend::improved();
    let stream = reads.iter().map(|(name, seq)| {
        Ok::<_, std::convert::Infallible>(ReadInput {
            name: name.clone(),
            seq: seq.clone(),
        })
    });
    let mut n = 0usize;
    run_pipeline(
        stream,
        align_core::Reference::single("ref", reference.clone()),
        &backend,
        cfg,
        |_| {
            n += 1;
            Ok(())
        },
    )
    .unwrap();
    n
}

/// Streaming run that returns the full metrics snapshot (for the
/// telemetry-overhead measurements, which want the registry exercised
/// end to end, including exposition rendering).
fn streaming_metrics(
    reads: &[(String, align_core::Seq)],
    reference: &align_core::Seq,
    cfg: &PipelineConfig,
) -> genasm_pipeline::PipelineMetrics {
    let backend = CpuBackend::improved();
    let stream = reads.iter().map(|(name, seq)| {
        Ok::<_, std::convert::Infallible>(ReadInput {
            name: name.clone(),
            seq: seq.clone(),
        })
    });
    run_pipeline(
        stream,
        align_core::Reference::single("ref", reference.clone()),
        &backend,
        cfg,
        |_| Ok(()),
    )
    .unwrap()
}

/// Telemetry overhead: the same streaming workload with telemetry
/// passive (counters always run — this is the baseline), with the
/// full JSON exposition rendered on top, and with a Chrome trace
/// recorder attached (events serialized to `io::sink`, so the cost
/// measured is formatting + the recorder mutex, not disk).
fn bench_telemetry_overhead(c: &mut Criterion) {
    use genasm_pipeline::TraceRecorder;
    use std::sync::Arc;

    let (reference, reads) = workload();
    let cfg = PipelineConfig {
        batch_bases: 64 * 1024,
        queue_depth: 8,
        ..PipelineConfig::default()
    };

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function("off", |b| {
        b.iter(|| streaming_metrics(&reads, &reference, &cfg).records_out)
    });
    group.bench_function("json_render", |b| {
        b.iter(|| {
            let m = streaming_metrics(&reads, &reference, &cfg);
            (m.to_json().len(), m.to_prometheus().len())
        })
    });
    group.bench_function("traced", |b| {
        b.iter(|| {
            let trace = Arc::new(TraceRecorder::to_writer(Box::new(std::io::sink())));
            let traced_cfg = PipelineConfig {
                trace: Some(Arc::clone(&trace)),
                ..cfg.clone()
            };
            let m = streaming_metrics(&reads, &reference, &traced_cfg);
            trace.finish().unwrap();
            m.records_out
        })
    });
    group.finish();
}

fn bench_pipeline_throughput(c: &mut Criterion) {
    let (reference, reads) = workload();
    let params = CandidateParams::default();
    let expected = one_shot_records(&reads, &reference, &params);
    println!(
        "pipeline_throughput: {} reads, {expected} records",
        reads.len()
    );

    let mut group = c.benchmark_group("pipeline_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function(BenchmarkId::new("one_shot", "cpu"), |b| {
        b.iter(|| {
            let n = one_shot_records(&reads, &reference, &params);
            assert_eq!(n, expected);
            n
        })
    });
    for (label, batch_bases, queue_depth, shards) in [
        ("64k-d8", 64 * 1024, 8, 1),
        ("4k-d1", 4 * 1024, 1, 1),
        // Sharded candidate generation: same output, per-shard scan cost.
        ("64k-d8-s4", 64 * 1024, 8, 4),
    ] {
        let cfg = PipelineConfig {
            batch_bases,
            queue_depth,
            dispatchers: 1,
            shards,
            params,
            ..PipelineConfig::default()
        };
        group.bench_function(BenchmarkId::new("streaming", label), |b| {
            b.iter(|| {
                let n = streaming_records(&reads, &reference, &cfg);
                assert_eq!(n, expected);
                n
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline_throughput, bench_telemetry_overhead);
criterion_main!(benches);
