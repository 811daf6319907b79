//! Integration properties of the streaming pipeline:
//!
//! 1. **Determinism** — output is byte-identical across every batching
//!    geometry (batch size in bases, queue depth, one batch in flight
//!    or two, Rayon thread count) and identical to the one-shot
//!    `genasm-cpu` batch path.
//! 2. **Bounded memory** — peak resident task bases stay within
//!    [`PipelineConfig::resident_bases_bound`] even when the workload
//!    is far larger than the configured queue capacity.
//! 3. **Observability** — a real run reports non-zero counters for
//!    every stage.
//! 4. **Ignored-field invariance** — one minimizer index covers the
//!    reference and each backend's `in_flight` sizes its dispatch, so
//!    the ignored `PipelineConfig::shards`, `shard_overlap` and
//!    `dispatchers` fields never change a single output byte.
//!
//! 5. **Map-worker invariance** — the number of threads mapping reads
//!    in parallel (`--threads`) never changes output bytes, funnel
//!    counters or session totals, and never lets the map stage run
//!    ahead of the residency bound.
//!
//! The configuration matrix runs in process: the byte-identity golden
//! sweeps batches in flight {1, 2} × contigs {1, 3} × threads {1, 4}
//! ([`at_every_config`]), and every other test runs over one contig
//! and over 3 ([`at_both_shapes`]), so every
//! determinism property is exercised against a one-contig and a
//! multi-contig index, and one and several map workers.

mod common;

use align_core::{Reference, Seq};
use common::{trace_field, within_a_minute, Fault, FaultBackend, InFlight, SharedBuf};
use genasm_pipeline::{
    run_pipeline, AlignRecord, Backend, CpuBackend, GpuSimBackend, PipelineConfig, PipelineError,
    ReadInput,
};
use mapper::{CandidateParams, MinimizerIndex};
use readsim::{contig_lengths, simulate_reads, ErrorModel, Genome, GenomeConfig, ReadConfig};

fn set_pool(threads: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .unwrap();
}

/// Run `f` with the global pool — map workers *and* Rayon batch
/// workers — resized to `threads` (0 = every core). The tests that
/// resize it are serialized, so each one really runs at the size it
/// asked for (the others only ever observe *some* valid size, which
/// by the properties tested here cannot change their results).
fn with_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    static RESIZING: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = RESIZING.lock().unwrap_or_else(|e| e.into_inner());
    set_pool(threads);
    let out = f();
    set_pool(0);
    out
}

/// Run `test(contigs)` over a one-contig reference and over a
/// 3-contig one. A failure names the shape.
fn at_both_shapes(test: impl Fn(usize)) {
    for contigs in [1, 3] {
        named(&format!("{contigs} contig(s)"), || test(contigs));
    }
}

/// Run `test(fixture, in_flight, threads)` at every batches in flight
/// {1, 2} × contigs {1, 3} × threads {1, 4} configuration, the pool
/// sized to `threads`, on `fixture(contigs)` made once per contig
/// count. A failure names the configuration.
fn at_every_config<F>(fixture: impl Fn(usize) -> F, test: impl Fn(&F, usize, usize)) {
    for contigs in [1, 3] {
        let fixture = fixture(contigs);
        for in_flight in [1, 2] {
            for threads in [1, 4] {
                let config =
                    format!("{in_flight} in flight, {contigs} contig(s), {threads} thread(s)");
                named(&config, || {
                    with_pool(threads, || test(&fixture, in_flight, threads))
                });
            }
        }
    }
}

/// Run `body`; if it panics, say under which `config` and panic on.
fn named(config: &str, body: impl FnOnce()) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    if let Err(panic) = outcome {
        eprintln!("failed at {config}");
        std::panic::resume_unwind(panic);
    }
}

/// Deterministic synthetic workload: (reference, named reads). With
/// `contigs > 1` the reference splits into that many unequal contigs
/// (a single contig keeps the historical name `ref`) and reads are
/// drawn round-robin across contigs.
fn workload(
    genome_len: usize,
    n_reads: usize,
    read_len: usize,
    contigs: usize,
) -> (Reference, Vec<(String, Seq)>) {
    let lens = contig_lengths(genome_len, contigs);
    let mut reference = Reference::new();
    let mut genomes = Vec::new();
    for (ci, &len) in lens.iter().enumerate() {
        let genome = Genome::generate(&GenomeConfig::human_like(len, 77 + ci as u64));
        let name = if contigs == 1 {
            "ref".to_string()
        } else {
            format!("chr{}", ci + 1)
        };
        reference.push(&name, genome.seq.clone());
        genomes.push(genome);
    }
    // Per-contig read pools, interleaved round-robin so neighbouring
    // reads exercise different contigs.
    let pools: Vec<Vec<readsim::SimRead>> = genomes
        .iter()
        .enumerate()
        .map(|(ci, g)| {
            simulate_reads(
                g,
                &ReadConfig {
                    count: n_reads.div_ceil(contigs),
                    length: read_len.min(g.seq.len() / 2 - 1),
                    errors: ErrorModel::pacbio_clr(0.08),
                    rc_fraction: 0.5,
                    seed: 1234 + ci as u64,
                },
            )
        })
        .collect();
    let mut cursors = vec![0usize; contigs];
    let named = (0..n_reads)
        .map(|i| {
            let ci = i % contigs;
            let r = &pools[ci][cursors[ci]];
            cursors[ci] += 1;
            (format!("read{i}"), r.seq.clone())
        })
        .collect();
    (reference, named)
}

/// Drive the pipeline over an in-memory read list, collecting output.
fn run_stream(
    reads: &[(String, Seq)],
    reference: &Reference,
    backend: &dyn Backend,
    cfg: &PipelineConfig,
) -> (String, genasm_pipeline::PipelineMetrics) {
    let stream = reads.iter().map(|(name, seq)| {
        Ok::<_, std::convert::Infallible>(ReadInput {
            name: name.clone(),
            seq: seq.clone(),
        })
    });
    let mut buf = String::new();
    let on_record = |rec: &AlignRecord| {
        buf.push_str(&rec.to_tsv());
        buf.push('\n');
        Ok(())
    };
    let metrics = run_pipeline(stream, reference.clone(), backend, cfg, on_record)
        .expect("pipeline run failed");
    (buf, metrics)
}

/// The one-shot oracle: per-contig flat `MinimizerIndex` seeding and
/// chaining (no `ShardedIndex` involved), chains merged by score with
/// contig order as the stable tiebreak, whole batch aligned with the
/// Rayon CPU batch aligner, printed per read. For one contig this is
/// exactly the pre-multi-contig seed path.
fn one_shot_cpu(
    reads: &[(String, Seq)],
    reference: &Reference,
    params: &CandidateParams,
) -> String {
    let indexes: Vec<MinimizerIndex> = reference
        .contigs()
        .iter()
        .map(|c| MinimizerIndex::build(&c.seq))
        .collect();
    let backend = CpuBackend::improved();
    let mut out = String::new();
    for (i, (name, seq)) in reads.iter().enumerate() {
        let mut merged: Vec<(u32, mapper::Chain)> = Vec::new();
        for (ci, idx) in indexes.iter().enumerate() {
            let anchors = mapper::collect_anchors(seq, idx);
            for chain in mapper::chain_anchors(&anchors, idx.k, &params.chain) {
                merged.push((ci as u32, chain));
            }
        }
        merged.sort_by(|a, b| b.1.score.total_cmp(&a.1.score));
        let tasks: Vec<align_core::AlignTask> = merged
            .iter()
            .take(params.max_per_read)
            .map(|(ci, chain)| {
                mapper::task_from_chain(
                    i as u32,
                    seq,
                    &reference.contig(*ci as usize).seq,
                    chain,
                    params.flank,
                )
                .in_contig(*ci)
            })
            .collect();
        let alns = backend.align_batch(&tasks).unwrap();
        let mut rows: Vec<AlignRecord> = tasks
            .iter()
            .zip(&alns)
            .map(|(t, a)| {
                let contig = reference.contig(t.contig as usize);
                AlignRecord::new(
                    name,
                    seq.len(),
                    &contig.name,
                    contig.len(),
                    t.ref_pos,
                    t.target.len(),
                    t.reverse,
                    a.as_ref().expect("k = W cannot fail"),
                )
            })
            .collect();
        rows.sort_by(AlignRecord::cmp_best_first);
        for r in &rows {
            out.push_str(&r.to_tsv());
            out.push('\n');
        }
    }
    out
}

/// The goldens' fixture for `contigs` contigs: (reference, reads,
/// the one-shot oracle's output).
fn golden(contigs: usize) -> (Reference, Vec<(String, Seq)>, String) {
    let (reference, reads) = workload(60_000, 12, 800, contigs);
    let expected = one_shot_cpu(&reads, &reference, &CandidateParams::default());
    assert!(!expected.is_empty(), "workload produced no alignments");
    (reference, reads, expected)
}

/// Every batch size, at every configuration of the matrix. The queue
/// depth follows the thread count, so each of the 12 geometries runs
/// at two configurations.
#[test]
fn output_is_identical_across_batching_geometry_and_matches_one_shot() {
    at_every_config(
        golden,
        |(reference, reads, expected), in_flight, threads| {
            let backend = InFlight {
                in_flight,
                inner: CpuBackend::improved(),
            };
            let queue_depth = if threads == 1 { 1 } else { 8 };
            // batch_bases = 1 degenerates to one task per batch; 1 MiB puts
            // the whole workload in one or two batches.
            for batch_bases in [1usize, 4 * 1024, 1024 * 1024] {
                let cfg = PipelineConfig {
                    batch_bases,
                    queue_depth,
                    ..PipelineConfig::default()
                };
                let (got, metrics) = run_stream(reads, reference, &backend, &cfg);
                assert_eq!(
                    &got, expected,
                    "diverged at batch_bases={batch_bases} queue_depth={queue_depth} \
                 in_flight={in_flight}"
                );
                assert_eq!(metrics.in_flight_lanes, in_flight);
                assert_eq!(metrics.records_out as usize, expected.lines().count());
                if batch_bases == 1 {
                    // Degenerate batching really happened: one task per batch.
                    assert_eq!(metrics.batches, metrics.tasks_generated);
                }
            }
        },
    );
}

/// The ignored public fields — `shards`, `shard_overlap` and
/// `dispatchers` — set far from their defaults leave the output
/// byte-identical to the one-shot seed path, once per contig count.
#[test]
fn output_is_byte_identical_across_shard_counts_and_overlaps() {
    for contigs in [1, 3] {
        let (reference, reads, expected) = golden(contigs);
        let cfg = PipelineConfig {
            shards: 7,
            shard_overlap: 999,
            dispatchers: 3,
            ..PipelineConfig::default()
        };
        let (got, metrics) = run_stream(&reads, &reference, &CpuBackend::improved(), &cfg);
        assert_eq!(got, expected, "diverged at {contigs} contig(s)");
        assert_eq!(metrics.index.contigs, contigs);
    }
}

/// Multi-contig end-to-end, at its own fixed shape: a 3-contig
/// reference with unequal contig sizes must (a) match the per-contig
/// one-shot oracle and (b) report contig names, contig-local
/// coordinates, and the *contig* length as PAF column 7 in every
/// record.
#[test]
fn multi_contig_runs_are_shard_invariant_and_contig_correct() {
    let (reference, reads) = workload(90_000, 9, 800, 3);
    let params = CandidateParams::default();
    let expected = one_shot_cpu(&reads, &reference, &params);
    assert!(!expected.is_empty(), "workload produced no alignments");

    let contig_len: std::collections::HashMap<String, usize> = reference
        .contigs()
        .iter()
        .map(|c| (c.name.to_string(), c.len()))
        .collect();
    let backend = CpuBackend::improved();
    let cfg = PipelineConfig {
        params,
        ..PipelineConfig::default()
    };
    let stream = reads.iter().map(|(name, seq)| {
        Ok::<_, std::convert::Infallible>(ReadInput {
            name: name.clone(),
            seq: seq.clone(),
        })
    });
    let mut buf = String::new();
    let mut recs: Vec<AlignRecord> = Vec::new();
    run_pipeline(stream, reference.clone(), &backend, &cfg, |rec| {
        buf.push_str(&rec.to_tsv());
        buf.push('\n');
        recs.push(rec.clone());
        Ok(())
    })
    .expect("pipeline run failed");
    assert_eq!(buf, expected, "diverged from the oracle");
    // Every record names a real contig, stays inside it, and carries
    // its length (not the whole-reference length) as PAF column 7.
    let total: usize = reference.total_len();
    let mut contigs_hit = std::collections::HashSet::new();
    for rec in &recs {
        let len = *contig_len
            .get(&rec.tname)
            .unwrap_or_else(|| panic!("unknown contig {:?} in output", rec.tname));
        assert_eq!(rec.tsize, len, "tsize must be the contig length");
        assert_ne!(rec.tsize, total, "tsize must not be the whole reference");
        assert!(rec.tend <= len, "window leaks past contig {:?}", rec.tname);
        let paf = rec.to_paf();
        assert_eq!(
            paf.split('\t').nth(6).unwrap(),
            len.to_string(),
            "PAF column 7 must be the contig length: {paf}"
        );
        let back = AlignRecord::parse_paf(&paf).expect("PAF round trip");
        assert_eq!(&back, rec, "PAF round trip lost a field");
        contigs_hit.insert(rec.tname.clone());
    }
    assert!(
        contigs_hit.len() >= 2,
        "reads from 3 contigs should hit at least 2, hit {contigs_hit:?}"
    );
}

#[test]
fn runs_report_index_metrics() {
    let (reference, reads) = workload(50_000, 8, 700, 3);
    let packed: usize = reference
        .contigs()
        .iter()
        .map(|c| c.seq.packed_bytes())
        .sum();
    let flat =
        MinimizerIndex::build_contigs(reference.contigs().iter().map(|c| &c.seq), 10, 15, 400);
    let backend = CpuBackend::improved();
    let (out, m) = run_stream(&reads, &reference, &backend, &PipelineConfig::default());
    assert!(!out.is_empty());
    assert_eq!(m.index.contigs, 3);
    assert_eq!(m.index.distinct_minimizers, flat.distinct_minimizers());
    assert_eq!(m.index.index_bytes, flat.heap_bytes());
    assert_eq!(m.index.reference_bytes, packed);
    // The index line shows up in the --metrics rendering.
    let summary = m.summary();
    assert!(
        summary.contains(&format!(
            "index:    {} distinct minimizers over 3 contig(s)",
            flat.distinct_minimizers()
        )),
        "{summary}"
    );
}

#[test]
fn output_is_independent_of_rayon_thread_count() {
    at_both_shapes(|contigs| {
        let (reference, reads) = workload(40_000, 6, 700, contigs);
        let backend = CpuBackend::improved();
        let cfg = PipelineConfig {
            batch_bases: 8 * 1024,
            queue_depth: 2,
            ..PipelineConfig::default()
        };
        let (many, _) = run_stream(&reads, &reference, &backend, &cfg);
        let (single, _) = with_pool(1, || run_stream(&reads, &reference, &backend, &cfg));
        assert_eq!(single, many, "1-thread output diverged from many-thread");
    });
}

/// Everything a run reports about *what* it did, as opposed to how
/// long it took: must not depend on the number of map workers.
fn run_facts(m: &genasm_pipeline::PipelineMetrics) -> (genasm_pipeline::FunnelCounts, [u64; 7]) {
    (
        m.funnel,
        [
            // The one session's totals (`SessionMetrics`)...
            m.reads_in,
            m.reads_mapped,
            m.tasks_generated,
            m.task_bases,
            m.records_out,
            // ...and the task stream's.
            m.query_bases,
            m.max_task_bases,
        ],
    )
}

#[test]
fn output_and_counters_are_identical_for_1_2_and_5_map_workers() {
    // Both reference shapes: 3 contigs here, one contig in the skewed
    // fixture below. An empty read keeps an unmapped disposition in
    // the funnel.
    let fixed = workload(90_000, 24, 700, 3);
    // Skewed lengths: every 7th read is 30× longer than its
    // neighbours, which park behind it while it maps.
    let skewed = {
        let (reference, short) = workload(90_000, 24, 300, 1);
        let (_, long) = workload(90_000, 4, 9_000, 1);
        let mut reads = short;
        for (i, (name, seq)) in long.into_iter().enumerate() {
            reads.insert(7 * i, (format!("long-{name}"), seq));
        }
        (reference, reads)
    };
    for (reference, mut reads) in [fixed, skewed] {
        reads.insert(5, ("empty".to_string(), Seq::new()));
        let backend = CpuBackend::improved();
        let cfg = PipelineConfig {
            batch_bases: 6 * 1024,
            queue_depth: 2,
            ..PipelineConfig::default()
        };
        let run =
            |workers: usize| with_pool(workers, || run_stream(&reads, &reference, &backend, &cfg));
        let (want, want_m) = run(1);
        assert_eq!(want_m.map_workers, 1);
        assert!(want.lines().count() >= 24, "fixture must map");
        assert_eq!(want_m.funnel.unmapped_no_anchors, 1);
        for workers in [2, 5] {
            let (got, m) = run(workers);
            assert_eq!(m.map_workers, workers, "pool size not honoured");
            assert_eq!(got, want, "output diverged at {workers} workers");
            assert_eq!(
                run_facts(&m),
                run_facts(&want_m),
                "counters diverged at {workers} workers"
            );
        }
    }
}

/// An input error at read `k` (here with four workers mid-flight, and
/// a long read three places earlier, so the error arrives while the
/// reads in between are parked behind it) fails the run with
/// `PipelineError::Input`, and what was emitted is a
/// whole-reads-in-input-order prefix of the full output.
#[test]
fn input_error_mid_stream_leaves_an_ordered_whole_read_prefix() {
    at_both_shapes(|contigs| {
        let (reference, mut reads) = workload(50_000, 16, 500, contigs);
        reads[8] = workload(50_000, 1, 8_000, contigs).1.remove(0);
        reads[8].0 = "long".to_string();
        let backend = CpuBackend::improved();
        let cfg = PipelineConfig {
            batch_bases: 2 * 1024,
            queue_depth: 1,
            ..PipelineConfig::default()
        };
        let (full, _) = run_stream(&reads, &reference, &backend, &cfg);
        let k = 11;
        let mut emitted = String::new();
        let err = with_pool(4, || {
            let stream = reads.iter().enumerate().map(|(i, (name, seq))| {
                if i == k {
                    return Err("disk on fire");
                }
                Ok(ReadInput {
                    name: name.clone(),
                    seq: seq.clone(),
                })
            });
            run_pipeline(stream, reference.clone(), &backend, &cfg, |rec| {
                emitted.push_str(&rec.to_tsv());
                emitted.push('\n');
                Ok(())
            })
        })
        .expect_err("input error must fail the run");
        match err {
            PipelineError::Input(msg) => assert!(msg.contains("disk on fire"), "{msg}"),
            other => panic!("unexpected error {other}"),
        }
        assert!(full.starts_with(&emitted), "not a prefix of the full run");
        // The prefix ends on a read boundary, before read `k`.
        let qname = |line: &str| line.split('\t').next().unwrap().to_string();
        let next = full[emitted.len()..].lines().next().map(qname);
        let last = emitted.lines().last().map(qname);
        assert!(
            last.is_none() || last != next,
            "read {last:?} was cut in half"
        );
        let past_k: Vec<String> = reads[k..].iter().map(|(n, _)| n.clone()).collect();
        assert!(
            emitted.lines().all(|l| !past_k.contains(&qname(l))),
            "a read at or after the failing one was emitted"
        );
    });
}

#[test]
fn resident_memory_is_bounded_by_queue_capacity_not_workload_size() {
    at_both_shapes(|contigs| {
        // Workload far larger than the queue capacity: 150 reads stream
        // through a pipeline configured to hold ~one 2 KB batch per stage.
        let (reference, reads) = workload(50_000, 150, 500, contigs);
        let backend = CpuBackend::improved();
        let cfg = PipelineConfig {
            batch_bases: 2 * 1024,
            queue_depth: 1,
            params: CandidateParams::default(),
            ..PipelineConfig::default()
        };
        for workers in [1, 4] {
            let (out, metrics) =
                with_pool(workers, || run_stream(&reads, &reference, &backend, &cfg));
            assert!(!out.is_empty());
            assert_streaming_residency(&cfg, &metrics);
        }
    });
}

/// Two batches in flight and the first one stalls: the other slot must
/// not run on and park the rest of the workload in the sink's reorder
/// buffer behind it.
#[test]
fn a_straggling_batch_does_not_let_the_reorder_backlog_grow() {
    at_both_shapes(|contigs| {
        let (reference, reads) = workload(50_000, 150, 500, contigs);
        let backend = InFlight {
            in_flight: 2,
            inner: FaultBackend::new("straggler", &[Fault::Stall(500)], Fault::Ok),
        };
        let cfg = PipelineConfig {
            batch_bases: 2 * 1024,
            queue_depth: 1,
            params: CandidateParams::default(),
            ..PipelineConfig::default()
        };
        let (out, metrics) = with_pool(2, || run_stream(&reads, &reference, &backend, &cfg));
        assert!(!out.is_empty());
        assert_eq!(metrics.in_flight_lanes, 2);
        assert_streaming_residency(&cfg, &metrics);
    });
}

fn assert_streaming_residency(cfg: &PipelineConfig, metrics: &genasm_pipeline::PipelineMetrics) {
    let bound =
        cfg.resident_bases_bound(metrics.max_task_bases as usize, metrics.in_flight_lanes) as u64;
    assert!(
        metrics.max_inflight_bases <= bound,
        "peak {} bases in flight exceeds the configured bound {}",
        metrics.max_inflight_bases,
        bound
    );
    // The bound is meaningful: the workload is much larger than it.
    assert!(
        metrics.task_bases > 4 * bound,
        "workload ({} bases) must dwarf the residency bound ({bound}) for this test \
         to demonstrate streaming",
        metrics.task_bases
    );
    // The task queue never exceeded its weight capacity by more than
    // one oversized admission.
    assert!(
        metrics.task_queue.high_water
            <= (metrics.task_queue.capacity as u64) + metrics.max_task_bases,
        "task queue high-water {} vs capacity {}",
        metrics.task_queue.high_water,
        metrics.task_queue.capacity
    );
}

#[test]
fn metrics_report_every_stage() {
    at_both_shapes(|contigs| {
        let (reference, reads) = workload(40_000, 8, 600, contigs);
        let backend = CpuBackend::improved();
        let cfg = PipelineConfig {
            batch_bases: 4 * 1024,
            queue_depth: 4,
            params: CandidateParams::default(),
            ..PipelineConfig::default()
        };
        let (out, m) = run_stream(&reads, &reference, &backend, &cfg);

        assert_eq!(m.reads_in, 8);
        assert!(m.reads_mapped > 0, "no read mapped");
        assert!(m.tasks_generated > 0);
        assert!(m.task_bases > 0);
        assert!(m.query_bases > 0);
        assert!(m.batches > 0);
        assert_eq!(m.batch_tasks, m.tasks_generated);
        assert_eq!(m.batch_bases, m.task_bases);
        assert_eq!(m.records_out as usize, out.lines().count());
        assert!(m.records_out > 0);
        // Histogram totals the dispatched batches.
        assert_eq!(m.batch_size_bases.count, m.batches);
        // Queues saw traffic.
        assert_eq!(m.task_queue.pushed, m.tasks_generated);
        assert_eq!(m.batch_queue.pushed, m.batches);
        assert_eq!(m.result_queue.pushed, m.batches);
        assert!(m.task_queue.high_water > 0);
        // The index telemetry covers every contig.
        assert_eq!(m.index.contigs, contigs);
        assert!(m.index.distinct_minimizers > 0);
        assert!(m.index.index_bytes > 0 && m.index.reference_bytes > 0);
        // Every stage did measurable work.
        assert!(m.mapper_busy.as_nanos() > 0, "mapper busy time is zero");
        assert!(
            m.scheduler_busy.as_nanos() > 0,
            "scheduler busy time is zero"
        );
        assert!(m.backend_busy.as_nanos() > 0, "backend busy time is zero");
        assert!(m.sink_busy.as_nanos() > 0, "sink busy time is zero");
        assert!(m.wall.as_nanos() > 0);
        assert!(m.backend_utilization() > 0.0);
        assert!(m.query_bases_per_sec() > 0.0);
        // Nothing is left in flight after a clean finish.
        assert!(m.max_inflight_tasks >= 1);
        // The CPU backend surfaces its engine instrumentation, including
        // the error-band counters.
        let engine = m.engine.expect("CpuBackend must report engine stats");
        assert!(engine.windows > 0, "no windows counted");
        assert!(engine.rows_computed > 0);
        assert!(
            engine.peak_band_rows > 0,
            "peak band width must be recorded"
        );
        assert!(
            engine.band_cells_skipped > 0,
            "early termination on low-error reads must skip band cells"
        );
        // The simulated GPU books them through the same code.
        let gpu = GpuSimBackend::a6000();
        let (gpu_out, gpu_m) = run_stream(&reads, &reference, &gpu, &cfg);
        assert_eq!(gpu_out, out);
        let gpu_engine = gpu_m
            .engine
            .expect("GpuSimBackend must report engine stats");
        assert!(gpu_engine.peak_band_rows > 0, "gpu-sim peak band width");
        assert!(gpu_engine.band_cells_skipped > 0, "gpu-sim skipped cells");
        let summary = m.summary();
        assert!(summary.contains("batches"), "{summary}");
        assert!(summary.contains("band:"), "{summary}");
    });
}

#[test]
fn input_errors_propagate_and_unwind_cleanly() {
    at_both_shapes(|contigs| {
        let (reference, reads) = workload(30_000, 3, 500, contigs);
        let backend = CpuBackend::improved();
        let cfg = PipelineConfig {
            ..PipelineConfig::default()
        };
        let stream = reads
            .iter()
            .map(|(name, seq)| {
                Ok(ReadInput {
                    name: name.clone(),
                    seq: seq.clone(),
                })
            })
            .chain(std::iter::once(Err("disk on fire")));
        let err = run_pipeline(stream, reference.clone(), &backend, &cfg, |_| Ok(()))
            .expect_err("input error must fail the run");
        match err {
            PipelineError::Input(msg) => assert!(msg.contains("disk on fire"), "{msg}"),
            other => panic!("unexpected error {other}"),
        }
    });
}

/// A panic on the ingest side (here: the caller's own iterator, with
/// other workers mid-flight and reads parked behind a long one)
/// reaches the caller as a panic — the thread draining rows is
/// released, not left waiting for the end of a session nobody will
/// finish, and no worker is left waiting for a turn that never comes.
#[test]
fn a_panicking_input_iterator_propagates_instead_of_hanging() {
    at_both_shapes(|contigs| {
        let (reference, mut reads) = workload(30_000, 8, 500, contigs);
        reads[2] = workload(30_000, 1, 8_000, contigs).1.remove(0);
        let outcome = within_a_minute(move || {
            let backend = CpuBackend::improved();
            let cfg = PipelineConfig {
                ..PipelineConfig::default()
            };
            with_pool(3, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let stream = reads.iter().enumerate().map(|(i, (name, seq))| {
                        assert!(i < 5, "input iterator blew up");
                        Ok::<_, std::convert::Infallible>(ReadInput {
                            name: name.clone(),
                            seq: seq.clone(),
                        })
                    });
                    run_pipeline(stream, reference.clone(), &backend, &cfg, |_| Ok(())).map(|_| ())
                }))
            })
        });
        assert!(outcome.is_err(), "the panic was swallowed: {outcome:?}");
    });
}

#[test]
fn sink_errors_propagate_and_unwind_cleanly() {
    at_both_shapes(|contigs| {
        let (reference, reads) = workload(30_000, 3, 500, contigs);
        let backend = CpuBackend::improved();
        let cfg = PipelineConfig {
            batch_bases: 1, // many small batches keep upstream stages busy
            queue_depth: 1,
            ..PipelineConfig::default()
        };
        let stream = reads.iter().map(|(name, seq)| {
            Ok::<_, std::convert::Infallible>(ReadInput {
                name: name.clone(),
                seq: seq.clone(),
            })
        });
        let err = run_pipeline(stream, reference.clone(), &backend, &cfg, |_| {
            Err(std::io::Error::other("broken pipe"))
        })
        .expect_err("sink error must fail the run");
        match err {
            PipelineError::Sink(e) => assert!(e.to_string().contains("broken pipe")),
            other => panic!("unexpected error {other}"),
        }
    });
}

/// A backend that fails every batch after the first: later batches
/// strand in the reorder buffer and the current read is left
/// incomplete — the abort path must surface the backend error, not a
/// panic or a partially emitted read.
#[test]
fn backend_errors_mid_run_unwind_without_panicking_or_partial_reads() {
    at_both_shapes(|contigs| {
        let (reference, reads) = workload(40_000, 10, 600, contigs);
        let backend = InFlight {
            in_flight: 2,
            inner: FaultBackend::new("flaky", &[Fault::Ok], Fault::Error),
        };
        let cfg = PipelineConfig {
            batch_bases: 2 * 1024, // several batches, so reads span the failure
            queue_depth: 2,
            ..PipelineConfig::default()
        };
        let stream = reads.iter().map(|(name, seq)| {
            Ok::<_, std::convert::Infallible>(ReadInput {
                name: name.clone(),
                seq: seq.clone(),
            })
        });
        let mut emitted: Vec<String> = Vec::new();
        let err = run_pipeline(stream, reference.clone(), &backend, &cfg, |rec| {
            emitted.push(rec.qname.clone());
            Ok(())
        })
        .expect_err("injected backend failure must fail the run");
        match err {
            PipelineError::Backend(e) => assert!(e.to_string().contains("injected failure")),
            other => panic!("unexpected error {other}"),
        }
        // Any records that did get out are whole reads in input order
        // (never a partially reported read).
        let expected = one_shot_cpu(&reads, &reference, &CandidateParams::default());
        let mut expected_per_read: Vec<(String, usize)> = Vec::new();
        for line in expected.lines() {
            let name = line.split('\t').next().unwrap().to_string();
            match expected_per_read.last_mut() {
                Some((n, c)) if *n == name => *c += 1,
                _ => expected_per_read.push((name, 1)),
            }
        }
        let mut got_per_read: Vec<(String, usize)> = Vec::new();
        for name in &emitted {
            match got_per_read.last_mut() {
                Some((n, c)) if n == name => *c += 1,
                _ => got_per_read.push((name.clone(), 1)),
            }
        }
        assert!(
            got_per_read.len() <= expected_per_read.len(),
            "more reads than the workload has"
        );
        for (got, want) in got_per_read.iter().zip(&expected_per_read) {
            assert_eq!(got, want, "partial read emitted on the abort path");
        }
    });
}

#[test]
fn empty_input_completes_with_zero_records() {
    at_both_shapes(|contigs| {
        let (reference, _) = workload(30_000, 1, 500, contigs);
        let backend = CpuBackend::improved();
        let stream = std::iter::empty::<Result<ReadInput, std::convert::Infallible>>();
        let cfg = PipelineConfig {
            ..PipelineConfig::default()
        };
        let metrics = run_pipeline(stream, reference, &backend, &cfg, |_| Ok(())).unwrap();
        assert_eq!(metrics.reads_in, 0);
        assert_eq!(metrics.records_out, 0);
        assert_eq!(metrics.batches, 0);
    });
}

/// Telemetry is passive: running the identical workload with a Chrome
/// trace recorder attached (events serialized, to a sink) and the JSON
/// expositions rendered never changes a single output byte. This is
/// the byte-geometry contract of the telemetry layer.
#[test]
fn tracing_and_exposition_never_change_output_bytes() {
    at_both_shapes(|contigs| {
        use genasm_pipeline::TraceRecorder;
        use std::sync::Arc;

        let (reference, reads) = workload(40_000, 8, 600, contigs);
        let backend = CpuBackend::improved();
        let plain_cfg = PipelineConfig {
            batch_bases: 8 * 1024,
            queue_depth: 2,
            ..PipelineConfig::default()
        };
        let (plain, _) = run_stream(&reads, &reference, &backend, &plain_cfg);

        // Shared buffer so the test can also sanity-check the emitted JSON.
        let buf = SharedBuf::default();
        let trace = Arc::new(TraceRecorder::to_writer(Box::new(buf.clone())));
        let traced_cfg = PipelineConfig {
            trace: Some(Arc::clone(&trace)),
            ..plain_cfg.clone()
        };
        let (traced, m) = with_pool(3, || run_stream(&reads, &reference, &backend, &traced_cfg));
        trace.finish().unwrap();

        assert_eq!(plain, traced, "tracing changed the output bytes");
        // Rendering the expositions is also output-neutral by construction
        // (they only read atomics), but exercise them so a panic or a
        // malformed rendering fails here rather than in CI's smoke test.
        assert!(m
            .to_json()
            .starts_with("{\"schema\":\"genasm-pipeline-metrics/v1\""));
        assert!(m.to_prometheus().contains("genasm_reads_in_total 8"));
        let trace_text = buf.text();
        assert!(trace_text.trim_start().starts_with('['));
        assert!(trace_text.trim_end().ends_with(']'));
        assert!(trace_text.contains("\"name\":\"read\""), "no read spans");
        assert!(
            trace_text.contains("\"name\":\"execute\""),
            "no execute spans"
        );
        assert!(trace_text.contains("\"ph\":\"M\""), "no thread metadata");
        // Each map worker has a lane of its own, named, on which its map
        // spans (one read at a time) never overlap.
        let mut lanes: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
        for line in trace_text
            .lines()
            .filter(|l| l.contains("\"name\":\"map\""))
        {
            let span = (trace_field(line, "\"ts\":"), trace_field(line, "\"dur\":"));
            lanes
                .entry(trace_field(line, "\"tid\":") as u64)
                .or_default()
                .push(span);
        }
        assert_eq!(lanes.values().map(Vec::len).sum::<usize>(), reads.len());
        assert!(lanes.len() <= 3, "more map lanes than workers: {lanes:?}");
        for (tid, spans) in &mut lanes {
            let lane = tid - 16; // `tids::MAP0`, the lane of map worker 0
            assert!(
                trace_text.contains(&format!("\"name\":\"map:{lane}\"")),
                "map lane {tid} has no thread name"
            );
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for pair in spans.windows(2) {
                assert!(
                    pair[1].0 >= pair[0].0 + pair[0].1 - 0.002,
                    "map spans overlap on lane {tid}: {pair:?}"
                );
            }
        }
    });
}

/// `--explain` is passive: the identical workload run with an explain
/// sink attached produces byte-identical records, and the explain
/// stream carries exactly one well-formed `genasm-explain/v2` line per
/// input read — including reads that never produce a record. The
/// funnel counters partition `reads_in` exactly.
#[test]
fn explain_stream_is_passive_and_covers_every_read() {
    at_both_shapes(|contigs| {
        use genasm_pipeline::ExplainSink;
        use std::sync::Arc;

        let (reference, mut reads) = workload(40_000, 8, 600, contigs);
        // An empty read can never anchor: it must still get an explain
        // line (disposition unmapped:no_anchors) despite emitting nothing.
        reads.push(("lost \"read\"".to_string(), Seq::new()));
        let backend = CpuBackend::improved();
        let plain_cfg = PipelineConfig {
            batch_bases: 8 * 1024,
            queue_depth: 2,
            ..PipelineConfig::default()
        };
        let (plain, _) = run_stream(&reads, &reference, &backend, &plain_cfg);

        #[derive(Clone)]
        struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf(Arc::new(std::sync::Mutex::new(Vec::new())));
        let explained_cfg = PipelineConfig {
            explain: Some(Arc::new(ExplainSink::new(Box::new(buf.clone())))),
            ..plain_cfg.clone()
        };
        let (explained, m) = run_stream(&reads, &reference, &backend, &explained_cfg);
        assert_eq!(plain, explained, "explain changed the output bytes");

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            reads.len(),
            "one explain line per read:\n{text}"
        );
        for line in &lines {
            assert!(
                line.starts_with("{\"schema\":\"genasm-explain/v2\""),
                "{line}"
            );
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
        }
        // Every input read appears exactly once, hostile names escaped.
        for (name, _) in &reads {
            let esc = genasm_telemetry::json::escape(name);
            let needle = format!("\"read\":\"{esc}\"");
            assert_eq!(
                lines.iter().filter(|l| l.contains(&needle)).count(),
                1,
                "read {name:?} not explained exactly once"
            );
        }
        assert!(
            text.contains("\"disposition\":\"unmapped:no_anchors\""),
            "the empty read's disposition is missing:\n{text}"
        );
        // The funnel partitions reads_in on the metrics surface too.
        let f = m.funnel;
        assert_eq!(f.reads_in, reads.len() as u64);
        assert_eq!(f.reads_in, f.aligned + f.unmapped_total() + f.failed);
        assert_eq!(f.unmapped_no_anchors, 1);
    });
}

/// The latency histograms cover the full read lifecycle: every read
/// gets an end-to-end latency sample, every batch a build-time and a
/// backend execute sample, and the per-backend breakdown matches the
/// global batch counters.
#[test]
fn latency_histograms_cover_the_read_lifecycle() {
    at_both_shapes(|contigs| {
        let (reference, reads) = workload(40_000, 8, 600, contigs);
        let backend = CpuBackend::improved();
        let cfg = PipelineConfig {
            batch_bases: 4 * 1024,
            queue_depth: 4,
            ..PipelineConfig::default()
        };
        let (_, m) = run_stream(&reads, &reference, &backend, &cfg);

        assert_eq!(m.read_latency.count, m.reads_in, "one sample per read");
        assert_eq!(m.task_queue_wait.count, m.tasks_generated);
        assert_eq!(m.batch_build.count, m.batches);
        assert_eq!(m.reorder_wait.count, m.batches);
        assert!(m.read_latency.p50() <= m.read_latency.p99());
        assert!(m.read_latency.sum > 0, "reads cannot take zero time");
        // One backend, so the breakdown has one entry carrying every batch.
        assert_eq!(m.backends.len(), 1, "backend breakdown");
        let be = &m.backends[0];
        assert_eq!(be.name, backend.name());
        assert_eq!(be.batches, m.batches);
        assert_eq!(be.tasks, m.batch_tasks);
        assert_eq!(be.execute.count, m.batches);
        assert_eq!(be.queue_wait.count, m.batches);
    });
}
