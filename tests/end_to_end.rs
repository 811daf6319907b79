//! Cross-crate integration tests: the full pipeline from genome to
//! validated alignments, with every aligner in the suite.

use align_core::{AlignTask, GlobalAligner};
use baselines::{Ksw2Aligner, MyersAligner};
use genasm_core::{GenAsmConfig, MemStats};
use genasm_gpu::GpuAligner;
use gpu_sim::Device;
use mapper::{CandidateParams, MinimizerIndex};
use readsim::{simulate_reads, ErrorModel, Genome, GenomeConfig, ReadConfig};

/// A small but complete workload: 150 kbp genome, 8 reads of 2 kbp.
fn tiny_workload() -> (Genome, Vec<AlignTask>) {
    let genome = Genome::generate(&GenomeConfig::human_like(150_000, 21));
    let reads = simulate_reads(
        &genome,
        &ReadConfig {
            count: 8,
            length: 2_000,
            errors: ErrorModel::pacbio_clr(0.10),
            rc_fraction: 0.5,
            seed: 22,
        },
    );
    let index = MinimizerIndex::build(&genome.seq);
    let mut tasks = Vec::new();
    for r in &reads {
        tasks.extend(mapper::candidates_for_read(
            r.id,
            &r.seq,
            &genome.seq,
            &index,
            &CandidateParams::default(),
        ));
    }
    assert!(
        tasks.len() >= reads.len(),
        "each read should produce at least one candidate"
    );
    (genome, tasks)
}

#[test]
fn every_aligner_validates_on_mapped_candidates() {
    let (_genome, tasks) = tiny_workload();
    let subset = &tasks[..tasks.len().min(12)];
    let genasm = genasm_core::GenAsmAligner::improved();
    let genasm_base = genasm_core::GenAsmAligner::baseline();
    let myers = MyersAligner::new();
    let ksw2 = Ksw2Aligner::new();
    for t in subset {
        for aligner in [&genasm as &dyn GlobalAligner, &genasm_base, &myers, &ksw2] {
            let aln = aligner
                .align(&t.query, &t.target)
                .unwrap_or_else(|e| panic!("{} failed: {e}", aligner.name()));
            aln.check(&t.query, &t.target)
                .unwrap_or_else(|e| panic!("{} invalid: {e}", aligner.name()));
        }
    }
}

#[test]
fn genasm_cost_bounded_by_exact_distance() {
    let (_genome, tasks) = tiny_workload();
    let subset = &tasks[..tasks.len().min(12)];
    let genasm = genasm_core::GenAsmAligner::improved();
    let myers = MyersAligner::new();
    let mut good = 0;
    let mut near_optimal = 0;
    for t in subset {
        let g = genasm.align(&t.query, &t.target).unwrap();
        let opt = myers.align(&t.query, &t.target).unwrap();
        assert!(
            g.edit_distance >= opt.edit_distance,
            "GenASM beat the optimum"
        );
        // "Good" = plausibly the true locus (distance proportional to
        // the 10% error rate); off-target repeat hits are excluded —
        // there the greedy heuristic is expected to produce
        // valid-but-suboptimal alignments.
        if opt.edit_distance * 6 < t.query.len() {
            good += 1;
            let excess = g.edit_distance - opt.edit_distance;
            if excess * 20 <= opt.edit_distance {
                near_optimal += 1;
            }
        }
    }
    assert!(good >= 4, "workload produced too few true-locus candidates");
    // The windowed heuristic stays within a few percent of the optimum
    // on most realistic candidates, but it has a known tail: a dense
    // error cluster can make a greedy window commit a path the later
    // windows never re-synchronize from (the accuracy experiment A2
    // quantifies the distribution). Assert the bulk, tolerate the tail.
    assert!(
        near_optimal * 4 >= good * 3,
        "only {near_optimal}/{good} true-locus candidates within 5% of optimum"
    );
}

#[test]
fn gpu_and_cpu_agree_on_pipeline_candidates() {
    let (_genome, tasks) = tiny_workload();
    let subset: Vec<AlignTask> = tasks.into_iter().take(6).collect();
    let gpu = GpuAligner::improved(Device::a6000());
    let report = gpu.align_batch(&subset).unwrap();
    for (t, r) in subset.iter().zip(&report.results) {
        let mut stats = MemStats::new();
        let cpu = genasm_core::align_with_stats(
            &t.query,
            &t.target,
            &GenAsmConfig::improved(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(r.alignment.cigar, cpu.cigar, "GPU/CPU divergence");
    }
}

#[test]
fn memory_reductions_materialize_on_real_candidates() {
    let (_genome, tasks) = tiny_workload();
    let subset = &tasks[..tasks.len().min(10)];
    let mut base = MemStats::new();
    let mut imp = MemStats::new();
    for t in subset {
        genasm_core::align_with_stats(&t.query, &t.target, &GenAsmConfig::baseline(), &mut base)
            .unwrap();
        genasm_core::align_with_stats(&t.query, &t.target, &GenAsmConfig::improved(), &mut imp)
            .unwrap();
    }
    let footprint = base.footprint_reduction_vs(&imp);
    let accesses = base.access_reduction_vs(&imp);
    // The paper's figures are 24x and 12x; the exact value depends on
    // the candidate mix, but anything below these floors means an
    // improvement stopped working.
    assert!(
        footprint > 8.0,
        "footprint reduction collapsed: {footprint:.1}x"
    );
    assert!(accesses > 4.0, "access reduction collapsed: {accesses:.1}x");
    assert_eq!(base.windows, imp.windows);
}

#[test]
fn pipeline_is_deterministic() {
    let (ga, ta) = tiny_workload();
    let (gb, tb) = tiny_workload();
    assert_eq!(ga.seq, gb.seq);
    assert_eq!(ta.len(), tb.len());
    for (x, y) in ta.iter().zip(&tb) {
        assert_eq!(x.query, y.query);
        assert_eq!(x.ref_pos, y.ref_pos);
    }
}

/// FNV-1a, 64-bit: the digest the cross-commit golden below pins.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The byte-identity suites compare configurations of *one* commit, so
/// a kernel change that moved every CIGAR (or every counter) the same
/// way would pass them all. This pins one workload's pipeline output,
/// as TSV and as PAF, and its engine counters across commits: three
/// unequal contigs, 9% CLR error, a few hundred windows with final
/// windows among them. A change that moves any literal must say why.
#[test]
fn pipeline_output_matches_the_cross_commit_golden() {
    use genasm_pipeline::{run_pipeline, AlignRecord, CpuBackend, PipelineConfig, ReadInput};

    let mut reference = align_core::Reference::new();
    let mut reads = Vec::new();
    for (ci, &len) in readsim::contig_lengths(90_000, 3).iter().enumerate() {
        let genome = Genome::generate(&GenomeConfig::human_like(len, 41 + ci as u64));
        let pool = simulate_reads(
            &genome,
            &ReadConfig {
                count: 4,
                length: 1_200 >> ci,
                errors: ErrorModel::pacbio_clr(0.09),
                rc_fraction: 0.5,
                seed: 97 + ci as u64,
            },
        );
        reference.push(&format!("chr{}", ci + 1), genome.seq);
        reads.extend(pool.into_iter().map(|r| ReadInput {
            name: format!("c{ci}r{}", r.id),
            seq: r.seq,
        }));
    }
    let n_reads = reads.len();
    let (contigs, originals) = (reference.clone(), reads.clone());

    let mut out = String::new();
    let mut paf = Vec::new();
    let metrics = run_pipeline(
        reads.into_iter().map(Ok::<_, std::convert::Infallible>),
        reference,
        &CpuBackend::improved(),
        &PipelineConfig::default(),
        |rec| {
            out.push_str(&rec.to_tsv());
            out.push('\n');
            paf.push(rec.to_paf());
            Ok(())
        },
    )
    .expect("pipeline run failed");
    let engine = metrics.engine.expect("the cpu backend reports its engine");
    assert!(engine.windows >= 200, "{engine:?}");
    assert!(
        out.lines().count() >= n_reads,
        "every read aligns somewhere"
    );

    assert_eq!(
        format!("{:016x}", fnv1a(out.as_bytes())),
        "fe02be30d0964ccb",
        "pipeline TSV output moved"
    );
    let paf_text: String = paf.iter().map(|line| format!("{line}\n")).collect();
    assert_eq!(
        format!("{:016x}", fnv1a(paf_text.as_bytes())),
        "1fa09b1733c321ae",
        "pipeline PAF output moved"
    );
    assert_eq!(
        engine.to_json(),
        r#"{"windows":234,"rows_computed":1919,"cells_computed":122140,"table_words":78670,"table_stores":78670,"table_loads":9664,"scratch_stores":122140,"scratch_loads":213223,"band_cells_skipped":832450,"windows_early_terminated":234,"peak_band_rows":37}"#,
        "engine counters moved"
    );

    // The digests say the bytes did not move, not that they are right:
    // read every emitted row back and hold it against the sequences it
    // names and an exact aligner.
    let mut optimal = 0;
    for line in &paf {
        let rec = AlignRecord::parse_paf(line).expect("emitted PAF parses");
        let contig = contigs
            .contigs()
            .iter()
            .find(|c| *c.name == *rec.tname)
            .expect("record names a contig");
        let target = contig.seq.slice(rec.tstart, rec.tend - rec.tstart);
        let read = &originals
            .iter()
            .find(|r| r.name == rec.qname)
            .expect("record names a read")
            .seq;
        let query = if rec.reverse {
            read.reverse_complement()
        } else {
            read.clone()
        };
        rec.cigar
            .validate(&query, &target)
            .unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(rec.edit_distance, rec.cigar.edit_cost(), "{line}");
        let exact = align_core::doubling_nw_distance(&query, &target);
        assert!(rec.edit_distance >= exact, "beat the optimum: {line}");
        optimal += usize::from(rec.edit_distance == exact);
    }
    println!("{optimal}/{} records at the exact distance", paf.len());
}
