//! The single-threaded layer replay: parse → index → map → align →
//! format over a fixed prefix of the workload's own reads, each step
//! timed around the crate's public call and recorded as a span. Prefix
//! sizes are fixed by the workload, never by the clock, so the counts
//! it reports repeat exactly.

use std::time::{Duration, Instant};

use align_core::{banded_nw_distance, AlignTask, Alignment, GlobalAligner};
use baselines::{Ksw2Aligner, MyersAligner};
use genasm_core::{
    align_window_fresh, align_with_workspace, align_with_workspace_hinted, AlignWorkspace,
    GenAsmConfig, Improvements, MemStats, MIN_HINT_K,
};
use genasm_pipeline::{AlignRecord, Backend, CpuBackend};
use mapper::ShardedIndex;
use readsim::{read_multi_fastx, FastxReader};

use crate::oneshot::{GpuProbe, GpuTotals};
use crate::spans::{lane, SpanId, Spans};
use crate::workload::{window_inputs, Workload, SHARDS, THREADS};

/// Named values, in emission order.
pub type Metrics = Vec<(String, f64)>;

/// The prefix the quadratic and unimproved comparisons run on stops at
/// this many tasks or this many query bases, whichever comes first.
const PREFIX_TASKS: usize = 200;
const PREFIX_QUERY_BASES: usize = 200_000;
/// KSW2 is quadratic: its prefix also stops at this many DP cells.
const KSW2_CELLS: usize = 400_000_000;
/// So is the exact optimum the alignments are held against.
const OPTIMUM_QUERY_BASES: usize = 80_000;

/// What the replay found, beyond its metrics.
pub struct Replay {
    pub metrics: Metrics,
    /// Seconds of single-threaded work per unit, to scale to a pass.
    pub parse_s: f64,
    pub index_build_s: f64,
    pub map_s_per_read: f64,
    pub align_s_per_task: f64,
    pub format_s_per_record: f64,
    /// Checks that failed (empty when all passed).
    pub errors: Vec<String>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `a / b`, or 0 when there was nothing to divide by.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Name a batch of values.
pub(crate) fn named<const N: usize>(values: [(&str, f64); N]) -> Metrics {
    values
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect()
}

/// Time `f`, record it as a span under `parent`.
fn timed<T>(
    spans: &Spans,
    name: &'static str,
    parent: SpanId,
    id: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    spans.record(name, lane::REPLAY, Some(parent), id, start, end);
    (out, end - start)
}

/// Leading tasks, at most [`PREFIX_TASKS`], until `budget` of `cost`
/// is spent (always at least one).
fn prefix_len(tasks: &[AlignTask], budget: usize, cost: impl Fn(&AlignTask) -> usize) -> usize {
    let mut spent = 0;
    tasks
        .iter()
        .take(PREFIX_TASKS)
        .take_while(|t| {
            let fits = spent < budget;
            spent += cost(t);
            fits
        })
        .count()
}

/// Cut `tasks` into batches the way `BatchBuilder` does: a batch is
/// flushed as soon as its bases reach the target.
pub fn cut_batches(tasks: &[AlignTask], target_bases: usize) -> Vec<&[AlignTask]> {
    let mut batches = Vec::new();
    let (mut start, mut bases) = (0, 0);
    for (i, t) in tasks.iter().enumerate() {
        bases += t.bases();
        if bases >= target_bases {
            batches.push(&tasks[start..=i]);
            start = i + 1;
            bases = 0;
        }
    }
    if start < tasks.len() {
        batches.push(&tasks[start..]);
    }
    batches
}

/// Run the replay over `w`.
pub fn replay(w: &Workload, spans: &Spans) -> Replay {
    let spec = &w.spec;
    let root = spans.begin("replay", lane::REPLAY, None, 0);
    let mut m: Metrics = Vec::new();
    let mut errors = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));

    // readsim: parse every byte the program would be handed.
    let (reference, t_ref) = timed(spans, "readsim.parse_reference", root, 0, || {
        read_multi_fastx(&w.fasta[..]).expect("the harness wrote this FASTA")
    });
    let (parsed, t_reads) = timed(spans, "readsim.parse_reads", root, 0, || {
        FastxReader::new(&w.fastq[..]).filter(|r| r.is_ok()).count()
    });
    if parsed != w.reads.len() {
        errors.push(format!("parsed {parsed} of {} reads", w.reads.len()));
    }
    let parse_s = secs(t_ref + t_reads);
    put(
        "readsim.parse_mb_per_s",
        ratio((w.fasta.len() + w.fastq.len()) as f64 / 1e6, parse_s),
    );

    // mapper: index build, then the candidate stages per read.
    let (index, t_index) = timed(spans, "mapper.index_build", root, 0, || {
        ShardedIndex::build(reference, SHARDS, 256)
    });
    put("mapper.index_build_s", secs(t_index));
    let params = spec.params();
    let n_reads = spec.replay_reads.min(w.reads.len());
    let mut tasks: Vec<AlignTask> = Vec::new();
    let (mut t_map, mut t_anchors, mut t_chains) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut anchors, mut chains, mut candidates) = (0u64, 0u64, 0u64);
    for (i, read) in w.reads[..n_reads].iter().enumerate() {
        let map = spans.begin("mapper.read", lane::REPLAY, Some(root), i as u64);
        let ((read_tasks, stats), d) =
            timed(spans, "mapper.candidates_for_read", map, i as u64, || {
                index.candidates_for_read_stats(i as u32, &read.seq, &params)
            });
        t_map += d;
        // The two probes below repeat part of that work, to split it.
        t_anchors += timed(spans, "mapper.collect_anchors", map, i as u64, || {
            index.collect_anchors(&read.seq).len()
        })
        .1;
        t_chains += timed(spans, "mapper.chains_for_read", map, i as u64, || {
            index.chains_for_read(&read.seq, &params.chain).len()
        })
        .1;
        spans.end(map);
        anchors += stats.anchors;
        chains += stats.chains;
        candidates += stats.candidates;
        tasks.extend(read_tasks);
    }
    let per_read = |v: f64| ratio(v, n_reads as f64);
    put("mapper.us_per_read", per_read(secs(t_map) * 1e6));
    put(
        "mapper.anchors_us_per_read",
        per_read(secs(t_anchors) * 1e6),
    );
    put(
        "mapper.chain_us_per_read",
        per_read(secs(t_chains.saturating_sub(t_anchors)) * 1e6),
    );
    put("mapper.anchors_per_read", per_read(anchors as f64));
    put("mapper.chains_per_read", per_read(chains as f64));
    put("mapper.candidates_per_read", per_read(candidates as f64));

    // genasm-core: every task of those reads on one workspace.
    let cfg = GenAsmConfig::improved();
    let mut ws = AlignWorkspace::with_capacity(cfg.w);
    let mut alignments: Vec<Option<Alignment>> = Vec::with_capacity(tasks.len());
    let mut task_time: Vec<Duration> = Vec::with_capacity(tasks.len());
    for (i, t) in tasks.iter().enumerate() {
        let (aln, d) = timed(spans, "genasm-core.align", root, i as u64, || {
            let hint = t.max_edits.map(|e| e as usize);
            align_with_workspace_hinted(&t.query, &t.target, &cfg, hint, &mut ws).ok()
        });
        alignments.push(aln);
        task_time.push(d);
    }
    let core = ws.take_stats();
    let t_align: Duration = task_time.iter().sum();
    let windows = core.windows as f64;
    put(
        "genasm-core.ns_per_window",
        ratio(secs(t_align) * 1e9, windows),
    );
    put(
        "genasm-core.mcells_per_s",
        ratio(core.cells_computed as f64 / 1e6, secs(t_align)),
    );
    put("genasm-core.rows_per_window", core.mean_rows_per_window());
    put(
        "genasm-core.skipped_cell_share",
        ratio(
            core.band_cells_skipped as f64,
            (core.band_cells_skipped + core.cells_computed) as f64,
        ),
    );
    put(
        "genasm-core.rescued_task_share",
        ratio(core.windows_rescued as f64, tasks.len() as f64),
    );
    put(
        "genasm-core.table_bytes_per_window",
        core.mean_table_bytes_per_window(),
    );
    put(
        "genasm-core.table_accesses_per_window",
        ratio(core.table_accesses() as f64, windows),
    );
    let unaligned = alignments.iter().filter(|a| a.is_none()).count();
    if unaligned > 0 {
        errors.push(format!("{unaligned} replay tasks found no alignment"));
    }

    // The paper's footprint and access ratios, and optimality, on a
    // prefix: improved and unimproved both at the full budget, as the
    // paper compares them.
    let budget = |full: usize| full / spec.budget_div;
    let prefix = &tasks[..prefix_len(&tasks, budget(PREFIX_QUERY_BASES), |t| t.query.len())];
    let full_budget = |cfg: &GenAsmConfig, name: &'static str| -> MemStats {
        let mut ws = AlignWorkspace::with_capacity(cfg.w);
        for (i, t) in prefix.iter().enumerate() {
            let _ = timed(spans, name, root, i as u64, || {
                align_with_workspace(&t.query, &t.target, cfg, &mut ws).ok()
            });
        }
        ws.take_stats()
    };
    let improved = full_budget(&cfg, "genasm-core.align_unhinted");
    let unimproved = full_budget(&GenAsmConfig::baseline(), "genasm-core.align_unimproved");
    put(
        "genasm-core.footprint_ratio_vs_unimproved",
        unimproved.footprint_reduction_vs(&improved),
    );
    put(
        "genasm-core.access_ratio_vs_unimproved",
        unimproved.access_reduction_vs(&improved),
    );
    // Needleman-Wunsch inside a band as wide as GenASM's own edit
    // count is exact, because the optimum cannot exceed that count.
    let n_optimum = prefix_len(prefix, budget(OPTIMUM_QUERY_BASES), |t| t.query.len());
    let mut optimal = 0usize;
    for (i, (t, aln)) in prefix[..n_optimum].iter().zip(&alignments).enumerate() {
        let Some(a) = aln else { continue };
        let (best, _) = timed(
            spans,
            "align-core.banded_nw_distance",
            root,
            i as u64,
            || banded_nw_distance(&t.query, &t.target, a.edit_distance),
        );
        match best {
            Some(best) if best == a.edit_distance => optimal += 1,
            Some(_) => {}
            None => errors.push(format!(
                "task {i}: no alignment of {} edits exists, yet one was reported",
                a.edit_distance
            )),
        }
    }
    put(
        "genasm-core.optimal_share",
        ratio(optimal as f64, n_optimum as f64),
    );

    for (name, ns) in window_cases() {
        put(&format!("genasm-core.window_ns.{name}"), ns);
    }

    // genasm-cpu: the same tasks through the batch aligner.
    let batches = cut_batches(&tasks, spec.pipeline_config().batch_bases);
    let cpu = CpuBackend::improved();
    let mut t_batches = Duration::ZERO;
    let mut batched: Vec<Option<Alignment>> = Vec::with_capacity(tasks.len());
    for (i, batch) in batches.iter().enumerate() {
        let (out, d) = timed(spans, "genasm-cpu.align_batch", root, i as u64, || {
            cpu.align_batch(batch)
        });
        t_batches += d;
        match out {
            Ok(out) => batched.extend(out),
            Err(e) => errors.push(e.to_string()),
        }
    }
    if batched != alignments {
        errors.push("CpuBackend::align_batch and the single-threaded kernel disagree".into());
    }
    put(
        "genasm-cpu.tasks_per_s",
        ratio(tasks.len() as f64, secs(t_batches)),
    );
    put(
        "genasm-cpu.parallel_efficiency",
        ratio(secs(t_align), secs(t_batches) * THREADS as f64),
    );

    // baselines: the paper's comparison denominators, on the prefix.
    let genasm_s = |n: usize| secs(task_time[..n].iter().sum());
    let baseline = |n: usize, name: &'static str, aligner: &dyn GlobalAligner| -> f64 {
        let d: Duration = prefix[..n]
            .iter()
            .enumerate()
            .map(|(i, t)| {
                timed(spans, name, root, i as u64, || {
                    aligner.align(&t.query, &t.target).is_ok()
                })
                .1
            })
            .sum();
        secs(d)
    };
    let n = prefix.len();
    let edlib_s = baseline(n, "baselines.edlib", &MyersAligner::new());
    put("baselines.edlib_tasks_per_s", ratio(n as f64, edlib_s));
    put("baselines.genasm_over_edlib", ratio(edlib_s, genasm_s(n)));
    let n_ksw2 = prefix_len(prefix, budget(KSW2_CELLS), |t| {
        t.query.len() * t.target.len()
    });
    let ksw2_s = baseline(n_ksw2, "baselines.ksw2", &Ksw2Aligner::new());
    put("baselines.ksw2_tasks_per_s", ratio(n_ksw2 as f64, ksw2_s));
    put(
        "baselines.genasm_over_ksw2",
        ratio(ksw2_s, genasm_s(n_ksw2)),
    );

    // pipeline: what the sink does per record.
    let (out_bytes, t_format) = timed(spans, "pipeline.format_records", root, 0, || {
        tasks
            .iter()
            .zip(&alignments)
            .filter_map(|(t, a)| Some((t, a.as_ref()?)))
            .map(|(t, a)| {
                let (tname, contig) = &w.contigs[t.contig as usize];
                let qname = crate::workload::read_name(t.read_id as usize);
                AlignRecord::new(
                    &qname,
                    t.query.len(),
                    tname,
                    contig.len(),
                    t.ref_pos,
                    t.target.len(),
                    t.reverse,
                    a,
                )
                .to_tsv()
                .len()
            })
            .sum::<usize>()
    });
    std::hint::black_box(out_bytes);
    let records = alignments.iter().flatten().count();
    put(
        "pipeline.format_ns_per_record",
        ratio(secs(t_format) * 1e9, records as f64),
    );

    // The simulated GPU over the prefix (on `gpu-sim-long` the traced
    // pass reports the whole run instead).
    let gpu = GpuProbe::default();
    for (i, batch) in cut_batches(prefix, spec.pipeline_config().batch_bases)
        .iter()
        .enumerate()
    {
        let (out, _) = timed(spans, "genasm-gpu.align_batch", root, i as u64, || {
            gpu.align_batch(batch)
        });
        if let Err(e) = out {
            errors.push(e.to_string());
        }
    }
    m.extend(gpu_metrics(&gpu.totals()));

    spans.end(root);
    Replay {
        metrics: m,
        parse_s,
        index_build_s: secs(t_index),
        map_s_per_read: ratio(secs(t_map), n_reads as f64),
        align_s_per_task: ratio(secs(t_align), tasks.len() as f64),
        format_s_per_record: ratio(secs(t_format), records as f64),
        errors,
    }
}

/// The `genasm-gpu.*` and `gpu-sim.*` metrics of a set of launches.
/// Everything but the two host-time values is simulated and exact.
pub fn gpu_metrics(t: &GpuTotals) -> Metrics {
    let tasks = t.tasks as f64;
    let c = &t.counters;
    named([
        ("genasm-gpu.host_us_per_task", ratio(t.host_ms * 1e3, tasks)),
        ("genasm-gpu.shared_bytes_per_block", t.shared_bytes as f64),
        ("gpu-sim.modelled_device_ms", t.modelled_ms),
        (
            "gpu-sim.modelled_device_us_per_task",
            ratio(t.modelled_ms * 1e3, tasks),
        ),
        ("gpu-sim.compute_ms", t.compute_ms),
        ("gpu-sim.bandwidth_ms", t.bandwidth_ms),
        ("gpu-sim.latency_ms", t.latency_ms),
        ("gpu-sim.blocks_per_sm", t.blocks_per_sm as f64),
        (
            "gpu-sim.global_bytes_per_task",
            ratio(c.global_bytes as f64, tasks),
        ),
        (
            "gpu-sim.shared_accesses_per_task",
            ratio(c.shared_accesses() as f64, tasks),
        ),
        (
            "gpu-sim.warp_steps_per_task",
            ratio(c.warp_steps as f64, tasks),
        ),
        (
            "gpu-sim.host_ns_per_warp_step",
            ratio(t.host_ms * 1e6, c.warp_steps as f64),
        ),
    ])
}

/// The 13 single-window cases of the `window_engine` bench: ns per
/// `align_window_fresh` call, the fastest of five timed rounds.
fn window_cases() -> Vec<(String, f64)> {
    let full = GenAsmConfig::improved();
    let unimproved = GenAsmConfig {
        improvements: Improvements::NONE,
        ..full
    };
    let time = |f: &mut dyn FnMut()| -> f64 {
        const ITERS: u32 = 200;
        for _ in 0..ITERS {
            f();
        }
        (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..ITERS {
                    f();
                }
                t.elapsed().as_nanos() as f64 / ITERS as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let mut out = Vec::new();
    for errors in [0usize, 4, 16, 48] {
        let (pm, trev) = window_inputs(errors, 5);
        let banded = GenAsmConfig {
            k: (errors + 8).clamp(MIN_HINT_K, full.k),
            ..full
        };
        for (label, cfg) in [
            ("full", &full),
            ("banded", &banded),
            ("unimproved", &unimproved),
        ] {
            let ns = time(&mut || {
                let mut stats = MemStats::new();
                let r = align_window_fresh(&pm, &trev, cfg, 40, false, &mut stats);
                std::hint::black_box(r.expect("a 64x64 window always aligns").d_star);
            });
            out.push((format!("{label}-{errors}err"), ns));
        }
    }
    // 64-base pattern against an 8-base text at k = 40: rejected by
    // the pre-flight before any row is computed.
    let (pm, _) = window_inputs(0, 5);
    let cfg = GenAsmConfig { k: 40, ..full };
    let ns = time(&mut || {
        let mut stats = MemStats::new();
        let r = align_window_fresh(&pm, &[0u8; 8], &cfg, 40, false, &mut stats);
        std::hint::black_box(r.is_err());
    });
    out.push(("hopeless".to_string(), ns));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use align_core::Seq;

    fn task(len: usize) -> AlignTask {
        let s = Seq::from_ascii(&b"ACGT".repeat(len / 4)).unwrap();
        AlignTask::new(0, 0, s.clone(), s)
    }

    #[test]
    fn batches_flush_when_they_reach_the_target() {
        let tasks: Vec<AlignTask> = (0..5).map(|_| task(100)).collect(); // 200 bases each
        let batches = cut_batches(&tasks, 400);
        assert_eq!(
            batches.iter().map(|b| b.len()).collect::<Vec<_>>(),
            [2, 2, 1]
        );
        assert_eq!(cut_batches(&tasks, 1).len(), 5);
        assert!(cut_batches(&[], 400).is_empty());
    }

    #[test]
    fn prefix_stops_at_the_base_budget() {
        let tasks: Vec<AlignTask> = (0..300).map(|_| task(400)).collect();
        let bases = |t: &AlignTask| t.query.len();
        assert_eq!(prefix_len(&tasks, PREFIX_QUERY_BASES, bases), PREFIX_TASKS);
        let long: Vec<AlignTask> = (0..300).map(|_| task(100_000)).collect();
        assert_eq!(prefix_len(&long, PREFIX_QUERY_BASES, bases), 2);
        assert_eq!(prefix_len(&long, 1, bases), 1);
        assert_eq!(prefix_len(&[], 1, bases), 0);
    }
}
