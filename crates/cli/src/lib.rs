//! # genasm-cli
//!
//! The `genasm` command-line tool: the suite's functionality packaged
//! the way a downstream user consumes it.
//!
//! ```text
//! genasm simulate --genome-len 500000 --reads 20 --read-len 5000 \
//!                 --error 0.10 --seed 7 --ref ref.fa --out reads.fq
//! genasm map      --ref ref.fa --reads reads.fq
//! genasm align    --ref ref.fa --reads reads.fq [--aligner genasm|genasm-base|edlib|ksw2]
//! genasm pipeline --ref ref.fa --reads reads.fq [--backend cpu|gpu-sim|edlib|ksw2]
//! genasm serve    --ref ref.fa --listen unix:/tmp/genasm.sock
//! genasm submit   --to unix:/tmp/genasm.sock --reads reads.fq
//! genasm ctl      ping|stats|stats-json|stats-prom|shutdown --to unix:/tmp/genasm.sock
//! genasm filter   --pattern GATTACA --text ref.fa -k 2
//! ```
//!
//! `align` is the one-shot batch path (load everything, align
//! everything); `pipeline` streams the reads through the bounded-queue
//! pipeline in [`genasm_pipeline`]; `serve` keeps that pipeline
//! resident behind a socket ([`genasm_server`]) and `submit` is its
//! client. All of them emit the same records (`--format tsv|paf`) and
//! produce **byte-identical output** for the same workload — the
//! record formatting and per-read ordering live in one place,
//! [`genasm_pipeline::AlignRecord`]. All subcommands are plain
//! functions over `Write` so the integration tests drive them without
//! spawning processes (`serve` blocks until a client sends
//! `ctl shutdown`, then drains gracefully).

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

use align_core::{Reference, Seq};
use genasm_pipeline::{
    disposition, AlignRecord, Backend, BackendKind, CpuBackend, ExplainRecord, ExplainSink,
    OutputFormat, PipelineConfig, PipelineMetrics, ReadInput, ReadProvenance, ServiceConfig,
    TaskExplain, TraceRecorder,
};
use genasm_server::client::SubmitOptions;
use genasm_server::protocol::{StatsFormat, Verb, ERR_PREFIX};
use genasm_server::{Endpoint, Server, ServerConfig};
use mapper::{CandidateParams, ShardedIndex};
use readsim::{
    contig_lengths, read_fastx, read_multi_fastx, read_single_fastx, reads_to_records,
    simulate_reads, write_fasta, write_fastq, ErrorModel, FastxReader, FastxRecord, Genome,
    GenomeConfig, ReadConfig,
};

/// CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code to use.
    pub code: i32,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 2,
        }
    }

    fn runtime(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 1,
        }
    }
}

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// The flags each subcommand reads, space-separated — all [`run`] lets
/// through to it and all [`USAGE`] has to list. (`ctl top` is the one
/// action of `ctl` with flags of its own.)
pub const FLAGS: [(&str, &str); 9] = [
    (
        "simulate",
        "genome-len reads read-len contigs error seed ref out",
    ),
    ("map", "ref reads max-per-read threads"),
    (
        "align",
        "ref reads aligner max-per-read threads format explain",
    ),
    (
        "pipeline",
        "ref reads backend batch-bases queue-depth max-per-read threads format metrics trace \
         explain",
    ),
    (
        "serve",
        "ref listen backend format max-sessions linger-ms batch-bases queue-depth max-per-read \
         threads shards metrics trace explain session-output-cap session-inflight-reads \
         idle-timeout-ms",
    ),
    ("submit", "to reads backend format explain"),
    ("ctl", "to"),
    ("ctl top", "to interval-ms frames"),
    ("filter", "pattern text k"),
];

/// Simple flag parser: `--name value` pairs, no positionals.
struct Flags {
    /// The subcommand's row of [`FLAGS`].
    known: &'static str,
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parse the arguments of subcommand `cmd`. A flag its [`FLAGS`]
    /// row does not name is a usage error: a mistyped flag must not
    /// quietly run the defaults.
    fn parse(cmd: &str, args: &[String]) -> Result<Flags, CliError> {
        let (_, known) = FLAGS
            .iter()
            .find(|(name, _)| *name == cmd)
            .expect("every subcommand has a FLAGS row");
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) else {
                return Err(CliError::usage(format!("unexpected argument {a:?}")));
            };
            if !known.split(' ').any(|flag| flag == name) {
                return Err(CliError::usage(format!(
                    "unknown flag --{name} for `genasm {cmd}`; valid flags are --{}",
                    known.replace(' ', ", --")
                )));
            }
            let value = it
                .next()
                .ok_or_else(|| CliError::usage(format!("flag --{name} needs a value")))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags { known, pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.known.split(' ').any(|flag| flag == name),
            "--{name} is read but not in FLAGS"
        );
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn req(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::usage(format!("missing required flag --{name}")))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("bad value for --{name}: {v:?}"))),
        }
    }
}

/// Top-level dispatch. `args` excludes the program name.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::usage(USAGE));
    };
    match cmd.as_str() {
        "simulate" => cmd_simulate(&Flags::parse(cmd, rest)?, out),
        "map" => cmd_map(&Flags::parse(cmd, rest)?, out),
        "align" => cmd_align(&Flags::parse(cmd, rest)?, out),
        "pipeline" => cmd_pipeline(&Flags::parse(cmd, rest)?, out),
        "serve" => cmd_serve(&Flags::parse(cmd, rest)?, out),
        "submit" => cmd_submit(&Flags::parse(cmd, rest)?, out),
        "ctl" => cmd_ctl(rest, out),
        "filter" => cmd_filter(&Flags::parse(cmd, rest)?, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(io_err)?;
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown subcommand {other:?}\n{USAGE}"
        ))),
    }
}

/// The usage text.
pub const USAGE: &str = "usage:
  genasm simulate --genome-len N --reads N --read-len N [--contigs N] [--error R] [--seed S]
                  --ref FILE --out FILE
  genasm map      --ref FILE --reads FILE [--max-per-read N] [--threads N]
  genasm align    --ref FILE --reads FILE [--aligner genasm|genasm-base|edlib|ksw2] [--max-per-read N]
                  [--threads N] [--format tsv|paf] [--explain FILE]
  genasm pipeline --ref FILE --reads FILE [--backend cpu|gpu-sim|edlib|ksw2] [--batch-bases N]
                  [--queue-depth N] [--max-per-read N] [--threads N] [--format tsv|paf]
                  [--metrics off|on|json] [--trace FILE] [--explain FILE]
  genasm serve    --ref FILE --listen ENDPOINT [--backend cpu|gpu-sim|edlib|ksw2] [--format tsv|paf]
                  [--max-sessions N] [--linger-ms N] [--batch-bases N] [--queue-depth N]
                  [--max-per-read N] [--threads N] [--shards N]
                  [--metrics off|on|json] [--trace FILE] [--explain FILE]
                  [--session-output-cap BYTES] [--session-inflight-reads N] [--idle-timeout-ms N]
  genasm submit   --to ENDPOINT --reads FILE [--backend cpu|gpu-sim|edlib|ksw2] [--format tsv|paf]
                  [--explain FILE]
  genasm ctl      ping|stats|stats-json|stats-prom|shutdown --to ENDPOINT
  genasm ctl      top --to ENDPOINT [--interval-ms N] [--frames N]
  genasm filter   --pattern SEQ --text FILE [-k N]

ENDPOINT is unix:PATH, tcp:HOST:PORT, or HOST:PORT. `serve` runs until a
client sends `genasm ctl shutdown`; record lines from `submit` are
byte-identical to `align` on the same reads (status goes to stderr).
A flag a subcommand does not read is an error (exit 2).
References may be multi-contig FASTA: one minimizer index covers every
contig, records report contig names and contig-local coordinates, and
no chain spans two contigs. `serve --shards N` (N >= 1) is accepted and
ignored.
`--metrics json` prints a single-line machine-readable snapshot to
stderr; `--trace FILE` records a Chrome trace-event timeline (open in
Perfetto or about://tracing). `--explain FILE` streams one
genasm-explain/v2 JSON line per read (funnel counts, edits per
candidate, final disposition) without changing record output.
`--threads N` sizes the map stage and each batch's fan-out; the CPU
backends run a second batch beside the first, so the next batch starts
on the core the last one's longest task leaves idle (`--metrics on`
shows the mean batches in flight). References over 2^32 - 1 bases are
refused.
`ctl stats-json` / `ctl stats-prom` print a live server snapshot as
JSON / Prometheus text on stdout; `ctl top` streams one
genasm-stat-frame/v1 JSON object per line (every --interval-ms,
stopping after --frames frames; 0 streams until server shutdown).";

fn io_err(e: std::io::Error) -> CliError {
    CliError::runtime(format!("I/O error: {e}"))
}

fn load_fastx(path: &str) -> Result<Vec<FastxRecord>, CliError> {
    let f = File::open(path).map_err(|e| CliError::runtime(format!("cannot open {path}: {e}")))?;
    read_fastx(BufReader::new(f)).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

/// Load a (possibly multi-contig) reference: every FASTA record
/// becomes one named contig. Zero records, duplicate contig names and
/// more than [`mapper::MAX_REFERENCE_BASES`] bases in all
/// ([`mapper::ReferenceTooLong`]) are errors.
fn load_reference(path: &str) -> Result<Reference, CliError> {
    let f = File::open(path).map_err(|e| CliError::runtime(format!("cannot open {path}: {e}")))?;
    let reference = read_multi_fastx(BufReader::new(f))
        .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    ShardedIndex::check_len(reference.total_len())
        .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    Ok(reference)
}

/// Load an input that must be a single sequence (the `filter` text).
/// Multi-record FASTA is rejected with an error naming every extra
/// record.
fn load_single_sequence(path: &str) -> Result<(String, Seq), CliError> {
    let f = File::open(path).map_err(|e| CliError::runtime(format!("cannot open {path}: {e}")))?;
    let rec = read_single_fastx(BufReader::new(f))
        .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    Ok((rec.name, rec.seq))
}

/// Apply `--threads N` to the global Rayon pool (0 = all cores). Only
/// acts when the flag is present, so plain invocations keep the
/// default pool.
fn configure_threads(flags: &Flags) -> Result<(), CliError> {
    if flags.get("threads").is_none() {
        return Ok(());
    }
    let n: usize = flags.num("threads", 0)?;
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .map_err(|e| CliError::runtime(format!("cannot size thread pool: {e}")))
}

fn cmd_simulate(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let genome_len: usize = flags.num("genome-len", 500_000)?;
    let n_reads: usize = flags.num("reads", 20)?;
    let read_len: usize = flags.num("read-len", 5_000)?;
    let error: f64 = flags.num("error", 0.10)?;
    let seed: u64 = flags.num("seed", 42)?;
    let contigs: usize = flags.num("contigs", 1)?;
    if contigs == 0 {
        return Err(CliError::usage("--contigs must be at least 1"));
    }
    let ref_path = flags.req("ref")?;
    let out_path = flags.req("out")?;

    if contigs == 1 {
        // The historical single-contig shape, byte-for-byte.
        let genome = Genome::generate(&GenomeConfig::human_like(genome_len, seed));
        let reads = simulate_reads(
            &genome,
            &ReadConfig {
                count: n_reads,
                length: read_len,
                errors: ErrorModel::pacbio_clr(error),
                rc_fraction: 0.5,
                seed: seed ^ 0x5eed,
            },
        );
        let f = File::create(ref_path).map_err(io_err)?;
        write_fasta(
            BufWriter::new(f),
            &[FastxRecord::fasta("synthetic_ref", genome.seq.clone())],
        )
        .map_err(io_err)?;
        let f = File::create(out_path).map_err(io_err)?;
        write_fastq(BufWriter::new(f), &reads_to_records(&reads)).map_err(io_err)?;
        writeln!(
            out,
            "wrote {} bp reference to {ref_path} and {} reads to {out_path}",
            genome.seq.len(),
            reads.len()
        )
        .map_err(io_err)?;
        return Ok(());
    }

    // Multi-contig: deliberately *unequal* contig sizes (real
    // assemblies are skewed), one independent genome per contig,
    // reads drawn round-robin so adjacent reads hit different
    // contigs. Read names encode the source contig and truth
    // coordinates so downstream tests can check contig fidelity.
    let lens = contig_lengths(genome_len, contigs);
    let mut ref_records = Vec::with_capacity(contigs);
    let mut pools = Vec::with_capacity(contigs);
    for (ci, &len) in lens.iter().enumerate() {
        if len < 2 * read_len + 2 {
            return Err(CliError::usage(format!(
                "contig {} would be {len} bases — too short for {read_len} bp reads; \
                 raise --genome-len or lower --contigs/--read-len",
                ci + 1
            )));
        }
        let name = format!("chr{}", ci + 1);
        let genome = Genome::generate(&GenomeConfig::human_like(len, seed + ci as u64 * 7919));
        let reads = simulate_reads(
            &genome,
            &ReadConfig {
                count: n_reads.div_ceil(contigs),
                length: read_len,
                errors: ErrorModel::pacbio_clr(error),
                rc_fraction: 0.5,
                seed: (seed ^ 0x5eed) + ci as u64,
            },
        );
        ref_records.push(FastxRecord::fasta(&name, genome.seq.clone()));
        pools.push((name, reads));
    }
    let mut read_records = Vec::with_capacity(n_reads);
    let mut cursors = vec![0usize; contigs];
    for i in 0..n_reads {
        let ci = i % contigs;
        let (name, pool) = &pools[ci];
        let r = &pool[cursors[ci]];
        cursors[ci] += 1;
        let rname = format!(
            "read{i}_{name}_pos{}_{}_{}",
            r.true_start,
            r.true_end,
            if r.reverse { "rev" } else { "fwd" }
        );
        read_records.push(FastxRecord::fastq(&rname, r.seq.clone(), r.qual.clone()));
    }
    let f = File::create(ref_path).map_err(io_err)?;
    write_fasta(BufWriter::new(f), &ref_records).map_err(io_err)?;
    let f = File::create(out_path).map_err(io_err)?;
    write_fastq(BufWriter::new(f), &read_records).map_err(io_err)?;
    writeln!(
        out,
        "wrote {} bp reference ({contigs} contigs) to {ref_path} and {} reads to {out_path}",
        lens.iter().sum::<usize>(),
        read_records.len()
    )
    .map_err(io_err)?;
    Ok(())
}

fn candidate_params(flags: &Flags) -> Result<CandidateParams, CliError> {
    let max_per_read: usize = flags.num("max-per-read", 100)?;
    Ok(CandidateParams {
        max_per_read,
        ..CandidateParams::default()
    })
}

/// `--format tsv|paf` (default tsv) for every record-emitting command.
fn output_format(flags: &Flags) -> Result<OutputFormat, CliError> {
    flags
        .get("format")
        .unwrap_or("tsv")
        .parse()
        .map_err(|e| CliError::usage(format!("{e}")))
}

/// `--metrics off|on|json` for `pipeline` and `serve` (default off):
/// the human-readable summary or one JSON line, both on stderr, so
/// stdout stays byte-identical with and without metrics. Any other
/// value is a usage error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsMode {
    Off,
    Summary,
    Json,
}

fn metrics_mode(flags: &Flags) -> Result<MetricsMode, CliError> {
    match flags.get("metrics") {
        None | Some("off") => Ok(MetricsMode::Off),
        Some("on") => Ok(MetricsMode::Summary),
        Some("json") => Ok(MetricsMode::Json),
        Some(other) => Err(CliError::usage(format!(
            "bad value for --metrics: {other:?}; valid values are off, on, json"
        ))),
    }
}

fn emit_metrics(mode: MetricsMode, metrics: &PipelineMetrics) {
    match mode {
        MetricsMode::Off => {}
        MetricsMode::Summary => eprint!("{}", metrics.summary()),
        MetricsMode::Json => eprintln!("{}", metrics.to_json()),
    }
}

/// `--trace FILE`: record a Chrome trace-event JSON timeline of the
/// run. Returns `None` when the flag is absent (zero overhead).
fn trace_recorder(flags: &Flags) -> Result<Option<std::sync::Arc<TraceRecorder>>, CliError> {
    match flags.get("trace") {
        None => Ok(None),
        Some(path) => TraceRecorder::create(std::path::Path::new(path))
            .map(|t| Some(std::sync::Arc::new(t)))
            .map_err(|e| CliError::runtime(format!("cannot create trace file {path}: {e}"))),
    }
}

/// Close out a `--trace` file: write the closing bracket and flush, so
/// the file is loadable in `about://tracing` / Perfetto.
fn finish_trace(trace: &Option<std::sync::Arc<TraceRecorder>>) -> Result<(), CliError> {
    if let Some(t) = trace {
        t.finish()
            .map_err(|e| CliError::runtime(format!("cannot finalize trace file: {e}")))?;
    }
    Ok(())
}

/// `--explain FILE`: stream one `genasm-explain/v2` JSON line per
/// read — the per-read decision funnel, each candidate's edits, and
/// final disposition. Returns `None` when the flag is
/// absent; record output is byte-identical either way (the sink
/// flushes every line itself, so there is nothing to finalize).
fn explain_sink(flags: &Flags) -> Result<Option<std::sync::Arc<ExplainSink>>, CliError> {
    match flags.get("explain") {
        None => Ok(None),
        Some(path) => {
            let f = File::create(path).map_err(|e| {
                CliError::runtime(format!("cannot create explain file {path}: {e}"))
            })?;
            Ok(Some(std::sync::Arc::new(ExplainSink::new(Box::new(f)))))
        }
    }
}

/// `--backend` for `pipeline` and `serve` (default cpu).
fn backend_kind(flags: &Flags) -> Result<BackendKind, CliError> {
    let name = flags.get("backend").unwrap_or("cpu");
    name.parse().map_err(|e| CliError::usage(format!("{e}")))
}

/// The [`PipelineConfig`] of `pipeline` and `serve`: the batching
/// flags, `--max-per-read`, `--trace` and `--explain`.
fn pipeline_config(flags: &Flags) -> Result<PipelineConfig, CliError> {
    Ok(PipelineConfig {
        batch_bases: flags.num("batch-bases", 256 * 1024)?,
        queue_depth: flags.num("queue-depth", 8)?,
        params: candidate_params(flags)?,
        trace: trace_recorder(flags)?,
        explain: explain_sink(flags)?,
        ..PipelineConfig::default()
    })
}

fn cmd_map(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let reference = load_reference(flags.req("ref")?)?;
    let reads = load_fastx(flags.req("reads")?)?;
    let params = candidate_params(flags)?;
    configure_threads(flags)?;
    let index = ShardedIndex::build(reference, 1, 0);
    for r in &reads {
        let chains = index.chains_for_read(&r.seq, &params.chain);
        for (contig, c) in chains.iter().take(params.max_per_read) {
            // PAF-like: qname qlen qstart qend strand tname tlen tstart tend score anchors
            // tname/tlen/tstart/tend are the *contig* and contig-local
            // coordinates.
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.0}\t{}",
                r.name,
                r.seq.len(),
                c.read_start,
                c.read_end,
                if c.reverse { '-' } else { '+' },
                index.contig_name(*contig),
                index.contig_len(*contig),
                c.ref_start,
                c.ref_end,
                c.score,
                c.anchors
            )
            .map_err(io_err)?;
        }
    }
    Ok(())
}

type MakeBackend = fn() -> Box<dyn Backend>;

/// The `--aligner` choices of `genasm align`: each name and the
/// backend behind it.
const ALIGNERS: [(&str, MakeBackend); 4] = [
    ("genasm", || BackendKind::Cpu.create()),
    ("genasm-base", || Box::new(CpuBackend::baseline())),
    ("edlib", || BackendKind::Edlib.create()),
    ("ksw2", || BackendKind::Ksw2.create()),
];

/// One-shot batch alignment: load every read, generate every candidate,
/// align the whole batch through the chosen backend, print per-read
/// best-first records. This is the reference the streaming `pipeline`
/// subcommand must match byte-for-byte.
fn cmd_align(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let aligner_name = flags.get("aligner").unwrap_or("genasm");
    let (_, create_backend) = ALIGNERS
        .iter()
        .find(|(name, _)| *name == aligner_name)
        .ok_or_else(|| {
            let names: Vec<String> = ALIGNERS.iter().map(|(n, _)| format!("'{n}'")).collect();
            CliError::usage(format!(
                "unknown aligner '{aligner_name}'; valid aligners are {}",
                names.join(", ")
            ))
        })?;
    let format = output_format(flags)?;
    let params = candidate_params(flags)?;
    let explain = explain_sink(flags)?;
    configure_threads(flags)?;
    let reference = load_reference(flags.req("ref")?)?;
    let reads = load_fastx(flags.req("reads")?)?;
    let backend = create_backend();
    // The build consumes the reference: candidate windows are cut from
    // the contigs the index took.
    let index = ShardedIndex::build(reference, 1, 0);

    // Generate all candidates up front (the one-shot shape), keeping
    // each read's funnel counts and mapping time for `--explain`.
    let mut tasks = Vec::new();
    let mut read_of_task = Vec::new();
    let mut funnel = Vec::with_capacity(reads.len());
    for (i, r) in reads.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let (cand, stats) = index.candidates_for_read_stats(i as u32, &r.seq, &params);
        funnel.push((stats, t0.elapsed().as_nanos() as u64));
        for t in cand {
            read_of_task.push(i);
            tasks.push(t);
        }
    }

    let alignments = backend
        .align_batch(&tasks)
        .map_err(|e| CliError::runtime(e.to_string()))?;

    let mut rows: Vec<Vec<AlignRecord>> = reads.iter().map(|_| Vec::new()).collect();
    let mut task_detail: Vec<Vec<TaskExplain>> = reads.iter().map(|_| Vec::new()).collect();
    for ((&i, task), aln) in read_of_task.iter().zip(&tasks).zip(alignments) {
        let aln = aln.ok_or_else(|| {
            CliError::runtime(format!(
                "alignment failed for read {}: no alignment within the edit budget",
                reads[i].name
            ))
        })?;
        aln.check(&task.query, &task.target)
            .map_err(|e| CliError::runtime(format!("invalid alignment: {e}")))?;
        task_detail[i].push(TaskExplain::new(&aln));
        rows[i].push(AlignRecord::from_alignment(
            &reads[i].name,
            reads[i].seq.len(),
            index.contig_name(task.contig),
            index.contig_len(task.contig),
            task.ref_pos,
            task.target.len(),
            task.reverse,
            aln,
        ));
    }
    for per_read in &mut rows {
        per_read.sort_by(AlignRecord::cmp_best_first);
        for row in per_read.iter() {
            writeln!(out, "{}", format.line(row)).map_err(io_err)?;
        }
    }
    if let Some(x) = &explain {
        // The one-shot path aligns everything in a single batch, so
        // there is no per-read alignment latency to report.
        for (i, r) in reads.iter().enumerate() {
            let (stats, map_ns) = &funnel[i];
            // A failed candidate aborted the run above.
            let disp = disposition::of(stats.unmapped_reason(), false);
            x.emit(&ExplainRecord {
                read: &r.name,
                disposition: &disp,
                // Unmapped reads never reach the aligner.
                backend: (!task_detail[i].is_empty()).then_some(aligner_name),
                provenance: ReadProvenance {
                    anchors: stats.anchors,
                    chains: stats.chains,
                    candidates: stats.candidates,
                    map_ns: *map_ns,
                },
                tasks: &task_detail[i],
                align_ns: 0,
            });
        }
    }
    Ok(())
}

/// Streaming alignment through the bounded-queue pipeline.
fn cmd_pipeline(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let backend = backend_kind(flags)?;
    let cfg = pipeline_config(flags)?;
    let format = output_format(flags)?;
    let metrics_out = metrics_mode(flags)?;
    configure_threads(flags)?;
    let reference = load_reference(flags.req("ref")?)?;
    let reads_path = flags.req("reads")?;

    let f = File::open(reads_path)
        .map_err(|e| CliError::runtime(format!("cannot open {reads_path}: {e}")))?;
    let stream = FastxReader::new(BufReader::new(f)).map(|r| {
        r.map(|rec| ReadInput {
            name: rec.name,
            seq: rec.seq,
        })
    });

    let backend = backend.create();
    let metrics = genasm_pipeline::run_pipeline(stream, reference, backend.as_ref(), &cfg, |rec| {
        writeln!(out, "{}", format.line(rec))
    })
    .map_err(|e| CliError::runtime(e.to_string()))?;

    finish_trace(&cfg.trace)?;
    emit_metrics(metrics_out, &metrics);
    Ok(())
}

/// Parse `--to` / `--listen` endpoint specs.
fn endpoint_flag(flags: &Flags, name: &str) -> Result<Endpoint, CliError> {
    Endpoint::parse(flags.req(name)?).map_err(CliError::usage)
}

/// `genasm serve`: load the reference once, start the resident
/// alignment server, and run until a client sends SHUTDOWN.
fn cmd_serve(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let endpoint = endpoint_flag(flags, "listen")?;
    let default_backend = backend_kind(flags)?;
    let default_format = output_format(flags)?;
    let metrics_out = metrics_mode(flags)?;
    // Accepted for callers written for the tiled index; one index
    // covers the reference whatever it says.
    if flags.num("shards", 1usize)? == 0 {
        return Err(CliError::usage("--shards must be at least 1"));
    }
    configure_threads(flags)?;
    let pipeline = pipeline_config(flags)?;
    let trace = pipeline.trace.clone();
    let service = ServiceConfig {
        pipeline,
        max_sessions: flags.num("max-sessions", 64)?,
        linger: std::time::Duration::from_millis(flags.num("linger-ms", 2)?),
        max_session_output_bytes: flags.num("session-output-cap", 64 << 20)?,
        max_session_inflight_reads: flags.num("session-inflight-reads", 1024)?,
    };
    // 0 disables the idle timeout (and its heartbeats) entirely.
    let idle_timeout = match flags.num("idle-timeout-ms", 30_000u64)? {
        0 => None,
        ms => Some(std::time::Duration::from_millis(ms)),
    };
    let reference = load_reference(flags.req("ref")?)?;
    let ref_label = reference.label();
    let server = Server::start(
        ServerConfig {
            endpoint,
            default_backend,
            default_format,
            idle_timeout,
            service,
        },
        &ref_label,
        reference,
    )
    .map_err(|e| CliError::runtime(format!("cannot start server: {e}")))?;
    writeln!(out, "# genasm-server listening on {}", server.endpoint()).map_err(io_err)?;
    out.flush().map_err(io_err)?;
    let metrics = server.wait();
    finish_trace(&trace)?;
    emit_metrics(metrics_out, &metrics);
    Ok(())
}

/// `genasm submit`: stream a read file to a running server; stdout is
/// byte-identical to `genasm align` on the same reads, status goes to
/// stderr. Nonzero exit when the server reported any error line.
fn cmd_submit(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let endpoint = endpoint_flag(flags, "to")?;
    let explain_path = flags.get("explain");
    let opts = SubmitOptions {
        backend: flags
            .get("backend")
            .map(|v| v.parse().map_err(|e| CliError::usage(format!("{e}"))))
            .transpose()?,
        format: flags
            .get("format")
            .map(|v| v.parse().map_err(|e| CliError::usage(format!("{e}"))))
            .transpose()?,
        explain: explain_path.is_some(),
    };
    let reads_path = flags.req("reads")?;
    let reads = File::open(reads_path)
        .map_err(|e| CliError::runtime(format!("cannot open {reads_path}: {e}")))?;
    let mut status = std::io::stderr();
    let report = genasm_server::client::submit(&endpoint, reads, &opts, out, &mut status)
        .map_err(|e| CliError::runtime(format!("server connection failed: {e}")))?;
    if let Some(path) = explain_path {
        // The server already streamed the `# explain` lines; this just
        // lands their JSON payloads in the requested file, same
        // one-line-per-read shape as `align --explain`.
        let f = File::create(path)
            .map_err(|e| CliError::runtime(format!("cannot create explain file {path}: {e}")))?;
        let mut w = BufWriter::new(f);
        for line in &report.explain {
            writeln!(w, "{line}").map_err(io_err)?;
        }
        w.flush().map_err(io_err)?;
    }
    if report.errors > 0 {
        return Err(CliError::runtime(format!(
            "server reported {} error(s); see stderr",
            report.errors
        )));
    }
    // The session must end with the server's `# done` summary; without
    // it the output may be silently truncated (server died mid-stream)
    // and must not exit 0.
    if report.done.is_none() {
        return Err(CliError::runtime(
            "connection closed before the server reported completion; output may be truncated",
        ));
    }
    Ok(())
}

/// Every action of `genasm ctl`; both of its usage errors list them
/// from here.
const CTL_ACTIONS: [&str; 6] = [
    "ping",
    "stats",
    "stats-json",
    "stats-prom",
    "top",
    "shutdown",
];

/// `genasm ctl <action> --to ENDPOINT`: control verbs against a running
/// server (replies go to stdout).
fn cmd_ctl(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let valid = CTL_ACTIONS.join(", ");
    let Some((action, rest)) = args.split_first() else {
        return Err(CliError::usage(format!(
            "ctl needs an action; valid actions are {valid}"
        )));
    };
    if action == "top" {
        // Live streaming view: one raw `genasm-stat-frame/v1` JSON
        // object per line on stdout (protocol chatter on stderr), so
        // the feed pipes into `jq` or a dashboard collector.
        let flags = Flags::parse("ctl top", rest)?;
        let endpoint = endpoint_flag(&flags, "to")?;
        let interval: u64 = flags.num("interval-ms", 1000)?;
        if interval == 0 {
            return Err(CliError::usage("--interval-ms must be at least 1"));
        }
        let frames: u64 = flags.num("frames", 0)?;
        let mut status = std::io::stderr();
        let n = genasm_server::client::stream_stats(&endpoint, interval, frames, out, &mut status)
            .map_err(|e| CliError::runtime(format!("stat stream failed: {e}")))?;
        if n == 0 {
            return Err(CliError::runtime(
                "server ended the stream before the first stat frame",
            ));
        }
        return Ok(());
    }
    // `stats-json` and `stats-prom` are machine-readable: the protocol
    // chatter goes to stderr and only the bare payload — what follows
    // this prefix — lands on stdout, so the output pipes straight into
    // `python -m json.tool` or a Prometheus scraper.
    let (verb, payload_prefix) = match action.as_str() {
        "ping" => (Verb::Ping, None),
        "stats" => (Verb::Stats(StatsFormat::Line), None),
        "stats-json" => (Verb::Stats(StatsFormat::Json), Some("# stats-json ")),
        "stats-prom" => (Verb::Stats(StatsFormat::Prom), Some("# prom ")),
        "shutdown" => (Verb::Shutdown, None),
        other => {
            return Err(CliError::usage(format!(
                "unknown ctl action {other:?}; valid actions are {valid}"
            )))
        }
    };
    let endpoint = endpoint_flag(&Flags::parse("ctl", rest)?, "to")?;
    let lines = genasm_server::client::control(&endpoint, &verb)
        .map_err(|e| CliError::runtime(format!("server connection failed: {e}")))?;
    for line in &lines {
        match payload_prefix {
            // Control replies are this command's output.
            None => writeln!(out, "{line}").map_err(io_err)?,
            Some(prefix) => {
                eprintln!("{line}");
                if let Some(payload) = line.strip_prefix(prefix) {
                    writeln!(out, "{payload}").map_err(io_err)?;
                }
            }
        }
    }
    if payload_prefix.is_some_and(|prefix| !lines.iter().any(|l| l.starts_with(prefix))) {
        return Err(CliError::runtime(
            "server did not return a stats payload; see stderr",
        ));
    }
    let errors = lines.iter().filter(|l| l.starts_with(ERR_PREFIX)).count();
    if errors > 0 {
        return Err(CliError::runtime(format!(
            "server reported {errors} error(s)"
        )));
    }
    Ok(())
}

fn cmd_filter(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let pattern = Seq::from_ascii(flags.req("pattern")?.as_bytes())
        .map_err(|e| CliError::usage(format!("bad --pattern: {e}")))?;
    if pattern.is_empty() || pattern.len() > 64 {
        return Err(CliError::usage("--pattern must be 1..=64 bases"));
    }
    let (_, text) = load_single_sequence(flags.req("text")?)?;
    let k: usize = flags.num("k", 2)?;
    for occ in genasm_core::filter_occurrences(&pattern, &text, k) {
        writeln!(out, "{}\t{}", occ.end, occ.edits).map_err(io_err)?;
    }
    Ok(())
}
