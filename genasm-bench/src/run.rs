//! One run of one workload: generate it from the seed, drive it for
//! `--seconds`, check the outputs, and report either the end-to-end
//! metrics (tracing off) or the per-layer metrics (traced pass, layer
//! replay, server replay).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use genasm_pipeline::{Backend, BackendKind, CpuBackend};

use crate::check::{check_output, Fnv};
use crate::json::{self, Value};
use crate::machine::{peak_rss_mb, speed_probe, undisturbed, Patience, PROBE_NOMINAL_S};
use crate::metrics::{self, MetricDef};
use crate::oneshot::{run_pass, PassBackend, PassReport, Steady};
use crate::replay::{gpu_metrics, named, ratio, replay, Metrics, Replay};
use crate::serve::{closed_loop_pass, ServePass, ServerChild};
use crate::spans::Spans;
use crate::stats::{median, percentile, percentile_or_max};
use crate::workload::{Driver, Spec, Workload, THREADS};

/// Set-ups timed next to each pass, so that the samples of `setup_s`
/// are spread over the whole run like those of every other metric (on
/// a box whose speed wanders by the second, a burst of set-ups in one
/// second measures that second).
pub const SETUPS_PER_PASS: usize = 2;
/// Reads of the gpu-sim agreement check.
const GPU_AGREE_READS: usize = 50;

/// Where a run finds its programs and may write.
#[derive(Debug, Clone)]
pub struct Env {
    /// This harness's own binary (spawned as `worker`).
    pub bench_exe: PathBuf,
    /// The `genasm` binary; `None` skips everything that needs a server
    /// (allowed for a `--smoke` self-test only).
    pub genasm: Option<PathBuf>,
    /// Scratch and trace files go below this directory.
    pub out_dir: PathBuf,
}

impl Env {
    /// The environment of the installed binary: `genasm` sits next to
    /// it in the target directory, output goes to
    /// `<target>/genasm-bench/`.
    pub fn from_current_exe() -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin_dir = exe.parent().ok_or("binary has no directory")?;
        let target = bin_dir.parent().ok_or("binary is not in a target dir")?;
        // Relative to the working directory when possible: Unix socket
        // paths are limited to ~100 bytes.
        let target = std::env::current_dir()
            .ok()
            .and_then(|cwd| target.strip_prefix(cwd).ok().map(Path::to_path_buf))
            .unwrap_or_else(|| target.to_path_buf());
        let genasm = bin_dir.join("genasm");
        Ok(Env {
            genasm: genasm.is_file().then_some(genasm),
            bench_exe: exe,
            out_dir: target.join("genasm-bench"),
        })
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub spec: Spec,
    pub smoke: bool,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    pub def: MetricDef,
    pub value: f64,
    /// Smallest and largest per-pass value, where the metric is a
    /// median over passes.
    pub range: Option<(f64, f64)>,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Reported>,
    /// Every check that failed; empty means correct.
    pub errors: Vec<String>,
    /// Measured passes, how many of them the metrics were taken from,
    /// and the latency samples behind the percentiles.
    pub passes: usize,
    pub passes_used: usize,
    /// Passes dropped and measured again because a storm took the
    /// machine away (see [`Patience`]).
    pub passes_again: usize,
    /// How much slower than nominal the machine's cores were during
    /// the passes used ([`speed_probe`] ÷ its nominal time). The
    /// time-based end-to-end metrics are scaled by it; multiply a time
    /// by it, or divide a rate, to get the value as timed.
    pub slowdown: f64,
    pub latency_samples: usize,
    /// Share of the machine the hypervisor took away, per measured pass.
    pub steal_shares: Vec<f64>,
    /// Digest of the workload's output bytes (equal across passes).
    pub digest: u64,
    pub trace_file: Option<PathBuf>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The driver's result line.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.def.name),
                    json::number(m.value),
                    json::quote(m.def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A measured value on its way to becoming a [`Reported`] metric.
struct Measurement {
    name: String,
    value: f64,
    range: Option<(f64, f64)>,
}

impl Measurement {
    fn plain(name: &str, value: f64) -> Measurement {
        Measurement {
            name: name.to_string(),
            value,
            range: None,
        }
    }

    /// `value` with the smallest and largest of `per_pass` as range.
    fn with_range(name: &str, value: f64, per_pass: &[f64]) -> Measurement {
        let lo = per_pass.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = per_pass.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Measurement {
            range: Some((lo, hi)),
            ..Measurement::plain(name, value)
        }
    }

    /// The value and its range times `factor`.
    fn scaled(self, factor: f64) -> Measurement {
        Measurement {
            value: self.value * factor,
            range: self.range.map(|(lo, hi)| (lo * factor, hi * factor)),
            ..self
        }
    }

    fn median_of(name: &str, values: &[f64]) -> Measurement {
        Measurement::with_range(name, median(values).unwrap_or(f64::NAN), values)
    }
}

/// Keep the values `defs` names, in its order; a missing or non-finite
/// one is an error.
fn finish(defs: Vec<MetricDef>, values: Vec<Measurement>, out: &mut RunResult) {
    for def in defs {
        match values.iter().find(|m| m.name == def.name) {
            Some(&Measurement { value, range, .. }) if value.is_finite() => {
                out.metrics.push(Reported { def, value, range })
            }
            Some(_) => out
                .errors
                .push(format!("metric {} is not finite", def.name)),
            None => out
                .errors
                .push(format!("metric {} was not measured", def.name)),
        }
    }
}

/// A per-run scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(env: &Env) -> Result<Scratch, String> {
        let dir = env.out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), String> {
        let path = self.0.join(name);
        std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one workload once.
pub fn run(env: &Env, args: &RunArgs) -> Result<RunResult, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build_global()
        .map_err(|e| e.to_string())?;
    let w = Workload::generate(&args.spec, args.seed);
    let scratch = Scratch::new(env)?;
    scratch.write("ref.fa", &w.fasta)?;
    let mut out = RunResult::default();
    match (args.trace, args.spec.driver) {
        (false, Driver::Serve) => serve_end_to_end(env, args, &w, &scratch, &mut out)?,
        (false, _) => oneshot_end_to_end(env, args, &w, &scratch, &mut out)?,
        (true, _) => layers(env, args, &w, &scratch, &mut out)?,
    }
    Ok(out)
}

/// Fold one checked output stream into the result.
fn note_output(w: &Workload, output: &[u8], aligned: Option<u64>, out: &mut RunResult) {
    let check = check_output(w, output);
    out.failed += check.bad_reads;
    if let Some(e) = check.first_error {
        out.errors.push(e);
    }
    if let Some(aligned) = aligned.filter(|&a| a != check.reads_with_records) {
        out.errors.push(format!(
            "{aligned} reads counted as aligned but {} emitted records",
            check.reads_with_records
        ));
    }
    out.digest = Fnv::of(output);
}

/// One measured pass, as the end-to-end summary needs it.
struct Measured {
    /// Share of the machine the hypervisor took away during the pass.
    steal_share: f64,
    steady: Steady,
    latency_ms: Vec<f64>,
    /// The pass's own peak, where the process under test is ours to
    /// ask per pass.
    peak_rss_mb: Option<f64>,
    /// [`speed_probe`] just before the pass and just after it.
    probe_s: [f64; 2],
}

/// The five end-to-end metrics from the measured passes of a run.
/// They are taken from the undisturbed passes only (see
/// [`undisturbed`]): `reads_per_s` is their reads ÷ their seconds,
/// first completion to last (on this kind of box the speed of a core
/// itself wanders by the second, and the mean over the longest window
/// is what varies least), the latency percentiles are exact
/// nearest-rank over their pooled samples, `peak_rss_mb` is the median
/// of the passes' peaks and `setup_s` the mean of every set-up timed.
/// Rates and times are then scaled to the machine's nominal speed by
/// the run's mean [`speed_probe`].
fn summarise(
    passes: &[Measured],
    setup_s: &[f64],
    process_rss_mb: Option<f64>,
    smoke: bool,
    out: &mut RunResult,
) {
    let steal: Vec<f64> = passes.iter().map(|p| p.steal_share).collect();
    let kept = undisturbed(&steal);
    let used: Vec<&Measured> = kept.iter().map(|&i| &passes[i]).collect();
    out.passes = passes.len();
    out.passes_used = used.len();
    out.steal_shares = steal;

    let (reads, seconds) = used.iter().fold((0.0, 0.0), |(r, s), p| {
        (r + p.steady.reads, s + p.steady.seconds)
    });
    let pass_rates: Vec<f64> = used
        .iter()
        .map(|p| p.steady.reads / p.steady.seconds)
        .collect();
    let rss: Vec<f64> = used
        .iter()
        .filter_map(|p| p.peak_rss_mb)
        .chain(process_rss_mb)
        .collect();
    let probes: Vec<f64> = used.iter().flat_map(|p| p.probe_s).collect();
    let slowdown = probes.iter().sum::<f64>() / probes.len() as f64 / PROBE_NOMINAL_S;
    out.slowdown = slowdown;
    let mut values = vec![
        Measurement::with_range("reads_per_s", reads / seconds, &pass_rates).scaled(slowdown),
        Measurement::median_of("peak_rss_mb", &rss),
        // The mean, not the median: a core of this kind of box has a
        // fast and a slow state ~30% apart, and the median of a
        // two-humped sample jumps from one hump to the other when the
        // slow state's share crosses a half.
        Measurement::with_range(
            "setup_s",
            setup_s.iter().sum::<f64>() / setup_s.len() as f64,
            setup_s,
        )
        .scaled(1.0 / slowdown),
    ];
    let latencies: Vec<f64> = used
        .iter()
        .flat_map(|p| p.latency_ms.iter().copied())
        .collect();
    out.latency_samples = latencies.len();
    for (name, p) in [("latency_p50_ms", 50), ("latency_p95_ms", 95)] {
        match percentile(&latencies, p) {
            Ok(v) => values.push(Measurement::plain(name, v / slowdown)),
            Err(_) if smoke => values.push(Measurement::plain(
                name,
                percentile_or_max(&latencies, p) / slowdown,
            )),
            Err(e) => out.errors.push(format!("{name}: {e}")),
        }
    }
    finish(metrics::end_to_end(), values, out);
}

// ---------------------------------------------------------------- one-shot

/// The body of `genasm-bench worker`: a fresh process that only ever
/// sees the workload's files and runs one pass, as a user of `genasm
/// pipeline` would, so its `VmHWM` is the program's own peak (a second
/// pass in the same process starts on the first one's fragmented heap
/// and reads ~10 MB higher, pass after pass). Set-up is then timed in
/// the warmed process.
pub fn worker(spec: &Spec, dir: &Path) -> Result<String, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build_global()
        .map_err(|e| e.to_string())?;
    let open = |name: &str| {
        std::fs::File::open(dir.join(name))
            .map(std::io::BufReader::new)
            .map_err(|e| format!("{name}: {e}"))
    };
    let out = std::fs::File::create(dir.join("out.tsv")).map_err(|e| format!("out.tsv: {e}"))?;
    let backend = PassBackend::for_spec(spec);
    let mut pass = run_pass(
        spec,
        open("ref.fa")?,
        open("reads.fq")?,
        out,
        backend.as_dyn(),
        None,
    );
    pass.gpu = backend.gpu_totals();
    pass.peak_rss_mb = peak_rss_mb("/proc/self/status").ok_or("cannot read VmHWM")?;
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS_PER_PASS {
        let t = Instant::now();
        let reference = readsim::read_multi_fastx(open("ref.fa")?).map_err(|e| e.to_string())?;
        let cfg = spec.pipeline_config();
        let index = mapper::ShardedIndex::build(reference, cfg.shards, cfg.shard_overlap);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(index);
    }
    Ok(format!(
        "{{\"setup_s\": [{}], \"pass\": {}}}",
        numbers(&setup_s),
        pass_to_json(&pass)
    ))
}

fn numbers(v: &[f64]) -> String {
    v.iter()
        .map(|&x| json::number(x))
        .collect::<Vec<_>>()
        .join(",")
}

fn pass_to_json(p: &PassReport) -> String {
    format!(
        "{{\"wall_s\": {}, \"steal_share\": {}, \"peak_rss_mb\": {}, \"reads\": {}, \"failed_reads\": {}, \
         \"aligned\": {}, \"digest\": \"{:016x}\", \"modelled_ms\": {}, \"error\": {}, \
         \"steady_reads\": {}, \"steady_s\": {}, \"residence_ms\": [{}]}}",
        json::number(p.wall_s),
        json::number(p.steal_share),
        json::number(p.peak_rss_mb),
        p.reads,
        p.failed_reads,
        p.metrics.as_ref().map_or(0, |m| m.funnel.aligned),
        p.digest,
        p.gpu.map_or("null".into(), |g| json::number(g.modelled_ms)),
        p.error.as_deref().map_or("null".into(), json::quote),
        json::number(p.steady.reads),
        json::number(p.steady.seconds),
        numbers(&p.residence_ms)
    )
}

/// One pass in a fresh `genasm-bench worker`; returns what it printed.
fn worker_pass(env: &Env, args: &RunArgs, scratch: &Scratch) -> Result<Value, String> {
    let mut cmd = Command::new(&env.bench_exe);
    cmd.arg("worker")
        .args(["--workload", args.spec.name])
        .arg("--dir")
        .arg(&scratch.0);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let child = cmd.output().map_err(|e| format!("worker: {e}"))?;
    if !child.status.success() {
        return Err(format!(
            "worker ended with {}: {}",
            child.status,
            String::from_utf8_lossy(&child.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&child.stdout);
    json::parse(stdout.lines().last().unwrap_or(""))
}

/// Worker 0 is the discarded warm-up; measured workers follow until
/// `--seconds` have been measured.
fn oneshot_end_to_end(
    env: &Env,
    args: &RunArgs,
    w: &Workload,
    scratch: &Scratch,
    out: &mut RunResult,
) -> Result<(), String> {
    scratch.write("reads.fq", &w.fastq)?;
    let nums = |v: &Value, key: &str| -> Vec<f64> {
        v.get(key)
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default()
    };
    let field = |p: &Value, key: &str| p.num_at(&[key]).unwrap_or(f64::NAN);

    let mut first: Option<Value> = None;
    let mut measured = Vec::new();
    let mut setup_s = Vec::new();
    let mut measured_s = 0.0;
    let mut aligned = 0;
    let mut patience = Patience::default();
    while measured.is_empty() || measured_s < args.seconds {
        let probe_before = speed_probe(THREADS);
        let doc = worker_pass(env, args, scratch)?;
        let probe_s = [probe_before, speed_probe(THREADS)];
        let p = doc.get("pass").ok_or("worker: no pass")?;
        out.attempted += field(p, "reads") as u64;
        out.failed += field(p, "failed_reads") as u64;
        aligned = field(p, "aligned") as u64;
        if let Some(e) = p.get("error").and_then(Value::as_str) {
            out.errors.push(format!("a pass failed: {e}"));
            break;
        }
        let warm_up = first.is_none();
        let first = first.get_or_insert_with(|| p.clone());
        for key in ["digest", "modelled_ms"] {
            if p.get(key) != first.get(key) {
                out.errors
                    .push(format!("a pass's {key} differs from the warm-up's"));
            }
        }
        if warm_up {
            continue;
        }
        let (steal_share, wall_s) = (field(p, "steal_share"), field(p, "wall_s"));
        if patience.again(steal_share, wall_s) {
            out.passes_again += 1;
            continue;
        }
        measured_s += wall_s;
        setup_s.extend(nums(&doc, "setup_s"));
        measured.push(Measured {
            steal_share,
            steady: Steady {
                reads: field(p, "steady_reads"),
                seconds: field(p, "steady_s"),
            },
            latency_ms: nums(p, "residence_ms"),
            peak_rss_mb: Some(field(p, "peak_rss_mb")),
            probe_s,
        });
    }
    // The last worker's output file; every pass's digest equals the
    // first's, so checking one checks all.
    let output = std::fs::read(scratch.0.join("out.tsv")).map_err(|e| format!("out.tsv: {e}"))?;
    note_output(w, &output, Some(aligned), out);
    let reported = first
        .as_ref()
        .and_then(|p| p.get("digest"))
        .and_then(Value::as_str);
    if out.errors.is_empty() && Some(format!("{:016x}", out.digest).as_str()) != reported {
        out.errors
            .push("out.tsv does not match the digest the workers reported".into());
    }
    summarise(&measured, &setup_s, None, args.smoke, out);
    Ok(())
}

// ------------------------------------------------------------------- serve

fn genasm_of(env: &Env) -> Result<PathBuf, String> {
    let genasm = env.genasm.as_ref().ok_or(
        "the genasm binary is not next to genasm-bench; build it with \
         `cargo build --release -p genasm-cli`",
    )?;
    std::fs::canonicalize(genasm).map_err(|e| format!("{}: {e}", genasm.display()))
}

/// Fold closed-loop passes into the result: reads attempted and
/// failed, broken requests, and that every pass's responses equal the
/// first pass's, which are checked and returned.
fn note_serve_passes<'a>(
    w: &Workload,
    passes: impl Iterator<Item = &'a ServePass>,
    out: &mut RunResult,
) -> Vec<u8> {
    let mut reference: Option<Vec<u8>> = None;
    for (i, pass) in passes.enumerate() {
        out.attempted += pass.reads;
        out.failed += pass.failed_reads(w);
        if let Some(e) = pass.first_error() {
            out.errors.push(format!("pass {i}: {e}"));
        }
        let output = pass.output();
        match &reference {
            None => reference = Some(output),
            Some(r) if *r != output => out
                .errors
                .push(format!("pass {i}: responses differ from the first pass's")),
            Some(_) => {}
        }
    }
    let reference = reference.unwrap_or_default();
    note_output(w, &reference, None, out);
    reference
}

fn serve_end_to_end(
    env: &Env,
    args: &RunArgs,
    w: &Workload,
    scratch: &Scratch,
    out: &mut RunResult,
) -> Result<(), String> {
    let genasm = genasm_of(env)?;
    let server = ServerChild::spawn(&genasm, &scratch.0, "s.sock", &args.spec)?;

    // Pass 0 is the discarded warm-up.
    let mut passes = vec![closed_loop_pass(&server, w, None)];
    let mut dropped = Vec::new();
    let mut probe_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut measured_s = 0.0;
    let mut patience = Patience::default();
    while passes.len() < 2 || measured_s < args.seconds {
        // Set-up is timed on a second server that comes and goes while
        // the resident one idles between passes.
        let mut spawns = Vec::new();
        for _ in 0..SETUPS_PER_PASS {
            let second = ServerChild::spawn(&genasm, &scratch.0, "p.sock", &args.spec)?;
            spawns.push(second.setup_s);
            second.shutdown()?;
        }
        let probe_before = speed_probe(THREADS);
        let pass = closed_loop_pass(&server, w, None);
        let probe_after = speed_probe(THREADS);
        if patience.again(pass.steal_share, pass.wall_s) {
            dropped.push(pass);
            continue;
        }
        measured_s += pass.wall_s;
        setup_s.extend(spawns);
        probe_s.push([probe_before, probe_after]);
        passes.push(pass);
    }
    // The server is one process for the whole run: its peak is the
    // run's, read just before it is told to stop.
    let rss = server.peak_rss_mb();
    server.shutdown()?;

    note_serve_passes(w, passes.iter().chain(&dropped), out);
    out.passes_again = dropped.len();
    if rss.is_none() {
        out.errors.push("cannot read the server's VmHWM".into());
    }
    let measured: Vec<Measured> = passes[1..]
        .iter()
        .zip(probe_s)
        .map(|(p, probe_s)| Measured {
            probe_s,
            steal_share: p.steal_share,
            steady: p.steady(w),
            latency_ms: p.requests.iter().map(|r| r.latency_ms).collect(),
            peak_rss_mb: None,
        })
        .collect();
    summarise(&measured, &setup_s, rss, args.smoke, out);
    Ok(())
}

// ------------------------------------------------------------------ layers

/// An in-process pass over `w` into memory.
fn memory_pass(
    w: &Workload,
    backend: &dyn Backend,
    trace: Option<&Spans>,
) -> (PassReport, Vec<u8>) {
    let mut output = Vec::new();
    let pass = run_pass(
        &w.spec,
        &w.fasta[..],
        &w.fastq[..],
        &mut output,
        backend,
        trace,
    );
    (pass, output)
}

/// The stage-level numbers both `PipelineMetrics::to_json` and the
/// server's `STATS JSON` carry, as a difference of two snapshots.
fn pipeline_metrics(after: &Value, before: Option<&Value>) -> Metrics {
    let get = |path: &[&str]| -> f64 {
        let a = after.num_at(path).unwrap_or(f64::NAN);
        a - before.map_or(0.0, |b| b.num_at(path).unwrap_or(0.0))
    };
    let share = |stage: &str| get(&["busy_ns", stage]) / get(&["wall_ns"]);
    let mean_ms = |hist: &[&str]| {
        let sum = get(&[hist, &["sum"]].concat());
        ratio(sum, get(&[hist, &["count"]].concat())) / 1e6
    };
    // Backend queue wait, over every backend the run used.
    let (mut wait_sum, mut wait_count) = (0.0, 0.0);
    for (name, _) in after
        .get("backends")
        .and_then(Value::members)
        .unwrap_or(&[])
    {
        wait_sum += get(&["backends", name, "queue_wait", "sum"]);
        wait_count += get(&["backends", name, "queue_wait", "count"]);
    }
    let batches = get(&["batches"]);
    named([
        ("pipeline.map_busy_share", share("mapper")),
        ("pipeline.schedule_busy_share", share("scheduler")),
        ("pipeline.backend_busy_share", share("backend")),
        ("pipeline.sink_busy_share", share("sink")),
        (
            "pipeline.task_queue_wait_mean_ms",
            mean_ms(&["latency", "task_queue_wait"]),
        ),
        (
            "pipeline.batch_build_mean_ms",
            mean_ms(&["latency", "batch_build"]),
        ),
        (
            "pipeline.backend_queue_wait_mean_ms",
            ratio(wait_sum, wait_count) / 1e6,
        ),
        (
            "pipeline.reorder_wait_mean_ms",
            mean_ms(&["latency", "reorder_wait"]),
        ),
        ("pipeline.batches", batches),
        (
            "pipeline.mean_batch_bases",
            ratio(get(&["batch_bases"]), batches),
        ),
        // A high-water mark, not a counter: the later snapshot's.
        (
            "pipeline.peak_inflight_bases",
            after.num_at(&["max_inflight_bases"]).unwrap_or(f64::NAN),
        ),
    ])
}

/// Closed-loop passes against a child server for `seconds`, untraced
/// and traced in turn (at least U, T, U). Returns the passes with
/// whether each was traced, and the `pipeline` block of `STATS JSON`
/// before and after the last traced pass.
#[allow(clippy::type_complexity)]
fn serve_passes(
    env: &Env,
    w: &Workload,
    scratch: &Scratch,
    seconds: f64,
    spans: &Spans,
) -> Result<(Vec<(bool, ServePass)>, Value, Value), String> {
    let server = ServerChild::spawn(&genasm_of(env)?, &scratch.0, "s.sock", &w.spec)?;
    let pipeline_of = |doc: Value| {
        doc.get("pipeline")
            .cloned()
            .ok_or("STATS JSON: no pipeline block")
    };
    let mut passes = Vec::new();
    let mut stats = None;
    let started = Instant::now();
    while passes.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let traced = passes.len() % 2 == 1;
        if traced {
            let before = pipeline_of(server.stats()?)?;
            let pass = closed_loop_pass(&server, w, Some(spans));
            stats = Some((before, pipeline_of(server.stats()?)?));
            passes.push((true, pass));
        } else {
            passes.push((false, closed_loop_pass(&server, w, None)));
        }
    }
    server.shutdown()?;
    let (before, after) = stats.expect("at least one traced pass ran");
    Ok((passes, before, after))
}

/// The `server.*` metrics over the requests of `passes`, pooled.
fn server_metrics(passes: &[(bool, ServePass)], oneshot_reads_per_s: f64) -> Metrics {
    let column = |f: fn(&crate::serve::Request) -> f64| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|(_, p)| p.requests.iter().map(f))
            .collect()
    };
    // The largest sample stands in for a percentile with fewer than
    // ten samples beyond it; p99 is a layer metric for that reason.
    let p = |v: Vec<f64>, p: u32| percentile_or_max(&v, p);
    let rates: Vec<f64> = passes
        .iter()
        .map(|(_, p)| p.reads as f64 / p.wall_s)
        .collect();
    named([
        ("server.connect_ms_p50", p(column(|r| r.connect_ms), 50)),
        ("server.session_open_ms_p50", p(column(|r| r.open_ms), 50)),
        (
            "server.first_record_ms_p50",
            p(column(|r| r.first_record_ms), 50),
        ),
        ("server.drain_ms_p50", p(column(|r| r.drain_ms), 50)),
        ("server.req_latency_p99_ms", p(column(|r| r.latency_ms), 99)),
        (
            "server.serve_over_oneshot",
            median(&rates).unwrap_or(f64::NAN) / oneshot_reads_per_s,
        ),
    ])
}

fn layers(
    env: &Env,
    args: &RunArgs,
    w: &Workload,
    scratch: &Scratch,
    out: &mut RunResult,
) -> Result<(), String> {
    let spec = &args.spec;
    let spans = Spans::new();
    let mut m: Metrics = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    // Single-threaded seconds of backend work per task, for the
    // overlap efficiency; the replay's CPU kernel unless the workload
    // runs on the simulator.
    let mut backend_s_per_task = None;
    let (reads_per_pass, tasks_per_pass, records_per_pass);

    if spec.driver == Driver::Serve {
        let (passes, before, after) = serve_passes(env, w, scratch, args.seconds, &spans)?;
        let reference = note_serve_passes(w, passes.iter().map(|(_, p)| p), out);
        for (traced, pass) in &passes {
            if *traced {
                &mut traced_s
            } else {
                &mut untraced_s
            }
            .push(pass.wall_s);
        }
        // The same reads as one stream through `run_pipeline`.
        let (oneshot, oneshot_out) = memory_pass(w, &CpuBackend::improved(), None);
        if oneshot_out != reference {
            out.errors
                .push("concatenated responses differ from the one-shot output".into());
        }
        m.extend(server_metrics(
            &passes,
            oneshot.reads as f64 / oneshot.wall_s,
        ));
        m.extend(pipeline_metrics(&after, Some(&before)));
        m.push((
            "pipeline.output_bytes_per_read".into(),
            reference.len() as f64 / w.reads.len() as f64,
        ));
        let count =
            |key: &str| after.num_at(&[key]).unwrap_or(0.0) - before.num_at(&[key]).unwrap_or(0.0);
        reads_per_pass = count("reads_in");
        tasks_per_pass = count("tasks_generated");
        records_per_pass = count("records_out");
    } else {
        let mut reference: Option<Vec<u8>> = None;
        let mut last_traced: Option<(PassReport, Option<crate::oneshot::GpuTotals>)> = None;
        let started = Instant::now();
        let mut n = 0;
        while n < 3 || started.elapsed().as_secs_f64() < args.seconds {
            let traced = n % 2 == 1;
            let backend = PassBackend::for_spec(spec);
            let (pass, output) = memory_pass(w, backend.as_dyn(), traced.then_some(&spans));
            out.attempted += pass.reads;
            out.failed += pass.failed_reads;
            if let Some(e) = &pass.error {
                out.errors.push(format!("pass {n}: {e}"));
            }
            match &reference {
                None => reference = Some(output),
                Some(r) if *r != output => out
                    .errors
                    .push(format!("pass {n}: output differs from the first pass's")),
                Some(_) => {}
            }
            if traced {
                traced_s.push(pass.wall_s);
                last_traced = Some((pass, backend.gpu_totals()));
            } else {
                untraced_s.push(pass.wall_s);
            }
            n += 1;
        }
        let reference = reference.expect("at least one pass ran");
        let (traced, gpu) = last_traced.expect("a traced pass ran");
        let pm = traced.metrics.as_ref().ok_or("the traced pass failed")?;
        note_output(w, &reference, Some(pm.funnel.aligned), out);
        m.extend(pipeline_metrics(&json::parse(&pm.to_json())?, None));
        m.push((
            "pipeline.output_bytes_per_read".into(),
            traced.out_bytes as f64 / traced.reads as f64,
        ));
        reads_per_pass = pm.reads_in as f64;
        tasks_per_pass = pm.tasks_generated as f64;
        records_per_pass = pm.records_out as f64;

        if let Some(gpu) = gpu {
            // Whole-run simulator totals replace the replay's prefix.
            m.extend(gpu_metrics(&gpu));
            backend_s_per_task = Some(gpu.host_ms / 1e3 * THREADS as f64 / gpu.tasks as f64);
            gpu_checks(w, &reference, out);
        }
    }

    let Replay {
        metrics: replay_metrics,
        parse_s,
        index_build_s,
        map_s_per_read,
        align_s_per_task,
        format_s_per_record,
        errors,
    } = replay(w, &spans);
    out.errors.extend(errors);
    for (name, v) in replay_metrics {
        if !m.iter().any(|(have, _)| *have == name) {
            m.push((name, v));
        }
    }

    if spec.driver != Driver::Serve {
        // The server layer, replayed over the prefix as 8-read sessions
        // next to the same reads as one stream.
        let prefix = w.prefix(spec.replay_reads);
        if env.genasm.is_some() {
            let (passes, _, _) = serve_passes(env, &prefix, scratch, 0.0, &spans)?;
            let (oneshot, oneshot_out) = memory_pass(&prefix, &CpuBackend::improved(), None);
            for (_, pass) in &passes {
                out.failed += pass.failed_reads(&prefix);
                if pass.output() != oneshot_out {
                    out.errors
                        .push("server replay differs from the one-shot output".into());
                }
            }
            m.extend(server_metrics(
                &passes,
                oneshot.reads as f64 / oneshot.wall_s,
            ));
        } else if args.smoke {
            m.extend(
                metrics::per_layer()
                    .into_iter()
                    .filter(|d| d.name.starts_with("server."))
                    .map(|d| (d.name, 0.0)),
            );
        } else {
            genasm_of(env)?;
        }
    }

    // The fastest pass of each kind: what disturbs a pass on a shared
    // box only ever slows it, and the two kinds differ by less than
    // that.
    let fastest = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    let (u, t) = (fastest(&untraced_s), fastest(&traced_s));
    m.push(("telemetry.trace_overhead_share".into(), (t - u) / u));
    let serial_s = parse_s
        + index_build_s
        + reads_per_pass * map_s_per_read
        + tasks_per_pass * backend_s_per_task.unwrap_or(align_s_per_task)
        + records_per_pass * format_s_per_record;
    m.push((
        "pipeline.stage_overlap_efficiency".into(),
        serial_s / (u * THREADS as f64),
    ));
    out.passes = untraced_s.len() + traced_s.len();

    let trace_file = env.out_dir.join(format!("{}.trace.json", spec.name));
    std::fs::File::create(&trace_file)
        .and_then(|f| spans.write_chrome_trace(std::io::BufWriter::new(f)))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    out.trace_file = Some(trace_file);

    finish(
        metrics::per_layer(),
        m.iter().map(|(n, v)| Measurement::plain(n, *v)).collect(),
        out,
    );
    Ok(())
}

/// `gpu-sim-long` only: the simulator's bytes equal the CPU backend's
/// on the same reads, and the harness wrapper agrees with the shipped
/// `BackendKind::GpuSim` on the first reads.
fn gpu_checks(w: &Workload, gpu_output: &[u8], out: &mut RunResult) {
    let (_, cpu_output) = memory_pass(w, &CpuBackend::improved(), None);
    if cpu_output != gpu_output {
        out.errors
            .push("gpu-sim output differs from the cpu backend's on the same reads".into());
    }
    let head = w.prefix(GPU_AGREE_READS);
    let (_, wrapper) = memory_pass(&head, PassBackend::for_spec(&w.spec).as_dyn(), None);
    let (_, shipped) = memory_pass(&head, BackendKind::GpuSim.create().as_ref(), None);
    if wrapper != shipped {
        out.errors
            .push("the harness gpu wrapper and BackendKind::GpuSim disagree".into());
    }
}
