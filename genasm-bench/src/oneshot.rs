//! One pass of a one-shot workload: the whole job `genasm pipeline`
//! does — parse the reference, build the index, stream the reads
//! through `run_pipeline`, write the records — timed from outside.
//!
//! Every pass stamps when the pipeline pulls a read off the input
//! iterator and when `on_record` hands back that read's last record;
//! the difference is the read's residence, the latency a one-shot user
//! can feel. A traced pass additionally records a span per iterator
//! `next()`, per `Backend::align_batch` call and per `on_record`.

use std::io::{BufRead, BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use align_core::{AlignTask, Alignment};
use genasm_gpu::GpuAligner;
use genasm_pipeline::{
    run_pipeline, Backend, BackendError, CpuBackend, PipelineMetrics, ReadInput,
};
use gpu_sim::{BlockCounters, Device};
use readsim::{read_multi_fastx, FastxError, FastxReader};

use crate::check::DigestWriter;
use crate::machine::StealMeter;
use crate::spans::{lane, SpanId, Spans};
use crate::workload::{read_index, Driver, Spec};

/// The streaming part of a pass, between its first and its last
/// completion: start-up (index build) and drain fall outside it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Steady {
    /// Units (reads) completed after the first completion.
    pub reads: f64,
    /// Seconds from the first completion to the last.
    pub seconds: f64,
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct PassReport {
    pub wall_s: f64,
    /// Reads the pipeline pulled from the input.
    pub reads: u64,
    /// Reads that failed: the pipeline's own count, or every read of a
    /// pass that aborted.
    pub failed_reads: u64,
    pub error: Option<String>,
    pub out_bytes: u64,
    /// FNV-1a of every output byte.
    pub digest: u64,
    /// Pull → last record, per read that emitted records.
    pub residence_ms: Vec<f64>,
    /// The pass between its first and last completed read.
    pub steady: Steady,
    pub metrics: Option<PipelineMetrics>,
    /// Share of the machine the hypervisor took away meanwhile.
    pub steal_share: f64,
    /// `VmHWM` at the end of the pass (filled in by the worker).
    pub peak_rss_mb: f64,
    /// The simulator's totals, when the pass ran on [`GpuProbe`]
    /// (filled in by the caller that owns the backend).
    pub gpu: Option<GpuTotals>,
}

/// The read iterator handed to `run_pipeline`, stamping each pull.
struct StampedReads<'a, R: BufRead> {
    inner: FastxReader<R>,
    pulls: &'a Mutex<Vec<Instant>>,
    trace: Option<(&'a Spans, SpanId)>,
}

impl<R: BufRead> Iterator for StampedReads<'_, R> {
    type Item = Result<ReadInput, FastxError>;

    fn next(&mut self) -> Option<Self::Item> {
        let start = Instant::now();
        let item = self.inner.next()?;
        let end = Instant::now();
        let idx = {
            let mut pulls = self.pulls.lock().expect("pull stamps poisoned");
            pulls.push(end);
            pulls.len() as u64 - 1
        };
        if let Some((spans, parent)) = self.trace {
            spans.record("readsim.next", lane::INPUT, Some(parent), idx, start, end);
        }
        Some(item.map(|r| ReadInput {
            name: r.name,
            seq: r.seq,
        }))
    }
}

/// A `Backend` that records one span per `align_batch` call.
pub struct TimedBackend<'a> {
    inner: &'a dyn Backend,
    spans: &'a Spans,
    parent: SpanId,
    batches: AtomicU64,
}

impl Backend for TimedBackend<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError> {
        let start = Instant::now();
        let out = self.inner.align_batch(tasks);
        let seq = self.batches.fetch_add(1, Ordering::Relaxed);
        self.spans.record(
            "backend.align_batch",
            lane::BACKEND,
            Some(self.parent),
            seq,
            start,
            Instant::now(),
        );
        out
    }

    fn engine_stats(&self) -> Option<genasm_core::MemStats> {
        self.inner.engine_stats()
    }
}

/// Sums of `GpuBatchReport` over the launches of one backend instance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuTotals {
    pub tasks: u64,
    /// Σ `timing.total_ms`: the modelled device time.
    pub modelled_ms: f64,
    pub compute_ms: f64,
    pub bandwidth_ms: f64,
    pub latency_ms: f64,
    pub blocks_per_sm: usize,
    pub counters: BlockCounters,
    /// Σ `host_ms`: what the simulator itself took.
    pub host_ms: f64,
    pub shared_bytes: usize,
}

/// The harness-side simulated-GPU backend: `GpuAligner::improved` on
/// the A6000 model, keeping what `GpuSimBackend` drops — the timing
/// estimate, the traffic counters and the host time of every launch.
pub struct GpuProbe {
    gpu: GpuAligner,
    totals: Mutex<GpuTotals>,
}

impl Default for GpuProbe {
    fn default() -> GpuProbe {
        GpuProbe {
            gpu: GpuAligner::improved(Device::a6000()),
            totals: Mutex::new(GpuTotals::default()),
        }
    }
}

impl GpuProbe {
    pub fn totals(&self) -> GpuTotals {
        *self.totals.lock().expect("gpu totals poisoned")
    }
}

impl Backend for GpuProbe {
    fn name(&self) -> &'static str {
        "gpu-sim"
    }

    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError> {
        let report = self.gpu.align_batch(tasks).map_err(|e| BackendError {
            backend: "gpu-sim",
            reason: e.to_string(),
        })?;
        let mut t = self.totals.lock().expect("gpu totals poisoned");
        t.tasks += tasks.len() as u64;
        t.modelled_ms += report.timing.total_ms;
        t.compute_ms += report.timing.compute_ms;
        t.bandwidth_ms += report.timing.bandwidth_ms;
        t.latency_ms += report.timing.latency_ms;
        t.blocks_per_sm = report.timing.blocks_per_sm;
        t.counters.merge(&report.totals);
        t.host_ms += report.host_ms;
        t.shared_bytes = report.shared_bytes;
        drop(t);
        Ok(report
            .results
            .into_iter()
            .map(|r| Some(r.alignment))
            .collect())
    }
}

/// The backend a one-shot workload runs on, fresh for each pass so its
/// counters cover exactly one traversal.
pub enum PassBackend {
    Cpu(CpuBackend),
    Gpu(GpuProbe),
}

impl PassBackend {
    pub fn for_spec(spec: &Spec) -> PassBackend {
        match spec.driver {
            Driver::OneShotGpuSim => PassBackend::Gpu(GpuProbe::default()),
            Driver::OneShotCpu | Driver::Serve => PassBackend::Cpu(CpuBackend::improved()),
        }
    }

    pub fn as_dyn(&self) -> &dyn Backend {
        match self {
            PassBackend::Cpu(b) => b,
            PassBackend::Gpu(b) => b,
        }
    }

    pub fn gpu_totals(&self) -> Option<GpuTotals> {
        match self {
            PassBackend::Cpu(_) => None,
            PassBackend::Gpu(b) => Some(b.totals()),
        }
    }
}

/// Run one pass. `trace` turns the span wrappers on.
pub fn run_pass<RF, RQ, W>(
    spec: &Spec,
    reference: RF,
    reads: RQ,
    out: W,
    backend: &dyn Backend,
    trace: Option<&Spans>,
) -> PassReport
where
    RF: BufRead,
    RQ: BufRead + Send,
    W: Write,
{
    let steal = StealMeter::start();
    let started = Instant::now();
    let root = trace.map(|s| (s, s.begin("pass", lane::RUN, None, 0)));
    let mut report = PassReport {
        wall_s: 0.0,
        reads: 0,
        failed_reads: 0,
        error: None,
        out_bytes: 0,
        digest: 0,
        residence_ms: Vec::new(),
        steady: Steady::default(),
        metrics: None,
        steal_share: 0.0,
        peak_rss_mb: 0.0,
        gpu: None,
    };
    let reference = match read_multi_fastx(reference) {
        Ok(reference) => reference,
        Err(e) => {
            report.error = Some(format!("reference: {e}"));
            return report;
        }
    };
    if let Some((spans, parent)) = root {
        spans.record(
            "readsim.parse_reference",
            lane::RUN,
            Some(parent),
            0,
            started,
            Instant::now(),
        );
    }
    let timed = root.map(|(spans, parent)| TimedBackend {
        inner: backend,
        spans,
        parent,
        batches: AtomicU64::new(0),
    });
    let backend: &dyn Backend = match &timed {
        Some(t) => t,
        None => backend,
    };

    let pulls = Mutex::new(Vec::new());
    let input = StampedReads {
        inner: FastxReader::new(reads),
        pulls: &pulls,
        trace: root,
    };
    let mut out = BufWriter::new(DigestWriter::new(out));
    // (read index, when its latest record came back), in read order.
    let mut done: Vec<(usize, Instant)> = Vec::new();
    let result = run_pipeline(input, reference, backend, &spec.pipeline_config(), |rec| {
        let start = Instant::now();
        let line = rec.to_tsv();
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        let end = Instant::now();
        let idx = read_index(&rec.qname).unwrap_or(usize::MAX);
        match done.last_mut() {
            Some(last) if last.0 == idx => last.1 = end,
            _ => done.push((idx, end)),
        }
        if let Some((spans, parent)) = root {
            spans.record(
                "sink.on_record",
                lane::SINK,
                Some(parent),
                idx as u64,
                start,
                end,
            );
        }
        Ok(())
    });
    let flushed = out.flush();
    report.wall_s = started.elapsed().as_secs_f64();
    report.steal_share = steal.share();
    if let Some((spans, parent)) = root {
        spans.end(parent);
    }

    let pulls = pulls.into_inner().expect("pull stamps poisoned");
    report.reads = pulls.len() as u64;
    let digest = out.get_ref();
    report.out_bytes = digest.bytes;
    report.digest = digest.fnv.finish();
    report.residence_ms = done
        .iter()
        .filter_map(|&(idx, at)| Some(at.duration_since(*pulls.get(idx)?).as_secs_f64() * 1e3))
        .collect();
    if let (Some(&(first, began)), Some(&(last, ended))) = (done.first(), done.last()) {
        report.steady = Steady {
            reads: (last - first) as f64,
            seconds: ended.duration_since(began).as_secs_f64(),
        };
    }
    match (result, flushed) {
        (Ok(m), Ok(())) => {
            report.failed_reads = m.funnel.failed;
            if m.funnel.accounted() != m.funnel.reads_in || m.funnel.reads_in != report.reads {
                report.error = Some(format!(
                    "funnel does not partition reads_in: {} accounted of {} in, {} pulled",
                    m.funnel.accounted(),
                    m.funnel.reads_in,
                    report.reads
                ));
            }
            report.metrics = Some(m);
        }
        (Err(e), _) => {
            report.failed_reads = spec.reads as u64;
            report.error = Some(e.to_string());
        }
        (_, Err(e)) => {
            report.failed_reads = spec.reads as u64;
            report.error = Some(format!("output: {e}"));
        }
    }
    report
}
