//! Per-stage pipeline telemetry.
//!
//! Every stage updates a shared [`StageCounters`] — a set of named
//! handles into a [`genasm_telemetry::Registry`] — through relaxed
//! atomics (the numbers are telemetry, not synchronization), and
//! [`PipelineMetrics`] is the immutable snapshot taken on demand: at
//! the end of a batch run, or live from the resident service while
//! sessions are in flight. Counters answer the production questions:
//! *where is the time going* (per-stage busy nanos, backend
//! utilization, latency histograms), *is batching working*
//! (batch-size histogram, mean bases per batch), *is memory bounded*
//! (queue high-waters, peak in-flight bases), and *where do reads
//! wait* (task-queue wait, backend queue wait, reorder wait).
//!
//! # Snapshot ordering contract
//!
//! [`StageCounters`] may be snapshotted at any instant of a live run.
//! The guarantees, in decreasing strength:
//!
//! * **Per-field monotonicity.** Every counter and every histogram
//!   bucket only ever increases, so for two snapshots taken in order
//!   the earlier is field-by-field `≤` the later
//!   ([`PipelineMetrics::le_monotonic`] checks exactly this). Gauges
//!   (`inflight_*`) move both ways and are exempt; their `max_*`
//!   high-water companions are monotonic.
//! * **Eventual cross-field consistency.** Fields are updated by
//!   different stages without a global lock, so relations like
//!   `reads_mapped ≤ reads_in` or `batch_tasks ≤ tasks_generated`
//!   hold *at rest* (after [`shutdown`](crate::PipelineService::shutdown) or
//!   run end) but may be transiently off by in-flight updates in a
//!   mid-run snapshot. Within one histogram, `count == Σ buckets`
//!   holds in every snapshot by construction; `sum` may lag.
//! * **Engine stats are batch-atomic.** Backends merge
//!   [`genasm_core::MemStats`] under a per-backend mutex once per
//!   completed batch (see [`crate::Backend::engine_stats`]), so a
//!   snapshot never observes a half-merged batch — the engine
//!   counters are always a consistent prefix of completed batches.

use std::sync::Arc;
use std::time::Duration;

use genasm_telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, SlowRead, SlowReads, Snapshot,
};
use mapper::{IndexMetrics, ReadMapStats};

/// Entries retained by the slow-read ring (name, latency, disposition
/// of the slowest reads seen so far), surfaced in `STATS JSON` and the
/// server's `# stat-frame` stream.
pub const SLOW_READS_CAPACITY: usize = 8;

/// Latency handles for one backend: batch/task counts plus queue-wait
/// and execute histograms, all labeled `backend="<name>"` in the
/// registry.
#[derive(Debug, Clone)]
pub struct BackendLat {
    /// Batches executed by this backend.
    pub batches: Arc<Counter>,
    /// Tasks across those batches.
    pub tasks: Arc<Counter>,
    /// Bases across those batches.
    pub bases: Arc<Counter>,
    /// Nanoseconds each batch waited between its cut and the backend
    /// picking it up.
    pub queue_wait_ns: Arc<Histogram>,
    /// Nanoseconds inside `align_batch` per batch.
    pub execute_ns: Arc<Histogram>,
}

/// Live counters shared by the pipeline stages: named handles into
/// one [`Registry`]. Recording is wait-free; see the module docs for
/// the snapshot ordering contract.
#[derive(Debug)]
pub struct StageCounters {
    registry: Arc<Registry>,
    // Reader / candidate generation.
    pub reads_in: Arc<Counter>,
    pub reads_mapped: Arc<Counter>,
    // Decision funnel: how far each read got before it stopped
    // producing anything. `reads_anchored ≥ reads_chained ≥
    // reads_mapped`; at rest `reads_in == reads_aligned +
    // Σ reads_unmapped{reason} + reads_failed`.
    pub reads_anchored: Arc<Counter>,
    pub reads_chained: Arc<Counter>,
    pub reads_aligned: Arc<Counter>,
    pub reads_failed: Arc<Counter>,
    pub unmapped_no_anchors: Arc<Counter>,
    pub unmapped_no_chain: Arc<Counter>,
    pub unmapped_no_candidates: Arc<Counter>,
    /// Ring of the slowest completed reads (not a registry metric:
    /// entries carry names, so it is rendered separately).
    pub slow_reads: Arc<SlowReads>,
    pub tasks_generated: Arc<Counter>,
    pub task_bases: Arc<Counter>,
    pub query_bases: Arc<Counter>,
    pub max_task_bases: Arc<Gauge>,
    // Scheduler.
    pub batches: Arc<Counter>,
    pub batch_tasks: Arc<Counter>,
    pub batch_bases: Arc<Counter>,
    pub max_batch_bases: Arc<Gauge>,
    pub batch_size_bases: Arc<Histogram>,
    // Sink.
    pub records_out: Arc<Counter>,
    // Per-session output buffering: bytes queued in session outboxes
    // and not yet taken by the receivers,
    // its high water, and how often submitters were throttled or
    // connections timed out by the serving layer.
    pub session_output_buffered: Arc<Gauge>,
    pub max_session_output_buffered: Arc<Gauge>,
    pub sessions_throttled: Arc<Counter>,
    pub sessions_timed_out: Arc<Counter>,
    // Residency (bases inside the pipeline between mapper push and
    // sink consumption).
    pub inflight_bases: Arc<Gauge>,
    pub max_inflight_bases: Arc<Gauge>,
    pub inflight_tasks: Arc<Gauge>,
    pub max_inflight_tasks: Arc<Gauge>,
    // Busy time per stage, nanoseconds.
    pub mapper_ns: Arc<Counter>,
    pub scheduler_ns: Arc<Counter>,
    pub backend_ns: Arc<Counter>,
    pub sink_ns: Arc<Counter>,
    // Lifecycle latency histograms, nanoseconds.
    pub read_latency_ns: Arc<Histogram>,
    pub task_queue_wait_ns: Arc<Histogram>,
    pub batch_build_ns: Arc<Histogram>,
    pub reorder_wait_ns: Arc<Histogram>,
}

impl Default for StageCounters {
    fn default() -> StageCounters {
        StageCounters::new()
    }
}

impl StageCounters {
    /// Fresh counters over a private registry.
    pub fn new() -> StageCounters {
        let registry = Arc::new(Registry::new());
        StageCounters {
            reads_in: registry.counter("reads_in"),
            reads_mapped: registry.counter("reads_mapped"),
            reads_anchored: registry.counter("reads_anchored"),
            reads_chained: registry.counter("reads_chained"),
            reads_aligned: registry.counter("reads_aligned"),
            reads_failed: registry.counter("reads_failed"),
            unmapped_no_anchors: registry.labeled_counter("reads_unmapped", "reason", "no_anchors"),
            unmapped_no_chain: registry.labeled_counter("reads_unmapped", "reason", "no_chain"),
            unmapped_no_candidates: registry.labeled_counter(
                "reads_unmapped",
                "reason",
                "no_candidates",
            ),
            slow_reads: Arc::new(SlowReads::new(SLOW_READS_CAPACITY)),
            tasks_generated: registry.counter("tasks_generated"),
            task_bases: registry.counter("task_bases"),
            query_bases: registry.counter("query_bases"),
            max_task_bases: registry.gauge("max_task_bases"),
            batches: registry.counter("batches"),
            batch_tasks: registry.counter("batch_tasks"),
            batch_bases: registry.counter("batch_bases"),
            max_batch_bases: registry.gauge("max_batch_bases"),
            batch_size_bases: registry.histogram("batch_size_bases"),
            records_out: registry.counter("records_out"),
            session_output_buffered: registry.gauge("session_output_buffered_bytes"),
            max_session_output_buffered: registry.gauge("max_session_output_buffered_bytes"),
            sessions_throttled: registry.counter("sessions_throttled"),
            sessions_timed_out: registry.counter("sessions_timed_out"),
            inflight_bases: registry.gauge("inflight_bases"),
            max_inflight_bases: registry.gauge("max_inflight_bases"),
            inflight_tasks: registry.gauge("inflight_tasks"),
            max_inflight_tasks: registry.gauge("max_inflight_tasks"),
            mapper_ns: registry.counter("mapper_busy_ns"),
            scheduler_ns: registry.counter("scheduler_busy_ns"),
            backend_ns: registry.counter("backend_busy_ns"),
            sink_ns: registry.counter("sink_busy_ns"),
            read_latency_ns: registry.histogram("read_latency_ns"),
            task_queue_wait_ns: registry.histogram("task_queue_wait_ns"),
            batch_build_ns: registry.histogram("batch_build_ns"),
            reorder_wait_ns: registry.histogram("reorder_wait_ns"),
            registry,
        }
    }

    /// The backing registry (for raw snapshots and expositions).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Latency handles for backend `name`, registered on first use.
    pub fn backend_lat(&self, name: &str) -> BackendLat {
        let counter = |metric| self.registry.labeled_counter(metric, "backend", name);
        let histogram = |metric| self.registry.labeled_histogram(metric, "backend", name);
        BackendLat {
            batches: counter("backend_batches"),
            tasks: counter("backend_tasks"),
            bases: counter("backend_bases"),
            queue_wait_ns: histogram("backend_queue_wait_ns"),
            execute_ns: histogram("backend_execute_ns"),
        }
    }

    /// Record one read's pass through the candidate funnel stages
    /// (anchors → chains → candidates). `reads_in` is bumped
    /// separately by the ingest stage; this bumps the stage-survival
    /// counters and, for a read that emptied out, the partitioned
    /// `reads_unmapped{reason}` counter. Returns the unmapped reason
    /// when the read produced no candidates.
    pub fn note_funnel(&self, st: &ReadMapStats) -> Option<&'static str> {
        if st.anchors > 0 {
            self.reads_anchored.inc();
        }
        if st.chains > 0 {
            self.reads_chained.inc();
        }
        match st.unmapped_reason() {
            None => {
                self.reads_mapped.inc();
                None
            }
            Some(reason) => {
                self.note_unmapped(reason);
                Some(reason)
            }
        }
    }

    /// Bump the partitioned unmapped counter for `reason`
    /// (`no_anchors` / `no_chain` / `no_candidates`).
    pub fn note_unmapped(&self, reason: &str) {
        match reason {
            "no_anchors" => self.unmapped_no_anchors.inc(),
            "no_chain" => self.unmapped_no_chain.inc(),
            _ => self.unmapped_no_candidates.inc(),
        }
    }

    /// Sum of the partitioned unmapped counters.
    pub fn reads_unmapped(&self) -> u64 {
        self.unmapped_no_anchors.get()
            + self.unmapped_no_chain.get()
            + self.unmapped_no_candidates.get()
    }

    /// Record `n` bases entering the pipeline as one task.
    pub fn task_in(&self, bases: usize) {
        self.tasks_generated.inc();
        self.task_bases.add(bases as u64);
        self.max_task_bases.set_max(bases as u64);
        let now = self.inflight_bases.add(bases as u64);
        self.max_inflight_bases.set_max(now);
        let tasks = self.inflight_tasks.add(1);
        self.max_inflight_tasks.set_max(tasks);
    }

    /// Record a task leaving the pipeline (its sequences are dropped).
    pub fn task_out(&self, bases: usize) {
        self.inflight_bases.sub(bases as u64);
        self.inflight_tasks.sub(1);
    }

    /// Record one dispatched batch.
    pub fn batch_dispatched(&self, tasks: usize, bases: usize) {
        self.batches.inc();
        self.batch_tasks.add(tasks as u64);
        self.batch_bases.add(bases as u64);
        self.max_batch_bases.set_max(bases as u64);
        self.batch_size_bases.record(bases as u64);
    }

    /// Add busy time to a stage counter.
    pub fn add_ns(counter: &Counter, d: Duration) {
        counter.add(d.as_nanos() as u64);
    }
}

/// The decision funnel at snapshot time: how many reads reached each
/// candidate stage and how every finished read was disposed of. At
/// rest, `reads_in == aligned + unmapped_total() + failed` (the
/// per-read accounting invariant the tests assert); mid-run a read
/// counted in `reads_in` may not yet be disposed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunnelCounts {
    /// Reads consumed from the input stream.
    pub reads_in: u64,
    /// Reads with at least one merged anchor.
    pub anchored: u64,
    /// Reads with at least one chain.
    pub chained: u64,
    /// Reads with at least one candidate task (`reads_mapped`).
    pub candidates: u64,
    /// Reads that finished with at least one output record.
    pub aligned: u64,
    /// Reads that finished with no record because alignment failed.
    pub failed: u64,
    /// Unmapped reads whose anchor stage came up empty.
    pub unmapped_no_anchors: u64,
    /// Unmapped reads that anchored but produced no chain.
    pub unmapped_no_chain: u64,
    /// Unmapped reads that chained but emitted no candidate task.
    pub unmapped_no_candidates: u64,
}

impl FunnelCounts {
    /// Total unmapped reads across the partitioned reasons.
    pub fn unmapped_total(&self) -> u64 {
        self.unmapped_no_anchors + self.unmapped_no_chain + self.unmapped_no_candidates
    }

    /// Reads with a terminal disposition so far
    /// (`aligned + unmapped + failed`); equals `reads_in` at rest.
    pub fn accounted(&self) -> u64 {
        self.aligned + self.unmapped_total() + self.failed
    }

    /// Compact JSON object (shared by `--metrics json`, `STATS JSON`,
    /// and the `# stat-frame` stream).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"reads_in\":{},\"anchored\":{},\"chained\":{},\"candidates\":{},\
             \"aligned\":{},\"failed\":{},\
             \"unmapped\":{{\"no_anchors\":{},\"no_chain\":{},\"no_candidates\":{}}}}}",
            self.reads_in,
            self.anchored,
            self.chained,
            self.candidates,
            self.aligned,
            self.failed,
            self.unmapped_no_anchors,
            self.unmapped_no_chain,
            self.unmapped_no_candidates
        )
    }
}

/// Telemetry for one bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueMetrics {
    /// Configured weight capacity.
    pub capacity: usize,
    /// Items ever pushed.
    pub pushed: u64,
    /// Highest resident weight observed.
    pub high_water: u64,
}

/// Latency snapshot for one backend (name-sorted in
/// [`PipelineMetrics::backends`]).
#[derive(Debug, Clone)]
pub struct BackendMetrics {
    /// Backend name (e.g. `cpu`, `gpu-sim`).
    pub name: String,
    /// Batches executed.
    pub batches: u64,
    /// Tasks across those batches.
    pub tasks: u64,
    /// Bases across those batches.
    pub bases: u64,
    /// Dispatch → pickup wait per batch, nanoseconds.
    pub queue_wait: HistogramSnapshot,
    /// `align_batch` time per batch, nanoseconds.
    pub execute: HistogramSnapshot,
}

/// Immutable snapshot of a pipeline run: a thin view over the metric
/// registry plus run-scoped context (queues, index, engine stats,
/// wall clock). Taken at run end by `run_pipeline`, or live at any
/// moment by [`crate::PipelineService::metrics`].
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    /// Reads consumed from the input stream.
    pub reads_in: u64,
    /// Reads that produced at least one candidate task.
    pub reads_mapped: u64,
    /// The decision funnel: stage-survival counts and per-reason
    /// disposition of every finished read.
    pub funnel: FunnelCounts,
    /// Ring of the slowest completed reads, slowest first.
    pub slow_reads: Vec<SlowRead>,
    /// Candidate tasks generated by the mapper stage.
    pub tasks_generated: u64,
    /// Total bases (query + target) across generated tasks.
    pub task_bases: u64,
    /// Total query bases (the throughput denominator).
    pub query_bases: u64,
    /// Largest single task, in bases.
    pub max_task_bases: u64,
    /// Batches dispatched to the backend.
    pub batches: u64,
    /// Tasks across all dispatched batches.
    pub batch_tasks: u64,
    /// Bases across all dispatched batches.
    pub batch_bases: u64,
    /// Largest dispatched batch, in bases.
    pub max_batch_bases: u64,
    /// Sizes of the dispatched batches, in bases.
    pub batch_size_bases: HistogramSnapshot,
    /// Records emitted by the sink.
    pub records_out: u64,
    /// Bytes queued in session outboxes right now, not yet taken by
    /// their receivers.
    pub session_output_buffered_bytes: u64,
    /// Peak bytes queued at any moment across session outboxes.
    pub max_session_output_buffered_bytes: u64,
    /// Times a session's `submit` blocked on one of its per-session
    /// caps: in-flight reads or buffered output bytes (service only).
    pub sessions_throttled: u64,
    /// Sessions aborted by the serving layer's idle timeout.
    pub sessions_timed_out: u64,
    /// Peak bases resident in the pipeline at once.
    pub max_inflight_bases: u64,
    /// Peak tasks resident in the pipeline at once.
    pub max_inflight_tasks: u64,
    /// What the genome index holds: contigs, distinct minimizers and
    /// resident bytes (see [`mapper::ShardedIndex`]).
    pub index: IndexMetrics,
    /// Time spent mapping, summed over reads — with more than one map
    /// worker it can exceed `wall`.
    pub mapper_busy: Duration,
    /// Map workers of a one-shot run (`--threads`); 0 in a service
    /// snapshot, whose sessions map on their submitting threads.
    pub map_workers: usize,
    /// Busy time of building and cutting batches, on whichever thread:
    /// the pushes, the finish cuts and the scheduler's linger scans,
    /// each timed under the dispatch lock, so neither the wait for that
    /// lock nor a push's wait for room in its lane counts.
    pub scheduler_busy: Duration,
    /// Busy time inside backend `align_batch` calls, summed over
    /// batches — with more than one batch in flight it can exceed
    /// `wall`.
    pub backend_busy: Duration,
    /// The most batches that run at once: the threads of the dispatch
    /// lanes that have started, Σ [`crate::Backend::in_flight`] over
    /// their backends. A lane starts at its first batch, so this is
    /// also the number of lane threads that exist: a one-shot run's
    /// backend's value once a batch ran, 0 before a service's first
    /// batch (an open session that has sent nothing starts no lane),
    /// and never the lanes of backends no session used. 0 in a
    /// snapshot no service filled in.
    pub in_flight_lanes: usize,
    /// Busy time of the reorder/format sink stage.
    pub sink_busy: Duration,
    /// End-to-end wall clock of the run.
    pub wall: Duration,
    /// The lanes' building batches in bases (capacity `batch_bases` per
    /// lane, pushed = tasks; the push that fills a batch counts).
    pub task_queue: QueueMetrics,
    /// The lanes' batches cut and not yet started, summed over the
    /// lanes: capacity `queue_depth` each, pushed = batches cut.
    pub batch_queue: QueueMetrics,
    /// Finished batches the sink has not taken (capacity: the window).
    pub result_queue: QueueMetrics,
    /// Alignment-engine instrumentation drained from the backend after
    /// the run (`None` for backends that collect none, e.g. the
    /// baselines): window counts, DP traffic, and the error-band
    /// counters (`band_cells_skipped`, `windows_early_terminated`,
    /// `peak_band_rows`).
    pub engine: Option<genasm_core::MemStats>,
    /// Per-read end-to-end latency (submit → last record emitted), ns.
    pub read_latency: HistogramSnapshot,
    /// A task's wait for room in its lane before its push, ns (0 when
    /// the lane had room).
    pub task_queue_wait: HistogramSnapshot,
    /// Batch build time (first task in → cut), ns.
    pub batch_build: HistogramSnapshot,
    /// Result wait between backend completion and sink pickup, ns.
    pub reorder_wait: HistogramSnapshot,
    /// Per-backend batch counts and latency histograms, name-sorted.
    pub backends: Vec<BackendMetrics>,
    /// Raw registry snapshot backing the fields above (the source for
    /// [`PipelineMetrics::to_prometheus`] and `le_monotonic`).
    pub registry: Snapshot,
}

impl PipelineMetrics {
    /// Fraction of the in-flight lanes' time (`in_flight_lanes ×
    /// wall`) spent inside `align_batch`, in `[0, 1]`: what is missing
    /// from 1 is a slot waiting for a batch.
    pub fn backend_utilization(&self) -> f64 {
        let lanes = self.in_flight_lanes as f64 * self.wall.as_secs_f64();
        if lanes == 0.0 {
            return 0.0;
        }
        (self.backend_busy.as_secs_f64() / lanes).min(1.0)
    }

    /// Mean number of batches inside `align_batch` over the run
    /// (`backend_busy ÷ wall`): above 1 only when batches overlapped.
    pub fn mean_batches_in_flight(&self) -> f64 {
        if self.wall.as_nanos() == 0 {
            return 0.0;
        }
        self.backend_busy.as_secs_f64() / self.wall.as_secs_f64()
    }

    /// Fraction of the map lanes' time (`map_workers × wall`) spent
    /// mapping, in `[0, 1]`: what is missing from 1 is lanes waiting —
    /// for the hand-off window, a full lane or the input. 0 for a
    /// service snapshot, which has no map workers of its own.
    pub fn map_utilization(&self) -> f64 {
        let lanes = self.map_workers as f64 * self.wall.as_secs_f64();
        if lanes == 0.0 {
            return 0.0;
        }
        (self.mapper_busy.as_secs_f64() / lanes).min(1.0)
    }

    /// Mean bases per dispatched batch.
    pub fn mean_batch_bases(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batch_bases as f64 / self.batches as f64
    }

    /// End-to-end aligned query bases per second.
    pub fn query_bases_per_sec(&self) -> f64 {
        if self.wall.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.query_bases as f64 / self.wall.as_secs_f64()
    }

    /// Check that `self` could be an earlier snapshot of the same
    /// live pipeline as `later`: every counter and histogram field in
    /// the registry is `≤` its counterpart, and the engine window
    /// counter has not gone backwards. Returns the first offending
    /// metric on failure. See the module docs for what mid-run
    /// snapshots do and do not guarantee.
    pub fn le_monotonic(&self, later: &PipelineMetrics) -> Result<(), String> {
        self.registry.monotonic_le(&later.registry)?;
        let (a, b) = match (&self.engine, &later.engine) {
            (Some(a), Some(b)) => (a, b),
            _ => return Ok(()),
        };
        if a.windows > b.windows {
            return Err(format!(
                "engine.windows went backwards ({} > {})",
                a.windows, b.windows
            ));
        }
        Ok(())
    }

    /// Multi-line human-readable summary (CLI `--metrics` output).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write;
        let _ = writeln!(
            s,
            "pipeline: {} reads in ({} mapped), {} tasks, {} records out",
            self.reads_in, self.reads_mapped, self.tasks_generated, self.records_out
        );
        let f = &self.funnel;
        let _ = writeln!(
            s,
            "funnel:   in={} anchored={} chained={} candidates={} aligned={} \
             unmapped={} (no_anchors {}, no_chain {}, no_candidates {}) failed={}",
            f.reads_in,
            f.anchored,
            f.chained,
            f.candidates,
            f.aligned,
            f.unmapped_total(),
            f.unmapped_no_anchors,
            f.unmapped_no_chain,
            f.unmapped_no_candidates,
            f.failed
        );
        let _ = writeln!(
            s,
            "batches:  {} dispatched, mean {:.0} bases, max {} bases",
            self.batches,
            self.mean_batch_bases(),
            self.max_batch_bases
        );
        let _ = writeln!(
            s,
            "queues:   task {}/{} bases, batch {}/{}, result {}/{} (high-water/capacity)",
            self.task_queue.high_water,
            self.task_queue.capacity,
            self.batch_queue.high_water,
            self.batch_queue.capacity,
            self.result_queue.high_water,
            self.result_queue.capacity
        );
        let _ = writeln!(
            s,
            "memory:   peak {} tasks / {} bases in flight",
            self.max_inflight_tasks, self.max_inflight_bases
        );
        if self.read_latency.count > 0 {
            let fmt = |ns: u64| format!("{:.1?}", Duration::from_nanos(ns));
            let _ = writeln!(
                s,
                "latency:  read p50 {} / p90 {} / p99 {}, task-queue p99 {}, reorder p99 {}",
                fmt(self.read_latency.p50()),
                fmt(self.read_latency.p90()),
                fmt(self.read_latency.p99()),
                fmt(self.task_queue_wait.p99()),
                fmt(self.reorder_wait.p99()),
            );
        }
        for b in &self.backends {
            let fmt = |ns: u64| format!("{:.1?}", Duration::from_nanos(ns));
            let _ = writeln!(
                s,
                "backend:  {} {} batches / {} tasks, queue-wait p50 {} / p99 {}, execute p50 {} / p99 {}",
                b.name,
                b.batches,
                b.tasks,
                fmt(b.queue_wait.p50()),
                fmt(b.queue_wait.p99()),
                fmt(b.execute.p50()),
                fmt(b.execute.p99()),
            );
        }
        if let Some(e) = &self.engine {
            let _ = writeln!(
                s,
                "band:     {} windows ({} early-terminated), \
                 {} cells skipped, peak band {} rows",
                e.windows, e.windows_early_terminated, e.band_cells_skipped, e.peak_band_rows
            );
        }
        let _ = writeln!(
            s,
            "index:    {} distinct minimizers over {} contig(s) \
             ({} index bytes, {} resident ref bytes)",
            self.index.distinct_minimizers,
            self.index.contigs,
            self.index.index_bytes,
            self.index.reference_bytes
        );
        let _ = writeln!(
            s,
            "busy:     map {:.1?} (map_workers={}, {:.0}% util), schedule {:.1?}, backend {:.1?} \
             ({:.2} batches in flight of {}, {:.0}% util), sink {:.1?}, wall {:.1?}",
            self.mapper_busy,
            self.map_workers,
            100.0 * self.map_utilization(),
            self.scheduler_busy,
            self.backend_busy,
            self.mean_batches_in_flight(),
            self.in_flight_lanes,
            100.0 * self.backend_utilization(),
            self.sink_busy,
            self.wall
        );
        let _ = writeln!(
            s,
            "rate:     {:.0} query bases/s end-to-end",
            self.query_bases_per_sec()
        );
        s
    }

    /// Single-line machine-readable JSON — a superset of
    /// [`PipelineMetrics::summary`] (CLI `--metrics json`, server
    /// `STATS JSON`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema\":\"genasm-pipeline-metrics/v1\",\
             \"reads_in\":{},\"reads_mapped\":{},\"tasks_generated\":{},\
             \"task_bases\":{},\"query_bases\":{},\"max_task_bases\":{},\
             \"batches\":{},\"batch_tasks\":{},\"batch_bases\":{},\
             \"max_batch_bases\":{},\"records_out\":{},\
             \"max_inflight_bases\":{},\"max_inflight_tasks\":{},\
             \"wall_ns\":{},\
             \"query_bases_per_sec\":{},\"backend_utilization\":{},\
             \"batches_in_flight\":{},\"in_flight_lanes\":{},\"map_utilization\":{}",
            self.reads_in,
            self.reads_mapped,
            self.tasks_generated,
            self.task_bases,
            self.query_bases,
            self.max_task_bases,
            self.batches,
            self.batch_tasks,
            self.batch_bases,
            self.max_batch_bases,
            self.records_out,
            self.max_inflight_bases,
            self.max_inflight_tasks,
            self.wall.as_nanos(),
            genasm_telemetry::json::number(self.query_bases_per_sec()),
            genasm_telemetry::json::number(self.backend_utilization()),
            genasm_telemetry::json::number(self.mean_batches_in_flight()),
            self.in_flight_lanes,
            genasm_telemetry::json::number(self.map_utilization()),
        );
        let _ = write!(s, ",\"funnel\":{}", self.funnel.to_json());
        let _ = write!(
            s,
            ",\"slow_reads\":{}",
            genasm_telemetry::slow::to_json(&self.slow_reads)
        );
        let _ = write!(
            s,
            ",\"sessions\":{{\"output_buffered_bytes\":{},\"max_output_buffered_bytes\":{},\
             \"throttled\":{},\"timed_out\":{}}}",
            self.session_output_buffered_bytes,
            self.max_session_output_buffered_bytes,
            self.sessions_throttled,
            self.sessions_timed_out
        );
        let _ = write!(
            s,
            ",\"busy_ns\":{{\"mapper\":{},\"scheduler\":{},\"backend\":{},\"sink\":{}}}",
            self.mapper_busy.as_nanos(),
            self.scheduler_busy.as_nanos(),
            self.backend_busy.as_nanos(),
            self.sink_busy.as_nanos()
        );
        let queue = |q: &QueueMetrics| {
            format!(
                "{{\"capacity\":{},\"pushed\":{},\"high_water\":{}}}",
                q.capacity, q.pushed, q.high_water
            )
        };
        let _ = write!(
            s,
            ",\"queues\":{{\"task\":{},\"batch\":{},\"result\":{}}}",
            queue(&self.task_queue),
            queue(&self.batch_queue),
            queue(&self.result_queue)
        );
        let _ = write!(
            s,
            ",\"index\":{{\"contigs\":{},\"distinct_minimizers\":{},\
             \"index_bytes\":{},\"reference_bytes\":{}}}",
            self.index.contigs,
            self.index.distinct_minimizers,
            self.index.index_bytes,
            self.index.reference_bytes
        );
        match &self.engine {
            Some(e) => {
                let _ = write!(s, ",\"engine\":{}", e.to_json());
            }
            None => s.push_str(",\"engine\":null"),
        }
        let _ = write!(
            s,
            ",\"latency\":{{\"read\":{},\"task_queue_wait\":{},\
             \"batch_build\":{},\"reorder_wait\":{},\"batch_size_bases\":{}}}",
            self.read_latency.to_json(),
            self.task_queue_wait.to_json(),
            self.batch_build.to_json(),
            self.reorder_wait.to_json(),
            self.batch_size_bases.to_json(),
        );
        s.push_str(",\"backends\":{");
        for (i, b) in self.backends.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"batches\":{},\"tasks\":{},\"bases\":{},\"queue_wait\":{},\"execute\":{}}}",
                genasm_telemetry::json::escape(&b.name),
                b.batches,
                b.tasks,
                b.bases,
                b.queue_wait.to_json(),
                b.execute.to_json()
            );
        }
        s.push_str("}}");
        s
    }

    /// Prometheus text exposition: every registry metric under the
    /// `genasm_` prefix, plus run-scoped context (queues, index,
    /// engine counters, wall clock) rendered as gauges/counters.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        fn line(out: &mut String, name: &str, kind: &str, v: u64) {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {v}");
        }
        let mut out = self.registry.to_prometheus("genasm_");
        line(
            &mut out,
            "genasm_wall_ns",
            "counter",
            self.wall.as_nanos() as u64,
        );
        for (q, qname) in [
            (&self.task_queue, "task"),
            (&self.batch_queue, "batch"),
            (&self.result_queue, "result"),
        ] {
            let _ = writeln!(out, "# TYPE genasm_queue_high_water gauge");
            let _ = writeln!(
                out,
                "genasm_queue_high_water{{queue=\"{qname}\"}} {}",
                q.high_water
            );
            let _ = writeln!(out, "# TYPE genasm_queue_capacity gauge");
            let _ = writeln!(
                out,
                "genasm_queue_capacity{{queue=\"{qname}\"}} {}",
                q.capacity
            );
        }
        for (name, v) in [
            ("genasm_index_contigs", self.index.contigs),
            (
                "genasm_index_distinct_minimizers",
                self.index.distinct_minimizers,
            ),
            ("genasm_index_bytes", self.index.index_bytes),
            ("genasm_index_reference_bytes", self.index.reference_bytes),
        ] {
            line(&mut out, name, "gauge", v as u64);
        }
        if let Some(e) = &self.engine {
            line(
                &mut out,
                "genasm_engine_windows_total",
                "counter",
                e.windows,
            );
            line(
                &mut out,
                "genasm_engine_windows_early_terminated_total",
                "counter",
                e.windows_early_terminated,
            );
            line(
                &mut out,
                "genasm_engine_band_cells_skipped_total",
                "counter",
                e.band_cells_skipped,
            );
            line(
                &mut out,
                "genasm_engine_peak_band_rows",
                "gauge",
                e.peak_band_rows,
            );
        }
        out
    }

    pub(crate) fn snapshot(
        c: &StageCounters,
        wall: Duration,
        index: IndexMetrics,
        task_queue: QueueMetrics,
        batch_queue: QueueMetrics,
        result_queue: QueueMetrics,
        engine: Option<genasm_core::MemStats>,
    ) -> PipelineMetrics {
        // One copy of the registry, taken first, fills every field
        // below, so a field, its twin in the funnel and the Prometheus
        // rendering of the same snapshot can never disagree. A name
        // that is misspelt here reads as zero; the rendering golden
        // below sets every metric and would show it.
        let reg = c.registry.snapshot();
        let n = |name: &str| reg.scalar(name, None);
        let unmapped = |reason: &str| reg.scalar("reads_unmapped", Some(reason));
        let funnel = FunnelCounts {
            reads_in: n("reads_in"),
            anchored: n("reads_anchored"),
            chained: n("reads_chained"),
            candidates: n("reads_mapped"),
            aligned: n("reads_aligned"),
            failed: n("reads_failed"),
            unmapped_no_anchors: unmapped("no_anchors"),
            unmapped_no_chain: unmapped("no_chain"),
            unmapped_no_candidates: unmapped("no_candidates"),
        };
        PipelineMetrics {
            reads_in: funnel.reads_in,
            reads_mapped: funnel.candidates,
            funnel,
            slow_reads: c.slow_reads.snapshot(),
            tasks_generated: n("tasks_generated"),
            task_bases: n("task_bases"),
            query_bases: n("query_bases"),
            max_task_bases: n("max_task_bases"),
            batches: n("batches"),
            batch_tasks: n("batch_tasks"),
            batch_bases: n("batch_bases"),
            max_batch_bases: n("max_batch_bases"),
            batch_size_bases: reg.histogram("batch_size_bases", None),
            records_out: n("records_out"),
            session_output_buffered_bytes: n("session_output_buffered_bytes"),
            max_session_output_buffered_bytes: n("max_session_output_buffered_bytes"),
            sessions_throttled: n("sessions_throttled"),
            sessions_timed_out: n("sessions_timed_out"),
            max_inflight_bases: n("max_inflight_bases"),
            max_inflight_tasks: n("max_inflight_tasks"),
            index,
            mapper_busy: Duration::from_nanos(n("mapper_busy_ns")),
            map_workers: 0,
            in_flight_lanes: 0,
            scheduler_busy: Duration::from_nanos(n("scheduler_busy_ns")),
            backend_busy: Duration::from_nanos(n("backend_busy_ns")),
            sink_busy: Duration::from_nanos(n("sink_busy_ns")),
            wall,
            task_queue,
            batch_queue,
            result_queue,
            engine,
            read_latency: reg.histogram("read_latency_ns", None),
            task_queue_wait: reg.histogram("task_queue_wait_ns", None),
            batch_build: reg.histogram("batch_build_ns", None),
            reorder_wait: reg.histogram("reorder_wait_ns", None),
            backends: reg
                .labels("backend_batches")
                .map(|name| BackendMetrics {
                    name: name.to_string(),
                    batches: reg.scalar("backend_batches", Some(name)),
                    tasks: reg.scalar("backend_tasks", Some(name)),
                    bases: reg.scalar("backend_bases", Some(name)),
                    queue_wait: reg.histogram("backend_queue_wait_ns", Some(name)),
                    execute: reg.histogram("backend_execute_ns", Some(name)),
                })
                .collect(),
            registry: reg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q1() -> QueueMetrics {
        QueueMetrics {
            capacity: 1,
            pushed: 0,
            high_water: 0,
        }
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let c = StageCounters::default();
        c.batch_dispatched(1, 0); // bucket 0
        c.batch_dispatched(1, 1); // 2^0 -> bucket 1
        c.batch_dispatched(1, 2); // bucket 2
        c.batch_dispatched(1, 3); // bucket 2
        c.batch_dispatched(4, 4096); // bucket 13
        let m = PipelineMetrics::snapshot(
            &c,
            Duration::from_secs(1),
            IndexMetrics::default(),
            q1(),
            q1(),
            q1(),
            None,
        );
        assert_eq!(m.batch_size_bases.buckets[0], 1);
        assert_eq!(m.batch_size_bases.buckets[1], 1);
        assert_eq!(m.batch_size_bases.buckets[2], 2);
        assert_eq!(m.batch_size_bases.buckets[13], 1);
        assert_eq!(m.batch_size_bases.count, m.batches);
        assert_eq!(m.batches, 5);
        assert_eq!(m.max_batch_bases, 4096);
        assert!((m.mean_batch_bases() - 4102.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn inflight_peaks_track_residency() {
        let c = StageCounters::default();
        c.task_in(100);
        c.task_in(50);
        c.task_out(100);
        c.task_in(10);
        assert_eq!(c.max_inflight_bases.get(), 150);
        assert_eq!(c.max_inflight_tasks.get(), 2);
        assert_eq!(c.inflight_bases.get(), 60);
    }

    #[test]
    fn utilization_is_clamped() {
        let c = StageCounters::default();
        StageCounters::add_ns(&c.backend_ns, Duration::from_secs(10));
        StageCounters::add_ns(&c.mapper_ns, Duration::from_secs(3));
        let q = q1();
        let mut m = PipelineMetrics::snapshot(
            &c,
            Duration::from_secs(2),
            IndexMetrics::default(),
            q,
            q,
            q,
            None,
        );
        // 10 s of batches in 2 s: five in flight on average, which
        // fills one lane or two and five eighths of eight.
        assert_eq!(m.mean_batches_in_flight(), 5.0);
        assert_eq!(m.backend_utilization(), 0.0);
        m.in_flight_lanes = 2;
        assert_eq!(m.backend_utilization(), 1.0);
        m.in_flight_lanes = 8;
        assert_eq!(m.backend_utilization(), 0.625);
        // A service snapshot has no map lanes; 3 s of mapping is all of
        // one lane's 2 s and three eighths of four lanes'.
        assert_eq!(m.map_utilization(), 0.0);
        m.map_workers = 1;
        assert_eq!(m.map_utilization(), 1.0);
        m.map_workers = 4;
        assert_eq!(m.map_utilization(), 0.375);
        assert!(!m.summary().is_empty());
        // Without engine stats the band line is absent entirely.
        assert!(!m.summary().contains("band:"), "{}", m.summary());
    }

    #[test]
    fn summary_renders_band_counters_when_present() {
        let c = StageCounters::default();
        let q = q1();
        let engine = genasm_core::MemStats {
            windows: 10,
            windows_early_terminated: 7,
            band_cells_skipped: 1234,
            peak_band_rows: 65,
            ..genasm_core::MemStats::default()
        };
        let m = PipelineMetrics::snapshot(
            &c,
            Duration::from_secs(1),
            IndexMetrics::default(),
            q,
            q,
            q,
            Some(engine),
        );
        let s = m.summary();
        assert!(
            s.contains("band:     10 windows (7 early-terminated)"),
            "{s}"
        );
        assert!(s.contains("1234 cells skipped, peak band 65 rows"), "{s}");
    }

    #[test]
    fn summary_reports_index_telemetry() {
        let c = StageCounters::default();
        let q = q1();
        let index = IndexMetrics {
            contigs: 3,
            distinct_minimizers: 1_234,
            index_bytes: 20_480,
            reference_bytes: 250,
        };
        let m = PipelineMetrics::snapshot(&c, Duration::from_secs(1), index, q, q, q, None);
        let s = m.summary();
        assert!(
            s.contains(
                "index:    1234 distinct minimizers over 3 contig(s) \
                 (20480 index bytes, 250 resident ref bytes)"
            ),
            "{s}"
        );
        let json = m.to_json();
        assert!(
            json.contains(
                "\"index\":{\"contigs\":3,\"distinct_minimizers\":1234,\
                 \"index_bytes\":20480,\"reference_bytes\":250}"
            ),
            "{json}"
        );
        let prom = m.to_prometheus();
        assert!(prom.contains("genasm_index_bytes 20480\n"), "{prom}");
        assert!(!prom.contains("genasm_shards"), "{prom}");
    }

    #[test]
    fn summary_and_json_render_latency_and_backends() {
        let c = StageCounters::default();
        c.read_latency_ns.record(1_000_000);
        c.task_queue_wait_ns.record(10_000);
        c.reorder_wait_ns.record(20_000);
        let lat = c.backend_lat("cpu");
        lat.batches.inc();
        lat.tasks.add(8);
        lat.queue_wait_ns.record(5_000);
        lat.execute_ns.record(2_000_000);
        let m = PipelineMetrics::snapshot(
            &c,
            Duration::from_secs(1),
            IndexMetrics::default(),
            q1(),
            q1(),
            q1(),
            None,
        );
        let s = m.summary();
        assert!(s.contains("latency:  read p50"), "{s}");
        assert!(s.contains("backend:  cpu 1 batches / 8 tasks"), "{s}");
        let j = m.to_json();
        assert!(
            j.starts_with("{\"schema\":\"genasm-pipeline-metrics/v1\""),
            "{j}"
        );
        assert!(
            j.contains("\"backends\":{\"cpu\":{\"batches\":1,\"tasks\":8"),
            "{j}"
        );
        assert!(j.contains("\"engine\":null"), "{j}");
        assert!(j.contains("\"latency\":{\"read\":{\"count\":1"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
    }

    #[test]
    fn prometheus_exposition_covers_registry_and_context() {
        let c = StageCounters::default();
        c.reads_in.add(3);
        c.backend_lat("cpu").execute_ns.record(100);
        let m = PipelineMetrics::snapshot(
            &c,
            Duration::from_secs(1),
            IndexMetrics::default(),
            q1(),
            q1(),
            q1(),
            Some(genasm_core::MemStats {
                windows: 2,
                ..genasm_core::MemStats::default()
            }),
        );
        let p = m.to_prometheus();
        assert!(p.contains("genasm_reads_in_total 3"), "{p}");
        assert!(
            p.contains("genasm_backend_execute_ns_count{backend=\"cpu\"} 1"),
            "{p}"
        );
        assert!(
            p.contains("genasm_queue_high_water{queue=\"task\"} 0"),
            "{p}"
        );
        assert!(p.contains("genasm_engine_windows_total 2"), "{p}");
    }

    #[test]
    fn funnel_counts_render_in_summary_json_and_prometheus() {
        let c = StageCounters::default();
        // Three reads: mapped+aligned, unmapped(no_chain),
        // mapped+failed.
        c.reads_in.add(3);
        assert_eq!(
            c.note_funnel(&ReadMapStats {
                anchors: 4,
                chains: 2,
                candidates: 2,
            }),
            None
        );
        c.reads_aligned.inc();
        assert_eq!(
            c.note_funnel(&ReadMapStats {
                anchors: 1,
                chains: 0,
                candidates: 0,
            }),
            Some("no_chain")
        );
        assert_eq!(
            c.note_funnel(&ReadMapStats {
                anchors: 2,
                chains: 1,
                candidates: 1,
            }),
            None
        );
        c.reads_failed.inc();
        c.slow_reads.observe("slow\"one", 9_999, "aligned");
        assert_eq!(c.reads_unmapped(), 1);
        let m = PipelineMetrics::snapshot(
            &c,
            Duration::from_secs(1),
            IndexMetrics::default(),
            q1(),
            q1(),
            q1(),
            None,
        );
        let f = &m.funnel;
        assert_eq!(f.reads_in, 3);
        assert_eq!(f.anchored, 3);
        assert_eq!(f.chained, 2);
        assert_eq!(f.candidates, 2);
        assert_eq!(f.aligned, 1);
        assert_eq!(f.failed, 1);
        assert_eq!(f.unmapped_total(), 1);
        assert_eq!(f.accounted(), f.reads_in);
        let s = m.summary();
        assert!(
            s.contains(
                "funnel:   in=3 anchored=3 chained=2 candidates=2 aligned=1 \
                 unmapped=1 (no_anchors 0, no_chain 1, no_candidates 0) failed=1"
            ),
            "{s}"
        );
        let j = m.to_json();
        assert!(
            j.contains("\"funnel\":{\"reads_in\":3,\"anchored\":3,\"chained\":2"),
            "{j}"
        );
        assert!(
            j.contains("\"unmapped\":{\"no_anchors\":0,\"no_chain\":1,\"no_candidates\":0}"),
            "{j}"
        );
        assert!(
            j.contains("\"slow_reads\":[{\"read\":\"slow\\\"one\",\"latency_ns\":9999"),
            "{j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        let p = m.to_prometheus();
        assert!(
            p.contains("genasm_reads_unmapped_total{reason=\"no_chain\"} 1"),
            "{p}"
        );
        assert!(p.contains("genasm_reads_aligned_total 1"), "{p}");
    }

    /// 64-bit FNV-1a, the digest the rendering golden pins.
    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A snapshot with every counter, gauge, histogram and labelled
    /// series set to a fixed value of its own.
    fn fully_populated() -> PipelineMetrics {
        let c = StageCounters::default();
        c.reads_in.add(13);
        c.reads_anchored.add(12);
        c.reads_chained.add(10);
        c.reads_mapped.add(7);
        c.reads_aligned.add(6);
        c.reads_failed.add(1);
        c.unmapped_no_anchors.add(1);
        c.unmapped_no_chain.add(2);
        c.unmapped_no_candidates.add(3);
        c.slow_reads.observe("slow\"one", 9_999_999, "aligned");
        c.slow_reads.observe("quick", 1_234, "unmapped:no_chain");
        c.task_in(1_800);
        c.task_in(2_400);
        c.task_in(700);
        c.task_out(1_800);
        c.query_bases.add(2_100);
        c.batch_dispatched(2, 4_200);
        c.batch_dispatched(1, 700);
        c.batch_dispatched(0, 0);
        c.records_out.add(7);
        c.session_output_buffered.set(512);
        c.max_session_output_buffered.set_max(4_096);
        c.sessions_throttled.add(5);
        c.sessions_timed_out.add(3);
        StageCounters::add_ns(&c.mapper_ns, Duration::from_micros(3_100));
        StageCounters::add_ns(&c.scheduler_ns, Duration::from_micros(45));
        StageCounters::add_ns(&c.backend_ns, Duration::from_micros(1_700));
        StageCounters::add_ns(&c.sink_ns, Duration::from_micros(230));
        for ns in [0, 1_234, 800_000, 1_500_000, 9_999_999] {
            c.read_latency_ns.record(ns);
        }
        for ns in [10_000, 12_000, 70_000] {
            c.task_queue_wait_ns.record(ns);
        }
        c.batch_build_ns.record(3_000_000);
        c.batch_build_ns.record(5);
        c.reorder_wait_ns.record(20_000);
        let cpu = c.backend_lat("cpu");
        cpu.batches.add(2);
        cpu.tasks.add(5);
        cpu.bases.add(2_500);
        cpu.queue_wait_ns.record(5_000);
        cpu.queue_wait_ns.record(40_000);
        cpu.execute_ns.record(900_000);
        cpu.execute_ns.record(600_000);
        let gpu = c.backend_lat("gpu-sim");
        gpu.batches.add(1);
        gpu.tasks.add(3);
        gpu.bases.add(2_400);
        gpu.queue_wait_ns.record(7_000);
        gpu.execute_ns.record(200_000);
        let queue = |capacity, pushed, high_water| QueueMetrics {
            capacity,
            pushed,
            high_water,
        };
        let mut m = PipelineMetrics::snapshot(
            &c,
            Duration::from_micros(2_500),
            IndexMetrics {
                contigs: 2,
                distinct_minimizers: 1_234,
                index_bytes: 20_480,
                reference_bytes: 250,
            },
            queue(8_192, 3, 4_200),
            queue(8, 3, 2),
            queue(4, 3, 1),
            Some(genasm_core::MemStats {
                windows: 90,
                rows_computed: 466,
                cells_computed: 29_512,
                table_words: 19_139,
                table_stores: 19_140,
                table_loads: 3_652,
                scratch_stores: 29_513,
                scratch_loads: 47_336,
                band_cells_skipped: 338_128,
                windows_early_terminated: 88,
                peak_band_rows: 15,
                ..genasm_core::MemStats::default()
            }),
        );
        m.map_workers = 2;
        m.in_flight_lanes = 2;
        m
    }

    /// The three renderings are an external format: `validate_telemetry.py`,
    /// `ctl top` and `genasm-bench` parse them. Pin them byte for byte
    /// (length + FNV-1a) for a snapshot with everything set and for an
    /// empty one, so a change to how the snapshot is filled or rendered
    /// shows up here.
    #[test]
    fn renderings_match_the_golden_digests() {
        let empty = PipelineMetrics::snapshot(
            &StageCounters::default(),
            Duration::ZERO,
            IndexMetrics::default(),
            q1(),
            q1(),
            q1(),
            None,
        );
        let full = fully_populated();
        let got: Vec<(usize, u64)> = [
            full.summary(),
            full.to_json(),
            full.to_prometheus(),
            empty.summary(),
            empty.to_json(),
            empty.to_prometheus(),
        ]
        .iter()
        .map(|s| (s.len(), fnv1a(s)))
        .collect();
        let want = [
            (1039, 16186980739395067317),
            (2692, 18031709127712077190),
            (14157, 916115500807100767),
            (605, 5770003253152216605),
            (1453, 12581765053040343833),
            (3736, 13938684713246875713),
        ];
        assert_eq!(
            got, want,
            "(bytes, FNV-1a) of full/empty summary, JSON, PROM"
        );
    }

    #[test]
    fn snapshots_are_monotonic_under_progress() {
        let c = StageCounters::default();
        c.task_in(10);
        c.read_latency_ns.record(100);
        let a = PipelineMetrics::snapshot(
            &c,
            Duration::from_secs(1),
            IndexMetrics::default(),
            q1(),
            q1(),
            q1(),
            None,
        );
        c.task_in(20);
        c.read_latency_ns.record(300);
        c.records_out.inc();
        let b = PipelineMetrics::snapshot(
            &c,
            Duration::from_secs(2),
            IndexMetrics::default(),
            q1(),
            q1(),
            q1(),
            None,
        );
        assert!(a.le_monotonic(&b).is_ok());
        let err = b.le_monotonic(&a).unwrap_err();
        assert!(!err.is_empty());
    }
}
