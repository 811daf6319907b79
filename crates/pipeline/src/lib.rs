//! # genasm-pipeline
//!
//! A streaming, multi-backend alignment pipeline with **one** stage
//! core — the resident [`service::PipelineService`]:
//!
//! ```text
//!  session(s) ──► candidate generation ──push──► dispatch lanes ──────────► ordered sink
//!  (submit, or    (genome index; mapped          (one per backend: a        (global reorder,
//!   N one-shot     ≤ 4 reads per thread           building batch, queue_     per-session rows)
//!   map workers)   ahead, enqueued in order)      depth cut, in_flight threads)
//!                                                └──────────── Dispatch ────────────┘
//!                                    building batches, lanes, release window, reorder buffer
//! ```
//!
//! [`run_pipeline`] — the one-shot batch entry point — is a thin
//! wrapper that opens a single session on a private service and pumps
//! the read iterator through it — on as many map workers as the CPU
//! backend has threads, each mapping one read at a time and parking it
//! for a bounded, ordered hand-off (a worker runs at most four reads
//! per worker ahead of the read whose turn it is, one while a push
//! waits for room in the lane; whoever holds that read enqueues it and
//! the parked ones behind it, in input order). That hand-off is one
//! private value, `HandOff`, with no lock or thread inside: its methods
//! are the only transitions, and a unit test runs them over every
//! schedule of up to 3 workers and 6 reads; so is the batch path's,
//! `Dispatch`, from the push to the release, and a session's delivery
//! state's, `Outbox`, from admission to the receiver. The
//! scheduler/dispatch/sink stages exist once, in [`service`], so the
//! one-shot path and the server share them *structurally* rather than
//! by byte-equivalence testing.
//!
//! Who runs the stages: one function in [`service`], on a
//! [`std::thread::Scope`], over a backend table the stages only borrow;
//! the scheduler runs on the thread that calls it. [`run_pipeline`]
//! calls it on a thread of the scope it opens for its ingest thread,
//! over the caller's `&dyn Backend` as it came; a resident service
//! calls it on one host thread that owns its boxed table.
//! Engine work — a CPU batch, the simulated GPU's blocks — fans out on
//! the `--threads` pool, the dispatcher being one of its workers. A
//! backend says how many of its batches may run at once
//! ([`Backend::in_flight`]): the CPU engines take two, so while one
//! batch's last and longest task runs, the next batch's fan-out takes
//! the core it leaves idle. Each backend has a lane of its own — its
//! batches and that many threads taking them in cut order — so no
//! batch waits to start behind another backend's.
//!
//! The paper's evaluation drives GenASM as a one-shot batch: load every
//! read, generate every candidate, align, print. This crate gives the
//! suite the shape a production service needs — a *continuous stream*
//! of alignment work fed to whichever backend is fastest — with three
//! invariants:
//!
//! * **Bounded memory.** A task goes from its push into its backend's
//!   building batch, and a lane and the release window count batches,
//!   so peak resident task memory is `O(queue_depth × batch_bases)`
//!   regardless of input size ([`PipelineConfig::resident_bases_bound`]).
//!   A full lane blocks the pushes into it (backpressure) instead of
//!   buffering.
//! * **Deterministic output.** The scheduler numbers batches, the sink
//!   takes them in that order from the reorder buffer, and
//!   per-read rows are sorted by [`record::AlignRecord::cmp_best_first`] —
//!   so output is byte-identical for every batch size, queue depth and
//!   thread count, and byte-identical to the one-shot `genasm align`
//!   path.
//! * **Observable stages.** [`metrics::PipelineMetrics`] reports
//!   per-stage busy time and throughput, queue depths, the batch-size
//!   histogram, backend utilization, peak in-flight bases, and what
//!   the genome index holds (contigs, distinct minimizers, bytes).
//!
//! The candidate-generation stage maps each read against a
//! [`mapper::ShardedIndex`] built from a multi-contig
//! [`align_core::Reference`]: one minimizer index over every contig at
//! global positions, which takes the contigs' bases as the only copy
//! of the reference. A read probes each of its minimizers once on the
//! thread that maps it, and chains never span two contigs; output is
//! byte-identical across map-worker counts.
//! Records report contig names and contig-local coordinates.
//!
//! Backends implement [`backend::Backend`] — the one seam an engine
//! plugs into: the impl plus a [`BackendKind`] row put it on the CLI
//! and in the server. The Rayon CPU batch aligner, the
//! simulated GPU, and both baselines ship in [`backend`]; the GenASM
//! engines reuse per-worker workspaces, so their hot path stays
//! allocation-free in steady state. A backend that panics fails its
//! batch like one that returns an error; the stages keep running.

#![forbid(unsafe_code)]

pub mod backend;
pub mod batcher;
mod dispatch;
pub mod explain;
pub mod metrics;
mod outbox;
pub mod record;
pub mod service;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use align_core::{Reference, Seq};
use mapper::CandidateParams;
use service::MappedRead;

pub use backend::{
    Backend, BackendError, BackendKind, CpuBackend, GpuSimBackend, ParseBackendError,
};
pub use batcher::{Batch, BatchBuilder, TaskMeta};
pub use explain::{disposition, ExplainRecord, ExplainSink, ReadProvenance, TaskExplain};
pub use genasm_telemetry::TraceRecorder;
pub use genasm_telemetry::{HistogramSnapshot, Registry, SlowRead, Snapshot};
pub use metrics::{
    BackendLat, BackendMetrics, FunnelCounts, PipelineMetrics, QueueMetrics, StageCounters,
    SLOW_READS_CAPACITY,
};
pub use record::{escape_name, unescape_name, AlignRecord, OutputFormat, ParseFormatError};
pub use service::{
    AdmissionError, PipelineService, RecvOutcome, ServiceConfig, Session, SessionEvent,
    SessionMetrics, SessionReceiver, SessionStat, SubmitError,
};

/// One read entering the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadInput {
    /// Read name (becomes `qname` in the output records).
    pub name: String,
    /// The read sequence.
    pub seq: Seq,
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Target total bases (query + target) per dispatched batch.
    pub batch_bases: usize,
    /// Depth of the stages: each backend's lane holds `queue_depth`
    /// batches cut and not yet started — a push into its building batch
    /// waits while it does — and a batch starts only within
    /// `2 × queue_depth` plus the started lanes' threads of the oldest
    /// one not yet released.
    pub queue_depth: usize,
    /// Ignored. Each backend's dispatch lane has as many threads as its
    /// [`Backend::in_flight`] says. The field stays so that code which
    /// builds this struct field by field still compiles.
    pub dispatchers: usize,
    /// Ignored. One minimizer index covers the whole reference
    /// ([`mapper::ShardedIndex`]). The field stays so that code which
    /// builds this struct field by field still compiles.
    pub shards: usize,
    /// Ignored, like [`PipelineConfig::shards`].
    pub shard_overlap: usize,
    /// Candidate-generation parameters for the mapper stage.
    pub params: CandidateParams,
    /// Optional structured trace recorder: when set, every stage
    /// emits Chrome trace-event spans covering the read lifecycle
    /// (ingest → batch build → backend queue wait → execute → reorder
    /// wait → sink). Tracing is passive — it never changes output
    /// bytes (the determinism suite asserts this).
    pub trace: Option<Arc<TraceRecorder>>,
    /// Optional per-read provenance stream: when set, every read
    /// leaves exactly one `genasm-explain/v2` JSON line describing its
    /// pass through the decision funnel and its final disposition
    /// ([`explain::ExplainRecord`]). Like tracing, explaining is
    /// passive — output records stay byte-identical with it on or off
    /// (asserted by the determinism suite).
    pub explain: Option<Arc<ExplainSink>>,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            batch_bases: 256 * 1024,
            queue_depth: 8,
            dispatchers: 1,
            shards: 1,
            shard_overlap: 256,
            params: CandidateParams::default(),
            trace: None,
            explain: None,
        }
    }
}

/// Fixed trace lane (`tid`) assignment shared by the one-shot
/// pipeline and the resident service, so traces from both render with
/// the same layout in Perfetto.
pub(crate) mod tids {
    /// Per-read end-to-end spans.
    pub const READS: u64 = 0;
    /// Batch scheduler.
    pub const SCHED: u64 = 2;
    /// Ordered sink.
    pub const SINK: u64 = 3;
    /// Session lifecycle (service only).
    pub const SESSION: u64 = 4;
    /// First backend lane: each backend has one lane per batch it may
    /// run at once ([`crate::Backend::in_flight`]), in table order, so
    /// `execute` spans on one lane never overlap.
    pub const BACKEND0: u64 = 8;
    /// First candidate-generation lane: one-shot map worker `i` uses
    /// `MAP0 + i`, so spans on one lane never overlap.
    pub const MAP0: u64 = 16;
    /// First session map lane, past any one-shot worker's: a session
    /// that submits maps on its connection thread, on the lowest lane
    /// `SESSION_MAP0 + i` no other open session holds.
    pub const SESSION_MAP0: u64 = 1024;
}

/// Emit the lane-name metadata events of the fixed lanes every trace
/// starts with (the service names its backend lanes).
pub(crate) fn trace_lanes(trace: &TraceRecorder) {
    trace.thread_name(tids::READS, "reads");
    trace.thread_name(tids::SCHED, "scheduler");
    trace.thread_name(tids::SINK, "sink");
    trace.thread_name(tids::SESSION, "sessions");
}

impl PipelineConfig {
    /// Upper bound on bases resident in the pipeline at once with one
    /// backend in use, given the largest single task observed and
    /// `in_flight`, its lane's threads, [`Backend::in_flight`]
    /// ([`PipelineMetrics::in_flight_lanes`]). A task counts from its
    /// push: in the building batch, in the lane's `queue_depth`
    /// batches, then in the window of `2 × queue_depth + in_flight`
    /// batches started and not released, however long one straggles —
    /// linear in `queue_depth × batch_bases` and independent of
    /// workload size, the property the streaming test asserts. The map
    /// stage in front of the lanes is not a queue and is not counted:
    /// the reads being mapped or parked for the ordered hand-off hold
    /// at most `threads × 4 × max_per_read × max_task_bases` more
    /// (`AHEAD`), and `threads × max_per_read × max_task_bases` while a
    /// push waits for room.
    pub fn resident_bases_bound(&self, max_task_bases: usize, in_flight: usize) -> usize {
        let (q, d) = (self.queue_depth.max(1), in_flight.max(1));
        // A batch is cut when it *reaches* the target, so it can
        // overshoot by one task.
        let per_batch = self.batch_bases + max_task_bases;
        // the building batch, the lane, and the window
        per_batch * (1 + q + 2 * q + d)
    }
}

/// Pipeline failure.
#[derive(Debug)]
pub enum PipelineError {
    /// The read stream produced an error.
    Input(String),
    /// A backend poisoned a batch.
    Backend(BackendError),
    /// A task found no alignment within the backend's edit budget.
    NoAlignment {
        /// Name of the read whose candidate failed.
        read: String,
    },
    /// The sink callback failed to write a record.
    Sink(std::io::Error),
}

impl core::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PipelineError::Input(msg) => write!(f, "read input: {msg}"),
            PipelineError::Backend(e) => write!(f, "{e}"),
            PipelineError::NoAlignment { read } => {
                write!(
                    f,
                    "alignment failed for read {read}: no alignment within the edit budget"
                )
            }
            PipelineError::Sink(e) => write!(f, "write error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Run the pipeline to completion.
///
/// A thin wrapper over [`service::PipelineService`]: it runs a
/// private single-session service whose stages borrow the caller's
/// backend for the length of the call, and pumps the read iterator
/// through it, so the scheduler/dispatch/sink stages exist exactly
/// once (in [`service`]) and the one-shot path is *structurally*
/// identical to a server session over the same reads.
///
/// `reads` is consumed incrementally — the whole read set is never
/// materialized. The `reference` is consumed: the genome index takes
/// ownership of the contig sequences, the only copy of the reference
/// for the whole run. Records are delivered to `on_record`
/// in deterministic order (input read order; within a read, best
/// alignment first — see [`AlignRecord::cmp_best_first`]) and report contig
/// names and contig-local coordinates. The first failure (input error,
/// poisoned batch, task with no alignment in budget, sink write error)
/// aborts the run; the records already emitted are always whole reads
/// in input order. Returns the run's [`PipelineMetrics`].
pub fn run_pipeline<I, E, F>(
    reads: I,
    reference: Reference,
    backend: &dyn Backend,
    cfg: &PipelineConfig,
    mut on_record: F,
) -> Result<PipelineMetrics, PipelineError>
where
    I: Iterator<Item = Result<ReadInput, E>> + Send,
    E: core::fmt::Display,
    F: FnMut(&AlignRecord) -> std::io::Result<()>,
{
    // The kind only tags the single-entry table the session is fixed to.
    let backends = &[(BackendKind::Cpu, backend)];
    let svc_cfg = ServiceConfig {
        pipeline: cfg.clone(),
        max_sessions: 1,
        // One-shot batch geometry: a building batch flushes only when
        // it reaches its target — or at end of input, when the session
        // finishes — exactly like the historical inline scheduler. The
        // linger is set far past any run length so the age flush can
        // never fire mid-run.
        linger: Duration::from_secs(3600),
        // The caps exist for multi-tenant fairness; a one-shot run is
        // its own only tenant, and its memory is already bounded by
        // the stage queues.
        max_session_output_bytes: 0,
        max_session_inflight_reads: 0,
    };
    let service = PipelineService::stopped("", reference, svc_cfg, backends);
    let (session, rx) = service
        .open_session(BackendKind::Cpu)
        .expect("a fresh service admits its first session");
    // The map stage is as wide as the backend's own pool.
    let workers = genasm_cpu::worker_threads().max(1);
    if let Some(t) = &cfg.trace {
        for lane in 0..workers {
            t.thread_name(tids::MAP0 + lane as u64, &format!("map:{lane}"));
        }
    }
    let (ingested, delivered) = std::thread::scope(|scope| {
        scope.spawn(|| service::run_stages(scope, &service.shared, backends));
        let ingest = scope.spawn(|| {
            // A panic in here (the caller's iterator, say) must still
            // release the caller below, which waits for `End`; it
            // resumes after the join.
            let ingested = catch_unwind(AssertUnwindSafe(|| map_reads(&session, reads, workers)));
            // Input over (or failed): finishing the session dispatches
            // its partial batch at once — so `End` reaches the caller
            // behind the last whole read — and the shutdown closes the
            // batch path, so the stages exit for the scope to join.
            session.finish();
            service.shutdown();
            ingested
        });
        // The caller only streams rows out. A one-shot session has no
        // caps, so the stages never wait on `on_record`.
        let mut delivered = Ok(());
        while let Some(event) = rx.recv() {
            match deliver(&service, event, &mut on_record) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => {
                    delivered = Err(e);
                    break;
                }
            }
        }
        // First failure aborts the run: with the receiver gone every
        // further enqueue is refused, the workers stop pulling, and
        // what was emitted stays a whole-reads-in-input-order prefix.
        drop(rx);
        let ingested = ingest.join().expect("ingest thread never panics itself");
        (
            ingested.unwrap_or_else(|panic| resume_unwind(panic)),
            delivered,
        )
    });
    delivered?;
    ingested?;
    // Read with every stage joined: nothing is still counting.
    let mut metrics = service.metrics();
    metrics.map_workers = workers;
    Ok(metrics)
}

/// Mapped reads the one-shot map stage may hold ahead of the task
/// queue, per worker (see [`map_reads`]). Measured on two lanes over
/// 12 500 × 300 bp reads, pipeline phase 1.6–1.8 s without a window:
/// 2 → 1.0–1.4 s, 4 → 0.99–1.2 s, 8 → 1.0–1.2 s — 4 has the gain, 8
/// adds residency for nothing.
const AHEAD: u64 = 4;

/// What [`HandOff::may_pull`] tells a worker about to pull a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// Pull it.
    Pull,
    /// Sleep until a transition asks for a wake-up, then ask again.
    Wait,
    /// The run has failed: pull nothing more.
    Stop,
}

/// The ordered, bounded hand-off of [`map_reads`], as a value: whose
/// turn it is to be enqueued (`next`), the reads mapped ahead of it
/// (`parked`, each an item or the error it failed with), whether a
/// drainer holds the turn, and why nobody will enqueue again. It owns
/// no lock, condvar or thread: its caller keeps it under one mutex,
/// changes it only through its methods, and wakes the workers waiting
/// on [`may_pull`](HandOff::may_pull) exactly when a method says so. So every schedule of the map stage is a sequence of these
/// calls, and the tests enumerate them.
#[cfg_attr(test, derive(Debug, Clone, PartialEq, Eq, Hash))]
struct HandOff<T> {
    /// Reads that may be out while a drainer is inside `enqueue`.
    workers: u64,
    /// Reads per worker that may be out otherwise.
    ahead: u64,
    next: u64,
    parked: BTreeMap<u64, Result<T, String>>,
    draining: bool,
    failure: Option<String>,
}

impl<T> HandOff<T> {
    fn new(workers: u64, ahead: u64) -> HandOff<T> {
        HandOff {
            workers,
            ahead,
            next: 0,
            parked: BTreeMap::new(),
            draining: false,
            failure: None,
        }
    }

    /// May a worker pull input read number `pulled`? Inside the
    /// run-ahead window, yes — unless a drainer is inside `enqueue`,
    /// which is where a full lane holds it: then the bound is
    /// one read per worker, as it was before there was a window (why:
    /// see [`map_reads`]). A question, not a transition: it wakes
    /// nobody.
    fn may_pull(&self, pulled: u64) -> Admit {
        let bound = self.workers * if self.draining { 1 } else { self.ahead };
        if self.failure.is_some() {
            Admit::Stop
        } else if pulled - self.next < bound {
            Admit::Pull
        } else {
            Admit::Wait
        }
    }

    /// Park read `seq`, mapped or failed. Returns whether the caller
    /// becomes the drainer: nobody else is, and the read whose turn it
    /// is has arrived. After a failure the read is dropped, never to
    /// be enqueued. Parking only ever narrows the window, so it wakes
    /// nobody.
    fn park(&mut self, seq: u64, item: Result<T, String>) -> bool {
        if self.failure.is_some() {
            return false;
        }
        self.parked.insert(seq, item);
        if self.draining {
            return false; // the drainer will find it
        }
        self.draining = self.parked.contains_key(&self.next);
        self.draining
    }

    /// The drainer's next read to enqueue, outside the lock: the one
    /// whose turn it is, with its sequence number. Wakes nobody.
    fn take_next(&mut self) -> (u64, Result<T, String>) {
        debug_assert!(self.draining, "only the drainer takes the turn");
        let item = self.parked.remove(&self.next).expect("the turn is parked");
        (self.next, item)
    }

    /// The drainer's `enqueue` of the read from [`take_next`]
    /// returned `sent` (a failed read is its error, never enqueued).
    /// Returns whether the caller drains on — the next read is already
    /// parked — and whether waiters must be woken: always, because
    /// the turn moved on or the run failed.
    ///
    /// [`take_next`]: HandOff::take_next
    fn enqueued(&mut self, sent: Result<(), String>) -> (bool, bool) {
        match sent {
            Ok(()) => self.next += 1,
            Err(msg) => self.failure = Some(msg),
        }
        self.draining = self.failure.is_none() && self.parked.contains_key(&self.next);
        (self.draining, true)
    }
}

/// The one-shot map stage: `workers` threads (the calling one
/// included) each pull one read from `reads` under a lock and map it,
/// and a bounded run-ahead [`HandOff`] passes the results to the
/// session in input order. A worker that has mapped a read *parks* it
/// under its input sequence number and pulls the next one instead of
/// sleeping until its turn; the worker that parks the read whose turn
/// it is becomes the *drainer* and enqueues parked reads in order,
/// outside the lock, until the next one is missing. So
/// [`Session::enqueue`] is called one read at a time in input order,
/// and the task stream is the one a single worker produces. Every
/// decision about the hand-off is a [`HandOff`] method; this function
/// only adds the threads, the locks and the condvar.
///
/// Two bounds hold between the input and the lane
/// ([`HandOff::may_pull`]). Never more than `workers ×` [`AHEAD`] reads are
/// pulled and not yet enqueued: map time is heavy-tailed (p50 62 µs,
/// p95 590 µs on 300 bp reads), and with one read per worker the lanes
/// ran in lock step at the pace of the slower read, each busy half the
/// time. And never more than `workers` reads while a drainer is inside
/// `enqueue`, i.e. blocked behind a full lane: the backend is
/// the bottleneck then, and running ahead of it buys no throughput and
/// costs latency — without this clause `clr-long` read
/// `latency_p95_ms` went 210 → 248 and 210 → 246 ms (+18%) for the
/// same reads/s; with it, it stays where it was.
///
/// Returns the first failure — an input error, a panic while mapping
/// or enqueueing, a refused enqueue — raised when its read's turn
/// comes: every read before it has been enqueued, nothing after it is,
/// and nothing further is pulled.
fn map_reads<I, E>(session: &Session, reads: I, workers: usize) -> Result<(), PipelineError>
where
    I: Iterator<Item = Result<ReadInput, E>> + Send,
    E: core::fmt::Display,
{
    const POISONED: &str = "a map worker panicked";
    // (input, reads pulled so far); `None` once it is exhausted or has
    // failed. Locked before `hand_off`, never after it.
    let feed = Mutex::new(Some((reads, 0u64)));
    let hand_off = Mutex::new(HandOff::<MappedRead>::new(workers as u64, AHEAD));
    // Signalled when a `HandOff` transition asks for it.
    let turned = Condvar::new();
    let work = |lane: u64| loop {
        let (seq, item) = {
            let mut feed = feed.lock().expect(POISONED);
            let Some((reads, pulled)) = feed.as_mut() else {
                return;
            };
            // Waiting with `feed` held queues the other pullers behind
            // this one; the window they would wait for is the same.
            let mut turn = hand_off.lock().expect(POISONED);
            loop {
                match turn.may_pull(*pulled) {
                    Admit::Pull => break,
                    Admit::Wait => turn = turned.wait(turn).expect(POISONED),
                    Admit::Stop => return,
                }
            }
            drop(turn);
            let Some(item) = reads.next() else {
                *feed = None;
                return;
            };
            let seq = *pulled;
            *pulled += 1;
            if item.is_err() {
                *feed = None;
            }
            (seq, item.map_err(|e| e.to_string()))
        };
        // A panic while mapping (or, below, enqueueing) must not
        // strand the other workers: it fails the run like a bad read
        // (the panic hook has already reported it).
        let mapped = item.and_then(|read| {
            catch_unwind(AssertUnwindSafe(|| {
                session.map(seq as u32, read, tids::MAP0 + lane)
            }))
            .map_err(|_| format!("candidate generation panicked on read {seq}"))
        });
        let mut turn = hand_off.lock().expect(POISONED);
        let mut drain = turn.park(seq, mapped);
        while drain {
            let (next, mapped) = turn.take_next();
            drop(turn);
            let sent = mapped.and_then(|m| {
                catch_unwind(AssertUnwindSafe(|| session.enqueue(m)))
                    .map_err(|_| format!("enqueue panicked on read {next}"))?
                    .map(drop)
                    .map_err(|e| e.to_string())
            });
            turn = hand_off.lock().expect(POISONED);
            let wake;
            (drain, wake) = turn.enqueued(sent);
            if wake {
                turned.notify_all();
            }
        }
    };
    std::thread::scope(|scope| {
        for lane in 1..workers as u64 {
            let work = &work;
            scope.spawn(move || work(lane));
        }
        work(0);
    });
    match hand_off.into_inner().expect(POISONED).failure {
        Some(msg) => Err(PipelineError::Input(msg)),
        None => Ok(()),
    }
}

/// Handle one session event in the one-shot pump. `Ok(true)` = the
/// session ended.
fn deliver<F>(
    service: &PipelineService,
    event: SessionEvent,
    on_record: &mut F,
) -> Result<bool, PipelineError>
where
    F: FnMut(&AlignRecord) -> std::io::Result<()>,
{
    match event {
        SessionEvent::Rows(rows) => {
            for row in &rows {
                on_record(row).map_err(PipelineError::Sink)?;
            }
            Ok(false)
        }
        SessionEvent::ReadFailed { read } => {
            // The service fails reads individually; the one-shot
            // contract aborts on the first one, with the typed cause:
            // a poisoned batch surfaces as the backend's own error, a
            // task that exhausted its edit budget as `NoAlignment`.
            Err(match service.last_backend_error_detail() {
                Some(e) => PipelineError::Backend(e),
                None => PipelineError::NoAlignment { read },
            })
        }
        SessionEvent::End(_) => Ok(true),
        // Explain lines already flow through the config's sink.
        SessionEvent::Explain(_) => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align_core::{AlignTask, Alignment};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A backend slow enough that the task queue in front of it is
    /// full for the whole run.
    struct SlowBackend(CpuBackend);

    impl Backend for SlowBackend {
        fn name(&self) -> &'static str {
            "slow"
        }

        fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError> {
            std::thread::sleep(Duration::from_millis(2));
            self.0.align_batch(tasks)
        }
    }

    fn random_genome(len: usize) -> Seq {
        let mut state = 7u64;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                align_core::Base::from_code((state >> 33) as u8 & 3)
            })
            .collect()
    }

    /// Map `reads` (exact slices of `genome`) on `workers` threads in
    /// front of a lane of one 2 kb batch and a [`SlowBackend`];
    /// returns the most reads ever pulled from the input and not yet
    /// enqueued, sampled at every pull, with the run's metrics.
    fn max_pulled_ahead(genome: &Seq, reads: Vec<Seq>, workers: usize) -> (u64, PipelineMetrics) {
        let cfg = ServiceConfig {
            pipeline: PipelineConfig {
                batch_bases: 2 * 1024,
                queue_depth: 1,
                ..PipelineConfig::default()
            },
            ..ServiceConfig::default()
        };
        let backends: Vec<(BackendKind, Box<dyn Backend>)> = vec![(
            BackendKind::Cpu,
            Box::new(SlowBackend(CpuBackend::improved())),
        )];
        let reference = Reference::single("ref", genome.clone());
        let service = PipelineService::start_with_backends("", reference, cfg, backends);
        let (session, rx) = service.open_session(BackendKind::Cpu).unwrap();
        let (pulled, max_ahead) = (AtomicU64::new(0), AtomicU64::new(0));
        let n = reads.len() as u64;
        let reads = reads.into_iter().enumerate().map(|(i, seq)| {
            let pulled = pulled.fetch_add(1, Ordering::SeqCst) + 1;
            // `reads_in` counts reads that have begun to enqueue.
            let ahead = pulled - service.metrics().reads_in;
            max_ahead.fetch_max(ahead, Ordering::SeqCst);
            Ok::<_, std::convert::Infallible>(ReadInput {
                name: format!("r{i}"),
                seq,
            })
        });
        std::thread::scope(|scope| {
            scope.spawn(move || rx.iter().for_each(drop));
            map_reads(&session, reads, workers).unwrap();
            session.finish(); // `End` releases the drain thread
        });
        let m = service.shutdown();
        assert_eq!(m.reads_in, n);
        assert_eq!(m.reads_mapped, n, "every exact read must map");
        (max_ahead.load(Ordering::SeqCst), m)
    }

    /// The hard bound of the hand-off: counted at every pull, never
    /// more than `workers × AHEAD` reads are out of the iterator and
    /// not yet enqueued, with the backend's lane full — backpressure
    /// reaches the input after a fixed number of reads.
    #[test]
    fn map_stage_never_pulls_more_than_the_window_ahead() {
        let genome = random_genome(40_000);
        for workers in [1, 3] {
            let reads = (0..120).map(|i| genome.slice(300 * i, 400)).collect();
            let (max_ahead, m) = max_pulled_ahead(&genome, reads, workers);
            // Full = the lane held `queue_depth` batches cut and not
            // started, so the next push waited for room.
            assert_eq!(
                m.batch_queue.high_water, m.batch_queue.capacity as u64,
                "the lane never filled: {:?}",
                m.batch_queue
            );
            assert!(
                (1..=workers as u64 * AHEAD).contains(&max_ahead),
                "{max_ahead} reads pulled ahead of the queue with {workers} workers"
            );
        }
    }

    /// Run-ahead happens: while one worker maps a read 250× longer
    /// than the rest, the others keep pulling and parking instead of
    /// waiting for its turn, so more than one read per worker is out.
    #[test]
    fn map_workers_run_ahead_of_a_slow_read() {
        let genome = random_genome(140_000);
        for workers in [2, 3] {
            let reads = std::iter::once(genome.slice(20_000, 100_000))
                .chain((0..60).map(|i| genome.slice(300 * i, 400)))
                .collect();
            let (max_ahead, _) = max_pulled_ahead(&genome, reads, workers);
            assert!(
                (workers as u64 + 1..=workers as u64 * AHEAD).contains(&max_ahead),
                "{max_ahead} reads pulled ahead of the queue with {workers} workers"
            );
        }
    }

    /// The admission rule: the window while nobody is inside
    /// `enqueue`, one read per worker while somebody is.
    #[test]
    fn a_blocked_drainer_narrows_the_window_to_one_read_per_worker() {
        for workers in [1, 2, 5] {
            for next in [0, 1_000] {
                for ahead in 0..=workers * AHEAD + 1 {
                    let mut turn = HandOff::<()>::new(workers, AHEAD);
                    turn.next = next;
                    let admit = |ok| if ok { Admit::Pull } else { Admit::Wait };
                    let pulled = next + ahead;
                    assert_eq!(turn.may_pull(pulled), admit(ahead < workers * AHEAD));
                    turn.draining = true;
                    assert_eq!(turn.may_pull(pulled), admit(ahead < workers));
                }
            }
        }
    }

    /// Where one modelled worker of [`map_reads`] is in its loop.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum At {
        /// At the top of its loop, about to lock `feed`.
        Top,
        /// Holding `feed`, asleep on the condvar.
        Asleep,
        /// Holding `feed`, woken; it asks `may_pull` again.
        Woken,
        /// Has pulled and mapped read `seq`; it parks it next.
        Mapped(u64),
        /// The drainer, inside `enqueue` with read `seq`.
        Enqueuing(u64),
        Done,
    }

    /// How a modelled run fails, if it does.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        None,
        /// Read `j` is an input error: it fails at map.
        Input(u64),
        /// The session refuses read `j` at enqueue.
        Refused(u64),
    }

    /// One state of the map stage, modelled: the hand-off, where each
    /// worker is, the input, and what the session has accepted. Each
    /// step is one critical section of [`map_reads`], or an `enqueue`
    /// returning.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        turn: HandOff<u64>,
        at: Vec<At>,
        pulled: u64,
        feed_open: bool,
        enqueued: u64,
        failed: bool,
    }

    /// One modelled run: `workers` workers, `reads` reads, a window of
    /// `ahead` reads per worker.
    struct Run {
        workers: u64,
        reads: u64,
        ahead: u64,
        fault: Fault,
    }

    impl Run {
        fn mapped(&self, seq: u64) -> Result<u64, String> {
            if self.fault == Fault::Input(seq) {
                Err("input error".into())
            } else {
                Ok(seq)
            }
        }

        /// Worker `w` takes one step from `s`; `Err` names the broken
        /// rule.
        fn step(&self, s: &World, w: usize) -> Result<World, String> {
            let mut s = s.clone();
            let inside = s.at.iter().position(|a| matches!(a, At::Enqueuing(_)));
            match s.at[w] {
                At::Top if !s.feed_open => s.at[w] = At::Done,
                At::Top | At::Woken => match s.turn.may_pull(s.pulled) {
                    Admit::Wait => s.at[w] = At::Asleep,
                    Admit::Stop => s.at[w] = At::Done,
                    Admit::Pull if s.pulled == self.reads => {
                        s.feed_open = false;
                        s.at[w] = At::Done;
                    }
                    Admit::Pull => {
                        let (seq, out) = (s.pulled, s.pulled - s.enqueued);
                        if s.failed {
                            return Err(format!("read {seq} pulled after the failure"));
                        }
                        if out >= self.workers * self.ahead {
                            return Err(format!("read {seq} pulled with {out} out"));
                        }
                        if inside.is_some() && out >= self.workers {
                            return Err(format!("read {seq} pulled with {out} out, drainer in"));
                        }
                        s.pulled += 1;
                        if self.fault == Fault::Input(seq) {
                            s.feed_open = false;
                        }
                        s.at[w] = At::Mapped(seq);
                    }
                },
                At::Mapped(seq) => {
                    if !s.turn.park(seq, self.mapped(seq)) {
                        s.at[w] = At::Top;
                    } else if let Some(other) = inside {
                        return Err(format!("worker {w} drains beside worker {other}"));
                    } else {
                        self.take(&mut s, w)?;
                    }
                }
                At::Enqueuing(seq) => {
                    // A read that failed at map never reaches `enqueue`.
                    let fails =
                        matches!(self.fault, Fault::Input(j) | Fault::Refused(j) if j == seq);
                    let sent = if fails {
                        s.failed = true;
                        Err("refused".into())
                    } else {
                        s.enqueued += 1;
                        Ok(())
                    };
                    let (drain, wake) = s.turn.enqueued(sent);
                    if wake {
                        for a in s.at.iter_mut().filter(|a| **a == At::Asleep) {
                            *a = At::Woken;
                        }
                    }
                    if drain {
                        self.take(&mut s, w)?;
                    } else {
                        s.at[w] = At::Top;
                    }
                }
                At::Asleep | At::Done => unreachable!("worker {w} cannot step"),
            }
            // Lost even if a later wake-up would rescue it.
            if s.at.contains(&At::Asleep) && s.turn.may_pull(s.pulled) != Admit::Wait {
                return Err("a worker sleeps through a change nobody woke it for".into());
            }
            Ok(s)
        }

        /// Worker `w`, the drainer, takes the turn into `enqueue`.
        fn take(&self, s: &mut World, w: usize) -> Result<(), String> {
            let (seq, item) = s.turn.take_next();
            if seq != s.enqueued || item != self.mapped(seq) {
                return Err(format!("read {seq} enqueued after {} reads", s.enqueued));
            }
            s.at[w] = At::Enqueuing(seq);
            Ok(())
        }

        /// Explore every schedule; returns the states seen.
        fn explore(&self) -> Result<usize, String> {
            let start = World {
                turn: HandOff::new(self.workers, self.ahead),
                at: vec![At::Top; self.workers as usize],
                pulled: 0,
                feed_open: true,
                enqueued: 0,
                failed: false,
            };
            let mut seen = std::collections::HashSet::new();
            let mut todo = vec![start];
            while let Some(s) = todo.pop() {
                if seen.contains(&s) {
                    continue;
                }
                // `feed` is held by a worker that waits on the condvar.
                let feed_free = !s.at.iter().any(|a| matches!(a, At::Asleep | At::Woken));
                let runnable: Vec<usize> = (0..s.at.len())
                    .filter(|&w| match s.at[w] {
                        At::Top => feed_free,
                        At::Asleep | At::Done => false,
                        _ => true,
                    })
                    .collect();
                if runnable.is_empty() {
                    self.check_end(&s)?;
                }
                for w in runnable {
                    todo.push(self.step(&s, w)?);
                }
                seen.insert(s);
            }
            Ok(seen.len())
        }

        /// Nobody can step: every worker must be done, with every read
        /// enqueued or exactly those before the failing one.
        fn check_end(&self, s: &World) -> Result<(), String> {
            if s.at.iter().any(|a| *a != At::Done) {
                return Err(format!("stuck: {:?}", s.at));
            }
            let want = match self.fault {
                Fault::None => (self.reads, false),
                Fault::Input(j) | Fault::Refused(j) => (j, true),
            };
            if (s.enqueued, s.failed) != want {
                return Err(format!("ended at {:?}", (s.enqueued, s.failed)));
            }
            Ok(())
        }
    }

    /// The hand-off is proven over every schedule of up to 3 workers
    /// and 6 reads: every read succeeds, read `j` fails at map, or
    /// read `j` is refused at enqueue. An `enqueue` returning is a
    /// step of its own, so the search covers a queue that takes a
    /// read at once and one that holds the drainer while every other
    /// worker moves. Reads are enqueued in input order, once; one
    /// drainer at most; no pull past the window, or past one read per
    /// worker while a drainer is inside; a sleeping worker resumes
    /// only when a transition asks for it, so a lost wake-up is a
    /// stuck state; and every run ends with all reads enqueued, or
    /// exactly those before the failure and nothing pulled after it.
    #[test]
    fn the_hand_off_is_proven_over_every_schedule() {
        let mut states = 0;
        for workers in 1..=3 {
            for ahead in [1, 2, AHEAD] {
                for reads in 0..=6 {
                    let faults = (0..reads).flat_map(|j| [Fault::Input(j), Fault::Refused(j)]);
                    for fault in std::iter::once(Fault::None).chain(faults) {
                        let run = Run {
                            workers,
                            reads,
                            ahead,
                            fault,
                        };
                        states += run.explore().unwrap_or_else(|e| {
                            panic!(
                                "{workers} workers, {ahead} ahead, {reads} reads, {fault:?}: {e}"
                            )
                        });
                    }
                }
            }
        }
        println!("hand-off: {states} states explored");
    }
}
