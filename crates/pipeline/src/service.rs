//! The long-lived pipeline service: the batch pipeline of
//! [`crate::run_pipeline`] restructured as a resident, multi-session
//! alignment engine.
//!
//! ```text
//!  session A ──┐  push   ┌► lane cpu: building batch, ─────┐                 ┌──► session A rows
//!  session B ──┼────────►┼► lane gpu-sim: cut batches  ────┼─► ordered sink ─┼──► session B rows
//!  session C ──┘ (its    └► lane …  (queue_depth) ─────────┘  (global reorder,└──► session C rows
//!                backend's    in_flight threads each           per-session routing)
//!                lane)
//! ```
//!
//! [`run_pipeline`](crate::run_pipeline) spins up stages per call and
//! tears them down when the read iterator ends. A server cannot afford
//! that: the reference index must stay hot, and *admission control
//! must span clients* — ten greedy sessions must share one memory
//! budget, not multiply it. [`PipelineService`] therefore keeps the
//! stages for its whole lifetime and lets any number of concurrent
//! [`Session`]s push into the same bounded lanes:
//!
//! * **Shared ingest.** [`Session::submit`] runs candidate generation
//!   on the calling thread (against one shared [`ShardedIndex`]), is
//!   admitted by the session's `outbox::Outbox` — one proven value,
//!   under the session's own lock, holding its caps, its reads in flight
//!   and the events queued for its receiver — and pushes the read's
//!   tasks, under a global read sequence number, into its backend's
//!   building batch; the push that fills it cuts it. A lane holding
//!   `queue_depth` cut batches is the *server-wide* admission valve:
//!   every submit to that backend, and none other, blocks until the
//!   lane starts one, so peak resident bases obey
//!   [`ServiceConfig::resident_bases_bound`] however many clients.
//! * **Per-session determinism.** Each session has a fixed backend and
//!   its reads keep their submission order in the global sequence, so
//!   the sink (global reorder by batch sequence, per-read completion,
//!   per-read [`AlignRecord::cmp_best_first`] ordering) delivers every
//!   session's rows in exactly the order — and with exactly the bytes
//!   — that a one-shot `genasm align` over that session's reads would
//!   produce.
//! * **Per-backend batching.** Sessions may pick different backends;
//!   each backend's lane has one building batch so a batch is never
//!   mixed across engines, while batch sequence numbers, given at the
//!   cut, stay globally ordered for the sink's reorder buffer. A batch
//!   is cut when it reaches its base target; a partial one goes when a
//!   session that has reads in it finishes ([`Session::finish`] cuts
//!   its backend's building batch), so a client that has sent its last
//!   read does not wait out the linger. Otherwise the scheduler cuts a
//!   partial batch once it is [`ServiceConfig::linger`] old — an *age*
//!   bound, not an idle bound, so one session's small batch cannot be
//!   starved by another session's steady traffic to a different
//!   backend (flush timing never changes output — the pipeline is
//!   batch-geometry deterministic).
//! * **Failure isolation.** A task that exceeds its backend's edit
//!   budget fails *that read for that session*
//!   ([`SessionEvent::ReadFailed`]); a poisoned batch fails only the
//!   reads it contained; a slow receiver throttles only its own
//!   session's submits (the sink never waits on it), and a dropped one
//!   fails its session's next submit. The service itself keeps running
//!   — unlike the one-shot pipeline, where the first failure aborts the
//!   run.
//! * **Batches in flight.** Each backend of the table has a lane of
//!   `queue_depth` batches and as many threads as it says may run its
//!   batches at once ([`Backend::in_flight`]), taking them in cut order:
//!   no backend has more calls open than that, and no batch waits to
//!   start behind another backend's. A lane's threads start with its
//!   first batch, so a backend that no session uses costs no thread. A
//!   batch starts only within a window of the oldest one the sink has
//!   not released, so a straggler cannot let the reorder buffer grow.
//!   The CPU engines take two, so the next batch starts on the worker
//!   that the last batch's longest task leaves idle; the simulated GPU
//!   takes one. The building batches, the lanes, the window and the
//!   reorder buffer are one proven value, `dispatch::Dispatch`, under
//!   one mutex, from the push to the release.
//! * **Graceful drain.** [`PipelineService::shutdown`] stops admitting
//!   sessions, waits for the open ones to finish, drains every queue,
//!   joins the stages, and returns the final [`PipelineMetrics`].
//!
//! The stages run in one function (`run_stages`): the scheduler on the
//! calling thread, the sink and the lane threads on a scope, borrowing
//! the shared state and the backend table (`&[(BackendKind, &dyn
//! Backend)]`). A resident service calls it on one host thread, which
//! owns the boxed table; [`run_pipeline`](crate::run_pipeline) calls it
//! on a thread of the scope it opens on its own stack, over the backend
//! its caller lent, so no backend has to be `'static`. The scheduler
//! never sees a task: it starts lanes, cuts batches for their age, and
//! flushes what is built when the service closes.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, Scope};
use std::time::{Duration, Instant};

use align_core::{AlignTask, Alignment, Reference};
use genasm_telemetry::TraceRecorder;
use mapper::ShardedIndex;

use crate::backend::{Backend, BackendError, BackendKind};
use crate::batcher::{BatchBuilder, TaskMeta};
use crate::dispatch::{Chore, Dispatch, Next, Pushed, Refused, Wake};
use crate::explain::{disposition, ExplainRecord, ReadProvenance, TaskExplain};
use crate::metrics::{BackendLat, PipelineMetrics, StageCounters};
use crate::outbox::{self, Admit, Outbox, Taken};
use crate::record::AlignRecord;
use crate::{tids, trace_lanes, PipelineConfig, ReadInput};

/// Tuning for the long-lived service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The shared pipeline geometry (queues, batching).
    pub pipeline: PipelineConfig,
    /// Maximum concurrently open sessions; further
    /// [`PipelineService::open_session`] calls get
    /// [`AdmissionError::Busy`]. `0` means unlimited.
    pub max_sessions: usize,
    /// Maximum age of a building batch before the scheduler flushes it
    /// regardless of size (so a lightly-loaded session's batch is
    /// never starved by other sessions' traffic). It bounds the wait of
    /// a session that is still streaming: a session that finishes
    /// releases its backend's building batch at once. Only affects
    /// latency; output is identical for every value.
    pub linger: Duration,
    /// Cap on one session's buffered, not-yet-received output, in
    /// bytes (each delivered row is accounted as its TSV rendering
    /// plus a newline). At the cap the session is throttled: its
    /// [`Session::submit`] blocks until the receiver catches up. In the
    /// server, the blocked submit stops the connection thread reading
    /// the socket, so backpressure reaches the client's TCP window —
    /// the same path a full lane uses. The sink itself never
    /// blocks on a slow receiver, and buffered bytes stay within
    /// [`ServiceConfig::session_output_bound`]. `0` means unlimited.
    pub max_session_output_bytes: usize,
    /// Cap on one session's in-flight reads (submitted, not yet fully
    /// delivered). [`Session::submit`] blocks the submitting thread —
    /// and only it — while the session is at the cap, so a greedy
    /// client cannot monopolize its backend's lane. `0` means
    /// unlimited.
    pub max_session_inflight_reads: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            pipeline: PipelineConfig::default(),
            max_sessions: 64,
            linger: Duration::from_millis(2),
            max_session_output_bytes: 64 << 20,
            max_session_inflight_reads: 1024,
        }
    }
}

impl ServiceConfig {
    /// Server-wide upper bound on bases resident in the service at
    /// once. Sessions share the lanes and the release window, so the
    /// one-shot bound of [`PipelineConfig::resident_bases_bound`]
    /// carries over for one backend in use — and each further *distinct
    /// backend in use* (`active_backends`) adds its building batch and
    /// its lane's batches, each up to a batch target plus one oversized
    /// task. `in_flight` is [`PipelineMetrics::in_flight_lanes`].
    pub fn resident_bases_bound(
        &self,
        max_task_bases: usize,
        active_backends: usize,
        in_flight: usize,
    ) -> usize {
        let per_batch = self.pipeline.batch_bases + max_task_bases;
        let per_lane = (1 + self.pipeline.queue_depth.max(1)) * per_batch;
        self.pipeline
            .resident_bases_bound(max_task_bases, in_flight)
            + active_backends.saturating_sub(1) * per_lane
    }

    /// Upper bound on one session's buffered output bytes, given the
    /// largest rendered output of any single read. A session admits a
    /// read only while buffered output is *below* the cap, and at most
    /// [`ServiceConfig::max_session_inflight_reads`] already-admitted
    /// reads can still deliver once it is reached, so:
    ///
    /// ```text
    /// peak buffered ≤ max_session_output_bytes
    ///               + max_session_inflight_reads × max_read_output_bytes
    /// ```
    ///
    /// Unbounded (`usize::MAX`) when either cap is disabled (`0`) —
    /// the bound needs both the output cap and the in-flight read cap.
    pub fn session_output_bound(&self, max_read_output_bytes: usize) -> usize {
        if self.max_session_output_bytes == 0 || self.max_session_inflight_reads == 0 {
            return usize::MAX;
        }
        self.max_session_output_bytes + self.max_session_inflight_reads * max_read_output_bytes
    }
}

/// Why [`PipelineService::open_session`] refused a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The service is shutting down and admits no new sessions.
    Draining,
    /// The concurrent-session cap is reached.
    Busy {
        /// Sessions currently open.
        active: usize,
        /// The configured cap.
        max: usize,
    },
    /// The requested backend is not in the service's backend table.
    NotInTable(BackendKind),
}

impl core::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AdmissionError::Draining => write!(f, "service is draining"),
            AdmissionError::Busy { active, max } => {
                write!(f, "service is busy: {active} sessions active (max {max})")
            }
            AdmissionError::NotInTable(kind) => {
                write!(f, "backend {kind} is not in this service's backend table")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Why [`Session::submit`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The service's queues closed underneath the session.
    ServiceStopped,
    /// The session's [`SessionReceiver`] was dropped before the
    /// session finished — there is no one left to deliver to, so
    /// submitting more work would only be wasted backend time.
    ReceiverGone,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::ServiceStopped => write!(f, "pipeline service stopped"),
            SubmitError::ReceiverGone => {
                write!(f, "session receiver dropped; no consumer for results")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Counters for one session, reported in [`SessionEvent::End`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Reads submitted.
    pub reads_in: u64,
    /// Reads that produced at least one candidate task.
    pub reads_mapped: u64,
    /// Reads that produced no candidate task (they complete
    /// immediately with no rows; `reads_in == reads_mapped +
    /// reads_unmapped` for every session).
    pub reads_unmapped: u64,
    /// Candidate tasks generated.
    pub tasks: u64,
    /// Total bases (query + target) across the session's tasks.
    pub task_bases: u64,
    /// Alignment records delivered.
    pub records_out: u64,
    /// Reads that failed (a task found no alignment in budget).
    pub reads_failed: u64,
}

/// What the sink delivers to a session's receiver.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub enum SessionEvent {
    /// One completed read's records, already in deterministic order.
    Rows(Vec<AlignRecord>),
    /// A read whose candidates all reported but at least one found no
    /// alignment within the backend's edit budget; no rows are emitted
    /// for it (the one-shot `align` path would have errored out).
    ReadFailed {
        /// Name of the failed read.
        read: String,
    },
    /// One read's `genasm-explain/v2` provenance line. Sent only when
    /// the session opted in via [`Session::set_explain`]; follows the
    /// read's [`SessionEvent::Rows`] / [`SessionEvent::ReadFailed`]
    /// (unmapped reads, which get neither, still get their explain
    /// line). Purely informational — record delivery is unchanged.
    Explain(String),
    /// The session is fully drained; always the final event.
    End(SessionMetrics),
}

/// One open session, shared by its [`Session`], its [`SessionReceiver`]
/// and the registry: its [`Outbox`] under the session's one mutex, and
/// a condvar for each role that sleeps on it.
struct SessionCell {
    outbox: Mutex<Outbox>,
    /// The submitter sleeps here while the session is at a cap.
    room: Condvar,
    /// The receiver sleeps here while nothing is queued.
    ready: Condvar,
    /// The backend this session dispatches to (status reporting).
    backend: BackendKind,
    /// When the session was admitted (session-span telemetry).
    opened_at: Instant,
}

impl SessionCell {
    /// Notify the sleepers `w` names.
    fn wake(&self, w: outbox::Wake) {
        if w.room {
            self.room.notify_all();
        }
        if w.ready {
            self.ready.notify_all();
        }
    }
}

/// One open session's identity and counters, reported by
/// [`PipelineService::session_stats`].
#[derive(Debug, Clone)]
pub struct SessionStat {
    /// Service-assigned session id.
    pub id: u64,
    /// The session's backend.
    pub backend: BackendKind,
    /// Live counters (monotonic while the session is open).
    pub metrics: SessionMetrics,
    /// Output bytes buffered for this session's receiver right now.
    pub buffered_out_bytes: u64,
}

/// Global ingest state: sequence numbering and admission.
struct Ingest {
    next_read_seq: u64,
    next_session: u64,
    open_sessions: usize,
    draining: bool,
    /// The sessions' map trace lanes: `map_lanes[i]` is true while a
    /// session maps on `tids::SESSION_MAP0 + i`.
    map_lanes: Vec<bool>,
}

/// One backend's dispatch lane: `threads` threads — the backend's
/// [`Backend::in_flight`] — that take its batches from
/// [`Shared::dispatch`] in cut order, so at 1 it sees them one at a
/// time in that order. They start with the lane's first batch.
struct Lane {
    kind: BackendKind,
    threads: usize,
    /// The trace lane of thread 0; thread `i` runs its batches on
    /// `tid0 + i`, so `execute` spans on one trace lane never overlap.
    tid0: u64,
}

/// The batch path, from the push to the release.
type Path = Dispatch<BatchBuilder, SvcDone>;

/// A batch travelling from dispatch to the sink.
struct SvcDone {
    seq: u64,
    metas: Vec<TaskMeta>,
    alignments: Vec<Option<Alignment>>,
    /// Name of the backend that executed the batch (per-read
    /// provenance).
    backend_name: &'static str,
    completed_at: Instant,
}

pub(crate) struct Shared {
    /// Display label for the loaded reference (banner / status lines);
    /// record contig names come from the index's contig table.
    ref_label: String,
    index: ShardedIndex,
    cfg: ServiceConfig,
    /// Each backend's last [`Backend::engine_stats`], in table order:
    /// only the stages see the table, so a dispatcher leaves them here
    /// after every batch for [`PipelineService::metrics`].
    engines: Mutex<Vec<Option<genasm_core::MemStats>>>,
    /// Each backend's [`Lane`], in table order.
    lanes: Vec<Lane>,
    /// The batch path from the push to the release. Submitters waiting
    /// for room in a lane sleep on `room`, the scheduler on `sched`, the
    /// lane threads on `turn`, the sink on `ready`; [`Shared::wake`]
    /// notifies whom a transition names. Never take `sessions` or a
    /// session's lock while holding it.
    dispatch: Mutex<Path>,
    room: Condvar,
    sched: Condvar,
    turn: Condvar,
    ready: Condvar,
    counters: StageCounters,
    ingest: Mutex<Ingest>,
    drained_cv: Condvar,
    /// The open sessions, by id: found here at open, at `End`, for
    /// stats, and by the sink for a read's session. A session's lock
    /// may be taken while holding this one, never the other way round.
    sessions: Mutex<HashMap<u64, Arc<SessionCell>>>,
    backend_errors: AtomicU64,
    last_backend_error: Mutex<Option<BackendError>>,
    started: Instant,
}

impl Shared {
    fn trace(&self) -> Option<&TraceRecorder> {
        self.cfg.pipeline.trace.as_deref()
    }

    /// Notify the sleepers `w` names (the scheduler and the sink are
    /// one thread each).
    fn wake(&self, w: Wake) {
        let roles = [Wake::ROOM, Wake::SCHED, Wake::TURN, Wake::READY];
        let condvars = [&self.room, &self.sched, &self.turn, &self.ready];
        for (role, condvar) in roles.into_iter().zip(condvars) {
            if w.has(role) {
                condvar.notify_all();
            }
        }
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // A session still open here will never end: its receiver hears
        // that nothing more comes.
        for cell in self.sessions.get_mut().unwrap().values() {
            let w = cell.outbox.lock().unwrap().abandon();
            cell.wake(w);
        }
    }
}

/// The resident alignment service. See the module docs for the
/// architecture; see [`PipelineService::open_session`] for the client
/// side.
pub struct PipelineService {
    pub(crate) shared: Arc<Shared>,
    /// The thread a resident service keeps its stages on. `None` once
    /// joined, and in [`crate::run_pipeline`], which has a scope.
    host: Mutex<Option<JoinHandle<()>>>,
}

impl PipelineService {
    /// Build the index once — consuming the reference, so the only
    /// resident reference bytes for the service's whole lifetime are
    /// the contigs the index took — spawn the resident stages, and
    /// return the running service.
    pub fn start(ref_label: &str, reference: Reference, cfg: ServiceConfig) -> PipelineService {
        let backends: Vec<(BackendKind, Box<dyn Backend>)> = BackendKind::ALL
            .iter()
            .map(|&(kind, _)| (kind, kind.create()))
            .collect();
        PipelineService::start_with_backends(ref_label, reference, cfg, backends)
    }

    /// [`PipelineService::start`] with an explicit backend table
    /// (kind tag → implementation). Sessions can only pick backends
    /// present in the table. One host thread owns the table and keeps
    /// the stages on its scope until the service shuts down.
    pub fn start_with_backends(
        ref_label: &str,
        reference: Reference,
        cfg: ServiceConfig,
        backends: Vec<(BackendKind, Box<dyn Backend>)>,
    ) -> PipelineService {
        fn lend(owned: &[(BackendKind, Box<dyn Backend>)]) -> Vec<(BackendKind, &dyn Backend)> {
            owned.iter().map(|(kind, b)| (*kind, &**b)).collect()
        }
        let mut service = PipelineService::stopped(ref_label, reference, cfg, &lend(&backends));
        let sh = Arc::clone(&service.shared);
        let host = std::thread::spawn(move || {
            let table = lend(&backends);
            std::thread::scope(|scope| run_stages(scope, &sh, &table));
        });
        service.host = Mutex::new(Some(host));
        service
    }

    /// Everything of a service over `backends` but its stages, which
    /// whoever holds the table runs with [`run_stages`].
    pub(crate) fn stopped(
        ref_label: &str,
        reference: Reference,
        cfg: ServiceConfig,
        backends: &[(BackendKind, &dyn Backend)],
    ) -> PipelineService {
        assert!(!backends.is_empty(), "service needs at least one backend");
        let pcfg = &cfg.pipeline;
        let index = ShardedIndex::build(reference, pcfg.shards, pcfg.shard_overlap);
        let trace = pcfg.trace.as_deref();
        if let Some(t) = trace {
            trace_lanes(t);
        }
        let depth = pcfg.queue_depth.max(1);
        // One trace lane per thread, in table order; each is named
        // when its lane starts.
        let (mut lanes, mut tid) = (Vec::new(), tids::BACKEND0);
        for (kind, backend) in backends {
            let threads = backend.in_flight().max(1);
            lanes.push(Lane {
                kind: *kind,
                threads,
                tid0: tid,
            });
            tid += threads as u64;
        }
        assert!(
            tid <= tids::MAP0,
            "the backend table runs {} batches at once; the trace has lanes for {}",
            tid - tids::BACKEND0,
            tids::MAP0 - tids::BACKEND0
        );
        // A lane holds `depth` batches; a batch starts within `2 × depth`
        // plus the started lanes' threads of the oldest one not
        // released. Keep the two apart.
        let path = (lanes.iter()).map(|lane| (lane.threads, BatchBuilder::new(pcfg.batch_bases)));
        let shared = Arc::new(Shared {
            ref_label: ref_label.to_string(),
            index,
            engines: Mutex::new(backends.iter().map(|(_, b)| b.engine_stats()).collect()),
            dispatch: Mutex::new(Dispatch::new(path, depth, 2 * depth as u64)),
            room: Condvar::new(),
            sched: Condvar::new(),
            turn: Condvar::new(),
            ready: Condvar::new(),
            counters: StageCounters::default(),
            ingest: Mutex::new(Ingest {
                next_read_seq: 0,
                next_session: 0,
                open_sessions: 0,
                draining: false,
                map_lanes: Vec::new(),
            }),
            drained_cv: Condvar::new(),
            sessions: Mutex::new(HashMap::new()),
            lanes,
            backend_errors: AtomicU64::new(0),
            last_backend_error: Mutex::new(None),
            started: Instant::now(),
            cfg,
        });
        PipelineService {
            shared,
            host: Mutex::new(None),
        }
    }

    /// Display label of the reference the service aligns against.
    pub fn ref_name(&self) -> &str {
        &self.shared.ref_label
    }

    /// Total reference length in bases, across all contigs.
    pub fn ref_len(&self) -> usize {
        self.shared.index.total_len()
    }

    /// Number of contigs in the loaded reference.
    pub fn ref_contigs(&self) -> usize {
        self.shared.index.num_contigs()
    }

    /// Sessions currently open.
    pub fn active_sessions(&self) -> usize {
        self.shared.ingest.lock().unwrap().open_sessions
    }

    /// True once [`PipelineService::shutdown`] has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.ingest.lock().unwrap().draining
    }

    /// Batches poisoned by a backend error so far (their reads fail
    /// individually; the service keeps running).
    pub fn backend_errors(&self) -> u64 {
        self.shared.backend_errors.load(Ordering::Relaxed)
    }

    /// The most recent backend error message, if any.
    pub fn last_backend_error(&self) -> Option<String> {
        self.last_backend_error_detail().map(|e| e.to_string())
    }

    /// The most recent backend error with its structured detail
    /// (backend name + reason) — what the one-shot wrapper needs to
    /// reconstruct its typed abort error.
    pub fn last_backend_error_detail(&self) -> Option<BackendError> {
        self.shared.last_backend_error.lock().unwrap().clone()
    }

    /// Record one session aborted by the serving layer's idle timeout
    /// (surfaces as `sessions_timed_out` in metrics and Prometheus
    /// exposition). The pipeline has no sockets of its own; the server
    /// seam calls this so the count lives next to the other
    /// session-robustness telemetry.
    pub fn note_session_timeout(&self) {
        self.shared.counters.sessions_timed_out.inc();
    }

    /// Open a session. Admission control: fails when `backend` is not
    /// in the service's backend table, while draining, or when
    /// [`ServiceConfig::max_sessions`] sessions are already open. The
    /// returned halves are independent — submit from one thread while
    /// another drains the receiver.
    pub fn open_session(
        &self,
        backend: BackendKind,
    ) -> Result<(Session, SessionReceiver), AdmissionError> {
        let lane = (self.shared.lanes.iter())
            .position(|lane| lane.kind == backend)
            .ok_or(AdmissionError::NotInTable(backend))?;
        let id = {
            let mut ing = self.shared.ingest.lock().unwrap();
            if ing.draining {
                return Err(AdmissionError::Draining);
            }
            let max = self.shared.cfg.max_sessions;
            if max > 0 && ing.open_sessions >= max {
                return Err(AdmissionError::Busy {
                    active: ing.open_sessions,
                    max,
                });
            }
            ing.open_sessions += 1;
            let id = ing.next_session;
            ing.next_session += 1;
            id
        };
        let cfg = &self.shared.cfg;
        let cell = Arc::new(SessionCell {
            outbox: Mutex::new(Outbox::new(
                cfg.max_session_output_bytes,
                cfg.max_session_inflight_reads,
            )),
            room: Condvar::new(),
            ready: Condvar::new(),
            backend,
            opened_at: Instant::now(),
        });
        (self.shared.sessions.lock().unwrap()).insert(id, Arc::clone(&cell));
        let receiver = SessionReceiver {
            cell: Arc::clone(&cell),
            buffered: Arc::clone(&self.shared.counters.session_output_buffered),
        };
        let session = Session {
            shared: Arc::clone(&self.shared),
            cell,
            id,
            lane,
            local_reads: 0,
            map_lane: None,
        };
        Ok((session, receiver))
    }

    /// Live service-wide metrics snapshot (the counters keep running;
    /// `wall` is the service uptime).
    pub fn metrics(&self) -> PipelineMetrics {
        let sh = &self.shared;
        let building = sh.lanes.len() * sh.cfg.pipeline.batch_bases.max(1);
        let d = sh.dispatch.lock().unwrap();
        let ([tasks, batches, results], lanes) = (d.queues(building), d.started_threads());
        drop(d);
        let mut m = PipelineMetrics::snapshot(
            &sh.counters,
            sh.started.elapsed(),
            sh.index.metrics(),
            tasks,
            batches,
            results,
            // Engine instrumentation merged across the backend table
            // (sessions may use different ones).
            (sh.engines.lock().unwrap().iter().flatten().copied()).reduce(|mut all, engine| {
                all.merge(&engine);
                all
            }),
        );
        m.in_flight_lanes = lanes;
        m
    }

    /// Per-session live counters for every open session, id-sorted.
    pub fn session_stats(&self) -> Vec<SessionStat> {
        let reg = self.shared.sessions.lock().unwrap();
        let mut out: Vec<SessionStat> = reg
            .iter()
            .filter_map(|(&id, cell)| {
                // A session that queued its `End` is over, even before
                // it leaves the registry.
                let ob = cell.outbox.lock().unwrap();
                (!ob.closed()).then(|| SessionStat {
                    id,
                    backend: cell.backend,
                    metrics: ob.metrics().clone(),
                    buffered_out_bytes: ob.buffered(),
                })
            })
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// One-line JSON status document: server state, per-session
    /// counters, and the full live [`PipelineMetrics`] snapshot
    /// (server `STATS JSON`).
    pub fn stats_json(&self) -> String {
        use std::fmt::Write;
        let sh = &self.shared;
        let ing = sh.ingest.lock().unwrap();
        let (active, draining) = (ing.open_sessions, ing.draining);
        drop(ing);
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema\":\"genasm-stats/v1\",\"server\":{{\"sessions\":{active},\
             \"draining\":{draining},\"backend_errors\":{},\"uptime_ms\":{},\
             \"ref\":{{\"label\":\"{}\",\"contigs\":{},\"total_len\":{}}}}}",
            self.backend_errors(),
            sh.started.elapsed().as_millis(),
            genasm_telemetry::json::escape(&sh.ref_label),
            sh.index.num_contigs(),
            sh.index.total_len(),
        );
        s.push_str(",\"sessions\":[");
        for (i, st) in self.session_stats().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{},\"backend\":\"{}\",\"reads_in\":{},\"reads_mapped\":{},\
                 \"reads_unmapped\":{},\"tasks\":{},\"task_bases\":{},\"records_out\":{},\
                 \"reads_failed\":{},\"buffered_out_bytes\":{}}}",
                st.id,
                st.backend,
                st.metrics.reads_in,
                st.metrics.reads_mapped,
                st.metrics.reads_unmapped,
                st.metrics.tasks,
                st.metrics.task_bases,
                st.metrics.records_out,
                st.metrics.reads_failed,
                st.buffered_out_bytes,
            );
        }
        s.push(']');
        let _ = write!(s, ",\"pipeline\":{}}}", self.metrics().to_json());
        s
    }

    /// Prometheus text exposition: the full pipeline registry plus
    /// server-level series (server `STATS PROM`).
    pub fn stats_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = self.metrics().to_prometheus();
        let _ = writeln!(out, "# TYPE genasm_sessions_active gauge");
        let _ = writeln!(out, "genasm_sessions_active {}", self.active_sessions());
        let _ = writeln!(out, "# TYPE genasm_backend_errors_total counter");
        let _ = writeln!(out, "genasm_backend_errors_total {}", self.backend_errors());
        let _ = writeln!(out, "# TYPE genasm_uptime_ms gauge");
        let _ = writeln!(
            out,
            "genasm_uptime_ms {}",
            self.shared.started.elapsed().as_millis()
        );
        out
    }

    /// One `genasm-stat-frame/v1` JSON object for the server's
    /// `STATS STREAM` push feed: uptime, open sessions, the decision
    /// funnel, caller-computed interval rates, per-backend batch
    /// counts and execute-latency quantiles, buffered session output,
    /// and the slowest-reads ring. Single line, no trailing newline.
    pub fn stat_frame_json(
        &self,
        interval_ms: u64,
        reads_per_sec: f64,
        records_per_sec: f64,
    ) -> String {
        use std::fmt::Write;
        let sh = &self.shared;
        let m = self.metrics();
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema\":\"genasm-stat-frame/v1\",\"uptime_ms\":{},\"interval_ms\":{},\
             \"sessions\":{},\"records_out\":{},\"funnel\":{},\
             \"rates\":{{\"reads_per_sec\":{},\"records_per_sec\":{}}}",
            sh.started.elapsed().as_millis(),
            interval_ms,
            self.active_sessions(),
            m.records_out,
            m.funnel.to_json(),
            genasm_telemetry::json::number(reads_per_sec),
            genasm_telemetry::json::number(records_per_sec),
        );
        s.push_str(",\"backends\":{");
        for (i, b) in m.backends.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"batches\":{},\"tasks\":{},\"execute_p50_ns\":{},\
                 \"execute_p99_ns\":{},\"execute_max_ns\":{}}}",
                genasm_telemetry::json::escape(&b.name),
                b.batches,
                b.tasks,
                b.execute.p50(),
                b.execute.p99(),
                b.execute.max,
            );
        }
        s.push('}');
        let _ = write!(
            s,
            ",\"buffered_out_bytes\":{},\"slowest\":{}}}",
            m.session_output_buffered_bytes,
            genasm_telemetry::slow::to_json(&m.slow_reads),
        );
        s
    }

    /// Stop admitting new sessions immediately (open ones keep
    /// running). [`PipelineService::shutdown`] implies this; calling
    /// it first lets a server refuse work the moment a shutdown is
    /// *requested*, before the drain itself begins.
    pub fn begin_drain(&self) {
        self.shared.ingest.lock().unwrap().draining = true;
    }

    /// Graceful drain: refuse new sessions, wait for open sessions to
    /// finish, flush and close every queue, join the stages, and
    /// return the final metrics. Idempotent — later calls just return
    /// a fresh snapshot.
    pub fn shutdown(&self) -> PipelineMetrics {
        {
            let mut ing = self.shared.ingest.lock().unwrap();
            ing.draining = true;
            while ing.open_sessions > 0 {
                ing = self.shared.drained_cv.wait(ing).unwrap();
            }
        }
        self.close();
        self.metrics()
    }

    /// Close the batch path — cut what is built; the stages exit once
    /// it has all run — and join the host thread, if this service has
    /// one.
    fn close(&self) {
        let sh = &self.shared;
        let mut d = sh.dispatch.lock().unwrap();
        for row in 0..sh.lanes.len() {
            if d.cut(row).is_some() {
                note_cut(sh, &d, row, "close");
            }
        }
        let w = d.close();
        drop(d);
        sh.wake(w);
        if let Some(host) = self.host.lock().unwrap().take() {
            let _ = host.join();
        }
    }
}

impl Drop for PipelineService {
    fn drop(&mut self) {
        // The stages must exit even if the owner never called
        // shutdown; detached sessions will see
        // `SubmitError::ServiceStopped`.
        self.close();
    }
}

/// One read after candidate generation ([`Session::map`]), waiting
/// for its turn to be [`Session::enqueue`]d.
pub(crate) struct MappedRead {
    name: String,
    qlen: usize,
    tasks: Vec<AlignTask>,
    stats: mapper::ReadMapStats,
    /// When mapping began: the start of the read's latency clock.
    started: Instant,
    map_ns: Duration,
}

/// The submitting half of a session. Dropping without
/// [`Session::finish`] finishes it implicitly.
pub struct Session {
    shared: Arc<Shared>,
    cell: Arc<SessionCell>,
    id: u64,
    /// The session's backend's lane (an index into `Shared::lanes`).
    lane: usize,
    local_reads: u64,
    /// The session's map trace lane (an index into
    /// `Ingest::map_lanes`), taken at its first submit.
    map_lane: Option<usize>,
}

impl Session {
    /// The service-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The backend this session's tasks are dispatched to.
    pub fn backend(&self) -> BackendKind {
        self.shared.lanes[self.lane].kind
    }

    /// Map one read and push its candidate tasks into the shared
    /// pipeline. Blocks while its backend's lane is full (the
    /// server-wide admission valve) or while this session is at one of
    /// its own caps (in-flight reads, or buffered output) — per-session
    /// backpressure that blocks only the submitting thread. Returns
    /// the number of tasks generated (0 = unmapped read; it completes
    /// immediately with no rows).
    pub fn submit(&mut self, read: ReadInput) -> Result<usize, SubmitError> {
        let lane = *self
            .map_lane
            .get_or_insert_with(|| take_map_lane(&self.shared));
        let mapped = self.map(
            self.local_reads as u32,
            read,
            tids::SESSION_MAP0 + lane as u64,
        );
        self.local_reads += 1;
        self.enqueue(mapped)
    }

    /// The thread-safe half of [`Session::submit`]: candidate
    /// generation against the shared index, timed, with its trace span
    /// on `lane`. `read_id` is the read's ordinal in the session.
    /// Touches no ordering state, so any number of threads may map
    /// reads of one session at once — the order is made when the
    /// results are handed to [`Session::enqueue`].
    pub(crate) fn map(&self, read_id: u32, read: ReadInput, lane: u64) -> MappedRead {
        let sh = &self.shared;
        let started = Instant::now();
        let (tasks, stats) =
            sh.index
                .candidates_for_read_stats(read_id, &read.seq, &sh.cfg.pipeline.params);
        let map_ns = started.elapsed();
        StageCounters::add_ns(&sh.counters.mapper_ns, map_ns);
        if let Some(t) = sh.trace() {
            t.span(
                "map",
                "service",
                lane,
                started,
                map_ns,
                &[
                    ("read", read.name.as_str().into()),
                    ("session", self.id.into()),
                    ("tasks", tasks.len().into()),
                ],
            );
        }
        MappedRead {
            name: read.name,
            qlen: read.seq.len(),
            tasks,
            stats,
            started,
            map_ns,
        }
    }

    /// The ordered half of [`Session::submit`]: admission, funnel and
    /// session bookkeeping, and the task pushes under the next global
    /// read sequence number. Reads of one session must be enqueued one
    /// at a time, in submission order.
    pub(crate) fn enqueue(&self, mapped: MappedRead) -> Result<usize, SubmitError> {
        let sh = &self.shared;
        let MappedRead {
            name,
            qlen,
            tasks,
            stats: map_stats,
            started: submitted_at,
            map_ns,
        } = mapped;
        // Admission and the session's books, in one critical section of
        // the session's own lock.
        let mut ob = self.cell.outbox.lock().unwrap();
        let mut waited = false;
        loop {
            match ob.admit() {
                Admit::Go => break,
                Admit::Wait => {
                    if !std::mem::replace(&mut waited, true) {
                        sh.counters.sessions_throttled.inc();
                    }
                    ob = self.cell.room.wait(ob).unwrap();
                }
                Admit::Gone => return Err(SubmitError::ReceiverGone),
            }
        }
        sh.counters.reads_in.inc();
        let unmapped_reason = sh.counters.note_funnel(&map_stats);
        let provenance = Arc::new(ReadProvenance {
            anchors: map_stats.anchors,
            chains: map_stats.chains,
            candidates: map_stats.candidates,
            map_ns: map_ns.as_nanos() as u64,
        });
        let n = tasks.len();
        if n == 0 {
            let disp = disposition::unmapped(unmapped_reason.unwrap_or("no_candidates"));
            let rec = ExplainRecord {
                read: &name,
                disposition: &disp,
                backend: None,
                provenance: *provenance,
                tasks: &[],
                align_ns: 0,
            };
            // The read never reaches the sink: its end-to-end latency is
            // its mapping time.
            note_read(sh, &rec, provenance.map_ns);
            let w = ob.unmapped(|| rec.to_json());
            drop(ob);
            self.cell.wake(w);
            return Ok(0);
        }
        // In flight from before the pushes, so the read counts against
        // the session's cap from the moment it can occupy lane space;
        // its delivery frees the slot.
        let total_bases: usize = tasks.iter().map(AlignTask::bases).sum();
        ob.register(n as u64, total_bases as u64);
        drop(ob);
        let qname: Arc<str> = Arc::from(name);
        // The sink gathers a read's tasks by `read_seq`, so they need not
        // be contiguous among other sessions' pushes; and a session
        // enqueues one read at a time into its one lane, so its reads
        // still complete in its order.
        let read_seq = {
            let mut ing = sh.ingest.lock().unwrap();
            ing.next_read_seq += 1;
            ing.next_read_seq - 1
        };
        // One lock for the read's pushes, unless its lane is full. A
        // push's wakes go out at once, under the lock: a lane to start,
        // or a linger to time, must not wait behind this thread's sleep
        // for room.
        let (mut d, t0, mut asleep) = (sh.dispatch.lock().unwrap(), Instant::now(), Duration::ZERO);
        for task in tasks {
            let bases = task.bases();
            let query_bases = task.query.len() as u64;
            let meta = TaskMeta {
                read_seq,
                session: self.id,
                qname: Arc::clone(&qname),
                qlen,
                read_tasks: n as u32,
                tname: sh.index.contig_name_shared(task.contig),
                tsize: sh.index.contig_len(task.contig),
                tstart: task.ref_pos,
                tlen: task.target.len(),
                reverse: task.reverse,
                provenance: Arc::clone(&provenance),
                submitted_at,
            };
            let (mut item, mut waited) = ((task, meta), Duration::ZERO);
            loop {
                match d.push(self.lane, item, bases) {
                    Ok(Pushed::Joined(w)) => {
                        sh.wake(w);
                        break;
                    }
                    Ok(Pushed::Cut(w)) => {
                        note_cut(sh, &d, self.lane, "full");
                        sh.wake(w);
                        break;
                    }
                    Err(Refused::Full(back)) => {
                        let t = Instant::now();
                        (item, d) = (back, sh.room.wait(d).unwrap());
                        waited += t.elapsed();
                    }
                    Err(Refused::Closed(_)) => return Err(SubmitError::ServiceStopped),
                }
            }
            asleep += waited;
            sh.counters.task_in(bases);
            sh.counters.query_bases.add(query_bases);
            sh.counters.task_queue_wait_ns.record_duration(waited);
        }
        drop(d);
        StageCounters::add_ns(
            &sh.counters.scheduler_ns,
            t0.elapsed().saturating_sub(asleep),
        );
        Ok(n)
    }

    /// Opt this session in (or out) of per-read provenance events:
    /// while on, every read is followed by a [`SessionEvent::Explain`]
    /// carrying its `genasm-explain/v2` JSON line. Strictly passive —
    /// record delivery and ordering are unchanged.
    pub fn set_explain(&mut self, on: bool) {
        self.cell.outbox.lock().unwrap().set_explain(on);
    }

    /// Declare the session finished: once its in-flight reads drain,
    /// the receiver gets [`SessionEvent::End`] and the session slot is
    /// released for admission. Reads still in flight are not held
    /// back for the linger: this call cuts the session's backend's
    /// building batch.
    pub fn finish(self) {
        // Dropping the session finishes it.
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let sh = &self.shared;
        let (w, ended) = self.cell.outbox.lock().unwrap().finish();
        self.cell.wake(w);
        // With reads in flight, cut before the session is counted out, so
        // a shutdown closes the path behind it; a closed path has cut the
        // batch itself.
        if ended {
            end_session(sh, self.id);
        } else {
            let (mut d, t0) = (sh.dispatch.lock().unwrap(), Instant::now());
            if let Some(w) = d.cut(self.lane) {
                note_cut(sh, &d, self.lane, "finish");
                drop(d);
                sh.wake(w);
            }
            StageCounters::add_ns(&sh.counters.scheduler_ns, t0.elapsed());
        }
        let mut ing = sh.ingest.lock().unwrap();
        ing.open_sessions -= 1;
        if let Some(lane) = self.map_lane.take() {
            ing.map_lanes[lane] = false;
        }
        drop(ing);
        sh.drained_cv.notify_all();
    }
}

/// The receiving half of a session: completed reads stream out in
/// submission order, closed by [`SessionEvent::End`]. Consuming an
/// event credits the session's output budget; dropping the receiver
/// before `End` writes the budget off and makes further submits fail
/// with [`SubmitError::ReceiverGone`] — a vanished consumer must not
/// pin buffered output or deadlock a throttled submitter.
pub struct SessionReceiver {
    cell: Arc<SessionCell>,
    /// The service-wide gauge of buffered session output.
    buffered: Arc<genasm_telemetry::Gauge>,
}

impl SessionReceiver {
    /// Take the next event, sleeping until it comes or, with a
    /// `deadline`, until then.
    fn take(&self, deadline: Option<Instant>) -> RecvOutcome {
        let mut ob = self.cell.outbox.lock().unwrap();
        loop {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            match (ob.take(), left) {
                (Taken::Event(event, bytes, w), _) => {
                    drop(ob);
                    self.buffered.sub(bytes);
                    self.cell.wake(w);
                    return RecvOutcome::Event(event);
                }
                (Taken::Closed, _) => return RecvOutcome::Closed,
                (Taken::Wait, None) => ob = self.cell.ready.wait(ob).unwrap(),
                (Taken::Wait, Some(Duration::ZERO)) => return RecvOutcome::TimedOut,
                (Taken::Wait, Some(left)) => ob = self.cell.ready.wait_timeout(ob, left).unwrap().0,
            }
        }
    }

    /// Next event; `None` if the service died before the session ended
    /// (after [`SessionEvent::End`] this also returns `None`).
    pub fn recv(&self) -> Option<SessionEvent> {
        match self.take(None) {
            RecvOutcome::Event(event) => Some(event),
            _ => None,
        }
    }

    /// Like [`SessionReceiver::recv`] with a deadline, telling a quiet
    /// session from a dead service — what a serving loop needs to
    /// choose between emitting a heartbeat and giving up.
    pub fn recv_deadline(&self, timeout: Duration) -> RecvOutcome {
        self.take(Instant::now().checked_add(timeout))
    }

    /// Iterate events until `End` (inclusive) or service death.
    pub fn iter(&self) -> impl Iterator<Item = SessionEvent> + '_ {
        std::iter::from_fn(|| self.recv())
    }
}

impl Drop for SessionReceiver {
    fn drop(&mut self) {
        let (w, orphaned) = self.cell.outbox.lock().unwrap().drop_receiver();
        self.buffered.sub(orphaned);
        self.cell.wake(w);
    }
}

/// Outcome of [`SessionReceiver::recv_deadline`].
#[derive(Debug)]
pub enum RecvOutcome {
    /// An event arrived.
    Event(SessionEvent),
    /// Nothing arrived within the window; the session is still live.
    TimedOut,
    /// The service died before the session ended ([`SessionEvent::End`]
    /// will never come).
    Closed,
}

/// Take the lowest free session map lane, naming it in the trace the
/// first time it is used: each open session maps on a lane of its own,
/// so map spans on one lane never overlap.
fn take_map_lane(sh: &Shared) -> usize {
    let mut ing = sh.ingest.lock().unwrap();
    let lane = match ing.map_lanes.iter().position(|taken| !taken) {
        Some(lane) => lane,
        None => {
            ing.map_lanes.push(false);
            let lane = ing.map_lanes.len() - 1;
            if let Some(t) = sh.trace() {
                t.thread_name(
                    tids::SESSION_MAP0 + lane as u64,
                    &format!("session-map:{lane}"),
                );
            }
            lane
        }
    };
    ing.map_lanes[lane] = true;
    lane
}

/// Run the stages over the backend table they borrow: the sink on a
/// thread of `scope`, the scheduler on this one, and `backends[i]`'s
/// lane of [`Backend::in_flight`] dispatcher threads on `scope` after
/// the lane's first cut — so a backend that no session uses costs no
/// thread. The one place a stage thread is made: [`crate::run_pipeline`]
/// calls it on a thread of the scope its run lives in, over the
/// caller's `&dyn Backend` as it came, a resident service on the host
/// thread that owns its boxed table.
///
/// The scheduler never sees a task. It starts each lane after its first
/// cut, made on whichever thread; cuts a building batch once it is
/// [`ServiceConfig::linger`] old — an age bound, so a partial batch
/// waits at most `linger` whatever other backends' traffic does, and
/// flush timing never changes output. While no batch builds it sleeps
/// with no timeout, and the push that opens a batch wakes it, so an
/// idle service's scheduler never ticks. It returns once the service
/// has closed and every lane with a batch has started.
pub(crate) fn run_stages<'scope>(
    scope: &'scope Scope<'scope, '_>,
    sh: &'scope Shared,
    backends: &'scope [(BackendKind, &'scope dyn Backend)],
) {
    scope.spawn(move || sink_loop(sh));
    // A zero linger would spin the scheduler while a batch builds.
    let linger = sh.cfg.linger.max(Duration::from_millis(1));
    let mut d = sh.dispatch.lock().unwrap();
    loop {
        let t0 = Instant::now();
        // The oldest building batch's linger; none while nothing builds.
        let mut due = None::<Instant>;
        for row in 0..sh.lanes.len() {
            let Some(started) = d.building(row).started() else {
                continue;
            };
            let until = started + linger;
            if until > t0 {
                due = Some(due.map_or(until, |due| due.min(until)));
            } else if let Some(w) = d.cut(row) {
                note_cut(sh, &d, row, "linger");
                sh.wake(w);
            }
        }
        StageCounters::add_ns(&sh.counters.scheduler_ns, t0.elapsed());
        match d.chore() {
            Chore::Start(row, w) => {
                drop(d);
                sh.wake(w);
                // Each thread on a trace lane `backend:NAME:SLOT`.
                let (lane, backend) = (&sh.lanes[row], backends[row].1);
                for slot in 0..lane.threads {
                    if let Some(t) = sh.trace() {
                        let name = format!("backend:{}:{slot}", backend.name());
                        t.thread_name(lane.tid0 + slot as u64, &name);
                    }
                    scope.spawn(move || dispatch_loop(sh, row, slot, backend));
                }
                d = sh.dispatch.lock().unwrap();
            }
            // The push that opens a batch wakes this wait.
            Chore::Wait => match due {
                Some(due) => {
                    let sleep = due.saturating_duration_since(Instant::now());
                    d = sh.sched.wait_timeout(d, sleep).unwrap().0;
                }
                None => d = sh.sched.wait(d).unwrap(),
            },
            Chore::Exit => return,
        }
    }
}

/// Count the batch just cut into lane `row` — under the lock, so that a
/// metrics snapshot never reads more batches cut than counted — and
/// trace its `batch-build` span, whose `cause` says why it went: `full`
/// (it reached its base target), `linger`, `finish` (a session with
/// reads in it finished) or `close`. Every cut passes here.
fn note_cut(sh: &Shared, d: &Path, row: usize, cause: &str) {
    let (seq, batch) = d.newest(row);
    sh.counters.batch_dispatched(batch.tasks.len(), batch.bases);
    let build = batch.ready_at.duration_since(batch.build_started);
    sh.counters.batch_build_ns.record_duration(build);
    if let Some(t) = sh.trace() {
        t.span(
            "batch-build",
            "service",
            tids::SCHED,
            batch.build_started,
            build,
            &[
                ("batch", seq.into()),
                ("backend", sh.lanes[row].kind.to_string().into()),
                ("tasks", batch.tasks.len().into()),
                ("bases", batch.bases.into()),
                ("cause", cause.into()),
            ],
        );
    }
}

/// Run one batch through `backend`, turning a panic inside it, or a
/// result vector that is not one entry per task, into the batch's
/// [`BackendError`]. An unwinding dispatcher would never finish the
/// batch: the sink would wait on it forever and `shutdown` would never
/// return. A short vector would leave the reads of its missing tasks waiting for them at the
/// sink, and their sessions would never end.
fn align_isolated(
    backend: &dyn Backend,
    tasks: &[AlignTask],
) -> Result<Vec<Option<Alignment>>, BackendError> {
    let fail = |reason| BackendError {
        backend: backend.name(),
        reason,
    };
    match catch_unwind(AssertUnwindSafe(|| backend.align_batch(tasks))) {
        Ok(Ok(alignments)) if alignments.len() != tasks.len() => Err(fail(format!(
            "returned {} results for {} tasks",
            alignments.len(),
            tasks.len()
        ))),
        Ok(result) => result,
        Err(panic) => {
            let what = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("(no message)");
            Err(fail(format!("panicked: {what}")))
        }
    }
}

/// Thread `slot` of lane `row`: take the lane's batches in cut order,
/// run each on `backend`, hand the results to the sink. A batch's queue
/// wait runs from its cut to its `align_batch` call.
fn dispatch_loop(sh: &Shared, row: usize, slot: usize, backend: &dyn Backend) {
    let tid = sh.lanes[row].tid0 + slot as u64;
    // Made at the first batch, so the metrics list only the backends
    // that ran, and an idle thread allocates nothing.
    let mut lat: Option<BackendLat> = None;
    loop {
        let mut d = sh.dispatch.lock().unwrap();
        let (seq, batch) = loop {
            match d.next(row) {
                Next::Run(seq, batch, w) => {
                    drop(d);
                    sh.wake(w);
                    break (seq, batch);
                }
                Next::Wait => d = sh.turn.wait(d).unwrap(),
                Next::Exit => return,
            }
        };
        let t0 = Instant::now();
        let lat = lat.get_or_insert_with(|| sh.counters.backend_lat(backend.name()));
        let queue_wait = t0.duration_since(batch.ready_at);
        lat.queue_wait_ns.record_duration(queue_wait);
        let alignments = match align_isolated(backend, &batch.tasks) {
            Ok(a) => a,
            Err(e) => {
                // Poisoned batch: fail its reads individually, keep
                // serving everyone else. Stored before the batch
                // finishes so a consumer that sees a failed read always
                // finds the error that caused it.
                sh.backend_errors.fetch_add(1, Ordering::Relaxed);
                *sh.last_backend_error.lock().unwrap() = Some(e);
                batch.tasks.iter().map(|_| None).collect()
            }
        };
        let execute = t0.elapsed();
        StageCounters::add_ns(&sh.counters.backend_ns, execute);
        lat.execute_ns.record_duration(execute);
        lat.batches.inc();
        lat.tasks.add(batch.tasks.len() as u64);
        lat.bases.add(batch.bases as u64);
        if let Some(t) = sh.trace() {
            let args = [
                ("batch", seq.into()),
                ("tasks", batch.tasks.len().into()),
                ("bases", batch.bases.into()),
            ];
            t.span(
                "queue-wait",
                "service",
                tid,
                batch.ready_at,
                queue_wait,
                &args,
            );
            t.span("execute", "service", tid, t0, execute, &args);
        }
        {
            // Read under the lock, so a later reading is never
            // overwritten by an earlier one, and before the batch
            // finishes, so whoever sees a batch's rows finds it counted.
            let mut engines = sh.engines.lock().unwrap();
            engines[row] = backend.engine_stats();
        }
        let done = SvcDone {
            seq,
            metas: batch.metas,
            alignments,
            backend_name: backend.name(),
            completed_at: Instant::now(),
        };
        let w = sh.dispatch.lock().unwrap().finish(seq, done);
        sh.wake(w);
    }
}

/// A read whose tasks are still arriving at the sink.
struct ReadAcc {
    session: u64,
    qname: Arc<str>,
    expected: u32,
    got: u32,
    rows: Vec<AlignRecord>,
    /// One entry per accepted candidate (explain).
    tasks: Vec<TaskExplain>,
    failed: bool,
    submitted_at: Instant,
    /// Funnel counts captured at candidate generation.
    provenance: Arc<ReadProvenance>,
    /// Backend that executed the read's tasks (explain provenance):
    /// its session's one backend.
    backend: &'static str,
}

/// Deliver one completed read to its session and update completion
/// accounting (possibly emitting the session's `End`).
fn finalize_read(sh: &Shared, acc: ReadAcc) {
    let latency = acc.submitted_at.elapsed();
    // Funnel disposition is global telemetry: it runs even when the
    // session's receiver is already gone.
    let disp = disposition::of(None, acc.failed);
    if acc.failed {
        sh.counters.reads_failed.inc();
    } else {
        sh.counters.reads_aligned.inc();
    }
    let rec = ExplainRecord {
        read: &acc.qname,
        disposition: &disp,
        backend: Some(acc.backend),
        provenance: *acc.provenance,
        tasks: &acc.tasks,
        align_ns: latency.as_nanos() as u64,
    };
    note_read(sh, &rec, rec.align_ns);
    if let Some(t) = sh.trace() {
        t.span(
            "read",
            "service",
            tids::READS,
            acc.submitted_at,
            latency,
            &[
                ("read", (&*acc.qname).into()),
                ("session", acc.session.into()),
            ],
        );
    }
    // Sorted and sized before the session's lock, which its submitter
    // waits on: a long read's rows carry ~12 kB of CIGAR each. Accounted
    // as the TSV rendering plus a newline per row — the bytes a server
    // would buffer for this delivery.
    let (event, bytes, records) = if acc.failed {
        let read = acc.qname.to_string();
        (SessionEvent::ReadFailed { read }, 0, 0)
    } else {
        let mut rows = acc.rows;
        rows.sort_by(AlignRecord::cmp_best_first);
        let bytes = rows.iter().map(|r| r.tsv_len() as u64 + 1).sum();
        let records = rows.len() as u64;
        (SessionEvent::Rows(rows), bytes, records)
    };
    let Some(cell) = sh.sessions.lock().unwrap().get(&acc.session).cloned() else {
        return; // a read in flight keeps its session open
    };
    let mut ob = cell.outbox.lock().unwrap();
    let d = ob.deliver(event, bytes, || rec.to_json());
    if d.queued {
        // Counted before the receiver can take the rows and credit them.
        let total = sh.counters.session_output_buffered.add(bytes);
        sh.counters.max_session_output_buffered.set_max(total);
        sh.counters.records_out.add(records);
    }
    drop(ob);
    cell.wake(d.wake);
    if d.ended {
        end_session(sh, acc.session);
    }
}

/// Count a read done `latency_ns` after it entered — one latency sample
/// per read — and emit its explain record to the configured sink.
fn note_read(sh: &Shared, rec: &ExplainRecord, latency_ns: u64) {
    sh.counters.read_latency_ns.record(latency_ns);
    (sh.counters.slow_reads).observe(rec.read, latency_ns, rec.disposition);
    if let Some(x) = sh.cfg.pipeline.explain.as_deref() {
        x.emit(rec);
    }
}

/// Session `id` queued its `End`: forget it, and trace its span.
fn end_session(sh: &Shared, id: u64) {
    let cell = sh.sessions.lock().unwrap().remove(&id);
    let (Some(t), Some(cell)) = (sh.trace(), cell) else {
        return;
    };
    let m = cell.outbox.lock().unwrap().metrics().clone();
    t.span(
        "session",
        "service",
        tids::SESSION,
        cell.opened_at,
        cell.opened_at.elapsed(),
        &[
            ("session", id.into()),
            ("backend", cell.backend.to_string().into()),
            ("reads", m.reads_in.into()),
            ("records", m.records_out.into()),
        ],
    );
}

/// Take each batch in cut order once it has finished, deliver its
/// reads outside the dispatch lock, then release it.
fn sink_loop(sh: &Shared) {
    // Keyed by global read sequence: with per-backend batches, another
    // backend's batch can land between two batches carrying one read's
    // tasks, so (unlike the one-shot sink) a single "current read"
    // accumulator is not enough. Reads still *complete* in per-session
    // submission order — one session means one backend, so its tasks
    // flow FIFO through one building batch.
    let mut accs: HashMap<u64, ReadAcc> = HashMap::new();
    loop {
        let mut dispatch = sh.dispatch.lock().unwrap();
        let batch = loop {
            if let Some(batch) = dispatch.ready() {
                break batch;
            }
            if dispatch.drained() {
                debug_assert!(accs.is_empty(), "no partial reads left at shutdown");
                return;
            }
            dispatch = sh.ready.wait(dispatch).unwrap();
        };
        drop(dispatch);
        let t0 = Instant::now();
        let batch_seq = batch.seq;
        let backend_name = batch.backend_name;
        sh.counters
            .reorder_wait_ns
            .record_duration(t0.duration_since(batch.completed_at));
        for (meta, aln) in batch.metas.iter().zip(batch.alignments) {
            sh.counters.task_out(meta.qlen + meta.tlen);
            let acc = accs.entry(meta.read_seq).or_insert_with(|| ReadAcc {
                session: meta.session,
                qname: Arc::clone(&meta.qname),
                expected: meta.read_tasks,
                got: 0,
                rows: Vec::with_capacity(meta.read_tasks as usize),
                tasks: Vec::with_capacity(meta.read_tasks as usize),
                failed: false,
                submitted_at: meta.submitted_at,
                provenance: Arc::clone(&meta.provenance),
                backend: backend_name,
            });
            match aln {
                Some(aln) => {
                    acc.tasks.push(TaskExplain::new(&aln));
                    acc.rows.push(AlignRecord::from_alignment(
                        &meta.qname,
                        meta.qlen,
                        &meta.tname,
                        meta.tsize,
                        meta.tstart,
                        meta.tlen,
                        meta.reverse,
                        aln,
                    ))
                }
                None => acc.failed = true,
            }
            acc.got += 1;
            if acc.got == acc.expected {
                let acc = accs.remove(&meta.read_seq).unwrap();
                finalize_read(sh, acc);
            }
        }
        let w = sh.dispatch.lock().unwrap().release();
        sh.wake(w);
        StageCounters::add_ns(&sh.counters.sink_ns, t0.elapsed());
        if let Some(t) = sh.trace() {
            t.span(
                "sink",
                "service",
                tids::SINK,
                t0,
                t0.elapsed(),
                &[("batch", batch_seq.into())],
            );
        }
    }
}
