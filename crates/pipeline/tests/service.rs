//! Properties of the long-lived [`PipelineService`]:
//!
//! 1. **Per-session determinism** — every concurrent session's output
//!    is byte-identical to a one-shot [`run_pipeline`] (itself proven
//!    byte-identical to `genasm align`) over that session's reads,
//!    for any interleaving of sessions and mix of backends.
//! 2. **Server-wide bounded memory** — peak resident bases across all
//!    sessions stay within [`ServiceConfig::resident_bases_bound`].
//! 3. **Admission control** — the session cap and the draining state
//!    refuse new sessions with typed errors.
//! 4. **Graceful drain** — shutdown waits for in-flight sessions,
//!    delivers every row, then refuses new work.
//! 5. **Contained faults** — a slow reader is throttled, and a backend
//!    that errors, panics, stalls or returns too few results fails
//!    only the reads of its batches; no session is wedged or dropped.

mod common;

use std::sync::Arc;
use std::time::Duration;

use align_core::{Reference, Seq};
use common::{trace_field, within_a_minute, Fault, FaultBackend, SharedBuf};
use genasm_pipeline::{
    run_pipeline, AdmissionError, Backend, BackendKind, PipelineConfig, PipelineError,
    PipelineService, ReadInput, RecvOutcome, ServiceConfig, Session, SessionEvent, SessionMetrics,
    SessionReceiver, TraceRecorder,
};
use readsim::{simulate_reads, ErrorModel, Genome, GenomeConfig, ReadConfig};

/// Deterministic synthetic workload: (reference, named reads).
/// `n_reads == 0` returns just the reference (callers simulate their
/// own per-session read sets from `seq`).
fn workload(genome_len: usize, n_reads: usize, read_len: usize, seed: u64) -> WorkloadData {
    let genome = Genome::generate(&GenomeConfig::human_like(genome_len, 77));
    let named = if n_reads == 0 {
        Vec::new()
    } else {
        simulate_reads(
            &genome,
            &ReadConfig {
                count: n_reads,
                length: read_len,
                errors: ErrorModel::pacbio_clr(0.08),
                rc_fraction: 0.5,
                seed,
            },
        )
        .into_iter()
        .enumerate()
        .map(|(i, r)| (format!("s{seed}read{i}"), r.seq))
        .collect()
    };
    WorkloadData {
        reference: Reference::single("ref", genome.seq.clone()),
        seq: genome.seq,
        reads: named,
    }
}

struct WorkloadData {
    reference: Reference,
    /// The raw contig sequence, for simulating further read sets.
    seq: Seq,
    reads: Vec<(String, Seq)>,
}

/// The golden expectation: one-shot pipeline output over these reads
/// (byte-identical to `genasm align` by the determinism suite).
fn one_shot(reads: &[(String, Seq)], reference: &Reference, backend: BackendKind) -> String {
    let stream = reads.iter().map(|(name, seq)| {
        Ok::<_, std::convert::Infallible>(ReadInput {
            name: name.clone(),
            seq: seq.clone(),
        })
    });
    let mut buf = String::new();
    run_pipeline(
        stream,
        reference.clone(),
        backend.create().as_ref(),
        &PipelineConfig::default(),
        |rec| {
            buf.push_str(&rec.to_tsv());
            buf.push('\n');
            Ok(())
        },
    )
    .expect("one-shot pipeline failed");
    buf
}

/// Drive one service session over `reads`, collecting TSV output and
/// the end-of-session metrics.
fn run_session(
    service: &PipelineService,
    backend: BackendKind,
    reads: &[(String, Seq)],
) -> (String, SessionMetrics) {
    let (mut session, receiver) = service.open_session(backend).expect("admission");
    submit_all(&mut session, reads);
    session.finish();
    drain_tsv(receiver.iter())
}

/// Submit `reads` to `session`, in order.
fn submit_all(session: &mut Session, reads: &[(String, Seq)]) {
    for (name, seq) in reads {
        session
            .submit(ReadInput {
                name: name.clone(),
                seq: seq.clone(),
            })
            .expect("submit");
    }
}

/// Collect a session's rows as TSV up to its `End`, with the
/// end-of-session metrics; a failed read fails the test. Takes the
/// events rather than the receiver so a caller can pace the drain or
/// look at the events on the way.
fn drain_tsv(events: impl Iterator<Item = SessionEvent>) -> (String, SessionMetrics) {
    let mut out = String::new();
    for event in events {
        match event {
            SessionEvent::Rows(rows) => {
                for r in &rows {
                    out.push_str(&r.to_tsv());
                    out.push('\n');
                }
            }
            SessionEvent::ReadFailed { read } => panic!("read {read} failed"),
            SessionEvent::Explain(_) => {}
            SessionEvent::End(m) => return (out, m),
        }
    }
    panic!("End event never delivered")
}

/// [`drain_tsv`] at one event per millisecond: a receiver far slower
/// than the backend, so a small output cap has to throttle.
fn drain_tsv_slowly(receiver: &SessionReceiver) -> (String, SessionMetrics) {
    drain_tsv(
        receiver
            .iter()
            .inspect(|_| std::thread::sleep(std::time::Duration::from_millis(1))),
    )
}

#[test]
fn single_session_matches_one_shot_pipeline() {
    let w = workload(80_000, 6, 900, 11);
    let expected = one_shot(&w.reads, &w.reference, BackendKind::Cpu);
    assert!(!expected.is_empty());

    let service = PipelineService::start("ref", w.reference.clone(), ServiceConfig::default());
    let (got, m) = run_session(&service, BackendKind::Cpu, &w.reads);
    assert_eq!(got, expected, "session output diverged from one-shot");
    assert_eq!(m.reads_in, 6);
    assert_eq!(m.records_out as usize, expected.lines().count());
    assert_eq!(m.reads_failed, 0);
    service.shutdown();
}

#[test]
fn concurrent_sessions_each_match_one_shot_across_backends() {
    // Four interleaved sessions with distinct read sets and a mix of
    // backends, hammering the shared queues from four threads at once.
    let base = workload(90_000, 0, 0, 1);
    let reference = base.reference;
    let sessions: Vec<(BackendKind, Vec<(String, Seq)>)> = [
        (BackendKind::Cpu, 21u64),
        (BackendKind::Edlib, 22),
        (BackendKind::Cpu, 23),
        (BackendKind::Ksw2, 24),
    ]
    .iter()
    .map(|&(backend, seed)| {
        let genome = Genome {
            seq: base.seq.clone(),
            planted: Vec::new(),
        };
        let reads = simulate_reads(
            &genome,
            &ReadConfig {
                count: 5,
                length: 700,
                errors: ErrorModel::pacbio_clr(0.08),
                rc_fraction: 0.5,
                seed,
            },
        );
        let named = reads
            .into_iter()
            .enumerate()
            .map(|(i, r)| (format!("s{seed}read{i}"), r.seq))
            .collect();
        (backend, named)
    })
    .collect();

    let expected: Vec<String> = sessions
        .iter()
        .map(|(backend, reads)| one_shot(reads, &reference, *backend))
        .collect();

    // Small batches so sessions genuinely interleave inside shared
    // batches and the per-backend builders.
    let cfg = ServiceConfig {
        pipeline: PipelineConfig {
            batch_bases: 4 * 1024,
            queue_depth: 4,
            ..PipelineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(PipelineService::start("ref", reference.clone(), cfg));
    let outputs: Vec<(String, SessionMetrics)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|(backend, reads)| {
                let service = Arc::clone(&service);
                scope.spawn(move || run_session(&service, *backend, reads))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, ((got, m), want)) in outputs.iter().zip(&expected).enumerate() {
        assert!(!want.is_empty(), "session {i} produced nothing");
        assert_eq!(got, want, "session {i} diverged from one-shot output");
        assert_eq!(m.reads_in, 5, "session {i}");
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.reads_in, 20);
    assert_eq!(
        metrics.records_out as usize,
        expected.iter().map(|e| e.lines().count()).sum::<usize>()
    );
}

#[test]
fn server_wide_residency_stays_within_the_configured_bound() {
    // Three greedy sessions, tiny queues: the shared task queue must
    // cap resident bases across *all* sessions together.
    let w = workload(70_000, 0, 0, 2);
    let reference = w.reference;
    let raw_seq = w.seq;
    let cfg = ServiceConfig {
        pipeline: PipelineConfig {
            batch_bases: 2 * 1024,
            queue_depth: 2,
            ..PipelineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(PipelineService::start(
        "ref",
        reference.clone(),
        cfg.clone(),
    ));
    std::thread::scope(|scope| {
        for seed in [31u64, 32, 33] {
            let service = Arc::clone(&service);
            let raw_seq = raw_seq.clone();
            scope.spawn(move || {
                let genome = Genome {
                    seq: raw_seq,
                    planted: Vec::new(),
                };
                let reads = simulate_reads(
                    &genome,
                    &ReadConfig {
                        count: 20,
                        length: 600,
                        errors: ErrorModel::pacbio_clr(0.08),
                        rc_fraction: 0.5,
                        seed,
                    },
                );
                let named: Vec<(String, Seq)> = reads
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| (format!("s{seed}r{i}"), r.seq))
                    .collect();
                run_session(&service, BackendKind::Cpu, &named)
            });
        }
    });
    let metrics = service.shutdown();
    assert_eq!(metrics.reads_in, 60);
    let bound =
        cfg.resident_bases_bound(metrics.max_task_bases as usize, 1, metrics.in_flight_lanes);
    assert!(
        metrics.max_inflight_bases as usize <= bound,
        "peak {} bases exceeded the server-wide bound {bound} \
         (max task {} bases)",
        metrics.max_inflight_bases,
        metrics.max_task_bases
    );
    // The workload is far larger than the bound, so the cap really bit.
    assert!(
        metrics.task_bases > bound as u64,
        "workload too small to exercise the bound: {} <= {bound}",
        metrics.task_bases
    );
}

#[test]
fn session_cap_refuses_with_busy() {
    let w = workload(30_000, 0, 0, 3);
    let cfg = ServiceConfig {
        max_sessions: 2,
        ..ServiceConfig::default()
    };
    let service = PipelineService::start("ref", w.reference, cfg);
    let a = service.open_session(BackendKind::Cpu).unwrap();
    let b = service.open_session(BackendKind::Cpu).unwrap();
    match service.open_session(BackendKind::Cpu) {
        Err(AdmissionError::Busy { active, max }) => {
            assert_eq!((active, max), (2, 2));
        }
        other => panic!("expected Busy, got {:?}", other.err()),
    }
    drop(a);
    // A released slot is immediately reusable.
    let c = service.open_session(BackendKind::Cpu).unwrap();
    drop(b);
    drop(c);
    service.shutdown();
}

/// A session on a backend the table does not have is refused with the
/// kind named, and the service goes on serving the ones it has.
#[test]
fn a_session_on_a_backend_missing_from_the_table_is_refused() {
    within_a_minute(|| {
        let w = workload(60_000, 6, 500, 29);
        let want = one_shot(&w.reads, &w.reference, BackendKind::Cpu);
        let service = PipelineService::start_with_backends(
            "ref",
            w.reference.clone(),
            ServiceConfig::default(),
            vec![(BackendKind::Cpu, BackendKind::Cpu.create())],
        );
        let refused = service.open_session(BackendKind::GpuSim).err();
        assert_eq!(
            refused,
            Some(AdmissionError::NotInTable(BackendKind::GpuSim))
        );
        assert_eq!(
            refused.unwrap().to_string(),
            "backend gpu-sim is not in this service's backend table"
        );
        assert_eq!(service.active_sessions(), 0);
        let (got, _) = run_session(&service, BackendKind::Cpu, &w.reads);
        assert_eq!(got, want);
        service.shutdown();
    });
}

/// A lane's threads start with its first batch, so a service may shut
/// down with none started: the scheduler's own share of the live
/// dispatcher count must close the result queue for the sink to exit.
#[test]
fn a_service_on_which_no_lane_started_still_shuts_down() {
    within_a_minute(|| {
        let w = workload(30_000, 0, 0, 3);
        // No session at all, on the full table.
        let service = PipelineService::start("ref", w.reference.clone(), ServiceConfig::default());
        let m = service.shutdown();
        assert_eq!((m.batches, m.in_flight_lanes), (0, 0));
        // Only a refused session.
        let service = PipelineService::start_with_backends(
            "ref",
            w.reference,
            ServiceConfig::default(),
            vec![(BackendKind::Cpu, BackendKind::Cpu.create())],
        );
        assert_eq!(
            service.open_session(BackendKind::GpuSim).err(),
            Some(AdmissionError::NotInTable(BackendKind::GpuSim))
        );
        let m = service.shutdown();
        assert_eq!((m.batches, m.in_flight_lanes), (0, 0));
    });
}

/// `in_flight_lanes` is the threads of the lanes that have started:
/// none for a session that has sent nothing, and never the lanes of
/// backends that no session used.
#[test]
fn in_flight_lanes_counts_the_lane_threads_that_exist() {
    within_a_minute(|| {
        let w = workload(60_000, 4, 600, 31);
        let service = PipelineService::start("ref", w.reference.clone(), ServiceConfig::default());
        let (mut session, receiver) = service.open_session(BackendKind::Cpu).unwrap();
        assert_eq!(
            service.metrics().in_flight_lanes,
            0,
            "an open session with no batch starts no thread"
        );
        submit_all(&mut session, &w.reads);
        session.finish();
        let (got, _) = drain_tsv(receiver.iter());
        assert!(!got.is_empty());
        assert_eq!(service.metrics().in_flight_lanes, 2, "the cpu lane");
        let (got, _) = run_session(&service, BackendKind::GpuSim, &w.reads);
        assert!(!got.is_empty());
        assert_eq!(service.metrics().in_flight_lanes, 2 + 1, "and gpu-sim's");
        // edlib and ksw2 never ran, so they never count.
        assert_eq!(service.shutdown().in_flight_lanes, 2 + 1);
    });
}

#[test]
fn graceful_drain_finishes_in_flight_sessions_and_refuses_new_ones() {
    let w = workload(80_000, 5, 800, 4);
    let expected = one_shot(&w.reads, &w.reference, BackendKind::Cpu);
    let service = Arc::new(PipelineService::start(
        "ref",
        w.reference.clone(),
        ServiceConfig::default(),
    ));

    let (mut session, receiver) = service.open_session(BackendKind::Cpu).unwrap();
    for (name, seq) in &w.reads {
        session
            .submit(ReadInput {
                name: name.clone(),
                seq: seq.clone(),
            })
            .unwrap();
    }

    // Shutdown from another thread: it must block on the open session.
    let svc = Arc::clone(&service);
    let shutdown_thread = std::thread::spawn(move || svc.shutdown());
    while !service.is_draining() {
        std::thread::yield_now();
    }
    match service.open_session(BackendKind::Cpu) {
        Err(AdmissionError::Draining) => {}
        other => panic!("expected Draining, got {:?}", other.err()),
    }

    // The in-flight session still completes with full, correct output.
    session.finish();
    // `drain_tsv` fails unless the drain delivers the End event.
    let (got, _) = drain_tsv(receiver.iter());
    assert_eq!(got, expected, "drained session lost or reordered rows");

    let metrics = shutdown_thread.join().unwrap();
    assert_eq!(metrics.records_out as usize, expected.lines().count());
    match service.open_session(BackendKind::Cpu) {
        Err(AdmissionError::Draining) => {}
        other => panic!("post-shutdown admission must fail, got {:?}", other.err()),
    }
}

#[test]
fn lightly_loaded_session_is_not_starved_by_steady_traffic() {
    // Session A submits one small read to `cpu` while session B keeps
    // a steady task stream flowing to `edlib` with gaps shorter than
    // the linger. The batch target is unreachable and A stays open
    // until its rows arrive, so they can only be released by the
    // *age*-based linger flush — an idle-only flush would starve A for
    // as long as B keeps talking.
    use std::sync::atomic::{AtomicBool, Ordering};
    let w = workload(60_000, 1, 600, 6);
    let reference = w.reference.clone();
    let cfg = ServiceConfig {
        pipeline: PipelineConfig {
            batch_bases: 1 << 30, // never reached: only the linger can flush
            ..PipelineConfig::default()
        },
        linger: std::time::Duration::from_millis(50),
        ..ServiceConfig::default()
    };
    let service = Arc::new(PipelineService::start("ref", reference.clone(), cfg));
    let stop = Arc::new(AtomicBool::new(false));

    let b_service = Arc::clone(&service);
    let b_stop = Arc::clone(&stop);
    let b_seq = w.seq.clone();
    let b_thread = std::thread::spawn(move || {
        let genome = Genome {
            seq: b_seq,
            planted: Vec::new(),
        };
        let reads = simulate_reads(
            &genome,
            &ReadConfig {
                count: 40,
                length: 400,
                errors: ErrorModel::pacbio_clr(0.05),
                rc_fraction: 0.5,
                seed: 61,
            },
        );
        let (mut session, receiver) = b_service.open_session(BackendKind::Edlib).unwrap();
        let mut i = 0usize;
        while !b_stop.load(Ordering::Relaxed) {
            let r = &reads[i % reads.len()];
            session
                .submit(ReadInput {
                    name: format!("b{i}"),
                    seq: r.seq.clone(),
                })
                .unwrap();
            i += 1;
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        session.finish();
        while let Some(event) = receiver.recv() {
            if matches!(event, SessionEvent::End(_)) {
                break;
            }
        }
    });

    // Give B a head start so its traffic is flowing when A submits.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let (mut a_session, a_receiver) = service.open_session(BackendKind::Cpu).unwrap();
    let (name, seq) = &w.reads[0];
    a_session
        .submit(ReadInput {
            name: name.clone(),
            seq: seq.clone(),
        })
        .unwrap();
    // A finishes only once its rows are in: a finish would release its
    // batch itself, and this test is about the age flush.
    let deadline = std::time::Duration::from_secs(20);
    match a_receiver.recv_deadline(deadline) {
        RecvOutcome::Event(SessionEvent::Rows(rows)) => {
            assert!(!rows.is_empty(), "session A's read produced no rows")
        }
        RecvOutcome::TimedOut => {
            panic!("session A starved: no event within {deadline:?} while B streams")
        }
        other => panic!("session A's first event is not its rows: {other:?}"),
    }
    a_session.finish();
    match a_receiver.recv_deadline(deadline) {
        RecvOutcome::Event(SessionEvent::End(_)) => {}
        other => panic!("session A did not end after its rows: {other:?}"),
    }

    stop.store(true, Ordering::Relaxed);
    b_thread.join().unwrap();
    service.shutdown();
}

/// A service whose batches can only leave by a session's finish: the
/// base target is never reached and the linger is an hour.
fn finish_only_service(reference: &Reference) -> PipelineService {
    let cfg = ServiceConfig {
        pipeline: PipelineConfig {
            batch_bases: 1 << 30,
            ..PipelineConfig::default()
        },
        linger: Duration::from_secs(3600),
        ..ServiceConfig::default()
    };
    PipelineService::start("ref", reference.clone(), cfg)
}

/// The next event of `receiver`, failing the test when none comes
/// within 20 s: far inside the hour-long linger of
/// [`finish_only_service`].
fn next_event(receiver: &SessionReceiver) -> Option<SessionEvent> {
    match receiver.recv_deadline(Duration::from_secs(20)) {
        RecvOutcome::Event(event) => Some(event),
        RecvOutcome::TimedOut => panic!("no event within 20 s: a batch waits out the linger"),
        RecvOutcome::Closed => None,
    }
}

#[test]
fn a_finished_session_does_not_wait_out_the_linger() {
    let w = workload(60_000, 4, 600, 21);
    let expected = one_shot(&w.reads, &w.reference, BackendKind::Cpu);
    let service = finish_only_service(&w.reference);
    let (mut session, receiver) = service.open_session(BackendKind::Cpu).unwrap();
    submit_all(&mut session, &w.reads);
    session.finish();
    let (got, m) = drain_tsv(std::iter::from_fn(|| next_event(&receiver)));
    assert_eq!(got, expected, "session output diverged from one-shot");
    assert_eq!(m.reads_in, 4);
    assert_eq!(service.metrics().batches, 1, "the finish sent one batch");
    service.shutdown();
}

#[test]
fn a_session_finishing_first_releases_the_batch_it_shares() {
    // A and B feed one `cpu` building batch; A finishes while B stays
    // open. A's finish sends the batch, B's reads in it included, and
    // B's later reads leave by B's own finish.
    let w = workload(60_000, 0, 0, 22);
    let a_reads = extra_reads(&w.seq, 3, 600, 23);
    let b_reads = extra_reads(&w.seq, 6, 600, 24);
    let service = finish_only_service(&w.reference);
    let (mut a, a_rx) = service.open_session(BackendKind::Cpu).unwrap();
    let (mut b, b_rx) = service.open_session(BackendKind::Cpu).unwrap();
    submit_all(&mut a, &a_reads);
    submit_all(&mut b, &b_reads[..3]);
    a.finish();
    let (a_got, _) = drain_tsv(std::iter::from_fn(|| next_event(&a_rx)));
    assert_eq!(a_got, one_shot(&a_reads, &w.reference, BackendKind::Cpu));
    // B's first three reads came out of the batch A's finish sent.
    let mut b_events: Vec<SessionEvent> = (0..3).map_while(|_| next_event(&b_rx)).collect();
    assert!(
        b_events.iter().all(|e| matches!(e, SessionEvent::Rows(_))),
        "B's first reads did not leave with A's batch: {b_events:?}"
    );
    submit_all(&mut b, &b_reads[3..]);
    b.finish();
    b_events.extend(std::iter::from_fn(|| next_event(&b_rx)));
    let (b_got, m) = drain_tsv(b_events.into_iter());
    assert_eq!(b_got, one_shot(&b_reads, &w.reference, BackendKind::Cpu));
    assert_eq!(m.reads_in, 6);
    service.shutdown();
}

#[test]
fn concurrent_sessions_map_on_lanes_of_their_own() {
    // Two sessions map at once, each on a named trace lane of its own,
    // so no two map spans on one lane overlap; a lane is free again
    // once its session finishes.
    let w = workload(60_000, 0, 0, 31);
    let buf = SharedBuf::default();
    let trace = Arc::new(TraceRecorder::to_writer(Box::new(buf.clone())));
    let cfg = ServiceConfig {
        pipeline: PipelineConfig {
            trace: Some(Arc::clone(&trace)),
            ..PipelineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = PipelineService::start("ref", w.reference.clone(), cfg);
    let both_hold_a_lane = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for seed in [32, 33] {
            let (service, barrier, seq) = (&service, &both_hold_a_lane, &w.seq);
            scope.spawn(move || {
                let reads = extra_reads(seq, 6, 600, seed);
                let (mut session, receiver) = service.open_session(BackendKind::Cpu).unwrap();
                submit_all(&mut session, &reads[..1]);
                barrier.wait();
                submit_all(&mut session, &reads[1..]);
                session.finish();
                drain_tsv(receiver.iter());
            });
        }
    });
    // Opened once both have finished, a third session takes the lowest
    // lane again.
    run_session(&service, BackendKind::Cpu, &extra_reads(&w.seq, 2, 600, 34));
    service.shutdown();
    trace.finish().unwrap();

    let text = buf.text();
    let lane_name = |tid: u64| -> String {
        let head = format!("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},");
        let line = text
            .lines()
            .find(|l| l.contains(&head))
            .unwrap_or_else(|| panic!("lane {tid} has no thread name"));
        let key = "\"args\":{\"name\":\"";
        let at = line.find(key).unwrap() + key.len();
        line[at..line[at..].find('"').unwrap() + at].to_string()
    };
    let mut lanes: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
    let mut lane_of_session: std::collections::BTreeMap<u64, u64> = Default::default();
    for line in text.lines().filter(|l| l.contains("\"name\":\"map\"")) {
        let tid = trace_field(line, "\"tid\":") as u64;
        let session = trace_field(line, "\"session\":") as u64;
        assert_eq!(*lane_of_session.entry(session).or_insert(tid), tid);
        let span = (trace_field(line, "\"ts\":"), trace_field(line, "\"dur\":"));
        lanes.entry(tid).or_default().push(span);
    }
    assert_eq!(lanes.values().map(Vec::len).sum::<usize>(), 14);
    let mut names: Vec<String> = lane_of_session
        .values()
        .map(|&tid| lane_name(tid))
        .collect();
    assert_eq!(names.pop().as_deref(), Some("session-map:0"));
    names.sort();
    assert_eq!(names, ["session-map:0", "session-map:1"]);
    for (tid, spans) in &mut lanes {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in spans.windows(2) {
            assert!(
                pair[1].0 >= pair[0].0 + pair[0].1 - 0.002,
                "map spans overlap on lane {tid}: {pair:?}"
            );
        }
    }
}

// NOTE: the historical `multi_contig_sessions_match_one_shot_and_name_contigs`
// test was retired when `run_pipeline` became a wrapper over a service
// session — its service-vs-one-shot byte comparison degenerated to
// comparing a session with itself. Contig naming and coordinate
// correctness are covered by the determinism suite
// (`multi_contig_runs_are_shard_invariant_and_contig_correct`), and
// `single_session_matches_one_shot_pipeline` above stays as the one
// equivalence canary.

#[test]
fn unmapped_reads_complete_without_rows() {
    let w = workload(40_000, 2, 700, 5);
    let service = PipelineService::start("ref", w.reference, ServiceConfig::default());
    let (mut session, receiver) = service.open_session(BackendKind::Cpu).unwrap();
    // An empty read can never anchor: it completes instantly.
    let n = session
        .submit(ReadInput {
            name: "empty".to_string(),
            seq: Seq::new(),
        })
        .unwrap();
    assert_eq!(n, 0, "empty read must generate no tasks");
    for (name, seq) in &w.reads {
        session
            .submit(ReadInput {
                name: name.clone(),
                seq: seq.clone(),
            })
            .unwrap();
    }
    session.finish();
    let mut metrics = None;
    let mut rows = 0usize;
    while let Some(event) = receiver.recv() {
        match event {
            SessionEvent::Rows(r) => rows += r.len(),
            SessionEvent::ReadFailed { read } => panic!("read {read} failed"),
            SessionEvent::Explain(_) => {}
            SessionEvent::End(m) => {
                metrics = Some(m);
                break;
            }
        }
    }
    let m = metrics.unwrap();
    assert_eq!(m.reads_in, 3);
    assert_eq!(m.reads_mapped, 2, "the empty read is unmapped");
    assert_eq!(m.records_out as usize, rows);
    assert!(rows > 0);
    service.shutdown();
}

/// Snapshot consistency under concurrency (the telemetry layer's
/// ordering contract): with N interleaved sessions,
///
/// * every session's final counters sum exactly to the service-wide
///   registry counters (no sample is lost or double-counted across
///   the shared queues),
/// * a snapshot taken mid-run is field-by-field `<=` the final one
///   (per-field monotonicity — the contract documented on
///   `StageCounters`), and
/// * the machine-readable expositions agree with the live registry.
#[test]
fn interleaved_session_counters_sum_to_global_and_snapshots_are_monotonic() {
    let base = workload(90_000, 0, 0, 1);
    let reference = base.reference;
    let session_specs: Vec<(BackendKind, Vec<(String, Seq)>)> = [
        (BackendKind::Cpu, 41u64),
        (BackendKind::Edlib, 42),
        (BackendKind::Cpu, 43),
        (BackendKind::Ksw2, 44),
    ]
    .iter()
    .map(|&(backend, seed)| {
        let genome = Genome {
            seq: base.seq.clone(),
            planted: Vec::new(),
        };
        let named = simulate_reads(
            &genome,
            &ReadConfig {
                count: 6,
                length: 700,
                errors: ErrorModel::pacbio_clr(0.08),
                rc_fraction: 0.5,
                seed,
            },
        )
        .into_iter()
        .enumerate()
        .map(|(i, r)| (format!("s{seed}read{i}"), r.seq))
        .collect();
        (backend, named)
    })
    .collect();

    let cfg = ServiceConfig {
        pipeline: PipelineConfig {
            batch_bases: 4 * 1024,
            queue_depth: 4,
            ..PipelineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(PipelineService::start("ref", reference, cfg));

    // A sampler thread snapshots the live registry while the sessions
    // hammer it; every snapshot it takes must be `<=` its successor.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (per_session, mid_snapshots) = std::thread::scope(|scope| {
        let sampler = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut snaps = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    snaps.push(service.metrics());
                    std::thread::yield_now();
                }
                snaps
            })
        };
        let handles: Vec<_> = session_specs
            .iter()
            .map(|(backend, reads)| {
                let service = Arc::clone(&service);
                scope.spawn(move || run_session(&service, *backend, reads))
            })
            .collect();
        let per_session: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (per_session, sampler.join().unwrap())
    });

    // Per-session counters sum exactly to the global registry.
    let global = service.metrics();
    let sum = |f: fn(&SessionMetrics) -> u64| per_session.iter().map(|(_, m)| f(m)).sum::<u64>();
    assert_eq!(global.reads_in, sum(|m| m.reads_in));
    assert_eq!(global.reads_mapped, sum(|m| m.reads_mapped));
    assert_eq!(global.tasks_generated, sum(|m| m.tasks));
    assert_eq!(global.task_bases, sum(|m| m.task_bases));
    assert_eq!(global.records_out, sum(|m| m.records_out));
    assert_eq!(global.read_latency.count, global.reads_in);

    // Every mid-run snapshot is `<=` the final state, and consecutive
    // snapshots are pairwise monotonic.
    for (i, snap) in mid_snapshots.iter().enumerate() {
        snap.le_monotonic(&global)
            .unwrap_or_else(|e| panic!("snapshot {i} exceeds the final state: {e}"));
    }
    for (i, pair) in mid_snapshots.windows(2).enumerate() {
        pair[0]
            .le_monotonic(&pair[1])
            .unwrap_or_else(|e| panic!("snapshots {i}->{} not monotonic: {e}", i + 1));
    }
    assert!(!mid_snapshots.is_empty(), "sampler never ran");

    // The expositions render the same registry: spot-check one counter
    // through all three surfaces.
    let json = service.stats_json();
    assert!(
        json.contains(&format!("\"reads_in\":{}", global.reads_in)),
        "{json}"
    );
    let prom = service.stats_prometheus();
    assert!(
        prom.contains(&format!("genasm_reads_in_total {}", global.reads_in)),
        "{prom}"
    );
    // All four sessions ran to completion, so the live per-session
    // list is empty again (closed sessions drop out of the registry).
    assert!(service.session_stats().is_empty());
    service.shutdown();
}

/// Simulate `count` named reads over a raw contig (for sessions that
/// need their own read set distinct from [`workload`]'s).
fn extra_reads(seq: &Seq, count: usize, length: usize, seed: u64) -> Vec<(String, Seq)> {
    let genome = Genome {
        seq: seq.clone(),
        planted: Vec::new(),
    };
    simulate_reads(
        &genome,
        &ReadConfig {
            count,
            length,
            errors: ErrorModel::pacbio_clr(0.08),
            rc_fraction: 0.5,
            seed,
        },
    )
    .into_iter()
    .enumerate()
    .map(|(i, r)| (format!("x{seed}read{i}"), r.seq))
    .collect()
}

/// The largest single read's rendered output across an expected
/// one-shot transcript — the `max_read_output_bytes` term of
/// [`ServiceConfig::session_output_bound`].
fn max_read_output_bytes(expected: &str) -> usize {
    let mut per_read = std::collections::HashMap::new();
    for line in expected.lines() {
        let name = line.split('\t').next().unwrap().to_string();
        *per_read.entry(name).or_insert(0usize) += line.len() + 1;
    }
    per_read.values().copied().max().unwrap_or(0)
}

#[test]
fn slow_receiver_buffered_output_stays_within_the_session_bound() {
    // A receiver that drains far slower than the backend produces:
    // the throttle gate must keep buffered output within the provable
    // bound (the sink never blocks; *submit* does), and once the
    // receiver catches up the output is still byte-identical.
    let w = workload(70_000, 48, 700, 21);
    let expected = one_shot(&w.reads, &w.reference, BackendKind::Cpu);
    let max_read_bytes = max_read_output_bytes(&expected);

    let cfg = ServiceConfig {
        max_session_output_bytes: 2 * 1024,
        max_session_inflight_reads: 4,
        ..ServiceConfig::default()
    };
    let bound = cfg.session_output_bound(max_read_bytes);
    assert!(
        expected.len() > bound,
        "workload too small to exercise the output cap: {} <= {bound}",
        expected.len()
    );

    let service = PipelineService::start("ref", w.reference.clone(), cfg);
    // Drain deliberately slowly, so the gate has to throttle; the
    // helper fails unless the End event is delivered.
    let (got, _) = submit_while_draining(&service, BackendKind::Cpu, &w.reads, drain_tsv_slowly);
    assert_eq!(got, expected, "slow-receiver session output diverged");

    let global = service.metrics();
    assert!(
        global.max_session_output_buffered_bytes as usize <= bound,
        "peak buffered output {} exceeded the session bound {bound} \
         (cap 2048, 4 in-flight reads of at most {max_read_bytes} bytes)",
        global.max_session_output_buffered_bytes
    );
    assert!(
        global.sessions_throttled >= 1,
        "the output cap never bit: sessions_throttled == 0"
    );
    assert_eq!(global.session_output_buffered_bytes, 0, "fully drained");
    service.shutdown();
}

#[test]
fn a_dropped_receiver_releases_a_throttled_submitter() {
    // A one-byte output cap and a receiver that never reads: once a
    // read's rows are buffered, the next submit blocks. Dropping the
    // receiver must fail that submit, write the buffered bytes off,
    // and leave a service that still shuts down.
    let w = workload(60_000, 4, 600, 23);
    let cfg = ServiceConfig {
        max_session_output_bytes: 1,
        ..ServiceConfig::default()
    };
    let service = Arc::new(PipelineService::start("ref", w.reference, cfg));
    let (mut session, receiver) = service.open_session(BackendKind::Cpu).unwrap();
    let (tx, failed) = std::sync::mpsc::channel();
    let submitter = std::thread::spawn(move || {
        for (name, seq) in w.reads.iter().cycle() {
            let read = ReadInput {
                name: name.clone(),
                seq: seq.clone(),
            };
            if let Err(e) = session.submit(read) {
                let _ = tx.send(e);
                return;
            }
        }
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while service.metrics().sessions_throttled == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the submitter was never throttled"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(service.metrics().session_output_buffered_bytes > 0);
    drop(receiver);
    let err = failed
        .recv_timeout(Duration::from_secs(20))
        .expect("the throttled submit never returned");
    assert_eq!(err, genasm_pipeline::SubmitError::ReceiverGone);
    submitter.join().unwrap();
    assert_eq!(service.metrics().session_output_buffered_bytes, 0);
    let service = Arc::clone(&service);
    within_a_minute(move || service.shutdown());
}

#[test]
fn greedy_slow_reader_does_not_starve_a_light_session() {
    // A greedy session that uploads fast but reads nothing must be
    // throttled by its own caps — not by hogging the shared queues —
    // so a concurrent light session keeps its latency and its bytes.
    let w = workload(70_000, 40, 700, 22);
    let greedy_expected = one_shot(&w.reads, &w.reference, BackendKind::Cpu);
    let light_reads = extra_reads(&w.seq, 3, 700, 91);
    let light_expected = one_shot(&light_reads, &w.reference, BackendKind::Cpu);

    let cfg = ServiceConfig {
        pipeline: PipelineConfig {
            batch_bases: 2 * 1024,
            queue_depth: 2,
            ..PipelineConfig::default()
        },
        max_session_output_bytes: 4 * 1024,
        max_session_inflight_reads: 2,
        ..ServiceConfig::default()
    };
    let service = PipelineService::start("ref", w.reference.clone(), cfg);

    let (mut greedy, greedy_rx) = service.open_session(BackendKind::Cpu).expect("admission");
    let reads = w.reads.clone();
    let submitter = std::thread::spawn(move || {
        for (name, seq) in &reads {
            greedy
                .submit(ReadInput {
                    name: name.clone(),
                    seq: seq.clone(),
                })
                .expect("submit");
        }
        greedy.finish();
    });

    // Let the greedy session saturate its caps (its receiver is not
    // being drained, so its submitter is soon blocked on the gate).
    while service.metrics().sessions_throttled == 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // The light session must complete promptly and byte-identically.
    let (mut light, light_rx) = service.open_session(BackendKind::Cpu).expect("admission");
    for (name, seq) in &light_reads {
        light
            .submit(ReadInput {
                name: name.clone(),
                seq: seq.clone(),
            })
            .expect("submit");
    }
    light.finish();
    let mut light_got = String::new();
    let deadline = std::time::Duration::from_secs(20);
    loop {
        match light_rx.recv_deadline(deadline) {
            RecvOutcome::Event(SessionEvent::Rows(rows)) => {
                for r in &rows {
                    light_got.push_str(&r.to_tsv());
                    light_got.push('\n');
                }
            }
            RecvOutcome::Event(SessionEvent::ReadFailed { read }) => panic!("read {read} failed"),
            RecvOutcome::Event(SessionEvent::Explain(_)) => {}
            RecvOutcome::Event(SessionEvent::End(_)) => break,
            RecvOutcome::TimedOut => {
                panic!("light session starved: no event within {deadline:?}")
            }
            RecvOutcome::Closed => panic!("the service died before the light session ended"),
        }
    }
    assert_eq!(light_got, light_expected, "light session output diverged");

    // Now drain the greedy session; its bytes must be intact too.
    let (greedy_got, _) = drain_tsv(greedy_rx.iter());
    submitter.join().unwrap();
    assert_eq!(
        greedy_got, greedy_expected,
        "greedy session output diverged"
    );
    service.shutdown();
}

/// Adversarial concurrent sessions: unmappable reads, hostile names
/// needing JSON escaping, and explain opt-in, all at once. The
/// decision funnel must partition `reads_in` exactly — globally and
/// per session — and each session's explain stream must cover every
/// submitted read exactly once without perturbing record output.
#[test]
fn funnel_partitions_reads_under_adversarial_concurrent_sessions() {
    let base = workload(90_000, 0, 0, 3);
    let reference = base.reference;
    let sessions: Vec<(BackendKind, Vec<(String, Seq)>)> = [
        (BackendKind::Cpu, 31u64),
        (BackendKind::Edlib, 32),
        (BackendKind::Cpu, 33),
        (BackendKind::Ksw2, 34),
    ]
    .iter()
    .map(|&(backend, seed)| {
        let genome = Genome {
            seq: base.seq.clone(),
            planted: Vec::new(),
        };
        let sim = simulate_reads(
            &genome,
            &ReadConfig {
                count: 4,
                length: 700,
                errors: ErrorModel::pacbio_clr(0.08),
                rc_fraction: 0.5,
                seed,
            },
        );
        let mut named: Vec<(String, Seq)> = sim
            .into_iter()
            .enumerate()
            .map(|(i, r)| (format!("s{seed}\t\"read\"\n{i}"), r.seq))
            .collect();
        // An empty read can never anchor: per-session unmapped count.
        named.push((format!("s{seed} ghost"), Seq::new()));
        (backend, named)
    })
    .collect();

    let expected: Vec<String> = sessions
        .iter()
        .map(|(backend, reads)| one_shot(reads, &reference, *backend))
        .collect();

    let cfg = ServiceConfig {
        pipeline: PipelineConfig {
            batch_bases: 4 * 1024,
            queue_depth: 4,
            ..PipelineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(PipelineService::start("ref", reference.clone(), cfg));
    type SessionRun = (String, Vec<String>, SessionMetrics);
    let outputs: Vec<SessionRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|(backend, reads)| {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    let (mut session, receiver) =
                        service.open_session(*backend).expect("admission");
                    session.set_explain(true);
                    for (name, seq) in reads.iter() {
                        session
                            .submit(ReadInput {
                                name: name.clone(),
                                seq: seq.clone(),
                            })
                            .expect("submit");
                    }
                    session.finish();
                    let mut explain = Vec::new();
                    let (out, metrics) = drain_tsv(receiver.iter().inspect(|event| {
                        if let SessionEvent::Explain(line) = event {
                            explain.push(line.clone());
                        }
                    }));
                    (out, explain, metrics)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, ((got, explain, m), (want, (_, reads)))) in outputs
        .iter()
        .zip(expected.iter().zip(&sessions))
        .enumerate()
    {
        assert_eq!(got, want, "session {i}: explain perturbed record output");
        assert_eq!(m.reads_in, 5, "session {i}");
        assert_eq!(
            m.reads_in,
            m.reads_mapped + m.reads_unmapped,
            "session {i}: session accounting does not partition reads_in"
        );
        assert_eq!(m.reads_unmapped, 1, "session {i}");
        assert_eq!(
            explain.len(),
            reads.len(),
            "session {i}: one explain line per read"
        );
        for line in explain {
            assert!(
                line.starts_with("{\"schema\":\"genasm-explain/v2\""),
                "{line}"
            );
            assert_eq!(line.lines().count(), 1, "forged line boundary: {line}");
        }
        for (name, _) in reads {
            let needle = format!("\"read\":\"{}\"", genasm_telemetry::json::escape(name));
            assert_eq!(
                explain.iter().filter(|l| l.contains(&needle)).count(),
                1,
                "session {i}: read {name:?} not explained exactly once"
            );
        }
        assert!(
            explain
                .iter()
                .any(|l| l.contains("\"disposition\":\"unmapped:no_anchors\"")),
            "session {i}: the ghost read's disposition is missing"
        );
    }

    // The live stat-frame surface carries the same funnel.
    let frame = service.stat_frame_json(1000, 1.5, 0.0);
    assert!(
        frame.starts_with("{\"schema\":\"genasm-stat-frame/v1\""),
        "{frame}"
    );
    assert!(frame.contains("\"funnel\":{\"reads_in\":20"), "{frame}");
    assert!(
        frame.contains("\"rates\":{\"reads_per_sec\":1.5"),
        "{frame}"
    );
    assert_eq!(frame.lines().count(), 1, "stat frame must be one line");

    let metrics = service.shutdown();
    let f = metrics.funnel;
    assert_eq!(f.reads_in, 20);
    assert_eq!(
        f.reads_in,
        f.aligned + f.unmapped_total() + f.failed,
        "global funnel does not partition reads_in: {f:?}"
    );
    assert_eq!(f.unmapped_no_anchors, 4);
    assert_eq!(f.candidates, f.aligned + f.failed);
    assert!(f.reads_in >= f.anchored && f.anchored >= f.chained && f.chained >= f.candidates);
}

/// One task per batch, so a run has many batches and the second one
/// carries whole reads.
fn tiny_batches() -> PipelineConfig {
    PipelineConfig {
        batch_bases: 1024,
        ..PipelineConfig::default()
    }
}

/// The CPU backend, except that its second batch does what `fault`
/// says; `name` is the backend name the error must carry.
fn faulty_second_batch(name: &'static str, fault: Fault) -> FaultBackend {
    FaultBackend::new(name, &[Fault::Ok, fault], Fault::Ok)
}

/// A service whose backend faults on its second batch: the session
/// that meets the fault has the reads of that batch fail, gets every
/// other read, and ends; the error names the backend and `reason`; the
/// next session is served in full.
fn a_faulty_batch_spares_the_service(name: &'static str, fault: Fault, reason: &'static str) {
    within_a_minute(move || {
        let w = workload(80_000, 8, 900, 31);
        let expected = one_shot(&w.reads, &w.reference, BackendKind::Cpu);
        let cfg = ServiceConfig {
            pipeline: tiny_batches(),
            ..ServiceConfig::default()
        };
        let service = PipelineService::start_with_backends(
            "ref",
            w.reference.clone(),
            cfg,
            vec![(BackendKind::Cpu, Box::new(faulty_second_batch(name, fault)))],
        );

        // The session that meets the fault: the reads of that batch
        // fail, every other read is delivered, and `End` arrives.
        let (mut session, receiver) = service.open_session(BackendKind::Cpu).unwrap();
        for (name, seq) in &w.reads {
            session
                .submit(ReadInput {
                    name: name.clone(),
                    seq: seq.clone(),
                })
                .unwrap();
        }
        session.finish();
        let (mut failed, mut delivered, mut end) = (0, 0, None);
        for event in receiver.iter() {
            match event {
                SessionEvent::ReadFailed { .. } => failed += 1,
                SessionEvent::Rows(_) => delivered += 1,
                SessionEvent::End(m) => end = Some(m),
                other => panic!("unexpected event {other:?}"),
            }
        }
        let end = end.expect("the session ends behind a faulty batch");
        assert!(failed >= 1, "the faulty batch failed no read");
        assert_eq!(end.reads_failed, failed);
        assert_eq!(failed + delivered, end.reads_mapped);
        assert_eq!(service.backend_errors(), 1);
        let error = service.last_backend_error().unwrap();
        assert!(error.contains(name) && error.contains(reason), "{error}");

        // The dispatcher survived: the next session is served in full.
        let (got, m) = run_session(&service, BackendKind::Cpu, &w.reads);
        assert_eq!(
            got, expected,
            "session after the fault diverged from one-shot"
        );
        assert_eq!(m.reads_failed, 0);
        assert_eq!(service.shutdown().funnel.failed, failed);
    });
}

/// A one-shot run whose backend faults on its second batch fails with
/// that backend's error, carrying `reason`.
fn a_faulty_batch_fails_a_one_shot_run(name: &'static str, fault: Fault, reason: &'static str) {
    within_a_minute(move || {
        let w = workload(80_000, 8, 900, 31);
        let stream = w.reads.iter().map(|(name, seq)| {
            Ok::<_, std::convert::Infallible>(ReadInput {
                name: name.clone(),
                seq: seq.clone(),
            })
        });
        let err = run_pipeline(
            stream,
            w.reference.clone(),
            &faulty_second_batch(name, fault),
            &tiny_batches(),
            |_| Ok(()),
        )
        .expect_err("a faulty batch must fail the run");
        match err {
            PipelineError::Backend(e) => {
                assert_eq!(e.backend, name);
                assert_eq!(e.reason, reason);
            }
            other => panic!("unexpected error {other}"),
        }
    });
}

#[test]
fn a_backend_panic_fails_its_batch_and_the_service_keeps_serving() {
    a_faulty_batch_spares_the_service("panicky", Fault::Panic, "panicked: injected panic");
}

#[test]
fn a_backend_panic_fails_a_one_shot_run_with_a_backend_error() {
    a_faulty_batch_fails_a_one_shot_run("panicky", Fault::Panic, "panicked: injected panic");
}

/// A backend that returns fewer results than its batch has tasks used
/// to leave the reads of the missing tasks waiting at the sink for
/// ever: their sessions never ended and a one-shot run hung.
#[test]
fn a_short_result_vector_fails_its_batch_and_the_service_keeps_serving() {
    a_faulty_batch_spares_the_service("short", Fault::Short, "returned 0 results for 1 tasks");
}

#[test]
fn a_short_result_vector_fails_a_one_shot_run_with_a_backend_error() {
    a_faulty_batch_fails_a_one_shot_run("short", Fault::Short, "returned 0 results for 1 tasks");
}

/// Four sessions at once on one service, under an output cap small
/// enough to throttle: one on a backend slot whose batches error,
/// stall, panic and come back short; one behind a slow receiver; two
/// that read promptly. Every session but the faulty one is
/// byte-identical to one-shot, the faulty one ends with failed reads,
/// and `shutdown` returns.
#[test]
fn faults_and_a_slow_reader_stay_inside_their_own_sessions() {
    within_a_minute(|| {
        let base = workload(90_000, 0, 0, 1);
        let reference = base.reference;
        let [prompt_cpu, prompt_edlib, slow, faulty] =
            [51, 52, 53, 54].map(|seed| extra_reads(&base.seq, 12, 700, seed));
        let want_cpu = one_shot(&prompt_cpu, &reference, BackendKind::Cpu);
        let want_edlib = one_shot(&prompt_edlib, &reference, BackendKind::Edlib);
        let want_slow = one_shot(&slow, &reference, BackendKind::Cpu);

        let cfg = ServiceConfig {
            pipeline: PipelineConfig {
                batch_bases: 2 * 1024, // several batches per session
                ..PipelineConfig::default()
            },
            max_session_output_bytes: 2 * 1024,
            max_session_inflight_reads: 4,
            ..ServiceConfig::default()
        };
        let script = [Fault::Error, Fault::Stall(50), Fault::Panic, Fault::Short];
        let backends: Vec<(BackendKind, Box<dyn Backend>)> = vec![
            (BackendKind::Cpu, BackendKind::Cpu.create()),
            (BackendKind::Edlib, BackendKind::Edlib.create()),
            (
                BackendKind::GpuSim,
                Box::new(FaultBackend::new("fault", &script, Fault::Ok)),
            ),
        ];
        let service = PipelineService::start_with_backends("ref", reference, cfg, backends);

        let service = &service;
        let (got_cpu, got_edlib, got_slow, (failed, delivered, end)) =
            std::thread::scope(|scope| {
                let cpu = scope.spawn(|| {
                    submit_while_draining(service, BackendKind::Cpu, &prompt_cpu, |rx| {
                        drain_tsv(rx.iter())
                    })
                });
                let edlib = scope.spawn(|| {
                    submit_while_draining(service, BackendKind::Edlib, &prompt_edlib, |rx| {
                        drain_tsv(rx.iter())
                    })
                });
                let slow = scope.spawn(|| {
                    submit_while_draining(service, BackendKind::Cpu, &slow, drain_tsv_slowly)
                });
                let faulty = scope.spawn(|| {
                    submit_while_draining(service, BackendKind::GpuSim, &faulty, |rx| {
                        let (mut failed, mut delivered) = (0, 0);
                        for event in rx.iter() {
                            match event {
                                SessionEvent::ReadFailed { .. } => failed += 1,
                                SessionEvent::Rows(_) => delivered += 1,
                                SessionEvent::Explain(_) => {}
                                SessionEvent::End(m) => return (failed, delivered, m),
                            }
                        }
                        panic!("the faulty session never ended")
                    })
                });
                (
                    cpu.join().unwrap().0,
                    edlib.join().unwrap().0,
                    slow.join().unwrap().0,
                    faulty.join().unwrap(),
                )
            });

        assert_eq!(got_cpu, want_cpu, "prompt cpu session diverged");
        assert_eq!(got_edlib, want_edlib, "prompt edlib session diverged");
        assert_eq!(got_slow, want_slow, "slow-reader session diverged");
        assert!(failed >= 1, "the faulty script failed no read");
        assert_eq!(end.reads_failed, failed);
        assert_eq!(failed + delivered, end.reads_mapped);
        // The error, the panic and the short vector; the stall is slow,
        // not wrong.
        assert_eq!(service.backend_errors(), 3);

        let metrics = service.shutdown();
        assert_eq!(metrics.funnel.failed, failed);
        assert!(metrics.sessions_throttled >= 1, "the output cap never bit");
        assert_eq!(metrics.session_output_buffered_bytes, 0, "fully drained");
    });
}

/// Submit `reads` to a new session on a thread of its own while
/// `drain` reads the session's events on this one — what a session
/// needs once its output cap can throttle it.
fn submit_while_draining<T>(
    service: &PipelineService,
    backend: BackendKind,
    reads: &[(String, Seq)],
    drain: impl FnOnce(&SessionReceiver) -> T,
) -> T {
    let (mut session, receiver) = service.open_session(backend).expect("admission");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (name, seq) in reads {
                session
                    .submit(ReadInput {
                        name: name.clone(),
                        seq: seq.clone(),
                    })
                    .expect("submit");
            }
            session.finish();
        });
        drain(&receiver)
    })
}

/// A backend that borrows a local. That `run_pipeline` takes it at all
/// is the test: its stages are scoped to the call, so nothing asks the
/// caller's backend to be `'static`.
struct Counting<'a>(
    &'a std::sync::atomic::AtomicU64,
    genasm_pipeline::CpuBackend,
);

impl genasm_pipeline::Backend for Counting<'_> {
    fn name(&self) -> &'static str {
        self.1.name()
    }

    fn align_batch(
        &self,
        tasks: &[align_core::AlignTask],
    ) -> Result<Vec<Option<align_core::Alignment>>, genasm_pipeline::BackendError> {
        self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.1.align_batch(tasks)
    }

    fn engine_stats(&self) -> Option<genasm_core::MemStats> {
        self.1.engine_stats()
    }
}

#[test]
fn one_shot_runs_a_backend_that_borrows_from_its_caller() {
    let w = workload(60_000, 12, 500, 23);
    let want = one_shot(&w.reads, &w.reference, BackendKind::Cpu);
    let batches = std::sync::atomic::AtomicU64::new(0);
    let backend = Counting(&batches, genasm_pipeline::CpuBackend::improved());
    let stream = w.reads.iter().map(|(name, seq)| {
        Ok::<_, std::convert::Infallible>(ReadInput {
            name: name.clone(),
            seq: seq.clone(),
        })
    });
    let mut got = String::new();
    let metrics = run_pipeline(
        stream,
        w.reference.clone(),
        &backend,
        &tiny_batches(),
        |rec| {
            got.push_str(&rec.to_tsv());
            got.push('\n');
            Ok(())
        },
    )
    .expect("one-shot pipeline failed");
    assert_eq!(got, want, "a borrowed backend emits CpuBackend's bytes");
    let batches = batches.load(std::sync::atomic::Ordering::SeqCst);
    assert!(batches > 1, "tiny batches: {batches}");
    assert_eq!(
        batches, metrics.batches,
        "every batch went through the borrow"
    );
    // The engine's counters come home from the borrowed table too.
    assert!(metrics.engine.expect("cpu counts its windows").windows > 0);
}

/// The CPU backend, recording how the dispatch stage called it: the
/// read ids of every call's tasks, in the order the calls began, and
/// the most calls it ever had open at once. Each call sleeps 0–3 ms,
/// drawn from its first read id, so batches take times of their own
/// and a later one may finish first. Above one batch in flight, the
/// first call holds on until a second one opens beside it (or ten
/// seconds pass), so an overlap the dispatch stage allows is forced,
/// not left to timing.
struct Recorder {
    in_flight: usize,
    inner: genasm_pipeline::CpuBackend,
    calls: std::sync::Mutex<Vec<Vec<u32>>>,
    open: std::sync::Mutex<usize>,
    opened: std::sync::Condvar,
    most_open: std::sync::atomic::AtomicUsize,
}

impl Recorder {
    fn new(in_flight: usize) -> Recorder {
        Recorder {
            in_flight,
            inner: genasm_pipeline::CpuBackend::improved(),
            calls: Default::default(),
            open: Default::default(),
            opened: Default::default(),
            most_open: Default::default(),
        }
    }
}

impl Backend for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn align_batch(
        &self,
        tasks: &[align_core::AlignTask],
    ) -> Result<Vec<Option<align_core::Alignment>>, genasm_pipeline::BackendError> {
        let ids: Vec<u32> = tasks.iter().map(|t| t.read_id).collect();
        let first = ids.first().copied().unwrap_or(0) as u64;
        let first_call = {
            let mut calls = self.calls.lock().unwrap();
            calls.push(ids);
            calls.len() == 1
        };
        {
            let mut open = self.open.lock().unwrap();
            *open += 1;
            self.most_open
                .fetch_max(*open, std::sync::atomic::Ordering::SeqCst);
            self.opened.notify_all();
            if first_call && self.in_flight > 1 {
                let _ = self
                    .opened
                    .wait_timeout_while(open, Duration::from_secs(10), |open| *open < 2)
                    .unwrap();
            }
        }
        let ms = first.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62;
        std::thread::sleep(Duration::from_millis(ms));
        let out = self.inner.align_batch(tasks);
        *self.open.lock().unwrap() -= 1;
        out
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }
}

/// One candidate per read and one task per batch: the read ids of the
/// batches, in the order the scheduler cut them, ascend strictly.
fn one_task_batches() -> PipelineConfig {
    PipelineConfig {
        batch_bases: 1,
        params: mapper::CandidateParams {
            max_per_read: 1,
            ..mapper::CandidateParams::default()
        },
        ..PipelineConfig::default()
    }
}

/// `reads` through a one-shot run of the CPU backend on `cfg`.
fn one_shot_cpu(reads: &[(String, Seq)], reference: &Reference, cfg: &PipelineConfig) -> String {
    let stream = reads.iter().map(|(name, seq)| {
        Ok::<_, std::convert::Infallible>(ReadInput {
            name: name.clone(),
            seq: seq.clone(),
        })
    });
    let mut out = String::new();
    let backend = genasm_pipeline::CpuBackend::improved();
    run_pipeline(stream, reference.clone(), &backend, cfg, |rec| {
        out.push_str(&rec.to_tsv());
        out.push('\n');
        Ok(())
    })
    .expect("one-shot pipeline failed");
    out
}

/// A backend that keeps the default `in_flight` of 1 gets its calls
/// one at a time and in the order the scheduler cut its batches: the
/// service's other backend takes two batches at once, and every batch
/// sleeps a time of its own. 40-odd one-task batches on a 2-thread
/// pool.
#[test]
fn a_serial_backend_sees_its_batches_one_at_a_time_in_cut_order() {
    within_a_minute(|| {
        let w = workload(80_000, 48, 500, 41);
        let cfg = one_task_batches();
        let want = one_shot_cpu(&w.reads, &w.reference, &cfg);
        let recorder = Arc::new(Recorder::new(1));
        struct Lent(Arc<Recorder>);
        impl Backend for Lent {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn align_batch(
                &self,
                tasks: &[align_core::AlignTask],
            ) -> Result<Vec<Option<align_core::Alignment>>, genasm_pipeline::BackendError>
            {
                self.0.align_batch(tasks)
            }
            fn in_flight(&self) -> usize {
                self.0.in_flight()
            }
        }
        let backends: Vec<(BackendKind, Box<dyn Backend>)> = vec![
            (BackendKind::Cpu, Box::new(Lent(Arc::clone(&recorder)))),
            (
                BackendKind::Edlib,
                Box::new(genasm_pipeline::CpuBackend::improved()),
            ),
        ];
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build_global()
            .unwrap();
        let service = PipelineService::start_with_backends(
            "ref",
            w.reference.clone(),
            ServiceConfig {
                pipeline: cfg,
                ..ServiceConfig::default()
            },
            backends,
        );
        let (got, _) = run_session(&service, BackendKind::Cpu, &w.reads);
        let m = service.shutdown();
        assert_eq!(got, want);
        assert_eq!(m.in_flight_lanes, 1, "one lane thread pops the batches");
        let calls = recorder.calls.lock().unwrap();
        assert!(calls.len() >= 40, "{} batches", calls.len());
        assert_eq!(calls.len() as u64, m.batches);
        let ids: Vec<u32> = calls.iter().flatten().copied().collect();
        assert!(
            ids.windows(2).all(|pair| pair[0] < pair[1]),
            "batches called out of cut order: {calls:?}"
        );
        assert_eq!(
            recorder.most_open.load(std::sync::atomic::Ordering::SeqCst),
            1
        );
    });
}

/// A backend that takes two batches at once gets at most two calls
/// open at a time, and at least once two, with one execute lane per
/// slot: `backend:recorder:0` and `backend:recorder:1`, and execute
/// spans on one lane never overlap.
#[test]
fn a_backend_with_two_in_flight_overlaps_two_batches_on_two_lanes() {
    within_a_minute(|| {
        let w = workload(80_000, 48, 500, 43);
        let buf = SharedBuf::default();
        let trace = Arc::new(TraceRecorder::to_writer(Box::new(buf.clone())));
        let cfg = one_task_batches();
        let want = one_shot_cpu(&w.reads, &w.reference, &cfg);
        let recorder = Recorder::new(2);
        let stream = w.reads.iter().map(|(name, seq)| {
            Ok::<_, std::convert::Infallible>(ReadInput {
                name: name.clone(),
                seq: seq.clone(),
            })
        });
        let mut got = String::new();
        let traced = PipelineConfig {
            trace: Some(Arc::clone(&trace)),
            ..cfg
        };
        let m = run_pipeline(stream, w.reference.clone(), &recorder, &traced, |rec| {
            got.push_str(&rec.to_tsv());
            got.push('\n');
            Ok(())
        })
        .expect("one-shot pipeline failed");
        trace.finish().unwrap();
        assert_eq!(got, want);
        assert_eq!(m.in_flight_lanes, 2);
        assert!(m.batches >= 40, "{} batches", m.batches);
        assert_eq!(
            recorder.most_open.load(std::sync::atomic::Ordering::SeqCst),
            2
        );
        assert!(m.mean_batches_in_flight() <= 2.0);

        let text = buf.text();
        for (tid, name) in [(8, "backend:recorder:0"), (9, "backend:recorder:1")] {
            let head = format!("\"ph\":\"M\",\"pid\":1,\"tid\":{tid},");
            assert!(
                text.lines()
                    .any(|l| l.contains(&head) && l.contains(&format!("\"name\":\"{name}\""))),
                "lane {tid} is not named {name}"
            );
        }
        let mut lanes: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
        for line in text.lines().filter(|l| l.contains("\"name\":\"execute\"")) {
            let span = (trace_field(line, "\"ts\":"), trace_field(line, "\"dur\":"));
            lanes
                .entry(trace_field(line, "\"tid\":") as u64)
                .or_default()
                .push(span);
        }
        assert_eq!(lanes.keys().copied().collect::<Vec<_>>(), [8, 9]);
        assert_eq!(
            lanes.values().map(Vec::len).sum::<usize>() as u64,
            m.batches
        );
        for (tid, spans) in &mut lanes {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for pair in spans.windows(2) {
                assert!(
                    pair[1].0 >= pair[0].0 + pair[0].1 - 0.002,
                    "execute spans overlap on lane {tid}: {pair:?}"
                );
            }
        }
    });
}

/// What [`WaitsForCpu`] and [`RaisesOnEntry`] share: whether the CPU
/// backend has entered `align_batch`, and whether the blocked backend
/// saw it while it waited.
#[derive(Default)]
struct Handoff {
    entered: std::sync::Mutex<bool>,
    raised: std::sync::Condvar,
    calls: std::sync::atomic::AtomicUsize,
    saw_cpu: std::sync::atomic::AtomicBool,
}

/// The CPU backend, one batch at a time, except that its first call
/// waits — up to 20 s — until [`RaisesOnEntry`] has entered
/// `align_batch`, and records whether it did.
struct WaitsForCpu(Arc<Handoff>, genasm_pipeline::CpuBackend);

impl Backend for WaitsForCpu {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn align_batch(
        &self,
        tasks: &[align_core::AlignTask],
    ) -> Result<Vec<Option<align_core::Alignment>>, genasm_pipeline::BackendError> {
        let h = &self.0;
        if h.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
            let entered = h.entered.lock().unwrap();
            let (entered, _) = h
                .raised
                .wait_timeout_while(entered, Duration::from_secs(20), |up| !*up)
                .unwrap();
            h.saw_cpu
                .store(*entered, std::sync::atomic::Ordering::SeqCst);
        }
        self.1.align_batch(tasks)
    }
}

/// The CPU backend, raising [`Handoff::entered`] on every call.
struct RaisesOnEntry(Arc<Handoff>, genasm_pipeline::CpuBackend);

impl Backend for RaisesOnEntry {
    fn name(&self) -> &'static str {
        self.1.name()
    }

    fn align_batch(
        &self,
        tasks: &[align_core::AlignTask],
    ) -> Result<Vec<Option<align_core::Alignment>>, genasm_pipeline::BackendError> {
        *self.0.entered.lock().unwrap() = true;
        self.0.raised.notify_all();
        self.1.align_batch(tasks)
    }

    fn in_flight(&self) -> usize {
        self.1.in_flight()
    }
}

/// No batch waits to start behind another backend's: with a
/// `gpu-sim`-kind backend stuck in its first batch and more of its
/// batches cut behind it, a `cpu` session's batches still start — the
/// stuck call only returns early once one has.
#[test]
fn a_blocked_backend_does_not_hold_up_another_backends_batches() {
    within_a_minute(|| {
        let w = workload(80_000, 12, 500, 47);
        let cfg = one_task_batches();
        let (blocked_reads, cpu_reads) = w.reads.split_at(6);
        let want_blocked = one_shot_cpu(blocked_reads, &w.reference, &cfg);
        let want_cpu = one_shot_cpu(cpu_reads, &w.reference, &cfg);
        let handoff = Arc::new(Handoff::default());
        let cpu = || genasm_pipeline::CpuBackend::improved();
        let backends: Vec<(BackendKind, Box<dyn Backend>)> = vec![
            (
                BackendKind::GpuSim,
                Box::new(WaitsForCpu(Arc::clone(&handoff), cpu())),
            ),
            (
                BackendKind::Cpu,
                Box::new(RaisesOnEntry(Arc::clone(&handoff), cpu())),
            ),
        ];
        let service = PipelineService::start_with_backends(
            "ref",
            w.reference.clone(),
            ServiceConfig {
                pipeline: cfg,
                ..ServiceConfig::default()
            },
            backends,
        );
        let (mut blocked, blocked_rx) = service.open_session(BackendKind::GpuSim).unwrap();
        submit_all(&mut blocked, blocked_reads);
        let (mut session, cpu_rx) = service.open_session(BackendKind::Cpu).unwrap();
        submit_all(&mut session, cpu_reads);
        blocked.finish();
        session.finish();
        let (got_blocked, _) = drain_tsv(blocked_rx.iter());
        let (got_cpu, _) = drain_tsv(cpu_rx.iter());
        let m = service.shutdown();
        assert!(
            handoff.calls.load(std::sync::atomic::Ordering::SeqCst) >= 2,
            "the blocked backend needs a batch cut behind its first"
        );
        assert!(
            handoff.saw_cpu.load(std::sync::atomic::Ordering::SeqCst),
            "no cpu batch started while the blocked backend held its first"
        );
        assert_eq!(got_blocked, want_blocked);
        assert_eq!(got_cpu, want_cpu);
        assert_eq!(m.in_flight_lanes, 1 + 2);
    });
}

/// A full lane holds up only its own backend's submits: with the
/// `gpu-sim`-kind backend stuck in its first batch and its lane full
/// behind it, a helper's next `gpu-sim` submit waits for room, and a
/// `cpu` session still submits, cuts and runs its batches — the stuck
/// call only returns early once one has.
#[test]
fn a_full_lane_does_not_hold_up_another_backends_submits() {
    within_a_minute(|| {
        let w = workload(80_000, 18, 500, 53);
        let cfg = one_task_batches();
        let depth = cfg.queue_depth as u64;
        let (held_reads, cpu_reads) = w.reads.split_at(14);
        let want_held = one_shot_cpu(held_reads, &w.reference, &cfg);
        let want_cpu = one_shot_cpu(cpu_reads, &w.reference, &cfg);
        let handoff = Arc::new(Handoff::default());
        let cpu = || genasm_pipeline::CpuBackend::improved();
        let backends: Vec<(BackendKind, Box<dyn Backend>)> = vec![
            (
                BackendKind::GpuSim,
                Box::new(WaitsForCpu(Arc::clone(&handoff), cpu())),
            ),
            (
                BackendKind::Cpu,
                Box::new(RaisesOnEntry(Arc::clone(&handoff), cpu())),
            ),
        ];
        let service = PipelineService::start_with_backends(
            "ref",
            w.reference.clone(),
            ServiceConfig {
                pipeline: cfg,
                ..ServiceConfig::default()
            },
            backends,
        );
        let (got_held, got_cpu) = std::thread::scope(|scope| {
            let helper = scope.spawn(|| run_session(&service, BackendKind::GpuSim, held_reads));
            // One batch held in the backend and `depth` cut behind it:
            // the lane is full, and the helper's next push waits.
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while service.metrics().batch_queue.pushed < depth + 1 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the held lane never filled"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let got_cpu = run_session(&service, BackendKind::Cpu, cpu_reads);
            (helper.join().unwrap(), got_cpu)
        });
        let m = service.shutdown();
        assert!(
            handoff.saw_cpu.load(std::sync::atomic::Ordering::SeqCst),
            "no cpu batch started while the held lane was full"
        );
        assert_eq!(got_held.0, want_held);
        assert_eq!(got_cpu.0, want_cpu);
        assert!(
            got_held.1.tasks > depth + 1,
            "{} tasks cannot fill the lane",
            got_held.1.tasks
        );
        assert_eq!(m.in_flight_lanes, 1 + 2);
    });
}
