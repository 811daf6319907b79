//! End-to-end socket tests of the alignment server:
//!
//! * every client's record stream is byte-identical to the one-shot
//!   pipeline (≡ `genasm align`) over that client's reads — including
//!   N clients at once, mixed formats, and mixed backends;
//! * the control verbs (PING/STATS/SET/SHUTDOWN) behave;
//! * graceful drain finishes in-flight sessions, rejects new ones,
//!   and shuts the listener down.

use std::io::{BufRead, BufReader, Cursor, Write};

use align_core::{Reference, Seq};
use genasm_pipeline::{
    run_pipeline, BackendKind, OutputFormat, PipelineConfig, ReadInput, ServiceConfig,
};
use genasm_server::client::{control, submit, SubmitOptions};
use genasm_server::protocol::{StatsFormat, Verb};
use genasm_server::{connect, Endpoint, Server, ServerConfig};
use readsim::{
    simulate_reads, write_fastq, ErrorModel, FastxRecord, Genome, GenomeConfig, ReadConfig,
};

/// A deterministic reference plus helper to cut per-client read sets.
struct Fixture {
    reference: Seq,
}

impl Fixture {
    fn new(genome_len: usize) -> Fixture {
        let genome = Genome::generate(&GenomeConfig::human_like(genome_len, 77));
        Fixture {
            reference: genome.seq,
        }
    }

    /// Simulate `count` reads with a per-client seed.
    fn reads(&self, count: usize, read_len: usize, seed: u64) -> Vec<(String, Seq)> {
        let genome = Genome {
            seq: self.reference.clone(),
            planted: Vec::new(),
        };
        simulate_reads(
            &genome,
            &ReadConfig {
                count,
                length: read_len,
                errors: ErrorModel::pacbio_clr(0.08),
                rc_fraction: 0.5,
                seed,
            },
        )
        .into_iter()
        .enumerate()
        .map(|(i, r)| (format!("c{seed}read{i}"), r.seq))
        .collect()
    }

    /// The golden expectation for one client's reads.
    fn expected(&self, reads: &[(String, Seq)], backend: BackendKind, fmt: OutputFormat) -> String {
        let stream = reads.iter().map(|(name, seq)| {
            Ok::<_, std::convert::Infallible>(ReadInput {
                name: name.clone(),
                seq: seq.clone(),
            })
        });
        let mut buf = String::new();
        run_pipeline(
            stream,
            Reference::single("ref", self.reference.clone()),
            backend.create().as_ref(),
            &PipelineConfig::default(),
            |rec| {
                buf.push_str(&fmt.line(rec));
                buf.push('\n');
                Ok(())
            },
        )
        .expect("one-shot pipeline failed");
        buf
    }

    fn start_server(&self, service: ServiceConfig) -> Server {
        Server::start(
            ServerConfig {
                endpoint: Endpoint::parse("127.0.0.1:0").unwrap(),
                default_backend: BackendKind::Cpu,
                default_format: OutputFormat::Tsv,
                idle_timeout: None,
                service,
            },
            "ref",
            Reference::single("ref", self.reference.clone()),
        )
        .expect("server start")
    }

    /// Like [`Fixture::start_server`] with an idle timeout configured.
    fn start_server_with_timeout(
        &self,
        service: ServiceConfig,
        idle_timeout: std::time::Duration,
    ) -> Server {
        Server::start(
            ServerConfig {
                endpoint: Endpoint::parse("127.0.0.1:0").unwrap(),
                default_backend: BackendKind::Cpu,
                default_format: OutputFormat::Tsv,
                idle_timeout: Some(idle_timeout),
                service,
            },
            "ref",
            Reference::single("ref", self.reference.clone()),
        )
        .expect("server start")
    }
}

/// Render reads as FASTQ bytes (what a client streams after BEGIN).
fn fastq_bytes(reads: &[(String, Seq)]) -> Vec<u8> {
    let records: Vec<FastxRecord> = reads
        .iter()
        .map(|(name, seq)| FastxRecord::fastq(name, seq.clone(), vec![40; seq.len()]))
        .collect();
    let mut buf = Vec::new();
    write_fastq(&mut buf, &records).unwrap();
    buf
}

/// Drive one full client conversation; returns (records, status).
fn run_client(
    endpoint: &Endpoint,
    reads: &[(String, Seq)],
    opts: &SubmitOptions,
) -> (String, String) {
    let mut out = Vec::new();
    let mut status = Vec::new();
    let report = submit(
        endpoint,
        Cursor::new(fastq_bytes(reads)),
        opts,
        &mut out,
        &mut status,
    )
    .expect("submit failed");
    assert_eq!(
        report.errors,
        0,
        "status:\n{}",
        String::from_utf8_lossy(&status)
    );
    assert!(report.done.is_some(), "missing # done line");
    (
        String::from_utf8(out).unwrap(),
        String::from_utf8(status).unwrap(),
    )
}

/// One control verb; returns the server's lines, none of them `# err`.
fn ctl(endpoint: &Endpoint, verb: Verb) -> Vec<String> {
    let lines = control(endpoint, &verb).expect("control failed");
    assert!(!lines.iter().any(|l| l.starts_with("# err")), "{lines:?}");
    lines
}

/// The bare exposition of a `STATS PROM` reply.
fn prom_payload(lines: &[String]) -> String {
    let metrics = lines.iter().filter_map(|l| l.strip_prefix("# prom "));
    metrics.flat_map(|l| [l, "\n"]).collect()
}

#[test]
fn tcp_session_is_byte_identical_to_one_shot() {
    let fx = Fixture::new(80_000);
    let reads = fx.reads(5, 800, 1);
    let expected = fx.expected(&reads, BackendKind::Cpu, OutputFormat::Tsv);
    assert!(!expected.is_empty());

    let server = fx.start_server(ServiceConfig::default());
    let (got, status) = run_client(server.endpoint(), &reads, &SubmitOptions::default());
    assert_eq!(got, expected, "socket session diverged from one-shot");
    assert!(status.contains("# done reads=5"), "{status}");

    server.request_shutdown();
    let metrics = server.wait();
    assert_eq!(metrics.reads_in, 5);
}

#[test]
fn paf_format_and_backend_are_session_scoped() {
    let fx = Fixture::new(70_000);
    let reads_a = fx.reads(4, 700, 2);
    let reads_b = fx.reads(4, 700, 3);
    let want_a = fx.expected(&reads_a, BackendKind::Edlib, OutputFormat::Paf);
    let want_b = fx.expected(&reads_b, BackendKind::Cpu, OutputFormat::Tsv);

    let server = fx.start_server(ServiceConfig::default());
    let (got_a, status_a) = run_client(
        server.endpoint(),
        &reads_a,
        &SubmitOptions {
            backend: Some(BackendKind::Edlib),
            format: Some(OutputFormat::Paf),
            ..SubmitOptions::default()
        },
    );
    let (got_b, _) = run_client(server.endpoint(), &reads_b, &SubmitOptions::default());
    assert_eq!(got_a, want_a, "PAF/edlib session diverged");
    assert_eq!(got_b, want_b, "default session diverged");
    assert!(status_a.contains("# ok backend edlib"), "{status_a}");
    assert!(status_a.contains("# ok format paf"), "{status_a}");
    // PAF rows parse back and carry strand + reference length.
    let mut strands = std::collections::HashSet::new();
    for line in got_a.lines() {
        let rec = genasm_pipeline::AlignRecord::parse_paf(line).unwrap();
        assert_eq!(rec.tsize, fx.reference.len());
        strands.insert(rec.reverse);
    }
    assert_eq!(strands.len(), 2, "rc_fraction 0.5 should hit both strands");

    server.request_shutdown();
    server.wait();
}

#[test]
fn concurrent_clients_each_get_one_shot_bytes() {
    let fx = Fixture::new(90_000);
    let clients: Vec<(BackendKind, Vec<(String, Seq)>)> = vec![
        (BackendKind::Cpu, fx.reads(4, 650, 11)),
        (BackendKind::Cpu, fx.reads(4, 650, 12)),
        (BackendKind::Edlib, fx.reads(4, 650, 13)),
        (BackendKind::Ksw2, fx.reads(4, 650, 14)),
        (BackendKind::Cpu, fx.reads(4, 650, 15)),
    ];
    let expected: Vec<String> = clients
        .iter()
        .map(|(b, r)| fx.expected(r, *b, OutputFormat::Tsv))
        .collect();

    // Tight batching so the sessions truly share batches in flight.
    let server = fx.start_server(ServiceConfig {
        pipeline: PipelineConfig {
            batch_bases: 4 * 1024,
            queue_depth: 4,
            ..PipelineConfig::default()
        },
        ..ServiceConfig::default()
    });
    let endpoint = server.endpoint().clone();
    let outputs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|(backend, reads)| {
                let endpoint = endpoint.clone();
                let backend = *backend;
                scope.spawn(move || {
                    run_client(
                        &endpoint,
                        reads,
                        &SubmitOptions {
                            backend: Some(backend),
                            ..SubmitOptions::default()
                        },
                    )
                    .0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (got, want)) in outputs.iter().zip(&expected).enumerate() {
        assert!(!want.is_empty(), "client {i} expected nothing?");
        assert_eq!(got, want, "client {i} diverged from one-shot output");
    }

    server.request_shutdown();
    let metrics = server.wait();
    assert_eq!(metrics.reads_in, 20);
}

#[test]
fn control_verbs_ping_stats_and_errors() {
    let fx = Fixture::new(40_000);
    let server = fx.start_server(ServiceConfig::default());

    let pong = ctl(server.endpoint(), Verb::Ping);
    assert!(
        pong[0].starts_with("# genasm-server v1 ref=ref"),
        "{pong:?}"
    );
    assert_eq!(pong[1..], ["# pong"], "{pong:?}");
    let stats = ctl(server.endpoint(), Verb::Stats(StatsFormat::Line));
    assert_eq!(stats.len(), 2, "{stats:?}");
    assert!(stats[1].starts_with("# stats sessions=0"), "{stats:?}");

    // Raw conversation: bad verbs and bad settings get described errors
    // without killing the connection.
    let conn = connect(server.endpoint()).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut writer = conn;
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // greeting
    writeln!(writer, "FROBNICATE").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("# err") && line.contains("FROBNICATE"),
        "{line}"
    );
    writeln!(writer, "SET backend tpu").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("'cpu'"),
        "bad backend must list choices: {line}"
    );
    // `auto` is an unknown backend like any other.
    writeln!(writer, "SET backend auto").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        line.trim_end(),
        "# err unknown backend 'auto'; valid backends are 'cpu', 'gpu-sim', 'edlib', 'ksw2'"
    );
    writeln!(writer, "PING").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "# pong", "connection survived the errors");
    // ...and a session begun after the errors runs on the default
    // backend to its `# done`; the server then closes the connection.
    let reads = fx.reads(2, 600, 4);
    let expected = fx.expected(&reads, BackendKind::Cpu, OutputFormat::Tsv);
    writeln!(writer, "BEGIN").unwrap();
    writer.write_all(&fastq_bytes(&reads)).unwrap();
    writer.shutdown_write().unwrap();
    let rest: Vec<String> = reader.lines().map(Result::unwrap).collect();
    assert_eq!(rest[0], "# ok begin backend=cpu format=tsv", "{rest:?}");
    assert!(
        rest.last().unwrap().starts_with("# done reads=2"),
        "{rest:?}"
    );
    let records: String = rest
        .iter()
        .filter(|l| !l.starts_with("# "))
        .flat_map(|l| [l.as_str(), "\n"])
        .collect();
    assert_eq!(records, expected);
    drop(writer);

    server.request_shutdown();
    server.wait();
}

#[test]
fn shutdown_verb_drains_in_flight_sessions_and_rejects_new_ones() {
    let fx = Fixture::new(80_000);
    let reads = fx.reads(5, 800, 21);
    let expected = fx.expected(&reads, BackendKind::Cpu, OutputFormat::Tsv);
    let server = fx.start_server(ServiceConfig::default());
    let endpoint = server.endpoint().clone();

    // Client A: open a session and send half the records, keeping the
    // stream open.
    let conn = connect(&endpoint).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut writer = conn;
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // greeting
    writeln!(writer, "BEGIN").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("# ok begin"), "{line}");
    let payload = fastq_bytes(&reads);
    let half = payload.len() / 2;
    writer.write_all(&payload[..half]).unwrap();
    writer.flush().unwrap();

    // Ask for shutdown from a second connection.
    assert_eq!(ctl(&endpoint, Verb::Shutdown)[1], "# ok draining");

    // While A is still in flight, a new session must be refused.
    let service = server.service();
    while !service.is_draining() {
        std::thread::yield_now();
    }
    let mut out = Vec::new();
    let mut status = Vec::new();
    let report = submit(
        &endpoint,
        Cursor::new(fastq_bytes(&fx.reads(1, 500, 99))),
        &SubmitOptions::default(),
        &mut out,
        &mut status,
    )
    .unwrap();
    assert!(report.errors > 0, "draining server accepted a new session");
    assert!(
        String::from_utf8_lossy(&status).contains("draining"),
        "{}",
        String::from_utf8_lossy(&status)
    );
    assert!(out.is_empty());

    // Client A finishes: its full output must still arrive, then done.
    writer.write_all(&payload[half..]).unwrap();
    writer.flush().unwrap();
    writer.shutdown_write().unwrap();
    let mut got = String::new();
    let mut done = None;
    for line in reader.lines() {
        let line = line.unwrap();
        if line.starts_with("# done") {
            done = Some(line);
        } else if !line.starts_with("# ") {
            got.push_str(&line);
            got.push('\n');
        }
    }
    assert_eq!(got, expected, "drained session lost rows");
    assert!(done.unwrap().contains("reads=5"));

    // The server exits cleanly and the port stops answering.
    let metrics = server.wait();
    assert_eq!(metrics.reads_in, 5);
    assert!(connect(&endpoint).is_err(), "listener still accepting");
}

#[test]
fn input_errors_are_reported_before_done() {
    // A malformed record mid-stream: the server must keep the framing
    // contract — `# err input: …` comes *before* the final `# done`,
    // which is always the last line.
    let fx = Fixture::new(40_000);
    let server = fx.start_server(ServiceConfig::default());
    let conn = connect(server.endpoint()).unwrap();
    let reader = BufReader::new(conn.try_clone().unwrap());
    let mut writer = conn;
    let mut lines = reader.lines();
    lines.next().unwrap().unwrap(); // greeting
    writeln!(writer, "BEGIN").unwrap();
    assert!(lines.next().unwrap().unwrap().starts_with("# ok begin"));
    // One valid (tiny, unmapped) record, then garbage.
    writer
        .write_all(b"@r1\nACGT\n+\nIIII\nGARBAGE LINE\n")
        .unwrap();
    writer.flush().unwrap();
    writer.shutdown_write().unwrap();
    let rest: Vec<String> = lines.map(|l| l.unwrap()).collect();
    let err_at = rest
        .iter()
        .position(|l| l.starts_with("# err input:"))
        .unwrap_or_else(|| panic!("no input error reported: {rest:?}"));
    let done_at = rest
        .iter()
        .position(|l| l.starts_with("# done"))
        .unwrap_or_else(|| panic!("no done line: {rest:?}"));
    assert!(err_at < done_at, "error must precede done: {rest:?}");
    assert_eq!(done_at, rest.len() - 1, "done must be last: {rest:?}");
    assert!(rest[done_at].contains("reads=1"), "{rest:?}");

    server.request_shutdown();
    server.wait();
}

#[test]
fn idle_connection_does_not_block_shutdown() {
    let fx = Fixture::new(30_000);
    let server = fx.start_server(ServiceConfig::default());

    // A client that connects, reads the greeting, and then just sits
    // there — no verbs, no session, no disconnect.
    let conn = connect(server.endpoint()).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("# genasm-server"), "{line}");

    server.request_shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        tx.send(server.wait()).ok();
    });
    let metrics = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("wait() hung on an idle verb-phase connection");
    assert_eq!(metrics.reads_in, 0);
    drop(reader);
    drop(conn);
}

#[test]
fn unix_socket_round_trip() {
    let fx = Fixture::new(50_000);
    let reads = fx.reads(3, 600, 31);
    let expected = fx.expected(&reads, BackendKind::Cpu, OutputFormat::Tsv);
    let path = std::env::temp_dir().join(format!("genasm-server-test-{}.sock", std::process::id()));
    let server = Server::start(
        ServerConfig {
            endpoint: Endpoint::Unix(path.clone()),
            default_backend: BackendKind::Cpu,
            default_format: OutputFormat::Tsv,
            idle_timeout: None,
            service: ServiceConfig::default(),
        },
        "ref",
        Reference::single("ref", fx.reference.clone()),
    )
    .expect("unix server start");
    let (got, _) = run_client(server.endpoint(), &reads, &SubmitOptions::default());
    assert_eq!(got, expected);
    server.request_shutdown();
    server.wait();
    assert!(!path.exists(), "socket file cleaned up on shutdown");
}

#[test]
fn session_cap_rejects_over_admission() {
    let fx = Fixture::new(40_000);
    let server = fx.start_server(ServiceConfig {
        max_sessions: 1,
        ..ServiceConfig::default()
    });
    let endpoint = server.endpoint().clone();

    // Occupy the only slot with a held-open session.
    let conn = connect(&endpoint).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut writer = conn;
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    writeln!(writer, "BEGIN").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("# ok begin"), "{line}");

    let mut out = Vec::new();
    let mut status = Vec::new();
    let report = submit(
        &endpoint,
        Cursor::new(fastq_bytes(&fx.reads(1, 500, 41))),
        &SubmitOptions::default(),
        &mut out,
        &mut status,
    )
    .unwrap();
    assert!(report.errors > 0, "cap of 1 admitted a second session");
    assert!(
        String::from_utf8_lossy(&status).contains("busy"),
        "{}",
        String::from_utf8_lossy(&status)
    );

    // Release the slot; admission recovers.
    writer.shutdown_write().unwrap();
    let mut drained = String::new();
    for l in reader.lines() {
        drained.push_str(&l.unwrap());
    }
    assert!(drained.contains("# done"));
    let reads = fx.reads(1, 500, 42);
    let expected = fx.expected(&reads, BackendKind::Cpu, OutputFormat::Tsv);
    let (got, _) = run_client(&endpoint, &reads, &SubmitOptions::default());
    assert_eq!(got, expected);

    server.request_shutdown();
    server.wait();
}

/// The machine-readable STATS formats: one session runs to completion,
/// then a verb-only client asks for `STATS` (line + band counters),
/// `STATS JSON`, and `STATS PROM` and everything must agree with the
/// work the session did.
#[test]
fn stats_json_and_prom_expose_the_live_registry() {
    let fx = Fixture::new(70_000);
    let reads = fx.reads(5, 700, 31);
    let expected = fx.expected(&reads, BackendKind::Cpu, OutputFormat::Tsv);
    assert!(!expected.is_empty());

    let server = fx.start_server(ServiceConfig::default());
    let (got, _) = run_client(server.endpoint(), &reads, &SubmitOptions::default());
    assert_eq!(got, expected);

    // Classic line, now with the window-engine band counters (the CPU
    // backend ran, so `windows=` must be non-zero).
    let stats = ctl(server.endpoint(), Verb::Stats(StatsFormat::Line));
    let stats_line = stats
        .iter()
        .find(|l| l.starts_with("# stats "))
        .expect("no # stats line");
    assert!(stats_line.contains("reads_in=5"), "{stats_line}");
    assert!(stats_line.contains("windows="), "{stats_line}");
    assert!(stats_line.contains("early_term="), "{stats_line}");
    assert!(stats_line.contains("band_skipped="), "{stats_line}");
    assert!(
        !stats_line.contains("windows=0 "),
        "CPU backend ran: {stats_line}"
    );

    // JSON: captured payload parses far enough to carry the schema tag,
    // the server block, and the pipeline counters.
    let reply = ctl(server.endpoint(), Verb::Stats(StatsFormat::Json));
    let json = reply[1]
        .strip_prefix("# stats-json ")
        .expect("no stats-json payload");
    assert!(
        json.starts_with("{\"schema\":\"genasm-stats/v1\""),
        "{json}"
    );
    assert!(json.contains("\"reads_in\":5"), "{json}");
    assert!(json.contains("\"records_out\""), "{json}");
    assert!(json.contains("\"latency\""), "{json}");
    assert!(json.contains("\"uptime_ms\""), "{json}");

    // Prometheus: bare exposition lines, counters with _total, the
    // latency histogram with cumulative buckets.
    let reply = ctl(server.endpoint(), Verb::Stats(StatsFormat::Prom));
    let prom = prom_payload(&reply);
    assert!(prom.contains("genasm_reads_in_total 5"), "{prom}");
    assert!(
        prom.contains("# TYPE genasm_read_latency_ns histogram"),
        "{prom}"
    );
    assert!(prom.contains("genasm_read_latency_ns_count 5"), "{prom}");
    assert!(prom.contains("genasm_sessions_active 0"), "{prom}");
    assert_eq!(reply[1], "# prom-begin", "{reply:?}");
    assert_eq!(reply.last().unwrap(), "# prom-end", "{reply:?}");

    server.request_shutdown();
    server.wait();
}

/// Regression: a client that uploads a pile of reads and then vanishes
/// without ever reading a byte of output must not cost the server the
/// full alignment bill. The writer thread hits a write error, signals
/// the reader, and the session aborts with most reads never admitted.
#[test]
fn dead_client_does_not_get_all_its_reads_aligned() {
    let fx = Fixture::new(60_000);
    let n_reads = 300usize;
    let reads = fx.reads(n_reads, 600, 51);
    let server = fx.start_server_with_timeout(
        ServiceConfig {
            pipeline: PipelineConfig {
                batch_bases: 2 * 1024,
                queue_depth: 2,
                ..PipelineConfig::default()
            },
            // A tight output budget: with no one reading, the session
            // throttles after a handful of reads instead of racing
            // through the whole upload.
            max_session_output_bytes: 16 * 1024,
            max_session_inflight_reads: 4,
            ..ServiceConfig::default()
        },
        std::time::Duration::from_millis(500),
    );

    let conn = connect(server.endpoint()).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut writer = conn;
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // greeting
    writeln!(writer, "BEGIN").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("# ok begin"), "{line}");

    // Upload as much of the payload as the throttled server will take
    // without blocking this test forever, then vanish: both halves of
    // the connection drop with output still unread, so the server's
    // next write fails.
    writer
        .set_write_timeout(Some(std::time::Duration::from_millis(300)))
        .unwrap();
    let payload = fastq_bytes(&reads);
    let _ = writer.write_all(&payload);
    drop(writer);
    drop(reader);

    // The session must wind down on its own — no shutdown needed.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let service = server.service();
    while service.active_sessions() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "dead client's session never ended"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    server.request_shutdown();
    let metrics = server.wait();
    assert!(
        (metrics.reads_in as usize) < n_reads,
        "server aligned all {n_reads} reads for a client that never \
         read a byte (reads_in={})",
        metrics.reads_in
    );
}

/// A client that opens a session and then goes silent: the read
/// timeout must abort the session (reporting `# err input: idle
/// timeout …` before the final `# done`), count it in telemetry, and
/// leave the server fully serviceable.
#[test]
fn stalled_client_session_times_out_and_is_reported() {
    let fx = Fixture::new(40_000);
    let server = fx.start_server_with_timeout(
        ServiceConfig::default(),
        std::time::Duration::from_millis(300),
    );

    let conn = connect(server.endpoint()).unwrap();
    let reader = BufReader::new(conn.try_clone().unwrap());
    let mut writer = conn;
    let mut lines = reader.lines();
    lines.next().unwrap().unwrap(); // greeting
    writeln!(writer, "BEGIN").unwrap();
    assert!(lines.next().unwrap().unwrap().starts_with("# ok begin"));
    // …and now say nothing. The server must end the session itself.
    let rest: Vec<String> = lines.map(|l| l.unwrap()).collect();
    let err_at = rest
        .iter()
        .position(|l| l.starts_with("# err input:") && l.contains("idle timeout"))
        .unwrap_or_else(|| panic!("no idle-timeout error reported: {rest:?}"));
    let done_at = rest
        .iter()
        .position(|l| l.starts_with("# done"))
        .unwrap_or_else(|| panic!("no done line: {rest:?}"));
    assert!(err_at < done_at, "error must precede done: {rest:?}");
    assert_eq!(done_at, rest.len() - 1, "done must be last: {rest:?}");
    drop(writer);

    assert_eq!(server.service().metrics().sessions_timed_out, 1);

    // The timeout killed one session, not the server: a well-behaved
    // client still gets byte-identical output, and the counter shows
    // up in the Prometheus exposition.
    let reads = fx.reads(2, 500, 61);
    let expected = fx.expected(&reads, BackendKind::Cpu, OutputFormat::Tsv);
    let (got, _) = run_client(server.endpoint(), &reads, &SubmitOptions::default());
    assert_eq!(got, expected);
    let prom = prom_payload(&ctl(server.endpoint(), Verb::Stats(StatsFormat::Prom)));
    assert!(prom.contains("genasm_sessions_timed_out_total 1"), "{prom}");

    server.request_shutdown();
    server.wait();
}

/// An idle connection in the verb phase gets `# hb` heartbeats instead
/// of a dead socket, and the connection still works afterwards.
#[test]
fn idle_verb_connection_gets_heartbeats_and_stays_usable() {
    let fx = Fixture::new(30_000);
    let server = fx.start_server_with_timeout(
        ServiceConfig::default(),
        std::time::Duration::from_millis(200),
    );

    let conn = connect(server.endpoint()).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut writer = conn;
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // greeting

    // Say nothing: the next full line the server sends must be a
    // heartbeat (read_line blocks until it arrives).
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "# hb", "expected a heartbeat: {line}");

    // The connection is still a working control channel.
    writeln!(writer, "PING").unwrap();
    loop {
        line.clear();
        assert_ne!(reader.read_line(&mut line).unwrap(), 0, "connection died");
        if line.trim_end() == "# hb" {
            continue;
        }
        assert_eq!(line.trim_end(), "# pong", "{line}");
        break;
    }
    drop(writer);
    drop(reader);

    server.request_shutdown();
    server.wait();
}

#[test]
fn explain_sessions_stream_provenance_without_perturbing_records() {
    let fx = Fixture::new(80_000);
    let mut reads = fx.reads(4, 700, 21);
    // An unmappable read: still explained, still counted in # done.
    reads.push(("ghost21".to_string(), Seq::new()));
    let expected = fx.expected(&reads, BackendKind::Cpu, OutputFormat::Tsv);
    assert!(!expected.is_empty());

    let server = fx.start_server(ServiceConfig::default());
    let (plain, _) = run_client(server.endpoint(), &reads, &SubmitOptions::default());
    assert_eq!(plain, expected, "baseline session diverged");

    let mut out = Vec::new();
    let mut status = Vec::new();
    let report = submit(
        server.endpoint(),
        Cursor::new(fastq_bytes(&reads)),
        &SubmitOptions {
            explain: true,
            ..SubmitOptions::default()
        },
        &mut out,
        &mut status,
    )
    .expect("submit failed");
    let status = String::from_utf8(status).unwrap();
    assert_eq!(report.errors, 0, "status:\n{status}");
    assert_eq!(
        String::from_utf8(out).unwrap(),
        expected,
        "explain changed the record bytes"
    );
    assert!(status.contains("# ok explain on"), "{status}");
    assert_eq!(
        report.explain.len(),
        reads.len(),
        "one explain line per read:\n{status}"
    );
    for line in &report.explain {
        assert!(
            line.starts_with("{\"schema\":\"genasm-explain/v2\""),
            "{line}"
        );
    }
    for (name, _) in &reads {
        let needle = format!("\"read\":\"{name}\"");
        assert_eq!(
            report
                .explain
                .iter()
                .filter(|l| l.contains(&needle))
                .count(),
            1,
            "read {name} not explained exactly once"
        );
    }
    assert!(
        report
            .explain
            .iter()
            .any(|l| l.contains("\"disposition\":\"unmapped:no_anchors\"")),
        "ghost read's disposition missing"
    );
    assert!(status.contains("# done reads=5 mapped=4"), "{status}");

    server.request_shutdown();
    server.wait();
}

#[test]
fn stats_stream_pushes_parseable_frames_and_survives_unsubscribe() {
    let fx = Fixture::new(60_000);
    let server = fx.start_server(ServiceConfig::default());
    // One completed session so the funnel has content to report.
    let reads = fx.reads(3, 600, 22);
    run_client(server.endpoint(), &reads, &SubmitOptions::default());

    let mut frames = Vec::new();
    let mut status = Vec::new();
    let n = genasm_server::client::stream_stats(server.endpoint(), 20, 3, &mut frames, &mut status)
        .expect("stream failed");
    assert_eq!(n, 3, "status:\n{}", String::from_utf8_lossy(&status));
    let text = String::from_utf8(frames).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    for line in &lines {
        assert!(
            line.starts_with("{\"schema\":\"genasm-stat-frame/v1\""),
            "{line}"
        );
        assert!(line.contains("\"funnel\":{\"reads_in\":3"), "{line}");
        assert!(line.contains("\"interval_ms\":20"), "{line}");
        assert!(line.contains("\"backends\":{"), "{line}");
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "{line}"
        );
    }

    // Dropping the stream connection is the unsubscribe; the server
    // must keep serving afterwards.
    assert_eq!(ctl(server.endpoint(), Verb::Ping)[1], "# pong");

    server.request_shutdown();
    server.wait();
}

#[test]
fn stats_stream_ends_politely_when_the_server_drains() {
    let fx = Fixture::new(50_000);
    let server = fx.start_server(ServiceConfig::default());
    let endpoint = server.endpoint().clone();
    let streamer = std::thread::spawn(move || {
        let mut frames = Vec::new();
        let mut status = Vec::new();
        let n = genasm_server::client::stream_stats(&endpoint, 10, 0, &mut frames, &mut status)
            .expect("stream failed");
        (n, String::from_utf8(status).unwrap())
    });
    // Let at least one frame land, then drain under the streamer.
    std::thread::sleep(std::time::Duration::from_millis(60));
    server.request_shutdown();
    server.wait();
    let (n, status) = streamer.join().unwrap();
    assert!(n >= 1, "no frames before the drain");
    assert!(status.contains("# ok stream-end"), "{status}");
}

/// A Unix-socket server on a path of its own.
fn start_unix_server(fx: &Fixture, tag: &str, service: ServiceConfig) -> Server {
    let path =
        std::env::temp_dir().join(format!("genasm-server-{tag}-{}.sock", std::process::id()));
    Server::start(
        ServerConfig {
            endpoint: Endpoint::Unix(path),
            default_backend: BackendKind::Cpu,
            default_format: OutputFormat::Tsv,
            idle_timeout: None,
            service,
        },
        "ref",
        Reference::single("ref", fx.reference.clone()),
    )
    .expect("unix server start")
}

/// Run `f` on a thread of its own and fail if it is not done in
/// `secs` seconds, so a client and a server waiting on each other show
/// as a failure and not as a hung suite.
fn watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(std::time::Duration::from_secs(secs))
        .expect("watchdog: client and server are waiting on each other")
}

/// A session whose upload and response each outgrow a socket buffer,
/// against an output cap far below either: at the cap the server
/// stops reading the socket until the client has taken rows, so this
/// only ends for a client that reads while it writes.
#[test]
fn throttled_session_completes_for_a_client_that_reads_while_it_writes() {
    let fx = Fixture::new(60_000);
    let reads = fx.reads(700, 1_000, 71);
    let payload = fastq_bytes(&reads);
    let expected = fx.expected(&reads, BackendKind::Cpu, OutputFormat::Tsv);
    // Well past a Unix socket's buffer (~200 kB), in both directions.
    assert!(payload.len() > 1 << 20 && expected.len() > 1 << 20);

    let server = start_unix_server(
        &fx,
        "throttle",
        ServiceConfig {
            max_session_output_bytes: 4096,
            ..ServiceConfig::default()
        },
    );
    let endpoint = server.endpoint().clone();
    let (report, out, status) = watchdog(60, move || {
        let (mut out, mut status) = (Vec::new(), Vec::new());
        let report = submit(
            &endpoint,
            Cursor::new(payload),
            &SubmitOptions::default(),
            &mut out,
            &mut status,
        )
        .expect("submit failed");
        (report, out, String::from_utf8(status).unwrap())
    });
    assert_eq!(report.errors, 0, "{status}");
    assert!(report.done.is_some(), "missing # done line: {status}");
    assert!(
        String::from_utf8(out).unwrap() == expected,
        "throttled session diverged"
    );

    server.request_shutdown();
    let metrics = server.wait();
    assert!(metrics.sessions_throttled > 0, "the cap never bit");
}

/// A preamble that never ends its line: the server stops buffering at
/// its cap, says so, hangs up, and keeps serving.
#[test]
fn endless_verb_line_is_refused_and_the_server_keeps_serving() {
    let fx = Fixture::new(30_000);
    let server = start_unix_server(&fx, "longline", ServiceConfig::default());
    let endpoint = server.endpoint().clone();

    let lines = watchdog(60, move || {
        let conn = connect(&endpoint).unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        // The server hangs up long before the megabyte is through.
        let _ = writer.write_all(&vec![b'A'; 1 << 20]);
        // Lines until the server's close (which may read as a reset).
        reader
            .lines()
            .map_while(Result::ok)
            .collect::<Vec<String>>()
    });
    assert!(lines[0].starts_with("# genasm-server"), "{lines:?}");
    assert_eq!(lines[1..], ["# err line too long"], "{lines:?}");

    assert_eq!(ctl(server.endpoint(), Verb::Ping)[1], "# pong");
    server.request_shutdown();
    server.wait();
}
