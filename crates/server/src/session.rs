//! Per-connection protocol handler.
//!
//! Each accepted connection runs on its own thread: a verb loop until
//! `BEGIN`, then the streaming phase — the connection thread parses
//! FASTA/FASTQ records off the socket and submits them to the shared
//! [`genasm_pipeline::PipelineService`], while a writer thread drains
//! the session's events back to the client. The two halves are
//! independent, so responses stream while the client is still
//! uploading, and both directions are backpressured: a full lane of
//! the session's backend blocks `submit`, and so does this session reaching
//! `ServiceConfig::max_session_inflight_reads` or falling behind its
//! reader by more than `ServiceConfig::max_session_output_bytes`. A
//! blocked `submit` stops this thread reading the socket, which
//! propagates to the client's TCP window; the sink itself never blocks
//! on one slow client.
//!
//! Adversarial clients are bounded in time as well as space. A verb
//! line longer than `MAX_VERB_LINE` gets `# err line too long` and the
//! connection is closed, however many bytes follow. With an idle
//! timeout configured, a client that goes silent in the verb loop
//! gets `# hb` heartbeats (a failed heartbeat ends the connection),
//! one that goes silent mid-upload has its session aborted
//! (`# err input: idle timeout …`, then the usual `# done` framing),
//! and one that stops *reading* kills the writer thread via the write
//! timeout. The dead writer drops the session's receiver, so this
//! thread's next submit fails and it stops: a dead client cannot keep
//! burning backend time on work no one will see.
//!
//! The writer thread streams every row and returns at `End` with the
//! session's metrics; this thread joins it, then writes the input
//! error, if the upload failed, and `# done`, the response's last line.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::time::Duration;

use genasm_pipeline::{
    escape_name, OutputFormat, ReadInput, RecvOutcome, SessionEvent, SessionMetrics,
    SessionReceiver,
};
use readsim::{FastxError, FastxReader};

use crate::endpoint::Conn;
use crate::protocol::{parse_verb, StatsFormat, Verb, HB_LINE};
use crate::ServerShared;

/// Most bytes of one verb line the server buffers before it gives up
/// on the connection; the longest valid verb is under 40.
const MAX_VERB_LINE: usize = 4096;

/// What the connection asked of the server beyond its own session.
pub(crate) enum ConnOutcome {
    /// Plain session (or verb-only connection).
    Done,
    /// The client sent `SHUTDOWN`: drain and exit.
    ShutdownRequested,
}

/// A read that hit the socket's receive or send timeout surfaces as
/// `WouldBlock` (unix, via `SO_RCVTIMEO`) or `TimedOut` (windows).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The status line for a read that found no alignment. The name is
/// escaped exactly like record name columns, so a read named
/// `evil\nBEGIN` cannot forge protocol lines.
fn status_err_read(read: &str) -> String {
    format!(
        "# err read {}: no alignment within the edit budget",
        escape_name(read)
    )
}

/// Serve one connection to completion.
pub(crate) fn handle_conn(conn: Conn, srv: &ServerShared) -> io::Result<ConnOutcome> {
    if let Some(t) = srv.idle_timeout {
        // Socket-level, shared by the clones below: bounds both a
        // silent client (read side) and one that stopped reading our
        // responses (write side).
        conn.set_read_timeout(Some(t))?;
        conn.set_write_timeout(Some(t))?;
    }
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = BufWriter::new(conn);
    let mut backend = srv.default_backend;
    let mut format = srv.default_format;
    let mut explain = false;

    writeln!(
        writer,
        "# genasm-server v1 ref={} backend={backend} format={format}",
        srv.service.ref_name()
    )?;
    writer.flush()?;

    // Verb loop: one reply per line, until BEGIN or EOF.
    let mut line = String::new();
    loop {
        line.clear();
        // A timed-out read_line may leave a partial line in `line`;
        // the retry appends the rest, so framing survives heartbeats.
        // Every attempt reads into what is left of one line's cap: a
        // client that never sends a newline must not grow `line`.
        let n = loop {
            let room = (MAX_VERB_LINE + 1 - line.len()) as u64;
            match (&mut reader).take(room).read_line(&mut line) {
                Ok(n) => break n,
                Err(e) if is_timeout(&e) => {
                    writeln!(writer, "{HB_LINE}")?;
                    writer.flush()?; // failure = client gone; drop the conn
                }
                Err(e) => return Err(e),
            }
        };
        if n == 0 {
            return Ok(ConnOutcome::Done); // client left without a session
        }
        if line.len() > MAX_VERB_LINE && !line.ends_with('\n') {
            writeln!(writer, "# err line too long")?;
            writer.flush()?;
            return Ok(ConnOutcome::Done);
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        match parse_verb(trimmed) {
            Err(msg) => writeln!(writer, "# err {msg}")?,
            Ok(Verb::SetBackend(kind)) => {
                backend = kind;
                writeln!(writer, "# ok backend {backend}")?;
            }
            Ok(Verb::SetFormat(fmt)) => {
                format = fmt;
                writeln!(writer, "# ok format {format}")?;
            }
            Ok(Verb::SetExplain(on)) => {
                explain = on;
                writeln!(writer, "# ok explain {}", if on { "on" } else { "off" })?;
            }
            Ok(Verb::Ping) => writeln!(writer, "# pong")?,
            Ok(Verb::Stats(fmt)) => write_stats(&mut writer, srv, fmt)?,
            Ok(Verb::StatsStream(ms)) => {
                stream_stats(&mut writer, srv, ms)?;
                return Ok(ConnOutcome::Done);
            }
            Ok(Verb::Shutdown) => {
                writeln!(writer, "# ok draining")?;
                writer.flush()?;
                return Ok(ConnOutcome::ShutdownRequested);
            }
            Ok(Verb::Begin) => break,
        }
        writer.flush()?;
    }

    // Streaming phase: admission, then records in / rows out.
    let (mut session, receiver) = match srv.service.open_session(backend) {
        Ok(pair) => pair,
        Err(e) => {
            writeln!(writer, "# err {e}")?;
            writer.flush()?;
            return Ok(ConnOutcome::Done);
        }
    };
    if explain {
        session.set_explain(true);
    }
    writeln!(writer, "# ok begin backend={backend} format={format}")?;
    writer.flush()?;

    let heartbeat = srv.idle_timeout;
    let writer_thread =
        std::thread::spawn(move || drain_events(receiver, writer, format, heartbeat));

    // Parse records off the socket until the client half-closes, the
    // upload fails, or a dead writer drops the receiver.
    let input_err = FastxReader::new(&mut reader).find_map(|rec| match rec {
        Ok(r) => {
            let read = ReadInput {
                name: r.name,
                seq: r.seq,
            };
            session.submit(read).err().map(|e| e.to_string())
        }
        Err(FastxError::Io(ref e)) if is_timeout(e) => {
            // The client went silent mid-upload: abort the session
            // rather than pin its slot (and its buffered state)
            // forever. The drain still completes normally.
            srv.service.note_session_timeout();
            let ms = srv.idle_timeout.map_or(0, |t| t.as_millis());
            Some(format!(
                "idle timeout: no data for {ms}ms; aborting session"
            ))
        }
        Err(e) => Some(e.to_string()),
    });
    session.finish();

    let (mut writer, end) = writer_thread
        .join()
        .expect("session writer thread panicked")?;
    // No `End`: the service died first, and nothing more is said.
    if let Some(m) = end {
        if let Some(msg) = input_err {
            writeln!(writer, "# err input: {}", escape_name(&msg))?;
        }
        writeln!(
            writer,
            "# done reads={} mapped={} tasks={} records={} failed={}",
            m.reads_in, m.reads_mapped, m.tasks, m.records_out, m.reads_failed
        )?;
    }
    writer.flush()?;
    Ok(ConnOutcome::Done)
}

/// Answer one `STATS` verb in the requested exposition format.
///
/// The classic line format includes the engine's band counters
/// (`windows=`, `early_term=`, `band_skipped=`) so an
/// operator can see early-termination effectiveness without opening a
/// JSON snapshot; they read zero until the first batch completes (the
/// engine merges stats batch-atomically).
fn write_stats(
    writer: &mut BufWriter<Conn>,
    srv: &ServerShared,
    fmt: StatsFormat,
) -> io::Result<()> {
    match fmt {
        StatsFormat::Line => {
            let m = srv.service.metrics();
            let eng = m.engine.unwrap_or_default();
            writeln!(
                writer,
                "# stats sessions={} contigs={} reads_in={} mapped={} tasks={} records_out={} \
                 inflight_bases_peak={} out_buffered={} throttled={} timed_out={} \
                 backend_errors={} uptime_ms={} windows={} early_term={} band_skipped={}",
                srv.service.active_sessions(),
                srv.service.ref_contigs(),
                m.reads_in,
                m.reads_mapped,
                m.tasks_generated,
                m.records_out,
                m.max_inflight_bases,
                m.session_output_buffered_bytes,
                m.sessions_throttled,
                m.sessions_timed_out,
                srv.service.backend_errors(),
                m.wall.as_millis(),
                eng.windows,
                eng.windows_early_terminated,
                eng.band_cells_skipped,
            )?;
        }
        StatsFormat::Json => {
            writeln!(writer, "# stats-json {}", srv.service.stats_json())?;
        }
        StatsFormat::Prom => {
            writeln!(writer, "# prom-begin")?;
            for line in srv.service.stats_prometheus().lines() {
                writeln!(writer, "# prom {line}")?;
            }
            writeln!(writer, "# prom-end")?;
        }
    }
    Ok(())
}

/// Serve a `STATS STREAM <ms>` push feed: one `# stat-frame {json}`
/// line immediately, then one per interval, until the client hangs up
/// (the write fails — possibly via the write timeout) or the server
/// starts draining (the feed then ends with `# ok stream-end`).
/// Interval rates are computed by diffing the service counters
/// between frames, so the first frame reports zero rates. The sleep
/// is chunked: a draining server reclaims this thread within ~50 ms
/// no matter how long the requested interval is.
fn stream_stats(
    writer: &mut BufWriter<Conn>,
    srv: &ServerShared,
    interval_ms: u64,
) -> io::Result<()> {
    use std::time::Instant;
    let interval = Duration::from_millis(interval_ms);
    let mut last = srv.service.metrics();
    let mut last_at = Instant::now();
    let mut rates = (0.0f64, 0.0f64);
    loop {
        writeln!(
            writer,
            "# stat-frame {}",
            srv.service.stat_frame_json(interval_ms, rates.0, rates.1)
        )?;
        writer.flush()?;
        let deadline = Instant::now() + interval;
        loop {
            if srv.service.is_draining() {
                writeln!(writer, "# ok stream-end")?;
                writer.flush()?;
                return Ok(());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(Duration::from_millis(50)));
        }
        let now = Instant::now();
        let m = srv.service.metrics();
        let dt = now.duration_since(last_at).as_secs_f64().max(1e-9);
        rates = (
            m.reads_in.saturating_sub(last.reads_in) as f64 / dt,
            m.records_out.saturating_sub(last.records_out) as f64 / dt,
        );
        last = m;
        last_at = now;
    }
}

/// Drain session events to the client until `End`, and return the
/// writer with the session's metrics (`None`: the service died first).
/// With a heartbeat interval, quiet stretches emit `# hb` — doubling as
/// a liveness probe of the client's read side: once writes time out or
/// fail, the error returns and drops the receiver, which fails the
/// session's next submit.
fn drain_events(
    receiver: SessionReceiver,
    mut writer: BufWriter<Conn>,
    format: OutputFormat,
    heartbeat: Option<Duration>,
) -> io::Result<(BufWriter<Conn>, Option<SessionMetrics>)> {
    loop {
        let event = match heartbeat {
            Some(hb) => match receiver.recv_deadline(hb) {
                RecvOutcome::Event(ev) => Some(ev),
                RecvOutcome::TimedOut => {
                    writeln!(writer, "{HB_LINE}")?;
                    writer.flush()?;
                    continue;
                }
                RecvOutcome::Closed => None,
            },
            None => receiver.recv(),
        };
        match event {
            None => return Ok((writer, None)),
            Some(SessionEvent::Rows(rows)) => {
                for row in &rows {
                    writeln!(writer, "{}", format.line(row))?;
                }
            }
            Some(SessionEvent::ReadFailed { read }) => {
                writeln!(writer, "{}", status_err_read(&read))?
            }
            // Provenance is opt-in (`SET explain on`); the JSON is a
            // single line by construction, safe to frame as a status
            // line.
            Some(SessionEvent::Explain(json)) => writeln!(writer, "# explain {json}")?,
            Some(SessionEvent::End(m)) => return Ok((writer, Some(m))),
        }
        writer.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genasm_pipeline::unescape_name;

    #[test]
    fn err_read_line_escapes_hostile_names() {
        let line = status_err_read("evil\nBEGIN\r# done\tx\\");
        // One line, no matter what the name contained.
        assert_eq!(line.lines().count(), 1);
        assert!(line.starts_with("# err read "));
        // Round-trip: the escaped payload decodes back to the name.
        let payload = line
            .strip_prefix("# err read ")
            .and_then(|s| s.strip_suffix(": no alignment within the edit budget"))
            .unwrap();
        assert_eq!(unescape_name(payload).unwrap(), "evil\nBEGIN\r# done\tx\\");
    }

    #[test]
    fn plain_names_pass_through_unchanged() {
        assert_eq!(
            status_err_read("read42"),
            "# err read read42: no alignment within the edit budget"
        );
    }
}
