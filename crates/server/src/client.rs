//! The protocol client behind `genasm submit` / `genasm ctl` (and the
//! test suites).
//!
//! [`submit`] speaks a whole session over one connection: `SET` verbs,
//! `BEGIN`, raw record bytes, half-close, and the response, which it
//! drains *while* it uploads — a server at a session's output cap
//! stops reading the socket until the client has taken rows, so a
//! client that sent everything first would wait on it forever. Record
//! lines go to `out` verbatim — so a client's stdout is byte-identical
//! to `genasm align` on the same reads — and every `# `-prefixed status
//! line goes to `status`. [`control`] is the one-verb conversation of
//! `genasm ctl`. The wire text of every verb comes from
//! [`Verb`]'s `Display`.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

use crate::endpoint::{connect, Conn, Endpoint};
use crate::protocol::{Verb, DONE_PREFIX, ERR_PREFIX, HB_LINE, STATUS_PREFIX};
use genasm_pipeline::{BackendKind, OutputFormat};

/// What a session sets before its `BEGIN`; `None`/`false` leave the
/// server's default.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// `SET backend …`.
    pub backend: Option<BackendKind>,
    /// `SET format …`.
    pub format: Option<OutputFormat>,
    /// `SET explain on`: the session streams one `# explain {json}`
    /// provenance line per read, captured in [`SubmitReport::explain`].
    pub explain: bool,
}

/// What came back.
#[derive(Debug, Clone, Default)]
pub struct SubmitReport {
    /// Record lines forwarded to `out`.
    pub records: u64,
    /// `# err …` lines seen (verb failures, failed reads, admission).
    pub errors: u64,
    /// The final `# done …` line, when a session ran to completion.
    pub done: Option<String>,
    /// The JSON payloads of `# explain …` provenance lines, in read
    /// order (prefix stripped; empty unless `SET explain on` ran).
    pub explain: Vec<String>,
}

/// A connection in its verb phase.
struct Preamble {
    reader: BufReader<Conn>,
    writer: BufWriter<Conn>,
}

impl Preamble {
    fn open(endpoint: &Endpoint) -> io::Result<Preamble> {
        let conn = connect(endpoint)?;
        Ok(Preamble {
            reader: BufReader::new(conn.try_clone()?),
            writer: BufWriter::new(conn),
        })
    }

    /// The server's next line — its greeting, or (the rest of) a reply
    /// — skipping heartbeats, which answer nothing.
    fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-handshake",
                ));
            }
            if line.trim_end() != HB_LINE {
                return Ok(line.trim_end().to_string());
            }
        }
    }

    /// Send one verb; returns the first line of its reply.
    fn send(&mut self, verb: &Verb) -> io::Result<String> {
        writeln!(self.writer, "{verb}")?;
        self.writer.flush()?;
        self.line()
    }
}

/// Send one control verb on a connection of its own. Returns what the
/// server said, one element per line: its greeting, then the reply —
/// a single line, except for `STATS PROM`'s `# prom-begin` … `# prom-end`
/// block. An `# err …` reply is returned like any other.
pub fn control(endpoint: &Endpoint, verb: &Verb) -> io::Result<Vec<String>> {
    let mut conn = Preamble::open(endpoint)?;
    let mut lines = vec![conn.line()?, conn.send(verb)?];
    if lines[1] == "# prom-begin" {
        while lines.last().is_some_and(|l| l != "# prom-end") {
            lines.push(conn.line()?);
        }
    }
    Ok(lines)
}

/// Run one session: `reads` supplies the raw FASTA/FASTQ bytes to
/// stream after `BEGIN`.
pub fn submit<R: Read + Send>(
    endpoint: &Endpoint,
    mut reads: R,
    opts: &SubmitOptions,
    out: &mut dyn Write,
    status: &mut dyn Write,
) -> io::Result<SubmitReport> {
    let mut conn = Preamble::open(endpoint)?;
    let mut report = SubmitReport::default();
    writeln!(status, "{}", conn.line()?)?; // greeting

    let settings = [
        opts.backend.map(Verb::SetBackend),
        opts.format.map(Verb::SetFormat),
        opts.explain.then_some(Verb::SetExplain(true)),
    ];
    for verb in settings.into_iter().flatten().chain([Verb::Begin]) {
        let reply = conn.send(&verb)?;
        writeln!(status, "{reply}")?;
        if reply.starts_with(ERR_PREFIX) {
            report.errors += 1;
            if verb == Verb::Begin {
                return Ok(report); // admission refused; server closes
            }
        }
    }

    // Stream the payload, then half-close: that is the end-of-records
    // framing. The server streams rows back the whole time, and stops
    // reading once too many wait unread, so the upload has a thread of
    // its own and this one drains until the server closes.
    let Preamble {
        mut reader,
        mut writer,
    } = conn;
    let (upload, drained) = std::thread::scope(|scope| {
        let upload = scope.spawn(move || -> io::Result<()> {
            io::copy(&mut reads, &mut writer)?;
            writer.flush()?;
            writer.get_ref().shutdown_write()
        });
        let drained = drain_response(&mut reader, &mut report, out, status);
        if drained.is_err() {
            // Nobody takes the response any more, so the server may
            // stop taking the upload: fail its next write, not block.
            let _ = reader.get_ref().shutdown_write();
        }
        let upload = upload
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        (upload, drained)
    });
    drained?;
    // An upload error is tolerated, not propagated: it usually means
    // the server aborted the session (e.g. a parse error), and its
    // diagnostic — plus any rows already produced — has been drained;
    // a bare "broken pipe" would throw that away.
    if upload.is_err() {
        report.errors += 1;
        writeln!(
            status,
            "# err upload interrupted; see the server's response"
        )?;
    }
    Ok(report)
}

/// Forward the response of a session until the server closes the
/// connection: records to `out`, status lines to `status`.
fn drain_response(
    reader: &mut BufReader<Conn>,
    report: &mut SubmitReport,
    out: &mut dyn Write,
    status: &mut dyn Write,
) -> io::Result<()> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let trimmed = line.trim_end();
        if trimmed.starts_with(STATUS_PREFIX) {
            if trimmed.starts_with(ERR_PREFIX) {
                report.errors += 1;
            }
            if trimmed.starts_with(DONE_PREFIX) {
                report.done = Some(trimmed.to_string());
            }
            if let Some(json) = trimmed.strip_prefix("# explain ") {
                report.explain.push(json.to_string());
            }
            writeln!(status, "{trimmed}")?;
        } else {
            report.records += 1;
            writeln!(out, "{trimmed}")?;
        }
    }
}

/// Consume a `STATS STREAM` push feed (the `genasm ctl top` client):
/// connect, request one frame every `interval_ms`, and write each
/// frame's bare JSON payload to `out` (one `genasm-stat-frame/v1`
/// object per line — pipes straight into `jq`). Protocol chatter
/// (greeting, heartbeats, `# ok stream-end`) goes to `status`.
///
/// Stops after `max_frames` frames (`0` = stream until the server
/// ends the feed) by dropping the connection — that is the protocol's
/// unsubscribe. Returns the number of frames received; an `# err …`
/// reply to the verb surfaces as [`io::ErrorKind::InvalidData`].
pub fn stream_stats(
    endpoint: &Endpoint,
    interval_ms: u64,
    max_frames: u64,
    out: &mut dyn Write,
    status: &mut dyn Write,
) -> io::Result<u64> {
    let Preamble {
        mut reader,
        mut writer,
    } = Preamble::open(endpoint)?;
    writeln!(writer, "{}", Verb::StatsStream(interval_ms))?;
    writer.flush()?;

    let mut frames = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break; // server ended the feed (drain) — not an error
        }
        let trimmed = line.trim_end();
        if let Some(json) = trimmed.strip_prefix("# stat-frame ") {
            writeln!(out, "{json}")?;
            out.flush()?;
            frames += 1;
            if max_frames > 0 && frames >= max_frames {
                break; // dropping the connection unsubscribes
            }
            continue;
        }
        if trimmed.starts_with(ERR_PREFIX) {
            writeln!(status, "{trimmed}")?;
            return Err(io::Error::new(io::ErrorKind::InvalidData, trimmed));
        }
        if !trimmed.is_empty() {
            writeln!(status, "{trimmed}")?;
        }
    }
    Ok(frames)
}
