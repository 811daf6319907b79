//! The `serve-sessions` driver: a child `genasm serve` and a closed
//! loop of clients speaking its line protocol over a Unix socket.
//! Load generator and server are separate processes.

use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::machine::{peak_rss_mb, StealMeter};
use crate::oneshot::Steady;
use crate::spans::{lane, Spans};
use crate::workload::{Spec, Workload, CLIENTS, SHARDS, THREADS};

/// How long a starting server may take to answer its first `PING`.
const STARTUP_LIMIT: Duration = Duration::from_secs(60);
/// A hung server must fail the run, not wedge it.
const IO_LIMIT: Duration = Duration::from_secs(60);

/// A running `genasm serve` child.
pub struct ServerChild {
    child: Child,
    sock: PathBuf,
    /// Spawn → first `# pong`.
    pub setup_s: f64,
}

impl ServerChild {
    /// Start `genasm serve` on `dir/ref.fa`, listening on `dir/<sock>`.
    /// The child runs inside `dir`, so its side of the socket path is
    /// always short.
    pub fn spawn(
        genasm: &Path,
        dir: &Path,
        sock: &str,
        spec: &Spec,
    ) -> Result<ServerChild, String> {
        let listen = format!("unix:{sock}");
        let sock = dir.join(sock);
        let _ = std::fs::remove_file(&sock);
        let started = Instant::now();
        let child = Command::new(genasm)
            .current_dir(dir)
            .args(["serve", "--ref", "ref.fa", "--listen", &listen])
            .args(["--backend", "cpu"])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--threads", &THREADS.to_string()])
            .args(["--max-per-read", &spec.max_per_read.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", genasm.display()))?;
        let mut server = ServerChild {
            child,
            sock,
            setup_s: 0.0,
        };
        loop {
            if let Ok(reply) = server.control("PING") {
                if reply == "# pong" {
                    break;
                }
                return Err(format!("server answered PING with {reply:?}"));
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("genasm serve exited during start-up: {status}"));
            }
            if started.elapsed() > STARTUP_LIMIT {
                return Err("genasm serve did not answer PING in time".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        server.setup_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    fn connect(&self) -> std::io::Result<UnixStream> {
        let conn = UnixStream::connect(&self.sock)?;
        conn.set_read_timeout(Some(IO_LIMIT))?;
        conn.set_write_timeout(Some(IO_LIMIT))?;
        Ok(conn)
    }

    /// One control verb on a fresh connection; returns its reply line.
    pub fn control(&self, verb: &str) -> Result<String, String> {
        let io = |e: std::io::Error| format!("{verb}: {e}");
        let mut conn = self.connect().map_err(io)?;
        let mut reader = BufReader::new(conn.try_clone().map_err(io)?);
        let mut line = String::new();
        reader.read_line(&mut line).map_err(io)?; // greeting
        writeln!(conn, "{verb}").map_err(io)?;
        loop {
            line.clear();
            if reader.read_line(&mut line).map_err(io)? == 0 {
                return Err(format!("{verb}: connection closed without a reply"));
            }
            if line.trim_end() != "# hb" {
                return Ok(line.trim_end().to_string());
            }
        }
    }

    /// The `STATS JSON` document.
    pub fn stats(&self) -> Result<crate::json::Value, String> {
        let line = self.control("STATS JSON")?;
        let doc = line
            .strip_prefix("# stats-json ")
            .ok_or_else(|| format!("unexpected STATS JSON reply: {line:.80}"))?;
        crate::json::parse(doc)
    }

    /// The server's `VmHWM`, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// `SHUTDOWN`, then wait for the child to end.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.control("SHUTDOWN");
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        asked?;
        if !status.success() {
            return Err(format!("genasm serve ended with {status}"));
        }
        Ok(())
    }
}

impl Drop for ServerChild {
    /// Never leave a server behind, whatever path the run took.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// One request of the closed loop, as its client saw it.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Connect → `# done`.
    pub latency_ms: f64,
    /// When it completed, in seconds since the pass began.
    pub ended_s: f64,
    /// Connect → greeting.
    pub connect_ms: f64,
    /// `BEGIN` → `# ok begin`.
    pub open_ms: f64,
    /// Half-close → first record.
    pub first_record_ms: f64,
    /// First record → `# done`.
    pub drain_ms: f64,
    /// The record lines of the response.
    pub records: Vec<u8>,
    /// Reads the server reported as failed (`# err read`, `failed=`).
    pub failed_reads: u64,
    /// Why the request did not end in `# done`, if it did not.
    pub error: Option<String>,
}

/// One closed-loop pass over every session of the workload.
#[derive(Debug, Clone)]
pub struct ServePass {
    pub wall_s: f64,
    /// Share of the machine the hypervisor took away meanwhile.
    pub steal_share: f64,
    pub reads: u64,
    /// In request order.
    pub requests: Vec<Request>,
}

impl ServePass {
    /// The responses, concatenated in request order.
    pub fn output(&self) -> Vec<u8> {
        self.requests
            .iter()
            .flat_map(|r| r.records.iter().copied())
            .collect()
    }

    /// Reads that failed, counting every read of a broken request.
    pub fn failed_reads(&self, w: &Workload) -> u64 {
        self.requests
            .iter()
            .zip(w.sessions())
            .map(|(r, (a, b))| match r.error {
                Some(_) => (b - a) as u64,
                None => r.failed_reads,
            })
            .sum()
    }

    /// The pass between its first and last completed request.
    pub fn steady(&self, w: &Workload) -> Steady {
        let first = self
            .requests
            .iter()
            .zip(w.sessions())
            .min_by(|a, b| a.0.ended_s.total_cmp(&b.0.ended_s));
        let last = self.requests.iter().map(|r| r.ended_s).fold(0.0, f64::max);
        match first {
            Some((r, (a, b))) => Steady {
                reads: (w.reads.len() - (b - a)) as f64,
                seconds: last - r.ended_s,
            },
            None => Steady::default(),
        }
    }

    pub fn first_error(&self) -> Option<&str> {
        self.requests.iter().find_map(|r| r.error.as_deref())
    }
}

/// Closed loop: each of [`CLIENTS`] threads opens a connection, sends
/// `BEGIN` and one session's FASTQ bytes, half-closes, reads to
/// `# done`, and only then takes the next session.
pub fn closed_loop_pass(server: &ServerChild, w: &Workload, trace: Option<&Spans>) -> ServePass {
    let sessions = w.sessions();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Request>> = sessions.iter().map(|_| Mutex::default()).collect();
    let pass_span = trace.map(|s| s.begin("pass", lane::RUN, None, 0));
    let steal = StealMeter::start();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (sessions, next, slots) = (&sessions, &next, &slots);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(a, b)) = sessions.get(i) else {
                    break;
                };
                let mut req = Request::default();
                let begun = Instant::now();
                if let Err(e) = one_request(server, w.fastq_of(a, b), &mut req) {
                    req.error = Some(format!("request {i}: {e}"));
                }
                let ended = Instant::now();
                req.latency_ms = (ended - begun).as_secs_f64() * 1e3;
                req.ended_s = (ended - started).as_secs_f64();
                if let Some(spans) = trace {
                    let lane = lane::CLIENT0 + client as u32;
                    spans.record("server.request", lane, pass_span, i as u64, begun, ended);
                }
                *slots[i].lock().expect("request slot poisoned") = req;
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    if let (Some(spans), Some(span)) = (trace, pass_span) {
        spans.end(span);
    }
    ServePass {
        wall_s,
        steal_share: steal.share(),
        reads: w.reads.len() as u64,
        requests: slots
            .into_iter()
            .map(|s| s.into_inner().expect("request slot poisoned"))
            .collect(),
    }
}

fn one_request(server: &ServerChild, fastq: &[u8], req: &mut Request) -> std::io::Result<()> {
    let ms = |from: Instant| from.elapsed().as_secs_f64() * 1e3;
    let bad = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);

    let t = Instant::now();
    let mut conn = server.connect()?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if !line.starts_with("# genasm-server") {
        return Err(bad(format!("unexpected greeting {line:?}")));
    }
    req.connect_ms = ms(t);

    let t = Instant::now();
    conn.write_all(b"BEGIN\n")?;
    line.clear();
    reader.read_line(&mut line)?;
    if !line.starts_with("# ok begin") {
        return Err(bad(format!("session refused: {}", line.trim_end())));
    }
    req.open_ms = ms(t);

    conn.write_all(fastq)?;
    conn.shutdown(Shutdown::Write)?;
    let sent = Instant::now();
    let mut first_record: Option<Instant> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before # done".into()));
        }
        if let Some(done) = line.strip_prefix("# done") {
            // `failed=` repeats what the `# err read` lines said.
            let failed = done
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("failed="))
                .and_then(|n| n.parse::<u64>().ok())
                .ok_or_else(|| bad(format!("malformed # done line: {}", line.trim_end())))?;
            req.failed_reads = req.failed_reads.max(failed);
            break;
        } else if line.starts_with("# err") {
            req.failed_reads += 1;
        } else if !line.starts_with("# ") {
            first_record.get_or_insert_with(Instant::now);
            req.records.extend_from_slice(line.as_bytes());
        }
    }
    let first = first_record.unwrap_or_else(Instant::now);
    req.first_record_ms = (first - sent).as_secs_f64() * 1e3;
    req.drain_ms = ms(first);
    Ok(())
}
