//! # genasm-server
//!
//! The long-lived alignment service: load the reference and its
//! genome minimizer index **once**, keep the streaming pipeline's
//! stages resident, and serve any number of concurrent client
//! sessions over a TCP or Unix-domain socket.
//!
//! ```text
//!             ┌─ conn thread ── verb loop ─ BEGIN ─ FASTX parse ─┐ submit
//!  client A ──┤  joins the writer, then writes `# err`, `# done` ├────────┐
//!             └─ writer thread ◄─ rows, until End ◄─ outbox ◄────┘        │
//!             ┌─ conn thread ─ ...                                        ▼
//!  client B ──┤                                    ┌──────────────────────────────┐
//!             └─ writer thread ◄───────────────────┤  PipelineService (resident)  │
//!                                                  │  per-backend lanes → batches │
//!  genasm submit ──► SET/BEGIN/records ──────────► │  → backends → ordered sink   │
//!                                                  └──────────────────────────────┘
//! ```
//!
//! The heavy lifting lives in [`genasm_pipeline::PipelineService`]:
//! one bounded lane per backend, shared by every session on that
//! backend, gives *server-wide* admission control (peak resident bases obey
//! [`genasm_pipeline::ServiceConfig::resident_bases_bound`] no matter
//! how many clients connect), and one global reorder at the sink, with
//! each completed read routed to its session, keeps each client's
//! record stream byte-identical to a one-shot `genasm align` over that
//! client's reads. This crate adds the transport: the listener, the
//! line protocol ([`protocol`]), the per-connection threads
//! (`session`), graceful drain (`SHUTDOWN` verb or
//! [`Server::request_shutdown`]), and the [`client`] used by
//! `genasm submit` / `genasm ctl` and CI.

#![forbid(unsafe_code)]

pub mod client;
pub mod endpoint;
pub mod protocol;
mod session;

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use align_core::Reference;
use genasm_pipeline::{BackendKind, OutputFormat, PipelineMetrics, PipelineService, ServiceConfig};

pub use endpoint::{connect, Conn, Endpoint};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Backend used by sessions that don't `SET backend`.
    pub default_backend: BackendKind,
    /// Output format for sessions that don't `SET format`.
    pub default_format: OutputFormat,
    /// How long a connection may go silent before the server acts:
    /// in the verb loop an idle client is sent a `# hb` heartbeat (and
    /// the connection closes once the heartbeat fails to deliver); in
    /// the streaming phase a client that sends nothing for this long
    /// has its session aborted (`# err input: idle timeout …`, then
    /// `# done`), and a client that stops *reading* for this long is
    /// treated as dead by the writer side. `None` disables all of it.
    pub idle_timeout: Option<std::time::Duration>,
    /// The resident pipeline service underneath all sessions.
    pub service: ServiceConfig,
}

/// Shared state between the accept loop, connection threads, and the
/// owner waiting in [`Server::wait`].
pub(crate) struct ServerShared {
    pub(crate) service: PipelineService,
    pub(crate) default_backend: BackendKind,
    pub(crate) default_format: OutputFormat,
    pub(crate) idle_timeout: Option<std::time::Duration>,
    endpoint: Endpoint,
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
    /// Accept loop exit flag (set after the service has drained).
    stopped: AtomicBool,
    /// One entry per live connection: the thread plus a slot holding a
    /// socket handle `wait` can half-close to unblock an idle reader.
    /// The connection thread clears its slot on exit (a lingering
    /// clone would keep the socket open and rob the client of its
    /// EOF), and finished entries are reaped on every accept so a
    /// long-lived server does not accumulate a handle per connection
    /// ever served.
    conns: Mutex<Vec<(JoinHandle<()>, ConnWatch)>>,
}

/// A shared slot holding a spare handle to a connection's socket; the
/// connection thread clears it on exit, `Server::wait` half-closes
/// whatever is left to unblock idle readers.
type ConnWatch = Arc<Mutex<Option<Conn>>>;

impl ServerShared {
    fn request_shutdown(&self) {
        // Refuse new sessions from this instant, even before the
        // owner's `wait` starts the drain proper.
        self.service.begin_drain();
        let mut flag = self.shutdown.lock().unwrap();
        *flag = true;
        drop(flag);
        self.shutdown_cv.notify_all();
    }
}

/// A running server. Start it, then block in [`Server::wait`] until a
/// shutdown is requested (by a client's `SHUTDOWN` verb or
/// [`Server::request_shutdown`]); `wait` drains in-flight sessions and
/// returns the final service metrics.
pub struct Server {
    shared: Arc<ServerShared>,
    accept_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind the endpoint, start the resident pipeline service —
    /// consuming the (possibly multi-contig) reference, whose only
    /// resident copy becomes the index's contigs — and
    /// begin accepting connections.
    pub fn start(cfg: ServerConfig, ref_label: &str, reference: Reference) -> io::Result<Server> {
        let (listener, actual) = endpoint::Listener::bind(&cfg.endpoint)?;
        let service = PipelineService::start(ref_label, reference, cfg.service);
        let shared = Arc::new(ServerShared {
            service,
            default_backend: cfg.default_backend,
            default_format: cfg.default_format,
            idle_timeout: cfg.idle_timeout,
            endpoint: actual,
            shutdown: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            stopped: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let sh = Arc::clone(&shared);
        let accept_handle = std::thread::spawn(move || accept_loop(listener, &sh));
        Ok(Server {
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The resolved listen endpoint (TCP port 0 becomes the bound
    /// port) — dial this to connect.
    pub fn endpoint(&self) -> &Endpoint {
        &self.shared.endpoint
    }

    /// The resident service (metrics, admission state) — mainly for
    /// tests and the `STATS` verb.
    pub fn service(&self) -> &PipelineService {
        &self.shared.service
    }

    /// Ask the server to drain and exit, as the `SHUTDOWN` verb does.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Block until shutdown is requested, then drain: in-flight
    /// sessions finish, new sessions are refused (`# err service is
    /// draining`), the listener closes, and every thread is joined.
    /// Returns the final service-wide metrics.
    pub fn wait(mut self) -> PipelineMetrics {
        {
            let mut flag = self.shared.shutdown.lock().unwrap();
            while !*flag {
                flag = self.shared.shutdown_cv.wait(flag).unwrap();
            }
        }
        // Drain the pipeline service first: stops admitting sessions
        // (connections still get a polite "# err service is draining")
        // and waits for the open ones to finish.
        let metrics = self.shared.service.shutdown();
        // Now stop the accept loop: set the flag, then wake the
        // blocking accept with a throwaway connection.
        self.shared.stopped.store(true, Ordering::SeqCst);
        let _ = endpoint::connect(&self.shared.endpoint);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Unblock idle connections (a client parked in the verb loop
        // would otherwise hold its read forever) by closing the read
        // side only — in-flight response writes still complete — then
        // join every connection thread.
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for (h, slot) in conns {
            if let Some(sock) = slot.lock().unwrap().take() {
                let _ = sock.shutdown_read();
            }
            let _ = h.join();
        }
        if let Endpoint::Unix(path) = &self.shared.endpoint {
            let _ = std::fs::remove_file(path);
        }
        metrics
    }
}

fn accept_loop(listener: endpoint::Listener, shared: &Arc<ServerShared>) {
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if shared.stopped.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept errors (e.g. fd exhaustion) must
                // not busy-spin: back off briefly so the connection
                // threads holding the resources can make progress.
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        if shared.stopped.load(Ordering::SeqCst) {
            return; // the wake-up connection from Server::wait
        }
        let slot = Arc::new(Mutex::new(conn.try_clone().ok()));
        let thread_slot = Arc::clone(&slot);
        let sh = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            let outcome = session::handle_conn(conn, &sh);
            // Release the watch handle: every fd to this socket must
            // close for the client to see EOF.
            thread_slot.lock().unwrap().take();
            match outcome {
                Ok(session::ConnOutcome::ShutdownRequested) => sh.request_shutdown(),
                Ok(session::ConnOutcome::Done) => {}
                Err(_) => {} // client vanished mid-conversation
            }
        });
        let mut conns = shared.conns.lock().unwrap();
        // Reap finished connections so the registry tracks live ones,
        // not every connection ever accepted.
        conns.retain(|(h, _)| !h.is_finished());
        conns.push((handle, slot));
    }
}
