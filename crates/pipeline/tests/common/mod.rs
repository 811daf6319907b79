//! Helpers shared by the integration suites of this crate.

// Each suite compiles its own copy of this module and uses part of it.
#![allow(dead_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use align_core::{AlignTask, Alignment};
use genasm_pipeline::{Backend, BackendError, CpuBackend};

/// Run `body` on its own thread and fail — instead of hanging the
/// suite — when it has not returned within a minute.
pub fn within_a_minute<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("watchdog: the pipeline is wedged"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the body dropped its sender"))
        }
    }
}

/// A writer whose bytes a test can read back while a trace recorder
/// holds a clone of it.
#[derive(Clone, Default)]
pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Everything written so far, as text.
    pub fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One numeric field of a trace event line: the number after `key`
/// (e.g. `"\"ts\":"`), up to the next `,` or `}`.
pub fn trace_field(line: &str, key: &str) -> f64 {
    let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
    let end = line[at..].find([',', '}']).unwrap() + at;
    line[at..end].parse().unwrap()
}

/// `inner` with `in_flight` of its batches at once, whatever its own
/// [`Backend::in_flight`] says: the dispatch stage overlaps batches of a
/// backend only when it asks for that.
pub struct InFlight<B> {
    pub in_flight: usize,
    pub inner: B,
}

impl<B: Backend> Backend for InFlight<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError> {
        self.inner.align_batch(tasks)
    }

    fn engine_stats(&self) -> Option<genasm_core::MemStats> {
        self.inner.engine_stats()
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }
}

/// What a [`FaultBackend`] does with one batch.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// Align it as the CPU backend does.
    Ok,
    /// Fail it with a `BackendError` whose reason is
    /// `injected failure`.
    Error,
    /// Panic with `injected panic`.
    Panic,
    /// Sleep this many milliseconds, then align it.
    Stall(u64),
    /// Align it, then return one result fewer than it has tasks.
    Short,
}

/// The CPU backend under a per-batch script: the `i`-th batch it is
/// handed does what `script[i]` says, and every batch past the end of
/// the script does what `then` says. One batch at a time (the default
/// [`Backend::in_flight`]), so the `i`-th call is the `i`-th batch cut;
/// wrap it in [`InFlight`] to overlap them.
pub struct FaultBackend {
    name: &'static str,
    inner: CpuBackend,
    script: Vec<Fault>,
    then: Fault,
    calls: AtomicUsize,
}

impl FaultBackend {
    pub fn new(name: &'static str, script: &[Fault], then: Fault) -> FaultBackend {
        FaultBackend {
            name,
            inner: CpuBackend::improved(),
            script: script.to_vec(),
            then,
            calls: AtomicUsize::new(0),
        }
    }
}

impl Backend for FaultBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn align_batch(&self, tasks: &[AlignTask]) -> Result<Vec<Option<Alignment>>, BackendError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.script.get(call).copied().unwrap_or(self.then) {
            Fault::Ok => self.inner.align_batch(tasks),
            Fault::Error => Err(BackendError {
                backend: self.name,
                reason: "injected failure".to_string(),
            }),
            Fault::Panic => panic!("injected panic"),
            Fault::Stall(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.align_batch(tasks)
            }
            Fault::Short => {
                let mut alignments = self.inner.align_batch(tasks)?;
                alignments.pop();
                Ok(alignments)
            }
        }
    }
}
