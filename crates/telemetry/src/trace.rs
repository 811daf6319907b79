//! Structured trace recorder emitting Chrome trace-event JSON.
//!
//! The output is a JSON array of event objects — the "JSON Array
//! Format" understood by Perfetto and `chrome://tracing`. We emit
//! complete spans (`"ph":"X"` with microsecond `ts`/`dur`), instant
//! events (`"ph":"i"`), and thread-name metadata (`"ph":"M"`), one
//! event per line so the file is greppable and streamable.
//!
//! Timestamps are microseconds since the recorder's creation
//! (`Instant`-based, monotonic). All events share `pid` 1; `tid` is a
//! caller-chosen lane number, named via [`TraceRecorder::thread_name`]
//! so the viewer shows stage lanes rather than raw ids.
//!
//! Recording takes a mutex per event — tracing is an opt-in debugging
//! aid, not a hot-path metric; when no recorder is configured the
//! callers skip all of this entirely.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json;

/// One `"args"` value on a trace event.
#[derive(Debug, Clone)]
pub enum TraceArg {
    /// An unsigned integer argument.
    U64(u64),
    /// A string argument.
    Str(String),
}

impl From<u64> for TraceArg {
    fn from(v: u64) -> TraceArg {
        TraceArg::U64(v)
    }
}

impl From<usize> for TraceArg {
    fn from(v: usize) -> TraceArg {
        TraceArg::U64(v as u64)
    }
}

impl From<&str> for TraceArg {
    fn from(v: &str) -> TraceArg {
        TraceArg::Str(v.to_string())
    }
}

impl From<String> for TraceArg {
    fn from(v: String) -> TraceArg {
        TraceArg::Str(v)
    }
}

impl TraceArg {
    fn render(&self) -> String {
        match self {
            TraceArg::U64(v) => v.to_string(),
            TraceArg::Str(s) => format!("\"{}\"", json::escape(s)),
        }
    }
}

struct TraceOut {
    w: Box<dyn Write + Send>,
    events: u64,
    done: bool,
}

/// A shared recorder writing Chrome trace-event JSON to one sink.
pub struct TraceRecorder {
    epoch: Instant,
    out: Mutex<TraceOut>,
}

impl fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let events = self.out.lock().map(|o| o.events).unwrap_or(0);
        f.debug_struct("TraceRecorder")
            .field("events", &events)
            .finish()
    }
}

impl TraceRecorder {
    /// Open `path` for writing and start the event array.
    pub fn create(path: &Path) -> io::Result<TraceRecorder> {
        let f = File::create(path)?;
        Ok(TraceRecorder::to_writer(Box::new(BufWriter::new(f))))
    }

    /// Record into an arbitrary writer (tests, `io::sink`).
    pub fn to_writer(mut w: Box<dyn Write + Send>) -> TraceRecorder {
        // A write failure here surfaces on finish(), which checks the
        // writer again; trace output is best-effort until then.
        let _ = w.write_all(b"[\n");
        TraceRecorder {
            epoch: Instant::now(),
            out: Mutex::new(TraceOut {
                w,
                events: 0,
                done: false,
            }),
        }
    }

    /// The recorder's time origin; span starts are measured from it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn micros_since_epoch(&self, at: Instant) -> f64 {
        at.checked_duration_since(self.epoch)
            .unwrap_or_default()
            .as_nanos() as f64
            / 1000.0
    }

    fn emit(&self, body: &str) {
        let mut out = self.out.lock().expect("trace mutex poisoned");
        if out.done {
            return;
        }
        let sep = if out.events == 0 { "" } else { ",\n" };
        let line = format!("{sep}{body}");
        if out.w.write_all(line.as_bytes()).is_ok() {
            out.events += 1;
        }
    }

    /// Name a `tid` lane (`"ph":"M"` metadata event).
    pub fn thread_name(&self, tid: u64, name: &str) {
        self.emit(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json::escape(name)
        ));
    }

    /// A complete span (`"ph":"X"`) on lane `tid`, starting at
    /// `start` and lasting `dur`, with optional `args`.
    pub fn span(
        &self,
        name: &str,
        cat: &str,
        tid: u64,
        start: Instant,
        dur: Duration,
        args: &[(&str, TraceArg)],
    ) {
        self.emit(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{tid},\"args\":{{{}}}}}",
            json::escape(name),
            json::escape(cat),
            self.micros_since_epoch(start),
            dur.as_nanos() as f64 / 1000.0,
            render_args(args),
        ));
    }

    /// A zero-duration instant event (`"ph":"i"`) on lane `tid`.
    pub fn instant_event(&self, name: &str, cat: &str, tid: u64, args: &[(&str, TraceArg)]) {
        self.emit(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\
             \"pid\":1,\"tid\":{tid},\"args\":{{{}}}}}",
            json::escape(name),
            json::escape(cat),
            self.micros_since_epoch(Instant::now()),
            render_args(args),
        ));
    }

    /// Close the JSON array and flush. Idempotent; called by `Drop`
    /// as a best-effort fallback, but callers that care about write
    /// errors should call it explicitly.
    pub fn finish(&self) -> io::Result<()> {
        let mut out = self.out.lock().expect("trace mutex poisoned");
        if out.done {
            return Ok(());
        }
        out.done = true;
        out.w.write_all(b"\n]\n")?;
        out.w.flush()
    }
}

impl Drop for TraceRecorder {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

fn render_args(args: &[(&str, TraceArg)]) -> String {
    let mut s = String::new();
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('"');
        s.push_str(&json::escape(k));
        s.push_str("\":");
        s.push_str(&v.render());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A `Write` handle into a shared buffer the test can inspect.
    #[derive(Clone)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn emits_a_json_array_of_events() {
        let buf = SharedBuf(Arc::new(StdMutex::new(Vec::new())));
        let rec = TraceRecorder::to_writer(Box::new(buf.clone()));
        rec.thread_name(2, "scheduler");
        let start = Instant::now();
        rec.span(
            "batch-build",
            "pipeline",
            2,
            start,
            Duration::from_micros(150),
            &[("tasks", 12u64.into()), ("backend", "cpu".into())],
        );
        rec.instant_event("flush", "pipeline", 2, &[]);
        rec.finish().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.starts_with("[\n"), "{text}");
        assert!(text.trim_end().ends_with(']'), "{text}");
        assert!(text.contains("\"ph\":\"M\""), "{text}");
        assert!(text.contains("\"ph\":\"X\""), "{text}");
        assert!(text.contains("\"dur\":150.000"), "{text}");
        assert!(text.contains("\"tasks\":12"), "{text}");
        assert!(text.contains("\"backend\":\"cpu\""), "{text}");
        assert!(text.contains("\"ph\":\"i\""), "{text}");
        // One event per line: "[", three events (the first two with
        // trailing commas), "]".
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "{text}");
        assert!(lines[1].ends_with(','), "{text}");
        assert!(lines[2].ends_with(','), "{text}");
        assert!(lines[3].ends_with('}'), "{text}");
    }

    #[test]
    fn finish_is_idempotent_and_drop_safe() {
        let buf = SharedBuf(Arc::new(StdMutex::new(Vec::new())));
        {
            let rec = TraceRecorder::to_writer(Box::new(buf.clone()));
            rec.instant_event("only", "t", 0, &[]);
            rec.finish().unwrap();
            rec.finish().unwrap();
            // Events after finish are dropped silently.
            rec.instant_event("late", "t", 0, &[]);
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.matches(']').count(), 1, "{text}");
        assert!(!text.contains("late"), "{text}");
    }
}
