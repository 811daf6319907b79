//! Spans recorded by the harness around its calls into each layer.
//! They stay in memory and are written once, when the run ends, as a
//! Chrome trace-event file (open it in Perfetto or `chrome://tracing`).

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Lanes (`tid`s) of the trace file.
pub mod lane {
    pub const RUN: u32 = 0;
    pub const INPUT: u32 = 1;
    pub const BACKEND: u32 = 2;
    pub const SINK: u32 = 3;
    pub const REPLAY: u32 = 4;
    /// Client `c` of the closed loop uses `CLIENT0 + c`.
    pub const CLIENT0: u32 = 8;

    pub fn name(lane: u32) -> String {
        match lane {
            RUN => "run".into(),
            INPUT => "input iterator (readsim)".into(),
            BACKEND => "Backend::align_batch".into(),
            SINK => "on_record (format + write)".into(),
            REPLAY => "single-threaded layer replay".into(),
            c => format!("client {}", c - CLIENT0),
        }
    }
}

/// Index of a recorded span.
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub lane: u32,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The read, batch or request this span belongs to.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span store of one traced pass or replay.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        (spans.len() - 1) as SpanId
    }

    /// Record a finished span.
    pub fn record(
        &self,
        name: &'static str,
        lane: u32,
        parent: Option<SpanId>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.push(Span {
            name,
            lane,
            parent,
            id,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        })
    }

    /// Open a span that children will name as their parent; close it
    /// with [`Spans::end`].
    pub fn begin(&self, name: &'static str, lane: u32, parent: Option<SpanId>, id: u64) -> SpanId {
        let now = self.ns(Instant::now());
        self.push(Span {
            name,
            lane,
            parent,
            id,
            start_ns: now,
            end_ns: now,
        })
    }

    pub fn end(&self, span: SpanId) {
        let now = self.ns(Instant::now());
        self.spans.lock().expect("span store poisoned")[span as usize].end_ns = now;
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every span as one Chrome `X` event; `args` carry the
    /// span's own index, its parent and the id it belongs to.
    pub fn write_chrome_trace<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let spans = self.snapshot();
        let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        let mut first = true;
        let mut sep = |w: &mut W| -> std::io::Result<()> {
            if !std::mem::take(&mut first) {
                writeln!(w, ",")?;
            }
            Ok(())
        };
        for l in lanes {
            sep(&mut w)?;
            write!(
                w,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{l},\"args\":{{\"name\":{}}}}}",
                crate::json::quote(&lane::name(l))
            )?;
        }
        for (i, s) in spans.iter().enumerate() {
            sep(&mut w)?;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_file_is_json_with_parents_and_ids() {
        let spans = Spans::new();
        let root = spans.begin("pass", lane::RUN, None, 0);
        let t = Instant::now();
        let child = spans.record(
            "align_batch",
            lane::BACKEND,
            Some(root),
            7,
            t,
            Instant::now(),
        );
        spans.end(root);
        assert_eq!(child, 1);
        let mut out = Vec::new();
        spans.write_chrome_trace(&mut out).unwrap();
        let doc = crate::json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // two lane names + two spans
        assert_eq!(events.len(), 4);
        let last = events.last().unwrap();
        assert_eq!(last.get("name").unwrap().as_str(), Some("align_batch"));
        assert_eq!(last.num_at(&["args", "parent"]), Some(0.0));
        assert_eq!(last.num_at(&["args", "id"]), Some(7.0));
        let snap = spans.snapshot();
        assert!(snap[0].end_ns >= snap[1].end_ns);
    }
}
