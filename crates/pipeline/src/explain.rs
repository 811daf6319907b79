//! Per-read provenance: the `--explain` JSONL stream.
//!
//! Every read that enters the pipeline leaves exactly one line in the
//! explain stream (schema `genasm-explain/v2`): how far it got through
//! the candidate funnel (anchors → chains → candidates), the edits of
//! each accepted candidate, stage timings, and the final disposition
//! from the closed taxonomy in [`disposition`].
//!
//! Explaining is **strictly passive**: the sink is fed from data the
//! pipeline already computes, and enabling it never changes output
//! records or exit codes — the determinism suite asserts the output
//! is byte-identical with explain on and off.

use std::io::Write;
use std::sync::Mutex;

use align_core::Alignment;
use genasm_telemetry::json;

/// The closed disposition taxonomy. Every read ends in exactly one.
pub mod disposition {
    use std::borrow::Cow;

    /// At least one record emitted.
    pub const ALIGNED: &str = "aligned";
    /// No record: alignment failed within the backend's edit budget.
    pub const FAILED_NO_ALIGNMENT: &str = "failed:no_alignment";
    /// No record: the read produced no candidates. `reason` is the
    /// first empty funnel stage (`no_anchors`, `no_chain`,
    /// `no_candidates`).
    pub fn unmapped(reason: &str) -> String {
        format!("unmapped:{reason}")
    }

    /// The one rule that picks a read's disposition: `unmapped` is the
    /// first empty funnel stage of a read that produced no candidate,
    /// and `failed` says a candidate came back without an alignment.
    pub fn of(unmapped: Option<&str>, failed: bool) -> Cow<'static, str> {
        match unmapped {
            Some(reason) => self::unmapped(reason).into(),
            None if failed => FAILED_NO_ALIGNMENT.into(),
            None => ALIGNED.into(),
        }
    }
}

/// Funnel counts for one read, captured at candidate generation and
/// carried (shared) on every one of the read's task metas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadProvenance {
    /// Merged anchors collected for the read.
    pub anchors: u64,
    /// Chains built from those anchors.
    pub chains: u64,
    /// Candidate tasks emitted (after `max_per_read` capping).
    pub candidates: u64,
    /// Nanoseconds spent in candidate generation for this read.
    pub map_ns: u64,
}

/// One accepted candidate on a read's explain line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskExplain {
    /// Edit distance of the accepted alignment.
    pub edits: u64,
}

impl TaskExplain {
    /// The explain entry of one accepted candidate.
    pub fn new(aln: &Alignment) -> TaskExplain {
        TaskExplain {
            edits: aln.edit_distance as u64,
        }
    }

    fn to_json(self) -> String {
        format!("{{\"edits\":{}}}", self.edits)
    }
}

/// One read's fully-assembled provenance, ready to render.
#[derive(Debug, Clone)]
pub struct ExplainRecord<'a> {
    /// Read name (raw; rendering escapes it).
    pub read: &'a str,
    /// Final disposition (see [`disposition`]).
    pub disposition: &'a str,
    /// Name of the backend that aligned the read (`None` for reads
    /// that never reached a backend — unmapped reads — or when the
    /// caller does not track it).
    pub backend: Option<&'a str>,
    /// Funnel counts and candidate-generation timing.
    pub provenance: ReadProvenance,
    /// Per-accepted-candidate detail (empty for unmapped and failed
    /// reads).
    pub tasks: &'a [TaskExplain],
    /// Nanoseconds from pipeline entry to the read's last record
    /// (0 for reads that never reached the alignment stage).
    pub align_ns: u64,
}

impl ExplainRecord<'_> {
    /// The read's single `genasm-explain/v2` JSON line (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let backend = match self.backend {
            Some(name) => format!("\"{}\"", json::escape(name)),
            None => "null".to_string(),
        };
        let mut s = format!(
            "{{\"schema\":\"genasm-explain/v2\",\"read\":\"{}\",\"disposition\":\"{}\",\
             \"backend\":{},\
             \"anchors\":{},\"chains\":{},\"candidates\":{},\
             \"map_ns\":{},\"align_ns\":{},\"tasks\":[",
            json::escape(self.read),
            json::escape(self.disposition),
            backend,
            self.provenance.anchors,
            self.provenance.chains,
            self.provenance.candidates,
            self.provenance.map_ns,
            self.align_ns,
        );
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&t.to_json());
        }
        s.push_str("]}");
        s
    }
}

/// A shared line-oriented explain writer. One `emit` = one complete
/// line, atomic under the mutex, flushed immediately so readers (and
/// crashed runs) always see whole lines.
pub struct ExplainSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for ExplainSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplainSink").finish_non_exhaustive()
    }
}

impl ExplainSink {
    /// A sink writing JSON lines to `out`.
    pub fn new(out: Box<dyn Write + Send>) -> ExplainSink {
        ExplainSink {
            out: Mutex::new(out),
        }
    }

    /// Write one record as one line. Write errors are swallowed:
    /// explain output must never change the pipeline's outcome.
    pub fn emit(&self, rec: &ExplainRecord<'_>) {
        let mut line = rec.to_json();
        line.push('\n');
        let mut out = self.out.lock().expect("explain sink mutex poisoned");
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn record_renders_schema_funnel_and_tasks() {
        let with_edits = |edit_distance| Alignment {
            edit_distance,
            cigar: align_core::Cigar::new(),
        };
        let tasks = [
            TaskExplain::new(&with_edits(3)),
            TaskExplain::new(&with_edits(7)),
        ];
        let rec = ExplainRecord {
            read: "r\t1",
            disposition: &disposition::of(None, false),
            backend: Some("gpu-sim"),
            provenance: ReadProvenance {
                anchors: 5,
                chains: 2,
                candidates: 3,
                map_ns: 1_000,
            },
            tasks: &tasks,
            align_ns: 2_000,
        };
        let j = rec.to_json();
        assert!(j.starts_with("{\"schema\":\"genasm-explain/v2\""), "{j}");
        assert!(j.contains("\"read\":\"r\\t1\""), "{j}");
        assert!(j.contains("\"disposition\":\"aligned\""), "{j}");
        assert!(j.contains("\"backend\":\"gpu-sim\""), "{j}");
        assert!(
            j.contains("\"anchors\":5,\"chains\":2,\"candidates\":3,\"map_ns\":1000"),
            "{j}"
        );
        assert!(
            j.ends_with("\"tasks\":[{\"edits\":3},{\"edits\":7}]}"),
            "{j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
    }

    #[test]
    fn unmapped_disposition_strings_are_closed_taxonomy() {
        assert_eq!(disposition::unmapped("no_anchors"), "unmapped:no_anchors");
        assert_eq!(disposition::unmapped("no_chain"), "unmapped:no_chain");
        assert_eq!(
            disposition::unmapped("no_candidates"),
            "unmapped:no_candidates"
        );
        // The one choice: unmapped before failed before aligned.
        assert_eq!(
            disposition::of(Some("no_chain"), false),
            "unmapped:no_chain"
        );
        assert_eq!(
            disposition::of(None, true),
            disposition::FAILED_NO_ALIGNMENT
        );
        assert_eq!(disposition::of(None, false), disposition::ALIGNED);
    }

    #[test]
    fn sink_emits_one_flushed_line_per_record() {
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared::default();
        let sink = ExplainSink::new(Box::new(shared.clone()));
        let rec = ExplainRecord {
            read: "a",
            disposition: disposition::ALIGNED,
            backend: None,
            provenance: ReadProvenance::default(),
            tasks: &[],
            align_ns: 0,
        };
        sink.emit(&rec);
        sink.emit(&rec);
        let bytes = shared.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"backend\":null"), "{text}");
        assert!(text.ends_with("\"tasks\":[]}\n"), "{text}");
    }
}
