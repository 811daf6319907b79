//! A bounded ring of the slowest observed reads.
//!
//! Aggregate histograms answer "how slow is the tail?"; an operator
//! watching a live run also wants to know *which* reads are in it.
//! [`SlowReads`] keeps the `capacity` slowest observations seen so far
//! — name, latency, and final disposition — under one short mutex per
//! observation. Observations below the current floor are rejected with
//! a single lock-free-ish comparison against a cached atomic floor, so
//! the common (fast) read never contends once the ring is full.
//!
//! Like every other metric in this crate, the ring is strictly
//! passive: it is fed by the sink after a read's output is already
//! decided, and reading it never perturbs recording.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json;

/// One slow-read entry: who, how slow, and how the read ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowRead {
    /// Read name (raw; JSON rendering escapes it).
    pub name: String,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: u64,
    /// Final disposition string (`aligned`, `unmapped:no_anchors`,
    /// `failed:no_alignment`, …).
    pub disposition: String,
}

/// The `capacity` slowest reads observed so far, slowest first.
#[derive(Debug)]
pub struct SlowReads {
    /// Entries sorted by descending latency (ties keep insertion
    /// order); length ≤ `capacity`.
    entries: Mutex<Vec<SlowRead>>,
    /// Latency of the fastest retained entry once the ring is full;
    /// 0 while it still has room. Cached so cheap observations skip
    /// the mutex entirely.
    floor: AtomicU64,
    capacity: usize,
}

impl SlowReads {
    /// An empty ring retaining the `capacity` slowest reads.
    /// `capacity` is clamped to at least 1.
    pub fn new(capacity: usize) -> SlowReads {
        SlowReads {
            entries: Mutex::new(Vec::new()),
            floor: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer one completed read. Retained only if it is among the
    /// slowest seen so far.
    pub fn observe(&self, name: &str, latency_ns: u64, disposition: &str) {
        // Fast path: the ring is full and this read is faster than
        // everything in it. `floor` only rises, so a stale load can
        // merely let a borderline read take the mutex and be rejected
        // there — never drop one that belongs in the ring.
        if latency_ns < self.floor.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = self.entries.lock().expect("slow-read mutex poisoned");
        let at = entries
            .partition_point(|e: &SlowRead| e.latency_ns >= latency_ns)
            .min(entries.len());
        if at >= self.capacity {
            return;
        }
        entries.insert(
            at,
            SlowRead {
                name: name.to_string(),
                latency_ns,
                disposition: disposition.to_string(),
            },
        );
        entries.truncate(self.capacity);
        if entries.len() == self.capacity {
            self.floor.store(
                entries.last().map_or(0, |e| e.latency_ns),
                Ordering::Relaxed,
            );
        }
    }

    /// Copy of the current entries, slowest first.
    pub fn snapshot(&self) -> Vec<SlowRead> {
        self.entries
            .lock()
            .expect("slow-read mutex poisoned")
            .clone()
    }
}

/// JSON array of `entries` (a [`SlowReads::snapshot`]), in their order:
/// `[{"read":…,"latency_ns":…,"disposition":…},…]`.
pub fn to_json(entries: &[SlowRead]) -> String {
    let mut s = String::from("[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"read\":\"{}\",\"latency_ns\":{},\"disposition\":\"{}\"}}",
            json::escape(&e.name),
            e.latency_ns,
            json::escape(&e.disposition)
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_slowest_in_order() {
        let ring = SlowReads::new(3);
        ring.observe("a", 10, "aligned");
        ring.observe("b", 50, "aligned");
        ring.observe("c", 30, "failed:no_alignment");
        ring.observe("d", 5, "aligned"); // evicted immediately: ring full? no — room check
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].name, "b");
        assert_eq!(snap[1].name, "c");
        assert_eq!(snap[2].name, "a");
        // Now full: a faster read must not displace anything...
        ring.observe("e", 7, "aligned");
        assert_eq!(ring.snapshot().len(), 3);
        assert_eq!(ring.snapshot()[2].name, "a");
        // ...but a slower one pushes out the floor entry.
        ring.observe("f", 40, "unmapped:no_anchors");
        let snap = ring.snapshot();
        assert_eq!(
            snap.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["b", "f", "c"]
        );
        assert_eq!(snap[1].disposition, "unmapped:no_anchors");
    }

    #[test]
    fn capacity_is_clamped_and_respected() {
        let ring = SlowReads::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.observe("x", 1, "aligned");
        ring.observe("y", 2, "aligned");
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "y");
    }

    #[test]
    fn json_escapes_hostile_names() {
        let ring = SlowReads::new(2);
        ring.observe("tab\tname\"quote", 9, "aligned");
        let j = to_json(&ring.snapshot());
        assert!(j.starts_with('[') && j.ends_with(']'), "{j}");
        assert!(j.contains("tab\\tname\\\"quote"), "{j}");
        assert!(j.contains("\"latency_ns\":9"), "{j}");
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn equal_latencies_keep_insertion_order() {
        let ring = SlowReads::new(4);
        ring.observe("first", 10, "aligned");
        ring.observe("second", 10, "aligned");
        let snap = ring.snapshot();
        assert_eq!(snap[0].name, "first");
        assert_eq!(snap[1].name, "second");
    }
}
