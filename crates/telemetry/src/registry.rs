//! The metric registry: named handles, registered once, recorded
//! lock-free, snapshotted on demand.
//!
//! The registry's mutex guards only the name → handle map; every
//! returned handle is an `Arc` whose operations are relaxed atomics.
//! Registering the same name twice returns the *same* handle (so
//! independent stages can look up a metric without coordinating),
//! and registering a name as two different kinds panics — that is a
//! programming error, not a runtime condition.
//!
//! Metrics may carry one label pair (e.g.
//! `backend_queue_wait_ns{backend="cpu"}`) for per-backend series;
//! labeled series share their name's type.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::json;

/// A monotonic counter (wait-free `add`, relaxed).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (in-flight residency) or
/// track a high-water mark via [`Gauge::set_max`].
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Add `n`, returning the new value (for high-water tracking).
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Subtract `n`.
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Store `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise to `v` if larger (high-water mark).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    label: Option<(String, String)>,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The name → handle map. See the module docs for the contract.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<Key, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, label: Option<(&str, &str)>, make: Metric) -> Metric {
        let key = Key {
            name: name.to_string(),
            label: label.map(|(k, v)| (k.to_string(), v.to_string())),
        };
        let mut map = self.metrics.lock().expect("registry mutex poisoned");
        let existing = map.entry(key).or_insert(make);
        existing.clone()
    }

    /// Get or register a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, None, Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get or register a counter with one label pair.
    pub fn labeled_counter(&self, name: &str, key: &str, value: &str) -> Arc<Counter> {
        match self.get_or_insert(
            name,
            Some((key, value)),
            Metric::Counter(Arc::new(Counter::new())),
        ) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, None, Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get or register a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, None, Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get or register a histogram with one label pair.
    pub fn labeled_histogram(&self, name: &str, key: &str, value: &str) -> Arc<Histogram> {
        match self.get_or_insert(
            name,
            Some((key, value)),
            Metric::Histogram(Arc::new(Histogram::new())),
        ) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Point-in-time copy of every registered metric, sorted by name
    /// then label (deterministic rendering).
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.lock().expect("registry mutex poisoned");
        Snapshot {
            entries: map
                .iter()
                .map(|(k, m)| SnapshotEntry {
                    name: k.name.clone(),
                    label: k.label.clone(),
                    value: match m {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value (not monotonic).
    Gauge(u64),
    /// Histogram copy.
    Histogram(HistogramSnapshot),
}

/// One named entry of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Metric name.
    pub name: String,
    /// Optional single label pair.
    pub label: Option<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

impl SnapshotEntry {
    /// The exposition key: `name` or `name{key="value"}`.
    pub fn key(&self) -> String {
        match &self.label {
            None => self.name.clone(),
            Some((k, v)) => format!("{}{{{}=\"{}\"}}", self.name, k, v),
        }
    }
}

/// A point-in-time copy of a whole [`Registry`], ordered by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Sorted entries (name-major, label-minor).
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// The series of `name` whose label value is `label` (`None`: the
    /// unlabeled series).
    fn get(&self, name: &str, label: Option<&str>) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name && e.label.as_ref().map(|(_, v)| v.as_str()) == label)
            .map(|e| &e.value)
    }

    /// Value of the counter or gauge `name{…=label}`; 0 when no such
    /// series has been registered yet.
    pub fn scalar(&self, name: &str, label: Option<&str>) -> u64 {
        match self.get(name, label) {
            Some(MetricValue::Counter(v) | MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Copy of the histogram `name{…=label}`; empty when no such
    /// series has been registered yet.
    pub fn histogram(&self, name: &str, label: Option<&str>) -> HistogramSnapshot {
        match self.get(name, label) {
            Some(MetricValue::Histogram(h)) => h.clone(),
            _ => HistogramSnapshot::default(),
        }
    }

    /// Label values of the labeled series of `name`, sorted.
    pub fn labels<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.entries
            .iter()
            .filter(move |e| e.name == name)
            .filter_map(|e| e.label.as_ref().map(|(_, v)| v.as_str()))
    }

    /// Prometheus text exposition. `prefix` is prepended to every
    /// metric name (e.g. `genasm_`); counters get a `_total` suffix.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let mut last_typed: Option<String> = None;
        for e in &self.entries {
            let labels = match &e.label {
                None => String::new(),
                Some((k, v)) => format!("{k}=\"{}\"", json::escape(v)),
            };
            match &e.value {
                MetricValue::Counter(v) => {
                    let name = format!("{prefix}{}_total", e.name);
                    if last_typed.as_deref() != Some(name.as_str()) {
                        let _ = writeln!(out, "# TYPE {name} counter");
                        last_typed = Some(name.clone());
                    }
                    let braced = if labels.is_empty() {
                        String::new()
                    } else {
                        format!("{{{labels}}}")
                    };
                    let _ = writeln!(out, "{name}{braced} {v}");
                }
                MetricValue::Gauge(v) => {
                    let name = format!("{prefix}{}", e.name);
                    if last_typed.as_deref() != Some(name.as_str()) {
                        let _ = writeln!(out, "# TYPE {name} gauge");
                        last_typed = Some(name.clone());
                    }
                    let braced = if labels.is_empty() {
                        String::new()
                    } else {
                        format!("{{{labels}}}")
                    };
                    let _ = writeln!(out, "{name}{braced} {v}");
                }
                MetricValue::Histogram(h) => {
                    let name = format!("{prefix}{}", e.name);
                    if last_typed.as_deref() == Some(name.as_str()) {
                        // Another labeled series of the same histogram:
                        // skip the duplicate TYPE line.
                        let mut body = String::new();
                        h.write_prometheus(&mut body, &name, &labels);
                        let without_type = body
                            .lines()
                            .filter(|l| !l.starts_with("# TYPE"))
                            .collect::<Vec<_>>()
                            .join("\n");
                        let _ = writeln!(out, "{without_type}");
                    } else {
                        h.write_prometheus(&mut out, &name, &labels);
                        last_typed = Some(name);
                    }
                }
            }
        }
        out
    }

    /// Check that `self` could be an earlier snapshot than `later`:
    /// every counter and every histogram field is `≤` its counterpart
    /// (gauges are exempt — they move both ways). Returns the first
    /// offending metric key on failure.
    pub fn monotonic_le(&self, later: &Snapshot) -> Result<(), String> {
        for e in &self.entries {
            let key = e.key();
            let found = later
                .entries
                .iter()
                .find(|l| l.name == e.name && l.label == e.label);
            match (&e.value, found.map(|l| &l.value)) {
                (MetricValue::Gauge(_), _) => {}
                (_, None) => return Err(format!("{key}: missing from later snapshot")),
                (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                    if a > b {
                        return Err(format!("{key}: counter went backwards ({a} > {b})"));
                    }
                }
                (MetricValue::Histogram(a), Some(MetricValue::Histogram(b))) => {
                    if !a.monotonic_le(b) {
                        return Err(format!("{key}: histogram went backwards"));
                    }
                }
                (_, Some(other)) => {
                    return Err(format!("{key}: kind changed to {other:?}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        let a = r.counter("hits");
        let b = r.counter("hits");
        a.add(2);
        b.inc();
        assert_eq!(r.counter("hits").get(), 3);
        assert_eq!(r.snapshot().scalar("hits", None), 3);
    }

    #[test]
    fn labels_separate_series() {
        let r = Registry::new();
        r.labeled_counter("batches", "backend", "cpu").add(5);
        r.labeled_counter("batches", "backend", "gpu-sim").add(7);
        let snap = r.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.entries[0].key(), "batches{backend=\"cpu\"}");
        assert_eq!(
            snap.labels("batches").collect::<Vec<_>>(),
            ["cpu", "gpu-sim"]
        );
        assert_eq!(snap.scalar("batches", Some("gpu-sim")), 7);
        // Absent series read as zero: a label that is not there, and
        // the unlabeled series of a name that only has labeled ones.
        assert_eq!(snap.scalar("batches", Some("edlib")), 0);
        assert_eq!(snap.scalar("batches", None), 0);
        assert_eq!(snap.histogram("batches", Some("cpu")).count, 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshot_monotonicity_is_checked() {
        let r = Registry::new();
        let c = r.counter("n");
        let h = r.histogram("lat");
        let g = r.gauge("inflight");
        c.add(1);
        h.record(10);
        g.set(100);
        let a = r.snapshot();
        c.add(1);
        h.record(20);
        g.set(1); // gauges may fall without breaking monotonicity
        let b = r.snapshot();
        assert!(a.monotonic_le(&b).is_ok());
        let err = b.monotonic_le(&a).unwrap_err();
        assert!(err.contains("n") || err.contains("lat"), "{err}");
    }

    #[test]
    fn prometheus_exposition_renders_all_kinds() {
        let r = Registry::new();
        r.counter("reads_in").add(6);
        r.gauge("inflight_bases").set(42);
        r.histogram("read_latency_ns").record(1000);
        r.labeled_histogram("backend_execute_ns", "backend", "cpu")
            .record(5);
        let prom = r.snapshot().to_prometheus("genasm_");
        assert!(
            prom.contains("# TYPE genasm_reads_in_total counter"),
            "{prom}"
        );
        assert!(prom.contains("genasm_reads_in_total 6"), "{prom}");
        assert!(
            prom.contains("# TYPE genasm_inflight_bases gauge"),
            "{prom}"
        );
        assert!(
            prom.contains("genasm_read_latency_ns_bucket{le=\"+Inf\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("genasm_backend_execute_ns_count{backend=\"cpu\"} 1"),
            "{prom}"
        );
    }
}
