//! # genasm-telemetry
//!
//! The live observability layer shared by the pipeline, the resident
//! service, and the server: a lock-free registry of named counters,
//! gauges, and log-bucketed latency histograms, plus a structured
//! trace recorder that emits Chrome trace-event JSON (loadable in
//! Perfetto or `chrome://tracing`).
//!
//! Design constraints, in order:
//!
//! * **Recording is wait-free.** Every metric handle is an
//!   `Arc`-shared atomic; the registry's mutex is taken only at
//!   *registration* (get-or-create by name), never on the hot path.
//!   Stages clone their handles once and record with relaxed atomic
//!   ops thereafter.
//! * **Snapshot-on-demand.** [`Registry::snapshot`] (and every
//!   individual handle's getter) can be called at any instant of a
//!   live run. Counters and histogram buckets are individually
//!   monotonic, so two snapshots taken in order are comparable
//!   field-by-field ([`Snapshot::monotonic_le`]). Cross-field
//!   invariants are *eventual*: a snapshot races in-flight `record()`
//!   calls, so a histogram's `sum` may lag its buckets by values
//!   being recorded right now — but no field ever moves backwards and
//!   nothing is double-counted.
//! * **Telemetry is passive.** Nothing in this crate feeds back into
//!   scheduling or alignment; enabling or disabling it must never
//!   change a consumer's output bytes.
//!
//! The crate is dependency-free (std only) so every layer of the
//! workspace can use it.

#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod registry;
pub mod slow;
pub mod trace;

pub use hist::{bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, MetricValue, Registry, Snapshot, SnapshotEntry};
pub use slow::{SlowRead, SlowReads};
pub use trace::{TraceArg, TraceRecorder};
