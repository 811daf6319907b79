//! A lane's building batch: coalesces tasks into size-targeted batches.
//! Each backend's lane in `dispatch` keeps one, and the push that
//! reaches the target cuts the batch.
//!
//! Batches are sized by **total aligned bases** (query + target), not
//! task count — alignment cost scales with bases, so base-targeted
//! batches keep backend launches evenly loaded whether the input is
//! many short candidates or few long ones. A batch is flushed as soon
//! as it reaches the target; a single task larger than the target
//! travels as a batch of one. Task order is preserved: batch `n`
//! contains a contiguous run of tasks, and concatenating batches
//! `0..n` reconstructs the input stream exactly.

use std::time::Instant;

use align_core::AlignTask;

/// Metadata carried alongside each task so the sink can reassemble
/// per-read output without holding whole reads.
#[derive(Debug, Clone)]
pub struct TaskMeta {
    /// 0-based index of the read in the input stream. In the
    /// long-lived service this is the *global* submission order across
    /// sessions (each session's reads keep their relative order).
    pub read_seq: u64,
    /// Owning session for output routing (0 for the one-shot
    /// pipeline, which has a single implicit session).
    pub session: u64,
    /// Read name (shared across the read's tasks).
    pub qname: std::sync::Arc<str>,
    /// Read length in bases.
    pub qlen: usize,
    /// How many candidate tasks this read generated in total.
    pub read_tasks: u32,
    /// Name of the contig the task's window was cut from (shared with
    /// the index's contig table).
    pub tname: std::sync::Arc<str>,
    /// Length of that contig in bases (PAF column 7).
    pub tsize: usize,
    /// Window start on its contig (contig-local coordinates).
    pub tstart: usize,
    /// Window length on the contig.
    pub tlen: usize,
    /// Strand the task's query was oriented to (for PAF output).
    pub reverse: bool,
    /// Funnel counts captured at candidate generation, shared across
    /// the read's tasks (the sink's half of the `--explain` record).
    pub provenance: std::sync::Arc<crate::explain::ReadProvenance>,
    /// When the owning read entered the pipeline (read-latency
    /// telemetry origin; identical across a read's tasks).
    pub submitted_at: Instant,
}

/// A scheduled batch: a contiguous run of tasks plus their metadata.
/// Its number, the sink's reorder key, is given at the cut, across
/// every backend's builder.
#[derive(Debug)]
pub struct Batch {
    /// The alignment tasks, contiguous for backend dispatch.
    pub tasks: Vec<AlignTask>,
    /// `metas[i]` describes `tasks[i]`.
    pub metas: Vec<TaskMeta>,
    /// Total bases across `tasks`.
    pub bases: usize,
    /// When the first task entered the builder (batch-build telemetry).
    pub build_started: Instant,
    /// When the batch was cut — the origin for per-backend queue-wait
    /// telemetry.
    pub ready_at: Instant,
}

/// Accumulates tasks and emits batches at the base target.
#[derive(Debug)]
pub struct BatchBuilder {
    target_bases: usize,
    tasks: Vec<AlignTask>,
    metas: Vec<TaskMeta>,
    bases: usize,
    started: Option<Instant>,
}

impl BatchBuilder {
    /// A builder targeting `target_bases` per batch (at least 1).
    pub fn new(target_bases: usize) -> BatchBuilder {
        BatchBuilder {
            target_bases: target_bases.max(1),
            tasks: Vec::new(),
            metas: Vec::new(),
            bases: 0,
            started: None,
        }
    }

    /// Add one task; returns the finished batch if this push reached
    /// the target.
    pub fn push(&mut self, task: AlignTask, meta: TaskMeta) -> Option<Batch> {
        self.started.get_or_insert_with(Instant::now);
        self.bases += task.bases();
        self.tasks.push(task);
        self.metas.push(meta);
        if self.bases >= self.target_bases {
            self.take()
        } else {
            None
        }
    }

    /// True when nothing is accumulated.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// When the first task of the building batch arrived; `None` while
    /// nothing is accumulated.
    pub fn started(&self) -> Option<Instant> {
        self.started
    }

    /// Flush whatever is accumulated (end of stream).
    pub fn take(&mut self) -> Option<Batch> {
        if self.tasks.is_empty() {
            return None;
        }
        let now = Instant::now();
        Some(Batch {
            tasks: std::mem::take(&mut self.tasks),
            metas: std::mem::take(&mut self.metas),
            bases: std::mem::replace(&mut self.bases, 0),
            build_started: self.started.take().unwrap_or(now),
            ready_at: now,
        })
    }
}

impl crate::dispatch::Build for BatchBuilder {
    type Task = (AlignTask, TaskMeta);
    type Batch = Batch;

    fn push(&mut self, (task, meta): (AlignTask, TaskMeta)) -> Option<Batch> {
        BatchBuilder::push(self, task, meta)
    }

    fn is_empty(&self) -> bool {
        BatchBuilder::is_empty(self)
    }

    fn take(&mut self) -> Option<Batch> {
        BatchBuilder::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align_core::Seq;
    use std::sync::Arc;

    fn task(n: usize) -> (AlignTask, TaskMeta) {
        let s: Seq = std::iter::repeat_n(align_core::Base::A, n).collect();
        (
            AlignTask::new(0, 0, s.clone(), s),
            TaskMeta {
                read_seq: 0,
                session: 0,
                qname: Arc::from("r"),
                qlen: n,
                read_tasks: 1,
                tname: Arc::from("t"),
                tsize: n,
                tstart: 0,
                tlen: n,
                reverse: false,
                provenance: Arc::new(crate::explain::ReadProvenance::default()),
                submitted_at: Instant::now(),
            },
        )
    }

    #[test]
    fn flushes_at_base_target() {
        let mut b = BatchBuilder::new(100);
        let (t, m) = task(20); // 40 bases
        assert!(b.push(t, m).is_none());
        let (t, m) = task(20);
        assert!(b.push(t, m).is_none());
        let (t, m) = task(20); // 120 bases total -> flush
        let batch = b.push(t, m).unwrap();
        assert_eq!(batch.tasks.len(), 3);
        assert_eq!(batch.bases, 120);
        assert!(b.take().is_none(), "builder was drained");
    }

    #[test]
    fn oversized_task_is_a_batch_of_one() {
        let mut b = BatchBuilder::new(10);
        let (t, m) = task(500);
        let batch = b.push(t, m).unwrap();
        assert_eq!(batch.tasks.len(), 1);
        assert_eq!(batch.bases, 1000);
    }

    #[test]
    fn sequences_are_consecutive_and_order_preserved() {
        let mut b = BatchBuilder::new(1); // every task its own batch
        for i in 1..=5 {
            let (t, m) = task(i);
            let batch = b.push(t, m).unwrap();
            assert_eq!(batch.tasks.len(), 1);
            assert_eq!(batch.tasks[0].query.len(), i);
        }
    }

    #[test]
    fn trailing_remainder_flushes_on_take() {
        let mut b = BatchBuilder::new(1_000_000);
        let (t, m) = task(10);
        assert!(b.push(t, m).is_none());
        assert!(b.started().is_some());
        let batch = b.take().unwrap();
        assert_eq!(batch.tasks.len(), 1);
        assert!(b.started().is_none(), "the next batch has not started");
    }
}
