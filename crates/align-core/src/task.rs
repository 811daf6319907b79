//! Batch containers for alignment workloads.
//!
//! The mapper produces *candidate locations*: (read slice, reference
//! slice) pairs that the aligners then verify. The paper's evaluation
//! aligns 138,929 such pairs; [`TaskBatch`] is the unit that flows into
//! the CPU thread pool and the GPU launch.

use crate::seq::Seq;

/// One candidate alignment task: a query (read or read window) paired
/// with the target slice it should be aligned to, globally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignTask {
    /// Identifier of the read this task came from.
    pub read_id: u32,
    /// Index of the reference contig the target slice was cut from
    /// (for reporting only; 0 for single-contig references).
    pub contig: u32,
    /// Start of the target slice on its contig, in contig-local
    /// coordinates (for reporting only).
    pub ref_pos: usize,
    /// The query sequence.
    pub query: Seq,
    /// The target sequence.
    pub target: Seq,
    /// True when `query` is the reverse complement of the original
    /// read (the mapper orients queries to the mapping strand; this
    /// records which strand that was, for reporting only).
    pub reverse: bool,
    /// Kept for the frozen `genasm-bench`: nobody sets it, every engine
    /// ignores it.
    pub max_edits: Option<u32>,
}

impl AlignTask {
    /// Construct a forward-strand task on contig 0.
    pub fn new(read_id: u32, ref_pos: usize, query: Seq, target: Seq) -> AlignTask {
        AlignTask {
            read_id,
            contig: 0,
            ref_pos,
            query,
            target,
            reverse: false,
            max_edits: None,
        }
    }

    /// Record which strand the query was oriented to.
    pub fn oriented(mut self, reverse: bool) -> AlignTask {
        self.reverse = reverse;
        self
    }

    /// Record which contig the target slice belongs to.
    pub fn in_contig(mut self, contig: u32) -> AlignTask {
        self.contig = contig;
        self
    }

    /// Total number of bases involved (used for throughput accounting).
    pub fn bases(&self) -> usize {
        self.query.len() + self.target.len()
    }
}

/// A batch of alignment tasks plus aggregate statistics.
#[derive(Debug, Clone, Default)]
pub struct TaskBatch {
    /// The tasks, in submission order.
    pub tasks: Vec<AlignTask>,
}

impl TaskBatch {
    /// An empty batch.
    pub fn new() -> TaskBatch {
        TaskBatch::default()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks are queued.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Add a task.
    pub fn push(&mut self, task: AlignTask) {
        self.tasks.push(task);
    }

    /// Total bases across all tasks.
    pub fn total_bases(&self) -> usize {
        self.tasks.iter().map(AlignTask::bases).sum()
    }

    /// Total query bases (the throughput denominator: aligned
    /// read-bases per second).
    pub fn total_query_bases(&self) -> usize {
        self.tasks.iter().map(|t| t.query.len()).sum()
    }

    /// Mean query length, or 0 for an empty batch.
    pub fn mean_query_len(&self) -> f64 {
        if self.tasks.is_empty() {
            return 0.0;
        }
        self.total_query_bases() as f64 / self.tasks.len() as f64
    }

    /// Split into chunks of at most `chunk` tasks (GPU launch sizing).
    pub fn chunks(&self, chunk: usize) -> impl Iterator<Item = &[AlignTask]> {
        self.tasks.chunks(chunk.max(1))
    }
}

impl FromIterator<AlignTask> for TaskBatch {
    fn from_iter<T: IntoIterator<Item = AlignTask>>(iter: T) -> TaskBatch {
        TaskBatch {
            tasks: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Seq {
        Seq::from_ascii(s.as_bytes()).unwrap()
    }

    fn task(q: &str, t: &str) -> AlignTask {
        AlignTask::new(0, 0, seq(q), seq(t))
    }

    #[test]
    fn batch_accounting() {
        let mut b = TaskBatch::new();
        assert!(b.is_empty());
        b.push(task("ACGT", "ACG"));
        b.push(task("AC", "ACGT"));
        assert_eq!(b.len(), 2);
        assert_eq!(b.total_bases(), 13);
        assert_eq!(b.total_query_bases(), 6);
        assert!((b.mean_query_len() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_mean_is_zero() {
        assert_eq!(TaskBatch::new().mean_query_len(), 0.0);
    }

    #[test]
    fn chunking() {
        let b: TaskBatch = (0..10)
            .map(|i| AlignTask::new(i, 0, seq("A"), seq("A")))
            .collect();
        let chunks: Vec<_> = b.chunks(4).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 4);
        assert_eq!(chunks[2].len(), 2);
        // chunk size 0 is clamped to 1 rather than panicking
        assert_eq!(b.chunks(0).count(), 10);
    }
}
