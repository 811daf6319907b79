//! Reorder buffer: restores dispatch order at the sink.
//!
//! With more than one dispatch worker (or a backend that completes
//! batches out of order) results arrive permuted. The sink pushes every
//! completed batch here; the buffer releases batches strictly in their
//! scheduler-assigned sequence order, which makes pipeline output
//! deterministic regardless of batch size, queue depth, or thread
//! count.
//!
//! Capacity is bounded by the dispatch stage, not here: a dispatcher
//! starts a batch only within `batch_queue_depth + result_queue_depth +
//! in_flight` batches of the oldest one not yet released (`in_flight`
//! being the largest `Backend::in_flight` of the backend table, the
//! threads of its widest dispatch lane), so the buffer never holds more
//! than that many out-of-order entries, however long one batch
//! straggles.

use std::collections::BTreeMap;

/// In-order release of sequence-numbered items.
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    next: u64,
    pending: BTreeMap<u64, T>,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> ReorderBuffer<T> {
        ReorderBuffer::new()
    }
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer expecting sequence 0 first.
    pub fn new() -> ReorderBuffer<T> {
        ReorderBuffer {
            next: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Insert item `seq` and drain everything now contiguous from the
    /// front, in order.
    pub fn push(&mut self, seq: u64, item: T) -> Vec<T> {
        debug_assert!(
            seq >= self.next && !self.pending.contains_key(&seq),
            "duplicate or stale sequence {seq}"
        );
        self.pending.insert(seq, item);
        let mut ready = Vec::new();
        while let Some(item) = self.pending.remove(&self.next) {
            ready.push(item);
            self.next += 1;
        }
        ready
    }

    /// Items buffered waiting for an earlier sequence.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_passes_through() {
        let mut rb = ReorderBuffer::new();
        assert_eq!(rb.push(0, 'a'), vec!['a']);
        assert_eq!(rb.push(1, 'b'), vec!['b']);
        assert!(rb.is_empty());
    }

    #[test]
    fn out_of_order_is_held_then_released() {
        let mut rb = ReorderBuffer::new();
        assert!(rb.push(2, 'c').is_empty());
        assert!(rb.push(1, 'b').is_empty());
        assert_eq!(rb.pending(), 2);
        assert_eq!(rb.push(0, 'a'), vec!['a', 'b', 'c']);
        assert!(rb.is_empty());
    }

    #[test]
    fn interleaved_gaps() {
        let mut rb = ReorderBuffer::new();
        assert!(rb.push(1, 1).is_empty());
        assert_eq!(rb.push(0, 0), vec![0, 1]);
        assert!(rb.push(3, 3).is_empty());
        assert_eq!(rb.push(2, 2), vec![2, 3]);
    }
}
