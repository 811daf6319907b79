//! Bounded MPMC queues with weighted capacity and backpressure.
//!
//! The task queue, between the sessions and the batch scheduler, is
//! one of these. The capacity is a *weight* budget, not an item count:
//! the task queue weighs items by their total bases so the
//! resident-memory bound is expressed in the same unit the batch
//! scheduler targets. (Past the scheduler, batches travel through
//! `dispatch`, whose lanes and window count batches.)
//!
//! Backpressure semantics: [`BoundedQueue::push`] blocks while the
//! queue is at capacity, so a slow downstream stage stalls the upstream
//! stage instead of letting it buffer unboundedly. A single oversized
//! item (weight > capacity) is still admitted when the queue is empty
//! — the pipeline must make progress on tasks larger than the
//! configured batch target, it just cannot hold more than one of them.
//! A weight-0 item is a *marker*: it takes no capacity and is not
//! counted in [`BoundedQueue::total_pushed`], but it keeps its FIFO
//! place (and so can still wait behind an oversized item).
//!
//! Closing: [`BoundedQueue::close`] wakes all blocked producers and
//! consumers. Consumers drain the remaining items and then see `None`;
//! producers get [`PushError`] (used to unwind the pipeline on
//! error without deadlocking).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Push failed because the queue was closed (receiver gone or the
/// pipeline is aborting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushError;

/// Outcome of [`BoundedQueue::pop_timeout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PopTimeout<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue stayed empty (and open) for the whole timeout.
    TimedOut,
    /// The queue is closed and drained.
    Closed,
}

struct State<T> {
    items: VecDeque<(T, usize)>,
    /// Sum of the weights of the queued items.
    used: usize,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Total items of nonzero weight ever pushed.
    pushed: AtomicU64,
    /// Highest observed `used` weight (backpressure telemetry).
    high_water: AtomicU64,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting up to `capacity` total weight (at least 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                used: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            pushed: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// The weight budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Block until the item fits (or the queue is empty — an oversized
    /// item is admitted alone), then enqueue it.
    pub fn push(&self, item: T, weight: usize) -> Result<(), PushError> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(PushError);
            }
            if st.used == 0 || st.used + weight <= self.capacity {
                break;
            }
            st = self.not_full.wait(st).unwrap();
        }
        st.used += weight;
        st.items.push_back((item, weight));
        if weight > 0 {
            self.pushed.fetch_add(1, Ordering::Relaxed);
        }
        self.high_water.fetch_max(st.used as u64, Ordering::Relaxed);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Take the oldest item, waiting while the queue is empty and
    /// still open, but give up after `timeout`. The long-lived
    /// service's scheduler uses the timeout to flush partial batches
    /// instead of letting them linger while traffic is idle.
    pub fn pop_timeout(&self, timeout: std::time::Duration) -> PopTimeout<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some((item, weight)) = st.items.pop_front() {
                st.used -= weight;
                drop(st);
                self.not_full.notify_all();
                return PopTimeout::Item(item);
            }
            if st.closed {
                return PopTimeout::Closed;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return PopTimeout::TimedOut;
            }
            let (guard, _) = self.not_empty.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }

    /// Close the queue: producers fail fast, consumers drain then stop.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Total items ever pushed, markers (weight 0) not included.
    pub fn total_pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Highest weight ever resident at once.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Wait for an item; `None` once the queue is closed and drained.
    fn pop<T>(q: &BoundedQueue<T>) -> Option<T> {
        match q.pop_timeout(std::time::Duration::from_secs(60)) {
            PopTimeout::Item(item) => Some(item),
            PopTimeout::Closed => None,
            PopTimeout::TimedOut => panic!("nothing came in 60 s"),
        }
    }

    #[test]
    fn fifo_order_and_accounting() {
        let q = BoundedQueue::new(100);
        q.push(1, 10).unwrap();
        q.push(2, 10).unwrap();
        assert_eq!(pop(&q), Some(1));
        assert_eq!(pop(&q), Some(2));
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.high_water(), 20);
    }

    #[test]
    fn a_marker_keeps_its_place_but_is_not_counted() {
        let q = BoundedQueue::new(100);
        q.push(1, 10).unwrap();
        q.push(0, 0).unwrap();
        q.push(2, 10).unwrap();
        assert_eq!(pop(&q), Some(1));
        assert_eq!(pop(&q), Some(0));
        assert_eq!(pop(&q), Some(2));
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.high_water(), 20);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(10);
        q.push(7, 1).unwrap();
        q.close();
        assert_eq!(pop(&q), Some(7));
        assert_eq!(pop(&q), None);
        assert_eq!(q.push(8, 1), Err(PushError));
    }

    #[test]
    fn oversized_item_admitted_alone() {
        let q = BoundedQueue::new(4);
        q.push("big", 100).unwrap(); // empty queue: admitted
        let q = Arc::new(q);
        let q2 = Arc::clone(&q);
        // A second push must block until the big item is popped.
        let h = std::thread::spawn(move || q2.push("next", 1).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(pop(&q), Some("big"));
        h.join().unwrap();
        assert_eq!(pop(&q), Some("next"));
    }

    #[test]
    fn backpressure_blocks_producer() {
        let q = Arc::new(BoundedQueue::new(2));
        q.push(0u32, 1).unwrap();
        q.push(1u32, 1).unwrap();
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            q2.push(2u32, 1).unwrap(); // blocks until a pop frees space
            q2.high_water()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(pop(&q), Some(0));
        let hw = h.join().unwrap();
        assert!(hw <= 2, "capacity was never exceeded, saw {hw}");
        assert_eq!(pop(&q), Some(1));
        assert_eq!(pop(&q), Some(2));
    }

    #[test]
    fn pop_timeout_distinguishes_empty_from_closed() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.push(9, 1).unwrap();
        assert_eq!(
            q.pop_timeout(std::time::Duration::from_millis(5)),
            PopTimeout::Item(9)
        );
        assert_eq!(
            q.pop_timeout(std::time::Duration::from_millis(5)),
            PopTimeout::TimedOut
        );
        q.close();
        assert_eq!(
            q.pop_timeout(std::time::Duration::from_millis(5)),
            PopTimeout::Closed
        );
    }

    #[test]
    fn pop_timeout_wakes_on_push() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_timeout(std::time::Duration::from_secs(10)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(3, 1).unwrap();
        assert_eq!(h.join().unwrap(), PopTimeout::Item(3));
    }

    #[test]
    fn producers_unblocked_by_close() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32, 1).unwrap();
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.push(1u32, 1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), Err(PushError));
    }
}
