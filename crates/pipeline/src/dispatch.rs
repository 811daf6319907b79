//! The batch path from the scheduler's cut to the sink's release as one
//! value with no lock, condvar or thread inside, [`Dispatch`]: each
//! lane's batches not yet started, the release point, the reorder
//! buffer, and whether the scheduler has closed. The service keeps it
//! under one mutex and wakes a role's sleepers where a method's doc
//! says so; a unit test walks every schedule of these calls.
//!
//! Two bounds stay apart: a lane holds `depth` batches ([`Dispatch::cut`]),
//! and batch `seq` starts only while `seq < released + width`
//! ([`Dispatch::next`]). One window at the cut with no lane depth let a
//! lane queue `width` batches: `clr-long` latency p50 +35%.

use std::collections::{BTreeMap, VecDeque};

use crate::metrics::QueueMetrics;

/// What [`Dispatch::next`] tells a lane thread.
#[cfg_attr(test, derive(Debug, PartialEq, Eq))]
pub(crate) enum Next<B> {
    /// Run the lane's oldest batch.
    Run(B),
    /// Sleep until woken, then ask again.
    Wait,
    /// Closed, and the lane is empty: end the thread.
    Exit,
}

#[cfg_attr(test, derive(Debug, Clone))]
struct Lane<B> {
    threads: usize,
    started: bool,
    /// Cut, not yet started, oldest first, with their numbers.
    queued: VecDeque<(u64, B)>,
    high_water: usize,
}

/// See the module docs. `B` is a cut batch, `R` a finished one;
/// batches are numbered in cut order from 0.
#[cfg_attr(test, derive(Debug, Clone))]
pub(crate) struct Dispatch<B, R> {
    lanes: Vec<Lane<B>>,
    depth: usize,
    width: u64,
    cut: u64,
    /// The oldest batch not yet released.
    released: u64,
    /// Finished batches the sink has not taken: the reorder buffer.
    done: BTreeMap<u64, R>,
    closed: bool,
    finished: u64,
    done_high_water: usize,
}

impl<B, R> Dispatch<B, R> {
    /// Lanes of `threads` threads each, `depth` batches per lane, and a
    /// release window `width` batches wide.
    pub(crate) fn new(threads: impl IntoIterator<Item = usize>, depth: usize, width: u64) -> Self {
        assert!(depth > 0 && width > 0, "a lane or window of 0 never moves");
        Dispatch {
            lanes: (threads.into_iter())
                .map(|threads| Lane {
                    threads,
                    started: false,
                    queued: VecDeque::new(),
                    high_water: 0,
                })
                .collect(),
            depth,
            width,
            cut: 0,
            released: 0,
            done: BTreeMap::new(),
            closed: false,
            finished: 0,
            done_high_water: 0,
        }
    }

    /// The scheduler cuts `batch` into `lane`. While the lane holds
    /// `depth` batches it comes back and nothing changes. `Ok(true)`:
    /// the lane's first batch, so start its threads. Wake the lanes.
    pub(crate) fn cut(&mut self, lane: usize, batch: B) -> Result<bool, B> {
        let lane = &mut self.lanes[lane];
        if lane.queued.len() >= self.depth {
            return Err(batch);
        }
        lane.queued.push_back((self.cut, batch));
        lane.high_water = lane.high_water.max(lane.queued.len());
        self.cut += 1;
        Ok(!std::mem::replace(&mut lane.started, true))
    }

    /// A thread of `lane` asks for the lane's oldest batch, which it
    /// gets once it is inside the window. `Run` wakes the scheduler.
    pub(crate) fn next(&mut self, lane: usize) -> Next<B> {
        let (open, queued) = (self.released + self.width, &mut self.lanes[lane].queued);
        match queued.front() {
            Some(&(seq, _)) if seq < open => Next::Run(queued.pop_front().expect("front").1),
            None if self.closed => Next::Exit,
            _ => Next::Wait,
        }
    }

    /// Batch `seq` finished with `result`. Wake the sink.
    pub(crate) fn finish(&mut self, seq: u64, result: R) {
        debug_assert!((self.released..self.cut).contains(&seq) && !self.done.contains_key(&seq));
        self.done.insert(seq, result);
        self.finished += 1;
        self.done_high_water = self.done_high_water.max(self.done.len());
    }

    /// The sink takes the oldest unreleased batch once it has finished,
    /// and delivers it outside the lock. Wakes nobody.
    pub(crate) fn ready(&mut self) -> Option<R> {
        self.done.remove(&self.released)
    }

    /// The sink delivered the batch it took. Wake the lanes.
    pub(crate) fn release(&mut self) {
        self.released += 1;
    }

    /// The scheduler cut its last batch. Wake the lanes and the sink.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// Closed, and every batch cut is released: the sink ends.
    pub(crate) fn drained(&self) -> bool {
        self.closed && self.released == self.cut
    }

    /// The threads of the lanes that have started.
    pub(crate) fn started_threads(&self) -> usize {
        let started = self.lanes.iter().filter(|lane| lane.started);
        started.map(|lane| lane.threads).sum()
    }

    /// The lanes' batches not yet started (pushed = cut, high water
    /// summed), and the finished ones the sink has not taken.
    pub(crate) fn queues(&self) -> (QueueMetrics, QueueMetrics) {
        let lanes = QueueMetrics {
            capacity: self.lanes.len() * self.depth,
            pushed: self.cut,
            high_water: self.lanes.iter().map(|lane| lane.high_water as u64).sum(),
        };
        let done = QueueMetrics {
            capacity: self.width as usize,
            pushed: self.finished,
            high_water: self.done_high_water as u64,
        };
        (lanes, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::rc::Rc;

    use std::hash::{Hash, Hasher};

    /// Two paths are the same state when every step reads the same from
    /// them: the telemetry (high waters, batches finished) and what is
    /// fixed for a run (threads, depth, width) do not count. Counting
    /// the telemetry would double the states the proof walks.
    impl<B: Eq, R: Eq> PartialEq for Dispatch<B, R> {
        fn eq(&self, o: &Self) -> bool {
            let same =
                |(a, b): (&Lane<B>, &Lane<B>)| (a.started, &a.queued) == (b.started, &b.queued);
            self.lanes.iter().zip(&o.lanes).all(same)
                && (self.cut, self.released, &self.done, self.closed)
                    == (o.cut, o.released, &o.done, o.closed)
        }
    }

    impl<B: Eq, R: Eq> Eq for Dispatch<B, R> {}

    impl<B: Hash, R: Hash> Hash for Dispatch<B, R> {
        fn hash<H: Hasher>(&self, h: &mut H) {
            for lane in &self.lanes {
                (lane.started, &lane.queued).hash(h);
            }
            (self.cut, self.released, &self.done, self.closed).hash(h);
        }
    }

    /// `n` batches cut into one lane and started, in a window as wide.
    fn running(n: u64) -> Dispatch<u64, char> {
        let mut d = Dispatch::new([1], n as usize, n);
        for seq in 0..n {
            assert_eq!(d.cut(0, seq), Ok(seq == 0));
        }
        for seq in 0..n {
            assert_eq!(d.next(0), Next::Run(seq));
        }
        d
    }

    /// Everything the sink can take now, releasing each.
    fn take(d: &mut Dispatch<u64, char>) -> Vec<char> {
        let mut out = Vec::new();
        while let Some(r) = d.ready() {
            out.push(r);
            d.release();
        }
        out
    }

    #[test]
    fn in_order_passes_through() {
        let mut d = running(2);
        d.finish(0, 'a');
        assert_eq!(take(&mut d), ['a']);
        d.finish(1, 'b');
        assert_eq!(take(&mut d), ['b']);
        assert_eq!(d.queues().1.high_water, 1);
        d.close();
        assert!(d.drained());
    }

    #[test]
    fn out_of_order_is_held_then_released() {
        let mut d = running(3);
        d.finish(2, 'c');
        d.finish(1, 'b');
        assert!(take(&mut d).is_empty());
        assert_eq!(d.done.len(), 2);
        d.finish(0, 'a');
        assert_eq!(take(&mut d), ['a', 'b', 'c']);
        assert!(d.done.is_empty());
    }

    #[test]
    fn interleaved_gaps() {
        let mut d = running(4);
        d.finish(1, 'b');
        assert!(take(&mut d).is_empty());
        d.finish(0, 'a');
        assert_eq!(take(&mut d), ['a', 'b']);
        d.finish(3, 'd');
        assert!(take(&mut d).is_empty());
        d.finish(2, 'c');
        assert_eq!(take(&mut d), ['c', 'd']);
    }

    #[test]
    fn a_refused_cut_hands_back_the_batch_and_changes_nothing() {
        let mut d: Dispatch<u64, char> = Dispatch::new([2, 1], 1, 3);
        assert_eq!(d.cut(1, 7), Ok(true));
        let before = d.clone();
        assert_eq!(d.cut(1, 8), Err(8));
        assert_eq!(d, before);
        assert_eq!(d.next(1), Next::Run(7));
        assert_eq!(d.cut(1, 8), Ok(false), "room once the lane started one");
    }

    #[test]
    fn a_path_that_cut_nothing_is_drained_at_close() {
        let mut d: Dispatch<u64, char> = Dispatch::new([2, 1], 1, 3);
        assert!(!d.drained());
        assert_eq!(d.next(0), Next::Wait);
        d.close();
        assert!(d.drained());
        assert_eq!(d.next(0), Next::Exit);
        assert_eq!(d.started_threads(), 0);
    }

    #[test]
    fn started_threads_counts_only_started_lanes() {
        let mut d: Dispatch<u64, char> = Dispatch::new([2, 1, 2], 2, 5);
        assert_eq!(d.started_threads(), 0);
        assert_eq!(d.cut(1, 0), Ok(true));
        assert_eq!(d.started_threads(), 1);
        assert_eq!(d.cut(1, 1), Ok(false));
        assert_eq!(d.started_threads(), 1);
        assert_eq!(d.cut(0, 2), Ok(true));
        assert_eq!(d.started_threads(), 1 + 2, "lane 2 never started");
    }

    /// The scheduler, modelled: it cuts batch `i` of the run next
    /// (`i == n`: it closes), sleeps on `room` with batch `i` in hand,
    /// or starts `lane`'s threads after the cut that made it `first`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Sched {
        Cut(usize),
        Asleep(usize),
        Start(usize, usize),
        Done,
    }

    /// A lane thread, or the sink, modelled.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum At {
        /// It asks its question next.
        Awake,
        /// Asleep on its role's condvar.
        Asleep,
        /// A lane thread running batch `seq`, or the sink delivering it.
        Busy(u64),
        Done,
    }

    /// One state of the batch path: the value and where each role is.
    /// Each step is one critical section of a shell in `service.rs`,
    /// with the notifies that follow it.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        d: Dispatch<u64, u64>,
        sched: Sched,
        /// Each lane's threads: none until the lane starts.
        threads: [Vec<At>; 2],
        sink: At,
        /// Batches each lane has started.
        began: [usize; 2],
        /// Batches the sink has taken.
        taken: u64,
    }

    /// One modelled run: batch `i` goes to lane `lanes[i]`.
    struct Run {
        in_flight: [usize; 2],
        depth: usize,
        width: u64,
        lanes: Vec<usize>,
    }

    impl Run {
        fn n(&self) -> usize {
            self.lanes.len()
        }

        /// Batches the scheduler has cut into `lane` in state `s`.
        fn cut_into(&self, s: &World, lane: usize) -> usize {
            let cut = match s.sched {
                Sched::Cut(i) | Sched::Asleep(i) | Sched::Start(_, i) => i,
                Sched::Done => self.n(),
            };
            self.lanes[..cut].iter().filter(|&&l| l == lane).count()
        }

        fn wake_lanes(s: &mut World) {
            for at in s.threads.iter_mut().flatten() {
                if *at == At::Asleep {
                    *at = At::Awake;
                }
            }
        }

        fn wake_sink(s: &mut World) {
            if s.sink == At::Asleep {
                s.sink = At::Awake;
            }
        }

        /// The scheduler takes one step from `s`.
        fn sched(&self, s: &World) -> World {
            let mut s = s.clone();
            match s.sched {
                Sched::Cut(i) if i == self.n() => {
                    s.d.close();
                    Self::wake_lanes(&mut s);
                    Self::wake_sink(&mut s);
                    s.sched = Sched::Done;
                }
                Sched::Cut(i) => match s.d.cut(self.lanes[i], i as u64) {
                    Ok(first) => {
                        Self::wake_lanes(&mut s);
                        s.sched = match first {
                            true => Sched::Start(self.lanes[i], i + 1),
                            false => Sched::Cut(i + 1),
                        };
                    }
                    Err(_) => s.sched = Sched::Asleep(i),
                },
                Sched::Start(lane, i) => {
                    s.threads[lane] = vec![At::Awake; self.in_flight[lane]];
                    s.sched = Sched::Cut(i);
                }
                Sched::Asleep(_) | Sched::Done => unreachable!("the scheduler cannot step"),
            }
            s
        }

        /// Thread `t` of `lane` takes one step from `s`; `Err` names
        /// the broken rule.
        fn thread(&self, s: &World, lane: usize, t: usize) -> Result<World, String> {
            let mut s = s.clone();
            match s.threads[lane][t] {
                At::Awake => match s.d.next(lane) {
                    Next::Run(seq) => {
                        let released = s.taken - u64::from(matches!(s.sink, At::Busy(_)));
                        if seq >= released + self.width {
                            return Err(format!("batch {seq} started, {released} released"));
                        }
                        let want = (0..self.n())
                            .filter(|&i| self.lanes[i] == lane)
                            .nth(s.began[lane]);
                        if want != Some(seq as usize) {
                            return Err(format!("lane {lane} started {seq}, not {want:?}"));
                        }
                        s.began[lane] += 1;
                        if let Sched::Asleep(i) = s.sched {
                            s.sched = Sched::Cut(i);
                        }
                        s.threads[lane][t] = At::Busy(seq);
                    }
                    Next::Wait => s.threads[lane][t] = At::Asleep,
                    Next::Exit => s.threads[lane][t] = At::Done,
                },
                At::Busy(seq) => {
                    s.d.finish(seq, seq);
                    Self::wake_sink(&mut s);
                    s.threads[lane][t] = At::Awake;
                }
                At::Asleep | At::Done => unreachable!("thread {t} of lane {lane} cannot step"),
            }
            Ok(s)
        }

        /// The sink takes one step from `s`.
        fn sink(&self, s: &World) -> Result<World, String> {
            let mut s = s.clone();
            match s.sink {
                At::Awake => {
                    if let Some(seq) = s.d.ready() {
                        if seq != s.taken {
                            return Err(format!("the sink took {seq} after {}", s.taken));
                        }
                        s.taken += 1;
                        s.sink = At::Busy(seq);
                    } else if s.d.drained() {
                        s.sink = At::Done;
                    } else {
                        s.sink = At::Asleep;
                    }
                }
                At::Busy(_) => {
                    s.d.release();
                    Self::wake_lanes(&mut s);
                    s.sink = At::Awake;
                }
                At::Asleep | At::Done => unreachable!("the sink cannot step"),
            }
            Ok(s)
        }

        /// The rules every state keeps.
        fn check(&self, s: &World) -> Result<(), String> {
            for lane in 0..2 {
                let queued = self.cut_into(s, lane) - s.began[lane];
                if queued > self.depth {
                    return Err(format!("lane {lane} queues {queued} batches"));
                }
            }
            // A sleeper whose question now has another answer is lost,
            // even if a later wake-up would rescue it.
            let lost = |who| {
                Err(format!(
                    "the {who} sleeps through a change nobody woke it for"
                ))
            };
            if let Sched::Asleep(i) = s.sched {
                if s.d.clone().cut(self.lanes[i], i as u64).is_ok() {
                    return lost("scheduler");
                }
            }
            for (lane, threads) in s.threads.iter().enumerate() {
                if threads.contains(&At::Asleep) && s.d.clone().next(lane) != Next::Wait {
                    return lost("lane thread");
                }
            }
            if s.sink == At::Asleep {
                let mut d = s.d.clone();
                if d.ready().is_some() || d.drained() {
                    return lost("sink");
                }
            }
            Ok(())
        }

        /// Nobody can step: the scheduler and the sink are done, every
        /// batch is released, every started thread has exited, and a
        /// lane that was never cut has no threads.
        fn check_end(&self, s: &World) -> Result<(), String> {
            if s.sched != Sched::Done || s.sink != At::Done {
                return Err(format!("stuck: {:?}, sink {:?}", s.sched, s.sink));
            }
            let n = self.n() as u64;
            if (s.taken, s.d.released, s.d.cut) != (n, n, n) {
                return Err(format!("ended with {} of {n} batches taken", s.taken));
            }
            for (lane, threads) in s.threads.iter().enumerate() {
                if threads.iter().any(|at| *at != At::Done) {
                    return Err(format!("lane {lane} ended with threads {threads:?}"));
                }
                if threads.is_empty() == self.lanes.contains(&lane) {
                    return Err(format!("lane {lane} has {} threads", threads.len()));
                }
            }
            Ok(())
        }

        /// Explore every schedule; returns the states seen.
        fn explore(&self) -> Result<usize, String> {
            let start = World {
                d: Dispatch::new(self.in_flight, self.depth, self.width),
                sched: Sched::Cut(0),
                threads: [Vec::new(), Vec::new()],
                sink: At::Awake,
                began: [0, 0],
                taken: 0,
            };
            // Each state is hashed once, when it is first reached.
            let start = Rc::new(start);
            let mut seen = HashSet::from([Rc::clone(&start)]);
            let mut todo = vec![start];
            let mut next = Vec::new();
            while let Some(s) = todo.pop() {
                self.check(&s)?;
                if !matches!(s.sched, Sched::Asleep(_) | Sched::Done) {
                    next.push(self.sched(&s));
                }
                for (lane, threads) in s.threads.iter().enumerate() {
                    for (t, at) in threads.iter().enumerate() {
                        if matches!(at, At::Awake | At::Busy(_)) {
                            next.push(self.thread(&s, lane, t)?);
                        }
                    }
                }
                if matches!(s.sink, At::Awake | At::Busy(_)) {
                    next.push(self.sink(&s)?);
                }
                if next.is_empty() {
                    self.check_end(&s)?;
                }
                for n in next.drain(..).map(Rc::new) {
                    if seen.insert(Rc::clone(&n)) {
                        todo.push(n);
                    }
                }
            }
            Ok(seen.len())
        }
    }

    /// Explore every run of up to `max_batches` batches over two lanes
    /// of 1 or 2 threads, depth 1 or 2 and a window 1 to 3 wide, with
    /// every assignment of batches to lanes; returns the states seen.
    fn prove(max_batches: usize) -> usize {
        let mut states = 0;
        for in_flight in [[1, 1], [1, 2], [2, 1], [2, 2]] {
            for depth in 1..=2 {
                for width in 1..=3 {
                    for n in 0..=max_batches {
                        for bits in 0..1usize << n {
                            let run = Run {
                                in_flight,
                                depth,
                                width,
                                lanes: (0..n).map(|i| bits >> i & 1).collect(),
                            };
                            states += run.explore().unwrap_or_else(|e| {
                                panic!(
                                    "in_flight {in_flight:?}, depth {depth}, width {width}, \
                                     lanes {:?}: {e}",
                                    run.lanes
                                )
                            });
                        }
                    }
                }
            }
        }
        states
    }

    /// The batch path is proven over every schedule of up to 3 batches
    /// (see [`prove`]). A step is one critical section of a shell and
    /// its notifies, so a batch that finishes last, a lane that never
    /// starts and a scheduler that waits for room are all among the
    /// schedules. At every state: each lane queues at most `depth`
    /// batches; a batch starts only inside the window, and each lane
    /// starts its batches in cut order; the sink takes batches in
    /// order, each once; and a sleeper whose question has another
    /// answer is an error. At the end: the scheduler and the sink are
    /// done, every batch is released, every started thread has exited,
    /// and a lane never cut has no threads.
    #[test]
    fn the_batch_path_is_proven_over_every_schedule() {
        println!("batch path: {} states explored", prove(3));
    }

    /// The same over up to 5 batches, too slow for every run.
    #[test]
    #[ignore]
    fn the_batch_path_is_proven_over_every_schedule_of_five_batches() {
        println!("batch path: {} states explored", prove(5));
    }
}
