//! The batch path from a submitter's push to the sink's release as one
//! value with no lock, condvar or thread inside, [`Dispatch`]: each
//! lane's building batch and batches cut and not yet started, the
//! release point, the reorder buffer, and whether the service closed.
//! The service keeps it under one mutex and wakes whom each method's
//! [`Wake`] names; a unit test walks every schedule of these calls.
//!
//! Two bounds stay apart: a task enters a lane's building batch only
//! while the lane holds fewer than `depth` batches ([`Dispatch::push`]),
//! so a lane that builds a batch has room to cut it, and no cut waits;
//! and batch `seq` starts only while `seq < released + width`
//! ([`Dispatch::next`]). One window at the cut with no lane depth let a
//! lane queue `width` batches: `clr-long` latency p50 +35%.

use std::collections::{BTreeMap, VecDeque};

use crate::metrics::QueueMetrics;

/// A lane's batch under construction, as [`Dispatch`] sees it.
pub(crate) trait Build {
    /// What a submitter pushes.
    type Task;
    /// What a lane thread runs.
    type Batch;
    /// Add `task`; the batch, if this push reached the target.
    fn push(&mut self, task: Self::Task) -> Option<Self::Batch>;
    /// True while it holds no task.
    fn is_empty(&self) -> bool;
    /// The batch built so far; `None` while it holds no task.
    fn take(&mut self) -> Option<Self::Batch>;
}

/// The roles a transition asks its caller to wake, each a condvar:
/// after the lock is dropped, or before the caller sleeps itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub(crate) struct Wake(u8);

impl Wake {
    /// Submitters waiting for room in a lane.
    pub(crate) const ROOM: Wake = Wake(1);
    /// The scheduler.
    pub(crate) const SCHED: Wake = Wake(2);
    /// The lane threads.
    pub(crate) const TURN: Wake = Wake(4);
    /// The sink.
    pub(crate) const READY: Wake = Wake(8);

    /// Whether `role` is to be woken.
    pub(crate) fn has(self, role: Wake) -> bool {
        self.0 & role.0 != 0
    }
}

/// What [`Dispatch::push`] did with the task it took.
#[cfg_attr(test, derive(Debug, PartialEq, Eq))]
pub(crate) enum Pushed {
    /// It joined the building batch. Wakes the scheduler when it opened
    /// the first batch since the scheduler went to sleep with no
    /// timeout, so that it times the batch's linger.
    Joined(Wake),
    /// It filled the batch, which was cut.
    Cut(Wake),
}

/// Why [`Dispatch::push`] handed its task back.
#[cfg_attr(test, derive(Debug, PartialEq, Eq))]
pub(crate) enum Refused<T> {
    /// The lane holds `depth` batches: sleep on `room`, then ask again.
    Full(T),
    /// The service closed: give up.
    Closed(T),
}

/// What [`Dispatch::chore`] tells the scheduler.
#[cfg_attr(test, derive(Debug, PartialEq, Eq))]
pub(crate) enum Chore {
    /// Start lane `l`'s threads, wake, and ask again.
    Start(usize, Wake),
    /// Sleep until woken, or until a building batch is due its linger;
    /// with no batch building, only until woken.
    Wait,
    /// Closed, and every lane with a batch has started: end.
    Exit,
}

/// What [`Dispatch::next`] tells a lane thread.
#[cfg_attr(test, derive(Debug, PartialEq, Eq))]
pub(crate) enum Next<B> {
    /// Run batch `seq`, the lane's oldest, and wake.
    Run(u64, B, Wake),
    /// Sleep until woken, then ask again.
    Wait,
    /// Closed, and the lane is empty: end the thread.
    Exit,
}

#[cfg_attr(test, derive(Clone))]
struct Lane<W: Build> {
    threads: usize,
    building: W,
    /// Bases in `building` (telemetry).
    weight: usize,
    /// The scheduler has started the lane's threads.
    started: bool,
    /// Cut, not yet started, oldest first, with their numbers.
    queued: VecDeque<(u64, W::Batch)>,
    high_water: usize,
}

/// See the module docs. `W` builds a lane's batches, `R` is a finished
/// one; batches are numbered in cut order from 0.
pub(crate) struct Dispatch<W: Build, R> {
    lanes: Vec<Lane<W>>,
    depth: usize,
    /// `slack` plus the threads of the lanes started.
    width: u64,
    cut: u64,
    /// The oldest batch not yet released.
    released: u64,
    /// Finished batches the sink has not taken: the reorder buffer.
    done: BTreeMap<u64, R>,
    /// No batch will be cut again.
    closed: bool,
    /// The scheduler's last [`Chore::Wait`] found no batch building, so
    /// it sleeps with no timeout until a push opens one.
    untimed: bool,
    pushed: u64,
    weight: usize,
    weight_high_water: usize,
    finished: u64,
    done_high_water: usize,
}

impl<W: Build, R> Dispatch<W, R> {
    /// Lanes of `(threads, builder)`, `depth` batches per lane, and a
    /// release window `slack` plus the started lanes' threads wide.
    pub(crate) fn new(
        lanes: impl IntoIterator<Item = (usize, W)>,
        depth: usize,
        slack: u64,
    ) -> Self {
        assert!(depth > 0, "a lane of depth 0 never takes a batch");
        Dispatch {
            lanes: (lanes.into_iter())
                .map(|(threads, building)| Lane {
                    threads,
                    building,
                    weight: 0,
                    started: false,
                    queued: VecDeque::new(),
                    high_water: 0,
                })
                .collect(),
            depth,
            width: slack,
            cut: 0,
            released: 0,
            done: BTreeMap::new(),
            closed: false,
            untimed: false,
            pushed: 0,
            weight: 0,
            weight_high_water: 0,
            finished: 0,
            done_high_water: 0,
        }
    }

    /// A submitter pushes `task`, of `weight` bases, into `lane`'s
    /// building batch; the push that fills the batch cuts it, and the
    /// push that opens one while the scheduler sleeps with no timeout
    /// wakes it to time the linger. Refused while the lane holds
    /// `depth` batches, and once closed.
    pub(crate) fn push(
        &mut self,
        lane: usize,
        task: W::Task,
        weight: usize,
    ) -> Result<Pushed, Refused<W::Task>> {
        if self.closed {
            return Err(Refused::Closed(task));
        }
        if self.lanes[lane].queued.len() >= self.depth {
            return Err(Refused::Full(task));
        }
        self.pushed += 1;
        self.weight += weight;
        self.weight_high_water = self.weight_high_water.max(self.weight);
        let l = &mut self.lanes[lane];
        l.weight += weight;
        Ok(match l.building.push(task) {
            Some(batch) => Pushed::Cut(self.enter(lane, batch)),
            // No batch builds while `untimed`: this push opened one.
            None if std::mem::take(&mut self.untimed) => Pushed::Joined(Wake::SCHED),
            None => Pushed::Joined(Wake::default()),
        })
    }

    /// Cut `lane`'s building batch before it is full: a session with
    /// reads in it finished, it reached the linger age, or the service
    /// closes. `None`: nothing is built — always so once closed.
    pub(crate) fn cut(&mut self, lane: usize) -> Option<Wake> {
        let batch = self.lanes[lane].building.take()?;
        Some(self.enter(lane, batch))
    }

    /// `batch` joins `lane`, numbered next. Wakes the lane's threads,
    /// or the scheduler to start them.
    fn enter(&mut self, lane: usize, batch: W::Batch) -> Wake {
        let l = &mut self.lanes[lane];
        self.weight -= std::mem::take(&mut l.weight);
        l.queued.push_back((self.cut, batch));
        l.high_water = l.high_water.max(l.queued.len());
        self.cut += 1;
        if l.started {
            Wake::TURN
        } else {
            Wake::SCHED
        }
    }

    /// The batch just cut into `lane` and its number, to count while
    /// the lock is still held.
    pub(crate) fn newest(&self, lane: usize) -> (u64, &W::Batch) {
        let (seq, batch) = self.lanes[lane].queued.back().expect("a batch was cut");
        (*seq, batch)
    }

    /// `lane`'s building batch, whose age the scheduler reads.
    pub(crate) fn building(&self, lane: usize) -> &W {
        &self.lanes[lane].building
    }

    /// The service closes, once it has cut every building batch: no
    /// push or cut is taken from now on. Wakes everyone: the refused
    /// submitters, the scheduler to start the lanes left and end, the
    /// lane threads to end, and the sink to drain.
    pub(crate) fn close(&mut self) -> Wake {
        self.closed = true;
        Wake(Wake::ROOM.0 | Wake::SCHED.0 | Wake::TURN.0 | Wake::READY.0)
    }

    /// The scheduler asks what to do: start a lane that holds a batch
    /// and no threads, end once closed, or sleep — with no timeout when
    /// no batch builds.
    pub(crate) fn chore(&mut self) -> Chore {
        let start = (self.lanes.iter()).position(|l| !l.started && !l.queued.is_empty());
        if let Some(lane) = start {
            let l = &mut self.lanes[lane];
            l.started = true;
            // The window widens: another lane's batch may start.
            self.width += l.threads as u64;
            Chore::Start(lane, Wake::TURN)
        } else if self.closed {
            Chore::Exit
        } else {
            self.untimed = self.lanes.iter().all(|l| l.building.is_empty());
            Chore::Wait
        }
    }

    /// A thread of `lane` asks for the lane's oldest batch, which it
    /// gets once it is inside the window. `Run` wakes the submitters
    /// waiting for room when the lane was full.
    pub(crate) fn next(&mut self, lane: usize) -> Next<W::Batch> {
        let open = self.released + self.width;
        let (depth, l) = (self.depth, &mut self.lanes[lane]);
        match l.queued.front() {
            Some(&(seq, _)) if seq < open => {
                let full = l.queued.len() >= depth;
                let (seq, batch) = l.queued.pop_front().expect("front");
                Next::Run(seq, batch, Wake(if full { Wake::ROOM.0 } else { 0 }))
            }
            None if self.closed => Next::Exit,
            _ => Next::Wait,
        }
    }

    /// Batch `seq` finished with `result`. Wakes the sink.
    pub(crate) fn finish(&mut self, seq: u64, result: R) -> Wake {
        debug_assert!((self.released..self.cut).contains(&seq) && !self.done.contains_key(&seq));
        self.done.insert(seq, result);
        self.finished += 1;
        self.done_high_water = self.done_high_water.max(self.done.len());
        Wake::READY
    }

    /// The sink takes the oldest unreleased batch once it has finished,
    /// and delivers it outside the lock. Wakes nobody.
    pub(crate) fn ready(&mut self) -> Option<R> {
        self.done.remove(&self.released)
    }

    /// The sink delivered the batch it took. Wakes the lanes.
    pub(crate) fn release(&mut self) -> Wake {
        self.released += 1;
        Wake::TURN
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

    /// The building batches (their bases, of `building` bases of
    /// capacity, pushed = tasks), the lanes' batches not yet started
    /// (pushed = cut, high water summed), and the finished ones the
    /// sink has not taken.
    pub(crate) fn queues(&self, building: usize) -> [QueueMetrics; 3] {
        let tasks = QueueMetrics {
            capacity: building,
            pushed: self.pushed,
            high_water: self.weight_high_water as u64,
        };
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
        [tasks, lanes, done]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};
    use std::rc::Rc;

    /// A lane's unit tasks, numbered in push order: a batch is full at
    /// two.
    #[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
    struct Pair(Vec<u64>);

    impl Build for Pair {
        type Task = u64;
        type Batch = Vec<u64>;

        fn push(&mut self, task: u64) -> Option<Vec<u64>> {
            self.0.push(task);
            if self.0.len() == 2 {
                self.take()
            } else {
                None
            }
        }

        fn is_empty(&self) -> bool {
            self.0.is_empty()
        }

        fn take(&mut self) -> Option<Vec<u64>> {
            (!self.0.is_empty()).then(|| std::mem::take(&mut self.0))
        }
    }

    impl<W: Build + Clone, R: Clone> Clone for Dispatch<W, R>
    where
        W::Batch: Clone,
    {
        fn clone(&self) -> Self {
            Dispatch {
                lanes: self.lanes.clone(),
                done: self.done.clone(),
                ..*self
            }
        }
    }

    /// Two paths are the same state when every step reads the same from
    /// them: the telemetry (weights, high waters, batches finished) and
    /// what follows from the rest (the window's width) do not count.
    /// Counting the telemetry would multiply the states the proof walks.
    impl<W: Build + Eq, R: Eq> PartialEq for Dispatch<W, R>
    where
        W::Batch: Eq,
    {
        fn eq(&self, o: &Self) -> bool {
            let same = |(a, b): (&Lane<W>, &Lane<W>)| {
                (&a.building, a.started, &a.queued) == (&b.building, b.started, &b.queued)
            };
            self.lanes.iter().zip(&o.lanes).all(same) && self.rest() == o.rest()
        }
    }

    impl<W: Build + Eq, R: Eq> Eq for Dispatch<W, R> where W::Batch: Eq {}

    impl<W: Build, R> Dispatch<W, R> {
        /// What the steps read besides the lanes.
        fn rest(&self) -> (u64, u64, &BTreeMap<u64, R>, bool, bool) {
            (
                self.cut,
                self.released,
                &self.done,
                self.closed,
                self.untimed,
            )
        }
    }

    impl<W: Build + Hash, R: Hash> Hash for Dispatch<W, R>
    where
        W::Batch: Hash,
    {
        fn hash<H: Hasher>(&self, h: &mut H) {
            for lane in &self.lanes {
                (&lane.building, lane.started, &lane.queued).hash(h);
            }
            self.rest().hash(h);
        }
    }

    /// `n` one-task batches pushed, cut and started in one lane of one
    /// thread, in a window as wide.
    fn running(n: u64) -> Dispatch<Pair, char> {
        let mut d = Dispatch::new([(1, Pair::default())], n as usize, n - 1);
        for task in 0..n {
            assert_eq!(d.push(0, task, 1), Ok(Pushed::Joined(Wake::default())));
            assert!(d.cut(0).is_some());
        }
        assert!(matches!(d.chore(), Chore::Start(0, _)));
        for seq in 0..n {
            assert!(matches!(d.next(0), Next::Run(s, b, _) if s == seq && b == [seq]));
        }
        d
    }

    /// Everything the sink can take now, releasing each.
    fn take(d: &mut Dispatch<Pair, char>) -> Vec<char> {
        let mut out = Vec::new();
        while let Some(r) = d.ready() {
            out.push(r);
            let _ = d.release();
        }
        out
    }

    /// The scheduler's chores until it would sleep or end.
    fn chores(d: &mut Dispatch<Pair, char>) -> Vec<Chore> {
        let mut out = Vec::new();
        loop {
            let chore = d.chore();
            let last = matches!(chore, Chore::Wait | Chore::Exit);
            out.push(chore);
            if last {
                return out;
            }
        }
    }

    #[test]
    fn in_order_passes_through() {
        let mut d = running(2);
        let _ = d.finish(0, 'a');
        assert_eq!(take(&mut d), ['a']);
        let _ = d.finish(1, 'b');
        assert_eq!(take(&mut d), ['b']);
        assert_eq!(d.queues(0)[2].high_water, 1);
        let _ = d.close();
        assert_eq!(d.chore(), Chore::Exit);
        assert!(d.drained());
    }

    #[test]
    fn out_of_order_is_held_then_released() {
        let mut d = running(3);
        let _ = d.finish(2, 'c');
        let _ = d.finish(1, 'b');
        assert!(take(&mut d).is_empty());
        assert_eq!(d.done.len(), 2);
        let _ = d.finish(0, 'a');
        assert_eq!(take(&mut d), ['a', 'b', 'c']);
        assert!(d.done.is_empty());
    }

    #[test]
    fn interleaved_gaps() {
        let mut d = running(4);
        let _ = d.finish(1, 'b');
        assert!(take(&mut d).is_empty());
        let _ = d.finish(0, 'a');
        assert_eq!(take(&mut d), ['a', 'b']);
        let _ = d.finish(3, 'd');
        assert!(take(&mut d).is_empty());
        let _ = d.finish(2, 'c');
        assert_eq!(take(&mut d), ['c', 'd']);
    }

    /// Backpressure: a push into a full lane comes back and changes
    /// nothing, and the `Run` that makes room wakes the pusher.
    #[test]
    fn a_push_into_a_full_lane_is_refused_until_a_run_makes_room() {
        let mut d: Dispatch<Pair, char> = Dispatch::new([(2, Pair::default())], 1, 3);
        assert_eq!(d.push(0, 0, 1), Ok(Pushed::Joined(Wake::default())));
        let first = d.push(0, 1, 1);
        assert_eq!(
            first,
            Ok(Pushed::Cut(Wake::SCHED)),
            "a first cut wakes the scheduler"
        );
        let before = d.clone();
        assert_eq!(d.push(0, 2, 1), Err(Refused::Full(2)));
        assert_eq!(d.cut(0), None, "a full lane has nothing built");
        assert!(d == before);
        assert_eq!(d.chore(), Chore::Start(0, Wake::TURN));
        assert_eq!(d.next(0), Next::Run(0, vec![0, 1], Wake::ROOM));
        let room = d.push(0, 2, 1);
        assert_eq!(
            room,
            Ok(Pushed::Joined(Wake::default())),
            "room once the lane started one"
        );
        let later = d.push(0, 3, 1);
        assert_eq!(
            later,
            Ok(Pushed::Cut(Wake::TURN)),
            "a later cut wakes the lane"
        );
    }

    /// The closing service cuts what is built; close then refuses every
    /// push and cut for good and wakes everyone, whoever waits for room
    /// to hear so. The scheduler starts each lane with a batch before it
    /// ends, and a lane thread ends once its lane is empty.
    #[test]
    fn close_refuses_every_push_and_cut_and_wakes_everyone() {
        let lanes = [1, 1].map(|threads| (threads, Pair::default()));
        let mut d: Dispatch<Pair, char> = Dispatch::new(lanes, 1, 3);
        for task in 0..3 {
            let _ = d.push(0, task, 1);
        }
        assert_eq!(d.push(1, 0, 1), Ok(Pushed::Joined(Wake::default())));
        assert_eq!(d.cut(0), None, "lane 0 is full, so it builds nothing");
        assert_eq!(d.cut(1), Some(Wake::SCHED));
        assert_eq!(d.close(), Wake(15));
        assert_eq!(d.push(0, 2, 1), Err(Refused::Closed(2)));
        assert_eq!((d.cut(0), d.cut(1)), (None, None));
        let start = |lane| Chore::Start(lane, Wake::TURN);
        assert_eq!(chores(&mut d), [start(0), start(1), Chore::Exit]);
        assert_eq!(d.next(0), Next::Run(0, vec![0, 1], Wake::ROOM));
        assert_eq!(d.next(1), Next::Run(1, vec![0], Wake::ROOM));
        assert_eq!((d.next(0), d.next(1), d.cut), (Next::Exit, Next::Exit, 2));
    }

    /// The scheduler sleeps with no timeout while no batch builds, and
    /// the push that opens one wakes it; while a batch builds, its
    /// sleep is timed by the oldest batch, and an opening push wakes
    /// nobody.
    #[test]
    fn the_push_that_opens_a_batch_wakes_a_scheduler_with_no_timeout() {
        let lanes = [1, 1].map(|threads| (threads, Pair::default()));
        let mut d: Dispatch<Pair, char> = Dispatch::new(lanes, 2, 1);
        assert_eq!(d.chore(), Chore::Wait, "nothing builds: no timeout");
        assert_eq!(d.push(0, 0, 1), Ok(Pushed::Joined(Wake::SCHED)));
        assert_eq!(d.chore(), Chore::Wait, "lane 0 builds: a timed sleep");
        let opening = d.push(1, 0, 1);
        assert_eq!(
            opening,
            Ok(Pushed::Joined(Wake::default())),
            "lane 0's linger comes first"
        );
        let _ = (d.cut(0), d.cut(1));
        let start = |lane| Chore::Start(lane, Wake::TURN);
        assert_eq!(chores(&mut d), [start(0), start(1), Chore::Wait]);
        assert_eq!(d.push(0, 1, 1), Ok(Pushed::Joined(Wake::SCHED)));
    }

    #[test]
    fn a_path_that_cut_nothing_is_drained_at_close() {
        let mut d: Dispatch<Pair, char> =
            Dispatch::new([(2, Pair::default()), (1, Pair::default())], 1, 3);
        assert!(!d.drained());
        assert_eq!(d.next(0), Next::Wait);
        assert_eq!(d.chore(), Chore::Wait);
        let _ = d.close();
        assert_eq!(d.chore(), Chore::Exit);
        assert!(d.drained());
        assert_eq!(d.next(0), Next::Exit);
        assert_eq!(d.started_threads(), 0);
    }

    #[test]
    fn started_threads_counts_only_started_lanes() {
        let lanes = [2, 1, 2].map(|threads| (threads, Pair::default()));
        let mut d: Dispatch<Pair, char> = Dispatch::new(lanes, 2, 5);
        assert_eq!(d.started_threads(), 0);
        let _ = d.push(1, 0, 1);
        let _ = d.cut(1);
        assert_eq!(d.started_threads(), 0, "cut, not yet started");
        assert!(matches!(d.chore(), Chore::Start(1, _)));
        assert_eq!(d.started_threads(), 1);
        let _ = d.push(0, 0, 1);
        let _ = d.cut(0);
        assert!(matches!(d.chore(), Chore::Start(0, _)));
        assert_eq!(d.started_threads(), 1 + 2, "lane 2 never started");
        assert_eq!(d.queues(0)[2].capacity, 5 + 3, "the window widens by each");
    }

    /// The building batches hold what was pushed and not yet cut: the
    /// push that fills a batch counts toward the high water, and every
    /// push counts once.
    #[test]
    fn the_building_batches_count_their_bases() {
        let lanes = [1, 1].map(|threads| (threads, Pair::default()));
        let mut d: Dispatch<Pair, char> = Dispatch::new(lanes, 2, 1);
        let _ = d.push(0, 0, 30);
        let _ = d.push(1, 0, 20);
        let _ = d.push(0, 1, 40);
        assert_eq!(d.weight, 20, "lane 0's batch was cut");
        let _ = d.cut(1);
        let tasks = &d.queues(100)[0];
        assert_eq!(
            (tasks.capacity, tasks.pushed, tasks.high_water),
            (100, 3, 90)
        );
        assert_eq!(d.weight, 0);
    }

    /// A submitter, modelled: it pushes its lane's task `i` next (`i`
    /// past its last task: it makes its finish cut), or sleeps on `room`
    /// with it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Sub {
        Next(u64),
        Asleep(u64),
        Done,
    }

    /// The scheduler, modelled: it asks for its next chore, or sleeps.
    /// A lane's threads appear at the chore that starts them: spawning
    /// them touches nothing another step reads.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Sched {
        Awake,
        /// Asleep; `timed` when a lane was building as it slept, so the
        /// linger's timeout wakes it.
        Asleep {
            timed: bool,
        },
        Done,
    }

    /// A lane thread, or the sink, modelled.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
        d: Dispatch<Pair, u64>,
        /// Each lane's submitter.
        subs: [Sub; 2],
        /// The service has closed the path.
        closed: bool,
        sched: Sched,
        /// Each lane's threads: none until the lane starts.
        threads: [Vec<At>; 2],
        sink: At,
        /// Tasks each lane took.
        pushed: [u64; 2],
        /// Tasks each lane has started.
        began: [u64; 2],
        /// Batches the sink has taken.
        taken: u64,
    }

    /// One modelled run: lane `l` has `in_flight[l]` threads, and its
    /// submitter pushes `tasks[l]` tasks then cuts; the window is
    /// `slack` plus the started lanes' threads wide.
    struct Run {
        in_flight: [usize; 2],
        depth: usize,
        slack: u64,
        tasks: [u64; 2],
    }

    /// Whether the question of lane `l`'s submitter, asleep with task
    /// `i`, now gets an answer other than "wait".
    fn submitter_stirs(d: &Dispatch<Pair, u64>, l: usize, i: u64) -> bool {
        !matches!(d.clone().push(l, i, 1), Err(Refused::Full(_)))
    }

    /// Whether a lane has a building batch.
    fn building(d: &Dispatch<Pair, u64>) -> bool {
        d.lanes.iter().any(|lane| !lane.building.0.is_empty())
    }

    /// The same for the scheduler, asleep `timed` or not: it has a
    /// chore, or a batch builds that no timeout will cut.
    fn scheduler_stirs(d: &Dispatch<Pair, u64>, timed: bool) -> bool {
        d.clone().chore() != Chore::Wait || !timed && building(d)
    }

    /// The same for lane `l`'s threads.
    fn lane_stirs(d: &Dispatch<Pair, u64>, l: usize) -> bool {
        d.clone().next(l) != Next::Wait
    }

    /// The same for the sink.
    fn sink_stirs(d: &Dispatch<Pair, u64>) -> bool {
        let mut d = d.clone();
        d.ready().is_some() || d.drained()
    }

    /// Wake the sleepers `w` names, as the shell's notifies do — but
    /// leave asleep one whose question still gets "wait": woken, it
    /// would only ask and sleep again, and whatever changes its answer
    /// later must wake it, which [`Run::check`] checks. Skipping those
    /// round trips keeps the walk small.
    fn wake(s: &mut World, w: Wake) {
        for l in 0..2 {
            match s.subs[l] {
                Sub::Asleep(i) if w.has(Wake::ROOM) && submitter_stirs(&s.d, l, i) => {
                    s.subs[l] = Sub::Next(i)
                }
                _ => {}
            }
            if w.has(Wake::TURN) && s.threads[l].contains(&At::Asleep) && lane_stirs(&s.d, l) {
                for at in &mut s.threads[l] {
                    if *at == At::Asleep {
                        *at = At::Awake;
                    }
                }
            }
        }
        if let Sched::Asleep { timed } = s.sched {
            if w.has(Wake::SCHED) && scheduler_stirs(&s.d, timed) {
                s.sched = Sched::Awake;
            }
        }
        if w.has(Wake::READY) && s.sink == At::Asleep && sink_stirs(&s.d) {
            s.sink = At::Awake;
        }
    }

    impl Run {
        /// Lane `l`'s submitter takes one step from `s`.
        fn sub(&self, s: &World, l: usize) -> Result<World, String> {
            let mut s = s.clone();
            let Sub::Next(i) = s.subs[l] else {
                unreachable!("submitter {l} cannot step")
            };
            let closed = s.d.closed;
            let accepted = if i < self.tasks[l] {
                let (fills, cut) = (s.d.lanes[l].building.0.len() == 1, s.d.cut);
                match s.d.push(l, i, 1) {
                    Ok(pushed) => {
                        let cuts = matches!(pushed, Pushed::Cut(_));
                        if fills != cuts || cuts != (s.d.cut == cut + 1) {
                            return Err(format!("lane {l}'s push {i} cut {}", s.d.cut - cut));
                        }
                        s.pushed[l] += 1;
                        s.subs[l] = Sub::Next(i + 1);
                        let (Pushed::Joined(w) | Pushed::Cut(w)) = pushed;
                        Some(w)
                    }
                    Err(Refused::Full(_)) => {
                        s.subs[l] = Sub::Asleep(i);
                        None
                    }
                    Err(Refused::Closed(_)) => {
                        s.subs[l] = Sub::Done;
                        None
                    }
                }
            } else {
                s.subs[l] = Sub::Done;
                s.d.cut(l)
            };
            if let Some(w) = accepted {
                if closed {
                    return Err(format!(
                        "lane {l} took its submitter's step {i} after close"
                    ));
                }
                wake(&mut s, w);
            }
            Ok(s)
        }

        /// The service cuts what is built, then closes the path.
        fn close(&self, s: &World) -> World {
            let mut s = s.clone();
            for l in 0..2 {
                let _ = s.d.cut(l); // `close` wakes everyone
            }
            let w = s.d.close();
            wake(&mut s, w);
            s.closed = true;
            s
        }

        /// The scheduler takes one step from `s`.
        fn sched(&self, s: &World) -> World {
            let mut s = s.clone();
            match s.sched {
                Sched::Awake => match s.d.chore() {
                    Chore::Start(lane, w) => {
                        wake(&mut s, w);
                        s.threads[lane] = vec![At::Awake; self.in_flight[lane]];
                    }
                    Chore::Wait => {
                        s.sched = Sched::Asleep {
                            timed: building(&s.d),
                        }
                    }
                    Chore::Exit => s.sched = Sched::Done,
                },
                Sched::Asleep { .. } | Sched::Done => unreachable!("the scheduler cannot step"),
            }
            s
        }

        /// The scheduler, awake or woken by its timeout, cuts lane `l`'s
        /// building batch for its age; `None` when nothing was cut. Only
        /// a scheduler that slept timed has a timeout.
        fn linger(&self, s: &World, l: usize) -> Option<World> {
            let mut s = s.clone();
            let w = s.d.cut(l)?;
            wake(&mut s, w);
            s.sched = Sched::Awake;
            Some(s)
        }

        /// Thread `t` of `lane` takes one step from `s`; `Err` names
        /// the broken rule.
        fn thread(&self, s: &World, lane: usize, t: usize) -> Result<World, String> {
            let mut s = s.clone();
            match s.threads[lane][t] {
                At::Awake => match s.d.next(lane) {
                    Next::Run(seq, batch, w) => {
                        let released = s.taken - u64::from(matches!(s.sink, At::Busy(_)));
                        let threads: usize = s.threads.iter().map(Vec::len).sum();
                        if seq >= released + self.slack + threads as u64 {
                            return Err(format!("batch {seq} started, {released} released"));
                        }
                        let want: Vec<u64> = (s.began[lane]..).take(batch.len()).collect();
                        if batch.is_empty() || batch != want {
                            return Err(format!("lane {lane} started {batch:?}, not {want:?}"));
                        }
                        s.began[lane] += batch.len() as u64;
                        wake(&mut s, w);
                        s.threads[lane][t] = At::Busy(seq);
                    }
                    Next::Wait => s.threads[lane][t] = At::Asleep,
                    Next::Exit => s.threads[lane][t] = At::Done,
                },
                At::Busy(seq) => {
                    let w = s.d.finish(seq, seq);
                    wake(&mut s, w);
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
                    let w = s.d.release();
                    wake(&mut s, w);
                    s.sink = At::Awake;
                }
                At::Asleep | At::Done => unreachable!("the sink cannot step"),
            }
            Ok(s)
        }

        /// The rules every state keeps.
        fn check(&self, s: &World) -> Result<(), String> {
            for (lane, l) in s.d.lanes.iter().enumerate() {
                if l.queued.len() > self.depth {
                    return Err(format!("lane {lane} queues {} batches", l.queued.len()));
                }
                if !l.building.0.is_empty() && l.queued.len() >= self.depth {
                    return Err(format!("lane {lane} builds a batch with no room to cut it"));
                }
                if !l.building.0.is_empty() && s.d.closed {
                    return Err(format!("lane {lane} builds a batch after close"));
                }
            }
            // A sleeper whose question now has another answer is lost,
            // even if a later wake-up would rescue it.
            let lost = |who| {
                Err(format!(
                    "the {who} sleeps through a change nobody woke it for"
                ))
            };
            for l in 0..2 {
                if matches!(s.subs[l], Sub::Asleep(i) if submitter_stirs(&s.d, l, i)) {
                    return lost("submitter");
                }
                if s.threads[l].contains(&At::Asleep) && lane_stirs(&s.d, l) {
                    return lost("lane thread");
                }
            }
            if matches!(s.sched, Sched::Asleep { timed } if scheduler_stirs(&s.d, timed)) {
                return lost("scheduler");
            }
            if s.sink == At::Asleep && sink_stirs(&s.d) {
                return lost("sink");
            }
            Ok(())
        }

        /// Nobody can step: every role is done, every batch cut is
        /// released, every task taken has run in a started lane, and a
        /// lane that was never cut has no threads.
        fn check_end(&self, s: &World) -> Result<(), String> {
            if s.sched != Sched::Done
                || s.sink != At::Done
                || s.subs.iter().any(|&u| u != Sub::Done)
            {
                return Err(format!(
                    "stuck: {:?}, {:?}, sink {:?}",
                    s.subs, s.sched, s.sink
                ));
            }
            let n = s.d.cut;
            if (s.taken, s.d.released) != (n, n) {
                return Err(format!("ended with {} of {n} batches taken", s.taken));
            }
            for (lane, threads) in s.threads.iter().enumerate() {
                if threads.iter().any(|at| *at != At::Done) {
                    return Err(format!("lane {lane} ended with threads {threads:?}"));
                }
                if s.began[lane] != s.pushed[lane] {
                    return Err(format!(
                        "lane {lane} ran {} of {} tasks",
                        s.began[lane], s.pushed[lane]
                    ));
                }
                if threads.is_empty() != (s.began[lane] == 0) {
                    return Err(format!("lane {lane} has {} threads", threads.len()));
                }
            }
            Ok(())
        }

        /// Every state one step from `s`.
        fn steps(&self, s: &World) -> Result<Vec<World>, String> {
            let mut next = Vec::new();
            if s.sched == Sched::Awake {
                next.push(self.sched(s));
            }
            if matches!(s.sched, Sched::Awake | Sched::Asleep { timed: true }) {
                for l in (0..2).filter(|&l| !s.d.lanes[l].building.0.is_empty()) {
                    next.extend(self.linger(s, l));
                }
            }
            for l in (0..2).filter(|&l| matches!(s.subs[l], Sub::Next(_))) {
                next.push(self.sub(s, l)?);
            }
            if !s.closed {
                next.push(self.close(s));
            }
            for (lane, threads) in s.threads.iter().enumerate() {
                for (t, at) in threads.iter().enumerate() {
                    if matches!(at, At::Awake | At::Busy(_)) {
                        next.push(self.thread(s, lane, t)?);
                    }
                }
            }
            if matches!(s.sink, At::Awake | At::Busy(_)) {
                next.push(self.sink(s)?);
            }
            for n in &mut next {
                if s.d.closed && n.d.cut != s.d.cut {
                    return Err("a batch was cut after the path closed".into());
                }
                // A lane's threads are alike: which one is where does
                // not count.
                for threads in &mut n.threads {
                    threads.sort_unstable();
                }
            }
            Ok(next)
        }

        /// Explore every schedule; returns the states seen.
        fn explore(&self) -> Result<usize, String> {
            let lanes = self.in_flight.map(|threads| (threads, Pair::default()));
            let start = World {
                d: Dispatch::new(lanes, self.depth, self.slack),
                subs: [Sub::Next(0); 2],
                closed: false,
                sched: Sched::Awake,
                threads: [Vec::new(), Vec::new()],
                sink: At::Awake,
                pushed: [0, 0],
                began: [0, 0],
                taken: 0,
            };
            // Each state is hashed once, when it is first reached.
            let start = Rc::new(start);
            let mut seen = HashSet::from([Rc::clone(&start)]);
            let mut todo = vec![start];
            while let Some(s) = todo.pop() {
                self.check(&s)?;
                let next = self.steps(&s)?;
                if next.is_empty() {
                    self.check_end(&s)?;
                }
                for n in next.into_iter().map(Rc::new) {
                    if seen.insert(Rc::clone(&n)) {
                        todo.push(n);
                    }
                }
            }
            Ok(seen.len())
        }
    }

    /// Explore every run of lanes of `in_flight` threads, each of
    /// `depths`, each window slack of `slacks`, and up to `tasks` tasks
    /// between the two submitters; returns the states seen.
    fn prove(in_flight: &[[usize; 2]], depths: &[usize], slacks: &[u64], tasks: u64) -> usize {
        let mut states = 0;
        for &in_flight in in_flight {
            for &depth in depths {
                for &slack in slacks {
                    for a in 0..=tasks {
                        for b in 0..=tasks - a {
                            let run = Run {
                                in_flight,
                                depth,
                                slack,
                                tasks: [a, b],
                            };
                            states += run.explore().unwrap_or_else(|e| {
                                panic!(
                                    "in_flight {in_flight:?}, depth {depth}, slack {slack}, \
                                     tasks {:?}: {e}",
                                    run.tasks
                                )
                            });
                        }
                    }
                }
            }
        }
        states
    }

    /// The batch path is proven from the push to the release over every
    /// schedule of up to 3 tasks, the lanes holding 1 and 2 threads or 2
    /// and 1, at depth 1 and 2 and the narrowest window (see [`prove`];
    /// ~3 s in debug). A step is one critical section of a shell and its
    /// notifies: each lane's submitter pushes its tasks and makes its
    /// finish cut; the service may flush what is built and close at any
    /// point; the scheduler starts lanes and cuts a building batch for
    /// its age at any point; the lane threads and the sink run as ever.
    /// At every state: no lane queues more than `depth` batches, nor
    /// builds one it has no room to cut, nor builds one after close; a
    /// push that fills a batch cuts it; a batch starts only inside the
    /// window, and each lane starts its tasks in push order; nothing is
    /// taken from a submitter after close, nor cut once the path has
    /// closed; and a sleeper whose question has another answer is an
    /// error, so a lane with a batch cut and no threads wakes the
    /// scheduler, and so does the push that opens a batch while the
    /// scheduler sleeps with no timeout (no lane was building). At the
    /// end: every role is done, every batch is released, every task
    /// taken has run, every started thread has exited, and a lane never
    /// cut has no threads.
    #[test]
    fn the_batch_path_is_proven_over_every_schedule() {
        let states = prove(&[[1, 2]], &[1], &[0], 3) + prove(&[[2, 1]], &[2], &[0], 3);
        println!("batch path: {states} states explored");
    }

    /// The same over every pairing of 1 or 2 threads, depth 1 or 2 and
    /// a window slack of 0 to 2 (~40 s in debug).
    #[test]
    #[ignore]
    fn the_batch_path_is_proven_over_every_schedule_of_every_shape() {
        let in_flight = [[1, 1], [1, 2], [2, 1], [2, 2]];
        let states = prove(&in_flight, &[1, 2], &[0, 1, 2], 3);
        println!("batch path: {states} states explored");
    }
}
