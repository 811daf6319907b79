//! A session's delivery state as one value with no lock, condvar or
//! thread inside, [`Outbox`]: the events queued for the receiver, the
//! bytes they hold, the reads in flight, and whether the session has
//! finished and its receiver is still there. The service keeps one per
//! session under the session's mutex and wakes whom each transition's
//! [`Wake`] names; a unit test walks every schedule of a submitter, the
//! sink and a receiver. The sink books a read's rows in the step that
//! frees its slot, so buffered bytes stay within
//! [`ServiceConfig::session_output_bound`](crate::ServiceConfig::session_output_bound).

use std::collections::VecDeque;

use crate::service::{SessionEvent, SessionMetrics};

/// Whom a transition asks its caller to wake, after the lock is
/// dropped: the submitter (`room`), the receiver (`ready`). A role is
/// named only while it sleeps and its question has a new answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub(crate) struct Wake {
    pub(crate) room: bool,
    pub(crate) ready: bool,
}

/// What [`Outbox::admit`] tells the submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    Go,
    /// At a cap: sleep until woken, then ask again.
    Wait,
    /// The receiver is gone: submit nothing more.
    Gone,
}

/// What [`Outbox::take`] tells the receiver.
pub(crate) enum Taken {
    /// The oldest event and its bytes.
    Event(SessionEvent, u64, Wake),
    /// Nothing is queued: sleep until woken, then ask again.
    Wait,
    /// Nothing is queued and nothing will be.
    Closed,
}

/// What [`Outbox::deliver`] did: `queued` is false once the receiver is
/// gone; `ended`, the session's `End` followed.
#[must_use]
pub(crate) struct Delivered {
    pub(crate) wake: Wake,
    pub(crate) queued: bool,
    pub(crate) ended: bool,
}

/// See the module docs. A cap of 0 is no cap.
#[derive(Default)]
pub(crate) struct Outbox {
    queue: VecDeque<(SessionEvent, u64)>,
    /// The bytes of the queued events.
    buffered: u64,
    in_flight: u64,
    out_cap: u64,
    read_cap: u64,
    finished: bool,
    /// `End` is queued, or the service went away: nothing follows.
    closed: bool,
    receiver_gone: bool,
    explain_on: bool,
    metrics: SessionMetrics,
    /// The last `admit` said `Wait`, and the last `take`.
    submitter_asleep: bool,
    receiver_asleep: bool,
}

impl Outbox {
    /// Caps of `out_cap` buffered bytes and `read_cap` reads in flight.
    pub(crate) fn new(out_cap: usize, read_cap: usize) -> Outbox {
        let (out_cap, read_cap) = (out_cap as u64, read_cap as u64);
        Outbox {
            out_cap,
            read_cap,
            ..Outbox::default()
        }
    }

    fn admission(&self) -> Admit {
        let full = |n, cap| cap > 0 && n >= cap;
        if self.receiver_gone {
            Admit::Gone
        } else if full(self.in_flight, self.read_cap) || full(self.buffered, self.out_cap) {
            Admit::Wait
        } else {
            Admit::Go
        }
    }

    /// Each sleeper whose question now has another answer, named once.
    fn wakes(&mut self) -> Wake {
        let room = self.submitter_asleep && self.admission() != Admit::Wait;
        let ready = self.receiver_asleep && (self.closed || !self.queue.is_empty());
        self.submitter_asleep &= !room;
        self.receiver_asleep &= !ready;
        Wake { room, ready }
    }

    /// Queue `event` of `bytes` unless the receiver is gone.
    fn push(&mut self, event: SessionEvent, bytes: u64) -> bool {
        if !self.receiver_gone {
            self.buffered += bytes;
            self.queue.push_back((event, bytes));
        }
        !self.receiver_gone
    }

    /// Queue a read's explain line, rendered only if it will be queued.
    fn explain(&mut self, line: impl FnOnce() -> String) {
        if self.explain_on && !self.receiver_gone {
            self.push(SessionEvent::Explain(line()), 0);
        }
    }

    /// Queue `End` if the session has finished with no read in flight.
    fn end(&mut self) -> bool {
        let end = self.finished && self.in_flight == 0 && !self.closed;
        if end {
            self.push(SessionEvent::End(self.metrics.clone()), 0);
            self.closed = true;
        }
        end
    }

    /// The submitter asks to submit a read.
    pub(crate) fn admit(&mut self) -> Admit {
        let admit = self.admission();
        self.submitter_asleep = admit == Admit::Wait;
        admit
    }

    /// An admitted read of `tasks` tasks over `bases` bases is in
    /// flight. Wakes nobody.
    pub(crate) fn register(&mut self, tasks: u64, bases: u64) {
        self.in_flight += 1;
        let m = &mut self.metrics;
        m.reads_in += 1;
        m.reads_mapped += 1;
        m.tasks += tasks;
        m.task_bases += bases;
    }

    /// An admitted read has no candidate: only its explain line follows.
    pub(crate) fn unmapped(&mut self, explain: impl FnOnce() -> String) -> Wake {
        self.metrics.reads_in += 1;
        self.metrics.reads_unmapped += 1;
        self.explain(explain);
        self.wakes()
    }

    /// The sink delivers the oldest read in flight: `event` is its rows,
    /// of `bytes`, or its failure; its explain line follows, and `End`
    /// if it was the finished session's last.
    pub(crate) fn deliver(
        &mut self,
        event: SessionEvent,
        bytes: u64,
        explain: impl FnOnce() -> String,
    ) -> Delivered {
        debug_assert!(self.in_flight > 0 && !self.closed);
        match &event {
            SessionEvent::Rows(rows) if !self.receiver_gone => {
                self.metrics.records_out += rows.len() as u64
            }
            SessionEvent::ReadFailed { .. } => self.metrics.reads_failed += 1,
            _ => {}
        }
        let queued = self.push(event, bytes);
        self.explain(explain);
        self.in_flight -= 1;
        let ended = self.end();
        Delivered {
            wake: self.wakes(),
            queued,
            ended,
        }
    }

    /// The submitter finishes; true when `End` followed.
    pub(crate) fn finish(&mut self) -> (Wake, bool) {
        self.finished = true;
        let ended = self.end();
        (self.wakes(), ended)
    }

    /// The receiver asks for the oldest event.
    pub(crate) fn take(&mut self) -> Taken {
        self.receiver_asleep = false;
        match self.queue.pop_front() {
            Some((event, bytes)) => {
                self.buffered -= bytes;
                Taken::Event(event, bytes, self.wakes())
            }
            None if self.closed => Taken::Closed,
            None => {
                self.receiver_asleep = true;
                Taken::Wait
            }
        }
    }

    /// The receiver is dropped: what it never took goes, and so do its
    /// bytes, which this returns.
    pub(crate) fn drop_receiver(&mut self) -> (Wake, u64) {
        self.receiver_gone = true;
        self.queue.clear();
        let orphaned = std::mem::take(&mut self.buffered);
        (self.wakes(), orphaned)
    }

    /// The service went away before the session ended.
    pub(crate) fn abandon(&mut self) -> Wake {
        self.closed = true;
        self.wakes()
    }

    pub(crate) fn set_explain(&mut self, on: bool) {
        self.explain_on = on;
    }

    pub(crate) fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }

    pub(crate) fn buffered(&self) -> u64 {
        self.buffered
    }

    pub(crate) fn closed(&self) -> bool {
        self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};
    use std::rc::Rc;

    use align_core::Cigar;

    use crate::record::AlignRecord;

    /// What the walk reads of an event: its kind and the read it names.
    fn key(event: &SessionEvent) -> String {
        match event {
            SessionEvent::Rows(rows) => format!("rows {}", rows[0].qname),
            SessionEvent::ReadFailed { read } => format!("failed {read}"),
            SessionEvent::Explain(line) => format!("explain {line}"),
            SessionEvent::End(_) => "end".into(),
        }
    }

    /// Read `i`'s rows: one record that names it.
    fn rows(i: u64) -> SessionEvent {
        SessionEvent::Rows(vec![AlignRecord {
            qname: format!("r{i}"),
            qlen: 0,
            tname: String::new(),
            tsize: 0,
            tstart: 0,
            tend: 0,
            reverse: false,
            edit_distance: 0,
            cigar: Cigar::new(),
            identity: 1.0,
        }])
    }

    impl Clone for Outbox {
        fn clone(&self) -> Self {
            Outbox {
                queue: self.queue.clone(),
                metrics: self.metrics.clone(),
                ..*self
            }
        }
    }

    impl Outbox {
        /// What the steps read: the counters are telemetry, and the
        /// caps do not change.
        fn state(&self) -> (Vec<(String, u64)>, [u64; 2], [bool; 6]) {
            let queue = self.queue.iter().map(|(e, bytes)| (key(e), *bytes));
            let flags = [
                self.finished,
                self.closed,
                self.receiver_gone,
                self.explain_on,
                self.submitter_asleep,
                self.receiver_asleep,
            ];
            (queue.collect(), [self.buffered, self.in_flight], flags)
        }
    }

    impl PartialEq for Outbox {
        fn eq(&self, o: &Self) -> bool {
            self.state() == o.state()
        }
    }

    impl Eq for Outbox {}

    impl Hash for Outbox {
        fn hash<H: Hasher>(&self, h: &mut H) {
            self.state().hash(h);
        }
    }

    #[test]
    fn a_read_at_the_output_cap_waits_for_the_receiver() {
        let mut ob = Outbox::new(10, 0);
        assert_eq!(ob.admit(), Admit::Go);
        ob.register(1, 100);
        let d = ob.deliver(rows(0), 10, String::new);
        assert!(d.queued && !d.ended && d.wake == Wake::default());
        assert_eq!(ob.admit(), Admit::Wait);
        let Taken::Event(event, 10, wake) = ob.take() else {
            panic!("the rows are queued")
        };
        assert_eq!(key(&event), "rows r0");
        assert!(wake.room, "the taken bytes admit the submitter");
        assert_eq!(ob.admit(), Admit::Go);
        assert!(matches!(ob.take(), Taken::Wait));
        assert_eq!(
            ob.finish(),
            (
                Wake {
                    room: false,
                    ready: true
                },
                true
            )
        );
        assert!(matches!(ob.take(), Taken::Event(SessionEvent::End(m), 0, _) if m.reads_in == 1));
        assert!(matches!(ob.take(), Taken::Closed), "nothing after End");
    }

    #[test]
    fn an_abandoned_session_closes_its_receiver() {
        let mut ob = Outbox::new(0, 0);
        ob.register(1, 100);
        assert!(matches!(ob.take(), Taken::Wait));
        assert_eq!(
            ob.abandon(),
            Wake {
                room: false,
                ready: true
            }
        );
        assert!(matches!(ob.take(), Taken::Closed));
    }

    /// The submitter, modelled: it asks to submit read `i` next (at the
    /// run's last read it can only finish), or sleeps with it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Sub {
        Next(u64),
        Asleep(u64),
        Done,
    }

    /// The receiver, modelled.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Recv {
        Awake,
        Asleep,
        /// It took `End`, then heard that nothing more comes.
        Ended,
        Dropped,
    }

    /// One state of a session: the value and where each role is. Each
    /// step is one critical section of a shell in `service.rs`, with
    /// the notifies that follow it.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        ob: Outbox,
        sub: Sub,
        recv: Recv,
        /// The registered reads the sink has not delivered, oldest
        /// first.
        pending: VecDeque<u64>,
        /// The keys of the events the receiver is owed, oldest first.
        owed: VecDeque<String>,
        /// Transitions that said the session ended.
        ends: u8,
    }

    /// Bytes of the rows the sink may deliver for a read; `None`, a
    /// failed read.
    const OUTCOMES: [Option<u64>; 3] = [Some(1), Some(2), None];

    /// One modelled run: `reads` reads at most, under caps of `read_cap`
    /// reads in flight and `out_cap` buffered bytes, with explain lines
    /// or without.
    struct Run {
        read_cap: u64,
        out_cap: u64,
        reads: u64,
        explain: bool,
    }

    /// Wake the sleepers `w` names, as the shell's notifies do; naming
    /// a role that is awake is an error.
    fn wake(s: &mut World, w: Wake) -> Result<(), String> {
        if w.room {
            let Sub::Asleep(i) = s.sub else {
                return Err(format!("woke the submitter at {:?}", s.sub));
            };
            s.sub = Sub::Next(i);
        }
        if w.ready {
            if s.recv != Recv::Asleep {
                return Err(format!("woke the receiver at {:?}", s.recv));
            }
            s.recv = Recv::Awake;
        }
        Ok(())
    }

    /// Owe the receiver `event` unless it is gone.
    fn owe(s: &mut World, event: String) {
        if s.recv != Recv::Dropped {
            s.owed.push_back(event);
        }
    }

    impl Run {
        /// A transition said the session ended: it must be the first to,
        /// with the submitter done and no read in flight.
        fn ended(&self, s: &mut World) -> Result<(), String> {
            s.ends += 1;
            if s.ends > 1 || s.sub != Sub::Done || !s.pending.is_empty() {
                return Err(format!("ended again or early: {:?}", (s.sub, &s.pending)));
            }
            owe(s, "end".into());
            Ok(())
        }

        /// The submitter steps from `Next(i)`: it asks to submit read
        /// `i`, then registers it or finds it unmapped, in one critical
        /// section; or it finishes (a dropped session finishes too).
        fn sub(&self, s: &World, i: u64) -> Result<Vec<World>, String> {
            let mut next = Vec::new();
            if i < self.reads {
                let mut s = s.clone();
                match s.ob.admit() {
                    Admit::Go if s.recv == Recv::Dropped => {
                        return Err("a dropped receiver's submitter was admitted".into())
                    }
                    Admit::Go => {
                        let mut mapped = s.clone();
                        mapped.ob.register(1, 1);
                        mapped.pending.push_back(i);
                        mapped.sub = Sub::Next(i + 1);
                        next.push(mapped);
                        let w = s.ob.unmapped(|| format!("u{i}"));
                        if self.explain {
                            owe(&mut s, format!("explain u{i}"));
                        }
                        s.sub = Sub::Next(i + 1);
                        wake(&mut s, w)?;
                        next.push(s);
                    }
                    Admit::Wait => {
                        s.sub = Sub::Asleep(i);
                        next.push(s);
                    }
                    Admit::Gone if s.recv != Recv::Dropped => {
                        return Err("the submitter heard Gone from a live receiver".into())
                    }
                    Admit::Gone => {
                        s.sub = Sub::Next(self.reads);
                        next.push(s);
                    }
                }
            }
            let mut s = s.clone();
            let (w, ended) = s.ob.finish();
            s.sub = Sub::Done;
            wake(&mut s, w)?;
            if ended {
                self.ended(&mut s)?;
            }
            next.push(s);
            Ok(next)
        }

        /// The sink delivers the oldest read in flight, one state per
        /// outcome.
        fn sink(&self, s: &World) -> Result<Vec<World>, String> {
            let mut next = Vec::new();
            for outcome in OUTCOMES {
                let mut s = s.clone();
                let i = s.pending.pop_front().expect("a read is in flight");
                let (event, bytes) = match outcome {
                    Some(bytes) => (rows(i), bytes),
                    None => (
                        SessionEvent::ReadFailed {
                            read: format!("r{i}"),
                        },
                        0,
                    ),
                };
                owe(&mut s, key(&event));
                if self.explain {
                    owe(&mut s, format!("explain r{i}"));
                }
                let d = s.ob.deliver(event, bytes, || format!("r{i}"));
                if d.queued != (s.recv != Recv::Dropped) {
                    return Err(format!("read {i} queued {} for {:?}", d.queued, s.recv));
                }
                wake(&mut s, d.wake)?;
                if d.ended {
                    self.ended(&mut s)?;
                }
                next.push(s);
            }
            Ok(next)
        }

        /// The awake receiver takes the oldest event, or drops.
        fn recv(&self, s: &World) -> Result<Vec<World>, String> {
            let mut took = s.clone();
            match took.ob.take() {
                Taken::Event(event, _, w) => {
                    let owed = took.owed.pop_front();
                    if owed.as_deref() != Some(&key(&event)) {
                        return Err(format!("took {:?}, owed {owed:?}", key(&event)));
                    }
                    wake(&mut took, w)?;
                }
                Taken::Wait => took.recv = Recv::Asleep,
                Taken::Closed if took.ends == 0 || !took.owed.is_empty() => {
                    return Err(format!("closed with {:?} owed", took.owed))
                }
                Taken::Closed => took.recv = Recv::Ended,
            }
            let mut dropped = s.clone();
            let (w, _) = dropped.ob.drop_receiver();
            dropped.recv = Recv::Dropped;
            dropped.owed.clear();
            wake(&mut dropped, w)?;
            Ok(vec![took, dropped])
        }

        /// The rules every state keeps.
        fn check(&self, s: &World) -> Result<(), String> {
            let bound = self.out_cap + self.read_cap * 2;
            if s.ob.buffered > bound {
                return Err(format!("{} bytes buffered, bound {bound}", s.ob.buffered));
            }
            if s.ob.in_flight > self.read_cap || s.ob.in_flight != s.pending.len() as u64 {
                return Err(format!("{} reads in flight", s.ob.in_flight));
            }
            let queued: u64 = s.ob.queue.iter().map(|(_, bytes)| bytes).sum();
            if queued != s.ob.buffered {
                return Err(format!("{queued} bytes queued, {} booked", s.ob.buffered));
            }
            let ends = s.ob.queue.iter().filter(|(e, _)| key(e) == "end").count();
            let last = s.ob.queue.back().is_some_and(|(e, _)| key(e) == "end");
            if ends > 1 || ends == 1 && !last {
                return Err("End is queued twice, or not last".into());
            }
            if ends == 1 && (s.sub != Sub::Done || s.ob.in_flight > 0) {
                return Err("End is queued before the session finished and drained".into());
            }
            if s.recv == Recv::Dropped && (s.ob.buffered > 0 || !s.ob.queue.is_empty()) {
                return Err(format!("a dropped receiver left {} bytes", s.ob.buffered));
            }
            // A sleeper whose question now has another answer is lost,
            // even if a later wake-up would rescue it.
            if matches!(s.sub, Sub::Asleep(_)) && s.ob.clone().admit() != Admit::Wait {
                return Err("the submitter sleeps through a change nobody woke it for".into());
            }
            if s.recv == Recv::Asleep && !matches!(s.ob.clone().take(), Taken::Wait) {
                return Err("the receiver sleeps through a change nobody woke it for".into());
            }
            Ok(())
        }

        /// Nobody can step: the session ended once, every read
        /// registered was delivered, and a receiver that stayed took
        /// every event it was owed.
        fn check_end(&self, s: &World) -> Result<(), String> {
            let over = matches!(s.recv, Recv::Ended | Recv::Dropped) && s.sub == Sub::Done;
            if !over || s.ends != 1 || !s.pending.is_empty() || !s.owed.is_empty() {
                return Err(format!("stuck: {:?}, {:?}, {} ends", s.sub, s.recv, s.ends));
            }
            Ok(())
        }

        /// Every state one step from `s`.
        fn steps(&self, s: &World) -> Result<Vec<World>, String> {
            let mut next = Vec::new();
            if let Sub::Next(i) = s.sub {
                next.extend(self.sub(s, i)?);
            }
            if !s.pending.is_empty() {
                next.extend(self.sink(s)?);
            }
            if s.recv == Recv::Awake {
                next.extend(self.recv(s)?);
            }
            Ok(next)
        }

        /// Explore every schedule; returns the states seen.
        fn explore(&self) -> Result<usize, String> {
            let mut ob = Outbox::new(self.out_cap as usize, self.read_cap as usize);
            ob.set_explain(self.explain);
            let start = Rc::new(World {
                ob,
                sub: Sub::Next(0),
                recv: Recv::Awake,
                pending: VecDeque::new(),
                owed: VecDeque::new(),
                ends: 0,
            });
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

    /// A session is proven over every schedule of up to 3 reads, under
    /// caps of 1 or 2 reads in flight and 1 or 2 buffered bytes (a read's
    /// rows hold 1 or 2), with explain lines and without. A step is one
    /// critical section of a shell and its notifies: the submitter asks
    /// to submit each read and registers it or finds it unmapped, and
    /// finishes at any point (a dropped session finishes too); the sink
    /// delivers the reads in flight, in order, as rows or failures; the
    /// receiver takes events, or drops at any point. At every state:
    /// buffered bytes stay within `session_output_bound`, and reads in
    /// flight within the cap; the receiver takes the events in the order
    /// they were delivered; `End` is queued once, last, and only once
    /// the session has finished with no read in flight; a dropped
    /// receiver leaves no byte buffered, and its submitter hears `Gone`;
    /// a transition names only a sleeper, and a sleeper whose question
    /// has another answer is an error. At the end: the session ended
    /// once, every read was delivered, and a receiver that stayed took
    /// every event it was owed.
    #[test]
    fn the_session_outbox_is_proven_over_every_schedule() {
        let mut states = 0;
        for read_cap in 1..=2 {
            for out_cap in 1..=2 {
                for reads in 0..=3 {
                    for explain in [false, true] {
                        let run = Run {
                            read_cap,
                            out_cap,
                            reads,
                            explain,
                        };
                        states += run.explore().unwrap_or_else(|e| {
                            panic!(
                                "read cap {read_cap}, output cap {out_cap}, {reads} reads, \
                                 explain {explain}: {e}"
                            )
                        });
                    }
                }
            }
        }
        println!("session outbox: {states} states explored");
    }
}
