//! The event priority queue.

use crate::event::{Event, EventKind};
use simmr_types::{JobId, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic min-priority queue of [`Event`]s, ordered by
/// `(time, insertion sequence)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    pushed: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// An empty queue with room for `n` in-flight events without
    /// reallocating.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue { heap: BinaryHeap::with_capacity(n), next_seq: 0, pushed: 0 }
    }

    /// Reserves sequence numbers `0..n` for [`Self::push_arrival`].
    pub(crate) fn reserve_arrival_seqs(mut self, n: usize) -> Self {
        self.next_seq = n as u64;
        self
    }

    /// Schedules `job`'s arrival under its id as sequence number: same-time
    /// arrivals pop in id order, ahead of all else, however late pulled.
    pub(crate) fn push_arrival(&mut self, time: SimTime, job: JobId) {
        self.pushed += 1;
        let (kind, seq) = (EventKind::JobArrival, job.0 as u64);
        self.heap.push(Reverse(Event { time, seq, kind, job, task_index: 0, attempt: 0 }));
    }

    /// Schedules an event; insertion order breaks same-time ties.
    pub fn push(&mut self, time: SimTime, kind: EventKind, job: JobId, task_index: u32) {
        self.push_attempt(time, kind, job, task_index, 0);
    }

    /// Schedules an event carrying a task attempt generation.
    pub fn push_attempt(
        &mut self,
        time: SimTime,
        kind: EventKind,
        job: JobId,
        task_index: u32,
        attempt: u32,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.heap.push(Reverse(Event { time, seq, kind, job, task_index, attempt }));
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Peeks at the earliest event's time.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever pushed (the engine's event count).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// The pending events in deterministic `(time, seq)` order, plus the
    /// `(next_seq, pushed)` counters — everything a checkpoint needs to
    /// reconstruct a queue that behaves identically to this one.
    pub(crate) fn snapshot(&self) -> (Vec<Event>, u64, u64) {
        let mut events: Vec<Event> = self.heap.iter().map(|Reverse(e)| *e).collect();
        events.sort_unstable();
        (events, self.next_seq, self.pushed)
    }

    /// Rebuilds a queue from a [`Self::snapshot`]: every event keeps its
    /// original sequence number, so same-time ties break exactly as they
    /// would have in the run that produced the snapshot. The heap's
    /// internal array layout may differ, but pop order is a total order
    /// over `(time, seq)`, so the difference is unobservable.
    pub(crate) fn from_snapshot(events: Vec<Event>, next_seq: u64, pushed: u64) -> Self {
        EventQueue { heap: events.into_iter().map(Reverse).collect(), next_seq, pushed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), EventKind::JobArrival, JobId(0), 0);
        q.push(SimTime::from_millis(10), EventKind::JobArrival, JobId(1), 0);
        q.push(SimTime::from_millis(20), EventKind::JobArrival, JobId(2), 0);
        assert_eq!(q.pop().unwrap().job, JobId(1));
        assert_eq!(q.pop().unwrap().job, JobId(2));
        assert_eq!(q.pop().unwrap().job, JobId(0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.push(t, EventKind::MapTaskDeparture, JobId(i), 0);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().job, JobId(i));
        }
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, EventKind::JobArrival, JobId(0), 0);
        q.push(SimTime::ZERO, EventKind::JobArrival, JobId(1), 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.next_time(), Some(SimTime::ZERO));
    }

    proptest! {
        /// Popped times are non-decreasing regardless of push order.
        #[test]
        fn monotone_pop(times in proptest::collection::vec(0u64..10_000, 1..300)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_millis(t), EventKind::JobArrival, JobId(i as u32), 0);
            }
            let mut last = SimTime::ZERO;
            while let Some(e) = q.pop() {
                prop_assert!(e.time >= last);
                last = e.time;
            }
        }
    }
}
