//! Discrete events.
//!
//! The paper (§III-B): *"The simulator maintains a priority queue Q for
//! seven event types: job arrivals and departures, map and reduce task
//! arrivals and departures, and an event signaling the completion of the
//! map stage. Each event is a triplet (eventTime, eventType, jobId)."*
//!
//! Task *arrivals* (placements) skip the queue: the engine counts each
//! launch as a processed event where it happens, keeping the accounting.
//!
//! The failure/speculation model (§VII future work) adds two more kinds:
//! [`EventKind::HostFailure`] for the seeded fault plan and
//! [`EventKind::SpeculationDue`] for the straggler-detection timer of a
//! running map attempt; [`EventKind::HostRecovery`] restores a failed
//! host when the optional recovery model is armed, and
//! [`EventKind::PolicyWakeup`] is the policy-requested timer behind
//! time-based scheduling (min-share preemption timeouts).

use simmr_types::{JobId, SimTime};

/// The event types of the SimMR engine: the paper's queued kinds plus the
/// failure-model and policy-timer kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A job is submitted to the job master.
    JobArrival,
    /// A job has fully completed and leaves the system.
    JobDeparture,
    /// A map task finishes and frees its slot.
    MapTaskDeparture,
    /// A reduce task finishes and frees its slot.
    ReduceTaskDeparture,
    /// The job's entire map stage has completed (triggers the first-shuffle
    /// fix-up of filler reduce tasks).
    AllMapsFinished,
    /// A worker host is lost (`task_index` carries the host id): its
    /// slots leave the pools, attempts running on them are killed and
    /// requeued, and completed map outputs stored there are re-executed
    /// while the owning job's map stage is still open. The loss is
    /// permanent for the run unless a [`HostRecovery`](Self::HostRecovery)
    /// is scheduled for the host.
    HostFailure,
    /// A running map attempt has outlived the speculation threshold
    /// (`speculation_factor ×` the job's median map duration); if it is
    /// still running, a duplicate attempt becomes schedulable.
    SpeculationDue,
    /// A failed host comes back (`task_index` carries the host id): its
    /// surviving slots rejoin the free pools, empty. Only scheduled when
    /// [`RecoverySpec`](crate::RecoverySpec) is configured.
    HostRecovery,
    /// A scheduling pass requested by the policy via
    /// [`SchedulerPolicy::next_wakeup`](crate::SchedulerPolicy::next_wakeup)
    /// — fires time-based decisions (min-share preemption timeouts) that
    /// would otherwise wait for the next queue event.
    PolicyWakeup,
}

/// One scheduled event: the paper's `(eventTime, eventType, jobId)` triplet
/// plus a task index for task events and a tie-breaking sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Monotone sequence number assigned at push; makes ordering total and
    /// the simulation deterministic.
    pub seq: u64,
    /// What happens.
    pub kind: EventKind,
    /// The job the event belongs to.
    pub job: JobId,
    /// Task index within the job's map or reduce stage (0 for job events).
    pub task_index: u32,
    /// Attempt generation of the task (bumped when a task is preempted and
    /// relaunched; stale departure events are ignored).
    pub attempt: u32,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, seq: u64) -> Event {
        Event {
            time: SimTime::from_millis(time),
            seq,
            kind: EventKind::JobArrival,
            job: JobId(0),
            task_index: 0,
            attempt: 0,
        }
    }

    #[test]
    fn ordering_by_time_then_seq() {
        assert!(ev(1, 5) < ev(2, 0));
        assert!(ev(1, 0) < ev(1, 1));
        assert_eq!(ev(3, 3).cmp(&ev(3, 3)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn kind_is_copy_and_hashable() {
        use std::collections::HashSet;
        let kinds: HashSet<EventKind> = [
            EventKind::JobArrival,
            EventKind::JobDeparture,
            EventKind::MapTaskDeparture,
            EventKind::ReduceTaskDeparture,
            EventKind::AllMapsFinished,
            EventKind::HostFailure,
            EventKind::SpeculationDue,
            EventKind::HostRecovery,
            EventKind::PolicyWakeup,
        ]
        .into_iter()
        .collect();
        assert_eq!(kinds.len(), 9);
    }
}
