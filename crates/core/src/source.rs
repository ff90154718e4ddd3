//! Job ingestion: the [`JobSource`] abstraction.
//!
//! Every engine pulls its jobs from a `JobSource`: an **arrival-ordered**
//! pull iterator plus two header facts (job count, first arrival) that
//! let the engine size nothing proportional to the trace. The engine keeps
//! exactly one arrival of lookahead in its event queue, pulling the next
//! job when the current arrival event pops, so resident memory tracks the
//! *active* job span rather than the trace length.
//!
//! In-memory traces adapt through [`TraceJobSource`] (all
//! [`crate::SimulatorEngine::new`] does), the binary trace format
//! (`simmr-trace`'s `binfmt`) streams records off disk, and a checkpoint's
//! not-yet-pulled jobs feed the resumed run.
//!
//! ## Contract
//!
//! * `next_job` yields jobs in non-decreasing arrival order; the engine
//!   verifies this and fails the run on a violation (an out-of-order
//!   arrival would silently corrupt the event clock).
//! * Each job carries its [`JobId`] (a trace position or record index),
//!   distinct and below `job_count`, increasing across same-instant
//!   arrivals; the engine rejects out-of-range and repeated ids.
//! * `job_count` is the exact number of jobs the source will yield, known
//!   up front (both trace containers record it in their headers).
//! * Templates are handed over as `Arc<JobTemplate>` so a source backed
//!   by an interned table shares one allocation across all its jobs.

use simmr_types::{JobId, JobTemplate, SimTime, WorkloadTrace};
use std::sync::Arc;

/// One job pulled from a [`JobSource`].
#[derive(Debug, Clone)]
pub struct SourcedJob {
    /// Identity in reports and policy hooks (trace position, record index).
    pub id: JobId,
    /// The job's replayable profile, shared with the source's table.
    pub template: Arc<JobTemplate>,
    /// Submission time (non-decreasing across the source).
    pub arrival: SimTime,
    /// Optional absolute deadline.
    pub deadline: Option<SimTime>,
}

/// A failure while pulling from a [`JobSource`] (I/O, decode, or a
/// contract violation such as out-of-order arrivals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError {
    message: String,
}

impl SourceError {
    /// Wraps a failure description.
    pub fn new(message: impl Into<String>) -> Self {
        SourceError { message: message.into() }
    }
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job source error: {}", self.message)
    }
}

impl std::error::Error for SourceError {}

/// An arrival-ordered stream of jobs with known count, feeding
/// [`crate::SimulatorEngine::from_source`].
pub trait JobSource {
    /// Exact number of jobs this source yields over its lifetime.
    fn job_count(&self) -> usize;

    /// Earliest arrival across the stream (`None` for an empty source).
    fn first_arrival(&self) -> Option<SimTime>;

    /// Pulls the next job in arrival order; `Ok(None)` when exhausted.
    fn next_job(&mut self) -> Result<Option<SourcedJob>, SourceError>;
}

/// Adapts a materialized [`WorkloadTrace`] (in any job order) to the
/// arrival-ordered [`JobSource`] contract — the source behind
/// [`crate::SimulatorEngine::new`].
///
/// Jobs are yielded sorted by `(arrival, trace position)` with their trace
/// position as id, so reports index jobs as the trace does. Each pull
/// clones the job's template into a fresh `Arc`.
#[derive(Debug)]
pub struct TraceJobSource<'a> {
    trace: &'a WorkloadTrace,
    /// Job indices sorted by `(arrival, index)`.
    order: Vec<u32>,
    next: usize,
}

impl<'a> TraceJobSource<'a> {
    /// Builds the arrival-ordered view of `trace`.
    pub fn new(trace: &'a WorkloadTrace) -> Self {
        let mut order: Vec<u32> = (0..trace.jobs.len() as u32).collect();
        order.sort_by_key(|&i| (trace.jobs[i as usize].arrival, i));
        TraceJobSource { trace, order, next: 0 }
    }
}

impl JobSource for TraceJobSource<'_> {
    fn job_count(&self) -> usize {
        self.trace.jobs.len()
    }

    fn first_arrival(&self) -> Option<SimTime> {
        self.order.first().map(|&i| self.trace.jobs[i as usize].arrival)
    }

    fn next_job(&mut self) -> Result<Option<SourcedJob>, SourceError> {
        let Some(&i) = self.order.get(self.next) else {
            return Ok(None);
        };
        self.next += 1;
        let spec = &self.trace.jobs[i as usize];
        Ok(Some(SourcedJob {
            id: JobId(i),
            template: Arc::new(spec.template.clone()),
            arrival: spec.arrival,
            deadline: spec.deadline,
        }))
    }
}

/// A checkpoint's not-yet-pulled jobs, fed back to the resumed run.
impl JobSource for std::vec::IntoIter<SourcedJob> {
    fn job_count(&self) -> usize {
        self.len()
    }

    fn first_arrival(&self) -> Option<SimTime> {
        self.as_slice().first().map(|j| j.arrival)
    }

    fn next_job(&mut self) -> Result<Option<SourcedJob>, SourceError> {
        Ok(self.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_types::JobSpec;

    fn job(name: &str, arrival_ms: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new(name, vec![10], vec![], vec![], vec![]).unwrap(),
            SimTime::from_millis(arrival_ms),
        )
    }

    #[test]
    fn trace_source_yields_arrival_order() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(job("late", 500));
        trace.push(job("early", 100));
        trace.push(job("tie-a", 100));
        let mut src = TraceJobSource::new(&trace);
        assert_eq!(src.job_count(), 3);
        assert_eq!(src.first_arrival(), Some(SimTime::from_millis(100)));
        let mut names = Vec::new();
        while let Some(j) = src.next_job().unwrap() {
            names.push(j.template.name.to_string());
        }
        // ties keep original trace order
        assert_eq!(names, vec!["early", "tie-a", "late"]);
        assert!(src.next_job().unwrap().is_none());
    }

    #[test]
    fn trace_source_ids_are_trace_positions() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(job("late", 500));
        trace.push(job("early", 100));
        trace.push(job("tie-a", 100));
        let mut src = TraceJobSource::new(&trace);
        let mut ids = Vec::new();
        while let Some(j) = src.next_job().unwrap() {
            ids.push(j.id.0);
        }
        assert_eq!(ids, vec![1, 2, 0]);
    }

    #[test]
    fn empty_trace_source() {
        let trace = WorkloadTrace::default();
        let mut src = TraceJobSource::new(&trace);
        assert_eq!(src.job_count(), 0);
        assert_eq!(src.first_arrival(), None);
        assert!(src.next_job().unwrap().is_none());
    }
}
