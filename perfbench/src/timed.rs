//! Transparent timing decorators: a [`SchedulerPolicy`] and a
//! [`JobSource`] that forward every call unchanged and add the time spent
//! inside it to shared counters. They measure the policy and trace-decode
//! layers from outside, without touching the program under test; the
//! `transparent` test proves a decorated run's report is byte-identical
//! to an undecorated one.

use simmr_core::{JobEntry, JobQueue, JobSource, SchedulerPolicy, SourceError, SourcedJob};
use simmr_types::{ClusterSpec, DurationMs, JobId, JobTemplate, SimTime};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Every hook call is counted, one in [`SAMPLE_EVERY`] is timed: the
/// hooks are a few nanoseconds each, so timing all of them would more
/// than double the run.
const SAMPLE_EVERY: u64 = 16;

/// Counters one [`TimedPolicy`] fills.
#[derive(Debug)]
pub struct HookStats {
    /// Hook calls of any kind.
    pub calls: Cell<u64>,
    /// `choose_next_*` calls.
    pub choose_calls: Cell<u64>,
    /// `choose_next_*` calls that returned a job.
    pub picks: Cell<u64>,
    /// Hook calls that were timed.
    pub sampled: Cell<u64>,
    /// Nanoseconds measured inside the timed calls.
    pub sampled_ns: Cell<u64>,
    /// xorshift state choosing which calls to time.
    rng: Cell<u64>,
}

impl Default for HookStats {
    fn default() -> Self {
        HookStats {
            calls: Cell::new(0),
            choose_calls: Cell::new(0),
            picks: Cell::new(0),
            sampled: Cell::new(0),
            sampled_ns: Cell::new(0),
            rng: Cell::new(0x9E37_79B9_7F4A_7C15),
        }
    }
}

impl HookStats {
    /// Starts a hook call: counts it and returns a start time when this
    /// call is one of the timed sample.
    fn begin(&self) -> Option<Instant> {
        self.calls.set(self.calls.get() + 1);
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x.is_multiple_of(SAMPLE_EVERY).then(Instant::now)
    }

    fn end(&self, start: Option<Instant>) {
        if let Some(t) = start {
            self.sampled_ns.set(self.sampled_ns.get() + t.elapsed().as_nanos() as u64);
            self.sampled.set(self.sampled.get() + 1);
        }
    }

    fn end_choice(&self, start: Option<Instant>, picked: bool) {
        self.end(start);
        self.choose_calls.set(self.choose_calls.get() + 1);
        self.picks.set(self.picks.get() + u64::from(picked));
    }

    /// Estimated seconds inside hooks: the timed calls' mean, less the
    /// clock's own cost `clock_ns` per reading, scaled to every call.
    pub fn busy_s(&self, clock_ns: f64) -> f64 {
        let sampled = self.sampled.get() as f64;
        let mean_ns = ratio(self.sampled_ns.get() as f64, sampled) - clock_ns;
        mean_ns.max(0.0) * self.calls.get() as f64 * 1e-9
    }

    /// Share of `choose_next_*` calls that returned a job (0 without calls).
    pub fn pick_yield(&self) -> f64 {
        ratio(self.picks.get() as f64, self.choose_calls.get() as f64)
    }
}

/// Mean nanoseconds an empty interval measures with `Instant`: the cost
/// of one clock reading, taken off every timed call.
pub fn clock_ns() -> f64 {
    const N: u32 = 200_000;
    let mut total = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        total += std::hint::black_box(t).elapsed().as_nanos();
    }
    total as f64 / f64::from(N)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A policy decorator that counts every hook call and times a sample.
pub struct TimedPolicy<'a> {
    inner: Box<dyn SchedulerPolicy + 'a>,
    stats: Rc<HookStats>,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner`, adding to `stats`.
    pub fn new(inner: Box<dyn SchedulerPolicy + 'a>, stats: Rc<HookStats>) -> Self {
        TimedPolicy { inner, stats }
    }
}

impl SchedulerPolicy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_job_arrival(
        &mut self,
        id: JobId,
        template: &JobTemplate,
        relative_deadline: Option<DurationMs>,
        cluster: ClusterSpec,
    ) {
        let t = self.stats.begin();
        self.inner.on_job_arrival(id, template, relative_deadline, cluster);
        self.stats.end(t);
    }

    fn on_job_departure(&mut self, id: JobId) {
        let t = self.stats.begin();
        self.inner.on_job_departure(id);
        self.stats.end(t);
    }

    fn on_job_queued(&mut self, entry: &JobEntry) {
        let t = self.stats.begin();
        self.inner.on_job_queued(entry);
        self.stats.end(t);
    }

    fn on_entry_mutated(&mut self, before: &JobEntry, after: &JobEntry) {
        let t = self.stats.begin();
        self.inner.on_entry_mutated(before, after);
        self.stats.end(t);
    }

    fn on_job_dequeued(&mut self, entry: &JobEntry) {
        let t = self.stats.begin();
        self.inner.on_job_dequeued(entry);
        self.stats.end(t);
    }

    fn choose_next_map_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        let t = self.stats.begin();
        let pick = self.inner.choose_next_map_task(jobq);
        self.stats.end_choice(t, pick.is_some());
        pick
    }

    fn choose_next_reduce_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        let t = self.stats.begin();
        let pick = self.inner.choose_next_reduce_task(jobq);
        self.stats.end_choice(t, pick.is_some());
        pick
    }

    fn map_preemptions(&mut self, jobq: &JobQueue, victims: &mut Vec<JobId>) {
        let t = self.stats.begin();
        self.inner.map_preemptions(jobq, victims);
        self.stats.end(t);
    }

    fn next_wakeup(&mut self, jobq: &JobQueue) -> Option<SimTime> {
        let t = self.stats.begin();
        let at = self.inner.next_wakeup(jobq);
        self.stats.end(t);
        at
    }

    fn verify_invariants(&self, jobq: &JobQueue) {
        self.inner.verify_invariants(jobq);
    }

    fn snapshot(&self) -> Vec<u8> {
        self.inner.snapshot()
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), String> {
        self.inner.restore(blob)
    }
}

/// Counters one [`TimedSource`] fills.
#[derive(Debug, Default)]
pub struct PullStats {
    /// `next_job` calls.
    pub pulls: Cell<u64>,
    /// Jobs pulled.
    pub jobs: Cell<u64>,
    /// Nanoseconds spent inside `next_job`.
    pub pull_ns: Cell<u64>,
}

/// A job-source decorator that times every pull.
pub struct TimedSource<S> {
    inner: S,
    stats: Rc<PullStats>,
}

impl<S: JobSource> TimedSource<S> {
    /// Wraps `inner`, adding to `stats`.
    pub fn new(inner: S, stats: Rc<PullStats>) -> Self {
        TimedSource { inner, stats }
    }
}

impl<S: JobSource> JobSource for TimedSource<S> {
    fn job_count(&self) -> usize {
        self.inner.job_count()
    }

    fn first_arrival(&self) -> Option<SimTime> {
        self.inner.first_arrival()
    }

    fn next_job(&mut self) -> Result<Option<SourcedJob>, SourceError> {
        let t = Instant::now();
        let job = self.inner.next_job();
        self.stats.pull_ns.set(self.stats.pull_ns.get() + t.elapsed().as_nanos() as u64);
        self.stats.pulls.set(self.stats.pulls.get() + 1);
        if matches!(job, Ok(Some(_))) {
            self.stats.jobs.set(self.stats.jobs.get() + 1);
        }
        job
    }
}

impl PullStats {
    /// Seconds inside `next_job`, less the clock's own cost `clock_ns`
    /// per reading.
    pub fn pull_s(&self, clock_ns: f64) -> f64 {
        (self.pull_ns.get() as f64 - clock_ns * self.pulls.get() as f64).max(0.0) * 1e-9
    }
}
