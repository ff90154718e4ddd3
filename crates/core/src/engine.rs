//! The discrete-event Simulator Engine (§III-B).
//!
//! # Hot path
//!
//! The engine keeps a persistent, incrementally-maintained [`JobQueue`]:
//! entries are inserted on job arrival, removed on departure, and mutated
//! in place (O(1)) by every launch / completion / preemption — scheduling
//! never rebuilds a snapshot of the active jobs. A dirty flag skips the
//! scheduling pass entirely for event batches that did not change the
//! queue. Task *arrival* marker events are not pushed through the priority
//! queue either: a launch is counted directly in `events_processed` and the
//! end-of-batch scheduling loop re-runs until no further task launches at
//! the current instant, which preserves the exact fixpoint semantics the
//! markers used to provide.
//!
//! # Failure and speculation model
//!
//! Beyond the paper's failure-free engine, three opt-in mechanisms model a
//! lossy cluster (all off by default and fully deterministic under a seed):
//!
//! * **Host failures** ([`crate::FaultSpec`] / [`SimulatorEngine::with_fault_plan`]):
//!   slots are striped over [`simmr_types::ClusterSpec::hosts`] workers;
//!   when a host fails its slots leave the pools, attempts running on
//!   them are killed and requeued, and — Hadoop semantics — completed map
//!   tasks whose output lived on the lost host are re-executed while the
//!   job's map stage is still open. Host 0 never fails (it models the
//!   master's worker), so every workload stays finishable. Failures are
//!   permanent for the run unless **host recovery**
//!   ([`crate::RecoverySpec`]) is armed, which brings each failed host
//!   back after a seeded exponential downtime, its slots rejoining the
//!   pools empty.
//! * **Speculative execution** ([`EngineConfig::with_speculation`]): a map
//!   attempt running past `factor ×` its job's median map duration gets a
//!   duplicate attempt; the first finisher wins and the losers are killed.
//! * **Per-slot slowdown** ([`EngineConfig::with_slowdown`]): each slot
//!   draws a multiplicative speed factor at startup, scaling every task
//!   duration it executes — the straggler source speculation exists for.
//!
//! Task identity is `(task index, attempt)`: every launch bumps the task's
//! attempt counter, and a departure whose pair is no longer in the running
//! list is stale (killed by preemption, a host failure, or a lost
//! speculation race) and ignored.

use crate::config::EngineConfig;
use crate::event::EventKind;
use crate::invariants::InvariantState;
use crate::jobq::{JobEntry, JobQueue, SchedulerPolicy};
use crate::queue::EventQueue;
use crate::source::{JobSource, SourceError, TraceJobSource};
use simmr_stats::{Dist, Distribution, SeededRng};
use simmr_types::{
    DurationMs, HostId, JobId, JobResult, JobTemplate, SimTime, SimulationReport, TimelineEntry,
    TimelinePhase, WorkloadTrace,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// One planned host failure: `host` is lost at time `at` (permanently,
/// unless the run arms [`crate::RecoverySpec`]).
///
/// Plans are normally derived from a seeded [`crate::FaultSpec`]; tests and
/// what-if runs can install an explicit plan with
/// [`SimulatorEngine::with_fault_plan`]. Failures naming host 0 or a host
/// outside the cluster, or a host that already failed, are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFailure {
    /// The failing host.
    pub host: HostId,
    /// When it fails.
    pub at: SimTime,
}

/// A live map attempt occupying a slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunningMap {
    pub(crate) idx: u32,
    pub(crate) attempt: u32,
    pub(crate) start: SimTime,
    pub(crate) slot: u32,
}

/// A live reduce attempt occupying a slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunningReduce {
    pub(crate) idx: u32,
    pub(crate) attempt: u32,
    pub(crate) start: SimTime,
    pub(crate) slot: u32,
    /// End of the shuffle phase; [`SimTime::INFINITY`] while the task is an
    /// unresolved first-wave filler.
    pub(crate) shuffle_end: SimTime,
}

/// Runtime state of one job inside the engine. Fields are crate-visible so
/// the invariant checker (`crate::invariants`) can re-derive the policy
/// view from first principles, and so checkpoints (`crate::checkpoint`)
/// can serialize jobs field by field.
#[derive(Debug, Clone)]
pub(crate) struct JobState {
    /// The job's replayable profile. Shared (not cloned) with a streaming
    /// source's interned template table.
    pub(crate) template: Arc<JobTemplate>,
    pub(crate) arrival: SimTime,
    pub(crate) deadline: Option<SimTime>,
    pub(crate) maps_total: usize,
    pub(crate) reduces_total: usize,
    /// Next never-launched map task index.
    pub(crate) fresh_maps: usize,
    /// Map tasks returned to the queue by a kill (LIFO relaunch).
    pub(crate) requeued_maps: Vec<u32>,
    /// Live map attempts in launch order; the last entry is the preemption
    /// victim of choice. A task has two entries while a speculative
    /// duplicate races its primary.
    pub(crate) running_map_list: Vec<RunningMap>,
    /// Monotone per-task launch counter; stamps each attempt so stale
    /// departures of killed attempts can be recognized.
    pub(crate) map_gen: Vec<u32>,
    /// Completion flags per map task.
    pub(crate) map_done: Vec<bool>,
    /// Slot whose host stores each completed map's output (the winning
    /// attempt's slot); a host failure re-runs maps whose output it held.
    pub(crate) map_done_slot: Vec<u32>,
    pub(crate) maps_completed: usize,
    /// Next never-launched reduce task index.
    pub(crate) fresh_reduces: usize,
    /// Reduce tasks returned to the queue by a host failure.
    pub(crate) requeued_reduces: Vec<u32>,
    /// Live reduce attempts (unresolved fillers carry an infinite
    /// `shuffle_end` until `AllMapsFinished`).
    pub(crate) running_reduce_list: Vec<RunningReduce>,
    /// Monotone per-task launch counter for reduces.
    pub(crate) reduce_gen: Vec<u32>,
    pub(crate) reduces_completed: usize,
    /// Map tasks completed before reduces become schedulable.
    pub(crate) reduce_threshold: usize,
    pub(crate) active: bool,
    pub(crate) first_map_start: Option<SimTime>,
    pub(crate) maps_finished: Option<SimTime>,
    /// Straggler threshold in ms (`speculation_factor ×` the job's median
    /// map duration, ≥ 1); 0 when speculation is disabled.
    pub(crate) spec_threshold: DurationMs,
    /// Per-task flag: a speculative duplicate was already requested (reset
    /// when a failure forces the task to re-run from scratch).
    pub(crate) speculated: Vec<bool>,
    /// Tasks whose speculative duplicate is awaiting a slot. Every entry
    /// still has a live primary attempt in `running_map_list`.
    pub(crate) spec_pending: Vec<u32>,
}

impl JobState {
    /// Fresh (pre-arrival) runtime state for one job.
    fn new(
        template: Arc<JobTemplate>,
        arrival: SimTime,
        deadline: Option<SimTime>,
        config: &EngineConfig,
    ) -> Self {
        let spec_threshold = match config.speculation_factor {
            Some(factor) if template.num_maps > 0 => {
                let mut ds: Vec<DurationMs> =
                    (0..template.num_maps).map(|i| template.map_duration(i)).collect();
                ds.sort_unstable();
                // upper median; clamped ≥ 1ms so zero-duration maps never
                // trigger a duplicate
                ((ds[ds.len() / 2] as f64 * factor).round() as u64).max(1)
            }
            _ => 0,
        };
        let (num_maps, num_reduces) = (template.num_maps, template.num_reduces);
        JobState {
            arrival,
            deadline,
            maps_total: num_maps,
            reduces_total: num_reduces,
            fresh_maps: 0,
            requeued_maps: Vec::new(),
            running_map_list: Vec::new(),
            map_gen: vec![0; num_maps],
            map_done: vec![false; num_maps],
            map_done_slot: vec![0; num_maps],
            maps_completed: 0,
            fresh_reduces: 0,
            requeued_reduces: Vec::new(),
            running_reduce_list: Vec::new(),
            reduce_gen: vec![0; num_reduces],
            reduces_completed: 0,
            reduce_threshold: config.reduce_start_threshold(num_maps),
            active: false,
            first_map_start: None,
            maps_finished: None,
            spec_threshold,
            speculated: vec![false; num_maps],
            spec_pending: Vec::new(),
            template,
        }
    }

    /// Map launches the policy may still request: fresh or requeued tasks
    /// plus pending speculative duplicates.
    fn pending_maps(&self) -> usize {
        (self.maps_total - self.fresh_maps) + self.requeued_maps.len() + self.spec_pending.len()
    }

    /// Reduce tasks not yet launched (fresh or requeued by a host failure).
    fn pending_reduces(&self) -> usize {
        (self.reduces_total - self.fresh_reduces) + self.requeued_reduces.len()
    }
}

/// One id's slot in the [`JobTable`] (and in a checkpoint's copy of it).
#[derive(Debug, Clone)]
pub(crate) enum JobSlot {
    /// Not pulled from the source yet (only an out-of-order source leaves
    /// these below the newest admission).
    Pending,
    Live(Box<JobState>),
    Retired,
}

impl JobSlot {
    pub(crate) fn state(&self) -> Option<&JobState> {
        if let JobSlot::Live(state) = self {
            Some(state)
        } else {
            None
        }
    }
}

/// The engine's job-state table, addressed by [`JobId`].
///
/// Jobs are admitted under their source's ids and **retired** on
/// departure: a retired slot drops its boxed state immediately and the
/// window compacts from the front (never past a still-pending id), so
/// resident memory tracks the span between the oldest live job and the
/// newest admission — not the trace length. A retired id resolves to
/// `None`, which is what makes stale in-flight events of departed jobs
/// (duplicate departures, straggler timers, killed-attempt departures)
/// cheap no-ops. Ids are never reused.
#[derive(Debug, Default)]
pub(crate) struct JobTable {
    /// Live window; index `i` holds the slot of `JobId(base + i)`.
    slots: VecDeque<JobSlot>,
    /// Id of the oldest slot still in the window.
    base: usize,
}

impl JobTable {
    /// The id window `[lo, hi)` that may hold live jobs.
    pub(crate) fn id_range(&self) -> (usize, usize) {
        (self.base, self.base + self.slots.len())
    }

    /// Admits a job under `job`; false when the id was admitted before.
    fn admit(&mut self, job: JobId, state: Box<JobState>) -> bool {
        let Some(i) = job.index().checked_sub(self.base) else {
            return false;
        };
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || JobSlot::Pending);
        }
        if !matches!(self.slots[i], JobSlot::Pending) {
            return false;
        }
        self.slots[i] = JobSlot::Live(state);
        true
    }

    pub(crate) fn get(&self, job: JobId) -> Option<&JobState> {
        self.slots.get(job.index().checked_sub(self.base)?)?.state()
    }

    fn get_mut(&mut self, job: JobId) -> Option<&mut JobState> {
        let slot = self.slots.get_mut(job.index().checked_sub(self.base)?)?;
        if let JobSlot::Live(state) = slot {
            Some(state)
        } else {
            None
        }
    }

    /// Drops a departed job's state and compacts the window front.
    fn retire(&mut self, job: JobId) {
        if let Some(i) = job.index().checked_sub(self.base) {
            if let Some(slot) = self.slots.get_mut(i) {
                *slot = JobSlot::Retired;
            }
        }
        while matches!(self.slots.front(), Some(JobSlot::Retired)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Iterates the live jobs in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (JobId, &JobState)> {
        (self.base..).zip(&self.slots).filter_map(|(id, s)| Some((JobId(id as u32), s.state()?)))
    }
}

/// Applies a per-slot slowdown factor to a base duration.
#[inline]
fn scaled(base: DurationMs, factor: f64) -> DurationMs {
    (base as f64 * factor).round() as u64
}

/// Slot slowdown factors below this are clamped: a factor near zero would
/// make a slot's tasks effectively free.
const MIN_SLOWDOWN: f64 = 0.05;

/// RNG stream labels (forked off the user seed) for the derived plans.
/// Each plan draws from its own stream so enabling one never perturbs the
/// others.
const FAULT_STREAM: u64 = 1;
const SLOWDOWN_STREAM: u64 = 2;
const RECOVERY_STREAM: u64 = 3;

/// The SimMR Simulator Engine.
///
/// Replays the jobs of a [`JobSource`] (a [`WorkloadTrace`] via
/// [`Self::new`]) against a slot-based job-master model under a pluggable
/// [`SchedulerPolicy`]. See the crate docs for the model and an
/// end-to-end example.
pub struct SimulatorEngine<'a> {
    pub(crate) config: EngineConfig,
    /// The job feed, pulled one arrival ahead of the clock.
    source: Box<dyn JobSource + 'a>,
    /// Arrival of the most recently pulled job, for enforcing the source's
    /// ordering contract.
    last_pulled_arrival: SimTime,
    /// Ids handed out: the source's `0..job_count`, then injected jobs'.
    job_ids: usize,
    /// Visible to the invariant checker, which runs the policy's own
    /// `verify_invariants` hook against the settled queue view.
    pub(crate) policy: Box<dyn SchedulerPolicy + 'a>,
    queue: EventQueue,
    pub(crate) free_map_slots: Vec<u32>,
    pub(crate) free_reduce_slots: Vec<u32>,
    /// Hosts that have failed so far.
    pub(crate) dead_hosts: Vec<bool>,
    /// Map slots currently lost to a host failure (never free, never
    /// occupied while dead; restored only by a `HostRecovery`).
    pub(crate) dead_map_slots: Vec<bool>,
    /// Reduce slots currently lost to a host failure.
    pub(crate) dead_reduce_slots: Vec<bool>,
    /// Planned host failures, derived from `config.faults` or installed
    /// explicitly via [`Self::with_fault_plan`].
    fault_plan: Vec<HostFailure>,
    /// Per-map-slot duration multipliers; empty when slowdown is disabled
    /// (tasks then run at their exact template durations, integer-only).
    map_slowdown: Vec<f64>,
    /// Per-reduce-slot duration multipliers (shuffle and reduce phases).
    reduce_slowdown: Vec<f64>,
    pub(crate) jobs: JobTable,
    /// Persistent active-job view handed to the policy; kept in sync
    /// incrementally by every state transition.
    pub(crate) jobq: JobQueue,
    /// Set when an event changed `jobq` (or policy state) since the last
    /// completed scheduling pass; a clean queue makes `schedule` a no-op.
    pub(crate) jobq_dirty: bool,
    /// Scratch buffer for preemption victim lists, reused across rounds.
    victims: Vec<JobId>,
    /// Earliest outstanding `PolicyWakeup` timer, if any: arming is
    /// deduplicated against it, and a popped timer that does not match is
    /// stale (superseded by an earlier one) and ignored.
    policy_wakeup_at: Option<SimTime>,
    /// Time of the most recently popped event — the engine clock. After a
    /// settled batch this is the batch instant, which is what a checkpoint
    /// records as its boundary.
    clock: SimTime,
    /// Set once the initial events (first arrival, fault plan,
    /// recoveries) have been seeded; a resumed engine starts seeded (its
    /// event heap came from the checkpoint).
    seeded: bool,
    events_processed: u64,
    timeline: Vec<TimelineEntry>,
    results: Vec<Option<JobResult>>,
    makespan: SimTime,
    /// Opt-in runtime invariant checker (`None` on the production hot
    /// path). Boxed so a disabled engine pays one pointer of space and a
    /// predictable branch per event batch.
    invariants: Option<Box<InvariantState>>,
    /// Debug-only reference mode: rebuild the job view from scratch before
    /// every scheduling pass instead of trusting the incremental updates.
    #[cfg(any(test, debug_assertions))]
    snapshot_oracle: bool,
}

impl<'a> SimulatorEngine<'a> {
    /// Builds an engine replaying a materialized trace (job ids are trace
    /// positions): [`Self::from_source`] over a [`TraceJobSource`].
    ///
    /// Never panics: templates are validated as jobs are pulled, so an
    /// invalid one fails the run with a [`SourceError`] from
    /// [`Self::try_run`] (a panic from [`Self::run`]).
    pub fn new(
        config: EngineConfig,
        trace: &'a WorkloadTrace,
        policy: Box<dyn SchedulerPolicy + 'a>,
    ) -> Self {
        Self::from_source(config, Box::new(TraceJobSource::new(trace)), policy)
    }

    /// Builds an engine fed by a [`JobSource`].
    ///
    /// Exactly one arrival of lookahead is held in the event queue: the
    /// next job is pulled when the current arrival event pops, and a
    /// departed job's state is dropped immediately, so resident memory
    /// tracks the *active* job span rather than the source's job count.
    /// Source failures (I/O, decode, an out-of-order arrival, an invalid
    /// template) surface through [`Self::try_run`].
    pub fn from_source(
        config: EngineConfig,
        source: Box<dyn JobSource + 'a>,
        policy: Box<dyn SchedulerPolicy + 'a>,
    ) -> Self {
        let cluster = config.cluster;
        let job_ids = source.job_count();
        let (map_slowdown, reduce_slowdown) = match config.slowdown {
            Some(sd) => {
                let mut rng = SeededRng::new(sd.seed).fork(SLOWDOWN_STREAM);
                let mut draw =
                    |n: usize| (0..n).map(|_| sd.dist.sample(&mut rng).max(MIN_SLOWDOWN)).collect();
                let maps: Vec<f64> = draw(cluster.map_slots);
                let reduces: Vec<f64> = draw(cluster.reduce_slots);
                (maps, reduces)
            }
            None => (Vec::new(), Vec::new()),
        };
        let fault_plan: Vec<HostFailure> = match config.faults {
            Some(f) if cluster.hosts > 1 && f.count > 0 => {
                let mut rng = SeededRng::new(f.seed).fork(FAULT_STREAM);
                let gaps = Dist::Exponential { mean: f.mean_interval_ms.max(1) as f64 };
                let mut at = SimTime::ZERO;
                (0..f.count)
                    .map(|_| {
                        at += (gaps.sample(&mut rng).round() as u64).max(1);
                        // host 0 never fails, keeping every workload finishable
                        let host = HostId(1 + rng.index(cluster.hosts - 1) as u32);
                        HostFailure { host, at }
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        // in-flight events: the arrival lookahead, at most one departure
        // per occupied slot, and the fault plan
        let queue_capacity = cluster.map_slots
            + cluster.reduce_slots
            + config.faults.map_or(0, |f| f.count as usize)
            + 16;
        let results = if config.collect_job_results { vec![None; job_ids] } else { Vec::new() };
        SimulatorEngine {
            config,
            source,
            last_pulled_arrival: SimTime::ZERO,
            job_ids,
            policy,
            queue: EventQueue::with_capacity(queue_capacity).reserve_arrival_seqs(job_ids),
            free_map_slots: (0..cluster.map_slots as u32).rev().collect(),
            free_reduce_slots: (0..cluster.reduce_slots as u32).rev().collect(),
            dead_hosts: vec![false; cluster.hosts],
            dead_map_slots: vec![false; cluster.map_slots],
            dead_reduce_slots: vec![false; cluster.reduce_slots],
            fault_plan,
            map_slowdown,
            reduce_slowdown,
            jobs: JobTable::default(),
            jobq: JobQueue::with_capacity(job_ids.min(1024)),
            jobq_dirty: false,
            victims: Vec::new(),
            policy_wakeup_at: None,
            clock: SimTime::ZERO,
            seeded: false,
            events_processed: 0,
            timeline: Vec::new(),
            results,
            makespan: SimTime::ZERO,
            invariants: config.invariants_enabled().then(|| Box::new(InvariantState::new(&config))),
            #[cfg(any(test, debug_assertions))]
            snapshot_oracle: false,
        }
    }

    /// Replaces the seeded fault plan with an explicit failure list (tests
    /// and what-if runs). Entries naming host 0, an unknown host, or an
    /// already-failed host are ignored at fire time.
    pub fn with_fault_plan(mut self, plan: Vec<HostFailure>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The host failures this run will inject, in plan order.
    pub fn fault_plan(&self) -> &[HostFailure] {
        &self.fault_plan
    }

    /// Debug-only reference mode: rebuilds the job view from the engine's
    /// per-job state before every scheduling pass (the pre-incremental
    /// behavior) and never skips a pass. Any divergence between a normal
    /// run and an oracle run is a bug in the incremental bookkeeping; the
    /// property tests compare the two report-for-report.
    #[cfg(any(test, debug_assertions))]
    pub fn with_snapshot_oracle(mut self) -> Self {
        self.snapshot_oracle = true;
        self
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the job source fails mid-run — for engines built with
    /// [`Self::new`], only a trace holding an invalid job template; callers
    /// who want the failure as a value use [`Self::try_run`].
    pub fn run(self) -> SimulationReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pulls one job from the source into the job table and schedules its
    /// arrival — the engine's one-event lookahead.
    fn pull_next_arrival(&mut self) -> Result<(), SourceError> {
        let Some(job) = self.source.next_job()? else {
            return Ok(());
        };
        if job.arrival < self.last_pulled_arrival {
            return Err(SourceError::new(format!(
                "out-of-order arrival {} after {} (sources must yield jobs in arrival order)",
                job.arrival.as_millis(),
                self.last_pulled_arrival.as_millis(),
            )));
        }
        job.template.validate().map_err(|e| SourceError::new(e.to_string()))?;
        // An arrival's sequence number is its id (`push_arrival`), so ids
        // must be in range and new: they order same-instant arrivals.
        let state = JobState::new(job.template, job.arrival, job.deadline, &self.config);
        if job.id.index() >= self.job_ids || !self.jobs.admit(job.id, Box::new(state)) {
            return Err(SourceError::new(format!(
                "job id {} is out of range or already admitted",
                job.id
            )));
        }
        self.last_pulled_arrival = job.arrival;
        self.queue.push_arrival(job.arrival, job.id);
        Ok(())
    }

    /// Runs the simulation to completion, surfacing job-source failures
    /// (I/O, decode, ordering violations, invalid templates) as errors.
    pub fn try_run(mut self) -> Result<SimulationReport, SourceError> {
        self.run_loop(None)?;
        Ok(self.finish())
    }

    /// Runs the shared prefix to the last settled batch at or before `t`
    /// and captures it as a checkpoint. The source's not-yet-pulled jobs
    /// are drained into the checkpoint, so the snapshot carries the rest
    /// of the run: resumed through [`Self::resume_materialized`], it
    /// continues byte-identically to never having stopped.
    pub fn checkpoint_at(mut self, t: SimTime) -> Result<crate::EngineCheckpoint, SourceError> {
        self.run_loop(Some(t))?;
        self.capture(t)
    }

    /// Runs the engine to completion with `fork`'s divergences applied at
    /// the last settled batch at or before `fork.at` — the from-scratch
    /// reference a resumed-and-forked run must match byte for byte. Both
    /// paths go through the same [`Self::apply_fork`], so divergence
    /// semantics cannot drift between them.
    pub fn run_forked(mut self, fork: crate::ForkSpec) -> Result<SimulationReport, SourceError> {
        self.run_loop(Some(fork.at))?;
        self.apply_fork(fork).map_err(|e| SourceError::new(e.to_string()))?;
        self.run_loop(None)?;
        Ok(self.finish())
    }

    /// Seeds the initial events on the first [`Self::run_loop`]: the
    /// first arrival (each popped arrival pulls the next), the fault plan
    /// and its recoveries. A no-op on resumed engines, whose event heap
    /// already carries everything still pending.
    fn seed(&mut self) -> Result<(), SourceError> {
        if self.seeded {
            return Ok(());
        }
        self.seeded = true;
        self.pull_next_arrival()?;
        for i in 0..self.fault_plan.len() {
            let f = self.fault_plan[i];
            self.queue.push(f.at, EventKind::HostFailure, JobId(0), f.host.0);
        }
        // One recovery per planned failure, after an exponential downtime
        // drawn from a dedicated stream: arming recovery never perturbs
        // the fault or slowdown plans.
        if let Some(rec) = self.config.recovery {
            let mut rng = SeededRng::new(rec.seed).fork(RECOVERY_STREAM);
            let downtime = Dist::Exponential { mean: rec.mean_ms.max(1) as f64 };
            for i in 0..self.fault_plan.len() {
                let f = self.fault_plan[i];
                let delay = (downtime.sample(&mut rng).round() as u64).max(1);
                self.queue.push(f.at + delay, EventKind::HostRecovery, JobId(0), f.host.0);
            }
        }
        Ok(())
    }

    /// The event loop. With `stop_after` set, stops at the first settled
    /// batch boundary past it: same-instant batching means the loop-top
    /// check only ever fires between batches, so a stopped engine is
    /// always in a checkpointable (fully settled) state.
    fn run_loop(&mut self, stop_after: Option<SimTime>) -> Result<(), SourceError> {
        self.seed()?;
        loop {
            if let Some(stop) = stop_after {
                match self.queue.next_time() {
                    Some(next) if next <= stop => {}
                    _ => break,
                }
            }
            let Some(event) = self.queue.pop() else {
                break;
            };
            self.events_processed += 1;
            // Makespan tracks job completions only: stale events (a killed
            // attempt's in-flight departure, a lost speculation race, a
            // late fault or straggler timer) may pop after the last job
            // has departed.
            if event.kind == EventKind::JobDeparture {
                self.makespan = event.time;
            }
            let now = event.time;
            self.clock = now;
            let job = event.job;
            if let Some(inv) = self.invariants.as_deref_mut() {
                inv.on_event(now);
            }
            match event.kind {
                EventKind::JobArrival => {
                    self.on_job_arrival(job, now);
                    // Refill the lookahead before the batching check below:
                    // a same-instant next arrival must join this batch so
                    // the policy sees every job submitted at the instant.
                    self.pull_next_arrival()?;
                }
                EventKind::MapTaskDeparture => {
                    self.on_map_departure(job, event.task_index, event.attempt, now)
                }
                EventKind::AllMapsFinished => self.on_all_maps_finished(job, now),
                EventKind::ReduceTaskDeparture => {
                    self.on_reduce_departure(job, event.task_index, event.attempt, now)
                }
                EventKind::JobDeparture => self.on_job_departure(job, now),
                EventKind::HostFailure => self.on_host_failure(event.task_index, now),
                EventKind::SpeculationDue => {
                    self.on_speculation_due(job, event.task_index, event.attempt)
                }
                EventKind::HostRecovery => self.on_host_recovery(event.task_index),
                EventKind::PolicyWakeup => self.on_policy_wakeup(now),
            }
            // Make scheduling decisions only once every same-instant event
            // (simultaneous arrivals, departures, AllMapsFinished) has been
            // applied — the job master sees a consistent queue state, and
            // EDF-style policies observe all jobs submitted at that instant.
            if self.queue.next_time() == Some(now) {
                continue;
            }
            // Fixpoint at `now`: launches may complete instantly
            // (zero-duration tasks join the current batch) and unlock
            // further launches, so re-run until the instant is quiescent.
            loop {
                let launched = self.schedule(now);
                self.events_processed += launched;
                if let Some(inv) = self.invariants.as_deref_mut() {
                    inv.note_launches(launched);
                }
                if launched == 0 || self.queue.next_time() == Some(now) {
                    break;
                }
            }
            // The instant is quiescent (no further same-time events):
            // every engine invariant must hold on the settled state.
            if self.invariants.is_some() && self.queue.next_time() != Some(now) {
                let mut inv = self.invariants.take().expect("checked is_some");
                inv.check_batch(self, now);
                self.invariants = Some(inv);
            }
        }
        Ok(())
    }

    /// Assembles the final report from a drained engine, running the
    /// end-of-run invariant checks.
    fn finish(mut self) -> SimulationReport {
        let invariants = self.invariants.take();
        let (free_maps, free_reduces) = (self.free_map_slots.len(), self.free_reduce_slots.len());
        let lost_maps = self.dead_map_slots.iter().filter(|&&d| d).count();
        let lost_reduces = self.dead_reduce_slots.iter().filter(|&&d| d).count();
        let jobs = if self.config.collect_job_results {
            self.results
                .into_iter()
                .enumerate()
                .map(|(i, r)| r.unwrap_or_else(|| panic!("job {i} never departed")))
                .collect()
        } else {
            Vec::new()
        };
        let report = SimulationReport {
            jobs,
            makespan: self.makespan,
            events_processed: self.events_processed,
            timeline: self.timeline,
        };
        if let Some(inv) = invariants {
            inv.check_report(&report, free_maps, free_reduces, lost_maps, lost_reduces);
        }
        report
    }

    /// Asserts (when checking) that the dirty flag covers the queue
    /// mutation that just happened at `site` — every event handler and the
    /// preemption path must set `jobq_dirty` so the next scheduling pass
    /// cannot no-op against a silently changed queue. Task launches are
    /// exempt: they happen *inside* a pass, which re-consults the policy to
    /// a fixpoint before the flag matters again.
    fn note_mutation(&mut self, site: &'static str) {
        let dirty = self.jobq_dirty;
        if let Some(inv) = self.invariants.as_deref_mut() {
            inv.mutation_covered(dirty, site);
        }
    }

    /// Appends a timeline bar, running it through the online per-slot
    /// disjointness check when invariants are enabled.
    fn record_bar(&mut self, bar: TimelineEntry) {
        if let Some(inv) = self.invariants.as_deref_mut() {
            inv.check_bar(&bar);
        }
        self.timeline.push(bar);
    }

    /// The policy-visible entry equivalent to a job's current state.
    pub(crate) fn entry_of(&self, job: JobId) -> JobEntry {
        let s = self.jobs.get(job).expect("entry_of on a retired job");
        JobEntry {
            id: job,
            arrival: s.arrival,
            deadline: s.deadline,
            pending_maps: s.pending_maps(),
            running_maps: s.running_map_list.len(),
            completed_maps: s.maps_completed,
            total_maps: s.maps_total,
            pending_reduces: s.pending_reduces(),
            running_reduces: s.running_reduce_list.len(),
            completed_reduces: s.reduces_completed,
            total_reduces: s.reduces_total,
            reduce_eligible: s.maps_completed >= s.reduce_threshold,
        }
    }

    /// Fetches the incrementally-maintained entry of an active job.
    fn entry_mut(&mut self, job: JobId) -> &mut JobEntry {
        self.jobq.get_mut(job).expect("active job missing from the job queue")
    }

    fn on_job_arrival(&mut self, job: JobId, _now: SimTime) {
        let state = self.jobs.get_mut(job).expect("arrival of a retired job");
        state.active = true;
        let template = Arc::clone(&state.template);
        let relative_deadline = state.deadline.map(|d| d.since(state.arrival));
        let entry = self.entry_of(job);
        self.jobq.insert(entry);
        self.jobq_dirty = true;
        self.policy.on_job_arrival(job, &template, relative_deadline, self.config.cluster);
        // after on_job_arrival so routing-table state (pool assignment)
        // exists before the entry's counters are credited
        self.policy.on_job_queued(&entry);
        self.note_mutation("on_job_arrival");
    }

    fn on_map_departure(&mut self, job: JobId, task_index: u32, attempt: u32, now: SimTime) {
        let speculation = self.config.speculation_factor.is_some();
        let Some(state) = self.jobs.get_mut(job) else {
            // the job already departed and was retired; the attempt this
            // event named was accounted for then
            return;
        };
        let Some(pos) =
            state.running_map_list.iter().position(|r| r.idx == task_index && r.attempt == attempt)
        else {
            // stale departure from a killed attempt (preemption, host
            // failure, or a lost speculation race): its slot was already
            // handled at kill time, and nothing observable changed
            return;
        };
        let winner = state.running_map_list.remove(pos);
        let idx = task_index as usize;
        debug_assert!(!state.map_done[idx], "live attempt of an already-done map");
        state.map_done[idx] = true;
        state.map_done_slot[idx] = winner.slot;
        state.maps_completed += 1;
        // First finisher wins: kill the losing duplicate attempts and
        // cancel a not-yet-launched duplicate. Only speculation can create
        // a second attempt, so the scan is gated off the hot path.
        let mut losers: Vec<RunningMap> = Vec::new();
        let mut spec_cancelled = false;
        if speculation {
            let mut i = 0;
            while i < state.running_map_list.len() {
                if state.running_map_list[i].idx == task_index {
                    losers.push(state.running_map_list.remove(i));
                } else {
                    i += 1;
                }
            }
            if let Some(p) = state.spec_pending.iter().position(|&x| x == task_index) {
                state.spec_pending.remove(p);
                spec_cancelled = true;
            }
        }
        let completed = state.maps_completed;
        let threshold = state.reduce_threshold;
        let all_done = completed == state.maps_total;
        self.free_map_slots.push(winner.slot);
        for l in &losers {
            self.free_map_slots.push(l.slot);
        }
        let entry = self.entry_mut(job);
        let before = *entry;
        entry.running_maps -= 1 + losers.len();
        entry.completed_maps += 1;
        if spec_cancelled {
            entry.pending_maps -= 1;
        }
        let flipped_eligible = !entry.reduce_eligible && completed >= threshold;
        entry.reduce_eligible = completed >= threshold;
        let after = *entry;
        self.policy.on_entry_mutated(&before, &after);
        if flipped_eligible {
            self.jobq.reset_reduce_hint();
        }
        self.jobq_dirty = true;
        // Map bars are recorded at *departure* (not launch): a killed
        // attempt must not leave a full-duration phantom bar overlapping
        // the slot's next occupant.
        if self.config.record_timeline {
            self.record_bar(TimelineEntry {
                job,
                phase: TimelinePhase::Map,
                slot: winner.slot,
                start: winner.start,
                end: now,
            });
            for l in &losers {
                self.record_bar(TimelineEntry {
                    job,
                    phase: TimelinePhase::Map,
                    slot: l.slot,
                    start: l.start,
                    end: now,
                });
            }
        }
        if all_done {
            self.queue.push(now, EventKind::AllMapsFinished, job, 0);
        }
        self.note_mutation("on_map_departure");
    }

    /// Kills the victim job's most recently launched running map attempt:
    /// the slot frees immediately, all progress is lost, and the task
    /// returns to the pending queue for a later relaunch (Hadoop task-kill
    /// semantics) — unless another attempt of the same task is still alive
    /// or pending, in which case the survivor covers it. Returns false when
    /// the job had no running map.
    fn preempt_map(&mut self, job: JobId, now: SimTime) -> bool {
        let Some(state) = self.jobs.get_mut(job) else {
            return false;
        };
        let Some(victim) = state.running_map_list.pop() else {
            return false;
        };
        // The in-flight departure of (idx, attempt) is now stale: the pair
        // is no longer in the running list and attempts are never reused.
        let idx = victim.idx;
        let other_live = state.running_map_list.iter().any(|r| r.idx == idx);
        let mut requeued = false;
        if !other_live {
            if let Some(p) = state.spec_pending.iter().position(|&x| x == idx) {
                // downgrade the pending duplicate to the requeued primary
                state.spec_pending.remove(p);
                state.speculated[idx as usize] = false;
                state.requeued_maps.push(idx);
                // pending count is unchanged: spec_pending −1, requeued +1
            } else {
                state.requeued_maps.push(idx);
                requeued = true;
            }
        }
        self.free_map_slots.push(victim.slot);
        let entry = self.entry_mut(job);
        let before = *entry;
        entry.running_maps -= 1;
        if requeued {
            entry.pending_maps += 1;
        }
        let after = *entry;
        self.policy.on_entry_mutated(&before, &after);
        self.jobq.reset_map_hint();
        // The kill changed the policy-visible queue and freed a slot: the
        // next scheduling pass must not no-op behind a clean flag (a pass
        // that kills without relaunching would otherwise end that way).
        self.jobq_dirty = true;
        // The killed attempt's bar is truncated at the kill instant, so
        // the slot's next occupant never overlaps it.
        if self.config.record_timeline {
            self.record_bar(TimelineEntry {
                job,
                phase: TimelinePhase::Map,
                slot: victim.slot,
                start: victim.start,
                end: now,
            });
        }
        self.note_mutation("preempt_map");
        true
    }

    fn on_all_maps_finished(&mut self, job: JobId, now: SimTime) {
        // A host failure firing at the same instant can reopen the map
        // stage before this event pops, and a rerun wave can queue a second
        // AllMapsFinished later: only the first event of a truly closed
        // stage resolves the fillers.
        {
            let Some(state) = self.jobs.get_mut(job) else {
                return;
            };
            if state.maps_completed != state.maps_total || state.maps_finished.is_some() {
                return;
            }
            state.maps_finished = Some(now);
        }
        // Rewrite every in-flight first-wave filler's "infinite" duration to
        // (non-overlapping first shuffle) + (reduce phase), per §III-B.
        // Resolving fillers changes neither the job queue nor the free
        // slots, so this handler leaves the dirty flag untouched.
        let n = self.jobs.get(job).expect("state fetched above").running_reduce_list.len();
        for i in 0..n {
            let state = self.jobs.get(job).expect("state fetched above");
            let r = state.running_reduce_list[i];
            if !r.shuffle_end.is_infinite() {
                // later-wave reduce already fully scheduled at launch
                continue;
            }
            let mut shuffle = state.template.first_shuffle_duration(r.idx as usize);
            let mut reduce = state.template.reduce_duration(r.idx as usize);
            if let Some(&f) = self.reduce_slowdown.get(r.slot as usize) {
                shuffle = scaled(shuffle, f);
                reduce = scaled(reduce, f);
            }
            let shuffle_end = now + shuffle;
            let finish = shuffle_end + reduce;
            self.jobs.get_mut(job).expect("state fetched above").running_reduce_list[i]
                .shuffle_end = shuffle_end;
            self.queue.push_attempt(finish, EventKind::ReduceTaskDeparture, job, r.idx, r.attempt);
            // No bars yet: reduce bars are recorded at departure (or kill)
            // so a host failure can truncate them at the true extent.
        }
        let state = self.jobs.get(job).expect("state fetched above");
        if state.reduces_total == 0 {
            self.queue.push(now, EventKind::JobDeparture, job, 0);
        }
    }

    fn on_reduce_departure(&mut self, job: JobId, task_index: u32, attempt: u32, now: SimTime) {
        let Some(state) = self.jobs.get_mut(job) else {
            // the job already departed and was retired
            return;
        };
        let Some(pos) = state
            .running_reduce_list
            .iter()
            .position(|r| r.idx == task_index && r.attempt == attempt)
        else {
            // stale departure from an attempt killed by a host failure
            return;
        };
        let done = state.running_reduce_list.remove(pos);
        state.reduces_completed += 1;
        let job_done = state.reduces_completed == state.reduces_total
            && state.maps_completed == state.maps_total;
        self.free_reduce_slots.push(done.slot);
        let entry = self.entry_mut(job);
        let before = *entry;
        entry.running_reduces -= 1;
        entry.completed_reduces += 1;
        let after = *entry;
        self.policy.on_entry_mutated(&before, &after);
        self.jobq_dirty = true;
        if self.config.record_timeline {
            self.record_bar(TimelineEntry {
                job,
                phase: TimelinePhase::Shuffle,
                slot: done.slot,
                start: done.start,
                end: done.shuffle_end,
            });
            self.record_bar(TimelineEntry {
                job,
                phase: TimelinePhase::Reduce,
                slot: done.slot,
                start: done.shuffle_end,
                end: now,
            });
        }
        if job_done {
            self.queue.push(now, EventKind::JobDeparture, job, 0);
        }
        self.note_mutation("on_reduce_departure");
    }

    fn on_job_departure(&mut self, job: JobId, now: SimTime) {
        let Some(state) = self.jobs.get_mut(job) else {
            // duplicate departure of an already-retired job
            return;
        };
        state.active = false;
        if let Some(removed) = self.jobq.remove(job) {
            // before on_job_departure, which may drop routing state the
            // policy needs to release the entry's counter contribution
            self.policy.on_job_dequeued(&removed);
        }
        self.jobq_dirty = true;
        if self.config.collect_job_results {
            let state = self.jobs.get(job).expect("state fetched above");
            self.results[job.index()] = Some(JobResult {
                job,
                name: state.template.name.clone(),
                arrival: state.arrival,
                first_map_start: state.first_map_start,
                maps_finished: state.maps_finished,
                completion: now,
                deadline: state.deadline,
                num_maps: state.maps_total,
                num_reduces: state.reduces_total,
            });
        }
        // Retire the state: later in-flight events naming this job (stale
        // attempt departures, straggler timers) resolve to `None` and
        // no-op, and the table's window compacts past it.
        self.jobs.retire(job);
        self.policy.on_job_departure(job);
        self.note_mutation("on_job_departure");
    }

    /// Removes a worker host (fail-stop, Hadoop semantics; permanent for
    /// the run unless a recovery model is armed):
    ///
    /// 1. every slot striped onto the host leaves the free pools forever;
    /// 2. attempts running on those slots are killed and the tasks requeued;
    /// 3. for jobs whose map stage is still open, *completed* map tasks
    ///    whose output lived on the host are re-executed (their output is
    ///    needed by reduces that have not shuffled it yet).
    ///
    /// Host 0 never fails: it always holds at least one slot of each kind
    /// under round-robin striping, so every workload remains finishable.
    /// This also shields against out-of-range hosts in a user fault plan.
    fn on_host_failure(&mut self, host: u32, now: SimTime) {
        let hosts = self.config.cluster.hosts;
        if host == 0 || host as usize >= hosts || self.dead_hosts[host as usize] {
            return;
        }
        self.dead_hosts[host as usize] = true;
        for slot in (host as usize..self.config.cluster.map_slots).step_by(hosts) {
            self.dead_map_slots[slot] = true;
        }
        for slot in (host as usize..self.config.cluster.reduce_slots).step_by(hosts) {
            self.dead_reduce_slots[slot] = true;
        }
        let dead_maps = &self.dead_map_slots;
        self.free_map_slots.retain(|&s| !dead_maps[s as usize]);
        let dead_reduces = &self.dead_reduce_slots;
        self.free_reduce_slots.retain(|&s| !dead_reduces[s as usize]);

        let (lo, hi) = self.jobs.id_range();
        for j in lo..hi {
            let job = JobId(j as u32);
            let Some(state) = self.jobs.get_mut(job) else {
                continue;
            };
            if !state.active {
                continue;
            }
            let mut map_bars: Vec<RunningMap> = Vec::new();
            let mut reduce_bars: Vec<RunningReduce> = Vec::new();
            let mut reruns = 0usize;
            // kill running map attempts placed on the dead host
            let mut i = 0;
            while i < state.running_map_list.len() {
                if !self.dead_map_slots[state.running_map_list[i].slot as usize] {
                    i += 1;
                    continue;
                }
                // ordered remove: later attempts stay "most recent" for
                // the preemption victim choice
                let victim = state.running_map_list.remove(i);
                let idx = victim.idx;
                let other_live = state.running_map_list.iter().any(|r| r.idx == idx);
                if !other_live {
                    if let Some(p) = state.spec_pending.iter().position(|&x| x == idx) {
                        // the pending duplicate becomes the requeued primary
                        state.spec_pending.remove(p);
                        state.speculated[idx as usize] = false;
                    }
                    state.requeued_maps.push(idx);
                }
                map_bars.push(victim);
            }
            // Re-run completed maps whose output lived on the host — but
            // only while the map stage is still open. Once AllMapsFinished
            // has fired, every reduce has entered (or finished) its shuffle
            // and the model treats the map outputs as consumed; the stage
            // never re-opens.
            if state.maps_finished.is_none() {
                for idx in 0..state.maps_total {
                    if state.map_done[idx] && self.dead_map_slots[state.map_done_slot[idx] as usize]
                    {
                        state.map_done[idx] = false;
                        state.maps_completed -= 1;
                        state.speculated[idx] = false;
                        state.requeued_maps.push(idx as u32);
                        reruns += 1;
                    }
                }
            }
            // kill running reduce attempts placed on the dead host
            let mut i = 0;
            while i < state.running_reduce_list.len() {
                if !self.dead_reduce_slots[state.running_reduce_list[i].slot as usize] {
                    i += 1;
                    continue;
                }
                let victim = state.running_reduce_list.remove(i);
                state.requeued_reduces.push(victim.idx);
                reduce_bars.push(victim);
            }
            if map_bars.is_empty() && reduce_bars.is_empty() && reruns == 0 {
                continue;
            }
            // The per-field deltas are intricate here (kills, downgrades,
            // reruns, eligibility may flip back off); re-derive the policy
            // view wholesale from the mutated job state instead.
            let rebuilt = self.entry_of(job);
            let entry = self.entry_mut(job);
            let before = *entry;
            *entry = rebuilt;
            self.policy.on_entry_mutated(&before, &rebuilt);
            if self.config.record_timeline {
                for m in &map_bars {
                    self.record_bar(TimelineEntry {
                        job,
                        phase: TimelinePhase::Map,
                        slot: m.slot,
                        start: m.start,
                        end: now,
                    });
                }
                for r in &reduce_bars {
                    if r.shuffle_end >= now {
                        // killed mid-shuffle (fillers have infinite ends)
                        self.record_bar(TimelineEntry {
                            job,
                            phase: TimelinePhase::Shuffle,
                            slot: r.slot,
                            start: r.start,
                            end: now,
                        });
                    } else {
                        self.record_bar(TimelineEntry {
                            job,
                            phase: TimelinePhase::Shuffle,
                            slot: r.slot,
                            start: r.start,
                            end: r.shuffle_end,
                        });
                        self.record_bar(TimelineEntry {
                            job,
                            phase: TimelinePhase::Reduce,
                            slot: r.slot,
                            start: r.shuffle_end,
                            end: now,
                        });
                    }
                }
            }
        }
        self.jobq.reset_map_hint();
        self.jobq.reset_reduce_hint();
        self.jobq_dirty = true;
        self.note_mutation("on_host_failure");
    }

    /// Restores a failed worker host: the slots it lost rejoin the free
    /// pools, empty (no task state survives the downtime). Ignored for
    /// host 0, out-of-range ids, and hosts that are not currently dead
    /// (the matching failure was itself ignored, or the host already
    /// recovered); a recovered host may fail again if a later fault-plan
    /// entry names it.
    fn on_host_recovery(&mut self, host: u32) {
        let hosts = self.config.cluster.hosts;
        if host == 0 || host as usize >= hosts || !self.dead_hosts[host as usize] {
            return;
        }
        self.dead_hosts[host as usize] = false;
        for slot in (host as usize..self.config.cluster.map_slots).step_by(hosts) {
            if self.dead_map_slots[slot] {
                self.dead_map_slots[slot] = false;
                self.free_map_slots.push(slot as u32);
            }
        }
        for slot in (host as usize..self.config.cluster.reduce_slots).step_by(hosts) {
            if self.dead_reduce_slots[slot] {
                self.dead_reduce_slots[slot] = false;
                self.free_reduce_slots.push(slot as u32);
            }
        }
        self.jobq_dirty = true;
        self.note_mutation("on_host_recovery");
    }

    /// Policy-requested timer (see [`SchedulerPolicy::next_wakeup`]): force
    /// a scheduling pass so time-based decisions (min-share preemption
    /// timeouts) fire at their exact instant instead of waiting for the
    /// next queue event. A timer that was superseded by an earlier one is
    /// stale and ignored.
    fn on_policy_wakeup(&mut self, now: SimTime) {
        if self.policy_wakeup_at != Some(now) {
            return;
        }
        self.policy_wakeup_at = None;
        self.jobq_dirty = true;
        self.note_mutation("on_policy_wakeup");
    }

    /// Straggler timer: the attempt launched `speculation_factor × median`
    /// ago is still running — make a duplicate attempt schedulable. The
    /// event is stale (ignored) when the attempt already finished or was
    /// killed; a task is speculated at most once per primary attempt.
    fn on_speculation_due(&mut self, job: JobId, task_index: u32, attempt: u32) {
        let Some(state) = self.jobs.get_mut(job) else {
            // the job departed (and was retired) before its timer fired
            return;
        };
        let idx = task_index as usize;
        if state.map_done[idx] || state.speculated[idx] {
            return;
        }
        if !state.running_map_list.iter().any(|r| r.idx == task_index && r.attempt == attempt) {
            return;
        }
        state.speculated[idx] = true;
        state.spec_pending.push(task_index);
        let entry = self.entry_mut(job);
        let before = *entry;
        entry.pending_maps += 1;
        let after = *entry;
        self.policy.on_entry_mutated(&before, &after);
        self.jobq.reset_map_hint();
        self.jobq_dirty = true;
        self.note_mutation("on_speculation_due");
    }

    /// Rebuilds the policy view from scratch, in the same `(arrival, id)`
    /// order the incremental queue guarantees. Shared by the debug-only
    /// snapshot oracle and the checkpoint-restore path, so the oracle's
    /// differential tests exercise the exact rebuild `resume_from` relies
    /// on.
    fn rebuild_jobq(&mut self) {
        let mut entries: Vec<crate::JobEntry> =
            self.jobs.iter().filter(|(_, s)| s.active).map(|(id, _)| self.entry_of(id)).collect();
        entries.sort_by_key(|e| (e.arrival, e.id));
        self.jobq.clear();
        for entry in entries {
            self.jobq.insert(entry);
        }
    }

    /// One scheduling pass: drains free slots through the policy against
    /// the incrementally-maintained job view. Returns the number of task
    /// launches (each counts as one processed event). Skipped outright when
    /// nothing changed since the previous pass.
    fn schedule(&mut self, now: SimTime) -> u64 {
        #[cfg(any(test, debug_assertions))]
        if self.snapshot_oracle {
            self.rebuild_jobq();
            self.jobq_dirty = true;
        }
        if !self.jobq_dirty {
            return 0;
        }
        self.jobq_dirty = false;
        // NOTE: no free-slot early return here. A fully busy cluster must
        // still reach the preemption rounds below — bailing out when no
        // slot of either kind is free silently disabled `map_preemptions`
        // exactly when preemption matters most.
        self.jobq.now = now;
        if self.jobq.is_empty() {
            // still consult the wakeup hook: time-based policies clear
            // their starvation clocks when the queue drains
            self.consult_wakeup(now);
            return 0;
        }
        let mut launched = 0u64;

        while !self.free_map_slots.is_empty() {
            let Some(id) = self.policy.choose_next_map_task(&self.jobq) else {
                break;
            };
            let Some(entry) = self.jobq.get(id) else {
                debug_assert!(false, "policy chose unknown job {id}");
                break;
            };
            if !entry.has_schedulable_map() {
                debug_assert!(false, "policy chose job {id} without pending maps");
                break;
            }
            self.launch_map(id, now);
            launched += 1;
        }

        // Preemption rounds: when the map slots are exhausted, the policy
        // may name victim jobs whose most recent map task is killed and
        // requeued, freeing slots for more urgent work. Bounded by the
        // cluster size so a misbehaving policy cannot loop forever.
        let mut rounds = self.config.cluster.map_slots;
        while self.free_map_slots.is_empty() && rounds > 0 {
            rounds -= 1;
            self.victims.clear();
            self.policy.map_preemptions(&self.jobq, &mut self.victims);
            if self.victims.is_empty() {
                break;
            }
            let mut any = false;
            for i in 0..self.victims.len() {
                let victim = self.victims[i];
                if self.preempt_map(victim, now) {
                    any = true;
                }
            }
            if !any {
                break;
            }
            while !self.free_map_slots.is_empty() {
                let Some(id) = self.policy.choose_next_map_task(&self.jobq) else {
                    break;
                };
                let Some(entry) = self.jobq.get(id) else {
                    break;
                };
                if !entry.has_schedulable_map() {
                    break;
                }
                self.launch_map(id, now);
                launched += 1;
            }
        }

        while !self.free_reduce_slots.is_empty() {
            let Some(id) = self.policy.choose_next_reduce_task(&self.jobq) else {
                break;
            };
            let Some(entry) = self.jobq.get(id) else {
                debug_assert!(false, "policy chose unknown job {id}");
                break;
            };
            if !entry.has_schedulable_reduce() {
                debug_assert!(false, "policy chose job {id} without schedulable reduces");
                break;
            }
            self.launch_reduce(id, now);
            launched += 1;
        }
        self.consult_wakeup(now);
        launched
    }

    /// Asks the policy for its next time-based deadline and arms a
    /// `PolicyWakeup` timer for it. Arming is deduplicated: a new timer is
    /// pushed only when it is strictly earlier than the outstanding one
    /// (the pop-side handler re-consults after every fired timer, so a
    /// later deadline is re-armed then).
    fn consult_wakeup(&mut self, now: SimTime) {
        if let Some(at) = self.policy.next_wakeup(&self.jobq) {
            if at > now && !at.is_infinite() && self.policy_wakeup_at.is_none_or(|p| at < p) {
                self.policy_wakeup_at = Some(at);
                self.queue.push(at, EventKind::PolicyWakeup, JobId(0), 0);
            }
        }
    }

    fn launch_map(&mut self, job: JobId, now: SimTime) {
        let slot = self.free_map_slots.pop().expect("launch_map called with no free map slot");
        let state = self.jobs.get_mut(job).expect("launch_map on a retired job");
        // Requeued tasks (kills, failure reruns) go first, then fresh tasks,
        // then speculative duplicates of running stragglers.
        let (idx, primary) = if let Some(idx) = state.requeued_maps.pop() {
            (idx, true)
        } else if state.fresh_maps < state.maps_total {
            let fresh = state.fresh_maps as u32;
            state.fresh_maps += 1;
            (fresh, true)
        } else {
            let idx = state
                .spec_pending
                .pop()
                .expect("launch_map called on a job with no pending map work");
            (idx, false)
        };
        state.map_gen[idx as usize] += 1;
        let attempt = state.map_gen[idx as usize];
        state.running_map_list.push(RunningMap { idx, attempt, start: now, slot });
        state.first_map_start.get_or_insert(now);
        let spec_threshold = state.spec_threshold;
        let already_speculated = state.speculated[idx as usize];
        let base = state.template.map_duration(idx as usize);
        let entry = self.entry_mut(job);
        let before = *entry;
        entry.pending_maps -= 1;
        entry.running_maps += 1;
        let after = *entry;
        self.policy.on_entry_mutated(&before, &after);
        let duration = match self.map_slowdown.get(slot as usize) {
            Some(&f) => scaled(base, f),
            None => base,
        };
        self.queue.push_attempt(now + duration, EventKind::MapTaskDeparture, job, idx, attempt);
        // Arm the straggler timer only for primary attempts that will
        // actually outlive the threshold (the common fast case never
        // allocates a timer event).
        if primary && spec_threshold > 0 && duration > spec_threshold && !already_speculated {
            self.queue.push_attempt(
                now + spec_threshold,
                EventKind::SpeculationDue,
                job,
                idx,
                attempt,
            );
        }
        // No timeline bar yet: map bars are recorded when the attempt
        // leaves the slot (departure or kill), so killed attempts show
        // their true truncated extent.
    }

    fn launch_reduce(&mut self, job: JobId, now: SimTime) {
        let slot =
            self.free_reduce_slots.pop().expect("launch_reduce called with no free reduce slot");
        let state = self.jobs.get_mut(job).expect("launch_reduce on a retired job");
        let maps_done = state.maps_finished.is_some();
        let idx = state.requeued_reduces.pop().unwrap_or_else(|| {
            let fresh = state.fresh_reduces as u32;
            state.fresh_reduces += 1;
            fresh
        });
        state.reduce_gen[idx as usize] += 1;
        let attempt = state.reduce_gen[idx as usize];
        // later-wave reduce: typical shuffle + reduce phase (unused for a
        // first-wave filler, whose duration is resolved by AllMapsFinished)
        let base_shuffle = state.template.typical_shuffle_duration(idx as usize);
        let base_reduce = state.template.reduce_duration(idx as usize);
        let entry = self.entry_mut(job);
        let before = *entry;
        entry.pending_reduces -= 1;
        entry.running_reduces += 1;
        let after = *entry;
        self.policy.on_entry_mutated(&before, &after);
        let shuffle_end = if maps_done {
            let (mut shuffle, mut reduce) = (base_shuffle, base_reduce);
            if let Some(&f) = self.reduce_slowdown.get(slot as usize) {
                shuffle = scaled(shuffle, f);
                reduce = scaled(reduce, f);
            }
            let shuffle_end = now + shuffle;
            self.queue.push_attempt(
                shuffle_end + reduce,
                EventKind::ReduceTaskDeparture,
                job,
                idx,
                attempt,
            );
            shuffle_end
        } else {
            // first-wave filler of "infinite" duration; resolved by
            // AllMapsFinished
            SimTime::INFINITY
        };
        self.jobs
            .get_mut(job)
            .expect("state fetched above")
            .running_reduce_list
            .push(RunningReduce { idx, attempt, start: now, slot, shuffle_end });
        // No timeline bars yet: reduce bars are recorded at departure (or
        // kill) so a host failure can truncate them at the true extent.
    }

    /// Snapshots the engine's full deterministic state at the current
    /// settled boundary, draining the source's not-yet-pulled jobs into
    /// it. `at` records the *requested* checkpoint instant; the actual
    /// boundary is `clock` (the last settled batch at or before `at`).
    fn capture(mut self, at: SimTime) -> Result<crate::EngineCheckpoint, SourceError> {
        let mut pending = Vec::new();
        while let Some(job) = self.source.next_job()? {
            pending.push(job);
        }
        let (events, next_seq, pushed) = self.queue.snapshot();
        Ok(crate::EngineCheckpoint {
            at,
            clock: self.clock,
            map_slots: self.config.cluster.map_slots,
            reduce_slots: self.config.cluster.reduce_slots,
            hosts: self.config.cluster.hosts,
            collected: self.config.collect_job_results,
            jobq_dirty: self.jobq_dirty,
            events,
            next_seq,
            pushed,
            last_pulled_arrival: self.last_pulled_arrival,
            job_ids: self.job_ids,
            jobs_base: self.jobs.base,
            jobs: self.jobs.slots.into(),
            pending,
            free_map_slots: self.free_map_slots,
            free_reduce_slots: self.free_reduce_slots,
            dead_hosts: self.dead_hosts,
            dead_map_slots: self.dead_map_slots,
            dead_reduce_slots: self.dead_reduce_slots,
            fault_plan: self.fault_plan,
            map_slowdown: self.map_slowdown,
            reduce_slowdown: self.reduce_slowdown,
            policy_wakeup_at: self.policy_wakeup_at,
            events_processed: self.events_processed,
            makespan: self.makespan,
            timeline: self.timeline,
            results: self.results,
            policy_name: self.policy.name().to_string(),
            policy_blob: self.policy.snapshot(),
        })
    }

    /// Resumes a checkpoint: the continued run pulls the jobs the
    /// checkpoint carries as not yet pulled, so no trace or source is
    /// needed — which is what lets the serve layer replay suffixes from a
    /// memoized checkpoint alone.
    ///
    /// `config` must be the configuration of the original run (the
    /// cluster shape and result collection are validated; behavioral knobs
    /// like speculation are the caller's contract), and `policy` a fresh
    /// policy of the kind that captured the checkpoint — divergences are
    /// applied afterwards via [`Self::apply_fork`].
    pub fn resume_materialized(
        config: EngineConfig,
        ckpt: &crate::EngineCheckpoint,
        policy: Box<dyn SchedulerPolicy + 'a>,
    ) -> Result<Self, crate::CkptError> {
        use crate::CkptError;
        let c = config.cluster;
        if (c.map_slots, c.reduce_slots, c.hosts) != (ckpt.map_slots, ckpt.reduce_slots, ckpt.hosts)
        {
            return Err(CkptError::Mismatch(format!(
                "checkpoint cluster is {}m/{}r slots on {} hosts, resume config says {}m/{}r on {}",
                ckpt.map_slots, ckpt.reduce_slots, ckpt.hosts, c.map_slots, c.reduce_slots, c.hosts
            )));
        }
        if policy.name() != ckpt.policy_name {
            return Err(CkptError::Mismatch(format!(
                "checkpoint was captured under policy '{}', resume offers '{}'",
                ckpt.policy_name,
                policy.name()
            )));
        }
        if config.collect_job_results != ckpt.collected {
            return Err(CkptError::Mismatch(format!(
                "checkpoint {} job results, resume config {} them",
                if ckpt.collected { "collected" } else { "did not collect" },
                if config.collect_job_results { "collects" } else { "does not collect" }
            )));
        }
        // the one construction path over the pending arrivals, then the
        // captured state
        let source = Box::new(ckpt.pending.clone().into_iter());
        let mut engine = Self::from_source(config, source, policy);
        engine.last_pulled_arrival = ckpt.last_pulled_arrival;
        engine.job_ids = ckpt.job_ids;
        engine.queue = EventQueue::from_snapshot(ckpt.events.clone(), ckpt.next_seq, ckpt.pushed);
        engine.free_map_slots = ckpt.free_map_slots.clone();
        engine.free_reduce_slots = ckpt.free_reduce_slots.clone();
        engine.dead_hosts = ckpt.dead_hosts.clone();
        engine.dead_map_slots = ckpt.dead_map_slots.clone();
        engine.dead_reduce_slots = ckpt.dead_reduce_slots.clone();
        engine.fault_plan = ckpt.fault_plan.clone();
        engine.map_slowdown = ckpt.map_slowdown.clone();
        engine.reduce_slowdown = ckpt.reduce_slowdown.clone();
        engine.jobs = JobTable { slots: ckpt.jobs.iter().cloned().collect(), base: ckpt.jobs_base };
        engine.jobq_dirty = ckpt.jobq_dirty;
        engine.policy_wakeup_at = ckpt.policy_wakeup_at;
        engine.clock = ckpt.clock;
        engine.seeded = true;
        engine.events_processed = ckpt.events_processed;
        engine.timeline = ckpt.timeline.clone();
        engine.results = ckpt.results.clone();
        engine.makespan = ckpt.makespan;
        let boundary = (ckpt.events_processed > 0).then_some(ckpt.clock);
        engine.invariants = engine.invariants.map(|_| {
            Box::new(InvariantState::resume(
                &config,
                ckpt.events_processed,
                boundary,
                &ckpt.timeline,
            ))
        });
        engine.jobq.now = ckpt.clock;
        engine.rebuild_jobq();
        engine.adopt_policy();
        engine.policy.restore(&ckpt.policy_blob).map_err(CkptError::Mismatch)?;
        Ok(engine)
    }

    /// Replays the arrival-side policy hooks for every live job, in the
    /// `(arrival, id)` order the original run fired them, restricted to
    /// still-active jobs — used when a fresh policy object takes over a
    /// mid-run queue (checkpoint restore, the policy-swap divergence).
    /// Derivable policy state (routing tables, wanted-slot caps,
    /// deadline-index membership, share counters) is fully rebuilt by the
    /// replay; only non-derivable state (starvation clocks) needs the
    /// snapshot blob on top.
    fn adopt_policy(&mut self) {
        let entries: Vec<JobEntry> = self.jobq.entries().to_vec();
        for e in &entries {
            let state = self.jobs.get(e.id).expect("queued job must be live");
            let template = Arc::clone(&state.template);
            let relative_deadline = state.deadline.map(|d| d.since(state.arrival));
            self.policy.on_job_arrival(e.id, &template, relative_deadline, self.config.cluster);
        }
        for e in &entries {
            self.policy.on_job_queued(e);
        }
    }

    /// Applies a fork's divergences at the current settled boundary.
    /// Shared verbatim by the warm-start path (resume, then fork) and the
    /// from-scratch reference ([`Self::run_forked`]), which is what makes
    /// the two byte-identical by construction. Divergence-injected events
    /// land strictly after the boundary batch, which has already settled.
    pub fn apply_fork(&mut self, fork: crate::ForkSpec) -> Result<(), crate::CkptError> {
        use crate::{CkptError, Divergence};
        let horizon = if self.events_processed > 0 { self.clock + 1 } else { SimTime::ZERO };
        for d in fork.divergences {
            match d {
                Divergence::PolicySwap(new_policy) => {
                    // The incoming policy starts from scratch: it adopts
                    // the live queue through the same hook replay a
                    // restore uses, and owns scheduling from the next
                    // event on.
                    self.policy = new_policy;
                    self.adopt_policy();
                    self.jobq_dirty = true;
                }
                Divergence::AddSlots { map_slots, reduce_slots } => {
                    // Grow-only: new slots join the free pools alive and
                    // at nominal speed; the cluster never shrinks
                    // mid-run (occupied slots cannot be revoked here —
                    // that is what InjectFault models).
                    let (old_m, old_r) =
                        (self.config.cluster.map_slots, self.config.cluster.reduce_slots);
                    self.config.cluster.map_slots += map_slots;
                    self.config.cluster.reduce_slots += reduce_slots;
                    let (new_m, new_r) =
                        (self.config.cluster.map_slots, self.config.cluster.reduce_slots);
                    for s in old_m..new_m {
                        self.free_map_slots.push(s as u32);
                    }
                    for s in old_r..new_r {
                        self.free_reduce_slots.push(s as u32);
                    }
                    self.dead_map_slots.resize(new_m, false);
                    self.dead_reduce_slots.resize(new_r, false);
                    if !self.map_slowdown.is_empty() {
                        self.map_slowdown.resize(new_m, 1.0);
                    }
                    if !self.reduce_slowdown.is_empty() {
                        self.reduce_slowdown.resize(new_r, 1.0);
                    }
                    if let Some(inv) = self.invariants.as_deref_mut() {
                        inv.grow_cluster(new_m, new_r);
                    }
                    self.jobq_dirty = true;
                }
                Divergence::InjectFault { host, at } => {
                    if host.0 == 0 || host.0 as usize >= self.config.cluster.hosts {
                        return Err(CkptError::Mismatch(format!(
                            "fork fault names host {} of a {}-host cluster \
                             (host 0 never fails)",
                            host.0, self.config.cluster.hosts
                        )));
                    }
                    let t = at.max(horizon);
                    self.fault_plan.push(HostFailure { host, at: t });
                    self.queue.push(t, EventKind::HostFailure, JobId(0), host.0);
                }
                Divergence::ArrivalSurge(specs) => {
                    for spec in specs {
                        spec.template.validate().map_err(|e| {
                            CkptError::Mismatch(format!("surge job template invalid: {e}"))
                        })?;
                        let arrival = spec.arrival.max(horizon);
                        let state = JobState::new(
                            Arc::new(spec.template),
                            arrival,
                            spec.deadline,
                            &self.config,
                        );
                        // injected ids follow the source's: trace_len + k
                        let id = JobId(self.job_ids as u32);
                        self.job_ids += 1;
                        self.jobs.admit(id, Box::new(state));
                        if self.config.collect_job_results {
                            self.results.push(None);
                        }
                        self.queue.push(arrival, EventKind::JobArrival, id, 0);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultSpec, RecoverySpec};
    use simmr_types::{JobSpec, JobTemplate};

    /// Minimal FIFO used to exercise the engine in isolation.
    struct TestFifo;
    impl SchedulerPolicy for TestFifo {
        fn name(&self) -> &str {
            "test-fifo"
        }
        fn choose_next_map_task(&mut self, q: &JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_map())
                .min_by_key(|e| (e.arrival, e.id))
                .map(|e| e.id)
        }
        fn choose_next_reduce_task(&mut self, q: &JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_reduce())
                .min_by_key(|e| (e.arrival, e.id))
                .map(|e| e.id)
        }
    }

    /// EDF with one preemption victim per round, mirroring `maxedf-p` —
    /// exercises the kill-and-requeue path without depending on simmr-sched.
    struct TestEdfPreempt;
    impl SchedulerPolicy for TestEdfPreempt {
        fn name(&self) -> &str {
            "test-edf-p"
        }
        fn choose_next_map_task(&mut self, q: &JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_map())
                .min_by_key(|e| e.edf_key())
                .map(|e| e.id)
        }
        fn choose_next_reduce_task(&mut self, q: &JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_reduce())
                .min_by_key(|e| e.edf_key())
                .map(|e| e.id)
        }
        fn map_preemptions(&mut self, q: &JobQueue, victims: &mut Vec<JobId>) {
            let Some(urgent) =
                q.entries().iter().filter(|e| e.has_schedulable_map()).min_by_key(|e| e.edf_key())
            else {
                return;
            };
            if let Some(victim) = q
                .entries()
                .iter()
                .filter(|e| {
                    e.id != urgent.id && e.running_maps > 0 && e.edf_key() > urgent.edf_key()
                })
                .max_by_key(|e| e.edf_key())
            {
                victims.push(victim.id);
            }
        }
    }

    fn run(config: EngineConfig, trace: &WorkloadTrace) -> SimulationReport {
        SimulatorEngine::new(config, trace, Box::new(TestFifo)).run()
    }

    fn uniform_job(
        maps: usize,
        reduces: usize,
        map_ms: u64,
        first_sh: u64,
        typ_sh: u64,
        red_ms: u64,
        arrival: SimTime,
    ) -> JobSpec {
        JobSpec::new(
            JobTemplate::new(
                "t",
                vec![map_ms; maps],
                if reduces > 0 { vec![first_sh] } else { vec![] },
                if reduces > 0 { vec![typ_sh; reduces] } else { vec![] },
                vec![red_ms; reduces],
            )
            .unwrap(),
            arrival,
        )
    }

    #[test]
    fn map_only_job_completion() {
        // 4 maps of 100ms on 2 slots -> 2 waves -> 200ms
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(4, 0, 100, 0, 0, 0, SimTime::ZERO));
        let report = run(EngineConfig::new(2, 2), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(200));
        assert_eq!(report.jobs[0].maps_finished, Some(SimTime::from_millis(200)));
        assert_eq!(report.jobs[0].duration(), 200);
    }

    #[test]
    fn first_wave_fillers_use_first_shuffle() {
        // Maps of 50ms and 100ms on 2 map slots; 2 reduces on 2 slots.
        // Slowstart 5% (threshold 1 map): map 0 departs at t=50, reduces
        // become eligible and launch at t=50 as first-wave *fillers* (the
        // map stage is still running). Maps finish at t=100, so the fillers
        // resolve to 100 + first_shuffle(50) + reduce(30) = 180. The
        // typical-shuffle value (999) must NOT be used.
        let template =
            JobTemplate::new("t", vec![50, 100], vec![50], vec![999, 999], vec![30, 30]).unwrap();
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(JobSpec::new(template, SimTime::ZERO));
        let report = run(EngineConfig::new(2, 2), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(180));
    }

    #[test]
    fn typical_shuffle_used_for_later_waves() {
        // 2 maps (100ms each) on 1 map slot => map stage ends at t=200.
        // 2 reduces on 1 reduce slot, slowstart 0.5 (threshold 1 map):
        // Wave 1: reduce 0 launches at t=100 as a filler; maps finish at
        //   t=200, so it departs at 200 + first_shuffle(20) + reduce(30)
        //   = 250.
        // Wave 2: reduce 1 launches at t=250 after the map stage — it uses
        //   the *typical* shuffle: 250 + 40 + 30 = 320.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(2, 2, 100, 20, 40, 30, SimTime::ZERO));
        let report = run(EngineConfig::new(1, 1).with_slowstart(0.5), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(320));
    }

    #[test]
    fn slowstart_delays_reduce_launch() {
        // 4 maps of 100ms on 1 map slot; maps finish at t=400.
        // slowstart 1.0: the reduce only launches once AllMapsFinished has
        // been applied, so it runs as a later-wave task with the *typical*
        // shuffle: 400 + 40 + 30 = 470.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(4, 1, 100, 20, 40, 30, SimTime::ZERO));
        let report = run(EngineConfig::new(1, 1).with_slowstart(1.0), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(470));

        // slowstart 0.05: the reduce launches right after the first map
        // (t=100) as a first-wave filler; it resolves with the
        // non-overlapping *first* shuffle: 400 + 20 + 30 = 450 — earlier,
        // because the overlapped part of its shuffle was already done.
        let report = run(EngineConfig::new(1, 1).with_slowstart(0.05), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(450));
    }

    #[test]
    fn multi_wave_maps() {
        // 5 maps of 100ms on 2 slots: waves at 100,200,300 => 300ms total
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(5, 0, 100, 0, 0, 0, SimTime::ZERO));
        let report = run(EngineConfig::new(2, 2), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(300));
    }

    #[test]
    fn fifo_two_jobs_share_cluster() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(2, 0, 100, 0, 0, 0, SimTime::ZERO));
        trace.push(uniform_job(2, 0, 100, 0, 0, 0, SimTime::ZERO));
        // 2 map slots: job 0 takes both (FIFO), finishes at 100; job 1 runs
        // 100..200.
        let report = run(EngineConfig::new(2, 2), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(100));
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(200));
    }

    #[test]
    fn late_arrival_waits() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(1, 0, 100, 0, 0, 0, SimTime::from_millis(500)));
        let report = run(EngineConfig::new(4, 4), &trace);
        assert_eq!(report.jobs[0].arrival, SimTime::from_millis(500));
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(600));
    }

    #[test]
    fn deterministic_replay() {
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..20 {
            trace.push(uniform_job(
                3 + i % 5,
                1 + i % 3,
                50 + (i as u64 * 13) % 200,
                10,
                25,
                15,
                SimTime::from_millis((i as u64 * 37) % 400),
            ));
        }
        let r1 = run(EngineConfig::new(4, 3), &trace);
        let r2 = run(EngineConfig::new(4, 3), &trace);
        assert_eq!(r1, r2);
    }

    #[test]
    fn timeline_recording() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(2, 1, 100, 20, 40, 30, SimTime::ZERO));
        let report = run(EngineConfig::new(2, 1).with_timeline(), &trace);
        // 2 map bars + 1 shuffle bar + 1 reduce bar
        let maps = report.timeline.iter().filter(|t| t.phase == TimelinePhase::Map).count();
        let shuffles = report.timeline.iter().filter(|t| t.phase == TimelinePhase::Shuffle).count();
        let reduces = report.timeline.iter().filter(|t| t.phase == TimelinePhase::Reduce).count();
        assert_eq!((maps, shuffles, reduces), (2, 1, 1));
        for bar in &report.timeline {
            assert!(bar.start <= bar.end);
        }
        // without the flag the timeline stays empty
        let report = run(EngineConfig::new(2, 1), &trace);
        assert!(report.timeline.is_empty());
    }

    /// Groups bars by (kind-of-slot, slot id) and checks pairwise
    /// disjointness; shuffle+reduce of one task share a slot contiguously,
    /// so adjacent reduce-slot bars are merged first.
    fn assert_timeline_disjoint(report: &SimulationReport, map_slots: usize, reduce_slots: usize) {
        let mut map_bars: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
        let mut red_bars: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
        for bar in &report.timeline {
            let target = match bar.phase {
                TimelinePhase::Map => &mut map_bars,
                _ => &mut red_bars,
            };
            target.entry(bar.slot).or_default().push((bar.start.as_millis(), bar.end.as_millis()));
        }
        assert!(map_bars.len() <= map_slots);
        assert!(red_bars.len() <= reduce_slots);
        for bars in map_bars.values_mut() {
            bars.sort_unstable();
            for w in bars.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap on map slot: {w:?}");
            }
        }
        for bars in red_bars.values_mut() {
            bars.sort_unstable();
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for &(s, e) in bars.iter() {
                match merged.last_mut() {
                    Some(last) if s == last.1 => last.1 = e,
                    _ => merged.push((s, e)),
                }
            }
            for w in merged.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap on reduce slot: {w:?}");
            }
        }
    }

    #[test]
    fn timeline_slots_never_oversubscribed() {
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..10 {
            trace.push(uniform_job(6, 3, 90, 15, 35, 25, SimTime::from_millis(i * 40)));
        }
        let report = run(EngineConfig::new(3, 2).with_timeline(), &trace);
        assert_timeline_disjoint(&report, 3, 2);
    }

    #[test]
    fn timeline_slots_never_oversubscribed_under_preemption() {
        // Regression test for the preemption-path pair of bugs: killed map
        // attempts used to keep their full launch-time bar (overlapping the
        // slot's next occupant), and `preempt_map` left `jobq_dirty` unset.
        // Staggered arrivals with ever-tighter deadlines under 3 contended
        // map slots force repeated kills; invariants are armed so the
        // checker cross-examines every batch as well.
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..10u64 {
            trace.push(
                uniform_job(6, 2, 200, 15, 35, 25, SimTime::from_millis(i * 60))
                    .with_deadline(SimTime::from_millis(20_000 - i * 1_800)),
            );
        }
        let report = SimulatorEngine::new(
            EngineConfig::new(3, 2).with_timeline().with_invariants(),
            &trace,
            Box::new(TestEdfPreempt),
        )
        .run();
        assert_eq!(report.jobs.len(), 10);
        assert_timeline_disjoint(&report, 3, 2);
        // preemption actually happened: killed attempts add extra map bars
        let total_maps: usize = trace.jobs.iter().map(|j| j.template.num_maps).sum();
        let map_bars = report.timeline.iter().filter(|t| t.phase == TimelinePhase::Map).count();
        assert!(
            map_bars > total_maps,
            "no preemption occurred ({map_bars} bars, {total_maps} maps)"
        );
    }

    #[test]
    fn preempted_map_bar_truncated_at_kill() {
        // Job 0 (loose deadline) holds the only map slot; job 1 arrives at
        // t=200 with a tight deadline and preempts it. The killed attempt
        // must leave a bar truncated at exactly t=200, and job 0's relaunch
        // restarts from scratch at t=300.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(
            uniform_job(2, 0, 1000, 0, 0, 0, SimTime::ZERO)
                .with_deadline(SimTime::from_millis(100_000)),
        );
        trace.push(
            uniform_job(1, 0, 100, 0, 0, 0, SimTime::from_millis(200))
                .with_deadline(SimTime::from_millis(300)),
        );
        let report = SimulatorEngine::new(
            EngineConfig::new(1, 1).with_timeline().with_invariants(),
            &trace,
            Box::new(TestEdfPreempt),
        )
        .run();
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(300));
        // job 0: map 0 reruns 300..1300, map 1 runs 1300..2300
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(2300));
        let mut map_bars: Vec<(u32, u64, u64)> = report
            .timeline
            .iter()
            .filter(|t| t.phase == TimelinePhase::Map)
            .map(|t| (t.job.0, t.start.as_millis(), t.end.as_millis()))
            .collect();
        map_bars.sort_unstable_by_key(|&(_, s, _)| s);
        // 3 map tasks + 1 killed attempt = 4 bars, killed bar cut at t=200
        assert_eq!(map_bars, vec![(0, 0, 200), (1, 200, 300), (0, 300, 1300), (0, 1300, 2300)]);
        assert_timeline_disjoint(&report, 1, 1);
    }

    #[test]
    fn event_count_and_makespan() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(3, 2, 100, 10, 20, 15, SimTime::ZERO));
        let report = run(EngineConfig::new(2, 2), &trace);
        // At least: 1 job arrival + 3*2 map events + 2*2 reduce events +
        // all-maps + departure = 13
        assert!(report.events_processed >= 13, "{}", report.events_processed);
        assert_eq!(report.makespan, report.jobs[0].completion);
    }

    #[test]
    fn zero_duration_tasks() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(2, 1, 0, 0, 0, 0, SimTime::ZERO));
        let report = run(EngineConfig::new(1, 1), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::ZERO);
    }

    #[test]
    fn deadline_carried_through() {
        let mut trace = WorkloadTrace::new("t", "test");
        let job =
            uniform_job(1, 0, 100, 0, 0, 0, SimTime::ZERO).with_deadline(SimTime::from_millis(50));
        trace.push(job);
        let report = run(EngineConfig::new(1, 1), &trace);
        assert_eq!(report.jobs[0].deadline, Some(SimTime::from_millis(50)));
        assert!(!report.jobs[0].met_deadline());
        assert_eq!(report.missed_deadlines(), 1);
        assert!((report.total_relative_deadline_exceeded() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_template_fails_the_run_not_construction() {
        // a hand-built template whose task vectors disagree with its
        // counts: `new` accepts the trace, the pull-time check rejects it
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(1, 0, 100, 0, 0, 0, SimTime::ZERO));
        let mut bad = uniform_job(2, 0, 100, 0, 0, 0, SimTime::from_millis(50));
        bad.template.map_durations.pop();
        trace.push(bad);
        let engine = SimulatorEngine::new(EngineConfig::new(1, 1), &trace, Box::new(TestFifo));
        let err = engine.try_run().unwrap_err();
        assert!(err.to_string().contains("job source error"), "{err}");
    }

    #[test]
    fn source_ids_must_be_distinct_and_in_range() {
        let template = Arc::new(uniform_job(1, 0, 100, 0, 0, 0, SimTime::ZERO).template);
        let job = |id: u32, at: u64| crate::SourcedJob {
            id: JobId(id),
            template: Arc::clone(&template),
            arrival: SimTime::from_millis(at),
            deadline: None,
        };
        let run = |jobs: Vec<crate::SourcedJob>| {
            let source = Box::new(jobs.into_iter());
            SimulatorEngine::from_source(EngineConfig::new(1, 1), source, Box::new(TestFifo))
                .try_run()
        };
        // ids in any order are fine as long as arrivals are ordered
        let report = run(vec![job(1, 0), job(0, 10)]).unwrap();
        assert_eq!(report.jobs[1].arrival, SimTime::ZERO);
        for bad in [vec![job(0, 0), job(0, 10)], vec![job(0, 0), job(2, 10)]] {
            let err = run(bad).unwrap_err();
            assert!(err.to_string().contains("out of range or already admitted"), "{err}");
        }
    }

    #[test]
    fn empty_trace() {
        let trace = WorkloadTrace::new("t", "test");
        let report = run(EngineConfig::new(4, 4), &trace);
        assert!(report.jobs.is_empty());
        assert_eq!(report.events_processed, 0);
    }

    #[test]
    fn heavy_trace_all_jobs_complete() {
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..200u64 {
            trace.push(uniform_job(
                1 + (i % 7) as usize,
                (i % 4) as usize,
                10 + i % 90,
                5,
                10,
                8,
                SimTime::from_millis(i * 7),
            ));
        }
        let report = run(EngineConfig::new(5, 3), &trace);
        assert_eq!(report.jobs.len(), 200);
        for r in &report.jobs {
            assert!(r.completion >= r.arrival);
        }
        // completions of FIFO'd jobs with same arrival pattern are monotone
        // in arrival for map-only jobs; at minimum makespan covers all
        assert_eq!(report.makespan, report.jobs.iter().map(|j| j.completion).max().unwrap());
    }

    #[test]
    fn incremental_view_matches_snapshot_oracle() {
        // mixed workload with simultaneous arrivals, zero-duration tasks,
        // multi-wave maps and fillers — the incremental queue must produce
        // the same report as a per-pass from-scratch rebuild
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..60u64 {
            trace.push(uniform_job(
                1 + (i % 6) as usize,
                (i % 3) as usize,
                (i % 5) * 40,
                7,
                11,
                9,
                SimTime::from_millis((i / 3) * 50),
            ));
        }
        let fast = run(EngineConfig::new(4, 3), &trace);
        let oracle = SimulatorEngine::new(EngineConfig::new(4, 3), &trace, Box::new(TestFifo))
            .with_snapshot_oracle()
            .run();
        assert_eq!(fast, oracle);
    }

    #[test]
    fn events_counted_per_launch() {
        // 1 job, 3 maps, 2 reduces, no preemption: events = 1 arrival +
        // 3 launches + 3 departures (maps) + 2 launches + 2 departures
        // (reduces) + AllMapsFinished + JobDeparture = 13, matching the
        // old per-marker accounting exactly
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(3, 2, 100, 10, 20, 15, SimTime::ZERO));
        let report = run(EngineConfig::new(4, 4), &trace);
        assert_eq!(report.events_processed, 13);
    }

    #[test]
    fn saturated_cluster_preemption_still_runs() {
        // Regression for the preemption gap: with 1 map + 1 reduce slot and
        // the reduce slot occupied by job 0's filler, the old scheduling
        // pass early-returned ("no slot of either kind free") and never
        // consulted map_preemptions — job 1's tight-deadline map had to
        // wait for job 0's 1000 ms map to finish naturally.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(
            uniform_job(2, 1, 1000, 10, 20, 15, SimTime::ZERO)
                .with_deadline(SimTime::from_millis(100_000)),
        );
        trace.push(
            uniform_job(1, 0, 100, 0, 0, 0, SimTime::from_millis(1500))
                .with_deadline(SimTime::from_millis(1700)),
        );
        let config = EngineConfig::new(1, 1).with_slowstart(0.05).with_invariants();
        let report = SimulatorEngine::new(config, &trace, Box::new(TestEdfPreempt)).run();
        // job 0's second map (launched at 1000) is killed at 1500; job 1
        // runs 1500..1600 and meets its deadline
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(1600));
        assert!(report.jobs[1].met_deadline());
    }

    #[test]
    fn host_failure_kills_and_reruns() {
        // 4 map + 2 reduce slots striped over 2 hosts: host 1 owns map
        // slots 1, 3 and reduce slot 1. Six 100 ms maps: wave 1 puts maps
        // 0-3 on slots 3,2,1,0 (free list pops from the back), wave 2 puts
        // map 4 on slot 0 and map 5 on slot 1 at t=100. The failure at
        // t=150 kills the running map 5 (slot 1) and re-runs completed
        // maps 0 (slot 3) and 2 (slot 1) whose output died with the host;
        // the filler reduce on dead reduce slot 1 is killed and relaunched
        // on slot 0.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(6, 1, 100, 20, 40, 30, SimTime::ZERO));
        let config = EngineConfig::new(4, 2).with_hosts(2).with_timeline().with_invariants();
        let report = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
            .with_fault_plan(vec![HostFailure { host: HostId(1), at: SimTime::from_millis(150) }])
            .run();
        // surviving slots 0, 2 re-run the three lost tasks: only slot 2 is
        // free at 150 (map 2 runs 150..250), slot 0 frees at 200 (map 0
        // runs 200..300), slot 2 again at 250 (map 5 runs 250..350); the
        // filler reduce resolves with first shuffle 20 + reduce 30
        assert_eq!(report.jobs[0].maps_finished, Some(SimTime::from_millis(350)));
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(400));
        assert_eq!(report.makespan, SimTime::from_millis(400));
        // 6 originals + 1 killed attempt + 2 re-runs = 9 map bars, none on
        // the dead slots after t=150
        let map_bars: Vec<_> =
            report.timeline.iter().filter(|b| b.phase == TimelinePhase::Map).collect();
        assert_eq!(map_bars.len(), 9);
        for bar in &map_bars {
            if bar.slot % 2 == 1 {
                assert!(
                    bar.end <= SimTime::from_millis(150),
                    "bar on dead slot past the failure: {bar:?}"
                );
            }
        }
    }

    #[test]
    fn speculation_first_finisher_wins() {
        // maps [100, 100, 100, 1000] on 2 slots: median 100, threshold
        // 2.0 × 100 = 200. Map 3 (launched at 100 on slot 1) is still
        // running when its timer fires at 300; the duplicate launches at
        // 300 on slot 0. The original finishes first at 1100 and the
        // duplicate is killed (truncated bar 300..1100); its stale
        // departure at 1300 is ignored.
        let template =
            JobTemplate::new("t", vec![100, 100, 100, 1000], vec![], vec![], vec![]).unwrap();
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(JobSpec::new(template, SimTime::ZERO));
        let config =
            EngineConfig::new(2, 1).with_speculation(2.0).with_timeline().with_invariants();
        let report = run(config, &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(1100));
        assert_eq!(report.makespan, SimTime::from_millis(1100));
        let map_bars: Vec<_> =
            report.timeline.iter().filter(|b| b.phase == TimelinePhase::Map).collect();
        assert_eq!(map_bars.len(), 5, "4 primaries + 1 killed duplicate");
        let dup = map_bars
            .iter()
            .find(|b| b.start == SimTime::from_millis(300))
            .expect("duplicate attempt bar");
        assert_eq!(dup.end, SimTime::from_millis(1100));
    }

    #[test]
    fn host_0_failures_ignored() {
        // host 0 never fails (it anchors at least one slot of each kind);
        // out-of-range hosts in a hand-built plan are ignored too
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(4, 1, 100, 10, 20, 15, SimTime::ZERO));
        let config = EngineConfig::new(2, 1).with_hosts(2).with_invariants();
        let baseline = SimulatorEngine::new(config, &trace, Box::new(TestFifo)).run();
        let ignored = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
            .with_fault_plan(vec![
                HostFailure { host: HostId(0), at: SimTime::from_millis(50) },
                HostFailure { host: HostId(9), at: SimTime::from_millis(60) },
            ])
            .run();
        assert_eq!(baseline.jobs, ignored.jobs);
        assert_eq!(baseline.makespan, ignored.makespan);
    }

    #[test]
    fn slowdown_scales_task_durations() {
        // constant 2× slowdown on every slot: 2 maps of 100 ms run
        // sequentially on the single map slot (200 + 200), the map stage
        // closes at 400, and the reduce (launched at 400 under full
        // slowstart) takes (40 + 30) × 2 = 140 → completion at 540
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(2, 1, 100, 20, 40, 30, SimTime::ZERO));
        let config = EngineConfig::new(1, 1)
            .with_slowstart(1.0)
            .with_slowdown(Dist::Constant { value: 2.0 }, 5)
            .with_invariants();
        let report = run(config, &trace);
        assert_eq!(report.jobs[0].maps_finished, Some(SimTime::from_millis(400)));
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(540));
    }

    #[test]
    fn failure_model_deterministic_across_reruns() {
        // the full perturbation stack — seeded faults, speculation and
        // per-slot slowdowns — must replay byte-identically
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..20u64 {
            trace.push(uniform_job(
                1 + (i % 7) as usize,
                (i % 3) as usize,
                50 + (i % 5) * 90,
                15,
                25,
                35,
                SimTime::from_millis(i * 130),
            ));
        }
        let config = EngineConfig::new(6, 3)
            .with_hosts(3)
            .with_faults(FaultSpec { seed: 42, count: 3, mean_interval_ms: 400 })
            .with_speculation(1.5)
            .with_slowdown(Dist::LogNormal { mu: -0.125, sigma: 0.5 }, 7)
            .with_timeline()
            .with_invariants();
        let a = run(config, &trace);
        let b = run(config, &trace);
        assert_eq!(a, b);
        // the plan actually fired: some slots are lost, so at least one
        // host beyond host 0 died — all jobs still complete
        assert_eq!(a.jobs.len(), 20);
    }

    #[test]
    fn host_recovery_restores_slots() {
        // 40 maps of 100 ms on 4 slots over 2 hosts; host 1 (slots 1, 3)
        // dies at t=150. Permanently, the tail of the job runs on host 0's
        // two surviving slots. With recovery armed the host comes back
        // after a seeded exponential downtime and the run finishes
        // strictly earlier — and byte-identically across reruns. The
        // invariant checker's slot-conservation pass covers the restored
        // slots at every batch.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(40, 0, 100, 0, 0, 0, SimTime::ZERO));
        let plan = vec![HostFailure { host: HostId(1), at: SimTime::from_millis(150) }];
        let config = EngineConfig::new(4, 1).with_hosts(2).with_invariants();
        let permanent = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
            .with_fault_plan(plan.clone())
            .run();
        let recovering = config.with_recovery(RecoverySpec { seed: 9, mean_ms: 300 });
        let a = SimulatorEngine::new(recovering, &trace, Box::new(TestFifo))
            .with_fault_plan(plan.clone())
            .run();
        let b = SimulatorEngine::new(recovering, &trace, Box::new(TestFifo))
            .with_fault_plan(plan)
            .run();
        assert_eq!(a, b);
        assert!(
            a.makespan < permanent.makespan,
            "recovery did not help: {} vs permanent {}",
            a.makespan,
            permanent.makespan
        );
    }

    #[test]
    fn recovery_deterministic_with_full_perturbation_stack() {
        // recovery draws from its own RNG stream, so arming it alongside
        // seeded faults, speculation and slowdowns stays deterministic —
        // and a recovered host may fail again under a later plan entry
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..20u64 {
            trace.push(uniform_job(
                1 + (i % 7) as usize,
                (i % 3) as usize,
                50 + (i % 5) * 90,
                15,
                25,
                35,
                SimTime::from_millis(i * 130),
            ));
        }
        let config = EngineConfig::new(6, 3)
            .with_hosts(3)
            .with_faults(FaultSpec { seed: 42, count: 4, mean_interval_ms: 400 })
            .with_recovery(RecoverySpec { seed: 11, mean_ms: 500 })
            .with_speculation(1.5)
            .with_slowdown(Dist::LogNormal { mu: -0.125, sigma: 0.5 }, 7)
            .with_timeline()
            .with_invariants();
        let a = run(config, &trace);
        let b = run(config, &trace);
        assert_eq!(a, b);
        assert_eq!(a.jobs.len(), 20);
        // changing only the recovery seed must leave the fault plan intact
        // but may shift completions (different downtimes)
        let reseeded = config.with_recovery(RecoverySpec { seed: 12, mean_ms: 500 });
        let c = run(reseeded, &trace);
        assert_eq!(c.jobs.len(), 20);
    }

    /// Holds every map back until `release`, using the wakeup timer to get
    /// a scheduling pass at the release time (plus one more to launch,
    /// since `next_wakeup` runs after the pass's choose loop).
    struct GatedRelease {
        release: SimTime,
        open: bool,
    }
    impl SchedulerPolicy for GatedRelease {
        fn name(&self) -> &str {
            "test-gated"
        }
        fn choose_next_map_task(&mut self, q: &JobQueue) -> Option<JobId> {
            if !self.open {
                return None;
            }
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_map())
                .min_by_key(|e| (e.arrival, e.id))
                .map(|e| e.id)
        }
        fn choose_next_reduce_task(&mut self, q: &JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_reduce())
                .min_by_key(|e| (e.arrival, e.id))
                .map(|e| e.id)
        }
        fn next_wakeup(&mut self, q: &JobQueue) -> Option<SimTime> {
            if self.open || q.is_empty() {
                return None;
            }
            if q.now >= self.release {
                self.open = true;
                // one more pass so the now-open gate actually launches
                return Some(q.now + 1);
            }
            Some(self.release)
        }
    }

    #[test]
    fn policy_wakeup_drives_time_based_scheduling() {
        // One 100 ms map arriving at t=0, gate at t=500: without the
        // PolicyWakeup timer the engine would run out of events with the
        // job stuck. The wakeup fires the pass at 500, the follow-up pass
        // at 501 launches, and the job completes at 601.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(1, 0, 100, 0, 0, 0, SimTime::ZERO));
        let policy = GatedRelease { release: SimTime::from_millis(500), open: false };
        let report = SimulatorEngine::new(
            EngineConfig::new(2, 1).with_invariants(),
            &trace,
            Box::new(policy),
        )
        .run();
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(601));

        // a gate already open at arrival time needs only the follow-up pass
        let policy = GatedRelease { release: SimTime::ZERO, open: false };
        let report = SimulatorEngine::new(EngineConfig::new(2, 1), &trace, Box::new(policy)).run();
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(101));
    }
}
