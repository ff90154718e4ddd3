//! # simmr-core
//!
//! The SimMR **Simulator Engine** (§III-B of "Play It Again, SimMR!",
//! IEEE CLUSTER 2011): a discrete-event simulator that replays job traces
//! through a faithful model of the Hadoop job master's map/reduce slot
//! allocation, under a pluggable scheduling policy.
//!
//! ## Model
//!
//! * The cluster is a pool of `map_slots` map slots and `reduce_slots`
//!   reduce slots (TaskTracker internals are deliberately *not* simulated —
//!   that is SimMR's speed advantage over Mumak and MRPerf; per-task
//!   latencies come from the replayed job profiles instead).
//! * Nine event kinds drive the simulation: five of the paper's seven
//!   (its task *arrivals* are counted at launch, not queued) plus
//!   `HostFailure`, `HostRecovery`, `SpeculationDue` and `PolicyWakeup`.
//! * Every run pulls its jobs from a [`JobSource`], one arrival ahead.
//! * Reduce tasks launched before a job's map stage completes are **filler
//!   tasks of infinite duration**; when `AllMapsFinished` fires their
//!   duration is rewritten to the profile's *non-overlapping first-shuffle*
//!   duration plus the reduce-phase duration. Later-wave reduce tasks use
//!   *typical shuffle* + reduce durations directly. This is the shuffle
//!   modeling that Mumak lacks (§IV-A).
//! * Reduce scheduling for a job begins once `min_map_percent_completed`
//!   of its maps have finished (Hadoop's "slowstart", §III-B).
//!
//! ## Failure and speculation model
//!
//! [`EngineConfig`] optionally stripes the slot pools over worker hosts
//! ([`simmr_types::ClusterSpec::with_hosts`]) and enables three
//! perturbations (see `DESIGN.md` §2.3):
//!
//! * **Host failures** — a seeded [`FaultSpec`] (or an explicit
//!   [`HostFailure`] plan via [`SimulatorEngine::with_fault_plan`])
//!   removes hosts: their slots leave the pools, running attempts are
//!   killed and requeued, and completed map outputs stored there are
//!   re-executed while the owning job's map stage is open. An optional
//!   seeded [`RecoverySpec`] brings each failed host back after an
//!   exponential downtime (failures are otherwise permanent for the run).
//! * **Speculative execution** — [`EngineConfig::with_speculation`] arms a
//!   straggler timer per map attempt; an attempt outliving `factor ×` the
//!   job's median map duration gets a duplicate, and the first finisher
//!   wins (losers are killed).
//! * **Per-slot slowdowns** — [`SlowdownSpec`] scales every task duration
//!   on a slot by a factor sampled once per slot, which is what creates
//!   stragglers for speculation to chase.
//!
//! All three are deterministic: byte-identical reports across same-seed
//! reruns.
//!
//! ## Runtime invariant checking
//!
//! [`EngineConfig::with_invariants`] arms an opt-in checker (see
//! `crates/core/src/invariants.rs`) that re-derives the engine's redundant
//! incremental state from first principles after every settled event batch:
//! slot conservation, per-job counter consistency against the policy-visible
//! [`JobEntry`] view (with field-level diff messages on divergence),
//! event-time monotonicity, per-slot timeline disjointness, dirty-flag
//! coverage of queue mutations, and end-of-run report accounting. The
//! `check-invariants` cargo feature forces it on for every engine (CI runs
//! the test suite once that way). Disabled — the default — the hot path
//! carries only a `None` check per event batch.
//!
//! ## Scheduling interface
//!
//! The engine talks to policies through the paper's narrow two-function
//! interface ([`SchedulerPolicy::choose_next_map_task`] /
//! [`SchedulerPolicy::choose_next_reduce_task`]), receiving a snapshot of
//! the job queue and returning the job whose task should run next.
//!
//! ```
//! use simmr_core::{EngineConfig, SimulatorEngine, SchedulerPolicy, JobQueue};
//! use simmr_types::{JobId, JobSpec, JobTemplate, SimTime, WorkloadTrace};
//!
//! /// Minimal FIFO: earliest-arrived job with a pending task.
//! struct Fifo;
//! impl SchedulerPolicy for Fifo {
//!     fn name(&self) -> &'static str { "fifo" }
//!     fn choose_next_map_task(&mut self, q: &JobQueue) -> Option<JobId> {
//!         q.entries().iter().filter(|e| e.pending_maps > 0)
//!             .min_by_key(|e| (e.arrival, e.id)).map(|e| e.id)
//!     }
//!     fn choose_next_reduce_task(&mut self, q: &JobQueue) -> Option<JobId> {
//!         q.entries().iter().filter(|e| e.reduce_eligible && e.pending_reduces > 0)
//!             .min_by_key(|e| (e.arrival, e.id)).map(|e| e.id)
//!     }
//! }
//!
//! let template = JobTemplate::new("wc", vec![1000; 8], vec![500], vec![600; 4], vec![300; 4]).unwrap();
//! let mut trace = WorkloadTrace::new("demo", "doc-test");
//! trace.push(JobSpec::new(template, SimTime::ZERO));
//!
//! let report = SimulatorEngine::new(EngineConfig::new(4, 2), &trace, Box::new(Fifo)).run();
//! assert_eq!(report.jobs.len(), 1);
//! assert!(report.jobs[0].completion > SimTime::ZERO);
//! ```

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod event;
mod invariants;
pub mod jobq;
pub mod queue;
pub mod source;

pub use checkpoint::{
    fork_sweep, CkptError, Divergence, EngineCheckpoint, ForkSpec, CKPT_MAGIC, CKPT_VERSION,
};
pub use config::{EngineConfig, FaultSpec, RecoverySpec, SlowdownSpec};
pub use engine::{HostFailure, SimulatorEngine};
pub use event::{Event, EventKind};
pub use jobq::{JobEntry, JobQueue, SchedulerPolicy};
pub use queue::EventQueue;
pub use source::{JobSource, SourceError, SourcedJob, TraceJobSource};
