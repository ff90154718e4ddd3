//! Time-travel checkpoints: serializable engine snapshots and scenario
//! forking.
//!
//! SimMR's value proposition is cheap replay-based what-if analysis, but a
//! sweep whose variants only diverge late in the trace still replays the
//! shared prefix once per variant. An [`EngineCheckpoint`] captures the
//! full deterministic state of a run at a settled batch boundary — the
//! event heap (with per-event insertion sequence numbers, so same-time
//! ties keep breaking identically), the clock, the job table, slot and
//! host state, the derived fault/slowdown plans, and the policy's own
//! state through [`crate::SchedulerPolicy::snapshot`] — and the jobs the
//! run had not pulled yet, which resume feeds back as its source. Resuming
//! continues the run **byte-identically** to never having stopped; a
//! [`ForkSpec`] applies a divergence at the boundary instead, and
//! [`fork_sweep`] runs the shared prefix once and fans the suffixes out in
//! parallel.
//!
//! # Binary format
//!
//! `SIMMRCKP` magic + `u16` version + little-endian body + trailing
//! CRC-64/XZ over everything before it, mirroring the SIMMRBIN trace
//! format's layout and typed-error discipline (`simmr_trace::binfmt`).
//! The CRC-64 is implemented locally because the dependency runs the
//! other way (`simmr-trace` depends on this crate). Encoding is
//! canonical: `encode(decode(bytes)) == bytes` for any accepted input,
//! which is what lets the serve layer memoize *encoded* checkpoints and
//! key caches on their digest.
//!
//! # What is *not* stored
//!
//! Live RNG state — there is none. Every seeded draw (slot slowdowns, the
//! fault plan, recovery downtimes) happens before the first event pops,
//! and the checkpoint stores the derived artifacts (factor vectors, the
//! plan, the already-queued recovery events) instead of generator state.
//! Policy state that is derivable from the queue (routing tables,
//! wanted-slot caps, deadline-index membership, share counters) is also
//! not stored: restore replays the arrival hooks over the live queue and
//! rebuilds it, and the policy blob carries only what replay cannot (see
//! [`crate::SchedulerPolicy::restore`]).

use crate::engine::{HostFailure, JobSlot, JobState, RunningMap, RunningReduce};
use crate::event::{Event, EventKind};
use crate::{EngineConfig, SchedulerPolicy, SimulatorEngine, SourcedJob};
use simmr_stats::parallel_sweep;
use simmr_types::{
    HostId, JobId, JobResult, JobSpec, JobTemplate, SimTime, SimulationReport, TimelineEntry,
    TimelinePhase, WorkloadTrace,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Magic bytes opening every serialized checkpoint.
pub const CKPT_MAGIC: &[u8; 8] = b"SIMMRCKP";
/// Current checkpoint format version (2 added the pending arrivals; 3
/// changed the maxedf, minedf and capacity policy blobs).
pub const CKPT_VERSION: u16 = 3;

/// Why a checkpoint failed to decode or resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The buffer does not start with [`CKPT_MAGIC`].
    BadMagic,
    /// The format version is not [`CKPT_VERSION`].
    BadVersion(u16),
    /// The buffer ends before the structure it promises.
    Truncated,
    /// The trailing CRC-64 does not match the body.
    ChecksumMismatch {
        /// Checksum stored in the buffer.
        expected: u64,
        /// Checksum recomputed over the body.
        actual: u64,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// The bytes parse but describe an impossible state (unknown or
    /// reserved event kind, invalid template, out-of-range tag).
    Malformed(String),
    /// The checkpoint is valid but incompatible with what the caller
    /// offered at resume time (wrong cluster shape, wrong policy, a
    /// policy blob that does not match the rebuilt state).
    Mismatch(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a SIMMRCKP checkpoint (bad magic)"),
            CkptError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {CKPT_VERSION})")
            }
            CkptError::Truncated => write!(f, "checkpoint data is truncated"),
            CkptError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
            ),
            CkptError::BadUtf8 => write!(f, "checkpoint contains an invalid UTF-8 string"),
            CkptError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CkptError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CkptError {}

// CRC-64/XZ (ECMA-182 polynomial, reflected, init/xor-out all-ones) —
// the same parameterization `simmr_trace::digest` uses for trace digests.
const CRC64_TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u64;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xC96C_5795_D787_0F42 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

fn crc64(bytes: &[u8]) -> u64 {
    let mut c = u64::MAX;
    for &b in bytes {
        c = CRC64_TABLE[((c ^ b as u64) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ u64::MAX
}

/// A serializable snapshot of a [`SimulatorEngine`] at a settled batch
/// boundary. Captured by [`SimulatorEngine::checkpoint_at`]; resumed by
/// [`SimulatorEngine::resume_materialized`]; forked by
/// [`SimulatorEngine::apply_fork`] or driven wholesale by [`fork_sweep`].
pub struct EngineCheckpoint {
    /// The requested checkpoint instant.
    pub(crate) at: SimTime,
    /// The actual boundary: time of the last settled batch ≤ `at`.
    pub(crate) clock: SimTime,
    pub(crate) map_slots: usize,
    pub(crate) reduce_slots: usize,
    pub(crate) hosts: usize,
    /// The run collects per-job results.
    pub(crate) collected: bool,
    pub(crate) jobq_dirty: bool,
    /// Pending events in `(time, seq)` order, original seqs preserved.
    pub(crate) events: Vec<Event>,
    pub(crate) next_seq: u64,
    pub(crate) pushed: u64,
    pub(crate) last_pulled_arrival: SimTime,
    /// Ids handed out: the source's job count plus injected jobs.
    pub(crate) job_ids: usize,
    pub(crate) jobs_base: usize,
    pub(crate) jobs: Vec<JobSlot>,
    /// The source's not-yet-pulled jobs, in pull order.
    pub(crate) pending: Vec<SourcedJob>,
    pub(crate) free_map_slots: Vec<u32>,
    pub(crate) free_reduce_slots: Vec<u32>,
    pub(crate) dead_hosts: Vec<bool>,
    pub(crate) dead_map_slots: Vec<bool>,
    pub(crate) dead_reduce_slots: Vec<bool>,
    pub(crate) fault_plan: Vec<HostFailure>,
    pub(crate) map_slowdown: Vec<f64>,
    pub(crate) reduce_slowdown: Vec<f64>,
    pub(crate) policy_wakeup_at: Option<SimTime>,
    pub(crate) events_processed: u64,
    pub(crate) makespan: SimTime,
    pub(crate) timeline: Vec<TimelineEntry>,
    pub(crate) results: Vec<Option<JobResult>>,
    pub(crate) policy_name: String,
    pub(crate) policy_blob: Vec<u8>,
}

impl EngineCheckpoint {
    /// The requested checkpoint instant.
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// The actual boundary: the last settled batch at or before
    /// [`Self::at`] (every pending event is strictly later).
    pub fn boundary(&self) -> SimTime {
        self.clock
    }

    /// Name of the policy that was scheduling when the snapshot was taken.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Jobs pulled by the boundary (the next arrival included) or
    /// injected by a fork; the rest are [`Self::pending_arrivals`].
    pub fn jobs_admitted(&self) -> usize {
        self.job_ids - self.pending.len()
    }

    /// Jobs the run's source had not yielded yet; resume pulls them.
    pub fn pending_arrivals(&self) -> usize {
        self.pending.len()
    }

    /// Events still pending in the snapshot's heap.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Events the run had processed up to the boundary.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// CRC-64/XZ content digest of the canonical encoding — the identity
    /// the serve layer keys warm-start cache entries on.
    pub fn digest(&self) -> u64 {
        crc64(&self.encode())
    }

    /// Serializes the checkpoint to its canonical binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.events.len() * 29 + self.jobs.len() * 64);
        out.extend_from_slice(CKPT_MAGIC);
        put_u16(&mut out, CKPT_VERSION);
        put_u64(&mut out, self.at.as_millis());
        put_u64(&mut out, self.clock.as_millis());
        put_u32(&mut out, self.map_slots as u32);
        put_u32(&mut out, self.reduce_slots as u32);
        put_u32(&mut out, self.hosts as u32);
        let flags = (self.collected as u8) | (self.jobq_dirty as u8) << 1;
        out.push(flags);
        put_u64(&mut out, self.last_pulled_arrival.as_millis());
        put_opt_time(&mut out, self.policy_wakeup_at);
        put_u64(&mut out, self.events_processed);
        put_u64(&mut out, self.makespan.as_millis());
        put_u64(&mut out, self.next_seq);
        put_u64(&mut out, self.pushed);
        put_u32(&mut out, self.events.len() as u32);
        for e in &self.events {
            put_u64(&mut out, e.time.as_millis());
            put_u64(&mut out, e.seq);
            out.push(event_kind_tag(e.kind));
            put_u32(&mut out, e.job.0);
            put_u32(&mut out, e.task_index);
            put_u32(&mut out, e.attempt);
        }
        put_u32_vec(&mut out, &self.free_map_slots);
        put_u32_vec(&mut out, &self.free_reduce_slots);
        put_bool_vec(&mut out, &self.dead_hosts);
        put_bool_vec(&mut out, &self.dead_map_slots);
        put_bool_vec(&mut out, &self.dead_reduce_slots);
        put_u32(&mut out, self.fault_plan.len() as u32);
        for f in &self.fault_plan {
            put_u32(&mut out, f.host.0);
            put_u64(&mut out, f.at.as_millis());
        }
        put_f64_vec(&mut out, &self.map_slowdown);
        put_f64_vec(&mut out, &self.reduce_slowdown);
        // Templates are content-interned in first-appearance order over
        // the job table, then the pending arrivals, so re-encoding a
        // decoded checkpoint reproduces the table byte for byte.
        let mut template_bytes: Vec<Vec<u8>> = Vec::new();
        let mut template_ids: HashMap<Vec<u8>, u32> = HashMap::new();
        let live_templates = self.jobs.iter().filter_map(JobSlot::state).map(|job| &job.template);
        let job_template: Vec<u32> = live_templates
            .chain(self.pending.iter().map(|job| &job.template))
            .map(|template| {
                let enc = encode_template(template);
                let next = template_bytes.len() as u32;
                *template_ids.entry(enc.clone()).or_insert_with(|| {
                    template_bytes.push(enc);
                    next
                })
            })
            .collect();
        put_u32(&mut out, template_bytes.len() as u32);
        for t in &template_bytes {
            out.extend_from_slice(t);
        }
        put_u64(&mut out, self.job_ids as u64);
        put_u64(&mut out, self.jobs_base as u64);
        put_u32(&mut out, self.jobs.len() as u32);
        let mut live = 0usize;
        for slot in &self.jobs {
            match slot {
                JobSlot::Retired => out.push(0),
                JobSlot::Live(state) => {
                    out.push(1);
                    let tid = job_template[live];
                    live += 1;
                    encode_job(&mut out, state, tid);
                }
                JobSlot::Pending => out.push(2),
            }
        }
        put_u32(&mut out, self.pending.len() as u32);
        for (job, &tid) in self.pending.iter().zip(&job_template[live..]) {
            put_u32(&mut out, job.id.0);
            put_u32(&mut out, tid);
            put_u64(&mut out, job.arrival.as_millis());
            put_opt_time(&mut out, job.deadline);
        }
        put_u32(&mut out, self.timeline.len() as u32);
        for bar in &self.timeline {
            put_u32(&mut out, bar.job.0);
            out.push(bar.phase as u8);
            put_u32(&mut out, bar.slot);
            put_u64(&mut out, bar.start.as_millis());
            put_u64(&mut out, bar.end.as_millis());
        }
        put_u32(&mut out, self.results.len() as u32);
        for r in &self.results {
            match r {
                None => out.push(0),
                Some(res) => {
                    out.push(1);
                    put_u32(&mut out, res.job.0);
                    put_str(&mut out, &res.name);
                    put_u64(&mut out, res.arrival.as_millis());
                    put_opt_time(&mut out, res.first_map_start);
                    put_opt_time(&mut out, res.maps_finished);
                    put_u64(&mut out, res.completion.as_millis());
                    put_opt_time(&mut out, res.deadline);
                    put_u32(&mut out, res.num_maps as u32);
                    put_u32(&mut out, res.num_reduces as u32);
                }
            }
        }
        put_str(&mut out, &self.policy_name);
        put_u32(&mut out, self.policy_blob.len() as u32);
        out.extend_from_slice(&self.policy_blob);
        let crc = crc64(&out);
        put_u64(&mut out, crc);
        out
    }

    /// Decodes a checkpoint, verifying magic, version, and the trailing
    /// CRC-64 before parsing the body.
    pub fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        if bytes.len() < CKPT_MAGIC.len() + 2 + 8 {
            if bytes.len() >= CKPT_MAGIC.len() && &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
                return Err(CkptError::BadMagic);
            }
            return Err(CkptError::Truncated);
        }
        if &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
            return Err(CkptError::BadMagic);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let expected = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let actual = crc64(body);
        if expected != actual {
            return Err(CkptError::ChecksumMismatch { expected, actual });
        }
        let mut c = Cursor { buf: body, pos: CKPT_MAGIC.len() };
        let version = c.u16()?;
        if version != CKPT_VERSION {
            return Err(CkptError::BadVersion(version));
        }
        let at = SimTime::from_millis(c.u64()?);
        let clock = SimTime::from_millis(c.u64()?);
        let map_slots = c.u32()? as usize;
        let reduce_slots = c.u32()? as usize;
        let hosts = c.u32()? as usize;
        let flags = c.u8()?;
        if flags & !0b11 != 0 {
            return Err(CkptError::Malformed(format!("unknown flag bits {flags:#04x}")));
        }
        let collected = flags & 1 != 0;
        let jobq_dirty = flags & 2 != 0;
        let last_pulled_arrival = SimTime::from_millis(c.u64()?);
        let policy_wakeup_at = c.opt_time()?;
        let events_processed = c.u64()?;
        let makespan = SimTime::from_millis(c.u64()?);
        let next_seq = c.u64()?;
        let pushed = c.u64()?;
        let n_events = c.len_u32()?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let time = SimTime::from_millis(c.u64()?);
            let seq = c.u64()?;
            let kind = event_kind_from_tag(c.u8()?)?;
            let job = JobId(c.u32()?);
            let task_index = c.u32()?;
            let attempt = c.u32()?;
            events.push(Event { time, seq, kind, job, task_index, attempt });
        }
        let free_map_slots = c.u32_vec()?;
        let free_reduce_slots = c.u32_vec()?;
        let dead_hosts = c.bool_vec()?;
        let dead_map_slots = c.bool_vec()?;
        let dead_reduce_slots = c.bool_vec()?;
        let n_faults = c.len_u32()?;
        let mut fault_plan = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            let host = HostId(c.u32()?);
            let fat = SimTime::from_millis(c.u64()?);
            fault_plan.push(HostFailure { host, at: fat });
        }
        let map_slowdown = c.f64_vec()?;
        let reduce_slowdown = c.f64_vec()?;
        let n_templates = c.len_u32()?;
        let mut templates: Vec<Arc<JobTemplate>> = Vec::with_capacity(n_templates);
        for _ in 0..n_templates {
            templates.push(Arc::new(c.template()?));
        }
        let job_ids = c.u64()? as usize;
        let jobs_base = c.u64()? as usize;
        let n_jobs = c.len_u32()?;
        let mut jobs: Vec<JobSlot> = Vec::with_capacity(n_jobs);
        for _ in 0..n_jobs {
            match c.u8()? {
                0 => jobs.push(JobSlot::Retired),
                1 => jobs.push(JobSlot::Live(Box::new(c.job(&templates)?))),
                2 => jobs.push(JobSlot::Pending),
                t => return Err(CkptError::Malformed(format!("unknown job slot tag {t}"))),
            }
        }
        let n_pending = c.len_u32()?;
        let mut pending = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            let id = JobId(c.u32()?);
            let template = c.interned(&templates)?;
            let arrival = SimTime::from_millis(c.u64()?);
            let deadline = c.opt_time()?;
            pending.push(SourcedJob { id, template, arrival, deadline });
        }
        let n_bars = c.len_u32()?;
        let mut timeline = Vec::with_capacity(n_bars);
        for _ in 0..n_bars {
            let job = JobId(c.u32()?);
            let phase = match c.u8()? {
                0 => TimelinePhase::Map,
                1 => TimelinePhase::Shuffle,
                2 => TimelinePhase::Reduce,
                t => return Err(CkptError::Malformed(format!("unknown timeline phase {t}"))),
            };
            let slot = c.u32()?;
            let start = SimTime::from_millis(c.u64()?);
            let end = SimTime::from_millis(c.u64()?);
            timeline.push(TimelineEntry { job, phase, slot, start, end });
        }
        let n_results = c.len_u32()?;
        let mut results: Vec<Option<JobResult>> = Vec::with_capacity(n_results);
        for _ in 0..n_results {
            match c.u8()? {
                0 => results.push(None),
                1 => {
                    let job = JobId(c.u32()?);
                    let name: Arc<str> = Arc::from(c.str()?);
                    let arrival = SimTime::from_millis(c.u64()?);
                    let first_map_start = c.opt_time()?;
                    let maps_finished = c.opt_time()?;
                    let completion = SimTime::from_millis(c.u64()?);
                    let deadline = c.opt_time()?;
                    let num_maps = c.u32()? as usize;
                    let num_reduces = c.u32()? as usize;
                    results.push(Some(JobResult {
                        job,
                        name,
                        arrival,
                        first_map_start,
                        maps_finished,
                        completion,
                        deadline,
                        num_maps,
                        num_reduces,
                    }));
                }
                t => return Err(CkptError::Malformed(format!("unknown result tag {t}"))),
            }
        }
        let policy_name = c.str()?;
        let blob_len = c.len_u32()?;
        let policy_blob = c.take(blob_len)?.to_vec();
        if c.pos != body.len() {
            return Err(CkptError::Malformed(format!(
                "{} trailing bytes after the checkpoint body",
                body.len() - c.pos
            )));
        }
        // every pending or collected job has an id below `job_ids`
        let ids_fit = pending.len() <= job_ids && pending.iter().all(|j| j.id.index() < job_ids);
        if !ids_fit || (collected && results.len() != job_ids) {
            return Err(CkptError::Malformed(format!("job rows disagree with {job_ids} job ids")));
        }
        Ok(EngineCheckpoint {
            at,
            clock,
            map_slots,
            reduce_slots,
            hosts,
            collected,
            jobq_dirty,
            events,
            next_seq,
            pushed,
            last_pulled_arrival,
            job_ids,
            jobs_base,
            jobs,
            pending,
            free_map_slots,
            free_reduce_slots,
            dead_hosts,
            dead_map_slots,
            dead_reduce_slots,
            fault_plan,
            map_slowdown,
            reduce_slowdown,
            policy_wakeup_at,
            events_processed,
            makespan,
            timeline,
            results,
            policy_name,
            policy_blob,
        })
    }
}

/// A divergence to apply at a fork boundary. Injected events land
/// strictly after the boundary batch; see
/// [`SimulatorEngine::apply_fork`].
pub enum Divergence {
    /// Replace the scheduling policy; the new policy adopts the live
    /// queue through the same hook replay a restore uses and starts with
    /// fresh internal clocks.
    PolicySwap(Box<dyn SchedulerPolicy>),
    /// Grow the cluster by this many extra map/reduce slots; new slots
    /// join the free pools alive and at nominal speed.
    AddSlots {
        /// Extra map slots.
        map_slots: usize,
        /// Extra reduce slots.
        reduce_slots: usize,
    },
    /// Fail a host at `at` (clamped after the boundary), permanently —
    /// the injected failure has no matching recovery.
    InjectFault {
        /// The host to fail (never host 0).
        host: HostId,
        /// When it fails.
        at: SimTime,
    },
    /// Admit extra jobs; arrivals are clamped after the boundary.
    ArrivalSurge(Vec<JobSpec>),
}

impl fmt::Debug for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::PolicySwap(p) => write!(f, "PolicySwap({:?})", p.name()),
            Divergence::AddSlots { map_slots, reduce_slots } => f
                .debug_struct("AddSlots")
                .field("map_slots", map_slots)
                .field("reduce_slots", reduce_slots)
                .finish(),
            Divergence::InjectFault { host, at } => {
                f.debug_struct("InjectFault").field("host", host).field("at", at).finish()
            }
            Divergence::ArrivalSurge(jobs) => write!(f, "ArrivalSurge({} jobs)", jobs.len()),
        }
    }
}

/// A what-if fork: divergences applied at the last settled batch at or
/// before `at`.
#[derive(Debug)]
pub struct ForkSpec {
    /// The fork instant.
    pub at: SimTime,
    /// Divergences, applied in order.
    pub divergences: Vec<Divergence>,
}

impl ForkSpec {
    /// A fork applying `divergences` at `at`.
    pub fn new(at: SimTime, divergences: Vec<Divergence>) -> Self {
        ForkSpec { at, divergences }
    }
}

/// Runs the shared prefix of `trace` once under `prefix_policy` up to
/// `at`, then fans `variants` forked suffixes out over all cores via
/// [`simmr_stats::parallel_sweep`].
///
/// `make(i)` builds variant `i` inside its worker thread: a fresh policy
/// of the *prefix* kind (checkpoints only resume under the policy that
/// captured them — swaps are a [`Divergence::PolicySwap`]) plus the fork
/// to apply. Reports come back in variant order, each byte-identical to
/// a from-scratch [`SimulatorEngine::run_forked`] of the same fork.
pub fn fork_sweep<F>(
    config: EngineConfig,
    trace: &WorkloadTrace,
    prefix_policy: Box<dyn SchedulerPolicy + '_>,
    at: SimTime,
    variants: usize,
    make: F,
) -> Result<Vec<SimulationReport>, CkptError>
where
    F: Fn(usize) -> (Box<dyn SchedulerPolicy>, ForkSpec) + Sync,
{
    let ckpt = SimulatorEngine::new(config, trace, prefix_policy)
        .checkpoint_at(at)
        .map_err(|e| CkptError::Mismatch(e.to_string()))?;
    let ckpt = &ckpt;
    parallel_sweep(variants, |i| {
        let (policy, fork) = make(i);
        let mut engine = SimulatorEngine::resume_materialized(config, ckpt, policy)?;
        engine.apply_fork(fork)?;
        engine.try_run().map_err(|e| CkptError::Mismatch(e.to_string()))
    })
    .into_iter()
    .collect()
}

/// Event-kind tags. 2 and 4 named the task-arrival marker kinds, which
/// were never enqueued; they stay reserved and decode as malformed.
fn event_kind_tag(kind: EventKind) -> u8 {
    match kind {
        EventKind::JobArrival => 0,
        EventKind::JobDeparture => 1,
        EventKind::MapTaskDeparture => 3,
        EventKind::ReduceTaskDeparture => 5,
        EventKind::AllMapsFinished => 6,
        EventKind::HostFailure => 7,
        EventKind::SpeculationDue => 8,
        EventKind::HostRecovery => 9,
        EventKind::PolicyWakeup => 10,
    }
}

fn event_kind_from_tag(tag: u8) -> Result<EventKind, CkptError> {
    Ok(match tag {
        0 => EventKind::JobArrival,
        1 => EventKind::JobDeparture,
        3 => EventKind::MapTaskDeparture,
        5 => EventKind::ReduceTaskDeparture,
        6 => EventKind::AllMapsFinished,
        7 => EventKind::HostFailure,
        8 => EventKind::SpeculationDue,
        9 => EventKind::HostRecovery,
        10 => EventKind::PolicyWakeup,
        t => return Err(CkptError::Malformed(format!("unknown event kind tag {t}"))),
    })
}

// ---- little-endian write helpers ----------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_time(out: &mut Vec<u8>, t: Option<SimTime>) {
    match t {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_u64(out, t.as_millis());
        }
    }
}

fn put_u32_vec(out: &mut Vec<u8>, v: &[u32]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u32(out, x);
    }
}

fn put_u64_vec(out: &mut Vec<u8>, v: &[u64]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u64(out, x);
    }
}

fn put_bool_vec(out: &mut Vec<u8>, v: &[bool]) {
    put_u32(out, v.len() as u32);
    out.extend(v.iter().map(|&b| b as u8));
}

fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u64(out, x.to_bits());
    }
}

fn encode_template(t: &JobTemplate) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_str(&mut out, &t.name);
    put_u32(&mut out, t.num_maps as u32);
    put_u32(&mut out, t.num_reduces as u32);
    put_u64_vec(&mut out, &t.map_durations);
    put_u64_vec(&mut out, &t.first_shuffle_durations);
    put_u64_vec(&mut out, &t.typical_shuffle_durations);
    put_u64_vec(&mut out, &t.reduce_durations);
    out
}

fn encode_job(out: &mut Vec<u8>, s: &JobState, template_id: u32) {
    put_u32(out, template_id);
    put_u64(out, s.arrival.as_millis());
    put_opt_time(out, s.deadline);
    put_u32(out, s.maps_total as u32);
    put_u32(out, s.reduces_total as u32);
    put_u32(out, s.fresh_maps as u32);
    put_u32_vec(out, &s.requeued_maps);
    put_u32(out, s.running_map_list.len() as u32);
    for r in &s.running_map_list {
        put_u32(out, r.idx);
        put_u32(out, r.attempt);
        put_u64(out, r.start.as_millis());
        put_u32(out, r.slot);
    }
    put_u32_vec(out, &s.map_gen);
    put_bool_vec(out, &s.map_done);
    put_u32_vec(out, &s.map_done_slot);
    put_u32(out, s.maps_completed as u32);
    put_u32(out, s.fresh_reduces as u32);
    put_u32_vec(out, &s.requeued_reduces);
    put_u32(out, s.running_reduce_list.len() as u32);
    for r in &s.running_reduce_list {
        put_u32(out, r.idx);
        put_u32(out, r.attempt);
        put_u64(out, r.start.as_millis());
        put_u32(out, r.slot);
        put_u64(out, r.shuffle_end.as_millis());
    }
    put_u32_vec(out, &s.reduce_gen);
    put_u32(out, s.reduces_completed as u32);
    put_u32(out, s.reduce_threshold as u32);
    out.push(s.active as u8);
    put_opt_time(out, s.first_map_start);
    put_opt_time(out, s.maps_finished);
    put_u64(out, s.spec_threshold);
    put_bool_vec(out, &s.speculated);
    put_u32_vec(out, &s.spec_pending);
}

// ---- bounds-checked read cursor ------------------------------------------

struct Cursor<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Cursor<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], CkptError> {
        let end = self.pos.checked_add(n).ok_or(CkptError::Truncated)?;
        if end > self.buf.len() {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A `u32` length prefix, sanity-capped against the bytes remaining
    /// so a corrupted length cannot trigger a huge allocation.
    fn len_u32(&mut self) -> Result<usize, CkptError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(CkptError::Truncated);
        }
        Ok(n)
    }

    fn opt_time(&mut self) -> Result<Option<SimTime>, CkptError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(SimTime::from_millis(self.u64()?))),
            t => Err(CkptError::Malformed(format!("unknown option tag {t}"))),
        }
    }

    fn str(&mut self) -> Result<String, CkptError> {
        let n = self.len_u32()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| CkptError::BadUtf8)
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, CkptError> {
        let n = self.len_u32()?;
        (0..n).map(|_| self.u32()).collect()
    }

    fn u64_vec(&mut self) -> Result<Vec<u64>, CkptError> {
        let n = self.len_u32()?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn bool_vec(&mut self) -> Result<Vec<bool>, CkptError> {
        let n = self.len_u32()?;
        self.take(n)?
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                t => Err(CkptError::Malformed(format!("non-boolean byte {t}"))),
            })
            .collect()
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, CkptError> {
        let n = self.len_u32()?;
        (0..n).map(|_| Ok(f64::from_bits(self.u64()?))).collect()
    }

    fn template(&mut self) -> Result<JobTemplate, CkptError> {
        let name: Arc<str> = Arc::from(self.str()?);
        let num_maps = self.u32()? as usize;
        let num_reduces = self.u32()? as usize;
        let map_durations = self.u64_vec()?;
        let first_shuffle_durations = self.u64_vec()?;
        let typical_shuffle_durations = self.u64_vec()?;
        let reduce_durations = self.u64_vec()?;
        let t = JobTemplate {
            name,
            num_maps,
            num_reduces,
            map_durations,
            first_shuffle_durations,
            typical_shuffle_durations,
            reduce_durations,
        };
        t.validate().map_err(|e| CkptError::Malformed(format!("invalid job template: {e}")))?;
        Ok(t)
    }

    /// A template-table index, resolved.
    fn interned(&mut self, templates: &[Arc<JobTemplate>]) -> Result<Arc<JobTemplate>, CkptError> {
        let tid = self.u32()? as usize;
        templates.get(tid).cloned().ok_or_else(|| {
            CkptError::Malformed(format!(
                "job names template {tid} of {} interned",
                templates.len()
            ))
        })
    }

    fn job(&mut self, templates: &[Arc<JobTemplate>]) -> Result<JobState, CkptError> {
        let template = self.interned(templates)?;
        let arrival = SimTime::from_millis(self.u64()?);
        let deadline = self.opt_time()?;
        let maps_total = self.u32()? as usize;
        let reduces_total = self.u32()? as usize;
        let fresh_maps = self.u32()? as usize;
        let requeued_maps = self.u32_vec()?;
        let n_rm = self.len_u32()?;
        let mut running_map_list = Vec::with_capacity(n_rm);
        for _ in 0..n_rm {
            let idx = self.u32()?;
            let attempt = self.u32()?;
            let start = SimTime::from_millis(self.u64()?);
            let slot = self.u32()?;
            running_map_list.push(RunningMap { idx, attempt, start, slot });
        }
        let map_gen = self.u32_vec()?;
        let map_done = self.bool_vec()?;
        let map_done_slot = self.u32_vec()?;
        let maps_completed = self.u32()? as usize;
        let fresh_reduces = self.u32()? as usize;
        let requeued_reduces = self.u32_vec()?;
        let n_rr = self.len_u32()?;
        let mut running_reduce_list = Vec::with_capacity(n_rr);
        for _ in 0..n_rr {
            let idx = self.u32()?;
            let attempt = self.u32()?;
            let start = SimTime::from_millis(self.u64()?);
            let slot = self.u32()?;
            let shuffle_end = SimTime::from_millis(self.u64()?);
            running_reduce_list.push(RunningReduce { idx, attempt, start, slot, shuffle_end });
        }
        let reduce_gen = self.u32_vec()?;
        let reduces_completed = self.u32()? as usize;
        let reduce_threshold = self.u32()? as usize;
        let active = match self.u8()? {
            0 => false,
            1 => true,
            t => return Err(CkptError::Malformed(format!("non-boolean active byte {t}"))),
        };
        let first_map_start = self.opt_time()?;
        let maps_finished = self.opt_time()?;
        let spec_threshold = self.u64()?;
        let speculated = self.bool_vec()?;
        let spec_pending = self.u32_vec()?;
        if map_gen.len() != maps_total
            || map_done.len() != maps_total
            || map_done_slot.len() != maps_total
            || speculated.len() != maps_total
            || reduce_gen.len() != reduces_total
        {
            return Err(CkptError::Malformed(format!(
                "job task-vector lengths disagree with totals ({maps_total} maps, \
                 {reduces_total} reduces)"
            )));
        }
        Ok(JobState {
            template,
            arrival,
            deadline,
            maps_total,
            reduces_total,
            fresh_maps,
            requeued_maps,
            running_map_list,
            map_gen,
            map_done,
            map_done_slot,
            maps_completed,
            fresh_reduces,
            requeued_reduces,
            running_reduce_list,
            reduce_gen,
            reduces_completed,
            reduce_threshold,
            active,
            first_map_start,
            maps_finished,
            spec_threshold,
            speculated,
            spec_pending,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceJobSource;
    use crate::{FaultSpec, RecoverySpec};
    use simmr_stats::Dist;
    use simmr_types::{JobId, JobTemplate};

    /// Minimal FIFO — the checkpoint layer must not depend on simmr-sched.
    struct TestFifo;
    impl SchedulerPolicy for TestFifo {
        fn name(&self) -> &str {
            "test-fifo"
        }
        fn choose_next_map_task(&mut self, q: &crate::JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_map())
                .min_by_key(|e| (e.arrival, e.id))
                .map(|e| e.id)
        }
        fn choose_next_reduce_task(&mut self, q: &crate::JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_reduce())
                .min_by_key(|e| (e.arrival, e.id))
                .map(|e| e.id)
        }
    }

    fn job(maps: usize, reduces: usize, ms: u64, arrival: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new(
                "ckpt-test",
                vec![ms; maps],
                if reduces > 0 { vec![ms] } else { vec![] },
                if reduces > 0 { vec![ms / 2 + 1; reduces] } else { vec![] },
                vec![ms; reduces],
            )
            .unwrap(),
            SimTime::from_millis(arrival),
        )
    }

    fn busy_trace() -> WorkloadTrace {
        let mut trace = WorkloadTrace::new("ckpt", "test");
        for i in 0..6 {
            trace.push(job(3 + i % 3, 2, 40 + 7 * i as u64, 55 * i as u64));
        }
        trace
    }

    fn busy_config() -> EngineConfig {
        EngineConfig::new(3, 2)
            .with_hosts(4)
            .with_timeline()
            .with_invariants()
            .with_faults(FaultSpec { seed: 11, count: 2, mean_interval_ms: 120 })
            .with_recovery(RecoverySpec { seed: 12, mean_ms: 90 })
            .with_speculation(1.5)
            .with_slowdown(Dist::Exponential { mean: 1.2 }, 13)
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ check value, same parameterization as trace digests.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn encode_decode_encode_is_identity() {
        let trace = busy_trace();
        let ckpt = SimulatorEngine::new(busy_config(), &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(150))
            .unwrap();
        let bytes = ckpt.encode();
        let decoded = EngineCheckpoint::decode(&bytes).unwrap();
        assert_eq!(decoded.encode(), bytes);
        assert_eq!(decoded.digest(), ckpt.digest());
        assert!(ckpt.pending_events() > 0);
        assert!(ckpt.boundary() <= ckpt.at());
    }

    #[test]
    fn resume_materialized_matches_uninterrupted() {
        let trace = busy_trace();
        let config = busy_config();
        let full = SimulatorEngine::new(config, &trace, Box::new(TestFifo)).try_run().unwrap();
        for at in [0u64, 90, 151, 400, 100_000] {
            let ckpt = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
                .checkpoint_at(SimTime::from_millis(at))
                .unwrap();
            // round-trip through bytes so the codec is on the hot path
            let ckpt = EngineCheckpoint::decode(&ckpt.encode()).unwrap();
            let resumed = SimulatorEngine::resume_materialized(config, &ckpt, Box::new(TestFifo))
                .unwrap()
                .try_run()
                .unwrap();
            assert_eq!(resumed, full, "divergence resuming from t={at}");
        }
    }

    #[test]
    fn resume_streaming_matches_uninterrupted() {
        let trace = busy_trace();
        let config = busy_config();
        let full = SimulatorEngine::from_source(
            config,
            Box::new(TraceJobSource::new(&trace)),
            Box::new(TestFifo),
        )
        .try_run()
        .unwrap();
        let ckpt = SimulatorEngine::from_source(
            config,
            Box::new(TraceJobSource::new(&trace)),
            Box::new(TestFifo),
        )
        .checkpoint_at(SimTime::from_millis(140))
        .unwrap();
        let ckpt = EngineCheckpoint::decode(&ckpt.encode()).unwrap();
        let resumed = SimulatorEngine::resume_materialized(config, &ckpt, Box::new(TestFifo))
            .unwrap()
            .try_run()
            .unwrap();
        assert_eq!(resumed, full);
    }

    #[test]
    fn fork_sweep_matches_from_scratch_forks() {
        let trace = busy_trace();
        let config = busy_config();
        let at = SimTime::from_millis(160);
        let fork_for = |i: usize| {
            ForkSpec::new(
                at,
                match i {
                    0 => vec![Divergence::AddSlots { map_slots: 2, reduce_slots: 1 }],
                    1 => vec![Divergence::InjectFault {
                        host: HostId(2),
                        at: SimTime::from_millis(10), // before the boundary: clamped
                    }],
                    _ => vec![
                        Divergence::ArrivalSurge(vec![job(4, 1, 30, 100)]),
                        Divergence::AddSlots { map_slots: 0, reduce_slots: 1 },
                    ],
                },
            )
        };
        let swept = fork_sweep(config, &trace, Box::new(TestFifo), at, 3, |i| {
            (Box::new(TestFifo) as Box<dyn SchedulerPolicy>, fork_for(i))
        })
        .unwrap();
        for (i, report) in swept.iter().enumerate() {
            let reference = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
                .run_forked(fork_for(i))
                .unwrap();
            assert_eq!(report, &reference, "variant {i} diverged from its reference");
        }
        // forks actually change the outcome vs the unforked run
        let base = SimulatorEngine::new(config, &trace, Box::new(TestFifo)).try_run().unwrap();
        assert_ne!(swept[2].jobs.len(), base.jobs.len());
    }

    #[test]
    fn decode_rejects_corruption() {
        let trace = busy_trace();
        let ckpt = SimulatorEngine::new(busy_config(), &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(100))
            .unwrap();
        let bytes = ckpt.encode();

        let decode_err = |b: &[u8]| EngineCheckpoint::decode(b).map(|_| ()).unwrap_err();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_err(&bad_magic), CkptError::BadMagic);

        assert_eq!(decode_err(&bytes[..4]), CkptError::Truncated);
        assert_eq!(
            decode_err(&bytes[..bytes.len() - 9]),
            CkptError::ChecksumMismatch {
                expected: u64::from_le_bytes(
                    bytes[bytes.len() - 17..bytes.len() - 9].try_into().unwrap()
                ),
                actual: crc64(&bytes[..bytes.len() - 17]),
            }
        );

        let mut flipped = bytes.clone();
        flipped[40] ^= 0x10;
        assert!(matches!(decode_err(&flipped), CkptError::ChecksumMismatch { .. }));

        // bump the version and re-sign: the version check must fire
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 0xFF;
        let body_len = wrong_version.len() - 8;
        let crc = crc64(&wrong_version[..body_len]);
        wrong_version[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_err(&wrong_version), CkptError::BadVersion(0x00FF));
    }

    /// Re-signs `bytes` after an in-place edit, so decoding gets past the
    /// checksum to the edited field.
    fn resign(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let crc = crc64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn version_1_checkpoints_are_refused() {
        let trace = busy_trace();
        let ckpt = SimulatorEngine::new(busy_config(), &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(100))
            .unwrap();
        // version 2 blobs carry the old maxedf/minedf/capacity policy
        // blobs and are refused the same way
        for old in [1u16, 2] {
            let mut bytes = ckpt.encode();
            bytes[8..10].copy_from_slice(&old.to_le_bytes());
            resign(&mut bytes);
            let err = EngineCheckpoint::decode(&bytes).map(|_| ()).unwrap_err();
            assert_eq!(err, CkptError::BadVersion(old));
        }
    }

    #[test]
    fn reserved_event_kind_tags_are_malformed() {
        // tags 2 and 4 named the never-enqueued task-arrival markers
        let trace = busy_trace();
        let ckpt = SimulatorEngine::new(EngineConfig::new(3, 2), &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(100))
            .unwrap();
        assert!(ckpt.pending_events() > 0);
        assert_eq!(ckpt.policy_wakeup_at, None);
        // magic, version, at, clock, 3 shape words, flags, last pull,
        // wakeup tag, events processed, makespan, next seq, pushed, event
        // count; then the first event's time and seq precede its kind
        let kind_at = 8 + 2 + 8 + 8 + 12 + 1 + 8 + 1 + 8 + 8 + 8 + 8 + 4 + 8 + 8;
        let bytes = ckpt.encode();
        assert_eq!(bytes[kind_at], event_kind_tag(ckpt.events[0].kind));
        for tag in [2u8, 4] {
            let mut reserved = bytes.clone();
            reserved[kind_at] = tag;
            resign(&mut reserved);
            let err = EngineCheckpoint::decode(&reserved).map(|_| ()).unwrap_err();
            assert!(matches!(err, CkptError::Malformed(_)), "tag {tag}: {err:?}");
        }
    }

    #[test]
    fn job_id_count_must_cover_pending_and_results() {
        let trace = busy_trace();
        let mut ckpt = SimulatorEngine::new(busy_config(), &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(100))
            .unwrap();
        ckpt.job_ids = 1;
        let err = EngineCheckpoint::decode(&ckpt.encode()).map(|_| ()).unwrap_err();
        assert!(matches!(err, CkptError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn checkpoints_carry_the_unpulled_jobs() {
        let trace = busy_trace();
        let config = busy_config();
        // arrivals every 55 ms; the next arrival is always pulled already
        for (at, admitted) in [(0u64, 2usize), (150, 4), (100_000, 6)] {
            let ckpt = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
                .checkpoint_at(SimTime::from_millis(at))
                .unwrap();
            assert_eq!(ckpt.jobs_admitted(), admitted, "at t={at}");
            assert_eq!(ckpt.pending_arrivals(), trace.len() - admitted, "at t={at}");
        }
    }

    #[test]
    fn resume_with_out_of_order_trace_matches_uninterrupted() {
        // trace order is not arrival order: job 0 arrives last, so the
        // checkpoint's job window holds a not-yet-pulled hole at its front
        let mut trace = busy_trace();
        trace.jobs[0].arrival = SimTime::from_millis(420);
        let config = busy_config();
        let full = SimulatorEngine::new(config, &trace, Box::new(TestFifo)).try_run().unwrap();
        assert_eq!(full.jobs[0].arrival, SimTime::from_millis(420));
        for at in [0u64, 120, 300, 500] {
            let ckpt = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
                .checkpoint_at(SimTime::from_millis(at))
                .unwrap();
            let ckpt = EngineCheckpoint::decode(&ckpt.encode()).unwrap();
            let resumed = SimulatorEngine::resume_materialized(config, &ckpt, Box::new(TestFifo))
                .unwrap()
                .try_run()
                .unwrap();
            assert_eq!(resumed, full, "divergence resuming from t={at}");
        }
    }

    #[test]
    fn surge_jobs_get_ids_after_the_trace() {
        // injected jobs get ids trace_len + k, cold (run_forked) and warm
        // (resume + apply_fork) alike, even once the source is drained; the
        // second surge job ties with trace job 4 (arrival 220), which was
        // not pulled yet at t=160 but still arrives first, as its id says
        let trace = busy_trace();
        let config = busy_config();
        for at in [160u64, 100_000] {
            let fork = || {
                ForkSpec::new(
                    SimTime::from_millis(at),
                    vec![Divergence::ArrivalSurge(vec![job(2, 1, 30, 0), job(1, 0, 20, 220)])],
                )
            };
            let cold = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
                .run_forked(fork())
                .unwrap();
            let ckpt = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
                .checkpoint_at(SimTime::from_millis(at))
                .unwrap();
            let mut warm =
                SimulatorEngine::resume_materialized(config, &ckpt, Box::new(TestFifo)).unwrap();
            warm.apply_fork(fork()).unwrap();
            let warm = warm.try_run().unwrap();
            assert_eq!(warm, cold, "fork at t={at}");
            let n = trace.len();
            assert_eq!(cold.jobs.len(), n + 2);
            for (k, row) in cold.jobs[n..].iter().enumerate() {
                assert_eq!(row.job, JobId((n + k) as u32));
                assert_eq!(row.num_maps, 2 - k);
            }
        }
    }

    #[test]
    fn resume_rejects_mismatched_shape() {
        let trace = busy_trace();
        let config = busy_config();
        let ckpt = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
            .checkpoint_at(SimTime::from_millis(100))
            .unwrap();
        struct OtherName;
        impl SchedulerPolicy for OtherName {
            fn name(&self) -> &str {
                "other"
            }
            fn choose_next_map_task(&mut self, _q: &crate::JobQueue) -> Option<JobId> {
                None
            }
            fn choose_next_reduce_task(&mut self, _q: &crate::JobQueue) -> Option<JobId> {
                None
            }
        }
        let err = SimulatorEngine::resume_materialized(config, &ckpt, Box::new(OtherName))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, CkptError::Mismatch(_)), "{err}");
        let err = SimulatorEngine::resume_materialized(
            EngineConfig::new(9, 9),
            &ckpt,
            Box::new(TestFifo),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, CkptError::Mismatch(_)), "{err}");
    }
}
