//! The request-scoped engine facade: [`ScenarioSpec`] in,
//! [`simmr_types::SimulationReport`] out.
//!
//! A scenario is *everything* a simulation run depends on, as one plain
//! serializable value — where the CLI used to thread a dozen
//! `EngineConfig` builder calls per call site. The facade resolves the
//! scenario's [`TraceRef`] (against a [`TraceDatabase`] when one is
//! configured), stamps deadlines when asked, builds the policy and the
//! engine config, and runs. Because the engine is deterministic, the
//! normalized spec plus the trace's content digest — the
//! [`ScenarioSpec::canonical_key`] — fully determines the report byte
//! for byte, which is what makes the serve layer's memo cache sound.

use crate::cache::{CacheStats, CkptCache, MemoCache};
use simmr_core::{
    Divergence, EngineCheckpoint, EngineConfig, FaultSpec, ForkSpec, JobSource, RecoverySpec,
    SimulatorEngine,
};
use simmr_sched::PolicySpec;
use simmr_stats::parallel_sweep;
use simmr_stats::{Dist, SeededRng};
use simmr_trace::{digest_trace, BinTraceSource, TraceDatabase, TraceDigest, TraceFormat};
use simmr_types::{ClusterSpec, HostId, JobSpec, SimTime, SimulationReport, WorkloadTrace};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Which trace a scenario runs: a reference the facade resolves.
///
/// Serialized as an object with exactly one key — `{"name": N}`,
/// `{"digest": D}`, `{"path": P}` or `{"inline": TRACE}` — or, as a
/// shorthand, a bare string meaning a database name.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRef {
    /// A named entry in the configured trace database.
    Name(String),
    /// Whatever database entry has this content digest.
    Digest(TraceDigest),
    /// A trace file on the server's filesystem (JSON or SIMMRBIN).
    Path(String),
    /// The trace itself, shipped in the request.
    Inline(WorkloadTrace),
}

impl serde::Serialize for TraceRef {
    fn to_value(&self) -> serde::Value {
        let (key, v) = match self {
            TraceRef::Name(n) => ("name", serde::Value::Str(n.clone())),
            TraceRef::Digest(d) => ("digest", serde::Value::Str(d.to_string())),
            TraceRef::Path(p) => ("path", serde::Value::Str(p.clone())),
            TraceRef::Inline(t) => ("inline", t.to_value()),
        };
        serde::Value::Object(vec![(key.to_owned(), v)])
    }
}

impl serde::Deserialize for TraceRef {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(name) => Ok(TraceRef::Name(name.clone())),
            serde::Value::Object(pairs) => {
                if pairs.len() != 1 {
                    return Err(serde::DeError::new(
                        "trace ref must have exactly one of `name`, `digest`, `path`, `inline`",
                    ));
                }
                let (key, val) = &pairs[0];
                match key.as_str() {
                    "name" => String::from_value(val).map(TraceRef::Name),
                    "digest" => TraceDigest::from_value(val).map(TraceRef::Digest),
                    "path" => String::from_value(val).map(TraceRef::Path),
                    "inline" => WorkloadTrace::from_value(val).map(TraceRef::Inline),
                    other => Err(serde::DeError::new(format!("unknown trace ref kind `{other}`"))),
                }
            }
            other => Err(serde::DeError::new(format!(
                "expected trace ref object or name string, got {other:?}"
            ))),
        }
    }
}

/// One serializable fork divergence, applied at the scenario's
/// `fork_at` instant (see [`simmr_core::Divergence`] for semantics).
///
/// Serialized as an object with exactly one key:
/// `{"policy": SPEC}` — hand the live queue to a different policy;
/// `{"add_slots": {"maps": N, "reduces": M}}` — grow the slot pools;
/// `{"fault": {"host": H, "at": MS}}` — permanently fail a host;
/// `{"surge": [JOB, ...]}` — inject extra job arrivals.
#[derive(Debug, Clone, PartialEq)]
pub enum DivergenceSpec {
    /// Swap the scheduling policy from the fork instant on.
    Policy(PolicySpec),
    /// Grow the map/reduce slot pools (grow-only, like the engine).
    AddSlots {
        /// Extra map slots.
        map_slots: usize,
        /// Extra reduce slots.
        reduce_slots: usize,
    },
    /// Permanently fail a host no earlier than the given instant (ms).
    Fault {
        /// Host to fail (host 0 never fails).
        host: u32,
        /// Failure instant in ms; clamped past the fork boundary.
        at_ms: u64,
    },
    /// Inject extra jobs (arrivals clamped past the fork boundary).
    Surge(Vec<JobSpec>),
}

impl DivergenceSpec {
    /// The engine-side divergence this spec describes.
    fn build(&self) -> Divergence {
        match self {
            DivergenceSpec::Policy(p) => Divergence::PolicySwap(p.build()),
            DivergenceSpec::AddSlots { map_slots, reduce_slots } => {
                Divergence::AddSlots { map_slots: *map_slots, reduce_slots: *reduce_slots }
            }
            DivergenceSpec::Fault { host, at_ms } => {
                Divergence::InjectFault { host: HostId(*host), at: SimTime::from_millis(*at_ms) }
            }
            DivergenceSpec::Surge(jobs) => Divergence::ArrivalSurge(jobs.clone()),
        }
    }
}

impl serde::Serialize for DivergenceSpec {
    fn to_value(&self) -> serde::Value {
        let (key, v) = match self {
            DivergenceSpec::Policy(p) => ("policy", p.to_value()),
            DivergenceSpec::AddSlots { map_slots, reduce_slots } => (
                "add_slots",
                serde::Value::Object(vec![
                    ("maps".to_owned(), map_slots.to_value()),
                    ("reduces".to_owned(), reduce_slots.to_value()),
                ]),
            ),
            DivergenceSpec::Fault { host, at_ms } => (
                "fault",
                serde::Value::Object(vec![
                    ("host".to_owned(), host.to_value()),
                    ("at".to_owned(), at_ms.to_value()),
                ]),
            ),
            DivergenceSpec::Surge(jobs) => ("surge", jobs.to_value()),
        };
        serde::Value::Object(vec![(key.to_owned(), v)])
    }
}

impl serde::Deserialize for DivergenceSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Object(pairs) = v else {
            return Err(serde::DeError::new(format!("expected divergence object, got {v:?}")));
        };
        if pairs.len() != 1 {
            return Err(serde::DeError::new(
                "divergence must have exactly one of `policy`, `add_slots`, `fault`, `surge`",
            ));
        }
        let (key, val) = &pairs[0];
        match key.as_str() {
            "policy" => PolicySpec::from_value(val).map(DivergenceSpec::Policy),
            "add_slots" => {
                let sub = |name: &str| match val.get(name) {
                    None | Some(serde::Value::Null) => Ok(0usize),
                    Some(fv) => usize::from_value(fv)
                        .map_err(|e| serde::DeError::new(format!("add_slots.{name}: {e}"))),
                };
                Ok(DivergenceSpec::AddSlots {
                    map_slots: sub("maps")?,
                    reduce_slots: sub("reduces")?,
                })
            }
            "fault" => {
                let host = match val.get("host") {
                    Some(fv) => u32::from_value(fv)
                        .map_err(|e| serde::DeError::new(format!("fault.host: {e}")))?,
                    None => return Err(serde::DeError::new("fault divergence needs `host`")),
                };
                let at_ms = match val.get("at") {
                    None | Some(serde::Value::Null) => 0,
                    Some(fv) => u64::from_value(fv)
                        .map_err(|e| serde::DeError::new(format!("fault.at: {e}")))?,
                };
                Ok(DivergenceSpec::Fault { host, at_ms })
            }
            "surge" => Vec::<JobSpec>::from_value(val).map(DivergenceSpec::Surge),
            other => Err(serde::DeError::new(format!("unknown divergence kind `{other}`"))),
        }
    }
}

/// The complete, serializable description of one simulation run.
///
/// Construct with [`ScenarioSpec::new`] (which fills the CLI's defaults)
/// and set the public fields, or deserialize from a request body — only
/// `trace` and `policy` are required there; every other field defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The trace to replay.
    pub trace: TraceRef,
    /// The scheduling policy (canonical string form over the wire).
    pub policy: PolicySpec,
    /// Cluster shape: slot pools and the host count they stripe over.
    pub cluster: ClusterSpec,
    /// Seed shared by the deadline, fault, recovery and slowdown streams
    /// (mirroring the CLI's single `--seed`).
    pub seed: u64,
    /// Stamp §V-B deadlines: uniform in `[T_j, factor × T_j]` past each
    /// arrival, where `T_j` is the job's standalone duration.
    pub deadline_factor: Option<f64>,
    /// Number of planned fail-stop host losses; needs `cluster.hosts ≥ 2`.
    pub failures: Option<u32>,
    /// Mean inter-failure interval in seconds (used only with `failures`).
    pub failure_mtbf_s: f64,
    /// Mean host downtime in seconds; failures are permanent when absent.
    pub failure_recovery_s: Option<f64>,
    /// Speculative re-execution threshold (× median map duration).
    pub speculation: Option<f64>,
    /// Per-slot mean-1 LogNormal slowdown with this sigma.
    pub slowdown_sigma: Option<f64>,
    /// Slowstart override (fraction of maps before reduces start);
    /// `None` keeps the engine default.
    pub slowstart: Option<f64>,
    /// Skip per-job results (aggregate-only report).
    pub aggregate: bool,
    /// Record the per-task timeline in the report.
    pub timeline: bool,
    /// Run the engine's runtime invariant checker.
    pub check_invariants: bool,
    /// Fork instant in ms: run the scenario as a *fork* of its own
    /// prefix — the prefix runs (or warm-starts from a memoized
    /// checkpoint) up to the last settled batch boundary ≤ this instant,
    /// then `divergences` apply and the suffix runs to completion.
    pub fork_at: Option<u64>,
    /// Divergences applied at `fork_at`, in order. Needs `fork_at`.
    pub divergences: Vec<DivergenceSpec>,
}

impl ScenarioSpec {
    /// A scenario with the CLI's defaults: 64×64 single-host cluster,
    /// seed 1, no deadlines, failures, speculation or slowdown.
    pub fn new(trace: TraceRef, policy: PolicySpec) -> Self {
        ScenarioSpec {
            trace,
            policy,
            cluster: ClusterSpec::new(64, 64),
            seed: 1,
            deadline_factor: None,
            failures: None,
            failure_mtbf_s: 3600.0,
            failure_recovery_s: None,
            speculation: None,
            slowdown_sigma: None,
            slowstart: None,
            aggregate: false,
            timeline: false,
            check_invariants: false,
            fork_at: None,
            divergences: Vec::new(),
        }
    }

    /// Rewrites the spec to its canonical form: every knob clamped the
    /// way the engine would clamp it, parameters that cannot affect the
    /// run reset to defaults, capacity queues in name order. Equivalent
    /// specs normalize identically, so they share a cache key.
    pub fn normalize(&mut self) {
        self.cluster.hosts = self.cluster.hosts.max(1);
        if let PolicySpec::Capacity { queues } = &mut self.policy {
            // FromStr already sorts; programmatic construction may not
            queues.sort_by(|a, b| a.0.cmp(&b.0));
        }
        if self.failures.is_none() {
            // without failures the MTBF and recovery knobs are inert
            self.failure_mtbf_s = 3600.0;
            self.failure_recovery_s = None;
        }
        if let Some(df) = &mut self.deadline_factor {
            // attach_deadlines draws from [T_j, max(1, factor) × T_j]
            *df = df.max(1.0);
        }
        if let Some(f) = &mut self.speculation {
            // the engine clamps to ≥ 1 (duplicating non-stragglers is senseless)
            *f = f.max(1.0);
        }
        if let Some(s) = &mut self.slowstart {
            *s = s.clamp(0.0, 1.0);
        }
        if self.divergences.is_empty() {
            // a fork with no divergences replays the base scenario
            // byte-identically, so it shares the base cache entry
            self.fork_at = None;
        }
        for d in &mut self.divergences {
            if let DivergenceSpec::Policy(PolicySpec::Capacity { queues }) = d {
                queues.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }
    }

    /// Rejects inconsistent specs with the CLI's rules.
    pub fn validate(&self) -> Result<(), FacadeError> {
        let bad = |msg: &str| Err(FacadeError::BadSpec(msg.into()));
        if self.failures.is_some() {
            if self.cluster.hosts < 2 {
                return bad("failures need a cluster of at least 2 hosts (host 0 never fails)");
            }
            if !(self.failure_mtbf_s.is_finite() && self.failure_mtbf_s > 0.0) {
                return bad("failure_mtbf_s must be positive");
            }
        }
        if let Some(rec) = self.failure_recovery_s {
            if self.failures.is_none() {
                return bad("failure_recovery_s needs failures");
            }
            if !(rec.is_finite() && rec > 0.0) {
                return bad("failure_recovery_s must be positive");
            }
        }
        if let Some(sigma) = self.slowdown_sigma {
            if !(sigma.is_finite() && sigma > 0.0) {
                return bad("slowdown_sigma must be positive");
            }
        }
        if let Some(df) = self.deadline_factor {
            if !df.is_finite() {
                return bad("deadline_factor must be finite");
            }
        }
        if !self.divergences.is_empty() && self.fork_at.is_none() {
            return bad("divergences need fork_at (the fork instant in ms)");
        }
        for d in &self.divergences {
            match d {
                DivergenceSpec::Fault { host, .. } => {
                    if self.cluster.hosts < 2 {
                        return bad("a fork fault needs a cluster of at least 2 hosts");
                    }
                    if *host == 0 || *host as usize >= self.cluster.hosts {
                        return Err(FacadeError::BadSpec(format!(
                            "fork fault names host {host} of a {}-host cluster \
                             (host 0 never fails)",
                            self.cluster.hosts
                        )));
                    }
                }
                DivergenceSpec::Surge(jobs) => {
                    if jobs.is_empty() {
                        return bad("a surge divergence needs at least one job");
                    }
                    for job in jobs {
                        job.template.validate().map_err(|e| {
                            FacadeError::BadSpec(format!("surge job template invalid: {e}"))
                        })?;
                    }
                }
                DivergenceSpec::Policy(_) | DivergenceSpec::AddSlots { .. } => {}
            }
        }
        Ok(())
    }

    /// The scenario's cache identity: compact JSON of the normalized
    /// spec with the trace reference replaced by the resolved content
    /// `digest`. Two specs with equal keys produce byte-identical
    /// reports (the engine is deterministic in everything the key pins).
    pub fn canonical_key(&self, digest: TraceDigest) -> String {
        let mut spec = self.clone();
        spec.normalize();
        let mut v = serde::Serialize::to_value(&spec);
        if let serde::Value::Object(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "trace" {
                    *val = serde::Value::Object(vec![(
                        "digest".to_owned(),
                        serde::Value::Str(digest.to_string()),
                    )]);
                }
            }
        }
        serde_json::to_string(&v).expect("value serialization is infallible")
    }

    /// The engine configuration this spec describes (trace-independent).
    fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig::new(self.cluster.map_slots, self.cluster.reduce_slots)
            .with_cluster(self.cluster);
        if self.aggregate {
            config = config.without_job_results();
        }
        if self.timeline {
            config = config.with_timeline();
        }
        if self.check_invariants {
            config = config.with_invariants();
        }
        if let Some(count) = self.failures {
            config = config.with_faults(FaultSpec {
                seed: self.seed,
                count,
                mean_interval_ms: (self.failure_mtbf_s * 1000.0) as u64,
            });
        }
        if let Some(rec_s) = self.failure_recovery_s {
            config = config
                .with_recovery(RecoverySpec { seed: self.seed, mean_ms: (rec_s * 1000.0) as u64 });
        }
        if let Some(factor) = self.speculation {
            config = config.with_speculation(factor);
        }
        if let Some(sigma) = self.slowdown_sigma {
            // mean-1 LogNormal: perturbs without shifting the average
            let dist = Dist::LogNormal { mu: -sigma * sigma / 2.0, sigma };
            config = config.with_slowdown(dist, self.seed);
        }
        if let Some(fraction) = self.slowstart {
            config = config.with_slowstart(fraction);
        }
        config
    }

    /// The engine-side fork this spec describes (meaningful only when
    /// `fork_at` is set).
    fn fork_spec(&self) -> ForkSpec {
        ForkSpec::new(
            SimTime::from_millis(self.fork_at.unwrap_or(0)),
            self.divergences.iter().map(DivergenceSpec::build).collect(),
        )
    }
}

impl serde::Serialize for ScenarioSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("trace".to_owned(), self.trace.to_value()),
            ("policy".to_owned(), self.policy.to_value()),
            ("cluster".to_owned(), self.cluster.to_value()),
            ("seed".to_owned(), self.seed.to_value()),
            ("deadline_factor".to_owned(), self.deadline_factor.to_value()),
            ("failures".to_owned(), self.failures.to_value()),
            ("failure_mtbf_s".to_owned(), self.failure_mtbf_s.to_value()),
            ("failure_recovery_s".to_owned(), self.failure_recovery_s.to_value()),
            ("speculation".to_owned(), self.speculation.to_value()),
            ("slowdown_sigma".to_owned(), self.slowdown_sigma.to_value()),
            ("slowstart".to_owned(), self.slowstart.to_value()),
            ("aggregate".to_owned(), self.aggregate.to_value()),
            ("timeline".to_owned(), self.timeline.to_value()),
            ("check_invariants".to_owned(), self.check_invariants.to_value()),
            ("fork_at".to_owned(), self.fork_at.to_value()),
            ("divergences".to_owned(), self.divergences.to_value()),
        ])
    }
}

impl serde::Deserialize for ScenarioSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if !matches!(v, serde::Value::Object(_)) {
            return Err(serde::DeError::new("expected object for ScenarioSpec"));
        }
        fn field<T: serde::Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::DeError> {
            match v.get(name) {
                Some(fv) => T::from_value(fv)
                    .map_err(|e| serde::DeError::new(format!("ScenarioSpec.{name}: {e}"))),
                None => T::from_missing(name),
            }
        }
        fn field_or<T: serde::Deserialize>(
            v: &serde::Value,
            name: &str,
            default: T,
        ) -> Result<T, serde::DeError> {
            match v.get(name) {
                Some(serde::Value::Null) | None => Ok(default),
                Some(fv) => T::from_value(fv)
                    .map_err(|e| serde::DeError::new(format!("ScenarioSpec.{name}: {e}"))),
            }
        }
        let defaults = ScenarioSpec::new(TraceRef::Name(String::new()), PolicySpec::Fifo);
        Ok(ScenarioSpec {
            trace: field(v, "trace")?,
            policy: field(v, "policy")?,
            cluster: field_or(v, "cluster", defaults.cluster)?,
            seed: field_or(v, "seed", defaults.seed)?,
            deadline_factor: field(v, "deadline_factor")?,
            failures: field(v, "failures")?,
            failure_mtbf_s: field_or(v, "failure_mtbf_s", defaults.failure_mtbf_s)?,
            failure_recovery_s: field(v, "failure_recovery_s")?,
            speculation: field(v, "speculation")?,
            slowdown_sigma: field(v, "slowdown_sigma")?,
            slowstart: field(v, "slowstart")?,
            aggregate: field_or(v, "aggregate", false)?,
            timeline: field_or(v, "timeline", false)?,
            check_invariants: field_or(v, "check_invariants", false)?,
            fork_at: field(v, "fork_at")?,
            divergences: field_or(v, "divergences", Vec::new())?,
        })
    }
}

/// Why the facade rejected or failed a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum FacadeError {
    /// The spec itself is malformed or inconsistent.
    BadSpec(String),
    /// The trace reference could not be resolved or loaded.
    Trace(String),
}

impl FacadeError {
    /// The bare message, without the kind prefix [`fmt::Display`] adds —
    /// what the CLI surfaces, matching its pre-facade error strings.
    pub fn message(&self) -> &str {
        match self {
            FacadeError::BadSpec(msg) | FacadeError::Trace(msg) => msg,
        }
    }
}

impl fmt::Display for FacadeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FacadeError::BadSpec(msg) => write!(f, "bad scenario: {msg}"),
            FacadeError::Trace(msg) => write!(f, "trace: {msg}"),
        }
    }
}

impl std::error::Error for FacadeError {}

/// A scenario after trace resolution: normalized spec, the materialized
/// (and deadline-stamped, when asked) trace, its content digest and the
/// canonical cache key. Ready to run on any thread.
#[derive(Debug, Clone)]
pub struct ResolvedScenario {
    /// The normalized spec.
    pub spec: ScenarioSpec,
    /// The trace the engine will replay (deadlines already attached).
    pub trace: Arc<WorkloadTrace>,
    /// Content digest of the *stored* trace (pre-deadline-stamping, the
    /// same digest `trace list` prints).
    pub digest: TraceDigest,
    /// The scenario's canonical cache key.
    pub key: String,
}

impl ResolvedScenario {
    /// Runs the scenario. Deterministic: equal `key` ⇒ byte-identical
    /// report. Fork scenarios run their prefix from scratch here; pass a
    /// [`CkptCache`] to [`Self::run_warm`] to memoize the prefix instead.
    pub fn run(&self) -> FacadeRun {
        if self.spec.fork_at.is_some() {
            let report = SimulatorEngine::new(
                self.spec.engine_config(),
                &self.trace,
                self.spec.policy.build(),
            )
            .run_forked(self.spec.fork_spec())
            .expect("fork divergences are validated at resolve time");
            return self.wrap(report, None);
        }
        let report =
            SimulatorEngine::new(self.spec.engine_config(), &self.trace, self.spec.policy.build())
                .run();
        self.wrap(report, None)
    }

    /// Runs the scenario, warm-starting fork scenarios from the memoized
    /// prefix checkpoint in `ckpts` (computing and caching it on a miss).
    /// Byte-identical to [`Self::run`] — the warm path and the
    /// from-scratch path share the engine's fork application verbatim.
    pub fn run_warm(&self, ckpts: &CkptCache) -> FacadeRun {
        let Some(key) = self.ckpt_key() else { return self.run() };
        let (hit, ckpt) = match ckpts.get(&key) {
            Some(ckpt) => (true, ckpt),
            None => {
                let ckpt = Arc::new(self.prefix_checkpoint());
                ckpts.insert(key, Arc::clone(&ckpt));
                (false, ckpt)
            }
        };
        let mut engine = SimulatorEngine::resume_materialized(
            self.spec.engine_config(),
            &ckpt,
            self.spec.policy.build(),
        )
        .expect("checkpoint was captured under this exact prefix spec");
        engine
            .apply_fork(self.spec.fork_spec())
            .expect("fork divergences are validated at resolve time");
        let report = engine.try_run().expect("resolved traces hold only validated templates");
        self.wrap(report, Some(hit))
    }

    /// Runs the scenario's prefix (fork fields excluded) and captures the
    /// engine checkpoint at the last settled batch boundary ≤ `at`.
    pub fn checkpoint(&self, at: SimTime) -> EngineCheckpoint {
        SimulatorEngine::new(self.spec.engine_config(), &self.trace, self.spec.policy.build())
            .checkpoint_at(at)
            .expect("resolved traces hold only validated templates")
    }

    /// The memo key of the prefix checkpoint a fork scenario warm-starts
    /// from: the canonical key of the scenario *without* its fork fields,
    /// plus the fork instant. `None` for non-fork scenarios — note that
    /// fork scenarios differing only in divergences share this key, which
    /// is exactly what makes sweep fan-outs run the prefix once.
    pub fn ckpt_key(&self) -> Option<String> {
        let at = self.spec.fork_at?;
        let mut prefix = self.spec.clone();
        prefix.fork_at = None;
        prefix.divergences.clear();
        Some(format!("{}|ckpt@{at}", prefix.canonical_key(self.digest)))
    }

    /// Ensures the prefix checkpoint of a fork scenario is resident in
    /// `ckpts`, returning whether it already was. Non-fork scenarios are
    /// a no-op `true`.
    pub fn ensure_ckpt(&self, ckpts: &CkptCache) -> bool {
        let Some(key) = self.ckpt_key() else { return true };
        if ckpts.get(&key).is_some() {
            return true;
        }
        ckpts.insert(key, Arc::new(self.prefix_checkpoint()));
        false
    }

    /// The checkpoint a fork scenario warm-starts from: its prefix at
    /// `fork_at`.
    fn prefix_checkpoint(&self) -> EngineCheckpoint {
        self.checkpoint(SimTime::from_millis(self.spec.fork_at.expect("fork key implies fork_at")))
    }

    fn wrap(&self, report: SimulationReport, ckpt: Option<bool>) -> FacadeRun {
        FacadeRun {
            jobs: report.jobs.len(),
            report,
            digest: Some(self.digest),
            key: Some(self.key.clone()),
            streamed: false,
            ckpt,
        }
    }
}

/// The outcome of one facade run.
#[derive(Debug, Clone)]
pub struct FacadeRun {
    /// The engine's report.
    pub report: SimulationReport,
    /// Jobs replayed. For streamed runs this is the source's job count
    /// (the report's `jobs` vector may be empty under `aggregate`).
    pub jobs: usize,
    /// Content digest of the resolved trace; `None` for streamed binary
    /// files (digesting would defeat the O(active jobs) memory bound).
    pub digest: Option<TraceDigest>,
    /// Canonical cache key; `None` exactly when `digest` is.
    pub key: Option<String>,
    /// Whether the trace streamed through the engine unmaterialized.
    pub streamed: bool,
    /// For fork scenarios run via [`ResolvedScenario::run_warm`]:
    /// whether the prefix checkpoint came from the memo (`Some(true)`)
    /// or was computed (`Some(false)`). `None` otherwise.
    pub ckpt: Option<bool>,
}

/// Loads and validates a trace file, sniffing JSON vs SIMMRBIN by magic.
pub fn load_trace_file(path: &str) -> Result<WorkloadTrace, FacadeError> {
    decode_trace_file(path, &read_trace_file(path)?)
}

fn read_trace_file(path: &str) -> Result<Vec<u8>, FacadeError> {
    std::fs::read(path).map_err(|e| FacadeError::Trace(format!("cannot read `{path}`: {e}")))
}

/// Decodes and validates the bytes of the trace file at `path`.
fn decode_trace_file(path: &str, bytes: &[u8]) -> Result<WorkloadTrace, FacadeError> {
    let err = |msg: String| FacadeError::Trace(msg);
    let trace: WorkloadTrace = if simmr_trace::is_binary_trace(bytes) {
        simmr_trace::decode_trace(bytes)
            .map_err(|e| err(format!("`{path}` is not a valid binary trace: {e}")))?
    } else {
        let text =
            std::str::from_utf8(bytes).map_err(|_| err(format!("`{path}` is not a trace")))?;
        serde_json::from_str(text).map_err(|e| err(format!("`{path}` is not a trace: {e}")))?
    };
    trace.validate().map_err(|e| err(format!("`{path}` contains an invalid job: {e}")))?;
    Ok(trace)
}

/// Attaches §V-B-style deadlines to every job of a trace: each job's
/// relative deadline is uniform in `[T_j, max(1, factor) × T_j]`, where
/// `T_j` is its standalone FIFO duration on the given slot pools.
pub fn attach_deadlines(
    trace: &mut WorkloadTrace,
    factor: f64,
    map_slots: usize,
    reduce_slots: usize,
    seed: u64,
) {
    let durations = standalone_durations(trace, map_slots, reduce_slots);
    stamp_deadlines(trace, &durations, factor, seed);
}

/// Each job's standalone FIFO duration `T_j` on the given slot pools, in
/// trace order.
fn standalone_durations(trace: &WorkloadTrace, map_slots: usize, reduce_slots: usize) -> Vec<u64> {
    trace
        .jobs
        .iter()
        .map(|job| {
            let mut single = WorkloadTrace::new("standalone", "cli");
            single.push(JobSpec::new(job.template.clone(), SimTime::ZERO));
            let report = SimulatorEngine::new(
                EngineConfig::new(map_slots, reduce_slots),
                &single,
                PolicySpec::Fifo.build(),
            )
            .run();
            report.jobs[0].duration()
        })
        .collect()
}

/// The deadline draws of [`attach_deadlines`], given the jobs' `T_j`.
fn stamp_deadlines(trace: &mut WorkloadTrace, durations: &[u64], factor: f64, seed: u64) {
    let mut rng = SeededRng::new(seed);
    for (job, &t_j) in trace.jobs.iter_mut().zip(durations) {
        let t_j = t_j as f64;
        let rel = rng.uniform(t_j, factor.max(1.0) * t_j);
        job.deadline = Some(job.arrival + rel as u64);
    }
}

/// Shards and per-shard capacity of the facade's trace-load memo: at
/// most 8 traces stay resident.
const TRACE_MEMO: (usize, usize) = (4, 2);
/// Shards and per-shard capacity of the standalone-duration memo.
const DURATION_MEMO: (usize, usize) = (4, 16);

/// A memoized trace load.
struct LoadedTrace {
    /// The database entry the bytes were read from (digest refs re-read
    /// it to tell whether the entry still holds them).
    name: Option<String>,
    /// The stored format and bytes the trace was decoded from; `None` for
    /// inline traces.
    stored: Option<(TraceFormat, Vec<u8>)>,
    trace: Arc<WorkloadTrace>,
    digest: TraceDigest,
}

impl LoadedTrace {
    fn new(
        name: Option<&str>,
        stored: Option<(TraceFormat, Vec<u8>)>,
        trace: WorkloadTrace,
    ) -> Result<Self, FacadeError> {
        let digest = digest_trace(&trace).map_err(trace_error)?;
        Ok(LoadedTrace { name: name.map(str::to_owned), stored, trace: Arc::new(trace), digest })
    }
}

fn trace_error(e: impl fmt::Display) -> FacadeError {
    FacadeError::Trace(e.to_string())
}

/// The request-scoped engine facade: resolves [`ScenarioSpec`]s and runs
/// them. Its only mutable state is two memos behind sharded mutexes, so
/// one facade serves any number of threads:
///
/// * trace loads, keyed by trace ref. An entry read from the trace
///   database or a file is reused only while that file still holds the
///   exact bytes it was decoded from (stores replace files by rename, so
///   a read sees one whole version); an inline entry only for an equal
///   trace. A hit costs one file read and compare, not a parse, digest
///   and validation.
/// * each job's standalone FIFO duration `T_j`, keyed by `(digest, map
///   slots, reduce slots)`, so deadline stamping is a clone plus the
///   seeded draws.
pub struct SimFacade {
    db: Option<TraceDatabase>,
    traces: MemoCache<Arc<LoadedTrace>>,
    durations: MemoCache<Arc<[u64]>>,
}

impl SimFacade {
    /// A facade without a trace database: only `path` and `inline` trace
    /// refs resolve.
    pub fn new() -> Self {
        SimFacade::over(None)
    }

    /// A facade over the trace database at `dir` (created if absent).
    pub fn with_db(dir: impl AsRef<std::path::Path>) -> Result<Self, FacadeError> {
        let db = TraceDatabase::open(dir).map_err(trace_error)?;
        Ok(SimFacade::over(Some(db)))
    }

    fn over(db: Option<TraceDatabase>) -> Self {
        SimFacade {
            db,
            traces: MemoCache::new(TRACE_MEMO.0, TRACE_MEMO.1),
            durations: MemoCache::new(DURATION_MEMO.0, DURATION_MEMO.1),
        }
    }

    /// The underlying trace database, when configured.
    pub fn db(&self) -> Option<&TraceDatabase> {
        self.db.as_ref()
    }

    /// Counters of the trace-load memo. A lookup whose entry is stale
    /// (the stored bytes changed) counts as a miss.
    pub(crate) fn trace_stats(&self) -> CacheStats {
        self.traces.stats()
    }

    /// Resolves one scenario: normalizes and validates the spec,
    /// materializes the trace, stamps deadlines, computes digest and key.
    pub fn resolve(&self, spec: &ScenarioSpec) -> Result<ResolvedScenario, FacadeError> {
        self.resolve_many(std::slice::from_ref(spec)).pop().expect("one spec in, one result out")
    }

    /// Resolves a batch, deadline-stamping each distinct trace once per
    /// `(factor, slots, seed)` however many scenarios share it. Per-scenario
    /// results: one bad spec does not fail its neighbours.
    pub fn resolve_many(
        &self,
        specs: &[ScenarioSpec],
    ) -> Vec<Result<ResolvedScenario, FacadeError>> {
        // stamped variants by (base trace address, factor, slots, seed);
        // each value holds its base so the address stays unique all batch
        let mut stamped: HashMap<(usize, String), (Arc<WorkloadTrace>, Arc<WorkloadTrace>)> =
            HashMap::new();
        specs
            .iter()
            .map(|spec| {
                let mut spec = spec.clone();
                spec.normalize();
                spec.validate()?;
                let loaded = self.materialize(&spec.trace)?;
                let (base, digest) = (&loaded.trace, loaded.digest);
                let trace = match spec.deadline_factor {
                    None => Arc::clone(base),
                    Some(df) => {
                        let (m, r) = (spec.cluster.map_slots, spec.cluster.reduce_slots);
                        let stamp_key = format!("df={df}|m={m}|r={r}|s={}", spec.seed);
                        let (_, t) = stamped
                            .entry((Arc::as_ptr(base) as usize, stamp_key))
                            .or_insert_with(|| {
                                let durations = self.durations(base, digest, m, r);
                                let mut t = (**base).clone();
                                stamp_deadlines(&mut t, &durations, df, spec.seed);
                                (Arc::clone(base), Arc::new(t))
                            });
                        Arc::clone(t)
                    }
                };
                let key = spec.canonical_key(digest);
                Ok(ResolvedScenario { spec, trace, digest, key })
            })
            .collect()
    }

    /// Runs one scenario.
    ///
    /// Binary trace files referenced by `path` (without deadline
    /// stamping) keep the CLI's streaming path: the engine pulls jobs
    /// from the file one arrival at a time and the run yields no digest
    /// or cache key.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<FacadeRun, FacadeError> {
        if let TraceRef::Path(path) = &spec.trace {
            // forks memoize checkpoints by trace digest, deadline stamping
            // rewrites the trace — both resolve the trace in memory
            if spec.deadline_factor.is_none()
                && spec.fork_at.is_none()
                && spec.divergences.is_empty()
                && file_is_binary_trace(path)
            {
                let mut spec = spec.clone();
                spec.normalize();
                spec.validate()?;
                let source = BinTraceSource::open(path)
                    .map_err(|e| FacadeError::Trace(format!("`{path}`: {e}")))?;
                let jobs = source.job_count();
                let report = SimulatorEngine::from_source(
                    spec.engine_config(),
                    Box::new(source),
                    spec.policy.build(),
                )
                .try_run()
                .map_err(|e| FacadeError::Trace(e.to_string()))?;
                return Ok(FacadeRun {
                    report,
                    jobs,
                    digest: None,
                    key: None,
                    streamed: true,
                    ckpt: None,
                });
            }
        }
        Ok(self.resolve(spec)?.run())
    }

    /// Runs a batch of scenarios across all cores with one
    /// [`parallel_sweep`] after batched resolution. Results stay in
    /// request order; each scenario fails independently.
    pub fn run_batch(&self, specs: &[ScenarioSpec]) -> Vec<Result<FacadeRun, FacadeError>> {
        let resolved = self.resolve_many(specs);
        let runnable: Vec<&ResolvedScenario> =
            resolved.iter().filter_map(|r| r.as_ref().ok()).collect();
        let mut runs = parallel_sweep(runnable.len(), |i| runnable[i].run()).into_iter();
        resolved
            .iter()
            .map(|r| match r {
                Ok(_) => Ok(runs.next().expect("one run per resolved scenario")),
                Err(e) => Err(e.clone()),
            })
            .collect()
    }

    /// Each job's `T_j` on `(map_slots, reduce_slots)`, memoized by digest.
    fn durations(
        &self,
        trace: &WorkloadTrace,
        digest: TraceDigest,
        map_slots: usize,
        reduce_slots: usize,
    ) -> Arc<[u64]> {
        // The digest orders jobs by (arrival, position), so it pins the job
        // sequence, and with it each position's template, only for traces
        // whose arrivals are already sorted. Only those share durations.
        if !trace.jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival) {
            return standalone_durations(trace, map_slots, reduce_slots).into();
        }
        let key = format!("{digest}|m={map_slots}|r={reduce_slots}");
        if let Some(durations) = self.durations.get(&key) {
            return durations;
        }
        let durations: Arc<[u64]> = standalone_durations(trace, map_slots, reduce_slots).into();
        self.durations.insert(key, Arc::clone(&durations));
        durations
    }

    /// Materializes a trace reference into a validated trace + digest,
    /// from the memo when the source is unchanged.
    fn materialize(&self, r: &TraceRef) -> Result<Arc<LoadedTrace>, FacadeError> {
        match r {
            TraceRef::Name(name) => self.load_stored(name),
            TraceRef::Digest(digest) => {
                let db = self.require_db()?;
                let unchanged = |e: &LoadedTrace| {
                    e.name.as_deref().is_some_and(|n| db.read(n).ok() == e.stored)
                };
                self.memoized(format!("digest:{digest}"), unchanged, || {
                    let name = db.find_by_digest(*digest).map_err(trace_error)?;
                    let loaded = match name {
                        Some(name) => self.load_stored(&name)?,
                        None => return Err(no_such_digest(*digest)),
                    };
                    // the entry may have been overwritten since the scan
                    if loaded.digest != *digest {
                        return Err(no_such_digest(*digest));
                    }
                    Ok(loaded)
                })
            }
            TraceRef::Path(path) => {
                let bytes = read_trace_file(path)?;
                let format = if simmr_trace::is_binary_trace(&bytes) {
                    TraceFormat::Bin
                } else {
                    TraceFormat::Json
                };
                self.decoded(format!("path:{path}"), None, (format, bytes), |_, bytes| {
                    decode_trace_file(path, bytes)
                })
            }
            TraceRef::Inline(trace) => {
                let digest = digest_trace(trace).map_err(trace_error)?;
                self.memoized(
                    format!("inline:{digest}"),
                    |e| *e.trace == *trace,
                    || {
                        trace.validate().map_err(|e| {
                            FacadeError::Trace(format!("inline trace has an invalid job: {e}"))
                        })?;
                        Ok(Arc::new(LoadedTrace {
                            name: None,
                            stored: None,
                            trace: Arc::new(trace.clone()),
                            digest,
                        }))
                    },
                )
            }
        }
    }

    /// Loads the database entry `name`.
    fn load_stored(&self, name: &str) -> Result<Arc<LoadedTrace>, FacadeError> {
        let stored = self.require_db()?.read(name).map_err(trace_error)?;
        self.decoded(format!("name:{name}"), Some(name), stored, |format, bytes| {
            TraceDatabase::decode(format, bytes).map_err(trace_error)
        })
    }

    /// The trace in `stored` (read from database entry `name`, or from a
    /// file): the memo entry under `key` if it was decoded from exactly
    /// these bytes, else `decode`'s result, which then replaces it.
    fn decoded(
        &self,
        key: String,
        name: Option<&str>,
        stored: (TraceFormat, Vec<u8>),
        decode: impl FnOnce(TraceFormat, &[u8]) -> Result<WorkloadTrace, FacadeError>,
    ) -> Result<Arc<LoadedTrace>, FacadeError> {
        if let Some(hit) = self.traces.get_if(&key, |e| e.stored.as_ref() == Some(&stored)) {
            return Ok(hit);
        }
        let trace = decode(stored.0, &stored.1)?;
        let loaded = Arc::new(LoadedTrace::new(name, Some(stored), trace)?);
        self.traces.insert(key, Arc::clone(&loaded));
        Ok(loaded)
    }

    /// The memo entry under `key` if `fresh` accepts it, else `load()`'s
    /// result, which then replaces it.
    fn memoized(
        &self,
        key: String,
        fresh: impl FnOnce(&LoadedTrace) -> bool,
        load: impl FnOnce() -> Result<Arc<LoadedTrace>, FacadeError>,
    ) -> Result<Arc<LoadedTrace>, FacadeError> {
        if let Some(hit) = self.traces.get_if(&key, |e| fresh(e)) {
            return Ok(hit);
        }
        let loaded = load()?;
        self.traces.insert(key, Arc::clone(&loaded));
        Ok(loaded)
    }

    fn require_db(&self) -> Result<&TraceDatabase, FacadeError> {
        self.db.as_ref().ok_or_else(|| {
            FacadeError::Trace("named trace refs need a trace database (serve --db DIR)".into())
        })
    }
}

fn no_such_digest(digest: TraceDigest) -> FacadeError {
    FacadeError::Trace(format!("no stored trace has digest {digest}"))
}

impl Default for SimFacade {
    fn default() -> Self {
        SimFacade::new()
    }
}

/// Sniffs whether the file at `path` starts with the SIMMRBIN magic.
fn file_is_binary_trace(path: &str) -> bool {
    use std::io::Read;
    let Ok(mut file) = std::fs::File::open(path) else { return false };
    let mut magic = [0u8; 8];
    let mut filled = 0;
    while filled < magic.len() {
        match file.read(&mut magic[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(_) => return false,
        }
    }
    simmr_trace::is_binary_trace(&magic[..filled])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_types::JobTemplate;

    fn tiny_trace() -> WorkloadTrace {
        let mut t = WorkloadTrace::new("facade test", "unit");
        for (name, arrival) in [("prod-a", 0u64), ("adhoc-b", 1_000)] {
            t.push(JobSpec::new(
                JobTemplate::new(name, vec![500, 700], vec![300], vec![250], vec![200]).unwrap(),
                SimTime::from_millis(arrival),
            ));
        }
        t
    }

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(TraceRef::Inline(tiny_trace()), PolicySpec::Fifo)
    }

    #[test]
    fn spec_serde_round_trip_with_defaults() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // minimal request: only trace and policy
        let minimal: ScenarioSpec =
            serde_json::from_str(r#"{"trace": "nightly", "policy": "maxedf"}"#).unwrap();
        assert_eq!(minimal.trace, TraceRef::Name("nightly".into()));
        assert_eq!(minimal.policy.to_string(), "maxedf");
        assert_eq!(minimal.cluster, ClusterSpec::new(64, 64));
        assert_eq!(minimal.seed, 1);
        assert!(!minimal.aggregate);
    }

    #[test]
    fn canonical_key_unifies_equivalent_specs() {
        let digest = digest_trace(&tiny_trace()).unwrap();
        let mut a = spec();
        a.policy = "capacity:prod=3,adhoc=1".parse().unwrap();
        let mut b = spec();
        b.policy = "capacity:adhoc=1,prod=3".parse().unwrap();
        // knob clamping also normalizes into the key
        a.speculation = Some(0.5);
        b.speculation = Some(1.0);
        assert_eq!(a.canonical_key(digest), b.canonical_key(digest));
        // ...but a real difference separates keys
        b.seed = 2;
        assert_ne!(a.canonical_key(digest), b.canonical_key(digest));
    }

    #[test]
    fn key_is_trace_ref_spelling_independent() {
        let digest = digest_trace(&tiny_trace()).unwrap();
        let inline = spec();
        let named = ScenarioSpec::new(TraceRef::Name("whatever".into()), PolicySpec::Fifo);
        assert_eq!(inline.canonical_key(digest), named.canonical_key(digest));
    }

    #[test]
    fn validation_mirrors_the_cli() {
        let mut s = spec();
        s.failures = Some(1);
        assert!(matches!(s.validate(), Err(FacadeError::BadSpec(_))));
        s.cluster = s.cluster.with_hosts(4);
        assert!(s.validate().is_ok());
        s.failure_recovery_s = Some(-1.0);
        assert!(s.validate().is_err());
        let mut s = spec();
        s.failure_recovery_s = Some(30.0);
        assert!(s.validate().is_err(), "recovery without failures");
    }

    #[test]
    fn run_and_batch_agree() {
        let facade = SimFacade::new();
        let one = facade.run(&spec()).unwrap();
        assert!(!one.streamed);
        assert_eq!(one.report.jobs.len(), 2);
        let batch = facade.run_batch(&[spec(), spec()]);
        let reports: Vec<_> = batch.into_iter().map(|r| r.unwrap().report).collect();
        assert_eq!(reports[0], one.report);
        assert_eq!(reports[1], one.report);
    }

    #[test]
    fn batch_failures_are_per_scenario() {
        let facade = SimFacade::new();
        let bad = ScenarioSpec::new(TraceRef::Name("nope".into()), PolicySpec::Fifo);
        let out = facade.run_batch(&[spec(), bad]);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(FacadeError::Trace(_))));
    }

    #[test]
    fn deadline_stamping_matches_manual_attachment() {
        // distinct job sizes, so a misaligned T_j would show; the reversed
        // copy has the same digest but another job order
        let mut sized = WorkloadTrace::new("stamping", "unit");
        for (i, arrival) in [0u64, 400, 700, 1_000].into_iter().enumerate() {
            let maps = vec![300 + 200 * i as u64; 1 + i];
            sized.push(JobSpec::new(
                JobTemplate::new(
                    format!("job-{i}"),
                    maps,
                    vec![150],
                    vec![100],
                    vec![80 * i as u64],
                )
                .unwrap(),
                SimTime::from_millis(arrival),
            ));
        }
        let mut reversed = sized.clone();
        reversed.jobs.reverse();
        assert_eq!(digest_trace(&reversed).unwrap(), digest_trace(&sized).unwrap());

        let facade = SimFacade::new();
        for trace in [&sized, &reversed, &sized] {
            for (factor, seed, map_slots, reduce_slots) in [
                (2.0, 7, 64, 64),
                (1.5, 7, 64, 64),
                (3.0, 11, 2, 1),
                (0.5, 3, 1, 1),
                (2.0, 7, 2, 1),
            ] {
                let mut manual = trace.clone();
                attach_deadlines(&mut manual, factor, map_slots, reduce_slots, seed);
                let mut s = ScenarioSpec::new(TraceRef::Inline(trace.clone()), PolicySpec::Fifo);
                s.cluster = ClusterSpec::new(map_slots, reduce_slots);
                s.deadline_factor = Some(factor);
                s.seed = seed;
                let resolved = facade.resolve(&s).unwrap();
                for (got, want) in resolved.trace.jobs.iter().zip(&manual.jobs) {
                    assert_eq!(
                        got, want,
                        "factor {factor} seed {seed} slots {map_slots}/{reduce_slots}"
                    );
                }
                assert_eq!(resolved.trace.jobs.len(), manual.jobs.len());
                // the digest is of the stored trace, not the stamped one
                assert_eq!(resolved.digest, digest_trace(trace).unwrap());
            }
        }
        // T_j was computed once per slot pair of the sorted trace; the
        // reversed copy, whose order the digest does not pin, bypassed it
        let stats = facade.durations.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (3, 7, 3));
    }

    fn forked_spec(at: u64, divergences: Vec<DivergenceSpec>) -> ScenarioSpec {
        let mut s = spec();
        s.cluster = ClusterSpec::new(4, 4).with_hosts(4);
        s.fork_at = Some(at);
        s.divergences = divergences;
        s
    }

    #[test]
    fn fork_fields_serde_round_trip_and_minimal_json() {
        let s = forked_spec(
            700,
            vec![
                DivergenceSpec::Policy("fair".parse().unwrap()),
                DivergenceSpec::AddSlots { map_slots: 2, reduce_slots: 0 },
                DivergenceSpec::Fault { host: 2, at_ms: 900 },
                DivergenceSpec::Surge(tiny_trace().jobs),
            ],
        );
        let json = serde_json::to_string(&s).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // minimal spellings: absent sub-fields default to 0
        let minimal: ScenarioSpec = serde_json::from_str(
            r#"{"trace": "t", "policy": "fifo", "fork_at": 700, "divergences":
                [{"add_slots": {"maps": 3}}, {"fault": {"host": 1}}, {"policy": "maxedf"}]}"#,
        )
        .unwrap();
        assert_eq!(minimal.fork_at, Some(700));
        assert_eq!(
            minimal.divergences,
            vec![
                DivergenceSpec::AddSlots { map_slots: 3, reduce_slots: 0 },
                DivergenceSpec::Fault { host: 1, at_ms: 0 },
                DivergenceSpec::Policy("maxedf".parse().unwrap()),
            ]
        );
        // malformed divergences are rejected, not ignored
        for bad in [
            r#"{"trace": "t", "policy": "fifo", "divergences": [{"warp": 9}]}"#,
            r#"{"trace": "t", "policy": "fifo", "divergences": [{"policy": "fifo", "fault": {"host": 1}}]}"#,
        ] {
            assert!(serde_json::from_str::<ScenarioSpec>(bad).is_err());
        }
    }

    #[test]
    fn fork_validation_rejections() {
        let mut s = spec();
        s.divergences.push(DivergenceSpec::Policy(PolicySpec::Fifo));
        assert!(matches!(s.validate(), Err(FacadeError::BadSpec(_))), "divergences need fork_at");
        for host in [0u32, 9] {
            let s = forked_spec(700, vec![DivergenceSpec::Fault { host, at_ms: 0 }]);
            assert!(s.validate().is_err(), "host {host} is not a failable host of 4");
        }
        let mut s = forked_spec(700, vec![DivergenceSpec::Fault { host: 2, at_ms: 0 }]);
        assert!(s.validate().is_ok());
        s.cluster = ClusterSpec::new(4, 4);
        assert!(s.validate().is_err(), "a single-host cluster has no failable host");
        let s = forked_spec(700, vec![DivergenceSpec::Surge(Vec::new())]);
        assert!(s.validate().is_err(), "an empty surge is a spec mistake");
    }

    #[test]
    fn normalize_drops_fork_without_divergences() {
        let mut s = spec();
        s.fork_at = Some(500);
        s.normalize();
        assert_eq!(s.fork_at, None, "a fork with no divergences is the base scenario");
        // ...so it shares the base scenario's cache identity
        let digest = digest_trace(&tiny_trace()).unwrap();
        let mut forked = spec();
        forked.fork_at = Some(500);
        assert_eq!(forked.canonical_key(digest), spec().canonical_key(digest));
    }

    #[test]
    fn warm_fork_matches_cold_and_shares_checkpoints() {
        let facade = SimFacade::new();
        let ckpts = CkptCache::new(4, 64);
        let a = forked_spec(700, vec![DivergenceSpec::Policy("fair".parse().unwrap())]);
        let b = forked_spec(700, vec![DivergenceSpec::AddSlots { map_slots: 2, reduce_slots: 2 }]);
        let ra = facade.resolve(&a).unwrap();
        let rb = facade.resolve(&b).unwrap();
        assert_eq!(ra.ckpt_key(), rb.ckpt_key(), "divergences don't change the prefix identity");
        assert!(ra.ckpt_key().is_some());
        let cold = ra.run();
        assert_eq!(cold.ckpt, None);
        let warm = ra.run_warm(&ckpts);
        assert_eq!(warm.ckpt, Some(false), "first warm run computes the checkpoint");
        assert_eq!(warm.report, cold.report, "warm-start is byte-identical to the cold fork");
        let sibling = rb.run_warm(&ckpts);
        assert_eq!(sibling.ckpt, Some(true), "sibling scenario reuses the cached prefix");
        assert_eq!(sibling.report, rb.run().report);
        assert_eq!(ckpts.len(), 1, "one shared prefix checkpoint");
    }
}
