//! Test-only reference policies for the differential oracles.
//!
//! The shipped EDF and hier policies schedule from incrementally
//! maintained state: the deadline index, and the per-pool share counters
//! with their leaf FIFO cursors. The policies here recompute every
//! decision from a full scan of the live queue, and the proptests below
//! hold the shipped policies to byte-identical reports against them, with
//! the engine's invariant checker armed on both sides. CI runs them as
//! the "EDF deadline-index differential oracle" and "Hier share-view
//! differential oracle" steps.

use crate::hier::{ki, schedulable, Routing, Tree};
use crate::{parse_policy, HierPolicy, MinEdfPolicy, PolicySpec};
use proptest::prelude::*;
use simmr_core::{EngineConfig, FaultSpec, JobEntry, JobQueue, SchedulerPolicy, SimulatorEngine};
use simmr_trace::MultiTenantWorkload;
use simmr_types::{
    ClusterSpec, DurationMs, JobId, JobSpec, JobTemplate, SimTime, TaskKind, WorkloadTrace,
};
use std::collections::HashMap;

/// EDF from a full queue scan on every pick and preemption check:
/// MaxEDF without `min`, MinEDF with the caps of the inner policy's
/// `wanted()` allocations.
struct FullScanEdf {
    min: Option<MinEdfPolicy>,
    preemptive: bool,
}

impl FullScanEdf {
    /// The most urgent job that may launch a task of `kind`.
    fn pick<'q>(&self, jobq: &'q JobQueue, kind: TaskKind) -> Option<&'q JobEntry> {
        let under_cap = |e: &JobEntry| {
            let wanted = self.min.as_ref().and_then(|m| m.wanted(e.id));
            wanted.is_none_or(|w| match kind {
                TaskKind::Map => e.running_maps < w.maps,
                TaskKind::Reduce => e.running_reduces < w.reduces,
            })
        };
        jobq.entries()
            .iter()
            .filter(|e| schedulable(e, kind) && under_cap(e))
            .min_by_key(|e| e.edf_key())
    }
}

impl SchedulerPolicy for FullScanEdf {
    fn name(&self) -> &str {
        if self.min.is_some() {
            "minedf"
        } else {
            "maxedf"
        }
    }

    fn on_job_arrival(
        &mut self,
        id: JobId,
        template: &JobTemplate,
        relative_deadline: Option<DurationMs>,
        cluster: ClusterSpec,
    ) {
        if let Some(min) = &mut self.min {
            min.on_job_arrival(id, template, relative_deadline, cluster);
        }
    }

    fn on_job_departure(&mut self, id: JobId) {
        if let Some(min) = &mut self.min {
            min.on_job_departure(id);
        }
    }

    fn choose_next_map_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        self.pick(jobq, TaskKind::Map).map(|e| e.id)
    }

    fn choose_next_reduce_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        self.pick(jobq, TaskKind::Reduce).map(|e| e.id)
    }

    /// Kill one map of the latest-deadline running job that sorts
    /// strictly after the job the freed slot would go to.
    fn map_preemptions(&mut self, jobq: &JobQueue, victims: &mut Vec<JobId>) {
        if !self.preemptive {
            return;
        }
        let Some(urgent) = self.pick(jobq, TaskKind::Map).map(|e| e.edf_key()) else { return };
        let victim = jobq
            .entries()
            .iter()
            .filter(|e| e.running_maps > 0 && e.edf_key() > urgent)
            .max_by_key(|e| e.edf_key());
        victims.extend(victim.map(|e| e.id));
    }
}

/// The hier walk over per-pool counts re-aggregated from the whole queue
/// on every call, with its own routing, a queue scan for the leaf pick
/// and a queue scan for the victim job.
struct ReaggregatingHier {
    routing: Routing,
    tree: Tree,
    assignment: HashMap<JobId, usize>,
    starved_since: Vec<Option<SimTime>>,
    run: Vec<usize>,
    pend: Vec<usize>,
    eligible: Vec<bool>,
}

impl ReaggregatingHier {
    fn new(spec: &PolicySpec) -> Self {
        let (policy, routing) = match spec {
            PolicySpec::Capacity { queues } => {
                (crate::capacity::policy(queues), Routing::LongestPrefix)
            }
            PolicySpec::Hier { pools } => (HierPolicy::new(pools.clone()), Routing::FirstMatch),
            other => panic!("{other} is not a pool-tree policy"),
        };
        let tree = policy.tree;
        let starved_since = vec![None; tree.nodes.len()];
        ReaggregatingHier {
            routing,
            tree,
            assignment: HashMap::new(),
            starved_since,
            run: Vec::new(),
            pend: Vec::new(),
            eligible: Vec::new(),
        }
    }

    /// Routing straight from the leaf prefixes, independent of the
    /// shipped policy's precomputed routing order.
    fn route(&self, job_name: &str) -> usize {
        let (leaves, nodes) = (&self.tree.leaves, &self.tree.nodes);
        let mut matching = leaves
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, l)| job_name.starts_with(&nodes[l].prefix));
        let hit = match self.routing {
            Routing::FirstMatch => matching.next(),
            Routing::LongestPrefix => {
                matching.max_by_key(|&(i, l)| (nodes[l].prefix.len(), std::cmp::Reverse(i)))
            }
        };
        hit.map_or(leaves[leaves.len() - 1], |(_, l)| l)
    }

    fn aggregate(&mut self, jobq: &JobQueue, kind: TaskKind) {
        self.tree.aggregate_into(&self.assignment, jobq, kind, &mut self.run, &mut self.pend);
    }

    /// The active jobs routed to `leaf`, scanned from the whole queue.
    fn in_leaf<'a>(
        &'a self,
        jobq: &'a JobQueue,
        leaf: usize,
    ) -> impl Iterator<Item = &'a JobEntry> + 'a {
        jobq.entries().iter().filter(move |e| self.assignment.get(&e.id) == Some(&leaf))
    }

    fn choose(&mut self, jobq: &JobQueue, kind: TaskKind) -> Option<JobId> {
        self.aggregate(jobq, kind);
        let leaf = self.tree.pick_leaf(ki(kind), &self.run, &self.pend, &mut self.eligible)?;
        self.in_leaf(jobq, leaf)
            .filter(|e| schedulable(e, kind))
            .min_by_key(|e| (e.arrival, e.id))
            .map(|e| e.id)
    }
}

impl SchedulerPolicy for ReaggregatingHier {
    fn name(&self) -> &str {
        self.routing.name()
    }

    fn on_job_arrival(
        &mut self,
        id: JobId,
        template: &JobTemplate,
        _relative_deadline: Option<DurationMs>,
        _cluster: ClusterSpec,
    ) {
        let leaf = self.route(&template.name);
        self.assignment.insert(id, leaf);
    }

    fn on_job_departure(&mut self, id: JobId) {
        self.assignment.remove(&id);
    }

    fn choose_next_map_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        self.choose(jobq, TaskKind::Map)
    }

    fn choose_next_reduce_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        self.choose(jobq, TaskKind::Reduce)
    }

    /// The youngest job of the victim leaf with a running map loses one.
    fn map_preemptions(&mut self, jobq: &JobQueue, victims: &mut Vec<JobId>) {
        self.aggregate(jobq, TaskKind::Map);
        let Some(leaf) =
            self.tree.preemption_leaf(&mut self.starved_since, jobq.now, &self.run, &self.pend)
        else {
            return;
        };
        let victim = self
            .in_leaf(jobq, leaf)
            .filter(|e| e.running_maps > 0)
            .max_by_key(|e| (e.arrival, e.id));
        victims.extend(victim.map(|e| e.id));
    }

    fn next_wakeup(&mut self, jobq: &JobQueue) -> Option<SimTime> {
        self.aggregate(jobq, TaskKind::Map);
        self.tree.next_wakeup(&mut self.starved_since, jobq.now, &self.run, &self.pend)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Differential oracle for the incremental share view: the same
    /// random pool tree or `capacity:` queue list replays the same random
    /// multi-tenant workload (failures and speculation included) under
    /// the shipped policy and under the re-aggregating reference. Reports
    /// — event timelines included — must match byte for byte, and the
    /// armed invariant checker cross-checks the maintained per-pool share
    /// counters against a re-aggregation after every settled batch.
    #[test]
    fn hier_incremental_matches_full_reaggregation_reference(
        shape in 0usize..7,
        w0 in 1u32..6,
        w1 in 1u32..6,
        min0 in 0usize..5,
        max0 in 2usize..7,
        timeout_ds in 0u64..12, // deciseconds; 0 = same-pass preemption
        with_timeout in proptest::bool::ANY,
        jobs in 8usize..48,
        interarrival in 200u64..4_000,
        seed in 0u64..1_000,
        map_slots in 2usize..10,
        reduce_slots in 1usize..6,
        fault_count in 0u32..3,
        speculation_on in proptest::bool::ANY,
    ) {
        let t = if with_timeout {
            format!(",timeout={}", timeout_ds as f64 / 10.0)
        } else {
            String::new()
        };
        // pool-tree shapes over the three_tenant routing prefixes, from
        // flat weighted splits to nested min/max/timeout combinations,
        // then capacity queue lists with nested names and a catch-all
        let spec = match shape {
            0 => format!("hier:prod[w={w0},min={min0}{t}]{{etl,serving}},adhoc[w={w1}]"),
            1 => format!(
                "hier:prod[w={w0}]{{etl[min={min0}{t}],serving[max={max0}]}},adhoc[w={w1}]"
            ),
            2 => format!(
                "hier:prod-etl[w={w0},min={min0}{t}],prod-serving[w={w1}],adhoc[max={max0}]"
            ),
            3 => format!("hier:prod[w={w0}]{{etl[min={min0}{t}],serving{{a,b}}}},adhoc[w={w1}]"),
            4 => format!("capacity:prod={w0},prod-etl={w1},adhoc=1"),
            5 => format!("capacity:={w0},prod-serving={w1},prod=2"),
            _ => format!("capacity:prod-etl={w0},prod={w1}"),
        };
        let spec: PolicySpec = spec.parse().expect("generated policy spec parses");
        let trace = MultiTenantWorkload::three_tenant(interarrival as f64)
            .generate(jobs, seed);
        let mut config = EngineConfig::new(map_slots, reduce_slots)
            .with_hosts(2)
            .with_faults(FaultSpec { seed, count: fault_count, mean_interval_ms: 5_000 })
            .with_timeline()
            .with_invariants();
        if speculation_on {
            config = config.with_speculation(1.5);
        }
        let incremental = SimulatorEngine::new(config, &trace, spec.build()).run();
        let reference =
            SimulatorEngine::new(config, &trace, Box::new(ReaggregatingHier::new(&spec))).run();
        prop_assert_eq!(incremental, reference, "incremental {} diverged", spec);
    }

    /// Differential oracle for the incremental deadline index: random
    /// deadline-heavy traces (a mix of tight, relaxed and absent
    /// deadlines) replay under every EDF variant — plain and preemptive,
    /// MaxEDF and MinEDF — once scheduling from the lazy-deletion
    /// deadline index and once under the full-scan reference, with host
    /// failures and speculation in play. Reports (event timelines
    /// included) must match byte for byte, and the armed invariant
    /// checker cross-checks index membership against the live queue
    /// after every settled batch.
    #[test]
    fn edf_incremental_matches_full_scan_reference(
        jobs in proptest::collection::vec(
            // (maps, reduces, map_ms, sh_ms, red_ms, arrival, deadline_rel, has_deadline)
            (1usize..7, 0usize..4, 50u64..600, 1u64..60, 1u64..80,
             0u64..1_200, 50u64..3_000, proptest::bool::ANY),
            2..16,
        ),
        map_slots in 1usize..6,
        reduce_slots in 1usize..4,
        hosts in 2usize..4,
        fault_count in 0u32..3,
        seed in 0u64..1_000,
        speculation_on in proptest::bool::ANY,
    ) {
        let mut trace = WorkloadTrace::new("edf-diff", "invariant-harness");
        for &(maps, reduces, map_ms, sh_ms, red_ms, arrival, deadline_rel, has_deadline) in &jobs {
            let template = JobTemplate::new(
                "j",
                vec![map_ms; maps],
                vec![sh_ms; reduces.min(1)],
                vec![sh_ms; reduces],
                vec![red_ms; reduces],
            )
            .expect("generated template is valid");
            let mut spec = JobSpec::new(template, SimTime::from_millis(arrival));
            if has_deadline {
                spec = spec.with_deadline(SimTime::from_millis(arrival + deadline_rel));
            }
            trace.push(spec);
        }
        let mut config = EngineConfig::new(map_slots, reduce_slots)
            .with_hosts(hosts)
            .with_faults(FaultSpec { seed, count: fault_count, mean_interval_ms: 900 })
            .with_timeline()
            .with_invariants();
        if speculation_on {
            config = config.with_speculation(1.5);
        }
        for (variant, min, preemptive) in [
            ("maxedf", false, false),
            ("maxedf-p", false, true),
            ("minedf", true, false),
            ("minedf-p", true, true),
        ] {
            let reference = FullScanEdf { min: min.then(MinEdfPolicy::new), preemptive };
            let incremental =
                SimulatorEngine::new(config, &trace, parse_policy(variant).unwrap()).run();
            let reference = SimulatorEngine::new(config, &trace, Box::new(reference)).run();
            prop_assert_eq!(incremental, reference, "incremental {} diverged", variant);
        }
    }
}
