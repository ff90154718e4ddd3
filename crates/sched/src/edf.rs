//! The deadline-driven schedulers: MaxEDF and MinEDF (§V-A).
//!
//! Both order jobs by Earliest Deadline First. They differ in *how many*
//! slots they hand a job:
//!
//! * **MaxEDF** allocates the maximum available slots (FIFO-style greed,
//!   EDF order). Jobs often finish well before their deadline, but an
//!   urgent later arrival may find all slots taken — and tasks are never
//!   preempted.
//! * **MinEDF** computes, at arrival, the **minimal** `(S_M, S_R)` that the
//!   ARIA bounds model predicts will meet the job's deadline, and caps the
//!   job's concurrently running tasks at that amount, leaving spare slots
//!   for later arrivals.
//!
//! # Incremental deadline index
//!
//! Both policies schedule from a [`DeadlineIndex`]: keyed lazy-deletion
//! heaps (see [`crate::edf_index`]) maintained O(log n) per queue
//! mutation from the `on_job_queued` / `on_entry_mutated` /
//! `on_job_dequeued` hooks, instead of scanning the whole queue with
//! `min_by_key(edf_key)` on every pick and preemption check. MinEDF
//! layers its under-`wanted`-cap filter into the predicates it indexes
//! and validates with, so its views hold exactly the jobs it may launch.
//! `verify_invariants` cross-checks the index against the live queue,
//! and the crate's test-only full-scan reference policies pin both
//! policies to byte-identical schedules under faults, speculation and
//! preemption.

use crate::edf_index::DeadlineIndex;
use simmr_core::{JobEntry, JobQueue, SchedulerPolicy};
use simmr_model::{min_slots_for_deadline, JobProfileSummary, SlotAllocation};
use simmr_types::{DurationMs, JobId, JobTemplate};
use std::collections::HashMap;

/// EDF ordering with maximum resource allocation.
#[derive(Debug, Default, Clone)]
pub struct MaxEdfPolicy {
    preemptive: bool,
    index: DeadlineIndex,
}

impl MaxEdfPolicy {
    /// Creates the (non-preemptive) policy, as evaluated in the paper.
    pub fn new() -> Self {
        MaxEdfPolicy::default()
    }

    /// Creates a **preemptive** variant: when a job with an earlier
    /// deadline has pending maps and no slot is free, the running job with
    /// the latest deadline loses its most recent map task (killed and
    /// requeued). The paper attributes the "bump" near 100 s inter-arrival
    /// in Figure 7(a) to the lack of exactly this; the
    /// `ablation_preemption` binary quantifies it.
    pub fn preemptive() -> Self {
        MaxEdfPolicy { preemptive: true, ..MaxEdfPolicy::default() }
    }
}

impl SchedulerPolicy for MaxEdfPolicy {
    fn name(&self) -> &str {
        "maxedf"
    }

    fn on_job_queued(&mut self, entry: &JobEntry) {
        self.index.apply(
            entry.edf_key(),
            (false, entry.has_schedulable_map()),
            (false, entry.has_schedulable_reduce()),
            (false, entry.running_maps > 0),
        );
    }

    fn on_entry_mutated(&mut self, before: &JobEntry, after: &JobEntry) {
        self.index.apply(
            after.edf_key(),
            (before.has_schedulable_map(), after.has_schedulable_map()),
            (before.has_schedulable_reduce(), after.has_schedulable_reduce()),
            (before.running_maps > 0, after.running_maps > 0),
        );
    }

    fn choose_next_map_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        self.index
            .maps
            .peek_valid(|id| jobq.get(id).is_some_and(|e| e.has_schedulable_map()))
            .map(|key| key.2)
    }

    fn choose_next_reduce_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        self.index
            .reduces
            .peek_valid(|id| jobq.get(id).is_some_and(|e| e.has_schedulable_reduce()))
            .map(|key| key.2)
    }

    fn map_preemptions(&mut self, jobq: &JobQueue, victims: &mut Vec<JobId>) {
        if !self.preemptive {
            return;
        }
        // the urgent job is exactly the one choose_next_map_task would
        // launch once the kill frees a slot
        let Some(urgent) = self
            .choose_next_map_task(jobq)
            .map(|id| jobq.get(id).expect("urgent job is in the queue").edf_key())
        else {
            return;
        };
        victims.extend(
            self.index
                .preemption_victim(urgent, |id| jobq.get(id).is_some_and(|e| e.running_maps > 0)),
        );
    }

    fn verify_invariants(&self, jobq: &JobQueue) {
        self.index.verify_against(
            jobq.entries().iter().map(|e| (e, e.has_schedulable_map(), e.has_schedulable_reduce())),
            "maxedf",
        );
    }

    /// The deadline index is rebuilt by the hook replay (a rebuilt index
    /// has no lazy-deletion debt, which is behaviorally invisible), so
    /// only the preemptive flag needs cross-checking.
    fn snapshot(&self) -> Vec<u8> {
        vec![self.preemptive as u8]
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), String> {
        let mut r = crate::snap::Reader::new(blob);
        let preemptive = r.u8()? != 0;
        r.done()?;
        if preemptive != self.preemptive {
            return Err(format!(
                "maxedf variant mismatch: checkpoint taken with preemptive={preemptive}, \
                 resuming policy has preemptive={}",
                self.preemptive
            ));
        }
        Ok(())
    }
}

/// EDF ordering with model-derived minimal resource allocation.
#[derive(Debug, Default)]
pub struct MinEdfPolicy {
    /// Per-job wanted slot counts, computed on arrival. Dense, indexed
    /// by job id — the hot paths (per-pick cap filters, per-mutation
    /// index edges) do O(1) slot reads instead of hashing.
    wanted: Vec<Option<SlotAllocation>>,
    /// Allocations supplied up front (e.g. from a shared ARIA profile
    /// database) that take precedence over the model computation.
    /// Consulted once per arrival, so a map is fine here.
    presets: HashMap<JobId, SlotAllocation>,
    preemptive: bool,
    /// Deadline views over the *under-cap* schedulable predicates.
    index: DeadlineIndex,
}

impl MinEdfPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        MinEdfPolicy::default()
    }

    /// Creates the policy with preset per-job allocations. In the paper
    /// both the real cluster's MinEDF and the simulated one consult the
    /// same profile database; presets let a harness reproduce that setup
    /// (any job without a preset falls back to the bounds model).
    pub fn with_presets(presets: HashMap<JobId, SlotAllocation>) -> Self {
        MinEdfPolicy { presets, ..MinEdfPolicy::default() }
    }

    /// Creates a preemptive variant (see [`MaxEdfPolicy::preemptive`]).
    pub fn preemptive() -> Self {
        MinEdfPolicy { preemptive: true, ..MinEdfPolicy::default() }
    }

    /// The wanted allocation for a job (visible for tests/diagnostics).
    pub fn wanted(&self, id: JobId) -> Option<SlotAllocation> {
        self.wanted.get(id.index()).copied().flatten()
    }

    /// A map launch for this job stays within its wanted cap (jobs
    /// without a computed allocation are uncapped, like MaxEDF).
    fn under_map_cap(&self, e: &JobEntry) -> bool {
        e.has_schedulable_map() && self.wanted(e.id).is_none_or(|w| e.running_maps < w.maps)
    }

    /// A reduce launch for this job stays within its wanted cap.
    fn under_reduce_cap(&self, e: &JobEntry) -> bool {
        e.has_schedulable_reduce()
            && self.wanted(e.id).is_none_or(|w| e.running_reduces < w.reduces)
    }
}

impl SchedulerPolicy for MinEdfPolicy {
    fn name(&self) -> &str {
        "minedf"
    }

    fn on_job_arrival(
        &mut self,
        id: JobId,
        template: &JobTemplate,
        relative_deadline: Option<DurationMs>,
        cluster: simmr_types::ClusterSpec,
    ) {
        let (max_maps, max_reduces) = (cluster.map_slots, cluster.reduce_slots);
        let alloc = if let Some(&preset) = self.presets.get(&id) {
            preset
        } else {
            match relative_deadline {
                Some(deadline) => {
                    let profile = JobProfileSummary::from_template(template);
                    min_slots_for_deadline(&profile, deadline, max_maps, max_reduces)
                }
                // no deadline: behave like MaxEDF for this job
                None => SlotAllocation {
                    maps: max_maps.min(template.num_maps),
                    reduces: max_reduces.min(template.num_reduces),
                },
            }
        };
        if id.index() >= self.wanted.len() {
            self.wanted.resize(id.index() + 1, None);
        }
        self.wanted[id.index()] = Some(alloc);
    }

    fn on_job_departure(&mut self, id: JobId) {
        if let Some(slot) = self.wanted.get_mut(id.index()) {
            *slot = None;
        }
    }

    fn on_job_queued(&mut self, entry: &JobEntry) {
        // on_job_arrival has already run: the cap exists before the
        // entry's first predicate edge is recorded
        self.index.apply(
            entry.edf_key(),
            (false, self.under_map_cap(entry)),
            (false, self.under_reduce_cap(entry)),
            (false, entry.running_maps > 0),
        );
    }

    fn on_entry_mutated(&mut self, before: &JobEntry, after: &JobEntry) {
        self.index.apply(
            after.edf_key(),
            (self.under_map_cap(before), self.under_map_cap(after)),
            (self.under_reduce_cap(before), self.under_reduce_cap(after)),
            (before.running_maps > 0, after.running_maps > 0),
        );
    }

    fn choose_next_map_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        // the closure re-checks the cap against the live entry, so a job
        // that filled its cap since being offered is evicted, not picked
        let wanted = &self.wanted;
        self.index
            .maps
            .peek_valid(|id| {
                jobq.get(id).is_some_and(|e| {
                    e.has_schedulable_map()
                        && wanted
                            .get(id.index())
                            .copied()
                            .flatten()
                            .is_none_or(|w| e.running_maps < w.maps)
                })
            })
            .map(|key| key.2)
    }

    fn choose_next_reduce_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        let wanted = &self.wanted;
        self.index
            .reduces
            .peek_valid(|id| {
                jobq.get(id).is_some_and(|e| {
                    e.has_schedulable_reduce()
                        && wanted
                            .get(id.index())
                            .copied()
                            .flatten()
                            .is_none_or(|w| e.running_reduces < w.reduces)
                })
            })
            .map(|key| key.2)
    }

    fn map_preemptions(&mut self, jobq: &JobQueue, victims: &mut Vec<JobId>) {
        if !self.preemptive {
            return;
        }
        // The urgent job is the one choose_next_map_task would launch
        // once the kill frees a slot — the under-cap EDF minimum. Using
        // the *global* EDF minimum here (as an earlier version did)
        // could name an at-cap job as urgent and kill a victim with an
        // earlier deadline than the job the slot actually goes to; see
        // `minedf_preemption_gate_respects_wanted_caps`.
        let Some(urgent) = self
            .choose_next_map_task(jobq)
            .map(|id| jobq.get(id).expect("urgent job is in the queue").edf_key())
        else {
            return;
        };
        victims.extend(
            self.index
                .preemption_victim(urgent, |id| jobq.get(id).is_some_and(|e| e.running_maps > 0)),
        );
    }

    fn verify_invariants(&self, jobq: &JobQueue) {
        for e in jobq.entries() {
            if self.wanted(e.id).is_none() {
                panic!(
                    "engine invariant violated [minedf-wanted]: active job {} has no wanted \
                     allocation",
                    e.id
                );
            }
        }
        self.index.verify_against(
            jobq.entries().iter().map(|e| (e, self.under_map_cap(e), self.under_reduce_cap(e))),
            "minedf",
        );
    }

    /// The preemptive flag plus the live wanted allocations, sorted by
    /// job id.
    /// The allocations are derivable (the arrival replay recomputes them
    /// from the bounds model), so the blob is a cross-check: a resume
    /// with different presets routes every job through the same replay
    /// but lands on different caps, and this is what catches it.
    fn snapshot(&self) -> Vec<u8> {
        let mut out = vec![self.preemptive as u8];
        let live: Vec<(u32, SlotAllocation)> =
            self.wanted.iter().enumerate().filter_map(|(i, w)| w.map(|w| (i as u32, w))).collect();
        crate::snap::put_u32(&mut out, live.len() as u32);
        for (job, w) in live {
            crate::snap::put_u32(&mut out, job);
            crate::snap::put_u32(&mut out, w.maps as u32);
            crate::snap::put_u32(&mut out, w.reduces as u32);
        }
        out
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), String> {
        let mut r = crate::snap::Reader::new(blob);
        let preemptive = r.u8()? != 0;
        if preemptive != self.preemptive {
            return Err(format!(
                "minedf variant mismatch: checkpoint taken with preemptive={preemptive}, \
                 resuming policy has preemptive={}",
                self.preemptive
            ));
        }
        let n = r.u32()? as usize;
        let mut captured = Vec::with_capacity(n);
        for _ in 0..n {
            let job = r.u32()?;
            let maps = r.u32()? as usize;
            let reduces = r.u32()? as usize;
            captured.push((job, SlotAllocation { maps, reduces }));
        }
        r.done()?;
        let rebuilt: Vec<(u32, SlotAllocation)> =
            self.wanted.iter().enumerate().filter_map(|(i, w)| w.map(|w| (i as u32, w))).collect();
        if rebuilt != captured {
            return Err(format!(
                "minedf wanted allocations diverged from the checkpoint (rebuilt {}, captured \
                 {n}) — was the policy built with the same presets?",
                rebuilt.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_core::{EngineConfig, SimulatorEngine};
    use simmr_types::{JobSpec, JobTemplate, SimTime, WorkloadTrace};

    fn map_job(maps: usize, map_ms: u64, arrival_ms: u64, deadline_ms: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new("j", vec![map_ms; maps], vec![], vec![], vec![]).unwrap(),
            SimTime::from_millis(arrival_ms),
        )
        .with_deadline(SimTime::from_millis(deadline_ms))
    }

    #[test]
    fn maxedf_prefers_urgent_job() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(2, 100, 0, 10_000)); // relaxed deadline
        trace.push(map_job(2, 100, 0, 500)); // urgent
        let report =
            SimulatorEngine::new(EngineConfig::new(2, 2), &trace, Box::new(MaxEdfPolicy::new()))
                .run();
        // urgent job 1 grabs both slots first
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(100));
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(200));
    }

    #[test]
    fn maxedf_no_deadline_sorts_last() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(JobSpec::new(
            JobTemplate::new("nodl", vec![100; 2], vec![], vec![], vec![]).unwrap(),
            SimTime::ZERO,
        ));
        trace.push(map_job(2, 100, 0, 50_000));
        let report =
            SimulatorEngine::new(EngineConfig::new(2, 2), &trace, Box::new(MaxEdfPolicy::new()))
                .run();
        assert!(report.jobs[1].completion < report.jobs[0].completion);
    }

    #[test]
    fn minedf_computes_wanted_on_arrival() {
        let mut p = MinEdfPolicy::new();
        let t = JobTemplate::new("j", vec![1000; 16], vec![10], vec![10; 8], vec![10; 8]).unwrap();
        // very relaxed deadline: minimal slots
        p.on_job_arrival(JobId(0), &t, Some(1_000_000), simmr_types::ClusterSpec::new(64, 64));
        let w = p.wanted(JobId(0)).unwrap();
        assert!(w.maps <= 2, "{w:?}");
        // tight deadline: lots of slots
        p.on_job_arrival(JobId(1), &t, Some(2_000), simmr_types::ClusterSpec::new(64, 64));
        let w_tight = p.wanted(JobId(1)).unwrap();
        assert!(w_tight.maps > w.maps);
        // no deadline: max
        p.on_job_arrival(JobId(2), &t, None, simmr_types::ClusterSpec::new(64, 64));
        assert_eq!(p.wanted(JobId(2)).unwrap().maps, 16);
        p.on_job_departure(JobId(0));
        assert!(p.wanted(JobId(0)).is_none());
    }

    #[test]
    fn minedf_leaves_spare_slots_for_late_urgent_job() {
        // Job 0: 8 maps x 1s, relaxed deadline (8s for 1 slot's worth of
        // work on an 8-slot cluster => MinEDF gives it ~2 slots).
        // Job 1 arrives at t=100ms: 2 maps x 1s, tight deadline.
        // Under MinEDF job 1 finds free slots instantly; under MaxEDF it
        // waits for job 0's first wave to drain (non-preemption).
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(8, 1000, 0, 9_000));
        trace.push(map_job(2, 1000, 100, 1_200));

        let min_report =
            SimulatorEngine::new(EngineConfig::new(8, 8), &trace, Box::new(MinEdfPolicy::new()))
                .run();
        let max_report =
            SimulatorEngine::new(EngineConfig::new(8, 8), &trace, Box::new(MaxEdfPolicy::new()))
                .run();

        // MaxEDF: job 1 waits until t=1000, finishes 2000 (missed).
        assert_eq!(max_report.jobs[1].completion, SimTime::from_millis(2000));
        // MinEDF: job 1 starts at arrival, finishes 1100 (met).
        assert_eq!(min_report.jobs[1].completion, SimTime::from_millis(1100));
        assert!(min_report.jobs[1].met_deadline());
        assert!(!max_report.jobs[1].met_deadline());
        // and job 0 still meets its own deadline under MinEDF
        assert!(min_report.jobs[0].met_deadline());
        assert!(
            min_report.total_relative_deadline_exceeded()
                < max_report.total_relative_deadline_exceeded()
        );
    }

    #[test]
    fn minedf_caps_running_tasks() {
        // one job, wanted == 2 map slots on an 8-slot cluster: completion
        // should reflect 2-at-a-time waves, not 8.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(8, 1000, 0, 9_000)); // deadline allows ~1 slot
        let report =
            SimulatorEngine::new(EngineConfig::new(8, 8), &trace, Box::new(MinEdfPolicy::new()))
                .run();
        // with k slots the job takes ceil(8/k) seconds; wanted k is small,
        // so completion must be well beyond the 1s that MaxEDF would give
        assert!(
            report.jobs[0].completion >= SimTime::from_millis(4000),
            "completion {} suggests the cap was ignored",
            report.jobs[0].completion
        );
        assert!(report.jobs[0].met_deadline());
    }

    #[test]
    fn preemptive_maxedf_kills_for_urgent_arrival() {
        // Job 0 (relaxed deadline) occupies both slots with long maps; job 1
        // (urgent) arrives mid-flight. Non-preemptive MaxEDF makes it wait a
        // full map duration; the preemptive variant kills one of job 0's
        // maps immediately.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(4, 10_000, 0, 60_000));
        trace.push(map_job(1, 1_000, 2_000, 4_000));

        let plain =
            SimulatorEngine::new(EngineConfig::new(2, 2), &trace, Box::new(MaxEdfPolicy::new()))
                .run();
        let preempt = SimulatorEngine::new(
            EngineConfig::new(2, 2),
            &trace,
            Box::new(MaxEdfPolicy::preemptive()),
        )
        .run();
        // plain: job 1 waits until t=10s, done 11s (missed)
        assert_eq!(plain.jobs[1].completion, SimTime::from_millis(11_000));
        // preemptive: job 1 starts at arrival, done 3s (met)
        assert_eq!(preempt.jobs[1].completion, SimTime::from_millis(3_000));
        assert!(preempt.jobs[1].met_deadline());
        // the preempted map restarts from scratch, so job 0 finishes later
        assert!(preempt.jobs[0].completion > plain.jobs[0].completion);
        // ...but every task still completes exactly once
        assert_eq!(preempt.jobs[0].num_maps, 4);
    }

    #[test]
    fn preemption_is_deterministic_and_conserves_tasks() {
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..12u64 {
            trace.push(map_job(
                3 + (i % 4) as usize,
                500 + i * 97,
                i * 800,
                i * 800 + 4_000 + i * 321,
            ));
        }
        let run = |_: u32| {
            SimulatorEngine::new(
                EngineConfig::new(3, 3),
                &trace,
                Box::new(MaxEdfPolicy::preemptive()),
            )
            .run()
        };
        let a = run(0);
        assert_eq!(a, run(1));
        for (result, spec) in a.jobs.iter().zip(&trace.jobs) {
            assert_eq!(result.num_maps, spec.template.num_maps);
            assert!(result.completion >= result.arrival);
        }
    }

    #[test]
    fn equal_deadline_factor_one_degenerates_to_maxedf() {
        // df=1 deadlines equal the all-slots runtime: MinEDF's model must
        // request (nearly) everything, so both policies coincide (§V-B).
        let mut trace = WorkloadTrace::new("t", "test");
        // 8 maps of 1s on 4 slots => 2 waves => 2s standalone
        trace.push(map_job(8, 1000, 0, 2_000));
        let min_r =
            SimulatorEngine::new(EngineConfig::new(4, 4), &trace, Box::new(MinEdfPolicy::new()))
                .run();
        let max_r =
            SimulatorEngine::new(EngineConfig::new(4, 4), &trace, Box::new(MaxEdfPolicy::new()))
                .run();
        assert_eq!(min_r.jobs[0].completion, max_r.jobs[0].completion);
    }

    /// Regression test for the preemption gate mismatch: the earliest-
    /// deadline job is *at its wanted cap*, a mid-deadline job is running
    /// with nothing pending, and a late-deadline under-cap job is
    /// waiting. The old gate named the capped job as urgent and killed
    /// the mid-deadline job's map — freeing a slot the capped job could
    /// not use, which then went to the *later*-deadline waiter: a
    /// deadline inversion. The fixed gate takes the under-cap EDF
    /// minimum as urgent, finds no running job with a strictly later
    /// deadline, and kills nothing.
    #[test]
    fn minedf_preemption_gate_respects_wanted_caps() {
        let mut presets = HashMap::new();
        presets.insert(JobId(0), SlotAllocation { maps: 1, reduces: 1 });
        let mut trace = WorkloadTrace::new("t", "test");
        // job 0: earliest deadline, 2 maps, capped at 1 running => at cap
        // with one pending map from t=0
        trace.push(map_job(2, 10_000, 0, 20_000));
        // job 1: mid deadline, occupies the second slot, nothing pending
        trace.push(map_job(1, 10_000, 0, 30_000));
        // job 2: latest deadline, arrives once all slots are busy
        trace.push(map_job(1, 1_000, 500, 60_000));
        let run = |policy: Box<dyn SchedulerPolicy>| {
            SimulatorEngine::new(EngineConfig::new(2, 2).with_timeline(), &trace, policy).run()
        };
        let preemptive = run(Box::new(MinEdfPolicy {
            preemptive: true,
            ..MinEdfPolicy::with_presets(presets.clone())
        }));
        let plain = run(Box::new(MinEdfPolicy::with_presets(presets)));
        // no kill on behalf of a job that cannot use the slot: the
        // preemptive run matches the non-preemptive one task for task
        assert_eq!(preemptive, plain);
        // and job 1's map ran exactly once, uninterrupted
        assert_eq!(preemptive.jobs[1].completion, SimTime::from_millis(10_000));
    }

    /// The fixed gate still preempts when the under-cap urgent job has
    /// the earlier deadline: the latest-deadline running job loses a map.
    #[test]
    fn minedf_preemption_still_fires_for_under_cap_urgent() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(4, 10_000, 0, 60_000));
        trace.push(map_job(1, 1_000, 2_000, 4_000)); // urgent, under cap
        let report = SimulatorEngine::new(
            EngineConfig::new(2, 2),
            &trace,
            Box::new(MinEdfPolicy::preemptive()),
        )
        .run();
        // job 1 preempts at arrival and meets its deadline
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(3_000));
        assert!(report.jobs[1].met_deadline());
    }
}
