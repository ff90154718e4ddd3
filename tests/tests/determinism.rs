//! Reproducibility: every layer of the stack must be bit-for-bit
//! deterministic given a seed — the property the whole experiment harness
//! stands on.
//!
//! The engine-path differential (`trace_order_only_relabels_job_ids`)
//! pins the job-identity contract: a job's id is its trace position, and
//! reordering a trace (without reordering same-instant arrivals) changes
//! nothing but those labels.

use proptest::prelude::*;
use simmr_bench::pipeline::{replay_in_simmr, run_testbed};
use simmr_cluster::{ClusterConfig, ClusterPolicy};
use simmr_core::{EngineCheckpoint, EngineConfig, FaultSpec, RecoverySpec, SimulatorEngine};
use simmr_integration::small_job;
use simmr_sched::parse_policy;
use simmr_stats::{Dist, SeededRng};
use simmr_trace::FacebookWorkload;
use simmr_types::{JobId, JobSpec, JobTemplate, SimTime, SimulationReport, WorkloadTrace};

const POLICIES: [&str; 8] = [
    "fifo",
    "maxedf",
    "minedf",
    "fair",
    "maxedf-p",
    "minedf-p",
    "capacity",
    "hier:j[w=2,min=1,timeout=0.5],spare[w=1]",
];

#[test]
fn testbed_runs_identical_per_seed() {
    let go = |seed| {
        run_testbed(
            vec![(small_job(simmr_apps::AppKind::TfIdf, 20, 6), SimTime::ZERO, None)],
            ClusterPolicy::Fifo,
            ClusterConfig::tiny(6),
            seed,
        )
    };
    let a = go(9);
    let b = go(9);
    assert_eq!(a.history, b.history);
    assert_eq!(a.events, b.events);
    assert_eq!(a.makespan, b.makespan);
    let c = go(10);
    assert_ne!(a.history, c.history, "different seeds must differ");
}

#[test]
fn full_pipeline_identical_per_seed() {
    let go = || {
        let run = run_testbed(
            vec![
                (small_job(simmr_apps::AppKind::WordCount, 16, 4), SimTime::ZERO, None),
                (small_job(simmr_apps::AppKind::Sort, 12, 4), SimTime::from_secs(3), None),
            ],
            ClusterPolicy::Fifo,
            ClusterConfig::tiny(6),
            77,
        );
        replay_in_simmr(&run.history, "fifo", 6, 6, &[None, None])
    };
    assert_eq!(go(), go());
}

#[test]
fn engine_identical_across_all_policies() {
    let trace = FacebookWorkload { mean_interarrival_ms: 20_000.0 }.generate(40, 5);
    for name in ["fifo", "maxedf", "minedf", "fair"] {
        let run = |_: u32| {
            SimulatorEngine::new(EngineConfig::new(16, 16), &trace, parse_policy(name).unwrap())
                .run()
        };
        assert_eq!(run(0), run(1), "policy {name} not deterministic");
    }
}

#[test]
fn resume_from_checkpoint_is_deterministic() {
    // Interrupting a seeded run at a checkpoint and resuming — even through
    // the serialized byte form — must land on the exact report of the
    // uninterrupted run, for every policy, with the full perturbation stack
    // (faults, recovery, speculation, slowdowns) armed.
    let trace = FacebookWorkload { mean_interarrival_ms: 15_000.0 }.generate(30, 7);
    let config = EngineConfig::new(8, 8)
        .with_hosts(4)
        .with_timeline()
        .with_invariants()
        .with_faults(FaultSpec { seed: 21, count: 2, mean_interval_ms: 60_000 })
        .with_recovery(RecoverySpec { seed: 22, mean_ms: 30_000 })
        .with_speculation(1.5)
        .with_slowdown(Dist::Exponential { mean: 1.1 }, 23);
    for name in ["fifo", "maxedf", "minedf-p", "fair", "capacity", "hier"] {
        let uninterrupted =
            SimulatorEngine::new(config, &trace, parse_policy(name).unwrap()).try_run().unwrap();
        let at = SimTime::from_millis(uninterrupted.makespan.as_millis() / 2);
        let resume = |_: u32| {
            let ckpt = SimulatorEngine::new(config, &trace, parse_policy(name).unwrap())
                .checkpoint_at(at)
                .unwrap();
            let wire = EngineCheckpoint::decode(&ckpt.encode()).unwrap();
            SimulatorEngine::resume_materialized(config, &wire, parse_policy(name).unwrap())
                .unwrap()
                .try_run()
                .unwrap()
        };
        let a = resume(0);
        assert_eq!(a, uninterrupted, "policy {name}: resumed run diverged");
        assert_eq!(a, resume(1), "policy {name}: resume not deterministic");
    }
}

#[test]
fn facebook_generator_stable_across_calls() {
    let w = FacebookWorkload { mean_interarrival_ms: 1_000.0 };
    let a = w.generate(200, 123);
    let b = w.generate(200, 123);
    assert_eq!(a, b);
    // and the serialized form round-trips exactly
    let json = serde_json::to_string(&a).unwrap();
    let back: simmr_types::WorkloadTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(a, back);
}

#[test]
fn conservation_every_job_completes_exactly_once() {
    let trace = FacebookWorkload { mean_interarrival_ms: 5_000.0 }.generate(60, 11);
    for name in ["fifo", "maxedf", "minedf", "fair"] {
        let report =
            SimulatorEngine::new(EngineConfig::new(8, 8), &trace, parse_policy(name).unwrap())
                .run();
        assert_eq!(report.jobs.len(), trace.len(), "{name}");
        for (i, job) in report.jobs.iter().enumerate() {
            assert_eq!(job.job.index(), i);
            assert!(job.completion >= job.arrival, "{name}: job finished before arriving");
            assert_eq!(job.num_maps, trace.jobs[i].template.num_maps);
            assert_eq!(job.num_reduces, trace.jobs[i].template.num_reduces);
        }
        let max_completion = report.jobs.iter().map(|j| j.completion).max().unwrap();
        assert_eq!(report.makespan, max_completion, "{name}");
    }
}

/// A random permutation of `0..arrivals.len()` (`order[p]` = the original
/// position now at `p`) that keeps same-instant arrivals in their original
/// relative order — the one ordering fact job ids are allowed to encode.
fn tie_preserving_shuffle(arrivals: &[u64], seed: u64) -> Vec<usize> {
    let mut rng = SeededRng::new(seed);
    let mut order: Vec<usize> = (0..arrivals.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.index(i + 1));
    }
    let mut by_arrival: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for (i, &a) in arrivals.iter().enumerate() {
        by_arrival.entry(a).or_default().push(i);
    }
    for group in by_arrival.values() {
        let slots: Vec<usize> = (0..order.len()).filter(|&p| group.contains(&order[p])).collect();
        for (&p, &i) in slots.iter().zip(group) {
            order[p] = i;
        }
    }
    order
}

/// `report` with every job id mapped through `relabel`, its per-job rows
/// back in id order and its timeline sorted (bars of one instant are
/// recorded in job-id order, which a relabeling may permute).
fn relabeled(report: &SimulationReport, relabel: &[usize]) -> SimulationReport {
    let mut out = report.clone();
    for row in &mut out.jobs {
        row.job = JobId(relabel[row.job.index()] as u32);
    }
    out.jobs.sort_by_key(|r| r.job);
    for bar in &mut out.timeline {
        bar.job = JobId(relabel[bar.job.index()] as u32);
    }
    out.timeline.sort_by_key(|b| (b.start, b.end, b.slot, b.phase as u8, b.job));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine-path differential: a job's id is its trace position, so
    /// replaying a permutation of the trace (same-instant arrivals kept
    /// in order) must give the same report up to that relabeling — per-job
    /// rows, timeline, makespan and event count — for every policy, under
    /// the full perturbation stack. Durations and arrivals sit on a
    /// 100 ms grid so arrivals tie with departures, faults and timers.
    #[test]
    fn trace_order_only_relabels_job_ids(
        jobs in proptest::collection::vec(
            // (maps, reduces, map_units, sh_units, red_units, arrival_units,
            //  deadline_units, has_deadline)
            (1usize..6, 0usize..4, 1u64..6, 0u64..3, 1u64..4, 0u64..12, 2u64..40,
             proptest::bool::ANY),
            2..12,
        ),
        map_slots in 2usize..6,
        reduce_slots in 1usize..4,
        hosts in 2usize..5,
        fault_count in 0u32..3,
        seed in 0u64..1_000,
        speculation_on in proptest::bool::ANY,
        slowdown_on in proptest::bool::ANY,
    ) {
        const GRID: u64 = 100;
        let specs: Vec<JobSpec> = jobs
            .iter()
            .map(|&(maps, reduces, map_u, sh_u, red_u, arrival_u, deadline_u, has_deadline)| {
                let template = JobTemplate::new(
                    "j",
                    vec![map_u * GRID; maps],
                    if reduces > 0 { vec![sh_u * GRID] } else { vec![] },
                    vec![sh_u * GRID; reduces],
                    vec![red_u * GRID; reduces],
                )
                .expect("generated template is valid");
                let arrival = SimTime::from_millis(arrival_u * GRID);
                let spec = JobSpec::new(template, arrival);
                if has_deadline {
                    spec.with_deadline(arrival + deadline_u * GRID)
                } else {
                    spec
                }
            })
            .collect();
        let arrivals: Vec<u64> = specs.iter().map(|s| s.arrival.as_millis()).collect();
        let order = tie_preserving_shuffle(&arrivals, seed);
        let mut trace = WorkloadTrace::new("path-diff", "determinism");
        let mut permuted = WorkloadTrace::new("path-diff", "determinism");
        for spec in &specs {
            trace.push(spec.clone());
        }
        for &i in &order {
            permuted.push(specs[i].clone());
        }
        let mut config = EngineConfig::new(map_slots, reduce_slots)
            .with_hosts(hosts)
            .with_faults(FaultSpec { seed, count: fault_count, mean_interval_ms: 700 })
            .with_recovery(RecoverySpec { seed: seed ^ 0xeca, mean_ms: 500 })
            .with_timeline()
            .with_invariants();
        if speculation_on {
            config = config.with_speculation(1.5);
        }
        if slowdown_on {
            config = config
                .with_slowdown(Dist::LogNormal { mu: -0.125, sigma: 0.5 }, seed ^ 0x5eed);
        }
        let identity: Vec<usize> = (0..specs.len()).collect();
        for policy in POLICIES {
            let run = |t: &WorkloadTrace| {
                SimulatorEngine::new(config, t, parse_policy(policy).unwrap()).run()
            };
            let base = relabeled(&run(&trace), &identity);
            let moved = relabeled(&run(&permuted), &order);
            prop_assert_eq!(moved, base, "policy {}: trace order leaked into the report", policy);
        }
    }
}
