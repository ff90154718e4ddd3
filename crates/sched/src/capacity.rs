//! The `capacity` policy: Capacity-Scheduler-style weighted queues
//! (extension beyond the paper, after its ref. 2).
//!
//! Jobs are routed to named queues; each queue carries a weight (its
//! capacity share); the next free slot goes to the most under-served
//! queue (lowest running-tasks/weight ratio, ties to the earlier queue)
//! and, inside a queue, to the earliest-arrived job. That is a one-level
//! [`HierPolicy`] tree with no min/max shares or timeouts, so `capacity`
//! runs on hier's incremental share view: one leaf per queue, in listed
//! order.
//!
//! Only the routing rule differs from `hier`: a job goes to the queue
//! with the **longest** name that is a prefix of the job name (queue
//! `prod` captures `prod-wordcount`; with both `prod` and `prod-etl`
//! configured, `prod-etl-daily` lands in `prod-etl`), falling back to the
//! last queue when no name matches. An empty-named queue is a prefix of
//! everything and therefore a catch-all. Longest-prefix routing makes the
//! listed queue *order* carry no routing semantics, which is what lets
//! `capacity:` spec strings normalize their parameter order into a
//! canonical cache-key form (see [`crate::PolicySpec`]).

use crate::hier::{HierPolicy, Routing};
use crate::pool::PoolSpec;

/// Builds the `capacity` policy from `(name, weight)` queues in listed
/// order; no queues means the two-tier default, `prod` (weight 2) and a
/// catch-all (weight 1).
///
/// # Panics
///
/// Panics if a weight is not finite and positive.
pub(crate) fn policy(queues: &[(String, f64)]) -> HierPolicy {
    let pools = if queues.is_empty() {
        vec![PoolSpec::leaf("prod").weight(2.0), PoolSpec::leaf("").weight(1.0)]
    } else {
        queues.iter().map(|(name, weight)| PoolSpec::leaf(name).weight(*weight)).collect()
    };
    HierPolicy::with_routing(pools, Routing::LongestPrefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_policy;
    use simmr_core::{EngineConfig, SimulatorEngine};
    use simmr_types::{JobSpec, JobTemplate, SimTime, WorkloadTrace};

    fn named_job(name: &str, maps: usize, map_ms: u64, arrival_ms: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new(name, vec![map_ms; maps], vec![], vec![], vec![]).unwrap(),
            SimTime::from_millis(arrival_ms),
        )
    }

    #[test]
    fn routing_by_prefix() {
        let p = policy(&[]);
        let (tree, leaves) = (&p.tree, &p.tree.leaves);
        assert_eq!(tree.route("prod-wordcount"), leaves[0]);
        assert_eq!(tree.route("adhoc-sort"), leaves[1]);
        // nested names: the longest matching queue wins; no match falls
        // back to the last queue
        let queues = [("batch", 1.0), ("prod", 1.0), ("prod-etl", 1.0)];
        let p = policy(&queues.map(|(n, w)| (n.to_string(), w)));
        let (tree, leaves) = (&p.tree, &p.tree.leaves);
        assert_eq!(tree.route("prod-etl-daily"), leaves[2]);
        assert_eq!(tree.route("prod-wordcount"), leaves[1]);
        assert_eq!(tree.route("adhoc-sort"), leaves[2]);
    }

    #[test]
    #[should_panic(expected = "no pools")]
    fn rejects_empty_queues() {
        HierPolicy::with_routing(vec![], Routing::LongestPrefix);
    }

    #[test]
    #[should_panic(expected = "finite and > 0")]
    fn rejects_zero_weight() {
        policy(&[("q".into(), 0.0)]);
    }

    #[test]
    fn weighted_split_between_queues() {
        // prod (weight 2) and adhoc (weight 1) each submit one long job on
        // 6 slots: prod should hold ~4 slots, adhoc ~2, so prod finishes
        // its 12 tasks around when adhoc finishes its 6.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("prod-big", 12, 1000, 0));
        trace.push(named_job("adhoc-big", 6, 1000, 0));
        let report = SimulatorEngine::new(
            EngineConfig::new(6, 6),
            &trace,
            parse_policy("capacity").unwrap(),
        )
        .run();
        // prod: 12 tasks / 4 slots = 3s; adhoc: 6 / 2 = 3s
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(3000));
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(3000));
    }

    #[test]
    fn idle_capacity_flows_to_busy_queue() {
        // only adhoc has work: it should get ALL slots despite weight 1.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("adhoc-only", 4, 1000, 0));
        let report = SimulatorEngine::new(
            EngineConfig::new(4, 4),
            &trace,
            parse_policy("capacity").unwrap(),
        )
        .run();
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(1000));
    }

    #[test]
    fn fifo_within_queue() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("adhoc-late", 1, 1000, 10));
        trace.push(named_job("adhoc-early", 1, 1000, 0));
        let report = SimulatorEngine::new(
            EngineConfig::new(1, 1),
            &trace,
            parse_policy("capacity").unwrap(),
        )
        .run();
        assert!(report.jobs[1].completion < report.jobs[0].completion);
    }
}
