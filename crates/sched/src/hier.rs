//! Hierarchical pool-tree scheduling (extension beyond the paper).
//!
//! SimMR's §V case study replays a multi-user Facebook workload; Hadoop's
//! Fair/Capacity schedulers (the paper's refs. 2–3) share a cluster among
//! such tenants through *nested* pools with weights, min/max shares and
//! min-share preemption. [`HierPolicy`] implements that model on top of
//! the declarative [`PoolSpec`] tree from [`pool`](crate::pool). The
//! `capacity` policy is the same scheduler on a one-level tree with no
//! min/max shares, differing only in its routing rule.
//!
//! * **Routing** — a job lands in the first leaf, in the policy's routing
//!   order, whose routing prefix is a prefix of the job name, falling
//!   back to the last leaf. `hier` tries leaves depth-first, so the first
//!   match wins; `capacity` tries longer prefixes first, so the longest
//!   match wins (ties to the earlier queue). With leaves `prod,prod-etl`,
//!   hier sends `prod-etl-x` to `prod`, capacity to `prod-etl`.
//! * **Slot assignment** — each free slot walks the tree from the root,
//!   picking at every level the most under-served *eligible* child:
//!   children below their min share come first (smallest `running/min`
//!   ratio), then smallest `running/weight`; ties break on listed order.
//!   A child is eligible when its subtree has schedulable work and every
//!   node on the path respects its max share. At the leaf, the
//!   earliest-arrived schedulable job wins.
//! * **Min-share preemption** — a pool sitting below its map min share
//!   with pending work for longer than its `preemption_timeout` triggers
//!   the engine's `map_preemptions` path: one task of the most over-share
//!   pool (largest `running − min` surplus) is killed per round — the
//!   youngest running task of that pool's youngest job, Hadoop kill
//!   semantics — until the deficit clears. Timeout 0 preempts in the same
//!   scheduling pass the pool starves in; the starvation clocks advance
//!   on simulated time via [`SchedulerPolicy::next_wakeup`], so a timeout
//!   expiring between queue events still fires on time. A kill is only
//!   taken when the simulated relaunch of the freed slot lands inside
//!   the starved subtree — a kill whose slot would bounce to a third
//!   pool would repeat at every pass forever without ever clearing the
//!   deficit.
//!
//! # Incremental share view
//!
//! Per-pool running/pending counts are *maintained*, not recomputed: the
//! engine reports every entry mutation through the
//! [`SchedulerPolicy::on_job_queued`] / [`on_entry_mutated`] /
//! [`on_job_dequeued`] hooks, and each delta walks the leaf's ancestor
//! chain in O(depth), keeping subtree sums exact between any two
//! `choose` calls. The final-leaf pick reads a per-leaf FIFO index —
//! job ids in `(arrival, id)` order with an amortized-O(1) per-kind
//! cursor, mirroring the [`JobQueue`] hint design (the cursor rewinds
//! whenever a job's schedulable-pending count goes 0 → >0). The tree
//! walk takes the share view as arguments, so the crate's test-only
//! re-aggregating reference policy runs the same walk over counts rebuilt
//! from the whole queue; `verify_invariants` cross-checks the maintained
//! counters against that re-aggregation.
//!
//! [`on_entry_mutated`]: SchedulerPolicy::on_entry_mutated
//! [`on_job_dequeued`]: SchedulerPolicy::on_job_dequeued
//!
//! Determinism: choices are a pure function of queue contents plus the
//! assignment map; starvation clocks only read [`JobQueue::now`] inside
//! the sanctioned `map_preemptions` / `next_wakeup` hooks.

use crate::pool::{join_prefix, validate_pools, PoolSpec};
use simmr_core::{JobEntry, JobQueue, SchedulerPolicy};
use simmr_types::{DurationMs, JobId, JobTemplate, SimTime, TaskKind};
use std::collections::HashMap;

/// Map/reduce index into per-kind share arrays.
pub(crate) fn ki(kind: TaskKind) -> usize {
    match kind {
        TaskKind::Map => 0,
        TaskKind::Reduce => 1,
    }
}

/// True if the policy may launch a task of `kind` for this job.
pub(crate) fn schedulable(e: &JobEntry, kind: TaskKind) -> bool {
    match kind {
        TaskKind::Map => e.has_schedulable_map(),
        TaskKind::Reduce => e.has_schedulable_reduce(),
    }
}

/// One arena node of the instantiated pool tree.
#[derive(Debug)]
pub(crate) struct Node {
    /// Full routing prefix (leaves) / subtree prefix (internal nodes).
    pub(crate) prefix: String,
    weight: f64,
    /// Min share per slot kind; 0 means none.
    min: [usize; 2],
    /// Max share per slot kind.
    max: [Option<usize>; 2],
    /// Min-share preemption timeout; `None` never preempts for this pool.
    timeout: Option<DurationMs>,
    parent: usize,
    children: Vec<usize>,
}

/// How a job name picks its leaf. Both rules fall back to the last leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Routing {
    /// The first matching leaf in depth-first order: the `hier` policy.
    FirstMatch,
    /// The longest matching prefix, ties to the earlier leaf: the
    /// `capacity` policy.
    LongestPrefix,
}

impl Routing {
    /// The policy name this routing rule ships under.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Routing::FirstMatch => "hier",
            Routing::LongestPrefix => "capacity",
        }
    }
}

/// The instantiated pool tree and the scheduling walk over a share view:
/// per-node running and schedulable-pending sums of one slot kind.
#[derive(Debug)]
pub(crate) struct Tree {
    /// Arena in depth-first order; 0 is a synthetic root, and a parent
    /// always precedes its children (aggregation sweeps in reverse).
    pub(crate) nodes: Vec<Node>,
    /// Leaf node indices, depth-first; the last one catches unmatched
    /// job names.
    pub(crate) leaves: Vec<usize>,
    /// Leaves in the order routing tries them: depth-first for
    /// [`Routing::FirstMatch`], longest prefix first (a stable sort, so
    /// ties keep listed order) for [`Routing::LongestPrefix`].
    route_order: Vec<usize>,
}

impl Tree {
    fn new(pools: &[PoolSpec], routing: Routing) -> Self {
        let root = Node {
            prefix: String::new(),
            weight: 1.0,
            min: [0, 0],
            max: [None, None],
            timeout: None,
            parent: 0,
            children: Vec::new(),
        };
        let mut tree = Tree { nodes: vec![root], leaves: Vec::new(), route_order: Vec::new() };
        for pool in pools {
            tree.add_subtree(pool, 0, "");
        }
        tree.route_order = tree.leaves.clone();
        if routing == Routing::LongestPrefix {
            let nodes = &tree.nodes;
            tree.route_order.sort_by_key(|&l| std::cmp::Reverse(nodes[l].prefix.len()));
        }
        tree
    }

    fn add_subtree(&mut self, pool: &PoolSpec, parent: usize, parent_prefix: &str) {
        let prefix = join_prefix(parent_prefix, &pool.name);
        let idx = self.nodes.len();
        self.nodes.push(Node {
            prefix: prefix.clone(),
            weight: pool.weight,
            min: [pool.min_maps.unwrap_or(0), pool.min_reduces.unwrap_or(0)],
            max: [pool.max_maps, pool.max_reduces],
            timeout: pool.preemption_timeout,
            parent,
            children: Vec::new(),
        });
        self.nodes[parent].children.push(idx);
        if pool.children.is_empty() {
            self.leaves.push(idx);
        } else {
            for child in &pool.children {
                self.add_subtree(child, idx, &prefix);
            }
        }
    }

    /// Leaf a job name routes to: the first leaf in routing order whose
    /// prefix matches, else the last leaf.
    pub(crate) fn route(&self, job_name: &str) -> usize {
        self.route_order
            .iter()
            .copied()
            .find(|&l| job_name.starts_with(&self.nodes[l].prefix))
            .unwrap_or(self.leaves[self.leaves.len() - 1])
    }

    /// Per-node running/pending counts of `kind`, rebuilt from the whole
    /// queue and aggregated over subtrees (a parent always precedes its
    /// children in the arena, so one reverse sweep rolls leaves up to the
    /// root).
    pub(crate) fn aggregate_into(
        &self,
        assignment: &HashMap<JobId, usize>,
        jobq: &JobQueue,
        kind: TaskKind,
        running: &mut Vec<usize>,
        pending: &mut Vec<usize>,
    ) {
        let n = self.nodes.len();
        running.clear();
        running.resize(n, 0);
        pending.clear();
        pending.resize(n, 0);
        for e in jobq.entries() {
            let Some(&leaf) = assignment.get(&e.id) else { continue };
            let (r, p) = entry_counts(e, kind);
            running[leaf] += r;
            pending[leaf] += p;
        }
        for i in (1..n).rev() {
            let parent = self.nodes[i].parent;
            running[parent] += running[i];
            pending[parent] += pending[i];
        }
    }

    /// Marks each node whose subtree can accept a launch: schedulable
    /// work below it and `running < max` at every level. Children are
    /// computed before parents (reverse arena order).
    fn mark_eligible_into(
        &self,
        k: usize,
        running: &[usize],
        pending: &[usize],
        eligible: &mut Vec<bool>,
    ) {
        let n = self.nodes.len();
        eligible.clear();
        eligible.resize(n, false);
        for i in (0..n).rev() {
            let node = &self.nodes[i];
            let has_work = if node.children.is_empty() {
                pending[i] > 0
            } else {
                node.children.iter().any(|&c| eligible[c])
            };
            eligible[i] = has_work && node.max[k].is_none_or(|m| running[i] < m);
        }
    }

    /// The root-to-leaf descent over precomputed eligibility: at every
    /// level the most under-served eligible child (min-share deficit
    /// group first, then running/weight; ties on listed order).
    fn descend(&self, k: usize, running: &[usize], eligible: &[bool]) -> Option<usize> {
        if !eligible[0] {
            return None;
        }
        let nodes = &self.nodes;
        let mut node = 0;
        while !nodes[node].children.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            // pass 1: children below their min share, by running/min
            for &c in &nodes[node].children {
                let min = nodes[c].min[k];
                if eligible[c] && min > 0 && running[c] < min {
                    let ratio = running[c] as f64 / min as f64;
                    if best.is_none_or(|(b, _)| ratio < b) {
                        best = Some((ratio, c));
                    }
                }
            }
            // pass 2: all eligible children, by running/weight
            if best.is_none() {
                for &c in &nodes[node].children {
                    if !eligible[c] {
                        continue;
                    }
                    let ratio = running[c] as f64 / nodes[c].weight;
                    if best.is_none_or(|(b, _)| ratio < b) {
                        best = Some((ratio, c));
                    }
                }
            }
            // an eligible internal node always has an eligible child
            node = best?.1;
        }
        Some(node)
    }

    /// The leaf the next slot of kind `k` goes to: from the root, descend
    /// into the most under-served eligible child. `eligible` is scratch.
    pub(crate) fn pick_leaf(
        &self,
        k: usize,
        running: &[usize],
        pending: &[usize],
        eligible: &mut Vec<bool>,
    ) -> Option<usize> {
        self.mark_eligible_into(k, running, pending, eligible);
        self.descend(k, running, eligible)
    }

    /// Updates the per-pool starvation clocks from map shares: a pool is
    /// starved while `running < min_maps` with pending map work in its
    /// subtree. Runs only from the time-sanctioned hooks, at `now`.
    fn refresh_starvation(
        &self,
        starved_since: &mut [Option<SimTime>],
        now: SimTime,
        running: &[usize],
        pending: &[usize],
    ) {
        for (i, node) in self.nodes.iter().enumerate() {
            let min = node.min[0];
            if min > 0 && running[i] < min && pending[i] > 0 {
                starved_since[i].get_or_insert(now);
            } else {
                starved_since[i] = None;
            }
        }
    }

    /// True if `node` lies in the subtree rooted at `of`.
    fn in_subtree(&self, node: usize, of: usize) -> bool {
        let mut n = node;
        loop {
            if n == of {
                return true;
            }
            if n == 0 {
                return false;
            }
            n = self.nodes[n].parent;
        }
    }

    /// Over-share victim leaf for a preemption on behalf of
    /// `starved`: a leaf outside the starved subtree with a running map
    /// to spare, whose whole path (outside the starved pool's ancestor
    /// chain) stays strictly above its min share after losing one slot.
    /// Largest `running − min` surplus wins; ties break depth-first.
    fn victim_leaf(&self, starved: usize, running: &[usize]) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        'leaves: for &leaf in &self.leaves {
            if self.in_subtree(leaf, starved) {
                continue;
            }
            let mut n = leaf;
            loop {
                if !self.in_subtree(starved, n) && running[n] <= self.nodes[n].min[0] {
                    continue 'leaves;
                }
                if n == 0 {
                    break;
                }
                n = self.nodes[n].parent;
            }
            let surplus = running[leaf] - self.nodes[leaf].min[0];
            if best.is_none_or(|(s, _)| surplus > s) {
                best = Some((surplus, leaf));
            }
        }
        best.map(|(_, leaf)| leaf)
    }

    /// The leaf that loses a map this preemption round, from the map
    /// share view: refresh the starvation clocks, take the most-starved
    /// pool whose timeout has expired, and its over-share victim leaf —
    /// provided the freed slot's relaunch lands inside the starved
    /// subtree.
    pub(crate) fn preemption_leaf(
        &self,
        starved_since: &mut [Option<SimTime>],
        now: SimTime,
        running: &[usize],
        pending: &[usize],
    ) -> Option<usize> {
        self.refresh_starvation(starved_since, now, running, pending);
        let mut starved: Option<(f64, usize)> = None;
        for (i, node) in self.nodes.iter().enumerate() {
            let (Some(since), Some(timeout)) = (starved_since[i], node.timeout) else {
                continue;
            };
            if now.since(since) < timeout {
                continue;
            }
            let ratio = running[i] as f64 / node.min[0] as f64;
            if starved.is_none_or(|(b, _)| ratio < b) {
                starved = Some((ratio, i));
            }
        }
        let (_, starved_node) = starved?;
        let leaf = self.victim_leaf(starved_node, running)?;
        // Gate the kill on where the freed slot actually goes: simulate
        // the post-kill state and require the relaunch walk to land
        // inside the starved subtree. Without this, a kill whose slot
        // bounces to a third pool (the root-level weight comparison can
        // outrank a deficit buried deeper in the tree) repeats at every
        // pass forever — the killed task never completes and the deficit
        // never clears. Preemption exists to feed the starved pool, so a
        // kill that cannot do that is not taken at all.
        let (mut sim_run, mut sim_pend) = (running.to_vec(), pending.to_vec());
        let mut n = leaf;
        loop {
            sim_run[n] -= 1;
            sim_pend[n] += 1; // the killed task requeues as pending
            if n == 0 {
                break;
            }
            n = self.nodes[n].parent;
        }
        let dest = self.pick_leaf(ki(TaskKind::Map), &sim_run, &sim_pend, &mut Vec::new());
        dest.is_some_and(|d| self.in_subtree(d, starved_node)).then_some(leaf)
    }

    /// The next instant a starvation timeout expires, after refreshing
    /// the clocks from the map share view.
    pub(crate) fn next_wakeup(
        &self,
        starved_since: &mut [Option<SimTime>],
        now: SimTime,
        running: &[usize],
        pending: &[usize],
    ) -> Option<SimTime> {
        self.refresh_starvation(starved_since, now, running, pending);
        let mut due: Option<SimTime> = None;
        for (since, node) in starved_since.iter().zip(&self.nodes) {
            let (Some(since), Some(timeout)) = (since, node.timeout) else { continue };
            let at = *since + timeout;
            if at > now && due.is_none_or(|d| at < d) {
                due = Some(at);
            }
        }
        due
    }
}

/// One entry's running and schedulable-pending task counts of `kind`
/// (reduce pending counts 0 until the job turns reduce-eligible).
fn entry_counts(e: &JobEntry, kind: TaskKind) -> (usize, usize) {
    match kind {
        TaskKind::Map => (e.running_maps, if e.has_schedulable_map() { e.pending_maps } else { 0 }),
        TaskKind::Reduce => {
            (e.running_reduces, if e.has_schedulable_reduce() { e.pending_reduces } else { 0 })
        }
    }
}

/// Hierarchical pool-tree scheduling policy.
#[derive(Debug)]
pub struct HierPolicy {
    routing: Routing,
    pub(crate) tree: Tree,
    /// Active job → leaf node index.
    assignment: HashMap<JobId, usize>,
    /// When each pool dropped below its map min share (with pending
    /// work), or `None` while satisfied.
    starved_since: Vec<Option<SimTime>>,
    /// Maintained per-node subtree sums, indexed `[ki(kind)][node]`:
    /// running tasks and *schedulable* pending tasks. Updated O(depth)
    /// per entry mutation by the engine hooks; rebuilt from the queue
    /// only by the invariant oracle.
    run: [Vec<usize>; 2],
    pend: [Vec<usize>; 2],
    /// Per-leaf active job ids in `(arrival, id)` order — the FIFO index
    /// the final-leaf pick scans instead of the whole queue.
    leaf_fifo: Vec<Vec<JobId>>,
    /// Per-leaf, per-kind cursor into `leaf_fifo`: no schedulable job of
    /// that kind sits strictly before it. Rewound to 0 whenever a job in
    /// the leaf goes schedulable-pending 0 → >0.
    leaf_hint: Vec<[usize; 2]>,
    /// Scratch: subtree has schedulable work and is under every max cap.
    eligible: Vec<bool>,
}

impl HierPolicy {
    /// Instantiates the policy from a validated pool forest.
    ///
    /// # Panics
    ///
    /// Panics if the tree fails [`validate_pools`] (empty, non-positive
    /// weight, min > max, ...).
    pub fn new(pools: Vec<PoolSpec>) -> Self {
        HierPolicy::with_routing(pools, Routing::FirstMatch)
    }

    /// Instantiates the tree under the given routing rule.
    ///
    /// # Panics
    ///
    /// As [`HierPolicy::new`].
    pub(crate) fn with_routing(pools: Vec<PoolSpec>, routing: Routing) -> Self {
        if let Err(e) = validate_pools(&pools) {
            panic!("invalid pool tree: {e}");
        }
        let tree = Tree::new(&pools, routing);
        let n = tree.nodes.len();
        HierPolicy {
            routing,
            tree,
            assignment: HashMap::new(),
            starved_since: vec![None; n],
            run: [vec![0; n], vec![0; n]],
            pend: [vec![0; n], vec![0; n]],
            leaf_fifo: vec![Vec::new(); n],
            leaf_hint: vec![[0, 0]; n],
            eligible: Vec::new(),
        }
    }

    /// A one-level tree of `prod` (weight 2) and a catch-all (weight 1),
    /// the default tree of both `hier` and `capacity`.
    pub fn two_tier() -> Self {
        HierPolicy::new(vec![PoolSpec::leaf("prod").weight(2.0), PoolSpec::leaf("").weight(1.0)])
    }

    /// The pool prefix a job was assigned to (for tests/diagnostics).
    pub fn pool_of(&self, id: JobId) -> Option<&str> {
        self.assignment.get(&id).map(|&l| self.tree.nodes[l].prefix.as_str())
    }

    /// Leaf routing prefixes in depth-first (listed) order.
    pub fn leaf_prefixes(&self) -> Vec<&str> {
        self.tree.leaves.iter().map(|&l| self.tree.nodes[l].prefix.as_str()).collect()
    }

    /// Applies one entry's counter delta for slot kind `k` along the
    /// leaf's ancestor chain, root inclusive — the O(depth) hook body.
    fn apply_delta(&mut self, leaf: usize, k: usize, d_run: isize, d_pend: isize) {
        if d_run == 0 && d_pend == 0 {
            return;
        }
        let mut node = leaf;
        loop {
            debug_assert!(self.run[k][node] as isize + d_run >= 0, "running underflow");
            debug_assert!(self.pend[k][node] as isize + d_pend >= 0, "pending underflow");
            self.run[k][node] = (self.run[k][node] as isize + d_run) as usize;
            self.pend[k][node] = (self.pend[k][node] as isize + d_pend) as usize;
            if node == 0 {
                break;
            }
            node = self.tree.nodes[node].parent;
        }
    }

    /// The tree walk over the maintained shares, then a FIFO pick within
    /// the final leaf.
    fn choose(&mut self, jobq: &JobQueue, kind: TaskKind) -> Option<JobId> {
        let k = ki(kind);
        let leaf = self.tree.pick_leaf(k, &self.run[k], &self.pend[k], &mut self.eligible)?;
        self.pick_from_leaf(jobq, leaf, kind)
    }

    /// FIFO pick within a leaf: resume the per-kind cursor and return the
    /// first schedulable job at or after it. Entries the cursor passes
    /// are non-schedulable *now* and stay skipped until a 0 → >0
    /// transition rewinds the cursor, so successive picks are amortized
    /// O(1) — the `JobQueue` hint discipline on a per-leaf list.
    fn pick_from_leaf(&mut self, jobq: &JobQueue, leaf: usize, kind: TaskKind) -> Option<JobId> {
        let k = ki(kind);
        let fifo = &self.leaf_fifo[leaf];
        let mut i = self.leaf_hint[leaf][k].min(fifo.len());
        while i < fifo.len() {
            if let Some(e) = jobq.get(fifo[i]) {
                if schedulable(e, kind) {
                    self.leaf_hint[leaf][k] = i;
                    return Some(e.id);
                }
            }
            i += 1;
        }
        self.leaf_hint[leaf][k] = i;
        None
    }
}

impl SchedulerPolicy for HierPolicy {
    fn name(&self) -> &str {
        self.routing.name()
    }

    fn on_job_arrival(
        &mut self,
        id: JobId,
        template: &JobTemplate,
        _relative_deadline: Option<DurationMs>,
        _cluster: simmr_types::ClusterSpec,
    ) {
        let leaf = self.tree.route(&template.name);
        self.assignment.insert(id, leaf);
    }

    fn on_job_departure(&mut self, id: JobId) {
        self.assignment.remove(&id);
    }

    fn on_job_queued(&mut self, entry: &JobEntry) {
        let leaf = *self.assignment.get(&entry.id).expect("job routed before it is queued");
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let (r, p) = entry_counts(entry, kind);
            self.apply_delta(leaf, ki(kind), r as isize, p as isize);
        }
        // Arrivals come in (arrival, id) order — the queue asserts it —
        // so appending keeps the leaf FIFO sorted. The new tail sits at
        // or after every cursor, so no rewind is needed.
        self.leaf_fifo[leaf].push(entry.id);
    }

    fn on_entry_mutated(&mut self, before: &JobEntry, after: &JobEntry) {
        let Some(&leaf) = self.assignment.get(&after.id) else { return };
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let k = ki(kind);
            let (r0, p0) = entry_counts(before, kind);
            let (r1, p1) = entry_counts(after, kind);
            self.apply_delta(leaf, k, r1 as isize - r0 as isize, p1 as isize - p0 as isize);
            // A job turning schedulable again (preemption requeue,
            // failure rerun, speculative duplicate, reduce-eligibility
            // flip) may sit before the cursor: rewind it.
            if p0 == 0 && p1 > 0 {
                self.leaf_hint[leaf][k] = 0;
            }
        }
    }

    fn on_job_dequeued(&mut self, entry: &JobEntry) {
        let Some(&leaf) = self.assignment.get(&entry.id) else { return };
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let (r, p) = entry_counts(entry, kind);
            self.apply_delta(leaf, ki(kind), -(r as isize), -(p as isize));
        }
        let fifo = &mut self.leaf_fifo[leaf];
        let pos = fifo
            .iter()
            .position(|&id| id == entry.id)
            .expect("dequeued job present in its leaf FIFO");
        fifo.remove(pos);
        for hint in &mut self.leaf_hint[leaf] {
            if pos < *hint {
                *hint -= 1;
            }
        }
    }

    fn choose_next_map_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        self.choose(jobq, TaskKind::Map)
    }

    fn choose_next_reduce_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        self.choose(jobq, TaskKind::Reduce)
    }

    /// One victim per round: the engine re-consults after every kill +
    /// relaunch, so the deficit pool reclaims exactly as many slots as
    /// its pending work can fill and no kill is wasted.
    fn map_preemptions(&mut self, jobq: &JobQueue, victims: &mut Vec<JobId>) {
        let Some(leaf) = self.tree.preemption_leaf(
            &mut self.starved_since,
            jobq.now,
            &self.run[0],
            &self.pend[0],
        ) else {
            return;
        };
        // the youngest job of the victim pool with a running map (its
        // most recently launched map is what the engine kills): the leaf
        // FIFO is (arrival, id)-sorted, so the first hit from the back
        let victim = self.leaf_fifo[leaf]
            .iter()
            .rev()
            .copied()
            .find(|&id| jobq.get(id).is_some_and(|e| e.running_maps > 0));
        victims.extend(victim);
    }

    /// Almost everything is derivable from the hook replay (routing,
    /// subtree counters, leaf FIFOs); the starvation clocks are not —
    /// *when* a pool dropped below its min share drives preemption timing
    /// — so they are captured, alongside an assignment fingerprint that
    /// catches a resume under a different pool tree.
    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        crate::snap::put_u32(&mut out, self.tree.nodes.len() as u32);
        for since in &self.starved_since {
            crate::snap::put_opt_u64(&mut out, since.map(|t| t.as_millis()));
        }
        let mut pairs: Vec<(JobId, usize)> =
            self.assignment.iter().map(|(&j, &l)| (j, l)).collect();
        pairs.sort_unstable();
        crate::snap::put_u32(&mut out, pairs.len() as u32);
        for (job, leaf) in pairs {
            crate::snap::put_u32(&mut out, job.0);
            crate::snap::put_u32(&mut out, leaf as u32);
        }
        out
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), String> {
        let name = self.routing.name();
        let mut r = crate::snap::Reader::new(blob);
        let n_nodes = r.u32()? as usize;
        if n_nodes != self.tree.nodes.len() {
            return Err(format!(
                "{name} pool tree has {} nodes but the checkpoint was taken with {n_nodes} — \
                 was the policy built with the same spec?",
                self.tree.nodes.len()
            ));
        }
        let mut starved = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            starved.push(r.opt_u64()?.map(SimTime::from_millis));
        }
        let n = r.u32()? as usize;
        let mut captured = Vec::with_capacity(n);
        for _ in 0..n {
            let job = JobId(r.u32()?);
            let leaf = r.u32()? as usize;
            captured.push((job, leaf));
        }
        r.done()?;
        let mut rebuilt: Vec<(JobId, usize)> =
            self.assignment.iter().map(|(&j, &l)| (j, l)).collect();
        rebuilt.sort_unstable();
        if rebuilt != captured {
            return Err(format!(
                "{name} pool assignments diverged from the checkpoint (rebuilt {} assignments, \
                 captured {n}) — was the policy built with the same spec?",
                rebuilt.len()
            ));
        }
        self.starved_since = starved;
        Ok(())
    }

    fn next_wakeup(&mut self, jobq: &JobQueue) -> Option<SimTime> {
        self.tree.next_wakeup(&mut self.starved_since, jobq.now, &self.run[0], &self.pend[0])
    }

    /// Per-pool share accounting, cross-checked by the engine's invariant
    /// checker after every settled event batch.
    fn verify_invariants(&self, jobq: &JobQueue) {
        // (1) routing table covers exactly the active jobs
        if self.assignment.len() != jobq.len() {
            panic!(
                "engine invariant violated [pool-routing]: {} pool assignments for {} active jobs",
                self.assignment.len(),
                jobq.len()
            );
        }
        // (2) every leaf FIFO holds exactly its assigned active jobs, in
        // (arrival, id) order — queue entries come out in that order, so
        // splitting them by leaf rebuilds the expected lists
        let mut expect_fifo: Vec<Vec<JobId>> = vec![Vec::new(); self.tree.nodes.len()];
        for e in jobq.entries() {
            match self.assignment.get(&e.id) {
                Some(&leaf) if self.tree.leaves.contains(&leaf) => expect_fifo[leaf].push(e.id),
                got => panic!(
                    "engine invariant violated [pool-routing]: job {} assigned to {:?}, \
                     not a leaf pool",
                    e.id, got
                ),
            }
        }
        if expect_fifo != self.leaf_fifo {
            panic!(
                "engine invariant violated [pool-fifo]: leaf FIFOs {:?} != expected {:?}",
                self.leaf_fifo, expect_fifo
            );
        }
        // (3) maintained subtree counters match the full re-aggregation
        // oracle for both slot kinds — any missed or double-counted
        // mutation hook shows up here
        let (mut running, mut pending) = (Vec::new(), Vec::new());
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let k = ki(kind);
            self.tree.aggregate_into(&self.assignment, jobq, kind, &mut running, &mut pending);
            if running != self.run[k] || pending != self.pend[k] {
                panic!(
                    "engine invariant violated [pool-share-accounting]: maintained {kind:?} \
                     counters run={:?} pend={:?} != oracle run={running:?} pend={pending:?}",
                    self.run[k], self.pend[k]
                );
            }
            // (4) cursor invariant: no schedulable job strictly before a
            // leaf's per-kind hint
            for &leaf in &self.tree.leaves {
                let hint = self.leaf_hint[leaf][k];
                for &id in self.leaf_fifo[leaf].iter().take(hint) {
                    if jobq.get(id).is_some_and(|e| schedulable(e, kind)) {
                        panic!(
                            "engine invariant violated [pool-fifo-cursor]: job {id} in pool \
                             {:?} is {kind:?}-schedulable before the cursor (hint {hint})",
                            self.tree.nodes[leaf].prefix
                        );
                    }
                }
            }
        }
        // (5) starvation clocks agree with freshly derived share state
        // (`running`/`pending` still hold the Reduce oracle; rebuild Map)
        self.tree.aggregate_into(&self.assignment, jobq, TaskKind::Map, &mut running, &mut pending);
        for (i, node) in self.tree.nodes.iter().enumerate() {
            let starved = node.min[0] > 0 && running[i] < node.min[0] && pending[i] > 0;
            if starved != self.starved_since[i].is_some() {
                panic!(
                    "engine invariant violated [pool-starvation-clock]: pool {:?} derived \
                     starved={starved} (running {} / min {} / pending {}) but clock is {:?}",
                    node.prefix, running[i], node.min[0], pending[i], self.starved_since[i]
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::parse_pool_spec;
    use simmr_core::{EngineConfig, SimulatorEngine};
    use simmr_types::{JobSpec, JobTemplate, SimTime, WorkloadTrace};

    fn named_job(name: &str, maps: usize, map_ms: u64, arrival_ms: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new(name, vec![map_ms; maps], vec![], vec![], vec![]).unwrap(),
            SimTime::from_millis(arrival_ms),
        )
    }

    fn hier(spec: &str) -> HierPolicy {
        HierPolicy::new(parse_pool_spec(spec).unwrap())
    }

    #[test]
    fn routing_matches_leaf_prefixes() {
        let p = hier("prod{etl,serving},adhoc");
        assert_eq!(p.leaf_prefixes(), vec!["prod-etl", "prod-serving", "adhoc"]);
        let (tree, leaves) = (&p.tree, &p.tree.leaves);
        assert_eq!(tree.route("prod-etl-0001"), leaves[0]);
        assert_eq!(tree.route("prod-serving-x"), leaves[1]);
        assert_eq!(tree.route("adhoc-sort"), leaves[2]);
        // no match falls back to the last leaf
        assert_eq!(tree.route("mystery"), leaves[2]);
        // the first matching leaf wins, not the longest (capacity's rule)
        let p = hier("prod,prod-etl");
        assert_eq!(p.leaf_prefixes(), vec!["prod", "prod-etl"]);
        assert_eq!(p.tree.route("prod-etl-x"), p.tree.leaves[0]);
    }

    #[test]
    #[should_panic(expected = "invalid pool tree")]
    fn rejects_empty_tree() {
        HierPolicy::new(vec![]);
    }

    #[test]
    fn flat_tree_matches_capacity_schedule() {
        // the capacity default and the hier default are the same tree,
        // and its two leaves route alike under both rules
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("prod-big", 12, 1000, 0));
        trace.push(named_job("adhoc-big", 6, 700, 50));
        trace.push(named_job("prod-late", 3, 400, 900));
        let run = |policy: Box<dyn SchedulerPolicy>| {
            SimulatorEngine::new(EngineConfig::new(6, 6).with_timeline(), &trace, policy).run()
        };
        let capacity = run(Box::new(crate::capacity::policy(&[])));
        let tree = run(Box::new(HierPolicy::two_tier()));
        assert_eq!(capacity, tree);
    }

    #[test]
    fn weighted_split_between_pools() {
        // same scenario as the capacity unit test: prod w=2 vs
        // adhoc w=1 on 6 slots → 4/2 split, both finish at 3 s
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("prod-big", 12, 1000, 0));
        trace.push(named_job("adhoc-big", 6, 1000, 0));
        let report = SimulatorEngine::new(
            EngineConfig::new(6, 6),
            &trace,
            Box::new(hier("prod[w=2],adhoc[w=1]")),
        )
        .run();
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(3000));
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(3000));
    }

    #[test]
    fn max_share_caps_a_subtree() {
        // adhoc capped at 2 of 6 slots: its 6 tasks take 3 rounds even
        // with prod idle after t=0 (no other work)
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("adhoc-burst", 6, 1000, 0));
        let report = SimulatorEngine::new(
            EngineConfig::new(6, 6),
            &trace,
            Box::new(hier("prod,adhoc[max=2]")),
        )
        .run();
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(3000));
    }

    #[test]
    fn min_share_preemption_restores_deficit() {
        // adhoc grabs all 4 slots at t=0; prod arrives at t=100 with a
        // min share of 3 and a 200 ms timeout → at t=300 the scheduler
        // kills 3 adhoc maps (progress lost) and prod runs 3 tasks.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("adhoc-hog", 4, 10_000, 0));
        trace.push(named_job("prod-urgent", 3, 500, 100));
        let report = SimulatorEngine::new(
            EngineConfig::new(4, 4).with_timeline().with_invariants(),
            &trace,
            Box::new(hier("prod[min=3,timeout=0.2],adhoc")),
        )
        .run();
        // prod gets its 3 slots at t=300 and finishes at t=800
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(800));
        // adhoc lost 3 tasks' progress at t=300: 1 survivor finishes at
        // 10 s, the 3 re-runs start at t=800 → done at 10.8 s
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(10_800));
    }

    #[test]
    fn timeout_zero_preempts_in_the_same_pass() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("adhoc-hog", 2, 10_000, 0));
        trace.push(named_job("prod-now", 1, 100, 50));
        let report = SimulatorEngine::new(
            EngineConfig::new(2, 2).with_invariants(),
            &trace,
            Box::new(hier("prod[min=1,timeout=0],adhoc")),
        )
        .run();
        // preempted at arrival: prod finishes at 150 ms
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(150));
    }

    #[test]
    fn no_timeout_never_preempts() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("adhoc-hog", 2, 1000, 0));
        trace.push(named_job("prod-now", 1, 100, 50));
        let report = SimulatorEngine::new(
            EngineConfig::new(2, 2).with_invariants(),
            &trace,
            Box::new(hier("prod[min=1],adhoc")),
        )
        .run();
        // min share shapes selection but without a timeout nothing is
        // killed: prod waits for a natural slot at t=1000
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(1100));
    }
}
