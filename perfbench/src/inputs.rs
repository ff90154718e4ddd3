//! The benchmark's inputs, all derived from the workload seed: the same
//! seed gives the same traces, specs and request streams.
//!
//! Job shapes and task durations come from a fixed catalog drawn once
//! from [`CATALOG_SEED`], with the Facebook mix's class shares exact
//! rather than sampled. The workload seed orders the jobs and draws their
//! arrivals, tenants and deadlines. With the heavy-tailed Facebook mix, a
//! per-seed catalog made one seed's trace much costlier than another's
//! (two 2400-map jobs more or less in a 100-job trace, or both arriving
//! first), which no run length averages away.

use simmr_serve::attach_deadlines;
use simmr_stats::{Dist, Distribution, SeededRng};
use simmr_trace::{BinTraceWriter, FacebookWorkload, SyntheticWorkload};
use simmr_types::{JobSpec, JobTemplate, SimTime, TraceMeta, WorkloadTrace};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

/// Cluster shape of every workload: 64 map and 64 reduce slots.
pub const SLOTS: usize = 64;

/// Seed of the fixed template catalog.
const CATALOG_SEED: u64 = 0x51_3D_C0;

/// The eight shipped policies as `(metric label, spec)`.
pub const POLICIES: [(&str, &str); 8] = [
    ("fifo", "fifo"),
    ("fair", "fair"),
    ("capacity", "capacity:prod-etl=3,prod-serving=2,adhoc=1"),
    ("hier", "hier:prod[w=3,min=4]{etl,serving},adhoc[w=1]"),
    ("maxedf", "maxedf"),
    ("minedf", "minedf"),
    ("maxedf-p", "maxedf-p"),
    ("minedf-p", "minedf-p"),
];

/// Jobs in the streamed replay trace.
const STREAM_JOBS: usize = 1_000_000;

/// Template variants per class in the streamed trace.
const STREAM_VARIANTS: usize = 8;

/// The streamed trace's workload: the small-job head of the Facebook mix
/// (its first three classes), at a mean inter-arrival that keeps the
/// cluster around half busy, so the backlog and the event heap stay
/// shallow however long the trace is.
pub fn stream_workload() -> SyntheticWorkload {
    let mut w = FacebookWorkload { mean_interarrival_ms: 20_000.0 }.workload();
    w.classes.truncate(3);
    w
}

/// Writes the 1M-job binary trace for `seed` to `path` and returns its
/// size in bytes: jobs drawn from the catalog's pool of
/// [`STREAM_VARIANTS`] templates per class, streamed to disk without
/// materializing the trace.
pub fn write_stream_trace(path: &Path, seed: u64) -> Result<u64, String> {
    let workload = stream_workload();
    let pool = workload.template_pool(STREAM_VARIANTS, CATALOG_SEED);
    let meta = TraceMeta {
        description: "perfbench 1M-job stream".into(),
        source: "perfbench".into(),
        seed: Some(seed),
    };
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let file = File::create(path).map_err(|e| err(&e))?;
    let mut writer = BinTraceWriter::new(BufWriter::new(file), &meta);
    let ids: Vec<u32> = pool
        .iter()
        .map(|t| writer.intern_template(t))
        .collect::<Result<_, _>>()
        .map_err(|e| err(&e))?;
    let weights: Vec<f64> = workload.classes.iter().map(|c| c.weight).collect();
    let gaps = Dist::Exponential { mean: workload.mean_interarrival_ms };
    let mut rng = SeededRng::new(seed);
    let mut clock = SimTime::ZERO;
    for _ in 0..STREAM_JOBS {
        let class = rng.weighted_index(&weights);
        let variant = rng.index(STREAM_VARIANTS);
        writer
            .push_job(ids[class * STREAM_VARIANTS + variant], clock, None)
            .map_err(|e| err(&e))?;
        clock += gaps.sample(&mut rng) as u64;
    }
    writer.finish().map_err(|e| err(&e))?.into_inner().map_err(|e| err(&e))?;
    std::fs::metadata(path).map(|m| m.len()).map_err(|e| err(&e))
}

/// `jobs` Facebook-mix templates from the catalog, grouped by class, each
/// class present in exactly its mix share (38% one-map jobs down to 2%
/// 2400-map jobs).
fn facebook_catalog(jobs: usize) -> Vec<Vec<JobTemplate>> {
    let mix = FacebookWorkload { mean_interarrival_ms: 0.0 }.workload();
    mix.classes
        .iter()
        .enumerate()
        .map(|(i, class)| {
            let count = (class.weight * jobs as f64 / 100.0).round() as usize;
            let one_class = SyntheticWorkload { classes: vec![class.clone()], ..mix.clone() };
            let seed = CATALOG_SEED.wrapping_add(i as u64);
            one_class.generate(count, seed).jobs.into_iter().map(|j| j.template).collect()
        })
        .collect()
}

/// Interleaves the groups so each spreads evenly over the sequence: the
/// `k`-th of a group's `n` members lands at a random point of the `k`-th
/// of `n` equal strata. The order is random, yet every stretch of the
/// sequence holds its share of each group, so the two 2400-map jobs of a
/// 100-job trace never both arrive first or last.
fn stratify<T>(groups: Vec<Vec<T>>, rng: &mut SeededRng) -> Vec<T> {
    let mut keyed = Vec::new();
    for mut group in groups {
        shuffle(&mut group, rng);
        let n = group.len() as f64;
        for (k, item) in group.into_iter().enumerate() {
            keyed.push(((k as f64 + rng.uniform(0.0, 1.0)) / n, item));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, item)| item).collect()
}

/// Gives `templates` exponential arrivals drawn from `rng`, in order.
fn schedule(
    templates: Vec<JobTemplate>,
    mean_interarrival_ms: f64,
    rng: &mut SeededRng,
) -> WorkloadTrace {
    let gaps = Dist::Exponential { mean: mean_interarrival_ms };
    let mut trace = WorkloadTrace::new("perfbench Facebook-mix trace", "perfbench");
    let mut clock = SimTime::ZERO;
    for template in templates {
        trace.push(JobSpec::new(template, clock));
        clock += gaps.sample(rng) as u64;
    }
    trace
}

fn shuffle<T>(items: &mut [T], rng: &mut SeededRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// Jobs in the policy-mix trace. The `capacity` policy scans the whole
/// backlog on every pick, so its replay grows with the square of the job
/// count: about 3 s at 1k jobs, 17 s at 2k and 33 s at 3k on a 2-core
/// Xeon, against 0.03-0.1 s for fifo; 10k jobs would take minutes per
/// replay. 1k jobs keeps one pass of all eight policies near 4 s.
const MIX_JOBS: usize = 1_000;

/// The three tenants of the policy mix and their shares of the jobs, as
/// in `MultiTenantWorkload::three_tenant`.
const TENANTS: [(&str, usize); 3] = [("prod-etl", 3), ("prod-serving", 2), ("adhoc", 5)];

/// The policy-mix trace: 1k catalog jobs, each tagged with a tenant
/// prefix (exact 3:2:5 shares) that the capacity and hier policies route
/// on, arriving every 10 s on average, with §V-B deadlines (factor 2).
/// Classes and tenants are spread over the trace by [`stratify`].
/// Materialized in memory.
pub fn policy_mix_trace(seed: u64) -> WorkloadTrace {
    let mut rng = SeededRng::new(seed);
    let mut templates = stratify(facebook_catalog(MIX_JOBS), &mut rng);
    let total: usize = TENANTS.iter().map(|&(_, share)| share).sum();
    let tenants: Vec<Vec<&str>> =
        TENANTS.iter().map(|&(name, share)| vec![name; share * templates.len() / total]).collect();
    for (template, tenant) in templates.iter_mut().zip(stratify(tenants, &mut rng)) {
        template.name = format!("{tenant}-{}", template.name).into();
    }
    let mut trace = schedule(templates, 10_000.0, &mut rng);
    attach_deadlines(&mut trace, 2.0, SLOTS, SLOTS, seed);
    trace
}

/// The stored serve trace: 100 catalog jobs of the full Facebook mix,
/// spread by [`stratify`], arriving every 10 s on average.
pub fn serve_trace(seed: u64) -> WorkloadTrace {
    let mut rng = SeededRng::new(seed);
    let templates = stratify(facebook_catalog(100), &mut rng);
    schedule(templates, 10_000.0, &mut rng)
}
