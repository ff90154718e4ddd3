//! The two replay workloads: `replay_stream_1m` (a 1M-job binary trace
//! streamed under fifo) and `policy_mix_1k` (a 1k-job deadline trace
//! replayed under all eight shipped policies).
//!
//! `peak_rss_mb` is read after the first pass: set-up plus one replay
//! (one pass of eight), which is what one `simmr replay` or `simmr
//! compare` process holds. Later passes reuse freed memory in an order
//! that varies from process to process and moves the high-water mark by
//! up to a quarter on the same input.

use crate::inputs::{self, POLICIES, SLOTS};
use crate::metrics::{
    another_round, end_to_end, median, peak_rss_mb, repeat_setup, timed, Outcome, SimStats,
};
use crate::timed::{HookStats, PullStats, TimedPolicy, TimedSource};
use crate::Run;
use simmr_core::{EngineConfig, EventKind, EventQueue, JobSource, SimulatorEngine};
use simmr_sched::{parse_policy, PolicySpec};
use simmr_stats::SeededRng;
use simmr_trace::BinTraceSource;
use simmr_types::{JobId, SimTime, SimulationReport, WorkloadTrace};
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Set-ups before the first pass. In the timed run more follow every
/// pass ([`STREAM_SETUPS_PER_PASS`], [`MIX_SETUPS_PER_PASS`]), so that
/// `setup_s` samples the same stretch of the host's speed as `wall_s`
/// rather than the moment the run began.
const SETUP_REPS: usize = 3;
/// Trace writes after each stream pass: about a tenth of a pass.
const STREAM_SETUPS_PER_PASS: usize = 1;
/// Trace builds after each policy-mix pass: a few percent of a pass.
const MIX_SETUPS_PER_PASS: usize = 3;

/// Compares `stats` with the first statistics seen under `label` and
/// counts the operation; a mismatch is a failed operation.
fn check_stats(
    out: &mut Outcome,
    first: &mut Vec<(&'static str, SimStats)>,
    label: &'static str,
    stats: SimStats,
) {
    match first.iter().find(|(l, _)| *l == label) {
        Some((_, want)) => {
            if *want != stats {
                eprintln!("[perfbench] {label}: simulated statistics changed: {want} -> {stats}");
            }
            out.check(*want == stats);
        }
        None => {
            println!("sim {label} {stats}");
            first.push((label, stats));
            out.check(true);
        }
    }
}

/// Per-pass layer timings of one traced stream replay.
struct StreamTrace {
    wall_s: f64,
    pull_s: f64,
    jobs: u64,
    busy_s: f64,
    hooks: Rc<HookStats>,
}

fn stream_config() -> EngineConfig {
    EngineConfig::new(SLOTS, SLOTS).without_job_results()
}

/// One untraced streaming replay of the trace at `path`.
fn stream_pass(path: &Path) -> Result<SimulationReport, String> {
    let source = BinTraceSource::open(path).map_err(|e| e.to_string())?;
    let policy = parse_policy("fifo").map_err(|e| e.to_string())?;
    SimulatorEngine::from_source(stream_config(), Box::new(source), policy)
        .try_run()
        .map_err(|e| e.to_string())
}

/// One traced streaming replay: the source and the policy are wrapped in
/// the timing decorators; opening the file (its checksum pass) counts as
/// trace decode.
fn stream_pass_traced(
    path: &Path,
    clock_ns: f64,
) -> Result<(SimulationReport, StreamTrace), String> {
    let pulls = Rc::new(PullStats::default());
    let hooks = Rc::new(HookStats::default());
    let start = Instant::now();
    let (source, open_s) = timed(|| BinTraceSource::open(path));
    let source = TimedSource::new(source.map_err(|e| e.to_string())?, Rc::clone(&pulls));
    let jobs = source.job_count();
    let policy = TimedPolicy::new(parse_policy("fifo").map_err(|e| e.to_string())?, hooks.clone());
    let report = SimulatorEngine::from_source(stream_config(), Box::new(source), Box::new(policy))
        .try_run()
        .map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    if pulls.jobs.get() != jobs as u64 {
        return Err(format!("streamed {} of {jobs} jobs", pulls.jobs.get()));
    }
    let pull_s = open_s + pulls.pull_s(clock_ns);
    let busy_s = hooks.busy_s(clock_ns);
    Ok((report, StreamTrace { wall_s, pull_s, jobs: pulls.jobs.get(), busy_s, hooks }))
}

/// `replay_stream_1m`.
pub fn replay_stream(run: &Run) -> Result<Outcome, String> {
    let path = run.work.join("stream_1m.trace.bin");
    let setup =
        || inputs::write_stream_trace(&path, run.seed).map_err(|e| format!("writing trace: {e}"));
    let (bytes, mut setups) = repeat_setup(SETUP_REPS, setup)?;
    let mut out = Outcome::default();
    let mut first = Vec::new();
    let mut untraced = Vec::new();
    let mut traced: Vec<StreamTrace> = Vec::new();
    let mut serialize = Vec::new();
    let clock_ns = if run.trace { crate::timed::clock_ns() } else { 0.0 };
    let deadline = Instant::now() + run.window();
    let mut rounds = Vec::new();
    // a traced run alternates untraced and traced passes, so the tracing
    // overhead is a ratio taken in one process
    while another_round(deadline, &rounds, 2) {
        let round = Instant::now();
        let (report, wall) = timed(|| stream_pass(&path));
        let report = report?;
        untraced.push(wall);
        if untraced.len() == 1 {
            out.set("peak_rss_mb", peak_rss_mb());
        }
        check_stats(&mut out, &mut first, "fifo", SimStats::of(&report).0);
        if run.trace {
            let (report, layers) = stream_pass_traced(&path, clock_ns)?;
            let ((stats, len), ser_s) = timed(|| SimStats::of(&report));
            check_stats(&mut out, &mut first, "fifo", stats);
            serialize.push(ser_s);
            out.set("report.bytes", len as f64);
            out.set("engine.events", report.events_processed as f64);
            traced.push(layers);
        } else {
            setups.extend(repeat_setup(STREAM_SETUPS_PER_PASS, setup)?.1);
        }
        rounds.push(round.elapsed().as_secs_f64());
    }
    if !run.trace {
        end_to_end(&mut out, &untraced, std::slice::from_ref(&untraced), &setups);
        return Ok(out);
    }
    let events = out.get("engine.events").unwrap_or(0.0);
    let col = |f: fn(&StreamTrace) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let pull_s = col(|t| t.pull_s);
    let jobs = traced[0].jobs as f64;
    // the engine's own time: the untraced wall less the other layers'
    // estimates (the traced wall also holds the decorators' cost)
    let self_s = median(&untraced) - pull_s - col(|t| t.busy_s);
    out.set("trace.bin.pull_s", pull_s);
    out.set("trace.bin.ns_per_job", pull_s * 1e9 / jobs);
    out.set("trace.bin.bytes_per_job", bytes as f64 / jobs);
    out.set("engine.self_s", self_s);
    out.set("engine.ns_per_event", self_s * 1e9 / events);
    let hooks = &traced[0].hooks;
    out.set("sched.fifo.calls", hooks.calls.get() as f64);
    out.set("sched.fifo.busy_s", col(|t| t.busy_s));
    out.set("sched.fifo.pick_yield", hooks.pick_yield());
    out.set("sched.fifo.wall_vs_fifo", 1.0);
    out.set("report.serialize_s", median(&serialize));
    out.set("bench.trace_overhead", col(|t| t.wall_s) / median(&untraced));
    queue_probe(run.seed, &mut out);
    Ok(out)
}

/// One replay of the materialized trace under `policy`.
fn mix_op(
    trace: &WorkloadTrace,
    spec: &PolicySpec,
    hooks: Option<&Rc<HookStats>>,
) -> Result<SimulationReport, String> {
    let policy = spec.build();
    let policy: Box<dyn simmr_core::SchedulerPolicy> = match hooks {
        Some(h) => Box::new(TimedPolicy::new(policy, Rc::clone(h))),
        None => policy,
    };
    SimulatorEngine::new(EngineConfig::new(SLOTS, SLOTS), trace, policy)
        .try_run()
        .map_err(|e| e.to_string())
}

/// `policy_mix_1k`.
pub fn policy_mix(run: &Run) -> Result<Outcome, String> {
    let setup = || Ok(inputs::policy_mix_trace(run.seed));
    let (trace, mut setups) = repeat_setup(SETUP_REPS, setup)?;
    let specs: Vec<(&'static str, PolicySpec)> = POLICIES
        .iter()
        .map(|&(label, spec)| spec.parse().map(|p| (label, p)).map_err(|e| format!("{e}")))
        .collect::<Result<_, _>>()?;
    let mut out = Outcome::default();
    let mut first = Vec::new();
    // per policy: untraced seconds, hook seconds, traced hook stats
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut busy: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut hook_stats: Vec<Option<Rc<HookStats>>> = vec![None; specs.len()];
    let mut passes = Vec::new();
    let mut traced_passes = Vec::new();
    let mut serialize = Vec::new();
    let mut report_bytes = Vec::new();
    let clock_ns = if run.trace { crate::timed::clock_ns() } else { 0.0 };
    let deadline = Instant::now() + run.window();
    let mut rounds = Vec::new();
    while another_round(deadline, &rounds, 2) {
        let round = Instant::now();
        let mut pass = 0.0;
        for (i, (label, spec)) in specs.iter().enumerate() {
            let (report, secs) = timed(|| mix_op(&trace, spec, None));
            let report = report?;
            pass += secs;
            untraced[i].push(secs);
            check_stats(&mut out, &mut first, label, SimStats::of(&report).0);
        }
        passes.push(pass);
        if passes.len() == 1 {
            out.set("peak_rss_mb", peak_rss_mb());
        }
        if !run.trace {
            let (rebuilt, secs) = repeat_setup(MIX_SETUPS_PER_PASS, setup)?;
            out.check(rebuilt == trace);
            setups.extend(secs);
            rounds.push(round.elapsed().as_secs_f64());
            continue;
        }
        let mut pass = 0.0;
        let mut events = 0;
        for (i, (label, spec)) in specs.iter().enumerate() {
            let hooks = Rc::new(HookStats::default());
            let (report, secs) = timed(|| mix_op(&trace, spec, Some(&hooks)));
            let report = report?;
            pass += secs;
            events += report.events_processed;
            busy[i].push(hooks.busy_s(clock_ns));
            hook_stats[i] = Some(hooks);
            let ((stats, len), ser_s) = timed(|| SimStats::of(&report));
            serialize.push(ser_s);
            report_bytes.push(len as f64);
            check_stats(&mut out, &mut first, label, stats);
        }
        out.set("engine.events", events as f64);
        traced_passes.push(pass);
        rounds.push(round.elapsed().as_secs_f64());
    }
    if !run.trace {
        end_to_end(&mut out, &passes, &untraced, &setups);
        return Ok(out);
    }
    let fifo_wall = median(&untraced[0]);
    let mut busy_total = 0.0;
    for (i, (label, _)) in specs.iter().enumerate() {
        let hooks = hook_stats[i].as_ref().expect("every policy ran traced");
        let busy_s = median(&busy[i]);
        busy_total += busy_s;
        out.set(format!("sched.{label}.calls"), hooks.calls.get() as f64);
        out.set(format!("sched.{label}.busy_s"), busy_s);
        out.set(format!("sched.{label}.pick_yield"), hooks.pick_yield());
        out.set(format!("sched.{label}.wall_vs_fifo"), median(&untraced[i]) / fifo_wall);
    }
    let events = out.get("engine.events").unwrap_or(0.0);
    let self_s = median(&passes) - busy_total;
    out.set("engine.self_s", self_s);
    out.set("engine.ns_per_event", self_s * 1e9 / events);
    out.set("report.serialize_s", median(&serialize));
    out.set("report.bytes", median(&report_bytes));
    out.set("bench.trace_overhead", median(&traced_passes) / median(&passes));
    queue_probe(run.seed, &mut out);
    Ok(out)
}

/// Mean nanoseconds of one `EventQueue` pop followed by one push, with
/// `backlog` events pending: the engine's steady state, where each
/// handled event schedules the next. Times are drawn up to ten minutes
/// ahead of the clock, like task departures.
fn pushpop_ns(backlog: usize, seed: u64) -> f64 {
    const OPS: usize = 200_000;
    let mut rng = SeededRng::new(seed).fork(backlog as u64);
    let mut q = EventQueue::with_capacity(backlog + 1);
    for i in 0..backlog {
        let t = rng.uniform_u64(0, 600_000);
        q.push(SimTime::from_millis(t), EventKind::MapTaskDeparture, JobId(i as u32), 0);
    }
    let deltas: Vec<u64> = (0..OPS).map(|_| rng.uniform_u64(1, 600_000)).collect();
    let start = Instant::now();
    for &d in &deltas {
        let e = q.pop().expect("backlog stays constant");
        q.push(e.time + d, e.kind, e.job, e.task_index);
    }
    let ns = start.elapsed().as_nanos() as f64 / OPS as f64;
    black_box(q.len());
    ns
}

/// The event-queue layer at three backlogs: ~130 events is the streamed
/// replay's heap, 10k the policy mix's (every arrival pushed up front).
fn queue_probe(seed: u64, out: &mut Outcome) {
    for (label, backlog) in [("b128", 128), ("b1k", 1_000), ("b10k", 10_000)] {
        let samples: Vec<f64> = (0..5).map(|r| pushpop_ns(backlog, seed ^ r)).collect();
        out.set(format!("queue.pushpop_ns.{label}"), median(&samples));
    }
}
