//! The timing decorators must not change what they measure: a run through
//! `TimedPolicy` / `TimedSource` yields the byte-identical report of the
//! undecorated run.

use simmr_core::{EngineConfig, JobSource, SimulatorEngine};
use simmr_perfbench::inputs::{stream_workload, POLICIES};
use simmr_perfbench::timed::{HookStats, PullStats, TimedPolicy, TimedSource};
use simmr_sched::parse_policy;
use simmr_serve::attach_deadlines;
use simmr_trace::{BinTraceSource, MultiTenantWorkload};
use std::path::PathBuf;
use std::rc::Rc;

fn json(report: &simmr_types::SimulationReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

#[test]
fn timed_policy_leaves_every_policy_report_unchanged() {
    let mut trace = MultiTenantWorkload::three_tenant(5_000.0).generate(120, 7);
    attach_deadlines(&mut trace, 2.0, 16, 16, 7);
    let config = EngineConfig::new(16, 16);
    for (label, spec) in POLICIES {
        let plain = SimulatorEngine::new(config, &trace, parse_policy(spec).unwrap()).run();
        let hooks = Rc::new(HookStats::default());
        let timed = TimedPolicy::new(parse_policy(spec).unwrap(), Rc::clone(&hooks));
        let wrapped = SimulatorEngine::new(config, &trace, Box::new(timed)).run();
        assert_eq!(json(&plain), json(&wrapped), "{label}: decorated report differs");
        assert!(hooks.choose_calls.get() > 0, "{label}: no choose_next_* call counted");
        assert!(hooks.calls.get() >= hooks.choose_calls.get());
        assert!(hooks.picks.get() <= hooks.choose_calls.get());
    }
}

#[test]
fn timed_source_leaves_a_streamed_report_unchanged() {
    const JOBS: usize = 3_000;
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("transparent.trace.bin");
    let file = std::fs::File::create(&path).unwrap();
    stream_workload()
        .write_bin(JOBS, 8, 5, None, std::io::BufWriter::new(file))
        .unwrap()
        .into_inner()
        .unwrap();
    let config = EngineConfig::new(16, 16).without_job_results();
    for (label, spec) in POLICIES {
        let source = BinTraceSource::open(&path).unwrap();
        let plain =
            SimulatorEngine::from_source(config, Box::new(source), parse_policy(spec).unwrap())
                .try_run()
                .unwrap();
        let pulls = Rc::new(PullStats::default());
        let source = TimedSource::new(BinTraceSource::open(&path).unwrap(), Rc::clone(&pulls));
        assert_eq!(source.job_count(), JOBS);
        let policy = TimedPolicy::new(parse_policy(spec).unwrap(), Rc::new(HookStats::default()));
        let wrapped = SimulatorEngine::from_source(config, Box::new(source), Box::new(policy))
            .try_run()
            .unwrap();
        assert_eq!(json(&plain), json(&wrapped), "{label}: decorated streamed report differs");
        assert_eq!(
            pulls.jobs.get(),
            JOBS as u64,
            "{label}: every job pulled through the decorator"
        );
    }
    std::fs::remove_file(&path).unwrap();
}
