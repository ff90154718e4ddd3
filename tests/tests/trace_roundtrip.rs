//! Trace persistence and transformation round-trips, plus a structured
//! fuzzer over the JSON trace schema: randomized traces with boundary
//! durations (0, 1, `u64::MAX`) and escape-heavy names must survive a
//! serialize → parse round-trip byte-exactly; truncated documents and
//! trailing garbage must error (never panic); duplicate object keys
//! resolve first-wins, matching the vendored `serde_json`'s `Value::get`.
//!
//! The same fuzzed traces also exercise the binary codec: JSON → binary →
//! JSON must reproduce every job byte-identically (modulo the format's
//! arrival-order canonicalization); truncations, bit flips, bad magic and
//! unknown versions must surface as typed [`simmr_trace::BinError`]s,
//! never panics. A replay of the same trace through the materialized JSON
//! path and the streaming binary path must produce identical reports
//! under every policy.
//!
//! Engine checkpoints ([`simmr_core::EngineCheckpoint`]) are held to the
//! same contract: canonical encoding (encode → decode → encode is the
//! identity) and typed [`simmr_core::CkptError`]s for every truncation or
//! bit flip.

use proptest::prelude::*;
use simmr_bench::pipeline::run_testbed;
use simmr_cluster::{ClusterConfig, ClusterPolicy};
use simmr_core::{CkptError, EngineCheckpoint, EngineConfig, JobSource, SimulatorEngine};
use simmr_integration::small_job;
use simmr_sched::{parse_policy, FifoPolicy};
use simmr_trace::{
    decode_trace, encode_trace, scale_template, trace_from_history, BinError, BinTraceSource,
    FacebookWorkload, TraceDatabase,
};
use simmr_types::{parse_history, JobSpec, JobTemplate, SimTime, WorkloadTrace};

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

fn testbed_trace(seed: u64) -> WorkloadTrace {
    let run = run_testbed(
        vec![
            (small_job(simmr_apps::AppKind::WordCount, 18, 6), SimTime::ZERO, None),
            (small_job(simmr_apps::AppKind::Twitter, 10, 4), SimTime::from_secs(10), None),
        ],
        ClusterPolicy::Fifo,
        ClusterConfig::tiny(6),
        seed,
    );
    trace_from_history(&run.history, "round-trip test").unwrap()
}

fn replay(trace: &WorkloadTrace, slots: usize) -> simmr_types::SimulationReport {
    SimulatorEngine::new(EngineConfig::new(slots, slots), trace, Box::new(FifoPolicy::new())).run()
}

#[test]
fn database_round_trip_preserves_replay() {
    let dir = std::env::temp_dir().join(format!("simmr-it-db-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = TraceDatabase::open(&dir).unwrap();
    let trace = testbed_trace(1);
    db.store("roundtrip", &trace).unwrap();
    let loaded = db.load("roundtrip").unwrap();
    assert_eq!(trace, loaded);
    assert_eq!(replay(&trace, 6), replay(&loaded, 6));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn history_text_round_trip() {
    let run = run_testbed(
        vec![(small_job(simmr_apps::AppKind::Sort, 12, 4), SimTime::ZERO, None)],
        ClusterPolicy::Fifo,
        ClusterConfig::tiny(4),
        2,
    );
    let lines = parse_history(&run.history).unwrap();
    let rewritten = simmr_types::write_history(&lines);
    assert_eq!(parse_history(&rewritten).unwrap(), lines);
    // and both texts profile to the same trace
    let a = trace_from_history(&run.history, "x").unwrap();
    let b = trace_from_history(&rewritten, "x").unwrap();
    assert_eq!(a.jobs, b.jobs);
}

#[test]
fn scaled_traces_replay_proportionally() {
    let trace = testbed_trace(3);
    let base = replay(&trace, 6);

    let mut doubled = trace.clone();
    for job in doubled.jobs.iter_mut() {
        job.template = scale_template(&job.template, 2.0);
    }
    let big = replay(&doubled, 6);
    // twice the data: strictly more work, completion grows substantially
    let base_ms = base.jobs.last().unwrap().completion.as_millis() as f64;
    let big_ms = big.jobs.last().unwrap().completion.as_millis() as f64;
    assert!(
        big_ms > 1.4 * base_ms,
        "2x-scaled trace should run much longer: {base_ms} -> {big_ms}"
    );

    // scaling down to a quarter shrinks it
    let mut quartered = trace.clone();
    for job in quartered.jobs.iter_mut() {
        job.template = scale_template(&job.template, 0.25);
    }
    let small = replay(&quartered, 6);
    assert!(small.makespan < base.makespan);
}

#[test]
fn scaling_then_rescaling_is_close_to_identity() {
    let trace = testbed_trace(4);
    let t = &trace.jobs[0].template;
    let back = scale_template(&scale_template(t, 2.0), 0.5);
    assert_eq!(back.num_maps, t.num_maps);
    assert_eq!(back.num_reduces, t.num_reduces);
    // durations survive up to rounding
    for (a, b) in t.reduce_durations.iter().zip(&back.reduce_durations) {
        let diff = a.abs_diff(*b);
        assert!(diff <= 1, "{a} vs {b}");
    }
}

#[test]
fn profiled_trace_serializes_compactly_and_validates() {
    let trace = testbed_trace(5);
    let json = serde_json::to_string(&trace).unwrap();
    let back: WorkloadTrace = serde_json::from_str(&json).unwrap();
    back.validate().unwrap();
    assert_eq!(trace, back);
}

// ---- structured JSON-schema fuzzer ----------------------------------------

/// Boundary durations/instants the fuzzer injects: zero-length tasks,
/// 1 ms tasks, an ordinary value and the saturating extreme.
const BOUNDARY_MS: [u64; 4] = [0, 1, 5_000, u64::MAX];

/// Names stressing JSON string escaping: quotes, backslashes, control
/// characters, multi-byte UTF-8 and the empty string.
const NAMES: [&str; 4] = ["plain-job", "es\"cape\\me\n\t", "uni-é-☃-日本", ""];

/// Builds one fuzzed job from index picks into the boundary tables.
fn fuzz_job(
    maps: usize,
    reduces: usize,
    dur_pick: usize,
    arr_pick: usize,
    name_pick: usize,
) -> JobSpec {
    let d = BOUNDARY_MS[dur_pick];
    let template = JobTemplate::new(
        NAMES[name_pick],
        vec![d; maps],
        if reduces > 0 { vec![d] } else { vec![] },
        if reduces > 0 { vec![d; reduces] } else { vec![] },
        vec![d; reduces],
    )
    .expect("fuzzed template is structurally valid");
    let mut spec = JobSpec::new(template, SimTime::from_millis(BOUNDARY_MS[arr_pick]));
    if arr_pick % 2 == 1 {
        spec = spec.with_deadline(SimTime::from_millis(BOUNDARY_MS[3 - arr_pick]));
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuzzed traces — boundary durations, escape-heavy names, optional
    /// deadlines, empty job lists — survive compact and pretty
    /// serialization round-trips exactly, and still validate.
    #[test]
    fn fuzz_trace_json_round_trip(
        jobs in proptest::collection::vec(
            // (maps, reduces, dur_pick, arr_pick, name_pick)
            (1usize..5, 0usize..3, 0usize..4, 0usize..4, 0usize..4),
            0..8,
        ),
        seed_pick in 0usize..4,
    ) {
        let mut trace = WorkloadTrace::new("fuzzed trace \"with\" escapes", "fuzzer");
        trace.meta.seed = [None, Some(0), Some(1), Some(u64::MAX)][seed_pick];
        for &(maps, reduces, dur_pick, arr_pick, name_pick) in &jobs {
            trace.push(fuzz_job(maps, reduces, dur_pick, arr_pick, name_pick));
        }
        let json = serde_json::to_string(&trace).unwrap();
        let back: WorkloadTrace = serde_json::from_str(&json).unwrap();
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(&back, &trace);
        let pretty = serde_json::to_string_pretty(&trace).unwrap();
        prop_assert_eq!(serde_json::from_str::<WorkloadTrace>(&pretty).unwrap(), trace);
    }

    /// Every proper prefix of a serialized trace is a parse error — never
    /// a panic, never a silent partial success — and so is a document with
    /// trailing garbage.
    #[test]
    fn fuzz_truncated_and_garbage_documents_error(
        jobs in proptest::collection::vec(
            (1usize..3, 0usize..2, 0usize..4, 0usize..4, 0usize..4),
            0..3,
        ),
    ) {
        let mut trace = WorkloadTrace::new("truncation fuzz", "fuzzer");
        for &(maps, reduces, dur_pick, arr_pick, name_pick) in &jobs {
            trace.push(fuzz_job(maps, reduces, dur_pick, arr_pick, name_pick));
        }
        let json = serde_json::to_string(&trace).unwrap();
        for cut in 0..json.len() {
            if !json.is_char_boundary(cut) {
                continue;
            }
            prop_assert!(
                serde_json::from_str::<WorkloadTrace>(&json[..cut]).is_err(),
                "prefix of {cut}/{} bytes parsed successfully", json.len()
            );
        }
        for garbage in ["x", "{}", " null", ",", "]"] {
            prop_assert!(
                serde_json::from_str::<WorkloadTrace>(&format!("{json}{garbage}")).is_err(),
                "trailing {garbage:?} accepted"
            );
        }
    }

    /// JSON → binary → JSON reproduces every job byte-identically. The
    /// binary format canonicalizes job order to (arrival, original index),
    /// so the expectation is the stable arrival sort of the input.
    #[test]
    fn fuzz_trace_binary_round_trip(
        jobs in proptest::collection::vec(
            (1usize..5, 0usize..3, 0usize..4, 0usize..4, 0usize..4),
            0..8,
        ),
        seed_pick in 0usize..4,
    ) {
        let mut trace = WorkloadTrace::new("binary fuzz \"with\" escapes", "fuzzer");
        trace.meta.seed = [None, Some(0), Some(1), Some(u64::MAX)][seed_pick];
        for &(maps, reduces, dur_pick, arr_pick, name_pick) in &jobs {
            trace.push(fuzz_job(maps, reduces, dur_pick, arr_pick, name_pick));
        }
        let mut expected = trace.clone();
        expected.jobs.sort_by_key(|j| j.arrival); // stable: ties keep input order
        let decoded = decode_trace(&encode_trace(&trace).unwrap()).unwrap();
        prop_assert!(decoded.validate().is_ok());
        prop_assert_eq!(decoded.jobs.len(), expected.jobs.len());
        for (d, e) in decoded.jobs.iter().zip(&expected.jobs) {
            prop_assert_eq!(
                serde_json::to_string(d).unwrap(),
                serde_json::to_string(e).unwrap()
            );
        }
        prop_assert_eq!(decoded.meta, expected.meta);
    }

    /// Every proper prefix of a binary trace is a typed error — never a
    /// panic — and so is any single-byte corruption of the
    /// checksum-covered body.
    #[test]
    fn fuzz_binary_corruption_is_a_typed_error(
        jobs in proptest::collection::vec(
            (1usize..3, 0usize..2, 0usize..4, 0usize..4, 0usize..4),
            1..4,
        ),
        flip_pick in 0usize..997,
    ) {
        let mut trace = WorkloadTrace::new("binary corruption fuzz", "fuzzer");
        for &(maps, reduces, dur_pick, arr_pick, name_pick) in &jobs {
            trace.push(fuzz_job(maps, reduces, dur_pick, arr_pick, name_pick));
        }
        let bytes = encode_trace(&trace).unwrap();

        // truncation at every prefix
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_trace(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded successfully", bytes.len()
            );
        }

        // a bit flip in the body (everything past the header is
        // checksummed) is a checksum mismatch
        let body = bytes.len() - 48;
        let at = 48 + flip_pick % body;
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x40;
        prop_assert!(
            matches!(decode_trace(&flipped), Err(BinError::ChecksumMismatch { .. })),
            "flip at {at} not a checksum mismatch"
        );

        // wrong magic and unknown version are their own errors
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        prop_assert!(matches!(decode_trace(&bad_magic), Err(BinError::BadMagic)));
        let mut bad_version = bytes;
        bad_version[8] = 0xEE;
        bad_version[9] = 0xEE;
        prop_assert!(matches!(decode_trace(&bad_version), Err(BinError::BadVersion(_))));
    }
}

// ---- checkpoint codec fuzzer ----------------------------------------------

/// Builds one fuzzed job with finite durations so the engine prefix the
/// checkpoint fuzzer runs always settles. Escape-heavy names still apply.
fn ckpt_fuzz_job(maps: usize, reduces: usize, ms: u64, arrival: u64, name_pick: usize) -> JobSpec {
    let template = JobTemplate::new(
        NAMES[name_pick],
        vec![ms; maps],
        if reduces > 0 { vec![ms / 4 + 1] } else { vec![] },
        if reduces > 0 { vec![ms / 4 + 1; reduces] } else { vec![] },
        vec![ms; reduces],
    )
    .expect("fuzzed template is structurally valid");
    let mut spec = JobSpec::new(template, SimTime::from_millis(arrival));
    if arrival % 2 == 1 {
        spec = spec.with_deadline(SimTime::from_millis(arrival + 4 * ms));
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine checkpoints taken at fuzzed instants over fuzzed traces obey
    /// the same codec contract as binary traces: encode → decode → encode
    /// is the identity; every proper prefix is a typed [`CkptError`], never
    /// a panic; a bit flip in any byte is caught — as [`BadMagic`] in the
    /// magic bytes, as a checksum mismatch anywhere else (the CRC-64
    /// trailer covers version, body and itself). The pending-arrivals
    /// section (the jobs the run had not pulled yet) round-trips too: the
    /// decoded checkpoint accounts for every trace job and resumes to the
    /// uninterrupted run's report.
    ///
    /// [`BadMagic`]: CkptError::BadMagic
    #[test]
    fn fuzz_checkpoint_codec_round_trip_and_corruption(
        jobs in proptest::collection::vec(
            // (maps, reduces, map_ms, arrival_ms, name_pick)
            (1usize..5, 0usize..3, 20u64..500, 0u64..2_000, 0usize..4),
            1..8,
        ),
        at in 0u64..3_000,
        flip_pick in 0usize..997,
    ) {
        let mut trace = WorkloadTrace::new("checkpoint fuzz \"with\" escapes", "fuzzer");
        for &(maps, reduces, ms, arrival, name_pick) in &jobs {
            trace.push(ckpt_fuzz_job(maps, reduces, ms, arrival, name_pick));
        }
        let config = EngineConfig::new(2, 2).with_timeline().with_invariants();
        let ckpt = SimulatorEngine::new(config, &trace, Box::new(FifoPolicy::new()))
            .checkpoint_at(SimTime::from_millis(at))
            .unwrap();
        let bytes = ckpt.encode();

        // encode → decode → encode is the identity on accepted inputs
        let decoded = EngineCheckpoint::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded.encode(), &bytes);

        // the pending arrivals carry the rest of the trace
        prop_assert_eq!(decoded.jobs_admitted() + decoded.pending_arrivals(), trace.len());
        let full = SimulatorEngine::new(config, &trace, Box::new(FifoPolicy::new())).run();
        let resumed =
            SimulatorEngine::resume_materialized(config, &decoded, Box::new(FifoPolicy::new()))
                .unwrap()
                .try_run()
                .unwrap();
        prop_assert_eq!(resumed, full);

        // truncation at every prefix is a typed error, never a panic
        for cut in 0..bytes.len() {
            prop_assert!(
                EngineCheckpoint::decode(&bytes[..cut]).is_err(),
                "prefix of {}/{} bytes decoded successfully", cut, bytes.len()
            );
        }

        // a bit flip in any byte is caught: the magic bytes fail their own
        // check, everything else the CRC-64 trailer
        let bit = 1u8 << (flip_pick % 8);
        for flip_at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[flip_at] ^= bit;
            let err = EngineCheckpoint::decode(&flipped).map(|_| ()).unwrap_err();
            if flip_at < 8 {
                prop_assert_eq!(err, CkptError::BadMagic, "flip at {}", flip_at);
            } else {
                prop_assert!(
                    matches!(err, CkptError::ChecksumMismatch { .. }),
                    "flip at {}: unexpected {:?}", flip_at, err
                );
            }
        }
    }
}

/// The same trace replayed through the materialized JSON path and the
/// streaming binary path produces identical reports — per-job rows,
/// makespan and event count. FIFO replays the full 300-job trace; every
/// policy replays a 40-job prefix (the mix's largest jobs sit past it,
/// which keeps the checker-armed CI run short). Half the jobs carry
/// deadlines so the EDF variants, preemptive ones included, have work to
/// order.
#[test]
fn json_and_binary_replays_are_byte_identical() {
    let workload = FacebookWorkload { mean_interarrival_ms: 30_000.0 };
    let mut trace = workload.generate_pooled(300, 4, 0xD0);
    for (i, job) in trace.jobs.iter_mut().enumerate() {
        if i % 2 == 0 {
            job.deadline = Some(job.arrival + 60_000 + (i as u64 % 7) * 45_000);
        }
    }
    let mut prefix = trace.clone();
    prefix.jobs.truncate(40);

    let dir = std::env::temp_dir().join(format!("simmr-it-binrep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bin_path = dir.join("t.trace.bin");
    for (trace, policies) in [(&trace, &POLICIES[..1]), (&prefix, &POLICIES[..])] {
        std::fs::write(&bin_path, encode_trace(trace).unwrap()).unwrap();
        // materialized: JSON round-trip, then the borrowing constructor
        let json = serde_json::to_string(trace).unwrap();
        let materialized: WorkloadTrace = serde_json::from_str(&json).unwrap();
        for &policy in policies {
            let config = EngineConfig::new(16, 16);
            let report_json =
                SimulatorEngine::new(config, &materialized, parse_policy(policy).unwrap()).run();

            // streaming: pulled from the binary file one arrival at a time
            let source = BinTraceSource::open(&bin_path).unwrap();
            let report_bin = SimulatorEngine::from_source(
                config,
                Box::new(source),
                parse_policy(policy).unwrap(),
            )
            .try_run()
            .unwrap();

            let jobs = trace.len();
            assert_eq!(report_json, report_bin, "{policy} over {jobs} jobs");
            assert_eq!(
                serde_json::to_string(&report_json).unwrap(),
                serde_json::to_string(&report_bin).unwrap(),
                "{policy} over {jobs} jobs"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// 100k-job streaming smoke replay, gated for CI: set
/// `SIMMR_STREAM_SMOKE=1` to run. Generates a pooled binary trace on
/// disk, streams it through the engine in aggregate mode and checks the
/// event volume.
#[test]
fn stream_smoke_100k() {
    if std::env::var("SIMMR_STREAM_SMOKE").map(|v| v == "1") != Ok(true) {
        return;
    }
    let jobs = 100_000;
    let mut workload = FacebookWorkload { mean_interarrival_ms: 20_000.0 }.workload();
    workload.classes.truncate(3); // small-job head of the mix: bounded backlog
    let dir = std::env::temp_dir().join(format!("simmr-it-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("smoke.trace.bin");
    let file = std::fs::File::create(&path).unwrap();
    workload
        .write_bin(jobs, 8, 0xBE, None, std::io::BufWriter::new(file))
        .unwrap()
        .into_inner()
        .unwrap();

    let source = BinTraceSource::open(&path).unwrap();
    assert_eq!(source.job_count(), jobs);
    let report = SimulatorEngine::from_source(
        EngineConfig::new(64, 64).without_job_results(),
        Box::new(source),
        Box::new(FifoPolicy::new()),
    )
    .try_run()
    .unwrap();
    assert!(report.jobs.is_empty(), "aggregate mode collects no per-job rows");
    assert!(
        report.events_processed > jobs as u64 * 2,
        "only {} events for {jobs} jobs",
        report.events_processed
    );
    assert!(report.makespan > SimTime::ZERO);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Duplicate object keys resolve first-wins (the vendored `serde_json`
/// keeps every pair and `Value::get` returns the first match); unknown
/// keys are ignored; a schema-violating field type still errors.
#[test]
fn duplicate_keys_resolve_first_wins() {
    let json = r#"{
        "meta": {"description": "first", "description": "second",
                 "source": "fuzz", "seed": 7, "seed": 8, "unknown": [1, 2]},
        "jobs": [{
            "template": {"name": "dup", "name": "loser",
                         "num_maps": 1, "num_maps": 99,
                         "num_reduces": 0,
                         "map_durations": [5], "map_durations": [1, 2, 3],
                         "first_shuffle_durations": [],
                         "typical_shuffle_durations": [],
                         "reduce_durations": []},
            "arrival": 10, "arrival": 20, "deadline": null
        }]
    }"#;
    let trace: WorkloadTrace = serde_json::from_str(json).unwrap();
    assert_eq!(trace.meta.description, "first");
    assert_eq!(trace.meta.seed, Some(7));
    assert_eq!(&*trace.jobs[0].template.name, "dup");
    assert_eq!(trace.jobs[0].template.num_maps, 1);
    assert_eq!(trace.jobs[0].template.map_durations, vec![5]);
    assert_eq!(trace.jobs[0].arrival, SimTime::from_millis(10));
    trace.validate().unwrap();

    // wrong field type is a hard error, not a default
    let bad = r#"{"meta": {"description": 3, "source": "s", "seed": null}, "jobs": []}"#;
    assert!(serde_json::from_str::<WorkloadTrace>(bad).is_err());
}
