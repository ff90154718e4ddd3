//! End-to-end tests of the serve layer: the scenario facade, the memo
//! cache's byte-identity guarantee, and the live `simmr serve` HTTP
//! server under concurrent clients.

use simmr_serve::{ScenarioSpec, ServeConfig, Server, SimFacade, TraceRef};
use simmr_trace::{digest_trace, TraceDatabase};
use simmr_types::{ClusterSpec, JobSpec, JobTemplate, SimTime, WorkloadTrace};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

fn sample_trace() -> WorkloadTrace {
    let mut t = WorkloadTrace::new("serve test", "integration");
    for (i, (name, arrival)) in
        [("prod-etl", 0u64), ("adhoc-ml", 400), ("prod-serving", 900), ("adhoc-bi", 1_500)]
            .iter()
            .enumerate()
    {
        let maps: Vec<u64> = (0..4).map(|m| 300 + 100 * ((i as u64 + m) % 3)).collect();
        t.push(JobSpec::new(
            JobTemplate::new(*name, maps, vec![250, 150], vec![200], vec![120]).unwrap(),
            SimTime::from_millis(*arrival),
        ));
    }
    t
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simmr-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// A tiny test HTTP client (connection: close, optional dechunking)
// ---------------------------------------------------------------------------

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> Reply {
    let stream = TcpStream::connect(addr).expect("connect to test server");
    let mut writer = stream.try_clone().expect("clone socket");
    write!(
        writer,
        "{method} {target} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("read status line");
    let status: u16 =
        status_line.split_whitespace().nth(1).expect("status code").parse().expect("numeric");
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').expect("header colon");
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let chunked = headers.iter().any(|(n, v)| n == "transfer-encoding" && v.contains("chunked"));
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw).expect("read body");
    let body = if chunked { dechunk(&raw) } else { String::from_utf8(raw).expect("utf8 body") };
    Reply { status, headers, body }
}

/// Reassembles a chunked body (the test client reads to EOF first).
fn dechunk(mut raw: &[u8]) -> String {
    let mut out = Vec::new();
    loop {
        let line_end = raw.windows(2).position(|w| w == b"\r\n").expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&raw[..line_end]).expect("chunk size utf8"),
            16,
        )
        .expect("chunk size hex");
        raw = &raw[line_end + 2..];
        if size == 0 {
            break;
        }
        out.extend_from_slice(&raw[..size]);
        raw = &raw[size + 2..]; // skip chunk trailer CRLF
    }
    String::from_utf8(out).expect("utf8 chunked body")
}

/// Binds a server on an ephemeral port with the given trace database and
/// runs it on a background thread. Returns the address and the join
/// handle (joined after `/v1/shutdown` to assert a clean exit).
fn start_server(
    db_dir: &std::path::Path,
) -> (SocketAddr, std::thread::JoinHandle<Result<(), String>>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        db_dir: Some(db_dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("bind test server");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn run_body(policy: &str, seed: u64) -> String {
    format!(
        r#"{{"trace": "workload", "policy": "{policy}", "seed": {seed}, "deadline_factor": 2.0}}"#
    )
}

// ---------------------------------------------------------------------------
// Facade-level guarantees
// ---------------------------------------------------------------------------

#[test]
fn facade_matches_direct_engine_run() {
    use simmr_core::{EngineConfig, SimulatorEngine};
    let trace = sample_trace();
    let direct = SimulatorEngine::new(
        EngineConfig::new(8, 4),
        &trace,
        simmr_sched::parse_policy("maxedf").unwrap(),
    )
    .run();
    let mut spec = ScenarioSpec::new(TraceRef::Inline(trace), "maxedf".parse().unwrap());
    spec.cluster = ClusterSpec::new(8, 4);
    let run = SimFacade::new().run(&spec).expect("facade run");
    assert_eq!(run.report, direct);
    assert_eq!(
        serde_json::to_string(&run.report).unwrap(),
        serde_json::to_string(&direct).unwrap()
    );
}

#[test]
fn canonical_keys_agree_across_trace_ref_spellings() {
    let dir = tmpdir("keys");
    let db = TraceDatabase::open(&dir).unwrap();
    db.store("workload", &sample_trace()).unwrap();
    let facade = SimFacade::with_db(&dir).unwrap();
    let by_name = facade
        .resolve(&ScenarioSpec::new(TraceRef::Name("workload".into()), "fair".parse().unwrap()));
    let by_digest = facade.resolve(&ScenarioSpec::new(
        TraceRef::Digest(digest_trace(&sample_trace()).unwrap()),
        "fair".parse().unwrap(),
    ));
    let inline = facade
        .resolve(&ScenarioSpec::new(TraceRef::Inline(sample_trace()), "fair".parse().unwrap()));
    let key = by_name.expect("name resolves").key;
    assert_eq!(by_digest.expect("digest resolves").key, key);
    assert_eq!(inline.expect("inline resolves").key, key);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Live-server tests
// ---------------------------------------------------------------------------

#[test]
fn serve_caches_byte_identically_and_shuts_down_cleanly() {
    let dir = tmpdir("cache");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server(&dir);

    let health = http(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""));

    // the trace listing carries the content digest used in cache keys
    let listing = http(addr, "GET", "/v1/traces", "");
    assert_eq!(listing.status, 200);
    let digest = digest_trace(&sample_trace()).unwrap().to_string();
    assert!(listing.body.contains(&digest), "listing {} lacks digest", listing.body);

    // same scenario twice: first computes, second hits the cache with the
    // exact same bytes
    let first = http(addr, "POST", "/v1/run", &run_body("maxedf", 7));
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(first.header("x-simmr-cache"), Some("miss"));
    let second = http(addr, "POST", "/v1/run", &run_body("maxedf", 7));
    assert_eq!(second.header("x-simmr-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cached response must be byte-identical");
    assert_eq!(first.header("x-simmr-digest"), Some(digest.as_str()));

    // normalization: a differently-spelled equivalent spec is the same entry
    let canonical = http(
        addr,
        "POST",
        "/v1/run",
        r#"{"trace": "workload", "policy": "capacity:adhoc=1,prod=3", "seed": 3}"#,
    );
    assert_eq!(canonical.header("x-simmr-cache"), Some("miss"));
    let reordered = http(
        addr,
        "POST",
        "/v1/run",
        r#"{"trace": {"name": "workload"}, "policy": "capacity:prod=3,adhoc=1", "seed": 3}"#,
    );
    assert_eq!(reordered.header("x-simmr-cache"), Some("hit"));
    assert_eq!(canonical.body, reordered.body);

    // bad requests fail without disturbing the server
    assert_eq!(http(addr, "POST", "/v1/run", "{not json").status, 400);
    assert_eq!(http(addr, "POST", "/v1/run", r#"{"trace": "nope", "policy": "fifo"}"#).status, 404);
    assert_eq!(http(addr, "GET", "/v1/run", "").status, 405);
    assert_eq!(http(addr, "GET", "/nowhere", "").status, 404);

    let bye = http(addr, "POST", "/v1/shutdown", "");
    assert_eq!(bye.status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The trace memo's `(hits, misses)` from `/healthz`.
fn trace_memo(addr: SocketAddr) -> (u64, u64) {
    let health = http(addr, "GET", "/healthz", "");
    let v: serde_json::Value = serde_json::from_str(&health.body).expect("healthz is JSON");
    let count = |field: &str| match v.get("traces").and_then(|t| t.get(field)) {
        Some(serde_json::Value::U64(n)) => *n,
        other => panic!("healthz traces.{field} is {other:?}: {}", health.body),
    };
    (count("hits"), count("misses"))
}

#[test]
fn trace_memo_never_serves_an_overwritten_trace() {
    let dir = tmpdir("restore");
    let db = TraceDatabase::open(&dir).unwrap();
    db.store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server(&dir);
    let body = run_body("maxedf", 7);

    let first = http(addr, "POST", "/v1/run", &body);
    assert_eq!(first.header("x-simmr-cache"), Some("miss"));
    let (hits, misses) = trace_memo(addr);
    let again = http(addr, "POST", "/v1/run", &body);
    assert_eq!(again.header("x-simmr-cache"), Some("hit"));
    assert_eq!(again.body, first.body);
    assert_eq!(trace_memo(addr), (hits + 1, misses), "the repeat reused the trace load");

    // another trace under the same name, of the very same byte length
    let mut other = sample_trace();
    other.jobs[1].arrival = SimTime::from_millis(500);
    let path = db.path("workload").unwrap();
    let old_len = std::fs::metadata(&path).unwrap().len();
    db.store("workload", &other).unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().len(), old_len);

    let fresh = http(addr, "POST", "/v1/run", &body);
    assert_eq!(fresh.status, 200, "body: {}", fresh.body);
    assert_eq!(fresh.header("x-simmr-cache"), Some("miss"));
    let digest = digest_trace(&other).unwrap().to_string();
    assert_ne!(first.header("x-simmr-digest"), Some(digest.as_str()));
    assert_eq!(fresh.header("x-simmr-digest"), Some(digest.as_str()));
    assert_eq!(trace_memo(addr), (hits + 1, misses + 1), "the stale load counts as a miss");
    let spec: ScenarioSpec = serde_json::from_str(&body).unwrap();
    let direct = SimFacade::with_db(&dir).unwrap().run(&spec).expect("facade run");
    assert_eq!(fresh.body, serde_json::to_string(&direct.report).unwrap());

    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_sweep_batches_and_streams() {
    let dir = tmpdir("sweep");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server(&dir);

    let sweep_body = r#"{"base": {"trace": "workload", "policy": "fifo", "deadline_factor": 1.5},
                         "policies": ["fifo", "maxedf", "minedf"], "seeds": [1, 2]}"#;
    let swept = http(addr, "POST", "/v1/sweep", sweep_body);
    assert_eq!(swept.status, 200, "body: {}", swept.body);
    assert_eq!(swept.header("x-simmr-sweep-count"), Some("6"));
    assert!(swept.body.starts_with('[') && swept.body.ends_with(']'));
    assert_eq!(swept.body.matches("\"cached\":false").count(), 6);

    // the same sweep streamed: every scenario is now cached, and NDJSON
    // lines carry the same reports the buffered form embedded
    let streamed = http(addr, "POST", "/v1/sweep?stream=1", sweep_body);
    assert_eq!(streamed.status, 200);
    let lines: Vec<&str> = streamed.body.lines().collect();
    assert_eq!(lines.len(), 6);
    for line in &lines {
        assert!(line.contains("\"cached\":true"), "expected cache hit: {line}");
        assert!(line.contains("\"report\":{"), "expected embedded report: {line}");
    }

    // a sweep scenario and a single run share the cache
    let single = http(
        addr,
        "POST",
        "/v1/run",
        r#"{"trace": "workload", "policy": "maxedf", "seed": 2, "deadline_factor": 1.5}"#,
    );
    assert_eq!(single.header("x-simmr-cache"), Some("hit"));

    let bad = http(addr, "POST", "/v1/sweep", r#"{"policies": ["fifo"]}"#);
    assert_eq!(bad.status, 400);

    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_fork_requests_share_prefix_checkpoints() {
    let dir = tmpdir("fork");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server(&dir);

    // a contended cluster so divergences genuinely change the schedule
    let fork_run = |divergence: &str| {
        format!(
            r#"{{"trace": "workload", "policy": "fifo",
                 "cluster": {{"map_slots": 2, "reduce_slots": 1, "hosts": 2}},
                 "fork_at": 900, "divergences": [{divergence}]}}"#
        )
    };

    // first forked run computes and memoizes the prefix checkpoint
    let first = http(addr, "POST", "/v1/run", &fork_run(r#"{"policy": "maxedf"}"#));
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(first.header("x-simmr-cache"), Some("miss"));
    assert_eq!(first.header("x-simmr-ckpt"), Some("miss"));

    // identical request: the whole report is memoized, no engine run at all
    let again = http(addr, "POST", "/v1/run", &fork_run(r#"{"policy": "maxedf"}"#));
    assert_eq!(again.header("x-simmr-cache"), Some("hit"));
    assert_eq!(again.header("x-simmr-ckpt"), None, "report hits never touch the engine");
    assert_eq!(first.body, again.body);

    // a different divergence off the same prefix warm-starts from the memo
    let sibling =
        http(addr, "POST", "/v1/run", &fork_run(r#"{"add_slots": {"maps": 6, "reduces": 3}}"#));
    assert_eq!(sibling.status, 200, "body: {}", sibling.body);
    assert_eq!(sibling.header("x-simmr-cache"), Some("miss"));
    assert_eq!(sibling.header("x-simmr-ckpt"), Some("hit"));
    assert_ne!(sibling.body, first.body, "the divergences genuinely differ");

    // a sweep over fork variants runs the shared prefix zero extra times
    // (it is already resident from the /v1/run above)
    let sweep = format!(
        r#"{{"scenarios": [{}, {}, {}]}}"#,
        fork_run(r#"{"fault": {"host": 1, "at": 1200}}"#),
        fork_run(r#"{"add_slots": {"maps": 1}}"#),
        fork_run(r#"{"policy": "fair"}"#)
    );
    let swept = http(addr, "POST", "/v1/sweep", &sweep);
    assert_eq!(swept.status, 200, "body: {}", swept.body);
    assert_eq!(swept.header("x-simmr-sweep-count"), Some("3"));
    assert_eq!(swept.body.matches("\"cached\":false").count(), 3);

    // the checkpoint memo holds exactly one prefix, computed exactly once
    let health = http(addr, "GET", "/healthz", "");
    let ckpt_stats = health.body.split("\"checkpoints\":").nth(1).expect("checkpoints stats");
    assert!(ckpt_stats.starts_with("{\"entries\":1,"), "one shared prefix: {ckpt_stats}");
    assert!(ckpt_stats.contains("\"misses\":1"), "prefix computed once: {ckpt_stats}");

    // fork spec mistakes are 400s, not engine panics
    let no_instant = http(
        addr,
        "POST",
        "/v1/run",
        r#"{"trace": "workload", "policy": "fifo", "divergences": [{"policy": "fair"}]}"#,
    );
    assert_eq!(no_instant.status, 400, "divergences need fork_at");
    let lone_host = http(
        addr,
        "POST",
        "/v1/run",
        r#"{"trace": "workload", "policy": "fifo", "fork_at": 900,
            "divergences": [{"fault": {"host": 1}}]}"#,
    );
    assert_eq!(lone_host.status, 400, "the default cluster has no failable host");

    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_survives_concurrent_clients() {
    let dir = tmpdir("concurrent");
    TraceDatabase::open(&dir).unwrap().store("workload", &sample_trace()).unwrap();
    let (addr, handle) = start_server(&dir);

    // 8 clients × 4 requests, all for the same 2 scenarios: every response
    // for a scenario must be byte-identical regardless of which client
    // computed it first
    let bodies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|client| {
                scope.spawn(move || {
                    (0..4)
                        .map(|i| {
                            let reply = http(
                                addr,
                                "POST",
                                "/v1/run",
                                &run_body(if (client + i) % 2 == 0 { "fifo" } else { "maxedf" }, 5),
                            );
                            assert_eq!(reply.status, 200, "body: {}", reply.body);
                            format!(
                                "{}|{}",
                                if (client + i) % 2 == 0 { "fifo" } else { "maxedf" },
                                reply.body
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut fifo: Vec<&String> = Vec::new();
    let mut maxedf: Vec<&String> = Vec::new();
    for body in bodies.iter().flatten() {
        if body.starts_with("fifo|") {
            fifo.push(body)
        } else {
            maxedf.push(body)
        }
    }
    assert_eq!(fifo.len() + maxedf.len(), 32);
    assert!(fifo.windows(2).all(|w| w[0] == w[1]), "fifo responses diverged");
    assert!(maxedf.windows(2).all(|w| w[0] == w[1]), "maxedf responses diverged");
    assert_ne!(fifo[0], maxedf[0]);

    assert_eq!(http(addr, "POST", "/v1/shutdown", "").status, 200);
    handle.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
