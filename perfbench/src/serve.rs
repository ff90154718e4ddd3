//! `serve_whatif`: in-process `simmr serve` instances with two workers
//! each (see [`Live`]), driven by a closed loop of two client threads
//! over a stored JSON trace.
//!
//! Each client repeats one pass of three requests, one per class: a
//! `hit` (a `/v1/run` repeat of the hot set warmed in set-up), a `miss`
//! (`/v1/run` with a fresh seed and deadline factor) and a `sweep`
//! (`/v1/sweep` of ten fresh fork variants sharing the warmed `fork_at`
//! prefix: report-cache misses, checkpoint-memo hits). The classes have
//! equal shares: nothing records how often real clients send each.
//! Every response is classified by its `x-simmr-cache` header or the
//! sweep entries' `cached` fields, and the `/healthz` counters are
//! cross-checked against the classes sent.

use crate::inputs::{self, SLOTS};
use crate::metrics::{end_to_end, med_secs, median, quantile, timed, Outcome};
use crate::timed::{clock_ns, ratio, HookStats, TimedPolicy};
use crate::Run;
use simmr_core::{Divergence, EngineCheckpoint, EngineConfig, ForkSpec, SimulatorEngine};
use simmr_serve::{
    attach_deadlines, CkptCache, DivergenceSpec, ReportCache, ScenarioSpec, ServeConfig, Server,
    SimFacade, TraceRef,
};
use simmr_stats::parallel_sweep;
use simmr_trace::{digest_trace, TraceDatabase};
use simmr_types::{ClusterSpec, HostId, SimTime};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TRACE_NAME: &str = "fb100";
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const SWEEP_WIDTH: u64 = 10;
/// Hosts the slots stripe over; fork variants fail one of hosts 1-3.
const HOSTS: usize = 4;

/// A request class, named as in the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Sweep,
}

const CLASSES: [(Class, &str); 3] =
    [(Class::Hit, "hit"), (Class::Miss, "miss"), (Class::Sweep, "sweep")];

/// One client pass: one request of each class.
const PASS: [Class; 3] = [Class::Hit, Class::Miss, Class::Sweep];

/// A scenario over the stored trace on the benchmark's cluster.
fn scenario(policy: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        TraceRef::Name(TRACE_NAME.into()),
        policy.parse().expect("benchmark policy specs parse"),
    );
    spec.cluster = ClusterSpec::new(SLOTS, SLOTS).with_hosts(HOSTS);
    spec
}

/// The engine configuration of [`scenario`] (no failure or slowdown knobs).
fn engine_config() -> EngineConfig {
    EngineConfig::new(SLOTS, SLOTS).with_cluster(ClusterSpec::new(SLOTS, SLOTS).with_hosts(HOSTS))
}

/// The hot set: warmed in set-up, then only ever hits. The first entry is
/// also the prefix every sweep variant forks from.
fn hot_set() -> Vec<ScenarioSpec> {
    let mut fair = scenario("fair");
    fair.seed = 2;
    let mut maxedf = scenario("maxedf");
    maxedf.deadline_factor = Some(2.0);
    let mut minedf = scenario("minedf-p");
    minedf.deadline_factor = Some(2.0);
    vec![scenario("fifo"), fair, maxedf, minedf]
}

/// The `n`-th cold `/v1/run`: a seed and deadline factor never asked before.
fn miss_spec(n: u64) -> ScenarioSpec {
    let mut spec = scenario("maxedf");
    spec.seed = 1_000 + n;
    spec.deadline_factor = Some(1.5 + (n % 8) as f64 * 0.25);
    spec
}

/// Fork variant `v` of the hot prefix: grow the pools a little and fail
/// one host shortly after the fork instant. `v` makes the key unique and
/// keeps each variant's cost about the same.
fn variant(fork_at: u64, v: u64) -> (ScenarioSpec, ForkSpec) {
    let (maps, reduces) = (1 + (v % 4) as usize, (v % 3) as usize);
    let (host, at) = (1 + (v % 3) as u32, fork_at + 1_000 + v);
    let mut spec = scenario("fifo");
    spec.fork_at = Some(fork_at);
    spec.divergences = vec![
        DivergenceSpec::AddSlots { map_slots: maps, reduce_slots: reduces },
        DivergenceSpec::Fault { host, at_ms: at },
    ];
    let fork = ForkSpec::new(
        SimTime::from_millis(fork_at),
        vec![
            Divergence::AddSlots { map_slots: maps, reduce_slots: reduces },
            Divergence::InjectFault { host: HostId(host), at: SimTime::from_millis(at) },
        ],
    );
    (spec, fork)
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("benchmark requests serialize")
}

fn sweep_body(fork_at: u64, first: u64) -> (Vec<ScenarioSpec>, String) {
    let specs: Vec<ScenarioSpec> =
        (first..first + SWEEP_WIDTH).map(|v| variant(fork_at, v).0).collect();
    let body =
        format!("{{\"scenarios\":[{}]}}", specs.iter().map(json).collect::<Vec<_>>().join(","));
    (specs, body)
}

/// One HTTP response.
struct Reply {
    status: u16,
    cache: Option<String>,
    body: String,
}

/// One request on a fresh connection (the server closes each one).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_read_timeout(Some(Duration::from_secs(120))).map_err(io)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let text =
        String::from_utf8(raw).map_err(|_| format!("{method} {path}: reply is not UTF-8"))?;
    let (head, body) =
        text.split_once("\r\n\r\n").ok_or_else(|| format!("{method} {path}: truncated reply"))?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    let cache = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("x-simmr-cache"))
        .map(|(_, v)| v.trim().to_owned());
    Ok(Reply { status, cache, body: body.to_owned() })
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Result<Reply, String> {
    request(addr, "POST", path, body)
}

/// `(report hits, report misses, checkpoint hits, checkpoint misses)`
/// from `/healthz`.
fn counters(addr: SocketAddr) -> Result<[u64; 4], String> {
    let reply = request(addr, "GET", "/healthz", "")?;
    let v: serde::Value = serde_json::from_str(&reply.body).map_err(|e| e.to_string())?;
    let get = |cache: &str, field: &str| match v.get(cache).and_then(|c| c.get(field)) {
        Some(serde::Value::U64(n)) => Ok(*n),
        _ => Err(format!("/healthz lacks {cache}.{field}")),
    };
    Ok([
        get("cache", "hits")?,
        get("cache", "misses")?,
        get("checkpoints", "hits")?,
        get("checkpoints", "misses")?,
    ])
}

/// One running server.
struct Srv {
    addr: SocketAddr,
    handle: JoinHandle<Result<(), String>>,
}

impl Srv {
    /// Binds a server over the trace database at `db_dir` whose report
    /// cache keeps at most `cache_shard_cap` reports per shard.
    fn bind(db_dir: &Path, cache_shard_cap: usize) -> Result<Srv, String> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            db_dir: Some(db_dir.to_string_lossy().into_owned()),
            cache_shard_cap,
            ..ServeConfig::default()
        })?;
        let addr = server.local_addr();
        Ok(Srv { addr, handle: std::thread::spawn(move || server.run()) })
    }

    fn stop(self) -> Result<(), String> {
        let sent = post(self.addr, "/v1/shutdown", "");
        let joined = self.handle.join().map_err(|_| "server thread panicked".to_string())?;
        sent.and(joined)
    }
}

/// The two running servers. `hot` answers the hits and never computes
/// during the window; `cold` answers misses and sweeps and keeps at most
/// [`COLD_SHARD_CAP`] reports per shard. Every window key is fresh, so
/// one shared cache would grow with the number of requests served: a
/// faster server would then use more memory in the same window, and
/// evictions would turn intended hits into misses.
struct Live {
    hot: Srv,
    cold: Srv,
    /// Hot-set request bodies and the report bodies they must return.
    hot_set: Vec<(String, String)>,
    fork_at: u64,
}

/// Reports each shard of the cold server's cache keeps.
const COLD_SHARD_CAP: usize = 4;

impl Live {
    fn stop(self) -> Result<(), String> {
        let hot = self.hot.stop();
        self.cold.stop().and(hot)
    }
}

/// Stores the trace, starts both servers and warms the hot set and the
/// sweep prefix checkpoint.
fn start(db_dir: &Path, seed: u64) -> Result<Live, String> {
    let db = TraceDatabase::open(db_dir).map_err(|e| e.to_string())?;
    db.store(TRACE_NAME, &inputs::serve_trace(seed)).map_err(|e| e.to_string())?;
    let hot = Srv::bind(db_dir, ServeConfig::default().cache_shard_cap)?;
    let cold = match Srv::bind(db_dir, COLD_SHARD_CAP) {
        Ok(cold) => cold,
        Err(e) => {
            let _ = hot.stop();
            return Err(e);
        }
    };
    let mut live = Live { hot, cold, hot_set: Vec::new(), fork_at: 0 };
    match warm(&mut live) {
        Ok(()) => Ok(live),
        Err(e) => {
            let _ = live.stop();
            Err(e)
        }
    }
}

fn warm(live: &mut Live) -> Result<(), String> {
    let ok = |reply: Reply| match reply.status {
        200 => Ok(reply.body),
        status => Err(format!("warming: HTTP {status}: {}", reply.body)),
    };
    for spec in hot_set() {
        let body = json(&spec);
        let report = ok(post(live.hot.addr, "/v1/run", &body)?)?;
        live.hot_set.push((body, report));
    }
    let report: serde::Value =
        serde_json::from_str(&live.hot_set[0].1).map_err(|e| e.to_string())?;
    let Some(serde::Value::U64(makespan)) = report.get("makespan") else {
        return Err("hot report lacks a makespan".into());
    };
    live.fork_at = makespan / 2;
    ok(post(live.cold.addr, "/v1/run", &json(&variant(live.fork_at, 0).0))?).map(drop)
}

/// One request's outcome.
struct Sample {
    /// The class sent.
    class: Class,
    /// The class the reply showed, if it showed one.
    seen: Option<Class>,
    secs: f64,
    ok: bool,
}

/// Responses kept for checking against in-process runs after the window.
#[derive(Default)]
struct Kept {
    misses: Vec<(ScenarioSpec, String)>,
    sweeps: Vec<(Vec<ScenarioSpec>, String)>,
}

/// Fresh-key counters shared by the clients.
struct Fresh {
    miss: AtomicU64,
    variant: AtomicU64,
}

/// The class a successful reply showed: a `/v1/run` by its
/// `x-simmr-cache` header; a `/v1/sweep` by its entries' `cached` fields,
/// a `sweep` when all `SWEEP_WIDTH` were computed and none failed, a
/// `hit` when all came from the report cache. The entries are counted in
/// the text: parsing 170 KB with the vendored JSON parser takes longer
/// than the request, and would load the CPU the servers run on. The full
/// bodies are checked after the window ([`verify`]).
fn shown_class(path: &str, reply: &Reply) -> Option<Class> {
    if reply.status != 200 {
        return None;
    }
    if path == "/v1/run" {
        return match reply.cache.as_deref() {
            Some("hit") => Some(Class::Hit),
            Some("miss") => Some(Class::Miss),
            _ => None,
        };
    }
    let body = &reply.body;
    if !body.starts_with('[') || body.contains("\"error\":") {
        return None;
    }
    let count = |cached: &str| body.matches(cached).count() as u64;
    match (count("\"cached\":false,"), count("\"cached\":true,")) {
        (SWEEP_WIDTH, 0) => Some(Class::Sweep),
        (0, SWEEP_WIDTH) => Some(Class::Hit),
        _ => None,
    }
}

/// One closed-loop client: passes until `deadline` (at least one), each
/// request sent after the previous reply.
fn client(
    live: &Live,
    id: usize,
    fresh: &Fresh,
    deadline: Instant,
    kept: &Mutex<Kept>,
) -> (Vec<Sample>, Vec<f64>) {
    let (mut samples, mut passes) = (Vec::new(), Vec::new());
    let mut hot_next = id;
    loop {
        let pass_start = Instant::now();
        for class in PASS {
            // each sample times the request alone; checks run after it
            let (seen, ok, secs) = match class {
                Class::Hit => {
                    let (req, want) = &live.hot_set[hot_next % live.hot_set.len()];
                    hot_next += 1;
                    let (reply, secs) = timed(|| post(live.hot.addr, "/v1/run", req));
                    let reply = reply.ok();
                    let seen = reply.as_ref().and_then(|r| shown_class("/v1/run", r));
                    let ok = seen == Some(class) && reply.is_some_and(|r| r.body == *want);
                    (seen, ok, secs)
                }
                Class::Miss => {
                    let spec = miss_spec(fresh.miss.fetch_add(1, Ordering::Relaxed));
                    let body = json(&spec);
                    let (reply, secs) = timed(|| post(live.cold.addr, "/v1/run", &body));
                    let reply = reply.ok();
                    let seen = reply.as_ref().and_then(|r| shown_class("/v1/run", r));
                    let mut k = kept.lock().expect("kept replies lock");
                    if let Some(r) = reply.filter(|_| seen == Some(class) && k.misses.len() < 4) {
                        k.misses.push((spec, r.body));
                    }
                    (seen, seen == Some(class), secs)
                }
                Class::Sweep => {
                    let first = fresh.variant.fetch_add(SWEEP_WIDTH, Ordering::Relaxed);
                    let (specs, body) = sweep_body(live.fork_at, first);
                    let (reply, secs) = timed(|| post(live.cold.addr, "/v1/sweep", &body));
                    let reply = reply.ok();
                    let seen = reply.as_ref().and_then(|r| shown_class("/v1/sweep", r));
                    let mut k = kept.lock().expect("kept replies lock");
                    if let Some(r) = reply.filter(|_| seen == Some(class) && k.sweeps.is_empty()) {
                        k.sweeps.push((specs, r.body));
                    }
                    (seen, seen == Some(class), secs)
                }
            };
            samples.push(Sample { class, seen, secs, ok });
        }
        passes.push(pass_start.elapsed().as_secs_f64());
        if Instant::now() >= deadline {
            return (samples, passes);
        }
    }
}

/// What one traffic window measured.
struct Window {
    samples: Vec<Sample>,
    passes: Vec<f64>,
    wall_s: f64,
    /// `/healthz` counter deltas over the window: hot server, cold server.
    counters: [[u64; 4]; 2],
}

/// The `/healthz` counters, in [`counters`] order.
const COUNTERS: [&str; 4] =
    ["report hits", "report misses", "checkpoint hits", "checkpoint misses"];

fn traffic(
    live: &Live,
    fresh: &Fresh,
    (clients, secs): (usize, f64),
    kept: &Mutex<Kept>,
) -> Result<Window, String> {
    let before = [counters(live.hot.addr)?, counters(live.cold.addr)?];
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let logs: Vec<(Vec<Sample>, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| s.spawn(move || client(live, id, fresh, deadline, kept)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = [counters(live.hot.addr)?, counters(live.cold.addr)?];
    let (mut samples, mut passes) = (Vec::new(), Vec::new());
    for (s, p) in logs {
        samples.extend(s);
        passes.extend(p);
    }
    let counters =
        std::array::from_fn(|srv| std::array::from_fn(|i| after[srv][i] - before[srv][i]));
    Ok(Window { samples, passes, wall_s, counters })
}

/// The `/healthz` deltas the classes sent imply, per server: one
/// report-cache lookup per `/v1/run`, `SWEEP_WIDTH` per sweep (all
/// misses), and per sweep one prefix lookup plus one per variant in the
/// checkpoint memo (all hits).
fn expected_counters(samples: &[Sample]) -> [[u64; 4]; 2] {
    let count = |c: Class| samples.iter().filter(|s| s.class == c).count() as u64;
    let (hits, misses, sweeps) = (count(Class::Hit), count(Class::Miss), count(Class::Sweep));
    [[hits, 0, 0, 0], [0, misses + SWEEP_WIDTH * sweeps, (SWEEP_WIDTH + 1) * sweeps, 0]]
}

/// Re-runs kept requests in process and compares the served bodies.
fn verify(facade: &SimFacade, kept: &Kept, out: &mut Outcome) {
    let report_json = |spec: &ScenarioSpec| {
        facade.run(spec).map(|run| json(&run.report)).map_err(|e| e.to_string())
    };
    for (spec, served) in &kept.misses {
        out.check(report_json(spec).is_ok_and(|b| b == *served));
    }
    for (specs, served) in &kept.sweeps {
        let Ok(serde::Value::Array(entries)) = serde_json::from_str::<serde::Value>(served) else {
            out.check(false);
            continue;
        };
        for (spec, entry) in specs.iter().zip(&entries) {
            let served = entry.get("report").map(json);
            out.check(report_json(spec).is_ok_and(|b| Some(b) == served));
        }
    }
}

/// In-process layer probes over the same stored trace and specs.
fn probes(
    db_dir: &Path,
    fork_at: u64,
    fresh: &Fresh,
    p50: &dyn Fn(Class) -> f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let facade = SimFacade::with_db(db_dir).map_err(|e| e.to_string())?;
    let db = facade.db().expect("facade has a database");
    let trace = db.load(TRACE_NAME).map_err(|e| e.to_string())?;
    let path = db.path(TRACE_NAME).map_err(|e| e.to_string())?;
    out.set("trace.json.bytes", std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64);
    out.set("trace.json.load_s", med_secs(3, || db.load(TRACE_NAME)));
    out.set("trace.digest_s", med_secs(5, || digest_trace(&trace)));

    let hot = &hot_set()[0];
    let hot_body = json(hot);
    let resolved = facade.resolve(hot).map_err(|e| e.to_string())?;
    out.set("serve.parse_s", med_secs(5, || serde_json::from_str::<ScenarioSpec>(&hot_body)));
    out.set("serve.resolve_s", med_secs(3, || facade.resolve(hot)));
    out.set(
        "serve.stamp_s",
        med_secs(3, || attach_deadlines(&mut trace.clone(), 2.0, SLOTS, SLOTS, 1)),
    );
    let defaults = ServeConfig::default();
    let cache = ReportCache::new(defaults.cache_shards, defaults.cache_shard_cap);
    cache.insert(resolved.key.clone(), json(&resolved.run().report).into());
    const GETS: u32 = 10_000;
    let (_, secs) = timed(|| (0..GETS).filter(|_| cache.get(&resolved.key).is_some()).count());
    out.set("serve.cache_get_s", secs / f64::from(GETS));

    // the three request classes handled in process, as the server does
    let hit_s = med_secs(3, || {
        let spec: ScenarioSpec = serde_json::from_str(&hot_body).expect("hot spec parses");
        let r = facade.resolve(&spec).expect("hot spec resolves");
        cache.get(&r.key)
    });
    let ckpts = CkptCache::new(defaults.cache_shards, defaults.cache_shard_cap);
    let miss_s = med_secs(3, || {
        let spec = miss_spec(fresh.miss.fetch_add(1, Ordering::Relaxed));
        let spec: ScenarioSpec = serde_json::from_str(&json(&spec)).expect("miss spec parses");
        json(&facade.resolve(&spec).expect("miss spec resolves").run_warm(&ckpts).report)
    });
    let sweep_s = med_secs(3, || {
        let (specs, _) =
            sweep_body(fork_at, fresh.variant.fetch_add(SWEEP_WIDTH, Ordering::Relaxed));
        let resolved: Vec<_> = facade.resolve_many(&specs).into_iter().flatten().collect();
        resolved[0].ensure_ckpt(&ckpts);
        parallel_sweep(resolved.len(), |i| json(&resolved[i].run_warm(&ckpts).report))
    });
    for ((class, label), inproc) in CLASSES.iter().zip([hit_s, miss_s, sweep_s]) {
        out.set(format!("serve.http_s.{label}"), (p50(*class) - inproc).max(0.0));
    }

    // the checkpoint layer on the warmed sweep variant
    let stamped = &resolved.trace;
    let policy = || hot.policy.build();
    let capture = || {
        SimulatorEngine::new(engine_config(), stamped, policy())
            .checkpoint_at(SimTime::from_millis(fork_at))
            .expect("materialized engines cannot fail")
    };
    let ckpt = capture();
    let bytes = ckpt.encode();
    out.set("ckpt.capture_s", med_secs(3, capture));
    out.set("ckpt.encode_s", med_secs(5, || ckpt.encode()));
    out.set("ckpt.bytes", bytes.len() as f64);
    out.set("ckpt.decode_s", med_secs(5, || EngineCheckpoint::decode(&bytes)));
    let resume = || {
        SimulatorEngine::resume_materialized(engine_config(), &ckpt, policy())
            .expect("checkpoint resumes")
    };
    out.set("ckpt.resume_s", med_secs(5, resume));
    let mut suffix = Vec::new();
    for _ in 0..3 {
        let mut engine = resume();
        let (_, fork) = variant(fork_at, 0);
        let (report, secs) = timed(|| {
            engine.apply_fork(fork).map_err(|e| e.to_string())?;
            engine.try_run().map_err(|e| e.to_string())
        });
        report?;
        suffix.push(secs);
    }
    out.set("ckpt.suffix_s", median(&suffix));

    // engine, policy and report layers on one miss scenario
    let miss = miss_spec(fresh.miss.fetch_add(1, Ordering::Relaxed));
    let stamped = facade.resolve(&miss).map_err(|e| e.to_string())?.trace;
    let run = |p: &str| {
        SimulatorEngine::new(
            engine_config(),
            &stamped,
            simmr_sched::parse_policy(p).expect("policy"),
        )
        .run()
    };
    let clock = clock_ns();
    let mut runs = Vec::new();
    let mut busy = Vec::new();
    let mut report = None;
    for _ in 0..3 {
        runs.push(timed(|| run("maxedf")).1);
        let hooks = Rc::new(HookStats::default());
        let policy =
            TimedPolicy::new(simmr_sched::parse_policy("maxedf").expect("policy"), hooks.clone());
        report = Some(SimulatorEngine::new(engine_config(), &stamped, Box::new(policy)).run());
        busy.push(hooks.busy_s(clock));
        out.set("sched.maxedf.calls", hooks.calls.get() as f64);
        out.set("sched.maxedf.pick_yield", hooks.pick_yield());
    }
    let report = report.expect("three runs");
    let fifo = med_secs(3, || run("fifo"));
    let self_s = median(&runs) - median(&busy);
    out.set("sched.maxedf.busy_s", median(&busy));
    out.set("sched.maxedf.wall_vs_fifo", median(&runs) / fifo);
    out.set("engine.events", report.events_processed as f64);
    out.set("engine.self_s", self_s);
    out.set("engine.ns_per_event", self_s * 1e9 / report.events_processed as f64);
    let body = json(&report);
    out.set("report.bytes", body.len() as f64);
    out.set("report.serialize_s", med_secs(5, || json(&report)));
    Ok(())
}

/// Set-ups before the traffic, and in the timed run again after it, so
/// that `setup_s` samples both ends of the window. Each starts the
/// servers anew and stops them untimed.
const SETUP_REPS: usize = 4;

/// Runs [`start`] `reps` times, stopping each pair of servers but the
/// last, and returns the last with every start's seconds.
fn setups(db_dir: &Path, seed: u64, reps: usize) -> Result<(Live, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..reps {
        if let Some(old) = live.take() {
            old.stop()?;
        }
        let (started, s) = timed(|| start(db_dir, seed));
        live = Some(started?);
        secs.push(s);
    }
    Ok((live.expect("at least one set-up"), secs))
}

/// `serve_whatif`. The traced run sends the same traffic as the timed
/// run; its per-layer numbers come from in-process probes after the
/// traffic, so tracing adds nothing to the requests and
/// `bench.trace_overhead` reads 1.
pub fn serve_whatif(run: &Run) -> Result<Outcome, String> {
    let db_dir: PathBuf = run.work.join("db");
    let (live, mut setup_secs) = setups(&db_dir, run.seed, SETUP_REPS)?;
    let fork_at = live.fork_at;
    let fresh = Fresh { miss: AtomicU64::new(0), variant: AtomicU64::new(1) };
    let kept = Mutex::new(Kept::default());
    // one pass of one client first: the memory high-water mark of set-up
    // plus every request class, before the two clients' requests overlap
    // in ways that move it from run to run
    let mut windows = Vec::new();
    let mut peak_rss = 0.0;
    for shape in [(1, 0.0), (CLIENTS, run.seconds as f64)] {
        match traffic(&live, &fresh, shape, &kept) {
            Ok(w) => windows.push(w),
            Err(e) => {
                let _ = live.stop();
                return Err(e);
            }
        }
        if windows.len() == 1 {
            peak_rss = crate::metrics::peak_rss_mb();
        }
    }
    live.stop()?;

    let mut out = Outcome::default();
    for w in &windows {
        for s in &w.samples {
            out.check(s.ok);
        }
        let expected = expected_counters(&w.samples);
        for (srv, server) in ["hot", "cold"].iter().enumerate() {
            for (i, name) in COUNTERS.iter().enumerate() {
                let (want, got) = (expected[srv][i], w.counters[srv][i]);
                if want != got {
                    eprintln!(
                        "[perfbench] {server} server /healthz {name}: {got} counted, {want} \
                         expected from the requests sent"
                    );
                }
                out.check(want == got);
            }
        }
    }
    let facade = SimFacade::with_db(&db_dir).map_err(|e| e.to_string())?;
    verify(&facade, &kept.lock().expect("kept replies lock"), &mut out);
    if !run.trace {
        let (last, secs) = setups(&db_dir, run.seed, SETUP_REPS)?;
        last.stop()?;
        setup_secs.extend(secs);
    }

    let w = &windows[1];
    let secs_of = |c: Class| -> Vec<f64> {
        w.samples.iter().filter(|s| s.class == c).map(|s| s.secs).collect()
    };
    let total = w.samples.len() as f64;
    let mut classes = Vec::new();
    for (class, label) in CLASSES {
        let secs = secs_of(class);
        let ms = |q: f64| quantile(&secs, q) * 1e3;
        println!("{label}: {} requests, p50 {:.3} ms, p90 {:.3} ms", secs.len(), ms(0.5), ms(0.9));
        out.set(format!("serve.{label}_p50_ms"), ms(0.5));
        out.set(format!("serve.{label}_p90_ms"), ms(0.9));
        // the share the replies showed: a failed request or one whose
        // reply shows another class lowers its class's share
        let shown = w.samples.iter().filter(|s| s.seen == Some(class)).count();
        out.set(format!("serve.share.{label}"), shown as f64 / total);
        classes.push(secs);
    }
    let c: Vec<u64> =
        (0..4).map(|i| windows.iter().map(|w| w.counters[0][i] + w.counters[1][i]).sum()).collect();
    out.set("serve.cache_hit_ratio", ratio(c[0] as f64, (c[0] + c[1]) as f64));
    out.set("serve.ckpt_hit_ratio", ratio(c[2] as f64, (c[2] + c[3]) as f64));
    println!("requests_per_s: {:.3}", total / w.wall_s);
    end_to_end(&mut out, &w.passes, &classes, &setup_secs);
    out.set("peak_rss_mb", peak_rss);
    if run.trace {
        out.set("bench.trace_overhead", 1.0);
        let p50 = |c: Class| median(&secs_of(c));
        probes(&db_dir, fork_at, &fresh, &p50, &mut out)?;
    }
    Ok(out)
}
