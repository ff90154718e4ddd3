//! The `simmr serve` HTTP server: what-if queries over a worker pool.
//!
//! Protocol (JSON bodies, one request per connection):
//!
//! * `GET /healthz` — liveness plus the report, checkpoint and trace
//!   memo counters.
//! * `GET /v1/traces` — the trace database listing with content digests.
//! * `POST /v1/run` — one [`ScenarioSpec`]; the response body is the
//!   serialized report and the `x-simmr-cache` header says `hit` or
//!   `miss`. The body is byte-identical either way — cache status never
//!   leaks into it.
//! * `POST /v1/sweep` — a base scenario crossed with `policies` ×
//!   `seeds` (or an explicit `scenarios` list). Uncached scenarios are
//!   batched into one [`simmr_stats::parallel_sweep`] fan-out; with
//!   `?stream=1` each result is flushed as an NDJSON chunk the moment
//!   it completes.
//! * `POST /v1/shutdown` — responds, then stops the accept loop and
//!   drains the workers.
//!
//! Every piece of state lives in one [`ServerState`] value shared by
//! `Arc` — no globals, so tests run servers side by side in one process.

use crate::cache::{CkptCache, ReportCache};
use crate::facade::{FacadeError, ResolvedScenario, ScenarioSpec, SimFacade};
use crate::http::{ChunkedWriter, HttpError, Request, Response};
use simmr_sched::PolicySpec;
use simmr_stats::parallel_sweep;
use simmr_trace::{TraceDigest, TraceStatus};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Most scenarios one sweep request may expand to.
const MAX_SWEEP: usize = 1024;

/// How `simmr serve` is wired up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:4601` (port 0 picks one).
    pub addr: String,
    /// Connection worker threads; 0 means one per core (capped at 8).
    pub workers: usize,
    /// Trace database directory; named/digest trace refs need it.
    pub db_dir: Option<String>,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Max cached reports per shard.
    pub cache_shard_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4601".into(),
            workers: 0,
            db_dir: None,
            cache_shards: 16,
            cache_shard_cap: 256,
        }
    }
}

/// Everything a request handler can touch, shared across workers.
struct ServerState {
    facade: SimFacade,
    cache: ReportCache,
    ckpts: CkptCache,
    stop: AtomicBool,
    addr: SocketAddr,
}

impl ServerState {
    /// Flags the accept loop down and wakes it with a throwaway
    /// connection (accept() has no timeout; the nudge is the wake-up).
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// A bound, not-yet-running `simmr serve` instance.
pub struct Server {
    listener: TcpListener,
    workers: usize,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listen socket and opens the trace database.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let facade = match &config.db_dir {
            Some(dir) => SimFacade::with_db(dir).map_err(|e| e.to_string())?,
            None => SimFacade::new(),
        };
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot listen on `{}`: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let workers = match config.workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(2, 8),
            n => n,
        };
        Ok(Server {
            listener,
            workers,
            state: Arc::new(ServerState {
                facade,
                cache: ReportCache::new(config.cache_shards, config.cache_shard_cap),
                ckpts: CkptCache::new(config.cache_shards, config.cache_shard_cap),
                stop: AtomicBool::new(false),
                addr,
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serves until `POST /v1/shutdown`: accepts connections on this
    /// thread and hands them to the worker pool.
    pub fn run(self) -> Result<(), String> {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&self.state);
                scope.spawn(move || loop {
                    let next = rx.lock().expect("worker queue poisoned").recv();
                    match next {
                        Ok(stream) => {
                            // a panicking handler (e.g. the invariant
                            // checker firing) must not take the pool down
                            let caught =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    handle(&state, stream)
                                }));
                            if caught.is_err() {
                                eprintln!("[simmr serve] request handler panicked");
                            }
                        }
                        Err(_) => break,
                    }
                });
            }
            for stream in self.listener.incoming() {
                if self.state.stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
                    let _ = tx.send(stream);
                }
            }
            drop(tx);
        });
        Ok(())
    }
}

/// Serves one connection: read a request, route it, write the response.
fn handle(state: &ServerState, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let request = match Request::read_from(&mut reader) {
        Ok(Some(r)) => r,
        // clean EOF: e.g. the shutdown wake-up connection
        Ok(None) | Err(HttpError::Io(_)) => return,
        Err(e) => {
            let _ = error_response(400, &e.to_string()).write_to(&mut writer);
            return;
        }
    };
    let is_shutdown = request.method == "POST" && request.path == "/v1/shutdown";
    let response = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/v1/traces") => traces(state),
        ("POST", "/v1/run") => run_one(state, &request),
        ("POST", "/v1/sweep") if request.query("stream") == Some("1") => {
            match sweep_streamed(state, &request, &mut writer) {
                Ok(()) => return,
                Err(resp) => resp,
            }
        }
        ("POST", "/v1/sweep") => sweep(state, &request),
        ("POST", "/v1/shutdown") => Response::json(200, r#"{"status":"shutting down"}"#),
        (_, "/healthz" | "/v1/traces" | "/v1/run" | "/v1/sweep" | "/v1/shutdown") => {
            error_response(405, "method not allowed")
        }
        _ => error_response(404, "no such endpoint"),
    };
    let _ = response.write_to(&mut writer);
    if is_shutdown {
        state.begin_shutdown();
    }
}

/// `{"error": MSG}` with proper JSON escaping.
fn error_response(status: u16, msg: &str) -> Response {
    let quoted = serde_json::to_string(msg).unwrap_or_else(|_| "\"error\"".into());
    Response::json(status, format!("{{\"error\":{quoted}}}"))
}

/// HTTP status for a facade failure: bad specs are the client's fault,
/// unresolvable traces are "not found".
fn facade_error_response(e: &FacadeError) -> Response {
    let status = match e {
        FacadeError::BadSpec(_) => 400,
        FacadeError::Trace(_) => 404,
    };
    error_response(status, &e.to_string())
}

/// `GET /healthz`.
fn healthz(state: &ServerState) -> Response {
    let v = serde::Value::Object(vec![
        ("status".to_owned(), serde::Value::Str("ok".to_owned())),
        ("cache".to_owned(), serde::Serialize::to_value(&state.cache.stats())),
        ("checkpoints".to_owned(), serde::Serialize::to_value(&state.ckpts.stats())),
        ("traces".to_owned(), serde::Serialize::to_value(&state.facade.trace_stats())),
    ]);
    Response::json(200, serde_json::to_string(&v).expect("value serializes"))
}

/// `GET /v1/traces`.
fn traces(state: &ServerState) -> Response {
    let Some(db) = state.facade.db() else {
        return error_response(404, "no trace database configured (serve --db DIR)");
    };
    let listing = match db.list() {
        Ok(l) => l,
        Err(e) => return error_response(500, &e.to_string()),
    };
    let entries: Vec<serde::Value> = listing
        .iter()
        .map(|(name, status)| {
            let mut pairs = vec![("name".to_owned(), serde::Value::Str(name.clone()))];
            match status {
                TraceStatus::Ok { format, jobs, span, digest } => {
                    pairs.push(("format".to_owned(), serde::Value::Str(format.to_string())));
                    pairs.push(("jobs".to_owned(), serde::Value::U64(*jobs as u64)));
                    if let Some((first, last)) = span {
                        pairs.push((
                            "first_arrival_ms".to_owned(),
                            serde::Value::U64(first.as_millis()),
                        ));
                        pairs.push((
                            "last_arrival_ms".to_owned(),
                            serde::Value::U64(last.as_millis()),
                        ));
                    }
                    pairs.push(("digest".to_owned(), serde::Value::Str(digest.to_string())));
                }
                TraceStatus::Corrupt { format, error } => {
                    pairs.push(("format".to_owned(), serde::Value::Str(format.to_string())));
                    pairs.push(("error".to_owned(), serde::Value::Str(error.clone())));
                }
            }
            serde::Value::Object(pairs)
        })
        .collect();
    let v = serde::Value::Object(vec![("traces".to_owned(), serde::Value::Array(entries))]);
    Response::json(200, serde_json::to_string(&v).expect("value serializes"))
}

/// `POST /v1/run`.
fn run_one(state: &ServerState, request: &Request) -> Response {
    let spec: ScenarioSpec = match request.body_str().map(serde_json::from_str) {
        Ok(Ok(spec)) => spec,
        Ok(Err(e)) => return error_response(400, &e.to_string()),
        Err(e) => return error_response(400, &e.to_string()),
    };
    let resolved = match state.facade.resolve(&spec) {
        Ok(r) => r,
        Err(e) => return facade_error_response(&e),
    };
    let (cached, ckpt, body) = report_for(state, &resolved);
    let mut response = Response::json(200, body.as_bytes().to_vec())
        .with_header("x-simmr-cache", if cached { "hit" } else { "miss" })
        .with_header("x-simmr-digest", &resolved.digest.to_string());
    if let Some(hit) = ckpt {
        response = response.with_header("x-simmr-ckpt", if hit { "hit" } else { "miss" });
    }
    response
}

/// The serialized report for a resolved scenario: from the cache when
/// present, computed (and cached) otherwise. The returned bytes are
/// identical either way. The middle element is the fork scenario's
/// checkpoint-memo outcome (`None` for non-forks and report-cache hits).
fn report_for(state: &ServerState, resolved: &ResolvedScenario) -> (bool, Option<bool>, Arc<str>) {
    if let Some(body) = state.cache.get(&resolved.key) {
        return (true, None, body);
    }
    let run = resolved.run_warm(&state.ckpts);
    let body: Arc<str> =
        Arc::from(serde_json::to_string(&run.report).expect("report serializes").as_str());
    state.cache.insert(resolved.key.clone(), Arc::clone(&body));
    (false, run.ckpt, body)
}

/// A sweep request: a base scenario crossed with policy and seed lists,
/// or an explicit scenario list.
struct SweepRequest {
    base: Option<ScenarioSpec>,
    policies: Vec<PolicySpec>,
    seeds: Vec<u64>,
    scenarios: Vec<ScenarioSpec>,
}

impl serde::Deserialize for SweepRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if !matches!(v, serde::Value::Object(_)) {
            return Err(serde::DeError::new("expected object for sweep request"));
        }
        fn list<T: serde::Deserialize>(
            v: &serde::Value,
            name: &str,
        ) -> Result<Vec<T>, serde::DeError> {
            match v.get(name) {
                None | Some(serde::Value::Null) => Ok(Vec::new()),
                Some(fv) => Vec::<T>::from_value(fv)
                    .map_err(|e| serde::DeError::new(format!("sweep.{name}: {e}"))),
            }
        }
        let base = match v.get("base") {
            None | Some(serde::Value::Null) => None,
            Some(fv) => Some(
                ScenarioSpec::from_value(fv)
                    .map_err(|e| serde::DeError::new(format!("sweep.base: {e}")))?,
            ),
        };
        Ok(SweepRequest {
            base,
            policies: list(v, "policies")?,
            seeds: list(v, "seeds")?,
            scenarios: list(v, "scenarios")?,
        })
    }
}

impl SweepRequest {
    /// The concrete scenario list this request describes.
    fn expand(self) -> Result<Vec<ScenarioSpec>, String> {
        if !self.scenarios.is_empty() {
            if self.base.is_some() || !self.policies.is_empty() || !self.seeds.is_empty() {
                return Err("give either `scenarios` or `base` (+ policies/seeds), not both".into());
            }
            return Ok(self.scenarios);
        }
        let Some(base) = self.base else {
            return Err("sweep needs `base` or `scenarios`".into());
        };
        let policies =
            if self.policies.is_empty() { vec![base.policy.clone()] } else { self.policies };
        let seeds = if self.seeds.is_empty() { vec![base.seed] } else { self.seeds };
        let mut specs = Vec::with_capacity(policies.len() * seeds.len());
        for policy in &policies {
            for &seed in &seeds {
                let mut spec = base.clone();
                spec.policy = policy.clone();
                spec.seed = seed;
                specs.push(spec);
            }
        }
        Ok(specs)
    }
}

/// One sweep entry's outcome, ready to serialize.
enum SweepEntry {
    Failed(FacadeError),
    Report { cached: bool, key: String, digest: TraceDigest, body: Arc<str> },
}

/// Renders one NDJSON/array entry. `body` is already-serialized report
/// JSON and is embedded verbatim, so cached and computed entries with
/// the same key carry byte-identical reports.
fn entry_json(index: usize, entry: &SweepEntry) -> String {
    match entry {
        SweepEntry::Failed(e) => {
            let quoted = serde_json::to_string(&e.to_string()).unwrap_or_else(|_| "\"\"".into());
            format!("{{\"index\":{index},\"error\":{quoted}}}")
        }
        SweepEntry::Report { cached, key, digest, body } => {
            let key = serde_json::to_string(key).expect("string serializes");
            format!(
                "{{\"index\":{index},\"cached\":{cached},\"digest\":\"{digest}\",\"key\":{key},\
                 \"report\":{body}}}"
            )
        }
    }
}

/// Parses and resolves a sweep request body into per-index outcomes:
/// already-failed entries, cache hits, and the resolved misses still to
/// run.
#[allow(clippy::type_complexity)]
fn prepare_sweep(
    state: &ServerState,
    request: &Request,
) -> Result<(Vec<Option<SweepEntry>>, Vec<(usize, ResolvedScenario)>), Response> {
    let parsed: SweepRequest = match request.body_str().map(serde_json::from_str) {
        Ok(Ok(p)) => p,
        Ok(Err(e)) => return Err(error_response(400, &e.to_string())),
        Err(e) => return Err(error_response(400, &e.to_string())),
    };
    let specs = parsed.expand().map_err(|e| error_response(400, &e))?;
    if specs.is_empty() {
        return Err(error_response(400, "sweep expands to zero scenarios"));
    }
    if specs.len() > MAX_SWEEP {
        return Err(error_response(
            400,
            &format!("sweep expands to {} scenarios (limit {MAX_SWEEP})", specs.len()),
        ));
    }
    let mut entries: Vec<Option<SweepEntry>> = Vec::with_capacity(specs.len());
    let mut misses: Vec<(usize, ResolvedScenario)> = Vec::new();
    for (index, resolved) in state.facade.resolve_many(&specs).into_iter().enumerate() {
        match resolved {
            Err(e) => entries.push(Some(SweepEntry::Failed(e))),
            Ok(resolved) => match state.cache.get(&resolved.key) {
                Some(body) => entries.push(Some(SweepEntry::Report {
                    cached: true,
                    key: resolved.key,
                    digest: resolved.digest,
                    body,
                })),
                None => {
                    entries.push(None);
                    misses.push((index, resolved));
                }
            },
        }
    }
    warm_checkpoints(state, &misses);
    Ok((entries, misses))
}

/// Materializes each *distinct* prefix checkpoint the fork scenarios
/// among `misses` share, fanning the prefix runs out over all cores —
/// so a sweep of N divergent suffixes over one prefix runs that prefix
/// exactly once, and every subsequent [`ResolvedScenario::run_warm`]
/// warm-starts from the memo.
fn warm_checkpoints(state: &ServerState, misses: &[(usize, ResolvedScenario)]) {
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<&ResolvedScenario> = misses
        .iter()
        .filter_map(|(_, r)| r.ckpt_key().filter(|k| seen.insert(k.clone())).map(|_| r))
        .collect();
    if !distinct.is_empty() {
        parallel_sweep(distinct.len(), |i| distinct[i].ensure_ckpt(&state.ckpts));
    }
}

/// Runs one resolved miss (warm-starting forks from the checkpoint
/// memo), caches its report, returns its entry.
fn run_miss(state: &ServerState, resolved: &ResolvedScenario) -> SweepEntry {
    let run = resolved.run_warm(&state.ckpts);
    let body: Arc<str> =
        Arc::from(serde_json::to_string(&run.report).expect("report serializes").as_str());
    state.cache.insert(resolved.key.clone(), Arc::clone(&body));
    SweepEntry::Report { cached: false, key: resolved.key.clone(), digest: resolved.digest, body }
}

/// `POST /v1/sweep` (buffered): one JSON array, entries in request
/// order, uncached scenarios fanned out in one [`parallel_sweep`].
fn sweep(state: &ServerState, request: &Request) -> Response {
    let (mut entries, misses) = match prepare_sweep(state, request) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let computed = parallel_sweep(misses.len(), |i| run_miss(state, &misses[i].1));
    for ((index, _), entry) in misses.iter().zip(computed) {
        entries[*index] = Some(entry);
    }
    let rendered: Vec<String> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| entry_json(i, e.as_ref().expect("every entry filled")))
        .collect();
    Response::json(200, format!("[{}]", rendered.join(",")))
        .with_header("x-simmr-sweep-count", &rendered.len().to_string())
}

/// `POST /v1/sweep?stream=1`: NDJSON chunks. Failures and cache hits
/// flush immediately; each computed scenario flushes the moment its
/// engine run completes (completion order, tagged with `index`).
fn sweep_streamed<W: Write>(
    state: &ServerState,
    request: &Request,
    writer: &mut W,
) -> Result<(), Response> {
    let (entries, misses) = prepare_sweep(state, request)?;
    let total = entries.len();
    let headers = vec![("x-simmr-sweep-count".to_owned(), total.to_string())];
    let Ok(mut chunks) = ChunkedWriter::start(writer, 200, &headers) else { return Ok(()) };
    for (index, entry) in entries.iter().enumerate() {
        if let Some(entry) = entry {
            let _ = chunks.line(&entry_json(index, entry));
        }
    }
    let (tx, rx) = mpsc::channel::<(usize, SweepEntry)>();
    std::thread::scope(|scope| {
        let state = &*state;
        let misses = &misses;
        scope.spawn(move || {
            let _ = parallel_sweep(misses.len(), |i| {
                let (index, resolved) = &misses[i];
                let _ = tx.send((*index, run_miss(state, resolved)));
            });
            // tx drops here; the drain loop below sees the channel close
        });
        for (index, entry) in rx.iter() {
            let _ = chunks.line(&entry_json(index, &entry));
        }
    });
    let _ = chunks.finish();
    Ok(())
}
