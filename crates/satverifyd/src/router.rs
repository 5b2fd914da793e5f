//! The sharding front tier: `satverify route` speaks the same wire
//! protocol as the daemon and forwards each job to one of a static
//! pool of backends, chosen by hashing the job's formula.
//!
//! ## Routing
//!
//! [`shard_index`] hashes the formula *content* (or the `formula_path`
//! for by-path jobs) with FNV-1a, so identical formulas always land on
//! the same backend — which is what makes each backend's verdict cache
//! effective: a fleet's duplicate submissions concentrate instead of
//! spraying across the pool. When the home shard is unhealthy the
//! router walks forward to the next healthy backend.
//!
//! ## Health and failover
//!
//! A prober thread polls every backend with a `stats` request
//! (deadline-bounded) and marks it unhealthy on connect failure or a
//! `draining: true` reply. Two failure paths re-route *live* jobs with
//! zero lost dispositions:
//!
//! * a backend answers a forwarded job with a `draining` error — the
//!   job is immediately re-routed to another healthy backend;
//! * a backend connection drops (crash or drain completion) — every
//!   outstanding job it held is re-routed.
//!
//! When no healthy backend remains, the client gets an `overloaded`
//! error: an explicit disposition, never silence.
//!
//! ## What is answered locally
//!
//! `ping`, `stats` (routing counters, see `docs/OBSERVABILITY.md`),
//! `metrics`, and `shutdown` (drains the *router*; backends keep
//! running). `verify` and `batch` jobs are forwarded; responses stream
//! back in completion order with the client's own `id`s restored.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::json::Json;
use obs::EventLog;

use crate::net::{Endpoint, Listener, Stream};
use crate::protocol::{
    for_each_line, parse_request_line, ErrorCode, Request, Response, StatsReply,
    VerifyRequest,
};

/// 64-bit FNV-1a over `bytes`: the documented placement hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Picks the home backend for `request` among `shards` backends:
/// FNV-1a over the formula content (or the `formula_path` when the
/// formula is by-path), modulo the pool size. Deterministic and stable
/// across router restarts, so tests and operators can predict
/// placement.
#[must_use]
pub fn shard_index(request: &VerifyRequest, shards: usize) -> usize {
    let bytes = request
        .formula
        .as_deref()
        .or(request.formula_path.as_deref())
        .unwrap_or("")
        .as_bytes();
    (fnv1a64(bytes) % shards.max(1) as u64) as usize
}

/// Router tuning knobs.
#[derive(Clone)]
pub struct RouterConfig {
    /// The static backend pool (order defines shard indices).
    pub backends: Vec<Endpoint>,
    /// How often the prober re-checks backend health.
    pub health_interval: Duration,
    /// Deadline for one health probe round-trip.
    pub probe_timeout: Duration,
    /// Optional JSONL routing event log.
    pub event_log: Option<Arc<EventLog>>,
}

impl RouterConfig {
    /// A config routing to `backends` with default probing.
    #[must_use]
    pub fn new(backends: Vec<Endpoint>) -> RouterConfig {
        RouterConfig {
            backends,
            health_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_millis(500),
            event_log: None,
        }
    }

    /// Sets the health-probe interval.
    #[must_use]
    pub fn health_interval(mut self, interval: Duration) -> Self {
        self.health_interval = interval;
        self
    }

    /// Attaches a JSONL routing event log.
    #[must_use]
    pub fn event_log(mut self, log: Arc<EventLog>) -> Self {
        self.event_log = Some(log);
        self
    }
}

impl std::fmt::Debug for RouterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterConfig")
            .field("backends", &self.backends)
            .field("health_interval", &self.health_interval)
            .field("probe_timeout", &self.probe_timeout)
            .field("event_log", &self.event_log.as_ref().map(|_| "<log>"))
            .finish()
    }
}

struct RouterShared {
    config: RouterConfig,
    endpoint: Endpoint,
    healthy: Vec<AtomicBool>,
    forwarded: Vec<AtomicU64>,
    failovers: AtomicU64,
    unroutable: AtomicU64,
    submitted: AtomicU64,
    draining: AtomicBool,
    stop: AtomicBool,
    epoch: Instant,
}

impl RouterShared {
    fn emit(&self, event: &str, fill: impl FnOnce(&mut Json)) {
        let Some(log) = &self.config.event_log else { return };
        let mut obj = Json::object();
        obj.push(
            "ts_us",
            Json::Int(
                i64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(i64::MAX),
            ),
        );
        obj.push("event", event);
        fill(&mut obj);
        let _ = log.append(&obj);
    }

    fn set_health(&self, backend: usize, healthy: bool) {
        let was = self.healthy[backend].swap(healthy, Ordering::SeqCst);
        if was != healthy {
            self.emit("backend_health", |obj| {
                obj.push("backend", Json::Int(backend as i64));
                obj.push("healthy", Json::Bool(healthy));
            });
        }
    }

    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // wake the acceptor so it can observe the flag and exit
        let _ = Stream::connect(&self.endpoint);
    }
}

/// The front tier's front door.
pub struct Router;

impl Router {
    /// Binds `listen`, probes every backend once (so routing decisions
    /// are meaningful immediately), and starts the accept loop and
    /// health prober.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or rejects an empty backend pool.
    pub fn bind(listen: &Endpoint, config: RouterConfig) -> io::Result<RouterHandle> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let listener = Listener::bind(listen)?;
        let local = listener.local_endpoint()?;
        let n = config.backends.len();
        let shared = Arc::new(RouterShared {
            endpoint: local,
            healthy: (0..n).map(|_| AtomicBool::new(false)).collect(),
            forwarded: (0..n).map(|_| AtomicU64::new(0)).collect(),
            failovers: AtomicU64::new(0),
            unroutable: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            config,
        });
        probe_round(&shared);
        let prober = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("satverify-route-health".into())
                .spawn(move || health_loop(&shared))
                .expect("spawn prober")
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("satverify-route-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        Ok(RouterHandle { shared, accept: Some(accept), prober: Some(prober) })
    }
}

/// A running router: endpoint, drain, counters, join.
pub struct RouterHandle {
    shared: Arc<RouterShared>,
    accept: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The endpoint actually bound (TCP port 0 resolved).
    #[must_use]
    pub fn local_endpoint(&self) -> Endpoint {
        self.shared.endpoint.clone()
    }

    /// Stops accepting new client connections (idempotent). Live
    /// connections keep relaying until their clients disconnect.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Whether a drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Current backend health, by shard index.
    #[must_use]
    pub fn backend_health(&self) -> Vec<bool> {
        self.shared
            .healthy
            .iter()
            .map(|flag| flag.load(Ordering::SeqCst))
            .collect()
    }

    /// Routing counters: `submitted`, `forwarded_backend_<i>`,
    /// `failovers`, `unroutable`.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        router_counters(&self.shared)
    }

    /// Waits for the acceptor and prober to exit. Call
    /// [`RouterHandle::shutdown`] first (or let a client's `shutdown`
    /// request do it). Relay threads for live client connections
    /// detach and die with their connections.
    ///
    /// # Panics
    ///
    /// Panics if the acceptor or prober thread itself panicked.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("acceptor panicked");
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(prober) = self.prober.take() {
            prober.join().expect("prober panicked");
        }
        if let Some(log) = &self.shared.config.event_log {
            let _ = log.flush();
        }
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.shared.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn router_counters(shared: &RouterShared) -> Vec<(String, u64)> {
    let mut counters =
        vec![("submitted".to_string(), shared.submitted.load(Ordering::SeqCst))];
    for (i, n) in shared.forwarded.iter().enumerate() {
        counters.push((format!("forwarded_backend_{i}"), n.load(Ordering::SeqCst)));
    }
    counters.push(("failovers".into(), shared.failovers.load(Ordering::SeqCst)));
    counters.push(("unroutable".into(), shared.unroutable.load(Ordering::SeqCst)));
    counters
}

fn health_loop(shared: &Arc<RouterShared>) {
    let mut last = Instant::now();
    while !shared.stop.load(Ordering::SeqCst) {
        // sleep in short steps so join() is never stuck a full interval
        std::thread::sleep(Duration::from_millis(25));
        if last.elapsed() >= shared.config.health_interval {
            probe_round(shared);
            last = Instant::now();
        }
    }
}

fn probe_round(shared: &Arc<RouterShared>) {
    for (i, endpoint) in shared.config.backends.iter().enumerate() {
        let healthy =
            probe(endpoint, shared.config.probe_timeout).unwrap_or(false);
        shared.set_health(i, healthy);
    }
}

/// One health probe: connect, ask `stats`, and read the draining flag.
/// `Ok(false)` means "listening but draining" — routable never.
fn probe(endpoint: &Endpoint, timeout: Duration) -> io::Result<bool> {
    let stream = Stream::connect(endpoint)?;
    stream.set_read_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(format!("{}\n", Request::Stats.to_line()).as_bytes())?;
    writer.flush()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    match Response::parse(line.trim_end()) {
        Ok(Response::Stats(reply)) => Ok(!reply.draining),
        _ => Ok(false),
    }
}

fn accept_loop(listener: &Listener, shared: &Arc<RouterShared>) {
    loop {
        let stream = listener.accept();
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("satverify-route-conn".into())
            .spawn(move || serve_client(&shared, stream));
        drop(spawned);
    }
}

/// One forwarded job awaiting its backend's answer. `request` keeps
/// the client's original `id` and the full body, so the job can be
/// re-routed intact if its backend fails.
struct PendingJob {
    request: VerifyRequest,
    backend: usize,
}

/// An open connection to one backend, relaying for one client.
struct Link {
    writer: Arc<Mutex<Stream>>,
}

/// Per-client-connection relay state, shared with the pump threads
/// that read backend responses.
struct ConnCtx {
    shared: Arc<RouterShared>,
    client: Arc<Mutex<Stream>>,
    links: Mutex<Vec<Option<Link>>>,
    pending: Mutex<HashMap<u64, PendingJob>>,
    next_rid: AtomicU64,
    /// Set when the client disconnects: pump threads stop failing over
    /// and just exit.
    closed: AtomicBool,
}

impl ConnCtx {
    fn write_client(&self, response: &Response) -> io::Result<()> {
        let mut line = response.to_line();
        line.push('\n');
        let mut stream = self.client.lock().expect("client writer");
        stream.write_all(line.as_bytes())?;
        stream.flush()
    }
}

fn serve_client(shared: &Arc<RouterShared>, stream: Stream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let ctx = Arc::new(ConnCtx {
        shared: Arc::clone(shared),
        client: Arc::new(Mutex::new(write_half)),
        links: Mutex::new((0..shared.config.backends.len()).map(|_| None).collect()),
        pending: Mutex::new(HashMap::new()),
        next_rid: AtomicU64::new(0),
        closed: AtomicBool::new(false),
    });
    for_each_line(BufReader::new(stream), |line| handle_client_line(&ctx, line));
    // client gone: drop every backend link so the daemons see EOF and
    // cancel this client's outstanding jobs (cancellation propagates
    // through the tier)
    ctx.closed.store(true, Ordering::SeqCst);
    let mut links = ctx.links.lock().expect("links");
    for link in links.iter_mut() {
        if let Some(link) = link.take() {
            link.writer.lock().expect("backend writer").shutdown_both();
        }
    }
}

/// Decodes and dispatches one client line; a line that is not UTF-8 is
/// a `bad-request`, like any other line that is not JSON. Returns `Err`
/// only when writing to the client failed.
fn handle_client_line(ctx: &Arc<ConnCtx>, line: &[u8]) -> io::Result<()> {
    let Some(parsed) = parse_request_line(line) else { return Ok(()) };
    let response = match parsed {
        Err(message) => Some(Response::Error {
            code: ErrorCode::BadRequest,
            id: None,
            message,
        }),
        Ok(Request::Ping) => Some(Response::Pong),
        Ok(Request::Stats) => Some(Response::Stats(StatsReply {
            counters: router_counters(&ctx.shared),
            draining: ctx.shared.draining.load(Ordering::SeqCst),
            ..StatsReply::default()
        })),
        Ok(Request::Metrics) => Some(Response::Metrics {
            text: obs::prometheus::render(&obs::registry_snapshot()),
        }),
        Ok(Request::Shutdown) => {
            let ack = ctx.write_client(&Response::ShuttingDown);
            ctx.shared.begin_drain();
            ack?;
            None
        }
        Ok(Request::Verify(request)) => submit(ctx, request),
        Ok(Request::Batch(jobs)) => {
            for request in jobs {
                if let Some(response) = submit(ctx, request) {
                    ctx.write_client(&response)?;
                }
            }
            None
        }
    };
    match response {
        Some(response) => ctx.write_client(&response),
        None => Ok(()),
    }
}

/// Admission at the tier: reject while draining, otherwise route.
fn submit(ctx: &Arc<ConnCtx>, request: VerifyRequest) -> Option<Response> {
    ctx.shared.submitted.fetch_add(1, Ordering::SeqCst);
    if ctx.shared.draining.load(Ordering::SeqCst) {
        return Some(Response::Error {
            code: ErrorCode::Draining,
            id: request.id,
            message: "router is draining; no new jobs admitted".into(),
        });
    }
    route_job(ctx, request)
}

/// Forwards one job to its home shard or the next healthy backend,
/// walking the pool at most once. Returns the error response when no
/// backend can take it.
fn route_job(ctx: &Arc<ConnCtx>, request: VerifyRequest) -> Option<Response> {
    let pool = ctx.shared.config.backends.len();
    let home = shard_index(&request, pool);
    for step in 0..pool {
        let backend = (home + step) % pool;
        if !ctx.shared.healthy[backend].load(Ordering::SeqCst) {
            continue;
        }
        if forward(ctx, backend, &request).is_ok() {
            ctx.shared.forwarded[backend].fetch_add(1, Ordering::SeqCst);
            obs::metrics::counter(&format!(
                "satverifyd.route.backend{backend}.forwarded"
            ))
            .inc();
            ctx.shared.emit("routed", |obj| {
                if let Some(id) = &request.id {
                    obj.push("id", id.as_str());
                }
                obj.push("backend", Json::Int(backend as i64));
                obj.push("home", Json::Int(home as i64));
            });
            return None;
        }
        // could not even submit: this backend is not taking work
        ctx.shared.set_health(backend, false);
    }
    ctx.shared.unroutable.fetch_add(1, Ordering::SeqCst);
    obs::metrics::counter("satverifyd.route.unroutable").inc();
    ctx.shared.emit("unroutable", |obj| {
        if let Some(id) = &request.id {
            obj.push("id", id.as_str());
        }
    });
    Some(Response::Error {
        code: ErrorCode::Overloaded,
        id: request.id.clone(),
        message: "no healthy backend can take the job; retry later".into(),
    })
}

/// Registers the job as pending and writes it to `backend`, opening
/// the per-client link (and its response pump) on first use. The id on
/// the wire is an internal `r<seq>`; the client's own id is restored
/// when the response comes back.
fn forward(ctx: &Arc<ConnCtx>, backend: usize, request: &VerifyRequest) -> io::Result<()> {
    let writer = ensure_link(ctx, backend)?;
    let rid = ctx.next_rid.fetch_add(1, Ordering::SeqCst);
    ctx.pending.lock().expect("pending").insert(
        rid,
        PendingJob { request: request.clone(), backend },
    );
    let mut rewritten = request.clone();
    rewritten.id = Some(format!("r{rid}"));
    let mut line = Request::Verify(rewritten).to_line();
    line.push('\n');
    let result = {
        let mut stream = writer.lock().expect("backend writer");
        stream.write_all(line.as_bytes()).and_then(|()| stream.flush())
    };
    if result.is_err() {
        // never submitted: un-register so nobody re-routes it later
        ctx.pending.lock().expect("pending").remove(&rid);
        ctx.links.lock().expect("links")[backend] = None;
    }
    result
}

fn ensure_link(ctx: &Arc<ConnCtx>, backend: usize) -> io::Result<Arc<Mutex<Stream>>> {
    let mut links = ctx.links.lock().expect("links");
    if let Some(link) = &links[backend] {
        return Ok(Arc::clone(&link.writer));
    }
    let stream = Stream::connect(&ctx.shared.config.backends[backend])?;
    let read_half = stream.try_clone()?;
    let writer = Arc::new(Mutex::new(stream));
    links[backend] = Some(Link { writer: Arc::clone(&writer) });
    let pump_ctx = Arc::clone(ctx);
    let spawned = std::thread::Builder::new()
        .name(format!("satverify-route-pump-{backend}"))
        .spawn(move || pump(&pump_ctx, backend, read_half));
    drop(spawned); // detached: exits on backend EOF or client close
    Ok(writer)
}

/// Takes the pending entry for a backend-echoed `r<seq>` id.
fn take_pending(ctx: &ConnCtx, id: Option<&str>) -> Option<PendingJob> {
    let rid: u64 = id?.strip_prefix('r')?.parse().ok()?;
    ctx.pending.lock().expect("pending").remove(&rid)
}

/// Reads one backend's responses for one client, restoring original
/// ids and forwarding. On a `draining` error or backend EOF, live jobs
/// fail over to another backend.
fn pump(ctx: &Arc<ConnCtx>, backend: usize, stream: Stream) {
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let Ok(response) = Response::parse(line.trim_end()) else { continue };
        match response {
            Response::Result(mut result) => {
                let Some(job) = take_pending(ctx, result.id.as_deref()) else {
                    continue;
                };
                result.id = job.request.id.clone();
                if ctx.write_client(&Response::Result(result)).is_err() {
                    break;
                }
            }
            Response::Error { code, id, message } => {
                let Some(job) = take_pending(ctx, id.as_deref()) else {
                    continue;
                };
                if code == ErrorCode::Draining {
                    // the backend stopped admitting mid-stream: this
                    // job is still owed a disposition — re-route it
                    ctx.shared.set_health(backend, false);
                    failover(ctx, backend, job);
                    continue;
                }
                let relay = Response::Error {
                    code,
                    id: job.request.id.clone(),
                    message,
                };
                if ctx.write_client(&relay).is_err() {
                    break;
                }
            }
            // a backend never volunteers stats/pong on a job link
            _ => {}
        }
    }
    if ctx.closed.load(Ordering::SeqCst) {
        return; // the client is gone; its jobs died with it
    }
    // backend EOF: it crashed or finished draining. Every outstanding
    // job it held fails over — zero lost dispositions.
    ctx.shared.set_health(backend, false);
    ctx.links.lock().expect("links")[backend] = None;
    let orphans: Vec<PendingJob> = {
        let mut pending = ctx.pending.lock().expect("pending");
        let ids: Vec<u64> = pending
            .iter()
            .filter(|(_, job)| job.backend == backend)
            .map(|(&rid, _)| rid)
            .collect();
        ids.into_iter().filter_map(|rid| pending.remove(&rid)).collect()
    };
    for job in orphans {
        failover(ctx, backend, job);
    }
}

/// Re-routes one job whose backend failed, counting the failover. If
/// no other backend can take it, the client gets the explicit
/// `overloaded` disposition from [`route_job`].
fn failover(ctx: &Arc<ConnCtx>, from: usize, job: PendingJob) {
    ctx.shared.failovers.fetch_add(1, Ordering::SeqCst);
    obs::metrics::counter("satverifyd.route.failovers").inc();
    ctx.shared.emit("failover", |obj| {
        if let Some(id) = &job.request.id {
            obj.push("id", id.as_str());
        }
        obj.push("from", Json::Int(from as i64));
    });
    if let Some(response) = route_job(ctx, job.request) {
        let _ = ctx.write_client(&response);
    }
}
