//! The daemon: connection I/O, a bounded worker pool, admission
//! control, the content-addressed verdict cache, cancellation on
//! disconnect, and graceful drain.
//!
//! ## Threading model
//!
//! Connection I/O runs under one of two models ([`IoModel`]):
//!
//! * **Reactor** (default on Unix): a single thread `poll(2)`s the
//!   listener and every connection, so 10k idle connections cost one
//!   thread, not 10k. Request lines are parsed and dispatched from the
//!   reactor; responses are written by whichever thread completes them.
//! * **Threads**: one accept thread plus one reader thread per
//!   connection (the original model, and the fallback where `poll` is
//!   unavailable).
//!
//! Under both models, `workers` **worker** threads pop the bounded
//! [`JobQueue`] fairly (round-robin across clients), each running one
//! job at a time under a per-job [`Harness`] (budget +
//! [`CancelToken`]), panic-isolated with `catch_unwind`.
//!
//! Responses are written back on the submitting connection, one JSON
//! line per response, in completion order.
//!
//! ## Verdict cache
//!
//! With [`CacheConfig::enabled`], inline submissions are
//! content-addressed (see [`crate::cache`]): a stored verdict answers
//! immediately (`cache_hit`), concurrent identical submissions coalesce
//! behind one leader (single flight), and deterministic verdicts are
//! stored under an LRU byte budget. Every submission — served fresh,
//! from cache, or by fan-out — still gets exactly one terminal
//! disposition in the stats and the event log.
//!
//! ## Drain
//!
//! [`ServerHandle::shutdown`] (or a `shutdown` request) flips the
//! draining flag, closes the queue to new pushes, and wakes the I/O
//! thread. Queued and in-flight jobs finish and their responses are
//! delivered; new `verify` requests get a `draining` error;
//! [`ServerHandle::join`] returns once the pool is idle.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::json::Json;
use obs::EventLog;
use proofver::{Budget, CancelToken, FaultPlan, Harness};

use crate::cache::{self, Admit, CacheConfig, CacheKey, VerdictCache};
use crate::job;
use crate::net::{Endpoint, Listener, Stream};
use crate::protocol::{
    for_each_line, parse_request_line, ErrorCode, JobResult, LatencySummary,
    Request, Response, StatsReply, VerifyRequest,
};
use crate::queue::{JobQueue, PushError};
use crate::stats::{Event, ServerStats, StatsSnapshot};

#[cfg(unix)]
mod reactor;

/// Per-job fault-plan factory used by the deterministic service tests:
/// given the job's id (the sequence number assigned at submission —
/// every `verify` request consumes one, including rejected
/// submissions), produce the [`FaultPlan`] its harness runs under.
/// Production servers leave it unset ([`FaultPlan::none`] everywhere).
pub type FaultFactory = Arc<dyn Fn(u64) -> FaultPlan + Send + Sync>;

/// How the daemon multiplexes connection I/O.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoModel {
    /// One readiness-driven thread `poll(2)`s the listener and every
    /// connection. Unix only; elsewhere it silently falls back to
    /// [`IoModel::Threads`].
    Reactor,
    /// One accept thread plus one blocking reader thread per
    /// connection.
    Threads,
}

impl Default for IoModel {
    fn default() -> Self {
        if cfg!(unix) { IoModel::Reactor } else { IoModel::Threads }
    }
}

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads checking jobs concurrently (min 1).
    pub workers: usize,
    /// Bounded queue capacity; a full queue answers `overloaded`.
    pub queue_capacity: usize,
    /// Budget applied to jobs that do not set their own; request fields
    /// override individually.
    pub default_budget: Budget,
    /// Verdict-cache knobs (off by default; see [`CacheConfig`]).
    pub cache: CacheConfig,
    /// Connection I/O model (readiness-driven by default on Unix).
    pub io: IoModel,
    /// Test-only fault injection (see [`FaultFactory`]).
    pub faults: Option<FaultFactory>,
    /// Optional JSONL job-lifecycle log (see `docs/OBSERVABILITY.md`).
    pub event_log: Option<Arc<EventLog>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            default_budget: Budget::unlimited(),
            cache: CacheConfig::default(),
            io: IoModel::default(),
            faults: None,
            event_log: None,
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("default_budget", &self.default_budget)
            .field("cache", &self.cache)
            .field("io", &self.io)
            .field("faults", &self.faults.as_ref().map(|_| "<factory>"))
            .field("event_log", &self.event_log.as_ref().map(|_| "<log>"))
            .finish()
    }
}

impl ServerConfig {
    /// Sets the worker-pool size.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Sets the queue capacity (admission bound).
    #[must_use]
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Sets the default per-job budget.
    #[must_use]
    pub fn default_budget(mut self, budget: Budget) -> Self {
        self.default_budget = budget;
        self
    }

    /// Enables the verdict cache with `bytes` of LRU budget.
    #[must_use]
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache = CacheConfig { enabled: true, byte_budget: bytes };
        self
    }

    /// Turns the verdict cache (and single-flight coalescing) on or
    /// off, keeping the configured byte budget.
    #[must_use]
    pub fn cache_enabled(mut self, enabled: bool) -> Self {
        self.cache.enabled = enabled;
        self
    }

    /// Selects the connection I/O model.
    #[must_use]
    pub fn io(mut self, model: IoModel) -> Self {
        self.io = model;
        self
    }

    /// Arms the test-only fault factory.
    #[must_use]
    pub fn fault_factory(mut self, factory: FaultFactory) -> Self {
        self.faults = Some(factory);
        self
    }

    /// Attaches a JSONL job-lifecycle event log.
    #[must_use]
    pub fn event_log(mut self, log: Arc<EventLog>) -> Self {
        self.event_log = Some(log);
        self
    }
}

/// One admitted verification job.
struct Job {
    seq: u64,
    conn: u64,
    request: VerifyRequest,
    cancel: CancelToken,
    writer: SharedWriter,
    /// When the request line was complete, before it was decoded: the
    /// start of the `e2e` and `cache_hit` series.
    received: Instant,
    /// When the job passed admission: the start of `queue_wait`.
    submitted: Instant,
    /// The content address, when the request is cacheable and the
    /// cache is on. A queued job holding one is a single-flight leader.
    cache_key: Option<CacheKey>,
}

type SharedWriter = Arc<Mutex<Stream>>;

struct Shared {
    config: ServerConfig,
    queue: JobQueue<Job>,
    stats: ServerStats,
    cache: VerdictCache<Job>,
    draining: AtomicBool,
    /// Set by `join` once the workers are gone: tells the reactor to
    /// sweep its remaining connections and exit.
    stop: AtomicBool,
    endpoint: Endpoint,
    /// `(conn, seq, token)` for every job currently inside a worker.
    running: Mutex<Vec<(u64, u64, CancelToken)>>,
    /// A handle per live connection, to half-close at drain completion.
    conns: Mutex<HashMap<u64, Stream>>,
    next_seq: AtomicU64,
    /// Monotonic zero point for event-log timestamps.
    epoch: Instant,
}

/// Builder for one lifecycle event: `{ts_us, event, conn, ...}`.
/// Timestamps are µs since the server's monotonic epoch, so within one
/// log they are totally ordered and subtraction gives durations.
struct EventBuilder(Json);

impl EventBuilder {
    fn new(shared: &Shared, event: &str, conn: u64) -> EventBuilder {
        let mut obj = Json::object();
        push_u64_json(&mut obj, "ts_us", shared.epoch.elapsed().as_micros() as u64);
        obj.push("event", event);
        push_u64_json(&mut obj, "conn", conn);
        EventBuilder(obj)
    }

    fn job(mut self, seq: u64, id: Option<&str>) -> EventBuilder {
        push_u64_json(&mut self.0, "job", seq);
        if let Some(id) = id {
            self.0.push("id", id);
        }
        self
    }

    fn field(mut self, key: &str, value: &str) -> EventBuilder {
        self.0.push(key, value);
        self
    }

    fn us(mut self, key: &str, us: u64) -> EventBuilder {
        push_u64_json(&mut self.0, key, us);
        self
    }
}

fn push_u64_json(obj: &mut Json, key: &str, value: u64) {
    obj.push(key, Json::Int(i64::try_from(value).unwrap_or(i64::MAX)));
}

impl Shared {
    /// Appends one event to the log, if one is attached. Log I/O errors
    /// are swallowed: observability must never take the daemon down.
    fn emit(&self, event: EventBuilder) {
        if let Some(log) = &self.config.event_log {
            let _ = log.append(&event.0);
        }
    }

    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return; // already draining
        }
        // no new pushes; poppers finish the backlog and then exit
        self.queue.close();
        // the I/O thread may be parked in accept()/poll(); poke it
        // awake so it can observe the flag (the reactor drops the
        // listener *before* accepting, so the poke never becomes a
        // connection)
        let _ = Stream::connect(&self.endpoint);
    }
}

/// The daemon's front door.
pub struct Server;

impl Server {
    /// Binds `endpoint` and starts the I/O thread and worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(endpoint: &Endpoint, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = Listener::bind(endpoint)?;
        let local = listener.local_endpoint()?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            stats: ServerStats::new(),
            cache: VerdictCache::new(config.cache.byte_budget),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            endpoint: local.clone(),
            running: Mutex::new(Vec::new()),
            conns: Mutex::new(HashMap::new()),
            next_seq: AtomicU64::new(0),
            epoch: Instant::now(),
            config,
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("satverifyd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let io = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("satverifyd-io".into())
                .spawn(move || match shared.config.io {
                    #[cfg(unix)]
                    IoModel::Reactor => reactor::run(listener, &shared),
                    #[cfg(not(unix))]
                    IoModel::Reactor => accept_loop(&listener, &shared),
                    IoModel::Threads => accept_loop(&listener, &shared),
                })
                .expect("spawn I/O thread")
        };
        Ok(ServerHandle { shared, io: Some(io), workers })
    }
}

/// A running server: its bound endpoint, drain trigger, and join.
pub struct ServerHandle {
    shared: Arc<Shared>,
    io: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The endpoint actually bound (TCP port 0 resolved).
    #[must_use]
    pub fn local_endpoint(&self) -> Endpoint {
        self.shared.endpoint.clone()
    }

    /// Starts a graceful drain: stop admitting, finish queued and
    /// in-flight jobs. Idempotent; returns immediately.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// A cloneable trigger for starting the drain from another thread
    /// (e.g. a signal or stdin watcher) while this handle blocks in
    /// [`ServerHandle::join`].
    #[must_use]
    pub fn drain_trigger(&self) -> DrainTrigger {
        DrainTrigger { shared: Arc::clone(&self.shared) }
    }

    /// Whether a drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// A snapshot of the server's counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Waits for the drain to complete: every queued and in-flight job
    /// has been answered, the worker pool is gone, and the I/O thread
    /// has exited. Call [`ServerHandle::shutdown`] first (or let a
    /// client's `shutdown` request do it).
    ///
    /// # Panics
    ///
    /// Panics if the I/O or a worker thread itself panicked — a server
    /// bug; job panics are isolated inside the workers and do *not* end
    /// up here.
    pub fn join(mut self) {
        for worker in self.workers.drain(..) {
            worker.join().expect("worker panicked");
        }
        // the backlog is answered; now the I/O thread can go. The
        // threaded accept loop already exited on the drain poke; the
        // reactor polls this flag and sweeps its connections out.
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(io) = self.io.take() {
            io.join().expect("I/O thread panicked");
        }
        // lingering clients see EOF instead of a dead silent socket
        for (_, stream) in self.shared.conns.lock().expect("conn registry").drain() {
            stream.shutdown_both();
        }
        // the pool is idle: every lifecycle event has been appended
        if let Some(log) = &self.shared.config.event_log {
            let _ = log.flush();
        }
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.shared.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A cloneable drain trigger detached from the [`ServerHandle`].
#[derive(Clone)]
pub struct DrainTrigger {
    shared: Arc<Shared>,
}

impl DrainTrigger {
    /// Starts the graceful drain (idempotent).
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }
}

fn accept_loop(listener: &Listener, shared: &Arc<Shared>) {
    let mut next_conn = 0u64;
    loop {
        let stream = listener.accept();
        if shared.draining.load(Ordering::SeqCst) {
            // the stream (if any) is the drain poke or a client racing
            // the shutdown; either way, no new connections now
            return;
        }
        let Ok(stream) = stream else { continue };
        let conn = next_conn;
        next_conn += 1;
        let shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name(format!("satverifyd-conn-{conn}"))
            .spawn(move || serve_connection(&shared, conn, stream));
        // reader threads detach: they exit on client EOF, and join()
        // half-closes any that linger past the drain
        drop(spawned);
    }
}

/// How long a response write may sit in `poll(2)` waiting for the
/// client to drain its socket before the connection is given up on.
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(30);

fn write_line(writer: &SharedWriter, response: &Response) -> io::Result<()> {
    let mut line = response.to_line();
    line.push('\n');
    let mut stream = writer.lock().expect("writer lock");
    write_all_stream(&mut stream, line.as_bytes())
}

/// `write_all` that survives a non-blocking socket: the reactor marks
/// the whole file description non-blocking, and workers write through
/// clones of it. On `WouldBlock` the writer parks in `poll(2)` until
/// the socket drains, bounded so a client that never reads cannot
/// wedge a worker forever.
fn write_all_stream(stream: &mut Stream, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !stream.wait_writable(WRITE_STALL_LIMIT)? {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "client stopped reading; dropping the connection",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

fn serve_connection(shared: &Arc<Shared>, conn: u64, stream: Stream) {
    let Ok(write_half) = stream.try_clone() else { return };
    if let Ok(registry_half) = stream.try_clone() {
        shared.conns.lock().expect("conn registry").insert(conn, registry_half);
    }
    let writer: SharedWriter = Arc::new(Mutex::new(write_half));
    shared.emit(EventBuilder::new(shared, "connected", conn));
    for_each_line(BufReader::new(stream), |line| {
        handle_line(shared, conn, line, Instant::now(), &writer)
    });
    disconnect_cleanup(shared, conn);
}

/// Decodes and dispatches one request line, writing any immediate
/// responses on `writer` (admitted jobs answer later, from a worker).
/// Both I/O models funnel through here. `received` is when the line was
/// complete; a line that is not UTF-8 gets `bad-request`, like any
/// other line that is not JSON, and the connection stays open.
///
/// Returns `Err` only when writing to the client failed — the caller
/// must tear the connection down.
fn handle_line(
    shared: &Arc<Shared>,
    conn: u64,
    line: &[u8],
    received: Instant,
    writer: &SharedWriter,
) -> io::Result<()> {
    let Some(parsed) = parse_request_line(line) else { return Ok(()) };
    let response = match parsed {
        Err(message) => Some(Response::Error {
            code: ErrorCode::BadRequest,
            id: None,
            message,
        }),
        Ok(Request::Ping) => Some(Response::Pong),
        Ok(Request::Stats) => Some(stats_response(shared)),
        Ok(Request::Metrics) => Some(Response::Metrics {
            text: obs::prometheus::render(&obs::registry_snapshot()),
        }),
        Ok(Request::Shutdown) => {
            let ack = write_line(writer, &Response::ShuttingDown);
            shared.begin_drain();
            ack?;
            None
        }
        Ok(Request::Verify(request)) => admit(shared, conn, request, received, writer),
        Ok(Request::Batch(jobs)) => {
            // each job is admitted independently; rejections answer
            // immediately (pipelined between the batch's own results),
            // accepted jobs answer from workers in completion order
            for request in jobs {
                if let Some(response) = admit(shared, conn, request, received, writer) {
                    write_line(writer, &response)?;
                }
            }
            None
        }
    };
    match response {
        Some(response) => write_line(writer, &response),
        None => Ok(()),
    }
}

/// Admission control for one `verify` submission: reject while
/// draining, consult the verdict cache (hit / coalesce / lead), and
/// enqueue. Returns the response to send now, if any (an accepted job
/// answers later, from a worker).
fn admit(
    shared: &Arc<Shared>,
    conn: u64,
    request: VerifyRequest,
    received: Instant,
    writer: &SharedWriter,
) -> Option<Response> {
    shared.stats.record(Event::Submitted);
    // every submission — admitted or not — gets a job id, so rejection
    // events in the log correlate with their `received` event
    let seq = shared.next_seq.fetch_add(1, Ordering::Relaxed);
    let id = request.id.clone();
    shared.emit(
        EventBuilder::new(shared, "received", conn).job(seq, id.as_deref()),
    );
    if shared.draining.load(Ordering::SeqCst) {
        shared.stats.record(Event::DrainingRejected);
        shared.emit(
            EventBuilder::new(shared, "rejected", conn)
                .job(seq, id.as_deref())
                .field("reason", "draining"),
        );
        return Some(Response::Error {
            code: ErrorCode::Draining,
            id,
            message: "server is draining; no new jobs admitted".into(),
        });
    }
    let cache_key = if shared.config.cache.enabled {
        CacheKey::for_request(&request)
    } else {
        None
    };
    let job = Job {
        seq,
        conn,
        request,
        cancel: CancelToken::new(),
        writer: Arc::clone(writer),
        received,
        submitted: Instant::now(),
        cache_key,
    };
    let Some(key) = job.cache_key.clone() else {
        return try_enqueue(shared, job);
    };
    match shared.cache.admit(&key, job) {
        Admit::Hit { verdict, follower } => {
            Some(serve_hit(shared, &verdict, &follower))
        }
        Admit::Coalesced => {
            shared.stats.record(Event::CacheCoalesced);
            shared.emit(
                EventBuilder::new(shared, "coalesced", conn)
                    .job(seq, id.as_deref()),
            );
            None
        }
        Admit::Leader(job) => {
            shared.stats.record(Event::CacheMiss);
            try_enqueue(shared, job)
        }
    }
}

/// Answers a submission from a stored verdict. The hit is a full
/// terminal disposition (counter + event + e2e latency) but its serve
/// time lands in the `cache_hit` series, **not** the `verify`
/// histogram — a µs-scale lookup would poison the ms-scale series.
fn serve_hit(shared: &Arc<Shared>, verdict: &JobResult, job: &Job) -> Response {
    shared.stats.record(Event::CacheHit);
    let (event, terminal) = disposition_for(verdict);
    shared.stats.record(event);
    let served_us = job.received.elapsed().as_micros() as u64;
    shared.stats.record_cache_hit_us(served_us);
    shared.stats.record_e2e_us(served_us);
    shared.emit(
        EventBuilder::new(shared, terminal, job.conn)
            .job(job.seq, job.request.id.as_deref())
            .us("e2e_us", served_us)
            .field("served", "cache"),
    );
    let mut result = verdict.clone();
    result.id = job.request.id.clone();
    result.latency_ms = Some(job.submitted.elapsed().as_millis() as u64);
    Response::Result(result)
}

/// Pushes a job into the bounded queue, emitting `admitted` or the
/// rejection. A rejected single-flight leader completes its flight so
/// any followers that raced in behind it are rejected too, not
/// stranded.
fn try_enqueue(shared: &Arc<Shared>, job: Job) -> Option<Response> {
    let seq = job.seq;
    let conn = job.conn;
    let id = job.request.id.clone();
    match shared.queue.push(conn, job) {
        Ok(()) => {
            shared.stats.queue_depth_add(1);
            shared.emit(
                EventBuilder::new(shared, "admitted", conn).job(seq, id.as_deref()),
            );
            None
        }
        Err((kind, job)) => {
            if let Some(key) = &job.cache_key {
                let (followers, _) = shared.cache.complete(key, None);
                for follower in followers {
                    reject_follower(shared, follower, kind);
                }
            }
            Some(rejection(shared, conn, seq, id, kind))
        }
    }
}

/// Records and logs one admission rejection, returning the error
/// response for it.
fn rejection(
    shared: &Arc<Shared>,
    conn: u64,
    seq: u64,
    id: Option<String>,
    kind: PushError,
) -> Response {
    let (event, code, reason, message) = match kind {
        PushError::Full => (
            Event::Overloaded,
            ErrorCode::Overloaded,
            "overloaded",
            format!(
                "queue full (capacity {}); retry later",
                shared.queue.capacity()
            ),
        ),
        PushError::Closed => (
            Event::DrainingRejected,
            ErrorCode::Draining,
            "draining",
            "server is draining; no new jobs admitted".to_string(),
        ),
    };
    shared.stats.record(event);
    shared.emit(
        EventBuilder::new(shared, "rejected", conn)
            .job(seq, id.as_deref())
            .field("reason", reason),
    );
    Response::Error { code, id, message }
}

/// Rejects a parked follower whose leader could not be (re)queued.
fn reject_follower(shared: &Arc<Shared>, job: Job, kind: PushError) {
    let response =
        rejection(shared, job.conn, job.seq, job.request.id.clone(), kind);
    let _ = write_line(&job.writer, &response);
}

/// A single-flight leader vanished without a verdict to fan out (its
/// client disconnected). Promote parked followers into the queue until
/// one sticks; followers the queue rejects are answered with the
/// rejection. When no follower is left the flight dissolves.
fn promote_follower(shared: &Arc<Shared>, key: &CacheKey) {
    while let Some(follower) = shared.cache.leader_gone(key) {
        let seq = follower.seq;
        let conn = follower.conn;
        let id = follower.request.id.clone();
        match shared.queue.push(conn, follower) {
            Ok(()) => {
                shared.stats.queue_depth_add(1);
                shared.emit(
                    EventBuilder::new(shared, "promoted", conn)
                        .job(seq, id.as_deref()),
                );
                return;
            }
            Err((kind, job)) => reject_follower(shared, job, kind),
        }
    }
}

fn disconnect_cleanup(shared: &Arc<Shared>, conn: u64) {
    // running jobs first: flip their cancellation tokens so the checker
    // stops at its next poll…
    for (job_conn, _, token) in shared.running.lock().expect("running registry").iter() {
        if *job_conn == conn {
            token.cancel();
        }
    }
    // …then purge the queued jobs. This order makes the purge counter a
    // fence: once `cancelled_queued` moves, the cancels have landed.
    let purged = shared.queue.purge_client(conn);
    for job in &purged {
        shared.stats.queue_depth_add(-1);
        shared.stats.record(Event::CancelledQueued);
        // a purged job still terminates: it gets a `cancelled` terminal
        // event and lands in the end-to-end histogram like any other
        let e2e_us = job.received.elapsed().as_micros() as u64;
        shared.stats.record_e2e_us(e2e_us);
        shared.emit(
            EventBuilder::new(shared, "cancelled", conn)
                .job(job.seq, job.request.id.as_deref())
                .us("e2e_us", e2e_us),
        );
    }
    // followers this client parked behind other leaders terminate the
    // same way (cancelled before service, exactly one disposition)…
    let stranded = shared.cache.purge(|job| job.conn == conn);
    for job in stranded {
        shared.stats.record(Event::CancelledQueued);
        let e2e_us = job.received.elapsed().as_micros() as u64;
        shared.stats.record_e2e_us(e2e_us);
        shared.emit(
            EventBuilder::new(shared, "cancelled", conn)
                .job(job.seq, job.request.id.as_deref())
                .us("e2e_us", e2e_us)
                .field("parked", "coalesced"),
        );
    }
    // …and flights led by this client's purged jobs hand over to a
    // surviving follower (running leaders hand over at completion)
    for job in &purged {
        if let Some(key) = &job.cache_key {
            promote_follower(shared, key);
        }
    }
    shared.conns.lock().expect("conn registry").remove(&conn);
    shared.emit(EventBuilder::new(shared, "disconnected", conn));
}

fn stats_response(shared: &Arc<Shared>) -> Response {
    let snap = shared.stats.snapshot();
    let latency = obs::metrics::histogram("satverifyd.job.latency_ms").snapshot();
    Response::Stats(StatsReply {
        counters: snap.named_counters(),
        queue_depth: snap.queue_depth,
        in_flight: snap.in_flight,
        latency_buckets: latency.buckets,
        latency_us: vec![
            ("queue_wait".into(), LatencySummary::from_snapshot(&snap.queue_wait_us)),
            ("verify".into(), LatencySummary::from_snapshot(&snap.verify_us)),
            ("e2e".into(), LatencySummary::from_snapshot(&snap.e2e_us)),
            ("cache_hit".into(), LatencySummary::from_snapshot(&snap.cache_hit_us)),
        ],
        draining: shared.draining.load(Ordering::SeqCst),
    })
}

/// Maps a job result onto its stats counter and terminal event name.
fn disposition_for(result: &JobResult) -> (Event, &'static str) {
    match result.outcome.as_str() {
        "verified" => (Event::Verified, "verified"),
        "rejected" => (Event::Rejected, "rejected"),
        _ => (Event::Exhausted, "exhausted"),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.stats.queue_depth_add(-1);
        shared.stats.in_flight_add(1);
        let queue_wait_us = job.submitted.elapsed().as_micros() as u64;
        shared.stats.record_queue_wait_us(queue_wait_us);
        shared.emit(
            EventBuilder::new(shared, "started", job.conn)
                .job(job.seq, job.request.id.as_deref())
                .us("queue_wait_us", queue_wait_us),
        );
        shared
            .running
            .lock()
            .expect("running registry")
            .push((job.conn, job.seq, job.cancel.clone()));
        let checking = Instant::now();
        let (response, terminal) = run_job(shared, &job);
        let verify_us = checking.elapsed().as_micros() as u64;
        shared
            .running
            .lock()
            .expect("running registry")
            .retain(|&(_, seq, _)| seq != job.seq);
        shared.stats.in_flight_add(-1);
        shared.stats.record_verify_us(verify_us);
        let e2e_us = job.received.elapsed().as_micros() as u64;
        shared.stats.record_e2e_us(e2e_us);
        shared.emit(
            EventBuilder::new(shared, terminal, job.conn)
                .job(job.seq, job.request.id.as_deref())
                .us("verify_us", verify_us)
                .us("e2e_us", e2e_us),
        );
        if let Some(key) = &job.cache_key {
            settle_flight(shared, key, &response);
        }
        // the client may have vanished; a failed write is not an error
        let _ = write_line(&job.writer, &response);
    }
}

/// Completes a single-flight leader's run: stores a deterministic
/// verdict, fans the outcome out to every parked follower, and counts
/// the LRU evictions the insert caused. A leader that stopped because
/// *its own client* cancelled hands the flight to a follower instead —
/// the followers' clients are still waiting and deserve a real run.
fn settle_flight(shared: &Arc<Shared>, key: &CacheKey, response: &Response) {
    let cancelled = matches!(
        response,
        Response::Result(r) if r.exhaust_reason.as_deref() == Some("cancelled")
    );
    if cancelled {
        promote_follower(shared, key);
        return;
    }
    let stored = match response {
        Response::Result(result) if cache::storable(result) => Some(result),
        _ => None,
    };
    let (followers, evictions) = shared.cache.complete(key, stored);
    for _ in 0..evictions {
        shared.stats.record(Event::CacheEviction);
    }
    for follower in followers {
        serve_follower(shared, follower, response);
    }
}

/// Answers one coalesced follower with its leader's outcome: a full
/// terminal disposition under the follower's own `id` and latency.
/// Fan-out latency lands in `e2e` only — the `verify` series stays
/// one-entry-per-actual-run and `cache_hit` stays pure lookups.
fn serve_follower(shared: &Arc<Shared>, follower: Job, response: &Response) {
    let e2e_us = follower.received.elapsed().as_micros() as u64;
    let id = follower.request.id.clone();
    let (event, terminal, reply) = match response {
        Response::Result(result) => {
            let (event, terminal) = disposition_for(result);
            let mut out = cache::normalize(result);
            out.id = id.clone();
            out.latency_ms = Some(follower.submitted.elapsed().as_millis() as u64);
            (event, terminal, Response::Result(out))
        }
        Response::Error { code, message, .. } => {
            // the content is the same, so the leader's failure is the
            // follower's failure (a parse error is deterministic; an
            // internal error is honestly reported to everyone)
            let (event, terminal) = match code {
                ErrorCode::Internal => (Event::InternalError, "internal_error"),
                _ => (Event::InvalidInput, "invalid_input"),
            };
            let reply = Response::Error {
                code: *code,
                id: id.clone(),
                message: message.clone(),
            };
            (event, terminal, reply)
        }
        _ => return,
    };
    shared.stats.record(event);
    shared.stats.record_e2e_us(e2e_us);
    shared.emit(
        EventBuilder::new(shared, terminal, follower.conn)
            .job(follower.seq, id.as_deref())
            .us("e2e_us", e2e_us)
            .field("served", "coalesced"),
    );
    let _ = write_line(&follower.writer, &reply);
}

/// Runs one job under its harness, panic-isolated, and maps the result
/// onto a wire response (recording the outcome counter). The second
/// element is the terminal event name for the lifecycle log.
fn run_job(shared: &Arc<Shared>, job: &Job) -> (Response, &'static str) {
    let faults = match &shared.config.faults {
        Some(factory) => factory(job.seq),
        None => FaultPlan::none(),
    };
    let harness = Harness {
        budget: job.request.budget.resolve(&shared.config.default_budget),
        cancel: job.cancel.clone(),
        faults,
        ..Harness::default()
    };
    // the deterministic test hook: may park on a Gate until the test
    // releases it
    harness.faults.before_run();
    let id = job.request.id.clone();
    if job.cancel.is_cancelled() {
        shared.stats.record(Event::Exhausted);
        return (
            Response::Result(JobResult {
                id,
                outcome: "exhausted".into(),
                exhaust_reason: Some("cancelled".into()),
                ..JobResult::default()
            }),
            "exhausted",
        );
    }
    let outcome =
        catch_unwind(AssertUnwindSafe(|| job::execute(&job.request, &harness)));
    match outcome {
        Ok(Ok(mut result)) => {
            let (event, terminal) = disposition_for(&result);
            shared.stats.record(event);
            result.latency_ms = Some(job.submitted.elapsed().as_millis() as u64);
            (Response::Result(result), terminal)
        }
        Ok(Err((code, message))) => {
            shared.stats.record(Event::InvalidInput);
            (Response::Error { code, id, message }, "invalid_input")
        }
        Err(panic) => {
            shared.stats.record(Event::InternalError);
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".into());
            (
                Response::Error {
                    code: ErrorCode::Internal,
                    id,
                    message: format!("job crashed (worker survived): {what}"),
                },
                "internal_error",
            )
        }
    }
}
