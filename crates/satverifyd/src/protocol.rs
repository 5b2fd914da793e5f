//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One JSON document per line in each direction. Requests carry an
//! `"op"` discriminator; responses mirror it. Responses to pipelined
//! `verify` requests arrive in *completion* order and are matched to
//! their request by the client-chosen `id` field. The full schema is
//! specified in `docs/PROTOCOL.md`; [`PROTOCOL_VERSION`] is bumped on
//! every incompatible change.

use std::io::{self, BufRead};
use std::time::Duration;

use obs::json::Json;
use proofver::{Budget, CheckMode};

/// Version of the wire protocol implemented by this build.
pub const PROTOCOL_VERSION: u64 = 1;

/// Machine-readable error codes carried by `op:"error"` responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The job queue is full; resubmit later. The job was **not**
    /// accepted — admission control rejects instead of buffering.
    Overloaded,
    /// The server is draining and admits no new jobs.
    Draining,
    /// The request line was not valid JSON or is missing required
    /// fields.
    BadRequest,
    /// The formula or proof could not be loaded or parsed.
    InvalidInput,
    /// The job crashed inside the server (a bug — the worker survived).
    Internal,
}

impl ErrorCode {
    /// Stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Draining => "draining",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::InvalidInput => "invalid-input",
            ErrorCode::Internal => "internal",
        }
    }

    fn from_str(text: &str) -> Option<ErrorCode> {
        Some(match text {
            "overloaded" => ErrorCode::Overloaded,
            "draining" => ErrorCode::Draining,
            "bad-request" => ErrorCode::BadRequest,
            "invalid-input" => ErrorCode::InvalidInput,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Resource limits requested for one job, mapped onto
/// [`proofver::Budget`]. Absent fields mean "unlimited".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Cap on literals propagated.
    pub max_propagations: Option<u64>,
    /// Cap on watched-clause look-ups.
    pub max_clause_visits: Option<u64>,
    /// Cap on clause-arena bytes.
    pub max_memory_bytes: Option<u64>,
    /// Wall-clock limit in milliseconds.
    pub timeout_ms: Option<u64>,
}

impl BudgetSpec {
    /// The request's limits merged over `base` (the server default):
    /// any field the request sets wins.
    #[must_use]
    pub fn resolve(&self, base: &Budget) -> Budget {
        let mut budget = base.clone();
        if let Some(n) = self.max_propagations {
            budget = budget.max_propagations(n);
        }
        if let Some(n) = self.max_clause_visits {
            budget = budget.max_clause_visits(n);
        }
        if let Some(n) = self.max_memory_bytes {
            budget = budget.max_arena_bytes(n);
        }
        if let Some(ms) = self.timeout_ms {
            budget = budget.timeout(Duration::from_millis(ms));
        }
        budget
    }

    /// Whether any limit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == BudgetSpec::default()
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        if let Some(n) = self.max_propagations {
            push_u64(&mut obj, "max_propagations", n);
        }
        if let Some(n) = self.max_clause_visits {
            push_u64(&mut obj, "max_clause_visits", n);
        }
        if let Some(n) = self.max_memory_bytes {
            push_u64(&mut obj, "max_memory_bytes", n);
        }
        if let Some(n) = self.timeout_ms {
            push_u64(&mut obj, "timeout_ms", n);
        }
        obj
    }

    fn from_json(doc: &Json) -> Result<BudgetSpec, String> {
        let field = |key: &str| -> Result<Option<u64>, String> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_int()
                    .and_then(|n| u64::try_from(n).ok())
                    .map(Some)
                    .ok_or_else(|| {
                        format!("budget field `{key}` is not a non-negative integer")
                    }),
            }
        };
        Ok(BudgetSpec {
            max_propagations: field("max_propagations")?,
            max_clause_visits: field("max_clause_visits")?,
            max_memory_bytes: field("max_memory_bytes")?,
            timeout_ms: field("timeout_ms")?,
        })
    }
}

/// One verification job: a formula and a proof, each inline or by
/// server-local path, plus check mode and budget.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyRequest {
    /// Client-chosen identifier, echoed verbatim in the response.
    /// Responses arrive in completion order; pipelining clients match
    /// them to requests by this field.
    pub id: Option<String>,
    /// Inline DIMACS CNF text.
    pub formula: Option<String>,
    /// Server-local path to a DIMACS CNF file.
    pub formula_path: Option<String>,
    /// Inline proof text (one conflict clause per line, `0`-terminated).
    pub proof: Option<String>,
    /// Server-local path to a text or binary proof file.
    pub proof_path: Option<String>,
    /// Check mode: `marked-only` (default), `all`, or `all-forward`.
    pub mode: Option<String>,
    /// Proof format: `native` (default, conflict-clause proofs) or
    /// `drat` (standard DRAT, checked backward). Additive field:
    /// absent means `native`, so old clients are unaffected.
    pub proof_format: Option<String>,
    /// Check the proof with the windowed streaming verifier (requires
    /// `proof_format: "drat"` and a server-local `proof_path` to a
    /// binary DRAT file; the budget's `max_memory_bytes` becomes the
    /// streaming residency cap). Additive field: absent means `false`,
    /// so old clients are unaffected.
    pub stream: bool,
    /// Per-job resource limits.
    pub budget: BudgetSpec,
}

impl VerifyRequest {
    /// The requested [`CheckMode`], or an error naming the bad value.
    ///
    /// # Errors
    ///
    /// A message for unknown mode strings.
    pub fn check_mode(&self) -> Result<CheckMode, String> {
        match self.mode.as_deref() {
            None | Some("marked-only") => Ok(CheckMode::MarkedOnly),
            Some("all") => Ok(CheckMode::All),
            Some("all-forward") => Ok(CheckMode::AllForward),
            Some(other) => Err(format!(
                "unknown mode {other:?} (marked-only|all|all-forward)"
            )),
        }
    }

    /// Whether the job's proof is standard DRAT (`true`) or native
    /// (`false`), or an error naming the bad value.
    ///
    /// # Errors
    ///
    /// A message for unknown format strings.
    pub fn is_drat(&self) -> Result<bool, String> {
        match self.proof_format.as_deref() {
            None | Some("native") => Ok(false),
            Some("drat") => Ok(true),
            Some(other) => {
                Err(format!("unknown proof_format {other:?} (native|drat)"))
            }
        }
    }

    /// Parses and validates one verify body — a full `verify` request
    /// document or one entry of a `batch` request's `jobs` array (an
    /// `"op"` field, if present, is ignored). The text fields are moved
    /// out of `doc`, not copied: an inline formula or proof is the bulk
    /// of a request line.
    ///
    /// # Errors
    ///
    /// A human-readable message for missing/conflicting inputs or
    /// unknown mode/format values.
    pub fn from_json(mut doc: Json) -> Result<VerifyRequest, String> {
        fn text(doc: &mut Json, key: &str) -> Option<String> {
            match doc.take(key) {
                Some(Json::Str(s)) => Some(s),
                _ => None,
            }
        }
        let request = VerifyRequest {
            id: text(&mut doc, "id"),
            formula: text(&mut doc, "formula"),
            formula_path: text(&mut doc, "formula_path"),
            proof: text(&mut doc, "proof"),
            proof_path: text(&mut doc, "proof_path"),
            mode: text(&mut doc, "mode"),
            proof_format: text(&mut doc, "proof_format"),
            stream: matches!(doc.get("stream"), Some(Json::Bool(true))),
            budget: match doc.get("budget") {
                Some(spec) => BudgetSpec::from_json(spec)?,
                None => BudgetSpec::default(),
            },
        };
        if request.formula.is_none() && request.formula_path.is_none() {
            return Err("verify needs `formula` or `formula_path`".into());
        }
        if request.formula.is_some() && request.formula_path.is_some() {
            return Err("give `formula` or `formula_path`, not both".into());
        }
        if request.proof.is_none() && request.proof_path.is_none() {
            return Err("verify needs `proof` or `proof_path`".into());
        }
        if request.proof.is_some() && request.proof_path.is_some() {
            return Err("give `proof` or `proof_path`, not both".into());
        }
        request.check_mode()?;
        request.is_drat()?;
        if request.is_drat() == Ok(true) && request.mode.is_some() {
            return Err("drat jobs are checked backward; drop `mode`".into());
        }
        Ok(request)
    }

    /// Parses one JSONL line as a verify body (see
    /// [`VerifyRequest::from_json`]) — the format `satverify client
    /// batch <file>` reads.
    ///
    /// # Errors
    ///
    /// A message for invalid JSON or an invalid body.
    pub fn from_json_line(line: &str) -> Result<VerifyRequest, String> {
        let doc =
            obs::json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
        if let Some(op) = doc.get("op").and_then(Json::as_str) {
            if op != "verify" {
                return Err(format!("job line has op {op:?}, expected a verify body"));
            }
        }
        VerifyRequest::from_json(doc)
    }
}

/// Decodes one framed request line, as every reader does: a trailing
/// `\n`, then a trailing `\r`, is stripped, and the rest must be UTF-8,
/// as JSON text is (RFC 8259), and then a [`Request`]. `None` is a blank
/// line, which readers skip.
///
/// # Errors
///
/// As [`Request::parse`]; a line that is not UTF-8 names the offset of
/// its first bad byte. The daemon and the router answer every error
/// with [`ErrorCode::BadRequest`] and keep reading the connection.
pub(crate) fn parse_request_line(line: &[u8]) -> Option<Result<Request, String>> {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    match std::str::from_utf8(line) {
        Ok(text) if text.trim().is_empty() => None,
        Ok(text) => Some(Request::parse(text)),
        Err(e) => Some(Err(format!(
            "not valid JSON: request line is not UTF-8 (invalid byte at offset {})",
            e.valid_up_to()
        ))),
    }
}

/// Hands each line of `reader`, line end included, to `handle` until
/// end of input, a read error, or a failed `handle` (a write to the
/// client failed). The blocking readers — the threaded daemon's and the
/// router's — frame their lines here.
pub(crate) fn for_each_line(
    mut reader: impl BufRead,
    mut handle: impl FnMut(&[u8]) -> io::Result<()>,
) {
    let mut line = Vec::new();
    loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if handle(&line).is_err() {
            return;
        }
    }
}

/// Serialises one verify body, optionally with the `"op":"verify"`
/// discriminator (full requests carry it; `batch` jobs do not).
fn verify_to_json(v: &VerifyRequest, with_op: bool) -> Json {
    let mut obj = Json::object();
    if with_op {
        obj.push("op", "verify");
    }
    if let Some(id) = &v.id {
        obj.push("id", id.as_str());
    }
    if let Some(text) = &v.formula {
        obj.push("formula", text.as_str());
    }
    if let Some(path) = &v.formula_path {
        obj.push("formula_path", path.as_str());
    }
    if let Some(text) = &v.proof {
        obj.push("proof", text.as_str());
    }
    if let Some(path) = &v.proof_path {
        obj.push("proof_path", path.as_str());
    }
    if let Some(mode) = &v.mode {
        obj.push("mode", mode.as_str());
    }
    if let Some(format) = &v.proof_format {
        obj.push("proof_format", format.as_str());
    }
    if v.stream {
        obj.push("stream", true);
    }
    if !v.budget.is_empty() {
        obj.push("budget", v.budget.to_json());
    }
    obj
}

/// A client-to-server message.
// `Verify` dwarfs the dataless control variants, but requests are
// transient (parsed, dispatched, dropped) and never stored in bulk, so
// boxing would buy nothing and cost every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit a verification job.
    Verify(VerifyRequest),
    /// Submit several verification jobs in one line. Each job is
    /// admitted independently (same admission control and fair queue as
    /// `verify`) and answered by its own response, streamed back in
    /// completion order. Additive op: old servers answer `bad-request`,
    /// which a client can detect and fall back to pipelined `verify`.
    Batch(Vec<VerifyRequest>),
    /// Ask for server statistics.
    Stats,
    /// Ask for the metrics registry in Prometheus text exposition.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Begin a graceful drain: stop admitting, finish in-flight and
    /// queued jobs, then exit.
    Shutdown,
}

impl Request {
    /// A `verify` request with inline formula and proof text.
    #[must_use]
    pub fn verify_inline(formula: &str, proof: &str) -> Request {
        Request::Verify(VerifyRequest {
            formula: Some(formula.to_string()),
            proof: Some(proof.to_string()),
            ..VerifyRequest::default()
        })
    }

    /// Serialises to one compact JSON line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        self.to_json().to_compact_string()
    }

    /// The JSON document for this request.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Request::Verify(v) => verify_to_json(v, true),
            Request::Batch(jobs) => {
                let mut obj = Json::object();
                obj.push("op", "batch");
                obj.push(
                    "jobs",
                    Json::Array(
                        jobs.iter().map(|v| verify_to_json(v, false)).collect(),
                    ),
                );
                obj
            }
            Request::Stats => Json::object_from([("op", Json::from("stats"))]),
            Request::Metrics => Json::object_from([("op", Json::from("metrics"))]),
            Request::Ping => Json::object_from([("op", Json::from("ping"))]),
            Request::Shutdown => {
                Json::object_from([("op", Json::from("shutdown"))])
            }
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable message; the server answers these with
    /// [`ErrorCode::BadRequest`].
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut doc =
            obs::json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field `op`")?;
        match op {
            "verify" => Ok(Request::Verify(VerifyRequest::from_json(doc)?)),
            "batch" => {
                let Some(Json::Array(jobs)) = doc.take("jobs") else {
                    return Err("batch needs a `jobs` array".into());
                };
                if jobs.is_empty() {
                    return Err("batch needs a non-empty `jobs` array".into());
                }
                // strict whole-line validation: one malformed job fails
                // the entire batch before anything is admitted, so a
                // batch never half-runs
                jobs.into_iter()
                    .enumerate()
                    .map(|(i, job)| {
                        VerifyRequest::from_json(job)
                            .map_err(|e| format!("batch job {i}: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Request::Batch)
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// The server's answer to one `verify` job.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobResult {
    /// The request's `id`, echoed back.
    pub id: Option<String>,
    /// `"verified"`, `"rejected"`, or `"exhausted"` — never a verdict
    /// for an exhausted run.
    pub outcome: String,
    /// Conflict-clause checks completed.
    pub steps_checked: Option<u64>,
    /// Conflict clauses in the proof.
    pub steps_total: Option<u64>,
    /// Which limit stopped an exhausted run.
    pub exhaust_reason: Option<String>,
    /// Zero-based proof index of the failing clause of a rejected run.
    pub rejected_step: Option<u64>,
    /// Human-readable detail (the verification error, for rejections).
    pub detail: Option<String>,
    /// Literals propagated while checking.
    pub propagations: Option<u64>,
    /// Wall-clock job latency in milliseconds (queue wait + check).
    pub latency_ms: Option<u64>,
}

/// A five-number latency summary in microseconds. Percentiles are
/// nearest-rank estimates from the server's power-of-two-bucket
/// histograms: each is the containing bucket's upper bound (within 2×
/// of the true value, never an underestimate) clamped to the
/// exactly-tracked `[min, max]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Estimated median, µs.
    pub p50: u64,
    /// Estimated 90th percentile, µs.
    pub p90: u64,
    /// Estimated 99th percentile, µs.
    pub p99: u64,
    /// Exact smallest sample, µs.
    pub min: u64,
    /// Exact largest sample, µs.
    pub max: u64,
}

impl LatencySummary {
    /// Summarises a histogram snapshot.
    #[must_use]
    pub fn from_snapshot(h: &obs::metrics::HistogramSnapshot) -> LatencySummary {
        LatencySummary {
            count: h.count,
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
            min: h.min,
            max: h.max,
        }
    }

    fn to_json(self) -> Json {
        let mut obj = Json::object();
        push_u64(&mut obj, "count", self.count);
        push_u64(&mut obj, "p50", self.p50);
        push_u64(&mut obj, "p90", self.p90);
        push_u64(&mut obj, "p99", self.p99);
        push_u64(&mut obj, "min", self.min);
        push_u64(&mut obj, "max", self.max);
        obj
    }

    fn from_json(doc: &Json) -> LatencySummary {
        let get = |key: &str| {
            doc.get(key)
                .and_then(Json::as_int)
                .and_then(|n| u64::try_from(n).ok())
                .unwrap_or(0)
        };
        LatencySummary {
            count: get("count"),
            p50: get("p50"),
            p90: get("p90"),
            p99: get("p99"),
            min: get("min"),
            max: get("max"),
        }
    }
}

/// The server's statistics reply: per-instance counters plus the
/// global `obs` metrics snapshot relevant to serving.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// `(name, value)` for each admission/outcome counter.
    pub counters: Vec<(String, u64)>,
    /// Jobs waiting in the queue right now.
    pub queue_depth: u64,
    /// Jobs being checked right now.
    pub in_flight: u64,
    /// `(upper_bound_ms, count)` buckets of the job latency histogram.
    pub latency_buckets: Vec<(u64, u64)>,
    /// Named µs latency summaries: `queue_wait`, `verify`, `e2e`,
    /// `cache_hit`. Absent entries (an older server) parse as an empty
    /// vec.
    pub latency_us: Vec<(String, LatencySummary)>,
    /// Whether the server has begun draining. Additive field: absent
    /// (an older server) parses as `false`. The router's health checker
    /// reads this to stop routing new jobs at a draining backend.
    pub draining: bool,
}

impl StatsReply {
    /// The value of counter `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The µs latency summary called `name` (`queue_wait`, `verify`,
    /// `e2e`), if the server sent one.
    #[must_use]
    pub fn latency(&self, name: &str) -> Option<&LatencySummary> {
        self.latency_us.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// A completed `verify` job.
    Result(JobResult),
    /// An admission or processing error. `id` is present when the error
    /// belongs to an identifiable `verify` request.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// The offending request's `id`, when known.
        id: Option<String>,
        /// Human-readable detail.
        message: String,
    },
    /// Statistics snapshot.
    Stats(StatsReply),
    /// The metrics registry in Prometheus text exposition format.
    Metrics {
        /// The exposition text (multi-line; newline-escaped on the wire).
        text: String,
    },
    /// Answer to `ping`.
    Pong,
    /// Acknowledgement that the drain has begun.
    ShuttingDown,
}

impl Response {
    /// Serialises to one compact JSON line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        self.to_json().to_compact_string()
    }

    /// The JSON document for this response.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Response::Result(r) => {
                let mut obj = Json::object();
                obj.push("op", "result");
                if let Some(id) = &r.id {
                    obj.push("id", id.as_str());
                }
                obj.push("outcome", r.outcome.as_str());
                if let Some(n) = r.steps_checked {
                    push_u64(&mut obj, "steps_checked", n);
                }
                if let Some(n) = r.steps_total {
                    push_u64(&mut obj, "steps_total", n);
                }
                if let Some(reason) = &r.exhaust_reason {
                    obj.push("exhaust_reason", reason.as_str());
                }
                if let Some(step) = r.rejected_step {
                    push_u64(&mut obj, "rejected_step", step);
                }
                if let Some(detail) = &r.detail {
                    obj.push("detail", detail.as_str());
                }
                if let Some(n) = r.propagations {
                    push_u64(&mut obj, "propagations", n);
                }
                if let Some(ms) = r.latency_ms {
                    push_u64(&mut obj, "latency_ms", ms);
                }
                obj
            }
            Response::Error { code, id, message } => {
                let mut obj = Json::object();
                obj.push("op", "error");
                if let Some(id) = id {
                    obj.push("id", id.as_str());
                }
                obj.push("code", code.as_str());
                obj.push("message", message.as_str());
                obj
            }
            Response::Stats(s) => {
                let mut obj = Json::object();
                obj.push("op", "stats");
                push_u64(&mut obj, "protocol_version", PROTOCOL_VERSION);
                let mut counters = Json::object();
                for (name, value) in &s.counters {
                    push_u64(&mut counters, name, *value);
                }
                obj.push("counters", counters);
                push_u64(&mut obj, "queue_depth", s.queue_depth);
                push_u64(&mut obj, "in_flight", s.in_flight);
                obj.push(
                    "latency_ms",
                    Json::Array(
                        s.latency_buckets
                            .iter()
                            .map(|&(le, n)| {
                                let mut b = Json::object();
                                push_u64(&mut b, "le", le);
                                push_u64(&mut b, "count", n);
                                b
                            })
                            .collect(),
                    ),
                );
                let mut latency_us = Json::object();
                for (name, summary) in &s.latency_us {
                    latency_us.push(name.as_str(), summary.to_json());
                }
                obj.push("latency_us", latency_us);
                obj.push("draining", Json::Bool(s.draining));
                obj
            }
            Response::Metrics { text } => Json::object_from([
                ("op", Json::from("metrics")),
                ("text", Json::from(text.as_str())),
            ]),
            Response::Pong => Json::object_from([("op", Json::from("pong"))]),
            Response::ShuttingDown => Json::object_from([
                ("op", Json::from("shutdown")),
                ("draining", Json::Bool(true)),
            ]),
        }
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed lines.
    pub fn parse(line: &str) -> Result<Response, String> {
        let doc = obs::json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field `op`")?;
        let get_u64 = |doc: &Json, key: &str| {
            doc.get(key).and_then(Json::as_int).and_then(|n| u64::try_from(n).ok())
        };
        match op {
            "result" => Ok(Response::Result(JobResult {
                id: doc.get("id").and_then(Json::as_str).map(str::to_string),
                outcome: doc
                    .get("outcome")
                    .and_then(Json::as_str)
                    .ok_or("result without `outcome`")?
                    .to_string(),
                steps_checked: get_u64(&doc, "steps_checked"),
                steps_total: get_u64(&doc, "steps_total"),
                exhaust_reason: doc
                    .get("exhaust_reason")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                rejected_step: get_u64(&doc, "rejected_step"),
                detail: doc.get("detail").and_then(Json::as_str).map(str::to_string),
                propagations: get_u64(&doc, "propagations"),
                latency_ms: get_u64(&doc, "latency_ms"),
            })),
            "error" => Ok(Response::Error {
                code: doc
                    .get("code")
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::from_str)
                    .ok_or("error without a known `code`")?,
                id: doc.get("id").and_then(Json::as_str).map(str::to_string),
                message: doc
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            "stats" => {
                let counters = match doc.get("counters") {
                    Some(Json::Object(pairs)) => pairs
                        .iter()
                        .filter_map(|(k, v)| {
                            v.as_int()
                                .and_then(|n| u64::try_from(n).ok())
                                .map(|n| (k.clone(), n))
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                let latency_buckets = doc
                    .get("latency_ms")
                    .and_then(Json::as_array)
                    .map(|buckets| {
                        buckets
                            .iter()
                            .filter_map(|b| {
                                Some((get_u64(b, "le")?, get_u64(b, "count")?))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                // Forward-compat: an older server omits `latency_us`
                // entirely; a newer one may add summaries (or fields
                // inside a summary) this build doesn't know — both parse.
                let latency_us = match doc.get("latency_us") {
                    Some(Json::Object(pairs)) => pairs
                        .iter()
                        .map(|(k, v)| (k.clone(), LatencySummary::from_json(v)))
                        .collect(),
                    _ => Vec::new(),
                };
                Ok(Response::Stats(StatsReply {
                    counters,
                    queue_depth: get_u64(&doc, "queue_depth").unwrap_or(0),
                    in_flight: get_u64(&doc, "in_flight").unwrap_or(0),
                    latency_buckets,
                    latency_us,
                    draining: matches!(doc.get("draining"), Some(Json::Bool(true))),
                }))
            }
            "metrics" => Ok(Response::Metrics {
                text: doc
                    .get("text")
                    .and_then(Json::as_str)
                    .ok_or("metrics without `text`")?
                    .to_string(),
            }),
            "pong" => Ok(Response::Pong),
            "shutdown" => Ok(Response::ShuttingDown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// Pushes a `u64` as a JSON integer, saturating at `i64::MAX` (the JSON
/// model keeps integers in an `i64`).
fn push_u64(obj: &mut Json, key: &str, value: u64) {
    obj.push(key, Json::Int(i64::try_from(value).unwrap_or(i64::MAX)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_request_roundtrips() {
        let request = Request::Verify(VerifyRequest {
            id: Some("job-7".into()),
            formula: Some("p cnf 1 1\n1 0\n".into()),
            proof: Some("0\n".into()),
            mode: Some("all".into()),
            budget: BudgetSpec {
                max_propagations: Some(1000),
                timeout_ms: Some(50),
                ..BudgetSpec::default()
            },
            ..VerifyRequest::default()
        });
        let line = request.to_line();
        assert!(!line.contains('\n'), "one line per message");
        assert_eq!(Request::parse(&line), Ok(request));
    }

    #[test]
    fn proof_format_roundtrips_and_is_validated() {
        let request = Request::Verify(VerifyRequest {
            formula: Some("p cnf 1 1\n1 0\n".into()),
            proof: Some("0\n".into()),
            proof_format: Some("drat".into()),
            ..VerifyRequest::default()
        });
        let line = request.to_line();
        assert!(line.contains("proof_format"));
        assert_eq!(Request::parse(&line), Ok(request));
        // unknown formats are a parse-time bad request
        assert!(Request::parse(
            r#"{"op":"verify","formula":"p cnf 0 0\n","proof":"0\n","proof_format":"lisp"}"#
        )
        .is_err());
        // backward checking has no mode knob
        assert!(Request::parse(
            r#"{"op":"verify","formula":"p cnf 0 0\n","proof":"0\n","proof_format":"drat","mode":"all"}"#
        )
        .is_err());
        // absent field still parses (old clients)
        assert!(Request::parse(
            r#"{"op":"verify","formula":"p cnf 0 0\n","proof":"0\n"}"#
        )
        .is_ok());
    }

    #[test]
    fn control_requests_roundtrip() {
        for request in
            [Request::Stats, Request::Metrics, Request::Ping, Request::Shutdown]
        {
            assert_eq!(Request::parse(&request.to_line()), Ok(request));
        }
    }

    #[test]
    fn verify_without_formula_or_proof_is_rejected() {
        assert!(Request::parse(r#"{"op":"verify","proof":"0\n"}"#).is_err());
        assert!(Request::parse(r#"{"op":"verify","formula":"p cnf 0 0\n"}"#).is_err());
        let both = r#"{"op":"verify","formula":"x","formula_path":"y","proof":"0"}"#;
        assert!(Request::parse(both).is_err());
        let bad_mode =
            r#"{"op":"verify","formula":"x","proof":"0","mode":"sideways"}"#;
        assert!(Request::parse(bad_mode).is_err());
    }

    #[test]
    fn result_and_error_responses_roundtrip() {
        let result = Response::Result(JobResult {
            id: Some("a".into()),
            outcome: "exhausted".into(),
            steps_checked: Some(3),
            steps_total: Some(9),
            exhaust_reason: Some("propagations".into()),
            latency_ms: Some(12),
            ..JobResult::default()
        });
        assert_eq!(Response::parse(&result.to_line()), Ok(result));
        let error = Response::Error {
            code: ErrorCode::Overloaded,
            id: None,
            message: "queue full (capacity 4)".into(),
        };
        assert_eq!(Response::parse(&error.to_line()), Ok(error));
    }

    #[test]
    fn stats_response_roundtrips() {
        let stats = Response::Stats(StatsReply {
            counters: vec![("submitted".into(), 10), ("verified".into(), 7)],
            queue_depth: 2,
            in_flight: 1,
            latency_buckets: vec![(1, 3), (7, 4)],
            latency_us: vec![
                (
                    "queue_wait".into(),
                    LatencySummary {
                        count: 7,
                        p50: 120,
                        p90: 500,
                        p99: 900,
                        min: 80,
                        max: 950,
                    },
                ),
                ("e2e".into(), LatencySummary { count: 7, ..LatencySummary::default() }),
            ],
            draining: true,
        });
        assert_eq!(Response::parse(&stats.to_line()), Ok(stats));
        // absent draining flag (older server) parses as false
        let old = r#"{"op":"stats","counters":{},"queue_depth":0,"in_flight":0,"latency_ms":[]}"#;
        let Ok(Response::Stats(reply)) = Response::parse(old) else {
            panic!("old-server stats must parse");
        };
        assert!(!reply.draining);
    }

    #[test]
    fn batch_request_roundtrips() {
        let batch = Request::Batch(vec![
            VerifyRequest {
                id: Some("a".into()),
                formula: Some("p cnf 1 1\n1 0\n".into()),
                proof: Some("0\n".into()),
                ..VerifyRequest::default()
            },
            VerifyRequest {
                id: Some("b".into()),
                formula: Some("p cnf 1 1\n-1 0\n".into()),
                proof: Some("0\n".into()),
                budget: BudgetSpec {
                    max_propagations: Some(9),
                    ..BudgetSpec::default()
                },
                ..VerifyRequest::default()
            },
        ]);
        let line = batch.to_line();
        assert!(!line.contains('\n'), "one line per message");
        assert_eq!(Request::parse(&line), Ok(batch));
    }

    #[test]
    fn batch_validation_is_whole_line_strict() {
        // empty jobs array
        assert!(Request::parse(r#"{"op":"batch","jobs":[]}"#).is_err());
        // missing jobs entirely
        assert!(Request::parse(r#"{"op":"batch"}"#).is_err());
        // one malformed job (no proof) fails the whole batch, naming it
        let half_bad = r#"{"op":"batch","jobs":[{"formula":"p cnf 0 0\n","proof":"0\n"},{"formula":"p cnf 0 0\n"}]}"#;
        let err = Request::parse(half_bad).expect_err("half-bad batch rejected");
        assert!(err.contains("batch job 1"), "error names the job: {err}");
        // a job entry may redundantly carry op:"verify" (it is ignored)
        assert!(Request::parse(
            r#"{"op":"batch","jobs":[{"op":"verify","formula":"p cnf 0 0\n","proof":"0\n"}]}"#
        )
        .is_ok());
    }

    #[test]
    fn verify_body_jsonl_line_parses() {
        let body = r#"{"id":"j1","formula":"p cnf 0 0\n","proof":"0\n"}"#;
        let parsed = VerifyRequest::from_json_line(body).expect("body parses");
        assert_eq!(parsed.id.as_deref(), Some("j1"));
        // a non-verify op in a job file is an error
        assert!(VerifyRequest::from_json_line(r#"{"op":"stats"}"#).is_err());
    }

    #[test]
    fn metrics_response_roundtrips_with_newlines() {
        let metrics = Response::Metrics {
            text: "# TYPE a counter\na 1\n# TYPE b gauge\nb -2\n".into(),
        };
        let line = metrics.to_line();
        assert!(!line.contains('\n'), "newlines are escaped on the wire");
        assert_eq!(Response::parse(&line), Ok(metrics));
    }

    #[test]
    fn stats_parser_tolerates_version_skew() {
        // An older server: no `latency_us` at all.
        let old = r#"{"op":"stats","protocol_version":1,"counters":{"submitted":3},"queue_depth":0,"in_flight":0,"latency_ms":[]}"#;
        let Ok(Response::Stats(reply)) = Response::parse(old) else {
            panic!("old-server stats must parse");
        };
        assert_eq!(reply.counter("submitted"), Some(3));
        assert!(reply.latency_us.is_empty());
        assert_eq!(reply.latency("queue_wait"), None);

        // A newer server: unknown top-level fields, unknown summary
        // names, and unknown fields inside a summary.
        let new = r#"{"op":"stats","protocol_version":1,"counters":{"submitted":3},"queue_depth":1,"in_flight":0,"latency_ms":[],"latency_us":{"queue_wait":{"count":3,"p50":10,"p90":20,"p99":30,"min":5,"max":31,"p999":31},"warp_drive":{"count":1,"p50":2,"p90":2,"p99":2,"min":2,"max":2}},"future_field":{"nested":true}}"#;
        let Ok(Response::Stats(reply)) = Response::parse(new) else {
            panic!("newer-server stats must parse");
        };
        assert_eq!(
            reply.latency("queue_wait"),
            Some(&LatencySummary { count: 3, p50: 10, p90: 20, p99: 30, min: 5, max: 31 })
        );
        assert!(reply.latency("warp_drive").is_some(), "unknown names kept");
    }

    #[test]
    fn request_parser_ignores_unknown_fields() {
        assert_eq!(
            Request::parse(r#"{"op":"stats","verbose":true,"extra":{"x":1}}"#),
            Ok(Request::Stats)
        );
        assert_eq!(
            Request::parse(r#"{"op":"metrics","format":"prometheus"}"#),
            Ok(Request::Metrics)
        );
    }

    #[test]
    fn budget_resolves_over_server_default() {
        let spec = BudgetSpec {
            max_propagations: Some(5),
            ..BudgetSpec::default()
        };
        let base = Budget::unlimited().max_clause_visits(99);
        let resolved = spec.resolve(&base);
        assert_eq!(resolved.max_propagations, 5);
        assert_eq!(resolved.max_clause_visits, 99);
        assert_eq!(resolved.timeout, None);
    }

    #[test]
    fn request_lines_lose_their_line_end_and_name_a_bad_byte() {
        for end in ["\r\n", "\n", "\r"] {
            let line = format!("{{\"op\":\"ping\"}}{end}");
            assert_eq!(parse_request_line(line.as_bytes()), Some(Ok(Request::Ping)));
        }
        for blank in [&b"\n"[..], b"\r\n", b"  \t\n", b""] {
            assert_eq!(parse_request_line(blank), None);
        }
        let Some(Err(err)) = parse_request_line(b"{\"op\":\"ping\" \xff\xfe}\n") else {
            panic!("not UTF-8");
        };
        assert!(err.contains("offset 13"), "{err}");
        // a truncated multi-byte character is not UTF-8 either
        assert!(matches!(parse_request_line(b"\"\xc3\""), Some(Err(_))));
        // valid multi-byte text reaches the JSON parser
        let Some(Err(err)) = parse_request_line("\"päivä\"".as_bytes()) else {
            panic!("not a request");
        };
        assert!(err.contains("op"), "{err}");
    }

    #[test]
    fn each_line_is_handed_over_until_a_handler_fails() {
        let mut seen = Vec::new();
        for_each_line(&b"a\nb\r\n\nlast"[..], |line| {
            seen.push(line.to_vec());
            Ok(())
        });
        assert_eq!(seen, [&b"a\n"[..], b"b\r\n", b"\n", b"last"]);
        let mut calls = 0;
        for_each_line(&b"a\nb\n"[..], |_| {
            calls += 1;
            Err(io::ErrorKind::BrokenPipe.into())
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn verify_fields_are_taken_from_the_first_occurrence() {
        let line = r#"{"op":"verify","formula":1,"formula":"p cnf 0 0\n","proof":"0\n","proof":"1 0\n","formula_path":"f"}"#;
        // the first `formula` is not a string, so only the path counts
        let Ok(Request::Verify(v)) = Request::parse(line) else {
            panic!("parses");
        };
        assert_eq!(v.formula, None);
        assert_eq!(v.formula_path.as_deref(), Some("f"));
        assert_eq!(v.proof.as_deref(), Some("0\n"));
    }

    #[test]
    fn unknown_op_is_an_error_not_a_panic() {
        assert!(Request::parse(r#"{"op":"frobnicate"}"#).is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Response::parse(r#"{"op":"???"}"#).is_err());
    }
}
