//! The fault-tolerant verification runtime.
//!
//! The paper's whole argument is that the checker is a separate, simple,
//! *trustworthy* program — but trustworthiness at production scale also
//! means never confusing "I ran out of resources" with "the proof is
//! wrong", surviving a killed run, and not letting one crashed worker
//! abort hours of checking. This module provides that runtime:
//!
//! * [`Budget`] — deterministic propagation/clause-visit caps, an arena
//!   memory cap, and an optional wall-clock deadline;
//! * [`CancelToken`] — a shared flag polled inside the BCP loop for
//!   cooperative cancellation;
//! * [`Outcome`] — the three-way verdict taxonomy. `Exhausted` is a
//!   *distinct* outcome: a timed-out run can never be reported as either
//!   "valid" ([`Outcome::Verified`]) or "invalid" ([`Outcome::Rejected`]);
//! * [`Checkpoint`] — serialized checker progress (marks bitmap, loop
//!   position, budget spent) so an interrupted run resumes where it
//!   stopped and finishes with a report equal, modulo timing fields, to
//!   an uninterrupted run;
//! * [`FaultPlan`] — a test-only fault-injection hook (worker panics,
//!   budget starvation, slow workers) used to prove the parallel checker
//!   degrades gracefully without ever changing a verdict.
//!
//! # Examples
//!
//! A budget too small to finish yields `Exhausted`, never a verdict:
//!
//! ```
//! use cnf::{Clause, CnfFormula};
//! use proofver::{verify_harnessed, Budget, CheckMode, Harness, Outcome};
//!
//! let f = CnfFormula::from_dimacs_clauses(&[
//!     vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2],
//! ]);
//! let proof = vec![Clause::from_dimacs(&[2]), Clause::from_dimacs(&[-2])].into();
//! let harness = Harness::with_budget(Budget::unlimited().max_propagations(1));
//! let outcome = verify_harnessed(&f, &proof, CheckMode::MarkedOnly, &harness);
//! assert!(matches!(outcome, Outcome::Exhausted { .. }));
//! ```

use std::fmt;
use std::io::{Read as _, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bcp::{Fuel, Stopped};
use cnf::CnfFormula;

use crate::checker::{CheckMode, Checker, Verification};
use crate::error::VerifyError;
use crate::proof::ConflictClauseProof;

/// Resource limits for a verification run.
///
/// The propagation and clause-visit caps are *deterministic*: two runs of
/// the same checker with the same caps stop at exactly the same point,
/// which makes budget exhaustion reproducible and checkpoints meaningful.
/// The deadline and [`CancelToken`] are wall-clock/external signals,
/// polled every [`bcp::WatchedPropagator::POLL_INTERVAL`] propagations.
///
/// In parallel mode the deterministic caps apply *per worker* (each
/// worker owns a private engine), while the deadline and cancellation
/// token are shared by all workers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Maximum literals propagated (queue pops); `u64::MAX` = unlimited.
    pub max_propagations: u64,
    /// Maximum watched-clause look-ups; `u64::MAX` = unlimited.
    pub max_clause_visits: u64,
    /// Maximum clause-arena size in bytes (checked up front, per engine
    /// copy); `u64::MAX` = unlimited.
    pub max_arena_bytes: u64,
    /// Wall-clock time limit for the whole run.
    pub timeout: Option<Duration>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// No limits at all.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget {
            max_propagations: u64::MAX,
            max_clause_visits: u64::MAX,
            max_arena_bytes: u64::MAX,
            timeout: None,
        }
    }

    /// Caps the number of literals propagated.
    #[must_use]
    pub fn max_propagations(mut self, n: u64) -> Self {
        self.max_propagations = n;
        self
    }

    /// Caps the number of watched-clause look-ups.
    #[must_use]
    pub fn max_clause_visits(mut self, n: u64) -> Self {
        self.max_clause_visits = n;
        self
    }

    /// Caps the clause-arena size in bytes.
    #[must_use]
    pub fn max_arena_bytes(mut self, n: u64) -> Self {
        self.max_arena_bytes = n;
        self
    }

    /// Sets a wall-clock deadline for the run.
    #[must_use]
    pub fn timeout(mut self, limit: Duration) -> Self {
        self.timeout = Some(limit);
        self
    }
}

/// A shared cooperative-cancellation flag.
///
/// Cloning is cheap (an `Arc`); any clone can cancel and all holders
/// observe it. The checker polls the flag inside its BCP loop, so
/// cancellation takes effect within one poll interval.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    pub(crate) fn flag(&self) -> &AtomicBool {
        &self.flag
    }
}

/// Why a run stopped without reaching a verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExhaustReason {
    /// The propagation cap was hit.
    Propagations,
    /// The clause-visit cap was hit.
    ClauseVisits,
    /// The clause arena exceeded the memory cap.
    Memory,
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelToken`] was triggered.
    Cancelled,
    /// A parallel worker failed persistently, even after the bounded
    /// sequential retries — the run could not complete, but no evidence
    /// against the proof was found either.
    WorkerFailure,
}

impl ExhaustReason {
    /// Stable machine-readable name (used in JSON reports).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ExhaustReason::Propagations => "propagations",
            ExhaustReason::ClauseVisits => "clause-visits",
            ExhaustReason::Memory => "memory",
            ExhaustReason::Deadline => "deadline",
            ExhaustReason::Cancelled => "cancelled",
            ExhaustReason::WorkerFailure => "worker-failure",
        }
    }
}

impl From<Stopped> for ExhaustReason {
    fn from(s: Stopped) -> Self {
        match s {
            Stopped::Propagations => ExhaustReason::Propagations,
            Stopped::ClauseVisits => ExhaustReason::ClauseVisits,
            Stopped::Deadline => ExhaustReason::Deadline,
            Stopped::Cancelled => ExhaustReason::Cancelled,
        }
    }
}

impl fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How far an exhausted run got before it stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Conflict-clause checks completed.
    pub steps_checked: usize,
    /// Conflict clauses in the proof.
    pub steps_total: usize,
    /// Literals propagated (cumulative across resumes).
    pub propagations: u64,
    /// Watched-clause look-ups (cumulative across resumes).
    pub clause_visits: u64,
}

/// The three-way result of a harnessed verification run.
///
/// The taxonomy is deliberate: a run that stops early carries neither a
/// "valid" nor an "invalid" claim. There is no conversion from
/// [`Outcome::Exhausted`] to the other variants, so a timeout can never
/// be coerced into a verdict.
#[derive(Debug)]
pub enum Outcome {
    /// Every required check passed; the proof is a refutation.
    Verified(Verification),
    /// A check failed: the proof is not correct. `step` pinpoints the
    /// offending conflict clause (`None` when the refutation itself — the
    /// terminal conflict — is missing).
    Rejected {
        /// Zero-based chronological proof index of the failing clause,
        /// if a specific clause failed.
        step: Option<usize>,
        /// The underlying verification error.
        error: VerifyError,
    },
    /// The run stopped before reaching a verdict.
    Exhausted {
        /// What limit was hit.
        reason: ExhaustReason,
        /// How far the run got.
        progress: Progress,
        /// Serialized state to resume from, when the interruption point
        /// supports it (sequential runs only).
        checkpoint: Option<Box<Checkpoint>>,
    },
}

impl Outcome {
    /// The verification result, if the proof was verified.
    #[must_use]
    pub fn verified(&self) -> Option<&Verification> {
        match self {
            Outcome::Verified(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the proof was verified.
    #[must_use]
    pub fn is_verified(&self) -> bool {
        matches!(self, Outcome::Verified(_))
    }

    /// Whether the run exhausted its budget (no verdict).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        matches!(self, Outcome::Exhausted { .. })
    }
}

/// The configuration of a harnessed run: budget, cancellation, fault
/// injection, and retry policy.
#[derive(Debug)]
pub struct Harness {
    /// Resource limits.
    pub budget: Budget,
    /// Cooperative cancellation; clone the token to keep a handle.
    pub cancel: CancelToken,
    /// Fault injection (tests only; [`FaultPlan::none`] in production).
    pub faults: FaultPlan,
    /// How many sequential retries a failed parallel slice gets before
    /// the run degrades to a full sequential pass.
    pub max_slice_retries: u32,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
            faults: FaultPlan::none(),
            max_slice_retries: DEFAULT_SLICE_RETRIES,
        }
    }
}

impl Harness {
    /// A harness with the given budget and default policies.
    #[must_use]
    pub fn with_budget(budget: Budget) -> Self {
        Harness { budget, ..Harness::default() }
    }

    /// The fuel of a run started at `start`, which has already spent
    /// `spent` propagations and clause visits (a resumed run's).
    pub(crate) fn fuel(&self, start: Instant, spent: (u64, u64)) -> Fuel<'_> {
        Fuel {
            used_propagations: spent.0,
            used_clause_visits: spent.1,
            max_propagations: self.budget.max_propagations,
            max_clause_visits: self.budget.max_clause_visits,
            deadline: self.budget.timeout.map(|t| start + t),
            cancel: Some(self.cancel.flag()),
        }
    }
}

/// Default number of sequential retries per failed parallel slice.
pub const DEFAULT_SLICE_RETRIES: u32 = 2;

/// A reusable rendezvous point for deterministic concurrency tests.
///
/// A gate starts closed. A worker parks in [`Gate::wait`] until some
/// other thread calls [`Gate::open`]; the test side can block in
/// [`Gate::await_blocked`] until at least one worker has actually
/// arrived at the gate. This gives tests a way to *know* a job is
/// in flight — no sleeps, no racing on thread scheduling.
///
/// Opening is one-way: once opened, every current and future
/// [`Gate::wait`] returns immediately.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    state: Arc<(Mutex<GateState>, std::sync::Condvar)>,
}

#[derive(Debug, Default)]
struct GateState {
    open: bool,
    waiters: usize,
}

impl Gate {
    /// A fresh, closed gate.
    #[must_use]
    pub fn new() -> Self {
        Gate::default()
    }

    /// Opens the gate, releasing every current and future waiter.
    /// Idempotent.
    pub fn open(&self) {
        let (lock, cvar) = &*self.state;
        lock.lock().expect("gate lock").open = true;
        cvar.notify_all();
    }

    /// Blocks until the gate is opened. Returns immediately if it
    /// already is.
    pub fn wait(&self) {
        let (lock, cvar) = &*self.state;
        let mut state = lock.lock().expect("gate lock");
        state.waiters += 1;
        cvar.notify_all();
        while !state.open {
            state = cvar.wait(state).expect("gate lock");
        }
    }

    /// Blocks until at least `n` threads have arrived at [`Gate::wait`]
    /// (cumulative, including waiters already released).
    pub fn await_blocked(&self, n: usize) {
        let (lock, cvar) = &*self.state;
        let mut state = lock.lock().expect("gate lock");
        while state.waiters < n {
            state = cvar.wait(state).expect("gate lock");
        }
    }
}

/// Fault injection for the parallel checker, exercised by the
/// fault-injection test suite. Faults are keyed by *slice index*; a
/// production run uses [`FaultPlan::none`] (the default), which injects
/// nothing and costs one branch per slice.
#[derive(Debug, Default)]
pub struct FaultPlan {
    panic_slices: Vec<usize>,
    /// Number of attempts (first run + retries) that panic before the
    /// fault "heals"; `u32::MAX` = the slice panics forever.
    panic_attempts: u32,
    slow_slices: Vec<(usize, u64)>,
    starve_slices: Vec<usize>,
    /// Per-slice attempt counts, shared across workers and retries.
    attempts: Mutex<Vec<(usize, u32)>>,
    /// When armed, [`FaultPlan::before_run`] parks on this gate until a
    /// test opens it — a deterministic way to hold a verification run
    /// "in flight" without sleeping.
    hold: Option<Gate>,
    /// I/O fault: reads whose range covers this byte offset fail with an
    /// injected EIO for the first `attempts` such reads.
    fail_read: Option<(u64, u32)>,
    /// Reads attempted against the armed [`FaultPlan::fail_read`] fault.
    read_attempts: Mutex<u32>,
    /// I/O fault: every chunked read returns at most this many bytes,
    /// exercising the reader's short-read refill loop.
    short_read_cap: Option<usize>,
    /// I/O fault: checkpoint writes persist only the first `bytes` bytes
    /// of the payload to the temp file and then fail, for the first
    /// `attempts` writes — a simulated crash mid-write.
    torn_write: Option<(usize, u32)>,
    /// Writes attempted against the armed torn-write fault.
    write_attempts: Mutex<u32>,
}

impl FaultPlan {
    /// No faults (the production plan).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Panics the worker for `slice` on its first `attempts` runs.
    #[must_use]
    pub fn panic_on_slice(mut self, slice: usize, attempts: u32) -> Self {
        self.panic_slices.push(slice);
        self.panic_attempts = self.panic_attempts.max(attempts);
        self
    }

    /// Delays the worker for `slice` by `millis` before it starts.
    #[must_use]
    pub fn slow_slice(mut self, slice: usize, millis: u64) -> Self {
        self.slow_slices.push((slice, millis));
        self
    }

    /// Starves the worker for `slice` of all deterministic fuel: its
    /// budget allows zero propagations, so it reports `Exhausted`.
    #[must_use]
    pub fn starve_slice(mut self, slice: usize) -> Self {
        self.starve_slices.push(slice);
        self
    }

    /// Parks [`FaultPlan::before_run`] on `gate` until the gate is
    /// opened. Used by service tests to deterministically hold a job in
    /// flight (the test side pairs this with [`Gate::await_blocked`]).
    #[must_use]
    pub fn hold_before_run(mut self, gate: Gate) -> Self {
        self.hold = Some(gate);
        self
    }

    /// Fails the first `attempts` reads whose byte range covers
    /// `offset` with an injected EIO. The streaming proof reader
    /// surfaces this as a `Failed` outcome — never a verdict.
    #[must_use]
    pub fn fail_read_at(mut self, offset: u64, attempts: u32) -> Self {
        self.fail_read = Some((offset, attempts));
        self
    }

    /// Caps every chunked read at `cap` bytes, forcing the reader
    /// through its short-read refill loop.
    #[must_use]
    pub fn short_reads(mut self, cap: usize) -> Self {
        self.short_read_cap = Some(cap.max(1));
        self
    }

    /// Makes the first `attempts` checkpoint writes tear: only the first
    /// `bytes` bytes of the payload reach the temp file before the write
    /// fails. With atomic write-rename the previous checkpoint must
    /// survive intact.
    #[must_use]
    pub fn torn_write_after(mut self, bytes: usize, attempts: u32) -> Self {
        self.torn_write = Some((bytes, attempts));
        self
    }

    /// Whether any fault is configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.panic_slices.is_empty()
            && self.slow_slices.is_empty()
            && self.starve_slices.is_empty()
            && self.hold.is_none()
            && self.fail_read.is_none()
            && self.short_read_cap.is_none()
            && self.torn_write.is_none()
    }

    /// Runs the injection hook for the start of a whole harnessed run:
    /// blocks on the [`hold_before_run`](FaultPlan::hold_before_run)
    /// gate when one is armed, otherwise returns immediately (one
    /// branch — the production cost).
    pub fn before_run(&self) {
        if let Some(gate) = &self.hold {
            gate.wait();
        }
    }

    /// Runs the injection hook for one slice attempt. May sleep (slow
    /// fault) or panic (panic fault, until its attempt count is spent);
    /// returns `true` when the slice's budget should be starved.
    ///
    /// # Panics
    ///
    /// Panics deliberately when a panic fault is armed for this slice —
    /// that is the injected fault.
    pub(crate) fn before_slice(&self, slice: usize) -> bool {
        if let Some(&(_, millis)) =
            self.slow_slices.iter().find(|&&(s, _)| s == slice)
        {
            std::thread::sleep(Duration::from_millis(millis));
        }
        if self.panic_slices.contains(&slice) {
            let attempt = {
                let mut attempts =
                    self.attempts.lock().expect("fault plan lock");
                match attempts.iter_mut().find(|(s, _)| *s == slice) {
                    Some((_, n)) => {
                        *n += 1;
                        *n
                    }
                    None => {
                        attempts.push((slice, 1));
                        1
                    }
                }
            };
            if attempt <= self.panic_attempts {
                panic!(
                    "injected fault: worker panic on slice {slice} \
                     (attempt {attempt})"
                );
            }
        }
        self.starve_slices.contains(&slice)
    }

    /// Injection hook for one chunked read of `[start, start + len)`.
    /// Returns an error message when the armed read fault fires.
    pub(crate) fn read_fault(&self, start: u64, len: usize) -> Option<String> {
        let (offset, max_attempts) = self.fail_read?;
        if start <= offset && offset < start + len as u64 {
            let mut attempts = self.read_attempts.lock().expect("fault plan lock");
            if *attempts < max_attempts {
                *attempts += 1;
                let attempt = *attempts;
                return Some(format!(
                    "injected fault: EIO reading proof byte {offset} \
                     (attempt {attempt})"
                ));
            }
        }
        None
    }

    /// Injection hook: the per-read byte cap, when short reads are armed.
    pub(crate) fn read_cap(&self) -> Option<usize> {
        self.short_read_cap
    }

    /// Injection hook for one checkpoint write. Returns `Some(bytes)`
    /// when this write should tear after `bytes` bytes.
    pub(crate) fn write_fault(&self) -> Option<usize> {
        let (bytes, max_attempts) = self.torn_write?;
        let mut attempts = self.write_attempts.lock().expect("fault plan lock");
        if *attempts < max_attempts {
            *attempts += 1;
            return Some(bytes);
        }
        None
    }
}

/// Writes `bytes` to `path` atomically: the payload goes to a sibling
/// `<name>.tmp` file which is persisted and then renamed over `path`, so
/// a crash mid-write (or an injected torn write) can never leave a
/// half-written file at `path` — the previous version survives intact.
pub(crate) fn atomic_write(
    path: &Path,
    bytes: &[u8],
    faults: Option<&FaultPlan>,
) -> std::io::Result<()> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let mut file = std::fs::File::create(&tmp)?;
    if let Some(keep) = faults.and_then(FaultPlan::write_fault) {
        let keep = keep.min(bytes.len());
        file.write_all(&bytes[..keep])?;
        let _ = file.sync_all();
        return Err(std::io::Error::other(format!(
            "injected fault: torn write after {keep} bytes"
        )));
    }
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)
}

/// Serialized progress of an interrupted sequential verification run.
///
/// A checkpoint is taken at a *check boundary*: the marks bitmap reflects
/// only completed checks (an interrupted check leaves no trace and is
/// redone on resume), so resuming replays the exact remaining schedule of
/// the uninterrupted run. The formula and proof fingerprints guard
/// against resuming with mismatched inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// The verification procedure the run was using.
    pub mode: CheckMode,
    /// FNV-1a fingerprint of the original formula.
    pub formula_hash: u64,
    /// Clause count of the original formula.
    pub formula_clauses: usize,
    /// FNV-1a fingerprint of the proof.
    pub proof_hash: u64,
    /// Clause count of the proof.
    pub proof_clauses: usize,
    /// Whether the terminal (refutation) check completed. In backward
    /// modes it runs before the per-clause loop; in forward mode, after.
    pub terminal_done: bool,
    /// Position in the mode's canonical visit order of the next step to
    /// process (checks before it are reflected in `marks`).
    pub next_pos: usize,
    /// Conflict-clause checks completed so far.
    pub num_checked: usize,
    /// Propagations spent so far (carried into the resumed run's budget).
    pub spent_propagations: u64,
    /// Clause visits spent so far.
    pub spent_clause_visits: u64,
    /// Mark bitmap over the arena (`formula_clauses + proof_clauses`
    /// bits): which clauses participated in a conflict cone so far.
    pub marks: Vec<bool>,
}

/// Schema version of the checkpoint JSON document.
const CHECKPOINT_VERSION: i64 = 1;

/// Failure to load, parse, or apply a checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the checkpoint file failed.
    Io(String),
    /// The file is not a valid checkpoint document; the message names
    /// the missing or malformed field.
    Malformed(String),
    /// The checkpoint belongs to a different formula or proof than the
    /// one being resumed; the field names what disagreed.
    Mismatch(&'static str),
    /// The checkpoint was written by an incompatible schema version.
    UnsupportedVersion(i64),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Malformed(what) => {
                write!(f, "malformed checkpoint: {what}")
            }
            CheckpointError::Mismatch(field) => write!(
                f,
                "checkpoint does not match the inputs being resumed \
                 (mismatched {field})"
            ),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn mode_name(mode: CheckMode) -> &'static str {
    match mode {
        CheckMode::All => "all",
        CheckMode::MarkedOnly => "marked-only",
        CheckMode::AllForward => "all-forward",
    }
}

fn mode_from_name(name: &str) -> Option<CheckMode> {
    match name {
        "all" => Some(CheckMode::All),
        "marked-only" => Some(CheckMode::MarkedOnly),
        "all-forward" => Some(CheckMode::AllForward),
        _ => None,
    }
}

/// Packs a bit vector into a lowercase hex string, LSB-first per byte.
pub(crate) fn marks_to_hex(marks: &[bool]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(marks.len().div_ceil(8) * 2);
    for chunk in marks.chunks(8) {
        let mut byte = 0u8;
        for (i, &bit) in chunk.iter().enumerate() {
            if bit {
                byte |= 1 << i;
            }
        }
        let _ = write!(out, "{byte:02x}");
    }
    out
}

pub(crate) fn marks_from_hex(hex: &str, len: usize) -> Option<Vec<bool>> {
    if hex.len() != len.div_ceil(8) * 2 {
        return None;
    }
    let mut marks = Vec::with_capacity(len);
    for i in (0..hex.len()).step_by(2) {
        let byte = u8::from_str_radix(hex.get(i..i + 2)?, 16).ok()?;
        for bit in 0..8 {
            if marks.len() < len {
                marks.push(byte & (1 << bit) != 0);
            } else if byte & (1 << bit) != 0 {
                return None; // padding bits must be zero
            }
        }
    }
    Some(marks)
}

impl Checkpoint {
    /// Serializes the checkpoint as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> obs::json::Json {
        use obs::json::Json;
        Json::object_from([
            ("schema_version", Json::Int(CHECKPOINT_VERSION)),
            ("kind", Json::from("proofver-checkpoint")),
            ("mode", Json::from(mode_name(self.mode))),
            ("formula_hash", Json::from(format!("{:016x}", self.formula_hash))),
            ("formula_clauses", Json::from(self.formula_clauses)),
            ("proof_hash", Json::from(format!("{:016x}", self.proof_hash))),
            ("proof_clauses", Json::from(self.proof_clauses)),
            ("terminal_done", Json::Bool(self.terminal_done)),
            ("next_pos", Json::from(self.next_pos)),
            ("num_checked", Json::from(self.num_checked)),
            ("spent_propagations", Json::from(self.spent_propagations)),
            ("spent_clause_visits", Json::from(self.spent_clause_visits)),
            ("marks", Json::from(marks_to_hex(&self.marks))),
        ])
    }

    /// Deserializes a checkpoint from its JSON document.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] naming the offending field, or
    /// [`CheckpointError::UnsupportedVersion`].
    pub fn from_json(doc: &obs::json::Json) -> Result<Self, CheckpointError> {
        let field = |key: &'static str| {
            doc.get(key)
                .ok_or(CheckpointError::Malformed(format!("missing field `{key}`")))
        };
        let int = |key: &'static str| -> Result<i64, CheckpointError> {
            field(key)?
                .as_int()
                .ok_or(CheckpointError::Malformed(format!("field `{key}` is not an integer")))
        };
        let uint = |key: &'static str| -> Result<u64, CheckpointError> {
            u64::try_from(int(key)?).map_err(|_| {
                CheckpointError::Malformed(format!("field `{key}` is negative"))
            })
        };
        let version = int("schema_version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let kind = field("kind")?.as_str().ok_or(CheckpointError::Malformed(
            "field `kind` is not a string".into(),
        ))?;
        if kind != "proofver-checkpoint" {
            return Err(CheckpointError::Malformed(format!(
                "not a verification checkpoint (kind `{kind}`)"
            )));
        }
        let mode_text = field("mode")?
            .as_str()
            .ok_or(CheckpointError::Malformed("field `mode` is not a string".into()))?;
        let mode = mode_from_name(mode_text).ok_or_else(|| {
            CheckpointError::Malformed(format!("unknown mode `{mode_text}`"))
        })?;
        let hash = |key: &'static str| -> Result<u64, CheckpointError> {
            let text = field(key)?.as_str().ok_or(CheckpointError::Malformed(
                format!("field `{key}` is not a string"),
            ))?;
            u64::from_str_radix(text, 16).map_err(|_| {
                CheckpointError::Malformed(format!("field `{key}` is not a hex hash"))
            })
        };
        let formula_clauses = usize::try_from(uint("formula_clauses")?)
            .map_err(|_| CheckpointError::Malformed("formula_clauses overflows".into()))?;
        let proof_clauses = usize::try_from(uint("proof_clauses")?)
            .map_err(|_| CheckpointError::Malformed("proof_clauses overflows".into()))?;
        let arena = formula_clauses.checked_add(proof_clauses).ok_or(
            CheckpointError::Malformed("clause counts overflow".into()),
        )?;
        let marks_hex = field("marks")?
            .as_str()
            .ok_or(CheckpointError::Malformed("field `marks` is not a string".into()))?;
        let marks = marks_from_hex(marks_hex, arena).ok_or(
            CheckpointError::Malformed("field `marks` has the wrong length or padding".into()),
        )?;
        let obs::json::Json::Bool(terminal_done) = *field("terminal_done")? else {
            return Err(CheckpointError::Malformed(
                "field `terminal_done` is not a boolean".into(),
            ));
        };
        Ok(Checkpoint {
            mode,
            formula_hash: hash("formula_hash")?,
            formula_clauses,
            proof_hash: hash("proof_hash")?,
            proof_clauses,
            terminal_done,
            next_pos: usize::try_from(uint("next_pos")?)
                .map_err(|_| CheckpointError::Malformed("next_pos overflows".into()))?,
            num_checked: usize::try_from(uint("num_checked")?)
                .map_err(|_| CheckpointError::Malformed("num_checked overflows".into()))?,
            spent_propagations: uint("spent_propagations")?,
            spent_clause_visits: uint("spent_clause_visits")?,
            marks,
        })
    }

    /// Writes the checkpoint to `path` as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let text = self.to_json().to_pretty_string();
        atomic_write(path, text.as_bytes(), None)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads a checkpoint back from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures,
    /// [`CheckpointError::Malformed`] when the file is not a valid
    /// checkpoint document.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let mut text = String::new();
        std::fs::File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        let doc = obs::json::parse(&text).map_err(|e| {
            CheckpointError::Malformed(format!("not valid JSON: {e}"))
        })?;
        Checkpoint::from_json(&doc)
    }

    /// Validates that this checkpoint belongs to the given inputs.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] naming the disagreeing field, or
    /// [`CheckpointError::Malformed`] when the marks bitmap does not
    /// cover the formula and proof clauses.
    pub fn validate(
        &self,
        formula: &CnfFormula,
        proof: &ConflictClauseProof,
    ) -> Result<(), CheckpointError> {
        if self.formula_clauses != formula.num_clauses() {
            return Err(CheckpointError::Mismatch("formula clause count"));
        }
        if self.proof_clauses != proof.len() {
            return Err(CheckpointError::Mismatch("proof clause count"));
        }
        if self.formula_hash != formula_fingerprint(formula) {
            return Err(CheckpointError::Mismatch("formula fingerprint"));
        }
        if self.proof_hash != proof_fingerprint(proof) {
            return Err(CheckpointError::Mismatch("proof fingerprint"));
        }
        // the fields are public, so `marks` may have any length, and the
        // resumed run copies it over one mark per clause
        if self.marks.len() != formula.num_clauses() + proof.len() {
            return Err(CheckpointError::Malformed(
                "field `marks` does not cover the formula and proof clauses".into(),
            ));
        }
        if self.next_pos > self.proof_clauses {
            return Err(CheckpointError::Mismatch("resume position"));
        }
        Ok(())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a fingerprint of a formula's clause structure (order-sensitive).
#[must_use]
pub fn formula_fingerprint(formula: &CnfFormula) -> u64 {
    let mut hash = FNV_OFFSET;
    for clause in formula.iter() {
        for &lit in clause.lits() {
            fnv1a(&mut hash, u64::from(lit.code()) + 1);
        }
        fnv1a(&mut hash, 0); // clause separator
    }
    hash
}

/// FNV-1a fingerprint of a proof's clause structure (order-sensitive).
#[must_use]
pub fn proof_fingerprint(proof: &ConflictClauseProof) -> u64 {
    let mut hash = FNV_OFFSET;
    for clause in proof.iter() {
        for &lit in clause.lits() {
            fnv1a(&mut hash, u64::from(lit.code()) + 1);
        }
        fnv1a(&mut hash, 0);
    }
    hash
}

/// Verifies `proof` against `formula` under the harness: the run obeys
/// the budget and cancellation token and reports a three-way [`Outcome`]
/// instead of collapsing "ran out of resources" into a verdict.
///
/// On [`Outcome::Exhausted`] the embedded [`Checkpoint`] (when present)
/// can be passed to [`resume_verification`] to continue from where the
/// run stopped.
#[must_use]
pub fn verify_harnessed(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
    mode: CheckMode,
    harness: &Harness,
) -> Outcome {
    verify_harnessed_with_engine(
        formula,
        proof,
        mode,
        harness,
        bcp::PropagatorChoice::Watched,
    )
}

/// [`verify_harnessed`] on an explicitly chosen BCP engine.
///
/// Checkpoint caveat: a checkpoint's `spent_propagations` /
/// `spent_clause_visits` are engine-specific (the engines do different
/// amounts of work per check), so a run should be resumed on the engine
/// that produced the checkpoint.
#[must_use]
pub fn verify_harnessed_with_engine(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
    mode: CheckMode,
    harness: &Harness,
    engine: bcp::PropagatorChoice,
) -> Outcome {
    match engine {
        bcp::PropagatorChoice::Watched => {
            Checker::new(formula, proof).run_harnessed(mode, None, harness, None)
        }
        bcp::PropagatorChoice::ArenaWatched => {
            Checker::<bcp::ArenaWatchedPropagator>::with_engine(formula, proof)
                .run_harnessed(mode, None, harness, None)
        }
    }
}

/// Resumes an interrupted verification run from `checkpoint`. The final
/// report of a resumed run equals the report of an uninterrupted run,
/// modulo timing and engine-diagnostic fields (see
/// [`VerificationReport::semantically_eq`](crate::VerificationReport::semantically_eq)).
///
/// # Errors
///
/// [`CheckpointError::Mismatch`] when the checkpoint does not belong to
/// `formula`/`proof`, [`CheckpointError::Malformed`] when its marks
/// bitmap does not fit them.
pub fn resume_verification(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
    checkpoint: &Checkpoint,
    harness: &Harness,
) -> Result<Outcome, CheckpointError> {
    resume_verification_with_engine(
        formula,
        proof,
        checkpoint,
        harness,
        bcp::PropagatorChoice::Watched,
    )
}

/// [`resume_verification`] on an explicitly chosen BCP engine. Use the
/// engine that produced the checkpoint — the spent-fuel counters it
/// carries are engine-specific.
///
/// # Errors
///
/// See [`resume_verification`].
pub fn resume_verification_with_engine(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
    checkpoint: &Checkpoint,
    harness: &Harness,
    engine: bcp::PropagatorChoice,
) -> Result<Outcome, CheckpointError> {
    checkpoint.validate(formula, proof)?;
    let mode = checkpoint.mode;
    Ok(match engine {
        bcp::PropagatorChoice::Watched => {
            Checker::new(formula, proof).run_harnessed(mode, None, harness, Some(checkpoint))
        }
        bcp::PropagatorChoice::ArenaWatched => {
            Checker::<bcp::ArenaWatchedPropagator>::with_engine(formula, proof)
                .run_harnessed(mode, None, harness, Some(checkpoint))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_hex_roundtrip() {
        for len in [0usize, 1, 7, 8, 9, 16, 37] {
            let marks: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let hex = marks_to_hex(&marks);
            assert_eq!(marks_from_hex(&hex, len), Some(marks), "len {len}");
        }
    }

    #[test]
    fn marks_hex_rejects_bad_padding_and_length() {
        assert_eq!(marks_from_hex("ff", 4), None, "padding bits set");
        assert_eq!(marks_from_hex("0f", 4), Some(vec![true; 4]));
        assert_eq!(marks_from_hex("0f0f", 4), None, "too long");
        assert_eq!(marks_from_hex("0", 4), None, "odd length");
        assert_eq!(marks_from_hex("zz", 4), None, "not hex");
    }

    #[test]
    fn checkpoint_json_roundtrip() {
        let ckpt = Checkpoint {
            mode: CheckMode::MarkedOnly,
            formula_hash: 0xdead_beef_0123_4567,
            formula_clauses: 4,
            proof_hash: 0x0123_4567_89ab_cdef,
            proof_clauses: 3,
            terminal_done: true,
            next_pos: 1,
            num_checked: 2,
            spent_propagations: 1234,
            spent_clause_visits: 5678,
            marks: vec![true, false, true, false, false, true, false],
        };
        let doc = ckpt.to_json();
        let back = Checkpoint::from_json(&doc).expect("roundtrip");
        assert_eq!(back, ckpt);
        // and through the actual serialized text
        let reparsed =
            obs::json::parse(&doc.to_pretty_string()).expect("valid json");
        assert_eq!(Checkpoint::from_json(&reparsed).expect("parse"), ckpt);
    }

    #[test]
    fn checkpoint_rejects_version_skew_and_garbage() {
        let ckpt = Checkpoint {
            mode: CheckMode::All,
            formula_hash: 1,
            formula_clauses: 1,
            proof_hash: 2,
            proof_clauses: 1,
            terminal_done: false,
            next_pos: 0,
            num_checked: 0,
            spent_propagations: 0,
            spent_clause_visits: 0,
            marks: vec![false, false],
        };
        let with = |key: &str, value: obs::json::Json| {
            let mut doc = ckpt.to_json();
            if let obs::json::Json::Object(pairs) = &mut doc {
                for (k, v) in pairs.iter_mut() {
                    if k == key {
                        *v = value.clone();
                    }
                }
            }
            doc
        };
        assert_eq!(
            Checkpoint::from_json(&with("schema_version", obs::json::Json::Int(99))),
            Err(CheckpointError::UnsupportedVersion(99))
        );
        assert!(matches!(
            Checkpoint::from_json(&obs::json::Json::object()),
            Err(CheckpointError::Malformed(_))
        ));
        // a foreign kind, such as a streaming checkpoint, and a
        // `terminal_done` that is not a boolean
        for (key, value) in [
            ("kind", obs::json::Json::from("proofver-stream-checkpoint")),
            ("terminal_done", obs::json::Json::Int(1)),
        ] {
            let err = Checkpoint::from_json(&with(key, value)).expect_err(key);
            assert!(
                matches!(&err, CheckpointError::Malformed(what) if what.contains(key)),
                "{key}: {err}"
            );
        }
    }

    #[test]
    fn fingerprints_are_order_and_content_sensitive() {
        let a = CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-1]]);
        let b = CnfFormula::from_dimacs_clauses(&[vec![-1], vec![1, 2]]);
        let c = CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![1]]);
        assert_ne!(formula_fingerprint(&a), formula_fingerprint(&b));
        assert_ne!(formula_fingerprint(&a), formula_fingerprint(&c));
        // clause boundaries matter: [1,2],[3] vs [1],[2,3]
        let d = CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![3]]);
        let e = CnfFormula::from_dimacs_clauses(&[vec![1], vec![2, 3]]);
        assert_ne!(formula_fingerprint(&d), formula_fingerprint(&e));
    }

    #[test]
    fn cancel_token_is_shared_between_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn fault_plan_panic_heals_after_attempts() {
        let plan = FaultPlan::none().panic_on_slice(0, 2);
        for attempt in 1..=2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                || plan.before_slice(0),
            ));
            assert!(r.is_err(), "attempt {attempt} panics");
        }
        assert!(!plan.before_slice(0), "third attempt heals");
        assert!(!plan.before_slice(1), "other slices unaffected");
    }

    #[test]
    fn fault_plan_starvation_flag() {
        let plan = FaultPlan::none().starve_slice(3);
        assert!(plan.before_slice(3));
        assert!(!plan.before_slice(2));
    }

    #[test]
    fn gate_releases_current_and_future_waiters() {
        let gate = Gate::new();
        let plan = Arc::new(FaultPlan::none().hold_before_run(gate.clone()));
        let worker = {
            let plan = Arc::clone(&plan);
            std::thread::spawn(move || plan.before_run())
        };
        // deterministically observe the worker parked at the gate
        gate.await_blocked(1);
        gate.open();
        worker.join().expect("worker joins after open");
        // an opened gate no longer blocks
        plan.before_run();
        gate.await_blocked(2);
    }

    #[test]
    fn before_run_without_hold_is_a_no_op() {
        FaultPlan::none().before_run();
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::none().hold_before_run(Gate::new()).is_empty());
    }
}
