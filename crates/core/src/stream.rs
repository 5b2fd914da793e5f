//! Crash-safe bounded-memory streaming verification of binary DRAT
//! proofs.
//!
//! Industrial UNSAT proofs dwarf RAM; the in-memory backward checker
//! ([`crate::verify_drat_backward_harnessed`]) assumes the whole proof is
//! resident. This module verifies the same proofs in *sliding windows*
//! with bounded residency:
//!
//! 1. **Pass 1** streams the proof once through a chunked reader,
//!    building a byte-offset *granule index* (every checkpointable
//!    cursor is a granule start) and replaying the forward clause
//!    lifecycle into the clause store, to materialize the live set at
//!    the resume cursor. The store is compacted whenever its dead proof
//!    clauses outweigh the rest of it, so it stays within about twice
//!    the formula and the live proof clauses.
//! 2. **Pass 2** walks the proof backward window by window. Only one
//!    window's steps are parsed at a time; clauses deleted mid-proof are
//!    resurrected as stand-ins when the walk crosses their deletion, so
//!    residency tracks the *live set*, not the proof.
//!
//! Both passes find a clause by its content through one
//! [`DeletionIndex`] over the live clauses, the in-memory walk's: a
//! deletion in pass 1, and an addition crossing in pass 2, take the most
//! recently added live copy.
//!
//! Every window boundary is a durable checkpoint ([`StreamCheckpoint`],
//! atomic write-rename, input fingerprints, window cursor + marked-core
//! state): a killed run resumes mid-proof and reaches the identical
//! verdict. Under memory pressure a degradation ladder first rebuilds
//! the clause store (reclaiming stand-in garbage), then shrinks the
//! window, and only then returns [`StreamOutcome::Exhausted`]. I/O
//! faults (injected EIO, short reads, torn checkpoint writes — see
//! [`crate::FaultPlan`]) surface as [`StreamOutcome::Failed`]; they can
//! never become a `Rejected` verdict.
//!
//! Residency is tracked by an explicit model (arena words, occurrence
//! entries, per-variable engine state, content-index entries, live unit
//! clauses, granule index, plus a per-window factor covering the raw
//! bytes, parsed steps, and stand-ins); the recorded `peak_residency`
//! is the model's high-water mark. The window index format and
//! checkpoint compatibility rules are documented in `docs/FORMATS.md`.

use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bcp::{
    ArenaWatchedPropagator, ClauseRef, ClauseStore, Fuel, Propagator,
    PropagatorChoice, Stopped, WatchedPropagator,
};
use cnf::{Clause, CnfFormula, Lit};

use crate::core_extract::UnsatCore;
use crate::drat::{
    scan_step, DeletionIndex, DratError, DratProof, DratStep, DratStepKind, ParseDratError,
    Scan,
};
use crate::harness::{
    atomic_write, formula_fingerprint, marks_from_hex, marks_to_hex,
    CheckpointError, ExhaustReason, FaultPlan, Harness, Progress,
};
use crate::kernel::{Implied, Kernel};
use crate::rat::DratStats;

// ---------------------------------------------------------------------
// Configuration and residency model
// ---------------------------------------------------------------------

/// Modeled bytes of residency per raw window byte: the window buffer
/// itself (1×), the parsed step vector (~11× for dense one-byte-varint
/// steps), and the stand-ins a window's deletions resurrect (arena
/// words, unit entries, content-index entries, occurrence entries —
/// ~12×). Deliberately conservative.
const RESIDENCY_WINDOW_FACTOR: u64 = 24;

/// Modeled bytes per clause in the content index. This overstates the
/// index's real cost, but the degradation ladder's decisions rest on
/// it: re-pricing it changes when a run rebuilds, shrinks or exhausts.
const RESIDENCY_INDEX_ENTRY: u64 = 48;

/// Modeled bytes per granule index entry.
const RESIDENCY_GRANULE: u64 = 24;

/// Modeled bytes of per-variable engine state (assignment, reason,
/// level, watch heads for both polarities, occurrence-list headers).
const RESIDENCY_PER_VAR: u64 = 64;

/// Modeled bytes per live unit clause.
const RESIDENCY_UNIT: u64 = 16;

/// Modeled bytes per occurrence-list entry.
const RESIDENCY_OCC: u64 = 8;

/// Pass 1 compacts its store only once the dead proof clauses in it
/// outweigh this many words, so a small proof never pays for it.
const COMPACT_FLOOR_WORDS: u64 = 1 << 14;

/// Tuning knobs for a streaming verification run.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Residency cap in modeled bytes. The checker degrades (store
    /// rebuild, then window shrink) before ever exceeding it; when even
    /// a single-granule window cannot fit, the run is `Exhausted`, never
    /// `Rejected`.
    pub memory_budget: u64,
    /// Initial window size in raw proof bytes; `0` picks
    /// `memory_budget / 32` (so a full window costs at most ~3/4 of the
    /// budget under [the residency model](self)).
    pub window_bytes: u64,
    /// Floor for window shrinking.
    pub min_window_bytes: u64,
    /// Spacing of index granules in raw proof bytes (clamped to ≥ 512).
    /// Every checkpoint cursor is a granule start, so this is persisted
    /// in the checkpoint and overrides the configured value on resume.
    /// The index costs ~24 bytes per granule, so for very large proofs
    /// this should scale with the proof (`proof_bytes / granule` entries
    /// must fit in the budget).
    pub index_granule_bytes: u64,
    /// Read chunk size for the indexing pass.
    pub chunk_bytes: usize,
    /// When set, a durable checkpoint is written (atomically) at every
    /// window boundary, and a failed write aborts the run with
    /// [`StreamError::Checkpoint`] rather than continuing unprotected.
    pub checkpoint: Option<PathBuf>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            memory_budget: 64 * 1024 * 1024,
            window_bytes: 0,
            min_window_bytes: 2048,
            index_granule_bytes: 4096,
            chunk_bytes: 1024 * 1024,
            checkpoint: None,
        }
    }
}

// ---------------------------------------------------------------------
// Outcome taxonomy
// ---------------------------------------------------------------------

/// An environmental failure of a streaming run: the inputs could not be
/// read, parsed, or cross-validated. Deliberately distinct from a
/// `Rejected` verdict — an I/O fault is never evidence against a proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// Reading the proof failed at (or near) the given byte offset.
    Io {
        /// Byte offset of the failed read.
        offset: u64,
        /// The underlying error text.
        message: String,
    },
    /// The proof bytes do not parse as binary DRAT.
    Parse(ParseDratError),
    /// Loading, writing, or validating a checkpoint failed.
    Checkpoint(CheckpointError),
    /// The proof file changed between the indexing pass and a window
    /// re-read, or internal cross-checks diverged.
    Inconsistent(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io { offset, message } => {
                write!(f, "proof I/O error at byte {offset}: {message}")
            }
            StreamError::Parse(e) => write!(f, "proof parse error: {e}"),
            StreamError::Checkpoint(e) => write!(f, "{e}"),
            StreamError::Inconsistent(what) => {
                write!(f, "stream inconsistency: {what}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// What a completed streaming verification established.
#[derive(Clone, Debug)]
pub struct StreamVerification {
    /// The unsatisfiable core extracted from the marks.
    pub core: UnsatCore,
    /// Addition steps actually checked (cumulative across resumes).
    pub num_checked: usize,
    /// RUP/RAT check counters for this run segment (not carried across
    /// resumes).
    pub stats: DratStats,
    /// Addition steps in the proof.
    pub total_adds: u64,
    /// Size of the proof file in bytes.
    pub proof_bytes: u64,
    /// Windows processed (cumulative across resumes).
    pub windows: u64,
    /// Degradation-ladder window shrinks (cumulative).
    pub window_shrinks: u64,
    /// Degradation-ladder store rebuilds (cumulative).
    pub arena_rebuilds: u64,
    /// High-water mark of modeled residency in bytes (cumulative).
    pub peak_residency: u64,
    /// Literals propagated (cumulative across resumes).
    pub propagations: u64,
    /// Watched-clause look-ups (cumulative across resumes).
    pub clause_visits: u64,
}

/// The four-way result of a streaming verification run.
#[derive(Debug)]
pub enum StreamOutcome {
    /// The proof is a refutation of the formula.
    Verified(Box<StreamVerification>),
    /// A check failed: the proof is not correct.
    Rejected {
        /// Zero-based addition-step index of the failing clause, if a
        /// specific addition failed.
        step: Option<usize>,
        /// The underlying verification error.
        error: DratError,
    },
    /// The run stopped without a verdict (budget, deadline,
    /// cancellation, or memory pressure past the degradation ladder).
    Exhausted {
        /// Why the run stopped.
        reason: ExhaustReason,
        /// How far it got.
        progress: Progress,
        /// Whether a durable checkpoint exists to resume from.
        checkpointed: bool,
    },
    /// The run could not execute: an I/O fault, parse error, checkpoint
    /// problem, or input inconsistency. Never a statement about the
    /// proof's validity.
    Failed(StreamError),
}

// ---------------------------------------------------------------------
// Hashing (FNV-1a over the raw proof bytes)
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

// ---------------------------------------------------------------------
// Chunked reading with fault injection
// ---------------------------------------------------------------------

/// A positioned reader over the proof file. All reads go through the
/// harness [`FaultPlan`]: injected EIO surfaces as [`StreamError::Io`],
/// and an armed short-read cap forces the refill loop below to cope with
/// partial reads (which `read` is always allowed to return anyway).
struct ChunkedReader<'f, R> {
    inner: R,
    /// Position the underlying stream is known to be at, when known.
    pos: Option<u64>,
    faults: &'f FaultPlan,
}

impl<'f, R: Read + Seek> ChunkedReader<'f, R> {
    fn new(inner: R, faults: &'f FaultPlan) -> Self {
        ChunkedReader { inner, pos: None, faults }
    }

    fn len(&mut self) -> Result<u64, StreamError> {
        self.pos = None;
        self.inner
            .seek(SeekFrom::End(0))
            .map_err(|e| StreamError::Io { offset: 0, message: e.to_string() })
    }

    /// Appends exactly `[start, start + len)` of the file to `out`.
    fn read_range(
        &mut self,
        start: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), StreamError> {
        if let Some(message) = self.faults.read_fault(start, len) {
            return Err(StreamError::Io { offset: start, message });
        }
        if self.pos != Some(start) {
            self.inner.seek(SeekFrom::Start(start)).map_err(|e| {
                StreamError::Io { offset: start, message: e.to_string() }
            })?;
        }
        self.pos = None; // unknown until the read completes
        let cap = self.faults.read_cap().unwrap_or(usize::MAX);
        let base = out.len();
        out.resize(base + len, 0);
        let mut done = 0usize;
        while done < len {
            let want = (len - done).min(cap);
            let n = self
                .inner
                .read(&mut out[base + done..base + done + want])
                .map_err(|e| StreamError::Io {
                    offset: start + done as u64,
                    message: e.to_string(),
                })?;
            if n == 0 {
                return Err(StreamError::Io {
                    offset: start + done as u64,
                    message: "unexpected end of file (truncated while reading)"
                        .into(),
                });
            }
            done += n;
        }
        self.pos = Some(start + len as u64);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Incremental binary-DRAT scanning
// ---------------------------------------------------------------------

/// Streams the proof file forward step by step through a bounded chunk
/// buffer, hashing every byte as it is read.
struct ForwardScan<'r, 'f, R: Read + Seek> {
    reader: &'r mut ChunkedReader<'f, R>,
    file_len: u64,
    chunk: usize,
    buf: Vec<u8>,
    /// File offset of `buf[0]`.
    base: u64,
    /// Scan position within `buf`.
    pos: usize,
    /// FNV-1a over all bytes read so far.
    hash: u64,
    /// Literals of the most recently scanned step.
    lits: Vec<Lit>,
}

impl<'r, 'f, R: Read + Seek> ForwardScan<'r, 'f, R> {
    fn new(
        reader: &'r mut ChunkedReader<'f, R>,
        file_len: u64,
        chunk: usize,
    ) -> Self {
        ForwardScan {
            reader,
            file_len,
            chunk: chunk.max(64),
            buf: Vec::new(),
            base: 0,
            pos: 0,
            hash: FNV_OFFSET,
            lits: Vec::new(),
        }
    }

    /// The next step's `(kind, file offset of its prefix byte)`; its
    /// literals are left in `self.lits`. `Ok(None)` at clean EOF.
    fn next_step(
        &mut self,
    ) -> Result<Option<(DratStepKind, u64)>, StreamError> {
        loop {
            let have_all = self.base + self.buf.len() as u64 >= self.file_len;
            if self.pos >= self.buf.len() {
                if have_all {
                    return Ok(None);
                }
                self.refill()?;
                continue;
            }
            let start = self.base + self.pos as u64;
            match scan_step(&self.buf, self.pos, self.base, have_all, &mut self.lits)
            {
                Scan::Step { kind, next } => {
                    self.pos = next;
                    return Ok(Some((kind, start)));
                }
                Scan::NeedMore => self.refill()?,
                Scan::Fail(e) => return Err(StreamError::Parse(e)),
            }
        }
    }

    fn refill(&mut self) -> Result<(), StreamError> {
        self.buf.drain(..self.pos);
        self.base += self.pos as u64;
        self.pos = 0;
        let already = self.buf.len();
        let next_start = self.base + already as u64;
        let want = (self.file_len - next_start).min(self.chunk as u64) as usize;
        self.reader.read_range(next_start, want, &mut self.buf)?;
        self.hash = fnv1a_bytes(self.hash, &self.buf[already..]);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Pass 1: granule index + live-set replay
// ---------------------------------------------------------------------

/// One entry of the window index: a byte offset the backward walk can
/// stop at, with the step/addition counts before it. Granule starts are
/// the only checkpointable cursors, which makes a resume independent of
/// the window-degradation history that produced the checkpoint.
#[derive(Clone, Copy, Debug)]
struct Granule {
    start: u64,
    first_step: u64,
    first_add: u64,
}

/// What the indexing pass learned about the whole proof.
struct ProofIndex {
    granules: Vec<Granule>,
    total_steps: u64,
    total_adds: u64,
    /// Variables needed by the engine (max over formula and proof).
    num_vars: usize,
    /// Whether the replay reached the end of the file and the proof's
    /// last addition, the store's last clause, is an empty clause still
    /// live there.
    trailing_empty: bool,
    /// FNV-1a over the entire proof file.
    proof_hash: u64,
    /// Step/addition counts at the resume cursor.
    cursor_step: u64,
    cursor_add: u64,
}

/// The clauses of `old` a walk still needs, renumbered densely, and a
/// [`DeletionIndex`] over them: the formula's clauses keep their refs (a
/// dead one stays, deleted and unindexed, so the refs stay dense), then
/// the proof clauses `keep` selects follow in ref order, deleted where
/// they were. Returns the old ref of each proof clause kept.
fn renumber<S: ClauseStore>(
    old: &S,
    num_original: usize,
    keep: impl Fn(ClauseRef) -> bool,
) -> (S, DeletionIndex, Vec<ClauseRef>) {
    let kept: Vec<ClauseRef> = (num_original..old.len())
        .map(ClauseRef::from_index)
        .filter(|&r| keep(r))
        .collect();
    let mut db = S::new();
    let mut index = DeletionIndex::with_capacity(num_original + kept.len());
    for old_ref in (0..num_original).map(ClauseRef::from_index).chain(kept.iter().copied()) {
        let proof = old_ref.index() >= num_original;
        let r = db.add_clause(old.lits(old_ref), proof);
        if old.is_deleted(old_ref) {
            db.delete_clause(r);
        }
        if proof || !old.is_deleted(old_ref) {
            index.insert(r, old.lits(old_ref));
        }
    }
    (db, index, kept)
}

/// Runs pass 1: scans the whole file once, building the granule index
/// over *all* steps and replaying the clause lifecycle of the steps
/// before `cursor_byte` into a store with a [`DeletionIndex`] over its
/// live clauses, as the in-memory walk builds its own: the formula's
/// clauses take dense refs, an addition is appended, and a deletion
/// deletes the most recently added live copy of its content. Whenever
/// the dead proof clauses outweigh both the rest of the store and
/// [`COMPACT_FLOOR_WORDS`], the store is renumbered without them, so
/// each compaction costs no more than the garbage it drops. The store
/// returned holds the formula's clauses, dead ones deleted, then the
/// live proof clauses in proof order.
///
/// A deletion that matches nothing is a proof defect and rejects, just
/// as in the in-memory checker's construction phase.
#[allow(clippy::too_many_arguments)]
fn scan_and_replay<R: Read + Seek, S: ClauseStore>(
    reader: &mut ChunkedReader<'_, R>,
    file_len: u64,
    chunk: usize,
    formula: &CnfFormula,
    cursor_byte: u64,
    granule_bytes: u64,
    memory_budget: u64,
    resumed: bool,
) -> Result<(ProofIndex, S, DeletionIndex), StreamOutcome> {
    let num_original = formula.num_clauses();
    let mut db = S::new();
    let mut live = DeletionIndex::with_capacity(num_original);
    let mut live_words = 0u64;
    for clause in formula.iter() {
        let r = db.add_clause(clause.lits(), false);
        live.insert(r, clause.lits());
        live_words += clause.len() as u64;
    }
    // a clause weighs its literals and a header: the store's weight, and
    // the part of it that dead proof clauses make up
    let mut store_words = live_words + num_original as u64;
    let mut garbage_words = 0u64;
    // whether the latest addition is live; it is the store's last clause
    let mut last_add_live = false;

    let mut granules: Vec<Granule> = Vec::new();
    let mut step_no = 0u64;
    let mut add_no = 0u64;
    let mut num_vars = formula.num_vars();
    let mut last_add_empty = false;
    let mut cursor_counts: Option<(u64, u64)> = None;
    // A semantic rejection (deleting a clause that is not live) must
    // not short-circuit the scan: if the file later turns out to be
    // truncated or corrupt, the run is Failed — a malformed file never
    // gets a verdict, matching the in-memory parse-then-check order.
    let mut pending_reject: Option<DratError> = None;
    let mut scan = ForwardScan::new(reader, file_len, chunk);
    loop {
        let (kind, start) = match scan.next_step() {
            Ok(Some(step)) => step,
            Ok(None) => break,
            Err(e) => return Err(StreamOutcome::Failed(e)),
        };
        if granules
            .last()
            .is_none_or(|g| start - g.start >= granule_bytes)
        {
            granules.push(Granule {
                start,
                first_step: step_no,
                first_add: add_no,
            });
        }
        if start == cursor_byte {
            cursor_counts = Some((step_no, add_no));
        }
        for &l in &scan.lits {
            num_vars = num_vars.max(l.var().idx() + 1);
        }
        if start < cursor_byte && pending_reject.is_none() {
            let words = scan.lits.len() as u64;
            match kind {
                DratStepKind::Add => {
                    let r = db.add_clause(&scan.lits, true);
                    live.insert(r, &scan.lits);
                    live_words += words;
                    store_words += words + 1;
                    last_add_live = true;
                }
                DratStepKind::Delete => match live.remove(&scan.lits, |r| db.lits(r)) {
                    Some(r) => {
                        db.delete_clause(r);
                        live_words -= words;
                        if r.index() >= num_original {
                            garbage_words += words + 1;
                        }
                        last_add_live &= r.index() + 1 < db.len();
                    }
                    None => {
                        pending_reject = Some(DratError::DeleteMissing {
                            position: start as usize,
                            clause: Clause::new(scan.lits.clone()),
                        });
                    }
                },
            }
            if garbage_words > COMPACT_FLOOR_WORDS && 2 * garbage_words > store_words {
                (db, live, _) = renumber(&db, num_original, |r| !db.is_deleted(r));
                store_words -= garbage_words;
                garbage_words = 0;
            }
            let modeled = live_words * 4
                + live.len() as u64 * RESIDENCY_INDEX_ENTRY
                + granules.len() as u64 * RESIDENCY_GRANULE
                + chunk as u64;
            if modeled > memory_budget {
                return Err(StreamOutcome::Exhausted {
                    reason: ExhaustReason::Memory,
                    progress: Progress {
                        steps_checked: 0,
                        steps_total: add_no as usize,
                        propagations: 0,
                        clause_visits: 0,
                    },
                    checkpointed: resumed,
                });
            }
        }
        if kind == DratStepKind::Add {
            last_add_empty = scan.lits.is_empty();
            add_no += 1;
        }
        step_no += 1;
    }
    let proof_hash = scan.hash;
    if let Some(error) = pending_reject {
        return Err(StreamOutcome::Rejected { step: None, error });
    }

    let (cursor_step, cursor_add) = if cursor_byte == file_len {
        (step_no, add_no)
    } else {
        match cursor_counts {
            Some(counts) => counts,
            None => {
                return Err(StreamOutcome::Failed(StreamError::Checkpoint(
                    CheckpointError::Mismatch("window cursor"),
                )))
            }
        }
    };
    let (db, live, _) = renumber(&db, num_original, |r| !db.is_deleted(r));
    Ok((
        ProofIndex {
            granules,
            total_steps: step_no,
            total_adds: add_no,
            num_vars,
            trailing_empty: cursor_byte == file_len && last_add_empty && last_add_live,
            proof_hash,
            cursor_step,
            cursor_add,
        },
        db,
        live,
    ))
}

// ---------------------------------------------------------------------
// Durable window-boundary checkpoints
// ---------------------------------------------------------------------

/// Schema version of the streaming-checkpoint JSON document.
const STREAM_CHECKPOINT_VERSION: i64 = 1;

/// Serialized progress of a streaming verification run, written
/// atomically at every window boundary.
///
/// A checkpoint is taken *before* a window is processed, so the state it
/// captures (cursor, marks, live marked clauses, spent budget) reflects
/// only completed windows; a run killed mid-window redoes that window on
/// resume (marking is monotone, so the redo is idempotent). The cursor
/// is always a granule start, which makes resumption independent of the
/// window sizes the interrupted run happened to use. Compatibility
/// rules are documented in `docs/FORMATS.md`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// FNV-1a fingerprint of the original formula.
    pub formula_hash: u64,
    /// Clause count of the original formula.
    pub formula_clauses: usize,
    /// FNV-1a over the raw bytes of the proof file.
    pub proof_hash: u64,
    /// Size of the proof file in bytes.
    pub proof_bytes: u64,
    /// Steps in the proof.
    pub total_steps: u64,
    /// Addition steps in the proof.
    pub total_adds: u64,
    /// Granule spacing the index was built with; overrides the
    /// configured spacing on resume so cursors stay aligned.
    pub granule_bytes: u64,
    /// Byte offset of the backward walk: steps at offsets `>= cursor`
    /// are done, steps before it remain.
    pub cursor_byte: u64,
    /// Step count before the cursor.
    pub cursor_step: u64,
    /// Addition count before the cursor.
    pub cursor_add: u64,
    /// Addition steps checked so far.
    pub num_checked: usize,
    /// Propagations spent so far (seeded into the resumed budget).
    pub spent_propagations: u64,
    /// Clause visits spent so far.
    pub spent_clause_visits: u64,
    /// Window size in effect (shrinks are sticky across resumes).
    pub window_bytes: u64,
    /// Windows completed.
    pub windows_done: u64,
    /// Degradation-ladder shrinks so far.
    pub window_shrinks: u64,
    /// Degradation-ladder store rebuilds so far.
    pub arena_rebuilds: u64,
    /// Modeled-residency high-water mark so far.
    pub peak_residency: u64,
    /// Mark bitmap over the original formula clauses.
    pub marked_formula: Vec<bool>,
    /// Contents (DIMACS literals) of the marked live proof clauses at
    /// the cursor — the state the mark-transfer finalization needs.
    pub marked_live: Vec<Vec<i32>>,
}

impl StreamCheckpoint {
    /// Serializes the checkpoint as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> obs::json::Json {
        use obs::json::Json;
        let marked_live = Json::Array(
            self.marked_live
                .iter()
                .map(|lits| {
                    Json::Array(
                        lits.iter().map(|&l| Json::from(i64::from(l))).collect(),
                    )
                })
                .collect(),
        );
        Json::object_from([
            ("schema_version", Json::Int(STREAM_CHECKPOINT_VERSION)),
            ("kind", Json::from("proofver-stream-checkpoint")),
            ("formula_hash", Json::from(format!("{:016x}", self.formula_hash))),
            ("formula_clauses", Json::from(self.formula_clauses)),
            ("proof_hash", Json::from(format!("{:016x}", self.proof_hash))),
            ("proof_bytes", Json::from(self.proof_bytes)),
            ("total_steps", Json::from(self.total_steps)),
            ("total_adds", Json::from(self.total_adds)),
            ("granule_bytes", Json::from(self.granule_bytes)),
            ("cursor_byte", Json::from(self.cursor_byte)),
            ("cursor_step", Json::from(self.cursor_step)),
            ("cursor_add", Json::from(self.cursor_add)),
            ("num_checked", Json::from(self.num_checked)),
            ("spent_propagations", Json::from(self.spent_propagations)),
            ("spent_clause_visits", Json::from(self.spent_clause_visits)),
            ("window_bytes", Json::from(self.window_bytes)),
            ("windows_done", Json::from(self.windows_done)),
            ("window_shrinks", Json::from(self.window_shrinks)),
            ("arena_rebuilds", Json::from(self.arena_rebuilds)),
            ("peak_residency", Json::from(self.peak_residency)),
            ("marked_formula", Json::from(marks_to_hex(&self.marked_formula))),
            ("marked_live", marked_live),
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
            doc.get(key).ok_or(CheckpointError::Malformed(format!(
                "missing field `{key}`"
            )))
        };
        let int = |key: &'static str| -> Result<i64, CheckpointError> {
            field(key)?.as_int().ok_or(CheckpointError::Malformed(format!(
                "field `{key}` is not an integer"
            )))
        };
        let uint = |key: &'static str| -> Result<u64, CheckpointError> {
            u64::try_from(int(key)?).map_err(|_| {
                CheckpointError::Malformed(format!("field `{key}` is negative"))
            })
        };
        let hash = |key: &'static str| -> Result<u64, CheckpointError> {
            let text = field(key)?.as_str().ok_or(CheckpointError::Malformed(
                format!("field `{key}` is not a string"),
            ))?;
            u64::from_str_radix(text, 16).map_err(|_| {
                CheckpointError::Malformed(format!(
                    "field `{key}` is not a hex hash"
                ))
            })
        };
        let version = int("schema_version")?;
        if version != STREAM_CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let kind = field("kind")?.as_str().ok_or(CheckpointError::Malformed(
            "field `kind` is not a string".into(),
        ))?;
        if kind != "proofver-stream-checkpoint" {
            return Err(CheckpointError::Malformed(format!(
                "not a streaming checkpoint (kind `{kind}`)"
            )));
        }
        let formula_clauses = usize::try_from(uint("formula_clauses")?)
            .map_err(|_| {
                CheckpointError::Malformed("formula_clauses overflows".into())
            })?;
        let marks_hex = field("marked_formula")?.as_str().ok_or(
            CheckpointError::Malformed(
                "field `marked_formula` is not a string".into(),
            ),
        )?;
        let marked_formula = marks_from_hex(marks_hex, formula_clauses).ok_or(
            CheckpointError::Malformed(
                "field `marked_formula` has the wrong length or padding".into(),
            ),
        )?;
        let live_doc = field("marked_live")?.as_array().ok_or(
            CheckpointError::Malformed(
                "field `marked_live` is not an array".into(),
            ),
        )?;
        let mut marked_live = Vec::with_capacity(live_doc.len());
        for clause_doc in live_doc {
            let lits_doc = clause_doc.as_array().ok_or(
                CheckpointError::Malformed(
                    "field `marked_live` entry is not an array".into(),
                ),
            )?;
            let mut lits = Vec::with_capacity(lits_doc.len());
            for lit_doc in lits_doc {
                let value = lit_doc
                    .as_int()
                    .and_then(|v| i32::try_from(v).ok())
                    .filter(|&v| v != 0)
                    .ok_or(CheckpointError::Malformed(
                        "field `marked_live` holds a bad literal".into(),
                    ))?;
                lits.push(value);
            }
            marked_live.push(lits);
        }
        Ok(StreamCheckpoint {
            formula_hash: hash("formula_hash")?,
            formula_clauses,
            proof_hash: hash("proof_hash")?,
            proof_bytes: uint("proof_bytes")?,
            total_steps: uint("total_steps")?,
            total_adds: uint("total_adds")?,
            granule_bytes: uint("granule_bytes")?.max(512),
            cursor_byte: uint("cursor_byte")?,
            cursor_step: uint("cursor_step")?,
            cursor_add: uint("cursor_add")?,
            num_checked: usize::try_from(uint("num_checked")?).map_err(|_| {
                CheckpointError::Malformed("num_checked overflows".into())
            })?,
            spent_propagations: uint("spent_propagations")?,
            spent_clause_visits: uint("spent_clause_visits")?,
            window_bytes: uint("window_bytes")?,
            windows_done: uint("windows_done")?,
            window_shrinks: uint("window_shrinks")?,
            arena_rebuilds: uint("arena_rebuilds")?,
            peak_residency: uint("peak_residency")?,
            marked_formula,
            marked_live,
        })
    }

    /// Writes the checkpoint to `path` atomically (write temp file,
    /// sync, rename), routed through the fault plan so tests can tear
    /// the write.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure (including an
    /// injected torn write — the previous checkpoint file survives).
    pub fn save(&self, path: &Path, faults: &FaultPlan) -> Result<(), CheckpointError> {
        let text = self.to_json().to_pretty_string();
        atomic_write(path, text.as_bytes(), Some(faults))
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads a checkpoint back from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures,
    /// [`CheckpointError::Malformed`] when the file is not a valid
    /// streaming-checkpoint document.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let mut text = String::new();
        std::fs::File::open(path)
            .and_then(|mut f| std::io::Read::read_to_string(&mut f, &mut text))
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        let doc = obs::json::parse(&text).map_err(|e| {
            CheckpointError::Malformed(format!("not valid JSON: {e}"))
        })?;
        StreamCheckpoint::from_json(&doc)
    }

    /// Validates that this checkpoint belongs to `formula`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] naming the disagreeing field. (The
    /// proof side is validated against the freshly indexed file inside
    /// the run itself.)
    pub fn validate_formula(&self, formula: &CnfFormula) -> Result<(), CheckpointError> {
        if self.formula_clauses != formula.num_clauses() {
            return Err(CheckpointError::Mismatch("formula clause count"));
        }
        if self.formula_hash != formula_fingerprint(formula) {
            return Err(CheckpointError::Mismatch("formula fingerprint"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Verifies a binary DRAT proof file against `formula` in bounded
/// memory, streaming the proof from `proof_path`.
///
/// `resume` continues a run from a [`StreamCheckpoint`]; `events`
/// receives window-lifecycle events (`stream.*`). See the
/// [module docs](self) for the verification scheme and the meaning of
/// each [`StreamOutcome`] variant.
#[must_use]
pub fn verify_drat_stream(
    formula: &CnfFormula,
    proof_path: &Path,
    harness: &Harness,
    config: &StreamConfig,
    engine: PropagatorChoice,
    resume: Option<&StreamCheckpoint>,
    events: Option<&obs::EventLog>,
) -> StreamOutcome {
    let file = match std::fs::File::open(proof_path) {
        Ok(file) => file,
        Err(e) => {
            return StreamOutcome::Failed(StreamError::Io {
                offset: 0,
                message: format!("{}: {e}", proof_path.display()),
            })
        }
    };
    dispatch(formula, file, harness, config, engine, resume, events)
}

/// [`verify_drat_stream`] over an in-memory byte buffer — same windowed
/// machinery, same outcomes; used by tests to prove byte-for-byte parity
/// with the file path.
#[must_use]
pub fn verify_drat_stream_bytes(
    formula: &CnfFormula,
    proof: &[u8],
    harness: &Harness,
    config: &StreamConfig,
    engine: PropagatorChoice,
    resume: Option<&StreamCheckpoint>,
    events: Option<&obs::EventLog>,
) -> StreamOutcome {
    dispatch(
        formula,
        std::io::Cursor::new(proof),
        harness,
        config,
        engine,
        resume,
        events,
    )
}

fn dispatch<R: Read + Seek>(
    formula: &CnfFormula,
    reader: R,
    harness: &Harness,
    config: &StreamConfig,
    engine: PropagatorChoice,
    resume: Option<&StreamCheckpoint>,
    events: Option<&obs::EventLog>,
) -> StreamOutcome {
    match engine {
        PropagatorChoice::Watched => run_stream::<R, WatchedPropagator>(
            formula, reader, harness, config, resume, events,
        ),
        PropagatorChoice::ArenaWatched => {
            run_stream::<R, ArenaWatchedPropagator>(
                formula, reader, harness, config, resume, events,
            )
        }
    }
}

fn emit(
    events: Option<&obs::EventLog>,
    name: &str,
    fields: Vec<(&'static str, obs::Json)>,
) {
    if let Some(log) = events {
        let mut pairs = vec![("event", obs::Json::from(name))];
        pairs.extend(fields);
        let _ = log.append(&obs::Json::object_from(pairs));
    }
}

// ---------------------------------------------------------------------
// The windowed backward checker
// ---------------------------------------------------------------------

/// One parsed step of a window, oldest first.
struct WinStep {
    kind: DratStepKind,
    lits: Vec<Lit>,
}

/// Backward-walk counters threaded across windows.
struct WalkState {
    /// Steps remaining before the cursor (counts down to 0).
    step_no: u64,
    /// Additions remaining before the cursor (counts down to 0).
    add_no: u64,
    /// Addition checks completed (cumulative across resumes).
    num_checked: usize,
}

/// The resident state of the windowed checker: the kernel's store,
/// engine, live units and marks, and the content index over the live
/// clauses that pairs each addition crossing with the copy the forward
/// lifecycle left live.
///
/// As in the in-memory walk, the kernel keeps the set of live unit
/// clauses: a unit joins it when its clause is attached and leaves it
/// when an addition crossing retires the clause. The residency model
/// charges `RESIDENCY_UNIT` bytes per live unit. The occurrence lists
/// are kept up to date as clauses arrive, since the model counts their
/// entries; a RAT check drops the dead entries it scans, and a store
/// rebuild drops the rest.
struct StreamChecker<P: Propagator> {
    kernel: Kernel<P>,
    /// The live clauses by content, and the trailing empty clause until
    /// the walk crosses its addition.
    index: DeletionIndex,
    occ_entries: u64,
    live_words: u64,
    num_original: usize,
    num_vars: usize,
    trailing_empty: Option<ClauseRef>,
}

impl<P: Propagator> StreamChecker<P> {
    /// Builds the resident state over the store pass 1 replayed, whose
    /// formula clauses occupy dense refs `0..num_original` (dead ones
    /// deleted, never attached) and whose live proof clauses follow in
    /// proof order, and `index`, its content index. The live clauses
    /// are attached in ref order.
    fn build(db: P::Store, index: DeletionIndex, num_original: usize, num_vars: usize) -> Self {
        let mut checker = StreamChecker::<P> {
            kernel: Kernel::with_occurrences(num_vars),
            index,
            occ_entries: 0,
            live_words: 0,
            num_original,
            num_vars,
            trailing_empty: None,
        };
        checker.kernel.marked = vec![false; db.len()];
        checker.kernel.db = db;
        checker.attach_live();
        checker
    }

    /// Attaches the store's live clauses in ref order and counts the
    /// words and occurrence entries the residency model charges for.
    fn attach_live(&mut self) {
        self.occ_entries = 0;
        self.live_words = 0;
        for r in self.kernel.db.refs() {
            if !self.kernel.db.is_deleted(r) {
                self.attach(r);
                self.live_words += self.kernel.db.clause_len(r) as u64;
            }
        }
    }

    /// Attaches the stored clause `r` and counts its occurrence entries.
    fn attach(&mut self, r: ClauseRef) {
        self.kernel.attach(r);
        self.occ_entries += self.kernel.db.clause_len(r) as u64;
    }

    /// The modeled residency of everything that persists across windows.
    fn fixed_residency(&self, granule_count: usize) -> u64 {
        self.kernel.db.arena_len() as u64 * 4
            + self.occ_entries * RESIDENCY_OCC
            + self.num_vars as u64 * RESIDENCY_PER_VAR
            + self.index.len() as u64 * RESIDENCY_INDEX_ENTRY
            + self.live_words * 4
            + self.kernel.units.len() as u64 * RESIDENCY_UNIT
            + granule_count as u64 * RESIDENCY_GRANULE
    }
}

/// The outcome of a walk that ran out of fuel. `checkpointed` is
/// patched by the caller, which knows whether a checkpoint file exists.
fn interrupted(
    stopped: Stopped,
    walk: &WalkState,
    fuel: &Fuel<'_>,
    total_adds: u64,
) -> StreamOutcome {
    StreamOutcome::Exhausted {
        reason: stopped.into(),
        progress: Progress {
            steps_checked: walk.num_checked,
            steps_total: total_adds as usize,
            propagations: fuel.used_propagations,
            clause_visits: fuel.used_clause_visits,
        },
        checkpointed: false,
    }
}

impl<P: Propagator> StreamChecker<P> {
    /// Walks one window's steps backward. On a deletion crossing the
    /// deleted clause is resurrected as a fresh stand-in (fully
    /// attached — stand-ins are new clauses, so even units and empties
    /// re-enter play); on an addition crossing the clause is retired
    /// and, when marked, checked. Returns `Err` with the final outcome
    /// when the walk rejects, exhausts, or diverges (the caller patches
    /// `Exhausted::checkpointed`).
    fn process_window(
        &mut self,
        steps: &[WinStep],
        walk: &mut WalkState,
        fuel: &mut Fuel<'_>,
        stats: &mut DratStats,
        total_adds: u64,
    ) -> Result<(), StreamOutcome> {
        for step in steps.iter().rev() {
            walk.step_no -= 1;
            match step.kind {
                DratStepKind::Delete => {
                    let r = self.kernel.db.add_clause(&step.lits, true);
                    self.kernel.marked.push(false);
                    self.attach(r);
                    self.index.insert(r, &step.lits);
                    self.live_words += step.lits.len() as u64;
                }
                DratStepKind::Add => {
                    walk.add_no -= 1;
                    let db = &self.kernel.db;
                    let Some(r) = self.index.remove(&step.lits, |r| db.lits(r)) else {
                        return Err(StreamOutcome::Failed(
                            StreamError::Inconsistent(format!(
                                "backward walk found no live clause for \
                                 addition step {} — proof file changed \
                                 during verification",
                                walk.add_no
                            )),
                        ));
                    };
                    self.live_words -= step.lits.len() as u64;
                    let kernel = &mut self.kernel;
                    if !kernel.db.is_deleted(r) {
                        kernel.prop.detach_clause(&kernel.db, r);
                        kernel.db.delete_clause(r);
                        kernel.units.remove(&r);
                    }
                    if Some(r) == self.trailing_empty {
                        // the claim being established; the terminal
                        // check was its check (and it is crossed at
                        // most once, so rebuilds need not remap it)
                        self.trailing_empty = None;
                        continue;
                    }
                    if !kernel.marked[r.index()] {
                        continue;
                    }
                    match kernel.implied(&step.lits, true, None, fuel, stats) {
                        Implied::Yes => walk.num_checked += 1,
                        Implied::No => {
                            return Err(StreamOutcome::Rejected {
                                step: Some(walk.add_no as usize),
                                error: DratError::NotImplied {
                                    step: walk.add_no as usize,
                                    clause: Clause::new(step.lits.clone()),
                                },
                            })
                        }
                        Implied::Interrupted(s) => {
                            return Err(interrupted(s, walk, fuel, total_adds))
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Rebuilds the clause store from the live set, dropping the arena
    /// garbage and the stale occurrence entries that accumulate as the
    /// walk retires clauses. Formula clauses keep their dense refs; the
    /// live proof clauses and the pending trailing empty clause are
    /// renumbered in ref order, and the index is re-created over them.
    fn rebuild(&mut self) {
        let n = self.num_original;
        let trailing = self.trailing_empty;
        let old = std::mem::replace(&mut self.kernel, Kernel::with_occurrences(self.num_vars));
        let (db, index, kept) =
            renumber(&old.db, n, |r| !old.db.is_deleted(r) || Some(r) == trailing);
        self.kernel.marked = old.marked[..n]
            .iter()
            .copied()
            .chain(kept.iter().map(|r| old.marked[r.index()]))
            .collect();
        self.kernel.db = db;
        self.index = index;
        self.trailing_empty =
            trailing.map(|t| ClauseRef::from_index(n + kept.partition_point(|&r| r < t)));
        self.attach_live();
    }

    /// Extracts the checkpointable mark state: the formula bitmap plus
    /// the contents of every marked live proof clause (sorted for
    /// determinism). The deleted trailing empty clause is excluded — its
    /// mark is irrelevant to resumption (its crossing is skipped).
    fn collect_marked_live(&self) -> (Vec<bool>, Vec<Vec<i32>>) {
        let db = &self.kernel.db;
        let marked = &self.kernel.marked;
        let mut marked_live: Vec<Vec<i32>> = (self.num_original..db.len())
            .map(ClauseRef::from_index)
            .filter(|&r| marked[r.index()] && !db.is_deleted(r))
            .map(|r| db.lits(r).iter().map(|l| l.to_dimacs()).collect())
            .collect();
        marked_live.sort();
        (marked[..self.num_original].to_vec(), marked_live)
    }

    /// After the walk reaches byte 0 the live clauses — the formula's
    /// that survived and the stand-ins the walk resurrected — must make
    /// up the formula again, as a multiset. Each marked stand-in then
    /// marks the lowest-index unmarked formula clause with its content.
    /// Returns the core indices.
    fn finalize(&mut self) -> Result<Vec<usize>, StreamOutcome> {
        let n = self.num_original;
        let db = &self.kernel.db;
        let marked = &mut self.kernel.marked;
        let formula = |i: usize| db.lits(ClauseRef::from_index(i));
        let diverged = || {
            StreamOutcome::Failed(StreamError::Inconsistent(
                "live set after the full backward walk does not equal the \
                 formula — proof file changed during verification"
                    .into(),
            ))
        };
        for i in 0..n {
            if self.index.remove(formula(i), |r| db.lits(r)).is_none() {
                return Err(diverged());
            }
        }
        if !self.index.is_empty() {
            return Err(diverged());
        }
        let mut marked_stand_ins = DeletionIndex::with_capacity(db.len() - n);
        for r in (n..db.len()).map(ClauseRef::from_index) {
            if marked[r.index()] && !db.is_deleted(r) {
                marked_stand_ins.insert(r, db.lits(r));
            }
        }
        for (i, mark) in marked[..n].iter_mut().enumerate() {
            if !*mark && marked_stand_ins.remove(formula(i), |r| db.lits(r)).is_some() {
                *mark = true;
            }
        }
        Ok((0..n).filter(|&i| marked[i]).collect())
    }
}

/// Re-parses one window's bytes (read back from the file) and
/// cross-checks the step count against the index. Any divergence means
/// the file changed between passes — an environmental failure, never a
/// verdict.
fn parse_window(
    buf: &[u8],
    base: u64,
    expected_steps: u64,
) -> Result<Vec<WinStep>, StreamError> {
    let mut steps = Vec::new();
    let mut pos = 0usize;
    let mut lits = Vec::new();
    while pos < buf.len() {
        match scan_step(buf, pos, base, true, &mut lits) {
            Scan::Step { kind, next } => {
                steps.push(WinStep { kind, lits: lits.clone() });
                pos = next;
            }
            Scan::NeedMore | Scan::Fail(_) => {
                return Err(StreamError::Inconsistent(format!(
                    "window at byte {base} no longer parses — proof file \
                     changed during verification"
                )))
            }
        }
    }
    if steps.len() as u64 != expected_steps {
        return Err(StreamError::Inconsistent(format!(
            "window at byte {base} re-read with {} steps, index recorded \
             {expected_steps} — proof file changed during verification",
            steps.len()
        )));
    }
    Ok(steps)
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

fn run_stream<R: Read + Seek, P: Propagator>(
    formula: &CnfFormula,
    inner: R,
    harness: &Harness,
    config: &StreamConfig,
    resume: Option<&StreamCheckpoint>,
    events: Option<&obs::EventLog>,
) -> StreamOutcome {
    use obs::Json;

    harness.faults.before_run();
    let start = Instant::now();
    let budget = config.memory_budget;
    // The indexing-pass read chunk counts against the budget, so a
    // chunk bigger than budget/8 would make small budgets unusable
    // regardless of the proof: scale it down (floor 4 KiB).
    let chunk_bytes = config
        .chunk_bytes
        .min(usize::try_from(budget / 8).unwrap_or(usize::MAX))
        .max(4096);
    let min_window = config.min_window_bytes.max(64);
    let granule_bytes = resume
        .map_or(config.index_granule_bytes, |c| c.granule_bytes)
        .max(512);
    let mut window_bytes = resume
        .map(|c| c.window_bytes)
        .unwrap_or(if config.window_bytes > 0 {
            config.window_bytes
        } else {
            budget / 32
        })
        .max(min_window);

    if let Some(cp) = resume {
        if let Err(e) = cp.validate_formula(formula) {
            return StreamOutcome::Failed(StreamError::Checkpoint(e));
        }
    }

    let mut reader = ChunkedReader::new(inner, &harness.faults);
    let file_len = match reader.len() {
        Ok(len) => len,
        Err(e) => return StreamOutcome::Failed(e),
    };
    if let Some(cp) = resume {
        if cp.proof_bytes != file_len || cp.cursor_byte > file_len {
            return StreamOutcome::Failed(StreamError::Checkpoint(
                CheckpointError::Mismatch("proof length"),
            ));
        }
    }
    let cursor_start = resume.map_or(file_len, |c| c.cursor_byte);

    // Pass 1: index the whole file, replay the live set to the cursor.
    let (index, db, live) = match scan_and_replay::<R, P::Store>(
        &mut reader,
        file_len,
        chunk_bytes,
        formula,
        cursor_start,
        granule_bytes,
        budget,
        resume.is_some(),
    ) {
        Ok(replayed) => replayed,
        Err(outcome) => return outcome,
    };
    emit(
        events,
        "stream.index.done",
        vec![
            ("proof_bytes", Json::from(file_len)),
            ("granules", Json::from(index.granules.len())),
            ("steps", Json::from(index.total_steps)),
            ("adds", Json::from(index.total_adds)),
        ],
    );

    // Cross-validate the checkpoint against the freshly indexed file.
    let mismatch = |field: &'static str| {
        StreamOutcome::Failed(StreamError::Checkpoint(
            CheckpointError::Mismatch(field),
        ))
    };
    if let Some(cp) = resume {
        if cp.proof_hash != index.proof_hash {
            return mismatch("proof fingerprint");
        }
        if cp.total_steps != index.total_steps
            || cp.total_adds != index.total_adds
        {
            return mismatch("proof step counts");
        }
        if cp.cursor_step != index.cursor_step
            || cp.cursor_add != index.cursor_add
        {
            return mismatch("window cursor");
        }
    }
    let mut cursor_g = if cursor_start == file_len {
        index.granules.len()
    } else {
        match index
            .granules
            .binary_search_by_key(&cursor_start, |g| g.start)
        {
            Ok(g) => g,
            Err(_) => return mismatch("window cursor"),
        }
    };

    let mut checker =
        StreamChecker::<P>::build(db, live, formula.num_clauses(), index.num_vars);

    // Restore marks onto the replayed live set (every live copy of the
    // content — conservative, so a resumed run can only check more).
    if let Some(cp) = resume {
        let kernel = &mut checker.kernel;
        for (mark, &restored) in kernel.marked.iter_mut().zip(&cp.marked_formula) {
            *mark |= restored;
        }
        for dimacs in &cp.marked_live {
            let lits: Vec<Lit> = dimacs.iter().map(|&l| Lit::from_dimacs(l)).collect();
            let mut found = false;
            checker.index.visit_copies(&lits, |r| kernel.db.lits(r), |r| {
                kernel.marked[r.index()] = true;
                found = true;
                true
            });
            if !found {
                return mismatch("marked live clause");
            }
        }
    }

    let spent = resume.map_or((0, 0), |c| (c.spent_propagations, c.spent_clause_visits));
    let mut fuel = harness.fuel(start, spent);
    let mut stats = DratStats::default();
    let mut walk = WalkState {
        step_no: index.cursor_step,
        add_no: index.cursor_add,
        num_checked: resume.map_or(0, |c| c.num_checked),
    };

    // A trailing live empty clause is the claim being established — it
    // must not witness its own check (the terminal check is its check).
    if index.trailing_empty {
        let r = ClauseRef::from_index(checker.kernel.db.len() - 1);
        checker.kernel.db.delete_clause(r);
        checker.trailing_empty = Some(r);
    }

    // Terminal check: only a fresh run performs it — the existence of a
    // checkpoint implies it already passed.
    if resume.is_none() {
        match checker.kernel.refutes(&[], None, &mut fuel) {
            Ok(true) => {}
            Ok(false) => {
                return StreamOutcome::Rejected {
                    step: None,
                    error: DratError::NotARefutation,
                }
            }
            Err(s) => return interrupted(s, &walk, &fuel, index.total_adds),
        }
        if let Some(r) = checker.trailing_empty {
            checker.kernel.marked[r.index()] = true;
        }
        emit(events, "stream.terminal", vec![("ok", Json::from(true))]);
    } else {
        emit(
            events,
            "stream.resume",
            vec![
                ("cursor_byte", Json::from(cursor_start)),
                ("cursor_step", Json::from(index.cursor_step)),
                ("num_checked", Json::from(walk.num_checked)),
            ],
        );
    }

    let mut cursor_byte = cursor_start;
    let mut windows_done = resume.map_or(0, |c| c.windows_done);
    let mut shrinks = resume.map_or(0, |c| c.window_shrinks);
    let mut rebuilds = resume.map_or(0, |c| c.arena_rebuilds);
    let mut peak = resume.map_or(0, |c| c.peak_residency);
    let mut buf: Vec<u8> = Vec::new();

    while cursor_g > 0 {
        // 1. Durable checkpoint at the boundary, before the window.
        if let Some(path) = &config.checkpoint {
            let (marked_formula, marked_live) = checker.collect_marked_live();
            let cp = StreamCheckpoint {
                formula_hash: formula_fingerprint(formula),
                formula_clauses: checker.num_original,
                proof_hash: index.proof_hash,
                proof_bytes: file_len,
                total_steps: index.total_steps,
                total_adds: index.total_adds,
                granule_bytes,
                cursor_byte,
                cursor_step: walk.step_no,
                cursor_add: walk.add_no,
                num_checked: walk.num_checked,
                spent_propagations: fuel.used_propagations,
                spent_clause_visits: fuel.used_clause_visits,
                window_bytes,
                windows_done,
                window_shrinks: shrinks,
                arena_rebuilds: rebuilds,
                peak_residency: peak,
                marked_formula,
                marked_live,
            };
            if let Err(e) = cp.save(path, &harness.faults) {
                return StreamOutcome::Failed(StreamError::Checkpoint(e));
            }
            emit(
                events,
                "stream.checkpoint",
                vec![
                    ("cursor_byte", Json::from(cursor_byte)),
                    ("num_checked", Json::from(walk.num_checked)),
                ],
            );
        }

        // 2. Degradation ladder: pick the widest window that fits the
        // budget; rebuild the store once, then shrink, before giving up.
        let widest = |window: u64, cursor_g: usize| {
            let mut j = cursor_g - 1;
            while j > 0 && cursor_byte - index.granules[j - 1].start <= window {
                j -= 1;
            }
            j
        };
        let mut j = widest(window_bytes, cursor_g);
        let mut rebuilt_here = false;
        let j = loop {
            let raw = cursor_byte - index.granules[j].start;
            let fixed = checker.fixed_residency(index.granules.len());
            let projected = fixed + raw * RESIDENCY_WINDOW_FACTOR;
            if projected <= budget {
                peak = peak.max(projected);
                break j;
            }
            if !rebuilt_here && checker.kernel.db.garbage_len() > 0 {
                checker.rebuild();
                rebuilds += 1;
                rebuilt_here = true;
                emit(
                    events,
                    "stream.degrade.rebuild",
                    vec![
                        ("fixed_before", Json::from(fixed)),
                        (
                            "fixed_after",
                            Json::from(
                                checker.fixed_residency(index.granules.len()),
                            ),
                        ),
                    ],
                );
                continue;
            }
            if j < cursor_g - 1 {
                // halve the granule span of the window
                j += (cursor_g - j) / 2;
                window_bytes =
                    (cursor_byte - index.granules[j].start).max(min_window);
                shrinks += 1;
                emit(
                    events,
                    "stream.degrade.shrink",
                    vec![("window_bytes", Json::from(window_bytes))],
                );
                continue;
            }
            return StreamOutcome::Exhausted {
                reason: ExhaustReason::Memory,
                progress: Progress {
                    steps_checked: walk.num_checked,
                    steps_total: index.total_adds as usize,
                    propagations: fuel.used_propagations,
                    clause_visits: fuel.used_clause_visits,
                },
                checkpointed: config.checkpoint.is_some(),
            };
        };

        // 3. Read the window back and re-parse it.
        let wstart = index.granules[j].start;
        let wlen = (cursor_byte - wstart) as usize;
        emit(
            events,
            "stream.window.start",
            vec![
                ("start", Json::from(wstart)),
                ("bytes", Json::from(wlen)),
                ("granules", Json::from(cursor_g - j)),
            ],
        );
        buf.clear();
        if let Err(e) = reader.read_range(wstart, wlen, &mut buf) {
            return StreamOutcome::Failed(e);
        }
        let expected_steps = walk.step_no - index.granules[j].first_step;
        let steps = match parse_window(&buf, wstart, expected_steps) {
            Ok(steps) => steps,
            Err(e) => return StreamOutcome::Failed(e),
        };

        // 4. Walk it backward.
        if let Err(mut outcome) = checker.process_window(
            &steps,
            &mut walk,
            &mut fuel,
            &mut stats,
            index.total_adds,
        ) {
            if let StreamOutcome::Exhausted { checkpointed, .. } = &mut outcome
            {
                *checkpointed = config.checkpoint.is_some();
            }
            return outcome;
        }
        if walk.step_no != index.granules[j].first_step
            || walk.add_no != index.granules[j].first_add
        {
            return StreamOutcome::Failed(StreamError::Inconsistent(
                "window step counts diverged from the index".into(),
            ));
        }
        cursor_g = j;
        cursor_byte = wstart;
        windows_done += 1;
        emit(
            events,
            "stream.window.done",
            vec![
                ("cursor_byte", Json::from(cursor_byte)),
                ("num_checked", Json::from(walk.num_checked)),
            ],
        );
    }

    if walk.step_no != 0 || walk.add_no != 0 {
        return StreamOutcome::Failed(StreamError::Inconsistent(
            "backward walk ended before the start of the proof".into(),
        ));
    }
    let core_indices = match checker.finalize() {
        Ok(indices) => indices,
        Err(outcome) => return outcome,
    };
    emit(
        events,
        "stream.done",
        vec![
            ("num_checked", Json::from(walk.num_checked)),
            ("windows", Json::from(windows_done)),
            ("peak_residency", Json::from(peak)),
        ],
    );
    StreamOutcome::Verified(Box::new(StreamVerification {
        core: UnsatCore::new(core_indices, checker.num_original),
        num_checked: walk.num_checked,
        stats,
        total_adds: index.total_adds,
        proof_bytes: file_len,
        windows: windows_done,
        window_shrinks: shrinks,
        arena_rebuilds: rebuilds,
        peak_residency: peak,
        propagations: fuel.used_propagations,
        clause_visits: fuel.used_clause_visits,
    }))
}

// ---------------------------------------------------------------------
// Synthetic streaming workload
// ---------------------------------------------------------------------

/// Builds the streaming benchmark workload: a proof whose *live set*
/// stays O(1) while the proof itself grows linearly with `links` (~14
/// bytes per link in the binary encoding), so a proof arbitrarily
/// larger than the memory budget still verifies within it.
///
/// The formula is the unsatisfiable XOR square over `x1, x2`. Each link
/// derives a fresh unit `w_i` from the previous one through a bridge
/// clause, then deletes the bridge and the previous unit; eight `w`
/// variables are reused round-robin so per-variable engine state stays
/// constant. The terminal steps derive the empty clause from the last
/// unit.
///
/// Every bridge `(w_i ∨ ¬w_{i-1})` after the first is a *blocked* RAT
/// step on `w_i`: when it is added no live clause holds `¬w_i`, so it
/// has no resolvents, but assuming `¬w_i ∧ w_{i-1}` propagates nothing,
/// so it is not RUP. Both DRAT checkers therefore verify the proof with
/// `links - 1` RAT checks, while the RUP-only native [`crate::Checker`]
/// rejects its native form ([`DratProof::to_conflict_proof`]) with
/// `NotImplied` on a bridge. Dropping the deletions does not make the
/// proof RUP: bridges 2 to 8 each introduce a `w` variable that no
/// earlier clause mentions, so the rejection is correct.
#[must_use]
pub fn chain_workload(links: usize) -> (CnfFormula, DratProof) {
    let formula = CnfFormula::from_dimacs_clauses(&[
        vec![1, 2],
        vec![-1, -2],
        vec![1, -2],
        vec![-1, 2],
    ]);
    let mut steps = Vec::new();
    if links == 0 {
        steps.push(DratStep::add(Clause::from_dimacs(&[2])));
        steps.push(DratStep::add(Clause::from_dimacs(&[-2])));
        steps.push(DratStep::add(Clause::new(Vec::new())));
        return (formula, DratProof::new(steps));
    }
    const REUSE: u64 = 8;
    let mut prev = 2i32; // x2 is propagated by the formula itself
    for i in 1..=links as u64 {
        let w = (3 + (i - 1) % REUSE) as i32;
        steps.push(DratStep::add(Clause::from_dimacs(&[w, -prev])));
        steps.push(DratStep::add(Clause::from_dimacs(&[w])));
        steps.push(DratStep::delete(Clause::from_dimacs(&[w, -prev])));
        if i >= 2 {
            steps.push(DratStep::delete(Clause::from_dimacs(&[prev])));
        }
        prev = w;
    }
    steps.push(DratStep::add(Clause::from_dimacs(&[-prev, 2])));
    steps.push(DratStep::add(Clause::from_dimacs(&[-prev, -2])));
    steps.push(DratStep::add(Clause::new(Vec::new())));
    (formula, DratProof::new(steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drat::encode_drat_to_vec;
    use crate::harness::Budget;

    fn tiny_config() -> StreamConfig {
        StreamConfig {
            memory_budget: 96 * 1024,
            window_bytes: 0,
            min_window_bytes: 512,
            index_granule_bytes: 1024,
            chunk_bytes: 4096,
            checkpoint: None,
        }
    }

    #[test]
    fn chain_workload_verifies_in_memory() {
        let (formula, proof) = chain_workload(40);
        let harness = Harness::default();
        let outcome = crate::drat::verify_drat_backward_harnessed(
            &formula,
            &proof,
            &harness,
            PropagatorChoice::Watched,
        );
        let crate::drat::DratOutcome::Verified(v) = outcome else {
            panic!("in-memory checker rejected the chain workload");
        };
        assert_eq!(v.core.len(), 4);
    }

    #[test]
    fn streaming_matches_in_memory_verdict() {
        let (formula, proof) = chain_workload(12_000);
        let bytes = encode_drat_to_vec(&proof);
        let harness = Harness::default();
        let outcome = verify_drat_stream_bytes(
            &formula,
            &bytes,
            &harness,
            &tiny_config(),
            PropagatorChoice::Watched,
            None,
            None,
        );
        let StreamOutcome::Verified(v) = outcome else {
            panic!("streaming checker did not verify: {outcome:?}");
        };
        assert_eq!(v.core.len(), 4);
        assert!(v.windows > 1, "expected multiple windows, got {}", v.windows);
        assert!(v.peak_residency <= 96 * 1024);
        assert!(v.proof_bytes > 96 * 1024, "proof should exceed the budget");
    }

    #[test]
    fn streaming_rejects_broken_proof() {
        let (formula, proof) = chain_workload(50);
        let mut steps = proof.steps().to_vec();
        // claim the empty clause mid-proof: the terminal check finds it
        // live (so it gets marked), and its own backward check then
        // fails — the same mid-proof rejection the in-memory checker
        // reports
        steps.insert(steps.len() / 2, DratStep::add(Clause::new(Vec::new())));
        let bytes = encode_drat_to_vec(&DratProof::new(steps));
        let harness = Harness::default();
        let outcome = verify_drat_stream_bytes(
            &formula,
            &bytes,
            &harness,
            &tiny_config(),
            PropagatorChoice::Watched,
            None,
            None,
        );
        assert!(
            matches!(outcome, StreamOutcome::Rejected { .. }),
            "expected rejection, got {outcome:?}"
        );
    }

    #[test]
    fn delete_missing_rejects_with_position() {
        let (formula, proof) = chain_workload(5);
        let mut steps = proof.steps().to_vec();
        steps.push(DratStep::delete(Clause::from_dimacs(&[7, 8])));
        let bytes = encode_drat_to_vec(&DratProof::new(steps));
        let harness = Harness::default();
        let outcome = verify_drat_stream_bytes(
            &formula,
            &bytes,
            &harness,
            &tiny_config(),
            PropagatorChoice::Watched,
            None,
            None,
        );
        assert!(matches!(
            outcome,
            StreamOutcome::Rejected {
                step: None,
                error: DratError::DeleteMissing { .. }
            }
        ));
    }

    #[test]
    fn truncated_proof_fails_with_position() {
        let (formula, proof) = chain_workload(5);
        let bytes = encode_drat_to_vec(&proof);
        let truncated = &bytes[..bytes.len() - 1];
        let harness = Harness::default();
        let outcome = verify_drat_stream_bytes(
            &formula,
            truncated,
            &harness,
            &tiny_config(),
            PropagatorChoice::Watched,
            None,
            None,
        );
        let StreamOutcome::Failed(StreamError::Parse(e)) = outcome else {
            panic!("expected a parse failure, got {outcome:?}");
        };
        // same positioned error as the in-memory parser
        let in_memory = crate::drat::parse_drat_binary(truncated).unwrap_err();
        assert_eq!(e, in_memory);
    }

    #[test]
    fn exhaustion_is_never_a_verdict() {
        let (formula, proof) = chain_workload(100);
        let bytes = encode_drat_to_vec(&proof);
        let harness =
            Harness::with_budget(Budget::unlimited().max_propagations(3));
        let outcome = verify_drat_stream_bytes(
            &formula,
            &bytes,
            &harness,
            &tiny_config(),
            PropagatorChoice::Watched,
            None,
            None,
        );
        assert!(matches!(outcome, StreamOutcome::Exhausted { .. }));
    }

    #[test]
    fn an_interrupted_check_is_not_counted() {
        // The XOR square's proof `2`, `-2`, `0`: the terminal check
        // conflicts on the two units without a propagation, the check of
        // `-2` takes one and the check of `2` another. So a cap of 0 cuts
        // short the first check and a cap of 1 the second.
        let formula = CnfFormula::from_dimacs_clauses(&[
            vec![1, 2],
            vec![-1, -2],
            vec![1, -2],
            vec![-1, 2],
        ]);
        let proof = crate::drat::parse_drat_text(b"2 0\n-2 0\n0\n").expect("parse");
        let bytes = encode_drat_to_vec(&proof);
        for (cap, completed) in [(0, 0), (1, 1)] {
            let harness = Harness::with_budget(Budget::unlimited().max_propagations(cap));
            match verify_drat_stream_bytes(
                &formula,
                &bytes,
                &harness,
                &StreamConfig::default(),
                PropagatorChoice::Watched,
                None,
                None,
            ) {
                StreamOutcome::Exhausted { progress, .. } => {
                    assert_eq!(progress.steps_checked, completed, "cap {cap}");
                    assert_eq!(progress.steps_total, 3);
                }
                other => panic!("cap {cap}: expected exhaustion, got {other:?}"),
            }
        }
    }

    #[test]
    fn checkpoint_json_roundtrip() {
        let cp = StreamCheckpoint {
            formula_hash: 0xdead_beef,
            formula_clauses: 4,
            proof_hash: 0x1234_5678_9abc_def0,
            proof_bytes: 70_000,
            total_steps: 20_000,
            total_adds: 10_003,
            granule_bytes: 2048,
            cursor_byte: 4096,
            cursor_step: 1170,
            cursor_add: 586,
            num_checked: 9417,
            spent_propagations: 123_456,
            spent_clause_visits: 654_321,
            window_bytes: 3072,
            windows_done: 17,
            window_shrinks: 2,
            arena_rebuilds: 5,
            peak_residency: 90_112,
            marked_formula: vec![true, false, true, true],
            marked_live: vec![vec![3], vec![-9, 2]],
        };
        let doc = cp.to_json();
        let back = StreamCheckpoint::from_json(&doc).unwrap();
        assert_eq!(cp, back);
    }

    #[test]
    fn checkpoint_rejects_wrong_kind() {
        let doc = obs::json::parse(
            r#"{"schema_version": 1, "kind": "proofver-checkpoint"}"#,
        )
        .unwrap();
        assert!(matches!(
            StreamCheckpoint::from_json(&doc),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
