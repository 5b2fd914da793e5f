//! Standard DRAT interop: parsing, backward checking with core-first
//! marking, LRAT hint capture, and trimming.
//!
//! DRAT (Heule's drat-trim) is the de-facto interchange format for
//! unsatisfiability proofs: a sequence of clause *additions* and
//! content-addressed *deletions* (`d` lines), in a text and a binary
//! encoding. This module accepts both ([`parse_drat`]) and verifies
//! them the way drat-trim does — *backward*, checking only the clauses
//! that the refutation actually depends on (core-first marking), with
//! a RAT fallback for steps that are not plain RUP.
//!
//! The backward pass doubles as a certificate generator: every conflict
//! it finds yields the exact unit-propagation cone, which is recorded
//! as LRAT hints ([`DratVerification::lrat`]) and as a trimmed DRAT
//! proof ([`trim_drat`]). Budgets and cancellation follow the harness
//! contract: [`DratOutcome::Exhausted`] is always distinct from a
//! verdict.
//!
//! The same walk checks deletion-annotated proofs
//! ([`crate::AnnotatedProof::verify`]), with deletions by reference and
//! RAT off, and native conflict-clause proofs ([`crate::Checker`]),
//! deletion-free and from the kernel's root level over `F`'s units; its
//! per-check steps are the shared backward-checking kernel's.
//!
//! Both encodings, the tolerated edge cases, and the divergences from
//! drat-trim are specified in `docs/FORMATS.md`.

use std::collections::hash_map::RandomState;
use std::error::Error;
use std::fmt;
use std::hash::BuildHasher;
use std::io::{self, Write};
use std::ops::Range;
use std::time::Instant;

use bcp::{
    ArenaWatchedPropagator, ClauseRef, ClauseStore, Fuel, Propagator, PropagatorChoice,
    WatchedPropagator,
};
use cnf::{Clause, CnfFormula, Lit, Var};

use crate::binary::{read_varint, write_varint, VarintFault};
use crate::core_extract::UnsatCore;
use crate::harness::{ExhaustReason, Harness, Progress};
use crate::kernel::{lrat_id, Implied, Kernel, Stop};
use crate::lrat::{LratAdd, LratLine, LratProof};
use crate::proof::ConflictClauseProof;
use crate::rat::DratStats;

// ---------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------

/// Whether a DRAT step introduces or deletes a clause.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DratStepKind {
    /// The clause joins the active set.
    Add,
    /// The (content-addressed) clause leaves the active set.
    Delete,
}

/// One step of a DRAT proof.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DratStep {
    /// Addition or deletion.
    pub kind: DratStepKind,
    /// The clause added or deleted. Deletions match by content.
    pub clause: Clause,
    /// Where the step came from: the 1-based line (text encoding) or
    /// the byte offset of the step prefix (binary encoding). Zero for
    /// programmatically built proofs.
    pub position: usize,
}

impl DratStep {
    /// An addition step with no source position.
    #[must_use]
    pub fn add(clause: Clause) -> Self {
        DratStep { kind: DratStepKind::Add, clause, position: 0 }
    }

    /// A deletion step with no source position.
    #[must_use]
    pub fn delete(clause: Clause) -> Self {
        DratStep { kind: DratStepKind::Delete, clause, position: 0 }
    }
}

/// A DRAT proof: additions and deletions in file order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DratProof {
    steps: Vec<DratStep>,
}

impl DratProof {
    /// Wraps a step sequence as a proof.
    #[must_use]
    pub fn new(steps: Vec<DratStep>) -> Self {
        DratProof { steps }
    }

    /// The steps, in file order.
    #[must_use]
    pub fn steps(&self) -> &[DratStep] {
        &self.steps
    }

    /// Number of addition steps.
    #[must_use]
    pub fn num_adds(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.kind == DratStepKind::Add)
            .count()
    }

    /// Number of deletion steps.
    #[must_use]
    pub fn num_deletes(&self) -> usize {
        self.steps.len() - self.num_adds()
    }

    /// The largest variable mentioned by any step.
    #[must_use]
    pub fn max_var(&self) -> Option<Var> {
        self.steps.iter().filter_map(|s| s.clause.max_var()).max()
    }

    /// The addition steps as a native conflict-clause proof (deletions
    /// are dropped) — the lossy direction of the interop bridge.
    #[must_use]
    pub fn to_conflict_proof(&self) -> ConflictClauseProof {
        ConflictClauseProof::new(
            self.steps
                .iter()
                .filter(|s| s.kind == DratStepKind::Add)
                .map(|s| s.clause.clone())
                .collect(),
        )
    }
}

impl From<&ConflictClauseProof> for DratProof {
    /// A native proof is a deletion-free DRAT proof.
    fn from(proof: &ConflictClauseProof) -> Self {
        DratProof::new(proof.iter().cloned().map(DratStep::add).collect())
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// An error produced while parsing a DRAT proof. Text-encoding variants
/// carry 1-based line numbers; binary-encoding variants carry byte
/// offsets — the same hardened-error convention as the DIMACS and CCP1
/// parsers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseDratError {
    /// A token was neither a literal, `0`, nor a leading `d` — text.
    BadToken {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// The input ended inside a clause (no closing `0`) — text.
    UnterminatedClause {
        /// 1-based line where the unterminated step started.
        line: usize,
    },
    /// A step started with a byte other than `'a'`/`'d'` — binary.
    BadPrefix {
        /// Byte offset of the prefix.
        offset: usize,
        /// The offending byte.
        byte: u8,
    },
    /// A varint was truncated or overlong — binary.
    BadVarint {
        /// Byte offset where the varint started.
        offset: usize,
    },
    /// A varint decoded to a value below 2 (no literal maps there) or
    /// above the representable literal range — binary.
    LiteralOutOfRange {
        /// Byte offset where the varint started.
        offset: usize,
    },
    /// The input ended in the middle of a step — binary.
    UnexpectedEof {
        /// Byte offset at which more input was required.
        offset: usize,
    },
}

impl fmt::Display for ParseDratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDratError::BadToken { line, token } => {
                write!(f, "bad token {token:?} on line {line}")
            }
            ParseDratError::UnterminatedClause { line } => {
                write!(f, "unterminated clause starting on line {line}")
            }
            ParseDratError::BadPrefix { offset, byte } => {
                write!(f, "bad step prefix byte 0x{byte:02x} at byte {offset}")
            }
            ParseDratError::BadVarint { offset } => {
                write!(f, "malformed varint at byte {offset}")
            }
            ParseDratError::LiteralOutOfRange { offset } => {
                write!(f, "literal out of range at byte {offset}")
            }
            ParseDratError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
        }
    }
}

impl Error for ParseDratError {}

/// Whether a byte buffer holds *binary* DRAT. Heuristic (documented in
/// `docs/FORMATS.md`): a first byte `'a'` is binary (no text token
/// starts with it); a first byte `'d'` is ambiguous — both encodings
/// use it for deletions — and is resolved by looking for a NUL byte,
/// which terminates every binary step but can never occur in text.
/// Anything else — including an empty buffer — is text. The one input
/// the heuristic misreads is a binary proof truncated inside its first
/// step (no NUL yet); both parses fail on such a prefix anyway.
#[must_use]
pub fn is_binary_drat(bytes: &[u8]) -> bool {
    match bytes.first() {
        Some(&b'a') => true,
        Some(&b'd') => bytes.contains(&0),
        _ => false,
    }
}

/// Parses a DRAT proof, auto-detecting the encoding via
/// [`is_binary_drat`].
///
/// # Errors
///
/// Returns [`ParseDratError`] with a line number (text) or byte offset
/// (binary) on malformed input.
///
/// # Examples
///
/// ```
/// use proofver::parse_drat;
///
/// let proof = parse_drat(b"2 0\nd 1 2 0\n-2 0\n0\n")?;
/// assert_eq!(proof.num_adds(), 3);
/// assert_eq!(proof.num_deletes(), 1);
/// # Ok::<(), proofver::ParseDratError>(())
/// ```
pub fn parse_drat(bytes: &[u8]) -> Result<DratProof, ParseDratError> {
    if is_binary_drat(bytes) {
        parse_drat_binary(bytes)
    } else {
        parse_drat_text(bytes)
    }
}

/// Parses text DRAT. Tolerated SATLIB-style edge cases: comment lines
/// (`c …`), blank lines, CRLF endings, clauses spanning physical lines,
/// and a `%` line terminating the proof early.
///
/// # Errors
///
/// See [`parse_drat`]; errors carry 1-based line numbers.
pub fn parse_drat_text(bytes: &[u8]) -> Result<DratProof, ParseDratError> {
    let text = String::from_utf8_lossy(bytes);
    let mut steps = Vec::new();
    // (kind, literals, 1-based line where the step started)
    let mut current: Option<(DratStepKind, Vec<Lit>, usize)> = None;
    'outer: for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim_start();
        if trimmed.starts_with('c') {
            continue;
        }
        if trimmed.starts_with('%') {
            break; // SATLIB-style terminator: ignore the rest
        }
        for token in raw.split_ascii_whitespace() {
            if token == "d" {
                if current.is_some() {
                    return Err(ParseDratError::BadToken { line, token: token.into() });
                }
                current = Some((DratStepKind::Delete, Vec::new(), line));
                continue;
            }
            if token == "%" {
                break 'outer;
            }
            // i32::MIN names no variable
            let value = token
                .parse::<i32>()
                .ok()
                .filter(|&v| v != i32::MIN)
                .ok_or_else(|| ParseDratError::BadToken { line, token: token.into() })?;
            let (kind, lits, start) =
                current.get_or_insert((DratStepKind::Add, Vec::new(), line));
            if value == 0 {
                steps.push(DratStep {
                    kind: *kind,
                    clause: Clause::new(std::mem::take(lits)),
                    position: *start,
                });
                current = None;
            } else {
                lits.push(Lit::from_dimacs(value));
            }
        }
    }
    if let Some((_, _, start)) = current {
        return Err(ParseDratError::UnterminatedClause { line: start });
    }
    Ok(DratProof::new(steps))
}

/// Parses binary DRAT (drat-trim's compressed encoding): each step is
/// an `'a'`/`'d'` prefix byte followed by LEB128 varints of the mapped
/// literals and a `0` terminator.
///
/// # Errors
///
/// See [`parse_drat`]; errors carry the byte offset of the fault.
pub fn parse_drat_binary(bytes: &[u8]) -> Result<DratProof, ParseDratError> {
    let mut steps = Vec::new();
    // one scratch buffer for every step; each clause is then allocated
    // once, at its exact size
    let mut lits = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match scan_step(bytes, pos, 0, true, &mut lits) {
            Scan::Step { kind, next } => {
                steps.push(DratStep { kind, clause: Clause::from_lits(&lits), position: pos });
                pos = next;
            }
            Scan::Fail(e) => return Err(e),
            Scan::NeedMore => unreachable!("a final buffer never asks for more"),
        }
    }
    Ok(DratProof::new(steps))
}

/// Result of scanning one step at `buf[pos..]`, where `buf[0]` is file
/// byte `base`. `is_final` says the buffer ends at end-of-file, so
/// running out of bytes is an error rather than a refill request.
pub(crate) enum Scan {
    /// A complete step; its literals are in the caller's buffer and the
    /// next step starts at `next`.
    Step {
        kind: DratStepKind,
        next: usize,
    },
    /// The buffer ended mid-step; refill and retry from `pos`.
    NeedMore,
    /// The bytes are not binary DRAT. Offsets are absolute file offsets.
    Fail(ParseDratError),
}

/// Scans the binary-DRAT step starting at `buf[pos]` (which must
/// exist) — the one decoder behind [`parse_drat_binary`] and the
/// streaming checker, so both report identical positioned errors.
pub(crate) fn scan_step(
    buf: &[u8],
    pos: usize,
    base: u64,
    is_final: bool,
    lits: &mut Vec<Lit>,
) -> Scan {
    let abs = |p: usize| (base + p as u64) as usize;
    lits.clear();
    let kind = match buf[pos] {
        b'a' => DratStepKind::Add,
        b'd' => DratStepKind::Delete,
        byte => {
            return Scan::Fail(ParseDratError::BadPrefix {
                offset: abs(pos),
                byte,
            })
        }
    };
    let mut p = pos + 1;
    loop {
        if p >= buf.len() {
            return if is_final {
                Scan::Fail(ParseDratError::UnexpectedEof { offset: abs(p) })
            } else {
                Scan::NeedMore
            };
        }
        if buf[p] == 0 {
            return Scan::Step { kind, next: p + 1 };
        }
        let start = p;
        match read_varint(buf, &mut p) {
            Ok(code) => {
                // standard binary-DRAT mapping: literal l ↦ 2l
                // (positive), 2|l|+1 (negative); 0 terminates, 1 would
                // be variable zero
                if code < 2 {
                    return Scan::Fail(ParseDratError::LiteralOutOfRange {
                        offset: abs(start),
                    });
                }
                let magnitude = (code >> 1) as i32;
                lits.push(Lit::from_dimacs(if code & 1 == 1 {
                    -magnitude
                } else {
                    magnitude
                }));
            }
            Err(VarintFault::Overflow) => {
                return Scan::Fail(ParseDratError::LiteralOutOfRange {
                    offset: abs(start),
                })
            }
            Err(VarintFault::TooLong) => {
                return Scan::Fail(ParseDratError::BadVarint { offset: abs(start) })
            }
            Err(VarintFault::Truncated) => {
                return if is_final {
                    Scan::Fail(ParseDratError::BadVarint { offset: abs(start) })
                } else {
                    Scan::NeedMore
                };
            }
        }
    }
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

/// Writes the proof in text DRAT (`d` prefix for deletions, clauses as
/// DIMACS literals closed by `0`).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_drat<W: Write>(mut writer: W, proof: &DratProof) -> io::Result<()> {
    for step in &proof.steps {
        if step.kind == DratStepKind::Delete {
            write!(writer, "d")?;
            for &l in step.clause.lits() {
                write!(writer, " {}", l.to_dimacs())?;
            }
            writeln!(writer, " 0")?;
        } else {
            for &l in step.clause.lits() {
                write!(writer, "{} ", l.to_dimacs())?;
            }
            writeln!(writer, "0")?;
        }
    }
    Ok(())
}

/// Renders the proof as a text-DRAT string.
#[must_use]
pub fn drat_to_string(proof: &DratProof) -> String {
    let mut buf = Vec::new();
    write_drat(&mut buf, proof).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("text DRAT is ASCII")
}

fn drat_code(lit: Lit) -> u32 {
    let d = lit.to_dimacs();
    if d > 0 {
        (d as u32) << 1
    } else {
        (((-d) as u32) << 1) | 1
    }
}

/// Writes the proof in binary DRAT.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn encode_drat<W: Write>(mut writer: W, proof: &DratProof) -> io::Result<()> {
    for step in &proof.steps {
        writer.write_all(if step.kind == DratStepKind::Delete { b"d" } else { b"a" })?;
        for &l in step.clause.lits() {
            write_varint(&mut writer, drat_code(l))?;
        }
        writer.write_all(&[0])?;
    }
    Ok(())
}

/// Encodes the proof in binary DRAT to a byte vector.
#[must_use]
pub fn encode_drat_to_vec(proof: &DratProof) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_drat(&mut buf, proof).expect("writing to Vec cannot fail");
    buf
}

// ---------------------------------------------------------------------
// Backward checking
// ---------------------------------------------------------------------

/// Why a DRAT proof was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DratError {
    /// The final live clause set does not propagate to a conflict: the
    /// proof establishes no refutation.
    NotARefutation,
    /// A marked addition is neither RUP nor RAT over the clauses live
    /// at its point.
    NotImplied {
        /// Zero-based index among the addition steps.
        step: usize,
        /// The failing clause.
        clause: Clause,
    },
    /// A deletion step's clause is not live at that point (drat-trim
    /// warns and ignores these; we reject — see `docs/FORMATS.md`).
    DeleteMissing {
        /// Source position of the deletion (line or byte offset).
        position: usize,
        /// The clause the deletion named.
        clause: Clause,
    },
}

impl fmt::Display for DratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DratError::NotARefutation => {
                write!(f, "proof does not establish a contradiction")
            }
            DratError::NotImplied { step, clause } => {
                write!(f, "addition step {step} is neither RUP nor RAT: {clause:?}")
            }
            DratError::DeleteMissing { position, clause } => {
                write!(f, "deletion at position {position} names a clause that is not live: {clause:?}")
            }
        }
    }
}

impl Error for DratError {}

/// The result of a successful backward DRAT verification.
#[derive(Clone, Debug)]
pub struct DratVerification {
    /// Marked original clauses. For RUP-only proofs this is an
    /// unsatisfiable core; RAT steps weaken the claim to "the clauses
    /// the certificate depends on" (RAT preserves satisfiability, not
    /// equivalence).
    pub core: UnsatCore,
    /// Addition steps actually checked (the marked ones).
    pub num_checked: usize,
    /// RUP/RAT/resolvent counters over the checked steps.
    pub stats: DratStats,
    /// For each addition step (in proof order), whether it was marked.
    pub marked_adds: Vec<bool>,
    /// For each deletion step (in proof order), whether its target is
    /// consumer-visible (an original or marked clause) and the deletion
    /// therefore survives trimming.
    pub kept_deletes: Vec<bool>,
    /// The LRAT certificate recorded during the backward pass.
    pub lrat: LratProof,
    /// Literals propagated across every check.
    pub propagations: u64,
    /// Watched-clause look-ups across every check.
    pub clause_visits: u64,
}

/// The three-way outcome of a harnessed backward DRAT check — the same
/// taxonomy as [`crate::Outcome`]: exhaustion is never a verdict.
#[derive(Debug)]
pub enum DratOutcome {
    /// Every required check passed.
    Verified(Box<DratVerification>),
    /// The proof is not a valid refutation.
    Rejected {
        /// Zero-based addition-step index, when a specific step failed.
        step: Option<usize>,
        /// The underlying error.
        error: DratError,
    },
    /// A budget cap, deadline, or cancellation stopped the run first.
    /// Backward checking does not checkpoint (the walk mutates the
    /// clause arena in place), so there is nothing to resume.
    Exhausted {
        /// What limit was hit.
        reason: ExhaustReason,
        /// How far the run got (checked steps count *marked* additions).
        progress: Progress,
    },
}

/// Verifies a DRAT proof backward with unlimited resources on the
/// default engine, the arena.
///
/// # Errors
///
/// Returns [`DratError`] when the proof is rejected.
pub fn verify_drat_backward(
    formula: &CnfFormula,
    proof: &DratProof,
) -> Result<DratVerification, DratError> {
    match verify_drat_backward_harnessed(
        formula,
        proof,
        &Harness::default(),
        PropagatorChoice::ArenaWatched,
    ) {
        DratOutcome::Verified(v) => Ok(*v),
        DratOutcome::Rejected { error, .. } => Err(error),
        DratOutcome::Exhausted { .. } => {
            unreachable!("an unlimited budget cannot exhaust")
        }
    }
}

/// Verifies a DRAT proof backward under a [`Harness`] on the chosen
/// engine.
///
/// The arena engine runs *without* compaction: the backward walk
/// resurrects deleted clauses, so their bodies must survive deletion.
pub fn verify_drat_backward_harnessed(
    formula: &CnfFormula,
    proof: &DratProof,
    harness: &Harness,
    engine: PropagatorChoice,
) -> DratOutcome {
    match engine {
        PropagatorChoice::Watched => verify_drat_walk::<WatchedPropagator>(formula, proof, harness),
        PropagatorChoice::ArenaWatched => {
            verify_drat_walk::<ArenaWatchedPropagator>(formula, proof, harness)
        }
    }
}

/// Drops the unmarked steps of a verified proof: unmarked additions and
/// the deletions that targeted them. The result is a standalone DRAT
/// proof that re-verifies against the same formula.
#[must_use]
pub fn trim_drat(proof: &DratProof, verification: &DratVerification) -> DratProof {
    let (mut ai, mut di) = (0usize, 0usize);
    let mut steps = Vec::new();
    for step in proof.steps() {
        let keep = match step.kind {
            DratStepKind::Add => {
                ai += 1;
                verification.marked_adds[ai - 1]
            }
            DratStepKind::Delete => {
                di += 1;
                verification.kept_deletes[di - 1]
            }
        };
        if keep {
            steps.push(step.clone());
        }
    }
    DratProof::new(steps)
}

// ---------------------------------------------------------------------
// Deletion index
// ---------------------------------------------------------------------

/// End of a bucket chain.
const NIL: u32 = u32::MAX;

/// The live clauses by content, for resolving DRAT's content-addressed
/// deletions without allocating or hashing a `Vec` per step.
///
/// A clause's key is an order-independent multiset hash of its literal
/// codes: the wrapping sum of one keyed mix per literal, so permuted
/// copies share a key and a duplicated literal counts twice. The key is
/// drawn once per index from [`RandomState`], so a proof cannot be
/// crafted to pile its clauses into one bucket. Each bucket chains its
/// clauses most recent first, and a lookup confirms a candidate by an
/// exact compare of the sorted literal codes: a hash collision is never
/// taken for a match, and [`DeletionIndex::remove`] finds the most
/// recently inserted live copy — the rule `docs/FORMATS.md` specifies.
#[derive(Debug)]
pub struct DeletionIndex {
    key: u64,
    /// bucket → the most recently inserted clause in it, or `NIL`
    heads: Vec<u32>,
    /// clause → the next older clause in its bucket, or `NIL`
    next: Vec<u32>,
    /// clause → its multiset hash
    hashes: Vec<u64>,
    len: usize,
    /// scratch: the sorted codes of the clause looked up
    wanted: Vec<u32>,
    /// scratch: the sorted codes of a candidate
    probe: Vec<u32>,
}

impl DeletionIndex {
    /// An empty index with room for `clauses` clauses before it grows.
    #[must_use]
    pub fn with_capacity(clauses: usize) -> Self {
        DeletionIndex {
            key: RandomState::new().hash_one(0x5eed_u64),
            heads: vec![NIL; clauses.max(16).next_power_of_two()],
            next: Vec::with_capacity(clauses),
            hashes: Vec::with_capacity(clauses),
            len: 0,
            wanted: Vec::new(),
            probe: Vec::new(),
        }
    }

    /// Number of clauses indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no clause is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Indexes clause `r`, whose literals are `lits`. Clauses are
    /// inserted in increasing ref order — a clause store's insertion
    /// order — each at most once.
    pub fn insert(&mut self, r: ClauseRef, lits: &[Lit]) {
        let i = r.index();
        assert!(i >= self.next.len(), "clauses are inserted in increasing ref order");
        assert!(i < NIL as usize, "clause index {i} is the chain end marker");
        if self.len == self.heads.len() {
            self.grow();
        }
        let hash = self.hash(lits);
        let b = self.bucket(hash);
        self.next.resize(i + 1, NIL);
        self.hashes.resize(i + 1, 0);
        self.next[i] = self.heads[b];
        self.hashes[i] = hash;
        self.heads[b] = i as u32;
        self.len += 1;
    }

    /// Removes and returns the most recently inserted indexed clause
    /// whose literals equal `lits` as a multiset (in any order, with the
    /// same number of copies of each literal), or `None` when none does.
    /// `lits_of` gives an indexed clause's literals.
    pub fn remove<'s>(
        &mut self,
        lits: &[Lit],
        lits_of: impl Fn(ClauseRef) -> &'s [Lit],
    ) -> Option<ClauseRef> {
        let hash = self.hash(lits);
        let b = self.bucket(hash);
        self.wanted.clear();
        let mut prev = NIL;
        let mut cur = self.heads[b];
        while cur != NIL {
            let i = cur as usize;
            let r = ClauseRef::from_index(i);
            if self.hashes[i] == hash && self.same_multiset(lits, lits_of(r)) {
                if prev == NIL {
                    self.heads[b] = self.next[i];
                } else {
                    self.next[prev as usize] = self.next[i];
                }
                self.len -= 1;
                return Some(r);
            }
            prev = cur;
            cur = self.next[i];
        }
        None
    }

    /// Whether `candidate` holds the literals of `lits`, each as often.
    /// A deletion usually lists them in the order they were added, which
    /// settles it without sorting; otherwise the sorted codes of `lits`
    /// (computed once per lookup, `lits` being non-empty here) are
    /// compared with the candidate's.
    fn same_multiset(&mut self, lits: &[Lit], candidate: &[Lit]) -> bool {
        if candidate == lits {
            return true;
        }
        if candidate.len() != lits.len() {
            return false;
        }
        if self.wanted.is_empty() {
            sort_codes(&mut self.wanted, lits);
        }
        sort_codes(&mut self.probe, candidate);
        self.probe == self.wanted
    }

    fn hash(&self, lits: &[Lit]) -> u64 {
        lits.iter()
            .fold(0u64, |h, l| h.wrapping_add(mix(u64::from(l.code()) ^ self.key)))
    }

    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.heads.len() - 1)
    }

    /// Doubles the bucket count. Each chain splits in two with its order
    /// kept, so every chain stays most recent first.
    fn grow(&mut self) {
        let size = self.heads.len() * 2;
        let old = std::mem::replace(&mut self.heads, vec![NIL; size]);
        let mut tails = vec![NIL; size];
        for head in old {
            let mut cur = head;
            while cur != NIL {
                let i = cur as usize;
                let next = self.next[i];
                let b = self.bucket(self.hashes[i]);
                self.next[i] = NIL;
                match tails[b] {
                    NIL => self.heads[b] = cur,
                    tail => self.next[tail as usize] = cur,
                }
                tails[b] = cur;
                cur = next;
            }
        }
    }
}

fn sort_codes(out: &mut Vec<u32>, lits: &[Lit]) {
    out.clear();
    out.extend(lits.iter().map(|l| l.code()));
    out.sort_unstable();
}

/// SplitMix64's finaliser: a bijection on `u64` whose every output bit
/// depends on every input bit.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------
// The backward walk
// ---------------------------------------------------------------------

/// A proof the backward walk steps through: its steps in file order,
/// each an addition or a deletion.
pub(crate) trait WalkProof {
    /// Number of steps.
    fn num_steps(&self) -> usize;
    /// The clause step `pos` adds, or `None` when it deletes one.
    fn added(&self, pos: usize) -> Option<&Clause>;
}

impl WalkProof for DratProof {
    fn num_steps(&self) -> usize {
        self.steps.len()
    }

    fn added(&self, pos: usize) -> Option<&Clause> {
        let step = &self.steps[pos];
        (step.kind == DratStepKind::Add).then_some(&step.clause)
    }
}

/// What a walk that reached the start of the proof established, besides
/// its marks.
#[derive(Default)]
pub(crate) struct Walked {
    pub(crate) num_checked: usize,
    stats: DratStats,
    /// The empty clause the proof ends with, when it is live at the end:
    /// the claim the terminal check established.
    trailing_empty: Option<ClauseRef>,
    /// The terminal conflict's cone as LRAT hints (DRAT walks only).
    terminal_hints: Vec<i64>,
}

/// What a backward walk checks.
pub(crate) struct Plan<'t> {
    /// Whether the terminal check runs (a resumed walk may have run it).
    pub(crate) terminal: bool,
    /// The negated target the terminal check assumes; `None` for a
    /// refutation, whose trailing empty clause the terminal check
    /// stands for.
    pub(crate) target: Option<&'t [Lit]>,
    /// The additions checked, by index. The walk retires the additions
    /// above unchecked (a resumed walk checked them before) and stops
    /// below.
    pub(crate) checks: Range<usize>,
    /// Check every addition in `checks` (`Proof_verification1`), not
    /// only the marked ones.
    pub(crate) all: bool,
}

impl Plan<'_> {
    /// A refutation's walk: the terminal check, then the marked
    /// additions among the first `adds`.
    pub(crate) fn refutation(adds: usize) -> Self {
        Plan { terminal: true, target: None, checks: 0..adds, all: false }
    }
}

/// The backward walk shared by DRAT, deletion-annotated (DRUP) and
/// native proofs. The caller stores the proof's additions and resolves
/// its deletions ([`BackwardWalk::add`], [`BackwardWalk::delete`]); the
/// walk then checks the additions its [`Plan`] names from the last step
/// back, each against the clauses live at its point. A native walk
/// (its kernel's `native` set) first propagates `F`'s units at a root
/// level.
#[derive(Debug)]
pub(crate) struct BackwardWalk<'a, P: Propagator, W> {
    proof: &'a W,
    pub(crate) kernel: Kernel<P>,
    /// arena ref of each addition step (in proof order)
    add_refs: Vec<ClauseRef>,
    /// resolved target of each deletion step (in proof order)
    delete_refs: Vec<ClauseRef>,
    /// DRAT rules — a RAT fallback and LRAT hints — or RUP only, with
    /// nothing recorded (DRUP)
    drat: bool,
    /// LRAT hints of each checked addition step (in proof order)
    hints: Vec<Option<Vec<i64>>>,
    num_original: usize,
}

impl<'a, P: Propagator, W: WalkProof> BackwardWalk<'a, P, W> {
    /// A walk whose store holds the formula's clauses.
    pub(crate) fn new(formula: &CnfFormula, proof: &'a W, drat: bool) -> Self {
        let max_var = (0..proof.num_steps())
            .filter_map(|pos| proof.added(pos).and_then(Clause::max_var))
            .max();
        let num_vars = formula.num_vars().max(max_var.map_or(0, |v| v.idx() + 1));
        let mut kernel: Kernel<P> = Kernel::new(num_vars);
        for clause in formula.iter() {
            kernel.db.add_clause(clause.lits(), false);
        }
        kernel.marked = vec![false; formula.num_clauses()];
        BackwardWalk {
            proof,
            kernel,
            add_refs: Vec::new(),
            delete_refs: Vec::new(),
            drat,
            hints: Vec::new(),
            num_original: formula.num_clauses(),
        }
    }

    /// A native walk over a deletion-free proof, with the kernel's
    /// native discipline. The formula's clauses are attached before the
    /// proof's are stored, as the native checker always did: its watch
    /// lists then grow before the store does, which keeps a daemon's
    /// peak memory where it was.
    pub(crate) fn native(formula: &CnfFormula, proof: &'a W) -> Self {
        let mut walk = BackwardWalk::new(formula, proof, false);
        walk.kernel.native = true;
        walk.kernel.attach_live(0..walk.num_original);
        for pos in 0..proof.num_steps() {
            if let Some(clause) = proof.added(pos) {
                walk.add(clause);
            }
        }
        walk
    }

    /// Stores the next addition step's clause.
    pub(crate) fn add(&mut self, clause: &Clause) -> ClauseRef {
        let r = self.kernel.db.add_clause(clause.lits(), true);
        self.kernel.marked.push(false);
        self.add_refs.push(r);
        r
    }

    /// Deletes `r`, the target of the next deletion step.
    pub(crate) fn delete(&mut self, r: ClauseRef) {
        self.kernel.db.delete_clause(r);
        self.delete_refs.push(r);
    }

    /// The arena ref of the `j`-th addition.
    pub(crate) fn added_ref(&self, j: usize) -> ClauseRef {
        self.add_refs[j]
    }

    /// The marked original clauses.
    pub(crate) fn core(&self) -> UnsatCore {
        let marked = &self.kernel.marked;
        UnsatCore::new((0..self.num_original).filter(|&i| marked[i]).collect(), self.num_original)
    }

    /// For each addition step, whether it is marked.
    pub(crate) fn marked_adds(&self) -> Vec<bool> {
        self.add_refs.iter().map(|r| self.kernel.marked[r.index()]).collect()
    }

    /// The store's size in bytes, which the memory cap bounds.
    pub(crate) fn arena_bytes(&self) -> u64 {
        (self.kernel.db.arena_len() * std::mem::size_of::<Lit>()) as u64
    }

    /// Runs `plan` on `fuel`: a native walk's root level, the terminal
    /// check over the final live set, then every step from the last back.
    /// `Err` carries what stopped it.
    pub(crate) fn run(&mut self, plan: &Plan<'_>, fuel: &mut Fuel<'_>) -> Result<Walked, Stop> {
        let mut walked = Walked::default();
        let interrupted = |stopped, terminal_done, next, num_checked| Stop::Interrupted {
            stopped,
            terminal_done,
            next,
            num_checked,
        };
        // Attach the clauses live at the end of the proof in ref order:
        // the watch lists come out exactly as attaching each clause when
        // added and detaching it when deleted would leave them. A native
        // walk, whose formula is attached already, propagates F's units
        // before the proof is attached.
        if self.kernel.native {
            match self.kernel.propagate_root(fuel) {
                // F refutes itself by propagation: every check would
                // conflict on the cone just marked, so nothing else
                // needs testing
                Ok(true) => return Ok(walked),
                Ok(false) => {}
                Err(s) => return Err(interrupted(s, !plan.terminal, plan.checks.end, 0)),
            }
        } else {
            self.kernel.attach_live(0..self.num_original);
        }
        self.kernel.attach_live(self.num_original..self.kernel.db.len());
        if self.drat {
            self.hints = vec![None; self.add_refs.len()];
        }

        // A refutation's trailing live empty clause is the claim being
        // established — it must not witness its own check. The terminal
        // check below *is* its check; its hints become the empty
        // clause's LRAT line.
        let last = self.add_refs.last().copied();
        let trailing = last.filter(|&r| plan.target.is_none() && self.kernel.db.clause_len(r) == 0);
        walked.trailing_empty = trailing.filter(|&r| !self.kernel.db.is_deleted(r));
        if let Some(r) = walked.trailing_empty {
            self.kernel.db.delete_clause(r);
        }
        if plan.terminal {
            let hints = self.drat.then_some(&mut walked.terminal_hints);
            match self.kernel.refutes(plan.target.unwrap_or(&[]), hints, fuel) {
                Ok(true) => {}
                Ok(false) => return Err(Stop::NotARefutation),
                Err(s) => return Err(interrupted(s, false, plan.checks.end, 0)),
            }
        }

        // Walk the steps backward.
        let mut add_index = self.add_refs.len();
        let mut delete_index = self.delete_refs.len();
        let mut hints = Vec::new();
        for pos in (0..self.proof.num_steps()).rev() {
            let Some(clause) = self.proof.added(pos) else {
                // stepping back across a deletion resurrects the clause
                delete_index -= 1;
                let r = self.delete_refs[delete_index];
                let kernel = &mut self.kernel;
                kernel.db.undelete_clause(r);
                match *kernel.db.lits(r) {
                    [] => {}
                    [unit] => {
                        kernel.units.insert(r, unit);
                    }
                    _ => {
                        kernel.prop.attach_clause(&mut kernel.db, r);
                    }
                }
                continue;
            };
            add_index -= 1;
            if add_index < plan.checks.start {
                break;
            }
            let r = self.add_refs[add_index];
            // deactivate the clause being checked. It is never
            // resurrected, so its watch entries may go lazily: both
            // engines drop a deleted clause's entry without visiting it.
            if !self.kernel.db.is_deleted(r) {
                self.kernel.db.delete_clause(r);
                self.kernel.units.remove(&r);
            }
            if Some(r) == trailing
                || !plan.checks.contains(&add_index)
                || !(plan.all || self.kernel.marked[r.index()])
            {
                continue;
            }
            hints.clear();
            let implied = self.kernel.implied(
                clause.lits(),
                self.drat,
                self.drat.then_some(&mut hints),
                fuel,
                &mut walked.stats,
            );
            match implied {
                Implied::Yes => {
                    walked.num_checked += 1;
                    if self.drat {
                        self.hints[add_index] = Some(hints.as_slice().into());
                    }
                }
                Implied::No => {
                    return Err(Stop::NotImplied { step: add_index, clause: clause.clone() })
                }
                Implied::Interrupted(s) => {
                    return Err(interrupted(s, true, add_index + 1, walked.num_checked))
                }
            }
        }
        Ok(walked)
    }
}

/// The DRAT walk: every clause stored, each deletion resolved by content
/// through a [`DeletionIndex`].
fn drat_walk<'a, P: Propagator>(
    formula: &CnfFormula,
    proof: &'a DratProof,
) -> Result<BackwardWalk<'a, P, DratProof>, DratError> {
    let mut walk = BackwardWalk::<P, _>::new(formula, proof, true);
    walk.add_refs.reserve(proof.num_adds());
    walk.delete_refs.reserve(proof.num_deletes());
    let mut index = DeletionIndex::with_capacity(formula.num_clauses() + proof.num_adds());
    for (i, clause) in formula.iter().enumerate() {
        index.insert(ClauseRef::from_index(i), clause.lits());
    }
    for step in proof.steps() {
        match step.kind {
            DratStepKind::Add => {
                let r = walk.add(&step.clause);
                index.insert(r, step.clause.lits());
            }
            DratStepKind::Delete => {
                let db = &walk.kernel.db;
                let Some(r) = index.remove(step.clause.lits(), |r| db.lits(r)) else {
                    return Err(DratError::DeleteMissing {
                        position: step.position,
                        clause: step.clause.clone(),
                    });
                };
                walk.delete(r);
            }
        }
    }
    Ok(walk)
}

fn verify_drat_walk<P: Propagator>(
    formula: &CnfFormula,
    proof: &DratProof,
    harness: &Harness,
) -> DratOutcome {
    let mut walk = match drat_walk::<P>(formula, proof) {
        Ok(walk) => walk,
        Err(error) => return DratOutcome::Rejected { step: None, error },
    };
    let adds = walk.add_refs.len();
    // the arena is fully allocated, so the memory cap is decidable up
    // front
    if walk.arena_bytes() > harness.budget.max_arena_bytes {
        return DratOutcome::Exhausted {
            reason: ExhaustReason::Memory,
            progress: Progress { steps_total: adds, ..Progress::default() },
        };
    }
    let mut fuel = harness.fuel(Instant::now(), (0, 0));
    match walk.run(&Plan::refutation(adds), &mut fuel) {
        Ok(walked) => DratOutcome::Verified(Box::new(walk.certify(walked, &fuel))),
        Err(Stop::NotARefutation) => {
            DratOutcome::Rejected { step: None, error: DratError::NotARefutation }
        }
        Err(Stop::NotImplied { step, clause }) => {
            DratOutcome::Rejected { step: Some(step), error: DratError::NotImplied { step, clause } }
        }
        Err(Stop::Interrupted { stopped, num_checked, .. }) => DratOutcome::Exhausted {
            reason: stopped.into(),
            progress: Progress {
                steps_checked: num_checked,
                steps_total: adds,
                propagations: fuel.used_propagations,
                clause_visits: fuel.used_clause_visits,
            },
        },
    }
}

impl<P: Propagator> BackwardWalk<'_, P, DratProof> {
    /// The verification result of a completed DRAT walk, with its LRAT
    /// certificate.
    fn certify(mut self, walked: Walked, fuel: &Fuel<'_>) -> DratVerification {
        if let Some(last) = walked.trailing_empty {
            // keep the claim itself in the trimmed proof and LRAT
            self.kernel.marked[last.index()] = true;
            *self.hints.last_mut().expect("trailing add exists") =
                Some(walked.terminal_hints.clone());
        }
        let marked_adds = self.marked_adds();
        let kept_deletes: Vec<bool> = self
            .delete_refs
            .iter()
            .map(|&r| r.index() < self.num_original || self.kernel.marked[r.index()])
            .collect();
        let lrat = self.emit_lrat(&walked.terminal_hints, &marked_adds, &kept_deletes);
        DratVerification {
            core: self.core(),
            num_checked: walked.num_checked,
            stats: walked.stats,
            marked_adds,
            kept_deletes,
            lrat,
            propagations: fuel.used_propagations,
            clause_visits: fuel.used_clause_visits,
        }
    }

    /// Assembles the LRAT certificate from the recorded hints. Clause
    /// ids are dense insertion order (`ref.index() + 1`): originals get
    /// `1..=n`, additions continue upward — unmarked additions leave
    /// gaps, which LRAT permits (ids only have to increase).
    fn emit_lrat(
        &mut self,
        terminal_hints: &[i64],
        marked_adds: &[bool],
        kept_deletes: &[bool],
    ) -> LratProof {
        let mut lines = Vec::new();
        let mut last_id = self.num_original as u64;
        let mut pending: Vec<u64> = Vec::new();
        let (mut ai, mut di) = (0usize, 0usize);
        let mut have_empty = false;
        for step in self.proof.steps() {
            match step.kind {
                DratStepKind::Delete => {
                    if kept_deletes[di] {
                        pending.push(lrat_id(self.delete_refs[di]));
                    }
                    di += 1;
                }
                DratStepKind::Add => {
                    if marked_adds[ai] {
                        if !pending.is_empty() {
                            lines.push(LratLine::Delete {
                                id: last_id,
                                ids: std::mem::take(&mut pending),
                            });
                        }
                        let id = lrat_id(self.add_refs[ai]);
                        let hints = self.hints[ai].take().expect("marked addition was checked");
                        have_empty |= step.clause.is_empty();
                        lines.push(LratLine::Add(LratAdd {
                            id,
                            clause: step.clause.clone(),
                            hints,
                        }));
                        last_id = id;
                    }
                    ai += 1;
                }
            }
        }
        if !have_empty {
            // the proof never wrote the empty clause: the terminal
            // conflict over the final live set is the refutation — emit
            // it as a synthetic final line
            if !pending.is_empty() {
                lines.push(LratLine::Delete { id: last_id, ids: pending });
            }
            lines.push(LratLine::Add(LratAdd {
                id: self.kernel.db.len() as u64 + 1,
                clause: Clause::empty(),
                hints: terminal_hints.to_vec(),
            }));
        }
        LratProof::new(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Budget, CancelToken};
    use crate::lrat::check_lrat;

    fn xor_square() -> CnfFormula {
        CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2]])
    }

    fn proof_of(text: &str) -> DratProof {
        parse_drat_text(text.as_bytes()).expect("parse")
    }

    // -- parsing ------------------------------------------------------

    #[test]
    fn parses_text_with_deletions_comments_and_crlf() {
        let p = proof_of("c comment\r\n2 0\r\nd 1 2 0\r\n\r\n-2 0\n0\n");
        assert_eq!(p.num_adds(), 3);
        assert_eq!(p.num_deletes(), 1);
        assert_eq!(p.steps()[1].kind, DratStepKind::Delete);
        assert_eq!(p.steps()[1].clause, Clause::from_dimacs(&[1, 2]));
        assert_eq!(p.steps()[1].position, 3); // 1-based source line
        assert!(p.steps()[3].clause.is_empty());
    }

    #[test]
    fn text_clauses_may_span_lines_and_percent_terminates() {
        let p = proof_of("1 2\n3 0\n%\nthis is not drat\n");
        assert_eq!(p.num_adds(), 1);
        assert_eq!(p.steps()[0].clause, Clause::from_dimacs(&[1, 2, 3]));
    }

    #[test]
    fn text_errors_carry_line_numbers() {
        match parse_drat_text(b"1 2 0\nbogus 0\n").unwrap_err() {
            ParseDratError::BadToken { line, token } => {
                assert_eq!(line, 2);
                assert_eq!(token, "bogus");
            }
            other => panic!("wrong error {other:?}"),
        }
        match parse_drat_text(b"1 2 0\n3 4\n").unwrap_err() {
            ParseDratError::UnterminatedClause { line } => assert_eq!(line, 2),
            other => panic!("wrong error {other:?}"),
        }
        // a `d` inside a clause is malformed
        match parse_drat_text(b"1 d 2 0\n").unwrap_err() {
            ParseDratError::BadToken { line, token } => {
                assert_eq!(line, 1);
                assert_eq!(token, "d");
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn a_literal_of_i32_min_is_a_bad_token() {
        match parse_drat_text(b"1 -2147483648 0\n").unwrap_err() {
            ParseDratError::BadToken { line, token } => {
                assert_eq!((line, token.as_str()), (1, "-2147483648"));
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn binary_roundtrip_preserves_steps() {
        let p = proof_of("2 0\nd 1 2 0\n-2 0\n0\n");
        let bytes = encode_drat_to_vec(&p);
        assert!(is_binary_drat(&bytes));
        let q = parse_drat_binary(&bytes).expect("reparse");
        assert_eq!(q.num_adds(), p.num_adds());
        for (a, b) in p.steps().iter().zip(q.steps()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.clause, b.clause);
        }
    }

    #[test]
    fn text_roundtrip_preserves_steps() {
        let p = proof_of("2 0\nd 1 2 0\n-2 0\n0\n");
        let q = parse_drat_text(drat_to_string(&p).as_bytes()).expect("reparse");
        assert_eq!(p.num_adds(), q.num_adds());
        assert_eq!(p.num_deletes(), q.num_deletes());
    }

    #[test]
    fn binary_errors_carry_byte_offsets() {
        // garbage prefix byte
        match parse_drat_binary(b"x\x02\x00").unwrap_err() {
            ParseDratError::BadPrefix { offset, byte } => {
                assert_eq!((offset, byte), (0, b'x'));
            }
            other => panic!("wrong error {other:?}"),
        }
        // truncated mid-clause: 'a' then a literal, no terminator
        match parse_drat_binary(&[b'a', 4]).unwrap_err() {
            ParseDratError::UnexpectedEof { offset } => assert_eq!(offset, 2),
            other => panic!("wrong error {other:?}"),
        }
        // truncated varint (continuation bit, then EOF)
        match parse_drat_binary(&[b'a', 0x80]).unwrap_err() {
            ParseDratError::BadVarint { offset } => assert_eq!(offset, 1),
            other => panic!("wrong error {other:?}"),
        }
        // varint value 1 maps to no literal
        match parse_drat_binary(&[b'a', 1, 0]).unwrap_err() {
            ParseDratError::LiteralOutOfRange { offset } => assert_eq!(offset, 1),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn detection_heuristic() {
        assert!(is_binary_drat(b"a\x04\x00"));
        assert!(is_binary_drat(b"d\x04\x00"));
        assert!(!is_binary_drat(b"d 1 2 0\n"));
        assert!(!is_binary_drat(b"1 2 0\n"));
        assert!(!is_binary_drat(b""));
    }

    // -- backward checking --------------------------------------------

    #[test]
    fn verifies_a_plain_rup_proof() {
        let p = proof_of("2 0\n-2 0\n0\n");
        let v = verify_drat_backward(&xor_square(), &p).expect("valid");
        assert_eq!(v.num_checked, 2);
        assert_eq!(v.stats.num_rup, 2);
        assert_eq!(v.core.len(), 4);
        assert_eq!(v.marked_adds, vec![true, true, true]);
    }

    #[test]
    fn verifies_with_deletions_and_respects_the_live_set() {
        // same scenario as the deletion checker's regression test:
        // clause (3) is RUP only while the learned (2) is alive
        let f = CnfFormula::from_dimacs_clauses(&[
            vec![1, 2],
            vec![-1, 2],
            vec![-2, 3, 5],
            vec![-2, 3, -5],
            vec![-2, -3, 6],
            vec![-2, -3, -6],
        ]);
        let good = proof_of("2 0\n3 0\nd 3 0\n");
        // final live set: F + (2): assume nothing… F+(2) propagates 2,
        // then 3 and ¬3 clauses conflict? (¬2∨3∨5) → needs more: add
        // the closing units so the terminal check conflicts.
        let good = {
            let mut steps = good.steps().to_vec();
            steps.push(DratStep::add(Clause::from_dimacs(&[3])));
            steps.push(DratStep::add(Clause::empty()));
            DratProof::new(steps)
        };
        verify_drat_backward(&f, &good).expect("valid with deletion");

        // deleting (1 3) before deriving (1) breaks both RUP (no
        // conflict) and RAT (the resolvent with (-1 2) under ¬1 ¬2
        // propagates nothing)
        let g = CnfFormula::from_dimacs_clauses(&[
            vec![-1, 2],
            vec![-1, -2],
            vec![1, 3],
            vec![1, -3],
        ]);
        verify_drat_backward(&g, &proof_of("1 0\n0\n")).expect("baseline valid");
        let bad = proof_of("d 1 3 0\n1 0\n0\n");
        match verify_drat_backward(&g, &bad).expect_err("deleted dependency") {
            DratError::NotImplied { step, .. } => assert_eq!(step, 0),
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn rejects_deletion_of_missing_clause_with_position() {
        let p = proof_of("2 0\nd 7 8 0\n-2 0\n0\n");
        match verify_drat_backward(&xor_square(), &p).expect_err("missing delete") {
            DratError::DeleteMissing { position, clause } => {
                assert_eq!(position, 2);
                assert_eq!(clause, Clause::from_dimacs(&[7, 8]));
            }
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn rejects_a_non_refutation() {
        // the final live set must propagate to a conflict; (5 6) adds
        // nothing and the xor square alone has no units
        let p = proof_of("5 6 0\n");
        assert_eq!(
            verify_drat_backward(&xor_square(), &p).expect_err("no refutation"),
            DratError::NotARefutation
        );
        assert_eq!(
            verify_drat_backward(&xor_square(), &DratProof::default())
                .expect_err("empty proof"),
            DratError::NotARefutation
        );
    }

    #[test]
    fn accepts_rat_steps_backward() {
        // (9) is a fresh-variable unit: RAT (vacuously, no ¬9 clauses)
        // but not RUP. Force it to be *marked* by making the refutation
        // use it: add (¬9 ∨ 2) so the cone pulls 9's unit in.
        let p = proof_of("9 0\n-9 2 0\n-2 0\n0\n");
        let v = verify_drat_backward(&xor_square(), &p).expect("valid");
        assert!(v.stats.num_rat >= 1, "{:?}", v.stats);
    }

    #[test]
    fn unmarked_additions_are_skipped() {
        // (77 78) is junk the refutation never touches
        let p = proof_of("77 78 0\n2 0\n-2 0\n0\n");
        let v = verify_drat_backward(&xor_square(), &p).expect("valid");
        assert!(!v.marked_adds[0]);
        assert_eq!(v.num_checked, 2);
    }

    #[test]
    fn arena_engine_agrees_with_watched() {
        let p = proof_of("2 0\nd 1 2 0\n-2 0\n0\n");
        let w = verify_drat_backward(&xor_square(), &p).expect("watched");
        let outcome = verify_drat_backward_harnessed(
            &xor_square(),
            &p,
            &Harness::default(),
            PropagatorChoice::ArenaWatched,
        );
        match outcome {
            DratOutcome::Verified(a) => {
                assert_eq!(a.marked_adds, w.marked_adds);
                assert_eq!(a.core.len(), w.core.len());
            }
            other => panic!("arena disagrees: {other:?}"),
        }
    }

    // -- budgets ------------------------------------------------------

    #[test]
    fn starved_budget_exhausts_without_a_verdict() {
        // The terminal check conflicts on the units `2` and `-2` without
        // a propagation; the checks of `-2` and `2` take one each. A
        // check the cap cuts short is not counted.
        let p = proof_of("2 0\n-2 0\n0\n");
        for (cap, completed) in [(0, 0), (1, 1)] {
            let harness = Harness::with_budget(Budget::unlimited().max_propagations(cap));
            match verify_drat_backward_harnessed(
                &xor_square(),
                &p,
                &harness,
                PropagatorChoice::Watched,
            ) {
                DratOutcome::Exhausted { reason, progress } => {
                    assert_eq!(reason, ExhaustReason::Propagations);
                    assert_eq!(progress.steps_checked, completed, "cap {cap}");
                    assert_eq!(progress.steps_total, 3);
                }
                other => panic!("cap {cap}: expected exhaustion, got {other:?}"),
            }
        }
    }

    #[test]
    fn memory_cap_exhausts_up_front() {
        let p = proof_of("2 0\n-2 0\n0\n");
        let harness = Harness::with_budget(Budget::unlimited().max_arena_bytes(1));
        match verify_drat_backward_harnessed(
            &xor_square(),
            &p,
            &harness,
            PropagatorChoice::Watched,
        ) {
            DratOutcome::Exhausted { reason, .. } => {
                assert_eq!(reason, ExhaustReason::Memory);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_interrupts_the_run() {
        let p = proof_of("2 0\n-2 0\n0\n");
        let mut harness = Harness::default();
        let token = CancelToken::new();
        token.cancel();
        harness.cancel = token;
        match verify_drat_backward_harnessed(
            &xor_square(),
            &p,
            &harness,
            PropagatorChoice::Watched,
        ) {
            DratOutcome::Exhausted { reason, .. } => {
                assert_eq!(reason, ExhaustReason::Cancelled);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    // -- LRAT emission & trimming -------------------------------------

    #[test]
    fn emitted_lrat_revalidates() {
        let f = xor_square();
        let p = proof_of("2 0\nd 1 2 0\n-2 0\n0\n");
        let v = verify_drat_backward(&f, &p).expect("valid");
        check_lrat(&f, &v.lrat).expect("emitted LRAT re-validates");
    }

    #[test]
    fn emitted_lrat_revalidates_without_trailing_empty() {
        let f = xor_square();
        let p = proof_of("2 0\n-2 0\n");
        let v = verify_drat_backward(&f, &p).expect("valid");
        check_lrat(&f, &v.lrat).expect("synthetic terminal line re-validates");
    }

    #[test]
    fn emitted_lrat_covers_rat_candidates() {
        let p = proof_of("9 0\n-9 2 0\n-2 0\n0\n");
        let f = xor_square();
        let v = verify_drat_backward(&f, &p).expect("valid");
        assert!(v.stats.num_rat >= 1);
        let stats = check_lrat(&f, &v.lrat).expect("RAT LRAT re-validates");
        assert!(stats.num_rat_lines >= 1);
    }

    #[test]
    fn trimmed_proof_reverifies_and_drops_junk() {
        let f = xor_square();
        let p = proof_of("77 78 0\n2 0\nd 77 78 0\nd 1 2 0\n-2 0\n0\n");
        let v = verify_drat_backward(&f, &p).expect("valid");
        let trimmed = trim_drat(&p, &v);
        // junk add and its deletion are gone; the original-clause
        // deletion survives
        assert_eq!(trimmed.num_adds(), 3);
        assert_eq!(trimmed.num_deletes(), 1);
        let tv = verify_drat_backward(&f, &trimmed).expect("trimmed re-verifies");
        assert_eq!(tv.marked_adds.iter().filter(|&&m| m).count(), 3);
        check_lrat(&f, &tv.lrat).expect("trimmed LRAT re-validates");
    }

    #[test]
    fn native_proof_converts_and_agrees() {
        let native = ConflictClauseProof::new(vec![
            Clause::from_dimacs(&[2]),
            Clause::from_dimacs(&[-2]),
        ]);
        let drat = DratProof::from(&native);
        assert_eq!(drat.num_adds(), 2);
        assert_eq!(drat.to_conflict_proof(), native);
        verify_drat_backward(&xor_square(), &drat).expect("valid");
    }
}
