//! LRAT certificates — hinted proofs a consumer can replay in linear
//! time.
//!
//! LRAT (Cruz-Filipe, Heule, Hunt *et al.*, "Efficient Certified RAT
//! Verification") extends DRAT lines with *hints*: the exact sequence of
//! unit-propagating clauses that discharges each step, so a downstream
//! checker never searches — it only replays. The backward DRAT checker
//! in [`crate::drat`] records these hints while it works and emits an
//! [`LratProof`]; this module also provides a small self-contained
//! checker ([`check_lrat`]) used by the test-suite and CI to re-validate
//! every certificate we produce.
//!
//! The exact grammar of both the text and binary encodings is specified
//! in `docs/FORMATS.md`.

use std::error::Error;
use std::fmt;
use std::io::{self, Write};

use cnf::{Clause, CnfFormula, Lit};

use crate::binary::{read_varint, write_varint, VarintFault};

/// One clause-introduction line of an LRAT certificate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LratAdd {
    /// Identifier of the introduced clause; strictly increasing across
    /// add lines. Original formula clauses implicitly occupy `1..=n`.
    pub id: u64,
    /// The clause being introduced (empty = the refutation claim).
    pub clause: Clause,
    /// Replay hints. Positive values name clauses that become unit (the
    /// last one of a run conflicts); a negative value `-d` opens a RAT
    /// resolvent group against candidate clause `d`.
    pub hints: Vec<i64>,
}

/// One line of an LRAT certificate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LratLine {
    /// A clause introduction with replay hints.
    Add(LratAdd),
    /// A deletion line: the named clauses leave the active set.
    Delete {
        /// Line identifier (conventionally the id of the preceding add
        /// line; not required to increase).
        id: u64,
        /// Identifiers of the deleted clauses.
        ids: Vec<u64>,
    },
}

/// A parsed or emitted LRAT certificate.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LratProof {
    lines: Vec<LratLine>,
}

impl LratProof {
    /// Wraps a line sequence as a certificate.
    #[must_use]
    pub fn new(lines: Vec<LratLine>) -> Self {
        LratProof { lines }
    }

    /// The lines, in order.
    #[must_use]
    pub fn lines(&self) -> &[LratLine] {
        &self.lines
    }

    /// Number of add (clause-introduction) lines.
    #[must_use]
    pub fn num_adds(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| matches!(l, LratLine::Add(_)))
            .count()
    }

    /// Number of deletion lines.
    #[must_use]
    pub fn num_deletes(&self) -> usize {
        self.lines.len() - self.num_adds()
    }
}

impl From<Vec<LratLine>> for LratProof {
    fn from(lines: Vec<LratLine>) -> Self {
        LratProof::new(lines)
    }
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

/// Bytes [`write_lrat`] gathers before handing them to the writer.
const WRITE_CHUNK: usize = 64 * 1024;

/// Appends the decimal digits of `n`.
fn push_u64(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Appends `n` in decimal, with a leading `-` when negative.
fn push_i64(buf: &mut Vec<u8>, n: i64) {
    if n < 0 {
        buf.push(b'-');
    }
    push_u64(buf, n.unsigned_abs());
}

/// Writes the certificate in text LRAT
/// (`<id> <lit>* 0 <hint>* 0` / `<id> d <id>* 0`).
///
/// Lines are formatted into one reused buffer that is handed to the
/// writer whenever it holds 64 KiB, so memory stays bounded by that
/// chunk plus the longest line, never the whole certificate.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_lrat<W: Write>(mut writer: W, proof: &LratProof) -> io::Result<()> {
    let mut buf = Vec::with_capacity(WRITE_CHUNK + 1024);
    for line in &proof.lines {
        match line {
            LratLine::Add(add) => {
                push_u64(&mut buf, add.id);
                for &l in add.clause.lits() {
                    buf.push(b' ');
                    push_i64(&mut buf, i64::from(l.to_dimacs()));
                }
                buf.extend_from_slice(b" 0");
                for &h in &add.hints {
                    buf.push(b' ');
                    push_i64(&mut buf, h);
                }
                buf.extend_from_slice(b" 0\n");
            }
            LratLine::Delete { id, ids } => {
                push_u64(&mut buf, *id);
                buf.extend_from_slice(b" d");
                for &d in ids {
                    buf.push(b' ');
                    push_u64(&mut buf, d);
                }
                buf.extend_from_slice(b" 0\n");
            }
        }
        if buf.len() >= WRITE_CHUNK {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)
}

/// Renders the certificate as a text-LRAT string.
#[must_use]
pub fn lrat_to_string(proof: &LratProof) -> String {
    let mut buf = Vec::new();
    write_lrat(&mut buf, proof).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("text LRAT is ASCII")
}

/// Largest value the LEB128 varints of the binary encoding can carry.
const MAX_BINARY_ID: u64 = (u32::MAX >> 1) as u64;

fn signed_code(n: i64) -> u32 {
    if n > 0 {
        (n as u32) << 1
    } else {
        ((-n as u32) << 1) | 1
    }
}

/// Writes the certificate in binary LRAT: each line is an `'a'`/`'d'`
/// prefix byte followed by LEB128 varints; signed values (literals and
/// hints) use the mapping `n>0 → 2n`, `n<0 → 2|n|+1`; each sequence is
/// `0`-terminated. See `docs/FORMATS.md` for the full layout.
///
/// # Errors
///
/// Propagates writer I/O errors; returns `InvalidInput` when an id
/// exceeds the 31-bit varint range of the encoding.
pub fn encode_lrat<W: Write>(mut writer: W, proof: &LratProof) -> io::Result<()> {
    let check_id = |id: u64| {
        if id > MAX_BINARY_ID {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("clause id {id} exceeds the binary LRAT varint range"),
            ))
        } else {
            Ok(())
        }
    };
    for line in &proof.lines {
        match line {
            LratLine::Add(add) => {
                check_id(add.id)?;
                writer.write_all(b"a")?;
                write_varint(&mut writer, add.id as u32)?;
                for &l in add.clause.lits() {
                    write_varint(&mut writer, signed_code(i64::from(l.to_dimacs())))?;
                }
                writer.write_all(&[0])?;
                for &h in &add.hints {
                    check_id(h.unsigned_abs())?;
                    write_varint(&mut writer, signed_code(h))?;
                }
                writer.write_all(&[0])?;
            }
            LratLine::Delete { id, ids } => {
                check_id(*id)?;
                writer.write_all(b"d")?;
                write_varint(&mut writer, *id as u32)?;
                for &d in ids {
                    check_id(d)?;
                    write_varint(&mut writer, d as u32)?;
                }
                writer.write_all(&[0])?;
            }
        }
    }
    Ok(())
}

/// Encodes the certificate in binary LRAT to a byte vector.
///
/// # Panics
///
/// Panics if an id exceeds the 31-bit range of the binary encoding
/// (see [`encode_lrat`] for the fallible form).
#[must_use]
pub fn encode_lrat_to_vec(proof: &LratProof) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_lrat(&mut buf, proof).expect("ids in range, Vec cannot fail");
    buf
}

// ---------------------------------------------------------------------
// Parsers
// ---------------------------------------------------------------------

/// An error produced while parsing an LRAT certificate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseLratError {
    /// A token was not a number (or a misplaced `d`) — text encoding.
    BadToken {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A line ended before both `0` terminators were seen — text
    /// encoding (LRAT lines do not span physical lines).
    UnterminatedLine {
        /// 1-based line number.
        line: usize,
    },
    /// A line started with a byte other than `'a'`/`'d'` — binary
    /// encoding.
    BadPrefix {
        /// Byte offset of the prefix.
        offset: usize,
        /// The offending byte.
        byte: u8,
    },
    /// A varint was truncated or overlong — binary encoding.
    BadVarint {
        /// Byte offset where the varint started.
        offset: usize,
    },
    /// A varint decoded to a value outside the literal/id range —
    /// binary encoding.
    NumberOutOfRange {
        /// Byte offset where the varint started.
        offset: usize,
    },
    /// The input ended in the middle of a line — binary encoding.
    UnexpectedEof {
        /// Byte offset at which more input was required.
        offset: usize,
    },
}

impl fmt::Display for ParseLratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseLratError::BadToken { line, token } => {
                write!(f, "bad token {token:?} on line {line}")
            }
            ParseLratError::UnterminatedLine { line } => {
                write!(f, "unterminated LRAT line at line {line}")
            }
            ParseLratError::BadPrefix { offset, byte } => {
                write!(f, "bad line prefix byte 0x{byte:02x} at byte {offset}")
            }
            ParseLratError::BadVarint { offset } => {
                write!(f, "malformed varint at byte {offset}")
            }
            ParseLratError::NumberOutOfRange { offset } => {
                write!(f, "number out of range at byte {offset}")
            }
            ParseLratError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
        }
    }
}

impl Error for ParseLratError {}

/// Whether a byte buffer holds *binary* LRAT: text lines begin with a
/// digit (or a `c` comment), binary lines with `'a'`/`'d'` — in text
/// LRAT even deletion lines start with the line id, so a leading
/// `'d'` is unambiguous.
#[must_use]
pub fn is_binary_lrat(bytes: &[u8]) -> bool {
    matches!(bytes.first(), Some(&b'a') | Some(&b'd'))
}

/// Parses an LRAT certificate, auto-detecting the encoding via
/// [`is_binary_lrat`].
///
/// # Errors
///
/// Returns [`ParseLratError`] with a line number (text) or byte offset
/// (binary) on malformed input.
pub fn parse_lrat(bytes: &[u8]) -> Result<LratProof, ParseLratError> {
    if is_binary_lrat(bytes) {
        parse_lrat_binary(bytes)
    } else {
        parse_lrat_text(bytes)
    }
}

/// Parses a token as `str::parse::<u64>` does: an optional `+`, then
/// one or more ASCII digits, without overflow.
fn parse_u64_token(tok: &[u8]) -> Option<u64> {
    let digits = match tok {
        [b'+', rest @ ..] => rest,
        _ => tok,
    };
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        if b.is_ascii_digit() {
            n.checked_mul(10)?.checked_add(u64::from(b - b'0'))
        } else {
            None
        }
    })
}

/// Parses a token as `str::parse::<i64>` does: an optional sign, then
/// one or more ASCII digits, without overflow.
fn parse_i64_token(tok: &[u8]) -> Option<i64> {
    match tok {
        [b'-', rest @ ..] => {
            let magnitude = match rest {
                [b'+' | b'-', ..] => return None,
                _ => parse_u64_token(rest)?,
            };
            0i64.checked_sub_unsigned(magnitude)
        }
        _ => i64::try_from(parse_u64_token(tok)?).ok(),
    }
}

/// A cursor over text LRAT: tokens are runs of bytes other than ASCII
/// whitespace, and a line ends at `\n`.
struct TextCursor<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> TextCursor<'b> {
    /// The next token of the current line, or `None` at its end.
    fn token(&mut self) -> Option<&'b [u8]> {
        let bytes = self.bytes;
        let mut i = self.pos;
        while i < bytes.len() && bytes[i] != b'\n' && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let start = i;
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        self.pos = i;
        (i > start).then(|| &bytes[start..i])
    }

    /// Moves past the end of the current line; `false` at the end of
    /// the input.
    fn next_line(&mut self) -> bool {
        match self.bytes[self.pos..].iter().position(|&b| b == b'\n') {
            Some(at) => {
                self.pos += at + 1;
                true
            }
            None => {
                self.pos = self.bytes.len();
                false
            }
        }
    }
}

/// Parses text LRAT. Comment lines (`c …`) and blank lines are skipped.
///
/// The input is scanned as bytes: lines end at `\n` (a `\r` before it
/// is whitespace), tokens are separated by ASCII whitespace, and numbers
/// follow `str::parse` (an optional sign, decimal digits, no overflow).
/// A token that is not valid UTF-8 is reported with U+FFFD in place of
/// its invalid bytes.
///
/// # Errors
///
/// See [`parse_lrat`].
pub fn parse_lrat_text(bytes: &[u8]) -> Result<LratProof, ParseLratError> {
    let mut lines = Vec::new();
    // scratch reused by every add line; each line's literals and hints
    // are then allocated once, at their exact size
    let mut lits = Vec::new();
    let mut hints = Vec::new();
    let mut cursor = TextCursor { bytes, pos: 0 };
    let mut line = 0;
    loop {
        line += 1;
        let bad = |tok: &[u8]| ParseLratError::BadToken {
            line,
            token: String::from_utf8_lossy(tok).into_owned(),
        };
        if let Some(first) = cursor.token().filter(|first| first[0] != b'c') {
            let id = parse_u64_token(first).ok_or_else(|| bad(first))?;
            let mut second = cursor.token();
            if second == Some(b"d") {
                let mut ids = Vec::new();
                loop {
                    let Some(tok) = cursor.token() else {
                        return Err(ParseLratError::UnterminatedLine { line });
                    };
                    match parse_u64_token(tok).ok_or_else(|| bad(tok))? {
                        0 => break,
                        v => ids.push(v),
                    }
                }
                lines.push(LratLine::Delete { id, ids });
            } else {
                lits.clear();
                hints.clear();
                let mut zeros = 0;
                while zeros < 2 {
                    let Some(tok) = second.take().or_else(|| cursor.token()) else {
                        return Err(ParseLratError::UnterminatedLine { line });
                    };
                    let v = parse_i64_token(tok).ok_or_else(|| bad(tok))?;
                    if v == 0 {
                        zeros += 1;
                    } else if zeros == 0 {
                        // i32::MIN names no variable
                        let lit = i32::try_from(v)
                            .ok()
                            .filter(|&l| l != i32::MIN)
                            .ok_or_else(|| bad(tok))?;
                        lits.push(Lit::from_dimacs(lit));
                    } else {
                        hints.push(v);
                    }
                }
                lines.push(LratLine::Add(LratAdd {
                    id,
                    clause: Clause::from_lits(&lits),
                    hints: hints.as_slice().into(),
                }));
            }
        }
        // tokens after a line's terminator are ignored
        if !cursor.next_line() {
            break;
        }
    }
    Ok(LratProof::new(lines))
}

fn read_lrat_varint(bytes: &[u8], pos: &mut usize) -> Result<u32, ParseLratError> {
    let start = *pos;
    match read_varint(bytes, pos) {
        Ok(v) => Ok(v),
        Err(VarintFault::Overflow) => Err(ParseLratError::NumberOutOfRange { offset: start }),
        Err(VarintFault::Truncated | VarintFault::TooLong) => {
            Err(ParseLratError::BadVarint { offset: start })
        }
    }
}

fn decode_signed(code: u32) -> i64 {
    let mag = i64::from(code >> 1);
    if code & 1 == 1 {
        -mag
    } else {
        mag
    }
}

/// Parses binary LRAT (the encoding written by [`encode_lrat`]).
///
/// # Errors
///
/// See [`parse_lrat`]; errors carry the byte offset of the fault.
pub fn parse_lrat_binary(bytes: &[u8]) -> Result<LratProof, ParseLratError> {
    let mut lines = Vec::new();
    let mut lits = Vec::new();
    let mut hints = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let prefix = bytes[pos];
        let prefix_at = pos;
        pos += 1;
        match prefix {
            b'a' => {
                let id = u64::from(read_lrat_varint(bytes, &mut pos)?);
                lits.clear();
                hints.clear();
                let mut in_hints = false;
                loop {
                    if pos >= bytes.len() {
                        return Err(ParseLratError::UnexpectedEof { offset: pos });
                    }
                    if bytes[pos] == 0 {
                        pos += 1;
                        if in_hints {
                            break;
                        }
                        in_hints = true;
                        continue;
                    }
                    let start = pos;
                    let code = read_lrat_varint(bytes, &mut pos)?;
                    if code < 2 {
                        return Err(ParseLratError::NumberOutOfRange { offset: start });
                    }
                    let value = decode_signed(code);
                    if in_hints {
                        hints.push(value);
                    } else {
                        let lit = i32::try_from(value).map_err(|_| {
                            ParseLratError::NumberOutOfRange { offset: start }
                        })?;
                        lits.push(Lit::from_dimacs(lit));
                    }
                }
                lines.push(LratLine::Add(LratAdd {
                    id,
                    clause: Clause::from_lits(&lits),
                    hints: hints.as_slice().into(),
                }));
            }
            b'd' => {
                let id = u64::from(read_lrat_varint(bytes, &mut pos)?);
                let mut ids = Vec::new();
                loop {
                    if pos >= bytes.len() {
                        return Err(ParseLratError::UnexpectedEof { offset: pos });
                    }
                    if bytes[pos] == 0 {
                        pos += 1;
                        break;
                    }
                    ids.push(u64::from(read_lrat_varint(bytes, &mut pos)?));
                }
                lines.push(LratLine::Delete { id, ids });
            }
            byte => return Err(ParseLratError::BadPrefix { offset: prefix_at, byte }),
        }
    }
    Ok(lines.into())
}

// ---------------------------------------------------------------------
// Checking
// ---------------------------------------------------------------------

/// Statistics of a successful [`check_lrat`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LratStats {
    /// Clause-introduction lines replayed.
    pub num_add_lines: usize,
    /// Lines that used RAT resolvent groups.
    pub num_rat_lines: usize,
    /// Deletion lines applied.
    pub num_delete_lines: usize,
}

/// Why an LRAT certificate was rejected. Every variant names the id of
/// the offending line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LratError {
    /// An add line's id did not exceed all earlier add-line ids.
    NonIncreasingId {
        /// The offending line id.
        id: u64,
    },
    /// A hint or deletion referenced a clause id not in the active set.
    UnknownClause {
        /// The line containing the reference.
        id: u64,
        /// The missing clause id.
        referenced: u64,
    },
    /// A positive hint named a clause that was neither unit nor
    /// falsified when replayed.
    HintNotUnit {
        /// The line containing the hint.
        id: u64,
        /// The hint clause id.
        hint: u64,
    },
    /// A hint segment ran out without reaching a conflict.
    NoConflict {
        /// The offending line id.
        id: u64,
    },
    /// Hints remained after the conflict (or after a vacuous resolvent).
    TrailingHints {
        /// The offending line id.
        id: u64,
    },
    /// A RAT line left an active ¬pivot clause without a resolvent
    /// group.
    MissingRatCandidate {
        /// The offending line id.
        id: u64,
        /// The uncovered candidate clause id.
        candidate: u64,
    },
    /// A RAT group named a clause that is not an active ¬pivot
    /// candidate (or repeated one).
    UnexpectedRatGroup {
        /// The offending line id.
        id: u64,
        /// The group's candidate clause id.
        candidate: u64,
    },
    /// A negative hint appeared on an empty-clause line, which has no
    /// pivot.
    EmptyClausePivot {
        /// The offending line id.
        id: u64,
    },
    /// The certificate ended without deriving the empty clause.
    NotARefutation,
}

impl fmt::Display for LratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LratError::NonIncreasingId { id } => {
                write!(f, "line {id}: id does not increase")
            }
            LratError::UnknownClause { id, referenced } => {
                write!(f, "line {id}: references unknown clause {referenced}")
            }
            LratError::HintNotUnit { id, hint } => {
                write!(f, "line {id}: hint clause {hint} is not unit under the assignment")
            }
            LratError::NoConflict { id } => {
                write!(f, "line {id}: hints end without a conflict")
            }
            LratError::TrailingHints { id } => {
                write!(f, "line {id}: hints remain after the conflict")
            }
            LratError::MissingRatCandidate { id, candidate } => {
                write!(f, "line {id}: no resolvent group for candidate clause {candidate}")
            }
            LratError::UnexpectedRatGroup { id, candidate } => {
                write!(f, "line {id}: unexpected resolvent group for clause {candidate}")
            }
            LratError::EmptyClausePivot { id } => {
                write!(f, "line {id}: RAT group on an empty clause")
            }
            LratError::NotARefutation => {
                write!(f, "certificate ends without deriving the empty clause")
            }
        }
    }
}

impl Error for LratError {}

/// Ids up to this many times the number of clauses stored (plus
/// [`DENSE_SLACK`]) index the table directly; larger ids are kept in a
/// sorted list instead, so a sparse or huge id costs no memory.
const DENSE_FACTOR: u64 = 4;
/// See [`DENSE_FACTOR`].
const DENSE_SLACK: u64 = 1024;

/// The active clauses by id, borrowed from the formula and the
/// certificate. Ids are inserted in increasing order (add-line ids must
/// increase), so a dense prefix is a direct index and the rest is a
/// sorted list searched by bisection. A deleted clause leaves `None`.
struct ClauseTable<'c> {
    /// `dense[id]`, for ids below `dense.len()`
    dense: Vec<Option<&'c Clause>>,
    /// ids from `dense.len()` on, ascending
    sparse: Vec<(u64, Option<&'c Clause>)>,
    inserted: u64,
}

impl<'c> ClauseTable<'c> {
    fn with_capacity(clauses: usize) -> Self {
        ClauseTable { dense: Vec::with_capacity(clauses + 1), sparse: Vec::new(), inserted: 0 }
    }

    /// Adds clause `id`, which exceeds every id added before.
    fn insert(&mut self, id: u64, clause: &'c Clause) {
        self.inserted += 1;
        if self.sparse.is_empty() && id <= DENSE_FACTOR * self.inserted + DENSE_SLACK {
            let slot = id as usize;
            if slot >= self.dense.len() {
                self.dense.resize(slot + 1, None);
            }
            self.dense[slot] = Some(clause);
        } else {
            self.sparse.push((id, Some(clause)));
        }
    }

    fn get(&self, id: u64) -> Option<&'c Clause> {
        match usize::try_from(id) {
            Ok(i) if i < self.dense.len() => self.dense[i],
            _ => {
                let at = self.sparse.binary_search_by_key(&id, |&(k, _)| k).ok()?;
                self.sparse[at].1
            }
        }
    }

    /// Deletes clause `id`; `false` when it is not active.
    fn remove(&mut self, id: u64) -> bool {
        let slot = match usize::try_from(id) {
            Ok(i) if i < self.dense.len() => &mut self.dense[i],
            _ => match self.sparse.binary_search_by_key(&id, |&(k, _)| k) {
                Ok(at) => &mut self.sparse[at].1,
                Err(_) => return false,
            },
        };
        slot.take().is_some()
    }

    /// The active clauses, in ascending id order.
    fn active(&self) -> impl Iterator<Item = (u64, &'c Clause)> + '_ {
        let dense = self.dense.iter().enumerate().map(|(i, c)| (i as u64, *c));
        dense
            .chain(self.sparse.iter().copied())
            .filter_map(|(id, c)| Some((id, c?)))
    }
}

struct LratChecker<'c> {
    db: ClauseTable<'c>,
    /// 0 = unassigned, 1 = true, -1 = false (indexed by variable).
    values: Vec<i8>,
    trail: Vec<Lit>,
}

enum Replay {
    Conflict,
    OutOfHints,
}

impl<'c> LratChecker<'c> {
    fn value(&self, l: Lit) -> i8 {
        let v = self.values[l.var().idx()];
        if l.is_positive() {
            v
        } else {
            -v
        }
    }

    fn assign_true(&mut self, l: Lit) {
        self.values[l.var().idx()] = if l.is_positive() { 1 } else { -1 };
        self.trail.push(l);
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let l = self.trail.pop().expect("mark within trail");
            self.values[l.var().idx()] = 0;
        }
    }

    /// Assumes the negation of every literal of `clause` except `skip`.
    /// Returns `false` when the assumptions clash (the obligation is a
    /// tautology and holds vacuously).
    fn assume_negated(&mut self, clause: &Clause, skip: Option<Lit>) -> bool {
        for &l in clause.lits() {
            if Some(l) == skip {
                continue;
            }
            match self.value(l) {
                1 => return false, // ¬l clashes with an earlier assumption
                -1 => {}           // duplicate literal
                _ => self.assign_true(!l),
            }
        }
        true
    }

    /// Replays one run of positive hints: each must be unit (assign its
    /// literal) or falsified (the conflict ending the run).
    fn replay(&mut self, line_id: u64, hints: &[i64]) -> Result<Replay, LratError> {
        for (i, &h) in hints.iter().enumerate() {
            let hid = h.unsigned_abs();
            let clause = self
                .db
                .get(hid)
                .ok_or(LratError::UnknownClause { id: line_id, referenced: hid })?;
            let mut unit = None;
            let mut open = 0usize;
            for &l in clause.lits() {
                match self.value(l) {
                    -1 => {}
                    _ => {
                        open += 1;
                        unit = Some(l);
                    }
                }
            }
            match (open, unit) {
                (0, _) => {
                    // conflict: this hint must close the run
                    if i + 1 != hints.len() {
                        return Err(LratError::TrailingHints { id: line_id });
                    }
                    return Ok(Replay::Conflict);
                }
                (1, Some(l)) if self.value(l) == 0 => self.assign_true(l),
                _ => return Err(LratError::HintNotUnit { id: line_id, hint: hid }),
            }
        }
        Ok(Replay::OutOfHints)
    }
}

/// Checks an LRAT certificate against `formula` by strict hint replay:
/// no search, each hinted clause must be unit or the closing conflict,
/// RAT lines must cover every active ¬pivot candidate.
///
/// The active clauses are borrowed from `formula` and `proof`, never
/// copied.
///
/// # Errors
///
/// Returns [`LratError`] naming the offending line on the first failed
/// replay, or [`LratError::NotARefutation`] when the certificate never
/// derives the empty clause. A RAT line that leaves several candidates
/// uncovered names the smallest of their ids.
///
/// # Examples
///
/// ```
/// use cnf::CnfFormula;
/// use proofver::{check_lrat, parse_lrat_text};
///
/// let f = CnfFormula::from_dimacs_clauses(&[
///     vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2],
/// ]);
/// // originals are ids 1-4; derive (2), (-2), then the empty clause
/// let lrat = parse_lrat_text(b"5 2 0 1 4 0\n6 -2 0 2 3 0\n7 0 5 6 0\n")?;
/// check_lrat(&f, &lrat)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_lrat(formula: &CnfFormula, proof: &LratProof) -> Result<LratStats, LratError> {
    let mut num_vars = formula.num_vars();
    let mut num_adds = 0;
    for line in proof.lines() {
        if let LratLine::Add(add) = line {
            num_adds += 1;
            if let Some(v) = add.clause.max_var() {
                num_vars = num_vars.max(v.idx() + 1);
            }
        }
    }
    let mut db = ClauseTable::with_capacity(formula.num_clauses() + num_adds);
    for (i, clause) in formula.iter().enumerate() {
        db.insert(i as u64 + 1, clause);
    }
    let mut chk = LratChecker { db, values: vec![0; num_vars], trail: Vec::new() };
    let mut stats = LratStats::default();
    let mut last_id = formula.num_clauses() as u64;
    // RAT bookkeeping reused across lines: the candidates a line must
    // cover, ascending, and whether each has its group yet
    let mut needed: Vec<(u64, bool)> = Vec::new();

    for line in proof.lines() {
        match line {
            LratLine::Delete { id, ids } => {
                for &d in ids {
                    if !chk.db.remove(d) {
                        return Err(LratError::UnknownClause { id: *id, referenced: d });
                    }
                }
                stats.num_delete_lines += 1;
            }
            LratLine::Add(add) => {
                if add.id <= last_id {
                    return Err(LratError::NonIncreasingId { id: add.id });
                }
                stats.num_add_lines += 1;
                let split = add.hints.iter().position(|&h| h < 0).unwrap_or(add.hints.len());
                let (initial, groups) = add.hints.split_at(split);
                if !groups.is_empty() && add.clause.is_empty() {
                    return Err(LratError::EmptyClausePivot { id: add.id });
                }
                let mark = chk.trail.len();
                let discharged = if !chk.assume_negated(&add.clause, None) {
                    // the clause is a tautology: vacuously fine
                    true
                } else {
                    match chk.replay(add.id, initial)? {
                        Replay::Conflict => true,
                        Replay::OutOfHints if groups.is_empty() => {
                            // No conflict and no RAT groups. One sound
                            // escape remains: a *blocked* clause. A pivot
                            // whose negation occurs in no active clause has
                            // zero resolvents, so RAT holds vacuously and
                            // there is nothing to replay.
                            let blocked = add.clause.lits().first().is_some_and(|&pivot| {
                                !chk.db.active().any(|(_, c)| c.contains(!pivot))
                            });
                            if !blocked {
                                chk.undo_to(mark);
                                return Err(LratError::NoConflict { id: add.id });
                            }
                            stats.num_rat_lines += 1;
                            true
                        }
                        Replay::OutOfHints => false,
                    }
                };
                if !discharged {
                    // RAT: every active clause containing ¬pivot needs a
                    // resolvent group
                    stats.num_rat_lines += 1;
                    let pivot = add.clause.lits()[0];
                    needed.clear();
                    needed.extend(
                        chk.db
                            .active()
                            .filter(|(_, c)| c.contains(!pivot))
                            .map(|(id, _)| (id, false)),
                    );
                    let mut rest = groups;
                    while let Some((&neg, tail)) = rest.split_first() {
                        let candidate = neg.unsigned_abs();
                        let glen = tail.iter().position(|&h| h < 0).unwrap_or(tail.len());
                        let (ghints, next) = tail.split_at(glen);
                        rest = next;
                        let covered = match needed.binary_search_by_key(&candidate, |&(id, _)| id) {
                            Ok(at) if !needed[at].1 => &mut needed[at].1,
                            _ => {
                                return Err(LratError::UnexpectedRatGroup {
                                    id: add.id,
                                    candidate,
                                })
                            }
                        };
                        *covered = true;
                        let d = chk.db.get(candidate).ok_or(LratError::UnknownClause {
                            id: add.id,
                            referenced: candidate,
                        })?;
                        let gmark = chk.trail.len();
                        if chk.assume_negated(d, Some(!pivot)) {
                            match chk.replay(add.id, ghints)? {
                                Replay::Conflict => {}
                                Replay::OutOfHints => {
                                    return Err(LratError::NoConflict { id: add.id })
                                }
                            }
                        } else if !ghints.is_empty() {
                            // vacuous resolvent: nothing to replay
                            return Err(LratError::TrailingHints { id: add.id });
                        }
                        chk.undo_to(gmark);
                    }
                    if let Some(&(candidate, _)) = needed.iter().find(|(_, covered)| !covered) {
                        return Err(LratError::MissingRatCandidate { id: add.id, candidate });
                    }
                }
                chk.undo_to(mark);
                if add.clause.is_empty() {
                    return Ok(stats);
                }
                chk.db.insert(add.id, &add.clause);
                last_id = add.id;
            }
        }
    }
    Err(LratError::NotARefutation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_square() -> CnfFormula {
        CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2]])
    }

    // xor_square originals: 1=(1 2)  2=(-1 -2)  3=(1 -2)  4=(-1 2).
    // (2): assume ¬2, clause 1 → unit 1, clause 4 falsified.
    // (-2): assume 2, clause 2 → unit ¬1, clause 3 falsified.
    fn xor_lrat() -> LratProof {
        parse_lrat_text(b"5 2 0 1 4 0\n6 -2 0 2 3 0\n7 0 5 6 0\n").expect("parse")
    }

    #[test]
    fn accepts_a_hand_written_certificate() {
        let stats = check_lrat(&xor_square(), &xor_lrat()).expect("valid");
        assert_eq!(stats.num_add_lines, 3);
        assert_eq!(stats.num_rat_lines, 0);
    }

    #[test]
    fn deletion_lines_shrink_the_active_set() {
        let lrat =
            parse_lrat_text(b"5 2 0 1 4 0\n5 d 1 0\n6 -2 0 2 3 0\n7 0 5 6 0\n").expect("parse");
        let stats = check_lrat(&xor_square(), &lrat).expect("valid");
        assert_eq!(stats.num_delete_lines, 1);
        // deleting a clause a later hint needs must fail
        let bad =
            parse_lrat_text(b"5 2 0 1 4 0\n5 d 2 0\n6 -2 0 2 3 0\n7 0 5 6 0\n").expect("parse");
        assert!(matches!(
            check_lrat(&xor_square(), &bad),
            Err(LratError::UnknownClause { referenced: 2, .. })
        ));
    }

    #[test]
    fn rejects_non_unit_hints_and_missing_conflicts() {
        // hint 3 = (1 -2): satisfied under ¬(2) → two non-false literals
        let bad = parse_lrat_text(b"5 2 0 3 0\n").expect("parse");
        assert!(matches!(
            check_lrat(&xor_square(), &bad),
            Err(LratError::HintNotUnit { hint: 3, .. })
        ));
        // hint 1 = (1 2) is unit, then hints end before any conflict
        let bad = parse_lrat_text(b"5 2 0 1 0\n").expect("parse");
        assert!(matches!(
            check_lrat(&xor_square(), &bad),
            Err(LratError::NoConflict { id: 5 })
        ));
    }

    #[test]
    fn rejects_non_increasing_ids_and_unknown_hints() {
        let bad = parse_lrat_text(b"4 2 0 1 4 0\n").expect("parse");
        assert!(matches!(
            check_lrat(&xor_square(), &bad),
            Err(LratError::NonIncreasingId { id: 4 })
        ));
        let bad = parse_lrat_text(b"5 2 0 99 0\n").expect("parse");
        assert!(matches!(
            check_lrat(&xor_square(), &bad),
            Err(LratError::UnknownClause { referenced: 99, .. })
        ));
    }

    #[test]
    fn requires_the_empty_clause() {
        let partial = parse_lrat_text(b"5 2 0 1 4 0\n").expect("parse");
        assert_eq!(check_lrat(&xor_square(), &partial), Err(LratError::NotARefutation));
    }

    #[test]
    fn rat_line_with_full_candidate_coverage() {
        // F = (1∨2) ∧ (¬2∨3): clause (¬2∨¬1) is blocked on ¬2; its only
        // resolvent (with clause 1) is tautological → empty group hints.
        let f = CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-2, 3]]);
        let lrat = parse_lrat_text(b"3 -2 -1 0 -1 0\n").expect("parse");
        // not a refutation, but the RAT line itself must replay: check
        // the line error shape instead
        assert_eq!(check_lrat(&f, &lrat), Err(LratError::NotARefutation));

        // dropping the group leaves candidate 1 uncovered
        let bad = parse_lrat_text(b"3 -2 -1 0 0\n").expect("parse");
        assert!(matches!(
            check_lrat(&f, &bad),
            Err(LratError::NoConflict { .. }) | Err(LratError::MissingRatCandidate { .. })
        ));
    }

    #[test]
    fn missing_rat_candidates_name_the_smallest_id() {
        // pivot 1; the clauses holding ¬1 are 2, 3 and 5. Each has a
        // resolvent group that falsifies one clause: 2 = (¬1 ∨ 2) with
        // 1 = (1 ∨ 2), 3 = (¬1 ∨ 4) with 6 = (1 ∨ 4), 5 = (¬1 ∨ 3) with
        // 4 = (1 ∨ 3).
        let mut clauses =
            vec![vec![1, 2], vec![-1, 2], vec![-1, 4], vec![1, 3], vec![-1, 3], vec![1, 4]];
        let only_5 = parse_lrat_text(b"100 1 0 -5 4 0\n").expect("parse");
        let f = CnfFormula::from_dimacs_clauses(&clauses);
        assert_eq!(
            check_lrat(&f, &only_5),
            Err(LratError::MissingRatCandidate { id: 100, candidate: 2 })
        );
        let all = parse_lrat_text(b"100 1 0 -2 1 -3 6 -5 4 0\n").expect("parse");
        assert_eq!(check_lrat(&f, &all), Err(LratError::NotARefutation));
        // ten more candidates, 7..=16: more than a hash set keeps in
        // order, and still the smallest uncovered id is named
        clauses.extend((0..10).map(|k| vec![-1, 5 + k]));
        let f = CnfFormula::from_dimacs_clauses(&clauses);
        for _ in 0..8 {
            assert_eq!(
                check_lrat(&f, &only_5),
                Err(LratError::MissingRatCandidate { id: 100, candidate: 2 })
            );
        }
        assert_eq!(
            check_lrat(&f, &all),
            Err(LratError::MissingRatCandidate { id: 100, candidate: 7 })
        );
    }

    #[test]
    fn sparse_and_huge_ids_check_without_a_table_per_id() {
        // the xor refutation with ids far apart, up to 2^40 and beyond
        // what a direct table could hold
        let big = 1u64 << 40;
        let text = format!(
            "{a} 2 0 1 4 0\n{a} d 1 0\n{b} -2 0 2 3 0\n{c} 0 {a} {b} 0\n",
            a = 1_000,
            b = big,
            c = u64::MAX,
        );
        let lrat = parse_lrat_text(text.as_bytes()).expect("parse");
        let stats = check_lrat(&xor_square(), &lrat).expect("sparse ids check");
        assert_eq!(stats.num_add_lines, 3);
        // an id that was never added, in the sparse range
        let text = format!("{big} 2 0 1 4 0\n{} -2 0 {} 2 3 0\n", big + 2, big + 1);
        assert_eq!(
            check_lrat(&xor_square(), &parse_lrat_text(text.as_bytes()).expect("parse")),
            Err(LratError::UnknownClause { id: big + 2, referenced: big + 1 })
        );
        // deleting a clause twice, dense and sparse
        let text = format!("{big} 2 0 1 4 0\n{big} d 1 {big} 0\n{big} d {big} 0\n");
        assert_eq!(
            check_lrat(&xor_square(), &parse_lrat_text(text.as_bytes()).expect("parse")),
            Err(LratError::UnknownClause { id: big, referenced: big })
        );
        let twice = parse_lrat_text(b"5 2 0 1 4 0\n5 d 3 0\n5 d 3 0\n").expect("parse");
        assert_eq!(
            check_lrat(&xor_square(), &twice),
            Err(LratError::UnknownClause { id: 5, referenced: 3 })
        );
        // id 0 is never a clause
        let zero = LratProof::new(vec![LratLine::Delete { id: 4, ids: vec![0] }]);
        assert_eq!(
            check_lrat(&xor_square(), &zero),
            Err(LratError::UnknownClause { id: 4, referenced: 0 })
        );
    }

    #[test]
    fn a_literal_of_i32_min_is_a_bad_token() {
        match parse_lrat_text(b"5 -2147483648 0 0\n").unwrap_err() {
            ParseLratError::BadToken { line, token } => {
                assert_eq!((line, token.as_str()), (1, "-2147483648"));
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn text_roundtrip_preserves_lines() {
        let p = xor_lrat();
        let text = lrat_to_string(&p);
        assert_eq!(parse_lrat_text(text.as_bytes()).expect("reparse"), p);
    }

    #[test]
    fn binary_roundtrip_preserves_lines() {
        let mut lines = xor_lrat().lines().to_vec();
        lines.insert(1, LratLine::Delete { id: 5, ids: vec![3, 1] });
        let p = LratProof::new(lines);
        let bytes = encode_lrat_to_vec(&p);
        assert!(is_binary_lrat(&bytes));
        assert_eq!(parse_lrat_binary(&bytes).expect("reparse"), p);
        assert_eq!(parse_lrat(&bytes).expect("auto-detect"), p);
    }

    #[test]
    fn binary_parse_errors_carry_offsets() {
        match parse_lrat_binary(b"x").unwrap_err() {
            ParseLratError::BadPrefix { offset, byte } => {
                assert_eq!((offset, byte), (0, b'x'));
            }
            other => panic!("wrong error {other:?}"),
        }
        // 'a' id=5 then a truncated varint
        match parse_lrat_binary(&[b'a', 5, 0x80]).unwrap_err() {
            ParseLratError::BadVarint { offset } => assert_eq!(offset, 2),
            other => panic!("wrong error {other:?}"),
        }
        // 'a' id=5 lits... input ends before the terminators
        match parse_lrat_binary(&[b'a', 5, 4]).unwrap_err() {
            ParseLratError::UnexpectedEof { offset } => assert_eq!(offset, 3),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn text_parse_errors_carry_line_numbers() {
        match parse_lrat_text(b"5 2 0 1 4 0\nnope\n").unwrap_err() {
            ParseLratError::BadToken { line, token } => {
                assert_eq!(line, 2);
                assert_eq!(token, "nope");
            }
            other => panic!("wrong error {other:?}"),
        }
        match parse_lrat_text(b"5 2 0 3 1\n").unwrap_err() {
            ParseLratError::UnterminatedLine { line } => assert_eq!(line, 1),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn tautological_add_line_is_vacuous() {
        let lrat = parse_lrat_text(b"5 1 -1 0 0\n6 2 0 1 4 0\n7 -2 0 2 3 0\n8 0 6 7 0\n")
            .expect("parse");
        check_lrat(&xor_square(), &lrat).expect("tautology line accepted");
    }
}
