//! Text serialisation of conflict-clause proofs.
//!
//! The format mirrors the paper's workflow — "as soon as the SAT-solver
//! hits a conflict, the corresponding conflict clause is output to disk"
//! — and is the direct ancestor of the DRUP format: one clause per line
//! as signed DIMACS names terminated by `0`; a lone `0` is the empty
//! clause; `c` lines are comments.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

use cnf::{Clause, Lit};

use crate::proof::ConflictClauseProof;

/// An error produced while parsing a proof file.
#[derive(Debug)]
pub enum ParseProofError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A token was not an integer.
    BadToken {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A clause was left unterminated at end of input.
    UnterminatedClause,
}

impl fmt::Display for ParseProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseProofError::Io(e) => write!(f, "i/o error: {e}"),
            ParseProofError::BadToken { line, token } => {
                write!(f, "line {line}: unexpected token {token:?}")
            }
            ParseProofError::UnterminatedClause => {
                write!(f, "unterminated clause at end of proof")
            }
        }
    }
}

impl Error for ParseProofError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseProofError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseProofError {
    fn from(e: io::Error) -> Self {
        ParseProofError::Io(e)
    }
}

/// Writes a proof in the text format, one clause per line.
///
/// A `&mut W` may be passed wherever an owned writer is inconvenient.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_proof<W: Write>(mut writer: W, proof: &ConflictClauseProof) -> io::Result<()> {
    for clause in proof.iter() {
        for lit in clause.lits() {
            write!(writer, "{} ", lit.to_dimacs())?;
        }
        writeln!(writer, "0")?;
    }
    Ok(())
}

/// Renders a proof to a string in the text format.
#[must_use]
pub fn to_proof_string(proof: &ConflictClauseProof) -> String {
    let mut buf = Vec::new();
    write_proof(&mut buf, proof).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("proof text is ASCII")
}

/// Parses a proof from the text format. The input is read whole, then
/// parsed as text (see [`parse_proof_str`]).
///
/// # Errors
///
/// Returns [`ParseProofError`] on I/O failure, a non-integer token, or a
/// clause missing its terminating `0`. Input that is not UTF-8 is an
/// [`ParseProofError::Io`] error of kind `InvalidData`, raised where a
/// line-by-line reader would meet it: a bad token on an earlier line is
/// reported first.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let proof = proofver::parse_proof("c comment\n2 0\n-2 0\n0\n".as_bytes())?;
/// assert_eq!(proof.len(), 3);
/// assert!(proof.clauses()[2].is_empty());
/// # Ok(())
/// # }
/// ```
pub fn parse_proof<R: BufRead>(mut reader: R) -> Result<ConflictClauseProof, ParseProofError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    match std::str::from_utf8(&bytes) {
        Ok(text) => parse_proof_str(text),
        Err(e) => {
            // the lines before the one holding the bad byte still parse,
            // and their errors come first
            let valid = &bytes[..e.valid_up_to()];
            let line_start = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let text = std::str::from_utf8(&valid[..line_start]).expect("a valid prefix");
            ProofText::default().parse_lines(text)?;
            Err(ParseProofError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )))
        }
    }
}

/// Parses a proof from a string slice.
///
/// The grammar is line-based: after leading whitespace, a blank line or
/// one starting with `c` is skipped; otherwise every whitespace-separated
/// token must parse as an `i32`, and `0` ends a clause, which may span
/// lines. Whitespace is Unicode whitespace, as in
/// [`str::split_whitespace`].
///
/// # Errors
///
/// See [`parse_proof`]. `-2147483648` is a bad token: it names no
/// variable.
pub fn parse_proof_str(text: &str) -> Result<ConflictClauseProof, ParseProofError> {
    let mut parser = ProofText::default();
    parser.parse_lines(text)?;
    if !parser.open.is_empty() {
        return Err(ParseProofError::UnterminatedClause);
    }
    Ok(ConflictClauseProof::new(parser.clauses))
}

/// The clauses parsed so far, and the literals of the open clause, which
/// may continue on the next line. Each clause is built from the one
/// reused `open` buffer.
#[derive(Default)]
struct ProofText {
    clauses: Vec<Clause>,
    open: Vec<Lit>,
}

impl ProofText {
    fn parse_lines(&mut self, text: &str) -> Result<(), ParseProofError> {
        for (index, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if trimmed.is_empty() || trimmed.starts_with('c') {
                continue;
            }
            for token in trimmed.split_whitespace() {
                let value = token
                    .parse::<i32>()
                    .ok()
                    .filter(|&v| v != i32::MIN)
                    .ok_or_else(|| ParseProofError::BadToken {
                        line: index + 1,
                        token: token.into(),
                    })?;
                if value == 0 {
                    self.clauses.push(Clause::from_lits(&self.open));
                    self.open.clear();
                } else {
                    self.open.push(Lit::from_dimacs(value));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = ConflictClauseProof::new(vec![
            Clause::from_dimacs(&[1, -2, 3]),
            Clause::from_dimacs(&[-1]),
            Clause::empty(),
        ]);
        let text = to_proof_string(&p);
        assert_eq!(text, "1 -2 3 0\n-1 0\n0\n");
        let q = parse_proof_str(&text).expect("own output parses");
        assert_eq!(p, q);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let p = parse_proof_str("c generated\n\n1 0\nc mid\n-1 0\n").expect("parse");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn clause_spanning_lines() {
        let p = parse_proof_str("1 2\n3 0\n").expect("parse");
        assert_eq!(p.len(), 1);
        assert_eq!(p.clauses()[0], Clause::from_dimacs(&[1, 2, 3]));
    }

    #[test]
    fn unterminated_clause_rejected() {
        assert!(matches!(
            parse_proof_str("1 2\n").unwrap_err(),
            ParseProofError::UnterminatedClause
        ));
    }

    #[test]
    fn bad_token_reports_line() {
        match parse_proof_str("1 0\nx 0\n").unwrap_err() {
            ParseProofError::BadToken { line, token } => {
                assert_eq!(line, 2);
                assert_eq!(token, "x");
            }
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn empty_input_is_empty_proof() {
        assert!(parse_proof_str("").expect("parse").is_empty());
    }
}
