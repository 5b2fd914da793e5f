//! Property tests for the proof formats: roundtrips on arbitrary proofs,
//! parser robustness on arbitrary byte soup (errors, never panics), and
//! the native text parser against a reference.
//!
//! The library reads native proof text whole and splits it into lines
//! in place, building clauses from one reused buffer. The streaming
//! parser it replaced (`BufRead::lines`, one `String` per line and a
//! fresh `Vec` per clause) is kept here as the reference: on random and
//! mutated text both must give the same proof or the same error, through
//! `parse_proof` and `parse_proof_str` alike.

use std::io::{self, BufRead};
use std::panic::{catch_unwind, AssertUnwindSafe};

use cnf::{Clause, Lit};
use proofver::{
    decode_proof, encode_proof_to_vec, parse_proof, parse_proof_str, to_proof_string,
    ConflictClauseProof, ParseProofError,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The reference parser
// ---------------------------------------------------------------------

fn reference_parse<R: BufRead>(reader: R) -> Result<ConflictClauseProof, ParseProofError> {
    let mut clauses = Vec::new();
    let mut current: Vec<Lit> = Vec::new();
    let mut open = false;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let trimmed = line.trim_start();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        for token in trimmed.split_whitespace() {
            let value: i32 = token.parse().map_err(|_| ParseProofError::BadToken {
                line: lineno,
                token: token.into(),
            })?;
            if value == 0 {
                clauses.push(Clause::new(std::mem::take(&mut current)));
                open = false;
            } else {
                current.push(Lit::from_dimacs(value));
                open = true;
            }
        }
    }
    if open {
        return Err(ParseProofError::UnterminatedClause);
    }
    Ok(ConflictClauseProof::new(clauses))
}

/// A result with its error made comparable: the variant's text, plus the
/// kind of an I/O error.
fn comparable(
    result: Result<ConflictClauseProof, ParseProofError>,
) -> Result<ConflictClauseProof, String> {
    result.map_err(|e| match &e {
        ParseProofError::Io(io) => format!("io {:?}: {e}", io.kind()),
        _ => format!("{e:?}"),
    })
}

/// The library parsers agree with the reference. Where the reference
/// panics (`-2147483648` names no variable) the library must report that
/// token instead.
fn assert_parsers_agree(bytes: &[u8]) {
    let got = comparable(parse_proof(bytes));
    if let Ok(text) = std::str::from_utf8(bytes) {
        assert_eq!(comparable(parse_proof_str(text)), got, "the two entry points differ");
    }
    match catch_unwind(AssertUnwindSafe(|| reference_parse(bytes))) {
        Ok(want) => {
            assert_eq!(got, comparable(want), "input {:?}", String::from_utf8_lossy(bytes));
        }
        Err(_) => assert!(
            matches!(&got, Err(e) if e.contains("token: \"-2147483648\"")),
            "the reference panicked on {:?}; got {got:?}",
            String::from_utf8_lossy(bytes)
        ),
    }
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A small deterministic generator for the byte-level cases.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'t>(&mut self, items: &[&'t str]) -> &'t str {
        items[self.below(items.len())]
    }
}

/// Tokens on the edges of the grammar: signs, `-0`, the `i32` range and
/// past it, comment starters mid-line, and non-numbers.
const TOKENS: &[&str] = &[
    "0", "0", "0", "1", "2", "-3", "17", "+5", "-0", "+0", "00", "007", "-", "+", "++1",
    "-+1", "+-1", "1a", "x", "c", "cx", "2147483647", "-2147483647", "2147483648",
    "-2147483649", "4294967296", "4294967297", "36893488147419103233", "-2147483648",
    "00000000000000000007", "é", "\u{fffd}", "1\u{a0}",
];

/// Separators and line ends: ASCII whitespace including vertical tab and
/// form feed, and Unicode whitespace (NBSP, NEL, ideographic space, line
/// separator), which `split_whitespace` also splits on.
const GAPS: &[&str] = &[
    " ", " ", " ", "  ", "\t", "\r\n", "\n", "\n\n", "\x0b", "\x0c", "\r", "\u{a0}",
    "\u{3000}", "\u{85}", "\u{2028}", " \u{a0} ",
];

/// Random text over the edge tokens, with comment lines, blank lines and
/// invalid UTF-8 sprinkled in.
fn noisy_text(g: &mut Gen) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..g.below(40) {
        match g.below(14) {
            0 => bytes.extend_from_slice(&[0xff, 0xc3][..1 + g.below(2)]),
            1 => bytes.extend_from_slice(b"\nc a comment 1 2 0\n"),
            2 => bytes.extend_from_slice(" \u{3000}c comment\r\n".as_bytes()),
            3 => bytes.extend_from_slice(b"\n\n"),
            _ => bytes.extend_from_slice(g.pick(TOKENS).as_bytes()),
        }
        bytes.extend_from_slice(g.pick(GAPS).as_bytes());
    }
    bytes
}

/// A well-formed proof with clauses spanning lines, then damaged: CRLF
/// line ends, comment and blank lines inside a clause, Unicode and
/// vertical-tab separators, edge tokens, a missing final `0`, and byte
/// edits.
fn mutated_text(g: &mut Gen) -> Vec<u8> {
    let mut text = String::new();
    for _ in 0..1 + g.below(8) {
        for _ in 0..g.below(5) {
            let v = 1 + g.below(40);
            text.push_str(&if g.below(2) == 0 { format!("{v}") } else { format!("-{v}") });
            text.push_str(match g.below(12) {
                0 => "\nc a comment inside the clause\n",
                1 => "\n\n",
                2 => "\r\n",
                3 => "\u{a0}",
                4 => "\u{3000}",
                5 => "\x0b",
                _ => " ",
            });
        }
        text.push_str(if g.below(3) == 0 { "0\r\n" } else { "0\n" });
    }
    if g.below(4) == 0 {
        // drop the final `0`
        let cut = text.trim_end().len() - 1;
        text.truncate(cut);
    }
    let mut bytes = text.into_bytes();
    for _ in 0..g.below(4) {
        let at = g.below(bytes.len() + 1);
        match g.below(4) {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 if at < bytes.len() => bytes[at] ^= 1 << g.below(8),
            _ => {
                let token = g.pick(TOKENS).to_string() + g.pick(GAPS);
                bytes.splice(at..at, token.bytes());
            }
        }
    }
    bytes
}

fn dimacs_lit() -> impl Strategy<Value = i32> {
    (1i32..=500).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)])
}

fn proof_strategy() -> impl Strategy<Value = ConflictClauseProof> {
    prop::collection::vec(prop::collection::vec(dimacs_lit(), 0..8), 0..30).prop_map(
        |clauses| {
            clauses
                .into_iter()
                .map(|c| Clause::from_dimacs(&c))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn text_roundtrip(proof in proof_strategy()) {
        let text = to_proof_string(&proof);
        let parsed = parse_proof_str(&text).expect("own output parses");
        prop_assert_eq!(parsed, proof);
    }

    #[test]
    fn binary_roundtrip(proof in proof_strategy()) {
        let bytes = encode_proof_to_vec(&proof);
        let decoded = decode_proof(bytes.as_slice()).expect("own output decodes");
        prop_assert_eq!(decoded, proof);
    }

    #[test]
    fn binary_never_larger_than_twice_literal_count_plus_overhead(
        proof in proof_strategy()
    ) {
        // each literal is ≤ 2 varint bytes at these variable counts,
        // plus one terminator per clause and the 4-byte magic
        let bytes = encode_proof_to_vec(&proof);
        let bound = 4 + proof.num_literals() * 2 + proof.len();
        prop_assert!(bytes.len() <= bound, "{} > {}", bytes.len(), bound);
    }

    #[test]
    fn parser_matches_the_reference_on_noisy_text(seed in any::<u64>()) {
        assert_parsers_agree(&noisy_text(&mut Gen(seed)));
    }

    #[test]
    fn parser_matches_the_reference_on_mutated_text(seed in any::<u64>()) {
        assert_parsers_agree(&mutated_text(&mut Gen(seed)));
    }

    #[test]
    fn parser_matches_the_reference_on_own_output(proof in proof_strategy()) {
        assert_parsers_agree(to_proof_string(&proof).as_bytes());
    }

    #[test]
    fn text_parser_never_panics(input in "\\PC*") {
        let _ = parse_proof_str(&input);
    }

    #[test]
    fn binary_decoder_never_panics(input in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_proof(input.as_slice());
    }

    #[test]
    fn dimacs_parser_never_panics(input in "\\PC*") {
        let _ = cnf::parse_dimacs_str(&input);
    }

    #[test]
    fn dimacs_numeric_soup_never_panics(
        tokens in prop::collection::vec(-1000i64..1000, 0..64)
    ) {
        let text: String = tokens
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        if let Ok(f) = cnf::parse_dimacs_str(&text) {
            // whatever parses must re-serialise and re-parse stably
            let text2 = cnf::to_dimacs_string(&f);
            let g = cnf::parse_dimacs_str(&text2).expect("own output parses");
            prop_assert_eq!(f, g);
        }
    }
}

#[test]
fn the_edge_cases_agree_with_the_reference() {
    for text in [
        "1 0\r\n-1 0\r\n0\r\n",
        "1\nc comment inside a clause\n\n2 0\n",
        "+5 0\n-0\n",
        "2147483648 0\n",
        "1\u{a0}2\u{3000}3\x0b4\x0c5 0\n",
        "\u{3000}c an indented comment\n1 0\n",
        "1 2\n",
        "1 0\nx 0\n\u{ff}",
        "",
        "\n\n",
    ] {
        assert_parsers_agree(text.as_bytes());
    }
    // invalid UTF-8: an error on an earlier line wins, else an I/O error
    assert_parsers_agree(b"1 0\nx 0\n\xff 0\n");
    assert_parsers_agree(b"1 0\n2 \xff 0\n");
    assert_parsers_agree(b"1 2\n\xc3");
    assert!(matches!(
        parse_proof(&b"1 0\n\xff\n"[..]),
        Err(ParseProofError::Io(e)) if e.kind() == io::ErrorKind::InvalidData
    ));
}

#[test]
fn the_reference_panics_where_the_parser_reports_a_token() {
    assert_parsers_agree(b"1 -2147483648 0\n");
    assert!(matches!(
        parse_proof_str("1 0\n-2147483648 0\n"),
        Err(ParseProofError::BadToken { line: 2, ref token }) if token == "-2147483648"
    ));
}
