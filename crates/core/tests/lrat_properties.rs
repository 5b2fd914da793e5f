//! Property tests for LRAT I/O and the DRAT deletion index.
//!
//! The library's text writer and text parser work on bytes with reused
//! buffers. The straightforward versions they replaced (`write!`
//! formatting; a `from_utf8_lossy` copy split into `str` tokens and
//! parsed with `str::parse`) are kept here as references: the writer must
//! produce their exact bytes and the parser their exact lines and errors,
//! including on malformed and mutated text. Text and binary encodings
//! must round-trip, damaged binary input must fail with a position, and
//! the allocation-free deletion index must resolve every deletion to the
//! same clause as a `HashMap` keyed by the sorted literal codes.

use std::collections::HashMap;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

use bcp::ClauseRef;
use cnf::{Clause, Lit};
use proofver::{
    encode_lrat_to_vec, lrat_to_string, parse_lrat, parse_lrat_binary, parse_lrat_text,
    write_lrat, DeletionIndex, LratAdd, LratLine, LratProof, ParseLratError,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// References
// ---------------------------------------------------------------------

fn reference_write<W: Write>(mut writer: W, proof: &LratProof) -> io::Result<()> {
    for line in proof.lines() {
        match line {
            LratLine::Add(add) => {
                write!(writer, "{}", add.id)?;
                for &l in add.clause.lits() {
                    write!(writer, " {}", l.to_dimacs())?;
                }
                write!(writer, " 0")?;
                for &h in &add.hints {
                    write!(writer, " {h}")?;
                }
                writeln!(writer, " 0")?;
            }
            LratLine::Delete { id, ids } => {
                write!(writer, "{id} d")?;
                for &d in ids {
                    write!(writer, " {d}")?;
                }
                writeln!(writer, " 0")?;
            }
        }
    }
    Ok(())
}

fn reference_parse(bytes: &[u8]) -> Result<LratProof, ParseLratError> {
    let text = String::from_utf8_lossy(bytes);
    let mut lines = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let mut tokens = raw.split_ascii_whitespace().peekable();
        let Some(first) = tokens.next() else { continue };
        if first.starts_with('c') {
            continue;
        }
        let id: u64 = first
            .parse()
            .map_err(|_| ParseLratError::BadToken { line, token: first.to_string() })?;
        if tokens.peek() == Some(&"d") {
            tokens.next();
            let mut ids = Vec::new();
            let mut terminated = false;
            for tok in tokens.by_ref() {
                let v: u64 = tok
                    .parse()
                    .map_err(|_| ParseLratError::BadToken { line, token: tok.to_string() })?;
                if v == 0 {
                    terminated = true;
                    break;
                }
                ids.push(v);
            }
            if !terminated {
                return Err(ParseLratError::UnterminatedLine { line });
            }
            lines.push(LratLine::Delete { id, ids });
        } else {
            let mut lits = Vec::new();
            let mut hints = Vec::new();
            let mut zeros = 0;
            for tok in tokens.by_ref() {
                let v: i64 = tok
                    .parse()
                    .map_err(|_| ParseLratError::BadToken { line, token: tok.to_string() })?;
                if v == 0 {
                    zeros += 1;
                    if zeros == 2 {
                        break;
                    }
                } else if zeros == 0 {
                    let lit = i32::try_from(v).map_err(|_| ParseLratError::BadToken {
                        line,
                        token: tok.to_string(),
                    })?;
                    lits.push(Lit::from_dimacs(lit));
                } else {
                    hints.push(v);
                }
            }
            if zeros != 2 {
                return Err(ParseLratError::UnterminatedLine { line });
            }
            lines.push(LratLine::Add(LratAdd { id, clause: Clause::new(lits), hints }));
        }
    }
    Ok(LratProof::new(lines))
}

/// The library parser agrees with the reference. Where the reference
/// panics (a literal of `i32::MIN` names no variable) the library must
/// report that token instead.
fn assert_parsers_agree(bytes: &[u8]) {
    let got = parse_lrat_text(bytes);
    match catch_unwind(AssertUnwindSafe(|| reference_parse(bytes))) {
        Ok(want) => assert_eq!(got, want, "input {:?}", String::from_utf8_lossy(bytes)),
        Err(_) => assert!(
            matches!(&got, Err(ParseLratError::BadToken { token, .. }) if token == "-2147483648"),
            "the reference panicked; got {got:?}"
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

/// Tokens that sit on the edges of the grammar.
const TOKENS: &[&str] = &[
    "0", "0", "0", "1", "2", "-3", "17", "d", "d", "c", "cx", "+5", "-0", "+0", "00", "-",
    "+", "++1", "-+1", "+-1", "1a", "x", "4294967296", "2147483647", "-2147483647",
    "2147483648", "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "18446744073709551615", "18446744073709551616", "\u{a0}", "é", "\u{fffd}",
];

/// Numbers on the edges of the `i64`, `u64` and `i32` ranges.
const NUMBERS: &[&str] = &[
    "+7", "-0", "007", "2147483647", "-2147483647", "9223372036854775807",
    "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
    "18446744073709551615",
];

/// Whitespace and line ends, ASCII and not: `\x0b` and NBSP are not
/// separators.
const GAPS: &[&str] = &[" ", " ", " ", "  ", "\t", "\r\n", "\n", "\n\n", "\x0c", "\x0b", "\r"];

/// Random text over the edge tokens, with invalid UTF-8 sprinkled in.
fn noisy_text(g: &mut Gen) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..g.below(40) {
        match g.below(12) {
            0 => bytes.extend_from_slice(&[0xff, 0xc3][..1 + g.below(2)]),
            1 => bytes.extend_from_slice(b"c a comment 1 2 0\n"),
            _ => bytes.extend_from_slice(g.pick(TOKENS).as_bytes()),
        }
        bytes.extend_from_slice(g.pick(GAPS).as_bytes());
    }
    bytes
}

/// Mostly well-formed LRAT text, then damaged by a few byte edits.
fn mutated_text(g: &mut Gen) -> Vec<u8> {
    let mut text = String::new();
    let mut id = 4 + g.below(5) as u64;
    for _ in 0..1 + g.below(6) {
        id += 1 + g.below(3) as u64;
        if g.below(4) == 0 {
            text.push_str(&format!("{id} d {} {} 0\n", 1 + g.below(9), 1 + g.below(9)));
        } else {
            text.push_str(&format!("{id}"));
            for _ in 0..g.below(4) {
                let v = 1 + g.below(9) as i64;
                match g.below(8) {
                    0 => text.push_str(&format!(" {}", g.pick(NUMBERS))),
                    1 => text.push_str(&format!(" {}", -v)),
                    _ => text.push_str(&format!(" {v}")),
                }
            }
            text.push_str(" 0");
            for _ in 0..g.below(5) {
                let h = 1 + g.below(12) as i64;
                match g.below(6) {
                    0 => text.push_str(&format!(" {}", -h)),
                    1 => text.push_str(&format!(" {}", g.pick(NUMBERS))),
                    _ => text.push_str(&format!(" {h}")),
                }
            }
            text.push_str(if g.below(3) == 0 { " 0\r\n" } else { " 0\n" });
        }
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

fn lit_strategy() -> impl Strategy<Value = i32> {
    prop_oneof![
        8 => (1i32..=40).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]),
        1 => Just(i32::MAX),
        1 => Just(-i32::MAX),
    ]
}

fn id_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        6 => 1u64..200,
        1 => Just(u64::MAX),
        1 => 1u64 << 40..(1u64 << 40) + 3,
    ]
}

fn hint_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        6 => (1i64..200).prop_flat_map(|h| prop_oneof![4 => Just(h), 1 => Just(-h)]),
        1 => Just(i64::MIN + 1),
        1 => Just(i64::MAX),
    ]
}

/// Certificates with arbitrary contents: the I/O does not care whether
/// they check.
fn proof_strategy() -> impl Strategy<Value = LratProof> {
    let add = (
        id_strategy(),
        prop::collection::vec(lit_strategy(), 0..6),
        prop::collection::vec(hint_strategy(), 0..8),
    )
        .prop_map(|(id, lits, hints)| {
            LratLine::Add(LratAdd { id, clause: Clause::from_dimacs(&lits), hints })
        });
    let delete = (id_strategy(), prop::collection::vec(id_strategy(), 0..6))
        .prop_map(|(id, ids)| LratLine::Delete { id, ids });
    prop::collection::vec(prop_oneof![3 => add, 1 => delete], 0..12).prop_map(LratProof::new)
}

/// The same certificate with every number inside the binary encoding's
/// 31-bit range.
fn binary_safe(proof: &LratProof) -> LratProof {
    const MAX: u64 = (u32::MAX >> 1) as u64;
    let fit = |n: u64| n.min(MAX);
    let lines = proof
        .lines()
        .iter()
        .map(|line| match line {
            LratLine::Add(add) => LratLine::Add(LratAdd {
                id: fit(add.id),
                clause: add.clause.clone(),
                hints: add
                    .hints
                    .iter()
                    .map(|&h| fit(h.unsigned_abs()) as i64 * h.signum())
                    .collect(),
            }),
            LratLine::Delete { id, ids } => LratLine::Delete {
                id: fit(*id),
                ids: ids.iter().map(|&d| fit(d)).collect(),
            },
        })
        .collect();
    LratProof::new(lines)
}

/// The byte offset a binary parse error reports.
fn offset(error: &ParseLratError) -> usize {
    match *error {
        ParseLratError::BadPrefix { offset, .. }
        | ParseLratError::BadVarint { offset }
        | ParseLratError::NumberOutOfRange { offset }
        | ParseLratError::UnexpectedEof { offset } => offset,
        ParseLratError::BadToken { .. } | ParseLratError::UnterminatedLine { .. } => {
            panic!("a binary parse reported a text error: {error:?}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_matches_the_reference_byte_for_byte(proof in proof_strategy()) {
        let mut want = Vec::new();
        reference_write(&mut want, &proof).expect("Vec cannot fail");
        let mut got = Vec::new();
        write_lrat(&mut got, &proof).expect("Vec cannot fail");
        prop_assert_eq!(got, want);
    }

    #[test]
    fn text_and_binary_roundtrip(proof in proof_strategy()) {
        let text = lrat_to_string(&proof);
        prop_assert_eq!(parse_lrat_text(text.as_bytes()).expect("reparse"), proof.clone());
        let proof = binary_safe(&proof);
        let bytes = encode_lrat_to_vec(&proof);
        prop_assert_eq!(parse_lrat_binary(&bytes).expect("reparse"), proof.clone());
        if !bytes.is_empty() {
            prop_assert_eq!(parse_lrat(&bytes).expect("auto-detect"), proof);
        }
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
    fn damaged_binary_fails_with_a_position(proof in proof_strategy(), seed in any::<u64>()) {
        let proof = binary_safe(&proof);
        let mut ends = Vec::new();
        let mut bytes = Vec::new();
        for line in proof.lines() {
            bytes.extend(encode_lrat_to_vec(&LratProof::new(vec![line.clone()])));
            ends.push(bytes.len());
        }
        // cut inside a line: always an error, never past the cut
        let mut g = Gen(seed);
        for _ in 0..32.min(bytes.len()) {
            let cut = g.below(bytes.len());
            if cut == 0 || ends.contains(&cut) {
                continue;
            }
            let error = parse_lrat_binary(&bytes[..cut]).expect_err("cut inside a line");
            prop_assert!(offset(&error) <= cut, "cut {} error {:?}", cut, error);
        }
        // a flipped bit may still parse; if it fails, it says where
        if !bytes.is_empty() {
            let mut flipped = bytes.clone();
            let at = g.below(flipped.len());
            flipped[at] ^= 1 << g.below(8);
            if let Err(error) = parse_lrat_binary(&flipped) {
                prop_assert!(offset(&error) <= flipped.len(), "{:?}", error);
            }
        }
    }

    #[test]
    fn deletion_index_matches_a_hashmap_model(
        ops in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(1i32..=4, 0..4), any::<u64>()),
            0..80,
        ),
    ) {
        // a store of clauses by ref, the index over it, and the model: a
        // stack of live refs per sorted content
        let mut store: Vec<Vec<Lit>> = Vec::new();
        let mut index = DeletionIndex::with_capacity(1);
        let mut model: HashMap<Vec<u32>, Vec<ClauseRef>> = HashMap::new();
        for (delete, vars, seed) in ops {
            let mut g = Gen(seed);
            let mut lits: Vec<Lit> = vars
                .iter()
                .map(|&v| Lit::from_dimacs(if g.below(3) == 0 { -v } else { v }))
                .collect();
            // duplicates and permutations of earlier clauses
            if g.below(3) == 0 && !lits.is_empty() {
                let again = lits[g.below(lits.len())];
                lits.push(again);
            }
            for i in (1..lits.len()).rev() {
                lits.swap(i, g.below(i + 1));
            }
            let mut key: Vec<u32> = lits.iter().map(|l| l.code()).collect();
            key.sort_unstable();
            if delete {
                let want = model.get_mut(&key).and_then(Vec::pop);
                let got = index.remove(&lits, |r| &store[r.index()]);
                prop_assert_eq!(got, want, "deleting {:?}", lits);
            } else {
                let r = ClauseRef::from_index(store.len());
                index.insert(r, &lits);
                // the store may keep the literals in another order, as
                // propagation engines do
                let turn = g.below(lits.len().max(1));
                lits.rotate_left(turn);
                store.push(lits);
                model.entry(key).or_default().push(r);
            }
            prop_assert_eq!(index.len(), model.values().map(Vec::len).sum::<usize>());
        }
    }
}

#[test]
fn the_reference_panics_where_the_parser_reports_a_token() {
    assert_parsers_agree(b"5 -2147483648 0 0\n");
    assert!(matches!(
        parse_lrat_text(b"5 1 -2147483648 0 0\n"),
        Err(ParseLratError::BadToken { line: 1, ref token }) if token == "-2147483648"
    ));
}

#[test]
fn writer_output_is_bounded_chunks_of_the_same_bytes() {
    // a certificate far larger than one write chunk, written through a
    // sink that records each write
    struct Sink(Vec<usize>, Vec<u8>);
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.len());
            self.1.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let lines = (0..20_000u64)
        .map(|i| {
            LratLine::Add(LratAdd {
                id: 10 + i,
                clause: Clause::from_dimacs(&[1, -2, 3]),
                hints: vec![1, 2, -3, 4 + i as i64],
            })
        })
        .collect();
    let proof = LratProof::new(lines);
    let mut sink = Sink(Vec::new(), Vec::new());
    write_lrat(&mut sink, &proof).expect("sink cannot fail");
    let mut want = Vec::new();
    reference_write(&mut want, &proof).expect("Vec cannot fail");
    assert_eq!(sink.1, want);
    assert!(sink.0.len() > 1, "written in more than one chunk");
    assert!(sink.0.iter().all(|&n| n < 128 * 1024), "{:?}", sink.0);
}
