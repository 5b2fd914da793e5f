//! Differential property tests for the DRAT interop layer: encoding
//! round-trips, native-proof conversion agreeing with the native
//! checker, emitted LRAT re-validating under the strict replayer, and
//! engine parity on the backward pass.

use cnf::CnfFormula;
use proofver::{
    check_lrat, drat_to_string, encode_drat_to_vec, parse_drat, trim_drat,
    verify, verify_drat_backward, verify_drat_backward_harnessed,
    ConflictClauseProof, DratOutcome, DratProof, DratStep, DratStepKind, Harness,
    PropagatorChoice,
};
use proptest::prelude::*;

fn dimacs_lit(n: i32) -> impl Strategy<Value = i32> {
    (1..=n).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)])
}

fn formula_strategy(max_var: i32) -> impl Strategy<Value = CnfFormula> {
    prop::collection::vec(prop::collection::vec(dimacs_lit(max_var), 1..=3), 1..24)
        .prop_map(|cs| CnfFormula::from_dimacs_clauses(&cs))
}

/// Arbitrary step sequences — content need not make semantic sense for
/// encoding round-trips, only survive them byte-exactly.
fn steps_strategy() -> impl Strategy<Value = Vec<DratStep>> {
    prop::collection::vec(
        (any::<bool>(), prop::collection::vec(dimacs_lit(9), 0..5)),
        0..12,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(delete, lits)| {
                let clause = cnf::Clause::from_dimacs(&lits);
                if delete {
                    DratStep::delete(clause)
                } else {
                    DratStep::add(clause)
                }
            })
            .collect()
    })
}

/// Kinds and clauses survive a writer→parser trip (positions differ:
/// the parser records source locations, the builder records zero).
fn assert_same_steps(a: &DratProof, b: &DratProof) {
    assert_eq!(a.steps().len(), b.steps().len());
    for (x, y) in a.steps().iter().zip(b.steps()) {
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.clause, y.clause);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn text_encoding_roundtrips(steps in steps_strategy()) {
        let proof = DratProof::new(steps);
        let text = drat_to_string(&proof);
        let parsed = parse_drat(text.as_bytes()).expect("own output parses");
        assert_same_steps(&proof, &parsed);
    }

    #[test]
    fn binary_encoding_roundtrips(steps in steps_strategy()) {
        let proof = DratProof::new(steps);
        let bytes = encode_drat_to_vec(&proof);
        let parsed = parse_drat(&bytes).expect("own output parses");
        assert_same_steps(&proof, &parsed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Native solver proofs convert to DRAT, survive both encodings,
    /// and the backward checker agrees with the native verdict;
    /// the LRAT captured along the way replays under the strict
    /// checker, and the trimmed proof re-verifies.
    #[test]
    fn native_proofs_convert_and_agree(f in formula_strategy(6)) {
        let Some(trace) =
            cdcl::solve(&f, cdcl::SolverConfig::default()).into_proof()
        else {
            return Ok(());
        };
        let native = ConflictClauseProof::new(trace.clauses());
        if verify(&f, &native).is_err() {
            return Ok(());
        }

        let drat = DratProof::from(&native);
        // through the text encoding
        let reparsed =
            parse_drat(drat_to_string(&drat).as_bytes()).expect("parses");
        let v = verify_drat_backward(&f, &reparsed)
            .expect("native-verified proof passes the backward checker");
        check_lrat(&f, &v.lrat).expect("captured LRAT replays");

        // through the binary encoding
        let rebinary =
            parse_drat(&encode_drat_to_vec(&drat)).expect("parses");
        verify_drat_backward(&f, &rebinary).expect("binary agrees");

        // the trimmed proof stands alone
        let trimmed = trim_drat(&reparsed, &v);
        let tv = verify_drat_backward(&f, &trimmed)
            .expect("trimmed proof re-verifies");
        check_lrat(&f, &tv.lrat).expect("trimmed LRAT replays");
    }

    /// Watched and arena engines mark the same steps and produce the
    /// same core on the backward pass.
    #[test]
    fn engines_agree_on_the_backward_pass(f in formula_strategy(6)) {
        let Some(trace) =
            cdcl::solve(&f, cdcl::SolverConfig::default()).into_proof()
        else {
            return Ok(());
        };
        let native = ConflictClauseProof::new(trace.clauses());
        if verify(&f, &native).is_err() {
            return Ok(());
        }
        let drat = DratProof::from(&native);
        let watched = verify_drat_backward(&f, &drat).expect("watched");
        let arena = match verify_drat_backward_harnessed(
            &f,
            &drat,
            &Harness::default(),
            PropagatorChoice::ArenaWatched,
        ) {
            DratOutcome::Verified(v) => *v,
            other => {
                return Err(TestCaseError::fail(format!(
                    "arena disagrees: {other:?}"
                )))
            }
        };
        prop_assert_eq!(&watched.marked_adds, &arena.marked_adds);
        prop_assert_eq!(watched.core.indices(), arena.core.indices());
        check_lrat(&f, &arena.lrat).expect("arena LRAT replays");
    }

    /// A random deletion of a still-live original clause keeps the
    /// proof well-formed for the parser/checker pipeline: the outcome
    /// is a verdict (verified or rejected), never a crash or a
    /// malformed-input error.
    #[test]
    fn deletions_of_live_clauses_always_get_a_verdict(
        f in formula_strategy(6),
        victim in 0usize..24,
    ) {
        let Some(trace) =
            cdcl::solve(&f, cdcl::SolverConfig::default()).into_proof()
        else {
            return Ok(());
        };
        let native = ConflictClauseProof::new(trace.clauses());
        if verify(&f, &native).is_err() {
            return Ok(());
        }
        let mut steps: Vec<DratStep> =
            DratProof::from(&native).steps().to_vec();
        let victim = victim % f.num_clauses();
        let victim_clause = f.iter().nth(victim).expect("in range").clone();
        steps.insert(0, DratStep::delete(victim_clause));
        let proof = DratProof::new(steps);
        // parse round-trip keeps the deletion
        let reparsed =
            parse_drat(drat_to_string(&proof).as_bytes()).expect("parses");
        prop_assert_eq!(
            reparsed.steps().iter().filter(|s| s.kind == DratStepKind::Delete).count(),
            proof.num_deletes()
        );
        if let Ok(v) = verify_drat_backward(&f, &reparsed) {
            // weakened formula still refuted: certificate must replay
            check_lrat(&f, &v.lrat).expect("LRAT replays");
        }
    }
}

/// The byte offset a binary-parse error points at, if it is one of the
/// binary (offset-carrying) variants.
fn error_offset(e: &proofver::ParseDratError) -> Option<usize> {
    use proofver::ParseDratError::*;
    match e {
        BadPrefix { offset, .. }
        | BadVarint { offset }
        | LiteralOutOfRange { offset }
        | UnexpectedEof { offset } => Some(*offset),
        BadToken { .. } | UnterminatedClause { .. } => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncating a binary DRAT proof anywhere either yields a valid
    /// shorter proof (the cut fell on a step boundary) or a *positioned*
    /// parse error whose byte offset is inside the input — never a
    /// panic, and never an error pointing past the bytes it was given.
    #[test]
    fn truncated_binary_drat_fails_with_a_position(
        steps in steps_strategy(),
        cut in 0usize..1_000_000,
    ) {
        let bytes = encode_drat_to_vec(&DratProof::new(steps));
        if bytes.len() < 2 {
            return Ok(());
        }
        // keep the 'd'/'a' sniff byte so the input stays binary-looking
        let cut = 1 + cut % (bytes.len() - 1);
        match proofver::parse_drat_binary(&bytes[..cut]) {
            Ok(shorter) => {
                prop_assert!(shorter.steps().len() <= bytes.len());
            }
            Err(e) => {
                let offset = error_offset(&e);
                prop_assert!(offset.is_some(), "binary error without offset: {e}");
                prop_assert!(offset.expect("checked") <= cut, "{e} past input end");
            }
        }
    }

    /// Flipping one bit anywhere in a binary DRAT proof either still
    /// parses (the flip landed in a literal's payload) or fails with a
    /// positioned error inside the input — never a panic.
    #[test]
    fn bit_flipped_binary_drat_never_panics(
        steps in steps_strategy(),
        at in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let mut bytes = encode_drat_to_vec(&DratProof::new(steps));
        if bytes.is_empty() {
            return Ok(());
        }
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        if !proofver::is_binary_drat(&bytes) {
            // the flip hit the sniff byte; text parsing is a different
            // grammar with line-based errors
            return Ok(());
        }
        if let Err(e) = proofver::parse_drat_binary(&bytes) {
            let offset = error_offset(&e);
            prop_assert!(offset.is_some(), "binary error without offset: {e}");
            prop_assert!(offset.expect("checked") <= bytes.len());
        }
    }

    /// The streaming checker's incremental scanner mirrors the
    /// in-memory binary parser on malformed input: same error, same
    /// byte offset — so a corrupt proof is diagnosed identically no
    /// matter which path reads it, and is never misreported as a
    /// Rejected verdict.
    #[test]
    fn streaming_scanner_matches_in_memory_parser_on_corrupt_input(
        steps in steps_strategy(),
        at in 0usize..1_000_000,
        bit in 0u8..8,
        cut in 0usize..1_000_000,
        truncate in any::<bool>(),
    ) {
        let mut bytes = encode_drat_to_vec(&DratProof::new(steps));
        if bytes.len() < 2 {
            return Ok(());
        }
        if truncate {
            let keep = 1 + cut % (bytes.len() - 1);
            bytes.truncate(keep);
        } else {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        if !proofver::is_binary_drat(&bytes) {
            return Ok(());
        }
        let Err(expected) = proofver::parse_drat_binary(&bytes) else {
            return Ok(());
        };
        let formula = CnfFormula::from_dimacs_clauses(&[vec![1], vec![-1]]);
        let outcome = proofver::verify_drat_stream_bytes(
            &formula,
            &bytes,
            &Harness::default(),
            &proofver::StreamConfig::default(),
            PropagatorChoice::Watched,
            None,
            None,
        );
        match outcome {
            proofver::StreamOutcome::Failed(
                proofver::StreamError::Parse(actual),
            ) => {
                prop_assert_eq!(actual, expected);
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "streaming gave {other:?}, parser gave {expected}"
                )));
            }
        }
    }
}

/// The binary-DRAT parser as it stood before it became a loop over the
/// streaming checker's step scanner, kept verbatim (with the varint
/// reader it called) as the reference the shared decoder must match.
mod reference {
    use cnf::{Clause, Lit};
    use proofver::{DratProof, DratStep, DratStepKind, ParseDratError};

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum VarintFault {
        Truncated,
        TooLong,
        Overflow,
    }

    fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u32, VarintFault> {
        let mut value: u32 = 0;
        let mut shift = 0u32;
        loop {
            if *pos >= bytes.len() {
                return Err(VarintFault::Truncated);
            }
            let byte = bytes[*pos];
            *pos += 1;
            let chunk = u32::from(byte & 0x7f);
            // the fifth byte may only contribute bits 28..32: anything
            // above would silently shift out of the u32
            if shift == 28 && chunk > 0x0f {
                return Err(VarintFault::Overflow);
            }
            value |= chunk << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 28 {
                // a sixth byte cannot contribute to a 32-bit value
                return Err(VarintFault::TooLong);
            }
        }
    }

    fn decode_drat_lit(bytes: &[u8], pos: &mut usize) -> Result<Lit, ParseDratError> {
        let start = *pos;
        let code = match read_varint(bytes, pos) {
            Ok(v) => v,
            Err(VarintFault::Overflow) => {
                return Err(ParseDratError::LiteralOutOfRange { offset: start });
            }
            Err(VarintFault::Truncated | VarintFault::TooLong) => {
                return Err(ParseDratError::BadVarint { offset: start });
            }
        };
        // standard binary-DRAT mapping: literal l ↦ 2l (positive), 2|l|+1
        // (negative); 0 is the terminator, 1 would be variable zero
        if code < 2 {
            return Err(ParseDratError::LiteralOutOfRange { offset: start });
        }
        let magnitude = (code >> 1) as i32;
        Ok(Lit::from_dimacs(if code & 1 == 1 { -magnitude } else { magnitude }))
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
            let step_start = pos;
            let kind = match bytes[pos] {
                b'a' => DratStepKind::Add,
                b'd' => DratStepKind::Delete,
                byte => return Err(ParseDratError::BadPrefix { offset: pos, byte }),
            };
            pos += 1;
            lits.clear();
            loop {
                if pos >= bytes.len() {
                    return Err(ParseDratError::UnexpectedEof { offset: pos });
                }
                if bytes[pos] == 0 {
                    pos += 1;
                    break;
                }
                lits.push(decode_drat_lit(bytes, &mut pos)?);
            }
            steps.push(DratStep { kind, clause: Clause::from_lits(&lits), position: step_start });
        }
        Ok(DratProof::new(steps))
    }
}

/// Step sequences whose literals need varints of one to five bytes.
fn wide_steps_strategy() -> impl Strategy<Value = Vec<DratStep>> {
    let lit = prop_oneof![
        dimacs_lit(9),
        dimacs_lit(100),
        dimacs_lit(20_000),
        dimacs_lit(3_000_000),
        dimacs_lit(i32::MAX),
    ];
    prop::collection::vec(
        (any::<bool>(), prop::collection::vec(lit, 0..5)),
        0..8,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(delete, lits)| {
                let clause = cnf::Clause::from_dimacs(&lits);
                if delete {
                    DratStep::delete(clause)
                } else {
                    DratStep::add(clause)
                }
            })
            .collect()
    })
}

/// The shared decoder and the reference agree on `bytes`: the same
/// steps, positions included, or the same positioned error.
fn assert_parsers_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        proofver::parse_drat_binary(bytes),
        reference::parse_drat_binary(bytes),
        "{:?}",
        bytes
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On a valid proof, on every prefix of it and on every single-bit
    /// corruption of it, the binary parser returns what the reference
    /// returns.
    #[test]
    fn binary_parser_matches_the_reference(steps in wide_steps_strategy()) {
        let bytes = encode_drat_to_vec(&DratProof::new(steps));
        for cut in 0..=bytes.len() {
            assert_parsers_agree(&bytes[..cut])?;
        }
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                assert_parsers_agree(&flipped)?;
            }
        }
    }

    /// Arbitrary bytes after a step prefix: overlong and overflowing
    /// varints, stray prefixes, missing terminators.
    #[test]
    fn binary_parser_matches_the_reference_on_noise(
        noise in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        let mut bytes = vec![b'a'];
        bytes.extend(noise);
        assert_parsers_agree(&bytes)?;
    }
}
