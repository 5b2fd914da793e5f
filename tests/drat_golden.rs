//! Pins what the backward DRAT check reports, byte for byte.
//!
//! The marks, the core, the checked count, the propagation counters and
//! the emitted LRAT are part of the checker's contract: a change to its
//! bookkeeping (parsing, the clause store, the deletion index, hint
//! collection, LRAT I/O) must leave every one of them where it was. Each
//! case below is summarised as one line — counts plus FNV-1a digests of
//! the core, the marked additions, the kept deletions and the text LRAT —
//! and compared with the line recorded before such a change.
//!
//! The cases: the `drat-certify` benchmark's two instances (solver
//! proofs that keep their deletions), every DRAT fixture, four small
//! solver proofs with frequent clause-database reductions, and the
//! streaming chain workload, on both propagation engines.

use std::path::Path;

use satverify::cdcl::{solve, SolverConfig};
use satverify::cnf::{Clause, CnfFormula};
use satverify::proofver::{
    self, check_lrat, lrat_to_string, parse_lrat, DratOutcome, DratProof, DratStep, Harness,
    ProofClauseRef, ProofEvent, PropagatorChoice,
};

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn bits(flags: &[bool]) -> u64 {
    fnv(flags.iter().map(|&f| u8::from(f)))
}

/// One line summarising a backward check: its verdict, counters and the
/// digests of everything it emitted.
fn summarise(formula: &CnfFormula, proof: &DratProof, engine: PropagatorChoice) -> String {
    match proofver::verify_drat_backward_harnessed(formula, proof, &Harness::default(), engine) {
        DratOutcome::Verified(v) => {
            let core = v.core.indices();
            let text = lrat_to_string(&v.lrat);
            let replay = check_lrat(formula, &parse_lrat(text.as_bytes()).expect("LRAT parses"))
                .expect("emitted LRAT replays");
            format!(
                "core {}/{:016x} checked {} rup {} rat {} marked {:016x} kept {:016x} \
                 props {} visits {} lrat {}B/{:016x} replay {}/{}/{}",
                core.len(),
                fnv(core.iter().flat_map(|&i| (i as u64).to_le_bytes())),
                v.num_checked,
                v.stats.num_rup,
                v.stats.num_rat,
                bits(&v.marked_adds),
                bits(&v.kept_deletes),
                v.propagations,
                v.clause_visits,
                text.len(),
                fnv(text.bytes()),
                replay.num_add_lines,
                replay.num_rat_lines,
                replay.num_delete_lines,
            )
        }
        DratOutcome::Rejected { step, error } => format!("rejected at {step:?}: {error}"),
        DratOutcome::Exhausted { reason, .. } => format!("exhausted: {reason:?}"),
    }
}

/// A solver refutation as DRAT that keeps the solver's deletions, built
/// the way the `drat-certify` benchmark builds its inputs.
fn solver_drat(formula: &CnfFormula, config: SolverConfig) -> DratProof {
    let trace = solve(formula, config).into_proof().expect("the solver refutes it");
    let mut added: Vec<&Clause> = Vec::new();
    let mut steps = Vec::new();
    let annotated = satverify::annotated_from_trace(&trace);
    for event in annotated.events() {
        steps.push(match event {
            ProofEvent::Add(c) => {
                added.push(c);
                DratStep::add(c.clone())
            }
            ProofEvent::Delete(ProofClauseRef::Original(k)) => {
                DratStep::delete(formula.clauses()[*k].clone())
            }
            ProofEvent::Delete(ProofClauseRef::Learned(j)) => DratStep::delete(added[*j].clone()),
        });
    }
    DratProof::new(steps)
}

fn table_instance(name: &str) -> CnfFormula {
    satverify::cnfgen::table_suite()
        .into_iter()
        .find(|i| i.name == name)
        .expect("instance in the table suite")
        .formula
}

/// Frequent reductions, so even a small refutation deletes clauses.
fn reducing() -> SolverConfig {
    SolverConfig { reduce_base: 40, reduce_growth: 10, ..SolverConfig::default() }
}

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Compares every engine's summary of every case with its recorded
/// line; a case with no recorded line fails the test and prints the
/// computed lines, ready to paste into [`EXPECTED`].
fn check_cases(cases: &[(&str, CnfFormula, DratProof)]) {
    let mut missing = String::new();
    for (name, formula, proof) in cases {
        for (engine, tag) in
            [(PropagatorChoice::Watched, "watched"), (PropagatorChoice::ArenaWatched, "arena")]
        {
            let key = format!("{name} {tag}");
            let got = summarise(formula, proof, engine);
            match EXPECTED.iter().find(|(k, _)| *k == key) {
                Some((_, want)) => assert_eq!(got, *want, "{key}"),
                None => missing.push_str(&format!("    (\"{key}\", \"{got}\"),\n")),
            }
        }
    }
    assert!(missing.is_empty(), "no recorded line for:\n{missing}");
}

/// Recorded from the checker before its bookkeeping was reworked.
const EXPECTED: &[(&str, &str)] = &[
    ("pebbling24 watched", "core 1130/afa3fadf95546df4 checked 3385 rup 3385 rat 0 marked b83df292176bdf83 kept b633655e94902793 props 36646 visits 135907 lrat 200128B/f14e5d1eab693e49 replay 3386/0/2"),
    ("pebbling24 arena", "core 1130/afa3fadf95546df4 checked 3385 rup 3385 rat 0 marked b83df292176bdf83 kept b633655e94902793 props 36646 visits 135907 lrat 200128B/f14e5d1eab693e49 replay 3386/0/2"),
    ("bmc_cnt8_120 watched", "core 6548/ba755dca4ba62ccc checked 4791 rup 4791 rat 0 marked 87912263ecd7b8f7 kept c9f01aa28448cef9 props 1389902 visits 1722730 lrat 906660B/f88cdebd3e1889f7 replay 4792/0/3"),
    ("bmc_cnt8_120 arena", "core 6548/ba755dca4ba62ccc checked 4791 rup 4791 rat 0 marked 87912263ecd7b8f7 kept c9f01aa28448cef9 props 1389902 visits 1722730 lrat 906660B/f88cdebd3e1889f7 replay 4792/0/3"),
    ("xor.drat watched", "core 4/64dbcbc3ab5bf1a5 checked 2 rup 2 rat 0 marked d0a6fc18672a1282 kept af63bc4c8601b62c props 2 visits 4 lrat 43B/4972fdb407752c53 replay 3/0/1"),
    ("xor.drat arena", "core 4/64dbcbc3ab5bf1a5 checked 2 rup 2 rat 0 marked d0a6fc18672a1282 kept af63bc4c8601b62c props 2 visits 4 lrat 43B/4972fdb407752c53 replay 3/0/1"),
    ("xor_binary.drat watched", "core 4/64dbcbc3ab5bf1a5 checked 2 rup 2 rat 0 marked d0a6fc18672a1282 kept af63bc4c8601b62c props 2 visits 4 lrat 43B/4972fdb407752c53 replay 3/0/1"),
    ("xor_binary.drat arena", "core 4/64dbcbc3ab5bf1a5 checked 2 rup 2 rat 0 marked d0a6fc18672a1282 kept af63bc4c8601b62c props 2 visits 4 lrat 43B/4972fdb407752c53 replay 3/0/1"),
    ("delete_missing.drat watched", "rejected at None: deletion at position 2 names a clause that is not live: (7 ∨ 8)"),
    ("delete_missing.drat arena", "rejected at None: deletion at position 2 names a clause that is not live: (7 ∨ 8)"),
    ("tseitin4x4 watched", "core 128/daae756b97d6bf25 checked 3915 rup 3915 rat 0 marked 55e907da73d59601 kept bb9969b9612dfcff props 48621 visits 212692 lrat 259285B/5535a2e609c1d6d5 replay 3916/0/31"),
    ("tseitin4x4 arena", "core 128/daae756b97d6bf25 checked 3915 rup 3915 rat 0 marked 55e907da73d59601 kept bb9969b9612dfcff props 48621 visits 212692 lrat 259285B/5535a2e609c1d6d5 replay 3916/0/31"),
    ("eqv_shift16 watched", "core 2079/9e7858be2122a07e checked 325 rup 325 rat 0 marked 797a0b9491a85173 kept 353301020a113585 props 176125 visits 188892 lrat 92931B/ac11652438fe3ec4 replay 326/0/6"),
    ("eqv_shift16 arena", "core 2079/9e7858be2122a07e checked 325 rup 325 rat 0 marked 797a0b9491a85173 kept 353301020a113585 props 176125 visits 188892 lrat 92931B/ac11652438fe3ec4 replay 326/0/6"),
    ("rand3sat_120 watched", "core 565/326ebf6a9f45b515 checked 376 rup 376 rat 0 marked 6ccd70b45e87d46a kept 5ecf2fc98ce6940b props 10087 visits 36363 lrat 34331B/ce7459e1d3e97995 replay 377/0/5"),
    ("rand3sat_120 arena", "core 565/326ebf6a9f45b515 checked 376 rup 376 rat 0 marked 6ccd70b45e87d46a kept 5ecf2fc98ce6940b props 10087 visits 36363 lrat 34331B/ce7459e1d3e97995 replay 377/0/5"),
    ("bmc_cnt8_40 watched", "core 1285/7e4c1c1e3ca8f758 checked 335 rup 335 rat 0 marked d11bae32154631f5 kept ccee43004911fdcf props 56894 visits 70167 lrat 46483B/125bb7560ca0565b replay 336/0/17"),
    ("bmc_cnt8_40 arena", "core 1285/7e4c1c1e3ca8f758 checked 335 rup 335 rat 0 marked d11bae32154631f5 kept ccee43004911fdcf props 56894 visits 70167 lrat 46483B/125bb7560ca0565b replay 336/0/17"),
    ("chain2000 watched", "core 4/64dbcbc3ab5bf1a5 checked 4002 rup 2003 rat 1999 marked 126f6bdefd8413e2 kept aa21692075b98726 props 6006 visits 2010 lrat 104979B/73bd2366079b8c68 replay 4003/1999/2000"),
    ("chain2000 arena", "core 4/64dbcbc3ab5bf1a5 checked 4002 rup 2003 rat 1999 marked 126f6bdefd8413e2 kept aa21692075b98726 props 6006 visits 2010 lrat 104979B/73bd2366079b8c68 replay 4003/1999/2000"),
];

#[test]
fn benchmark_instances_are_unchanged() {
    let cases: Vec<_> = ["pebbling24", "bmc_cnt8_120"]
        .into_iter()
        .map(|name| {
            let formula = table_instance(name);
            let proof = solver_drat(&formula, SolverConfig::default());
            assert!(proof.num_deletes() > 0, "{name}: the proof keeps the solver's deletions");
            (name, formula, proof)
        })
        .collect();
    check_cases(&cases);
}

#[test]
fn fixture_proofs_are_unchanged() {
    let formula = satverify::cnf::parse_dimacs(&fixture("xor.cnf")[..]).expect("fixture parses");
    let cases: Vec<_> = ["xor.drat", "xor_binary.drat", "delete_missing.drat"]
        .into_iter()
        .map(|name| {
            let proof = proofver::parse_drat(&fixture(name)).expect("fixture parses");
            (name, formula.clone(), proof)
        })
        .collect();
    check_cases(&cases);
    // the malformed fixtures keep their positioned errors
    for (name, want) in [
        ("garbage_prefix.drat", "bad step prefix byte 0x78 at byte 3"),
        ("truncated.drat", "unexpected end of input at byte 5"),
    ] {
        let err = proofver::parse_drat(&fixture(name)).expect_err("fixture is malformed");
        assert_eq!(err.to_string(), want, "{name}");
    }
}

#[test]
fn small_reducing_solver_proofs_are_unchanged() {
    let cases: Vec<_> = ["tseitin4x4", "eqv_shift16", "rand3sat_120", "bmc_cnt8_40"]
        .into_iter()
        .map(|name| {
            let formula = table_instance(name);
            let proof = solver_drat(&formula, reducing());
            assert!(proof.num_deletes() > 0, "{name}: the proof deletes clauses");
            (name, formula, proof)
        })
        .collect();
    check_cases(&cases);
}

#[test]
fn chain_workload_is_unchanged() {
    let (formula, proof) = proofver::chain_workload(2_000);
    check_cases(&[("chain2000", formula, proof)]);
}
