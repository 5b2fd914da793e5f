//! Pins what every backward walk reports, line for line.
//!
//! The native checker (`verify`, `verify_all`, forward checking, an
//! implication target, the harnessed and the two-thread parallel
//! runs), the deletion-aware `AnnotatedProof::verify` and the streamed
//! DRAT check (in one 64 MiB window and at a 1 MiB budget) share their
//! per-check machinery. Reworking it must leave every core, mark,
//! checked count and counter below where it was. Each case is
//! summarised as one line and compared with the line recorded before
//! such a change. A streamed line's `peak` is the residency model's
//! high-water mark, so it moves only with the model.
//!
//! The cases: solver proofs of five table instances under the default
//! and a reducing solver configuration, the streaming chain workload,
//! and small hand-written annotated proofs, on both propagation engines
//! wherever the entry point takes one.
//!
//! Beside the recorded lines, every DRAT case checks that the streamed
//! walk in one window is the in-memory DRAT walk: the same core, checked
//! count, RUP/RAT counters, propagations and clause visits. The two
//! walks resolve deletions through the same content index, and merging
//! them rests on this agreement.

use satverify::bcp::{ArenaWatchedPropagator, Propagator, WatchedPropagator};
use satverify::cdcl::{solve, ProofTrace, SolverConfig};
use satverify::cnf::{Clause, CnfFormula, Lit};
use satverify::proofver::{
    self, AnnotatedProof, CheckMode, Checker, ConflictClauseProof, DratOutcome, DratProof,
    DratStep, DratStepKind, Harness, Outcome, ProofClauseRef, ProofEvent, PropagatorChoice,
    StreamConfig, StreamOutcome, Verification, VerifyError,
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

fn core_digest(indices: &[usize]) -> String {
    format!(
        "{}/{:016x}",
        indices.len(),
        fnv(indices.iter().flat_map(|&i| (i as u64).to_le_bytes()))
    )
}

const ENGINES: [(PropagatorChoice, &str); 2] = [
    (PropagatorChoice::Watched, "watched"),
    (PropagatorChoice::ArenaWatched, "arena"),
];

// ---------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------

fn native_line(v: &Verification) -> String {
    format!(
        "core {} marked {:016x} checked {} props {} visits {}",
        core_digest(v.core.indices()),
        bits(&v.marked_steps),
        v.report.num_checked,
        v.report.propagations,
        v.report.clause_visits,
    )
}

fn native_result(result: Result<Verification, VerifyError>) -> String {
    match result {
        Ok(v) => native_line(&v),
        Err(e) => format!("rejected: {e}"),
    }
}

fn native_outcome(outcome: Outcome) -> String {
    match outcome {
        Outcome::Verified(v) => native_line(&v),
        Outcome::Rejected { step, error } => format!("rejected at {step:?}: {error}"),
        Outcome::Exhausted { reason, .. } => format!("exhausted: {reason:?}"),
    }
}

/// The native entry points on engine `P`, keyed by entry point.
fn native_lines<P: Propagator>(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
    target: &Clause,
    engine: PropagatorChoice,
) -> Vec<(&'static str, String)> {
    let run = |mode| native_result(Checker::<P>::with_engine(formula, proof).run(mode));
    vec![
        ("verify", run(CheckMode::MarkedOnly)),
        ("verify_all", run(CheckMode::All)),
        ("all_forward", run(CheckMode::AllForward)),
        (
            "implication",
            native_result(
                Checker::<P>::with_engine(formula, proof)
                    .run_with_target(CheckMode::MarkedOnly, Some(target)),
            ),
        ),
        (
            "harnessed",
            native_outcome(proofver::verify_harnessed_with_engine(
                formula,
                proof,
                CheckMode::MarkedOnly,
                &Harness::default(),
                engine,
            )),
        ),
        (
            "parallel2",
            native_outcome(proofver::verify_all_parallel_harnessed_with_engine(
                formula,
                proof,
                2,
                &Harness::default(),
                engine,
            )),
        ),
    ]
}

fn annotated_line(formula: &CnfFormula, proof: &AnnotatedProof) -> String {
    match proof.verify(formula) {
        Ok(v) => format!(
            "core {} marked {:016x} checked {}",
            core_digest(v.core.indices()),
            bits(&v.marked_adds),
            v.num_checked,
        ),
        Err(e) => format!("rejected: {e}"),
    }
}

fn stream_line(
    formula: &CnfFormula,
    bytes: &[u8],
    budget: u64,
    engine: PropagatorChoice,
) -> String {
    let config = StreamConfig {
        memory_budget: budget,
        ..StreamConfig::default()
    };
    match proofver::verify_drat_stream_bytes(
        formula,
        bytes,
        &Harness::default(),
        &config,
        engine,
        None,
        None,
    ) {
        StreamOutcome::Verified(v) => format!(
            "core {} checked {} rup {} rat {} resolvents {} props {} visits {} \
             windows {} shrinks {} rebuilds {} peak {}",
            core_digest(v.core.indices()),
            v.num_checked,
            v.stats.num_rup,
            v.stats.num_rat,
            v.stats.num_resolvent_checks,
            v.propagations,
            v.clause_visits,
            v.windows,
            v.window_shrinks,
            v.arena_rebuilds,
            v.peak_residency,
        ),
        StreamOutcome::Rejected { step, error } => format!("rejected at {step:?}: {error}"),
        StreamOutcome::Exhausted {
            reason,
            progress,
            checkpointed,
        } => format!(
            "exhausted {reason:?} checked {}/{} props {} visits {} checkpointed {checkpointed}",
            progress.steps_checked,
            progress.steps_total,
            progress.propagations,
            progress.clause_visits,
        ),
        StreamOutcome::Failed(e) => format!("failed: {e}"),
    }
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// One refutation in the three shapes the walks take.
struct Case {
    name: String,
    formula: CnfFormula,
    native: ConflictClauseProof,
    annotated: AnnotatedProof,
    drat: DratProof,
}

impl Case {
    fn from_trace(name: String, formula: CnfFormula, trace: &ProofTrace) -> Case {
        let native = satverify::proof_from_trace(trace);
        let annotated = satverify::annotated_from_trace(trace);
        let drat = drat_of(&formula, &annotated);
        Case {
            name,
            formula,
            native,
            annotated,
            drat,
        }
    }

    fn from_drat(name: String, formula: CnfFormula, drat: DratProof) -> Case {
        let native = drat.to_conflict_proof();
        let annotated = annotated_of(&formula, &drat);
        Case {
            name,
            formula,
            native,
            annotated,
            drat,
        }
    }

    /// A target for `verify_implication`: the first proof clause
    /// widened by a variable that occurs nowhere else.
    fn target(&self) -> Clause {
        let fresh = self
            .formula
            .num_vars()
            .max(self.native.max_var().map_or(0, |v| v.idx() + 1));
        let mut lits: Vec<Lit> = self
            .native
            .clauses()
            .first()
            .map(|c| c.lits().to_vec())
            .unwrap_or_default();
        lits.push(Lit::from_dimacs(fresh as i32 + 1));
        Clause::new(lits)
    }

    fn lines(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let target = self.target();
        for (engine, tag) in ENGINES {
            let native = match engine {
                PropagatorChoice::Watched => {
                    native_lines::<WatchedPropagator>(&self.formula, &self.native, &target, engine)
                }
                PropagatorChoice::ArenaWatched => native_lines::<ArenaWatchedPropagator>(
                    &self.formula,
                    &self.native,
                    &target,
                    engine,
                ),
            };
            for (entry, line) in native {
                out.push((format!("{} native {entry} {tag}", self.name), line));
            }
        }
        out.push((
            format!("{} annotated", self.name),
            annotated_line(&self.formula, &self.annotated),
        ));
        let bytes = proofver::encode_drat_to_vec(&self.drat);
        for (budget, size) in [
            (StreamConfig::default().memory_budget, "64m"),
            (1 << 20, "1m"),
        ] {
            for (engine, tag) in ENGINES {
                out.push((
                    format!("{} stream{size} {tag}", self.name),
                    stream_line(&self.formula, &bytes, budget, engine),
                ));
            }
        }
        out
    }
}

/// The annotated proof as DRAT: each deletion names its clause by
/// content, the way the `drat-certify` benchmark builds its inputs.
fn drat_of(formula: &CnfFormula, annotated: &AnnotatedProof) -> DratProof {
    let mut added: Vec<&Clause> = Vec::new();
    let mut steps = Vec::new();
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

/// The DRAT proof as an annotated proof: each deletion refers to the
/// most recently added live clause with its content.
fn annotated_of(formula: &CnfFormula, drat: &DratProof) -> AnnotatedProof {
    let key = |c: &Clause| {
        let mut codes: Vec<u32> = c.lits().iter().map(|l| l.code()).collect();
        codes.sort_unstable();
        codes
    };
    let mut live: Vec<(Vec<u32>, ProofClauseRef)> = formula
        .iter()
        .enumerate()
        .map(|(i, c)| (key(c), ProofClauseRef::Original(i)))
        .collect();
    let mut adds = 0;
    let mut events = Vec::new();
    for step in drat.steps() {
        match step.kind {
            DratStepKind::Add => {
                live.push((key(&step.clause), ProofClauseRef::Learned(adds)));
                adds += 1;
                events.push(ProofEvent::Add(step.clause.clone()));
            }
            DratStepKind::Delete => {
                let k = key(&step.clause);
                let at = live
                    .iter()
                    .rposition(|(c, _)| *c == k)
                    .expect("deletion is live");
                events.push(ProofEvent::Delete(live.remove(at).1));
            }
        }
    }
    AnnotatedProof::new(events)
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
    SolverConfig {
        reduce_base: 40,
        reduce_growth: 10,
        ..SolverConfig::default()
    }
}

fn solver_cases(name: &str) -> Vec<Case> {
    let formula = table_instance(name);
    [
        ("default", SolverConfig::default()),
        ("reducing", reducing()),
    ]
    .into_iter()
    .map(|(tag, config)| {
        let trace = solve(&formula, config)
            .into_proof()
            .expect("the solver refutes it");
        Case::from_trace(format!("{name} {tag}"), formula.clone(), &trace)
    })
    .collect()
}

/// Asserts that the streamed walk over `drat` in one window at the
/// default budget reports what the in-memory DRAT walk does, on both
/// engines.
fn assert_one_window_is_the_in_memory_walk(name: &str, formula: &CnfFormula, drat: &DratProof) {
    let bytes = proofver::encode_drat_to_vec(drat);
    let harness = Harness::default();
    for (engine, tag) in ENGINES {
        let DratOutcome::Verified(in_memory) =
            proofver::verify_drat_backward_harnessed(formula, drat, &harness, engine)
        else {
            panic!("{name} {tag}: the in-memory walk did not verify");
        };
        let config = StreamConfig::default();
        let StreamOutcome::Verified(streamed) =
            proofver::verify_drat_stream_bytes(formula, &bytes, &harness, &config, engine, None, None)
        else {
            panic!("{name} {tag}: the streamed walk did not verify");
        };
        assert_eq!(streamed.windows, 1, "{name} {tag}");
        let report = |core: &[usize], checked, stats, props, visits| {
            format!("core {core:?} checked {checked} {stats:?} props {props} visits {visits}")
        };
        assert_eq!(
            report(
                streamed.core.indices(),
                streamed.num_checked,
                streamed.stats,
                streamed.propagations,
                streamed.clause_visits,
            ),
            report(
                in_memory.core.indices(),
                in_memory.num_checked,
                in_memory.stats,
                in_memory.propagations,
                in_memory.clause_visits,
            ),
            "{name} {tag}: the streamed and in-memory walks differ"
        );
    }
}

/// Compares every line of every case with its recorded line; a case
/// with no recorded line fails the test and prints the computed lines,
/// ready to paste into [`EXPECTED`]. Then checks each case's streamed
/// walk against its in-memory DRAT walk.
fn check(cases: &[Case]) {
    let mut missing = String::new();
    let mut wrong = String::new();
    for case in cases {
        assert_one_window_is_the_in_memory_walk(&case.name, &case.formula, &case.drat);
        for (key, got) in case.lines() {
            match EXPECTED.iter().find(|(k, _)| *k == key) {
                Some((_, want)) if got == *want => {}
                Some((_, want)) => {
                    wrong.push_str(&format!("{key}\n   got {got}\n  want {want}\n"));
                }
                None => missing.push_str(&format!("    (\"{key}\", \"{got}\"),\n")),
            }
        }
    }
    assert!(wrong.is_empty(), "lines moved:\n{wrong}");
    assert!(missing.is_empty(), "no recorded line for:\n{missing}");
}

#[test]
fn tseitin4x4_walks_are_unchanged() {
    check(&solver_cases("tseitin4x4"));
}

#[test]
fn eqv_shift16_walks_are_unchanged() {
    check(&solver_cases("eqv_shift16"));
}

#[test]
fn bmc_cnt8_40_walks_are_unchanged() {
    check(&solver_cases("bmc_cnt8_40"));
}

#[test]
fn pebbling24_walks_are_unchanged() {
    check(&solver_cases("pebbling24"));
}

#[test]
fn eqv_shift32_walks_are_unchanged() {
    check(&solver_cases("eqv_shift32"));
}

#[test]
fn chain_workload_walks_are_unchanged() {
    let (formula, drat) = proofver::chain_workload(2_000);
    check(&[Case::from_drat("chain2000".into(), formula, drat)]);
}

fn add(lits: &[i32]) -> ProofEvent {
    ProofEvent::Add(Clause::from_dimacs(lits))
}

/// DRAT proofs over the XOR square plus a second copy of (1 ∨ 2),
/// written (2 ∨ 1), at index 4. A deletion takes the most recent live
/// copy in either literal order: the newer copy goes before any use, or
/// after the unit (2) is derived, and two deletions remove both copies,
/// which the walk then resurrects as stand-ins whose marks move onto the
/// formula's copies.
#[test]
fn one_window_is_the_in_memory_walk_on_equal_formula_clauses() {
    let formula = CnfFormula::from_dimacs_clauses(&[
        vec![1, 2],
        vec![-1, -2],
        vec![1, -2],
        vec![-1, 2],
        vec![2, 1],
    ]);
    let proofs = [
        ("newer copy deleted", "d 2 1 0\n2 0\n-2 0\n0\n"),
        ("newer copy deleted after use", "2 0\nd 1 2 0\n-2 0\n0\n"),
        ("both copies deleted", "2 0\nd 1 2 0\nd 1 2 0\n-2 0\n0\n"),
    ];
    for (name, text) in proofs {
        let drat = proofver::parse_drat_text(text.as_bytes()).expect("parse");
        assert_one_window_is_the_in_memory_walk(name, &formula, &drat);
    }
}

/// Hand-written annotated proofs: a deletion of the older of two equal
/// clauses (resolved by reference, the core keeps the newer copy), a
/// clause with a repeated literal, and the two rejections.
#[test]
fn annotated_edge_cases_are_unchanged() {
    let xor = [vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2]];
    let mut with_copy = xor.to_vec();
    with_copy.push(vec![1, 2]);
    let with_copy = CnfFormula::from_dimacs_clauses(&with_copy);
    let xor = CnfFormula::from_dimacs_clauses(&xor);
    let live_set = CnfFormula::from_dimacs_clauses(&[
        vec![1, 2],
        vec![-1, 2],
        vec![-2, 3, 5],
        vec![-2, 3, -5],
        vec![-2, -3, 6],
        vec![-2, -3, -6],
    ]);
    let cases: [(&str, &CnfFormula, Vec<ProofEvent>); 5] = [
        (
            "older copy deleted",
            &with_copy,
            vec![
                ProofEvent::Delete(ProofClauseRef::Original(0)),
                add(&[2]),
                add(&[-2]),
                add(&[]),
            ],
        ),
        (
            "newer copy deleted",
            &with_copy,
            vec![
                ProofEvent::Delete(ProofClauseRef::Original(4)),
                add(&[2]),
                add(&[-2]),
                add(&[]),
            ],
        ),
        ("repeated literal", &xor, vec![add(&[2, 2]), add(&[-2])]),
        (
            "deleted dependency",
            &live_set,
            vec![
                add(&[2]),
                ProofEvent::Delete(ProofClauseRef::Learned(0)),
                add(&[3]),
                add(&[2]),
            ],
        ),
        ("no refutation", &xor, vec![add(&[1, 2])]),
    ];
    let mut missing = String::new();
    for (name, formula, events) in cases {
        let key = format!("annotated {name}");
        let got = annotated_line(formula, &AnnotatedProof::new(events));
        match EXPECTED.iter().find(|(k, _)| *k == key) {
            Some((_, want)) => assert_eq!(got, *want, "{key}"),
            None => missing.push_str(&format!("    (\"{key}\", \"{got}\"),\n")),
        }
    }
    assert!(missing.is_empty(), "no recorded line for:\n{missing}");
}

/// Recorded on the tree before the walks shared one kernel.
const EXPECTED: &[(&str, &str)] = &[
    ("annotated deleted dependency", "rejected: proof is not correct: conflict clause #1 (3) is not derivable by unit propagation from the preceding clauses"),
    ("annotated newer copy deleted", "core 4/64dbcbc3ab5bf1a5 marked d0a6fd18672a1435 checked 2"),
    ("annotated no refutation", "rejected: proof is not a refutation: the formula plus all conflict clauses does not propagate to a conflict"),
    ("annotated older copy deleted", "core 4/898f7e1ce6964921 marked d0a6fd18672a1435 checked 2"),
    ("annotated repeated literal", "core 4/64dbcbc3ab5bf1a5 marked 08328707b4eb6e3a checked 1"),
    ("bmc_cnt8_40 default annotated", "core 1474/3013ee8e1e34672f marked 83b03f8a12a52db9 checked 360"),
    ("bmc_cnt8_40 default native all_forward arena", "core 1919/b6a3962f55e8c159 marked 527fdf7385a5beb1 checked 568 props 83665 visits 109065"),
    ("bmc_cnt8_40 default native all_forward watched", "core 1919/b6a3962f55e8c159 marked 527fdf7385a5beb1 checked 568 props 83665 visits 109065"),
    ("bmc_cnt8_40 default native harnessed arena", "core 1462/334bcffda220d8bc marked 876a621896525acf checked 364 props 52417 visits 69284"),
    ("bmc_cnt8_40 default native harnessed watched", "core 1462/334bcffda220d8bc marked 876a621896525acf checked 364 props 52417 visits 69284"),
    ("bmc_cnt8_40 default native implication arena", "core 1462/334bcffda220d8bc marked 876a61189652591c checked 365 props 52417 visits 69284"),
    ("bmc_cnt8_40 default native implication watched", "core 1462/334bcffda220d8bc marked 876a61189652591c checked 365 props 52417 visits 69284"),
    ("bmc_cnt8_40 default native parallel2 arena", "core 1923/4646db21744e0265 marked 604dbbfb8c851c0b checked 568 props 83918 visits 110370"),
    ("bmc_cnt8_40 default native parallel2 watched", "core 1923/4646db21744e0265 marked 604dbbfb8c851c0b checked 568 props 83918 visits 110370"),
    ("bmc_cnt8_40 default native verify arena", "core 1462/334bcffda220d8bc marked 876a621896525acf checked 364 props 52417 visits 69284"),
    ("bmc_cnt8_40 default native verify watched", "core 1462/334bcffda220d8bc marked 876a621896525acf checked 364 props 52417 visits 69284"),
    ("bmc_cnt8_40 default native verify_all arena", "core 1923/4646db21744e0265 marked 604dbbfb8c851c0b checked 568 props 83615 visits 108928"),
    ("bmc_cnt8_40 default native verify_all watched", "core 1923/4646db21744e0265 marked 604dbbfb8c851c0b checked 568 props 83615 visits 108928"),
    ("bmc_cnt8_40 default stream1m arena", "core 1474/3013ee8e1e34672f checked 360 rup 360 rat 0 resolvents 0 props 80027 visits 96941 windows 1 shrinks 0 rebuilds 0 peak 910632"),
    ("bmc_cnt8_40 default stream1m watched", "core 1474/3013ee8e1e34672f checked 360 rup 360 rat 0 resolvents 0 props 80027 visits 96941 windows 1 shrinks 0 rebuilds 0 peak 872536"),
    ("bmc_cnt8_40 default stream64m arena", "core 1474/3013ee8e1e34672f checked 360 rup 360 rat 0 resolvents 0 props 80027 visits 96941 windows 1 shrinks 0 rebuilds 0 peak 910632"),
    ("bmc_cnt8_40 default stream64m watched", "core 1474/3013ee8e1e34672f checked 360 rup 360 rat 0 resolvents 0 props 80027 visits 96941 windows 1 shrinks 0 rebuilds 0 peak 872536"),
    ("bmc_cnt8_40 reducing annotated", "core 1285/7e4c1c1e3ca8f758 marked d11bad3215463042 checked 335"),
    ("bmc_cnt8_40 reducing native all_forward arena", "core 2095/7ad6985a805acfd2 marked 218011ed03dd69c2 checked 1106 props 160647 visits 240963"),
    ("bmc_cnt8_40 reducing native all_forward watched", "core 2095/7ad6985a805acfd2 marked 218011ed03dd69c2 checked 1106 props 160647 visits 240963"),
    ("bmc_cnt8_40 reducing native harnessed arena", "core 1632/5afadd4105544cf0 marked 51cd47ccd02b4a4d checked 590 props 75743 visits 112066"),
    ("bmc_cnt8_40 reducing native harnessed watched", "core 1632/5afadd4105544cf0 marked 51cd47ccd02b4a4d checked 590 props 75743 visits 112066"),
    ("bmc_cnt8_40 reducing native implication arena", "core 1632/5afadd4105544cf0 marked 51cd46ccd02b489a checked 591 props 75743 visits 112066"),
    ("bmc_cnt8_40 reducing native implication watched", "core 1632/5afadd4105544cf0 marked 51cd46ccd02b489a checked 591 props 75743 visits 112066"),
    ("bmc_cnt8_40 reducing native parallel2 arena", "core 2099/b60fd4237942e476 marked b5470e46f35894a1 checked 1106 props 160554 visits 245203"),
    ("bmc_cnt8_40 reducing native parallel2 watched", "core 2099/b60fd4237942e476 marked b5470e46f35894a1 checked 1106 props 160554 visits 245203"),
    ("bmc_cnt8_40 reducing native verify arena", "core 1632/5afadd4105544cf0 marked 51cd47ccd02b4a4d checked 590 props 75743 visits 112066"),
    ("bmc_cnt8_40 reducing native verify watched", "core 1632/5afadd4105544cf0 marked 51cd47ccd02b4a4d checked 590 props 75743 visits 112066"),
    ("bmc_cnt8_40 reducing native verify_all arena", "core 2099/b60fd4237942e476 marked 90c0865d457fa1ec checked 1106 props 160239 visits 242776"),
    ("bmc_cnt8_40 reducing native verify_all watched", "core 2099/b60fd4237942e476 marked 90c0865d457fa1ec checked 1106 props 160239 visits 242776"),
    ("bmc_cnt8_40 reducing stream1m arena", "core 1285/7e4c1c1e3ca8f758 checked 335 rup 335 rat 0 resolvents 0 props 56894 visits 70192 windows 5 shrinks 1 rebuilds 1 peak 970528"),
    ("bmc_cnt8_40 reducing stream1m watched", "core 1285/7e4c1c1e3ca8f758 checked 335 rup 335 rat 0 resolvents 0 props 56894 visits 70167 windows 5 shrinks 1 rebuilds 0 peak 929328"),
    ("bmc_cnt8_40 reducing stream64m arena", "core 1285/7e4c1c1e3ca8f758 checked 335 rup 335 rat 0 resolvents 0 props 56894 visits 70167 windows 1 shrinks 0 rebuilds 0 peak 1891648"),
    ("bmc_cnt8_40 reducing stream64m watched", "core 1285/7e4c1c1e3ca8f758 checked 335 rup 335 rat 0 resolvents 0 props 56894 visits 70167 windows 1 shrinks 0 rebuilds 0 peak 1855728"),
    ("chain2000 annotated", "rejected: proof is not correct: conflict clause #3998 (10 ∨ -9) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 native all_forward arena", "rejected: proof is not correct: conflict clause #2 (4 ∨ -3) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 native all_forward watched", "rejected: proof is not correct: conflict clause #2 (4 ∨ -3) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 native harnessed arena", "rejected at Some(14): proof is not correct: conflict clause #14 (10 ∨ -9) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 native harnessed watched", "rejected at Some(14): proof is not correct: conflict clause #14 (10 ∨ -9) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 native implication arena", "rejected: proof is not correct: conflict clause #14 (10 ∨ -9) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 native implication watched", "rejected: proof is not correct: conflict clause #14 (10 ∨ -9) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 native parallel2 arena", "rejected at Some(14): proof is not correct: conflict clause #14 (10 ∨ -9) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 native parallel2 watched", "rejected at Some(14): proof is not correct: conflict clause #14 (10 ∨ -9) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 native verify arena", "rejected: proof is not correct: conflict clause #14 (10 ∨ -9) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 native verify watched", "rejected: proof is not correct: conflict clause #14 (10 ∨ -9) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 native verify_all arena", "rejected: proof is not correct: conflict clause #14 (10 ∨ -9) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 native verify_all watched", "rejected: proof is not correct: conflict clause #14 (10 ∨ -9) is not derivable by unit propagation from the preceding clauses"),
    ("chain2000 stream1m arena", "core 4/64dbcbc3ab5bf1a5 checked 4002 rup 2003 rat 1999 resolvents 0 props 6006 visits 2010 windows 1 shrinks 0 rebuilds 0 peak 673648"),
    ("chain2000 stream1m watched", "core 4/64dbcbc3ab5bf1a5 checked 4002 rup 2003 rat 1999 resolvents 0 props 6006 visits 2010 windows 1 shrinks 0 rebuilds 0 peak 673584"),
    ("chain2000 stream64m arena", "core 4/64dbcbc3ab5bf1a5 checked 4002 rup 2003 rat 1999 resolvents 0 props 6006 visits 2010 windows 1 shrinks 0 rebuilds 0 peak 673648"),
    ("chain2000 stream64m watched", "core 4/64dbcbc3ab5bf1a5 checked 4002 rup 2003 rat 1999 resolvents 0 props 6006 visits 2010 windows 1 shrinks 0 rebuilds 0 peak 673584"),
    ("eqv_shift16 default annotated", "core 2084/52ed9f5719972507 marked 623cf5dee98d3bff checked 304"),
    ("eqv_shift16 default native all_forward arena", "core 2077/54aaed2fa630b6f0 marked 1f95ab9f1a7f6545 checked 320 props 128062 visits 143413"),
    ("eqv_shift16 default native all_forward watched", "core 2077/54aaed2fa630b6f0 marked 1f95ab9f1a7f6545 checked 320 props 128062 visits 143413"),
    ("eqv_shift16 default native harnessed arena", "core 2077/54aaed2fa630b6f0 marked 623cf5dee98d3bff checked 304 props 121893 visits 137421"),
    ("eqv_shift16 default native harnessed watched", "core 2077/54aaed2fa630b6f0 marked 623cf5dee98d3bff checked 304 props 121893 visits 137421"),
    ("eqv_shift16 default native implication arena", "core 2077/54aaed2fa630b6f0 marked 623cf4dee98d3a4c checked 305 props 121893 visits 137421"),
    ("eqv_shift16 default native implication watched", "core 2077/54aaed2fa630b6f0 marked 623cf4dee98d3a4c checked 305 props 121893 visits 137421"),
    ("eqv_shift16 default native parallel2 arena", "core 2077/54aaed2fa630b6f0 marked 1f95ab9f1a7f6545 checked 320 props 128028 visits 145442"),
    ("eqv_shift16 default native parallel2 watched", "core 2077/54aaed2fa630b6f0 marked 1f95ab9f1a7f6545 checked 320 props 128028 visits 145442"),
    ("eqv_shift16 default native verify arena", "core 2077/54aaed2fa630b6f0 marked 623cf5dee98d3bff checked 304 props 121893 visits 137421"),
    ("eqv_shift16 default native verify watched", "core 2077/54aaed2fa630b6f0 marked 623cf5dee98d3bff checked 304 props 121893 visits 137421"),
    ("eqv_shift16 default native verify_all arena", "core 2077/54aaed2fa630b6f0 marked 1f95ab9f1a7f6545 checked 320 props 127749 visits 143820"),
    ("eqv_shift16 default native verify_all watched", "core 2077/54aaed2fa630b6f0 marked 1f95ab9f1a7f6545 checked 320 props 127749 visits 143820"),
    ("eqv_shift16 default stream1m arena", "core 2084/52ed9f5719972507 checked 304 rup 304 rat 0 resolvents 0 props 163710 visits 178461 windows 1 shrinks 0 rebuilds 0 peak 627904"),
    ("eqv_shift16 default stream1m watched", "core 2084/52ed9f5719972507 checked 304 rup 304 rat 0 resolvents 0 props 163710 visits 178461 windows 1 shrinks 0 rebuilds 0 peak 604856"),
    ("eqv_shift16 default stream64m arena", "core 2084/52ed9f5719972507 checked 304 rup 304 rat 0 resolvents 0 props 163710 visits 178461 windows 1 shrinks 0 rebuilds 0 peak 627904"),
    ("eqv_shift16 default stream64m watched", "core 2084/52ed9f5719972507 checked 304 rup 304 rat 0 resolvents 0 props 163710 visits 178461 windows 1 shrinks 0 rebuilds 0 peak 604856"),
    ("eqv_shift16 reducing annotated", "core 2079/9e7858be2122a07e marked 797a0a9491a84fc0 checked 325"),
    ("eqv_shift16 reducing native all_forward arena", "core 2094/b64c1c510b50c06b marked 380df1201b214fe6 checked 523 props 182753 visits 215917"),
    ("eqv_shift16 reducing native all_forward watched", "core 2094/b64c1c510b50c06b marked 380df1201b214fe6 checked 523 props 182753 visits 215917"),
    ("eqv_shift16 reducing native harnessed arena", "core 2091/11ec89f76bd05035 marked b8d97073e14a9bc9 checked 400 props 151995 visits 179785"),
    ("eqv_shift16 reducing native harnessed watched", "core 2091/11ec89f76bd05035 marked b8d97073e14a9bc9 checked 400 props 151995 visits 179785"),
    ("eqv_shift16 reducing native implication arena", "core 2091/11ec89f76bd05035 marked b8d96f73e14a9a16 checked 401 props 151995 visits 179785"),
    ("eqv_shift16 reducing native implication watched", "core 2091/11ec89f76bd05035 marked b8d96f73e14a9a16 checked 401 props 151995 visits 179785"),
    ("eqv_shift16 reducing native parallel2 arena", "core 2093/22ea95c484c67efa marked 89d4eb1f717e6e2e checked 523 props 182535 visits 219286"),
    ("eqv_shift16 reducing native parallel2 watched", "core 2093/22ea95c484c67efa marked 89d4eb1f717e6e2e checked 523 props 182535 visits 219286"),
    ("eqv_shift16 reducing native verify arena", "core 2091/11ec89f76bd05035 marked b8d97073e14a9bc9 checked 400 props 151995 visits 179785"),
    ("eqv_shift16 reducing native verify watched", "core 2091/11ec89f76bd05035 marked b8d97073e14a9bc9 checked 400 props 151995 visits 179785"),
    ("eqv_shift16 reducing native verify_all arena", "core 2093/22ea95c484c67efa marked b28a7c847562b48b checked 523 props 182203 visits 217413"),
    ("eqv_shift16 reducing native verify_all watched", "core 2093/22ea95c484c67efa marked b28a7c847562b48b checked 523 props 182203 visits 217413"),
    ("eqv_shift16 reducing stream1m arena", "core 2079/9e7858be2122a07e checked 325 rup 325 rat 0 resolvents 0 props 176124 visits 188773 windows 3 shrinks 1 rebuilds 1 peak 662800"),
    ("eqv_shift16 reducing stream1m watched", "core 2079/9e7858be2122a07e checked 325 rup 325 rat 0 resolvents 0 props 176125 visits 188892 windows 1 shrinks 0 rebuilds 0 peak 1027448"),
    ("eqv_shift16 reducing stream64m arena", "core 2079/9e7858be2122a07e checked 325 rup 325 rat 0 resolvents 0 props 176125 visits 188892 windows 1 shrinks 0 rebuilds 0 peak 1048688"),
    ("eqv_shift16 reducing stream64m watched", "core 2079/9e7858be2122a07e checked 325 rup 325 rat 0 resolvents 0 props 176125 visits 188892 windows 1 shrinks 0 rebuilds 0 peak 1027448"),
    ("eqv_shift32 default annotated", "core 6967/a0c9af6f4a8c4f62 marked 7eee4fc4fa594d72 checked 1177"),
    ("eqv_shift32 default native all_forward arena", "core 6937/a511c5d0d144868c marked d10600c7c911cd1f checked 1239 props 1630265 visits 1694536"),
    ("eqv_shift32 default native all_forward watched", "core 6937/a511c5d0d144868c marked d10600c7c911cd1f checked 1239 props 1630265 visits 1694536"),
    ("eqv_shift32 default native harnessed arena", "core 6937/a511c5d0d144868c marked 7eee4fc4fa594d72 checked 1177 props 1534452 visits 1606248"),
    ("eqv_shift32 default native harnessed watched", "core 6937/a511c5d0d144868c marked 7eee4fc4fa594d72 checked 1177 props 1534452 visits 1606248"),
    ("eqv_shift32 default native implication arena", "core 6937/a511c5d0d144868c marked 7eee50c4fa594f25 checked 1178 props 1534452 visits 1606248"),
    ("eqv_shift32 default native implication watched", "core 6937/a511c5d0d144868c marked 7eee50c4fa594f25 checked 1178 props 1534452 visits 1606248"),
    ("eqv_shift32 default native parallel2 arena", "core 6937/a511c5d0d144868c marked d10600c7c911cd1f checked 1239 props 1631301 visits 1708016"),
    ("eqv_shift32 default native parallel2 watched", "core 6937/a511c5d0d144868c marked d10600c7c911cd1f checked 1239 props 1631301 visits 1708016"),
    ("eqv_shift32 default native verify arena", "core 6937/a511c5d0d144868c marked 7eee4fc4fa594d72 checked 1177 props 1534452 visits 1606248"),
    ("eqv_shift32 default native verify watched", "core 6937/a511c5d0d144868c marked 7eee4fc4fa594d72 checked 1177 props 1534452 visits 1606248"),
    ("eqv_shift32 default native verify_all arena", "core 6937/a511c5d0d144868c marked d10600c7c911cd1f checked 1239 props 1630285 visits 1702336"),
    ("eqv_shift32 default native verify_all watched", "core 6937/a511c5d0d144868c marked d10600c7c911cd1f checked 1239 props 1630285 visits 1702336"),
    ("eqv_shift32 default stream1m arena", "exhausted Memory checked 0/1240 props 2569 visits 4252 checkpointed false"),
    ("eqv_shift32 default stream1m watched", "exhausted Memory checked 0/1240 props 2569 visits 4252 checkpointed false"),
    ("eqv_shift32 default stream64m arena", "core 6967/a0c9af6f4a8c4f62 checked 1177 rup 1177 rat 0 resolvents 0 props 2153724 visits 2225168 windows 1 shrinks 0 rebuilds 0 peak 3744928"),
    ("eqv_shift32 default stream64m watched", "core 6967/a0c9af6f4a8c4f62 checked 1177 rup 1177 rat 0 resolvents 0 props 2153724 visits 2225168 windows 1 shrinks 0 rebuilds 0 peak 3665632"),
    ("eqv_shift32 reducing annotated", "core 6959/fe7fe7507a1b9d6c marked 4c0bfb8004eb0392 checked 1243"),
    ("eqv_shift32 reducing native all_forward arena", "core 6965/6da24946336b677b marked d6ed36e8f914cfe0 checked 2197 props 2098926 visits 2337117"),
    ("eqv_shift32 reducing native all_forward watched", "core 6965/6da24946336b677b marked d6ed36e8f914cfe0 checked 2197 props 2098926 visits 2337117"),
    ("eqv_shift32 reducing native harnessed arena", "core 6969/aa5ef2db7de7e93f marked 6ea8e305370bf6c1 checked 1500 props 1764821 visits 1918897"),
    ("eqv_shift32 reducing native harnessed watched", "core 6969/aa5ef2db7de7e93f marked 6ea8e305370bf6c1 checked 1500 props 1764821 visits 1918897"),
    ("eqv_shift32 reducing native implication arena", "core 6969/aa5ef2db7de7e93f marked 6ea8e205370bf50e checked 1501 props 1764821 visits 1918897"),
    ("eqv_shift32 reducing native implication watched", "core 6969/aa5ef2db7de7e93f marked 6ea8e205370bf50e checked 1501 props 1764821 visits 1918897"),
    ("eqv_shift32 reducing native parallel2 arena", "core 6969/aa5ef2db7de7e93f marked 6baf6692e7bfc230 checked 2197 props 2100565 visits 2358452"),
    ("eqv_shift32 reducing native parallel2 watched", "core 6969/aa5ef2db7de7e93f marked 6baf6692e7bfc230 checked 2197 props 2100565 visits 2358452"),
    ("eqv_shift32 reducing native verify arena", "core 6969/aa5ef2db7de7e93f marked 6ea8e305370bf6c1 checked 1500 props 1764821 visits 1918897"),
    ("eqv_shift32 reducing native verify watched", "core 6969/aa5ef2db7de7e93f marked 6ea8e305370bf6c1 checked 1500 props 1764821 visits 1918897"),
    ("eqv_shift32 reducing native verify_all arena", "core 6969/aa5ef2db7de7e93f marked b569c50cc6b58d20 checked 2197 props 2099015 visits 2348639"),
    ("eqv_shift32 reducing native verify_all watched", "core 6969/aa5ef2db7de7e93f marked b569c50cc6b58d20 checked 2197 props 2099015 visits 2348639"),
    ("eqv_shift32 reducing stream1m arena", "exhausted Memory checked 0/2198 props 2149 visits 2796 checkpointed false"),
    ("eqv_shift32 reducing stream1m watched", "exhausted Memory checked 44/2198 props 90087 visits 91670 checkpointed false"),
    ("eqv_shift32 reducing stream64m arena", "core 6959/fe7fe7507a1b9d6c checked 1243 rup 1243 rat 0 resolvents 0 props 2240030 visits 2315734 windows 1 shrinks 0 rebuilds 0 peak 6923960"),
    ("eqv_shift32 reducing stream64m watched", "core 6959/fe7fe7507a1b9d6c checked 1243 rup 1243 rat 0 resolvents 0 props 2240030 visits 2315734 windows 1 shrinks 0 rebuilds 0 peak 6853312"),
    ("pebbling24 default annotated", "core 1130/afa3fadf95546df4 marked b83df192176bddd0 checked 3385"),
    ("pebbling24 default native all_forward arena", "core 1130/afa3fadf95546df4 marked 2ec89b4adc29820a checked 6551 props 77459 visits 233654"),
    ("pebbling24 default native all_forward watched", "core 1130/afa3fadf95546df4 marked 2ec89b4adc29820a checked 6551 props 77459 visits 233654"),
    ("pebbling24 default native harnessed arena", "core 1130/afa3fadf95546df4 marked 1f0e8e1ea13ff8c1 checked 3414 props 30508 visits 143535"),
    ("pebbling24 default native harnessed watched", "core 1130/afa3fadf95546df4 marked 1f0e8e1ea13ff8c1 checked 3414 props 30508 visits 143535"),
    ("pebbling24 default native implication arena", "core 1130/afa3fadf95546df4 marked 1f0e8d1ea13ff70e checked 3415 props 30508 visits 143535"),
    ("pebbling24 default native implication watched", "core 1130/afa3fadf95546df4 marked 1f0e8d1ea13ff70e checked 3415 props 30508 visits 143535"),
    ("pebbling24 default native parallel2 arena", "core 1130/afa3fadf95546df4 marked 1f11edc984bffd84 checked 6551 props 79231 visits 256747"),
    ("pebbling24 default native parallel2 watched", "core 1130/afa3fadf95546df4 marked 1f11edc984bffd84 checked 6551 props 79231 visits 256747"),
    ("pebbling24 default native verify arena", "core 1130/afa3fadf95546df4 marked 1f0e8e1ea13ff8c1 checked 3414 props 30508 visits 143535"),
    ("pebbling24 default native verify watched", "core 1130/afa3fadf95546df4 marked 1f0e8e1ea13ff8c1 checked 3414 props 30508 visits 143535"),
    ("pebbling24 default native verify_all arena", "core 1130/afa3fadf95546df4 marked 5ea13889df087bee checked 6551 props 79192 visits 255174"),
    ("pebbling24 default native verify_all watched", "core 1130/afa3fadf95546df4 marked 5ea13889df087bee checked 6551 props 79192 visits 255174"),
    ("pebbling24 default stream1m arena", "core 1130/afa3fadf95546df4 checked 3388 rup 3388 rat 0 resolvents 0 props 36610 visits 135579 windows 37 shrinks 3 rebuilds 3 peak 1013952"),
    ("pebbling24 default stream1m watched", "core 1130/afa3fadf95546df4 checked 3388 rup 3388 rat 0 resolvents 0 props 36614 visits 135636 windows 36 shrinks 3 rebuilds 2 peak 1047184"),
    ("pebbling24 default stream64m arena", "core 1130/afa3fadf95546df4 checked 3385 rup 3385 rat 0 resolvents 0 props 36646 visits 135907 windows 1 shrinks 0 rebuilds 0 peak 4751352"),
    ("pebbling24 default stream64m watched", "core 1130/afa3fadf95546df4 checked 3385 rup 3385 rat 0 resolvents 0 props 36646 visits 135907 windows 1 shrinks 0 rebuilds 0 peak 4723192"),
    ("pebbling24 reducing annotated", "core 1130/afa3fadf95546df4 marked 7bfa518a3f23a378 checked 2283"),
    ("pebbling24 reducing native all_forward arena", "core 1130/afa3fadf95546df4 marked 693bd30482f79ddd checked 8495 props 91011 visits 306972"),
    ("pebbling24 reducing native all_forward watched", "core 1130/afa3fadf95546df4 marked 693bd30482f79ddd checked 8495 props 91011 visits 306972"),
    ("pebbling24 reducing native harnessed arena", "core 1130/afa3fadf95546df4 marked 8b178a14915c7e60 checked 3447 props 30163 visits 160293"),
    ("pebbling24 reducing native harnessed watched", "core 1130/afa3fadf95546df4 marked 8b178a14915c7e60 checked 3447 props 30163 visits 160293"),
    ("pebbling24 reducing native implication arena", "core 1130/afa3fadf95546df4 marked 8b178b14915c8013 checked 3448 props 30163 visits 160293"),
    ("pebbling24 reducing native implication watched", "core 1130/afa3fadf95546df4 marked 8b178b14915c8013 checked 3448 props 30163 visits 160293"),
    ("pebbling24 reducing native parallel2 arena", "core 1130/afa3fadf95546df4 marked d37ef9e23175b337 checked 8495 props 92624 visits 336220"),
    ("pebbling24 reducing native parallel2 watched", "core 1130/afa3fadf95546df4 marked d37ef9e23175b337 checked 8495 props 92624 visits 336220"),
    ("pebbling24 reducing native verify arena", "core 1130/afa3fadf95546df4 marked 8b178a14915c7e60 checked 3447 props 30163 visits 160293"),
    ("pebbling24 reducing native verify watched", "core 1130/afa3fadf95546df4 marked 8b178a14915c7e60 checked 3447 props 30163 visits 160293"),
    ("pebbling24 reducing native verify_all arena", "core 1130/afa3fadf95546df4 marked 3241f2a808b9901b checked 8495 props 92702 visits 335146"),
    ("pebbling24 reducing native verify_all watched", "core 1130/afa3fadf95546df4 marked 3241f2a808b9901b checked 8495 props 92702 visits 335146"),
    ("pebbling24 reducing stream1m arena", "core 1130/afa3fadf95546df4 checked 2286 rup 2286 rat 0 resolvents 0 props 23922 visits 56521 windows 10 shrinks 0 rebuilds 5 peak 1046760"),
    ("pebbling24 reducing stream1m watched", "core 1130/afa3fadf95546df4 checked 2286 rup 2286 rat 0 resolvents 0 props 23916 visits 56515 windows 10 shrinks 0 rebuilds 4 peak 1028080"),
    ("pebbling24 reducing stream64m arena", "core 1130/afa3fadf95546df4 checked 2283 rup 2283 rat 0 resolvents 0 props 23910 visits 56469 windows 1 shrinks 0 rebuilds 0 peak 6640096"),
    ("pebbling24 reducing stream64m watched", "core 1130/afa3fadf95546df4 checked 2283 rup 2283 rat 0 resolvents 0 props 23910 visits 56469 windows 1 shrinks 0 rebuilds 0 peak 6628360"),
    ("tseitin4x4 default annotated", "core 128/daae756b97d6bf25 marked 6e80d5505c3d44d3 checked 3580"),
    ("tseitin4x4 default native all_forward arena", "core 128/daae756b97d6bf25 marked 0b5009bd1af13056 checked 3623 props 43895 visits 391432"),
    ("tseitin4x4 default native all_forward watched", "core 128/daae756b97d6bf25 marked 0b5009bd1af13056 checked 3623 props 43895 visits 391432"),
    ("tseitin4x4 default native harnessed arena", "core 128/daae756b97d6bf25 marked 6e80d5505c3d44d3 checked 3580 props 40967 visits 371655"),
    ("tseitin4x4 default native harnessed watched", "core 128/daae756b97d6bf25 marked 6e80d5505c3d44d3 checked 3580 props 40967 visits 371655"),
    ("tseitin4x4 default native implication arena", "core 128/daae756b97d6bf25 marked 6e80d4505c3d4320 checked 3581 props 40967 visits 371655"),
    ("tseitin4x4 default native implication watched", "core 128/daae756b97d6bf25 marked 6e80d4505c3d4320 checked 3581 props 40967 visits 371655"),
    ("tseitin4x4 default native parallel2 arena", "core 128/daae756b97d6bf25 marked 4d2d4344a4c29fe2 checked 3623 props 41479 visits 374260"),
    ("tseitin4x4 default native parallel2 watched", "core 128/daae756b97d6bf25 marked 4d2d4344a4c29fe2 checked 3623 props 41479 visits 374260"),
    ("tseitin4x4 default native verify arena", "core 128/daae756b97d6bf25 marked 6e80d5505c3d44d3 checked 3580 props 40967 visits 371655"),
    ("tseitin4x4 default native verify watched", "core 128/daae756b97d6bf25 marked 6e80d5505c3d44d3 checked 3580 props 40967 visits 371655"),
    ("tseitin4x4 default native verify_all arena", "core 128/daae756b97d6bf25 marked 4d2d4344a4c29fe2 checked 3623 props 41445 visits 372776"),
    ("tseitin4x4 default native verify_all watched", "core 128/daae756b97d6bf25 marked 4d2d4344a4c29fe2 checked 3623 props 41445 visits 372776"),
    ("tseitin4x4 default stream1m arena", "core 128/daae756b97d6bf25 checked 3576 rup 3576 rat 0 resolvents 0 props 40865 visits 371841 windows 10 shrinks 2 rebuilds 1 peak 895552"),
    ("tseitin4x4 default stream1m watched", "core 128/daae756b97d6bf25 checked 3580 rup 3580 rat 0 resolvents 0 props 40967 visits 371655 windows 10 shrinks 2 rebuilds 0 peak 865536"),
    ("tseitin4x4 default stream64m arena", "core 128/daae756b97d6bf25 checked 3580 rup 3580 rat 0 resolvents 0 props 40967 visits 371655 windows 1 shrinks 0 rebuilds 0 peak 1781608"),
    ("tseitin4x4 default stream64m watched", "core 128/daae756b97d6bf25 checked 3580 rup 3580 rat 0 resolvents 0 props 40967 visits 371655 windows 1 shrinks 0 rebuilds 0 peak 1751592"),
    ("tseitin4x4 reducing annotated", "core 128/daae756b97d6bf25 marked 55e906da73d5944e checked 3915"),
    ("tseitin4x4 reducing native all_forward arena", "core 128/daae756b97d6bf25 marked 6d433707de847f10 checked 9663 props 60510 visits 1428102"),
    ("tseitin4x4 reducing native all_forward watched", "core 128/daae756b97d6bf25 marked 6d433707de847f10 checked 9663 props 60510 visits 1428102"),
    ("tseitin4x4 reducing native harnessed arena", "core 128/daae756b97d6bf25 marked 74cf4abf4d53fd5b checked 5512 props 44229 visits 945649"),
    ("tseitin4x4 reducing native harnessed watched", "core 128/daae756b97d6bf25 marked 74cf4abf4d53fd5b checked 5512 props 44229 visits 945649"),
    ("tseitin4x4 reducing native implication arena", "core 128/daae756b97d6bf25 marked 74cf49bf4d53fba8 checked 5513 props 44229 visits 945649"),
    ("tseitin4x4 reducing native implication watched", "core 128/daae756b97d6bf25 marked 74cf49bf4d53fba8 checked 5513 props 44229 visits 945649"),
    ("tseitin4x4 reducing native parallel2 arena", "core 128/daae756b97d6bf25 marked 8b85f3c269232f41 checked 9663 props 53947 visits 1282296"),
    ("tseitin4x4 reducing native parallel2 watched", "core 128/daae756b97d6bf25 marked 8b85f3c269232f41 checked 9663 props 53947 visits 1282296"),
    ("tseitin4x4 reducing native verify arena", "core 128/daae756b97d6bf25 marked 74cf4abf4d53fd5b checked 5512 props 44229 visits 945649"),
    ("tseitin4x4 reducing native verify watched", "core 128/daae756b97d6bf25 marked 74cf4abf4d53fd5b checked 5512 props 44229 visits 945649"),
    ("tseitin4x4 reducing native verify_all arena", "core 128/daae756b97d6bf25 marked dbf99b84a756aaed checked 9663 props 54134 visits 1256844"),
    ("tseitin4x4 reducing native verify_all watched", "core 128/daae756b97d6bf25 marked dbf99b84a756aaed checked 9663 props 54134 visits 1256844"),
    ("tseitin4x4 reducing stream1m arena", "core 128/daae756b97d6bf25 checked 3915 rup 3915 rat 0 resolvents 0 props 48621 visits 212675 windows 8 shrinks 0 rebuilds 3 peak 1039396"),
    ("tseitin4x4 reducing stream1m watched", "core 128/daae756b97d6bf25 checked 3915 rup 3915 rat 0 resolvents 0 props 48621 visits 212675 windows 8 shrinks 0 rebuilds 3 peak 1021252"),
    ("tseitin4x4 reducing stream64m arena", "core 128/daae756b97d6bf25 checked 3915 rup 3915 rat 0 resolvents 0 props 48621 visits 212692 windows 1 shrinks 0 rebuilds 0 peak 5307368"),
    ("tseitin4x4 reducing stream64m watched", "core 128/daae756b97d6bf25 checked 3915 rup 3915 rat 0 resolvents 0 props 48621 visits 212692 windows 1 shrinks 0 rebuilds 0 peak 5304344"),
];
