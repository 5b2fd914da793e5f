//! Differential property tests for the native checker: every native
//! entry point — `verify`, `verify_all`, forward checking, a target,
//! the two-thread parallel run, budgeted runs and their resumptions —
//! against the `Checker` that kept its own check, root level and loops
//! before the native procedures became walks on the shared kernel.
//!
//! `mod reference` keeps that checker verbatim: its type, its worker
//! outcome and its metrics. Three things differ, each because a test
//! crate cannot reach what it used or because it left `bcp`:
//!
//! * `Cone` and `lrat_id`, crate-private in the kernel, are copied in;
//! * the activity horizon left `bcp`: its `set_active_limit` calls
//!   become the same deletions and undeletions, which deactivate the
//!   clauses at and above the limit exactly as the horizon did;
//! * the harness's cancellation flag is crate-private, so its fuel has
//!   none (no case here cancels).
//!
//! The reference parallel run is the old driver's fault-free path: the
//! terminal worker, then one worker per slice, merged.
//!
//! The formulas hold units, so the root level does work, and now and
//! then an empty clause. The proofs mix resolvents and weakenings (RUP)
//! with unit clauses, clauses unit or falsified under `F`'s root, empty
//! clauses mid-proof and at the end, tautologies, repeated literals,
//! fresh variables and bogus steps. Every case must give the same
//! verdict, rejected step, core, marks, checked count, propagations and
//! clause visits in every mode on both engines; every tenth case also
//! sweeps the propagation cap, where each exhaustion's progress and
//! checkpoint must match and each checkpoint must resume to the same
//! result on both sides.

use std::cell::RefCell;

use bcp::{ArenaWatchedPropagator, Propagator, PropagatorChoice, WatchedPropagator};
use cnf::{Clause, CnfFormula, LBool, Lit};
use proofver::{
    resume_verification_with_engine, verify_all_parallel_harnessed_with_engine,
    verify_harnessed_with_engine, Budget, CheckMode, Checker, Checkpoint, ConflictClauseProof,
    ExhaustReason, Harness, Outcome, Progress, VerifyError,
};
use proptest::prelude::*;

fn dimacs_lit(n: i32) -> impl Strategy<Value = i32> {
    (1..=n).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)])
}

/// Mostly binary and ternary clauses over six variables, with units
/// and now and then an empty clause; a third of the formulas also hold
/// an XOR square, so that short proofs refute them.
fn formula_strategy() -> impl Strategy<Value = CnfFormula> {
    let clause = prop_oneof![
        60 => prop::collection::vec(dimacs_lit(6), 2..=3),
        12 => prop::collection::vec(dimacs_lit(6), 1..=1),
        1 => Just(Vec::new()),
    ];
    let square = prop_oneof![
        2 => Just(None),
        1 => (1..=6i32, 1..=6i32)
            .prop_filter("two variables", |(a, b)| a != b)
            .prop_map(Some),
    ];
    (prop::collection::vec(clause, 1..12), square).prop_map(|(mut cs, square)| {
        if let Some((a, b)) = square {
            cs.extend([vec![a, b], vec![-a, -b], vec![a, -b], vec![-a, b]]);
        }
        CnfFormula::from_dimacs_clauses(&cs)
    })
}

/// One planned proof step; indices pick earlier clauses (of `F` and the
/// proof) or units of `F` modulo their count.
#[derive(Clone, Debug)]
enum Step {
    /// The resolvent of two earlier clauses (their union when they
    /// clash nowhere): RUP.
    Resolvent(usize, usize),
    /// An earlier clause plus a literal: RUP.
    Weakened(usize, i32),
    /// A unit clause: RUP, or bogus.
    Unit(i32),
    /// `¬u ∨ l` for a unit `u` of `F`: unit under `F`'s root when `l`
    /// is unassigned there.
    UnderRoot(usize, i32),
    /// `¬u ∨ ¬u'` for units `u`, `u'` of `F`: falsified under the root.
    FalsifiedUnderRoot(usize, usize),
    /// `x ∨ ¬x ∨ rest`.
    Tautology(i32, Vec<i32>),
    /// An earlier clause with its first literal repeated.
    Repeated(usize),
    /// A clause over a fresh variable, 7 or 8.
    Fresh(i32, Vec<i32>),
    /// Any clause: junk, or RUP by chance.
    Junk(Vec<i32>),
    /// The empty clause, mid-proof.
    Empty,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Resolvent(a, b)),
        2 => (any::<usize>(), dimacs_lit(6)).prop_map(|(a, l)| Step::Weakened(a, l)),
        3 => dimacs_lit(6).prop_map(Step::Unit),
        3 => (any::<usize>(), dimacs_lit(6)).prop_map(|(u, l)| Step::UnderRoot(u, l)),
        2 => (any::<usize>(), any::<usize>()).prop_map(|(u, v)| Step::FalsifiedUnderRoot(u, v)),
        1 => (dimacs_lit(6), prop::collection::vec(dimacs_lit(6), 0..2))
            .prop_map(|(x, rest)| Step::Tautology(x, rest)),
        1 => any::<usize>().prop_map(Step::Repeated),
        1 => (prop_oneof![Just(7), Just(-7), Just(8), Just(-8)], prop::collection::vec(dimacs_lit(6), 0..2))
            .prop_map(|(x, rest)| Step::Fresh(x, rest)),
        1 => prop::collection::vec(dimacs_lit(6), 1..4).prop_map(Step::Junk),
        1 => Just(Step::Empty),
    ]
}

fn dimacs(c: &Clause) -> Vec<i32> {
    c.lits().iter().map(|l| l.to_dimacs()).collect()
}

fn planned_proof(f: &CnfFormula, steps: &[Step], trailing_empty: bool) -> ConflictClauseProof {
    let units: Vec<i32> = f.iter().filter(|c| c.len() == 1).map(|c| dimacs(c)[0]).collect();
    let unit = |k: usize| units.get(k % units.len().max(1)).copied();
    let mut earlier: Vec<Vec<i32>> = f.iter().map(dimacs).collect();
    let mut proof = Vec::new();
    for step in steps {
        let pick = |k: usize| &earlier[k % earlier.len()];
        let clause: Vec<i32> = match step {
            Step::Resolvent(a, b) => {
                let (a, b) = (pick(*a), pick(*b));
                match a.iter().find(|&&l| b.contains(&-l)) {
                    Some(&pivot) => a
                        .iter()
                        .filter(|&&l| l != pivot)
                        .chain(b.iter().filter(|&&l| l != -pivot))
                        .copied()
                        .collect(),
                    None => a.iter().chain(b).copied().collect(),
                }
            }
            Step::Weakened(a, l) => pick(*a).iter().copied().chain([*l]).collect(),
            Step::Unit(l) => vec![*l],
            Step::UnderRoot(u, l) => unit(*u).map_or(vec![*l], |u| vec![-u, *l]),
            Step::FalsifiedUnderRoot(u, v) => match (unit(*u), unit(*v)) {
                (Some(u), Some(v)) => vec![-u, -v],
                _ => vec![1, 2],
            },
            Step::Tautology(x, rest) => [*x, -*x].into_iter().chain(rest.iter().copied()).collect(),
            Step::Repeated(a) => {
                let c = pick(*a);
                c.first().into_iter().chain(c.iter()).copied().collect()
            }
            Step::Fresh(x, rest) => [*x].into_iter().chain(rest.iter().copied()).collect(),
            Step::Junk(c) => c.clone(),
            Step::Empty => Vec::new(),
        };
        proof.push(Clause::from_dimacs(&clause));
        earlier.push(clause);
    }
    if trailing_empty {
        proof.push(Clause::empty());
    }
    ConflictClauseProof::new(proof)
}

/// A target for `verify_implication`-style runs.
#[derive(Clone, Debug)]
enum TargetKind {
    /// The first proof clause widened by variable 9, which occurs
    /// nowhere else.
    Widened,
    /// Any clause over variables 1–9.
    Any(Vec<i32>),
    /// A clause holding a unit of `F`, whose negation the root falsifies.
    RootTrue(usize, i32),
    /// `x ∨ ¬x`.
    Tautology(i32),
}

fn target_strategy() -> impl Strategy<Value = Option<TargetKind>> {
    prop_oneof![
        3 => Just(None),
        1 => Just(Some(TargetKind::Widened)),
        1 => prop::collection::vec(dimacs_lit(9), 1..4).prop_map(|c| Some(TargetKind::Any(c))),
        1 => (any::<usize>(), dimacs_lit(6)).prop_map(|(u, l)| Some(TargetKind::RootTrue(u, l))),
        1 => dimacs_lit(6).prop_map(|x| Some(TargetKind::Tautology(x))),
    ]
}

fn target_clause(kind: &TargetKind, f: &CnfFormula, proof: &ConflictClauseProof) -> Clause {
    let lits = match kind {
        TargetKind::Widened => {
            let first = proof.clauses().first().map(dimacs).unwrap_or_default();
            first.into_iter().chain([9]).collect()
        }
        TargetKind::Any(c) => c.clone(),
        TargetKind::RootTrue(u, l) => {
            let units: Vec<i32> = f.iter().filter(|c| c.len() == 1).map(|c| dimacs(c)[0]).collect();
            units.get(u % units.len().max(1)).map_or(vec![*l], |&u| vec![u, *l])
        }
        TargetKind::Tautology(x) => vec![*x, -*x],
    };
    Clause::from_dimacs(&lits)
}

/// `F`'s root assignment by unit propagation over its clauses, or
/// `None` when the root conflicts.
fn root_assignment(f: &CnfFormula) -> Option<Vec<LBool>> {
    let value = |a: &[LBool], l: Lit| match a[l.var().idx()] {
        LBool::Unassigned => LBool::Unassigned,
        v if (v == LBool::True) == l.is_positive() => LBool::True,
        _ => LBool::False,
    };
    let mut a = vec![LBool::Unassigned; f.num_vars()];
    loop {
        let mut changed = false;
        for c in f.iter() {
            if c.lits().iter().any(|&l| value(&a, l) == LBool::True) {
                continue;
            }
            let open: Vec<Lit> = c.lits().iter().copied().filter(|&l| value(&a, l) == LBool::Unassigned).collect();
            match open.as_slice() {
                [] => return None,
                [l] => {
                    a[l.var().idx()] = if l.is_positive() { LBool::True } else { LBool::False };
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return Some(a);
        }
    }
}

/// How often the generated cases exercised each proof feature and each
/// outcome; every count must be positive.
#[derive(Debug, Default)]
struct Tally {
    cases: usize,
    unit: usize,
    unit_under_root: usize,
    falsified_under_root: usize,
    empty_mid_proof: usize,
    empty_at_end: usize,
    tautology: usize,
    repeated_literal: usize,
    fresh_variable: usize,
    bogus_step: usize,
    root_conflict: usize,
    verified: usize,
    not_a_refutation: usize,
    target: usize,
    swept: usize,
    exhausted: usize,
    resumed: usize,
}

impl Tally {
    fn count_features(&mut self, f: &CnfFormula, proof: &ConflictClauseProof) {
        let clauses = proof.clauses();
        let any = |p: &dyn Fn(&Clause) -> bool| usize::from(clauses.iter().any(p));
        self.cases += 1;
        self.unit += any(&|c| c.len() == 1);
        let n = clauses.len();
        self.empty_mid_proof += usize::from(clauses.iter().take(n.saturating_sub(1)).any(|c| c.is_empty()));
        self.empty_at_end += usize::from(clauses.last().is_some_and(|c| c.is_empty()));
        self.tautology += any(&|c| c.is_tautology());
        self.repeated_literal += any(&|c| c.normalized().len() < c.len() && !c.is_tautology());
        self.fresh_variable += any(&|c| c.lits().iter().any(|l| l.var().idx() >= 6));
        match root_assignment(f) {
            None => self.root_conflict += 1,
            Some(root) => {
                let non_false = |c: &Clause| {
                    c.lits()
                        .iter()
                        .filter(|l| {
                            let v = root.get(l.var().idx()).copied().unwrap_or(LBool::Unassigned);
                            v == LBool::Unassigned || (v == LBool::True) == l.is_positive()
                        })
                        .count()
                };
                self.unit_under_root += any(&|c| c.len() >= 2 && non_false(c) == 1);
                self.falsified_under_root += any(&|c| c.len() >= 2 && non_false(c) == 0);
            }
        }
    }
}

/// What a run reported, minus its timing.
#[derive(Debug, PartialEq)]
enum Seen {
    Verified { core: Vec<usize>, marked: Vec<bool>, checked: usize, props: u64, visits: u64 },
    Rejected(Option<usize>, VerifyError),
    Exhausted(ExhaustReason, Progress, Option<Box<Checkpoint>>),
}

fn seen(outcome: Outcome) -> Seen {
    match outcome {
        Outcome::Verified(v) => Seen::Verified {
            core: v.core.indices().to_vec(),
            marked: v.marked_steps,
            checked: v.report.num_checked,
            props: v.report.propagations,
            visits: v.report.clause_visits,
        },
        Outcome::Rejected { step, error } => Seen::Rejected(step, error),
        Outcome::Exhausted { reason, progress, checkpoint } => {
            Seen::Exhausted(reason, progress, checkpoint)
        }
    }
}

fn seen_result(result: Result<proofver::Verification, VerifyError>) -> Seen {
    seen(match result {
        Ok(v) => Outcome::Verified(v),
        Err(error) => Outcome::Rejected { step: error.step(), error },
    })
}

const MODES: [CheckMode; 3] = [CheckMode::MarkedOnly, CheckMode::All, CheckMode::AllForward];

/// Every native entry point on engine `P` against the reference.
fn compare<P: Propagator>(
    f: &CnfFormula,
    proof: &ConflictClauseProof,
    target: Option<&Clause>,
    engine: PropagatorChoice,
    sweep: bool,
    tally: &RefCell<Tally>,
) -> Result<(), TestCaseError> {
    let targets = if target.is_some() { vec![None, target] } else { vec![None] };
    for target in targets {
        for mode in MODES {
            let got = Checker::<P>::with_engine(f, proof).run_with_target(mode, target);
            let want = reference::Checker::<P>::with_engine(f, proof).run_with_target(mode, target);
            prop_assert_eq!(seen_result(got), seen_result(want), "{:?} target {:?}", mode, target);
        }
    }
    let harness = Harness::default();
    let got = verify_all_parallel_harnessed_with_engine(f, proof, 2, &harness, engine);
    let want = reference::verify_all_parallel::<P>(f, proof, 2);
    prop_assert_eq!(seen(got), seen(want), "two-thread parallel run");
    if sweep {
        for mode in MODES {
            sweep_caps::<P>(f, proof, mode, engine, tally)?;
        }
    }
    Ok(())
}

/// Raises the propagation cap from zero until both sides reach a
/// verdict; every exhaustion must match, checkpoint included, and its
/// checkpoint must resume to the same result on both sides.
fn sweep_caps<P: Propagator>(
    f: &CnfFormula,
    proof: &ConflictClauseProof,
    mode: CheckMode,
    engine: PropagatorChoice,
    tally: &RefCell<Tally>,
) -> Result<(), TestCaseError> {
    for cap in 0.. {
        let harness = Harness::with_budget(Budget::unlimited().max_propagations(cap));
        let got = verify_harnessed_with_engine(f, proof, mode, &harness, engine);
        let want = reference::Checker::<P>::with_engine(f, proof).run_harnessed(mode, None, &harness, None);
        let done = !got.is_exhausted();
        let checkpoint = match &got {
            Outcome::Exhausted { checkpoint, .. } => checkpoint.clone(),
            _ => None,
        };
        prop_assert_eq!(seen(got), seen(want), "{:?} at cap {}", mode, cap);
        if let Some(ckpt) = checkpoint {
            tally.borrow_mut().exhausted += 1;
            let unlimited = Harness::default();
            let got = resume_verification_with_engine(f, proof, &ckpt, &unlimited, engine)
                .expect("the checkpoint fits its inputs");
            let want = reference::Checker::<P>::with_engine(f, proof)
                .run_harnessed(ckpt.mode, None, &unlimited, Some(&ckpt));
            prop_assert_eq!(seen(got), seen(want), "{:?} resumed from cap {}", mode, cap);
            tally.borrow_mut().resumed += 1;
        }
        if done {
            break;
        }
    }
    Ok(())
}

#[test]
fn the_native_walks_match_the_retired_checker() {
    let cases = (
        formula_strategy(),
        prop::collection::vec(step_strategy(), 0..16),
        any::<bool>(),
        target_strategy(),
    );
    let name = "the_native_walks_match_the_retired_checker";
    let mut runner = TestRunner::new(ProptestConfig::with_cases(2000), name);
    let tally = RefCell::new(Tally::default());
    while let Some(mut rng) = runner.next_case() {
        let case = cases.generate(&mut rng);
        let outcome = (|| {
            let (f, steps, trailing_empty, target) = case.clone();
            let proof = planned_proof(&f, &steps, trailing_empty);
            let target = target.map(|kind| target_clause(&kind, &f, &proof));
            let sweep = {
                let mut tally = tally.borrow_mut();
                tally.count_features(&f, &proof);
                tally.target += usize::from(target.is_some());
                tally.swept += usize::from(tally.cases % 10 == 0);
                match proofver::verify_all(&f, &proof) {
                    Ok(_) => tally.verified += 1,
                    Err(VerifyError::NotImplied { .. }) => tally.bogus_step += 1,
                    Err(VerifyError::NotARefutation) => tally.not_a_refutation += 1,
                }
                tally.cases % 10 == 0
            };
            let target = target.as_ref();
            compare::<WatchedPropagator>(&f, &proof, target, PropagatorChoice::Watched, sweep, &tally)?;
            compare::<ArenaWatchedPropagator>(&f, &proof, target, PropagatorChoice::ArenaWatched, sweep, &tally)
        })();
        if let Err(e) = outcome {
            runner.fail(&e, &format!("{case:?}"));
        }
    }
    let tally = tally.into_inner();
    let counts = [
        tally.unit,
        tally.unit_under_root,
        tally.falsified_under_root,
        tally.empty_mid_proof,
        tally.empty_at_end,
        tally.tautology,
        tally.repeated_literal,
        tally.fresh_variable,
        tally.bogus_step,
        tally.root_conflict,
        tally.verified,
        tally.not_a_refutation,
        tally.target,
        tally.exhausted,
        tally.resumed,
    ];
    assert!(counts.iter().all(|&n| n > 0), "a feature went unexercised: {tally:?}");
}

/// The native checker as it stood before its procedures became walks on
/// the shared kernel (see the module docs for what differs).
mod reference {
    // kept whole, so parts of its API go unused here
    #![allow(dead_code)]

    use std::sync::atomic::AtomicBool;
    use std::sync::OnceLock;
    use std::time::Instant;

    use bcp::{
        Attach, BudgetedPropagation, ClauseRef, ClauseStore, Conflict, Fuel, Propagator, Reason,
        Stopped, WatchedPropagator,
    };
    use cnf::{Clause, CnfFormula, Lit, Var};

    use proofver::{
        formula_fingerprint, proof_fingerprint, Budget, CheckMode, Checkpoint, ConflictClauseProof,
        Harness, Outcome, Progress, UnsatCore, Verification, VerificationReport, VerifyError,
    };

    /// A clause's LRAT id, for the cone's hints.
    fn lrat_id(r: ClauseRef) -> u64 {
        r.index() as u64 + 1
    }

    /// Scratch for marking conflict cones: the variables the current pass
    /// has pulled in.
    #[derive(Debug)]
    pub struct Cone {
        seen: Vec<bool>,
        touched: Vec<Var>,
    }

    impl Cone {
        pub fn new(num_vars: usize) -> Self {
            Cone {
                seen: vec![false; num_vars],
                touched: Vec::new(),
            }
        }

        /// Grows the scratch to cover `num_vars` variables.
        pub fn ensure_vars(&mut self, num_vars: usize) {
            if self.seen.len() < num_vars {
                self.seen.resize(num_vars, false);
            }
        }

        /// Marks the conflict's cone: the conflicting clause and the reason
        /// of every trail literal it depends on. With `hints`, appends the
        /// cone as LRAT ids: the reasons in *forward* trail order (each is
        /// unit when replayed left to right), then the conflicting clause.
        ///
        /// One backward pass over the trail collects the cone: a trail
        /// literal's reason mentions only earlier ones, so no literal is
        /// pulled in after the pass has left it, and the pass stops once it
        /// has reached every variable pulled in.
        pub fn mark<P: Propagator>(
            &mut self,
            prop: &P,
            db: &P::Store,
            conflict: Conflict,
            marked: &mut [bool],
            mut hints: Option<&mut Vec<i64>>,
        ) {
            let Cone { seen, touched } = self;
            marked[conflict.clause.index()] = true;
            for &q in db.lits(conflict.clause) {
                if !seen[q.var().idx()] {
                    seen[q.var().idx()] = true;
                    touched.push(q.var());
                }
            }
            let cone_start = hints.as_ref().map_or(0, |h| h.len());
            let mut reached = 0;
            for &lit in prop.trail().iter().rev() {
                if reached == touched.len() {
                    break;
                }
                if !seen[lit.var().idx()] {
                    continue;
                }
                reached += 1;
                // assumption literals belong to the clause under test
                if let Reason::Propagated(c) = prop.reason(lit.var()) {
                    marked[c.index()] = true;
                    if let Some(hints) = hints.as_deref_mut() {
                        hints.push(lrat_id(c) as i64);
                    }
                    for &q in db.lits(c) {
                        if q != lit && !seen[q.var().idx()] {
                            seen[q.var().idx()] = true;
                            touched.push(q.var());
                        }
                    }
                }
            }
            if let Some(hints) = hints {
                hints[cone_start..].reverse();
                hints.push(lrat_id(conflict.clause) as i64);
            }
            for &v in touched.iter() {
                seen[v.idx()] = false;
            }
            touched.clear();
        }
    }


    enum CheckOutcome {
        Conflict(Conflict),
        Tautology,
        NoConflict,
    }

    /// What one budgeted worker (a parallel slice or the terminal check)
    /// reported back. Unlike a bare `Result`, an interrupted worker is kept
    /// distinct from a failed one, so resource exhaustion can never merge
    /// into a verdict.
    pub enum WorkerOutcome {
        /// Every assigned check completed.
        Done {
            /// Mark bitmap over the whole arena.
            marks: Vec<bool>,
            /// Number of checks performed.
            checked: usize,
            /// Fuel spent (propagations).
            propagations: u64,
            /// Fuel spent (clause visits).
            clause_visits: u64,
        },
        /// A check found evidence against the proof.
        Failed(VerifyError),
        /// The budget ran out or the run was cancelled mid-slice.
        Interrupted(Stopped),
    }

    /// Registry handles for the checker's metrics, resolved once and shared
    /// by all checker instances (including parallel workers).
    struct ObsHandles {
        checks: obs::metrics::Counter,
        check_ns: obs::metrics::Histogram,
        marking_passes: obs::metrics::Counter,
    }

    fn obs_handles() -> &'static ObsHandles {
        static HANDLES: OnceLock<ObsHandles> = OnceLock::new();
        HANDLES.get_or_init(|| ObsHandles {
            checks: obs::metrics::counter("proofver.checks"),
            check_ns: obs::metrics::histogram("proofver.check_ns"),
            marking_passes: obs::metrics::counter("proofver.marking_passes"),
        })
    }

    /// The proof checker, exposed for callers that want to reuse the arena
    /// across modes or inspect intermediate state.
    ///
    /// Generic over the BCP engine (watched over a header-table `ClauseDb`
    /// by default, or the arena-watched engine via
    /// [`Checker::with_engine`]); every engine produces identical verdicts,
    /// marks, and cores — only the propagation cost differs.
    #[derive(Debug)]
    pub struct Checker<'a, P: Propagator = WatchedPropagator> {
        formula: &'a CnfFormula,
        proof: &'a ConflictClauseProof,
        db: P::Store,
        prop: P,
        /// Unit clauses by arena index (they cannot be watched; each check
        /// enqueues the active ones explicitly).
        units: Vec<(ClauseRef, Lit)>,
        /// Empty clauses (immediate conflicts whenever active).
        empties: Vec<ClauseRef>,
        /// Marked clauses, indexed by arena position.
        marked: Vec<bool>,
        /// Scratch for the marking passes.
        cone: Cone,
        num_original: usize,
        /// The activity horizon, kept as deletions: the clauses at and
        /// above it are deleted.
        active_limit: usize,
    }

    impl<'a> Checker<'a> {
        /// Builds the checker arena with the default watched-literal engine:
        /// the original clauses first, then the conflict clauses in
        /// chronological order.
        #[must_use]
        pub fn new(formula: &'a CnfFormula, proof: &'a ConflictClauseProof) -> Self {
            Checker::with_engine(formula, proof)
        }
    }

    impl<'a, P: Propagator> Checker<'a, P> {
        /// Builds the checker arena over the engine `P`: the original
        /// clauses first, then the conflict clauses in chronological order.
        #[must_use]
        pub fn with_engine(formula: &'a CnfFormula, proof: &'a ConflictClauseProof) -> Self {
            let num_vars = formula
                .num_vars()
                .max(proof.max_var().map_or(0, |v| v.idx() + 1));
            let mut db = P::Store::new();
            let mut prop = P::new(num_vars);
            let mut units = Vec::new();
            let mut empties = Vec::new();

            // Only F is attached here; proof clauses are attached by the run
            // *after* the root propagation, so the lazy watch cleanup never
            // sees a proof clause while it is below the activity horizon it
            // will later rise above.
            for clause in formula.iter().chain(proof.iter()) {
                let learned = db.len() >= formula.num_clauses();
                let r = db.add_clause(clause.lits(), learned);
                if learned {
                    match db.clause_len(r) {
                        0 => empties.push(r),
                        1 => units.push((r, db.lits(r)[0])),
                        _ => {}
                    }
                } else {
                    match prop.attach_clause(&mut db, r) {
                        Attach::Watched => {}
                        Attach::Unit(l) => units.push((r, l)),
                        Attach::Empty => empties.push(r),
                    }
                }
            }

            let marked = vec![false; db.len()];
            let active_limit = db.len();
            Checker {
                formula,
                proof,
                db,
                prop,
                units,
                empties,
                marked,
                cone: Cone::new(num_vars),
                num_original: formula.num_clauses(),
                active_limit,
            }
        }

        /// Restricts the active set to the clauses below `limit`: the
        /// horizon's `set_active_limit(Some(limit))` as the same deletions.
        fn set_active_limit(&mut self, limit: usize) {
            for i in limit..self.active_limit {
                self.db.delete_clause(ClauseRef::from_index(i));
            }
            for i in self.active_limit..limit {
                self.db.undelete_clause(ClauseRef::from_index(i));
            }
            self.active_limit = limit;
        }

        /// Runs the selected verification procedure.
        ///
        /// # Errors
        ///
        /// See [`verify`].
        pub fn run(self, mode: CheckMode) -> Result<Verification, VerifyError> {
            self.run_with_target(mode, None)
        }

        /// Like [`Checker::run`], but instead of requiring the proof to
        /// derive a root conflict (the empty clause), requires it to derive
        /// `target`: the final check assumes `¬target` and must conflict.
        /// With `target = None` this is ordinary refutation checking.
        ///
        /// Both run the harnessed loop on an unlimited budget.
        ///
        /// # Errors
        ///
        /// See [`verify`]; [`VerifyError::NotARefutation`] here means the
        /// target clause is not derivable by BCP from `F ∪ F*`.
        pub fn run_with_target(
            self,
            mode: CheckMode,
            target: Option<&Clause>,
        ) -> Result<Verification, VerifyError> {
            match self.run_harnessed(mode, target, &Harness::default(), None) {
                Outcome::Verified(v) => Ok(v),
                Outcome::Rejected { error, .. } => Err(error),
                Outcome::Exhausted { reason, .. } => {
                    unreachable!("an unlimited budget cannot exhaust ({reason})")
                }
            }
        }

        fn finish(&mut self, num_checked: usize, start: Instant, fuel: &Fuel<'_>) -> Verification {
            let elapsed = start.elapsed();
            let core_indices: Vec<usize> =
                (0..self.num_original).filter(|&i| self.marked[i]).collect();
            let core = UnsatCore::new(core_indices, self.num_original);
            let marked_steps: Vec<bool> = (0..self.proof.len())
                .map(|i| self.marked[self.num_original + i])
                .collect();

            let report = VerificationReport {
                num_original: self.num_original,
                num_conflict_clauses: self.proof.len(),
                num_checked,
                proof_literals: self.proof.num_literals(),
                core_size: core.len(),
                verify_time: elapsed,
                propagations: fuel.used_propagations,
                clause_visits: fuel.used_clause_visits,
            };
            Verification { report, core, marked_steps }
        }

        /// Attaches one proof clause *after* the persistent root level is in
        /// place. Watched literals must be non-false, so the literals are
        /// reordered; a clause that is unit under the root assignments joins
        /// the per-check unit list (it may NOT extend the root trail — that
        /// would leak its consequence into checks of earlier clauses), and a
        /// clause falsified outright by root assignments acts like an empty
        /// clause for every check that has it active.
        fn attach_proof_clause(&mut self, r: ClauseRef) {
            if self.db.clause_len(r) < 2 {
                return; // units/empties were collected at construction
            }
            // classification must see only the persistent root assignments,
            // not a preceding check's assumptions
            self.prop.backtrack_to(0);
            let assignment = self.prop.assignment();
            let lits = self.db.lits_mut(r);
            lits.sort_by_key(|&l| assignment.lit_value(l) == cnf::LBool::False);
            let non_false = lits
                .iter()
                .filter(|&&l| assignment.lit_value(l) != cnf::LBool::False)
                .count();
            let first = lits[0];
            match non_false {
                0 => self.empties.push(r),
                1 => {
                    self.prop.attach_clause(&mut self.db, r);
                    self.units.push((r, first));
                }
                _ => {
                    self.prop.attach_clause(&mut self.db, r);
                }
            }
        }

        /// Attaches every proof clause: backward checking shrinks the active
        /// horizon monotonically, so all of `F*` can be watched up front
        /// (lazy cleanup sheds clauses as they are popped).
        fn attach_proof(&mut self) {
            for step in 0..self.proof.len() {
                self.attach_proof_clause(ClauseRef::from_index(self.num_original + step));
            }
        }

        /// The arena index below which the terminal check propagates: the
        /// whole of `F ∪ F*`, except a refutation's trailing empty clause,
        /// whose check the terminal check is.
        fn terminal_limit(&self, target: Option<&Clause>) -> usize {
            match self.proof.clauses().last() {
                Some(c) if c.is_empty() && target.is_none() => {
                    self.num_original + self.proof.len() - 1
                }
                _ => self.num_original + self.proof.len(),
            }
        }

        /// The paper's `Conflict_analysis` (§4): mark every clause of `F`
        /// and `F*` responsible for the conflict just found, by walking the
        /// deduced assignments in reverse order from the conflicting pair.
        fn mark_from_conflict(&mut self, conflict: Conflict) {
            let _span = obs::span!("proofver.mark");
            if obs::metrics::recording() {
                obs_handles().marking_passes.inc();
            }
            self.cone.mark(&self.prop, &self.db, conflict, &mut self.marked, None);
        }
    }

    /// The verification loop: budgeted, cancellable and resumable.
    ///
    /// Every propagation runs on metered [`Fuel`], checks happen at
    /// interruptible boundaries, and an interruption yields a
    /// [`Checkpoint`] instead of discarding the work done so far. An
    /// unlimited budget makes it the plain [`Checker::run`].
    ///
    /// Checkpoint discipline: marks and `num_checked` are updated only when
    /// a check *completes*; an interrupted check leaves no trace and is
    /// redone on resume. Checkpoints therefore always describe a state the
    /// uninterrupted run also passes through.
    impl<'a, P: Propagator> Checker<'a, P> {
        /// Runs `mode` under `harness`, from `resume` when given. With a
        /// `target`, the terminal check assumes `¬target` instead of
        /// requiring a root conflict; a checkpoint does not record the
        /// target, so a target run only ever gets an unlimited budget.
        pub fn run_harnessed(
            mut self,
            mode: CheckMode,
            target: Option<&Clause>,
            harness: &Harness,
            resume: Option<&Checkpoint>,
        ) -> Outcome {
            let start = Instant::now();
            let steps_total = self.proof.len();
            let budget = &harness.budget;

            // The arena is fully allocated by `Checker::new`, so the memory
            // cap is decidable up front.
            if self.arena_bytes() > budget.max_arena_bytes {
                return Outcome::Exhausted {
                    reason: proofver::ExhaustReason::Memory,
                    progress: Progress {
                        steps_checked: 0,
                        steps_total,
                        ..Progress::default()
                    },
                    checkpoint: None,
                };
            }

            let deadline = budget.timeout.map(|t| start + t);
            let mut fuel = Fuel {
                used_propagations: resume.map_or(0, |c| c.spent_propagations),
                used_clause_visits: resume.map_or(0, |c| c.spent_clause_visits),
                max_propagations: budget.max_propagations,
                max_clause_visits: budget.max_clause_visits,
                deadline,
                // the harness's cancellation flag is crate-private
                cancel: None,
            };

            let mut num_checked = resume.map_or(0, |c| c.num_checked);
            let mut terminal_done = resume.is_some_and(|c| c.terminal_done);
            let start_pos = resume.map_or(0, |c| c.next_pos);
            if let Some(ckpt) = resume {
                debug_assert_eq!(ckpt.marks.len(), self.marked.len());
                self.marked.copy_from_slice(&ckpt.marks);
            }

            // the target may mention variables beyond the formula's universe
            if let Some(v) = target.and_then(Clause::max_var) {
                self.prop.ensure_vars(v.idx() + 1);
                self.cone.ensure_vars(v.idx() + 1);
            }
            let target_assumptions: Vec<Lit> = target
                .map(|c| c.lits().iter().map(|&l| !l).collect())
                .unwrap_or_default();

            // Root level: the original formula is active in *every* check,
            // so its units and their propagation cascade are established
            // once, at decision level 0, and survive between checks — each
            // check then only pays for the assumptions and the conflict
            // clauses' contribution. Root propagation runs on every
            // (re)start and is charged against the budget like any other
            // work.
            match self.propagate_root_budgeted(&mut fuel) {
                Ok(None) => {}
                Ok(Some(conflict)) => {
                    // F conflicts by unit propagation alone: every check
                    // would conflict on this same cone, so nothing else
                    // needs testing.
                    self.mark_from_conflict(conflict);
                    return Outcome::Verified(self.finish(num_checked, start, &fuel));
                }
                Err(stopped) => {
                    return self.exhausted_outcome(
                        stopped,
                        mode,
                        terminal_done,
                        start_pos,
                        num_checked,
                        &fuel,
                        resume,
                    );
                }
            }

            // The terminal check: BCP over F ∪ F* under the negated target
            // (no assumptions for a refutation) must conflict. This subsumes
            // the paper's "mark the final conflicting pair" initialisation:
            // the clauses responsible for the conflict become the initial
            // marks. If a refutation proof ends with an explicit empty
            // clause, this is exactly its check.
            let terminal_limit = self.terminal_limit(target);

            // Pop F* in reverse chronological order (or walk it forward —
            // §3: for all-clause checking the order does not matter).
            // Forward checking grows the active horizon, which lazy cleanup
            // cannot tolerate — each clause is attached only after its own
            // check instead.
            let forward = mode == CheckMode::AllForward;
            let order: Vec<usize> = if forward {
                (0..steps_total).collect()
            } else {
                (0..steps_total).rev().collect()
            };

            if !forward {
                self.attach_proof();
                if !terminal_done {
                    match self.terminal_check(&target_assumptions, terminal_limit, &mut fuel) {
                        Ok(true) => terminal_done = true,
                        Ok(false) => {
                            return Outcome::Rejected {
                                step: None,
                                error: VerifyError::NotARefutation,
                            }
                        }
                        Err(stopped) => {
                            return self.exhausted_outcome(
                                stopped,
                                mode,
                                false,
                                start_pos,
                                num_checked,
                                &fuel,
                                resume,
                            )
                        }
                    }
                }
            } else {
                // Reconstruct forward-mode state: clauses visited before the
                // checkpoint are attached (their checks are already done).
                for &step in &order[..start_pos] {
                    let r = ClauseRef::from_index(self.num_original + step);
                    self.attach_proof_clause(r);
                }
            }

            for (pos, &step) in order.iter().enumerate().skip(start_pos) {
                let arena_index = self.num_original + step;
                let clause = &self.proof.clauses()[step];
                let skip = if clause.is_empty() && arena_index == terminal_limit {
                    // the terminal check covers exactly this clause's check
                    true
                } else {
                    // redundant conflict clauses are skipped in marked mode (§4)
                    mode == CheckMode::MarkedOnly && !self.marked[arena_index]
                };
                if !skip {
                    // An empty clause mid-proof has the empty falsifying
                    // assignment: BCP over the *preceding* clauses alone must
                    // already conflict.
                    let assumptions: Vec<Lit> =
                        clause.lits().iter().map(|&l| !l).collect();
                    match self.timed_check_budgeted(
                        &assumptions,
                        arena_index,
                        &mut fuel,
                    ) {
                        Ok(CheckOutcome::Conflict(conflict)) => {
                            num_checked += 1;
                            self.mark_from_conflict(conflict);
                        }
                        // A tautological conflict clause is trivially
                        // implied; no clause of F or F* was needed, nothing
                        // new marked.
                        Ok(CheckOutcome::Tautology) => num_checked += 1,
                        Ok(CheckOutcome::NoConflict) => {
                            return Outcome::Rejected {
                                step: Some(step),
                                error: VerifyError::NotImplied {
                                    step,
                                    clause: clause.clone(),
                                },
                            }
                        }
                        Err(stopped) => {
                            return self.exhausted_outcome(
                                stopped,
                                mode,
                                terminal_done,
                                pos,
                                num_checked,
                                &fuel,
                                resume,
                            )
                        }
                    }
                }
                if forward {
                    let r = ClauseRef::from_index(arena_index);
                    self.attach_proof_clause(r);
                }
            }

            if forward && !terminal_done {
                match self.terminal_check(&target_assumptions, terminal_limit, &mut fuel) {
                    Ok(true) => {}
                    Ok(false) => {
                        return Outcome::Rejected {
                            step: None,
                            error: VerifyError::NotARefutation,
                        }
                    }
                    Err(stopped) => {
                        return self.exhausted_outcome(
                            stopped,
                            mode,
                            false,
                            order.len(),
                            num_checked,
                            &fuel,
                            resume,
                        )
                    }
                }
            }

            Outcome::Verified(self.finish(num_checked, start, &fuel))
        }

        /// Checks the given steps under a private per-worker budget, with a
        /// shared deadline and cancellation flag. The parallel checker's
        /// worker body: panics (if any) are caught by the caller.
        pub fn check_steps_budgeted(
            mut self,
            mut steps: Vec<usize>,
            budget: &Budget,
            cancel: &AtomicBool,
            deadline: Option<Instant>,
            starved: bool,
        ) -> WorkerOutcome {
            let mut fuel = worker_fuel(budget, cancel, deadline, starved);
            match self.propagate_root_budgeted(&mut fuel) {
                Ok(None) => {}
                Ok(Some(conflict)) => {
                    self.mark_from_conflict(conflict);
                    return self.worker_done(0, &fuel);
                }
                Err(stopped) => return WorkerOutcome::Interrupted(stopped),
            }
            self.attach_proof();
            steps.sort_unstable_by(|a, b| b.cmp(a));
            let mut num_checked = 0usize;
            for step in steps {
                let clause = &self.proof.clauses()[step];
                let arena_index = self.num_original + step;
                let assumptions: Vec<Lit> =
                    clause.lits().iter().map(|&l| !l).collect();
                match self.timed_check_budgeted(&assumptions, arena_index, &mut fuel)
                {
                    Ok(CheckOutcome::Conflict(conflict)) => {
                        num_checked += 1;
                        self.mark_from_conflict(conflict);
                    }
                    Ok(CheckOutcome::Tautology) => num_checked += 1,
                    Ok(CheckOutcome::NoConflict) => {
                        return WorkerOutcome::Failed(VerifyError::NotImplied {
                            step,
                            clause: clause.clone(),
                        })
                    }
                    Err(stopped) => return WorkerOutcome::Interrupted(stopped),
                }
            }
            self.worker_done(num_checked, &fuel)
        }

        /// The terminal check alone, under a private budget, for the
        /// parallel checker.
        pub fn check_terminal_budgeted(
            mut self,
            budget: &Budget,
            cancel: &AtomicBool,
            deadline: Option<Instant>,
        ) -> WorkerOutcome {
            let mut fuel = worker_fuel(budget, cancel, deadline, false);
            match self.propagate_root_budgeted(&mut fuel) {
                Ok(None) => {}
                Ok(Some(conflict)) => {
                    self.mark_from_conflict(conflict);
                    return self.worker_done(0, &fuel);
                }
                Err(stopped) => return WorkerOutcome::Interrupted(stopped),
            }
            let terminal_limit = self.terminal_limit(None);
            self.attach_proof();
            match self.terminal_check(&[], terminal_limit, &mut fuel) {
                Ok(true) => self.worker_done(0, &fuel),
                Ok(false) => WorkerOutcome::Failed(VerifyError::NotARefutation),
                Err(stopped) => WorkerOutcome::Interrupted(stopped),
            }
        }

        fn worker_done(self, checked: usize, fuel: &Fuel<'_>) -> WorkerOutcome {
            WorkerOutcome::Done {
                marks: self.marked,
                checked,
                propagations: fuel.used_propagations,
                clause_visits: fuel.used_clause_visits,
            }
        }

        /// Size of the clause arena in bytes — what one engine copy costs,
        /// the unit of the [`Budget::max_arena_bytes`] cap.
        pub fn arena_bytes(&self) -> u64 {
            (self.db.arena_len() * std::mem::size_of::<Lit>()) as u64
        }

        /// The outcome of a run that stopped at a check boundary, with its
        /// checkpoint. A fresh run fingerprints its inputs here; a resumed
        /// run reuses the fingerprints of the checkpoint it was validated
        /// against.
        #[allow(clippy::too_many_arguments)]
        fn exhausted_outcome(
            &self,
            stopped: Stopped,
            mode: CheckMode,
            terminal_done: bool,
            next_pos: usize,
            num_checked: usize,
            fuel: &Fuel<'_>,
            resume: Option<&Checkpoint>,
        ) -> Outcome {
            let (formula_hash, proof_hash) = resume.map_or_else(
                || (formula_fingerprint(self.formula), proof_fingerprint(self.proof)),
                |c| (c.formula_hash, c.proof_hash),
            );
            Outcome::Exhausted {
                reason: stopped.into(),
                progress: Progress {
                    steps_checked: num_checked,
                    steps_total: self.proof.len(),
                    propagations: fuel.used_propagations,
                    clause_visits: fuel.used_clause_visits,
                },
                checkpoint: Some(Box::new(Checkpoint {
                    mode,
                    formula_hash,
                    formula_clauses: self.num_original,
                    proof_hash,
                    proof_clauses: self.proof.len(),
                    terminal_done,
                    next_pos,
                    num_checked,
                    spent_propagations: fuel.used_propagations,
                    spent_clause_visits: fuel.used_clause_visits,
                    marks: self.marked.clone(),
                })),
            }
        }

        /// The terminal check over the arena below `limit` under
        /// `assumptions`; marks its cone. `Ok(false)`: no conflict, so the
        /// proof derives neither the empty clause nor the target.
        fn terminal_check(
            &mut self,
            assumptions: &[Lit],
            limit: usize,
            fuel: &mut Fuel<'_>,
        ) -> Result<bool, Stopped> {
            Ok(match self.timed_check_budgeted(assumptions, limit, fuel)? {
                CheckOutcome::Conflict(conflict) => {
                    self.mark_from_conflict(conflict);
                    true
                }
                // a tautological target is implied with no clause involved
                CheckOutcome::Tautology => true,
                CheckOutcome::NoConflict => false,
            })
        }

        /// [`Checker::bcp_under_assumptions_budgeted`] with per-check
        /// telemetry: counts the check and records its duration when metric
        /// recording is on.
        fn timed_check_budgeted(
            &mut self,
            assumptions: &[Lit],
            limit: usize,
            fuel: &mut Fuel<'_>,
        ) -> Result<CheckOutcome, Stopped> {
            if !obs::metrics::recording() {
                return self.bcp_under_assumptions_budgeted(assumptions, limit, fuel);
            }
            let handles = obs_handles();
            let start = Instant::now();
            let outcome =
                self.bcp_under_assumptions_budgeted(assumptions, limit, fuel);
            handles.checks.inc();
            handles.check_ns.record(start.elapsed().as_nanos() as u64);
            outcome
        }

        /// One verification check on metered fuel: assume the given
        /// literals, enqueue the active unit clauses of `F*`, and propagate
        /// over the clauses with arena index `< limit`. `F`'s contribution
        /// persists at the root level from
        /// [`Checker::propagate_root_budgeted`]. `Err` means the budget ran
        /// out (or the run was cancelled) before the check could complete;
        /// the engine is left backtrackable but the check produced no
        /// verdict and must be redone.
        fn bcp_under_assumptions_budgeted(
            &mut self,
            assumptions: &[Lit],
            limit: usize,
            fuel: &mut Fuel<'_>,
        ) -> Result<CheckOutcome, Stopped> {
            // a previous check may have drained the fuel exactly; stop at the
            // boundary so the checkpoint lands between checks
            if let Some(stopped) = fuel.stop() {
                return Err(stopped);
            }
            self.set_active_limit(limit);
            // An active empty clause conflicts before any propagation.
            // (Empty clauses of F were handled by the root propagation.)
            if let Some(&r) = self.empties.iter().find(|r| r.index() < limit) {
                return Ok(CheckOutcome::Conflict(Conflict { clause: r }));
            }
            self.prop.backtrack_to(0);
            self.prop.push_level();
            for &l in assumptions {
                if !self.prop.assume(l) {
                    // ¬l is already true: either by an earlier assumption of
                    // this very check — the clause under test is a tautology,
                    // trivially implied with no clause involved — or by the
                    // persistent root propagation of F, in which case the
                    // falsifying assignment conflicts with ¬l's reason clause.
                    return Ok(match self.prop.reason(l.var()) {
                        Reason::Propagated(r) => {
                            CheckOutcome::Conflict(Conflict { clause: r })
                        }
                        _ => CheckOutcome::Tautology,
                    });
                }
            }
            for i in 0..self.units.len() {
                let (r, l) = self.units[i];
                if r.index() < self.num_original
                    || r.index() >= limit
                    || self.db.is_deleted(r)
                {
                    continue;
                }
                if let Err(conflict) = self.prop.enqueue_propagated(l, r) {
                    return Ok(CheckOutcome::Conflict(conflict));
                }
            }
            match self.prop.propagate_budgeted(&mut self.db, fuel) {
                BudgetedPropagation::Conflict(c) => Ok(CheckOutcome::Conflict(c)),
                BudgetedPropagation::Fixpoint => Ok(CheckOutcome::NoConflict),
                BudgetedPropagation::Interrupted(stopped) => Err(stopped),
            }
        }

        /// Establishes the permanent root level on metered fuel: the units
        /// of the original formula and everything they propagate through
        /// `F` alone. Returns a conflict if `F` refutes itself by
        /// propagation (including an empty clause in `F`).
        fn propagate_root_budgeted(
            &mut self,
            fuel: &mut Fuel<'_>,
        ) -> Result<Option<Conflict>, Stopped> {
            let _span = obs::span!("proofver.root_propagate");
            if let Some(stopped) = fuel.stop() {
                return Err(stopped);
            }
            self.set_active_limit(self.num_original);
            if let Some(&r) =
                self.empties.iter().find(|r| r.index() < self.num_original)
            {
                return Ok(Some(Conflict { clause: r }));
            }
            for i in 0..self.units.len() {
                let (r, l) = self.units[i];
                if r.index() >= self.num_original {
                    continue;
                }
                if let Err(conflict) = self.prop.enqueue_propagated(l, r) {
                    return Ok(Some(conflict));
                }
            }
            match self.prop.propagate_budgeted(&mut self.db, fuel) {
                BudgetedPropagation::Conflict(c) => Ok(Some(c)),
                BudgetedPropagation::Fixpoint => Ok(None),
                BudgetedPropagation::Interrupted(stopped) => Err(stopped),
            }
        }
    }

    /// Builds one worker's private fuel tank from the shared budget. The
    /// deterministic caps are per worker (each worker owns a private
    /// engine); the deadline and cancellation flag are shared.
    fn worker_fuel<'b>(
        budget: &Budget,
        cancel: &'b AtomicBool,
        deadline: Option<Instant>,
        starved: bool,
    ) -> Fuel<'b> {
        Fuel {
            used_propagations: 0,
            used_clause_visits: 0,
            max_propagations: if starved { 0 } else { budget.max_propagations },
            max_clause_visits: if starved { 0 } else { budget.max_clause_visits },
            deadline,
            cancel: Some(cancel),
        }
    }

    /// `verify_all_parallel_harnessed` on its fault-free path, as it
    /// stood: the terminal worker, then one thread per slice, merged.
    pub fn verify_all_parallel<P: Propagator>(
        formula: &CnfFormula,
        proof: &ConflictClauseProof,
        num_threads: usize,
    ) -> Outcome {
        let start = Instant::now();
        let num_threads = num_threads.max(1).min(proof.len().max(1));
        let budget = Budget::unlimited();
        let cancel = AtomicBool::new(false);
        let probe = Checker::<P>::with_engine(formula, proof);
        let mut spent_propagations = 0u64;
        let mut spent_clause_visits = 0u64;
        let terminal_marks = match probe.check_terminal_budgeted(&budget, &cancel, None) {
            WorkerOutcome::Done { marks, propagations, clause_visits, .. } => {
                spent_propagations += propagations;
                spent_clause_visits += clause_visits;
                marks
            }
            WorkerOutcome::Failed(error) => return Outcome::Rejected { step: error.step(), error },
            WorkerOutcome::Interrupted(_) => unreachable!("an unlimited budget cannot exhaust"),
        };
        let checkable = match proof.clauses().last() {
            Some(c) if c.is_empty() => proof.len() - 1,
            _ => proof.len(),
        };
        let chunk = checkable.div_ceil(num_threads).max(1);
        let slices: Vec<Vec<usize>> = (0..num_threads)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(checkable);
                (lo..hi.max(lo)).collect()
            })
            .filter(|s: &Vec<usize>| !s.is_empty())
            .collect();
        let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .iter()
                .map(|steps| {
                    let steps = steps.clone();
                    let (budget, cancel) = (&budget, &cancel);
                    scope.spawn(move || {
                        Checker::<P>::with_engine(formula, proof)
                            .check_steps_budgeted(steps, budget, cancel, None, false)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker")).collect()
        });
        let mut merged_marks = vec![false; formula.num_clauses() + proof.len()];
        let mut num_checked = 0usize;
        let mut worst: Option<VerifyError> = None;
        for outcome in outcomes {
            match outcome {
                WorkerOutcome::Done { marks, checked, propagations, clause_visits } => {
                    for (m, bit) in merged_marks.iter_mut().zip(&marks) {
                        *m |= *bit;
                    }
                    num_checked += checked;
                    spent_propagations += propagations;
                    spent_clause_visits += clause_visits;
                }
                WorkerOutcome::Failed(e) => {
                    let step_of = |err: &VerifyError| err.step().unwrap_or(0);
                    if worst.as_ref().is_none_or(|w| step_of(w) < step_of(&e)) {
                        worst = Some(e);
                    }
                }
                WorkerOutcome::Interrupted(_) => unreachable!("an unlimited budget cannot exhaust"),
            }
        }
        if let Some(error) = worst {
            return Outcome::Rejected { step: error.step(), error };
        }
        for (m, bit) in merged_marks.iter_mut().zip(&terminal_marks) {
            *m |= *bit;
        }
        let core_indices: Vec<usize> =
            (0..formula.num_clauses()).filter(|&i| merged_marks[i]).collect();
        let core = UnsatCore::new(core_indices, formula.num_clauses());
        let marked_steps: Vec<bool> = merged_marks[formula.num_clauses()..].to_vec();
        let report = VerificationReport {
            num_original: formula.num_clauses(),
            num_conflict_clauses: proof.len(),
            num_checked,
            proof_literals: proof.num_literals(),
            core_size: core.len(),
            verify_time: start.elapsed(),
            propagations: spent_propagations,
            clause_visits: spent_clause_visits,
        };
        Outcome::Verified(Verification { report, core, marked_steps })
    }
}
