//! The conflict-clause proof verification procedures.
//!
//! This module implements §3 (`Proof_verification1`) and §4
//! (`Proof_verification2`) of the paper. Both view `F*` as a
//! chronologically ordered stack of conflict clauses and pop clauses off
//! the top: to check a clause `C` with falsifying assignment `R`, run
//! `BCP((F ∪ F*) | R)` — where `F*` is what remains below `C` on the
//! stack — and require a conflict. `Proof_verification2` additionally
//! *marks* the clauses responsible for each conflict, skips unmarked
//! (redundant) conflict clauses, and extracts an unsatisfiable core of
//! `F` from the marks.
//!
//! Both are walks on the checking kernel every clausal walk shares
//! ([`crate::kernel`]), which keeps `F`'s units at a root level:
//! the backward walk of [`crate::drat`] over the proof as a
//! deletion-free proof, with mark skipping off for `Proof_verification1`
//! and on for `Proof_verification2`, and popping a clause off the stack
//! is the walk retiring it. The chronological [`CheckMode::AllForward`]
//! is the forward loop of [`crate::rat`] with RAT off.
//!
//! The checker deliberately shares no search code with the solver: its
//! only nontrivial machinery is the watched-literal BCP engine, which the
//! paper argues is "well established" and stable enough to trust.

use std::ops::Range;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use bcp::{Fuel, Propagator, Stopped, WatchedPropagator};
use cnf::{Clause, CnfFormula, Lit};

use crate::core_extract::UnsatCore;
use crate::drat::{BackwardWalk, Plan, WalkProof};
use crate::error::VerifyError;
use crate::harness::{
    formula_fingerprint, proof_fingerprint, Budget, Checkpoint, ExhaustReason, Harness, Outcome,
    Progress,
};
use crate::kernel::Stop;
use crate::proof::ConflictClauseProof;
use crate::rat::{walk_forward, DratStats};
use crate::report::VerificationReport;

/// Which verification procedure to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CheckMode {
    /// `Proof_verification1`: check every conflict clause, newest first.
    All,
    /// `Proof_verification2`: check only clauses marked as contributing
    /// to the final conflict (the default — strictly less work, same
    /// guarantee for the refutation).
    #[default]
    MarkedOnly,
    /// Check every conflict clause in *chronological* order — the paper's
    /// §3 remark that "if one checks the correctness of all the clauses
    /// of F*, the order in which clauses are processed does not matter".
    /// Accepts and rejects exactly the same proofs as [`CheckMode::All`];
    /// marking (and thus the core) can differ, since conflict cones are
    /// discovered in a different order.
    AllForward,
}

/// The successful result of a verification run.
#[derive(Clone, Debug)]
pub struct Verification {
    /// Aggregate statistics (Table 1 / Table 2 inputs).
    pub report: VerificationReport,
    /// The unsatisfiable core of the original formula (§4).
    pub core: UnsatCore,
    /// For each proof step, whether it was marked as contributing to the
    /// refutation — the input to proof trimming.
    pub marked_steps: Vec<bool>,
}

/// Verifies `proof` against `formula` with `Proof_verification2`
/// (marking + core extraction).
///
/// # Errors
///
/// * [`VerifyError::NotImplied`] — some checked conflict clause is not
///   derivable by BCP from the clauses preceding it; the error pinpoints
///   the clause.
/// * [`VerifyError::NotARefutation`] — the formula plus the complete
///   proof does not propagate to a conflict, so unsatisfiability was
///   never established.
///
/// # Examples
///
/// ```
/// use cnf::{Clause, CnfFormula};
/// use proofver::verify;
///
/// let f = CnfFormula::from_dimacs_clauses(&[
///     vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2],
/// ]);
/// // a valid conflict-clause proof: (¬x2 from clauses 2,1), then units
/// let proof = vec![
///     Clause::from_dimacs(&[2]),
///     Clause::from_dimacs(&[-2]),
/// ].into();
/// let result = verify(&f, &proof)?;
/// assert_eq!(result.core.len(), 4);
/// # Ok::<(), proofver::VerifyError>(())
/// ```
pub fn verify(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
) -> Result<Verification, VerifyError> {
    Checker::new(formula, proof).run(CheckMode::MarkedOnly)
}

/// Verifies `proof` against `formula` with `Proof_verification1`
/// (every clause is checked; marking still runs so a core is produced).
///
/// # Errors
///
/// See [`verify`].
pub fn verify_all(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
) -> Result<Verification, VerifyError> {
    Checker::new(formula, proof).run(CheckMode::All)
}

/// Verifies that `F ∪ F* ⊨ target`: each conflict clause of `proof` is
/// checked as in [`verify`], and the *target* clause takes the place of
/// the final refutation — its negation, propagated over the formula plus
/// the whole proof, must conflict.
///
/// This is the building block for checking answers of *incremental*
/// queries (solving under assumptions): an UNSAT-under-assumptions
/// answer comes with a clause over the failed assumptions, which is
/// exactly such a target.
///
/// # Errors
///
/// See [`verify`]; `NotARefutation` means the target is not derivable.
///
/// # Examples
///
/// ```
/// use cnf::{Clause, CnfFormula};
/// use proofver::verify_implication;
///
/// // F = (¬1 ∨ 2) ∧ (¬2 ∨ 3): F ⊨ (¬1 ∨ 3)
/// let f = CnfFormula::from_dimacs_clauses(&[vec![-1, 2], vec![-2, 3]]);
/// let target = Clause::from_dimacs(&[-1, 3]);
/// let v = verify_implication(&f, &Default::default(), &target)?;
/// assert_eq!(v.core.len(), 2);
/// # Ok::<(), proofver::VerifyError>(())
/// ```
pub fn verify_implication(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
    target: &Clause,
) -> Result<Verification, VerifyError> {
    Checker::new(formula, proof).run_with_target(CheckMode::MarkedOnly, Some(target))
}

/// What one budgeted worker (a parallel slice or the terminal check)
/// reported back. Unlike a bare `Result`, an interrupted worker is kept
/// distinct from a failed one, so resource exhaustion can never merge
/// into a verdict.
pub(crate) enum WorkerOutcome {
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

/// A native proof is a deletion-free proof: every step adds its clause.
impl WalkProof for ConflictClauseProof {
    fn num_steps(&self) -> usize {
        self.len()
    }

    fn added(&self, pos: usize) -> Option<&Clause> {
        Some(&self.clauses()[pos])
    }
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
    walk: BackwardWalk<'a, P, ConflictClauseProof>,
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
        Checker { formula, proof, walk: BackwardWalk::native(formula, proof) }
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

    fn finish(&self, num_checked: usize, start: Instant, fuel: &Fuel<'_>) -> Verification {
        let core = self.walk.core();
        let report = VerificationReport {
            num_original: self.formula.num_clauses(),
            num_conflict_clauses: self.proof.len(),
            num_checked,
            proof_literals: self.proof.num_literals(),
            core_size: core.len(),
            verify_time: start.elapsed(),
            propagations: fuel.used_propagations,
            clause_visits: fuel.used_clause_visits,
        };
        Verification { report, core, marked_steps: self.walk.marked_adds() }
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
    pub(crate) fn run_harnessed(
        mut self,
        mode: CheckMode,
        target: Option<&Clause>,
        harness: &Harness,
        resume: Option<&Checkpoint>,
    ) -> Outcome {
        let start = Instant::now();
        let steps_total = self.proof.len();
        // The arena is fully allocated by `Checker::new`, so the memory
        // cap is decidable up front.
        if self.arena_bytes() > harness.budget.max_arena_bytes {
            return Outcome::Exhausted {
                reason: ExhaustReason::Memory,
                progress: Progress { steps_total, ..Progress::default() },
                checkpoint: None,
            };
        }
        let spent = resume.map_or((0, 0), |c| (c.spent_propagations, c.spent_clause_visits));
        let mut fuel = harness.fuel(start, spent);
        let checked = resume.map_or(0, |c| c.num_checked);
        let next_pos = resume.map_or(0, |c| c.next_pos);
        let terminal = !resume.is_some_and(|c| c.terminal_done);
        if let Some(ckpt) = resume {
            self.walk.kernel.marked.copy_from_slice(&ckpt.marks);
        }
        // the target may mention variables beyond the formula's universe
        if let Some(v) = target.and_then(Clause::max_var) {
            self.walk.kernel.ensure_vars(v.idx() + 1);
        }
        let negated: Option<Vec<Lit>> = target.map(|c| c.lits().iter().map(|&l| !l).collect());
        let target = negated.as_deref();
        let walked = if mode == CheckMode::AllForward {
            self.forward(terminal, target, next_pos, &mut fuel)
        } else {
            // Pop F* in reverse chronological order; with the walk's
            // `checks` ending below the checkpoint's position, a resumed
            // walk retires the steps it checked before
            let all = mode == CheckMode::All;
            let plan = Plan { terminal, target, checks: 0..steps_total - next_pos, all };
            self.walk.run(&plan, &mut fuel).map(|walked| walked.num_checked)
        };
        match walked {
            Ok(num_checked) => Outcome::Verified(self.finish(checked + num_checked, start, &fuel)),
            Err(Stop::NotARefutation) => {
                Outcome::Rejected { step: None, error: VerifyError::NotARefutation }
            }
            Err(Stop::NotImplied { step, clause }) => {
                Outcome::Rejected { step: Some(step), error: VerifyError::NotImplied { step, clause } }
            }
            Err(Stop::Interrupted { stopped, terminal_done, next, num_checked }) => {
                // the backward walk resumes below `next`, the forward
                // walk at it
                let next_pos = if mode == CheckMode::AllForward { next } else { steps_total - next };
                let cursor = (terminal_done, next_pos, checked + num_checked);
                self.exhausted(stopped, mode, cursor, &fuel, resume)
            }
        }
    }

    /// The chronological walk ([`CheckMode::AllForward`]): `F`'s root,
    /// then the forward loop with RAT off from step `from`, and the
    /// terminal check unless a resumed run passed it. A refutation's
    /// trailing empty clause is the claim the terminal check
    /// establishes, so it is neither checked nor attached.
    fn forward(
        &mut self,
        terminal: bool,
        target: Option<&[Lit]>,
        from: usize,
        fuel: &mut Fuel<'_>,
    ) -> Result<usize, Stop> {
        let kernel = &mut self.walk.kernel;
        match kernel.propagate_root(fuel) {
            // F refutes itself by propagation
            Ok(true) => return Ok(0),
            Ok(false) => {}
            Err(stopped) => {
                let terminal_done = !terminal;
                return Err(Stop::Interrupted { stopped, terminal_done, next: from, num_checked: 0 });
            }
        }
        let proof = self.proof.clauses();
        let end = match proof.last() {
            Some(c) if c.is_empty() && target.is_none() => proof.len() - 1,
            _ => proof.len(),
        };
        let terminal = terminal.then_some(target.unwrap_or(&[]));
        walk_forward(kernel, proof, from..end, false, terminal, fuel, &mut DratStats::default())
    }

    /// Checks the steps `steps` under a private per-worker budget, with
    /// a shared deadline and cancellation flag: the parallel checker's
    /// worker body, which checks every step of its slice. Panics (if
    /// any) are caught by the caller.
    pub(crate) fn check_steps_budgeted(
        self,
        steps: Range<usize>,
        budget: &Budget,
        cancel: &AtomicBool,
        deadline: Option<Instant>,
        starved: bool,
    ) -> WorkerOutcome {
        let plan = Plan { terminal: false, target: None, checks: steps, all: true };
        self.run_worker(&plan, worker_fuel(budget, cancel, deadline, starved))
    }

    /// The terminal check alone, under a private budget, for the
    /// parallel checker.
    pub(crate) fn check_terminal_budgeted(
        self,
        budget: &Budget,
        cancel: &AtomicBool,
        deadline: Option<Instant>,
    ) -> WorkerOutcome {
        let end = self.proof.len();
        let plan = Plan { terminal: true, target: None, checks: end..end, all: true };
        self.run_worker(&plan, worker_fuel(budget, cancel, deadline, false))
    }

    fn run_worker(mut self, plan: &Plan<'_>, mut fuel: Fuel<'_>) -> WorkerOutcome {
        match self.walk.run(plan, &mut fuel) {
            Ok(walked) => WorkerOutcome::Done {
                marks: self.walk.kernel.marked,
                checked: walked.num_checked,
                propagations: fuel.used_propagations,
                clause_visits: fuel.used_clause_visits,
            },
            Err(Stop::NotARefutation) => WorkerOutcome::Failed(VerifyError::NotARefutation),
            Err(Stop::NotImplied { step, clause }) => {
                WorkerOutcome::Failed(VerifyError::NotImplied { step, clause })
            }
            Err(Stop::Interrupted { stopped, .. }) => WorkerOutcome::Interrupted(stopped),
        }
    }

    /// Size of the clause arena in bytes — what one engine copy costs,
    /// the unit of the [`Budget::max_arena_bytes`] cap.
    pub(crate) fn arena_bytes(&self) -> u64 {
        self.walk.arena_bytes()
    }

    /// The outcome of a run that stopped at a check boundary, with its
    /// checkpoint at `cursor` (whether the terminal check completed, the
    /// next position and the checks completed). A fresh run
    /// fingerprints its inputs here; a resumed run reuses the
    /// fingerprints of the checkpoint it was validated against.
    fn exhausted(
        &self,
        stopped: Stopped,
        mode: CheckMode,
        (terminal_done, next_pos, num_checked): (bool, usize, usize),
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
                formula_clauses: self.formula.num_clauses(),
                proof_hash,
                proof_clauses: self.proof.len(),
                terminal_done,
                next_pos,
                num_checked,
                spent_propagations: fuel.used_propagations,
                spent_clause_visits: fuel.used_clause_visits,
                marks: self.walk.kernel.marked.clone(),
            })),
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

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Clause;

    fn f(clauses: &[Vec<i32>]) -> CnfFormula {
        CnfFormula::from_dimacs_clauses(clauses)
    }

    fn proof(clauses: &[Vec<i32>]) -> ConflictClauseProof {
        clauses.iter().map(|c| Clause::from_dimacs(c)).collect()
    }

    /// The XOR square: (1∨2)(−1∨−2)(1∨−2)(−1∨2) — UNSAT.
    fn xor_square() -> CnfFormula {
        f(&[vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2]])
    }

    #[test]
    fn accepts_final_pair_proof() {
        // BCP check of (2): assume ¬2; clauses (1∨2) → 1, (−1∨2) → conflict.
        let p = proof(&[vec![2], vec![-2]]);
        let v = verify(&xor_square(), &p).expect("valid proof");
        assert_eq!(v.report.num_checked, 2);
        assert_eq!(v.core.len(), 4, "all four clauses are needed");
    }

    #[test]
    fn accepts_empty_clause_terminal() {
        let p = proof(&[vec![2], vec![-2], vec![]]);
        let v = verify(&xor_square(), &p).expect("valid proof");
        assert!(v.marked_steps[0] && v.marked_steps[1]);
    }

    #[test]
    fn rejects_underivable_clause() {
        // (3) is not implied by the xor square (x3 unconstrained)
        let p = proof(&[vec![3], vec![2], vec![-2]]);
        let err = verify_all(&xor_square(), &p).expect_err("bogus step");
        match err {
            VerifyError::NotImplied { step, clause } => {
                assert_eq!(step, 0);
                assert_eq!(clause, Clause::from_dimacs(&[3]));
            }
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn verify2_skips_redundant_clause_that_verify1_rejects() {
        // (3) is bogus (x3 is unconstrained) but also redundant: it can
        // propagate nothing used in deriving the final pair, so verify2
        // never checks it, while verify1 checks and rejects it.
        // Note x3 appears in no other clause, so the unit (3) stays
        // outside every conflict cone.
        let p = proof(&[vec![3], vec![2], vec![-2]]);
        let v = verify(&xor_square(), &p).expect("marked-only run skips (3)");
        assert_eq!(v.report.num_checked, 2);
        assert!(!v.marked_steps[0]);
        assert!(verify_all(&xor_square(), &p).is_err());
    }

    #[test]
    fn rejects_non_refutation() {
        // (1 ∨ 2) adds no unit, so F ∪ F* propagates nothing: no conflict
        let p = proof(&[vec![1, 2]]);
        assert_eq!(
            verify(&xor_square(), &p).expect_err("no refutation"),
            VerifyError::NotARefutation
        );
        // empty proof over a satisfiable formula
        let sat = f(&[vec![1, 2]]);
        assert_eq!(
            verify(&sat, &ConflictClauseProof::default()).expect_err("sat"),
            VerifyError::NotARefutation
        );
    }

    #[test]
    fn single_unit_proof_refutes_by_propagation_alone() {
        // (2) together with F already propagates to a conflict, so the
        // terminal check succeeds without an explicit pair — the
        // generalisation of the paper's final-conflicting-pair rule.
        let p = proof(&[vec![2]]);
        let v = verify(&xor_square(), &p).expect("valid refutation");
        assert_eq!(v.report.num_checked, 1);
    }

    #[test]
    fn empty_proof_ok_when_formula_conflicts_at_root() {
        let trivial = f(&[vec![1], vec![-1]]);
        let v = verify(&trivial, &ConflictClauseProof::default()).expect("root conflict");
        assert_eq!(v.core.len(), 2);
        assert_eq!(v.report.num_checked, 0);
    }

    #[test]
    fn empty_clause_in_formula_gives_empty_core_check() {
        let mut formula = f(&[vec![1, 2]]);
        formula.add_clause(Clause::empty());
        let v = verify(&formula, &ConflictClauseProof::default()).expect("trivial");
        // the empty clause itself is the core
        assert_eq!(v.core.indices(), &[1]);
    }

    #[test]
    fn core_excludes_untouched_clauses() {
        // xor square + an irrelevant clause (3 ∨ 4)
        let mut formula = xor_square();
        formula.add_dimacs_clause(&[3, 4]);
        let p = proof(&[vec![2], vec![-2]]);
        let v = verify(&formula, &p).expect("valid");
        assert_eq!(v.core.len(), 4);
        assert!(!v.core.contains(4), "(3∨4) is not in the core");
    }

    #[test]
    fn duplicate_unit_conflict_clauses_are_fine() {
        let p = proof(&[vec![2], vec![2], vec![-2]]);
        // second (2) is redundant but harmless; terminal pair is (2),(−2)
        let v = verify(&xor_square(), &p).expect("valid");
        assert!(v.report.num_checked >= 2);
    }

    #[test]
    fn longer_derivation_chain() {
        // php(2): 3 pigeons, 2 holes
        let formula = f(&[
            vec![1, 2],
            vec![3, 4],
            vec![5, 6],
            vec![-1, -3],
            vec![-1, -5],
            vec![-3, -5],
            vec![-2, -4],
            vec![-2, -6],
            vec![-4, -6],
        ]);
        // hand-built RUP refutation for php(2)
        let p = proof(&[vec![-1, -4], vec![-1], vec![-3], vec![5], vec![]]);
        // check each by hand reasoning:
        //   (¬1∨¬4): assume 1,4 → ¬3(4),¬5(5? from ¬1∨¬5 needs 1) …
        let v = verify(&formula, &p);
        assert!(v.is_ok(), "{v:?}");
    }

    #[test]
    fn tautological_proof_clause_is_accepted() {
        let mut p = proof(&[vec![2, -2]]); // tautology: trivially implied
        p.push(Clause::from_dimacs(&[2]));
        p.push(Clause::from_dimacs(&[-2]));
        let v = verify_all(&xor_square(), &p);
        assert!(v.is_ok(), "{v:?}");
    }

    #[test]
    fn proof_clause_over_fresh_variable_extends_engine() {
        // conflict clause mentioning a variable absent from F: weird but
        // legal as long as the check conflicts (x9 ∨ 2 is RUP here: assume
        // ¬x9, ¬2 → clauses (1∨2) → 1 → (−1∨2) conflict).
        let p = proof(&[vec![9, 2], vec![2], vec![-2]]);
        let v = verify_all(&xor_square(), &p);
        assert!(v.is_ok(), "{v:?}");
    }

    #[test]
    fn proof_clauses_unit_under_root_assignments_propagate() {
        // Regression found by the deep soak: F's unit (5) is propagated
        // into the persistent root level; the proof's binary clauses
        // (¬6∨¬5) and (6∨¬5) are attached *afterwards* and are unit
        // under that root assignment — they must still participate in
        // the check of (¬5). (Duplicated literals in F exercise the
        // degenerate watched pairs as well.)
        let formula = f(&[vec![-6, -6, -5], vec![6, 6, -5], vec![5]]);
        let p = proof(&[vec![-6, -5], vec![6, -5], vec![-5], vec![]]);
        let v = verify_all(&formula, &p);
        assert!(v.is_ok(), "{v:?}");
        let v = verify(&formula, &p);
        assert!(v.is_ok(), "{v:?}");
        use crate::checker::CheckMode;
        let v = Checker::new(&formula, &p).run(CheckMode::AllForward);
        assert!(v.is_ok(), "{v:?}");
    }

    #[test]
    fn harnessed_unlimited_matches_plain_verify() {
        use crate::harness::{verify_harnessed, Harness};
        let p = proof(&[vec![2], vec![-2]]);
        let plain = verify(&xor_square(), &p).expect("valid");
        let outcome = verify_harnessed(
            &xor_square(),
            &p,
            CheckMode::MarkedOnly,
            &Harness::default(),
        );
        let v = outcome.verified().expect("verified");
        assert!(v.report.semantically_eq(&plain.report));
        assert_eq!(v.core.indices(), plain.core.indices());
        assert_eq!(v.marked_steps, plain.marked_steps);
    }

    #[test]
    fn harnessed_rejection_carries_the_step() {
        use crate::harness::{verify_harnessed, Harness, Outcome};
        let p = proof(&[vec![3], vec![2], vec![-2]]);
        match verify_harnessed(&xor_square(), &p, CheckMode::All, &Harness::default()) {
            Outcome::Rejected { step, error } => {
                assert_eq!(step, Some(0));
                assert_eq!(error.step(), Some(0));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let sat = proof(&[vec![1, 2]]);
        match verify_harnessed(&xor_square(), &sat, CheckMode::All, &Harness::default()) {
            Outcome::Rejected { step: None, error } => {
                assert_eq!(error, VerifyError::NotARefutation);
            }
            other => panic!("expected NotARefutation, got {other:?}"),
        }
    }

    #[test]
    fn tiny_budget_exhausts_and_never_reaches_a_verdict() {
        use crate::harness::{
            verify_harnessed, Budget, ExhaustReason, Harness, Outcome,
        };
        // valid proof AND a bogus proof: both must report Exhausted under
        // a starved budget — never Verified, never Rejected
        for clauses in [vec![vec![2], vec![-2]], vec![vec![3], vec![-3]]] {
            let p = proof(&clauses);
            let harness =
                Harness::with_budget(Budget::unlimited().max_propagations(0));
            match verify_harnessed(&xor_square(), &p, CheckMode::All, &harness) {
                Outcome::Exhausted { reason, progress, checkpoint } => {
                    assert_eq!(reason, ExhaustReason::Propagations);
                    assert_eq!(progress.steps_checked, 0);
                    assert!(checkpoint.is_some());
                }
                other => panic!("starved budget must exhaust, got {other:?}"),
            }
        }
    }

    #[test]
    fn cancellation_exhausts_immediately() {
        use crate::harness::{
            verify_harnessed, ExhaustReason, Harness, Outcome,
        };
        let p = proof(&[vec![2], vec![-2]]);
        let harness = Harness::default();
        harness.cancel.cancel();
        match verify_harnessed(&xor_square(), &p, CheckMode::MarkedOnly, &harness) {
            Outcome::Exhausted { reason, .. } => {
                assert_eq!(reason, ExhaustReason::Cancelled);
            }
            other => panic!("cancelled run must exhaust, got {other:?}"),
        }
    }

    #[test]
    fn memory_cap_exhausts_without_checkpoint() {
        use crate::harness::{
            verify_harnessed, Budget, ExhaustReason, Harness, Outcome,
        };
        let p = proof(&[vec![2], vec![-2]]);
        let harness =
            Harness::with_budget(Budget::unlimited().max_arena_bytes(1));
        match verify_harnessed(&xor_square(), &p, CheckMode::MarkedOnly, &harness) {
            Outcome::Exhausted { reason, checkpoint, .. } => {
                assert_eq!(reason, ExhaustReason::Memory);
                assert!(checkpoint.is_none(), "nothing to resume from");
            }
            other => panic!("expected memory exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_resume_reaches_the_uninterrupted_report() {
        use crate::harness::{
            resume_verification, verify_harnessed, Budget, Harness, Outcome,
        };
        // php(2) gives the checker enough work to interrupt mid-run
        let formula = f(&[
            vec![1, 2],
            vec![3, 4],
            vec![5, 6],
            vec![-1, -3],
            vec![-1, -5],
            vec![-3, -5],
            vec![-2, -4],
            vec![-2, -6],
            vec![-4, -6],
        ]);
        let p = proof(&[vec![-1, -4], vec![-1], vec![-3], vec![5], vec![]]);
        for mode in [CheckMode::All, CheckMode::MarkedOnly, CheckMode::AllForward] {
            let uninterrupted =
                verify_harnessed(&formula, &p, mode, &Harness::default());
            let expected = uninterrupted.verified().expect("valid proof");
            // walk the budget up from zero: every interruption point must
            // resume to the same semantic report
            let mut resumed_runs = 0usize;
            for cap in 0..200 {
                let harness = Harness::with_budget(
                    Budget::unlimited().max_propagations(cap),
                );
                let ckpt = match verify_harnessed(&formula, &p, mode, &harness) {
                    Outcome::Exhausted { checkpoint, .. } => {
                        checkpoint.expect("budget stop is resumable")
                    }
                    Outcome::Verified(v) => {
                        assert!(
                            v.report.semantically_eq(&expected.report),
                            "cap {cap} verified with a different report"
                        );
                        break; // caps beyond this finish too
                    }
                    other => panic!("cap {cap}: unexpected {other:?}"),
                };
                let resumed = resume_verification(
                    &formula,
                    &p,
                    &ckpt,
                    &Harness::default(),
                )
                .expect("checkpoint matches inputs");
                let v = resumed.verified().unwrap_or_else(|| {
                    panic!("cap {cap}: resume must verify")
                });
                assert!(
                    v.report.semantically_eq(&expected.report),
                    "cap {cap} ({mode:?}): resumed {:?} != {:?}",
                    v.report,
                    expected.report
                );
                assert_eq!(v.core.indices(), expected.core.indices(), "cap {cap}");
                assert_eq!(v.marked_steps, expected.marked_steps, "cap {cap}");
                resumed_runs += 1;
            }
            assert!(resumed_runs > 3, "budget walk exercised resumption ({mode:?})");
        }
    }

    /// The php(2) refutation, enough work to interrupt mid-run.
    fn php2() -> (CnfFormula, ConflictClauseProof) {
        let formula = f(&[
            vec![1, 2],
            vec![3, 4],
            vec![5, 6],
            vec![-1, -3],
            vec![-1, -5],
            vec![-3, -5],
            vec![-2, -4],
            vec![-2, -6],
            vec![-4, -6],
        ]);
        (formula, proof(&[vec![-1, -4], vec![-1], vec![-3], vec![5], vec![]]))
    }

    #[test]
    fn reported_propagations_are_the_ones_the_budget_counts() {
        use crate::harness::{
            verify_harnessed, Budget, ExhaustReason, Harness, Outcome,
        };
        let (formula, p) = php2();
        for mode in [CheckMode::MarkedOnly, CheckMode::All, CheckMode::AllForward] {
            let v = Checker::new(&formula, &p).run(mode).expect("valid proof");
            let spent = v.report.propagations;
            assert!(spent > 1, "{mode:?} propagates");
            let capped = |cap| {
                verify_harnessed(
                    &formula,
                    &p,
                    mode,
                    &Harness::with_budget(Budget::unlimited().max_propagations(cap)),
                )
            };
            match capped(spent - 1) {
                Outcome::Exhausted { reason, progress, .. } => {
                    assert_eq!(reason, ExhaustReason::Propagations, "{mode:?}");
                    assert_eq!(progress.propagations, spent - 1, "{mode:?}");
                }
                other => panic!("{mode:?}: {spent} propagations fit in fewer: {other:?}"),
            }
            let within = capped(spent + 1);
            let w = within
                .verified()
                .unwrap_or_else(|| panic!("{mode:?}: {spent} propagations fit in more"));
            assert_eq!(w.report.propagations, spent, "{mode:?}");
            assert_eq!(w.report.clause_visits, v.report.clause_visits, "{mode:?}");
            assert_eq!(w.marked_steps, v.marked_steps, "{mode:?}");
        }
    }

    #[test]
    fn an_exhausted_run_fingerprints_its_inputs_and_resumes() {
        use crate::harness::{
            formula_fingerprint, proof_fingerprint, resume_verification,
            verify_harnessed, Budget, Harness, Outcome,
        };
        let (formula, p) = php2();
        let expected = verify(&formula, &p).expect("valid proof");
        let stop = Harness::with_budget(Budget::unlimited().max_propagations(3));
        let Outcome::Exhausted { checkpoint: Some(ckpt), .. } =
            verify_harnessed(&formula, &p, CheckMode::MarkedOnly, &stop)
        else {
            panic!("three propagations cannot finish php(2)");
        };
        assert_eq!(ckpt.formula_hash, formula_fingerprint(&formula));
        assert_eq!(ckpt.proof_hash, proof_fingerprint(&p));
        // a resumed run that stops again hands the same fingerprints on
        let again = Harness::with_budget(Budget::unlimited().max_propagations(4));
        let Ok(Outcome::Exhausted { checkpoint: Some(next), .. }) =
            resume_verification(&formula, &p, &ckpt, &again)
        else {
            panic!("one more propagation cannot finish php(2)");
        };
        assert_eq!((next.formula_hash, next.proof_hash), (ckpt.formula_hash, ckpt.proof_hash));
        let resumed = resume_verification(&formula, &p, &next, &Harness::default())
            .expect("checkpoint matches inputs");
        let v = resumed.verified().expect("the resumed run verifies");
        assert!(v.report.semantically_eq(&expected.report));
        assert_eq!(v.core.indices(), expected.core.indices());
        assert_eq!(v.marked_steps, expected.marked_steps);
    }

    #[test]
    fn resume_rejects_mismatched_inputs() {
        use crate::harness::{
            resume_verification, verify_harnessed, Budget, CheckpointError,
            Harness, Outcome,
        };
        let p = proof(&[vec![2], vec![-2]]);
        let harness =
            Harness::with_budget(Budget::unlimited().max_propagations(1));
        let ckpt = match verify_harnessed(&xor_square(), &p, CheckMode::All, &harness)
        {
            Outcome::Exhausted { checkpoint, .. } => checkpoint.expect("ckpt"),
            other => panic!("expected exhaustion, got {other:?}"),
        };
        // different formula, same clause count
        let other = f(&[vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, -2]]);
        assert_eq!(
            resume_verification(&other, &p, &ckpt, &Harness::default())
                .expect_err("mismatch"),
            CheckpointError::Mismatch("formula fingerprint")
        );
        // different proof length
        let longer = proof(&[vec![2], vec![-2], vec![]]);
        assert_eq!(
            resume_verification(&xor_square(), &longer, &ckpt, &Harness::default())
                .expect_err("mismatch"),
            CheckpointError::Mismatch("proof clause count")
        );
        // a marks bitmap one clause short of the inputs
        let mut short = ckpt.clone();
        short.marks.pop();
        assert!(matches!(
            resume_verification(&xor_square(), &p, &short, &Harness::default()),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn report_counts_are_consistent() {
        let p = proof(&[vec![2], vec![-2]]);
        let v = verify(&xor_square(), &p).expect("valid");
        assert_eq!(v.report.num_conflict_clauses, 2);
        assert_eq!(v.report.num_original, 4);
        assert_eq!(v.report.proof_literals, 2);
        assert_eq!(v.report.core_size, v.core.len());
        assert!(v.report.tested_fraction() > 0.99);
    }
}
