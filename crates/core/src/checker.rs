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
//! The checker deliberately shares no search code with the solver: its
//! only nontrivial machinery is the watched-literal BCP engine, which the
//! paper argues is "well established" and stable enough to trust.

use std::sync::atomic::AtomicBool;
use std::sync::OnceLock;
use std::time::Instant;

use bcp::{
    Attach, BudgetedPropagation, ClauseRef, ClauseStore, Conflict, Fuel, Propagator, Reason,
    Stopped, WatchedPropagator,
};
use cnf::{Clause, CnfFormula, Lit};

use crate::core_extract::UnsatCore;
use crate::error::VerifyError;
use crate::harness::{
    formula_fingerprint, proof_fingerprint, Budget, Checkpoint, Harness, Outcome, Progress,
};
use crate::kernel::Cone;
use crate::proof::ConflictClauseProof;
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

enum CheckOutcome {
    Conflict(Conflict),
    Tautology,
    NoConflict,
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
        }
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
    pub(crate) fn run_harnessed(
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
                reason: crate::harness::ExhaustReason::Memory,
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
            cancel: Some(harness.cancel.flag()),
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
    pub(crate) fn check_steps_budgeted(
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
    pub(crate) fn check_terminal_budgeted(
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
    pub(crate) fn arena_bytes(&self) -> u64 {
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
        self.db.set_active_limit(Some(limit));
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
        self.db.set_active_limit(Some(self.num_original));
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
