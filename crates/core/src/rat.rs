//! RAT-capable (DRAT-style) proof checking — the modern descendant of
//! the paper's conflict-clause proofs.
//!
//! A clause `C` has the *resolution asymmetric tautology* property on
//! its first literal `l` when, for every active clause `D` containing
//! `¬l`, the resolvent `C ∪ (D \ {¬l})` is RUP. RAT steps preserve
//! satisfiability (not logical equivalence), which admits techniques a
//! RUP-only proof cannot express — definition introduction, blocked
//! clause addition — and is exactly the extension the DRAT format added
//! on top of this paper's RUP checking.
//!
//! Checking is *forward* (RAT is order-sensitive): after `F`'s units
//! are propagated once at the kernel's root level, one loop over the
//! shared [`crate::kernel::Kernel`] checks each clause with
//! [`crate::kernel::Kernel::implied`] against the root and the clauses
//! before it, then attaches it to the active set. The native
//! [`crate::CheckMode::AllForward`] runs the same loop with RAT off.

use std::ops::Range;

use bcp::{ArenaWatchedPropagator, ClauseRef, ClauseStore, Fuel, Propagator};
use cnf::{Clause, CnfFormula, Lit};

use crate::error::VerifyError;
use crate::kernel::{Implied, Kernel, Stop};
use crate::proof::ConflictClauseProof;

/// Statistics of a successful DRAT check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DratStats {
    /// Steps accepted by plain reverse unit propagation.
    pub num_rup: usize,
    /// Steps that needed the RAT property.
    pub num_rat: usize,
    /// RUP sub-checks performed for RAT resolvents.
    pub num_resolvent_checks: usize,
}

/// Verifies a refutation that may contain RAT steps: every clause must
/// be RUP or RAT w.r.t. the clauses before it, and the formula plus the
/// whole proof must propagate to a conflict.
///
/// # Errors
///
/// * [`VerifyError::NotImplied`] — some clause is neither RUP nor RAT;
/// * [`VerifyError::NotARefutation`] — no contradiction is established.
///
/// # Examples
///
/// A definition-introduction step (a unit over a fresh variable is
/// vacuously RAT) followed by an ordinary refutation:
///
/// ```
/// use cnf::{Clause, CnfFormula};
/// use proofver::verify_drat;
///
/// let f = CnfFormula::from_dimacs_clauses(&[
///     vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2],
/// ]);
/// let proof = vec![
///     Clause::from_dimacs(&[9]),  // fresh variable: RAT, not RUP
///     Clause::from_dimacs(&[2]),
///     Clause::from_dimacs(&[-2]),
/// ].into();
/// let stats = verify_drat(&f, &proof)?;
/// assert_eq!(stats.num_rat, 1);
/// assert_eq!(stats.num_rup, 2);
/// # Ok::<(), proofver::VerifyError>(())
/// ```
pub fn verify_drat(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
) -> Result<DratStats, VerifyError> {
    check_forward(formula, proof, Some(&[]))
}

/// Checks the steps of `proof` (RUP-or-RAT, forward) without requiring
/// the result to be a refutation — useful for validating
/// satisfiability-preserving clause additions such as blocked clauses.
///
/// # Errors
///
/// [`VerifyError::NotImplied`] when some clause is neither RUP nor RAT.
pub fn check_drat_steps(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
) -> Result<DratStats, VerifyError> {
    check_forward(formula, proof, None)
}

/// Checks every step of `proof`, RUP first and then RAT on its first
/// literal, against `formula`'s root and the steps before it, then, with
/// `terminal`, the terminal check under the negated target it holds.
fn check_forward(
    formula: &CnfFormula,
    proof: &ConflictClauseProof,
    terminal: Option<&[Lit]>,
) -> Result<DratStats, VerifyError> {
    let num_vars = formula
        .num_vars()
        .max(proof.max_var().map_or(0, |v| v.idx() + 1));
    let mut kernel = Kernel::<ArenaWatchedPropagator>::with_occurrences(num_vars);
    for clause in formula.iter() {
        kernel.db.add_clause(clause.lits(), false);
    }
    for clause in proof.iter() {
        kernel.db.add_clause(clause.lits(), true);
    }
    kernel.marked = vec![false; kernel.db.len()];
    kernel.attach_live(0..formula.num_clauses());
    let mut fuel = Fuel::unlimited();
    // a root conflict leaves its clause falsified, so every check below
    // conflicts on it, as it would without a root
    kernel.propagate_root(&mut fuel).expect("unlimited fuel never runs out");
    let mut stats = DratStats::default();
    let steps = 0..proof.len();
    match walk_forward(&mut kernel, proof.clauses(), steps, true, terminal, &mut fuel, &mut stats) {
        Ok(_) => Ok(stats),
        Err(Stop::NotARefutation) => Err(VerifyError::NotARefutation),
        Err(Stop::NotImplied { step, clause }) => Err(VerifyError::NotImplied { step, clause }),
        Err(Stop::Interrupted { .. }) => unreachable!("unlimited fuel never runs out"),
    }
}

/// The forward walk over `kernel`, whose root is made and whose store
/// ends with the clauses of `proof`. Each step in `steps` is checked —
/// RUP, or with `rat` RAT on its first literal — against the root and
/// the steps before it; every step below `steps.end` is attached after
/// its check, or unchecked below `steps.start` (a resumed walk checked
/// those before). Then, with `terminal`, the terminal check runs under
/// the negated target it holds. Returns the number of checks.
pub(crate) fn walk_forward<P: Propagator>(
    kernel: &mut Kernel<P>,
    proof: &[Clause],
    steps: Range<usize>,
    rat: bool,
    terminal: Option<&[Lit]>,
    fuel: &mut Fuel<'_>,
    stats: &mut DratStats,
) -> Result<usize, Stop> {
    let first = kernel.db.len() - proof.len();
    for (step, clause) in proof[..steps.end].iter().enumerate() {
        if step >= steps.start {
            match kernel.implied(clause.lits(), rat, None, fuel, stats) {
                Implied::Yes => {}
                Implied::No => return Err(Stop::NotImplied { step, clause: clause.clone() }),
                Implied::Interrupted(stopped) => {
                    let num_checked = step - steps.start;
                    return Err(Stop::Interrupted { stopped, terminal_done: false, next: step, num_checked });
                }
            }
        }
        kernel.attach(ClauseRef::from_index(first + step));
    }
    let num_checked = steps.len();
    if let Some(target) = terminal {
        match kernel.refutes(target, None, fuel) {
            Ok(true) => {}
            Ok(false) => return Err(Stop::NotARefutation),
            Err(stopped) => {
                let next = proof.len();
                return Err(Stop::Interrupted { stopped, terminal_done: false, next, num_checked });
            }
        }
    }
    Ok(num_checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_square() -> CnfFormula {
        CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2]])
    }

    fn proof(clauses: &[Vec<i32>]) -> ConflictClauseProof {
        clauses.iter().map(|c| Clause::from_dimacs(c)).collect()
    }

    #[test]
    fn rup_proofs_remain_valid() {
        let p = proof(&[vec![2], vec![-2]]);
        let stats = verify_drat(&xor_square(), &p).expect("valid");
        assert_eq!(stats.num_rup, 2);
        assert_eq!(stats.num_rat, 0);
    }

    #[test]
    fn fresh_variable_definition_is_rat() {
        // a unit over a fresh variable has no ¬pivot occurrences: RAT
        // vacuously, but not RUP
        let p = proof(&[vec![9], vec![2], vec![-2]]);
        let stats = verify_drat(&xor_square(), &p).expect("valid");
        assert_eq!(stats.num_rat, 1);
        assert_eq!(stats.num_rup, 2);
        // the RUP-only checker rejects the same proof in all-mode
        assert!(crate::verify_all(&xor_square(), &p).is_err());
    }

    #[test]
    fn blocked_clause_is_rat_not_rup() {
        // F = (1∨2) ∧ (¬2∨3): the clause (¬2∨¬1) is blocked on ¬2 — its
        // only resolvent, with (1∨2), is the tautology (¬1∨1) — so it is
        // RAT, while plainly not RUP
        let f = CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-2, 3]]);
        let p = proof(&[vec![-2, -1]]);
        let stats = check_drat_steps(&f, &p).expect("RAT step accepted");
        assert_eq!(stats.num_rat, 1);
        assert!(stats.num_resolvent_checks >= 1);
        // …and it is genuinely not RUP
        assert!(crate::verify_all(&f, &p).is_err());
    }

    #[test]
    fn pivot_position_matters() {
        // the same clause written as (¬1∨¬2) pivots on ¬1, which has no
        // tautology shield: the resolvent with (1∨2) is (¬2∨2)… also a
        // tautology! pick a sharper case: (3∨¬1) pivots on 3 → resolvent
        // with nothing (no ¬3 in F∖{(¬2∨3)}? (¬2∨3) has 3, not ¬3) —
        // choose F with ¬3: add (¬3∨2). Then (3∨¬1): resolvent with
        // (¬3∨2) is (¬1∨2), not RUP → rejected; written as (¬1∨3) it
        // pivots on ¬1 (no occurrences of 1 besides (1∨2): resolvent
        // (3∨2), not RUP) → also rejected.
        let f = CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-3, 2]]);
        let p = proof(&[vec![3, -1]]);
        assert!(check_drat_steps(&f, &p).is_err());
    }

    #[test]
    fn bogus_clause_is_rejected_with_position() {
        // (¬2) against (1∨2) ∧ (¬1∨2): not RUP (assuming 2 propagates
        // nothing) and not RAT (the resolvent with (1∨2) is (1), which
        // is not RUP either… wait, it is: assume ¬1 → (¬1∨2)→2 →
        // (1∨2) satisfied — no. Check: assume ¬1: (1∨2)→2, (¬1∨2) sat:
        // no conflict → (1) not RUP ✓ rejected)
        let f = CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-1, 2]]);
        let p = proof(&[vec![-2]]);
        match check_drat_steps(&f, &p) {
            Err(VerifyError::NotImplied { step, .. }) => assert_eq!(step, 0),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn refutation_required_by_verify_drat() {
        let f = CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-2, 3]]);
        let p = proof(&[vec![-2, -1]]); // valid RAT step, but no refutation
        assert_eq!(
            verify_drat(&f, &p).expect_err("not a refutation"),
            VerifyError::NotARefutation
        );
    }

    #[test]
    fn steps_after_refutation_are_free() {
        let p = proof(&[vec![2], vec![-2], vec![], vec![77]]);
        let stats = verify_drat(&xor_square(), &p).expect("valid");
        assert_eq!(stats.num_rup, 4);
    }

    #[test]
    fn rat_uses_clauses_added_earlier_in_the_proof() {
        // (3∨1) is RAT only because the proof first adds (¬3∨2)… check
        // that occurrence lists include proof clauses: F has no ¬3
        // occurrence, so (3∨1) is vacuously RAT *before* the addition,
        // and after adding (¬3∨2) the resolvent (1∨2) must be checked.
        let f = CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-1, 2]]);
        let p = proof(&[vec![-3, 2], vec![3, 1]]);
        let stats = check_drat_steps(&f, &p).expect("accepted");
        assert!(stats.num_resolvent_checks >= 1, "{stats:?}");
    }
}
