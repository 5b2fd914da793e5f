//! Deletion-aware conflict-clause proofs.
//!
//! The paper notes (§2) that SAT solvers remove clauses "once in a
//! while", and its checker compensates by propagating over *all* of
//! `F*` — which, as §3 observes, can even accept proofs a buggy solver
//! produced by luck, and makes each BCP pass do more work than the
//! solver's own. Annotating the proof with the solver's deletion events
//! lets the checker mirror the solver's working set exactly. This is the
//! extension that the later DRUP format standardised (`d` lines).
//!
//! An [`AnnotatedProof`] is a sequence of [`ProofEvent`]s — clause
//! additions (conflict clauses, chronological) interleaved with
//! deletions (referring to earlier clauses, original or learned).
//! Verification is the backward DRAT walk of [`crate::drat`] on the
//! shared kernel: deletions encountered while walking back resurrect
//! their clause, additions deactivate and check theirs. Two rules set it
//! apart from DRAT: a deletion removes the clause its reference names,
//! not the most recent clause with its content, and every addition must
//! be RUP — there is no RAT fallback.

use bcp::{ClauseRef, Fuel, WatchedPropagator};
use cnf::{Clause, CnfFormula};

use crate::core_extract::UnsatCore;
use crate::drat::{BackwardWalk, Plan, WalkProof};
use crate::error::VerifyError;
use crate::kernel::Stop;

/// One event of an annotated proof.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofEvent {
    /// A conflict clause is added (a step of `F*`).
    Add(Clause),
    /// An earlier clause is deleted. `Original(i)` refers to the `i`-th
    /// clause of the formula; `Learned(j)` to the `j`-th added clause.
    Delete(ProofClauseRef),
}

/// A clause reference within an annotated proof.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ProofClauseRef {
    /// Index into the original formula.
    Original(usize),
    /// Index into the sequence of added clauses.
    Learned(usize),
}

/// A conflict-clause proof annotated with deletion events.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AnnotatedProof {
    events: Vec<ProofEvent>,
}

impl AnnotatedProof {
    /// Creates an annotated proof from its event sequence.
    ///
    /// # Panics
    ///
    /// Panics if a deletion refers to a clause not yet added, or deletes
    /// the same clause twice.
    #[must_use]
    pub fn new(events: Vec<ProofEvent>) -> Self {
        let mut added = 0usize;
        let mut deleted = std::collections::HashSet::new();
        for (i, e) in events.iter().enumerate() {
            match e {
                ProofEvent::Add(_) => added += 1,
                ProofEvent::Delete(r) => {
                    if let ProofClauseRef::Learned(j) = r {
                        assert!(*j < added, "event {i} deletes future clause {j}");
                    }
                    assert!(deleted.insert(*r), "event {i} deletes {r:?} twice");
                }
            }
        }
        AnnotatedProof { events }
    }

    /// The events, in chronological order.
    #[must_use]
    pub fn events(&self) -> &[ProofEvent] {
        &self.events
    }

    /// Number of added clauses.
    #[must_use]
    pub fn num_adds(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ProofEvent::Add(_)))
            .count()
    }

    /// Number of deletion events.
    #[must_use]
    pub fn num_deletes(&self) -> usize {
        self.events.len() - self.num_adds()
    }

    /// Verifies the proof against `formula` with deletion-aware
    /// `Proof_verification2` semantics: each added clause is checked
    /// (when marked) against exactly the clauses *live* at its addition
    /// point, and the marked original clauses form an unsatisfiable
    /// core.
    ///
    /// This is the backward DRAT walk ([`crate::verify_drat_backward`])
    /// with two differences: each deletion removes the clause its
    /// [`ProofClauseRef`] names — of two equal clauses, the one it
    /// refers to — and every addition must be RUP, with no RAT fallback.
    ///
    /// # Errors
    ///
    /// See [`crate::verify`]; additionally each check uses the smaller,
    /// deletion-accurate active set, so proofs that exploited deleted
    /// clauses are (correctly) rejected.
    ///
    /// # Panics
    ///
    /// Panics if a deletion names an original clause the formula does
    /// not have.
    pub fn verify(
        &self,
        formula: &CnfFormula,
    ) -> Result<AnnotatedVerification, VerifyError> {
        let mut walk = BackwardWalk::<WatchedPropagator, _>::new(formula, self, false);
        for event in &self.events {
            match *event {
                ProofEvent::Add(ref clause) => {
                    walk.add(clause);
                }
                ProofEvent::Delete(ProofClauseRef::Original(i)) => {
                    assert!(
                        i < formula.num_clauses(),
                        "delete of out-of-range original clause {i}"
                    );
                    walk.delete(ClauseRef::from_index(i));
                }
                ProofEvent::Delete(ProofClauseRef::Learned(j)) => {
                    walk.delete(walk.added_ref(j));
                }
            }
        }
        match walk.run(&Plan::refutation(self.num_adds()), &mut Fuel::unlimited()) {
            Ok(walked) => Ok(AnnotatedVerification {
                core: walk.core(),
                num_checked: walked.num_checked,
                marked_adds: walk.marked_adds(),
            }),
            Err(Stop::NotImplied { step, clause }) => Err(VerifyError::NotImplied { step, clause }),
            Err(Stop::NotARefutation) => Err(VerifyError::NotARefutation),
            Err(Stop::Interrupted { .. }) => unreachable!("unlimited fuel never runs out"),
        }
    }
}

impl WalkProof for AnnotatedProof {
    fn num_steps(&self) -> usize {
        self.events.len()
    }

    fn added(&self, pos: usize) -> Option<&Clause> {
        match &self.events[pos] {
            ProofEvent::Add(clause) => Some(clause),
            ProofEvent::Delete(_) => None,
        }
    }
}

/// The result of a successful [`AnnotatedProof::verify`].
#[derive(Clone, Debug)]
pub struct AnnotatedVerification {
    /// The unsatisfiable core of the original formula.
    pub core: UnsatCore,
    /// Added clauses actually checked.
    pub num_checked: usize,
    /// For each *add* event (in order), whether it was marked. A
    /// trailing empty clause, the claim itself, stays unmarked.
    pub marked_adds: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_square() -> CnfFormula {
        CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-1, -2], vec![1, -2], vec![-1, 2]])
    }

    fn add(names: &[i32]) -> ProofEvent {
        ProofEvent::Add(Clause::from_dimacs(names))
    }

    #[test]
    fn plain_proof_verifies_with_no_deletions() {
        let proof = AnnotatedProof::new(vec![add(&[2]), add(&[-2])]);
        let v = proof.verify(&xor_square()).expect("valid");
        assert_eq!(v.core.len(), 4);
        assert_eq!(v.num_checked, 2);
        assert_eq!(proof.num_adds(), 2);
        assert_eq!(proof.num_deletes(), 0);
    }

    #[test]
    fn deleted_clause_is_unavailable_to_later_checks() {
        // (2) is added then deleted; (−2)'s check may not use it, and
        // the terminal propagation over the live set lacks the pair —
        // the proof fails as a refutation…
        let proof = AnnotatedProof::new(vec![
            add(&[2]),
            ProofEvent::Delete(ProofClauseRef::Learned(0)),
            add(&[-2]),
        ]);
        // live set at the end: F + (−2); BCP: ¬2 → (1,2)→1 →(−1,2) conflict
        // so the refutation still completes — deletion of (2) is harmless
        let v = proof.verify(&xor_square()).expect("valid");
        assert!(v.num_checked >= 1);
    }

    #[test]
    fn check_uses_live_set_at_addition_point() {
        // Clause (3) is RUP only *with* the learned (2) alive:
        //   assume ¬3 with unit (2): (¬2∨3∨5) → 5, (¬2∨3∨¬5) → conflict;
        //   assume ¬3 over F alone: every clause keeps ≥2 free literals,
        //   so propagation stalls and there is no conflict.
        let f = CnfFormula::from_dimacs_clauses(&[
            vec![1, 2],
            vec![-1, 2],
            vec![-2, 3, 5],
            vec![-2, 3, -5],
            vec![-2, -3, 6],
            vec![-2, -3, -6],
        ]);
        let proof_ok = AnnotatedProof::new(vec![add(&[2]), add(&[3])]);
        proof_ok.verify(&f).expect("valid without deletion");

        let events_bad = vec![
            add(&[2]),
            ProofEvent::Delete(ProofClauseRef::Learned(0)),
            add(&[3]), // no longer RUP: (2) is gone at this point
            add(&[2]), // re-add so the terminal check still conflicts
        ];
        let proof_bad = AnnotatedProof::new(events_bad);
        let err = proof_bad.verify(&f).expect_err("deleted dependency");
        match err {
            VerifyError::NotImplied { step, .. } => assert_eq!(step, 1),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn deleting_original_clauses_is_supported() {
        // delete an F clause that the proof does not need
        let mut f = xor_square();
        f.add_dimacs_clause(&[5, 6]); // irrelevant
        let proof = AnnotatedProof::new(vec![
            ProofEvent::Delete(ProofClauseRef::Original(4)),
            add(&[2]),
            add(&[-2]),
        ]);
        let v = proof.verify(&f).expect("valid");
        assert!(!v.core.contains(4));
    }

    #[test]
    #[should_panic(expected = "deletes future clause")]
    fn forward_deletion_rejected() {
        let _ = AnnotatedProof::new(vec![ProofEvent::Delete(ProofClauseRef::Learned(0))]);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_deletion_rejected() {
        let _ = AnnotatedProof::new(vec![
            add(&[1]),
            ProofEvent::Delete(ProofClauseRef::Learned(0)),
            ProofEvent::Delete(ProofClauseRef::Learned(0)),
        ]);
    }

    #[test]
    fn truncated_annotated_proof_is_rejected() {
        let proof = AnnotatedProof::new(vec![add(&[1, 2])]);
        assert_eq!(
            proof.verify(&xor_square()).expect_err("no refutation"),
            VerifyError::NotARefutation
        );
    }
}
