//! Verification reports — the per-instance numbers behind Tables 1 and 2.

use std::fmt;
use std::time::Duration;

/// Aggregate statistics from a verification run.
#[derive(Clone, Debug, Default)]
pub struct VerificationReport {
    /// Clauses in the original formula (Table 1, "Number of clauses in
    /// the initial CNF").
    pub num_original: usize,
    /// Conflict clauses in the proof (Table 1, "All conflict clauses").
    pub num_conflict_clauses: usize,
    /// Conflict clauses actually checked — the marked ones under
    /// `Proof_verification2` (Table 1, "Tested").
    pub num_checked: usize,
    /// Total literals in the proof (Table 2, "Confl. clause proof size").
    pub proof_literals: usize,
    /// Clauses of the original formula in the unsatisfiable core
    /// (Table 1, "Unsatisfiable core").
    pub core_size: usize,
    /// Wall-clock verification time (Table 2, "Verification time").
    pub verify_time: Duration,
    /// Literals propagated (queue pops) across every check, the count
    /// [`crate::Budget::max_propagations`] caps: a sequential run that
    /// reports `P` exhausts under a cap of `P - 1`. Cumulative across the
    /// resumes of a checkpointed run; a parallel run sums its workers',
    /// each of which has the cap to itself.
    pub propagations: u64,
    /// Clause look-ups performed by the watched-literal engine, the count
    /// [`crate::Budget::max_clause_visits`] caps (diagnostic for the BCP
    /// ablation). Summed and carried across resumes like `propagations`.
    pub clause_visits: u64,
}

impl VerificationReport {
    /// Fraction of conflict clauses tested — Table 1's "Tested %".
    ///
    /// The paper reads this as "the coefficient of efficiency of the used
    /// SAT-solver, that is the share of deduced conflict clauses actually
    /// used in the proof of unsatisfiability".
    #[must_use]
    pub fn tested_fraction(&self) -> f64 {
        if self.num_conflict_clauses == 0 {
            0.0
        } else {
            self.num_checked as f64 / self.num_conflict_clauses as f64
        }
    }

    /// Whether two reports agree on everything except timing and
    /// engine-diagnostic fields.
    ///
    /// `verify_time` is wall-clock; `propagations` and `clause_visits`
    /// depend on watch-list history. The remaining fields — what was
    /// checked and what the core is — are the verification *result*.
    /// A resumed run need not match an uninterrupted one here: its fresh
    /// engine may find other conflicts, and so check and mark other
    /// clauses (see [`crate::resume_verification`] for what it does
    /// guarantee).
    #[must_use]
    pub fn semantically_eq(&self, other: &VerificationReport) -> bool {
        self.num_original == other.num_original
            && self.num_conflict_clauses == other.num_conflict_clauses
            && self.num_checked == other.num_checked
            && self.proof_literals == other.proof_literals
            && self.core_size == other.core_size
    }

    /// Fraction of original clauses in the core — Table 1's "Unsatisfiable
    /// core %".
    #[must_use]
    pub fn core_fraction(&self) -> f64 {
        if self.num_original == 0 {
            0.0
        } else {
            self.core_size as f64 / self.num_original as f64
        }
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verified {}/{} conflict clauses ({:.1}% tested) in {:.3}s; \
             core {}/{} clauses ({:.1}%)",
            self.num_checked,
            self.num_conflict_clauses,
            self.tested_fraction() * 100.0,
            self.verify_time.as_secs_f64(),
            self.core_size,
            self.num_original,
            self.core_fraction() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_guard_division_by_zero() {
        let r = VerificationReport::default();
        assert_eq!(r.tested_fraction(), 0.0);
        assert_eq!(r.core_fraction(), 0.0);
    }

    #[test]
    fn fractions_compute() {
        let r = VerificationReport {
            num_original: 10,
            num_conflict_clauses: 4,
            num_checked: 3,
            core_size: 5,
            ..VerificationReport::default()
        };
        assert!((r.tested_fraction() - 0.75).abs() < 1e-12);
        assert!((r.core_fraction() - 0.5).abs() < 1e-12);
        let text = r.to_string();
        assert!(text.contains("3/4"), "{text}");
        assert!(text.contains("5/10"), "{text}");
    }
}
