//! Property tests for the RAT checker: cross-validated against
//! brute-force semantics of blocked clauses and satisfiability
//! preservation, and differentially against the forward checker it
//! replaced.

use cnf::{Clause, CnfFormula, Lit, Var};
use proofver::{check_drat_steps, verify_drat, ConflictClauseProof};
use proptest::prelude::*;

fn dimacs_lit(n: i32) -> impl Strategy<Value = i32> {
    (1..=n).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)])
}

fn formula_strategy(max_var: i32) -> impl Strategy<Value = CnfFormula> {
    prop::collection::vec(prop::collection::vec(dimacs_lit(max_var), 1..=3), 1..20)
        .prop_map(|cs| CnfFormula::from_dimacs_clauses(&cs))
}

/// Ground truth: `clause` is blocked on `pivot` w.r.t. `formula` when
/// every resolvent with a ¬pivot clause is tautologous.
fn is_blocked(formula: &CnfFormula, clause: &Clause, pivot: Lit) -> bool {
    formula.iter().all(|d| {
        if !d.contains(!pivot) {
            return true;
        }
        clause
            .lits()
            .iter()
            .any(|&x| x != pivot && d.contains(!x))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn blocked_clauses_are_always_accepted(
        f in formula_strategy(6),
        clause_names in prop::collection::vec(dimacs_lit(6), 1..4),
    ) {
        // put each candidate literal in pivot position and test only the
        // ones that are blocked by the brute-force definition
        let base = Clause::from_dimacs(&clause_names).normalized();
        if base.is_tautology() {
            return Ok(());
        }
        for (i, &pivot) in base.lits().iter().enumerate() {
            if !is_blocked(&f, &base, pivot) {
                continue;
            }
            // rotate the pivot to the front (DRAT pivots on lits[0])
            let mut lits = base.lits().to_vec();
            lits.swap(0, i);
            let proof = ConflictClauseProof::new(vec![Clause::new(lits)]);
            prop_assert!(
                check_drat_steps(&f, &proof).is_ok(),
                "blocked clause {} (pivot {}) rejected",
                base,
                pivot
            );
        }
    }

    #[test]
    fn accepted_steps_preserve_satisfiability(
        f in formula_strategy(6),
        clause_names in prop::collection::vec(dimacs_lit(6), 1..4),
    ) {
        // if the checker accepts [C], then SAT(F) ⇒ SAT(F ∧ C): adding
        // an accepted RAT/RUP clause never flips a SAT formula to UNSAT
        let clause = Clause::from_dimacs(&clause_names);
        let proof = ConflictClauseProof::new(vec![clause.clone()]);
        if check_drat_steps(&f, &proof).is_ok() && f.brute_force_satisfiable() {
            let mut extended = f.clone();
            extended.ensure_var(Var::new(5));
            extended.add_clause(clause.clone());
            prop_assert!(
                extended.brute_force_satisfiable(),
                "accepted step {} flipped a SAT formula to UNSAT",
                clause
            );
        }
    }

    #[test]
    fn drat_and_rup_agree_on_rup_only_proofs(
        f in formula_strategy(6),
    ) {
        // for solver-generated (RUP-only) proofs, acceptance must match
        if let Some(trace) =
            cdcl::solve(&f, cdcl::SolverConfig::default()).into_proof()
        {
            let proof = ConflictClauseProof::new(trace.clauses());
            let rup = proofver::verify(&f, &proof).is_ok();
            let drat = verify_drat(&f, &proof).is_ok();
            prop_assert_eq!(rup, drat, "checkers disagree on a solver proof");
        }
    }
}

/// One generated proof step, resolved against the clauses before it: the
/// formula's, then the earlier steps'.
#[derive(Clone, Debug)]
enum Step {
    /// The resolvent of two earlier clauses on the first literal of the
    /// first that clashes with the second, or their union when none
    /// does: RUP either way.
    Resolvent(usize, usize),
    /// An earlier clause with one more literal: RUP.
    Weakened(usize, i32),
    /// A clause that pivots on a fresh variable (7 or 8): RAT, vacuously
    /// until an earlier step contains the pivot's negation.
    Fresh(i32, Vec<i32>),
    /// Three steps defining `x ↔ a ∧ b` for `x` 7 or 8: `(¬x a)`,
    /// `(¬x b)`, then `(x ¬a ¬b)`, whose resolvents with the first two
    /// are tautologies — RAT with resolvent checks. A second definition
    /// of the same `x` is usually rejected.
    Definition(i32, i32, i32),
    /// Any clause: junk, or RUP or RAT by chance.
    Junk(Vec<i32>),
    /// The empty clause, mid-proof.
    Empty,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Resolvent(a, b)),
        2 => (any::<usize>(), dimacs_lit(6)).prop_map(|(a, l)| Step::Weakened(a, l)),
        2 => (
            prop_oneof![Just(7), Just(-7), Just(8), Just(-8)],
            prop::collection::vec(dimacs_lit(8), 0..3),
        )
            .prop_map(|(pivot, rest)| Step::Fresh(pivot, rest)),
        2 => (prop_oneof![Just(7), Just(8)], dimacs_lit(6), dimacs_lit(6))
            .prop_map(|(x, a, b)| Step::Definition(x, a, b)),
        1 => prop::collection::vec(dimacs_lit(6), 1..4).prop_map(Step::Junk),
        1 => Just(Step::Empty),
    ]
}

/// Formulas of mostly binary and ternary clauses that now and then hold
/// a unit or an empty clause.
fn formula_with_empties() -> impl Strategy<Value = CnfFormula> {
    let clause = prop_oneof![
        17 => prop::collection::vec(dimacs_lit(6), 2..=3),
        2 => prop::collection::vec(dimacs_lit(6), 1..=1),
        1 => Just(Vec::new()),
    ];
    prop::collection::vec(clause, 1..16).prop_map(|cs| CnfFormula::from_dimacs_clauses(&cs))
}

fn planned_proof(f: &CnfFormula, steps: &[Step], trailing_empty: bool) -> ConflictClauseProof {
    let mut earlier: Vec<Vec<i32>> = f
        .iter()
        .map(|c| c.lits().iter().map(|l| l.to_dimacs()).collect())
        .collect();
    let mut proof = Vec::new();
    for step in steps {
        let clauses: Vec<Vec<i32>> = match step {
            Step::Resolvent(a, b) => {
                let a = &earlier[a % earlier.len()];
                let b = &earlier[b % earlier.len()];
                let resolvent = match a.iter().find(|&&l| b.contains(&-l)) {
                    Some(&pivot) => a
                        .iter()
                        .filter(|&&l| l != pivot)
                        .chain(b.iter().filter(|&&l| l != -pivot))
                        .copied()
                        .collect(),
                    None => a.iter().chain(b).copied().collect(),
                };
                vec![resolvent]
            }
            Step::Weakened(a, l) => {
                let mut c = earlier[a % earlier.len()].clone();
                c.push(*l);
                vec![c]
            }
            Step::Fresh(pivot, rest) => vec![std::iter::once(*pivot)
                .chain(rest.iter().copied())
                .collect()],
            Step::Definition(x, a, b) => vec![vec![-x, *a], vec![-x, *b], vec![*x, -a, -b]],
            Step::Junk(c) => vec![c.clone()],
            Step::Empty => vec![Vec::new()],
        };
        for clause in clauses {
            proof.push(Clause::from_dimacs(&clause));
            earlier.push(clause);
        }
    }
    if trailing_empty {
        proof.push(Clause::from_dimacs(&[]));
    }
    ConflictClauseProof::new(proof)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn the_kernel_loop_matches_the_retired_checker(
        f in formula_with_empties(),
        steps in prop::collection::vec(step_strategy(), 0..12),
        trailing_empty in any::<bool>(),
    ) {
        // RUP, RAT and junk steps, with and without a closing empty
        // clause: the same stats, or the same error at the same step
        let proof = planned_proof(&f, &steps, trailing_empty);
        prop_assert_eq!(verify_drat(&f, &proof), reference::verify_drat(&f, &proof));
        prop_assert_eq!(check_drat_steps(&f, &proof), reference::check_drat_steps(&f, &proof));
    }
}

/// The forward RAT checker as it stood before it became a loop over the
/// shared kernel, kept verbatim (its two entry points and the checker
/// they built) as the reference the kernel loop must match.
mod reference {
    use bcp::{ClauseDb, ClauseRef, Conflict, Reason, WatchedPropagator};
    use cnf::{Clause, CnfFormula, LBool, Lit};
    use proofver::{ConflictClauseProof, DratStats, VerifyError};

    pub fn verify_drat(
        formula: &CnfFormula,
        proof: &ConflictClauseProof,
    ) -> Result<DratStats, VerifyError> {
        let mut checker = DratChecker::new(formula, proof);
        let stats = checker.check_steps(proof)?;
        if !checker.refuted && !checker.rup_holds(&[]) {
            return Err(VerifyError::NotARefutation);
        }
        Ok(stats)
    }

    pub fn check_drat_steps(
        formula: &CnfFormula,
        proof: &ConflictClauseProof,
    ) -> Result<DratStats, VerifyError> {
        DratChecker::new(formula, proof).check_steps(proof)
    }

    struct DratChecker {
        db: ClauseDb,
        prop: WatchedPropagator,
        /// unit clauses to enqueue per check
        units: Vec<(ClauseRef, Lit)>,
        /// occurrence lists over *all* literals of active clauses (needed to
        /// enumerate the ¬pivot clauses of a RAT check)
        occ: Vec<Vec<ClauseRef>>,
        /// the active set already contains a root contradiction
        refuted: bool,
    }

    enum Sub {
        Conflict,
        Vacuous,
        NoConflict,
    }

    impl DratChecker {
        fn new(formula: &CnfFormula, proof: &ConflictClauseProof) -> Self {
            let num_vars = formula
                .num_vars()
                .max(proof.max_var().map_or(0, |v| v.idx() + 1));
            let mut db = ClauseDb::new();
            let mut prop = WatchedPropagator::new(num_vars);
            let mut occ = vec![Vec::new(); 2 * num_vars];
            let mut units = Vec::new();
            let mut refuted = false;
            for clause in formula.iter() {
                let r = db.add_clause(clause.lits(), false);
                for &l in clause.lits() {
                    occ[l.idx()].push(r);
                }
                match db.clause_len(r) {
                    0 => refuted = true,
                    1 => units.push((r, db.lits(r)[0])),
                    _ => {
                        prop.attach_clause(&mut db, r);
                    }
                }
            }
            DratChecker { db, prop, units, occ, refuted }
        }

        fn check_steps(&mut self, proof: &ConflictClauseProof) -> Result<DratStats, VerifyError> {
            let mut stats = DratStats::default();
            for (step, clause) in proof.iter().enumerate() {
                if self.refuted {
                    // anything is derivable from a contradiction
                    stats.num_rup += 1;
                    self.append(clause);
                    continue;
                }
                if clause.is_empty() {
                    if self.rup_holds(&[]) {
                        self.refuted = true;
                        stats.num_rup += 1;
                        continue;
                    }
                    return Err(VerifyError::NotImplied { step, clause: clause.clone() });
                }
                let negated: Vec<Lit> = clause.lits().iter().map(|&l| !l).collect();
                if self.rup_holds(&negated) {
                    stats.num_rup += 1;
                } else if self.rat_holds(clause, &mut stats) {
                    stats.num_rat += 1;
                } else {
                    return Err(VerifyError::NotImplied { step, clause: clause.clone() });
                }
                self.append(clause);
            }
            Ok(stats)
        }

        /// RUP: do the assumptions propagate to a conflict?
        fn rup_holds(&mut self, assumptions: &[Lit]) -> bool {
            !matches!(self.sub_check(assumptions), Sub::NoConflict)
        }

        /// RAT on the clause's first literal.
        fn rat_holds(&mut self, clause: &Clause, stats: &mut DratStats) -> bool {
            let pivot = clause[0];
            // the resolvent is (C \ {pivot}) ∪ (D \ {¬pivot}) — the pivot
            // itself is resolved away
            let negated_rest: Vec<Lit> = clause
                .lits()
                .iter()
                .filter(|&&l| l != pivot)
                .map(|&l| !l)
                .collect();
            // collect first: sub-checks mutate watch lists
            let candidates: Vec<ClauseRef> = self.occ[(!pivot).idx()]
                .iter()
                .copied()
                .filter(|&r| !self.db.is_deleted(r))
                .collect();
            for d in candidates {
                stats.num_resolvent_checks += 1;
                let mut assumptions: Vec<Lit> = negated_rest.clone();
                for &l in self.db.lits(d) {
                    if l != !pivot {
                        assumptions.push(!l);
                    }
                }
                match self.sub_check(&assumptions) {
                    Sub::Conflict | Sub::Vacuous => {}
                    Sub::NoConflict => return false,
                }
            }
            true
        }

        /// One propagation check over the current active set.
        fn sub_check(&mut self, assumptions: &[Lit]) -> Sub {
            self.prop.backtrack_to(0);
            self.prop.push_level();
            for &l in assumptions {
                if self.prop.value(l) == LBool::False {
                    // clashing with an earlier assumption → the resolvent is
                    // tautologous (vacuously fine); clashing with a root
                    // propagation → a genuine conflict
                    return match self.prop.reason(l.var()) {
                        Reason::Propagated(_) => Sub::Conflict,
                        _ => Sub::Vacuous,
                    };
                }
                if self.prop.value(l) == LBool::Unassigned && !self.prop.assume(l) {
                    unreachable!("checked unassigned");
                }
            }
            for i in 0..self.units.len() {
                let (r, l) = self.units[i];
                if self.db.is_deleted(r) {
                    continue;
                }
                if self.prop.enqueue_propagated(l, r).is_err() {
                    return Sub::Conflict;
                }
            }
            match self.prop.propagate(&mut self.db) {
                Some(Conflict { .. }) => Sub::Conflict,
                None => Sub::NoConflict,
            }
        }

        /// Appends an accepted clause to the active set.
        fn append(&mut self, clause: &Clause) {
            self.prop.backtrack_to(0);
            // order literals so the watched pair is non-false at the root
            let mut lits: Vec<Lit> = clause.lits().to_vec();
            lits.sort_by_key(|&l| self.prop.value(l) == LBool::False);
            let non_false =
                lits.iter().filter(|&&l| self.prop.value(l) != LBool::False).count();
            let r = self.db.add_clause(&lits, true);
            for &l in &lits {
                self.occ[l.idx()].push(r);
            }
            match (lits.len(), non_false) {
                (0, _) | (_, 0) => self.refuted = true,
                (1, _) => {
                    self.units.push((r, lits[0]));
                    // keep the root trail saturated so later sub-checks see it
                    if self.prop.enqueue_propagated(lits[0], r).is_err()
                        || self.prop.propagate(&mut self.db).is_some()
                    {
                        self.refuted = true;
                    }
                }
                (_, 1) => {
                    self.prop.attach_clause(&mut self.db, r);
                    if self.prop.enqueue_propagated(lits[0], r).is_err()
                        || self.prop.propagate(&mut self.db).is_some()
                    {
                        self.refuted = true;
                    }
                }
                _ => {
                    self.prop.attach_clause(&mut self.db, r);
                }
            }
        }
    }
}
