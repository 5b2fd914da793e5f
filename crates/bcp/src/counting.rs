//! A counting-based BCP engine (the pre-Chaff scheme), kept as the
//! ablation baseline for the paper's §6 observation that watched literals
//! are especially effective on the long clauses of a conflict-clause
//! proof.
//!
//! Every literal keeps an occurrence list; every clause keeps a count of
//! falsified literals and of satisfying assignments. Assigning a literal
//! touches *every* clause containing either polarity — `O(occurrences)`
//! per assignment, against the watched scheme's near-constant work.

use cnf::{Assignment, LBool, Lit};

use crate::clause_db::{ClauseDb, ClauseRef};
use crate::propagator::Conflict;

/// A counting-based propagation engine with the same observable
/// behaviour as [`WatchedPropagator`](crate::WatchedPropagator): given
/// the same decisions, it derives the same forced assignments and
/// reports a conflict in the same situations (possibly blaming a
/// different, equally falsified clause).
///
/// # Examples
///
/// ```
/// use bcp::{ClauseDb, CountingPropagator};
/// use cnf::{CnfFormula, Lit};
///
/// let f = CnfFormula::from_dimacs_clauses(&[vec![-1, 2], vec![-2, 3]]);
/// let mut db = ClauseDb::from_formula(&f);
/// let mut p = CountingPropagator::new(f.num_vars());
/// p.attach_all(&db);
/// p.decide(Lit::from_dimacs(1));
/// assert!(p.propagate(&db).is_none());
/// assert!(p.assignment().is_true(Lit::from_dimacs(3)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct CountingPropagator {
    assignment: Assignment,
    /// occ[lit.code()] = clauses containing lit.
    occ: Vec<Vec<ClauseRef>>,
    /// per clause: number of literals currently false.
    false_count: Vec<u32>,
    /// per clause: number of literals currently true.
    true_count: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    num_clause_visits: u64,
}

impl CountingPropagator {
    /// Creates an engine over `num_vars` variables.
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        CountingPropagator {
            assignment: Assignment::new(num_vars),
            occ: vec![Vec::new(); 2 * num_vars],
            false_count: Vec::new(),
            true_count: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            num_clause_visits: 0,
        }
    }

    /// Builds occurrence lists and counters for every clause currently in
    /// `db`. Must be called on an empty trail.
    ///
    /// # Panics
    ///
    /// Panics if assignments exist already.
    pub fn attach_all(&mut self, db: &ClauseDb) {
        assert!(self.trail.is_empty(), "attach_all requires an empty trail");
        self.false_count = vec![0; db.len()];
        self.true_count = vec![0; db.len()];
        for lists in &mut self.occ {
            lists.clear();
        }
        for r in db.refs() {
            for &l in db.lits(r) {
                self.occ[l.idx()].push(r);
            }
        }
    }

    /// The current partial assignment.
    #[inline]
    #[must_use]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The value of a literal.
    #[inline]
    #[must_use]
    pub fn value(&self, lit: Lit) -> LBool {
        self.assignment.lit_value(lit)
    }

    /// The current decision level.
    #[inline]
    #[must_use]
    pub fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Number of clauses visited by propagation so far.
    #[inline]
    #[must_use]
    pub fn num_clause_visits(&self) -> u64 {
        self.num_clause_visits
    }

    /// Makes a decision: opens a new level and assigns `lit` true.
    ///
    /// # Panics
    ///
    /// Panics if `lit` is already assigned.
    pub fn decide(&mut self, lit: Lit) {
        assert!(self.assignment.is_unassigned(lit), "decision on assigned literal");
        self.trail_lim.push(self.trail.len());
        self.assignment.assign(lit);
        self.trail.push(lit);
    }

    /// Enqueues root-level unit clauses; see
    /// [`WatchedPropagator::enqueue_propagated`](crate::WatchedPropagator::enqueue_propagated).
    ///
    /// # Errors
    ///
    /// Returns the conflict if `lit` is already false.
    pub fn enqueue_unit(&mut self, lit: Lit, cref: ClauseRef) -> Result<(), Conflict> {
        match self.value(lit) {
            LBool::True => Ok(()),
            LBool::False => Err(Conflict { clause: cref }),
            LBool::Unassigned => {
                self.assignment.assign(lit);
                self.trail.push(lit);
                Ok(())
            }
        }
    }

    /// Runs propagation to fixpoint; returns the first conflict found.
    pub fn propagate(&mut self, db: &ClauseDb) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            // Clauses satisfied by lit.
            for i in 0..self.occ[lit.idx()].len() {
                let r = self.occ[lit.idx()][i];
                self.true_count[r.index()] += 1;
            }
            // Clauses in which !lit just went false.
            let mut forced: Vec<(Lit, ClauseRef)> = Vec::new();
            for i in 0..self.occ[(!lit).idx()].len() {
                let r = self.occ[(!lit).idx()][i];
                self.false_count[r.index()] += 1;
                if db.is_deleted(r) {
                    continue;
                }
                self.num_clause_visits += 1;
                let len = db.clause_len(r) as u32;
                if self.true_count[r.index()] > 0 {
                    continue;
                }
                if self.false_count[r.index()] == len {
                    self.flush_counts(i + 1, lit);
                    return Some(Conflict { clause: r });
                }
                if self.false_count[r.index()] == len - 1 {
                    let unit = db
                        .lits(r)
                        .iter()
                        .copied()
                        .find(|&l| self.assignment.is_unassigned(l));
                    if let Some(u) = unit {
                        forced.push((u, r));
                    }
                }
            }
            for (u, _r) in forced {
                if self.assignment.is_false(u) {
                    // falsified by a sibling propagation in this batch;
                    // the conflict will surface when u's clause is counted
                    continue;
                }
                if self.assignment.is_unassigned(u) {
                    self.assignment.assign(u);
                    self.trail.push(u);
                }
            }
        }
        None
    }

    /// Brings the counters up to date with the whole trail after a
    /// conflict cut propagation short: finishes the occurrence list of
    /// the literal being processed (from `next_occ` onward) and counts
    /// every trail literal not yet dequeued. Keeps the invariant that
    /// counters reflect exactly the trail, which [`Self::backtrack_to`]
    /// relies on when it undoes them.
    fn flush_counts(&mut self, next_occ: usize, lit: Lit) {
        for i in next_occ..self.occ[(!lit).idx()].len() {
            let r = self.occ[(!lit).idx()][i];
            self.false_count[r.index()] += 1;
        }
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            for i in 0..self.occ[l.idx()].len() {
                let r = self.occ[l.idx()][i];
                self.true_count[r.index()] += 1;
            }
            for i in 0..self.occ[(!l).idx()].len() {
                let r = self.occ[(!l).idx()][i];
                self.false_count[r.index()] += 1;
            }
        }
    }

    /// Undoes all assignments above `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the current decision level.
    pub fn backtrack_to(&mut self, level: u32) {
        assert!(level <= self.decision_level(), "backtrack above current level");
        if level == self.decision_level() {
            return;
        }
        let new_len = self.trail_lim[level as usize];
        // Undo counters in reverse assignment order.
        for i in (new_len..self.trail.len()).rev() {
            let lit = self.trail[i];
            for &r in &self.occ[lit.idx()] {
                self.true_count[r.index()] -= 1;
            }
            for &r in &self.occ[(!lit).idx()] {
                self.false_count[r.index()] -= 1;
            }
            self.assignment.unassign(lit.var());
        }
        self.trail.truncate(new_len);
        self.trail_lim.truncate(level as usize);
        self.qhead = new_len.min(self.qhead);
    }

    /// Returns the trail of assigned literals, oldest first.
    #[inline]
    #[must_use]
    pub fn trail(&self) -> &[Lit] {
        &self.trail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::{CnfFormula, Var};

    fn engine_for(clauses: &[Vec<i32>]) -> (ClauseDb, CountingPropagator) {
        let f = CnfFormula::from_dimacs_clauses(clauses);
        let db = ClauseDb::from_formula(&f);
        let mut p = CountingPropagator::new(f.num_vars());
        p.attach_all(&db);
        for r in db.refs() {
            if db.clause_len(r) == 1 {
                p.enqueue_unit(db.lits(r)[0], r).expect("no root conflict");
            }
        }
        (db, p)
    }

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    #[test]
    fn chain_propagation() {
        let (db, mut p) = engine_for(&[vec![-1, 2], vec![-2, 3], vec![-3, 4]]);
        p.decide(lit(1));
        assert!(p.propagate(&db).is_none());
        for n in 1..=4 {
            assert!(p.assignment().is_true(lit(n)));
        }
    }

    #[test]
    fn conflict_detected() {
        let (db, mut p) = engine_for(&[vec![-1, 2], vec![-1, -2]]);
        p.decide(lit(1));
        assert!(p.propagate(&db).is_some());
    }

    #[test]
    fn backtrack_restores_counters() {
        let (db, mut p) = engine_for(&[vec![-1, 2], vec![-2, 3]]);
        p.decide(lit(1));
        assert!(p.propagate(&db).is_none());
        p.backtrack_to(0);
        assert_eq!(p.assignment().num_assigned(), 0);
        // same propagation works again after undo
        p.decide(lit(1));
        assert!(p.propagate(&db).is_none());
        assert!(p.assignment().is_true(lit(3)));
    }

    #[test]
    fn backtrack_after_conflict_keeps_counters_consistent() {
        // A conflict cuts propagation short mid-occurrence-list: the
        // clause (-2 4) sits after the conflicting (-1 -2) in x2's
        // occurrence list and must still be counted before backtrack
        // undoes it (this underflowed `false_count` in debug builds).
        let (db, mut p) = engine_for(&[vec![-1, 2], vec![-1, -2], vec![-2, 4]]);
        p.decide(lit(1));
        assert!(p.propagate(&db).is_some());
        p.backtrack_to(0);
        assert_eq!(p.assignment().num_assigned(), 0);
        // the same decision reproduces the same conflict
        p.decide(lit(1));
        assert!(p.propagate(&db).is_some());
        p.backtrack_to(0);
        // and an unrelated decision still propagates cleanly
        p.decide(lit(2));
        assert!(p.propagate(&db).is_none());
        assert!(p.assignment().is_true(lit(4)));
    }

    #[test]
    fn backtrack_after_conflict_with_undequeued_trail() {
        // x1 forces both x2 and x3 in one batch; the conflict surfaces
        // while x3 is still waiting in the queue, so its counters were
        // never applied (the second debug-build underflow path).
        let (db, mut p) =
            engine_for(&[vec![-1, 2], vec![-1, 3], vec![-1, -2], vec![3, 4]]);
        p.decide(lit(1));
        assert!(p.propagate(&db).is_some());
        p.backtrack_to(0);
        assert_eq!(p.assignment().num_assigned(), 0);
        p.decide(lit(-3));
        assert!(p.propagate(&db).is_none());
        assert!(p.assignment().is_true(lit(4)));
    }

    #[test]
    fn satisfied_clause_not_reported_unit() {
        let (db, mut p) = engine_for(&[vec![1, 2]]);
        p.decide(lit(1));
        assert!(p.propagate(&db).is_none());
        p.decide(lit(-2));
        // clause already satisfied by x1 — no conflict and no forcing
        assert!(p.propagate(&db).is_none());
    }

    #[test]
    fn inactive_clauses_ignored() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2], vec![-1, 3]]);
        db.delete_clause(ClauseRef::from_index(1));
        p.decide(lit(1));
        assert!(p.propagate(&db).is_none());
        assert!(p.assignment().is_true(lit(2)));
        assert!(p.assignment().is_unassigned(lit(3)));
    }

    #[test]
    fn agrees_with_watched_engine_on_forced_lits() {
        use crate::propagator::{Attach, WatchedPropagator};
        let clauses: Vec<Vec<i32>> = vec![
            vec![-1, 2, 3],
            vec![-2, 4],
            vec![-3, 4],
            vec![-4, 5, 6],
            vec![-5, -6],
            vec![1, 5],
        ];
        let f = CnfFormula::from_dimacs_clauses(&clauses);

        let mut db_w = ClauseDb::from_formula(&f);
        let mut w = WatchedPropagator::new(f.num_vars());
        let refs: Vec<ClauseRef> = db_w.refs().collect();
        for r in refs {
            assert_eq!(w.attach_clause(&mut db_w, r), Attach::Watched);
        }
        let (db_c, mut c) = engine_for(&clauses);

        for decision in [lit(-5), lit(2)] {
            if !w.assignment().is_unassigned(decision) {
                continue;
            }
            w.decide(decision);
            c.decide(decision);
            let cw = w.propagate(&mut db_w);
            let cc = c.propagate(&db_c);
            assert_eq!(cw.is_some(), cc.is_some(), "conflict parity");
            if cw.is_some() {
                break;
            }
            for v in 0..f.num_vars() {
                let l = Var::new(v as u32).positive();
                assert_eq!(w.value(l), c.value(l), "value of {l}");
            }
        }
    }
}
