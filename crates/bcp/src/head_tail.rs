//! Head-tail list propagation — SATO's lazy scheme, the historical
//! middle step between counting and Chaff's two watched literals.
//!
//! Each clause keeps two cursors, *head* and *tail*, walking inward from
//! the clause's ends. A clause is examined only when its head or tail
//! literal is falsified; the cursor then advances over falsified
//! literals toward the other end. Unlike watched literals, cursors must
//! be restored on backtracking — here by saving cursor positions on a
//! per-level undo trail, which is exactly the bookkeeping cost that made
//! Chaff's scheme win.

use cnf::{Assignment, LBool, Lit};

use crate::clause_db::{ClauseDb, ClauseRef};
use crate::propagator::Conflict;

#[derive(Clone, Copy, Debug)]
struct Cursors {
    head: u32,
    tail: u32,
}

/// A head-tail list BCP engine with the same observable behaviour as
/// [`WatchedPropagator`](crate::WatchedPropagator).
///
/// # Examples
///
/// ```
/// use bcp::{ClauseDb, HeadTailPropagator};
/// use cnf::{CnfFormula, Lit};
///
/// let f = CnfFormula::from_dimacs_clauses(&[vec![-1, 2], vec![-2, 3]]);
/// let db = ClauseDb::from_formula(&f);
/// let mut p = HeadTailPropagator::new(f.num_vars());
/// p.attach_all(&db);
/// p.decide(Lit::from_dimacs(1));
/// assert!(p.propagate(&db).is_none());
/// assert!(p.assignment().is_true(Lit::from_dimacs(3)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct HeadTailPropagator {
    assignment: Assignment,
    /// occurrence lists: clauses whose head or tail currently rests on
    /// this literal
    occ: Vec<Vec<ClauseRef>>,
    cursors: Vec<Cursors>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    /// cursor restore log: (trail mark, clause, cursors before the move,
    /// the literals the restored cursors rest on — re-registered on undo)
    undo: Vec<(usize, ClauseRef, Cursors, Lit, Lit)>,
    qhead: usize,
    num_clause_visits: u64,
}

impl HeadTailPropagator {
    /// Creates an engine over `num_vars` variables.
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        HeadTailPropagator {
            assignment: Assignment::new(num_vars),
            occ: vec![Vec::new(); 2 * num_vars],
            cursors: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            undo: Vec::new(),
            qhead: 0,
            num_clause_visits: 0,
        }
    }

    /// Initialises head/tail cursors for every clause of `db`. Must be
    /// called on an empty trail.
    ///
    /// # Panics
    ///
    /// Panics if assignments exist already.
    pub fn attach_all(&mut self, db: &ClauseDb) {
        assert!(self.trail.is_empty(), "attach_all requires an empty trail");
        for lists in &mut self.occ {
            lists.clear();
        }
        self.cursors.clear();
        for r in db.refs() {
            let len = db.clause_len(r) as u32;
            let c = Cursors { head: 0, tail: len.saturating_sub(1) };
            self.cursors.push(c);
            if len >= 2 {
                self.occ[db.lits(r)[0].idx()].push(r);
                self.occ[db.lits(r)[c.tail as usize].idx()].push(r);
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

    /// Clauses examined so far (the throughput metric of the ablation).
    #[inline]
    #[must_use]
    pub fn num_clause_visits(&self) -> u64 {
        self.num_clause_visits
    }

    /// Makes a decision.
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

    /// Enqueues a unit clause's literal.
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
            let false_lit = !lit;
            // take the list; clauses either move cursors (re-registered
            // elsewhere) or stay (unit/conflict/satisfied-at-cursor)
            let list = std::mem::take(&mut self.occ[false_lit.idx()]);
            let mut conflict = None;
            let mut iter = list.into_iter();
            for r in iter.by_ref() {
                if db.is_deleted(r) {
                    continue; // lazy removal
                }
                self.num_clause_visits += 1;
                match self.examine(db, r, false_lit) {
                    Examined::Moved => {}
                    Examined::Unit(u) => {
                        if self.assignment.is_false(u) {
                            conflict = Some(Conflict { clause: r });
                            break;
                        }
                        if self.assignment.is_unassigned(u) {
                            self.assignment.assign(u);
                            self.trail.push(u);
                        }
                    }
                    Examined::Conflict => {
                        conflict = Some(Conflict { clause: r });
                        break;
                    }
                }
            }
            // put back anything not yet traversed (after a conflict)
            self.occ[false_lit.idx()].extend(iter);
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// Advances the cursor resting on `false_lit`.
    ///
    /// Invariant: every literal outside the `[head, tail]` span is
    /// false, so a converged span decides unit vs conflict by looking at
    /// the single remaining literal.
    fn examine(&mut self, db: &ClauseDb, r: ClauseRef, false_lit: Lit) -> Examined {
        let lits = db.lits(r);
        let cur = self.cursors[r.index()];
        let at_head = lits[cur.head as usize] == false_lit;
        let at_tail = lits[cur.tail as usize] == false_lit;
        if !at_head && !at_tail {
            // stale entry from an undone or superseded move: drop it
            return Examined::Moved;
        }
        let (mut head, mut tail) = (cur.head, cur.tail);
        if at_head {
            while head < tail && self.assignment.is_false(lits[head as usize]) {
                head += 1;
            }
        }
        if at_tail {
            while tail > head && self.assignment.is_false(lits[tail as usize]) {
                tail -= 1;
            }
        }
        self.undo.push((
            self.trail_mark(),
            r,
            cur,
            lits[cur.head as usize],
            lits[cur.tail as usize],
        ));
        self.cursors[r.index()] = Cursors { head, tail };
        if head == tail {
            let last = lits[head as usize];
            self.occ[last.idx()].push(r);
            if self.assignment.is_false(last) {
                return Examined::Conflict;
            }
            if self.assignment.is_true(last) {
                return Examined::Moved; // satisfied at the meeting point
            }
            return Examined::Unit(last);
        }
        // fresh resting points for whichever cursor moved
        if at_head {
            self.occ[lits[head as usize].idx()].push(r);
        }
        if at_tail {
            self.occ[lits[tail as usize].idx()].push(r);
        }
        Examined::Moved
    }

    /// The undo-grouping mark for moves performed at the current level:
    /// the trail base of the innermost decision (0 at the root).
    fn trail_mark(&self) -> usize {
        *self.trail_lim.last().unwrap_or(&0)
    }

    /// Undoes all assignments above `level`, restoring cursor positions.
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
        for &l in &self.trail[new_len..] {
            self.assignment.unassign(l.var());
        }
        self.trail.truncate(new_len);
        self.trail_lim.truncate(level as usize);
        self.qhead = new_len;
        // restore cursor moves recorded at or above the popped levels,
        // re-registering the clause under the restored cursor literals
        // (their original entries were consumed by the moves; duplicate
        // entries are tolerated — the staleness check drops them)
        while let Some(&(mark, r, old, head_lit, tail_lit)) = self.undo.last() {
            if mark < new_len {
                break;
            }
            self.cursors[r.index()] = old;
            self.occ[head_lit.idx()].push(r);
            if tail_lit != head_lit {
                self.occ[tail_lit.idx()].push(r);
            }
            self.undo.pop();
        }
    }

    /// The trail, oldest first.
    #[inline]
    #[must_use]
    pub fn trail(&self) -> &[Lit] {
        &self.trail
    }
}

enum Examined {
    /// Cursor moved (or entry was stale); the clause is registered at
    /// its new resting points.
    Moved,
    /// The span converged on a single unassigned literal.
    Unit(Lit),
    /// Every literal is false.
    Conflict,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::CnfFormula;

    fn engine_for(clauses: &[Vec<i32>]) -> (ClauseDb, HeadTailPropagator) {
        let f = CnfFormula::from_dimacs_clauses(clauses);
        let db = ClauseDb::from_formula(&f);
        let mut p = HeadTailPropagator::new(f.num_vars());
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
            assert!(p.assignment().is_true(lit(n)), "x{n}");
        }
    }

    #[test]
    fn conflict_detected() {
        let (db, mut p) = engine_for(&[vec![-1, 2], vec![-1, -2]]);
        p.decide(lit(1));
        assert!(p.propagate(&db).is_some());
    }

    #[test]
    fn long_clause_cursor_migration() {
        let (db, mut p) = engine_for(&[vec![1, 2, 3, 4, 5]]);
        for n in [1, 2, 3, 4] {
            p.decide(lit(-n));
            assert!(p.propagate(&db).is_none(), "no conflict after ¬x{n}");
        }
        assert!(p.assignment().is_true(lit(5)));
    }

    #[test]
    fn backtrack_restores_cursors() {
        let (db, mut p) = engine_for(&[vec![1, 2, 3]]);
        p.decide(lit(-1));
        assert!(p.propagate(&db).is_none());
        p.decide(lit(-2));
        assert!(p.propagate(&db).is_none());
        assert!(p.assignment().is_true(lit(3)));
        p.backtrack_to(0);
        assert_eq!(p.assignment().num_assigned(), 0);
        // different order still works after the undo
        p.decide(lit(-3));
        assert!(p.propagate(&db).is_none());
        p.decide(lit(-1));
        assert!(p.propagate(&db).is_none());
        assert!(p.assignment().is_true(lit(2)));
    }

    #[test]
    fn agrees_with_watched_engine() {
        use crate::propagator::{Attach, WatchedPropagator};
        let clauses: Vec<Vec<i32>> = vec![
            vec![-1, 2, 3],
            vec![-2, 4],
            vec![-3, 4],
            vec![-4, 5, 6],
            vec![-5, -6],
            vec![1, 5],
            vec![2, 3, 5, 6],
        ];
        let f = CnfFormula::from_dimacs_clauses(&clauses);
        let mut db_w = ClauseDb::from_formula(&f);
        let mut w = WatchedPropagator::new(f.num_vars());
        for r in db_w.refs().collect::<Vec<_>>() {
            assert_eq!(w.attach_clause(&mut db_w, r), Attach::Watched);
        }
        let (db_h, mut h) = engine_for(&clauses);
        for decision in [lit(-5), lit(2), lit(-6)] {
            if !w.assignment().is_unassigned(decision) {
                continue;
            }
            w.decide(decision);
            h.decide(decision);
            let cw = w.propagate(&mut db_w);
            let ch = h.propagate(&db_h);
            assert_eq!(cw.is_some(), ch.is_some(), "conflict parity at {decision}");
            if cw.is_some() {
                break;
            }
            for v in 0..f.num_vars() {
                let l = cnf::Var::new(v as u32).positive();
                assert_eq!(w.value(l), h.value(l), "value of {l}");
            }
        }
    }
}
