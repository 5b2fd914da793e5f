//! The two-watched-literal propagation engine.
//!
//! This is the BCP procedure of the paper's §2, implemented with the
//! watched-literal machinery of Chaff [16] that §6 adopts for the
//! verifier: each clause of length ≥ 2 watches two of its literals; a
//! clause is only examined when one of its watched literals becomes
//! false. Long clauses — the norm in conflict-clause proofs — are then
//! almost never touched, which is the paper's stated reason the technique
//! is "especially effective" for proof verification.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use cnf::{Assignment, LBool, Lit, Var};

use crate::clause_db::{ClauseDb, ClauseRef};

/// Registry handles for the engine's metrics, resolved once. The hot
/// loop only pays for these when `obs::metrics::recording()` is on.
pub(crate) fn obs_handles(
) -> (obs::metrics::Counter, obs::metrics::Counter, obs::metrics::Histogram) {
    static HANDLES: OnceLock<(
        obs::metrics::Counter,
        obs::metrics::Counter,
        obs::metrics::Histogram,
    )> = OnceLock::new();
    *HANDLES.get_or_init(|| {
        (
            obs::metrics::counter("bcp.propagations"),
            obs::metrics::counter("bcp.clause_visits"),
            obs::metrics::histogram("bcp.watch_list_len"),
        )
    })
}

/// Why a variable is assigned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reason {
    /// A decision (branching) assignment.
    Decision,
    /// An assumption supplied from outside — the checker's "assignment R
    /// falsifying the clause under test".
    Assumed,
    /// Forced by unit propagation of the given clause.
    Propagated(ClauseRef),
}

/// A conflict discovered by propagation: `clause` has all its literals
/// assigned false.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Conflict {
    /// The falsified clause.
    pub clause: ClauseRef,
}

/// Why a budgeted propagation stopped before reaching a fixpoint or a
/// conflict (see [`WatchedPropagator::propagate_budgeted`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stopped {
    /// The deterministic propagation-step cap ran out.
    Propagations,
    /// The deterministic clause-visit cap ran out.
    ClauseVisits,
    /// The wall-clock deadline passed.
    Deadline,
    /// The shared cancellation flag was raised.
    Cancelled,
}

/// Resource fuel threaded through [`WatchedPropagator::propagate_budgeted`].
///
/// The two `used_*` counters accumulate across calls, so one `Fuel` value
/// meters a whole verification run: every check draws from the same tank.
/// `max_*` caps are *deterministic* — two runs over the same input with the
/// same caps stop at exactly the same propagation step — while `deadline`
/// and `cancel` are best-effort external stops polled every few queue pops.
#[derive(Debug)]
pub struct Fuel<'a> {
    /// Queue pops performed so far (one per fully propagated literal).
    pub used_propagations: u64,
    /// Clause look-ups performed so far.
    pub used_clause_visits: u64,
    /// Cap on `used_propagations`; `u64::MAX` = unlimited.
    pub max_propagations: u64,
    /// Cap on `used_clause_visits`; `u64::MAX` = unlimited.
    pub max_clause_visits: u64,
    /// Wall-clock instant after which propagation stops.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag shared with other threads.
    pub cancel: Option<&'a AtomicBool>,
}

impl Fuel<'static> {
    /// Fuel that never runs out and is never cancelled.
    #[must_use]
    pub fn unlimited() -> Self {
        Fuel {
            used_propagations: 0,
            used_clause_visits: 0,
            max_propagations: u64::MAX,
            max_clause_visits: u64::MAX,
            deadline: None,
            cancel: None,
        }
    }
}

impl Fuel<'_> {
    /// The deterministic stop that applies right now, if any.
    #[inline]
    pub(crate) fn deterministic_stop(&self) -> Option<Stopped> {
        if self.used_propagations >= self.max_propagations {
            Some(Stopped::Propagations)
        } else if self.used_clause_visits >= self.max_clause_visits {
            Some(Stopped::ClauseVisits)
        } else {
            None
        }
    }

    /// Polls the non-deterministic stops (cancellation, deadline).
    #[inline]
    #[must_use]
    pub fn external_stop(&self) -> Option<Stopped> {
        if let Some(flag) = self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Some(Stopped::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Stopped::Deadline);
            }
        }
        None
    }

    /// Any stop condition that applies right now, deterministic first.
    #[inline]
    #[must_use]
    pub fn stop(&self) -> Option<Stopped> {
        self.deterministic_stop().or_else(|| self.external_stop())
    }
}

/// Result of a budgeted propagation pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetedPropagation {
    /// The queue drained without conflict.
    Fixpoint,
    /// A clause was falsified.
    Conflict(Conflict),
    /// A budget cap, deadline, or cancellation interrupted the pass; the
    /// trail holds a *partial* propagation that the caller must discard
    /// (backtrack) before relying on the assignment.
    Interrupted(Stopped),
}

/// Result of attaching a clause to the watch lists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Attach {
    /// The clause has ≥ 2 literals and is now watched.
    Watched,
    /// The clause is unit; the caller must enqueue the literal (or treat
    /// its falsification as a conflict).
    Unit(Lit),
    /// The clause is empty — the formula is trivially unsatisfiable.
    Empty,
}

#[derive(Clone, Copy, Debug)]
struct Watch {
    cref: ClauseRef,
    /// A literal of the clause other than the watched one; if the blocker
    /// is already true the clause is satisfied and need not be examined.
    blocker: Lit,
}

/// A trail-based two-watched-literal BCP engine.
///
/// The engine owns the assignment, the trail with decision levels, and
/// per-variable reason/level bookkeeping; the clause database is passed
/// into each call so that callers (solver, checker) retain ownership and
/// may add or delete clauses between propagations.
///
/// # Examples
///
/// ```
/// use bcp::{ClauseDb, WatchedPropagator, Attach};
/// use cnf::{CnfFormula, Lit};
///
/// let f = CnfFormula::from_dimacs_clauses(&[vec![-1, 2], vec![-2, 3]]);
/// let mut db = ClauseDb::from_formula(&f);
/// let mut p = WatchedPropagator::new(f.num_vars());
/// for r in db.refs().collect::<Vec<_>>() {
///     assert_eq!(p.attach_clause(&mut db, r), Attach::Watched);
/// }
/// p.decide(Lit::from_dimacs(1));
/// assert!(p.propagate(&mut db).is_none());
/// assert!(p.assignment().is_true(Lit::from_dimacs(3)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct WatchedPropagator {
    assignment: Assignment,
    watches: Vec<Vec<Watch>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    reasons: Vec<Reason>,
    levels: Vec<u32>,
    qhead: usize,
    /// Number of clause look-ups performed — a throughput metric for the
    /// watched-vs-counting ablation bench.
    num_clause_visits: u64,
}

impl WatchedPropagator {
    /// Creates an engine over `num_vars` variables, all unassigned.
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        WatchedPropagator {
            assignment: Assignment::new(num_vars),
            watches: vec![Vec::new(); 2 * num_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            reasons: vec![Reason::Decision; num_vars],
            levels: vec![0; num_vars],
            qhead: 0,
            num_clause_visits: 0,
        }
    }

    /// Grows the engine to cover `num_vars` variables.
    pub fn ensure_vars(&mut self, num_vars: usize) {
        if num_vars > self.reasons.len() {
            self.assignment.ensure_var(Var::new(num_vars as u32 - 1));
            self.watches.resize(2 * num_vars, Vec::new());
            self.reasons.resize(num_vars, Reason::Decision);
            self.levels.resize(num_vars, 0);
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

    /// The trail of assigned literals, oldest first.
    #[inline]
    #[must_use]
    pub fn trail(&self) -> &[Lit] {
        &self.trail
    }

    /// The current decision level (0 = root).
    #[inline]
    #[must_use]
    pub fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// The reason recorded for an assigned variable.
    ///
    /// Meaningless for unassigned variables.
    #[inline]
    #[must_use]
    pub fn reason(&self, var: Var) -> Reason {
        self.reasons[var.idx()]
    }

    /// The decision level at which a variable was assigned.
    ///
    /// Meaningless for unassigned variables.
    #[inline]
    #[must_use]
    pub fn level(&self, var: Var) -> u32 {
        self.levels[var.idx()]
    }

    /// Number of clauses visited by propagation so far.
    #[inline]
    #[must_use]
    pub fn num_clause_visits(&self) -> u64 {
        self.num_clause_visits
    }

    /// The trail length at the moment `level` was opened — i.e. the
    /// number of assignments strictly below `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds the current decision level.
    #[inline]
    #[must_use]
    pub fn trail_len_at_level(&self, level: u32) -> usize {
        assert!(level >= 1, "level 0 has no opening point");
        self.trail_lim[(level - 1) as usize]
    }

    /// Opens a new decision level without assigning anything.
    pub fn push_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    /// Makes a decision: opens a new level and assigns `lit` true.
    ///
    /// # Panics
    ///
    /// Panics if `lit` is already assigned.
    pub fn decide(&mut self, lit: Lit) {
        assert!(
            self.assignment.is_unassigned(lit),
            "decision on assigned literal {lit}"
        );
        self.push_level();
        self.enqueue(lit, Reason::Decision);
    }

    /// Assumes `lit` at the current level (the checker's falsifying
    /// assignment `R`).
    ///
    /// Returns `false` when `lit` is already false — the check conflicts
    /// immediately (the clause under test is subsumed by the current
    /// forced assignments). Returns `true` when `lit` was enqueued or was
    /// already true.
    #[must_use]
    pub fn assume(&mut self, lit: Lit) -> bool {
        match self.value(lit) {
            LBool::True => true,
            LBool::False => false,
            LBool::Unassigned => {
                self.enqueue(lit, Reason::Assumed);
                true
            }
        }
    }

    /// Enqueues a propagated literal with its reason clause, as used for
    /// unit clauses (which cannot be watched).
    ///
    /// # Errors
    ///
    /// Returns the conflict if `lit` is already false.
    pub fn enqueue_propagated(
        &mut self,
        lit: Lit,
        cref: ClauseRef,
    ) -> Result<(), Conflict> {
        match self.value(lit) {
            LBool::True => Ok(()),
            LBool::False => Err(Conflict { clause: cref }),
            LBool::Unassigned => {
                self.enqueue(lit, Reason::Propagated(cref));
                Ok(())
            }
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: Reason) {
        self.assignment.assign(lit);
        self.reasons[lit.var().idx()] = reason;
        self.levels[lit.var().idx()] = self.decision_level();
        self.trail.push(lit);
    }

    /// Attaches a clause to the watch lists.
    ///
    /// For clauses of length ≥ 2 the first two literals become the
    /// watched pair — callers that need a specific pair (e.g. the solver
    /// attaching an asserting learned clause) must order the literals
    /// first.
    pub fn attach_clause(&mut self, db: &mut ClauseDb, cref: ClauseRef) -> Attach {
        let lits = db.lits(cref);
        match lits.len() {
            0 => Attach::Empty,
            1 => Attach::Unit(lits[0]),
            _ => {
                let (a, b) = (lits[0], lits[1]);
                self.watches[a.idx()].push(Watch { cref, blocker: b });
                self.watches[b.idx()].push(Watch { cref, blocker: a });
                Attach::Watched
            }
        }
    }

    /// Eagerly removes a clause's two watch entries.
    ///
    /// The lazy cleanup during propagation is normally enough; eager
    /// detaching matters when a clause may later be *re-attached* (the
    /// deletion-aware checker resurrects clauses while walking a proof
    /// backward), because duplicate watch entries would corrupt the
    /// watch invariant.
    ///
    /// Must be called on an empty trail or when neither watched literal
    /// is involved in queued propagations. No-op for clauses shorter
    /// than 2.
    pub fn detach_clause(&mut self, db: &ClauseDb, cref: ClauseRef) {
        let lits = db.lits(cref);
        if lits.len() < 2 {
            return;
        }
        for &w in &lits[..2] {
            self.watches[w.idx()].retain(|entry| entry.cref != cref);
        }
    }

    /// Runs Boolean constraint propagation to fixpoint.
    ///
    /// Returns the first conflict found, or `None` if the queue drains
    /// without conflict. After a conflict the queue is flushed, so the
    /// caller must backtrack before propagating again.
    pub fn propagate(&mut self, db: &mut ClauseDb) -> Option<Conflict> {
        // deltas accumulate in plain locals; one atomic flush per call
        let trail_before = self.trail.len();
        let visits_before = self.num_clause_visits;
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            if let Some(c) = self.propagate_lit(db, lit) {
                self.qhead = self.trail.len();
                conflict = Some(c);
                break;
            }
        }
        if obs::metrics::recording() {
            let (propagations, clause_visits, _) = obs_handles();
            propagations.add((self.trail.len() - trail_before) as u64);
            clause_visits.add(self.num_clause_visits - visits_before);
        }
        conflict
    }

    /// Like [`WatchedPropagator::propagate`], but metered by `fuel`: the
    /// deterministic caps are checked before every queue pop, and the
    /// external stops (deadline, cancellation) are polled every
    /// [`POLL_INTERVAL`](Self::POLL_INTERVAL) pops. On
    /// [`BudgetedPropagation::Interrupted`] the queue is flushed like on a
    /// conflict, so the caller must backtrack before propagating again.
    pub fn propagate_budgeted(
        &mut self,
        db: &mut ClauseDb,
        fuel: &mut Fuel<'_>,
    ) -> BudgetedPropagation {
        let trail_before = self.trail.len();
        let visits_before = self.num_clause_visits;
        let mut pops_since_poll: u32 = 0;
        let mut outcome = BudgetedPropagation::Fixpoint;
        while self.qhead < self.trail.len() {
            if let Some(stopped) = fuel.deterministic_stop() {
                outcome = BudgetedPropagation::Interrupted(stopped);
                break;
            }
            if pops_since_poll == 0 {
                if let Some(stopped) = fuel.external_stop() {
                    outcome = BudgetedPropagation::Interrupted(stopped);
                    break;
                }
            }
            pops_since_poll = (pops_since_poll + 1) % Self::POLL_INTERVAL;
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            fuel.used_propagations += 1;
            let visits_at_pop = self.num_clause_visits;
            let conflict = self.propagate_lit(db, lit);
            fuel.used_clause_visits += self.num_clause_visits - visits_at_pop;
            if let Some(c) = conflict {
                self.qhead = self.trail.len();
                outcome = BudgetedPropagation::Conflict(c);
                break;
            }
        }
        if matches!(outcome, BudgetedPropagation::Interrupted(_)) {
            // flush the queue: the partial propagation must be discarded
            self.qhead = self.trail.len();
        }
        if obs::metrics::recording() {
            let (propagations, clause_visits, _) = obs_handles();
            propagations.add((self.trail.len() - trail_before) as u64);
            clause_visits.add(self.num_clause_visits - visits_before);
        }
        outcome
    }

    /// How many queue pops pass between polls of the non-deterministic
    /// stop conditions in [`WatchedPropagator::propagate_budgeted`].
    pub const POLL_INTERVAL: u32 = 64;

    /// Processes the watch list of `!lit` after `lit` became true.
    fn propagate_lit(&mut self, db: &mut ClauseDb, lit: Lit) -> Option<Conflict> {
        let false_lit = !lit;
        let mut ws = std::mem::take(&mut self.watches[false_lit.idx()]);
        if obs::metrics::recording() {
            obs_handles().2.record(ws.len() as u64);
        }
        let mut kept = 0;
        let mut conflict = None;
        let mut i = 0;
        while i < ws.len() {
            let w = ws[i];
            i += 1;
            if db.is_deleted(w.cref) {
                continue; // lazy removal of deleted clauses
            }
            if self.assignment.is_true(w.blocker) {
                ws[kept] = w;
                kept += 1;
                continue;
            }
            self.num_clause_visits += 1;
            let lits = db.lits_mut(w.cref);
            if lits[0] == false_lit {
                lits.swap(0, 1);
            }
            debug_assert_eq!(lits[1], false_lit);
            let first = lits[0];
            if first != w.blocker && self.assignment.is_true(first) {
                ws[kept] = Watch { cref: w.cref, blocker: first };
                kept += 1;
                continue;
            }
            // Look for a non-false literal to watch instead.
            let mut moved = false;
            for k in 2..lits.len() {
                if !self.assignment.is_false(lits[k]) {
                    lits.swap(1, k);
                    let new_watch = lits[1];
                    self.watches[new_watch.idx()]
                        .push(Watch { cref: w.cref, blocker: first });
                    moved = true;
                    break;
                }
            }
            if moved {
                continue;
            }
            // Clause is unit (first unassigned) or conflicting (first false).
            ws[kept] = Watch { cref: w.cref, blocker: first };
            kept += 1;
            if self.assignment.is_false(first) {
                conflict = Some(Conflict { clause: w.cref });
                // keep remaining watches intact
                while i < ws.len() {
                    ws[kept] = ws[i];
                    kept += 1;
                    i += 1;
                }
                break;
            }
            self.enqueue(first, Reason::Propagated(w.cref));
        }
        ws.truncate(kept);
        self.watches[false_lit.idx()] = ws;
        conflict
    }

    /// Undoes all assignments above `level` and truncates the trail.
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
    }
}

impl crate::engine::Propagator for WatchedPropagator {
    type Store = ClauseDb;

    fn new(num_vars: usize) -> Self {
        WatchedPropagator::new(num_vars)
    }

    fn ensure_vars(&mut self, num_vars: usize) {
        WatchedPropagator::ensure_vars(self, num_vars);
    }

    fn assignment(&self) -> &Assignment {
        WatchedPropagator::assignment(self)
    }

    fn trail(&self) -> &[Lit] {
        WatchedPropagator::trail(self)
    }

    fn decision_level(&self) -> u32 {
        WatchedPropagator::decision_level(self)
    }

    fn reason(&self, var: Var) -> Reason {
        WatchedPropagator::reason(self, var)
    }

    fn num_clause_visits(&self) -> u64 {
        WatchedPropagator::num_clause_visits(self)
    }

    fn push_level(&mut self) {
        WatchedPropagator::push_level(self);
    }

    fn decide(&mut self, lit: Lit) {
        WatchedPropagator::decide(self, lit);
    }

    fn assume(&mut self, lit: Lit) -> bool {
        WatchedPropagator::assume(self, lit)
    }

    fn enqueue_propagated(&mut self, lit: Lit, cref: ClauseRef) -> Result<(), Conflict> {
        WatchedPropagator::enqueue_propagated(self, lit, cref)
    }

    fn attach_clause(&mut self, db: &mut ClauseDb, cref: ClauseRef) -> Attach {
        WatchedPropagator::attach_clause(self, db, cref)
    }

    fn detach_clause(&mut self, db: &ClauseDb, cref: ClauseRef) {
        WatchedPropagator::detach_clause(self, db, cref);
    }

    fn propagate(&mut self, db: &mut ClauseDb) -> Option<Conflict> {
        WatchedPropagator::propagate(self, db)
    }

    fn propagate_budgeted(
        &mut self,
        db: &mut ClauseDb,
        fuel: &mut Fuel<'_>,
    ) -> BudgetedPropagation {
        WatchedPropagator::propagate_budgeted(self, db, fuel)
    }

    fn backtrack_to(&mut self, level: u32) {
        WatchedPropagator::backtrack_to(self, level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::CnfFormula;

    fn engine_for(clauses: &[Vec<i32>]) -> (ClauseDb, WatchedPropagator) {
        let f = CnfFormula::from_dimacs_clauses(clauses);
        let mut db = ClauseDb::from_formula(&f);
        let mut p = WatchedPropagator::new(f.num_vars());
        let refs: Vec<ClauseRef> = db.refs().collect();
        for r in refs {
            match p.attach_clause(&mut db, r) {
                Attach::Watched => {}
                Attach::Unit(l) => p.enqueue_propagated(l, r).expect("no root conflict"),
                Attach::Empty => panic!("test formula has empty clause"),
            }
        }
        (db, p)
    }

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    #[test]
    fn chain_propagation() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2], vec![-2, 3], vec![-3, 4]]);
        p.decide(lit(1));
        assert!(p.propagate(&mut db).is_none());
        for n in 1..=4 {
            assert!(p.assignment().is_true(lit(n)), "x{n} should be implied");
        }
        assert_eq!(p.decision_level(), 1);
        assert_eq!(p.trail().len(), 4);
    }

    #[test]
    fn conflict_detected() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2], vec![-1, -2]]);
        p.decide(lit(1));
        let conflict = p.propagate(&mut db).expect("must conflict");
        // the falsified clause is one of the two
        assert!(conflict.clause.index() < 2);
    }

    #[test]
    fn unit_clauses_propagate_from_root() {
        let (mut db, mut p) = engine_for(&[vec![1], vec![-1, 2]]);
        assert!(p.propagate(&mut db).is_none());
        assert!(p.assignment().is_true(lit(1)));
        assert!(p.assignment().is_true(lit(2)));
        assert_eq!(p.level(Var::from_dimacs(2)), 0);
    }

    #[test]
    fn backtracking_undoes_assignments() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2], vec![-3, 4]]);
        p.decide(lit(1));
        assert!(p.propagate(&mut db).is_none());
        p.decide(lit(3));
        assert!(p.propagate(&mut db).is_none());
        assert_eq!(p.assignment().num_assigned(), 4);
        p.backtrack_to(1);
        assert_eq!(p.assignment().num_assigned(), 2);
        assert!(p.assignment().is_true(lit(2)));
        assert!(p.assignment().is_unassigned(lit(3)));
        p.backtrack_to(0);
        assert_eq!(p.assignment().num_assigned(), 0);
    }

    #[test]
    fn reasons_and_levels_recorded() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2]]);
        p.decide(lit(1));
        assert!(p.propagate(&mut db).is_none());
        assert_eq!(p.reason(Var::from_dimacs(1)), Reason::Decision);
        assert!(matches!(p.reason(Var::from_dimacs(2)), Reason::Propagated(_)));
        assert_eq!(p.level(Var::from_dimacs(1)), 1);
        assert_eq!(p.level(Var::from_dimacs(2)), 1);
    }

    #[test]
    fn assume_reports_existing_values() {
        let (mut db, mut p) = engine_for(&[vec![1]]);
        p.ensure_vars(2);
        assert!(p.propagate(&mut db).is_none());
        assert!(p.assume(lit(1)), "assuming an already-true literal is fine");
        assert!(!p.assume(lit(-1)), "assuming a false literal conflicts");
        assert!(p.assume(lit(2)));
        assert!(p.assignment().is_true(lit(2)));
        assert_eq!(p.reason(Var::from_dimacs(2)), Reason::Assumed);
    }

    #[test]
    fn deactivated_clauses_do_not_propagate() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2], vec![-1, 3]]);
        p.detach_clause(&db, ClauseRef::from_index(1)); // [-1,3] unwatched
        p.decide(lit(1));
        assert!(p.propagate(&mut db).is_none());
        assert!(p.assignment().is_true(lit(2)));
        assert!(p.assignment().is_unassigned(lit(3)));
    }

    #[test]
    fn deleted_clauses_do_not_propagate() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2]]);
        db.delete_clause(ClauseRef::from_index(0));
        p.decide(lit(1));
        assert!(p.propagate(&mut db).is_none());
        assert!(p.assignment().is_unassigned(lit(2)));
    }

    #[test]
    fn clause_added_mid_flight_propagates() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2]]);
        p.ensure_vars(3);
        p.decide(lit(1));
        assert!(p.propagate(&mut db).is_none());
        // learn (-2 ∨ 3): currently unit under the trail
        let r = db.add_clause(&[lit(-2), lit(3)], true);
        // order so that the unassigned literal is watched first
        db.lits_mut(r).swap(0, 1);
        assert_eq!(p.attach_clause(&mut db, r), Attach::Watched);
        p.enqueue_propagated(lit(3), r).expect("no conflict");
        assert!(p.propagate(&mut db).is_none());
        assert!(p.assignment().is_true(lit(3)));
    }

    #[test]
    fn long_clause_watch_migration() {
        // watch pair must migrate across a long clause as literals go false
        let (mut db, mut p) = engine_for(&[vec![1, 2, 3, 4, 5]]);
        for n in [1, 2, 3, 4] {
            p.decide(lit(-n));
            assert!(p.propagate(&mut db).is_none(), "no conflict after ¬x{n}");
        }
        assert!(p.assignment().is_true(lit(5)), "x5 forced by the 5-clause");
    }

    #[test]
    fn conflict_when_all_literals_false() {
        let (mut db, mut p) = engine_for(&[vec![1, 2, 3]]);
        p.decide(lit(-1));
        assert!(p.propagate(&mut db).is_none());
        p.decide(lit(-2));
        assert!(p.propagate(&mut db).is_none());
        assert!(p.assignment().is_true(lit(3)));
        p.backtrack_to(0);
        // now force all three false via assumptions
        p.push_level();
        assert!(p.assume(lit(-1)));
        assert!(p.assume(lit(-2)));
        assert!(p.assume(lit(-3)));
        let c = p.propagate(&mut db).expect("conflict");
        assert_eq!(c.clause.index(), 0);
    }

    #[test]
    fn budgeted_propagation_matches_plain_when_fuel_is_ample() {
        let clauses = &[vec![-1, 2], vec![-2, 3], vec![-3, 4], vec![-4, 5]];
        let (mut db, mut p) = engine_for(clauses);
        let (mut db2, mut p2) = engine_for(clauses);
        p.decide(lit(1));
        p2.decide(lit(1));
        assert!(p.propagate(&mut db).is_none());
        let mut fuel = Fuel::unlimited();
        assert_eq!(
            p2.propagate_budgeted(&mut db2, &mut fuel),
            BudgetedPropagation::Fixpoint
        );
        assert_eq!(p.trail(), p2.trail());
        assert_eq!(fuel.used_propagations, p2.trail().len() as u64);
    }

    #[test]
    fn propagation_cap_interrupts_deterministically() {
        let clauses = &[vec![-1, 2], vec![-2, 3], vec![-3, 4], vec![-4, 5]];
        let (mut db, mut p) = engine_for(clauses);
        p.decide(lit(1));
        let mut fuel = Fuel { max_propagations: 2, ..Fuel::unlimited() };
        assert_eq!(
            p.propagate_budgeted(&mut db, &mut fuel),
            BudgetedPropagation::Interrupted(Stopped::Propagations)
        );
        assert_eq!(fuel.used_propagations, 2);
        // the queue was flushed: caller must backtrack before reuse
        p.backtrack_to(0);
        assert_eq!(p.assignment().num_assigned(), 0);
    }

    #[test]
    fn clause_visit_cap_interrupts() {
        let clauses = &[vec![-1, 2], vec![-2, 3], vec![-3, 4]];
        let (mut db, mut p) = engine_for(clauses);
        p.decide(lit(1));
        let mut fuel = Fuel { max_clause_visits: 1, ..Fuel::unlimited() };
        assert_eq!(
            p.propagate_budgeted(&mut db, &mut fuel),
            BudgetedPropagation::Interrupted(Stopped::ClauseVisits)
        );
    }

    #[test]
    fn cancellation_flag_stops_propagation() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2], vec![-2, 3]]);
        p.decide(lit(1));
        let cancel = AtomicBool::new(true);
        let mut fuel = Fuel { cancel: Some(&cancel), ..Fuel::unlimited() };
        assert_eq!(
            p.propagate_budgeted(&mut db, &mut fuel),
            BudgetedPropagation::Interrupted(Stopped::Cancelled)
        );
    }

    #[test]
    fn expired_deadline_stops_propagation() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2]]);
        p.decide(lit(1));
        let mut fuel = Fuel {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..Fuel::unlimited()
        };
        assert_eq!(
            p.propagate_budgeted(&mut db, &mut fuel),
            BudgetedPropagation::Interrupted(Stopped::Deadline)
        );
    }

    #[test]
    fn budgeted_conflict_is_reported_not_interrupted() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2], vec![-1, -2]]);
        p.decide(lit(1));
        let mut fuel = Fuel::unlimited();
        assert!(matches!(
            p.propagate_budgeted(&mut db, &mut fuel),
            BudgetedPropagation::Conflict(_)
        ));
    }

    #[test]
    fn visit_counter_increases() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2, 3]]);
        assert_eq!(p.num_clause_visits(), 0);
        p.decide(lit(1));
        assert!(p.propagate(&mut db).is_none());
        assert!(p.num_clause_visits() > 0);
    }
}
