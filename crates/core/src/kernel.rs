//! The checking kernel every clausal walk shares.
//!
//! drat-trim (Heule; PAPERS.md) checks RUP, DRUP and DRAT proofs with one
//! core that marks the clauses each conflict depends on. The walks of
//! this crate hold a proof differently — backward in memory with
//! content-addressed deletions ([`crate::verify_drat_backward`]),
//! backward with deletions by reference ([`crate::AnnotatedProof::verify`]),
//! backward in windows ([`crate::verify_drat_stream`]), forward
//! ([`crate::verify_drat`]) — but check an addition the same way, with
//! the three steps here:
//!
//! * [`Kernel::check`] — propagation under assumptions over the live
//!   clauses: assume the literals, enqueue the live unit clauses, and
//!   propagate on metered fuel;
//! * [`Cone::mark`] — the paper's `Conflict_analysis`: one backward pass
//!   over the trail that marks the conflict's cone, stops once it has
//!   reached every variable the cone needs, and records LRAT hints for
//!   the callers that ask for them;
//! * [`Kernel::implied`]'s RAT fallback — the candidate loop on the
//!   clause's first literal.
//!
//! A clause joins the live set through [`Kernel::attach`], which the
//! forward and streamed walks call for every clause; the in-memory
//! backward walk attaches its final live set in one pass and builds its
//! occurrence lists only when a RAT check first needs them.
//!
//! The native [`crate::Checker`] keeps `F`'s units at a root level of
//! its own, so it runs its own check and calls only the cone.

use std::collections::BTreeMap;

use bcp::{
    Attach, BudgetedPropagation, ClauseRef, ClauseStore, Conflict, Fuel, Propagator, Reason,
    Stopped,
};
use cnf::{LBool, Lit, Var};

use crate::rat::DratStats;

/// What one check under assumptions found.
pub(crate) enum Check {
    /// A live clause was falsified.
    Conflict(Conflict),
    /// Two assumptions clash: the clause they negate is a tautology.
    Vacuous,
    /// Propagation reached a fixpoint.
    NoConflict,
    /// The fuel ran out first.
    Interrupted(Stopped),
}

/// Whether an addition is implied by the clauses live at its point.
pub(crate) enum Implied {
    Yes,
    No,
    Interrupted(Stopped),
}

/// A clause's LRAT id: dense insertion order, from 1.
pub(crate) fn lrat_id(r: ClauseRef) -> u64 {
    r.index() as u64 + 1
}

/// Scratch for marking conflict cones: the variables the current pass
/// has pulled in.
#[derive(Debug)]
pub(crate) struct Cone {
    seen: Vec<bool>,
    touched: Vec<Var>,
}

impl Cone {
    pub(crate) fn new(num_vars: usize) -> Self {
        Cone {
            seen: vec![false; num_vars],
            touched: Vec::new(),
        }
    }

    /// Grows the scratch to cover `num_vars` variables.
    pub(crate) fn ensure_vars(&mut self, num_vars: usize) {
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
    pub(crate) fn mark<P: Propagator>(
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

/// The clause store, engine and marks of a clausal walk, and the checks
/// it runs against them.
pub(crate) struct Kernel<P: Propagator> {
    pub(crate) db: P::Store,
    pub(crate) prop: P,
    /// The live unit clauses, which every check enqueues in ascending ref
    /// order: a walk inserts a unit when its clause becomes live and
    /// removes it when the clause dies.
    pub(crate) units: BTreeMap<ClauseRef, Lit>,
    /// The empty clauses; a live one conflicts before any propagation.
    pub(crate) empties: Vec<ClauseRef>,
    /// Marked clauses, by ref.
    pub(crate) marked: Vec<bool>,
    /// For each literal, the clauses that contain it in ascending ref
    /// order (a literal a clause repeats lists it again; dead clauses
    /// are skipped at use). [`Kernel::attach`] keeps the lists of a
    /// kernel made by [`Kernel::with_occurrences`]; otherwise they stay
    /// empty until the first RAT check builds them from the store.
    pub(crate) occ: Vec<Vec<ClauseRef>>,
    cone: Cone,
    // scratch reused across checks
    assumed: Vec<Lit>,
    candidates: Vec<ClauseRef>,
}

impl<P: Propagator> Kernel<P> {
    /// An empty store and engine over `num_vars` variables.
    pub(crate) fn new(num_vars: usize) -> Self {
        Kernel {
            db: P::Store::new(),
            prop: P::new(num_vars),
            units: BTreeMap::new(),
            empties: Vec::new(),
            marked: Vec::new(),
            occ: Vec::new(),
            cone: Cone::new(num_vars),
            assumed: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// An empty kernel whose occurrence lists [`Kernel::attach`] keeps.
    pub(crate) fn with_occurrences(num_vars: usize) -> Self {
        Kernel {
            occ: vec![Vec::new(); 2 * num_vars],
            ..Kernel::new(num_vars)
        }
    }

    /// Makes the stored clause `r` live: watches it, or records it as a
    /// unit or an empty clause, and lists its occurrences. The kernel
    /// must come from [`Kernel::with_occurrences`].
    pub(crate) fn attach(&mut self, r: ClauseRef) {
        match self.prop.attach_clause(&mut self.db, r) {
            Attach::Watched => {}
            Attach::Unit(l) => {
                self.units.insert(r, l);
            }
            Attach::Empty => self.empties.push(r),
        }
        for &l in self.db.lits(r) {
            self.occ[l.idx()].push(r);
        }
    }

    /// One check over the live clauses: assume `assumptions`, enqueue
    /// the live units and propagate on `fuel`.
    pub(crate) fn check(&mut self, assumptions: &[Lit], fuel: &mut Fuel<'_>) -> Check {
        if let Some(&r) = self.empties.iter().find(|r| !self.db.is_deleted(**r)) {
            return Check::Conflict(Conflict { clause: r });
        }
        self.prop.reset();
        self.prop.push_level();
        for &l in assumptions {
            match self.prop.value(l) {
                // duplicate assumption
                LBool::True => {}
                // clashing assumptions: the obligation is tautological
                LBool::False => return Check::Vacuous,
                LBool::Unassigned => {
                    let ok = self.prop.assume(l);
                    debug_assert!(ok, "unassigned literal must be assumable");
                }
            }
        }
        for (&r, &l) in &self.units {
            if let Err(conflict) = self.prop.enqueue_propagated(l, r) {
                return Check::Conflict(conflict);
            }
        }
        match self.prop.propagate_budgeted(&mut self.db, fuel) {
            BudgetedPropagation::Conflict(c) => Check::Conflict(c),
            BudgetedPropagation::Fixpoint => Check::NoConflict,
            BudgetedPropagation::Interrupted(s) => Check::Interrupted(s),
        }
    }

    /// Marks the cone of the conflict the last check found (see
    /// [`Cone::mark`]).
    pub(crate) fn mark_conflict(&mut self, conflict: Conflict, hints: Option<&mut Vec<i64>>) {
        self.cone
            .mark(&self.prop, &self.db, conflict, &mut self.marked, hints);
    }

    /// Checks the addition of `clause`: RUP over the live clauses, then,
    /// with `rat`, RAT on its first literal. Marks every cone the check
    /// depends on and, with `hints`, records it as the clause's LRAT
    /// hints.
    pub(crate) fn implied(
        &mut self,
        clause: &[Lit],
        rat: bool,
        mut hints: Option<&mut Vec<i64>>,
        fuel: &mut Fuel<'_>,
        stats: &mut DratStats,
    ) -> Implied {
        let mut assumed = std::mem::take(&mut self.assumed);
        assumed.clear();
        assumed.extend(clause.iter().map(|&l| !l));
        let rup = self.check(&assumed, fuel);
        self.assumed = assumed;
        match rup {
            Check::Conflict(conflict) => {
                self.mark_conflict(conflict, hints.as_deref_mut());
                stats.num_rup += 1;
                Implied::Yes
            }
            // a tautology: vacuously implied, no hints
            Check::Vacuous => {
                stats.num_rup += 1;
                Implied::Yes
            }
            Check::NoConflict if rat => {
                let implied = self.rat(clause, hints, fuel, stats);
                if let Implied::Yes = implied {
                    stats.num_rat += 1;
                }
                implied
            }
            Check::NoConflict => Implied::No,
            Check::Interrupted(s) => Implied::Interrupted(s),
        }
    }

    /// RAT on the clause's first literal, in the LRAT-compatible
    /// formulation: for every live clause `D ∋ ¬pivot`,
    /// `F ∧ ¬C ∧ ¬(D \ {¬pivot})` must propagate to a conflict (the
    /// *full* ¬C, pivot included, so the recorded hints replay verbatim
    /// in an LRAT consumer). Each candidate's group (`-d`, then its
    /// cone) is appended to `hints`, and the candidate is marked: an
    /// LRAT consumer must see it to enumerate the same resolvents.
    fn rat(
        &mut self,
        clause: &[Lit],
        mut hints: Option<&mut Vec<i64>>,
        fuel: &mut Fuel<'_>,
        stats: &mut DratStats,
    ) -> Implied {
        let Some(&pivot) = clause.first() else {
            return Implied::No; // no pivot to resolve on
        };
        if self.occ.is_empty() {
            self.occ = occurrences(&self.db, 2 * self.cone.seen.len());
        }
        // collect first: the live set does not change during the loop
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        candidates.extend(
            self.occ[(!pivot).idx()]
                .iter()
                .copied()
                .filter(|&r| !self.db.is_deleted(r)),
        );
        let mut assumed = std::mem::take(&mut self.assumed);
        assumed.clear();
        assumed.extend(clause.iter().map(|&l| !l));
        let negated_len = assumed.len();
        let mut implied = Implied::Yes;
        for &d in &candidates {
            stats.num_resolvent_checks += 1;
            assumed.truncate(negated_len);
            assumed.extend(
                self.db
                    .lits(d)
                    .iter()
                    .filter(|&&l| l != !pivot)
                    .map(|&l| !l),
            );
            if let Some(hints) = hints.as_deref_mut() {
                hints.push(-(lrat_id(d) as i64));
            }
            match self.check(&assumed, fuel) {
                Check::Conflict(conflict) => {
                    self.mark_conflict(conflict, hints.as_deref_mut());
                    self.marked[d.index()] = true;
                }
                // tautological resolvent: vacuously fine, no hints
                Check::Vacuous => self.marked[d.index()] = true,
                Check::NoConflict => {
                    implied = Implied::No;
                    break;
                }
                Check::Interrupted(s) => {
                    implied = Implied::Interrupted(s);
                    break;
                }
            }
        }
        self.candidates = candidates;
        self.assumed = assumed;
        implied
    }
}

/// The occurrence lists of every clause the store holds, dead or live.
fn occurrences<S: ClauseStore>(db: &S, num_lits: usize) -> Vec<Vec<ClauseRef>> {
    let mut occ = vec![Vec::new(); num_lits];
    for r in db.refs() {
        for &l in db.lits(r) {
            occ[l.idx()].push(r);
        }
    }
    occ
}
