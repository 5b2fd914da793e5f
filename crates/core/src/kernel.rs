//! The checking kernel every clausal walk shares.
//!
//! drat-trim (Heule; PAPERS.md) checks RUP, DRUP and DRAT proofs with one
//! core that marks the clauses each conflict depends on. The walks of
//! this crate hold a proof differently — backward in memory with
//! content-addressed deletions ([`crate::verify_drat_backward`]),
//! backward with deletions by reference ([`crate::AnnotatedProof::verify`]),
//! backward over a deletion-free native proof ([`crate::verify`]),
//! backward in windows ([`crate::verify_drat_stream`]), forward
//! ([`crate::verify_drat`], [`crate::CheckMode::AllForward`]) — but
//! check an addition the same way, with the three steps here:
//!
//! * [`Kernel::check`] — propagation under assumptions over the live
//!   clauses: assume the literals, enqueue the live unit clauses, and
//!   propagate on metered fuel, from the root level when the walk keeps
//!   one;
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
//! The native walks ([`crate::Checker`]) and the forward loop first
//! call [`Kernel::propagate_root`]: `F`'s units and their consequences
//! are propagated once, at level 0, and every check backtracks to that
//! level instead of propagating them again. A clause attached over the
//! root is classified under the root assignment: a clause the root
//! makes unit is enqueued by each check after the unit clauses, and one
//! it falsifies conflicts like an empty clause. A walk that propagates
//! no root has an empty level 0, so its checks are what they were
//! before the root level existed.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

use bcp::{
    Attach, BudgetedPropagation, ClauseRef, ClauseStore, Conflict, Fuel, Propagator, Reason,
    Stopped,
};
use cnf::{Clause, LBool, Lit, Var};

use crate::rat::DratStats;

/// Registry handles for the native checker's metrics, resolved once and
/// shared by every kernel (parallel workers included).
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

/// Why a walk stopped short of its end.
pub(crate) enum Stop {
    /// The terminal check found no conflict.
    NotARefutation,
    /// The addition with index `step` is not implied.
    NotImplied { step: usize, clause: Clause },
    /// The fuel ran out. The marks hold the checks that completed, and
    /// `next` is where the walk resumes: the additions below it for a
    /// backward walk, the step it names for a forward one.
    Interrupted { stopped: Stopped, terminal_done: bool, next: usize, num_checked: usize },
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
#[derive(Debug)]
pub(crate) struct Kernel<P: Propagator> {
    pub(crate) db: P::Store,
    pub(crate) prop: P,
    /// The live unit clauses, which every check enqueues in ascending ref
    /// order: a walk inserts a unit when its clause becomes live and
    /// removes it when the clause dies. [`Kernel::propagate_root`] moves
    /// the ones it finds to the root.
    pub(crate) units: BTreeMap<ClauseRef, Lit>,
    /// The empty clauses; a live one conflicts before any propagation.
    pub(crate) empties: Vec<ClauseRef>,
    /// The clauses the root assignment made unit when they were
    /// attached, with their one non-false literal: every check enqueues
    /// the live ones after `units`, in attach order.
    root_units: Vec<(ClauseRef, Lit)>,
    /// The clauses the root assignment falsifies: a live one conflicts,
    /// after the live empty clauses, before any propagation.
    falsified: Vec<ClauseRef>,
    /// The native checker's discipline: a check on drained fuel stops
    /// before it starts, so a checkpoint lands between checks, and the
    /// checks and marking passes are recorded under `proofver.*`.
    pub(crate) native: bool,
    /// Marked clauses, by ref.
    pub(crate) marked: Vec<bool>,
    /// For each literal, the clauses that contain it in ascending ref
    /// order (a literal a clause repeats lists it again; dead clauses
    /// are skipped at use). [`Kernel::attach`] keeps the lists of a
    /// kernel made by [`Kernel::with_occurrences`]; otherwise they stay
    /// empty until the first RAT check builds them from the store.
    pub(crate) occ: Vec<Vec<ClauseRef>>,
    /// Whether [`Kernel::attach`] keeps `occ`. The walks that keep them
    /// never revive a dead clause, so a RAT check drops the dead entries
    /// it scans; a lazily built list keeps them, because the in-memory
    /// walk undeletes a clause when it crosses its deletion.
    keeps_occ: bool,
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
            root_units: Vec::new(),
            falsified: Vec::new(),
            native: false,
            marked: Vec::new(),
            occ: Vec::new(),
            keeps_occ: false,
            cone: Cone::new(num_vars),
            assumed: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// An empty kernel whose occurrence lists [`Kernel::attach`] keeps.
    pub(crate) fn with_occurrences(num_vars: usize) -> Self {
        Kernel {
            occ: vec![Vec::new(); 2 * num_vars],
            keeps_occ: true,
            ..Kernel::new(num_vars)
        }
    }

    /// Grows the engine and the cone scratch to `num_vars` variables.
    pub(crate) fn ensure_vars(&mut self, num_vars: usize) {
        self.prop.ensure_vars(num_vars);
        self.cone.ensure_vars(num_vars);
    }

    /// Makes the stored clause `r` live: watches it, or records it as a
    /// unit or an empty clause, and lists its occurrences when the
    /// kernel keeps them.
    ///
    /// Over a root level a clause of two or more literals is classified
    /// under the root assignment: its non-false literals move to the
    /// front, where the watches go, and a clause with one of them joins
    /// `root_units` while one with none joins `falsified`, unwatched.
    pub(crate) fn attach(&mut self, r: ClauseRef) {
        // classification sees the root alone, not the last check's
        // assumptions
        self.prop.backtrack_to(0);
        if self.prop.trail().is_empty() || self.db.clause_len(r) < 2 {
            match self.prop.attach_clause(&mut self.db, r) {
                Attach::Watched => {}
                Attach::Unit(l) => {
                    self.units.insert(r, l);
                }
                Attach::Empty => self.empties.push(r),
            }
        } else {
            let root = self.prop.assignment();
            let lits = self.db.lits_mut(r);
            lits.sort_by_key(|&l| root.lit_value(l) == LBool::False);
            let first = lits[0];
            match lits.iter().filter(|&&l| root.lit_value(l) != LBool::False).count() {
                0 => self.falsified.push(r),
                non_false => {
                    self.prop.attach_clause(&mut self.db, r);
                    if non_false == 1 {
                        self.root_units.push((r, first));
                    }
                }
            }
        }
        if self.keeps_occ {
            for &l in self.db.lits(r) {
                self.occ[l.idx()].push(r);
            }
        }
    }

    /// Attaches the stored clauses `refs` that are live, in ref order.
    /// An empty clause is recorded even when deleted: its liveness is
    /// checked at use.
    pub(crate) fn attach_live(&mut self, refs: Range<usize>) {
        for r in refs.map(ClauseRef::from_index) {
            if self.db.clause_len(r) == 0 || !self.db.is_deleted(r) {
                self.attach(r);
            }
        }
    }

    /// Makes the root level: the live unit clauses, `F`'s when a walk
    /// calls this before attaching its proof, are enqueued at level 0 in
    /// ref order and propagated there on `fuel`; every later check
    /// backtracks to this level. Returns whether the root conflicts:
    /// then the live clauses refute themselves by propagation, the
    /// conflict's cone is marked, and its clause joins `falsified`, so
    /// every later check conflicts on it.
    pub(crate) fn propagate_root(&mut self, fuel: &mut Fuel<'_>) -> Result<bool, Stopped> {
        let span = self.native.then(|| obs::span!("proofver.root_propagate"));
        if let Some(stopped) = fuel.stop() {
            return Err(stopped);
        }
        let conflict = match self.empties.iter().find(|r| !self.db.is_deleted(**r)) {
            Some(&r) => Conflict { clause: r },
            None => {
                let units = std::mem::take(&mut self.units);
                match units.iter().try_for_each(|(&r, &l)| self.prop.enqueue_propagated(l, r)) {
                    Err(conflict) => conflict,
                    Ok(()) => match self.propagate(fuel) {
                        Check::Conflict(conflict) => conflict,
                        Check::Interrupted(stopped) => return Err(stopped),
                        Check::NoConflict | Check::Vacuous => return Ok(false),
                    },
                }
            }
        };
        drop(span);
        self.falsified.push(conflict.clause);
        self.mark_conflict(conflict, None);
        Ok(true)
    }

    /// One check over the live clauses: assume `assumptions`, enqueue
    /// the live units and propagate on `fuel`. A native kernel first
    /// stops on drained fuel and records the check when metrics are on.
    pub(crate) fn check(&mut self, assumptions: &[Lit], fuel: &mut Fuel<'_>) -> Check {
        if !self.native {
            return self.check_live(assumptions, fuel);
        }
        let start = obs::metrics::recording().then(Instant::now);
        let check = match fuel.stop() {
            Some(stopped) => Check::Interrupted(stopped),
            None => self.check_live(assumptions, fuel),
        };
        if let Some(start) = start {
            let handles = obs_handles();
            handles.checks.inc();
            handles.check_ns.record(start.elapsed().as_nanos() as u64);
        }
        check
    }

    fn check_live(&mut self, assumptions: &[Lit], fuel: &mut Fuel<'_>) -> Check {
        let live = |r: &&ClauseRef| !self.db.is_deleted(**r);
        if let Some(&r) = self.empties.iter().chain(&self.falsified).find(live) {
            return Check::Conflict(Conflict { clause: r });
        }
        self.prop.backtrack_to(0);
        self.prop.push_level();
        for &l in assumptions {
            match self.prop.value(l) {
                // duplicate assumption, or true at the root
                LBool::True => {}
                // clashing assumptions make the obligation tautological;
                // an assumption the root falsifies conflicts with its
                // reason
                LBool::False => {
                    return match self.prop.reason(l.var()) {
                        Reason::Propagated(r) => Check::Conflict(Conflict { clause: r }),
                        _ => Check::Vacuous,
                    }
                }
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
        for &(r, l) in &self.root_units {
            if !self.db.is_deleted(r) {
                if let Err(conflict) = self.prop.enqueue_propagated(l, r) {
                    return Check::Conflict(conflict);
                }
            }
        }
        self.propagate(fuel)
    }

    /// The terminal check: the live clauses under `assumptions` (a
    /// negated target, or none for a refutation) must conflict. Marks
    /// the conflict's cone, with `hints` as its LRAT ids. `Ok(false)`:
    /// no conflict, so the proof derives neither the empty clause nor
    /// the target.
    pub(crate) fn refutes(
        &mut self,
        assumptions: &[Lit],
        hints: Option<&mut Vec<i64>>,
        fuel: &mut Fuel<'_>,
    ) -> Result<bool, Stopped> {
        match self.check(assumptions, fuel) {
            Check::Conflict(conflict) => self.mark_conflict(conflict, hints),
            // a tautological target is implied with no clause involved
            Check::Vacuous => {}
            Check::NoConflict => return Ok(false),
            Check::Interrupted(stopped) => return Err(stopped),
        }
        Ok(true)
    }

    fn propagate(&mut self, fuel: &mut Fuel<'_>) -> Check {
        match self.prop.propagate_budgeted(&mut self.db, fuel) {
            BudgetedPropagation::Conflict(c) => Check::Conflict(c),
            BudgetedPropagation::Fixpoint => Check::NoConflict,
            BudgetedPropagation::Interrupted(s) => Check::Interrupted(s),
        }
    }

    /// Marks the cone of the conflict the last check found (see
    /// [`Cone::mark`]), counting the pass on a native kernel.
    pub(crate) fn mark_conflict(&mut self, conflict: Conflict, hints: Option<&mut Vec<i64>>) {
        let _span = self.native.then(|| {
            if obs::metrics::recording() {
                obs_handles().marking_passes.inc();
            }
            obs::span!("proofver.mark")
        });
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
        let occ = &mut self.occ[(!pivot).idx()];
        if self.keeps_occ {
            occ.retain(|&r| !self.db.is_deleted(r));
            candidates.extend_from_slice(occ);
        } else {
            candidates.extend(occ.iter().copied().filter(|&r| !self.db.is_deleted(r)));
        }
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

#[cfg(test)]
mod tests {
    use bcp::WatchedPropagator;

    use super::*;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    /// A kernel storing `clauses`: the first `root` are attached and
    /// their units propagated at the root level, then the rest attached.
    fn rooted(clauses: &[&[i32]], root: usize) -> Kernel<WatchedPropagator> {
        let mut kernel: Kernel<WatchedPropagator> = Kernel::new(6);
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&n| lit(n)).collect();
            kernel.db.add_clause(&lits, false);
        }
        kernel.marked = vec![false; clauses.len()];
        kernel.attach_live(0..root);
        assert!(!kernel.propagate_root(&mut Fuel::unlimited()).expect("unlimited fuel"));
        kernel.attach_live(root..clauses.len());
        kernel
    }

    fn conflict(check: Check) -> usize {
        match check {
            Check::Conflict(c) => c.clause.index(),
            _ => panic!("expected a conflict"),
        }
    }

    #[test]
    fn attach_over_a_root_classifies_clauses() {
        // the root of (1), (¬1 ∨ 2) holds 1 and 2
        let clauses: [&[i32]; 5] = [&[1], &[-1, 2], &[-2, 3, -1], &[-1, -2], &[3, 4]];
        let mut kernel = rooted(&clauses, 2);
        let r = ClauseRef::from_index;
        assert_eq!(kernel.root_units, vec![(r(2), lit(3))]);
        assert_eq!(kernel.db.lits(r(2)), &[lit(3), lit(-2), lit(-1)], "non-false first");
        assert_eq!(kernel.falsified, vec![r(3)]);
        assert!(kernel.units.is_empty(), "F's unit is at the root");
        // the falsified clause conflicts before any propagation; once
        // it is dead, the root unit 3 conflicts with the assumption ¬3
        let mut fuel = Fuel::unlimited();
        assert_eq!(conflict(kernel.check(&[], &mut fuel)), 3);
        kernel.db.delete_clause(r(3));
        assert_eq!(conflict(kernel.check(&[lit(-3)], &mut fuel)), 2);
        assert_eq!(fuel.used_propagations, 0);
    }

    #[test]
    fn an_assumption_the_root_falsifies_conflicts_with_its_reason() {
        let mut kernel = rooted(&[&[1], &[-1, 2], &[3, 4]], 3);
        let mut fuel = Fuel::unlimited();
        // ¬2 clashes with the root's 2, whose reason is (¬1 ∨ 2)
        assert_eq!(conflict(kernel.check(&[lit(-2)], &mut fuel)), 1);
        // clashing assumptions still make a tautology, and a root-true
        // one is skipped
        assert!(matches!(kernel.check(&[lit(3), lit(-3)], &mut fuel), Check::Vacuous));
        assert!(matches!(kernel.check(&[lit(2), lit(-3)], &mut fuel), Check::NoConflict));
    }

    #[test]
    fn a_rat_check_drops_the_dead_entries_of_kept_lists() {
        let mut kernel: Kernel<WatchedPropagator> = Kernel::with_occurrences(6);
        for c in [&[-5, 1][..], &[-5, 2], &[-5, 3], &[1, 2]] {
            let lits: Vec<Lit> = c.iter().map(|&n| lit(n)).collect();
            let r = kernel.db.add_clause(&lits, false);
            kernel.attach(r);
        }
        kernel.marked = vec![false; 4];
        let dead = ClauseRef::from_index(1);
        kernel.prop.detach_clause(&kernel.db, dead);
        kernel.db.delete_clause(dead);
        // (5 ∨ ¬1 ∨ ¬3) is not RUP; its resolvents with the live (¬5 ∨ 1)
        // and (¬5 ∨ 3) are tautologies
        let mut stats = DratStats::default();
        let clause = [lit(5), lit(-1), lit(-3)];
        let implied = kernel.implied(&clause, true, None, &mut Fuel::unlimited(), &mut stats);
        assert!(matches!(implied, Implied::Yes));
        let live = [ClauseRef::from_index(0), ClauseRef::from_index(2)];
        assert_eq!(kernel.occ[lit(-5).idx()], live, "only live refs, ascending");
        assert_eq!(kernel.candidates, live);
        assert_eq!(stats.num_resolvent_checks, 2);
        assert_eq!(kernel.marked, [true, false, true, false]);
    }

    #[test]
    fn a_root_conflict_leaves_its_clause_falsified() {
        let mut kernel: Kernel<WatchedPropagator> = Kernel::new(4);
        for c in [&[1][..], &[-1, 2], &[-2], &[3, 4]] {
            let lits: Vec<Lit> = c.iter().map(|&n| lit(n)).collect();
            kernel.db.add_clause(&lits, false);
        }
        kernel.marked = vec![false; 4];
        kernel.attach_live(0..4);
        // the units 1 and ¬2 falsify (¬1 ∨ 2)
        assert!(kernel.propagate_root(&mut Fuel::unlimited()).expect("unlimited fuel"));
        assert_eq!(kernel.marked, [true, true, true, false], "the root conflict's cone");
        assert_eq!(conflict(kernel.check(&[lit(-3)], &mut Fuel::unlimited())), 1);
    }
}
