//! Differential property tests: the arena-watched engine must propagate
//! exactly as the boxed watched-literal engine does — the same trail in
//! the same order, the same reason for every literal, the
//! same conflict clause and the same clause-visit count after every
//! propagation, budgeted or not — and derive the same implications and
//! conflicts as the counting baseline. The proof checker's goldens rest
//! on this: both engines must mark the same conflict cones.
//!
//! The formulas are random k-SAT, binary-heavy random formulas (binary
//! clauses with a repeated literal and tautologies included), and the
//! pigeonhole and mutilated-chessboard families; the engines are
//! compared across clause deletion and undeletion (as the backward walk
//! resurrects clauses), detaching and arena compaction. The arena is a
//! layout change, never a behavioural one.

use bcp::{
    ArenaWatchedPropagator, Attach, BudgetedPropagation, ClauseArena, ClauseDb, ClauseRef,
    ClauseStore, CountingPropagator, Fuel, Propagator, WatchedPropagator,
};
use cnf::{CnfFormula, LBool, Lit, Var};
use cnfgen::{mutilated_chessboard, pigeonhole, random_ksat};
use proptest::prelude::*;

fn dimacs_lit(n: i32) -> impl Strategy<Value = i32> {
    (1..=n).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)])
}

fn formula_strategy(max_var: i32) -> impl Strategy<Value = CnfFormula> {
    clauses_strategy(prop::collection::vec(dimacs_lit(max_var), 1..=4), max_var)
}

/// Mostly binary clauses over few variables, so binary clauses with a
/// repeated literal (`x ∨ x`) and tautologies (`x ∨ ¬x`) come up often.
fn binary_heavy_strategy(max_var: i32) -> impl Strategy<Value = CnfFormula> {
    let clause = prop_oneof![
        1 => prop::collection::vec(dimacs_lit(max_var), 1..=1),
        6 => prop::collection::vec(dimacs_lit(max_var), 2..=2),
        2 => prop::collection::vec(dimacs_lit(max_var), 3..=3),
    ];
    clauses_strategy(clause, max_var)
}

fn clauses_strategy(
    clause: impl Strategy<Value = Vec<i32>>,
    max_var: i32,
) -> impl Strategy<Value = CnfFormula> {
    prop::collection::vec(clause, 1..30).prop_map(move |cs| {
        let mut f = CnfFormula::from_dimacs_clauses(&cs);
        f.ensure_var(Var::new(max_var as u32 - 1));
        f
    })
}

fn setup_watched(f: &CnfFormula) -> Option<(ClauseDb, WatchedPropagator)> {
    let mut db = ClauseDb::from_formula(f);
    let mut p = WatchedPropagator::new(f.num_vars());
    let refs: Vec<_> = db.refs().collect();
    for r in refs {
        match p.attach_clause(&mut db, r) {
            Attach::Watched => {}
            Attach::Unit(l) => {
                if p.enqueue_propagated(l, r).is_err() {
                    return None; // conflicting root units: skip case
                }
            }
            Attach::Empty => return None,
        }
    }
    Some((db, p))
}

fn setup_arena(f: &CnfFormula) -> Option<(ClauseArena, ArenaWatchedPropagator)> {
    let mut db = ClauseArena::from_formula(f);
    let mut p = ArenaWatchedPropagator::new(f.num_vars());
    let bulk = p.attach_all(&mut db);
    if !bulk.empties.is_empty() {
        return None;
    }
    for (r, l) in bulk.units {
        if p.enqueue_propagated(l, r).is_err() {
            return None;
        }
    }
    Some((db, p))
}

fn setup_counting(f: &CnfFormula) -> Option<(ClauseDb, CountingPropagator)> {
    let db = ClauseDb::from_formula(f);
    let mut p = CountingPropagator::new(f.num_vars());
    p.attach_all(&db);
    for r in db.refs() {
        if db.clause_len(r) == 1 && p.enqueue_unit(db.lits(r)[0], r).is_err() {
            return None;
        }
    }
    Some((db, p))
}

/// How a step propagates: plainly, on unlimited fuel, or on fuel capped
/// at a few queue pops or clause visits.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Plain,
    Unlimited,
    Pops(u64),
    Visits(u64),
}

fn mode_strategy() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::Plain),
        Just(Mode::Unlimited),
        (0u64..4).prop_map(Mode::Pops),
        (0u64..6).prop_map(Mode::Visits),
    ]
}

/// The boxed watched engine and the arena engine over the same formula,
/// driven in lockstep.
struct Pair {
    db_w: ClauseDb,
    w: WatchedPropagator,
    db_a: ClauseArena,
    a: ArenaWatchedPropagator,
}

impl Pair {
    /// Both engines with every clause attached and the root units
    /// enqueued; `None` when the root units clash or a clause is empty
    /// (both engines must agree on that).
    fn new(f: &CnfFormula) -> Option<Pair> {
        let (sw, sa) = (setup_watched(f), setup_arena(f));
        assert_eq!(sw.is_some(), sa.is_some(), "root setup parity");
        let ((db_w, w), (db_a, a)) = (sw?, sa?);
        let pair = Pair { db_w, w, db_a, a };
        pair.assert_same_state("after setup");
        Some(pair)
    }

    /// Asserts the same trail, in order, with the same reason for every
    /// literal, and the same clause-visit count.
    fn assert_same_state(&self, context: &str) {
        assert_eq!(self.w.trail(), self.a.trail(), "{context}: trails differ");
        for &l in self.w.trail() {
            let v = l.var();
            assert_eq!(
                self.w.reason(v),
                Propagator::reason(&self.a, v),
                "{context}: reason of {l}"
            );
        }
        assert_eq!(
            self.w.num_clause_visits(),
            Propagator::num_clause_visits(&self.a),
            "{context}: clause visits differ"
        );
    }

    /// Propagates both engines in `mode` and asserts the same outcome
    /// (the same conflict clause, or the same stop), the same fuel spent
    /// and the same state. Returns whether the caller must backtrack.
    fn propagate(&mut self, mode: Mode, context: &str) -> bool {
        let (cap_pops, cap_visits) = match mode {
            Mode::Plain => {
                let cw = self.w.propagate(&mut self.db_w);
                let ca = Propagator::propagate(&mut self.a, &mut self.db_a);
                assert_eq!(cw, ca, "{context}: conflicts differ");
                self.assert_same_state(context);
                return cw.is_some();
            }
            Mode::Unlimited => (u64::MAX, u64::MAX),
            Mode::Pops(n) => (n, u64::MAX),
            Mode::Visits(n) => (u64::MAX, n),
        };
        let fuel = || Fuel {
            max_propagations: cap_pops,
            max_clause_visits: cap_visits,
            ..Fuel::unlimited()
        };
        let (mut fuel_w, mut fuel_a) = (fuel(), fuel());
        let ow = self.w.propagate_budgeted(&mut self.db_w, &mut fuel_w);
        let oa = self.a.propagate_budgeted(&mut self.db_a, &mut fuel_a);
        assert_eq!(ow, oa, "{context}: budgeted outcomes differ");
        assert_eq!(
            fuel_w.used_propagations, fuel_a.used_propagations,
            "{context}: pops"
        );
        assert_eq!(
            fuel_w.used_clause_visits, fuel_a.used_clause_visits,
            "{context}: visits"
        );
        self.assert_same_state(context);
        ow != BudgetedPropagation::Fixpoint
    }

    /// Decides each unassigned literal of `schedule` in turn and
    /// propagates in the matching mode, comparing after every step; a
    /// conflict or an interruption backtracks one level.
    fn drive(&mut self, schedule: &[Lit], modes: &[Mode]) {
        for (i, &lit) in schedule.iter().enumerate() {
            if !self.w.assignment().is_unassigned(lit) {
                continue;
            }
            self.w.decide(lit);
            self.a.decide(lit);
            let mode = modes.get(i).copied().unwrap_or(Mode::Plain);
            if self.propagate(mode, &format!("after deciding {lit} ({mode:?})")) {
                let level = self.w.decision_level() - 1;
                self.w.backtrack_to(level);
                self.a.backtrack_to(level);
                self.assert_same_state("after backtracking");
            }
        }
    }

    /// Root propagation; returns whether the root conflicts.
    fn root(&mut self) -> bool {
        self.propagate(Mode::Plain, "at the root")
    }

    /// Back to level 0 on both engines.
    fn reset(&mut self) {
        self.w.backtrack_to(0);
        self.a.backtrack_to(0);
    }

    fn refs(&self) -> Vec<ClauseRef> {
        self.db_w.refs().collect()
    }

    fn detach(&mut self, r: ClauseRef) {
        self.w.detach_clause(&self.db_w, r);
        self.a.detach_clause(&self.db_a, r);
    }

    fn delete(&mut self, r: ClauseRef) {
        self.db_w.delete_clause(r);
        self.db_a.delete_clause(r);
    }

    /// Undeletes and re-attaches `r`, as the backward walk resurrects a
    /// clause. Any entry a lazy deletion left behind is detached first.
    fn resurrect(&mut self, r: ClauseRef) {
        self.detach(r);
        self.db_w.undelete_clause(r);
        self.db_a.undelete_clause(r);
        self.attach(r);
    }

    fn attach(&mut self, r: ClauseRef) {
        let aw = self.w.attach_clause(&mut self.db_w, r);
        let aa = self.a.attach_clause(&mut self.db_a, r);
        assert_eq!(aw, aa, "attach of {r:?}");
    }
}

fn lits(schedule: &[i32]) -> Vec<Lit> {
    schedule.iter().map(|&d| Lit::from_dimacs(d)).collect()
}

/// A fixed but var-count-aware decision schedule for the named families.
fn family_schedule(num_vars: usize) -> Vec<Lit> {
    (0..num_vars)
        .map(|i| {
            let v = Var::new(((i * 7) % num_vars) as u32);
            v.lit(i % 3 == 0)
        })
        .collect()
}

/// Runs the full differential harness (root propagation + schedule,
/// plain and on unlimited fuel) on one formula.
fn check_family(f: &CnfFormula) {
    for mode in [Mode::Plain, Mode::Unlimited] {
        let Some(mut pair) = Pair::new(f) else {
            return;
        };
        if pair.root() {
            return;
        }
        let schedule = family_schedule(f.num_vars());
        pair.drive(&schedule, &vec![mode; schedule.len()]);
    }
}

#[test]
fn pigeonhole_family_agrees() {
    for holes in 2..=6 {
        check_family(&pigeonhole(holes));
    }
}

#[test]
fn chessboard_family_agrees() {
    for n in [2, 4, 6] {
        check_family(&mutilated_chessboard(n));
    }
}

#[test]
fn random_ksat_family_agrees() {
    for seed in 0..8 {
        check_family(&random_ksat(3, 50, 180, seed));
    }
}

#[test]
fn binary_clauses_with_a_repeated_literal_or_both_polarities() {
    // (1 ∨ 1) conflicts as soon as 1 is false; (2 ∨ ¬2) holds under
    // any value; deciding 1 forces 3, and then ¬4 forces 5
    let f =
        CnfFormula::from_dimacs_clauses(&[vec![2, -2], vec![1, 1], vec![-1, 3], vec![-3, 4, 5]]);
    let mut pair = Pair::new(&f).expect("no root conflict");
    pair.w.decide(Lit::from_dimacs(-1));
    pair.a.decide(Lit::from_dimacs(-1));
    assert!(
        pair.propagate(Mode::Plain, "(1 ∨ 1) falsified"),
        "a repeated literal conflicts"
    );
    pair.reset();
    pair.drive(
        &lits(&[1, -4, 2, -2]),
        &[Mode::Plain, Mode::Unlimited, Mode::Plain, Mode::Plain],
    );
    assert!(pair.a.assignment().is_true(Lit::from_dimacs(5)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arena-watched, boxed-watched, and counting engines agree on every
    /// implication and every conflict over random formulas and
    /// decisions; the two watched engines also on every trail, reason
    /// and conflict clause.
    #[test]
    fn arena_agrees_with_watched_and_counting(
        f in formula_strategy(8),
        decisions in prop::collection::vec(dimacs_lit(8), 1..8),
    ) {
        let (Some(mut pair), Some((db_c, mut c))) = (Pair::new(&f), setup_counting(&f)) else {
            return Ok(()); // degenerate root conflict; nothing to compare
        };
        let root = pair.root();
        prop_assert_eq!(root, c.propagate(&db_c).is_some(), "root conflict parity (counting)");
        if root {
            return Ok(());
        }
        for d in decisions {
            let lit = Lit::from_dimacs(d);
            if !pair.w.assignment().is_unassigned(lit) {
                continue;
            }
            pair.w.decide(lit);
            pair.a.decide(lit);
            c.decide(lit);
            let conflict = pair.propagate(Mode::Plain, &format!("after {d}"));
            prop_assert_eq!(conflict, c.propagate(&db_c).is_some(), "counting conflict parity after {}", d);
            if conflict {
                break;
            }
            for v in 0..f.num_vars() {
                let l = Var::new(v as u32).positive();
                prop_assert_eq!(pair.w.value(l), c.value(l), "counting disagrees on {}", l);
            }
        }
    }

    /// Step-for-step agreement on binary-heavy formulas, every
    /// propagation plain or budgeted.
    #[test]
    fn arena_agrees_step_by_step_on_binary_heavy_formulas(
        f in binary_heavy_strategy(6),
        decisions in prop::collection::vec(dimacs_lit(6), 1..10),
        modes in prop::collection::vec(mode_strategy(), 10),
    ) {
        let Some(mut pair) = Pair::new(&f) else {
            return Ok(());
        };
        if pair.root() {
            return Ok(());
        }
        pair.drive(&lits(&decisions), &modes);
    }

    /// Agreement survives clause deletion and undeletion: the engines
    /// drop the deleted clauses (watched lazily, arena via its deleted
    /// map or garbage bit; some eagerly detached first), propagate
    /// identically, and again once every deleted clause is resurrected
    /// as the backward walk does it.
    #[test]
    fn arena_agrees_after_deletions(
        f in binary_heavy_strategy(6),
        decisions in prop::collection::vec(dimacs_lit(6), 1..8),
        modes in prop::collection::vec(mode_strategy(), 8),
        delete_mask in prop::collection::vec(0u8..3, 29),
    ) {
        let Some(mut pair) = Pair::new(&f) else {
            return Ok(());
        };
        if pair.root() {
            return Ok(());
        }
        // Deletion happens at decision level 0 with a drained queue.
        pair.reset();
        let mut deleted = Vec::new();
        for r in pair.refs() {
            // 0 keeps the clause, 1 deletes it lazily, 2 detaches first
            let how = delete_mask[r.index()];
            if how > 0 && pair.db_w.clause_len(r) >= 2 {
                if how == 2 {
                    pair.detach(r);
                }
                pair.delete(r);
                deleted.push(r);
            }
        }
        let schedule = lits(&decisions);
        pair.drive(&schedule, &modes);
        pair.reset();
        for &r in deleted.iter().rev() {
            pair.resurrect(r);
        }
        pair.drive(&schedule, &modes);
    }

    /// Agreement survives detaching live clauses and re-attaching them.
    #[test]
    fn arena_agrees_after_detach_and_reattach(
        f in binary_heavy_strategy(6),
        decisions in prop::collection::vec(dimacs_lit(6), 1..8),
        modes in prop::collection::vec(mode_strategy(), 8),
        detach_mask in prop::collection::vec(any::<bool>(), 29),
    ) {
        let Some(mut pair) = Pair::new(&f) else {
            return Ok(());
        };
        if pair.root() {
            return Ok(());
        }
        pair.reset();
        let detached: Vec<ClauseRef> = pair
            .refs()
            .into_iter()
            .filter(|r| detach_mask[r.index()] && pair.db_w.clause_len(*r) >= 2)
            .collect();
        for &r in &detached {
            pair.detach(r);
        }
        let schedule = lits(&decisions);
        pair.drive(&schedule, &modes);
        pair.reset();
        for &r in &detached {
            pair.attach(r);
        }
        pair.drive(&schedule, &modes);
    }

    /// Agreement survives compaction: after deleting clauses and
    /// compacting the arena (which rewrites every offset and remaps the
    /// watch lists of longer clauses), the engines still agree step by
    /// step on a fresh schedule, and compaction kept every surviving
    /// arena clause verbatim. The two stores need not list a clause's
    /// literals in the same order: the arena engine never reorders a
    /// binary clause, so each arena clause is compared with its own
    /// content before compaction.
    #[test]
    fn arena_agrees_after_compaction(
        f in binary_heavy_strategy(8),
        decisions in prop::collection::vec(dimacs_lit(8), 1..8),
        modes in prop::collection::vec(mode_strategy(), 8),
        delete_mask in prop::collection::vec(any::<bool>(), 29),
    ) {
        let Some(mut pair) = Pair::new(&f) else {
            return Ok(());
        };
        if pair.root() {
            return Ok(());
        }
        pair.reset();
        for r in pair.refs() {
            if delete_mask[r.index()] {
                pair.delete(r);
            }
        }
        let before: Vec<Vec<Lit>> =
            pair.refs().iter().map(|&r| pair.db_a.lits(r).to_vec()).collect();
        pair.a.compact(&mut pair.db_a);
        prop_assert_eq!(pair.db_a.garbage_words(), 0);
        for r in pair.refs() {
            prop_assert_eq!(pair.db_a.is_deleted(r), pair.db_w.is_deleted(r));
            if !pair.db_a.is_deleted(r) {
                prop_assert_eq!(pair.db_a.lits(r), before[r.index()].as_slice());
            }
        }
        pair.drive(&lits(&decisions), &modes);
    }

    /// The arena engine's budgeted propagation is deterministic and, at
    /// fixpoint, matches its unbudgeted result.
    #[test]
    fn arena_budgeted_matches_unbudgeted(
        f in formula_strategy(8),
        decisions in prop::collection::vec(dimacs_lit(8), 1..6),
    ) {
        let (Some((mut db_a, mut a)), Some((mut db_b, mut b))) =
            (setup_arena(&f), setup_arena(&f))
        else {
            return Ok(());
        };
        let mut fuel = Fuel::unlimited();
        let ca = Propagator::propagate(&mut a, &mut db_a);
        let cb = match b.propagate_budgeted(&mut db_b, &mut fuel) {
            BudgetedPropagation::Conflict(c) => Some(c),
            BudgetedPropagation::Fixpoint => None,
            BudgetedPropagation::Interrupted(_) => unreachable!("unlimited fuel"),
        };
        prop_assert_eq!(ca, cb);
        if ca.is_some() {
            return Ok(());
        }
        for d in decisions {
            let lit = Lit::from_dimacs(d);
            if a.assignment().lit_value(lit) != LBool::Unassigned {
                continue;
            }
            a.decide(lit);
            b.decide(lit);
            let ca = Propagator::propagate(&mut a, &mut db_a);
            let cb = match b.propagate_budgeted(&mut db_b, &mut fuel) {
                BudgetedPropagation::Conflict(c) => Some(c),
                BudgetedPropagation::Fixpoint => None,
                BudgetedPropagation::Interrupted(_) => unreachable!("unlimited fuel"),
            };
            prop_assert_eq!(ca, cb, "budgeted parity after {}", d);
            prop_assert_eq!(Propagator::trail(&a), Propagator::trail(&b), "budgeted trail after {}", d);
            if ca.is_some() {
                break;
            }
        }
    }
}
