//! The propagation-engine abstraction: a clause-storage trait and a
//! propagator trait over it.
//!
//! The proof checker (`proofver` crate) is generic over the BCP engine —
//! the paper's procedures need nothing from it beyond attach/assume/
//! propagate/backtrack plus reason lookups for conflict-cone marking.
//! Two engine families implement the pair of traits:
//!
//! * [`WatchedPropagator`](crate::WatchedPropagator) over
//!   [`ClauseDb`](crate::ClauseDb) — header-table storage, the original
//!   layout and the solver's engine;
//! * [`ArenaWatchedPropagator`](crate::ArenaWatchedPropagator) over
//!   [`ClauseArena`](crate::ClauseArena) — flat inline-header storage
//!   with blocking literals, offset-based watches and binary watch
//!   entries: the engine every proof check runs on.
//!
//! The counting and head-tail engines stay outside the trait: they do
//! not record reasons, so they cannot serve the checker's conflict-cone
//! marking; they remain ablation baselines with concrete APIs.

use std::fmt::Debug;

use cnf::{Assignment, CnfFormula, LBool, Lit, Var};

use crate::clause_db::ClauseRef;
use crate::propagator::{Attach, BudgetedPropagation, Conflict, Fuel, Reason};

/// Which propagation engine a checker should run on. Every check a
/// user runs takes the default, the arena engine; callers that compare
/// the engines (benchmarks, golden tests, ablations) name one.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PropagatorChoice {
    /// Two-watched-literal engine over header-table storage
    /// ([`WatchedPropagator`](crate::WatchedPropagator)), the solver's.
    Watched,
    /// Two-watched-literal engine with blocking literals over the flat
    /// clause arena ([`ArenaWatchedPropagator`](crate::ArenaWatchedPropagator));
    /// the default.
    #[default]
    ArenaWatched,
}

impl std::fmt::Display for PropagatorChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PropagatorChoice::Watched => write!(f, "watched"),
            PropagatorChoice::ArenaWatched => write!(f, "arena"),
        }
    }
}

/// Iterator over the dense clause references of a store.
#[derive(Clone, Debug)]
pub struct ClauseRefs(std::ops::Range<u32>);

impl Iterator for ClauseRefs {
    type Item = ClauseRef;

    fn next(&mut self) -> Option<ClauseRef> {
        self.0.next().map(|i| ClauseRef::from_index(i as usize))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for ClauseRefs {}

/// Clause storage as the checker sees it: append-only dense-indexed
/// clauses with lazy, reversible deletion.
///
/// The dense index contract is load-bearing: [`ClauseRef`]s are
/// insertion-order indices (`ClauseRef::from_index(i)` is the `i`-th
/// clause ever added), so the checker's mark bitmap and unit lists are
/// plain index arithmetic regardless of how the store lays clauses out
/// in memory.
pub trait ClauseStore: Debug {
    /// Creates an empty store.
    fn new() -> Self;

    /// Creates a store containing all clauses of `formula`, in order,
    /// marked original.
    fn from_formula(formula: &CnfFormula) -> Self;

    /// Appends a clause and returns its (dense, insertion-order)
    /// reference.
    fn add_clause(&mut self, lits: &[Lit], learned: bool) -> ClauseRef;

    /// Number of clauses ever added (including deleted ones).
    fn len(&self) -> usize;

    /// Returns `true` if no clause was ever added.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The literals of a clause.
    fn lits(&self, r: ClauseRef) -> &[Lit];

    /// Mutable access to a clause's literals (engines reorder literals;
    /// the clause as a set never changes).
    fn lits_mut(&mut self, r: ClauseRef) -> &mut [Lit];

    /// The length of a clause.
    fn clause_len(&self, r: ClauseRef) -> usize;

    /// Returns `true` if the clause was tagged learned when added.
    fn is_learned(&self, r: ClauseRef) -> bool;

    /// Returns `true` if the clause has been deleted.
    fn is_deleted(&self, r: ClauseRef) -> bool;

    /// Marks a clause deleted (lazy — watch lists clean up on the fly).
    fn delete_clause(&mut self, r: ClauseRef);

    /// Reverses a deletion; callers that watch clauses must re-attach.
    fn undelete_clause(&mut self, r: ClauseRef);

    /// Total arena word count — the store's memory metric, in `u32`
    /// words (literal slots plus any inline headers).
    fn arena_len(&self) -> usize;

    /// Arena words occupied by deleted-but-unreclaimed clauses — what a
    /// store rebuild would give back. The streaming checker uses this to
    /// decide whether rebuilding is worth it before shrinking its window.
    fn garbage_len(&self) -> usize;

    /// Iterates over all clause references, including deleted ones.
    fn refs(&self) -> ClauseRefs {
        ClauseRefs(0..u32::try_from(self.len()).expect("store fits in u32"))
    }
}

/// A trail-based BCP engine the proof checker can drive.
///
/// The engine owns the assignment, trail, and per-variable reason/level
/// bookkeeping; clauses live in the associated [`ClauseStore`], which the
/// caller owns and passes into each propagation call.
pub trait Propagator: Debug {
    /// The clause layout this engine propagates over.
    type Store: ClauseStore;

    /// Creates an engine over `num_vars` variables, all unassigned.
    fn new(num_vars: usize) -> Self;

    /// Grows the engine to cover `num_vars` variables.
    fn ensure_vars(&mut self, num_vars: usize);

    /// The current partial assignment.
    fn assignment(&self) -> &Assignment;

    /// The value of a literal.
    fn value(&self, lit: Lit) -> LBool {
        self.assignment().lit_value(lit)
    }

    /// The trail of assigned literals, oldest first.
    fn trail(&self) -> &[Lit];

    /// The current decision level (0 = root).
    fn decision_level(&self) -> u32;

    /// The reason recorded for an assigned variable.
    fn reason(&self, var: Var) -> Reason;

    /// The decision level at which a variable was assigned.
    fn level(&self, var: Var) -> u32;

    /// Number of clauses visited by propagation so far.
    fn num_clause_visits(&self) -> u64;

    /// Opens a new decision level without assigning anything.
    fn push_level(&mut self);

    /// Makes a decision: opens a new level and assigns `lit` true.
    fn decide(&mut self, lit: Lit);

    /// Assumes `lit` at the current level; `false` means `lit` is
    /// already false (see
    /// [`WatchedPropagator::assume`](crate::WatchedPropagator::assume)).
    #[must_use]
    fn assume(&mut self, lit: Lit) -> bool;

    /// Enqueues a propagated literal with its reason clause.
    ///
    /// # Errors
    ///
    /// Returns the conflict if `lit` is already false.
    fn enqueue_propagated(&mut self, lit: Lit, cref: ClauseRef) -> Result<(), Conflict>;

    /// Attaches a clause to the engine's watch structures.
    fn attach_clause(&mut self, db: &mut Self::Store, cref: ClauseRef) -> Attach;

    /// Eagerly removes a clause's watch entries — required before a
    /// deletion that may later be undone (see
    /// [`WatchedPropagator::detach_clause`](crate::WatchedPropagator::detach_clause)).
    fn detach_clause(&mut self, db: &Self::Store, cref: ClauseRef);

    /// Runs BCP to fixpoint; returns the first conflict found.
    fn propagate(&mut self, db: &mut Self::Store) -> Option<Conflict>;

    /// Like [`Propagator::propagate`], but metered by `fuel`.
    fn propagate_budgeted(
        &mut self,
        db: &mut Self::Store,
        fuel: &mut Fuel<'_>,
    ) -> BudgetedPropagation;

    /// Undoes all assignments above `level` and truncates the trail.
    fn backtrack_to(&mut self, level: u32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_displays_and_defaults_to_the_arena() {
        assert_eq!(PropagatorChoice::Watched.to_string(), "watched");
        assert_eq!(PropagatorChoice::ArenaWatched.to_string(), "arena");
        assert_eq!(PropagatorChoice::default(), PropagatorChoice::ArenaWatched);
    }

    #[test]
    fn clause_refs_iterates_densely() {
        let refs: Vec<_> = ClauseRefs(0..3).collect();
        assert_eq!(refs.len(), 3);
        assert_eq!(refs[2].index(), 2);
    }
}
