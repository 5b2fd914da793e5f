//! Boolean constraint propagation engines.
//!
//! BCP is the *only* procedure one needs to implement to verify a
//! conflict-clause proof (Goldberg & Novikov, DATE 2003, §1) — this crate
//! provides it twice:
//!
//! * [`WatchedPropagator`] — the two-watched-literal scheme of Chaff,
//!   which the paper's §6 adopts because proof clauses are long and
//!   watched literals avoid touching them;
//! * [`ArenaWatchedPropagator`] — the same scheme over a flat
//!   [`ClauseArena`] with blocking literals and offset-based watch
//!   entries, the raw-speed layout;
//! * [`CountingPropagator`] — the classical counter-based scheme, kept as
//!   the ablation baseline.
//!
//! Clauses live in a [`ClauseDb`] or [`ClauseArena`] store owned by the
//! caller, so the CDCL solver (`cdcl` crate) and the proof checker
//! (`proofver` crate) can add, delete and undelete clauses between
//! propagations. The [`ClauseStore`] and [`Propagator`] traits abstract
//! over the two layouts; [`PropagatorChoice`] is the runtime switch.
//!
//! # Examples
//!
//! Propagate a chain of implications:
//!
//! ```
//! use bcp::{Attach, ClauseDb, WatchedPropagator};
//! use cnf::{CnfFormula, Lit};
//!
//! let f = CnfFormula::from_dimacs_clauses(&[vec![-1, 2], vec![-2, 3]]);
//! let mut db = ClauseDb::from_formula(&f);
//! let mut engine = WatchedPropagator::new(f.num_vars());
//! for r in db.refs().collect::<Vec<_>>() {
//!     assert_eq!(engine.attach_clause(&mut db, r), Attach::Watched);
//! }
//! engine.decide(Lit::from_dimacs(1));
//! assert!(engine.propagate(&mut db).is_none());
//! assert!(engine.assignment().is_true(Lit::from_dimacs(3)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod clause_db;
mod counting;
mod engine;
mod head_tail;
mod propagator;

pub use arena::{ArenaWatchedPropagator, BulkAttach, ClauseArena, View};
pub use clause_db::{ClauseDb, ClauseRef};
pub use counting::CountingPropagator;
pub use engine::{ClauseRefs, ClauseStore, Propagator, PropagatorChoice};
pub use head_tail::HeadTailPropagator;
pub use propagator::{
    Attach, BudgetedPropagation, Conflict, Fuel, Reason, Stopped, WatchedPropagator,
};
