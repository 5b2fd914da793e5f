//! A flat clause arena shared by propagation engines, the solver, and the
//! proof checker.

use std::fmt;

use cnf::{Clause, CnfFormula, Lit};

/// A stable reference to a clause in a [`ClauseDb`].
///
/// References are dense indices in insertion order, which the proof
/// checker exploits: the clauses of the original formula `F` come first,
/// followed by the conflict clauses of `F*` in chronological order, so
/// a clause's index is also its position in the proof.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// Returns the dense index of this clause.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a reference from a dense index.
    ///
    /// Only meaningful for indices previously returned by
    /// [`ClauseDb::add_clause`] on the same database.
    #[inline]
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        ClauseRef(u32::try_from(index).expect("clause index fits in u32"))
    }
}

impl fmt::Debug for ClauseRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct Header {
    start: u32,
    len: u32,
    deleted: bool,
    learned: bool,
}

/// A clause database storing literals in one flat arena.
///
/// Clauses are immutable once added and can be *deleted*: a lazy flag
/// that the watch lists honour as they are scanned. The solver deletes
/// in its clause-database reduction; the proof checker deletes each
/// proof clause its backward walk retires, and undeletes a clause the
/// walk resurrects.
///
/// # Examples
///
/// ```
/// use bcp::ClauseDb;
/// use cnf::Lit;
///
/// let mut db = ClauseDb::new();
/// let c = db.add_clause(&[Lit::from_dimacs(1), Lit::from_dimacs(-2)], false);
/// assert_eq!(db.lits(c).len(), 2);
/// assert!(!db.is_deleted(c));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClauseDb {
    lits: Vec<Lit>,
    headers: Vec<Header>,
    num_deleted: usize,
}

impl ClauseDb {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        ClauseDb::default()
    }

    /// Creates a database containing all clauses of `formula`, in order,
    /// marked as original (not learned).
    #[must_use]
    pub fn from_formula(formula: &CnfFormula) -> Self {
        let mut db = ClauseDb::new();
        for clause in formula.iter() {
            db.add_clause(clause.lits(), false);
        }
        db
    }

    /// Appends a clause and returns its reference.
    ///
    /// `learned` tags conflict clauses; the solver's deletion policy and
    /// the checker's bookkeeping distinguish original from learned
    /// clauses through this flag.
    pub fn add_clause(&mut self, lits: &[Lit], learned: bool) -> ClauseRef {
        let start = u32::try_from(self.lits.len()).expect("arena fits in u32");
        let len = u32::try_from(lits.len()).expect("clause length fits in u32");
        self.lits.extend_from_slice(lits);
        let r = ClauseRef::from_index(self.headers.len());
        self.headers.push(Header { start, len, deleted: false, learned });
        r
    }

    /// Number of clauses ever added (including deleted ones).
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Returns `true` if no clause was ever added.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Number of clauses currently deleted.
    #[inline]
    #[must_use]
    pub fn num_deleted(&self) -> usize {
        self.num_deleted
    }

    /// The literals of a clause.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not belong to this database.
    #[inline]
    #[must_use]
    pub fn lits(&self, r: ClauseRef) -> &[Lit] {
        let h = &self.headers[r.index()];
        &self.lits[h.start as usize..(h.start + h.len) as usize]
    }

    /// Mutable access to the literals of a clause.
    ///
    /// Propagation engines reorder literals within a clause so that the
    /// watched pair sits at positions 0 and 1; the clause as a *set* is
    /// never changed.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not belong to this database.
    #[inline]
    pub fn lits_mut(&mut self, r: ClauseRef) -> &mut [Lit] {
        let h = &self.headers[r.index()];
        &mut self.lits[h.start as usize..(h.start + h.len) as usize]
    }

    /// The length of a clause.
    #[inline]
    #[must_use]
    pub fn clause_len(&self, r: ClauseRef) -> usize {
        self.headers[r.index()].len as usize
    }

    /// Returns `true` if the clause was tagged as learned when added.
    #[inline]
    #[must_use]
    pub fn is_learned(&self, r: ClauseRef) -> bool {
        self.headers[r.index()].learned
    }

    /// Returns `true` if the clause has been deleted.
    #[inline]
    #[must_use]
    pub fn is_deleted(&self, r: ClauseRef) -> bool {
        self.headers[r.index()].deleted
    }

    /// Marks a clause deleted. Watch lists clean themselves lazily.
    pub fn delete_clause(&mut self, r: ClauseRef) {
        let h = &mut self.headers[r.index()];
        if !h.deleted {
            h.deleted = true;
            self.num_deleted += 1;
        }
    }

    /// Reverses a deletion — used by the deletion-aware proof checker,
    /// which walks proof events *backward* and must resurrect clauses at
    /// their deletion points. Callers that watch clauses must re-attach
    /// them (deletion may have lazily purged the watch entries).
    pub fn undelete_clause(&mut self, r: ClauseRef) {
        let h = &mut self.headers[r.index()];
        if h.deleted {
            h.deleted = false;
            self.num_deleted -= 1;
        }
    }

    /// Iterates over all clause references, including deleted ones.
    pub fn refs(&self) -> impl Iterator<Item = ClauseRef> {
        (0..self.headers.len()).map(ClauseRef::from_index)
    }

    /// Materialises a clause as an owned [`Clause`].
    #[must_use]
    pub fn to_clause(&self, r: ClauseRef) -> Clause {
        Clause::new(self.lits(r).to_vec())
    }

    /// Total number of literal slots in the arena (a memory metric).
    #[inline]
    #[must_use]
    pub fn arena_len(&self) -> usize {
        self.lits.len()
    }
}

impl crate::engine::ClauseStore for ClauseDb {
    fn new() -> Self {
        ClauseDb::new()
    }

    fn from_formula(formula: &CnfFormula) -> Self {
        ClauseDb::from_formula(formula)
    }

    fn add_clause(&mut self, lits: &[Lit], learned: bool) -> ClauseRef {
        ClauseDb::add_clause(self, lits, learned)
    }

    fn len(&self) -> usize {
        ClauseDb::len(self)
    }

    fn lits(&self, r: ClauseRef) -> &[Lit] {
        ClauseDb::lits(self, r)
    }

    fn lits_mut(&mut self, r: ClauseRef) -> &mut [Lit] {
        ClauseDb::lits_mut(self, r)
    }

    fn clause_len(&self, r: ClauseRef) -> usize {
        ClauseDb::clause_len(self, r)
    }

    fn is_learned(&self, r: ClauseRef) -> bool {
        ClauseDb::is_learned(self, r)
    }

    fn is_deleted(&self, r: ClauseRef) -> bool {
        ClauseDb::is_deleted(self, r)
    }

    fn delete_clause(&mut self, r: ClauseRef) {
        ClauseDb::delete_clause(self, r);
    }

    fn undelete_clause(&mut self, r: ClauseRef) {
        ClauseDb::undelete_clause(self, r);
    }

    fn arena_len(&self) -> usize {
        ClauseDb::arena_len(self)
    }

    fn garbage_len(&self) -> usize {
        self.headers
            .iter()
            .filter(|h| h.deleted)
            .map(|h| h.len as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(names: &[i32]) -> Vec<Lit> {
        names.iter().map(|&n| Lit::from_dimacs(n)).collect()
    }

    #[test]
    fn add_and_read_back() {
        let mut db = ClauseDb::new();
        let a = db.add_clause(&lits(&[1, -2, 3]), false);
        let b = db.add_clause(&lits(&[-1]), true);
        assert_eq!(db.len(), 2);
        assert_eq!(db.lits(a), lits(&[1, -2, 3]).as_slice());
        assert_eq!(db.lits(b), lits(&[-1]).as_slice());
        assert_eq!(db.clause_len(a), 3);
        assert!(!db.is_learned(a));
        assert!(db.is_learned(b));
        assert_eq!(db.arena_len(), 4);
    }

    #[test]
    fn refs_are_dense_insertion_order() {
        let mut db = ClauseDb::new();
        let a = db.add_clause(&lits(&[1]), false);
        let b = db.add_clause(&lits(&[2]), false);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(ClauseRef::from_index(1), b);
    }

    #[test]
    fn deletion_is_lazy_flag() {
        let mut db = ClauseDb::new();
        let a = db.add_clause(&lits(&[1, 2]), false);
        assert!(!db.is_deleted(a));
        db.delete_clause(a);
        assert!(db.is_deleted(a));
        assert_eq!(db.num_deleted(), 1);
        // double delete counts once
        db.delete_clause(a);
        assert_eq!(db.num_deleted(), 1);
        // literals remain readable after deletion
        assert_eq!(db.lits(a), lits(&[1, 2]).as_slice());
    }

    #[test]
    fn from_formula_preserves_order() {
        let f = CnfFormula::from_dimacs_clauses(&[vec![1, 2], vec![-1], vec![2, 3]]);
        let db = ClauseDb::from_formula(&f);
        assert_eq!(db.len(), 3);
        for (i, c) in f.iter().enumerate() {
            assert_eq!(db.lits(ClauseRef::from_index(i)), c.lits());
            assert!(!db.is_learned(ClauseRef::from_index(i)));
        }
    }

    #[test]
    fn to_clause_roundtrip() {
        let mut db = ClauseDb::new();
        let r = db.add_clause(&lits(&[4, -1]), false);
        assert_eq!(db.to_clause(r), Clause::from_dimacs(&[4, -1]));
    }

    #[test]
    fn empty_clause_is_representable() {
        let mut db = ClauseDb::new();
        let r = db.add_clause(&[], false);
        assert_eq!(db.clause_len(r), 0);
        assert!(db.lits(r).is_empty());
    }
}
