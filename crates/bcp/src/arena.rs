//! Flat clause arena with blocking-literal watches — the propagation
//! engine every proof check runs on.
//!
//! [`ClauseArena`] packs every clause into one contiguous `u32` word
//! stream: a header word (length, learned flag, garbage flag), a dense
//! clause-index word, then the literals. A dense per-clause deleted map
//! beside it answers [`ClauseStore::is_deleted`] with one load. Watch
//! entries of a clause of three or more literals hold the *arena offset*
//! of its first literal, so the hot loop goes straight from a watch
//! entry to the literals with a single indexed load — no header-table
//! indirection. Each entry also carries a *blocking literal* (Chaff's
//! optimisation as refined by MiniSat/DRAT-trim): if the blocker is
//! already true the clause is satisfied and the arena is never touched
//! at all. A binary clause's two entries hold its dense [`ClauseRef`],
//! tagged, with the other literal as the blocker: the entry alone says
//! what the clause implies, so the loop resolves it where it stands and
//! never reads the arena for it.
//!
//! Invariants (see DESIGN.md §"Arena clause storage"):
//!
//! * **Handle stability** — [`ClauseRef`]s are dense insertion indices
//!   and survive everything, *including compaction*; raw offsets live
//!   only inside the watch entries of longer clauses and are remapped
//!   by [`ArenaWatchedPropagator::compact`]. Binary entries hold the
//!   dense ref itself and need no remapping.
//! * **Blocking-literal invariant** — a watch entry whose blocker is
//!   true may be *kept without inspecting the clause*, even if the
//!   clause was deleted meanwhile. This is sound because
//!   a satisfied clause never propagates, but it means a deletion that
//!   can later be *undone* must be preceded by an eager
//!   [`detach`](ArenaWatchedPropagator::detach_clause) — otherwise the
//!   re-attach could duplicate a kept entry. A binary clause's blocker
//!   is always its other literal.
//! * **Compaction** — [`ArenaWatchedPropagator::compact`] drops garbage
//!   clause bodies permanently and remaps live watch offsets; it must
//!   only run when no deleted clause can ever be undeleted again (the
//!   deletion-aware checker's backward walk therefore never compacts).

use cnf::{Assignment, CnfFormula, LBool, Lit, Var};

use crate::clause_db::ClauseRef;
use crate::engine::{ClauseStore, Propagator};
use crate::propagator::{Attach, BudgetedPropagation, Conflict, Fuel, Reason};

/// Words of per-clause metadata preceding the literals: the header word
/// and the dense clause-index word.
const HEADER_WORDS: usize = 2;

/// In-header flag bits (the length is stored shifted past them).
const GARBAGE_BIT: u32 = 1;
const LEARNED_BIT: u32 = 2;
const LEN_SHIFT: u32 = 2;

/// Sentinel start offset of a clause whose body was compacted away.
const GONE: u32 = u32::MAX;

/// Tag of a watch entry that names a binary clause by its dense ref
/// rather than by an arena offset. Offsets and refs both stay below it.
const BINARY: u32 = 1 << 31;

/// `n` as an arena offset or clause index, which must stay clear of the
/// [`BINARY`] tag.
#[inline]
fn word_index(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(n) if n < BINARY => n,
        _ => panic!("arena exceeds {BINARY} words or clauses"),
    }
}

/// Encodes a header word. Lengths are bounded far below the `Lit` code
/// range, so header words round-trip through the literal type and the
/// whole arena stays one homogeneous `Vec<Lit>` of `u32` words.
#[inline]
fn header_word(len: usize, learned: bool, garbage: bool) -> Lit {
    let code = (u32::try_from(len).expect("clause length fits header")
        << LEN_SHIFT)
        | (u32::from(learned) << 1)
        | u32::from(garbage);
    Lit::from_code(code)
}

/// One contiguous clause store: `[header, index, lit0, lit1, …]` per
/// clause, clauses in insertion order.
///
/// # Examples
///
/// ```
/// use bcp::{ClauseArena, ClauseStore};
/// use cnf::Lit;
///
/// let mut arena = ClauseArena::new();
/// let c = arena.add_clause(&[Lit::from_dimacs(1), Lit::from_dimacs(-2)], false);
/// assert_eq!(arena.lits(c).len(), 2);
/// assert!(!arena.is_deleted(c));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClauseArena {
    /// The word stream. Header and index words are `Lit`-encoded `u32`s;
    /// literal words are literals.
    words: Vec<Lit>,
    /// Dense clause index → offset of the clause's *header* word;
    /// [`GONE`] for clauses whose body was compacted away.
    starts: Vec<u32>,
    /// Dense clause index → deleted. Mirrors the header's garbage bit
    /// (a compacted-away clause stays deleted), so a lookup by ref costs
    /// one load instead of two dependent ones.
    deleted: Vec<bool>,
    num_deleted: usize,
    /// Words occupied by garbage (deleted, not yet compacted) clauses.
    garbage_words: usize,
}

impl ClauseArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        ClauseArena::default()
    }

    /// Creates an arena containing all clauses of `formula`, in order,
    /// marked original. Reserves the exact word count up front.
    #[must_use]
    pub fn from_formula(formula: &CnfFormula) -> Self {
        let mut arena = ClauseArena::new();
        let total: usize = formula.num_lits() + HEADER_WORDS * formula.num_clauses();
        word_index(total);
        arena.words.reserve_exact(total);
        arena.starts.reserve_exact(formula.num_clauses());
        arena.deleted = vec![false; formula.num_clauses()];
        // capacity is exact, so the pushes below never reallocate
        for lits in formula.lit_slices() {
            let start = arena.words.len() as u32;
            let index = arena.starts.len() as u32;
            arena.words.push(header_word(lits.len(), false, false));
            arena.words.push(Lit::from_code(index));
            for &l in lits {
                arena.words.push(l);
            }
            arena.starts.push(start);
        }
        arena
    }

    /// Offset of the clause's first literal, or [`GONE`] if compacted.
    #[inline]
    fn lit_offset(&self, r: ClauseRef) -> u32 {
        let start = self.starts[r.index()];
        if start == GONE {
            GONE
        } else {
            start + HEADER_WORDS as u32
        }
    }

    #[inline]
    fn header(&self, r: ClauseRef) -> u32 {
        let start = self.starts[r.index()];
        assert!(start != GONE, "clause {r:?} was compacted away");
        self.words[start as usize].code()
    }

    /// The header word at a raw *literal* offset (hot-loop accessor).
    #[inline]
    pub(crate) fn header_at(&self, lit_pos: usize) -> u32 {
        self.words[lit_pos - HEADER_WORDS].code()
    }

    /// The dense clause index stored at a raw literal offset.
    #[inline]
    pub(crate) fn ref_at(&self, lit_pos: usize) -> ClauseRef {
        ClauseRef::from_index(self.words[lit_pos - 1].code() as usize)
    }

    /// The literal words `[lit_pos, lit_pos + len)`, mutably.
    #[inline]
    pub(crate) fn lits_at_mut(&mut self, lit_pos: usize, len: usize) -> &mut [Lit] {
        &mut self.words[lit_pos..lit_pos + len]
    }

    /// Number of clauses currently deleted.
    #[inline]
    #[must_use]
    pub fn num_deleted(&self) -> usize {
        self.num_deleted
    }

    /// Words occupied by deleted-but-not-compacted clause records.
    #[inline]
    #[must_use]
    pub fn garbage_words(&self) -> usize {
        self.garbage_words
    }

    /// Whether enough garbage has accumulated that compaction would
    /// reclaim at least a quarter of the arena.
    #[must_use]
    pub fn wants_compaction(&self) -> bool {
        self.garbage_words * 4 > self.words.len()
    }

    /// Rewrites the arena without its garbage clause bodies. Dense
    /// [`ClauseRef`]s stay valid; raw offsets do not — this is `pub(crate)`
    /// so only [`ArenaWatchedPropagator::compact`], which remaps its
    /// watch lists around the call, can reach it.
    pub(crate) fn compact_arena(&mut self) {
        if self.garbage_words == 0 {
            return;
        }
        let mut packed: Vec<Lit> =
            Vec::with_capacity(self.words.len() - self.garbage_words);
        for i in 0..self.starts.len() {
            let start = self.starts[i];
            if start == GONE {
                continue;
            }
            let header = self.words[start as usize].code();
            if header & GARBAGE_BIT != 0 {
                self.starts[i] = GONE;
                continue;
            }
            let len = (header >> LEN_SHIFT) as usize;
            let new_start = word_index(packed.len());
            packed.extend_from_slice(
                &self.words[start as usize..start as usize + HEADER_WORDS + len],
            );
            self.starts[i] = new_start;
        }
        self.words = packed;
        self.garbage_words = 0;
    }

    /// A read-only view of the live (not deleted) clauses — the trim and
    /// deletion paths iterate this instead of materialising tombstoned
    /// clause lists.
    #[must_use]
    pub fn view(&self) -> View<'_> {
        View { arena: self }
    }
}

impl ClauseStore for ClauseArena {
    fn new() -> Self {
        ClauseArena::new()
    }

    fn from_formula(formula: &CnfFormula) -> Self {
        ClauseArena::from_formula(formula)
    }

    fn add_clause(&mut self, lits: &[Lit], learned: bool) -> ClauseRef {
        let start = word_index(self.words.len());
        let index = self.starts.len();
        self.words.push(header_word(lits.len(), learned, false));
        self.words.push(Lit::from_code(word_index(index)));
        self.words.extend_from_slice(lits);
        // every offset of the clause stays clear of the tag
        word_index(self.words.len());
        self.starts.push(start);
        self.deleted.push(false);
        ClauseRef::from_index(index)
    }

    #[inline]
    fn len(&self) -> usize {
        self.starts.len()
    }

    #[inline]
    fn lits(&self, r: ClauseRef) -> &[Lit] {
        let len = (self.header(r) >> LEN_SHIFT) as usize;
        let pos = self.lit_offset(r) as usize;
        &self.words[pos..pos + len]
    }

    #[inline]
    fn lits_mut(&mut self, r: ClauseRef) -> &mut [Lit] {
        let len = (self.header(r) >> LEN_SHIFT) as usize;
        let pos = self.lit_offset(r) as usize;
        &mut self.words[pos..pos + len]
    }

    #[inline]
    fn clause_len(&self, r: ClauseRef) -> usize {
        (self.header(r) >> LEN_SHIFT) as usize
    }

    #[inline]
    fn is_learned(&self, r: ClauseRef) -> bool {
        self.header(r) & LEARNED_BIT != 0
    }

    #[inline]
    fn is_deleted(&self, r: ClauseRef) -> bool {
        self.deleted[r.index()]
    }

    fn delete_clause(&mut self, r: ClauseRef) {
        let start = self.starts[r.index()];
        assert!(start != GONE, "clause {r:?} was compacted away");
        if !self.deleted[r.index()] {
            let header = self.words[start as usize].code();
            self.words[start as usize] = Lit::from_code(header | GARBAGE_BIT);
            self.deleted[r.index()] = true;
            self.num_deleted += 1;
            self.garbage_words +=
                HEADER_WORDS + (header >> LEN_SHIFT) as usize;
        }
    }

    fn undelete_clause(&mut self, r: ClauseRef) {
        let start = self.starts[r.index()];
        assert!(
            start != GONE,
            "clause {r:?} was compacted away and cannot be undeleted"
        );
        if self.deleted[r.index()] {
            let header = self.words[start as usize].code();
            self.words[start as usize] = Lit::from_code(header & !GARBAGE_BIT);
            self.deleted[r.index()] = false;
            self.num_deleted -= 1;
            self.garbage_words -=
                HEADER_WORDS + (header >> LEN_SHIFT) as usize;
        }
    }

    #[inline]
    fn arena_len(&self) -> usize {
        self.words.len()
    }

    #[inline]
    fn garbage_len(&self) -> usize {
        self.garbage_words
    }
}

/// A borrowed view of an arena's live clauses.
///
/// # Examples
///
/// ```
/// use bcp::{ClauseArena, ClauseStore};
/// use cnf::Lit;
///
/// let mut arena = ClauseArena::new();
/// let a = arena.add_clause(&[Lit::from_dimacs(1)], false);
/// let b = arena.add_clause(&[Lit::from_dimacs(2)], false);
/// arena.delete_clause(a);
/// let view = arena.view();
/// assert_eq!(view.len(), 1);
/// assert!(!view.contains(a));
/// assert_eq!(view.iter().next(), Some((b, &[Lit::from_dimacs(2)][..])));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct View<'a> {
    arena: &'a ClauseArena,
}

impl<'a> View<'a> {
    /// Whether the clause is in the view (not deleted).
    #[must_use]
    pub fn contains(&self, r: ClauseRef) -> bool {
        !self.arena.is_deleted(r)
    }

    /// Number of live clauses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Returns `true` if no clause is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Iterates over `(ref, literals)` of the live clauses, in
    /// insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ClauseRef, &'a [Lit])> + '_ {
        let arena = self.arena;
        arena
            .refs()
            .filter(move |&r| !arena.is_deleted(r))
            .map(move |r| (r, arena.lits(r)))
    }
}

/// A watch entry: the clause's key plus a blocking literal.
#[derive(Clone, Copy, Debug)]
struct ArenaWatch {
    /// For a clause of three or more literals, the offset of its first
    /// literal in the arena word stream; for a binary clause, its dense
    /// ref tagged with [`BINARY`] (see [`watch_key`]).
    pos: u32,
    /// A literal of the clause other than the watched one; if it is
    /// already true the clause is satisfied and never loaded. A binary
    /// clause's blocker is its other literal.
    blocker: Lit,
}

/// The `pos` of the watch entries of clause `r`, whose first literal
/// sits at arena offset `lit_pos` and which has `len` literals.
#[inline]
fn watch_key(r: ClauseRef, lit_pos: u32, len: usize) -> u32 {
    if len == 2 {
        BINARY | r.index() as u32
    } else {
        lit_pos
    }
}

/// One literal's watch list inside the [`WatchTable`] slab: `cap` slots
/// starting at `start`, of which the first `len` hold live entries.
#[derive(Clone, Copy, Debug, Default)]
struct WatchSpan {
    start: u32,
    len: u32,
    cap: u32,
}

/// Extra slots granted to every list by a bulk build, so the first few
/// watch moves into a list do not force a relocation.
const WATCH_SLACK: u32 = 2;

/// All watch lists in one flat slab: one allocation instead of one
/// `Vec` per literal. A list that outgrows its span is relocated to the
/// end of the slab with doubled capacity (the hole it leaves is
/// reclaimed by the next [`WatchTable::bulk_reserve`]). Slab positions
/// are only ever addressed through `spans`, so slab reallocation and
/// list relocation never invalidate an in-progress index-based scan of
/// a *different* list.
#[derive(Clone, Debug, Default)]
struct WatchTable {
    spans: Vec<WatchSpan>,
    slab: Vec<ArenaWatch>,
}

impl WatchTable {
    fn new(num_lits: usize) -> Self {
        WatchTable { spans: vec![WatchSpan::default(); num_lits], slab: Vec::new() }
    }

    fn ensure_lits(&mut self, num_lits: usize) {
        if num_lits > self.spans.len() {
            self.spans.resize(num_lits, WatchSpan::default());
        }
    }

    /// Whether any watch has ever been attached.
    fn is_unused(&self) -> bool {
        self.slab.is_empty()
    }

    /// Lays the slab out from a per-literal count, discarding all
    /// current entries: each list gets its count plus
    /// [`WATCH_SLACK`] slots.
    fn bulk_reserve(&mut self, counts: &[u32]) {
        debug_assert_eq!(counts.len(), self.spans.len());
        let mut start = 0u32;
        for (span, &n) in self.spans.iter_mut().zip(counts) {
            let cap = n + WATCH_SLACK;
            *span = WatchSpan { start, len: 0, cap };
            start += cap;
        }
        let pad = ArenaWatch { pos: GONE, blocker: Lit::from_code(0) };
        self.slab.clear();
        self.slab.resize(start as usize, pad);
    }

    #[inline]
    fn push(&mut self, idx: usize, w: ArenaWatch) {
        let span = self.spans[idx];
        if span.len == span.cap {
            self.relocate_and_push(idx, w);
        } else {
            self.slab[(span.start + span.len) as usize] = w;
            self.spans[idx].len += 1;
        }
    }

    /// Moves a full list to the end of the slab with doubled capacity,
    /// then appends `w`.
    #[cold]
    fn relocate_and_push(&mut self, idx: usize, w: ArenaWatch) {
        let span = self.spans[idx];
        let new_cap = (span.cap * 2).max(4);
        let new_start = u32::try_from(self.slab.len()).expect("slab fits in u32");
        for k in 0..span.len as usize {
            let entry = self.slab[span.start as usize + k];
            self.slab.push(entry);
        }
        self.slab.push(w);
        let pad = ArenaWatch { pos: GONE, blocker: Lit::from_code(0) };
        self.slab.resize(new_start as usize + new_cap as usize, pad);
        self.spans[idx] =
            WatchSpan { start: new_start, len: span.len + 1, cap: new_cap };
    }

    /// Removes every entry of list `idx` whose clause key is `pos` (see
    /// [`watch_key`]).
    fn remove(&mut self, idx: usize, pos: u32) {
        let span = self.spans[idx];
        let start = span.start as usize;
        let mut kept = 0usize;
        for k in 0..span.len as usize {
            let w = self.slab[start + k];
            if w.pos != pos {
                self.slab[start + kept] = w;
                kept += 1;
            }
        }
        self.spans[idx].len = kept as u32;
    }
}

/// Two-watched-literal BCP over a [`ClauseArena`], with blocking
/// literals, offset-based watch entries and binary clauses resolved in
/// the watch list: the engine every proof check runs on.
///
/// Behaviourally identical to [`WatchedPropagator`](crate::WatchedPropagator),
/// the solver's engine: the differential property tests in
/// `tests/arena_differential.rs` assert the same trail, reasons, conflict
/// clause and clause visits after every propagation. The difference is
/// purely the memory layout of the hot loop.
///
/// # Examples
///
/// ```
/// use bcp::{Attach, ArenaWatchedPropagator, ClauseArena, ClauseStore, Propagator};
/// use cnf::{CnfFormula, Lit};
///
/// let f = CnfFormula::from_dimacs_clauses(&[vec![-1, 2], vec![-2, 3]]);
/// let mut arena = ClauseArena::from_formula(&f);
/// let mut engine = ArenaWatchedPropagator::new(f.num_vars());
/// for r in arena.refs() {
///     assert_eq!(engine.attach_clause(&mut arena, r), Attach::Watched);
/// }
/// engine.decide(Lit::from_dimacs(1));
/// assert!(engine.propagate(&mut arena).is_none());
/// assert!(engine.assignment().is_true(Lit::from_dimacs(3)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ArenaWatchedPropagator {
    assignment: Assignment,
    watches: WatchTable,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    reasons: Vec<Reason>,
    qhead: usize,
    num_clause_visits: u64,
}

impl ArenaWatchedPropagator {
    /// Creates an engine over `num_vars` variables, all unassigned.
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        ArenaWatchedPropagator {
            assignment: Assignment::new(num_vars),
            watches: WatchTable::new(2 * num_vars),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            reasons: vec![Reason::Decision; num_vars],
            qhead: 0,
            num_clause_visits: 0,
        }
    }

    /// Attaches every clause of the arena, collecting units and empties
    /// instead of propagating them — the bulk-construction entry point.
    ///
    /// On a fresh engine this runs two linear walks of the word stream
    /// (count, then write) and lays all watch lists out in one slab
    /// allocation. On an engine that already holds watches it falls back
    /// to per-clause attachment so existing entries are preserved.
    pub fn attach_all(&mut self, db: &mut ClauseArena) -> BulkAttach {
        let mut out = BulkAttach::default();
        if !self.watches.is_unused() {
            for r in db.refs() {
                match self.attach_clause(db, r) {
                    Attach::Watched => {}
                    Attach::Unit(l) => out.units.push((r, l)),
                    Attach::Empty => out.empties.push(r),
                }
            }
            return out;
        }
        // Counting pass: one linear walk, no per-clause indirection.
        let mut counts = vec![0u32; self.watches.spans.len()];
        let mut pos = 0usize;
        while pos < db.words.len() {
            let header = db.words[pos].code();
            let len = (header >> LEN_SHIFT) as usize;
            if header & GARBAGE_BIT == 0 && len >= 2 {
                counts[db.words[pos + HEADER_WORDS].idx()] += 1;
                counts[db.words[pos + HEADER_WORDS + 1].idx()] += 1;
            }
            pos += HEADER_WORDS + len;
        }
        self.watches.bulk_reserve(&counts);
        // Attach pass: a second linear walk writing watches in place.
        let mut pos = 0usize;
        while pos < db.words.len() {
            let header = db.words[pos].code();
            let len = (header >> LEN_SHIFT) as usize;
            let lit_pos = pos + HEADER_WORDS;
            if header & GARBAGE_BIT == 0 {
                let r = db.ref_at(lit_pos);
                match len {
                    0 => out.empties.push(r),
                    1 => out.units.push((r, db.words[lit_pos])),
                    _ => {
                        let (a, b) = (db.words[lit_pos], db.words[lit_pos + 1]);
                        let p = watch_key(r, lit_pos as u32, len);
                        self.watches.push(a.idx(), ArenaWatch { pos: p, blocker: b });
                        self.watches.push(b.idx(), ArenaWatch { pos: p, blocker: a });
                    }
                }
            }
            pos += HEADER_WORDS + len;
        }
        out
    }

    /// Compacts the arena and remaps this engine's watch lists to the
    /// rewritten offsets. Watch entries of compacted-away clauses are
    /// dropped. Dense [`ClauseRef`]s (and therefore recorded reasons,
    /// binary watch entries and external mark bitmaps) are unaffected.
    ///
    /// Must not run if any currently deleted clause may later be
    /// undeleted — compaction drops garbage bodies permanently.
    pub fn compact(&mut self, db: &mut ClauseArena) {
        if db.garbage_words() == 0 {
            return;
        }
        // Pass 1: convert offsets to dense indices while the old word
        // stream (including garbage records) is still readable. Binary
        // entries hold a tagged index already.
        for span in &self.watches.spans {
            let start = span.start as usize;
            for k in 0..span.len as usize {
                let w = &mut self.watches.slab[start + k];
                if w.pos & BINARY == 0 {
                    w.pos = db.ref_at(w.pos as usize).index() as u32;
                }
            }
        }
        // Pass 2: rewrite the arena.
        db.compact_arena();
        // Pass 3: map indices to post-compaction offsets; drop entries
        // whose clause went away. Rebuilding through `bulk_reserve` also
        // reclaims any slab holes left by list relocations.
        let mut counts = vec![0u32; self.watches.spans.len()];
        let mut survivors: Vec<(usize, ArenaWatch)> = Vec::new();
        for (idx, span) in self.watches.spans.iter().enumerate() {
            let start = span.start as usize;
            for k in 0..span.len as usize {
                let w = self.watches.slab[start + k];
                let offset = db.lit_offset(ClauseRef::from_index((w.pos & !BINARY) as usize));
                if offset != GONE {
                    let pos = if w.pos & BINARY == 0 { offset } else { w.pos };
                    counts[idx] += 1;
                    survivors.push((idx, ArenaWatch { pos, blocker: w.blocker }));
                }
            }
        }
        self.watches.bulk_reserve(&counts);
        for (idx, w) in survivors {
            self.watches.push(idx, w);
        }
    }

    #[inline]
    fn enqueue(&mut self, lit: Lit, reason: Reason) {
        self.assignment.assign(lit);
        self.reasons[lit.var().idx()] = reason;
        self.trail.push(lit);
    }

    /// Processes the watch list of `!lit` after `lit` became true: the
    /// inlined two-watch maintenance loop. A binary clause's entry is
    /// resolved where it stands — its blocker is the clause's other
    /// literal — and still counts as a clause visit, so every trail,
    /// reason and counter is the one a visit of its body would give.
    fn propagate_lit(&mut self, db: &mut ClauseArena, lit: Lit) -> Option<Conflict> {
        let false_lit = !lit;
        // Index-based scan: watch moves push into *other* lists, which
        // may relocate them (and grow the slab), but never touch this
        // span or the slab indices it covers.
        let span = self.watches.spans[false_lit.idx()];
        let start = span.start as usize;
        let n = span.len as usize;
        let mut kept = 0usize;
        let mut conflict = None;
        let mut i = 0usize;
        // visits accumulate in a register; one flush on exit
        let mut visits = 0u64;
        'watches: while i < n {
            let w = self.watches.slab[start + i];
            i += 1;
            // Blocking literal: a true blocker means the clause is
            // satisfied — keep the entry without touching the arena.
            if self.assignment.is_true(w.blocker) {
                self.watches.slab[start + kept] = w;
                kept += 1;
                continue;
            }
            let (first, cref) = if w.pos & BINARY != 0 {
                let cref = ClauseRef::from_index((w.pos & !BINARY) as usize);
                if db.is_deleted(cref) {
                    continue; // lazy drop of deleted clauses
                }
                visits += 1;
                self.watches.slab[start + kept] = w;
                (w.blocker, cref)
            } else {
                let pos = w.pos as usize;
                let header = db.header_at(pos);
                if header & GARBAGE_BIT != 0 {
                    continue; // lazy drop of deleted clauses
                }
                visits += 1;
                let len = (header >> LEN_SHIFT) as usize;
                let lits = db.lits_at_mut(pos, len);
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if first != w.blocker && self.assignment.is_true(first) {
                    self.watches.slab[start + kept] =
                        ArenaWatch { pos: w.pos, blocker: first };
                    kept += 1;
                    continue;
                }
                // Find a non-false literal to watch instead.
                for k in 2..len {
                    if !self.assignment.is_false(lits[k]) {
                        lits.swap(1, k);
                        let new_watch = lits[1];
                        self.watches
                            .push(new_watch.idx(), ArenaWatch { pos: w.pos, blocker: first });
                        continue 'watches;
                    }
                }
                self.watches.slab[start + kept] =
                    ArenaWatch { pos: w.pos, blocker: first };
                (first, db.ref_at(pos))
            };
            // Unit (first unassigned) or conflicting (first false).
            kept += 1;
            if self.assignment.is_false(first) {
                conflict = Some(Conflict { clause: cref });
                while i < n {
                    self.watches.slab[start + kept] = self.watches.slab[start + i];
                    kept += 1;
                    i += 1;
                }
                break;
            }
            self.enqueue(first, Reason::Propagated(cref));
        }
        self.watches.spans[false_lit.idx()].len = kept as u32;
        self.num_clause_visits += visits;
        conflict
    }
}

/// Units and empties discovered by [`ArenaWatchedPropagator::attach_all`].
#[derive(Clone, Debug, Default)]
pub struct BulkAttach {
    /// Unit clauses `(ref, literal)` — they cannot be watched; the
    /// caller enqueues the active ones per propagation pass.
    pub units: Vec<(ClauseRef, Lit)>,
    /// Empty clauses — immediate conflicts whenever active.
    pub empties: Vec<ClauseRef>,
}

impl Propagator for ArenaWatchedPropagator {
    type Store = ClauseArena;

    fn new(num_vars: usize) -> Self {
        ArenaWatchedPropagator::new(num_vars)
    }

    fn ensure_vars(&mut self, num_vars: usize) {
        if num_vars > self.reasons.len() {
            self.assignment.ensure_var(Var::new(num_vars as u32 - 1));
            self.watches.ensure_lits(2 * num_vars);
            self.reasons.resize(num_vars, Reason::Decision);
        }
    }

    #[inline]
    fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    #[inline]
    fn trail(&self) -> &[Lit] {
        &self.trail
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    #[inline]
    fn reason(&self, var: Var) -> Reason {
        self.reasons[var.idx()]
    }

    #[inline]
    fn num_clause_visits(&self) -> u64 {
        self.num_clause_visits
    }

    fn push_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn decide(&mut self, lit: Lit) {
        assert!(
            self.assignment.is_unassigned(lit),
            "decision on assigned literal {lit}"
        );
        self.push_level();
        self.enqueue(lit, Reason::Decision);
    }

    fn assume(&mut self, lit: Lit) -> bool {
        match self.assignment.lit_value(lit) {
            LBool::True => true,
            LBool::False => false,
            LBool::Unassigned => {
                self.enqueue(lit, Reason::Assumed);
                true
            }
        }
    }

    fn enqueue_propagated(&mut self, lit: Lit, cref: ClauseRef) -> Result<(), Conflict> {
        match self.assignment.lit_value(lit) {
            LBool::True => Ok(()),
            LBool::False => Err(Conflict { clause: cref }),
            LBool::Unassigned => {
                self.enqueue(lit, Reason::Propagated(cref));
                Ok(())
            }
        }
    }

    fn attach_clause(&mut self, db: &mut ClauseArena, cref: ClauseRef) -> Attach {
        let pos = db.lit_offset(cref);
        assert!(pos != GONE, "attach of compacted clause {cref:?}");
        let lits = db.lits(cref);
        match lits.len() {
            0 => Attach::Empty,
            1 => Attach::Unit(lits[0]),
            len => {
                let (a, b) = (lits[0], lits[1]);
                let pos = watch_key(cref, pos, len);
                self.watches.push(a.idx(), ArenaWatch { pos, blocker: b });
                self.watches.push(b.idx(), ArenaWatch { pos, blocker: a });
                Attach::Watched
            }
        }
    }

    fn detach_clause(&mut self, db: &ClauseArena, cref: ClauseRef) {
        let lits = db.lits(cref);
        if lits.len() < 2 {
            return;
        }
        let pos = watch_key(cref, db.lit_offset(cref), lits.len());
        for &w in &lits[..2] {
            self.watches.remove(w.idx(), pos);
        }
    }

    fn propagate(&mut self, db: &mut ClauseArena) -> Option<Conflict> {
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
            let (propagations, clause_visits, _) = crate::propagator::obs_handles();
            propagations.add((self.trail.len() - trail_before) as u64);
            clause_visits.add(self.num_clause_visits - visits_before);
        }
        conflict
    }

    fn propagate_budgeted(
        &mut self,
        db: &mut ClauseArena,
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
            pops_since_poll =
                (pops_since_poll + 1) % crate::WatchedPropagator::POLL_INTERVAL;
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
            // flush the queue: partial propagation must be discarded
            self.qhead = self.trail.len();
        }
        if obs::metrics::recording() {
            let (propagations, clause_visits, _) = crate::propagator::obs_handles();
            propagations.add((self.trail.len() - trail_before) as u64);
            clause_visits.add(self.num_clause_visits - visits_before);
        }
        outcome
    }

    fn backtrack_to(&mut self, level: u32) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagator::Stopped;
    use cnf::CnfFormula;

    fn lits(names: &[i32]) -> Vec<Lit> {
        names.iter().map(|&n| Lit::from_dimacs(n)).collect()
    }

    fn engine_for(clauses: &[Vec<i32>]) -> (ClauseArena, ArenaWatchedPropagator) {
        let f = CnfFormula::from_dimacs_clauses(clauses);
        let mut db = ClauseArena::from_formula(&f);
        let mut p = ArenaWatchedPropagator::new(f.num_vars());
        let bulk = p.attach_all(&mut db);
        for (r, l) in bulk.units {
            p.enqueue_propagated(l, r).expect("no root conflict");
        }
        assert!(bulk.empties.is_empty(), "test formula has empty clause");
        (db, p)
    }

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    #[test]
    fn add_and_read_back() {
        let mut a = ClauseArena::new();
        let c0 = a.add_clause(&lits(&[1, -2, 3]), false);
        let c1 = a.add_clause(&lits(&[-1]), true);
        assert_eq!(a.len(), 2);
        assert_eq!(a.lits(c0), lits(&[1, -2, 3]).as_slice());
        assert_eq!(a.lits(c1), lits(&[-1]).as_slice());
        assert_eq!(a.clause_len(c0), 3);
        assert!(!a.is_learned(c0));
        assert!(a.is_learned(c1));
        // 3 + 1 literals plus two header words per clause
        assert_eq!(a.arena_len(), 4 + 2 * HEADER_WORDS);
    }

    #[test]
    fn deletion_matches_clause_db_semantics() {
        let mut a = ClauseArena::new();
        let c0 = a.add_clause(&lits(&[1, 2]), false);
        let c1 = a.add_clause(&lits(&[3]), true);
        a.delete_clause(c0);
        assert!(a.is_deleted(c0));
        assert!(!a.is_deleted(c1));
        assert_eq!(a.num_deleted(), 1);
        a.delete_clause(c0); // double delete counts once
        assert_eq!(a.num_deleted(), 1);
        assert_eq!(a.lits(c0), lits(&[1, 2]).as_slice(), "body readable");
        a.undelete_clause(c0);
        assert!(!a.is_deleted(c0));
        assert_eq!(a.num_deleted(), 0);
    }

    #[test]
    fn view_iterates_active_clauses() {
        let mut a = ClauseArena::new();
        let c0 = a.add_clause(&lits(&[1, 2]), false);
        let c1 = a.add_clause(&lits(&[3]), false);
        let c2 = a.add_clause(&lits(&[4]), true);
        a.delete_clause(c1);
        let view = a.view();
        assert_eq!(view.len(), 2);
        assert!(view.contains(c0) && view.contains(c2));
        assert!(!view.contains(c1));
        assert!(!view.is_empty());
        let collected: Vec<_> = view.iter().map(|(r, _)| r).collect();
        assert_eq!(collected, vec![c0, c2]);
    }

    #[test]
    fn chain_propagation() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2], vec![-2, 3], vec![-3, 4]]);
        p.decide(lit(1));
        assert!(p.propagate(&mut db).is_none());
        for n in 1..=4 {
            assert!(p.assignment().is_true(lit(n)), "x{n} should be implied");
        }
        assert!(p.num_clause_visits() > 0);
    }

    #[test]
    fn conflict_detected_with_dense_ref() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2], vec![-1, -2]]);
        p.decide(lit(1));
        let conflict = p.propagate(&mut db).expect("must conflict");
        assert!(conflict.clause.index() < 2, "conflict refs are dense indices");
    }

    #[test]
    fn blocker_skips_satisfied_clauses_without_arena_access() {
        // (1 ∨ 2) watched on x1,x2 with blockers pointing at each other;
        // deciding x2 then propagating ¬x1's list must keep the clause
        // satisfied via the blocker and visit no clause.
        let (mut db, mut p) = engine_for(&[vec![1, 2]]);
        p.decide(lit(2));
        assert!(p.propagate(&mut db).is_none());
        let visits_before = p.num_clause_visits();
        p.decide(lit(-1));
        assert!(p.propagate(&mut db).is_none());
        assert_eq!(
            p.num_clause_visits(),
            visits_before,
            "true blocker must short-circuit the clause load"
        );
    }

    #[test]
    fn deactivated_and_deleted_clauses_do_not_propagate() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2], vec![-1, 3]]);
        p.detach_clause(&db, ClauseRef::from_index(1));
        p.decide(lit(1));
        assert!(p.propagate(&mut db).is_none());
        assert!(p.assignment().is_true(lit(2)));
        assert!(p.assignment().is_unassigned(lit(3)));
        p.backtrack_to(0);
        db.delete_clause(ClauseRef::from_index(0));
        p.decide(lit(1));
        assert!(p.propagate(&mut db).is_none());
        assert!(p.assignment().is_unassigned(lit(2)));
    }

    #[test]
    fn long_clause_watch_migration() {
        let (mut db, mut p) = engine_for(&[vec![1, 2, 3, 4, 5]]);
        for n in [1, 2, 3, 4] {
            p.decide(lit(-n));
            assert!(p.propagate(&mut db).is_none(), "no conflict after ¬x{n}");
        }
        assert!(p.assignment().is_true(lit(5)), "x5 forced by the 5-clause");
    }

    #[test]
    fn compaction_preserves_refs_and_propagation() {
        let f = CnfFormula::from_dimacs_clauses(&[
            vec![-1, 2],
            vec![9, 8, 7, 6],
            vec![-2, 3],
            vec![5, 9],
            vec![-3, 4],
        ]);
        let mut db = ClauseArena::from_formula(&f);
        let mut p = ArenaWatchedPropagator::new(f.num_vars());
        let _ = p.attach_all(&mut db);
        // delete the two irrelevant clauses, eagerly detaching (they may
        // never be undeleted after compaction anyway)
        for idx in [1usize, 3] {
            let r = ClauseRef::from_index(idx);
            p.detach_clause(&db, r);
            db.delete_clause(r);
        }
        let before = db.arena_len();
        assert!(db.garbage_words() > 0);
        p.compact(&mut db);
        assert!(db.arena_len() < before, "garbage words reclaimed");
        assert_eq!(db.garbage_words(), 0);
        // dense refs survive: clause 4 still reads back
        assert_eq!(db.lits(ClauseRef::from_index(4)), lits(&[-3, 4]).as_slice());
        assert!(db.is_deleted(ClauseRef::from_index(1)));
        // propagation still works over remapped watches
        p.decide(lit(1));
        assert!(p.propagate(&mut db).is_none());
        for n in 2..=4 {
            assert!(p.assignment().is_true(lit(n)), "x{n} implied after compaction");
        }
    }

    #[test]
    #[should_panic(expected = "compacted away")]
    fn undelete_after_compaction_panics() {
        let mut db = ClauseArena::new();
        let r = db.add_clause(&lits(&[1, 2]), false);
        db.add_clause(&lits(&[3, 4]), false);
        db.delete_clause(r);
        let mut p = ArenaWatchedPropagator::new(4);
        p.compact(&mut db);
        db.undelete_clause(r);
    }

    #[test]
    fn wants_compaction_threshold() {
        let mut db = ClauseArena::new();
        let a = db.add_clause(&lits(&[1, 2, 3, 4, 5, 6]), false);
        db.add_clause(&lits(&[1, 2]), false);
        assert!(!db.wants_compaction());
        db.delete_clause(a);
        assert!(db.wants_compaction());
    }

    #[test]
    fn budgeted_propagation_interrupts_and_flushes() {
        let (mut db, mut p) = engine_for(&[vec![-1, 2], vec![-2, 3], vec![-3, 4]]);
        p.decide(lit(1));
        let mut fuel = Fuel { max_propagations: 2, ..Fuel::unlimited() };
        assert_eq!(
            p.propagate_budgeted(&mut db, &mut fuel),
            BudgetedPropagation::Interrupted(Stopped::Propagations)
        );
        assert_eq!(fuel.used_propagations, 2);
        p.backtrack_to(0);
        assert_eq!(p.assignment().num_assigned(), 0);
    }

    #[test]
    fn detach_then_reattach_does_not_duplicate_watches() {
        let (mut db, mut p) = engine_for(&[vec![1, 2]]);
        let r = ClauseRef::from_index(0);
        p.detach_clause(&db, r);
        p.decide(lit(-1));
        assert!(p.propagate(&mut db).is_none());
        assert!(p.assignment().is_unassigned(lit(2)), "detached clause inert");
        p.backtrack_to(0);
        assert_eq!(p.attach_clause(&mut db, r), Attach::Watched);
        p.decide(lit(-1));
        assert!(p.propagate(&mut db).is_none());
        assert!(p.assignment().is_true(lit(2)));
    }
}
