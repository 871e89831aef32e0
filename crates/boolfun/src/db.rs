//! Indexed clause database backing existential projection.
//!
//! [`Cnf::project_out`](crate::Cnf::project_out) used to partition the
//! *entire* clause vector for every eliminated flag and re-sort it
//! afterwards, making elimination cost `O(flags × clauses)` even though
//! the clauses touching any one flag are a handful. [`ClauseDb`] is the
//! replacement: a slotted clause store with literal→clause occurrence
//! lists (so `eliminate(f)` touches only the clauses mentioning `f`),
//! tombstone deletion (occurrence lists are pruned lazily), 64-bit
//! literal-hash signatures (so subsumption checks run only against
//! candidates whose signature bits are compatible), and incrementally
//! maintained live-occurrence counts (so the elimination *order* can
//! stay greedy as counts change, instead of being frozen up front).
//!
//! The occurrence lists are indexed densely by a literal's position in
//! the sorted literal universe of the clauses loaded at build time.
//! Resolution never adds a literal its parents lack, so that universe
//! is fixed for the life of one projection. A database is meant to be
//! reused: [`ClauseDb::clear`] empties it but keeps the capacity of the
//! slot table, the signatures, every occurrence list and the buffers
//! `eliminate` works in, so a projection that fits in what an earlier
//! one grew allocates nothing.
//!
//! Elimination itself is class-aware: when every clause touching the
//! pivot is a binary implication or a unit — the dominant case, since
//! select/update/removal/renaming only ever emit two-variable Horn
//! clauses (paper, Section 5) — the pivot is spliced out of the
//! implication graph directly (predecessor → successor edges, with
//! tautologies dropped and duplicates subsumed away). Only the genuine
//! CNF fragment produced by symmetric concatenation and `when` falls
//! back to general Davis–Putnam resolution.

use crate::clause::Clause;
use crate::lit::{Flag, Lit};

/// Counters describing the work of one projection call.
///
/// Returned by the `project_*` family on [`crate::Cnf`]; the inference
/// engine folds these into its phase statistics and the observability
/// layer (see `docs/OBSERVABILITY.md`, `project.*` counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProjectStats {
    /// Flags actually eliminated (mentioned by at least one clause).
    pub eliminated: usize,
    /// Eliminations where every touched clause was binary or unit,
    /// handled by implication-graph splicing.
    pub fastpath: usize,
    /// Eliminations that fell back to general Davis–Putnam resolution.
    pub fallback: usize,
    /// Non-tautological resolvents generated.
    pub resolvents: usize,
    /// Clauses discarded by forward or backward subsumption.
    pub subsumed: usize,
    /// Candidate clause pairs examined by the subsumption filter.
    pub sig_checks: usize,
    /// Candidates rejected by the signature test alone (no literal
    /// comparison needed).
    pub sig_pruned: usize,
}

impl ProjectStats {
    /// Accumulates another call's counters into this one.
    pub fn merge(&mut self, other: &ProjectStats) {
        self.eliminated += other.eliminated;
        self.fastpath += other.fastpath;
        self.fallback += other.fallback;
        self.resolvents += other.resolvents;
        self.subsumed += other.subsumed;
        self.sig_checks += other.sig_checks;
        self.sig_pruned += other.sig_pruned;
    }
}

/// One literal's occurrence list. `slots` may retain ids of tombstoned
/// clauses (pruned lazily as the list is walked); `live` is kept exact.
#[derive(Default)]
struct Occ {
    slots: Vec<u32>,
    live: u32,
}

/// Signature bit of a literal: a 64-bit one-hot hash. A clause's
/// signature is the OR of its literals' bits, so `D ⊆ C` implies
/// `sig(D) & !sig(C) == 0` — the contrapositive rejects most
/// subsumption candidates without touching their literals.
fn sig_bit(l: Lit) -> u64 {
    // SplitMix64-style finalizer over the literal code.
    let mut x = (l.code() as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    1u64 << ((x >> 58) & 63)
}

fn sig_of(c: &Clause) -> u64 {
    c.lits().iter().map(|&l| sig_bit(l)).fold(0, |a, b| a | b)
}

/// The occurrence-indexed clause store. One projection call loads the
/// clauses it touches ([`ClauseDb::load`]), indexes them
/// ([`ClauseDb::index`]), drives a sequence of [`ClauseDb::eliminate`]
/// steps and drains the survivors ([`ClauseDb::drain_into`]); the next
/// call on the same database starts with [`ClauseDb::clear`].
#[derive(Default)]
pub(crate) struct ClauseDb {
    slots: Vec<Option<Clause>>,
    sigs: Vec<u64>,
    /// The sorted, deduplicated literals of the loaded clauses.
    universe: Vec<Lit>,
    /// Universe positions by literal code, offset by the smallest
    /// loaded code: `position + 1`, or 0 for a code outside the
    /// universe. Built when the universe's code span fits in
    /// [`DENSE_SPAN`] entries and empty otherwise, when lookups binary
    /// search the universe instead.
    dense: Vec<u32>,
    /// Occurrence lists by universe position. Lists past
    /// `universe.len()` are spare, kept for their capacity.
    occ: Vec<Occ>,
    /// `eliminate`'s detached positive and negative occurrences.
    pos: Vec<Clause>,
    neg: Vec<Clause>,
    /// The empty list `detach` swaps in for the one it walks.
    spare: Vec<u32>,
    /// Slots `insert` found subsumed by the new clause.
    victims: Vec<u32>,
    /// Set once the empty clause is derived; the database then denotes
    /// `⊥` and all further work is skipped.
    unsat: bool,
    pub(crate) stats: ProjectStats,
}

/// The widest literal-code span [`ClauseDb`] indexes with a dense
/// position table.
const DENSE_SPAN: usize = 4096;

impl ClauseDb {
    /// Builds an indexed database over `clauses`. The initial clauses
    /// are attached without subsumption checks — they come from a
    /// normalised CNF (no exact duplicates), and a redundant weaker
    /// clause is only a size cost, not a correctness one. Subsumption
    /// runs where it pays: against the resolvents
    /// [`ClauseDb::eliminate`] inserts.
    ///
    /// The projection engine loads clauses during its partition scan
    /// (see `Cnf::eliminate_where`), so this constructor is test
    /// scaffolding.
    #[cfg(test)]
    pub(crate) fn new(clauses: impl IntoIterator<Item = Clause>) -> ClauseDb {
        let mut db = ClauseDb::default();
        for c in clauses {
            if c.is_empty() {
                db.unsat = true;
                break;
            }
            db.load(c);
        }
        db.index();
        db
    }

    /// Empties the database for the next projection, keeping every
    /// buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.sigs.clear();
        for o in &mut self.occ[..self.universe.len()] {
            o.slots.clear();
            o.live = 0;
        }
        self.universe.clear();
        self.dense.clear();
        self.unsat = false;
        self.stats = ProjectStats::default();
    }

    /// Adds a clause before [`ClauseDb::index`] runs.
    pub(crate) fn load(&mut self, c: Clause) {
        self.universe.extend_from_slice(c.lits());
        self.slots.push(Some(c));
    }

    /// Whether no clause was loaded.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Fixes the literal universe of the loaded clauses and builds
    /// their occurrence lists and signatures, in load order.
    pub(crate) fn index(&mut self) {
        self.universe.sort_unstable();
        self.universe.dedup();
        if self.occ.len() < self.universe.len() {
            self.occ.resize_with(self.universe.len(), Occ::default);
        }
        if let (Some(lo), Some(hi)) = (self.universe.first(), self.universe.last()) {
            let span = hi.code() - lo.code() + 1;
            if span <= DENSE_SPAN {
                self.dense.resize(span, 0);
                for (i, l) in self.universe.iter().enumerate() {
                    self.dense[l.code() - lo.code()] = i as u32 + 1;
                }
            }
        }
        for (id, slot) in self.slots.iter().enumerate() {
            let c = slot.as_ref().expect("loaded clauses are live");
            for &l in c.lits() {
                let i = self.position(l).expect("loaded literal");
                let o = &mut self.occ[i];
                o.slots.push(id as u32);
                o.live += 1;
            }
            self.sigs.push(sig_of(c));
        }
    }

    /// Whether the database has derived the empty clause.
    pub(crate) fn is_unsat(&self) -> bool {
        self.unsat
    }

    /// Number of live clauses mentioning `f` (either sign).
    pub(crate) fn occurrences(&self, f: Flag) -> usize {
        self.live(Lit::pos(f)) + self.live(Lit::neg(f))
    }

    /// The flags mentioned by at least one live clause, ascending.
    /// (The engine collects its worklist during the partition scan
    /// instead; this view is kept for the index-consistency tests.)
    #[cfg(test)]
    pub(crate) fn mentioned_flags(&self) -> Vec<Flag> {
        let mut flags: Vec<Flag> = self
            .universe
            .iter()
            .zip(&self.occ)
            .filter(|(_, o)| o.live > 0)
            .map(|(l, _)| l.flag())
            .collect();
        flags.dedup();
        flags
    }

    /// Position of `l` in the sorted universe, if it occurs there.
    fn position(&self, l: Lit) -> Option<usize> {
        if self.dense.is_empty() {
            return self.universe.binary_search(&l).ok();
        }
        let offset = l.code().checked_sub(self.universe[0].code())?;
        let slot = *self.dense.get(offset)?;
        (slot as usize).checked_sub(1)
    }

    fn live(&self, l: Lit) -> usize {
        self.position(l).map_or(0, |i| self.occ[i].live as usize)
    }

    /// The occurrence list of `l`, which resolution keeps inside the
    /// universe.
    fn occ_mut(&mut self, l: Lit) -> &mut Occ {
        let i = self.position(l).expect("literal outside the universe");
        &mut self.occ[i]
    }

    /// Inserts a clause, discarding it if an existing clause subsumes
    /// it and deleting existing clauses it subsumes. Subsumption
    /// candidates are drawn from the occurrence lists of the clause's
    /// own literals and filtered by signature before any literal-level
    /// comparison.
    pub(crate) fn insert(&mut self, c: Clause) {
        if self.unsat {
            return;
        }
        if c.is_empty() {
            // ⊥ subsumes the whole database.
            self.unsat = true;
            return;
        }
        let sig = sig_of(&c);
        // Forward: a subsumer's literals all occur in `c`, so it is
        // registered under at least one (in fact, every one) of them.
        let (mut checks, mut pruned) = (0usize, 0usize);
        let mut subsumed_by_existing = false;
        'fwd: for &l in c.lits() {
            let Some(i) = self.position(l) else {
                continue;
            };
            for &s in &self.occ[i].slots {
                let s = s as usize;
                let Some(existing) = &self.slots[s] else {
                    continue;
                };
                checks += 1;
                if self.sigs[s] & !sig != 0 {
                    pruned += 1;
                    continue;
                }
                if existing.subsumes(&c) {
                    subsumed_by_existing = true;
                    break 'fwd;
                }
            }
        }
        if subsumed_by_existing {
            self.stats.sig_checks += checks;
            self.stats.sig_pruned += pruned;
            self.stats.subsumed += 1;
            return;
        }
        // Backward: every clause `c` subsumes contains each of `c`'s
        // literals, so the rarest one's occurrence list covers all
        // candidates.
        let anchor = c
            .lits()
            .iter()
            .copied()
            .min_by_key(|&l| self.live(l))
            .expect("non-empty clause");
        let mut victims = std::mem::take(&mut self.victims);
        if let Some(i) = self.position(anchor) {
            for &s in &self.occ[i].slots {
                let si = s as usize;
                let Some(existing) = &self.slots[si] else {
                    continue;
                };
                checks += 1;
                if sig & !self.sigs[si] != 0 {
                    pruned += 1;
                    continue;
                }
                if c.subsumes(existing) {
                    victims.push(s);
                }
            }
        }
        self.stats.sig_checks += checks;
        self.stats.sig_pruned += pruned;
        for &s in &victims {
            self.remove(s as usize);
            self.stats.subsumed += 1;
        }
        victims.clear();
        self.victims = victims;
        self.attach(c);
    }

    /// Registers a clause in the slot table and occurrence lists with no
    /// subsumption checks.
    fn attach(&mut self, c: Clause) {
        let id = self.slots.len() as u32;
        for &l in c.lits() {
            let o = self.occ_mut(l);
            o.slots.push(id);
            o.live += 1;
        }
        self.sigs.push(sig_of(&c));
        self.slots.push(Some(c));
    }

    /// Tombstones a slot, keeping occurrence counts exact. The slot id
    /// stays in the occurrence lists until they are next walked.
    fn remove(&mut self, slot: usize) -> Option<Clause> {
        let c = self.slots[slot].take()?;
        for &l in c.lits() {
            self.occ_mut(l).live -= 1;
        }
        Some(c)
    }

    /// Moves every live clause containing `l` into `out`, compacting the
    /// occurrence list on the way.
    fn detach(&mut self, l: Lit, out: &mut Vec<Clause>) {
        let Some(i) = self.position(l) else {
            return;
        };
        let mut slots = std::mem::take(&mut self.spare);
        std::mem::swap(&mut slots, &mut self.occ[i].slots);
        for &s in &slots {
            if let Some(c) = self.remove(s as usize) {
                out.push(c);
            }
        }
        slots.clear();
        self.spare = slots;
    }

    /// Eliminates `f` by resolution: every clause mentioning `f` is
    /// replaced by the non-tautological resolvents of its positive and
    /// negative occurrences (`∃f.β`). Touches only the indexed
    /// occurrences of `f` — never the rest of the database.
    pub(crate) fn eliminate(&mut self, f: Flag) {
        if self.unsat {
            return;
        }
        let mut pos = std::mem::take(&mut self.pos);
        let mut neg = std::mem::take(&mut self.neg);
        self.detach(Lit::pos(f), &mut pos);
        self.detach(Lit::neg(f), &mut neg);
        self.resolve_pivot(f, &pos, &neg);
        pos.clear();
        neg.clear();
        self.pos = pos;
        self.neg = neg;
    }

    /// Inserts the resolvents of the detached occurrences of `f`.
    fn resolve_pivot(&mut self, f: Flag, pos: &[Clause], neg: &[Clause]) {
        if pos.is_empty() && neg.is_empty() {
            return;
        }
        self.stats.eliminated += 1;
        // Class check: with only binary implications and units the
        // pivot can be spliced out of the implication graph; wider
        // clauses (symmetric concat, `when` guards) need general
        // resolution.
        let binary_only = pos.iter().chain(neg).all(|c| c.len() <= 2);
        if binary_only {
            self.stats.fastpath += 1;
        } else {
            self.stats.fallback += 1;
        }
        if pos.is_empty() || neg.is_empty() {
            // Pure literal: ∃f picks the satisfying polarity and the
            // detached clauses vanish.
            return;
        }
        if binary_only {
            // (x ∨ f) ⊗ (y ∨ ¬f) = (x ∨ y): splice predecessors onto
            // successors. `None` encodes a unit occurrence of the pivot.
            let other = |c: &Clause, pivot: Lit| -> Option<Lit> {
                c.lits().iter().copied().find(|&l| l != pivot)
            };
            for pc in pos {
                let p = other(pc, Lit::pos(f));
                for sc in neg {
                    let s = other(sc, Lit::neg(f));
                    match (p, s) {
                        (None, None) => {
                            self.stats.resolvents += 1;
                            self.unsat = true;
                            return;
                        }
                        (Some(x), None) | (None, Some(x)) => {
                            self.stats.resolvents += 1;
                            self.insert(Clause::unit(x));
                        }
                        (Some(x), Some(y)) if x == y => {
                            self.stats.resolvents += 1;
                            self.insert(Clause::unit(x));
                        }
                        (Some(x), Some(y)) => {
                            if x != y.negate() {
                                self.stats.resolvents += 1;
                                self.insert(Clause::binary(x, y).expect("x ≠ ¬y"));
                            }
                        }
                    }
                    if self.unsat {
                        return;
                    }
                }
            }
        } else {
            for p in pos {
                for n in neg {
                    if let Some(r) = p.resolve(n, Lit::pos(f)) {
                        self.stats.resolvents += 1;
                        self.insert(r);
                    }
                    if self.unsat {
                        return;
                    }
                }
            }
        }
    }

    /// Moves the live clauses out of the database into `out`, in slot
    /// order.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<Clause>) {
        out.extend(self.slots.drain(..).flatten());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> Lit {
        Lit::pos(Flag(i))
    }
    fn n(i: u32) -> Lit {
        Lit::neg(Flag(i))
    }
    fn clause(lits: &[Lit]) -> Clause {
        Clause::new(lits.to_vec()).expect("not a tautology")
    }

    #[test]
    fn build_attaches_without_subsumption() {
        // The initial set is attached verbatim; redundancy is tolerated.
        let db = ClauseDb::new(vec![clause(&[p(0), p(1), p(2)]), clause(&[p(0), p(1)])]);
        assert_eq!(db.stats.subsumed, 0);
        assert_eq!(db.clone_clauses().len(), 2);
    }

    #[test]
    fn insert_dedupes_and_subsumes() {
        let mut db = ClauseDb::new(vec![clause(&[p(0), p(1), p(2)])]);
        // Forward: a duplicate of an existing clause is dropped.
        db.insert(clause(&[p(0), p(1), p(2)]));
        assert_eq!(db.stats.subsumed, 1);
        // Backward: a stronger clause evicts the weaker wide one.
        db.insert(clause(&[p(0), p(1)]));
        assert_eq!(db.clone_clauses(), vec![clause(&[p(0), p(1)])]);
        assert_eq!(db.stats.subsumed, 2);
        // Backward: a stronger clause evicts the weaker one.
        db.insert(clause(&[p(0)]));
        assert_eq!(db.stats.subsumed, 3);
        assert_eq!(db.clone_clauses(), vec![clause(&[p(0)])]);
    }

    #[test]
    fn eliminate_splices_binary_chain() {
        let mut db = ClauseDb::new(vec![clause(&[n(0), p(1)]), clause(&[n(1), p(2)])]);
        db.eliminate(Flag(1));
        assert_eq!(db.stats.fastpath, 1);
        assert_eq!(db.stats.fallback, 0);
        assert_eq!(db.clone_clauses(), vec![clause(&[n(0), p(2)])]);
    }

    #[test]
    fn eliminate_unit_conflict_is_unsat() {
        let mut db = ClauseDb::new(vec![Clause::unit(p(0)), Clause::unit(n(0))]);
        db.eliminate(Flag(0));
        assert!(db.is_unsat());
    }

    #[test]
    fn eliminate_wide_clause_uses_fallback() {
        let mut db = ClauseDb::new(vec![clause(&[p(0), p(1), p(2)]), clause(&[n(0), p(3)])]);
        db.eliminate(Flag(0));
        assert_eq!(db.stats.fallback, 1);
        assert_eq!(db.stats.fastpath, 0);
        assert_eq!(db.clone_clauses(), vec![clause(&[p(1), p(2), p(3)])]);
    }

    #[test]
    fn occurrence_counts_track_insert_and_remove() {
        let mut db = ClauseDb::new(vec![clause(&[n(0), p(1)]), clause(&[n(1), p(2)])]);
        assert_eq!(db.occurrences(Flag(1)), 2);
        db.eliminate(Flag(1));
        assert_eq!(db.occurrences(Flag(1)), 0);
        assert_eq!(db.occurrences(Flag(0)), 1);
        assert_eq!(db.occurrences(Flag(2)), 1);
    }

    #[test]
    fn mentioned_flags_ignores_tombstones() {
        let mut db = ClauseDb::new(vec![clause(&[n(0), p(1)])]);
        assert_eq!(db.mentioned_flags(), vec![Flag(0), Flag(1)]);
        db.eliminate(Flag(1));
        // The resolvent set is empty (pure literal), so nothing is live.
        assert_eq!(db.mentioned_flags(), Vec::<Flag>::new());
    }

    #[test]
    fn cleared_database_matches_a_fresh_one() {
        let mut db = ClauseDb::new(vec![
            clause(&[p(0), p(1), p(2)]),
            clause(&[n(0), p(3)]),
            clause(&[n(3), p(4)]),
        ]);
        db.eliminate(Flag(0));
        db.eliminate(Flag(3));
        db.clear();
        // A smaller universe next: stale lists past it must stay unread.
        for c in [clause(&[n(5), p(6)]), clause(&[n(6), p(7)])] {
            db.load(c);
        }
        db.index();
        assert_eq!(db.mentioned_flags(), vec![Flag(5), Flag(6), Flag(7)]);
        assert_eq!(db.occurrences(Flag(4)), 0);
        db.eliminate(Flag(6));
        let mut fresh = ClauseDb::new(vec![clause(&[n(5), p(6)]), clause(&[n(6), p(7)])]);
        fresh.eliminate(Flag(6));
        assert_eq!(db.stats, fresh.stats);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        db.drain_into(&mut got);
        fresh.drain_into(&mut want);
        assert_eq!(got, want);
        assert_eq!(got, vec![clause(&[n(5), p(7)])]);
    }

    impl ClauseDb {
        /// Test helper: the live clauses, sorted.
        fn clone_clauses(&self) -> Vec<Clause> {
            let mut v: Vec<Clause> = self.slots.iter().flatten().cloned().collect();
            v.sort();
            v
        }
    }
}
