//! Existential projection (quantifier elimination) by resolution.
//!
//! Projection is the hottest phase of flow inference (Fig. 9's `project`
//! column), so it runs on the occurrence-indexed [`ClauseDb`] engine:
//! eliminating a flag touches only the clauses that mention it, the
//! greedy cheapest-first order is re-evaluated as occurrence counts
//! change, binary-implication pivots take an implication-graph fast
//! path, and subsumption runs inline against signature-compatible
//! candidates instead of as a full quadratic rescan afterwards. See
//! `DESIGN.md` ("Projection engine") for the index layout.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashSet};

use rowpoly_obs as obs;

use crate::clause::Clause;
use crate::cnf::Cnf;
use crate::db::{ClauseDb, ProjectStats};
use crate::lit::{Flag, FlagSet, Lit};

/// Attribution site for bytes allocated by the occurrence-indexed
/// [`ClauseDb`] — slot table, occurrence lists, signatures, resolvents
/// (see `rowpoly-obs::mem`).
static CLAUSE_DB_MEM: obs::MemSite = obs::MemSite::new("boolfun.clause_db");

/// Drives a [`ClauseDb`] through the elimination worklist, cheapest
/// pivot first under a lazily revalidated greedy order. `worklist`
/// must be sorted and deduplicated.
///
/// Almost every call eliminates a handful of flags from a small touched
/// set, where an argmin scan over a vector of cached counts beats any
/// priority queue; the heap with lazy revalidation only pays for itself
/// on wholesale sweeps (`finish_def`, `close_scheme`).
fn run_elimination(db: &mut ClauseDb, mut worklist: Vec<Flag>) {
    const SCAN_LIMIT: usize = 32;
    if worklist.len() <= SCAN_LIMIT {
        let mut rem: Vec<(Flag, usize)> =
            worklist.iter().map(|&f| (f, db.occurrences(f))).collect();
        while !rem.is_empty() && !db.is_unsat() {
            let (best, &(f, cached)) = rem
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(f, c))| (c, f))
                .expect("non-empty remaining");
            // Counts go stale as resolvents appear and subsumption
            // bites; revalidate only the chosen minimum.
            let current = db.occurrences(f);
            if current != cached {
                rem[best].1 = current;
                continue;
            }
            rem.swap_remove(best);
            db.eliminate(f);
        }
    } else {
        let mut remaining: BTreeSet<Flag> = worklist.drain(..).collect();
        let mut heap: BinaryHeap<Reverse<(usize, Flag)>> = remaining
            .iter()
            .map(|&f| Reverse((db.occurrences(f), f)))
            .collect();
        while let Some(Reverse((count, f))) = heap.pop() {
            if !remaining.contains(&f) {
                continue;
            }
            let current = db.occurrences(f);
            if current != count {
                // Stale priority: resolvents or subsumption changed
                // the count since this entry was pushed. Re-queue at
                // the current cost instead of eliminating out of
                // order.
                heap.push(Reverse((current, f)));
                continue;
            }
            remaining.remove(&f);
            db.eliminate(f);
            if db.is_unsat() {
                break;
            }
        }
    }
}

/// Merges two sorted, deduplicated clause runs into one, dropping
/// duplicates across the runs.
fn merge_dedup(a: Vec<Clause>, b: Vec<Clause>) -> Vec<Clause> {
    if b.is_empty() {
        return a;
    }
    if a.is_empty() {
        return b;
    }
    let mut out: Vec<Clause> = Vec::with_capacity(a.len() + b.len());
    let mut ia = a.into_iter().peekable();
    let mut ib = b.into_iter().peekable();
    loop {
        let take_a = match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => x <= y,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let c = if take_a {
            ia.next().expect("peeked")
        } else {
            ib.next().expect("peeked")
        };
        if out.last() != Some(&c) {
            out.push(c);
        }
    }
    out
}

impl Cnf {
    /// Existentially projects the given flags out of the function:
    /// computes a CNF equivalent to `∃ dead . β` mentioning none of the
    /// `dead` flags.
    ///
    /// The paper relies on Boolean functions being "closed under projection
    /// onto a subset of variables" so that the flow inferred inside a
    /// function body can be narrowed to the flags of its type without
    /// losing precision, and notes (Section 6) that stale flags *must* be
    /// removed for the correctness of expansion.
    ///
    /// Implemented by Davis–Putnam variable elimination on the indexed
    /// clause database: for each dead flag `f`, all resolvents of clauses
    /// containing `f` with clauses containing `¬f` replace those clauses.
    /// Tautological resolvents are dropped and subsumed clauses are
    /// discarded as they appear, so no separate reduction pass is needed.
    pub fn project_out(&mut self, dead: &FlagSet) -> ProjectStats {
        // The dead check runs once per literal of the whole formula (the
        // partition scan), so flatten the set into a sorted slice first:
        // a binary search over dense `u32`s beats pointer-chasing the
        // B-tree on every literal.
        let flat: Vec<Flag> = dead.iter().copied().collect();
        self.project_out_sorted(&flat)
    }

    /// [`Cnf::project_out`] over a sorted, deduplicated slice. The hot
    /// inference paths keep their dead sets in this shape already, so
    /// this entry point spares them a `FlagSet` round-trip per call.
    pub fn project_out_sorted(&mut self, dead: &[Flag]) -> ProjectStats {
        debug_assert!(dead.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        if dead.is_empty() {
            return ProjectStats::default();
        }
        // Typical dead sets hold a handful of flags; a linear sweep over
        // dense `u32`s is branch-predictable and vectorises, while the
        // binary search only wins once the set is genuinely large.
        if dead.len() <= 8 {
            self.eliminate_where(|f| dead.contains(&f))
        } else {
            self.eliminate_where(|f| dead.binary_search(&f).is_ok())
        }
    }

    fn record_obs(&self, stats: &ProjectStats) {
        if obs::enabled() {
            obs::counter_add("project.elim.fastpath", stats.fastpath as u64);
            obs::counter_add("project.elim.fallback", stats.fallback as u64);
            obs::counter_add("project.resolvents", stats.resolvents as u64);
            obs::counter_add("project.subsumed", stats.subsumed as u64);
            obs::counter_add("project.sig.checks", stats.sig_checks as u64);
            obs::counter_add("project.sig.pruned", stats.sig_pruned as u64);
        }
    }

    /// Projects onto the complement: keeps only the `live` flags,
    /// eliminating every other mentioned flag.
    pub fn project_onto(&mut self, live: &FlagSet) -> ProjectStats {
        self.project_unless(|f| live.contains(&f))
    }

    /// Eliminates every mentioned flag for which `keep` returns false.
    /// Like [`Cnf::project_onto`] but with a membership predicate: the
    /// engine's partition scan collects the dead flags as it visits
    /// each literal, so neither the caller nor this method materialises
    /// a dead-flag set up front.
    pub fn project_unless(&mut self, keep: impl Fn(Flag) -> bool) -> ProjectStats {
        self.eliminate_where(|f| !keep(f))
    }

    /// The projection engine proper: moves the clauses *touching a dead
    /// flag* into a [`ClauseDb`], eliminates every mentioned dead flag —
    /// cheapest first under a lazily revalidated greedy order, so the
    /// order tracks the *current* occurrence counts as resolvents appear
    /// — and merges the surviving clauses back.
    ///
    /// Clauses over live flags only never enter the database: a typical
    /// [`Cnf::project_out`] call kills a handful of flags out of a large
    /// β, and indexing (and subsuming against) the untouched majority is
    /// exactly the whole-CNF rescan this engine exists to avoid. Every
    /// clause mentioning a dead flag is indexed, so occurrence counts
    /// are exact for every pivot; resolvents are subsumption-checked
    /// against the indexed set, and one final renormalisation — a linear
    /// merge when the input was already normalised — dedupes them
    /// against the passive clauses.
    fn eliminate_where(&mut self, is_dead: impl Fn(Flag) -> bool) -> ProjectStats {
        let _mem = CLAUSE_DB_MEM.scope();
        let was_normalized = self.normalized;
        let mut passive: Vec<Clause> = Vec::new();
        let mut db = ClauseDb::empty();
        let mut touched = 0usize;
        // The partition scan visits every literal anyway, so it also
        // collects the dead flags that are actually mentioned — the
        // elimination worklist — sparing a walk over the occurrence
        // index afterwards.
        let mut worklist: Vec<Flag> = Vec::new();
        for c in std::mem::take(&mut self.clauses) {
            let mut hit = false;
            for l in c.lits() {
                if is_dead(l.flag()) {
                    hit = true;
                    worklist.push(l.flag());
                }
            }
            if hit {
                db.attach(c);
                touched += 1;
            } else {
                passive.push(c);
            }
        }
        if touched == 0 {
            // Nothing dead is mentioned: the single partition pass above
            // doubled as the no-op check, and `passive` preserved the
            // original clause order, so the CNF is exactly as it was.
            self.clauses = passive;
            return ProjectStats::default();
        }
        run_elimination(&mut db, worklist);
        let stats = db.stats;
        if db.is_unsat() {
            self.clauses = vec![Clause::empty()];
            self.normalized = false;
            self.normalize();
        } else {
            let mut fresh = db.into_clauses();
            fresh.sort_unstable();
            fresh.dedup();
            if was_normalized {
                // The partition preserved clause order, so `passive` is
                // still a sorted, deduplicated run: a linear merge with
                // the (small, just-sorted) survivors renormalises the
                // whole vector without re-sorting the untouched bulk.
                self.clauses = merge_dedup(passive, fresh);
                self.normalized = true;
                self.note_structural_change();
            } else {
                self.clauses = passive;
                self.clauses.extend(fresh);
                self.normalized = false;
                self.normalize();
            }
        }
        self.record_obs(&stats);
        stats
    }

    /// Reference Davis–Putnam projection: the naive engine the indexed
    /// one replaced. For each dead flag the whole clause set is
    /// partitioned on the pivot and cross-resolved; duplicates are
    /// fended off with a per-call seen-set and the clause vector is
    /// normalised and subsumption-reduced once per call (not once per
    /// flag). Retained as the differential-testing oracle and as the
    /// "before" arm of the `project` microbench.
    pub fn project_out_dp(&mut self, dead: &FlagSet) {
        if dead.is_empty() {
            return;
        }
        // Static greedy order, computed once up front (the indexed
        // engine re-sorts dynamically; the reference keeps the old
        // behaviour on purpose).
        let mut counts: std::collections::HashMap<Flag, usize> = std::collections::HashMap::new();
        for c in self.clauses() {
            for l in c.lits() {
                *counts.entry(l.flag()).or_insert(0) += 1;
            }
        }
        let mut order: Vec<Flag> = dead.iter().copied().collect();
        order.sort_by_key(|f| counts.get(f).copied().unwrap_or(0));
        let mut seen: HashSet<Clause> = self.clauses.iter().cloned().collect();
        for f in order {
            self.eliminate_dp(f, &mut seen);
        }
        self.normalized = false;
        self.subsume();
    }

    /// One naive elimination step: partition everything, resolve the
    /// pivot partitions pairwise. `seen` suppresses duplicate resolvents
    /// across steps in place of the per-flag renormalisation the old
    /// implementation did.
    fn eliminate_dp(&mut self, f: Flag, seen: &mut HashSet<Clause>) {
        let pos_lit = Lit::pos(f);
        let neg_lit = Lit::neg(f);
        let mut pos: Vec<Clause> = Vec::new();
        let mut neg: Vec<Clause> = Vec::new();
        let mut rest: Vec<Clause> = Vec::new();
        for c in std::mem::take(&mut self.clauses) {
            if c.contains(pos_lit) {
                seen.remove(&c);
                pos.push(c);
            } else if c.contains(neg_lit) {
                seen.remove(&c);
                neg.push(c);
            } else {
                rest.push(c);
            }
        }
        for p in &pos {
            for n in &neg {
                if let Some(r) = p.resolve(n, pos_lit) {
                    if seen.insert(r.clone()) {
                        rest.push(r);
                    }
                }
            }
        }
        self.clauses = rest;
        self.normalized = false;
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
    fn set(flags: &[u32]) -> FlagSet {
        flags.iter().map(|&i| Flag(i)).collect()
    }

    #[test]
    fn projection_keeps_transitive_implication() {
        // ∃f1 . (f0 → f1) ∧ (f1 → f2) ≡ f0 → f2.
        let mut b = Cnf::top();
        b.imply(p(0), p(1));
        b.imply(p(1), p(2));
        let stats = b.project_out(&set(&[1]));
        let mut expect = Cnf::top();
        expect.imply(p(0), p(2));
        assert!(b.equivalent(&expect));
        assert!(!b.mentions(Flag(1)));
        assert_eq!(stats.eliminated, 1);
        assert_eq!(stats.fastpath, 1);
        assert_eq!(stats.fallback, 0);
    }

    #[test]
    fn projection_of_unconstrained_flag_is_identity() {
        let mut b = Cnf::top();
        b.imply(p(0), p(2));
        let before = b.clone();
        let stats = b.project_out(&set(&[7]));
        assert!(b.equivalent(&before));
        assert_eq!(stats, ProjectStats::default());
    }

    #[test]
    fn projection_preserves_satisfiability() {
        // ∃f . (f) ∧ (¬f) is unsat.
        let mut b = Cnf::top();
        b.assert_lit(p(0));
        b.assert_lit(n(0));
        b.project_out(&set(&[0]));
        assert!(!b.is_sat());

        // ∃f . (f ∨ g) is true (no constraint on g).
        let mut b = Cnf::top();
        b.add_lits(vec![p(0), p(1)]);
        b.project_out(&set(&[0]));
        assert!(b.is_top());
    }

    #[test]
    fn project_onto_keeps_only_live() {
        let mut b = Cnf::top();
        b.imply(p(0), p(1));
        b.imply(p(1), p(2));
        b.imply(p(2), p(3));
        b.project_onto(&set(&[0, 3]));
        let mut expect = Cnf::top();
        expect.imply(p(0), p(3));
        assert!(b.equivalent(&expect));
    }

    /// Model-theoretic check: models of ∃f.β over the remaining universe
    /// are exactly the restrictions of β's models.
    #[test]
    fn projection_matches_model_semantics() {
        let mut b = Cnf::top();
        b.add_lits(vec![p(0), p(1), n(2)]);
        b.add_lits(vec![n(0), p(2)]);
        b.iff(p(1), p(2));
        let universe = [Flag(0), Flag(1), Flag(2)];
        let full = b.models(&universe);
        let mut projected = b.clone();
        projected.project_out(&set(&[1]));
        let got = projected.models(&[Flag(0), Flag(2)]);
        let mut expect: Vec<_> = full
            .into_iter()
            .map(|m| {
                m.into_iter()
                    .filter(|f| *f != Flag(1))
                    .collect::<std::collections::BTreeSet<_>>()
            })
            .collect();
        expect.sort();
        expect.dedup();
        let mut got = got;
        got.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn equivalence_chain_projection_is_compact() {
        // A long chain of bi-implications projects to a single one.
        let mut b = Cnf::top();
        for i in 0..10 {
            b.iff(p(i), p(i + 1));
        }
        b.project_onto(&set(&[0, 10]));
        let mut expect = Cnf::top();
        expect.iff(p(0), p(10));
        assert!(b.equivalent(&expect));
        assert!(b.len() <= 2, "subsumption keeps the projection small");
    }

    #[test]
    fn wide_clauses_route_through_the_fallback() {
        // fr ↔ f0 ∨ f1 (a symmetric-concat shape): eliminating f0 needs
        // general resolution over the 3-literal clause.
        let mut b = Cnf::top();
        b.add_lits(vec![n(2), p(0), p(1)]);
        b.imply(p(0), p(2));
        b.imply(p(1), p(2));
        let full = b.models(&[Flag(0), Flag(1), Flag(2)]);
        let stats = b.project_out(&set(&[0]));
        assert_eq!(stats.fallback, 1);
        let mut expect: Vec<std::collections::BTreeSet<Flag>> = full
            .into_iter()
            .map(|m| m.into_iter().filter(|&f| f != Flag(0)).collect())
            .collect();
        expect.sort();
        expect.dedup();
        let mut got = b.models(&[Flag(1), Flag(2)]);
        got.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn indexed_and_reference_agree_on_a_mixed_formula() {
        let mut a = Cnf::top();
        a.add_lits(vec![p(0), p(1), n(2)]);
        a.add_lits(vec![n(0), p(3)]);
        a.imply(p(3), p(4));
        a.assert_lit(p(1));
        let mut b = a.clone();
        let dead = set(&[0, 3]);
        a.project_out(&dead);
        b.project_out_dp(&dead);
        assert!(a.equivalent(&b), "indexed {a:?} vs reference {b:?}");
    }

    #[test]
    fn unsat_projection_reports_bottom() {
        // f0 → f1, f0, ¬f1: eliminating everything derives ⊥.
        let mut b = Cnf::top();
        b.imply(p(0), p(1));
        b.assert_lit(p(0));
        b.assert_lit(n(1));
        b.project_out(&set(&[0, 1]));
        assert!(!b.is_sat());
        assert!(b.has_empty_clause());
    }
}
