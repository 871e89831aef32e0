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

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use rowpoly_obs as obs;

use crate::clause::Clause;
use crate::cnf::Cnf;
use crate::db::{ClauseDb, ProjectStats};
use crate::lit::{Flag, FlagSet, Lit};

/// Attribution site for bytes allocated by the projection engine. Its
/// buffers are recycled across calls, so after warm-up this mostly
/// counts their one-time growth plus clauses of more than three
/// literals (see `rowpoly-obs::mem`).
static CLAUSE_DB_MEM: obs::MemSite = obs::MemSite::new("boolfun.clause_db");

/// The buffers one projection call works in. Each thread keeps one set
/// and every call on that thread reuses it, so a projection no larger
/// than an earlier one allocates nothing.
#[derive(Default)]
struct Scratch {
    db: ClauseDb,
    /// Dead flags mentioned by a touched clause.
    worklist: Vec<Flag>,
    /// Cached occurrence counts of the flags still to eliminate.
    queue: Vec<Reverse<(usize, Flag)>>,
    /// Clauses surviving elimination.
    fresh: Vec<Clause>,
    /// The passive and surviving clauses, merged.
    merged: Vec<Clause>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// Drives a [`ClauseDb`] through the elimination worklist, cheapest
/// pivot first under a lazily revalidated greedy order. `worklist`
/// must be sorted and deduplicated; `queue` is working storage.
///
/// Almost every call eliminates a handful of flags from a small touched
/// set, where an argmin scan over a vector of cached counts beats any
/// priority queue; the heap with lazy revalidation only pays for itself
/// on wholesale sweeps (`finish_def`, `close_scheme`). Both pick the
/// same pivots: the least `(count, flag)` whose cached count is current.
fn run_elimination(db: &mut ClauseDb, worklist: &[Flag], queue: &mut Vec<Reverse<(usize, Flag)>>) {
    const SCAN_LIMIT: usize = 32;
    debug_assert!(
        worklist.windows(2).all(|w| w[0] < w[1]),
        "worklist must be sorted and deduplicated"
    );
    queue.clear();
    queue.extend(worklist.iter().map(|&f| Reverse((db.occurrences(f), f))));
    if queue.len() <= SCAN_LIMIT {
        while !queue.is_empty() && !db.is_unsat() {
            let (best, &Reverse((cached, f))) = queue
                .iter()
                .enumerate()
                .max_by_key(|&(_, &entry)| entry)
                .expect("non-empty queue");
            // Counts go stale as resolvents appear and subsumption
            // bites; revalidate only the chosen minimum.
            let current = db.occurrences(f);
            if current != cached {
                queue[best] = Reverse((current, f));
                continue;
            }
            queue.swap_remove(best);
            db.eliminate(f);
        }
    } else {
        let mut heap = BinaryHeap::from(std::mem::take(queue));
        while let Some(Reverse((count, f))) = heap.pop() {
            let current = db.occurrences(f);
            if current != count {
                // Stale priority: resolvents or subsumption changed
                // the count since this entry was pushed. Re-queue at
                // the current cost instead of eliminating out of
                // order.
                heap.push(Reverse((current, f)));
                continue;
            }
            db.eliminate(f);
            if db.is_unsat() {
                break;
            }
        }
        *queue = heap.into_vec();
    }
}

/// Merges two sorted, deduplicated clause runs into `out`, dropping
/// duplicates across the runs and leaving both inputs empty.
pub(crate) fn merge_dedup_into(a: &mut Vec<Clause>, b: &mut Vec<Clause>, out: &mut Vec<Clause>) {
    out.reserve(a.len() + b.len());
    let mut ia = a.drain(..).peekable();
    let mut ib = b.drain(..).peekable();
    loop {
        let next = match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) if x <= y => ia.next(),
            (Some(_), Some(_)) => ib.next(),
            (Some(_), None) => ia.next(),
            (None, _) => ib.next(),
        };
        let Some(c) = next else { break };
        if out.last() != Some(&c) {
            out.push(c);
        }
    }
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
    /// against the passive clauses. All working storage comes from the
    /// thread's [`Scratch`].
    fn eliminate_where(&mut self, is_dead: impl Fn(Flag) -> bool) -> ProjectStats {
        let _mem = CLAUSE_DB_MEM.scope();
        // Taken out for the call, so a `keep` predicate that itself
        // projected would find empty buffers instead of these.
        let mut scratch = SCRATCH.take();
        let stats = self.eliminate_in(&mut scratch, is_dead);
        SCRATCH.set(scratch);
        stats
    }

    fn eliminate_in(
        &mut self,
        scratch: &mut Scratch,
        is_dead: impl Fn(Flag) -> bool,
    ) -> ProjectStats {
        let Scratch {
            db,
            worklist,
            queue,
            fresh,
            merged,
        } = scratch;
        db.clear();
        worklist.clear();
        let was_normalized = self.normalized;
        // Partition in place: touched clauses move into the database
        // (an inline empty clause takes each one's place) and the
        // passive ones keep their order. The scan visits every literal
        // anyway, so it also collects the elimination worklist.
        self.clauses.retain_mut(|c| {
            let mut hit = false;
            for l in c.lits() {
                if is_dead(l.flag()) {
                    hit = true;
                    worklist.push(l.flag());
                }
            }
            if hit {
                db.load(std::mem::replace(c, Clause::empty()));
            }
            !hit
        });
        if db.is_empty() {
            // Nothing dead is mentioned: the partition pass doubled as
            // the no-op check and moved nothing, so the CNF is exactly
            // as it was.
            return ProjectStats::default();
        }
        db.index();
        worklist.sort_unstable();
        worklist.dedup();
        run_elimination(db, worklist, queue);
        let stats = db.stats;
        if db.is_unsat() {
            self.clauses.clear();
            self.clauses.push(Clause::empty());
            self.normalized = false;
            self.normalize();
        } else {
            db.drain_into(fresh);
            fresh.sort_unstable();
            fresh.dedup();
            if was_normalized {
                // The partition preserved clause order, so the passive
                // clauses are still a sorted, deduplicated run: a linear
                // merge with the (small, just-sorted) survivors
                // renormalises the whole vector without re-sorting the
                // untouched bulk.
                if !fresh.is_empty() {
                    merge_dedup_into(&mut self.clauses, fresh, merged);
                    self.clauses.append(merged);
                }
                self.normalized = true;
            } else {
                self.clauses.append(fresh);
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
