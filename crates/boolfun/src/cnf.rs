//! Boolean functions in conjunctive normal form.

use std::collections::BTreeSet;
use std::fmt;

use crate::clause::Clause;
use crate::lit::{Flag, FlagSet, Lit};
use crate::sat::{self, SatResult};

/// A Boolean function β represented in conjunctive normal form.
///
/// The inference keeps one such function per judgement; it is refined by
/// conjunction as inference rules fire. `Cnf` maintains the invariants that
/// clauses are normalised (sorted, duplicate-free, non-tautological) and the
/// clause set itself is duplicate-free.
///
/// The paper writes sequences of implications between the flag sequences of
/// two types, `*t1+ ⇒ *t2+` and `*t1+ ⇔ *t2+`; these are provided as
/// [`Cnf::imply_seq`] and [`Cnf::iff_seq`].
#[derive(Clone, PartialEq, Eq)]
pub struct Cnf {
    pub(crate) clauses: Vec<Clause>,
    /// Whether `clauses` is known sorted + deduplicated.
    pub(crate) normalized: bool,
}

impl Default for Cnf {
    fn default() -> Cnf {
        Cnf::top()
    }
}

impl Cnf {
    /// The empty conjunction `true` (the top element of the lattice `B`).
    pub fn top() -> Cnf {
        Cnf {
            clauses: Vec::new(),
            normalized: true,
        }
    }

    /// The empty conjunction `true`, reusing `storage`'s clause
    /// allocation. Engines that run many short inference sessions
    /// (one per definition group) recycle the clause vector between
    /// sessions via [`Cnf::into_storage`] instead of reallocating.
    pub fn top_reusing(mut storage: Vec<Clause>) -> Cnf {
        storage.clear();
        Cnf {
            clauses: storage,
            normalized: true,
        }
    }

    /// Consumes the function, returning its clause storage for reuse
    /// with [`Cnf::top_reusing`].
    pub fn into_storage(self) -> Vec<Clause> {
        self.clauses
    }

    /// A function that is trivially unsatisfiable (`⊥B`).
    pub fn bottom() -> Cnf {
        Cnf {
            clauses: vec![Clause::empty()],
            normalized: true,
        }
    }

    /// Builds a CNF from clauses.
    pub fn from_clauses(clauses: impl IntoIterator<Item = Clause>) -> Cnf {
        let mut cnf = Cnf::top();
        for c in clauses {
            cnf.add_clause(c);
        }
        cnf
    }

    /// Whether this is syntactically the empty conjunction.
    pub fn is_top(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Whether this contains the empty clause (trivially unsatisfiable).
    pub fn has_empty_clause(&self) -> bool {
        self.clauses.iter().any(Clause::is_empty)
    }

    /// The clauses of this function.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether there are no clauses (i.e. the function is `true`).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Conjoins a single clause.
    pub fn add_clause(&mut self, c: Clause) {
        self.clauses.push(c);
        self.normalized = false;
    }

    /// Conjoins a clause given as raw literals; tautologies are dropped.
    pub fn add_lits(&mut self, lits: Vec<Lit>) {
        if let Some(c) = Clause::new(lits) {
            self.add_clause(c);
        }
    }

    /// Asserts that the literal `l` holds (conjoins the unit clause `{l}`).
    pub fn assert_lit(&mut self, l: Lit) {
        self.add_clause(Clause::unit(l));
    }

    /// Conjoins the implication `a → b`, i.e. the clause `¬a ∨ b`.
    pub fn imply(&mut self, a: Lit, b: Lit) {
        if let Some(c) = Clause::binary(a.negate(), b) {
            self.add_clause(c);
        }
    }

    /// Conjoins the bi-implication `a ↔ b`.
    pub fn iff(&mut self, a: Lit, b: Lit) {
        self.imply(a, b);
        self.imply(b, a);
    }

    /// The lifted sequence implication
    /// `⟨a1,…,an⟩ ⇒ ⟨b1,…,bn⟩ ≡ a1→b1 ∧ … ∧ an→bn`.
    ///
    /// Entries may be negative literals; negation encodes the
    /// contra-variant positions produced by the `*t+` flag extraction.
    ///
    /// # Panics
    ///
    /// Panics if the sequences have different lengths — the inference
    /// guarantees equal lengths by only relating types with equal
    /// `⇓RP`-skeletons, so a mismatch is a bug in the caller.
    pub fn imply_seq(&mut self, from: &[Lit], to: &[Lit]) {
        assert_eq!(
            from.len(),
            to.len(),
            "sequence implication requires equally long flag sequences"
        );
        for (&a, &b) in from.iter().zip(to) {
            self.imply(a, b);
        }
    }

    /// The lifted bi-implication `s1 ⇔ s2 ≡ (s1 ⇒ s2) ∧ (s2 ⇒ s1)`.
    ///
    /// # Panics
    ///
    /// Panics if the sequences have different lengths.
    pub fn iff_seq(&mut self, a: &[Lit], b: &[Lit]) {
        self.imply_seq(a, b);
        self.imply_seq(b, a);
    }

    /// Conjoins another Boolean function.
    pub fn and(&mut self, other: &Cnf) {
        self.clauses.extend(other.clauses.iter().cloned());
        self.normalized = false;
    }

    /// Conjoins another Boolean function, taking its clauses. Both sides
    /// are normalised and merged linearly, so the result is the sorted,
    /// deduplicated clause set [`Cnf::and`] plus [`Cnf::normalize`] give,
    /// without copying `other`'s clauses or re-sorting the union.
    pub fn conjoin(&mut self, mut other: Cnf) {
        self.normalize();
        other.normalize();
        if other.clauses.is_empty() {
            return;
        }
        if self.clauses.is_empty() {
            *self = other;
            return;
        }
        let mut merged = Vec::new();
        crate::project::merge_dedup_into(&mut self.clauses, &mut other.clauses, &mut merged);
        self.clauses = merged;
    }

    /// Sorts and deduplicates the clause set.
    pub fn normalize(&mut self) {
        if !self.normalized {
            self.clauses.sort_unstable();
            self.clauses.dedup();
            self.normalized = true;
        }
    }

    /// Removes clauses subsumed by another clause. Quadratic; intended for
    /// keeping projected formulas small, not for hot paths.
    pub fn subsume(&mut self) {
        self.normalize();
        let clauses = std::mem::take(&mut self.clauses);
        let mut kept: Vec<Clause> = Vec::with_capacity(clauses.len());
        // Sorted order puts shorter prefixes first, which tends to place
        // subsuming clauses early, but we still need the full check.
        'next: for c in clauses {
            for k in &kept {
                if k.subsumes(&c) {
                    continue 'next;
                }
            }
            kept.retain(|k| !c.subsumes(k));
            kept.push(c);
        }
        self.clauses = kept;
        self.normalized = false;
        self.normalize();
    }

    /// The set of flags mentioned by this function.
    pub fn flags(&self) -> FlagSet {
        let mut set = BTreeSet::new();
        for c in &self.clauses {
            for l in c.lits() {
                set.insert(l.flag());
            }
        }
        set
    }

    /// Splits the clause set into the clauses mentioning at least one of
    /// the given flags and the rest. Used to move a finished definition's
    /// flow into its scheme.
    pub fn split_mentioning(&self, flags: &FlagSet) -> (Cnf, Cnf) {
        let mut hit = Cnf::top();
        let mut rest = Cnf::top();
        for c in &self.clauses {
            if c.lits().iter().any(|l| flags.contains(&l.flag())) {
                hit.add_clause(c.clone());
            } else {
                rest.add_clause(c.clone());
            }
        }
        hit.normalize();
        rest.normalize();
        (hit, rest)
    }

    /// Whether the flag `f` occurs in any clause.
    pub fn mentions(&self, f: Flag) -> bool {
        self.clauses
            .iter()
            .any(|c| c.contains(Lit::pos(f)) || c.contains(Lit::neg(f)))
    }

    /// Evaluates the function under a total assignment
    /// (`assign[flag.index()] = value`; the slice must cover every flag
    /// mentioned).
    pub fn eval(&self, assign: &[bool]) -> bool {
        self.clauses.iter().all(|c| c.eval(assign))
    }

    /// Decides satisfiability with the cheapest applicable solver
    /// (2-SAT, Horn-SAT, or CDCL; see [`crate::classify`]).
    pub fn is_sat(&self) -> bool {
        matches!(self.solve(), SatResult::Sat(_))
    }

    /// Full solver result, including a model or an explanation, from
    /// [`sat::solve`].
    pub fn solve(&self) -> SatResult {
        match sat::solve(self, &sat::SatBudget::unlimited()) {
            Ok(r) => r,
            Err(stop) => unreachable!("unlimited budget stopped a solve: {stop}"),
        }
    }

    /// Whether `self ⊨ other` (every model of `self` satisfies `other`).
    ///
    /// Decided clause-by-clause: `self ⊨ c` iff `self ∧ ¬c` is
    /// unsatisfiable. Intended for tests and assertions, not hot paths.
    pub fn entails(&self, other: &Cnf) -> bool {
        other.clauses.iter().all(|c| self.entails_clause(c))
    }

    /// Whether `self ⊨ c` for a single clause.
    pub fn entails_clause(&self, c: &Clause) -> bool {
        let mut query = self.clone();
        for &l in c.lits() {
            query.assert_lit(l.negate());
        }
        !query.is_sat()
    }

    /// Whether `self` and `other` have the same models over all flags
    /// (logical equivalence). Intended for tests.
    pub fn equivalent(&self, other: &Cnf) -> bool {
        self.entails(other) && other.entails(self)
    }

    /// Enumerates all models over the given flag universe. Exponential in
    /// `universe.len()`; intended for tests against small formulas.
    ///
    /// Each model is returned as the set of flags assigned `true`.
    ///
    /// # Panics
    ///
    /// Panics if the universe misses a mentioned flag or exceeds 24 flags.
    pub fn models(&self, universe: &[Flag]) -> Vec<BTreeSet<Flag>> {
        assert!(
            universe.len() <= 24,
            "model enumeration limited to 24 flags"
        );
        let mentioned = self.flags();
        for f in &mentioned {
            assert!(universe.contains(f), "universe misses mentioned flag {f}");
        }
        let max = universe
            .iter()
            .map(|f| f.index())
            .max()
            .map_or(0, |m| m + 1);
        let mut assign = vec![false; max];
        let mut out = Vec::new();
        for bits in 0u64..(1u64 << universe.len()) {
            for (i, f) in universe.iter().enumerate() {
                assign[f.index()] = bits >> i & 1 == 1;
            }
            if self.eval(&assign) {
                out.push(
                    universe
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| bits >> i & 1 == 1)
                        .map(|(_, &f)| f)
                        .collect(),
                );
            }
        }
        out
    }
}

impl fmt::Debug for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return write!(f, "true");
        }
        let mut first = true;
        for c in &self.clauses {
            if !first {
                write!(f, " ∧ ")?;
            }
            first = false;
            if c.len() > 1 {
                write!(f, "({c:?})")?;
            } else {
                write!(f, "{c:?}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
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

    #[test]
    fn conjoin_equals_and_then_normalize() {
        let mut rng = rowpoly_obs::rng::SplitMix64::seed_from_u64(0xc0);
        let mut random = |len: usize| {
            let mut cnf = Cnf::top();
            for _ in 0..len {
                let a = Lit::new(Flag(rng.gen_range(0..6u32)), rng.gen_bool(0.5));
                let b = Lit::new(Flag(rng.gen_range(0..6u32)), rng.gen_bool(0.5));
                cnf.add_lits(if rng.gen_bool(0.3) {
                    vec![a]
                } else {
                    vec![a, b]
                });
            }
            if rng.gen_bool(0.5) {
                cnf.normalize();
            }
            cnf
        };
        for case in 0..200 {
            let (a, b) = (random(case % 13), random(case % 7));
            let mut want = a.clone();
            want.and(&b);
            want.normalize();
            let mut got = a;
            got.conjoin(b);
            assert_eq!(got.clauses(), want.clauses());
            assert!(got.normalized);
        }
    }

    #[test]
    fn top_is_sat_bottom_is_not() {
        assert!(Cnf::top().is_sat());
        assert!(!Cnf::bottom().is_sat());
    }

    #[test]
    fn implication_chain_propagates() {
        // f0 → f1 → f2, f0, ¬f2 is unsat.
        let mut b = Cnf::top();
        b.imply(p(0), p(1));
        b.imply(p(1), p(2));
        b.assert_lit(p(0));
        assert!(b.is_sat());
        b.assert_lit(n(2));
        assert!(!b.is_sat());
    }

    #[test]
    fn iff_seq_panics_on_length_mismatch() {
        let mut b = Cnf::top();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.iff_seq(&[p(0)], &[p(1), p(2)]);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn imply_seq_with_negated_entries() {
        // ⟨¬f0⟩ ⇒ ⟨¬f1⟩ is ¬f0 → ¬f1, i.e. f1 → f0.
        let mut b = Cnf::top();
        b.imply_seq(&[n(0)], &[n(1)]);
        let mut expect = Cnf::top();
        expect.imply(p(1), p(0));
        assert!(b.equivalent(&expect));
    }

    #[test]
    fn subsume_removes_weaker_clauses() {
        let mut b = Cnf::top();
        b.add_lits(vec![p(0), p(1), p(2)]);
        b.add_lits(vec![p(0), p(1)]);
        b.add_lits(vec![p(0), p(1)]);
        b.subsume();
        assert_eq!(b.len(), 1);
        assert_eq!(b.clauses()[0].lits(), &[p(0), p(1)]);
    }

    #[test]
    fn entailment_and_equivalence() {
        let mut a = Cnf::top();
        a.assert_lit(p(0));
        a.imply(p(0), p(1));
        let mut b = Cnf::top();
        b.assert_lit(p(1));
        assert!(a.entails(&b));
        assert!(!b.entails(&a));

        let mut c = Cnf::top();
        c.assert_lit(p(0));
        c.assert_lit(p(1));
        assert!(a.equivalent(&c));
    }

    #[test]
    fn models_enumeration() {
        // f0 ↔ f1 over {f0, f1}: models {} and {f0, f1}.
        let mut b = Cnf::top();
        b.iff(p(0), p(1));
        let ms = b.models(&[Flag(0), Flag(1)]);
        assert_eq!(ms.len(), 2);
        assert!(ms.contains(&BTreeSet::new()));
        assert!(ms.contains(&[Flag(0), Flag(1)].into_iter().collect()));
    }

    #[test]
    fn mentions_reports_flags() {
        let mut b = Cnf::top();
        b.imply(p(3), n(5));
        assert!(b.mentions(Flag(3)));
        assert!(b.mentions(Flag(5)));
        assert!(!b.mentions(Flag(4)));
        assert_eq!(b.flags(), [Flag(3), Flag(5)].into_iter().collect());
    }
}
