//! Disjunctive clauses.
//!
//! Almost every clause flow inference builds has one to three literals
//! (select, update, removal and renaming emit two-variable Horn clauses;
//! paper, Section 5), so those are stored inline and cost no heap
//! allocation; longer clauses keep a boxed slice. Equality, ordering and
//! hashing are those of the literal slice, whichever form holds it.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::lit::Lit;

/// Longest clause stored inline.
const INLINE: usize = 3;

/// Filler for the unused inline slots; never read.
const PAD: Lit = Lit::from_code(0);

/// A disjunction of literals, kept sorted and duplicate-free.
///
/// The empty clause is the contradiction `⊥`. A clause containing both a
/// literal and its negation is a tautology; [`Clause::new`] reports this so
/// callers can drop it instead of storing it.
#[derive(Clone)]
pub struct Clause {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Inline { len: u8, lits: [Lit; INLINE] },
    Heap(Box<[Lit]>),
}

/// Sorts and deduplicates `lits` in place. Returns the normalised
/// length, or `None` if the literals contain some `l` and `¬l`.
fn normalize(lits: &mut [Lit]) -> Option<usize> {
    lits.sort_unstable();
    let mut len = 0;
    for i in 0..lits.len() {
        let l = lits[i];
        if len > 0 && lits[len - 1] == l {
            continue;
        }
        // Sorted, `l` and `¬l` are adjacent (positive first).
        if len > 0 && lits[len - 1].negate() == l {
            return None;
        }
        lits[len] = l;
        len += 1;
    }
    Some(len)
}

impl Clause {
    /// A clause over at most [`INLINE`] sorted, deduplicated literals.
    fn inline(lits: &[Lit]) -> Clause {
        let mut inline = [PAD; INLINE];
        inline[..lits.len()].copy_from_slice(lits);
        Clause {
            repr: Repr::Inline {
                len: lits.len() as u8,
                lits: inline,
            },
        }
    }

    /// A clause over sorted, deduplicated literals; a long clause keeps
    /// the vector's allocation.
    fn from_sorted(lits: Vec<Lit>) -> Clause {
        if lits.len() <= INLINE {
            return Clause::inline(&lits);
        }
        Clause {
            repr: Repr::Heap(lits.into_boxed_slice()),
        }
    }

    /// Normalises at most [`INLINE`] literals without touching the heap.
    fn from_short(mut lits: [Lit; INLINE], len: usize) -> Option<Clause> {
        let len = normalize(&mut lits[..len])?;
        Some(Clause::inline(&lits[..len]))
    }

    /// Normalises `lits` into a clause: sorts, deduplicates, and returns
    /// `None` if the clause is a tautology (contains `l` and `¬l`).
    pub fn new(mut lits: Vec<Lit>) -> Option<Clause> {
        let len = normalize(&mut lits)?;
        lits.truncate(len);
        Some(Clause::from_sorted(lits))
    }

    /// The unit clause `{l}`.
    pub fn unit(l: Lit) -> Clause {
        Clause::inline(&[l])
    }

    /// The binary clause `{a, b}`; `None` if it is the tautology `a ∨ ¬a`.
    pub fn binary(a: Lit, b: Lit) -> Option<Clause> {
        Clause::from_short([a, b, PAD], 2)
    }

    /// The contradiction `⊥` (empty clause).
    pub fn empty() -> Clause {
        Clause::inline(&[])
    }

    /// Literals of this clause, in sorted order.
    pub fn lits(&self) -> &[Lit] {
        match &self.repr {
            Repr::Inline { len, lits } => &lits[..*len as usize],
            Repr::Heap(lits) => lits,
        }
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits().len()
    }

    /// Whether this is the empty (contradictory) clause.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this clause contains the literal `l`.
    pub fn contains(&self, l: Lit) -> bool {
        self.lits().binary_search(&l).is_ok()
    }

    /// Whether every literal of `self` occurs in `other` (i.e. `self`
    /// subsumes `other`).
    pub fn subsumes(&self, other: &Clause) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let mut it = other.lits().iter();
        'outer: for l in self.lits() {
            for m in it.by_ref() {
                match m.cmp(l) {
                    Ordering::Less => continue,
                    Ordering::Equal => continue 'outer,
                    Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Resolves `self` (containing `pivot`) with `other` (containing
    /// `¬pivot`). Returns `None` if the resolvent is a tautology.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the pivot literals are not present.
    pub fn resolve(&self, other: &Clause, pivot: Lit) -> Option<Clause> {
        debug_assert!(self.contains(pivot), "pivot must occur in self");
        debug_assert!(other.contains(pivot.negate()), "¬pivot must occur in other");
        let a = self.lits().iter().copied().filter(|&l| l != pivot);
        let b = other
            .lits()
            .iter()
            .copied()
            .filter(|&l| l != pivot.negate());
        let len = self.len() + other.len() - 2;
        if len <= INLINE {
            let mut lits = [PAD; INLINE];
            let mut n = 0;
            merge(a, b, |l| {
                lits[n] = l;
                n += 1;
            })?;
            Some(Clause::inline(&lits[..n]))
        } else {
            let mut lits = Vec::with_capacity(len);
            merge(a, b, |l| lits.push(l))?;
            Some(Clause::from_sorted(lits))
        }
    }

    /// Applies a flag-renaming to each literal, re-normalising the result.
    /// Returns `None` if renaming produced a tautology.
    pub fn rename(&self, mut f: impl FnMut(Lit) -> Lit) -> Option<Clause> {
        let lits = self.lits();
        if lits.len() <= INLINE {
            let mut renamed = [PAD; INLINE];
            for (r, &l) in renamed.iter_mut().zip(lits) {
                *r = f(l);
            }
            Clause::from_short(renamed, lits.len())
        } else {
            Clause::new(lits.iter().map(|&l| f(l)).collect())
        }
    }

    /// Evaluates the clause under a total assignment
    /// (`assign[flag.index()] = value`).
    pub fn eval(&self, assign: &[bool]) -> bool {
        self.lits()
            .iter()
            .any(|l| assign[l.flag().index()] != l.is_neg())
    }
}

/// Merges two sorted, duplicate-free literal runs into `push`, dropping
/// literals the runs share. Returns `None` as soon as the merged run
/// holds some `l` and `¬l`.
fn merge(
    a: impl Iterator<Item = Lit>,
    b: impl Iterator<Item = Lit>,
    mut push: impl FnMut(Lit),
) -> Option<()> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    let mut last: Option<Lit> = None;
    loop {
        let l = match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) if x <= y => a.next(),
            (Some(_), Some(_)) => b.next(),
            (Some(_), None) => a.next(),
            (None, _) => b.next(),
        };
        let Some(l) = l else { return Some(()) };
        match last {
            Some(prev) if prev == l => continue,
            Some(prev) if prev.negate() == l => return None,
            _ => {}
        }
        push(l);
        last = Some(l);
    }
}

impl PartialEq for Clause {
    fn eq(&self, other: &Clause) -> bool {
        self.lits() == other.lits()
    }
}

impl Eq for Clause {}

impl PartialOrd for Clause {
    fn partial_cmp(&self, other: &Clause) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Clause {
    fn cmp(&self, other: &Clause) -> Ordering {
        self.lits().cmp(other.lits())
    }
}

impl Hash for Clause {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.lits().hash(state);
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "⊥");
        }
        let mut first = true;
        for l in self.lits() {
            if !first {
                write!(f, " ∨ ")?;
            }
            first = false;
            write!(f, "{l:?}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;

    use rowpoly_obs::rng::SplitMix64;

    use super::*;
    use crate::lit::Flag;

    fn p(i: u32) -> Lit {
        Lit::pos(Flag(i))
    }
    fn n(i: u32) -> Lit {
        Lit::neg(Flag(i))
    }

    #[test]
    fn new_sorts_and_dedups() {
        let c = Clause::new(vec![p(2), p(0), p(2), n(1)]).unwrap();
        assert_eq!(c.lits(), &[p(0), p(1).negate(), p(2)]);
    }

    #[test]
    fn new_detects_tautology() {
        assert!(Clause::new(vec![p(0), n(0)]).is_none());
        assert!(Clause::new(vec![p(1), p(0), n(1)]).is_none());
    }

    #[test]
    fn subsumption() {
        let small = Clause::new(vec![p(0), p(2)]).unwrap();
        let big = Clause::new(vec![p(0), n(1), p(2)]).unwrap();
        assert!(small.subsumes(&big));
        assert!(!big.subsumes(&small));
        assert!(small.subsumes(&small));
        let other = Clause::new(vec![p(0), n(2)]).unwrap();
        assert!(!small.subsumes(&other));
    }

    #[test]
    fn resolution_produces_resolvent() {
        // (a ∨ b) ⊗_a (¬a ∨ c) = (b ∨ c)
        let c1 = Clause::new(vec![p(0), p(1)]).unwrap();
        let c2 = Clause::new(vec![n(0), p(2)]).unwrap();
        let r = c1.resolve(&c2, p(0)).unwrap();
        assert_eq!(r.lits(), &[p(1), p(2)]);
    }

    #[test]
    fn resolution_tautology_is_none() {
        // (a ∨ b) ⊗_a (¬a ∨ ¬b) = (b ∨ ¬b) — tautology
        let c1 = Clause::new(vec![p(0), p(1)]).unwrap();
        let c2 = Clause::new(vec![n(0), n(1)]).unwrap();
        assert!(c1.resolve(&c2, p(0)).is_none());
    }

    #[test]
    fn resolution_to_empty_clause() {
        let c1 = Clause::unit(p(0));
        let c2 = Clause::unit(n(0));
        let r = c1.resolve(&c2, p(0)).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn eval_under_assignment() {
        let c = Clause::new(vec![n(0), p(1)]).unwrap();
        assert!(c.eval(&[false, false]));
        assert!(c.eval(&[true, true]));
        assert!(!c.eval(&[true, false]));
    }

    fn hash_of(x: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    fn is_inline(c: &Clause) -> bool {
        matches!(c.repr, Repr::Inline { .. })
    }

    /// A non-tautological clause of exactly `len` literals over flags
    /// `0..8`.
    fn clause_of_len(rng: &mut SplitMix64, len: usize) -> Clause {
        loop {
            let lits = (0..len)
                .map(|_| Lit::new(Flag(rng.gen_range(0..8u32)), rng.gen_bool(0.5)))
                .collect();
            if let Some(c) = Clause::new(lits).filter(|c| c.len() == len) {
                return c;
            }
        }
    }

    /// Clauses of every length from 0 to 6, so both sides of the
    /// inline/heap boundary appear.
    fn sample(rng: &mut SplitMix64) -> Vec<Clause> {
        (0..=6)
            .flat_map(|len| (0..12).map(move |_| len))
            .map(|len| clause_of_len(rng, len))
            .collect()
    }

    #[test]
    fn short_clauses_are_inline_and_long_ones_on_the_heap() {
        let mut rng = SplitMix64::seed_from_u64(1);
        for c in sample(&mut rng) {
            assert_eq!(is_inline(&c), c.len() <= INLINE, "{c:?}");
        }
        // Deduplication can bring a long literal list under the bound.
        let c = Clause::new(vec![p(0), p(1), p(0), p(2), p(1)]).unwrap();
        assert!(is_inline(&c));
        assert_eq!(
            std::mem::size_of::<Clause>(),
            std::mem::size_of::<Vec<Lit>>()
        );
    }

    #[test]
    fn order_equality_and_hash_follow_the_literal_slice() {
        let mut rng = SplitMix64::seed_from_u64(2);
        let clauses = sample(&mut rng);
        for c in &clauses {
            assert_eq!(hash_of(c), hash_of(&c.lits()), "{c:?}");
            // The former `Vec<Lit>` representation hashed the same way.
            assert_eq!(hash_of(c), hash_of(&c.lits().to_vec()), "{c:?}");
            for d in &clauses {
                assert_eq!(c.cmp(d), c.lits().cmp(d.lits()), "{c:?} vs {d:?}");
                assert_eq!(c.partial_cmp(d), Some(c.lits().cmp(d.lits())));
                assert_eq!(c == d, c.lits() == d.lits(), "{c:?} vs {d:?}");
            }
        }
    }

    #[test]
    fn resolve_agrees_with_normalising_the_concatenation() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let clauses = sample(&mut rng);
        let (mut inline, mut heap) = (0, 0);
        for c in &clauses {
            for d in &clauses {
                for &pivot in c.lits() {
                    if !d.contains(pivot.negate()) {
                        continue;
                    }
                    let concat: Vec<Lit> = c
                        .lits()
                        .iter()
                        .copied()
                        .filter(|&l| l != pivot)
                        .chain(d.lits().iter().copied().filter(|&l| l != pivot.negate()))
                        .collect();
                    let got = c.resolve(d, pivot);
                    assert_eq!(got, Clause::new(concat), "{c:?} ⊗ {d:?} on {pivot:?}");
                    if let Some(r) = got {
                        assert_eq!(is_inline(&r), r.len() <= INLINE, "{r:?}");
                        if r.len() <= INLINE {
                            inline += 1;
                        } else {
                            heap += 1;
                        }
                    }
                }
            }
        }
        assert!(inline > 0 && heap > 0, "{inline} inline, {heap} heap");
    }

    #[test]
    fn rename_agrees_with_normalising_the_renamed_literals() {
        let mut rng = SplitMix64::seed_from_u64(4);
        // Halving flags merges pairs of them: renamed clauses shrink
        // across the boundary, gain duplicates and become tautologies.
        let renamings: [fn(Lit) -> Lit; 3] = [
            |l| l.with_flag(Flag(l.flag().0 + 1)),
            |l| l.with_flag(Flag(l.flag().0 / 2)),
            |l| l.negate(),
        ];
        for c in sample(&mut rng) {
            for f in renamings {
                let got = c.rename(f);
                let expect = Clause::new(c.lits().iter().map(|&l| f(l)).collect());
                assert_eq!(got, expect, "renaming {c:?}");
                if let Some(r) = got {
                    assert_eq!(is_inline(&r), r.len() <= INLINE, "{r:?}");
                }
            }
        }
    }

    #[test]
    fn binary_and_unit_match_new() {
        for a in 0..6 {
            for b in 0..6 {
                let (a, b) = (Lit::from_code(a), Lit::from_code(b));
                assert_eq!(Clause::binary(a, b), Clause::new(vec![a, b]));
            }
            assert_eq!(Clause::unit(Lit::from_code(a)).lits(), &[Lit::from_code(a)]);
        }
        assert!(Clause::empty().is_empty());
    }
}
