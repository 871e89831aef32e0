//! Propositional flag variables and literals.

use std::collections::BTreeSet;
use std::fmt;

/// A propositional variable ("flag") describing whether a record field
/// exists.
///
/// In the paper these are written `fa, fb, …` and annotate record fields
/// (`N.fN : t`) as well as type- and row-variable occurrences (`a.fa`).
///
/// Flags are allocated by a [`FlagAlloc`] and are plain indices, so they are
/// cheap to copy and can index into side tables (e.g. provenance maps kept
/// by the inference for error reporting).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Flag(pub u32);

impl Flag {
    /// Numeric index of this flag.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Allocator of fresh [`Flag`]s.
///
/// Each inference session owns one allocator; every `⇑RP` decoration and
/// every inference rule that introduces flags draws from it.
#[derive(Clone, Debug, Default)]
pub struct FlagAlloc {
    next: u32,
}

impl FlagAlloc {
    /// Creates an allocator with no flags allocated yet.
    pub fn new() -> Self {
        FlagAlloc { next: 0 }
    }

    /// Returns a fresh, never-before-returned flag.
    pub fn fresh(&mut self) -> Flag {
        let f = Flag(self.next);
        self.next = self
            .next
            .checked_add(1)
            .expect("flag space exhausted (2^32 flags)");
        f
    }

    /// Number of flags allocated so far. All allocated flags have indices
    /// in `0..count()`.
    pub fn count(&self) -> usize {
        self.next as usize
    }
}

/// A literal: a flag or its negation.
///
/// Encoded as `flag_index << 1 | sign` with `sign = 1` for negated, so
/// literals order first by flag, then positive before negative.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal `f`.
    pub fn pos(f: Flag) -> Lit {
        Lit(f.0 << 1)
    }

    /// The negative literal `¬f`.
    pub fn neg(f: Flag) -> Lit {
        Lit(f.0 << 1 | 1)
    }

    /// Builds a literal from a flag and a sign (`negated = true` for `¬f`).
    pub fn new(f: Flag, negated: bool) -> Lit {
        Lit(f.0 << 1 | negated as u32)
    }

    /// The underlying flag.
    pub fn flag(self) -> Flag {
        Flag(self.0 >> 1)
    }

    /// Whether this literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Renames the underlying flag, preserving the sign.
    pub fn with_flag(self, f: Flag) -> Lit {
        Lit(f.0 << 1 | (self.0 & 1))
    }

    /// Applies the polarity of `other` on top of this literal's own sign:
    /// if `other` is negated the result is this literal negated.
    ///
    /// This implements the contra-variant composition used when expanding
    /// flows onto the (possibly negated) entries of a `*t+` sequence.
    pub fn xor_sign(self, negated: bool) -> Lit {
        Lit(self.0 ^ negated as u32)
    }

    /// Raw encoded value (used by the solvers for indexing).
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Lit::code`].
    pub const fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "¬{}", self.flag())
        } else {
            write!(f, "{}", self.flag())
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An ordered set of flags.
///
/// Used for live-flag bookkeeping when projecting stale flags out of a
/// Boolean function.
pub type FlagSet = BTreeSet<Flag>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_monotone_and_distinct() {
        let mut a = FlagAlloc::new();
        let f0 = a.fresh();
        let f1 = a.fresh();
        assert_ne!(f0, f1);
        assert!(f0 < f1);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn lit_roundtrip() {
        let f = Flag(7);
        assert_eq!(Lit::pos(f).flag(), f);
        assert_eq!(Lit::neg(f).flag(), f);
        assert!(Lit::neg(f).is_neg());
        assert!(!Lit::pos(f).is_neg());
        assert_eq!(Lit::pos(f).negate(), Lit::neg(f));
        assert_eq!(Lit::neg(f).negate(), Lit::pos(f));
        assert_eq!(Lit::new(f, true), Lit::neg(f));
        assert_eq!(Lit::from_code(Lit::neg(f).code()), Lit::neg(f));
    }

    #[test]
    fn lit_xor_sign_composes_polarity() {
        let f = Flag(3);
        assert_eq!(Lit::pos(f).xor_sign(false), Lit::pos(f));
        assert_eq!(Lit::pos(f).xor_sign(true), Lit::neg(f));
        assert_eq!(Lit::neg(f).xor_sign(true), Lit::pos(f));
    }

    #[test]
    fn lit_ordering_groups_by_flag() {
        assert!(Lit::pos(Flag(0)) < Lit::neg(Flag(0)));
        assert!(Lit::neg(Flag(0)) < Lit::pos(Flag(1)));
    }

    #[test]
    fn lit_with_flag_preserves_sign() {
        let l = Lit::neg(Flag(2)).with_flag(Flag(9));
        assert_eq!(l, Lit::neg(Flag(9)));
    }
}
