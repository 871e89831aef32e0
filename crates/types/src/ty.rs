//! Type terms: monotypes `M`, polytypes `P`, and record polytypes `PR`.
//!
//! One representation serves all three universes of the paper:
//!
//! * `PR` (record polymorphic types with flow): every type-variable
//!   occurrence and every record field carries a [`Flag`];
//! * `P` (plain polytypes): the same terms with every flag set to the
//!   [`NO_FLAG`] sentinel — this is the image of the projection `⇓RP`;
//! * `M` (monotypes): `P` terms without variables and with closed rows.

use rowpoly_boolfun::{Flag, FlagAlloc};
use rowpoly_lang::FieldName;
use std::collections::BTreeSet;
use std::fmt;

/// A type or row variable.
///
/// Kinds are not tracked explicitly: a variable used as a row tail is a row
/// variable, one used as a type is a type variable. Unification reports a
/// kind clash as a plain mismatch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Allocator of fresh type variables; one per inference session.
#[derive(Clone, Debug, Default)]
pub struct VarAlloc {
    next: u32,
}

impl VarAlloc {
    /// Creates an allocator with no variables allocated.
    pub fn new() -> VarAlloc {
        VarAlloc { next: 0 }
    }

    /// Returns a fresh variable.
    pub fn fresh(&mut self) -> Var {
        let v = Var(self.next);
        self.next = self
            .next
            .checked_add(1)
            .expect("type-variable space exhausted");
        v
    }

    /// Number of variables allocated so far.
    pub fn count(&self) -> usize {
        self.next as usize
    }
}

/// Sentinel flag used by the flow-free universe `P` (the image of `⇓RP`).
///
/// Types whose flags are all `NO_FLAG` are *skeletons*; the Milner–Mycroft
/// inference without field tracking works entirely on skeletons.
pub const NO_FLAG: Flag = Flag(u32::MAX);

/// A type term.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Ty {
    /// A type-variable occurrence `a.fa`. Distinct occurrences of the same
    /// variable carry distinct flags.
    Var(Var, Flag),
    /// The integer base type.
    Int,
    /// The string base type.
    Str,
    /// Homogeneous lists `[t]`.
    List(Box<Ty>),
    /// Functions `t1 → t2`.
    Fun(Box<Ty>, Box<Ty>),
    /// Records `{N1.f1 : t1, …, Nn.fn : tn, ρ}`.
    Record(Row),
}

/// A record row: fields sorted by name plus a tail.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Row {
    /// Fields, strictly sorted by name.
    pub fields: Vec<FieldEntry>,
    /// The row tail: a row variable or closed.
    pub tail: RowTail,
}

/// One record field `N.f : t`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldEntry {
    /// Field name.
    pub name: FieldName,
    /// Existence flag (`NO_FLAG` in skeletons).
    pub flag: Flag,
    /// Field type.
    pub ty: Ty,
}

/// Tail of a row.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RowTail {
    /// An extensible row `a.fa`: the variable stands for the remaining
    /// fields, the flag for their (uniform) existence.
    Var(Var, Flag),
    /// A closed row: exactly the listed fields (monotypes only).
    Closed,
}

impl Ty {
    /// Shorthand for a flagged variable occurrence.
    pub fn var(v: Var, f: Flag) -> Ty {
        Ty::Var(v, f)
    }

    /// Shorthand for a skeleton variable occurrence.
    pub fn svar(v: Var) -> Ty {
        Ty::Var(v, NO_FLAG)
    }

    /// Shorthand for a function type.
    pub fn fun(a: Ty, b: Ty) -> Ty {
        Ty::Fun(Box::new(a), Box::new(b))
    }

    /// Shorthand for a list type.
    pub fn list(t: Ty) -> Ty {
        Ty::List(Box::new(t))
    }

    /// Builds a record from unsorted fields and a tail.
    ///
    /// # Panics
    ///
    /// Panics if two fields share a name.
    pub fn record(mut fields: Vec<FieldEntry>, tail: RowTail) -> Ty {
        fields.sort_by_key(|f| f.name);
        assert!(
            fields.windows(2).all(|w| w[0].name != w[1].name),
            "record with duplicate field"
        );
        Ty::Record(Row { fields, tail })
    }

    /// Free variables in first-occurrence order (depth-first, left to
    /// right), without duplicates.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        self.collect_vars(&mut seen, &mut out);
        out
    }

    /// Free variables as a set.
    pub fn vars_set(&self) -> BTreeSet<Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        self.collect_vars(&mut seen, &mut out);
        seen
    }

    fn collect_vars(&self, seen: &mut BTreeSet<Var>, out: &mut Vec<Var>) {
        match self {
            Ty::Var(v, _) => {
                if seen.insert(*v) {
                    out.push(*v);
                }
            }
            Ty::Int | Ty::Str => {}
            Ty::List(t) => t.collect_vars(seen, out),
            Ty::Fun(a, b) => {
                a.collect_vars(seen, out);
                b.collect_vars(seen, out);
            }
            Ty::Record(row) => {
                for f in &row.fields {
                    f.ty.collect_vars(seen, out);
                }
                if let RowTail::Var(v, _) = row.tail {
                    if seen.insert(v) {
                        out.push(v);
                    }
                }
            }
        }
    }

    /// Appends every variable occurrence to `out`, duplicates included.
    pub(crate) fn push_vars(&self, out: &mut Vec<Var>) {
        match self {
            Ty::Var(v, _) => out.push(*v),
            Ty::Int | Ty::Str => {}
            Ty::List(t) => t.push_vars(out),
            Ty::Fun(a, b) => {
                a.push_vars(out);
                b.push_vars(out);
            }
            Ty::Record(row) => {
                for f in &row.fields {
                    f.ty.push_vars(out);
                }
                if let RowTail::Var(v, _) = row.tail {
                    out.push(v);
                }
            }
        }
    }

    /// Whether the variable `v` occurs in this type (occurs check).
    pub fn mentions_var(&self, v: Var) -> bool {
        match self {
            Ty::Var(w, _) => *w == v,
            Ty::Int | Ty::Str => false,
            Ty::List(t) => t.mentions_var(v),
            Ty::Fun(a, b) => a.mentions_var(v) || b.mentions_var(v),
            Ty::Record(row) => {
                row.fields.iter().any(|f| f.ty.mentions_var(v))
                    || matches!(row.tail, RowTail::Var(w, _) if w == v)
            }
        }
    }

    /// All flags in the term, in `*t+` traversal order but without the
    /// polarity bookkeeping (see [`crate::flags::flag_lits`] for the real
    /// `*t+`). `NO_FLAG` sentinels are skipped.
    pub fn flags(&self) -> Vec<Flag> {
        let mut out = Vec::new();
        self.collect_flags(&mut out);
        out
    }

    /// Appends the term's flags to `out`, in [`Ty::flags`] order.
    pub fn collect_flags(&self, out: &mut Vec<Flag>) {
        match self {
            Ty::Var(_, f) => {
                if *f != NO_FLAG {
                    out.push(*f);
                }
            }
            Ty::Int | Ty::Str => {}
            Ty::List(t) => t.collect_flags(out),
            Ty::Fun(a, b) => {
                a.collect_flags(out);
                b.collect_flags(out);
            }
            Ty::Record(row) => {
                for f in &row.fields {
                    if f.flag != NO_FLAG {
                        out.push(f.flag);
                    }
                }
                if let RowTail::Var(_, f) = row.tail {
                    if f != NO_FLAG {
                        out.push(f);
                    }
                }
                for f in &row.fields {
                    f.ty.collect_flags(out);
                }
            }
        }
    }

    /// The projection `⇓RP`: the same term with every flag replaced by
    /// [`NO_FLAG`].
    pub fn strip(&self) -> Ty {
        self.map_flags(&mut |_| NO_FLAG)
    }

    /// The decoration `⇑RP`: the same term with every flag replaced by a
    /// fresh one. `⇑RP(⇓RP(t))` renames all flags of `t`.
    pub fn decorate(&self, flags: &mut FlagAlloc) -> Ty {
        self.map_flags(&mut |_| flags.fresh())
    }

    /// Structural map over all flag positions.
    pub fn map_flags(&self, f: &mut impl FnMut(Flag) -> Flag) -> Ty {
        match self {
            Ty::Var(v, fl) => Ty::Var(*v, f(*fl)),
            Ty::Int => Ty::Int,
            Ty::Str => Ty::Str,
            Ty::List(t) => Ty::List(Box::new(t.map_flags(f))),
            Ty::Fun(a, b) => Ty::Fun(Box::new(a.map_flags(f)), Box::new(b.map_flags(f))),
            Ty::Record(row) => Ty::Record(Row {
                fields: row
                    .fields
                    .iter()
                    .map(|fe| FieldEntry {
                        name: fe.name,
                        flag: f(fe.flag),
                        ty: fe.ty.map_flags(f),
                    })
                    .collect(),
                tail: match row.tail {
                    RowTail::Var(v, fl) => RowTail::Var(v, f(fl)),
                    RowTail::Closed => RowTail::Closed,
                },
            }),
        }
    }

    /// Whether all flags are `NO_FLAG` (the term is a `P` skeleton).
    pub fn is_skeleton(&self) -> bool {
        self.flags().is_empty()
    }

    /// Whether the term has no variables and only closed rows (a monotype).
    pub fn is_monotype(&self) -> bool {
        match self {
            Ty::Var(..) => false,
            Ty::Int | Ty::Str => true,
            Ty::List(t) => t.is_monotype(),
            Ty::Fun(a, b) => a.is_monotype() && b.is_monotype(),
            Ty::Record(row) => {
                matches!(row.tail, RowTail::Closed) && row.fields.iter().all(|f| f.ty.is_monotype())
            }
        }
    }
}

impl Row {
    /// Looks up a field by name.
    pub fn field(&self, name: FieldName) -> Option<&FieldEntry> {
        self.fields
            .binary_search_by(|f| f.name.cmp(&name))
            .ok()
            .map(|i| &self.fields[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowpoly_lang::Symbol;

    fn field(name: &str, flag: u32, ty: Ty) -> FieldEntry {
        FieldEntry {
            name: Symbol::intern(name),
            flag: Flag(flag),
            ty,
        }
    }

    #[test]
    fn record_sorts_fields() {
        let t = Ty::record(
            vec![field("zed", 0, Ty::Int), field("abc", 1, Ty::Str)],
            RowTail::Closed,
        );
        match &t {
            Ty::Record(row) => {
                assert_eq!(row.fields[0].name, Symbol::intern("abc"));
                assert_eq!(row.fields[1].name, Symbol::intern("zed"));
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn duplicate_fields_panic() {
        let _ = Ty::record(
            vec![field("a", 0, Ty::Int), field("a", 1, Ty::Str)],
            RowTail::Closed,
        );
    }

    #[test]
    fn vars_in_first_occurrence_order() {
        let (a, b) = (Var(0), Var(1));
        let t = Ty::fun(Ty::svar(b), Ty::fun(Ty::svar(a), Ty::svar(b)));
        assert_eq!(t.vars(), vec![b, a]);
    }

    #[test]
    fn strip_and_decorate() {
        let mut flags = FlagAlloc::new();
        let t = Ty::record(
            vec![field("x", 3, Ty::var(Var(0), Flag(4)))],
            RowTail::Var(Var(1), Flag(5)),
        );
        let stripped = t.strip();
        assert!(stripped.is_skeleton());
        let decorated = stripped.decorate(&mut flags);
        assert_eq!(decorated.flags().len(), 3);
        assert_eq!(decorated.strip(), stripped);
    }

    #[test]
    fn flags_order_fields_then_tail_then_types() {
        // {N.f0 : a.f2, b.f1} — order per Def. 1: field flags, tail flag,
        // then field types.
        let t = Ty::record(
            vec![field("n", 0, Ty::var(Var(0), Flag(2)))],
            RowTail::Var(Var(1), Flag(1)),
        );
        assert_eq!(t.flags(), vec![Flag(0), Flag(1), Flag(2)]);
    }

    #[test]
    fn mentions_var_sees_row_tail() {
        let t = Ty::record(vec![], RowTail::Var(Var(7), NO_FLAG));
        assert!(t.mentions_var(Var(7)));
        assert!(!t.mentions_var(Var(8)));
    }

    #[test]
    fn monotype_detection() {
        assert!(Ty::Int.is_monotype());
        assert!(Ty::fun(Ty::Int, Ty::Str).is_monotype());
        assert!(!Ty::svar(Var(0)).is_monotype());
        let open = Ty::record(vec![], RowTail::Var(Var(0), NO_FLAG));
        assert!(!open.is_monotype());
        let closed = Ty::record(vec![], RowTail::Closed);
        assert!(closed.is_monotype());
    }
}
