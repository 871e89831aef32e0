//! Substitutions over type and row variables.

use std::collections::HashMap;
use std::fmt;

use crate::ty::{FieldEntry, Row, RowTail, Ty, Var};

/// An idempotent substitution mapping type variables to skeleton types and
/// row variables to skeleton row suffixes.
///
/// Substitutions are produced by unification over `⇓RP`-skeletons (the
/// codomain carries `NO_FLAG` sentinels). Applying one to a flow-decorated
/// `PR` term is *not* done with [`Subst::apply`] — that is the job of
/// `applyS` ([`crate::apply_subst_flow`]), which decorates every inserted
/// copy with fresh flags and replicates the flow in β.
#[derive(Clone, Default, PartialEq)]
pub struct Subst {
    ty: HashMap<Var, Ty>,
    row: HashMap<Var, Row>,
}

impl Subst {
    /// The identity substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// Whether this is the identity substitution.
    pub fn is_empty(&self) -> bool {
        self.ty.is_empty() && self.row.is_empty()
    }

    /// The type binding of `v`, if any.
    pub fn ty_binding(&self, v: Var) -> Option<&Ty> {
        self.ty.get(&v)
    }

    /// The row binding of `v`, if any.
    pub fn row_binding(&self, v: Var) -> Option<&Row> {
        self.row.get(&v)
    }

    /// Whether `v` is in the substitution's domain (as either sort).
    pub fn binds(&self, v: Var) -> bool {
        self.ty.contains_key(&v) || self.row.contains_key(&v)
    }

    /// Iterates over type bindings.
    pub fn ty_bindings(&self) -> impl Iterator<Item = (Var, &Ty)> {
        self.ty.iter().map(|(&v, t)| (v, t))
    }

    /// Iterates over row bindings.
    pub fn row_bindings(&self) -> impl Iterator<Item = (Var, &Row)> {
        self.row.iter().map(|(&v, r)| (v, r))
    }

    /// Builds a pure renaming `[a1/b1, …, an/bn]`, used for scheme
    /// instantiation. Whether each `ai` is a type or a row variable is not
    /// yet known, so the renaming is recorded in *both* sorts; application
    /// picks the right one from the occurrence position.
    pub fn renaming(pairs: impl IntoIterator<Item = (Var, Var)>) -> Subst {
        let mut s = Subst::new();
        for (from, to) in pairs {
            s.ty.insert(from, Ty::svar(to));
            s.row.insert(
                from,
                Row {
                    fields: Vec::new(),
                    tail: RowTail::Var(to, crate::ty::NO_FLAG),
                },
            );
        }
        s
    }

    /// Adds the binding `v ↦ t`, keeping the substitution idempotent:
    /// `t` is first closed under `self`, then the new binding is applied
    /// to every existing right-hand side.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is already bound or occurs in the
    /// closed `t` (the caller — unification — performs the occurs check).
    pub fn bind_ty(&mut self, v: Var, t: &Ty) {
        let t = self.apply(t);
        debug_assert!(!t.mentions_var(v), "occurs-check violation binding {v:?}");
        let single = Subst {
            ty: HashMap::from([(v, t.clone())]),
            row: HashMap::new(),
        };
        for rhs in self.ty.values_mut() {
            *rhs = single.apply(rhs);
        }
        for rhs in self.row.values_mut() {
            *rhs = single.apply_row_suffix(rhs);
        }
        let prev = self.ty.insert(v, t);
        debug_assert!(prev.is_none(), "variable bound twice");
    }

    /// Adds the row binding `v ↦ row` (same discipline as [`Self::bind_ty`]).
    pub fn bind_row(&mut self, v: Var, row: &Row) {
        let row = self.apply_row_suffix(row);
        debug_assert!(
            !Ty::Record(row.clone()).mentions_var(v),
            "occurs-check violation binding row {v:?}"
        );
        let single = Subst {
            ty: HashMap::new(),
            row: HashMap::from([(v, row.clone())]),
        };
        for rhs in self.ty.values_mut() {
            *rhs = single.apply(rhs);
        }
        for rhs in self.row.values_mut() {
            *rhs = single.apply_row_suffix(rhs);
        }
        let prev = self.row.insert(v, row);
        debug_assert!(prev.is_none(), "row variable bound twice");
    }

    /// Applies the substitution to a skeleton type. Flags on untouched
    /// structure are preserved; inserted bindings carry `NO_FLAG`.
    pub fn apply(&self, t: &Ty) -> Ty {
        if self.is_empty() {
            return t.clone();
        }
        match t {
            Ty::Var(v, f) => match self.ty.get(v) {
                Some(b) => b.clone(),
                None => Ty::Var(*v, *f),
            },
            Ty::Int => Ty::Int,
            Ty::Str => Ty::Str,
            Ty::List(t) => Ty::List(Box::new(self.apply(t))),
            Ty::Fun(a, b) => Ty::Fun(Box::new(self.apply(a)), Box::new(self.apply(b))),
            Ty::Record(row) => Ty::Record(self.apply_row(row)),
        }
    }

    fn apply_row(&self, row: &Row) -> Row {
        let mut fields: Vec<FieldEntry> = row
            .fields
            .iter()
            .map(|f| FieldEntry {
                name: f.name,
                flag: f.flag,
                ty: self.apply(&f.ty),
            })
            .collect();
        let tail = match row.tail {
            RowTail::Closed => RowTail::Closed,
            RowTail::Var(v, f) => match self.row.get(&v) {
                None => RowTail::Var(v, f),
                Some(suffix) => {
                    for extra in &suffix.fields {
                        debug_assert!(
                            fields.iter().all(|f| f.name != extra.name),
                            "row splice introduces duplicate field {}",
                            extra.name
                        );
                        fields.push(extra.clone());
                    }
                    suffix.tail.clone()
                }
            },
        };
        fields.sort_by_key(|f| f.name);
        Row { fields, tail }
    }

    /// Applies the substitution to a row suffix (a row-variable binding).
    pub fn apply_row_suffix(&self, row: &Row) -> Row {
        self.apply_row(row)
    }
}

impl fmt::Debug for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut first = true;
        let mut tys: Vec<_> = self.ty.iter().collect();
        tys.sort_by_key(|(v, _)| **v);
        for (v, t) in tys {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{v:?}/{t:?}")?;
        }
        let mut rows: Vec<_> = self.row.iter().collect();
        rows.sort_by_key(|(v, _)| **v);
        for (v, r) in rows {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{v:?}/row{r:?}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::NO_FLAG;
    use rowpoly_lang::Symbol;

    fn field(name: &str, ty: Ty) -> FieldEntry {
        FieldEntry {
            name: Symbol::intern(name),
            flag: NO_FLAG,
            ty,
        }
    }

    #[test]
    fn apply_replaces_variables() {
        let mut s = Subst::new();
        s.bind_ty(Var(0), &Ty::Int);
        let t = Ty::fun(Ty::svar(Var(0)), Ty::svar(Var(1)));
        assert_eq!(s.apply(&t), Ty::fun(Ty::Int, Ty::svar(Var(1))));
    }

    #[test]
    fn bind_keeps_idempotence() {
        // [a/ b→b] then [b/Int] must give a ↦ Int→Int.
        let mut s = Subst::new();
        s.bind_ty(Var(0), &Ty::fun(Ty::svar(Var(1)), Ty::svar(Var(1))));
        s.bind_ty(Var(1), &Ty::Int);
        assert_eq!(s.apply(&Ty::svar(Var(0))), Ty::fun(Ty::Int, Ty::Int));
        // Applying twice changes nothing.
        let once = s.apply(&Ty::svar(Var(0)));
        assert_eq!(s.apply(&once), once);
    }

    #[test]
    fn row_splice_merges_and_sorts() {
        // {z : Int, r} with r ↦ {a : Str, q} gives {a : Str, z : Int, q}.
        let mut s = Subst::new();
        s.bind_row(
            Var(0),
            &Row {
                fields: vec![field("a", Ty::Str)],
                tail: RowTail::Var(Var(1), NO_FLAG),
            },
        );
        let t = Ty::record(vec![field("z", Ty::Int)], RowTail::Var(Var(0), NO_FLAG));
        match s.apply(&t) {
            Ty::Record(row) => {
                assert_eq!(row.fields.len(), 2);
                assert_eq!(row.fields[0].name, Symbol::intern("a"));
                assert_eq!(row.fields[1].name, Symbol::intern("z"));
                assert_eq!(row.tail, RowTail::Var(Var(1), NO_FLAG));
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn row_binding_composes() {
        // r0 ↦ {a, r1}, then r1 ↦ {b, closed}: r0 covers both fields.
        let mut s = Subst::new();
        s.bind_row(
            Var(0),
            &Row {
                fields: vec![field("a", Ty::Int)],
                tail: RowTail::Var(Var(1), NO_FLAG),
            },
        );
        s.bind_row(
            Var(1),
            &Row {
                fields: vec![field("b", Ty::Int)],
                tail: RowTail::Closed,
            },
        );
        let t = Ty::record(vec![], RowTail::Var(Var(0), NO_FLAG));
        match s.apply(&t) {
            Ty::Record(row) => {
                assert_eq!(row.fields.len(), 2);
                assert_eq!(row.tail, RowTail::Closed);
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn renaming_handles_both_sorts() {
        let s = Subst::renaming([(Var(0), Var(10))]);
        // As a type variable.
        assert_eq!(s.apply(&Ty::svar(Var(0))), Ty::svar(Var(10)));
        // As a row variable.
        let t = Ty::record(vec![], RowTail::Var(Var(0), NO_FLAG));
        match s.apply(&t) {
            Ty::Record(row) => assert_eq!(row.tail, RowTail::Var(Var(10), NO_FLAG)),
            other => panic!("expected record, got {other:?}"),
        }
    }
}
