//! Unification over `⇓RP`-skeletons, computing most general unifiers.
//!
//! Flags are ignored entirely: two types unify iff their skeletons do, as
//! in the paper where every rule first computes
//! `σ = mgu(⇓RP(…), ⇓RP(…))` and then transports the flows with `applyS`.
//! Rows unify in Rémy's style: common fields unify point-wise, fields
//! missing on one side are pushed into the other side's row variable
//! (failing on closed rows), with a fresh common tail.
//!
//! Unification is where types grow: every binding it makes is copied
//! into the types it is applied to. So it is also where type depth is
//! bounded: a binding deeper than [`MAX_TYPE_DEPTH`] fails with
//! [`UnifyError::TooDeep`], and no deeper type reaches the rest of
//! inference.

use rowpoly_lang::FieldName;
use std::collections::{BTreeSet, HashMap};

use crate::subst::Subst;
use crate::ty::{FieldEntry, Row, RowTail, Ty, Var, VarAlloc, NO_FLAG};

/// The deepest type a binding may hold, in nodes from root to leaf
/// (a record counts one level over its field types). The expression
/// bound (`rowpoly_lang::MAX_DEPTH`, 256) keeps every type a
/// definition writes out shallower than this, but composing a function
/// with itself doubles its result's depth per definition, and the
/// recursive walks over types (unification, `applyS`, rendering)
/// would overflow a pool worker's stack a few doublings later.
pub const MAX_TYPE_DEPTH: usize = 512;

/// Why unification failed.
#[derive(Clone, Debug, PartialEq)]
pub enum UnifyError {
    /// A binding would nest deeper than [`MAX_TYPE_DEPTH`].
    TooDeep,
    /// Binding a row variable would splice a field into a row that
    /// already has it (two rows sharing a tail variable demand
    /// contradictory extensions).
    RowFieldClash {
        /// The field that would be duplicated.
        field: FieldName,
    },
    /// Constructor clash, e.g. `Int` against `a → b`.
    Mismatch {
        /// The left-hand type at the clash.
        left: Ty,
        /// The right-hand type at the clash.
        right: Ty,
    },
    /// The occurs check failed: binding would build an infinite type.
    Occurs {
        /// The variable about to be bound.
        var: Var,
        /// The type it occurs in.
        ty: Ty,
    },
    /// A closed record lacks a required field.
    MissingField {
        /// The missing field.
        field: FieldName,
        /// The closed record type.
        record: Ty,
    },
}

impl std::fmt::Display for UnifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnifyError::Mismatch { left, right } => {
                write!(f, "cannot unify `{left:?}` with `{right:?}`")
            }
            UnifyError::Occurs { var, ty } => {
                write!(f, "infinite type: {var:?} occurs in `{ty:?}`")
            }
            UnifyError::MissingField { field, record } => {
                write!(f, "record `{record:?}` has no field `{field}`")
            }
            UnifyError::RowFieldClash { field } => {
                write!(f, "conflicting row extensions for field `{field}`")
            }
            UnifyError::TooDeep => {
                write!(f, "type nests deeper than {MAX_TYPE_DEPTH} levels")
            }
        }
    }
}

impl std::error::Error for UnifyError {}

/// Computes the most general unifier of `t1` and `t2` (skeleton-level).
pub fn unify(t1: &Ty, t2: &Ty, vars: &mut VarAlloc) -> Result<Subst, UnifyError> {
    mgu(std::iter::once((t1.clone(), t2.clone())), vars)
}

/// Computes the most general unifier of a set of equations.
pub fn mgu(
    pairs: impl IntoIterator<Item = (Ty, Ty)>,
    vars: &mut VarAlloc,
) -> Result<Subst, UnifyError> {
    let mut subst = Subst::new();
    let mut work: Vec<(Ty, Ty)> = pairs.into_iter().collect();
    // A row variable must not be extended with a field that some row
    // ending in it already has (Rémy's "lacks" constraints). Pre-scan all
    // occurrences; bindings register their fresh tails as they are made.
    let mut lacks: Lacks = HashMap::new();
    for (a, b) in &work {
        collect_lacks(a, &mut lacks);
        collect_lacks(b, &mut lacks);
    }
    // Process in order; `work` is used as a stack of remaining equations.
    work.reverse();
    while let Some((a, b)) = work.pop() {
        let a = subst.apply(&a);
        let b = subst.apply(&b);
        match (a, b) {
            (Ty::Var(x, _), Ty::Var(y, _)) if x == y => {}
            (Ty::Var(x, _), t) | (t, Ty::Var(x, _)) => match bound_depth(&t, x) {
                None => return Err(UnifyError::Occurs { var: x, ty: t }),
                Some(depth) if depth > MAX_TYPE_DEPTH => return Err(UnifyError::TooDeep),
                Some(_) => subst.bind_ty(x, &t.strip()),
            },
            (Ty::Int, Ty::Int) | (Ty::Str, Ty::Str) => {}
            (Ty::List(a), Ty::List(b)) => work.push((*a, *b)),
            (Ty::Fun(a1, a2), Ty::Fun(b1, b2)) => {
                work.push((*a2, *b2));
                work.push((*a1, *b1));
            }
            (Ty::Record(r1), Ty::Record(r2)) => {
                unify_rows(r1, r2, &mut subst, &mut work, vars, &mut lacks)?;
            }
            (left, right) => return Err(UnifyError::Mismatch { left, right }),
        }
    }
    Ok(subst)
}

type Lacks = HashMap<Var, BTreeSet<FieldName>>;

/// The depth of `t`, or `None` when `x` occurs in it: the occurs check
/// and the depth bound in one walk.
fn bound_depth(t: &Ty, x: Var) -> Option<usize> {
    let depth = match t {
        Ty::Var(v, _) => return (*v != x).then_some(1),
        Ty::Int | Ty::Str => 0,
        Ty::List(inner) => bound_depth(inner, x)?,
        Ty::Fun(a, b) => bound_depth(a, x)?.max(bound_depth(b, x)?),
        Ty::Record(row) => row_depth(row, x)?,
    };
    Some(depth + 1)
}

/// The depth of a row's field types, or `None` when `x` occurs in the
/// row (a field type or the tail).
fn row_depth(row: &Row, x: Var) -> Option<usize> {
    if matches!(row.tail, RowTail::Var(v, _) if v == x) {
        return None;
    }
    row.fields
        .iter()
        .try_fold(0, |depth, f| Some(depth.max(bound_depth(&f.ty, x)?)))
}

/// Checks that `suffix` may extend row variable `v`: `v` does not occur
/// in it and its field types nest at most [`MAX_TYPE_DEPTH`] levels.
fn check_row_binding(v: Var, suffix: &Row) -> Result<(), UnifyError> {
    match row_depth(suffix, v) {
        None => Err(UnifyError::Occurs {
            var: v,
            ty: Ty::Record(suffix.clone()),
        }),
        Some(depth) if depth > MAX_TYPE_DEPTH => Err(UnifyError::TooDeep),
        Some(_) => Ok(()),
    }
}

/// Records, for every row tail variable in `t`, the fields its row
/// already carries.
fn collect_lacks(t: &Ty, lacks: &mut Lacks) {
    match t {
        Ty::Var(..) | Ty::Int | Ty::Str => {}
        Ty::List(inner) => collect_lacks(inner, lacks),
        Ty::Fun(a, b) => {
            collect_lacks(a, lacks);
            collect_lacks(b, lacks);
        }
        Ty::Record(row) => {
            if let RowTail::Var(v, _) = row.tail {
                lacks
                    .entry(v)
                    .or_default()
                    .extend(row.fields.iter().map(|f| f.name));
            }
            for f in &row.fields {
                collect_lacks(&f.ty, lacks);
            }
        }
    }
}

/// Checks that extending row variable `v` with `fields` respects its
/// lacks set.
fn check_lacks(v: Var, fields: &[FieldEntry], lacks: &Lacks) -> Result<(), UnifyError> {
    if let Some(banned) = lacks.get(&v) {
        if let Some(f) = fields.iter().find(|f| banned.contains(&f.name)) {
            return Err(UnifyError::RowFieldClash { field: f.name });
        }
    }
    Ok(())
}

fn unify_rows(
    r1: Row,
    r2: Row,
    subst: &mut Subst,
    work: &mut Vec<(Ty, Ty)>,
    vars: &mut VarAlloc,
    lacks: &mut Lacks,
) -> Result<(), UnifyError> {
    // Sorted merge of the two field lists.
    let mut only1: Vec<FieldEntry> = Vec::new();
    let mut only2: Vec<FieldEntry> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < r1.fields.len() || j < r2.fields.len() {
        match (r1.fields.get(i), r2.fields.get(j)) {
            (Some(f1), Some(f2)) => match f1.name.cmp(&f2.name) {
                std::cmp::Ordering::Equal => {
                    work.push((f1.ty.clone(), f2.ty.clone()));
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    only1.push(f1.clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    only2.push(f2.clone());
                    j += 1;
                }
            },
            (Some(f1), None) => {
                only1.push(f1.clone());
                i += 1;
            }
            (None, Some(f2)) => {
                only2.push(f2.clone());
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    let strip_fields = |fs: &[FieldEntry]| -> Vec<FieldEntry> {
        fs.iter()
            .map(|f| FieldEntry {
                name: f.name,
                flag: NO_FLAG,
                ty: f.ty.strip(),
            })
            .collect()
    };
    match (r1.tail.clone(), r2.tail.clone()) {
        (RowTail::Var(a, _), RowTail::Var(b, _)) if a == b => {
            // Same remaining fields by construction; extra fields on either
            // side cannot be absorbed.
            if let Some(f) = only1.first().or(only2.first()) {
                return Err(UnifyError::Mismatch {
                    left: Ty::Record(Row {
                        fields: vec![f.clone()],
                        tail: RowTail::Var(a, NO_FLAG),
                    }),
                    right: Ty::Record(Row {
                        fields: Vec::new(),
                        tail: RowTail::Var(a, NO_FLAG),
                    }),
                });
            }
        }
        (RowTail::Var(a, _), RowTail::Var(b, _)) => {
            // a absorbs r2's extra fields, b absorbs r1's, sharing a fresh
            // common tail c.
            let c = vars.fresh();
            let suffix_a = Row {
                fields: strip_fields(&only2),
                tail: RowTail::Var(c, NO_FLAG),
            };
            let suffix_b = Row {
                fields: strip_fields(&only1),
                tail: RowTail::Var(c, NO_FLAG),
            };
            check_lacks(a, &suffix_a.fields, lacks)?;
            check_lacks(b, &suffix_b.fields, lacks)?;
            check_row_binding(a, &suffix_a)?;
            check_row_binding(b, &suffix_b)?;
            // The common tail inherits both variables' constraints plus
            // every field now known on either side.
            let mut banned: BTreeSet<FieldName> = BTreeSet::new();
            if let Some(s) = lacks.get(&a) {
                banned.extend(s.iter().copied());
            }
            if let Some(s) = lacks.get(&b) {
                banned.extend(s.iter().copied());
            }
            banned.extend(r1.fields.iter().map(|f| f.name));
            banned.extend(r2.fields.iter().map(|f| f.name));
            lacks.insert(c, banned);
            subst.bind_row(a, &suffix_a);
            // `b` may have been touched by binding `a` (it cannot — row
            // bindings only mention `c` and field types — but re-check the
            // occurs condition after closure for safety in debug builds).
            subst.bind_row(b, &suffix_b);
        }
        (RowTail::Var(a, _), RowTail::Closed) => {
            if let Some(f) = only1.first() {
                return Err(UnifyError::MissingField {
                    field: f.name,
                    record: Ty::Record(Row {
                        fields: strip_fields(&r2.fields),
                        tail: RowTail::Closed,
                    }),
                });
            }
            let suffix = Row {
                fields: strip_fields(&only2),
                tail: RowTail::Closed,
            };
            check_lacks(a, &suffix.fields, lacks)?;
            check_row_binding(a, &suffix)?;
            subst.bind_row(a, &suffix);
        }
        (RowTail::Closed, RowTail::Var(b, _)) => {
            if let Some(f) = only2.first() {
                return Err(UnifyError::MissingField {
                    field: f.name,
                    record: Ty::Record(Row {
                        fields: strip_fields(&r1.fields),
                        tail: RowTail::Closed,
                    }),
                });
            }
            let suffix = Row {
                fields: strip_fields(&only1),
                tail: RowTail::Closed,
            };
            check_lacks(b, &suffix.fields, lacks)?;
            check_row_binding(b, &suffix)?;
            subst.bind_row(b, &suffix);
        }
        (RowTail::Closed, RowTail::Closed) => {
            if let Some(f) = only1.first() {
                return Err(UnifyError::MissingField {
                    field: f.name,
                    record: Ty::Record(Row {
                        fields: strip_fields(&r2.fields),
                        tail: RowTail::Closed,
                    }),
                });
            }
            if let Some(f) = only2.first() {
                return Err(UnifyError::MissingField {
                    field: f.name,
                    record: Ty::Record(Row {
                        fields: strip_fields(&r1.fields),
                        tail: RowTail::Closed,
                    }),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowpoly_lang::Symbol;

    fn field(name: &str, ty: Ty) -> FieldEntry {
        FieldEntry {
            name: Symbol::intern(name),
            flag: NO_FLAG,
            ty,
        }
    }

    /// `[…[Int]…]`, `depth` levels in all.
    fn nested_list(depth: usize) -> Ty {
        (1..depth).fold(Ty::Int, |t, _| Ty::list(t))
    }

    #[test]
    fn bindings_deeper_than_the_bound_fail() {
        let mut vars = VarAlloc::new();
        let a = Ty::svar(vars.fresh());
        let at_bound = nested_list(MAX_TYPE_DEPTH);
        assert!(unify(&a, &at_bound, &mut vars).is_ok());
        let past = nested_list(MAX_TYPE_DEPTH + 1);
        assert_eq!(unify(&a, &past, &mut vars), Err(UnifyError::TooDeep));
        // A row binding is measured by its field types.
        let (r, s) = (vars.fresh(), vars.fresh());
        let open = rec(vec![], RowTail::Var(r, NO_FLAG));
        let wide = |t: Ty| rec(vec![field("f", t)], RowTail::Var(s, NO_FLAG));
        assert!(unify(&open, &wide(at_bound), &mut vars).is_ok());
        assert_eq!(
            unify(&open, &wide(past), &mut vars),
            Err(UnifyError::TooDeep)
        );
    }

    fn rec(fields: Vec<FieldEntry>, tail: RowTail) -> Ty {
        Ty::record(fields, tail)
    }

    #[test]
    fn unifies_identical_base_types() {
        let mut vars = VarAlloc::new();
        assert!(unify(&Ty::Int, &Ty::Int, &mut vars).unwrap().is_empty());
        assert!(unify(&Ty::Int, &Ty::Str, &mut vars).is_err());
    }

    #[test]
    fn binds_variable_to_type() {
        let mut vars = VarAlloc::new();
        let a = vars.fresh();
        let s = unify(&Ty::svar(a), &Ty::fun(Ty::Int, Ty::Int), &mut vars).unwrap();
        assert_eq!(s.apply(&Ty::svar(a)), Ty::fun(Ty::Int, Ty::Int));
    }

    #[test]
    fn occurs_check_fires() {
        let mut vars = VarAlloc::new();
        let a = vars.fresh();
        let t = Ty::fun(Ty::svar(a), Ty::Int);
        assert!(matches!(
            unify(&Ty::svar(a), &t, &mut vars),
            Err(UnifyError::Occurs { .. })
        ));
    }

    #[test]
    fn function_arguments_unify_pointwise() {
        let mut vars = VarAlloc::new();
        let (a, b) = (vars.fresh(), vars.fresh());
        // a → Int  ~  Str → b
        let s = unify(
            &Ty::fun(Ty::svar(a), Ty::Int),
            &Ty::fun(Ty::Str, Ty::svar(b)),
            &mut vars,
        )
        .unwrap();
        assert_eq!(s.apply(&Ty::svar(a)), Ty::Str);
        assert_eq!(s.apply(&Ty::svar(b)), Ty::Int);
    }

    #[test]
    fn gci_example_from_paper_section_4_2() {
        // gci([a] → [Int], [Int] → a') = [Int] → [Int] (Example in §4.2).
        let mut vars = VarAlloc::new();
        let a = vars.fresh();
        let a2 = vars.fresh();
        let t1 = Ty::fun(Ty::list(Ty::svar(a)), Ty::list(Ty::Int));
        let t2 = Ty::fun(Ty::list(Ty::Int), Ty::svar(a2));
        let s = unify(&t1, &t2, &mut vars).unwrap();
        assert_eq!(s.apply(&t1), Ty::fun(Ty::list(Ty::Int), Ty::list(Ty::Int)));
        assert_eq!(s.apply(&t2), s.apply(&t1));
    }

    #[test]
    fn rows_with_disjoint_fields_extend_each_other() {
        let mut vars = VarAlloc::new();
        let (r1, r2) = (vars.fresh(), vars.fresh());
        // {x : Int, r1} ~ {y : Str, r2}
        let t1 = rec(vec![field("x", Ty::Int)], RowTail::Var(r1, NO_FLAG));
        let t2 = rec(vec![field("y", Ty::Str)], RowTail::Var(r2, NO_FLAG));
        let s = unify(&t1, &t2, &mut vars).unwrap();
        let u1 = s.apply(&t1);
        let u2 = s.apply(&t2);
        assert_eq!(u1, u2);
        match u1 {
            Ty::Record(row) => {
                let names: Vec<_> = row.fields.iter().map(|f| f.name.as_str()).collect();
                assert_eq!(names, vec!["x", "y"]);
                assert!(matches!(row.tail, RowTail::Var(..)));
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn common_fields_unify_their_types() {
        let mut vars = VarAlloc::new();
        let (r1, r2, a) = (vars.fresh(), vars.fresh(), vars.fresh());
        let t1 = rec(vec![field("x", Ty::svar(a))], RowTail::Var(r1, NO_FLAG));
        let t2 = rec(vec![field("x", Ty::Int)], RowTail::Var(r2, NO_FLAG));
        let s = unify(&t1, &t2, &mut vars).unwrap();
        assert_eq!(s.apply(&Ty::svar(a)), Ty::Int);
    }

    #[test]
    fn closed_row_rejects_missing_field() {
        let mut vars = VarAlloc::new();
        let r = vars.fresh();
        let open = rec(vec![field("x", Ty::Int)], RowTail::Var(r, NO_FLAG));
        let closed = rec(vec![], RowTail::Closed);
        assert!(matches!(
            unify(&open, &closed, &mut vars),
            Err(UnifyError::MissingField { .. })
        ));
    }

    #[test]
    fn closed_row_absorbs_into_open_tail() {
        let mut vars = VarAlloc::new();
        let r = vars.fresh();
        let open = rec(vec![field("x", Ty::Int)], RowTail::Var(r, NO_FLAG));
        let closed = rec(
            vec![field("x", Ty::Int), field("y", Ty::Str)],
            RowTail::Closed,
        );
        let s = unify(&open, &closed, &mut vars).unwrap();
        assert_eq!(s.apply(&open), s.apply(&closed));
        match s.apply(&open) {
            Ty::Record(row) => assert_eq!(row.tail, RowTail::Closed),
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn same_row_var_with_extra_fields_fails() {
        let mut vars = VarAlloc::new();
        let r = vars.fresh();
        let t1 = rec(vec![field("x", Ty::Int)], RowTail::Var(r, NO_FLAG));
        let t2 = rec(vec![], RowTail::Var(r, NO_FLAG));
        assert!(unify(&t1, &t2, &mut vars).is_err());
    }

    #[test]
    fn row_occurs_check_fires() {
        // The Section 6 anecdote: storing a monadic action typed over the
        // same row variable inside the record itself trips the occurs
        // check. {m : {r} → Int, r} ~ itself-shaped constraints.
        let mut vars = VarAlloc::new();
        let r = vars.fresh();
        let inner = rec(vec![], RowTail::Var(r, NO_FLAG));
        let t1 = rec(
            vec![field("m", Ty::fun(inner, Ty::Int))],
            RowTail::Var(r, NO_FLAG),
        );
        let t2 = rec(vec![], RowTail::Var(r, NO_FLAG));
        assert!(unify(&t1, &t2, &mut vars).is_err());
    }

    #[test]
    fn transitive_binding_through_shared_variable() {
        let mut vars = VarAlloc::new();
        let (a, b) = (vars.fresh(), vars.fresh());
        // Unify (a, a) with (Int, b): a ↦ Int, then b ↦ Int.
        let s = mgu(
            vec![(Ty::svar(a), Ty::Int), (Ty::svar(a), Ty::svar(b))],
            &mut vars,
        )
        .unwrap();
        assert_eq!(s.apply(&Ty::svar(b)), Ty::Int);
    }
}
