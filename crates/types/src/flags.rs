//! The flag-sequence extraction `*t+` (Definition 1 of the paper).

use rowpoly_boolfun::Lit;

use crate::ty::{Row, RowTail, Ty, NO_FLAG};

/// Extracts the sequence of flag atoms of a type, with contra-variant
/// polarity (Definition 1):
///
/// ```text
/// *a.fa+                        = ⟨fa⟩
/// *t1 → t2+                     = ¬*t1+ · *t2+
/// *Int+                         = ⟨⟩
/// *[t]+                         = *t+
/// *{N1.f1 : t1, …, a.fa}+       = ⟨f1, …, fn, fa⟩ · *t1+ ··· *tn+
/// ```
///
/// where `¬⟨l1,…,ln⟩` negates every atom. Sequence (bi-)implications
/// between two types with equal `⇓RP`-skeletons relate these sequences
/// position-wise; the polarity encodes the contra-variance of function
/// arguments (see Example 2 of the paper).
///
/// # Panics
///
/// Panics in debug builds if the term contains a `NO_FLAG` sentinel —
/// `*t+` is only meaningful on fully decorated `PR` terms.
pub fn flag_lits(t: &Ty) -> Vec<Lit> {
    let mut out = Vec::new();
    collect(t, false, &mut out);
    out
}

/// Appends `*t+` to `out` (see [`flag_lits`]).
pub(crate) fn push_flag_lits(t: &Ty, out: &mut Vec<Lit>) {
    collect(t, false, out);
}

/// Appends `*·+` of a row *suffix* to `out`: the sequence a row
/// variable's flags expand to when the variable is substituted by `row`
/// (fields + tail first, then the field types). Used by `applyS` for
/// row substitutions.
pub(crate) fn push_row_suffix_lits(row: &Row, out: &mut Vec<Lit>) {
    collect_row(row, false, out);
}

fn collect(t: &Ty, neg: bool, out: &mut Vec<Lit>) {
    match t {
        Ty::Var(_, f) => {
            debug_assert_ne!(*f, NO_FLAG, "flag extraction on a skeleton");
            out.push(Lit::new(*f, neg));
        }
        Ty::Int | Ty::Str => {}
        Ty::List(t) => collect(t, neg, out),
        Ty::Fun(a, b) => {
            // Arguments are contra-variant: all their atoms are negated on
            // top of the current polarity.
            collect(a, !neg, out);
            collect(b, neg, out);
        }
        Ty::Record(row) => collect_row(row, neg, out),
    }
}

fn collect_row(row: &Row, neg: bool, out: &mut Vec<Lit>) {
    for f in &row.fields {
        debug_assert_ne!(f.flag, NO_FLAG, "flag extraction on a skeleton");
        out.push(Lit::new(f.flag, neg));
    }
    if let RowTail::Var(_, f) = row.tail {
        debug_assert_ne!(f, NO_FLAG, "flag extraction on a skeleton");
        out.push(Lit::new(f, neg));
    }
    for f in &row.fields {
        collect(&f.ty, neg, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::{FieldEntry, Var};
    use rowpoly_boolfun::Flag;
    use rowpoly_lang::Symbol;

    #[test]
    fn variable_is_single_positive_atom() {
        let t = Ty::var(Var(0), Flag(7));
        assert_eq!(flag_lits(&t), vec![Lit::pos(Flag(7))]);
    }

    #[test]
    fn function_negates_argument() {
        // *a.f1 → a.f2+ = ⟨¬f1, f2⟩ (Example 3's *ti+).
        let t = Ty::fun(Ty::var(Var(0), Flag(1)), Ty::var(Var(0), Flag(2)));
        assert_eq!(flag_lits(&t), vec![Lit::neg(Flag(1)), Lit::pos(Flag(2))]);
    }

    #[test]
    fn double_negation_in_nested_arguments() {
        // *(a.f1 → a.f2) → a.f3+ = ⟨¬¬f1, ¬f2, f3⟩ = ⟨f1, ¬f2, f3⟩.
        let inner = Ty::fun(Ty::var(Var(0), Flag(1)), Ty::var(Var(0), Flag(2)));
        let t = Ty::fun(inner, Ty::var(Var(0), Flag(3)));
        assert_eq!(
            flag_lits(&t),
            vec![Lit::pos(Flag(1)), Lit::neg(Flag(2)), Lit::pos(Flag(3))]
        );
    }

    #[test]
    fn record_order_is_flags_then_field_types() {
        // *{N.f1 : a.f3, b.f2}+ = ⟨f1, f2, f3⟩.
        let t = Ty::record(
            vec![FieldEntry {
                name: Symbol::intern("n"),
                flag: Flag(1),
                ty: Ty::var(Var(0), Flag(3)),
            }],
            crate::ty::RowTail::Var(Var(1), Flag(2)),
        );
        assert_eq!(
            flag_lits(&t),
            vec![Lit::pos(Flag(1)), Lit::pos(Flag(2)), Lit::pos(Flag(3))]
        );
    }

    #[test]
    fn example_2_alignment() {
        // to = (a.f1 → a.f2) → (a.f3 → a.f4):
        // *to+ = ⟨f1, ¬f2, ¬f3, f4⟩ (note ¬¬f1 = f1).
        let to = Ty::fun(
            Ty::fun(Ty::var(Var(0), Flag(1)), Ty::var(Var(0), Flag(2))),
            Ty::fun(Ty::var(Var(0), Flag(3)), Ty::var(Var(0), Flag(4))),
        );
        assert_eq!(
            flag_lits(&to),
            vec![
                Lit::pos(Flag(1)),
                Lit::neg(Flag(2)),
                Lit::neg(Flag(3)),
                Lit::pos(Flag(4))
            ]
        );
    }

    #[test]
    fn lists_are_transparent() {
        let t = Ty::list(Ty::var(Var(0), Flag(5)));
        assert_eq!(flag_lits(&t), vec![Lit::pos(Flag(5))]);
    }

    #[test]
    fn base_types_contribute_nothing() {
        assert!(flag_lits(&Ty::Int).is_empty());
        assert!(flag_lits(&Ty::fun(Ty::Int, Ty::Str)).is_empty());
    }
}
