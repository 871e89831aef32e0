//! The Rémy-style baseline: record inference with `Pre`/`Abs` flags
//! unified as part of the type terms (the system sketched in the paper's
//! introduction).
//!
//! Flags here are not Boolean variables but unification atoms: a field's
//! flag is `Pre` (definitely present), `Abs` (definitely absent), or a
//! flag variable. Field selection demands `Pre`; the empty record has
//! `Abs` everywhere (including everything its row variable ever expands
//! to). Unification of the two branches of a conditional therefore
//! *equates* flags instead of relating them by implication, which is
//! exactly why the motivating example of the paper is rejected: the
//! selector inside the `then`-branch forces the field's flag to `Pre`,
//! the `else`-branch propagates that demand to the function's input, and
//! the call `f {}` clashes `Pre` with `Abs`.
//!
//! The flow inference of [`crate::FlowInfer`] accepts that program; this
//! module exists as the comparison baseline. Only the core calculus is
//! supported (no concatenation, removal, renaming, or `when`).

use std::collections::{BTreeSet, HashMap};

use rowpoly_lang::{Diag, Expr, ExprKind, FieldName, Span, Symbol};

use crate::error::{TypeError, TypeErrorKind};
use rowpoly_types::{UnifyError, MAX_TYPE_DEPTH};

/// The error for a binding deeper than [`MAX_TYPE_DEPTH`], as the flow
/// inference's unifier reports it.
fn too_deep(span: Span) -> TypeError {
    TypeError::new(TypeErrorKind::Unify(UnifyError::TooDeep), span)
}

/// A type variable of the baseline inference.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RVar(u32);

/// A flag variable of the baseline inference.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FVar(u32);

/// A field flag: present, absent, or not yet known.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RFlag {
    /// The field is definitely present.
    Pre,
    /// The field is definitely absent.
    Abs,
    /// Undetermined; unifies with anything.
    Var(FVar),
}

/// A type term of the baseline inference.
#[derive(Clone, PartialEq, Debug)]
pub enum RTy {
    /// Type variable.
    Var(RVar),
    /// Integers.
    Int,
    /// Strings.
    Str,
    /// Lists.
    List(Box<RTy>),
    /// Functions.
    Fun(Box<RTy>, Box<RTy>),
    /// Records: sorted fields plus a row tail.
    Record(RRow),
}

/// A record row.
#[derive(Clone, PartialEq, Debug)]
pub struct RRow {
    /// Fields sorted by name: `(name, flag, type)`.
    pub fields: Vec<(FieldName, RFlag, RTy)>,
    /// The row tail: `None` for a closed row, or a row variable with the
    /// flag that every field it expands to will carry.
    pub tail: Option<(RVar, RFlag)>,
}

impl RTy {
    fn fun(a: RTy, b: RTy) -> RTy {
        RTy::Fun(Box::new(a), Box::new(b))
    }

    fn record(mut fields: Vec<(FieldName, RFlag, RTy)>, tail: Option<(RVar, RFlag)>) -> RTy {
        fields.sort_by_key(|f| f.0);
        RTy::Record(RRow { fields, tail })
    }

    /// Nodes from root to leaf, counted as [`rowpoly_types::Ty`]'s
    /// unifier counts them.
    fn depth(&self) -> usize {
        1 + match self {
            RTy::Var(_) | RTy::Int | RTy::Str => 0,
            RTy::List(t) => t.depth(),
            RTy::Fun(a, b) => a.depth().max(b.depth()),
            RTy::Record(row) => row
                .fields
                .iter()
                .map(|(_, _, t)| t.depth())
                .max()
                .unwrap_or(0),
        }
    }

    fn vars(&self, out: &mut BTreeSet<RVar>) {
        match self {
            RTy::Var(v) => {
                out.insert(*v);
            }
            RTy::Int | RTy::Str => {}
            RTy::List(t) => t.vars(out),
            RTy::Fun(a, b) => {
                a.vars(out);
                b.vars(out);
            }
            RTy::Record(row) => {
                for (_, _, t) in &row.fields {
                    t.vars(out);
                }
                if let Some((v, _)) = row.tail {
                    out.insert(v);
                }
            }
        }
    }

    fn fvars(&self, out: &mut BTreeSet<FVar>) {
        match self {
            RTy::Var(_) | RTy::Int | RTy::Str => {}
            RTy::List(t) => t.fvars(out),
            RTy::Fun(a, b) => {
                a.fvars(out);
                b.fvars(out);
            }
            RTy::Record(row) => {
                for (_, f, t) in &row.fields {
                    if let RFlag::Var(fv) = f {
                        out.insert(*fv);
                    }
                    t.fvars(out);
                }
                if let Some((_, RFlag::Var(fv))) = row.tail {
                    out.insert(fv);
                }
            }
        }
    }
}

/// A scheme quantifying type and flag variables.
#[derive(Clone, Debug)]
pub struct RScheme {
    vars: Vec<RVar>,
    fvars: Vec<FVar>,
    ty: RTy,
}

#[derive(Clone, Debug)]
enum RBinding {
    Mono(RTy),
    Poly(RScheme),
}

/// The baseline inference engine.
#[derive(Default)]
pub struct RemyInfer {
    next_var: u32,
    next_fvar: u32,
    ty_bind: HashMap<RVar, RTy>,
    flag_bind: HashMap<FVar, RFlag>,
}

type REnv = HashMap<Symbol, RBinding>;

impl RemyInfer {
    /// Creates a fresh engine.
    pub fn new() -> RemyInfer {
        RemyInfer::default()
    }

    /// Infers the type of a closed expression (free variables are bound
    /// to fresh monomorphic types first).
    pub fn infer_expr(&mut self, e: &Expr) -> Result<RTy, TypeError> {
        let mut env = REnv::new();
        for x in e.free_vars() {
            let v = self.fresh();
            env.insert(x, RBinding::Mono(v));
        }
        let t = self.infer(&env, e)?;
        Ok(self.resolve(&t))
    }

    /// Parses and infers a whole program (sequence of `def`s), returning
    /// the resolved type of the last definition.
    pub fn infer_source(&mut self, source: &str) -> Result<RTy, SessionErrorR> {
        let program = rowpoly_lang::parse_program(source).map_err(SessionErrorR::Parse)?;
        let expr = program.to_expr();
        self.infer_expr(&expr).map_err(SessionErrorR::Type)
    }

    fn fresh(&mut self) -> RTy {
        self.next_var += 1;
        RTy::Var(RVar(self.next_var - 1))
    }

    fn fresh_rvar(&mut self) -> RVar {
        self.next_var += 1;
        RVar(self.next_var - 1)
    }

    fn fresh_flag(&mut self) -> RFlag {
        self.next_fvar += 1;
        RFlag::Var(FVar(self.next_fvar - 1))
    }

    // ----- unification ---------------------------------------------------

    fn resolve(&self, t: &RTy) -> RTy {
        match t {
            RTy::Var(v) => match self.ty_bind.get(v) {
                Some(b) => self.resolve(&b.clone()),
                None => t.clone(),
            },
            RTy::Int => RTy::Int,
            RTy::Str => RTy::Str,
            RTy::List(t) => RTy::List(Box::new(self.resolve(t))),
            RTy::Fun(a, b) => RTy::fun(self.resolve(a), self.resolve(b)),
            RTy::Record(row) => self.resolve_row(row),
        }
    }

    fn resolve_row(&self, row: &RRow) -> RTy {
        let mut fields: Vec<(FieldName, RFlag, RTy)> = row
            .fields
            .iter()
            .map(|(n, f, t)| (*n, self.resolve_flag(*f), self.resolve(t)))
            .collect();
        let mut tail = row.tail;
        // Chase row-variable bindings, splicing their fields.
        while let Some((v, tail_flag)) = tail {
            match self.ty_bind.get(&v) {
                Some(RTy::Record(inner)) => {
                    let inner = inner.clone();
                    for (n, _, t) in &inner.fields {
                        // Fields a row variable expands to inherit the
                        // tail's flag.
                        fields.push((*n, self.resolve_flag(tail_flag), self.resolve(t)));
                    }
                    tail = inner.tail.map(|(v2, _)| (v2, tail_flag));
                }
                Some(other) => panic!("row variable bound to non-record {other:?}"),
                None => break,
            }
        }
        let tail = tail.map(|(v, f)| (v, self.resolve_flag(f)));
        fields.sort_by_key(|f| f.0);
        fields.dedup_by(|a, b| a.0 == b.0);
        RTy::Record(RRow { fields, tail })
    }

    fn resolve_flag(&self, f: RFlag) -> RFlag {
        match f {
            RFlag::Var(v) => match self.flag_bind.get(&v) {
                Some(b) => self.resolve_flag(*b),
                None => f,
            },
            other => other,
        }
    }

    fn unify(&mut self, a: &RTy, b: &RTy, span: Span) -> Result<(), TypeError> {
        let a = self.resolve(a);
        let b = self.resolve(b);
        match (&a, &b) {
            (RTy::Var(x), RTy::Var(y)) if x == y => Ok(()),
            (RTy::Var(x), t) | (t, RTy::Var(x)) => {
                let mut vs = BTreeSet::new();
                t.vars(&mut vs);
                if vs.contains(x) {
                    return Err(self.occurs_error(span));
                }
                if t.depth() > MAX_TYPE_DEPTH {
                    return Err(too_deep(span));
                }
                self.ty_bind.insert(*x, t.clone());
                Ok(())
            }
            (RTy::Int, RTy::Int) | (RTy::Str, RTy::Str) => Ok(()),
            (RTy::List(x), RTy::List(y)) => self.unify(x, y, span),
            (RTy::Fun(a1, a2), RTy::Fun(b1, b2)) => {
                self.unify(a1, b1, span)?;
                self.unify(a2, b2, span)
            }
            (RTy::Record(r1), RTy::Record(r2)) => {
                let (r1, r2) = (r1.clone(), r2.clone());
                self.unify_rows(&r1, &r2, span)
            }
            _ => Err(self.mismatch_error(span)),
        }
    }

    fn unify_flags(&mut self, a: RFlag, b: RFlag, span: Span) -> Result<(), TypeError> {
        let a = self.resolve_flag(a);
        let b = self.resolve_flag(b);
        match (a, b) {
            (RFlag::Var(x), RFlag::Var(y)) if x == y => Ok(()),
            (RFlag::Var(x), f) | (f, RFlag::Var(x)) => {
                self.flag_bind.insert(x, f);
                Ok(())
            }
            (RFlag::Pre, RFlag::Pre) | (RFlag::Abs, RFlag::Abs) => Ok(()),
            (RFlag::Pre, RFlag::Abs) | (RFlag::Abs, RFlag::Pre) => Err(TypeError::new(
                TypeErrorKind::FieldMissing { field: None },
                span,
            )),
        }
    }

    fn unify_rows(&mut self, r1: &RRow, r2: &RRow, span: Span) -> Result<(), TypeError> {
        let (mut i, mut j) = (0, 0);
        let mut only1: Vec<(FieldName, RFlag, RTy)> = Vec::new();
        let mut only2: Vec<(FieldName, RFlag, RTy)> = Vec::new();
        while i < r1.fields.len() || j < r2.fields.len() {
            match (r1.fields.get(i).cloned(), r2.fields.get(j).cloned()) {
                (Some(f1), Some(f2)) => match f1.0.cmp(&f2.0) {
                    std::cmp::Ordering::Equal => {
                        self.unify_flags(f1.1, f2.1, span)?;
                        self.unify(&f1.2, &f2.2, span)?;
                        i += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Less => {
                        only1.push(f1);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        only2.push(f2);
                        j += 1;
                    }
                },
                (Some(f1), None) => {
                    only1.push(f1);
                    i += 1;
                }
                (None, Some(f2)) => {
                    only2.push(f2);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        match (r1.tail, r2.tail) {
            (Some((a, fa)), Some((b, fb))) if a == b => {
                if only1.is_empty() && only2.is_empty() {
                    self.unify_flags(fa, fb, span)
                } else {
                    Err(self.mismatch_error(span))
                }
            }
            (Some((a, fa)), Some((b, fb))) => {
                let c = self.fresh_rvar();
                // Fields a row variable expands to carry the tail's flag;
                // the missing fields come from the *other* side, so their
                // flags must unify with this side's tail flag.
                for (_, f, _) in &only2 {
                    self.unify_flags(*f, fa, span)?;
                }
                for (_, f, _) in &only1 {
                    self.unify_flags(*f, fb, span)?;
                }
                let suffix_a = RTy::record(only2.clone(), Some((c, fa)));
                let suffix_b = RTy::record(only1.clone(), Some((c, fb)));
                self.bind_row(a, suffix_a, span)?;
                self.bind_row(b, suffix_b, span)?;
                self.unify_flags(fa, fb, span)
            }
            (Some((a, fa)), None) => {
                if let Some((n, _, _)) = only1.first() {
                    return Err(TypeError::new(
                        TypeErrorKind::FieldMissing { field: Some(*n) },
                        span,
                    ));
                }
                for (_, f, _) in &only2 {
                    self.unify_flags(*f, fa, span)?;
                }
                self.bind_row(a, RTy::record(only2, None), span)
            }
            (None, Some((b, fb))) => {
                if let Some((n, _, _)) = only2.first() {
                    return Err(TypeError::new(
                        TypeErrorKind::FieldMissing { field: Some(*n) },
                        span,
                    ));
                }
                for (_, f, _) in &only1 {
                    self.unify_flags(*f, fb, span)?;
                }
                self.bind_row(b, RTy::record(only1, None), span)
            }
            (None, None) => {
                if let Some((n, _, _)) = only1.first().or(only2.first()) {
                    return Err(TypeError::new(
                        TypeErrorKind::FieldMissing { field: Some(*n) },
                        span,
                    ));
                }
                Ok(())
            }
        }
    }

    fn bind_row(&mut self, v: RVar, suffix: RTy, span: Span) -> Result<(), TypeError> {
        let mut vs = BTreeSet::new();
        suffix.vars(&mut vs);
        if vs.contains(&v) {
            return Err(self.occurs_error(span));
        }
        if suffix.depth() > MAX_TYPE_DEPTH {
            return Err(too_deep(span));
        }
        self.ty_bind.insert(v, suffix);
        Ok(())
    }

    fn mismatch_error(&self, span: Span) -> TypeError {
        TypeError::new(
            TypeErrorKind::Unify(UnifyError::Mismatch {
                left: rowpoly_types::Ty::Int,
                right: rowpoly_types::Ty::Str,
            }),
            span,
        )
    }

    fn occurs_error(&self, span: Span) -> TypeError {
        TypeError::new(
            TypeErrorKind::Unify(UnifyError::Occurs {
                var: rowpoly_types::Var(0),
                ty: rowpoly_types::Ty::Int,
            }),
            span,
        )
    }

    // ----- inference ------------------------------------------------------

    fn infer(&mut self, env: &REnv, e: &Expr) -> Result<RTy, TypeError> {
        match &e.kind {
            ExprKind::Var(x) => match env.get(x) {
                None => Err(TypeError::new(TypeErrorKind::Unbound(*x), e.span)),
                Some(RBinding::Mono(t)) => Ok(t.clone()),
                Some(RBinding::Poly(s)) => {
                    let s = s.clone();
                    Ok(self.instantiate(&s))
                }
            },
            ExprKind::Int(_) => Ok(RTy::Int),
            ExprKind::Str(_) => Ok(RTy::Str),
            ExprKind::List(items) => {
                let elem = self.fresh();
                for item in items {
                    let t = self.infer(env, item)?;
                    self.unify(&elem, &t, item.span)?;
                }
                Ok(RTy::List(Box::new(elem)))
            }
            ExprKind::Lam(x, body) => {
                let a = self.fresh();
                let mut inner = env.clone();
                inner.insert(*x, RBinding::Mono(a.clone()));
                let t2 = self.infer(&inner, body)?;
                Ok(RTy::fun(a, t2))
            }
            ExprKind::App(f, arg) => {
                let tf = self.infer(env, f)?;
                let ta = self.infer(env, arg)?;
                let r = self.fresh();
                self.unify(&tf, &RTy::fun(ta, r.clone()), e.span)?;
                Ok(r)
            }
            ExprKind::Let { name, bound, body } => {
                // Damas–Milner: monomorphic recursion, generalize after —
                // but only for syntactic values (ML's value restriction).
                // Generalizing the type of an application like
                // `@{foo = 42} s` would give every use a fresh flag copy
                // and dissolve the `Pre` demand that makes the paper's
                // introduction example a type error in Rémy's system.
                let a = self.fresh();
                let mut inner = env.clone();
                inner.insert(*name, RBinding::Mono(a.clone()));
                let tb = self.infer(&inner, bound)?;
                self.unify(&a, &tb, bound.span)?;
                let binding = if is_syntactic_value(bound) {
                    RBinding::Poly(self.generalize(env, &tb))
                } else {
                    RBinding::Mono(tb)
                };
                let mut inner = env.clone();
                inner.insert(*name, binding);
                self.infer(&inner, body)
            }
            ExprKind::If(c, t, f) => {
                let tc = self.infer(env, c)?;
                self.unify(&tc, &RTy::Int, c.span)?;
                let tt = self.infer(env, t)?;
                let te = self.infer(env, f)?;
                self.unify(&tt, &te, e.span)?;
                Ok(tt)
            }
            ExprKind::Empty => {
                // {} : {a.Abs} — everything the row expands to is absent.
                let a = self.fresh_rvar();
                Ok(RTy::record(vec![], Some((a, RFlag::Abs))))
            }
            ExprKind::Select(n) => {
                // #N : {N.Pre : a, b.fb} → a.
                let a = self.fresh();
                let b = self.fresh_rvar();
                let fb = self.fresh_flag();
                let rec = RTy::record(vec![(*n, RFlag::Pre, a.clone())], Some((b, fb)));
                Ok(RTy::fun(rec, a))
            }
            ExprKind::Update(n, value) => {
                // @{N = e} : {N.fN : a, b.fb} → {N.f'N : t, b.fb}.
                let tv = self.infer(env, value)?;
                let a = self.fresh();
                let b = self.fresh_rvar();
                let fb = self.fresh_flag();
                let f_in = self.fresh_flag();
                let f_out = self.fresh_flag();
                let input = RTy::record(vec![(*n, f_in, a)], Some((b, fb)));
                let output = RTy::record(vec![(*n, f_out, tv)], Some((b, fb)));
                Ok(RTy::fun(input, output))
            }
            ExprKind::BinOp(_, a, b) => {
                let ta = self.infer(env, a)?;
                self.unify(&ta, &RTy::Int, a.span)?;
                let tb = self.infer(env, b)?;
                self.unify(&tb, &RTy::Int, b.span)?;
                Ok(RTy::Int)
            }
            ExprKind::Remove(_)
            | ExprKind::Rename(_, _)
            | ExprKind::Concat(_, _)
            | ExprKind::SymConcat(_, _)
            | ExprKind::When { .. } => Err(TypeError::new(
                TypeErrorKind::Unify(UnifyError::Mismatch {
                    left: rowpoly_types::Ty::Int,
                    right: rowpoly_types::Ty::Str,
                }),
                e.span,
            )),
        }
    }

    fn generalize(&mut self, env: &REnv, t: &RTy) -> RScheme {
        let t = self.resolve(t);
        let mut env_vars = BTreeSet::new();
        let mut env_fvars = BTreeSet::new();
        for b in env.values() {
            let ty = match b {
                RBinding::Mono(t) => self.resolve(t),
                RBinding::Poly(s) => self.resolve(&s.ty),
            };
            ty.vars(&mut env_vars);
            ty.fvars(&mut env_fvars);
        }
        let mut vars = BTreeSet::new();
        let mut fvars = BTreeSet::new();
        t.vars(&mut vars);
        t.fvars(&mut fvars);
        RScheme {
            vars: vars.difference(&env_vars).copied().collect(),
            fvars: fvars.difference(&env_fvars).copied().collect(),
            ty: t,
        }
    }

    fn instantiate(&mut self, s: &RScheme) -> RTy {
        let var_map: HashMap<RVar, RVar> = s.vars.iter().map(|&v| (v, self.fresh_rvar())).collect();
        let flag_map: HashMap<FVar, RFlag> =
            s.fvars.iter().map(|&v| (v, self.fresh_flag())).collect();
        let resolved = self.resolve(&s.ty);
        rename(&resolved, &var_map, &flag_map)
    }
}

/// ML's notion of a non-expansive expression, for the value restriction.
fn is_syntactic_value(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Var(_)
        | ExprKind::Int(_)
        | ExprKind::Str(_)
        | ExprKind::Lam(_, _)
        | ExprKind::Empty
        | ExprKind::Select(_)
        | ExprKind::Remove(_)
        | ExprKind::Rename(_, _) => true,
        ExprKind::List(items) => items.iter().all(is_syntactic_value),
        ExprKind::Update(_, v) => is_syntactic_value(v),
        _ => false,
    }
}

fn rename(t: &RTy, vars: &HashMap<RVar, RVar>, flags: &HashMap<FVar, RFlag>) -> RTy {
    let rn_flag = |f: RFlag| match f {
        RFlag::Var(v) => flags.get(&v).copied().unwrap_or(f),
        other => other,
    };
    match t {
        RTy::Var(v) => RTy::Var(vars.get(v).copied().unwrap_or(*v)),
        RTy::Int => RTy::Int,
        RTy::Str => RTy::Str,
        RTy::List(t) => RTy::List(Box::new(rename(t, vars, flags))),
        RTy::Fun(a, b) => RTy::fun(rename(a, vars, flags), rename(b, vars, flags)),
        RTy::Record(row) => RTy::Record(RRow {
            fields: row
                .fields
                .iter()
                .map(|(n, f, t)| (*n, rn_flag(*f), rename(t, vars, flags)))
                .collect(),
            tail: row
                .tail
                .map(|(v, f)| (vars.get(&v).copied().unwrap_or(v), rn_flag(f))),
        }),
    }
}

/// Parse-or-type error from [`RemyInfer::infer_source`].
#[derive(Clone, Debug)]
pub enum SessionErrorR {
    /// Parsing failed.
    Parse(Diag),
    /// The baseline inference rejected the program.
    Type(TypeError),
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowpoly_lang::parse_expr;

    fn infer(src: &str) -> Result<RTy, TypeError> {
        let e = parse_expr(src).expect("parses");
        RemyInfer::new().infer_expr(&e)
    }

    #[test]
    fn simple_programs_check() {
        assert!(infer("1 + 2").is_ok());
        assert!(infer(r"(\x . x) 1").is_ok());
        assert!(infer("#foo (@{foo = 1} {})").is_ok());
        assert!(infer("let id x = x in id (id 1)").is_ok());
    }

    #[test]
    fn select_on_empty_record_is_rejected() {
        assert!(infer("#foo {}").is_err());
    }

    /// The paper's introduction: Rémy's inference rejects `f {}` because
    /// unification propagates the `Pre` demand of the selector inside the
    /// conditional to the function's input.
    #[test]
    fn motivating_example_rejected_by_remy() {
        let src = r"
let f = \s . if c then (let s2 = @{foo = 42} s in
                        let v = #foo s2 in s2)
             else s
in f {}";
        assert!(infer(src).is_err(), "Rémy baseline must reject `f {{}}`");
    }

    #[test]
    fn motivating_example_without_call_checks() {
        let src = r"
let f = \s . if c then (let s2 = @{foo = 42} s in
                        let v = #foo s2 in s2)
             else s
in f";
        assert!(infer(src).is_ok());
    }

    #[test]
    fn update_then_select_across_let() {
        assert!(infer("let r = @{a = 1} {} in #a r").is_ok());
        assert!(infer("let r = @{a = 1} {} in #b r").is_err());
    }

    #[test]
    fn type_clash_on_field_contents() {
        assert!(infer("#foo (@{foo = 1} {}) + 1").is_ok());
        assert!(infer(r#"#foo (@{foo = "s"} {}) + 1"#).is_err());
    }

    #[test]
    fn extensions_are_unsupported() {
        assert!(infer("{} @ {}").is_err());
        assert!(infer("%foo {}").is_err());
    }
}
