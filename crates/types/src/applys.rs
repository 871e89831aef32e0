//! `applyS` — applying a skeleton substitution to flow-decorated types
//! (Fig. 4 of the paper), and scheme instantiation.
//!
//! A substitution `σ ∈ V → P` produced by unification maps type variables
//! to terms *without* flow information. Applying it to a judgement
//! `t; ρR | β` therefore has to:
//!
//! 1. find the `n` occurrences `a.f1, …, a.fn` of each substituted
//!    variable `a` and their flags `⟨f1, …, fn⟩`;
//! 2. replace occurrence `i` by a freshly decorated copy
//!    `τi = ⇑RP(⇓RP(σ(a)))`;
//! 3. replicate the flow between `f1, …, fn` once per flag *column* of the
//!    copies — `expand_{f1…fn, τ1+[j]…τn+[j]}(β)` for each position `j`,
//!    where the targets carry the contra-variant polarity of their
//!    position inside `τ` (Example 3);
//! 4. existentially project the now-dead original flags out of β.

use std::cell::Cell;

use rowpoly_boolfun::{Cnf, Flag, FlagAlloc, Lit, ProjectStats};

use crate::env::{Scheme, TyEnv};
use crate::flags::{push_flag_lits, push_row_suffix_lits};
use crate::subst::Subst;
use crate::ty::{Row, RowTail, Ty, Var, VarAlloc, NO_FLAG};

/// Replaced occurrence flags, partitioned by where the occurrence lived.
///
/// Flags replaced in the judgement's own result type are exclusive to the
/// judgement and may be projected out of β immediately; flags replaced in
/// environment bindings may still occur in *clones* of the environment
/// held by sibling judgements, so their projection must be deferred until
/// the enclosing rule knows they are globally dead.
///
/// [`apply_subst_flow`] clears and refills a caller-owned value, so an
/// engine that keeps one allocates nothing here once it has warmed up.
#[derive(Debug, Default)]
pub struct ReplacedFlags {
    /// Occurrence flags replaced in the κ type (safe to project now).
    pub kappa: Vec<Flag>,
    /// Occurrence flags replaced in environment bindings (defer).
    pub env: Vec<Flag>,
    /// Per occurrence: the replaced flag and the end of its copy's
    /// flags in `copy_flags`.
    copies: Vec<(Flag, usize)>,
    copy_flags: Vec<Flag>,
}

impl ReplacedFlags {
    /// Per occurrence: the replaced flag and the flags of its decorated
    /// copy. The expansion transports the occurrence flag's flow onto
    /// every copy flag, so diagnostic provenance recorded against the
    /// original carries over to each copy (the original is about to be
    /// projected out of β and would otherwise take its story with it).
    pub fn copies(&self) -> impl Iterator<Item = (Flag, &[Flag])> {
        let mut start = 0;
        self.copies.iter().map(move |&(f, end)| {
            let copy = &self.copy_flags[start..end];
            start = end;
            (f, copy)
        })
    }

    fn clear(&mut self) {
        self.kappa.clear();
        self.env.clear();
        self.copies.clear();
        self.copy_flags.clear();
    }
}

/// Working storage of [`apply_subst_flow`], flat and recycled per thread.
#[derive(Default)]
struct Scratch {
    /// Per occurrence, in traversal order: the substituted variable, the
    /// replaced flag and the end of its copy's `*τ+` in `lits`.
    occ: Vec<(Var, Flag, usize)>,
    lits: Vec<Lit>,
    /// The substituted variables, in first-encounter order.
    vars: Vec<Var>,
    /// One group's occurrence indices, source flags and current column.
    members: Vec<usize>,
    sources: Vec<Flag>,
    column: Vec<Lit>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// Applies `subst` to the judgement `kappa; env | beta`, transporting flow
/// information per Fig. 4, and leaves the replaced occurrence flags in
/// `replaced`. See the module documentation.
///
/// Only environment bindings that mention the substitution's domain are
/// rewritten (global-layer bindings are promoted into the local layer
/// first); if no binding is touched, the environment — including its
/// version tag — is left alone, enabling the Section 6 meet shortcut.
///
/// Unlike the paper's monolithic `applyS`, the final `∃`-projection of the
/// replaced occurrence flags is *returned* to the caller (see
/// [`ReplacedFlags`]): the engine shares β across sibling judgements, so
/// only it can decide when an environment flag is dead everywhere.
///
/// The traversal order (result type first, then environment bindings in
/// symbol order) fixes the occurrence order; any fixed order yields
/// logically equivalent flows.
pub fn apply_subst_flow(
    subst: &Subst,
    kappa: &mut Ty,
    env: &mut TyEnv,
    beta: &mut Cnf,
    flags: &mut FlagAlloc,
    replaced: &mut ReplacedFlags,
) {
    replaced.clear();
    if subst.is_empty() {
        return;
    }
    let mut scratch = SCRATCH.take();
    transport(subst, kappa, env, beta, flags, replaced, &mut scratch);
    SCRATCH.set(scratch);
}

fn transport(
    subst: &Subst,
    kappa: &mut Ty,
    env: &mut TyEnv,
    beta: &mut Cnf,
    flags: &mut FlagAlloc,
    replaced: &mut ReplacedFlags,
    scratch: &mut Scratch,
) {
    let Scratch {
        occ,
        lits,
        vars,
        members,
        sources,
        column,
    } = scratch;
    occ.clear();
    lits.clear();
    walk(kappa, subst, flags, occ, lits);
    let kappa_count = occ.len();

    // Promote global bindings the substitution touches, then rewrite only
    // the touched local bindings.
    for name in env.globals_touched_by(subst) {
        env.promote(name);
    }
    env.rewrite_local(
        |e| e.touched_by(subst),
        |b| walk(b.ty_mut(), subst, flags, occ, lits),
    );
    if occ.is_empty() {
        return;
    }
    let mut start = 0;
    for (i, &(_, f, end)) in occ.iter().enumerate() {
        if i < kappa_count {
            replaced.kappa.push(f);
        } else {
            replaced.env.push(f);
        }
        replaced
            .copy_flags
            .extend(lits[start..end].iter().map(|l| l.flag()));
        replaced.copies.push((f, replaced.copy_flags.len()));
        start = end;
    }
    // Group occurrences by variable, preserving encounter order, and
    // replicate each group's flow once per flag column of its copies.
    vars.clear();
    for &(v, _, _) in occ.iter() {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    for &v in vars.iter() {
        members.clear();
        sources.clear();
        for (i, &(w, f, _)) in occ.iter().enumerate() {
            if w == v {
                members.push(i);
                sources.push(f);
            }
        }
        debug_assert!(
            sources.iter().all(|&f| f != NO_FLAG),
            "applyS on a skeleton judgement"
        );
        let span = |i: usize| (if i == 0 { 0 } else { occ[i - 1].2 })..occ[i].2;
        let width = span(members[0]).len();
        debug_assert!(
            members.iter().all(|&i| span(i).len() == width),
            "copies share a shape"
        );
        for j in 0..width {
            column.clear();
            column.extend(members.iter().map(|&i| lits[span(i).start + j]));
            beta.expand(sources, column);
        }
    }
}

fn walk(
    t: &mut Ty,
    subst: &Subst,
    flags: &mut FlagAlloc,
    occ: &mut Vec<(Var, Flag, usize)>,
    lits: &mut Vec<Lit>,
) {
    match t {
        Ty::Var(v, f) => {
            if let Some(binding) = subst.ty_binding(*v) {
                let copy = binding.decorate(flags);
                push_flag_lits(&copy, lits);
                occ.push((*v, *f, lits.len()));
                *t = copy;
            }
        }
        Ty::Int | Ty::Str => {}
        Ty::List(inner) => walk(inner, subst, flags, occ, lits),
        Ty::Fun(a, b) => {
            walk(a, subst, flags, occ, lits);
            walk(b, subst, flags, occ, lits);
        }
        Ty::Record(row) => {
            for fe in &mut row.fields {
                walk(&mut fe.ty, subst, flags, occ, lits);
            }
            if let RowTail::Var(v, f) = row.tail {
                if let Some(suffix) = subst.row_binding(v) {
                    let copy = decorate_row(suffix, flags);
                    push_row_suffix_lits(&copy, lits);
                    occ.push((v, f, lits.len()));
                    row.fields.extend(copy.fields);
                    row.fields.sort_by_key(|f| f.name);
                    debug_assert!(
                        row.fields.windows(2).all(|w| w[0].name != w[1].name),
                        "row splice produced duplicate fields"
                    );
                    row.tail = copy.tail;
                }
            }
        }
    }
}

fn decorate_row(row: &Row, flags: &mut FlagAlloc) -> Row {
    match Ty::Record(row.clone()).decorate(flags) {
        Ty::Record(r) => r,
        _ => unreachable!("decorate preserves constructors"),
    }
}

/// Instantiates a scheme (rule (VAR-LET)): quantified variables are
/// renamed to fresh ones and *every* flag of the body is refreshed; the
/// flow of the body's flags is duplicated onto the fresh copies by a
/// single (positive) expansion. The scheme itself — and its share of β —
/// is left untouched, so later instantiations are independent.
pub fn instantiate(
    scheme: &Scheme,
    vars: &mut VarAlloc,
    flags: &mut FlagAlloc,
    beta: &mut Cnf,
) -> Ty {
    let renaming: Vec<(Var, Var)> = scheme.vars.iter().map(|&v| (v, vars.fresh())).collect();
    let subst = Subst::renaming(renaming);
    // Rename quantified variables on the skeleton (flags preserved
    // positionally by re-decorating below).
    let renamed = apply_renaming(&scheme.ty, &subst);
    // Refresh all flags. The old→new correspondence must be read off in
    // the *same* traversal order on both sides: `map_flags` rebuilds the
    // term structurally, so the fresh flags are re-collected with
    // `Ty::flags` (Definition 1 order), exactly like the old ones.
    let old: Vec<Flag> = scheme.ty.flags();
    let instance = renamed.map_flags(&mut |_| flags.fresh());
    let fresh_flags: Vec<Lit> = instance.flags().into_iter().map(Lit::pos).collect();
    debug_assert_eq!(
        old.len(),
        fresh_flags.len(),
        "renaming preserves flag count"
    );
    if !old.is_empty() {
        beta.expand(&old, &fresh_flags);
    }
    // Copy the scheme's stored flow (top-level definitions keep their
    // projected flow with the scheme rather than in the working β).
    if !scheme.flow.is_empty() {
        let map: std::collections::HashMap<Flag, Flag> = old
            .iter()
            .copied()
            .zip(fresh_flags.iter().map(|l| l.flag()))
            .collect();
        for c in scheme.flow.clauses() {
            if let Some(copy) = c.rename(|l| match map.get(&l.flag()) {
                Some(&nf) => l.with_flag(nf),
                None => l,
            }) {
                beta.add_clause(copy);
            }
        }
        beta.normalize();
    }
    instance
}

/// Renames a scheme produced by one engine into another engine's
/// namespaces: every type variable (quantified or free) and every flag
/// gets a fresh identity from the consuming allocators, with the stored
/// flow renamed alongside. Without this, a foreign scheme's numbering
/// collides with the consumer's — [`instantiate`] expands the working β
/// over the scheme's ty flags, and a colliding flag would capture
/// unrelated local constraints. Intended for *closed* schemes (flow over
/// the ty's own flags); flow literals outside the ty are kept verbatim.
pub fn import_scheme(scheme: &Scheme, vars: &mut VarAlloc, flags: &mut FlagAlloc) -> Scheme {
    let mut var_map: Vec<(Var, Var)> = Vec::new();
    for v in scheme
        .ty
        .vars()
        .into_iter()
        .chain(scheme.vars.iter().copied())
    {
        if !var_map.iter().any(|&(old, _)| old == v) {
            var_map.push((v, vars.fresh()));
        }
    }
    let subst = Subst::renaming(var_map.iter().copied());
    let renamed = apply_renaming(&scheme.ty, &subst);

    // Shared flags must stay shared: rename by identity, not position.
    let mut flag_map: std::collections::HashMap<Flag, Flag> = std::collections::HashMap::new();
    for f in scheme.ty.flags() {
        flag_map.entry(f).or_insert_with(|| flags.fresh());
    }
    let ty = renamed.map_flags(&mut |f| if f == NO_FLAG { NO_FLAG } else { flag_map[&f] });

    let mut flow = Cnf::top();
    for c in scheme.flow.clauses() {
        if let Some(copy) = c.rename(|l| match flag_map.get(&l.flag()) {
            Some(&nf) => l.with_flag(nf),
            None => l,
        }) {
            flow.add_clause(copy);
        }
    }
    flow.normalize();

    let quantified = scheme
        .vars
        .iter()
        .map(|&v| {
            var_map
                .iter()
                .find(|&&(old, _)| old == v)
                .map(|&(_, new)| new)
                .expect("every quantified variable was renamed")
        })
        .collect();
    let mut out = Scheme::new(quantified, ty);
    out.flow = flow;
    out
}

/// Applies a pure-renaming substitution structurally (flags preserved;
/// only variable names change). Unlike [`Subst::apply`] this keeps the
/// flags of renamed occurrences, because instantiation refreshes them in a
/// controlled second pass.
fn apply_renaming(t: &Ty, subst: &Subst) -> Ty {
    match t {
        Ty::Var(v, f) => match subst.ty_binding(*v) {
            Some(Ty::Var(w, _)) => Ty::Var(*w, *f),
            Some(other) => unreachable!("renaming bound to non-variable {other:?}"),
            None => Ty::Var(*v, *f),
        },
        Ty::Int => Ty::Int,
        Ty::Str => Ty::Str,
        Ty::List(inner) => Ty::List(Box::new(apply_renaming(inner, subst))),
        Ty::Fun(a, b) => Ty::Fun(
            Box::new(apply_renaming(a, subst)),
            Box::new(apply_renaming(b, subst)),
        ),
        Ty::Record(row) => {
            let fields = row
                .fields
                .iter()
                .map(|fe| crate::ty::FieldEntry {
                    name: fe.name,
                    flag: fe.flag,
                    ty: apply_renaming(&fe.ty, subst),
                })
                .collect();
            let tail = match row.tail {
                RowTail::Closed => RowTail::Closed,
                RowTail::Var(v, f) => match subst.row_binding(v) {
                    Some(Row {
                        fields,
                        tail: RowTail::Var(w, _),
                    }) if fields.is_empty() => RowTail::Var(*w, f),
                    Some(other) => unreachable!("renaming bound row to {other:?}"),
                    None => RowTail::Var(v, f),
                },
            };
            Ty::Record(Row { fields, tail })
        }
    }
}

/// Projects β onto the flags that are still alive in the judgement
/// (`env` plus `kappa`), removing stale flags. The paper's Section 6
/// stresses that this must happen before expansions, or copies alias their
/// originals through stale equivalences. Returns the elimination
/// engine's work counters so callers can fold them into phase stats.
pub fn compact_flow(beta: &mut Cnf, env: &TyEnv, kappa: &Ty) -> ProjectStats {
    let mut live = env.flags();
    live.extend(kappa.flags());
    beta.project_onto(&live)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowpoly_lang::Symbol;

    /// Example 3 of the paper: applying `[a / b→b]` to the identity's type
    /// `a.fi → a.fo` with flow `fo → fi` yields
    /// `(b.f1→b.f2) → (b.f3→b.f4)` with flow `fo→fi ∧ f4→f2 ∧ f1→f3`
    /// projected onto the new flags: `f4→f2 ∧ f1→f3`.
    #[test]
    fn example_3_identity_self_substitution() {
        let mut vars = VarAlloc::new();
        let mut flags = FlagAlloc::new();
        let a = vars.fresh();
        let b = vars.fresh();
        let fi = flags.fresh();
        let fo = flags.fresh();
        let mut kappa = Ty::fun(Ty::var(a, fi), Ty::var(a, fo));
        let mut beta = Cnf::top();
        beta.imply(Lit::pos(fo), Lit::pos(fi));
        let mut subst = Subst::new();
        subst.bind_ty(a, &Ty::fun(Ty::svar(b), Ty::svar(b)));
        let mut env = TyEnv::new();
        let mut replaced = ReplacedFlags::default();
        apply_subst_flow(
            &subst,
            &mut kappa,
            &mut env,
            &mut beta,
            &mut flags,
            &mut replaced,
        );
        beta.project_out(
            &replaced
                .kappa
                .iter()
                .chain(&replaced.env)
                .copied()
                .collect(),
        );

        // Shape: (b.f1→b.f2) → (b.f3→b.f4).
        let (f1, f2, f3, f4) = match &kappa {
            Ty::Fun(i, o) => match (i.as_ref(), o.as_ref()) {
                (Ty::Fun(i1, i2), Ty::Fun(o1, o2)) => {
                    let get = |t: &Ty| match t {
                        Ty::Var(v, f) => {
                            assert_eq!(*v, b);
                            *f
                        }
                        other => panic!("expected var, got {other:?}"),
                    };
                    (get(i1), get(i2), get(o1), get(o2))
                }
                other => panic!("expected functions, got {other:?}"),
            },
            other => panic!("expected function, got {other:?}"),
        };
        // Original flags are gone.
        assert!(!beta.mentions(fi));
        assert!(!beta.mentions(fo));
        // Expected flow: f4→f2 and f1→f3 (Example 3).
        let mut expect = Cnf::top();
        expect.imply(Lit::pos(f4), Lit::pos(f2));
        expect.imply(Lit::pos(f1), Lit::pos(f3));
        assert!(beta.equivalent(&expect), "got {beta:?}, want {expect:?}");
    }

    /// The `cond` example of Section 2.4: [a / {FOO : b, c}] applied to
    /// `a.f1 → a.f2 → a.f3` with flow `f3→f1 ∧ f3→f2` replicates the flow
    /// three times (once per flag of the record copy).
    #[test]
    fn section_2_4_cond_substitution() {
        let mut vars = VarAlloc::new();
        let mut flags = FlagAlloc::new();
        let a = vars.fresh();
        let b = vars.fresh();
        let c = vars.fresh();
        let f1 = flags.fresh();
        let f2 = flags.fresh();
        let f3 = flags.fresh();
        let mut kappa = Ty::fun(Ty::var(a, f1), Ty::fun(Ty::var(a, f2), Ty::var(a, f3)));
        let mut beta = Cnf::top();
        beta.imply(Lit::pos(f3), Lit::pos(f1));
        beta.imply(Lit::pos(f3), Lit::pos(f2));
        let record = Ty::record(
            vec![crate::ty::FieldEntry {
                name: Symbol::intern("foo"),
                flag: NO_FLAG,
                ty: Ty::svar(b),
            }],
            RowTail::Var(c, NO_FLAG),
        );
        let mut subst = Subst::new();
        subst.bind_ty(a, &record);
        let mut env = TyEnv::new();
        let mut replaced = ReplacedFlags::default();
        apply_subst_flow(
            &subst,
            &mut kappa,
            &mut env,
            &mut beta,
            &mut flags,
            &mut replaced,
        );
        beta.project_out(
            &replaced
                .kappa
                .iter()
                .chain(&replaced.env)
                .copied()
                .collect(),
        );

        // Collect the three copies' flag triples (f_field, f_tail, f_b).
        let copies: Vec<Vec<Flag>> = match &kappa {
            Ty::Fun(t1, rest) => match rest.as_ref() {
                Ty::Fun(t2, t3) => vec![t1.flags(), t2.flags(), t3.flags()],
                other => panic!("expected function, got {other:?}"),
            },
            other => panic!("expected function, got {other:?}"),
        };
        assert!(copies.iter().all(|c| c.len() == 3));
        // Per column j: copy3[j] → copy1[j] and copy3[j] → copy2[j].
        let mut expect = Cnf::top();
        for ((&c0, &c1), &c2) in copies[0].iter().zip(&copies[1]).zip(&copies[2]) {
            expect.imply(Lit::pos(c2), Lit::pos(c0));
            expect.imply(Lit::pos(c2), Lit::pos(c1));
        }
        assert!(beta.equivalent(&expect), "got {beta:?}");
    }

    #[test]
    fn row_splice_transports_tail_flow() {
        // κ = {x.fx : Int, r.f1} → {x.gx : Int, r.f2} with f2 → f1;
        // substituting r by {y : Int, s} must give flows between the
        // copies of the y-flag and the new tails.
        let mut vars = VarAlloc::new();
        let mut flags = FlagAlloc::new();
        let r = vars.fresh();
        let s = vars.fresh();
        let fx = flags.fresh();
        let gx = flags.fresh();
        let f1 = flags.fresh();
        let f2 = flags.fresh();
        let x = Symbol::intern("x");
        let mk = |field_flag: Flag, tail_flag: Flag| {
            Ty::record(
                vec![crate::ty::FieldEntry {
                    name: x,
                    flag: field_flag,
                    ty: Ty::Int,
                }],
                RowTail::Var(r, tail_flag),
            )
        };
        let mut kappa = Ty::fun(mk(fx, f1), mk(gx, f2));
        let mut beta = Cnf::top();
        beta.imply(Lit::pos(f2), Lit::pos(f1));
        let suffix = Row {
            fields: vec![crate::ty::FieldEntry {
                name: Symbol::intern("y"),
                flag: NO_FLAG,
                ty: Ty::Int,
            }],
            tail: RowTail::Var(s, NO_FLAG),
        };
        let mut subst = Subst::new();
        subst.bind_row(r, &suffix);
        let mut env = TyEnv::new();
        let mut replaced = ReplacedFlags::default();
        apply_subst_flow(
            &subst,
            &mut kappa,
            &mut env,
            &mut beta,
            &mut flags,
            &mut replaced,
        );
        beta.project_out(
            &replaced
                .kappa
                .iter()
                .chain(&replaced.env)
                .copied()
                .collect(),
        );

        // Each record now has fields {x, y} and tail s; the flow f2→f1
        // is replicated for the y-column and the tail-column.
        let recs: Vec<&Row> = match &kappa {
            Ty::Fun(a, b) => match (a.as_ref(), b.as_ref()) {
                (Ty::Record(ra), Ty::Record(rb)) => vec![ra, rb],
                other => panic!("expected records, got {other:?}"),
            },
            other => panic!("expected function, got {other:?}"),
        };
        let y = Symbol::intern("y");
        let y_in = recs[0].field(y).expect("y spliced into input").flag;
        let y_out = recs[1].field(y).expect("y spliced into output").flag;
        let tail_of = |row: &Row| match row.tail {
            RowTail::Var(v, f) => {
                assert_eq!(v, s);
                f
            }
            RowTail::Closed => panic!("expected open tail"),
        };
        let (t_in, t_out) = (tail_of(recs[0]), tail_of(recs[1]));
        let mut expect = Cnf::top();
        expect.imply(Lit::pos(y_out), Lit::pos(y_in));
        expect.imply(Lit::pos(t_out), Lit::pos(t_in));
        // x-field flags are untouched and unconstrained.
        assert!(beta.equivalent(&expect), "got {beta:?}");
        assert!(!beta.mentions(f1));
        assert!(!beta.mentions(f2));
        assert_eq!(recs[0].field(x).expect("x kept").flag, fx);
        assert_eq!(recs[1].field(x).expect("x kept").flag, gx);
    }

    #[test]
    fn import_scheme_renames_foreign_numbering() {
        // Producing engine: ∀a . a.f0 → a.f1 with stored flow f1 → f0.
        let mut pvars = VarAlloc::new();
        let mut pflags = FlagAlloc::new();
        let a = pvars.fresh();
        let f0 = pflags.fresh();
        let f1 = pflags.fresh();
        let mut scheme = Scheme::new(vec![a], Ty::fun(Ty::var(a, f0), Ty::var(a, f1)));
        scheme.flow.imply(Lit::pos(f1), Lit::pos(f0));

        // Consuming engine that already allocated the same numbers and
        // pinned a local fact on the colliding flag.
        let mut cvars = VarAlloc::new();
        let mut cflags = FlagAlloc::new();
        let local_var = cvars.fresh();
        let local_f0 = cflags.fresh();
        let local_f1 = cflags.fresh();
        let mut beta = Cnf::top();
        beta.assert_lit(Lit::neg(local_f0));

        let imported = import_scheme(&scheme, &mut cvars, &mut cflags);
        for f in imported.ty.flags() {
            assert!(f != local_f0 && f != local_f1, "imported flag collides");
        }
        assert!(
            imported.vars.iter().all(|&v| v != local_var),
            "imported variable collides"
        );

        // Instantiating the import copies its flow onto fresh flags
        // without entangling the consumer's pinned local fact.
        let inst = instantiate(&imported, &mut cvars, &mut cflags, &mut beta);
        let (g0, g1) = match &inst {
            Ty::Fun(i, o) => match (i.as_ref(), o.as_ref()) {
                (Ty::Var(_, g0), Ty::Var(_, g1)) => (*g0, *g1),
                other => panic!("expected vars, got {other:?}"),
            },
            other => panic!("expected function, got {other:?}"),
        };
        let mut q = beta.clone();
        q.assert_lit(Lit::pos(g1));
        q.assert_lit(Lit::neg(g0));
        assert!(
            !q.is_sat(),
            "imported flow g1→g0 missing after instantiation"
        );
        let mut q = beta.clone();
        q.assert_lit(Lit::pos(g1));
        assert!(
            q.is_sat(),
            "local ¬f0 wrongly captured the imported instance"
        );
    }

    #[test]
    fn instantiate_copies_flow_and_preserves_scheme() {
        // Scheme ∀a . a.f1 → a.f2 with flow f2 → f1 (the identity).
        let mut vars = VarAlloc::new();
        let mut flags = FlagAlloc::new();
        let a = vars.fresh();
        let f1 = flags.fresh();
        let f2 = flags.fresh();
        let scheme = Scheme::new(vec![a], Ty::fun(Ty::var(a, f1), Ty::var(a, f2)));
        let mut beta = Cnf::top();
        beta.imply(Lit::pos(f2), Lit::pos(f1));

        let inst = instantiate(&scheme, &mut vars, &mut flags, &mut beta);
        let (b, g1, g2) = match &inst {
            Ty::Fun(i, o) => match (i.as_ref(), o.as_ref()) {
                (Ty::Var(v1, g1), Ty::Var(v2, g2)) => {
                    assert_eq!(v1, v2);
                    (*v1, *g1, *g2)
                }
                other => panic!("expected vars, got {other:?}"),
            },
            other => panic!("expected function, got {other:?}"),
        };
        assert_ne!(b, a, "quantified variable renamed");
        assert_ne!(g1, f1);
        // Instance has its own flow...
        let mut q = beta.clone();
        q.assert_lit(Lit::pos(g2));
        q.assert_lit(Lit::neg(g1));
        assert!(!q.is_sat(), "instance flow g2→g1 present");
        // ...the scheme keeps its flow...
        let mut q = beta.clone();
        q.assert_lit(Lit::pos(f2));
        q.assert_lit(Lit::neg(f1));
        assert!(!q.is_sat(), "scheme flow f2→f1 survives");
        // ...and the two are independent.
        let mut q = beta.clone();
        q.assert_lit(Lit::pos(f1));
        q.assert_lit(Lit::neg(g1));
        assert!(q.is_sat(), "scheme and instance flags are decoupled");
    }

    #[test]
    fn two_instantiations_are_independent() {
        let mut vars = VarAlloc::new();
        let mut flags = FlagAlloc::new();
        let a = vars.fresh();
        let f1 = flags.fresh();
        let scheme = Scheme::new(vec![a], Ty::var(a, f1));
        let mut beta = Cnf::top();
        let i1 = instantiate(&scheme, &mut vars, &mut flags, &mut beta);
        let i2 = instantiate(&scheme, &mut vars, &mut flags, &mut beta);
        let flag_of = |t: &Ty| match t {
            Ty::Var(_, f) => *f,
            other => panic!("expected var, got {other:?}"),
        };
        let (g1, g2) = (flag_of(&i1), flag_of(&i2));
        assert_ne!(g1, g2);
        let mut q = beta.clone();
        q.assert_lit(Lit::pos(g1));
        q.assert_lit(Lit::neg(g2));
        assert!(q.is_sat(), "independent uses may disagree about fields");
    }

    #[test]
    fn compact_flow_drops_stale_flags() {
        let mut flags = FlagAlloc::new();
        let fa = flags.fresh();
        let fb = flags.fresh();
        let fdead = flags.fresh();
        let mut beta = Cnf::top();
        beta.imply(Lit::pos(fa), Lit::pos(fdead));
        beta.imply(Lit::pos(fdead), Lit::pos(fb));
        let kappa = Ty::fun(Ty::var(Var(0), fa), Ty::var(Var(0), fb));
        let env = TyEnv::new();
        compact_flow(&mut beta, &env, &kappa);
        assert!(!beta.mentions(fdead));
        let mut expect = Cnf::top();
        expect.imply(Lit::pos(fa), Lit::pos(fb));
        assert!(beta.equivalent(&expect));
    }
}
