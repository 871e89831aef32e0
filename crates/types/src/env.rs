//! Type environments and type schemes.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use rowpoly_boolfun::{Flag, Lit};
use rowpoly_lang::Symbol;

use crate::flags::flag_lits;
use crate::subst::Subst;
use crate::ty::{Ty, Var};

/// A type scheme `∀a1 … an . t`.
///
/// Besides the listed type variables, *all flags occurring in `t`* are
/// implicitly generalized: instantiation refreshes every flag of the body
/// and duplicates the flow β restricted to those flags (the expansion of
/// Definition 2). This mirrors how `applyS` decorates each inserted copy
/// with fresh flags and is what keeps separate uses of a let-bound
/// function independent in their field-existence constraints.
#[derive(Clone, Debug, PartialEq)]
pub struct Scheme {
    /// Quantified type/row variables.
    pub vars: Vec<Var>,
    /// The body, a `PR` term.
    pub ty: Ty,
    /// The scheme's own flow: β projected onto the flags of `ty` when the
    /// definition was finished (empty for local lets, whose flow stays in
    /// the working β). Instantiation rename-copies these clauses, so the
    /// working β never has to carry the flows of all earlier definitions
    /// — this is the paper's "the type inferred for a function is thus
    /// concise" made operational.
    pub flow: rowpoly_boolfun::Cnf,
}

impl Scheme {
    /// A scheme from quantified variables and a body (no stored flow).
    pub fn new(vars: Vec<Var>, ty: Ty) -> Scheme {
        Scheme {
            vars,
            ty,
            flow: rowpoly_boolfun::Cnf::top(),
        }
    }

    /// A scheme quantifying nothing.
    pub fn mono(ty: Ty) -> Scheme {
        Scheme::new(Vec::new(), ty)
    }

    /// The free (unquantified) variables of the scheme.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut vs = self.ty.vars_set();
        for v in &self.vars {
            vs.remove(v);
        }
        vs
    }
}

/// How a program variable is bound in the environment.
#[derive(Clone, Debug, PartialEq)]
pub enum Binding {
    /// λ-bound: a monomorphic `PR` type; uses are related to the binding
    /// occurrence by flag implications (rule (VAR)).
    Mono(Ty),
    /// let-bound: a scheme; uses instantiate it (rule (VAR-LET)).
    Poly(Scheme),
}

impl Binding {
    /// The underlying type term (scheme body for `Poly`).
    pub fn ty(&self) -> &Ty {
        match self {
            Binding::Mono(t) => t,
            Binding::Poly(s) => &s.ty,
        }
    }

    /// Free variables of the binding.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        match self {
            Binding::Mono(t) => t.vars_set(),
            Binding::Poly(s) => s.free_vars(),
        }
    }
}

static ENV_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    ENV_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// The frozen outer layer of an environment: top-level definitions that
/// no longer change during the current definition's inference.
///
/// The layer caches its flag set and free variables, so the per-AST-node
/// operations of the inference (stale-flag projection, environment
/// meets, flag-sequence equations) only ever walk the small *local*
/// layer. [`TyEnv::freeze`] extends the layer in place, so folding in one
/// definition costs O(|local| log n) rather than a copy of the layer.
#[derive(Clone, Debug, Default)]
struct GlobalLayer {
    map: BTreeMap<Symbol, Binding>,
    /// All flags occurring in the layer.
    flags: BTreeSet<Flag>,
    /// All free type variables of the layer (top-level schemes are almost
    /// always closed, so this is usually tiny — it holds the variables of
    /// pre-bound free program variables).
    free_vars: BTreeSet<Var>,
}

/// A type environment `ρ`, mapping program variables to bindings.
///
/// Environments are cheap to clone and carry a *version tag*: every
/// mutation produces a fresh version, so two environments with equal
/// versions and the same global layer are identical. This implements the
/// optimisation described in Section 6 of the paper, where the meet of
/// two environments short-circuits when both carry the same version.
///
/// The environment is layered: [`TyEnv::freeze`] moves the local bindings
/// into the shared global layer (used by the driver between top-level
/// definitions). Local lookups shadow global ones.
#[derive(Clone, Debug)]
pub struct TyEnv {
    global: Rc<GlobalLayer>,
    local: Rc<BTreeMap<Symbol, Binding>>,
    version: u64,
}

impl Default for TyEnv {
    fn default() -> Self {
        TyEnv::new()
    }
}

impl TyEnv {
    /// The empty environment.
    pub fn new() -> TyEnv {
        TyEnv {
            global: Rc::new(GlobalLayer::default()),
            local: Rc::new(BTreeMap::new()),
            version: next_version(),
        }
    }

    /// The version tag; equal versions (with the same global layer) imply
    /// identical environments.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the two environments are known identical without comparing
    /// contents.
    pub fn same(&self, other: &TyEnv) -> bool {
        Rc::ptr_eq(&self.global, &other.global)
            && (Rc::ptr_eq(&self.local, &other.local) || self.version == other.version)
    }

    /// Whether the two environments share their global layer (always true
    /// for environments evolved within one definition).
    pub fn same_global(&self, other: &TyEnv) -> bool {
        Rc::ptr_eq(&self.global, &other.global)
    }

    /// Looks up a binding (local layer shadows global).
    pub fn get(&self, name: Symbol) -> Option<&Binding> {
        self.local.get(&name).or_else(|| self.global.map.get(&name))
    }

    /// Looks up a binding in the local layer only (used to save/restore
    /// shadowed bindings without duplicating global entries locally).
    pub fn get_local(&self, name: Symbol) -> Option<&Binding> {
        self.local.get(&name)
    }

    /// Whether `name` is bound.
    pub fn contains(&self, name: Symbol) -> bool {
        self.local.contains_key(&name) || self.global.map.contains_key(&name)
    }

    /// Adds or replaces a binding in the local layer.
    pub fn insert(&mut self, name: Symbol, binding: Binding) {
        Rc::make_mut(&mut self.local).insert(name, binding);
        self.version = next_version();
    }

    /// Removes a local binding (the projection `∃x` on environments). A
    /// shadowed global binding becomes visible again; global bindings
    /// themselves cannot be removed.
    pub fn remove(&mut self, name: Symbol) -> Option<Binding> {
        let removed = Rc::make_mut(&mut self.local).remove(&name);
        if removed.is_some() {
            self.version = next_version();
        }
        removed
    }

    /// Number of bindings (local + non-shadowed global).
    pub fn len(&self) -> usize {
        let shadowed = self
            .local
            .keys()
            .filter(|k| self.global.map.contains_key(k))
            .count();
        self.local.len() + self.global.map.len() - shadowed
    }

    /// Whether the environment is empty.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty() && self.global.map.is_empty()
    }

    /// Freezes the local layer into the global one, extending the cached
    /// flag and free-variable sets. Called by the driver after each
    /// top-level definition.
    ///
    /// The global layer is extended in place when this environment owns
    /// it alone (the drivers' case), so a freeze costs O(|local| log n).
    /// A clone sharing the layer keeps its own copy (copy-on-write).
    pub fn freeze(&mut self) {
        if self.local.is_empty() {
            return;
        }
        let local = Rc::try_unwrap(std::mem::take(&mut self.local))
            .unwrap_or_else(|shared| (*shared).clone());
        let global = Rc::make_mut(&mut self.global);
        for (name, binding) in local {
            global.flags.extend(binding.ty().flags());
            global.free_vars.extend(binding.free_vars());
            global.map.insert(name, binding);
        }
        self.version = next_version();
    }

    /// Iterates *all* bindings in symbol order (global entries shadowed by
    /// local ones are skipped).
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Binding)> {
        // Both maps are sorted; merge them, preferring local.
        MergedIter {
            local: self.local.iter().peekable(),
            global: self.global.map.iter().peekable(),
        }
    }

    /// Iterates the local layer only.
    pub fn iter_local(&self) -> impl Iterator<Item = (Symbol, &Binding)> {
        self.local.iter().map(|(s, b)| (*s, b))
    }

    /// Mutable iteration over the local layer (bumps the version).
    pub fn iter_local_mut(&mut self) -> impl Iterator<Item = (Symbol, &mut Binding)> {
        self.version = next_version();
        Rc::make_mut(&mut self.local)
            .iter_mut()
            .map(|(s, b)| (*s, b))
    }

    /// Promotes a global binding into the local layer (so it can be
    /// rewritten by a substitution that touches its free variables) and
    /// returns whether the name was global.
    pub fn promote(&mut self, name: Symbol) -> bool {
        if self.local.contains_key(&name) {
            return false;
        }
        match self.global.map.get(&name) {
            Some(b) => {
                let b = b.clone();
                self.insert(name, b);
                true
            }
            None => false,
        }
    }

    /// The free variables of the global layer (cached).
    pub fn global_free_vars(&self) -> &BTreeSet<Var> {
        &self.global.free_vars
    }

    /// The flags of the global layer (cached). Note that promoted-and-
    /// rewritten bindings shadow global entries, so a *stale* superset of
    /// the truly visible global flags — safe for liveness (projection
    /// keeps at most too much, never too little).
    pub fn global_flags(&self) -> &BTreeSet<Flag> {
        &self.global.flags
    }

    /// Global bindings whose free variables intersect the domain of `s`
    /// (candidates for promotion before applying the substitution).
    pub fn globals_touched_by(&self, s: &Subst) -> Vec<Symbol> {
        if self.global.free_vars.iter().all(|v| !s.binds(*v)) {
            return Vec::new();
        }
        self.global
            .map
            .iter()
            .filter(|(k, b)| {
                !self.local.contains_key(k) && b.free_vars().iter().any(|v| s.binds(*v))
            })
            .map(|(k, _)| *k)
            .collect()
    }

    /// Free variables of the whole environment.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = self.global.free_vars.clone();
        for (_, b) in self.iter_local() {
            out.extend(b.free_vars());
        }
        out
    }

    /// All flags of the local layer, in binding order.
    pub fn local_flags(&self) -> Vec<Flag> {
        let mut out = Vec::new();
        for (_, b) in self.iter_local() {
            out.extend(b.ty().flags());
        }
        out
    }

    /// All flags occurring in the environment (including scheme bodies).
    pub fn flags(&self) -> BTreeSet<Flag> {
        let mut out = self.global.flags.clone();
        out.extend(self.local_flags());
        out
    }

    /// The `*ρ+X` flag sequence of the whole environment, in symbol
    /// order.
    pub fn flag_seq(&self) -> Vec<Lit> {
        let mut out = Vec::new();
        for (_, b) in self.iter() {
            out.extend(flag_lits(b.ty()));
        }
        out
    }

    /// Applies a substitution to every binding (skeleton-level, preserving
    /// flags on untouched structure). Used by the flow-free inference; the
    /// flow inference uses `applyS` instead. Bindings not mentioning the
    /// substitution's domain are left untouched (and if nothing is
    /// touched, the version is preserved).
    pub fn apply_subst(&mut self, subst: &Subst) {
        if subst.is_empty() {
            return;
        }
        for name in self.globals_touched_by(subst) {
            self.promote(name);
        }
        let touched: Vec<Symbol> = self
            .iter_local()
            .filter(|(_, b)| b.free_vars().iter().any(|v| subst.binds(*v)))
            .map(|(s, _)| s)
            .collect();
        if touched.is_empty() {
            return;
        }
        let local = Rc::make_mut(&mut self.local);
        for name in touched {
            let b = local.get_mut(&name).expect("touched binding exists");
            match b {
                Binding::Mono(t) => *t = subst.apply(t),
                Binding::Poly(s) => s.ty = subst.apply(&s.ty),
            }
        }
        self.version = next_version();
    }
}

struct MergedIter<'a> {
    local: std::iter::Peekable<std::collections::btree_map::Iter<'a, Symbol, Binding>>,
    global: std::iter::Peekable<std::collections::btree_map::Iter<'a, Symbol, Binding>>,
}

impl<'a> Iterator for MergedIter<'a> {
    type Item = (Symbol, &'a Binding);

    fn next(&mut self) -> Option<(Symbol, &'a Binding)> {
        match (self.local.peek(), self.global.peek()) {
            (Some((ls, _)), Some((gs, _))) => match ls.cmp(gs) {
                std::cmp::Ordering::Less => self.local.next().map(|(s, b)| (*s, b)),
                std::cmp::Ordering::Greater => self.global.next().map(|(s, b)| (*s, b)),
                std::cmp::Ordering::Equal => {
                    // Local shadows global.
                    self.global.next();
                    self.local.next().map(|(s, b)| (*s, b))
                }
            },
            (Some(_), None) => self.local.next().map(|(s, b)| (*s, b)),
            (None, Some(_)) => self.global.next().map(|(s, b)| (*s, b)),
            (None, None) => None,
        }
    }
}

/// Generalizes `ty` over the variables not free in `env`:
/// `∀(vars(ty) \ vars(env)) . ty` (the (LETREC) rule's scheme).
pub fn generalize(env: &TyEnv, ty: &Ty) -> Scheme {
    let global_fv = env.global_free_vars();
    let mut env_vars: BTreeSet<Var> = BTreeSet::new();
    for (_, b) in env.iter_local() {
        env_vars.extend(b.free_vars());
    }
    let vars: Vec<Var> = ty
        .vars()
        .into_iter()
        .filter(|v| !env_vars.contains(v) && !global_fv.contains(v))
        .collect();
    Scheme::new(vars, ty.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::{VarAlloc, NO_FLAG};
    use rowpoly_boolfun::FlagAlloc;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn insert_and_lookup() {
        let mut env = TyEnv::new();
        env.insert(sym("x"), Binding::Mono(Ty::Int));
        assert_eq!(env.get(sym("x")), Some(&Binding::Mono(Ty::Int)));
        assert_eq!(env.get(sym("y")), None);
    }

    #[test]
    fn versions_distinguish_modified_envs() {
        let mut env = TyEnv::new();
        env.insert(sym("x"), Binding::Mono(Ty::Int));
        let snapshot = env.clone();
        assert!(env.same(&snapshot));
        env.insert(sym("y"), Binding::Mono(Ty::Str));
        assert!(!env.same(&snapshot));
        assert!(
            snapshot.get(sym("y")).is_none(),
            "copy-on-write isolates the clone"
        );
    }

    #[test]
    fn freeze_moves_bindings_to_global() {
        let mut flags = FlagAlloc::new();
        let f = flags.fresh();
        let mut env = TyEnv::new();
        env.insert(sym("g"), Binding::Mono(Ty::var(Var(0), f)));
        env.freeze();
        assert!(env.iter_local().next().is_none());
        assert!(env.get(sym("g")).is_some());
        assert!(env.global_flags().contains(&f));
        assert!(env.global_free_vars().contains(&Var(0)));
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn freeze_extends_a_uniquely_owned_global_layer_in_place() {
        let mut env = TyEnv::new();
        env.insert(sym("a"), Binding::Mono(Ty::Int));
        env.freeze();
        let before = Rc::as_ptr(&env.global);
        env.insert(sym("b"), Binding::Mono(Ty::Str));
        env.freeze();
        assert!(std::ptr::eq(before, Rc::as_ptr(&env.global)), "no copy");
        assert_eq!(env.len(), 2);
    }

    #[test]
    fn freeze_copies_a_shared_global_layer_on_write() {
        let mut flags = FlagAlloc::new();
        let (f, g) = (flags.fresh(), flags.fresh());
        let mut env = TyEnv::new();
        env.insert(sym("a"), Binding::Mono(Ty::var(Var(0), f)));
        env.freeze();
        env.insert(sym("b"), Binding::Mono(Ty::var(Var(1), g)));
        let snapshot = env.clone();
        env.freeze();
        assert!(!env.same(&snapshot));
        assert!(!env.same_global(&snapshot));
        // The clone still sees `b` as local and its global layer as it
        // was before the freeze.
        assert!(snapshot.get_local(sym("b")).is_some());
        assert!(!snapshot.global.map.contains_key(&sym("b")));
        assert!(!snapshot.global_flags().contains(&g));
        assert!(!snapshot.global_free_vars().contains(&Var(1)));
        assert!(env.global_flags().contains(&g));
        assert!(env.global_free_vars().contains(&Var(1)));
        assert!(env.iter_local().next().is_none());
    }

    #[test]
    fn freeze_replaces_shadowed_globals_and_keeps_a_flag_superset() {
        let mut flags = FlagAlloc::new();
        let (old, new) = (flags.fresh(), flags.fresh());
        let mut env = TyEnv::new();
        env.insert(sym("x"), Binding::Mono(Ty::var(Var(0), old)));
        env.freeze();
        env.insert(sym("x"), Binding::Mono(Ty::var(Var(1), new)));
        env.freeze();
        assert_eq!(
            env.get(sym("x")),
            Some(&Binding::Mono(Ty::var(Var(1), new)))
        );
        assert_eq!(env.len(), 1);
        // The replaced binding's flags stay: a stale superset.
        assert!(env.global_flags().contains(&old));
        assert!(env.global_flags().contains(&new));
    }

    #[test]
    fn local_shadows_global_and_remove_unshadows() {
        let mut env = TyEnv::new();
        env.insert(sym("x"), Binding::Mono(Ty::Int));
        env.freeze();
        env.insert(sym("x"), Binding::Mono(Ty::Str));
        assert_eq!(env.get(sym("x")), Some(&Binding::Mono(Ty::Str)));
        assert_eq!(env.len(), 1, "shadowed binding counted once");
        env.remove(sym("x"));
        assert_eq!(env.get(sym("x")), Some(&Binding::Mono(Ty::Int)));
    }

    #[test]
    fn merged_iter_in_symbol_order() {
        let mut env = TyEnv::new();
        env.insert(sym("b"), Binding::Mono(Ty::Int));
        env.freeze();
        env.insert(sym("a"), Binding::Mono(Ty::Str));
        env.insert(sym("c"), Binding::Mono(Ty::Str));
        let keys: Vec<String> = env.iter().map(|(s, _)| s.to_string()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn promote_pulls_global_into_local() {
        let mut env = TyEnv::new();
        env.insert(sym("x"), Binding::Mono(Ty::svar(Var(3))));
        env.freeze();
        assert!(env.promote(sym("x")));
        assert!(!env.promote(sym("x")), "already local");
        assert!(!env.promote(sym("nope")));
        assert!(env.iter_local().any(|(s, _)| s == sym("x")));
    }

    #[test]
    fn generalize_quantifies_only_local_vars() {
        let mut vars = VarAlloc::new();
        let (a, b) = (vars.fresh(), vars.fresh());
        let mut env = TyEnv::new();
        env.insert(sym("x"), Binding::Mono(Ty::svar(a)));
        let scheme = generalize(&env, &Ty::fun(Ty::svar(a), Ty::svar(b)));
        assert_eq!(scheme.vars, vec![b]);
    }

    #[test]
    fn generalize_respects_frozen_free_vars() {
        let mut vars = VarAlloc::new();
        let (a, b) = (vars.fresh(), vars.fresh());
        let mut env = TyEnv::new();
        env.insert(sym("x"), Binding::Mono(Ty::svar(a)));
        env.freeze();
        let scheme = generalize(&env, &Ty::fun(Ty::svar(a), Ty::svar(b)));
        assert_eq!(scheme.vars, vec![b], "frozen free vars are not quantified");
    }

    #[test]
    fn apply_subst_rewrites_only_touched_bindings() {
        let mut vars = VarAlloc::new();
        let a = vars.fresh();
        let mut env = TyEnv::new();
        env.insert(sym("x"), Binding::Mono(Ty::svar(a)));
        env.insert(sym("y"), Binding::Mono(Ty::Int));
        let before = env.version();
        let mut s = Subst::new();
        s.bind_ty(a, &Ty::Int);
        env.apply_subst(&s);
        assert_eq!(env.get(sym("x")), Some(&Binding::Mono(Ty::Int)));
        assert_ne!(env.version(), before);

        // A substitution touching nothing preserves the version.
        let before = env.version();
        let mut s2 = Subst::new();
        s2.bind_ty(vars.fresh(), &Ty::Str);
        env.apply_subst(&s2);
        assert_eq!(env.version(), before, "untouched env keeps its version");
    }

    #[test]
    fn apply_subst_promotes_touched_globals() {
        let mut vars = VarAlloc::new();
        let a = vars.fresh();
        let mut env = TyEnv::new();
        env.insert(sym("free"), Binding::Mono(Ty::svar(a)));
        env.freeze();
        let mut s = Subst::new();
        s.bind_ty(a, &Ty::Int);
        env.apply_subst(&s);
        assert_eq!(env.get(sym("free")), Some(&Binding::Mono(Ty::Int)));
        assert!(env.iter_local().any(|(s, _)| s == sym("free")), "promoted");
    }

    #[test]
    fn scheme_free_vars_exclude_quantified() {
        let s = Scheme::new(vec![Var(0)], Ty::fun(Ty::svar(Var(0)), Ty::svar(Var(1))));
        assert_eq!(s.free_vars(), [Var(1)].into_iter().collect());
    }

    #[test]
    fn flag_seq_in_symbol_order() {
        let mut flags = FlagAlloc::new();
        let (f1, f2) = (flags.fresh(), flags.fresh());
        let mut env = TyEnv::new();
        env.insert(sym("zz"), Binding::Mono(Ty::var(Var(0), f1)));
        env.insert(sym("aa"), Binding::Mono(Ty::var(Var(1), f2)));
        assert_eq!(env.flag_seq(), vec![Lit::pos(f2), Lit::pos(f1)]);
        let _ = NO_FLAG;
    }

    #[test]
    fn env_flags_include_scheme_bodies() {
        let mut flags = FlagAlloc::new();
        let f = flags.fresh();
        let mut env = TyEnv::new();
        env.insert(
            sym("f"),
            Binding::Poly(Scheme::new(vec![Var(0)], Ty::var(Var(0), f))),
        );
        assert!(env.flags().contains(&f));
    }
}
