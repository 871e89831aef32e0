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

    /// The underlying type term, by value.
    pub fn into_ty(self) -> Ty {
        match self {
            Binding::Mono(t) => t,
            Binding::Poly(s) => s.ty,
        }
    }

    /// The underlying type term, mutably.
    pub(crate) fn ty_mut(&mut self) -> &mut Ty {
        match self {
            Binding::Mono(t) => t,
            Binding::Poly(s) => &mut s.ty,
        }
    }
}

/// One binding of an environment together with two summaries computed
/// once, when the entry is built or rewritten: the binding's flags and
/// its free type variables.
///
/// Environments share entries behind `Rc`, so copying a layer copies
/// pointers, an entry untouched since two environments split is the
/// same allocation on both sides (the Section 6 version tag, applied
/// per binding), and every walk of a layer reads the summaries instead
/// of re-walking the type trees.
#[derive(Clone, Debug)]
pub struct Entry {
    binding: Binding,
    /// The flags of `binding.ty()`, in Definition 1 order (`Ty::flags`).
    flags: Vec<Flag>,
    /// The free type variables of `binding`, sorted and deduplicated.
    free_vars: Vec<Var>,
}

impl Entry {
    /// An entry for `binding`, with its summaries.
    pub fn new(binding: Binding) -> Entry {
        let mut entry = Entry {
            binding,
            flags: Vec::new(),
            free_vars: Vec::new(),
        };
        entry.summarize();
        entry
    }

    /// The binding.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// The binding's flags, in Definition 1 order.
    pub fn flags(&self) -> &[Flag] {
        &self.flags
    }

    /// The binding's free type variables, sorted.
    pub fn free_vars(&self) -> &[Var] {
        &self.free_vars
    }

    /// Whether `v` is free in the binding.
    pub fn mentions(&self, v: Var) -> bool {
        self.free_vars.binary_search(&v).is_ok()
    }

    /// Whether the substitution binds a free variable of the binding.
    pub fn touched_by(&self, s: &Subst) -> bool {
        self.free_vars.iter().any(|v| s.binds(*v))
    }

    /// Whether the two entries hold equal bindings: pointer equality
    /// first, then the flag summaries, then the type trees.
    pub fn same(a: &Rc<Entry>, b: &Rc<Entry>) -> bool {
        Rc::ptr_eq(a, b) || (a.flags == b.flags && a.binding == b.binding)
    }

    /// The binding, copied only when another environment shares it.
    pub fn into_binding(entry: Rc<Entry>) -> Binding {
        Rc::try_unwrap(entry)
            .map(|e| e.binding)
            .unwrap_or_else(|shared| shared.binding.clone())
    }

    /// Recomputes both summaries from the binding.
    fn summarize(&mut self) {
        self.flags.clear();
        self.binding.ty().collect_flags(&mut self.flags);
        self.free_vars.clear();
        self.binding.ty().push_vars(&mut self.free_vars);
        self.free_vars.sort_unstable();
        self.free_vars.dedup();
        if let Binding::Poly(s) = &self.binding {
            self.free_vars.retain(|v| !s.vars.contains(v));
        }
    }
}

static ENV_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    ENV_VERSION.fetch_add(1, Ordering::Relaxed)
}

type Layer = BTreeMap<Symbol, Rc<Entry>>;

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
    map: Layer,
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
/// Bindings are shared [`Entry`]s, so the same shortcut applies to single
/// bindings by pointer.
///
/// The environment is layered: [`TyEnv::freeze`] moves the local bindings
/// into the shared global layer (used by the driver between top-level
/// definitions). Local lookups shadow global ones.
#[derive(Clone, Debug)]
pub struct TyEnv {
    global: Rc<GlobalLayer>,
    local: Rc<Layer>,
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
        self.entry(name).map(|e| &e.binding)
    }

    /// Looks up a binding's entry (local layer shadows global).
    pub fn entry(&self, name: Symbol) -> Option<&Rc<Entry>> {
        self.local.get(&name).or_else(|| self.global.map.get(&name))
    }

    /// Looks up an entry in the local layer only (used to save/restore
    /// shadowed bindings without duplicating global entries locally).
    pub fn local_entry(&self, name: Symbol) -> Option<&Rc<Entry>> {
        self.local.get(&name)
    }

    /// Whether `name` is bound.
    pub fn contains(&self, name: Symbol) -> bool {
        self.local.contains_key(&name) || self.global.map.contains_key(&name)
    }

    /// Adds or replaces a binding in the local layer.
    pub fn insert(&mut self, name: Symbol, binding: Binding) {
        self.insert_entry(name, Rc::new(Entry::new(binding)));
    }

    /// Adds or replaces a local binding with an existing entry.
    pub fn insert_entry(&mut self, name: Symbol, entry: Rc<Entry>) {
        Rc::make_mut(&mut self.local).insert(name, entry);
        self.version = next_version();
    }

    /// Removes a local binding (the projection `∃x` on environments). A
    /// shadowed global binding becomes visible again; global bindings
    /// themselves cannot be removed.
    pub fn remove(&mut self, name: Symbol) -> Option<Rc<Entry>> {
        if !self.local.contains_key(&name) {
            return None;
        }
        self.version = next_version();
        Rc::make_mut(&mut self.local).remove(&name)
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
        for (name, entry) in local {
            global.flags.extend(entry.flags.iter().copied());
            global.free_vars.extend(entry.free_vars.iter().copied());
            global.map.insert(name, entry);
        }
        self.version = next_version();
    }

    /// Iterates *all* bindings in symbol order (global entries shadowed by
    /// local ones are skipped).
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Binding)> {
        Merge {
            a: self.local.iter().peekable(),
            b: self.global.map.iter().peekable(),
        }
        .map(|(s, l, g)| (s, &l.or(g).expect("merged key").binding))
    }

    /// Iterates the local layer's entries.
    pub fn local_entries(&self) -> impl Iterator<Item = (Symbol, &Rc<Entry>)> {
        self.local.iter().map(|(s, e)| (*s, e))
    }

    /// Rewrites, in symbol order, every local binding `touches` selects,
    /// refreshing its summaries. Entries are copied only where another
    /// environment shares them, and the map itself copies pointers. If
    /// nothing is selected the environment, version included, is left
    /// alone. Returns whether anything was rewritten.
    pub fn rewrite_local(
        &mut self,
        touches: impl Fn(&Entry) -> bool,
        mut rewrite: impl FnMut(&mut Binding),
    ) -> bool {
        if !self.local.values().any(|e| touches(e)) {
            return false;
        }
        for entry in Rc::make_mut(&mut self.local).values_mut() {
            if touches(entry) {
                let entry = Rc::make_mut(entry);
                rewrite(&mut entry.binding);
                entry.summarize();
            }
        }
        self.version = next_version();
        true
    }

    /// Promotes a global binding into the local layer (so it can be
    /// rewritten by a substitution that touches its free variables) and
    /// returns whether the name was global. The entry is shared, not
    /// copied.
    pub fn promote(&mut self, name: Symbol) -> bool {
        if self.local.contains_key(&name) {
            return false;
        }
        match self.global.map.get(&name) {
            Some(e) => {
                let e = Rc::clone(e);
                self.insert_entry(name, e);
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
            .filter(|(k, e)| !self.local.contains_key(k) && e.touched_by(s))
            .map(|(k, _)| *k)
            .collect()
    }

    /// Whether `v` is free in some local binding.
    pub fn local_mentions(&self, v: Var) -> bool {
        self.local.values().any(|e| e.mentions(v))
    }

    /// All flags of the local layer, in binding order.
    pub fn local_flags(&self) -> impl Iterator<Item = Flag> + '_ {
        self.local.values().flat_map(|e| e.flags.iter().copied())
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
        self.rewrite_local(
            |e| e.touched_by(subst),
            |b| {
                let t = b.ty_mut();
                *t = subst.apply(t);
            },
        );
    }

    /// The local bindings on which `a` and `b` differ, in symbol order:
    /// every name bound locally on either side whose entries are not
    /// [`Entry::same`], with `a`'s entry first. A name local to one side
    /// is compared with the other side's global entry, so both
    /// environments must share their global layer. Walks the two sorted
    /// local layers in one merge.
    pub fn local_diff<'a>(
        a: &'a TyEnv,
        b: &'a TyEnv,
    ) -> impl Iterator<Item = (Symbol, &'a Rc<Entry>, &'a Rc<Entry>)> {
        debug_assert!(a.same_global(b), "meets stay within one definition");
        Merge {
            a: a.local.iter().peekable(),
            b: b.local.iter().peekable(),
        }
        .filter_map(move |(k, ea, eb)| {
            let (Some(ea), Some(eb)) = (
                ea.or_else(|| a.global.map.get(&k)),
                eb.or_else(|| b.global.map.get(&k)),
            ) else {
                unreachable!("environment domains diverged at `{k}`")
            };
            (!Entry::same(ea, eb)).then_some((k, ea, eb))
        })
    }
}

/// A merge of two sorted layers: every key of either, in order, with its
/// entry on each side.
struct Merge<'a> {
    a: std::iter::Peekable<std::collections::btree_map::Iter<'a, Symbol, Rc<Entry>>>,
    b: std::iter::Peekable<std::collections::btree_map::Iter<'a, Symbol, Rc<Entry>>>,
}

type Merged<'a> = (Symbol, Option<&'a Rc<Entry>>, Option<&'a Rc<Entry>>);

impl<'a> Iterator for Merge<'a> {
    type Item = Merged<'a>;

    fn next(&mut self) -> Option<Merged<'a>> {
        let order = match (self.a.peek(), self.b.peek()) {
            (Some((ka, _)), Some((kb, _))) => ka.cmp(kb),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => return None,
        };
        Some(match order {
            std::cmp::Ordering::Less => {
                let (k, e) = self.a.next()?;
                (*k, Some(e), None)
            }
            std::cmp::Ordering::Greater => {
                let (k, e) = self.b.next()?;
                (*k, None, Some(e))
            }
            std::cmp::Ordering::Equal => {
                let (k, ea) = self.a.next()?;
                let (_, eb) = self.b.next()?;
                (*k, Some(ea), Some(eb))
            }
        })
    }
}

/// Generalizes `ty` over the variables not free in `env`:
/// `∀(vars(ty) \ vars(env)) . ty` (the (LETREC) rule's scheme).
pub fn generalize(env: &TyEnv, ty: &Ty) -> Scheme {
    let global_fv = env.global_free_vars();
    let vars: Vec<Var> = ty
        .vars()
        .into_iter()
        .filter(|v| !global_fv.contains(v) && !env.local_mentions(*v))
        .collect();
    Scheme::new(vars, ty.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::{VarAlloc, NO_FLAG};
    use rowpoly_boolfun::FlagAlloc;
    use rowpoly_obs::rng::SplitMix64;

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
        assert!(env.local_entries().next().is_none());
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
        assert!(snapshot.local_entry(sym("b")).is_some());
        assert!(!snapshot.global.map.contains_key(&sym("b")));
        assert!(!snapshot.global_flags().contains(&g));
        assert!(!snapshot.global_free_vars().contains(&Var(1)));
        assert!(env.global_flags().contains(&g));
        assert!(env.global_free_vars().contains(&Var(1)));
        assert!(env.local_entries().next().is_none());
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
        assert!(env.local_entries().any(|(s, _)| s == sym("x")));
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
        assert!(
            env.local_entries().any(|(s, _)| s == sym("free")),
            "promoted"
        );
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

    /// Random skeleton types over variables `t0..t5`, with row tails
    /// drawn from the disjoint pool `t6..t8`.
    fn skeleton(rng: &mut SplitMix64, depth: usize) -> Ty {
        if depth == 0 || rng.gen_bool(0.4) {
            return match rng.gen_range(0..3u8) {
                0 | 1 => Ty::svar(Var(rng.gen_range(0..6u32))),
                _ => Ty::Int,
            };
        }
        match rng.gen_range(0..3u8) {
            0 => Ty::fun(skeleton(rng, depth - 1), skeleton(rng, depth - 1)),
            1 => Ty::list(skeleton(rng, depth - 1)),
            _ => {
                let mut fields = Vec::new();
                for n in ["a", "b"] {
                    if rng.gen_bool(0.5) {
                        fields.push(crate::ty::FieldEntry {
                            name: sym(n),
                            flag: NO_FLAG,
                            ty: skeleton(rng, depth - 1),
                        });
                    }
                }
                let tail = if rng.gen_bool(0.5) {
                    crate::ty::RowTail::Var(Var(rng.gen_range(6..9u32)), NO_FLAG)
                } else {
                    crate::ty::RowTail::Closed
                };
                Ty::record(fields, tail)
            }
        }
    }

    fn binding(rng: &mut SplitMix64, flags: &mut FlagAlloc) -> Binding {
        let ty = skeleton(rng, 3).decorate(flags);
        if rng.gen_bool(0.5) {
            Binding::Mono(ty)
        } else {
            let vars = ty
                .vars()
                .into_iter()
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            Binding::Poly(Scheme::new(vars, ty))
        }
    }

    /// Every entry's summaries equal a fresh walk of its binding, and
    /// the global layer's caches cover its entries.
    fn assert_summaries_fresh(env: &TyEnv) {
        let entries = env.local.values().chain(env.global.map.values());
        for e in entries {
            assert_eq!(e.flags(), e.binding.ty().flags().as_slice(), "{e:?}");
            let fresh: Vec<Var> = match &e.binding {
                Binding::Mono(t) => t.vars_set().into_iter().collect(),
                Binding::Poly(s) => s.free_vars().into_iter().collect(),
            };
            assert_eq!(e.free_vars(), fresh.as_slice(), "{e:?}");
        }
        for e in env.global.map.values() {
            assert!(e.flags.iter().all(|f| env.global.flags.contains(f)));
            assert!(e.free_vars.iter().all(|v| env.global.free_vars.contains(v)));
        }
    }

    #[test]
    fn summaries_match_a_fresh_walk_after_random_edits() {
        let mut rng = SplitMix64::seed_from_u64(0xe47);
        let names = ["w", "x", "y", "z"];
        for _ in 0..rowpoly_obs::cases(200) {
            let mut flags = FlagAlloc::new();
            let mut env = TyEnv::new();
            // Clones share entries with `env`, so rewrites must copy on
            // write and leave them intact.
            let mut clones = Vec::new();
            for _ in 0..24 {
                let name = sym(names[rng.gen_range(0..names.len())]);
                match rng.gen_range(0..6u8) {
                    0 | 1 => env.insert(name, binding(&mut rng, &mut flags)),
                    2 => drop(env.remove(name)),
                    3 => drop(env.promote(name)),
                    4 => {
                        let v = Var(rng.gen_range(0..6u32));
                        let to = loop {
                            let t = skeleton(&mut rng, 2);
                            if !t.mentions_var(v) {
                                break t;
                            }
                        };
                        let mut subst = Subst::new();
                        subst.bind_ty(v, &to);
                        let mut kappa = skeleton(&mut rng, 2).decorate(&mut flags);
                        let mut beta = rowpoly_boolfun::Cnf::top();
                        let mut replaced = crate::applys::ReplacedFlags::default();
                        crate::applys::apply_subst_flow(
                            &subst,
                            &mut kappa,
                            &mut env,
                            &mut beta,
                            &mut flags,
                            &mut replaced,
                        );
                    }
                    _ => env.freeze(),
                }
                if rng.gen_bool(0.3) {
                    clones.push(env.clone());
                }
                assert_summaries_fresh(&env);
            }
            clones.iter().for_each(assert_summaries_fresh);
        }
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
