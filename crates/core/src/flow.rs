//! The flow inference: Fig. 3 of the paper plus the Section 5 extensions.
//!
//! A judgement `ρR|β ⊢ e : t; ρ'R|β'` is realised as a method
//! `infer(&env, e) → (Ty, TyEnv)` with the Boolean function β threaded
//! through the engine state (β only ever grows by conjunction, and shrinks
//! by the equivalence-preserving projection of stale flags, so a single
//! mutable β is equivalent to the paper's functional threading).
//!
//! ## Parallel judgements and held roots
//!
//! Rules with several sub-expressions ((APP), (COND), concatenation,
//! `when`) infer each sub-expression from the *same* input environment and
//! reconcile the resulting judgements with one `mgu` over the result types
//! and the point-wise environment bindings, exactly as in the paper. While
//! a sibling judgement is suspended, its flags are not reachable from the
//! current environment, so the engine keeps a stack of *held* flag roots
//! that stale-flag projection must treat as live.
//!
//! ## `when` branches
//!
//! Fig. 8's rule types each branch under `β ∧ ff` (resp. `¬ff`). The
//! engine infers a branch against a snapshot of β and afterwards guards
//! every clause the branch added with the negated guard literal, which is
//! the clausal form of implication from the guard; this is what makes
//! `when` require a general SAT solver.

use rowpoly_boolfun::{Cnf, Flag, FlagAlloc, FlagSet, Lit, Proof, SatResult, UnsatProof};
use rowpoly_lang::{BinOp, Def, Expr, ExprKind, FieldName, Span, Symbol};
use rowpoly_obs as obs;
use rowpoly_obs::{Phase, PhaseClock};
use rowpoly_types::{
    apply_subst_flow, flag_lits, generalize, instantiate, mgu, Binding, Entry, FieldEntry,
    ReplacedFlags, RowTail, Scheme, Subst, Ty, TyEnv, Var, VarAlloc, NO_FLAG,
};

use crate::config::{Compaction, Options, Stats};
use crate::error::{FlagOrigin, Provenance, TypeError, TypeErrorKind};

/// Attribution site for bytes allocated while growing or projecting the
/// β clause set during flow transport (see `rowpoly-obs::mem`).
static BETA_MEM: obs::MemSite = obs::MemSite::new("engine.beta_clauses");

/// Result alias for inference steps.
pub type Infer<T> = Result<T, TypeError>;

/// The flow-inference engine.
///
/// One engine instance corresponds to one inference session: it owns the
/// variable and flag allocators, the global Boolean function β, flag
/// provenance for error reporting, and phase statistics.
pub struct FlowInfer {
    /// Type-variable allocator.
    pub vars: VarAlloc,
    /// Flag allocator.
    pub flags: FlagAlloc,
    /// The Boolean function β describing field existence.
    pub beta: Cnf,
    /// Where each rule-created flag came from.
    pub prov: Provenance,
    /// Phase call counts and structural metrics; the four phase
    /// *durations* inside are dead weight here — [`Self::stats`] fills
    /// them in from `clock`.
    counts: Stats,
    /// Exclusive-time phase clock: each instant is charged to the
    /// innermost open phase, so nested work (a projection inside
    /// `applyS`) lands in exactly one bucket.
    clock: PhaseClock,
    opts: Options,
    /// Flags of suspended sibling judgements (kept live by projection),
    /// one run per [`Self::with_held`] level, stacked.
    held: Vec<Flag>,
    /// Flags that have been dropped from some structure and await
    /// projection once no live structure mentions them.
    pending_dead: DeadPool,
    /// [`Self::compact`]'s keep set, recycled.
    keep: Vec<Flag>,
    /// [`apply_subst_flow`]'s output, recycled.
    replaced: ReplacedFlags,
    /// Set while [`Self::infer_checked`] replays a rejected step: β is
    /// then checked after every rule that asserts a field requirement,
    /// before compaction can resolve the conflict away from its source.
    replaying: bool,
    /// How many `when` branches enclose the current rule. Inside one, β
    /// carries the branch's guard as an assumption, so ⊥ there refutes
    /// only the guard.
    guarded: u32,
    /// The hardest satisfiability class β has reached so far (projection
    /// can simplify formulas back down, so this is sampled before each
    /// projection and each SAT check).
    pub worst_class: rowpoly_boolfun::SatClass,
}

impl FlowInfer {
    /// Creates an engine with the given options.
    pub fn new(opts: Options) -> FlowInfer {
        FlowInfer {
            vars: VarAlloc::new(),
            flags: FlagAlloc::new(),
            beta: Cnf::top(),
            prov: Provenance::default(),
            counts: Stats::default(),
            clock: PhaseClock::new(),
            opts,
            held: Vec::new(),
            pending_dead: DeadPool::default(),
            keep: Vec::new(),
            replaced: ReplacedFlags::default(),
            replaying: false,
            guarded: 0,
            worst_class: rowpoly_boolfun::SatClass::Trivial,
        }
    }

    /// Samples β's current clause class into [`Self::worst_class`] and
    /// returns it.
    fn note_class(&mut self) -> rowpoly_boolfun::SatClass {
        let c = rowpoly_boolfun::classify(&self.beta);
        if c > self.worst_class {
            self.worst_class = c;
        }
        c
    }

    /// A snapshot of the phase statistics. The four phase durations are
    /// taken from the exclusive-time [`PhaseClock`], so their sum never
    /// exceeds the wall time of the run ([`Stats::wall`] is the caller's
    /// to fill — the engine cannot know the session's full extent).
    pub fn stats(&self) -> Stats {
        let mut s = self.counts.clone();
        s.unify = self.clock.total(Phase::Unify);
        s.applys = self.clock.total(Phase::ApplyS);
        s.project = self.clock.total(Phase::Project);
        s.sat = self.clock.total(Phase::Sat);
        s.unify_alloc_bytes = self.clock.alloc_bytes(Phase::Unify);
        s.applys_alloc_bytes = self.clock.alloc_bytes(Phase::ApplyS);
        s.project_alloc_bytes = self.clock.alloc_bytes(Phase::Project);
        s.sat_alloc_bytes = self.clock.alloc_bytes(Phase::Sat);
        s
    }

    /// Whether field flows are tracked (Fig. 9's "w. fields" column).
    pub fn tracking(&self) -> bool {
        self.opts.track_fields
    }

    /// A fresh flag, or `NO_FLAG` when flows are disabled.
    pub(crate) fn flag(&mut self) -> Flag {
        if self.opts.track_fields {
            self.flags.fresh()
        } else {
            NO_FLAG
        }
    }

    /// A fresh flagged type variable.
    fn fresh_var(&mut self) -> Ty {
        let v = self.vars.fresh();
        let f = self.flag();
        Ty::Var(v, f)
    }

    /// `⇑RP(⇓RP(t))` — fresh decoration (identity in skeleton mode).
    fn decorate(&mut self, t: &Ty) -> Ty {
        if self.opts.track_fields {
            t.decorate(&mut self.flags)
        } else {
            t.clone()
        }
    }

    /// Timed `mgu` wrapper mapping unification failures to located errors.
    fn mgu(&mut self, pairs: Vec<(Ty, Ty)>, span: Span) -> Infer<Subst> {
        let _span = obs::span(Phase::Unify.name());
        self.clock.enter(Phase::Unify);
        let r = mgu(pairs, &mut self.vars);
        self.clock.exit();
        self.counts.unify_calls += 1;
        r.map_err(|e| TypeError::new(TypeErrorKind::Unify(e), span))
    }

    /// Timed `applyS` wrapper (plain substitution in skeleton mode).
    ///
    /// Occurrence flags replaced in the κ type are exclusive to this
    /// judgement and projected immediately; flags replaced in environment
    /// bindings may still occur in sibling clones of the environment, so
    /// they join the pending-dead pool and are projected by [`Self::compact`]
    /// once no live structure mentions them.
    fn apply_flow(&mut self, subst: &Subst, kappa: &mut Ty, env: &mut TyEnv) {
        let _span = obs::span(Phase::ApplyS.name());
        self.clock.enter(Phase::ApplyS);
        if self.opts.track_fields {
            let _mem = BETA_MEM.scope();
            let mut replaced = std::mem::take(&mut self.replaced);
            apply_subst_flow(
                subst,
                kappa,
                env,
                &mut self.beta,
                &mut self.flags,
                &mut replaced,
            );
            for (old, news) in replaced.copies() {
                if let Some((span, origin)) = self.prov.get(old).cloned() {
                    for &n in news {
                        self.prov.record(n, span, origin.clone());
                    }
                }
            }
            if self.opts.compaction == Compaction::Aggressive {
                // Both kinds of replaced occurrence flags join the
                // pending pool and are projected in one batch by
                // [`Self::compact`] at the end of the rule. The
                // κ-exclusive flags *could* be projected right here (no
                // sibling shares them), but each immediate call scans
                // all of β to find a literal handful of clauses;
                // batching them with the rule's other deaths costs one
                // scan instead of several.
                self.pending_dead.extend(replaced.kappa.iter().copied());
            } else if !replaced.kappa.is_empty() {
                // Without per-rule compaction there is no later batch to
                // join, so the κ-exclusive flags are projected at once —
                // resolution work, charged to the projection bucket even
                // though it runs inside `applyS`.
                let _span = obs::span(Phase::Project.name());
                self.clock.enter(Phase::Project);
                let dead = &mut replaced.kappa;
                dead.sort_unstable();
                dead.dedup();
                let outcome = self.beta.project_out_sorted(dead);
                self.counts.note_projection(&outcome);
                self.clock.exit();
            }
            self.pending_dead.extend(replaced.env.iter().copied());
            self.replaced = replaced;
        } else {
            *kappa = subst.apply(kappa);
            env.apply_subst(subst);
        }
        self.clock.exit();
        self.counts.applys_calls += 1;
        let live = self.beta.len();
        self.counts.peak_clauses = self.counts.peak_clauses.max(live);
        if obs::enabled() {
            obs::hist_record("beta.clauses.live", live as u64);
            obs::counter_max("beta.clauses.peak", live as u64);
        }
    }

    /// Carries flag provenance across a positional copy: `decorate` and
    /// `instantiate` both re-collect flags in Definition 1 traversal
    /// order, so `old[i]` is the flag that `new[i]` was copied from. A
    /// copy inherits its original's source span and origin, which keeps
    /// multi-step error paths renderable after let-bound intermediates
    /// are instantiated (otherwise every copy is provenance-less and
    /// `Provenance::explain` silently drops those steps).
    fn inherit_provenance(&mut self, old: &[Flag], new: &[Flag]) {
        debug_assert_eq!(old.len(), new.len(), "positional flag copy");
        for (&o, &n) in old.iter().zip(new) {
            if self.prov.get(n).is_some() {
                continue; // a copy that has its own story keeps it
            }
            if let Some((span, origin)) = self.prov.get(o).cloned() {
                self.prov.record(n, span, origin);
            }
        }
    }

    /// Marks the flags of a dropped structure as candidates for
    /// projection. [`Self::compact`] filters out any that are still live.
    fn register_dead_ty(&mut self, t: &Ty) {
        if self.opts.track_fields {
            self.pending_dead.push_ty(t);
        }
    }

    /// Marks the flags of a removed environment entry as candidates for
    /// projection.
    fn register_dead_entry(&mut self, entry: &Entry) {
        if self.opts.track_fields {
            self.pending_dead.extend(entry.flags().iter().copied());
        }
    }

    /// Marks the flags of `dropped`'s local bindings that differ from
    /// `kept`'s view of the same name (bindings equal on both sides share
    /// their flags with the kept environment and stay live).
    fn register_dead_env_diff(&mut self, dropped: &TyEnv, kept: &TyEnv) {
        if !self.opts.track_fields || dropped.same(kept) {
            return;
        }
        for (name, e) in dropped.local_entries() {
            if !kept.entry(name).is_some_and(|k| Entry::same(k, e)) {
                self.pending_dead.extend(e.flags().iter().copied());
            }
        }
    }

    /// Boolean bi-implications between the flag sequences of two
    /// environments (`*ρ1+X ⇔ *ρ2+X`), restricted to bindings that
    /// actually differ — equal bindings share their flags, so their
    /// equations are tautologies.
    fn equate_envs(&mut self, a: &TyEnv, b: &TyEnv) {
        if !self.opts.track_fields || a.same(b) {
            return;
        }
        for (_, ea, eb) in TyEnv::local_diff(a, b) {
            self.beta
                .iff_seq(&flag_lits(ea.binding().ty()), &flag_lits(eb.binding().ty()));
        }
    }

    /// Runs `body` with extra flag roots, which `roots` appends to the
    /// held stack, kept live. Skeleton mode collects no roots.
    fn with_held<R>(
        &mut self,
        roots: impl FnOnce(&mut Vec<Flag>),
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let mark = self.held.len();
        if self.opts.track_fields {
            roots(&mut self.held);
        }
        let r = body(self);
        self.held.truncate(mark);
        r
    }

    /// Runs `body` with β forked to `base`, restoring the current β
    /// afterwards and returning the fork's final β alongside the result.
    ///
    /// The paper's rules with two premises thread *separate* Boolean
    /// functions β1 and β2 (both starting from the incoming β) through the
    /// two sub-judgements and conjoin β1σ ∧ β2σ in the conclusion. This is
    /// not merely stylistic: expansion duplicates every clause mentioning
    /// a replaced occurrence flag, so if the second judgement's `applyS`
    /// ran on top of the first's output it would re-copy the first's
    /// per-column copies, manufacturing spurious cross-position
    /// implications (e.g. tying a field's existence to its record's tail).
    fn with_forked_beta<R>(&mut self, base: Cnf, body: impl FnOnce(&mut Self) -> R) -> (R, Cnf) {
        let saved = std::mem::replace(&mut self.beta, base);
        // Snapshot the pending-dead pool: a flag projected from the fork's
        // β during `body` may still occur in the saved β (or in a sibling
        // fork that merges later), so it must be pending again once the
        // forks are conjoined. Flags both allocated *and* projected inside
        // `body` are genuinely gone — they postdate the saved β — and the
        // union below correctly leaves them out.
        let pool = self.pending_dead.snapshot();
        let r = body(self);
        let fork = std::mem::replace(&mut self.beta, saved);
        self.pending_dead.extend(pool.flags);
        (r, fork)
    }

    /// Conjoins a forked β back into the current one (`β1σ ∧ β2σ`).
    fn merge_beta(&mut self, fork: Cnf) {
        self.beta.conjoin(fork);
    }

    /// Projects the pending-dead flags that are no longer mentioned by
    /// any live structure (the current judgement, the held sibling roots,
    /// or the frozen global layer) out of β. Called at the end of every
    /// structural rule; cost is proportional to the pending pool and the
    /// judgement's *local* size, never to the whole program.
    fn compact(&mut self, env: &TyEnv, ty: &Ty) {
        if !self.opts.track_fields
            || self.opts.compaction != Compaction::Aggressive
            || self.pending_dead.is_empty()
        {
            return;
        }
        self.note_class();
        let _span = obs::span(Phase::Project.name());
        self.clock.enter(Phase::Project);
        // The keep set lives for one membership sweep over the (small)
        // pending pool: a sorted vector beats hashing every flag in.
        let mut keep = std::mem::take(&mut self.keep);
        keep.clear();
        ty.collect_flags(&mut keep);
        keep.extend(env.local_flags());
        keep.extend_from_slice(&self.held);
        keep.sort_unstable();
        keep.dedup();
        let global = env.global_flags();
        // Flags above the global layer's largest are fresh to this
        // definition: no need to probe the layer for them.
        let global_max = global.last().copied();
        // Unmentioned flags cost the engine nothing (they never enter the
        // clause database), so there is no need to materialise β's flag
        // set here.
        // Ascending because the pool is kept sorted, so the slice is
        // ready for `project_out_sorted` as-is.
        let dead: Vec<Flag> = self
            .pending_dead
            .sorted()
            .iter()
            .copied()
            .filter(|f| {
                keep.binary_search(f).is_err()
                    && !(global_max.is_some_and(|max| *f <= max) && global.contains(f))
            })
            .collect();
        self.keep = keep;
        if !dead.is_empty() {
            let outcome = self.beta.project_out_sorted(&dead);
            self.counts.note_projection(&outcome);
            // Projected flags leave the pool: this fork's β no longer
            // mentions them, so re-filtering them at every subsequent
            // rule is pure overhead. [`Self::with_forked_beta`] restores
            // them where a sibling β could still hold their clauses.
            self.pending_dead.remove_sorted(&dead);
        }
        self.clock.exit();
    }

    /// Finishes a top-level definition: projects β onto the live flags,
    /// moves the clauses over the scheme's flags into the scheme's stored
    /// flow (replaced in the working β by their projection onto the
    /// remaining flags, so no information about still-live flags is
    /// lost), and clears the pending-dead pool. This keeps the working β
    /// proportional to one definition instead of the whole program — the
    /// paper's per-function flow projection.
    ///
    /// Call *before* inserting the scheme into the environment.
    pub fn finish_def(&mut self, scheme: &mut Scheme, env: &TyEnv) {
        if !self.opts.track_fields {
            return;
        }
        self.note_class();
        let _span = obs::span(Phase::Project.name());
        self.clock.enter(Phase::Project);
        let scheme_flags: FlagSet = scheme.ty.flags().into_iter().collect();
        let locals: std::collections::HashSet<Flag> = env.local_flags().collect();
        let outcome = {
            let global = env.global_flags();
            self.beta.project_unless(|f| {
                global.contains(&f) || locals.contains(&f) || scheme_flags.contains(&f)
            })
        };
        self.counts.note_projection(&outcome);
        let (flow, rest) = self.beta.split_mentioning(&scheme_flags);
        // The working β keeps what the flow clauses say about *other*
        // (still-live) flags.
        let mut residue = flow.clone();
        let outcome = residue.project_unless(|f| !scheme_flags.contains(&f));
        self.counts.note_projection(&outcome);
        self.beta = rest;
        self.beta.and(&residue);
        self.beta.normalize();
        scheme.flow = flow;
        self.pending_dead.clear();
        self.clock.exit();
    }

    /// Closes a definition's published interface (see [`crate::unit`]):
    /// projects the scheme's stored flow onto the flags of its own
    /// type, timed as projection.
    pub fn close_scheme(&mut self, scheme: &mut Scheme) {
        if !self.opts.track_fields {
            return;
        }
        let _span = obs::span(Phase::Project.name());
        self.clock.enter(Phase::Project);
        let keep: FlagSet = scheme.ty.flags().into_iter().collect();
        let outcome = scheme.flow.project_unless(|f| keep.contains(&f));
        scheme.flow.normalize();
        self.counts.note_projection(&outcome);
        self.clock.exit();
    }

    /// Checks one top-level definition and folds it into `env`: infers
    /// and SAT-checks it (see [`Self::infer_checked`]), moves its flow
    /// into the scheme, binds the scheme and freezes. The group step
    /// takes this per member, so `env` is the sole owner of its global
    /// layer at the freeze and the layer is extended in place. On error
    /// `env` is left as it was. Returns the bound scheme (its flow not
    /// yet closed).
    pub(crate) fn fold_def(&mut self, env: &mut TyEnv, def: &Def) -> Infer<Scheme> {
        let (mut scheme, env_after) = self.infer_checked(def.span, |s| {
            s.infer_def(env, def.name, &def.body, def.span)
        })?;
        // Move the definition's flow into its scheme, keeping the
        // working β proportional to one definition.
        self.finish_def(&mut scheme, &env_after);
        *env = env_after;
        env.insert(def.name, Binding::Poly(scheme.clone()));
        env.freeze();
        Ok(scheme)
    }

    /// Satisfiability check; maps a conflict to a located, explained
    /// error.
    pub fn check_sat(&mut self, span: Span, field: Option<FieldName>) -> Infer<()> {
        if !self.opts.track_fields {
            return Ok(());
        }
        let class = self.note_class();
        let _span = obs::span(Phase::Sat.name());
        self.clock.enter(Phase::Sat);
        let budget = rowpoly_boolfun::SatBudget {
            max_steps: self.opts.sat_budget,
            cancel: self.opts.cancel.clone(),
        };
        // One cold solve with the engine of the class just sampled. Only
        // the verdict bit is used on the hot path.
        let verdict = rowpoly_boolfun::sat::solve_as(&self.beta, class, &budget);
        self.clock.exit();
        self.counts.sat_calls += 1;
        self.counts.note_sat_class(class);
        let sat = match verdict {
            Ok(res) => res.is_sat(),
            Err(stop) => {
                if obs::enabled() {
                    obs::counter_add("sat.budget_stops", 1);
                }
                return Err(TypeError::new(
                    TypeErrorKind::SatGaveUp {
                        steps: stop.steps(),
                    },
                    span,
                ));
            }
        };
        if sat {
            return Ok(());
        }
        // Unsatisfiable: the error path is rare, so a second, proved
        // solve gives both the conflict chain and the proof. The checked
        // unsat core names the β clauses the verdict rests on, and
        // narrowing the chain to the flags of the deletion-minimized core
        // keeps the diagnostic to the minimal path.
        let solved = rowpoly_boolfun::sat::solve_proved(
            &self.beta,
            &rowpoly_boolfun::SatBudget::unlimited(),
        );
        let Ok((SatResult::Unsat(chain), Proof::Unsat(proof))) = solved else {
            unreachable!("a proved solve of β agrees with the unsat verdict");
        };
        let (proof_info, chain) = self.prove_conflict(chain, &proof);
        // Identify the offending field from the conflict chain.
        let field = field.or_else(|| {
            chain.iter().find_map(|l| match self.prov.get(l.flag()) {
                Some((_, FlagOrigin::FieldSelected(n))) => Some(*n),
                _ => None,
            })
        });
        let mut err = TypeError::new(TypeErrorKind::FieldMissing { field }, span);
        err.notes = self.prov.explain(&chain);
        // Present the path in source order: for straight-line record
        // pipelines that reads as the paper's Observation 1 narrative
        // (created → added → removed → accessed).
        err.notes.sort_by_key(|(span, _)| (span.start, span.end));
        err.notes.dedup();
        err.proof = Some(proof_info);
        Err(err)
    }

    /// Minimizes the unsat core of `p`, a refutation of β, and filters
    /// the solver's conflict chain down to the flags the minimized core
    /// mentions (falling back to the full chain if the filter would erase
    /// it entirely — e.g. when every chain flag is an expansion copy
    /// outside the core's clauses).
    fn prove_conflict(
        &self,
        chain: Vec<Lit>,
        p: &UnsatProof,
    ) -> (Box<crate::error::ProofInfo>, Vec<Lit>) {
        let minimized = rowpoly_boolfun::minimize_core(&self.beta, &p.core);
        let core_flags: std::collections::HashSet<Flag> = minimized
            .iter()
            .flat_map(|&i| self.beta.clauses()[i].lits().iter().map(|l| l.flag()))
            .collect();
        let filtered: Vec<Lit> = chain
            .iter()
            .copied()
            .filter(|l| core_flags.contains(&l.flag()))
            .collect();
        let mut chain = if filtered.is_empty() { chain } else { filtered };
        // The solver's chain is one refutation path and often touches
        // only the final conflict; every flag of the minimized core is
        // part of the failure by construction, so append the rest (in
        // allocation order ≈ source order) for the step-by-step notes.
        let mentioned: std::collections::HashSet<Flag> = chain.iter().map(|l| l.flag()).collect();
        let mut extra: Vec<Flag> = core_flags
            .iter()
            .copied()
            .filter(|f| !mentioned.contains(f))
            .collect();
        extra.sort_unstable();
        chain.extend(extra.into_iter().map(Lit::pos));
        let info = crate::error::ProofInfo {
            sat_class: rowpoly_boolfun::classify(&self.beta).name(),
            beta_clauses: self.beta.len(),
            core_clauses: p.core.clone(),
            minimized_core_clauses: minimized,
            derivation_steps: p.steps.len(),
        };
        (Box::new(info), chain)
    }

    /// Runs `step`, an inference from the current state, and checks β
    /// once at `span`. A `FieldMissing` rejection is replayed once from
    /// the same β with a check after every field-requirement rule, which
    /// catches the conflict at the access before compaction resolves it
    /// to a bare empty clause. The replay's `FieldMissing` error is
    /// returned if it finds one, the first error otherwise. Accepted
    /// steps, unification errors and SAT give-ups run once.
    pub(crate) fn infer_checked<R>(
        &mut self,
        span: Span,
        mut step: impl FnMut(&mut Self) -> Infer<R>,
    ) -> Infer<R> {
        let beta = self.beta.clone();
        let pending = self.pending_dead.clone();
        let mut run = |s: &mut Self| -> Infer<R> {
            let r = step(s)?;
            s.check_sat(span, None)?;
            Ok(r)
        };
        let first = match run(self) {
            Err(e) if matches!(e.kind, TypeErrorKind::FieldMissing { .. }) => e,
            result => return result,
        };
        self.beta = beta;
        self.pending_dead = pending;
        self.replaying = true;
        let replay = run(self);
        self.replaying = false;
        match replay {
            Err(e) if matches!(e.kind, TypeErrorKind::FieldMissing { .. }) => Err(e),
            _ => Err(first),
        }
    }

    fn check_eager(&mut self, span: Span, field: Option<FieldName>) -> Infer<()> {
        if self.replaying {
            self.check_sat(span, field)
        } else {
            Ok(())
        }
    }

    /// Point-wise environment equations for a judgement meet, honouring
    /// the version-tag shortcut unless disabled for ablation.
    fn env_pairs(&mut self, a: &TyEnv, b: &TyEnv) -> Vec<(Ty, Ty)> {
        if self.opts.env_versions && a.same(b) {
            self.counts.env_meet_hits += 1;
        } else {
            self.counts.env_meet_misses += 1;
        }
        env_pairs_opt(a, b, self.opts.env_versions)
    }

    /// Infers `e` under `env`: the judgement `ρ|β ⊢ e : t; ρ'|β'`.
    pub fn infer(&mut self, env: &TyEnv, e: &Expr) -> Infer<(Ty, TyEnv)> {
        let judgement = self.infer_rule(env, e)?;
        // Compaction's unsat exit collapses β to the single empty clause,
        // which no later rule can satisfy again: stop, and leave locating
        // the access to the replay of `infer_checked`. The replay itself
        // runs on, as its per-rule checks report the conflict. Inside a
        // `when` branch ⊥ refutes only the branch's guard.
        let bottom = matches!(self.beta.clauses(), [c] if c.is_empty());
        if bottom && !self.replaying && self.guarded == 0 {
            return Err(TypeError::new(
                TypeErrorKind::FieldMissing { field: None },
                e.span,
            ));
        }
        Ok(judgement)
    }

    /// Dispatches `e` to its inference rule.
    fn infer_rule(&mut self, env: &TyEnv, e: &Expr) -> Infer<(Ty, TyEnv)> {
        match &e.kind {
            ExprKind::Var(x) => self.rule_var(env, *x, e.span),
            ExprKind::Int(_) => Ok((Ty::Int, env.clone())),
            ExprKind::Str(_) => Ok((Ty::Str, env.clone())),
            ExprKind::Lam(x, body) => self.rule_lam(env, *x, body, e.span),
            ExprKind::App(f, a) => self.rule_app(env, f, a, e.span),
            ExprKind::Let { name, bound, body } => self.rule_let(env, *name, bound, body, e.span),
            ExprKind::If(c, t, f) => self.rule_cond(env, c, t, f, e.span),
            ExprKind::Empty => self.rule_empty(env, e.span),
            ExprKind::Select(n) => self.rule_select(env, *n, e.span),
            ExprKind::Update(n, v) => self.rule_update(env, *n, v, e.span),
            ExprKind::Remove(n) => self.rule_remove(env, *n, e.span),
            ExprKind::Rename(m, n) => self.rule_rename(env, *m, *n, e.span),
            ExprKind::Concat(a, b) => self.rule_concat(env, a, b, false, e.span),
            ExprKind::SymConcat(a, b) => self.rule_concat(env, a, b, true, e.span),
            ExprKind::When {
                field,
                subject,
                then_branch,
                else_branch,
            } => self.rule_when(env, *field, *subject, then_branch, else_branch, e.span),
            ExprKind::List(items) => self.rule_list(env, items, e.span),
            ExprKind::BinOp(op, a, b) => self.rule_binop(env, *op, a, b, e.span),
        }
    }

    /// (VAR) and (VAR-LET).
    fn rule_var(&mut self, env: &TyEnv, x: Symbol, span: Span) -> Infer<(Ty, TyEnv)> {
        let Some(entry) = env.entry(x) else {
            return Err(TypeError::new(TypeErrorKind::Unbound(x), span));
        };
        // `entry` borrows from `env`, not from the engine, so neither
        // rule needs to copy it (a scheme carries its whole stored flow).
        match entry.binding() {
            Binding::Mono(t) => {
                // tx = ⇑RP(⇓RP(ρ(x))) with *tx+ ⇒ *ρ(x)+.
                let tx = self.decorate(t);
                if self.opts.track_fields {
                    self.beta.imply_seq(&flag_lits(&tx), &flag_lits(t));
                    self.inherit_provenance(entry.flags(), &tx.flags());
                }
                Ok((tx, env.clone()))
            }
            Binding::Poly(scheme) => {
                let t = if self.opts.track_fields {
                    let inst = instantiate(scheme, &mut self.vars, &mut self.flags, &mut self.beta);
                    self.inherit_provenance(entry.flags(), &inst.flags());
                    inst
                } else {
                    // Skeleton instantiation: rename quantified variables.
                    let renaming: Vec<(Var, Var)> = scheme
                        .vars
                        .iter()
                        .map(|&v| (v, self.vars.fresh()))
                        .collect();
                    Subst::renaming(renaming).apply(&scheme.ty)
                };
                Ok((t, env.clone()))
            }
        }
    }

    /// (LAM).
    fn rule_lam(&mut self, env: &TyEnv, x: Symbol, body: &Expr, _span: Span) -> Infer<(Ty, TyEnv)> {
        let a = self.fresh_var();
        let mut inner = env.clone();
        // Save only a *local* shadowed binding: removing the binder later
        // already re-reveals a global one, and re-inserting it locally
        // would just inflate the local layer.
        let shadowed = inner.local_entry(x).cloned();
        inner.insert(x, Binding::Mono(a));
        let (t2, mut env1) = self.infer(&inner, body)?;
        let binder = env1.remove(x).expect("lambda binder stays bound");
        let tx = Entry::into_binding(binder).into_ty();
        if let Some(prev) = shadowed {
            env1.insert_entry(x, prev);
        }
        let t = Ty::fun(tx, t2);
        self.compact(&env1, &t);
        Ok((t, env1))
    }

    /// (APP).
    fn rule_app(&mut self, env: &TyEnv, f: &Expr, a: &Expr, span: Span) -> Infer<(Ty, TyEnv)> {
        // The input environment's flags stay live while e1 runs (e2 will
        // be inferred from a clone of it), and e1's judgement stays live
        // while e2 runs. β is forked: e1 evolves the incoming β into β1,
        // e2 starts again from the incoming β (yielding β2), and each
        // judgement's applyS expands its own fork before the conjunction.
        let base = self.beta.clone();
        let (t1, mut env1) = self.with_held(locals(env), |s| s.infer(env, f))?;
        let (r2, beta2) = self.with_forked_beta(base, |s| {
            s.with_held(judgement(&t1, &env1), |s| s.infer(env, a))
        });
        let (t2, mut env2) = r2?;
        let r = self.fresh_var();
        let t2r = Ty::fun(t2, r);
        let mut pairs = vec![(t1.clone(), t2r.clone())];
        pairs.extend(self.env_pairs(&env1, &env2));
        let subst = self.mgu(pairs, span)?;
        let mut tf = t1;
        self.with_held(judgement(&t2r, &env2), |s| {
            s.apply_flow(&subst, &mut tf, &mut env1);
        });
        let mut tar = t2r;
        let ((), beta2s) = self.with_forked_beta(beta2, |s| {
            s.with_held(judgement(&tf, &env1), |s| {
                s.apply_flow(&subst, &mut tar, &mut env2);
            })
        });
        self.merge_beta(beta2s);
        self.equate_envs(&env1, &env2);
        if self.opts.track_fields {
            self.beta.iff_seq(&flag_lits(&tar), &flag_lits(&tf));
            // The iff above makes the two flag sequences interchangeable;
            // only `tar`'s result half survives this rule, so it inherits
            // the callee-side story (e.g. "removed here" on a `%n` pipe).
            self.inherit_provenance(&tf.flags(), &tar.flags());
        }
        let tr = match tar {
            Ty::Fun(ta, tr) => {
                self.register_dead_ty(&ta);
                *tr
            }
            other => unreachable!("σ unified the callee with a function, got {other:?}"),
        };
        self.register_dead_ty(&tf);
        self.register_dead_env_diff(&env2, &env1);
        // Check before compacting: projection would resolve a fresh
        // conflict down to the bare empty clause, leaving the eager
        // check nothing to trace the failure path from.
        self.check_eager(span, None)?;
        self.compact(&env1, &tr);
        Ok((tr, env1))
    }

    /// (LETREC) — with a single-pass shortcut for non-recursive bindings.
    fn rule_let(
        &mut self,
        env: &TyEnv,
        name: Symbol,
        bound: &Expr,
        body: &Expr,
        span: Span,
    ) -> Infer<(Ty, TyEnv)> {
        let shadowed = env.local_entry(name).cloned();
        let (scheme, mut env_after) = self.infer_def(env, name, bound, span)?;
        env_after.insert(name, Binding::Poly(scheme));
        let (t, mut env_body) = self.infer(&env_after, body)?;
        if let Some(e) = env_body.remove(name) {
            self.register_dead_entry(&e);
        }
        if let Some(prev) = shadowed {
            env_body.insert_entry(name, prev);
        }
        self.compact(&env_body, &t);
        Ok((t, env_body))
    }

    /// Infers the scheme of one (possibly recursive) binding — the shared
    /// core of (LETREC) and of top-level `def` processing. Returns the
    /// generalized scheme and the environment after inferring the bound
    /// expression (without `name` bound).
    pub fn infer_def(
        &mut self,
        env: &TyEnv,
        name: Symbol,
        bound: &Expr,
        span: Span,
    ) -> Infer<(Scheme, TyEnv)> {
        if !bound.mentions(name) {
            let (tb, envb) = self.infer(env, bound)?;
            Ok((generalize(&envb, &tb), envb))
        } else {
            let mut cur_env = env.clone();
            let mut cur_ty = self.fresh_var();
            let mut converged = false;
            for _ in 0..self.opts.max_letrec_iters {
                let scheme = generalize(&cur_env, &cur_ty);
                let mut env_x = cur_env.clone();
                env_x.insert(name, Binding::Poly(scheme));
                let (t_next, mut env_next) = self.infer(&env_x, bound)?;
                let done = alpha_eq_skeleton(&t_next, &cur_ty);
                if let Some(e) = env_next.remove(name) {
                    // The iteration's scheme (sharing cur_ty's flags) dies.
                    self.register_dead_entry(&e);
                }
                cur_env = env_next;
                cur_ty = t_next;
                self.compact(&cur_env, &cur_ty);
                if done {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(TypeError::new(TypeErrorKind::RecursionDiverged(name), span));
            }
            Ok((generalize(&cur_env, &cur_ty), cur_env))
        }
    }

    /// (COND).
    fn rule_cond(
        &mut self,
        env: &TyEnv,
        cond: &Expr,
        then_e: &Expr,
        else_e: &Expr,
        span: Span,
    ) -> Infer<(Ty, TyEnv)> {
        let (ts, mut envc) = self.infer(env, cond)?;
        let subst = self.mgu(vec![(ts.clone(), Ty::Int)], cond.span)?;
        let mut ts = ts;
        self.apply_flow(&subst, &mut ts, &mut envc);
        // The condition's type is Int; its judgement value is dropped.
        self.register_dead_ty(&ts);
        self.compact(&envc, &Ty::Int);

        let base = self.beta.clone();
        let (tt, mut envt) = self.with_held(locals(&envc), |s| s.infer(&envc, then_e))?;
        let (re, beta2) = self.with_forked_beta(base, |s| {
            s.with_held(judgement(&tt, &envt), |s| s.infer(&envc, else_e))
        });
        let (te, mut enve) = re?;
        let mut pairs = vec![(tt.clone(), te.clone())];
        pairs.extend(self.env_pairs(&envt, &enve));
        let subst = self.mgu(pairs, span)?;
        let mut tts = tt;
        self.with_held(judgement(&te, &enve), |s| {
            s.apply_flow(&subst, &mut tts, &mut envt);
        });
        let mut tes = te;
        let ((), beta2s) = self.with_forked_beta(beta2, |s| {
            s.with_held(judgement(&tts, &envt), |s| {
                s.apply_flow(&subst, &mut tes, &mut enve);
            })
        });
        self.merge_beta(beta2s);
        let tr = self.decorate(&tts);
        self.equate_envs(&envt, &enve);
        if self.opts.track_fields {
            self.beta.imply_seq(&flag_lits(&tr), &flag_lits(&tts));
            self.beta.imply_seq(&flag_lits(&tr), &flag_lits(&tes));
        }
        self.register_dead_ty(&tts);
        self.register_dead_ty(&tes);
        self.register_dead_env_diff(&enve, &envt);
        self.compact(&envt, &tr);
        Ok((tr, envt))
    }

    /// (REC-EMPTY).
    fn rule_empty(&mut self, env: &TyEnv, span: Span) -> Infer<(Ty, TyEnv)> {
        let a = self.vars.fresh();
        let fa = self.flag();
        let t = Ty::record(vec![], RowTail::Var(a, fa));
        if self.opts.track_fields {
            self.beta.assert_lit(Lit::neg(fa));
            self.prov.record(fa, span, FlagOrigin::EmptyRecord);
        }
        Ok((t, env.clone()))
    }

    /// (REC-SELECT).
    fn rule_select(&mut self, env: &TyEnv, n: FieldName, span: Span) -> Infer<(Ty, TyEnv)> {
        let a = self.vars.fresh();
        let b = self.vars.fresh();
        let (f_n, f_a, f_a2, f_b) = (self.flag(), self.flag(), self.flag(), self.flag());
        let record = Ty::record(
            vec![FieldEntry {
                name: n,
                flag: f_n,
                ty: Ty::Var(a, f_a),
            }],
            RowTail::Var(b, f_b),
        );
        let t = Ty::fun(record, Ty::Var(a, f_a2));
        if self.opts.track_fields {
            self.beta.assert_lit(Lit::pos(f_n));
            self.beta.iff(Lit::pos(f_a), Lit::pos(f_a2));
            self.prov.record(f_n, span, FlagOrigin::FieldSelected(n));
        }
        self.check_eager(span, Some(n))?;
        Ok((t, env.clone()))
    }

    /// (REC-UPDATE).
    fn rule_update(
        &mut self,
        env: &TyEnv,
        n: FieldName,
        value: &Expr,
        span: Span,
    ) -> Infer<(Ty, TyEnv)> {
        let (tv, env1) = self.infer(env, value)?;
        let a = self.vars.fresh();
        let b = self.vars.fresh();
        let (f_n, f_n2, f_a, f_b, f_b2) = (
            self.flag(),
            self.flag(),
            self.flag(),
            self.flag(),
            self.flag(),
        );
        let input = Ty::record(
            vec![FieldEntry {
                name: n,
                flag: f_n,
                ty: Ty::Var(a, f_a),
            }],
            RowTail::Var(b, f_b),
        );
        let output = Ty::record(
            vec![FieldEntry {
                name: n,
                flag: f_n2,
                ty: tv,
            }],
            RowTail::Var(b, f_b2),
        );
        if self.opts.track_fields {
            // Deviation from the printed (REC-UPDATE), which leaves f'N
            // unrestricted: the paper's own derivation (T⟦@N=e⟧ in Fig. 6
            // always adds the field; Fig. 7's `model` therefore contains
            // f'N in every output) makes the backward-complete rule
            // *assert* the output flag. Conditional joins still work —
            // (COND) relates branches by implications, not equations —
            // and the assertion is what lets symmetric concatenation and
            // rename-target checks see updated fields. See DESIGN.md.
            self.beta.assert_lit(Lit::pos(f_n2));
            self.beta.iff(Lit::pos(f_b), Lit::pos(f_b2));
            self.prov.record(f_n2, span, FlagOrigin::FieldUpdated(n));
        }
        Ok((Ty::fun(input, output), env1))
    }

    /// Field removal `%N` (Section 5: expressible with two-variable Horn
    /// clauses).
    fn rule_remove(&mut self, env: &TyEnv, n: FieldName, span: Span) -> Infer<(Ty, TyEnv)> {
        let a = self.vars.fresh();
        let b = self.vars.fresh();
        let c = self.vars.fresh();
        let (f_n, f_n2, f_a, f_c, f_b, f_b2) = (
            self.flag(),
            self.flag(),
            self.flag(),
            self.flag(),
            self.flag(),
            self.flag(),
        );
        let input = Ty::record(
            vec![FieldEntry {
                name: n,
                flag: f_n,
                ty: Ty::Var(a, f_a),
            }],
            RowTail::Var(b, f_b),
        );
        let output = Ty::record(
            vec![FieldEntry {
                name: n,
                flag: f_n2,
                ty: Ty::Var(c, f_c),
            }],
            RowTail::Var(b, f_b2),
        );
        if self.opts.track_fields {
            self.beta.assert_lit(Lit::neg(f_n2));
            self.beta.iff(Lit::pos(f_b), Lit::pos(f_b2));
            self.prov.record(f_n2, span, FlagOrigin::FieldRemoved(n));
        }
        Ok((Ty::fun(input, output), env.clone()))
    }

    /// Field renaming `^{M -> N}` (Section 5). Requires the target field
    /// to be absent in the input.
    fn rule_rename(
        &mut self,
        env: &TyEnv,
        m: FieldName,
        n: FieldName,
        span: Span,
    ) -> Infer<(Ty, TyEnv)> {
        if m == n {
            // Degenerate self-rename: the identity on records with field m.
            let a = self.vars.fresh();
            let b = self.vars.fresh();
            let (f_m, f_m2, f_a, f_a2, f_b, f_b2) = (
                self.flag(),
                self.flag(),
                self.flag(),
                self.flag(),
                self.flag(),
                self.flag(),
            );
            let input = Ty::record(
                vec![FieldEntry {
                    name: m,
                    flag: f_m,
                    ty: Ty::Var(a, f_a),
                }],
                RowTail::Var(b, f_b),
            );
            let output = Ty::record(
                vec![FieldEntry {
                    name: m,
                    flag: f_m2,
                    ty: Ty::Var(a, f_a2),
                }],
                RowTail::Var(b, f_b2),
            );
            if self.opts.track_fields {
                self.beta.iff(Lit::pos(f_m), Lit::pos(f_m2));
                self.beta.iff(Lit::pos(f_a), Lit::pos(f_a2));
                self.beta.iff(Lit::pos(f_b), Lit::pos(f_b2));
            }
            return Ok((Ty::fun(input, output), env.clone()));
        }
        let a = self.vars.fresh();
        let b = self.vars.fresh();
        let c = self.vars.fresh();
        let d = self.vars.fresh();
        let (f_m, f_m2, f_n, f_n2, f_a, f_a2, f_c, f_d, f_b, f_b2) = (
            self.flag(),
            self.flag(),
            self.flag(),
            self.flag(),
            self.flag(),
            self.flag(),
            self.flag(),
            self.flag(),
            self.flag(),
            self.flag(),
        );
        let input = Ty::record(
            vec![
                FieldEntry {
                    name: m,
                    flag: f_m,
                    ty: Ty::Var(a, f_a),
                },
                FieldEntry {
                    name: n,
                    flag: f_n,
                    ty: Ty::Var(c, f_c),
                },
            ],
            RowTail::Var(b, f_b),
        );
        let output = Ty::record(
            vec![
                FieldEntry {
                    name: m,
                    flag: f_m2,
                    ty: Ty::Var(d, f_d),
                },
                FieldEntry {
                    name: n,
                    flag: f_n2,
                    ty: Ty::Var(a, f_a2),
                },
            ],
            RowTail::Var(b, f_b2),
        );
        if self.opts.track_fields {
            // Target must be absent on input; source moves to target.
            self.beta.assert_lit(Lit::neg(f_n));
            self.beta.assert_lit(Lit::neg(f_m2));
            self.beta.iff(Lit::pos(f_n2), Lit::pos(f_m));
            self.beta.iff(Lit::pos(f_a2), Lit::pos(f_a));
            self.beta.iff(Lit::pos(f_b), Lit::pos(f_b2));
            self.prov.record(f_n, span, FlagOrigin::RenameTarget(n));
            self.prov.record(f_m2, span, FlagOrigin::FieldRemoved(m));
        }
        self.check_eager(span, Some(n))?;
        Ok((Ty::fun(input, output), env.clone()))
    }

    /// Record concatenation `e1 @ e2` (asymmetric) and `e1 @@ e2`
    /// (symmetric). Section 5: the asymmetric flow `fr ↔ f1 ∨ f2` stays
    /// within (dual-)Horn clauses; the symmetric mutual exclusion
    /// `¬(f1 ∧ f2)` on the row-level flags pushes the formula outside the
    /// Horn fragment and requires a general SAT solver.
    fn rule_concat(
        &mut self,
        env: &TyEnv,
        e1: &Expr,
        e2: &Expr,
        symmetric: bool,
        span: Span,
    ) -> Infer<(Ty, TyEnv)> {
        let base = self.beta.clone();
        let (t1, mut env1) = self.with_held(locals(env), |s| s.infer(env, e1))?;
        let (r2, beta2) = self.with_forked_beta(base, |s| {
            s.with_held(judgement(&t1, &env1), |s| s.infer(env, e2))
        });
        let (t2, mut env2) = r2?;
        // Force both operands onto a common record skeleton.
        let c = self.vars.fresh();
        let fresh_rec = Ty::record(vec![], RowTail::Var(c, self.flag()));
        let mut pairs = vec![(t1.clone(), t2.clone()), (t1.clone(), fresh_rec)];
        pairs.extend(self.env_pairs(&env1, &env2));
        let subst = self.mgu(pairs, span)?;
        let mut t1s = t1;
        self.with_held(judgement(&t2, &env2), |s| {
            s.apply_flow(&subst, &mut t1s, &mut env1);
        });
        let mut t2s = t2;
        let ((), beta2s) = self.with_forked_beta(beta2, |s| {
            s.with_held(judgement(&t1s, &env1), |s| {
                s.apply_flow(&subst, &mut t2s, &mut env2);
            })
        });
        self.merge_beta(beta2s);
        let tr = self.decorate(&t1s);
        self.equate_envs(&env1, &env2);
        if self.opts.track_fields {
            let s1 = flag_lits(&t1s);
            let s2 = flag_lits(&t2s);
            let sr = flag_lits(&tr);
            debug_assert!(s1.len() == s2.len() && s1.len() == sr.len());
            for j in 0..sr.len() {
                // fr ↔ f1 ∨ f2, position-wise with polarity.
                self.beta.add_lits(vec![sr[j].negate(), s1[j], s2[j]]);
                self.beta.imply(s1[j], sr[j]);
                self.beta.imply(s2[j], sr[j]);
            }
            if symmetric {
                // Mutual exclusion on the record's own (row-level) flags:
                // by Definition 1 these are the first `nfields (+ tail)`
                // entries of the sequence.
                let row_positions = match &t1s {
                    Ty::Record(row) => {
                        row.fields.len() + matches!(row.tail, RowTail::Var(..)) as usize
                    }
                    other => unreachable!("σ forced a record, got {other:?}"),
                };
                for j in 0..row_positions {
                    self.beta.add_lits(vec![s1[j].negate(), s2[j].negate()]);
                    self.prov.record(s1[j].flag(), span, FlagOrigin::SymConcat);
                }
            }
        }
        self.register_dead_ty(&t1s);
        self.register_dead_ty(&t2s);
        self.register_dead_env_diff(&env2, &env1);
        // Check before compacting (see `rule_app`).
        self.check_eager(span, None)?;
        self.compact(&env1, &tr);
        Ok((tr, env1))
    }

    /// `when N in x then e1 else e2` (Fig. 8, first rule).
    fn rule_when(
        &mut self,
        env: &TyEnv,
        field: FieldName,
        subject: Symbol,
        then_e: &Expr,
        else_e: &Expr,
        span: Span,
    ) -> Infer<(Ty, TyEnv)> {
        // ρ|β ⊢ x : {N.ff : tf, a.fa}; ρs|βs — the ordinary (VAR) rule
        // followed by unification with an open record containing N.
        let subject_expr = Expr::new(ExprKind::Var(subject), span);
        let (tx, mut envs) = self.infer(env, &subject_expr)?;
        let c = self.vars.fresh();
        let a = self.vars.fresh();
        let pat = Ty::record(
            vec![FieldEntry {
                name: field,
                flag: self.flag(),
                ty: Ty::Var(c, self.flag()),
            }],
            RowTail::Var(a, self.flag()),
        );
        let subst = self.mgu(vec![(tx.clone(), pat)], span)?;
        let mut txs = tx;
        self.apply_flow(&subst, &mut txs, &mut envs);
        let ff = match &txs {
            Ty::Record(row) => row.field(field).expect("pattern field").flag,
            other => unreachable!("σ forced a record, got {other:?}"),
        };
        if self.opts.track_fields {
            self.prov.record(ff, span, FlagOrigin::WhenGuard(field));
        }

        // Branches under β ∧ ff and β ∧ ¬ff respectively, their added
        // clauses guarded by the (negated) guard. `infer_guarded` restores
        // β on return, so both branches start from the same βs and their
        // constraint sets come back as guarded clause lists.
        let tx_flags = txs.flags();
        let (tt, mut envt, then_guarded) = self.with_held(judgement(&txs, &envs), |s| {
            s.infer_guarded(&envs, then_e, Lit::pos(ff))
        })?;
        let (te, mut enve, else_guarded) = self.with_held(
            |held: &mut Vec<Flag>| {
                judgement(&txs, &envs)(held);
                judgement(&tt, &envt)(held);
            },
            |s| s.infer_guarded(&envs, else_e, Lit::neg(ff)),
        )?;

        let mut pairs = vec![(tt.clone(), te.clone())];
        pairs.extend(self.env_pairs(&envt, &enve));
        let subst = self.mgu(pairs, span)?;
        // Each branch's applyS must expand over βs ∧ (its own guarded
        // clauses): the branch flows live in the guarded set, and the
        // expansion copies must see them (the copies keep their guard
        // literal, preserving the conditional reading).
        let base = self.beta.clone();
        for lits in then_guarded {
            self.beta.add_lits(lits);
        }
        let mut tts = tt;
        self.with_held(
            |held: &mut Vec<Flag>| {
                held.extend_from_slice(&tx_flags);
                judgement(&te, &enve)(held);
            },
            |s| s.apply_flow(&subst, &mut tts, &mut envt),
        );
        let mut beta_else = base;
        for lits in else_guarded {
            if let Some(c) = rowpoly_boolfun::Clause::new(lits) {
                beta_else.add_clause(c);
            }
        }
        let mut tes = te;
        let ((), beta_else_s) = self.with_forked_beta(beta_else, |s| {
            s.with_held(
                |held: &mut Vec<Flag>| {
                    held.extend_from_slice(&tx_flags);
                    judgement(&tts, &envt)(held);
                },
                |s| s.apply_flow(&subst, &mut tes, &mut enve),
            )
        });
        self.merge_beta(beta_else_s);
        let tr = self.decorate(&tts);
        self.equate_envs(&envt, &enve);
        if self.opts.track_fields {
            // ff → (*tr+ ⇒ *tσt+) and ¬ff → (*tr+ ⇒ *tσe+).
            let sr = flag_lits(&tr);
            let st = flag_lits(&tts);
            let se = flag_lits(&tes);
            for j in 0..sr.len() {
                self.beta
                    .add_lits(vec![Lit::neg(ff), sr[j].negate(), st[j]]);
                self.beta
                    .add_lits(vec![Lit::pos(ff), sr[j].negate(), se[j]]);
            }
        }
        self.register_dead_ty(&txs);
        self.register_dead_ty(&tts);
        self.register_dead_ty(&tes);
        self.register_dead_env_diff(&enve, &envt);
        // Check before compacting (see `rule_app`).
        self.check_eager(span, Some(field))?;
        self.compact(&envt, &tr);
        Ok((tr, envt))
    }

    /// Infers a branch under the assumption `guard` (the premise
    /// `βs ∧ ff ⊢ e` of Fig. 8), leaving β as it was on entry. Returns the
    /// branch's judgement together with its constraint clauses, each
    /// weakened to `guard → clause`, for the caller to conjoin once both
    /// branches are done.
    fn infer_guarded(
        &mut self,
        env: &TyEnv,
        e: &Expr,
        guard: Lit,
    ) -> Infer<(Ty, TyEnv, Vec<Vec<Lit>>)> {
        if !self.opts.track_fields {
            let (t, env1) = self.infer(env, e)?;
            return Ok((t, env1, Vec::new()));
        }
        let mut saved = self.beta.clone();
        saved.normalize();
        // The guard is assumed while inferring the branch (βs ∧ ff).
        self.beta.assert_lit(guard);
        self.guarded += 1;
        let result = self.infer(env, e);
        self.guarded -= 1;
        let result = result?;
        let mut branch = std::mem::replace(&mut self.beta, saved);
        branch.normalize();
        // Guard everything the branch added (including the assumption,
        // which becomes the tautology guard → guard and disappears).
        let mut added: Vec<Vec<Lit>> = Vec::new();
        {
            let old = self.beta.clauses();
            for c in branch.clauses() {
                if old.binary_search(c).is_err() {
                    let mut lits = c.lits().to_vec();
                    lits.push(guard.negate());
                    added.push(lits);
                }
            }
        }
        let (t, env1) = result;
        Ok((t, env1, added))
    }

    /// List literals: an n-ary meet of element judgements.
    fn rule_list(&mut self, env: &TyEnv, items: &[Expr], span: Span) -> Infer<(Ty, TyEnv)> {
        if items.is_empty() {
            let elem = self.fresh_var();
            return Ok((Ty::list(elem), env.clone()));
        }
        let base = self.beta.clone();
        let (mut elem, mut env_acc) = self.with_held(locals(env), |s| s.infer(env, &items[0]))?;
        for item in &items[1..] {
            let (ri, beta2) = self.with_forked_beta(base.clone(), |s| {
                s.with_held(
                    |held: &mut Vec<Flag>| {
                        locals(env)(held);
                        judgement(&elem, &env_acc)(held);
                    },
                    |s| s.infer(env, item),
                )
            });
            let (ti, env_i) = ri?;
            let mut pairs = vec![(elem.clone(), ti.clone())];
            pairs.extend(self.env_pairs(&env_acc, &env_i));
            let subst = self.mgu(pairs, span)?;
            let mut env_i = env_i;
            self.with_held(judgement(&ti, &env_i), |s| {
                s.apply_flow(&subst, &mut elem, &mut env_acc);
            });
            let mut tis = ti;
            let ((), beta2s) = self.with_forked_beta(beta2, |s| {
                s.with_held(judgement(&elem, &env_acc), |s| {
                    s.apply_flow(&subst, &mut tis, &mut env_i);
                })
            });
            self.merge_beta(beta2s);
            self.equate_envs(&env_acc, &env_i);
            if self.opts.track_fields {
                self.beta.iff_seq(&flag_lits(&elem), &flag_lits(&tis));
            }
            self.register_dead_ty(&tis);
            self.register_dead_env_diff(&env_i, &env_acc);
        }
        let t = Ty::list(elem);
        self.compact(&env_acc, &t);
        Ok((t, env_acc))
    }

    /// Built-in integer operators: both operands unify with `Int`.
    fn rule_binop(
        &mut self,
        env: &TyEnv,
        _op: BinOp,
        a: &Expr,
        b: &Expr,
        span: Span,
    ) -> Infer<(Ty, TyEnv)> {
        let base = self.beta.clone();
        let (ta, mut env1) = self.with_held(locals(env), |s| s.infer(env, a))?;
        let (r2, beta2) = self.with_forked_beta(base, |s| {
            s.with_held(judgement(&ta, &env1), |s| s.infer(env, b))
        });
        let (tb, mut env2) = r2?;
        let mut pairs = vec![(ta.clone(), Ty::Int), (tb.clone(), Ty::Int)];
        pairs.extend(self.env_pairs(&env1, &env2));
        let subst = self.mgu(pairs, span)?;
        let mut ta = ta;
        self.with_held(judgement(&tb, &env2), |s| {
            s.apply_flow(&subst, &mut ta, &mut env1);
        });
        let mut tb = tb;
        let ((), beta2s) = self.with_forked_beta(beta2, |s| {
            s.with_held(judgement(&ta, &env1), |s| {
                s.apply_flow(&subst, &mut tb, &mut env2);
            })
        });
        self.merge_beta(beta2s);
        self.equate_envs(&env1, &env2);
        self.register_dead_ty(&ta);
        self.register_dead_ty(&tb);
        self.register_dead_env_diff(&env2, &env1);
        self.compact(&env1, &Ty::Int);
        Ok((Ty::Int, env1))
    }
}

/// Held roots of an environment: the flags of its local layer, read
/// from the entries' summaries. (Global-layer flags are protected
/// wholesale by the cached global flag set, so they never need to be
/// held explicitly.)
fn locals(env: &TyEnv) -> impl FnOnce(&mut Vec<Flag>) + '_ {
    move |held| held.extend(env.local_flags())
}

/// Held roots of a judgement: the flags of its type plus the local
/// layer of its environment.
fn judgement<'a>(ty: &'a Ty, env: &'a TyEnv) -> impl FnOnce(&mut Vec<Flag>) + 'a {
    move |held| {
        ty.collect_flags(held);
        held.extend(env.local_flags());
    }
}

/// Flags dropped from some structure that await projection once no live
/// structure mentions them. A push appends; the run is sorted and
/// deduplicated when read, so a snapshot is one flat copy.
#[derive(Clone, Debug, Default)]
struct DeadPool {
    flags: Vec<Flag>,
    /// Whether `flags` is sorted and duplicate-free.
    sorted: bool,
}

impl DeadPool {
    fn extend(&mut self, flags: impl IntoIterator<Item = Flag>) {
        let before = self.flags.len();
        self.flags.extend(flags);
        if self.flags.len() != before {
            self.sorted = false;
        }
    }

    fn push_ty(&mut self, t: &Ty) {
        t.collect_flags(&mut self.flags);
        self.sorted = false;
    }

    fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    fn clear(&mut self) {
        self.flags.clear();
        self.sorted = true;
    }

    /// The pool, ascending and duplicate-free.
    fn sorted(&mut self) -> &[Flag] {
        if !self.sorted {
            self.flags.sort_unstable();
            self.flags.dedup();
            self.sorted = true;
        }
        &self.flags
    }

    /// A copy of the pool, deduplicated first so that re-adding it after
    /// a fork at most doubles the pool until the next read.
    fn snapshot(&mut self) -> DeadPool {
        self.sorted();
        self.clone()
    }

    /// Removes `dead`, a sorted subset of the sorted pool.
    fn remove_sorted(&mut self, dead: &[Flag]) {
        debug_assert!(self.sorted, "removal from a sorted pool");
        self.flags.retain(|f| dead.binary_search(f).is_err());
    }
}

/// Point-wise pairs of two environments with the same domain (the
/// judgement meet of the paper's (APP)/(COND) rules).
fn env_pairs_opt(a: &TyEnv, b: &TyEnv, use_versions: bool) -> Vec<(Ty, Ty)> {
    debug_assert_eq!(a.len(), b.len(), "environment domains diverged");
    if use_versions {
        if a.same(b) {
            // Version-tag shortcut (Section 6): identical environments
            // need no equations.
            return Vec::new();
        }
        // Both environments share their frozen global layer, so only the
        // local layers can differ — and of those, only bindings that are
        // not identical contribute non-trivial equations.
        TyEnv::local_diff(a, b)
            .map(|(_, ea, eb)| (ea.binding().ty().clone(), eb.binding().ty().clone()))
            .collect()
    } else {
        // Ablation: the naive meet pairs every binding.
        a.iter()
            .zip(b.iter())
            .map(|((sa, ba), (sb, bb))| {
                debug_assert_eq!(sa, sb, "environment domains diverged");
                (ba.ty().clone(), bb.ty().clone())
            })
            .collect()
    }
}

/// α-equivalence of skeletons: equal up to a bijective renaming of
/// variables (the (LETREC) fixpoint test `⇓RP(tk) = ⇓RP(tk+1)`).
pub fn alpha_eq_skeleton(t1: &Ty, t2: &Ty) -> bool {
    fn go(
        t1: &Ty,
        t2: &Ty,
        fwd: &mut std::collections::HashMap<Var, Var>,
        bwd: &mut std::collections::HashMap<Var, Var>,
    ) -> bool {
        match (t1, t2) {
            (Ty::Var(a, _), Ty::Var(b, _)) => {
                let f = *fwd.entry(*a).or_insert(*b);
                let g = *bwd.entry(*b).or_insert(*a);
                f == *b && g == *a
            }
            (Ty::Int, Ty::Int) | (Ty::Str, Ty::Str) => true,
            (Ty::List(a), Ty::List(b)) => go(a, b, fwd, bwd),
            (Ty::Fun(a1, a2), Ty::Fun(b1, b2)) => go(a1, b1, fwd, bwd) && go(a2, b2, fwd, bwd),
            (Ty::Record(r1), Ty::Record(r2)) => {
                if r1.fields.len() != r2.fields.len() {
                    return false;
                }
                for (f1, f2) in r1.fields.iter().zip(&r2.fields) {
                    if f1.name != f2.name || !go(&f1.ty, &f2.ty, fwd, bwd) {
                        return false;
                    }
                }
                match (&r1.tail, &r2.tail) {
                    (RowTail::Closed, RowTail::Closed) => true,
                    (RowTail::Var(a, _), RowTail::Var(b, _)) => {
                        let f = *fwd.entry(*a).or_insert(*b);
                        let g = *bwd.entry(*b).or_insert(*a);
                        f == *b && g == *a
                    }
                    _ => false,
                }
            }
            _ => false,
        }
    }
    go(t1, t2, &mut Default::default(), &mut Default::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_eq_ignores_variable_identity() {
        let t1 = Ty::fun(Ty::svar(Var(0)), Ty::svar(Var(0)));
        let t2 = Ty::fun(Ty::svar(Var(5)), Ty::svar(Var(5)));
        let t3 = Ty::fun(Ty::svar(Var(0)), Ty::svar(Var(1)));
        assert!(alpha_eq_skeleton(&t1, &t2));
        assert!(!alpha_eq_skeleton(&t1, &t3));
        assert!(!alpha_eq_skeleton(&t3, &t1));
    }

    #[test]
    fn alpha_eq_requires_consistent_bijection() {
        // a → b vs a → a: not alpha-equivalent in either direction.
        let t1 = Ty::fun(Ty::svar(Var(0)), Ty::svar(Var(1)));
        let t2 = Ty::fun(Ty::svar(Var(2)), Ty::svar(Var(2)));
        assert!(!alpha_eq_skeleton(&t1, &t2));
        assert!(!alpha_eq_skeleton(&t2, &t1));
    }
}
