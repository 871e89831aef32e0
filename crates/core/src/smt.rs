//! Conditional unification constraints: SAT modulo a theory of
//! (syntactic) unification.
//!
//! Section 5 of the paper shows that more expressive record type systems
//! — Pottier-style "a field only needs a consistent type if it is
//! accessed", or `when`-conditionals whose *type terms* differ per branch
//! (Fig. 8, second rule) — give rise to constraints of the form
//! `t1 =β t2`: the types must unify whenever the Boolean function β
//! holds. The paper notes that no off-the-shelf SMT solver has a theory
//! of unification constraints and leaves an implementation to future
//! work; this module provides one, built as a DPLL(T)-style loop around
//! the crate's CDCL solver and the `rowpoly-types` unifier:
//!
//! 1. ask the SAT solver for a model of β;
//! 2. activate every conditional equation whose guard holds in the model
//!    and unify all active equations simultaneously;
//! 3. on unification failure, add a *blocking clause* (the negated guard
//!    assignment) and repeat.
//!
//! The loop terminates because each blocking clause removes at least one
//! assignment of the finitely many guard flags.

use rowpoly_boolfun::{sat, Clause, Cnf, Lit, SatResult};
use rowpoly_obs as obs;
use rowpoly_types::{mgu, Subst, Ty, VarAlloc};

/// A conditional unification constraint `left =guard right`: the two
/// types must unify in any model where every guard literal is true.
#[derive(Clone, Debug)]
pub struct CondEq {
    /// Conjunction of literals guarding the equation.
    pub guard: Vec<Lit>,
    /// Left-hand type (a skeleton).
    pub left: Ty,
    /// Right-hand type (a skeleton).
    pub right: Ty,
}

impl CondEq {
    /// An unconditional equation.
    pub fn always(left: Ty, right: Ty) -> CondEq {
        CondEq {
            guard: Vec::new(),
            left,
            right,
        }
    }

    /// An equation guarded by a single literal.
    pub fn when(guard: Lit, left: Ty, right: Ty) -> CondEq {
        CondEq {
            guard: vec![guard],
            left,
            right,
        }
    }

    fn active_in(&self, model: &sat::Model) -> bool {
        self.guard.iter().all(|l| {
            // Guard flags not mentioned by β default to false.
            let v = model.get(&l.flag()).copied().unwrap_or(false);
            v != l.is_neg()
        })
    }
}

/// Outcome of the conditional-unification solver.
#[derive(Clone, Debug)]
pub enum SmtOutcome {
    /// A model of β under which all active equations unify; the
    /// substitution witnesses the unification.
    Sat {
        /// The satisfying assignment found.
        model: sat::Model,
        /// The unifier of the active equations.
        unifier: Subst,
        /// Number of SAT-solver/theory iterations taken.
        iterations: usize,
    },
    /// No model of β makes the active equations unifiable.
    Unsat {
        /// Number of iterations before exhaustion.
        iterations: usize,
    },
}

impl SmtOutcome {
    /// Whether a consistent instantiation exists.
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtOutcome::Sat { .. })
    }
}

/// Decides whether some model of `beta` makes all guarded equations
/// unifiable (see the module documentation for the algorithm).
pub fn solve_conditional(beta: &Cnf, eqs: &[CondEq], vars: &mut VarAlloc) -> SmtOutcome {
    let _span = obs::span("smt.solve");
    let mut working = beta.clone();
    // Guard flags must be decided by the model even if β does not mention
    // them; mention them with tautologies... instead we default unmentioned
    // guards to false in `active_in` and enumerate flips via blocking
    // clauses over the guard literals that *were* true.
    let budget = rowpoly_boolfun::SatBudget::unlimited();
    let mut iterations = 0;
    let mut theory_checks: u64 = 0;
    let mut blocking_clauses: u64 = 0;
    let out = loop {
        iterations += 1;
        let solved = sat::solve(&working, &budget).expect("unlimited budget");
        let model = match solved {
            SatResult::Sat(m) => m,
            SatResult::Unsat(_) => break SmtOutcome::Unsat { iterations },
        };
        let active: Vec<&CondEq> = eqs.iter().filter(|eq| eq.active_in(&model)).collect();
        let pairs: Vec<(Ty, Ty)> = active
            .iter()
            .map(|eq| (eq.left.clone(), eq.right.clone()))
            .collect();
        theory_checks += 1;
        match mgu(pairs, vars) {
            Ok(unifier) => {
                break SmtOutcome::Sat {
                    model,
                    unifier,
                    iterations,
                }
            }
            Err(_) => {
                // Block this activation pattern: at least one active guard
                // literal must flip.
                let mut lits: Vec<Lit> = active
                    .iter()
                    .flat_map(|eq| eq.guard.iter().map(|l| l.negate()))
                    .collect();
                lits.sort_unstable();
                lits.dedup();
                if lits.is_empty() {
                    // Unconditional equations failed: no model can help.
                    break SmtOutcome::Unsat { iterations };
                }
                match Clause::new(lits) {
                    Some(c) => {
                        blocking_clauses += 1;
                        working.add_clause(c);
                    }
                    None => break SmtOutcome::Unsat { iterations },
                }
            }
        }
    };
    if obs::enabled() {
        obs::counter_add("smt.solves", 1);
        obs::counter_add("smt.iterations", iterations as u64);
        obs::counter_add("smt.theory_checks", theory_checks);
        obs::counter_add("smt.blocking_clauses", blocking_clauses);
        // Each blocking clause is one backtrack of the DPLL(T) loop, so
        // the count doubles as this solve's backtracking depth.
        obs::counter_max("smt.backtrack.depth", blocking_clauses);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowpoly_boolfun::{Flag, FlagAlloc};

    /// The Section 1.1 example: `{} @ (if c then {f=42} else {f="42"})`.
    /// Pottier's simplified rule `D'r` rejects it because the field type
    /// must be consistent up front; with conditional constraints the
    /// program is accepted (the field is never accessed, so either guard
    /// assignment works).
    #[test]
    fn pottier_incompleteness_repaired() {
        let mut flags = FlagAlloc::new();
        let mut vars = VarAlloc::new();
        let g = flags.fresh(); // "the then-branch value reached the field"
        let d = Ty::svar(vars.fresh()); // the field's type if accessed
        let eqs = vec![
            CondEq::when(Lit::pos(g), d.clone(), Ty::Int),
            CondEq::when(Lit::neg(g), d.clone(), Ty::Str),
        ];
        // β unconstrained: no access forces a particular guard.
        let out = solve_conditional(&Cnf::top(), &eqs, &mut vars);
        assert!(out.is_sat(), "no field access ⇒ either branch type is fine");

        // Eager unification (the paper's core system) rejects the same
        // program: Int does not unify with Str.
        assert!(mgu(vec![(Ty::Int, Ty::Str)], &mut vars).is_err());
    }

    #[test]
    fn access_forcing_both_branches_is_rejected() {
        let mut flags = FlagAlloc::new();
        let mut vars = VarAlloc::new();
        let g = flags.fresh();
        let d = Ty::svar(vars.fresh());
        let eqs = vec![
            CondEq::when(Lit::pos(g), d.clone(), Ty::Int),
            // Accessing the field demands Int regardless of the branch.
            CondEq::always(d.clone(), Ty::Str),
        ];
        // β forces the then-branch guard.
        let mut beta = Cnf::top();
        beta.assert_lit(Lit::pos(g));
        let out = solve_conditional(&beta, &eqs, &mut vars);
        assert!(!out.is_sat());
    }

    #[test]
    fn solver_explores_guard_assignments() {
        // d = Int under g, d = Str under h; g ∨ h required, both failing
        // together. Model search must find g ∧ ¬h or ¬g ∧ h.
        let mut flags = FlagAlloc::new();
        let mut vars = VarAlloc::new();
        let g = flags.fresh();
        let h = flags.fresh();
        let d = Ty::svar(vars.fresh());
        let mut beta = Cnf::top();
        beta.add_lits(vec![Lit::pos(g), Lit::pos(h)]);
        let eqs = vec![
            CondEq::when(Lit::pos(g), d.clone(), Ty::Int),
            CondEq::when(Lit::pos(h), d.clone(), Ty::Str),
        ];
        match solve_conditional(&beta, &eqs, &mut vars) {
            SmtOutcome::Sat { model, .. } => {
                let gv = model.get(&g).copied().unwrap_or(false);
                let hv = model.get(&h).copied().unwrap_or(false);
                assert!(
                    gv ^ hv,
                    "exactly one branch may be active, got g={gv} h={hv}"
                );
            }
            SmtOutcome::Unsat { .. } => panic!("a consistent assignment exists"),
        }
    }

    #[test]
    fn unconditional_conflict_is_unsat_immediately() {
        let mut vars = VarAlloc::new();
        let eqs = vec![CondEq::always(Ty::Int, Ty::Str)];
        let out = solve_conditional(&Cnf::top(), &eqs, &mut vars);
        assert!(!out.is_sat());
        if let SmtOutcome::Unsat { iterations } = out {
            assert_eq!(iterations, 1);
        }
    }

    #[test]
    fn guards_default_to_false_when_unmentioned() {
        let mut vars = VarAlloc::new();
        // Guarded by a flag β never mentions: inactive by default, so a
        // contradictory equation under it is harmless.
        let eqs = vec![CondEq::when(Lit::pos(Flag(99)), Ty::Int, Ty::Str)];
        assert!(solve_conditional(&Cnf::top(), &eqs, &mut vars).is_sat());
    }

    #[test]
    fn transitive_unification_through_shared_variable() {
        let mut flags = FlagAlloc::new();
        let mut vars = VarAlloc::new();
        let g = flags.fresh();
        let d = Ty::svar(vars.fresh());
        let e = Ty::svar(vars.fresh());
        let eqs = vec![
            CondEq::when(Lit::pos(g), d.clone(), e.clone()),
            CondEq::when(Lit::pos(g), d.clone(), Ty::Int),
            CondEq::when(Lit::pos(g), e.clone(), Ty::Str),
        ];
        let mut beta = Cnf::top();
        beta.assert_lit(Lit::pos(g));
        assert!(!solve_conditional(&beta, &eqs, &mut vars).is_sat());
    }
}
