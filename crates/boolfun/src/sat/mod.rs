//! Satisfiability solvers for the Boolean-function domain.
//!
//! The paper classifies record operations by the class of Boolean formulas
//! their inference rules generate:
//!
//! * select / update / removal / renaming → two-variable Horn clauses,
//!   decidable in linear time by a **2-SAT** engine ([`twosat`]);
//! * asymmetric record concatenation → multi-variable Horn clauses,
//!   decidable in linear time by a **Horn-SAT** engine ([`horn`]);
//! * symmetric concatenation and `when N in x` conditionals → general CNF,
//!   requiring a full **SAT** solver ([`cdcl`]).
//!
//! Each class has exactly one engine. Every question is one cold solve:
//! [`solve`] classifies the formula it is given, builds that class's
//! engine from the clauses, answers and keeps nothing, so each program
//! pays only for the operations it uses and an answer depends only on
//! the clause list. [`solve_as`] forces an engine for the §5 ablation;
//! [`solve_proved`] adds a checkable [`Proof`].

pub mod cdcl;
pub mod horn;
pub mod twosat;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use crate::classify::{classify, SatClass};
use crate::cnf::Cnf;
use crate::lit::{Flag, Lit};
use crate::proof::{Proof, ProofChecker, UnsatProof};

/// A cooperative resource budget for SAT search.
///
/// The linear solvers (2-SAT, Horn) terminate in time proportional to
/// the formula, so only the CDCL engine — reached by symmetric
/// concatenation and `when` conditionals — consults the budget: it
/// counts *search steps* (decisions plus unit propagations) and stops
/// early once `max_steps` is exceeded or `cancel` is raised. An early
/// stop is reported as [`BudgetStop`], never as an unsound
/// sat/unsat verdict.
#[derive(Clone, Debug, Default)]
pub struct SatBudget {
    /// Maximum CDCL search steps per solve (`None` = unlimited).
    pub max_steps: Option<u64>,
    /// Cooperative cancellation: when another thread sets the flag the
    /// solver stops at the next loop iteration.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl SatBudget {
    /// A budget that never stops the solver.
    pub fn unlimited() -> SatBudget {
        SatBudget::default()
    }

    /// A pure step budget without a cancellation flag.
    pub fn steps(max: u64) -> SatBudget {
        SatBudget {
            max_steps: Some(max),
            cancel: None,
        }
    }

    /// Whether this budget can ever stop a solve.
    pub fn is_limited(&self) -> bool {
        self.max_steps.is_some() || self.cancel.is_some()
    }

    /// Whether the cancellation flag has been raised.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }
}

/// Why a budgeted solve stopped before reaching a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetStop {
    /// The step budget ran out after `steps` search steps.
    Steps(u64),
    /// The cancellation flag was raised.
    Cancelled,
}

impl BudgetStop {
    /// Steps spent before stopping (0 for a cancellation).
    pub fn steps(self) -> u64 {
        match self {
            BudgetStop::Steps(n) => n,
            BudgetStop::Cancelled => 0,
        }
    }
}

impl std::fmt::Display for BudgetStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetStop::Steps(n) => write!(f, "SAT step budget exhausted after {n} steps"),
            BudgetStop::Cancelled => write!(f, "SAT solve cancelled"),
        }
    }
}

/// A satisfying assignment over the flags mentioned by a formula.
/// Unmentioned flags are unconstrained.
pub type Model = BTreeMap<Flag, bool>;

/// Result of a satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// The formula is satisfiable; a model over the mentioned flags.
    Sat(Model),
    /// The formula is unsatisfiable. The payload is a best-effort
    /// explanation: a chain of literals that are successively forced,
    /// ending in a contradiction. The 2-SAT and Horn solvers produce the
    /// full implication path (this is what turns "unsatisfiable" into the
    /// paper's "path from an empty record to a field access" error
    /// message); the CDCL solver returns an empty chain.
    Unsat(Vec<Lit>),
}

impl SatResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            SatResult::Unsat(_) => None,
        }
    }

    /// The conflict chain, if unsatisfiable.
    pub fn conflict(&self) -> Option<&[Lit]> {
        match self {
            SatResult::Sat(_) => None,
            SatResult::Unsat(chain) => Some(chain),
        }
    }
}

/// Harness override for [`check_proofs_enabled`]: `-1` defers to the
/// environment latch, `0`/`1` force the answer. Lets a benchmark toggle
/// checking within one process to measure its overhead, which the
/// read-once environment latch cannot do.
static CHECK_OVERRIDE: std::sync::atomic::AtomicI8 = std::sync::atomic::AtomicI8::new(-1);

/// Forces inline proof checking on or off for the rest of the process
/// (until the next call), overriding `ROWPOLY_CHECK_PROOFS`. Intended
/// for benchmark harnesses that measure checking overhead; ordinary
/// callers should use the environment variable.
pub fn set_check_proofs(enabled: bool) {
    CHECK_OVERRIDE.store(enabled as i8, std::sync::atomic::Ordering::Relaxed);
}

/// Whether `ROWPOLY_CHECK_PROOFS=1` is set: every verdict produced by
/// [`solve_as`] (and everything layered on it) is then
/// solved with proof emission, checked inline by
/// [`crate::ProofChecker`], and a bogus verdict panics — a standing
/// self-test for the whole engine. The environment is read once per
/// process; [`set_check_proofs`] overrides it.
pub fn check_proofs_enabled() -> bool {
    match CHECK_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
        -1 => {
            static FLAG: OnceLock<bool> = OnceLock::new();
            *FLAG.get_or_init(|| {
                matches!(
                    std::env::var("ROWPOLY_CHECK_PROOFS").ok().as_deref(),
                    Some("1") | Some("true")
                )
            })
        }
        v => v != 0,
    }
}

/// Decides satisfiability of `cnf` with the engine of its own class.
pub fn solve(cnf: &Cnf, budget: &SatBudget) -> Result<SatResult, BudgetStop> {
    solve_as(cnf, classify(cnf), budget)
}

/// [`solve`] with the decision procedure of `class` forced instead of
/// the formula's own class — the §5 ablation that runs, say, CDCL on a
/// 2-SAT formula. A formula that is empty or holds `⊥` is answered
/// directly whatever the class.
///
/// # Panics
///
/// Panics if `cnf` lies outside `class`'s fragment (a 3-literal clause
/// for [`SatClass::TwoSat`], two positive literals for
/// [`SatClass::Horn`]), or if `class` is [`SatClass::Trivial`] or
/// [`SatClass::Unsat`] for a formula that is neither.
///
/// With `ROWPOLY_CHECK_PROOFS=1` every verdict is proved and replayed
/// by [`ProofChecker`] against `cnf` here, and a bogus one panics.
pub fn solve_as(cnf: &Cnf, class: SatClass, budget: &SatBudget) -> Result<SatResult, BudgetStop> {
    if !check_proofs_enabled() {
        return dispatch(cnf, class, budget, false).map(|(r, _)| r);
    }
    let (res, proof) = dispatch(cnf, class, budget, true)?;
    let proof = proof.expect("proof requested from dispatch");
    let t0 = std::time::Instant::now();
    let checked = ProofChecker::check(cnf, &proof);
    if rowpoly_obs::enabled() {
        rowpoly_obs::hist_record(
            &format!("proof.check_ns.{}", classify(cnf).name()),
            t0.elapsed().as_nanos() as u64,
        );
        rowpoly_obs::counter_add("proof.checked", 1);
    }
    if let Err(e) = checked {
        rowpoly_obs::counter_add("proof.check_failures", 1);
        let verdict = if res.is_sat() { "SAT" } else { "UNSAT" };
        panic!("ROWPOLY_CHECK_PROOFS: bogus {verdict} verdict ({e})\nformula: {cnf:?}");
    }
    Ok(res)
}

/// [`solve`] with a [`Proof`] witness valid against `cnf`: SAT verdicts
/// carry the model found, UNSAT verdicts an unsat core (indices into
/// `cnf`'s clauses) and a derivation of `⊥`.
pub fn solve_proved(cnf: &Cnf, budget: &SatBudget) -> Result<(SatResult, Proof), BudgetStop> {
    let (res, proof) = dispatch(cnf, classify(cnf), budget, true)?;
    let proof = proof.expect("proof requested from dispatch");
    if rowpoly_obs::enabled() {
        match &proof {
            Proof::Sat(_) => rowpoly_obs::counter_add("proof.emitted.sat", 1),
            Proof::Unsat(p) => {
                rowpoly_obs::counter_add("proof.emitted.unsat", 1);
                rowpoly_obs::hist_record("proof.core_size", p.core_size() as u64);
                rowpoly_obs::hist_record("proof.derivation_len", p.derivation_len() as u64);
            }
        }
    }
    Ok((res, proof))
}

/// Builds `class`'s engine from `cnf` and answers, with a proof when
/// `want_proof` is set.
fn dispatch(
    cnf: &Cnf,
    class: SatClass,
    budget: &SatBudget,
    want_proof: bool,
) -> Result<(SatResult, Option<Proof>), BudgetStop> {
    if cnf.is_empty() {
        return Ok((
            SatResult::Sat(Model::new()),
            want_proof.then(|| Proof::Sat(Model::new())),
        ));
    }
    if let Some(idx) = cnf.clauses().iter().position(|c| c.is_empty()) {
        return Ok((
            SatResult::Unsat(Vec::new()),
            want_proof.then(|| {
                Proof::Unsat(UnsatProof {
                    core: vec![idx],
                    steps: Vec::new(),
                })
            }),
        ));
    }
    match class {
        SatClass::TwoSat => Ok(twosat::solve(cnf, want_proof)),
        SatClass::Horn => Ok(horn::solve(cnf, false, want_proof)),
        SatClass::DualHorn => Ok(horn::solve(cnf, true, want_proof)),
        SatClass::General => cdcl::solve(cnf, budget, want_proof),
        SatClass::Trivial | SatClass::Unsat => {
            panic!(
                "`{class}` names no solver engine for a `{}` formula",
                classify(cnf)
            )
        }
    }
}

/// Verifies that a model satisfies the formula (test helper).
pub fn check_model(cnf: &Cnf, model: &Model) -> bool {
    cnf.clauses().iter().all(|c| {
        c.lits()
            .iter()
            .any(|l| model.get(&l.flag()).copied().unwrap_or(false) != l.is_neg())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> Lit {
        Lit::pos(Flag(i))
    }
    fn n(i: u32) -> Lit {
        Lit::neg(Flag(i))
    }

    /// All engines agree with brute force on random small formulas.
    #[test]
    fn engines_agree_with_brute_force() {
        // Deterministic pseudo-random generator (LCG) to avoid an extra dep.
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut rand = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _case in 0..300 {
            let nflags = 1 + rand(6) as u32;
            let nclauses = rand(12) as usize;
            let mut cnf = Cnf::top();
            for _ in 0..nclauses {
                let len = 1 + rand(3) as usize;
                let mut lits = Vec::new();
                for _ in 0..len {
                    let f = Flag(rand(nflags as u64) as u32);
                    lits.push(if rand(2) == 0 {
                        Lit::pos(f)
                    } else {
                        Lit::neg(f)
                    });
                }
                cnf.add_lits(lits);
            }
            let universe: Vec<Flag> = (0..nflags).map(Flag).collect();
            let brute_sat = !cnf.models(&universe).is_empty();
            let auto = cnf.solve();
            assert_eq!(auto.is_sat(), brute_sat, "auto dispatch wrong on {cnf:?}");
            if let SatResult::Sat(m) = &auto {
                assert!(check_model(&cnf, m), "bad model for {cnf:?}: {m:?}");
            }
            let cdcl = solve_as(&cnf, SatClass::General, &SatBudget::unlimited())
                .expect("unlimited budget");
            assert_eq!(cdcl.is_sat(), brute_sat, "cdcl wrong on {cnf:?}");
        }
    }

    /// Every proof emitted on random small formulas — spanning all
    /// dispatch classes — passes the checker, and UNSAT cores are
    /// genuinely unsatisfiable subsets.
    #[test]
    fn proofs_check_on_random_formulas() {
        let mut state: u64 = 0xDEADBEEFCAFEF00D;
        let mut rand = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _case in 0..400 {
            let nflags = 1 + rand(6) as u32;
            let nclauses = rand(12) as usize;
            let mut cnf = Cnf::top();
            for _ in 0..nclauses {
                let len = 1 + rand(3) as usize;
                let mut lits = Vec::new();
                for _ in 0..len {
                    let f = Flag(rand(nflags as u64) as u32);
                    lits.push(if rand(2) == 0 {
                        Lit::pos(f)
                    } else {
                        Lit::neg(f)
                    });
                }
                cnf.add_lits(lits);
            }
            let (res, proof) =
                solve_proved(&cnf, &SatBudget::unlimited()).expect("unlimited budget");
            assert_eq!(res.is_sat(), proof.is_sat_witness(), "verdict/proof split");
            if let Err(e) = ProofChecker::check(&cnf, &proof) {
                panic!("proof rejected ({e}) on {cnf:?}\nproof: {proof:?}");
            }
            if let Some(p) = proof.unsat() {
                let sub = Cnf::from_clauses(p.core.iter().map(|&i| cnf.clauses()[i].clone()));
                assert!(
                    !sub.is_sat(),
                    "core of {cnf:?} is satisfiable: {:?}",
                    p.core
                );
                let min = crate::proof::minimize_core(&cnf, &p.core);
                let msub = Cnf::from_clauses(min.iter().map(|&i| cnf.clauses()[i].clone()));
                assert!(!msub.is_sat(), "minimized core is satisfiable");
                assert!(min.len() <= p.core.len());
            }
        }
    }

    /// The verdict agrees with model enumeration, and a model satisfies
    /// the formula.
    fn agree(cnf: &Cnf) {
        let universe: Vec<Flag> = cnf.flags().into_iter().collect();
        let res = solve(cnf, &SatBudget::unlimited()).expect("unlimited budget");
        assert_eq!(
            res.is_sat(),
            !cnf.models(&universe).is_empty(),
            "verdict wrong"
        );
        if let SatResult::Sat(m) = &res {
            assert!(check_model(cnf, m), "model invalid");
        }
    }

    #[test]
    fn cdcl_unsat_core_names_active_slots_and_proof_replays() {
        let mut cnf = Cnf::top();
        cnf.add_lits(vec![p(0), p(1), p(2)]);
        cnf.add_lits(vec![n(0), n(1), n(2)]);
        cnf.add_lits(vec![p(0), n(1)]);
        cnf.add_lits(vec![p(1), n(2)]);
        cnf.add_lits(vec![p(2), n(0)]);
        cnf.add_lits(vec![n(0), p(1)]);
        cnf.add_lits(vec![n(1), p(2)]);
        assert_eq!(classify(&cnf), SatClass::General);
        // Force unsat: all-equal via the implications plus the two
        // covering clauses is still sat; pin both polarities down.
        cnf.add_lits(vec![p(0), p(1)]);
        cnf.add_lits(vec![n(2), n(0)]);
        let (res, proof) = solve_proved(&cnf, &SatBudget::unlimited()).expect("solve");
        if !res.is_sat() {
            assert_eq!(proof.unsat().expect("unsat proof").core.len(), cnf.len());
            ProofChecker::check(&cnf, &proof).expect("proof replays");
        }
        agree(&cnf);
    }

    #[test]
    fn empty_clause_roundtrip() {
        let mut cnf = Cnf::top();
        cnf.assert_lit(p(0));
        cnf.add_clause(crate::Clause::empty());
        assert_eq!(classify(&cnf), SatClass::Unsat);
        let (res, proof) = solve_proved(&cnf, &SatBudget::unlimited()).expect("solve");
        assert!(!res.is_sat());
        assert_eq!(proof.unsat().expect("unsat proof").core, vec![1]);
        ProofChecker::check(&cnf, &proof).expect("empty-clause core replays");
        // Without the empty clause the rest is satisfiable.
        let rest = Cnf::from_clauses([cnf.clauses()[0].clone()]);
        agree(&rest);
        assert!(rest.is_sat());
    }

    #[test]
    fn dispatch_handles_each_class() {
        // 2-SAT shaped.
        let mut two = Cnf::top();
        two.imply(p(0), p(1));
        two.assert_lit(p(0));
        assert!(two.solve().is_sat());

        // Horn shaped (3-literal clause, one positive).
        let mut horn = Cnf::top();
        horn.add_lits(vec![n(0), n(1), p(2)]);
        horn.assert_lit(p(0));
        horn.assert_lit(p(1));
        horn.assert_lit(n(2));
        assert!(!horn.solve().is_sat());

        // General (two positive literals in a 3-clause plus pigeonhole-ish
        // constraints).
        let mut gen = Cnf::top();
        gen.add_lits(vec![p(0), p(1), p(2)]);
        gen.add_lits(vec![n(0), n(1)]);
        gen.add_lits(vec![n(1), n(2)]);
        gen.add_lits(vec![n(0), n(2)]);
        assert!(gen.solve().is_sat());
    }
}
