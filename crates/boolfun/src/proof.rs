//! Machine-checkable verdict witnesses: models, resolution derivations,
//! and unsat cores.
//!
//! Every satisfiability verdict the crate produces can carry a [`Proof`]:
//! a SAT answer ships the model that was found, an UNSAT answer ships an
//! [`UnsatProof`] — the subset of input clauses actually used (the *unsat
//! core*) plus a step-by-step derivation of the empty clause from them.
//! [`ProofChecker`] replays a proof against the original formula with no
//! knowledge of any solver's internals, so a verdict is trusted exactly
//! when its evidence checks out (the same self-auditing discipline DRAT
//! checkers bring to industrial SAT solving).
//!
//! Two derivation step shapes cover the three solver families:
//!
//! * [`DerivationStep::Resolve`] — an explicit binary resolution. The
//!   2-SAT solver's implication paths and the Horn solver's unit
//!   propagations both translate directly into chains of resolutions,
//!   so their proofs replay without any search.
//! * [`DerivationStep::Rup`] — a *reverse unit propagation* step, the
//!   clause-learning-friendly format: the step's clause is valid if
//!   asserting its negation and unit-propagating over the core plus the
//!   previously derived clauses yields a conflict. CDCL learnt clauses
//!   are RUP by construction.
//!
//! A proof is accepted when its final derived clause is the empty clause
//! `⊥` (or the core itself contains `⊥`). Cores do not have to be
//! minimal to be *valid*; [`minimize_core`] shrinks one by deletion
//! before it reaches user-facing diagnostics.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::clause::Clause;
use crate::cnf::Cnf;
use crate::lit::{Flag, Lit};
use crate::sat::Model;

/// Reference to a clause inside a derivation: either one of the input
/// formula's clauses (by index into [`Cnf::clauses`]) or a clause derived
/// by an earlier step (by step index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClauseRef {
    /// `Input(i)` is `cnf.clauses()[i]`; it must be listed in the core.
    Input(usize),
    /// `Derived(i)` is the clause established by derivation step `i`.
    Derived(usize),
}

/// One step of an UNSAT derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DerivationStep {
    /// Binary resolution: `left` contains `pivot`, `right` contains
    /// `¬pivot`, and `resolvent` is (subsumed by) their resolvent.
    Resolve {
        left: ClauseRef,
        right: ClauseRef,
        pivot: Lit,
        resolvent: Clause,
    },
    /// Reverse unit propagation: asserting the negation of `clause` and
    /// unit-propagating over the core and all previously derived clauses
    /// reaches a conflict.
    Rup { clause: Clause },
}

impl DerivationStep {
    /// The clause this step establishes.
    pub fn clause(&self) -> &Clause {
        match self {
            DerivationStep::Resolve { resolvent, .. } => resolvent,
            DerivationStep::Rup { clause } => clause,
        }
    }
}

/// A refutation: an unsat core plus a derivation of `⊥` from it.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct UnsatProof {
    /// Indices of the input clauses the derivation draws from.
    pub core: Vec<usize>,
    /// Derivation of the empty clause; empty iff the core itself
    /// contains `⊥`.
    pub steps: Vec<DerivationStep>,
}

impl UnsatProof {
    /// Number of input clauses cited by the core.
    pub fn core_size(&self) -> usize {
        self.core.len()
    }

    /// Number of derivation steps.
    pub fn derivation_len(&self) -> usize {
        self.steps.len()
    }

    /// The flags mentioned by the core clauses of `cnf`.
    pub fn core_flags(&self, cnf: &Cnf) -> Vec<Flag> {
        let mut flags: Vec<Flag> = self
            .core
            .iter()
            .filter_map(|&i| cnf.clauses().get(i))
            .flat_map(|c| c.lits().iter().map(|l| l.flag()))
            .collect();
        flags.sort_unstable();
        flags.dedup();
        flags
    }
}

/// Evidence for a satisfiability verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Proof {
    /// Witness for SAT: a model over the mentioned flags (flags absent
    /// from the map are `false`).
    Sat(Model),
    /// Witness for UNSAT: a core and a derivation of `⊥`.
    Unsat(UnsatProof),
}

impl Proof {
    /// Whether this proof witnesses satisfiability.
    pub fn is_sat_witness(&self) -> bool {
        matches!(self, Proof::Sat(_))
    }

    /// The refutation, if this is an UNSAT proof.
    pub fn unsat(&self) -> Option<&UnsatProof> {
        match self {
            Proof::Sat(_) => None,
            Proof::Unsat(p) => Some(p),
        }
    }
}

/// Why a proof was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// A SAT model leaves input clause `clause` unsatisfied.
    FalsifiedClause { clause: usize },
    /// A core index is out of bounds for the formula.
    BadCoreIndex { index: usize },
    /// A step references a clause that does not exist (input outside the
    /// core or the formula, or a derived index at or beyond the step).
    BadClauseRef { step: usize },
    /// A resolution step's pivot does not occur with the required
    /// polarities, or the resolvent is a tautology.
    BadResolution { step: usize },
    /// A resolution step records a resolvent the replay does not confirm.
    WrongResolvent { step: usize },
    /// A RUP step's clause is not confirmed by unit propagation.
    RupNotConfirmed { step: usize },
    /// The derivation never reaches the empty clause.
    NoEmptyClause,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::FalsifiedClause { clause } => {
                write!(f, "model falsifies input clause #{clause}")
            }
            ProofError::BadCoreIndex { index } => {
                write!(f, "core cites input clause #{index}, which does not exist")
            }
            ProofError::BadClauseRef { step } => {
                write!(f, "derivation step {step} references an unknown clause")
            }
            ProofError::BadResolution { step } => {
                write!(f, "derivation step {step} is not a valid resolution")
            }
            ProofError::WrongResolvent { step } => {
                write!(
                    f,
                    "derivation step {step} records a resolvent the replay refutes"
                )
            }
            ProofError::RupNotConfirmed { step } => {
                write!(
                    f,
                    "derivation step {step} is not confirmed by unit propagation"
                )
            }
            ProofError::NoEmptyClause => {
                write!(f, "derivation never derives the empty clause")
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// Validates proofs against the formulas they claim to witness.
///
/// The checker is deliberately independent of the solvers: it knows only
/// [`Clause::resolve`], clause evaluation, and unit propagation. Its
/// invariants are:
///
/// 1. a SAT proof's model satisfies every input clause (absent flags
///    read as `false`, matching every solver's model convention);
/// 2. an UNSAT proof's core cites only existing input clauses, every
///    `Input` reference in a step is cited by the core, and every
///    `Derived` reference points strictly backwards;
/// 3. each `Resolve` step replays: the recomputed resolvent subsumes the
///    recorded one (recording a weakened resolvent is sound);
/// 4. each `Rup` step confirms: negating its clause and unit-propagating
///    over core + earlier derivations conflicts;
/// 5. the derivation reaches `⊥` (trivially so if the core contains an
///    empty input clause).
pub struct ProofChecker;

impl ProofChecker {
    /// Checks `proof` against `cnf`.
    pub fn check(cnf: &Cnf, proof: &Proof) -> Result<(), ProofError> {
        match proof {
            Proof::Sat(model) => Self::check_model(cnf, model),
            Proof::Unsat(p) => Self::check_unsat(cnf, p),
        }
    }

    fn check_model(cnf: &Cnf, model: &Model) -> Result<(), ProofError> {
        for (i, c) in cnf.clauses().iter().enumerate() {
            let sat = c
                .lits()
                .iter()
                .any(|l| model.get(&l.flag()).copied().unwrap_or(false) != l.is_neg());
            if !sat {
                return Err(ProofError::FalsifiedClause { clause: i });
            }
        }
        Ok(())
    }

    fn check_unsat(cnf: &Cnf, proof: &UnsatProof) -> Result<(), ProofError> {
        let clauses = cnf.clauses();
        let mut core_set: HashSet<usize> = HashSet::with_capacity(proof.core.len());
        for &i in &proof.core {
            if i >= clauses.len() {
                return Err(ProofError::BadCoreIndex { index: i });
            }
            core_set.insert(i);
        }
        // A core containing ⊥ refutes the formula with no derivation.
        if proof.core.iter().any(|&i| clauses[i].is_empty()) {
            return Ok(());
        }
        let mut derived: Vec<&Clause> = Vec::with_capacity(proof.steps.len());
        let mut reached_empty = false;
        for (si, step) in proof.steps.iter().enumerate() {
            match step {
                DerivationStep::Resolve {
                    left,
                    right,
                    pivot,
                    resolvent,
                } => {
                    let lc = Self::deref(clauses, &core_set, &derived, *left)
                        .ok_or(ProofError::BadClauseRef { step: si })?;
                    let rc = Self::deref(clauses, &core_set, &derived, *right)
                        .ok_or(ProofError::BadClauseRef { step: si })?;
                    if !lc.contains(*pivot) || !rc.contains(pivot.negate()) {
                        return Err(ProofError::BadResolution { step: si });
                    }
                    let computed = lc
                        .resolve(rc, *pivot)
                        .ok_or(ProofError::BadResolution { step: si })?;
                    if !computed.subsumes(resolvent) {
                        return Err(ProofError::WrongResolvent { step: si });
                    }
                }
                DerivationStep::Rup { clause } => {
                    let pool: Vec<&Clause> = core_set
                        .iter()
                        .map(|&i| &clauses[i])
                        .chain(derived.iter().copied())
                        .collect();
                    if !rup_confirms(&pool, clause) {
                        return Err(ProofError::RupNotConfirmed { step: si });
                    }
                }
            }
            let c = step.clause();
            if c.is_empty() {
                reached_empty = true;
            }
            derived.push(c);
        }
        if reached_empty {
            Ok(())
        } else {
            Err(ProofError::NoEmptyClause)
        }
    }

    fn deref<'a>(
        clauses: &'a [Clause],
        core: &HashSet<usize>,
        derived: &[&'a Clause],
        r: ClauseRef,
    ) -> Option<&'a Clause> {
        match r {
            ClauseRef::Input(i) => {
                if core.contains(&i) {
                    clauses.get(i)
                } else {
                    None
                }
            }
            ClauseRef::Derived(i) => derived.get(i).copied(),
        }
    }
}

/// Reverse-unit-propagation check: asserting `¬target` and propagating
/// units over `pool` must reach a conflict. Quadratic-per-round scan —
/// proofs in this pipeline are small, and the checker optimises for
/// obviousness over speed.
fn rup_confirms(pool: &[&Clause], target: &Clause) -> bool {
    // assign[f] = forced truth value of flag f.
    let mut assign: HashMap<Flag, bool> = HashMap::new();
    for &l in target.lits() {
        // ¬target: every literal of the target is false.
        assign.insert(l.flag(), l.is_neg());
    }
    loop {
        let mut progress = false;
        for c in pool {
            let mut unassigned: Option<Lit> = None;
            let mut satisfied = false;
            let mut open = 0usize;
            for &l in c.lits() {
                match assign.get(&l.flag()) {
                    Some(&v) => {
                        if v != l.is_neg() {
                            satisfied = true;
                            break;
                        }
                    }
                    None => {
                        open += 1;
                        unassigned = Some(l);
                    }
                }
            }
            if satisfied {
                continue;
            }
            match (open, unassigned) {
                (0, _) => return true, // all literals false: conflict
                (1, Some(l)) => {
                    assign.insert(l.flag(), !l.is_neg());
                    progress = true;
                }
                _ => {}
            }
        }
        if !progress {
            return false;
        }
    }
}

/// Deletion-based core minimization: drops each cited clause in turn and
/// keeps the deletion when the rest is still unsatisfiable. The result
/// is a *minimal* core (no single clause can be removed), though not
/// necessarily a minimum one. Each trial re-solves the candidate subset
/// with the class-dispatched solver, so minimization is meant for the
/// diagnostic path, not for every verdict.
pub fn minimize_core(cnf: &Cnf, core: &[usize]) -> Vec<usize> {
    let clauses = cnf.clauses();
    let mut kept: Vec<usize> = core
        .iter()
        .copied()
        .filter(|&i| i < clauses.len())
        .collect();
    let mut solves = 0u64;
    let mut dropped = 0u64;
    let mut i = 0;
    while i < kept.len() {
        let candidate = Cnf::from_clauses(
            kept.iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &ci)| clauses[ci].clone()),
        );
        solves += 1;
        if candidate.is_sat() {
            i += 1;
        } else {
            kept.remove(i);
            dropped += 1;
        }
    }
    if rowpoly_obs::enabled() {
        rowpoly_obs::counter_add("proof.minimize.calls", 1);
        rowpoly_obs::counter_add("proof.minimize.solves", solves);
        rowpoly_obs::counter_add("proof.minimize.dropped", dropped);
        rowpoly_obs::hist_record("proof.minimized_core_size", kept.len() as u64);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::FlagAlloc;

    fn p(i: u32) -> Lit {
        Lit::pos(Flag(i))
    }
    fn n(i: u32) -> Lit {
        Lit::neg(Flag(i))
    }

    #[test]
    fn sat_proof_checks_model() {
        let mut b = Cnf::top();
        b.imply(p(0), p(1));
        b.assert_lit(p(0));
        let mut m = Model::new();
        m.insert(Flag(0), true);
        m.insert(Flag(1), true);
        assert_eq!(ProofChecker::check(&b, &Proof::Sat(m)), Ok(()));
        let mut bad = Model::new();
        bad.insert(Flag(0), true);
        bad.insert(Flag(1), false);
        assert!(matches!(
            ProofChecker::check(&b, &Proof::Sat(bad)),
            Err(ProofError::FalsifiedClause { .. })
        ));
    }

    #[test]
    fn resolution_derivation_replays() {
        // {f0} {¬f0 ∨ f1} {¬f1}: resolve to ⊥.
        let mut b = Cnf::top();
        b.assert_lit(p(0)); // 0
        b.imply(p(0), p(1)); // 1: ¬f0 ∨ f1
        b.assert_lit(n(1)); // 2
        let proof = Proof::Unsat(UnsatProof {
            core: vec![0, 1, 2],
            steps: vec![
                DerivationStep::Resolve {
                    left: ClauseRef::Input(0),
                    right: ClauseRef::Input(1),
                    pivot: p(0),
                    resolvent: Clause::unit(p(1)),
                },
                DerivationStep::Resolve {
                    left: ClauseRef::Derived(0),
                    right: ClauseRef::Input(2),
                    pivot: p(1),
                    resolvent: Clause::empty(),
                },
            ],
        });
        assert_eq!(ProofChecker::check(&b, &proof), Ok(()));
    }

    #[test]
    fn wrong_resolvent_is_rejected() {
        let mut b = Cnf::top();
        b.assert_lit(p(0));
        b.imply(p(0), p(1));
        let proof = Proof::Unsat(UnsatProof {
            core: vec![0, 1],
            steps: vec![DerivationStep::Resolve {
                left: ClauseRef::Input(0),
                right: ClauseRef::Input(1),
                pivot: p(0),
                resolvent: Clause::empty(), // actual resolvent is {f1}
            }],
        });
        assert!(matches!(
            ProofChecker::check(&b, &proof),
            Err(ProofError::WrongResolvent { .. })
        ));
    }

    #[test]
    fn rup_step_confirms_by_propagation() {
        // {f0} {¬f0 ∨ f1} {¬f1}: the empty clause is RUP directly.
        let mut b = Cnf::top();
        b.assert_lit(p(0));
        b.imply(p(0), p(1));
        b.assert_lit(n(1));
        let proof = Proof::Unsat(UnsatProof {
            core: vec![0, 1, 2],
            steps: vec![DerivationStep::Rup {
                clause: Clause::empty(),
            }],
        });
        assert_eq!(ProofChecker::check(&b, &proof), Ok(()));
    }

    #[test]
    fn rup_on_satisfiable_core_is_rejected() {
        let mut b = Cnf::top();
        b.imply(p(0), p(1));
        let proof = Proof::Unsat(UnsatProof {
            core: vec![0],
            steps: vec![DerivationStep::Rup {
                clause: Clause::empty(),
            }],
        });
        assert!(matches!(
            ProofChecker::check(&b, &proof),
            Err(ProofError::RupNotConfirmed { .. })
        ));
    }

    #[test]
    fn input_refs_outside_the_core_are_rejected() {
        let mut b = Cnf::top();
        b.assert_lit(p(0));
        b.assert_lit(n(0));
        let proof = Proof::Unsat(UnsatProof {
            core: vec![0], // cites only clause 0, but the step uses 1
            steps: vec![DerivationStep::Resolve {
                left: ClauseRef::Input(0),
                right: ClauseRef::Input(1),
                pivot: p(0),
                resolvent: Clause::empty(),
            }],
        });
        assert!(matches!(
            ProofChecker::check(&b, &proof),
            Err(ProofError::BadClauseRef { .. })
        ));
    }

    #[test]
    fn empty_core_clause_is_trivially_valid() {
        let b = Cnf::bottom();
        let proof = Proof::Unsat(UnsatProof {
            core: vec![0],
            steps: vec![],
        });
        assert_eq!(ProofChecker::check(&b, &proof), Ok(()));
    }

    #[test]
    fn derivation_without_empty_clause_is_rejected() {
        let mut b = Cnf::top();
        b.assert_lit(p(0));
        b.imply(p(0), p(1));
        b.assert_lit(n(1));
        let proof = Proof::Unsat(UnsatProof {
            core: vec![0, 1, 2],
            steps: vec![DerivationStep::Resolve {
                left: ClauseRef::Input(0),
                right: ClauseRef::Input(1),
                pivot: p(0),
                resolvent: Clause::unit(p(1)),
            }],
        });
        assert_eq!(
            ProofChecker::check(&b, &proof),
            Err(ProofError::NoEmptyClause)
        );
    }

    #[test]
    fn minimize_core_drops_irrelevant_clauses() {
        // f0, ¬f0 conflict; f2 → f3 is noise.
        let mut b = Cnf::top();
        b.assert_lit(p(0)); // 0
        b.imply(p(2), p(3)); // 1
        b.assert_lit(n(0)); // 2
        b.assert_lit(p(2)); // 3
        let min = minimize_core(&b, &[0, 1, 2, 3]);
        assert_eq!(min, vec![0, 2]);
    }

    #[test]
    fn minimized_core_is_still_unsat() {
        let mut flags = FlagAlloc::new();
        let fs: Vec<Flag> = (0..6).map(|_| flags.fresh()).collect();
        let mut b = Cnf::top();
        for w in fs.windows(2) {
            b.imply(Lit::pos(w[0]), Lit::pos(w[1]));
        }
        b.assert_lit(Lit::pos(fs[0]));
        b.assert_lit(Lit::neg(fs[5]));
        // Add irrelevant clauses.
        b.imply(Lit::neg(fs[2]), Lit::pos(fs[4]));
        let all: Vec<usize> = (0..b.len()).collect();
        let min = minimize_core(&b, &all);
        assert!(min.len() < b.len());
        let sub = Cnf::from_clauses(min.iter().map(|&i| b.clauses()[i].clone()));
        assert!(!sub.is_sat());
    }
}
