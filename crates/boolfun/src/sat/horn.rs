//! Linear-time Horn-SAT by positive unit propagation (Dowling–Gallier).
//!
//! Asymmetric record concatenation generates multi-variable Horn clauses
//! when the meaning of flags is inverted (`¬f` = "field exists"), which the
//! paper notes keeps concatenation linear-time. [`solve`] decides Horn
//! formulas (at most one positive literal per clause) and, by polarity
//! flipping, dual-Horn formulas (at most one negative literal per clause);
//! the functions below turn its propagation trail into a conflict chain
//! and a checkable proof.

use std::collections::{HashMap, HashSet};

use crate::clause::Clause;
use crate::cnf::Cnf;
use crate::lit::{Flag, Lit};
use crate::proof::{ClauseRef, DerivationStep, Proof, UnsatProof};
use crate::sat::{Model, SatResult};

/// Horn / dual-Horn: one Dowling–Gallier propagation pass. Every clause
/// is read before the queue drains, so facts fire in the order of a
/// one-pass run over the clause list and conflict chains and cores
/// depend only on that list. The minimal model is the least fixpoint,
/// which is order-independent.
struct HornEngine {
    flip: bool,
    /// Per clause: head flag (if any) and body atoms still pending.
    rows: Vec<(Option<Flag>, usize)>,
    body_watch: HashMap<Flag, Vec<usize>>,
    /// The true facts.
    truth: HashSet<Flag>,
    reason: HashMap<Flag, usize>,
    derived: Vec<Flag>,
    queue: Vec<Flag>,
    qi: usize,
    conflict: Option<usize>,
    mentioned: HashSet<Flag>,
}

/// Decides a Horn formula (`flip` false) or a dual-Horn one (`flip`
/// true) with no empty clause.
pub(crate) fn solve(cnf: &Cnf, flip: bool, want_proof: bool) -> (SatResult, Option<Proof>) {
    let mut e = HornEngine {
        flip,
        rows: Vec::with_capacity(cnf.len()),
        body_watch: HashMap::new(),
        truth: HashSet::new(),
        reason: HashMap::new(),
        derived: Vec::new(),
        queue: Vec::new(),
        qi: 0,
        conflict: None,
        mentioned: HashSet::new(),
    };
    for c in cnf.clauses() {
        e.feed(c);
    }
    let mut propagations = 0u64;
    e.drain(&mut propagations);
    if rowpoly_obs::enabled() {
        let (solves, props) = if flip {
            ("sat.dual-horn.solves", "sat.dual-horn.propagations")
        } else {
            ("sat.horn.solves", "sat.horn.propagations")
        };
        rowpoly_obs::counter_add(solves, 1);
        rowpoly_obs::counter_add(props, propagations);
    }
    match e.conflict {
        Some(violated) => {
            let chain = conflict_chain(cnf, violated, &e.reason, &e.derived, flip);
            let proof = want_proof
                .then(|| Proof::Unsat(conflict_proof(cnf, violated, &e.reason, &e.derived, flip)));
            (SatResult::Unsat(chain), proof)
        }
        None => {
            let model = e.model();
            let proof = want_proof.then(|| Proof::Sat(model.clone()));
            (SatResult::Sat(model), proof)
        }
    }
}

impl HornEngine {
    fn feed(&mut self, c: &Clause) {
        let ci = self.rows.len();
        let mut head: Option<Flag> = None;
        let mut pending = 0usize;
        for &raw in c.lits() {
            let l = if self.flip { raw.negate() } else { raw };
            self.mentioned.insert(l.flag());
            if l.is_neg() {
                pending += 1;
                self.body_watch.entry(l.flag()).or_default().push(ci);
            } else {
                assert!(
                    head.is_none(),
                    "Horn engine given a clause with two positive literals: {c:?}"
                );
                head = Some(l.flag());
            }
        }
        if let (0, Some(f)) = (pending, head) {
            self.enqueue(f, ci);
        }
        self.rows.push((head, pending));
    }

    /// Records `f` as a fact forced by clause `ci`, unless already known.
    fn enqueue(&mut self, f: Flag, ci: usize) {
        if self.truth.insert(f) {
            self.reason.insert(f, ci);
            self.queue.push(f);
        }
    }

    /// Fires queued facts until the queue is empty or a clause is
    /// violated. Every fact a conflict rests on has fired, so `derived`
    /// (firing order) covers the conflict trace; facts still queued at a
    /// conflict stay unfired.
    fn drain(&mut self, propagations: &mut u64) {
        while self.conflict.is_none() && self.qi < self.queue.len() {
            let f = self.queue[self.qi];
            self.qi += 1;
            *propagations += 1;
            self.derived.push(f);
            // A fact fires its watchers exactly once.
            let watchers = self.body_watch.remove(&f).unwrap_or_default();
            for ci in watchers {
                let row = &mut self.rows[ci];
                row.1 -= 1;
                if row.1 == 0 {
                    match row.0 {
                        Some(h) => self.enqueue(h, ci),
                        None => {
                            self.conflict = Some(ci);
                            break;
                        }
                    }
                }
            }
        }
    }

    fn model(&self) -> Model {
        let mut model = Model::new();
        for &f in &self.mentioned {
            model.insert(f, self.truth.contains(&f) != self.flip);
        }
        model
    }
}

/// Shared conflict traversal: walks reasons backwards from the violated
/// clause, returning the facts transitively responsible (discovery
/// order) and the clauses visited (the unsat core, discovery order).
fn trace_conflict(
    cnf: &Cnf,
    violated: usize,
    reason: &HashMap<Flag, usize>,
    flip: bool,
) -> (Vec<Flag>, Vec<usize>) {
    let mut needed: Vec<Flag> = Vec::new();
    let mut core: Vec<usize> = Vec::new();
    let mut stack: Vec<usize> = vec![violated];
    let mut seen_clauses = HashSet::new();
    let mut seen_flags = HashSet::new();
    while let Some(ci) = stack.pop() {
        if !seen_clauses.insert(ci) {
            continue;
        }
        core.push(ci);
        let c: &Clause = &cnf.clauses()[ci];
        for &raw in c.lits() {
            let l = if flip { raw.negate() } else { raw };
            if l.is_neg() && seen_flags.insert(l.flag()) {
                needed.push(l.flag());
                if let Some(&rc) = reason.get(&l.flag()) {
                    stack.push(rc);
                }
            }
        }
    }
    (needed, core)
}

/// Walks reasons backwards from the violated clause, producing the forced
/// literals in derivation order.
fn conflict_chain(
    cnf: &Cnf,
    violated: usize,
    reason: &HashMap<Flag, usize>,
    derived: &[Flag],
    flip: bool,
) -> Vec<Lit> {
    let (needed, _core) = trace_conflict(cnf, violated, reason, flip);
    // Order by derivation order for a readable chain.
    let mut chain: Vec<Lit> = derived
        .iter()
        .filter(|f| needed.contains(f))
        .map(|&f| Lit::new(f, flip))
        .collect();
    if chain.is_empty() {
        // Conflict from facts alone; report the violated clause's atoms.
        chain = cnf.clauses()[violated].lits().to_vec();
    }
    chain
}

/// Unit-resolution refutation mirroring the propagation that found the
/// conflict. Each fact `f` in the responsible set gets the unit clause
/// `{head(f)}` derived by resolving its reason clause against the units
/// of its body atoms (in propagation order, so every body unit already
/// exists); the violated clause then resolves against its body units
/// down to `⊥`. The core is exactly the reason clauses the traversal
/// visits — the same set the conflict chain reports on.
fn conflict_proof(
    cnf: &Cnf,
    violated: usize,
    reason: &HashMap<Flag, usize>,
    derived: &[Flag],
    flip: bool,
) -> UnsatProof {
    let (needed, mut core) = trace_conflict(cnf, violated, reason, flip);
    let needed: HashSet<Flag> = needed.into_iter().collect();
    let mut steps: Vec<DerivationStep> = Vec::new();
    // unit_ref[f] = the clause {head raw literal of f} in the derivation.
    let mut unit_ref: HashMap<Flag, ClauseRef> = HashMap::new();
    for &f in derived.iter().filter(|f| needed.contains(f)) {
        let rc = reason[&f];
        let r = resolve_body_away(cnf, rc, flip, &unit_ref, &mut steps);
        unit_ref.insert(f, r);
    }
    resolve_body_away(cnf, violated, flip, &unit_ref, &mut steps);
    core.sort_unstable();
    UnsatProof { core, steps }
}

/// Resolves every (oriented-)negative literal of clause `ci` against the
/// corresponding fact's unit clause, leaving `{head}` for a rule clause
/// and `⊥` for the violated all-negative clause. Returns a reference to
/// the final clause.
fn resolve_body_away(
    cnf: &Cnf,
    ci: usize,
    flip: bool,
    unit_ref: &HashMap<Flag, ClauseRef>,
    steps: &mut Vec<DerivationStep>,
) -> ClauseRef {
    let clause = &cnf.clauses()[ci];
    let mut cur_ref = ClauseRef::Input(ci);
    let mut cur = clause.clone();
    for &raw in clause.lits() {
        let oriented = if flip { raw.negate() } else { raw };
        if !oriented.is_neg() {
            continue; // the head survives
        }
        let g = oriented.flag();
        // The unit clause is {pivot}; `cur` still carries ¬pivot (= raw).
        let pivot = raw.negate();
        let unit = Clause::unit(pivot);
        let resolvent = unit
            .resolve(&cur, pivot)
            .expect("unit resolution cannot produce a tautology");
        steps.push(DerivationStep::Resolve {
            left: unit_ref[&g],
            right: cur_ref,
            pivot,
            resolvent: resolvent.clone(),
        });
        cur_ref = ClauseRef::Derived(steps.len() - 1);
        cur = resolvent;
    }
    cur_ref
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::SatClass;
    use crate::sat::{check_model, solve_as, SatBudget};

    /// Solves `b` with the Horn engine.
    fn horn(b: &Cnf) -> SatResult {
        solve_as(b, SatClass::Horn, &SatBudget::unlimited())
            .expect("linear engines ignore the budget")
    }

    /// Solves `b` with the Horn engine on flipped polarities.
    fn dual_horn(b: &Cnf) -> SatResult {
        solve_as(b, SatClass::DualHorn, &SatBudget::unlimited())
            .expect("linear engines ignore the budget")
    }

    fn p(i: u32) -> Lit {
        Lit::pos(Flag(i))
    }
    fn n(i: u32) -> Lit {
        Lit::neg(Flag(i))
    }

    #[test]
    fn facts_propagate_through_rules() {
        // f0, f1, (f0 ∧ f1 → f2), ¬f2 ∨ ¬f3-free: sat with f2 true.
        let mut b = Cnf::top();
        b.assert_lit(p(0));
        b.assert_lit(p(1));
        b.add_lits(vec![n(0), n(1), p(2)]);
        match horn(&b) {
            SatResult::Sat(m) => {
                assert!(check_model(&b, &m));
                assert!(m[&Flag(2)]);
            }
            SatResult::Unsat(_) => panic!("should be sat"),
        }
    }

    #[test]
    fn minimal_model_leaves_unforced_false() {
        let mut b = Cnf::top();
        b.add_lits(vec![n(0), p(1)]); // f0 → f1, f0 not forced
        match horn(&b) {
            SatResult::Sat(m) => {
                assert!(!m[&Flag(0)]);
                assert!(!m[&Flag(1)]);
            }
            SatResult::Unsat(_) => panic!("should be sat"),
        }
    }

    #[test]
    fn goal_clause_conflict() {
        // f0, f0→f1, f1→f2, goal ¬f2: unsat, chain mentions f0..f2.
        let mut b = Cnf::top();
        b.assert_lit(p(0));
        b.add_lits(vec![n(0), p(1)]);
        b.add_lits(vec![n(1), p(2)]);
        b.assert_lit(n(2));
        match horn(&b) {
            SatResult::Unsat(chain) => {
                let flags: Vec<Flag> = chain.iter().map(|l| l.flag()).collect();
                assert!(flags.contains(&Flag(0)));
                assert!(flags.contains(&Flag(2)));
            }
            SatResult::Sat(_) => panic!("should be unsat"),
        }
    }

    #[test]
    fn wide_bodies_require_all_atoms() {
        // f0 ∧ f1 ∧ f2 → ⊥ but only f0, f1 are facts: sat.
        let mut b = Cnf::top();
        b.assert_lit(p(0));
        b.assert_lit(p(1));
        b.add_lits(vec![n(0), n(1), n(2)]);
        assert!(horn(&b).is_sat());
    }

    #[test]
    fn dual_horn_by_flipping() {
        // (f0 ∨ f1 ∨ ¬f2) ∧ ¬f0 ∧ ¬f1 ∧ f2 — dual-Horn, unsat.
        let mut b = Cnf::top();
        b.add_lits(vec![p(0), p(1), n(2)]);
        b.assert_lit(n(0));
        b.assert_lit(n(1));
        b.assert_lit(p(2));
        assert!(!dual_horn(&b).is_sat());

        // Drop the f2 fact: sat.
        let mut b = Cnf::top();
        b.add_lits(vec![p(0), p(1), n(2)]);
        b.assert_lit(n(0));
        b.assert_lit(n(1));
        match dual_horn(&b) {
            SatResult::Sat(m) => assert!(check_model(&b, &m)),
            SatResult::Unsat(_) => panic!("should be sat"),
        }
    }

    /// The inverted-flag encoding of asymmetric concatenation from
    /// Section 5: (f1a ∧ f2a → fa) with inverted meaning — still Horn and
    /// solvable in linear time.
    #[test]
    fn asymmetric_concat_clause_shape() {
        let mut b = Cnf::top();
        // fa → f1a ∨ f2a in the original polarity becomes, inverted,
        // ¬f1a' ∧ ¬f2a' → ¬fa', i.e. clause (f1a' ∨ f2a' ∨ ¬fa')… kept
        // here in its Horn form after inversion: (¬f1a ∨ ¬f2a ∨ fa).
        b.add_lits(vec![n(0), n(1), p(2)]);
        assert_eq!(crate::classify(&b), crate::SatClass::Horn);
        assert!(horn(&b).is_sat());
    }
}
